//! Zero-copy view lockdown: for arbitrary timelines, a [`CsrSanView`]
//! over `to_store_bytes()` output is **query-for-query identical** to the
//! owned [`CsrSan`] it was serialised from — every [`SanRead`] method,
//! required and defaulted — and a [`MappedSnapshot`] of the same bytes
//! serves the same answers. Includes the 10k-node/98-day fixture, where
//! every column crosses many staging-buffer boundaries.

#[cfg(unix)]
use san_graph::mmap::MappedSnapshot;
use san_graph::prelude::*;
use san_graph::view::{AlignedBytes, CsrSanView};
use std::collections::BTreeSet;
#[cfg(unix)]
use std::path::PathBuf;

use proptest::prelude::*;

/// Same arbitrary-timeline strategy family as `store_roundtrip`: mixed
/// node/link arrivals on both layers with multi-day gaps.
fn arb_timeline(max_ops: usize) -> impl Strategy<Value = SanTimeline> {
    prop::collection::vec((0u8..6, any::<u32>(), any::<u32>()), 1..max_ops).prop_map(|ops| {
        let mut tb = TimelineBuilder::new();
        for (op, x, y) in ops {
            match op {
                0 => {
                    tb.add_social_node();
                }
                1 => {
                    let ty = match x % 5 {
                        0 => AttrType::School,
                        1 => AttrType::Major,
                        2 => AttrType::Employer,
                        3 => AttrType::City,
                        _ => AttrType::Other,
                    };
                    tb.add_attr_node(ty);
                }
                2 | 3 => {
                    let ns = tb.san().num_social_nodes() as u32;
                    if ns >= 2 {
                        tb.add_social_link(SocialId(x % ns), SocialId(y % ns));
                    }
                }
                4 => {
                    let ns = tb.san().num_social_nodes() as u32;
                    let na = tb.san().num_attr_nodes() as u32;
                    if ns >= 1 && na >= 1 {
                        tb.add_attr_link(SocialId(x % ns), AttrId(y % na));
                    }
                }
                _ => {
                    tb.advance_to_day(tb.day() + 1 + (x % 3));
                }
            }
        }
        tb.finish().0
    })
}

/// Every `SanRead` method — required accessors, degrees, membership,
/// combined neighbourhoods, iteration — agrees between the view and the
/// owned snapshot. Pairwise queries are exhaustive (these graphs are
/// small).
fn assert_view_agrees(view: &CsrSanView<'_>, csr: &CsrSan) {
    assert_eq!(view.num_social_nodes(), csr.num_social_nodes());
    assert_eq!(view.num_attr_nodes(), csr.num_attr_nodes());
    assert_eq!(
        SanRead::num_social_links(view),
        SanRead::num_social_links(csr)
    );
    assert_eq!(SanRead::num_attr_links(view), SanRead::num_attr_links(csr));
    let social: Vec<SocialId> = view.social_nodes().collect();
    assert_eq!(social, csr.social_nodes().collect::<Vec<_>>());
    let attrs: Vec<AttrId> = view.attr_nodes().collect();
    assert_eq!(attrs, csr.attr_nodes().collect::<Vec<_>>());
    for &u in &social {
        assert_eq!(view.out_neighbors(u), csr.out_neighbors(u), "{u} out");
        assert_eq!(view.in_neighbors(u), csr.in_neighbors(u), "{u} in");
        assert_eq!(view.attrs_of(u), csr.attrs_of(u), "{u} attrs");
        assert_eq!(
            view.social_neighbors(u).as_ref(),
            csr.social_neighbors(u).as_ref(),
            "{u} Γs"
        );
        assert_eq!(view.undirected_neighbors(u), csr.undirected_neighbors(u));
        assert_eq!(view.out_degree(u), csr.out_degree(u));
        assert_eq!(view.in_degree(u), csr.in_degree(u));
        assert_eq!(view.attr_degree(u), csr.attr_degree(u));
        assert_eq!(view.undirected_degree(u), csr.undirected_degree(u));
    }
    for &a in &attrs {
        assert_eq!(view.members_of(a), csr.members_of(a), "{a} members");
        assert_eq!(view.attr_type(a), csr.attr_type(a), "{a} type");
        assert_eq!(view.social_degree_of_attr(a), csr.social_degree_of_attr(a));
    }
    for &u in &social {
        for &v in &social {
            assert_eq!(
                view.has_social_link(u, v),
                csr.has_social_link(u, v),
                "{u}->{v}"
            );
            assert_eq!(
                view.common_attrs(u, v),
                csr.common_attrs(u, v),
                "common_attrs {u},{v}"
            );
            assert_eq!(
                view.common_social_neighbors(u, v),
                csr.common_social_neighbors(u, v),
                "common_social {u},{v}"
            );
        }
        for &a in &attrs {
            assert_eq!(view.has_attr_link(u, a), csr.has_attr_link(u, a));
        }
    }
    assert_eq!(
        view.social_links().collect::<BTreeSet<_>>(),
        csr.social_links().collect::<BTreeSet<_>>()
    );
    assert_eq!(
        view.attr_links().collect::<BTreeSet<_>>(),
        csr.attr_links().collect::<BTreeSet<_>>()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Query-for-query identity at every sampled day of arbitrary
    /// timelines, plus O(1)-overhead and exact materialisation audits.
    #[test]
    fn view_is_query_identical_at_every_sampled_day(tl in arb_timeline(80), step in 1u32..4) {
        for (day, snap) in tl.snapshot_stream(step) {
            let bytes = AlignedBytes::from_bytes(&snap.to_store_bytes());
            let view = CsrSanView::new(&bytes).expect("valid snapshot bytes");
            assert_view_agrees(&view, &snap);
            // Zero column allocations: the view owns no heap at all.
            prop_assert_eq!(view.heap_bytes(), 0, "day {}", day);
            // Materialising recovers the exact owned form (and exact
            // heap accounting, like CsrSan::from_store_bytes).
            let owned = view.to_owned_csr();
            prop_assert_eq!(&owned, &*snap, "day {}", day);
            prop_assert_eq!(owned.heap_bytes(), snap.heap_bytes(), "day {}", day);
        }
    }
}

#[cfg(unix)]
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The mapped path serves the same answers as the in-memory view.
    /// Ignored under Miri: the interpreter cannot call the foreign
    /// `mmap(2)`; the in-memory view proptests above cover the shared
    /// validation and query code.
    #[cfg_attr(miri, ignore)]
    #[test]
    fn mapped_snapshot_is_query_identical(tl in arb_timeline(60)) {
        use std::sync::atomic::{AtomicU32, Ordering};
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let Some(day) = tl.max_day() else { return };
        let snap = tl.snapshot_csr(day);
        let path: PathBuf = std::env::temp_dir().join(format!(
            "san-view-eq-{}-{}.csr",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, snap.to_store_bytes()).expect("write snapshot");
        let mapped = MappedSnapshot::open(&path).expect("map snapshot");
        assert_view_agrees(&mapped.view(), &snap);
        drop(mapped);
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn empty_and_attr_only_graphs_view_identically() {
    let empty = San::new().freeze();
    let bytes = AlignedBytes::from_bytes(&empty.to_store_bytes());
    assert_view_agrees(&CsrSanView::new(&bytes).expect("empty"), &empty);

    let mut san = San::new();
    let u = san.add_social_node();
    for ty in [
        AttrType::School,
        AttrType::Major,
        AttrType::Employer,
        AttrType::City,
        AttrType::Other,
    ] {
        let a = san.add_attr_node(ty);
        san.add_attr_link(u, a);
    }
    let snap = san.freeze();
    let bytes = AlignedBytes::from_bytes(&snap.to_store_bytes());
    assert_view_agrees(&CsrSanView::new(&bytes).expect("attr-only"), &snap);
}

/// The 10k-node/98-day fixture: columns cross the staging buffer many
/// times; per-node comparisons cover every row, pairwise queries sample.
/// Ignored under Miri — same code paths as the proptests above, at a
/// volume the interpreter would take hours over.
#[cfg_attr(miri, ignore)]
#[test]
fn ten_k_fixture_views_identically() {
    use san_stats::SplitRng;
    let mut rng = SplitRng::new(42);
    let mut tb = TimelineBuilder::new();
    let mut users: Vec<SocialId> = vec![tb.add_social_node()];
    let attrs: Vec<AttrId> = (0..64)
        .map(|i| tb.add_attr_node(AttrType::PAPER_TYPES[i % 4]))
        .collect();
    for day in 1..=98u32 {
        tb.advance_to_day(day);
        for _ in 0..102 {
            let u = tb.add_social_node();
            for _ in 0..3 {
                let v = users[rng.below(users.len() as u64) as usize];
                tb.add_social_link(u, v);
                if rng.chance(0.3) {
                    tb.add_social_link(v, u);
                }
            }
            if rng.chance(0.4) {
                tb.add_attr_link(u, attrs[rng.below(64) as usize]);
            }
            users.push(u);
        }
    }
    let (_, san) = tb.finish();
    let snap = san.freeze();
    assert!(snap.num_social_nodes() >= 9_000, "fixture big enough");
    let bytes = AlignedBytes::from_bytes(&snap.to_store_bytes());
    let view = CsrSanView::new(&bytes).expect("10k snapshot views");
    assert_eq!(view.num_social_nodes(), snap.num_social_nodes());
    assert_eq!(
        SanRead::num_social_links(&view),
        SanRead::num_social_links(&snap)
    );
    for u in view.social_nodes() {
        assert_eq!(view.out_neighbors(u), snap.out_neighbors(u));
        assert_eq!(view.in_neighbors(u), snap.in_neighbors(u));
        assert_eq!(view.attrs_of(u), snap.attrs_of(u));
        assert_eq!(view.undirected_neighbors(u), snap.undirected_neighbors(u));
    }
    for a in view.attr_nodes() {
        assert_eq!(view.members_of(a), snap.members_of(a));
        assert_eq!(view.attr_type(a), snap.attr_type(a));
    }
    let n = snap.num_social_nodes() as u64;
    let mut rng = SplitRng::new(7);
    for _ in 0..20_000 {
        let u = SocialId(rng.below(n) as u32);
        let v = SocialId(rng.below(n) as u32);
        assert_eq!(view.has_social_link(u, v), snap.has_social_link(u, v));
        assert_eq!(
            view.common_social_neighbors(u, v),
            snap.common_social_neighbors(u, v)
        );
        assert_eq!(view.common_attrs(u, v), snap.common_attrs(u, v));
    }
    assert_eq!(view.heap_bytes(), 0);
    assert_eq!(view.to_owned_csr(), snap);
}
