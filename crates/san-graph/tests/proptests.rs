//! Property-based tests for the SAN data structure.

use proptest::prelude::*;
use san_graph::degree::{bound_degrees, degree_vectors, to_undirected};
use san_graph::prelude::*;
use san_graph::subsample::subsample_attributes;
use san_graph::traverse::{bfs_directed, induced_subgraph, weakly_connected_components};
use san_stats::SplitRng;

/// Strategy: a random SAN with up to `n` social nodes, `m` attribute nodes
/// and random links.
fn arb_san(max_social: u32, max_attr: u32) -> impl Strategy<Value = San> {
    (
        1..=max_social,
        0..=max_attr,
        prop::collection::vec((any::<u32>(), any::<u32>()), 0..200),
        prop::collection::vec((any::<u32>(), any::<u32>()), 0..100),
    )
        .prop_map(|(ns, na, social, attr)| {
            let mut san = San::new();
            for _ in 0..ns {
                san.add_social_node();
            }
            for i in 0..na {
                let ty = match i % 4 {
                    0 => AttrType::School,
                    1 => AttrType::Major,
                    2 => AttrType::Employer,
                    _ => AttrType::City,
                };
                san.add_attr_node(ty);
            }
            for (u, v) in social {
                let (u, v) = (u % ns, v % ns);
                if u != v {
                    san.add_social_link(SocialId(u), SocialId(v));
                }
            }
            if na > 0 {
                for (u, a) in attr {
                    san.add_attr_link(SocialId(u % ns), AttrId(a % na));
                }
            }
            san
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every randomly grown SAN satisfies the internal consistency
    /// invariants (mirrored adjacency, accurate counters, no dups).
    #[test]
    fn random_san_consistent(san in arb_san(40, 8)) {
        prop_assert!(san.check_consistency().is_ok());
    }

    /// Sum of out-degrees = sum of in-degrees = |Es|; attribute link sums
    /// match on both sides of the bipartite graph.
    #[test]
    fn degree_sums_match_link_counts(san in arb_san(40, 8)) {
        let dv = degree_vectors(&san);
        let links = san.num_social_links() as u64;
        prop_assert_eq!(dv.out.iter().sum::<u64>(), links);
        prop_assert_eq!(dv.inc.iter().sum::<u64>(), links);
        let alinks = san.num_attr_links() as u64;
        prop_assert_eq!(dv.attr_of_social.iter().sum::<u64>(), alinks);
        prop_assert_eq!(dv.social_of_attr.iter().sum::<u64>(), alinks);
    }

    /// WCC assignment is a partition consistent with the link structure.
    #[test]
    fn wcc_is_consistent_partition(san in arb_san(40, 4)) {
        let (ids, sizes) = weakly_connected_components(&san);
        prop_assert_eq!(ids.len(), san.num_social_nodes());
        prop_assert_eq!(sizes.iter().sum::<usize>(), san.num_social_nodes());
        for (u, v) in san.social_links() {
            prop_assert_eq!(ids[u.index()], ids[v.index()]);
        }
    }

    /// BFS distances satisfy the triangle property along edges:
    /// d(v) <= d(u) + 1 for every edge u->v with u reachable.
    #[test]
    fn bfs_distance_triangle(san in arb_san(30, 0)) {
        let d = bfs_directed(&san, SocialId(0));
        for (u, v) in san.social_links() {
            if let Some(du) = d[u.index()] {
                let dv = d[v.index()].expect("successor of reachable node is reachable");
                prop_assert!(dv <= du + 1);
            }
        }
    }

    /// Subsampling preserves the social structure and never increases
    /// attribute links; keep=1 is the identity on link counts.
    #[test]
    fn subsample_bounds(san in arb_san(30, 6), seed in 0u64..100, p in 0.0f64..1.0) {
        let mut rng = SplitRng::new(seed);
        let sub = subsample_attributes(&san, p, &mut rng);
        prop_assert_eq!(sub.num_social_links(), san.num_social_links());
        prop_assert!(sub.num_attr_links() <= san.num_attr_links());
        prop_assert!(sub.check_consistency().is_ok());
    }

    /// The undirected view is symmetric and loses no connectivity.
    #[test]
    fn undirected_view_symmetric(san in arb_san(30, 0)) {
        let adj = to_undirected(&san);
        for (u, list) in adj.iter().enumerate() {
            for &v in list {
                prop_assert!(adj[v as usize].contains(&(u as u32)));
            }
        }
        for (u, v) in san.social_links() {
            prop_assert!(adj[u.index()].contains(&v.0));
        }
    }

    /// Degree bounding respects the bound and symmetry.
    #[test]
    fn degree_bound_holds(san in arb_san(30, 0), bound in 1usize..8, seed in 0u64..100) {
        let adj = to_undirected(&san);
        let mut rng = SplitRng::new(seed);
        let bounded = bound_degrees(&adj, bound, &mut rng);
        for (u, list) in bounded.iter().enumerate() {
            prop_assert!(list.len() <= bound);
            for &v in list {
                prop_assert!(bounded[v as usize].contains(&(u as u32)));
                // Bounded edges are a subset of original edges.
                prop_assert!(adj[u].contains(&v));
            }
        }
    }

    /// Induced subgraphs never contain links that were absent in the parent.
    #[test]
    fn induced_subgraph_is_subgraph(san in arb_san(30, 6), pick in prop::collection::vec(any::<u32>(), 1..15)) {
        let n = san.num_social_nodes() as u32;
        let keep: Vec<SocialId> = pick.into_iter().map(|x| SocialId(x % n)).collect();
        let sub = induced_subgraph(&san, &keep);
        prop_assert!(sub.san.check_consistency().is_ok());
        for (u, v) in sub.san.social_links() {
            let ou = sub.social_origin[u.index()];
            let ov = sub.social_origin[v.index()];
            prop_assert!(san.has_social_link(ou, ov));
        }
        for (u, a) in sub.san.attr_links() {
            let ou = sub.social_origin[u.index()];
            let oa = sub.attr_origin[a.index()];
            prop_assert!(san.has_attr_link(ou, oa));
        }
    }

    /// `San::freeze()` round-trips: the frozen CsrSan agrees with the
    /// mutable San on every `SanRead` query — counts, neighbourhoods
    /// (as sets), degrees, membership, common-neighbour features, link
    /// iteration, and attribute types.
    #[test]
    fn freeze_roundtrip_matches_san(san in arb_san(35, 7)) {
        use std::collections::BTreeSet;
        let csr = san.freeze();
        prop_assert_eq!(SanRead::num_social_nodes(&csr), san.num_social_nodes());
        prop_assert_eq!(SanRead::num_attr_nodes(&csr), san.num_attr_nodes());
        prop_assert_eq!(SanRead::num_social_links(&csr), san.num_social_links());
        prop_assert_eq!(SanRead::num_attr_links(&csr), san.num_attr_links());
        for u in san.social_nodes() {
            prop_assert_eq!(
                SanRead::out_neighbors(&csr, u).iter().collect::<BTreeSet<_>>(),
                san.out_neighbors(u).iter().collect::<BTreeSet<_>>()
            );
            prop_assert_eq!(
                SanRead::in_neighbors(&csr, u).iter().collect::<BTreeSet<_>>(),
                san.in_neighbors(u).iter().collect::<BTreeSet<_>>()
            );
            prop_assert_eq!(
                SanRead::attrs_of(&csr, u).iter().collect::<BTreeSet<_>>(),
                san.attrs_of(u).iter().collect::<BTreeSet<_>>()
            );
            prop_assert_eq!(SanRead::out_degree(&csr, u), san.out_degree(u));
            prop_assert_eq!(SanRead::in_degree(&csr, u), san.in_degree(u));
            prop_assert_eq!(SanRead::attr_degree(&csr, u), san.attr_degree(u));
            prop_assert_eq!(
                SanRead::social_neighbors(&csr, u).as_ref(),
                san.social_neighbors(u).as_slice()
            );
        }
        for a in san.attr_nodes() {
            prop_assert_eq!(
                SanRead::members_of(&csr, a).iter().collect::<BTreeSet<_>>(),
                san.members_of(a).iter().collect::<BTreeSet<_>>()
            );
            prop_assert_eq!(SanRead::attr_type(&csr, a), san.attr_type(a));
            prop_assert_eq!(
                SanRead::social_degree_of_attr(&csr, a),
                san.social_degree_of_attr(a)
            );
        }
        for u in san.social_nodes() {
            for v in san.social_nodes() {
                prop_assert_eq!(
                    SanRead::has_social_link(&csr, u, v),
                    san.has_social_link(u, v)
                );
                prop_assert_eq!(SanRead::common_attrs(&csr, u, v), san.common_attrs(u, v));
                prop_assert_eq!(
                    SanRead::common_social_neighbors(&csr, u, v),
                    san.common_social_neighbors(u, v)
                );
            }
            for a in san.attr_nodes() {
                prop_assert_eq!(
                    SanRead::has_attr_link(&csr, u, a),
                    san.has_attr_link(u, a)
                );
            }
        }
        prop_assert_eq!(
            SanRead::social_links(&csr).collect::<BTreeSet<_>>(),
            san.social_links().collect::<BTreeSet<_>>()
        );
        prop_assert_eq!(
            SanRead::attr_links(&csr).collect::<BTreeSet<_>>(),
            san.attr_links().collect::<BTreeSet<_>>()
        );
    }

    /// Generic analytics see identical results through the mutable San and
    /// its frozen snapshot (BFS, WCC, degree vectors).
    #[test]
    fn analytics_agree_on_frozen_snapshot(san in arb_san(30, 4)) {
        let csr = san.freeze();
        let d_san = bfs_directed(&san, SocialId(0));
        let d_csr = bfs_directed(&csr, SocialId(0));
        prop_assert_eq!(d_san, d_csr);
        let (_, mut sizes_san) = weakly_connected_components(&san);
        let (_, mut sizes_csr) = weakly_connected_components(&csr);
        sizes_san.sort_unstable();
        sizes_csr.sort_unstable();
        prop_assert_eq!(sizes_san, sizes_csr);
        let dv_san = degree_vectors(&san);
        let dv_csr = degree_vectors(&csr);
        prop_assert_eq!(dv_san.out, dv_csr.out);
        prop_assert_eq!(dv_san.inc, dv_csr.inc);
        prop_assert_eq!(dv_san.attr_of_social, dv_csr.attr_of_social);
        prop_assert_eq!(dv_san.social_of_attr, dv_csr.social_of_attr);
    }

    /// Timeline replay at the final day reproduces the live structure.
    #[test]
    fn timeline_replay_matches_live(
        ops in prop::collection::vec((0u8..4, any::<u32>(), any::<u32>()), 1..150)
    ) {
        let mut tb = TimelineBuilder::new();
        let mut day = 0u32;
        for (op, x, y) in ops {
            match op {
                0 => { tb.add_social_node(); }
                1 => { tb.add_attr_node(AttrType::Other); }
                2 => {
                    let ns = tb.san().num_social_nodes() as u32;
                    if ns >= 2 {
                        let (u, v) = (x % ns, y % ns);
                        if u != v {
                            tb.add_social_link(SocialId(u), SocialId(v));
                        }
                    }
                }
                _ => {
                    let ns = tb.san().num_social_nodes() as u32;
                    let na = tb.san().num_attr_nodes() as u32;
                    if ns >= 1 && na >= 1 {
                        tb.add_attr_link(SocialId(x % ns), AttrId(y % na));
                    }
                }
            }
            if x % 7 == 0 {
                day += 1;
                tb.advance_to_day(day);
            }
        }
        let (tl, live) = tb.finish();
        let replay = tl.final_snapshot();
        prop_assert_eq!(replay.num_social_nodes(), live.num_social_nodes());
        prop_assert_eq!(replay.num_attr_nodes(), live.num_attr_nodes());
        prop_assert_eq!(replay.num_social_links(), live.num_social_links());
        prop_assert_eq!(replay.num_attr_links(), live.num_attr_links());
        prop_assert!(replay.check_consistency().is_ok());
    }

    /// The builder's stored `Γs` rows track the live network through any
    /// mutation sequence — self-loops, duplicates and reverse links
    /// included: after every step the view's borrowed row equals
    /// `San::social_neighbors`, and the delegated queries equal the San's.
    #[test]
    fn builder_view_rows_match_san(
        ops in prop::collection::vec((0u8..6, any::<u32>(), any::<u32>()), 1..160)
    ) {
        let mut tb = TimelineBuilder::new();
        let mut last: Option<(SocialId, SocialId)> = None;
        for (op, x, y) in ops {
            let ns = tb.san().num_social_nodes() as u32;
            let na = tb.san().num_attr_nodes() as u32;
            match op {
                0 => { tb.add_social_node(); }
                1 => { tb.add_attr_node(AttrType::Other); }
                // Any pair, self-loops included (the builder rejects them).
                2 if ns >= 1 => {
                    let (u, v) = (SocialId(x % ns), SocialId(y % ns));
                    tb.add_social_link(u, v);
                    last = Some((u, v));
                }
                // Repeat the last link (a duplicate) or add its reverse.
                3 => {
                    if let Some((u, v)) = last {
                        if x % 2 == 0 {
                            tb.add_social_link(u, v);
                        } else {
                            tb.add_social_link(v, u);
                        }
                    }
                }
                4 if ns >= 1 && na >= 1 => {
                    tb.add_attr_link(SocialId(x % ns), AttrId(y % na));
                }
                _ => {}
            }
            let view = tb.view();
            let san = tb.san();
            prop_assert_eq!(view.num_social_links(), san.num_social_links());
            for u in san.social_nodes() {
                prop_assert_eq!(
                    view.social_neighbors(u).as_ref(),
                    San::social_neighbors(san, u).as_slice()
                );
            }
            if ns >= 1 {
                let (u, v) = (SocialId(x % ns), SocialId(y % ns));
                prop_assert_eq!(view.has_social_link(u, v), san.has_social_link(u, v));
                prop_assert_eq!(view.common_attrs(u, v), san.common_attrs(u, v));
            }
        }
    }

    /// Snapshot monotonicity: counts never decrease over days.
    #[test]
    fn snapshots_monotone(
        ops in prop::collection::vec((0u8..4, any::<u32>(), any::<u32>()), 1..100)
    ) {
        let mut tb = TimelineBuilder::new();
        let mut day = 0u32;
        for (op, x, y) in ops {
            match op {
                0 => { tb.add_social_node(); }
                1 => { tb.add_attr_node(AttrType::City); }
                2 => {
                    let ns = tb.san().num_social_nodes() as u32;
                    if ns >= 2 && x % ns != y % ns {
                        tb.add_social_link(SocialId(x % ns), SocialId(y % ns));
                    }
                }
                _ => {
                    let ns = tb.san().num_social_nodes() as u32;
                    let na = tb.san().num_attr_nodes() as u32;
                    if ns >= 1 && na >= 1 {
                        tb.add_attr_link(SocialId(x % ns), AttrId(y % na));
                    }
                }
            }
            if x % 5 == 0 {
                day += 1;
                tb.advance_to_day(day);
            }
        }
        let (tl, _) = tb.finish();
        let counts = tl.day_counts();
        for w in counts.windows(2) {
            prop_assert!(w[1].social_nodes >= w[0].social_nodes);
            prop_assert!(w[1].attr_nodes >= w[0].attr_nodes);
            prop_assert!(w[1].social_links >= w[0].social_links);
            prop_assert!(w[1].attr_links >= w[0].attr_links);
        }
    }

    /// The crawler observes a subgraph of the truth, and with full
    /// visibility it covers the seed's whole WCC.
    #[test]
    fn crawler_subgraph_and_coverage(san in arb_san(30, 4), seed_raw in any::<u32>()) {
        let n = san.num_social_nodes() as u32;
        let seed = SocialId(seed_raw % n);
        let public = vec![true; n as usize];
        let mut crawler = san_graph::crawler::Crawler::new(vec![seed]);
        let snap = crawler.crawl(&san, &public);
        // Subgraph property.
        for (u, v) in snap.san.social_links() {
            let ou = snap.social_origin[u.index()];
            let ov = snap.social_origin[v.index()];
            prop_assert!(san.has_social_link(ou, ov));
        }
        // Full visibility: the crawl covers exactly the seed's WCC.
        let (ids, sizes) = weakly_connected_components(&san);
        let wcc_size = sizes[ids[seed.index()]];
        prop_assert_eq!(snap.san.num_social_nodes(), wcc_size);
    }
}

/// A plain `Vec<Vec<_>>` SAN: the reference the arena-backed [`San`]
/// must match accessor for accessor.
#[derive(Default)]
struct RefSan {
    out: Vec<Vec<SocialId>>,
    inc: Vec<Vec<SocialId>>,
    node_attrs: Vec<Vec<AttrId>>,
    members: Vec<Vec<SocialId>>,
    types: Vec<AttrType>,
}

/// One growth step, already resolved to concrete ids.
#[derive(Debug, Clone, Copy)]
enum Step {
    SocialNode,
    AttrNode(AttrType),
    SocialLink(SocialId, SocialId),
    AttrLink(SocialId, AttrId),
    /// `San::shrink_to_fit` on the plain `San`; a no-op elsewhere.
    Compact,
}

/// The mutation API shared by `San`, `TimelineBuilder` and the reference.
trait Grow {
    fn apply(&mut self, step: Step) -> bool;
}

impl Grow for RefSan {
    fn apply(&mut self, step: Step) -> bool {
        match step {
            Step::SocialNode => {
                self.out.push(Vec::new());
                self.inc.push(Vec::new());
                self.node_attrs.push(Vec::new());
                true
            }
            Step::AttrNode(ty) => {
                self.members.push(Vec::new());
                self.types.push(ty);
                true
            }
            Step::SocialLink(u, v) => {
                if u == v || self.out[u.index()].contains(&v) {
                    return false;
                }
                self.out[u.index()].push(v);
                self.inc[v.index()].push(u);
                true
            }
            Step::AttrLink(u, a) => {
                if self.node_attrs[u.index()].contains(&a) {
                    return false;
                }
                self.node_attrs[u.index()].push(a);
                self.members[a.index()].push(u);
                true
            }
            Step::Compact => true,
        }
    }
}

impl Grow for San {
    fn apply(&mut self, step: Step) -> bool {
        match step {
            Step::SocialNode => self.add_social_node().index() + 1 == self.num_social_nodes(),
            Step::AttrNode(ty) => self.add_attr_node(ty).index() + 1 == self.num_attr_nodes(),
            Step::SocialLink(u, v) => self.add_social_link(u, v),
            Step::AttrLink(u, a) => self.add_attr_link(u, a),
            Step::Compact => {
                self.shrink_to_fit();
                true
            }
        }
    }
}

impl Grow for TimelineBuilder {
    fn apply(&mut self, step: Step) -> bool {
        match step {
            Step::SocialNode => self.add_social_node().index() + 1 == self.san().num_social_nodes(),
            Step::AttrNode(ty) => self.add_attr_node(ty).index() + 1 == self.san().num_attr_nodes(),
            Step::SocialLink(u, v) => self.add_social_link(u, v),
            Step::AttrLink(u, a) => self.add_attr_link(u, a),
            Step::Compact => true,
        }
    }
}

/// Maps a raw `(op, x, y)` to a step against the reference's current
/// node counts. Ops: 0 social node, 1 attr node, 2 any social pair (self
/// loops included), 3 the last social pair again or reversed, 4 any attr
/// link, 5 the last attr link again, 6 a link to or from hub node 0,
/// 7 an attr link to hub attribute 0 (the hubs' rows relocate many
/// times), 8 compaction.
fn resolve(
    (op, x, y): (u8, u32, u32),
    r: &RefSan,
    last: &mut Option<(SocialId, SocialId)>,
    last_attr: &mut Option<(SocialId, AttrId)>,
) -> Option<Step> {
    let ns = r.out.len() as u32;
    let na = r.members.len() as u32;
    let step = match op {
        0 => Step::SocialNode,
        1 => Step::AttrNode(AttrType::PAPER_TYPES[(x % 4) as usize]),
        2 if ns >= 1 => {
            let pair = (SocialId(x % ns), SocialId(y % ns));
            *last = Some(pair);
            Step::SocialLink(pair.0, pair.1)
        }
        3 => {
            let (u, v) = (*last)?;
            if x % 2 == 0 {
                Step::SocialLink(u, v)
            } else {
                Step::SocialLink(v, u)
            }
        }
        4 if ns >= 1 && na >= 1 => {
            let pair = (SocialId(x % ns), AttrId(y % na));
            *last_attr = Some(pair);
            Step::AttrLink(pair.0, pair.1)
        }
        5 => {
            let (u, a) = (*last_attr)?;
            Step::AttrLink(u, a)
        }
        6 if ns >= 1 => {
            let v = SocialId(x % ns);
            if y % 2 == 0 {
                Step::SocialLink(SocialId(0), v)
            } else {
                Step::SocialLink(v, SocialId(0))
            }
        }
        7 if ns >= 1 && na >= 1 => Step::AttrLink(SocialId(x % ns), AttrId(0)),
        8 => Step::Compact,
        _ => return None,
    };
    Some(step)
}

/// Every accessor, counter and iterator of `san` equals the reference.
fn assert_matches_ref(san: &San, r: &RefSan) {
    assert_eq!(san.num_social_nodes(), r.out.len());
    assert_eq!(san.num_attr_nodes(), r.members.len());
    assert_eq!(
        san.num_social_links(),
        r.out.iter().map(Vec::len).sum::<usize>()
    );
    assert_eq!(
        san.num_attr_links(),
        r.node_attrs.iter().map(Vec::len).sum::<usize>()
    );
    for u in san.social_nodes() {
        let i = u.index();
        assert_eq!(san.out_neighbors(u), r.out[i].as_slice(), "out {u}");
        assert_eq!(san.in_neighbors(u), r.inc[i].as_slice(), "in {u}");
        assert_eq!(san.attrs_of(u), r.node_attrs[i].as_slice(), "attrs {u}");
        assert_eq!(san.out_degree(u), r.out[i].len());
        assert_eq!(san.in_degree(u), r.inc[i].len());
        assert_eq!(san.attr_degree(u), r.node_attrs[i].len());
        let mut und: Vec<SocialId> = r.out[i].iter().chain(&r.inc[i]).copied().collect();
        und.sort_unstable();
        und.dedup();
        assert_eq!(San::social_neighbors(san, u), und, "Γs {u}");
    }
    for a in san.attr_nodes() {
        assert_eq!(
            san.members_of(a),
            r.members[a.index()].as_slice(),
            "members {a}"
        );
        assert_eq!(san.attr_type(a), r.types[a.index()]);
        assert_eq!(san.social_degree_of_attr(a), r.members[a.index()].len());
    }
    let links: Vec<_> = r
        .out
        .iter()
        .enumerate()
        .flat_map(|(u, vs)| vs.iter().map(move |&v| (SocialId(u as u32), v)))
        .collect();
    assert_eq!(san.social_links().collect::<Vec<_>>(), links);
    let attr_links: Vec<_> = r
        .node_attrs
        .iter()
        .enumerate()
        .flat_map(|(u, as_)| as_.iter().map(move |&a| (SocialId(u as u32), a)))
        .collect();
    assert_eq!(san.attr_links().collect::<Vec<_>>(), attr_links);
    assert_eq!(san.check_consistency(), Ok(()));
}

/// The builder's view answers `social_neighbors` for every node, and
/// `has_social_link` both ways between `probe` and every node, as its
/// `San` does.
fn assert_view_matches_san(tb: &TimelineBuilder, probe: u32) {
    let (view, san) = (tb.view(), tb.san());
    let ns = san.num_social_nodes() as u32;
    for u in san.social_nodes() {
        assert_eq!(
            view.social_neighbors(u).as_ref(),
            San::social_neighbors(san, u).as_slice()
        );
    }
    if ns >= 1 {
        let u = SocialId(probe % ns);
        for v in san.social_nodes() {
            assert_eq!(
                view.has_social_link(u, v),
                san.has_social_link(u, v),
                "{u}->{v}"
            );
            assert_eq!(
                view.has_social_link(v, u),
                san.has_social_link(v, u),
                "{v}->{u}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The arena-backed `San` against a `Vec<Vec>` reference under one
    /// random operation sequence: duplicate and self-loop rejections,
    /// hub rows that relocate several times, and compactions. A plain
    /// `San` and a `TimelineBuilder` take the first half (the builder
    /// deciding link novelty from its `Γs` rows); the builder is then
    /// finished (which compacts its `San`) and the second half grows that
    /// compacted `San`. Every step's answer and every accessor are
    /// compared after every step.
    #[test]
    fn arena_san_matches_vec_reference(
        first in prop::collection::vec((0u8..9, any::<u32>(), any::<u32>()), 1..250),
        second in prop::collection::vec((0u8..9, any::<u32>(), any::<u32>()), 1..120)
    ) {
        let (mut r, mut san, mut tb) = (RefSan::default(), San::new(), TimelineBuilder::new());
        let (mut last, mut last_attr) = (None, None);
        for raw in first {
            let Some(step) = resolve(raw, &r, &mut last, &mut last_attr) else { continue };
            let want = r.apply(step);
            prop_assert_eq!(san.apply(step), want, "{:?}", step);
            prop_assert_eq!(tb.apply(step), want, "{:?}", step);
            assert_matches_ref(&san, &r);
            assert_matches_ref(tb.san(), &r);
            assert_view_matches_san(&tb, raw.1);
        }
        let (_, mut finished) = tb.finish();
        assert_matches_ref(&finished, &r);
        for raw in second {
            let Some(step) = resolve(raw, &r, &mut last, &mut last_attr) else { continue };
            let want = r.apply(step);
            prop_assert_eq!(san.apply(step), want, "{:?}", step);
            prop_assert_eq!(finished.apply(step), want, "{:?}", step);
            assert_matches_ref(&san, &r);
            assert_matches_ref(&finished, &r);
        }
    }
}
