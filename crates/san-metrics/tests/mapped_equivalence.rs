//! Mapped-vs-loaded equivalence: every metric result computed on a
//! zero-copy [`CsrSanView`] over a mapped snapshot file is **bit-identical**
//! to the same metric on the eagerly-loaded [`CsrSan`] — and evolution
//! sweeps seeded from a mapped day (`SnapshotSource::Mapped`) are
//! bit-identical to the `day ≥ start` suffix of a full replay sweep,
//! on the caller thread, through the bounded-channel worker pool, and
//! with days × shards metrics.

#![cfg(unix)]

use san_graph::mmap::MappedSnapshot;
use san_graph::store::SnapshotVault;
use san_graph::view::CsrSanView;
use san_graph::{CsrSan, SanRead, SanTimeline, ShardedCsrSan, SocialId, TimelineBuilder};
use san_metrics::clustering::{average_clustering_exact, NodeSet};
use san_metrics::evolution::{evolve_metric, MetricSeries, SnapshotSource};
use san_metrics::hyperanf::{neighborhood_function, social_effective_diameter};
use san_metrics::reciprocity::global_reciprocity;
use san_stats::SplitRng;
use std::path::PathBuf;
use std::sync::Arc;

/// A fresh scratch directory under the system temp dir; removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        use std::sync::atomic::{AtomicU32, Ordering};
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "san-mapped-eq-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Writes a snapshot to a file and maps it back.
fn map_snapshot(tmp: &TempDir, name: &str, snap: &CsrSan) -> MappedSnapshot {
    let path = tmp.file(name);
    std::fs::write(&path, snap.to_store_bytes()).expect("write snapshot file");
    MappedSnapshot::open(&path).expect("map snapshot")
}

/// A growing timeline with reciprocal links and attributes every day.
fn growing_timeline(days: u32, per_day: usize, seed: u64) -> SanTimeline {
    let mut rng = SplitRng::new(seed);
    let mut tb = TimelineBuilder::new();
    let mut users = vec![tb.add_social_node()];
    let attrs: Vec<_> = (0..8)
        .map(|i| tb.add_attr_node(san_graph::AttrType::PAPER_TYPES[i % 4]))
        .collect();
    for day in 1..=days {
        tb.advance_to_day(day);
        for _ in 0..per_day {
            let u = tb.add_social_node();
            for _ in 0..2 {
                let v = users[rng.below(users.len() as u64) as usize];
                tb.add_social_link(u, v);
                if rng.chance(0.4) {
                    tb.add_social_link(v, u);
                }
            }
            if rng.chance(0.5) {
                tb.add_attr_link(u, attrs[rng.below(attrs.len() as u64) as usize]);
            }
            users.push(u);
        }
    }
    tb.finish().0
}

/// The HyperANF series through the generic adjacency extraction — the
/// same path `social_effective_diameter` uses, exposed here so the whole
/// series (not just the quantile) can be compared bit-for-bit.
fn hyperanf_series(g: &impl SanRead) -> Vec<u64> {
    let adj: Vec<Vec<u32>> = g
        .social_nodes()
        .map(|u| g.out_neighbors(u).iter().map(|v| v.0).collect())
        .collect();
    let init = vec![true; adj.len()];
    neighborhood_function(&adj, &init, &init, 7, 256, 11)
        .into_iter()
        .map(f64::to_bits)
        .collect()
}

#[test]
fn mapped_metrics_bit_identical_to_loaded() {
    let tmp = TempDir::new("metrics");
    let tl = growing_timeline(30, 6, 3);
    for day in [0u32, 7, 19, 30] {
        let owned = tl.snapshot_csr(day);
        let mapped = map_snapshot(&tmp, &format!("day-{day}.csr"), &owned);
        let view = mapped.view();
        assert_eq!(
            average_clustering_exact(&view, NodeSet::Social).to_bits(),
            average_clustering_exact(&owned, NodeSet::Social).to_bits(),
            "clustering day {day}"
        );
        assert_eq!(
            average_clustering_exact(&view, NodeSet::Attr).to_bits(),
            average_clustering_exact(&owned, NodeSet::Attr).to_bits(),
            "attr clustering day {day}"
        );
        assert_eq!(
            global_reciprocity(&view).to_bits(),
            global_reciprocity(&owned).to_bits(),
            "reciprocity day {day}"
        );
        assert_eq!(
            hyperanf_series(&view),
            hyperanf_series(&owned),
            "hyperanf series day {day}"
        );
        assert_eq!(
            social_effective_diameter(&view, 0.9, 7, 11).to_bits(),
            social_effective_diameter(&owned, 0.9, 7, 11).to_bits(),
            "effective diameter day {day}"
        );
    }
}

/// The suffix of a series at days `>= start`.
fn suffix(series: &MetricSeries, start: u32) -> (Vec<u32>, Vec<u64>) {
    let mut days = Vec::new();
    let mut values = Vec::new();
    for (&d, &v) in series.days.iter().zip(&series.values) {
        if d >= start {
            days.push(d);
            values.push(v.to_bits());
        }
    }
    (days, values)
}

#[test]
fn mapped_seeded_sweeps_match_replay_suffix_across_drivers() {
    let tmp = TempDir::new("sweeps");
    let tl = growing_timeline(24, 4, 9);
    let metric = |_: u32, s: &Arc<CsrSan>| average_clustering_exact(&**s, NodeSet::Social);
    for step in [1u32, 3, 7] {
        let full = evolve_metric(SnapshotSource::Replay(&tl), "clust", step, 1, metric)
            .expect("replay sweep");
        for (seed_day, start) in [(0u32, 0u32), (5, 5), (5, 9), (11, 24), (24, 24), (0, 17)] {
            let seed = tl.snapshot_csr(seed_day);
            let mapped = map_snapshot(&tmp, &format!("seed-{step}-{seed_day}-{start}.csr"), &seed);
            let source = || SnapshotSource::Mapped {
                timeline: &tl,
                view: mapped.view(),
                day: seed_day,
                start,
            };
            let expect = suffix(&full, start);
            let seq = evolve_metric(source(), "clust", step, 1, metric).expect("mapped seq");
            assert_eq!(
                suffix(&seq, 0),
                expect,
                "seq step={step} seed={seed_day} start={start}"
            );
            for threads in [1usize, 4] {
                let par =
                    evolve_metric(source(), "clust", step, threads, metric).expect("mapped par");
                assert_eq!(
                    suffix(&par, 0),
                    expect,
                    "par step={step} seed={seed_day} start={start} threads={threads}"
                );
            }
            let sharded = evolve_metric(source(), "clust", step, 2, |_, s| {
                let g = ShardedCsrSan::new(Arc::clone(s), 3);
                san_metrics::clustering::average_clustering_sharded(&g, NodeSet::Social)
            })
            .expect("mapped sharded");
            // Sharded clustering regroups float sums: compare within 1e-12
            // (the shard-equivalence contract), days exactly.
            assert_eq!(sharded.days, expect.0);
            for (a, &b) in sharded.values.iter().zip(&expect.1) {
                assert!(
                    (a - f64::from_bits(b)).abs() <= 1e-12,
                    "sharded step={step} seed={seed_day} start={start}"
                );
            }
        }
    }
}

#[test]
fn mapped_source_matches_vault_source_bit_for_bit() {
    // The two warm-start paths (eager vault load vs mapped view) must be
    // indistinguishable downstream: same days, bit-identical values.
    let tmp = TempDir::new("vault-vs-mapped");
    let tl = growing_timeline(21, 5, 13);
    let vault_dir = tmp.file("vault");
    let mut vault = SnapshotVault::create(&vault_dir).expect("create vault");
    vault.save_timeline(&tl, 7).expect("persist");
    let metric = |_: u32, s: &Arc<CsrSan>| global_reciprocity(&**s);
    for (start, nearest) in [(7u32, 7u32), (9, 7), (20, 14), (21, 21)] {
        let mapped = vault.map_day(nearest).expect("map persisted day");
        let from_vault = evolve_metric(
            SnapshotSource::Vault {
                timeline: &tl,
                vault: &vault,
                start,
            },
            "recip",
            1,
            1,
            metric,
        )
        .expect("vault sweep");
        let from_mapped = evolve_metric(
            SnapshotSource::Mapped {
                timeline: &tl,
                view: mapped.view(),
                day: nearest,
                start,
            },
            "recip",
            1,
            1,
            metric,
        )
        .expect("mapped sweep");
        assert_eq!(from_mapped.days, from_vault.days, "start={start}");
        let a: Vec<u64> = from_mapped.values.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = from_vault.values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b, "start={start}");
    }
}

#[test]
fn mapped_source_edge_cases() {
    let tmp = TempDir::new("edges");
    let tl = growing_timeline(10, 3, 5);
    let metric = |_: u32, s: &Arc<CsrSan>| s.num_social_links() as f64;
    // Start past the final day: nothing to emit.
    let seed = tl.snapshot_csr(4);
    let mapped = map_snapshot(&tmp, "seed-4.csr", &seed);
    let series = evolve_metric(
        SnapshotSource::Mapped {
            timeline: &tl,
            view: mapped.view(),
            day: 4,
            start: 99,
        },
        "links",
        1,
        1,
        metric,
    )
    .expect("past-the-end sweep");
    assert!(series.days.is_empty());
    // Empty timeline: nothing to emit either.
    let empty = SanTimeline::default();
    let empty_seed = empty.snapshot_csr(0);
    let empty_mapped = map_snapshot(&tmp, "seed-empty.csr", &empty_seed);
    let series = evolve_metric(
        SnapshotSource::Mapped {
            timeline: &empty,
            view: empty_mapped.view(),
            day: 0,
            start: 0,
        },
        "links",
        1,
        1,
        metric,
    )
    .expect("empty sweep");
    assert!(series.days.is_empty());
}

#[test]
#[should_panic(expected = "must not exceed")]
fn mapped_seed_after_start_panics() {
    let tmp = TempDir::new("bad-seed");
    let tl = growing_timeline(8, 3, 7);
    let seed = tl.snapshot_csr(6);
    let mapped = map_snapshot(&tmp, "seed-6.csr", &seed);
    let _ = evolve_metric(
        SnapshotSource::Mapped {
            timeline: &tl,
            view: mapped.view(),
            day: 6,
            start: 2,
        },
        "x",
        1,
        1,
        |_, _| 0.0,
    );
}

#[test]
fn ten_k_fixture_mapped_final_day_is_bit_identical() {
    // The 10k-node/98-day scale: the mapped view must agree with the
    // owned snapshot on an expensive exact metric and on raw structure.
    let tmp = TempDir::new("tenk");
    let mut rng = SplitRng::new(42);
    let mut tb = TimelineBuilder::new();
    let mut users = vec![tb.add_social_node()];
    let attrs: Vec<_> = (0..64)
        .map(|i| tb.add_attr_node(san_graph::AttrType::PAPER_TYPES[i % 4]))
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
    assert!(san.num_social_nodes() >= 9_000);
    let owned = san.freeze();
    let mapped = map_snapshot(&tmp, "tenk.csr", &owned);
    let view: CsrSanView<'_> = mapped.view();
    assert_eq!(view.num_social_nodes(), owned.num_social_nodes());
    assert_eq!(
        average_clustering_exact(&view, NodeSet::Social).to_bits(),
        average_clustering_exact(&owned, NodeSet::Social).to_bits()
    );
    assert_eq!(
        global_reciprocity(&view).to_bits(),
        global_reciprocity(&owned).to_bits()
    );
    // Structural spot checks across the id range.
    let mut rng = SplitRng::new(7);
    for _ in 0..2_000 {
        let u = SocialId(rng.below(owned.num_social_nodes() as u64) as u32);
        assert_eq!(view.out_neighbors(u), SanRead::out_neighbors(&owned, u));
        assert_eq!(view.undirected_neighbors(u), owned.undirected_neighbors(u));
    }
}
