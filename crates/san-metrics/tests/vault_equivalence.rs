//! Equivalence lockdown for vault-resumed sweeps: a sweep warm-started
//! from a persisted day ([`SnapshotSource::Vault`]) must be **bit
//! identical** to the `day ≥ start` suffix of the full replay-from-day-0
//! sweep — for clustering and reciprocity, over step ∈ {1, 3, 7} ×
//! persisted-day grids, on the caller thread, through the worker pool
//! and with sharding metrics, including resume-from-day-0 and
//! resume-past-the-last-persisted-day edges.

use san_graph::store::SnapshotVault;
use san_graph::{AttrType, CsrSan, SanTimeline, ShardedCsrSan, SocialId, TimelineBuilder};
use san_metrics::clustering::{average_clustering_exact, average_clustering_sharded, NodeSet};
use san_metrics::evolution::{evolve_metric, MetricSeries, SnapshotSource};
use san_metrics::reciprocity::{global_reciprocity, global_reciprocity_sharded};
use san_stats::SplitRng;
use std::path::PathBuf;
use std::sync::Arc;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        use std::sync::atomic::{AtomicU32, Ordering};
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "san-vaulteq-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Same rich fixture family as `streaming_equivalence`: reciprocal links,
/// triangles and attribute links so both metrics are non-trivial on most
/// days; `max_day` not a multiple of any tested step.
fn rich_timeline(days: u32, seed: u64) -> SanTimeline {
    let mut rng = SplitRng::new(seed);
    let mut tb = TimelineBuilder::new();
    let mut users: Vec<SocialId> = Vec::new();
    let attr = {
        let first = tb.add_social_node();
        users.push(first);
        tb.add_attr_node(AttrType::Employer)
    };
    for day in 1..=days {
        tb.advance_to_day(day);
        for _ in 0..1 + (day % 3) {
            let u = tb.add_social_node();
            for _ in 0..2 {
                let v = users[rng.below(users.len() as u64) as usize];
                if tb.add_social_link(u, v) && rng.chance(0.5) {
                    tb.add_social_link(v, u);
                }
            }
            if rng.chance(0.3) {
                tb.add_attr_link(u, attr);
            }
            users.push(u);
        }
        if users.len() >= 3 && rng.chance(0.6) {
            let a = users[rng.below(users.len() as u64) as usize];
            let b = users[rng.below(users.len() as u64) as usize];
            if a != b {
                tb.add_social_link(a, b);
            }
        }
    }
    tb.finish().0
}

/// The full series restricted to sampled days `≥ start` — what any
/// resumed sweep must reproduce exactly.
fn suffix(full: &MetricSeries, start: u32) -> MetricSeries {
    let mut out = MetricSeries {
        name: full.name.clone(),
        ..MetricSeries::default()
    };
    for (&day, &value) in full.days.iter().zip(&full.values) {
        if day >= start {
            out.days.push(day);
            out.values.push(value);
        }
    }
    out
}

/// A full replay-from-day-0 sweep on the caller thread.
fn full_sweep<F>(tl: &SanTimeline, name: &str, step: u32, metric: F) -> MetricSeries
where
    F: Fn(u32, &Arc<CsrSan>) -> f64 + Sync,
{
    evolve_metric(SnapshotSource::Replay(tl), name, step, 1, metric).expect("replay sweep")
}

/// The core matrix: persisted-day grids {4, 10} × step ∈ {1, 3, 7} ×
/// resume points covering day 0, persisted days, off-grid days, and past
/// the last persisted day — clustering and reciprocity both bit-identical
/// to the full sweep's suffix, on the caller thread.
#[test]
fn resumed_sequential_matches_full_suffix() {
    let tl = rich_timeline(45, 101);
    for vault_step in [4u32, 10] {
        let tmp = TempDir::new("seq");
        let mut vault = SnapshotVault::create(&tmp.0).unwrap();
        let saved = vault.save_timeline(&tl, vault_step).unwrap();
        let last_persisted = *saved.last().unwrap();
        for step in [1u32, 3, 7] {
            let full_recip = full_sweep(&tl, "recip", step, |_, s| global_reciprocity(&**s));
            let full_clus = full_sweep(&tl, "clus", step, |_, s| {
                average_clustering_exact(&**s, NodeSet::Social)
            });
            // Resume points: day 0, a persisted day, just after one,
            // between persisted days, past the last persisted day, and
            // the final day itself.
            for start in [0u32, vault_step, vault_step + 1, 13, last_persisted + 2, 45] {
                let src = SnapshotSource::Vault {
                    timeline: &tl,
                    vault: &vault,
                    start,
                };
                let recip = evolve_metric(src, "recip", step, 1, |_, s| global_reciprocity(&**s))
                    .expect("vault sweep");
                assert_eq!(
                    recip,
                    suffix(&full_recip, start),
                    "reciprocity vault_step={vault_step} step={step} start={start}"
                );
                let clus = evolve_metric(src, "clus", step, 1, |_, s| {
                    average_clustering_exact(&**s, NodeSet::Social)
                })
                .expect("vault sweep");
                assert_eq!(
                    clus,
                    suffix(&full_clus, start),
                    "clustering vault_step={vault_step} step={step} start={start}"
                );
            }
        }
    }
}

/// The worker pool over the same matrix (threads ∈ {1, 2, 8}).
#[test]
fn resumed_parallel_matches_full_suffix() {
    let tl = rich_timeline(45, 211);
    let tmp = TempDir::new("par");
    let mut vault = SnapshotVault::create(&tmp.0).unwrap();
    vault.save_timeline(&tl, 7).unwrap();
    for step in [1u32, 3, 7] {
        let full = full_sweep(&tl, "recip", step, |_, s| global_reciprocity(&**s));
        for threads in [1usize, 2, 8] {
            for start in [0u32, 14, 20, 44] {
                let src = SnapshotSource::Vault {
                    timeline: &tl,
                    vault: &vault,
                    start,
                };
                let par =
                    evolve_metric(src, "recip", step, threads, |_, s| global_reciprocity(&**s))
                        .expect("vault sweep");
                assert_eq!(
                    par,
                    suffix(&full, start),
                    "step={step} threads={threads} start={start}"
                );
            }
        }
    }
}

/// Days × shards on a vault warm start, reciprocity
/// bit-identical, clustering within float-regrouping tolerance of the
/// sequential full sweep.
#[test]
fn resumed_sharded_matches_full_suffix() {
    let tl = rich_timeline(45, 307);
    let tmp = TempDir::new("shard");
    let mut vault = SnapshotVault::create(&tmp.0).unwrap();
    vault.save_timeline(&tl, 10).unwrap();
    for step in [1u32, 3, 7] {
        let full_recip = full_sweep(&tl, "recip", step, |_, s| global_reciprocity(&**s));
        let full_clus = full_sweep(&tl, "clus", step, |_, s| {
            average_clustering_exact(&**s, NodeSet::Social)
        });
        for shards in [1usize, 2, 4] {
            let src = SnapshotSource::Vault {
                timeline: &tl,
                vault: &vault,
                start: 21,
            };
            let recip = evolve_metric(src, "recip", step, 2, |_, s| {
                global_reciprocity_sharded(&ShardedCsrSan::new(Arc::clone(s), shards))
            })
            .expect("vault sweep");
            assert_eq!(
                recip,
                suffix(&full_recip, 21),
                "reciprocity step={step} shards={shards}"
            );
            let clus = evolve_metric(src, "clus", step, 2, |_, s| {
                let sharded = ShardedCsrSan::new(Arc::clone(s), shards);
                average_clustering_sharded(&sharded, NodeSet::Social)
            })
            .expect("vault sweep");
            let expect = suffix(&full_clus, 21);
            assert_eq!(clus.days, expect.days, "step={step} shards={shards}");
            for (day, (a, b)) in clus.days.iter().zip(clus.values.iter().zip(&expect.values)) {
                assert!(
                    (a - b).abs() <= 1e-12 * a.abs().max(1.0),
                    "clustering day={day} step={step} shards={shards}: {a} vs {b}"
                );
            }
        }
    }
}

/// Resume edges: an empty vault falls back to replay (still exact); a
/// start past the final day yields an empty series; resuming exactly at
/// the last persisted day emits it without patching anything.
#[test]
fn resume_edge_cases() {
    let tl = rich_timeline(30, 401);
    let tmp = TempDir::new("edges");

    // Empty vault: nothing persisted, sweep falls back to full replay.
    let empty_vault = SnapshotVault::create(tmp.0.join("empty")).unwrap();
    let full = full_sweep(&tl, "recip", 3, |_, s| global_reciprocity(&**s));
    for start in [0u32, 11] {
        let src = SnapshotSource::Vault {
            timeline: &tl,
            vault: &empty_vault,
            start,
        };
        let series =
            evolve_metric(src, "recip", 3, 1, |_, s| global_reciprocity(&**s)).expect("sweep");
        assert_eq!(series, suffix(&full, start), "empty vault start={start}");
    }

    // Start past the final day: empty series, not an error.
    let mut vault = SnapshotVault::create(tmp.0.join("v")).unwrap();
    vault.save_timeline(&tl, 10).unwrap();
    let src = SnapshotSource::Vault {
        timeline: &tl,
        vault: &vault,
        start: 31,
    };
    let series = evolve_metric(src, "x", 1, 1, |_, s| global_reciprocity(&**s)).expect("sweep");
    assert!(series.days.is_empty());
    assert!(series.values.is_empty());

    // Resume exactly at the final (and persisted) day: one sample, the
    // loaded snapshot itself.
    let src = SnapshotSource::Vault {
        timeline: &tl,
        vault: &vault,
        start: 30,
    };
    let series = evolve_metric(src, "recip", 7, 1, |_, s| global_reciprocity(&**s)).expect("sweep");
    assert_eq!(series.days, vec![30]);
    assert_eq!(series.values, suffix(&full_series_step7(&tl), 30).values);

    // Empty timeline: vault resume yields an empty series.
    let empty_tl = SanTimeline::default();
    let src = SnapshotSource::Vault {
        timeline: &empty_tl,
        vault: &vault,
        start: 0,
    };
    let series = evolve_metric(src, "x", 1, 1, |_, s| global_reciprocity(&**s)).expect("sweep");
    assert!(series.days.is_empty());
}

fn full_series_step7(tl: &SanTimeline) -> MetricSeries {
    full_sweep(tl, "recip", 7, |_, s| global_reciprocity(&**s))
}

/// A vault persisted on a coarse grid accelerates a fine-grained resume:
/// the warm start must not re-apply the days before the persisted day
/// (the freezer's day counter proves it).
#[test]
fn resume_skips_prefix_days() {
    let tl = rich_timeline(40, 503);
    let tmp = TempDir::new("budget");
    let mut vault = SnapshotVault::create(&tmp.0).unwrap();
    vault.save_timeline(&tl, 10).unwrap();
    let mut stream = tl.resume_from_vault(&vault, 25, 1).expect("resume");
    let mut sampled = Vec::new();
    for (day, _) in stream.by_ref() {
        sampled.push(day);
    }
    assert_eq!(sampled, (25u32..=40).collect::<Vec<_>>());
    // Persisted day 20 was loaded, so only days 21..=40 were patched.
    assert_eq!(stream.days_applied(), 20);
}
