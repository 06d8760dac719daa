//! Integration lockdown for the streamed snapshot pipeline: the sweep
//! driver [`evolve_metric`] must return *exactly* the same
//! [`MetricSeries`] as the borrowing `for_each_snapshot` reference sweep
//! for real metrics (clustering, reciprocity) across every
//! `threads × step` combination — on the caller thread and through the
//! bounded channel — including the always-sample-final-day edge case and
//! the empty timeline. Run it with `--test-threads` > 1 in CI so several
//! bounded channels contend for cores at once.

use san_graph::{AttrType, CsrSan, SanTimeline, ShardedCsrSan, SocialId, TimelineBuilder};
use san_metrics::clustering::{average_clustering_exact, average_clustering_sharded, NodeSet};
use san_metrics::evolution::{evolve_metric, evolve_metric_counts, MetricSeries, SnapshotSource};
use san_metrics::reciprocity::{global_reciprocity, global_reciprocity_sharded};
use san_stats::SplitRng;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// A 45-day timeline with reciprocal links, triangles and attribute links,
/// so clustering and reciprocity are non-trivial on most sampled days.
/// `max_day` is deliberately not a multiple of any tested step.
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
            // Attach to a few random earlier users; reciprocate half.
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
        // Occasionally close a triangle among existing users.
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

/// The reference series: the borrowing `for_each_snapshot` sweep, which
/// shares no code with the driver's snapshot stream.
fn reference(
    tl: &SanTimeline,
    name: &str,
    step: u32,
    metric: impl Fn(&CsrSan) -> f64,
) -> MetricSeries {
    let mut series = MetricSeries {
        name: name.to_string(),
        ..MetricSeries::default()
    };
    tl.for_each_snapshot(step, |day, snap| {
        series.days.push(day);
        series.values.push(metric(snap));
    });
    series
}

/// A full replay sweep through the driver.
fn sweep<F>(tl: &SanTimeline, name: &str, step: u32, threads: usize, metric: F) -> MetricSeries
where
    F: Fn(u32, &Arc<CsrSan>) -> f64 + Sync,
{
    evolve_metric(SnapshotSource::Replay(tl), name, step, threads, metric).expect("replay sweep")
}

#[test]
fn streamed_parallel_matches_sequential_clustering() {
    let tl = rich_timeline(45, 11);
    for step in [1u32, 3, 7] {
        let seq = reference(&tl, "clustering", step, |snap| {
            average_clustering_exact(snap, NodeSet::Social)
        });
        for threads in [1usize, 2, 8] {
            let par = sweep(&tl, "clustering", step, threads, |_, snap| {
                average_clustering_exact(&**snap, NodeSet::Social)
            });
            assert_eq!(par, seq, "clustering step={step} threads={threads}");
        }
    }
}

#[test]
fn streamed_parallel_matches_sequential_reciprocity() {
    let tl = rich_timeline(45, 23);
    for step in [1u32, 3, 7] {
        let seq = reference(&tl, "reciprocity", step, global_reciprocity);
        for threads in [1usize, 2, 8] {
            let par = sweep(&tl, "reciprocity", step, threads, |_, snap| {
                global_reciprocity(&**snap)
            });
            assert_eq!(par, seq, "reciprocity step={step} threads={threads}");
        }
    }
}

/// Shard mode over the same matrix: a sweep metric that shards its own
/// day and runs the shard-parallel metrics must reproduce the sequential
/// whole-snapshot sweep for every `threads × shards × step` combination.
/// Reciprocity is integer-tallied (exact equality); clustering merges
/// float partials (1e-12).
#[test]
fn sharded_sweep_matches_sequential_metrics() {
    let tl = rich_timeline(45, 37);
    for step in [1u32, 3, 7] {
        let seq_recip = reference(&tl, "recip", step, global_reciprocity);
        let seq_clus = reference(&tl, "clus", step, |s| {
            average_clustering_exact(s, NodeSet::Social)
        });
        for threads in [1usize, 2] {
            for shards in [1usize, 2, 4] {
                let recip = sweep(&tl, "recip", step, threads, |_, snap| {
                    global_reciprocity_sharded(&ShardedCsrSan::new(Arc::clone(snap), shards))
                });
                assert_eq!(
                    recip, seq_recip,
                    "reciprocity step={step} threads={threads} shards={shards}"
                );
                let clus = sweep(&tl, "clus", step, threads, |_, snap| {
                    let sharded = ShardedCsrSan::new(Arc::clone(snap), shards);
                    average_clustering_sharded(&sharded, NodeSet::Social)
                });
                assert_eq!(clus.days, seq_clus.days);
                for (day, (a, b)) in clus
                    .days
                    .iter()
                    .zip(clus.values.iter().zip(&seq_clus.values))
                {
                    assert!(
                        (a - b).abs() <= 1e-12 * a.abs().max(1.0),
                        "clustering day={day} step={step} threads={threads} shards={shards}: \
                         {a} vs {b}"
                    );
                }
            }
        }
    }
}

#[test]
fn final_day_always_sampled() {
    // max_day = 45: not a multiple of 7, so the final sample is the forced
    // one; every thread count must include it (and only once).
    let tl = rich_timeline(45, 31);
    for threads in [1usize, 2, 8] {
        let par = sweep(&tl, "recip", 7, threads, |_, s| global_reciprocity(&**s));
        assert_eq!(par.days.last(), Some(&45), "threads={threads}");
        assert_eq!(
            par.days.iter().filter(|&&d| d == 45).count(),
            1,
            "final day sampled exactly once (threads={threads})"
        );
        assert_eq!(par.days, vec![0, 7, 14, 21, 28, 35, 42, 45]);
    }
}

#[test]
fn empty_timeline_yields_empty_series() {
    let tl = SanTimeline::default();
    for threads in [1usize, 2, 8] {
        let par = sweep(&tl, "x", 1, threads, |_, s| global_reciprocity(&**s));
        assert!(par.days.is_empty(), "threads={threads}");
        assert!(par.values.is_empty(), "threads={threads}");
    }
    let seq = reference(&tl, "x", 1, global_reciprocity);
    assert!(seq.days.is_empty());
}

/// Regression: the sweep's freeze budget. Replay-per-day used to freeze on
/// every *sampled* day from scratch after an O(prefix) replay; the stream
/// must invoke the metric exactly once per sampled day, and the count-only
/// path must produce the same series for counter metrics while never
/// building a CSR at all.
#[test]
fn freeze_budget_one_metric_call_per_sampled_day() {
    let tl = rich_timeline(30, 7);
    for threads in [1usize, 2] {
        let calls = AtomicU32::new(0);
        let series = sweep(&tl, "links", 7, threads, |_, snap| {
            calls.fetch_add(1, Ordering::Relaxed);
            san_graph::SanRead::num_social_links(&**snap) as f64
        });
        // Days 0, 7, 14, 21, 28 + forced final day 30.
        assert_eq!(series.days, vec![0, 7, 14, 21, 28, 30]);
        assert_eq!(
            calls.into_inner(),
            6,
            "one freeze-backed metric call per sampled day (threads={threads})"
        );

        // Counter metrics step off the freezing path entirely and agree.
        let counted = evolve_metric_counts(&tl, "links", 7, |c| c.social_links as f64);
        assert_eq!(counted.days, series.days);
        assert_eq!(counted.values, series.values);
    }

    // The stream API itself reports the same budget.
    let mut stream = tl.snapshot_stream(7);
    while stream.next().is_some() {}
    assert_eq!(stream.snapshots_taken(), 6);
    assert_eq!(stream.days_applied(), 31);
}
