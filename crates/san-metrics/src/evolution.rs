//! Metric evolution over a SAN timeline, with the paper's three-phase
//! annotation.
//!
//! Google+ grew through three regimes (§2.2): **Phase I** (days 1–20,
//! explosive early growth), **Phase II** (days 21–75, stabilised
//! invitation-only growth) and **Phase III** (days 76+, public release).
//! Nearly every metric the paper measures shows a visible regime change at
//! those boundaries; [`PhaseBounds`] captures the boundaries and
//! [`evolve_metric`] produces the day-indexed series that the evolution
//! figures (4, 6, 7b, 8, 11, 12b) plot.
//!
//! There are two sweep drivers. [`evolve_metric`] rides the **snapshot
//! pipeline**: every sampled day's [`CsrSan`] is produced by
//! delta-freezing — patching the previous day's CSR arrays with that
//! day's events ([`SanTimeline::snapshot_stream`]) — so a
//! full-resolution sweep is near-linear in events, not quadratic. It
//! reads any [`SnapshotSource`] (replay, vault warm start, mapped seed)
//! and runs on the caller thread or streams `Arc`-shared days to a
//! bounded pool of workers; a metric that wants intra-snapshot
//! parallelism wraps its day in a
//! [`ShardedCsrSan`](san_graph::ShardedCsrSan) itself. Metrics that only
//! read aggregate counters use [`evolve_metric_counts`], which never
//! freezes at all.

use san_graph::evolve::DayCounts;
use san_graph::evolve::SnapshotStream;
use san_graph::store::{SnapshotVault, StoreError};
use san_graph::view::CsrSanView;
use san_graph::{CsrSan, SanTimeline};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Locks recovering from poisoning: the sweep's shared state (result
/// rows, the caught-panic slot, the channel receiver) stays coherent
/// under a panicking holder, and the caught panic is re-thrown after the
/// join anyway — cascading a second panic would only mask the first.
fn lock_ok<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Mutex::into_inner`] with the same poisoning recovery as [`lock_ok`].
fn into_inner_ok<T>(m: Mutex<T>) -> T {
    m.into_inner().unwrap_or_else(PoisonError::into_inner)
}

/// The three evolution phases of Google+.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Early days: dramatic size increase.
    I,
    /// Invitation-only steady growth.
    II,
    /// Public release: growth spike again.
    III,
}

/// Day boundaries separating the phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseBounds {
    /// Last day (inclusive) of Phase I.
    pub phase1_end: u32,
    /// Last day (inclusive) of Phase II.
    pub phase2_end: u32,
}

impl PhaseBounds {
    /// The paper's boundaries: Phase I ends day 20, Phase II ends day 75.
    pub const PAPER: PhaseBounds = PhaseBounds {
        phase1_end: 20,
        phase2_end: 75,
    };

    /// Which phase a day belongs to.
    pub fn phase_of(&self, day: u32) -> Phase {
        if day <= self.phase1_end {
            Phase::I
        } else if day <= self.phase2_end {
            Phase::II
        } else {
            Phase::III
        }
    }
}

/// A day-indexed metric series.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricSeries {
    /// Metric name (used by the experiment harness output).
    pub name: String,
    /// Sampled days.
    pub days: Vec<u32>,
    /// Metric value at each sampled day.
    pub values: Vec<f64>,
}

impl MetricSeries {
    /// Value on the last sampled day (`None` if empty).
    pub fn last(&self) -> Option<f64> {
        self.values.last().copied()
    }

    /// Mean of the values sampled within the given phase.
    pub fn phase_mean(&self, bounds: PhaseBounds, phase: Phase) -> Option<f64> {
        let vals: Vec<f64> = self
            .days
            .iter()
            .zip(&self.values)
            .filter(|(d, _)| bounds.phase_of(**d) == phase)
            .map(|(_, v)| *v)
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(san_stats::mean(&vals))
        }
    }

    /// Net change of the metric across the sampled days of a phase
    /// (`last − first`), used by tests asserting "increases in Phase II".
    pub fn phase_trend(&self, bounds: PhaseBounds, phase: Phase) -> Option<f64> {
        let vals: Vec<f64> = self
            .days
            .iter()
            .zip(&self.values)
            .filter(|(d, _)| bounds.phase_of(**d) == phase)
            .map(|(_, v)| *v)
            .collect();
        if vals.len() < 2 {
            None
        } else {
            Some(vals[vals.len() - 1] - vals[0])
        }
    }
}

/// Evaluates a counter-only metric over the timeline without freezing a
/// single snapshot.
///
/// The metric sees the end-of-day [`DayCounts`] (cumulative node/link
/// totals) for every sampled day — enough for growth curves (Figs. 2–3),
/// density, and average degree. One incremental replay, no CSR builds, no
/// allocations per day; use this instead of [`evolve_metric`] whenever the
/// metric never inspects neighbourhoods.
pub fn evolve_metric_counts<F>(
    timeline: &SanTimeline,
    name: &str,
    step: u32,
    mut metric: F,
) -> MetricSeries
where
    F: FnMut(&DayCounts) -> f64,
{
    assert!(step >= 1, "step must be at least 1");
    let mut series = MetricSeries {
        name: name.to_string(),
        ..MetricSeries::default()
    };
    let max_day = timeline.max_day();
    timeline.for_each_day(|day, san| {
        if day % step == 0 || Some(day) == max_day {
            series.days.push(day);
            series.values.push(metric(&DayCounts::measure(day, san)));
        }
    });
    series
}

/// Where an evolution sweep gets its snapshots: a full delta-freeze
/// replay from day 0, a [`SnapshotVault`] warm start, or a zero-copy
/// mapped snapshot seed.
///
/// [`evolve_metric`] accepts any of them, so the same metric sweep can
/// run cold (event log only) or hot (persisted days on disk) without
/// changing the metric code. The vault-backed stream yields the same
/// `step` grid as the full sweep restricted to `day ≥ start`, with
/// bit-identical snapshots (`vault_equivalence` locks this down).
#[derive(Debug, Clone, Copy)]
pub enum SnapshotSource<'a> {
    /// Delta-freeze the whole timeline from day 0.
    Replay(&'a SanTimeline),
    /// Load the nearest persisted day `≤ start` from the vault and
    /// delta-patch forward, sweeping only days `start..=max_day`.
    Vault {
        /// The event log (still needed to patch forward from the
        /// persisted day).
        timeline: &'a SanTimeline,
        /// Where persisted days live.
        vault: &'a SnapshotVault,
        /// First day the sweep should report.
        start: u32,
    },
    /// Seed from a **zero-copy mapped snapshot** — the view a
    /// [`MappedSnapshot`](san_graph::mmap::MappedSnapshot) (e.g. one
    /// served out of the `san-serve` cache) hands out — materialise it
    /// once ([`CsrSanView::to_owned_csr`]), and delta-patch forward,
    /// sweeping only days `start..=max_day`. This is the vault warm
    /// start without the eager column deserialisation: the seed comes
    /// straight off the mapped pages.
    ///
    /// The sweep panics if `day > start` (the seed must be at or before
    /// the first reported day), mirroring
    /// [`SanTimeline::resume_from_snapshot`].
    Mapped {
        /// The event log (still needed to patch forward from the
        /// mapped day).
        timeline: &'a SanTimeline,
        /// A validated zero-copy view holding the end-of-`day` snapshot
        /// of this timeline.
        view: CsrSanView<'a>,
        /// The day the mapped snapshot freezes.
        day: u32,
        /// First day the sweep should report.
        start: u32,
    },
}

impl<'a> SnapshotSource<'a> {
    /// Opens the snapshot stream for this source. Only the vault arm can
    /// fail (disk / validation errors).
    fn stream(&self, step: u32) -> Result<SnapshotStream<'a>, StoreError> {
        match *self {
            SnapshotSource::Replay(tl) => Ok(tl.snapshot_stream(step)),
            SnapshotSource::Vault {
                timeline,
                vault,
                start,
            } => timeline.resume_from_vault(vault, start, step),
            SnapshotSource::Mapped {
                timeline,
                view,
                day,
                start,
            } => Ok(timeline.resume_from_snapshot(Arc::new(view.to_owned_csr()), day, start, step)),
        }
    }
}

/// Evaluates `metric` on the delta-frozen end-of-day snapshot of every
/// `step`-th day of `source` (always including the final day) — the one
/// freezing sweep driver.
///
/// Every sampled snapshot is a patch of the previous day's CSR arrays,
/// never a from-scratch freeze, handed to the metric as an `Arc`-shared
/// [`CsrSan`] (no flat-array clone). `threads` picks the parallelism:
///
/// * `threads == 1` runs the metric on the caller thread, one day at a
///   time; each day's handle is dropped before the next patch, so the
///   freezer reuses its buffer and peak memory stays O(E).
/// * `threads > 1` streams the days through a **bounded channel** of
///   capacity `2 × threads` to `threads` scoped workers — one writer
///   patches forward, many readers measure concurrently. When workers
///   fall behind the producer blocks, so peak memory is O(threads × E)
///   however long the timeline is. Worth it when the metric dominates
///   the patch cost (diameter, exact clustering).
///
/// For intra-snapshot parallelism the metric shards its own day:
/// `ShardedCsrSan::new(Arc::clone(snap), k)` inside the closure
/// range-partitions it without copying, so `threads × k` workers can
/// share the machine. Metrics that only read aggregate counters should
/// use [`evolve_metric_counts`], which never builds a CSR at all.
///
/// The series is in day order and identical for every `threads` value
/// given a pure `metric`; a vault- or mapped-seeded sweep is
/// bit-identical to the `day ≥ start` suffix of the full replay sweep.
/// Fails only when a vault-backed source cannot load its snapshot.
///
/// # Panics
/// Panics if `step == 0` or `threads == 0`, and re-throws a panic of
/// `metric` (after the workers have joined).
pub fn evolve_metric<F>(
    source: SnapshotSource<'_>,
    name: &str,
    step: u32,
    threads: usize,
    metric: F,
) -> Result<MetricSeries, StoreError>
where
    F: Fn(u32, &Arc<CsrSan>) -> f64 + Sync,
{
    assert!(step >= 1, "step must be at least 1");
    assert!(threads >= 1, "need at least one thread");
    let stream = source.stream(step)?;
    if threads > 1 {
        return Ok(stream_metric_parallel(stream, name, threads, metric));
    }
    let mut series = MetricSeries {
        name: name.to_string(),
        ..MetricSeries::default()
    };
    for (day, snap) in stream {
        series.days.push(day);
        series.values.push(metric(day, &snap));
    }
    Ok(series)
}

/// The `threads > 1` arm of [`evolve_metric`]: delta-frozen
/// `Arc<CsrSan>` days fan out through a bounded channel to `threads`
/// scoped workers running `eval`.
fn stream_metric_parallel<F>(
    stream: SnapshotStream<'_>,
    name: &str,
    threads: usize,
    eval: F,
) -> MetricSeries
where
    F: Fn(u32, &Arc<CsrSan>) -> f64 + Sync,
{
    let mut series = MetricSeries {
        name: name.to_string(),
        ..MetricSeries::default()
    };
    // Bounded hand-off: producer blocks once 2×threads snapshots are in
    // flight. Workers share the receiver behind a mutex (dropped before
    // the metric runs, so consumption itself is concurrent). Each item is
    // an Arc hand-off, not a flat-array clone; the freezer only allocates
    // a fresh buffer for days whose Arc a worker still holds.
    let (tx, rx) = sync_channel::<(u32, Arc<CsrSan>)>(2 * threads);
    let rx = Mutex::new(rx);
    let results = Mutex::new(Vec::<(u32, f64)>::new());
    // A panicking metric must not wedge the producer against a full
    // channel: workers catch the panic, keep draining without computing,
    // and the payload is re-thrown after the scope joins.
    let panicked = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let received = lock_ok(&rx).recv();
                let Ok((day, snap)) = received else {
                    break; // channel closed and drained: sweep done
                };
                if lock_ok(&panicked).is_some() {
                    continue;
                }
                match catch_unwind(AssertUnwindSafe(|| eval(day, &snap))) {
                    Ok(value) => lock_ok(&results).push((day, value)),
                    Err(payload) => *lock_ok(&panicked) = Some(payload),
                }
            });
        }
        for item in stream {
            // Stop patching the remaining days once a worker has caught a
            // metric panic — the sweep is dead either way.
            if lock_ok(&panicked).is_some() {
                break;
            }
            if tx.send(item).is_err() {
                break; // unreachable while workers hold the receiver
            }
        }
        drop(tx); // close the channel so workers exit their recv loops
    });
    if let Some(payload) = into_inner_ok(panicked) {
        resume_unwind(payload);
    }
    let mut rows = into_inner_ok(results);
    rows.sort_unstable_by_key(|&(day, _)| day);
    for (day, value) in rows {
        series.days.push(day);
        series.values.push(value);
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;
    use san_graph::{SanRead, ShardedCsrSan, SocialId, TimelineBuilder};

    fn growing_timeline(days: u32) -> SanTimeline {
        let mut tb = TimelineBuilder::new();
        let mut users: Vec<SocialId> = Vec::new();
        for day in 0..=days {
            tb.advance_to_day(day);
            let u = tb.add_social_node();
            if let Some(&prev) = users.last() {
                tb.add_social_link(u, prev);
            }
            users.push(u);
        }
        tb.finish().0
    }

    /// A full replay sweep (the only source that cannot fail).
    fn replay<F>(tl: &SanTimeline, name: &str, step: u32, threads: usize, metric: F) -> MetricSeries
    where
        F: Fn(u32, &Arc<CsrSan>) -> f64 + Sync,
    {
        evolve_metric(SnapshotSource::Replay(tl), name, step, threads, metric).expect("replay")
    }

    #[test]
    fn phase_boundaries() {
        let b = PhaseBounds::PAPER;
        assert_eq!(b.phase_of(0), Phase::I);
        assert_eq!(b.phase_of(20), Phase::I);
        assert_eq!(b.phase_of(21), Phase::II);
        assert_eq!(b.phase_of(75), Phase::II);
        assert_eq!(b.phase_of(76), Phase::III);
        assert_eq!(b.phase_of(98), Phase::III);
    }

    #[test]
    fn evolve_metric_samples_steps_and_last_day() {
        let tl = growing_timeline(10);
        let series = replay(&tl, "nodes", 3, 1, |_, san| san.num_social_nodes() as f64);
        assert_eq!(series.days, vec![0, 3, 6, 9, 10]);
        assert_eq!(series.values, vec![1.0, 4.0, 7.0, 10.0, 11.0]);
        assert_eq!(series.last(), Some(11.0));
        assert_eq!(series.name, "nodes");
    }

    #[test]
    fn evolve_metric_step_one_covers_all_days() {
        let tl = growing_timeline(5);
        let series = replay(&tl, "links", 1, 1, |_, san| san.num_social_links() as f64);
        assert_eq!(series.days.len(), 6);
        // Links grow by one per day after day 0.
        assert_eq!(series.values, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn phase_statistics() {
        let tl = growing_timeline(98);
        let series = replay(&tl, "nodes", 1, 1, |_, san| san.num_social_nodes() as f64);
        let b = PhaseBounds::PAPER;
        let m1 = series.phase_mean(b, Phase::I).unwrap();
        let m3 = series.phase_mean(b, Phase::III).unwrap();
        assert!(m3 > m1);
        let t2 = series.phase_trend(b, Phase::II).unwrap();
        assert!((t2 - 54.0).abs() < 1e-12); // days 21..=75 add 54 nodes
    }

    #[test]
    fn phase_stats_empty_phase() {
        let tl = growing_timeline(5);
        let series = replay(&tl, "x", 1, 1, |_, _| 1.0);
        assert_eq!(series.phase_mean(PhaseBounds::PAPER, Phase::III), None);
        assert_eq!(series.phase_trend(PhaseBounds::PAPER, Phase::III), None);
    }

    #[test]
    #[should_panic(expected = "step")]
    fn zero_step_rejected() {
        let tl = growing_timeline(3);
        replay(&tl, "x", 0, 1, |_, _| 0.0);
    }

    #[test]
    fn parallel_matches_sequential() {
        let tl = growing_timeline(40);
        let seq = replay(&tl, "links", 3, 1, |_, san| san.num_social_links() as f64);
        for threads in [2, 4] {
            let par = replay(&tl, "links", 3, threads, |_, san| {
                san.num_social_links() as f64
            });
            assert_eq!(par.days, seq.days, "threads={threads}");
            assert_eq!(par.values, seq.values, "threads={threads}");
        }
    }

    #[test]
    fn sharded_sweep_matches_sequential_over_threads_and_shards() {
        let tl = growing_timeline(30);
        let seq = replay(&tl, "links", 3, 1, |_, s| s.num_social_links() as f64);
        for threads in [1usize, 2] {
            for shards in [1usize, 2, 4] {
                // Per-shard link counters summed across shards must equal
                // the whole-day counter on every sampled day.
                let par = replay(&tl, "links", 3, threads, |_, snap| {
                    ShardedCsrSan::new(Arc::clone(snap), shards).fold_shards(
                        |s| s.num_social_links(),
                        0usize,
                        |a, p| a + p,
                    ) as f64
                });
                assert_eq!(par.days, seq.days, "threads={threads} shards={shards}");
                assert_eq!(par.values, seq.values, "threads={threads} shards={shards}");
            }
        }
    }

    #[test]
    fn sharded_sweep_empty_timeline() {
        let tl = SanTimeline::default();
        let s = replay(&tl, "x", 1, 2, |_, snap| {
            ShardedCsrSan::new(Arc::clone(snap), 4).num_social_nodes() as f64
        });
        assert!(s.days.is_empty());
    }

    #[test]
    fn parallel_empty_timeline() {
        let tl = SanTimeline::default();
        let s = replay(&tl, "x", 1, 4, |_, _| 0.0);
        assert!(s.days.is_empty());
    }

    #[test]
    fn parallel_more_threads_than_samples() {
        let tl = growing_timeline(2);
        let s = replay(&tl, "n", 1, 8, |_, san| san.num_social_nodes() as f64);
        assert_eq!(s.days, vec![0, 1, 2]);
        assert_eq!(s.values, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn parallel_propagates_metric_panic() {
        let tl = growing_timeline(12);
        for threads in [1, 3] {
            let result = std::panic::catch_unwind(|| {
                replay(&tl, "boom", 1, threads, |day, _| {
                    assert!(day != 5, "metric exploded");
                    0.0
                })
            });
            assert!(
                result.is_err(),
                "threads={threads}: panic must propagate, not deadlock"
            );
        }
    }

    #[test]
    fn counts_path_matches_freezing_path() {
        let tl = growing_timeline(17);
        for step in [1, 3, 7] {
            let frozen = replay(&tl, "links", step, 1, |_, s| s.num_social_links() as f64);
            let counted = evolve_metric_counts(&tl, "links", step, |c| c.social_links as f64);
            assert_eq!(counted.days, frozen.days, "step={step}");
            assert_eq!(counted.values, frozen.values, "step={step}");
        }
    }

    #[test]
    fn counts_path_empty_timeline() {
        let tl = SanTimeline::default();
        let s = evolve_metric_counts(&tl, "x", 1, |_| 1.0);
        assert!(s.days.is_empty());
    }

    #[test]
    fn counts_path_day_counts_fields() {
        let tl = growing_timeline(6);
        let s = evolve_metric_counts(&tl, "nodes", 2, |c| c.social_nodes as f64);
        assert_eq!(s.days, vec![0, 2, 4, 6]);
        assert_eq!(s.values, vec![1.0, 3.0, 5.0, 7.0]);
    }

    #[test]
    fn day_passed_to_metric() {
        let tl = growing_timeline(4);
        let series = replay(&tl, "day", 2, 1, |day, _| day as f64);
        assert_eq!(
            series.days,
            series.values.iter().map(|&v| v as u32).collect::<Vec<_>>()
        );
    }
}
