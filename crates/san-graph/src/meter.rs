//! Metered IO: byte counters and latency histograms for the snapshot
//! store and the serving layer.
//!
//! [`SnapshotVault`](crate::store::SnapshotVault) carries a
//! [`VaultMetrics`] that every persist/load path feeds — bytes moved and a
//! latency histogram per direction — and the `san-serve` snapshot server
//! embeds the same type for its mmap open/validate path, so capacity
//! planning reads one shape everywhere. Counters are relaxed atomics:
//! recording from many reader threads is wait-free and never perturbs the
//! operation being measured by more than a handful of uncontended atomic
//! adds.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Adds `delta` to a byte/nanosecond accumulator, saturating at
/// `u64::MAX` instead of wrapping — a meter that has been up for years
/// must degrade to "pinned at max", never to a small lie.
///
/// # ORDERING:
/// Relaxed on both the success and failure orderings: the accumulators
/// are independent monotonic counters with no cross-variable protocol —
/// exactness comes from the compare-exchange atomicity of
/// `fetch_update`, which no memory ordering strengthens or weakens.
fn saturating_fetch_add(counter: &AtomicU64, delta: u64) {
    let _ = counter.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
        Some(v.saturating_add(delta))
    });
}

/// Number of power-of-two latency buckets: bucket `i` counts samples in
/// `[2^i, 2^(i+1))` nanoseconds, so the histogram spans 1 ns to ~9 min.
pub const BUCKETS: usize = 40;

/// A fixed-size, lock-free latency histogram with power-of-two nanosecond
/// buckets.
///
/// Recording is one relaxed fetch-add per sample (plus count/sum
/// bookkeeping); quantile reads are approximate to within the bucket
/// resolution (a factor of two), which is plenty for "is a cache hit
/// sub-microsecond and a cold open tens of microseconds" questions.
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_nanos: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// Records one sample.
    pub fn record(&self, elapsed: Duration) {
        let nanos = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
        let bucket = (nanos.max(1).ilog2() as usize).min(BUCKETS - 1);
        // ORDERING: relaxed fetch-adds — increments are exact by RMW
        // atomicity alone; no reader needs to observe bucket/count/sum as
        // a consistent triple. The bucket is bumped *before* the count so
        // a racing quantile scan never sees a rank its bucket walk can't
        // cover (tests/loom_meter.rs explores every interleaving).
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturates: ~585 years of summed nanoseconds pins at u64::MAX
        // rather than wrapping the mean back toward zero.
        saturating_fetch_add(&self.sum_nanos, nanos);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        // ORDERING: relaxed load of one monotonic counter; callers get
        // an at-least-this-many snapshot, never tearing.
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in nanoseconds (0 when empty).
    pub fn mean_nanos(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        // ORDERING: relaxed — sum and count are sampled independently;
        // mid-record skew moves the mean by at most one sample's weight.
        self.sum_nanos.load(Ordering::Relaxed) as f64 / count as f64
    }

    /// Approximate `q`-quantile in nanoseconds (the geometric midpoint of
    /// the bucket holding the quantile sample; 0 when empty).
    ///
    /// # Panics
    /// Panics when `q` is not in `[0, 1]`.
    pub fn quantile_nanos(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of [0, 1]: {q}");
        let count = self.count();
        if count == 0 {
            return 0;
        }
        // Rank of the quantile sample, 1-based, clamped into [1, count].
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            // ORDERING: relaxed — record() bumps a bucket before the
            // count, so the rank computed above is always covered by the
            // bucket mass this scan accumulates; no acquire needed.
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                // Geometric midpoint of [2^i, 2^(i+1)): 2^i * 1.5.
                return (1u64 << i) + (1u64 << i) / 2;
            }
        }
        // Unreachable while count() sums the buckets, but stay total.
        (1u64 << (BUCKETS - 1)) + (1u64 << (BUCKETS - 1)) / 2
    }

    /// Approximate median in nanoseconds.
    pub fn median_nanos(&self) -> u64 {
        self.quantile_nanos(0.5)
    }

    /// A copy of the per-bucket sample counts (bucket `i` covers
    /// `[2^i, 2^(i+1))` nanoseconds).
    ///
    /// Each bucket is loaded once; concurrent `record()` calls may land
    /// between loads, so the copy is a per-bucket-exact, cross-bucket
    /// approximate view — the same guarantee `quantile_nanos` works from.
    pub fn buckets(&self) -> [u64; BUCKETS] {
        // ORDERING: relaxed per-bucket loads — each bucket is an
        // independent monotonic counter; no cross-bucket protocol exists
        // to order against (see the record() invariant note).
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// A non-atomic copy of the whole histogram for consistent export.
    ///
    /// The snapshot's `count()` is defined as the sum of the copied
    /// buckets — not a separate load of the live count — so exporters
    /// that emit cumulative buckets plus a total (Prometheus `+Inf`)
    /// always ship an internally consistent triple even while recorders
    /// race the copy. `sum_nanos` is sampled after the buckets and may
    /// include samples the bucket copy missed; the skew is bounded by
    /// the samples recorded during the scan.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self.buckets();
        let count = buckets.iter().sum();
        HistogramSnapshot {
            buckets,
            count,
            // ORDERING: relaxed — independent monotonic accumulator,
            // same single-counter-snapshot argument as sum recording.
            sum_nanos: self.sum_nanos.load(Ordering::Relaxed),
        }
    }
}

/// A plain (non-atomic) copy of a [`LatencyHistogram`] taken by
/// [`LatencyHistogram::snapshot`]: internally consistent — `count()` is
/// exactly the sum of `buckets()` — and safe to hold across an export
/// pass while the live histogram keeps recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_nanos: u64,
}

impl HistogramSnapshot {
    /// Per-bucket sample counts; bucket `i` covers `[2^i, 2^(i+1))` ns.
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// Total samples in this snapshot (always `== buckets().sum()`).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Summed nanoseconds at snapshot time (saturating accumulator; may
    /// lead `count` by the samples recorded during the bucket scan).
    pub fn sum_nanos(&self) -> u64 {
        self.sum_nanos
    }

    /// Inclusive upper bound of bucket `i` in nanoseconds: samples in
    /// bucket `i` are all `<= 2^(i+1) - 1` ns (the last bucket also
    /// absorbs clamped overflows, so exporters should publish it as
    /// unbounded).
    pub fn bucket_upper_nanos(i: usize) -> u64 {
        if i >= BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << (i + 1)) - 1
        }
    }
}

impl fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count())
            .field("mean_nanos", &self.mean_nanos())
            .field("p50_nanos", &self.quantile_nanos(0.5))
            .field("p99_nanos", &self.quantile_nanos(0.99))
            .field("p999_nanos", &self.quantile_nanos(0.999))
            .finish()
    }
}

/// IO meters for one vault (or one serving layer): bytes moved in each
/// direction plus a latency histogram per direction.
///
/// Lives next to
/// [`SnapshotVault::disk_bytes`](crate::store::SnapshotVault::disk_bytes):
/// `disk_bytes` answers "how much does the persisted timeline occupy",
/// `VaultMetrics` answers "how fast is it moving and how often". Reads
/// cover both the eager [`load_day`](crate::store::SnapshotVault::load_day)
/// path and the mmap [`map_day`](crate::store::SnapshotVault::map_day)
/// path (a mapped open is metered by its validated byte length — the pages
/// fault in lazily, but the validation pass touches every byte once).
#[derive(Debug, Default)]
pub struct VaultMetrics {
    read_bytes: AtomicU64,
    written_bytes: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
    read_latency: LatencyHistogram,
    write_latency: LatencyHistogram,
    delta_chain_loads: AtomicU64,
    delta_links_applied: AtomicU64,
    max_chain_len: AtomicU64,
}

impl VaultMetrics {
    /// Fresh, zeroed meters.
    pub fn new() -> VaultMetrics {
        VaultMetrics::default()
    }

    /// Records one completed read (load or mmap open+validate).
    pub fn record_read(&self, bytes: u64, elapsed: Duration) {
        // ORDERING: relaxed — byte totals and op counts are independent
        // monotonic meters; nothing synchronizes on them. Byte totals
        // saturate (a busy vault can move > 2^64 bytes over its life).
        saturating_fetch_add(&self.read_bytes, bytes);
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.read_latency.record(elapsed);
    }

    /// Records one completed write: a persist's commit (see
    /// [`write_latency`](VaultMetrics::write_latency)).
    pub fn record_write(&self, bytes: u64, elapsed: Duration) {
        // ORDERING: relaxed — same argument as record_read.
        saturating_fetch_add(&self.written_bytes, bytes);
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.write_latency.record(elapsed);
    }

    /// Total bytes read so far (saturating at `u64::MAX`).
    pub fn read_bytes(&self) -> u64 {
        // ORDERING: relaxed load of one monotonic counter — a
        // single-variable snapshot needs no inter-variable ordering.
        self.read_bytes.load(Ordering::Relaxed)
    }

    /// Total bytes written so far (saturating at `u64::MAX`).
    pub fn written_bytes(&self) -> u64 {
        // ORDERING: relaxed; same single-counter-snapshot argument.
        self.written_bytes.load(Ordering::Relaxed)
    }

    /// Number of completed reads.
    pub fn reads(&self) -> u64 {
        // ORDERING: relaxed; same single-counter-snapshot argument.
        self.reads.load(Ordering::Relaxed)
    }

    /// Number of completed writes.
    pub fn writes(&self) -> u64 {
        // ORDERING: relaxed; same single-counter-snapshot argument.
        self.writes.load(Ordering::Relaxed)
    }

    /// Records one delta-chain reconstruction: a full-day load plus
    /// `links` delta applications. Called *in addition to*
    /// [`record_read`](VaultMetrics::record_read) (which meters the
    /// combined bytes + latency), so chain loads remain visible among
    /// plain reads.
    pub fn record_chain(&self, links: u64) {
        // ORDERING: relaxed — independent monotonic meters, like every
        // other counter here; the max is a fetch_max RMW whose exactness
        // needs no inter-variable ordering.
        self.delta_chain_loads.fetch_add(1, Ordering::Relaxed);
        saturating_fetch_add(&self.delta_links_applied, links);
        self.max_chain_len.fetch_max(links, Ordering::Relaxed);
    }

    /// Number of delta-chain reconstructions (reads that resolved at
    /// least one delta day).
    pub fn delta_chain_loads(&self) -> u64 {
        // ORDERING: relaxed; same single-counter-snapshot argument.
        self.delta_chain_loads.load(Ordering::Relaxed)
    }

    /// Total delta days applied across all chain reconstructions
    /// (saturating at `u64::MAX`).
    pub fn delta_links_applied(&self) -> u64 {
        // ORDERING: relaxed; same single-counter-snapshot argument.
        self.delta_links_applied.load(Ordering::Relaxed)
    }

    /// Longest chain resolved so far (0 when no chain load has happened).
    pub fn max_chain_len(&self) -> u64 {
        // ORDERING: relaxed; same single-counter-snapshot argument.
        self.max_chain_len.load(Ordering::Relaxed)
    }

    /// Latency distribution of reads (load / open+validate).
    pub fn read_latency(&self) -> &LatencyHistogram {
        &self.read_latency
    }

    /// Latency distribution of writes: each persist's commit — temp-file
    /// write, rename and manifest rewrite — whether the day was saved
    /// directly or through a
    /// [`StreamingVaultWriter`](crate::store::StreamingVaultWriter). The
    /// in-memory encode before the commit is not included.
    pub fn write_latency(&self) -> &LatencyHistogram {
        &self.write_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const fn assert_send_sync<T: Send + Sync>() {}
    const _: () = assert_send_sync::<VaultMetrics>();
    const _: () = assert_send_sync::<LatencyHistogram>();

    #[test]
    fn empty_histogram() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_nanos(), 0.0);
        assert_eq!(h.median_nanos(), 0);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = LatencyHistogram::new();
        // 9 samples at ~1 µs, 1 sample at ~1 ms.
        for _ in 0..9 {
            h.record(Duration::from_micros(1));
        }
        h.record(Duration::from_millis(1));
        assert_eq!(h.count(), 10);
        // Median lands in the 1 µs bucket [2^9, 2^10): midpoint 768 ns.
        let p50 = h.median_nanos();
        assert!((512..1024).contains(&p50), "p50 {p50}");
        // p99 / max land in the 1 ms bucket.
        let p99 = h.quantile_nanos(0.99);
        assert!((524_288..2_097_152).contains(&p99), "p99 {p99}");
        let mean = h.mean_nanos();
        assert!(mean > 900.0 && mean < 200_000.0, "mean {mean}");
        // Extremes are total.
        assert!(h.quantile_nanos(0.0) > 0);
        assert!(h.quantile_nanos(1.0) >= p99);
    }

    #[test]
    fn zero_duration_lands_in_first_bucket() {
        let h = LatencyHistogram::new();
        h.record(Duration::ZERO);
        assert_eq!(h.count(), 1);
        assert_eq!(h.median_nanos(), 1); // bucket 0 midpoint: 1 + 1/2 = 1
    }

    #[test]
    #[should_panic(expected = "quantile out of")]
    fn quantile_rejects_out_of_range() {
        LatencyHistogram::new().quantile_nanos(1.5);
    }

    /// Bucket `i` covers `[2^i, 2^(i+1))`: an exact power of two lands in
    /// its own bucket, one nanosecond less lands one bucket down.
    #[test]
    fn power_of_two_boundaries_split_buckets() {
        for i in 1..BUCKETS as u32 - 1 {
            let h = LatencyHistogram::new();
            h.record(Duration::from_nanos(1u64 << i));
            h.record(Duration::from_nanos((1u64 << i) - 1));
            // Midpoints of buckets i and i-1 are distinct, and the
            // median (rank 1 of 2) is the lower sample's bucket.
            assert_eq!(
                h.median_nanos(),
                (1u64 << (i - 1)) + (1u64 << (i - 1)) / 2,
                "i={i}"
            );
            assert_eq!(
                h.quantile_nanos(1.0),
                (1u64 << i) + (1u64 << i) / 2,
                "i={i}"
            );
        }
    }

    /// `Duration::MAX` clamps to `u64::MAX` nanoseconds and lands in the
    /// last bucket instead of indexing out of bounds.
    #[test]
    fn duration_max_clamps_into_last_bucket() {
        let h = LatencyHistogram::new();
        h.record(Duration::MAX);
        assert_eq!(h.count(), 1);
        let top = (1u64 << (BUCKETS - 1)) + (1u64 << (BUCKETS - 1)) / 2;
        assert_eq!(h.median_nanos(), top);
        assert_eq!(h.quantile_nanos(1.0), top);
    }

    /// The nanosecond sum pins at `u64::MAX` instead of wrapping: the
    /// mean degrades to "huge", never to a small lie.
    #[test]
    fn sum_nanos_saturates_instead_of_wrapping() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_nanos(u64::MAX));
        h.record(Duration::from_nanos(u64::MAX));
        assert_eq!(h.count(), 2);
        assert_eq!(h.mean_nanos(), u64::MAX as f64 / 2.0);
    }

    /// Byte totals saturate too — and the op counters keep counting.
    #[test]
    fn vault_byte_counters_saturate() {
        let m = VaultMetrics::new();
        m.record_read(u64::MAX, Duration::from_nanos(1));
        m.record_read(u64::MAX, Duration::from_nanos(1));
        m.record_write(u64::MAX - 10, Duration::from_nanos(1));
        m.record_write(100, Duration::from_nanos(1));
        assert_eq!(m.read_bytes(), u64::MAX);
        assert_eq!(m.written_bytes(), u64::MAX);
        assert_eq!(m.reads(), 2);
        assert_eq!(m.writes(), 2);
    }

    #[test]
    fn vault_metrics_accumulate() {
        let m = VaultMetrics::new();
        m.record_write(100, Duration::from_micros(5));
        m.record_write(50, Duration::from_micros(5));
        m.record_read(100, Duration::from_micros(2));
        assert_eq!(m.written_bytes(), 150);
        assert_eq!(m.read_bytes(), 100);
        assert_eq!(m.writes(), 2);
        assert_eq!(m.reads(), 1);
        assert_eq!(m.write_latency().count(), 2);
        assert_eq!(m.read_latency().count(), 1);
    }

    /// `Debug` reports the tail the benches report: p999 alongside p99.
    #[test]
    fn debug_includes_p999() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_micros(1));
        let dbg = format!("{h:?}");
        assert!(dbg.contains("p99_nanos"), "{dbg}");
        assert!(dbg.contains("p999_nanos"), "{dbg}");
    }

    /// `buckets()` mirrors where `record()` put each sample.
    #[test]
    fn buckets_accessor_matches_recorded_samples() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_nanos(1)); // bucket 0
        h.record(Duration::from_nanos(6)); // bucket 2: [4, 8)
        h.record(Duration::from_nanos(7)); // bucket 2
        let b = h.buckets();
        assert_eq!(b[0], 1);
        assert_eq!(b[2], 2);
        assert_eq!(b.iter().sum::<u64>(), 3);
    }

    /// A snapshot is internally consistent by construction: its count is
    /// the sum of its buckets, and its `+Inf`-style total never drifts
    /// from the bucket mass even with recorders racing the copy.
    #[test]
    fn snapshot_is_consistent_under_concurrent_recording() {
        let h = LatencyHistogram::new();
        let stop = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    // ORDERING: relaxed — test-local stop flag, no data
                    // is published through it.
                    while stop.load(Ordering::Relaxed) == 0 {
                        h.record(Duration::from_nanos(700));
                        h.record(Duration::from_micros(40));
                    }
                });
            }
            let mut last_count = 0u64;
            for _ in 0..200 {
                let snap = h.snapshot();
                assert_eq!(
                    snap.count(),
                    snap.buckets().iter().sum::<u64>(),
                    "snapshot count must equal its own bucket sum"
                );
                // Counts from successive snapshots are monotone. (The
                // live count may transiently trail the bucket sum —
                // record() bumps the bucket first — so only snapshots
                // are compared against snapshots here.)
                assert!(snap.count() >= last_count);
                last_count = snap.count();
            }
            stop.store(1, Ordering::Relaxed);
        });
        // Quiesced: snapshot and live views agree exactly, and repeated
        // snapshots are identical.
        let snap = h.snapshot();
        assert_eq!(snap.count(), h.count());
        assert_eq!(snap, h.snapshot());
        assert_eq!(snap.buckets(), &h.buckets());
    }

    /// Bucket upper bounds are `2^(i+1) - 1`, with the last bucket
    /// unbounded (it absorbs clamped `Duration::MAX` samples).
    #[test]
    fn snapshot_bucket_upper_bounds() {
        assert_eq!(HistogramSnapshot::bucket_upper_nanos(0), 1);
        assert_eq!(HistogramSnapshot::bucket_upper_nanos(1), 3);
        assert_eq!(HistogramSnapshot::bucket_upper_nanos(9), 1023);
        assert_eq!(HistogramSnapshot::bucket_upper_nanos(BUCKETS - 1), u64::MAX);
        assert_eq!(HistogramSnapshot::bucket_upper_nanos(BUCKETS + 5), u64::MAX);
    }

    #[test]
    fn concurrent_recording_is_exact_on_counters() {
        let m = VaultMetrics::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        m.record_read(3, Duration::from_nanos(100));
                    }
                });
            }
        });
        assert_eq!(m.reads(), 4000);
        assert_eq!(m.read_bytes(), 12_000);
        assert_eq!(m.read_latency().count(), 4000);
    }
}
