//! [`ServeMetrics`]: the serving layer's meters — cache behaviour
//! counters plus the same [`VaultMetrics`] IO shape the vault itself
//! uses, so capacity planning reads one format on both sides of the
//! cache.

use san_graph::meter::{LatencyHistogram, VaultMetrics};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Counters and IO meters for one [`SnapshotServer`](crate::SnapshotServer).
///
/// All counters are relaxed atomics: recording from the hit path costs a
/// couple of uncontended atomic adds. The IO side
/// ([`ServeMetrics::io`]) reuses [`VaultMetrics`]: `read_bytes` is the
/// total bytes of snapshot files mapped+validated by cold misses, and
/// `read_latency` is the open/validate latency histogram (sub-ms for
/// MiB-scale days; a hit never touches it).
///
/// The single-flight path (the SAN-001 fix — see
/// [`flight`](crate::SnapshotServer)) has its own meters: every fetch
/// records exactly one of `hits` (cached), `misses` (led the map), or
/// `dedup_waits` (blocked behind another thread's in-flight map; the
/// wait's duration lands in [`dedup_wait_latency`](ServeMetrics::dedup_wait_latency)).
/// `dedup_hits` counts the waits that resolved into a shared mapping —
/// each one is a whole mmap+validate the herd did *not* pay — and
/// `duplicate_inserts` counts cache inserts that lost to an incumbent
/// (each one a wasted map; single-flight holds this at zero).
///
/// The per-day memo ([`SnapshotServer::memoised_reciprocity`](crate::SnapshotServer::memoised_reciprocity))
/// records exactly one of `memo_hits` (served the stored value) or
/// `memo_fills` (computed it, the O(|Es|) pass timed into
/// [`memo_fill_latency`](ServeMetrics::memo_fill_latency)) per call.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    no_snapshot: AtomicU64,
    dedup_waits: AtomicU64,
    dedup_hits: AtomicU64,
    duplicate_inserts: AtomicU64,
    dedup_wait_latency: LatencyHistogram,
    memo_hits: AtomicU64,
    memo_fills: AtomicU64,
    memo_fill_latency: LatencyHistogram,
    io: VaultMetrics,
}

impl ServeMetrics {
    /// Fresh, zeroed meters.
    pub fn new() -> ServeMetrics {
        ServeMetrics::default()
    }

    /// Cache hits: `get` served an already-mapped day (`Arc` clone).
    pub fn hits(&self) -> u64 {
        // ORDERING: relaxed load of one monotonic counter — nothing
        // synchronizes through the meters (here and in every getter and
        // recorder below; single-variable snapshots need no ordering).
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses: `get` had to map + validate a snapshot file.
    pub fn misses(&self) -> u64 {
        // ORDERING: relaxed; same single-counter argument as hits().
        self.misses.load(Ordering::Relaxed)
    }

    /// Days evicted from the cache to stay under the resident-byte bound.
    pub fn evictions(&self) -> u64 {
        // ORDERING: relaxed; same single-counter argument as hits().
        self.evictions.load(Ordering::Relaxed)
    }

    /// `get` calls for days before the first persisted snapshot (served
    /// as "no snapshot", not an error).
    pub fn no_snapshot(&self) -> u64 {
        // ORDERING: relaxed; same single-counter argument as hits().
        self.no_snapshot.load(Ordering::Relaxed)
    }

    /// Fetches that found their day already being mapped by another
    /// thread and blocked on its single-flight latch instead of mapping
    /// again (every outcome: shared mapping, broadcast failure, or
    /// leader abort).
    pub fn dedup_waits(&self) -> u64 {
        // ORDERING: relaxed; same single-counter argument as hits().
        self.dedup_waits.load(Ordering::Relaxed)
    }

    /// Deduplicated waits that resolved into the leader's shared mapping
    /// — each one an mmap+validate the thundering herd did not pay.
    pub fn dedup_hits(&self) -> u64 {
        // ORDERING: relaxed; same single-counter argument as hits().
        self.dedup_hits.load(Ordering::Relaxed)
    }

    /// Cache inserts that lost to an already-cached incumbent, dropping
    /// the caller's freshly-created mapping. Nonzero means redundant maps
    /// slipped past deduplication; with single-flight it stays zero.
    pub fn duplicate_inserts(&self) -> u64 {
        // ORDERING: relaxed; same single-counter argument as hits().
        self.duplicate_inserts.load(Ordering::Relaxed)
    }

    /// Latency distribution of single-flight waits: how long deduplicated
    /// fetches blocked behind the leading mapper (bounded by the cold
    /// open+validate cost; typically a fraction of it).
    pub fn dedup_wait_latency(&self) -> &LatencyHistogram {
        &self.dedup_wait_latency
    }

    /// Memoised aggregate reads answered from a resident day's filled
    /// memo slot — each one a whole-graph pass not paid.
    pub fn memo_hits(&self) -> u64 {
        // ORDERING: relaxed; same single-counter argument as hits().
        self.memo_hits.load(Ordering::Relaxed)
    }

    /// Memoised aggregate reads that found the slot empty and computed
    /// it: at most one per resident day and aggregate, and again after
    /// the day is evicted and re-mapped.
    pub fn memo_fills(&self) -> u64 {
        // ORDERING: relaxed; same single-counter argument as hits().
        self.memo_fills.load(Ordering::Relaxed)
    }

    /// Latency distribution of memo fills: the whole-graph pass each
    /// fill paid (memo hits never touch it).
    pub fn memo_fill_latency(&self) -> &LatencyHistogram {
        &self.memo_fill_latency
    }

    /// The IO meters of the cold-miss path: bytes mapped+validated and
    /// the open/validate latency histogram — the same [`VaultMetrics`]
    /// shape as [`SnapshotVault::metrics`](san_graph::store::SnapshotVault::metrics).
    pub fn io(&self) -> &VaultMetrics {
        &self.io
    }

    pub(crate) fn record_hit(&self) {
        // ORDERING: relaxed fetch-adds, here and in the recorders below —
        // increments are exact by RMW atomicity alone; readers only need
        // eventual values (loom_meter.rs in san-graph models the protocol).
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_miss(&self) {
        // ORDERING: relaxed; same RMW-atomicity argument as record_hit.
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_evictions(&self, n: u64) {
        // ORDERING: relaxed; same RMW-atomicity argument as record_hit.
        self.evictions.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn record_no_snapshot(&self) {
        // ORDERING: relaxed; same RMW-atomicity argument as record_hit.
        self.no_snapshot.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_dedup_wait(&self, waited: Duration) {
        // ORDERING: relaxed; same RMW-atomicity argument as record_hit.
        self.dedup_waits.fetch_add(1, Ordering::Relaxed);
        self.dedup_wait_latency.record(waited);
    }

    pub(crate) fn record_dedup_hit(&self) {
        // ORDERING: relaxed; same RMW-atomicity argument as record_hit.
        self.dedup_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_duplicate_insert(&self) {
        // ORDERING: relaxed; same RMW-atomicity argument as record_hit.
        self.duplicate_inserts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_memo_hit(&self) {
        // ORDERING: relaxed; same RMW-atomicity argument as record_hit.
        // The memoised value itself is published by the slot's mutex,
        // not through this counter.
        self.memo_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_memo_fill(&self, took: Duration) {
        // ORDERING: relaxed; same RMW-atomicity argument as record_hit.
        self.memo_fills.fetch_add(1, Ordering::Relaxed);
        self.memo_fill_latency.record(took);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const fn assert_send_sync<T: Send + Sync>() {}
    const _: () = assert_send_sync::<ServeMetrics>();

    #[test]
    fn counters_accumulate() {
        let m = ServeMetrics::new();
        m.record_hit();
        m.record_hit();
        m.record_miss();
        m.record_evictions(3);
        m.record_no_snapshot();
        m.io().record_read(1024, Duration::from_micros(50));
        assert_eq!(m.hits(), 2);
        assert_eq!(m.misses(), 1);
        assert_eq!(m.evictions(), 3);
        assert_eq!(m.no_snapshot(), 1);
        assert_eq!(m.io().read_bytes(), 1024);
        assert_eq!(m.io().read_latency().count(), 1);
    }

    #[test]
    fn dedup_meters_accumulate() {
        let m = ServeMetrics::new();
        m.record_dedup_wait(Duration::from_micros(200));
        m.record_dedup_wait(Duration::from_micros(300));
        m.record_dedup_hit();
        m.record_duplicate_insert();
        assert_eq!(m.dedup_waits(), 2);
        assert_eq!(m.dedup_hits(), 1);
        assert_eq!(m.duplicate_inserts(), 1);
        assert_eq!(m.dedup_wait_latency().count(), 2);
        let p50 = m.dedup_wait_latency().median_nanos();
        assert!((131_072..524_288).contains(&p50), "p50 {p50}");
    }

    #[test]
    fn memo_meters_accumulate() {
        let m = ServeMetrics::new();
        m.record_memo_fill(Duration::from_millis(2));
        m.record_memo_hit();
        m.record_memo_hit();
        assert_eq!(m.memo_fills(), 1);
        assert_eq!(m.memo_hits(), 2);
        assert_eq!(m.memo_fill_latency().count(), 1, "hits record no latency");
    }
}
