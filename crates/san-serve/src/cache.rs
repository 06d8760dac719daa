//! A sharded, byte-bounded LRU of mapped snapshots.
//!
//! Day keys spread across independently-locked shards so concurrent
//! readers of *different* days never contend on one lock, and readers of
//! the *same* day contend only on that day's shard for the duration of a
//! vector scan (cache populations are tens of days, not millions — a
//! vault persists one file per sampled day — so scan-based LRU beats a
//! linked-list + map for both simplicity and locality).
//!
//! The bound is **resident mapped bytes**, not entry count: snapshots
//! grow with the day, so a count bound would let the tail of a long
//! timeline blow the memory budget. Each shard polices its slice of
//! [`ServeConfig::max_resident_bytes`](crate::ServeConfig::max_resident_bytes)
//! (near-equal split; division remainders go to the lowest-indexed
//! shards so the slices sum to the configured bound exactly);
//! eviction drops the least-recently-served day's `Arc`, and the mapping
//! itself is unmapped only when the last outstanding reader drops its
//! handle — eviction can never invalidate a view someone is using.
//!
//! The shard locks are [`loom_lite::sync::Mutex`]: plain `std` mutexes
//! in production (one thread-local flag check of overhead per lock), and
//! scheduler-visible locks under the `loom-lite` model checker — the
//! `model_tests` module explores every interleaving of 2–3 threads
//! hitting get/insert/evict on *this exact code*, not a shadow copy.

use crate::memo::Memo;
use loom_lite::sync::Mutex;
use san_graph::mmap::MappedSnapshot;
use std::sync::Arc;

/// Locks a shard, recovering the data on poisoning: a panicking holder
/// leaves shard state coherent (counters and entries are updated in
/// consistent snapshots), so serving continues rather than cascading.
fn lock_shard(shard: &Mutex<CacheShard>) -> loom_lite::sync::MutexGuard<'_, CacheShard> {
    shard
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// What the cache keeps per resident day: the mapping plus the memo
/// slot of its whole-graph aggregate. Every handle to the day shares
/// this one `Arc`, so a value memoised through any of them serves all;
/// eviction drops the slot with the mapping, so a re-mapped day starts
/// empty.
#[derive(Debug)]
pub(crate) struct ResidentDay {
    pub(crate) snap: Arc<MappedSnapshot>,
    /// Global reciprocity of this mapping, filled on first request.
    pub(crate) reciprocity: Memo,
}

impl ResidentDay {
    /// A freshly-mapped day with an empty memo slot.
    pub(crate) fn new(snap: Arc<MappedSnapshot>) -> ResidentDay {
        ResidentDay {
            snap,
            reciprocity: Memo::default(),
        }
    }

    fn mapped_bytes(&self) -> u64 {
        self.snap.mapped_bytes() as u64
    }
}

/// One cached day.
struct Entry {
    day: u32,
    resident: Arc<ResidentDay>,
    /// Shard-local logical timestamp of the last `get`/`insert`.
    last_used: u64,
}

/// One independently-locked cache shard.
#[derive(Default)]
struct CacheShard {
    entries: Vec<Entry>,
    clock: u64,
    bytes: u64,
}

/// What an insert did, for the fetch path and the metrics layer.
#[derive(Debug, Default)]
pub(crate) struct InsertOutcome {
    /// Days evicted to make room.
    pub evicted: u64,
    /// `Some` when the day was already cached: the incumbent was kept
    /// and the caller's fresh entry was not inserted. The caller serves
    /// the incumbent, so one resident day never has two memo slots.
    /// Before single-flight this was the silent cost of the cold-miss
    /// race; the metrics layer counts it (`duplicate_inserts`) so the
    /// dedup win is observable.
    pub incumbent: Option<Arc<ResidentDay>>,
}

/// The sharded LRU. Keys are persisted days.
pub(crate) struct ShardedLru {
    shards: Vec<Mutex<CacheShard>>,
    /// Per-shard byte budgets, indexed like `shards`. They sum to the
    /// configured `max_bytes` exactly: integer division spreads the
    /// remainder over the first `max_bytes % shards` shards instead of
    /// silently discarding up to `shards - 1` bytes of budget.
    budgets: Vec<u64>,
}

impl ShardedLru {
    /// A cache of `shards` independent shards splitting `max_bytes` so
    /// the shard budgets sum to `max_bytes` exactly (shard `i` gets
    /// `max_bytes / shards`, plus one of the `max_bytes % shards`
    /// remainder bytes for the lowest-indexed shards). Both inputs are
    /// clamped to at least 1 shard / 1 total byte so a zero-budget cache
    /// degenerates to "keep only the newest day per shard" instead of
    /// dividing by zero.
    pub(crate) fn new(shards: usize, max_bytes: u64) -> ShardedLru {
        let shards = shards.max(1);
        let max_bytes = max_bytes.max(1);
        let (base, remainder) = (max_bytes / shards as u64, max_bytes % shards as u64);
        ShardedLru {
            budgets: (0..shards as u64)
                .map(|i| base + u64::from(i < remainder))
                .collect(),
            shards: (0..shards)
                .map(|_| Mutex::new(CacheShard::default()))
                .collect(),
        }
    }

    fn shard_index(&self, day: u32) -> usize {
        day as usize % self.shards.len()
    }

    fn shard(&self, day: u32) -> &Mutex<CacheShard> {
        &self.shards[self.shard_index(day)]
    }

    /// Presence probe: true when `day` is resident, without bumping its
    /// recency (an admission-control peek must not make a day look hot).
    pub(crate) fn contains(&self, day: u32) -> bool {
        lock_shard(self.shard(day))
            .entries
            .iter()
            .any(|e| e.day == day)
    }

    /// Looks a day up, bumping its recency on hit.
    pub(crate) fn get(&self, day: u32) -> Option<Arc<ResidentDay>> {
        // Shard state stays coherent under poisoning (a panicking thread
        // leaves counters and entries in a consistent snapshot), so
        // serving continues instead of cascading the panic.
        let mut shard = lock_shard(self.shard(day));
        shard.clock += 1;
        let clock = shard.clock;
        let entry = shard.entries.iter_mut().find(|e| e.day == day)?;
        entry.last_used = clock;
        Some(Arc::clone(&entry.resident))
    }

    /// Inserts a freshly-mapped day, evicting least-recently-served
    /// entries until the shard is back under budget. The newly-inserted
    /// day is never evicted by its own insert (an over-budget snapshot
    /// still serves; it just caches alone). Racing inserts of the same
    /// day keep the incumbent and hand it back.
    pub(crate) fn insert(&self, day: u32, resident: Arc<ResidentDay>) -> InsertOutcome {
        let bytes = resident.mapped_bytes();
        let budget = self.budgets[self.shard_index(day)];
        let mut shard = lock_shard(self.shard(day));
        shard.clock += 1;
        let clock = shard.clock;
        if let Some(entry) = shard.entries.iter_mut().find(|e| e.day == day) {
            // Another thread won the mapping race; keep its entry and
            // report the duplicate so the wasted map is visible.
            entry.last_used = clock;
            return InsertOutcome {
                incumbent: Some(Arc::clone(&entry.resident)),
                ..InsertOutcome::default()
            };
        }
        shard.entries.push(Entry {
            day,
            resident,
            last_used: clock,
        });
        shard.bytes += bytes;
        let mut outcome = InsertOutcome::default();
        while shard.bytes > budget && shard.entries.len() > 1 {
            // len > 1 and one entry is `day`, so a victim exists; stop
            // evicting defensively if that invariant ever breaks.
            let Some(victim) = shard
                .entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.day != day)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
            else {
                break;
            };
            let evicted = shard.entries.swap_remove(victim);
            shard.bytes -= evicted.resident.mapped_bytes();
            outcome.evicted += 1;
        }
        outcome
    }

    /// Total mapped bytes currently cached (sum over shards; each shard
    /// read is individually consistent).
    pub(crate) fn resident_bytes(&self) -> u64 {
        self.shards.iter().map(|s| lock_shard(s).bytes).sum()
    }

    /// Number of cached days.
    pub(crate) fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock_shard(s).entries.len())
            .sum()
    }

    /// Asserts every shard's accounting invariants — the properties the
    /// `loom-lite` model check re-verifies in **every** interleaving:
    ///
    /// 1. the shard byte counter equals the sum of its entries' mapped
    ///    bytes (no accounting drift through any get/insert/evict race);
    /// 2. no day is cached twice within a shard (racing inserts keep the
    ///    incumbent);
    /// 3. the shard is within its byte budget, except for the documented
    ///    single-oversized-entry case.
    #[cfg(test)]
    pub(crate) fn assert_accounting(&self) {
        for (i, shard) in self.shards.iter().enumerate() {
            let shard = shard.lock().expect("cache shard lock");
            let sum: u64 = shard
                .entries
                .iter()
                .map(|e| e.resident.mapped_bytes())
                .sum();
            assert_eq!(
                shard.bytes, sum,
                "shard {i}: byte counter {} != entry sum {sum}",
                shard.bytes
            );
            let mut days: Vec<u32> = shard.entries.iter().map(|e| e.day).collect();
            days.sort_unstable();
            days.dedup();
            assert_eq!(
                days.len(),
                shard.entries.len(),
                "shard {i}: duplicate day cached"
            );
            assert!(
                shard.bytes <= self.budgets[i] || shard.entries.len() == 1,
                "shard {i}: over budget ({} > {}) with {} entries",
                shard.bytes,
                self.budgets[i],
                shard.entries.len()
            );
        }
    }

    /// Per-shard byte budgets, for tests asserting the configured bound
    /// is fully distributed.
    #[cfg(test)]
    pub(crate) fn shard_budgets(&self) -> &[u64] {
        &self.budgets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use san_graph::{San, SanRead, TimelineBuilder};
    use std::io::Write as _;
    use std::path::PathBuf;

    fn mapped_sample(tag: &str) -> (Arc<MappedSnapshot>, PathBuf) {
        let mut tb = TimelineBuilder::new();
        let u0 = tb.add_social_node();
        let u1 = tb.add_social_node();
        tb.add_social_link(u0, u1);
        let bytes = tb.finish().1.freeze().to_store_bytes();
        let path =
            std::env::temp_dir().join(format!("san-serve-cache-{tag}-{}.csr", std::process::id()));
        let mut f = std::fs::File::create(&path).expect("temp file");
        f.write_all(&bytes).expect("write");
        (Arc::new(MappedSnapshot::open(&path).expect("map")), path)
    }

    /// A fresh cache entry over a shared fixture mapping.
    fn fresh(snap: &Arc<MappedSnapshot>) -> Arc<ResidentDay> {
        Arc::new(ResidentDay::new(Arc::clone(snap)))
    }

    #[test]
    fn lru_evicts_least_recently_served() {
        let (snap, path) = mapped_sample("lru");
        let one = snap.mapped_bytes() as u64;
        // Budget for two entries in one shard.
        let cache = ShardedLru::new(1, 2 * one);
        for day in [0, 7] {
            let outcome = cache.insert(day, fresh(&snap));
            assert_eq!(outcome.evicted, 0);
            assert!(outcome.incumbent.is_none());
        }
        // Touch day 0 so day 7 is the LRU victim.
        assert!(cache.get(0).is_some());
        let outcome = cache.insert(14, fresh(&snap));
        assert_eq!(outcome.evicted, 1);
        assert!(cache.get(7).is_none(), "LRU day evicted");
        assert!(cache.get(0).is_some());
        assert!(cache.get(14).is_some());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.resident_bytes(), 2 * one);
        drop(snap);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn oversized_entry_still_caches_alone() {
        let (snap, path) = mapped_sample("oversize");
        let cache = ShardedLru::new(1, 1); // 1-byte budget
        cache.insert(3, fresh(&snap));
        assert!(cache.get(3).is_some(), "own insert never evicts itself");
        let outcome = cache.insert(9, fresh(&snap));
        assert_eq!(outcome.evicted, 1, "previous day evicted");
        assert!(cache.get(3).is_none());
        assert_eq!(cache.len(), 1);
        drop(snap);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn racing_insert_keeps_incumbent_and_reports_duplicate() {
        let (snap, path) = mapped_sample("race");
        let cache = ShardedLru::new(4, u64::MAX);
        assert!(
            cache.insert(5, fresh(&snap)).incumbent.is_none(),
            "first insert is no duplicate"
        );
        let before = cache.get(5).expect("cached");
        let outcome = cache.insert(
            5,
            fresh(&Arc::new(MappedSnapshot::open(&path).expect("remap"))),
        );
        let incumbent = outcome.incumbent.expect("losing insert is reported");
        assert!(
            Arc::ptr_eq(&incumbent, &before),
            "the loser is handed the incumbent entry"
        );
        assert_eq!(outcome.evicted, 0);
        assert!(
            Arc::ptr_eq(&cache.get(5).expect("still cached"), &before),
            "incumbent mapping kept"
        );
        drop(snap);
        let _ = std::fs::remove_file(path);
    }

    /// The configured byte budget is distributed without loss: shard
    /// budgets always sum to `max_bytes` (the old integer division threw
    /// away up to `shards - 1` bytes — `max_bytes = 7, shards = 4` used
    /// to yield a total budget of 4).
    #[test]
    fn budget_remainder_is_distributed_not_discarded() {
        let cache = ShardedLru::new(4, 7);
        assert_eq!(cache.shard_budgets(), &[2, 2, 2, 1]);
        for (shards, max_bytes) in [
            (1usize, 1u64),
            (3, 10),
            (4, 7),
            (8, 8),
            (5, 3),
            (7, 1 << 40),
        ] {
            let cache = ShardedLru::new(shards, max_bytes);
            assert_eq!(
                cache.shard_budgets().iter().sum::<u64>(),
                max_bytes,
                "shards {shards} max_bytes {max_bytes}"
            );
            let (lo, hi) = (
                cache.shard_budgets().iter().min().expect("nonempty"),
                cache.shard_budgets().iter().max().expect("nonempty"),
            );
            assert!(hi - lo <= 1, "near-equal split: {lo}..{hi}");
        }
        // Zero budget still clamps to one real byte in total.
        assert_eq!(ShardedLru::new(3, 0).shard_budgets(), &[1, 0, 0]);
    }

    #[test]
    fn empty_graph_snapshot_is_cacheable() {
        let bytes = San::new().freeze().to_store_bytes();
        let path =
            std::env::temp_dir().join(format!("san-serve-cache-empty-{}.csr", std::process::id()));
        std::fs::write(&path, &bytes).expect("write");
        let cache = ShardedLru::new(2, u64::MAX);
        cache.insert(
            0,
            fresh(&Arc::new(MappedSnapshot::open(&path).expect("map"))),
        );
        assert_eq!(
            cache.get(0).expect("cached").snap.view().num_social_nodes(),
            0
        );
        let _ = std::fs::remove_file(path);
    }
}
