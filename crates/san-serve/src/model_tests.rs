//! `loom-lite` model checks of the serving layer's concurrency: every
//! interleaving of 2–3 threads racing the **production**
//! [`ShardedLru`](crate::cache::ShardedLru) and
//! [`FlightTable`](crate::flight::FlightTable) code (shard locks, latch
//! locks and latch condvars are all dual-mode `loom_lite::sync`
//! primitives, so the model explores the same compiled paths the server
//! runs).
//!
//! Each scenario asserts, in **every** explored schedule:
//!
//! * byte accounting — shard byte counters equal the sum of resident
//!   entries' mapped bytes, and the budget bound holds (modulo the
//!   documented single-oversized-entry case);
//! * no duplicate days — racing inserts of one day keep the incumbent,
//!   and the loser is counted as a duplicate;
//! * single-flight — threads cold-missing one day map it **exactly
//!   once** ([`cold_miss_maps_exactly_once`]; this flips the former
//!   `double_map_race_is_reachable` reproduction of finding SAN-001,
//!   now closed in `audit/findings.md`), failures broadcast to every
//!   waiter and clear the latch
//!   ([`failed_map_wakes_waiters_and_clears_latch`]), an aborting
//!   leader never strands waiters
//!   ([`aborted_leader_unblocks_waiters`]), and eviction racing a
//!   publish keeps accounting exact
//!   ([`eviction_racing_publish_keeps_accounting_exact`]);
//! * one memo per resident day — two threads fetching one cold day share
//!   one cache entry and fill its memo slot exactly once
//!   ([`memo_fills_once_per_resident_day`]), and a fill racing eviction
//!   completes on its handle while the re-mapped day's slot starts empty
//!   ([`memo_fill_racing_eviction_completes_and_remap_starts_empty`]);
//! * delta days opened onto a resident base — a cold delta day's leader
//!   only peeks its base in the cache and never joins the base's flight,
//!   so racing a cold fetch of that base opens each day exactly once and
//!   never deadlocks ([`delta_open_peeks_base_without_joining_its_flight`]),
//!   and a failing base reaches the delta day's waiters and clears both
//!   latches ([`failed_base_fails_the_delta_flight_too`]).

// Redundant with the gated `mod` declaration in lib.rs, but makes this
// file self-describing as test-only code (san-audit classifies files
// with a test-gating inner attribute as test code).
#![cfg(test)]

use crate::cache::{ResidentDay, ShardedLru};
use crate::flight::{Flight, FlightOutcome, FlightTable};
use san_graph::mmap::MappedSnapshot;
use san_graph::store::StoreError;
use san_graph::{SanRead, TimelineBuilder};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One mapped snapshot fixture, created outside the model and shared
/// (read-only) across every iteration.
fn mapped_fixture(tag: &str) -> (Arc<MappedSnapshot>, PathBuf) {
    let mut tb = TimelineBuilder::new();
    let u0 = tb.add_social_node();
    let u1 = tb.add_social_node();
    tb.add_social_link(u0, u1);
    let bytes = tb.finish().1.freeze().to_store_bytes();
    let path =
        std::env::temp_dir().join(format!("san-serve-model-{tag}-{}.csr", std::process::id()));
    let mut f = std::fs::File::create(&path).expect("temp file");
    f.write_all(&bytes).expect("write");
    (Arc::new(MappedSnapshot::open(&path).expect("map")), path)
}

/// A fresh cache entry (empty memo slot) over the shared fixture
/// mapping — the stand-in for one mmap+validate.
fn fresh(snap: &Arc<MappedSnapshot>) -> Arc<ResidentDay> {
    Arc::new(ResidentDay::new(Arc::clone(snap)))
}

/// The server's single-flighted fetch shape, run against the production
/// cache + flight table inside the model: cache check → join → leader
/// maps/inserts/publishes (serving the incumbent if its insert lost),
/// waiter consumes the outcome, abort retries. Counts each map (the
/// mmap+validate cost stand-in) into `maps` and returns the cache entry
/// the caller was handed.
fn model_fetch(
    table: &FlightTable,
    cache: &ShardedLru,
    day: u32,
    snap: &Arc<MappedSnapshot>,
    maps: &AtomicU64,
) -> (FetchPath, Arc<ResidentDay>) {
    loop {
        if let Some(resident) = cache.get(day) {
            return (FetchPath::Hit, resident);
        }
        match table.join(day) {
            Flight::Leader(leader) => {
                // The server's double-check: a flight that completed
                // between the cache miss and this join already inserted
                // the day — publish the cached copy instead of remapping.
                if let Some(cached) = cache.get(day) {
                    leader.publish(FlightOutcome::Mapped(Arc::clone(&cached)));
                    return (FetchPath::Hit, cached);
                }
                maps.fetch_add(1, Ordering::SeqCst);
                let mapped = fresh(snap);
                let resident = cache
                    .insert(day, Arc::clone(&mapped))
                    .incumbent
                    .unwrap_or(mapped);
                leader.publish(FlightOutcome::Mapped(Arc::clone(&resident)));
                return (FetchPath::Led, resident);
            }
            Flight::Waiter(FlightOutcome::Mapped(resident)) => {
                return (FetchPath::Waited, resident)
            }
            Flight::Waiter(FlightOutcome::Failed(_)) => panic!("nobody published a failure"),
            Flight::Waiter(FlightOutcome::Aborted) => continue,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum FetchPath {
    Hit,
    Led,
    Waited,
}

/// SAN-001, closed: two threads cold-missing the same day map it
/// **exactly once in every schedule** — the loser either waits on the
/// leader's latch or hits the already-populated cache, never maps. This
/// flips the former `double_map_race_is_reachable` reproduction (which
/// asserted `maps == 2` was reachable pre-fix) into the fix's exit
/// criterion.
#[test]
fn cold_miss_maps_exactly_once() {
    let (snap, path) = mapped_fixture("single-flight");
    // Cross-iteration observations (std atomics: invisible to the model).
    let waited_schedules = Arc::new(AtomicU64::new(0));
    let hit_schedules = Arc::new(AtomicU64::new(0));
    let (snap2, waited2, hit2) = (
        Arc::clone(&snap),
        Arc::clone(&waited_schedules),
        Arc::clone(&hit_schedules),
    );
    let report = loom_lite::model(move || {
        let cache = Arc::new(ShardedLru::new(2, u64::MAX));
        let table = Arc::new(FlightTable::new());
        let maps = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let table = Arc::clone(&table);
                let snap = Arc::clone(&snap2);
                let maps = Arc::clone(&maps);
                loom_lite::thread::spawn(move || model_fetch(&table, &cache, 7, &snap, &maps).0)
            })
            .collect();
        let paths: Vec<FetchPath> = handles
            .into_iter()
            .map(|h| h.join().expect("model thread"))
            .collect();
        // The SAN-001 exit criterion: one map, in EVERY schedule.
        assert_eq!(maps.load(Ordering::SeqCst), 1, "exactly one map per herd");
        assert_eq!(
            paths.iter().filter(|p| **p == FetchPath::Led).count(),
            1,
            "exactly one leader"
        );
        // Convergence: one cached copy, exact accounting, latch cleared.
        assert_eq!(cache.len(), 1);
        cache.assert_accounting();
        assert_eq!(table.in_flight(), 0);
        if paths.contains(&FetchPath::Waited) {
            waited2.fetch_add(1, Ordering::SeqCst);
        }
        if paths.contains(&FetchPath::Hit) {
            hit2.fetch_add(1, Ordering::SeqCst);
        }
    });
    assert!(report.iterations > 1, "explored {}", report.iterations);
    // Exploration sanity: both contended shapes were exercised — some
    // schedule parked the loser on the latch, some schedule let it hit
    // the cache the leader had already populated.
    assert!(
        waited_schedules.load(Ordering::SeqCst) > 0,
        "no schedule made the loser wait on the latch"
    );
    assert!(
        hit_schedules.load(Ordering::SeqCst) > 0,
        "no schedule let the loser hit the populated cache"
    );
    drop(snap);
    let _ = std::fs::remove_file(path);
}

/// A leader whose map fails broadcasts the typed error to every waiter
/// and clears the latch, in every schedule: a thread that joined while
/// the flight was up gets [`FlightOutcome::Failed`]; one that arrived
/// after the clear leads a fresh flight itself (no negative caching).
#[test]
fn failed_map_wakes_waiters_and_clears_latch() {
    let waited_schedules = Arc::new(AtomicU64::new(0));
    let waited2 = Arc::clone(&waited_schedules);
    let report = loom_lite::model(move || {
        let table = Arc::new(FlightTable::new());
        let t_lead = {
            let table = Arc::clone(&table);
            loom_lite::thread::spawn(move || loop {
                match table.join(3) {
                    Flight::Leader(leader) => {
                        leader.publish(FlightOutcome::Failed(Arc::new(StoreError::BadChecksum {
                            expected: 1,
                            found: 2,
                        })));
                        return;
                    }
                    // The sibling won the race to lead and aborted; retry
                    // until this thread gets to publish its failure.
                    Flight::Waiter(FlightOutcome::Aborted) => continue,
                    Flight::Waiter(_) => panic!("the sibling only publishes aborts"),
                }
            })
        };
        let t_wait = {
            let table = Arc::clone(&table);
            loom_lite::thread::spawn(move || match table.join(3) {
                // Joined before the failing flight existed, or after its
                // failure cleared the latch: this thread would retry the
                // map itself — errors are never cached.
                Flight::Leader(leader) => {
                    leader.publish(FlightOutcome::Aborted);
                    false
                }
                Flight::Waiter(FlightOutcome::Failed(err)) => {
                    assert!(matches!(*err, StoreError::BadChecksum { .. }));
                    true
                }
                Flight::Waiter(_) => panic!("only a failure was published"),
            })
        };
        t_lead.join().expect("leader thread");
        let waited = t_wait.join().expect("waiter thread");
        assert_eq!(table.in_flight(), 0, "failure cleared the latch");
        if waited {
            waited2.fetch_add(1, Ordering::SeqCst);
        }
    });
    assert!(report.iterations > 1, "explored {}", report.iterations);
    assert!(
        waited_schedules.load(Ordering::SeqCst) > 0,
        "no schedule delivered the failure through the latch"
    );
}

/// A leader that unwinds without publishing (mapper panic — modelled as
/// an explicit drop, since the model propagates panics) broadcasts
/// `Aborted` from its drop guard: waiters retry, one claims the vacated
/// latch, and the day completes. No schedule strands a waiter or leaks
/// a latch.
#[test]
fn aborted_leader_unblocks_waiters() {
    let (snap, path) = mapped_fixture("abort");
    let retried_schedules = Arc::new(AtomicU64::new(0));
    let (snap2, retried2) = (Arc::clone(&snap), Arc::clone(&retried_schedules));
    let report = loom_lite::model(move || {
        let table = Arc::new(FlightTable::new());
        let t_abort = {
            let table = Arc::clone(&table);
            loom_lite::thread::spawn(move || match table.join(9) {
                // The mapper "panics": drop without publish; the guard
                // broadcasts Aborted.
                Flight::Leader(leader) => drop(leader),
                // The recoverer won the race to lead and already
                // completed the day; nothing left to abort.
                Flight::Waiter(FlightOutcome::Mapped(_)) => {}
                Flight::Waiter(_) => panic!("the sibling only publishes mappings"),
            })
        };
        let t_recover = {
            let table = Arc::clone(&table);
            let snap = Arc::clone(&snap2);
            loom_lite::thread::spawn(move || {
                let mut retried = false;
                loop {
                    match table.join(9) {
                        Flight::Leader(leader) => {
                            leader.publish(FlightOutcome::Mapped(fresh(&snap)));
                            return retried;
                        }
                        Flight::Waiter(FlightOutcome::Aborted) => {
                            retried = true; // as the server's fetch loop does
                        }
                        Flight::Waiter(_) => panic!("nobody published a result"),
                    }
                }
            })
        };
        t_abort.join().expect("aborting leader thread");
        let retried = t_recover.join().expect("recovering thread");
        assert_eq!(table.in_flight(), 0, "abort cleared the latch");
        if retried {
            retried2.fetch_add(1, Ordering::SeqCst);
        }
    });
    assert!(report.iterations > 1, "explored {}", report.iterations);
    assert!(
        retried_schedules.load(Ordering::SeqCst) > 0,
        "no schedule parked the recoverer behind the aborting leader"
    );
    drop(snap);
    let _ = std::fs::remove_file(path);
}

/// Eviction racing a publish: one thread runs the full single-flighted
/// fetch of day 0 while another inserts day 2 into the same shard with
/// budget for only one snapshot — in some schedules day 0 is evicted
/// between the leader's insert and its publish. Byte accounting stays
/// exact and the budget holds in every schedule; the fetch still
/// returns a usable mapping because waiters share the leader's `Arc`,
/// never the cache's.
#[test]
fn eviction_racing_publish_keeps_accounting_exact() {
    let (snap, path) = mapped_fixture("evict-publish");
    let one = snap.mapped_bytes() as u64;
    let snap2 = Arc::clone(&snap);
    let report = loom_lite::model(move || {
        let cache = Arc::new(ShardedLru::new(1, one));
        let table = Arc::new(FlightTable::new());
        let maps = Arc::new(AtomicU64::new(0));
        let t_fetch = {
            let (cache, table, snap) = (Arc::clone(&cache), Arc::clone(&table), Arc::clone(&snap2));
            let maps = Arc::clone(&maps);
            loom_lite::thread::spawn(move || model_fetch(&table, &cache, 0, &snap, &maps))
        };
        let t_evict = {
            let (cache, snap) = (Arc::clone(&cache), Arc::clone(&snap2));
            loom_lite::thread::spawn(move || {
                cache.insert(2, fresh(&snap));
            })
        };
        t_fetch.join().expect("fetch thread");
        t_evict.join().expect("evictor thread");
        assert_eq!(maps.load(Ordering::SeqCst), 1, "single flight held");
        cache.assert_accounting();
        assert_eq!(cache.len(), 1, "budget holds one snapshot");
        assert_eq!(cache.resident_bytes(), one);
        assert_eq!(table.in_flight(), 0);
    });
    assert!(report.iterations > 1, "explored {}", report.iterations);
    drop(snap);
    let _ = std::fs::remove_file(path);
}

/// Three threads, one shard, budget for two snapshots: inserts of three
/// distinct days race, forcing eviction in some schedules. Byte
/// accounting, the budget bound and no-duplicate-days must hold in every
/// interleaving; the survivor set depends on the schedule but its size
/// never exceeds the budget.
#[test]
fn eviction_races_keep_byte_accounting_exact() {
    let (snap, path) = mapped_fixture("evict");
    let one = snap.mapped_bytes() as u64;
    let snap2 = Arc::clone(&snap);
    let report = loom_lite::model(move || {
        let cache = Arc::new(ShardedLru::new(1, 2 * one));
        let handles: Vec<_> = [0u32, 1, 2]
            .into_iter()
            .map(|day| {
                let cache = Arc::clone(&cache);
                let snap = Arc::clone(&snap2);
                loom_lite::thread::spawn(move || {
                    let outcome = cache.insert(day, fresh(&snap));
                    // An insert can evict at most the number of already-
                    // resident days.
                    assert!(outcome.evicted <= 2, "evicted {}", outcome.evicted);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("model thread");
        }
        cache.assert_accounting();
        assert_eq!(cache.len(), 2, "budget holds two snapshots");
        assert_eq!(cache.resident_bytes(), 2 * one);
    });
    assert!(report.iterations > 1, "explored {}", report.iterations);
    drop(snap);
    let _ = std::fs::remove_file(path);
}

/// Mixed get/insert/evict with 3 threads across 2 shards: a reader
/// races an inserter of the same day and an inserter of a day that
/// hashes to the same shard. Whatever the schedule, the reader sees
/// either a miss or the incumbent mapping (never a torn entry), and the
/// accounting invariants hold.
#[test]
fn get_insert_evict_mix_is_linearizable() {
    let (snap, path) = mapped_fixture("mix");
    let one = snap.mapped_bytes() as u64;
    let snap2 = Arc::clone(&snap);
    let report = loom_lite::model(move || {
        let cache = Arc::new(ShardedLru::new(2, 2 * one));
        let c1 = Arc::clone(&cache);
        let s1 = Arc::clone(&snap2);
        // Day 0 and day 2 share shard 0 (2 shards, day % shards).
        let t1 = loom_lite::thread::spawn(move || {
            c1.insert(0, fresh(&s1));
        });
        let c2 = Arc::clone(&cache);
        let s2 = Arc::clone(&snap2);
        let t2 = loom_lite::thread::spawn(move || {
            c2.insert(2, fresh(&s2));
        });
        let c3 = Arc::clone(&cache);
        let t3 = loom_lite::thread::spawn(move || {
            if let Some(hit) = c3.get(0) {
                // A hit must be the incumbent fixture mapping, readable.
                assert_eq!(hit.snap.view().num_social_nodes(), 2);
            }
        });
        for t in [t1, t2, t3] {
            t.join().expect("model thread");
        }
        cache.assert_accounting();
        // Shard 0 holds days {0, 2} — per-shard budget is one snapshot
        // (2×one split over 2 shards), so exactly one survives.
        assert_eq!(cache.len(), 1);
    });
    assert!(report.iterations > 1, "explored {}", report.iterations);
    drop(snap);
    let _ = std::fs::remove_file(path);
}

/// Racing inserts of the *same* day from three threads: the incumbent
/// always wins, the day is cached exactly once, bytes are counted
/// exactly once, and both losers are reported as duplicates — in every
/// schedule. (The server holds `duplicate_inserts` at zero by routing
/// cold misses through single-flight; this checks the cache-level
/// counter those metrics are built on.)
#[test]
fn racing_same_day_inserts_keep_one_copy() {
    let (snap, path) = mapped_fixture("same-day");
    let one = snap.mapped_bytes() as u64;
    let snap2 = Arc::clone(&snap);
    let report = loom_lite::model(move || {
        let cache = Arc::new(ShardedLru::new(1, u64::MAX));
        let duplicates = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let snap = Arc::clone(&snap2);
                let duplicates = Arc::clone(&duplicates);
                loom_lite::thread::spawn(move || {
                    if cache.insert(5, fresh(&snap)).incumbent.is_some() {
                        duplicates.fetch_add(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("model thread");
        }
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.resident_bytes(), one);
        cache.assert_accounting();
        assert!(cache.get(5).is_some());
        // One incumbent, two dropped mappings — each loss is visible to
        // the metrics layer, never silent.
        assert_eq!(duplicates.load(Ordering::SeqCst), 2);
    });
    assert!(report.iterations > 1, "explored {}", report.iterations);
    drop(snap);
    let _ = std::fs::remove_file(path);
}

/// Two threads fetch the same resident day and each asks its handle for
/// the day's memoised aggregate, with a fill that returns a
/// thread-specific value. In every schedule both handles share one cache
/// entry, the fill runs **exactly once**, and both threads read the
/// value that one fill stored. (Leader and waiter handles share the
/// entry by construction: the flight publishes the cache entry's `Arc`.)
#[test]
fn memo_fills_once_per_resident_day() {
    let (snap, path) = mapped_fixture("memo-once");
    // Which thread's fill won, across schedules (std atomics: invisible
    // to the model).
    let won = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
    let (snap2, won2) = (Arc::clone(&snap), Arc::clone(&won));
    let report = loom_lite::model(move || {
        let cache = Arc::new(ShardedLru::new(2, u64::MAX));
        let table = Arc::new(FlightTable::new());
        let maps = Arc::new(AtomicU64::new(0));
        let fills = Arc::new(AtomicU64::new(0));
        let (_, mapped) = model_fetch(&table, &cache, 7, &snap2, &maps);
        assert_eq!(
            mapped.reciprocity.peek(),
            None,
            "a fresh mapping starts empty"
        );
        let handles: Vec<_> = (0..2u32)
            .map(|i| {
                let (cache, table) = (Arc::clone(&cache), Arc::clone(&table));
                let (snap, maps, fills) =
                    (Arc::clone(&snap2), Arc::clone(&maps), Arc::clone(&fills));
                loom_lite::thread::spawn(move || {
                    let (_, resident) = model_fetch(&table, &cache, 7, &snap, &maps);
                    let value = resident.reciprocity.get_or_fill(|| {
                        fills.fetch_add(1, Ordering::SeqCst);
                        f64::from(i) + 0.5
                    });
                    (resident, value)
                })
            })
            .collect();
        let seen: Vec<(Arc<ResidentDay>, f64)> = handles
            .into_iter()
            .map(|h| h.join().expect("model thread"))
            .collect();
        assert_eq!(maps.load(Ordering::SeqCst), 1, "the day stayed resident");
        assert_eq!(fills.load(Ordering::SeqCst), 1, "one fill per resident day");
        assert!(
            Arc::ptr_eq(&seen[0].0, &seen[1].0),
            "both handles share one cache entry"
        );
        assert_eq!(
            seen[0].1.to_bits(),
            seen[1].1.to_bits(),
            "both threads read the one stored value"
        );
        let cached = cache.get(7).expect("day stays resident");
        assert_eq!(cached.reciprocity.peek(), Some(seen[0].1));
        cache.assert_accounting();
        let winner = if seen[0].1 == 0.5 { 0 } else { 1 };
        won2[winner].fetch_add(1, Ordering::SeqCst);
    });
    assert!(report.iterations > 1, "explored {}", report.iterations);
    // Exploration sanity: each thread got to run the fill in some
    // schedule, so "exactly once" was checked from both sides.
    assert!(
        won.iter().all(|w| w.load(Ordering::SeqCst) > 0),
        "one thread always filled"
    );
    drop(snap);
    let _ = std::fs::remove_file(path);
}

/// A memo fill races eviction of its day. One thread fills the slot of a
/// handle it already holds; another inserts a second day into the same
/// one-snapshot shard (evicting the first) and then fetches the first
/// day again. In every schedule the fill completes on its handle, byte
/// accounting stays exact, and the re-mapped day is a new cache entry
/// whose slot starts empty — a memo never outlives its mapping.
#[test]
fn memo_fill_racing_eviction_completes_and_remap_starts_empty() {
    let (snap, path) = mapped_fixture("memo-evict");
    let one = snap.mapped_bytes() as u64;
    let snap2 = Arc::clone(&snap);
    let report = loom_lite::model(move || {
        let cache = Arc::new(ShardedLru::new(1, one));
        let table = Arc::new(FlightTable::new());
        let maps = Arc::new(AtomicU64::new(0));
        let (_, held) = model_fetch(&table, &cache, 0, &snap2, &maps);
        let t_fill = {
            let held = Arc::clone(&held);
            loom_lite::thread::spawn(move || held.reciprocity.get_or_fill(|| 0.75))
        };
        let t_evict = {
            let (cache, table) = (Arc::clone(&cache), Arc::clone(&table));
            let (snap, maps) = (Arc::clone(&snap2), Arc::clone(&maps));
            loom_lite::thread::spawn(move || {
                assert_eq!(cache.insert(2, fresh(&snap)).evicted, 1, "day 0 evicted");
                let (path, remapped) = model_fetch(&table, &cache, 0, &snap, &maps);
                assert_eq!(path, FetchPath::Led, "an evicted day is mapped again");
                assert_eq!(
                    remapped.reciprocity.peek(),
                    None,
                    "re-mapped slot starts empty"
                );
                remapped
            })
        };
        assert_eq!(t_fill.join().expect("fill thread"), 0.75);
        let remapped = t_evict.join().expect("evictor thread");
        assert_eq!(
            held.reciprocity.peek(),
            Some(0.75),
            "fill landed on its handle"
        );
        assert!(
            !Arc::ptr_eq(&held, &remapped),
            "re-map is a new cache entry"
        );
        assert_eq!(maps.load(Ordering::SeqCst), 2);
        cache.assert_accounting();
        assert_eq!(cache.len(), 1, "budget holds one snapshot");
        assert!(Arc::ptr_eq(
            &cache.get(0).expect("re-mapped day resident"),
            &remapped
        ));
    });
    assert!(report.iterations > 1, "explored {}", report.iterations);
    drop(snap);
    let _ = std::fs::remove_file(path);
}

/// The delta day of the delta-open models and its base.
const DELTA_DAY: u32 = 7;
const BASE_DAY: u32 = 3;

/// Opens counted by the delta-open models: the base day's own flight,
/// the delta applied onto a resident base, and the delta replayed
/// standalone from the base file.
#[derive(Default)]
struct DeltaOpens {
    base: AtomicU64,
    onto_resident: AtomicU64,
    replayed: AtomicU64,
}

/// The typed failure of a corrupt base file.
fn base_error() -> Arc<StoreError> {
    Arc::new(StoreError::BadChecksum {
        expected: 1,
        found: 2,
    })
}

/// How a delta-open model fetch ended: the cache entry or the broadcast
/// error, plus whether the caller received it through another thread's
/// flight of the delta day.
type DeltaFetch = (Result<Arc<ResidentDay>, Arc<StoreError>>, bool);

/// The server's fetch of [`DELTA_DAY`] with its cold open
/// (`SnapshotServer::open_cold`): the leader peeks the cache for
/// [`BASE_DAY`] and opens the delta onto it when resident, else replays
/// the chain standalone, reading the base file itself. It never joins
/// the base's flight. When `base_fails`, reading the base file fails.
fn model_fetch_delta(
    table: &FlightTable,
    cache: &ShardedLru,
    snap: &Arc<MappedSnapshot>,
    opens: &DeltaOpens,
    base_fails: bool,
) -> DeltaFetch {
    loop {
        if let Some(resident) = cache.get(DELTA_DAY) {
            return (Ok(resident), false);
        }
        match table.join(DELTA_DAY) {
            Flight::Leader(leader) => {
                if let Some(cached) = cache.get(DELTA_DAY) {
                    leader.publish(FlightOutcome::Mapped(Arc::clone(&cached)));
                    return (Ok(cached), false);
                }
                let counter = if cache.get(BASE_DAY).is_some() {
                    &opens.onto_resident
                } else if base_fails {
                    let error = base_error();
                    leader.publish(FlightOutcome::Failed(Arc::clone(&error)));
                    return (Err(error), false);
                } else {
                    &opens.replayed
                };
                counter.fetch_add(1, Ordering::SeqCst);
                let mapped = fresh(snap);
                let resident = cache
                    .insert(DELTA_DAY, Arc::clone(&mapped))
                    .incumbent
                    .unwrap_or(mapped);
                leader.publish(FlightOutcome::Mapped(Arc::clone(&resident)));
                return (Ok(resident), false);
            }
            Flight::Waiter(FlightOutcome::Mapped(resident)) => return (Ok(resident), true),
            Flight::Waiter(FlightOutcome::Failed(error)) => return (Err(error), true),
            Flight::Waiter(FlightOutcome::Aborted) => continue,
        }
    }
}

/// A cold fetch of [`BASE_DAY`] by its only fetcher, which therefore
/// leads the flight: open (or fail), insert, publish. The cache checks
/// of the full fetch shape are left out (the base starts cold and
/// nothing else inserts it) to keep the models exhaustive.
fn model_open_base(
    table: &FlightTable,
    cache: &ShardedLru,
    snap: &Arc<MappedSnapshot>,
    opens: &DeltaOpens,
    fails: bool,
) -> Result<(), Arc<StoreError>> {
    let Flight::Leader(leader) = table.join(BASE_DAY) else {
        panic!("the base has one fetcher");
    };
    if fails {
        let error = base_error();
        leader.publish(FlightOutcome::Failed(Arc::clone(&error)));
        return Err(error);
    }
    opens.base.fetch_add(1, Ordering::SeqCst);
    let mapped = fresh(snap);
    let outcome = cache.insert(BASE_DAY, Arc::clone(&mapped));
    assert!(outcome.incumbent.is_none(), "the base is inserted once");
    leader.publish(FlightOutcome::Mapped(mapped));
    Ok(())
}

/// Spawns a model thread running [`model_fetch_delta`].
fn spawn_delta_fetch(
    snap: &Arc<MappedSnapshot>,
    cache: &Arc<ShardedLru>,
    table: &Arc<FlightTable>,
    opens: &Arc<DeltaOpens>,
    base_fails: bool,
) -> loom_lite::thread::JoinHandle<DeltaFetch> {
    let (cache, table) = (Arc::clone(cache), Arc::clone(table));
    let (snap, opens) = (Arc::clone(snap), Arc::clone(opens));
    loom_lite::thread::spawn(move || model_fetch_delta(&table, &cache, &snap, &opens, base_fails))
}

/// Spawns a model thread running [`model_open_base`].
fn spawn_base_open(
    snap: &Arc<MappedSnapshot>,
    cache: &Arc<ShardedLru>,
    table: &Arc<FlightTable>,
    opens: &Arc<DeltaOpens>,
    fails: bool,
) -> loom_lite::thread::JoinHandle<Result<(), Arc<StoreError>>> {
    let (cache, table) = (Arc::clone(cache), Arc::clone(table));
    let (snap, opens) = (Arc::clone(snap), Arc::clone(opens));
    loom_lite::thread::spawn(move || model_open_base(&table, &cache, &snap, &opens, fails))
}

/// Asserts the aftermath of a failed base: every fetch got the typed
/// error, nothing was opened or cached, and every latch cleared.
fn assert_base_failure_everywhere<'a>(
    errors: impl IntoIterator<Item = Option<&'a Arc<StoreError>>>,
    cache: &ShardedLru,
    table: &FlightTable,
    opens: &DeltaOpens,
) {
    for error in errors {
        let error = error.expect("a failed base fails everyone");
        assert!(matches!(**error, StoreError::BadChecksum { .. }));
    }
    let opened = opens.base.load(Ordering::SeqCst)
        + opens.onto_resident.load(Ordering::SeqCst)
        + opens.replayed.load(Ordering::SeqCst);
    assert_eq!(opened, 0, "nothing opened");
    assert_eq!(cache.len(), 0, "failures are never cached");
    cache.assert_accounting();
    assert_eq!(table.in_flight(), 0, "every latch cleared");
}

/// Thread A cold-fetches the delta day while thread B cold-fetches its
/// base. In every schedule both fetches complete (no deadlock: A's
/// leader peeks the base and never waits on B's flight), each day is
/// opened exactly once — the delta onto the resident base or by chain
/// replay, depending on whether B's insert came first — both latches
/// clear, and the byte accounting is exact.
#[test]
fn delta_open_peeks_base_without_joining_its_flight() {
    let (snap, path) = mapped_fixture("delta-peek");
    let one = snap.mapped_bytes() as u64;
    let seen = Arc::new(DeltaOpens::default());
    let (snap2, seen2) = (Arc::clone(&snap), Arc::clone(&seen));
    let report = loom_lite::model(move || {
        let cache = Arc::new(ShardedLru::new(2, u64::MAX));
        let table = Arc::new(FlightTable::new());
        let opens = Arc::new(DeltaOpens::default());
        let delta = spawn_delta_fetch(&snap2, &cache, &table, &opens, false);
        let base = spawn_base_open(&snap2, &cache, &table, &opens, false);
        let (delta, base) = (delta.join().expect("delta"), base.join().expect("base"));
        assert!(delta.0.is_ok() && base.is_ok(), "both fetches serve");
        let (onto, replayed) = (
            opens.onto_resident.load(Ordering::SeqCst),
            opens.replayed.load(Ordering::SeqCst),
        );
        assert_eq!(opens.base.load(Ordering::SeqCst), 1, "base opened once");
        assert_eq!(onto + replayed, 1, "delta opened once");
        assert_eq!(cache.len(), 2, "base and delta both resident");
        assert_eq!(cache.resident_bytes(), 2 * one);
        cache.assert_accounting();
        assert_eq!(table.in_flight(), 0, "both latches cleared");
        seen2.onto_resident.fetch_add(onto, Ordering::SeqCst);
        seen2.replayed.fetch_add(replayed, Ordering::SeqCst);
    });
    assert!(report.iterations > 1, "explored {}", report.iterations);
    assert!(
        seen.onto_resident.load(Ordering::SeqCst) > 0 && seen.replayed.load(Ordering::SeqCst) > 0,
        "both delta open paths are reachable"
    );
    drop(snap);
    let _ = std::fs::remove_file(path);
}

/// A base that fails to open. The base is never resident, so a delta
/// leader replays the chain and meets the same failure. Two models, each
/// over every schedule (one model of all three threads is past an
/// exhaustive search): thread A cold-fetches the delta day while thread
/// B's base open fails; and, once the base has failed, threads A and C
/// cold-fetch the delta day together. Every fetch gets the typed error
/// (in some schedule C through A's latch), nothing is opened or cached,
/// and both latches clear, so the next fetch retries from scratch.
#[test]
fn failed_base_fails_the_delta_flight_too() {
    let (snap, path) = mapped_fixture("delta-fail");
    let snap2 = Arc::clone(&snap);
    let report = loom_lite::model(move || {
        let cache = Arc::new(ShardedLru::new(2, u64::MAX));
        let table = Arc::new(FlightTable::new());
        let opens = Arc::new(DeltaOpens::default());
        let delta = spawn_delta_fetch(&snap2, &cache, &table, &opens, true);
        let base = spawn_base_open(&snap2, &cache, &table, &opens, true);
        let (delta, base) = (delta.join().expect("delta"), base.join().expect("base"));
        let errors = [delta.0.as_ref().err(), base.as_ref().err()];
        assert_base_failure_everywhere(errors, &cache, &table, &opens);
    });
    assert!(report.iterations > 1, "explored {}", report.iterations);

    let delta_waits = Arc::new(AtomicU64::new(0));
    let (snap2, waits2) = (Arc::clone(&snap), Arc::clone(&delta_waits));
    let report = loom_lite::model(move || {
        let cache = Arc::new(ShardedLru::new(2, u64::MAX));
        let table = Arc::new(FlightTable::new());
        let opens = Arc::new(DeltaOpens::default());
        let base = model_open_base(&table, &cache, &snap2, &opens, true);
        let herd: Vec<_> = (0..2)
            .map(|_| spawn_delta_fetch(&snap2, &cache, &table, &opens, true))
            .collect();
        let deltas: Vec<DeltaFetch> = herd.into_iter().map(|h| h.join().expect("delta")).collect();
        let errors = deltas.iter().map(|(r, _)| r.as_ref().err());
        assert_base_failure_everywhere(errors.chain([base.as_ref().err()]), &cache, &table, &opens);
        if deltas.iter().any(|(_, waited)| *waited) {
            waits2.fetch_add(1, Ordering::SeqCst);
        }
    });
    assert!(report.iterations > 1, "explored {}", report.iterations);
    assert!(
        delta_waits.load(Ordering::SeqCst) > 0,
        "no schedule delivered the failure through the delta latch"
    );
    drop(snap);
    let _ = std::fs::remove_file(path);
}
