//! Single-flight deduplication of cold snapshot misses (the SAN-001
//! fix): per-day in-flight latches so that when many threads cold-miss
//! the same day, exactly **one** pays the mmap+validate cost and every
//! other blocks briefly and receives the first mapper's result.
//!
//! # Protocol
//!
//! A [`FlightTable`] holds one entry per day currently being mapped.
//! [`join(day)`](FlightTable::join) either
//!
//! * finds no entry → registers one and returns
//!   [`Flight::Leader`]: *this* caller must map the day and then
//!   [`publish`](FlightLeader::publish) the outcome. (A new leader
//!   should **re-check the cache before mapping**: a flight that
//!   completed between the caller's cache miss and its join has already
//!   inserted the day — leaders insert before they publish — so the
//!   double-check is what makes "one map per cold day" hold across
//!   back-to-back flights, not just overlapping ones. The server's
//!   fetch loop does exactly this.) Or it
//! * finds an entry → blocks on that entry's latch (a
//!   [`loom_lite::sync::Condvar`], so the model checker explores the
//!   production wait/notify code) and returns
//!   [`Flight::Waiter`] with the leader's published [`FlightOutcome`].
//!
//! Publishing removes the day's entry *before* waking waiters, so the
//! table only ever holds in-flight days and the latch always clears —
//! every later fetch starts fresh. The three outcomes:
//!
//! * [`FlightOutcome::Mapped`] — the leader mapped and cached the day;
//!   waiters share the cache entry's `Arc` directly (they never touch
//!   the cache, so an eviction racing the publish cannot strand them,
//!   and they share the leader's memo slot).
//! * [`FlightOutcome::Failed`] — mapping failed with a typed
//!   [`StoreError`]; every waiter receives it, and because the entry is
//!   gone the *next* fetch of that day retries from scratch (a corrupt
//!   file that gets repaired starts serving again; failures are never
//!   negatively cached).
//! * [`FlightOutcome::Aborted`] — the leader unwound (panicked) without
//!   publishing: [`FlightLeader`]'s `Drop` publishes this on its behalf,
//!   so a panicking mapper can neither strand waiters on the latch nor
//!   poison the day forever. Waiters respond by retrying the whole
//!   fetch; one of them becomes the new leader.
//!
//! The table lock and each latch lock are only ever taken sequentially,
//! never nested, so the module cannot introduce lock-order inversions
//! with the cache's shard locks. All primitives are
//! [`loom_lite::sync`] dual-mode: `model_tests` explores every 2–3
//! thread interleaving of *this exact code*, proving `maps == 1` on the
//! cold-miss race in every schedule (SAN-001's exit criterion — see
//! `audit/findings.md`).

use crate::cache::ResidentDay;
use loom_lite::sync::{Condvar, Mutex, MutexGuard};
use san_graph::store::StoreError;
use std::sync::Arc;

/// Locks recovering from poisoning: a latch or table whose holder
/// panicked is still structurally coherent (all updates happen in
/// consistent critical sections), and the abort protocol — not lock
/// poisoning — is what communicates leader failure.
fn lock_recovered<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// How one in-flight mapping ended, as delivered to its waiters.
#[derive(Debug, Clone)]
pub(crate) enum FlightOutcome {
    /// The leader mapped (and cached) the day; share its cache entry —
    /// the mapping and its memo slot.
    Mapped(Arc<ResidentDay>),
    /// The leader's map+validate failed; every waiter gets the typed
    /// error.
    Failed(Arc<StoreError>),
    /// The leader unwound without publishing (mapper panic). Retry the
    /// fetch; the latch is already clear.
    Aborted,
}

/// One day's latch: waiters block on `cv` until `outcome` is published.
#[derive(Default)]
struct FlightCell {
    outcome: Mutex<Option<FlightOutcome>>,
    cv: Condvar,
}

/// What [`FlightTable::join`] made of the caller.
pub(crate) enum Flight<'t> {
    /// First cold misser: map the day, then
    /// [`publish`](FlightLeader::publish).
    Leader(FlightLeader<'t>),
    /// A leader was already mapping this day; this is its published
    /// outcome (the caller waited for it).
    Waiter(FlightOutcome),
}

/// The per-day in-flight registry.
#[derive(Default)]
pub(crate) struct FlightTable {
    /// Days currently being mapped, each with its latch. Every entry is
    /// in-flight by construction: publish (and abort) remove the entry
    /// before waking waiters. Populations are "concurrent cold misses",
    /// i.e. a handful, so a scanned `Vec` beats a map.
    inflight: Mutex<Vec<(u32, Arc<FlightCell>)>>,
}

impl FlightTable {
    /// An empty registry.
    pub(crate) fn new() -> FlightTable {
        FlightTable::default()
    }

    /// Claims or joins the in-flight mapping of `day`: the first caller
    /// becomes the [`Flight::Leader`] (and **must** publish, on pain of
    /// its `Drop` broadcasting [`FlightOutcome::Aborted`]); later
    /// callers block until the leader publishes and get the outcome as
    /// [`Flight::Waiter`].
    pub(crate) fn join(&self, day: u32) -> Flight<'_> {
        let cell = {
            let mut table = lock_recovered(&self.inflight);
            match table.iter().find(|(d, _)| *d == day) {
                Some((_, cell)) => Arc::clone(cell),
                None => {
                    let cell = Arc::new(FlightCell::default());
                    table.push((day, Arc::clone(&cell)));
                    return Flight::Leader(FlightLeader {
                        table: self,
                        day,
                        cell,
                        published: false,
                    });
                }
            }
        };
        // Wait on the latch (table lock already released — the two are
        // never held together). The predicate loop tolerates spurious
        // wakeups; the cell keeps the outcome alive for every waiter
        // regardless of wake order, because each holds its own Arc.
        let mut outcome = lock_recovered(&cell.outcome);
        loop {
            if let Some(o) = outcome.as_ref() {
                return Flight::Waiter(o.clone());
            }
            outcome = cell
                .cv
                .wait(outcome)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Days currently in flight (diagnostics; racy by nature).
    #[cfg(test)]
    pub(crate) fn in_flight(&self) -> usize {
        lock_recovered(&self.inflight).len()
    }
}

impl std::fmt::Debug for FlightTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightTable")
            .field("in_flight", &lock_recovered(&self.inflight).len())
            .finish()
    }
}

/// The leadership claim on one day's cold miss. Exactly one exists per
/// in-flight day. Dropping it without [`publish`](FlightLeader::publish)
/// — which only unwinding does — broadcasts
/// [`FlightOutcome::Aborted`] so waiters are never stranded.
pub(crate) struct FlightLeader<'t> {
    table: &'t FlightTable,
    day: u32,
    cell: Arc<FlightCell>,
    published: bool,
}

impl FlightLeader<'_> {
    /// Publishes the mapping's outcome: clears the day's latch from the
    /// table (later fetches start fresh), then delivers the outcome and
    /// wakes every waiter.
    pub(crate) fn publish(mut self, outcome: FlightOutcome) {
        self.published = true;
        self.complete(outcome);
    }

    fn complete(&mut self, outcome: FlightOutcome) {
        {
            let mut table = lock_recovered(&self.table.inflight);
            // Identity-matched removal: only this leader's entry can be
            // present for `day` (entries are removed exclusively here,
            // and leadership is unique), but stay defensive.
            table.retain(|(d, c)| *d != self.day || !Arc::ptr_eq(c, &self.cell));
        }
        *lock_recovered(&self.cell.outcome) = Some(outcome);
        self.cell.cv.notify_all();
    }
}

impl Drop for FlightLeader<'_> {
    fn drop(&mut self) {
        if !self.published {
            // The mapper unwound: clear the latch and wake waiters with
            // Aborted so they retry instead of blocking forever.
            self.complete(FlightOutcome::Aborted);
        }
    }
}

impl std::fmt::Debug for FlightLeader<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightLeader")
            .field("day", &self.day)
            .field("published", &self.published)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use san_graph::mmap::MappedSnapshot;
    use san_graph::TimelineBuilder;
    use std::io::Write as _;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Barrier;

    fn mapped_sample(tag: &str) -> (Arc<ResidentDay>, PathBuf) {
        let mut tb = TimelineBuilder::new();
        let u0 = tb.add_social_node();
        let u1 = tb.add_social_node();
        tb.add_social_link(u0, u1);
        let bytes = tb.finish().1.freeze().to_store_bytes();
        let path =
            std::env::temp_dir().join(format!("san-serve-flight-{tag}-{}.csr", std::process::id()));
        let mut f = std::fs::File::create(&path).expect("temp file");
        f.write_all(&bytes).expect("write");
        let snap = Arc::new(MappedSnapshot::open(&path).expect("map"));
        (Arc::new(ResidentDay::new(snap)), path)
    }

    #[test]
    fn first_join_leads_later_joins_wait() {
        let (snap, path) = mapped_sample("lead");
        let table = FlightTable::new();
        let Flight::Leader(leader) = table.join(7) else {
            panic!("first join must lead");
        };
        assert_eq!(table.in_flight(), 1);
        std::thread::scope(|scope| {
            let waiters: Vec<_> = (0..3)
                .map(|_| {
                    let table = &table;
                    scope.spawn(move || match table.join(7) {
                        Flight::Leader(_) => panic!("day already in flight"),
                        Flight::Waiter(outcome) => outcome,
                    })
                })
                .collect();
            // Publish only after every waiter holds the cell (each join
            // clones its Arc before blocking), so none can race past the
            // cleared latch and become a second leader.
            while Arc::strong_count(&leader.cell) < 2 + 3 {
                std::thread::yield_now();
            }
            leader.publish(FlightOutcome::Mapped(Arc::clone(&snap)));
            for w in waiters {
                let FlightOutcome::Mapped(shared) = w.join().expect("waiter") else {
                    panic!("waiters get the mapped outcome");
                };
                assert!(Arc::ptr_eq(&shared, &snap), "one mapping shared by all");
            }
        });
        assert_eq!(table.in_flight(), 0, "latch cleared by publish");
        drop(snap);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn failure_reaches_waiters_and_clears_the_latch() {
        let table = FlightTable::new();
        let Flight::Leader(leader) = table.join(3) else {
            panic!("lead");
        };
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| match table.join(3) {
                Flight::Leader(_) => panic!("in flight"),
                Flight::Waiter(o) => o,
            });
            while Arc::strong_count(&leader.cell) < 2 + 1 {
                std::thread::yield_now();
            }
            leader.publish(FlightOutcome::Failed(Arc::new(StoreError::BadChecksum {
                expected: 1,
                found: 2,
            })));
            let FlightOutcome::Failed(err) = waiter.join().expect("waiter") else {
                panic!("waiters get the failure");
            };
            assert!(matches!(*err, StoreError::BadChecksum { .. }));
        });
        // The failure cleared the latch: the next fetch retries fresh.
        assert_eq!(table.in_flight(), 0);
        assert!(matches!(table.join(3), Flight::Leader(_)));
    }

    /// A leader that panics mid-map must wake its waiters with `Aborted`
    /// (via the guard's Drop during unwinding), never strand them.
    #[test]
    fn panicking_leader_aborts_instead_of_stranding_waiters() {
        let table = FlightTable::new();
        let entered = Barrier::new(2);
        let aborted_seen = AtomicU64::new(0);
        std::thread::scope(|scope| {
            let mapper = scope.spawn(|| {
                let Flight::Leader(_leader) = table.join(9) else {
                    panic!("lead");
                };
                entered.wait();
                // Simulated mapper panic; _leader's Drop runs while
                // unwinding and publishes Aborted.
                panic!("mapper exploded");
            });
            let waiter = scope.spawn(|| {
                entered.wait();
                loop {
                    match table.join(9) {
                        Flight::Leader(leader) => {
                            // Took over after the abort: complete the day.
                            let (snap, path) = mapped_sample("abort");
                            leader.publish(FlightOutcome::Mapped(Arc::clone(&snap)));
                            drop(snap);
                            let _ = std::fs::remove_file(path);
                            return;
                        }
                        Flight::Waiter(FlightOutcome::Aborted) => {
                            aborted_seen.fetch_add(1, Ordering::Relaxed);
                            continue; // retry, as the server's fetch does
                        }
                        Flight::Waiter(_) => panic!("nobody published a result"),
                    }
                }
            });
            assert!(mapper.join().is_err(), "mapper panicked by design");
            waiter.join().expect("waiter must not be stranded");
        });
        assert_eq!(table.in_flight(), 0, "abort cleared the latch");
    }

    #[test]
    fn distinct_days_fly_independently() {
        let table = FlightTable::new();
        let Flight::Leader(a) = table.join(1) else {
            panic!("lead 1");
        };
        let Flight::Leader(b) = table.join(2) else {
            panic!("lead 2: distinct days never share a latch");
        };
        assert_eq!(table.in_flight(), 2);
        a.publish(FlightOutcome::Aborted);
        assert_eq!(table.in_flight(), 1);
        b.publish(FlightOutcome::Aborted);
        assert_eq!(table.in_flight(), 0);
    }
}
