//! [`SnapshotServer`]: vault-backed, cache-fronted snapshot serving.

use crate::cache::{ResidentDay, ShardedLru};
use crate::flight::{Flight, FlightOutcome, FlightTable};
use crate::metrics::ServeMetrics;
use san_graph::mmap::MappedSnapshot;
use san_graph::store::{DayFormat, SnapshotVault, StoreError};
use san_graph::view::CsrSanView;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Sizing knobs for a [`SnapshotServer`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Upper bound on total mapped bytes the cache keeps resident
    /// (split evenly across shards). Evicted days stay mapped only while
    /// outstanding handles hold them. Default: 512 MiB.
    pub max_resident_bytes: u64,
    /// Number of independently-locked cache shards (clamped to ≥ 1).
    /// Default: 8 — enough that concurrent readers of different days
    /// practically never share a lock.
    pub cache_shards: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            max_resident_bytes: 512 << 20,
            cache_shards: 8,
        }
    }
}

/// A served snapshot: the resolved day plus a shared handle to its
/// cache entry — the mapping and the day's memo slot. Cloning is an
/// `Arc` clone; the entry lives until the last clone (cached or handed
/// out) drops.
///
/// Every handle to one resident day — whether the fetch hit the cache,
/// led the cold map or waited on another thread's map — shares one
/// entry, so a whole-graph aggregate memoised through any of them
/// ([`SnapshotServer::memoised_reciprocity`]) costs O(|Es|) once per
/// resident day and O(1) after. Eviction drops the memo with the
/// mapping; a re-mapped day computes afresh.
#[derive(Debug, Clone)]
pub struct SnapshotHandle {
    day: u32,
    resident: Arc<ResidentDay>,
}

impl SnapshotHandle {
    /// The persisted day this handle serves (for a
    /// [`SnapshotServer::get`], the nearest day at or before the
    /// requested one).
    pub fn day(&self) -> u32 {
        self.day
    }

    /// A zero-copy read view over the mapped snapshot — O(1), no
    /// deserialisation ever.
    pub fn view(&self) -> CsrSanView<'_> {
        self.resident.snap.view()
    }

    /// The underlying shared mapping.
    pub fn mapped(&self) -> &Arc<MappedSnapshot> {
        &self.resident.snap
    }
}

/// How a fetch resolved its snapshot — the cost class a caller actually
/// paid, for per-request trace attribution (`san-obs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchKind {
    /// Resident in the cache: one LRU probe, no IO.
    Hit,
    /// This caller led a cold miss: it paid the full map + validate.
    ColdMap,
    /// This caller blocked on another thread's in-flight map and shared
    /// its result (covers waits that resolved to a mapping *or* looped
    /// into a late cache hit after an aborted leader).
    DedupWait,
}

/// Serves historical snapshots out of a [`SnapshotVault`] to any number
/// of threads: nearest-at-or-before day resolution, an mmap-backed
/// sharded LRU (cold miss ≈ `mmap` + one validation pass; hit ≈ one
/// atomic increment), per-day **single-flight deduplication** of cold
/// misses (a thundering herd on a cold day pays for exactly one
/// map+validate — the rest briefly block and share the leader's
/// mapping), and full [`ServeMetrics`] metering.
///
/// The server is `Sync`: share it by reference (or `Arc`) across worker
/// threads and call [`get`](SnapshotServer::get) concurrently.
pub struct SnapshotServer {
    vault: SnapshotVault,
    cache: ShardedLru,
    flights: FlightTable,
    metrics: ServeMetrics,
    config: ServeConfig,
}

impl SnapshotServer {
    /// Opens an existing vault directory and fronts it with a cache.
    pub fn open(
        dir: impl Into<PathBuf>,
        config: ServeConfig,
    ) -> Result<SnapshotServer, StoreError> {
        Ok(SnapshotServer::from_vault(
            SnapshotVault::open(dir)?,
            config,
        ))
    }

    /// Fronts an already-open vault with a cache.
    pub fn from_vault(vault: SnapshotVault, config: ServeConfig) -> SnapshotServer {
        SnapshotServer {
            cache: ShardedLru::new(config.cache_shards, config.max_resident_bytes),
            vault,
            flights: FlightTable::new(),
            metrics: ServeMetrics::new(),
            config,
        }
    }

    /// The sizing knobs this server was opened with. Front-ends (e.g.
    /// `san-net`) key admission control on
    /// [`ServeConfig::max_resident_bytes`] without re-plumbing the
    /// number through their own configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// True when `day` (a *persisted* day, e.g. from
    /// [`SnapshotVault::nearest_at_or_before`]) is currently resident in
    /// the cache. A pure probe: it bumps no LRU recency and records no
    /// metric, so admission-control checks don't distort the cache's
    /// view of what is actually hot.
    pub fn is_cached(&self, day: u32) -> bool {
        self.cache.contains(day)
    }

    /// The vault being served.
    pub fn vault(&self) -> &SnapshotVault {
        &self.vault
    }

    /// The serving meters (hits/misses/evictions, mapped bytes,
    /// open/validate latency).
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// Mapped bytes the cache currently keeps resident.
    pub fn resident_bytes(&self) -> u64 {
        self.cache.resident_bytes()
    }

    /// Days currently cached.
    pub fn cached_days(&self) -> usize {
        self.cache.len()
    }

    /// Serves the nearest persisted snapshot at or before `day`:
    /// `Ok(None)` when the vault holds nothing that early, otherwise a
    /// handle whose [`view`](SnapshotHandle::view) reads the mapped file
    /// in place. Concurrent callers of the same cold day are
    /// single-flighted: the first maps+validates once, the rest block on
    /// its latch and share the result (mapping or typed error) — a
    /// thundering herd never multiplies the open cost or the transient
    /// mapped memory.
    pub fn get(&self, day: u32) -> Result<Option<SnapshotHandle>, StoreError> {
        let Some(persisted) = self.vault.nearest_at_or_before(day) else {
            self.metrics.record_no_snapshot();
            return Ok(None);
        };
        self.fetch(persisted).map(|(handle, _)| Some(handle))
    }

    /// Serves exactly `day`, failing with
    /// [`StoreError::DayNotPersisted`] when the vault has no snapshot for
    /// that precise day.
    pub fn get_exact(&self, day: u32) -> Result<SnapshotHandle, StoreError> {
        self.get_exact_kind(day).map(|(handle, _)| handle)
    }

    /// Like [`get_exact`](SnapshotServer::get_exact), but also reports
    /// the [`FetchKind`] cost class the fetch paid — the hook `san-net`
    /// uses to attribute per-request fetch time to hit / cold-map /
    /// dedup-wait in its slow-query log.
    pub fn get_exact_kind(&self, day: u32) -> Result<(SnapshotHandle, FetchKind), StoreError> {
        if self.vault.nearest_at_or_before(day) != Some(day) {
            return Err(StoreError::DayNotPersisted { day });
        }
        self.fetch(day)
    }

    /// Global reciprocity of `handle`'s day, memoised in its cache
    /// entry: the first call per resident day runs `fill` on the
    /// handle's view (under the slot lock, so concurrent callers compute
    /// once) and every later call reads the stored value. Callers pass
    /// the same kernel the uncached query path runs, so the answer has
    /// one definition. Records a `memo_fills` (with its latency) or a
    /// `memo_hits`.
    pub fn memoised_reciprocity(
        &self,
        handle: &SnapshotHandle,
        fill: impl FnOnce(&CsrSanView<'_>) -> f64,
    ) -> f64 {
        let mut filled = None;
        let value = handle.resident.reciprocity.get_or_fill(|| {
            let started = Instant::now();
            let value = fill(&handle.view());
            filled = Some(started.elapsed());
            value
        });
        match filled {
            Some(latency) => self.metrics.record_memo_fill(latency),
            None => self.metrics.record_memo_hit(),
        }
        value
    }

    /// Cache-through, single-flighted fetch of a day known to be
    /// persisted. Every pass through the loop records exactly one of
    /// `hits`, `misses`, or `dedup_waits`; an aborted leader (a sibling
    /// panicked mid-map) sends waiters back around the loop, where one
    /// of them claims the vacated latch.
    ///
    /// The returned [`FetchKind`] classifies what this caller paid:
    /// a leader that mapped reports `ColdMap`; any path that blocked on
    /// another flight reports `DedupWait` (the wait dominates even when
    /// the loop then resolves via the cache); everything else is `Hit`.
    ///
    /// A leader of a delta day opens it onto its base when the base is
    /// resident ([`open_cold`](SnapshotServer::open_cold)); that peek is
    /// not a fetch and records no hit or miss of its own.
    fn fetch(&self, persisted: u32) -> Result<(SnapshotHandle, FetchKind), StoreError> {
        let mut ever_waited = false;
        let kind_of = |waited: bool| {
            if waited {
                FetchKind::DedupWait
            } else {
                FetchKind::Hit
            }
        };
        loop {
            if let Some(resident) = self.cache.get(persisted) {
                self.metrics.record_hit();
                return Ok((
                    SnapshotHandle {
                        day: persisted,
                        resident,
                    },
                    kind_of(ever_waited),
                ));
            }
            let waited = Instant::now();
            match self.flights.join(persisted) {
                Flight::Leader(leader) => {
                    // Double-check before paying the map: a flight that
                    // completed between this thread's cache miss and its
                    // join has already inserted the day (leaders insert
                    // before they publish), so this re-check is what makes
                    // "one map per cold day" hold across back-to-back
                    // flights, not just overlapping ones.
                    if let Some(resident) = self.cache.get(persisted) {
                        self.metrics.record_hit();
                        leader.publish(FlightOutcome::Mapped(Arc::clone(&resident)));
                        return Ok((
                            SnapshotHandle {
                                day: persisted,
                                resident,
                            },
                            kind_of(ever_waited),
                        ));
                    }
                    self.metrics.record_miss();
                    let snap = match self.open_cold(persisted) {
                        Ok(snap) => Arc::new(snap),
                        Err(error) => {
                            // Broadcast the typed failure to the herd; the
                            // latch clears, so the day is retried — never
                            // negatively cached — on the next fetch.
                            leader.publish(FlightOutcome::Failed(Arc::new(error.clone())));
                            return Err(error);
                        }
                    };
                    let fresh = Arc::new(ResidentDay::new(snap));
                    let outcome = self.cache.insert(persisted, Arc::clone(&fresh));
                    self.metrics.record_evictions(outcome.evicted);
                    // A lost insert race serves the incumbent, never the
                    // fresh mapping: one memo slot per resident day.
                    let resident = match outcome.incumbent {
                        Some(incumbent) => {
                            self.metrics.record_duplicate_insert();
                            incumbent
                        }
                        None => fresh,
                    };
                    leader.publish(FlightOutcome::Mapped(Arc::clone(&resident)));
                    return Ok((
                        SnapshotHandle {
                            day: persisted,
                            resident,
                        },
                        FetchKind::ColdMap,
                    ));
                }
                Flight::Waiter(outcome) => {
                    self.metrics.record_dedup_wait(waited.elapsed());
                    ever_waited = true;
                    match outcome {
                        FlightOutcome::Mapped(resident) => {
                            self.metrics.record_dedup_hit();
                            return Ok((
                                SnapshotHandle {
                                    day: persisted,
                                    resident,
                                },
                                FetchKind::DedupWait,
                            ));
                        }
                        FlightOutcome::Failed(error) => return Err((*error).clone()),
                        FlightOutcome::Aborted => continue,
                    }
                }
            }
        }
    }

    /// The cold-miss open of `day`, run by its flight's leader. A delta
    /// day whose manifest base is resident is applied onto that mapping:
    /// one delta read and one merge. Any other day — a full day, or a
    /// delta whose base is cold — is opened standalone by
    /// [`SnapshotVault::map_day`], which replays the chain. Peeking the
    /// base bumps its recency but counts no hit or miss, and never waits
    /// on another flight. Metered into the server's IO meters.
    fn open_cold(&self, day: u32) -> Result<MappedSnapshot, StoreError> {
        let base = match self.vault.day_format(day) {
            Some(DayFormat::V2Delta { base }) => self.cache.get(base),
            _ => None,
        };
        let started = Instant::now();
        let snap = match &base {
            Some(base) => self.vault.map_delta_onto(day, &base.snap)?,
            None => self.vault.map_day(day)?,
        };
        self.metrics
            .io()
            .record_read(snap.mapped_bytes() as u64, started.elapsed());
        Ok(snap)
    }
}

impl std::fmt::Debug for SnapshotServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotServer")
            .field("vault_dir", &self.vault.dir())
            .field("persisted_days", &self.vault.len())
            .field("cached_days", &self.cache.len())
            .field("resident_bytes", &self.cache.resident_bytes())
            .finish_non_exhaustive()
    }
}
