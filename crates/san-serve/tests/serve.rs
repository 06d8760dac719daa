//! Integration suite for the snapshot-serving layer: day-resolution
//! semantics, cache behaviour (hits/misses/evictions, byte bound),
//! metric equivalence between served views and eagerly-loaded snapshots,
//! and mixed-day `get` streams under real thread contention.

#![cfg(unix)]

use san_graph::store::{
    fnv1a64, DayFormat, SnapshotVault, StoreError, StreamingVaultWriter, CHECKSUM_BYTES,
    MAX_DELTA_CHAIN,
};
use san_graph::{SanRead, SanTimeline, SocialId, TimelineBuilder};
use san_metrics::clustering::{average_clustering_exact, NodeSet};
use san_metrics::reciprocity::global_reciprocity;
use san_serve::{ServeConfig, SnapshotServer};
use san_stats::SplitRng;
use std::path::PathBuf;

/// A fresh scratch directory under the system temp dir; removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        use std::sync::atomic::{AtomicU32, Ordering};
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "san-serve-{tag}-{}-{}",
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

/// A 30-day growing timeline with links and attributes on every day.
fn growing_timeline(days: u32) -> SanTimeline {
    let mut rng = SplitRng::new(u64::from(days) + 11);
    let mut tb = TimelineBuilder::new();
    let mut users = vec![tb.add_social_node()];
    let attrs: Vec<_> = (0..6)
        .map(|i| tb.add_attr_node(san_graph::AttrType::PAPER_TYPES[i % 4]))
        .collect();
    for day in 1..=days {
        tb.advance_to_day(day);
        for _ in 0..4 {
            let u = tb.add_social_node();
            let v = users[rng.below(users.len() as u64) as usize];
            tb.add_social_link(u, v);
            if rng.chance(0.5) {
                tb.add_social_link(v, u);
            }
            if rng.chance(0.4) {
                tb.add_attr_link(u, attrs[rng.below(attrs.len() as u64) as usize]);
            }
            users.push(u);
        }
    }
    tb.finish().0
}

/// Vault with every `step`-th day persisted, plus the timeline.
fn served_vault(tag: &str, days: u32, step: u32) -> (TempDir, SanTimeline, Vec<u32>) {
    let tmp = TempDir::new(tag);
    let tl = growing_timeline(days);
    let mut vault = SnapshotVault::create(&tmp.0).expect("create vault");
    let saved = vault.save_timeline(&tl, step).expect("persist");
    (tmp, tl, saved)
}

/// v2 vault of `growing_timeline(days)` written the production way
/// (`StreamingVaultWriter`): every `step`-th day, a full day every
/// `full_every` persisted days and deltas between.
fn delta_vault(
    tag: &str,
    days: u32,
    step: u32,
    full_every: u32,
) -> (TempDir, SanTimeline, Vec<u32>) {
    let tmp = TempDir::new(tag);
    let tl = growing_timeline(days);
    let mut vault = SnapshotVault::create(&tmp.0).expect("create vault");
    let mut writer = StreamingVaultWriter::new(&mut vault, step, full_every);
    let events = tl.events();
    for day in 0..=tl.max_day().expect("non-empty timeline") {
        let start = events.partition_point(|e| e.day() < day);
        let end = events.partition_point(|e| e.day() <= day);
        writer.apply_day(&events[start..end]).expect("persist");
    }
    let saved = writer.finish().expect("finish");
    (tmp, tl, saved)
}

/// Deltas a fetch of `day` applies: none for a resident or full day,
/// one onto a resident base, else every link of its chain.
fn cold_deltas_on_fetch(server: &SnapshotServer, day: u32) -> u64 {
    let vault = server.vault();
    match vault.day_format(day) {
        _ if server.is_cached(day) => 0,
        Some(DayFormat::V2Delta { base }) if server.is_cached(base) => 1,
        _ => {
            let (mut links, mut day) = (0, day);
            while let Some(DayFormat::V2Delta { base }) = vault.day_format(day) {
                links += 1;
                day = base;
            }
            links
        }
    }
}

#[test]
fn get_resolves_nearest_at_or_before() {
    let (tmp, _tl, saved) = served_vault("nearest", 30, 5);
    assert_eq!(saved, vec![0, 5, 10, 15, 20, 25, 30]);
    let server = SnapshotServer::open(&tmp.0, ServeConfig::default()).expect("open");
    for probe in 0..=40u32 {
        let expect = saved.iter().copied().rfind(|&d| d <= probe);
        let got = server.get(probe).expect("get").map(|h| h.day());
        assert_eq!(got, expect, "probe {probe}");
    }
}

#[test]
fn get_before_first_persisted_day_is_none() {
    let tmp = TempDir::new("before-first");
    let tl = growing_timeline(20);
    let mut vault = SnapshotVault::create(&tmp.0).expect("create");
    vault.save_day(7, &tl.snapshot_csr(7)).expect("save");
    let server = SnapshotServer::from_vault(vault, ServeConfig::default());
    assert!(server.get(6).expect("get").is_none());
    assert_eq!(server.metrics().no_snapshot(), 1);
    assert_eq!(server.get(7).expect("get").map(|h| h.day()), Some(7));
}

#[test]
fn get_exact_requires_the_precise_day() {
    let (tmp, _tl, _saved) = served_vault("exact", 20, 5);
    let server = SnapshotServer::open(&tmp.0, ServeConfig::default()).expect("open");
    assert_eq!(server.get_exact(10).expect("persisted").day(), 10);
    assert!(matches!(
        server.get_exact(11).expect_err("not persisted"),
        StoreError::DayNotPersisted { day: 11 }
    ));
}

#[test]
fn hits_and_misses_are_counted_and_io_metered() {
    let (tmp, _tl, saved) = served_vault("hitmiss", 20, 10);
    let server = SnapshotServer::open(&tmp.0, ServeConfig::default()).expect("open");
    let mut expected_bytes = 0u64;
    for &day in &saved {
        let h = server.get(day).expect("get").expect("served");
        expected_bytes += h.mapped().mapped_bytes() as u64;
    }
    assert_eq!(server.metrics().misses(), saved.len() as u64);
    assert_eq!(server.metrics().hits(), 0);
    // Second round: all hits, no new IO.
    for &day in &saved {
        server.get(day).expect("get").expect("served");
    }
    assert_eq!(server.metrics().hits(), saved.len() as u64);
    assert_eq!(server.metrics().misses(), saved.len() as u64);
    assert_eq!(server.metrics().io().read_bytes(), expected_bytes);
    assert_eq!(server.metrics().io().reads(), saved.len() as u64);
    assert_eq!(
        server.metrics().io().read_latency().count(),
        saved.len() as u64
    );
    assert_eq!(server.resident_bytes(), expected_bytes);
    assert_eq!(server.cached_days(), saved.len());
}

#[test]
fn byte_bound_evicts_and_evicted_handles_stay_valid() {
    let (tmp, tl, saved) = served_vault("evict", 30, 5);
    // One shard with a budget of one snapshot: every new day evicts.
    let server = SnapshotServer::open(
        &tmp.0,
        ServeConfig {
            max_resident_bytes: 1,
            cache_shards: 1,
        },
    )
    .expect("open");
    let first = server.get(saved[0]).expect("get").expect("served");
    for &day in &saved[1..] {
        server.get(day).expect("get").expect("served");
    }
    assert_eq!(server.metrics().evictions(), saved.len() as u64 - 1);
    assert_eq!(server.cached_days(), 1);
    // The evicted day's handle still reads its (unmapped-from-cache)
    // snapshot correctly.
    assert_eq!(
        first.view().to_owned_csr(),
        tl.snapshot_csr(saved[0]),
        "evicted handle stays valid"
    );
    // Re-getting the evicted day is a fresh miss, not corruption.
    let again = server.get(saved[0]).expect("get").expect("served");
    assert_eq!(again.view().to_owned_csr(), tl.snapshot_csr(saved[0]));
}

#[test]
fn served_views_match_eager_loads_on_metrics() {
    let (tmp, _tl, saved) = served_vault("equiv", 25, 5);
    let vault = SnapshotVault::open(&tmp.0).expect("reopen");
    let server = SnapshotServer::open(&tmp.0, ServeConfig::default()).expect("open");
    for &day in &saved {
        let served = server.get(day).expect("get").expect("served");
        let loaded = vault.load_day(day).expect("load");
        let view = served.view();
        assert_eq!(view.to_owned_csr(), *loaded, "day {day}");
        // Bit-identical metric results between the mapped view and the
        // eagerly-loaded snapshot.
        assert_eq!(
            average_clustering_exact(&view, NodeSet::Social).to_bits(),
            average_clustering_exact(&*loaded, NodeSet::Social).to_bits(),
            "clustering day {day}"
        );
        assert_eq!(
            global_reciprocity(&view).to_bits(),
            global_reciprocity(&*loaded).to_bits(),
            "reciprocity day {day}"
        );
    }
}

/// A mixed-day stream split across 1, 2 and 8 threads: every `get`
/// resolves to the nearest persisted day at or before the requested one,
/// and the served view measures bit-identically to `load_day` of it.
#[test]
fn mixed_day_gets_match_load_day_across_threads() {
    let (tmp, _tl, _saved) = served_vault("queries", 30, 5);
    let vault = SnapshotVault::open(&tmp.0).expect("reopen");
    let server = SnapshotServer::open(&tmp.0, ServeConfig::default()).expect("open");
    let mut rng = SplitRng::new(77);
    let days: Vec<u32> = (0..64).map(|_| rng.below(35) as u32).collect();
    for threads in [1usize, 2, 8] {
        std::thread::scope(|scope| {
            for chunk in days.chunks(days.len().div_ceil(threads)) {
                let (server, vault) = (&server, &vault);
                scope.spawn(move || {
                    for &day in chunk {
                        let handle = server.get(day).expect("get").expect("served");
                        let persisted = vault.nearest_at_or_before(day).expect("day 0 persisted");
                        assert_eq!(handle.day(), persisted, "threads {threads} day {day}");
                        let view = handle.view();
                        let loaded = vault.load_day(persisted).expect("load");
                        assert_eq!(
                            (view.num_social_links(), global_reciprocity(&view).to_bits()),
                            (
                                loaded.num_social_links(),
                                global_reciprocity(&*loaded).to_bits()
                            ),
                            "threads {threads} day {day}"
                        );
                    }
                });
            }
        });
    }
    let m = server.metrics();
    assert_eq!(
        m.hits() + m.misses() + m.dedup_waits(),
        3 * days.len() as u64
    );
}

#[test]
fn concurrent_gets_share_one_server() {
    let (tmp, tl, saved) = served_vault("concurrent", 30, 5);
    let server = SnapshotServer::open(&tmp.0, ServeConfig::default()).expect("open");
    let final_links = tl
        .snapshot_csr(*saved.last().expect("nonempty"))
        .num_social_links();
    std::thread::scope(|scope| {
        for t in 0..8usize {
            let server = &server;
            let saved = &saved;
            scope.spawn(move || {
                let mut rng = SplitRng::new(t as u64);
                for _ in 0..50 {
                    let day = saved[rng.below(saved.len() as u64) as usize];
                    let handle = server.get(day).expect("get").expect("served");
                    assert_eq!(handle.day(), day);
                    let view = handle.view();
                    // Spot-check structure: degrees are consistent.
                    let n = view.num_social_nodes();
                    assert!(n >= 1);
                    let u = SocialId(rng.below(n as u64) as u32);
                    assert_eq!(view.out_degree(u), view.out_neighbors(u).len());
                    assert!(view.num_social_links() <= final_links);
                }
            });
        }
    });
    // Every get recorded exactly one of hit / miss / dedup-wait; misses
    // are bounded by distinct days (single-flight: a day's herd pays one).
    let m = server.metrics();
    assert_eq!(m.hits() + m.misses() + m.dedup_waits(), 8 * 50);
    assert!(m.misses() >= saved.len() as u64 - 1, "most days touched");
    assert!(
        m.misses() <= saved.len() as u64,
        "single-flight bounds misses by distinct days, got {} for {} days",
        m.misses(),
        saved.len()
    );
    assert_eq!(
        m.dedup_hits(),
        m.dedup_waits(),
        "all waits resolved to mappings"
    );
    assert_eq!(
        m.duplicate_inserts(),
        0,
        "no redundant maps reached the cache"
    );
}

/// The SAN-001 acceptance test: a real 8-thread thundering herd on one
/// cold day performs exactly **one** map+validate (observed through the
/// server's vault-side IO meters), and every thread gets a handle to the
/// *same* mapping with identical query results.
#[test]
fn thundering_herd_on_cold_day_maps_once() {
    let (tmp, tl, saved) = served_vault("herd", 20, 5);
    let server = SnapshotServer::open(&tmp.0, ServeConfig::default()).expect("open");
    let day = saved[2];
    let start = std::sync::Barrier::new(8);
    let handles: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..8)
            .map(|_| {
                let server = &server;
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    server.get(day).expect("get").expect("served")
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("herd thread"))
            .collect()
    });
    // One map for the whole herd: the vault-side IO meters saw a single
    // read, and the serve counters account every thread exactly once.
    let m = server.metrics();
    assert_eq!(m.io().reads(), 1, "exactly one map+validate");
    assert_eq!(m.misses(), 1, "exactly one leader");
    assert_eq!(m.hits() + m.dedup_waits(), 7, "everyone else hit or waited");
    assert_eq!(
        m.dedup_hits(),
        m.dedup_waits(),
        "every wait got the mapping"
    );
    assert_eq!(m.duplicate_inserts(), 0);
    assert_eq!(m.dedup_wait_latency().count(), m.dedup_waits());
    // Every handle shares the leader's one mapping and reads identically.
    let reference = tl.snapshot_csr(day);
    let expect_bits = global_reciprocity(&reference).to_bits();
    for h in &handles {
        assert!(
            std::sync::Arc::ptr_eq(h.mapped(), handles[0].mapped()),
            "one shared mapping"
        );
        assert_eq!(h.day(), day);
        assert_eq!(global_reciprocity(&h.view()).to_bits(), expect_bits);
    }
}

/// Failure-path robustness under a herd: every thread racing a corrupt
/// cold day receives the typed checksum error (leaders from their own
/// map, waiters from the broadcast latch), nothing is negatively cached,
/// and once the file is repaired the next fetch serves normally.
#[test]
fn herd_on_corrupt_day_all_fail_typed_then_repair_recovers() {
    let (tmp, tl, saved) = served_vault("herd-corrupt", 10, 5);
    let vault = SnapshotVault::open(&tmp.0).expect("reopen");
    let victim = saved[1];
    let path = vault.day_path(victim);
    let pristine = std::fs::read(&path).expect("read victim");
    let mut bytes = pristine.clone();
    let len = bytes.len();
    bytes[len - 1] ^= 0xff; // checksum trailer flip
    std::fs::write(&path, &bytes).expect("corrupt victim");
    let server = SnapshotServer::open(&tmp.0, ServeConfig::default()).expect("open");
    let start = std::sync::Barrier::new(8);
    let errors: Vec<StoreError> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..8)
            .map(|_| {
                let server = &server;
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    server.get(victim).expect_err("corrupt day must fail")
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("herd thread"))
            .collect()
    });
    assert_eq!(errors.len(), 8);
    for e in &errors {
        assert!(
            matches!(e, StoreError::BadChecksum { .. }),
            "typed failure for every thread, got {e:?}"
        );
    }
    // Nothing was cached (positively or negatively), and the books
    // balance: each fetch either led a failing map or waited one out.
    let m = server.metrics();
    assert_eq!(server.cached_days(), 0);
    assert_eq!(m.hits(), 0);
    assert_eq!(m.dedup_hits(), 0, "no wait resolved to a mapping");
    assert_eq!(m.misses() + m.dedup_waits(), 8);
    assert!(m.misses() >= 1, "someone led each failing flight");
    // Repair the file: the very next fetch succeeds — failures were
    // never latched.
    std::fs::write(&path, &pristine).expect("repair victim");
    let healed = server.get(victim).expect("repaired get").expect("served");
    assert_eq!(healed.view().to_owned_csr(), tl.snapshot_csr(victim));
    assert_eq!(server.cached_days(), 1);
}

#[test]
fn empty_vault_serves_nothing() {
    let tmp = TempDir::new("empty");
    SnapshotVault::create(&tmp.0).expect("create");
    let server = SnapshotServer::open(&tmp.0, ServeConfig::default()).expect("open");
    assert!(server.get(0).expect("get").is_none());
    assert!(server.get(u32::MAX).expect("get").is_none());
    assert_eq!(server.metrics().no_snapshot(), 2);
    assert_eq!(server.cached_days(), 0);
}

#[test]
fn corrupt_file_surfaces_as_typed_query_failure() {
    let (tmp, tl, saved) = served_vault("corrupt", 10, 5);
    // Corrupt one persisted day behind the manifest's back.
    let vault = SnapshotVault::open(&tmp.0).expect("reopen");
    let victim = saved[1];
    let path = vault.day_path(victim);
    let mut bytes = std::fs::read(&path).expect("read victim");
    let len = bytes.len();
    bytes[len - 1] ^= 0xff; // checksum trailer flip
    std::fs::write(&path, &bytes).expect("rewrite victim");
    let server = SnapshotServer::open(&tmp.0, ServeConfig::default()).expect("open");
    assert!(matches!(
        server.get(victim).expect_err("corrupt day must fail"),
        StoreError::BadChecksum { .. }
    ));
    // The good day next to it still serves, and the corrupt one keeps
    // failing typed (failures are never cached).
    let good = server.get(saved[0]).expect("good day").expect("served");
    assert_eq!(good.day(), saved[0]);
    assert_eq!(good.view().to_owned_csr(), tl.snapshot_csr(saved[0]));
    assert!(matches!(
        server.get(victim),
        Err(StoreError::BadChecksum { .. })
    ));
}

/// `get_exact_kind` classifies what each fetch paid: the first touch of
/// a persisted day is a cold map, every touch after it a hit, and a herd
/// racing a cold day splits into exactly one `ColdMap` leader with the
/// rest reporting `DedupWait`.
#[test]
fn get_exact_kind_classifies_fetch_cost() {
    use san_serve::FetchKind;
    let (tmp, _tl, saved) = served_vault("fetch-kind", 10, 5);
    let server = SnapshotServer::open(&tmp.0, ServeConfig::default()).expect("open");
    let day = saved[1];
    let (_h, kind) = server.get_exact_kind(day).expect("cold fetch");
    assert_eq!(kind, FetchKind::ColdMap);
    let (_h, kind) = server.get_exact_kind(day).expect("warm fetch");
    assert_eq!(kind, FetchKind::Hit);
    // A herd on a fresh cold day: one leader, the others hit or waited.
    let cold = saved[2];
    let kinds = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..6 {
            scope.spawn(|| {
                let (_h, kind) = server.get_exact_kind(cold).expect("herd fetch");
                kinds.lock().unwrap().push(kind);
            });
        }
    });
    let kinds = kinds.into_inner().unwrap();
    let cold_maps = kinds.iter().filter(|k| **k == FetchKind::ColdMap).count();
    assert_eq!(cold_maps, 1, "exactly one thread pays the map: {kinds:?}");
    // Unknown days stay typed errors, kind or no kind.
    assert!(matches!(
        server.get_exact_kind(day + 1),
        Err(StoreError::DayNotPersisted { .. })
    ));
}

/// Delta days are opened onto their resident base, whatever the vault
/// layout, fetch order or byte budget: every served day equals the
/// standalone `load_day`, and the vault counts exactly one applied delta
/// for a cold delta day whose base is resident (its whole chain, replayed
/// standalone, otherwise).
#[test]
fn delta_days_open_onto_their_cached_base() {
    let mut onto_resident = 0;
    for full_every in [1, 2, 4, MAX_DELTA_CHAIN as u32] {
        let (tmp, _tl, saved) = delta_vault("delta-open", 36, 2, full_every);
        assert!(saved.len() > MAX_DELTA_CHAIN, "a full-length chain exists");
        let vault = SnapshotVault::open(&tmp.0).expect("reopen");
        let loaded: Vec<_> = saved
            .iter()
            .map(|&d| vault.load_day(d).expect("load"))
            .collect();
        let one_day = loaded
            .iter()
            .map(|s| s.store_bytes_len())
            .max()
            .expect("days");
        let mut rng = SplitRng::new(u64::from(full_every));
        let mut shuffled = saved.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let descending: Vec<u32> = saved.iter().rev().copied().collect();
        for order in [&saved, &descending, &shuffled] {
            for budget in [one_day, 3 * one_day, 8 * one_day, u64::MAX] {
                let server = SnapshotServer::open(
                    &tmp.0,
                    ServeConfig {
                        max_resident_bytes: budget,
                        cache_shards: 2,
                    },
                )
                .expect("open");
                for &day in order {
                    let base_resident = match server.vault().day_format(day) {
                        Some(DayFormat::V2Delta { base }) => server.is_cached(base),
                        _ => false,
                    };
                    let cold = !server.is_cached(day);
                    let expect = cold_deltas_on_fetch(&server, day);
                    let before = server.vault().metrics().delta_links_applied();
                    let fetches = server.metrics().hits() + server.metrics().misses();
                    let handle = server.get_exact(day).expect("served");
                    let applied = server.vault().metrics().delta_links_applied() - before;
                    assert_eq!(
                        server.metrics().hits() + server.metrics().misses(),
                        fetches + 1,
                        "one hit or miss per client fetch, none for a base peek"
                    );
                    let at = saved.iter().position(|&d| d == day).expect("saved day");
                    assert_eq!(
                        handle.view().to_owned_csr(),
                        *loaded[at],
                        "full_every {full_every} budget {budget} day {day}"
                    );
                    assert_eq!(applied, expect, "full_every {full_every} day {day}");
                    if cold && base_resident {
                        assert_eq!(applied, 1, "one merge onto a resident base");
                        onto_resident += 1;
                    }
                }
            }
        }
    }
    assert!(
        onto_resident > 0,
        "no cold delta open found its base resident"
    );
}

/// A corrupt delta in the middle of a chain fails the serve path with the
/// same error as the standalone chain replay; the failure is retried, not
/// cached, and the undamaged ancestors keep serving.
#[test]
fn corrupt_middle_delta_fails_like_load_day_and_is_not_cached() {
    let (tmp, tl, saved) = delta_vault("delta-corrupt", 12, 1, 4);
    let vault = SnapshotVault::open(&tmp.0).expect("reopen");
    // Days 0 (full) ← 1 ← 2 ← 3: corrupt the middle delta, day 2.
    assert_eq!(vault.day_format(3), Some(DayFormat::V2Delta { base: 2 }));
    assert_eq!(vault.day_format(2), Some(DayFormat::V2Delta { base: 1 }));
    let path = vault.day_path(2);
    let good = std::fs::read(&path).expect("read day 2");
    let mut bad = good.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x5a;
    std::fs::write(&path, &bad).expect("corrupt day 2");
    let standalone = vault.load_day(3).expect_err("corrupt chain");
    let server = SnapshotServer::open(&tmp.0, ServeConfig::default()).expect("open");
    for _ in 0..2 {
        let served = server.get_exact(3).expect_err("corrupt chain");
        assert_eq!(
            std::mem::discriminant(&served),
            std::mem::discriminant(&standalone),
            "served {served:?} vs load_day {standalone:?}"
        );
        assert!(!server.is_cached(2) && !server.is_cached(3));
    }
    for day in [0, 1] {
        let h = server.get_exact(day).expect("undamaged ancestor");
        assert_eq!(h.view().to_owned_csr(), tl.snapshot_csr(day));
    }
    // Repairing the file heals the chain: nothing was negatively cached.
    std::fs::write(&path, &good).expect("repair day 2");
    let healed = server.get_exact(3).expect("repaired chain");
    assert_eq!(healed.view().to_owned_csr(), tl.snapshot_csr(saved[3]));
}

/// `map_delta_onto` keeps the standalone path's manifest checks: a delta
/// file whose own base pointer disagrees with the manifest, and a base
/// snapshot that stands in for another day, are both `BadManifest`.
#[test]
fn delta_open_onto_base_checks_the_manifest() {
    let (tmp, _tl, _saved) = delta_vault("delta-base", 12, 1, 4);
    let vault = SnapshotVault::open(&tmp.0).expect("reopen");
    let base = vault.map_day(1).expect("base day");
    let other = vault.map_day(0).expect("another day");
    assert!(matches!(
        vault.map_delta_onto(2, &other),
        Err(StoreError::BadManifest { .. })
    ));
    assert!(matches!(
        vault.map_delta_onto(0, &other),
        Err(StoreError::BadManifest { .. })
    ));
    assert!(matches!(
        vault.map_delta_onto(99, &base),
        Err(StoreError::DayNotPersisted { day: 99 })
    ));
    let before = vault.metrics().delta_links_applied();
    let opened = vault.map_delta_onto(2, &base).expect("one merge");
    assert_eq!(vault.metrics().delta_links_applied() - before, 1);
    assert_eq!(
        opened.view().to_owned_csr(),
        *vault.load_day(2).expect("load")
    );
    // Point day 2's file at base day 0 and re-seal it.
    let path = vault.day_path(2);
    let mut bytes = std::fs::read(&path).expect("read day 2");
    bytes[16..20].copy_from_slice(&0u32.to_le_bytes());
    let body = bytes.len() - CHECKSUM_BYTES;
    let seal = fnv1a64(&bytes[..body]);
    bytes[body..].copy_from_slice(&seal.to_le_bytes());
    std::fs::write(&path, &bytes).expect("rewrite day 2");
    assert!(matches!(
        vault.map_delta_onto(2, &base),
        Err(StoreError::BadManifest { .. })
    ));
    assert!(matches!(
        vault.load_day(2),
        Err(StoreError::BadManifest { .. })
    ));
    let server = SnapshotServer::open(&tmp.0, ServeConfig::default()).expect("open");
    assert!(matches!(
        server.get_exact(2),
        Err(StoreError::BadManifest { .. })
    ));
}
