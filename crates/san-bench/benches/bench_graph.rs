//! Criterion benchmarks for the SAN data-structure substrate: mutation
//! throughput and the neighbourhood queries every metric sits on.

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use san_core::model::{SanModel, SanModelParams};
use san_graph::traverse::bfs_directed;
use san_graph::{CsrSan, San, SanRead, SanTimeline, ShardedCsrSan, SocialId};
use san_metrics::clustering::{average_clustering_exact, average_clustering_sharded, NodeSet};
use san_metrics::evolution::{evolve_metric, SnapshotSource};
use san_metrics::hyperanf::{social_effective_diameter, social_effective_diameter_sharded};
use san_metrics::reciprocity::global_reciprocity;
use san_stats::SplitRng;
use std::sync::Arc;

fn build_random_san(n: u32, links_per_node: u32, seed: u64) -> San {
    let mut rng = SplitRng::new(seed);
    let mut san = San::new();
    for _ in 0..n {
        san.add_social_node();
    }
    for _ in 0..4 {
        san.add_attr_node(san_graph::AttrType::Employer);
    }
    for u in 0..n {
        for _ in 0..links_per_node {
            let v = rng.below(u64::from(n)) as u32;
            if v != u {
                san.add_social_link(SocialId(u), SocialId(v));
            }
        }
        if rng.chance(0.25) {
            san.add_attr_link(SocialId(u), san_graph::AttrId(rng.below(4) as u32));
        }
    }
    san
}

fn bench_mutation(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph/mutation");
    for &n in &[1_000u32, 10_000] {
        group.bench_with_input(BenchmarkId::new("build_random_san", n), &n, |b, &n| {
            b.iter(|| build_random_san(black_box(n), 8, 1));
        });
    }
    group.finish();
}

fn bench_queries(c: &mut Criterion) {
    let san = build_random_san(10_000, 8, 2);
    let mut rng = SplitRng::new(3);
    let mut group = c.benchmark_group("graph/queries");
    group.bench_function("has_social_link", |b| {
        b.iter(|| {
            let u = SocialId(rng.below(10_000) as u32);
            let v = SocialId(rng.below(10_000) as u32);
            black_box(san.has_social_link(u, v))
        });
    });
    group.bench_function("social_neighbors", |b| {
        b.iter(|| {
            let u = SocialId(rng.below(10_000) as u32);
            black_box(san.social_neighbors(u).len())
        });
    });
    group.bench_function("common_social_neighbors", |b| {
        b.iter(|| {
            let u = SocialId(rng.below(10_000) as u32);
            let v = SocialId(rng.below(10_000) as u32);
            black_box(san.common_social_neighbors(u, v))
        });
    });
    group.bench_function("common_attrs", |b| {
        b.iter(|| {
            let u = SocialId(rng.below(10_000) as u32);
            let v = SocialId(rng.below(10_000) as u32);
            black_box(san.common_attrs(u, v))
        });
    });
    group.finish();
}

// ---------------------------------------------------------------------------
// San vs CsrSan: the same generic read path over both representations, so
// the CSR win is measured, not asserted.
// ---------------------------------------------------------------------------

/// Full neighbourhood sweep: touch every out-, in- and undirected
/// neighbour of every node (the inner loop of clustering / knn / BFS).
fn neighborhood_sweep(g: &impl SanRead) -> usize {
    let mut acc = 0usize;
    for u in g.social_nodes() {
        for &v in g.out_neighbors(u) {
            acc = acc.wrapping_add(v.index());
        }
        for &v in g.in_neighbors(u) {
            acc = acc.wrapping_add(v.index());
        }
        for &v in g.social_neighbors(u).iter() {
            acc = acc.wrapping_add(v.index());
        }
    }
    acc
}

/// Random membership probes (the inner loop of reciprocity / triangle
/// counting).
fn membership_probes(g: &impl SanRead, probes: usize, rng: &mut SplitRng) -> usize {
    let n = g.num_social_nodes() as u64;
    let mut hits = 0;
    for _ in 0..probes {
        let u = SocialId(rng.below(n) as u32);
        let v = SocialId(rng.below(n) as u32);
        if g.has_social_link(u, v) {
            hits += 1;
        }
    }
    hits
}

fn bench_san_vs_csr(c: &mut Criterion) {
    let san = build_random_san(10_000, 8, 5);
    let csr: CsrSan = san.freeze();
    let sources: Vec<SocialId> = {
        let mut rng = SplitRng::new(6);
        (0..8).map(|_| SocialId(rng.below(10_000) as u32)).collect()
    };

    let mut group = c.benchmark_group("graph/san_vs_csr");
    group.sample_size(20);
    group.bench_function("neighborhood_sweep/san", |b| {
        b.iter(|| black_box(neighborhood_sweep(&san)));
    });
    group.bench_function("neighborhood_sweep/csr", |b| {
        b.iter(|| black_box(neighborhood_sweep(&csr)));
    });
    group.bench_function("membership_10k_probes/san", |b| {
        let mut rng = SplitRng::new(7);
        b.iter(|| black_box(membership_probes(&san, 10_000, &mut rng)));
    });
    group.bench_function("membership_10k_probes/csr", |b| {
        let mut rng = SplitRng::new(7);
        b.iter(|| black_box(membership_probes(&csr, 10_000, &mut rng)));
    });
    group.bench_function("bfs_directed/san", |b| {
        b.iter(|| {
            let mut reached = 0usize;
            for &src in &sources {
                reached += bfs_directed(&san, src).iter().flatten().count();
            }
            black_box(reached)
        });
    });
    group.bench_function("bfs_directed/csr", |b| {
        b.iter(|| {
            let mut reached = 0usize;
            for &src in &sources {
                reached += bfs_directed(&csr, src).iter().flatten().count();
            }
            black_box(reached)
        });
    });
    group.bench_function("common_social_neighbors/san", |b| {
        let mut rng = SplitRng::new(8);
        b.iter(|| {
            let u = SocialId(rng.below(10_000) as u32);
            let v = SocialId(rng.below(10_000) as u32);
            black_box(SanRead::common_social_neighbors(&san, u, v))
        });
    });
    group.bench_function("common_social_neighbors/csr", |b| {
        let mut rng = SplitRng::new(8);
        b.iter(|| {
            let u = SocialId(rng.below(10_000) as u32);
            let v = SocialId(rng.below(10_000) as u32);
            black_box(SanRead::common_social_neighbors(&csr, u, v))
        });
    });
    group.bench_function("freeze_10k_nodes", |b| {
        b.iter(|| black_box(san.freeze().heap_bytes()));
    });
    group.finish();
}

fn bench_timeline_replay(c: &mut Criterion) {
    let (tl, _) = SanModel::new(SanModelParams::paper_default(60, 30))
        .unwrap()
        .generate(4);
    let mut group = c.benchmark_group("graph/timeline");
    group.bench_function("final_snapshot_replay", |b| {
        b.iter(|| black_box(tl.final_snapshot().num_social_links()));
    });
    group.bench_function("day_counts", |b| {
        b.iter(|| black_box(tl.day_counts().len()));
    });
    group.finish();
}

// ---------------------------------------------------------------------------
// Full-timeline evolution sweep on a ~10k-node, 98-day fixture: the access
// pattern behind every evolution figure. Three strategies over the same
// timeline and the same per-day metric (global reciprocity, an O(E) read):
//
//  * replay_per_day — `snapshot_csr(day)` for every day: replays the log
//    prefix from day 0 and re-freezes from scratch each time (quadratic);
//  * delta_freeze — `for_each_snapshot(1)`: each day's CSR is patched from
//    the previous day's (near-linear, zero snapshot clones);
//  * streamed_parallel — `evolve_metric(step=1, 4 threads)`:
//    delta-frozen snapshots streamed through a bounded channel to workers.
// ---------------------------------------------------------------------------

fn ten_k_timeline() -> SanTimeline {
    // 98 days × ~102 arrivals ≈ 10k social nodes.
    let (tl, _) = SanModel::new(SanModelParams::paper_default(98, 102))
        .unwrap()
        .generate(9);
    tl
}

fn bench_timeline_sweep(c: &mut Criterion) {
    let tl = ten_k_timeline();
    let max_day = tl.max_day().unwrap();
    let mut group = c.benchmark_group("graph/timeline_sweep");
    group.sample_size(10);
    group.bench_function("replay_per_day/step1", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for day in 0..=max_day {
                acc += global_reciprocity(&tl.snapshot_csr(day));
            }
            black_box(acc)
        });
    });
    group.bench_function("delta_freeze/step1", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            tl.for_each_snapshot(1, |_, snap| acc += global_reciprocity(snap));
            black_box(acc)
        });
    });
    group.bench_function("streamed_parallel/step1_4threads", |b| {
        b.iter(|| {
            let series = evolve_metric(SnapshotSource::Replay(&tl), "recip", 1, 4, |_, snap| {
                global_reciprocity(&**snap)
            })
            .expect("replay sweep");
            black_box(series.values.len())
        });
    });
    group.finish();
}

// ---------------------------------------------------------------------------
// Intra-snapshot parallelism on the final day of the 10k-node/98-day
// fixture: the per-node sweeps that stop scaling once one thread must walk
// a whole snapshot. Single-threaded CsrSan baselines vs the shard-parallel
// drivers at K ∈ {1, 2, 4, 8} — K = 1 isolates the driver overhead, the
// larger K show the range-partitioned speedup (ROADMAP records the
// medians). Sharding the snapshot itself is O(K log V) binary searches and
// is included in the per-iteration cost.
// ---------------------------------------------------------------------------

fn bench_sharded_sweep(c: &mut Criterion) {
    let tl = ten_k_timeline();
    let final_day = Arc::new(tl.snapshot_csr(tl.max_day().unwrap()));
    let mut group = c.benchmark_group("graph/sharded_sweep");
    group.sample_size(10);
    group.bench_function("clustering/seq", |b| {
        b.iter(|| black_box(average_clustering_exact(&*final_day, NodeSet::Social)));
    });
    group.bench_function("hyperanf/seq", |b| {
        b.iter(|| black_box(social_effective_diameter(&*final_day, 0.9, 7, 11)));
    });
    for &k in &[1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("clustering/sharded", k), &k, |b, &k| {
            b.iter(|| {
                let sharded = ShardedCsrSan::new(Arc::clone(&final_day), k);
                black_box(average_clustering_sharded(&sharded, NodeSet::Social))
            });
        });
        group.bench_with_input(BenchmarkId::new("hyperanf/sharded", k), &k, |b, &k| {
            b.iter(|| {
                let sharded = ShardedCsrSan::new(Arc::clone(&final_day), k);
                black_box(social_effective_diameter_sharded(&sharded, 0.9, 7, 11))
            });
        });
    }
    group.finish();
}

// ---------------------------------------------------------------------------
// Columnar snapshot store on the 10k-node/98-day fixture: serialise /
// deserialise throughput of the final-day CsrSan (write + read MB/s over
// an in-memory buffer, so the disk is out of the picture), and the payoff
// it buys — a mid-timeline sweep resumed from a persisted vault day
// versus the same suffix swept by replaying from day 0. ROADMAP records
// the medians.
// ---------------------------------------------------------------------------

fn bench_vault_io(c: &mut Criterion) {
    use san_graph::store::SnapshotVault;

    let tl = ten_k_timeline();
    let final_day = tl.snapshot_csr(tl.max_day().unwrap());
    let bytes = final_day.to_store_bytes();
    let mib = bytes.len() as f64 / (1024.0 * 1024.0);

    // A vault persisting every 7th day, used by the resume benches below.
    let dir = std::env::temp_dir().join(format!("san-bench-vault-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut vault = SnapshotVault::create(&dir).expect("create bench vault");
    vault.save_timeline(&tl, 7).expect("persist timeline");
    let resume_day = 49; // persisted: 49 % 7 == 0

    let mut group = c.benchmark_group("graph/vault_io");
    group.sample_size(10);
    group.bench_function(format!("write_{mib:.1}MiB"), |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(bytes.len());
            final_day.write_to(&mut out).expect("write");
            black_box(out.len())
        });
    });
    group.bench_function(format!("read_{mib:.1}MiB"), |b| {
        b.iter(|| black_box(CsrSan::from_store_bytes(&bytes).expect("read").heap_bytes()));
    });
    // The compressed v2 format on the same snapshot: encode/decode cost vs
    // the raw-column v1 path above, plus the size ratio it buys.
    let bytes_v2 = final_day.to_store_bytes_v2();
    let mib_v2 = bytes_v2.len() as f64 / (1024.0 * 1024.0);
    group.bench_function(format!("write_v2_{mib_v2:.1}MiB"), |b| {
        b.iter(|| black_box(final_day.to_store_bytes_v2().len()));
    });
    group.bench_function(format!("read_v2_{mib_v2:.1}MiB"), |b| {
        b.iter(|| {
            black_box(
                CsrSan::from_store_bytes(&bytes_v2)
                    .expect("read v2")
                    .heap_bytes(),
            )
        });
    });
    criterion::record_value("graph/vault_io", "snapshot_v1_bytes", bytes.len() as f64);
    criterion::record_value("graph/vault_io", "snapshot_v2_bytes", bytes_v2.len() as f64);
    // The suffix sweep [49, 98], step 1, global reciprocity per day.
    // Baseline: the no-vault fallback (delta-patch days 0..=98, withhold
    // the prefix — an empty vault source does exactly that, so the two
    // sides run the same driver and evaluate the same metric calls).
    // Contrast: resume loads day 49 from disk and patches only 50..=98.
    let empty_dir = dir.join("empty");
    let empty_vault = SnapshotVault::create(&empty_dir).expect("create empty vault");
    group.bench_function("suffix_sweep/replay_from_day0", |b| {
        b.iter(|| {
            let series = evolve_metric(
                SnapshotSource::Vault {
                    timeline: &tl,
                    vault: &empty_vault,
                    start: resume_day,
                },
                "recip",
                1,
                1,
                |_, snap| global_reciprocity(&**snap),
            )
            .expect("replay sweep");
            black_box(series.values.len())
        });
    });
    // And the conventional full sweep for scale (every day gets the
    // metric, nothing withheld).
    group.bench_function("full_sweep/replay_from_day0", |b| {
        b.iter(|| {
            let series = evolve_metric(SnapshotSource::Replay(&tl), "recip", 1, 1, |_, snap| {
                global_reciprocity(&**snap)
            })
            .expect("replay sweep");
            black_box(series.values.len())
        });
    });
    group.bench_function("suffix_sweep/resume_from_vault", |b| {
        b.iter(|| {
            let series = evolve_metric(
                SnapshotSource::Vault {
                    timeline: &tl,
                    vault: &vault,
                    start: resume_day,
                },
                "recip",
                1,
                1,
                |_, snap| global_reciprocity(&**snap),
            )
            .expect("vault sweep");
            black_box(series.values.len())
        });
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// The serving layer on the 10k-node/98-day fixture: mmap cold-open
// (mmap + full validation), the cold open of the same day as a v2 full
// file and as a delta onto its resident base, a SnapshotServer cache
// hit (Arc clone) and the eager load_day; a full exact-clustering sweep
// over the mapped view vs the owned CsrSan (the zero-copy read path must
// stay within ~1.3× of owned — in practice it is identical code over
// identical layouts); and a mixed-day query stream of `get` +
// `san_net::execute` on four scoped threads. ROADMAP records the
// medians.
// ---------------------------------------------------------------------------

#[cfg(unix)]
fn bench_mmap_serve(c: &mut Criterion) {
    use san_graph::mmap::MappedSnapshot;
    use san_graph::store::SnapshotVault;
    use san_net::{execute, Query};
    use san_serve::{ServeConfig, SnapshotServer};

    let tl = ten_k_timeline();
    let final_day = tl.max_day().unwrap();
    let owned = tl.snapshot_csr(final_day);

    let dir = std::env::temp_dir().join(format!("san-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut vault = SnapshotVault::create(&dir).expect("create bench vault");
    vault.save_timeline(&tl, 7).expect("persist timeline");
    let final_path = vault.day_path(final_day);

    let server = SnapshotServer::open(&dir, ServeConfig::default()).expect("open server");
    // Prime the cache so `get` below measures the hit path.
    server.get(final_day).expect("prime").expect("served");
    let mapped = MappedSnapshot::open(&final_path).expect("map final day");

    let mut group = c.benchmark_group("graph/mmap_serve");
    group.sample_size(10);
    group.bench_function("cold_open_validate", |b| {
        b.iter(|| {
            let m = MappedSnapshot::open(&final_path).expect("open");
            black_box(m.mapped_bytes())
        });
    });
    group.bench_function("eager_load_for_scale", |b| {
        b.iter(|| {
            let loaded = vault.load_day(final_day).expect("load");
            black_box(loaded.heap_bytes())
        });
    });
    group.bench_function("server_get_hit", |b| {
        b.iter(|| {
            let handle = server.get(final_day).expect("get").expect("served");
            black_box(handle.day())
        });
    });
    group.bench_function("clustering_full_sweep/owned", |b| {
        b.iter(|| black_box(average_clustering_exact(&owned, NodeSet::Social)));
    });
    group.bench_function("clustering_full_sweep/mapped", |b| {
        let view = mapped.view();
        b.iter(|| black_box(average_clustering_exact(&view, NodeSet::Social)));
    });
    // A 256-query mixed-day stream, 4 workers of 64 queries each: each
    // query probes the degrees of 64 random nodes on its day through the
    // wire executor — the serving cost (cache + view construction)
    // dominates, not the metric.
    let mut rng = SplitRng::new(12);
    let queries: Vec<(u32, u64)> = (0..256)
        .map(|_| {
            (
                rng.below(u64::from(final_day) + 1) as u32,
                rng.below(u64::MAX),
            )
        })
        .collect();
    group.bench_function("mixed_query_stream/256q_4threads", |b| {
        b.iter(|| {
            std::thread::scope(|scope| {
                for chunk in queries.chunks(64) {
                    let server = &server;
                    scope.spawn(move || {
                        for &(day, seed) in chunk {
                            let handle = server.get(day).expect("get").expect("served");
                            let view = handle.view();
                            let mut rng = SplitRng::new(seed);
                            let n = view.num_social_nodes() as u64;
                            for _ in 0..64 {
                                let u = rng.below(n) as u32;
                                black_box(execute(Query::Degrees { u }, &view).expect("degrees"));
                            }
                        }
                    });
                }
            });
        });
    });
    // Thundering herd: 8 threads hit one *cold* day simultaneously on a
    // fresh server. With single-flight (SAN-001 fix) the herd performs
    // exactly one map+validate — `total_maps` printed below confirms it —
    // so the measured time is one cold open plus wake-up costs, not 8
    // serialized-by-the-page-cache opens' worth of redundant work.
    group.bench_function("thundering_herd/8threads_cold", |b| {
        let mut total_maps = 0u64;
        let mut total_iters = 0u64;
        b.iter(|| {
            let server =
                SnapshotServer::open(&dir, ServeConfig::default()).expect("open herd server");
            let start = std::sync::Barrier::new(8);
            std::thread::scope(|scope| {
                for _ in 0..8 {
                    let server = &server;
                    let start = &start;
                    scope.spawn(move || {
                        start.wait();
                        let handle = server.get(final_day).expect("get").expect("served");
                        black_box(handle.day());
                    });
                }
            });
            total_maps += server.metrics().io().reads();
            total_iters += 1;
            black_box(server.metrics().dedup_waits())
        });
        eprintln!(
            "thundering_herd/8threads_cold: {total_maps} maps over {total_iters} herds \
             (single-flight holds at 1 map/herd)"
        );
        assert_eq!(total_maps, total_iters, "one map per herd");
    });
    // The v2 opens: the final day as a v2 full file, and as a delta onto
    // its previous grid day held resident, as a serving cache holds it.
    // Set up last, so the rows above run in the same process state as
    // before these two existed.
    let v2_dir = dir.with_extension("v2");
    let _ = std::fs::remove_dir_all(&v2_dir);
    let mut v2_vault = SnapshotVault::create(&v2_dir).expect("create v2 bench vault");
    let base_day = final_day - 7;
    let base = tl.snapshot_csr(base_day);
    v2_vault
        .save_day_v2(base_day, &base)
        .expect("persist v2 base");
    v2_vault
        .save_day_delta(final_day, base_day, &base, &owned)
        .expect("persist delta day");
    let resident_base = v2_vault.map_day(base_day).expect("map v2 base");
    let final_v2_path = v2_dir.join("final-v2.csr");
    std::fs::write(&final_v2_path, owned.to_store_bytes_v2()).expect("write v2 final day");
    group.bench_function("cold_open_v2", |b| {
        b.iter(|| {
            let m = MappedSnapshot::open(&final_v2_path).expect("open v2");
            black_box(m.mapped_bytes())
        });
    });
    group.bench_function("delta_open_onto_base", |b| {
        b.iter(|| {
            let m = v2_vault
                .map_delta_onto(final_day, &resident_base)
                .expect("open delta onto base");
            black_box(m.mapped_bytes())
        });
    });
    group.finish();
    drop(mapped);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&v2_dir);
}

/// The serving stack is mmap-backed and therefore unix-only; elsewhere
/// the group is an empty stand-in so the harness still links.
#[cfg(not(unix))]
fn bench_mmap_serve(_c: &mut Criterion) {}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_mutation, bench_queries, bench_san_vs_csr, bench_timeline_replay,
        bench_timeline_sweep, bench_sharded_sweep, bench_vault_io, bench_mmap_serve
}
fn main() {
    benches();
    // Medians land at the repo root so recordings are versioned alongside
    // the code they measure (suite → metric → ns/bytes).
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_GRAPH.json");
    criterion::write_json(out).expect("write BENCH_GRAPH.json");
    println!("medians written to {out}");
}
