//! Load harness for the `san-net` TCP front-end over loopback: a
//! closed-loop and an open-loop replay of the mixed query stream
//! against a real `NetServer` (thread-per-core pool over a
//! `SnapshotServer` on the 10k-node/98-day fixture), plus a deliberate
//! overload run that must shed as typed `Busy`. The p50/p99/p999 of
//! each run land in `BENCH_NET.json` through the criterion shim's
//! `record_value`; ROADMAP records the medians.

use criterion::{black_box, criterion_group, Criterion};

#[cfg(unix)]
fn bench_net(c: &mut Criterion) {
    use san_bench::load::{closed_loop, open_loop, StreamSpec};
    use san_core::model::{SanModel, SanModelParams};
    use san_graph::store::SnapshotVault;
    use san_graph::SanRead;
    use san_net::{NetConfig, NetServer, Query};
    use san_serve::{ServeConfig, SnapshotServer};
    use std::time::Duration;

    let quick = std::env::var_os("CRITERION_QUICK").is_some_and(|v| v == "1");
    let per_client: u64 = if quick { 200 } else { 2_000 };

    // 98 days × ~102 arrivals ≈ 10k social nodes, every 7th day persisted
    // — the same fixture the mmap/serve benches use.
    let (tl, _) = SanModel::new(SanModelParams::paper_default(98, 102))
        .unwrap()
        .generate(9);
    let max_day = tl.max_day().unwrap();
    let dir = std::env::temp_dir().join(format!("san-bench-net-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut vault = SnapshotVault::create(&dir).expect("create bench vault");
    vault.save_timeline(&tl, 7).expect("persist timeline");

    // Node ids up to the mid-timeline population: early days answer some
    // typed NodeOutOfRange (counted, not timed out), later days mostly Ok.
    let spec = StreamSpec {
        seed: 17,
        max_day,
        max_node: tl.snapshot_csr(49).num_social_nodes() as u32,
    };

    // Thread-per-core is the production default, but the harness pins
    // explicit pool sizes so a 4-client fleet is actually served
    // concurrently even on a single-core CI box.
    let server = {
        let snaps = SnapshotServer::open(&dir, ServeConfig::default()).expect("open vault");
        let net = NetConfig {
            workers: 4,
            max_inflight: 16,
            ..NetConfig::default()
        };
        NetServer::serve(snaps, "127.0.0.1:0", net).expect("bind loopback")
    };
    let addr = server.addr();

    // Single-connection round-trip medians for three representative
    // queries (point lookup → page → whole-graph metric).
    let mut group = c.benchmark_group("net/rtt");
    group.sample_size(10);
    let mut client = san_net::NetClient::connect(addr).expect("connect");
    group.bench_function("counts", |b| {
        b.iter(|| black_box(client.query(max_day, Query::Counts).expect("counts")));
    });
    group.bench_function("out_neighbors_64", |b| {
        b.iter(|| {
            let q = Query::OutNeighbors {
                u: 1,
                offset: 0,
                limit: 64,
            };
            black_box(client.query(max_day, q).expect("neighbors"))
        });
    });
    group.bench_function("local_clustering", |b| {
        b.iter(|| {
            let q = Query::LocalClustering { u: 1 };
            black_box(client.query(max_day, q).expect("clustering"))
        });
    });
    group.finish();
    drop(client);

    // Closed loop: 4 clients, back-to-back requests — best-case RTT at
    // fixed concurrency; throughput floats.
    let report = closed_loop(addr, 4, per_client, spec);
    assert_eq!(report.transport_errors, 0, "closed loop lost a client");
    assert!(report.served > 0, "closed loop served nothing");
    println!(
        "net/closed_loop: {} reqs, {:.0} req/s, p50 {} ns, p99 {} ns, p999 {} ns",
        report.sent,
        report.throughput_rps(),
        report.p50_nanos(),
        report.p99_nanos(),
        report.p999_nanos()
    );
    criterion::record_value("net/closed_loop", "p50_ns", report.p50_nanos() as f64);
    criterion::record_value("net/closed_loop", "p99_ns", report.p99_nanos() as f64);
    criterion::record_value("net/closed_loop", "p999_ns", report.p999_nanos() as f64);
    criterion::record_value("net/closed_loop", "throughput_rps", report.throughput_rps());
    criterion::record_value("net/closed_loop", "served", report.served as f64);
    criterion::record_value("net/closed_loop", "busy", report.busy as f64);

    // Open loop: same 4 clients on a fixed 500 µs cadence each (≈8k
    // offered req/s); latency is schedule-anchored, so queueing counts.
    let interval = Duration::from_micros(500);
    let report = open_loop(addr, 4, per_client, interval, spec);
    assert_eq!(report.transport_errors, 0, "open loop lost a client");
    assert!(report.served > 0, "open loop served nothing");
    let offered_rps = 4.0 / interval.as_secs_f64();
    println!(
        "net/open_loop: {} reqs offered at {:.0} req/s, p50 {} ns, p99 {} ns, p999 {} ns",
        report.sent,
        offered_rps,
        report.p50_nanos(),
        report.p99_nanos(),
        report.p999_nanos()
    );
    criterion::record_value("net/open_loop", "p50_ns", report.p50_nanos() as f64);
    criterion::record_value("net/open_loop", "p99_ns", report.p99_nanos() as f64);
    criterion::record_value("net/open_loop", "p999_ns", report.p999_nanos() as f64);
    criterion::record_value("net/open_loop", "offered_rps", offered_rps);
    criterion::record_value("net/open_loop", "served", report.served as f64);
    server.shutdown();

    // Deliberate overload: a one-request in-flight cap against 8
    // closed-loop clients — admission control must shed as typed `Busy`
    // (never a hang; transport_errors stays 0), while the survivors
    // still get served.
    let overloaded = {
        let snaps = SnapshotServer::open(&dir, ServeConfig::default()).expect("open vault");
        let net = NetConfig {
            workers: 8,
            max_inflight: 1,
            ..NetConfig::default()
        };
        NetServer::serve(snaps, "127.0.0.1:0", net).expect("bind loopback")
    };
    let report = closed_loop(overloaded.addr(), 8, per_client / 2, spec);
    assert_eq!(report.transport_errors, 0, "overload hung a client");
    assert!(report.busy > 0, "overload never answered Busy");
    assert!(report.served > 0, "overload starved everyone");
    let busy_share = report.busy as f64 / report.sent as f64;
    println!(
        "net/overload: {} reqs, busy share {:.3}, served {}",
        report.sent, busy_share, report.served
    );
    criterion::record_value("net/overload", "busy", report.busy as f64);
    criterion::record_value("net/overload", "served", report.served as f64);
    criterion::record_value("net/overload", "busy_share_pct", busy_share * 100.0);
    overloaded.shutdown();

    let _ = std::fs::remove_dir_all(&dir);
}

/// The TCP server rides the unix-only mmap serving stack; elsewhere the
/// harness still links and writes an empty `BENCH_NET.json`.
#[cfg(not(unix))]
fn bench_net(_c: &mut Criterion) {}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_net
}
fn main() {
    benches();
    // Medians land at the repo root so recordings are versioned alongside
    // the code they measure (suite → metric → ns / req/s / counts).
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_NET.json");
    criterion::write_json(out).expect("write BENCH_NET.json");
    println!("medians written to {out}");
}
