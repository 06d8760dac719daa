//! Observability overhead harness: (1) how long one full Prometheus
//! text-exposition encode of the three layers' meters takes on a warm
//! server, and (2) what per-request tracing costs on the wire — the
//! counts-query RTT measured against two otherwise identical loopback
//! servers, tracing on vs off. The medians land in `BENCH_OBS.json`;
//! the acceptance gate holds the traced overhead under 5% of the
//! untraced RTT.
//!
//! The overhead estimator is **paired**: each pair is one traced and
//! one untraced batch taken back to back, alternating which server goes
//! first, and contributes the relative difference of its two batch
//! medians. The gate reads the median of those per-pair differences. A
//! batch median absorbs per-request jitter; pairing cancels drift that
//! hits both sides of a pair alike; and the median across pairs ignores
//! the few pairs a scheduler spike landed on one side of, so no single
//! lucky or unlucky batch decides the gate. The recorded
//! `traced_p50_ns`/`untraced_p50_ns` are each side's median batch
//! median, and `pairs` is the pair count.

use criterion::{black_box, criterion_group, Criterion};

/// Median of a sample set (destructive; empty → default).
#[cfg(unix)]
fn median<T: Copy + Default + PartialOrd>(samples: &mut [T]) -> T {
    if samples.is_empty() {
        return T::default();
    }
    samples.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    samples[samples.len() / 2]
}

#[cfg(unix)]
fn bench_obs(c: &mut Criterion) {
    use san_core::model::{SanModel, SanModelParams};
    use san_graph::store::SnapshotVault;
    use san_net::server::{NetConfig, NetServer};
    use san_net::{NetClient, Query};
    use san_serve::{ServeConfig, SnapshotServer};
    use std::time::Instant;

    let quick = std::env::var_os("CRITERION_QUICK").is_some_and(|v| v == "1");
    let (pairs, per_batch): (usize, u64) = if quick { (8, 50) } else { (20, 200) };

    // The same 10k-node/98-day fixture the net bench serves.
    let (tl, _) = SanModel::new(SanModelParams::paper_default(98, 102))
        .unwrap()
        .generate(9);
    let max_day = tl.max_day().unwrap();
    let dir = std::env::temp_dir().join(format!("san-bench-obs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut vault = SnapshotVault::create(&dir).expect("create bench vault");
    vault.save_timeline(&tl, 7).expect("persist timeline");

    // One worker per server: the RTT probe is a single closed-loop
    // client, and extra idle workers only add scheduler noise on the
    // small CI boxes this gate must hold on.
    let start = |trace: bool| -> NetServer {
        let snaps = SnapshotServer::open(&dir, ServeConfig::default()).expect("open vault");
        let net = NetConfig {
            workers: 1,
            max_inflight: 8,
            trace,
            ..NetConfig::default()
        };
        NetServer::serve(snaps, "127.0.0.1:0", net).expect("bind loopback")
    };
    let traced = start(true);
    let untraced = start(false);

    // Warm both servers (map the day, fill the latency histograms) so
    // the encode bench scrapes meters with real content.
    let mut warm_traced = NetClient::connect(traced.addr()).expect("connect");
    let mut warm_untraced = NetClient::connect(untraced.addr()).expect("connect");
    for _ in 0..100 {
        warm_traced.query(max_day, Query::Counts).expect("warm");
        warm_untraced.query(max_day, Query::Counts).expect("warm");
    }

    // (1) Exposition encode: the full three-layer scrape, in-process —
    // what the admin listener and the stats query both pay per scrape.
    let scrape_len = traced.stats_text().len();
    let mut group = c.benchmark_group("obs/encode");
    group.sample_size(10);
    group.bench_function("prometheus_text", |b| {
        b.iter(|| black_box(traced.stats_text()));
    });
    group.finish();
    criterion::record_value("obs/encode", "scrape_bytes", scrape_len as f64);

    // (2) Traced-vs-untraced RTT, one counts query per request, in
    // batch pairs (see the module doc for the estimator).
    let rtt_batch_median = |client: &mut NetClient| -> u64 {
        let mut samples: Vec<u64> = (0..per_batch)
            .map(|_| {
                let t0 = Instant::now();
                black_box(client.query(max_day, Query::Counts).expect("counts"));
                t0.elapsed().as_nanos() as u64
            })
            .collect();
        median(&mut samples)
    };
    let (mut on, mut off, mut diff_pct) = (Vec::new(), Vec::new(), Vec::new());
    for pair in 0..pairs {
        let (t, u) = if pair % 2 == 0 {
            let t = rtt_batch_median(&mut warm_traced);
            (t, rtt_batch_median(&mut warm_untraced))
        } else {
            let u = rtt_batch_median(&mut warm_untraced);
            (rtt_batch_median(&mut warm_traced), u)
        };
        on.push(t);
        off.push(u);
        diff_pct.push((t as f64 - u as f64) / u as f64 * 100.0);
    }
    let (p50_on, p50_off) = (median(&mut on), median(&mut off));
    // Signed percentage: negative means tracing measured *faster* than
    // untraced this run (pure scheduling noise — the real cost is a few
    // clock reads and one seqlock publish per request).
    let overhead_pct = median(&mut diff_pct);
    println!(
        "obs/trace_overhead: counts RTT p50 traced {p50_on} ns vs untraced {p50_off} ns; median paired overhead {overhead_pct:+.2}% over {pairs} pairs"
    );
    criterion::record_value("obs/trace_overhead", "traced_p50_ns", p50_on as f64);
    criterion::record_value("obs/trace_overhead", "untraced_p50_ns", p50_off as f64);
    criterion::record_value("obs/trace_overhead", "overhead_pct", overhead_pct);
    criterion::record_value("obs/trace_overhead", "pairs", pairs as f64);
    // The recorded (full-sample) run gates at 5%; the CRITERION_QUICK
    // smoke keeps a looser sanity bound — 8×50 samples on a shared CI
    // runner can't resolve a ~2% signal against scheduler noise.
    let gate_pct = if quick { 15.0 } else { 5.0 };
    assert!(
        overhead_pct < gate_pct,
        "tracing overhead {overhead_pct:.2}% breaches the {gate_pct}% acceptance gate"
    );
    // The traced server really did trace (and the untraced one didn't).
    assert!(
        traced.trace_ring().recorded() > 0,
        "traced ring stayed empty"
    );
    assert_eq!(untraced.trace_ring().recorded(), 0, "untraced ring filled");

    drop(warm_traced);
    drop(warm_untraced);
    traced.shutdown();
    untraced.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The TCP server rides the unix-only mmap serving stack; elsewhere the
/// harness still links and writes an empty `BENCH_OBS.json`.
#[cfg(not(unix))]
fn bench_obs(_c: &mut Criterion) {}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_obs
}
fn main() {
    benches();
    // Medians land at the repo root so recordings are versioned alongside
    // the code they measure.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_OBS.json");
    criterion::write_json(out).expect("write BENCH_OBS.json");
    println!("medians written to {out}");
}
