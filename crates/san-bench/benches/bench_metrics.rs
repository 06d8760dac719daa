//! Criterion benchmarks for the measurement library, including two
//! accuracy/latency trade-offs: exact vs Algorithm 2 clustering (the
//! `alg2` experiment in `san_bench::exp::modeling`), and HyperANF
//! register width.

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use san_core::model::{SanModel, SanModelParams};
use san_graph::San;
use san_metrics::clustering::{approx_average_clustering_k, average_clustering_exact, NodeSet};
use san_metrics::hyperanf::social_effective_diameter;
use san_metrics::jdd::{social_assortativity, social_knn};
use san_metrics::reciprocity::global_reciprocity;
use san_stats::SplitRng;

fn test_san() -> San {
    SanModel::new(SanModelParams::paper_default(80, 40))
        .unwrap()
        .generate(7)
        .1
}

fn bench_clustering(c: &mut Criterion) {
    let san = test_san();
    let mut group = c.benchmark_group("metrics/clustering");
    group.sample_size(10);
    group.bench_function("exact", |b| {
        b.iter(|| black_box(average_clustering_exact(&san, NodeSet::Social)));
    });
    for &k in &[1_000usize, 10_000, 100_000] {
        group.bench_with_input(BenchmarkId::new("algorithm2", k), &k, |b, &k| {
            let mut rng = SplitRng::new(8);
            b.iter(|| {
                black_box(approx_average_clustering_k(
                    &san,
                    NodeSet::Social,
                    k,
                    &mut rng,
                ))
            });
        });
    }
    group.finish();
}

fn bench_hyperanf(c: &mut Criterion) {
    let san = test_san();
    let mut group = c.benchmark_group("metrics/hyperanf");
    group.sample_size(10);
    for &b_param in &[4u8, 6, 8] {
        group.bench_with_input(
            BenchmarkId::new("effective_diameter_b", b_param),
            &b_param,
            |b, &bp| {
                b.iter(|| black_box(social_effective_diameter(&san, 0.9, bp, 9)));
            },
        );
    }
    group.finish();
}

fn bench_scalar_metrics(c: &mut Criterion) {
    let san = test_san();
    let mut group = c.benchmark_group("metrics/scalar");
    group.sample_size(10);
    group.bench_function("global_reciprocity", |b| {
        b.iter(|| black_box(global_reciprocity(&san)));
    });
    group.bench_function("social_knn", |b| {
        b.iter(|| black_box(social_knn(&san).len()));
    });
    group.bench_function("social_assortativity", |b| {
        b.iter(|| black_box(social_assortativity(&san)));
    });
    group.finish();
}

fn bench_degree_fitting(c: &mut Criterion) {
    let san = test_san();
    let degrees: Vec<u64> = san
        .social_nodes()
        .map(|u| san.out_degree(u) as u64)
        .collect();
    let mut group = c.benchmark_group("metrics/fitting");
    group.sample_size(10);
    group.bench_function("fit_degree_distribution", |b| {
        b.iter(|| black_box(san_stats::fit_degree_distribution(&degrees).unwrap().family));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_clustering, bench_hyperanf, bench_scalar_metrics, bench_degree_fitting
}
fn main() {
    benches();
    // Medians land at the repo root so recordings are versioned alongside
    // the code they measure (suite → metric → ns/bytes).
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_METRICS.json");
    criterion::write_json(out).expect("write BENCH_METRICS.json");
    println!("medians written to {out}");
}
