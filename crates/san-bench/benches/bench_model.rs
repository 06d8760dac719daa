//! Criterion benchmarks for the generative models: generation throughput,
//! the exact-vs-fast LAPA sampling trade-off (§7), attachment likelihood
//! evaluation (one-cell grids, and Fig. 15's whole 52-cell grid in one
//! replay), and the lifetime-distribution ablation.

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use san_bench::exp::modeling::fig15_models;
use san_core::attach::AttachModel;
use san_core::model::{LifetimeDist, SanModel, SanModelParams};
use san_graph::{San, SocialId};
use san_sim::GooglePlus;
use san_stats::SplitRng;

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("model/generate");
    group.sample_size(10);
    for &per_day in &[10u32, 40] {
        group.bench_with_input(
            BenchmarkId::new("paper_model", per_day),
            &per_day,
            |b, &pd| {
                let model = SanModel::new(SanModelParams::paper_default(60, pd)).unwrap();
                b.iter(|| black_box(model.generate(11).1.num_social_links()));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("zhel_baseline", per_day),
            &per_day,
            |b, &pd| {
                let model = SanModel::new(SanModelParams::zhel_baseline(60, pd)).unwrap();
                b.iter(|| black_box(model.generate(11).1.num_social_links()));
            },
        );
    }
    // The `pipeline` workload's synthesis: streaming Google+ generation at
    // scale 400 (about 79 k users, 0.5 M events) into a sink that drops
    // every day's events, so only growing the SAN is timed.
    group.bench_with_input(
        BenchmarkId::new("google_plus", 400),
        &400u32,
        |b, &scale| {
            let gp = GooglePlus::at_scale(scale);
            b.iter(|| black_box(gp.generate_streaming(1, |_, _| {}).num_social_links()));
        },
    );
    // Ablation: exponential vs truncated-normal lifetimes (same scale).
    group.bench_function("lifetime_truncnormal", |b| {
        let model = SanModel::new(SanModelParams::paper_default(60, 20)).unwrap();
        b.iter(|| black_box(model.generate(12).1.num_social_links()));
    });
    group.bench_function("lifetime_exponential", |b| {
        let mut p = SanModelParams::paper_default(60, 20);
        p.lifetime = LifetimeDist::Exponential { mean: 8.0 };
        let model = SanModel::new(p).unwrap();
        b.iter(|| black_box(model.generate(12).1.num_social_links()));
    });
    group.finish();
}

fn bench_lapa_sampling(c: &mut Criterion) {
    // Exact O(n) scan vs the O(|Γa|) mixture sampler on the same network.
    let (_, san) = SanModel::new(SanModelParams::paper_default(60, 40))
        .unwrap()
        .generate(13);
    let model = AttachModel::Lapa {
        alpha: 1.0,
        beta: 20.0,
    };
    // Rebuild a sampler over the final network.
    let mut sampler = san_core::attach::LapaSampler::new(20.0).unwrap();
    let mut shadow = San::new();
    for u in san.social_nodes() {
        shadow.add_social_node();
        sampler.on_social_node(u);
    }
    for a in san.attr_nodes() {
        shadow.add_attr_node(san.attr_type(a));
        sampler.on_attr_node();
    }
    for (u, a) in san.attr_links() {
        shadow.add_attr_link(u, a);
        sampler.on_attr_link(&shadow, u, a);
    }
    for (u, v) in san.social_links() {
        shadow.add_social_link(u, v);
        sampler.on_social_link(&shadow, v);
    }
    let n = san.num_social_nodes() as u64;
    let mut group = c.benchmark_group("model/lapa_sampling");
    group.bench_function("exact_linear_scan", |b| {
        let mut rng = SplitRng::new(14);
        b.iter(|| {
            let u = SocialId(rng.below(n) as u32);
            black_box(model.sample_exact(&san, u, &mut rng))
        });
    });
    group.bench_function("fast_mixture_sampler", |b| {
        let mut rng = SplitRng::new(14);
        b.iter(|| {
            let u = SocialId(rng.below(n) as u32);
            black_box(sampler.sample(&san, u, &mut rng))
        });
    });
    group.finish();
}

fn bench_likelihood(c: &mut Criterion) {
    let (tl, _) = SanModel::new(SanModelParams::paper_default(40, 20))
        .unwrap()
        .generate(15);
    let mut group = c.benchmark_group("model/likelihood");
    group.sample_size(10);
    group.bench_function("pa", |b| {
        b.iter(|| black_box(AttachModel::Pa { alpha: 1.0 }.log_likelihood(&tl).unwrap()));
    });
    group.bench_function("lapa", |b| {
        b.iter(|| {
            black_box(
                AttachModel::Lapa {
                    alpha: 1.0,
                    beta: 20.0,
                }
                .log_likelihood(&tl)
                .unwrap(),
            )
        });
    });
    group.bench_function("papa", |b| {
        b.iter(|| {
            black_box(
                AttachModel::Papa {
                    alpha: 1.0,
                    beta: 2.0,
                }
                .log_likelihood(&tl)
                .unwrap(),
            )
        });
    });
    let models = fig15_models();
    group.bench_function("fig15_grid", |b| {
        b.iter(|| black_box(AttachModel::log_likelihood_grid(&tl, &models).unwrap()));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_generation, bench_lapa_sampling, bench_likelihood
}
fn main() {
    benches();
    // Medians land at the repo root so recordings are versioned alongside
    // the code they measure (suite → metric → ns/bytes).
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_MODEL.json");
    criterion::write_json(out).expect("write BENCH_MODEL.json");
    println!("medians written to {out}");
}
