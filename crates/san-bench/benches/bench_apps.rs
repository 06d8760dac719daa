//! Criterion benchmarks for the application-fidelity pipelines (Fig. 19's
//! inner loops), the end-to-end dataset generation + crawl, and the two
//! halves of the daily crawl: the once-per-dataset discovery pass and the
//! rebuild of the weekly sampled days.

use criterion::{black_box, criterion_group, Criterion};
use san_apps::anonymity::{timing_analysis_probability, AnonymityConfig};
use san_apps::sybil::{compromise_uniform, sybil_identities, SybilLimitConfig};
use san_core::model::{SanModel, SanModelParams};
use san_graph::SanRead;
use san_sim::{CrawlLog, GooglePlus};
use san_stats::SplitRng;

fn bench_sybil(c: &mut Criterion) {
    let (_, san) = SanModel::new(SanModelParams::paper_default(60, 40))
        .unwrap()
        .generate(21);
    let n = san.num_social_nodes();
    let mut group = c.benchmark_group("apps/sybil");
    group.sample_size(10);
    group.bench_function("sybil_identities", |b| {
        let mut rng = SplitRng::new(22);
        b.iter(|| {
            black_box(sybil_identities(
                &san,
                SybilLimitConfig::default(),
                n / 50,
                &mut rng,
            ))
        });
    });
    group.finish();
}

fn bench_anonymity(c: &mut Criterion) {
    let (_, san) = SanModel::new(SanModelParams::paper_default(60, 40))
        .unwrap()
        .generate(23);
    let n = san.num_social_nodes();
    let mut rng = SplitRng::new(24);
    let compromised = compromise_uniform(&san, n / 50, &mut rng);
    let mut group = c.benchmark_group("apps/anonymity");
    group.sample_size(10);
    group.bench_function("timing_analysis_20k_walks", |b| {
        let cfg = AnonymityConfig {
            degree_bound: 100,
            circuit_length: 6,
            samples: 20_000,
        };
        let mut rng = SplitRng::new(25);
        b.iter(|| {
            black_box(timing_analysis_probability(
                &san,
                cfg,
                &compromised,
                &mut rng,
            ))
        });
    });
    group.finish();
}

fn bench_dataset(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim/dataset");
    group.sample_size(10);
    group.bench_function("generate_scale10", |b| {
        let gen = GooglePlus::at_scale(10);
        b.iter(|| black_box(gen.generate(26).truth.num_social_links()));
    });
    group.bench_function("generate_and_crawl_scale10", |b| {
        let gen = GooglePlus::at_scale(10);
        b.iter(|| {
            let data = gen.generate(27);
            black_box(data.crawl_final().san.num_social_links())
        });
    });
    let data = GooglePlus::at_scale(10).generate(28);
    group.bench_function("crawl_log_scale10", |b| {
        b.iter(|| black_box(CrawlLog::discover(&data).days.len()));
    });
    group.bench_function("crawled_weekly_days_scale10", |b| {
        data.crawl_log();
        b.iter(|| {
            let mut links = 0;
            data.for_each_crawled_day(7, |_, crawled| links += crawled.num_social_links());
            black_box(links)
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_sybil, bench_anonymity, bench_dataset
}
fn main() {
    benches();
    // Medians land at the repo root so recordings are versioned alongside
    // the code they measure (suite → metric → ns/bytes).
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_APPS.json");
    criterion::write_json(out).expect("write BENCH_APPS.json");
    println!("medians written to {out}");
}
