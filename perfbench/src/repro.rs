//! `repro`: what a reader of the paper runs. Each dataset is set up as
//! `Ctx::new` does (generate the synthetic Google+, crawl its final day);
//! the timed pass runs every experiment of `san_bench::exp::ALL` on it,
//! with the tables discarded. Passes over fresh datasets repeat until
//! the time budget is spent.

use crate::{dataset_seed, stats, sys::SilencedStdout, Outcome, Run};
use san_bench::{exp, Ctx};
use san_sim::GooglePlus;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Phase II arrivals per day (≈4 k users over 98 days).
const SCALE: u32 = 20;

/// Builds the context exactly as `Ctx::new` does, timing generation and
/// the final crawl as separate spans. Returns (ctx, total, generate,
/// crawl) seconds.
fn setup(r: &mut Run, scale: u32, seed: u64) -> (Ctx, f64, f64, f64) {
    let root = r.spans.open("setup", None);
    let (data, generate_s) = r.spans.time("setup.generate", Some(root), || {
        GooglePlus::at_scale(scale).generate(seed)
    });
    let (crawl, crawl_s) = r
        .spans
        .time("setup.crawl", Some(root), || data.crawl_final());
    let total = r.spans.close(root);
    let ctx = Ctx {
        data,
        crawl,
        scale,
        seed,
    };
    (ctx, total, generate_s, crawl_s)
}

pub fn run(r: &mut Run) -> Outcome {
    let scale = if r.tiny { 6 } else { SCALE };
    let mut out = Outcome::default();
    let (mut setup_s, mut generate_s, mut crawl_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut pass_s = Vec::new();
    let mut exp_s: Vec<Vec<f64>> = vec![Vec::new(); exp::ALL.len()];
    let mut unattributed = Vec::new();
    let mut timed = 0.0;
    for j in 0.. {
        let (ctx, total, generate, crawl) = setup(r, scale, dataset_seed(r.seed, j));
        setup_s.push(total);
        generate_s.push(generate);
        crawl_s.push(crawl);
        out.fixture.add(
            ctx.data.truth.num_social_nodes(),
            ctx.data.timeline.events().len() as u64,
            u64::from(ctx.data.timeline.max_day().map_or(0, |d| d + 1)),
        );
        if let Err(e) = ctx.crawl.san.check_consistency() {
            out.errors
                .push(format!("dataset {j}: final crawl is inconsistent: {e}"));
        }

        let silenced = SilencedStdout::new();
        if let Err(e) = &silenced {
            out.errors.push(format!("cannot silence stdout: {e}"));
        }
        let pass = r.spans.open("pass", None);
        let mut in_layers = 0.0;
        for (i, id) in exp::ALL.iter().enumerate() {
            let (ran, secs) = r.spans.time(format!("exp.{id}"), Some(pass), || {
                catch_unwind(AssertUnwindSafe(|| exp::run(id, &ctx)))
            });
            out.attempted += 1;
            if !matches!(ran, Ok(true)) {
                out.failed += 1;
                out.errors
                    .push(format!("dataset {j}: experiment {id} failed"));
            }
            exp_s[i].push(secs);
            in_layers += secs;
        }
        let secs = r.spans.close(pass);
        drop(silenced);
        pass_s.push(secs);
        unattributed.push(100.0 * (secs - in_layers) / secs);
        timed += secs;
        if timed >= r.seconds.as_secs_f64() {
            break;
        }
    }

    let m = &mut out.metrics;
    m.set("setup_s", stats::median(&setup_s));
    m.set("wall_s", stats::median(&pass_s));
    m.set(
        "ok_pct",
        100.0 * (out.attempted - out.failed) as f64 / out.attempted as f64,
    );
    m.set("setup.generate_s", stats::median(&generate_s));
    m.set("setup.crawl_s", stats::median(&crawl_s));
    for (id, secs) in exp::ALL.iter().zip(&exp_s) {
        m.set(&format!("exp.{id}_s"), stats::median(secs));
    }
    m.set("trace.unattributed_pct", stats::median(&unattributed));
    out
}
