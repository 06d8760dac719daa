//! §2.2 experiments: growth curves (Figs. 2–3) and crawl coverage.
//!
//! The crawled curves are the crawler's per-day counts, read from the
//! dataset's one crawl log ([`GooglePlusData::crawl_log`]) without
//! building any crawled graph. The ground-truth overlays are counter-only,
//! so they ride [`evolve_metric_counts`] — the non-freezing count path of
//! the snapshot pipeline — instead of freezing or crawling anything.
//!
//! [`GooglePlusData::crawl_log`]: san_sim::GooglePlusData::crawl_log

use crate::{banner, downsample, print_series_u, Ctx};
use san_graph::crawler::CrawlCounts;
use san_metrics::evolution::{evolve_metric_counts, PhaseBounds};

/// Figure 2: growth in the number of social and attribute nodes.
///
/// Expectation (paper): both curves show the three-phase pattern — steep
/// Phase I, steady Phase II, steep Phase III.
pub fn fig2(ctx: &Ctx) {
    banner("Fig 2", "growth of social and attribute nodes (crawled)");
    let social = crawled_series(ctx, |c| c.social_nodes as f64);
    let attrs = crawled_series(ctx, |c| c.attr_nodes as f64);
    println!("(a) social nodes");
    print_series_u("day", "nodes", &downsample(&social, 20));
    println!("(b) attribute nodes");
    print_series_u("day", "nodes", &downsample(&attrs, 20));
    print_truth_overlay(ctx, "nodes", |c| c.social_nodes as f64);
    phase_deltas("social nodes", &social);
}

/// Figure 3: growth in the number of social and attribute links.
pub fn fig3(ctx: &Ctx) {
    banner("Fig 3", "growth of social and attribute links (crawled)");
    let social = crawled_series(ctx, |c| c.social_links as f64);
    let attrs = crawled_series(ctx, |c| c.attr_links as f64);
    println!("(a) social links");
    print_series_u("day", "links", &downsample(&social, 20));
    println!("(b) attribute links");
    print_series_u("day", "links", &downsample(&attrs, 20));
    print_truth_overlay(ctx, "links", |c| c.social_links as f64);
    phase_deltas("social links", &social);
}

/// One value per crawled day, read from the dataset's crawl log.
fn crawled_series(ctx: &Ctx, value: impl Fn(&CrawlCounts) -> f64) -> Vec<(u64, f64)> {
    ctx.data
        .crawl_log()
        .days
        .iter()
        .map(|row| (u64::from(row.day), value(&row.counts)))
        .collect()
}

/// Prints the ground-truth counterpart of a crawled growth curve through
/// the non-freezing counter path of the snapshot pipeline.
fn print_truth_overlay(ctx: &Ctx, unit: &str, counter: impl FnMut(&san_graph::DayCounts) -> f64) {
    let truth = evolve_metric_counts(&ctx.data.timeline, "ground truth", 1, counter);
    println!("(a, ground truth — counter path, zero freezes)");
    let rows: Vec<(u64, f64)> = truth
        .days
        .iter()
        .zip(&truth.values)
        .map(|(d, v)| (u64::from(*d), *v))
        .collect();
    print_series_u("day", unit, &downsample(&rows, 20));
}

/// §2.2 crawl-coverage claim: the BFS crawler over public in+out lists
/// covers ≥ 70 % of the ground truth.
pub fn coverage(ctx: &Ctx) {
    banner(
        "Coverage",
        "crawler coverage vs ground truth (>= 70% claim)",
    );
    let rows = crawled_series(ctx, |c| c.node_coverage);
    print_series_u("day", "node coverage", &downsample(&rows, 15));
    let last = ctx.crawl.node_coverage;
    println!(
        "final-day node coverage = {last:.3} (links: {:.3}); paper claims >= 0.70",
        ctx.crawl.link_coverage
    );
}

/// Prints per-phase daily growth rates — the quantitative form of the
/// "three distinct phases" observation.
fn phase_deltas(label: &str, series: &[(u64, f64)]) {
    let b = PhaseBounds::PAPER;
    let rate = |lo: u64, hi: u64| -> f64 {
        let first = series.iter().find(|(d, _)| *d >= lo);
        let last = series.iter().rev().find(|(d, _)| *d <= hi);
        match (first, last) {
            (Some(&(d0, v0)), Some(&(d1, v1))) if d1 > d0 => (v1 - v0) / (d1 - d0) as f64,
            _ => 0.0,
        }
    };
    let r1 = rate(1, u64::from(b.phase1_end));
    let r2 = rate(u64::from(b.phase1_end) + 1, u64::from(b.phase2_end));
    let r3 = rate(u64::from(b.phase2_end) + 1, u64::MAX);
    println!("{label}: daily growth I={r1:.1}  II={r2:.1}  III={r3:.1} (expect I,III >> II)");
}
