//! # san-bench — the experiment harness
//!
//! One target per table/figure of the paper. Run them with
//!
//! ```text
//! cargo run -p san-bench --release --bin experiments -- <experiment> [--scale N] [--seed N]
//! cargo run -p san-bench --release --bin experiments -- all
//! ```
//!
//! where `<experiment>` is one of `fig2 … fig19`, `closure`, `theory`,
//! `alg2`, `coverage` (see [`exp`] for the full experiment ↔ module
//! index). Criterion micro-benchmarks live under `benches/`.
//!
//! All experiments share one synthetic Google+ dataset ([`Ctx`]), generated
//! at a configurable scale (`--scale` multiplies the Phase II arrival
//! rate). Absolute numbers therefore differ from the 30 M-user paper
//! dataset; the *shapes* — which distribution family wins, which model
//! matches, where the curves bend — are the reproduction targets. Each
//! experiment's "Expectation (paper)" doc states the paper's side; the
//! run prints ours (`PAPER.md` at the repository root has the abstract).

pub mod exp;
pub mod load;

use san_graph::crawler::CrawlSnapshot;
use san_sim::{GooglePlus, GooglePlusData};

/// Shared experiment context: one generated dataset + its final crawl.
///
/// The daily crawl is not a field: the evolution experiments read it
/// through `data`, whose [`GooglePlusData::crawl_log`] runs the crawl's
/// discovery once per dataset on first use, and whose
/// [`GooglePlusData::for_each_crawled_day`] rebuilds only the crawled days
/// an experiment samples. Setting up a `Ctx` therefore pays for the final
/// crawl only.
pub struct Ctx {
    /// The synthetic Google+ (ground truth + visibility + labels + the
    /// lazily filled daily crawl log).
    pub data: GooglePlusData,
    /// The final-day crawled snapshot (what "the last snapshot" means in
    /// the paper's single-snapshot analyses).
    pub crawl: CrawlSnapshot,
    /// Phase II arrivals per day used for generation.
    pub scale: u32,
    /// Master seed.
    pub seed: u64,
}

impl Ctx {
    /// Generates the shared dataset. `scale` is the Phase II daily arrival
    /// rate (default 40 ⇒ ≈10 k users over 98 days).
    pub fn new(scale: u32, seed: u64) -> Ctx {
        let data = GooglePlus::at_scale(scale).generate(seed);
        let crawl = data.crawl_final();
        Ctx {
            data,
            crawl,
            scale,
            seed,
        }
    }
}

/// Prints an experiment banner.
pub fn banner(id: &str, title: &str) {
    println!();
    println!("================================================================");
    println!("{id}: {title}");
    println!("================================================================");
}

/// Prints a named `(x, y)` series as aligned rows.
pub fn print_series(x_label: &str, y_label: &str, rows: &[(f64, f64)]) {
    println!("  {x_label:>12}  {y_label:>14}");
    for (x, y) in rows {
        println!("  {x:>12.3}  {y:>14.6}");
    }
}

/// Prints a series with integer x (days, degrees).
pub fn print_series_u(x_label: &str, y_label: &str, rows: &[(u64, f64)]) {
    println!("  {x_label:>12}  {y_label:>14}");
    for (x, y) in rows {
        println!("  {x:>12}  {y:>14.6}");
    }
}

/// Downsamples a long series to at most `max_rows` (keeps first and last).
pub fn downsample<T: Copy>(rows: &[T], max_rows: usize) -> Vec<T> {
    if rows.len() <= max_rows || max_rows < 2 {
        return rows.to_vec();
    }
    let step = (rows.len() - 1) as f64 / (max_rows - 1) as f64;
    (0..max_rows)
        .map(|i| rows[(i as f64 * step).round() as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn downsample_keeps_endpoints() {
        let rows: Vec<u32> = (0..100).collect();
        let d = downsample(&rows, 10);
        assert_eq!(d.len(), 10);
        assert_eq!(d[0], 0);
        assert_eq!(*d.last().unwrap(), 99);
    }

    #[test]
    fn downsample_short_series_untouched() {
        let rows = vec![1, 2, 3];
        assert_eq!(downsample(&rows, 10), rows);
    }

    #[test]
    fn ctx_generates_consistent_dataset() {
        let ctx = Ctx::new(4, 9);
        assert!(ctx.crawl.san.num_social_nodes() > 100);
        ctx.crawl.san.check_consistency().unwrap();
        assert!(ctx.crawl.node_coverage > 0.5);
    }
}
