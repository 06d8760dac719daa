//! Golden output of the nine experiments that read the daily crawl.
//!
//! `golden/crawl_s6_seed{N}.txt` is the stdout of
//!
//! ```text
//! experiments fig2 fig3 coverage fig4 fig6 fig7 fig8 fig11 fig12 --scale 6 --seed N
//! ```
//!
//! recorded from the sequential crawl that materialised every day. The
//! crawl log and the per-sampled-day rebuild must print the same bytes,
//! including fig4's and fig8's sampled clustering columns, which pin the
//! RNG draw order.

mod golden;

const CRAWL_EXPERIMENTS: &[&str] = &[
    "fig2", "fig3", "coverage", "fig4", "fig6", "fig7", "fig8", "fig11", "fig12",
];

#[test]
fn crawl_experiments_match_golden_seed1() {
    golden::check("crawl", CRAWL_EXPERIMENTS, 1);
}

#[test]
fn crawl_experiments_match_golden_seed2() {
    golden::check("crawl", CRAWL_EXPERIMENTS, 2);
}

#[test]
fn crawl_experiments_match_golden_seed42() {
    golden::check("crawl", CRAWL_EXPERIMENTS, 42);
}
