//! Golden output of the thirteen experiments that do not read the daily
//! crawl: the measurement figures on the final network, the Fig. 15
//! likelihood grid, the §5 generator runs (`fig16`–`fig19`, `theory`)
//! and Algorithm 2.
//!
//! `golden/model_s6_seed{N}.txt` is the stdout of
//!
//! ```text
//! experiments fig5 fig9 fig10 fig13 fig14 fig15 closure fig16 fig17 fig18 fig19 theory alg2 \
//!     --scale 6 --seed N
//! ```
//!
//! recorded before the generator read stored `Γs` rows and before
//! Algorithm 2 ran on the frozen crawl. Both changes keep every RNG draw,
//! so the bytes must not move.

mod golden;

const MODEL_EXPERIMENTS: &[&str] = &[
    "fig5", "fig9", "fig10", "fig13", "fig14", "fig15", "closure", "fig16", "fig17", "fig18",
    "fig19", "theory", "alg2",
];

#[test]
fn model_experiments_match_golden_seed1() {
    golden::check("model", MODEL_EXPERIMENTS, 1);
}

#[test]
fn model_experiments_match_golden_seed2() {
    golden::check("model", MODEL_EXPERIMENTS, 2);
}

#[test]
fn model_experiments_match_golden_seed42() {
    golden::check("model", MODEL_EXPERIMENTS, 42);
}
