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

use std::process::Command;

const CRAWL_EXPERIMENTS: &[&str] = &[
    "fig2", "fig3", "coverage", "fig4", "fig6", "fig7", "fig8", "fig11", "fig12",
];

fn check_seed(seed: u32) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(CRAWL_EXPERIMENTS)
        .args(["--scale", "6", "--seed", &seed.to_string()])
        .output()
        .expect("run experiments");
    assert!(out.status.success(), "experiments failed: {out:?}");
    let path = format!(
        "{}/tests/golden/crawl_s6_seed{seed}.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let golden = std::fs::read(&path).expect("read golden file");
    if out.stdout != golden {
        let (got, want) = (
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&golden),
        );
        let first = got.lines().zip(want.lines()).position(|(g, w)| g != w);
        panic!(
            "seed {seed}: output differs from {path}: first differing line index {first:?}, \
             {} lines vs {} golden",
            got.lines().count(),
            want.lines().count()
        );
    }
}

#[test]
fn crawl_experiments_match_golden_seed1() {
    check_seed(1);
}

#[test]
fn crawl_experiments_match_golden_seed2() {
    check_seed(2);
}

#[test]
fn crawl_experiments_match_golden_seed42() {
    check_seed(42);
}
