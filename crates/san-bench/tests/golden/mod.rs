//! The byte-for-byte comparison shared by the golden-output suites: run
//! the `experiments` binary and diff its stdout against
//! `tests/golden/{prefix}_s6_seed{N}.txt`.

use std::process::Command;

/// Runs `experiments <ids> --scale 6 --seed <seed>` and asserts that its
/// stdout equals the golden file `{prefix}_s6_seed{seed}.txt`.
pub fn check(prefix: &str, experiments: &[&str], seed: u32) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(experiments)
        .args(["--scale", "6", "--seed", &seed.to_string()])
        .output()
        .expect("run experiments");
    assert!(out.status.success(), "experiments failed: {out:?}");
    let path = format!(
        "{}/tests/golden/{prefix}_s6_seed{seed}.txt",
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
