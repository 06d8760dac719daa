//! The gate: runs every audit rule over the real workspace sources.
//! `cargo test -p san-audit` fails iff any invariant is violated.

use san_audit::Audit;

#[test]
fn workspace_is_clean() {
    let audit = Audit::load().expect("load workspace and audit/ manifests");
    // Sanity: the walk actually found the tree (a broken root path would
    // otherwise vacuously pass every rule).
    assert!(
        audit.ws.files.len() > 50,
        "suspiciously few files lexed: {}",
        audit.ws.files.len()
    );
    assert!(
        audit.ws.file("crates/san-graph/src/store.rs").is_some(),
        "store.rs not found — workspace walk is broken"
    );
    let violations = audit.run_all();
    assert!(
        violations.is_empty(),
        "{} audit violation(s):\n{}",
        violations.len(),
        violations
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The unsafe surface stays small and known: only the mmap and
/// zero-copy view modules, plus the one-instruction TSC read in the
/// trace clock, may contain `unsafe` at all.
#[test]
fn unsafe_stays_confined_to_known_modules() {
    let audit = Audit::load().expect("load");
    let counts = san_audit::rules::unsafe_counts(&audit.ws);
    let allowed_files = [
        "crates/san-graph/src/mmap.rs",
        "crates/san-graph/src/view.rs",
        "crates/san-obs/src/clock.rs",
    ];
    for file in counts.keys() {
        assert!(
            allowed_files.contains(&file.as_str()),
            "unsafe escaped its confinement into {file}"
        );
    }
}

/// The panic allowlist only ever shrinks. This pins the current total so
/// a regenerated allowlist that *grew* fails even though the two-way
/// ratchet alone would accept it.
#[test]
fn panic_allowlist_total_is_ratcheted() {
    // The audited library code holds no allowlisted panic site: the last
    // two (the statically-infallible `SnapshotSource::Replay` expects in
    // san-metrics::evolution) left with the sweep wrappers that held
    // them. Keep it at zero — return a typed error instead. Zero is the
    // floor, so the cap check is an equality.
    const MAX_TOTAL: u64 = 0;
    let audit = Audit::load().expect("load");
    let total: u64 = audit
        .panic_allowlist
        .entries("allow")
        .map(|e| e.int("count"))
        .sum();
    assert_eq!(
        total, MAX_TOTAL,
        "panic allowlist grew to {total} sites (cap {MAX_TOTAL}) — fix the new \
         panic sites instead of allowlisting them"
    );
}
