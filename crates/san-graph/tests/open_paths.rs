//! The open paths of a vault day agree. For every day of a vault that
//! mixes a v1 root, v2 full days and delta chains, the views served by
//! [`SnapshotVault::map_day`], [`SnapshotVault::map_delta_onto`] (onto
//! the day's base) and [`MappedSnapshot::open`] hold exactly the snapshot
//! [`SnapshotVault::load_day`] returns, and report its v1-equivalent size.
//!
//! The second test corrupts a delta day in each way the delta checks
//! catch and shows that the eager chain load, the standalone map and the
//! one-merge open onto a resident base all reject it with the same typed
//! [`StoreError`] variant. The mapped delta paths serve the merged
//! snapshot as it is, with no second validation, so these checks are the
//! whole of their defence.

#![cfg(unix)]

use san_graph::store::{fnv1a64, DayFormat, SnapshotVault, StoreError, CHECKSUM_BYTES};
use san_graph::{AttrType, CsrSan, MappedSnapshot, SanRead, SanTimeline, TimelineBuilder};
use std::path::PathBuf;

/// A fresh scratch directory under the system temp dir; removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        use std::sync::atomic::{AtomicU32, Ordering};
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "san-open-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Seven days of growth: each day a new user with reciprocal links to
/// the previous one and an extra link back to user 0, and on even days a
/// new city every new user joins, so every column grows.
fn grown_timeline() -> SanTimeline {
    let mut tb = TimelineBuilder::new();
    let mut users = vec![tb.add_social_node()];
    let school = tb.add_attr_node(AttrType::School);
    tb.add_attr_link(users[0], school);
    for day in 1..=6u32 {
        tb.advance_to_day(day);
        let u = tb.add_social_node();
        let prev = users[day as usize - 1];
        tb.add_social_link(u, prev);
        tb.add_social_link(prev, u);
        if day > 1 {
            tb.add_social_link(u, users[0]);
        }
        if day % 2 == 0 {
            let city = tb.add_attr_node(AttrType::City);
            tb.add_attr_link(u, city);
        } else {
            tb.add_attr_link(u, school);
        }
        users.push(u);
    }
    tb.finish().0
}

/// Asserts that a served snapshot holds exactly `expected`.
fn assert_serves(mapped: &MappedSnapshot, expected: &CsrSan, ctx: &str) {
    assert_eq!(mapped.view().to_owned_csr(), *expected, "{ctx}: columns");
    assert_eq!(
        mapped.mapped_bytes() as u64,
        expected.store_bytes_len(),
        "{ctx}: v1-equivalent size"
    );
}

#[test]
fn every_open_path_serves_what_load_day_returns() {
    let tl = grown_timeline();
    let snaps: Vec<CsrSan> = (0..=6).map(|d| tl.snapshot_csr(d)).collect();
    let dir = TempDir::new("agree");
    let mut vault = SnapshotVault::create(&dir.0).expect("create vault");
    // v1 root, a two-link chain, a v2 full day, a two-link chain, and a
    // closing v2 full day.
    vault.save_day(0, &snaps[0]).expect("v1 root");
    for day in 1..=6u32 {
        let (base, snap) = (&snaps[day as usize - 1], &snaps[day as usize]);
        if day % 3 == 0 {
            vault.save_day_v2(day, snap).expect("v2 full day");
        } else {
            vault
                .save_day_delta(day, day - 1, base, snap)
                .expect("delta day");
        }
    }

    for day in 0..=6u32 {
        let expected = vault.load_day(day).expect("load_day");
        assert_eq!(*expected, snaps[day as usize], "day {day}: load_day");
        let ctx = format!("day {day}");
        assert_serves(&vault.map_day(day).expect("map_day"), &expected, &ctx);
        let opened = MappedSnapshot::open(vault.day_path(day));
        match vault.day_format(day).expect("persisted") {
            DayFormat::V2Delta { base } => {
                let err = opened.expect_err("a delta file alone is not a snapshot");
                assert!(
                    matches!(err, StoreError::DeltaWithoutBase { base_day } if base_day == base),
                    "{ctx}: {err}"
                );
                // Onto its base however that base is held: a v1 mapping
                // (day 1), a delta-built day (days 2 and 5), a v2 full day
                // (day 4).
                let resident = vault.map_day(base).expect("map base");
                let onto = vault.map_delta_onto(day, &resident).expect("onto base");
                assert_serves(&onto, &expected, &format!("{ctx} onto day {base}"));
            }
            DayFormat::V1Full | DayFormat::V2Full => {
                assert_serves(&opened.expect("open"), &expected, &ctx);
            }
        }
    }
}

/// Overwrites the `N` little-endian bytes at `at` and re-seals the
/// trailer, so the checksum cannot be what rejects the edit.
fn patched<const N: usize>(bytes: &[u8], at: usize, value: [u8; N]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[at..at + N].copy_from_slice(&value);
    let body = out.len() - CHECKSUM_BYTES;
    let sum = fnv1a64(&out[..body]);
    out[body..].copy_from_slice(&sum.to_le_bytes());
    out
}

// Delta header fields, by byte offset (see the `store` module docs).
const BASE_DAY_AT: usize = 16;
const SOCIAL_ROWS_AT: usize = 20;
const SOCIAL_LINKS_AT: usize = 36;

#[test]
fn delta_corruption_is_rejected_alike_on_every_path() {
    let tl = grown_timeline();
    let base = tl.snapshot_csr(1);
    let next = tl.snapshot_csr(2);
    let dir = TempDir::new("corrupt");
    let mut vault = SnapshotVault::create(&dir.0).expect("create vault");
    vault.save_day(1, &base).expect("v1 root");
    vault.save_day_delta(2, 1, &base, &next).expect("delta day");
    let pristine = std::fs::read(vault.day_path(2)).expect("read delta");
    let links = u64::from_le_bytes(
        pristine[SOCIAL_LINKS_AT..SOCIAL_LINKS_AT + 8]
            .try_into()
            .unwrap(),
    );

    // A delta written against a base that lacks the real base's two
    // social links re-adds them. Its link counter is raised by two so the
    // counters add up on the real base, and only the duplicates are wrong.
    let mut short = TimelineBuilder::new();
    let users: Vec<_> = (0..base.num_social_nodes())
        .map(|_| short.add_social_node())
        .collect();
    let school = short.add_attr_node(AttrType::School);
    for &u in &users {
        short.add_attr_link(u, school);
    }
    let short = short.finish().1.freeze();
    assert_eq!(short.num_social_links(), 0);
    assert_eq!(base.num_social_links(), 2);
    assert_eq!(short.num_attr_links(), base.num_attr_links());
    let scratch = TempDir::new("corrupt-scratch");
    let mut other = SnapshotVault::create(&scratch.0).expect("scratch vault");
    other.save_day(1, &short).expect("short base");
    other
        .save_day_delta(2, 1, &short, &next)
        .expect("delta against the short base");
    let dup = std::fs::read(other.day_path(2)).expect("read dup delta");
    let dup_links = u64::from_le_bytes(
        dup[SOCIAL_LINKS_AT..SOCIAL_LINKS_AT + 8]
            .try_into()
            .unwrap(),
    );
    let dup = patched(&dup, SOCIAL_LINKS_AT, (dup_links + 2).to_le_bytes());

    let mut flipped = pristine.clone();
    *flipped.last_mut().expect("trailer") ^= 0x01;

    // Writes `bytes` over the delta day and opens it on every path:
    // standalone eager, standalone mapped, and onto the resident base.
    let resident = vault.map_day(1).expect("map base");
    let rejected = |bytes: &[u8]| -> [StoreError; 3] {
        std::fs::write(vault.day_path(2), bytes).expect("write corrupt delta");
        [
            vault.load_day(2).expect_err("load_day must reject"),
            vault.map_day(2).expect_err("map_day must reject"),
            vault
                .map_delta_onto(2, &resident)
                .expect_err("map_delta_onto must reject"),
        ]
    };
    for err in rejected(&patched(&pristine, BASE_DAY_AT, 0u32.to_le_bytes())) {
        assert!(
            matches!(err, StoreError::BadManifest { .. }),
            "wrong base pointer: {err}"
        );
    }
    for err in rejected(&dup) {
        assert!(
            matches!(
                err,
                StoreError::BadCodec {
                    array: "out_add",
                    ..
                }
            ),
            "add duplicating a base edge: {err}"
        );
    }
    for err in rejected(&patched(&pristine, SOCIAL_ROWS_AT, 0u64.to_le_bytes())) {
        assert!(
            matches!(err, StoreError::IdOutOfRange { .. }),
            "out-of-range id: {err}"
        );
    }
    for err in rejected(&patched(
        &pristine,
        SOCIAL_LINKS_AT,
        (links + 1).to_le_bytes(),
    )) {
        assert!(
            matches!(
                err,
                StoreError::CountMismatch {
                    what: "num_social_links",
                    ..
                }
            ),
            "counter mismatch: {err}"
        );
    }
    for err in rejected(&flipped) {
        assert!(
            matches!(err, StoreError::BadChecksum { .. }),
            "flipped trailer: {err}"
        );
    }
    // The pristine delta still opens on every path.
    std::fs::write(vault.day_path(2), &pristine).expect("restore delta");
    assert_eq!(*vault.load_day(2).expect("load"), next);
    assert_serves(&vault.map_day(2).expect("map"), &next, "restored");
    assert_serves(
        &vault.map_delta_onto(2, &resident).expect("onto"),
        &next,
        "restored onto base",
    );
}
