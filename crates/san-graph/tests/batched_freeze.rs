//! Batched freeze ≡ per-day freeze: a [`StreamingVaultWriter`], which
//! buffers the days off its grid and patches its snapshot only on
//! persisted days, writes a vault whose every day file and manifest are
//! **byte-equal** to one written from a day-by-day [`DeltaFreezer`]
//! through `save_day_v2` / `save_day_delta`; a `snapshot()` taken between
//! grid days equals the per-day state; and a link to an unknown node
//! still panics before its day is published.
//!
//! The writer patches and encodes on a worker thread and commits on the
//! caller's, so the suite also pins what crosses that boundary: a commit
//! failure comes back typed, a worker panic resumes on the caller with
//! its payload, and dropping the writer joins the worker without
//! publishing anything more.

use proptest::prelude::*;
use san_graph::prelude::*;
use san_graph::store::StreamingVaultWriter;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const STEPS: [u32; 3] = [1, 2, 7];
const FULL_EVERY: [u32; 3] = [1, 3, 4];

/// A fresh scratch directory under the system temp dir; removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        use std::sync::atomic::{AtomicU32, Ordering};
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "san-batched-{tag}-{}-{}",
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

/// Every file of a vault directory, by name.
fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("read vault dir")
        .map(|entry| {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).expect("read vault file"))
        })
        .collect()
}

/// Strategy: per-day event lists of an arbitrary timeline (the op mix of
/// the delta-equivalence suite), empty days included.
fn arb_days(max_ops: usize) -> impl Strategy<Value = Vec<Vec<SanEvent>>> {
    prop::collection::vec((0u8..6, any::<u32>(), any::<u32>()), 1..max_ops).prop_map(|ops| {
        let mut tb = TimelineBuilder::new();
        for (op, x, y) in ops {
            match op {
                0 => {
                    tb.add_social_node();
                }
                1 => {
                    tb.add_attr_node(AttrType::PAPER_TYPES[x as usize % 4]);
                }
                2 | 3 => {
                    let ns = tb.san().num_social_nodes() as u32;
                    if ns >= 2 {
                        tb.add_social_link(SocialId(x % ns), SocialId(y % ns));
                    }
                }
                4 => {
                    let ns = tb.san().num_social_nodes() as u32;
                    let na = tb.san().num_attr_nodes() as u32;
                    if ns >= 1 && na >= 1 {
                        tb.add_attr_link(SocialId(x % ns), AttrId(y % na));
                    }
                }
                _ => {
                    tb.advance_to_day(tb.day() + 1 + (x % 3));
                }
            }
        }
        let (tl, _) = tb.finish();
        let mut days = vec![Vec::new(); tl.max_day().map_or(0, |d| d as usize + 1)];
        for &ev in tl.events() {
            days[ev.day() as usize].push(ev);
        }
        days
    })
}

/// The reference vault: a per-day `DeltaFreezer`, persisted on the
/// writer's grid with the writer's full/delta pattern. Returns the
/// end-of-day snapshot of every day.
fn reference_vault(
    dir: &Path,
    days: &[Vec<SanEvent>],
    step: u32,
    full_every: u32,
) -> Vec<Arc<CsrSan>> {
    let mut vault = SnapshotVault::create(dir).expect("create reference vault");
    let mut freezer = DeltaFreezer::new();
    let mut prev: Option<(u32, Arc<CsrSan>)> = None;
    let mut deltas_since_full = 0;
    let mut states = Vec::new();
    for (day, events) in days.iter().enumerate() {
        let day = day as u32;
        freezer.apply_day(events);
        let snap = freezer.snapshot();
        if day.is_multiple_of(step) || day as usize == days.len() - 1 {
            match prev.take() {
                Some((base, base_snap)) if deltas_since_full < full_every - 1 => {
                    vault
                        .save_day_delta(day, base, &base_snap, &snap)
                        .expect("save delta day");
                    deltas_since_full += 1;
                }
                _ => {
                    vault.save_day_v2(day, &snap).expect("save full day");
                    deltas_since_full = 0;
                }
            }
            prev = Some((day, Arc::clone(&snap)));
        }
        states.push(snap);
    }
    states
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For every grid, the writer's vault is byte-equal to the per-day
    /// reference, and a snapshot taken off the grid is the per-day state.
    #[test]
    fn writer_vault_is_byte_equal_to_per_day_reference(
        days in arb_days(120),
        probe_raw in any::<u32>(),
    ) {
        prop_assume!(!days.is_empty());
        let probe = probe_raw as usize % days.len();
        for step in STEPS {
            for full_every in FULL_EVERY {
                let (written, expected) = (TempDir::new("writer"), TempDir::new("reference"));
                let states = reference_vault(&expected.0, &days, step, full_every);
                let mut vault = SnapshotVault::create(&written.0).expect("create vault");
                let mut writer = StreamingVaultWriter::new(&mut vault, step, full_every);
                for (day, events) in days.iter().enumerate() {
                    writer.apply_day(events).expect("apply day");
                    if day == probe {
                        prop_assert_eq!(
                            &*writer.snapshot(),
                            &*states[day],
                            "step={} full_every={} day={}",
                            step,
                            full_every,
                            day
                        );
                    }
                }
                let saved = writer.finish().expect("finish");
                let expect_saved: Vec<u32> = (0..days.len() as u32)
                    .filter(|d| d.is_multiple_of(step) || *d as usize == days.len() - 1)
                    .collect();
                prop_assert_eq!(saved, expect_saved);
                let (got, want) = (files(&written.0), files(&expected.0));
                prop_assert_eq!(
                    got.keys().collect::<Vec<_>>(),
                    want.keys().collect::<Vec<_>>(),
                    "step={} full_every={}",
                    step,
                    full_every
                );
                for (name, bytes) in &want {
                    prop_assert!(
                        &got[name] == bytes,
                        "step={} full_every={}: {} differs",
                        step,
                        full_every,
                        name
                    );
                }
            }
        }
    }
}

/// A link to a node that does not exist yet, on a day off the grid,
/// panics when the next grid day patches — and that day is never
/// published, neither as a file nor in the manifest.
#[test]
fn unknown_endpoint_panics_before_the_grid_day_is_published() {
    let node = |day| SanEvent::SocialNode { day };
    let link = |day, src, dst| SanEvent::SocialLink {
        day,
        src: SocialId(src),
        dst: SocialId(dst),
    };
    let days = [
        vec![node(0), node(0), link(0, 0, 1)],
        vec![node(1)],
        vec![link(2, 2, 0)],
        vec![link(3, 1, 9)], // unknown destination, off the grid
        vec![node(4)],
    ];
    let tmp = TempDir::new("unknown");
    let mut vault = SnapshotVault::create(&tmp.0).expect("create vault");
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut writer = StreamingVaultWriter::new(&mut vault, 2, 3);
        for events in &days {
            writer.apply_day(events).expect("apply day");
        }
    }));
    let message = outcome.expect_err("the unknown endpoint must panic");
    let text = message
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| message.downcast_ref::<&str>().copied())
        .unwrap_or("");
    assert!(text.contains("unknown destination"), "panic: {text}");
    assert_eq!(vault.days().collect::<Vec<_>>(), vec![0, 2]);
    assert!(!vault.day_path(4).exists());
    let reopened = SnapshotVault::open(&tmp.0).expect("reopen vault");
    assert_eq!(reopened.days().collect::<Vec<_>>(), vec![0, 2]);
}

/// A growing chain: two users linked on day 0, then one user a day
/// linked both ways to the previous one.
fn chain_days(num_days: u32) -> Vec<Vec<SanEvent>> {
    (0..num_days)
        .map(|day| {
            let link = |src, dst| SanEvent::SocialLink {
                day,
                src: SocialId(src),
                dst: SocialId(dst),
            };
            match day {
                0 => vec![
                    SanEvent::SocialNode { day },
                    SanEvent::SocialNode { day },
                    link(0, 1),
                ],
                _ => vec![
                    SanEvent::SocialNode { day },
                    link(day + 1, day),
                    link(day, day + 1),
                ],
            }
        })
        .collect()
}

/// Names in `dir` ending in `.tmp`.
fn tmp_files(dir: &Path) -> Vec<String> {
    files(dir)
        .into_keys()
        .filter(|name| name.ends_with(".tmp"))
        .collect()
}

/// The vault directory moves away while the day in flight is still being
/// encoded: its commit fails with a typed `Io` error, and the vault — in
/// memory and reopened where it went — holds exactly the days committed
/// before, each intact.
#[test]
fn vault_moved_away_mid_stream_fails_typed_and_keeps_committed_days() {
    let days = chain_days(12);
    let (tmp, aside) = (TempDir::new("moved"), TempDir::new("aside"));
    let mut vault = SnapshotVault::create(&tmp.0).expect("create vault");
    let mut errors = Vec::new();
    {
        let mut writer = StreamingVaultWriter::new(&mut vault, 2, 3);
        for (day, events) in days.iter().enumerate() {
            if day == 7 {
                // Grid days 0, 2 and 4 are committed; day 6 is in flight.
                std::fs::rename(&tmp.0, &aside.0).expect("move the vault away");
            }
            errors.extend(writer.apply_day(events).err());
        }
        errors.extend(writer.finish().err());
    }
    match errors.first() {
        Some(StoreError::Io(_)) => {}
        other => panic!("expected a typed Io error first, got {other:?}"),
    }
    assert_eq!(vault.days().collect::<Vec<_>>(), vec![0, 2, 4]);
    assert!(!tmp.0.exists(), "nothing recreated the moved directory");
    let reopened = SnapshotVault::open(&aside.0).expect("reopen the moved vault");
    assert_eq!(reopened.days().collect::<Vec<_>>(), vec![0, 2, 4]);
    assert!(tmp_files(&aside.0).is_empty());
    let mut freezer = DeltaFreezer::new();
    for (day, events) in days.iter().enumerate().take(5) {
        freezer.apply_day(events);
        if day % 2 == 0 {
            let loaded = reopened.load_day(day as u32).expect("load committed day");
            assert_eq!(*loaded, *freezer.snapshot(), "day {day}");
        }
    }
}

/// Dropping a writer without `finish` joins its worker (which releases
/// every snapshot it held) and publishes nothing beyond the days already
/// committed: not the grid day in flight, not the trailing off-grid day.
#[test]
fn dropping_a_writer_joins_the_worker_and_publishes_nothing_more() {
    let days = chain_days(10);
    let tmp = TempDir::new("dropped");
    let mut vault = SnapshotVault::create(&tmp.0).expect("create vault");
    let held = {
        let mut writer = StreamingVaultWriter::new(&mut vault, 2, 3);
        for events in &days {
            writer.apply_day(events).expect("apply day");
        }
        // Waits for grid day 8 without committing it.
        writer.snapshot()
    };
    assert_eq!(Arc::strong_count(&held), 1, "the joined worker let go");
    assert_eq!(held.num_social_nodes(), 11);
    assert_eq!(vault.days().collect::<Vec<_>>(), vec![0, 2, 4, 6]);
    assert!(!vault.day_path(8).exists() && !vault.day_path(9).exists());
    assert!(tmp_files(&tmp.0).is_empty());
    let reopened = SnapshotVault::open(&tmp.0).expect("reopen vault");
    assert_eq!(reopened.days().collect::<Vec<_>>(), vec![0, 2, 4, 6]);
}

/// A worker panic resumes, with its original payload, at the first call
/// that waits for the worker — whichever it is.
#[test]
fn worker_panic_resumes_at_the_next_waiting_call() {
    type Call = fn(&mut Option<StreamingVaultWriter<'_>>);
    let calls: [(&str, Call); 4] = [
        ("apply_day", |w| {
            if let Some(w) = w {
                let _ = w.apply_day(&[]); // day 3, off the grid: no wait
                let _ = w.apply_day(&[]); // day 4 waits for day 2
            }
        }),
        ("snapshot", |w| {
            if let Some(w) = w {
                w.snapshot();
            }
        }),
        ("v1_equivalent_bytes", |w| {
            if let Some(w) = w {
                w.v1_equivalent_bytes();
            }
        }),
        ("finish", |w| {
            if let Some(w) = w.take() {
                let _ = w.finish();
            }
        }),
    ];
    for (name, call) in calls {
        let tmp = TempDir::new("resume");
        let mut vault = SnapshotVault::create(&tmp.0).expect("create vault");
        let mut writer = Some(StreamingVaultWriter::new(&mut vault, 2, 3));
        if let Some(w) = writer.as_mut() {
            w.apply_day(&chain_days(1)[0]).expect("day 0");
            // Day 1 is off the grid: buffered, not yet patched.
            let bad = SanEvent::SocialLink {
                day: 1,
                src: SocialId(0),
                dst: SocialId(7),
            };
            w.apply_day(&[bad]).expect("an off-grid day only buffers");
            // Grid day 2 sends the bad batch and commits day 0.
            w.apply_day(&[]).expect("day 2 only hands its batch over");
        }
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| call(&mut writer)));
        let message = outcome.expect_err("the worker panic must resume");
        let text = message
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| message.downcast_ref::<&str>().copied())
            .unwrap_or("");
        assert!(text.contains("unknown destination"), "{name}: {text}");
        drop(writer);
        assert_eq!(vault.days().collect::<Vec<_>>(), vec![0], "{name}");
    }
}
