//! Google+-scale smoke: synthesize a ~million-node, 98-day timeline and
//! persist it **as it grows** — the bounded-memory pipeline of the v2
//! store. Events stream day by day from the generative engine straight
//! into a [`StreamingVaultWriter`]; at no point is the full event log or
//! more than two snapshots resident.
//!
//! After synthesis the vault is reopened cold and spot-checked: the final
//! persisted day must be bit-identical to the ground truth, full days
//! must open fast, and delta days must reconstruct through their chain.
//! Both open timings are the median of five `load_day` calls.
//!
//! Environment knobs (all optional):
//!
//! * `SCALE_ARRIVALS` — Phase II arrivals/day (default 10000 ≈ 1.6 M
//!   social nodes over the three-phase schedule; use ~100 for a smoke run)
//! * `SCALE_DAYS` — simulated days (default 98)
//! * `SCALE_STEP` — persist every `step`-th day (default 7)
//! * `SCALE_FULL_EVERY` — a full v2 day every N persisted days, deltas
//!   between (default 4)
//! * `SCALE_SEED` — RNG seed (default 1)
//! * `SCALE_DIR` — vault directory (default: fresh temp dir, removed on
//!   success)
//! * `SCALE_JSON` — when set, write the recorded metrics to this path as
//!   JSON (`graph/scale_1m` suite)

use san_graph::store::{DayFormat, SnapshotVault, StreamingVaultWriter};
use san_graph::SanRead;
use san_sim::{GooglePlus, GooglePlusParams};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `load_day` calls per timed open; the recorded row is their median.
const LOADS: usize = 5;

fn env_u32(name: &str, default: u32) -> u32 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Peak resident set size of this process in bytes (Linux `VmHWM`).
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// Loads `day` [`LOADS`] times; returns the snapshot and the median time.
fn median_load(vault: &SnapshotVault, day: u32) -> (Arc<san_graph::CsrSan>, Duration) {
    let mut times = Vec::with_capacity(LOADS);
    let mut last = None;
    for _ in 0..LOADS {
        drop(last.take());
        let t = Instant::now();
        last = Some(vault.load_day(day).expect("load day"));
        times.push(t.elapsed());
    }
    times.sort();
    (last.expect("LOADS > 0"), times[LOADS / 2])
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn main() {
    let arrivals = env_u32("SCALE_ARRIVALS", 10_000);
    let days = env_u32("SCALE_DAYS", 98);
    let step = env_u32("SCALE_STEP", 7);
    let full_every = env_u32("SCALE_FULL_EVERY", 4);
    let seed = env_u64("SCALE_SEED", 1);
    let (dir, keep_dir) = match std::env::var("SCALE_DIR") {
        Ok(d) => (PathBuf::from(d), true),
        Err(_) => (
            std::env::temp_dir().join(format!("san-scale-{}", std::process::id())),
            false,
        ),
    };

    let mut params = GooglePlusParams::at_scale(arrivals);
    params.days = days;
    let gp = GooglePlus::new(params).expect("valid scale parameters");
    let expected_nodes = gp.params().engine.total_social_nodes();
    println!(
        "synthesize {days} days @ {arrivals}/day (Phase II) ≈ {expected_nodes} social nodes \
         → {} (step {step}, full every {full_every})",
        dir.display()
    );

    // --- Streaming synthesize-and-persist -------------------------------
    let _ = std::fs::remove_dir_all(&dir);
    let mut vault = SnapshotVault::create(&dir).expect("create vault");
    let started = Instant::now();
    let mut events_total = 0u64;
    let mut writer = StreamingVaultWriter::new(&mut vault, step, full_every);
    let truth = gp.generate_streaming(seed, |day, events| {
        events_total += events.len() as u64;
        writer.apply_day(events).expect("persist day");
        if day % 14 == 0 {
            eprintln!(
                "  day {day:3}: +{} events ({events_total} total, {:.0?} elapsed)",
                events.len(),
                started.elapsed()
            );
        }
    });
    let v1_equivalent = writer.v1_equivalent_bytes();
    let saved = writer.finish().expect("persist final day");
    let synth_secs = started.elapsed().as_secs_f64();
    let events_per_sec = events_total as f64 / synth_secs;
    let peak_rss = peak_rss_bytes();
    let v2_disk = vault.disk_bytes();
    drop(vault);

    println!(
        "synthesized {} nodes / {} links ({events_total} events) in {synth_secs:.1} s \
         = {events_per_sec:.0} events/s",
        truth.num_social_nodes(),
        truth.num_social_links(),
    );
    if let Some(rss) = peak_rss {
        println!("peak RSS {:.0} MiB", mib(rss));
    }
    println!(
        "persisted {} days: v2 vault {:.1} MiB vs v1-equivalent {:.1} MiB ({:.2}x)",
        saved.len(),
        mib(v2_disk),
        mib(v1_equivalent),
        v2_disk as f64 / v1_equivalent.max(1) as f64,
    );

    // --- Cold reopen + spot-check ---------------------------------------
    let vault = SnapshotVault::open(&dir).expect("reopen vault");
    let last_full = saved
        .iter()
        .rev()
        .find(|&&d| vault.day_format(d) == Some(DayFormat::V2Full))
        .copied()
        .expect("at least day 0 is full");
    let deepest_delta = saved
        .iter()
        .rev()
        .find(|&&d| matches!(vault.day_format(d), Some(DayFormat::V2Delta { .. })))
        .copied();

    let (full_snap, cold_open) = median_load(&vault, last_full);
    println!(
        "cold open of full day {last_full} ({} nodes): {cold_open:.0?} (median of {LOADS} loads)",
        full_snap.num_social_nodes()
    );

    let delta_reconstruct = deepest_delta.map(|day| {
        let (snap, took) = median_load(&vault, day);
        let links = vault.metrics().delta_links_applied() / LOADS as u64;
        println!(
            "delta-chain reconstruct of day {day} ({} nodes, {links} links applied): {took:.0?} \
             (median of {LOADS} loads)",
            snap.num_social_nodes()
        );
        took
    });

    let final_day = *saved.last().expect("nonempty grid");
    let loaded = vault.load_day(final_day).expect("load final day");
    assert_eq!(
        *loaded,
        truth.freeze(),
        "reopened final day must be bit-identical to the ground truth"
    );
    println!("spot-check passed: day {final_day} == ground truth");

    // --- Record medians --------------------------------------------------
    let suite = "graph/scale_1m";
    criterion::record_value(suite, "social_nodes", truth.num_social_nodes() as f64);
    criterion::record_value(suite, "social_links", truth.num_social_links() as f64);
    criterion::record_value(suite, "events_total", events_total as f64);
    criterion::record_value(suite, "synthesis_events_per_sec", events_per_sec);
    criterion::record_value(suite, "v1_equivalent_bytes", v1_equivalent as f64);
    criterion::record_value(suite, "v2_vault_bytes", v2_disk as f64);
    criterion::record_value(suite, "cold_open_full_ns", cold_open.as_nanos() as f64);
    if let Some(took) = delta_reconstruct {
        criterion::record_value(suite, "delta_chain_reconstruct_ns", took.as_nanos() as f64);
    }
    if let Some(rss) = peak_rss {
        criterion::record_value(suite, "peak_rss_bytes", rss as f64);
    }
    if let Ok(json) = std::env::var("SCALE_JSON") {
        criterion::write_json(&json).expect("write SCALE_JSON");
        println!("metrics written to {json}");
    }

    if !keep_dir {
        let _ = std::fs::remove_dir_all(&dir);
    }
}
