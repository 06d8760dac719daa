//! `pipeline`: the offline write-then-open-once path. Streaming synthesis
//! feeds a `StreamingVaultWriter` (every 7th day, a full day every 4th
//! persist); then every persisted day is fetched cold once through the
//! serve cache and swept by two san-metrics kernels over its view.

use crate::{dataset_seed, stats, Outcome, Run};
use san_graph::store::{DayFormat, SnapshotVault, StreamingVaultWriter};
use san_metrics::clustering::{average_clustering_exact, NodeSet};
use san_metrics::reciprocity::global_reciprocity;
use san_serve::{ServeConfig, SnapshotServer};
use san_sim::GooglePlus;
use std::hint::black_box;
use std::path::Path;

/// Warm-up passes per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Phase II arrivals per day of the warm-up pass (≈10 k users) and of
/// each timed pass (≈80 k users, ≈0.5 M events).
const WARM_SCALE: u32 = 40;
const SCALE: u32 = 400;
const STEP: u32 = 7;
const FULL_EVERY: u32 = 4;

/// Layer times and counts of one pass.
#[derive(Default)]
struct Pass {
    total_s: f64,
    synth_s: f64,
    persist_s: f64,
    open_full_s: f64,
    open_delta_s: f64,
    clustering_s: f64,
    reciprocity_s: f64,
    events: u64,
    nodes: u64,
    days: u64,
    days_ok: u64,
    vault_bytes: u64,
    v1_equiv_bytes: u64,
    delta_links: u64,
    resident_mib: f64,
}

/// One write-then-open pass into a fresh vault at `dir`. Checks land in
/// `errors`; the timed span covers everything up to the last sweep.
fn pass(r: &mut Run, scale: u32, seed: u64, dir: &Path, errors: &mut Vec<String>) -> Pass {
    let _ = std::fs::remove_dir_all(dir);
    let mut p = Pass::default();
    let spans = &mut r.spans;
    let root = spans.open("pass", None);
    let mut vault = match SnapshotVault::create(dir) {
        Ok(v) => v,
        Err(e) => {
            errors.push(format!("creating vault: {e}"));
            return p;
        }
    };

    let synth = spans.open("synthesize", Some(root));
    let mut writer = StreamingVaultWriter::new(&mut vault, STEP, FULL_EVERY);
    let mut write_error = None;
    let (mut events, mut persist_s) = (0u64, 0.0);
    let truth = GooglePlus::at_scale(scale).generate_streaming(seed, |_, day_events| {
        events += day_events.len() as u64;
        let id = spans.open("persist.apply_day", Some(synth));
        if let Err(e) = writer.apply_day(day_events) {
            write_error.get_or_insert(e);
        }
        persist_s += spans.close(id);
    });
    let synth_total = spans.close(synth);
    let (finished, finish_s) = spans.time("persist.finish", Some(root), || writer.finish());
    if let Some(e) = write_error {
        errors.push(format!("persisting a day: {e}"));
    }
    let saved = finished.unwrap_or_else(|e| {
        errors.push(format!("finishing the vault: {e}"));
        Vec::new()
    });
    p.synth_s = synth_total - persist_s;
    p.persist_s = persist_s + finish_s;
    p.events = events;
    p.nodes = truth.num_social_nodes() as u64;
    p.days = saved.len() as u64;
    p.vault_bytes = vault.disk_bytes();

    let server = SnapshotServer::from_vault(vault, ServeConfig::default());
    let mut last = None;
    for &day in &saved {
        let full = !matches!(
            server.vault().day_format(day),
            Some(DayFormat::V2Delta { .. })
        );
        let name = if full { "open.full" } else { "open.delta" };
        let (handle, secs) = spans.time(name, Some(root), || server.get_exact(day));
        if full {
            p.open_full_s += secs;
        } else {
            p.open_delta_s += secs;
        }
        let handle = match handle {
            Ok(h) => h,
            Err(e) => {
                errors.push(format!("opening day {day}: {e}"));
                continue;
            }
        };
        p.v1_equiv_bytes += handle.mapped().mapped_bytes() as u64;
        let view = handle.view();
        let (clustering, secs) = spans.time("sweep.clustering", Some(root), || {
            average_clustering_exact(&view, NodeSet::Social)
        });
        p.clustering_s += secs;
        let (reciprocity, secs) = spans.time("sweep.reciprocity", Some(root), || {
            global_reciprocity(&view)
        });
        p.reciprocity_s += secs;
        if black_box(clustering).is_finite() && black_box(reciprocity).is_finite() {
            p.days_ok += 1;
        } else {
            errors.push(format!("day {day} swept to a non-finite value"));
        }
        last = Some(handle);
    }
    p.total_s = spans.close(root);

    match last {
        Some(h) if h.day() == saved[saved.len() - 1] => {
            if h.view().to_owned_csr() != truth.freeze() {
                errors.push(format!(
                    "final day {} differs from the ground truth",
                    h.day()
                ));
            }
        }
        _ => errors.push("the final day was not served".into()),
    }
    p.delta_links = server.vault().metrics().delta_links_applied();
    p.resident_mib = server.resident_bytes() as f64 / (1 << 20) as f64;
    drop(server);
    let _ = std::fs::remove_dir_all(dir);
    p
}

pub fn run(r: &mut Run) -> Outcome {
    let (warm_scale, scale) = if r.tiny { (6, 20) } else { (WARM_SCALE, SCALE) };
    let dir = r.work_dir.join("vault");
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    for _ in 0..SETUPS {
        let warm = pass(r, warm_scale, r.seed, &dir, &mut out.errors);
        setup_s.push(warm.total_s);
    }
    let mut passes = Vec::new();
    let mut timed = 0.0;
    for j in 0.. {
        let p = pass(r, scale, dataset_seed(r.seed, j), &dir, &mut out.errors);
        out.attempted += p.days;
        out.failed += p.days - p.days_ok;
        out.fixture.add(p.nodes as usize, p.events, p.days);
        timed += p.total_s;
        passes.push(p);
        if timed >= r.seconds.as_secs_f64() {
            break;
        }
    }

    let med = |f: fn(&Pass) -> f64| stats::median(&passes.iter().map(f).collect::<Vec<_>>());
    let m = &mut out.metrics;
    m.set("setup_s", stats::median(&setup_s));
    m.set("wall_s", med(|p| p.total_s));
    m.set(
        "ok_pct",
        100.0 * (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64,
    );
    m.set("synth_s", med(|p| p.synth_s));
    m.set("events", med(|p| p.events as f64));
    m.set("persist_s", med(|p| p.persist_s));
    m.set("days_persisted", med(|p| p.days as f64));
    m.set("vault_bytes", med(|p| p.vault_bytes as f64));
    m.set("v1_equiv_bytes", med(|p| p.v1_equiv_bytes as f64));
    m.set("open_full_s", med(|p| p.open_full_s));
    m.set("open_delta_s", med(|p| p.open_delta_s));
    m.set("delta_links_applied", med(|p| p.delta_links as f64));
    m.set("resident_mib", med(|p| p.resident_mib));
    m.set("sweep.clustering_s", med(|p| p.clustering_s));
    m.set("sweep.reciprocity_s", med(|p| p.reciprocity_s));
    m.set(
        "trace.unattributed_pct",
        med(|p| {
            let layers = p.synth_s
                + p.persist_s
                + p.open_full_s
                + p.open_delta_s
                + p.clustering_s
                + p.reciprocity_s;
            100.0 * (p.total_s - layers) / p.total_s
        }),
    );
    out
}
