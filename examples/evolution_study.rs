//! Evolution study: generate a synthetic Google+, crawl it daily, and
//! track the §3 metrics across the three phases — a condensed version of
//! the Fig. 2/4 pipeline.
//!
//! ```text
//! cargo run --release --example evolution_study
//! ```

use gplus_san::graph::store::SnapshotVault;
use gplus_san::graph::{CsrSan, SanRead, ShardedCsrSan};
use gplus_san::metrics::clustering::{
    average_clustering_exact, average_clustering_sharded, NodeSet,
};
use gplus_san::metrics::evolution::{evolve_metric, Phase, PhaseBounds, SnapshotSource};
use gplus_san::metrics::reciprocity::global_reciprocity;
use gplus_san::metrics::social_density;
use gplus_san::sim::GooglePlus;
use std::sync::Arc;

fn main() {
    // A small synthetic Google+: ~4k users across the 98-day timeline.
    let data = GooglePlus::at_scale(15).generate(7);
    println!(
        "ground truth: {} users / {} links; crawl seed {}",
        data.truth.num_social_nodes(),
        data.truth.num_social_links(),
        data.crawl_seed
    );

    let bounds = PhaseBounds::PAPER;
    println!(
        "\n{:>4} {:>6} {:>9} {:>10} {:>12} {:>12}",
        "day", "phase", "users", "links", "density", "reciprocity"
    );
    data.for_each_crawled_day(7, |day, snap| {
        let phase = match bounds.phase_of(day) {
            Phase::I => "I",
            Phase::II => "II",
            Phase::III => "III",
        };
        println!(
            "{day:>4} {phase:>6} {:>9} {:>10} {:>12.3} {:>12.3}",
            snap.num_social_nodes(),
            snap.num_social_links(),
            social_density(snap),
            global_reciprocity(snap),
        );
    });

    // The same metrics through a frozen CSR snapshot: identical numbers,
    // immutable storage, `Send + Sync` — the form a parallel per-day sweep
    // would fan out across threads.
    let last_day = data.timeline.max_day().expect("nonempty timeline");
    let frozen = data.timeline.snapshot_csr(last_day);
    println!(
        "\nfrozen ground-truth snapshot at day {last_day}: density={:.3} reciprocity={:.3} ({} KiB CSR)",
        social_density(&frozen),
        global_reciprocity(&frozen),
        frozen.heap_bytes() / 1024,
    );

    // Parallel per-day sweep of an expensive metric: delta-frozen
    // snapshots stream through a bounded channel to four workers, so peak
    // memory stays O(threads × E) however long the timeline is.
    let clus = evolve_metric(
        SnapshotSource::Replay(&data.timeline),
        "attr clustering",
        14,
        4,
        |_, snap| average_clustering_exact(&**snap, NodeSet::Attr),
    )
    .expect("replay sweep");
    println!("\nattribute clustering, 4-thread sweep over frozen snapshots:");
    for (day, value) in clus.days.iter().zip(&clus.values) {
        println!("  day {day:>3}: {value:.4}");
    }

    // The other parallelism axis: range-partition the *final* snapshot
    // into edge-balanced shards so one expensive day saturates the
    // machine. Boundaries come from the CSR row offsets, so a handful of
    // hubs never pile into one shard with an equal node share of the
    // tail — the per-shard link counts below should be close.
    let sharded = ShardedCsrSan::from_csr(frozen, 4);
    println!("\nshard-parallel clustering on the day-{last_day} snapshot (4 shards):");
    println!(
        "  social clustering = {:.4} (sequential: {:.4})",
        average_clustering_sharded(&sharded, NodeSet::Social),
        average_clustering_exact(sharded.csr(), NodeSet::Social),
    );
    println!("  per-shard edge balance (nodes / out-links / KiB):");
    for (shard, bytes) in sharded.shards().zip(sharded.shard_bytes()) {
        println!(
            "    shard {}: {:>6} nodes  {:>7} links  {:>5} KiB",
            shard.index(),
            shard.owned_social_nodes(),
            shard.owned_social_links(),
            bytes / 1024,
        );
    }

    // Persistence: save every 14th day's frozen snapshot to a vault
    // (columnar binary files + manifest), then resume a sweep from the
    // middle of the timeline — the vault loads the nearest persisted day
    // and delta-patches forward, so nothing before it is replayed. The
    // resumed series is bit-identical to the same days of a full sweep.
    let vault_dir = std::env::temp_dir().join(format!("gplus-vault-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&vault_dir);
    let mut vault = SnapshotVault::create(&vault_dir).expect("create vault");
    let saved = vault
        .save_timeline(&data.timeline, 14)
        .expect("persist snapshots");
    println!(
        "\nvault: persisted {} days {:?} under {} ({} KiB on disk)",
        saved.len(),
        saved,
        vault_dir.display(),
        vault.disk_bytes() / 1024,
    );
    let resume_at = last_day / 2 + 1;
    let reciprocity = |_: u32, snap: &Arc<CsrSan>| global_reciprocity(&**snap);
    let resumed = evolve_metric(
        SnapshotSource::Vault {
            timeline: &data.timeline,
            vault: &vault,
            start: resume_at,
        },
        "reciprocity",
        7,
        1,
        reciprocity,
    )
    .expect("vault-resumed sweep");
    let full = evolve_metric(
        SnapshotSource::Replay(&data.timeline),
        "reciprocity",
        7,
        1,
        reciprocity,
    )
    .expect("replay sweep");
    let warm_start = vault.nearest_at_or_before(resume_at).expect("warm start");
    println!(
        "resume at day {resume_at}: warm-started from persisted day {warm_start}, \
         swept {} days (full sweep: {})",
        resumed.days.len(),
        full.days.len(),
    );
    let suffix: Vec<f64> = full
        .days
        .iter()
        .zip(&full.values)
        .filter(|(d, _)| **d >= resume_at)
        .map(|(_, v)| *v)
        .collect();
    assert_eq!(
        resumed.values, suffix,
        "resumed sweep must be bit-identical"
    );
    println!("resumed series is bit-identical to the full sweep's suffix ✓");
    let _ = std::fs::remove_dir_all(&vault_dir);

    println!("\nwhat to look for (the paper's observations):");
    println!(" * users/links jump in Phase I, stabilise in II, jump again in III");
    println!(" * density dips early in Phase I, recovers, dips again at the public release");
    println!(" * reciprocity drifts down as the network turns publisher-subscriber");
}
