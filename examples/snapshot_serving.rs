//! Snapshot serving: persist a growing SAN's daily snapshots to a vault,
//! then serve a mixed-day query stream to a pool of workers through the
//! `san-serve` layer — zero-copy mmap views, a sharded LRU, and full IO
//! metering — executed by the `san-net` wire executor, and verify the
//! served results match eager loads exactly.
//!
//! ```text
//! cargo run --release --example snapshot_serving
//! ```

#[cfg(unix)]
use gplus_san::graph::store::SnapshotVault;
#[cfg(unix)]
use gplus_san::graph::SanRead;
#[cfg(unix)]
use gplus_san::metrics::clustering::{average_clustering_exact, NodeSet};
#[cfg(unix)]
use gplus_san::metrics::reciprocity::global_reciprocity;
#[cfg(unix)]
use gplus_san::net::{execute, Query, QueryResult};
#[cfg(unix)]
use gplus_san::serve::{ServeConfig, SnapshotServer};
#[cfg(unix)]
use gplus_san::sim::GooglePlus;
#[cfg(unix)]
use gplus_san::stats::SplitRng;

#[cfg(not(unix))]
fn main() {
    eprintln!("snapshot serving needs a unix host: san-serve is mmap-backed");
}

#[cfg(unix)]
fn main() {
    // A synthetic Google+ ground truth across the 98-day timeline.
    let data = GooglePlus::at_scale(15).generate(7);
    let timeline = &data.timeline;
    let final_day = timeline.max_day().expect("nonempty timeline");
    println!(
        "ground truth: {} users / {} links over {} days",
        data.truth.num_social_nodes(),
        data.truth.num_social_links(),
        final_day + 1,
    );

    // Persist every 7th day (plus the final day) to a vault on disk.
    let dir = std::env::temp_dir().join(format!("san-serve-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut vault = SnapshotVault::create(&dir).expect("create vault");
    let saved = vault.save_timeline(timeline, 7).expect("persist timeline");
    println!(
        "vault: {} days persisted, {} KiB on disk, write p50 {} µs",
        saved.len(),
        vault.disk_bytes() / 1024,
        vault.metrics().write_latency().median_nanos() / 1_000,
    );

    // Serve a mixed-day query stream: 200 queries over the whole day
    // range, 4 workers of 50 each. A query resolves its day through the
    // cache (`get`: the nearest persisted day at or before it) and runs
    // the wire executor on the zero-copy view — the `get` + `execute`
    // path every `NetServer` worker takes.
    let server = SnapshotServer::open(&dir, ServeConfig::default()).expect("open server");
    let mut rng = SplitRng::new(3);
    let days: Vec<u32> = (0..200)
        .map(|_| rng.below(u64::from(final_day) + 10) as u32)
        .collect();
    let answered: Vec<(u32, u32, QueryResult, QueryResult)> = std::thread::scope(|scope| {
        let workers: Vec<_> = days
            .chunks(50)
            .map(|chunk| {
                let server = &server;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for &day in chunk {
                        let Some(handle) = server.get(day).expect("get") else {
                            continue;
                        };
                        let view = handle.view();
                        let counts = execute(Query::Counts, &view).expect("counts");
                        let recip = execute(Query::Reciprocity, &view).expect("reciprocity");
                        out.push((day, handle.day(), counts, recip));
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("query worker"))
            .collect()
    });

    println!("\nqueries: {} served of {}", answered.len(), days.len());
    let m = server.metrics();
    println!(
        "cache: {} hits / {} misses / {} evictions; {} KiB mapped, open+validate p50 {} µs",
        m.hits(),
        m.misses(),
        m.evictions(),
        m.io().read_bytes() / 1024,
        m.io().read_latency().median_nanos() / 1_000,
    );

    // Spot-verify: served results are identical to eager loads.
    for (day, day_served, counts, recip) in answered.iter().take(40) {
        let loaded = vault.load_day(*day_served).expect("eager load");
        assert_eq!(
            *counts,
            execute(Query::Counts, &*loaded).expect("counts"),
            "day {day}"
        );
        assert_eq!(
            *recip,
            QueryResult::Reciprocity(global_reciprocity(&*loaded)),
            "day {day}"
        );
    }
    println!(
        "verified {} served queries identical to eager loads",
        answered.len().min(40)
    );

    // The last persisted snapshot through both read paths, for scale.
    let last = *saved.last().expect("persisted days");
    let handle = server.get(last).expect("get").expect("served");
    println!(
        "\nday {last} via mmap view: {} users, reciprocity {:.3}, clustering {:.3} (0 bytes deserialised)",
        handle.view().num_social_nodes(),
        global_reciprocity(&handle.view()),
        average_clustering_exact(&handle.view(), NodeSet::Social),
    );

    let _ = std::fs::remove_dir_all(&dir);
}
