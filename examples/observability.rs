//! Observability: run the TCP serving stack with the `san-obs` wiring
//! live — one scrape over the vault/serve/net layers' meters,
//! the admin HTTP listener, the in-protocol SANW `stats` query, and
//! the per-request slow-query ring — then scrape it both ways and
//! show the per-stage latency attribution.
//!
//! ```text
//! cargo run --release --example observability
//! ```
//!
//! Set `OBS_SERVE_SECS=30` to keep the server up after the scripted
//! traffic so you can point `curl` or a Prometheus scraper at the
//! printed admin address (`/metrics`, `/slowlog`).

#[cfg(unix)]
use gplus_san::graph::store::SnapshotVault;
#[cfg(unix)]
use gplus_san::net::server::{NetConfig, NetServer};
#[cfg(unix)]
use gplus_san::net::{NetClient, Query, QueryResult, Response};
#[cfg(unix)]
use gplus_san::obs::Stage;
#[cfg(unix)]
use gplus_san::serve::{ServeConfig, SnapshotServer};
#[cfg(unix)]
use gplus_san::sim::GooglePlus;
#[cfg(unix)]
use gplus_san::stats::SplitRng;

#[cfg(not(unix))]
fn main() {
    eprintln!("observability needs a unix host: san-net's server is unix-only");
}

#[cfg(unix)]
fn main() {
    use std::io::{Read, Write};

    // Synthetic Google+ ground truth, persisted every 7th day.
    let data = GooglePlus::at_scale(15).generate(11);
    let dir = std::env::temp_dir().join(format!("san-obs-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut vault = SnapshotVault::create(&dir).expect("create vault");
    let saved = vault.save_timeline(&data.timeline, 7).expect("persist");
    drop(vault);
    let final_day = *saved.last().expect("persisted days");

    // The wired server: snapshot vault → serve layer → TCP front-end,
    // with the admin listener on an ephemeral loopback port.
    let snaps = SnapshotServer::open(&dir, ServeConfig::default()).expect("open vault");
    let net = NetConfig {
        admin: Some("127.0.0.1:0".parse().unwrap()),
        ..NetConfig::default()
    };
    let server = NetServer::serve(snaps, "127.0.0.1:0", net).expect("bind");
    let admin = server.admin_addr().expect("admin listener");
    println!("serving on {}  (admin http on {admin})", server.addr());

    // Scripted traffic: a mixed-day stream with a few typed rejections
    // sprinkled in, so every outcome counter has something to say.
    let mut client = NetClient::connect(server.addr()).expect("connect");
    let mut rng = SplitRng::new(17);
    let mut served = 0u32;
    for i in 0..300u32 {
        let day = rng.below(u64::from(final_day) + 4) as u32;
        let query = match i % 5 {
            0 => Query::Counts,
            1 => Query::Reciprocity,
            2 => Query::Degrees {
                u: rng.below(500) as u32,
            },
            3 => Query::HasLink {
                src: rng.below(300) as u32,
                dst: rng.below(300) as u32,
            },
            // Every 5th query asks for a hostile node id on purpose.
            _ => Query::LocalClustering { u: u32::MAX },
        };
        if matches!(
            client.query(day, query).expect("query"),
            Response::Ok { .. }
        ) {
            served += 1;
        }
    }
    println!("traffic: 300 requests, {served} served, rest typed rejections");

    // Scrape surface 1: the SANW `stats` query — same frame protocol
    // as every other query, so SANW clients need no second socket.
    let text = match client.query(0, Query::Stats).expect("stats") {
        Response::Ok {
            result: QueryResult::Stats(text),
            ..
        } => text,
        other => panic!("unexpected stats response: {other:?}"),
    };
    let families = text.lines().filter(|l| l.starts_with("# TYPE")).count();
    println!(
        "\nSANW stats query: {} bytes of exposition, {families} metric families",
        text.len()
    );
    for line in text.lines().filter(|l| l.starts_with("san_net_responses")) {
        println!("  {line}");
    }

    // Scrape surface 2: the admin HTTP listener — what curl/Prometheus
    // sees. Same encoder over the same meters, so the family set is
    // identical.
    let mut http = std::net::TcpStream::connect(admin).expect("connect admin");
    http.write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
        .expect("send");
    let mut response = String::new();
    http.read_to_string(&mut response).expect("read");
    let body = response.split_once("\r\n\r\n").expect("http body").1;
    let http_families = body.lines().filter(|l| l.starts_with("# TYPE")).count();
    println!(
        "GET /metrics: {} bytes, {http_families} metric families",
        body.len()
    );
    assert_eq!(families, http_families, "scrape surfaces disagree");

    // The slow-query ring: per-stage nanosecond attribution for the
    // slowest recent requests.
    println!("\nslowest traced requests (per-stage attribution):");
    for entry in server.trace_ring().slowest(5) {
        let mut stages = String::new();
        for stage in Stage::all() {
            stages.push_str(&format!(
                " {}={}µs",
                stage.name(),
                entry.stage_nanos(stage) / 1_000
            ));
        }
        println!(
            "  id={} day={} query={} total={}µs {stages}",
            entry.request_id,
            entry.day,
            entry.query_id,
            entry.total_nanos / 1_000,
        );
    }

    // Optional interactive hold for external scrapers.
    if let Some(secs) = std::env::var("OBS_SERVE_SECS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    {
        println!("\nholding for {secs}s — try: curl http://{admin}/metrics");
        std::thread::sleep(std::time::Duration::from_secs(secs));
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
