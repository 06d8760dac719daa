//! Observability integration suite: the outcome-counter accounting
//! equation over real wire traffic, the SANW `stats` query and the
//! admin HTTP `/metrics` endpoint serving the same metric families,
//! every sample carrying the `layer` label its family name declares,
//! the `/slowlog` dump, per-request trace attribution staying within
//! the 10% acceptance gate of end-to-end latency, and the per-day memo
//! counters accounting for every served `reciprocity` request.

#![cfg(unix)]

use san_graph::store::SnapshotVault;
use san_graph::{SanTimeline, TimelineBuilder};
use san_net::proto::{ErrorCode, Query, QueryResult, Request, Response};
use san_net::server::{NetConfig, NetServer};
use san_net::NetClient;
use san_serve::{ServeConfig, SnapshotServer};
use san_stats::SplitRng;
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

/// A fresh scratch directory under the system temp dir; removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        use std::sync::atomic::{AtomicU32, Ordering};
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "san-obs-{tag}-{}-{}",
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

/// A growing timeline with reciprocated links and attributes.
fn growing_timeline(days: u32) -> SanTimeline {
    let mut rng = SplitRng::new(u64::from(days) + 71);
    let mut tb = TimelineBuilder::new();
    let mut users = vec![tb.add_social_node()];
    let attrs: Vec<_> = (0..4)
        .map(|i| tb.add_attr_node(san_graph::AttrType::PAPER_TYPES[i]))
        .collect();
    for day in 1..=days {
        tb.advance_to_day(day);
        for _ in 0..4 {
            let u = tb.add_social_node();
            let v = users[rng.below(users.len() as u64) as usize];
            tb.add_social_link(u, v);
            if rng.chance(0.5) {
                tb.add_social_link(v, u);
            }
            if rng.chance(0.4) {
                tb.add_attr_link(u, attrs[rng.below(attrs.len() as u64) as usize]);
            }
            users.push(u);
        }
    }
    tb.finish().0
}

/// A server whose vault holds only day 7 — days before it answer
/// `NoSnapshot`, which the accounting test needs.
fn start_day7(tag: &str, net: NetConfig) -> (TempDir, NetServer) {
    let tmp = TempDir::new(tag);
    let tl = growing_timeline(20);
    let mut vault = SnapshotVault::create(&tmp.0).expect("create vault");
    vault.save_day(7, &tl.snapshot_csr(7)).expect("persist");
    let snaps = SnapshotServer::from_vault(
        SnapshotVault::open(&tmp.0).expect("reopen"),
        ServeConfig::default(),
    );
    let server = NetServer::serve(snaps, "127.0.0.1:0", net).expect("bind loopback");
    (tmp, server)
}

fn client(server: &NetServer) -> NetClient {
    let client = NetClient::connect(server.addr()).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    client
}

/// One raw admin HTTP/1.0 exchange; returns the full response text.
fn admin_get(server: &NetServer, path: &str) -> String {
    let addr = server.admin_addr().expect("admin listener configured");
    let mut stream = TcpStream::connect(addr).expect("connect admin");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
        .expect("write request");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read response");
    text
}

/// The metric family names (`# TYPE` lines) of an exposition text —
/// the scrape-to-scrape invariant (values move, families don't).
fn families(exposition: &str) -> BTreeSet<String> {
    exposition
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE "))
        .filter_map(|rest| rest.split_whitespace().next())
        .map(str::to_owned)
        .collect()
}

/// Every request outcome lands in exactly one counter: after a traffic
/// mix spanning served, no-snapshot, hostile-id, stats, and malformed
/// frames, the outcome counters sum to `requests`.
#[test]
fn outcome_counters_satisfy_the_accounting_equation() {
    let (_tmp, server) = start_day7("accounting", NetConfig::default());
    let mut c = client(&server);

    // served ×3 (two graph queries + one stats query).
    assert!(matches!(
        c.query(10, Query::Counts).expect("served"),
        Response::Ok { .. }
    ));
    assert!(matches!(
        c.query(7, Query::Reciprocity).expect("served"),
        Response::Ok { .. }
    ));
    assert!(matches!(
        c.query(0, Query::Stats).expect("stats"),
        Response::Ok {
            day_served: 0,
            result: QueryResult::Stats(_)
        }
    ));
    // no_snapshot ×1 (day before the only persisted snapshot).
    assert_eq!(
        c.query(3, Query::Counts).expect("pre-history"),
        Response::err(0, ErrorCode::NoSnapshot)
    );
    // node_out_of_range ×2.
    for _ in 0..2 {
        assert_eq!(
            c.query(9, Query::Degrees { u: u32::MAX }).expect("hostile"),
            Response::err(1, ErrorCode::NodeOutOfRange)
        );
    }
    // bad_request ×1: garbage bytes on a fresh connection. Close the
    // client first so a single-worker box frees its worker for it.
    drop(c);
    let mut garbage = TcpStream::connect(server.addr()).expect("connect");
    garbage
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    garbage
        .write_all(b"NOPE over the wire\r\n\r\n")
        .expect("write");
    assert_eq!(
        Response::read_from(&mut garbage).expect("farewell"),
        Some(Response::err(0, ErrorCode::BadRequest))
    );

    let m = server.metrics();
    assert_eq!(m.served(), 3);
    assert_eq!(m.no_snapshot(), 1);
    assert_eq!(m.node_out_of_range(), 2);
    assert_eq!(m.bad_request(), 1);
    assert_eq!(m.decode_errors(), 1);
    let outcomes = m.served()
        + m.busy()
        + m.no_snapshot()
        + m.node_out_of_range()
        + m.store_failed()
        + m.bad_request()
        + m.shutting_down();
    assert_eq!(outcomes, m.requests(), "an outcome escaped the equation");
    // The one served reciprocity request went through the day's memo.
    let serve = server.snapshots().metrics();
    assert_eq!(serve.memo_hits() + serve.memo_fills(), 1);
    server.shutdown();
}

/// The SANW `stats` query and `GET /metrics` expose one document: both
/// cover all three layers with full histogram buckets, and their metric
/// family sets are identical.
#[test]
fn stats_query_and_admin_metrics_expose_the_same_registry() {
    let net = NetConfig {
        admin: Some("127.0.0.1:0".parse().unwrap()),
        ..NetConfig::default()
    };
    let (_tmp, server) = start_day7("stats-vs-http", net);
    let mut c = client(&server);
    // Touch the vault so every layer has non-zero traffic to report.
    assert!(matches!(
        c.query(10, Query::Counts).expect("warm"),
        Response::Ok { .. }
    ));

    let wire_text = match c.query(0, Query::Stats).expect("stats query") {
        Response::Ok {
            day_served: 0,
            result: QueryResult::Stats(text),
        } => text,
        other => panic!("expected a stats payload, got {other:?}"),
    };
    // All three layers, with full bucket dumps.
    for needle in [
        "san_vault_",
        "san_serve_",
        "san_net_requests",
        "_bucket{",
        "le=\"+Inf\"",
        "layer=\"vault\"",
        "layer=\"serve\"",
        "layer=\"net\"",
    ] {
        assert!(wire_text.contains(needle), "stats payload missing {needle}");
    }

    let http = admin_get(&server, "/metrics");
    let (head, body) = http.split_once("\r\n\r\n").expect("header/body split");
    assert!(head.starts_with("HTTP/1.0 200 OK"), "head: {head}");
    assert!(
        head.contains("text/plain; version=0.0.4"),
        "missing exposition content type: {head}"
    );
    assert!(body.contains("san_net_requests"), "body lacks net layer");
    assert_eq!(
        families(body),
        families(&wire_text),
        "the two scrape surfaces disagree on metric families"
    );
    server.shutdown();
}

/// Each layer's meters reach the scrape under their own base label:
/// every sample line of a live `/metrics` scrape carries exactly one
/// `layer` label, equal to the second segment of its family name
/// (`san_vault_*` → `vault`, `san_serve_*` → `serve`, `san_net_*` →
/// `net`).
#[test]
fn every_sample_carries_the_layer_its_name_declares() {
    let net = NetConfig {
        admin: Some("127.0.0.1:0".parse().unwrap()),
        ..NetConfig::default()
    };
    let (_tmp, server) = start_day7("layer-labels", net);
    let mut c = client(&server);
    for query in [Query::Counts, Query::Reciprocity] {
        assert!(matches!(
            c.query(10, query).expect("warm"),
            Response::Ok { .. }
        ));
    }
    let http = admin_get(&server, "/metrics");
    let (_, body) = http.split_once("\r\n\r\n").expect("header/body split");
    let mut seen = BTreeSet::new();
    for line in body
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let name = line.split(['{', ' ']).next().expect("sample name");
        let declared = match name.split('_').collect::<Vec<_>>()[..] {
            ["san", layer, _, ..] => layer,
            _ => panic!("sample {line:?} is outside the san_<layer>_* namespace"),
        };
        // Live label values (`read`, `busy`, `+Inf`, …) hold no commas
        // or quotes, so splitting the label block on `,` is exact here.
        let labels = line
            .split_once('{')
            .and_then(|(_, rest)| rest.rsplit_once('}'))
            .map_or("", |(labels, _)| labels);
        let layers: Vec<&str> = labels
            .split(',')
            .filter_map(|pair| pair.strip_prefix("layer=\"")?.strip_suffix('"'))
            .collect();
        assert_eq!(
            layers,
            [declared],
            "sample {line:?} must carry exactly layer=\"{declared}\""
        );
        seen.insert(declared.to_owned());
    }
    assert_eq!(
        seen,
        BTreeSet::from(["net".to_owned(), "serve".to_owned(), "vault".to_owned()]),
        "the scrape must cover all three layers"
    );
    server.shutdown();
}

/// Every `san.{vault,serve,net}.*` metric name the san-obs README cites
/// is a family a live `/metrics` scrape exposes, so the README's
/// examples cannot drift from the emitted names.
#[test]
fn readme_metric_names_appear_in_a_live_scrape() {
    const README: &str = include_str!("../../san-obs/README.md");
    let mut cited = BTreeSet::new();
    for prefix in ["san.vault.", "san.serve.", "san.net."] {
        for (at, _) in README.match_indices(prefix) {
            let name: String = README[at..]
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == '.')
                .collect();
            cited.insert(name.trim_end_matches('.').to_owned());
        }
    }
    assert!(cited.len() >= 3, "README cites too few names: {cited:?}");

    let net = NetConfig {
        admin: Some("127.0.0.1:0".parse().unwrap()),
        ..NetConfig::default()
    };
    let (_tmp, server) = start_day7("readme-names", net);
    assert!(matches!(
        client(&server).query(10, Query::Counts).expect("warm"),
        Response::Ok { .. }
    ));
    let http = admin_get(&server, "/metrics");
    let (_, body) = http.split_once("\r\n\r\n").expect("header/body split");
    let scraped = families(body);
    for name in &cited {
        assert!(
            scraped.contains(&name.replace('.', "_")),
            "README cites {name}, which /metrics does not expose"
        );
    }
    server.shutdown();
}

/// Admin endpoint smoke: `/slowlog` dumps the ring header plus traced
/// requests, unknown paths answer 404, non-GET answers 405 — and the
/// listener shuts down with the server.
#[test]
fn admin_slowlog_and_error_routes_behave() {
    let net = NetConfig {
        admin: Some("127.0.0.1:0".parse().unwrap()),
        slowlog_capacity: 8,
        ..NetConfig::default()
    };
    let (_tmp, server) = start_day7("admin-smoke", net);
    let admin_addr = server.admin_addr().expect("admin addr");
    let mut c = client(&server);
    for _ in 0..3 {
        assert!(matches!(
            c.query(10, Query::Counts).expect("traced query"),
            Response::Ok { .. }
        ));
    }

    let slowlog = admin_get(&server, "/slowlog");
    assert!(slowlog.starts_with("HTTP/1.0 200 OK"), "slowlog: {slowlog}");
    let body = slowlog.split_once("\r\n\r\n").expect("split").1;
    assert!(
        body.starts_with("slowlog capacity=8"),
        "unexpected slowlog header: {body}"
    );
    assert!(body.contains("total_ns="), "no traced entries: {body}");

    let missing = admin_get(&server, "/nope");
    assert!(missing.starts_with("HTTP/1.0 404"), "missing: {missing}");

    // Non-GET is refused with 405.
    let mut stream = TcpStream::connect(admin_addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    stream
        .write_all(b"POST /metrics HTTP/1.0\r\n\r\n")
        .expect("write");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read");
    assert!(text.starts_with("HTTP/1.0 405"), "post: {text}");

    server.shutdown();
    assert!(
        TcpStream::connect(admin_addr).is_err(),
        "admin listener survived shutdown"
    );
}

/// The acceptance gate on attribution: for every traced request the
/// per-stage nanoseconds sum to no more than the end-to-end total, and
/// the unattributed gap stays within 10% of the total (plus a small
/// absolute slack for clock granularity on near-zero requests).
#[test]
fn trace_attribution_accounts_for_the_latency() {
    let (_tmp, server) = start_day7("attribution", NetConfig::default());
    let mut c = client(&server);
    for day in [10u32, 12, 14, 16, 18] {
        assert!(matches!(
            c.query(day, Query::Counts).expect("traced"),
            Response::Ok { .. }
        ));
        assert!(matches!(
            c.query(day, Query::Reciprocity).expect("traced"),
            Response::Ok { .. }
        ));
    }

    // The server records a trace *after* writing the response, so the
    // last one can trail the client's read by a moment.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.trace_ring().recorded() < 10 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    // Every reciprocity request resolves to day 7 (the only persisted
    // day): the first fills its memo, the other four read it.
    let serve = server.snapshots().metrics();
    assert_eq!(serve.memo_fills(), 1, "one fill for the one resident day");
    assert_eq!(
        serve.memo_hits() + serve.memo_fills(),
        5,
        "every served reciprocity request lands in exactly one memo counter"
    );
    let entries = server.trace_ring().snapshot();
    assert!(entries.len() >= 10, "only {} traces landed", entries.len());
    for e in &entries {
        let stages = e.stages_total_nanos();
        assert!(
            stages <= e.total_nanos,
            "stage sum {stages} exceeds total {} for request {}",
            e.total_nanos,
            e.request_id
        );
        let gap = e.total_nanos - stages;
        let allowed = e.total_nanos / 10 + 2_000;
        assert!(
            gap <= allowed,
            "request {}: unattributed gap {gap}ns exceeds {allowed}ns (total {}ns, stages {:?})",
            e.request_id,
            e.total_nanos,
            e.stage_nanos
        );
    }
    server.shutdown();
}

/// Tracing off: requests still serve, the ring stays empty, and the
/// malformed-frame path still reaches the bad-request counter.
#[test]
fn tracing_can_be_disabled_without_losing_counters() {
    let net = NetConfig {
        trace: false,
        ..NetConfig::default()
    };
    let (_tmp, server) = start_day7("untraced", net);
    let mut c = client(&server);
    assert!(matches!(
        c.query(10, Query::Counts).expect("untraced"),
        Response::Ok { .. }
    ));
    assert_eq!(server.trace_ring().recorded(), 0);
    assert_eq!(server.metrics().served(), 1);
    assert_eq!(server.metrics().requests(), 1);
    server.shutdown();
}

/// The oversized-head defence: an admin request that never finishes its
/// header is dropped without wedging the listener.
#[test]
fn admin_survives_an_unterminated_header() {
    let net = NetConfig {
        admin: Some("127.0.0.1:0".parse().unwrap()),
        ..NetConfig::default()
    };
    let (_tmp, server) = start_day7("admin-hostile", net);
    let admin_addr = server.admin_addr().expect("admin addr");

    // 8 KiB of header with no terminator: past MAX_HEAD_BYTES, the
    // listener closes the connection instead of buffering forever.
    let mut stream = TcpStream::connect(admin_addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let flood = vec![b'A'; 8192];
    let _ = stream.write_all(&flood);
    let mut sink = Vec::new();
    let _ = stream.read_to_end(&mut sink);

    // A well-formed scrape still works afterwards.
    let ok = admin_get(&server, "/metrics");
    assert!(ok.starts_with("HTTP/1.0 200 OK"), "after flood: {ok}");
    server.shutdown();
}

/// The stats request frame is byte-identical whatever `Request.day`
/// says, and the server ignores the day entirely.
#[test]
fn stats_ignores_the_requested_day() {
    let (_tmp, server) = start_day7("stats-day", NetConfig::default());
    let mut c = client(&server);
    for day in [0u32, 3, 7, 1 << 20] {
        let frame = Request {
            day,
            query: Query::Stats,
        }
        .encode();
        assert_eq!(frame.len(), san_net::proto::REQUEST_HEADER_BYTES);
        match c.query(day, Query::Stats).expect("stats") {
            Response::Ok {
                day_served: 0,
                result: QueryResult::Stats(text),
            } => assert!(text.contains("san_net_requests")),
            other => panic!("day {day}: {other:?}"),
        }
    }
    server.shutdown();
}
