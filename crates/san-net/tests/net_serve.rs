//! Loopback integration suite for the TCP front-end: end-to-end query
//! correctness against direct evaluation, nearest-day resolution over
//! the wire, typed rejections (hostile node ids, pre-history days,
//! malformed frames), all three overload gates answering `Busy` rather
//! than hanging, graceful shutdown that drains workers, and memoised
//! `Reciprocity` staying bit-identical to direct evaluation through
//! eviction and re-map.

#![cfg(unix)]

use san_graph::store::SnapshotVault;
use san_graph::{SanTimeline, TimelineBuilder};
use san_net::proto::{ErrorCode, NetError, Query, QueryResult, Request, Response};
use san_net::server::{NetConfig, NetServer};
use san_net::{execute, NetClient};
use san_serve::{ServeConfig, SnapshotServer};
use san_stats::SplitRng;
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
            "san-net-{tag}-{}-{}",
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

/// A 30-day growing timeline with reciprocated links and attributes.
fn growing_timeline(days: u32) -> SanTimeline {
    let mut rng = SplitRng::new(u64::from(days) + 23);
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

/// Vault with every `step`-th day of a `days`-long timeline persisted.
fn served_vault(tag: &str, days: u32, step: u32) -> (TempDir, SanTimeline, Vec<u32>) {
    let tmp = TempDir::new(tag);
    let tl = growing_timeline(days);
    let mut vault = SnapshotVault::create(&tmp.0).expect("create vault");
    let saved = vault.save_timeline(&tl, step).expect("persist");
    (tmp, tl, saved)
}

fn start(tmp: &TempDir, serve: ServeConfig, net: NetConfig) -> NetServer {
    let snaps = SnapshotServer::open(&tmp.0, serve).expect("open vault");
    NetServer::serve(snaps, "127.0.0.1:0", net).expect("bind loopback")
}

fn client(server: &NetServer) -> NetClient {
    let client = NetClient::connect(server.addr()).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    client
}

/// The full query surface over the wire matches direct evaluation on
/// the same snapshots, day by day.
#[test]
fn end_to_end_queries_match_direct_evaluation() {
    let (tmp, tl, saved) = served_vault("e2e", 30, 5);
    let server = start(&tmp, ServeConfig::default(), NetConfig::default());
    let mut client = client(&server);

    for &probe in &[0u32, 3, 5, 14, 30, 37] {
        let expect_day = saved.iter().copied().rfind(|&d| d <= probe).unwrap();
        let snap = tl.snapshot_csr(expect_day);
        // (query id, query) pairs — the id is what an error response
        // must echo. Node 1 exists only from day 1 on, so the day-0
        // snapshot exercises the error-mirroring branch.
        let queries = [
            (0u16, Query::Counts),
            (1, Query::Degrees { u: 1 }),
            (
                2,
                Query::OutNeighbors {
                    u: 1,
                    offset: 0,
                    limit: 8,
                },
            ),
            (3, Query::HasLink { src: 1, dst: 0 }),
            (4, Query::CommonNeighbors { u: 0, v: 1 }),
            (5, Query::Reciprocity),
            (6, Query::LocalClustering { u: 1 }),
        ];
        for (query_id, query) in queries {
            let response = client.query(probe, query).expect("query");
            let expected = match execute(query, &snap) {
                Ok(result) => Response::Ok {
                    day_served: expect_day,
                    result,
                },
                Err(code) => Response::err(query_id, code),
            };
            assert_eq!(response, expected, "probe day {probe} query {query:?}");
        }
    }
    assert_eq!(server.metrics().busy(), 0);
    assert!(server.metrics().served() > 0);
    assert!(server.metrics().request_latency().count() > 0);
    server.shutdown();
}

/// Days before the first persisted snapshot answer `NoSnapshot`;
/// hostile node ids answer `NodeOutOfRange`; the connection stays
/// usable after both.
#[test]
fn typed_rejections_leave_the_connection_usable() {
    let tmp = TempDir::new("typed-rej");
    let tl = growing_timeline(20);
    let mut vault = SnapshotVault::create(&tmp.0).expect("create");
    vault.save_day(7, &tl.snapshot_csr(7)).expect("save");
    let server = {
        let snaps = SnapshotServer::from_vault(
            SnapshotVault::open(&tmp.0).expect("reopen"),
            ServeConfig::default(),
        );
        NetServer::serve(snaps, "127.0.0.1:0", NetConfig::default()).expect("bind")
    };
    let mut c = client(&server);

    assert_eq!(
        c.query(6, Query::Counts).expect("pre-history query"),
        Response::err(0, ErrorCode::NoSnapshot)
    );
    assert_eq!(
        c.query(7, Query::Degrees { u: u32::MAX })
            .expect("hostile id"),
        Response::err(1, ErrorCode::NodeOutOfRange)
    );
    // Still usable: a valid query on the same connection succeeds.
    assert!(matches!(
        c.query(9, Query::Counts).expect("follow-up"),
        Response::Ok { day_served: 7, .. }
    ));
    assert_eq!(server.metrics().no_snapshot(), 1);
    assert_eq!(server.metrics().node_out_of_range(), 1);
    server.shutdown();
}

/// Gate 2 (in-flight cap) at zero: every request is a typed `Busy`,
/// delivered promptly — no hang, no panic, connection intact.
#[test]
fn inflight_cap_overload_is_typed_busy_never_a_hang() {
    let (tmp, _tl, _saved) = served_vault("busy-inflight", 10, 5);
    let net = NetConfig {
        max_inflight: 0,
        ..NetConfig::default()
    };
    let server = start(&tmp, ServeConfig::default(), net);
    let mut c = client(&server);
    for _ in 0..5 {
        assert_eq!(
            c.query(10, Query::Counts).expect("busy response"),
            Response::err(0, ErrorCode::Busy)
        );
    }
    assert_eq!(server.metrics().busy(), 5);
    assert_eq!(server.metrics().served(), 0);
    server.shutdown();
}

/// Gate 3 (resident-byte budget): with the cache budget at one byte, a
/// cold day beyond the first answers `Busy` while the already-cached
/// day keeps serving.
#[test]
fn memory_backpressure_sheds_cold_days_but_serves_cached_ones() {
    let (tmp, _tl, saved) = served_vault("busy-memory", 10, 5);
    assert!(saved.len() >= 2);
    let serve = ServeConfig {
        max_resident_bytes: 1,
        cache_shards: 1,
    };
    let server = start(&tmp, serve, NetConfig::default());
    let mut c = client(&server);

    // First day maps while the cache is empty (resident 0 < budget)…
    assert!(matches!(
        c.query(saved[0], Query::Counts).expect("first day"),
        Response::Ok { .. }
    ));
    // …a different, cold day now sheds…
    assert_eq!(
        c.query(saved[1], Query::Counts).expect("cold day"),
        Response::err(0, ErrorCode::Busy)
    );
    // …while the resident day keeps serving.
    assert!(matches!(
        c.query(saved[0], Query::Counts).expect("cached day"),
        Response::Ok { .. }
    ));
    assert_eq!(server.metrics().busy(), 1);
    assert_eq!(server.metrics().served(), 2);
    server.shutdown();
}

/// `Reciprocity` is answered from the served day's memo. For every
/// persisted day a first request fills it and a second reads it, and
/// both equal `execute` on the eagerly loaded day bit for bit. Under a
/// resident budget of about one day, a second pass re-maps evicted days:
/// values stay bit-identical and the fill count exceeds the day count,
/// so a memo lives and dies with its mapping.
#[test]
fn memoised_reciprocity_is_bit_identical_through_eviction() {
    let (tmp, _tl, saved) = served_vault("memo", 30, 5);
    let vault = SnapshotVault::open(&tmp.0).expect("reopen");
    let expected: Vec<u64> = saved
        .iter()
        .map(|&day| {
            let loaded = vault.load_day(day).expect("load day");
            match execute(Query::Reciprocity, &*loaded) {
                Ok(QueryResult::Reciprocity(r)) => r.to_bits(),
                other => panic!("day {day}: {other:?}"),
            }
        })
        .collect();
    let largest = {
        let probe = SnapshotServer::open(&tmp.0, ServeConfig::default()).expect("open");
        saved
            .iter()
            .map(|&day| probe.get_exact(day).expect("map").mapped().mapped_bytes() as u64)
            .max()
            .expect("persisted days")
    };
    let days = saved.len() as u64;
    let evicting = ServeConfig {
        // One shard whose budget fits the largest day but never two of
        // the later ones: mapping a cold day evicts, yet the cache never
        // reaches its budget, so gate 3 never sheds.
        max_resident_bytes: largest + 1,
        cache_shards: 1,
    };
    for (serve, passes) in [(ServeConfig::default(), 1u64), (evicting, 2)] {
        let server = start(&tmp, serve, NetConfig::default());
        let meters = server.snapshots().metrics();
        let mut c = client(&server);
        for pass in 0..passes {
            for (&day, &want) in saved.iter().zip(&expected) {
                for request in 0..2 {
                    let fills_before = meters.memo_fills();
                    match c.query(day, Query::Reciprocity).expect("reciprocity") {
                        Response::Ok {
                            day_served,
                            result: QueryResult::Reciprocity(r),
                        } => {
                            assert_eq!(day_served, day);
                            assert_eq!(r.to_bits(), want, "day {day} pass {pass}");
                        }
                        other => panic!("day {day}: {other:?}"),
                    }
                    let filled = meters.memo_fills() - fills_before;
                    match (pass, request) {
                        (0, 0) => assert_eq!(filled, 1, "day {day}: first request fills"),
                        (_, 1) => assert_eq!(filled, 0, "day {day}: repeat reads the memo"),
                        _ => {}
                    }
                }
            }
        }
        assert_eq!(meters.memo_hits() + meters.memo_fills(), 2 * passes * days);
        if passes == 1 {
            assert_eq!(meters.memo_fills(), days, "one fill per resident day");
            assert_eq!(meters.evictions(), 0);
        } else {
            assert!(meters.evictions() > 0, "the budget forces eviction");
            assert!(
                meters.memo_fills() > days,
                "re-mapped days recompute: {} fills over {days} days",
                meters.memo_fills()
            );
        }
        assert_eq!(server.metrics().busy(), 0);
        server.shutdown();
    }
}

/// Gate 1 (accept backlog): one worker pinned to one connection, a
/// one-slot backlog, and a burst of extra connections — at least one
/// gets the connection-level `Busy` farewell, and the pinned
/// connection keeps serving throughout.
#[test]
fn accept_backlog_overflow_answers_busy_at_the_socket() {
    let (tmp, _tl, _saved) = served_vault("busy-accept", 10, 5);
    let net = NetConfig {
        workers: 1,
        accept_backlog: 1,
        ..NetConfig::default()
    };
    let server = start(&tmp, ServeConfig::default(), net);
    let mut pinned = client(&server);
    assert!(matches!(
        pinned.query(5, Query::Counts).expect("pinned"),
        Response::Ok { .. }
    ));

    // The single worker is now dedicated to `pinned`; burst past the
    // one-slot backlog.
    let burst: Vec<TcpStream> = (0..6)
        .map(|_| TcpStream::connect(server.addr()).expect("connect"))
        .collect();
    let mut busy_farewells = 0;
    for stream in &burst {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        match Response::read_from(&mut &*stream) {
            Ok(Some(Response::Err { query_id: 0, code })) => {
                assert!(matches!(code, ErrorCode::Busy | ErrorCode::ShuttingDown));
                busy_farewells += 1;
            }
            // A queued-but-never-served connection times out or sees
            // EOF at shutdown — that's the backlog slot, not overload.
            Ok(None) | Err(_) => {}
            Ok(Some(other)) => panic!("unsolicited non-farewell response: {other:?}"),
        }
    }
    assert!(busy_farewells >= 1, "no connection-level Busy observed");
    assert!(server.metrics().rejected_conns() >= 1);
    // The pinned connection never degraded.
    assert!(matches!(
        pinned.query(5, Query::Counts).expect("pinned again"),
        Response::Ok { .. }
    ));
    server.shutdown();
}

/// Malformed bytes on the wire: the server answers one typed
/// `BadRequest` (best effort), closes that connection, stays alive for
/// fresh ones, and counts the decode error.
#[test]
fn garbage_frames_are_rejected_without_killing_the_server() {
    let (tmp, _tl, _saved) = served_vault("garbage", 10, 5);
    let server = start(&tmp, ServeConfig::default(), NetConfig::default());

    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    stream
        .write_all(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
        .expect("write");
    match Response::read_from(&mut stream) {
        Ok(Some(response)) => {
            assert_eq!(response, Response::err(0, ErrorCode::BadRequest));
        }
        other => panic!("expected a typed BadRequest farewell, got {other:?}"),
    }
    // The connection is closed after the farewell.
    let mut rest = Vec::new();
    assert_eq!(stream.read_to_end(&mut rest).expect("eof"), 0);

    // A fresh, well-formed connection still serves.
    let mut c = client(&server);
    assert!(matches!(
        c.query(10, Query::Counts).expect("fresh conn"),
        Response::Ok { .. }
    ));
    assert_eq!(server.metrics().decode_errors(), 1);
    server.shutdown();
}

/// A truncated frame (header claims params that never arrive) trips
/// the frame deadline as a typed close, not a hang.
#[test]
fn half_a_frame_hits_the_deadline_not_a_hang() {
    let (tmp, _tl, _saved) = served_vault("half-frame", 10, 5);
    let net = NetConfig {
        frame_deadline: Duration::from_millis(100),
        ..NetConfig::default()
    };
    let server = start(&tmp, ServeConfig::default(), net);
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let frame = Request {
        day: 5,
        query: Query::Degrees { u: 1 },
    }
    .encode();
    // Send the header but withhold the params forever.
    stream.write_all(&frame[..frame.len() - 2]).expect("write");
    // The server gives up within the deadline and closes; we observe
    // EOF (possibly after a BadRequest farewell) rather than hanging.
    let mut rest = Vec::new();
    let _ = stream.read_to_end(&mut rest).expect("closed");
    server.shutdown();
}

/// Graceful shutdown: idle connections get a `ShuttingDown` farewell
/// or a clean close, every thread joins (shutdown returns), and the
/// port stops accepting.
#[test]
fn graceful_shutdown_drains_workers_and_closes_the_port() {
    let (tmp, _tl, _saved) = served_vault("shutdown", 10, 5);
    let server = start(&tmp, ServeConfig::default(), NetConfig::default());
    let addr = server.addr();
    let mut c = client(&server);
    assert!(matches!(
        c.query(10, Query::Counts).expect("pre-shutdown"),
        Response::Ok { .. }
    ));

    // Shutdown with the connection still open: must return (join all
    // workers + acceptor) without hanging.
    server.shutdown();

    // The idle connection was told, or simply closed — never left
    // dangling: the next query fails fast with a typed outcome.
    match c.query(10, Query::Counts) {
        Ok(response) => assert_eq!(response.error_code(), Some(ErrorCode::ShuttingDown)),
        Err(NetError::Truncated { .. } | NetError::Io(_)) => {}
        Err(other) => panic!("unexpected post-shutdown error: {other:?}"),
    }
    // The listener is gone.
    assert!(TcpStream::connect(addr).is_err());
}
