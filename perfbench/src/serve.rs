//! `serve_point` and `serve_scan`: SANW requests against a warmed
//! `NetServer` fronting a v2 vault, from two closed-loop clients on one
//! connection each (a worker owns a connection for its whole life, so
//! no more connections than workers).
//!
//! Every request is valid by construction: it names a persisted day and
//! node ids below that day's node count, so any non-`Ok` answer is a
//! failure, not part of the mix.

use crate::{stats, Outcome, Run};
use san_graph::store::SnapshotVault;
use san_graph::SanRead;
use san_net::{NetClient, NetConfig, NetServer, Query, Response};
use san_obs::Stage;
use san_serve::{ServeConfig, SnapshotServer};
use san_sim::GooglePlus;
use san_stats::SplitRng;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Which request mix the clients send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Equal shares of the five point kinds: execution is microseconds,
    /// so decode, admission, the cache hit path and encode carry the
    /// cost.
    Point,
    /// Only `Reciprocity`, O(|Es|) per request: execution carries the
    /// cost.
    Scan,
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Phase II arrivals per day (≈20 k users, 15 persisted days).
const SCALE: u32 = 100;
const STEP: u32 = 7;
const FULL_EVERY: u32 = 4;
const CLIENTS: usize = 2;
/// Requests re-issued after the timed phase and checked against the
/// executor on an eagerly loaded day.
const VERIFY: usize = 1000;
/// Traced-server ring size: the most recent 64 Ki traces of the phase.
const RING: usize = 1 << 16;

/// Point kinds, in draw order; names feed `rtt.<kind>_p50_us`.
const POINT_KINDS: [&str; 5] = [
    "degrees",
    "has_link",
    "out_neighbors",
    "common_neighbors",
    "local_clustering",
];

impl Mix {
    /// Requests per client whose completion time is one `wall_s` sample.
    fn batch(self, tiny: bool) -> u64 {
        let b = match self {
            Mix::Point => 2000,
            Mix::Scan => 200,
        };
        if tiny {
            b / 10
        } else {
            b
        }
    }

    /// Draws the next request: `(day, query, kind index)`.
    fn draw(self, rng: &mut SplitRng, fx: &Served) -> (u32, Query, u8) {
        let i = rng.below(fx.days.len() as u64) as usize;
        let (day, n) = (fx.days[i], u64::from(fx.nodes[i]));
        match self {
            Mix::Scan => (day, Query::Reciprocity, 0),
            Mix::Point => {
                let (u, v) = (rng.below(n) as u32, rng.below(n) as u32);
                let kind = rng.below(POINT_KINDS.len() as u64) as u8;
                let query = match kind {
                    0 => Query::Degrees { u },
                    1 => Query::HasLink { src: u, dst: v },
                    2 => Query::OutNeighbors {
                        u,
                        offset: 0,
                        limit: 64,
                    },
                    3 => Query::CommonNeighbors { u, v },
                    _ => Query::LocalClustering { u },
                };
                (day, query, kind)
            }
        }
    }
}

/// The served fixture: persisted days and each day's node count.
struct Served {
    dir: PathBuf,
    days: Vec<u32>,
    nodes: Vec<u32>,
    final_nodes: usize,
    /// Every synthesis event adds exactly one node or link.
    events: u64,
}

/// Synthesizes the vault at `dir`, warms every day into a fresh cache,
/// and starts the server. Returns the set-up time too.
fn setup(r: &mut Run, dir: &Path, config: NetConfig) -> Result<(NetServer, Served, f64), String> {
    let scale = if r.tiny { 10 } else { SCALE };
    let seed = r.seed;
    let _ = std::fs::remove_dir_all(dir);
    let root = r.spans.open("setup", None);
    let mut vault = SnapshotVault::create(dir).map_err(|e| format!("creating vault: {e}"))?;
    let (synth, _) = r.spans.time("setup.synthesize_into_vault", Some(root), || {
        GooglePlus::at_scale(scale).synthesize_into_vault(seed, &mut vault, STEP, FULL_EVERY)
    });
    let (truth, days) = synth.map_err(|e| format!("synthesizing: {e}"))?;
    let (server, nodes) = start(r, vault, config, &days, root)?;
    let secs = r.spans.close(root);
    let served = Served {
        dir: dir.to_path_buf(),
        days,
        nodes,
        final_nodes: truth.num_social_nodes(),
        events: (truth.num_social_nodes()
            + truth.num_attr_nodes()
            + truth.num_social_links()
            + truth.num_attr_links()) as u64,
    };
    Ok((server, served, secs))
}

/// Fronts `vault` with a cache, maps every persisted day into it, and
/// binds the server on an ephemeral loopback port.
fn start(
    r: &mut Run,
    vault: SnapshotVault,
    config: NetConfig,
    days: &[u32],
    parent: usize,
) -> Result<(NetServer, Vec<u32>), String> {
    let snaps = SnapshotServer::from_vault(vault, ServeConfig::default());
    let (nodes, _) = r.spans.time("setup.warm_cache", Some(parent), || {
        days.iter()
            .map(|&d| {
                let h = snaps
                    .get_exact(d)
                    .map_err(|e| format!("warming day {d}: {e}"))?;
                Ok(h.view().num_social_nodes() as u32)
            })
            .collect::<Result<Vec<u32>, String>>()
    });
    let nodes = nodes?;
    let (server, _) = r.spans.time("setup.bind", Some(parent), || {
        NetServer::serve(snaps, "127.0.0.1:0", config)
    });
    Ok((server.map_err(|e| format!("binding: {e}"))?, nodes))
}

/// One client's record of a phase.
#[derive(Default)]
struct ClientLog {
    sent: u64,
    ok: u64,
    typed_errors: u64,
    transport_errors: u64,
    /// Seconds per completed batch.
    batches: Vec<f64>,
    /// `(kind, round trip in ns)` per answered request, when recording.
    samples: Vec<(u8, u64)>,
}

/// Runs `CLIENTS` closed-loop clients for `dur`, each on its own
/// connection and its own seeded stream. Per-request round trips are
/// kept only when `record` is set, so untraced runs' peak memory does
/// not grow with throughput.
fn drive(
    addr: SocketAddr,
    fx: &Served,
    mix: Mix,
    stream: u64,
    dur: Duration,
    batch: u64,
    record: bool,
) -> Vec<ClientLog> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                scope.spawn(move || {
                    let mut log = ClientLog::default();
                    let Ok(mut client) = NetClient::connect(addr) else {
                        log.transport_errors += 1;
                        return log;
                    };
                    let _ = client.set_timeout(Some(Duration::from_secs(30)));
                    let mut rng = SplitRng::new(stream.wrapping_add(i as u64));
                    let started = Instant::now();
                    let mut batch_start = started;
                    while started.elapsed() < dur {
                        let (day, query, kind) = mix.draw(&mut rng, fx);
                        let sent = Instant::now();
                        let Ok(response) = client.query(day, query) else {
                            log.transport_errors += 1;
                            break;
                        };
                        let now = Instant::now();
                        log.sent += 1;
                        if record {
                            log.samples.push((kind, (now - sent).as_nanos() as u64));
                        }
                        match response {
                            Response::Ok { .. } => log.ok += 1,
                            Response::Err { .. } => log.typed_errors += 1,
                        }
                        if log.sent % batch == 0 {
                            log.batches.push((now - batch_start).as_secs_f64());
                            batch_start = now;
                        }
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Aggregate of one timed phase.
struct Phase {
    secs: f64,
    sent: u64,
    ok: u64,
    batches: Vec<f64>,
    /// Sorted round trips (ns), empty unless recorded.
    rtt_ns: Vec<f64>,
    by_kind: Vec<Vec<f64>>,
    server_mean_ns: f64,
    hit_pct: f64,
}

/// First request-stream seed of a run: warm-up clients take the next
/// `CLIENTS` streams from here, timed clients the `CLIENTS` after them,
/// and the verification sample the one after those.
fn streams(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Warms the server with the mix, then runs the timed phase. Checks the
/// client/server accounting over everything this server answered.
fn measure(
    r: &mut Run,
    server: &NetServer,
    fx: &Served,
    mix: Mix,
    dur: Duration,
    out: &mut Outcome,
) -> Phase {
    let batch = mix.batch(r.tiny);
    let warmup = if r.tiny {
        Duration::from_millis(100)
    } else {
        Duration::from_secs(1)
    };
    let stream = streams(r.seed);
    let addr = server.addr();
    let sent_before = server.metrics().requests();
    let (warm, _) = r.spans.time("warmup", None, || {
        drive(addr, fx, mix, stream, warmup, batch, false)
    });
    let lat0 = server.metrics().request_latency().snapshot();
    let s0 = server.snapshots().metrics();
    let fetch0 = [s0.hits(), s0.misses(), s0.dedup_waits()];
    let span = r.spans.open("timed", None);
    let logs = drive(
        addr,
        fx,
        mix,
        stream.wrapping_add(CLIENTS as u64),
        dur,
        batch,
        r.trace,
    );
    let secs = r.spans.close(span);
    let lat1 = server.metrics().request_latency().snapshot();
    let s1 = server.snapshots().metrics();
    let fetch1 = [s1.hits(), s1.misses(), s1.dedup_waits()];

    // Accounting: every request the clients sent is one the server
    // counted, and every counted request has exactly one outcome.
    let sum = |f: fn(&ClientLog) -> u64| warm.iter().chain(&logs).map(f).sum::<u64>();
    let (all_sent, transport, typed) = (
        sum(|l| l.sent),
        sum(|l| l.transport_errors),
        sum(|l| l.typed_errors),
    );
    let m = server.metrics();
    let counted = m.requests() - sent_before;
    let outcomes = m.served()
        + m.busy()
        + m.no_snapshot()
        + m.node_out_of_range()
        + m.store_failed()
        + m.bad_request()
        + m.shutting_down();
    out.check(transport == 0, || format!("{transport} transport errors"));
    out.check(typed == 0, || {
        format!("{typed} requests answered with an error code")
    });
    out.check(counted == all_sent, || {
        format!("clients sent {all_sent}, server counted {counted}")
    });
    out.check(outcomes == m.requests(), || {
        format!("outcomes sum to {outcomes}, requests {}", m.requests())
    });

    let mut by_kind = vec![Vec::new(); POINT_KINDS.len()];
    let mut rtt_ns = Vec::new();
    for &(kind, ns) in logs.iter().flat_map(|l| &l.samples) {
        by_kind[kind as usize].push(ns as f64);
        rtt_ns.push(ns as f64);
    }
    let fetches: u64 = fetch1.iter().zip(&fetch0).map(|(a, b)| a - b).sum();
    Phase {
        secs,
        sent: logs.iter().map(|l| l.sent).sum(),
        ok: logs.iter().map(|l| l.ok).sum(),
        batches: logs
            .iter()
            .flat_map(|l| l.batches.iter().copied())
            .collect(),
        rtt_ns: stats::sorted(rtt_ns),
        by_kind: by_kind.into_iter().map(stats::sorted).collect(),
        server_mean_ns: (lat1.sum_nanos() - lat0.sum_nanos()) as f64
            / (lat1.count() - lat0.count()).max(1) as f64,
        hit_pct: 100.0 * (fetch1[0] - fetch0[0]) as f64 / fetches.max(1) as f64,
    }
}

/// Re-issues a seeded sample of the mix and compares every response with
/// `san_net::execute` on the day loaded eagerly from the vault.
fn verify(r: &Run, server: &NetServer, fx: &Served, mix: Mix, out: &mut Outcome) {
    let loaded = SnapshotVault::open(&fx.dir).and_then(|vault| {
        fx.days
            .iter()
            .map(|&d| vault.load_day(d))
            .collect::<Result<Vec<_>, _>>()
    });
    let loaded = match loaded {
        Ok(days) => days,
        Err(e) => return out.errors.push(format!("loading the vault eagerly: {e}")),
    };
    let mut client = match NetClient::connect(server.addr()) {
        Ok(c) => c,
        Err(e) => return out.errors.push(format!("connecting: {e}")),
    };
    let _ = client.set_timeout(Some(Duration::from_secs(30)));
    let mut rng = SplitRng::new(streams(r.seed).wrapping_add(2 * CLIENTS as u64));
    let mut wrong = 0;
    for _ in 0..VERIFY {
        let (day, query, _) = mix.draw(&mut rng, fx);
        let i = fx
            .days
            .iter()
            .position(|&d| d == day)
            .expect("drawn from fx.days");
        let expected = match san_net::execute(query, &*loaded[i]) {
            Ok(result) => Response::Ok {
                day_served: day,
                result,
            },
            Err(code) => Response::Err {
                query_id: query.id(),
                code,
            },
        };
        if !matches!(client.query(day, query), Ok(got) if got == expected) {
            wrong += 1;
        }
    }
    out.check(wrong == 0, || {
        format!("{wrong} of {VERIFY} re-issued responses differ from the executor")
    });
}

/// Nanoseconds to microseconds; a refused percentile reads 0.
fn us(ns: Option<f64>) -> f64 {
    ns.map_or(0.0, |ns| ns / 1e3)
}

fn shutdown(server: NetServer, fx: &Served) {
    server.shutdown();
    let _ = std::fs::remove_dir_all(&fx.dir);
}

pub fn run(r: &mut Run, mix: Mix) -> Outcome {
    let mut out = Outcome::default();
    let untraced = NetConfig {
        trace: false,
        ..NetConfig::default()
    };
    let mut setup_s = Vec::new();
    let mut kept: Option<(NetServer, Served)> = None;
    for i in 0..SETUPS {
        if let Some((server, fx)) = kept.take() {
            shutdown(server, &fx);
        }
        let dir = r.work_dir.join(format!("vault-{i}"));
        match setup(r, &dir, untraced) {
            Ok((server, fx, secs)) => {
                setup_s.push(secs);
                kept = Some((server, fx));
            }
            Err(e) => {
                out.errors.push(e);
                return out;
            }
        }
    }
    let (server, fx) = kept.expect("at least one set-up");
    out.fixture
        .add(fx.final_nodes, fx.events, fx.days.len() as u64);

    // Untraced runs time the whole budget; traced runs split it between an
    // untraced half and a traced half, to report tracing overhead.
    let dur = if r.trace { r.seconds / 2 } else { r.seconds };
    let phase = measure(r, &server, &fx, mix, dur, &mut out);
    out.attempted = phase.sent;
    out.failed = phase.sent - phase.ok;
    out.check(!phase.batches.is_empty(), || {
        "no batch completed in the timed phase".into()
    });
    let m = &mut out.metrics;
    m.set("setup_s", stats::median(&setup_s));
    if !phase.batches.is_empty() {
        m.set("wall_s", stats::median(&phase.batches));
    }
    m.set("ok_pct", 100.0 * phase.ok as f64 / phase.sent.max(1) as f64);
    if !r.trace {
        verify(r, &server, &fx, mix, &mut out);
        shutdown(server, &fx);
        return out;
    }

    let ok_rps = phase.ok as f64 / phase.secs;
    m.set("ok_rps", ok_rps);
    m.set("p50_us", us(stats::percentile(&phase.rtt_ns, 0.5)));
    m.set("p99_us", us(stats::percentile(&phase.rtt_ns, 0.99)));
    if mix == Mix::Point {
        for (name, samples) in POINT_KINDS.iter().zip(&phase.by_kind) {
            m.set(
                &format!("rtt.{name}_p50_us"),
                us(stats::percentile(samples, 0.5)),
            );
        }
    }
    m.set("net.server_mean_us", phase.server_mean_ns / 1e3);
    m.set(
        "net.transport_mean_us",
        (stats::mean(&phase.rtt_ns) - phase.server_mean_ns) / 1e3,
    );
    m.set("serve.hit_pct", phase.hit_pct);

    // Traced half: a second server over the same vault with per-request
    // tracing on and a ring large enough for per-stage medians.
    server.shutdown();
    let traced_config = NetConfig {
        trace: true,
        slowlog_capacity: RING,
        ..NetConfig::default()
    };
    let root = r.spans.open("setup.traced", None);
    let started = SnapshotVault::open(&fx.dir)
        .map_err(|e| format!("reopening vault: {e}"))
        .and_then(|vault| start(r, vault, traced_config, &fx.days, root));
    r.spans.close(root);
    let server = match started {
        Ok((server, _)) => server,
        Err(e) => {
            out.errors.push(e);
            return out;
        }
    };
    let traced = measure(r, &server, &fx, mix, dur, &mut out);
    let entries = server.trace_ring().snapshot();
    let mut stage_sum_ns = 0.0;
    for stage in Stage::all() {
        let ns: Vec<f64> = entries
            .iter()
            .map(|e| e.stage_nanos(stage) as f64)
            .collect();
        stage_sum_ns += stats::mean(&ns);
        let median = stats::percentile(&stats::sorted(ns), 0.5);
        out.metrics
            .set(&format!("trace.{}_us", stage.name()), us(median));
    }
    let rtt_mean = stats::mean(&traced.rtt_ns);
    let m = &mut out.metrics;
    m.set(
        "trace.overhead_pct",
        100.0 * (1.0 - traced.ok as f64 / traced.secs / ok_rps),
    );
    m.set("trace.dropped", server.trace_ring().dropped() as f64);
    m.set(
        "trace.unattributed_pct",
        100.0 * (rtt_mean - stage_sum_ns) / rtt_mean,
    );
    verify(r, &server, &fx, mix, &mut out);
    shutdown(server, &fx);
    out
}
