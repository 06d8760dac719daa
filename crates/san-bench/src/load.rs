//! Closed- and open-loop load generators for the `san-net` TCP
//! front-end.
//!
//! Both replay the same deterministic **mixed query stream** (every
//! protocol query kind, weighted toward the cheap point lookups a real
//! serving tier sees most) against a server address and record
//! per-request latency in one shared [`LatencyHistogram`], so
//! p50/p99/p999 come from the same instrument the server itself uses.
//!
//! * [`closed_loop`] — each client sends its next request the moment
//!   the previous response lands. Measures the server's best-case
//!   round-trip under a fixed concurrency level; throughput floats.
//! * [`open_loop`] — each client fires on a fixed schedule regardless
//!   of response times, and latency is measured **from the scheduled
//!   send instant**, so queueing delay counts (the classic guard
//!   against coordinated omission). Measures behaviour at a fixed
//!   offered rate; latency floats.
//!
//! The generators are transport-level clients only — they run on any
//! platform and in the benches drive a Unix-hosted
//! `san_net::NetServer` over loopback.

use san_graph::meter::LatencyHistogram;
use san_net::{ErrorCode, NetClient, Query, Response};
use san_stats::SplitRng;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a mixed stream queries: node/day ranges plus the master seed.
#[derive(Debug, Clone, Copy)]
pub struct StreamSpec {
    /// Master seed; client `i` derives its own stream from `seed + i`.
    pub seed: u64,
    /// Days are drawn uniformly from `0..=max_day`.
    pub max_day: u32,
    /// Node ids are drawn uniformly from `0..max_node` (keep at or
    /// below the *earliest* served snapshot's node count to stay on
    /// the `Ok` path; overshoot deliberately to exercise typed
    /// `NodeOutOfRange` responses).
    pub max_node: u32,
}

/// Draws the next `(day, query)` of the mixed stream.
///
/// The mix is weighted toward point lookups (degrees, has-link,
/// neighbor pages) with a steady trickle of whole-graph metrics
/// (reciprocity, clustering), echoing the paper's serving workload:
/// many profile-shaped reads, occasional analytics.
pub fn next_query(rng: &mut SplitRng, spec: &StreamSpec) -> (u32, Query) {
    let day = rng.below(u64::from(spec.max_day) + 1) as u32;
    let node = |rng: &mut SplitRng| rng.below(u64::from(spec.max_node.max(1))) as u32;
    let query = match rng.below(16) {
        0..=3 => Query::Degrees { u: node(rng) },
        4..=7 => Query::HasLink {
            src: node(rng),
            dst: node(rng),
        },
        8..=10 => Query::OutNeighbors {
            u: node(rng),
            offset: 0,
            limit: 64,
        },
        11..=12 => Query::CommonNeighbors {
            u: node(rng),
            v: node(rng),
        },
        13 => Query::Counts,
        14 => Query::Reciprocity,
        _ => Query::LocalClustering { u: node(rng) },
    };
    (day, query)
}

/// Aggregated outcome of one load run across every client.
#[derive(Debug)]
pub struct LoadReport {
    /// Requests sent (and answered — transport errors end a client).
    pub sent: u64,
    /// `Ok` responses.
    pub served: u64,
    /// Typed `Busy` responses (admission control shed the request).
    pub busy: u64,
    /// Other typed error responses (`NoSnapshot`, `NodeOutOfRange`, …).
    pub rejected: u64,
    /// Transport-level failures (connection reset, truncated frame).
    pub transport_errors: u64,
    /// Per-request latency across all clients.
    pub latency: Arc<LatencyHistogram>,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
}

impl LoadReport {
    /// Median request latency in nanoseconds.
    pub fn p50_nanos(&self) -> u64 {
        self.latency.quantile_nanos(0.5)
    }

    /// 99th-percentile request latency in nanoseconds.
    pub fn p99_nanos(&self) -> u64 {
        self.latency.quantile_nanos(0.99)
    }

    /// 99.9th-percentile request latency in nanoseconds.
    pub fn p999_nanos(&self) -> u64 {
        self.latency.quantile_nanos(0.999)
    }

    /// Achieved throughput in requests per second.
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.sent as f64 / secs
        } else {
            0.0
        }
    }
}

/// Per-run shared tallies (the histogram plus outcome counters).
#[derive(Default)]
struct Tally {
    sent: AtomicU64,
    served: AtomicU64,
    busy: AtomicU64,
    rejected: AtomicU64,
    transport_errors: AtomicU64,
}

// ORDERING: every Tally counter is Relaxed — independent monotonic
// meters summed after all client threads have joined; the joins give
// the happens-before edge that makes the final loads exact.

fn classify(tally: &Tally, response: &Response) {
    // ORDERING: Relaxed — independent monotonic meters; exactness comes
    // from RMW atomicity, visibility from the thread joins in
    // `run_clients` before anyone reads them.
    match response {
        Response::Ok { .. } => tally.served.fetch_add(1, Ordering::Relaxed),
        Response::Err {
            code: ErrorCode::Busy,
            ..
        } => tally.busy.fetch_add(1, Ordering::Relaxed),
        Response::Err { .. } => tally.rejected.fetch_add(1, Ordering::Relaxed),
    };
}

fn finish(tally: &Tally, latency: Arc<LatencyHistogram>, elapsed: Duration) -> LoadReport {
    // ORDERING: Relaxed loads — called only after every client thread
    // joined (scope exit), so these reads are already exact.
    LoadReport {
        sent: tally.sent.load(Ordering::Relaxed),
        served: tally.served.load(Ordering::Relaxed),
        busy: tally.busy.load(Ordering::Relaxed),
        rejected: tally.rejected.load(Ordering::Relaxed),
        transport_errors: tally.transport_errors.load(Ordering::Relaxed),
        latency,
        elapsed,
    }
}

/// Runs `clients` closed-loop clients, each sending
/// `requests_per_client` mixed queries back-to-back (next request only
/// after the previous response). Latency is the plain round-trip.
pub fn closed_loop(
    addr: SocketAddr,
    clients: usize,
    requests_per_client: u64,
    spec: StreamSpec,
) -> LoadReport {
    run_clients(addr, clients, spec, move |client, rng, spec, record| {
        for _ in 0..requests_per_client {
            let (day, query) = next_query(rng, spec);
            let start = Instant::now();
            match client.query(day, query) {
                Ok(response) => record(&response, start.elapsed()),
                Err(_) => return Err(()),
            }
        }
        Ok(())
    })
}

/// Runs `clients` open-loop clients, each firing `requests_per_client`
/// mixed queries on a fixed cadence of one request per `interval`,
/// **regardless of how long responses take**. Latency for request `k`
/// is measured from its scheduled instant `start + k × interval`, so
/// time spent queued behind a slow server is charged to the request —
/// the coordinated-omission-free number.
///
/// One connection per client, so a late response delays later sends;
/// with the schedule-anchored clock that delay shows up as latency,
/// which is exactly the point.
pub fn open_loop(
    addr: SocketAddr,
    clients: usize,
    requests_per_client: u64,
    interval: Duration,
    spec: StreamSpec,
) -> LoadReport {
    run_clients(addr, clients, spec, move |client, rng, spec, record| {
        let epoch = Instant::now();
        for k in 0..requests_per_client {
            let due = epoch + interval * (k as u32);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let (day, query) = next_query(rng, spec);
            match client.query(day, query) {
                Ok(response) => record(&response, due.elapsed()),
                Err(_) => return Err(()),
            }
        }
        Ok(())
    })
}

/// Shared client-fleet scaffolding: one thread + connection + derived
/// rng per client, one histogram and tally across all of them.
fn run_clients<F>(addr: SocketAddr, clients: usize, spec: StreamSpec, body: F) -> LoadReport
where
    F: Fn(
            &mut NetClient,
            &mut SplitRng,
            &StreamSpec,
            &mut dyn FnMut(&Response, Duration),
        ) -> Result<(), ()>
        + Send
        + Sync,
{
    let latency = Arc::new(LatencyHistogram::new());
    let tally = Tally::default();
    let started = Instant::now();
    std::thread::scope(|scope| {
        for i in 0..clients {
            let latency = Arc::clone(&latency);
            let tally = &tally;
            let body = &body;
            scope.spawn(move || {
                // ORDERING: Relaxed fetch-adds throughout — independent
                // monotonic meters, read only after the scope joins every
                // client thread (see `classify`/`finish`).
                let Ok(mut client) = NetClient::connect(addr) else {
                    tally.transport_errors.fetch_add(1, Ordering::Relaxed);
                    return;
                };
                let _ = client.set_timeout(Some(Duration::from_secs(30)));
                let mut rng = SplitRng::new(spec.seed.wrapping_add(i as u64));
                let mut record = |response: &Response, elapsed: Duration| {
                    tally.sent.fetch_add(1, Ordering::Relaxed);
                    latency.record(elapsed);
                    classify(tally, response);
                };
                if body(&mut client, &mut rng, &spec, &mut record).is_err() {
                    // ORDERING: Relaxed — same meter discipline as above.
                    tally.transport_errors.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    finish(&tally, latency, started.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_stream_is_deterministic_and_covers_every_query_kind() {
        let spec = StreamSpec {
            seed: 42,
            max_day: 30,
            max_node: 1000,
        };
        let draw = |seed: u64| {
            let mut rng = SplitRng::new(seed);
            (0..256)
                .map(|_| next_query(&mut rng, &spec))
                .collect::<Vec<_>>()
        };
        let a = draw(7);
        assert_eq!(a, draw(7), "same seed, same stream");
        assert_ne!(a, draw(8), "different seed, different stream");

        let mut kinds = [false; 7];
        for (day, query) in &a {
            assert!(*day <= spec.max_day);
            let k = match query {
                Query::Counts => 0,
                Query::Degrees { .. } => 1,
                Query::OutNeighbors { limit, .. } => {
                    assert!(*limit <= san_net::proto::MAX_NEIGHBOR_PAGE);
                    2
                }
                Query::HasLink { .. } => 3,
                Query::CommonNeighbors { .. } => 4,
                Query::Reciprocity => 5,
                Query::LocalClustering { .. } => 6,
                // The load mix is graph traffic only; scrapes are driven
                // by the observability harness, never drawn here.
                Query::Stats => panic!("load stream drew a stats query"),
            };
            kinds[k] = true;
        }
        assert_eq!(kinds, [true; 7], "256 draws cover all 7 query kinds");
    }

    #[test]
    fn report_quantiles_and_throughput_read_back() {
        let latency = Arc::new(LatencyHistogram::new());
        for micros in [5u64, 10, 20, 40, 5000] {
            latency.record(Duration::from_micros(micros));
        }
        let report = LoadReport {
            sent: 5,
            served: 4,
            busy: 1,
            rejected: 0,
            transport_errors: 0,
            latency,
            elapsed: Duration::from_secs(1),
        };
        assert!(report.p50_nanos() > 0);
        assert!(report.p99_nanos() >= report.p50_nanos());
        assert!(report.p999_nanos() >= report.p99_nanos());
        assert!((report.throughput_rps() - 5.0).abs() < 1e-9);
    }
}
