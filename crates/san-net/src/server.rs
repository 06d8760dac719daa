//! [`NetServer`]: the TCP front-end — an acceptor thread feeding a
//! bounded connection queue, a thread-per-core worker pool serving
//! request/response over each connection, admission control at both the
//! connection and the request level, and graceful drain on shutdown.
//!
//! ## Overload behaviour (never a hang)
//!
//! Three independent admission gates, each answering with a typed
//! [`ErrorCode`] instead of queueing unboundedly:
//!
//! 1. **connection-level** — the acceptor's [`ConnQueue`] is bounded by
//!    [`NetConfig::accept_backlog`]; a full queue answers the new
//!    connection `Busy` and closes it;
//! 2. **in-flight cap** — at most [`NetConfig::max_inflight`] requests
//!    execute concurrently ([`InflightGate`]); excess requests get
//!    `Busy` on their own connection, which stays usable;
//! 3. **resident-byte budget** — a request whose day is *not* cached
//!    while the snapshot cache is at or above its configured
//!    [`max_resident_bytes`](san_serve::ServeConfig::max_resident_bytes)
//!    gets `Busy` rather than forcing an eviction storm (cached days
//!    keep serving throughout).
//!
//! ## Shutdown handshake
//!
//! [`NetServer::shutdown`] (also run on drop) sets the stop flag, wakes
//! the acceptor with a loopback no-op connection, stops the queue
//! (waking every idle worker), answers each still-queued connection
//! `ShuttingDown`, and joins all threads. Workers poll the stop flag
//! between frames (with a short read timeout), finish the request they
//! are on, and exit — the drain the `loom-lite` model suite
//! (`model_tests.rs`) checks never strands a worker or double-serves a
//! queued connection.

use crate::admin::{admin_loop, AdminState};
use crate::exec::execute;
use crate::metrics::NetMetrics;
use crate::pool::{ConnQueue, InflightGate};
use crate::proto::{
    ErrorCode, NetError, Query, QueryResult, Request, Response, MAX_STATS_BYTES,
    REQUEST_HEADER_BYTES,
};
use san_metrics::reciprocity::global_reciprocity;
use san_obs::{
    encode_prometheus, render_slowlog, FetchClass, MetricRegistry, MetricSink, Observe,
    RequestTrace, Stage, TraceRing,
};
use san_serve::{FetchKind, SnapshotServer};
use std::io::{self, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Sizing knobs for a [`NetServer`].
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Worker threads serving connections (clamped to ≥ 1). The default
    /// is one per core (`available_parallelism`).
    pub workers: usize,
    /// Connections the acceptor may queue ahead of the workers (clamped
    /// to ≥ 1); beyond it new connections are answered `Busy`. Default:
    /// 64.
    pub accept_backlog: usize,
    /// Requests allowed to execute concurrently; excess requests are
    /// answered `Busy`. `0` rejects every request (a drain mode the
    /// overload tests use). Default: `2 × workers`.
    pub max_inflight: u64,
    /// How often idle workers re-check the stop flag (the read timeout
    /// on waiting connections). Default: 25 ms.
    pub poll_interval: Duration,
    /// How long a started frame may take to arrive in full before the
    /// connection is dropped (slow-trickle defence). Default: 2 s.
    pub frame_deadline: Duration,
    /// Address for the admin HTTP listener (`GET /metrics`,
    /// `GET /slowlog`); `None` disables it. Use port 0 for an ephemeral
    /// port — see [`NetServer::admin_addr`]. Default: `None`.
    pub admin: Option<SocketAddr>,
    /// Per-request tracing into the slow-query ring. Off, requests skip
    /// every trace clock read (the bench compares both modes). Default:
    /// on.
    pub trace: bool,
    /// Slots in the slow-query ring — how many recent traces
    /// `/slowlog` can dump (clamped to ≥ 1). Default: 64.
    pub slowlog_capacity: usize,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        let cores = thread::available_parallelism().map_or(1, usize::from);
        NetConfig {
            workers: cores,
            accept_backlog: 64,
            max_inflight: 2 * cores as u64,
            poll_interval: Duration::from_millis(25),
            frame_deadline: Duration::from_secs(2),
            admin: None,
            trace: true,
            slowlog_capacity: 64,
        }
    }
}

/// How many slow-query entries one `/slowlog` dump renders.
const SLOWLOG_DUMP: usize = 32;

/// State shared by the acceptor, the workers, the admin listener, and
/// the handle.
pub(crate) struct Shared {
    snaps: SnapshotServer,
    queue: ConnQueue<TcpStream>,
    gate: InflightGate,
    metrics: NetMetrics,
    stop: AtomicBool,
    poll_interval: Duration,
    frame_deadline: Duration,
    /// All three layers' meters, registered once at startup; scraped by
    /// `/metrics`, the SANW `stats` query, and `NetServer::registry`.
    registry: MetricRegistry,
    /// The slow-query ring finished traces land in.
    ring: TraceRing,
    /// Whether workers carry a [`RequestTrace`] per request.
    trace: bool,
}

impl Shared {
    fn stopping(&self) -> bool {
        // ORDERING: Relaxed — the stop flag is advisory (workers also
        // learn of shutdown through the queue's mutex, which carries the
        // synchronisation); a slightly stale read only delays one
        // poll-interval tick.
        self.stop.load(Ordering::Relaxed)
    }

    /// One consistent metrics snapshot as Prometheus text exposition,
    /// clamped to the wire bound — the single source `/metrics` and the
    /// SANW `stats` query both serve.
    fn stats_text(&self) -> String {
        clamp_stats(encode_prometheus(&self.registry))
    }
}

impl AdminState for Shared {
    fn stopping(&self) -> bool {
        Shared::stopping(self)
    }

    fn metrics_text(&self) -> String {
        self.stats_text()
    }

    fn slowlog_text(&self) -> String {
        render_slowlog(&self.ring, SLOWLOG_DUMP)
    }
}

/// Truncates an exposition document to [`MAX_STATS_BYTES`] at a char
/// boundary (the registry would need thousands of series to get near
/// the bound; the clamp keeps the encoder total even then).
fn clamp_stats(mut text: String) -> String {
    let max = MAX_STATS_BYTES as usize;
    if text.len() > max {
        let mut cut = max;
        while cut > 0 && !text.is_char_boundary(cut) {
            cut -= 1;
        }
        text.truncate(cut);
    }
    text
}

/// [`Observe`] adapters holding the server weakly: registered sources
/// must be `Arc<dyn Observe>`, but the meters live inside [`Shared`]
/// (which owns the registry — `Arc::new_cyclic` breaks the cycle, and
/// the `Weak` keeps drop order a non-issue).
struct VaultObs(Weak<Shared>);

impl Observe for VaultObs {
    fn observe(&self, sink: &mut dyn MetricSink) {
        if let Some(shared) = self.0.upgrade() {
            shared.snaps.vault().metrics().observe(sink);
        }
    }
}

/// See [`VaultObs`].
struct ServeObs(Weak<Shared>);

impl Observe for ServeObs {
    fn observe(&self, sink: &mut dyn MetricSink) {
        if let Some(shared) = self.0.upgrade() {
            shared.snaps.metrics().observe(sink);
        }
    }
}

/// See [`VaultObs`].
struct NetObs(Weak<Shared>);

impl Observe for NetObs {
    fn observe(&self, sink: &mut dyn MetricSink) {
        if let Some(shared) = self.0.upgrade() {
            shared.metrics.observe(sink);
        }
    }
}

/// The running TCP front-end. Dropping the handle shuts the server
/// down gracefully (prefer calling [`shutdown`](NetServer::shutdown)
/// explicitly).
pub struct NetServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    admin_addr: Option<SocketAddr>,
    acceptor: Option<JoinHandle<()>>,
    admin: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl NetServer {
    /// Binds `addr` (use port 0 for an ephemeral port — see
    /// [`addr`](NetServer::addr)) and starts serving `snaps` with
    /// `config`'s pool sizing. When [`NetConfig::admin`] is set, also
    /// binds the admin HTTP listener there.
    pub fn serve(
        snaps: SnapshotServer,
        addr: impl ToSocketAddrs,
        config: NetConfig,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let admin_listener = match config.admin {
            Some(admin) => Some(TcpListener::bind(admin)?),
            None => None,
        };
        let admin_addr = match &admin_listener {
            Some(listener) => Some(listener.local_addr()?),
            None => None,
        };
        let shared = Arc::new_cyclic(|weak: &Weak<Shared>| {
            let mut registry = MetricRegistry::builder();
            registry.register(&[("layer", "vault")], Arc::new(VaultObs(weak.clone())));
            registry.register(&[("layer", "serve")], Arc::new(ServeObs(weak.clone())));
            registry.register(&[("layer", "net")], Arc::new(NetObs(weak.clone())));
            Shared {
                snaps,
                queue: ConnQueue::new(config.accept_backlog),
                gate: InflightGate::new(config.max_inflight),
                metrics: NetMetrics::new(),
                stop: AtomicBool::new(false),
                poll_interval: config.poll_interval.max(Duration::from_millis(1)),
                frame_deadline: config.frame_deadline.max(Duration::from_millis(10)),
                registry: registry.build(),
                ring: TraceRing::new(config.slowlog_capacity),
                trace: config.trace,
            }
        });
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || acceptor_loop(&shared, listener))
        };
        let admin = admin_listener.map(|listener| {
            let shared = Arc::clone(&shared);
            thread::spawn(move || admin_loop(&*shared, listener))
        });
        Ok(NetServer {
            shared,
            addr,
            admin_addr,
            acceptor: Some(acceptor),
            admin,
            workers,
        })
    }

    /// The bound address (the resolved ephemeral port when bound to
    /// port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The front-end meters.
    pub fn metrics(&self) -> &NetMetrics {
        &self.shared.metrics
    }

    /// The snapshot server being fronted.
    pub fn snapshots(&self) -> &SnapshotServer {
        &self.shared.snaps
    }

    /// The admin HTTP listener's bound address, when one was configured
    /// (the resolved ephemeral port when bound to port 0).
    pub fn admin_addr(&self) -> Option<SocketAddr> {
        self.admin_addr
    }

    /// The metric registry covering all three layers (vault, serve,
    /// net) — what `/metrics` and the SANW `stats` query scrape.
    pub fn registry(&self) -> &MetricRegistry {
        &self.shared.registry
    }

    /// The slow-query ring (what `/slowlog` dumps).
    pub fn trace_ring(&self) -> &TraceRing {
        &self.shared.ring
    }

    /// One metrics snapshot as Prometheus text exposition — the exact
    /// document `/metrics` serves.
    pub fn stats_text(&self) -> String {
        self.shared.stats_text()
    }

    /// Graceful shutdown: stop accepting, answer queued connections
    /// `ShuttingDown`, let in-flight requests finish, join every
    /// thread. Never hangs: idle workers notice within one poll
    /// interval.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        // ORDERING: Relaxed — see `Shared::stopping`; `queue.stop()`
        // below is the synchronised part of the handshake.
        self.shared.stop.store(true, Ordering::Relaxed);
        // Wake the acceptors out of their blocking accepts with no-op
        // loopback connections; they re-check the flag and exit.
        let _ = TcpStream::connect(self.addr);
        if let Some(admin_addr) = self.admin_addr {
            let _ = TcpStream::connect(admin_addr);
        }
        for stream in self.shared.queue.stop() {
            refuse(stream, ErrorCode::ShuttingDown);
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        if let Some(admin) = self.admin.take() {
            let _ = admin.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Best-effort typed farewell on a connection the pool won't serve.
fn refuse(stream: TcpStream, code: ErrorCode) {
    let _ = Response::err(0, code).write_to(&mut &stream);
    let _ = stream.shutdown(Shutdown::Both);
}

fn acceptor_loop(shared: &Shared, listener: TcpListener) {
    for stream in listener.incoming() {
        if shared.stopping() {
            // The waking no-op connection (or any late arrival) lands
            // here; just drop it and exit — the listener closes with us.
            break;
        }
        let Ok(stream) = stream else {
            // Transient accept failure (e.g. the peer aborted between
            // SYN and accept); keep serving.
            continue;
        };
        let _ = stream.set_nodelay(true);
        match shared.queue.push(stream) {
            Ok(()) => shared.metrics.record_accepted_conn(),
            Err(stream) => {
                shared.metrics.record_rejected_conn();
                let code = if shared.stopping() {
                    ErrorCode::ShuttingDown
                } else {
                    ErrorCode::Busy
                };
                refuse(stream, code);
            }
        }
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(stream) = shared.queue.pop() {
        handle_conn(shared, stream);
    }
}

/// Serves one connection until the peer closes, the frame stream
/// breaks, or the server drains.
fn handle_conn(shared: &Shared, stream: TcpStream) {
    if stream.set_read_timeout(Some(shared.poll_interval)).is_err() {
        return;
    }
    let mut probe = [0u8; 1];
    loop {
        if shared.stopping() {
            let _ = Response::err(0, ErrorCode::ShuttingDown).write_to(&mut &stream);
            break;
        }
        // Poll for the next frame without consuming: a timeout here
        // leaves no partial read behind, so the stop flag can be
        // re-checked between frames with the stream intact.
        match stream.peek(&mut probe) {
            Ok(0) => break, // peer closed
            Ok(_) => {}
            Err(e) if is_timeout(&e) => continue,
            Err(_) => break,
        }
        // A frame is arriving: start its trace before the first byte is
        // consumed, so the decode stage includes the socket read.
        let mut trace = shared
            .trace
            .then(|| RequestTrace::begin(shared.ring.next_request_id()));
        match read_request(shared, &stream) {
            Ok(Some(request)) => {
                if let Some(t) = trace.as_mut() {
                    t.decoded(request.day, request.query.id());
                    t.stage(Stage::Decode);
                }
                let response = serve_one(shared, request, trace.as_mut());
                let wrote = response.write_to(&mut &stream);
                if let Some(mut t) = trace {
                    t.stage(Stage::Encode);
                    shared.ring.record(&t.finish(outcome_of(&response)));
                }
                if wrote.is_err() {
                    break;
                }
            }
            Ok(None) => break, // clean close raced the peek
            Err(NetError::Io(_)) => break,
            Err(_) => {
                // Malformed frame: count the attempt and its typed
                // outcome; the stream can no longer be framed, so answer
                // once (best-effort) and close.
                shared.metrics.record_request();
                shared.metrics.record_decode_error();
                shared.metrics.record_bad_request();
                let _ = Response::err(0, ErrorCode::BadRequest).write_to(&mut &stream);
                if let Some(mut t) = trace {
                    t.stage(Stage::Decode);
                    shared.ring.record(&t.finish(ErrorCode::BadRequest as u8));
                }
                break;
            }
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// The wire outcome byte a finished trace records: 0 for served, else
/// the error code.
fn outcome_of(response: &Response) -> u8 {
    match response.error_code() {
        None => 0,
        Some(code) => code as u8,
    }
}

pub(crate) fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

/// Fills `buf`, retrying read timeouts until `deadline`. `Ok(false)` is
/// a clean EOF before the first byte.
fn read_exact_deadline(
    mut stream: &TcpStream,
    buf: &mut [u8],
    deadline: Instant,
    section: &'static str,
) -> Result<bool, NetError> {
    let mut got = 0;
    while got < buf.len() {
        match stream.read(&mut buf[got..]) {
            Ok(0) => {
                if got == 0 {
                    return Ok(false);
                }
                return Err(NetError::Truncated { section });
            }
            Ok(n) => got += n,
            Err(e) if is_timeout(&e) => {
                if Instant::now() >= deadline {
                    // A started frame that trickles past the deadline is
                    // indistinguishable from a stalled peer: typed
                    // truncation, connection closed — never a hang.
                    return Err(NetError::Truncated { section });
                }
            }
            Err(e) => return Err(NetError::Io(e)),
        }
    }
    Ok(true)
}

/// Reads one request frame: header first, then — only after the
/// header's declared params length passes its bounds — the params.
fn read_request(shared: &Shared, stream: &TcpStream) -> Result<Option<Request>, NetError> {
    let deadline = Instant::now() + shared.frame_deadline;
    let mut frame = vec![0u8; REQUEST_HEADER_BYTES];
    if !read_exact_deadline(stream, &mut frame, deadline, "request header")? {
        return Ok(None);
    }
    let params_len = Request::params_len(&frame)?;
    frame.resize(REQUEST_HEADER_BYTES + params_len, 0);
    if params_len > 0
        && !read_exact_deadline(
            stream,
            &mut frame[REQUEST_HEADER_BYTES..],
            deadline,
            "request params",
        )?
    {
        return Err(NetError::Truncated {
            section: "request params",
        });
    }
    Request::decode(&frame).map(|(request, _)| Some(request))
}

/// Decode → admit → execute → encode for one request. Every path
/// returns a typed response; the latency histogram sees all of them.
fn serve_one(shared: &Shared, request: Request, trace: Option<&mut RequestTrace>) -> Response {
    let started = Instant::now();
    shared.metrics.record_request();
    let response = admit_and_execute(shared, request, trace);
    shared.metrics.record_request_latency(started.elapsed());
    response
}

/// Attributes the time since the trace's last mark to `stage`, when a
/// trace is being carried.
fn mark(trace: &mut Option<&mut RequestTrace>, stage: Stage) {
    if let Some(t) = trace.as_deref_mut() {
        t.stage(stage);
    }
}

fn admit_and_execute(
    shared: &Shared,
    request: Request,
    mut trace: Option<&mut RequestTrace>,
) -> Response {
    let query_id = request.query.id();
    if shared.stopping() {
        shared.metrics.record_shutting_down();
        mark(&mut trace, Stage::Admission);
        return Response::err(query_id, ErrorCode::ShuttingDown);
    }
    // A stats query answers from the registry ahead of the in-flight
    // gate: the scrape needs no snapshot and must stay observable while
    // the server is shedding `Busy` — overload is exactly when the
    // metrics matter.
    if matches!(request.query, Query::Stats) {
        mark(&mut trace, Stage::Admission);
        let text = shared.stats_text();
        shared.metrics.record_served();
        mark(&mut trace, Stage::Execute);
        return Response::Ok {
            day_served: 0,
            result: QueryResult::Stats(text),
        };
    }
    // Gate 2: in-flight cap. The permit spans snapshot fetch +
    // execution.
    let Some(_permit) = shared.gate.try_enter() else {
        shared.metrics.record_busy();
        mark(&mut trace, Stage::Admission);
        return Response::err(query_id, ErrorCode::Busy);
    };
    let Some(day) = shared.snaps.vault().nearest_at_or_before(request.day) else {
        shared.metrics.record_no_snapshot();
        mark(&mut trace, Stage::Admission);
        return Response::err(query_id, ErrorCode::NoSnapshot);
    };
    // Gate 3: resident-byte budget. A cold day while the cache is at
    // budget would evict a hot one under load — shed instead. Cached
    // days keep serving.
    if !shared.snaps.is_cached(day)
        && shared.snaps.resident_bytes() >= shared.snaps.config().max_resident_bytes
    {
        shared.metrics.record_busy();
        mark(&mut trace, Stage::Admission);
        return Response::err(query_id, ErrorCode::Busy);
    }
    mark(&mut trace, Stage::Admission);
    match shared.snaps.get_exact_kind(day) {
        Err(_) => {
            shared.metrics.record_store_failed();
            mark(&mut trace, Stage::Fetch);
            Response::err(query_id, ErrorCode::StoreFailed)
        }
        Ok((handle, kind)) => {
            if let Some(t) = trace.as_deref_mut() {
                t.fetched(match kind {
                    FetchKind::Hit => FetchClass::Hit,
                    FetchKind::ColdMap => FetchClass::ColdMap,
                    FetchKind::DedupWait => FetchClass::DedupWait,
                });
            }
            mark(&mut trace, Stage::Fetch);
            let result = match request.query {
                // O(|Es|) once per resident day, then O(1): the value
                // lives in the day's cache entry, filled by the same
                // kernel `execute` runs.
                Query::Reciprocity => Ok(QueryResult::Reciprocity(
                    shared
                        .snaps
                        .memoised_reciprocity(&handle, |view| global_reciprocity(view)),
                )),
                query => execute(query, &handle.view()),
            };
            mark(&mut trace, Stage::Execute);
            match result {
                Ok(result) => {
                    shared.metrics.record_served();
                    Response::Ok {
                        day_served: handle.day(),
                        result,
                    }
                }
                Err(code) => {
                    if code == ErrorCode::NodeOutOfRange {
                        shared.metrics.record_node_out_of_range();
                    }
                    Response::err(query_id, code)
                }
            }
        }
    }
}
