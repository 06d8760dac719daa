//! Per-request tracing: stage-attributed timings and the lock-free
//! slow-query ring.
//!
//! A [`RequestTrace`] rides one request through the serving pipeline.
//! Stages are measured as **consecutive wall-clock marks** — each
//! [`stage`](RequestTrace::stage) call attributes the time since the
//! previous mark — so the per-stage nanoseconds sum to the end-to-end
//! time minus only the instants between `finish`'s last mark and its
//! total read (a few clock reads).
//!
//! Finished traces land in a [`TraceRing`]: a fixed-size ring of
//! seqlock-published slots. Writers claim a slot by ticket
//! (`fetch_add`), flip its sequence odd, store the entry's words, and
//! flip the sequence back even; a writer that finds the slot mid-write
//! **drops its entry** (telemetry may drop, serving never blocks) and
//! counts the drop. Readers retry-free validate the sequence before and
//! after copying the words, so a torn entry is never observed — the
//! protocol is model-checked under `loom-lite` in `model_tests`.
//!
//! Everything is built on `loom_lite::sync::atomic` so the *same
//! compiled code* is what the model checker explores; outside a model
//! run those types delegate straight to `std`.

use crate::clock;
use loom_lite::sync::atomic::{AtomicU64, Ordering};

/// Pipeline stages a request passes through, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Reading + validating the request frame off the socket.
    Decode,
    /// Admission control: shutdown/inflight/resident-byte gates plus
    /// day resolution.
    Admission,
    /// Snapshot fetch through the cache (hit / cold map / dedup wait).
    Fetch,
    /// Query evaluation against the mapped view.
    Execute,
    /// Response encode + write back to the socket.
    Encode,
}

/// Number of [`Stage`]s.
pub const STAGES: usize = 5;

impl Stage {
    /// Stable index of this stage in [`TraceEntry::stage_nanos`].
    pub fn index(self) -> usize {
        match self {
            Stage::Decode => 0,
            Stage::Admission => 1,
            Stage::Fetch => 2,
            Stage::Execute => 3,
            Stage::Encode => 4,
        }
    }

    /// Lower-case stage name, as printed in the slow log.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Decode => "decode",
            Stage::Admission => "admission",
            Stage::Fetch => "fetch",
            Stage::Execute => "execute",
            Stage::Encode => "encode",
        }
    }

    /// All stages in pipeline order.
    pub fn all() -> [Stage; STAGES] {
        [
            Stage::Decode,
            Stage::Admission,
            Stage::Fetch,
            Stage::Execute,
            Stage::Encode,
        ]
    }
}

/// How the fetch stage resolved, mirrored from
/// `san_serve::FetchKind` without depending on its (Unix-only) type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FetchClass {
    /// The request never reached the fetch stage (or needed no
    /// snapshot, e.g. a stats query).
    #[default]
    None,
    /// Served from the resident cache.
    Hit,
    /// This request led the cold map+validate.
    ColdMap,
    /// Blocked behind another request's in-flight map.
    DedupWait,
}

impl FetchClass {
    /// Lower-case class name, as printed in the slow log.
    pub fn name(self) -> &'static str {
        match self {
            FetchClass::None => "none",
            FetchClass::Hit => "hit",
            FetchClass::ColdMap => "cold_map",
            FetchClass::DedupWait => "dedup_wait",
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            FetchClass::None => 0,
            FetchClass::Hit => 1,
            FetchClass::ColdMap => 2,
            FetchClass::DedupWait => 3,
        }
    }

    fn from_u8(v: u8) -> FetchClass {
        match v {
            1 => FetchClass::Hit,
            2 => FetchClass::ColdMap,
            3 => FetchClass::DedupWait,
            _ => FetchClass::None,
        }
    }
}

/// A live trace being carried through the pipeline by one worker.
///
/// Marks are raw trace-clock ticks (TSC on x86_64); the tick→nanosecond
/// conversion is deferred to [`finish`](RequestTrace::finish) so the
/// per-stage hot path is one counter read and one saturating
/// subtraction — that is what keeps tracing under the 5% overhead gate
/// on a loopback round trip.
#[derive(Debug)]
pub struct RequestTrace {
    request_id: u64,
    day: u32,
    query_id: u16,
    fetch: FetchClass,
    started_ticks: u64,
    mark_ticks: u64,
    stage_ticks: [u64; STAGES],
}

impl RequestTrace {
    /// Starts the clock. Call at the moment the first request byte is
    /// known to be waiting (not while idling between frames).
    pub fn begin(request_id: u64) -> RequestTrace {
        let now = clock::now_ticks();
        RequestTrace {
            request_id,
            day: 0,
            query_id: 0,
            fetch: FetchClass::None,
            started_ticks: now,
            mark_ticks: now,
            stage_ticks: [0; STAGES],
        }
    }

    /// Records what the decoded frame asked for (unknown at `begin`).
    pub fn decoded(&mut self, day: u32, query_id: u16) {
        self.day = day;
        self.query_id = query_id;
    }

    /// Classifies the fetch stage once the cache has answered.
    pub fn fetched(&mut self, class: FetchClass) {
        self.fetch = class;
    }

    /// Attributes the time since the previous mark to `stage` (additive:
    /// a stage revisited accumulates).
    pub fn stage(&mut self, stage: Stage) {
        let now = clock::now_ticks();
        let spent = now.saturating_sub(self.mark_ticks);
        self.stage_ticks[stage.index()] = self.stage_ticks[stage.index()].saturating_add(spent);
        self.mark_ticks = now;
    }

    /// Seals the trace, converting every tick count to nanoseconds.
    /// `outcome` is 0 for a served request, otherwise the wire error
    /// code sent back. The floor-converting tick→ns map keeps the
    /// per-stage sum ≤ `total_nanos` whenever the tick sums held it.
    pub fn finish(self, outcome: u8) -> TraceEntry {
        let total_ticks = clock::now_ticks().saturating_sub(self.started_ticks);
        let mut stage_nanos = [0u64; STAGES];
        for (nanos, ticks) in stage_nanos.iter_mut().zip(self.stage_ticks) {
            *nanos = clock::ticks_to_nanos(ticks);
        }
        TraceEntry {
            request_id: self.request_id,
            day: self.day,
            query_id: self.query_id,
            outcome,
            fetch: self.fetch,
            stage_nanos,
            total_nanos: clock::ticks_to_nanos(total_ticks),
        }
    }
}

/// Number of `u64` words one [`TraceEntry`] packs into (the seqlock
/// slot width).
const WORDS: usize = 8;

/// One finished request trace: identity, outcome, and per-stage
/// nanosecond attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Server-assigned request id (monotonic per server).
    pub request_id: u64,
    /// Day the request asked for (0 when it never decoded).
    pub day: u32,
    /// Wire query id.
    pub query_id: u16,
    /// 0 for served, else the wire error code returned.
    pub outcome: u8,
    /// How the fetch stage resolved.
    pub fetch: FetchClass,
    /// Nanoseconds attributed to each [`Stage`] (indexed by
    /// [`Stage::index`]).
    pub stage_nanos: [u64; STAGES],
    /// End-to-end nanoseconds from `begin` to `finish`.
    pub total_nanos: u64,
}

impl TraceEntry {
    /// Nanoseconds attributed to `stage`.
    pub fn stage_nanos(&self, stage: Stage) -> u64 {
        self.stage_nanos[stage.index()]
    }

    /// Sum of all per-stage attributions (≤ `total_nanos` up to clock
    /// granularity; the acceptance gate holds it within 10%).
    pub fn stages_total_nanos(&self) -> u64 {
        self.stage_nanos
            .iter()
            .fold(0u64, |acc, n| acc.saturating_add(*n))
    }

    fn to_words(self) -> [u64; WORDS] {
        let meta = u64::from(self.day)
            | (u64::from(self.query_id) << 32)
            | (u64::from(self.outcome) << 48)
            | (u64::from(self.fetch.to_u8()) << 56);
        [
            self.request_id,
            meta,
            self.stage_nanos[0],
            self.stage_nanos[1],
            self.stage_nanos[2],
            self.stage_nanos[3],
            self.stage_nanos[4],
            self.total_nanos,
        ]
    }

    fn from_words(words: &[u64; WORDS]) -> TraceEntry {
        TraceEntry {
            request_id: words[0],
            day: (words[1] & 0xFFFF_FFFF) as u32,
            query_id: ((words[1] >> 32) & 0xFFFF) as u16,
            outcome: ((words[1] >> 48) & 0xFF) as u8,
            fetch: FetchClass::from_u8(((words[1] >> 56) & 0xFF) as u8),
            stage_nanos: [words[2], words[3], words[4], words[5], words[6]],
            total_nanos: words[7],
        }
    }
}

/// A seqlock-published cell of `W` words.
///
/// Publish protocol (model-checked in `model_tests`):
/// * writer: CAS the sequence from even to odd (claim; a failed CAS
///   means another writer is mid-publish — back off, don't spin), store
///   the words, bump the sequence back to even (publish);
/// * reader: load the sequence (odd or zero ⇒ nothing readable), copy
///   the words, re-load the sequence — a changed sequence means the copy
///   may be torn and is discarded.
///
/// Sequence 0 is "never written"; every publish leaves it at a larger
/// even value, so validated copies are never mistaken for the empty
/// state.
pub(crate) struct SeqCell<const W: usize> {
    seq: AtomicU64,
    words: [AtomicU64; W],
}

impl<const W: usize> SeqCell<W> {
    pub(crate) fn new() -> SeqCell<W> {
        SeqCell {
            seq: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Attempts one publish; `false` means another writer held the cell
    /// and this entry was dropped (the cell never blocks).
    pub(crate) fn try_write(&self, words: &[u64; W]) -> bool {
        // Claim: even → odd. SeqCst keeps the claim, the word stores and
        // the publish in one total order the reader's validation relies
        // on (loom-lite explores exactly this order).
        if self
            .seq
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |s| {
                if s % 2 == 0 {
                    Some(s + 1)
                } else {
                    None
                }
            })
            .is_err()
        {
            return false;
        }
        for (slot, word) in self.words.iter().zip(words) {
            slot.store(*word, Ordering::Release);
        }
        // Publish: odd → even (this writer owns the cell, so a plain
        // add cannot race another writer's claim).
        self.seq.fetch_add(1, Ordering::SeqCst);
        true
    }

    /// Copies the words if a consistent published value is present.
    pub(crate) fn read(&self) -> Option<[u64; W]> {
        let before = self.seq.load(Ordering::SeqCst);
        if before == 0 || before % 2 == 1 {
            return None;
        }
        let words = std::array::from_fn(|i| self.words[i].load(Ordering::Acquire));
        let after = self.seq.load(Ordering::SeqCst);
        (before == after).then_some(words)
    }
}

/// The slow-query log: a fixed-size lock-free ring of the most recent
/// finished traces, dumped sorted by total latency (slowest first).
///
/// Writers never block and never wait on readers: a slot contended by
/// another writer drops the entry and counts it in
/// [`dropped`](TraceRing::dropped). Readers ([`snapshot`](TraceRing::snapshot))
/// skip slots mid-publish.
pub struct TraceRing {
    slots: Box<[SeqCell<WORDS>]>,
    next_ticket: AtomicU64,
    next_id: AtomicU64,
    recorded: AtomicU64,
    dropped: AtomicU64,
}

impl TraceRing {
    /// A ring holding the `capacity` most recent traces (clamped ≥ 1).
    /// Also calibrates the trace clock (a one-time ~2 ms spin on
    /// x86_64) so the first traced request doesn't pay for it.
    pub fn new(capacity: usize) -> TraceRing {
        clock::calibrate();
        let capacity = capacity.max(1);
        TraceRing {
            slots: (0..capacity).map(|_| SeqCell::new()).collect(),
            next_ticket: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Slots in the ring.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Hands out the next request id (monotonic from 0).
    pub fn next_request_id(&self) -> u64 {
        // ORDERING: Relaxed — the RMW atomicity of fetch_add alone makes
        // ids unique; nothing is published through the counter.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records one finished trace. Lock-free: under slot contention the
    /// entry is dropped (and counted), never queued or blocked on.
    pub fn record(&self, entry: &TraceEntry) {
        // ORDERING: Relaxed ticket — uniqueness comes from RMW
        // atomicity; slot publication order is carried by the SeqCell
        // sequence, not by the ticket.
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        if slot.try_write(&entry.to_words()) {
            // ORDERING: Relaxed — statistics counters, see module docs.
            self.recorded.fetch_add(1, Ordering::Relaxed);
        } else {
            // ORDERING: Relaxed — statistics counters, see module docs.
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Traces successfully published so far.
    pub fn recorded(&self) -> u64 {
        // ORDERING: Relaxed load of one monotonic statistic.
        self.recorded.load(Ordering::Relaxed)
    }

    /// Traces dropped to slot contention so far.
    pub fn dropped(&self) -> u64 {
        // ORDERING: Relaxed load of one monotonic statistic.
        self.dropped.load(Ordering::Relaxed)
    }

    /// Copies every readable slot, sorted slowest-first (ties broken by
    /// most recent request id first).
    pub fn snapshot(&self) -> Vec<TraceEntry> {
        let mut out: Vec<TraceEntry> = self
            .slots
            .iter()
            .filter_map(|slot| slot.read().map(|w| TraceEntry::from_words(&w)))
            .collect();
        out.sort_unstable_by(|a, b| {
            b.total_nanos
                .cmp(&a.total_nanos)
                .then(b.request_id.cmp(&a.request_id))
        });
        out
    }

    /// The `n` slowest recent traces.
    pub fn slowest(&self, n: usize) -> Vec<TraceEntry> {
        let mut all = self.snapshot();
        all.truncate(n);
        all
    }
}

impl std::fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRing")
            .field("capacity", &self.capacity())
            .field("recorded", &self.recorded())
            .field("dropped", &self.dropped())
            .finish_non_exhaustive()
    }
}

/// Renders the ring's slowest `n` traces as the plain-text slow-query
/// log served at `GET /slowlog`: one header line, then one line per
/// trace, slowest first.
pub fn render_slowlog(ring: &TraceRing, n: usize) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "slowlog capacity={} recorded={} dropped={}",
        ring.capacity(),
        ring.recorded(),
        ring.dropped()
    );
    for e in ring.slowest(n) {
        let _ = write!(
            out,
            "id={} day={} query={} outcome={} fetch={} total_ns={}",
            e.request_id,
            e.day,
            e.query_id,
            e.outcome,
            e.fetch.name(),
            e.total_nanos
        );
        for stage in Stage::all() {
            let _ = write!(out, " {}_ns={}", stage.name(), e.stage_nanos(stage));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn entry(id: u64, total: u64) -> TraceEntry {
        TraceEntry {
            request_id: id,
            day: 42,
            query_id: 3,
            outcome: 0,
            fetch: FetchClass::Hit,
            stage_nanos: [1, 2, 3, 4, 5],
            total_nanos: total,
        }
    }

    #[test]
    fn words_round_trip_every_field() {
        let e = TraceEntry {
            request_id: u64::MAX,
            day: (1 << 20) - 1,
            query_id: 7,
            outcome: 6,
            fetch: FetchClass::DedupWait,
            stage_nanos: [u64::MAX, 0, 1, 2, 3],
            total_nanos: u64::MAX,
        };
        assert_eq!(TraceEntry::from_words(&e.to_words()), e);
        let zero = TraceEntry {
            request_id: 0,
            day: 0,
            query_id: 0,
            outcome: 0,
            fetch: FetchClass::None,
            stage_nanos: [0; STAGES],
            total_nanos: 0,
        };
        assert_eq!(TraceEntry::from_words(&zero.to_words()), zero);
    }

    #[test]
    fn trace_stages_sum_close_to_total() {
        let ring = TraceRing::new(4);
        let mut t = RequestTrace::begin(ring.next_request_id());
        t.decoded(9, 0);
        t.stage(Stage::Decode);
        std::thread::sleep(Duration::from_millis(2));
        t.stage(Stage::Admission);
        t.fetched(FetchClass::ColdMap);
        t.stage(Stage::Fetch);
        std::thread::sleep(Duration::from_millis(1));
        t.stage(Stage::Execute);
        t.stage(Stage::Encode);
        let e = t.finish(0);
        assert!(
            e.total_nanos >= 3_000_000,
            "slept 3ms, got {}",
            e.total_nanos
        );
        let sum = e.stages_total_nanos();
        assert!(sum <= e.total_nanos);
        // Stage marks are consecutive: the gap is only finish()'s last
        // clock read, far under 10% of a 3 ms request.
        assert!(
            e.total_nanos - sum < e.total_nanos / 10,
            "sum {sum} vs total {}",
            e.total_nanos
        );
        assert!(e.stage_nanos(Stage::Admission) >= 2_000_000);
        assert!(e.stage_nanos(Stage::Execute) >= 1_000_000);
        assert_eq!(e.fetch, FetchClass::ColdMap);
    }

    #[test]
    fn ring_keeps_most_recent_and_sorts_slowest_first() {
        let ring = TraceRing::new(3);
        for (id, total) in [(0u64, 50u64), (1, 10), (2, 90), (3, 30)] {
            ring.record(&entry(id, total));
        }
        // Capacity 3: entry 0 was overwritten by entry 3.
        assert_eq!(ring.recorded(), 4);
        assert_eq!(ring.dropped(), 0);
        let snap = ring.snapshot();
        let ids: Vec<u64> = snap.iter().map(|e| e.request_id).collect();
        assert_eq!(ids, vec![2, 3, 1], "slowest first: {snap:?}");
        let top = ring.slowest(1);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].request_id, 2);
    }

    #[test]
    fn empty_ring_renders_header_only() {
        let ring = TraceRing::new(8);
        let log = render_slowlog(&ring, 10);
        assert_eq!(log, "slowlog capacity=8 recorded=0 dropped=0\n");
    }

    #[test]
    fn slowlog_lines_carry_every_stage() {
        let ring = TraceRing::new(2);
        ring.record(&entry(7, 1234));
        let log = render_slowlog(&ring, 10);
        assert!(log.contains("id=7 day=42 query=3 outcome=0 fetch=hit total_ns=1234"));
        for name in [
            "decode_ns=1",
            "admission_ns=2",
            "fetch_ns=3",
            "execute_ns=4",
            "encode_ns=5",
        ] {
            assert!(log.contains(name), "{log}");
        }
    }

    #[test]
    fn request_ids_are_unique_across_threads() {
        let ring = TraceRing::new(1);
        let ids = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let mine: Vec<u64> = (0..100).map(|_| ring.next_request_id()).collect();
                    ids.lock().unwrap().extend(mine);
                });
            }
        });
        let mut ids = ids.into_inner().unwrap();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 400);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let ring = TraceRing::new(0);
        assert_eq!(ring.capacity(), 1);
        ring.record(&entry(1, 5));
        assert_eq!(ring.snapshot().len(), 1);
    }

    const fn assert_send_sync<T: Send + Sync>() {}
    const _: () = assert_send_sync::<TraceRing>();
}
