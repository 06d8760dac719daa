//! Timestamped SAN evolution: event logs, replay, and daily snapshots.
//!
//! The paper's dataset is a sequence of **79 daily snapshots** of a growing
//! network (§2.2). We represent growth as an append-only [`SanEvent`] log
//! ([`SanTimeline`]); any day's snapshot is reproduced by replaying the
//! prefix of events with `day ≤ t`. Generators build timelines through
//! [`TimelineBuilder`], which maintains the live [`San`] (so models can
//! query degrees and neighbourhoods while growing the network) and records
//! every mutation. Its [`BuilderView`] adds the one query the mutable
//! adjacency lists answer slowly — the sorted `Γs(u)` row a triangle-
//! closing walk reads on every step.

use crate::arena::RowArena;
use crate::ids::{AttrId, AttrType, SocialId};
use crate::read::SanRead;
use crate::san::San;
use std::borrow::Cow;

/// One growth event. Node ids are implicit: the `k`-th `SocialNode` event
/// creates `SocialId(k)`, and likewise for attribute nodes — replay is
/// therefore unambiguous and the log is compact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SanEvent {
    /// A user joins.
    SocialNode {
        /// Arrival day.
        day: u32,
    },
    /// A new attribute value first appears.
    AttrNode {
        /// Arrival day.
        day: u32,
        /// Attribute category.
        ty: AttrType,
    },
    /// A directed social link is created.
    SocialLink {
        /// Creation day.
        day: u32,
        /// Source user.
        src: SocialId,
        /// Destination user.
        dst: SocialId,
    },
    /// An undirected user–attribute link is created.
    AttrLink {
        /// Creation day.
        day: u32,
        /// The user.
        user: SocialId,
        /// The attribute.
        attr: AttrId,
    },
}

impl SanEvent {
    /// The day the event occurred.
    pub fn day(&self) -> u32 {
        match *self {
            SanEvent::SocialNode { day }
            | SanEvent::AttrNode { day, .. }
            | SanEvent::SocialLink { day, .. }
            | SanEvent::AttrLink { day, .. } => day,
        }
    }
}

/// Per-day aggregate counts (the series of Figures 2 and 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DayCounts {
    /// Day index.
    pub day: u32,
    /// Cumulative social nodes at end of day.
    pub social_nodes: usize,
    /// Cumulative attribute nodes at end of day.
    pub attr_nodes: usize,
    /// Cumulative social links at end of day.
    pub social_links: usize,
    /// Cumulative attribute links at end of day.
    pub attr_links: usize,
}

/// Advances `idx` past every event up to and including `day` (the log is
/// day-ordered) and returns those events — the slice one multi-day
/// [`DeltaFreezer::apply_days`](crate::delta::DeltaFreezer::apply_days)
/// patch consumes.
fn take_through_day<'a>(events: &'a [SanEvent], day: u32, idx: &mut usize) -> &'a [SanEvent] {
    let start = *idx;
    *idx += events[start..].partition_point(|e| e.day() <= day);
    &events[start..*idx]
}

impl DayCounts {
    /// Reads the aggregate counters of any SAN view as the end-of-`day`
    /// totals — the one place the field-by-field assembly lives.
    pub fn measure(day: u32, g: &impl crate::read::SanRead) -> DayCounts {
        DayCounts {
            day,
            social_nodes: g.num_social_nodes(),
            attr_nodes: g.num_attr_nodes(),
            social_links: g.num_social_links(),
            attr_links: g.num_attr_links(),
        }
    }
}

/// An immutable, day-ordered SAN growth log.
#[derive(Debug, Clone, Default)]
pub struct SanTimeline {
    events: Vec<SanEvent>,
}

impl SanTimeline {
    /// Wraps a day-ordered event list.
    ///
    /// # Panics
    /// Panics if the events are not sorted by day (replay would be
    /// ambiguous).
    pub fn from_events(events: Vec<SanEvent>) -> Self {
        assert!(
            events.windows(2).all(|w| w[0].day() <= w[1].day()),
            "timeline events must be day-ordered"
        );
        SanTimeline { events }
    }

    /// The raw event log.
    pub fn events(&self) -> &[SanEvent] {
        &self.events
    }

    /// The last day with any event (`None` for an empty timeline).
    pub fn max_day(&self) -> Option<u32> {
        self.events.last().map(SanEvent::day)
    }

    /// Replays the log through day `day` (inclusive) into a fresh [`San`].
    pub fn snapshot_at(&self, day: u32) -> San {
        let mut san = San::new();
        for ev in &self.events {
            if ev.day() > day {
                break;
            }
            Self::apply(&mut san, ev);
        }
        san
    }

    /// Replays the log through day `day` and freezes the result into an
    /// immutable [`CsrSan`](crate::CsrSan) — the snapshot form every
    /// analytic consumes. One replay, one freeze, no retained mutable
    /// state; the product is `Send + Sync`, so per-day sweeps can build
    /// snapshots on worker threads.
    ///
    /// This replays from day 0, so calling it for *every* day is
    /// quadratic; all-day sweeps should use the incremental
    /// [`snapshot_stream`](SanTimeline::snapshot_stream) /
    /// [`for_each_snapshot`](SanTimeline::for_each_snapshot) pipeline
    /// instead.
    pub fn snapshot_csr(&self, day: u32) -> crate::CsrSan {
        self.snapshot_at(day).freeze()
    }

    /// Streams `(day, Arc<CsrSan>)` for every `step`-th day (day 0, `step`,
    /// `2·step`, …, always including the final day) in one incremental
    /// delta-freeze pass ([`DeltaFreezer`](crate::delta::DeltaFreezer)):
    /// each sampled day's snapshot is produced by patching the previous
    /// sampled day's CSR arrays with every event in between, in one merge
    /// pass, so a sweep costs one patch per *sampled* day — near-linear in
    /// events instead of the quadratic replay-per-day of calling
    /// [`snapshot_csr`](SanTimeline::snapshot_csr) in a loop, and days
    /// off the grid are never frozen at all.
    ///
    /// Snapshots are yielded **in day order** as `Arc`-shared,
    /// `Send + Sync` handles — the hand-off itself is allocation-free (no
    /// flat-array clone), so they can be given to worker threads or
    /// wrapped into a [`ShardedCsrSan`](crate::shard::ShardedCsrSan) for
    /// intra-snapshot parallelism. Only the freezer's current state plus
    /// whatever snapshots consumers still hold are live — O(E) memory for
    /// a sequential sweep regardless of timeline length. An empty timeline
    /// yields nothing.
    ///
    /// # Panics
    /// Panics if `step == 0`.
    pub fn snapshot_stream(&self, step: u32) -> SnapshotStream<'_> {
        assert!(step >= 1, "step must be at least 1");
        SnapshotStream {
            events: &self.events,
            idx: 0,
            day: 0,
            max_day: self.max_day(),
            step,
            emit_from: 0,
            pending: None,
            freezer: crate::delta::DeltaFreezer::new(),
        }
    }

    /// Warm-started form of [`snapshot_stream`](SanTimeline::snapshot_stream):
    /// yields the sampled days of `start..=max_day` (the same `step` grid a
    /// full sweep uses — `day % step == 0` plus the forced final day) but
    /// seeds the delta freezer from the **nearest persisted vault day at or
    /// before `start`** instead of replaying from day 0, so the sweep costs
    /// only the events after the persisted day.
    ///
    /// The yielded snapshots are bit-identical to the corresponding days of
    /// a full `snapshot_stream(step)` (the `vault_equivalence` suite locks
    /// this down). When the vault holds no day at or before `start`, the
    /// stream falls back to replaying from day 0 and simply withholds the
    /// days before `start`; when `start` is past the final day, it yields
    /// nothing.
    ///
    /// # Panics
    /// Panics if `step == 0`.
    pub fn resume_from_vault(
        &self,
        vault: &crate::store::SnapshotVault,
        start: u32,
        step: u32,
    ) -> Result<SnapshotStream<'_>, crate::store::StoreError> {
        assert!(step >= 1, "step must be at least 1");
        if self.max_day().filter(|&d| start <= d).is_none() {
            // Empty timeline or start past the final day: nothing to emit
            // (and no reason to touch the vault).
            return Ok(self.exhausted_stream(crate::delta::DeltaFreezer::new(), start, step));
        }
        match crate::delta::DeltaFreezer::resume_from_vault(vault, start)? {
            None => Ok(SnapshotStream {
                events: &self.events,
                idx: 0,
                day: 0,
                max_day: self.max_day(),
                step,
                emit_from: start,
                pending: None,
                freezer: crate::delta::DeltaFreezer::new(),
            }),
            Some((persisted, freezer)) => Ok(self.resume_stream(freezer, persisted, start, step)),
        }
    }

    /// Warm-started form of [`snapshot_stream`](SanTimeline::snapshot_stream)
    /// seeded from an **already materialised** end-of-day snapshot — what
    /// a `SnapshotSource::Mapped` sweep of `san-metrics`' `evolve_metric`
    /// uses to seed from a zero-copy mapped day
    /// ([`CsrSanView::to_owned_csr`](crate::view::CsrSanView::to_owned_csr)),
    /// and what [`resume_from_vault`](SanTimeline::resume_from_vault) is
    /// built on. Yields the sampled days of `start..=max_day` on the same
    /// `step` grid as a full sweep, delta-patching forward from
    /// `seed_day`.
    ///
    /// `seed` must be the end-of-day state of `seed_day` of **this**
    /// timeline (the vault and mapped paths guarantee it); a mismatched
    /// seed yields snapshots of a different network, exactly as feeding a
    /// foreign snapshot to
    /// [`DeltaFreezer::from_shared`](crate::DeltaFreezer::from_shared)
    /// would.
    ///
    /// # Panics
    /// Panics if `step == 0` or `seed_day > start`.
    pub fn resume_from_snapshot(
        &self,
        seed: std::sync::Arc<crate::CsrSan>,
        seed_day: u32,
        start: u32,
        step: u32,
    ) -> SnapshotStream<'_> {
        assert!(step >= 1, "step must be at least 1");
        assert!(
            seed_day <= start,
            "seed day {seed_day} must not exceed start day {start}"
        );
        let freezer = crate::delta::DeltaFreezer::from_shared(seed);
        if self.max_day().filter(|&d| start <= d).is_none() {
            return self.exhausted_stream(freezer, start, step);
        }
        self.resume_stream(freezer, seed_day, start, step)
    }

    /// A stream that yields nothing (but still carries the freezer, so
    /// counters remain readable).
    fn exhausted_stream(
        &self,
        freezer: crate::delta::DeltaFreezer,
        start: u32,
        step: u32,
    ) -> SnapshotStream<'_> {
        SnapshotStream {
            events: &self.events,
            idx: self.events.len(),
            day: 0,
            max_day: None,
            step,
            emit_from: start,
            pending: None,
            freezer,
        }
    }

    /// Shared warm-start core: `freezer` already holds the end-of-day
    /// state of `seed_day`; emit the sampled days of `start..=last`.
    /// Callers have checked `start <= last`.
    fn resume_stream(
        &self,
        freezer: crate::delta::DeltaFreezer,
        seed_day: u32,
        start: u32,
        step: u32,
    ) -> SnapshotStream<'_> {
        // Callers checked the timeline is nonempty; on an empty one the
        // seed day is trivially the last day, which routes into the
        // exhausted-stream arm below instead of panicking.
        let last = self.max_day().unwrap_or(seed_day);
        // The seeded snapshot IS the end-of-day state of `seed_day`;
        // emit it first if that day is on the grid.
        let pending = (seed_day == start && (seed_day.is_multiple_of(step) || seed_day == last))
            .then_some(seed_day);
        if seed_day == last {
            let mut stream = self.exhausted_stream(freezer, start, step);
            stream.pending = pending;
            return stream;
        }
        SnapshotStream {
            events: &self.events,
            idx: self.events.partition_point(|e| e.day() <= seed_day),
            day: seed_day + 1,
            max_day: Some(last),
            step,
            emit_from: start,
            pending,
            freezer,
        }
    }

    /// Borrowing form of [`snapshot_stream`](SanTimeline::snapshot_stream):
    /// invokes `visit(day, &CsrSan)` with the delta-frozen end-of-day
    /// snapshot of every sampled day. Like the stream, it patches only the
    /// sampled days, each with every event since the previous one; each
    /// snapshot is dropped before the next patch, so the freezer reuses
    /// its buffers throughout the sweep.
    ///
    /// # Panics
    /// Panics if `step == 0`.
    pub fn for_each_snapshot<F: FnMut(u32, &crate::CsrSan)>(&self, step: u32, mut visit: F) {
        for (day, snap) in self.snapshot_stream(step) {
            visit(day, &snap);
        }
    }

    /// Replays the whole log.
    pub fn final_snapshot(&self) -> San {
        match self.max_day() {
            Some(d) => self.snapshot_at(d),
            None => San::new(),
        }
    }

    /// Incrementally replays the log, invoking `visit(day, &san)` with the
    /// end-of-day state for every day in `0..=max_day`. This is the engine
    /// behind every "evolution of metric X" figure: one pass, no snapshot
    /// clones.
    pub fn for_each_day<F: FnMut(u32, &San)>(&self, mut visit: F) {
        let Some(max_day) = self.max_day() else {
            return;
        };
        let mut san = San::new();
        let mut idx = 0;
        for day in 0..=max_day {
            while idx < self.events.len() && self.events[idx].day() == day {
                Self::apply(&mut san, &self.events[idx]);
                idx += 1;
            }
            visit(day, &san);
        }
    }

    /// Per-day cumulative node/link counts (Figures 2–3) in a single pass.
    pub fn day_counts(&self) -> Vec<DayCounts> {
        let mut out = Vec::new();
        self.for_each_day(|day, san| out.push(DayCounts::measure(day, san)));
        out
    }

    /// All social-link arrival events in order — the trace replayed by the
    /// attachment-model likelihood evaluation (Fig. 15).
    pub fn social_link_arrivals(&self) -> impl Iterator<Item = (u32, SocialId, SocialId)> + '_ {
        self.events.iter().filter_map(|ev| match *ev {
            SanEvent::SocialLink { day, src, dst } => Some((day, src, dst)),
            _ => None,
        })
    }

    fn apply(san: &mut San, ev: &SanEvent) {
        match *ev {
            SanEvent::SocialNode { .. } => {
                san.add_social_node();
            }
            SanEvent::AttrNode { ty, .. } => {
                san.add_attr_node(ty);
            }
            SanEvent::SocialLink { src, dst, .. } => {
                san.add_social_link(src, dst);
            }
            SanEvent::AttrLink { user, attr, .. } => {
                san.add_attr_link(user, attr);
            }
        }
    }
}

/// Iterator over `(day, Arc<CsrSan>)` snapshots of every sampled day,
/// produced incrementally by a
/// [`DeltaFreezer`](crate::delta::DeltaFreezer). Built by
/// [`SanTimeline::snapshot_stream`].
#[derive(Debug)]
pub struct SnapshotStream<'a> {
    events: &'a [SanEvent],
    idx: usize,
    /// The first day the freezer has not advanced through yet.
    day: u32,
    max_day: Option<u32>,
    step: u32,
    /// Sampled days before this are neither patched nor yielded (the
    /// vault-resume case: the grid stays the full sweep's, only the
    /// emission window narrows).
    emit_from: u32,
    /// A day whose snapshot is already the freezer's current state (the
    /// vault-loaded day) and must be yielded before any patching.
    pending: Option<u32>,
    freezer: crate::delta::DeltaFreezer,
}

impl SnapshotStream<'_> {
    /// Shared snapshots handed out of the freezer so far (the per-sweep
    /// hand-off budget the regression tests pin down).
    pub fn snapshots_taken(&self) -> u64 {
        self.freezer.snapshots_taken()
    }

    /// Days advanced through the underlying freezer so far.
    pub fn days_applied(&self) -> u64 {
        self.freezer.days_applied()
    }
}

impl Iterator for SnapshotStream<'_> {
    type Item = (u32, std::sync::Arc<crate::CsrSan>);

    fn next(&mut self) -> Option<(u32, std::sync::Arc<crate::CsrSan>)> {
        if let Some(day) = self.pending.take() {
            return Some((day, self.freezer.snapshot()));
        }
        let max_day = self.max_day?;
        // The next emitted day: the first grid day at or after both the
        // next unapplied day and the emission window (which the
        // constructors keep at or before `max_day`), capped by the forced
        // final day. Grid days before the window are skipped, not patched.
        let day = self
            .day
            .max(self.emit_from)
            .checked_next_multiple_of(self.step)
            .map_or(max_day, |d| d.min(max_day));
        let events = take_through_day(self.events, day, &mut self.idx);
        self.freezer
            .apply_days(events, u64::from(day - self.day) + 1);
        if day == max_day {
            // Exhausted; also guards `day + 1` against u32 overflow.
            self.max_day = None;
        } else {
            self.day = day + 1;
        }
        Some((day, self.freezer.snapshot()))
    }
}

/// Records growth events while maintaining the live network.
///
/// Generators call the same mutation API as [`San`]; every successful
/// mutation is appended to the log. Days advance monotonically through
/// [`TimelineBuilder::advance_to_day`].
///
/// Besides the [`San`], the builder keeps one sorted, deduplicated
/// `Γs(u)` row per social node, in one row arena of its own (one `Vec`
/// for all rows, a `(start, len, cap)` span per node), updated by
/// binary-search insertion in place on every new social link.
/// [`San::social_neighbors`] has to merge, sort and allocate the in- and
/// out-lists on every call; the generator's random-walk closing
/// ([`view`](TimelineBuilder::view)) reads the stored row instead.
///
/// The rows also decide whether a link is new: `dst ∉ Γs(src)` means no
/// link joins the pair in either direction, so
/// [`add_social_link`](TimelineBuilder::add_social_link) appends it
/// without scanning the [`San`]'s lists, and scans them only when a
/// reverse (or the same) link already made the pair neighbours.
///
/// The rows live only as long as the builder:
/// [`finish`](TimelineBuilder::finish) drops them and compacts the
/// [`San`] ([`San::shrink_to_fit`]), so the finished network costs only
/// its live entries.
#[derive(Debug, Clone, Default)]
pub struct TimelineBuilder {
    san: San,
    /// `Γs(u)` per social node: sorted, deduplicated, never containing `u`.
    social_rows: RowArena<SocialId>,
    events: Vec<SanEvent>,
    day: u32,
}

impl TimelineBuilder {
    /// Creates an empty builder at day 0.
    pub fn new() -> Self {
        TimelineBuilder::default()
    }

    /// The current day.
    pub fn day(&self) -> u32 {
        self.day
    }

    /// Advances the clock; days never go backwards.
    ///
    /// # Panics
    /// Panics when `day` is earlier than the current day.
    pub fn advance_to_day(&mut self, day: u32) {
        assert!(
            day >= self.day,
            "day must be monotone: {} -> {day}",
            self.day
        );
        self.day = day;
    }

    /// Read access to the live network.
    pub fn san(&self) -> &San {
        &self.san
    }

    /// The live network as a [`SanRead`] whose
    /// [`social_neighbors`](SanRead::social_neighbors) borrows the stored
    /// `Γs(u)` row instead of materialising it. Every other query
    /// delegates to the [`San`], so any analytic or model sees exactly the
    /// answers [`san`](TimelineBuilder::san) gives.
    pub fn view(&self) -> BuilderView<'_> {
        BuilderView {
            san: &self.san,
            social_rows: &self.social_rows,
        }
    }

    /// Adds a social node now.
    pub fn add_social_node(&mut self) -> SocialId {
        let id = self.san.add_social_node();
        self.social_rows.push_row();
        self.events.push(SanEvent::SocialNode { day: self.day });
        id
    }

    /// Adds an attribute node now.
    pub fn add_attr_node(&mut self, ty: AttrType) -> AttrId {
        let id = self.san.add_attr_node(ty);
        self.events.push(SanEvent::AttrNode { day: self.day, ty });
        id
    }

    /// Adds a social link now; duplicate/self-loop attempts are not
    /// recorded and return `false`.
    ///
    /// # Panics
    /// Panics if either endpoint does not exist, as
    /// [`San::add_social_link`] does.
    pub fn add_social_link(&mut self, src: SocialId, dst: SocialId) -> bool {
        let n = self.san.num_social_nodes();
        let added = if src == dst || src.index() >= n || dst.index() >= n {
            // Rejected or panicking, exactly as the San decides.
            self.san.add_social_link(src, dst)
        } else {
            match self.social_rows.row(src.index()).binary_search(&dst) {
                // `dst ∉ Γs(src)`: no link joins the pair either way.
                Err(at) => {
                    self.san.push_new_social_link(src, dst);
                    self.social_rows.insert(src.index(), at, dst);
                    if let Err(at) = self.social_rows.row(dst.index()).binary_search(&src) {
                        self.social_rows.insert(dst.index(), at, src);
                    }
                    true
                }
                // Neighbours already: only the San knows whether this
                // direction exists. Both rows hold the pair either way.
                Ok(_) => self.san.add_social_link(src, dst),
            }
        };
        if added {
            self.events.push(SanEvent::SocialLink {
                day: self.day,
                src,
                dst,
            });
        }
        added
    }

    /// Adds an attribute link now; duplicates are not recorded and return
    /// `false`.
    pub fn add_attr_link(&mut self, user: SocialId, attr: AttrId) -> bool {
        let added = self.san.add_attr_link(user, attr);
        if added {
            self.events.push(SanEvent::AttrLink {
                day: self.day,
                user,
                attr,
            });
        }
        added
    }

    /// Hands out the events accumulated since the last drain (or since
    /// construction) and clears the internal log — the streaming hand-off
    /// used by `SanModel::generate_with` to flush one day at a time into a
    /// [`DeltaFreezer`](crate::delta::DeltaFreezer) or
    /// [`StreamingVaultWriter`](crate::store::StreamingVaultWriter)
    /// without ever materialising the full event log. Draining does not
    /// touch the live [`San`]; a builder that is drained every day holds
    /// only the current day's events plus the network itself.
    ///
    /// [`finish`](TimelineBuilder::finish) after draining returns a
    /// timeline holding only the undrained suffix.
    pub fn drain_events(&mut self) -> Vec<SanEvent> {
        std::mem::take(&mut self.events)
    }

    /// Finalises the log, returning the timeline and the fully-grown
    /// network (identical to `timeline.final_snapshot()` but avoids a
    /// replay). The stored `Γs` rows are dropped first, then the network
    /// is compacted ([`San::shrink_to_fit`]), one adjacency kind at a
    /// time, into arenas with no spare room.
    pub fn finish(self) -> (SanTimeline, San) {
        let TimelineBuilder {
            mut san,
            social_rows,
            events,
            ..
        } = self;
        drop(social_rows);
        san.shrink_to_fit();
        (SanTimeline { events }, san)
    }
}

/// A borrowed [`SanRead`] over a [`TimelineBuilder`]'s live network,
/// made by [`TimelineBuilder::view`].
///
/// [`social_neighbors`](SanRead::social_neighbors) is the builder's stored
/// `Γs(u)` row, borrowed from its arena (`Cow::Borrowed`, no allocation).
/// [`has_social_link`](SanRead::has_social_link) answers `false` from one
/// binary search of that row when `dst ∉ Γs(src)`, and asks the [`San`]
/// only when the pair are neighbours. Everything else — including
/// [`common_attrs`](SanRead::common_attrs) — is the [`San`]'s own answer.
#[derive(Debug, Clone, Copy)]
pub struct BuilderView<'a> {
    san: &'a San,
    social_rows: &'a RowArena<SocialId>,
}

impl BuilderView<'_> {
    /// The stored `Γs(u)` row (empty for an unknown node).
    #[inline]
    fn row(&self, u: SocialId) -> &[SocialId] {
        self.social_rows.get(u.index()).unwrap_or_default()
    }
}

impl SanRead for BuilderView<'_> {
    #[inline]
    fn num_social_nodes(&self) -> usize {
        self.san.num_social_nodes()
    }

    #[inline]
    fn num_attr_nodes(&self) -> usize {
        self.san.num_attr_nodes()
    }

    #[inline]
    fn num_social_links(&self) -> usize {
        self.san.num_social_links()
    }

    #[inline]
    fn num_attr_links(&self) -> usize {
        self.san.num_attr_links()
    }

    #[inline]
    fn out_neighbors(&self, u: SocialId) -> &[SocialId] {
        self.san.out_neighbors(u)
    }

    #[inline]
    fn in_neighbors(&self, u: SocialId) -> &[SocialId] {
        self.san.in_neighbors(u)
    }

    #[inline]
    fn attrs_of(&self, u: SocialId) -> &[AttrId] {
        self.san.attrs_of(u)
    }

    #[inline]
    fn members_of(&self, a: AttrId) -> &[SocialId] {
        self.san.members_of(a)
    }

    #[inline]
    fn attr_type(&self, a: AttrId) -> AttrType {
        self.san.attr_type(a)
    }

    fn has_social_link(&self, src: SocialId, dst: SocialId) -> bool {
        self.row(src).binary_search(&dst).is_ok() && self.san.has_social_link(src, dst)
    }

    fn has_attr_link(&self, user: SocialId, attr: AttrId) -> bool {
        self.san.has_attr_link(user, attr)
    }

    fn social_neighbors(&self, u: SocialId) -> Cow<'_, [SocialId]> {
        Cow::Borrowed(self.row(u))
    }

    fn common_attrs(&self, u: SocialId, v: SocialId) -> usize {
        self.san.common_attrs(u, v)
    }

    fn common_social_neighbors(&self, u: SocialId, v: SocialId) -> usize {
        self.san.common_social_neighbors(u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_timeline() -> SanTimeline {
        let mut tb = TimelineBuilder::new();
        let u0 = tb.add_social_node();
        let u1 = tb.add_social_node();
        let a0 = tb.add_attr_node(AttrType::City);
        tb.add_social_link(u0, u1);
        tb.advance_to_day(1);
        let u2 = tb.add_social_node();
        tb.add_social_link(u2, u0);
        tb.add_attr_link(u2, a0);
        tb.advance_to_day(3);
        tb.add_social_link(u1, u2);
        tb.finish().0
    }

    #[test]
    fn snapshot_replay_matches_days() {
        let tl = sample_timeline();
        let d0 = tl.snapshot_at(0);
        assert_eq!(d0.num_social_nodes(), 2);
        assert_eq!(d0.num_social_links(), 1);
        assert_eq!(d0.num_attr_nodes(), 1);
        assert_eq!(d0.num_attr_links(), 0);

        let d1 = tl.snapshot_at(1);
        assert_eq!(d1.num_social_nodes(), 3);
        assert_eq!(d1.num_social_links(), 2);
        assert_eq!(d1.num_attr_links(), 1);

        // Day 2 has no events: same as day 1.
        let d2 = tl.snapshot_at(2);
        assert_eq!(d2.num_social_links(), 2);

        let d3 = tl.snapshot_at(3);
        assert_eq!(d3.num_social_links(), 3);
        d3.check_consistency().unwrap();
    }

    #[test]
    fn final_snapshot_equals_last_day() {
        let tl = sample_timeline();
        let fin = tl.final_snapshot();
        let last = tl.snapshot_at(tl.max_day().unwrap());
        assert_eq!(fin.num_social_links(), last.num_social_links());
        assert_eq!(fin.num_attr_links(), last.num_attr_links());
    }

    #[test]
    fn builder_finish_equals_replay() {
        let mut tb = TimelineBuilder::new();
        let u0 = tb.add_social_node();
        let u1 = tb.add_social_node();
        tb.add_social_link(u0, u1);
        let (tl, san) = tb.finish();
        let replayed = tl.final_snapshot();
        assert_eq!(san.num_social_nodes(), replayed.num_social_nodes());
        assert_eq!(san.num_social_links(), replayed.num_social_links());
    }

    #[test]
    fn for_each_day_covers_gap_days() {
        let tl = sample_timeline();
        let mut days = Vec::new();
        tl.for_each_day(|day, _| days.push(day));
        assert_eq!(days, vec![0, 1, 2, 3]);
    }

    #[test]
    fn day_counts_are_cumulative_monotone() {
        let tl = sample_timeline();
        let counts = tl.day_counts();
        assert_eq!(counts.len(), 4);
        for w in counts.windows(2) {
            assert!(w[1].social_nodes >= w[0].social_nodes);
            assert!(w[1].social_links >= w[0].social_links);
            assert!(w[1].attr_links >= w[0].attr_links);
        }
        assert_eq!(counts[3].social_links, 3);
    }

    #[test]
    fn link_arrivals_in_order() {
        let tl = sample_timeline();
        let arrivals: Vec<_> = tl.social_link_arrivals().collect();
        assert_eq!(arrivals.len(), 3);
        assert_eq!(arrivals[0], (0, SocialId(0), SocialId(1)));
        assert_eq!(arrivals[2].0, 3);
    }

    #[test]
    fn duplicate_links_not_recorded() {
        let mut tb = TimelineBuilder::new();
        let u0 = tb.add_social_node();
        let u1 = tb.add_social_node();
        assert!(tb.add_social_link(u0, u1));
        assert!(!tb.add_social_link(u0, u1));
        let (tl, _) = tb.finish();
        assert_eq!(tl.social_link_arrivals().count(), 1);
    }

    #[test]
    fn drain_events_hands_out_days_without_retaining_log() {
        // Rebuild the sample timeline, draining after each day; the
        // concatenation of the drained slices must equal the batch log and
        // `finish` must return only the undrained suffix.
        let batch = sample_timeline();
        let mut tb = TimelineBuilder::new();
        let u0 = tb.add_social_node();
        let u1 = tb.add_social_node();
        let a0 = tb.add_attr_node(AttrType::City);
        tb.add_social_link(u0, u1);
        let mut drained = tb.drain_events();
        assert_eq!(drained.len(), 4);
        tb.advance_to_day(1);
        let u2 = tb.add_social_node();
        tb.add_social_link(u2, u0);
        tb.add_attr_link(u2, a0);
        drained.extend(tb.drain_events());
        tb.advance_to_day(3);
        tb.add_social_link(u1, u2);
        let tail = tb.drain_events();
        assert_eq!(
            tail,
            [SanEvent::SocialLink {
                day: 3,
                src: u1,
                dst: u2
            }]
        );
        drained.extend(tail);
        assert_eq!(drained, batch.events());
        // The live network is untouched by draining and the residual
        // timeline is empty.
        let (tl, san) = tb.finish();
        assert!(tl.events().is_empty());
        assert_eq!(san.num_social_links(), 3);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn day_cannot_go_backwards() {
        let mut tb = TimelineBuilder::new();
        tb.advance_to_day(5);
        tb.advance_to_day(4);
    }

    #[test]
    #[should_panic(expected = "day-ordered")]
    fn from_events_rejects_unordered() {
        SanTimeline::from_events(vec![
            SanEvent::SocialNode { day: 2 },
            SanEvent::SocialNode { day: 1 },
        ]);
    }

    #[test]
    fn empty_timeline() {
        let tl = SanTimeline::default();
        assert_eq!(tl.max_day(), None);
        assert_eq!(tl.final_snapshot().num_social_nodes(), 0);
        let mut called = false;
        tl.for_each_day(|_, _| called = true);
        assert!(!called);
        assert!(tl.day_counts().is_empty());
    }

    #[test]
    fn snapshot_stream_matches_replay_per_day() {
        let tl = sample_timeline();
        for step in [1u32, 2, 3] {
            for (day, snap) in tl.snapshot_stream(step) {
                assert_eq!(*snap, tl.snapshot_csr(day), "step={step} day={day}");
            }
        }
    }

    #[test]
    fn snapshot_stream_samples_steps_and_final_day() {
        let tl = sample_timeline(); // max_day == 3
        let days: Vec<u32> = tl.snapshot_stream(2).map(|(d, _)| d).collect();
        assert_eq!(days, vec![0, 2, 3]);
        let days: Vec<u32> = tl.snapshot_stream(7).map(|(d, _)| d).collect();
        assert_eq!(days, vec![0, 3]);
    }

    #[test]
    fn held_snapshot_survives_stream_advance() {
        // The Arc hand-off must never mutate a handed-out day in place:
        // a snapshot kept across later apply_day calls stays bit-identical
        // to the replay of its own day.
        let tl = sample_timeline();
        let mut stream = tl.snapshot_stream(1);
        let (d0, s0) = stream.next().unwrap();
        let expect = tl.snapshot_csr(d0);
        while stream.next().is_some() {}
        assert_eq!(*s0, expect);
    }

    #[test]
    fn snapshot_stream_empty_timeline_yields_nothing() {
        let tl = SanTimeline::default();
        assert_eq!(tl.snapshot_stream(1).count(), 0);
    }

    #[test]
    #[should_panic(expected = "step")]
    fn snapshot_stream_rejects_zero_step() {
        sample_timeline().snapshot_stream(0);
    }

    #[test]
    fn for_each_snapshot_matches_stream() {
        let tl = sample_timeline();
        let streamed: Vec<(u32, crate::CsrSan)> = tl
            .snapshot_stream(2)
            .map(|(day, snap)| (day, (*snap).clone()))
            .collect();
        let mut visited = Vec::new();
        tl.for_each_snapshot(2, |day, snap| visited.push((day, snap.clone())));
        assert_eq!(visited, streamed);
    }

    #[test]
    fn stream_freeze_budget_is_one_per_sampled_day() {
        let tl = sample_timeline(); // days 0..=3
        let mut stream = tl.snapshot_stream(2);
        while stream.next().is_some() {}
        assert_eq!(stream.days_applied(), 4); // every day advanced once
        assert_eq!(stream.snapshots_taken(), 3); // only days 0, 2, 3 cloned
    }
}
