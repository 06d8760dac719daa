//! Incremental delta-freeze: patch an earlier [`CsrSan`] with the events
//! since then instead of replaying the whole timeline.
//!
//! [`SanTimeline::snapshot_csr`](crate::evolve::SanTimeline::snapshot_csr)
//! replays the event log from day 0 and re-freezes from scratch, so a full
//! sweep over all days costs O(days × E) replay work plus one O(E log d)
//! sort-freeze per day — quadratic in practice. [`DeltaFreezer`] keeps the
//! last frozen snapshot and *patches* it: one patch with `k` new events
//! costs one merge pass over the flat CSR arrays (a bulk copy of untouched
//! rows plus a sorted merge of the `k` additions), and a patch with no
//! events costs nothing at all. Rows are never re-sorted — the old row is
//! already sorted and the additions are merged in order — so the product
//! is field-for-field identical to a from-scratch freeze (the
//! `delta_equivalence` property suite pins this down).
//!
//! The bulk copy is paid per patch, not per event, so the drivers patch
//! only on the days someone reads: the timeline sweeps
//! ([`SanTimeline::snapshot_stream`](crate::evolve::SanTimeline::snapshot_stream),
//! [`SanTimeline::for_each_snapshot`](crate::evolve::SanTimeline::for_each_snapshot))
//! hand [`DeltaFreezer::apply_days`] every event since the previous
//! sampled day in one slice, and
//! [`StreamingVaultWriter`](crate::store::StreamingVaultWriter) buffers
//! the days between two persisted days the same way. A multi-day slice
//! patches to exactly the state the per-day patches would have reached:
//! the freezer counts new nodes and rejects unknown endpoints event by
//! event in log order, collects every link as a candidate add, then sorts
//! and deduplicates each add-list once and drops the pairs the previous
//! snapshot already holds. Duplicates inside the batch, repeats of an
//! earlier day's link and a link arriving with its reverse all collapse
//! there, with no per-event hash lookup; the link counters are the
//! surviving list lengths.
//!
//! The same merge (`patch_csr_into`) rebuilds persisted days: a v2
//! delta day in a [`SnapshotVault`](crate::store::SnapshotVault) stores
//! exactly these add-lists, and opening it is one merge onto its base
//! (see the `store` module's "Delta chains").
//!
//! Two internal buffers are double-buffered (`cur`/`scratch`) so steady
//! state allocates nothing once row capacity has been reached; the current
//! snapshot additionally sits behind an [`Arc`], so
//! [`DeltaFreezer::snapshot`] hands consumers a shared view without any
//! flat-array clone, and the double-buffer is reclaimed whenever the
//! handed-out snapshot has been dropped by the time the next patch runs.
//!
//! Prefer the timeline conveniences over driving a `DeltaFreezer` by hand.

use crate::csr::CsrSan;
use crate::evolve::SanEvent;
use crate::ids::{AttrId, AttrType, SocialId};
use std::sync::Arc;

/// Builds frozen end-of-day snapshots by patching an earlier [`CsrSan`]
/// with the events since then.
///
/// Feed it one day through [`DeltaFreezer::apply_day`] or several
/// consecutive days at once through [`DeltaFreezer::apply_days`]; read the
/// current frozen state with [`DeltaFreezer::current`] or take a shared
/// handle with [`DeltaFreezer::snapshot`].
///
/// The current day lives behind an [`Arc`], so handing a snapshot to
/// consumers (worker threads, sharded views) is **allocation-free** — one
/// atomic increment, no flat-array clone. As long as no handed-out `Arc`
/// outlives the next [`apply_day`](DeltaFreezer::apply_day) (the
/// sequential-sweep case), the freezer reclaims the buffers and steady
/// state allocates nothing; when a consumer still holds the day (the
/// parallel hand-off case), the next patch simply builds into fresh
/// buffers instead — paying the old clone cost only when sharing actually
/// happens.
///
/// Event semantics mirror replay through [`San`](crate::San) exactly:
/// self-loops and duplicate links (within the day or against earlier days)
/// are ignored, and links to unknown endpoints panic.
#[derive(Debug, Clone, Default)]
pub struct DeltaFreezer {
    cur: Arc<CsrSan>,
    scratch: CsrSan,
    // Per-day scratch state, cleared on every apply_day.
    out_add: Vec<(u32, SocialId)>,
    in_add: Vec<(u32, SocialId)>,
    ua_add: Vec<(u32, AttrId)>,
    am_add: Vec<(u32, SocialId)>,
    und_add: Vec<(u32, SocialId)>,
    attr_type_add: Vec<AttrType>,
    days_applied: u64,
    snapshots_taken: u64,
}

impl Default for CsrSan {
    /// The frozen form of an empty SAN (what `San::new().freeze()` yields).
    fn default() -> CsrSan {
        CsrSan {
            out_off: vec![0],
            out_dst: Vec::new(),
            in_off: vec![0],
            in_src: Vec::new(),
            ua_off: vec![0],
            ua_attr: Vec::new(),
            am_off: vec![0],
            am_user: Vec::new(),
            und_off: vec![0],
            und_nbr: Vec::new(),
            attr_types: Vec::new(),
            num_social_links: 0,
            num_attr_links: 0,
        }
    }
}

/// Merges one CSR with sorted per-row additions into `(new_off, new_data)`.
///
/// `adds` must be sorted by `(row, value)` and contain no value already
/// present in its row (the caller deduplicates); rows past the end of
/// `old_off` are new and start empty. Crate-visible: the v2 delta-day
/// loader in `store` reconstructs snapshots through this exact merge, so
/// persisted deltas patch bit-identically to live ones. Callers feeding it
/// untrusted add-lists must pre-validate sortedness, row bounds, and the
/// `u32::MAX` data-length cap — the asserts here are for trusted inputs.
pub(crate) fn patch_csr_into<T: Copy + Ord>(
    old_off: &[u32],
    old_data: &[T],
    new_rows: usize,
    adds: &[(u32, T)],
    new_off: &mut Vec<u32>,
    new_data: &mut Vec<T>,
) {
    new_off.clear();
    new_data.clear();
    new_off.reserve(new_rows + 1);
    new_data.reserve(old_data.len() + adds.len());
    new_off.push(0u32);
    let old_rows = old_off.len() - 1;
    let mut ai = 0usize;
    for i in 0..new_rows {
        let old_row: &[T] = if i < old_rows {
            &old_data[old_off[i] as usize..old_off[i + 1] as usize]
        } else {
            &[]
        };
        let row_start = ai;
        while ai < adds.len() && adds[ai].0 as usize == i {
            ai += 1;
        }
        let row_adds = &adds[row_start..ai];
        if row_adds.is_empty() {
            new_data.extend_from_slice(old_row);
        } else {
            let (mut a, mut b) = (0usize, 0usize);
            while a < old_row.len() && b < row_adds.len() {
                if old_row[a] <= row_adds[b].1 {
                    new_data.push(old_row[a]);
                    a += 1;
                } else {
                    new_data.push(row_adds[b].1);
                    b += 1;
                }
            }
            new_data.extend_from_slice(&old_row[a..]);
            new_data.extend(row_adds[b..].iter().map(|&(_, v)| v));
        }
        assert!(
            new_data.len() <= u32::MAX as usize,
            "CSR offsets overflow u32 (more than 4.29e9 links)"
        );
        new_off.push(new_data.len() as u32);
    }
    debug_assert_eq!(ai, adds.len(), "addition for a row beyond new_rows");
}

/// True when `val` is in the (sorted) row `i` of a CSR, treating rows past
/// the end as empty.
#[inline]
pub(crate) fn csr_row_contains<T: Copy + Ord>(off: &[u32], data: &[T], i: usize, val: T) -> bool {
    if i + 1 >= off.len() {
        return false;
    }
    data[off[i] as usize..off[i + 1] as usize]
        .binary_search(&val)
        .is_ok()
}

/// Turns a batch's candidate adds into the add-list
/// [`patch_csr_into`] takes: sorted by `(row, value)`, deduplicated, and
/// stripped of every pair the CSR `(off, data)` already holds.
fn new_adds<T: Copy + Ord>(adds: &mut Vec<(u32, T)>, off: &[u32], data: &[T]) {
    adds.sort_unstable();
    adds.dedup();
    adds.retain(|&(row, v)| !csr_row_contains(off, data, row as usize, v));
}

impl DeltaFreezer {
    /// A freezer at the state before day 0: the empty network.
    pub fn new() -> DeltaFreezer {
        DeltaFreezer::default()
    }

    /// Resumes from an existing frozen snapshot (e.g. one loaded from
    /// disk); subsequent [`apply_day`](DeltaFreezer::apply_day) calls patch
    /// forward from it.
    pub fn from_snapshot(csr: CsrSan) -> DeltaFreezer {
        DeltaFreezer::from_shared(Arc::new(csr))
    }

    /// Like [`from_snapshot`](DeltaFreezer::from_snapshot) but adopts an
    /// already-shared handle (what
    /// [`SnapshotVault::load_day`](crate::store::SnapshotVault::load_day)
    /// returns) without cloning the flat arrays.
    pub fn from_shared(csr: Arc<CsrSan>) -> DeltaFreezer {
        DeltaFreezer {
            cur: csr,
            ..DeltaFreezer::default()
        }
    }

    /// Warm-starts a freezer from the nearest vault day at or before
    /// `day`: returns the persisted day it loaded plus the freezer seeded
    /// with that snapshot, or `Ok(None)` when the vault holds nothing at
    /// or before `day` (the caller must replay from day 0). Subsequent
    /// [`apply_day`](DeltaFreezer::apply_day) calls patch forward from the
    /// loaded state, so a sweep over `[day, end]` costs only the events
    /// after the persisted day. Prefer the timeline-level
    /// [`SanTimeline::resume_from_vault`](crate::evolve::SanTimeline::resume_from_vault),
    /// which also slices the event log.
    pub fn resume_from_vault(
        vault: &crate::store::SnapshotVault,
        day: u32,
    ) -> Result<Option<(u32, DeltaFreezer)>, crate::store::StoreError> {
        match vault.nearest_at_or_before(day) {
            None => Ok(None),
            Some(persisted) => {
                let snap = vault.load_day(persisted)?;
                Ok(Some((persisted, DeltaFreezer::from_shared(snap))))
            }
        }
    }

    /// The frozen end-of-day state after everything applied so far.
    #[inline]
    pub fn current(&self) -> &CsrSan {
        &self.cur
    }

    /// A shared handle to the current frozen state — one atomic increment,
    /// no flat-array clone (the Arc-shared day hand-off).
    pub fn snapshot(&mut self) -> Arc<CsrSan> {
        self.snapshots_taken += 1;
        Arc::clone(&self.cur)
    }

    /// Days advanced so far: one per [`apply_day`](DeltaFreezer::apply_day),
    /// `days` per [`apply_days`](DeltaFreezer::apply_days).
    pub fn days_applied(&self) -> u64 {
        self.days_applied
    }

    /// Shared snapshots handed out by [`snapshot`](DeltaFreezer::snapshot) —
    /// the "how many hand-offs did this sweep actually pay for" counter the
    /// regression tests assert on.
    pub fn snapshots_taken(&self) -> u64 {
        self.snapshots_taken
    }

    /// Applies one day's events (all of them, in log order) to the current
    /// snapshot. Days with no events are free.
    ///
    /// # Panics
    /// Panics when an event references a node that does not exist yet, the
    /// same contract as replaying through [`San`](crate::San).
    pub fn apply_day(&mut self, events: &[SanEvent]) {
        self.apply_days(events, 1);
    }

    /// Advances `days` consecutive days in one patch: `events` holds all of
    /// their events, in log order. The result is field-for-field the state
    /// that `days` calls of [`apply_day`](DeltaFreezer::apply_day) over the
    /// per-day slices would reach, for one merge pass instead of `days`.
    ///
    /// # Panics
    /// Panics when an event references a node that does not exist yet at
    /// its position in the log, like [`apply_day`](DeltaFreezer::apply_day).
    pub fn apply_days(&mut self, events: &[SanEvent], days: u64) {
        self.days_applied += days;
        if events.is_empty() {
            return;
        }
        let mut n = self.cur.num_social_rows();
        let mut m = self.cur.attr_types.len();
        self.out_add.clear();
        self.in_add.clear();
        self.ua_add.clear();
        self.am_add.clear();
        self.und_add.clear();
        self.attr_type_add.clear();
        // Endpoints are checked in log order (a link may only name nodes
        // created before it); every non-self link is a candidate add, and
        // duplicates are resolved once per batch below.
        for ev in events {
            match *ev {
                SanEvent::SocialNode { .. } => n += 1,
                SanEvent::AttrNode { ty, .. } => {
                    self.attr_type_add.push(ty);
                    m += 1;
                }
                SanEvent::SocialLink { src, dst, .. } => {
                    assert!(src.index() < n, "unknown source {src}");
                    assert!(dst.index() < n, "unknown destination {dst}");
                    if src != dst {
                        self.out_add.push((src.0, dst));
                        self.in_add.push((dst.0, src));
                        self.und_add.push((src.0, dst));
                        self.und_add.push((dst.0, src));
                    }
                }
                SanEvent::AttrLink { user, attr, .. } => {
                    assert!(user.index() < n, "unknown user {user}");
                    assert!(attr.index() < m, "unknown attr {attr}");
                    self.ua_add.push((user.0, attr));
                    self.am_add.push((attr.0, user));
                }
            }
        }
        let cur = &*self.cur;
        new_adds(&mut self.out_add, &cur.out_off, &cur.out_dst);
        new_adds(&mut self.in_add, &cur.in_off, &cur.in_src);
        new_adds(&mut self.ua_add, &cur.ua_off, &cur.ua_attr);
        new_adds(&mut self.am_add, &cur.am_off, &cur.am_user);
        new_adds(&mut self.und_add, &cur.und_off, &cur.und_nbr);
        let social_links = cur.num_social_links + self.out_add.len();
        let attr_links = cur.num_attr_links + self.ua_add.len();
        // Patch every CSR from `cur` into `scratch`, then publish. Untouched
        // structures still need their offset tables re-extended when rows
        // were added, so each of the five goes through the same path.
        let s = &mut self.scratch;
        patch_csr_into(
            &cur.out_off,
            &cur.out_dst,
            n,
            &self.out_add,
            &mut s.out_off,
            &mut s.out_dst,
        );
        patch_csr_into(
            &cur.in_off,
            &cur.in_src,
            n,
            &self.in_add,
            &mut s.in_off,
            &mut s.in_src,
        );
        patch_csr_into(
            &cur.ua_off,
            &cur.ua_attr,
            n,
            &self.ua_add,
            &mut s.ua_off,
            &mut s.ua_attr,
        );
        patch_csr_into(
            &cur.am_off,
            &cur.am_user,
            m,
            &self.am_add,
            &mut s.am_off,
            &mut s.am_user,
        );
        patch_csr_into(
            &cur.und_off,
            &cur.und_nbr,
            n,
            &self.und_add,
            &mut s.und_off,
            &mut s.und_nbr,
        );
        s.attr_types.clear();
        s.attr_types.extend_from_slice(&cur.attr_types);
        s.attr_types.extend_from_slice(&self.attr_type_add);
        s.num_social_links = social_links;
        s.num_attr_links = attr_links;
        // Publish the new day. If nobody kept yesterday's Arc, reclaim its
        // buffers as the next scratch (steady state: zero allocations, the
        // old double-buffer behaviour); if a consumer still holds it, fall
        // back to a fresh scratch — the only case that ever pays a new
        // allocation, and exactly the case the old clone-per-day always
        // paid for.
        let next = Arc::new(std::mem::take(&mut self.scratch));
        let prev = std::mem::replace(&mut self.cur, next);
        self.scratch = Arc::try_unwrap(prev).unwrap_or_default();
    }
}

impl CsrSan {
    /// Social-node row count straight off the offset table (avoids the
    /// trait import in crate-internal code).
    #[inline]
    pub(crate) fn num_social_rows(&self) -> usize {
        self.out_off.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evolve::TimelineBuilder;
    use crate::read::SanRead;
    use crate::san::San;

    #[test]
    fn default_matches_empty_freeze() {
        assert_eq!(CsrSan::default(), San::new().freeze());
        assert_eq!(DeltaFreezer::new().current(), &San::new().freeze());
    }

    #[test]
    fn patches_match_replay_on_small_timeline() {
        let mut tb = TimelineBuilder::new();
        let u0 = tb.add_social_node();
        let u1 = tb.add_social_node();
        let a0 = tb.add_attr_node(AttrType::City);
        tb.add_social_link(u0, u1);
        tb.advance_to_day(1);
        let u2 = tb.add_social_node();
        tb.add_social_link(u2, u0);
        tb.add_social_link(u1, u0); // makes u0<->u1 reciprocal
        tb.add_attr_link(u2, a0);
        tb.advance_to_day(4);
        tb.add_social_link(u1, u2);
        let (tl, _) = tb.finish();
        let mut fz = DeltaFreezer::new();
        let events = tl.events();
        let mut idx = 0;
        for day in 0..=tl.max_day().unwrap() {
            let start = idx;
            while idx < events.len() && events[idx].day() == day {
                idx += 1;
            }
            fz.apply_day(&events[start..idx]);
            assert_eq!(fz.current(), &tl.snapshot_csr(day), "day {day}");
        }
        assert_eq!(fz.days_applied(), 5);
    }

    #[test]
    fn multi_day_patch_matches_per_day_patches() {
        let mut tb = TimelineBuilder::new();
        let u0 = tb.add_social_node();
        let u1 = tb.add_social_node();
        tb.add_social_link(u0, u1);
        tb.advance_to_day(2);
        let u2 = tb.add_social_node();
        let a0 = tb.add_attr_node(AttrType::Major);
        tb.add_social_link(u2, u1);
        tb.add_attr_link(u2, a0);
        tb.advance_to_day(3);
        tb.add_social_link(u1, u0);
        tb.add_attr_link(u0, a0);
        let (tl, _) = tb.finish();
        let events = tl.events();
        let split = events.iter().take_while(|e| e.day() == 0).count();
        let mut fz = DeltaFreezer::new();
        fz.apply_days(&events[..split], 1);
        // Days 1..=3 (day 1 is empty) in one patch.
        fz.apply_days(&events[split..], 3);
        assert_eq!(fz.current(), &tl.snapshot_csr(3));
        assert_eq!(fz.days_applied(), 4);
    }

    #[test]
    fn duplicate_and_self_loop_events_ignored_like_replay() {
        // Hand-built log a TimelineBuilder would never record: duplicate
        // links (same day and across days) and a self-loop.
        let events = vec![
            SanEvent::SocialNode { day: 0 },
            SanEvent::SocialNode { day: 0 },
            SanEvent::SocialLink {
                day: 0,
                src: SocialId(0),
                dst: SocialId(1),
            },
            SanEvent::SocialLink {
                day: 0,
                src: SocialId(0),
                dst: SocialId(1),
            },
            SanEvent::SocialLink {
                day: 0,
                src: SocialId(1),
                dst: SocialId(1),
            },
            SanEvent::AttrNode {
                day: 1,
                ty: AttrType::School,
            },
            SanEvent::AttrLink {
                day: 1,
                user: SocialId(0),
                attr: AttrId(0),
            },
            SanEvent::AttrLink {
                day: 1,
                user: SocialId(0),
                attr: AttrId(0),
            },
            SanEvent::SocialLink {
                day: 2,
                src: SocialId(0),
                dst: SocialId(1),
            },
        ];
        let tl = crate::evolve::SanTimeline::from_events(events);
        let mut fz = DeltaFreezer::new();
        let evs = tl.events();
        let mut idx = 0;
        for day in 0..=2 {
            let start = idx;
            while idx < evs.len() && evs[idx].day() == day {
                idx += 1;
            }
            fz.apply_day(&evs[start..idx]);
            let expect = tl.snapshot_csr(day);
            assert_eq!(fz.current(), &expect, "day {day}");
        }
        assert_eq!(SanRead::num_social_links(fz.current()), 1);
        assert_eq!(SanRead::num_attr_links(fz.current()), 1);
    }

    #[test]
    #[should_panic(expected = "unknown destination")]
    fn unknown_endpoint_panics_like_replay() {
        let mut fz = DeltaFreezer::new();
        fz.apply_day(&[
            SanEvent::SocialNode { day: 0 },
            SanEvent::SocialLink {
                day: 0,
                src: SocialId(0),
                dst: SocialId(9),
            },
        ]);
    }

    #[test]
    fn empty_day_is_noop() {
        let mut fz = DeltaFreezer::new();
        fz.apply_day(&[SanEvent::SocialNode { day: 0 }]);
        let before = fz.current().clone();
        fz.apply_day(&[]);
        assert_eq!(fz.current(), &before);
        assert_eq!(fz.days_applied(), 2);
    }

    #[test]
    fn snapshot_counter_tracks_clones() {
        let mut fz = DeltaFreezer::new();
        fz.apply_day(&[SanEvent::SocialNode { day: 0 }]);
        assert_eq!(fz.snapshots_taken(), 0);
        let _a = fz.snapshot();
        let _b = fz.snapshot();
        assert_eq!(fz.snapshots_taken(), 2);
    }

    #[test]
    fn from_snapshot_resumes_mid_timeline() {
        let mut tb = TimelineBuilder::new();
        let u0 = tb.add_social_node();
        let u1 = tb.add_social_node();
        tb.add_social_link(u0, u1);
        tb.advance_to_day(1);
        let u2 = tb.add_social_node();
        tb.add_social_link(u1, u2);
        let (tl, _) = tb.finish();
        let mid = tl.snapshot_csr(0);
        let mut fz = DeltaFreezer::from_snapshot(mid);
        let day1: Vec<SanEvent> = tl
            .events()
            .iter()
            .copied()
            .filter(|e| e.day() == 1)
            .collect();
        fz.apply_day(&day1);
        assert_eq!(fz.current(), &tl.snapshot_csr(1));
    }
}
