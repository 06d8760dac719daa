//! The equivalence proof for the snapshot pipeline: for arbitrary
//! timelines, the incremental delta-freeze ([`DeltaFreezer`] via
//! `snapshot_stream` / `for_each_snapshot`) produces, at every sampled
//! day, a [`CsrSan`] **field-for-field identical** (rows, offsets,
//! undirected unions, membership tables, attribute types, link counters —
//! `CsrSan`'s derived `PartialEq` covers all of them) to the
//! replay-from-day-0 `snapshot_csr(day)` it replaces.

use proptest::prelude::*;
use san_graph::prelude::*;

/// Strategy: an arbitrary day-ordered timeline built through the same
/// mutation API the generators use. Ops mix node/link arrivals for both
/// layers with day advances (including multi-day gaps), so timelines with
/// empty days, link-free days and node-free days all occur.
fn arb_timeline(max_ops: usize) -> impl Strategy<Value = SanTimeline> {
    prop::collection::vec((0u8..6, any::<u32>(), any::<u32>()), 1..max_ops).prop_map(|ops| {
        let mut tb = TimelineBuilder::new();
        for (op, x, y) in ops {
            match op {
                0 => {
                    tb.add_social_node();
                }
                1 => {
                    let ty = match x % 4 {
                        0 => AttrType::School,
                        1 => AttrType::Major,
                        2 => AttrType::Employer,
                        _ => AttrType::City,
                    };
                    tb.add_attr_node(ty);
                }
                2 | 3 => {
                    let ns = tb.san().num_social_nodes() as u32;
                    if ns >= 2 {
                        // Duplicate and self-loop attempts are deliberately
                        // generated; the builder rejects them.
                        tb.add_social_link(SocialId(x % ns), SocialId(y % ns));
                    }
                }
                4 => {
                    let ns = tb.san().num_social_nodes() as u32;
                    let na = tb.san().num_attr_nodes() as u32;
                    if ns >= 1 && na >= 1 {
                        tb.add_attr_link(SocialId(x % ns), AttrId(y % na));
                    }
                }
                _ => {
                    // Advance 1–3 days: creates event-free gap days.
                    tb.advance_to_day(tb.day() + 1 + (x % 3));
                }
            }
        }
        tb.finish().0
    })
}

/// Strategy: an arbitrary day-ordered *raw* event log — the shape a
/// `TimelineBuilder` never records. Besides fresh nodes and links it
/// emits exact repeats of earlier links of both layers (within one batch
/// or across days, depending on where the batches are cut), the reverse
/// of an earlier link, and self-loops, so every rejection rule of replay
/// meets the freezer's batch dedup.
fn arb_raw_log(max_ops: usize) -> impl Strategy<Value = Vec<SanEvent>> {
    prop::collection::vec((0u8..10, any::<u32>(), any::<u32>()), 1..max_ops).prop_map(|ops| {
        let (mut day, mut ns, mut na) = (0u32, 0u32, 0u32);
        let mut social: Vec<(SocialId, SocialId)> = Vec::new();
        let mut attr: Vec<(SocialId, AttrId)> = Vec::new();
        let mut events = Vec::new();
        for (op, x, y) in ops {
            let link = |events: &mut Vec<SanEvent>, src, dst| {
                events.push(SanEvent::SocialLink { day, src, dst });
            };
            match op {
                0 | 1 => {
                    events.push(SanEvent::SocialNode { day });
                    ns += 1;
                }
                2 => {
                    events.push(SanEvent::AttrNode {
                        day,
                        ty: AttrType::PAPER_TYPES[(x % 4) as usize],
                    });
                    na += 1;
                }
                // A fresh link; `x % ns == y % ns` makes a self-loop.
                3 if ns >= 1 => {
                    let (src, dst) = (SocialId(x % ns), SocialId(y % ns));
                    link(&mut events, src, dst);
                    social.push((src, dst));
                }
                // An exact repeat of an earlier link.
                4 if !social.is_empty() => {
                    let (src, dst) = social[x as usize % social.len()];
                    link(&mut events, src, dst);
                }
                // The reverse of an earlier link.
                5 if !social.is_empty() => {
                    let (src, dst) = social[x as usize % social.len()];
                    link(&mut events, dst, src);
                    social.push((dst, src));
                }
                // An explicit self-loop.
                6 if ns >= 1 => {
                    let u = SocialId(x % ns);
                    link(&mut events, u, u);
                }
                7 if ns >= 1 && na >= 1 => {
                    let (user, a) = (SocialId(x % ns), AttrId(y % na));
                    events.push(SanEvent::AttrLink { day, user, attr: a });
                    attr.push((user, a));
                }
                // An exact repeat of an earlier attribute link.
                8 if !attr.is_empty() => {
                    let (user, a) = attr[x as usize % attr.len()];
                    events.push(SanEvent::AttrLink { day, user, attr: a });
                }
                9 => day += 1 + x % 2,
                _ => {}
            }
        }
        events
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `snapshot_stream(step)` equals replay-per-day at every sampled day,
    /// for every step, and samples exactly the right days.
    #[test]
    fn stream_equals_replay_at_every_sampled_day(
        tl in arb_timeline(120),
        step_raw in 1u32..9,
    ) {
        if let Some(max_day) = tl.max_day() {
            let mut sampled = Vec::new();
            for (day, snap) in tl.snapshot_stream(step_raw) {
                prop_assert_eq!(&*snap, &tl.snapshot_csr(day), "step={} day={}", step_raw, day);
                sampled.push(day);
            }
            let expect: Vec<u32> = (0..=max_day)
                .filter(|d| d % step_raw == 0 || *d == max_day)
                .collect();
            prop_assert_eq!(sampled, expect);
        } else {
            // All ops were rejected (e.g. links before two nodes exist):
            // the empty timeline must stream nothing.
            prop_assert_eq!(tl.snapshot_stream(step_raw).count(), 0);
        }
    }

    /// The borrowing sweep visits the same days with the same snapshots.
    #[test]
    fn for_each_snapshot_equals_replay(tl in arb_timeline(100), step_raw in 1u32..5) {
        let mut ok = true;
        let mut visited = 0u32;
        tl.for_each_snapshot(step_raw, |day, snap| {
            ok &= snap == &tl.snapshot_csr(day);
            visited += 1;
        });
        prop_assert!(ok, "a sampled snapshot diverged from replay");
        prop_assert!(visited >= 1);
    }

    /// Driving a raw `DeltaFreezer` day by day stays identical to replay on
    /// *every* day, not just sampled ones, and its end state matches the
    /// builder's own final network.
    #[test]
    fn freezer_tracks_replay_day_by_day(tl in arb_timeline(80)) {
        if let Some(max_day) = tl.max_day() {
            let events = tl.events();
            let mut freezer = DeltaFreezer::new();
            let mut idx = 0;
            for day in 0..=max_day {
                let start = idx;
                while idx < events.len() && events[idx].day() == day {
                    idx += 1;
                }
                freezer.apply_day(&events[start..idx]);
                prop_assert_eq!(freezer.current(), &tl.snapshot_csr(day), "day {}", day);
            }
            prop_assert_eq!(freezer.current(), &tl.final_snapshot().freeze());
        }
    }

    /// Resuming a freezer from a mid-timeline `snapshot_csr` converges to
    /// the same final state as streaming from day 0 (the
    /// warm-start-from-persisted-snapshot use case).
    #[test]
    fn freezer_resume_from_mid_snapshot(tl in arb_timeline(80), split_raw in any::<u32>()) {
        if let Some(max_day) = tl.max_day() {
            let split = split_raw % (max_day + 1);
            let mut freezer = DeltaFreezer::from_snapshot(tl.snapshot_csr(split));
            let events = tl.events();
            let mut idx = events.iter().take_while(|e| e.day() <= split).count();
            for day in (split + 1)..=max_day {
                let start = idx;
                while idx < events.len() && events[idx].day() == day {
                    idx += 1;
                }
                freezer.apply_day(&events[start..idx]);
            }
            prop_assert_eq!(freezer.current(), &tl.snapshot_csr(max_day));
        }
    }

    /// `apply_days` over random batch cuts of a raw log — duplicate links
    /// within a batch and across batches, a link with its reverse,
    /// self-loops, duplicate attribute links — equals replaying the same
    /// prefix through `San` and freezing, field for field, after every
    /// batch.
    #[test]
    fn apply_days_on_raw_logs_equals_san_replay(
        events in arb_raw_log(160),
        cuts_raw in prop::collection::vec(any::<u32>(), 0..6),
    ) {
        let mut cuts: Vec<usize> = cuts_raw
            .iter()
            .map(|&c| c as usize % (events.len() + 1))
            .chain([events.len()])
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mut freezer = DeltaFreezer::new();
        let mut start = 0;
        for &end in &cuts {
            freezer.apply_days(&events[start..end], 1);
            let replayed = SanTimeline::from_events(events[..end].to_vec())
                .final_snapshot()
                .freeze();
            prop_assert_eq!(freezer.current(), &replayed, "batch ending at event {}", end);
            start = end;
        }
        prop_assert_eq!(freezer.days_applied(), cuts.len() as u64);
    }
}

/// Logs a `TimelineBuilder` never records — duplicate links within and
/// across days, self-loops — still replay identically through the freezer,
/// because it mirrors `San`'s rejection rules event by event.
#[test]
fn hand_built_log_with_rejected_events_matches_replay() {
    let events = vec![
        SanEvent::SocialNode { day: 0 },
        SanEvent::SocialNode { day: 0 },
        SanEvent::SocialNode { day: 0 },
        SanEvent::AttrNode {
            day: 0,
            ty: AttrType::Employer,
        },
        SanEvent::SocialLink {
            day: 0,
            src: SocialId(0),
            dst: SocialId(1),
        },
        // Same-day duplicate and self-loop: both rejected by replay.
        SanEvent::SocialLink {
            day: 0,
            src: SocialId(0),
            dst: SocialId(1),
        },
        SanEvent::SocialLink {
            day: 0,
            src: SocialId(2),
            dst: SocialId(2),
        },
        SanEvent::AttrLink {
            day: 1,
            user: SocialId(1),
            attr: AttrId(0),
        },
        // Cross-day duplicates of both link kinds.
        SanEvent::SocialLink {
            day: 2,
            src: SocialId(0),
            dst: SocialId(1),
        },
        SanEvent::AttrLink {
            day: 2,
            user: SocialId(1),
            attr: AttrId(0),
        },
        // Reciprocal link: und rows must not double-count.
        SanEvent::SocialLink {
            day: 2,
            src: SocialId(1),
            dst: SocialId(0),
        },
    ];
    let tl = SanTimeline::from_events(events);
    for (day, snap) in tl.snapshot_stream(1) {
        assert_eq!(*snap, tl.snapshot_csr(day), "day {day}");
    }
}

/// The stream clones exactly one snapshot per sampled day — the freeze
/// budget that makes count-only sweeps off this path worthwhile.
#[test]
fn stream_freeze_budget() {
    let mut tb = TimelineBuilder::new();
    let mut prev = tb.add_social_node();
    for day in 1..=30u32 {
        tb.advance_to_day(day);
        let u = tb.add_social_node();
        tb.add_social_link(u, prev);
        prev = u;
    }
    let (tl, _) = tb.finish();
    let mut stream = tl.snapshot_stream(7);
    let mut yielded = 0u64;
    while stream.next().is_some() {
        yielded += 1;
    }
    // Days 0, 7, 14, 21, 28 plus the forced final day 30.
    assert_eq!(yielded, 6);
    assert_eq!(stream.snapshots_taken(), yielded);
    assert_eq!(stream.days_applied(), 31);
}
