//! The full SAN generative model — Algorithm 1 of the paper — as a
//! parameterised stochastic process.
//!
//! ```text
//! for 1 ≤ t ≤ T:
//!   sample new social nodes V_t,new
//!   for v_new ∈ V_t,new:
//!     sample attribute degree  n_a(v_new) ~ Lognormal(µ_a, σ_a)
//!     link each attribute      (new node w.p. p, else ∝ social degree)
//!     first outgoing link      (LAPA)
//!     sample lifetime          l ~ TruncNormal(µ_l, σ_l)   [key lever]
//!     sample sleep time        mean m_s / d_out
//!   for v_woken ∈ V_t,woken:
//!     outgoing link            (RR-SAN triangle closing)
//!     resample sleep time
//! ```
//!
//! Every box in that sketch is a swappable parameter, which makes the
//! paper's ablations and baselines one-line presets:
//!
//! * Fig. 18a (*"w/o LAPA"*): [`FirstLink::Pa`] instead of
//!   [`FirstLink::Lapa`] — social in-degree reverts to a power law;
//! * Fig. 18b (*"w/o focal closure"*): [`ClosingModel::Rr`] instead of
//!   RR-SAN — attribute clustering collapses;
//! * the **Zhel baseline** (§6): exponential lifetimes + PA + RR + friend-
//!   copy group membership ([`SanModelParams::zhel_baseline`]); the
//!   exponential lifetime is exactly what flips the out-degree family from
//!   lognormal to power law (Theorem 1 vs prior work).
//!
//! One extension beyond Algorithm 1: `reciprocate_prob` lets link targets
//! immediately reciprocate. The paper's model does not model reciprocity;
//! the Google+ *simulator* (crate `san-sim`) needs it to reproduce the
//! hybrid friend/pub-sub reciprocity decay of Fig. 4a. The paper presets
//! keep it at 0.
//!
//! Wakes and delayed reciprocations wait in day-bucketed calendars rather
//! than one global heap. A wake at time `τ` waits in bucket `⌈τ⌉`; day `t`
//! sorts its bucket once into `(time, node)` order and merges it with a
//! small heap that holds only the re-wakes falling due by `t`, so every
//! wake still fires in global time order. A reciprocation pushed on day
//! `p` waits in bucket `max(⌈τ⌉, p + 1)` and each bucket, sorted once,
//! fires in `(time, src, dst)` order at the start of its day. Entries
//! past the last day are dropped, since they would never fire. The event
//! stream is the one a single global heap produces, event for event.

use crate::attach::LapaSampler;
use crate::closing::ClosingModel;
use crate::error::ModelError;
use san_graph::{AttrId, AttrType, San, SanEvent, SanRead, SanTimeline, SocialId, TimelineBuilder};
use san_stats::{DiscreteLognormal, Exponential, Geometric, SplitRng, TruncatedNormal};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Node lifetime distribution (§5.3 "lifetime sampling").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LifetimeDist {
    /// The paper's choice: normal truncated to `l ≥ 0` — Theorem 1 shows
    /// this yields lognormal social out-degrees.
    TruncNormal {
        /// Location `µ_l` (days).
        mu: f64,
        /// Scale `σ_l` (days).
        sigma: f64,
    },
    /// Prior work's choice (Leskovec et al., Zheleva et al.): exponential —
    /// yields power-law out-degrees.
    Exponential {
        /// Mean lifetime (days).
        mean: f64,
    },
}

/// Sleep-time regime between consecutive outgoing links.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SleepMode {
    /// The paper's choice: exponential sleep with mean `m_s / d_out` — the
    /// busier a node, the more often it wakes.
    InverseOutDegree {
        /// The constant `m_s` (days).
        mean: f64,
    },
    /// Ablation: constant-mean exponential sleep regardless of degree.
    Constant {
        /// Mean sleep (days).
        mean: f64,
    },
}

/// First-outgoing-link kernel for newborn nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FirstLink {
    /// LAPA with `α = 1` (exact fast sampler) — the paper's model.
    Lapa {
        /// Attribute weight `β`.
        beta: f64,
    },
    /// Plain preferential attachment (the Fig. 18a ablation, `β = 0`).
    Pa,
    /// Uniformly random target.
    Uniform,
}

/// How newborn nodes acquire attributes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttrAssign {
    /// The paper's model: attribute degree ~ discrete lognormal; each
    /// attribute is a brand-new node w.p. `p_new`, otherwise an existing
    /// node chosen proportionally to its social degree.
    Lognormal {
        /// Lognormal `µ_a` of the attribute degree.
        mu: f64,
        /// Lognormal `σ_a`.
        sigma: f64,
        /// Probability of minting a new attribute node (`p` in Theorem 2).
        p_new: f64,
    },
    /// Zhel-style dynamic membership: geometric count; with `copy_prob` a
    /// random friend's attribute is copied (social structure influences
    /// attributes — the *reverse* causality of the paper's model),
    /// otherwise new w.p. `p_new` / existing ∝ degree.
    FriendCopy {
        /// Mean number of attributes per node (may be < 1).
        mean: f64,
        /// Probability of copying a friend's attribute.
        copy_prob: f64,
        /// Probability of minting a new attribute node otherwise.
        p_new: f64,
    },
}

/// Full parameter set of the generative process.
#[derive(Debug, Clone, PartialEq)]
pub struct SanModelParams {
    /// Number of simulated days `T`.
    pub days: u32,
    /// Arrivals per day. A single-element vector means a constant rate;
    /// otherwise it must have exactly `days` entries (the three-phase
    /// Google+ schedule lives in `san-sim`).
    pub arrivals_per_day: Vec<u32>,
    /// Attribute acquisition scheme.
    pub attr_assign: AttrAssign,
    /// Mix over the four paper attribute types for newly minted attribute
    /// nodes (School, Major, Employer, City); need not be normalised.
    pub attr_type_mix: [f64; 4],
    /// First-link kernel.
    pub first_link: FirstLink,
    /// Number of first links each arrival issues at birth (1 in the
    /// paper's model; exposed for ablation studies on the PA/closure link
    /// mix).
    pub first_link_count: u32,
    /// Wake-up triangle-closing kernel.
    pub closing: ClosingModel,
    /// Lifetime distribution.
    pub lifetime: LifetimeDist,
    /// Sleep-time regime.
    pub sleep: SleepMode,
    /// Probability a link target immediately reciprocates (0 in the paper's
    /// model; used by the Google+ simulator).
    pub reciprocate_prob: f64,
    /// Optional per-day override of `reciprocate_prob` (1 or `days`
    /// entries); lets the simulator decay reciprocity across the three
    /// phases (Fig. 4a).
    pub reciprocate_schedule: Option<Vec<f64>>,
    /// Multiplier applied to the reciprocation probability when the link
    /// endpoints share at least one attribute (1.0 in the paper's model;
    /// the Google+ simulator uses 1.6 toward the Fig. 13a finding that
    /// common attributes roughly double reciprocity). The effective
    /// probability is clamped to 1.
    pub reciprocate_attr_boost: f64,
    /// Mean of the exponential delay before a reciprocation fires
    /// (days). 0 means immediate reciprocation; the simulator uses ~15 so
    /// one-directional links at a snapshot can still become bidirectional
    /// later — the raw material of the Fig. 13a analysis.
    pub reciprocate_delay_mean: f64,
    /// Probability that an arriving user declares any attributes at all
    /// (1.0 in the paper's model; the Google+ simulator uses the measured
    /// 22 % declaration rate, §2.2).
    pub attr_declare_prob: f64,
    /// Seed network size: a complete SAN of this many social nodes…
    pub seed_social: usize,
    /// …and this many attribute nodes (the paper initialises with 5 + 5).
    pub seed_attrs: usize,
}

impl SanModelParams {
    /// The paper's model with its default knobs, at a constant arrival
    /// rate. Lifetime/sleep defaults are chosen so Theorem 1 predicts
    /// `µ_o ≈ 1.14`, `σ_o ≈ 0.64` — the lognormal regime of Fig. 16a/b.
    pub fn paper_default(days: u32, arrivals_per_day: u32) -> Self {
        SanModelParams {
            days,
            arrivals_per_day: vec![arrivals_per_day],
            attr_assign: AttrAssign::Lognormal {
                mu: 0.7,
                sigma: 0.9,
                p_new: 0.2,
            },
            attr_type_mix: [0.25, 0.2, 0.25, 0.3],
            first_link: FirstLink::Lapa { beta: 20.0 },
            first_link_count: 1,
            closing: ClosingModel::RrSan { fc: 0.5 },
            lifetime: LifetimeDist::TruncNormal {
                mu: 8.0,
                sigma: 6.0,
            },
            sleep: SleepMode::InverseOutDegree { mean: 8.0 },
            reciprocate_prob: 0.0,
            reciprocate_schedule: None,
            reciprocate_attr_boost: 1.0,
            reciprocate_delay_mean: 0.0,
            attr_declare_prob: 1.0,
            seed_social: 5,
            seed_attrs: 5,
        }
    }

    /// The Zhel baseline (§6): Zheleva et al.'s co-evolution model extended
    /// to directed networks — exponential lifetimes (⇒ power-law
    /// out-degree), PA first links, RR closing (no focal closure), and
    /// friend-copied group memberships (social → attribute influence).
    pub fn zhel_baseline(days: u32, arrivals_per_day: u32) -> Self {
        SanModelParams {
            days,
            arrivals_per_day: vec![arrivals_per_day],
            attr_assign: AttrAssign::FriendCopy {
                mean: 2.0,
                copy_prob: 0.5,
                p_new: 0.15,
            },
            attr_type_mix: [0.25, 0.25, 0.25, 0.25],
            first_link: FirstLink::Pa,
            first_link_count: 1,
            closing: ClosingModel::Rr,
            lifetime: LifetimeDist::Exponential { mean: 8.0 },
            sleep: SleepMode::InverseOutDegree { mean: 8.0 },
            reciprocate_prob: 0.0,
            reciprocate_schedule: None,
            reciprocate_attr_boost: 1.0,
            reciprocate_delay_mean: 0.0,
            attr_declare_prob: 1.0,
            seed_social: 5,
            seed_attrs: 5,
        }
    }

    /// Fig. 18a ablation: the paper's model with PA instead of LAPA.
    pub fn without_lapa(mut self) -> Self {
        self.first_link = FirstLink::Pa;
        self
    }

    /// Fig. 18b ablation: the paper's model with RR instead of RR-SAN.
    pub fn without_focal_closure(mut self) -> Self {
        self.closing = ClosingModel::Rr;
        self
    }

    /// Validates all parameters.
    pub fn validate(&self) -> Result<(), ModelError> {
        fn check(name: &'static str, v: f64, ok: bool) -> Result<(), ModelError> {
            if ok {
                Ok(())
            } else {
                Err(ModelError::InvalidParameter {
                    name,
                    value: v,
                    constraint: "out of domain",
                })
            }
        }
        if self.days == 0 {
            return Err(ModelError::InvalidParameter {
                name: "days",
                value: 0.0,
                constraint: "must be >= 1",
            });
        }
        if self.arrivals_per_day.is_empty()
            || (self.arrivals_per_day.len() != 1
                && self.arrivals_per_day.len() != self.days as usize)
        {
            return Err(ModelError::InvalidParameter {
                name: "arrivals_per_day",
                value: self.arrivals_per_day.len() as f64,
                constraint: "must have 1 or `days` entries",
            });
        }
        match self.attr_assign {
            AttrAssign::Lognormal { sigma, p_new, .. } => {
                check("attr_sigma", sigma, sigma > 0.0)?;
                check("p_new", p_new, (0.0..=1.0).contains(&p_new))?;
            }
            AttrAssign::FriendCopy {
                mean,
                copy_prob,
                p_new,
            } => {
                check("attr_mean", mean, mean >= 0.0)?;
                check("copy_prob", copy_prob, (0.0..=1.0).contains(&copy_prob))?;
                check("p_new", p_new, (0.0..=1.0).contains(&p_new))?;
            }
        }
        if let FirstLink::Lapa { beta } = self.first_link {
            check("beta", beta, beta >= 0.0 && beta.is_finite())?;
        }
        if self.first_link_count == 0 {
            return Err(ModelError::InvalidParameter {
                name: "first_link_count",
                value: 0.0,
                constraint: "must be >= 1",
            });
        }
        self.closing.validate()?;
        match self.lifetime {
            LifetimeDist::TruncNormal { sigma, .. } => check("lifetime_sigma", sigma, sigma > 0.0)?,
            LifetimeDist::Exponential { mean } => check("lifetime_mean", mean, mean > 0.0)?,
        }
        match self.sleep {
            SleepMode::InverseOutDegree { mean } | SleepMode::Constant { mean } => {
                check("sleep_mean", mean, mean > 0.0)?
            }
        }
        check(
            "reciprocate_prob",
            self.reciprocate_prob,
            (0.0..=1.0).contains(&self.reciprocate_prob),
        )?;
        if let Some(sched) = &self.reciprocate_schedule {
            if sched.is_empty() || (sched.len() != 1 && sched.len() != self.days as usize) {
                return Err(ModelError::InvalidParameter {
                    name: "reciprocate_schedule",
                    value: sched.len() as f64,
                    constraint: "must have 1 or `days` entries",
                });
            }
            for &r in sched {
                check("reciprocate_schedule entry", r, (0.0..=1.0).contains(&r))?;
            }
        }
        check(
            "attr_declare_prob",
            self.attr_declare_prob,
            (0.0..=1.0).contains(&self.attr_declare_prob),
        )?;
        check(
            "reciprocate_attr_boost",
            self.reciprocate_attr_boost,
            self.reciprocate_attr_boost >= 0.0 && self.reciprocate_attr_boost.is_finite(),
        )?;
        check(
            "reciprocate_delay_mean",
            self.reciprocate_delay_mean,
            self.reciprocate_delay_mean >= 0.0 && self.reciprocate_delay_mean.is_finite(),
        )?;
        if self.seed_social < 2 {
            return Err(ModelError::InvalidParameter {
                name: "seed_social",
                value: self.seed_social as f64,
                constraint: "must be >= 2",
            });
        }
        Ok(())
    }

    /// Reciprocation probability on (1-based) day `t`.
    fn reciprocation_on(&self, t: u32) -> f64 {
        match &self.reciprocate_schedule {
            Some(s) if s.len() == 1 => s[0],
            Some(s) => s[(t - 1) as usize],
            None => self.reciprocate_prob,
        }
    }

    /// Arrivals on (1-based) day `t`.
    fn arrivals_on(&self, t: u32) -> u32 {
        if self.arrivals_per_day.len() == 1 {
            self.arrivals_per_day[0]
        } else {
            self.arrivals_per_day[(t - 1) as usize]
        }
    }

    /// Total number of social nodes the run will create (seeds + arrivals).
    pub fn total_social_nodes(&self) -> usize {
        let arrivals: u64 = (1..=self.days)
            .map(|t| u64::from(self.arrivals_on(t)))
            .sum();
        self.seed_social + arrivals as usize
    }
}

/// Wake-queue entry ordered by time (min-heap via reversed comparison),
/// ties broken by node id for determinism.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Wake {
    time: f64,
    node: u32,
}

impl Eq for Wake {}

impl Ord for Wake {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: earliest time = greatest priority.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for Wake {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A delayed link creation (used for reciprocations), ordered like
/// [`Wake`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct PendingLink {
    time: f64,
    src: u32,
    dst: u32,
}

impl Eq for PendingLink {}

impl Ord for PendingLink {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.src.cmp(&self.src))
            .then_with(|| other.dst.cmp(&self.dst))
    }
}

impl PartialOrd for PendingLink {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Day `t`'s wakes in [`Wake`] order: the day's bucket, sorted once,
/// merged with a heap holding only the re-wakes that fall due the same
/// day. Pops exactly the sequence a heap of the whole bucket would.
#[derive(Debug)]
struct DayWakes {
    sorted: std::iter::Peekable<std::vec::IntoIter<Wake>>,
    rewakes: BinaryHeap<Wake>,
}

impl DayWakes {
    fn new(mut bucket: Vec<Wake>) -> Self {
        // `Wake`'s order is reversed (the earliest wake is the greatest),
        // so sorting descending puts the earliest first.
        bucket.sort_unstable_by(|a, b| b.cmp(a));
        DayWakes {
            sorted: bucket.into_iter().peekable(),
            rewakes: BinaryHeap::new(),
        }
    }

    /// Queues a re-wake due today.
    fn push(&mut self, wake: Wake) {
        self.rewakes.push(wake);
    }

    /// The earliest wake left today.
    fn pop(&mut self) -> Option<Wake> {
        match (self.sorted.peek(), self.rewakes.peek()) {
            (Some(a), Some(b)) if b > a => self.rewakes.pop(),
            (Some(_), _) => self.sorted.next(),
            (None, _) => self.rewakes.pop(),
        }
    }
}

/// Entries bucketed by the day they come due; days past the last one
/// have no bucket, so entries for them are dropped.
#[derive(Debug)]
struct Calendar<T> {
    buckets: Vec<Vec<T>>,
}

impl<T> Calendar<T> {
    /// Buckets for days `0..=days`.
    fn new(days: u32) -> Self {
        Calendar {
            buckets: (0..=days).map(|_| Vec::new()).collect(),
        }
    }

    /// Files `entry` under day `⌈time⌉`, but no earlier than `earliest`.
    fn push(&mut self, time: f64, earliest: u32, entry: T) {
        // A float-to-int `as` saturates, so far-future times land past
        // the last bucket.
        let day = (time.ceil() as u64).max(u64::from(earliest));
        if let Some(bucket) = usize::try_from(day)
            .ok()
            .and_then(|d| self.buckets.get_mut(d))
        {
            bucket.push(entry);
        }
    }

    /// Takes day `t`'s bucket out of the calendar.
    fn take(&mut self, t: u32) -> Vec<T> {
        self.buckets
            .get_mut(t as usize)
            .map(std::mem::take)
            .unwrap_or_default()
    }
}

/// The generative process, ready to run.
#[derive(Debug, Clone)]
pub struct SanModel {
    params: SanModelParams,
}

impl SanModel {
    /// Validates parameters and wraps them.
    pub fn new(params: SanModelParams) -> Result<Self, ModelError> {
        params.validate()?;
        Ok(SanModel { params })
    }

    /// The parameters.
    pub fn params(&self) -> &SanModelParams {
        &self.params
    }

    /// Runs the process, producing the full event timeline and the final
    /// network. Deterministic in `seed`.
    ///
    /// This is the collecting wrapper over
    /// [`generate_with`](SanModel::generate_with); runs that only need the
    /// per-day event stream (e.g. to feed a
    /// [`StreamingVaultWriter`](san_graph::store::StreamingVaultWriter))
    /// should call that directly and skip the O(total events) log.
    pub fn generate(&self, seed: u64) -> (SanTimeline, San) {
        let mut events = Vec::new();
        let san = self.generate_with(seed, |_, day_events| {
            events.extend_from_slice(day_events);
        });
        (SanTimeline::from_events(events), san)
    }

    /// Streaming form of [`generate`](SanModel::generate): runs the exact
    /// same process (bit-identical for the same `seed`) but hands each
    /// day's events to `sink(day, events)` as soon as the day completes,
    /// instead of accumulating them into a [`SanTimeline`]. `sink` is
    /// called exactly once per day `0..=days` (day 0 carries the seed
    /// network), in order, and the events are dropped afterwards — peak
    /// memory is the live network plus one day of events, which is what
    /// makes million-node synthesize-and-persist runs feasible.
    pub fn generate_with<F: FnMut(u32, &[SanEvent])>(&self, seed: u64, mut sink: F) -> San {
        let p = &self.params;
        let mut rng = SplitRng::new(seed);
        let mut tb = TimelineBuilder::new();

        // Distributions (validated in `new`).
        let lapa_beta = match p.first_link {
            FirstLink::Lapa { beta } => beta,
            _ => 0.0,
        };
        let mut sampler = LapaSampler::new(lapa_beta).expect("validated beta");
        let attr_count_lognormal = match p.attr_assign {
            AttrAssign::Lognormal { mu, sigma, .. } => {
                Some(DiscreteLognormal::new(mu, sigma).expect("validated"))
            }
            AttrAssign::FriendCopy { .. } => None,
        };
        let lifetime_tn = match p.lifetime {
            LifetimeDist::TruncNormal { mu, sigma } => {
                Some(TruncatedNormal::new(mu, sigma).expect("validated"))
            }
            LifetimeDist::Exponential { .. } => None,
        };
        let lifetime_exp = match p.lifetime {
            LifetimeDist::Exponential { mean } => Some(Exponential::new(mean).expect("validated")),
            LifetimeDist::TruncNormal { .. } => None,
        };

        // Degree-proportional multiset over attribute nodes.
        let mut attr_multiset: Vec<AttrId> = Vec::new();
        // Death day per social node.
        let mut death: Vec<f64> = Vec::new();
        let mut wakes: Calendar<Wake> = Calendar::new(p.days);
        // Pending delayed reciprocations: (fire time, src, dst) meaning the
        // link src -> dst will be created when the time arrives.
        let mut pending_recip: Calendar<PendingLink> = Calendar::new(p.days);

        // --- Initialization: complete seed SAN (§5.3) -------------------
        let seeds: Vec<SocialId> = (0..p.seed_social)
            .map(|_| {
                let u = tb.add_social_node();
                sampler.on_social_node(u);
                death.push(f64::INFINITY); // seeds never act; inert anchor
                u
            })
            .collect();
        let seed_attrs: Vec<AttrId> = (0..p.seed_attrs)
            .map(|_| {
                let a = tb.add_attr_node(self.sample_attr_type(&mut rng));
                sampler.on_attr_node();
                a
            })
            .collect();
        for &u in &seeds {
            for &v in &seeds {
                if u != v && tb.add_social_link(u, v) {
                    sampler.on_social_link(tb.san(), v);
                }
            }
            for &a in &seed_attrs {
                if tb.add_attr_link(u, a) {
                    sampler.on_attr_link(tb.san(), u, a);
                    attr_multiset.push(a);
                }
            }
        }

        // --- Day loop ----------------------------------------------------
        for t in 1..=p.days {
            // Day t-1 is complete (day 0 = the seed network): flush its
            // events before the clock moves.
            sink(t - 1, &tb.drain_events());
            tb.advance_to_day(t);
            let recip = p.reciprocation_on(t);
            // Fire due reciprocations first: they respond to links from
            // earlier days.
            // `PendingLink`'s order is reversed like `Wake`'s: sorting
            // descending fires the earliest first.
            let mut due = pending_recip.take(t);
            due.sort_unstable_by(|a, b| b.cmp(a));
            for e in due {
                let (src, dst) = (SocialId(e.src), SocialId(e.dst));
                if tb.add_social_link(src, dst) {
                    sampler.on_social_link(tb.san(), dst);
                }
            }
            // Social node arrival.
            for _ in 0..p.arrivals_on(t) {
                let u = tb.add_social_node();
                sampler.on_social_node(u);
                death.push(0.0); // placeholder, set below

                let friend_copy_first = matches!(p.attr_assign, AttrAssign::FriendCopy { .. });
                let declares = rng.chance(p.attr_declare_prob);
                if friend_copy_first {
                    for _ in 0..p.first_link_count {
                        self.first_link(
                            &mut tb,
                            &mut sampler,
                            &mut pending_recip,
                            u,
                            recip,
                            t,
                            &mut rng,
                        );
                    }
                    if declares {
                        self.assign_attrs(
                            &mut tb,
                            &mut sampler,
                            &mut attr_multiset,
                            u,
                            attr_count_lognormal.as_ref(),
                            &mut rng,
                        );
                    }
                } else {
                    if declares {
                        self.assign_attrs(
                            &mut tb,
                            &mut sampler,
                            &mut attr_multiset,
                            u,
                            attr_count_lognormal.as_ref(),
                            &mut rng,
                        );
                    }
                    for _ in 0..p.first_link_count {
                        self.first_link(
                            &mut tb,
                            &mut sampler,
                            &mut pending_recip,
                            u,
                            recip,
                            t,
                            &mut rng,
                        );
                    }
                }

                // Lifetime sampling.
                let lifetime = match p.lifetime {
                    LifetimeDist::TruncNormal { .. } => {
                        lifetime_tn.expect("tn set").sample(&mut rng)
                    }
                    LifetimeDist::Exponential { .. } => {
                        lifetime_exp.expect("exp set").sample(&mut rng)
                    }
                };
                death[u.index()] = f64::from(t) + lifetime;

                // Sleep time sampling.
                let s = self.sample_sleep(tb.san().out_degree(u), &mut rng);
                let time = f64::from(t) + s;
                wakes.push(time, t, Wake { time, node: u.0 });
            }

            // Collect woken social nodes: today's bucket, in time order,
            // plus re-wakes that fall due today.
            let mut woken = DayWakes::new(wakes.take(t));
            while let Some(wake) = woken.pop() {
                let u = SocialId(wake.node);
                if wake.time > death[u.index()] {
                    continue; // lifetime over: retire the node.
                }
                // Outgoing linking via triangle closing.
                // The builder view hands the walk stored Γs rows.
                if let Some(v) = p.closing.sample(&tb.view(), u, &mut rng) {
                    if tb.add_social_link(u, v) {
                        sampler.on_social_link(tb.san(), v);
                        self.maybe_reciprocate(
                            &mut tb,
                            &mut sampler,
                            &mut pending_recip,
                            u,
                            v,
                            recip,
                            t,
                            wake.time,
                            &mut rng,
                        );
                    }
                }
                // Sleep time re-sampling.
                let s = self.sample_sleep(tb.san().out_degree(u), &mut rng);
                let next = Wake {
                    time: wake.time + s,
                    node: u.0,
                };
                if next.time <= f64::from(t) {
                    woken.push(next);
                } else {
                    wakes.push(next.time, t, next);
                }
            }
        }
        sink(p.days, &tb.drain_events());
        tb.finish().1
    }

    fn sample_attr_type(&self, rng: &mut SplitRng) -> AttrType {
        let idx = rng.weighted_index(&self.params.attr_type_mix).unwrap_or(0);
        AttrType::PAPER_TYPES[idx]
    }

    fn sample_sleep(&self, out_degree: usize, rng: &mut SplitRng) -> f64 {
        let mean = match self.params.sleep {
            SleepMode::InverseOutDegree { mean } => mean / out_degree.max(1) as f64,
            SleepMode::Constant { mean } => mean,
        };
        Exponential::new(mean.max(1e-9))
            .expect("positive mean")
            .sample(rng)
    }

    #[allow(clippy::too_many_arguments)]
    fn first_link(
        &self,
        tb: &mut TimelineBuilder,
        sampler: &mut LapaSampler,
        pending_recip: &mut Calendar<PendingLink>,
        u: SocialId,
        recip: f64,
        t: u32,
        rng: &mut SplitRng,
    ) {
        let target = match self.params.first_link {
            FirstLink::Lapa { .. } | FirstLink::Pa => sampler.sample(tb.san(), u, rng),
            FirstLink::Uniform => {
                let n = tb.san().num_social_nodes() as u64;
                let mut pick = None;
                for _ in 0..32 {
                    let v = SocialId(rng.below(n) as u32);
                    if v != u && !tb.san().has_social_link(u, v) {
                        pick = Some(v);
                        break;
                    }
                }
                pick
            }
        };
        if let Some(v) = target {
            if tb.add_social_link(u, v) {
                sampler.on_social_link(tb.san(), v);
                self.maybe_reciprocate(
                    tb,
                    sampler,
                    pending_recip,
                    u,
                    v,
                    recip,
                    t,
                    f64::from(t),
                    rng,
                );
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn maybe_reciprocate(
        &self,
        tb: &mut TimelineBuilder,
        sampler: &mut LapaSampler,
        pending_recip: &mut Calendar<PendingLink>,
        u: SocialId,
        v: SocialId,
        recip: f64,
        t: u32,
        now: f64,
        rng: &mut SplitRng,
    ) {
        if recip <= 0.0 {
            return;
        }
        let boosted =
            if self.params.reciprocate_attr_boost != 1.0 && tb.san().common_attrs(u, v) > 0 {
                (recip * self.params.reciprocate_attr_boost).min(1.0)
            } else {
                recip
            };
        if !rng.chance(boosted) {
            return;
        }
        if self.params.reciprocate_delay_mean <= 0.0 {
            if tb.add_social_link(v, u) {
                sampler.on_social_link(tb.san(), u);
            }
            return;
        }
        let delay = Exponential::new(self.params.reciprocate_delay_mean)
            .expect("validated mean")
            .sample(rng);
        // Today's reciprocations have fired: the earliest is tomorrow's.
        let time = now + delay;
        pending_recip.push(
            time,
            t + 1,
            PendingLink {
                time,
                src: v.0,
                dst: u.0,
            },
        );
    }

    fn assign_attrs(
        &self,
        tb: &mut TimelineBuilder,
        sampler: &mut LapaSampler,
        attr_multiset: &mut Vec<AttrId>,
        u: SocialId,
        count_dist: Option<&DiscreteLognormal>,
        rng: &mut SplitRng,
    ) {
        let (count, p_new) = match self.params.attr_assign {
            AttrAssign::Lognormal { p_new, .. } => {
                let c = count_dist.expect("lognormal dist set").sample(rng);
                (c, p_new)
            }
            AttrAssign::FriendCopy { mean, p_new, .. } => {
                // Geometric on {1,2,…} shifted to allow zero, mean = `mean`.
                let g = Geometric::new(1.0 / (mean + 1.0)).expect("valid p");
                (g.sample(rng) - 1, p_new)
            }
        };
        for _ in 0..count {
            let attr = self.pick_attr(tb, sampler, attr_multiset, u, p_new, rng);
            if let Some(a) = attr {
                if tb.add_attr_link(u, a) {
                    sampler.on_attr_link(tb.san(), u, a);
                    attr_multiset.push(a);
                }
            }
        }
    }

    fn pick_attr(
        &self,
        tb: &mut TimelineBuilder,
        sampler: &mut LapaSampler,
        attr_multiset: &[AttrId],
        u: SocialId,
        p_new: f64,
        rng: &mut SplitRng,
    ) -> Option<AttrId> {
        // Zhel-style friend copying first, when configured.
        if let AttrAssign::FriendCopy { copy_prob, .. } = self.params.attr_assign {
            if rng.chance(copy_prob) {
                let view = tb.view();
                let friends = view.social_neighbors(u);
                if !friends.is_empty() {
                    let w = friends[rng.below(friends.len() as u64) as usize];
                    let w_attrs = view.attrs_of(w);
                    if !w_attrs.is_empty() {
                        return Some(w_attrs[rng.below(w_attrs.len() as u64) as usize]);
                    }
                }
                // No copyable attribute: fall through to the base process.
            }
        }
        if attr_multiset.is_empty() || rng.chance(p_new) {
            let a = tb.add_attr_node(self.sample_attr_type(rng));
            sampler.on_attr_node();
            // The caller links u—a, putting the node into the multiset.
            return Some(a);
        }
        Some(attr_multiset[rng.below(attr_multiset.len() as u64) as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use san_stats::fit::{fit_degree_distribution, FitFamily};

    fn generate(params: SanModelParams, seed: u64) -> (SanTimeline, San) {
        SanModel::new(params).unwrap().generate(seed)
    }

    #[test]
    fn validation_rejects_bad_params() {
        let mut p = SanModelParams::paper_default(10, 5);
        p.days = 0;
        assert!(SanModel::new(p).is_err());

        let mut p = SanModelParams::paper_default(10, 5);
        p.arrivals_per_day = vec![1, 2, 3]; // neither 1 nor `days` entries
        assert!(SanModel::new(p).is_err());

        let mut p = SanModelParams::paper_default(10, 5);
        p.reciprocate_prob = 1.5;
        assert!(SanModel::new(p).is_err());

        let mut p = SanModelParams::paper_default(10, 5);
        p.lifetime = LifetimeDist::TruncNormal {
            mu: 1.0,
            sigma: 0.0,
        };
        assert!(SanModel::new(p).is_err());

        let mut p = SanModelParams::paper_default(10, 5);
        p.seed_social = 1;
        assert!(SanModel::new(p).is_err());
    }

    #[test]
    fn generate_with_streams_the_same_run() {
        // The streaming form must be bit-identical to the batch form: the
        // concatenated day slices ARE the timeline, each slice carries only
        // its own day, every day 0..=days is flushed exactly once, and the
        // returned network matches.
        let params = SanModelParams::paper_default(25, 6);
        let model = SanModel::new(params.clone()).unwrap();
        let (tl, san) = model.generate(42);

        let mut streamed = Vec::new();
        let mut days_seen = Vec::new();
        let streamed_san = model.generate_with(42, |day, events| {
            days_seen.push(day);
            assert!(events.iter().all(|e| e.day() == day), "day {day}");
            streamed.extend_from_slice(events);
        });
        assert_eq!(days_seen, (0..=params.days).collect::<Vec<_>>());
        assert_eq!(streamed, tl.events());
        assert_eq!(streamed_san.num_social_nodes(), san.num_social_nodes());
        assert_eq!(streamed_san.num_social_links(), san.num_social_links());
        assert_eq!(streamed_san.num_attr_nodes(), san.num_attr_nodes());
        assert_eq!(streamed_san.num_attr_links(), san.num_attr_links());
        streamed_san.check_consistency().unwrap();
    }

    #[test]
    fn generates_expected_node_count() {
        let params = SanModelParams::paper_default(20, 10);
        let expected = params.total_social_nodes();
        let (tl, san) = generate(params, 1);
        assert_eq!(san.num_social_nodes(), expected);
        assert_eq!(tl.final_snapshot().num_social_nodes(), expected);
        san.check_consistency().unwrap();
    }

    #[test]
    fn deterministic_in_seed() {
        let params = SanModelParams::paper_default(15, 8);
        let (_, a) = generate(params.clone(), 42);
        let (_, b) = generate(params.clone(), 42);
        assert_eq!(a.num_social_links(), b.num_social_links());
        assert_eq!(a.num_attr_links(), b.num_attr_links());
        assert_eq!(a.num_attr_nodes(), b.num_attr_nodes());
        let (_, c) = generate(params, 43);
        // Different seed ⇒ different growth (counts almost surely differ).
        assert!(
            a.num_social_links() != c.num_social_links()
                || a.num_attr_links() != c.num_attr_links()
        );
    }

    #[test]
    fn variable_arrival_schedule_respected() {
        let mut params = SanModelParams::paper_default(3, 0);
        params.arrivals_per_day = vec![10, 0, 5];
        let expected = params.total_social_nodes();
        let (tl, san) = generate(params, 2);
        assert_eq!(san.num_social_nodes(), expected);
        let counts = tl.day_counts();
        assert_eq!(counts[1].social_nodes - counts[0].social_nodes, 10);
        assert_eq!(counts[2].social_nodes, counts[1].social_nodes);
        assert_eq!(counts[3].social_nodes - counts[2].social_nodes, 5);
    }

    #[test]
    fn every_arrival_gets_first_link_and_attrs_layered() {
        // With enough days, links per node >= 1 (first link) — check the
        // mean out-degree exceeds 1 thanks to wake-ups.
        let params = SanModelParams::paper_default(60, 20);
        let (_, san) = generate(params, 3);
        let links = san.num_social_links() as f64;
        let nodes = san.num_social_nodes() as f64;
        assert!(links / nodes > 1.0, "density {}", links / nodes);
        assert!(san.num_attr_nodes() > 5, "attribute nodes should be minted");
        assert!(san.num_attr_links() > 0);
    }

    #[test]
    fn paper_model_outdegree_is_lognormal() {
        let params = SanModelParams::paper_default(120, 25);
        let (_, san) = generate(params, 7);
        let degrees: Vec<u64> = san
            .social_nodes()
            .skip(5) // seeds are inert anchors
            .map(|u| san.out_degree(u) as u64)
            .collect();
        let fit = fit_degree_distribution(&degrees).unwrap();
        assert_eq!(
            fit.family,
            FitFamily::Lognormal,
            "paper model must give lognormal out-degrees: {fit:?}"
        );
    }

    #[test]
    fn zhel_model_outdegree_is_powerlaw_family() {
        // A wide lognormal can imitate a power law over a finite range, so
        // the classifier's raw verdict is noisy here; the discriminative
        // facts are (a) the power-law fit is *good* (small KS), (b) its
        // exponent sits at the ms/λ + 1 = 2 prediction for exponential
        // lifetimes, and (c) the paper model is *much* more lognormal than
        // the Zhel baseline on the same statistic.
        let (_, zhel) = generate(SanModelParams::zhel_baseline(120, 25), 8);
        let zhel_deg: Vec<u64> = zhel
            .social_nodes()
            .skip(5)
            .map(|u| zhel.out_degree(u) as u64)
            .collect();
        let zhel_fit = fit_degree_distribution(&zhel_deg).unwrap();
        assert!(zhel_fit.ks_powerlaw < 0.08, "{zhel_fit:?}");
        assert!(
            (zhel_fit.alpha - 2.0).abs() < 0.4,
            "alpha={} (expected ~2 for ms/λ=1)",
            zhel_fit.alpha
        );

        let (_, paper) = generate(SanModelParams::paper_default(120, 25), 8);
        let paper_deg: Vec<u64> = paper
            .social_nodes()
            .skip(5)
            .map(|u| paper.out_degree(u) as u64)
            .collect();
        let paper_fit = fit_degree_distribution(&paper_deg).unwrap();
        assert_eq!(paper_fit.family, FitFamily::Lognormal);
        assert!(
            paper_fit.llr_per_sample() > zhel_fit.llr_per_sample() + 0.005,
            "paper model must be more lognormal than zhel: {} vs {}",
            paper_fit.llr_per_sample(),
            zhel_fit.llr_per_sample()
        );
    }

    #[test]
    fn reciprocation_knob_controls_reciprocity() {
        let mut params = SanModelParams::paper_default(40, 15);
        params.reciprocate_prob = 0.0;
        let (_, low) = generate(params.clone(), 9);
        params.reciprocate_prob = 0.8;
        let (_, high) = generate(params, 9);
        let r = |san: &San| {
            let mut total = 0;
            let mut mutual = 0;
            for (u, v) in san.social_links() {
                total += 1;
                if san.has_social_link(v, u) {
                    mutual += 1;
                }
            }
            mutual as f64 / total as f64
        };
        assert!(
            r(&high) > r(&low) + 0.3,
            "high={} low={}",
            r(&high),
            r(&low)
        );
    }

    #[test]
    fn ablation_presets() {
        let p = SanModelParams::paper_default(10, 5).without_lapa();
        assert_eq!(p.first_link, FirstLink::Pa);
        let p = SanModelParams::paper_default(10, 5).without_focal_closure();
        assert_eq!(p.closing, ClosingModel::Rr);
    }

    #[test]
    fn timeline_days_are_complete() {
        let params = SanModelParams::paper_default(30, 5);
        let (tl, _) = generate(params, 10);
        assert_eq!(tl.max_day(), Some(30));
        let counts = tl.day_counts();
        assert_eq!(counts.len(), 31); // day 0 (seeds) through day 30
    }

    #[test]
    fn wake_ordering_is_by_time_then_node() {
        let mut heap = BinaryHeap::new();
        heap.push(Wake { time: 2.0, node: 1 });
        heap.push(Wake { time: 1.0, node: 9 });
        heap.push(Wake { time: 1.0, node: 3 });
        assert_eq!(heap.pop().unwrap(), Wake { time: 1.0, node: 3 });
        assert_eq!(heap.pop().unwrap(), Wake { time: 1.0, node: 9 });
        assert_eq!(heap.pop().unwrap(), Wake { time: 2.0, node: 1 });
    }

    #[test]
    fn day_wakes_merge_rewakes_into_the_sorted_bucket() {
        let w = |time, node| Wake { time, node };
        let mut day = DayWakes::new(vec![w(2.5, 1), w(2.1, 9), w(2.1, 3), w(2.9, 4)]);
        assert_eq!(day.pop(), Some(w(2.1, 3)));
        day.push(w(2.2, 3));
        assert_eq!(day.pop(), Some(w(2.1, 9)));
        assert_eq!(day.pop(), Some(w(2.2, 3)));
        day.push(w(2.5, 0));
        day.push(w(2.95, 9));
        assert_eq!(day.pop(), Some(w(2.5, 0)));
        assert_eq!(day.pop(), Some(w(2.5, 1)));
        assert_eq!(day.pop(), Some(w(2.9, 4)));
        assert_eq!(day.pop(), Some(w(2.95, 9)));
        assert_eq!(day.pop(), None);
    }

    #[test]
    fn calendar_files_by_ceiling_and_drops_past_the_end() {
        let mut cal = Calendar::new(3);
        cal.push(1.0, 1, 'a'); // exactly day 1
        cal.push(1.5, 1, 'b'); // ceil -> day 2
        cal.push(0.2, 3, 'c'); // held back to day 3
        cal.push(3.01, 1, 'd'); // day 4: past the end
        cal.push(f64::MAX, 1, 'e'); // saturates past the end
        assert_eq!(cal.take(1), vec!['a']);
        assert_eq!(cal.take(2), vec!['b']);
        assert_eq!(cal.take(3), vec!['c']);
        assert!(cal.take(3).is_empty());
        assert!(cal.take(4).is_empty());
    }

    #[test]
    fn friend_copy_produces_attribute_overlap() {
        // With aggressive copying, linked users should share attributes
        // far more often than chance.
        let mut params = SanModelParams::zhel_baseline(60, 15);
        params.attr_assign = AttrAssign::FriendCopy {
            mean: 2.0,
            copy_prob: 0.9,
            p_new: 0.1,
        };
        let (_, san) = generate(params, 11);
        let mut linked_shared = 0usize;
        let mut linked_total = 0usize;
        for (u, v) in san.social_links() {
            linked_total += 1;
            if san.common_attrs(u, v) > 0 {
                linked_shared += 1;
            }
        }
        assert!(linked_total > 0);
        let frac = linked_shared as f64 / linked_total as f64;
        assert!(frac > 0.25, "frac={frac}");
    }
}
