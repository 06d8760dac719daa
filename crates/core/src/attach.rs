//! Building Block 1: attribute-augmented preferential attachment (§5.1).
//!
//! When a social node `u` issues a link, the probability of choosing target
//! `v` is proportional to `f(u, v)`:
//!
//! | Model | `f(u, v)` |
//! |-------|-----------|
//! | Uniform | `1` |
//! | PA | `d_in(v)^α` |
//! | PAPA | `d_in(v)^α · (1 + a(u,v)^β)` |
//! | LAPA | `d_in(v)^α · (1 + β·a(u,v))` |
//!
//! where `a(u, v)` is the number of common attributes. We apply standard
//! add-one smoothing to the degree term (`(d_in(v)+1)^α`): real traces
//! contain links to zero-in-degree targets, which would otherwise have
//! probability zero and force the log-likelihood of every model to `−∞`.
//! At `α = 1, β = 0` every family reduces to PA and at `α = β = 0` to the
//! uniform model, exactly as in the paper.
//!
//! Two performance-critical pieces live here:
//!
//! * [`AttachModel::log_likelihood_grid`] replays a link-arrival trace
//!   **once** and computes the exact log-likelihood of the observed targets
//!   under every kernel of a grid (Fig. 15 scores 52). The replay keeps one
//!   set of accumulators per distinct `α`, shared by every cell with that
//!   `α`: the cached degree term `(d_in(v)+1)^α` of each node,
//!   `S_global = Σ_v (d_in(v)+1)^α`, and one `S_x` per attribute `x` over
//!   its members. PA and uniform partitions are then `O(1)` per cell and
//!   LAPA's is `S_global + β·Σ_{x∈Γa(u)} S_x` minus `u`'s own term, which
//!   turns the paper's "costly linear step" (§7) into an `O(|Γa(u)|)`
//!   update. PAPA with `β ≠ 0` needs the candidates `v` sharing
//!   `a(u,v) ≥ 1` attributes with the source: they are counted once per
//!   link into a dense epoch-stamped array and grouped by overlap into
//!   `C_α[a] = Σ_{v : a(u,v) = a} (d_in(v)+1)^α`, so each cell's partition
//!   is `S_global − (d_in(u)+1)^α + Σ_a C_α[a]·a^β`. The other families
//!   sum exactly as a one-model replay would. A cell's value never depends
//!   on the grid it is scored in, and [`AttachModel::log_likelihood`] is
//!   the one-cell grid;
//! * [`LapaSampler`] draws exact LAPA(α = 1) targets in `O(|Γa(u)|)` via a
//!   mixture-of-multisets representation — the practical heuristic the
//!   paper sketches in §7, implemented exactly.

use crate::error::ModelError;
use san_graph::{San, SanEvent, SanRead, SanTimeline, SocialId};
use san_stats::SplitRng;

/// An attachment kernel `f(u, v)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttachModel {
    /// Uniform target choice.
    Uniform,
    /// Preferential attachment with exponent `alpha`.
    Pa {
        /// Degree exponent `α`.
        alpha: f64,
    },
    /// Power Attribute Preferential Attachment.
    Papa {
        /// Degree exponent `α`.
        alpha: f64,
        /// Attribute exponent `β`.
        beta: f64,
    },
    /// Linear Attribute Preferential Attachment (the paper's winner).
    Lapa {
        /// Degree exponent `α`.
        alpha: f64,
        /// Linear attribute weight `β`.
        beta: f64,
    },
}

impl AttachModel {
    /// The kernel value `f(u, v)` given the target's in-degree and the
    /// common-attribute count (degree smoothed by +1; see module docs).
    pub fn weight(&self, in_degree: u64, common_attrs: usize) -> f64 {
        self.kernel(((in_degree + 1) as f64).powf(self.alpha()), common_attrs)
    }

    /// The kernel value given the smoothed degree term `dpow = (d_in+1)^α`.
    fn kernel(&self, dpow: f64, common_attrs: usize) -> f64 {
        let a = common_attrs as f64;
        match *self {
            AttachModel::Uniform => 1.0,
            AttachModel::Pa { .. } => dpow,
            AttachModel::Papa { beta, .. } => dpow * (1.0 + a.powf(beta)),
            AttachModel::Lapa { beta, .. } => dpow * (1.0 + beta * a),
        }
    }

    /// The `α` exponent of the kernel (0 for the uniform model).
    pub fn alpha(&self) -> f64 {
        match *self {
            AttachModel::Uniform => 0.0,
            AttachModel::Pa { alpha }
            | AttachModel::Papa { alpha, .. }
            | AttachModel::Lapa { alpha, .. } => alpha,
        }
    }

    /// Exact log-likelihood of the social-link arrivals in `timeline` under
    /// this kernel: the one-cell case of
    /// [`log_likelihood_grid`](AttachModel::log_likelihood_grid).
    pub fn log_likelihood(&self, timeline: &SanTimeline) -> Result<f64, ModelError> {
        let cells = Self::log_likelihood_grid(timeline, std::slice::from_ref(self))?;
        Ok(cells[0])
    }

    /// Exact log-likelihoods of the social-link arrivals in `timeline`
    /// under every kernel of `models`, in one replay (`result[i]` belongs to
    /// `models[i]`).
    ///
    /// For each observed link `u → v` every cell accumulates
    /// `ln f(u,v) − ln Σ_{v'≠u} f(u,v')` against the network state *before*
    /// the link; node and attribute events update the partition-function
    /// accumulators incrementally (see the module docs). A cell's value
    /// never depends on the other cells of the grid.
    ///
    /// # Errors
    /// * [`ModelError::InvalidParameter`] for a non-finite `α` or `β`, or a
    ///   negative `β` (PAPA, LAPA);
    /// * [`ModelError::EmptyTrace`] when the trace has no social link;
    /// * [`ModelError::MalformedTrace`] at the first social or attribute
    ///   link event that names an unknown node, repeats an existing link,
    ///   or (social links) is a self-loop — checked before the event
    ///   touches any accumulator.
    pub fn log_likelihood_grid(
        timeline: &SanTimeline,
        models: &[AttachModel],
    ) -> Result<Vec<f64>, ModelError> {
        for model in models {
            model.validate()?;
        }
        if timeline.social_link_arrivals().next().is_none() {
            return Err(ModelError::EmptyTrace);
        }
        let mut replay = GridReplay::new(models);
        for (event, ev) in timeline.events().iter().enumerate() {
            replay
                .apply(ev)
                .ok_or(ModelError::MalformedTrace { event })?;
        }
        Ok(replay.cells.iter().map(|c| c.ll).collect())
    }

    /// Checks the kernel parameters: `α` and `β` finite, `β ≥ 0` (the
    /// domain [`LapaSampler::new`] enforces).
    fn validate(&self) -> Result<(), ModelError> {
        let alpha = self.alpha();
        if !alpha.is_finite() {
            return Err(ModelError::InvalidParameter {
                name: "alpha",
                value: alpha,
                constraint: "must be finite",
            });
        }
        if let AttachModel::Papa { beta, .. } | AttachModel::Lapa { beta, .. } = *self {
            if !(beta.is_finite() && beta >= 0.0) {
                return Err(ModelError::InvalidParameter {
                    name: "beta",
                    value: beta,
                    constraint: "must be finite and >= 0",
                });
            }
        }
        Ok(())
    }

    /// Exact target sampling by linear scan over all nodes — O(n), used for
    /// tests and small networks. Returns `None` when no valid target
    /// exists. Targets already linked from `u` are excluded.
    pub fn sample_exact(
        &self,
        san: &impl SanRead,
        u: SocialId,
        rng: &mut SplitRng,
    ) -> Option<SocialId> {
        let mut weights = Vec::with_capacity(san.num_social_nodes());
        let mut ids = Vec::with_capacity(san.num_social_nodes());
        for v in san.social_nodes() {
            if v == u || san.has_social_link(u, v) {
                continue;
            }
            ids.push(v);
            weights.push(self.weight(san.in_degree(v) as u64, san.common_attrs(u, v)));
        }
        let idx = rng.weighted_index(&weights)?;
        Some(ids[idx])
    }
}

/// One cell of a likelihood grid.
struct Cell {
    model: AttachModel,
    /// Index of the cell's `α` in [`GridReplay::alphas`].
    slot: usize,
    /// Running log-likelihood.
    ll: f64,
    /// `a^β` indexed by overlap `a`, grown on demand (PAPA with `β ≠ 0`).
    pow_overlap: Vec<f64>,
}

/// The state one replay shares between every cell of a grid. Per-`α`
/// arrays are laid out with the `k = alphas.len()` slots of one node (or
/// attribute, or overlap) contiguous: `dpow[v·k + slot]`.
struct GridReplay {
    san: San,
    /// The distinct `α` values of the grid, one accumulator slot each.
    alphas: Vec<f64>,
    /// `(d_in(v)+1)^α` per social node and slot.
    dpow: Vec<f64>,
    /// `S_global = Σ_v (d_in(v)+1)^α` per slot.
    s_global: Vec<f64>,
    /// `S_x = Σ_{v ∈ members(x)} (d_in(v)+1)^α` per attribute and slot.
    s_attr: Vec<f64>,
    cells: Vec<Cell>,
    /// Whether some cell is PAPA with `β ≠ 0` and needs the candidate
    /// groups below.
    group: bool,
    /// Link epoch at which each node was last counted as a candidate.
    stamp: Vec<u32>,
    /// Attributes each candidate shares with the source; valid where
    /// `stamp == epoch`.
    overlap: Vec<u32>,
    epoch: u32,
    /// The candidates of the current link, in first-visit order.
    touched: Vec<SocialId>,
    /// `C_α[a] = Σ_{v : a(u,v) = a} (d_in(v)+1)^α` per overlap and slot.
    by_overlap: Vec<f64>,
}

impl GridReplay {
    fn new(models: &[AttachModel]) -> Self {
        let mut alphas: Vec<f64> = Vec::new();
        let cells = models
            .iter()
            .map(|&model| {
                let alpha = model.alpha();
                let slot = match alphas.iter().position(|a| a.to_bits() == alpha.to_bits()) {
                    Some(slot) => slot,
                    None => {
                        alphas.push(alpha);
                        alphas.len() - 1
                    }
                };
                Cell {
                    model,
                    slot,
                    ll: 0.0,
                    pow_overlap: Vec::new(),
                }
            })
            .collect();
        let group = models
            .iter()
            .any(|m| matches!(*m, AttachModel::Papa { beta, .. } if beta != 0.0));
        GridReplay {
            san: San::new(),
            s_global: vec![0.0; alphas.len()],
            alphas,
            dpow: Vec::new(),
            s_attr: Vec::new(),
            cells,
            group,
            stamp: Vec::new(),
            overlap: Vec::new(),
            epoch: 0,
            touched: Vec::new(),
            by_overlap: Vec::new(),
        }
    }

    /// Applies one event; `None` when a link event is malformed (unknown
    /// node, self-loop or duplicate), before any state is touched.
    fn apply(&mut self, ev: &SanEvent) -> Option<()> {
        let k = self.alphas.len();
        match *ev {
            SanEvent::SocialNode { .. } => {
                self.san.add_social_node();
                // (0+1)^α = 1.
                self.s_global.iter_mut().for_each(|s| *s += 1.0);
                self.dpow.resize(self.dpow.len() + k, 1.0);
                if self.group {
                    self.stamp.push(0);
                    self.overlap.push(0);
                }
            }
            SanEvent::AttrNode { ty, .. } => {
                self.san.add_attr_node(ty);
                self.s_attr.resize(self.s_attr.len() + k, 0.0);
            }
            SanEvent::AttrLink { user, attr, .. } => {
                let known = user.index() < self.san.num_social_nodes()
                    && attr.index() < self.san.num_attr_nodes();
                if !known || !self.san.add_attr_link(user, attr) {
                    return None;
                }
                let w = &self.dpow[user.index() * k..][..k];
                for (s, w) in self.s_attr[attr.index() * k..][..k].iter_mut().zip(w) {
                    *s += w;
                }
            }
            SanEvent::SocialLink { src, dst, .. } => {
                let n = self.san.num_social_nodes();
                if src.index() >= n
                    || dst.index() >= n
                    || src == dst
                    || self.san.has_social_link(src, dst)
                {
                    return None;
                }
                self.score_link(src, dst);
                self.add_link(src, dst);
            }
        }
        Some(())
    }

    /// Adds every cell's `ln f(u,v) − ln Σ_{v'≠u} f(u,v')` for the link
    /// `u → v` against the current state.
    fn score_link(&mut self, u: SocialId, v: SocialId) {
        if self.group {
            self.group_candidates(u);
        }
        let k = self.alphas.len();
        let a_uv = self.san.common_attrs(u, v);
        let attrs = self.san.attrs_of(u);
        let others = (self.san.num_social_nodes() - 1) as f64;
        for cell in &mut self.cells {
            let s = cell.slot;
            let du = self.dpow[u.index() * k + s];
            let s_global = self.s_global[s];
            let num = cell.model.kernel(self.dpow[v.index() * k + s], a_uv);
            let denom = match cell.model {
                AttachModel::Uniform => others,
                AttachModel::Pa { .. } => s_global - du,
                AttachModel::Lapa { beta, .. } => {
                    // Σ (d+1)^α + β Σ_{x ∈ Γa(u)} S_x, minus u's own term
                    // (u shares all of its attributes with itself).
                    let mut total = s_global;
                    for &x in attrs {
                        total += beta * self.s_attr[x.index() * k + s];
                    }
                    total - du * (1.0 + beta * attrs.len() as f64)
                }
                // 1 + a^0 = 2 for every pair.
                AttachModel::Papa { beta: 0.0, .. } => 2.0 * (s_global - du),
                AttachModel::Papa { beta, .. } => {
                    // Σ (d+1)^α · 1 over v ≠ u, plus Σ_a C_α[a]·a^β over the
                    // candidates sharing a ≥ 1 attributes with u.
                    let pow = &mut cell.pow_overlap;
                    while pow.len() <= attrs.len() {
                        pow.push((pow.len() as f64).powf(beta));
                    }
                    let mut total = s_global - du;
                    for (a, &p) in pow.iter().enumerate().take(attrs.len() + 1).skip(1) {
                        let c = self.by_overlap[a * k + s];
                        if c != 0.0 {
                            total += c * p;
                        }
                    }
                    total
                }
            };
            debug_assert!(denom > 0.0);
            cell.ll += num.ln() - denom.ln();
        }
    }

    /// Counts, in one pass over `Γa(u)`'s members, the attributes each
    /// candidate `v ≠ u` shares with `u`, then fills `C_α[a]` for every
    /// slot.
    fn group_candidates(&mut self, u: SocialId) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.touched.clear();
        for &x in self.san.attrs_of(u) {
            for &v in self.san.members_of(x) {
                if v == u {
                    continue;
                }
                let i = v.index();
                if self.stamp[i] == self.epoch {
                    self.overlap[i] += 1;
                } else {
                    self.stamp[i] = self.epoch;
                    self.overlap[i] = 1;
                    self.touched.push(v);
                }
            }
        }
        let k = self.alphas.len();
        self.by_overlap.clear();
        self.by_overlap
            .resize((self.san.attr_degree(u) + 1) * k, 0.0);
        for &v in &self.touched {
            let a = self.overlap[v.index()] as usize;
            let w = &self.dpow[v.index() * k..][..k];
            for (c, w) in self.by_overlap[a * k..][..k].iter_mut().zip(w) {
                *c += w;
            }
        }
    }

    /// Inserts `u → v` and moves every slot's accumulators by `v`'s degree
    /// term change `(d+2)^α − (d+1)^α`.
    fn add_link(&mut self, u: SocialId, v: SocialId) {
        let k = self.alphas.len();
        let d_next = (self.san.in_degree(v) + 2) as f64;
        self.san.add_social_link(u, v);
        for (s, &alpha) in self.alphas.iter().enumerate() {
            let next = d_next.powf(alpha);
            let dpow = &mut self.dpow[v.index() * k + s];
            let delta = next - *dpow;
            *dpow = next;
            self.s_global[s] += delta;
            for &x in self.san.attrs_of(v) {
                self.s_attr[x.index() * k + s] += delta;
            }
        }
    }
}

/// The paper's relative-improvement metric (Fig. 15):
/// `(l_ref − l) / l_ref`, positive when `l` is better (less negative) than
/// the reference log-likelihood.
pub fn relative_improvement(l_ref: f64, l: f64) -> f64 {
    (l_ref - l) / l_ref
}

/// Exact O(|Γa(u)|) sampler for LAPA with `α = 1`.
///
/// Represents the kernel as a mixture of uniform draws over multisets:
/// the *global* multiset holds each node once plus once per incoming link
/// (so a uniform draw is exactly ∝ `d_in+1`), and one multiset per
/// attribute `x` holds each member `v` with multiplicity `d_in(v)+1`
/// restricted to links arriving after the membership (kept exact because
/// every in-degree increment appends the target to the multisets of all its
/// attributes). Sampling picks the global component with weight
/// `|global|` or attribute `x ∈ Γa(u)` with weight `β·|multiset(x)|`,
/// then draws uniformly inside the component.
#[derive(Debug, Clone)]
pub struct LapaSampler {
    beta: f64,
    global: Vec<SocialId>,
    per_attr: Vec<Vec<SocialId>>,
}

impl LapaSampler {
    /// Creates an empty sampler with the given `β`.
    pub fn new(beta: f64) -> Result<Self, ModelError> {
        if beta < 0.0 || !beta.is_finite() {
            return Err(ModelError::InvalidParameter {
                name: "beta",
                value: beta,
                constraint: "must be finite and >= 0",
            });
        }
        Ok(LapaSampler {
            beta,
            global: Vec::new(),
            per_attr: Vec::new(),
        })
    }

    /// Registers a new social node.
    pub fn on_social_node(&mut self, u: SocialId) {
        self.global.push(u);
    }

    /// Registers a new attribute node.
    pub fn on_attr_node(&mut self) {
        self.per_attr.push(Vec::new());
    }

    /// Registers a new attribute link `user — attr`; must be called *after*
    /// the link is inserted into `san`.
    pub fn on_attr_link(&mut self, san: &impl SanRead, user: SocialId, attr: san_graph::AttrId) {
        // The user enters the attribute multiset with weight d_in+1.
        let copies = san.in_degree(user) + 1;
        for _ in 0..copies {
            self.per_attr[attr.index()].push(user);
        }
    }

    /// Registers a new social link; must be called *after* the link is
    /// inserted into `san`.
    pub fn on_social_link(&mut self, san: &impl SanRead, dst: SocialId) {
        self.global.push(dst);
        for &x in san.attrs_of(dst) {
            self.per_attr[x.index()].push(dst);
        }
    }

    /// Draws a LAPA(α=1, β) target for source `u`, excluding `u` itself and
    /// existing `u →` targets (rejection with bounded retries; falls back
    /// to any unlinked node, returning `None` only when the graph offers no
    /// valid target).
    pub fn sample(&self, san: &impl SanRead, u: SocialId, rng: &mut SplitRng) -> Option<SocialId> {
        if san.num_social_nodes() < 2 {
            return None;
        }
        const RETRIES: usize = 64;
        // Component weights: global = |global|, attr x = beta * |multiset_x|.
        let attrs = san.attrs_of(u);
        let w_global = self.global.len() as f64;
        let mut w_total = w_global;
        for &x in attrs {
            w_total += self.beta * self.per_attr[x.index()].len() as f64;
        }
        for _ in 0..RETRIES {
            let mut pick = rng.f64() * w_total;
            let cand = if pick < w_global || attrs.is_empty() {
                self.global[rng.below(self.global.len() as u64) as usize]
            } else {
                pick -= w_global;
                let mut chosen = None;
                for &x in attrs {
                    let w = self.beta * self.per_attr[x.index()].len() as f64;
                    if pick < w {
                        let list = &self.per_attr[x.index()];
                        chosen = Some(list[rng.below(list.len() as u64) as usize]);
                        break;
                    }
                    pick -= w;
                }
                match chosen {
                    Some(c) => c,
                    // Floating point slack: fall back to the global list.
                    None => self.global[rng.below(self.global.len() as u64) as usize],
                }
            };
            if cand != u && !san.has_social_link(u, cand) {
                return Some(cand);
            }
        }
        // Dense corner (u already links almost everyone): fall back to a
        // uniform scan for any valid target.
        let remaining: Vec<SocialId> = san
            .social_nodes()
            .filter(|&v| v != u && !san.has_social_link(u, v))
            .collect();
        if remaining.is_empty() {
            None
        } else {
            Some(remaining[rng.below(remaining.len() as u64) as usize])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use san_graph::{AttrType, TimelineBuilder};
    use std::collections::HashMap;

    #[test]
    fn weights_reduce_as_claimed() {
        // alpha=1, beta=0: every family equals PA.
        let pa = AttachModel::Pa { alpha: 1.0 };
        let papa = AttachModel::Papa {
            alpha: 1.0,
            beta: 0.0,
        };
        let lapa = AttachModel::Lapa {
            alpha: 1.0,
            beta: 0.0,
        };
        for d in [0u64, 1, 5, 100] {
            for a in [0usize, 1, 3] {
                // PAPA at beta=0 doubles the weight (1 + a^0 = 2): same
                // distribution after normalisation.
                assert!((papa.weight(d, a) - 2.0 * pa.weight(d, a)).abs() < 1e-12);
                assert!((lapa.weight(d, a) - pa.weight(d, a)).abs() < 1e-12);
            }
        }
        // alpha=0, beta=0: uniform (up to constant factor).
        let uni = AttachModel::Pa { alpha: 0.0 };
        assert_eq!(uni.weight(0, 0), uni.weight(1000, 5));
    }

    #[test]
    fn lapa_weight_linear_in_attrs() {
        let lapa = AttachModel::Lapa {
            alpha: 1.0,
            beta: 2.0,
        };
        let w0 = lapa.weight(3, 0);
        let w1 = lapa.weight(3, 1);
        let w2 = lapa.weight(3, 2);
        assert!((w1 - w0 * 3.0).abs() < 1e-12); // (1+2)/(1)
        assert!(((w2 - w1) - (w1 - w0)).abs() < 1e-12); // linear increments
    }

    /// Builds a small trace where targets share attributes with sources.
    fn attribute_trace() -> SanTimeline {
        let mut tb = TimelineBuilder::new();
        let mut rng = SplitRng::new(99);
        let a0 = {
            let u0 = tb.add_social_node();
            let a0 = tb.add_attr_node(AttrType::Employer);
            tb.add_attr_link(u0, a0);
            a0
        };
        let a1 = tb.add_attr_node(AttrType::City);
        let mut users = vec![SocialId(0)];
        for i in 1..60u32 {
            let u = tb.add_social_node();
            // Half the users share attribute a0, the rest a1.
            let my_attr = if i % 2 == 0 { a0 } else { a1 };
            tb.add_attr_link(u, my_attr);
            // Strongly attribute-assortative linking: link to a previous
            // user with the same attribute 90% of the time.
            let same: Vec<SocialId> = users
                .iter()
                .copied()
                .filter(|&v| tb.san().common_attrs(u, v) > 0)
                .collect();
            let tgt = if !same.is_empty() && rng.chance(0.9) {
                same[rng.below(same.len() as u64) as usize]
            } else {
                users[rng.below(users.len() as u64) as usize]
            };
            tb.add_social_link(u, tgt);
            users.push(u);
        }
        tb.finish().0
    }

    #[test]
    fn lapa_beats_pa_on_attribute_assortative_trace() {
        let tl = attribute_trace();
        let l_pa = AttachModel::Pa { alpha: 1.0 }.log_likelihood(&tl).unwrap();
        let l_lapa = AttachModel::Lapa {
            alpha: 1.0,
            beta: 10.0,
        }
        .log_likelihood(&tl)
        .unwrap();
        assert!(
            l_lapa > l_pa,
            "LAPA should beat PA on attribute-driven data: {l_lapa} vs {l_pa}"
        );
        assert!(relative_improvement(l_pa, l_lapa) > 0.0);
    }

    #[test]
    fn pa_beats_uniform_on_preferential_trace() {
        // Build a rich-get-richer trace.
        let mut tb = TimelineBuilder::new();
        let mut rng = SplitRng::new(5);
        let mut dst_pool: Vec<SocialId> = Vec::new();
        let u0 = tb.add_social_node();
        dst_pool.push(u0);
        for _ in 1..200u32 {
            let u = tb.add_social_node();
            let tgt = dst_pool[rng.below(dst_pool.len() as u64) as usize];
            if tb.add_social_link(u, tgt) {
                dst_pool.push(tgt);
            }
            dst_pool.push(u);
        }
        let tl = tb.finish().0;
        let l_uni = AttachModel::Uniform.log_likelihood(&tl).unwrap();
        let l_pa = AttachModel::Pa { alpha: 1.0 }.log_likelihood(&tl).unwrap();
        assert!(l_pa > l_uni, "PA should beat uniform: {l_pa} vs {l_uni}");
    }

    #[test]
    fn likelihood_matches_bruteforce() {
        // Cross-check the incremental partition functions against a naive
        // O(n) recomputation on a small trace: the whole Fig. 15 grid plus
        // off-grid exponents, in one call.
        let tl = attribute_trace();
        let mut models = fig15_grid();
        models.extend([
            AttachModel::Pa { alpha: 1.3 },
            AttachModel::Lapa {
                alpha: 0.7,
                beta: 4.0,
            },
            AttachModel::Papa {
                alpha: 1.0,
                beta: 2.5,
            },
        ]);
        let grid = AttachModel::log_likelihood_grid(&tl, &models).unwrap();
        for (model, &fast) in models.iter().zip(&grid) {
            let slow = bruteforce_ll(model, &tl);
            assert!(
                (fast - slow).abs() < 1e-6,
                "{model:?}: fast={fast} slow={slow}"
            );
        }
    }

    fn bruteforce_ll(model: &AttachModel, tl: &SanTimeline) -> f64 {
        let mut san = San::new();
        let mut ll = 0.0;
        for ev in tl.events() {
            match *ev {
                SanEvent::SocialNode { .. } => {
                    san.add_social_node();
                }
                SanEvent::AttrNode { ty, .. } => {
                    san.add_attr_node(ty);
                }
                SanEvent::AttrLink { user, attr, .. } => {
                    san.add_attr_link(user, attr);
                }
                SanEvent::SocialLink { src, dst, .. } => {
                    let num = model.weight(san.in_degree(dst) as u64, san.common_attrs(src, dst));
                    let denom: f64 = san
                        .social_nodes()
                        .filter(|&v| v != src)
                        .map(|v| model.weight(san.in_degree(v) as u64, san.common_attrs(src, v)))
                        .sum();
                    ll += num.ln() - denom.ln();
                    san.add_social_link(src, dst);
                }
            }
        }
        ll
    }

    /// The per-cell replay `log_likelihood` ran before the grid: one fresh
    /// `San` and one set of accumulators per model, and PAPA's partition
    /// summed over a `HashMap` of candidates. Kept as the reference the
    /// grid is checked against.
    fn per_cell_reference(model: &AttachModel, timeline: &SanTimeline) -> f64 {
        let alpha = model.alpha();
        let mut san = San::new();
        let mut s_global = 0.0f64;
        let mut s_attr: Vec<f64> = Vec::new();
        let mut ll = 0.0f64;
        for ev in timeline.events() {
            match *ev {
                SanEvent::SocialNode { .. } => {
                    san.add_social_node();
                    s_global += 1.0;
                }
                SanEvent::AttrNode { ty, .. } => {
                    san.add_attr_node(ty);
                    s_attr.push(0.0);
                }
                SanEvent::AttrLink { user, attr, .. } => {
                    let w = ((san.in_degree(user) + 1) as f64).powf(alpha);
                    san.add_attr_link(user, attr);
                    s_attr[attr.index()] += w;
                }
                SanEvent::SocialLink { src, dst, .. } => {
                    let a_uv = san.common_attrs(src, dst);
                    let w_num = model.weight(san.in_degree(dst) as u64, a_uv);
                    let denom = reference_partition(model, &san, src, s_global, &s_attr);
                    ll += w_num.ln() - denom.ln();
                    let old_d = san.in_degree(dst) as f64;
                    san.add_social_link(src, dst);
                    let delta = (old_d + 2.0).powf(alpha) - (old_d + 1.0).powf(alpha);
                    s_global += delta;
                    for &x in san.attrs_of(dst) {
                        s_attr[x.index()] += delta;
                    }
                }
            }
        }
        ll
    }

    fn reference_partition(
        model: &AttachModel,
        san: &San,
        u: SocialId,
        s_global: f64,
        s_attr: &[f64],
    ) -> f64 {
        match *model {
            AttachModel::Uniform => (san.num_social_nodes() - 1) as f64,
            AttachModel::Pa { alpha } => s_global - ((san.in_degree(u) + 1) as f64).powf(alpha),
            AttachModel::Lapa { alpha, beta } => {
                let mut total = s_global;
                for &x in san.attrs_of(u) {
                    total += beta * s_attr[x.index()];
                }
                let du = ((san.in_degree(u) + 1) as f64).powf(alpha);
                total - du * (1.0 + beta * san.attr_degree(u) as f64)
            }
            AttachModel::Papa { alpha, beta } => {
                let du = ((san.in_degree(u) + 1) as f64).powf(alpha);
                if beta == 0.0 {
                    return 2.0 * (s_global - du);
                }
                let mut shared: HashMap<SocialId, usize> = HashMap::new();
                for &x in san.attrs_of(u) {
                    for &v in san.members_of(x) {
                        if v != u {
                            *shared.entry(v).or_insert(0) += 1;
                        }
                    }
                }
                let mut total = s_global - du;
                for (&v, &a) in &shared {
                    let dv = ((san.in_degree(v) + 1) as f64).powf(alpha);
                    total += dv * (a as f64).powf(beta);
                }
                total
            }
        }
    }

    /// The 52 cells of Fig. 15: PA(α=1), uniform, then the PAPA and LAPA
    /// `(α, β)` panels row by row.
    fn fig15_grid() -> Vec<AttachModel> {
        let alphas = [0.0, 0.5, 1.0, 1.5, 2.0];
        let mut models = vec![AttachModel::Pa { alpha: 1.0 }, AttachModel::Uniform];
        for &alpha in &alphas {
            for beta in [0.0, 2.0, 4.0, 6.0, 8.0] {
                models.push(AttachModel::Papa { alpha, beta });
            }
        }
        for &alpha in &alphas {
            for beta in [0.0, 10.0, 100.0, 200.0, 500.0] {
                models.push(AttachModel::Lapa { alpha, beta });
            }
        }
        models
    }

    #[test]
    fn grid_matches_per_cell_reference() {
        use crate::model::{SanModel, SanModelParams};
        let models = fig15_grid();
        assert_eq!(models.len(), 52);
        for seed in [1u64, 2, 3] {
            let (tl, _) = SanModel::new(SanModelParams::paper_default(30, 8))
                .unwrap()
                .generate(seed);
            let grid = AttachModel::log_likelihood_grid(&tl, &models).unwrap();
            for (model, &got) in models.iter().zip(&grid) {
                let want = per_cell_reference(model, &tl);
                match *model {
                    AttachModel::Papa { beta, .. } if beta != 0.0 => assert!(
                        ((got - want) / want).abs() <= 1e-12,
                        "seed {seed} {model:?}: grid={got} reference={want}"
                    ),
                    _ => assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "seed {seed} {model:?}: grid={got} reference={want}"
                    ),
                }
            }
        }
    }

    /// The 4-node trace `0→1, 0→1, 2→3, 3→2` with the duplicate link as a
    /// second event.
    fn trace_with(links: &[(u32, u32)]) -> SanTimeline {
        let mut events = vec![SanEvent::SocialNode { day: 0 }; 4];
        events.extend(links.iter().map(|&(src, dst)| SanEvent::SocialLink {
            day: 0,
            src: SocialId(src),
            dst: SocialId(dst),
        }));
        SanTimeline::from_events(events)
    }

    #[test]
    fn duplicate_link_event_rejected() {
        let pa = AttachModel::Pa { alpha: 1.0 };
        let tl = trace_with(&[(0, 1), (0, 1), (2, 3), (3, 2)]);
        assert_eq!(
            pa.log_likelihood(&tl),
            Err(ModelError::MalformedTrace { event: 5 })
        );
        // Without the duplicate the trace scores as the brute force does.
        let clean = trace_with(&[(0, 1), (2, 3), (3, 2)]);
        let ll = pa.log_likelihood(&clean).unwrap();
        assert!((ll - bruteforce_ll(&pa, &clean)).abs() < 1e-12);
    }

    #[test]
    fn self_loop_link_event_rejected() {
        let tl = trace_with(&[(0, 1), (2, 2)]);
        for model in fig15_grid() {
            assert_eq!(
                model.log_likelihood(&tl),
                Err(ModelError::MalformedTrace { event: 5 })
            );
        }
    }

    #[test]
    fn unknown_node_link_event_rejected() {
        let tl = trace_with(&[(0, 1), (1, 4)]);
        assert_eq!(
            AttachModel::log_likelihood_grid(&tl, &fig15_grid()),
            Err(ModelError::MalformedTrace { event: 5 })
        );
        let tl = trace_with(&[(9, 1)]);
        assert_eq!(
            AttachModel::Uniform.log_likelihood(&tl),
            Err(ModelError::MalformedTrace { event: 4 })
        );
    }

    #[test]
    fn malformed_attr_link_event_rejected() {
        let attr_link = |user, attr| SanEvent::AttrLink {
            day: 0,
            user: SocialId(user),
            attr: san_graph::AttrId(attr),
        };
        let mut events = vec![
            SanEvent::SocialNode { day: 0 },
            SanEvent::SocialNode { day: 0 },
            SanEvent::AttrNode {
                day: 0,
                ty: AttrType::City,
            },
            attr_link(0, 0),
        ];
        let link = SanEvent::SocialLink {
            day: 0,
            src: SocialId(0),
            dst: SocialId(1),
        };
        for (bad, event) in [
            (attr_link(0, 0), 4),
            (attr_link(0, 1), 4),
            (attr_link(2, 0), 4),
        ] {
            let mut trace = events.clone();
            trace.extend([bad, link]);
            let tl = SanTimeline::from_events(trace);
            assert_eq!(
                AttachModel::log_likelihood_grid(&tl, &fig15_grid()),
                Err(ModelError::MalformedTrace { event }),
                "{bad:?}"
            );
        }
        events.push(link);
        assert!(AttachModel::Uniform
            .log_likelihood(&SanTimeline::from_events(events))
            .is_ok());
    }

    fn rejects_parameter(model: AttachModel, name: &str) {
        let tl = attribute_trace();
        match model.log_likelihood(&tl) {
            Err(ModelError::InvalidParameter { name: got, .. }) => assert_eq!(got, name),
            other => panic!("{model:?}: expected InvalidParameter({name}), got {other:?}"),
        }
        // One bad cell fails the whole grid.
        assert!(matches!(
            AttachModel::log_likelihood_grid(&tl, &[AttachModel::Uniform, model]),
            Err(ModelError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn non_finite_alpha_rejected() {
        rejects_parameter(AttachModel::Pa { alpha: f64::NAN }, "alpha");
        rejects_parameter(
            AttachModel::Lapa {
                alpha: f64::INFINITY,
                beta: 1.0,
            },
            "alpha",
        );
    }

    #[test]
    fn non_finite_beta_rejected() {
        rejects_parameter(
            AttachModel::Papa {
                alpha: 1.0,
                beta: f64::NAN,
            },
            "beta",
        );
        rejects_parameter(
            AttachModel::Lapa {
                alpha: 1.0,
                beta: f64::INFINITY,
            },
            "beta",
        );
    }

    #[test]
    fn negative_papa_beta_rejected() {
        rejects_parameter(
            AttachModel::Papa {
                alpha: 1.0,
                beta: -1.0,
            },
            "beta",
        );
    }

    #[test]
    fn negative_lapa_beta_rejected() {
        rejects_parameter(
            AttachModel::Lapa {
                alpha: 1.0,
                beta: -0.5,
            },
            "beta",
        );
    }

    #[test]
    fn empty_trace_rejected() {
        let mut tb = TimelineBuilder::new();
        tb.add_social_node();
        let tl = tb.finish().0;
        assert_eq!(
            AttachModel::Uniform.log_likelihood(&tl).unwrap_err(),
            ModelError::EmptyTrace
        );
    }

    #[test]
    fn relative_improvement_signs() {
        // Better model (less negative LL) => positive improvement.
        assert!(relative_improvement(-100.0, -94.0) > 0.0);
        assert!(relative_improvement(-100.0, -110.0) < 0.0);
        assert_eq!(relative_improvement(-100.0, -100.0), 0.0);
    }

    #[test]
    fn lapa_sampler_rejects_bad_beta() {
        assert!(LapaSampler::new(-1.0).is_err());
        assert!(LapaSampler::new(f64::NAN).is_err());
        assert!(LapaSampler::new(0.0).is_ok());
    }

    /// Feeds a SAN into a sampler, mirroring generator usage.
    fn sampler_for(san: &San, beta: f64) -> LapaSampler {
        // Rebuild incrementally in event order: nodes, attr nodes, attr
        // links, then social links (attribute links precede in-links for
        // every node in generator flows; here we replay in a compatible
        // order).
        let mut s = LapaSampler::new(beta).unwrap();
        let mut shadow = San::new();
        for u in san.social_nodes() {
            shadow.add_social_node();
            s.on_social_node(u);
        }
        for a in san.attr_nodes() {
            shadow.add_attr_node(san.attr_type(a));
            s.on_attr_node();
        }
        for (u, a) in san.attr_links() {
            shadow.add_attr_link(u, a);
            s.on_attr_link(&shadow, u, a);
        }
        for (u, v) in san.social_links() {
            shadow.add_social_link(u, v);
            s.on_social_link(&shadow, v);
        }
        s
    }

    #[test]
    fn sampler_matches_exact_distribution() {
        // Small SAN; compare empirical frequencies of the fast sampler with
        // the exact kernel probabilities.
        let mut san = San::new();
        let users: Vec<SocialId> = (0..6).map(|_| san.add_social_node()).collect();
        let a0 = san.add_attr_node(AttrType::Employer);
        san.add_attr_link(users[1], a0);
        san.add_attr_link(users[5], a0);
        san.add_social_link(users[2], users[3]);
        san.add_social_link(users[4], users[3]);
        // Source u1 shares attribute with u5.
        let src = users[1];
        let beta = 5.0;
        let sampler = sampler_for(&san, beta);
        let model = AttachModel::Lapa { alpha: 1.0, beta };
        // Exact probabilities over valid targets.
        let targets: Vec<SocialId> = san
            .social_nodes()
            .filter(|&v| v != src && !san.has_social_link(src, v))
            .collect();
        let weights: Vec<f64> = targets
            .iter()
            .map(|&v| model.weight(san.in_degree(v) as u64, san.common_attrs(src, v)))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut rng = SplitRng::new(77);
        let n = 200_000;
        let mut counts: HashMap<SocialId, usize> = HashMap::new();
        for _ in 0..n {
            let v = sampler.sample(&san, src, &mut rng).unwrap();
            *counts.entry(v).or_insert(0) += 1;
        }
        for (i, &v) in targets.iter().enumerate() {
            let expect = weights[i] / total;
            let got = *counts.get(&v).unwrap_or(&0) as f64 / n as f64;
            assert!(
                (got - expect).abs() < 0.01,
                "target {v}: got {got} expect {expect}"
            );
        }
    }

    #[test]
    fn sampler_excludes_self_and_existing() {
        let mut san = San::new();
        let u0 = san.add_social_node();
        let u1 = san.add_social_node();
        let u2 = san.add_social_node();
        san.add_social_link(u0, u1);
        let sampler = sampler_for(&san, 1.0);
        let mut rng = SplitRng::new(3);
        for _ in 0..500 {
            let v = sampler.sample(&san, u0, &mut rng).unwrap();
            assert_eq!(v, u2, "only u2 is a valid target");
        }
    }

    #[test]
    fn sampler_none_when_saturated() {
        let mut san = San::new();
        let u0 = san.add_social_node();
        let u1 = san.add_social_node();
        san.add_social_link(u0, u1);
        let sampler = sampler_for(&san, 1.0);
        let mut rng = SplitRng::new(4);
        assert_eq!(sampler.sample(&san, u0, &mut rng), None);
    }

    #[test]
    fn sample_exact_respects_weights() {
        let mut san = San::new();
        let users: Vec<SocialId> = (0..4).map(|_| san.add_social_node()).collect();
        // u3 has in-degree 2, others 0.
        san.add_social_link(users[0], users[3]);
        san.add_social_link(users[1], users[3]);
        let model = AttachModel::Pa { alpha: 1.0 };
        let mut rng = SplitRng::new(8);
        let mut hits = 0;
        let n = 20_000;
        for _ in 0..n {
            if model.sample_exact(&san, users[2], &mut rng) == Some(users[3]) {
                hits += 1;
            }
        }
        // Weights: u0:1, u1:1, u3:3 -> p(u3) = 3/5.
        let p = hits as f64 / n as f64;
        assert!((p - 0.6).abs() < 0.02, "p={p}");
    }
}
