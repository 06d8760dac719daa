//! Building Block 2: attribute-augmented triangle closing (§5.2).
//!
//! When an existing node `u` wakes up and issues a link, generative models
//! close triangles: `u` picks some 2-hop neighbour `v`. The paper compares
//! three selection schemes:
//!
//! * **Baseline** — uniform over the distinct social 2-hop neighbourhood;
//! * **RR** (random-random) — a uniform first hop `w ∈ Γs(u)`, then a
//!   uniform second hop `v ∈ Γs(w)`;
//! * **RR-SAN** — the first hop ranges over `Γs(u) ∪ Γa(u)`: stepping
//!   through an *attribute* node reaches users who share that attribute
//!   (a **focal closure**). The weight of attribute hops is governed by
//!   `fc` (`fc = 0` disables focal closure; `fc = 1` is the uniform-union
//!   model of §5.2; §6.2 uses `fc = 0.1`).
//!
//! [`ClosingModel::closure_probability`] computes the exact probability
//! that a scheme proposes a given target — the quantity behind the paper's
//! "RR performs 14 % better than Baseline, RR-SAN 36 % better than RR"
//! comparison.
//!
//! The schemes read the network only through [`SanRead`]. The walks take
//! one `Γs` row per hop, so the representation decides their cost: on a
//! mutable [`San`](san_graph::San) every `Γs(w)` is merged, sorted and
//! allocated on the spot, while the generator in [`model`](crate::model) hands
//! them [`TimelineBuilder::view`](san_graph::TimelineBuilder::view),
//! whose rows are stored sorted and borrowed. Both give the same sorted
//! rows, so a walk draws the same targets with the same random numbers
//! on either.

use crate::error::ModelError;
use san_graph::{SanRead, SocialId};
use san_stats::SplitRng;
use std::collections::HashSet;

/// A triangle-closing scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClosingModel {
    /// Uniform over the distinct 2-hop social neighbourhood.
    Baseline,
    /// Random-random two-hop walk over social links.
    Rr,
    /// Random-random walk over social *and* attribute links; `fc` scales
    /// the probability mass of attribute first-hops.
    RrSan {
        /// Attribute-hop weight (`0 ⇒` no focal closure).
        fc: f64,
    },
}

impl ClosingModel {
    /// Validates the parameters.
    pub fn validate(&self) -> Result<(), ModelError> {
        if let ClosingModel::RrSan { fc } = *self {
            if fc < 0.0 || !fc.is_finite() {
                return Err(ModelError::InvalidParameter {
                    name: "fc",
                    value: fc,
                    constraint: "must be finite and >= 0",
                });
            }
        }
        Ok(())
    }

    /// Samples a closure target for `u`, excluding `u` itself and existing
    /// `u →` targets. Returns `None` when the scheme cannot propose a valid
    /// target (e.g. no 2-hop neighbourhood).
    pub fn sample(&self, san: &impl SanRead, u: SocialId, rng: &mut SplitRng) -> Option<SocialId> {
        const RETRIES: usize = 32;
        match *self {
            ClosingModel::Baseline => {
                let candidates = two_hop_candidates(san, u);
                if candidates.is_empty() {
                    return None;
                }
                Some(candidates[rng.below(candidates.len() as u64) as usize])
            }
            ClosingModel::Rr => {
                let first = san.social_neighbors(u);
                if first.is_empty() {
                    return None;
                }
                for _ in 0..RETRIES {
                    let w = first[rng.below(first.len() as u64) as usize];
                    let second = san.social_neighbors(w);
                    if second.is_empty() {
                        continue;
                    }
                    let v = second[rng.below(second.len() as u64) as usize];
                    if v != u && !san.has_social_link(u, v) {
                        return Some(v);
                    }
                }
                None
            }
            ClosingModel::RrSan { fc } => {
                let social = san.social_neighbors(u);
                let attrs = san.attrs_of(u);
                let w_social = social.len() as f64;
                let w_attr = fc * attrs.len() as f64;
                if w_social + w_attr <= 0.0 {
                    return None;
                }
                for _ in 0..RETRIES {
                    let through_attr = rng.f64() * (w_social + w_attr) >= w_social;
                    let v = if through_attr && !attrs.is_empty() {
                        let x = attrs[rng.below(attrs.len() as u64) as usize];
                        let members = san.members_of(x);
                        if members.is_empty() {
                            continue;
                        }
                        members[rng.below(members.len() as u64) as usize]
                    } else if !social.is_empty() {
                        let w = social[rng.below(social.len() as u64) as usize];
                        let second = san.social_neighbors(w);
                        if second.is_empty() {
                            continue;
                        }
                        second[rng.below(second.len() as u64) as usize]
                    } else {
                        continue;
                    };
                    if v != u && !san.has_social_link(u, v) {
                        return Some(v);
                    }
                }
                None
            }
        }
    }

    /// Exact probability that the scheme proposes target `v` for source `u`
    /// in one (unconditioned) two-hop draw.
    ///
    /// No rejection renormalisation is applied — this is the raw proposal
    /// probability, which is the right quantity for comparing schemes on
    /// observed closure events (all schemes lose the same rejected mass to
    /// invalid targets).
    pub fn closure_probability(&self, san: &impl SanRead, u: SocialId, v: SocialId) -> f64 {
        match *self {
            ClosingModel::Baseline => {
                let candidates = two_hop_candidates(san, u);
                if candidates.contains(&v) {
                    1.0 / candidates.len() as f64
                } else {
                    0.0
                }
            }
            ClosingModel::Rr => rr_probability(san, u, v),
            ClosingModel::RrSan { fc } => {
                let social = san.social_neighbors(u);
                let attrs = san.attrs_of(u);
                let w_social = social.len() as f64;
                let w_attr = fc * attrs.len() as f64;
                let total = w_social + w_attr;
                if total <= 0.0 {
                    return 0.0;
                }
                let p_social = if social.is_empty() {
                    0.0
                } else {
                    rr_probability(san, u, v)
                };
                let mut p_attr = 0.0;
                if !attrs.is_empty() {
                    for &x in attrs {
                        let members = san.members_of(x);
                        if !members.is_empty() && members.contains(&v) {
                            p_attr += 1.0 / (attrs.len() as f64 * members.len() as f64);
                        }
                    }
                }
                (w_social / total) * p_social + (w_attr / total) * p_attr
            }
        }
    }
}

/// Probability of reaching `v` from `u` by the RR walk.
fn rr_probability(san: &impl SanRead, u: SocialId, v: SocialId) -> f64 {
    let first = san.social_neighbors(u);
    if first.is_empty() {
        return 0.0;
    }
    let mut p = 0.0;
    for &w in first.iter() {
        let second = san.social_neighbors(w);
        if second.is_empty() {
            continue;
        }
        if second.contains(&v) {
            p += 1.0 / (first.len() as f64 * second.len() as f64);
        }
    }
    p
}

/// Distinct 2-hop social neighbourhood of `u` (excluding `u` and its
/// existing `u →` targets), sorted for determinism.
fn two_hop_candidates(san: &impl SanRead, u: SocialId) -> Vec<SocialId> {
    let mut out: HashSet<SocialId> = HashSet::new();
    for &w in san.social_neighbors(u).iter() {
        for &v in san.social_neighbors(w).iter() {
            if v != u && !san.has_social_link(u, v) {
                out.insert(v);
            }
        }
    }
    let mut v: Vec<SocialId> = out.into_iter().collect();
    v.sort_unstable();
    v
}

/// Mean proposal probability of a scheme over a batch of observed closure
/// events `(u, v)` evaluated against the pre-closure network — the §5.2
/// comparison statistic.
pub fn mean_closure_probability(
    model: &ClosingModel,
    san: &impl SanRead,
    events: &[(SocialId, SocialId)],
) -> f64 {
    if events.is_empty() {
        return 0.0;
    }
    let sum: f64 = events
        .iter()
        .map(|&(u, v)| model.closure_probability(san, u, v))
        .sum();
    sum / events.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use san_graph::fixtures::{figure1, figure1_closures};
    use san_graph::San;
    use std::collections::HashMap;

    #[test]
    fn validate_fc() {
        assert!(ClosingModel::RrSan { fc: 0.5 }.validate().is_ok());
        assert!(ClosingModel::RrSan { fc: -0.1 }.validate().is_err());
        assert!(ClosingModel::RrSan { fc: f64::NAN }.validate().is_err());
        assert!(ClosingModel::Rr.validate().is_ok());
    }

    #[test]
    fn two_hop_candidates_figure1() {
        let fx = figure1();
        let [_u1, u2, u3, u4, u5, _u6] = fx.users;
        // Γs(u4) = {u3, u5, u6}; their neighbourhoods reach u2 (via u3) and
        // each other.
        let cands = two_hop_candidates(&fx.san, u4);
        assert!(cands.contains(&u2));
        assert!(!cands.contains(&u4));
        // u3, u5, u6 are already direct out-targets or reachable:
        // u4->u3 and u4->u5 exist, so they are excluded; u6 has a link
        // to u4 but u4->u6 does not exist, so u6 is allowed if 2-hop.
        assert!(!cands.contains(&u3));
        assert!(!cands.contains(&u5));
    }

    #[test]
    fn baseline_uniform_probability() {
        let fx = figure1();
        let [_u1, u2, _u3, u4, ..] = fx.users;
        let cands = two_hop_candidates(&fx.san, u4);
        let p = ClosingModel::Baseline.closure_probability(&fx.san, u4, u2);
        assert!((p - 1.0 / cands.len() as f64).abs() < 1e-12);
        // Unreachable target.
        let p0 = ClosingModel::Baseline.closure_probability(&fx.san, u4, fx.users[0]);
        assert_eq!(p0, 0.0);
    }

    #[test]
    fn rr_probability_matches_empirical() {
        let fx = figure1();
        let [_u1, u2, _u3, u4, ..] = fx.users;
        let model = ClosingModel::Rr;
        let p_exact = model.closure_probability(&fx.san, u4, u2);
        assert!(p_exact > 0.0);
        // Empirical check via sampling (counting only successful draws
        // proportionally: accept/reject preserves ratios of valid targets).
        let mut rng = SplitRng::new(10);
        let mut counts: HashMap<SocialId, usize> = HashMap::new();
        let n = 100_000;
        let mut ok = 0;
        for _ in 0..n {
            if let Some(v) = model.sample(&fx.san, u4, &mut rng) {
                *counts.entry(v).or_insert(0) += 1;
                ok += 1;
            }
        }
        assert!(ok > 0);
        // All valid targets' exact probabilities, renormalised.
        let all: Vec<SocialId> = fx.san.social_nodes().collect();
        let exact: HashMap<SocialId, f64> = all
            .iter()
            .filter(|&&v| v != u4 && !fx.san.has_social_link(u4, v))
            .map(|&v| (v, model.closure_probability(&fx.san, u4, v)))
            .collect();
        let total_exact: f64 = exact.values().sum();
        for (&v, &pe) in &exact {
            let emp = *counts.get(&v).unwrap_or(&0) as f64 / ok as f64;
            let want = pe / total_exact;
            assert!((emp - want).abs() < 0.02, "{v}: emp={emp} want={want}");
        }
    }

    #[test]
    fn rrsan_fc_zero_equals_rr() {
        let fx = figure1();
        let rr = ClosingModel::Rr;
        let rrsan0 = ClosingModel::RrSan { fc: 0.0 };
        for &u in &fx.users {
            for &v in &fx.users {
                if u != v {
                    let a = rr.closure_probability(&fx.san, u, v);
                    let b = rrsan0.closure_probability(&fx.san, u, v);
                    assert!((a - b).abs() < 1e-12, "{u}->{v}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn rrsan_enables_focal_closure() {
        let fx = figure1();
        let [u1, u2, ..] = fx.users;
        // u1 has no social neighbours: RR cannot propose anything, but
        // u1 shares UC Berkeley with u2, so RR-SAN can reach u2.
        assert_eq!(ClosingModel::Rr.closure_probability(&fx.san, u1, u2), 0.0);
        let p = ClosingModel::RrSan { fc: 1.0 }.closure_probability(&fx.san, u1, u2);
        assert!(p > 0.0);
        let mut rng = SplitRng::new(11);
        let v = ClosingModel::RrSan { fc: 1.0 }
            .sample(&fx.san, u1, &mut rng)
            .unwrap();
        assert_eq!(v, u2);
        assert_eq!(ClosingModel::Rr.sample(&fx.san, u1, &mut rng), None);
    }

    #[test]
    fn rrsan_probability_increases_with_fc_for_focal_targets() {
        let fx = figure1();
        let [.., u5, u6] = fx.users;
        // u6 -> u5 is reachable both socially (via u4) and focally (Google).
        let p_low = ClosingModel::RrSan { fc: 0.1 }.closure_probability(&fx.san, u6, u5);
        let p_high = ClosingModel::RrSan { fc: 2.0 }.closure_probability(&fx.san, u6, u5);
        assert!(p_high > p_low, "p_high={p_high} p_low={p_low}");
    }

    #[test]
    fn figure1_closures_rrsan_dominates_rr() {
        // On the Figure 1 closure events (one triadic, one focal, one both)
        // RR-SAN must beat RR: only RR-SAN can explain the focal closure.
        let fx = figure1();
        let events = figure1_closures(&fx);
        let p_rr = mean_closure_probability(&ClosingModel::Rr, &fx.san, &events);
        let rrsan = ClosingModel::RrSan { fc: 1.0 };
        let p_rrsan = mean_closure_probability(&rrsan, &fx.san, &events);
        assert!(p_rrsan > p_rr, "rrsan={p_rrsan} rr={p_rr}");
        // Every observed closure has positive probability under RR-SAN…
        for (u, v) in events {
            assert!(rrsan.closure_probability(&fx.san, u, v) > 0.0, "{u}->{v}");
        }
        // …while RR assigns zero to the purely focal one (u1 -> u2).
        assert_eq!(
            ClosingModel::Rr.closure_probability(&fx.san, fx.users[0], fx.users[1]),
            0.0
        );
    }

    #[test]
    fn sample_never_returns_invalid_target() {
        let fx = figure1();
        let mut rng = SplitRng::new(12);
        for model in [
            ClosingModel::Baseline,
            ClosingModel::Rr,
            ClosingModel::RrSan { fc: 0.5 },
        ] {
            for &u in &fx.users {
                for _ in 0..200 {
                    if let Some(v) = model.sample(&fx.san, u, &mut rng) {
                        assert_ne!(v, u);
                        assert!(!fx.san.has_social_link(u, v));
                    }
                }
            }
        }
    }

    #[test]
    fn isolated_node_yields_none() {
        let mut san = San::new();
        let u = san.add_social_node();
        san.add_social_node();
        let mut rng = SplitRng::new(13);
        assert_eq!(ClosingModel::Baseline.sample(&san, u, &mut rng), None);
        assert_eq!(ClosingModel::Rr.sample(&san, u, &mut rng), None);
        assert_eq!(
            ClosingModel::RrSan { fc: 1.0 }.sample(&san, u, &mut rng),
            None
        );
    }

    #[test]
    fn mean_probability_empty_events() {
        let fx = figure1();
        assert_eq!(
            mean_closure_probability(&ClosingModel::Rr, &fx.san, &[]),
            0.0
        );
    }
}
