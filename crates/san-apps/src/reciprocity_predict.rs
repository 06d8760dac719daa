//! Reciprocity prediction (§4.4: "any reciprocity predictor should
//! incorporate node attributes instead of pure social structure metrics").
//!
//! Task: given a one-directional link `u → v` at time `t₁`, predict whether
//! `v → u` will exist by `t₂`. Two histogram predictors are compared:
//!
//! * **structure-only** — `P(reciprocate | common social neighbours)`;
//! * **attribute-aware** — `P(reciprocate | common social neighbours,
//!   common attributes)` (the paper's `r_{s,a}` table, Fig. 13a, used as a
//!   predictor).
//!
//! Both are trained on one snapshot pair and evaluated on another by
//! **Brier score** (mean squared error of the predicted probability; lower
//! is better). Fig. 13a's ~2× reciprocity boost for attribute-sharing
//! pairs translates directly into a Brier improvement for the
//! attribute-aware model.

use san_graph::SanRead;
use san_metrics::reciprocity::{fine_grained_reciprocity, ReciprocityCell};
use std::collections::HashMap;

/// A trained histogram predictor.
#[derive(Debug, Clone)]
pub struct ReciprocityPredictor {
    /// Whether the attribute feature is used.
    pub attribute_aware: bool,
    /// `(s, a) → rate`; `a` is always 0 when `attribute_aware` is false.
    table: HashMap<(usize, usize), f64>,
    /// Global fallback rate for unseen feature combinations.
    global_rate: f64,
    /// Cap on the common-social-neighbour feature (smooths sparse tails).
    s_cap: usize,
}

impl ReciprocityPredictor {
    /// Trains from two snapshots (same id space, `later ⊇ earlier`).
    pub fn train(earlier: &impl SanRead, later: &impl SanRead, attribute_aware: bool) -> Self {
        let cells = fine_grained_reciprocity(earlier, later);
        Self::from_cells(&cells, attribute_aware)
    }

    /// Trains from precomputed fine-grained cells.
    pub fn from_cells(cells: &[ReciprocityCell], attribute_aware: bool) -> Self {
        const S_CAP: usize = 10; // diminishing returns beyond ~10 (Fig. 13a)
        let mut table: HashMap<(usize, usize), (usize, usize)> = HashMap::new();
        let mut total = (0usize, 0usize);
        for c in cells {
            let s = c.common_social.min(S_CAP);
            let a = if attribute_aware { c.common_attrs } else { 0 };
            let e = table.entry((s, a)).or_insert((0, 0));
            e.0 += c.links;
            e.1 += c.reciprocated;
            total.0 += c.links;
            total.1 += c.reciprocated;
        }
        let global_rate = if total.0 == 0 {
            0.0
        } else {
            total.1 as f64 / total.0 as f64
        };
        let table = table
            .into_iter()
            .map(|(k, (l, r))| {
                (
                    k,
                    if l == 0 {
                        global_rate
                    } else {
                        r as f64 / l as f64
                    },
                )
            })
            .collect();
        ReciprocityPredictor {
            attribute_aware,
            table,
            global_rate,
            s_cap: S_CAP,
        }
    }

    /// Predicted probability that `u → v` (one-directional in `san`) gets
    /// reciprocated.
    pub fn predict(
        &self,
        san: &impl SanRead,
        u: san_graph::SocialId,
        v: san_graph::SocialId,
    ) -> f64 {
        let s = san.common_social_neighbors(u, v).min(self.s_cap);
        let a = if self.attribute_aware {
            san.common_attrs(u, v).min(2)
        } else {
            0
        };
        *self.table.get(&(s, a)).unwrap_or(&self.global_rate)
    }

    /// Brier score over the one-directional links of `earlier` with ground
    /// truth in `later` (lower is better). Returns `(score, n_links)`.
    pub fn brier_score(&self, earlier: &impl SanRead, later: &impl SanRead) -> (f64, usize) {
        let mut sum = 0.0;
        let mut n = 0usize;
        for (u, v) in earlier.social_links() {
            if earlier.has_social_link(v, u) {
                continue;
            }
            let p = self.predict(earlier, u, v);
            let y = if later.has_social_link(v, u) {
                1.0
            } else {
                0.0
            };
            sum += (p - y) * (p - y);
            n += 1;
        }
        if n == 0 {
            (0.0, 0)
        } else {
            (sum / n as f64, n)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use san_graph::{AttrType, San, SocialId};
    use san_stats::SplitRng;

    /// World where attribute-sharing pairs reciprocate with high
    /// probability and others rarely — the Fig. 13a effect, amplified.
    fn attribute_driven_world(seed: u64) -> (San, San) {
        let mut rng = SplitRng::new(seed);
        let mut san = San::new();
        let n = 400u32;
        let users: Vec<SocialId> = (0..n).map(|_| san.add_social_node()).collect();
        let attrs: Vec<_> = (0..10)
            .map(|_| san.add_attr_node(AttrType::Employer))
            .collect();
        for &u in &users {
            let a = attrs[rng.below(10) as usize];
            san.add_attr_link(u, a);
        }
        // One-directional links.
        for _ in 0..1500 {
            let u = users[rng.below(n as u64) as usize];
            let v = users[rng.below(n as u64) as usize];
            if u != v && !san.has_social_link(v, u) {
                san.add_social_link(u, v);
            }
        }
        let earlier = san.clone();
        // Reciprocate: 80% when sharing an attribute, 15% otherwise.
        let links: Vec<_> = earlier.social_links().collect();
        for (u, v) in links {
            let p = if earlier.common_attrs(u, v) > 0 {
                0.8
            } else {
                0.15
            };
            if rng.chance(p) {
                san.add_social_link(v, u);
            }
        }
        (earlier, san)
    }

    #[test]
    fn attribute_aware_beats_structure_only() {
        let (train_a, train_b) = attribute_driven_world(1);
        let (test_a, test_b) = attribute_driven_world(2);
        let aware = ReciprocityPredictor::train(&train_a, &train_b, true);
        let blind = ReciprocityPredictor::train(&train_a, &train_b, false);
        let (brier_aware, n1) = aware.brier_score(&test_a, &test_b);
        let (brier_blind, n2) = blind.brier_score(&test_a, &test_b);
        assert_eq!(n1, n2);
        assert!(n1 > 500);
        assert!(
            brier_aware < brier_blind - 0.01,
            "aware={brier_aware} blind={brier_blind}"
        );
    }

    #[test]
    fn predictions_are_probabilities() {
        let (a, b) = attribute_driven_world(3);
        let model = ReciprocityPredictor::train(&a, &b, true);
        for (u, v) in a.social_links().take(200) {
            let p = model.predict(&a, u, v);
            assert!((0.0..=1.0).contains(&p), "p={p}");
        }
    }

    #[test]
    fn empty_training_falls_back_gracefully() {
        let san = San::new();
        let model = ReciprocityPredictor::train(&san, &san, true);
        assert_eq!(model.global_rate, 0.0);
        let (score, n) = model.brier_score(&san, &san);
        assert_eq!(score, 0.0);
        assert_eq!(n, 0);
    }

    #[test]
    fn perfect_predictor_on_training_world_has_low_brier() {
        let (a, b) = attribute_driven_world(4);
        let model = ReciprocityPredictor::train(&a, &b, true);
        let (brier, _) = model.brier_score(&a, &b);
        // Base rates are 0.8/0.15: Bayes-optimal Brier ≈ mean p(1-p) ≈ 0.15.
        assert!(brier < 0.2, "brier={brier}");
    }
}
