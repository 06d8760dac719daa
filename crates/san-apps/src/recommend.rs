//! Friend recommendation over the SAN (§7: "users sharing common employer
//! attributes are more likely to be linked … can help design a better
//! friend recommendation system").
//!
//! Candidates are the 2-hop social neighbourhood plus attribute co-members;
//! each candidate `v` for user `u` is scored
//!
//! ```text
//! score(u, v) = common_friends(u, v) + w_attr · common_attrs(u, v)
//!             (+ w_employer · [shared employer])
//! ```
//!
//! The employer bonus operationalises the Fig. 13b finding that Employer is
//! the most community-forming attribute type. [`evaluate_precision`]
//! replays real link arrivals between two snapshots to measure
//! precision@k — the comparison that shows attribute features help.

use san_graph::{AttrType, SanRead, SocialId};
use san_stats::SplitRng;
use std::collections::HashMap;

/// Scoring weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecommenderWeights {
    /// Weight of each common attribute.
    pub attr: f64,
    /// Extra weight when the shared attribute is an Employer.
    pub employer_bonus: f64,
}

impl RecommenderWeights {
    /// Structure-only baseline (common friends, no attribute signal).
    pub fn structure_only() -> Self {
        RecommenderWeights {
            attr: 0.0,
            employer_bonus: 0.0,
        }
    }

    /// Attribute-aware default.
    pub fn attribute_aware() -> Self {
        RecommenderWeights {
            attr: 1.0,
            employer_bonus: 2.0,
        }
    }
}

/// Scores all candidates for `u` and returns the top `k`, best first.
///
/// Candidates: 2-hop social neighbours and co-members of `u`'s attributes,
/// excluding `u` and existing `u →` targets. Ties break by id for
/// determinism.
pub fn recommend(
    san: &impl SanRead,
    u: SocialId,
    k: usize,
    weights: RecommenderWeights,
) -> Vec<(SocialId, f64)> {
    let mut common_friends: HashMap<SocialId, f64> = HashMap::new();
    for &w in san.social_neighbors(u).iter() {
        for &v in san.social_neighbors(w).iter() {
            if v != u && !san.has_social_link(u, v) {
                *common_friends.entry(v).or_insert(0.0) += 1.0;
            }
        }
    }
    let mut scores = common_friends;
    if weights.attr != 0.0 || weights.employer_bonus != 0.0 {
        for &a in san.attrs_of(u) {
            let bonus = if san.attr_type(a) == AttrType::Employer {
                weights.attr + weights.employer_bonus
            } else {
                weights.attr
            };
            for &v in san.members_of(a) {
                if v != u && !san.has_social_link(u, v) {
                    *scores.entry(v).or_insert(0.0) += bonus;
                }
            }
        }
    }
    let mut ranked: Vec<(SocialId, f64)> = scores.into_iter().collect();
    ranked.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("finite scores")
            .then(a.0.cmp(&b.0))
    });
    ranked.truncate(k);
    ranked
}

/// Precision@k of a recommender against observed future links.
///
/// For up to `sample_users` users (uniform with a fixed rng) that created
/// at least one new outgoing link between `earlier` and `later`, recommend
/// `k` targets from `earlier` and count the fraction that materialised in
/// `later`. Returns `(precision, evaluated_users)`.
pub fn evaluate_precision(
    earlier: &impl SanRead,
    later: &impl SanRead,
    k: usize,
    weights: RecommenderWeights,
    sample_users: usize,
    rng: &mut SplitRng,
) -> (f64, usize) {
    assert!(
        later.num_social_nodes() >= earlier.num_social_nodes(),
        "later snapshot must contain the earlier one"
    );
    let n = earlier.num_social_nodes();
    if n == 0 {
        return (0.0, 0);
    }
    let mut hits = 0usize;
    let mut recommended = 0usize;
    let mut evaluated = 0usize;
    let mut attempts = 0usize;
    while evaluated < sample_users && attempts < sample_users * 20 {
        attempts += 1;
        let u = SocialId(rng.below(n as u64) as u32);
        // Did u add links after `earlier`?
        if later.out_degree(u) <= earlier.out_degree(u) {
            continue;
        }
        let recs = recommend(earlier, u, k, weights);
        if recs.is_empty() {
            continue;
        }
        evaluated += 1;
        for (v, _) in recs {
            recommended += 1;
            if later.has_social_link(u, v) && !earlier.has_social_link(u, v) {
                hits += 1;
            }
        }
    }
    if recommended == 0 {
        (0.0, evaluated)
    } else {
        (hits as f64 / recommended as f64, evaluated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use san_graph::fixtures::figure1;
    use san_graph::San;

    #[test]
    fn recommends_two_hop_neighbours() {
        let fx = figure1();
        let [_u1, u2, _u3, u4, ..] = fx.users;
        let recs = recommend(&fx.san, u4, 3, RecommenderWeights::structure_only());
        // u2 is the only valid 2-hop candidate for u4 (via u3).
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].0, u2);
        assert!(recs[0].1 >= 1.0);
    }

    #[test]
    fn attribute_weights_surface_focal_candidates() {
        let fx = figure1();
        let [u1, u2, ..] = fx.users;
        // u1 has no social neighbours: structure-only finds nothing.
        assert!(recommend(&fx.san, u1, 3, RecommenderWeights::structure_only()).is_empty());
        // Attribute-aware finds u2 (shared UC Berkeley).
        let recs = recommend(&fx.san, u1, 3, RecommenderWeights::attribute_aware());
        assert_eq!(recs[0].0, u2);
    }

    #[test]
    fn employer_bonus_reranks() {
        let mut san = San::new();
        let u = san.add_social_node();
        let city_mate = san.add_social_node();
        let colleague = san.add_social_node();
        let city = san.add_attr_node(AttrType::City);
        let employer = san.add_attr_node(AttrType::Employer);
        san.add_attr_link(u, city);
        san.add_attr_link(city_mate, city);
        san.add_attr_link(u, employer);
        san.add_attr_link(colleague, employer);
        let recs = recommend(&san, u, 2, RecommenderWeights::attribute_aware());
        assert_eq!(recs[0].0, colleague, "employer match must outrank city");
        assert_eq!(recs[1].0, city_mate);
        // Without the bonus they tie (id order breaks the tie).
        let flat = recommend(
            &san,
            u,
            2,
            RecommenderWeights {
                attr: 1.0,
                employer_bonus: 0.0,
            },
        );
        assert_eq!(flat[0].0, city_mate);
    }

    #[test]
    fn never_recommends_self_or_existing() {
        let fx = figure1();
        for &u in &fx.users {
            for (v, _) in recommend(&fx.san, u, 10, RecommenderWeights::attribute_aware()) {
                assert_ne!(v, u);
                assert!(!fx.san.has_social_link(u, v));
            }
        }
    }

    #[test]
    fn precision_counts_materialised_links() {
        // earlier: u0-u1 both linked to u2 (common friend), u0 also shares
        // an attribute with u3. later: u0 -> u1 appears.
        let mut san = San::new();
        let u0 = san.add_social_node();
        let u1 = san.add_social_node();
        let u2 = san.add_social_node();
        let _u3 = san.add_social_node();
        san.add_social_link(u0, u2);
        san.add_social_link(u1, u2);
        let earlier = san.clone();
        san.add_social_link(u0, u1);
        let mut rng = SplitRng::new(1);
        let (prec, evaluated) = evaluate_precision(
            &earlier,
            &san,
            1,
            RecommenderWeights::structure_only(),
            50,
            &mut rng,
        );
        assert!(evaluated >= 1);
        assert!(prec > 0.9, "prec={prec}");
    }

    #[test]
    fn precision_empty_network() {
        let san = San::new();
        let mut rng = SplitRng::new(2);
        let (p, n) = evaluate_precision(
            &san,
            &san,
            3,
            RecommenderWeights::attribute_aware(),
            10,
            &mut rng,
        );
        assert_eq!(p, 0.0);
        assert_eq!(n, 0);
    }
}
