//! SybilLimit evaluation (§6.2, Fig. 19a).
//!
//! SybilLimit lets honest nodes accept at most `O(log n)` Sybil identities
//! **per attack edge** — an edge between a compromised and an honest node.
//! To keep adversaries from accumulating attack edges through hub nodes,
//! the protocol bounds the effective node degree; the paper follows the
//! SybilLimit guidelines with a bound of 100 and sets the walk-length
//! parameter `w = 10`, compromising nodes uniformly at random.
//!
//! The evaluation statistic is therefore
//!
//! ```text
//! sybil identities ≈ w · |attack edges in the degree-bounded graph|
//! ```
//!
//! which reproduces the paper's scale: ~200 k compromised nodes on a
//! 10 M-user Google+ yield ~2.5 M bounded attack edges and ~25.3 M accepted
//! Sybil identities.
//!
//! §7 sketches an attribute-aware hardening ("limit the influence of a
//! compromised edge by checking the attribute structure");
//! [`attribute_discounted_attack_edges`] implements that check: attack
//! edges whose endpoints share no attribute are discounted, shrinking the
//! adversary's effective edge budget.

use san_graph::degree::{bound_degrees, to_undirected};
use san_graph::{SanRead, SocialId};
use san_stats::SplitRng;

/// SybilLimit protocol settings (paper defaults: bound 100, `w = 10`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SybilLimitConfig {
    /// Node degree bound applied before counting attack edges.
    pub degree_bound: usize,
    /// Random-route length parameter `w`.
    pub w: usize,
}

impl Default for SybilLimitConfig {
    fn default() -> Self {
        SybilLimitConfig {
            degree_bound: 100,
            w: 10,
        }
    }
}

/// Outcome of one SybilLimit evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SybilResult {
    /// Number of compromised nodes.
    pub compromised: usize,
    /// Attack edges in the degree-bounded graph.
    pub attack_edges: usize,
    /// Accepted Sybil identities (`w · attack_edges`).
    pub sybil_identities: u64,
}

/// Samples `count` distinct compromised nodes uniformly at random.
pub fn compromise_uniform(san: &impl SanRead, count: usize, rng: &mut SplitRng) -> Vec<bool> {
    let n = san.num_social_nodes();
    let count = count.min(n);
    let mut compromised = vec![false; n];
    let mut ids: Vec<u32> = (0..n as u32).collect();
    // Partial Fisher-Yates.
    for i in 0..count {
        let j = i + rng.below((n - i) as u64) as usize;
        ids.swap(i, j);
        compromised[ids[i] as usize] = true;
    }
    compromised
}

/// Counts attack edges (compromised ↔ honest) in a bounded undirected
/// adjacency structure.
pub fn count_attack_edges(adj: &[Vec<u32>], compromised: &[bool]) -> usize {
    let mut edges = 0;
    for (u, list) in adj.iter().enumerate() {
        if !compromised[u] {
            continue;
        }
        for &v in list {
            if !compromised[v as usize] {
                edges += 1;
            }
        }
    }
    edges
}

/// Runs one SybilLimit evaluation with uniformly compromised nodes.
pub fn sybil_identities(
    san: &impl SanRead,
    cfg: SybilLimitConfig,
    num_compromised: usize,
    rng: &mut SplitRng,
) -> SybilResult {
    let adj = to_undirected(san);
    let bounded = bound_degrees(&adj, cfg.degree_bound, rng);
    let compromised = compromise_uniform(san, num_compromised, rng);
    let attack_edges = count_attack_edges(&bounded, &compromised);
    SybilResult {
        compromised: num_compromised,
        attack_edges,
        sybil_identities: (attack_edges * cfg.w) as u64,
    }
}

/// The Fig. 19a curve: Sybil identities for each compromise count.
///
/// The degree-bounded graph is computed once; each point gets a fresh
/// uniform compromise set.
pub fn sybil_curve(
    san: &impl SanRead,
    cfg: SybilLimitConfig,
    counts: &[usize],
    rng: &mut SplitRng,
) -> Vec<SybilResult> {
    let adj = to_undirected(san);
    let bounded = bound_degrees(&adj, cfg.degree_bound, rng);
    counts
        .iter()
        .map(|&c| {
            let compromised = compromise_uniform(san, c, rng);
            let attack_edges = count_attack_edges(&bounded, &compromised);
            SybilResult {
                compromised: c,
                attack_edges,
                sybil_identities: (attack_edges * cfg.w) as u64,
            }
        })
        .collect()
}

/// §7 extension: effective attack edges when every attack edge whose
/// endpoints share **no** attribute only counts `no_attr_weight` (< 1).
/// Returns the (fractional) effective edge count.
pub fn attribute_discounted_attack_edges(
    san: &impl SanRead,
    adj: &[Vec<u32>],
    compromised: &[bool],
    no_attr_weight: f64,
) -> f64 {
    assert!(
        (0.0..=1.0).contains(&no_attr_weight),
        "weight must be a probability-like factor"
    );
    let mut total = 0.0;
    for (u, list) in adj.iter().enumerate() {
        if !compromised[u] {
            continue;
        }
        for &v in list {
            if !compromised[v as usize] {
                let shares = san.common_attrs(SocialId(u as u32), SocialId(v)) > 0;
                total += if shares { 1.0 } else { no_attr_weight };
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use san_graph::{AttrType, San};

    /// A 3-regular-ish ring of n nodes (undirected degree ~2).
    fn ring(n: usize) -> San {
        let mut san = San::new();
        let ids: Vec<SocialId> = (0..n).map(|_| san.add_social_node()).collect();
        for i in 0..n {
            san.add_social_link(ids[i], ids[(i + 1) % n]);
        }
        san
    }

    #[test]
    fn compromise_uniform_counts() {
        let san = ring(100);
        let mut rng = SplitRng::new(1);
        let c = compromise_uniform(&san, 30, &mut rng);
        assert_eq!(c.iter().filter(|&&x| x).count(), 30);
        // Over-asking clamps.
        let c = compromise_uniform(&san, 1000, &mut rng);
        assert_eq!(c.iter().filter(|&&x| x).count(), 100);
    }

    #[test]
    fn attack_edges_ring_exact() {
        // Compromise one node in a ring: exactly 2 attack edges.
        let san = ring(10);
        let adj = to_undirected(&san);
        let mut compromised = vec![false; 10];
        compromised[3] = true;
        assert_eq!(count_attack_edges(&adj, &compromised), 2);
        // Two adjacent compromised nodes: 2 attack edges (internal edge
        // doesn't count).
        compromised[4] = true;
        assert_eq!(count_attack_edges(&adj, &compromised), 2);
    }

    #[test]
    fn sybil_identities_scale_with_w() {
        let san = ring(50);
        let mut rng = SplitRng::new(2);
        let r1 = sybil_identities(
            &san,
            SybilLimitConfig {
                degree_bound: 100,
                w: 10,
            },
            5,
            &mut rng,
        );
        assert_eq!(r1.sybil_identities, (r1.attack_edges * 10) as u64);
    }

    #[test]
    fn curve_monotone_in_expectation() {
        // More compromised nodes -> more attack edges (statistically; use
        // a graph large enough that noise cannot flip the ordering of
        // widely separated counts).
        let san = ring(2000);
        let mut rng = SplitRng::new(3);
        let curve = sybil_curve(&san, SybilLimitConfig::default(), &[20, 400], &mut rng);
        assert!(curve[1].attack_edges > curve[0].attack_edges);
        assert_eq!(curve[0].compromised, 20);
    }

    #[test]
    fn degree_bound_limits_hub_attack_edges() {
        // Star graph: hub compromised. Without bounding, attack edges =
        // #spokes; with bound 5, at most 5.
        let mut san = San::new();
        let hub = san.add_social_node();
        for _ in 0..50 {
            let s = san.add_social_node();
            san.add_social_link(s, hub);
        }
        let mut rng = SplitRng::new(4);
        let cfg = SybilLimitConfig {
            degree_bound: 5,
            w: 10,
        };
        let adj = to_undirected(&san);
        let bounded = bound_degrees(&adj, cfg.degree_bound, &mut rng);
        let mut compromised = vec![false; san.num_social_nodes()];
        compromised[hub.index()] = true;
        assert_eq!(count_attack_edges(&bounded, &compromised), 5);
    }

    #[test]
    fn attribute_discount_reduces_attack_edges() {
        // Two compromised nodes attack; one shares an attribute with its
        // honest neighbour, the other does not.
        let mut san = San::new();
        let a = san.add_social_node();
        let b = san.add_social_node();
        let c = san.add_social_node();
        let d = san.add_social_node();
        san.add_social_link(a, b); // a-b share attribute
        san.add_social_link(c, d); // c-d share nothing
        let attr = san.add_attr_node(AttrType::Employer);
        san.add_attr_link(a, attr);
        san.add_attr_link(b, attr);
        let adj = to_undirected(&san);
        let compromised = vec![true, false, true, false];
        let full = attribute_discounted_attack_edges(&san, &adj, &compromised, 1.0);
        assert!((full - 2.0).abs() < 1e-12);
        let discounted = attribute_discounted_attack_edges(&san, &adj, &compromised, 0.25);
        assert!((discounted - 1.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "probability-like")]
    fn discount_weight_validated() {
        let san = ring(4);
        let adj = to_undirected(&san);
        attribute_discounted_attack_edges(&san, &adj, &[false; 4], 1.5);
    }
}
