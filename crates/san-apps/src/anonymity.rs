//! Social-network anonymous communication (§6.2, Fig. 19b).
//!
//! Drac-style systems build onion-routing circuits by **random walks over
//! the social graph**: a user forwards through friends, friends of
//! friends, … If both the *first* and the *last* relay of a circuit are
//! compromised, the adversary correlates entry and exit traffic
//! (end-to-end timing analysis) and anonymity is broken. The paper
//! evaluates that probability with uniformly compromised nodes and the same
//! degree bound (100) as the Sybil experiment.
//!
//! [`timing_analysis_probability`] estimates the attack probability by
//! Monte-Carlo circuit construction on the degree-bounded undirected graph.

use san_graph::degree::{bound_degrees, to_undirected};
use san_graph::SanRead;
use san_stats::SplitRng;

/// Anonymity experiment settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnonymityConfig {
    /// Node degree bound (paper: 100).
    pub degree_bound: usize,
    /// Circuit length in hops (first relay = hop 1, last = hop `length`).
    pub circuit_length: usize,
    /// Monte-Carlo circuits to sample.
    pub samples: usize,
}

impl Default for AnonymityConfig {
    fn default() -> Self {
        AnonymityConfig {
            degree_bound: 100,
            circuit_length: 6,
            samples: 200_000,
        }
    }
}

/// Estimates `P(first and last relay compromised)` for random-walk
/// circuits started at uniformly random honest users.
///
/// Walks that hit a dead end (isolated initiator or zero-degree
/// intermediate after bounding) are counted as failed circuit builds and
/// contribute no attack — matching a client that simply rebuilds.
pub fn timing_analysis_probability(
    san: &impl SanRead,
    cfg: AnonymityConfig,
    compromised: &[bool],
    rng: &mut SplitRng,
) -> f64 {
    assert_eq!(
        compromised.len(),
        san.num_social_nodes(),
        "compromise vector must cover all users"
    );
    attack_probability(&to_undirected(san), cfg, compromised, rng)
}

/// The Monte-Carlo body of [`timing_analysis_probability`] over an
/// already-built undirected adjacency: bound the degrees, then walk.
fn attack_probability(
    adj: &[Vec<u32>],
    cfg: AnonymityConfig,
    compromised: &[bool],
    rng: &mut SplitRng,
) -> f64 {
    let n = adj.len();
    if n == 0 || cfg.samples == 0 {
        return 0.0;
    }
    let bounded = bound_degrees(adj, cfg.degree_bound, rng);
    let mut attacks = 0usize;
    for _ in 0..cfg.samples {
        // Uniform honest initiator (retry a few times; if everything is
        // compromised the walk is trivially broken anyway).
        let mut initiator = rng.below(n as u64) as usize;
        let mut tries = 0;
        while compromised[initiator] && tries < 32 {
            initiator = rng.below(n as u64) as usize;
            tries += 1;
        }
        // Walk.
        let mut current = initiator;
        let mut first_relay: Option<usize> = None;
        let mut broken = false;
        for hop in 1..=cfg.circuit_length {
            let nbrs = &bounded[current];
            if nbrs.is_empty() {
                broken = true;
                break;
            }
            current = nbrs[rng.below(nbrs.len() as u64) as usize] as usize;
            if hop == 1 {
                first_relay = Some(current);
            }
        }
        if broken {
            continue;
        }
        let first = first_relay.expect("circuit_length >= 1 sets the first relay");
        if compromised[first] && compromised[current] {
            attacks += 1;
        }
    }
    attacks as f64 / cfg.samples as f64
}

/// The Fig. 19b curve: attack probability per compromise count.
///
/// The undirected graph is built once for the whole curve; the degree
/// bound is still drawn afresh per count, so the RNG stream (and every
/// point) is exactly that of calling [`timing_analysis_probability`] per
/// count.
pub fn timing_analysis_curve(
    san: &impl SanRead,
    cfg: AnonymityConfig,
    counts: &[usize],
    rng: &mut SplitRng,
) -> Vec<(usize, f64)> {
    let adj = to_undirected(san);
    counts
        .iter()
        .map(|&c| {
            let compromised = crate::sybil::compromise_uniform(san, c, rng);
            (c, attack_probability(&adj, cfg, &compromised, rng))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use san_graph::{San, SocialId};

    fn clique(n: usize) -> San {
        let mut san = San::new();
        let ids: Vec<SocialId> = (0..n).map(|_| san.add_social_node()).collect();
        for &a in &ids {
            for &b in &ids {
                if a != b {
                    san.add_social_link(a, b);
                }
            }
        }
        san
    }

    #[test]
    fn no_compromise_no_attack() {
        let san = clique(20);
        let mut rng = SplitRng::new(1);
        let cfg = AnonymityConfig {
            samples: 5_000,
            ..AnonymityConfig::default()
        };
        let p = timing_analysis_probability(&san, cfg, &[false; 20], &mut rng);
        assert_eq!(p, 0.0);
    }

    #[test]
    fn full_compromise_always_attacks() {
        let san = clique(10);
        let mut rng = SplitRng::new(2);
        let cfg = AnonymityConfig {
            samples: 2_000,
            ..AnonymityConfig::default()
        };
        let p = timing_analysis_probability(&san, cfg, &[true; 10], &mut rng);
        assert_eq!(p, 1.0);
    }

    #[test]
    fn clique_probability_close_to_fraction_squared() {
        // On a clique, relays are ~uniform, so P ≈ (c/n)².
        let n = 40;
        let san = clique(n);
        let mut rng = SplitRng::new(3);
        let mut compromised = vec![false; n];
        for c in compromised.iter_mut().take(10) {
            *c = true;
        }
        let cfg = AnonymityConfig {
            degree_bound: 100,
            circuit_length: 4,
            samples: 100_000,
        };
        let p = timing_analysis_probability(&san, cfg, &compromised, &mut rng);
        let expect = (10.0 / 40.0) * (10.0 / 40.0);
        assert!((p - expect).abs() < 0.02, "p={p} expect={expect}");
    }

    #[test]
    fn isolated_nodes_break_circuits_safely() {
        let mut san = San::new();
        for _ in 0..5 {
            san.add_social_node();
        }
        let mut rng = SplitRng::new(4);
        let cfg = AnonymityConfig {
            samples: 1_000,
            ..AnonymityConfig::default()
        };
        let p = timing_analysis_probability(&san, cfg, &[true; 5], &mut rng);
        assert_eq!(p, 0.0, "no edges, no circuits, no attacks");
    }

    #[test]
    fn curve_increases_with_compromise() {
        let san = clique(60);
        let mut rng = SplitRng::new(5);
        let cfg = AnonymityConfig {
            degree_bound: 100,
            circuit_length: 3,
            samples: 60_000,
        };
        let curve = timing_analysis_curve(&san, cfg, &[5, 30], &mut rng);
        assert!(curve[1].1 > curve[0].1, "{curve:?}");
    }

    #[test]
    fn curve_equals_per_count_probabilities() {
        // Building the undirected graph once per curve must not move a
        // single RNG draw: the curve is the per-count loop, bit for bit.
        let mut san = clique(30);
        let extra: Vec<SocialId> = (0..20).map(|_| san.add_social_node()).collect();
        for (i, &u) in extra.iter().enumerate() {
            san.add_social_link(u, SocialId((i % 30) as u32));
        }
        let cfg = AnonymityConfig {
            degree_bound: 8,
            circuit_length: 4,
            samples: 3_000,
        };
        let counts = [0, 3, 10, 50];
        let curve = timing_analysis_curve(&san, cfg, &counts, &mut SplitRng::new(21));
        let mut rng = SplitRng::new(21);
        let looped: Vec<(usize, f64)> = counts
            .iter()
            .map(|&c| {
                let compromised = crate::sybil::compromise_uniform(&san, c, &mut rng);
                (
                    c,
                    timing_analysis_probability(&san, cfg, &compromised, &mut rng),
                )
            })
            .collect();
        assert_eq!(curve, looped);
    }

    #[test]
    #[should_panic(expected = "compromise vector")]
    fn compromise_length_checked() {
        let san = clique(5);
        let mut rng = SplitRng::new(6);
        timing_analysis_probability(&san, AnonymityConfig::default(), &[true], &mut rng);
    }

    #[test]
    fn zero_samples_zero() {
        let san = clique(5);
        let mut rng = SplitRng::new(7);
        let cfg = AnonymityConfig {
            samples: 0,
            ..AnonymityConfig::default()
        };
        assert_eq!(
            timing_analysis_probability(&san, cfg, &[true; 5], &mut rng),
            0.0
        );
    }
}
