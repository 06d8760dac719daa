//! Multiplicative Attribute Graph (MAG) baseline, after Kim & Leskovec
//! (Internet Mathematics 2012) — the other joint social/attribute model the
//! paper discusses in related work (§8).
//!
//! Every node draws `L` binary latent attributes; the probability of a
//! directed link `u → v` is the product of per-attribute affinities
//!
//! ```text
//! P(u → v) = Π_l  Θ_l[ a_u[l], a_v[l] ]
//! ```
//!
//! As the paper notes, MAG yields **binomial-family** degree distributions
//! (each of the `n−1` potential links is an independent coin), differing
//! from the empirically observed lognormal/power-law SANs — which is why it
//! serves as a contrast baseline, not a contender. Each latent attribute
//! `l` is exposed as an attribute node whose members are the users with
//! `a_u[l] = 1`, so the output is a full SAN.
//!
//! Generation is `O(n²·L)`; intended for baseline-scale comparisons, not
//! million-node simulation.

use crate::error::ModelError;
use san_graph::{AttrType, San, SocialId};
use san_stats::SplitRng;

/// A 2×2 affinity matrix for one latent attribute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Affinity {
    /// P-contribution when both endpoints have the attribute.
    pub both: f64,
    /// When only one endpoint has it (symmetric).
    pub one: f64,
    /// When neither has it.
    pub neither: f64,
}

impl Affinity {
    /// A homophilous affinity (`both > one > neither`), the standard MAG
    /// regime. Kept mild so per-node link probabilities stay within one
    /// order of magnitude and degrees show the binomial concentration the
    /// paper attributes to MAG.
    pub fn homophilous() -> Self {
        Affinity {
            both: 0.72,
            one: 0.6,
            neither: 0.5,
        }
    }

    fn validate(&self) -> Result<(), ModelError> {
        for (name, v) in [
            ("both", self.both),
            ("one", self.one),
            ("neither", self.neither),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(ModelError::InvalidParameter {
                    name: match name {
                        "both" => "affinity.both",
                        "one" => "affinity.one",
                        _ => "affinity.neither",
                    },
                    value: v,
                    constraint: "must be in [0,1]",
                });
            }
        }
        Ok(())
    }

    #[inline]
    fn factor(&self, a: bool, b: bool) -> f64 {
        match (a, b) {
            (true, true) => self.both,
            (false, false) => self.neither,
            _ => self.one,
        }
    }
}

/// MAG model parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct MagParams {
    /// Number of social nodes.
    pub nodes: usize,
    /// Number of latent binary attributes `L`.
    pub num_attrs: usize,
    /// Bernoulli probability of possessing each attribute.
    pub attr_prob: f64,
    /// Shared affinity matrix (one per attribute would be a trivial
    /// extension; the paper's discussion needs only the family shape).
    pub affinity: Affinity,
    /// Global scale multiplied into every link probability (controls
    /// density independent of `L`).
    pub scale: f64,
}

impl MagParams {
    /// A baseline-scale default: ~n·20 expected links.
    pub fn default_for(nodes: usize) -> Self {
        MagParams {
            nodes,
            num_attrs: 6,
            attr_prob: 0.4,
            affinity: Affinity::homophilous(),
            scale: 0.5,
        }
    }

    fn validate(&self) -> Result<(), ModelError> {
        if self.nodes < 2 {
            return Err(ModelError::InvalidParameter {
                name: "nodes",
                value: self.nodes as f64,
                constraint: "must be >= 2",
            });
        }
        if !(0.0..=1.0).contains(&self.attr_prob) {
            return Err(ModelError::InvalidParameter {
                name: "attr_prob",
                value: self.attr_prob,
                constraint: "must be in [0,1]",
            });
        }
        if !(0.0..=1.0).contains(&self.scale) {
            return Err(ModelError::InvalidParameter {
                name: "scale",
                value: self.scale,
                constraint: "must be in [0,1]",
            });
        }
        self.affinity.validate()
    }
}

/// Generates a MAG SAN. Deterministic in `seed`.
#[allow(clippy::needless_range_loop)]
pub fn generate_mag(params: &MagParams, seed: u64) -> Result<San, ModelError> {
    params.validate()?;
    let mut rng = SplitRng::new(seed);
    let n = params.nodes;
    let l = params.num_attrs;
    // Draw latent attribute vectors.
    let mut has: Vec<Vec<bool>> = Vec::with_capacity(n);
    for _ in 0..n {
        has.push((0..l).map(|_| rng.chance(params.attr_prob)).collect());
    }
    let mut san = San::new();
    let users: Vec<SocialId> = (0..n).map(|_| san.add_social_node()).collect();
    // One attribute node per latent attribute; members are the possessors.
    for li in 0..l {
        let ty = AttrType::PAPER_TYPES[li % 4];
        let a = san.add_attr_node(ty);
        for (ui, &u) in users.iter().enumerate() {
            if has[ui][li] {
                san.add_attr_link(u, a);
            }
        }
    }
    // Sample every ordered pair.
    for (ui, &u) in users.iter().enumerate() {
        for (vi, &v) in users.iter().enumerate() {
            if ui == vi {
                continue;
            }
            let mut p = params.scale;
            for li in 0..l {
                p *= params.affinity.factor(has[ui][li], has[vi][li]);
            }
            if rng.chance(p) {
                san.add_social_link(u, v);
            }
        }
    }
    Ok(san)
}

#[cfg(test)]
mod tests {
    use super::*;
    use san_stats::summary::{mean, std_dev};

    #[test]
    fn rejects_bad_params() {
        let mut p = MagParams::default_for(10);
        p.nodes = 1;
        assert!(generate_mag(&p, 1).is_err());
        let mut p = MagParams::default_for(10);
        p.attr_prob = 1.5;
        assert!(generate_mag(&p, 1).is_err());
        let mut p = MagParams::default_for(10);
        p.affinity.both = -0.1;
        assert!(generate_mag(&p, 1).is_err());
        let mut p = MagParams::default_for(10);
        p.scale = 2.0;
        assert!(generate_mag(&p, 1).is_err());
    }

    #[test]
    fn generates_consistent_san() {
        let san = generate_mag(&MagParams::default_for(200), 3).unwrap();
        assert_eq!(san.num_social_nodes(), 200);
        assert_eq!(san.num_attr_nodes(), 6);
        san.check_consistency().unwrap();
        assert!(san.num_social_links() > 0);
    }

    #[test]
    fn homophily_increases_same_attr_link_rate() {
        let san = generate_mag(&MagParams::default_for(300), 4).unwrap();
        // Compare link probability between users sharing >= 1 attribute vs
        // none, empirically.
        let mut same = (0usize, 0usize); // (links, pairs)
        let mut diff = (0usize, 0usize);
        let users: Vec<SocialId> = san.social_nodes().collect();
        for &u in &users[..100] {
            for &v in &users[..100] {
                if u == v {
                    continue;
                }
                let bucket = if san.common_attrs(u, v) > 0 {
                    &mut same
                } else {
                    &mut diff
                };
                bucket.1 += 1;
                if san.has_social_link(u, v) {
                    bucket.0 += 1;
                }
            }
        }
        let p_same = same.0 as f64 / same.1.max(1) as f64;
        let p_diff = diff.0 as f64 / diff.1.max(1) as f64;
        assert!(p_same > p_diff, "p_same={p_same} p_diff={p_diff}");
    }

    #[test]
    fn degrees_are_binomial_family() {
        // Binomial degrees concentrate: coefficient of variation is far
        // smaller than for the heavy-tailed families (a lognormal with
        // sigma ~ 1 has CV ~ 1.3; binomial(n, p) has CV ~ 1/sqrt(np)).
        let san = generate_mag(&MagParams::default_for(400), 5).unwrap();
        let degrees: Vec<f64> = san
            .social_nodes()
            .map(|u| san.out_degree(u) as f64)
            .collect();
        let cv = std_dev(&degrees) / mean(&degrees);
        assert!(cv < 0.6, "cv={cv} — MAG degrees should concentrate");
    }

    #[test]
    fn deterministic_in_seed() {
        let p = MagParams::default_for(100);
        let a = generate_mag(&p, 9).unwrap();
        let b = generate_mag(&p, 9).unwrap();
        assert_eq!(a.num_social_links(), b.num_social_links());
    }
}
