//! The four degree distributions of a SAN and their best fits (§3.5, §4.1).
//!
//! On Google+ the paper finds:
//!
//! * social **out-degree** and **in-degree** of social nodes: best fit by a
//!   **discrete lognormal** (Fig. 5),
//! * **attribute degree** of social nodes: **lognormal** (Fig. 10a),
//! * **social degree** of attribute nodes: **power law** (Fig. 10b).
//!
//! [`fit_san_degrees`] runs the lognormal-vs-power-law model selection of
//! [`san_stats::fit`] over all four vectors; zero-degree nodes are excluded
//! from fitting (the paper plots `k ≥ 1`).

use san_graph::degree::{degree_vectors, DegreeVectors};
use san_graph::{SanRead, ShardedCsrSan};
use san_stats::fit::{fit_degree_distribution, DegreeFit};
use san_stats::StatsError;

/// The fitted models of the four SAN degree distributions.
#[derive(Debug, Clone)]
pub struct SanDegreeFits {
    /// Social out-degree of social nodes.
    pub out_degree: DegreeFit,
    /// Social in-degree of social nodes.
    pub in_degree: DegreeFit,
    /// Attribute degree of social nodes.
    pub attr_degree: DegreeFit,
    /// Social degree of attribute nodes.
    pub attr_social_degree: DegreeFit,
}

/// Fits all four degree distributions of a SAN.
///
/// Fails when any vector has fewer than two positive entries (tiny test
/// graphs should call [`san_stats::fit::fit_degree_distribution`] on the
/// vectors they care about instead).
pub fn fit_san_degrees(san: &impl SanRead) -> Result<SanDegreeFits, StatsError> {
    let dv = degree_vectors(san);
    Ok(SanDegreeFits {
        out_degree: fit_degree_distribution(&dv.out)?,
        in_degree: fit_degree_distribution(&dv.inc)?,
        attr_degree: fit_degree_distribution(&dv.attr_of_social)?,
        attr_social_degree: fit_degree_distribution(&dv.social_of_attr)?,
    })
}

/// Shard-parallel extraction of the four degree vectors.
///
/// Decomposition: each shard extracts the vectors for the social and
/// attribute nodes it owns (degrees are O(1) row-length reads); because
/// shards are node-contiguous and merged in shard order, concatenation
/// reproduces the global node order exactly, so the result is
/// **element-for-element identical** to
/// [`san_graph::degree::degree_vectors`].
pub fn degree_vectors_sharded(g: &ShardedCsrSan) -> DegreeVectors {
    g.fold_shards(
        |shard| {
            // `degree_vectors` is generic over SanRead, and the shard view
            // iterates exactly its owned ranges: the sequential extractor
            // *is* the per-shard partial.
            degree_vectors(&shard)
        },
        DegreeVectors::default(),
        |mut acc, part| {
            acc.out.extend(part.out);
            acc.inc.extend(part.inc);
            acc.attr_of_social.extend(part.attr_of_social);
            acc.social_of_attr.extend(part.social_of_attr);
            acc
        },
    )
}

/// Shard-parallel variant of [`fit_san_degrees`]: extracts the degree
/// vectors across shards, then fits. The vectors are identical to the
/// sequential extraction, so the fits are too.
pub fn fit_san_degrees_sharded(g: &ShardedCsrSan) -> Result<SanDegreeFits, StatsError> {
    let dv = degree_vectors_sharded(g);
    Ok(SanDegreeFits {
        out_degree: fit_degree_distribution(&dv.out)?,
        in_degree: fit_degree_distribution(&dv.inc)?,
        attr_degree: fit_degree_distribution(&dv.attr_of_social)?,
        attr_social_degree: fit_degree_distribution(&dv.social_of_attr)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use san_graph::{AttrType, San, SocialId};
    use san_stats::fit::FitFamily;
    use san_stats::{DiscreteLognormal, DiscretePowerLaw, SplitRng};

    /// Builds a SAN whose out-degrees are drawn from a lognormal and whose
    /// attribute memberships are drawn from a power law — the Google+
    /// shape.
    fn synthetic_google_like(n: usize, seed: u64) -> San {
        let mut rng = SplitRng::new(seed);
        let ln = DiscreteLognormal::new(1.2, 0.9).unwrap();
        let pl = DiscretePowerLaw::new(2.2, 1).unwrap();
        let mut san = San::new();
        let users: Vec<SocialId> = (0..n).map(|_| san.add_social_node()).collect();
        for &u in &users {
            let d = ln.sample(&mut rng).min(n as u64 / 2);
            for _ in 0..d {
                let v = users[rng.below(n as u64) as usize];
                san.add_social_link(u, v);
            }
        }
        // Attribute memberships: attribute node sizes ~ power law.
        let mut remaining = n * 2;
        while remaining > 0 {
            let a = san.add_attr_node(AttrType::Other);
            let size = pl.sample(&mut rng).min(remaining as u64) as usize;
            for _ in 0..size {
                let u = users[rng.below(n as u64) as usize];
                san.add_attr_link(u, a);
            }
            remaining = remaining.saturating_sub(size.max(1));
        }
        san
    }

    #[test]
    fn fits_google_like_families() {
        let san = synthetic_google_like(3000, 7);
        let fits = fit_san_degrees(&san).unwrap();
        assert_eq!(fits.out_degree.family, FitFamily::Lognormal);
        assert!(
            (fits.out_degree.mu - 1.2).abs() < 0.3,
            "mu={}",
            fits.out_degree.mu
        );
        assert_eq!(fits.attr_social_degree.family, FitFamily::PowerLaw);
        assert!(
            (fits.attr_social_degree.alpha - 2.2).abs() < 0.4,
            "alpha={}",
            fits.attr_social_degree.alpha
        );
    }

    #[test]
    fn sharded_degree_vectors_identical() {
        let san = synthetic_google_like(400, 3);
        let csr = san.freeze();
        let seq = degree_vectors(&csr);
        for k in [1usize, 2, 3, 7] {
            let sharded = ShardedCsrSan::from_csr(csr.clone(), k);
            let dv = degree_vectors_sharded(&sharded);
            assert_eq!(dv.out, seq.out, "k={k}");
            assert_eq!(dv.inc, seq.inc, "k={k}");
            assert_eq!(dv.attr_of_social, seq.attr_of_social, "k={k}");
            assert_eq!(dv.social_of_attr, seq.social_of_attr, "k={k}");
        }
    }

    #[test]
    fn sharded_fits_match_sequential() {
        let san = synthetic_google_like(800, 5);
        let csr = san.freeze();
        let seq = fit_san_degrees(&csr).unwrap();
        let sharded = ShardedCsrSan::from_csr(csr, 4);
        let fits = fit_san_degrees_sharded(&sharded).unwrap();
        assert_eq!(fits.out_degree.family, seq.out_degree.family);
        assert_eq!(fits.out_degree.mu, seq.out_degree.mu);
        assert_eq!(fits.attr_social_degree.alpha, seq.attr_social_degree.alpha);
    }

    #[test]
    fn fit_fails_on_tiny_graph() {
        let mut san = San::new();
        san.add_social_node();
        assert!(fit_san_degrees(&san).is_err());
    }
}
