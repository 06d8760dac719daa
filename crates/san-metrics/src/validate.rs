//! Subsampling validation (§4.3, Fig. 9b).
//!
//! Only ~22 % of Google+ users declared attributes. The paper validates
//! that this subset is representative by removing each declared attribute
//! with probability 0.5 and checking that attribute metrics — e.g. the
//! attribute clustering coefficient distribution — barely move.
//! [`subsampling_validation`] packages that comparison for any metric
//! expressed as a per-degree series.

use crate::clustering::{clustering_by_degree, NodeSet};
use san_graph::subsample::subsample_attributes;
use san_graph::SanRead;
use san_stats::SplitRng;

/// Result of one subsampling comparison.
#[derive(Debug, Clone)]
pub struct SubsampleComparison {
    /// Per-degree series on the original SAN.
    pub original: Vec<(u64, f64)>,
    /// Per-degree series on the subsampled SAN.
    pub subsampled: Vec<(u64, f64)>,
    /// Mean absolute difference over degrees present in both series.
    pub mean_abs_diff: f64,
    /// Number of degrees the two series share.
    pub common_degrees: usize,
}

/// Mean absolute difference of two per-degree series over their common
/// support.
pub fn series_gap(a: &[(u64, f64)], b: &[(u64, f64)]) -> (f64, usize) {
    let mut diff = 0.0;
    let mut n = 0;
    for &(d, va) in a {
        if let Some(&(_, vb)) = b.iter().find(|(db, _)| *db == d) {
            diff += (va - vb).abs();
            n += 1;
        }
    }
    if n == 0 {
        (0.0, 0)
    } else {
        (diff / n as f64, n)
    }
}

/// Runs the §4.3 validation on the attribute clustering-vs-degree
/// distribution: subsample attribute links with `keep_prob` (the paper uses
/// 0.5) and compare the per-degree attribute clustering coefficients.
pub fn subsampling_validation(
    san: &impl SanRead,
    keep_prob: f64,
    rng: &mut SplitRng,
) -> SubsampleComparison {
    let original = clustering_by_degree(san, NodeSet::Attr);
    let sub = subsample_attributes(san, keep_prob, rng);
    let subsampled = clustering_by_degree(&sub, NodeSet::Attr);
    let (mean_abs_diff, common_degrees) = series_gap(&original, &subsampled);
    SubsampleComparison {
        original,
        subsampled,
        mean_abs_diff,
        common_degrees,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use san_graph::{AttrType, San};

    /// A SAN with many same-size attribute communities, so the per-degree
    /// clustering curve is robust to 50% subsampling.
    fn community_san(groups: usize, group_size: usize) -> San {
        let mut san = San::new();
        let mut users = Vec::new();
        for _ in 0..groups * group_size {
            users.push(san.add_social_node());
        }
        for g in 0..groups {
            let a = san.add_attr_node(AttrType::Employer);
            let members = &users[g * group_size..(g + 1) * group_size];
            for &u in members {
                san.add_attr_link(u, a);
            }
            // Dense intra-community links.
            for &u in members {
                for &v in members {
                    if u != v {
                        san.add_social_link(u, v);
                    }
                }
            }
        }
        san
    }

    #[test]
    fn identity_subsample_has_zero_gap() {
        let san = community_san(10, 4);
        let mut rng = SplitRng::new(1);
        let cmp = subsampling_validation(&san, 1.0, &mut rng);
        assert_eq!(cmp.mean_abs_diff, 0.0);
        assert!(cmp.common_degrees > 0);
        assert_eq!(cmp.original, cmp.subsampled);
    }

    #[test]
    fn half_subsample_small_gap_on_cliques() {
        // Communities are cliques: clustering = 1 at every degree, so the
        // subsampled curve must agree wherever it is defined.
        let san = community_san(30, 5);
        let mut rng = SplitRng::new(2);
        let cmp = subsampling_validation(&san, 0.5, &mut rng);
        assert!(cmp.mean_abs_diff < 1e-9, "gap={}", cmp.mean_abs_diff);
    }

    #[test]
    fn series_gap_disjoint_support() {
        let a = vec![(1u64, 0.5)];
        let b = vec![(2u64, 0.7)];
        let (gap, n) = series_gap(&a, &b);
        assert_eq!(gap, 0.0);
        assert_eq!(n, 0);
    }

    #[test]
    fn series_gap_partial_overlap() {
        let a = vec![(1u64, 0.5), (2, 0.8)];
        let b = vec![(2u64, 0.6), (3, 0.9)];
        let (gap, n) = series_gap(&a, &b);
        assert_eq!(n, 1);
        assert!((gap - 0.2).abs() < 1e-12);
    }

    #[test]
    fn zero_keep_removes_support() {
        let san = community_san(5, 4);
        let mut rng = SplitRng::new(3);
        let cmp = subsampling_validation(&san, 0.0, &mut rng);
        assert!(cmp.subsampled.is_empty());
        assert_eq!(cmp.common_degrees, 0);
    }

    #[test]
    fn declaration_rate_comparison() {
        // Sanity: subsampling halves the number of attribute links but the
        // clustering of surviving communities stays meaningful.
        let san = community_san(40, 6);
        let mut rng = SplitRng::new(4);
        let sub = subsample_attributes(&san, 0.5, &mut rng);
        let frac = sub.num_attr_links() as f64 / san.num_attr_links() as f64;
        assert!((frac - 0.5).abs() < 0.1, "frac={frac}");
    }
}
