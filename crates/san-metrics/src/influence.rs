//! Attribute influence on the social structure (§4.2) and the closure-event
//! taxonomy of §5.2.
//!
//! * [`degree_percentiles_by_attr`] — the Fig. 14 analysis: median and
//!   quartiles of members' social out-degrees for selected attribute values
//!   (on Google+, `Employer=Google` and `Major=Computer Science` members
//!   have visibly higher degrees).
//! * [`classify_closures`] — classifies new links as **triadic** (common
//!   friend), **focal** (common attribute), both, or neither; the paper
//!   observes 84 % triadic / 18 % focal / 15 % both among Google+ friend
//!   requests.
//! * [`top_attrs_by_type`] — most popular attribute values per category
//!   (used to pick the Fig. 14 columns).

use san_graph::{AttrId, AttrType, SanRead, SocialId};

/// Degree quartiles of the members of one attribute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttrDegreeStats {
    /// The attribute node.
    pub attr: AttrId,
    /// Number of members.
    pub members: usize,
    /// 25th percentile of members' out-degrees.
    pub p25: f64,
    /// Median out-degree.
    pub p50: f64,
    /// 75th percentile.
    pub p75: f64,
}

/// Computes out-degree quartiles of each attribute's members (Fig. 14).
pub fn degree_percentiles_by_attr(san: &impl SanRead, attrs: &[AttrId]) -> Vec<AttrDegreeStats> {
    attrs
        .iter()
        .map(|&a| {
            let mut degrees: Vec<f64> = san
                .members_of(a)
                .iter()
                .map(|&u| san.out_degree(u) as f64)
                .collect();
            degrees.sort_by(f64::total_cmp);
            AttrDegreeStats {
                attr: a,
                members: degrees.len(),
                p25: san_stats::summary::percentile_sorted(&degrees, 25.0),
                p50: san_stats::summary::percentile_sorted(&degrees, 50.0),
                p75: san_stats::summary::percentile_sorted(&degrees, 75.0),
            }
        })
        .collect()
}

/// The closure mix of a batch of new links (§5.2). Categories overlap the
/// way the paper reports them: `triadic` counts every link whose endpoints
/// share a friend (including those that also share an attribute), `focal`
/// counts every link whose endpoints share an attribute.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClosureMix {
    /// Total classified links.
    pub total: usize,
    /// Links with ≥1 common social neighbour.
    pub triadic: usize,
    /// Links with ≥1 common attribute.
    pub focal: usize,
    /// Links with both.
    pub both: usize,
    /// Links with neither.
    pub neither: usize,
}

impl ClosureMix {
    /// Fraction of links that are triadic closures.
    pub fn triadic_frac(&self) -> f64 {
        self.frac(self.triadic)
    }

    /// Fraction of links that are focal closures.
    pub fn focal_frac(&self) -> f64 {
        self.frac(self.focal)
    }

    /// Fraction closing both a triangle and a focus.
    pub fn both_frac(&self) -> f64 {
        self.frac(self.both)
    }

    /// Fraction with neither a common friend nor a common attribute.
    pub fn neither_frac(&self) -> f64 {
        self.frac(self.neither)
    }

    fn frac(&self, x: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            x as f64 / self.total as f64
        }
    }
}

/// Classifies each `(src, dst)` link against the state of `san` (which must
/// *not* yet contain the links — the classification is about the network
/// the requester saw).
pub fn classify_closures(san: &impl SanRead, links: &[(SocialId, SocialId)]) -> ClosureMix {
    let mut mix = ClosureMix::default();
    for &(u, v) in links {
        mix.total += 1;
        let triadic = san.common_social_neighbors(u, v) > 0;
        let focal = san.common_attrs(u, v) > 0;
        if triadic {
            mix.triadic += 1;
        }
        if focal {
            mix.focal += 1;
        }
        if triadic && focal {
            mix.both += 1;
        }
        if !triadic && !focal {
            mix.neither += 1;
        }
    }
    mix
}

/// The `n` most popular attribute values of a given type, by member count
/// (descending, ties by id).
pub fn top_attrs_by_type(san: &impl SanRead, ty: AttrType, n: usize) -> Vec<AttrId> {
    let mut attrs: Vec<AttrId> = san
        .attr_nodes()
        .filter(|&a| san.attr_type(a) == ty)
        .collect();
    attrs.sort_by_key(|&a| (std::cmp::Reverse(san.social_degree_of_attr(a)), a));
    attrs.truncate(n);
    attrs
}

#[cfg(test)]
mod tests {
    use super::*;
    use san_graph::fixtures::{figure1, figure1_closures};

    #[test]
    fn figure1_closure_taxonomy() {
        let fx = figure1();
        let closures = figure1_closures(&fx);
        let mix = classify_closures(&fx.san, &closures);
        assert_eq!(mix.total, 3);
        // u4->u2 triadic only; u1->u2 focal only; u6->u5 both.
        assert_eq!(mix.triadic, 2);
        assert_eq!(mix.focal, 2);
        assert_eq!(mix.both, 1);
        assert_eq!(mix.neither, 0);
        assert!((mix.triadic_frac() - 2.0 / 3.0).abs() < 1e-12);
        assert!((mix.both_frac() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn closure_mix_empty() {
        let fx = figure1();
        let mix = classify_closures(&fx.san, &[]);
        assert_eq!(mix.total, 0);
        assert_eq!(mix.triadic_frac(), 0.0);
        assert_eq!(mix.neither_frac(), 0.0);
    }

    #[test]
    fn neither_category_detected() {
        let fx = figure1();
        // u1 -> u4: no common friend, no common attribute.
        let mix = classify_closures(&fx.san, &[(fx.users[0], fx.users[3])]);
        assert_eq!(mix.neither, 1);
        assert_eq!(mix.neither_frac(), 1.0);
    }

    #[test]
    fn degree_percentiles_fig14_style() {
        let fx = figure1();
        let stats = degree_percentiles_by_attr(&fx.san, &[fx.google, fx.uc_berkeley]);
        assert_eq!(stats.len(), 2);
        // Google members: u5 (out 0), u6 (out 1).
        let g = &stats[0];
        assert_eq!(g.members, 2);
        assert!((g.p50 - 0.5).abs() < 1e-12);
        assert!(g.p25 <= g.p50 && g.p50 <= g.p75);
    }

    #[test]
    fn degree_percentiles_empty_attr() {
        let mut san = san_graph::San::new();
        let a = san.add_attr_node(AttrType::City);
        let stats = degree_percentiles_by_attr(&san, &[a]);
        assert_eq!(stats[0].members, 0);
        assert_eq!(stats[0].p50, 0.0);
    }

    #[test]
    fn top_attrs_ranked_by_membership() {
        let fx = figure1();
        // City: SF has 2 members; it is the only city.
        let top_city = top_attrs_by_type(&fx.san, AttrType::City, 5);
        assert_eq!(top_city, vec![fx.san_francisco]);
        // Employer: Google (2 members).
        let top_emp = top_attrs_by_type(&fx.san, AttrType::Employer, 1);
        assert_eq!(top_emp, vec![fx.google]);
        // Unknown type yields nothing.
        assert!(top_attrs_by_type(&fx.san, AttrType::Other, 3).is_empty());
    }
}
