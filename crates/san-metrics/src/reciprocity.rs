//! Reciprocity: global (§3.1) and fine-grained `r_{s,a}` (§4.2).
//!
//! Global reciprocity is the fraction of directed social links whose reverse
//! link also exists. The paper measured ~0.44 dropping over time on Google+
//! (vs 0.62 Flickr, 0.79 YouTube, 0.22 Twitter) and attributed the decline
//! to the hybrid friend/publisher-subscriber nature of Google+.
//!
//! The fine-grained analysis (Fig. 13a) takes the one-directional links of a
//! *halfway* snapshot, asks which became bidirectional by the *last*
//! snapshot, and buckets the answer by the endpoints' number of common
//! social neighbours `s` and common attribute neighbours `a`; the headline
//! result is that any shared attribute roughly doubles reciprocation.
//!
//! Global reciprocity is tallied without a per-link search: each node
//! tags its in-neighbours in one `u32` array and counts the out-neighbours
//! that carry the tag, O(|Es|) loads in all. The same loop serves the
//! sequential, the shard-parallel and the served (memoised) answers.

use san_graph::{SanRead, ShardedCsrSan};
use std::collections::BTreeMap;

/// The `(links, mutual)` tally over whatever link range the view
/// iterates: the whole network for `San`/`CsrSan`, an owned node range
/// for a [`san_graph::CsrShard`] — the one loop both the sequential and
/// sharded reciprocity share, so their definitions cannot drift apart.
///
/// No link is searched for. For each node `u` the view iterates, the
/// sources of `Γs,in(u)` are tagged with `u` in one `u32` per social node;
/// a link `u → v` is mutual iff `v` carries that tag, because `v → u`
/// exists iff `v ∈ Γs,in(u)` (the in/out mirror contract of
/// [`SanRead`]). Every entry of `Γs,out(u)` counts as a link, so a
/// duplicate arc counts twice and a self-loop is mutual, as with a
/// per-link `has_social_link(v, u)` probe.
fn reciprocity_tally(san: &impl SanRead) -> (usize, usize) {
    // `u32::MAX` tags no node: that id would need 2^32 social nodes.
    let mut tag = vec![u32::MAX; san.num_social_nodes()];
    let mut total = 0usize;
    let mut mutual = 0usize;
    for u in san.social_nodes() {
        for &w in san.in_neighbors(u) {
            tag[w.index()] = u.0;
        }
        let out = san.out_neighbors(u);
        total += out.len();
        mutual += out.iter().filter(|v| tag[v.index()] == u.0).count();
    }
    (total, mutual)
}

/// Fraction of directed links `u → v` for which `v → u` also exists.
/// Returns `0.0` for a network without social links.
pub fn global_reciprocity(san: &impl SanRead) -> f64 {
    let (total, mutual) = reciprocity_tally(san);
    if total == 0 {
        0.0
    } else {
        mutual as f64 / total as f64
    }
}

/// Shard-parallel global reciprocity.
///
/// Decomposition: each shard tallies `(links, mutual)` over the directed
/// links *originating* in its node range (a node's in-row lists every
/// source globally, so cross-shard reciprocal pairs resolve exactly);
/// the integer tallies merge by addition, making the result **bit-for-bit
/// identical** to [`global_reciprocity`] on the underlying snapshot.
pub fn global_reciprocity_sharded(g: &ShardedCsrSan) -> f64 {
    let (total, mutual) = g.fold_shards(
        |shard| reciprocity_tally(&shard),
        (0usize, 0usize),
        |acc, part| (acc.0 + part.0, acc.1 + part.1),
    );
    if total == 0 {
        0.0
    } else {
        mutual as f64 / total as f64
    }
}

/// One `(s, a)` cell of the fine-grained reciprocity analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReciprocityCell {
    /// Number of common social neighbours of the link endpoints (at the
    /// earlier snapshot).
    pub common_social: usize,
    /// Number of common attribute neighbours, clamped into the paper's
    /// classes 0, 1, ≥2 (stored as 2).
    pub common_attrs: usize,
    /// One-directional links observed in this cell.
    pub links: usize,
    /// How many of them became bidirectional by the later snapshot.
    pub reciprocated: usize,
}

impl ReciprocityCell {
    /// The reciprocation rate `r_{s,a}` of the cell.
    pub fn rate(&self) -> f64 {
        if self.links == 0 {
            0.0
        } else {
            self.reciprocated as f64 / self.links as f64
        }
    }
}

/// Fine-grained two-snapshot reciprocity (Fig. 13a).
///
/// `earlier` and `later` must share the social id space (later is a
/// superset — exactly what [`san_graph::SanTimeline`] snapshots provide).
/// For every link `u → v` present in `earlier` **without** its reverse, the
/// pair's common social neighbours `s` and common attributes `a` are
/// measured *in the earlier snapshot*; the link counts as reciprocated when
/// `v → u` exists in `later`.
///
/// Returns cells keyed by `(s, min(a, 2))`, mirroring the paper's
/// `0 / 1 / ≥2 common attribute` curves.
///
/// # Panics
/// Panics if `later` has fewer social nodes than `earlier`.
pub fn fine_grained_reciprocity(
    earlier: &impl SanRead,
    later: &impl SanRead,
) -> Vec<ReciprocityCell> {
    assert!(
        later.num_social_nodes() >= earlier.num_social_nodes(),
        "later snapshot must contain the earlier one"
    );
    let mut cells: BTreeMap<(usize, usize), (usize, usize)> = BTreeMap::new();
    for (u, v) in earlier.social_links() {
        if earlier.has_social_link(v, u) {
            continue; // already bidirectional: not a candidate.
        }
        let s = earlier.common_social_neighbors(u, v);
        let a = earlier.common_attrs(u, v).min(2);
        let entry = cells.entry((s, a)).or_insert((0, 0));
        entry.0 += 1;
        if later.has_social_link(v, u) {
            entry.1 += 1;
        }
    }
    cells
        .into_iter()
        .map(|((s, a), (links, reciprocated))| ReciprocityCell {
            common_social: s,
            common_attrs: a,
            links,
            reciprocated,
        })
        .collect()
}

/// Aggregates fine-grained cells into the three attribute classes of
/// Fig. 13a, returning `(rate for a=0, rate for a=1, rate for a>=2)`
/// over all links regardless of common-social count.
pub fn reciprocity_by_attr_class(cells: &[ReciprocityCell]) -> (f64, f64, f64) {
    let mut acc = [(0usize, 0usize); 3];
    for c in cells {
        let idx = c.common_attrs.min(2);
        acc[idx].0 += c.links;
        acc[idx].1 += c.reciprocated;
    }
    let rate = |(l, r): (usize, usize)| if l == 0 { 0.0 } else { r as f64 / l as f64 };
    (rate(acc[0]), rate(acc[1]), rate(acc[2]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use san_graph::fixtures::figure1;
    use san_graph::{AttrType, San, SocialId};

    #[test]
    fn global_reciprocity_figure1() {
        // Figure 1 has 5 links, only u2<->u3 mutual => 2/5.
        let fx = figure1();
        assert!((global_reciprocity(&fx.san) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn global_reciprocity_empty_and_full() {
        let mut san = San::new();
        assert_eq!(global_reciprocity(&san), 0.0);
        let u0 = san.add_social_node();
        let u1 = san.add_social_node();
        san.add_social_link(u0, u1);
        assert_eq!(global_reciprocity(&san), 0.0);
        san.add_social_link(u1, u0);
        assert_eq!(global_reciprocity(&san), 1.0);
    }

    #[test]
    fn sharded_global_reciprocity_is_bit_identical() {
        let fx = figure1();
        let csr = fx.san.freeze();
        let seq = global_reciprocity(&csr);
        for k in [1usize, 2, 3, 7] {
            let sharded = ShardedCsrSan::from_csr(csr.clone(), k);
            assert_eq!(global_reciprocity_sharded(&sharded), seq, "k={k}");
        }
        // Empty graph: 0/0 convention preserved.
        let empty = ShardedCsrSan::from_csr(San::new().freeze(), 3);
        assert_eq!(global_reciprocity_sharded(&empty), 0.0);
    }

    fn two_snapshot_fixture() -> (San, San) {
        // earlier: u0->u1 (no common anything), u2->u3 (common attr),
        //          u4->u5 (common friend u6).
        let mut san = San::new();
        let u: Vec<SocialId> = (0..7).map(|_| san.add_social_node()).collect();
        let a = san.add_attr_node(AttrType::Employer);
        san.add_social_link(u[0], u[1]);
        san.add_social_link(u[2], u[3]);
        san.add_attr_link(u[2], a);
        san.add_attr_link(u[3], a);
        san.add_social_link(u[4], u[5]);
        san.add_social_link(u[4], u[6]);
        san.add_social_link(u[6], u[5]);
        let earlier = san.clone();
        // later: u3->u2 reciprocates (the common-attr pair).
        san.add_social_link(u[3], u[2]);
        (earlier, san)
    }

    #[test]
    fn fine_grained_buckets_and_rates() {
        let (earlier, later) = two_snapshot_fixture();
        let cells = fine_grained_reciprocity(&earlier, &later);
        // Candidates: u0->u1 (s=0,a=0), u2->u3 (s=0,a=1), u4->u5 (s=1,a=0),
        // u4->u6 (s=0,a=0), u6->u5 (s=1,a=0).
        let total_links: usize = cells.iter().map(|c| c.links).sum();
        assert_eq!(total_links, 5);
        let cell_a1 = cells
            .iter()
            .find(|c| c.common_attrs == 1)
            .expect("a=1 cell exists");
        assert_eq!(cell_a1.links, 1);
        assert_eq!(cell_a1.reciprocated, 1);
        assert_eq!(cell_a1.rate(), 1.0);
        let (r0, r1, r2) = reciprocity_by_attr_class(&cells);
        assert_eq!(r0, 0.0);
        assert_eq!(r1, 1.0);
        assert_eq!(r2, 0.0);
    }

    #[test]
    fn already_mutual_links_excluded() {
        let mut san = San::new();
        let u0 = san.add_social_node();
        let u1 = san.add_social_node();
        san.add_social_link(u0, u1);
        san.add_social_link(u1, u0);
        let cells = fine_grained_reciprocity(&san, &san);
        assert!(cells.is_empty());
    }

    #[test]
    fn common_attrs_clamped_at_two() {
        let mut san = San::new();
        let u0 = san.add_social_node();
        let u1 = san.add_social_node();
        for _ in 0..5 {
            let a = san.add_attr_node(AttrType::Other);
            san.add_attr_link(u0, a);
            san.add_attr_link(u1, a);
        }
        san.add_social_link(u0, u1);
        let cells = fine_grained_reciprocity(&san, &san);
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].common_attrs, 2);
    }

    #[test]
    #[should_panic(expected = "later snapshot")]
    fn snapshot_order_enforced() {
        let mut big = San::new();
        big.add_social_node();
        big.add_social_node();
        let small = San::new();
        fine_grained_reciprocity(&big, &small);
    }

    #[test]
    fn cell_rate_zero_links() {
        let c = ReciprocityCell {
            common_social: 0,
            common_attrs: 0,
            links: 0,
            reciprocated: 0,
        };
        assert_eq!(c.rate(), 0.0);
    }
}
