//! Sweep ≡ per-node: the whole-set clustering sweeps (stamp-array
//! counting) return, **bit for bit**, the same aggregation over the
//! single-node `local_clustering_*` point queries (binary-search
//! counting), for both node sets, on every read representation — the
//! mutable `San`, the frozen `CsrSan`, a zero-copy `CsrSanView`, and a
//! raw adjacency-list view that keeps self-loops and duplicate arcs the
//! other three reject. The shard-parallel sweep stays within 1e-12 of the
//! sequential one.

use proptest::prelude::*;
use san_graph::view::{AlignedBytes, CsrSanView};
use san_graph::{AttrId, AttrType, San, SanRead, ShardedCsrSan, SocialId};
use san_metrics::clustering::{
    average_clustering_exact, average_clustering_sharded, clustering_by_degree,
    local_clustering_attr, local_clustering_social, NodeSet,
};
use std::collections::BTreeMap;

/// Adjacency lists exactly as generated: self-loops and duplicate arcs
/// stay in the out/in lists, members stay in arrival order.
#[derive(Default)]
struct RawLists {
    out: Vec<Vec<SocialId>>,
    inc: Vec<Vec<SocialId>>,
    attrs: Vec<Vec<AttrId>>,
    members: Vec<Vec<SocialId>>,
    types: Vec<AttrType>,
    social_links: usize,
    attr_links: usize,
}

impl SanRead for RawLists {
    fn num_social_nodes(&self) -> usize {
        self.out.len()
    }
    fn num_attr_nodes(&self) -> usize {
        self.members.len()
    }
    fn num_social_links(&self) -> usize {
        self.social_links
    }
    fn num_attr_links(&self) -> usize {
        self.attr_links
    }
    fn out_neighbors(&self, u: SocialId) -> &[SocialId] {
        &self.out[u.index()]
    }
    fn in_neighbors(&self, u: SocialId) -> &[SocialId] {
        &self.inc[u.index()]
    }
    fn attrs_of(&self, u: SocialId) -> &[AttrId] {
        &self.attrs[u.index()]
    }
    fn members_of(&self, a: AttrId) -> &[SocialId] {
        &self.members[a.index()]
    }
    fn attr_type(&self, a: AttrId) -> AttrType {
        self.types[a.index()]
    }
}

/// A random SAN: `(social nodes, attribute nodes, arcs, memberships)`.
/// Arc endpoints are drawn from few nodes, so self-loops, duplicate arcs
/// and reciprocal pairs are common; isolated nodes and attributes with 0
/// or 1 members occur naturally; memberships arrive in random order, so
/// members are out of id order.
type Spec = (u32, u32, Vec<(u32, u32)>, Vec<(u32, u32)>);

fn arb_spec() -> impl Strategy<Value = Spec> {
    (
        0u32..14,
        0u32..6,
        prop::collection::vec((any::<u32>(), any::<u32>()), 0..60),
        prop::collection::vec((any::<u32>(), any::<u32>()), 0..30),
    )
}

/// Builds the spec both through `San` (which rejects self-loops and
/// duplicates) and verbatim as [`RawLists`].
fn build(spec: &Spec) -> (San, RawLists) {
    let (ns, na, arcs, memberships) = spec;
    let mut san = San::new();
    let mut raw = RawLists::default();
    for _ in 0..*ns {
        san.add_social_node();
        raw.out.push(Vec::new());
        raw.inc.push(Vec::new());
        raw.attrs.push(Vec::new());
    }
    for i in 0..*na {
        let ty = AttrType::PAPER_TYPES[i as usize % 4];
        san.add_attr_node(ty);
        raw.members.push(Vec::new());
        raw.types.push(ty);
    }
    if *ns == 0 {
        return (san, raw);
    }
    for &(x, y) in arcs {
        let (u, v) = (SocialId(x % ns), SocialId(y % ns));
        san.add_social_link(u, v);
        raw.out[u.index()].push(v);
        raw.inc[v.index()].push(u);
        raw.social_links += 1;
    }
    if *na == 0 {
        return (san, raw);
    }
    for &(x, y) in memberships {
        let (u, a) = (SocialId(x % ns), AttrId(y % na));
        san.add_attr_link(u, a);
        if !raw.members[a.index()].contains(&u) {
            raw.members[a.index()].push(u);
            raw.attrs[u.index()].push(a);
            raw.attr_links += 1;
        }
    }
    (san, raw)
}

/// `c` of every node of `which`, through the point queries, with its
/// neighbourhood size.
fn per_node(g: &impl SanRead, which: NodeSet) -> Vec<(u64, f64)> {
    match which {
        NodeSet::Social => g
            .social_nodes()
            .map(|u| {
                let d = g.social_neighbors(u).len() as u64;
                (d, local_clustering_social(g, u))
            })
            .collect(),
        NodeSet::Attr => g
            .attr_nodes()
            .map(|a| (g.members_of(a).len() as u64, local_clustering_attr(g, a)))
            .collect(),
    }
}

/// The sweeps' aggregations, recomputed from the point queries in the
/// same node order.
fn reference(g: &impl SanRead, which: NodeSet) -> (f64, Vec<(u64, f64)>) {
    let nodes = per_node(g, which);
    let avg = if nodes.is_empty() {
        0.0
    } else {
        nodes.iter().map(|&(_, c)| c).sum::<f64>() / nodes.len() as f64
    };
    let mut acc: BTreeMap<u64, (f64, usize)> = BTreeMap::new();
    for &(d, c) in nodes.iter().filter(|&&(d, _)| d >= 1) {
        let e = acc.entry(d).or_insert((0.0, 0));
        e.0 += c;
        e.1 += 1;
    }
    let by_degree = acc
        .into_iter()
        .map(|(d, (sum, n))| (d, sum / n as f64))
        .collect();
    (avg, by_degree)
}

fn bits(rows: &[(u64, f64)]) -> Vec<(u64, u64)> {
    rows.iter().map(|&(d, c)| (d, c.to_bits())).collect()
}

/// Asserts sweep ≡ per-node on one representation, for both node sets.
fn check(g: &impl SanRead, label: &str) {
    for which in [NodeSet::Social, NodeSet::Attr] {
        let (avg, by_degree) = reference(g, which);
        let got = average_clustering_exact(g, which);
        prop_assert_eq!(
            got.to_bits(),
            avg.to_bits(),
            "{} {:?}: average {} vs per-node {}",
            label,
            which,
            got,
            avg
        );
        prop_assert_eq!(
            bits(&clustering_by_degree(g, which)),
            bits(&by_degree),
            "{} {:?}: by degree",
            label,
            which
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sweeps_equal_per_node_aggregation(spec in arb_spec()) {
        let (san, raw) = build(&spec);
        let csr = san.freeze();
        let image = AlignedBytes::from_bytes(&csr.to_store_bytes());
        let view = CsrSanView::new(&image).expect("valid image");
        check(&san, "San");
        check(&csr, "CsrSan");
        check(&view, "CsrSanView");
        check(&raw, "RawLists");
        for which in [NodeSet::Social, NodeSet::Attr] {
            let sequential = average_clustering_exact(&csr, which);
            for k in [1usize, 2, 3] {
                let sharded = average_clustering_sharded(&ShardedCsrSan::from_csr(csr.clone(), k), which);
                prop_assert!(
                    (sharded - sequential).abs() <= 1e-12,
                    "{:?} k={}: sharded {} vs sequential {}",
                    which,
                    k,
                    sharded,
                    sequential
                );
            }
        }
    }
}

/// A fixed case with hand-counted values: self-loops `1 → 1` and `2 → 2`
/// and a duplicate arc `0 → 1` survive only in the raw view, where
/// `Γs(1)` and `Γs(2)` contain the node itself; both routes skip `w → w`
/// but count each duplicate arc.
#[test]
fn self_loops_and_duplicate_arcs_counted_alike() {
    let spec: Spec = (
        4,
        2,
        vec![
            (0, 1),
            (1, 0),
            (1, 2),
            (2, 0),
            (1, 1),
            (3, 0),
            (2, 2),
            (0, 1),
        ],
        vec![(2, 0), (0, 0), (1, 0), (3, 1)],
    );
    let (san, raw) = build(&spec);
    check(&san, "San");
    check(&raw, "RawLists");
    // Γs(0) = {1, 2, 3}: only 1 → 2 lies inside, c = 1/6.
    // Γs(1) = Γs(2) = {0, 1, 2}: 0 → 1 twice, 1 → 0, 1 → 2, 2 → 0, c = 5/6.
    // Γs(3) = {0}: c = 0.
    let expect = [1.0 / 6.0, 5.0 / 6.0, 5.0 / 6.0, 0.0];
    for (u, &c) in expect.iter().enumerate() {
        assert!((local_clustering_social(&raw, SocialId(u as u32)) - c).abs() < 1e-12);
    }
    let avg = average_clustering_exact(&raw, NodeSet::Social);
    assert!(
        (avg - expect.iter().sum::<f64>() / 4.0).abs() < 1e-12,
        "avg={avg}"
    );
    // Members {2, 0, 1}, in arrival order, hold the five links of Γs(1):
    // c = 5/6; the single-member attribute has c = 0.
    let attr = average_clustering_exact(&raw, NodeSet::Attr);
    assert!((attr - 5.0 / 6.0 / 2.0).abs() < 1e-12, "attr={attr}");
}
