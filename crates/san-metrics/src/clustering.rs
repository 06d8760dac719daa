//! Clustering coefficients: exact (§3.4) and the constant-time sampling
//! estimator of Appendix A (Algorithm 2, Theorem 3).
//!
//! For a node `u` with social neighbourhood `Γs(u)` (undirected union of in-
//! and out-neighbours for social nodes; members for attribute nodes), the
//! directed clustering coefficient is
//!
//! ```text
//! c(u) = L(u) / (|Γs(u)|·(|Γs(u)|−1))
//! ```
//!
//! where `L(u)` counts the **directed** links among `Γs(u)` (a reciprocal
//! pair contributes 2). Nodes with fewer than two neighbours have `c(u)=0`.
//!
//! Algorithm 2 estimates the average over a node set `Ω` by sampling `K`
//! uniform centres and a uniform neighbour pair each, averaging the triple
//! map `F ∈ {0,1,2}`, and dividing by `2^I` (`I = 1` for directed SANs).
//! With `K = ⌈ln(2ν)/(2ε²)⌉` the error is at most `ε` with probability
//! `1 − 1/ν` (Theorem 3).
//!
//! Counting `L(u)` takes two routes. Sweeps over a whole node set
//! ([`average_clustering_exact`], [`clustering_by_degree`],
//! [`average_clustering_sharded`], [`attr_clustering_by_type`]) allocate
//! one `u32` stamp per social node for each share of the sweep, mark
//! `Γs(u)` with a fresh epoch and test each out-neighbour with one load,
//! so a sweep costs O(Σ out-degree over the neighbourhoods) with no
//! search and no sorted copy of attribute members. The single-node [`local_clustering_social`]
//! / [`local_clustering_attr`] point queries binary-search the sorted
//! neighbourhood instead, since an O(|Vs|) array per query would cost
//! more than it saves. Both routes count the same integers, so their
//! coefficients agree bit for bit.
//!
//! The three plain sweeps take their per-node `(|Γs(u)|, c(u))` from one
//! private driver. It deals `Ω`, in iteration order, into fixed
//! 512-node chunks, round-robin over its shares; each share owns a stamp
//! array and writes only its own disjoint chunks of one output vector.
//! Each aggregation then folds that vector in node order, so a sweep's
//! result does not depend on how many threads filled it: the same integer
//! `L(u)`, the same division and the same summation order as one thread.
//! The calling thread runs the first share itself and at most
//! `available_parallelism() − 1` scoped workers run the rest, so no more
//! threads are alive than the machine has cores. Graphs with fewer than
//! 2^15 social links stay on the calling thread. The
//! `metrics/clustering_workers` rows of `BENCH_METRICS.json` time one
//! and two shares on two cores, each row on the first day of a
//! synthetic run with at least 2^k links: a second share loses at 3.4 k
//! links, saves 0.02–0.25 ms a sweep from 5.4 k to 18.9 k links, and
//! 0.6–0.9 ms at 34 k, more above. Savings below that do not pay for
//! what a first worker costs a single-threaded process for good: glibc
//! malloc leaves its single-thread fast path and the worker takes an
//! arena. With the gate at 2^12, perfbench `repro` (sweeps of 7–17 k
//! links, no other thread) read 12 % slower and 2.8 % larger over 5
//! alternating pairs.

use san_graph::{AttrId, AttrType, SanRead, ShardedCsrSan, SocialId};
use san_stats::{hoeffding_samples, SplitRng};
use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::thread;

/// Which node set `Ω` a clustering aggregate ranges over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeSet {
    /// All social nodes (`Ω = Vs`): the *social* clustering coefficient.
    Social,
    /// All attribute nodes (`Ω = Va`): the *attribute* clustering
    /// coefficient.
    Attr,
}

/// Counts directed links among a set of social nodes, given sorted and
/// deduplicated: each out-neighbour is looked up by binary search.
fn directed_links_among(san: &impl SanRead, nodes: &[SocialId]) -> usize {
    if nodes.len() < 2 {
        return 0;
    }
    let mut count = 0;
    for &w in nodes {
        for &x in san.out_neighbors(w) {
            if x != w && nodes.binary_search(&x).is_ok() {
                count += 1;
            }
        }
    }
    count
}

/// Counts directed links among one neighbourhood at a time by stamping:
/// the reusable per-sweep state of the whole-set clustering sweeps.
struct Stamps {
    /// `stamp[x] == epoch` iff social node `x` is in the current set.
    stamp: Vec<u32>,
    epoch: u32,
}

impl Stamps {
    /// Stamps for a graph whose social ids are below `num_social` — the
    /// **global** count, since a shard's neighbourhoods reach every id.
    fn new(num_social: usize) -> Stamps {
        Stamps {
            stamp: vec![0; num_social],
            epoch: 0,
        }
    }

    /// The directed links among `nodes` (distinct ids, any order),
    /// counting a link `w → x` only for `x != w`.
    fn links_among(&mut self, san: &impl SanRead, nodes: &[SocialId]) -> usize {
        if nodes.len() < 2 {
            return 0;
        }
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        let epoch = self.epoch;
        for &x in nodes {
            self.stamp[x.index()] = epoch;
        }
        let mut count = 0;
        for &w in nodes {
            for &x in san.out_neighbors(w) {
                if x != w && self.stamp[x.index()] == epoch {
                    count += 1;
                }
            }
        }
        count
    }

    /// `c(u)` over the neighbourhood `nodes`: what the point queries
    /// return, bit for bit.
    fn coefficient(&mut self, san: &impl SanRead, nodes: &[SocialId]) -> f64 {
        let d = nodes.len();
        if d < 2 {
            return 0.0;
        }
        self.links_among(san, nodes) as f64 / (d * (d - 1)) as f64
    }

    /// `(d, c)` of node `id` of `which`: the size of its neighbourhood
    /// and its coefficient.
    fn node(&mut self, san: &impl SanRead, which: NodeSet, id: u32) -> (usize, f64) {
        match which {
            NodeSet::Social => {
                let nbrs = san.social_neighbors(SocialId(id));
                (nbrs.len(), self.coefficient(san, &nbrs))
            }
            NodeSet::Attr => {
                let members = san.members_of(AttrId(id));
                (members.len(), self.coefficient(san, members))
            }
        }
    }
}

/// Nodes per chunk the sweep driver deals out.
const CHUNK: usize = 512;

/// One share of a sweep: its chunks of node ids, each with the output
/// slots the share alone writes.
type Share<'a> = Vec<(&'a [u32], &'a mut [(usize, f64)])>;

/// Social links below which a whole-set sweep stays on the calling
/// thread: the measured 1-vs-2-share crossover (see the module doc).
const PARALLEL_MIN_LINKS: usize = 1 << 15;

/// The shares a whole-set sweep of `san` runs on, the caller included:
/// one below [`PARALLEL_MIN_LINKS`], else one per core.
fn auto_workers(san: &impl SanRead) -> usize {
    if san.num_social_links() < PARALLEL_MIN_LINKS {
        1
    } else {
        thread::available_parallelism().map_or(1, NonZeroUsize::get)
    }
}

/// The sweep driver: `(d, c)` of every node of `which` that `san`
/// iterates, in iteration order, computed on at most `workers` shares.
///
/// `Ω` is dealt in [`CHUNK`]-node chunks, round-robin; share `i` takes
/// chunks `i, i + workers, …` with a stamp array of its own and writes
/// only those chunks of the output. The caller runs share 0; the rest
/// run on scoped threads, so `workers` counts the calling thread.
fn coefficients(san: &(impl SanRead + Sync), which: NodeSet, workers: usize) -> Vec<(usize, f64)> {
    let ids: Vec<u32> = match which {
        NodeSet::Social => san.social_nodes().map(|u| u.0).collect(),
        NodeSet::Attr => san.attr_nodes().map(|a| a.0).collect(),
    };
    let mut out = vec![(0, 0.0); ids.len()];
    let workers = workers.clamp(1, ids.len().div_ceil(CHUNK).max(1));
    let mut shares: Vec<Share<'_>> = (0..workers).map(|_| Vec::new()).collect();
    for (k, chunk) in ids.chunks(CHUNK).zip(out.chunks_mut(CHUNK)).enumerate() {
        shares[k % workers].push(chunk);
    }
    let run = |share: Share<'_>| {
        let mut stamps = Stamps::new(san.num_social_nodes());
        for (ids, slots) in share {
            for (&id, slot) in ids.iter().zip(slots) {
                *slot = stamps.node(san, which, id);
            }
        }
    };
    let mut shares = shares.into_iter();
    let own = shares.next();
    thread::scope(|scope| {
        for share in shares {
            scope.spawn(move || run(share));
        }
        if let Some(share) = own {
            run(share);
        }
    });
    out
}

/// `Σ c / |Ω|`, summed in node order.
fn average_of(san: &impl SanRead, which: NodeSet, nodes: &[(usize, f64)]) -> f64 {
    let n = match which {
        NodeSet::Social => san.num_social_nodes(),
        NodeSet::Attr => san.num_attr_nodes(),
    };
    if n == 0 {
        return 0.0;
    }
    nodes.iter().map(|&(_, c)| c).sum::<f64>() / n as f64
}

/// Mean `c` per neighbourhood size, over the nodes with at least one
/// neighbour, each size's sum taken in node order.
fn by_degree_of(nodes: &[(usize, f64)]) -> Vec<(u64, f64)> {
    let mut acc: BTreeMap<u64, (f64, usize)> = BTreeMap::new();
    for &(d, c) in nodes.iter().filter(|&&(d, _)| d > 0) {
        let e = acc.entry(d as u64).or_insert((0.0, 0));
        e.0 += c;
        e.1 += 1;
    }
    acc.into_iter()
        .map(|(d, (sum, n))| (d, sum / n as f64))
        .collect()
}

/// Mean `c` and node count per attribute type, each type's sum taken in
/// node order; `nodes` is the driver's output for [`NodeSet::Attr`].
fn by_type_of(san: &impl SanRead, nodes: &[(usize, f64)]) -> Vec<(AttrType, f64, usize)> {
    let mut acc: BTreeMap<AttrType, (f64, usize)> = BTreeMap::new();
    for (a, &(_, c)) in san.attr_nodes().zip(nodes) {
        let e = acc.entry(san.attr_type(a)).or_insert((0.0, 0));
        e.0 += c;
        e.1 += 1;
    }
    acc.into_iter()
        .map(|(ty, (sum, n))| (ty, sum / n as f64, n))
        .collect()
}

/// The whole-set sweeps on an explicit number of shares, for the suites
/// and benches that pin the driver at every worker count. The plain
/// entry points choose the count themselves; each of these returns the
/// same bits whatever `workers` is.
#[doc(hidden)]
pub mod with_workers {
    use super::*;

    /// [`average_clustering_exact`](super::average_clustering_exact) on
    /// `workers` shares.
    pub fn average_clustering_exact(
        san: &(impl SanRead + Sync),
        which: NodeSet,
        workers: usize,
    ) -> f64 {
        average_of(san, which, &coefficients(san, which, workers))
    }

    /// [`clustering_by_degree`](super::clustering_by_degree) on `workers`
    /// shares.
    pub fn clustering_by_degree(
        san: &(impl SanRead + Sync),
        which: NodeSet,
        workers: usize,
    ) -> Vec<(u64, f64)> {
        by_degree_of(&coefficients(san, which, workers))
    }

    /// [`attr_clustering_by_type`](super::attr_clustering_by_type) on
    /// `workers` shares.
    pub fn attr_clustering_by_type(
        san: &(impl SanRead + Sync),
        workers: usize,
    ) -> Vec<(AttrType, f64, usize)> {
        by_type_of(san, &coefficients(san, NodeSet::Attr, workers))
    }
}

/// Exact clustering coefficient of a social node.
pub fn local_clustering_social(san: &impl SanRead, u: SocialId) -> f64 {
    let nbrs = san.social_neighbors(u);
    let d = nbrs.len();
    if d < 2 {
        return 0.0;
    }
    directed_links_among(san, &nbrs) as f64 / (d * (d - 1)) as f64
}

/// Exact clustering coefficient of an attribute node (community cohesion of
/// the users sharing the attribute).
pub fn local_clustering_attr(san: &impl SanRead, a: AttrId) -> f64 {
    let members = san.members_of(a);
    let d = members.len();
    if d < 2 {
        return 0.0;
    }
    // Members are distinct but, for a mutable `San`, in insertion order.
    let mut sorted = members.to_vec();
    sorted.sort_unstable();
    directed_links_among(san, &sorted) as f64 / (d * (d - 1)) as f64
}

/// Exact average clustering coefficient over `Ω` (O(Σ deg²) with one
/// stamp array per share; use [`approx_average_clustering`] for large
/// networks).
pub fn average_clustering_exact(san: &(impl SanRead + Sync), which: NodeSet) -> f64 {
    with_workers::average_clustering_exact(san, which, auto_workers(san))
}

/// Shard-parallel exact average clustering over `Ω`.
///
/// Decomposition: each shard sums the exact `c(u)` of the nodes it owns —
/// the shard view answers neighbourhood queries globally, so triangles
/// whose corners live in *other* shards are counted exactly as in the
/// sequential sweep — and the per-shard sums merge by addition in shard
/// order before the single division by `|Ω|`. The result matches
/// [`average_clustering_exact`] up to float-summation regrouping (the
/// shard-equivalence suite pins ≤ 1e-12).
pub fn average_clustering_sharded(g: &ShardedCsrSan, which: NodeSet) -> f64 {
    let n = match which {
        NodeSet::Social => g.csr().num_social_nodes(),
        NodeSet::Attr => g.csr().num_attr_nodes(),
    };
    if n == 0 {
        return 0.0;
    }
    let sum = g.fold_shards(
        // One share per shard: `fold_shards` already spreads the shards
        // over threads. A shard's ids are global, and so are its stamps.
        |shard| {
            coefficients(&shard, which, 1)
                .iter()
                .map(|&(_, c)| c)
                .sum::<f64>()
        },
        0.0f64,
        |acc, part| acc + part,
    );
    sum / n as f64
}

/// Samples `F(v, u, w)` for a uniform neighbour pair of centre `u`
/// (Algorithm 2 lines 6–8). Returns 0 for centres with fewer than two
/// neighbours (their triple set is empty and their `c(u)` is 0).
fn sample_f(san: &impl SanRead, nbrs: &[SocialId], rng: &mut SplitRng) -> u8 {
    let d = nbrs.len();
    if d < 2 {
        return 0;
    }
    let i = rng.below(d as u64) as usize;
    let mut j = rng.below((d - 1) as u64) as usize;
    if j >= i {
        j += 1;
    }
    let (v, w) = (nbrs[i], nbrs[j]);
    let mut f = 0u8;
    if san.has_social_link(v, w) {
        f += 1;
    }
    if san.has_social_link(w, v) {
        f += 1;
    }
    f
}

/// Algorithm 2 with an explicit sample budget `k`.
pub fn approx_average_clustering_k(
    san: &impl SanRead,
    which: NodeSet,
    k: usize,
    rng: &mut SplitRng,
) -> f64 {
    let n = match which {
        NodeSet::Social => san.num_social_nodes(),
        NodeSet::Attr => san.num_attr_nodes(),
    };
    if n == 0 || k == 0 {
        return 0.0;
    }
    let mut total: u64 = 0;
    for _ in 0..k {
        let f = match which {
            NodeSet::Social => {
                let u = SocialId(rng.below(n as u64) as u32);
                let nbrs = san.social_neighbors(u);
                sample_f(san, &nbrs, rng)
            }
            NodeSet::Attr => {
                let a = AttrId(rng.below(n as u64) as u32);
                sample_f(san, san.members_of(a), rng)
            }
        };
        total += u64::from(f);
    }
    // I = 1 (directed), so divide by 2^I · K.
    total as f64 / (2.0 * k as f64)
}

/// Algorithm 2 at the `(ε, ν)` operating point; the paper uses
/// `ε = 0.002`, `ν = 100`.
pub fn approx_average_clustering(
    san: &impl SanRead,
    which: NodeSet,
    epsilon: f64,
    nu: f64,
    rng: &mut SplitRng,
) -> f64 {
    approx_average_clustering_k(san, which, hoeffding_samples(epsilon, nu), rng)
}

/// Exact per-degree clustering distribution (Fig. 9a): for each degree `d`
/// (of `|Γs(u)|` for social nodes / social degree for attribute nodes),
/// the mean clustering coefficient of the nodes with that degree.
pub fn clustering_by_degree(san: &(impl SanRead + Sync), which: NodeSet) -> Vec<(u64, f64)> {
    with_workers::clustering_by_degree(san, which, auto_workers(san))
}

/// Sampled per-degree clustering for large networks: computes exact `c(u)`
/// for at most `max_nodes` uniformly sampled nodes and aggregates by degree.
pub fn clustering_by_degree_sampled(
    san: &impl SanRead,
    which: NodeSet,
    max_nodes: usize,
    rng: &mut SplitRng,
) -> Vec<(u64, f64)> {
    let n = match which {
        NodeSet::Social => san.num_social_nodes(),
        NodeSet::Attr => san.num_attr_nodes(),
    };
    if n == 0 {
        return Vec::new();
    }
    let mut acc: BTreeMap<u64, (f64, usize)> = BTreeMap::new();
    let samples = max_nodes.min(n);
    for _ in 0..samples {
        match which {
            NodeSet::Social => {
                let u = SocialId(rng.below(n as u64) as u32);
                let d = san.social_neighbors(u).len() as u64;
                if d >= 1 {
                    let e = acc.entry(d).or_insert((0.0, 0));
                    e.0 += local_clustering_social(san, u);
                    e.1 += 1;
                }
            }
            NodeSet::Attr => {
                let a = AttrId(rng.below(n as u64) as u32);
                let d = san.social_degree_of_attr(a) as u64;
                if d >= 1 {
                    let e = acc.entry(d).or_insert((0.0, 0));
                    e.0 += local_clustering_attr(san, a);
                    e.1 += 1;
                }
            }
        }
    }
    acc.into_iter()
        .map(|(d, (sum, n))| (d, sum / n as f64))
        .collect()
}

/// Average attribute clustering coefficient per attribute type (Fig. 13b:
/// Employer ≫ School > Major > City on Google+). Returns
/// `(type, average, node count)` for every type present.
pub fn attr_clustering_by_type(san: &(impl SanRead + Sync)) -> Vec<(AttrType, f64, usize)> {
    with_workers::attr_clustering_by_type(san, auto_workers(san))
}

#[cfg(test)]
mod tests {
    use super::*;
    use san_graph::fixtures::figure1;
    use san_graph::San;

    /// A directed triangle plus a pendant: u0<->u1, u1->u2, u2->u0, u3->u0.
    fn triangle() -> San {
        let mut san = San::new();
        let u: Vec<SocialId> = (0..4).map(|_| san.add_social_node()).collect();
        san.add_social_link(u[0], u[1]);
        san.add_social_link(u[1], u[0]);
        san.add_social_link(u[1], u[2]);
        san.add_social_link(u[2], u[0]);
        san.add_social_link(u[3], u[0]);
        san
    }

    #[test]
    fn local_clustering_exact_values() {
        let san = triangle();
        // u2: Γs = {u0, u1}; links among them: u0->u1 and u1->u0 => L=2,
        // denominator 2*1=2 => c=1.
        assert!((local_clustering_social(&san, SocialId(2)) - 1.0).abs() < 1e-12);
        // u0: Γs = {u1, u2, u3}; links among them: u1->u2 => L=1, denom 6.
        assert!((local_clustering_social(&san, SocialId(0)) - 1.0 / 6.0).abs() < 1e-12);
        // u3: single neighbour -> 0.
        assert_eq!(local_clustering_social(&san, SocialId(3)), 0.0);
    }

    #[test]
    fn attr_clustering_exact() {
        let fx = figure1();
        // Google members {u5, u6}: no social link between them -> 0.
        assert_eq!(local_clustering_attr(&fx.san, fx.google), 0.0);
        // CS members {u3, u4}: u4->u3 => L=1, denom 2 => 0.5.
        assert!((local_clustering_attr(&fx.san, fx.computer_science) - 0.5).abs() < 1e-12);
        // UC Berkeley members {u1, u2}: no social link between them -> 0.
        assert_eq!(local_clustering_attr(&fx.san, fx.uc_berkeley), 0.0);
    }

    #[test]
    fn attr_clustering_with_members_out_of_id_order() {
        // A mutable `San` lists members in insertion order: join the
        // triangle's nodes to the attribute as u3, u2, u1, u0.
        let mut san = triangle();
        let a = san.add_attr_node(AttrType::Employer);
        for u in (0..4).rev() {
            san.add_attr_link(SocialId(u), a);
        }
        // All 5 links lie among the 4 members: L=5, denom 4*3 => 5/12.
        let c = local_clustering_attr(&san, a);
        assert!((c - 5.0 / 12.0).abs() < 1e-12, "c={c}");
        assert_eq!(
            c.to_bits(),
            local_clustering_attr(&san.freeze(), a).to_bits()
        );
    }

    #[test]
    fn average_exact_social() {
        let san = triangle();
        let avg = average_clustering_exact(&san, NodeSet::Social);
        // u0: 1/6, u1: Γs={u0,u2}, links u2->u0 => 1/2; u2: 1; u3: 0.
        let expect = (1.0 / 6.0 + 0.5 + 1.0 + 0.0) / 4.0;
        assert!((avg - expect).abs() < 1e-12, "avg={avg} expect={expect}");
    }

    #[test]
    fn average_exact_empty() {
        let san = San::new();
        assert_eq!(average_clustering_exact(&san, NodeSet::Social), 0.0);
        assert_eq!(average_clustering_exact(&san, NodeSet::Attr), 0.0);
    }

    #[test]
    fn approx_matches_exact_within_epsilon() {
        let san = triangle();
        let exact = average_clustering_exact(&san, NodeSet::Social);
        let mut rng = SplitRng::new(1);
        let approx = approx_average_clustering(&san, NodeSet::Social, 0.01, 100.0, &mut rng);
        assert!(
            (approx - exact).abs() <= 0.01 + 1e-9,
            "approx={approx} exact={exact}"
        );
    }

    #[test]
    fn approx_attr_matches_exact() {
        let fx = figure1();
        let exact = average_clustering_exact(&fx.san, NodeSet::Attr);
        let mut rng = SplitRng::new(2);
        let approx = approx_average_clustering(&fx.san, NodeSet::Attr, 0.01, 100.0, &mut rng);
        assert!(
            (approx - exact).abs() <= 0.01 + 1e-9,
            "approx={approx} exact={exact}"
        );
    }

    #[test]
    fn approx_zero_budget() {
        let san = triangle();
        let mut rng = SplitRng::new(3);
        assert_eq!(
            approx_average_clustering_k(&san, NodeSet::Social, 0, &mut rng),
            0.0
        );
    }

    #[test]
    fn by_degree_distribution() {
        let san = triangle();
        let dist = clustering_by_degree(&san, NodeSet::Social);
        // Degrees: u0 has Γs={u1,u2,u3} (3), u1 {u0,u2} (2), u2 {u0,u1} (2),
        // u3 {u0} (1).
        let d3 = dist.iter().find(|(d, _)| *d == 3).unwrap();
        assert!((d3.1 - 1.0 / 6.0).abs() < 1e-12);
        let d2 = dist.iter().find(|(d, _)| *d == 2).unwrap();
        assert!((d2.1 - 0.75).abs() < 1e-12); // mean of 0.5 and 1.0
        let d1 = dist.iter().find(|(d, _)| *d == 1).unwrap();
        assert_eq!(d1.1, 0.0);
    }

    #[test]
    fn sampled_by_degree_subset_of_exact_support() {
        let fx = figure1();
        let mut rng = SplitRng::new(4);
        let sampled = clustering_by_degree_sampled(&fx.san, NodeSet::Attr, 100, &mut rng);
        let exact = clustering_by_degree(&fx.san, NodeSet::Attr);
        let exact_degrees: Vec<u64> = exact.iter().map(|(d, _)| *d).collect();
        for (d, _) in sampled {
            assert!(exact_degrees.contains(&d));
        }
    }

    #[test]
    fn by_type_breakdown() {
        let fx = figure1();
        let per_type = attr_clustering_by_type(&fx.san);
        assert_eq!(per_type.len(), 4);
        let major = per_type
            .iter()
            .find(|(ty, _, _)| *ty == AttrType::Major)
            .unwrap();
        assert!((major.1 - 0.5).abs() < 1e-12); // CS is the only Major.
        assert_eq!(major.2, 1);
        let city = per_type
            .iter()
            .find(|(ty, _, _)| *ty == AttrType::City)
            .unwrap();
        assert_eq!(city.1, 0.0); // SF members {u2, u5}: no links.
    }

    #[test]
    fn sharded_average_matches_exact_for_every_k() {
        let fx = figure1();
        let csr = fx.san.freeze();
        for which in [NodeSet::Social, NodeSet::Attr] {
            let exact = average_clustering_exact(&csr, which);
            for k in [1usize, 2, 3, 7, 16] {
                let sharded = ShardedCsrSan::from_csr(csr.clone(), k);
                let got = average_clustering_sharded(&sharded, which);
                assert!(
                    (got - exact).abs() < 1e-12,
                    "which={which:?} k={k} got={got} exact={exact}"
                );
            }
        }
    }

    #[test]
    fn sharded_average_empty_graph() {
        let sharded = ShardedCsrSan::from_csr(San::new().freeze(), 4);
        assert_eq!(average_clustering_sharded(&sharded, NodeSet::Social), 0.0);
        assert_eq!(average_clustering_sharded(&sharded, NodeSet::Attr), 0.0);
    }

    #[test]
    fn hoeffding_bound_holds_statistically() {
        // Build a graph with known average clustering; run the estimator
        // many times with small K and check the empirical error rate is
        // within the Theorem 3 guarantee.
        let san = triangle();
        let exact = average_clustering_exact(&san, NodeSet::Social);
        let nu = 10.0;
        let epsilon = 0.1;
        let k = hoeffding_samples(epsilon, nu);
        let mut failures = 0;
        let trials = 200;
        let mut rng = SplitRng::new(5);
        for _ in 0..trials {
            let est = approx_average_clustering_k(&san, NodeSet::Social, k, &mut rng);
            if (est - exact).abs() > epsilon {
                failures += 1;
            }
        }
        // Allowed failure probability 1/nu = 10%; give 2x slack for noise.
        assert!(
            (failures as f64) < trials as f64 * 0.2,
            "failures={failures}/{trials}"
        );
    }
}
