//! HyperANF: approximate neighbourhood function and effective diameter
//! (§3.3), from scratch.
//!
//! Computing all-pairs distances is infeasible at Google+ scale, so the
//! paper uses the HyperANF algorithm of Boldi, Rosa & Vigna: every node
//! carries a **HyperLogLog** counter of the nodes it can reach within `t`
//! hops; one synchronous round of
//!
//! ```text
//! c_u(t+1) = c_u(t) ∪ ⋃_{u→v} c_v(t)
//! ```
//!
//! advances the horizon by one hop, and the estimated neighbourhood
//! function `N(t) = Σ_u |c_u(t)|` counts ordered pairs within distance `t`.
//! The **effective diameter** is the interpolated 90th-percentile distance
//! among connected pairs.
//!
//! # Incremental rounds
//!
//! The counters of all nodes live in one flat register buffer (`n · 2^b`
//! bytes), double-buffered: round `t+1` writes the buffer that held round
//! `t-1`. A round only touches what can change, and the result is still
//! **bit-for-bit** the synchronous round above:
//!
//! * *Dirty nodes.* Union is a register-wise max, so after round `t`
//!   every `c_u(t)` already contains `c_v(t-1)` for each successor `v`.
//!   If no successor changed in round `t`, `c_u(t+1) = c_u(t)`; `u` is
//!   recomputed only when some successor changed, and then only the
//!   changed successors are unioned in (the others are already inside).
//!   Round 1 treats every node as changed.
//! * *Stale rows.* A node that is not recomputed keeps the row the buffer
//!   holds from round `t-1`. That row is current unless the node itself
//!   changed in round `t`, in which case its round-`t` row is copied over.
//! * *Cached estimates.* A node's estimate is recomputed only when its
//!   counter changed. The `2^-r` terms come from a table of exact powers
//!   of two, so every estimate is bit-for-bit what `powi` gives, and
//!   `N(t)` still sums the counted nodes' estimates in node order — the
//!   same floating-point sum as the synchronous algorithm.
//!
//! The sequential [`neighborhood_function`] and the shard-parallel
//! [`neighborhood_function_sharded`] run the same per-range round kernel;
//! the sharded form just hands each shard's node range to its own thread.
//!
//! The paper's **attribute distance** (§4.1) between attribute nodes `a, b`
//! is `min{dist(u,v) | u ∈ Γs(a), v ∈ Γs(b)} + 1`. We compute it on a
//! *lifted* graph (attribute nodes wired to their members in both
//! directions): lifted distances equal attribute distances plus one, so the
//! attribute diameter falls out of the same machinery.

use san_graph::{AttrId, SanRead, ShardedCsrSan, SocialId};
use san_stats::SplitRng;
use std::ops::Range;

/// `2^-r` for every reachable register value. A rank is at most
/// `65 - b ≤ 61` (see [`insert_register`]), so 65 entries cover every
/// register; each entry is an exact power of two, built from its IEEE-754
/// exponent field.
const POW2_NEG: [f64; 65] = {
    let mut table = [0.0f64; 65];
    let mut r = 0;
    while r < 65 {
        table[r] = f64::from_bits((1023 - r as u64) << 52);
        r += 1;
    }
    table
};

/// Folds a pre-hashed value into a register row of `2^b` registers.
#[inline]
fn insert_register(registers: &mut [u8], b: u8, hash: u64) {
    let idx = (hash >> (64 - b)) as usize;
    let rest = hash << b;
    // Rank = position of the leftmost 1 bit in the remaining bits, 1-based.
    let rank = (rest.leading_zeros() as u8).min(64 - b) + 1;
    if let Some(slot) = registers.get_mut(idx) {
        if rank > *slot {
            *slot = rank;
        }
    }
}

/// Register-wise max of `src` into `dst`; `true` when any register grew.
///
/// Branch-free, so the loop vectorises: `o - r` saturates to 0 unless
/// `o > r`, and `grew` collects every such increase.
#[inline]
fn union_registers(dst: &mut [u8], src: &[u8]) -> bool {
    let mut grew = 0u8;
    for (r, &o) in dst.iter_mut().zip(src) {
        grew |= o.saturating_sub(*r);
        *r = (*r).max(o);
    }
    grew != 0
}

/// HyperLogLog estimate of one register row (with the standard
/// small-range linear-counting correction).
fn estimate_registers(registers: &[u8]) -> f64 {
    let m = registers.len() as f64;
    let alpha = match registers.len() {
        16 => 0.673,
        32 => 0.697,
        64 => 0.709,
        _ => 0.7213 / (1.0 + 1.079 / m),
    };
    let sum: f64 = registers.iter().map(|&r| POW2_NEG[usize::from(r)]).sum();
    let raw = alpha * m * m / sum;
    if raw <= 2.5 * m {
        let zeros = registers.iter().filter(|&&r| r == 0).count();
        if zeros > 0 {
            return m * (m / zeros as f64).ln();
        }
    }
    raw
}

/// A HyperLogLog cardinality counter with `2^b` registers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HyperLogLog {
    b: u8,
    registers: Vec<u8>,
}

impl HyperLogLog {
    /// Creates an empty counter; `b` must be in `4..=16`.
    pub fn new(b: u8) -> Self {
        assert!(
            (4..=16).contains(&b),
            "register exponent b={b} out of range"
        );
        HyperLogLog {
            b,
            registers: vec![0; 1 << b],
        }
    }

    /// Inserts a pre-hashed 64-bit value.
    pub fn insert_hash(&mut self, hash: u64) {
        insert_register(&mut self.registers, self.b, hash);
    }

    /// Unions another counter into this one; returns `true` when any
    /// register changed (HyperANF's convergence signal).
    pub fn union_with(&mut self, other: &HyperLogLog) -> bool {
        debug_assert_eq!(self.b, other.b, "incompatible register widths");
        union_registers(&mut self.registers, &other.registers)
    }

    /// Estimated cardinality (with the standard small-range linear-counting
    /// correction).
    pub fn estimate(&self) -> f64 {
        estimate_registers(&self.registers)
    }
}

/// Stable 64-bit mix of a node id with a seed (SplitMix64 finaliser).
#[inline]
fn hash_node(id: u64, seed: u64) -> u64 {
    let mut z = id
        .wrapping_add(seed)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(0x1234_5678_9ABC_DEF1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One round's read side: every node's round-`t` registers and change
/// flags (shared by all range workers).
#[derive(Clone, Copy)]
struct RoundInput<'a> {
    /// Registers per node (`2^b`).
    m: usize,
    registers: &'a [u8],
    changed: &'a [bool],
}

/// One round's write side for a contiguous node range: that range's rows
/// of the round-`t+1` buffer, its change flags, its cached estimates and
/// which of its nodes count towards `N(t)`.
struct RangeOut<'a> {
    registers: &'a mut [u8],
    changed: &'a mut [bool],
    estimates: &'a mut [f64],
    count: &'a [bool],
}

/// The one round kernel: advances the nodes of `range` by one hop (see
/// the module docs for why skipping clean nodes is exact). Returns whether
/// any counter of the range changed.
fn round_range<I: IntoIterator<Item = usize>>(
    range: Range<usize>,
    succ: &impl Fn(usize) -> I,
    cur: RoundInput<'_>,
    out: RangeOut<'_>,
) -> bool {
    let m = cur.m;
    let row_of = |u: usize| cur.registers.get(u * m..(u + 1) * m).unwrap_or(&[]);
    let mut any = false;
    let slots = out
        .registers
        .chunks_exact_mut(m)
        .zip(out.changed.iter_mut())
        .zip(out.estimates.iter_mut())
        .zip(out.count);
    for (u, (((row, changed), estimate), &counted)) in range.zip(slots) {
        let own = row_of(u);
        let mut fresh = false;
        let mut grew = false;
        for v in succ(u) {
            if cur.changed.get(v).copied().unwrap_or(false) {
                if !fresh {
                    row.copy_from_slice(own);
                    fresh = true;
                }
                grew |= union_registers(row, row_of(v));
            }
        }
        if !fresh && cur.changed.get(u).copied().unwrap_or(false) {
            // Not recomputed, but the buffer still holds its round t-1 row.
            row.copy_from_slice(own);
        }
        *changed = grew;
        if grew && counted {
            *estimate = estimate_registers(row);
        }
        any |= grew;
    }
    any
}

/// The shared HyperANF driver: seeds the counters, then calls `round`
/// until convergence or `max_iters` rounds, collecting `N(t)`.
///
/// `round(input, out)` must advance every node by one hop, writing the
/// whole-graph [`RangeOut`] (directly or split across workers), and return
/// whether any counter changed.
fn anf_series(
    n: usize,
    init: impl Fn(usize) -> bool,
    count: &[bool],
    b: u8,
    max_iters: usize,
    seed: u64,
    mut round: impl FnMut(RoundInput<'_>, RangeOut<'_>) -> bool,
) -> Vec<f64> {
    if n == 0 {
        return vec![0.0];
    }
    // Registers per node; `HyperLogLog::new` also range-checks `b`.
    let m = HyperLogLog::new(b).registers.len();
    let mut cur = vec![0u8; n * m];
    let mut estimates = vec![0.0f64; n];
    for (u, (row, estimate)) in cur.chunks_exact_mut(m).zip(&mut estimates).enumerate() {
        if init(u) {
            insert_register(row, b, hash_node(u as u64, seed));
        }
        if count.get(u).copied().unwrap_or(false) {
            *estimate = estimate_registers(row);
        }
    }
    let total = |est: &[f64]| -> f64 {
        est.iter()
            .zip(count)
            .filter(|(_, &keep)| keep)
            .map(|(e, _)| *e)
            .sum()
    };
    let mut next = cur.clone();
    // Round 1 treats every counter as freshly changed.
    let mut changed = vec![true; n];
    let mut next_changed = vec![false; n];
    let mut series = vec![total(&estimates)];
    for _ in 0..max_iters {
        let input = RoundInput {
            m,
            registers: &cur,
            changed: &changed,
        };
        let out = RangeOut {
            registers: &mut next,
            changed: &mut next_changed,
            estimates: &mut estimates,
            count,
        };
        let any_changed = round(input, out);
        std::mem::swap(&mut cur, &mut next);
        std::mem::swap(&mut changed, &mut next_changed);
        if !any_changed {
            break;
        }
        series.push(total(&estimates));
    }
    series
}

/// HyperANF over an arbitrary successor structure.
///
/// * `adj[u]` — successors of node `u`;
/// * `init[u]` — whether `u`'s counter starts containing `u` itself;
/// * `count[u]` — whether `u`'s counter contributes to `N(t)`.
///
/// Returns the series `N(0), N(1), …` until convergence (no counter
/// changes) or `max_iters` rounds.
pub fn neighborhood_function(
    adj: &[Vec<u32>],
    init: &[bool],
    count: &[bool],
    b: u8,
    max_iters: usize,
    seed: u64,
) -> Vec<f64> {
    let n = adj.len();
    assert_eq!(init.len(), n);
    assert_eq!(count.len(), n);
    let succ = |u: usize| adj[u].iter().map(|&v| v as usize);
    sequential_series(n, succ, |u| init[u], count, b, max_iters, seed)
}

/// Single-threaded HyperANF over nodes `0..n` with successors `succ(u)`:
/// every round is one call of the range kernel over the whole range.
fn sequential_series<I: IntoIterator<Item = usize>>(
    n: usize,
    succ: impl Fn(usize) -> I,
    init: impl Fn(usize) -> bool,
    count: &[bool],
    b: u8,
    max_iters: usize,
    seed: u64,
) -> Vec<f64> {
    anf_series(n, init, count, b, max_iters, seed, |cur, out| {
        round_range(0..n, &succ, cur, out)
    })
}

/// Carves `buf` into disjoint mutable chunks matching contiguous `ranges`
/// of `stride`-element rows (the ranges must cover the buffer exactly —
/// what [`ShardedCsrSan::social_ranges`] yields), so scoped shard workers
/// can write their own node range without locks.
fn split_chunks<'a, T>(
    mut buf: &'a mut [T],
    ranges: &[Range<usize>],
    stride: usize,
) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(ranges.len());
    for r in ranges {
        let (head, tail) = buf.split_at_mut((r.len() * stride).min(buf.len()));
        out.push(head);
        buf = tail;
    }
    debug_assert!(buf.is_empty(), "ranges must cover the buffer exactly");
    out
}

/// Shard-parallel HyperANF over the directed social graph.
///
/// Decomposition: every round runs the same range kernel as
/// [`neighborhood_function`] once per shard, each writing the nodes it
/// owns into that shard's disjoint chunk of the double buffer and reading
/// the previous round's registers and change flags globally (`c_v(t)` of
/// an out-neighbour in another shard is just a shared read) — so the
/// register evolution is **bit-for-bit identical** to the sequential
/// algorithm over the same adjacency. Cached per-node estimates are
/// likewise written per shard and summed sequentially in node order, which
/// keeps the reported series (and therefore the interpolated diameter)
/// bit-identical too, not merely close.
pub fn neighborhood_function_sharded(
    g: &ShardedCsrSan,
    b: u8,
    max_iters: usize,
    seed: u64,
) -> Vec<f64> {
    let csr = g.csr();
    let n = csr.num_social_nodes();
    let ranges = g.social_ranges();
    let succ = |u: usize| {
        csr.out_neighbors(SocialId(u as u32))
            .iter()
            .map(|v| v.index())
    };
    let count = vec![true; n];
    anf_series(
        n,
        |_| true,
        &count,
        b,
        max_iters,
        seed,
        |cur, out| {
            let registers = split_chunks(out.registers, &ranges, cur.m);
            let changed = split_chunks(out.changed, &ranges, 1);
            let estimates = split_chunks(out.estimates, &ranges, 1);
            let mut count = out.count;
            let parts: Vec<(Range<usize>, RangeOut<'_>)> = ranges
                .iter()
                .zip(registers.into_iter().zip(changed).zip(estimates))
                .map(|(range, ((registers, changed), estimates))| {
                    let (head, tail) = count.split_at(range.len().min(count.len()));
                    count = tail;
                    let out = RangeOut {
                        registers,
                        changed,
                        estimates,
                        count: head,
                    };
                    (range.clone(), out)
                })
                .filter(|(range, _)| !range.is_empty())
                .collect();
            // A single non-empty shard (K = 1, or every other shard empty)
            // runs inline — no hand-off worth paying for.
            if parts.len() <= 1 {
                return parts.into_iter().fold(false, |acc, (range, out)| {
                    acc | round_range(range, &succ, cur, out)
                });
            }
            std::thread::scope(|scope| {
                let handles: Vec<_> = parts
                    .into_iter()
                    .map(|(range, out)| scope.spawn(|| round_range(range, &succ, cur, out)))
                    .collect();
                handles.into_iter().fold(false, |acc, h| {
                    acc | match h.join() {
                        Ok(v) => v,
                        // Forward the worker's panic payload unchanged.
                        Err(payload) => std::panic::resume_unwind(payload),
                    }
                })
            })
        },
    )
}

/// Shard-parallel effective social diameter: [`neighborhood_function_sharded`]
/// plus the same interpolation as [`social_effective_diameter`] — identical
/// output, one snapshot saturating `K` cores.
pub fn social_effective_diameter_sharded(g: &ShardedCsrSan, q: f64, b: u8, seed: u64) -> f64 {
    let nf = neighborhood_function_sharded(g, b, 256, seed);
    effective_diameter_from_nf(&nf, q)
}

/// Interpolated effective diameter at quantile `q` from a neighbourhood
/// function series.
///
/// Self-pairs (`N(0)`) are excluded: the quantile ranges over ordered
/// connected pairs at distance ≥ 1, matching the paper's "distance between
/// every pair of connected nodes".
pub fn effective_diameter_from_nf(nf: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
    if nf.len() < 2 {
        return 0.0;
    }
    let base = nf[0];
    let total = nf[nf.len() - 1] - base;
    if total <= 0.0 {
        return 0.0;
    }
    let target = q * total;
    for t in 1..nf.len() {
        let below = nf[t - 1] - base;
        let at = nf[t] - base;
        if at >= target {
            if at <= below {
                return t as f64;
            }
            // Linear interpolation within the step [t-1, t].
            return (t - 1) as f64 + (target - below) / (at - below);
        }
    }
    (nf.len() - 1) as f64
}

/// Effective social diameter (90th percentile by default in the paper).
///
/// `b` controls HyperLogLog accuracy (the paper's tool uses comparable
/// register budgets); `seed` fixes the hash salt.
pub fn social_effective_diameter(san: &impl SanRead, q: f64, b: u8, seed: u64) -> f64 {
    let n = san.num_social_nodes();
    let succ = |u: usize| {
        san.out_neighbors(SocialId(u as u32))
            .iter()
            .map(|v| v.index())
    };
    let count = vec![true; n];
    let nf = sequential_series(n, succ, |_| true, &count, b, 256, seed);
    effective_diameter_from_nf(&nf, q)
}

/// Effective **attribute** diameter (§4.1): the 90th-percentile attribute
/// distance `min dist between members + 1`, computed on the lifted graph
/// and shifted back by one.
pub fn attribute_effective_diameter(san: &impl SanRead, q: f64, b: u8, seed: u64) -> f64 {
    let n = san.num_social_nodes();
    let m = san.num_attr_nodes();
    if m == 0 {
        return 0.0;
    }
    // Lifted graph: social nodes 0..n, attribute nodes n..n+m. A social
    // node u points at its out-neighbours and its attributes (so a path
    // …→v→b terminates at b); an attribute a points at its members (so a
    // path a→u→… starts at a).
    let succ = |u: usize| {
        let (social, attrs): (&[SocialId], &[AttrId]) = if u < n {
            let id = SocialId(u as u32);
            (san.out_neighbors(id), san.attrs_of(id))
        } else {
            (san.members_of(AttrId((u - n) as u32)), &[])
        };
        social
            .iter()
            .map(|v| v.index())
            .chain(attrs.iter().map(move |a| n + a.index()))
    };
    let count: Vec<bool> = (0..n + m).map(|u| u >= n).collect();
    let nf = sequential_series(n + m, succ, |u| u >= n, &count, b, 256, seed);
    // Lifted distances between distinct attribute nodes = attribute distance + 1.
    let lifted = effective_diameter_from_nf(&nf, q);
    (lifted - 1.0).max(0.0)
}

/// Exact distance distribution by multi-source directed BFS over `sources`
/// sampled uniformly (used to validate HyperANF and to report the paper's
/// "mode at distance six" histogram on small graphs).
///
/// Returns `hist[d] = number of (sampled source, target) pairs at distance
/// d ≥ 1`.
pub fn sampled_distance_histogram(
    san: &impl SanRead,
    num_sources: usize,
    rng: &mut SplitRng,
) -> Vec<u64> {
    let n = san.num_social_nodes();
    if n == 0 || num_sources == 0 {
        return Vec::new();
    }
    let mut hist: Vec<u64> = Vec::new();
    for _ in 0..num_sources.min(n) {
        let src = san_graph::SocialId(rng.below(n as u64) as u32);
        let dist = san_graph::traverse::bfs_directed(san, src);
        for d in dist.into_iter().flatten() {
            if d >= 1 {
                let d = d as usize;
                if hist.len() <= d {
                    hist.resize(d + 1, 0);
                }
                hist[d] += 1;
            }
        }
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use san_graph::{San, SocialId};

    fn path_graph(n: usize) -> San {
        let mut san = San::new();
        let u: Vec<SocialId> = (0..n).map(|_| san.add_social_node()).collect();
        for i in 0..n - 1 {
            san.add_social_link(u[i], u[i + 1]);
        }
        san
    }

    #[test]
    fn hll_estimates_cardinalities() {
        for &n in &[100u64, 1_000, 50_000] {
            let mut hll = HyperLogLog::new(10);
            for i in 0..n {
                hll.insert_hash(hash_node(i, 7));
            }
            let est = hll.estimate();
            let rel = (est - n as f64).abs() / n as f64;
            assert!(rel < 0.1, "n={n} est={est} rel={rel}");
        }
    }

    #[test]
    fn hll_duplicate_insertions_idempotent() {
        let mut a = HyperLogLog::new(8);
        for i in 0..100u64 {
            a.insert_hash(hash_node(i, 3));
        }
        let before = a.estimate();
        for i in 0..100u64 {
            a.insert_hash(hash_node(i, 3));
        }
        assert_eq!(a.estimate(), before);
    }

    #[test]
    fn hll_union_is_max() {
        let mut a = HyperLogLog::new(8);
        let mut b = HyperLogLog::new(8);
        for i in 0..500u64 {
            a.insert_hash(hash_node(i, 1));
        }
        for i in 250..750u64 {
            b.insert_hash(hash_node(i, 1));
        }
        assert!(a.union_with(&b));
        let est = a.estimate();
        assert!((est - 750.0).abs() / 750.0 < 0.15, "est={est}");
        // Second union is a no-op.
        assert!(!a.union_with(&b));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn hll_rejects_bad_b() {
        HyperLogLog::new(2);
    }

    #[test]
    fn nf_exact_on_small_path() {
        // Directed path of 4: pairs within t:
        // N(0)=4, N(1)=4+3, N(2)=4+3+2, N(3)=4+3+2+1.
        let san = path_graph(4);
        let adj: Vec<Vec<u32>> = san
            .social_nodes()
            .map(|u| san.out_neighbors(u).iter().map(|v| v.0).collect())
            .collect();
        let init = vec![true; 4];
        let nf = neighborhood_function(&adj, &init, &init, 10, 64, 42);
        assert_eq!(nf.len(), 4);
        let expect = [4.0, 7.0, 9.0, 10.0];
        for (t, &e) in expect.iter().enumerate() {
            assert!(
                (nf[t] - e).abs() / e < 0.12,
                "t={t} nf={} expect={e}",
                nf[t]
            );
        }
    }

    #[test]
    fn effective_diameter_path() {
        // Undirected-style double path to have symmetric distances.
        let mut san = path_graph(11);
        let ids: Vec<SocialId> = san.social_nodes().collect();
        for i in 0..10 {
            san.add_social_link(ids[i + 1], ids[i]);
        }
        let d = social_effective_diameter(&san, 1.0, 10, 1);
        // Max distance is 10; q=1.0 should approach it.
        assert!((8.0..=10.5).contains(&d), "d={d}");
        let d90 = social_effective_diameter(&san, 0.9, 10, 1);
        assert!(d90 <= d, "d90={d90} d={d}");
        assert!(d90 >= 5.0, "d90={d90}");
    }

    #[test]
    fn effective_diameter_from_nf_interpolates() {
        // Hand-made NF: base 10 self-pairs, then 10 pairs at distance 1,
        // 10 more at distance 2.
        let nf = [10.0, 20.0, 30.0];
        assert!((effective_diameter_from_nf(&nf, 0.5) - 1.0).abs() < 1e-12);
        assert!((effective_diameter_from_nf(&nf, 0.75) - 1.5).abs() < 1e-12);
        assert!((effective_diameter_from_nf(&nf, 1.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn effective_diameter_degenerate_inputs() {
        assert_eq!(effective_diameter_from_nf(&[5.0], 0.9), 0.0);
        assert_eq!(effective_diameter_from_nf(&[5.0, 5.0], 0.9), 0.0);
    }

    #[test]
    fn clique_diameter_is_one() {
        let mut san = San::new();
        let ids: Vec<SocialId> = (0..6).map(|_| san.add_social_node()).collect();
        for &a in &ids {
            for &b in &ids {
                if a != b {
                    san.add_social_link(a, b);
                }
            }
        }
        let d = social_effective_diameter(&san, 0.9, 10, 5);
        assert!((d - 1.0).abs() < 0.25, "d={d}");
    }

    #[test]
    fn attribute_diameter_two_attrs_shared_member() {
        // a and b share member u: attribute distance should be ~1
        // (min dist(u,u)=0, +1).
        let mut san = San::new();
        let u = san.add_social_node();
        let v = san.add_social_node();
        san.add_social_link(u, v);
        let a = san.add_attr_node(san_graph::AttrType::City);
        let b = san.add_attr_node(san_graph::AttrType::School);
        san.add_attr_link(u, a);
        san.add_attr_link(u, b);
        let d = attribute_effective_diameter(&san, 1.0, 10, 9);
        assert!((d - 1.0).abs() < 0.3, "d={d}");
    }

    #[test]
    fn attribute_diameter_follows_social_distance() {
        // Chain u0->u1->u2->u3; attr a on u0, attr b on u3:
        // attribute distance = dist(u0,u3)+1 = 4.
        let mut san = path_graph(4);
        let a = san.add_attr_node(san_graph::AttrType::City);
        let b = san.add_attr_node(san_graph::AttrType::School);
        san.add_attr_link(SocialId(0), a);
        san.add_attr_link(SocialId(3), b);
        let d = attribute_effective_diameter(&san, 1.0, 10, 11);
        assert!(d > 2.5 && d < 4.5, "d={d}");
    }

    #[test]
    fn attribute_diameter_no_attrs() {
        let san = path_graph(3);
        assert_eq!(attribute_effective_diameter(&san, 0.9, 8, 1), 0.0);
    }

    #[test]
    fn sharded_nf_and_diameter_bit_identical() {
        // A random-ish graph with reciprocal edges and a few components.
        let mut san = San::new();
        let ids: Vec<SocialId> = (0..60).map(|_| san.add_social_node()).collect();
        for i in 0..59 {
            san.add_social_link(ids[i], ids[i + 1]);
            if i % 3 == 0 {
                san.add_social_link(ids[i + 1], ids[i]);
            }
            if i % 7 == 0 && i + 5 < 60 {
                san.add_social_link(ids[i], ids[i + 5]);
            }
        }
        let csr = san.freeze();
        let seq_d = social_effective_diameter(&csr, 0.9, 8, 42);
        let adj: Vec<Vec<u32>> = (0..60u32)
            .map(|u| {
                san_graph::SanRead::out_neighbors(&csr, SocialId(u))
                    .iter()
                    .map(|v| v.0)
                    .collect()
            })
            .collect();
        let init = vec![true; 60];
        let seq_nf = neighborhood_function(&adj, &init, &init, 8, 256, 42);
        for k in [1usize, 2, 3, 7] {
            let sharded = san_graph::ShardedCsrSan::from_csr(csr.clone(), k);
            let nf = neighborhood_function_sharded(&sharded, 8, 256, 42);
            assert_eq!(nf, seq_nf, "k={k}");
            let d = social_effective_diameter_sharded(&sharded, 0.9, 8, 42);
            assert_eq!(d, seq_d, "k={k}");
        }
    }

    #[test]
    fn sharded_nf_empty_graph() {
        let sharded = san_graph::ShardedCsrSan::from_csr(San::new().freeze(), 4);
        assert_eq!(neighborhood_function_sharded(&sharded, 8, 64, 1), vec![0.0]);
        assert_eq!(social_effective_diameter_sharded(&sharded, 0.9, 8, 1), 0.0);
    }

    #[test]
    fn sampled_histogram_matches_path() {
        let san = path_graph(5);
        let mut rng = SplitRng::new(13);
        // Sample all nodes (num_sources = n) -> exact directed histogram.
        let hist = sampled_distance_histogram(&san, 5, &mut rng);
        // Directed path of 5: distances 1:4, 2:3, 3:2, 4:1 (sampling with
        // replacement may repeat sources, so check support only).
        assert!(hist.len() <= 5);
        assert!(hist.iter().skip(1).any(|&c| c > 0));
    }

    #[test]
    fn nf_disconnected_pairs_never_counted() {
        // Two disconnected cliques of 3: N(inf) = 2 * (3 + 3*2) = 18.
        let mut san = San::new();
        let ids: Vec<SocialId> = (0..6).map(|_| san.add_social_node()).collect();
        for group in [&ids[..3], &ids[3..]] {
            for &a in group {
                for &b in group {
                    if a != b {
                        san.add_social_link(a, b);
                    }
                }
            }
        }
        let adj: Vec<Vec<u32>> = san
            .social_nodes()
            .map(|u| san.out_neighbors(u).iter().map(|v| v.0).collect())
            .collect();
        let init = vec![true; 6];
        let nf = neighborhood_function(&adj, &init, &init, 10, 64, 3);
        let last = *nf.last().unwrap();
        assert!((last - 18.0).abs() / 18.0 < 0.12, "last={last}");
    }
}
