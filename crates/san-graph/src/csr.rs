//! [`CsrSan`]: an immutable compressed-sparse-row snapshot of a SAN.
//!
//! The measurement half of the paper never mutates a snapshot, so the
//! growable layout of [`San`] pays for flexibility it does not use: its
//! rows share one arena per adjacency kind, but each is a
//! `(start, len, cap)` span that may sit anywhere in it (with dead space
//! and spare room between rows until [`San::shrink_to_fit`]), and rows
//! are in insertion order, so membership is a linear scan. `CsrSan`
//! freezes a snapshot into four CSR structures
//! (out, in, user→attr, attr→user) plus a precomputed undirected union
//! `Γs(u)`, each a pair of flat arrays:
//!
//! * neighbour rows are **contiguous and sorted** — iteration is
//!   cache-friendly and membership is a binary search,
//! * `Γs(u)` is **zero-allocation** (the mutable path materialises a `Vec`
//!   per call),
//! * the whole snapshot is a handful of `Vec`s, so it is `Send + Sync` for
//!   free — per-day metric sweeps can fan out across threads sharing one
//!   frozen snapshot.
//!
//! Freeze any read view with [`CsrSan::from_read`] (or the conveniences
//! [`San::freeze`] and
//! [`SanTimeline::snapshot_csr`](crate::evolve::SanTimeline::snapshot_csr)),
//! then hand it to any function generic over [`SanRead`].

use crate::ids::{AttrId, AttrType, SocialId};
use crate::read::SanRead;
use crate::san::San;
use std::borrow::Cow;

/// An immutable, cache-friendly SAN snapshot in CSR form.
///
/// Fields are `pub(crate)` so [`crate::delta::DeltaFreezer`] can patch a
/// snapshot with new events without a full re-freeze.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrSan {
    pub(crate) out_off: Vec<u32>,
    pub(crate) out_dst: Vec<SocialId>,
    pub(crate) in_off: Vec<u32>,
    pub(crate) in_src: Vec<SocialId>,
    pub(crate) ua_off: Vec<u32>,
    pub(crate) ua_attr: Vec<AttrId>,
    pub(crate) am_off: Vec<u32>,
    pub(crate) am_user: Vec<SocialId>,
    /// Precomputed sorted `Γs(u)` (undirected union of out and in).
    pub(crate) und_off: Vec<u32>,
    pub(crate) und_nbr: Vec<SocialId>,
    pub(crate) attr_types: Vec<AttrType>,
    pub(crate) num_social_links: usize,
    pub(crate) num_attr_links: usize,
}

/// Builds one CSR from per-row sorted data produced by `row_of`.
fn build_csr<I, T: Copy + Ord>(
    rows: usize,
    total_hint: usize,
    mut row_of: impl FnMut(usize) -> I,
) -> (Vec<u32>, Vec<T>)
where
    I: Iterator<Item = T>,
{
    let mut off = Vec::with_capacity(rows + 1);
    let mut data: Vec<T> = Vec::with_capacity(total_hint);
    off.push(0u32);
    for i in 0..rows {
        let start = data.len();
        data.extend(row_of(i));
        data[start..].sort_unstable();
        assert!(
            data.len() <= u32::MAX as usize,
            "CSR offsets overflow u32 (more than 4.29e9 links)"
        );
        off.push(data.len() as u32);
    }
    (off, data)
}

#[inline]
pub(crate) fn row<'a, T>(off: &[u32], data: &'a [T], i: usize) -> &'a [T] {
    &data[off[i] as usize..off[i + 1] as usize]
}

/// Counts elements common to two sorted, deduplicated slices.
pub(crate) fn sorted_intersection_count<T: Copy + Ord>(a: &[T], b: &[T]) -> usize {
    // Galloping when the sizes are lopsided, two-pointer merge otherwise.
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.is_empty() {
        return 0;
    }
    if large.len() / small.len().max(1) >= 16 {
        return small
            .iter()
            .filter(|x| large.binary_search(x).is_ok())
            .count();
    }
    let mut count = 0;
    let (mut i, mut j) = (0, 0);
    while i < small.len() && j < large.len() {
        match small[i].cmp(&large[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

impl CsrSan {
    /// Freezes any read view into CSR form.
    pub fn from_read(g: &(impl SanRead + ?Sized)) -> CsrSan {
        let n = g.num_social_nodes();
        let m = g.num_attr_nodes();
        let es = g.num_social_links();
        let ea = g.num_attr_links();
        let (out_off, out_dst) = build_csr(n, es, |i| {
            g.out_neighbors(SocialId(i as u32)).iter().copied()
        });
        let (in_off, in_src) = build_csr(n, es, |i| {
            g.in_neighbors(SocialId(i as u32)).iter().copied()
        });
        let (ua_off, ua_attr) =
            build_csr(n, ea, |i| g.attrs_of(SocialId(i as u32)).iter().copied());
        let (am_off, am_user) =
            build_csr(m, ea, |i| g.members_of(AttrId(i as u32)).iter().copied());
        // Undirected union from the already-sorted out/in rows.
        let mut und_off = Vec::with_capacity(n + 1);
        let mut und_nbr: Vec<SocialId> = Vec::new();
        und_off.push(0u32);
        for i in 0..n {
            let o = row(&out_off, &out_dst, i);
            let inc = row(&in_off, &in_src, i);
            let (mut a, mut b) = (0, 0);
            // Sorted-merge union; the (None, None) arm doubles as the
            // loop exit so no arm needs to be unreachable.
            loop {
                let next = match (o.get(a), inc.get(b)) {
                    (Some(&x), Some(&y)) if x == y => {
                        a += 1;
                        b += 1;
                        x
                    }
                    (Some(&x), Some(&y)) if x < y => {
                        a += 1;
                        x
                    }
                    (Some(_), Some(&y)) => {
                        b += 1;
                        y
                    }
                    (Some(&x), None) => {
                        a += 1;
                        x
                    }
                    (None, Some(&y)) => {
                        b += 1;
                        y
                    }
                    (None, None) => break,
                };
                und_nbr.push(next);
            }
            assert!(
                und_nbr.len() <= u32::MAX as usize,
                "CSR offsets overflow u32"
            );
            und_off.push(und_nbr.len() as u32);
        }
        let attr_types = (0..m as u32).map(|a| g.attr_type(AttrId(a))).collect();
        CsrSan {
            out_off,
            out_dst,
            in_off,
            in_src,
            ua_off,
            ua_attr,
            am_off,
            am_user,
            und_off,
            und_nbr,
            attr_types,
            num_social_links: es,
            num_attr_links: ea,
        }
    }

    /// The precomputed sorted undirected neighbourhood `Γs(u)` as a
    /// borrowed slice (what [`SanRead::social_neighbors`] hands out without
    /// allocating).
    #[inline]
    pub fn undirected_neighbors(&self, u: SocialId) -> &[SocialId] {
        row(&self.und_off, &self.und_nbr, u.index())
    }

    /// Undirected degree `|Γs(u)|` in O(1).
    #[inline]
    pub fn undirected_degree(&self, u: SocialId) -> usize {
        self.undirected_neighbors(u).len()
    }

    /// Approximate heap footprint in bytes, used for capacity planning in
    /// benches and by the sharding layer
    /// ([`ShardedCsrSan::shard_bytes`](crate::shard::ShardedCsrSan::shard_bytes)).
    ///
    /// Every flat array of the snapshot is accounted for — the five offset
    /// tables, the four social-id payloads (out, in, membership,
    /// undirected), the attribute column, and the attribute-type table; the
    /// `heap_bytes_sums_every_array` test recomputes the total from the
    /// individual arrays so a future field can't silently go unmetered.
    ///
    /// The store path keeps this audit exact:
    /// [`CsrSan::from_store_bytes`] copies each column into an
    /// exactly-sized allocation and retains no staging buffers, so a
    /// snapshot loaded from disk reports the same `heap_bytes` as the one
    /// that was written (the audit test round-trips through the store to
    /// prove it); for the on-disk counterpart see
    /// [`SnapshotVault::disk_bytes`](crate::store::SnapshotVault::disk_bytes).
    pub fn heap_bytes(&self) -> usize {
        fn bytes_of<T>(v: &[T]) -> usize {
            std::mem::size_of_val(v)
        }
        // Offset tables (u32 each, one sentinel slot per table).
        bytes_of(&self.out_off)
            + bytes_of(&self.in_off)
            + bytes_of(&self.ua_off)
            + bytes_of(&self.am_off)
            + bytes_of(&self.und_off)
            // Social-id payload rows.
            + bytes_of(&self.out_dst)
            + bytes_of(&self.in_src)
            + bytes_of(&self.am_user)
            + bytes_of(&self.und_nbr)
            // Attribute column and type table.
            + bytes_of(&self.ua_attr)
            + bytes_of(&self.attr_types)
    }
}

impl From<&San> for CsrSan {
    fn from(san: &San) -> CsrSan {
        CsrSan::from_read(san)
    }
}

impl SanRead for CsrSan {
    #[inline]
    fn num_social_nodes(&self) -> usize {
        self.out_off.len() - 1
    }

    #[inline]
    fn num_attr_nodes(&self) -> usize {
        self.am_off.len() - 1
    }

    #[inline]
    fn num_social_links(&self) -> usize {
        self.num_social_links
    }

    #[inline]
    fn num_attr_links(&self) -> usize {
        self.num_attr_links
    }

    #[inline]
    fn out_neighbors(&self, u: SocialId) -> &[SocialId] {
        row(&self.out_off, &self.out_dst, u.index())
    }

    #[inline]
    fn in_neighbors(&self, u: SocialId) -> &[SocialId] {
        row(&self.in_off, &self.in_src, u.index())
    }

    #[inline]
    fn attrs_of(&self, u: SocialId) -> &[AttrId] {
        row(&self.ua_off, &self.ua_attr, u.index())
    }

    #[inline]
    fn members_of(&self, a: AttrId) -> &[SocialId] {
        row(&self.am_off, &self.am_user, a.index())
    }

    #[inline]
    fn attr_type(&self, a: AttrId) -> AttrType {
        self.attr_types[a.index()]
    }

    /// Binary search on the shorter of the two sorted rows.
    fn has_social_link(&self, src: SocialId, dst: SocialId) -> bool {
        let out = self.out_neighbors(src);
        let inc = self.in_neighbors(dst);
        if out.len() <= inc.len() {
            out.binary_search(&dst).is_ok()
        } else {
            inc.binary_search(&src).is_ok()
        }
    }

    fn has_attr_link(&self, user: SocialId, attr: AttrId) -> bool {
        let ua = self.attrs_of(user);
        let am = self.members_of(attr);
        if ua.len() <= am.len() {
            ua.binary_search(&attr).is_ok()
        } else {
            am.binary_search(&user).is_ok()
        }
    }

    /// Zero-allocation: borrows the precomputed union row.
    #[inline]
    fn social_neighbors(&self, u: SocialId) -> Cow<'_, [SocialId]> {
        Cow::Borrowed(self.undirected_neighbors(u))
    }

    /// Sorted-merge intersection (no hashing).
    fn common_attrs(&self, u: SocialId, v: SocialId) -> usize {
        sorted_intersection_count(self.attrs_of(u), self.attrs_of(v))
    }

    /// Sorted-merge intersection of the precomputed unions, excluding the
    /// endpoints themselves.
    fn common_social_neighbors(&self, u: SocialId, v: SocialId) -> usize {
        let nu = self.undirected_neighbors(u);
        let nv = self.undirected_neighbors(v);
        let mut count = sorted_intersection_count(nu, nv);
        // Remove u/v themselves when both rows contain them.
        for x in [u, v] {
            if nu.binary_search(&x).is_ok() && nv.binary_search(&x).is_ok() {
                count -= 1;
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::figure1;
    use san_stats::SplitRng;

    const fn assert_send_sync<T: Send + Sync>() {}
    const _: () = assert_send_sync::<CsrSan>();

    fn random_san(n: u32, links: usize, attrs: u32, attr_links: usize, seed: u64) -> San {
        let mut rng = SplitRng::new(seed);
        let mut san = San::new();
        for _ in 0..n {
            san.add_social_node();
        }
        for i in 0..attrs {
            san.add_attr_node(AttrType::PAPER_TYPES[(i % 4) as usize]);
        }
        for _ in 0..links {
            let u = SocialId(rng.below(n as u64) as u32);
            let v = SocialId(rng.below(n as u64) as u32);
            if u != v {
                san.add_social_link(u, v);
            }
        }
        for _ in 0..attr_links {
            let u = SocialId(rng.below(n as u64) as u32);
            let a = AttrId(rng.below(attrs as u64) as u32);
            san.add_attr_link(u, a);
        }
        san
    }

    /// Exhaustive agreement between a San and its frozen snapshot.
    fn assert_agrees(san: &San, csr: &CsrSan) {
        assert_eq!(csr.num_social_nodes(), san.num_social_nodes());
        assert_eq!(csr.num_attr_nodes(), san.num_attr_nodes());
        assert_eq!(SanRead::num_social_links(csr), san.num_social_links());
        assert_eq!(SanRead::num_attr_links(csr), san.num_attr_links());
        for u in San::social_nodes(san) {
            let mut expect: Vec<SocialId> = san.out_neighbors(u).to_vec();
            expect.sort_unstable();
            assert_eq!(SanRead::out_neighbors(csr, u), expect.as_slice());
            let mut expect: Vec<SocialId> = san.in_neighbors(u).to_vec();
            expect.sort_unstable();
            assert_eq!(SanRead::in_neighbors(csr, u), expect.as_slice());
            let mut expect: Vec<AttrId> = san.attrs_of(u).to_vec();
            expect.sort_unstable();
            assert_eq!(SanRead::attrs_of(csr, u), expect.as_slice());
            assert_eq!(
                csr.undirected_neighbors(u),
                San::social_neighbors(san, u).as_slice()
            );
            assert_eq!(SanRead::out_degree(csr, u), san.out_degree(u));
            assert_eq!(SanRead::in_degree(csr, u), san.in_degree(u));
            assert_eq!(SanRead::attr_degree(csr, u), san.attr_degree(u));
        }
        for a in San::attr_nodes(san) {
            let mut expect: Vec<SocialId> = san.members_of(a).to_vec();
            expect.sort_unstable();
            assert_eq!(SanRead::members_of(csr, a), expect.as_slice());
            assert_eq!(SanRead::attr_type(csr, a), san.attr_type(a));
        }
        for u in San::social_nodes(san) {
            for v in San::social_nodes(san) {
                assert_eq!(
                    SanRead::has_social_link(csr, u, v),
                    san.has_social_link(u, v),
                    "{u}->{v}"
                );
                assert_eq!(
                    SanRead::common_attrs(csr, u, v),
                    san.common_attrs(u, v),
                    "common_attrs {u},{v}"
                );
                assert_eq!(
                    SanRead::common_social_neighbors(csr, u, v),
                    san.common_social_neighbors(u, v),
                    "common_social {u},{v}"
                );
            }
            for a in San::attr_nodes(san) {
                assert_eq!(SanRead::has_attr_link(csr, u, a), san.has_attr_link(u, a));
            }
        }
        use std::collections::BTreeSet;
        assert_eq!(
            SanRead::social_links(csr).collect::<BTreeSet<_>>(),
            San::social_links(san).collect::<BTreeSet<_>>()
        );
        assert_eq!(
            SanRead::attr_links(csr).collect::<BTreeSet<_>>(),
            San::attr_links(san).collect::<BTreeSet<_>>()
        );
    }

    #[test]
    fn figure1_freeze_agrees_everywhere() {
        let fx = figure1();
        assert_agrees(&fx.san, &fx.san.freeze());
    }

    #[test]
    fn random_san_freeze_agrees_everywhere() {
        for seed in 0..4 {
            let san = random_san(30, 120, 6, 40, seed);
            assert_agrees(&san, &san.freeze());
        }
    }

    #[test]
    fn empty_san_freezes() {
        let csr = San::new().freeze();
        assert_eq!(csr.num_social_nodes(), 0);
        assert_eq!(csr.num_attr_nodes(), 0);
        assert_eq!(SanRead::social_links(&csr).count(), 0);
    }

    #[test]
    fn refreeze_is_identity() {
        let san = random_san(20, 60, 4, 20, 9);
        let once = san.freeze();
        let twice = CsrSan::from_read(&once);
        assert_eq!(once, twice);
    }

    #[test]
    fn heap_bytes_reports_something_sane() {
        let san = random_san(50, 300, 8, 60, 3);
        let csr = san.freeze();
        let bytes = csr.heap_bytes();
        // At minimum the payload arrays exist: 2 * links * 4 bytes.
        assert!(bytes >= 2 * SanRead::num_social_links(&csr) * 4);
        assert!(bytes < 1 << 20);
    }

    /// Audit: `heap_bytes` equals the independently-summed sizes of every
    /// flat array the struct holds, derived from the public counts — so the
    /// accounting breaks loudly if an array is added without metering it.
    #[test]
    fn heap_bytes_sums_every_array() {
        use std::mem::size_of;
        let san = random_san(40, 250, 6, 70, 8);
        let csr = san.freeze();
        let n = csr.num_social_nodes();
        let m = csr.num_attr_nodes();
        let es = SanRead::num_social_links(&csr);
        let ea = SanRead::num_attr_links(&csr);
        let und: usize = (0..n as u32)
            .map(|u| csr.undirected_degree(SocialId(u)))
            .sum();
        let offsets = 4 * (n + 1) + (m + 1); // out/in/ua/und + am tables
        let social_payload = es /* out_dst */ + es /* in_src */ + ea /* am_user */ + und;
        let expect = offsets * size_of::<u32>()
            + social_payload * size_of::<SocialId>()
            + ea * size_of::<AttrId>() /* ua_attr */
            + m * size_of::<AttrType>();
        assert_eq!(csr.heap_bytes(), expect);
        // The same audit holds across the store path: a snapshot loaded
        // back from its serialised bytes owns exactly the same arrays —
        // no capacity slack, no retained staging allocation.
        let loaded = CsrSan::from_store_bytes(&csr.to_store_bytes()).expect("store roundtrip");
        assert_eq!(loaded.heap_bytes(), expect);
    }

    #[test]
    fn snapshot_is_shareable_across_threads() {
        let san = random_san(60, 400, 6, 80, 5);
        let csr = san.freeze();
        let degrees: Vec<usize> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let csr = &csr; // shared by reference: Sync
                    scope.spawn(move || {
                        SanRead::social_nodes(csr)
                            .skip(t)
                            .step_by(4)
                            .map(|u| SanRead::out_degree(csr, u))
                            .sum::<usize>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("no panic"))
                .collect()
        });
        assert_eq!(
            degrees.iter().sum::<usize>(),
            SanRead::num_social_links(&csr)
        );
    }

    #[test]
    fn sorted_intersection_paths() {
        // Two-pointer path.
        assert_eq!(sorted_intersection_count(&[1, 3, 5], &[2, 3, 5, 7]), 2);
        // Galloping path (lopsided sizes).
        let big: Vec<u32> = (0..1000).map(|x| x * 2).collect();
        assert_eq!(sorted_intersection_count(&[4, 5, 500], &big), 2);
        assert_eq!(sorted_intersection_count::<u32>(&[], &big), 0);
    }
}
