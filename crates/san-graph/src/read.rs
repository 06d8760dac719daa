//! [`SanRead`]: the read-only view every analytic is written against.
//!
//! The paper's pipeline is write-once, read-many: the crawler/timeline
//! builds 79 daily snapshots (§2.2), after which every measurement in
//! §3–§6 only *reads* them. This trait captures exactly the read surface —
//! node/link counts, the `Γs,out/Γs,in/Γs/Γa` neighbourhoods of §2.1,
//! membership tests, and attribute types — so the same metric code runs
//! against the mutable [`San`](crate::San) adjacency lists *and* the
//! frozen, cache-friendly [`CsrSan`](crate::CsrSan) snapshots.
//!
//! Only the nine accessor methods are required; everything else has a
//! default implementation in terms of them. Implementations with better
//! representations (sorted CSR rows, precomputed unions) override the
//! defaults — see [`CsrSan`](crate::CsrSan).
//!
//! Implementations may also narrow the *iteration* surface to a node
//! range: [`CsrShard`](crate::shard::CsrShard) overrides
//! [`SanRead::social_nodes`] / [`SanRead::social_links`] /
//! [`SanRead::attr_nodes`] / [`SanRead::attr_links`] (and the two link
//! counters) to cover only the shard it owns, while every query *by id*
//! still sees the whole snapshot. Per-node sweeps written against this
//! trait then decompose across shards for free: run the sweep on each
//! shard, merge the partials.

use crate::ids::{AttrId, AttrType, SocialId};
use std::borrow::Cow;
use std::collections::HashSet;

/// Read-only access to a Social-Attribute Network.
///
/// # Mirror contract
///
/// `in_neighbors` mirrors `out_neighbors` exactly: `v` appears in
/// `Γs,in(u)` as many times as `u` appears in `Γs,out(v)`, self-loops and
/// duplicate arcs included. Likewise `members_of(a)` lists `u` iff
/// `attrs_of(u)` lists `a`. Analytics may answer "does `v → u` exist?"
/// from either side; global reciprocity, for one, reads it off
/// `Γs,in(u)` instead of searching `Γs,out(v)`.
pub trait SanRead {
    // ------------------------------------------------------------------
    // Required accessors
    // ------------------------------------------------------------------

    /// Number of social nodes `|Vs|`.
    fn num_social_nodes(&self) -> usize;

    /// Number of attribute nodes `|Va|`.
    fn num_attr_nodes(&self) -> usize;

    /// Number of directed social links `|Es|`.
    fn num_social_links(&self) -> usize;

    /// Number of undirected attribute links `|Ea|`.
    fn num_attr_links(&self) -> usize;

    /// `Γs,out(u)` — outgoing social neighbours.
    fn out_neighbors(&self, u: SocialId) -> &[SocialId];

    /// `Γs,in(u)` — incoming social neighbours.
    fn in_neighbors(&self, u: SocialId) -> &[SocialId];

    /// `Γa(u)` — attribute neighbours of a social node.
    fn attrs_of(&self, u: SocialId) -> &[AttrId];

    /// Social members of an attribute node.
    fn members_of(&self, a: AttrId) -> &[SocialId];

    /// Type of an attribute node.
    fn attr_type(&self, a: AttrId) -> AttrType;

    // ------------------------------------------------------------------
    // Degrees
    // ------------------------------------------------------------------

    /// Out-degree of a social node.
    #[inline]
    fn out_degree(&self, u: SocialId) -> usize {
        self.out_neighbors(u).len()
    }

    /// In-degree of a social node.
    #[inline]
    fn in_degree(&self, u: SocialId) -> usize {
        self.in_neighbors(u).len()
    }

    /// Attribute degree of a social node (`|Γa(u)|`).
    #[inline]
    fn attr_degree(&self, u: SocialId) -> usize {
        self.attrs_of(u).len()
    }

    /// Social degree of an attribute node (number of members).
    #[inline]
    fn social_degree_of_attr(&self, a: AttrId) -> usize {
        self.members_of(a).len()
    }

    // ------------------------------------------------------------------
    // Membership
    // ------------------------------------------------------------------

    /// True when the directed link `src → dst` exists.
    ///
    /// The default scans the shorter of `Γs,out(src)` and `Γs,in(dst)`;
    /// sorted representations override with binary search.
    fn has_social_link(&self, src: SocialId, dst: SocialId) -> bool {
        let out = self.out_neighbors(src);
        let inc = self.in_neighbors(dst);
        if out.len() <= inc.len() {
            out.contains(&dst)
        } else {
            inc.contains(&src)
        }
    }

    /// True when the attribute link `user — attr` exists.
    fn has_attr_link(&self, user: SocialId, attr: AttrId) -> bool {
        let ua = self.attrs_of(user);
        let am = self.members_of(attr);
        if ua.len() <= am.len() {
            ua.contains(&attr)
        } else {
            am.contains(&user)
        }
    }

    // ------------------------------------------------------------------
    // Combined neighbourhoods
    // ------------------------------------------------------------------

    /// `Γs(u)` — the undirected social neighbourhood (union of in- and
    /// out-neighbours), sorted and deduplicated.
    ///
    /// Returned as [`Cow`] so representations that precompute the union
    /// (e.g. [`CsrSan`](crate::CsrSan)) can hand out a borrowed slice with
    /// zero allocation, while the default materialises it on demand.
    fn social_neighbors(&self, u: SocialId) -> Cow<'_, [SocialId]> {
        let mut v: Vec<SocialId> = self
            .out_neighbors(u)
            .iter()
            .chain(self.in_neighbors(u))
            .copied()
            .collect();
        v.sort_unstable();
        v.dedup();
        Cow::Owned(v)
    }

    /// Number of common attributes `a(u, v)` shared by two social nodes —
    /// the attribute-affinity term of the LAPA/PAPA attachment models
    /// (§5.1).
    fn common_attrs(&self, u: SocialId, v: SocialId) -> usize {
        let (small, large) = if self.attr_degree(u) <= self.attr_degree(v) {
            (self.attrs_of(u), self.attrs_of(v))
        } else {
            (self.attrs_of(v), self.attrs_of(u))
        };
        if large.len() <= 8 {
            // Tiny lists: quadratic scan beats hashing.
            return small.iter().filter(|a| large.contains(a)).count();
        }
        let set: HashSet<AttrId> = large.iter().copied().collect();
        small.iter().filter(|a| set.contains(a)).count()
    }

    /// Number of common *undirected* social neighbours of two social nodes
    /// (the fine-grained reciprocity feature, §4.2).
    fn common_social_neighbors(&self, u: SocialId, v: SocialId) -> usize {
        let nu = self.social_neighbors(u);
        let nv = self.social_neighbors(v);
        let (small, large) = if nu.len() <= nv.len() {
            (&nu, &nv)
        } else {
            (&nv, &nu)
        };
        let set: HashSet<SocialId> = large.iter().copied().collect();
        small
            .iter()
            .filter(|w| **w != u && **w != v && set.contains(w))
            .count()
    }

    // ------------------------------------------------------------------
    // Iteration
    // ------------------------------------------------------------------

    /// Iterates over all social node ids.
    fn social_nodes(&self) -> impl Iterator<Item = SocialId> + '_ {
        (0..self.num_social_nodes() as u32).map(SocialId)
    }

    /// Iterates over all attribute node ids.
    fn attr_nodes(&self) -> impl Iterator<Item = AttrId> + '_ {
        (0..self.num_attr_nodes() as u32).map(AttrId)
    }

    /// Iterates over all directed social links `(src, dst)`.
    fn social_links(&self) -> impl Iterator<Item = (SocialId, SocialId)> + '_ {
        (0..self.num_social_nodes() as u32).flat_map(move |u| {
            let u = SocialId(u);
            self.out_neighbors(u).iter().map(move |&v| (u, v))
        })
    }

    /// Iterates over all attribute links `(user, attr)`.
    fn attr_links(&self) -> impl Iterator<Item = (SocialId, AttrId)> + '_ {
        (0..self.num_social_nodes() as u32).flat_map(move |u| {
            let u = SocialId(u);
            self.attrs_of(u).iter().map(move |&a| (u, a))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::figure1;
    use crate::san::San;

    /// A minimal hand-rolled implementation exercising every default.
    struct Tiny {
        out: Vec<Vec<SocialId>>,
        inc: Vec<Vec<SocialId>>,
        ua: Vec<Vec<AttrId>>,
        am: Vec<Vec<SocialId>>,
        types: Vec<AttrType>,
    }

    impl SanRead for Tiny {
        fn num_social_nodes(&self) -> usize {
            self.out.len()
        }
        fn num_attr_nodes(&self) -> usize {
            self.am.len()
        }
        fn num_social_links(&self) -> usize {
            self.out.iter().map(Vec::len).sum()
        }
        fn num_attr_links(&self) -> usize {
            self.ua.iter().map(Vec::len).sum()
        }
        fn out_neighbors(&self, u: SocialId) -> &[SocialId] {
            &self.out[u.index()]
        }
        fn in_neighbors(&self, u: SocialId) -> &[SocialId] {
            &self.inc[u.index()]
        }
        fn attrs_of(&self, u: SocialId) -> &[AttrId] {
            &self.ua[u.index()]
        }
        fn members_of(&self, a: AttrId) -> &[SocialId] {
            &self.am[a.index()]
        }
        fn attr_type(&self, a: AttrId) -> AttrType {
            self.types[a.index()]
        }
    }

    fn tiny() -> Tiny {
        // u0 -> u1, u1 -> u0, u0 -> u2; attrs: a0 {u0, u1}, a1 {u1}.
        Tiny {
            out: vec![vec![SocialId(1), SocialId(2)], vec![SocialId(0)], vec![]],
            inc: vec![vec![SocialId(1)], vec![SocialId(0)], vec![SocialId(0)]],
            ua: vec![vec![AttrId(0)], vec![AttrId(0), AttrId(1)], vec![]],
            am: vec![vec![SocialId(0), SocialId(1)], vec![SocialId(1)]],
            types: vec![AttrType::Employer, AttrType::City],
        }
    }

    #[test]
    fn defaults_compute_from_required_methods() {
        let g = tiny();
        assert_eq!(g.out_degree(SocialId(0)), 2);
        assert_eq!(g.in_degree(SocialId(2)), 1);
        assert_eq!(g.attr_degree(SocialId(1)), 2);
        assert_eq!(g.social_degree_of_attr(AttrId(0)), 2);
        assert!(g.has_social_link(SocialId(0), SocialId(1)));
        assert!(!g.has_social_link(SocialId(2), SocialId(0)));
        assert!(g.has_attr_link(SocialId(1), AttrId(1)));
        assert!(!g.has_attr_link(SocialId(2), AttrId(0)));
        assert_eq!(
            g.social_neighbors(SocialId(0)).as_ref(),
            &[SocialId(1), SocialId(2)]
        );
        assert_eq!(g.common_attrs(SocialId(0), SocialId(1)), 1);
        assert_eq!(g.social_links().count(), 3);
        assert_eq!(g.attr_links().count(), 3);
        assert_eq!(g.social_nodes().count(), 3);
        assert_eq!(g.attr_nodes().count(), 2);
    }

    /// A generic helper usable with any implementation — the migration
    /// pattern every analytic crate follows.
    fn density_generic(g: &impl SanRead) -> f64 {
        g.num_social_links() as f64 / g.num_social_nodes().max(1) as f64
    }

    #[test]
    fn generic_functions_accept_both_san_and_custom_impls() {
        let fx = figure1();
        assert!((density_generic(&fx.san) - 5.0 / 6.0).abs() < 1e-12);
        assert!((density_generic(&tiny()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn san_trait_view_agrees_with_inherent_api() {
        let fx = figure1();
        let san: &San = &fx.san;
        fn links_via_trait(g: &impl SanRead) -> usize {
            g.social_links().count()
        }
        assert_eq!(links_via_trait(san), san.num_social_links());
        fn gamma_s(g: &impl SanRead, u: SocialId) -> Vec<SocialId> {
            g.social_neighbors(u).into_owned()
        }
        for u in 0..6u32 {
            assert_eq!(
                gamma_s(san, SocialId(u)),
                San::social_neighbors(san, SocialId(u))
            );
        }
    }
}
