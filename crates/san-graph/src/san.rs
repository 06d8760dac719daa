//! The core [`San`] structure: a directed social graph plus an undirected
//! bipartite user–attribute graph, with the neighbourhood queries of §2.1.

use crate::arena::RowArena;
use crate::csr::CsrSan;
use crate::ids::{AttrId, AttrType, SocialId};
use crate::read::SanRead;
use std::collections::HashSet;

/// An in-memory Social-Attribute Network.
///
/// Storage is four adjacency kinds, each row in insertion order:
///
/// * `out[u]` — social nodes `v` with a directed link `u → v`,
/// * `inc[v]` — social nodes `u` with a directed link `u → v` (the mirror of
///   `out`, maintained on every insertion; Google+ exposes both lists and the
///   crawler exploits that, §2.2),
/// * `node_attrs[u]` — attribute nodes linked to social node `u`,
/// * `attr_members[a]` — social nodes linked to attribute node `a`.
///
/// Each kind is one row arena: all of its rows share a single `Vec`, and
/// a row is a `(start, len, cap)` span into it (12 bytes per node and
/// kind). A full row moves to the arena's end with twice the room, so
/// growth costs a handful of large reallocations rather than one heap
/// block per row; the abandoned copies stay as dead space until
/// [`shrink_to_fit`](San::shrink_to_fit) compacts every row into an
/// arena with no spare room.
///
/// Self-loops and duplicate links are rejected by the mutation API; the
/// structure therefore always encodes a simple directed graph plus a simple
/// bipartite graph.
#[derive(Debug, Clone, Default)]
pub struct San {
    out: RowArena<SocialId>,
    inc: RowArena<SocialId>,
    node_attrs: RowArena<AttrId>,
    attr_members: RowArena<SocialId>,
    attr_types: Vec<AttrType>,
    num_social_links: usize,
    num_attr_links: usize,
}

impl San {
    /// Creates an empty SAN.
    pub fn new() -> Self {
        San::default()
    }

    /// Creates an empty SAN with capacity hints for the expected node counts.
    pub fn with_capacity(social: usize, attrs: usize) -> Self {
        San {
            out: RowArena::with_rows(social),
            inc: RowArena::with_rows(social),
            node_attrs: RowArena::with_rows(social),
            attr_members: RowArena::with_rows(attrs),
            attr_types: Vec::with_capacity(attrs),
            num_social_links: 0,
            num_attr_links: 0,
        }
    }

    // ------------------------------------------------------------------
    // Counts
    // ------------------------------------------------------------------

    /// Number of social nodes `|Vs|`.
    #[inline]
    pub fn num_social_nodes(&self) -> usize {
        self.out.rows()
    }

    /// Number of attribute nodes `|Va|`.
    #[inline]
    pub fn num_attr_nodes(&self) -> usize {
        self.attr_members.rows()
    }

    /// Number of directed social links `|Es|`.
    #[inline]
    pub fn num_social_links(&self) -> usize {
        self.num_social_links
    }

    /// Number of undirected attribute links `|Ea|`.
    #[inline]
    pub fn num_attr_links(&self) -> usize {
        self.num_attr_links
    }

    // ------------------------------------------------------------------
    // Mutation
    // ------------------------------------------------------------------

    /// Adds a social node and returns its id (ids are dense, in arrival
    /// order).
    pub fn add_social_node(&mut self) -> SocialId {
        let id = SocialId(self.out.rows() as u32);
        self.out.push_row();
        self.inc.push_row();
        self.node_attrs.push_row();
        id
    }

    /// Adds an attribute node of the given type and returns its id.
    pub fn add_attr_node(&mut self, ty: AttrType) -> AttrId {
        let id = AttrId(self.attr_members.rows() as u32);
        self.attr_members.push_row();
        self.attr_types.push(ty);
        id
    }

    /// Adds the directed social link `src → dst`.
    ///
    /// Returns `false` (and leaves the SAN unchanged) for self-loops and
    /// duplicate links.
    ///
    /// # Panics
    /// Panics if either endpoint does not exist.
    pub fn add_social_link(&mut self, src: SocialId, dst: SocialId) -> bool {
        assert!(src.index() < self.out.rows(), "unknown source {src}");
        assert!(dst.index() < self.out.rows(), "unknown destination {dst}");
        if src == dst || self.has_social_link(src, dst) {
            return false;
        }
        self.push_new_social_link(src, dst);
        true
    }

    /// Appends `src → dst` without the duplicate scan. The caller has
    /// checked both endpoints exist, `src != dst`, and the link is not
    /// already present ([`TimelineBuilder`](crate::TimelineBuilder) knows
    /// that from its sorted `Γs` rows).
    pub(crate) fn push_new_social_link(&mut self, src: SocialId, dst: SocialId) {
        self.out.push(src.index(), dst);
        self.inc.push(dst.index(), src);
        self.num_social_links += 1;
    }

    /// Adds the undirected attribute link `user — attr`.
    ///
    /// Returns `false` (and leaves the SAN unchanged) for duplicates.
    ///
    /// # Panics
    /// Panics if either endpoint does not exist.
    pub fn add_attr_link(&mut self, user: SocialId, attr: AttrId) -> bool {
        assert!(user.index() < self.out.rows(), "unknown user {user}");
        assert!(
            attr.index() < self.attr_members.rows(),
            "unknown attr {attr}"
        );
        if self.has_attr_link(user, attr) {
            return false;
        }
        self.node_attrs.push(user.index(), attr);
        self.attr_members.push(attr.index(), user);
        self.num_attr_links += 1;
        true
    }

    /// Compacts every adjacency row into arenas with no spare room, so the
    /// network costs only its live entries (plus 12 bytes per row). Every
    /// accessor answers exactly as before, and the SAN stays growable: the
    /// next link into a compacted row moves that row to the arena's end.
    pub fn shrink_to_fit(&mut self) {
        self.out.compact();
        self.inc.compact();
        self.node_attrs.compact();
        self.attr_members.compact();
        self.attr_types.shrink_to_fit();
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// True when the directed link `src → dst` exists.
    ///
    /// Scans the shorter of `out[src]` and `inc[dst]`.
    pub fn has_social_link(&self, src: SocialId, dst: SocialId) -> bool {
        let out = self.out.row(src.index());
        let inc = self.inc.row(dst.index());
        if out.len() <= inc.len() {
            out.contains(&dst)
        } else {
            inc.contains(&src)
        }
    }

    /// True when the attribute link `user — attr` exists.
    pub fn has_attr_link(&self, user: SocialId, attr: AttrId) -> bool {
        let ua = self.node_attrs.row(user.index());
        let am = self.attr_members.row(attr.index());
        if ua.len() <= am.len() {
            ua.contains(&attr)
        } else {
            am.contains(&user)
        }
    }

    /// `Γs,out(u)` — outgoing social neighbours, in insertion order.
    #[inline]
    pub fn out_neighbors(&self, u: SocialId) -> &[SocialId] {
        self.out.row(u.index())
    }

    /// `Γs,in(u)` — incoming social neighbours, in insertion order.
    #[inline]
    pub fn in_neighbors(&self, u: SocialId) -> &[SocialId] {
        self.inc.row(u.index())
    }

    /// `Γa(u)` — attribute neighbours of a social node.
    #[inline]
    pub fn attrs_of(&self, u: SocialId) -> &[AttrId] {
        self.node_attrs.row(u.index())
    }

    /// Social neighbours of an attribute node (its "members").
    #[inline]
    pub fn members_of(&self, a: AttrId) -> &[SocialId] {
        self.attr_members.row(a.index())
    }

    /// Type of an attribute node.
    #[inline]
    pub fn attr_type(&self, a: AttrId) -> AttrType {
        self.attr_types[a.index()]
    }

    /// `Γs(u)` — the undirected social neighbourhood of a social node
    /// (union of in- and out-neighbours), sorted and deduplicated.
    pub fn social_neighbors(&self, u: SocialId) -> Vec<SocialId> {
        let mut v: Vec<SocialId> = self
            .out
            .row(u.index())
            .iter()
            .chain(self.inc.row(u.index()))
            .copied()
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Out-degree of a social node.
    #[inline]
    pub fn out_degree(&self, u: SocialId) -> usize {
        self.out.row(u.index()).len()
    }

    /// In-degree of a social node.
    #[inline]
    pub fn in_degree(&self, u: SocialId) -> usize {
        self.inc.row(u.index()).len()
    }

    /// Attribute degree of a social node (`|Γa(u)|`).
    #[inline]
    pub fn attr_degree(&self, u: SocialId) -> usize {
        self.node_attrs.row(u.index()).len()
    }

    /// Social degree of an attribute node (number of members).
    #[inline]
    pub fn social_degree_of_attr(&self, a: AttrId) -> usize {
        self.attr_members.row(a.index()).len()
    }

    /// Number of common attributes `a(u, v)` shared by two social nodes —
    /// the attribute-affinity term of the LAPA/PAPA attachment models (§5.1).
    pub fn common_attrs(&self, u: SocialId, v: SocialId) -> usize {
        let (small, large) = if self.attr_degree(u) <= self.attr_degree(v) {
            (
                self.node_attrs.row(u.index()),
                self.node_attrs.row(v.index()),
            )
        } else {
            (
                self.node_attrs.row(v.index()),
                self.node_attrs.row(u.index()),
            )
        };
        if large.len() <= 8 {
            // Tiny lists: quadratic scan beats hashing.
            return small.iter().filter(|a| large.contains(a)).count();
        }
        let set: HashSet<AttrId> = large.iter().copied().collect();
        small.iter().filter(|a| set.contains(a)).count()
    }

    /// Number of common *undirected* social neighbours of two social nodes
    /// (used by the fine-grained reciprocity analysis, §4.2).
    pub fn common_social_neighbors(&self, u: SocialId, v: SocialId) -> usize {
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
    pub fn social_nodes(&self) -> impl Iterator<Item = SocialId> + '_ {
        (0..self.out.rows() as u32).map(SocialId)
    }

    /// Iterates over all attribute node ids.
    pub fn attr_nodes(&self) -> impl Iterator<Item = AttrId> + '_ {
        (0..self.attr_members.rows() as u32).map(AttrId)
    }

    /// Iterates over all directed social links `(src, dst)`.
    pub fn social_links(&self) -> impl Iterator<Item = (SocialId, SocialId)> + '_ {
        self.out
            .iter()
            .enumerate()
            .flat_map(|(u, outs)| outs.iter().map(move |&v| (SocialId(u as u32), v)))
    }

    /// Iterates over all attribute links `(user, attr)`.
    pub fn attr_links(&self) -> impl Iterator<Item = (SocialId, AttrId)> + '_ {
        self.node_attrs
            .iter()
            .enumerate()
            .flat_map(|(u, attrs)| attrs.iter().map(move |&a| (SocialId(u as u32), a)))
    }

    // ------------------------------------------------------------------
    // Freezing
    // ------------------------------------------------------------------

    /// Freezes the current state into an immutable [`CsrSan`] snapshot:
    /// sorted, contiguous neighbour rows (binary-search membership,
    /// cache-friendly iteration) that are `Send + Sync` for parallel
    /// metric sweeps. The `San` itself is left untouched.
    pub fn freeze(&self) -> CsrSan {
        CsrSan::from_read(self)
    }

    // ------------------------------------------------------------------
    // Internal consistency (used by property tests and debug assertions)
    // ------------------------------------------------------------------

    /// Exhaustively checks the adjacency mirrors and link counters.
    /// Intended for tests; cost is O(V + E).
    pub fn check_consistency(&self) -> Result<(), String> {
        if self.out.rows() != self.inc.rows() || self.out.rows() != self.node_attrs.rows() {
            return Err("social arrays out of sync".into());
        }
        if self.attr_members.rows() != self.attr_types.len() {
            return Err("attribute arrays out of sync".into());
        }
        let mut n_social = 0;
        for (u, outs) in self.out.iter().enumerate() {
            let u_id = SocialId(u as u32);
            for &v in outs {
                n_social += 1;
                if v.index() >= self.out.rows() {
                    return Err(format!("dangling social link {u_id}->{v}"));
                }
                if v == u_id {
                    return Err(format!("self-loop at {u_id}"));
                }
                if !self.inc.row(v.index()).contains(&u_id) {
                    return Err(format!("missing mirror of {u_id}->{v}"));
                }
            }
            let mut seen = outs.to_vec();
            seen.sort_unstable();
            let before = seen.len();
            seen.dedup();
            if seen.len() != before {
                return Err(format!("duplicate out-links at {u_id}"));
            }
        }
        if n_social != self.num_social_links {
            return Err(format!(
                "social link count {} != stored {}",
                n_social, self.num_social_links
            ));
        }
        let inc_total = self.inc.total_len();
        if inc_total != self.num_social_links {
            return Err("incoming mirror count mismatch".into());
        }
        let mut n_attr = 0;
        for (u, attrs) in self.node_attrs.iter().enumerate() {
            let u_id = SocialId(u as u32);
            for &a in attrs {
                n_attr += 1;
                if a.index() >= self.attr_members.rows() {
                    return Err(format!("dangling attr link {u_id}-{a}"));
                }
                if !self.attr_members.row(a.index()).contains(&u_id) {
                    return Err(format!("missing mirror of attr link {u_id}-{a}"));
                }
            }
        }
        if n_attr != self.num_attr_links {
            return Err(format!(
                "attr link count {} != stored {}",
                n_attr, self.num_attr_links
            ));
        }
        let member_total = self.attr_members.total_len();
        if member_total != self.num_attr_links {
            return Err("attribute member mirror count mismatch".into());
        }
        Ok(())
    }
}

/// The read-only view of a `San` is its inherent API verbatim; every
/// method delegates, so generic analytics over [`SanRead`] and concrete
/// callers observe identical results.
impl SanRead for San {
    #[inline]
    fn num_social_nodes(&self) -> usize {
        San::num_social_nodes(self)
    }

    #[inline]
    fn num_attr_nodes(&self) -> usize {
        San::num_attr_nodes(self)
    }

    #[inline]
    fn num_social_links(&self) -> usize {
        San::num_social_links(self)
    }

    #[inline]
    fn num_attr_links(&self) -> usize {
        San::num_attr_links(self)
    }

    #[inline]
    fn out_neighbors(&self, u: SocialId) -> &[SocialId] {
        San::out_neighbors(self, u)
    }

    #[inline]
    fn in_neighbors(&self, u: SocialId) -> &[SocialId] {
        San::in_neighbors(self, u)
    }

    #[inline]
    fn attrs_of(&self, u: SocialId) -> &[AttrId] {
        San::attrs_of(self, u)
    }

    #[inline]
    fn members_of(&self, a: AttrId) -> &[SocialId] {
        San::members_of(self, a)
    }

    #[inline]
    fn attr_type(&self, a: AttrId) -> AttrType {
        San::attr_type(self, a)
    }

    fn has_social_link(&self, src: SocialId, dst: SocialId) -> bool {
        San::has_social_link(self, src, dst)
    }

    fn has_attr_link(&self, user: SocialId, attr: AttrId) -> bool {
        San::has_attr_link(self, user, attr)
    }

    fn social_neighbors(&self, u: SocialId) -> std::borrow::Cow<'_, [SocialId]> {
        std::borrow::Cow::Owned(San::social_neighbors(self, u))
    }

    fn common_attrs(&self, u: SocialId, v: SocialId) -> usize {
        San::common_attrs(self, u, v)
    }

    fn common_social_neighbors(&self, u: SocialId, v: SocialId) -> usize {
        San::common_social_neighbors(self, u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (San, Vec<SocialId>, Vec<AttrId>) {
        let mut san = San::new();
        let users: Vec<SocialId> = (0..4).map(|_| san.add_social_node()).collect();
        let attrs = vec![
            san.add_attr_node(AttrType::Employer),
            san.add_attr_node(AttrType::City),
        ];
        san.add_social_link(users[0], users[1]);
        san.add_social_link(users[1], users[0]);
        san.add_social_link(users[0], users[2]);
        san.add_attr_link(users[0], attrs[0]);
        san.add_attr_link(users[1], attrs[0]);
        san.add_attr_link(users[1], attrs[1]);
        (san, users, attrs)
    }

    #[test]
    fn counts_track_insertions() {
        let (san, _, _) = tiny();
        assert_eq!(san.num_social_nodes(), 4);
        assert_eq!(san.num_attr_nodes(), 2);
        assert_eq!(san.num_social_links(), 3);
        assert_eq!(san.num_attr_links(), 3);
        san.check_consistency().unwrap();
    }

    #[test]
    fn rejects_self_loops_and_duplicates() {
        let (mut san, users, attrs) = tiny();
        assert!(!san.add_social_link(users[0], users[0]));
        assert!(!san.add_social_link(users[0], users[1]));
        assert!(!san.add_attr_link(users[0], attrs[0]));
        assert_eq!(san.num_social_links(), 3);
        assert_eq!(san.num_attr_links(), 3);
        san.check_consistency().unwrap();
    }

    #[test]
    #[should_panic(expected = "unknown destination")]
    fn link_to_unknown_node_panics() {
        let mut san = San::new();
        let u = san.add_social_node();
        san.add_social_link(u, SocialId(99));
    }

    #[test]
    fn directed_link_queries() {
        let (san, users, _) = tiny();
        assert!(san.has_social_link(users[0], users[1]));
        assert!(san.has_social_link(users[1], users[0]));
        assert!(san.has_social_link(users[0], users[2]));
        assert!(!san.has_social_link(users[2], users[0]));
        assert!(!san.has_social_link(users[2], users[3]));
    }

    #[test]
    fn degrees() {
        let (san, users, attrs) = tiny();
        assert_eq!(san.out_degree(users[0]), 2);
        assert_eq!(san.in_degree(users[0]), 1);
        assert_eq!(san.out_degree(users[3]), 0);
        assert_eq!(san.attr_degree(users[1]), 2);
        assert_eq!(san.social_degree_of_attr(attrs[0]), 2);
        assert_eq!(san.social_degree_of_attr(attrs[1]), 1);
    }

    #[test]
    fn social_neighbors_union_dedup() {
        let (san, users, _) = tiny();
        // users[0]: out {1,2}, in {1} -> union {1,2}
        let n = san.social_neighbors(users[0]);
        assert_eq!(n, vec![users[1], users[2]]);
        assert!(san.social_neighbors(users[3]).is_empty());
    }

    #[test]
    fn common_attrs_counts_intersection() {
        let (mut san, users, attrs) = tiny();
        assert_eq!(san.common_attrs(users[0], users[1]), 1);
        assert_eq!(san.common_attrs(users[0], users[2]), 0);
        san.add_attr_link(users[2], attrs[0]);
        san.add_attr_link(users[2], attrs[1]);
        assert_eq!(san.common_attrs(users[1], users[2]), 2);
        // Symmetry.
        assert_eq!(
            san.common_attrs(users[1], users[2]),
            san.common_attrs(users[2], users[1])
        );
    }

    #[test]
    fn common_social_neighbors_excludes_endpoints() {
        let mut san = San::new();
        let u: Vec<SocialId> = (0..5).map(|_| san.add_social_node()).collect();
        // u0 and u1 both link to u2 and u3; u0 links to u1 directly.
        san.add_social_link(u[0], u[2]);
        san.add_social_link(u[0], u[3]);
        san.add_social_link(u[1], u[2]);
        san.add_social_link(u[3], u[1]);
        san.add_social_link(u[0], u[1]);
        assert_eq!(san.common_social_neighbors(u[0], u[1]), 2);
        // The direct u0-u1 link must not be counted as a common neighbour.
        assert_eq!(san.common_social_neighbors(u[0], u[4]), 0);
    }

    #[test]
    fn link_iterators_cover_everything() {
        let (san, _, _) = tiny();
        let social: Vec<_> = san.social_links().collect();
        assert_eq!(social.len(), 3);
        assert!(social.contains(&(SocialId(0), SocialId(1))));
        let attr: Vec<_> = san.attr_links().collect();
        assert_eq!(attr.len(), 3);
        assert!(attr.contains(&(SocialId(1), AttrId(1))));
    }

    #[test]
    fn attr_type_stored() {
        let (san, _, attrs) = tiny();
        assert_eq!(san.attr_type(attrs[0]), AttrType::Employer);
        assert_eq!(san.attr_type(attrs[1]), AttrType::City);
    }

    #[test]
    fn with_capacity_starts_empty() {
        let san = San::with_capacity(100, 10);
        assert_eq!(san.num_social_nodes(), 0);
        assert_eq!(san.num_attr_nodes(), 0);
        san.check_consistency().unwrap();
    }
}
