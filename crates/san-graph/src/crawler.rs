//! The snapshot-expanding BFS crawler of §2.2.
//!
//! The paper crawled Google+ daily: the first snapshot by breadth-first
//! search, each subsequent snapshot by *expanding the social structure from
//! the previous snapshot*. Crucially, Google+ exposes **both** the outgoing
//! ("in your circles") and incoming ("have you in circles") lists of every
//! *public* profile, which is what made crawling the whole weakly connected
//! component feasible.
//!
//! [`Crawler`] reproduces that process against a ground-truth [`San`]:
//!
//! * a **public** user exposes its out-list, in-list and attributes;
//! * a **private** user is *discoverable* (it appears in public users'
//!   lists) but exposes nothing — the two crawl biases acknowledged in §2.2
//!   (private circles ⇒ underestimated degrees; undeclared attributes) fall
//!   out of this rule;
//! * crawl state persists across days, so day `t`'s crawl expands from the
//!   users known at day `t − 1`.
//!
//! A crawl is two steps. [`Crawler::discover`] is the BFS: it grows the
//! known-user set. [`observe`] then materialises what those users expose
//! as a [`CrawlSnapshot`], and [`observe_counts`] returns only the
//! snapshot's sizes and coverage without building a graph.
//! [`Crawler::crawl`] runs both. The visibility rule is written once, in
//! the private `for_each_observed`, and both observers walk it: a link is
//! observed iff both endpoints are known and either endpoint is public,
//! and only public users expose attributes. The known set depends only on
//! the days crawled so far, so a caller that records each user's
//! first-known day can rebuild any crawled day later from the ground
//! truth of that day alone.

use crate::ids::{AttrId, SocialId};
use crate::read::SanRead;
use crate::san::San;
use std::collections::VecDeque;

/// A crawled snapshot: the observed sub-SAN plus provenance and coverage.
#[derive(Debug, Clone)]
pub struct CrawlSnapshot {
    /// The network as observed by the crawler (dense crawl-local ids).
    pub san: San,
    /// For each crawl-local social id (by index), the ground-truth id.
    pub social_origin: Vec<SocialId>,
    /// For each crawl-local attribute id (by index), the ground-truth id.
    pub attr_origin: Vec<AttrId>,
    /// Discovered users / ground-truth users.
    pub node_coverage: f64,
    /// Observed social links / ground-truth social links.
    pub link_coverage: f64,
}

/// The sizes and coverage of a crawled snapshot, as [`observe_counts`]
/// reports them without building the graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrawlCounts {
    /// Known users (`|Vs|` of the snapshot).
    pub social_nodes: usize,
    /// Observed social links (`|Es|`).
    pub social_links: usize,
    /// Attributes exposed by at least one known public user (`|Va|`).
    pub attr_nodes: usize,
    /// Observed attribute links (`|Ea|`).
    pub attr_links: usize,
    /// Known users / ground-truth users.
    pub node_coverage: f64,
    /// Observed social links / ground-truth social links.
    pub link_coverage: f64,
}

impl CrawlSnapshot {
    /// The snapshot's sizes and coverage, in the form
    /// [`observe_counts`] returns.
    pub fn counts(&self) -> CrawlCounts {
        CrawlCounts {
            social_nodes: self.san.num_social_nodes(),
            social_links: self.san.num_social_links(),
            attr_nodes: self.san.num_attr_nodes(),
            attr_links: self.san.num_attr_links(),
            node_coverage: self.node_coverage,
            link_coverage: self.link_coverage,
        }
    }
}

/// Stateful daily crawler over a growing ground truth.
#[derive(Debug, Clone)]
pub struct Crawler {
    seeds: Vec<SocialId>,
    /// Users discovered so far (ground-truth ids).
    known: Vec<SocialId>,
}

impl Crawler {
    /// Creates a crawler that starts from the given seed users.
    pub fn new(seeds: Vec<SocialId>) -> Self {
        Crawler {
            known: Vec::new(),
            seeds,
        }
    }

    /// Users discovered so far, in ground-truth id order.
    pub fn known(&self) -> &[SocialId] {
        &self.known
    }

    /// Crawls the current ground truth: [`discover`](Crawler::discover)
    /// followed by [`observe`] over the expanded known set.
    ///
    /// # Panics
    /// As [`discover`](Crawler::discover).
    pub fn crawl(&mut self, truth: &impl SanRead, public: &[bool]) -> CrawlSnapshot {
        self.discover(truth, public);
        observe(truth, public, &self.known)
    }

    /// Expands the known-user set over the current ground truth.
    ///
    /// `public[u]` says whether ground-truth user `u` exposes its lists.
    /// The BFS starts from all previously known users plus the seeds and
    /// repeatedly fetches the lists of every reachable public user.
    ///
    /// # Panics
    /// Panics when `public.len()` differs from the ground-truth node count
    /// or a seed id is out of range.
    pub fn discover(&mut self, truth: &impl SanRead, public: &[bool]) {
        let n = truth.num_social_nodes();
        assert_eq!(public.len(), n, "visibility vector must cover all users");

        let mut discovered = vec![false; n];
        let mut queue: VecDeque<SocialId> = VecDeque::new();
        for &u in self.known.iter().chain(self.seeds.iter()) {
            assert!(u.index() < n, "seed/known user {u} outside ground truth");
            if !discovered[u.index()] {
                discovered[u.index()] = true;
                queue.push_back(u);
            }
        }
        while let Some(u) = queue.pop_front() {
            if !public[u.index()] {
                continue; // private: lists invisible, cannot expand through.
            }
            for &v in truth.out_neighbors(u).iter().chain(truth.in_neighbors(u)) {
                if !discovered[v.index()] {
                    discovered[v.index()] = true;
                    queue.push_back(v);
                }
            }
        }

        // Record the expanded known set (ordered by ground-truth id for
        // determinism).
        self.known = (0..n as u32)
            .map(SocialId)
            .filter(|u| discovered[u.index()])
            .collect();
    }
}

/// One observation of the visibility walk, in crawl-local social ids.
enum Seen {
    /// The directed social link `u → v`.
    Link(SocialId, SocialId),
    /// User `u` declares ground-truth attribute `a`.
    Attr(SocialId, AttrId),
}

/// The §2.2 visibility rule, walked once per known user in `known` order:
/// first the user's observed out-links, then its attributes. A directed
/// link `u → v` is observed iff both endpoints are known and either is
/// public (`u`'s out-list or `v`'s in-list); attributes are profile data,
/// so only public users expose them.
fn for_each_observed(
    truth: &impl SanRead,
    public: &[bool],
    known: &[SocialId],
    mut visit: impl FnMut(Seen),
) {
    let mut social_new = vec![u32::MAX; truth.num_social_nodes()];
    for (new_u, &old_u) in known.iter().enumerate() {
        social_new[old_u.index()] = new_u as u32;
    }
    for (new_u, &old_u) in known.iter().enumerate() {
        let new_u = SocialId(new_u as u32);
        for &v in truth.out_neighbors(old_u) {
            let nv = social_new[v.index()];
            if nv != u32::MAX && (public[old_u.index()] || public[v.index()]) {
                visit(Seen::Link(new_u, SocialId(nv)));
            }
        }
        if public[old_u.index()] {
            for &a in truth.attrs_of(old_u) {
                visit(Seen::Attr(new_u, a));
            }
        }
    }
}

/// `part / whole`, or 0 for an empty whole.
fn coverage(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Materialises what the `known` users expose of `truth`.
///
/// `known` lists ground-truth users (the crawler keeps them in id order);
/// the snapshot numbers them densely in that order and numbers attributes
/// by first encounter. `public[u]` is `u`'s visibility.
///
/// # Panics
/// Panics when a known user is outside `truth`, or `public` is shorter
/// than `truth`'s node count.
pub fn observe(truth: &impl SanRead, public: &[bool], known: &[SocialId]) -> CrawlSnapshot {
    let mut san = San::with_capacity(known.len(), 0);
    for _ in known {
        san.add_social_node();
    }
    let mut attr_new = vec![u32::MAX; truth.num_attr_nodes()];
    let mut attr_origin = Vec::new();
    let mut observed_links = 0usize;
    for_each_observed(truth, public, known, |seen| match seen {
        Seen::Link(u, v) => {
            if san.add_social_link(u, v) {
                observed_links += 1;
            }
        }
        Seen::Attr(u, a) => {
            if attr_new[a.index()] == u32::MAX {
                attr_new[a.index()] = attr_origin.len() as u32;
                attr_origin.push(a);
                san.add_attr_node(truth.attr_type(a));
            }
            san.add_attr_link(u, AttrId(attr_new[a.index()]));
        }
    });
    CrawlSnapshot {
        san,
        social_origin: known.to_vec(),
        attr_origin,
        node_coverage: coverage(known.len(), truth.num_social_nodes()),
        link_coverage: coverage(observed_links, truth.num_social_links()),
    }
}

/// The sizes and coverage [`observe`] would report for the same
/// arguments, without building the snapshot.
///
/// # Panics
/// As [`observe`].
pub fn observe_counts(truth: &impl SanRead, public: &[bool], known: &[SocialId]) -> CrawlCounts {
    let mut attr_seen = vec![false; truth.num_attr_nodes()];
    let (mut social_links, mut attr_nodes, mut attr_links) = (0, 0, 0);
    for_each_observed(truth, public, known, |seen| match seen {
        Seen::Link(..) => social_links += 1,
        Seen::Attr(_, a) => {
            if !attr_seen[a.index()] {
                attr_seen[a.index()] = true;
                attr_nodes += 1;
            }
            attr_links += 1;
        }
    });
    CrawlCounts {
        social_nodes: known.len(),
        social_links,
        attr_nodes,
        attr_links,
        node_coverage: coverage(known.len(), truth.num_social_nodes()),
        link_coverage: coverage(social_links, truth.num_social_links()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::figure1;

    #[test]
    fn full_visibility_crawls_whole_wcc() {
        let fx = figure1();
        let public = vec![true; 6];
        let mut crawler = Crawler::new(vec![fx.users[3]]); // u4
        let snap = crawler.crawl(&fx.san, &public);
        // u1 has no social links: unreachable. The other 5 form one WCC.
        assert_eq!(snap.san.num_social_nodes(), 5);
        assert_eq!(snap.san.num_social_links(), 5);
        assert!((snap.node_coverage - 5.0 / 6.0).abs() < 1e-12);
        assert!((snap.link_coverage - 1.0).abs() < 1e-12);
        snap.san.check_consistency().unwrap();
    }

    #[test]
    fn incoming_lists_enable_backward_discovery() {
        // Chain u0 -> u1 -> u2 seeded at u2: only reachable backwards.
        let mut san = San::new();
        let u: Vec<SocialId> = (0..3).map(|_| san.add_social_node()).collect();
        san.add_social_link(u[0], u[1]);
        san.add_social_link(u[1], u[2]);
        let mut crawler = Crawler::new(vec![u[2]]);
        let snap = crawler.crawl(&san, &[true, true, true]);
        assert_eq!(snap.san.num_social_nodes(), 3, "in-lists must be crawled");
    }

    #[test]
    fn private_users_block_expansion() {
        // u0 -> u1 -> u2 with u1 private, seeded at u0:
        // u1 is discovered via u0's out-list but u2 stays hidden
        // (u1's lists are private).
        let mut san = San::new();
        let u: Vec<SocialId> = (0..3).map(|_| san.add_social_node()).collect();
        san.add_social_link(u[0], u[1]);
        san.add_social_link(u[1], u[2]);
        let mut crawler = Crawler::new(vec![u[0]]);
        let snap = crawler.crawl(&san, &[true, false, true]);
        assert_eq!(snap.san.num_social_nodes(), 2);
        // The u0->u1 link is visible (u0 public); u1->u2 is not.
        assert_eq!(snap.san.num_social_links(), 1);
        assert!(snap.node_coverage < 1.0);
    }

    #[test]
    fn private_user_attributes_hidden() {
        let fx = figure1();
        let mut public = vec![true; 6];
        public[fx.users[4].index()] = false; // u5 private
        let mut crawler = Crawler::new(vec![fx.users[3]]);
        let snap = crawler.crawl(&fx.san, &public);
        // u5 discovered (u4's out-list) but its attributes invisible:
        // Google keeps only u6; San Francisco keeps only u2.
        let total_attr_links = snap.san.num_attr_links();
        assert_eq!(
            total_attr_links,
            fx.san.num_attr_links() - 1 /* u1 unreachable */ - 2
        );
    }

    #[test]
    fn state_persists_across_days() {
        // Day 1: two components; crawler sees one. Day 2: a bridge link
        // appears and the second component becomes reachable.
        let mut san = San::new();
        let u: Vec<SocialId> = (0..4).map(|_| san.add_social_node()).collect();
        san.add_social_link(u[0], u[1]);
        san.add_social_link(u[2], u[3]);
        let mut crawler = Crawler::new(vec![u[0]]);
        let public = vec![true; 4];
        let day1 = crawler.crawl(&san, &public);
        assert_eq!(day1.san.num_social_nodes(), 2);
        assert_eq!(crawler.known().len(), 2);

        san.add_social_link(u[1], u[2]);
        let day2 = crawler.crawl(&san, &public);
        assert_eq!(day2.san.num_social_nodes(), 4);
        assert_eq!(day2.san.num_social_links(), 3);
    }

    #[test]
    fn growing_truth_ids_stay_valid() {
        // New users join the ground truth between crawls; the crawler's
        // known set must still be valid.
        let mut san = San::new();
        let u0 = san.add_social_node();
        let u1 = san.add_social_node();
        san.add_social_link(u0, u1);
        let mut crawler = Crawler::new(vec![u0]);
        crawler.crawl(&san, &[true, true]);
        let u2 = san.add_social_node();
        san.add_social_link(u1, u2);
        let snap = crawler.crawl(&san, &[true, true, true]);
        assert_eq!(snap.san.num_social_nodes(), 3);
    }

    #[test]
    fn counts_match_observed_snapshot() {
        let fx = figure1();
        for private in 0..6 {
            let mut public = vec![true; 6];
            public[private] = false;
            let mut crawler = Crawler::new(vec![fx.users[3]]);
            crawler.discover(&fx.san, &public);
            let snap = observe(&fx.san, &public, crawler.known());
            assert_eq!(
                observe_counts(&fx.san, &public, crawler.known()),
                snap.counts(),
                "private user {private}"
            );
            assert_eq!(snap.social_origin, crawler.known());
        }
    }

    #[test]
    fn empty_truth() {
        let san = San::new();
        let mut crawler = Crawler::new(vec![]);
        let snap = crawler.crawl(&san, &[]);
        assert_eq!(snap.san.num_social_nodes(), 0);
        assert_eq!(snap.node_coverage, 0.0);
    }

    #[test]
    #[should_panic(expected = "visibility vector")]
    fn visibility_length_checked() {
        let fx = figure1();
        let mut crawler = Crawler::new(vec![fx.users[0]]);
        crawler.crawl(&fx.san, &[true; 3]);
    }
}
