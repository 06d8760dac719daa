//! Query execution: dispatch a decoded [`Query`] against any
//! [`SanRead`] snapshot view.
//!
//! Kept separate from the socket layer so the request→result mapping is
//! unit-testable without a listener, and so the server's worker loop
//! stays a thin shell: decode → admit → `execute` → encode.
//!
//! [`execute`] is the reference answer for every query. The server
//! answers `Reciprocity` from the served day's memo instead, filled by
//! the same `global_reciprocity` call, so repeat requests skip the
//! O(|Es|) pass without a second definition of the value.

use crate::proto::{ErrorCode, Query, QueryResult, MAX_NEIGHBOR_PAGE};
use san_graph::{SanRead, SocialId};
use san_metrics::clustering::local_clustering_social;
use san_metrics::reciprocity::global_reciprocity;

/// Runs one query against a snapshot view. Node-id params are validated
/// against the *served* snapshot here (the protocol layer cannot know
/// its size), so a hostile id yields [`ErrorCode::NodeOutOfRange`] —
/// never a panic and never an out-of-bounds row access.
pub fn execute(query: Query, view: &impl SanRead) -> Result<QueryResult, ErrorCode> {
    let nodes = view.num_social_nodes();
    let check = |id: u32| -> Result<SocialId, ErrorCode> {
        if (id as usize) < nodes {
            Ok(SocialId(id))
        } else {
            Err(ErrorCode::NodeOutOfRange)
        }
    };
    match query {
        Query::Counts => Ok(QueryResult::Counts {
            social_nodes: nodes as u64,
            attr_nodes: view.num_attr_nodes() as u64,
            social_links: view.num_social_links() as u64,
            attr_links: view.num_attr_links() as u64,
        }),
        Query::Degrees { u } => {
            let u = check(u)?;
            Ok(QueryResult::Degrees {
                out: view.out_degree(u) as u32,
                inc: view.in_degree(u) as u32,
                attr: view.attr_degree(u) as u32,
            })
        }
        Query::OutNeighbors { u, offset, limit } => {
            let u = check(u)?;
            let row = view.out_neighbors(u);
            let limit = limit.min(MAX_NEIGHBOR_PAGE) as usize;
            let ids = row
                .iter()
                .skip(offset as usize)
                .take(limit)
                .map(|v| v.0)
                .collect();
            Ok(QueryResult::Neighbors {
                total: row.len() as u32,
                ids,
            })
        }
        Query::HasLink { src, dst } => {
            let (src, dst) = (check(src)?, check(dst)?);
            Ok(QueryResult::HasLink(view.has_social_link(src, dst)))
        }
        Query::CommonNeighbors { u, v } => {
            let (u, v) = (check(u)?, check(v)?);
            Ok(QueryResult::CommonNeighbors(
                view.common_social_neighbors(u, v) as u64,
            ))
        }
        Query::Reciprocity => Ok(QueryResult::Reciprocity(global_reciprocity(view))),
        Query::LocalClustering { u } => {
            let u = check(u)?;
            Ok(QueryResult::LocalClustering(local_clustering_social(
                view, u,
            )))
        }
        // Stats reads the server's metric registry, not a snapshot —
        // the front-end answers it before admission ever reaches the
        // executor. Reaching here means a caller misrouted it.
        Query::Stats => Err(ErrorCode::BadRequest),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use san_graph::San;

    fn sample() -> San {
        let mut san = San::new();
        for _ in 0..4 {
            san.add_social_node();
        }
        san.add_social_link(SocialId(0), SocialId(1));
        san.add_social_link(SocialId(0), SocialId(2));
        san.add_social_link(SocialId(1), SocialId(2));
        san.add_social_link(SocialId(2), SocialId(0));
        san
    }

    #[test]
    fn counts_and_degrees_match_the_view() {
        let san = sample();
        assert_eq!(
            execute(Query::Counts, &san),
            Ok(QueryResult::Counts {
                social_nodes: 4,
                attr_nodes: 0,
                social_links: 4,
                attr_links: 0,
            })
        );
        assert_eq!(
            execute(Query::Degrees { u: 0 }, &san),
            Ok(QueryResult::Degrees {
                out: 2,
                inc: 1,
                attr: 0
            })
        );
    }

    #[test]
    fn neighbor_paging_clamps_to_the_row() {
        let san = sample();
        let page = execute(
            Query::OutNeighbors {
                u: 0,
                offset: 1,
                limit: 10,
            },
            &san,
        );
        assert_eq!(
            page,
            Ok(QueryResult::Neighbors {
                total: 2,
                ids: vec![2],
            })
        );
        // Offset past the row end: empty page, total still reported.
        assert_eq!(
            execute(
                Query::OutNeighbors {
                    u: 0,
                    offset: 99,
                    limit: 10,
                },
                &san,
            ),
            Ok(QueryResult::Neighbors {
                total: 2,
                ids: vec![],
            })
        );
    }

    #[test]
    fn hostile_node_ids_are_typed_rejections() {
        let san = sample();
        for query in [
            Query::Degrees { u: 4 },
            Query::OutNeighbors {
                u: u32::MAX,
                offset: 0,
                limit: 1,
            },
            Query::HasLink { src: 0, dst: 4 },
            Query::CommonNeighbors { u: 9, v: 0 },
            Query::LocalClustering { u: 4 },
        ] {
            assert_eq!(execute(query, &san), Err(ErrorCode::NodeOutOfRange));
        }
    }
}
