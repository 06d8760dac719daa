//! # san-net — the TCP serving front-end
//!
//! `san-serve` made snapshot serving concurrent *in-process*; this crate
//! puts it on the wire, so the "heavy traffic from millions of users"
//! claim behind the paper's Google+ measurements has a measurable
//! cross-process surface: a length-prefixed binary protocol over
//! `std::net::TcpListener` (no external dependencies), a thread-per-core
//! worker pool over [`SnapshotServer`](san_serve::SnapshotServer),
//! admission control that sheds overload as typed `Busy` responses
//! instead of queueing unboundedly, and a graceful shutdown that drains
//! workers. The paired load generators (closed- and open-loop) live in
//! `san-bench`; their p50/p99/p999 land in `BENCH_NET.json`.
//!
//! ## Wire format (`SANW`, version 2)
//!
//! Little-endian throughout, in the house framing style of the
//! `SANCSRBF` snapshot store: fixed headers, explicit length prefixes,
//! *bounds before bytes*. One request frame:
//!
//! ```text
//! offset  size  field
//! ──────  ────  ─────────────────────────────────────────────
//!      0     4  magic          "SANW"
//!      4     2  version        u16, must equal 2
//!      6     2  query id       u16 (see below)
//!      8     4  day            u32, ≤ MAX_DAY (2²⁰)
//!     12     4  params_len     u32, ≤ MAX_PARAMS_BYTES (64)
//!     16     …  params         exactly params_len bytes
//! ```
//!
//! One response frame:
//!
//! ```text
//! offset  size  field
//! ──────  ────  ─────────────────────────────────────────────
//!      0     4  magic          "SANW"
//!      4     2  version        u16, must equal 2
//!      6     2  status         0 = ok, else ErrorCode
//!      8     2  query id       u16 (echo of the request)
//!     10     2  reserved       must be 0 (future use)
//!     12     4  day_served     u32 (0 on error)
//!     16     4  payload_len    u32, ≤ MAX_PAYLOAD_BYTES (16 392) —
//!                              except query id 7, which is allowed
//!                              4 + MAX_STATS_BYTES (the query id sits
//!                              at a lower offset, so the per-query
//!                              bound is known before the length);
//!                              must be 0 on error
//!     20     …  payload        exactly payload_len bytes
//! ```
//!
//! Queries and their params / success payloads (all integers
//! little-endian, `f64` as IEEE-754 bits):
//!
//! ```text
//! id  query             params                     payload
//! ──  ────────────────  ─────────────────────────  ─────────────────────────
//!  0  counts            —                          4 × u64 node/link counts
//!  1  degrees           u: u32                     out, in, attr: 3 × u32
//!  2  out_neighbors     u, offset, limit: 3 × u32  total: u32, count: u32,
//!                       (limit ≤ 4096)             count × u32 ids
//!  3  has_link          src, dst: 2 × u32          u8 ∈ {0, 1}
//!  4  common_neighbors  u, v: 2 × u32              u64
//!  5  reciprocity       —                          f64 bits
//!  6  local_clustering  u: u32                     f64 bits
//!  7  stats (v2)        — (day ignored)            len: u32 ≤ MAX_STATS_BYTES
//!                                                  (2²⁰), len UTF-8 bytes of
//!                                                  Prometheus exposition
//! ```
//!
//! Ids 1–4 and 6 touch one or two adjacency rows. Id 5 is the only
//! whole-graph query: O(|Es|) on the first request for a resident day,
//! then O(1) — the server memoises it in that day's cache entry
//! (`san-serve`'s per-day memo) and recomputes only after the day is
//! evicted and mapped again. Id 7 reads the server's meters, no snapshot.
//!
//! Error codes: 1 `Busy`, 2 `NoSnapshot`, 3 `NodeOutOfRange`,
//! 4 `ShuttingDown`, 5 `StoreFailed`, 6 `BadRequest`.
//!
//! ## Versioning policy
//!
//! The version word is a single monotone `u16`; **any** change to frame
//! layout, query/params/payload encodings, or error-code meanings bumps
//! it. v1 → v2 added the `stats` query — exactly the policy's "new
//! query ids bump the version", since an unknown id is a decode error,
//! not a negotiable capability. There is still no negotiation: both
//! peers send their version and reject anything unequal with a typed
//! [`UnsupportedVersion`](proto::NetError::UnsupportedVersion) — a
//! deliberate choice while client and server ship from one workspace. A
//! future version can use the response's reserved word (rejected unless
//! zero today, so old peers can never misread it) to advertise a
//! version range.
//!
//! ## Observability
//!
//! The server wires the `san-obs` stack together: one scrape walks all
//! three layers' meters (vault, serve, net — each passed to
//! [`encode_prometheus`](san_obs::encode_prometheus) base-labelled
//! `layer="…"`), per-request traces feed the slow-query ring, and two
//! scrape surfaces serve one consistent snapshot each: the admin
//! HTTP listener ([`NetConfig::admin`](server::NetConfig)) with
//! `GET /metrics` + `GET /slowlog`, and the in-protocol `stats` query
//! for SANW clients.
//!
//! ## Why no checksum?
//!
//! `SANCSRBF` checksums its arrays because disk bytes have no other
//! integrity layer. These frames ride TCP, which already carries one;
//! what TCP does *not* provide is framing discipline against buggy or
//! hostile peers — exactly what the magic/version/bounds checks and the
//! corruption matrix (`tests/proto_corruption.rs`) cover.
//!
//! ## Serving model
//!
//! See [`server`] (Unix-only, like `san-serve`'s mmap substrate — the
//! protocol, executor, pool, and client modules stay portable): an
//! acceptor thread feeds a bounded [`ConnQueue`](pool::ConnQueue); each
//! worker owns one connection at a time and serves frames
//! request/response; three admission gates (connection backlog,
//! in-flight cap, resident-byte budget) turn overload into typed
//! `Busy`; shutdown drains via the stop-flag + queue-stop handshake the
//! `loom-lite` model suite checks exhaustively.

#[cfg(unix)]
mod admin;
pub mod client;
pub mod exec;
pub mod metrics;
#[cfg(test)]
mod model_tests;
pub mod pool;
pub mod proto;
#[cfg(unix)]
pub mod server;

pub use client::NetClient;
pub use exec::execute;
pub use metrics::NetMetrics;
pub use proto::{ErrorCode, NetError, Query, QueryResult, Request, Response};
#[cfg(unix)]
pub use server::{NetConfig, NetServer};
