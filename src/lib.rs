//! # gplus-san — facade crate
//!
//! One-stop import surface for the `gplus-san` workspace, a Rust
//! reproduction of *"Evolution of Social-Attribute Networks: Measurements,
//! Modeling, and Implications using Google+"* (Gong et al., IMC 2012).
//!
//! The workspace is organised as:
//!
//! * [`graph`] (`san-graph`) — the Social-Attribute Network data structure,
//! * [`stats`] (`san-stats`) — distributions, fitting, descriptive stats,
//! * [`metrics`] (`san-metrics`) — every measurement in §3/§4/Appendix A,
//! * [`model`] (`san-core`) — the generative models of §5 plus baselines,
//! * [`sim`] (`san-sim`) — the synthetic Google+ dataset and crawler,
//! * [`apps`] (`san-apps`) — SybilLimit / anonymity / recommendation
//!   application benchmarks (§6.2, §7).
//!
//! ## Read path: `SanRead` and frozen snapshots
//!
//! The pipeline is write-once, read-many: generators and the crawler
//! *grow* a mutable [`graph::San`]; every analytic in [`metrics`] and
//! [`apps`] then only *reads* it. All analytic entry points are generic
//! over [`graph::SanRead`], with two interchangeable implementations:
//!
//! * [`graph::San`] — the mutable adjacency-list network,
//! * [`graph::CsrSan`] — an immutable compressed-sparse-row snapshot
//!   (`San::freeze()` / `SanTimeline::snapshot_csr(day)`): sorted
//!   contiguous neighbour rows, binary-search membership, zero-allocation
//!   `Γs(u)`, and `Send + Sync` sharing for parallel metric sweeps.
//!
//! Frozen snapshots also persist: [`graph::store`] is a columnar,
//! versioned, checksummed binary format (`CsrSan::write_to` /
//! `from_store_bytes`) plus [`graph::store::SnapshotVault`] directories of
//! persisted days, so evolution sweeps warm-start from disk
//! (`SanTimeline::resume_from_vault`, a `SnapshotSource::Vault` sweep of
//! `evolve_metric` in [`metrics`]) instead of replaying the event log
//! from day 0.
//!
//! On top of the store sits the zero-copy read path: [`graph::view`]
//! views a snapshot's raw bytes in place (no column is deserialised),
//! [`graph::mmap`] maps persisted days read-only, and [`serve`]
//! (`san-serve`) is the concurrent serving layer — a `SnapshotServer`
//! with a sharded LRU of mapped days and metered IO
//! ([`graph::meter`]). [`net`] (`san-net`) puts that server on the wire: a
//! length-prefixed binary protocol (`SANW`) over TCP, a thread-per-core
//! worker pool with three admission gates that shed overload as typed
//! `Busy` responses, and closed/open-loop load generators in
//! `san-bench` (`BENCH_NET.json` records the loopback p50/p99/p999).
//!
//! The serving stack is observable end to end via [`obs`] (`san-obs`):
//! the vault, serve, and net layers' meters implement [`obs::Observe`]
//! under stable dotted names and are read lock-free on every scrape; the
//! hand-written Prometheus text-exposition encoder
//! ([`obs::encode_prometheus`]) feeds both the server's admin
//! HTTP listener (`GET /metrics`, `GET /slowlog`) and the in-protocol
//! SANW `stats` query; and per-request traces with per-stage nanosecond
//! attribution land in a lock-free slow-query ring
//! (`examples/observability.rs` walks the whole loop;
//! `BENCH_OBS.json` records the scrape-encode latency and the
//! traced-vs-untraced overhead).
//!
//! See `examples/` for end-to-end walkthroughs and `crates/san-bench` for
//! the experiment harness that regenerates every figure and table (its
//! `bench_graph` suite measures the San-vs-CsrSan read-path difference).

pub use san_apps as apps;
pub use san_core as model;
pub use san_graph as graph;
pub use san_metrics as metrics;
pub use san_net as net;
pub use san_obs as obs;
pub use san_serve as serve;
pub use san_sim as sim;
pub use san_stats as stats;
