//! # san-graph — the Social-Attribute Network data structure
//!
//! A **Social-Attribute Network** (SAN, Gong et al., IMC 2012, §2.1) is a
//! directed social graph `G = (Vs, Es)` augmented with `M` binary attribute
//! nodes `Va` and undirected links `Ea` between social nodes and the
//! attributes they declare:
//!
//! ```text
//! SAN = (Vs, Va, Es, Ea)
//! ```
//!
//! Social links are **directed** (Google+ circles: "in your circles" /
//! "have you in circles"); attribute links are **undirected**. For a node
//! `u` the paper defines
//!
//! * `Γa(u)` — attribute neighbours,
//! * `Γs(u)` — social neighbours (union over both link sets and directions),
//! * `Γs,in(u)`, `Γs,out(u)` — directed social neighbourhoods.
//!
//! ## The read/write split
//!
//! The paper's pipeline is write-once, read-many: the crawler/timeline
//! builds 79 daily snapshots, then every measurement only *reads* them.
//! The crate therefore separates the two concerns:
//!
//! * [`read::SanRead`] — the read-only trait every analytic downstream
//!   (metrics, applications, model validation) is generic over;
//! * [`san::San`] — the mutable adjacency-list SAN used while *growing*
//!   a network (generators, crawler, builders); implements `SanRead`;
//! * [`csr::CsrSan`] — an immutable compressed-sparse-row snapshot with
//!   sorted neighbour rows: binary-search membership, cache-friendly
//!   contiguous iteration, zero-allocation `Γs(u)`, and `Send + Sync`
//!   sharing across threads. Produced by [`San::freeze`] or
//!   [`evolve::SanTimeline::snapshot_csr`].
//!
//! Grow with `San`, freeze, measure the `CsrSan` — or measure the live
//! `San` directly; both satisfy `SanRead`.
//!
//! This crate provides:
//!
//! * `San` — the mutable in-memory SAN with O(1)-amortised node/link
//!   insertion and all the neighbourhood queries above,
//! * [`csr::CsrSan`] — the frozen CSR snapshot form,
//! * [`read::SanRead`] — the shared read abstraction,
//! * [`builder::SanBuilder`] — out-of-order batch construction,
//! * [`evolve::SanTimeline`] — a timestamped event log that can
//!   replay the network to any day (the paper's 79 daily snapshots),
//! * [`delta::DeltaFreezer`] — incremental delta-freeze: patches the
//!   last frozen `CsrSan` with every event since then, making snapshot
//!   sweeps ([`evolve::SanTimeline::snapshot_stream`],
//!   [`evolve::SanTimeline::for_each_snapshot`]) near-linear instead of
//!   quadratic and patching only the sampled days; those are handed off
//!   as `Arc<CsrSan>` with no flat-array clone,
//! * [`shard::ShardedCsrSan`] — a snapshot range-partitioned into `K`
//!   node-contiguous, edge-balanced [`shard::CsrShard`] views with
//!   `map_shards`/`fold_shards` drivers, so one frozen day can saturate
//!   every core (intra-snapshot parallelism),
//! * [`store`] — the columnar binary snapshot store: `CsrSan::write_to` /
//!   `read_from` (versioned header, little-endian columns, checksum; v2
//!   adds frame-of-reference + varint column compression and delta-encoded
//!   day files) and [`store::SnapshotVault`] directories of persisted
//!   days, so sweeps can warm-start from disk
//!   ([`evolve::SanTimeline::resume_from_vault`]) instead of replaying the
//!   event log, plus [`store::StreamingVaultWriter`] for bounded-memory
//!   synthesize-and-persist runs that patch and encode each persisted
//!   day on one background thread,
//! * [`codec`] — the v2 column codec: frame-of-reference blocks with
//!   zigzag + varint deltas over `u32` sequences, fully typed on decode,
//! * [`view`] — [`view::CsrSanView`], a borrowed zero-copy `SanRead` over
//!   raw snapshot bytes: validate once, then every column is read in
//!   place (no `Vec` materialisation at all),
//! * [`mmap`] — [`mmap::MappedSnapshot`], a read-only `mmap(2)` of a
//!   snapshot file serving zero-copy views to any number of threads (the
//!   substrate of the `san-serve` snapshot server),
//! * [`meter`] — metered IO: [`meter::VaultMetrics`] byte counters and
//!   [`meter::LatencyHistogram`]s, fed by every vault persist/load/map
//!   path and reused by the serving layer,
//! * [`traverse`] — BFS distances, weakly connected components,
//! * [`crawler`] — the snapshot-expanding BFS crawler of §2.2 (honouring
//!   public/private visibility),
//! * [`degree`] — degree-vector extraction and the degree-bounded subgraph
//!   used by SybilLimit (§6.2),
//! * [`subsample`] — attribute subsampling for the §4.3 validation,
//! * [`fixtures`] — the paper's Figure 1 six-user example network, reused as
//!   a ground-truth fixture across the workspace test suites.

pub mod builder;
pub mod codec;
pub mod crawler;
pub mod csr;
pub mod degree;
pub mod delta;
pub mod evolve;
pub mod fixtures;
pub mod ids;
pub mod meter;
pub mod mmap;
pub mod read;
pub mod san;
pub mod shard;
pub mod store;
pub mod subsample;
pub mod traverse;
pub mod unionfind;
pub mod view;
pub mod wire;

pub use builder::SanBuilder;
pub use csr::CsrSan;
pub use delta::DeltaFreezer;
pub use evolve::{BuilderView, DayCounts, SanEvent, SanTimeline, SnapshotStream, TimelineBuilder};
pub use ids::{AttrId, AttrType, SocialId};
pub use meter::{LatencyHistogram, VaultMetrics};
#[cfg(unix)]
pub use mmap::MappedSnapshot;
pub use read::SanRead;
pub use san::San;
pub use shard::{CsrShard, ShardedCsrSan};
pub use store::{SnapshotVault, StoreError};
pub use view::{AlignedBytes, CsrSanView};
pub use wire::{WireReader, WireTruncated, WireWriter};

/// Convenient glob-import surface for downstream crates.
pub mod prelude {
    pub use crate::builder::SanBuilder;
    pub use crate::csr::CsrSan;
    pub use crate::delta::DeltaFreezer;
    pub use crate::evolve::{
        BuilderView, DayCounts, SanEvent, SanTimeline, SnapshotStream, TimelineBuilder,
    };
    pub use crate::ids::{AttrId, AttrType, SocialId};
    pub use crate::meter::{LatencyHistogram, VaultMetrics};
    #[cfg(unix)]
    pub use crate::mmap::MappedSnapshot;
    pub use crate::read::SanRead;
    pub use crate::san::San;
    pub use crate::shard::{CsrShard, ShardedCsrSan};
    pub use crate::store::{SnapshotVault, StoreError};
    pub use crate::view::{AlignedBytes, CsrSanView};
    pub use crate::wire::{WireReader, WireTruncated, WireWriter};
}
