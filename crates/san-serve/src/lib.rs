//! # san-serve — the concurrent snapshot-serving layer
//!
//! The Google+ SAN measurement pipeline is write-once, read-many at every
//! scale: one writer persists day-indexed snapshots
//! ([`SnapshotVault`](san_graph::store::SnapshotVault)), then **many
//! concurrent readers query historical days** — per-day analytics,
//! dashboards, model-validation jobs, all hitting "give me the network as
//! of day *t*". This crate is that read side:
//!
//! * [`SnapshotServer`] opens a vault and serves
//!   [`get(day)`](SnapshotServer::get) → the nearest persisted snapshot
//!   at or before `day`, as a [`SnapshotHandle`] whose
//!   [`view()`](SnapshotHandle::view) is a zero-copy
//!   [`CsrSanView`](san_graph::view::CsrSanView) over an
//!   `mmap(2)`-backed file — **no column is ever deserialised**; a cold
//!   miss costs one `mmap` + one validation pass, a hit is an `Arc`
//!   clone (one atomic increment).
//! * A **sharded, capacity-bounded LRU** keeps hot days mapped: day keys
//!   spread across independently-locked shards (no global cache lock on
//!   the hit path), and total resident mapped bytes are bounded by
//!   [`ServeConfig::max_resident_bytes`] with least-recently-served
//!   eviction (the byte budget is split near-evenly across shards, the
//!   division remainder going to the lowest-indexed ones so the shard
//!   budgets always sum to the configured bound). Evicted days merely
//!   drop an `Arc`; readers still holding the handle keep the mapping
//!   alive until they finish.
//! * **Per-day single-flight deduplication** of cold misses (the fix for
//!   finding SAN-001): the first thread to miss a day claims that day's
//!   in-flight latch, maps + validates once, and publishes the shared
//!   mapping — or the typed [`StoreError`](san_graph::store::StoreError)
//!   — to every thread that piled up behind it. The latch protocol
//!   (`flight` module) guarantees three things under all interleavings,
//!   model-checked by `loom-lite` in `model_tests.rs`:
//!   1. *one map per herd* — N threads racing one cold day perform
//!      exactly one `mmap` + validation pass;
//!   2. *failures broadcast, never cache* — a failing map hands every
//!      waiter the same typed error and clears the latch, so the next
//!      fetch (after the file is repaired) retries from scratch;
//!   3. *no stranded waiters* — a leader that panics mid-map broadcasts
//!      an abort from its drop guard; waiters loop back and one of them
//!      claims the vacated latch.
//!
//!   Eviction racing a publish stays exact: the cache's byte accounting
//!   is updated under the shard lock, independent of the latch.
//! * **Delta days open onto their resident base.** A v2 vault stores
//!   most days as deltas against an earlier base day. A cold delta
//!   day's leader peeks the cache for the manifest base; when it is
//!   resident, as in a day-by-day sweep, the leader applies just the one
//!   delta onto it
//!   ([`SnapshotVault::map_delta_onto`](san_graph::store::SnapshotVault::map_delta_onto)):
//!   one read and one merge. Otherwise it replays the chain standalone
//!   ([`SnapshotVault::map_day`](san_graph::store::SnapshotVault::map_day)),
//!   caching nothing but the requested day. The peek is not a fetch: it
//!   counts no hit or miss and never joins the base's flight, so flights
//!   never nest (model-checked in `model_tests.rs`).
//! * **Per-day memo of whole-graph aggregates**: each cache entry holds
//!   the mapping *and* a memo slot for its global reciprocity, so a
//!   cache hit, a cold map and a dedup wait on one resident day all share
//!   one slot. [`SnapshotServer::memoised_reciprocity`] fills it on first
//!   request — O(|Es|), under the slot's lock, so a herd computes once —
//!   and answers every repeat in O(1). A persisted day is immutable, so
//!   the value holds for the mapping's whole life; eviction drops the
//!   slot with the mapping, and a re-mapped day (after eviction or a
//!   repaired file) starts empty and recomputes.
//! * [`ServeMetrics`] meters the whole path — hit/miss/eviction
//!   counters, single-flight `dedup_waits`/`dedup_hits` with a
//!   wait-latency histogram, `duplicate_inserts` (redundant maps that
//!   slipped past dedup; held at zero by single-flight), memo
//!   `memo_hits`/`memo_fills` with a fill-latency histogram, per-vault
//!   read bytes and an open/validate latency histogram (reusing
//!   [`VaultMetrics`](san_graph::meter::VaultMetrics), the same shape
//!   the vault itself meters with).
//!
//! Because everything downstream is generic over
//! [`SanRead`](san_graph::SanRead), serving mapped views changes no
//! analytic code and no analytic result: the `mapped_equivalence` suite
//! in `san-metrics` locks mapped-vs-loaded bit-identity down.
//!
//! Unix-only (the mmap substrate lives in `san_graph::mmap`): on other
//! targets this crate compiles to an empty shell so the workspace still
//! builds, and the eager
//! `SnapshotVault::load_day`
//! path remains the portable fallback.

#[cfg(unix)]
pub mod cache;
#[cfg(unix)]
mod flight;
#[cfg(unix)]
mod memo;
#[cfg(unix)]
pub mod metrics;
#[cfg(all(unix, test))]
mod model_tests;
#[cfg(unix)]
pub mod server;

#[cfg(unix)]
pub use metrics::ServeMetrics;
#[cfg(unix)]
pub use server::{FetchKind, ServeConfig, SnapshotHandle, SnapshotServer};
