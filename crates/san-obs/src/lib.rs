//! # san-obs — observability for the SAN serving stack
//!
//! The stack's meters ([`VaultMetrics`](san_graph::meter::VaultMetrics),
//! [`ServeMetrics`](san_serve::ServeMetrics), `NetMetrics` in `san-net`)
//! are lock-free in-process structs readable only by Rust code holding
//! the object. This crate makes them observable from outside the
//! process, in three layers:
//!
//! * [`registry`] — the [`Observe`] trait (`fn observe(&self, sink:
//!   &mut dyn MetricSink)`): a source emits every series it owns into
//!   the sink by reading the same relaxed atomics the meters already
//!   expose, so any number of threads scrape concurrently with **no lock
//!   anywhere**. Metric names are stable dotted paths
//!   (`san.vault.io.bytes`, `san.serve.cache.hits`, `san.net.requests`);
//!   histograms export their full power-of-two bucket dump via
//!   [`HistogramSnapshot`].
//! * [`expose`] — a hand-written Prometheus text-exposition (v0.0.4)
//!   encoder, dependency-free per the vendor policy: dotted names are
//!   sanitised to the exposition grammar, label values escaped,
//!   `# HELP`/`# TYPE` emitted once per family, histograms rendered as
//!   cumulative `_bucket{le=...}` series with `+Inf` equal to `_count`
//!   **by construction** (a snapshot's count is the sum of its own
//!   buckets). [`encode_prometheus`] takes the scrape's sources as a
//!   slice of `(base_labels, source)` pairs, base labels merged in
//!   front of each series' own. The encoder is total: any source
//!   contents — hostile names, saturated `u64::MAX` counters — encode
//!   without panicking.
//! * [`trace`] — per-request tracing: a [`RequestTrace`] carries a
//!   request id through decode → admission → fetch → execute → encode
//!   with per-stage nanosecond attribution (stages are measured as
//!   consecutive wall-clock marks, so they sum to the end-to-end time),
//!   and finished traces feed a fixed-size lock-free [`TraceRing`] — the
//!   slow-query log. The ring's per-slot publish protocol is a seqlock
//!   built on `loom-lite` atomics and model-checked in `model_tests`
//!   (readers never observe a torn entry; contended writers drop, never
//!   block).
//!
//! The serving front-end (`san-net`) wires all three together: its
//! admin listener serves `GET /metrics` and `GET /slowlog`, and the SANW
//! `Stats` query returns the same exposition document in-protocol.
//!
//! Everything here is additive: no meter was rewritten, the `Observe`
//! impls read the existing public getters.

mod clock;
pub mod expose;
pub mod registry;
pub mod trace;

mod observe;

#[cfg(test)]
mod model_tests;

pub use expose::encode_prometheus;
pub use registry::{LabelledSource, MetricSink, Observe};
pub use trace::{render_slowlog, FetchClass, RequestTrace, Stage, TraceEntry, TraceRing, STAGES};

pub use san_graph::meter::HistogramSnapshot;
