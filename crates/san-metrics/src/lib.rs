//! # san-metrics — every measurement of the Google+ SAN paper
//!
//! This crate implements the full measurement toolkit of
//! *"Evolution of Social-Attribute Networks"* (Gong et al., IMC 2012),
//! sections 3, 4 and Appendix A:
//!
//! | Paper § | Metric | Module |
//! |---------|--------|--------|
//! | 3.1 / 4.2 | global + fine-grained reciprocity `r_{s,a}` | [`reciprocity`] |
//! | 3.2 / 4.1 | social + attribute density | [`density`] |
//! | 3.3 / 4.1 | effective social + attribute diameter (HyperANF) | [`hyperanf`] |
//! | 3.4 / 4.1 / App. A | clustering coefficients, exact and the constant-time Algorithm 2 | [`clustering`] |
//! | 3.5 / 4.1 | four degree distributions + lognormal/power-law best fits | [`degree_dist`] |
//! | 3.6 / 4.1 | `knn` degree correlation + assortativity (social & attribute) | [`jdd`] |
//! | 4.2 | attribute influence on degree / closure mix | [`influence`] |
//! | 4.3 | subsampling validation | [`validate`] |
//! | §2 figs 2–4 etc. | per-day metric evolution over a timeline | [`evolution`] |
//!
//! Beyond the paper's figures, [`community`] provides classical and
//! attribute-augmented label propagation (the §3.4 "dynamic community
//! detection" direction). Per-day sweeps ride the incremental snapshot
//! pipeline: [`evolution::evolve_metric`] patches each sampled day's CSR
//! forward from the previous day (no replay-per-day) and either measures
//! it on the caller thread or streams it through a bounded channel to
//! worker threads with O(threads × E) peak memory.
//!
//! The hot per-node sweeps also come in **shard-parallel** form over a
//! range-partitioned [`san_graph::ShardedCsrSan`], so a *single* snapshot
//! can saturate the machine: [`clustering::average_clustering_sharded`],
//! [`reciprocity::global_reciprocity_sharded`],
//! [`degree_dist::degree_vectors_sharded`], [`jdd::social_knn_sharded`] /
//! [`jdd::social_assortativity_sharded`], and
//! [`hyperanf::social_effective_diameter_sharded`]; each decomposes into
//! per-shard partials plus an explicit associative merge, proven
//! equivalent to the sequential answer by the `shard_equivalence` suite.
//! A sweep metric combines both axes (days × shards) by wrapping the
//! `Arc<CsrSan>` day it is handed in a `ShardedCsrSan` of its own.
//!
//! All heavy metrics take an explicit RNG so runs are deterministic, and all
//! approximation knobs (`ε`, `ν`, HyperANF register width) default to the
//! paper's operating points.

pub mod clustering;
pub mod community;
pub mod degree_dist;
pub mod density;
pub mod evolution;
pub mod hyperanf;
pub mod influence;
pub mod jdd;
pub mod reciprocity;
pub mod validate;

pub use clustering::{
    approx_average_clustering, average_clustering_exact, average_clustering_sharded,
    clustering_by_degree, local_clustering_attr, local_clustering_social, NodeSet,
};
pub use degree_dist::{
    degree_vectors_sharded, fit_san_degrees, fit_san_degrees_sharded, SanDegreeFits,
};
pub use density::{attr_density, social_density};
pub use evolution::{
    evolve_metric, evolve_metric_counts, MetricSeries, Phase, PhaseBounds, SnapshotSource,
};
pub use hyperanf::{
    attribute_effective_diameter, effective_diameter_from_nf, neighborhood_function_sharded,
    social_effective_diameter, social_effective_diameter_sharded, HyperLogLog,
};
pub use jdd::{
    attribute_assortativity, attribute_knn, attribute_knn_sharded, social_assortativity,
    social_assortativity_sharded, social_knn, social_knn_sharded,
};
pub use reciprocity::{
    fine_grained_reciprocity, global_reciprocity, global_reciprocity_sharded, ReciprocityCell,
};
