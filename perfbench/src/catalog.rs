//! The one list of metric names and units this benchmark prints.
//!
//! Every workload prints every end-to-end metric (untraced runs) or
//! every layer metric (traced runs). A layer metric names one layer of
//! the system, not one workload, so a workload that never enters a layer
//! prints 0 for it: `exp.fig15_s` is 0 on `serve_scan` because serving
//! never computes a likelihood.

use std::collections::BTreeMap;

/// End-to-end metrics: what a user of the workload sees.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_pct", "%"),
];

/// Layer metrics, printed only by traced runs.
pub const PER_LAYER: &[(&str, &str)] = &[
    // san-core + san-sim generation, san-graph crawler (repro set-up).
    ("setup.generate_s", "s"),
    ("setup.crawl_s", "s"),
    // One paper experiment each (`san_bench::exp::ALL`).
    ("exp.fig2_s", "s"),
    ("exp.fig3_s", "s"),
    ("exp.coverage_s", "s"),
    ("exp.fig4_s", "s"),
    ("exp.fig5_s", "s"),
    ("exp.fig6_s", "s"),
    ("exp.fig7_s", "s"),
    ("exp.fig8_s", "s"),
    ("exp.fig9_s", "s"),
    ("exp.fig10_s", "s"),
    ("exp.fig11_s", "s"),
    ("exp.fig12_s", "s"),
    ("exp.fig13_s", "s"),
    ("exp.fig14_s", "s"),
    ("exp.fig15_s", "s"),
    ("exp.closure_s", "s"),
    ("exp.fig16_s", "s"),
    ("exp.fig17_s", "s"),
    ("exp.fig18_s", "s"),
    ("exp.fig19_s", "s"),
    ("exp.theory_s", "s"),
    ("exp.alg2_s", "s"),
    // Streaming synthesis, delta-freeze + codec + vault write.
    ("synth_s", "s"),
    ("events", "count"),
    ("persist_s", "s"),
    ("days_persisted", "count"),
    ("vault_bytes", "bytes"),
    ("v1_equiv_bytes", "bytes"),
    // v2 decode through the serve cache (cold), and what stays resident.
    ("open_full_s", "s"),
    ("open_delta_s", "s"),
    ("delta_links_applied", "count"),
    ("resident_mib", "MiB"),
    // san-metrics kernels over mapped views.
    ("sweep.clustering_s", "s"),
    ("sweep.reciprocity_s", "s"),
    // SANW serving, from per-request client samples (untraced server).
    ("ok_rps", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("rtt.degrees_p50_us", "us"),
    ("rtt.has_link_p50_us", "us"),
    ("rtt.out_neighbors_p50_us", "us"),
    ("rtt.common_neighbors_p50_us", "us"),
    ("rtt.local_clustering_p50_us", "us"),
    ("net.transport_mean_us", "us"),
    ("net.server_mean_us", "us"),
    ("serve.hit_pct", "%"),
    // Per-stage medians from the traced server's ring.
    ("trace.decode_us", "us"),
    ("trace.admission_us", "us"),
    ("trace.fetch_us", "us"),
    ("trace.execute_us", "us"),
    ("trace.encode_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.dropped", "count"),
    // What the layer sums leave unexplained: of `wall_s` for repro and
    // pipeline, of the mean round trip for the serve workloads.
    ("trace.unattributed_pct", "%"),
];

/// Which list a run prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    EndToEnd,
    PerLayer,
}

impl Mode {
    pub fn list(self) -> &'static [(&'static str, &'static str)] {
        match self {
            Mode::EndToEnd => END_TO_END,
            Mode::PerLayer => PER_LAYER,
        }
    }
}

/// Metric values a run measured, keyed by catalog name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Records `value` under `name`, which must be in the catalog.
    pub fn set(&mut self, name: &str, value: f64) {
        let known = END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name);
        let (name, _) = known.unwrap_or_else(|| panic!("metric `{name}` is not in the catalog"));
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The `"metrics"` JSON object for `mode`: every metric of the list,
    /// layers this workload never entered as 0. A missing end-to-end
    /// metric or a non-finite value is an error.
    pub fn to_json(&self, mode: Mode) -> Result<String, String> {
        let mut parts = Vec::new();
        for (name, unit) in mode.list() {
            let value = match (self.get(name), mode) {
                (Some(v), _) => v,
                (None, Mode::PerLayer) => 0.0,
                (None, Mode::EndToEnd) => return Err(format!("no value for `{name}`")),
            };
            if !value.is_finite() {
                return Err(format!("`{name}` is not finite: {value}"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}
