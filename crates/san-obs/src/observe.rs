//! [`Observe`] implementations for the stack's existing meters.
//!
//! Nothing here rewrites a meter: every series is read through the
//! meters' public lock-free getters, and the names below are the stable
//! dotted contract the ROADMAP's Observability section documents.

use crate::registry::{MetricSink, Observe};
use san_graph::meter::VaultMetrics;

/// Emits one [`VaultMetrics`] under `prefix` (`{prefix}.io.*`,
/// `{prefix}.delta.*`). Shared by the vault layer (`san.vault`) and the
/// serving layer's IO view (`san.serve`), so capacity planning reads one
/// shape on both sides of the cache.
pub(crate) fn observe_vault(m: &VaultMetrics, prefix: &str, sink: &mut dyn MetricSink) {
    let name = |suffix: &str| format!("{prefix}.{suffix}");
    sink.counter(
        &name("io.bytes"),
        "Bytes moved by snapshot IO, by direction (saturating).",
        &[("dir", "read")],
        m.read_bytes(),
    );
    sink.counter(
        &name("io.bytes"),
        "Bytes moved by snapshot IO, by direction (saturating).",
        &[("dir", "write")],
        m.written_bytes(),
    );
    sink.counter(
        &name("io.ops"),
        "Completed snapshot IO operations, by direction.",
        &[("dir", "read")],
        m.reads(),
    );
    sink.counter(
        &name("io.ops"),
        "Completed snapshot IO operations, by direction.",
        &[("dir", "write")],
        m.writes(),
    );
    sink.histogram(
        &name("io.latency"),
        "Snapshot IO latency in nanoseconds, by direction.",
        &[("dir", "read")],
        &m.read_latency().snapshot(),
    );
    sink.histogram(
        &name("io.latency"),
        "Snapshot IO latency in nanoseconds, by direction.",
        &[("dir", "write")],
        &m.write_latency().snapshot(),
    );
    sink.counter(
        &name("delta.chain_loads"),
        "Reads that reconstructed a day through a delta chain.",
        &[],
        m.delta_chain_loads(),
    );
    sink.counter(
        &name("delta.links_applied"),
        "Total delta days applied across chain reconstructions.",
        &[],
        m.delta_links_applied(),
    );
    sink.gauge(
        &name("delta.max_chain_len"),
        "Longest delta chain resolved so far.",
        &[],
        m.max_chain_len() as f64,
    );
}

impl Observe for VaultMetrics {
    fn observe(&self, sink: &mut dyn MetricSink) {
        observe_vault(self, "san.vault", sink);
    }
}

#[cfg(unix)]
impl Observe for san_serve::ServeMetrics {
    fn observe(&self, sink: &mut dyn MetricSink) {
        sink.counter(
            "san.serve.cache.hits",
            "Fetches served from the resident snapshot cache.",
            &[],
            self.hits(),
        );
        sink.counter(
            "san.serve.cache.misses",
            "Fetches that led a cold map+validate.",
            &[],
            self.misses(),
        );
        sink.counter(
            "san.serve.cache.evictions",
            "Snapshots evicted to stay under the resident-byte budget.",
            &[],
            self.evictions(),
        );
        sink.counter(
            "san.serve.cache.duplicate_inserts",
            "Cache inserts that lost to an incumbent (held at zero by single-flight).",
            &[],
            self.duplicate_inserts(),
        );
        sink.counter(
            "san.serve.no_snapshot",
            "Gets for days before the first persisted snapshot.",
            &[],
            self.no_snapshot(),
        );
        sink.counter(
            "san.serve.dedup.waits",
            "Fetches that blocked behind another thread's in-flight map.",
            &[],
            self.dedup_waits(),
        );
        sink.counter(
            "san.serve.dedup.hits",
            "Waits that resolved into a shared mapping (a whole map+validate saved).",
            &[],
            self.dedup_hits(),
        );
        sink.histogram(
            "san.serve.dedup.wait_latency",
            "Single-flight wait latency in nanoseconds.",
            &[],
            &self.dedup_wait_latency().snapshot(),
        );
        sink.counter(
            "san.serve.memo.hits",
            "Whole-graph aggregate reads answered from a resident day's memo.",
            &[],
            self.memo_hits(),
        );
        sink.counter(
            "san.serve.memo.fills",
            "Whole-graph aggregate reads that computed and stored the day's memo.",
            &[],
            self.memo_fills(),
        );
        sink.histogram(
            "san.serve.memo.fill_latency",
            "Memo fill (whole-graph pass) latency in nanoseconds.",
            &[],
            &self.memo_fill_latency().snapshot(),
        );
        observe_vault(self.io(), "san.serve", sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::time::Duration;

    #[derive(Default)]
    struct Names(Vec<String>);

    impl MetricSink for Names {
        fn counter(&mut self, name: &str, _h: &str, _l: &[(&str, &str)], _v: u64) {
            self.0.push(name.to_string());
        }
        fn gauge(&mut self, name: &str, _h: &str, _l: &[(&str, &str)], _v: f64) {
            self.0.push(name.to_string());
        }
        fn histogram(
            &mut self,
            name: &str,
            _h: &str,
            _l: &[(&str, &str)],
            _s: &san_graph::meter::HistogramSnapshot,
        ) {
            self.0.push(name.to_string());
        }
    }

    #[test]
    fn vault_names_are_the_stable_dotted_contract() {
        let m = VaultMetrics::new();
        m.record_read(10, Duration::from_micros(1));
        let mut sink = Names::default();
        m.observe(&mut sink);
        let names: BTreeSet<&str> = sink.0.iter().map(|s| s.as_str()).collect();
        for expect in [
            "san.vault.io.bytes",
            "san.vault.io.ops",
            "san.vault.io.latency",
            "san.vault.delta.chain_loads",
            "san.vault.delta.links_applied",
            "san.vault.delta.max_chain_len",
        ] {
            assert!(names.contains(expect), "missing {expect} in {names:?}");
        }
    }

    #[cfg(unix)]
    #[test]
    fn serve_names_cover_cache_dedup_and_io() {
        let m = san_serve::ServeMetrics::new();
        let mut sink = Names::default();
        m.observe(&mut sink);
        let names: BTreeSet<&str> = sink.0.iter().map(|s| s.as_str()).collect();
        for expect in [
            "san.serve.cache.hits",
            "san.serve.cache.misses",
            "san.serve.cache.evictions",
            "san.serve.cache.duplicate_inserts",
            "san.serve.no_snapshot",
            "san.serve.dedup.waits",
            "san.serve.dedup.hits",
            "san.serve.dedup.wait_latency",
            "san.serve.memo.hits",
            "san.serve.memo.fills",
            "san.serve.memo.fill_latency",
            "san.serve.io.bytes",
            "san.serve.io.latency",
        ] {
            assert!(names.contains(expect), "missing {expect} in {names:?}");
        }
    }
}
