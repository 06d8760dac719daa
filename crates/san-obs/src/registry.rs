//! The metric source traits: an [`Observe`] source emits its series into
//! a [`MetricSink`]. A scrape hands its sources to
//! [`encode_prometheus`](crate::encode_prometheus) as a plain slice of
//! `(base_labels, source)` pairs; reading the meters' relaxed atomics
//! needs no lock.

use san_graph::meter::HistogramSnapshot;

/// Where an [`Observe`] implementation emits its metrics.
///
/// One call per metric series; `labels` are `(name, value)` pairs owned
/// by the caller for the duration of the call. Names are **stable dotted
/// paths** (`san.serve.cache.hits`): the dots are the cross-layer naming
/// scheme, and each exporter maps them to its own grammar (the
/// Prometheus encoder rewrites `.` to `_`).
pub trait MetricSink {
    /// A monotonically increasing counter (saturating at `u64::MAX`).
    fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64);

    /// A point-in-time value that may move both ways.
    fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64);

    /// A full latency distribution: the consistent bucket dump taken by
    /// [`LatencyHistogram::snapshot`](san_graph::meter::LatencyHistogram::snapshot).
    fn histogram(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        snapshot: &HistogramSnapshot,
    );
}

/// A source of metrics: walks its meters and emits every series into the
/// sink. Implementations read the meters' existing lock-free getters —
/// observing never blocks recording.
///
/// This crate implements it for
/// [`VaultMetrics`](san_graph::meter::VaultMetrics) and (on Unix)
/// [`ServeMetrics`](san_serve::ServeMetrics); `san-net` implements it
/// for its `NetMetrics` next to the type.
pub trait Observe {
    /// Emits every metric series this source owns into `sink`.
    fn observe(&self, sink: &mut dyn MetricSink);
}

/// One scrape input: base label pairs stamped in front of every series
/// the source emits, and the source itself.
pub type LabelledSource<'a> = (&'a [(&'a str, &'a str)], &'a dyn Observe);

/// Walks every `(base_labels, source)` pair into `sink`, in order, each
/// source's base labels merged in front of its series' own labels. One
/// pass is one consistent scrape as far as the meters allow: each
/// histogram is a self-consistent snapshot, counters are point reads.
pub(crate) fn observe_labelled(sources: &[LabelledSource<'_>], sink: &mut dyn MetricSink) {
    for (base, source) in sources {
        source.observe(&mut BaseLabelSink { base, inner: sink });
    }
}

/// Sink adapter that prepends a source's base labels to every series.
struct BaseLabelSink<'a> {
    base: &'a [(&'a str, &'a str)],
    inner: &'a mut dyn MetricSink,
}

/// Base labels first, series labels after (exporters resolve name
/// collisions first-wins, so base labels dominate).
fn merged<'s>(
    base: &[(&'s str, &'s str)],
    labels: &[(&'s str, &'s str)],
) -> Vec<(&'s str, &'s str)> {
    let mut out = Vec::with_capacity(base.len() + labels.len());
    out.extend_from_slice(base);
    out.extend_from_slice(labels);
    out
}

impl MetricSink for BaseLabelSink<'_> {
    fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        let all = merged(self.base, labels);
        self.inner.counter(name, help, &all, value);
    }

    fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        let all = merged(self.base, labels);
        self.inner.gauge(name, help, &all, value);
    }

    fn histogram(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        snapshot: &HistogramSnapshot,
    ) {
        let all = merged(self.base, labels);
        self.inner.histogram(name, help, &all, snapshot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use san_graph::meter::LatencyHistogram;

    /// One recorded emission: metric name, label pairs, rendered value.
    pub(crate) type Row = (String, Vec<(String, String)>, String);

    /// A sink that records what it saw, for asserting emission order and
    /// label merging.
    #[derive(Default)]
    pub(crate) struct RecordingSink {
        pub rows: Vec<Row>,
    }

    impl MetricSink for RecordingSink {
        fn counter(&mut self, name: &str, _help: &str, labels: &[(&str, &str)], value: u64) {
            self.rows.push((
                name.to_string(),
                labels
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
                value.to_string(),
            ));
        }

        fn gauge(&mut self, name: &str, _help: &str, labels: &[(&str, &str)], value: f64) {
            self.rows.push((
                name.to_string(),
                labels
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
                value.to_string(),
            ));
        }

        fn histogram(
            &mut self,
            name: &str,
            _help: &str,
            labels: &[(&str, &str)],
            snapshot: &HistogramSnapshot,
        ) {
            self.rows.push((
                name.to_string(),
                labels
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
                format!("hist:{}", snapshot.count()),
            ));
        }
    }

    struct OneCounter(u64);

    impl Observe for OneCounter {
        fn observe(&self, sink: &mut dyn MetricSink) {
            sink.counter("test.one", "a test counter", &[("kind", "unit")], self.0);
        }
    }

    struct OneHistogram(LatencyHistogram);

    impl Observe for OneHistogram {
        fn observe(&self, sink: &mut dyn MetricSink) {
            sink.histogram("test.lat", "a test histogram", &[], &self.0.snapshot());
        }
    }

    #[test]
    fn base_labels_merge_in_front() {
        let mut sink = RecordingSink::default();
        observe_labelled(
            &[(&[("layer", "net")], &OneCounter(7)), (&[], &OneCounter(9))],
            &mut sink,
        );
        assert_eq!(sink.rows.len(), 2);
        assert_eq!(sink.rows[0].0, "test.one");
        assert_eq!(
            sink.rows[0].1,
            vec![
                ("layer".to_string(), "net".to_string()),
                ("kind".to_string(), "unit".to_string())
            ]
        );
        assert_eq!(sink.rows[0].2, "7");
        assert_eq!(sink.rows[1].1.len(), 1, "no base labels when none set");
        assert_eq!(sink.rows[1].2, "9");
    }

    #[test]
    fn histograms_flow_through_as_snapshots() {
        let h = LatencyHistogram::new();
        h.record(std::time::Duration::from_micros(3));
        h.record(std::time::Duration::from_micros(5));
        let mut sink = RecordingSink::default();
        observe_labelled(&[(&[("layer", "vault")], &OneHistogram(h))], &mut sink);
        assert_eq!(sink.rows[0].2, "hist:2");
        assert_eq!(
            sink.rows[0].1,
            vec![("layer".to_string(), "vault".to_string())]
        );
    }

    #[test]
    fn empty_source_list_is_fine() {
        let mut sink = RecordingSink::default();
        observe_labelled(&[], &mut sink);
        assert!(sink.rows.is_empty());
        assert_eq!(crate::encode_prometheus(&[]), "");
    }
}
