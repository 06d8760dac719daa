//! Hand-written Prometheus text-exposition (v0.0.4) encoder.
//!
//! No registry deps per the vendor policy: the whole format is a few
//! line shapes, so this module owns them outright.
//!
//! * Dotted metric names are sanitised to the exposition grammar
//!   (`[a-zA-Z_:][a-zA-Z0-9_:]*`): `.` and every other invalid byte
//!   become `_`. A leading digit is replaced by `_`, not prefixed
//!   (`9lives` → `_lives`), and an empty name becomes `_`. Label names
//!   sanitise the same way minus the colon.
//! * Label values are escaped per the spec (`\` → `\\`, `"` → `\"`,
//!   newline → `\n`); `# HELP` text escapes `\` and newlines.
//! * `# HELP` and `# TYPE` are emitted exactly once per family, HELP
//!   first, immediately followed by the family's samples — series of the
//!   same name from different sources are grouped under one header even
//!   when interleaved at emission.
//! * Histograms render the **full bucket dump**: one cumulative
//!   `_bucket{le="..."}` line per power-of-two bucket (inclusive upper
//!   bounds, since samples are integer nanoseconds), a `+Inf` bucket,
//!   then `_sum` and `_count`. Because a [`HistogramSnapshot`]'s count
//!   is the sum of its own buckets, `+Inf == _count` holds even while
//!   recorders race the scrape.
//!
//! The encoder is **total**: name collisions across metric kinds keep
//! the first kind and drop the conflicting series (a scrape must never
//! panic), duplicate label names keep the first occurrence, and a
//! histogram label literally named `le` is renamed `le_` so it cannot
//! forge bucket bounds.

use crate::registry::{observe_labelled, LabelledSource, MetricSink};
use san_graph::meter::{HistogramSnapshot, BUCKETS};
use std::collections::HashMap;
use std::fmt::Write;

/// Encodes one lock-free pass over `sources` as Prometheus text
/// exposition (v0.0.4). Each source is a `(base_labels, source)` pair;
/// the base labels are stamped in front of every series the source emits
/// (first occurrence wins, so they dominate the series' own labels).
/// Never panics, whatever the sources emit.
pub fn encode_prometheus(sources: &[LabelledSource<'_>]) -> String {
    let mut collector = Collector::default();
    observe_labelled(sources, &mut collector);
    collector.render()
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

enum Value {
    Counter(u64),
    Gauge(f64),
    // Boxed: a snapshot is ~340 bytes of bucket counts, and most series
    // are 8-byte counters — keep the common variant small.
    Histogram(Box<HistogramSnapshot>),
}

struct Series {
    /// Sanitised label names with raw (unescaped) values; escaping
    /// happens at render time.
    labels: Vec<(String, String)>,
    value: Value,
}

struct Family {
    name: String,
    help: String,
    kind: Kind,
    series: Vec<Series>,
}

/// A [`MetricSink`] that groups emissions into families so headers come
/// out once and samples stay contiguous.
#[derive(Default)]
pub(crate) struct Collector {
    families: Vec<Family>,
    index: HashMap<String, usize>,
}

impl Collector {
    fn push(&mut self, name: &str, help: &str, labels: &[(&str, &str)], kind: Kind, value: Value) {
        let name = sanitize_metric_name(name);
        let at = match self.index.get(&name) {
            Some(&at) => {
                if self.families[at].kind != kind {
                    // Kind collision: a family cannot mix types. First
                    // registration wins; the conflicting series is
                    // dropped — the scrape stays total and parseable.
                    return;
                }
                at
            }
            None => {
                self.families.push(Family {
                    name: name.clone(),
                    help: help.to_string(),
                    kind,
                    series: Vec::new(),
                });
                self.index.insert(name, self.families.len() - 1);
                self.families.len() - 1
            }
        };
        let mut clean: Vec<(String, String)> = Vec::with_capacity(labels.len());
        for (k, v) in labels {
            let mut k = sanitize_label_name(k);
            if kind == Kind::Histogram && k == "le" {
                // A user label named `le` would forge bucket bounds.
                k.push('_');
            }
            if clean.iter().any(|(existing, _)| *existing == k) {
                continue; // duplicate label name: first occurrence wins
            }
            clean.push((k, v.to_string()));
        }
        self.families[at].series.push(Series {
            labels: clean,
            value,
        });
    }

    fn render(self) -> String {
        let mut out = String::new();
        for family in &self.families {
            let _ = writeln!(out, "# HELP {} {}", family.name, escape_help(&family.help));
            let _ = writeln!(out, "# TYPE {} {}", family.name, family.kind.as_str());
            for series in &family.series {
                match &series.value {
                    Value::Counter(v) => {
                        let _ = writeln!(
                            out,
                            "{}{} {}",
                            family.name,
                            render_labels(&series.labels, None),
                            v
                        );
                    }
                    Value::Gauge(v) => {
                        let _ = writeln!(
                            out,
                            "{}{} {}",
                            family.name,
                            render_labels(&series.labels, None),
                            render_f64(*v)
                        );
                    }
                    Value::Histogram(snap) => {
                        let mut cumulative = 0u64;
                        for (i, count) in snap.buckets().iter().enumerate() {
                            cumulative = cumulative.saturating_add(*count);
                            if i == BUCKETS - 1 {
                                break; // last bucket is the +Inf line below
                            }
                            let le = HistogramSnapshot::bucket_upper_nanos(i).to_string();
                            let _ = writeln!(
                                out,
                                "{}_bucket{} {}",
                                family.name,
                                render_labels(&series.labels, Some(&le)),
                                cumulative
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {}",
                            family.name,
                            render_labels(&series.labels, Some("+Inf")),
                            snap.count()
                        );
                        let _ = writeln!(
                            out,
                            "{}_sum{} {}",
                            family.name,
                            render_labels(&series.labels, None),
                            snap.sum_nanos()
                        );
                        let _ = writeln!(
                            out,
                            "{}_count{} {}",
                            family.name,
                            render_labels(&series.labels, None),
                            snap.count()
                        );
                    }
                }
            }
        }
        out
    }
}

impl MetricSink for Collector {
    fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        self.push(name, help, labels, Kind::Counter, Value::Counter(value));
    }

    fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.push(name, help, labels, Kind::Gauge, Value::Gauge(value));
    }

    fn histogram(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        snapshot: &HistogramSnapshot,
    ) {
        self.push(
            name,
            help,
            labels,
            Kind::Histogram,
            Value::Histogram(Box::new(*snapshot)),
        );
    }
}

/// `{a="b",c="d"}` with spec escaping, or `""` when empty; `le` (already
/// rendered) is appended last when present.
fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{}=\"{}\"", k, escape_label_value(v));
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "le=\"{le}\"");
    }
    out.push('}');
    out
}

/// Metric names: `[a-zA-Z_:][a-zA-Z0-9_:]*`; dots (our naming scheme)
/// and every other invalid byte become `_`.
pub(crate) fn sanitize_metric_name(name: &str) -> String {
    sanitize_name(name, true)
}

/// Label names: like metric names but without the colon.
pub(crate) fn sanitize_label_name(name: &str) -> String {
    sanitize_name(name, false)
}

fn sanitize_name(name: &str, allow_colon: bool) -> String {
    let mut out = String::with_capacity(name.len().max(1));
    for (i, c) in name.chars().enumerate() {
        let valid = c.is_ascii_alphabetic()
            || c == '_'
            || (allow_colon && c == ':')
            || (i > 0 && c.is_ascii_digit());
        out.push(if valid { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Label-value escaping: backslash, double-quote, newline.
pub(crate) fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// HELP-text escaping: backslash and newline only (quotes are legal).
pub(crate) fn escape_help(help: &str) -> String {
    let mut out = String::with_capacity(help.len());
    for c in help.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Go-style float rendering (`+Inf`/`-Inf`/`NaN`), total for any f64.
fn render_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Observe;
    use san_graph::meter::LatencyHistogram;
    use std::time::Duration;

    struct Sample;

    impl Observe for Sample {
        fn observe(&self, sink: &mut dyn MetricSink) {
            sink.counter(
                "san.test.requests",
                "Requests seen.",
                &[("q", "counts")],
                41,
            );
            sink.counter(
                "san.test.requests",
                "Requests seen.",
                &[("q", "degrees")],
                1,
            );
            sink.gauge("san.test.resident", "Resident bytes.", &[], 12.5);
            let h = LatencyHistogram::new();
            h.record(Duration::from_nanos(3));
            h.record(Duration::from_nanos(900));
            sink.histogram("san.test.latency", "Latency.", &[], &h.snapshot());
        }
    }

    #[test]
    fn renders_families_headers_and_samples() {
        let text = encode_prometheus(&[(&[("layer", "net")], &Sample)]);
        assert!(text.contains("# HELP san_test_requests Requests seen.\n"));
        assert!(text.contains("# TYPE san_test_requests counter\n"));
        assert!(text.contains("san_test_requests{layer=\"net\",q=\"counts\"} 41\n"));
        assert!(text.contains("san_test_requests{layer=\"net\",q=\"degrees\"} 1\n"));
        assert!(text.contains("# TYPE san_test_resident gauge\n"));
        assert!(text.contains("san_test_resident{layer=\"net\"} 12.5\n"));
        assert!(text.contains("# TYPE san_test_latency histogram\n"));
        // Bucket 1 ([2,4) ns) holds the 3 ns sample cumulatively with
        // bucket 0 (empty): le="3" is 2^2 - 1.
        assert!(text.contains("san_test_latency_bucket{layer=\"net\",le=\"3\"} 1\n"));
        assert!(text.contains("san_test_latency_bucket{layer=\"net\",le=\"+Inf\"} 2\n"));
        assert!(text.contains("san_test_latency_sum{layer=\"net\"} 903\n"));
        assert!(text.contains("san_test_latency_count{layer=\"net\"} 2\n"));
    }

    #[test]
    fn headers_come_once_even_when_sources_interleave() {
        let text = encode_prometheus(&[(&[("i", "0")], &Sample), (&[("i", "1")], &Sample)]);
        assert_eq!(text.matches("# TYPE san_test_requests counter").count(), 1);
        assert_eq!(text.matches("# HELP san_test_requests ").count(), 1);
        // Both sources' series are present under the single header.
        assert!(text.contains("san_test_requests{i=\"0\",q=\"counts\"} 41"));
        assert!(text.contains("san_test_requests{i=\"1\",q=\"counts\"} 41"));
    }

    #[test]
    fn sanitizes_names_and_escapes_values() {
        assert_eq!(
            sanitize_metric_name("san.vault.io.bytes"),
            "san_vault_io_bytes"
        );
        assert_eq!(sanitize_metric_name("9lives"), "_lives");
        assert_eq!(sanitize_metric_name(""), "_");
        assert_eq!(sanitize_metric_name("a:b"), "a:b");
        assert_eq!(sanitize_label_name("a:b"), "a_b");
        assert_eq!(escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_help("x\\y\nz"), "x\\\\y\\nz");
    }

    #[test]
    fn kind_collisions_drop_later_series_not_the_process() {
        struct Clash;
        impl Observe for Clash {
            fn observe(&self, sink: &mut dyn MetricSink) {
                sink.counter("san.same", "first", &[], 1);
                sink.gauge("san.same", "second", &[], 2.0);
            }
        }
        let text = encode_prometheus(&[(&[], &Clash)]);
        assert!(text.contains("# TYPE san_same counter"));
        assert!(!text.contains("# TYPE san_same gauge"));
        assert!(text.contains("san_same 1\n"));
        assert!(!text.contains("san_same 2\n"));
    }

    #[test]
    fn saturated_counters_and_weird_floats_encode() {
        struct Extremes;
        impl Observe for Extremes {
            fn observe(&self, sink: &mut dyn MetricSink) {
                sink.counter("san.max", "pinned", &[], u64::MAX);
                sink.gauge("san.nan", "nan", &[], f64::NAN);
                sink.gauge("san.inf", "inf", &[], f64::INFINITY);
                sink.gauge("san.ninf", "ninf", &[], f64::NEG_INFINITY);
            }
        }
        let text = encode_prometheus(&[(&[], &Extremes)]);
        assert!(text.contains(&format!("san_max {}\n", u64::MAX)));
        assert!(text.contains("san_nan NaN\n"));
        assert!(text.contains("san_inf +Inf\n"));
        assert!(text.contains("san_ninf -Inf\n"));
    }
}
