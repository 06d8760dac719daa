//! Property lockdown for the Prometheus text-exposition encoder: any
//! source contents — hostile metric/label names, spec-significant
//! characters in label values, saturated `u64::MAX` counters, extreme
//! histogram samples — encode to text that a line-grammar parser accepts
//! (`# HELP`/`# TYPE` once per family in that order, samples contiguous
//! under their header, histogram `le` buckets strictly increasing and
//! cumulative with `+Inf` equal to `_count`), and well-named series
//! round-trip exactly (names sanitised, label values
//! escape→unescape-identical, values digit-exact). Case counts honour
//! the `PROPTEST_CASES` env cap.

use proptest::prelude::*;
use san_graph::meter::LatencyHistogram;
use san_obs::{encode_prometheus, MetricSink, Observe};
use std::time::Duration;

// ---------------------------------------------------------------- inputs

/// One metric emission, driven through a real `Observe` source.
#[derive(Debug, Clone)]
enum Emit {
    Counter(u64),
    Gauge(f64),
    /// Nanosecond samples recorded into a fresh histogram.
    Histogram(Vec<u64>),
}

#[derive(Debug, Clone)]
struct Spec {
    name: String,
    labels: Vec<(String, String)>,
    emit: Emit,
}

struct Source(Vec<Spec>);

impl Observe for Source {
    fn observe(&self, sink: &mut dyn MetricSink) {
        for spec in &self.0 {
            let labels: Vec<(&str, &str)> = spec
                .labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            match &spec.emit {
                Emit::Counter(v) => sink.counter(&spec.name, "prop counter", &labels, *v),
                Emit::Gauge(v) => sink.gauge(&spec.name, "prop gauge", &labels, *v),
                Emit::Histogram(samples) => {
                    let h = LatencyHistogram::new();
                    for nanos in samples {
                        h.record(Duration::from_nanos(*nanos));
                    }
                    sink.histogram(&spec.name, "prop histogram", &labels, &h.snapshot());
                }
            }
        }
    }
}

/// Encodes `specs` as the scrape's single source, under `base` labels.
fn encode_one(specs: Vec<Spec>, base: &[(&str, &str)]) -> String {
    encode_prometheus(&[(base, &Source(specs))])
}

/// Strings over a palette that includes every spec-significant byte.
const HOSTILE: &[char] = &[
    'a', 'Z', '9', '.', ':', '_', '-', ' ', '"', '\\', '\n', '{', '}', '=', ',', 'µ',
];

fn arb_hostile_string() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u8>(), 0..10).prop_map(|bytes| {
        bytes
            .iter()
            .map(|b| HOSTILE[*b as usize % HOSTILE.len()])
            .collect()
    })
}

fn arb_emit() -> impl Strategy<Value = Emit> {
    prop_oneof![
        any::<u64>().prop_map(Emit::Counter),
        Just(Emit::Counter(u64::MAX)),
        any::<f64>().prop_map(Emit::Gauge),
        prop::collection::vec(any::<u64>(), 0..8).prop_map(Emit::Histogram),
    ]
}

fn arb_hostile_spec() -> impl Strategy<Value = Spec> {
    (
        arb_hostile_string(),
        prop::collection::vec((arb_hostile_string(), arb_hostile_string()), 0..3),
        arb_emit(),
    )
        .prop_map(|(name, labels, emit)| Spec { name, labels, emit })
}

// ------------------------------------------------------------- the parser

#[derive(Debug)]
struct Sample {
    name: String,
    /// Label names with **unescaped** values, in line order (minus `le`).
    labels: Vec<(String, String)>,
    /// `le` bound when present on a `_bucket` line.
    le: Option<String>,
    /// Raw value text (digit-exact for integers).
    value: String,
}

#[derive(Debug)]
struct Family {
    name: String,
    kind: String,
    samples: Vec<Sample>,
}

fn assert_metric_name(name: &str) {
    assert!(!name.is_empty(), "empty metric name");
    let mut chars = name.chars();
    let first = chars.next().unwrap();
    assert!(
        first.is_ascii_alphabetic() || first == '_' || first == ':',
        "bad metric name start: {name:?}"
    );
    assert!(
        chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
        "bad metric name: {name:?}"
    );
}

fn assert_label_name(name: &str) {
    assert!(!name.is_empty(), "empty label name");
    let mut chars = name.chars();
    let first = chars.next().unwrap();
    assert!(
        first.is_ascii_alphabetic() || first == '_',
        "bad label name start: {name:?}"
    );
    assert!(
        chars.all(|c| c.is_ascii_alphanumeric() || c == '_'),
        "bad label name: {name:?}"
    );
}

fn assert_value(value: &str) {
    let ok = matches!(value, "+Inf" | "-Inf" | "NaN") || value.parse::<f64>().is_ok();
    assert!(ok, "bad sample value: {value:?}");
}

/// Parses `name{k="v",...}` (label values unescaped) or bare `name`.
fn parse_sample(line: &str) -> Sample {
    let (head, value) = line.rsplit_once(' ').expect("sample line has a value");
    assert_value(value);
    let Some((name, rest)) = head.split_once('{') else {
        assert_metric_name(head);
        return Sample {
            name: head.to_string(),
            labels: Vec::new(),
            le: None,
            value: value.to_string(),
        };
    };
    assert_metric_name(name);
    let inner = rest.strip_suffix('}').expect("label block closes");
    let mut labels = Vec::new();
    let mut le = None;
    let mut chars = inner.chars().peekable();
    loop {
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        assert_label_name(&key);
        assert_eq!(chars.next(), Some('"'), "label value opens with a quote");
        let mut val = String::new();
        loop {
            match chars.next().expect("label value terminates") {
                '"' => break,
                '\\' => match chars.next().expect("escape has a payload") {
                    '\\' => val.push('\\'),
                    '"' => val.push('"'),
                    'n' => val.push('\n'),
                    other => panic!("invalid escape \\{other}"),
                },
                '\n' => panic!("raw newline inside a label value"),
                c => val.push(c),
            }
        }
        if key == "le" {
            assert!(le.is_none(), "two le labels");
            le = Some(val);
        } else {
            assert!(
                labels.iter().all(|(k, _)| *k != key),
                "duplicate label {key:?} in {line:?}"
            );
            labels.push((key, val));
        }
        match chars.next() {
            None => break,
            Some(',') => continue,
            Some(other) => panic!("expected ',' or end of labels, got {other:?}"),
        }
    }
    Sample {
        name: name.to_string(),
        labels,
        le,
        value: value.to_string(),
    }
}

/// Parses a whole exposition document, asserting the line grammar and
/// the header discipline as it goes.
fn parse_exposition(text: &str) -> Vec<Family> {
    let mut families: Vec<Family> = Vec::new();
    let mut pending_help: Option<String> = None;
    for line in text.lines() {
        assert!(!line.is_empty(), "blank line in exposition");
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, _help) = rest.split_once(' ').unwrap_or((rest, ""));
            assert_metric_name(name);
            assert!(pending_help.is_none(), "HELP not followed by TYPE");
            assert!(
                families.iter().all(|f| f.name != name),
                "family {name} emitted twice"
            );
            pending_help = Some(name.to_string());
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE names a kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown kind {kind:?}"
            );
            assert_eq!(
                pending_help.take().as_deref(),
                Some(name),
                "HELP must immediately precede TYPE for {name}"
            );
            families.push(Family {
                name: name.to_string(),
                kind: kind.to_string(),
                samples: Vec::new(),
            });
        } else {
            assert!(pending_help.is_none(), "sample between HELP and TYPE");
            let family = families.last_mut().expect("sample before any header");
            let sample = parse_sample(line);
            if family.kind == "histogram" {
                let suffix_ok = sample.name == format!("{}_bucket", family.name)
                    || sample.name == format!("{}_sum", family.name)
                    || sample.name == format!("{}_count", family.name);
                assert!(
                    suffix_ok,
                    "histogram sample {} outside family {}",
                    sample.name, family.name
                );
            } else {
                assert_eq!(sample.name, family.name, "sample under the wrong header");
            }
            family.samples.push(sample);
        }
    }
    assert!(pending_help.is_none(), "trailing HELP without TYPE");
    families
}

/// Per-histogram-series invariants: `le` strictly increasing with
/// `+Inf` last, cumulative counts non-decreasing, `+Inf == _count`,
/// `_sum` present.
fn assert_histogram_invariants(family: &Family) {
    let mut series: Vec<String> = family
        .samples
        .iter()
        .map(|s| format!("{:?}", s.labels))
        .collect();
    series.sort();
    series.dedup();
    for key in series {
        let of_series: Vec<&Sample> = family
            .samples
            .iter()
            .filter(|s| format!("{:?}", s.labels) == key)
            .collect();
        let buckets: Vec<&&Sample> = of_series
            .iter()
            .filter(|s| s.name.ends_with("_bucket"))
            .collect();
        assert!(!buckets.is_empty(), "histogram series without buckets");
        let mut last_le: Option<u64> = None;
        let mut last_cum: u64 = 0;
        for (i, bucket) in buckets.iter().enumerate() {
            let le = bucket.le.as_deref().expect("_bucket line carries le");
            let cum: u64 = bucket.value.parse().expect("cumulative count is integral");
            assert!(cum >= last_cum, "bucket counts must be cumulative");
            last_cum = cum;
            if i == buckets.len() - 1 {
                assert_eq!(le, "+Inf", "last bucket is +Inf");
            } else {
                let le: u64 = le.parse().expect("finite le bounds are integers");
                assert!(last_le.is_none_or(|prev| le > prev), "le must increase");
                last_le = Some(le);
            }
        }
        let count = of_series
            .iter()
            .find(|s| s.name.ends_with("_count"))
            .expect("histogram has _count");
        assert_eq!(
            buckets.last().unwrap().value,
            count.value,
            "+Inf bucket equals _count"
        );
        assert!(
            of_series.iter().any(|s| s.name.ends_with("_sum")),
            "histogram has _sum"
        );
    }
}

// --------------------------------------------------------------- the props

proptest! {
    /// Whatever a source emits — hostile names, label names, values,
    /// saturated counters, extreme histogram samples — the encoder
    /// neither panics nor emits a line the grammar parser rejects.
    #[test]
    fn any_contents_encode_to_parseable_exposition(
        specs in prop::collection::vec(arb_hostile_spec(), 0..8),
        base_value in arb_hostile_string(),
    ) {
        let text = encode_one(specs, &[("layer", base_value.as_str())]);
        let families = parse_exposition(&text);
        for family in &families {
            assert!(!family.samples.is_empty(), "headers imply samples");
            if family.kind == "histogram" {
                assert_histogram_invariants(family);
            }
        }
    }

    /// Well-named series survive the trip exactly: dotted names map to
    /// underscores, hostile label *values* unescape back to themselves,
    /// and counter values are digit-exact (u64::MAX included).
    #[test]
    fn well_named_series_round_trip_exactly(
        value in any::<u64>(),
        label_value in arb_hostile_string(),
        samples in prop::collection::vec(0u64..1_000_000, 1..8),
    ) {
        let specs = vec![
            Spec {
                name: "san.prop.counter".into(),
                labels: vec![("kind".into(), label_value.clone())],
                emit: Emit::Counter(value),
            },
            Spec {
                name: "san.prop.latency".into(),
                labels: vec![],
                emit: Emit::Histogram(samples.clone()),
            },
        ];
        let text = encode_one(specs, &[("layer", "prop")]);
        let families = parse_exposition(&text);

        let counter = families
            .iter()
            .find(|f| f.name == "san_prop_counter")
            .expect("counter family present");
        assert_eq!(counter.kind, "counter");
        assert_eq!(counter.samples.len(), 1);
        assert_eq!(counter.samples[0].value, value.to_string());
        assert_eq!(
            counter.samples[0].labels,
            vec![
                ("layer".to_string(), "prop".to_string()),
                ("kind".to_string(), label_value.clone()),
            ],
            "label values must unescape back to the original"
        );

        let hist = families
            .iter()
            .find(|f| f.name == "san_prop_latency")
            .expect("histogram family present");
        assert_eq!(hist.kind, "histogram");
        assert_histogram_invariants(hist);
        let count = hist
            .samples
            .iter()
            .find(|s| s.name.ends_with("_count"))
            .unwrap();
        assert_eq!(count.value, samples.len().to_string());
        let sum = hist.samples.iter().find(|s| s.name.ends_with("_sum")).unwrap();
        assert_eq!(sum.value, samples.iter().sum::<u64>().to_string());
    }
}
