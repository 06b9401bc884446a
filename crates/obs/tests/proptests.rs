//! Property tests for the snapshot JSON: `MetricsSnapshot::to_json`
//! and `serde_json::from_str` must be exact inverses over *arbitrary*
//! metric names and the full value ranges — metric names come from
//! scan-label families like `scan.labels.vt.Trojan:JS/Redirector` and
//! are adversarial by assumption (labels embed quotes, backslashes and
//! control characters from hostile page content).

use std::time::Duration;

use proptest::collection::vec;
use proptest::prelude::*;
use slum_obs::histogram::HistogramSnapshot;
use slum_obs::{MetricsSnapshot, Registry, SpanSnapshot};

/// Arbitrary metric names over the whole Latin-1 range: includes every
/// ASCII control character (escape sequences), quotes, backslashes and
/// non-ASCII text. Built from bytes because regex strategies cannot
/// spell control characters.
fn name_strategy() -> impl Strategy<Value = String> {
    vec(any::<u8>(), 0..16)
        .prop_map(|bytes| bytes.into_iter().map(char::from).collect::<String>())
}

/// Arbitrary unicode names: scalar values across all planes, surrogate
/// range folded back into BMP text.
fn unicode_name_strategy() -> impl Strategy<Value = String> {
    vec(any::<u32>(), 0..8).prop_map(|codes| {
        codes
            .into_iter()
            .map(|c| char::from_u32(c % 0x11_0000).unwrap_or('\u{fffd}'))
            .collect::<String>()
    })
}

fn snapshot_from_parts(
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, i64)>,
    histogram_names: Vec<String>,
    histogram_samples: Vec<u64>,
    spans: Vec<(String, u64)>,
) -> MetricsSnapshot {
    let mut snapshot = MetricsSnapshot {
        counters: counters.into_iter().collect(),
        gauges: gauges.into_iter().collect(),
        ..MetricsSnapshot::default()
    };
    for name in histogram_names {
        // A histogram with real bucket structure: record the sample
        // values through the actual histogram type so bucket bounds are
        // the ones production snapshots carry (incl. the u64::MAX
        // top bucket).
        let registry = Registry::new();
        for v in &histogram_samples {
            registry.histogram("h").record(*v);
        }
        let h = registry
            .snapshot()
            .histograms
            .get("h")
            .cloned()
            .unwrap_or(HistogramSnapshot { count: 0, sum: 0, buckets: Vec::new() });
        snapshot.histograms.insert(name, h);
    }
    snapshot.spans =
        spans.into_iter().map(|(name, nanos)| SpanSnapshot { name, nanos }).collect();
    snapshot
}

fn parse(doc: &str) -> MetricsSnapshot {
    serde_json::from_str(doc).expect("a snapshot document parses")
}

proptest! {
    /// Full snapshots — hostile names in every table, extreme counter
    /// and gauge values (u64::MAX, i64::MIN), real histogram buckets,
    /// repeated span names — survive to_json and back bit-for-bit.
    #[test]
    fn snapshot_round_trip_is_lossless(
        counters in vec((name_strategy(), any::<u64>()), 0..6),
        gauges in vec((unicode_name_strategy(), any::<i64>()), 0..4),
        histogram_names in vec(name_strategy(), 0..3),
        histogram_samples in vec(any::<u64>(), 0..10),
        spans in vec((name_strategy(), any::<u64>()), 0..4),
    ) {
        // Pin the extremes alongside the random draws.
        let mut counters = counters;
        counters.push(("max".to_string(), u64::MAX));
        let snapshot = snapshot_from_parts(
            counters, gauges, histogram_names, histogram_samples, spans,
        );
        prop_assert_eq!(parse(&snapshot.to_json()), snapshot);
    }

    /// An empty registry's snapshot round-trips (the writer's empty
    /// object/array forms are parseable).
    #[test]
    fn empty_registry_round_trips(_nothing in any::<bool>()) {
        let snapshot = Registry::new().snapshot();
        prop_assert_eq!(snapshot.counters.len(), 0);
        prop_assert_eq!(parse(&snapshot.to_json()), snapshot);
    }
}

/// Regression pins (kept as plain tests so they run even with
/// `PROPTEST_CASES=0`).
mod regressions {
    use super::*;

    /// Control characters below 0x20 in a metric name are escaped in
    /// the document, whose only raw controls are the pretty printer's
    /// line breaks (each line opens with a JSON token, so none sits
    /// inside a string), and parse back.
    #[test]
    fn bare_control_chars_round_trip() {
        let name: String = (0u8..0x20).map(char::from).collect();
        let mut snapshot = MetricsSnapshot::default();
        snapshot.counters.insert(name, 1);
        let doc = snapshot.to_json();
        assert!(!doc.bytes().any(|b| b < 0x20 && b != b'\n'), "controls must be escaped");
        for line in doc.lines() {
            let token = line.trim_start_matches(' ');
            assert!(token.starts_with(['"', '{', '}', '[', ']']), "raw line break in {line:?}");
        }
        assert_eq!(parse(&doc), snapshot);
    }

    /// The extreme numeric corners of every table survive.
    #[test]
    fn extreme_values_round_trip() {
        let mut snapshot = MetricsSnapshot::default();
        snapshot.counters.insert("c".to_string(), u64::MAX);
        snapshot.gauges.insert("g".to_string(), i64::MIN);
        snapshot.gauges.insert("g2".to_string(), i64::MAX);
        let registry = Registry::new();
        registry.histogram("h").record(u64::MAX);
        snapshot.histograms = registry.snapshot().histograms;
        registry.record_span("s", Duration::from_nanos(u64::MAX / 2));
        snapshot.spans = registry.snapshot().spans;
        assert_eq!(parse(&snapshot.to_json()), snapshot);
    }
}
