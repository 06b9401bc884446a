//! Immutable snapshots of a registry, written as JSON through serde.

use std::collections::BTreeMap;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::histogram::HistogramSnapshot;

/// One completed span in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanSnapshot {
    /// Span name (e.g. `phase.scan`).
    pub name: String,
    /// Wall-clock nanoseconds.
    pub nanos: u64,
}

impl SpanSnapshot {
    /// The span length as a [`Duration`].
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.nanos)
    }
}

/// An immutable, ordered view of every metric in a registry.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Completed spans in recording order.
    pub spans: Vec<SpanSnapshot>,
}

impl MetricsSnapshot {
    /// The counter named `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The gauge named `name` (0 when absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// `(name, value)` counters whose name starts with `prefix`.
    pub fn counters_with_prefix<'s>(
        &'s self,
        prefix: &'s str,
    ) -> impl Iterator<Item = (&'s str, u64)> + 's {
        self.counters
            .range(prefix.to_string()..)
            .take_while(move |(name, _)| name.starts_with(prefix))
            .map(|(name, value)| (name.as_str(), *value))
    }

    /// Total wall-clock of every span named `name` (spans may repeat).
    pub fn span_duration(&self, name: &str) -> Duration {
        Duration::from_nanos(
            self.spans.iter().filter(|s| s.name == name).map(|s| s.nanos).sum(),
        )
    }

    /// The deterministic subset: counters and gauges. Histograms and
    /// spans hold wall-clock measurements, which vary per machine and
    /// run; everything returned here must be bit-identical for a fixed
    /// seed regardless of worker counts — this is the view regression
    /// tests pin.
    pub fn deterministic_counters(&self) -> BTreeMap<String, i128> {
        let mut out: BTreeMap<String, i128> = BTreeMap::new();
        for (name, v) in &self.counters {
            out.insert(name.clone(), *v as i128);
        }
        for (name, v) in &self.gauges {
            out.insert(format!("gauge:{name}"), *v as i128);
        }
        out
    }

    /// Serializes the snapshot as serde's pretty-printed JSON: an
    /// object of `counters`, `gauges`, `histograms` and `spans`.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("a snapshot always serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample() -> MetricsSnapshot {
        let r = Registry::new();
        r.counter("crawl.pages").add(12);
        r.counter("scan.labels.vt.Trojan:JS/Redirector").add(3);
        r.gauge("scan.workers").set(4);
        r.histogram("scan.sample_nanos").record(1500);
        r.histogram("scan.sample_nanos").record(90);
        r.record_span("phase.build", Duration::from_nanos(1234));
        r.record_span("phase.scan", Duration::from_micros(42));
        r.snapshot()
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let snap = sample();
        let back: MetricsSnapshot = serde_json::from_str(&snap.to_json()).expect("parse");
        assert_eq!(back, snap);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snap = MetricsSnapshot::default();
        assert_eq!(serde_json::from_str::<MetricsSnapshot>(&snap.to_json()).unwrap(), snap);
    }

    /// Readers outside Rust (`scripts/ci.sh`, serve clients of
    /// `stream-metrics`) rely on this document shape; the whitespace
    /// is free to change.
    #[test]
    fn json_document_has_the_documented_shape() {
        let got: serde_json::Value = serde_json::from_str(&sample().to_json()).expect("parse");
        let want: serde_json::Value = serde_json::from_str(
            r#"{
                "counters": {"crawl.pages": 12, "scan.labels.vt.Trojan:JS/Redirector": 3},
                "gauges": {"scan.workers": 4},
                "histograms": {
                    "scan.sample_nanos": {"count": 2, "sum": 1590, "buckets": [[127, 1], [2047, 1]]}
                },
                "spans": [{"name": "phase.build", "nanos": 1234}, {"name": "phase.scan", "nanos": 42000}]
            }"#,
        )
        .expect("parse");
        assert_eq!(got, want);
    }

    #[test]
    fn deterministic_counters_exclude_wall_clock() {
        let snap = sample();
        let det = snapshot_names(&snap);
        assert!(det.contains(&"crawl.pages".to_string()));
        assert!(det.contains(&"gauge:scan.workers".to_string()));
        assert!(!det.iter().any(|n| n.contains("nanos")));
        fn snapshot_names(s: &MetricsSnapshot) -> Vec<String> {
            s.deterministic_counters().keys().cloned().collect()
        }
    }

    #[test]
    fn prefix_query_selects_counter_families() {
        let snap = sample();
        let labels: Vec<(&str, u64)> = snap.counters_with_prefix("scan.labels.").collect();
        assert_eq!(labels, vec![("scan.labels.vt.Trojan:JS/Redirector", 3)]);
        assert!(snap.counters_with_prefix("zzz.").next().is_none());
    }

    #[test]
    fn span_duration_sums_repeats() {
        let r = Registry::new();
        r.record_span("p", Duration::from_nanos(10));
        r.record_span("p", Duration::from_nanos(5));
        assert_eq!(r.snapshot().span_duration("p"), Duration::from_nanos(15));
    }

    #[test]
    fn counter_and_gauge_defaults_are_zero() {
        let snap = MetricsSnapshot::default();
        assert_eq!(snap.counter("missing"), 0);
        assert_eq!(snap.gauge("missing"), 0);
    }
}
