//! Immutable snapshots of a registry, with JSON in and out.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::histogram::HistogramSnapshot;
use crate::json::{self, ParseError, Value};

/// One completed span in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
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
#[derive(Debug, Clone, PartialEq, Default)]
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

    /// Serializes the snapshot as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"counters\": {");
        write_map(&mut out, self.counters.iter(), |out, v| out.push_str(&v.to_string()));
        out.push_str("},\n  \"gauges\": {");
        write_map(&mut out, self.gauges.iter(), |out, v| out.push_str(&v.to_string()));
        out.push_str("},\n  \"histograms\": {");
        write_map(&mut out, self.histograms.iter(), |out, h| {
            out.push_str(&format!("{{\"count\": {}, \"sum\": {}, \"buckets\": [", h.count, h.sum));
            for (i, (le, n)) in h.buckets.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("[{le}, {n}]"));
            }
            out.push_str("]}");
        });
        out.push_str("},\n  \"spans\": [");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"name\": ");
            json::write_escaped(&mut out, &span.name);
            out.push_str(&format!(", \"nanos\": {}}}", span.nanos));
        }
        if !self.spans.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Parses a snapshot back from [`MetricsSnapshot::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] on malformed JSON or a document that
    /// does not have the snapshot shape.
    pub fn from_json(input: &str) -> Result<MetricsSnapshot, ParseError> {
        let doc = json::parse(input)?;
        let top = doc.as_object().ok_or_else(|| shape_err("top level must be an object"))?;

        let mut snapshot = MetricsSnapshot::default();
        if let Some(counters) = top.get("counters") {
            let map = counters.as_object().ok_or_else(|| shape_err("counters"))?;
            for (name, v) in map {
                let v = v.as_u64().ok_or_else(|| shape_err("counter value"))?;
                snapshot.counters.insert(name.clone(), v);
            }
        }
        if let Some(gauges) = top.get("gauges") {
            let map = gauges.as_object().ok_or_else(|| shape_err("gauges"))?;
            for (name, v) in map {
                let v = v.as_i64().ok_or_else(|| shape_err("gauge value"))?;
                snapshot.gauges.insert(name.clone(), v);
            }
        }
        if let Some(histograms) = top.get("histograms") {
            let map = histograms.as_object().ok_or_else(|| shape_err("histograms"))?;
            for (name, h) in map {
                let h = h.as_object().ok_or_else(|| shape_err("histogram"))?;
                let count = field_u64(h, "count")?;
                let sum = field_u64(h, "sum")?;
                let mut buckets = Vec::new();
                for pair in
                    h.get("buckets").and_then(Value::as_array).ok_or_else(|| shape_err("buckets"))?
                {
                    let pair = pair.as_array().ok_or_else(|| shape_err("bucket pair"))?;
                    let [le, n] = pair else { return Err(shape_err("bucket pair arity")) };
                    buckets.push((
                        le.as_u64().ok_or_else(|| shape_err("bucket bound"))?,
                        n.as_u64().ok_or_else(|| shape_err("bucket count"))?,
                    ));
                }
                snapshot
                    .histograms
                    .insert(name.clone(), HistogramSnapshot { count, sum, buckets });
            }
        }
        if let Some(spans) = top.get("spans") {
            for span in spans.as_array().ok_or_else(|| shape_err("spans"))? {
                let span = span.as_object().ok_or_else(|| shape_err("span"))?;
                let name = span
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or_else(|| shape_err("span name"))?;
                snapshot
                    .spans
                    .push(SpanSnapshot { name: name.to_string(), nanos: field_u64(span, "nanos")? });
            }
        }
        Ok(snapshot)
    }
}

fn shape_err(what: &str) -> ParseError {
    ParseError { message: format!("snapshot shape mismatch: {what}"), offset: 0 }
}

fn field_u64(map: &BTreeMap<String, Value>, key: &str) -> Result<u64, ParseError> {
    map.get(key).and_then(Value::as_u64).ok_or_else(|| shape_err(key))
}

/// Writes `"key": <value>` pairs into an already-open JSON object.
fn write_map<'a, V: 'a>(
    out: &mut String,
    entries: impl Iterator<Item = (&'a String, &'a V)>,
    mut write_value: impl FnMut(&mut String, &V),
) {
    let mut first = true;
    let mut any = false;
    for (key, value) in entries {
        if !first {
            out.push(',');
        }
        first = false;
        any = true;
        out.push_str("\n    ");
        json::write_escaped(out, key);
        out.push_str(": ");
        write_value(out, value);
    }
    if any {
        out.push_str("\n  ");
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
        let back = MetricsSnapshot::from_json(&snap.to_json()).expect("parse");
        assert_eq!(back, snap);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snap = MetricsSnapshot::default();
        assert_eq!(MetricsSnapshot::from_json(&snap.to_json()).unwrap(), snap);
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
