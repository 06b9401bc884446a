//! The metrics registry: named counters, gauges, histograms and spans.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::histogram::Histogram;
use crate::snapshot::{MetricsSnapshot, SpanSnapshot};

/// A monotonic counter handle. Cloning is cheap (an `Arc` bump); all
/// clones observe the same value.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable gauge handle (last-write-wins).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One completed span: a named wall-clock measurement.
#[derive(Debug, Clone)]
struct SpanRecord {
    name: String,
    nanos: u64,
}

/// The registry: a `Send + Sync` home for every named metric of one
/// pipeline run.
///
/// Metric handles ([`Counter`], [`Gauge`], [`Histogram`]) are created
/// on first use and live as long as the registry; looking one up takes
/// a short mutex on the name table, so hot paths should either hold a
/// handle or tally in plain integers and add each total once.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicI64>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut table = self.counters.lock().expect("counter table poisoned");
        match table.get(name) {
            Some(c) => Counter(Arc::clone(c)),
            None => {
                let cell = Arc::new(AtomicU64::new(0));
                table.insert(name.to_string(), Arc::clone(&cell));
                Counter(cell)
            }
        }
    }

    /// The gauge named `name`, created at zero on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut table = self.gauges.lock().expect("gauge table poisoned");
        match table.get(name) {
            Some(g) => Gauge(Arc::clone(g)),
            None => {
                let cell = Arc::new(AtomicI64::new(0));
                table.insert(name.to_string(), Arc::clone(&cell));
                Gauge(cell)
            }
        }
    }

    /// The histogram named `name`, created empty on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut table = self.histograms.lock().expect("histogram table poisoned");
        match table.get(name) {
            Some(h) => Arc::clone(h),
            None => {
                let cell = Arc::new(Histogram::new());
                table.insert(name.to_string(), Arc::clone(&cell));
                cell
            }
        }
    }

    /// Starts a named span; the wall-clock duration is recorded when
    /// the returned guard drops (or [`SpanGuard::finish`] is called).
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        SpanGuard { registry: self, name: name.to_string(), started: Instant::now() }
    }

    /// Records a completed span measured externally.
    pub fn record_span(&self, name: &str, elapsed: Duration) {
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.spans
            .lock()
            .expect("span table poisoned")
            .push(SpanRecord { name: name.to_string(), nanos });
    }

    /// Folds a whole snapshot into this registry: counters add, gauges
    /// set (last-write-wins, like [`Gauge::set`]), histogram buckets
    /// add element-wise, spans append. The slum-serve global rollup
    /// aggregates per-tenant snapshots this way.
    pub fn absorb(&self, snap: &MetricsSnapshot) {
        for (name, v) in &snap.counters {
            self.counter(name).add(*v);
        }
        for (name, v) in &snap.gauges {
            self.gauge(name).set(*v);
        }
        for (name, h) in &snap.histograms {
            self.histogram(name).absorb(h);
        }
        for s in &snap.spans {
            self.record_span(&s.name, Duration::from_nanos(s.nanos));
        }
    }

    /// An immutable, ordered view of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .expect("counter table poisoned")
            .iter()
            .map(|(name, c)| (name.clone(), c.load(Ordering::Relaxed)))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("gauge table poisoned")
            .iter()
            .map(|(name, g)| (name.clone(), g.load(Ordering::Relaxed)))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("histogram table poisoned")
            .iter()
            .map(|(name, h)| (name.clone(), h.snapshot()))
            .collect();
        let spans = self
            .spans
            .lock()
            .expect("span table poisoned")
            .iter()
            .map(|s| SpanSnapshot { name: s.name.clone(), nanos: s.nanos })
            .collect();
        MetricsSnapshot { counters, gauges, histograms, spans }
    }
}

/// Guard for an in-flight [`Registry::span`]; records the elapsed
/// wall-clock into the registry when dropped.
#[derive(Debug)]
pub struct SpanGuard<'r> {
    registry: &'r Registry,
    name: String,
    started: Instant,
}

impl SpanGuard<'_> {
    /// Ends the span now, returning the measured duration.
    pub fn finish(self) -> Duration {
        // Dropping does the recording; read the clock first so the
        // returned duration matches what lands in the registry closely.
        self.started.elapsed()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.registry.record_span(&self.name, self.started.elapsed());
    }
}

// Compile-time audit: the registry is shared by reference across scan
// and crawl worker threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Registry>();
    assert_send_sync::<Counter>();
    assert_send_sync::<Gauge>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_shared_by_name() {
        let r = Registry::new();
        r.counter("a").inc();
        r.counter("a").add(2);
        assert_eq!(r.counter("a").get(), 3);
        assert_eq!(r.counter("b").get(), 0);
    }

    #[test]
    fn gauges_last_write_wins() {
        let r = Registry::new();
        r.gauge("g").set(5);
        r.gauge("g").set(-2);
        assert_eq!(r.gauge("g").get(), -2);
    }

    #[test]
    fn spans_record_on_drop() {
        let r = Registry::new();
        {
            let _s = r.span("phase.test");
        }
        r.record_span("phase.manual", Duration::from_nanos(42));
        let snap = r.snapshot();
        assert_eq!(snap.spans.len(), 2);
        assert_eq!(snap.spans[0].name, "phase.test");
        assert_eq!(snap.spans[1].nanos, 42);
    }

    #[test]
    fn concurrent_counter_increments_are_lossless() {
        let r = Registry::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let c = r.counter("hot");
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(r.counter("hot").get(), 80_000);
    }

    #[test]
    fn snapshot_is_ordered_and_complete() {
        let r = Registry::new();
        r.counter("z").inc();
        r.counter("a").inc();
        r.histogram("h").record(10);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.counters.keys().map(String::as_str).collect();
        assert_eq!(names, vec!["a", "z"]);
        assert_eq!(snap.histograms["h"].count, 1);
    }
}
