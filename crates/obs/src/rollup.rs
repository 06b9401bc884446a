//! Multi-tenant registry namespacing and the global rollup.
//!
//! A long-lived service (the slum-serve daemon) runs many studies, each
//! with its own private [`Registry`]. [`TenantRegistries`] is the
//! service-side home for those: one registry per tenant, created on
//! first use, plus a [`TenantRegistries::global_snapshot`] that exposes
//! every tenant's metrics under a `tenant.<name>.` prefix *and* a bare
//! cross-tenant rollup (counters and histograms summed; gauges are
//! last-write-wins state, so they stay namespaced-only — summing two
//! tenants' `scan.workers` would mean nothing).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::registry::Registry;
use crate::snapshot::{MetricsSnapshot, SpanSnapshot};

/// One metrics registry per tenant, plus the cross-tenant rollup view.
#[derive(Debug, Default)]
pub struct TenantRegistries {
    tenants: Mutex<BTreeMap<String, Arc<Registry>>>,
}

impl TenantRegistries {
    /// Creates an empty tenant table.
    pub fn new() -> Self {
        TenantRegistries::default()
    }

    /// The registry of tenant `name`, created empty on first use.
    pub fn tenant(&self, name: &str) -> Arc<Registry> {
        let mut table = self.tenants.lock().expect("tenant table poisoned");
        match table.get(name) {
            Some(r) => Arc::clone(r),
            None => {
                let registry = Arc::new(Registry::new());
                table.insert(name.to_string(), Arc::clone(&registry));
                registry
            }
        }
    }

    /// Folds a finished study's metrics snapshot into tenant `name`'s
    /// registry (see [`Registry::absorb`]).
    pub fn absorb(&self, name: &str, snap: &MetricsSnapshot) {
        self.tenant(name).absorb(snap);
    }

    /// One snapshot over every tenant: each metric appears namespaced
    /// as `tenant.<name>.<metric>`, and counters/histograms additionally
    /// roll up under their bare name (summed across tenants). Spans are
    /// namespaced only; gauges are namespaced only (see module docs).
    pub fn global_snapshot(&self) -> MetricsSnapshot {
        let per_tenant: Vec<(String, MetricsSnapshot)> = self
            .tenants
            .lock()
            .expect("tenant table poisoned")
            .iter()
            .map(|(name, r)| (name.clone(), r.snapshot()))
            .collect();

        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        let mut gauges: BTreeMap<String, i64> = BTreeMap::new();
        let mut histograms: BTreeMap<String, HistogramSnapshot> = BTreeMap::new();
        let mut rollup_hists: BTreeMap<String, Histogram> = BTreeMap::new();
        let mut spans: Vec<SpanSnapshot> = Vec::new();

        for (tenant, snap) in &per_tenant {
            for (name, v) in &snap.counters {
                counters.insert(format!("tenant.{tenant}.{name}"), *v);
                *counters.entry(name.clone()).or_insert(0) += *v;
            }
            for (name, v) in &snap.gauges {
                gauges.insert(format!("tenant.{tenant}.{name}"), *v);
            }
            for (name, h) in &snap.histograms {
                histograms.insert(format!("tenant.{tenant}.{name}"), h.clone());
                rollup_hists.entry(name.clone()).or_default().absorb(h);
            }
            for s in &snap.spans {
                spans.push(SpanSnapshot {
                    name: format!("tenant.{tenant}.{}", s.name),
                    nanos: s.nanos,
                });
            }
        }
        for (name, h) in rollup_hists {
            histograms.insert(name, h.snapshot());
        }
        MetricsSnapshot { counters, gauges, histograms, spans }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenants_are_isolated_but_roll_up() {
        let t = TenantRegistries::new();
        t.tenant("a").counter("scan.total").add(3);
        t.tenant("b").counter("scan.total").add(4);
        t.tenant("a").gauge("scan.workers").set(2);
        let g = t.global_snapshot();
        assert_eq!(g.counter("tenant.a.scan.total"), 3);
        assert_eq!(g.counter("tenant.b.scan.total"), 4);
        assert_eq!(g.counter("scan.total"), 7, "bare name sums across tenants");
        assert_eq!(g.gauge("tenant.a.scan.workers"), 2);
        assert_eq!(g.gauge("scan.workers"), 0, "gauges never roll up");
    }

    #[test]
    fn absorb_folds_snapshots_and_histograms_merge() {
        let src = Registry::new();
        src.counter("c").add(5);
        src.histogram("h").record(10);
        src.histogram("h").record(1000);

        let t = TenantRegistries::new();
        t.absorb("x", &src.snapshot());
        t.absorb("x", &src.snapshot());
        t.tenant("y").histogram("h").record(10);

        let g = t.global_snapshot();
        assert_eq!(g.counter("tenant.x.c"), 10);
        assert_eq!(g.counter("c"), 10);
        let rolled = &g.histograms["h"];
        assert_eq!(rolled.count, 5);
        assert_eq!(rolled.sum, 2 * 1010 + 10);
        // Bucket identity survives the snapshot → absorb round trip:
        // three samples of ~10 land in one bucket, two of ~1000 in
        // another.
        assert_eq!(rolled.buckets, vec![(15, 3), (1023, 2)]);
    }

    #[test]
    fn empty_table_snapshots_empty() {
        let g = TenantRegistries::new().global_snapshot();
        assert!(g.counters.is_empty());
        assert!(g.histograms.is_empty());
        assert!(g.spans.is_empty());
    }
}
