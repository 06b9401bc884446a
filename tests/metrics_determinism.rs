//! Observability determinism: the `MetricsSnapshot` counters and gauges
//! must be bit-identical for a fixed seed no matter how many scan
//! workers run, and the JSON form must round-trip losslessly (the
//! contract `repro --metrics` relies on). The serial threshold is off,
//! so every multi-worker snapshot comes from a parallel scan.

use std::collections::BTreeMap;
use std::num::NonZeroUsize;

use malware_slums::study::{Study, StudyConfig};
use slum_obs::MetricsSnapshot;

fn snapshot_for(workers: usize) -> MetricsSnapshot {
    let config = StudyConfig::builder()
        .seed(9001)
        .crawl_scale(0.0003)
        .domain_scale(0.03)
        .scan_workers(workers)
        .serial_scan_threshold(0)
        .build()
        .expect("valid config");
    Study::run(&config).metrics()
}

/// The worker count a parallel study runs with when `requested` were
/// asked for: the request, clamped to the host.
fn expected_workers(requested: usize) -> i64 {
    let cores = std::thread::available_parallelism().map_or(usize::MAX, NonZeroUsize::get);
    requested.min(cores) as i64
}

#[test]
fn counters_identical_serial_vs_parallel() {
    let serial = snapshot_for(1).deterministic_counters();
    for workers in [2usize, 4] {
        let snapshot = snapshot_for(workers);
        assert_eq!(snapshot.gauge("scan.workers"), expected_workers(workers));
        let parallel = snapshot.deterministic_counters();
        // The worker-count gauge is the one value that legitimately
        // differs between runs; everything else must match exactly.
        let strip = |mut m: BTreeMap<String, i128>| {
            m.remove("gauge:config.scan_workers");
            m.remove("gauge:scan.workers");
            m
        };
        assert_eq!(
            strip(serial.clone()),
            strip(parallel),
            "metrics diverged at {workers} workers"
        );
    }
}

#[test]
fn key_counters_are_nonzero_and_cross_consistent() {
    let m = snapshot_for(2);

    let pages = m.counter("crawl.pages");
    let regular = m.counter("filter.regular_out");
    assert!(pages > 0);
    assert!(regular > 0);
    assert_eq!(
        m.counter("filter.records_in"),
        m.counter("filter.self_referrals")
            + m.counter("filter.popular_referrals")
            + regular
    );
    assert_eq!(m.counter("filter.records_in"), pages);

    // One scan (and one URL-feature lookup and one latency sample) per
    // regular record, on the parallel path too.
    assert_eq!(m.gauge("scan.workers"), expected_workers(2));
    assert_eq!(m.counter("scan.scans"), regular);
    assert_eq!(m.histograms["scan.record_nanos"].count, regular);
    assert_eq!(m.counter("scan.cache.url_features.lookups"), regular);
    for group in ["url_features", "content_features", "host_domains", "domain_blacklisted"] {
        let lookups = m.counter(&format!("scan.cache.{group}.lookups"));
        let entries = m.counter(&format!("scan.cache.{group}.entries"));
        let hits = m.counter(&format!("scan.cache.{group}.hits"));
        assert!(lookups > 0, "{group} never consulted");
        assert!(hits > 0, "{group} cache never hit — repeated URLs must hit");
        assert_eq!(lookups, entries + hits, "{group} stats must partition lookups");
    }

    // Verdicts partition the scans; the corpus always has both kinds of
    // labels at this scale.
    assert_eq!(
        m.counter("scan.verdict.malicious") + m.counter("scan.verdict.benign"),
        m.counter("scan.scans")
    );
    assert!(m.counter("scan.verdict.malicious") > 0);
    assert!(m.counter("scan.labels.vt.total") > 0);
    assert!(m.counters_with_prefix("scan.labels.vt.engine.").next().is_some());
    assert_eq!(m.counters_with_prefix("crawl.steps.").count(), 9);

    // Config echoes land as gauges.
    assert_eq!(m.gauge("config.seed"), 9001);
    assert_eq!(m.gauge("config.scan_workers"), 2);
}

#[test]
fn metrics_snapshot_round_trips_through_json() {
    let snapshot = snapshot_for(2);
    let json = snapshot.to_json();
    let parsed = MetricsSnapshot::from_json(&json).expect("valid metrics JSON");
    assert_eq!(parsed, snapshot);

    // The same document must also parse as plain JSON for external
    // tooling (this is what the ci.sh smoke test consumes).
    let value: serde_json::Value = serde_json::from_str(&json).expect("parses as JSON");
    assert!(value["counters"]["scan.scans"].as_u64().unwrap() > 0);
    assert!(value["spans"].as_array().is_some());
}
