//! Observability determinism: the `MetricsSnapshot` counters and gauges
//! are identical for a fixed seed no matter how many scan workers run,
//! and the JSON form round-trips losslessly (the contract `repro
//! --metrics` relies on). The worker sweep runs through the invariance
//! harness (`harness/mod.rs`).

mod harness;

use harness::{check, expected_workers, Plan, Reference, World};
use malware_slums::study::Study;
use malware_slums::substrate::Substrate;
use slum_obs::MetricsSnapshot;

const SEED: u64 = 9001;

fn world() -> World {
    World::fault_free(Substrate::Exchange, SEED)
}

/// The metrics of a study scanned in parallel on two workers.
fn parallel_snapshot() -> MetricsSnapshot {
    Study::run(&Plan::batch(2).config(&world())).metrics()
}

#[test]
fn counters_identical_serial_vs_parallel() {
    let world = world();
    check(&world, &Reference::of(&world), &[1, 2, 4].map(Plan::batch));
}

#[test]
fn key_counters_are_nonzero_and_cross_consistent() {
    let m = parallel_snapshot();

    let pages = m.counter("crawl.pages");
    let regular = m.counter("filter.regular_out");
    assert!(pages > 0);
    assert!(regular > 0);
    assert_eq!(
        m.counter("filter.records_in"),
        m.counter("filter.self_referrals") + m.counter("filter.popular_referrals") + regular
    );
    assert_eq!(m.counter("filter.records_in"), pages);

    // One scan and one URL-feature lookup per regular record, and one
    // latency sample per URL or capture scanned, on the parallel path
    // too.
    assert_eq!(i128::from(m.gauge("scan.workers")), expected_workers(2, i128::from(regular)));
    assert_eq!(m.counter("scan.scans"), regular);
    let computed = m.counter("scan.cache.url_features.entries")
        + m.counter("scan.cache.content_features.entries");
    assert_eq!(m.histograms["scan.sample_nanos"].count, computed);
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
    assert_eq!(m.gauge("config.seed"), SEED as i64);
    assert_eq!(m.gauge("config.scan_workers"), 2);
}

#[test]
fn metrics_snapshot_round_trips_through_json() {
    let snapshot = parallel_snapshot();
    let json = snapshot.to_json();
    let parsed: MetricsSnapshot = serde_json::from_str(&json).expect("valid metrics JSON");
    assert_eq!(parsed, snapshot);

    // The same document also parses as plain JSON for external tooling
    // (this is what `repro --metrics` consumers read).
    let value: serde_json::Value = serde_json::from_str(&json).expect("parses as JSON");
    assert!(value["counters"]["scan.scans"].as_u64().unwrap() > 0);
    assert!(value["spans"].as_array().is_some());
}
