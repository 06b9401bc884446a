//! Determinism contract of the crawl-resilience layer: for a fixed seed
//! and crawl-fault profile, the crawled corpus, the scan outcomes, the
//! per-exchange health logs and the aggregated `crawl.*` counters must
//! be bit-identical across `scan_workers ∈ {1, 2, 4}` — and across
//! repeated runs — for every named profile. Exchange lifecycle faults
//! are compiled from stable hashes before the crawl starts and consume
//! zero RNG draws, so neither worker chunking nor fault windows may
//! move a single page.
//!
//! Also pins the opt-in contract (the explicit `none` profile is
//! indistinguishable from never mentioning crawl faults at all) and the
//! slot-conservation invariant `pages + lost_steps == planned steps`.
//! The serial threshold is off, so every multi-worker study scans in
//! parallel.

use std::collections::BTreeMap;
use std::num::NonZeroUsize;

use malware_slums::study::{steps_for, Study, StudyConfig};
use slum_crawler::CrawlFaultProfile;
use slum_exchange::params::PROFILES;

const SEED: u64 = 7777;
const CRAWL_SCALE: f64 = 0.0003;

fn study_with(workers: usize, profile: CrawlFaultProfile) -> Study {
    let config = StudyConfig::builder()
        .seed(SEED)
        .crawl_scale(CRAWL_SCALE)
        .domain_scale(0.03)
        .scan_workers(workers)
        .serial_scan_threshold(0)
        .crawl_fault_profile(profile)
        .build()
        .expect("valid config");
    Study::run(&config)
}

/// The worker count a parallel study runs with when `requested` were
/// asked for: the request, clamped to the host.
fn expected_workers(requested: usize) -> i64 {
    let cores = std::thread::available_parallelism().map_or(usize::MAX, NonZeroUsize::get);
    requested.min(cores) as i64
}

/// Deterministic counters/gauges minus the two values that legitimately
/// depend on the worker count (same strip as metrics_determinism.rs).
fn stripped_metrics(study: &Study) -> BTreeMap<String, i128> {
    let mut m = study.metrics().deterministic_counters();
    m.remove("gauge:config.scan_workers");
    m.remove("gauge:scan.workers");
    m
}

#[test]
fn corpus_and_counters_identical_across_workers_for_every_profile() {
    for name in CrawlFaultProfile::NAMES {
        let profile = CrawlFaultProfile::parse(name).expect("named profile");
        let serial = study_with(1, profile.clone());
        let base_records = serial.store.to_jsonl();
        let base_metrics = stripped_metrics(&serial);
        for workers in [2usize, 4] {
            let parallel = study_with(workers, profile.clone());
            assert_eq!(
                parallel.metrics().gauge("scan.workers"),
                expected_workers(workers),
                "profile '{name}'"
            );
            assert_eq!(
                parallel.store.to_jsonl(),
                base_records,
                "profile '{name}': corpus diverged at {workers} workers"
            );
            assert_eq!(
                parallel.outcomes, serial.outcomes,
                "profile '{name}': outcomes diverged at {workers} workers"
            );
            assert_eq!(
                parallel.health, serial.health,
                "profile '{name}': health logs diverged at {workers} workers"
            );
            assert_eq!(
                stripped_metrics(&parallel),
                base_metrics,
                "profile '{name}': counters diverged at {workers} workers"
            );
        }
    }
}

#[test]
fn every_profile_conserves_surf_slots() {
    // Every planned surf slot is accounted for: it either produced a
    // logged page or was lost to a fault — per exchange and in total.
    for name in CrawlFaultProfile::NAMES {
        let profile = CrawlFaultProfile::parse(name).expect("named profile");
        let study = study_with(2, profile);
        let mut planned_total = 0u64;
        for health in &study.health {
            let exchange = PROFILES
                .iter()
                .find(|p| p.name == health.exchange)
                .expect("known exchange");
            let planned = steps_for(exchange, CRAWL_SCALE);
            planned_total += planned;
            assert_eq!(
                health.pages + health.lost_steps,
                planned,
                "profile '{name}', {}: slots must balance",
                health.exchange
            );
        }
        let m = study.metrics();
        assert_eq!(
            m.counter("crawl.pages") + m.counter("crawl.faults.lost_steps"),
            planned_total,
            "profile '{name}': aggregate slots must balance"
        );
    }
}

#[test]
fn inert_profile_is_indistinguishable_from_no_profile() {
    // Crawl resilience is strictly opt-in: a study configured with the
    // explicit `none` profile must match one that never mentions crawl
    // faults, page for page and counter for counter.
    let untouched = study_with(2, CrawlFaultProfile::none());
    let config = StudyConfig::builder()
        .seed(SEED)
        .crawl_scale(CRAWL_SCALE)
        .domain_scale(0.03)
        .scan_workers(2)
        .serial_scan_threshold(0)
        .build()
        .expect("valid config");
    let implicit = Study::run(&config);
    assert_eq!(untouched.store.to_jsonl(), implicit.store.to_jsonl());
    assert_eq!(untouched.outcomes, implicit.outcomes);
    assert_eq!(untouched.health, implicit.health);
    assert_eq!(stripped_metrics(&untouched), stripped_metrics(&implicit));
    // The counters exist either way (dashboards can rely on them) but
    // stay pinned at zero without an active profile.
    let m = untouched.metrics();
    assert_eq!(m.counter("crawl.faults.injected"), 0);
    assert_eq!(m.counter("crawl.faults.lost_steps"), 0);
    assert!(untouched.health.iter().all(|h| h.is_clean()));
}

#[test]
fn active_profiles_steer_the_corpus() {
    let clean = study_with(1, CrawlFaultProfile::none());
    let default = study_with(1, CrawlFaultProfile::default_profile());
    let harsh = study_with(1, CrawlFaultProfile::harsh());

    let m = default.metrics();
    assert!(m.counter("crawl.faults.injected") > 0, "default profile must fault");
    assert!(m.counter("crawl.faults.lost_steps") > 0);
    assert!(default.store.len() < clean.store.len(), "faults must cost pages");
    assert!(
        harsh.metrics().counter("crawl.faults.lost_steps")
            > m.counter("crawl.faults.lost_steps"),
        "harsh must lose more slots than default"
    );
    // Degradation, not abortion: every exchange still reports health and
    // the pipeline still produces all nine Table I rows.
    assert_eq!(harsh.health.len(), 9);
    assert_eq!(harsh.table1().rows.len(), 9);
}
