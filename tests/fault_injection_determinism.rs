//! Determinism contract of the fault-injection layer: for a fixed seed
//! and fault profile, verdicts, provenance (`VerdictSource`), per-record
//! fault logs and the aggregated fault counters must be bit-identical
//! across `scan_workers ∈ {1, 2, 4}`. The fault schedule is compiled
//! from the corpus in virtual-time order before any scan worker runs,
//! so worker chunking may never move a single fault.
//!
//! Also pins the opt-in contract (an inert profile is indistinguishable
//! from no profile at all) and the `RetryPolicy` properties the plan
//! compiler relies on (bounded termination, monotone backoff). The
//! serial threshold is off, so every multi-worker study scans in
//! parallel.

use std::collections::BTreeMap;
use std::num::NonZeroUsize;

use proptest::prelude::*;

use malware_slums::scanpipe::VerdictSource;
use malware_slums::study::{Study, StudyConfig};
use slum_detect::fault::FaultProfile;
use slum_detect::retry::RetryPolicy;

fn faulted_study(workers: usize, profile: FaultProfile) -> Study {
    let config = StudyConfig::builder()
        .seed(4242)
        .crawl_scale(0.0003)
        .domain_scale(0.03)
        .scan_workers(workers)
        .serial_scan_threshold(0)
        .fault_profile(profile)
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
fn verdicts_and_fault_counters_identical_across_workers() {
    let serial = faulted_study(1, FaultProfile::default_profile());
    let baseline_metrics = stripped_metrics(&serial);
    for workers in [2usize, 4] {
        let parallel = faulted_study(workers, FaultProfile::default_profile());
        assert_eq!(parallel.metrics().gauge("scan.workers"), expected_workers(workers));
        // Bit-identical ScanOutcomes — verdict, reports, VerdictSource
        // and the per-record FaultLog all participate in PartialEq.
        assert_eq!(
            parallel.outcomes, serial.outcomes,
            "faulted outcomes diverged at {workers} workers"
        );
        assert_eq!(
            stripped_metrics(&parallel),
            baseline_metrics,
            "fault counters diverged at {workers} workers"
        );
    }
    // The run actually exercised the fault machinery.
    let m = serial.metrics();
    assert!(m.counter("scan.faults.injected") > 0, "profile must inject");
    assert!(m.counter("scan.retries") > 0);
    assert!(m.counter("scan.degraded_verdicts") > 0);
    assert!(
        serial.outcomes.iter().any(|o| o.source != VerdictSource::Full),
        "some verdict must carry degraded provenance"
    );
}

#[test]
fn inert_profile_is_indistinguishable_from_no_profile() {
    // Fault injection is strictly opt-in: a study configured with the
    // explicit `none` profile must match one that never mentions faults,
    // outcome for outcome and counter for counter.
    let untouched = faulted_study(2, FaultProfile::none());
    let config = StudyConfig::builder()
        .seed(4242)
        .crawl_scale(0.0003)
        .domain_scale(0.03)
        .scan_workers(2)
        .serial_scan_threshold(0)
        .build()
        .expect("valid config");
    let implicit = Study::run(&config);
    assert_eq!(untouched.outcomes, implicit.outcomes);
    assert_eq!(stripped_metrics(&untouched), stripped_metrics(&implicit));
    assert_eq!(untouched.metrics().counter("scan.faults.injected"), 0);
}

#[test]
fn fault_schedule_is_a_pure_function_of_seed_and_profile() {
    let a = faulted_study(2, FaultProfile::harsh());
    let b = faulted_study(4, FaultProfile::harsh());
    assert_eq!(a.outcomes, b.outcomes);
    // And a different profile on the same corpus faults differently.
    let c = faulted_study(2, FaultProfile::default_profile());
    assert_eq!(a.store.len(), c.store.len(), "corpus is seed-determined");
    assert_ne!(a.outcomes, c.outcomes, "profile must steer the schedule");
}

proptest! {
    /// `resolve` always terminates within the retry budget: at most
    /// `max_retries` retries and `max_retries + 1` failed attempts, for
    /// any key, arrival time and fault horizon.
    #[test]
    fn retry_resolution_bounded_by_budget(
        key in "[a-zA-Z0-9#/._-]{1,40}",
        max_retries in 0u32..12,
        at_secs in 0u64..1_000_000,
        clears_delta_secs in 0u64..100_000,
    ) {
        let policy = RetryPolicy { max_retries, ..RetryPolicy::default() };
        let at = at_secs * 1_000_000_000;
        let clears = at.saturating_add(clears_delta_secs * 1_000_000_000);
        let r = policy.resolve(&key, at, clears);
        prop_assert!(r.retries <= policy.max_retries);
        prop_assert!(r.failed_attempts <= policy.max_retries + 1);
        if r.resolved {
            prop_assert_eq!(r.failed_attempts, r.retries);
        } else {
            prop_assert_eq!(r.retries, policy.max_retries);
            prop_assert_eq!(r.failed_attempts, policy.max_retries + 1);
        }
        // Total backoff is the sum of a bounded, monotone schedule.
        prop_assert!(
            r.backoff_nanos
                <= u64::from(policy.max_retries)
                    * (policy.max_backoff_nanos * 3 / 2 + 1)
        );
    }

    /// The jittered backoff schedule is monotone non-decreasing in the
    /// attempt number and bounded by 1.5x the cap, for any key.
    #[test]
    fn backoff_monotone_and_bounded(key in ".{0,60}", attempts in 1u32..16) {
        let policy = RetryPolicy::default();
        let mut prev = 0u64;
        for attempt in 0..attempts {
            let b = policy.backoff_nanos(&key, attempt);
            prop_assert!(b >= prev, "attempt {}: {} < {}", attempt, b, prev);
            prop_assert!(b <= policy.max_backoff_nanos * 3 / 2 + 1);
            prev = b;
        }
    }

    /// Resolution is a pure function of (policy, key, times): replaying
    /// it — as every scan worker does — can never change the answer.
    #[test]
    fn retry_resolution_is_replayable(
        key in "[a-z0-9#]{1,30}",
        at in 0u64..u64::MAX / 2,
        clears in 0u64..u64::MAX / 2,
    ) {
        let policy = RetryPolicy::default();
        prop_assert_eq!(policy.resolve(&key, at, clears), policy.resolve(&key, at, clears));
    }
}
