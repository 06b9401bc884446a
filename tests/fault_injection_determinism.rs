//! Determinism contract of the fault-injection layer: for a fixed seed
//! and fault profile, verdicts, provenance (`VerdictSource`), per-record
//! fault logs and the fault counters are identical across
//! `scan_workers ∈ {1, 2, 4}`. The fault schedule is compiled from the
//! corpus in virtual-time order before any scan worker runs, so worker
//! chunking may never move a single fault. The cases run through the
//! invariance harness (`harness/mod.rs`).
//!
//! Also pins the opt-in contract: an inert profile is the same as no
//! profile at all. The `RetryPolicy` properties the plan compiler
//! relies on are proptests next to it, in slum-detect.

mod harness;

use harness::{check, Plan, Reference, World};
use malware_slums::scanpipe::VerdictSource;
use malware_slums::study::Study;
use malware_slums::substrate::Substrate;

const SEED: u64 = 4242;

fn world(scan_faults: &'static str) -> World {
    World { scan_faults, ..World::fault_free(Substrate::Exchange, SEED) }
}

#[test]
fn verdicts_and_fault_counters_identical_across_workers() {
    // The outcomes compare verdict, reports, `VerdictSource` and the
    // per-record fault log.
    let world = world("default");
    let reference = Reference::of(&world);
    check(&world, &reference, &[1, 2, 4].map(Plan::batch));
    // The run actually exercised the fault machinery.
    let m = &reference.out;
    assert!(m.counter("scan.faults.injected") > 0, "profile must inject");
    assert!(m.counter("scan.retries") > 0);
    assert!(m.counter("scan.degraded_verdicts") > 0);
    assert!(
        m.outcomes().iter().any(|o| o.source != VerdictSource::Full),
        "some verdict must carry degraded provenance"
    );
}

#[test]
fn inert_profile_is_indistinguishable_from_no_profile() {
    // Fault injection is strictly opt-in: the reference never mentions
    // scan faults and the plan sets the explicit `none` profile.
    let world = world("none");
    let reference = Reference::of(&world);
    check(&world, &reference, &[Plan::batch(2)]);
    assert_eq!(reference.out.counter("scan.faults.injected"), 0);
}

#[test]
fn fault_schedule_is_a_pure_function_of_seed_and_profile() {
    let harsh = world("harsh");
    let reference = Reference::of(&harsh);
    check(&harsh, &reference, &[2, 4].map(Plan::batch));
    // A different profile on the same corpus faults differently.
    let default = Study::run(&world("default").builder(false).build().unwrap());
    let (corpus, outcomes, _) = reference.out.corpus.as_ref().expect("in-process run");
    assert_eq!(*corpus, default.corpus_jsonl().unwrap(), "the corpus is seed-determined");
    assert_ne!(*outcomes, default.outcomes, "the profile must steer the schedule");
}
