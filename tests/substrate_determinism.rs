//! Determinism contract of the pluggable traffic substrates: for every
//! substrate (`exchange`, `adnet`, `torrent`) the seeded study is a
//! pure function of its configuration — identical corpus JSONL, scan
//! outcomes and export JSON across scan-worker counts {1, 2, 4, 8}, and
//! a crawl killed between checkpoint rounds and resumed from disk the
//! same as one that never stopped. The cases run through the
//! invariance harness (`harness/mod.rs`).
//!
//! The exchange substrate additionally carries a byte-level golden pin
//! in `exchange_golden_regression.rs`; this suite holds the invariants
//! the goldens cannot for the substrates that have no published table
//! to pin.

mod harness;

use harness::{assert_resume_rejects, check, Plan, Reference, Run, World};
use malware_slums::substrate::Substrate;

const SEED: u64 = 2016;

#[test]
fn every_substrate_is_identical_across_worker_counts() {
    for substrate in Substrate::ALL {
        let world = World::fault_free(substrate, SEED);
        let reference = Reference::of(&world);
        assert!(reference.out.counter("crawl.pages") > 0, "{}: empty corpus", substrate.name());
        check(&world, &reference, &[1, 2, 4, 8].map(Plan::batch));
    }
}

#[test]
fn new_substrates_survive_kill_and_resume_bit_identical() {
    for substrate in [Substrate::AdNet, Substrate::Torrent] {
        let world = World::fault_free(substrate, SEED);
        let plan = Plan { run: Run::killed(16, &[1]), ..Plan::batch(2) };
        let coverage = check(&world, &Reference::of(&world), &[plan]);
        assert_eq!(coverage.resumes, 1, "{}: the kill must interrupt", substrate.name());
    }
}

#[test]
fn resume_rejects_a_checkpoint_from_another_substrate() {
    // An adnet checkpoint must refuse to seed a torrent study: the RNG
    // streams are substrate-specific, so a silent cross-substrate
    // resume would corrupt the corpus undetectably.
    let config = |substrate| {
        World::fault_free(substrate, SEED)
            .builder(false)
            .checkpoint_every(16)
            .build()
            .expect("valid config")
    };
    assert_resume_rejects(&config(Substrate::AdNet), &config(Substrate::Torrent), "substrate");
}
