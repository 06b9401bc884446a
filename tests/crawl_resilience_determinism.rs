//! Determinism contract of the crawl-resilience layer: for a fixed seed
//! and crawl-fault profile, the crawled corpus, the scan outcomes, the
//! per-exchange health logs and the `crawl.*` counters are identical
//! across `scan_workers ∈ {1, 2, 4}` for every named profile. Exchange
//! lifecycle faults are compiled from stable hashes before the crawl
//! starts and consume no RNG draws, so neither worker chunking nor
//! fault windows may move a single page. The cases run through the
//! invariance harness (`harness/mod.rs`).
//!
//! Also pins the opt-in contract (the explicit `none` profile is the
//! same as never mentioning crawl faults) and the slot-conservation
//! invariant `pages + lost_steps == planned steps`.

mod harness;

use harness::{check, Plan, Reference, World};
use malware_slums::study::Study;
use malware_slums::substrate::Substrate;
use slum_crawler::CrawlFaultProfile;

const SEED: u64 = 7777;

fn world(crawl_faults: &'static str) -> World {
    World { crawl_faults, ..World::fault_free(Substrate::Exchange, SEED) }
}

#[test]
fn corpus_and_counters_identical_across_workers_for_every_profile() {
    for name in CrawlFaultProfile::NAMES {
        let world = world(name);
        let plans = [1, 2, 4].map(Plan::batch);
        check(&world, &Reference::of(&world), &plans);
    }
}

#[test]
fn every_profile_conserves_surf_slots() {
    // Every planned surf slot produced a logged page or was lost to a
    // fault, per exchange and in total: a world invariant that every
    // reference checks.
    for name in CrawlFaultProfile::NAMES {
        let reference = Reference::of(&world(name));
        assert_eq!(reference.out.health().len(), 9, "profile '{name}': one log per exchange");
    }
}

#[test]
fn inert_profile_is_indistinguishable_from_no_profile() {
    // Crawl resilience is strictly opt-in: the reference never mentions
    // crawl faults and the plan sets the explicit `none` profile.
    let world = world("none");
    let reference = Reference::of(&world);
    check(&world, &reference, &[Plan::batch(2)]);
    // The counters exist either way (dashboards can rely on them) but
    // stay pinned at zero without an active profile.
    assert_eq!(reference.out.counter("crawl.faults.injected"), 0);
    assert_eq!(reference.out.counter("crawl.faults.lost_steps"), 0);
    assert!(reference.out.health().iter().all(|h| h.is_clean()));
}

#[test]
fn active_profiles_steer_the_corpus() {
    let study = |crawl_faults| Study::run(&world(crawl_faults).builder(false).build().unwrap());
    let (clean, default, harsh) = (study("none"), study("default"), study("harsh"));

    let m = default.metrics();
    assert!(m.counter("crawl.faults.injected") > 0, "default profile must fault");
    assert!(m.counter("crawl.faults.lost_steps") > 0);
    assert!(default.store.len() < clean.store.len(), "faults must cost pages");
    // Not a law: some ad-network and torrent seeds invert the order at
    // this scale. It holds on this exchange seed.
    assert!(
        harsh.metrics().counter("crawl.faults.lost_steps") > m.counter("crawl.faults.lost_steps"),
        "harsh must lose more slots than default"
    );
    // Degradation, not abortion: every exchange still reports health and
    // the pipeline still produces all nine Table I rows.
    assert_eq!(harsh.health.len(), 9);
    assert_eq!(harsh.table1().rows.len(), 9);
}
