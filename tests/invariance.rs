//! The invariance property: a study's artifacts and deterministic
//! counters are a pure function of its *world* — substrate, seed, scan
//! fault profile and crawl fault profile — whatever *plan* executes it.
//!
//! Every case draws a world and a plan from one RNG with a fixed seed.
//! A plan draws the scan worker count, the scan chunk size, the JS
//! engine and one way to run the study: a batch `Study::run`, a crawl
//! session killed after drawn checkpoint rounds under a drawn disk
//! fault profile (optionally finished through caches an identical
//! session warmed first), or a two-tenant service in a drawn order,
//! optionally with the daemon killed after some slices. The engine in
//! `harness/mod.rs` holds each case to its world's plain `Study::run`,
//! up to the mode keys of the knobs the plan moved (`MODE_KEYS`).
//!
//! The vendored proptest shim does not shrink, so a failing case prints
//! its world and its plan. The case count is a constant, and a coverage
//! floor asserted after the last case keeps a change to the draws from
//! passing vacuously.

mod harness;

use std::collections::{BTreeSet, HashMap};
use std::ops::RangeInclusive;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use harness::{explain, run_case, scratch_dir, Coverage, Order, Plan, Reference, Run, World};
use malware_slums::substrate::Substrate;
use malware_slums::DiskFaultProfile;
use slum_crawler::CrawlFaultProfile;
use slum_detect::fault::FaultProfile;

/// Cases drawn per run.
const CASES: usize = 120;

/// Seed of the RNG that draws every case.
const DRAW_SEED: u64 = 0x1a7a_5eed;

/// World seeds.
const SEEDS: RangeInclusive<u64> = 17..=32;

/// The seeds whose crawl surfs through a URL shortener. At this scale
/// they are the only ones in 1–60 that do, and only on the fault-free
/// exchange crawl; each gives a one-row Table IV. A resumed crawl
/// rebuilds those hit counts only by replaying its restored page loads.
const SHORTENER_SEEDS: [u64; 2] = [24, 29];

/// Draws a world. One draw in six is a shortener world, which a
/// uniform draw would reach once in 72.
fn draw_world(rng: &mut StdRng) -> World {
    let scan_faults = FaultProfile::NAMES[rng.gen_range(0..FaultProfile::NAMES.len())];
    if rng.gen_bool(1.0 / 6.0) {
        return World {
            substrate: Substrate::Exchange,
            seed: SHORTENER_SEEDS[rng.gen_range(0..SHORTENER_SEEDS.len())],
            scan_faults,
            crawl_faults: "none",
        };
    }
    World {
        substrate: Substrate::ALL[rng.gen_range(0..Substrate::ALL.len())],
        seed: rng.gen_range(SEEDS),
        scan_faults,
        crawl_faults: CrawlFaultProfile::NAMES[rng.gen_range(0..CrawlFaultProfile::NAMES.len())],
    }
}

fn draw_plan(rng: &mut StdRng, reference: &Reference) -> Plan {
    let every = rng.gen_range(4..=32u64);
    let rounds = reference.rounds(every);
    let run = match rng.gen_range(0..10) {
        0..=1 => Run::Batch,
        2..=6 => {
            let mut kills = BTreeSet::new();
            for _ in 0..rng.gen_range(1..=3) {
                kills.insert(rng.gen_range(1..rounds));
            }
            Run::Session {
                every,
                kills: kills.into_iter().collect(),
                disk_faults: DiskFaultProfile::NAMES[rng.gen_range(0..3)],
                warm: rng.gen_bool(0.4),
            }
        }
        _ => Run::Service {
            every,
            order: [Order::RoundRobin, Order::Reversed, Order::OneAfterAnother]
                [rng.gen_range(0..3)],
            daemon_kill: rng.gen_bool(0.5).then(|| rng.gen_range(1..2 * rounds)),
        },
    };
    Plan {
        workers: rng.gen_range(1..=8),
        chunk: [1, 7, 64, 4096][rng.gen_range(0..4)],
        engine: ["vm", "interp"][rng.gen_range(0..2)],
        run,
    }
}

/// Asserts that the draws reached every case worth covering.
fn assert_floor(c: &Coverage) {
    let reached = [
        c.shortener_restored,
        c.warm_session,
        c.warm_service,
        c.interp_under_harsh_scan_faults,
        c.adnet_resumed,
        c.torrent_resumed,
        c.two_kills,
        c.daemon_kill,
    ];
    assert!(reached.iter().all(|&n| n > 0), "the draws missed part of the floor: {c:?}");
}

#[test]
fn every_plan_reproduces_its_worlds_plain_run() {
    let mut rng = StdRng::seed_from_u64(DRAW_SEED);
    let mut references: HashMap<_, Reference> = HashMap::new();
    let mut coverage = Coverage::default();
    for case in 0..CASES {
        let world = draw_world(&mut rng);
        let reference = references.entry(world.key()).or_insert_with(|| {
            explain(
                || format!("case {case}: world invariants failed\n  world: {world:?}"),
                || Reference::of(&world),
            )
        });
        let plan = draw_plan(&mut rng, reference);
        let root = scratch_dir(&format!("case{case}"));
        let what = || format!("case {case} failed\n  world: {world:?}\n  plan:  {plan:?}");
        explain(what, || run_case(&world, &plan, reference, &root, &mut coverage));
        std::fs::remove_dir_all(&root).ok();
    }
    assert_floor(&coverage);
}
