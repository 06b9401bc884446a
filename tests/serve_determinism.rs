//! Determinism contract of the resident study service: a study
//! submitted to `slum_serve::Service` exports the same JSON, and
//! reports the same `tenant.<name>.` counters, as the same world run
//! through the batch `Study::run`, no matter
//!
//! - how its scheduling slices interleave with other tenants' studies
//!   (round-robin, reversed, run-to-completion one at a time),
//! - whether the daemon was killed and a fresh service re-attached to
//!   the same root mid-crawl (kill-and-resume), or
//! - whether another tenant's identical study warmed the shared scan
//!   caches first (cache sharing moves neither the artifacts nor any
//!   tenant counter: a study's `scan.cache.*` and `js.vm.*` counters
//!   are its own scan plan's; only the group's cumulative stats,
//!   `Service::cache_group_stats`, observe it).
//!
//! The contract holds for every traffic substrate. The cases run
//! through the invariance harness (`harness/mod.rs`).

mod harness;

use harness::{assert_tenants_reproduce, check, scratch_dir, Order, Plan, Reference, Run, World};
use malware_slums::substrate::Substrate;
use slum_serve::Service;

const SEED: u64 = 2016;
const CHECKPOINT_EVERY: u64 = 7;

fn service_plan(order: Order, daemon_kill: Option<u64>) -> Plan {
    Plan { run: Run::Service { every: CHECKPOINT_EVERY, order, daemon_kill }, ..Plan::batch(2) }
}

#[test]
fn interleaved_tenants_match_batch_for_every_substrate() {
    // One tenant per substrate, round-robin to completion.
    let worlds = Substrate::ALL.map(|substrate| World::fault_free(substrate, SEED));
    let references: Vec<Reference> = worlds.iter().map(Reference::of).collect();
    let plan = service_plan(Order::RoundRobin, None);
    let root = scratch_dir("interleave");
    let service = Service::open(&root).expect("service root");
    let tenants: Vec<(&str, u64, &Reference)> = ["tenant-0", "tenant-1", "tenant-2"]
        .into_iter()
        .zip(worlds.iter().zip(&references))
        .map(|(tenant, (world, reference))| {
            (tenant, service.submit(tenant, plan.config(world)).expect("submit"), reference)
        })
        .collect();
    service.run_to_completion().expect("scheduler");
    assert_tenants_reproduce(&service, tenants, &plan);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn scheduling_order_never_affects_artifacts() {
    let world = World::fault_free(Substrate::Exchange, SEED);
    let plans = [Order::Reversed, Order::OneAfterAnother].map(|order| service_plan(order, None));
    check(&world, &Reference::of(&world), &plans);
}

#[test]
fn killed_daemon_resumes_bit_identically() {
    for substrate in Substrate::ALL {
        let world = World::fault_free(substrate, SEED);
        let coverage =
            check(&world, &Reference::of(&world), &[service_plan(Order::RoundRobin, Some(3))]);
        assert_eq!(coverage.daemon_kill, 1, "{}: the kill must interrupt", substrate.name());
    }
}

#[test]
fn cache_sharing_is_artifact_invisible_and_actually_shares() {
    // Tenant alpha runs alone and warms the shared caches; tenant beta
    // then scans the same web through them. The harness checks that
    // beta added no entries to the group while doubling its lookups,
    // that both tenants match batch on every deterministic counter, and
    // that the shared verdict index answers beta's queries for the URLs
    // alpha scanned.
    let world = World::fault_free(Substrate::Exchange, SEED);
    let coverage =
        check(&world, &Reference::of(&world), &[service_plan(Order::OneAfterAnother, None)]);
    assert_eq!(coverage.warm_service, 1, "the second tenant must scan warm");
}
