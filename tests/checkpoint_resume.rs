//! Recovery contract of the crawl checkpoint subsystem: a study killed
//! after *any* checkpoint round and resumed from disk reproduces one
//! that never stopped — same export, corpus, scan outcomes, health logs
//! and deterministic counters, minus the `ckpt.*` and `crawl.resume.*`
//! bookkeeping that records the recovery itself. The cases run through
//! the invariance harness (`harness/mod.rs`).
//!
//! The kill is a `CrawlSession` advanced N rounds and dropped, a
//! deterministic stand-in for `kill -9` between two checkpoint writes:
//! only the on-disk checkpoint survives, and a session opened with
//! `Restore::Required` resumes from it.

mod harness;

use harness::{assert_resume_rejects, check, scratch_dir, Plan, Reference, Run, World};
use malware_slums::study::{CrawlSession, Restore, Study};
use malware_slums::substrate::Substrate;
use malware_slums::CheckpointError;

const SEED: u64 = 2016;
const CHECKPOINT_EVERY: u64 = 16;

fn world(crawl_faults: &'static str) -> World {
    World { crawl_faults, ..World::fault_free(Substrate::Exchange, SEED) }
}

/// Kills a crawl of `world` on `workers` scan workers after each round
/// in `kills` (one kill per case) and checks every resume.
fn assert_kills_resume(world: &World, workers: usize, kills: impl Fn(u64) -> Vec<u64>) {
    let reference = Reference::of(world);
    let rounds = reference.rounds(CHECKPOINT_EVERY);
    assert!(rounds > 2, "the scale must give several checkpoint rounds");
    assert_eq!(reference.out.counter("crawl.resume.segments_restored"), 0);
    let plans: Vec<Plan> = kills(rounds)
        .into_iter()
        .map(|kill| Plan { run: Run::killed(CHECKPOINT_EVERY, &[kill]), ..Plan::batch(workers) })
        .collect();
    let coverage = check(world, &reference, &plans);
    assert_eq!(coverage.resumes, plans.len(), "every kill must interrupt the crawl");
}

#[test]
fn kill_at_every_round_resumes_bit_identical_fault_free() {
    assert_kills_resume(&world("none"), 1, |rounds| (1..rounds).collect());
}

#[test]
fn kill_at_every_round_resumes_bit_identical_under_faults() {
    // The adversarial combination: active fault windows (retries,
    // session drops, a possible shutdown) and parallel scan workers.
    assert_kills_resume(&world("default"), 4, |rounds| (1..rounds).collect());
}

#[test]
fn mid_crawl_kill_resumes_bit_identical_across_remaining_grid() {
    // The other two cells of the {none, default} x {1, 4} grid, killed
    // at a single mid-crawl round each.
    assert_kills_resume(&world("none"), 4, |rounds| vec![rounds / 2]);
    assert_kills_resume(&world("default"), 1, |rounds| vec![rounds / 2]);
}

#[test]
fn kill_past_the_last_round_just_completes() {
    // A kill after more rounds than the crawl needs is no error: the
    // crawl finishes first.
    let config = world("none").builder(false).checkpoint_every(CHECKPOINT_EVERY).build().unwrap();
    let dir = scratch_dir("overrun");
    let session = CrawlSession::open(&config, &dir, Restore::Never)
        .and_then(|session| session.advance(u64::MAX))
        .expect("checkpoint I/O");
    assert!(session.crawl_done(), "the crawl completes before the kill fires");
    let study = session.finish(None);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(study.store.to_jsonl().unwrap(), Study::run(&config).store.to_jsonl().unwrap());
}

#[test]
fn resume_rejects_a_mismatched_config() {
    // A checkpoint written under one seed must refuse to resume a study
    // of another: the RNG streams differ, so resuming would corrupt the
    // corpus undetectably.
    let config = |seed| {
        World::fault_free(Substrate::Exchange, seed)
            .builder(false)
            .checkpoint_every(CHECKPOINT_EVERY)
            .build()
            .expect("valid config")
    };
    assert_resume_rejects(&config(SEED), &config(SEED + 1), "seed");
}

#[test]
fn required_restore_from_an_empty_dir_fails() {
    // `repro --resume` opens its session this way: resuming from a
    // directory without a checkpoint fails and writes nothing, never
    // quietly crawling from scratch.
    let config = world("none").builder(false).checkpoint_every(CHECKPOINT_EVERY).build().unwrap();
    let dir = scratch_dir("empty");
    std::fs::create_dir_all(&dir).expect("empty dir");
    let err = CrawlSession::open(&config, &dir, Restore::Required)
        .err()
        .expect("resume from an empty dir must fail");
    let left = std::fs::read_dir(&dir).expect("dir").count();
    std::fs::remove_dir_all(&dir).ok();
    assert!(matches!(err, CheckpointError::NoCheckpoint { .. }), "unexpected error: {err}");
    assert_eq!(left, 0, "a failed resume must write nothing");
}
