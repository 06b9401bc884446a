//! Recovery contract of the crawl checkpoint subsystem: a study killed
//! after *any* checkpoint round and resumed from disk must be
//! bit-identical to one that never stopped — same record JSONL, same
//! scan outcomes, same health logs, same export JSON, same
//! deterministic counters (minus the `crawl.resume.*` bookkeeping that
//! deliberately records the recovery itself).
//!
//! The kill is a [`CrawlSession`] advanced N rounds and dropped, a
//! deterministic stand-in for `kill -9` between two checkpoint writes:
//! only the on-disk checkpoint survives, and a session opened with
//! [`Restore::Required`] resumes from it.

use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::path::PathBuf;

use malware_slums::export;
use malware_slums::study::{CrawlSession, Restore, Study, StudyConfig};
use malware_slums::CheckpointError;
use slum_crawler::CrawlFaultProfile;

const SEED: u64 = 2016;
const CHECKPOINT_EVERY: u64 = 16;

fn config_with(workers: usize, profile: CrawlFaultProfile) -> StudyConfig {
    StudyConfig::builder()
        .seed(SEED)
        .crawl_scale(0.0003)
        .domain_scale(0.03)
        .scan_workers(workers)
        .serial_scan_threshold(0)
        .crawl_fault_profile(profile)
        .checkpoint_every(CHECKPOINT_EVERY)
        .build()
        .expect("valid config")
}

/// The worker count a parallel study runs with when `requested` were
/// asked for: the request, clamped to the host.
fn expected_workers(requested: usize) -> i64 {
    let cores = std::thread::available_parallelism().map_or(usize::MAX, NonZeroUsize::get);
    requested.min(cores) as i64
}

/// Deterministic counters/gauges minus the worker-count echoes and the
/// `crawl.resume.*` / `ckpt.*` recovery bookkeeping — the intended
/// differences between a straight and a resumed run (the checkpoint
/// subsystem deliberately records its own activity).
fn comparable_metrics(study: &Study) -> BTreeMap<String, i128> {
    let mut m = study.metrics().deterministic_counters();
    m.remove("gauge:config.scan_workers");
    m.remove("gauge:scan.workers");
    m.retain(|k, _| !k.starts_with("crawl.resume.") && !k.starts_with("ckpt."));
    m
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "slum-resume-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Counts the checkpoint rounds a full run of `config` writes. The
/// store prunes old generations, so the count comes from the newest
/// checkpoint's header (its round number), not the surviving files.
fn rounds_for(config: &StudyConfig, tag: &str) -> u64 {
    let dir = scratch_dir(tag);
    let crawled = CrawlSession::open(config, &dir, Restore::Never)
        .and_then(|session| session.advance(u64::MAX))
        .expect("checkpointed run");
    assert!(crawled.crawl_done());
    let store = malware_slums::CheckpointStore::open(&dir).expect("store");
    let (header, _) = store.load_latest().expect("latest checkpoint");
    std::fs::remove_dir_all(&dir).ok();
    assert!(header.round > 1, "scale must produce multiple checkpoint rounds");
    header.round
}

fn assert_resume_matches(straight: &Study, config: &StudyConfig, kill_after: u64, tag: &str) {
    let dir = scratch_dir(&format!("{tag}-k{kill_after}"));
    let killed = CrawlSession::open(config, &dir, Restore::Never)
        .and_then(|session| session.advance(kill_after))
        .expect("killed run does checkpoint I/O");
    assert!(!killed.crawl_done(), "{tag}: kill at round {kill_after} must abandon the run");
    drop(killed);
    let resumed = CrawlSession::open(config, &dir, Restore::Required)
        .and_then(|session| session.advance(u64::MAX))
        .expect("resume")
        .finish(None);
    std::fs::remove_dir_all(&dir).ok();

    // Both runs really scan in parallel: the worker gauges are the one
    // thing `comparable_metrics` leaves out.
    let workers = expected_workers(config.scan_workers);
    assert_eq!(straight.metrics().gauge("scan.workers"), workers, "{tag}: straight workers");
    assert_eq!(resumed.metrics().gauge("scan.workers"), workers, "{tag}: resumed workers");

    assert_eq!(
        resumed.store.to_jsonl(),
        straight.store.to_jsonl(),
        "{tag}: corpus diverged after kill at round {kill_after}"
    );
    assert_eq!(resumed.outcomes, straight.outcomes, "{tag}: outcomes diverged");
    assert_eq!(resumed.health, straight.health, "{tag}: health logs diverged");
    assert_eq!(
        export::to_json(&resumed).expect("export"),
        export::to_json(straight).expect("export"),
        "{tag}: export JSON diverged"
    );
    assert_eq!(
        comparable_metrics(&resumed),
        comparable_metrics(straight),
        "{tag}: counters diverged"
    );
    // The resume itself is visible — and only there.
    let m = resumed.metrics();
    assert_eq!(m.counter("crawl.resume.segments_restored"), kill_after);
    assert!(m.counter("crawl.resume.records_restored") > 0);
    assert_eq!(straight.metrics().counter("crawl.resume.segments_restored"), 0);
}

#[test]
fn kill_at_every_round_resumes_bit_identical_fault_free() {
    let config = config_with(1, CrawlFaultProfile::none());
    let straight = Study::run(&config);
    let rounds = rounds_for(&config, "none-w1");
    for kill_after in 1..rounds {
        assert_resume_matches(&straight, &config, kill_after, "none-w1");
    }
}

#[test]
fn kill_at_every_round_resumes_bit_identical_under_faults() {
    // The adversarial combination: active fault windows (retries,
    // session drops, a possible shutdown) AND parallel scan workers.
    let config = config_with(4, CrawlFaultProfile::default_profile());
    let straight = Study::run(&config);
    let rounds = rounds_for(&config, "default-w4");
    for kill_after in 1..rounds {
        assert_resume_matches(&straight, &config, kill_after, "default-w4");
    }
}

#[test]
fn mid_crawl_kill_resumes_bit_identical_across_remaining_grid() {
    // The other two cells of the {none, default} x {1, 4} acceptance
    // grid, killed at a single mid-crawl round each.
    for (workers, profile, tag) in [
        (4usize, CrawlFaultProfile::none(), "none-w4"),
        (1usize, CrawlFaultProfile::default_profile(), "default-w1"),
    ] {
        let config = config_with(workers, profile);
        let straight = Study::run(&config);
        let rounds = rounds_for(&config, tag);
        assert_resume_matches(&straight, &config, rounds / 2, tag);
    }
}

#[test]
fn kill_past_the_last_round_just_completes() {
    // Asking to kill after more rounds than the crawl needs is not an
    // error: the run finishes first and returns the completed study.
    let config = config_with(1, CrawlFaultProfile::none());
    let dir = scratch_dir("overrun");
    let session = CrawlSession::open(&config, &dir, Restore::Never)
        .and_then(|session| session.advance(u64::MAX))
        .expect("checkpoint I/O");
    assert!(session.crawl_done(), "run completes before the kill fires");
    let study = session.finish(None);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(study.store.to_jsonl(), Study::run(&config).store.to_jsonl());
}

#[test]
fn resume_rejects_a_mismatched_config() {
    // A checkpoint written under one seed must refuse to resume a study
    // configured with another — silent cross-seed resumption would
    // corrupt the corpus undetectably.
    let config = config_with(1, CrawlFaultProfile::none());
    let dir = scratch_dir("mismatch");
    let killed = CrawlSession::open(&config, &dir, Restore::Never)
        .and_then(|session| session.advance(1))
        .expect("killed run");
    assert!(!killed.crawl_done());
    drop(killed);
    let other = StudyConfig::builder()
        .seed(SEED + 1)
        .crawl_scale(0.0003)
        .domain_scale(0.03)
        .scan_workers(1)
        .checkpoint_every(CHECKPOINT_EVERY)
        .build()
        .expect("valid config");
    let err = match CrawlSession::open(&other, &dir, Restore::Required) {
        Ok(_) => panic!("seed mismatch must be rejected"),
        Err(e) => e,
    };
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        matches!(err, CheckpointError::ConfigMismatch { field, .. } if field == "seed"),
        "unexpected error: {err}"
    );
}

#[test]
fn required_restore_from_an_empty_dir_fails() {
    // `repro --resume` opens its session this way: resuming from a
    // directory with no checkpoint must fail, never quietly crawl from
    // scratch.
    let config = config_with(1, CrawlFaultProfile::none());
    let dir = scratch_dir("empty");
    std::fs::create_dir_all(&dir).expect("empty dir");
    let err = match CrawlSession::open(&config, &dir, Restore::Required) {
        Ok(_) => panic!("resume from an empty dir must fail"),
        Err(e) => e,
    };
    let left = std::fs::read_dir(&dir).expect("dir").count();
    std::fs::remove_dir_all(&dir).ok();
    assert!(matches!(err, CheckpointError::NoCheckpoint { .. }), "unexpected error: {err}");
    assert_eq!(left, 0, "a failed resume must write nothing");
}
