//! Determinism contract of the pluggable traffic substrates: for every
//! substrate (`exchange`, `adnet`, `torrent`) the seeded study must be
//! a pure function of its configuration — identical corpus JSONL, scan
//! outcomes and export JSON across scan-worker counts {1, 2, 4, 8},
//! and a crawl killed between checkpoint rounds and resumed from disk
//! bit-identical to one that never stopped.
//!
//! The exchange substrate additionally carries a byte-level golden pin
//! in `exchange_golden_regression.rs`; this suite holds the invariants
//! the goldens cannot: cross-worker and kill/resume equality for the
//! substrates that have no published table to pin.

use std::num::NonZeroUsize;
use std::path::PathBuf;

use malware_slums::export;
use malware_slums::study::{CrawlSession, Restore, Study, StudyConfig};
use malware_slums::substrate::Substrate;

const SEED: u64 = 2016;

/// The serial threshold is off, so every multi-worker request really
/// runs in parallel.
fn config_for(substrate: Substrate, workers: usize) -> StudyConfig {
    StudyConfig::builder()
        .seed(SEED)
        .crawl_scale(0.0005)
        .domain_scale(0.03)
        .scan_workers(workers)
        .serial_scan_threshold(0)
        .substrate(substrate)
        .build()
        .expect("valid config")
}

/// The full observable output of a study, as comparable strings.
fn fingerprint(study: &Study) -> (String, String) {
    (
        study.store.to_jsonl().expect("serializable corpus"),
        export::to_json(study).expect("export JSON"),
    )
}

#[test]
fn every_substrate_is_identical_across_worker_counts() {
    for substrate in Substrate::ALL {
        let baseline = Study::run(&config_for(substrate, 1));
        let (base_jsonl, base_export) = fingerprint(&baseline);
        assert!(baseline.store.len() > 0, "{}: empty corpus", substrate.name());
        let cores = std::thread::available_parallelism().map_or(usize::MAX, NonZeroUsize::get);
        for workers in [2usize, 4, 8] {
            let study = Study::run(&config_for(substrate, workers));
            assert_eq!(
                study.metrics().gauge("scan.workers"),
                workers.min(cores) as i64,
                "{}: {workers} workers requested",
                substrate.name()
            );
            assert_eq!(
                study.outcomes,
                baseline.outcomes,
                "{}: outcomes diverged at {workers} workers",
                substrate.name()
            );
            let (jsonl, export_json) = fingerprint(&study);
            assert_eq!(
                jsonl,
                base_jsonl,
                "{}: corpus diverged at {workers} workers",
                substrate.name()
            );
            // The export echoes config.scan_workers nowhere, so it must
            // be byte-identical too.
            assert_eq!(
                export_json,
                base_export,
                "{}: export diverged at {workers} workers",
                substrate.name()
            );
        }
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("slum-substrate-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn new_substrates_survive_kill_and_resume_bit_identical() {
    for substrate in [Substrate::AdNet, Substrate::Torrent] {
        let config = StudyConfig::builder()
            .seed(SEED)
            .crawl_scale(0.0005)
            .domain_scale(0.03)
            .substrate(substrate)
            .checkpoint_every(16)
            .build()
            .expect("valid config");
        let straight = Study::run(&config);
        let dir = scratch_dir(substrate.name());
        let killed = CrawlSession::open(&config, &dir, Restore::Never)
            .and_then(|session| session.advance(1))
            .expect("killed run does checkpoint I/O");
        assert!(!killed.crawl_done(), "{}: kill must abandon the run", substrate.name());
        drop(killed);
        let resumed = CrawlSession::open(&config, &dir, Restore::Required)
            .and_then(|session| session.advance(u64::MAX))
            .expect("resume")
            .finish(None);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(
            fingerprint(&resumed),
            fingerprint(&straight),
            "{}: resumed run diverged from the uninterrupted one",
            substrate.name()
        );
        assert_eq!(resumed.outcomes, straight.outcomes, "{}: outcomes", substrate.name());
        assert!(resumed.metrics().counter("crawl.resume.records_restored") > 0);
    }
}

#[test]
fn resume_rejects_a_checkpoint_from_another_substrate() {
    // An adnet checkpoint must refuse to seed a torrent study: the RNG
    // streams are substrate-specific, so a silent cross-substrate
    // resume would corrupt the corpus undetectably.
    let write_config = |substrate| {
        StudyConfig::builder()
            .seed(SEED)
            .crawl_scale(0.0005)
            .domain_scale(0.03)
            .substrate(substrate)
            .checkpoint_every(16)
            .build()
            .expect("valid config")
    };
    let dir = scratch_dir("mismatch");
    let killed = CrawlSession::open(&write_config(Substrate::AdNet), &dir, Restore::Never)
        .and_then(|session| session.advance(1))
        .expect("killed run");
    assert!(!killed.crawl_done());
    drop(killed);
    let torrent = write_config(Substrate::Torrent);
    let err = match CrawlSession::open(&torrent, &dir, Restore::Required) {
        Ok(_) => panic!("cross-substrate resume must be rejected"),
        Err(e) => e,
    };
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        matches!(
            err,
            malware_slums::CheckpointError::ConfigMismatch { ref field, .. } if *field == "substrate"
        ),
        "unexpected error: {err}"
    );
}
