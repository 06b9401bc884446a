//! Determinism contract of the parallel scan phase: for any worker
//! count and chunk size, the chunked scan loop must return outcomes
//! identical to the serial `scan_all` — same order, same verdicts, same
//! reports — and a whole `Study::run` must export the same artifacts
//! and deterministic counters. The scan engines are pure hash-based
//! functions of each record, and the shared caches only memoize those
//! pure computations, so splitting the corpus across threads may never
//! change a single bit of the result.

use std::collections::BTreeMap;
use std::num::NonZeroUsize;

use slum_crawler::drive::{crawl_exchange, CrawlConfig};
use slum_crawler::{CrawlFaultProfile, RecordStore};
use slum_detect::fault::FaultProfile;
use slum_exchange::build_exchange;
use slum_exchange::params::profile;
use slum_websim::build::WebBuilder;
use slum_websim::SyntheticWeb;

use malware_slums::export;
use malware_slums::scanpipe::{ScanPipeline, DEFAULT_SCAN_CHUNK, DEFAULT_SERIAL_SCAN_THRESHOLD};
use malware_slums::study::{ConfigError, Study, StudyConfig, StudyConfigBuilder};

/// Crawls one exchange into a record corpus big enough to split across
/// every tested worker count unevenly.
fn corpus(seed: u64, steps: u64) -> (SyntheticWeb, RecordStore) {
    let mut builder = WebBuilder::new(seed);
    let p = profile("SendSurf").expect("profile exists");
    let mut exchange = build_exchange(&mut builder, p, 0.04, 50_000);
    let web = builder.finish();
    let mut store = RecordStore::new();
    crawl_exchange(
        &web,
        &mut exchange,
        &CrawlConfig { steps, seed, ..Default::default() },
        &mut store,
    );
    (web, store)
}

#[test]
fn parallel_scan_is_bit_identical_to_serial_for_all_worker_counts() {
    let (web, store) = corpus(7100, 90);
    let pipeline = ScanPipeline::new(&web);
    let baseline = pipeline.scan_all(store.records());
    assert_eq!(baseline.len(), store.len());

    // 7 does not divide the 90-record corpus; 256 and 10,000 put all
    // of it in one chunk.
    for workers in [1usize, 2, 4, 7] {
        for chunk in [1usize, 7, 256, 10_000] {
            pipeline.clear_caches();
            let parallel = pipeline.scan_all_parallel_chunked(store.records(), workers, chunk);
            assert_eq!(parallel, baseline, "{workers} workers, chunk {chunk} diverged from serial");
        }
    }
}

#[test]
fn parallel_scan_handles_empty_and_singleton_corpora() {
    let (web, store) = corpus(7101, 40);
    let pipeline = ScanPipeline::new(&web);

    for workers in [1usize, 2, 4, 7] {
        assert!(pipeline.scan_all_parallel_chunked(&[], workers, DEFAULT_SCAN_CHUNK).is_empty());
    }

    let single = &store.records()[..1];
    let baseline = pipeline.scan_all(single);
    for workers in [1usize, 2, 4, 7] {
        pipeline.clear_caches();
        let parallel = pipeline.scan_all_parallel_chunked(single, workers, DEFAULT_SCAN_CHUNK);
        assert_eq!(parallel, baseline);
    }
}

#[test]
fn warm_caches_do_not_change_outcomes() {
    // Re-scanning without clearing must hit the caches and still agree.
    let (web, store) = corpus(7102, 60);
    let pipeline = ScanPipeline::new(&web);
    let cold = pipeline.scan_all_parallel_chunked(store.records(), 4, DEFAULT_SCAN_CHUNK);
    assert!(pipeline.cached_urls() > 0, "scan must populate the feature cache");
    let warm = pipeline.scan_all_parallel_chunked(store.records(), 4, DEFAULT_SCAN_CHUNK);
    assert_eq!(warm, cold);
}

const SEED: u64 = 4242;

/// A small study with the serial threshold off, so every multi-worker
/// request really runs in parallel.
fn study_builder() -> StudyConfigBuilder {
    StudyConfig::builder()
        .seed(SEED)
        .crawl_scale(0.0003)
        .domain_scale(0.03)
        .serial_scan_threshold(0)
}

/// The worker count a parallel study runs with when `requested` were
/// asked for: the request, clamped to the host.
fn expected_workers(requested: usize) -> i64 {
    let cores = std::thread::available_parallelism().map_or(usize::MAX, NonZeroUsize::get);
    requested.min(cores) as i64
}

/// Export JSON plus deterministic counters, minus the gauges that echo
/// the worker count and the chunk size.
fn fingerprint(study: &Study) -> (String, BTreeMap<String, i128>) {
    let json = export::to_json(study).expect("export JSON");
    let mut counters = study.metrics().deterministic_counters();
    for key in ["gauge:config.scan_workers", "gauge:scan.workers", "gauge:config.scan_chunk"] {
        counters.remove(key);
    }
    (json, counters)
}

#[test]
fn study_outcomes_identical_across_worker_counts() {
    // The full study path — referral filtering, splicing of clean
    // outcomes for self/popular referrals, index alignment, fault-plan
    // replay — for every worker count and chunk size, fault-free and
    // under crawl faults (lost slots make the corpus ragged) and scan
    // faults (the plan is compiled from the whole corpus).
    let profiles = [
        ("fault-free", CrawlFaultProfile::none(), FaultProfile::none()),
        ("crawl faults", CrawlFaultProfile::default_profile(), FaultProfile::none()),
        ("scan faults", CrawlFaultProfile::none(), FaultProfile::default_profile()),
    ];
    for (name, crawl_faults, scan_faults) in profiles {
        let builder = || {
            study_builder()
                .crawl_fault_profile(crawl_faults.clone())
                .fault_profile(scan_faults.clone())
        };
        let serial = Study::run(&builder().scan_workers(1).build().expect("valid config"));
        let baseline = fingerprint(&serial);
        for workers in [1usize, 2, 4] {
            for chunk in [1usize, 64, 4096] {
                let config = builder().scan_workers(workers).scan_chunk(chunk);
                let study = Study::run(&config.build().expect("valid config"));
                let tag = format!("{name}: {workers} workers, chunk {chunk}");
                let used = study.metrics().gauge("scan.workers");
                assert_eq!(used, expected_workers(workers), "{tag}");
                assert_eq!(study.outcomes, serial.outcomes, "{tag}: outcomes diverged");
                assert_eq!(fingerprint(&study), baseline, "{tag}: export or counters diverged");
            }
        }
    }
}

#[test]
fn small_corpus_resolves_to_serial_regardless_of_requested_workers() {
    // The crawl_scale 0.001-class corpora sit far below the serial
    // threshold; requesting 8 workers must not spawn 8 threads (the
    // regression where parallel scans of tiny corpora ran slower than
    // serial). `scan.workers` reports the plan actually executed.
    let config = StudyConfig::builder()
        .seed(SEED)
        .crawl_scale(0.0003)
        .domain_scale(0.03)
        .scan_workers(8)
        .build()
        .expect("config");
    let study = Study::run(&config);
    let regular = study.metrics().counter("filter.regular_out");
    assert!(
        (regular as usize) < DEFAULT_SERIAL_SCAN_THRESHOLD,
        "test corpus must sit below the serial threshold"
    );
    assert_eq!(study.metrics().gauge("scan.workers"), 1);

    // Lowering the threshold re-enables parallelism (clamped to the
    // host), without changing results.
    let parallel = Study::run(&study_builder().scan_workers(8).build().expect("config"));
    assert_eq!(parallel.metrics().gauge("scan.workers"), expected_workers(8));
    let strip_threshold = |(json, mut counters): (String, BTreeMap<String, i128>)| {
        counters.remove("gauge:config.serial_scan_threshold");
        (json, counters)
    };
    assert_eq!(strip_threshold(fingerprint(&parallel)), strip_threshold(fingerprint(&study)));
}

#[test]
fn builder_rejects_zero_scan_chunk() {
    let err = study_builder().scan_chunk(0).build().unwrap_err();
    assert_eq!(err, ConfigError::ZeroScanChunk);
    assert!(err.to_string().contains("scan_chunk"), "{err}");
    assert!(study_builder().scan_chunk(128).build().is_ok());
}
