//! Determinism contract of the parallel scan phase: for any worker
//! count and chunk size, the chunked scan loop returns outcomes
//! identical to the serial `scan_all` — same order, same verdicts, same
//! reports — and a whole study exports the same artifacts and
//! deterministic counters. The scan engines are pure hash-based
//! functions of each record, and the shared caches only memoize those
//! pure computations, so splitting the corpus across threads may never
//! change a single bit of the result. The study cases run through the
//! invariance harness (`harness/mod.rs`).

mod harness;

use harness::{check, Plan, Reference, World};
use malware_slums::export;
use malware_slums::scanpipe::{ScanPipeline, DEFAULT_SCAN_CHUNK, DEFAULT_SERIAL_SCAN_THRESHOLD};
use malware_slums::study::{ConfigError, Study};
use malware_slums::substrate::Substrate;

const SEED: u64 = 4242;

/// A crawled study of `seed`, whose corpus the pipeline tests scan.
fn crawled(seed: u64) -> Study {
    Study::run(&World::fault_free(Substrate::Exchange, seed).builder(false).build().unwrap())
}

#[test]
fn parallel_scan_is_bit_identical_to_serial_for_all_worker_counts() {
    let study = crawled(7100);
    let records = &study.store.records()[..90];
    let pipeline = ScanPipeline::new(&study.web);
    let baseline = pipeline.scan_all(records);
    assert_eq!(baseline.len(), records.len());

    // 7 does not divide the 90 records; 256 and 10,000 put all of them
    // in one chunk.
    for workers in [1usize, 2, 4, 7] {
        for chunk in [1usize, 7, 256, 10_000] {
            pipeline.clear_caches();
            let parallel = pipeline.scan_all_parallel_chunked(records, workers, chunk);
            assert_eq!(parallel, baseline, "{workers} workers, chunk {chunk} diverged from serial");
        }
    }
}

#[test]
fn parallel_scan_handles_empty_and_singleton_corpora() {
    let study = crawled(7101);
    let pipeline = ScanPipeline::new(&study.web);

    for workers in [1usize, 2, 4, 7] {
        assert!(pipeline.scan_all_parallel_chunked(&[], workers, DEFAULT_SCAN_CHUNK).is_empty());
    }

    let single = &study.store.records()[..1];
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
    let study = crawled(7102);
    let records = &study.store.records()[..60];
    let pipeline = ScanPipeline::new(&study.web);
    let cold = pipeline.scan_all_parallel_chunked(records, 4, DEFAULT_SCAN_CHUNK);
    assert!(pipeline.cached_urls() > 0, "scan must populate the feature cache");
    let warm = pipeline.scan_all_parallel_chunked(records, 4, DEFAULT_SCAN_CHUNK);
    assert_eq!(warm, cold);
}

#[test]
fn study_outcomes_identical_across_worker_counts() {
    // The full study path — referral filtering, splicing of clean
    // outcomes for self/popular referrals, index alignment, fault-plan
    // replay — for every worker count and chunk size, fault-free and
    // under crawl faults (lost slots make the corpus ragged) and scan
    // faults (the plan is compiled from the whole corpus).
    let fault_free = World::fault_free(Substrate::Exchange, SEED);
    let worlds = [
        World { crawl_faults: "default", ..fault_free.clone() },
        World { scan_faults: "default", ..fault_free.clone() },
        fault_free,
    ];
    let mut plans = Vec::new();
    for workers in [1usize, 2, 4] {
        for chunk in [1usize, 64, 4096] {
            plans.push(Plan { chunk, ..Plan::batch(workers) });
        }
    }
    for world in &worlds {
        check(world, &Reference::of(world), &plans);
    }
}

#[test]
fn small_corpus_resolves_to_serial_regardless_of_requested_workers() {
    // The crawl_scale 0.001-class corpora sit far below the serial
    // threshold; requesting 8 workers must not spawn 8 threads (the
    // regression where parallel scans of tiny corpora ran slower than
    // serial). `scan.workers` reports the plan actually executed.
    let world = World::fault_free(Substrate::Exchange, SEED);
    let study = Study::run(&world.builder(false).scan_workers(8).build().expect("config"));
    let regular = study.metrics().counter("filter.regular_out");
    assert!(
        (regular as usize) < DEFAULT_SERIAL_SCAN_THRESHOLD,
        "test corpus must sit below the serial threshold"
    );
    assert_eq!(study.metrics().gauge("scan.workers"), 1);

    // Lowering the threshold re-enables parallelism (clamped to the
    // host), without changing results.
    let reference = Reference::of(&world);
    assert!(export::to_json(&study).unwrap() == reference.out.export, "serial fallback");
    check(&world, &reference, &[Plan::batch(8)]);
}

#[test]
fn builder_rejects_zero_scan_chunk() {
    let builder = || World::fault_free(Substrate::Exchange, SEED).builder(false);
    let err = builder().scan_chunk(0).build().unwrap_err();
    assert_eq!(err, ConfigError::ZeroScanChunk);
    assert!(err.to_string().contains("scan_chunk"), "{err}");
    assert!(builder().scan_chunk(128).build().is_ok());
}
