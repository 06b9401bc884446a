//! Determinism contract of the parallel scan phase: for any worker
//! count and chunk size, the chunked scan loop returns outcomes
//! identical to the serial `scan_all` — same order, same verdicts, same
//! reports — and a whole study exports the same artifacts and
//! deterministic counters. The scan engines are pure hash-based
//! functions of each record, and the scan plan only computes each
//! distinct key once, so neither splitting the work across threads nor
//! the rest of the batch may change a single bit of a record's result.
//! The study cases run through the invariance harness
//! (`harness/mod.rs`).

mod harness;

use std::collections::HashSet;

use harness::{check, Plan, Reference, World};
use malware_slums::export;
use malware_slums::filter::ReferralClass;
use malware_slums::scanpipe::{ScanPipeline, DEFAULT_SCAN_CHUNK, DEFAULT_SERIAL_SCAN_THRESHOLD};
use malware_slums::study::{ConfigError, Study};
use malware_slums::substrate::Substrate;
use proptest::prelude::*;
use slum_crawler::CrawlRecord;
use slum_detect::fault::FaultPlan;
use slum_js::sandbox::JsEngine;

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

    // A record's outcome does not depend on the rest of its batch: the
    // worker sweep below holds the batch plan to itself, so only a
    // plan of one record alone can catch a wrong id or a slip in the
    // chain walk's early exit.
    for (i, record) in records.iter().enumerate() {
        let alone = ScanPipeline::new(&study.web).scan(record);
        assert_eq!(alone, baseline[i], "record {i} scanned alone diverged from its batch slot");
    }

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A batch shares scanner loads between the URLs of one route and
    /// body scans between the captures of one body, and each record
    /// adds only its own engine draws. A batch of one record shares
    /// nothing, so it is the reference: every regular record's slot of
    /// one batch scan (and of its study) equals the record scanned
    /// alone under the same fault plan, for drawn substrates, seeds,
    /// scan fault profiles and JS engines, at crawl scales where routes
    /// repeat.
    #[test]
    fn every_record_scanned_alone_matches_its_slot_in_a_sharing_batch(
        substrate in 0usize..3,
        seed in 1u64..1_000_000,
        scan_faults in 0usize..3,
        engine in 0usize..2,
        crawl_scale in 0.002f64..0.005,
    ) {
        let world = World {
            substrate: [Substrate::Exchange, Substrate::AdNet, Substrate::Torrent][substrate],
            seed,
            scan_faults: ["none", "default", "harsh"][scan_faults],
            crawl_faults: "none",
        };
        let engine = [JsEngine::Vm, JsEngine::TreeWalk][engine];
        let config =
            world.builder(false).crawl_scale(crawl_scale).js_engine(engine).build().unwrap();
        let study = Study::run(&config);
        let (regular, study_slots): (Vec<CrawlRecord>, Vec<_>) = (study.store.records().iter())
            .zip(&study.outcomes)
            .zip(&study.referrals)
            .filter(|(_, class)| **class == ReferralClass::Regular)
            .map(|((record, outcome), _)| (record.clone(), outcome.clone()))
            .unzip();
        let routes: HashSet<&str> = regular.iter().map(|r| r.url.host_path()).collect();
        let urls: HashSet<&str> = regular.iter().map(|r| r.url.as_str()).collect();
        prop_assert!(routes.len() < urls.len(), "{world:?}: no route repeats");

        // The study compiles its plan from the regular records in corpus
        // order; so does every pipeline here.
        let pipeline = || {
            let pipeline = ScanPipeline::new(&study.web).with_js_engine(engine);
            if config.fault_profile.is_inert() {
                return pipeline;
            }
            let requests = regular.iter().map(|r| (r.exchange.as_str(), r.seq, r.at));
            let plan = FaultPlan::compile_requests(&config.fault_profile, seed, requests);
            pipeline.with_fault_plan(plan)
        };
        let batch = pipeline().scan_all_parallel_chunked(&regular, 2, 64);
        prop_assert!(batch == study_slots, "{world:?}: the batch diverged from its study");
        // Clearing the sample table before each record makes the
        // pipeline a fresh one: what survives (per-body static features
        // and compiled modules) is a pure function of the body or script.
        let alone = pipeline();
        for (record, slot) in regular.iter().zip(&batch) {
            alone.clear_caches();
            let scanned = alone.scan(record);
            prop_assert!(scanned == *slot, "{world:?} {:?}: {scanned:?} != {slot:?}", record.url);
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
