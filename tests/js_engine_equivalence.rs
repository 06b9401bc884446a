//! Equivalence contract of the two JS engines: a study configured with
//! `JsEngine::Vm` (compile → cached bytecode → stack dispatch) must
//! produce byte-identical scan output to one configured with
//! `JsEngine::TreeWalk` (the original AST interpreter). Verdicts,
//! outcomes, health logs and export JSON may not differ by a single
//! bit, for every worker count and fault profile — the only permitted
//! differences are the `js.vm.*` instrumentation and the
//! `config.js_engine_vm` gauge that record which engine ran.
//!
//! This is the regression net under the interpreter's new role as
//! differential-testing oracle: if the VM ever drifts semantically,
//! these studies diverge before any proptest shrinks a counterexample.
//! The serial threshold is off, so every multi-worker study scans in
//! parallel.

use std::collections::BTreeMap;
use std::num::NonZeroUsize;

use malware_slums::export;
use malware_slums::scanpipe::{ScanPipeline, DEFAULT_SCAN_CHUNK};
use malware_slums::study::{Study, StudyConfig};
use slum_crawler::drive::{crawl_exchange, CrawlConfig};
use slum_crawler::RecordStore;
use slum_detect::fault::FaultProfile;
use slum_exchange::build_exchange;
use slum_exchange::params::profile;
use slum_js::sandbox::JsEngine;
use slum_websim::build::WebBuilder;
use slum_websim::{payload, SyntheticWeb, Url};

const SEED: u64 = 2016;

fn study_with(engine: JsEngine, workers: usize, profile: FaultProfile) -> Study {
    let config = StudyConfig::builder()
        .seed(SEED)
        .crawl_scale(0.0003)
        .domain_scale(0.03)
        .scan_workers(workers)
        .serial_scan_threshold(0)
        .fault_profile(profile)
        .js_engine(engine)
        .build()
        .expect("valid config");
    Study::run(&config)
}

/// The worker count a parallel study runs with when `requested` were
/// asked for: the request, clamped to the host.
fn expected_workers(requested: usize) -> i64 {
    let cores = std::thread::available_parallelism().map_or(usize::MAX, NonZeroUsize::get);
    requested.min(cores) as i64
}

/// Deterministic counters minus the engine-identifying instrumentation
/// and the worker-count echoes: `js.vm.*` legitimately differs between
/// engines (the tree-walker reports zeros), `config.js_engine_vm`
/// records the switch itself, and the worker gauges echo the sweep.
fn engine_neutral_metrics(study: &Study) -> BTreeMap<String, i128> {
    let mut m = study.metrics().deterministic_counters();
    m.remove("gauge:config.scan_workers");
    m.remove("gauge:scan.workers");
    m.retain(|k, _| !k.starts_with("js.vm.") && k != "gauge:config.js_engine_vm");
    m
}

fn assert_studies_agree(vm: &Study, interp: &Study, tag: &str) {
    let workers = vm.config().scan_workers;
    assert_eq!(vm.metrics().gauge("scan.workers"), expected_workers(workers), "{tag}");
    assert_eq!(
        vm.store.to_jsonl(),
        interp.store.to_jsonl(),
        "{tag}: crawl corpus diverged between engines"
    );
    assert_eq!(vm.outcomes, interp.outcomes, "{tag}: scan outcomes diverged");
    assert_eq!(vm.health, interp.health, "{tag}: health logs diverged");
    assert_eq!(
        export::to_json(vm).expect("export"),
        export::to_json(interp).expect("export"),
        "{tag}: export JSON diverged"
    );
    assert_eq!(
        engine_neutral_metrics(vm),
        engine_neutral_metrics(interp),
        "{tag}: engine-neutral counters diverged"
    );
}

#[test]
fn scan_output_bit_identical_across_engines_and_worker_counts() {
    let interp = study_with(JsEngine::TreeWalk, 1, FaultProfile::none());
    for workers in [1usize, 2, 4, 8] {
        let vm = study_with(JsEngine::Vm, workers, FaultProfile::none());
        assert_studies_agree(&vm, &interp, &format!("none-w{workers}"));
    }
}

#[test]
fn scan_output_bit_identical_across_engines_under_faults() {
    // Fault injection replays retries through the sandbox; the verdict
    // splice must land identically whichever engine ran the scripts.
    for profile in [FaultProfile::default_profile(), FaultProfile::harsh()] {
        let interp = study_with(JsEngine::TreeWalk, 1, profile.clone());
        for workers in [1usize, 2, 4, 8] {
            let vm = study_with(JsEngine::Vm, workers, profile.clone());
            assert_studies_agree(&vm, &interp, &format!("{profile:?}-w{workers}"));
        }
    }
}

#[test]
fn vm_metrics_always_registered_and_deterministic() {
    // `js.vm.*` counters exist under both engines (zeros for the
    // tree-walker, no absent keys) and are bit-identical across worker
    // counts under the VM despite the shared module cache.
    let interp = study_with(JsEngine::TreeWalk, 2, FaultProfile::none());
    let m = interp.metrics();
    for key in [
        "js.vm.compiles",
        "js.vm.module_cache.lookups",
        "js.vm.module_cache.hits",
        "js.vm.instructions",
        "js.vm.budget_exhaustions",
    ] {
        assert!(
            m.deterministic_counters().contains_key(key),
            "{key} must be registered under the tree-walker"
        );
        assert_eq!(m.counter(key), 0, "{key} must be zero under the tree-walker");
    }

    let baseline = study_with(JsEngine::Vm, 1, FaultProfile::none());
    let vm_counters = |s: &Study| -> BTreeMap<String, i128> {
        let mut m = s.metrics().deterministic_counters();
        m.retain(|k, _| k.starts_with("js.vm."));
        m
    };
    let serial = vm_counters(&baseline);
    // The synthetic web cloaks against the scanner context (benign HTML,
    // few scripts), so scan-phase volume is small — but never absent,
    // and always at least one lookup per compile.
    assert!(serial["js.vm.compiles"] > 0, "the corpus must carry scripts to compile");
    assert!(
        serial["js.vm.module_cache.lookups"] >= serial["js.vm.compiles"],
        "every compile implies a lookup"
    );
    assert!(serial["js.vm.instructions"] > 0);
    for workers in [2usize, 4, 8] {
        let parallel = study_with(JsEngine::Vm, workers, FaultProfile::none());
        assert_eq!(parallel.metrics().gauge("scan.workers"), expected_workers(workers));
        assert_eq!(
            vm_counters(&parallel),
            serial,
            "js.vm.* counters diverged at {workers} workers"
        );
    }
}

#[test]
fn pipeline_reports_identical_under_both_engines() {
    // One level below the study: raw ScanOutcomes from the pipeline on
    // a crawled corpus whose records share one packed campaign payload
    // as uploaded content — the paper's cloaking defeat (§III fn. 1):
    // the exchange-facing page is malicious, the scanner-facing fetch
    // benign, so the *browser-captured* content carries the scripts.
    // The shared payload is exactly what the module cache exists for.
    let mut builder = WebBuilder::new(4242);
    let p = profile("SendSurf").expect("profile exists");
    let mut exchange = build_exchange(&mut builder, p, 0.04, 50_000);
    let web: SyntheticWeb = builder.finish();
    let mut store = RecordStore::new();
    crawl_exchange(
        &web,
        &mut exchange,
        &CrawlConfig { steps: 80, seed: 4242, ..Default::default() },
        &mut store,
    );
    let sink = Url::http("sink.campaign-cdn.example", "/drop");
    let payload = payload::js_injected_iframe_page("Campaign", &sink, 2);
    let mut records = store.records().to_vec();
    for record in records.iter_mut().filter(|r| !r.failed && r.content.is_some()) {
        record.content = Some(payload.as_str().into());
    }

    let interp = ScanPipeline::new(&web).with_js_engine(JsEngine::TreeWalk);
    let baseline = interp.scan_all(&records);
    let vm = ScanPipeline::new(&web).with_js_engine(JsEngine::Vm);
    for workers in [1usize, 2, 4, 8] {
        vm.clear_caches();
        let got = vm.scan_all_parallel_chunked(&records, workers, DEFAULT_SCAN_CHUNK);
        assert_eq!(got, baseline, "vm pipeline diverged at {workers} workers");
    }
    // Warm module cache (clear_caches keeps compiled modules): still equal.
    let warm = vm.scan_all_parallel_chunked(&records, 4, DEFAULT_SCAN_CHUNK);
    assert_eq!(warm, baseline, "warm module cache changed outcomes");
    let stats = vm.js_vm_stats();
    assert!(stats.compiles > 0, "the campaign payload must compile");
    assert!(
        stats.module_hits > stats.compiles,
        "payload reuse must make warm hits dominate compiles (hits {} vs compiles {})",
        stats.module_hits,
        stats.compiles
    );
}
