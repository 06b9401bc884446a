//! Equivalence contract of the two JS engines: a study configured with
//! `JsEngine::Vm` (compile → cached bytecode → stack dispatch) produces
//! the same scan output as one configured with `JsEngine::TreeWalk`
//! (the AST interpreter). Verdicts, outcomes, health logs and export
//! JSON may not differ by a single bit, for every worker count and
//! fault profile; the only permitted differences are the `js.vm.*`
//! instrumentation and the `config.js_engine_vm` gauge that record
//! which engine ran. The study cases run through the invariance
//! harness (`harness/mod.rs`), whose reference runs the VM.
//!
//! This is the regression net under the interpreter's role as
//! differential-testing oracle: if the VM ever drifts semantically,
//! these studies diverge before any proptest shrinks a counterexample.

mod harness;

use harness::{check, Plan, Reference, World};
use malware_slums::scanpipe::{ScanPipeline, DEFAULT_SCAN_CHUNK};
use malware_slums::study::Study;
use malware_slums::substrate::Substrate;
use slum_js::sandbox::JsEngine;
use slum_websim::{payload, Url};

const SEED: u64 = 2016;

fn world(scan_faults: &'static str) -> World {
    World { scan_faults, ..World::fault_free(Substrate::Exchange, SEED) }
}

/// The interpreter on `interp_workers` scan workers and the VM on 1, 2,
/// 4 and 8.
fn both_engines(interp_workers: usize) -> Vec<Plan> {
    let interp = Plan { engine: "interp", ..Plan::batch(interp_workers) };
    std::iter::once(interp).chain([1, 2, 4, 8].map(Plan::batch)).collect()
}

#[test]
fn scan_output_bit_identical_across_engines_and_worker_counts() {
    let world = world("none");
    check(&world, &Reference::of(&world), &both_engines(1));
}

#[test]
fn scan_output_bit_identical_across_engines_under_faults() {
    // Fault injection replays retries through the sandbox; the verdict
    // splice must land identically whichever engine ran the scripts.
    for profile in ["default", "harsh"] {
        let world = world(profile);
        check(&world, &Reference::of(&world), &both_engines(1));
    }
}

#[test]
fn vm_metrics_always_registered_and_deterministic() {
    // `js.vm.*` counters exist under both engines (the harness checks
    // they are registered at zero under the interpreter) and match the
    // reference at every worker count under the VM despite the shared
    // module cache.
    let world = world("none");
    let reference = Reference::of(&world);
    check(&world, &reference, &both_engines(2));
    // The synthetic web cloaks against the scanner context (benign
    // HTML, few scripts), so scan-phase volume is small, but never
    // absent, and always at least one lookup per compile.
    let m = &reference.out;
    assert!(m.counter("js.vm.compiles") > 0, "the corpus must carry scripts to compile");
    assert!(
        m.counter("js.vm.module_cache.lookups") >= m.counter("js.vm.compiles"),
        "every compile implies a lookup"
    );
    assert!(m.counter("js.vm.instructions") > 0);
}

#[test]
fn pipeline_reports_identical_under_both_engines() {
    // Records whose uploaded content is one shared, packed campaign
    // payload, as when a cloak serves the scanner benign markup and the
    // browser capture carries the scripts (§III fn. 1). The shared
    // payload is what the compiled-module cache exists for.
    let config = World::fault_free(Substrate::Exchange, 4242).builder(false).build().unwrap();
    let study = Study::run(&config);
    let sink = Url::http("sink.campaign-cdn.example", "/drop");
    let payload = payload::js_injected_iframe_page("Campaign", &sink, 2);
    let mut records = study.store.records()[..80].to_vec();
    for record in records.iter_mut().filter(|r| !r.failed && r.content.is_some()) {
        record.content = Some(payload.as_str().into());
    }

    let baseline =
        ScanPipeline::new(&study.web).with_js_engine(JsEngine::TreeWalk).scan_all(&records);
    let vm = ScanPipeline::new(&study.web).with_js_engine(JsEngine::Vm);
    for workers in [1usize, 2, 4, 8] {
        vm.clear_caches();
        let got = vm.scan_all_parallel_chunked(&records, workers, DEFAULT_SCAN_CHUNK);
        assert_eq!(got, baseline, "vm pipeline diverged at {workers} workers");
    }
    // `clear_caches` keeps the compiled modules: a warm module cache.
    let warm = vm.scan_all_parallel_chunked(&records, 4, DEFAULT_SCAN_CHUNK);
    assert_eq!(warm, baseline, "warm module cache changed outcomes");
    let stats = vm.js_vm_stats();
    assert!(stats.compiles > 0, "the campaign payload must compile");
    assert!(
        stats.module_hits > stats.compiles,
        "payload reuse must make hits outnumber compiles ({} hits, {} compiles)",
        stats.module_hits,
        stats.compiles
    );
}
