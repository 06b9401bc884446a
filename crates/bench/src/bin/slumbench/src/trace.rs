//! The traced pass: per-layer metrics measured from outside, by timing
//! the benchmark's own calls into each layer's public functions.
//!
//! Spans (name, start, end, parent, request id) stay in memory and are
//! written to `trace-<workload>.json` when the pass ends. End-to-end
//! metrics never come from here: they come from untraced runs.

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use malware_slums::checkpoint::CheckpointHeader;
use malware_slums::scanpipe::{effective_scan_workers, scan_key, ScanPipeline, VerdictSource};
use malware_slums::substrate::{build_substrate, BuiltSubstrate};
use malware_slums::{CheckpointStore, ReferralClass, StudyConfig};
use serde::{Deserialize, Serialize};
use slum_browser::Browser;
use slum_crawler::{crawl_all_resilient, replay_restored_loads, CrawlRecord, TrafficSource};
use slum_detect::fault::FaultPlan;
use slum_detect::{BlacklistDb, Features, JsModuleCache, Quttera, VirusTotal};
use slum_exchange::ExchangeKind;
use slum_html::Document;
use slum_js::ModuleStore;
use slum_serve::{parse_request, Daemon, Service};
use slum_websim::RequestContext;

use crate::loadgen::{Client, Expect};
use crate::procfs;
use crate::stats;
use crate::workload::{
    self, batch_config, spawn_worker, study_config, submit_request, warm_index, Env, QueryMix,
    StudySample, WorkerMode, Workload, PINNED_SEED, TENANTS,
};

/// One recorded span.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Span {
    /// Span id.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Layer call, e.g. `crawler.crawl`.
    pub name: String,
    /// Request id shared by every span of one request (the study id
    /// under serve).
    pub request: u64,
    /// Start, µs since the trace began.
    pub start_us: f64,
    /// End, µs since the trace began.
    pub end_us: f64,
}

impl Span {
    /// Duration in ms.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// An in-memory span recorder.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Runs `f` inside a span; `f` receives the span's id for children.
    pub fn span<R>(
        &self,
        name: &str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_us = self.now_us();
        let out = f(id);
        let end_us = self.now_us();
        let span = Span {
            id,
            parent,
            name: name.to_string(),
            request,
            start_us,
            end_us,
        };
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking span")
            .push(span);
        out
    }

    /// µs since the trace began.
    pub fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Adds spans another process recorded on a clock that started at
    /// about `origin_us` on this one, as request `request`, renumbering
    /// their ids so they stay unique.
    pub fn adopt(&self, spans: Vec<Span>, origin_us: f64, request: u64) {
        let count = spans.iter().map(|s| s.id).max().unwrap_or(0);
        // Adopted ids start at 1, like this tracer's own.
        let base = self.next_id.fetch_add(count, Ordering::Relaxed) - 1;
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking span")
            .extend(spans.into_iter().map(|s| Span {
                id: s.id + base,
                parent: s.parent.map(|p| p + base),
                request,
                start_us: s.start_us + origin_us,
                end_us: s.end_us + origin_us,
                ..s
            }));
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking span")
            .clone()
    }

    /// Total ms of every span named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    /// Durations in ms of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }
}

/// Per span name: (count, total ms, self ms), where a span's self time
/// is its duration minus the part of it its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, (u64, f64, f64)> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_us, s.end_us));
        }
    }
    let mut out: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
    for s in spans {
        let mut covered = 0.0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut cursor = s.start_us;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_us));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        let entry = out.entry(s.name.clone()).or_default();
        entry.0 += 1;
        entry.1 += s.ms();
        entry.2 += s.ms() - covered / 1e3;
    }
    out
}

/// Every per-layer metric: name, unit, and the end-to-end metric it
/// should move (◦ = predicted no change).
pub const LAYER_METRICS: &[(&str, &str, &str)] = &[
    (
        "substrate.build_ms",
        "ms",
        "study_s on study-*; turnaround_s on serve-mixed (rebuilt every slice)",
    ),
    (
        "crawler.crawl_s",
        "s",
        "study_s on study-*; turnaround_s on serve-mixed; ◦ serve-query",
    ),
    ("crawler.crawl_cpu_s", "s", "cpu_s on study-*"),
    ("crawler.pages", "count", "work counter for crawler.crawl_s"),
    (
        "crawler.lost_slots",
        "count",
        "study-adnet-faults only; 0 without crawl faults",
    ),
    (
        "crawler.distinct_url_ratio",
        "ratio",
        "ceiling on any load memoisation's gain",
    ),
    (
        "browser.load_us_p50",
        "us",
        "study_s and cpu_s on study-*; ◦ serve-query",
    ),
    ("browser.load_us_p99", "us", "study_s and cpu_s on study-*"),
    (
        "browser.crawl_cpu_share",
        "ratio",
        "share of crawler.crawl_cpu_s spent in page loads",
    ),
    ("html.parse_us_p50", "us", "study_s and cpu_s on study-*"),
    (
        "html.parse_mb_per_s",
        "MB/s",
        "study_s and cpu_s on study-*",
    ),
    (
        "js.vm.instructions",
        "count",
        "work counter for JS execution",
    ),
    (
        "js.vm.compiles",
        "count",
        "work counter for the module cache",
    ),
    ("js.module_hit_ratio", "ratio", "study_s on study-*"),
    ("filter.classify_ms", "ms", "study_s on study-*"),
    (
        "scanpipe.scan_s",
        "s",
        "study_s on study-*; small share of turnaround_s on serve-mixed",
    ),
    ("scanpipe.scan_cpu_s", "s", "cpu_s on study-*"),
    (
        "scanpipe.scans",
        "count",
        "work counter for scanpipe.scan_s",
    ),
    ("scanpipe.record_us_p50", "us", "study_s on study-exchange"),
    ("scanpipe.record_us_p99", "us", "study_s on study-exchange"),
    (
        "scanpipe.cache.url_features.hit_ratio",
        "ratio",
        "study_s on study-*",
    ),
    (
        "scanpipe.cache.content_features.hit_ratio",
        "ratio",
        "study_s on study-*",
    ),
    (
        "scanpipe.cache.host_domains.hit_ratio",
        "ratio",
        "study_s on study-*",
    ),
    (
        "scanpipe.cache.domain_blacklisted.hit_ratio",
        "ratio",
        "study_s on study-*",
    ),
    (
        "scanpipe.degraded_ratio",
        "ratio",
        "study-adnet-faults only; 0 without scan faults",
    ),
    (
        "scanpipe.fault_plan_ms",
        "ms",
        "study_s on study-adnet-faults (faulted studies only)",
    ),
    (
        "scanpipe.study_gap_s",
        "s",
        "study_s on study-*: the study's phase.scan span minus the staged classify, set-up, fault plan and scan",
    ),
    (
        "detect.url_fetch_us_p50",
        "us",
        "study_s and cpu_s on study-exchange",
    ),
    (
        "detect.content_features_us_p50",
        "us",
        "study_s and cpu_s on study-exchange",
    ),
    (
        "detect.vt_us_p50",
        "us",
        "study_s and cpu_s on study-exchange",
    ),
    (
        "detect.quttera_us_p50",
        "us",
        "study_s and cpu_s on study-exchange",
    ),
    (
        "detect.blacklist_us_p50",
        "us",
        "study_s and cpu_s on study-exchange",
    ),
    (
        "detect.est_cpu_s",
        "s",
        "cpu_s on study-*: call counts × mean probe cost",
    ),
    (
        "scanpipe.unattributed_cpu_s",
        "s",
        "cpu_s on study-*: scan CPU the probes do not explain",
    ),
    (
        "export.to_json_ms",
        "ms",
        "study_s on study-*; turnaround_s on serve-mixed",
    ),
    (
        "export.bytes",
        "bytes",
        "work counter for export.to_json_ms",
    ),
    (
        "checkpoint.slices",
        "count",
        "turnaround_s on serve-mixed; 0 on study-* and serve-query",
    ),
    (
        "checkpoint.bytes_max",
        "bytes",
        "turnaround_s on serve-mixed; 0 on study-* and serve-query",
    ),
    (
        "checkpoint.load_ms_mean",
        "ms",
        "turnaround_s and cpu_s on serve-mixed; ◦ study-*, serve-query",
    ),
    (
        "checkpoint.save_ms_mean",
        "ms",
        "turnaround_s and cpu_s on serve-mixed",
    ),
    (
        "checkpoint.replay_ms_mean",
        "ms",
        "turnaround_s and cpu_s on serve-mixed",
    ),
    ("serve.slice_ms_p50", "ms", "turnaround_s on serve-mixed"),
    ("serve.slice_ms_max", "ms", "turnaround_s on serve-mixed"),
    (
        "serve.slice_unattributed_ms",
        "ms",
        "turnaround_s on serve-mixed: slice minus its probed parts",
    ),
    (
        "serve.finish_ms",
        "ms",
        "turnaround_s on serve-mixed (scan + export + publish, under the jobs lock)",
    ),
    (
        "serve.status_block_ms_max",
        "ms",
        "verdict_p50_ms on serve-mixed",
    ),
    (
        "serve.cross_tenant_hit_ratio",
        "ratio",
        "turnaround_s on serve-mixed; 0 elsewhere",
    ),
    ("serve.verdict_ns_p50", "ns", "verdict_* on serve-query"),
    ("serve.handle_us_p50", "us", "verdict_* on serve-query"),
    (
        "proto.parse_us_p50",
        "us",
        "verdict_p99_ms and capacity on serve-query; ◦ study-*",
    ),
    (
        "daemon.rtt_ms_p50",
        "ms",
        "verdict_p99_ms and capacity on serve-query (back-to-back)",
    ),
    (
        "daemon.rtt_spaced_ms_p50",
        "ms",
        "verdict_p50_ms on serve-mixed (requests 50 ms apart)",
    ),
    (
        "daemon.overhead_ms",
        "ms",
        "verdict_p99_ms and capacity on serve-query: RTT minus handle",
    ),
    (
        "trace.sum_vs_e2e_pct",
        "%",
        "validity: staged layer spans plus export over the untraced study_s (serve: slices or reads over the traced loop)",
    ),
    (
        "trace.overhead_pct",
        "%",
        "validity: traced over untraced time, minus 100",
    ),
];

/// The unit of a per-layer metric.
pub fn unit(name: &str) -> &'static str {
    LAYER_METRICS
        .iter()
        .find(|(n, ..)| *n == name)
        .map_or("", |(_, u, _)| u)
}

/// The outcome of a traced pass.
#[derive(Debug, Default)]
pub struct TraceOutcome {
    /// Per-layer metrics by name.
    pub metrics: BTreeMap<String, f64>,
    /// Correctness checks run.
    pub attempted: u64,
    /// Correctness checks failed.
    pub failed: u64,
    /// Further observations that are not per-layer metrics: the
    /// untraced reference time and the split of the scan CPU estimate.
    pub notes: BTreeMap<String, f64>,
    /// Spans recorded.
    pub spans: Vec<Span>,
}

impl TraceOutcome {
    fn set(&mut self, name: &str, value: f64) {
        debug_assert!(!unit(name).is_empty(), "{name} missing from LAYER_METRICS");
        self.metrics.insert(name.to_string(), value);
    }

    fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("slumbench: trace check failed: {what}");
        }
    }
}

/// Runs the traced pass of `w`.
///
/// # Errors
///
/// Failures that leave the pass without numbers (a worker or daemon
/// that did not run); wrong results are counted as failed checks.
pub fn trace_workload(env: &Env, w: Workload, seed: u64) -> Result<TraceOutcome, String> {
    let tracer = Tracer::default();
    let mut out = TraceOutcome::default();
    pipeline_pass(env, w, seed, &tracer, &mut out)?;
    for name in [
        "checkpoint.slices",
        "checkpoint.bytes_max",
        "serve.cross_tenant_hit_ratio",
    ] {
        out.set(name, 0.0);
    }
    match w {
        Workload::ServeMixed => serve_mixed_pass(env, seed, &tracer, &mut out)?,
        Workload::ServeQuery => serve_query_pass(env, seed, &tracer, &mut out)?,
        _ => {}
    }
    out.spans = tracer.spans();
    Ok(out)
}

/// Nearly evenly spaced sample indices into `n` items: 1 in 16, but at
/// least 1,000 (cycling when `n` is smaller), so p99s are supported.
pub fn sample_indices(n: usize) -> Vec<usize> {
    if n == 0 {
        return Vec::new();
    }
    let target = n.div_ceil(16).max(1000);
    (0..target).map(|k| k * n / target).collect()
}

fn cpu_now() -> f64 {
    procfs::cpu_seconds(std::process::id()).unwrap_or(0.0)
}

/// Rounds of the staged pipeline and of its untraced reference; the
/// per-layer values are medians over the rounds.
pub const TRACE_ROUNDS: u64 = 3;

/// What a staged worker reports for one round.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StagedSample {
    /// Digest of the staged run's referral classes and scan outcomes.
    pub outcomes_digest: String,
    /// Per-layer values and notes by name.
    pub values: BTreeMap<String, f64>,
    /// Every span the worker recorded.
    pub spans: Vec<Span>,
}

/// The staged worker's body: re-runs the study stage by stage, each
/// call a span, then probes the layers below on the staged corpus.
pub fn staged_in_process(config: &StudyConfig) -> StagedSample {
    let tracer = Tracer::default();
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let (regular, referrals, outcomes, cache) = tracer.span("study", None, 0, |root| {
        let BuiltSubstrate {
            web,
            mut sources,
            filter,
            steps,
            ..
        } = tracer.span("substrate.build", Some(root), 0, |_| {
            build_substrate(config)
        });
        let planned: u64 = steps.values().sum();
        let cpu0 = cpu_now();
        let (store, _, _) = tracer.span("crawler.crawl", Some(root), 0, |_| {
            crawl_all_resilient(
                &web,
                &mut sources,
                config.seed,
                &config.crawl_fault_profile,
                |s| steps[s.name()],
            )
        });
        values.insert("crawler.crawl_cpu_s".into(), cpu_now() - cpu0);
        let pages = store.len() as u64;
        values.insert("crawler.pages".into(), pages as f64);
        values.insert(
            "crawler.lost_slots".into(),
            planned.saturating_sub(pages) as f64,
        );
        values.insert(
            "crawler.distinct_url_ratio".into(),
            store.distinct_urls() as f64 / pages.max(1) as f64,
        );
        let referrals: Vec<ReferralClass> = tracer.span("filter.classify", Some(root), 0, |_| {
            store.records().iter().map(|r| filter.classify(r)).collect()
        });
        let mut pipeline = tracer.span("scanpipe.setup", Some(root), 0, |_| {
            ScanPipeline::new(&web).with_js_engine(config.js_engine)
        });
        if !config.fault_profile.is_inert() {
            let plan = tracer.span("scanpipe.fault_plan", Some(root), 0, |_| {
                let requests: Vec<(String, u64)> = store
                    .records()
                    .iter()
                    .zip(&referrals)
                    .filter(|(_, c)| **c == ReferralClass::Regular)
                    .map(|(r, _)| (scan_key(r), r.at))
                    .collect();
                FaultPlan::compile(&config.fault_profile, config.seed, &requests)
            });
            pipeline = pipeline.with_fault_plan(plan);
        }
        let regular: Vec<CrawlRecord> = store
            .into_records()
            .into_iter()
            .zip(&referrals)
            .filter(|(_, c)| **c == ReferralClass::Regular)
            .map(|(r, _)| r)
            .collect();
        let workers = effective_scan_workers(
            regular.len(),
            config.scan_workers,
            config.serial_scan_threshold,
        );
        let cpu0 = cpu_now();
        let outcomes = tracer.span("scanpipe.scan", Some(root), 0, |_| {
            pipeline.scan_all_parallel_chunked(&regular, workers, config.scan_chunk)
        });
        values.insert("scanpipe.scan_cpu_s".into(), cpu_now() - cpu0);
        (regular, referrals, outcomes, pipeline.cache_stats())
    });

    let ms = |name: &str| tracer.total_ms(name);
    // What the study's own `phase.scan` span covers.
    let scan_phase_ms = ms("filter.classify")
        + ms("scanpipe.setup")
        + ms("scanpipe.fault_plan")
        + ms("scanpipe.scan");
    let degraded = outcomes
        .iter()
        .filter(|o| o.source != VerdictSource::Full)
        .count();
    for (name, v) in [
        ("substrate.build_ms", ms("substrate.build")),
        ("crawler.crawl_s", ms("crawler.crawl") / 1e3),
        ("filter.classify_ms", ms("filter.classify")),
        ("scanpipe.scan_s", ms("scanpipe.scan") / 1e3),
        ("scanpipe.scans", regular.len() as f64),
        (
            "scanpipe.degraded_ratio",
            degraded as f64 / outcomes.len().max(1) as f64,
        ),
        ("staged.scan_phase_ms", scan_phase_ms),
        (
            "staged.layers_ms",
            ms("substrate.build") + ms("crawler.crawl") + scan_phase_ms,
        ),
        ("staged.total_ms", ms("study")),
    ] {
        values.insert(name.into(), v);
    }
    if !config.fault_profile.is_inert() {
        values.insert("scanpipe.fault_plan_ms".into(), ms("scanpipe.fault_plan"));
    }
    for (group, s) in &cache {
        values.insert(
            format!("scanpipe.cache.{group}.hit_ratio"),
            s.hits as f64 / s.lookups.max(1) as f64,
        );
    }
    let outcomes_digest = workload::outcomes_digest(&referrals, outcomes.iter());

    let probes = probe_layers(config, &regular, &tracer);
    let get = |k: &str| probes.samples.get(k).map(Vec::as_slice).unwrap_or(&[]);
    let p50 = |k: &str| stats::median(get(k)).unwrap_or(0.0);
    let mean = |k: &str| stats::mean(get(k)).unwrap_or(0.0);
    let value = |k: &str| values.get(k).copied().unwrap_or(0.0);
    let parse_us: f64 = get("parse").iter().sum();
    let mut probed = vec![
        ("browser.load_us_p50", p50("load")),
        (
            "browser.crawl_cpu_share",
            mean("load") * value("crawler.pages") / 1e6 / value("crawler.crawl_cpu_s").max(1e-9),
        ),
        ("html.parse_us_p50", p50("parse")),
        (
            "html.parse_mb_per_s",
            probes.html_bytes as f64 / parse_us.max(1e-9),
        ),
        ("scanpipe.record_us_p50", p50("record")),
        ("detect.url_fetch_us_p50", p50("url_fetch")),
        ("detect.content_features_us_p50", p50("content")),
        ("detect.vt_us_p50", p50("vt")),
        ("detect.quttera_us_p50", p50("quttera")),
        ("detect.blacklist_us_p50", p50("blacklist")),
    ];
    for (key, name) in [
        ("load", "browser.load_us_p99"),
        ("record", "scanpipe.record_us_p99"),
    ] {
        if let Some(v) = stats::percentile(get(key), 99.0) {
            probed.push((name, v));
        }
    }
    // Calls the scan made, from its cache counters: one scanner fetch
    // per distinct URL, one content extraction per distinct capture, a
    // VT and a Quttera verdict per record plus one more per content
    // upload, a blacklist consensus per distinct domain.
    let stat = |group: &str| {
        cache
            .iter()
            .find(|(g, _)| *g == group)
            .map(|(_, s)| *s)
            .unwrap_or_default()
    };
    let uploads = stat("content_features").lookups as f64;
    let split = [
        (
            "est.url_fetch_s",
            mean("url_fetch") * stat("url_features").entries as f64,
        ),
        (
            "est.content_features_s",
            mean("content") * stat("content_features").entries as f64,
        ),
        (
            "est.vt_quttera_s",
            (mean("vt") + mean("quttera")) * (regular.len() as f64 + uploads),
        ),
        (
            "est.blacklist_s",
            mean("blacklist") * stat("domain_blacklisted").entries as f64,
        ),
    ];
    let est_s = split.iter().map(|(_, us)| us).sum::<f64>() / 1e6;
    probed.extend(split.map(|(name, us)| (name, us / 1e6)));
    probed.push(("detect.est_cpu_s", est_s));
    probed.push((
        "scanpipe.unattributed_cpu_s",
        value("scanpipe.scan_cpu_s") - est_s,
    ));
    for (name, v) in probed {
        values.insert(name.into(), v);
    }
    StagedSample {
        outcomes_digest,
        values,
        spans: tracer.spans(),
    }
}

/// The study layers, staged. Each round runs the workload's study
/// untraced in a fresh worker (the end-to-end reference, which also
/// times `export::to_json` and reads the study's own counters), then
/// stage by stage in another fresh worker, so both start from the same
/// cold process, and checks that the staged scan equals the study's.
/// Every value is the median over the rounds.
fn pipeline_pass(
    env: &Env,
    w: Workload,
    seed: u64,
    tracer: &Tracer,
    out: &mut TraceOutcome,
) -> Result<(), String> {
    let mut rounds: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut digest: Option<String> = None;
    for round in 1..=TRACE_ROUNDS {
        let (_, sample) = spawn_worker::<StudySample>(env, w, seed, WorkerMode::Traced)?;
        let sample = sample.ok_or("traced worker sent no sample")?;
        match &digest {
            None if env.sizes.pinned && seed == PINNED_SEED && w != Workload::ServeQuery => {
                out.check("pinned digest", sample.digest == workload::pinned_digest(w));
            }
            Some(first) => out.check("digest stable across rounds", &sample.digest == first),
            None => {}
        }
        digest.get_or_insert_with(|| sample.digest.clone());
        let spawned_us = tracer.now_us();
        let (_, staged) = spawn_worker::<StagedSample>(env, w, seed, WorkerMode::Staged)?;
        let staged = staged.ok_or("staged worker sent no sample")?;
        out.check(
            "staged scan equals Study::run",
            Some(&staged.outcomes_digest) == sample.outcomes_digest.as_ref(),
        );
        tracer.adopt(staged.spans, spawned_us, round);
        let mut values = staged.values;
        let staged_ms = |name: &str| values.get(name).copied().unwrap_or(0.0);
        let extra = |name: &str| sample.extras.get(name).copied().unwrap_or(0.0);
        let export_ms = extra("export.to_json_ms");
        let e2e_ms = sample.study_s * 1e3;
        let derived = [
            ("untraced.study_s", sample.study_s),
            (
                "scanpipe.study_gap_s",
                extra("phase.scan_s") - staged_ms("staged.scan_phase_ms") / 1e3,
            ),
            (
                "trace.sum_vs_e2e_pct",
                100.0 * (staged_ms("staged.layers_ms") + export_ms) / e2e_ms,
            ),
            (
                "trace.overhead_pct",
                100.0 * (staged_ms("staged.total_ms") + export_ms - e2e_ms) / e2e_ms,
            ),
        ];
        values.extend(derived.map(|(name, v)| (name.to_string(), v)));
        values.extend(sample.extras);
        for (name, v) in values {
            rounds.entry(name).or_default().push(v);
        }
    }
    for (name, v) in rounds {
        let median = stats::median(&v).unwrap_or(0.0);
        if unit(&name).is_empty() {
            out.notes.insert(name, median);
        } else {
            out.set(&name, median);
        }
    }
    Ok(())
}

/// Samples a closure's cost in µs.
fn time_us<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = std::hint::black_box(f());
    (r, t.elapsed().as_secs_f64() * 1e6)
}

/// Per-call costs, in µs, sampled by [`probe_layers`].
struct Probes {
    /// Samples by probe: `load`, `parse`, `url_fetch`, `content`, `vt`,
    /// `quttera`, `blacklist`, `record`.
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Captured HTML bytes parsed.
    html_bytes: usize,
}

/// Probes the layers under the crawl and scan on a 1-in-16 sample of
/// the regular records, against a freshly built web so side effects
/// never touch the staged run.
fn probe_layers(config: &StudyConfig, regular: &[CrawlRecord], tracer: &Tracer) -> Probes {
    let built = tracer.span("probe.substrate", None, 0, |_| build_substrate(config));
    let web = &built.web;
    let manual: HashSet<&str> = built
        .meta
        .iter()
        .filter(|m| m.kind == ExchangeKind::ManualSurf)
        .map(|m| m.name.as_str())
        .collect();
    let sample: Vec<&CrawlRecord> = sample_indices(regular.len())
        .into_iter()
        .map(|i| &regular[i])
        .collect();
    let modules: Arc<dyn ModuleStore> = Arc::new(JsModuleCache::new());
    let vt = VirusTotal::new(web);
    let quttera = Quttera::new(web);
    let blacklists = BlacklistDb::populate_from_web(web);
    let cold = ScanPipeline::new(web).with_js_engine(config.js_engine);

    let mut p: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut html_bytes = 0usize;
    tracer.span("probe.layers", None, 0, |_| {
        for record in &sample {
            let crawl_browser = Browser::new(web).at_time(record.at);
            let crawl_browser = if manual.contains(record.exchange.as_str()) {
                crawl_browser
            } else {
                crawl_browser.without_click()
            };
            p.entry("load")
                .or_default()
                .push(time_us(|| crawl_browser.load(&record.url)).1);
            let scanner = Browser::new(web)
                .with_context(RequestContext::scanner("pipeline"))
                .with_js_engine(config.js_engine)
                .with_module_store(modules.clone());
            let (features, us) = time_us(|| Features::from_load(&scanner.load(&record.url)));
            p.entry("url_fetch").or_default().push(us);
            let canon = record.url.canonical();
            p.entry("vt")
                .or_default()
                .push(time_us(|| vt.aggregate(&canon, &features)).1);
            p.entry("quttera")
                .or_default()
                .push(time_us(|| quttera.report(&record.url, &features)).1);
            if let Some(host) = record.chain_hosts.first() {
                let domain = slum_websim::domain::registered_domain(host);
                p.entry("blacklist")
                    .or_default()
                    .push(time_us(|| blacklists.check(&domain)).1);
            }
            if let Some(content) = &record.content {
                html_bytes += content.len();
                p.entry("parse")
                    .or_default()
                    .push(time_us(|| Document::parse(content)).1);
                let engine = config.js_engine;
                let store = Some(modules.clone());
                let (_, us) = time_us(|| {
                    Features::from_content_with_engine(&record.url, content, engine, store)
                });
                p.entry("content").or_default().push(us);
            }
            p.entry("record")
                .or_default()
                .push(time_us(|| cold.scan(record)).1);
        }
    });
    Probes {
        samples: p,
        html_bytes,
    }
}

/// The checkpoint directory the service gave `tenant` under `root`.
fn tenant_dir(root: &Path, tenant: &str) -> Option<PathBuf> {
    let entries = std::fs::read_dir(root.join(tenant)).ok()?;
    entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.is_dir())
}

/// Submits the three `serve-mixed` tenants to `service`.
fn submit_tenants(
    service: &Service,
    seed: u64,
    scale: f64,
) -> Result<Vec<(u64, StudyConfig)>, String> {
    TENANTS
        .iter()
        .map(|(name, offset)| {
            let config = submit_request(name, seed + offset, scale).study_config()?;
            let id = service
                .submit(name, config.clone())
                .map_err(|e| e.to_string())?;
            Ok((id, config))
        })
        .collect()
}

fn scratch_root(env: &Env, tag: &str) -> PathBuf {
    let root = env
        .out_dir
        .join(format!("trace-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// `serve-mixed`: the three tenants through an in-process service,
/// untraced for reference, then with every `advance` timed and the
/// checkpoint layer probed between slices.
fn serve_mixed_pass(
    env: &Env,
    seed: u64,
    tracer: &Tracer,
    out: &mut TraceOutcome,
) -> Result<(), String> {
    let scale = env.sizes.tenant_scale;
    let t0 = warm_index(&study_config(Workload::ServeMixed, seed, &env.sizes));
    let t2_digest = workload::batch_digest(&batch_config(&submit_request("t2", seed + 1, scale)));
    let expected = [t0.digest.clone(), t0.digest.clone(), t2_digest];
    let check_digests = |service: &Service, ids: &[(u64, StudyConfig)], out: &mut TraceOutcome| {
        for ((id, _), want) in ids.iter().zip(&expected) {
            let got = service.status(*id).ok().and_then(|s| s.digest);
            out.check("tenant digest equals batch", got.as_ref() == Some(want));
        }
    };

    // Untraced reference.
    let root = scratch_root(env, "untraced");
    let service = Service::open(&root).map_err(|e| e.to_string())?;
    let ids = submit_tenants(&service, seed, scale)?;
    let t = Instant::now();
    service.run_to_completion().map_err(|e| e.to_string())?;
    let untraced_ms = t.elapsed().as_secs_f64() * 1e3;
    check_digests(&service, &ids, out);
    drop(service);
    let _ = std::fs::remove_dir_all(&root);

    // Traced: advance in `step` order, each call a span.
    let root = scratch_root(env, "traced");
    let probe_root = scratch_root(env, "probe");
    let service = Service::open(&root).map_err(|e| e.to_string())?;
    let ids = submit_tenants(&service, seed, scale)?;
    let fingerprint = ids[0].1.cache_fingerprint();
    let names: Vec<&str> = TENANTS.iter().map(|(n, _)| *n).collect();
    let stop = AtomicBool::new(false);
    let mut slices: Vec<(f64, bool)> = Vec::new();
    let mut probe_ms: Vec<f64> = Vec::new();
    // A tenant's last probe measured what its next slice restores.
    let mut pending_probe: Vec<Option<f64>> = vec![None; ids.len()];
    let mut unattributed: Vec<f64> = Vec::new();
    let mut bytes_max = 0u64;
    let mut cross_tenant = 0.0;
    let (loop_ms, block_max_ms) = std::thread::scope(|scope| -> Result<(f64, f64), String> {
        // Status probe: how long `Service::status` blocks during slices.
        let prober = scope.spawn(|| {
            let mut worst: f64 = 0.0;
            while !stop.load(Ordering::SeqCst) {
                let (_, us) = time_us(|| service.status(ids[0].0));
                worst = worst.max(us / 1e3);
                std::thread::sleep(Duration::from_millis(1));
            }
            worst
        });
        let t = Instant::now();
        let result = tracer.span("serve.run", None, 0, |root_span| -> Result<(), String> {
            loop {
                let running: Vec<usize> = (0..ids.len())
                    .filter(|&k| service.status(ids[k].0).is_ok_and(|s| s.state == "running"))
                    .collect();
                if running.is_empty() {
                    return Ok(());
                }
                for k in running {
                    let (id, config) = &ids[k];
                    let before = service.cache_group_stats(&fingerprint);
                    let (status, ms) = {
                        let t = Instant::now();
                        let s = tracer.span("serve.slice", Some(root_span), *id, |_| {
                            service.advance(*id)
                        });
                        (
                            s.map_err(|e| e.to_string())?,
                            t.elapsed().as_secs_f64() * 1e3,
                        )
                    };
                    let finished = status.state != "running";
                    slices.push((ms, finished));
                    if let (false, Some(restore_ms)) = (finished, pending_probe[k].take()) {
                        unattributed.push(ms - restore_ms);
                    }
                    if finished && k == 1 {
                        let total = |s: Option<[(&str, slum_detect::CacheStats); 4]>| {
                            s.map_or((0, 0), |g| {
                                g.iter()
                                    .fold((0, 0), |(l, e), (_, c)| (l + c.lookups, e + c.entries))
                            })
                        };
                        let ((l0, e0), (l1, e1)) = (
                            total(before),
                            total(service.cache_group_stats(&fingerprint)),
                        );
                        let lookups = l1.saturating_sub(l0);
                        cross_tenant = lookups.saturating_sub(e1.saturating_sub(e0)) as f64
                            / lookups.max(1) as f64;
                    }
                    if !finished {
                        let dir =
                            tenant_dir(&root, names[k]).ok_or("tenant checkpoint dir missing")?;
                        let probed =
                            probe_checkpoint(tracer, root_span, *id, &dir, &probe_root, config)?;
                        bytes_max = bytes_max.max(probed.1);
                        probe_ms.push(probed.0);
                        pending_probe[k] = Some(probed.0);
                    }
                }
            }
        });
        let loop_ms = t.elapsed().as_secs_f64() * 1e3;
        stop.store(true, Ordering::SeqCst);
        let block = prober.join().map_err(|_| "status prober panicked")?;
        result.map(|()| (loop_ms, block))
    })?;
    check_digests(&service, &ids, out);

    let slice_ms: Vec<f64> = slices.iter().map(|s| s.0).collect();
    let finishing: Vec<f64> = slices.iter().filter(|s| s.1).map(|s| s.0).collect();
    out.set("checkpoint.slices", slices.len() as f64);
    out.set("checkpoint.bytes_max", bytes_max as f64);
    let mean_of = |name: &str| stats::mean(&tracer.durations_ms(name)).unwrap_or(0.0);
    out.set("checkpoint.load_ms_mean", mean_of("checkpoint.load"));
    out.set("checkpoint.save_ms_mean", mean_of("checkpoint.save"));
    out.set("checkpoint.replay_ms_mean", mean_of("checkpoint.replay"));
    out.set(
        "serve.slice_ms_p50",
        stats::median(&slice_ms).unwrap_or(0.0),
    );
    out.set(
        "serve.slice_ms_max",
        slice_ms.iter().copied().fold(0.0, f64::max),
    );
    out.set(
        "serve.slice_unattributed_ms",
        stats::median(&unattributed).unwrap_or(0.0),
    );
    out.set("serve.finish_ms", stats::median(&finishing).unwrap_or(0.0));
    out.set("serve.status_block_ms_max", block_max_ms);
    out.set("serve.cross_tenant_hit_ratio", cross_tenant);
    let probes_ms: f64 = probe_ms.iter().sum();
    let slices_total: f64 = slice_ms.iter().sum();
    out.set(
        "trace.sum_vs_e2e_pct",
        100.0 * slices_total / (loop_ms - probes_ms),
    );
    out.set(
        "trace.overhead_pct",
        100.0 * (loop_ms - probes_ms - untraced_ms) / untraced_ms,
    );

    let lines = query_lines(seed, &t0.urls, ids[0].0, 2000);
    query_probes(env, service, ids[0].0, &t0.urls, &lines, out)?;
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&probe_root);
    Ok(())
}

/// Between slices: what the next slice will redo for this tenant —
/// decode the newest checkpoint, rebuild the substrate, replay the
/// restored loads, re-encode the checkpoint (into a scratch dir).
/// Returns the probes' total ms and the checkpoint's size.
fn probe_checkpoint(
    tracer: &Tracer,
    parent: u64,
    id: u64,
    dir: &Path,
    probe_root: &Path,
    config: &StudyConfig,
) -> Result<(f64, u64), String> {
    let t = Instant::now();
    let store = CheckpointStore::open(dir).map_err(|e| e.to_string())?;
    let bytes = store
        .list()
        .map_err(|e| e.to_string())?
        .last()
        .and_then(|p| std::fs::metadata(p).ok())
        .map_or(0, |m| m.len());
    let (_, state) = tracer
        .span("checkpoint.load", Some(parent), id, |_| store.load_latest())
        .map_err(|e| e.to_string())?;
    let built = tracer.span("substrate.rebuild", Some(parent), id, |_| {
        build_substrate(config)
    });
    tracer.span("checkpoint.replay", Some(parent), id, |_| {
        replay_restored_loads(&built.web, &built.sources, &state)
    });
    let scratch =
        CheckpointStore::open(probe_root.join(id.to_string())).map_err(|e| e.to_string())?;
    tracer
        .span("checkpoint.save", Some(parent), id, |_| {
            scratch.save(&CheckpointHeader::for_config(config), &state)
        })
        .map_err(|e| e.to_string())?;
    Ok((t.elapsed().as_secs_f64() * 1e3, bytes))
}

/// `count` seeded query-verdict lines against study `study`.
fn query_lines(
    seed: u64,
    known: &[(String, bool)],
    study: u64,
    count: usize,
) -> Vec<(String, Expect)> {
    let mut mix = QueryMix::new(seed, known, study);
    (0..count).map(|_| mix.next_request()).collect()
}

/// The read path in process (parse, handle, index lookup), then over
/// TCP: back-to-back and 50 ms apart.
fn query_probes(
    env: &Env,
    service: Service,
    study: u64,
    known: &[(String, bool)],
    lines: &[(String, Expect)],
    out: &mut TraceOutcome,
) -> Result<(), String> {
    let mut parse_us = Vec::new();
    let mut handle_us = Vec::new();
    for (line, expect) in lines {
        let (req, us) = time_us(|| parse_request(line));
        parse_us.push(us);
        let req = req.map_err(|e| e.to_string())?;
        let (resp, us) = time_us(|| service.handle(&req));
        handle_us.push(us);
        out.check("in-process verdict", expect.accepts(&resp));
    }
    let mut verdict_ns = Vec::new();
    for (url, _) in known.iter().cycle().take(lines.len().max(1000)) {
        verdict_ns.push(time_us(|| service.query_verdict(study, url)).1 * 1e3);
    }
    out.set(
        "proto.parse_us_p50",
        stats::median(&parse_us).unwrap_or(0.0),
    );
    let handle_p50 = stats::median(&handle_us).unwrap_or(0.0);
    out.set("serve.handle_us_p50", handle_p50);
    out.set(
        "serve.verdict_ns_p50",
        stats::median(&verdict_ns).unwrap_or(0.0),
    );

    let mut daemon = Daemon::start(service, "127.0.0.1:0").map_err(|e| e.to_string())?;
    let rtts = (|| -> Result<(Vec<f64>, Vec<f64>), String> {
        let mut client = Client::connect(daemon.addr()).map_err(|e| e.to_string())?;
        let n = if env.sizes.pinned { 40 } else { 5 };
        let mut rtt = |spaced: bool, out: &mut TraceOutcome| -> Result<Vec<f64>, String> {
            let mut v = Vec::new();
            for (line, expect) in lines.iter().take(n) {
                if spaced {
                    std::thread::sleep(Duration::from_millis(50));
                }
                let (resp, us) = time_us(|| client.call_line(line));
                out.check("daemon verdict", resp.is_ok_and(|r| expect.accepts(&r)));
                v.push(us / 1e3);
            }
            Ok(v)
        };
        Ok((rtt(false, out)?, rtt(true, out)?))
    })();
    daemon.shutdown();
    let (back_to_back, spaced) = rtts?;
    let rtt_p50 = stats::median(&back_to_back).unwrap_or(0.0);
    out.set("daemon.rtt_ms_p50", rtt_p50);
    out.set(
        "daemon.rtt_spaced_ms_p50",
        stats::median(&spaced).unwrap_or(0.0),
    );
    out.set("daemon.overhead_ms", rtt_p50 - handle_p50 / 1e3);
    Ok(())
}

/// `serve-query`: the warm study through an in-process service, then
/// the read path timed untraced and traced.
fn serve_query_pass(
    env: &Env,
    seed: u64,
    tracer: &Tracer,
    out: &mut TraceOutcome,
) -> Result<(), String> {
    let warm = warm_index(&study_config(Workload::ServeQuery, seed, &env.sizes));
    let root = scratch_root(env, "query");
    let service = Service::open(&root).map_err(|e| e.to_string())?;
    let config = workload::warm_request(seed, &env.sizes).study_config()?;
    let id = service.submit("warm", config).map_err(|e| e.to_string())?;
    tracer
        .span("serve.warm", None, id, |_| service.run_to_completion())
        .map_err(|e| e.to_string())?;
    let digest = service.status(id).ok().and_then(|s| s.digest);
    out.check(
        "warm digest equals batch",
        digest.as_ref() == Some(&warm.digest),
    );

    let count = if env.sizes.pinned { 20_000 } else { 500 };
    let lines = query_lines(seed, &warm.urls, id, count);
    // The first pass warms the index and allocator; the second is the
    // untraced reference.
    let mut untraced_ms = 0.0;
    for _ in 0..2 {
        let t = Instant::now();
        for (line, _) in &lines {
            if let Ok(req) = parse_request(std::hint::black_box(line)) {
                std::hint::black_box(service.handle(&req));
            }
        }
        untraced_ms = t.elapsed().as_secs_f64() * 1e3;
    }
    let t = Instant::now();
    tracer.span("serve.reads", None, id, |root_span| {
        for (i, (line, _)) in lines.iter().enumerate() {
            let req = tracer.span("proto.parse", Some(root_span), i as u64, |_| {
                parse_request(line)
            });
            if let Ok(req) = req {
                tracer.span("serve.handle", Some(root_span), i as u64, |_| {
                    service.handle(&req)
                });
            }
        }
    });
    let traced_ms = t.elapsed().as_secs_f64() * 1e3;
    let parsed_ms = tracer.total_ms("proto.parse") + tracer.total_ms("serve.handle");
    out.set("trace.sum_vs_e2e_pct", 100.0 * parsed_ms / traced_ms);
    out.set(
        "trace.overhead_pct",
        100.0 * (traced_ms - untraced_ms) / untraced_ms,
    );
    query_probes(
        env,
        service,
        id,
        &warm.urls,
        &lines[..2000.min(lines.len())],
        out,
    )?;
    let _ = std::fs::remove_dir_all(&root);
    Ok(())
}

/// Writes the spans as JSON to `path`.
///
/// # Errors
///
/// I/O failures.
pub fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    let text = serde_json::to_string(spans).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name: name.to_string(),
            request: 1,
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, "study", 0.0, 10_000.0),
            span(2, Some(1), "crawl", 1_000.0, 4_000.0),
            span(3, Some(1), "scan", 3_000.0, 6_000.0),
            span(4, Some(3), "record", 3_500.0, 4_500.0),
        ];
        let t = self_times(&spans);
        assert_eq!(t["study"], (1, 10.0, 5.0));
        assert_eq!(t["crawl"], (1, 3.0, 3.0));
        assert_eq!(t["scan"], (1, 3.0, 2.0));
    }

    #[test]
    fn samples_are_one_in_sixteen_with_a_floor_of_a_thousand() {
        assert_eq!(sample_indices(32_000).len(), 2000);
        assert_eq!(sample_indices(32_000)[1], 16);
        assert_eq!(sample_indices(1600).len(), 1000);
        let few = sample_indices(10);
        assert_eq!(few.len(), 1000);
        assert!(few.iter().all(|&i| i < 10));
        assert!(sample_indices(0).is_empty());
    }

    #[test]
    fn every_layer_metric_has_a_unit() {
        for (name, unit, moves) in LAYER_METRICS {
            assert!(!unit.is_empty() && !moves.is_empty(), "{name}");
        }
    }
}
