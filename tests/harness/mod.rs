//! The engine of the invariance harness: a study's artifacts and
//! deterministic counters are a pure function of its *world* —
//! substrate, seed, scan fault profile and crawl fault profile —
//! whatever *plan* executes it.
//!
//! A plan sets the scan worker count, the scan chunk size and the JS
//! engine, always scans in parallel (`serial_scan_threshold(0)`), and
//! runs the study one of three ways:
//!
//! - a batch [`Study::run`];
//! - a [`CrawlSession`] killed (advanced, dropped and reopened) after
//!   given checkpoint rounds, under a disk fault profile, and
//!   optionally finished through [`ScanCaches`] that an identical
//!   session warmed first;
//! - a [`Service`] running two tenants of the same cache fingerprint in
//!   a given order, optionally with the daemon killed after some slices
//!   and reopened over the same root.
//!
//! [`run_case`] holds a plan to its world's plain `Study::run` with
//! every execution knob at its builder default ([`Reference`]): the
//! same export, corpus, outcomes and health logs, and the same
//! deterministic counters except the mode keys of the knobs the plan
//! moved ([`MODE_KEYS`]). Each reference also checks the world
//! invariants: every planned surf slot is crawled or lost, and an
//! active fault profile injects faults.
//!
//! `tests/invariance.rs` draws its cases from a seeded RNG; the named
//! determinism suites (`checkpoint_resume`, `serve_determinism`, ...)
//! each hold one claim to a fixed list of cases.

// Each suite uses its own part of the engine.
#![allow(dead_code)]

use std::collections::{BTreeMap, BTreeSet};
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use malware_slums::export;
use malware_slums::scanpipe::{ScanCaches, ScanOutcome};
use malware_slums::scanpipe::{DEFAULT_SCAN_CHUNK, DEFAULT_SERIAL_SCAN_THRESHOLD};
use malware_slums::study::{CrawlSession, Restore, Study, StudyConfig, StudyConfigBuilder};
use malware_slums::substrate::{build_substrate, Substrate};
use malware_slums::{CheckpointError, DiskFaultProfile};
use slum_crawler::{CrawlFaultProfile, CrawlHealth};
use slum_detect::fault::FaultProfile;
use slum_serve::Service;

pub const CRAWL_SCALE: f64 = 0.0003;
pub const DOMAIN_SCALE: f64 = 0.03;

/// An execution knob a plan may move away from its builder default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Knob {
    Workers,
    Chunk,
    SerialThreshold,
    Engine,
    /// Checkpoint cadence, kills and disk faults.
    Checkpointing,
}

/// The deterministic counters each knob may move: the only keys on
/// which a plan may differ from its world's plain run. `*` matches any
/// run of characters.
pub const MODE_KEYS: [(Knob, &[&str]); 5] = [
    (Knob::Workers, &["gauge:config.scan_workers", "gauge:scan.workers"]),
    (Knob::Chunk, &["gauge:config.scan_chunk"]),
    (Knob::SerialThreshold, &["gauge:config.serial_scan_threshold"]),
    (Knob::Engine, &["gauge:config.js_engine_vm", "js.vm.*"]),
    (Knob::Checkpointing, &["gauge:config.checkpoint_every", "ckpt.*", "crawl.resume.*"]),
];

fn key_matches(pattern: &str, key: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == key,
        Some((head, tail)) => {
            key.len() >= head.len() + tail.len() && key.starts_with(head) && key.ends_with(tail)
        }
    }
}

/// What a study is: everything its artifacts may depend on.
#[derive(Debug, Clone)]
pub struct World {
    pub substrate: Substrate,
    pub seed: u64,
    pub scan_faults: &'static str,
    pub crawl_faults: &'static str,
}

impl World {
    /// A world without scan or crawl faults.
    pub fn fault_free(substrate: Substrate, seed: u64) -> World {
        World { substrate, seed, scan_faults: "none", crawl_faults: "none" }
    }

    pub fn key(&self) -> (&'static str, u64, &'static str, &'static str) {
        (self.substrate.name(), self.seed, self.scan_faults, self.crawl_faults)
    }

    /// The world's config, every execution knob at its builder default.
    /// A `none` profile is set only when `explicit`: the reference
    /// leaves it out and the plans set it, which checks that an inert
    /// profile is the same as no profile.
    pub fn builder(&self, explicit: bool) -> StudyConfigBuilder {
        let mut builder = StudyConfig::builder()
            .seed(self.seed)
            .crawl_scale(CRAWL_SCALE)
            .domain_scale(DOMAIN_SCALE)
            .substrate(self.substrate);
        if explicit || self.scan_faults != "none" {
            builder = builder.fault_profile(FaultProfile::parse(self.scan_faults).expect("named"));
        }
        if explicit || self.crawl_faults != "none" {
            let profile = CrawlFaultProfile::parse(self.crawl_faults).expect("named");
            builder = builder.crawl_fault_profile(profile);
        }
        builder
    }
}

/// What a run produced.
pub struct Observed {
    pub export: String,
    pub digest: String,
    /// Corpus JSONL, outcomes and health logs; `None` for a service
    /// tenant, whose study stays inside the service.
    pub corpus: Option<(String, Vec<ScanOutcome>, Vec<CrawlHealth>)>,
    pub counters: BTreeMap<String, i128>,
}

impl Observed {
    pub fn of(study: &Study) -> Observed {
        Observed {
            export: export::to_json(study).expect("serializable export"),
            digest: export::artifact_digest(study).expect("serializable export"),
            corpus: Some((
                study.corpus_jsonl().expect("serializable corpus"),
                study.outcomes.clone(),
                study.health.clone(),
            )),
            counters: study.metrics().deterministic_counters(),
        }
    }

    pub fn counter(&self, key: &str) -> i128 {
        self.counters.get(key).copied().unwrap_or_else(|| panic!("{key} is not registered"))
    }

    pub fn outcomes(&self) -> &[ScanOutcome] {
        &self.corpus.as_ref().expect("an in-process run").1
    }

    pub fn health(&self) -> &[CrawlHealth] {
        &self.corpus.as_ref().expect("an in-process run").2
    }
}

/// A world's plain `Study::run`, which every plan must reproduce.
pub struct Reference {
    pub out: Observed,
    /// (canonical URL, verdict) of the first regular records, to probe
    /// a service's verdict index with.
    pub verdicts: Vec<(String, bool)>,
    /// `seq` of every record that surfed through a shortener.
    pub shortener_seqs: Vec<u64>,
    /// Planned surf slots of the longest source.
    pub max_steps: u64,
}

impl Reference {
    /// Runs the world and checks the world invariants on the result.
    pub fn of(world: &World) -> Reference {
        let config = world.builder(false).build().expect("valid config");
        let study = Study::run(&config);
        let out = Observed::of(&study);

        let planned = build_substrate(&config).steps;
        for health in &study.health {
            assert_eq!(
                health.pages + health.lost_steps,
                planned[&health.exchange],
                "{}: every planned slot is crawled or lost",
                health.exchange
            );
        }
        assert_eq!(
            out.counter("crawl.pages") + out.counter("crawl.faults.lost_steps"),
            i128::from(planned.values().sum::<u64>()),
            "every planned slot is crawled or lost"
        );
        for (profile, key) in [
            (world.scan_faults, "scan.faults.injected"),
            (world.crawl_faults, "crawl.faults.injected"),
        ] {
            assert_eq!(out.counter(key) > 0, profile != "none", "{key} under profile {profile}");
        }
        // Below the serial threshold the default request (every core)
        // scans on one thread; the plans lower the threshold to 0.
        assert!(out.counter("filter.regular_out") < DEFAULT_SERIAL_SCAN_THRESHOLD as i128);
        assert_eq!(out.counter("gauge:scan.workers"), 1, "default threshold scans serially");

        // The verdict index keeps the first verdict scanned for a URL
        // (scan faults may degrade a later visit's).
        let mut verdicts: Vec<(String, bool)> = Vec::new();
        for (record, outcome) in study.regular_pairs() {
            let url = record.url.canonical();
            if verdicts.len() < 32 && verdicts.iter().all(|(seen, _)| *seen != url) {
                verdicts.push((url, outcome.malicious));
            }
        }
        Reference {
            verdicts,
            shortener_seqs: study
                .store
                .records()
                .iter()
                .filter(|r| r.via_shortener)
                .map(|r| r.seq)
                .collect(),
            max_steps: planned.values().copied().max().expect("sources"),
            out,
        }
    }

    /// Checkpoint rounds a crawl of this world runs at a cadence of
    /// `every` slots; a kill after any earlier round interrupts it.
    pub fn rounds(&self, every: u64) -> u64 {
        self.max_steps.div_ceil(every)
    }

    /// Whether a crawl restored from round `round` of a cadence of
    /// `every` slots restored a record that surfed through a shortener:
    /// round `r` leaves every source at slot `r * every`.
    pub fn restores_shortener(&self, round: i128, every: u64) -> bool {
        self.shortener_seqs.iter().any(|&seq| i128::from(seq) < round * i128::from(every))
    }
}

/// How a study is executed.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workers: usize,
    pub chunk: usize,
    pub engine: &'static str,
    pub run: Run,
}

#[derive(Debug, Clone)]
pub enum Run {
    Batch,
    Session {
        every: u64,
        /// Rounds after which the crawl is killed, counted from the
        /// start (ascending).
        kills: Vec<u64>,
        disk_faults: &'static str,
        warm: bool,
    },
    Service {
        every: u64,
        order: Order,
        /// Slices after which the daemon is killed and reopened.
        daemon_kill: Option<u64>,
    },
}

impl Run {
    /// A crawl session checkpointed every `every` slots and killed
    /// after each round in `kills`, without disk faults or warm caches.
    pub fn killed(every: u64, kills: &[u64]) -> Run {
        Run::Session { every, kills: kills.to_vec(), disk_faults: "none", warm: false }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    RoundRobin,
    Reversed,
    OneAfterAnother,
}

impl Plan {
    /// A batch run on `workers` scan workers, with the default chunk
    /// size and engine.
    pub fn batch(workers: usize) -> Plan {
        Plan { workers, chunk: DEFAULT_SCAN_CHUNK, engine: "vm", run: Run::Batch }
    }

    pub fn config(&self, world: &World) -> StudyConfig {
        let mut builder = world
            .builder(true)
            .scan_workers(self.workers)
            .scan_chunk(self.chunk)
            .serial_scan_threshold(0)
            .js_engine_name(self.engine)
            .expect("known engine");
        match &self.run {
            Run::Batch => {}
            Run::Session { every, disk_faults, .. } => {
                let disk = DiskFaultProfile::parse(disk_faults).expect("named");
                builder = builder.checkpoint_every(*every).disk_fault_profile(disk);
            }
            Run::Service { every, .. } => builder = builder.checkpoint_every(*every),
        }
        builder.build().expect("valid config")
    }

    /// The knobs this plan moves off the builder defaults. Every plan
    /// moves the worker count, the chunk size and the serial threshold
    /// (to 0, which is what lets the workers run).
    pub fn knobs(&self) -> Vec<Knob> {
        let mut knobs = vec![Knob::Workers, Knob::Chunk, Knob::SerialThreshold];
        if self.engine != "vm" {
            knobs.push(Knob::Engine);
        }
        // Warm caches move no counter: a study's `scan.cache.*` and
        // `js.vm.*` counters are its own scan plan's.
        if !matches!(self.run, Run::Batch) {
            knobs.push(Knob::Checkpointing);
        }
        knobs
    }
}

/// How often the cases reached each situation worth covering.
#[derive(Debug, Default)]
pub struct Coverage {
    /// Crawls resumed after a kill.
    pub resumes: usize,
    /// A kill whose restore included a record that surfed through a
    /// shortener.
    pub shortener_restored: usize,
    /// A warm second study with `js.vm.*` tallies to compare, in
    /// process and through the service.
    pub warm_session: usize,
    pub warm_service: usize,
    pub interp_under_harsh_scan_faults: usize,
    pub adnet_resumed: usize,
    pub torrent_resumed: usize,
    pub two_kills: usize,
    /// A daemon killed while one of its studies was still running.
    pub daemon_kill: usize,
}

impl Coverage {
    /// Books a crawl that resumed from round `round` after a kill.
    fn resumed(&mut self, world: &World, reference: &Reference, round: i128, every: u64) {
        self.resumes += 1;
        self.shortener_restored += usize::from(reference.restores_shortener(round, every));
        self.adnet_resumed += usize::from(world.substrate == Substrate::AdNet);
        self.torrent_resumed += usize::from(world.substrate == Substrate::Torrent);
    }
}

/// The worker count a parallel scan of `regular` records runs with
/// when `requested` were asked for.
pub fn expected_workers(requested: usize, regular: i128) -> i128 {
    let cores = std::thread::available_parallelism().map_or(usize::MAX, NonZeroUsize::get);
    (requested.min(cores) as i128).min(regular)
}

/// Asserts that `got` reproduces the reference, up to the mode keys of
/// the plan's knobs.
pub fn assert_reproduces(reference: &Reference, got: &Observed, plan: &Plan, who: &str) {
    let want = &reference.out;
    assert_eq!(got.digest, want.digest, "{who}: artifact digest");
    assert!(got.export == want.export, "{who}: export JSON differs");
    if let Some((jsonl, outcomes, health)) = &got.corpus {
        let (want_jsonl, want_outcomes, want_health) = want.corpus.as_ref().expect("reference");
        assert!(jsonl == want_jsonl, "{who}: corpus JSONL differs");
        assert!(outcomes == want_outcomes, "{who}: scan outcomes differ");
        assert_eq!(health, want_health, "{who}: health logs");
    }
    let knobs = plan.knobs();
    let excused = |key: &str| {
        MODE_KEYS
            .iter()
            .filter(|(knob, _)| knobs.contains(knob))
            .any(|(_, patterns)| patterns.iter().any(|p| key_matches(p, key)))
    };
    let keys: BTreeSet<&String> = want.counters.keys().chain(got.counters.keys()).collect();
    let moved: Vec<String> = keys
        .into_iter()
        .filter(|key| !excused(key) && want.counters.get(*key) != got.counters.get(*key))
        .map(|key| format!("{key}: {:?} -> {:?}", want.counters.get(key), got.counters.get(key)))
        .collect();
    assert!(
        moved.is_empty(),
        "{who}: counters moved off the plan's mode keys:\n  {}",
        moved.join("\n  ")
    );
    assert_eq!(
        got.counter("gauge:scan.workers"),
        expected_workers(plan.workers, want.counter("filter.regular_out")),
        "{who}: scan workers"
    );
    if plan.engine == "interp" {
        for key in [
            "compiles",
            "module_cache.lookups",
            "module_cache.hits",
            "instructions",
            "budget_exhaustions",
        ] {
            assert_eq!(got.counter(&format!("js.vm.{key}")), 0, "{who}: js.vm.{key} under interp");
        }
    }
}

/// Runs `plan` on `world` under `root` and holds it to the reference,
/// booking what it covered.
pub fn run_case(
    world: &World,
    plan: &Plan,
    reference: &Reference,
    root: &Path,
    coverage: &mut Coverage,
) {
    let config = plan.config(world);
    let vm_tallies = plan.engine == "vm" && reference.out.counter("js.vm.instructions") > 0;
    match &plan.run {
        Run::Batch => {
            assert_reproduces(reference, &Observed::of(&Study::run(&config)), plan, "batch")
        }
        Run::Session { every, kills, disk_faults, warm } => {
            let caches = warm.then(|| {
                let caches = Arc::new(ScanCaches::new());
                CrawlSession::open(&config, &root.join("warmer"), Restore::Never)
                    .and_then(|session| session.advance(u64::MAX))
                    .expect("warming session")
                    .finish(Some(Arc::clone(&caches)));
                caches
            });
            // The service's attach: with disk faults armed, every
            // generation may be lost, and the crawl restarts.
            let restore =
                if *disk_faults == "none" { Restore::Required } else { Restore::IfPresent };
            let dir = root.join("session");
            let mut session =
                CrawlSession::open(&config, &dir, Restore::Never).expect("fresh session");
            let (mut done, mut killed) = (0, 0);
            for &kill in kills {
                session = session.advance(kill - done).expect("crawl rounds");
                done = kill;
                if session.crawl_done() {
                    break;
                }
                drop(session);
                killed += 1;
                session = CrawlSession::open(&config, &dir, restore).expect("resume");
            }
            let study = session.advance(u64::MAX).expect("crawl rounds").finish(caches);
            let got = Observed::of(&study);
            assert_reproduces(reference, &got, plan, "session");

            let restored = got.counter("crawl.resume.segments_restored");
            if killed > 0 && *disk_faults == "none" {
                assert_eq!(restored, i128::from(done), "resumed from the last kill's round");
                assert!(got.counter("crawl.resume.records_restored") > 0);
            }
            if killed > 0 {
                coverage.resumed(world, reference, restored, *every);
            }
            coverage.two_kills += usize::from(killed >= 2);
            coverage.warm_session += usize::from(*warm && vm_tallies);
        }
        Run::Service { every, order, daemon_kill } => {
            let dir = root.join("service");
            let submit = |service: &Service| -> Vec<u64> {
                ["alpha", "beta"]
                    .into_iter()
                    .map(|tenant| service.submit(tenant, config.clone()).expect("submit"))
                    .collect()
            };
            let mut service = Service::open(&dir).expect("service root");
            let mut ids = submit(&service);
            if let Some(slices) = daemon_kill {
                schedule(&service, &ids, *order, *slices);
                let interrupted =
                    ids.iter().any(|id| service.status(*id).expect("known").state == "running");
                coverage.daemon_kill += usize::from(interrupted);
                drop(service);
                service = Service::open(&dir).expect("service root");
                ids = submit(&service);
            }
            schedule(&service, &ids, *order, u64::MAX);

            let tenants =
                ["alpha", "beta"].into_iter().zip(ids.iter()).map(|(t, &id)| (t, id, reference));
            for got in assert_tenants_reproduce(&service, tenants, plan) {
                let restored = got.counter("crawl.resume.segments_restored");
                if restored > 0 {
                    coverage.resumed(world, reference, restored, *every);
                }
            }
            // The second tenant to scan found every entry warm, and the
            // shared verdict index answers for both tenants' URLs.
            let fingerprint = config.cache_fingerprint();
            for (group, stats) in service.cache_group_stats(&fingerprint).expect("cache group") {
                let want = |what| reference.out.counter(&format!("scan.cache.{group}.{what}"));
                assert_eq!(i128::from(stats.entries), want("entries"), "{group} entries");
                assert_eq!(i128::from(stats.lookups), 2 * want("lookups"), "{group} lookups");
            }
            for (url, malicious) in &reference.verdicts {
                let verdict = service.query_verdict(ids[1], url).expect("known study");
                assert_eq!(verdict, Some(*malicious), "verdict index for {url}");
            }
            let unknown = service.query_verdict(ids[1], "http://never-crawled.example/");
            assert_eq!(unknown.expect("known study"), None, "uncrawled URLs are unknown");
            coverage.warm_service += usize::from(vm_tallies);
        }
    }
    coverage.interp_under_harsh_scan_faults +=
        usize::from(plan.engine == "interp" && world.scan_faults == "harsh");
}

/// Holds every finished `(tenant, id, reference)` study on `service` to
/// its reference, through its export and its `tenant.<name>.` counters.
pub fn assert_tenants_reproduce<'a>(
    service: &Service,
    tenants: impl IntoIterator<Item = (&'a str, u64, &'a Reference)>,
    plan: &Plan,
) -> Vec<Observed> {
    let metrics = service.metrics().deterministic_counters();
    tenants
        .into_iter()
        .map(|(tenant, id, reference)| {
            let status = service.status(id).expect("known study");
            assert_eq!(status.state, "done", "{tenant}: {:?}", status.error);
            let got = Observed {
                export: service.export(id).expect("known study").expect("done study has export"),
                digest: status.digest.expect("done study has a digest"),
                corpus: None,
                counters: tenant_counters(&metrics, tenant),
            };
            assert_reproduces(reference, &got, plan, tenant);
            got
        })
        .collect()
}

/// Runs `f`; when it panics, prints `what` before passing the panic on
/// (the vendored proptest shim does not shrink, so the failing world
/// and plan are what a reader needs).
pub fn explain<T>(what: impl FnOnce() -> String, f: impl FnOnce() -> T) -> T {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        eprintln!("{}", what());
        resume_unwind(panic)
    })
}

/// Runs every plan on `world` and holds each to the world's reference;
/// returns what the plans covered.
pub fn check(world: &World, reference: &Reference, plans: &[Plan]) -> Coverage {
    let mut coverage = Coverage::default();
    for (i, plan) in plans.iter().enumerate() {
        let root = scratch_dir("plan");
        let what = || format!("plan {i} failed\n  world: {world:?}\n  plan:  {plan:?}");
        explain(what, || run_case(world, plan, reference, &root, &mut coverage));
        std::fs::remove_dir_all(&root).ok();
    }
    coverage
}

/// Advances the service's studies in `order` for at most `slices`
/// slices, or until every study is done.
pub fn schedule(service: &Service, ids: &[u64], order: Order, slices: u64) {
    let running = |id: u64| service.status(id).expect("known study").state == "running";
    let ids: Vec<u64> = match order {
        Order::Reversed => ids.iter().rev().copied().collect(),
        Order::RoundRobin | Order::OneAfterAnother => ids.to_vec(),
    };
    let mut budget = slices;
    while budget > 0 && ids.iter().any(|&id| running(id)) {
        for &id in &ids {
            while budget > 0 && running(id) {
                service.advance(id).expect("advance");
                budget -= 1;
                if order != Order::OneAfterAnother {
                    break;
                }
            }
        }
    }
}

/// One tenant's counters and gauges from a service snapshot, under the
/// names a batch study uses.
fn tenant_counters(all: &BTreeMap<String, i128>, tenant: &str) -> BTreeMap<String, i128> {
    let (counter, gauge) = (format!("tenant.{tenant}."), format!("gauge:tenant.{tenant}."));
    all.iter()
        .filter_map(|(key, value)| {
            let name = match key.strip_prefix(&gauge) {
                Some(name) => format!("gauge:{name}"),
                None => key.strip_prefix(&counter)?.to_string(),
            };
            Some((name, *value))
        })
        .collect()
}

/// Asserts that a crawl killed under `written` refuses to resume under
/// `other`, naming the mismatched config `field`.
pub fn assert_resume_rejects(written: &StudyConfig, other: &StudyConfig, field: &str) {
    let dir = scratch_dir("mismatch");
    let killed = CrawlSession::open(written, &dir, Restore::Never)
        .and_then(|session| session.advance(1))
        .expect("killed run");
    assert!(!killed.crawl_done());
    drop(killed);
    let err = CrawlSession::open(other, &dir, Restore::Required)
        .err()
        .unwrap_or_else(|| panic!("a {field} mismatch must be rejected"));
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        matches!(&err, CheckpointError::ConfigMismatch { field: f, .. } if *f == field),
        "unexpected error: {err}"
    );
}

/// A fresh directory under the system temp dir, unique to this process
/// and call.
pub fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("slum-invariance-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}
