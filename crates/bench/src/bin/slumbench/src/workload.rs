//! The four workloads, the child processes that run them, and their
//! correctness gates.
//!
//! Every repeat runs in a fresh child process (a study worker, or a
//! daemon for the serve workloads) so its CPU time and peak memory
//! belong to that repeat alone. The benchmark drives the program only
//! through public functions and the daemon's wire protocol.

use std::collections::HashSet;
use std::hash::{DefaultHasher, Hasher};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use malware_slums::{export, ReferralClass, ScanOutcome, Study, StudyConfig, Substrate};
use serde::{Deserialize, Serialize};
use slum_crawler::CrawlFaultProfile;
use slum_crawler::CrawlRecord;
use slum_detect::fault::FaultProfile;
use slum_serve::{Request, Response};

use crate::loadgen::{self, Client, Expect, Step, StepEnd};
use crate::procfs;
use crate::record::WorkloadRecord;
use crate::stats;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Batch exchange study, fault-free.
    StudyExchange,
    /// Batch ad-network study under harsh scan and crawl faults.
    StudyAdnetFaults,
    /// Three tenants' studies through the daemon beside verdict reads.
    ServeMixed,
    /// Verdict reads only, over a rate ladder.
    ServeQuery,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::StudyExchange,
        Workload::StudyAdnetFaults,
        Workload::ServeMixed,
        Workload::ServeQuery,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StudyExchange => "study-exchange",
            Workload::StudyAdnetFaults => "study-adnet-faults",
            Workload::ServeMixed => "serve-mixed",
            Workload::ServeQuery => "serve-query",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs through the daemon.
    pub fn is_serve(self) -> bool {
        matches!(self, Workload::ServeMixed | Workload::ServeQuery)
    }
}

/// Input sizes. [`FULL`] is the benchmark; [`TOY`] keeps every code
/// path but finishes in seconds, for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// `study-exchange` crawl scale.
    pub exchange_scale: f64,
    /// `study-adnet-faults` crawl scale.
    pub adnet_scale: f64,
    /// Crawl scale of each `serve-mixed` tenant study. At 0.007 three
    /// repeats fit in a 30 s run; at 0.01 only one did, and run medians
    /// spread 17% instead of 10% over ten seeds.
    pub tenant_scale: f64,
    /// Crawl scale of the warm study that fills the verdict index.
    pub warm_scale: f64,
    /// Longest ladder step, seconds.
    pub max_step_s: f64,
    /// Set-up probes per `study-*` run beyond one per repeat: a worker
    /// sets up in about a millisecond, so many are cheap.
    pub worker_setup_probes: usize,
    /// Set-up probes per `serve-*` run beyond one per repeat: each
    /// spawns a daemon and runs the warm study through it.
    pub daemon_setup_probes: usize,
    /// How long `serve-query` waits before it sets up. Its daemon idles
    /// most of the time, and for about 10 s after a heavy run (a study
    /// or `serve-mixed`) ends, every CPU-second of this host costs more:
    /// an idle daemon used 0.04–0.05 s of CPU per 5 s then and 0.02 s
    /// later, and `serve-query` read 16% more `cpu_s` when it ran right
    /// after `serve-mixed` than when it ran after itself.
    pub query_settle: Duration,
    /// Whether the pinned seed-2016 digests apply.
    pub pinned: bool,
}

/// The benchmark's sizes.
pub const FULL: Sizes = Sizes {
    exchange_scale: 0.2,
    adnet_scale: 0.4,
    tenant_scale: 0.007,
    warm_scale: 0.002,
    max_step_s: 4.0,
    worker_setup_probes: 24,
    daemon_setup_probes: 4,
    query_settle: Duration::from_secs(10),
    pinned: true,
};

/// Toy sizes for the smoke test.
pub const TOY: Sizes = Sizes {
    exchange_scale: 0.0005,
    adnet_scale: 0.001,
    tenant_scale: 0.0004,
    warm_scale: 0.0002,
    max_step_s: 0.25,
    worker_setup_probes: 2,
    daemon_setup_probes: 1,
    query_settle: Duration::ZERO,
    pinned: false,
};

/// The seed the pinned digests belong to.
pub const PINNED_SEED: u64 = 2016;

/// `serve-query` rate ladder, requests/s.
pub const LADDER: [f64; 5] = [20.0, 80.0, 320.0, 1280.0, 5120.0];

/// The ladder step whose latency `serve-query` reports.
pub const REPORTED_RATE: f64 = 320.0;

/// Open-loop rate of the `serve-mixed` reader, requests/s. The daemon
/// writes each response in two segments, so a client that delays its
/// ACK stalls the second one by the kernel's ~40 ms delayed-ACK timer.
/// Linux delays ACKs on a connection whose requests follow responses
/// by less than that timer; at 20/s a single blocked read (~1 s behind
/// a finishing slice) pushed the reader into that mode for the rest of
/// the run, so its median was 0.4 ms in some runs and 43 ms in others.
/// At 10/s a stalled request still leaves ~57 ms before the next is
/// due, and the connection falls back to immediate ACKs.
pub const READER_RATE: f64 = 10.0;

/// Status-poll interval of the `serve-mixed` control connection.
pub const POLL: Duration = Duration::from_millis(20);

/// How long a daemon study may take before it counts as failed.
pub const STUDY_TIMEOUT: Duration = Duration::from_secs(150);

/// The pinned seed-2016 artifact digest of a workload's study, if any.
pub fn pinned_digest(w: Workload) -> &'static str {
    match w {
        Workload::StudyExchange => "a50cfb141254c73d",
        Workload::StudyAdnetFaults => "320f19d0af3fe4e1",
        // Every serve-mixed tenant at seed 2016 (t0 and t1).
        Workload::ServeMixed => "768a3b016a8cb05e",
        Workload::ServeQuery => "",
    }
}

/// The domain scale `repro` pairs with a crawl scale, which every
/// workload uses too (1.0 for both batch studies, 0.175 for a 0.007-scale
/// tenant).
pub fn domain_scale(crawl_scale: f64) -> f64 {
    (crawl_scale * 25.0).clamp(0.03, 1.0)
}

/// The submit request a tenant sends: the protocol's defaults except
/// seed and scales.
pub fn submit_request(tenant: &str, seed: u64, crawl_scale: f64) -> Request {
    let mut r = Request::new("submit-study");
    r.tenant = tenant.to_string();
    r.seed = seed;
    r.crawl_scale = crawl_scale;
    r.domain_scale = domain_scale(crawl_scale);
    r
}

/// The batch configuration whose artifacts a daemon study must equal.
pub fn batch_config(request: &Request) -> StudyConfig {
    let mut config = request
        .study_config()
        .expect("benchmark submit requests are valid");
    config.checkpoint_every = None;
    config
}

/// The `serve-mixed` tenants: (name, seed offset). t0 and t1 share a
/// seed and so a cache group; t2 studies another web.
pub const TENANTS: [(&str, u64); 3] = [("t0", 0), ("t1", 0), ("t2", 1)];

/// The warm study that fills the verdict index before reads start.
pub fn warm_request(seed: u64, sizes: &Sizes) -> Request {
    submit_request("warm", seed, sizes.warm_scale)
}

/// The batch study configuration of a workload: its own study for
/// `study-*`, the t0 tenant's for `serve-mixed`, the warm study's for
/// `serve-query`.
pub fn study_config(w: Workload, seed: u64, sizes: &Sizes) -> StudyConfig {
    let builder = StudyConfig::builder().seed(seed);
    let built = match w {
        Workload::StudyExchange => builder
            .crawl_scale(sizes.exchange_scale)
            .domain_scale(domain_scale(sizes.exchange_scale))
            .build(),
        Workload::StudyAdnetFaults => builder
            .substrate(Substrate::AdNet)
            .crawl_scale(sizes.adnet_scale)
            .domain_scale(domain_scale(sizes.adnet_scale))
            .fault_profile(FaultProfile::harsh())
            .crawl_fault_profile(harsh_crawl_faults_without_shutdowns())
            .build(),
        Workload::ServeMixed => Ok(batch_config(&submit_request(
            "t0",
            seed,
            sizes.tenant_scale,
        ))),
        Workload::ServeQuery => Ok(batch_config(&warm_request(seed, sizes))),
    };
    built.expect("benchmark study configurations are valid")
}

/// The `harsh` crawl-fault profile minus permanent shutdowns: long
/// outages, bans, CAPTCHA lockouts, session drops and retries all stay,
/// so crawl slots are still lost and retried. A shutdown forfeits the
/// rest of a source's crawl at a seeded instant, which at `harsh`
/// rates moves the corpus by ±20% from seed to seed; without it every
/// seed crawls nearly the planned volume and the workload's size stops
/// depending on the seed.
pub fn harsh_crawl_faults_without_shutdowns() -> CrawlFaultProfile {
    let mut profile = CrawlFaultProfile::harsh();
    profile.name = "harsh-no-shutdown".to_string();
    profile.auto.shutdown_per_mille = 0;
    profile.manual.shutdown_per_mille = 0;
    profile
}

/// What a study worker reports for one study.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StudySample {
    /// `Study::run` through `artifact_digest`, seconds.
    pub study_s: f64,
    /// Worker CPU over the same window.
    pub cpu_s: f64,
    /// Worker peak resident set at the end of the window.
    pub peak_rss_mb: f64,
    /// Artifact digest.
    pub digest: String,
    /// Digest of referral classes and regular scan outcomes (traced
    /// workers only).
    pub outcomes_digest: Option<String>,
    /// Extra layer observations from the finished study (traced
    /// workers only).
    pub extras: std::collections::BTreeMap<String, f64>,
}

/// A digest over every referral class and regular-record scan outcome,
/// in record order: equal digests mean a staged pipeline reproduced the
/// study's scan bit for bit.
pub fn outcomes_digest<'a>(
    referrals: &[ReferralClass],
    mut regular_outcomes: impl Iterator<Item = &'a ScanOutcome>,
) -> String {
    struct Sink(DefaultHasher);
    impl std::fmt::Write for Sink {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0.write(s.as_bytes());
            Ok(())
        }
    }
    let mut sink = Sink(DefaultHasher::new());
    for class in referrals {
        let _ = std::fmt::Write::write_fmt(&mut sink, format_args!("{class:?};"));
        if *class == ReferralClass::Regular {
            match regular_outcomes.next() {
                Some(outcome) => {
                    let _ = std::fmt::Write::write_fmt(&mut sink, format_args!("{outcome:?};"));
                }
                None => return "missing-outcome".to_string(),
            }
        }
    }
    if regular_outcomes.next().is_some() {
        return "extra-outcome".to_string();
    }
    format!("{:016x}", sink.0.finish())
}

/// Runs one study in this process and measures it: the study worker's
/// body.
pub fn study_in_process(config: &StudyConfig, traced: bool) -> StudySample {
    let pid = std::process::id();
    let cpu0 = procfs::cpu_seconds(pid).unwrap_or(0.0);
    let t0 = Instant::now();
    let study = Study::run(config);
    let digest = export::artifact_digest(&study).expect("export serializes");
    let study_s = t0.elapsed().as_secs_f64();
    let cpu_s = procfs::cpu_seconds(pid).unwrap_or(0.0) - cpu0;
    let mut sample = StudySample {
        study_s,
        cpu_s,
        peak_rss_mb: procfs::peak_rss_mb(pid).unwrap_or(0.0),
        digest,
        ..StudySample::default()
    };
    if traced {
        let regular = study.outcomes.iter().zip(&study.referrals);
        sample.outcomes_digest = Some(outcomes_digest(
            &study.referrals,
            regular
                .filter(|(_, c)| **c == ReferralClass::Regular)
                .map(|(o, _)| o),
        ));
        let t = Instant::now();
        let json = export::to_json(&study).expect("export serializes");
        sample
            .extras
            .insert("export.to_json_ms".into(), t.elapsed().as_secs_f64() * 1e3);
        sample
            .extras
            .insert("export.bytes".into(), json.len() as f64);
        let m = study.metrics();
        let counter = |name: &str| m.counter(name) as f64;
        for name in ["js.vm.instructions", "js.vm.compiles"] {
            sample.extras.insert(name.into(), counter(name));
        }
        sample.extras.insert(
            "js.module_hit_ratio".into(),
            counter("js.vm.module_cache.hits") / counter("js.vm.module_cache.lookups").max(1.0),
        );
        for phase in ["build", "crawl", "scan"] {
            sample.extras.insert(
                format!("phase.{phase}_s"),
                m.span_duration(&format!("phase.{phase}")).as_secs_f64(),
            );
        }
    }
    sample
}

/// A child process that is killed and reaped if dropped while running.
pub struct ChildGuard(Option<Child>);

impl ChildGuard {
    /// Spawns `command` with piped stdout.
    ///
    /// # Errors
    ///
    /// Spawn failures.
    pub fn spawn(command: &mut Command) -> Result<ChildGuard, String> {
        let child = command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn: {e}"))?;
        Ok(ChildGuard(Some(child)))
    }

    /// The child's process id.
    pub fn id(&self) -> u32 {
        self.0.as_ref().map_or(0, Child::id)
    }

    /// The child's stdout, line by line.
    fn lines(&mut self) -> Result<std::io::Lines<BufReader<std::process::ChildStdout>>, String> {
        let out = self
            .0
            .as_mut()
            .and_then(|c| c.stdout.take())
            .ok_or("child stdout taken")?;
        Ok(BufReader::new(out).lines())
    }

    /// Waits up to `deadline` for the child to exit on its own, then
    /// kills it; reaps it either way.
    ///
    /// # Errors
    ///
    /// A child that had to be killed or exited unsuccessfully.
    pub fn finish(mut self, deadline: Duration) -> Result<(), String> {
        let mut child = self.0.take().ok_or("child already reaped")?;
        let until = Instant::now() + deadline;
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("child exited with {status}")),
                Ok(None) if Instant::now() < until => std::thread::sleep(Duration::from_millis(5)),
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("child did not exit in time; killed".to_string());
                }
            }
        }
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Where the benchmark's executable and scratch space live.
#[derive(Debug, Clone)]
pub struct Env {
    /// This benchmark's executable (spawned as worker and daemon).
    pub exe: PathBuf,
    /// Scratch and output directory (`target/slumbench`).
    pub out_dir: PathBuf,
    /// Input sizes.
    pub sizes: Sizes,
}

impl Env {
    fn base_command(&self, mode: &str) -> Command {
        let mut c = Command::new(&self.exe);
        c.arg(mode);
        if !self.sizes.pinned {
            c.arg("--toy");
        }
        c
    }
}

/// What a worker process does once it has reported READY.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerMode {
    /// Nothing more: the spawn is a set-up probe.
    Setup,
    /// One `Study::run` through its digest ([`StudySample`]).
    Study,
    /// As `Study`, plus the outcome digest and the study's own layer
    /// observations, taken after the timed window.
    Traced,
    /// The study re-run stage by stage with every call timed, then the
    /// layer probes (`trace::StagedSample`).
    Staged,
}

impl WorkerMode {
    const ALL: [WorkerMode; 4] = [
        WorkerMode::Setup,
        WorkerMode::Study,
        WorkerMode::Traced,
        WorkerMode::Staged,
    ];

    /// The mode's name on the worker's command line.
    pub fn name(self) -> &'static str {
        match self {
            WorkerMode::Setup => "setup",
            WorkerMode::Study => "study",
            WorkerMode::Traced => "traced",
            WorkerMode::Staged => "staged",
        }
    }

    /// Parses a mode name.
    pub fn parse(name: &str) -> Option<WorkerMode> {
        WorkerMode::ALL.into_iter().find(|m| m.name() == name)
    }
}

/// Spawns a worker running `w`'s study in `mode` and returns its set-up
/// time (spawn until it reports ready) and, unless the mode is
/// [`WorkerMode::Setup`], the sample it reports.
///
/// # Errors
///
/// Spawn, protocol and exit failures.
pub fn spawn_worker<T: Deserialize>(
    env: &Env,
    w: Workload,
    seed: u64,
    mode: WorkerMode,
) -> Result<(f64, Option<T>), String> {
    let t0 = Instant::now();
    let mut command = env.base_command("worker");
    command.args([
        "--workload",
        w.name(),
        "--seed",
        &seed.to_string(),
        "--mode",
        mode.name(),
    ]);
    let mut child = ChildGuard::spawn(&mut command)?;
    let mut lines = child.lines()?;
    let mut next_line = || -> Result<String, String> {
        lines
            .next()
            .ok_or("worker closed stdout")?
            .map_err(|e| e.to_string())
    };
    if next_line()? != "READY" {
        return Err("worker did not report READY".to_string());
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let sample = if mode == WorkerMode::Setup {
        None
    } else {
        let line = next_line()?;
        let json = line
            .strip_prefix("SAMPLE ")
            .ok_or("worker sent no SAMPLE")?;
        Some(serde_json::from_str(json).map_err(|e| e.to_string())?)
    };
    child.finish(Duration::from_secs(30))?;
    Ok((setup_s, sample))
}

/// Whether to start another repeat: always until `min_repeats`, then
/// while one more repeat as long as the last would still fit in
/// `seconds`.
fn keep_going(
    done: usize,
    elapsed: f64,
    last: f64,
    min_repeats: usize,
    seconds: Option<f64>,
) -> bool {
    done < min_repeats || seconds.is_some_and(|s| elapsed + last <= s)
}

/// How long and how often a run measures.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Workload seed.
    pub seed: u64,
    /// Measuring time; repeats continue while the next still fits.
    pub seconds: Option<f64>,
    /// Repeats run regardless of time.
    pub min_repeats: usize,
}

/// Runs the workload for `budget` and records every sample.
pub fn run_workload(env: &Env, w: Workload, budget: Budget) -> WorkloadRecord {
    let mut rec = WorkloadRecord {
        valid: true,
        ..WorkloadRecord::default()
    };
    if let Err(e) = if w.is_serve() {
        run_serve(env, w, budget, &mut rec)
    } else {
        run_study(env, w, budget, &mut rec)
    } {
        eprintln!("slumbench: {}: {e}", w.name());
        rec.check(false);
    }
    rec
}

fn run_study(
    env: &Env,
    w: Workload,
    budget: Budget,
    rec: &mut WorkloadRecord,
) -> Result<(), String> {
    let start = Instant::now();
    for _ in 0..env.sizes.worker_setup_probes {
        let (setup_s, _) = spawn_worker::<StudySample>(env, w, budget.seed, WorkerMode::Setup)?;
        rec.push("setup_s", setup_s);
    }
    let (mut done, mut last) = (0, 0.0);
    while keep_going(
        done,
        start.elapsed().as_secs_f64(),
        last,
        budget.min_repeats,
        budget.seconds,
    ) {
        let t = Instant::now();
        match spawn_worker::<StudySample>(env, w, budget.seed, WorkerMode::Study) {
            Ok((setup_s, Some(s))) => {
                rec.push("setup_s", setup_s);
                rec.push("study_s", s.study_s);
                rec.push("latency_ms", s.study_s * 1e3);
                rec.push("cpu_s", s.cpu_s);
                rec.push("peak_rss_mb", s.peak_rss_mb);
                rec.digests.push(s.digest);
            }
            Ok((_, None)) => unreachable!("a full worker always samples"),
            Err(e) => {
                eprintln!("slumbench: {}: study worker: {e}", w.name());
                rec.check(false);
            }
        }
        last = t.elapsed().as_secs_f64();
        done += 1;
    }
    // Correctness: the pinned digest at the pinned seed, and one digest
    // across every repeat at any seed.
    let expected = if env.sizes.pinned && budget.seed == PINNED_SEED {
        Some(pinned_digest(w).to_string())
    } else {
        rec.digests.first().cloned()
    };
    let checks: Vec<bool> = rec
        .digests
        .iter()
        .map(|d| Some(d) == expected.as_ref())
        .collect();
    for ok in checks {
        rec.check(ok);
    }
    Ok(())
}

/// Every distinct canonical URL of `pairs` with the verdict of its first
/// scan, as the daemon's verdict index keeps it.
pub fn first_verdicts<'a>(
    pairs: impl IntoIterator<Item = (&'a CrawlRecord, &'a ScanOutcome)>,
) -> Vec<(String, bool)> {
    let mut seen = HashSet::new();
    pairs
        .into_iter()
        .filter_map(|(r, o)| {
            let url = r.url.canonical();
            seen.insert(url.clone()).then_some((url, o.malicious))
        })
        .collect()
}

/// The verdict index a warm study leaves behind.
#[derive(Debug, Clone)]
pub struct WarmIndex {
    /// Artifact digest of the warm study.
    pub digest: String,
    /// Known URLs and their verdicts.
    pub urls: Vec<(String, bool)>,
}

/// Computes the warm study in batch: the daemon's warm study must match
/// its digest, and readers ask for its URLs.
pub fn warm_index(config: &StudyConfig) -> WarmIndex {
    let study = Study::run(config);
    let urls = first_verdicts(study.regular_pairs());
    WarmIndex {
        digest: export::artifact_digest(&study).expect("export serializes"),
        urls,
    }
}

/// The batch artifact digest of `config`.
pub fn batch_digest(config: &StudyConfig) -> String {
    export::artifact_digest(&Study::run(config)).expect("export serializes")
}

/// SplitMix64: the benchmark's own seeded generator for request mixes.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The read mix: 90% URLs the warm study scanned, 10% seeded misses.
pub struct QueryMix<'a> {
    rng: SplitMix64,
    urls: &'a [(String, bool)],
    study: u64,
}

impl<'a> QueryMix<'a> {
    /// A mix over `urls`, asking through study `study`.
    pub fn new(seed: u64, urls: &'a [(String, bool)], study: u64) -> Self {
        QueryMix {
            rng: SplitMix64::new(seed),
            urls,
            study,
        }
    }

    /// The next request line and its expected answer.
    pub fn next_request(&mut self) -> (String, Expect) {
        let roll = self.rng.next_u64();
        let (url, expect) = if roll.is_multiple_of(10) || self.urls.is_empty() {
            (
                format!(
                    "http://miss-{:016x}.slumbench.invalid/",
                    self.rng.next_u64()
                ),
                Expect::Unknown,
            )
        } else {
            let (url, malicious) = &self.urls[(roll / 10) as usize % self.urls.len()];
            (url.clone(), Expect::Known(*malicious))
        };
        let url = serde_json::to_string(&url).expect("strings serialize");
        (
            format!(
                r#"{{"op":"query-verdict","study":{},"url":{url}}}"#,
                self.study
            ),
            expect,
        )
    }
}

/// A daemon child on loopback.
pub struct DaemonProc {
    child: ChildGuard,
    /// The daemon's address.
    pub addr: SocketAddr,
    root: PathBuf,
}

impl DaemonProc {
    /// Spawns a daemon whose checkpoint root is `root` and waits for its
    /// `SERVE_ADDR` line.
    ///
    /// # Errors
    ///
    /// Spawn and protocol failures.
    pub fn spawn(env: &Env, root: &Path) -> Result<DaemonProc, String> {
        let _ = std::fs::remove_dir_all(root);
        let mut command = env.base_command("daemon");
        command.arg("--root").arg(root);
        let mut child = ChildGuard::spawn(&mut command)?;
        let line = child
            .lines()?
            .next()
            .ok_or("daemon closed stdout")?
            .map_err(|e| e.to_string())?;
        let addr = line
            .strip_prefix("SERVE_ADDR ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected daemon line {line:?}"))?;
        Ok(DaemonProc {
            child,
            addr,
            root: root.to_path_buf(),
        })
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the daemon to shut down, reaps it and removes its root.
    ///
    /// # Errors
    ///
    /// A daemon that refused to stop in time.
    pub fn stop(self) -> Result<(), String> {
        let bye = Client::connect(self.addr).and_then(|mut c| c.call(&Request::new("shutdown")));
        let DaemonProc { child, root, .. } = self;
        let exited = child.finish(Duration::from_secs(10));
        let _ = std::fs::remove_dir_all(&root);
        bye.map_err(|e| format!("shutdown: {e}"))?;
        exited
    }
}

/// Polls `study` every `poll` until it leaves `running`; returns its
/// final status.
fn wait_study(client: &mut Client, study: u64, poll: Duration) -> Result<Response, String> {
    let deadline = Instant::now() + STUDY_TIMEOUT;
    let mut status = Request::new("study-status");
    status.study = Some(study);
    loop {
        let r = client.call(&status).map_err(|e| e.to_string())?;
        if r.state.as_deref() != Some("running") {
            return Ok(r);
        }
        if Instant::now() > deadline {
            return Err(format!(
                "study {study} still running after {STUDY_TIMEOUT:?}"
            ));
        }
        std::thread::sleep(poll);
    }
}

/// Submits `request`, returning the study id.
fn submit(client: &mut Client, request: &Request) -> Result<u64, String> {
    let r = client.call(request).map_err(|e| e.to_string())?;
    match (r.ok, r.study) {
        (true, Some(id)) => Ok(id),
        _ => Err(format!("submit refused: {:?}", r.error)),
    }
}

/// A daemon with its warm study done.
struct Ready {
    daemon: DaemonProc,
    warm_id: u64,
}

/// Set-up: spawn a daemon and run the warm study through it. The time
/// from spawn until the warm study is done is `setup_s`.
fn set_up(
    env: &Env,
    k: usize,
    seed: u64,
    warm: &WarmIndex,
    rec: &mut WorkloadRecord,
) -> Result<Ready, String> {
    let root = env
        .out_dir
        .join(format!("serve-root-{}-{k}", std::process::id()));
    let t0 = Instant::now();
    let daemon = DaemonProc::spawn(env, &root)?;
    let mut client = Client::connect(daemon.addr).map_err(|e| e.to_string())?;
    let warm_id = submit(&mut client, &warm_request(seed, &env.sizes))?;
    let status = wait_study(&mut client, warm_id, POLL)?;
    rec.push("setup_s", t0.elapsed().as_secs_f64());
    rec.check(status.digest.as_deref() == Some(warm.digest.as_str()));
    if rec.serve_root_fs.is_none() {
        rec.serve_root_fs = procfs::fs_type(&root);
    }
    Ok(Ready { daemon, warm_id })
}

fn run_serve(
    env: &Env,
    w: Workload,
    budget: Budget,
    rec: &mut WorkloadRecord,
) -> Result<(), String> {
    std::fs::create_dir_all(&env.out_dir).map_err(|e| e.to_string())?;
    // Inputs, built before any timing: the warm index readers ask for.
    let warm = warm_index(&batch_config(&warm_request(budget.seed, &env.sizes)));
    if w == Workload::ServeQuery {
        std::thread::sleep(env.sizes.query_settle);
    }
    let start = Instant::now();
    for k in 0..env.sizes.daemon_setup_probes {
        set_up(env, k, budget.seed, &warm, rec)?.daemon.stop()?;
    }
    let mut tenant_digests: Vec<(usize, String)> = Vec::new();
    let (mut done, mut last) = (0, 0.0);
    while keep_going(
        done,
        start.elapsed().as_secs_f64(),
        last,
        budget.min_repeats,
        budget.seconds,
    ) {
        let t = Instant::now();
        let ready = set_up(
            env,
            env.sizes.daemon_setup_probes + done,
            budget.seed,
            &warm,
            rec,
        )?;
        let pid = ready.daemon.pid();
        let cpu0 = procfs::cpu_seconds(pid).ok_or("daemon /proc/<pid>/stat unreadable")?;
        let mut mix = QueryMix::new(budget.seed ^ done as u64, &warm.urls, ready.warm_id);
        let late_tail = match w {
            Workload::ServeMixed => {
                let (reader, digests) = mixed_repeat(env, &ready, budget.seed, &mut mix, rec)?;
                tenant_digests.extend(digests);
                rec.push(
                    "verdict_p50_ms",
                    stats::median(&reader.latencies_ms).unwrap_or(0.0),
                );
                if let Some((p, v)) = reader.latency_tail() {
                    rec.notes.insert(format!("reader.latency_p{p:.1}_ms"), v);
                }
                reader.late_tail()
            }
            _ => {
                let steps = query_repeat(env, &ready, budget.seconds, &mut mix, rec)?;
                let reported = steps
                    .iter()
                    .find(|s| s.rate == REPORTED_RATE)
                    .ok_or("no reported step")?;
                let p50 = stats::median(&reported.latencies_ms).unwrap_or(0.0);
                rec.push("verdict_p50_ms", p50);
                rec.push("latency_ms", p50);
                if let Some(p99) = stats::percentile(&reported.latencies_ms, 99.0) {
                    rec.push("verdict_p99_ms", p99);
                }
                rec.push("verdict_capacity_qps", loadgen::capacity(&steps));
                steps[0].late_tail()
            }
        };
        // CPU and peak memory of the daemon over the timed window.
        rec.push(
            "cpu_s",
            procfs::cpu_seconds(pid).ok_or("daemon exited early")? - cpu0,
        );
        rec.push(
            "peak_rss_mb",
            procfs::peak_rss_mb(pid).ok_or("daemon exited early")?,
        );
        ready.daemon.stop()?;
        if let Some((_, late)) = late_tail {
            let worst = rec.late_ms_tail.map_or(late, |l| l.max(late));
            rec.late_ms_tail = Some(worst);
            if worst > loadgen::LATENCY_LIMIT_MS {
                rec.valid = false;
                rec.invalid_reason = Some(format!(
                    "generator lateness {worst:.2} ms at the 20/s step exceeds 10 ms"
                ));
            }
        }
        last = t.elapsed().as_secs_f64();
        done += 1;
    }
    // Correctness, outside every timed window: each tenant's artifacts
    // equal the batch run of its config.
    if !tenant_digests.is_empty() {
        let expected: Vec<String> = TENANTS
            .iter()
            .map(|(name, offset)| {
                let seed = budget.seed + offset;
                if env.sizes.pinned && seed == PINNED_SEED {
                    pinned_digest(Workload::ServeMixed).to_string()
                } else {
                    batch_digest(&batch_config(&submit_request(
                        name,
                        seed,
                        env.sizes.tenant_scale,
                    )))
                }
            })
            .collect();
        for (tenant, digest) in tenant_digests {
            rec.check(digest == expected[tenant]);
            rec.digests.push(digest);
        }
    }
    Ok(())
}

/// One `serve-mixed` repeat: three tenant studies submitted together,
/// a control connection polling their status, and a reader at
/// `reader_rate` until the last study is done. Returns the reader's
/// step and each finished tenant's digest.
fn mixed_repeat(
    env: &Env,
    ready: &Ready,
    seed: u64,
    mix: &mut QueryMix<'_>,
    rec: &mut WorkloadRecord,
) -> Result<(Step, Vec<(usize, String)>), String> {
    let addr = ready.daemon.addr;
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            loadgen::run_step(addr, READER_RATE, StepEnd::Flag(&stop), &mut |_| {
                mix.next_request()
            })
        });
        let control = (|| -> Result<Vec<(usize, String)>, String> {
            let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
            let mut jobs = Vec::new();
            for (tenant, (name, offset)) in TENANTS.iter().enumerate() {
                let sent = Instant::now();
                let id = submit(
                    &mut client,
                    &submit_request(name, seed + offset, env.sizes.tenant_scale),
                );
                rec.check(id.is_ok());
                if let Ok(id) = id {
                    jobs.push((tenant, id, sent, None::<Instant>));
                }
            }
            let deadline = Instant::now() + STUDY_TIMEOUT;
            let mut digests = Vec::new();
            let mut status = Request::new("study-status");
            while jobs.iter().any(|j| j.3.is_none()) && Instant::now() < deadline {
                std::thread::sleep(POLL);
                for job in jobs.iter_mut().filter(|j| j.3.is_none()) {
                    status.study = Some(job.1);
                    let r = client.call(&status).map_err(|e| e.to_string())?;
                    rec.check(r.ok);
                    match r.state.as_deref() {
                        Some("running") => {}
                        Some("done") => {
                            let now = Instant::now();
                            job.3 = Some(now);
                            let turnaround = now.duration_since(job.2).as_secs_f64();
                            rec.push("turnaround_s", turnaround);
                            rec.push("latency_ms", turnaround * 1e3);
                            digests.push((job.0, r.digest.unwrap_or_default()));
                        }
                        other => {
                            return Err(format!("study {} ended {other:?}: {:?}", job.1, r.error))
                        }
                    }
                }
            }
            for _ in jobs.iter().filter(|j| j.3.is_none()) {
                rec.check(false);
            }
            Ok(digests)
        })();
        stop.store(true, Ordering::SeqCst);
        let reader = reader
            .join()
            .map_err(|_| "reader thread panicked".to_string())?;
        let reader = reader.map_err(|e| format!("reader: {e}"))?;
        rec.attempted += reader.sent;
        rec.failed += reader.failed;
        Ok((reader, control?))
    })
}

/// One `serve-query` repeat: the rate ladder, each step on a fresh
/// connection.
fn query_repeat(
    env: &Env,
    ready: &Ready,
    seconds: Option<f64>,
    mix: &mut QueryMix<'_>,
    rec: &mut WorkloadRecord,
) -> Result<Vec<Step>, String> {
    let ladder = LADDER;
    let step_s = seconds
        .map_or(env.sizes.max_step_s, |s| s / ladder.len() as f64)
        .min(env.sizes.max_step_s);
    let mut steps = Vec::new();
    for rate in ladder {
        let step = loadgen::run_step(
            ready.daemon.addr,
            rate,
            StepEnd::After(step_s * 1e3),
            &mut |_| mix.next_request(),
        )
        .map_err(|e| format!("ladder step {rate}/s: {e}"))?;
        rec.attempted += step.sent;
        rec.failed += step.failed;
        let key = |what: &str| format!("step.{rate}.{what}");
        rec.notes.insert(
            key("p50_ms"),
            stats::median(&step.latencies_ms).unwrap_or(0.0),
        );
        if let Some((p, v)) = step.latency_tail() {
            rec.notes.insert(key(&format!("p{p:.1}_ms")), v);
        }
        if let Some((p, v)) = step.late_tail() {
            rec.notes.insert(key(&format!("late_p{p:.1}_ms")), v);
        }
        rec.notes.insert(key("sent"), step.sent as f64);
        rec.notes.insert(key("unsent"), step.unsent as f64);
        steps.push(step);
    }
    Ok(steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeats_continue_while_the_next_fits() {
        assert!(keep_going(0, 0.0, 0.0, 1, Some(24.0)));
        assert!(keep_going(2, 14.0, 7.0, 1, Some(24.0)));
        assert!(!keep_going(3, 21.0, 7.0, 1, Some(24.0)));
        assert!(keep_going(2, 99.0, 7.0, 3, None));
        assert!(!keep_going(3, 1.0, 1.0, 3, None));
    }

    #[test]
    fn query_mix_is_seeded_and_mostly_known() {
        let urls = vec![
            ("http://a.example/".to_string(), true),
            ("http://b.example/".to_string(), false),
        ];
        let lines = |seed| {
            let mut mix = QueryMix::new(seed, &urls, 7);
            (0..200).map(|_| mix.next_request()).collect::<Vec<_>>()
        };
        assert_eq!(lines(1), lines(1));
        assert_ne!(lines(1), lines(2));
        let misses = lines(1)
            .iter()
            .filter(|(_, e)| *e == Expect::Unknown)
            .count();
        assert!((5..40).contains(&misses), "{misses} misses in 200");
        let (line, _) = &lines(1)[0];
        let parsed = slum_serve::parse_request(line).expect("valid request line");
        assert_eq!(
            (parsed.op.as_str(), parsed.study),
            ("query-verdict", Some(7))
        );
    }
}
