//! Scanning orchestration: VirusTotal + Quttera + blacklists, with the
//! cloaking-defeating content-upload fallback.
//!
//! Methodology (§III-B + footnote 1): every regular URL is scanned
//! through the detection services. Some malicious sites cloak — they
//! serve benign content to scanner fetches — so for URLs whose URL scan
//! comes back clean, the pipeline uploads the page content the crawler's
//! *browser* captured, which defeats the cloak.
//!
//! A batch is scanned from a plan. Once the crawl ends, every key the
//! scan looks up is known, so [`ScanPipeline::scan_all_parallel_chunked`]
//! (and the study's scan phase, which calls the same code) runs five
//! passes:
//!
//! 1. the workers look up each scanned record's fault decisions (once
//!    per run of records from one source) and hash its URL and chain
//!    hosts into flat arrays; a serial pass then gives each record a
//!    dense URL id and its chain-host ids by probing presized id maps
//!    with those hashes, comparing text only when two hashes are equal;
//! 2. parallel passes fill `Vec` slots with each distinct URL's sample
//!    (scanner load, VirusTotal and Quttera reports, JS tally), each
//!    distinct host's registered domain and each distinct domain's
//!    blacklist consensus. One scanner load per distinct route (host
//!    and path) serves every URL on the route, each URL adding only its
//!    own engine draws;
//! 3. a serial pass walks each record's chain up to its first
//!    blacklisted domain and gives a capture id to every (URL, body
//!    hash) pair whose reachable URL scans were all clean, reading each
//!    body's content hash from its [`Body`], which computes it once;
//! 4. a parallel pass scans each distinct capture, once per body, each
//!    capture again adding only its own engine draws;
//! 5. a parallel pass assembles every record's [`ScanOutcome`] from its
//!    ids, or the clean outcome of a record the scan skipped. An
//!    outcome points at its deciding sample instead of copying it.
//!
//! A sample's page part (Quttera's findings and verdict, the JS it ran,
//! the feature classes the engines read) is shared by every key scanned
//! on that page, and every key whose engine draws all miss shares the
//! page's whole sample. The reuse is exact — each record's outcome is
//! the one it gets scanned alone — because a scan reads a URL only
//! through its route, with one exception: a page's scripts get the
//! full URL as `location`, and no script the synthetic web installs
//! reads it. The synthetic web routes a fetch by host and path,
//! shorteners resolve by path, a rotator keys on the request clock
//! (0 for the scanner), and script and plugin sources resolve against
//! the page's host alone.
//!
//! Every parallel pass runs through one chunked loop over scoped
//! threads that writes each result into its index's slot of one
//! vector, so the outcomes are identical for every worker count and
//! chunk size. The `scan.cache.*` and `js.vm.*` counters are arithmetic
//! on the plan.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hash, RandomState};
use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

use slum_browser::{Browser, LoadResult};
use slum_crawler::CrawlRecord;
use slum_detect::blacklist::BlacklistDb;
use slum_detect::fault::{FaultPlan, ScanService, ServiceDecision, SourceDecisions};
use slum_detect::quttera::{Quttera, QutteraFinding, QutteraReport, QutteraVerdict};
use slum_detect::virustotal::{VirusTotal, VtReport};
use slum_detect::{CacheStats, ClassSet, Features, JsModuleCache};
use slum_js::sandbox::{JsEngine, SandboxReport};
use slum_js::ModuleStore;
use slum_obs::Histogram;
use slum_websim::{Body, RequestContext, SyntheticWeb, Url};

/// Which services contributed to a verdict — the provenance record the
/// related mal-activity-measurement literature argues must accompany
/// any verdict produced under partial service failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VerdictSource {
    /// Every service answered: VirusTotal, Quttera and the blacklists.
    Full,
    /// At least one scanner (VT or Quttera) answered, but some service
    /// was unavailable.
    Degraded,
    /// Both scanners were down; only the blacklist consensus answered.
    BlacklistOnly,
    /// Everything was down: the verdict defaults to benign and carries
    /// no evidence.
    Unresolved,
}

impl VerdictSource {
    /// Stable metric-segment name.
    pub fn name(self) -> &'static str {
        match self {
            VerdictSource::Full => "full",
            VerdictSource::Degraded => "degraded",
            VerdictSource::BlacklistOnly => "blacklist_only",
            VerdictSource::Unresolved => "unresolved",
        }
    }

    fn classify(vt_up: bool, quttera_up: bool, blacklist_up: bool) -> VerdictSource {
        match (vt_up, quttera_up, blacklist_up) {
            (true, true, true) => VerdictSource::Full,
            (true, _, _) | (_, true, _) => VerdictSource::Degraded,
            (false, false, true) => VerdictSource::BlacklistOnly,
            (false, false, false) => VerdictSource::Unresolved,
        }
    }
}

/// What the fault layer cost one record: injected faults observed,
/// retries issued, virtual backoff spent, services skipped by an open
/// breaker. All-zero when fault injection is inert, so tallies derived
/// from it stay deterministic and strictly opt-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultLog {
    /// Failed attempts across all services (each is one injected fault
    /// the pipeline observed).
    pub injected: u32,
    /// Retries issued across all services.
    pub retries: u32,
    /// Total virtual backoff spent waiting between attempts.
    pub backoff_nanos: u64,
    /// Services skipped outright because their breaker was open.
    pub breaker_skips: u32,
}

impl FaultLog {
    /// Adds `other`'s costs to this log.
    pub(crate) fn add(&mut self, other: &FaultLog) {
        self.injected += other.injected;
        self.retries += other.retries;
        self.backoff_nanos += other.backoff_nanos;
        self.breaker_skips += other.breaker_skips;
    }

    fn from_decisions(decisions: &[ServiceDecision; 3]) -> FaultLog {
        let mut log = FaultLog::default();
        for d in decisions {
            log.injected += d.injected();
            log.retries += d.retries();
            log.backoff_nanos += d.backoff_nanos();
            if *d == ServiceDecision::BreakerSkip {
                log.breaker_skips += 1;
            }
        }
        log
    }
}

/// The schedule-independent identity of a record in a fault plan:
/// `exchange#seq` is unique per corpus and fixed by the crawl, never by
/// scan-worker chunking.
///
/// This is the key [`FaultPlan::compile`] and [`FaultPlan::decisions`]
/// take. The study never builds it: it compiles from the records' own
/// fields ([`FaultPlan::compile_requests`]), and the scan looks
/// decisions up by source and seq.
pub fn scan_key(record: &CrawlRecord) -> String {
    format!("{}#{}", record.exchange, record.seq)
}

/// Default scan work-unit size: items per chunk pulled by a parallel
/// scan worker. Small enough to load-balance, large enough that the
/// atomic pull amortizes to noise.
pub const DEFAULT_SCAN_CHUNK: usize = 256;

/// Default corpus size below which the scan phase runs serially.
///
/// Thread spawn/join costs more than it saves on small corpora (the
/// crawl_scale 0.001 CI runs measured parallel scans *slower* than
/// serial), so below this many records the study ignores the configured
/// worker count and takes the serial path.
pub const DEFAULT_SERIAL_SCAN_THRESHOLD: usize = 4096;

/// The worker count the scan phase actually uses for `record_count`
/// records when the caller asked for `requested` workers.
///
/// Three clamps, in order: below `serial_threshold` records the answer
/// is 1 (spawn overhead dominates — the small-corpus regression this
/// fixes); the count never exceeds the host's available parallelism
/// (extra threads on a saturated host only add contention); and it
/// never exceeds the record count. The choice is invisible in results —
/// outputs are identical for every worker count — so this is purely a
/// scheduling decision.
pub fn effective_scan_workers(
    record_count: usize,
    requested: usize,
    serial_threshold: usize,
) -> usize {
    if record_count < serial_threshold {
        return 1;
    }
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(usize::MAX);
    requested.max(1).min(cores).min(record_count.max(1))
}

/// Fills a vector of `len` values across `workers` scoped threads, run
/// by run, and returns it with one value per run — the one chunked loop
/// every parallel pass of a scan runs through.
///
/// Workers pull runs of `chunk` consecutive slots from one shared
/// iterator instead of taking one contiguous stretch each, so a worker
/// that drew expensive items keeps pulling small runs while its peers
/// do the same and no thread idles behind one unlucky stretch. `f` gets
/// a run's first index and its slots of the one output vector, fills
/// every slot and returns the run's value; so the result is the serial
/// one for every worker count and chunk size, and no second copy of it
/// is ever held. One worker (or at most one run) fills the runs in
/// order on the calling thread.
pub(crate) fn fill_runs<T, R, F>(len: usize, workers: usize, chunk: usize, f: F) -> (Vec<T>, Vec<R>)
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [Option<T>]) -> R + Sync,
{
    let chunk = chunk.max(1);
    let runs = len.div_ceil(chunk);
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(len).collect();
    let mut values: Vec<Option<R>> = std::iter::repeat_with(|| None).take(runs).collect();
    let mut pending = slots.chunks_mut(chunk).zip(values.iter_mut()).enumerate();
    let workers = workers.max(1).min(runs.max(1));
    if workers == 1 {
        for (r, (run, value)) in pending {
            *value = Some(f(r * chunk, run));
        }
    } else {
        let pending = Mutex::new(&mut pending);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let (pending, f) = (&pending, &f);
                scope.spawn(move || loop {
                    // A holder only advances the iterator, so even a
                    // poisoned lock guards a valid one.
                    let next = pending.lock().unwrap_or_else(PoisonError::into_inner).next();
                    let Some((r, (run, value))) = next else { break };
                    *value = Some(f(r * chunk, run));
                });
            }
        });
    }
    // Collected in place: an `Option` of every type the passes return is
    // the size of the value, so this reuses the slots' allocation.
    let slots = slots.into_iter().map(|slot| slot.expect("every slot is filled")).collect();
    (slots, values.into_iter().map(|value| value.expect("every run is filled")).collect())
}

/// Maps `f` over the indices `0..len` through [`fill_runs`] and returns
/// the results in index order: the serial `(0..len).map(f)`.
pub(crate) fn scan_chunked<T, F>(len: usize, workers: usize, chunk: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let fill = |start: usize, run: &mut [Option<T>]| {
        for (k, slot) in run.iter_mut().enumerate() {
            *slot = Some(f(start + k));
        }
    };
    fill_runs(len, workers, chunk, fill).0
}

/// Folds each run of `chunk` consecutive indices of `0..len` and
/// returns the folds in run order.
pub(crate) fn scan_runs<R, F>(len: usize, workers: usize, chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let chunk = chunk.max(1);
    scan_chunked(len.div_ceil(chunk), workers, 1, |r| f(r * chunk..len.min((r + 1) * chunk)))
}

/// Verdict and evidence for one scanned record.
///
/// The evidence is the deciding sample — the URL scan's, or the content
/// scan's when that was the deciding path — shared with every record
/// whose scan drew the same, and read through [`ScanOutcome::vt`],
/// [`ScanOutcome::findings`] and [`ScanOutcome::quttera_verdict`]. A
/// scanner that did not answer for this record contributes an empty
/// report. Equality and `Debug` are those of the evidence, whatever
/// shares it.
#[derive(Clone)]
pub struct ScanOutcome {
    /// Final verdict.
    pub malicious: bool,
    /// Blacklist consensus hit on any chain domain (every record of a
    /// scan hitting the same domain shares one allocation).
    pub blacklisted_domain: Option<Arc<str>>,
    /// Whether the verdict required the content-upload path (i.e. the
    /// URL scan was clean but the uploaded browser capture was not).
    pub needed_content_upload: bool,
    /// Which services contributed to the verdict.
    pub source: VerdictSource,
    /// What the fault layer cost this record (all-zero without faults).
    pub faults: FaultLog,
    /// The deciding sample; `None` when no scanner answered.
    sample: Option<Arc<Sample>>,
    /// Whether VirusTotal answered for this record.
    vt_up: bool,
    /// Whether Quttera answered for this record.
    quttera_up: bool,
}

/// The report a VirusTotal that did not answer contributes: no
/// detections, no engines consulted.
static UNANSWERED_VT: VtReport =
    VtReport { detections: Vec::new(), total_engines: 0, threshold: 2 };

impl ScanOutcome {
    /// The VirusTotal report on the deciding sample.
    pub fn vt(&self) -> &VtReport {
        self.sample.as_deref().filter(|_| self.vt_up).map_or(&UNANSWERED_VT, |s| &s.vt)
    }

    /// Quttera's view of the deciding sample, when Quttera answered.
    fn quttera(&self) -> Option<&PageScan> {
        self.sample.as_deref().filter(|_| self.quttera_up).map(|s| &*s.page)
    }

    /// Quttera findings.
    pub fn findings(&self) -> &[QutteraFinding] {
        self.quttera().map_or(&[], |page| &page.findings)
    }

    /// Quttera's verdict.
    pub fn quttera_verdict(&self) -> QutteraVerdict {
        self.quttera().map_or(QutteraVerdict::Clean, |page| page.verdict)
    }

    /// All threat labels from the VT report.
    pub fn labels(&self) -> Vec<&str> {
        self.vt().labels()
    }
}

impl PartialEq for ScanOutcome {
    fn eq(&self, other: &Self) -> bool {
        self.malicious == other.malicious
            && self.vt() == other.vt()
            && self.findings() == other.findings()
            && self.quttera_verdict() == other.quttera_verdict()
            && self.blacklisted_domain == other.blacklisted_domain
            && self.needed_content_upload == other.needed_content_upload
            && self.source == other.source
            && self.faults == other.faults
    }
}

impl fmt::Debug for ScanOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScanOutcome")
            .field("malicious", &self.malicious)
            .field("vt", self.vt())
            .field("findings", &self.findings())
            .field("quttera_verdict", &self.quttera_verdict())
            .field("blacklisted_domain", &self.blacklisted_domain)
            .field("needed_content_upload", &self.needed_content_upload)
            .field("source", &self.source)
            .field("faults", &self.faults)
            .finish()
    }
}

#[cfg(test)]
impl ScanOutcome {
    /// An outcome every service answered: the full battery's VirusTotal
    /// report without detections, Quttera's `findings` (a malicious
    /// verdict when there are any) and the blacklist hit
    /// `blacklisted_domain`.
    pub(crate) fn answered(
        malicious: bool,
        findings: Vec<QutteraFinding>,
        blacklisted_domain: Option<&str>,
    ) -> ScanOutcome {
        let verdict =
            if findings.is_empty() { QutteraVerdict::Clean } else { QutteraVerdict::Malicious };
        let classes = ClassSet::default();
        let page = PageScan { findings, verdict, classes, js: JsRunStats::default() };
        let vt = VtReport { detections: Vec::new(), total_engines: 12, threshold: 2 };
        ScanOutcome {
            malicious,
            blacklisted_domain: blacklisted_domain.map(Arc::from),
            needed_content_upload: false,
            source: VerdictSource::Full,
            faults: FaultLog::default(),
            sample: Some(Arc::new(Sample { page: Arc::new(page), vt })),
            vt_up: true,
            quttera_up: true,
        }
    }
}

/// The `scan.cache.*` group names, in [`ScanCaches::stats`] order.
const CACHE_GROUPS: [&str; 4] =
    ["url_features", "content_features", "host_domains", "domain_blacklisted"];

/// What one scanned page or uploaded body shows under any sample key:
/// Quttera's findings and verdict, the JS the scan ran, and the feature
/// classes that decide which engine rules draw.
#[derive(Debug)]
struct PageScan {
    findings: Vec<QutteraFinding>,
    verdict: QutteraVerdict,
    classes: ClassSet,
    js: JsRunStats,
}

/// One scanned sample — a URL as the scanner fetches it, or an uploaded
/// capture: its page scan and the VirusTotal report its key drew. A
/// page's *clean* sample is the one every key whose draws all miss
/// shares.
#[derive(Debug)]
struct Sample {
    page: Arc<PageScan>,
    vt: VtReport,
}

impl Sample {
    fn quttera_malicious(&self) -> bool {
        self.page.verdict == QutteraVerdict::Malicious
    }
}

/// JS execution counters for one distinct scanned sample.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct JsRunStats {
    /// Bytecode instructions the VM dispatched (0 under the tree-walk
    /// engine).
    instructions: u64,
    /// Module-cache lookups the VM issued (one per script + eval layer).
    module_lookups: u64,
    /// Scripts that ran out of step budget.
    budget_exhaustions: u64,
}

impl JsRunStats {
    fn from_report(report: &SandboxReport) -> JsRunStats {
        JsRunStats {
            instructions: report.vm_instructions,
            module_lookups: report.vm_module_lookups,
            budget_exhaustions: report
                .errors
                .iter()
                .filter(|e| e.contains("step budget exhausted"))
                .count() as u64,
        }
    }

    fn sum<'a>(samples: impl IntoIterator<Item = &'a Arc<Sample>>) -> JsRunStats {
        samples.into_iter().fold(JsRunStats::default(), |acc, s| JsRunStats {
            instructions: acc.instructions + s.page.js.instructions,
            module_lookups: acc.module_lookups + s.page.js.module_lookups,
            budget_exhaustions: acc.budget_exhaustions + s.page.js.budget_exhaustions,
        })
    }
}

/// Finished samples, shared by every scan through one [`ScanCaches`].
/// A scan reads it once before it computes and extends it once after.
#[derive(Default)]
struct SampleTable {
    /// Canonical URL → its URL-scan sample.
    urls: HashMap<Arc<str>, Arc<Sample>>,
    /// `canonical#content-hash` → its upload sample.
    captures: HashMap<Arc<str>, Arc<Sample>>,
    /// Chain host → registered domain.
    hosts: HashMap<Arc<str>, Arc<str>>,
    /// Registered domain → blacklist consensus.
    domains: HashMap<Arc<str>, bool>,
    /// Lookups summed over every scan, per [`CACHE_GROUPS`] entry.
    lookups: [u64; 4],
}

/// The memoization state of a [`ScanPipeline`], split out so several
/// pipelines can share it via `Arc` — the slum-serve daemon hands the
/// same `ScanCaches` to every tenant studying the same synthetic web,
/// so a URL scanned for one tenant is not scanned again for the next.
///
/// Sharing is sound only between pipelines scanning the *same* web
/// (same seed, scales, substrate and JS engine): every cached value is
/// a pure function of `(web, key)`, so a shared entry is bit-identical
/// to what a cold cache would recompute. Neither verdicts nor a study's
/// counters change under sharing: a study's `scan.cache.*` and `js.vm.*`
/// counters are its own plan's. Only [`ScanCaches::stats`] — summed
/// over every scan through the set — observes it.
pub struct ScanCaches {
    /// Static-pass features ([`Features::from_body`]) per body the web
    /// serves, indexed by [`Body::id`]. Which body a scanner load ends
    /// on is known only after the load, so each slot fills while the
    /// scan runs. The table is sized from the web's body count the
    /// first time a pipeline scans through these caches.
    page_features: OnceLock<Box<[OnceLock<Features>]>>,
    /// Compiled-module cache: campaign pages reusing the same packed
    /// payload compile it once. Only consulted under [`JsEngine::Vm`].
    js_modules: Arc<JsModuleCache>,
    /// Every URL, capture, host and domain a kept scan finished. Their
    /// keys are known before a scan computes, so the table is locked
    /// once before and once after a scan, never by its workers.
    samples: RwLock<SampleTable>,
}

impl ScanCaches {
    /// Fresh, cold caches.
    pub fn new() -> Self {
        ScanCaches {
            page_features: OnceLock::new(),
            js_modules: Arc::new(JsModuleCache::new()),
            samples: RwLock::new(SampleTable::default()),
        }
    }

    /// The sample table, ignoring poison from a panicked holder: a scan
    /// extends it only after its last pass, in one critical section.
    fn table(&self) -> RwLockReadGuard<'_, SampleTable> {
        self.samples.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn table_mut(&self) -> RwLockWriteGuard<'_, SampleTable> {
        self.samples.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Drops all memoized state except the compiled modules and the
    /// per-body static features (see [`ScanPipeline::clear_caches`]
    /// for the rationale).
    pub fn clear(&self) {
        *self.table_mut() = SampleTable::default();
    }

    /// The per-body static-feature slots for a web serving `bodies`
    /// bodies.
    ///
    /// # Panics
    ///
    /// Panics when an earlier scan sized the table for another count:
    /// these caches were shared between pipelines over different webs.
    fn page_features(&self, bodies: usize) -> &[OnceLock<Features>] {
        let table =
            self.page_features.get_or_init(|| (0..bodies).map(|_| OnceLock::new()).collect());
        assert_eq!(table.len(), bodies, "ScanCaches shared between webs with different bodies");
        table
    }

    /// Number of distinct URLs whose scan samples are cached.
    pub fn cached_urls(&self) -> usize {
        self.table().urls.len()
    }

    /// Lookup/entry/hit statistics for each of the four memoized key
    /// kinds, keyed by the metric group name used under `scan.cache.*`:
    /// lookups summed over every scan through this set, entries the
    /// distinct keys cached, hits derived as `lookups - entries`.
    pub fn stats(&self) -> [(&'static str, CacheStats); 4] {
        let table = self.table();
        let entries =
            [table.urls.len(), table.captures.len(), table.hosts.len(), table.domains.len()];
        std::array::from_fn(|g| {
            (CACHE_GROUPS[g], CacheStats::new(table.lookups[g], entries[g] as u64))
        })
    }

    /// JS-engine statistics over every cached sample (see
    /// [`JsVmStats`]).
    pub fn js_vm_stats(&self) -> JsVmStats {
        let table = self.table();
        self.vm_stats(JsRunStats::sum(table.urls.values().chain(table.captures.values())))
    }

    fn vm_stats(&self, run: JsRunStats) -> JsVmStats {
        let compiles = self.js_modules.len() as u64;
        JsVmStats {
            compiles,
            compile_nanos: self.js_modules.total_compile_nanos(),
            module_lookups: run.module_lookups,
            module_hits: run.module_lookups.saturating_sub(compiles),
            instructions: run.instructions,
            budget_exhaustions: run.budget_exhaustions,
        }
    }
}

impl Default for ScanCaches {
    fn default() -> Self {
        ScanCaches::new()
    }
}

/// The scanning pipeline: detection services plus the shared
/// memoization caches. Every method takes `&self`, so one pipeline can
/// be driven from many scan workers at once.
pub struct ScanPipeline<'w> {
    web: &'w SyntheticWeb,
    vt: VirusTotal<'w>,
    quttera: Quttera<'w>,
    blacklists: BlacklistDb,
    /// Memoization state — per-pipeline by default, shared across
    /// pipelines when installed via [`ScanPipeline::with_shared_caches`].
    caches: Arc<ScanCaches>,
    /// Optional compiled fault schedule. `None` (the default) keeps the
    /// pipeline infallible and bit-identical to the pre-fault-layer
    /// behaviour.
    fault_plan: Option<FaultPlan>,
    /// Which JavaScript engine sandboxed page execution uses (the
    /// bytecode VM by default; the tree-walking interpreter as the
    /// differential oracle). The choice is invisible in verdicts — the
    /// engines are observably identical — only throughput and the
    /// `js.vm.*` counters differ.
    js_engine: JsEngine,
}

/// `js.vm.*` statistics: of one planned scan in a study, or of every
/// sample a [`ScanCaches`] holds ([`ScanPipeline::js_vm_stats`]).
///
/// Every field except `compile_nanos` sums per-sample tallies over
/// distinct samples or counts the module cache's entries, both of which
/// are schedule-independent — so the numbers are identical for every
/// worker count. `compile_nanos` is wall-clock and excluded from
/// determinism contracts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JsVmStats {
    /// Distinct modules compiled (== module-cache entries == the
    /// compilations a serial run would perform).
    pub compiles: u64,
    /// Total wall-clock nanoseconds spent compiling those modules
    /// (wall-clock; not deterministic).
    pub compile_nanos: u64,
    /// Module-cache lookups across all distinct samples.
    pub module_lookups: u64,
    /// Lookups served from cache (`module_lookups - compiles`,
    /// saturating).
    pub module_hits: u64,
    /// Bytecode instructions executed across all distinct samples.
    pub instructions: u64,
    /// Scripts that exhausted their step budget.
    pub budget_exhaustions: u64,
}

/// The `scan.cache.*` and `js.vm.*` counters of one planned scan.
pub(crate) struct ScanTally {
    pub(crate) caches: [(&'static str, CacheStats); 4],
    pub(crate) js_vm: JsVmStats,
}

/// One record's part of a scan plan.
#[derive(Debug)]
struct Visit {
    vt_up: bool,
    quttera_up: bool,
    blacklist_up: bool,
    faults: FaultLog,
    /// Index into the plan's distinct URLs, when a scanner is up.
    url: Option<u32>,
    /// End of this record's chain-host ids in the plan's `chain`.
    chain_end: u32,
    /// Index into the distinct captures, when the capture is uploaded.
    capture: Option<u32>,
    /// Index into the distinct domains of the first blacklisted one on
    /// the chain.
    blacklisted: Option<u32>,
}

impl Visit {
    /// Whether a scanner that is up for this record flags `sample`.
    fn flagged(&self, sample: &Sample) -> bool {
        (self.vt_up && sample.vt.is_malicious()) || (self.quttera_up && sample.quttera_malicious())
    }
}

/// The first pass of a scan: every record's visit, and the distinct
/// URLs and chain hosts the records look up, borrowed from the records.
struct Plan<'a> {
    /// Each record's visit; `None` for a record the scan skips.
    visits: Vec<Option<Visit>>,
    /// Each distinct URL (its canonical form) with its first record.
    urls: Vec<(&'a str, usize)>,
    /// Each distinct chain host with its first record.
    hosts: Vec<(&'a str, usize)>,
    /// Every record's chain-host ids, back to back (see
    /// [`Visit::chain_end`]).
    chain: Vec<u32>,
}

/// The hashes of the keys one run of records looks up, in record order.
struct RunHashes {
    /// The URL hash of each visit with a scanner up.
    urls: Vec<u64>,
    /// The chain-host hashes of each visit with the blacklists up, laid
    /// out like the plan's `chain`.
    hosts: Vec<u64>,
}

/// Dense ids for distinct strings, in first-seen order, probed by
/// hashes computed beforehand: two keys' text is compared only when
/// their hashes are equal. Sized once for every key it will be asked
/// about, so it never grows.
struct HashedIds<'a> {
    /// Open-addressed, at most half full: 0 is empty, else an id plus
    /// one.
    slots: Vec<u32>,
    /// Each key's hash, by id.
    hashes: Vec<u64>,
    /// Each key with the first index that asked for it.
    keys: Vec<(&'a str, usize)>,
}

impl<'a> HashedIds<'a> {
    /// A map for up to `lookups` lookups.
    fn with_capacity(lookups: usize) -> Self {
        HashedIds {
            slots: vec![0; (2 * lookups).next_power_of_two()],
            hashes: Vec::new(),
            keys: Vec::new(),
        }
    }

    /// The id of `key`, whose hash is `hash`; a new key takes the next
    /// id and remembers `first`.
    fn id(&mut self, hash: u64, key: &'a str, first: usize) -> u32 {
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            let Some(id) = self.slots[slot].checked_sub(1) else {
                let id = u32::try_from(self.keys.len())
                    .ok()
                    .filter(|&id| id < u32::MAX)
                    .expect("fewer than 2^32 - 1 distinct keys");
                self.slots[slot] = id + 1;
                self.hashes.push(hash);
                self.keys.push((key, first));
                return id;
            };
            let known = self.keys[id as usize].0;
            if self.hashes[id as usize] == hash && (std::ptr::eq(known, key) || known == key) {
                return id;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The keys in id order; the slots and hashes are dropped.
    fn into_keys(self) -> Vec<(&'a str, usize)> {
        self.keys
    }
}

/// Dense ids for distinct keys, in first-seen order.
struct Ids<K> {
    ids: HashMap<K, u32>,
    /// Each key with the first index that asked for it.
    keys: Vec<(K, usize)>,
}

impl<K: Hash + Eq + Copy> Ids<K> {
    fn new() -> Self {
        Ids { ids: HashMap::new(), keys: Vec::new() }
    }

    /// The id of `key`; a new key takes the next id and remembers
    /// `first`.
    fn id(&mut self, key: K, first: usize) -> u32 {
        let keys = &mut self.keys;
        *self.ids.entry(key).or_insert_with(|| {
            let id = u32::try_from(keys.len()).expect("fewer than 2^32 distinct keys");
            keys.push((key, first));
            id
        })
    }

    /// The keys in id order; the lookup map is dropped.
    fn into_keys(self) -> Vec<(K, usize)> {
        self.keys
    }
}

/// How a pass finds one key's sample.
enum Slot {
    /// The cache set's table holds it.
    Cached(Arc<Sample>),
    /// It is scanned on page `id`: a route, or a captured body.
    Page(u32),
}

/// The keys of one pass, grouped by the page each is scanned on.
struct PageKeys {
    /// How each key finds its sample.
    slots: Vec<Slot>,
    /// Each page's first key.
    firsts: Vec<usize>,
}

/// The sample timings of one run of a pass: a histogram of the run's
/// own, so its records touch no cache line another worker writes.
struct RunTimings(Option<Histogram>);

impl RunTimings {
    /// Runs `compute`, recording its wall time when the pass is timed.
    fn time<T>(&self, compute: impl FnOnce() -> T) -> T {
        let Some(local) = &self.0 else { return compute() };
        let t0 = Instant::now();
        let value = compute();
        local.record(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        value
    }
}

/// [`scan_chunked`] for a pass that computes samples: `f` times them
/// with its run's [`RunTimings`], and each run adds its timings to
/// `timing` at its end.
fn scan_timed<T, F>(
    len: usize,
    workers: usize,
    chunk: usize,
    timing: Option<&Histogram>,
    f: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &RunTimings) -> T + Sync,
{
    let fill = |start: usize, run: &mut [Option<T>]| {
        let timings = RunTimings(timing.map(|_| Histogram::new()));
        for (k, slot) in run.iter_mut().enumerate() {
            *slot = Some(f(start + k, &timings));
        }
        if let (Some(histogram), Some(local)) = (timing, &timings.0) {
            histogram.absorb(&local.snapshot());
        }
    };
    fill_runs(len, workers, chunk, fill).0
}

impl<'w> ScanPipeline<'w> {
    /// Creates the pipeline; blacklists are populated from the web
    /// oracle (standing in for the six public snapshots).
    pub fn new(web: &'w SyntheticWeb) -> Self {
        ScanPipeline {
            web,
            vt: VirusTotal::new(web),
            quttera: Quttera::new(web),
            blacklists: BlacklistDb::populate_from_web(web),
            caches: Arc::new(ScanCaches::new()),
            fault_plan: None,
            js_engine: JsEngine::default(),
        }
    }

    /// Selects the JavaScript engine for sandboxed page execution.
    /// Verdicts are bit-identical either way; only throughput and the
    /// `js.vm.*` counters change.
    pub fn with_js_engine(mut self, engine: JsEngine) -> Self {
        self.js_engine = engine;
        self
    }

    /// Installs a shared cache set (replacing this pipeline's own).
    /// Callers must only share caches between pipelines scanning the
    /// same synthetic web with the same JS engine — see [`ScanCaches`]
    /// for why that makes sharing invisible in verdicts.
    pub fn with_shared_caches(mut self, caches: Arc<ScanCaches>) -> Self {
        self.caches = caches;
        self
    }

    /// Attaches a compiled fault schedule: every subsequent scan replays
    /// the plan's frozen per-request decisions (so verdicts stay
    /// bit-identical across worker counts).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// The attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Drops the finished samples. Verdicts are deterministic with or
    /// without warm caches; tests use this to scan cold again without
    /// rebuilding the pipeline.
    ///
    /// The compiled-module cache and the per-body static features
    /// survive: modules are keyed by content hash and behaviourally
    /// inert, and a body's static features are a pure function of the
    /// body.
    pub fn clear_caches(&self) {
        self.caches.clear();
    }

    /// Number of distinct URLs whose scan samples are cached.
    pub fn cached_urls(&self) -> usize {
        self.caches.cached_urls()
    }

    /// Lookup/entry/hit statistics of the pipeline's cache set (see
    /// [`ScanCaches::stats`]). For a pipeline with its own caches that
    /// scanned one batch, these are that batch's `scan.cache.*`
    /// counters.
    pub fn cache_stats(&self) -> [(&'static str, CacheStats); 4] {
        self.caches.stats()
    }

    /// JS-engine statistics over every sample the cache set holds (see
    /// [`JsVmStats`]). All-zero under [`JsEngine::TreeWalk`] and before
    /// any scan.
    pub fn js_vm_stats(&self) -> JsVmStats {
        self.caches.js_vm_stats()
    }

    /// Scans one crawl record: a batch of one. A record's outcome does
    /// not depend on the rest of its batch, so this equals the record's
    /// slot in any batch scan.
    pub fn scan(&self, record: &CrawlRecord) -> ScanOutcome {
        let mut outcomes = self.scan_all(std::slice::from_ref(record));
        outcomes.pop().expect("one outcome per record")
    }

    /// Scans a batch on the calling thread, preserving order.
    pub fn scan_all(&self, records: &[CrawlRecord]) -> Vec<ScanOutcome> {
        self.scan_all_parallel_chunked(records, 1, DEFAULT_SCAN_CHUNK)
    }

    /// Scans a batch from a plan (see the module docs), running every
    /// parallel pass across `workers` scoped threads that pull
    /// `chunk`-sized work units. The output is index-aligned with
    /// `records` and identical for every worker count and chunk size.
    ///
    /// A service that is unavailable for a record under the fault plan
    /// is simply not consulted (its report stays empty), the verdict is
    /// built from whatever answered, and [`VerdictSource`] records the
    /// provenance.
    pub fn scan_all_parallel_chunked(
        &self,
        records: &[CrawlRecord],
        workers: usize,
        chunk: usize,
    ) -> Vec<ScanOutcome> {
        self.scan_planned(records, |_| true, workers, chunk, None, true).0
    }

    /// The planned scan behind every public scan method and the study's
    /// scan phase. It scans the records `scanned` selects by index; each
    /// other record gets the clean outcome of a record no service saw,
    /// in its slot of the one output vector. Each URL or capture the
    /// scan computes, on its own page or a shared one, records its wall
    /// time into `sample_nanos` when given. With `keep`, the finished
    /// samples extend the cache set's table for later scans; a study
    /// scanning through its own caches passes `false`, because nothing
    /// reads them again.
    pub(crate) fn scan_planned(
        &self,
        records: &[CrawlRecord],
        scanned: impl Fn(usize) -> bool + Sync,
        workers: usize,
        chunk: usize,
        sample_nanos: Option<&Histogram>,
        keep: bool,
    ) -> (Vec<ScanOutcome>, ScanTally) {
        // 1. Fault decisions, URL ids and chain-host ids.
        let Plan { mut visits, urls, hosts, chain } = self.plan(records, scanned, workers, chunk);
        let guard = self.caches.table();
        let table = &*guard;
        // 2. Each distinct URL's sample — the table's, or scanned on its
        //    route — host's domain and domain's consensus.
        let url_samples = {
            let hasher = RandomState::new();
            let found = scan_chunked(urls.len(), workers, chunk, |u| {
                let (canon, i) = urls[u];
                let route = || hasher.hash_one(records[i].url.host_path());
                table.urls.get(canon).cloned().ok_or_else(route)
            });
            let mut routes = HashedIds::with_capacity(urls.len());
            let slots = (found.into_iter().enumerate())
                .map(|(u, found)| match found {
                    Ok(sample) => Slot::Cached(sample),
                    Err(hash) => Slot::Page(routes.id(hash, records[urls[u].1].url.host_path(), u)),
                })
                .collect();
            let firsts = routes.into_keys().into_iter().map(|(_, u)| u).collect();
            let load = |u: usize| self.load_page(&records[urls[u].1].url);
            let keys = PageKeys { slots, firsts };
            self.page_samples(&keys, workers, chunk, sample_nanos, load, |u| urls[u].0)
        };
        let host_domains: Vec<Arc<str>> = scan_chunked(hosts.len(), workers, chunk, |h| {
            let host = hosts[h].0;
            table
                .hosts
                .get(host)
                .cloned()
                .unwrap_or_else(|| slum_websim::domain::registered_domain(host).into())
        });
        // Each distinct domain with the first host that resolved to it.
        let (host_domain, domains) = {
            let mut ids = Ids::new();
            let host_domain: Vec<u32> =
                host_domains.iter().enumerate().map(|(h, d)| ids.id(&**d, h)).collect();
            (host_domain, ids.into_keys())
        };
        let blacklisted = scan_chunked(domains.len(), workers, chunk, |d| {
            let domain = domains[d].0;
            table
                .domains
                .get(domain)
                .copied()
                .unwrap_or_else(|| self.blacklists.check(domain).is_blacklisted())
        });

        // 3. Each chain up to its first blacklisted domain, and a
        //    capture id for every (URL, body hash) pair the clean URL
        //    scans upload.
        let mut host_reached = vec![false; hosts.len()];
        let mut domain_reached = vec![false; domains.len()];
        let mut chain_lookups = 0u64;
        let captures = {
            let mut captures = Ids::new();
            let mut chain_start = 0;
            let planned = visits.iter_mut().enumerate().filter_map(|(i, v)| Some((i, v.as_mut()?)));
            for (i, visit) in planned {
                for &h in &chain[chain_start..visit.chain_end as usize] {
                    chain_lookups += 1;
                    host_reached[h as usize] = true;
                    let d = host_domain[h as usize];
                    domain_reached[d as usize] = true;
                    if blacklisted[d as usize] {
                        visit.blacklisted = Some(d);
                        break;
                    }
                }
                chain_start = visit.chain_end as usize;
                let (Some(u), Some(content)) = (visit.url, &records[i].content) else { continue };
                if !visit.flagged(&url_samples[u as usize]) {
                    visit.capture = Some(captures.id((u, content.content_hash()), i));
                }
            }
            captures.into_keys()
        };
        drop(chain);

        // 4. Each distinct capture's upload sample — the table's, or
        //    scanned on its body — keyed `canonical#content-hash` as
        //    `VirusTotal::scan_content` keys it.
        let capture_key = |c: usize| {
            let ((u, hash), _) = captures[c];
            format!("{}#{hash:x}", urls[u as usize].0)
        };
        let upload = |c: usize| {
            let record = &records[captures[c].1];
            (&record.url, record.content.as_ref().expect("planned captures exist"))
        };
        let capture_samples = {
            let found = scan_chunked(captures.len(), workers, chunk, |c| {
                let cached = || table.captures.get(capture_key(c).as_str()).cloned();
                (!table.captures.is_empty()).then(cached).flatten()
            });
            // A body made from bare text has no id: its capture is a page
            // of its own.
            let mut bodies = Ids::new();
            let slots = (found.into_iter().enumerate())
                .map(|(c, found)| match found {
                    Some(sample) => Slot::Cached(sample),
                    None => Slot::Page(bodies.id(upload(c).1.id().ok_or(c), c)),
                })
                .collect();
            let firsts = bodies.into_keys().into_iter().map(|(_, c)| c).collect();
            let scan = |c: usize| {
                let (url, content) = upload(c);
                self.upload_page(url, content)
            };
            let keys = PageKeys { slots, firsts };
            self.page_samples(&keys, workers, chunk, sample_nanos, scan, capture_key)
        };
        drop(guard);

        // 5. Every outcome from its ids.
        let outcomes = scan_chunked(records.len(), workers, chunk, |i| {
            let Some(visit) = &visits[i] else { return unscanned_outcome() };
            let url = visit.url.map(|u| &url_samples[u as usize]);
            let capture = visit.capture.map(|c| &capture_samples[c as usize]);
            let domain =
                visit.blacklisted.map(|d| Arc::clone(&host_domains[domains[d as usize].1]));
            assemble(visit, url, capture, domain)
        });

        let reached = |flags: &[bool]| flags.iter().filter(|&&r| r).count() as u64;
        let lookups = [
            visits.iter().flatten().filter(|v| v.url.is_some()).count() as u64,
            visits.iter().flatten().filter(|v| v.capture.is_some()).count() as u64,
            chain_lookups,
            chain_lookups,
        ];
        let entries = [
            urls.len() as u64,
            captures.len() as u64,
            reached(&host_reached),
            reached(&domain_reached),
        ];
        let tally = ScanTally {
            caches: std::array::from_fn(|g| {
                (CACHE_GROUPS[g], CacheStats::new(lookups[g], entries[g]))
            }),
            js_vm: self
                .caches
                .vm_stats(JsRunStats::sum(url_samples.iter().chain(&capture_samples))),
        };

        if keep {
            let mut table = self.caches.table_mut();
            for (total, n) in table.lookups.iter_mut().zip(lookups) {
                *total += n;
            }
            for ((canon, _), sample) in urls.iter().zip(url_samples) {
                table.urls.entry((*canon).into()).or_insert(sample);
            }
            for (c, sample) in capture_samples.into_iter().enumerate() {
                table.captures.entry(capture_key(c).into()).or_insert(sample);
            }
            let hosts = hosts.iter().zip(&host_domains).zip(host_reached);
            for (((host, _), domain), _) in hosts.filter(|(_, reached)| *reached) {
                table.hosts.entry((*host).into()).or_insert_with(|| Arc::clone(domain));
            }
            let domains = domains.iter().zip(blacklisted).zip(domain_reached);
            for (((domain, _), hit), _) in domains.filter(|(_, reached)| *reached) {
                table.domains.entry((*domain).into()).or_insert(hit);
            }
        }
        (outcomes, tally)
    }

    /// Pass 1: each scanned record's fault decisions, URL id and
    /// chain-host ids. The workers build each record's visit in its
    /// slot and hash the keys it looks up ([`ScanPipeline::visit_run`]);
    /// the serial walk assigns the ids in record order, so they are the
    /// ids a walk over the records' text assigns. The hash arrays are
    /// dropped on return.
    fn plan<'a>(
        &self,
        records: &'a [CrawlRecord],
        scanned: impl Fn(usize) -> bool + Sync,
        workers: usize,
        chunk: usize,
    ) -> Plan<'a> {
        let chunk = chunk.max(1);
        // Ids follow first sight, never hash values, so the map may use
        // a seeded hasher.
        let hasher = RandomState::new();
        let (mut visits, hashes) = fill_runs(records.len(), workers, chunk, |start, run| {
            self.visit_run(&records[start..start + run.len()], start, run, &scanned, &hasher)
        });
        let url_lookups = hashes.iter().map(|run| run.urls.len()).sum();
        let host_lookups = hashes.iter().map(|run| run.hosts.len()).sum();
        let mut urls = HashedIds::with_capacity(url_lookups);
        let mut hosts = HashedIds::with_capacity(host_lookups);
        let mut chain = Vec::with_capacity(host_lookups);
        for (r, (run, hashes)) in visits.chunks_mut(chunk).zip(hashes).enumerate() {
            let mut url_hashes = hashes.urls.into_iter();
            let mut host_hashes = hashes.hosts.into_iter();
            for (k, visit) in run.iter_mut().enumerate() {
                let Some(visit) = visit else { continue };
                let i = r * chunk + k;
                let record = &records[i];
                if visit.vt_up || visit.quttera_up {
                    let hash = url_hashes.next().expect("a hash per looked-up URL");
                    visit.url = Some(urls.id(hash, record.url.as_str(), i));
                }
                if visit.blacklist_up {
                    let hosts_and_hashes = record.chain_hosts.iter().zip(&mut host_hashes);
                    chain.extend(hosts_and_hashes.map(|(host, hash)| hosts.id(hash, host, i)));
                }
                visit.chain_end = u32::try_from(chain.len()).expect("fewer than 2^32 chain hosts");
            }
        }
        Plan { visits, urls: urls.into_keys(), hosts: hosts.into_keys(), chain }
    }

    /// Pass 1's parallel half for `records`, the run of the batch that
    /// starts at index `start`: each scanned record's visit in its slot
    /// of `visits`, with its fault decisions (its source looked up once
    /// per run of records from that source) but no ids yet, and the
    /// `hasher`'s hashes of the URL and chain hosts the visit looks up.
    fn visit_run(
        &self,
        records: &[CrawlRecord],
        start: usize,
        visits: &mut [Option<Option<Visit>>],
        scanned: &impl Fn(usize) -> bool,
        hasher: &RandomState,
    ) -> RunHashes {
        let mut hashes = RunHashes { urls: Vec::with_capacity(records.len()), hosts: Vec::new() };
        let mut source: Option<(&str, SourceDecisions<'_>)> = None;
        for (k, (record, slot)) in records.iter().zip(visits).enumerate() {
            if !scanned(start + k) {
                *slot = Some(None);
                continue;
            }
            let decisions = match &self.fault_plan {
                Some(plan) => {
                    let decisions = match source {
                        Some((name, decisions)) if record.exchange == name => decisions,
                        _ => {
                            let decisions = plan.source(&record.exchange);
                            source = Some((record.exchange.as_str(), decisions));
                            decisions
                        }
                    };
                    decisions.get(record.seq)
                }
                None => [ServiceDecision::Ok; 3],
            };
            let up = |service: ScanService| decisions[service.index()].available();
            let (vt_up, quttera_up) = (up(ScanService::VirusTotal), up(ScanService::Quttera));
            let blacklist_up = up(ScanService::Blacklist);
            if vt_up || quttera_up {
                hashes.urls.push(hasher.hash_one(record.url.as_str()));
            }
            if blacklist_up {
                let chain = record.chain_hosts.iter();
                hashes.hosts.extend(chain.map(|host| hasher.hash_one(&**host)));
            }
            *slot = Some(Some(Visit {
                vt_up,
                quttera_up,
                blacklist_up,
                faults: FaultLog::from_decisions(&decisions),
                url: None,
                chain_end: 0,
                capture: None,
                blacklisted: None,
            }));
        }
        hashes
    }

    /// The samples of `keys`, which share their pages, in key order.
    ///
    /// A pass over the pages scans each page's first key: `scan` returns
    /// the key's page as its clean sample. A pass over the keys then
    /// gives each other key its page's sample under its own `key` text.
    /// Every key either pass computes records one timing.
    fn page_samples<K: AsRef<str>>(
        &self,
        keys: &PageKeys,
        workers: usize,
        chunk: usize,
        timing: Option<&Histogram>,
        scan: impl Fn(usize) -> Arc<Sample> + Sync,
        key: impl Fn(usize) -> K + Sync,
    ) -> Vec<Arc<Sample>> {
        let PageKeys { slots, firsts } = keys;
        let pages = scan_timed(firsts.len(), workers, chunk, timing, |p, timings| {
            timings.time(|| {
                let k = firsts[p];
                let page = scan(k);
                (self.keyed(&page, key(k).as_ref()), page)
            })
        });
        scan_timed(slots.len(), workers, chunk, timing, |k, timings| match slots[k] {
            Slot::Cached(ref sample) => Arc::clone(sample),
            Slot::Page(p) => {
                let (first, page) = &pages[p as usize];
                if firsts[p as usize] == k {
                    Arc::clone(first)
                } else {
                    timings.time(|| self.keyed(page, key(k).as_ref()))
                }
            }
        })
    }

    /// One scanner fetch of `url`, shared by VT and Quttera: the loaded
    /// page's clean sample, which is every URL's on `url`'s route (see
    /// the module docs). Redirected loads mark the redirect feature the
    /// way the Quttera URL scan does.
    fn load_page(&self, url: &Url) -> Arc<Sample> {
        let mut browser = Browser::new(self.web)
            .with_context(RequestContext::scanner("pipeline"))
            .with_js_engine(self.js_engine);
        if let Some(store) = self.module_store() {
            browser = browser.with_module_store(store);
        }
        let load = browser.load(url);
        let mut features = self.load_features(&load);
        if load.was_redirected() {
            features.js_redirect = true;
        }
        self.page_sample(url, &features, JsRunStats::from_report(&load.js))
    }

    /// The upload of `content` captured at `url`: its clean sample,
    /// which is every capture's of the body (see the module docs).
    fn upload_page(&self, url: &Url, content: &Body) -> Arc<Sample> {
        let (features, report) = self.content_features(url, content);
        self.page_sample(url, &features, JsRunStats::from_report(&report))
    }

    /// The clean sample of a page showing `features`.
    fn page_sample(&self, url: &Url, features: &Features, js: JsRunStats) -> Arc<Sample> {
        let QutteraReport { findings, verdict, .. } = self.quttera.report(url, features);
        let page = PageScan { findings, verdict, classes: ClassSet::of(features), js };
        Arc::new(Sample { page: Arc::new(page), vt: self.vt.clean_report() })
    }

    /// The sample of `page` under `key` (a canonical URL, or
    /// `canonical#content-hash` as `VirusTotal::scan_content` derives
    /// it): the engines draw for `key` on the rules the page's classes
    /// trigger, and a key whose draws all miss gets the page's clean
    /// sample itself.
    fn keyed(&self, page: &Arc<Sample>, key: &str) -> Arc<Sample> {
        let vt = self.vt.draw(key, page.page.classes);
        if vt.detections.is_empty() {
            Arc::clone(page)
        } else {
            Arc::new(Sample { page: Arc::clone(&page.page), vt })
        }
    }

    /// [`Features::from_load`], with the static pass over the load's
    /// final page taken from the per-body table.
    pub fn load_features(&self, load: &LoadResult) -> Features {
        load.html.as_ref().map(|body| self.page_features(body)).unwrap_or_default().with_load(load)
    }

    /// [`Features::from_content_with_engine`] under this pipeline's JS
    /// engine and module cache, with the static pass taken from the
    /// per-body table and the inline scripts from the body's outline:
    /// only the sandbox run is per call.
    pub fn content_features(&self, url: &Url, content: &Body) -> (Features, SandboxReport) {
        self.page_features(content).with_script_run(
            url,
            &content.outline().inline_scripts,
            self.js_engine,
            self.module_store(),
        )
    }

    /// Static-pass features of `body`: computed once per body of the
    /// web, found by its id; a body without one (bare text) is
    /// computed on the spot.
    fn page_features(&self, body: &Body) -> Features {
        let Some(id) = body.id() else { return Features::from_body(body) };
        let slots = self.caches.page_features(self.web.bodies().len());
        slots[id as usize].get_or_init(|| Features::from_body(body)).clone()
    }

    /// The shared module store, when the engine can use one.
    fn module_store(&self) -> Option<Arc<dyn ModuleStore>> {
        match self.js_engine {
            JsEngine::Vm => Some(self.caches.js_modules.clone()),
            JsEngine::TreeWalk => None,
        }
    }
}

/// One record's outcome from its plan: the URL-scan sample, replaced by
/// the upload sample when the upload convicts, plus the chain's
/// blacklist hit. Only services that were up contribute a report.
fn assemble(
    visit: &Visit,
    url: Option<&Arc<Sample>>,
    capture: Option<&Arc<Sample>>,
    blacklisted_domain: Option<Arc<str>>,
) -> ScanOutcome {
    let upload = capture.filter(|s| visit.flagged(s));
    let mut outcome = ScanOutcome {
        malicious: false,
        blacklisted_domain,
        needed_content_upload: upload.is_some(),
        source: VerdictSource::classify(visit.vt_up, visit.quttera_up, visit.blacklist_up),
        faults: visit.faults,
        sample: upload.or(url).cloned(),
        vt_up: visit.vt_up,
        quttera_up: visit.quttera_up,
    };
    outcome.malicious = outcome.vt().is_malicious()
        || outcome.quttera_verdict() == QutteraVerdict::Malicious
        || outcome.blacklisted_domain.is_some();
    outcome
}

/// The outcome of a record no service saw (a filtered referral): clean,
/// with empty reports and full provenance.
fn unscanned_outcome() -> ScanOutcome {
    ScanOutcome {
        malicious: false,
        blacklisted_domain: None,
        needed_content_upload: false,
        source: VerdictSource::Full,
        faults: FaultLog::default(),
        sample: None,
        vt_up: false,
        quttera_up: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    use proptest::prelude::*;
    use slum_browser::Browser;
    use slum_crawler::CrawlRecord;
    use slum_websim::build::{BenignOptions, MaliciousOptions, WebBuilder};
    use slum_websim::{ContentCategory, JsAttack, MaliceKind, Tld};

    fn record_for(web: &SyntheticWeb, url: &Url) -> CrawlRecord {
        let load = Browser::new(web).load(url);
        CrawlRecord::from_load("test".into(), 0, 0, &load)
    }

    #[test]
    fn benign_record_scans_clean() {
        let mut b = WebBuilder::new(200);
        let site = b.benign_site(BenignOptions::default());
        let web = b.finish();
        let pipe = ScanPipeline::new(&web);
        let outcome = pipe.scan(&record_for(&web, &site.url));
        assert!(!outcome.malicious);
        assert!(!outcome.needed_content_upload);
    }

    #[test]
    fn blacklisted_record_flagged_via_consensus() {
        let mut b = WebBuilder::new(201);
        let spec = b.malicious_site(MaliciousOptions {
            kind: Some(MaliceKind::Blacklisted),
            cloaked: Some(false),
            ..Default::default()
        });
        let web = b.finish();
        let pipe = ScanPipeline::new(&web);
        let outcome = pipe.scan(&record_for(&web, &spec.url));
        assert!(outcome.malicious);
        assert_eq!(outcome.blacklisted_domain.as_deref(), Some(spec.url.registered_domain().as_str()));
    }

    #[test]
    fn js_attack_flagged_by_engines() {
        let mut b = WebBuilder::new(202);
        let spec = b.js_site(JsAttack::DynamicIframe, Tld::Com, ContentCategory::Business, false);
        let web = b.finish();
        let pipe = ScanPipeline::new(&web);
        let outcome = pipe.scan(&record_for(&web, &spec.url));
        assert!(outcome.malicious);
        assert!(
            outcome.vt().is_malicious() || outcome.quttera_verdict() == QutteraVerdict::Malicious
        );
    }

    #[test]
    fn cloaked_misc_needs_content_upload() {
        let mut b = WebBuilder::new(203);
        let spec = b.misc_site(Tld::Com, ContentCategory::Business, true);
        let web = b.finish();
        let pipe = ScanPipeline::new(&web);
        let outcome = pipe.scan(&record_for(&web, &spec.url));
        assert!(outcome.malicious);
        assert!(outcome.needed_content_upload, "cloak must force the upload path");
    }

    #[test]
    fn cloaked_page_without_capture_evades_entirely() {
        let mut b = WebBuilder::new(204);
        let spec = b.misc_site(Tld::Com, ContentCategory::Business, true);
        let web = b.finish();
        let pipe = ScanPipeline::new(&web);
        let mut record = record_for(&web, &spec.url);
        record.content = None; // crawler didn't keep the page
        let outcome = pipe.scan(&record);
        assert!(!outcome.malicious, "no content, no blacklist entry, cloaked: evades");
    }

    #[test]
    fn scan_all_preserves_order_and_caches() {
        let mut b = WebBuilder::new(205);
        let benign = b.benign_site(BenignOptions::default());
        let bad = b.js_site(JsAttack::HiddenIframe, Tld::Com, ContentCategory::Business, false);
        let web = b.finish();
        let pipe = ScanPipeline::new(&web);
        let records = vec![
            record_for(&web, &benign.url),
            record_for(&web, &bad.url),
            record_for(&web, &benign.url),
        ];
        let outcomes = pipe.scan_all(&records);
        assert_eq!(outcomes.len(), 3);
        assert!(!outcomes[0].malicious);
        assert!(outcomes[1].malicious);
        assert!(!outcomes[2].malicious);
        // Two distinct URLs => two cached feature entries.
        assert_eq!(pipe.cached_urls(), 2);
        pipe.clear_caches();
        assert_eq!(pipe.cached_urls(), 0);
    }

    #[test]
    fn an_outcome_points_at_its_sample_in_64_bytes() {
        assert!(std::mem::size_of::<ScanOutcome>() <= 64, "{}", std::mem::size_of::<ScanOutcome>());
    }

    #[test]
    fn urls_share_a_scanner_load_only_on_their_route() {
        // Two short links on one shortener host: one host, two routes,
        // each requested under two queries.
        let mut b = WebBuilder::new(211);
        let benign = b.benign_site(BenignOptions::default());
        let bad = b.js_site(JsAttack::HiddenIframe, Tld::Com, ContentCategory::Business, false);
        let web = b.finish();
        let service = &web.shorteners().services()[0];
        let links = [service.register("plain1", benign.url), service.register("inject1", bad.url)];
        let records: Vec<CrawlRecord> = (links.iter())
            .flat_map(|link| [1, 2].map(|n| Url::parse(&format!("{link}?ref={n}")).unwrap()))
            .map(|url| record_for(&web, &url))
            .collect();
        let pipe = ScanPipeline::new(&web);
        let batch = pipe.scan_all(&records);
        for (record, slot) in records.iter().zip(&batch) {
            pipe.clear_caches();
            assert_eq!(&pipe.scan(record), slot, "{:?}", record.url);
        }
        assert_eq!(batch[0].findings(), batch[1].findings());
        assert_ne!(batch[0].findings(), batch[2].findings(), "each route has its own page");
    }

    #[test]
    fn chunked_parallel_matches_serial_for_every_chunk_size() {
        let mut b = WebBuilder::new(206);
        let benign = b.benign_site(BenignOptions::default());
        let bad = b.js_site(JsAttack::HiddenIframe, Tld::Com, ContentCategory::Business, false);
        let cloaked = b.misc_site(Tld::Com, ContentCategory::Business, true);
        let web = b.finish();
        let pipe = ScanPipeline::new(&web);
        let records: Vec<CrawlRecord> = (0..25)
            .map(|i| {
                let url = match i % 3 {
                    0 => &benign.url,
                    1 => &bad.url,
                    _ => &cloaked.url,
                };
                let mut r = record_for(&web, url);
                r.seq = i;
                r
            })
            .collect();
        let baseline = pipe.scan_all(&records);
        for workers in [2usize, 3, 8] {
            for chunk in [1usize, 4, 64, 4096] {
                pipe.clear_caches();
                let outcomes = pipe.scan_all_parallel_chunked(&records, workers, chunk);
                assert_eq!(
                    outcomes, baseline,
                    "chunked scan diverged at {workers} workers, chunk {chunk}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The chunked loop returns the serial map for every length,
        /// worker count and chunk size, and hands over each value it
        /// computed whole: none is dropped before the result is, and
        /// every one is dropped exactly once with it. Run values come
        /// back in run order.
        #[test]
        fn chunked_loop_matches_the_serial_map_and_drops_each_value_once(
            len in 0usize..5001,
            workers in 1usize..9,
            chunk in 1usize..4097,
        ) {
            /// A non-`Copy` value that counts its drops per index.
            struct Counted<'a> {
                index: usize,
                text: String,
                drops: &'a [AtomicUsize],
            }
            impl Drop for Counted<'_> {
                fn drop(&mut self) {
                    self.drops[self.index].fetch_add(1, Ordering::Relaxed);
                }
            }
            let text = |i: usize| format!("value {}", i.wrapping_mul(7919));
            let drops: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
            let out = scan_chunked(len, workers, chunk, |i| Counted {
                index: i,
                text: text(i),
                drops: &drops,
            });
            let serial: Vec<(usize, String)> = (0..len).map(|i| (i, text(i))).collect();
            let got: Vec<(usize, String)> = out.iter().map(|c| (c.index, c.text.clone())).collect();
            prop_assert_eq!(got, serial);
            prop_assert!(drops.iter().all(|d| d.load(Ordering::Relaxed) == 0));
            drop(out);
            prop_assert!(drops.iter().all(|d| d.load(Ordering::Relaxed) == 1));
            // Each run's value comes back in run order, for the run's
            // own stretch of slots.
            let (_, runs) = fill_runs(len, workers, chunk, |start, run: &mut [Option<()>]| {
                run.fill(Some(()));
                (start, run.len())
            });
            let serial: Vec<(usize, usize)> =
                (0..len).step_by(chunk).map(|start| (start, chunk.min(len - start))).collect();
            prop_assert_eq!(runs, serial);
        }
    }

    #[test]
    fn effective_workers_fall_back_to_serial_below_threshold() {
        // The crawl_scale 0.001 corpus (1,145 records) must resolve to
        // the serial plan no matter how many workers were requested —
        // the regression where 8 workers ran slower than 1.
        for requested in [1usize, 2, 4, 8] {
            assert_eq!(effective_scan_workers(1_145, requested, DEFAULT_SERIAL_SCAN_THRESHOLD), 1);
        }
        // At or above the threshold the request is honored up to the
        // host's parallelism and the record count.
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(usize::MAX);
        assert_eq!(effective_scan_workers(10_000, 4, 4096), 4.min(cores));
        assert_eq!(effective_scan_workers(10_000, 0, 4096), 1, "zero request clamps to 1");
        assert_eq!(effective_scan_workers(5_000, 8, 0), 8.min(cores), "threshold 0 disables");
    }

    /// A profile that takes the given services down for the whole span
    /// (one outage window longer than any corpus) with no retries.
    fn downed(services: &[ScanService]) -> slum_detect::fault::FaultProfile {
        let mut profile = slum_detect::fault::FaultProfile::none();
        for s in services {
            profile.services[s.index()].outage_windows = 1;
            profile.services[s.index()].outage_secs = 1_000_000;
        }
        profile
    }

    fn plan_for(
        profile: &slum_detect::fault::FaultProfile,
        record: &CrawlRecord,
    ) -> FaultPlan {
        FaultPlan::compile(profile, 1, &[(scan_key(record), record.at)])
    }

    #[test]
    fn vt_outage_degrades_but_quttera_still_answers() {
        let mut b = WebBuilder::new(207);
        let spec = b.js_site(JsAttack::DynamicIframe, Tld::Com, ContentCategory::Business, false);
        let web = b.finish();
        let record = record_for(&web, &spec.url);
        let plan = plan_for(&downed(&[ScanService::VirusTotal]), &record);
        let pipe = ScanPipeline::new(&web).with_fault_plan(plan);
        let outcome = pipe.scan(&record);
        assert_eq!(outcome.source, VerdictSource::Degraded);
        assert!(outcome.vt().detections.is_empty(), "unreachable VT contributes nothing");
        assert!(outcome.faults.injected >= 1);
    }

    #[test]
    fn blacklist_only_verdict_when_both_scanners_down() {
        let mut b = WebBuilder::new(208);
        let spec = b.malicious_site(MaliciousOptions {
            kind: Some(MaliceKind::Blacklisted),
            cloaked: Some(false),
            ..Default::default()
        });
        let web = b.finish();
        let record = record_for(&web, &spec.url);
        let plan =
            plan_for(&downed(&[ScanService::VirusTotal, ScanService::Quttera]), &record);
        let pipe = ScanPipeline::new(&web).with_fault_plan(plan);
        let outcome = pipe.scan(&record);
        assert_eq!(outcome.source, VerdictSource::BlacklistOnly);
        assert!(outcome.malicious, "blacklist consensus alone must still convict");
        assert_eq!(outcome.blacklisted_domain.as_deref(), Some(spec.url.registered_domain().as_str()));
        assert_eq!(pipe.cached_urls(), 0, "no scanner up, no feature fetch");
    }

    #[test]
    fn unresolved_when_every_service_is_down() {
        let mut b = WebBuilder::new(209);
        let spec = b.malicious_site(MaliciousOptions {
            kind: Some(MaliceKind::Blacklisted),
            cloaked: Some(false),
            ..Default::default()
        });
        let web = b.finish();
        let record = record_for(&web, &spec.url);
        let plan = plan_for(&downed(&ScanService::ALL), &record);
        let pipe = ScanPipeline::new(&web).with_fault_plan(plan);
        let outcome = pipe.scan(&record);
        assert_eq!(outcome.source, VerdictSource::Unresolved);
        assert!(!outcome.malicious, "nothing answered, so no conviction");
        assert_eq!(outcome.blacklisted_domain, None);
        assert!(outcome.faults.injected >= 3);
    }

    #[test]
    fn inert_plan_matches_no_plan_bit_for_bit() {
        let mut b = WebBuilder::new(210);
        let specs = [
            b.benign_site(BenignOptions::default()),
            b.js_site(JsAttack::HiddenIframe, Tld::Com, ContentCategory::Business, false),
            b.misc_site(Tld::Com, ContentCategory::Business, true),
        ];
        let web = b.finish();
        let records: Vec<CrawlRecord> =
            specs.iter().map(|s| record_for(&web, &s.url)).collect();
        let requests: Vec<(String, u64)> =
            records.iter().map(|r| (scan_key(r), r.at)).collect();

        let bare = ScanPipeline::new(&web);
        let baseline = bare.scan_all(&records);
        let inert = FaultPlan::compile(&slum_detect::fault::FaultProfile::none(), 9, &requests);
        let faulted = ScanPipeline::new(&web).with_fault_plan(inert);
        assert_eq!(faulted.scan_all(&records), baseline);
        for outcome in &baseline {
            assert_eq!(outcome.source, VerdictSource::Full);
            assert_eq!(outcome.faults, FaultLog::default());
        }
    }

    #[test]
    fn parallel_matches_serial_even_with_more_workers_than_records() {
        let mut b = WebBuilder::new(206);
        let specs = [
            b.benign_site(BenignOptions::default()),
            b.js_site(JsAttack::HiddenIframe, Tld::Com, ContentCategory::Business, false),
            b.misc_site(Tld::Com, ContentCategory::Business, true),
        ];
        let web = b.finish();
        let pipe = ScanPipeline::new(&web);
        let records: Vec<CrawlRecord> =
            specs.iter().map(|s| record_for(&web, &s.url)).collect();
        let serial = pipe.scan_all(&records);
        for workers in [2, 3, 16] {
            pipe.clear_caches();
            assert_eq!(
                pipe.scan_all_parallel_chunked(&records, workers, DEFAULT_SCAN_CHUNK),
                serial,
                "workers={workers}"
            );
        }
    }
}
