//! Scanning orchestration: VirusTotal + Quttera + blacklists, with the
//! cloaking-defeating content-upload fallback.
//!
//! Methodology (§III-B + footnote 1): every regular URL is scanned
//! through the detection services. Some malicious sites cloak — they
//! serve benign content to scanner fetches — so for URLs whose URL scan
//! comes back clean, the pipeline uploads the page content the crawler's
//! *browser* captured, which defeats the cloak.
//!
//! The pipeline is data-parallel: [`ScanPipeline::scan`] takes `&self`,
//! all memoization lives in sharded concurrent caches
//! ([`slum_detect::ShardedCache`]), and
//! [`ScanPipeline::scan_all_parallel_chunked`] fans a batch out over
//! scoped worker threads while keeping the output order — and the
//! verdicts themselves — identical to the serial path. The study's scan
//! phase runs through the same chunked loop.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use slum_browser::{Browser, LoadResult};
use slum_crawler::CrawlRecord;
use slum_detect::blacklist::BlacklistDb;
use slum_detect::fault::{FaultPlan, ScanService, ServiceDecision};
use slum_detect::hash::fnv1a;
use slum_detect::quttera::{Quttera, QutteraFinding, QutteraReport, QutteraVerdict};
use slum_detect::virustotal::{VirusTotal, VtReport};
use slum_detect::{Features, Interner, JsModuleCache, ShardedCache};
use slum_js::sandbox::{JsEngine, SandboxReport};
use slum_js::ModuleStore;
use slum_websim::{BodyCache, RequestContext, SyntheticWeb, Url};

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
/// Only plan *compilation* materializes these strings (once per
/// record); the scan hot path looks decisions up allocation-free via
/// [`FaultPlan::decisions_for`] with the record's own fields.
pub fn scan_key(record: &CrawlRecord) -> String {
    format!("{}#{}", record.exchange, record.seq)
}

/// Default scan work-unit size: records per chunk pulled by a parallel
/// scan worker. Small enough to load-balance, large enough that the
/// atomic pull amortizes to noise.
pub const DEFAULT_SCAN_CHUNK: usize = 256;

/// Default corpus size below which the scan phase runs serially.
///
/// Thread spawn/join and cold shared caches cost more than they save on
/// small corpora (the crawl_scale 0.001 CI runs measured parallel scans
/// *slower* than serial), so below this many records the study ignores
/// the configured worker count and takes the serial path.
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

/// Maps `scan_one` over the indices `0..len` across `workers` scoped
/// threads and returns the outcomes in index order — the one chunked
/// scan loop behind [`ScanPipeline::scan_all_parallel_chunked`] and the
/// study's scan phase.
///
/// Workers pull `chunk`-sized runs of indices from a shared atomic
/// counter instead of taking one contiguous stretch each, so a worker
/// that drew cache-cold records keeps pulling small chunks while its
/// peers do the same and no thread idles behind one unlucky stretch.
/// Each run is tagged with its chunk number and the runs are
/// reassembled in order, so the result equals the serial
/// `(0..len).map(scan_one)` for every worker count and chunk size. One
/// worker (or at most one index) takes that serial path directly.
pub(crate) fn scan_chunked<F>(
    len: usize,
    workers: usize,
    chunk: usize,
    scan_one: F,
) -> Vec<ScanOutcome>
where
    F: Fn(usize) -> ScanOutcome + Sync,
{
    let workers = workers.max(1).min(len.max(1));
    if workers == 1 {
        return (0..len).map(scan_one).collect();
    }
    let chunk = chunk.max(1);
    let n_chunks = len.div_ceil(chunk);
    let next = AtomicUsize::new(0);
    let mut parts: Vec<(usize, Vec<ScanOutcome>)> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (next, scan_one) = (&next, &scan_one);
                scope.spawn(move |_| {
                    let mut parts = Vec::new();
                    loop {
                        let c = next.fetch_add(1, Ordering::Relaxed);
                        if c >= n_chunks {
                            break;
                        }
                        let lo = c * chunk;
                        parts.push((c, (lo..(lo + chunk).min(len)).map(scan_one).collect()));
                    }
                    parts
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("scan worker panicked")).collect()
    })
    .expect("scan scope panicked");
    parts.sort_unstable_by_key(|&(c, _)| c);
    let mut outcomes = Vec::with_capacity(len);
    for (_, part) in parts {
        outcomes.extend(part);
    }
    outcomes
}

/// Verdict and evidence for one scanned record.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanOutcome {
    /// Final verdict.
    pub malicious: bool,
    /// VirusTotal report (URL scan, or content scan when that was the
    /// deciding path).
    pub vt: VtReport,
    /// Quttera report.
    pub quttera: QutteraReport,
    /// Blacklist consensus hit on any chain domain (interned: every
    /// record hitting the same domain shares one allocation).
    pub blacklisted_domain: Option<Arc<str>>,
    /// Whether the verdict required the content-upload path (i.e. the
    /// URL scan was clean but the uploaded browser capture was not).
    pub needed_content_upload: bool,
    /// Which services contributed to the verdict.
    pub source: VerdictSource,
    /// What the fault layer cost this record (all-zero without faults).
    pub faults: FaultLog,
}

impl ScanOutcome {
    /// All threat labels from the VT report.
    pub fn labels(&self) -> Vec<&str> {
        self.vt.labels()
    }

    /// Quttera findings.
    pub fn findings(&self) -> &[QutteraFinding] {
        &self.quttera.findings
    }
}

/// The complete memoization state of a [`ScanPipeline`], split out so
/// several pipelines can share one warm set via `Arc` — the slum-serve
/// daemon hands the same `ScanCaches` to every tenant studying the same
/// synthetic web, so a URL scanned for one tenant answers from cache
/// for the next.
///
/// Sharing is sound only between pipelines scanning the *same* web
/// (same seed, scales, substrate and JS engine): every cached value is
/// a pure function of `(web, key)`, so a shared entry is bit-identical
/// to what a cold cache would recompute. Verdicts and artifacts cannot
/// change under sharing — only the `scan.cache.*.lookups` and
/// `scan.cache.*.hits` counters observe it.
pub struct ScanCaches {
    /// Static-pass features ([`Features::from_page`]) per distinct page
    /// body. Bodies repeat far more than URLs or captures do, so URL
    /// scans and content uploads each run only their per-sample dynamic
    /// pass on top of this. Keyed by the body text, held as the shared
    /// `Arc<str>` the web interned.
    page_features: BodyCache<Features>,
    /// URL-scan features: one scanner fetch per distinct canonical URL.
    url_features: ShardedCache<Features>,
    /// Content-upload features, keyed `canonical#content-hash`: the VT
    /// file scan and the Quttera content scan both need them, and the
    /// same capture recurs across records, so extraction runs once per
    /// distinct capture instead of twice per record.
    content_features: ShardedCache<Features>,
    /// Host → registered domain (interned), so chain hosts repeated
    /// across records don't re-derive the suffix computation or
    /// allocate a fresh domain string per hop.
    host_domains: ShardedCache<Arc<str>>,
    /// Registered domain → blacklist-consensus verdict. The consensus
    /// walks all six lists; memoizing it per domain collapses that to
    /// one walk per distinct domain across the whole corpus.
    domain_blacklisted: ShardedCache<bool>,
    /// Deduplicating pool behind `host_domains` values and
    /// `blacklisted_domain` outcomes.
    interner: Interner,
    /// Compiled-module cache shared across scan workers: campaign pages
    /// reusing the same packed payload compile it once. Only consulted
    /// under [`JsEngine::Vm`].
    js_modules: Arc<JsModuleCache>,
    /// Per-sample JS execution stats, keyed like the feature caches
    /// (canonical URL for URL scans, `canon#hash` for content uploads).
    /// Memoizing per sample makes the `js.vm.*` execution counters
    /// deterministic across worker counts: racing duplicate computes
    /// collapse to one entry per distinct sample.
    js_stats: ShardedCache<JsRunStats>,
}

impl ScanCaches {
    /// Fresh, cold caches.
    pub fn new() -> Self {
        ScanCaches {
            page_features: BodyCache::new(),
            url_features: ShardedCache::new(),
            content_features: ShardedCache::new(),
            host_domains: ShardedCache::new(),
            domain_blacklisted: ShardedCache::new(),
            interner: Interner::new(),
            js_modules: Arc::new(JsModuleCache::new()),
            js_stats: ShardedCache::new(),
        }
    }

    /// Drops all memoized state except the compiled-module cache (see
    /// [`ScanPipeline::clear_caches`] for the rationale).
    pub fn clear(&self) {
        self.page_features.clear();
        self.url_features.clear();
        self.content_features.clear();
        self.host_domains.clear();
        self.domain_blacklisted.clear();
        self.js_stats.clear();
    }

    /// Drops the compiled-JS module cache too (fully cold scans).
    pub fn clear_modules(&self) {
        self.js_modules.clear();
    }

    /// Number of distinct URLs whose scan features are currently cached.
    pub fn cached_urls(&self) -> usize {
        self.url_features.len()
    }

    /// Lookup/entry/hit statistics for each of the four memoization
    /// caches, keyed by the metric group name used under
    /// `scan.cache.*`. Hits are derived (`lookups - entries`), so the
    /// numbers are deterministic for every worker count.
    pub fn stats(&self) -> [(&'static str, slum_detect::CacheStats); 4] {
        [
            ("url_features", self.url_features.stats()),
            ("content_features", self.content_features.stats()),
            ("host_domains", self.host_domains.stats()),
            ("domain_blacklisted", self.domain_blacklisted.stats()),
        ]
    }

    /// Aggregated JS-engine statistics (see [`JsVmStats`]).
    pub fn js_vm_stats(&self) -> JsVmStats {
        let per_sample = self.js_stats.fold(JsRunStats::default(), |acc, _key, s| JsRunStats {
            instructions: acc.instructions + s.instructions,
            module_lookups: acc.module_lookups + s.module_lookups,
            budget_exhaustions: acc.budget_exhaustions + s.budget_exhaustions,
        });
        let compiles = self.js_modules.len() as u64;
        JsVmStats {
            compiles,
            compile_nanos: self.js_modules.total_compile_nanos(),
            module_lookups: per_sample.module_lookups,
            module_hits: per_sample.module_lookups.saturating_sub(compiles),
            instructions: per_sample.instructions,
            budget_exhaustions: per_sample.budget_exhaustions,
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
}

/// Aggregated `js.vm.*` statistics of one [`ScanPipeline`], read via
/// [`ScanPipeline::js_vm_stats`].
///
/// Every field except `compile_nanos` is derived from per-sample
/// memoized stats and the module cache's entry set, both of which are
/// schedule-independent — so the numbers are identical for every worker
/// count. `compile_nanos` is wall-clock and excluded from determinism
/// contracts.
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

    /// The pipeline's cache set (shared or private).
    pub fn caches(&self) -> &Arc<ScanCaches> {
        &self.caches
    }

    /// The JS engine this pipeline scans with.
    pub fn js_engine(&self) -> JsEngine {
        self.js_engine
    }

    /// Attaches a compiled fault schedule: every subsequent
    /// [`ScanPipeline::scan`] replays the plan's frozen per-request
    /// decisions (so verdicts stay bit-identical across worker counts).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// The attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Direct access to the blacklist database.
    pub fn blacklists(&self) -> &BlacklistDb {
        &self.blacklists
    }

    /// Drops all memoized state (URL features, domain derivations,
    /// consensus verdicts, per-sample JS stats). Verdicts are
    /// deterministic with or without warm caches; benchmarks use this
    /// to measure cold scans without paying pipeline construction
    /// again.
    ///
    /// The compiled-module cache survives: modules are keyed by content
    /// hash and behaviourally inert, and warm-module/cold-feature is
    /// exactly the configuration the JS-VM benchmark measures. Use
    /// [`ScanPipeline::clear_module_cache`] for a fully cold run.
    pub fn clear_caches(&self) {
        self.caches.clear();
    }

    /// Drops the compiled-JS module cache too (fully cold scans).
    pub fn clear_module_cache(&self) {
        self.caches.clear_modules();
    }

    /// Number of distinct URLs whose scan features are currently cached.
    pub fn cached_urls(&self) -> usize {
        self.caches.cached_urls()
    }

    /// Lookup/entry/hit statistics for each of the four memoization
    /// caches, keyed by the metric group name used under
    /// `scan.cache.*`. Hits are derived (`lookups - entries`), so the
    /// numbers are deterministic for every worker count.
    pub fn cache_stats(&self) -> [(&'static str, slum_detect::CacheStats); 4] {
        self.caches.stats()
    }

    /// Aggregated JS-engine statistics (see [`JsVmStats`]). All-zero
    /// under [`JsEngine::TreeWalk`] and before any scan, so the
    /// `js.vm.*` counters derived from this are always present.
    pub fn js_vm_stats(&self) -> JsVmStats {
        self.caches.js_vm_stats()
    }

    /// Scans one crawl record, degrading gracefully when the fault plan
    /// says a service is unavailable for it: an unavailable service is
    /// simply not consulted (its report stays empty), the verdict is
    /// built from whatever answered, and [`VerdictSource`] records the
    /// provenance. With no plan (or an all-Ok decision) the path is
    /// byte-for-byte the historical one.
    pub fn scan(&self, record: &CrawlRecord) -> ScanOutcome {
        let decisions = match &self.fault_plan {
            Some(plan) => plan.decisions_for(&record.exchange, record.seq),
            None => [ServiceDecision::Ok; 3],
        };
        let vt_up = decisions[ScanService::VirusTotal.index()].available();
        let quttera_up = decisions[ScanService::Quttera.index()].available();
        let blacklist_up = decisions[ScanService::Blacklist.index()].available();

        // 1. Blacklist consensus over every domain on the redirect chain
        //    (the entry URL may be benign while the destination is not).
        let blacklisted_domain =
            if blacklist_up { self.chain_blacklist_hit(record) } else { None };

        // Reports stay `None` for unreachable services until the end, so
        // the degraded path constructs nothing it won't keep.
        let mut vt: Option<VtReport> = None;
        let mut quttera: Option<QutteraReport> = None;
        let mut needed_content_upload = false;

        if vt_up || quttera_up {
            // 2. URL scans (scanner-side fetch; cloaking applies). The
            //    feature extraction is shared, so it runs once even when
            //    only one scanner is reachable; the canonical form is
            //    computed once and reused as both cache and sample key.
            let canon = record.url.canonical();
            let url_features = self.url_features(&record.url, &canon);
            if vt_up {
                vt = Some(self.vt.aggregate(&canon, &url_features));
            }
            if quttera_up {
                quttera = Some(self.quttera.report(&record.url, &url_features));
            }

            // 3. Content upload for URL-scan-clean pages with captured
            //    content (the cloaking defeat) — only to reachable
            //    services. Feature extraction over the capture is shared
            //    between both scanners and memoized per distinct
            //    (URL, content) pair; the sample key matches the one
            //    `VirusTotal::scan_content` derives, so engine decisions
            //    are unchanged.
            let url_scan_clean = !vt.as_ref().is_some_and(VtReport::is_malicious)
                && !quttera.as_ref().is_some_and(QutteraReport::is_malicious);
            if url_scan_clean {
                if let Some(content) = &record.content {
                    let content_key = format!("{canon}#{:x}", fnv1a(content.as_bytes()));
                    let features =
                        self.caches.content_features.get_or_insert_with(&content_key, || {
                            let (features, report) = self.content_features(&record.url, content);
                            self.caches.js_stats.get_or_insert_with(&content_key, || {
                                JsRunStats::from_report(&report)
                            });
                            features
                        });
                    let vt_content =
                        vt_up.then(|| self.vt.aggregate(&content_key, &features));
                    let quttera_content =
                        quttera_up.then(|| self.quttera.report(&record.url, &features));
                    if vt_content.as_ref().is_some_and(VtReport::is_malicious)
                        || quttera_content.as_ref().is_some_and(QutteraReport::is_malicious)
                    {
                        needed_content_upload = true;
                        if vt_up {
                            vt = vt_content;
                        }
                        if quttera_up {
                            quttera = quttera_content;
                        }
                    }
                }
            }
        }

        let vt = vt.unwrap_or_else(empty_vt_report);
        let quttera = quttera.unwrap_or_else(|| empty_quttera_report(&record.url));
        let malicious =
            vt.is_malicious() || quttera.is_malicious() || blacklisted_domain.is_some();
        ScanOutcome {
            malicious,
            vt,
            quttera,
            blacklisted_domain,
            needed_content_upload,
            source: VerdictSource::classify(vt_up, quttera_up, blacklist_up),
            faults: FaultLog::from_decisions(&decisions),
        }
    }

    /// Scans a batch serially, preserving order.
    pub fn scan_all(&self, records: &[CrawlRecord]) -> Vec<ScanOutcome> {
        records.iter().map(|r| self.scan(r)).collect()
    }

    /// Scans a batch across `workers` scoped threads, distributing the
    /// records as `chunk`-sized work units pulled from a shared atomic
    /// index — the same loop the study's scan phase runs. The output is
    /// index-aligned with `records` and identical to
    /// [`ScanPipeline::scan_all`] for every worker count and chunk size
    /// (verdicts are pure functions of the record; caches only change
    /// *when* work happens, never its result).
    pub fn scan_all_parallel_chunked(
        &self,
        records: &[CrawlRecord],
        workers: usize,
        chunk: usize,
    ) -> Vec<ScanOutcome> {
        scan_chunked(records.len(), workers, chunk, |i| self.scan(&records[i]))
    }

    /// Chain-wide blacklist check: first registered domain on the
    /// redirect chain that hits the list consensus. Domain derivation is
    /// memoized per host and the consensus per domain, so repeated
    /// chains cost two cache reads per hop.
    fn chain_blacklist_hit(&self, record: &CrawlRecord) -> Option<Arc<str>> {
        for host in &record.chain_hosts {
            let domain = self.caches.host_domains.get_or_insert_with(host, || {
                self.caches.interner.intern(&slum_websim::domain::registered_domain(host))
            });
            let hit = self
                .caches
                .domain_blacklisted
                .get_or_insert_with(&domain, || self.blacklists.check(&domain).is_blacklisted());
            if hit {
                return Some(domain);
            }
        }
        None
    }

    /// Cached feature extraction for the URL-scan path: one scanner
    /// fetch per distinct URL, shared between VT and Quttera (and
    /// between scan workers). `canon` is the URL's canonical form,
    /// computed once by the caller. Redirected loads mark the redirect
    /// feature the way the Quttera URL scan does.
    fn url_features(&self, url: &Url, canon: &str) -> Features {
        self.caches.url_features.get_or_insert_with(canon, || {
            let mut browser = Browser::new(self.web)
                .with_context(RequestContext::scanner("pipeline"))
                .with_js_engine(self.js_engine);
            if let Some(store) = self.module_store() {
                browser = browser.with_module_store(store);
            }
            let load = browser.load(url);
            self.caches.js_stats.get_or_insert_with(canon, || JsRunStats::from_report(&load.js));
            let mut features = self.load_features(&load);
            if load.was_redirected() {
                features.js_redirect = true;
            }
            features
        })
    }

    /// [`Features::from_load`], with the static pass over the load's
    /// final page taken from the per-body cache.
    pub fn load_features(&self, load: &LoadResult) -> Features {
        load.html.as_ref().map(|body| self.page_features(body)).unwrap_or_default().with_load(load)
    }

    /// [`Features::from_content_with_engine`] under this pipeline's JS
    /// engine and module cache, with the static pass and the outline
    /// (hence the inline scripts) taken from the per-body caches: only
    /// the sandbox run is per call.
    pub fn content_features(&self, url: &Url, content: &str) -> (Features, SandboxReport) {
        let page = self.web.parsed(content);
        self.page_features(&page.body).with_script_run(
            url,
            &page.outline.inline_scripts,
            self.js_engine,
            self.module_store(),
        )
    }

    /// Static-pass features of `body`, computed once per distinct body
    /// text.
    fn page_features(&self, body: &Arc<str>) -> Features {
        self.caches.page_features.get_or_insert_with(Arc::clone(body), Features::from_page).1
    }

    /// The shared module store, when the engine can use one.
    fn module_store(&self) -> Option<Arc<dyn ModuleStore>> {
        match self.js_engine {
            JsEngine::Vm => Some(self.caches.js_modules.clone()),
            JsEngine::TreeWalk => None,
        }
    }
}

/// The report an unreachable VirusTotal contributes: no detections, no
/// engines consulted (same shape the study splices for filtered
/// records).
fn empty_vt_report() -> VtReport {
    VtReport { detections: Vec::new(), total_engines: 0, threshold: 2 }
}

/// The report an unreachable Quttera contributes.
fn empty_quttera_report(url: &Url) -> QutteraReport {
    QutteraReport { url: url.clone(), findings: Vec::new(), verdict: QutteraVerdict::Clean }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slum_browser::Browser;
    use slum_crawler::CrawlRecord;
    use slum_websim::build::{BenignOptions, MaliciousOptions, WebBuilder};
    use slum_websim::{ContentCategory, JsAttack, MaliceKind, Tld};

    fn record_for(web: &SyntheticWeb, url: &Url) -> CrawlRecord {
        let load = Browser::new(web).load(url);
        CrawlRecord::from_load("test", 0, 0, &load)
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
        assert!(outcome.vt.is_malicious() || outcome.quttera.is_malicious());
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
        assert!(outcome.vt.detections.is_empty(), "unreachable VT contributes nothing");
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
