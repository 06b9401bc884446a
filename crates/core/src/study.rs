//! The end-to-end study runner: build the ecosystem, crawl, scan,
//! analyze — everything the paper's evaluation reports, in one object.
//!
//! Every run carries a [`slum_obs::Registry`]: the phases record named
//! spans, the crawler and scan workers buffer counters locally and
//! merge them at phase end, and [`Study::metrics`] exposes the result
//! as a [`MetricsSnapshot`]. All counters and gauges are deterministic
//! for a fixed seed — identical for every scan worker count — so tests
//! pin them; only span/histogram wall-clock varies per machine.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use slum_crawler::drive::CrawlStats;
use slum_crawler::{
    crawl_all_resilient, replay_restored_loads, CrawlCheckpointState, CrawlFaultProfile,
    CrawlHealth, CrawlPlan, CrawlRecord, RecordStore,
};
use slum_detect::fault::{FaultPlan, FaultProfile, ScanService};
use slum_detect::JsModuleCache;
use slum_detect::quttera::{QutteraFinding, QutteraVerdict};
use slum_exchange::TrafficSource;
use slum_js::sandbox::JsEngine;
use slum_obs::{MetricsSnapshot, Registry};
use slum_websim::SyntheticWeb;

use crate::case_studies;
use crate::checkpoint::{CheckpointError, CheckpointHeader, CheckpointStore, CkptStats};
use crate::diskfault::DiskFaultProfile;
use crate::facts::Facts;
use crate::filter::ReferralClass;
use crate::scanpipe::{
    effective_scan_workers, scan_key, FaultLog, JsVmStats, ScanCaches, ScanOutcome, ScanPipeline,
    ScanTally, VerdictSource, DEFAULT_SCAN_CHUNK, DEFAULT_SERIAL_SCAN_THRESHOLD,
};
use crate::substrate::{build_substrate, BuiltSubstrate, SourceMeta, Substrate};

/// Study configuration.
///
/// Construct via [`StudyConfig::builder`] to get validation (worker
/// counts, scale ranges); the fields stay public for struct-literal
/// compatibility, but the builder is the supported path.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// Master seed.
    pub seed: u64,
    /// Fraction of the paper's per-exchange crawl volumes to replay
    /// (1.0 = the full 1,003,087 visits; the default keeps CI-sized
    /// runs fast while preserving every shape).
    pub crawl_scale: f64,
    /// Fraction of the paper's per-exchange domain pools to install.
    pub domain_scale: f64,
    /// Worker threads for the scan phase. `1` scans serially (the
    /// historical behaviour); the default is the machine's available
    /// parallelism. Results are identical for every worker count.
    pub scan_workers: usize,
    /// Fault-injection profile for the detection services. The default
    /// is [`FaultProfile::none`] — inert, so fault injection is
    /// strictly opt-in and fault-free runs stay bit-identical to the
    /// pre-fault-layer pipeline.
    pub fault_profile: FaultProfile,
    /// Lifecycle-fault profile for the crawl phase (exchange outages,
    /// bans, CAPTCHA lockouts, permanent shutdowns, session drops). The
    /// default is [`CrawlFaultProfile::none`] — inert and RNG-neutral,
    /// so default runs stay bit-identical to the pre-resilience crawler.
    pub crawl_fault_profile: CrawlFaultProfile,
    /// Storage-fault profile for checkpoint writes (torn/short writes,
    /// bit-flips, simulated `ENOSPC`) in a [`CrawlSession`].
    /// The default is [`DiskFaultProfile::none`] — inert and RNG-free,
    /// and even armed profiles never change study results: corrupt
    /// generations are quarantined at resume and the lost rounds
    /// re-crawled deterministically.
    pub disk_fault_profile: DiskFaultProfile,
    /// Segment budget (surf slots per exchange) between crawl
    /// checkpoints in a [`CrawlSession`]. `None` writes a
    /// single checkpoint when the crawl completes. Segment boundaries
    /// never affect results — only checkpoint file cadence.
    pub checkpoint_every: Option<u64>,
    /// Scan work-unit size: records per chunk pulled by each parallel
    /// scan worker. Chunk size never affects results — only scheduling
    /// granularity.
    pub scan_chunk: usize,
    /// Corpus size (regular records) below which the scan phase runs
    /// serially regardless of `scan_workers` — thread spawn overhead
    /// and cold shared caches make small parallel scans *slower* than
    /// serial. Set to 0 to always honor `scan_workers`.
    pub serial_scan_threshold: usize,
    /// JavaScript engine for the scan phase's sandboxed execution: the
    /// bytecode VM (default, with the shared compiled-module cache) or
    /// the tree-walking interpreter (the differential oracle). Scan
    /// output is bit-identical either way; only throughput and the
    /// `js.vm.*` counters differ.
    pub js_engine: JsEngine,
    /// Which traffic ecosystem to crawl. The default
    /// ([`Substrate::Exchange`]) is bit-identical to the pre-substrate
    /// pipeline; `AdNet` and `Torrent` swap in the ad-network and
    /// torrent ecosystems behind the same crawl/scan/artifact path.
    pub substrate: Substrate,
}

/// Master seed of the default configuration.
pub const DEFAULT_SEED: u64 = 2016;

/// Crawl scale of the default configuration.
pub const DEFAULT_CRAWL_SCALE: f64 = 0.001;

/// Domain scale of the default configuration.
pub const DEFAULT_DOMAIN_SCALE: f64 = 0.05;

/// Traffic substrate of the default configuration.
pub const DEFAULT_SUBSTRATE: Substrate = Substrate::Exchange;

/// Scan-phase JavaScript engine of the default configuration.
pub const DEFAULT_JS_ENGINE: JsEngine = JsEngine::Vm;

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            seed: DEFAULT_SEED,
            crawl_scale: DEFAULT_CRAWL_SCALE,
            domain_scale: DEFAULT_DOMAIN_SCALE,
            scan_workers: default_scan_workers(),
            fault_profile: FaultProfile::none(),
            crawl_fault_profile: CrawlFaultProfile::none(),
            disk_fault_profile: DiskFaultProfile::none(),
            checkpoint_every: None,
            scan_chunk: DEFAULT_SCAN_CHUNK,
            serial_scan_threshold: DEFAULT_SERIAL_SCAN_THRESHOLD,
            js_engine: DEFAULT_JS_ENGINE,
            substrate: DEFAULT_SUBSTRATE,
        }
    }
}

impl StudyConfig {
    /// Starts a validated configuration builder seeded with the
    /// defaults.
    pub fn builder() -> StudyConfigBuilder {
        StudyConfigBuilder { config: StudyConfig::default() }
    }

    /// The identity of the synthetic web this config builds plus the
    /// JS engine scanning it — everything a cached scan result depends
    /// on. Two configs with equal fingerprints may share one
    /// [`ScanCaches`] (the slum-serve daemon's sharing key): every
    /// cached value is a pure function of `(web, key)`, so equal webs
    /// mean bit-identical cache entries. Worker counts, chunk sizes,
    /// fault profiles and checkpoint cadence are deliberately excluded —
    /// they never change what a cache entry contains.
    pub fn cache_fingerprint(&self) -> String {
        format!(
            "seed={}&crawl_ppm={}&domain_ppm={}&substrate={}&js={}",
            self.seed,
            crate::checkpoint::scale_ppm(self.crawl_scale),
            crate::checkpoint::scale_ppm(self.domain_scale),
            self.substrate.name(),
            self.js_engine.name(),
        )
    }
}

/// A validating builder for [`StudyConfig`].
///
/// ```
/// use malware_slums::study::StudyConfig;
///
/// let config = StudyConfig::builder()
///     .seed(7)
///     .crawl_scale(0.0005)
///     .scan_workers(2)
///     .build()
///     .expect("valid config");
/// assert_eq!(config.seed, 7);
/// assert!(StudyConfig::builder().scan_workers(0).build().is_err());
/// ```
#[derive(Debug, Clone)]
pub struct StudyConfigBuilder {
    config: StudyConfig,
}

impl StudyConfigBuilder {
    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the crawl-volume scale.
    pub fn crawl_scale(mut self, scale: f64) -> Self {
        self.config.crawl_scale = scale;
        self
    }

    /// Sets the domain-pool scale.
    pub fn domain_scale(mut self, scale: f64) -> Self {
        self.config.domain_scale = scale;
        self
    }

    /// Sets the scan-phase worker count.
    pub fn scan_workers(mut self, workers: usize) -> Self {
        self.config.scan_workers = workers;
        self
    }

    /// Sets the fault-injection profile (validated at [`Self::build`]).
    pub fn fault_profile(mut self, profile: FaultProfile) -> Self {
        self.config.fault_profile = profile;
        self
    }

    /// Sets the crawl-phase lifecycle-fault profile (validated at
    /// [`Self::build`]).
    pub fn crawl_fault_profile(mut self, profile: CrawlFaultProfile) -> Self {
        self.config.crawl_fault_profile = profile;
        self
    }

    /// Sets the checkpoint storage-fault profile (validated at
    /// [`Self::build`]).
    pub fn disk_fault_profile(mut self, profile: DiskFaultProfile) -> Self {
        self.config.disk_fault_profile = profile;
        self
    }

    /// Sets the crawl checkpoint segment budget, in surf slots per
    /// exchange between checkpoint writes.
    pub fn checkpoint_every(mut self, slots: u64) -> Self {
        self.config.checkpoint_every = Some(slots);
        self
    }

    /// Sets the scan work-unit size (validated at [`Self::build`]; must
    /// be at least 1).
    pub fn scan_chunk(mut self, records: usize) -> Self {
        self.config.scan_chunk = records;
        self
    }

    /// Sets the corpus size below which the scan phase runs serially
    /// (0 always honors `scan_workers`).
    pub fn serial_scan_threshold(mut self, records: usize) -> Self {
        self.config.serial_scan_threshold = records;
        self
    }

    /// Selects the scan-phase JavaScript engine.
    pub fn js_engine(mut self, engine: JsEngine) -> Self {
        self.config.js_engine = engine;
        self
    }

    /// Selects the scan-phase JavaScript engine from its CLI name
    /// (validated immediately: `vm`/`bytecode` or
    /// `interp`/`interpreter`/`tree-walk`/`treewalk`).
    pub fn js_engine_name(mut self, name: &str) -> Result<Self, ConfigError> {
        match JsEngine::parse(name) {
            Some(engine) => {
                self.config.js_engine = engine;
                Ok(self)
            }
            None => Err(ConfigError::UnknownJsEngine { name: name.to_string() }),
        }
    }

    /// Selects the traffic substrate.
    pub fn substrate(mut self, substrate: Substrate) -> Self {
        self.config.substrate = substrate;
        self
    }

    /// Selects the traffic substrate from its CLI name (validated
    /// immediately: `exchange`, `adnet`, or `torrent`).
    pub fn substrate_name(mut self, name: &str) -> Result<Self, ConfigError> {
        match Substrate::parse(name) {
            Some(substrate) => {
                self.config.substrate = substrate;
                Ok(self)
            }
            None => Err(ConfigError::UnknownSubstrate { name: name.to_string() }),
        }
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Rejects a zero worker count and non-positive or non-finite
    /// scales — inputs the pipeline previously accepted silently (a
    /// `scan_workers: 0` used to be clamped to 1 deep inside the scan
    /// phase, hiding the caller's bug).
    pub fn build(self) -> Result<StudyConfig, ConfigError> {
        if self.config.scan_workers == 0 {
            return Err(ConfigError::ZeroScanWorkers);
        }
        for (field, value) in [
            ("crawl_scale", self.config.crawl_scale),
            ("domain_scale", self.config.domain_scale),
        ] {
            if !value.is_finite() || value <= 0.0 {
                return Err(ConfigError::NonPositiveScale { field, value });
            }
        }
        if let Err(reason) = self.config.fault_profile.validate() {
            return Err(ConfigError::InvalidFaultProfile { reason });
        }
        if let Err(reason) = self.config.crawl_fault_profile.validate() {
            return Err(ConfigError::InvalidCrawlFaultProfile { reason });
        }
        if let Err(reason) = self.config.disk_fault_profile.validate() {
            return Err(ConfigError::InvalidDiskFaultProfile { reason });
        }
        if self.config.checkpoint_every == Some(0) {
            return Err(ConfigError::ZeroCheckpointInterval);
        }
        if self.config.scan_chunk == 0 {
            return Err(ConfigError::ZeroScanChunk);
        }
        Ok(self.config)
    }
}

/// Why a [`StudyConfigBuilder`] rejected its inputs.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `scan_workers` was zero — the scan phase needs at least one
    /// worker.
    ZeroScanWorkers,
    /// A scale was zero, negative, or not finite.
    NonPositiveScale {
        /// Which scale field was invalid.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The fault profile's parameters were inconsistent (see
    /// [`FaultProfile::validate`]).
    InvalidFaultProfile {
        /// Human-readable description of the first invalid field.
        reason: String,
    },
    /// The crawl-fault profile's parameters were inconsistent (see
    /// [`CrawlFaultProfile::validate`]).
    InvalidCrawlFaultProfile {
        /// Human-readable description of the first invalid field.
        reason: String,
    },
    /// The checkpoint storage-fault profile's parameters were
    /// inconsistent (see [`DiskFaultProfile::validate`]).
    InvalidDiskFaultProfile {
        /// Human-readable description of the first invalid field.
        reason: String,
    },
    /// `checkpoint_every` was zero — a segment must advance the crawl.
    ZeroCheckpointInterval,
    /// `scan_chunk` was zero — a work unit must hold at least one
    /// record.
    ZeroScanChunk,
    /// The JS engine name did not parse (see
    /// [`slum_js::sandbox::JsEngine::parse`]).
    UnknownJsEngine {
        /// The unrecognized name.
        name: String,
    },
    /// The substrate name did not parse (see [`Substrate::parse`]).
    UnknownSubstrate {
        /// The unrecognized name.
        name: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroScanWorkers => {
                write!(f, "scan_workers must be at least 1")
            }
            ConfigError::NonPositiveScale { field, value } => {
                write!(f, "{field} must be a positive finite number, got {value}")
            }
            ConfigError::InvalidFaultProfile { reason } => {
                write!(f, "invalid fault profile: {reason}")
            }
            ConfigError::InvalidCrawlFaultProfile { reason } => {
                write!(f, "invalid crawl-fault profile: {reason}")
            }
            ConfigError::InvalidDiskFaultProfile { reason } => {
                write!(f, "invalid disk-fault profile: {reason}")
            }
            ConfigError::ZeroCheckpointInterval => {
                write!(f, "checkpoint_every must be at least 1 surf slot")
            }
            ConfigError::ZeroScanChunk => {
                write!(f, "scan_chunk must be at least 1 record")
            }
            ConfigError::UnknownJsEngine { name } => {
                write!(f, "unknown JS engine {name:?} (expected vm or interp)")
            }
            ConfigError::UnknownSubstrate { name } => {
                write!(f, "unknown substrate {name:?} (expected exchange, adnet, or torrent)")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// The machine's available parallelism (used as the default scan worker
/// count), falling back to 4 where it cannot be queried.
pub fn default_scan_workers() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(4)
}

/// A completed study: the corpus, verdicts, and every derived artifact.
pub struct Study {
    /// The synthetic web (with its oracle and shortener registry).
    pub web: SyntheticWeb,
    /// The crawl corpus.
    pub store: RecordStore,
    /// Scan outcome per record (aligned with `store.records()`).
    pub outcomes: Vec<ScanOutcome>,
    /// Referral class per record (aligned).
    pub referrals: Vec<ReferralClass>,
    /// Per-exchange crawl-health logs (what the lifecycle faults cost
    /// each exchange's crawl; all-clean under an inert profile).
    pub health: Vec<CrawlHealth>,
    /// Per-source metadata for the substrate that ran, in crawl input
    /// order — what the artifact layer iterates instead of a
    /// substrate-specific profile table.
    pub sources: Vec<SourceMeta>,
    /// Each record's facts, built once after the scan phase; the
    /// corpus-wide artifacts group by it.
    pub(crate) facts: Facts,
    config: StudyConfig,
    /// The study's metrics; the export records its span here too.
    pub(crate) obs: Registry,
}

/// Crawl-resume bookkeeping for the `crawl.resume.*` counters.
#[derive(Debug, Clone, Copy, Default)]
struct ResumeStats {
    /// Segment rounds restored from the checkpoint.
    segments_restored: u64,
    /// Records restored from the checkpoint.
    records_restored: u64,
    /// Restored records whose browser loads were replayed onto the
    /// rebuilt web to reconstruct crawl-phase side effects (shortener
    /// hit statistics).
    loads_replayed: u64,
}

impl Study {
    /// Runs the full pipeline.
    pub fn run(config: &StudyConfig) -> Study {
        let obs = Registry::new();
        record_config(&obs, config);

        // 1. Build the configured substrate: its web population plus
        //    the traffic sources, boxed behind the `TrafficSource`
        //    contract. Each source gets its *own* planned crawl span so
        //    time-boxed campaigns (manual-surf bursts, malvertising
        //    flights) land inside the crawl window rather than after it
        //    ends.
        let mut built = {
            let _span = obs.span("phase.build");
            build_substrate(config)
        };

        // 2. Crawl every source in parallel; each crawl returns its
        //    per-worker counter buffer, merged at phase end. Every path
        //    funnels through the same segment driver, so the records are
        //    bit-identical to checkpointed runs whatever their cadence
        //    and resume points.
        let crawled = {
            let _span = obs.span("phase.crawl");
            let steps = &built.steps;
            crawl_all_resilient(
                &built.web,
                &mut built.sources,
                config.seed,
                &config.crawl_fault_profile,
                |x| steps[x.name()],
            )
        };
        scan_crawl(config, obs, built, crawled, &ResumeStats::default(), None)
    }

    /// The configuration the study ran with.
    pub fn config(&self) -> &StudyConfig {
        &self.config
    }

    /// An immutable snapshot of every metric the pipeline recorded:
    /// crawl counters, filter partition counts, scan/cache/label
    /// tallies (all deterministic per seed) plus phase spans and
    /// latency histograms (wall-clock).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.obs.snapshot()
    }

    /// Regular records paired with their outcomes, borrowed from the
    /// study (no record/outcome cloning).
    pub fn regular_pairs(&self) -> Vec<(&CrawlRecord, &ScanOutcome)> {
        self.store
            .records()
            .iter()
            .zip(&self.outcomes)
            .zip(&self.referrals)
            .filter(|(_, class)| **class == ReferralClass::Regular)
            .map(|(pair, _)| pair)
            .collect()
    }

    /// The corpus as JSON lines: one line per record with the HAR of its
    /// page load, which records do not keep
    /// ([`slum_crawler::corpus_jsonl`]). Each visit is surfed again
    /// with logging on a substrate built for the purpose, as a
    /// checkpoint restore builds one, so printing costs one substrate
    /// build plus one page load per record and never moves the study's
    /// own web (the shortener statistics Table IV reads).
    ///
    /// # Errors
    ///
    /// Propagates serde failures.
    pub fn corpus_jsonl(&self) -> Result<String, serde_json::Error> {
        let built = build_substrate(&self.config);
        slum_crawler::corpus_jsonl(&built.web, &built.sources, &self.store)
    }

    /// §V-A case studies: iframe-injection exhibits.
    pub fn iframe_case_studies(&self) -> Vec<case_studies::IframeExhibit> {
        case_studies::iframe_injections(&self.regular_pairs())
    }

    /// §V-B case studies: deceptive downloads.
    pub fn download_case_studies(&self) -> Vec<case_studies::DownloadExhibit> {
        case_studies::deceptive_downloads(&self.regular_pairs())
    }

    /// §V-D case studies: Flash click-jacks.
    pub fn flash_case_studies(&self) -> Vec<case_studies::FlashExhibit> {
        case_studies::flash_clickjacks(&self.web, &self.regular_pairs())
    }

    /// §V-E case studies: false positives.
    pub fn false_positive_case_studies(&self) -> Vec<case_studies::FalsePositiveExhibit> {
        case_studies::false_positives(&self.web, &self.regular_pairs())
    }
}

/// How [`CrawlSession::open`] treats the checkpoints already in its
/// directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Restore {
    /// Ignore them and crawl from scratch (`repro --checkpoint`).
    Never,
    /// Restore the newest intact generation, or fail: with
    /// [`CheckpointError::NoCheckpoint`] when the directory holds none,
    /// so a resume never quietly crawls from scratch (`repro --resume`).
    Required,
    /// Restore the newest intact generation when one survives, and
    /// start fresh when the directory is empty or every generation was
    /// corrupt and got quarantined — a wiped checkpoint directory costs
    /// progress, never the study (the slum-serve scheduler's attach). A
    /// checkpoint of another format version fails the open, as under
    /// [`Restore::Required`]: starting over would silently discard it.
    IfPresent,
}

/// A checkpointed crawl kept resident between scheduling slices: it
/// owns the built substrate (web and traffic sources), the crawl state
/// and the [`CheckpointStore`] it saves to. Every checkpointed path runs
/// through its three steps:
///
/// 1. [`CrawlSession::open`] builds the substrate, then restores the
///    newest intact generation — replaying its visits' browser loads
///    once, which rebuilds their records — or starts fresh, as
///    [`Restore`] says;
/// 2. [`CrawlSession::advance`] crawls further rounds, saving a
///    checkpoint after every round;
/// 3. [`CrawlSession::finish`] runs the scan phase over the completed
///    crawl.
///
/// Checkpoints stay the durability mechanism, but only `open` reads
/// them: a caller that keeps the session between slices (the slum-serve
/// scheduler) pays the restore once per attach, not once per slice. The
/// finished study is bit-identical to [`Study::run`] however its rounds
/// are split across `advance` calls and however often the session is
/// dropped and reopened.
pub struct CrawlSession {
    config: StudyConfig,
    obs: Registry,
    built: BuiltSubstrate,
    ckpt: CheckpointStore,
    header: CheckpointHeader,
    /// `None` until the first round of a fresh crawl.
    state: Option<CrawlCheckpointState>,
    resume: ResumeStats,
    /// Restore and crawl wall-clock so far: the `phase.crawl` span.
    crawl_time: Duration,
    /// The crawl's compiled-module cache, kept across `advance` calls.
    modules: Arc<JsModuleCache>,
}

impl CrawlSession {
    /// Builds the substrate and positions the crawl per `restore`.
    ///
    /// # Errors
    ///
    /// Propagates checkpoint I/O failures, a missing or wholly corrupt
    /// checkpoint chain under [`Restore::Required`], a checkpoint of
    /// another format version ([`CheckpointError::VersionSkew`]) under
    /// either restoring mode, and a restored checkpoint written under a
    /// different configuration.
    pub fn open(
        config: &StudyConfig,
        dir: &Path,
        restore: Restore,
    ) -> Result<CrawlSession, CheckpointError> {
        let obs = Registry::new();
        record_config(&obs, config);
        let built = {
            let _span = obs.span("phase.build");
            build_substrate(config)
        };
        let started = Instant::now();
        let ckpt = CheckpointStore::open(dir)?
            .with_disk_faults(config.disk_fault_profile.clone(), config.seed);
        let restored = match restore {
            Restore::Never => None,
            Restore::Required => Some(ckpt.load_latest()?),
            Restore::IfPresent => match ckpt.load_latest() {
                Ok(loaded) => Some(loaded),
                Err(CheckpointError::NoCheckpoint { .. } | CheckpointError::Quarantined { .. }) => {
                    None
                }
                Err(e) => return Err(e),
            },
        };
        let (state, resume) = match restored {
            Some((header, visits)) => {
                header.verify(config)?;
                // The web above was rebuilt from seed; replay the restored
                // visits' browser loads, which rebuilds their records and
                // lets the crawl-phase web mutations (shortener hits)
                // survive the restart.
                let state = replay_restored_loads(&built.web, &built.sources, &visits);
                let resume = ResumeStats {
                    segments_restored: state.round,
                    records_restored: visits.records_total(),
                    loads_replayed: state.records_total(),
                };
                (Some(state), resume)
            }
            None => (None, ResumeStats::default()),
        };
        Ok(CrawlSession {
            config: config.clone(),
            obs,
            built,
            ckpt,
            header: CheckpointHeader::for_config(config),
            state,
            resume,
            crawl_time: started.elapsed(),
            modules: Arc::default(),
        })
    }

    /// Crawls at most `rounds` further checkpoint rounds (`u64::MAX`:
    /// to the end), saving a checkpoint after each. An injected `ENOSPC`
    /// is a skipped checkpoint — a cadence hole the next round's save
    /// closes — never a crawl abort. Every save attempt's wall time goes
    /// to the `ckpt.save_nanos` histogram.
    ///
    /// # Errors
    ///
    /// Propagates checkpoint I/O and serialization failures. The session
    /// is consumed either way: after a failure its crawl state is gone,
    /// so the next [`CrawlSession::open`] restores from disk.
    pub fn advance(mut self, rounds: u64) -> Result<CrawlSession, CheckpointError> {
        let started = Instant::now();
        let mut plan = CrawlPlan::new(self.config.seed)
            .fault_profile(self.config.crawl_fault_profile.clone())
            .segment_budget(self.config.checkpoint_every.unwrap_or(u64::MAX))
            .stop_after_round(rounds)
            .module_cache(Arc::clone(&self.modules));
        if let Some(state) = self.state.take() {
            plan = plan.resume(state);
        }
        let (ckpt, header, steps) = (&self.ckpt, &self.header, &self.built.steps);
        let save_nanos = self.obs.histogram("ckpt.save_nanos");
        let outcome = plan.run_segmented(
            &self.built.web,
            &mut self.built.sources,
            |x| steps[x.name()],
            &mut |_round, state| {
                let t0 = Instant::now();
                let saved = ckpt.save(header, state);
                save_nanos.record(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
                match saved {
                    Ok(_) | Err(CheckpointError::DiskFull { .. }) => Ok(()),
                    Err(e) => Err(e),
                }
            },
        )?;
        self.state = Some(outcome.state);
        self.crawl_time += started.elapsed();
        Ok(self)
    }

    /// True once every source has crawled its whole slot budget.
    pub fn crawl_done(&self) -> bool {
        self.state.as_ref().is_some_and(CrawlCheckpointState::all_done)
    }

    /// Completes the study: the scan phase over the finished crawl,
    /// through `shared_caches` when given (see [`ScanCaches`] for when
    /// sharing is sound).
    ///
    /// # Panics
    ///
    /// Panics when the crawl is not done ([`CrawlSession::crawl_done`]).
    pub fn finish(self, shared_caches: Option<Arc<ScanCaches>>) -> Study {
        assert!(self.crawl_done(), "finish needs a completed crawl");
        let CrawlSession { config, obs, built, ckpt, state, resume, crawl_time, .. } = self;
        obs.record_span("phase.crawl", crawl_time);
        record_ckpt_tallies(&obs, ckpt.stats());
        let crawled = state.expect("a completed crawl has a state").finish();
        scan_crawl(&config, obs, built, crawled, &resume, shared_caches)
    }
}

/// Per-exchange crawl steps at a given scale (minimum 40 so small-scale
/// runs still populate every row).
pub fn steps_for(profile: &slum_exchange::ExchangeProfile, scale: f64) -> u64 {
    ((profile.urls_crawled as f64 * scale).round() as u64).max(40)
}

/// Records configuration echoes as gauges (scales in parts-per-million
/// so they stay integral and deterministic).
fn record_config(obs: &Registry, config: &StudyConfig) {
    obs.gauge("config.seed").set(config.seed as i64);
    obs.gauge("config.scan_workers").set(config.scan_workers as i64);
    obs.gauge("config.crawl_scale_ppm").set((config.crawl_scale * 1e6).round() as i64);
    obs.gauge("config.domain_scale_ppm").set((config.domain_scale * 1e6).round() as i64);
    obs.gauge("config.checkpoint_every").set(config.checkpoint_every.unwrap_or(0) as i64);
    obs.gauge("config.scan_chunk").set(config.scan_chunk as i64);
    obs.gauge("config.serial_scan_threshold").set(config.serial_scan_threshold as i64);
    obs.gauge("config.js_engine_vm").set(i64::from(config.js_engine == JsEngine::Vm));
    obs.gauge("config.substrate")
        .set(Substrate::ALL.iter().position(|s| *s == config.substrate).unwrap_or(0) as i64);
}

/// Records the `crawl.substrate.*` counters. Always registered for
/// every substrate name — inactive substrates report explicit zeros
/// (the convention the fault counters follow) so CI can
/// grep the snapshot for the full key set regardless of which
/// substrate ran.
fn record_substrate_tallies(obs: &Registry, substrate: Substrate, n_sources: usize, pages: u64) {
    for name in Substrate::NAMES {
        obs.counter(&format!("crawl.substrate.{name}.pages")).add(0);
        obs.counter(&format!("crawl.substrate.{name}.sources")).add(0);
    }
    let name = substrate.name();
    obs.counter(&format!("crawl.substrate.{name}.pages")).add(pages);
    obs.counter(&format!("crawl.substrate.{name}.sources")).add(n_sources as u64);
}

/// Books every source's crawl statistics as the `crawl.*` counters and
/// its `crawl.steps.<source>`. Each name is registered for each source,
/// zeros included.
fn record_crawl_tallies(obs: &Registry, stats: &[(String, CrawlStats)]) {
    for (source, s) in stats {
        obs.counter("crawl.pages").add(s.pages);
        obs.counter("crawl.surf_steps").add(s.surf_steps);
        obs.counter("crawl.redirects_followed").add(s.redirects);
        obs.counter("crawl.burst_steps").add(s.burst_steps);
        obs.counter("crawl.shortener_visits").add(s.shortener_visits);
        obs.counter("crawl.captcha_failures").add(s.captcha_failures);
        obs.counter("crawl.load_failures").add(s.load_failures);
        obs.counter(&format!("crawl.steps.{source}")).add(s.surf_steps);
    }
}

/// Tallies crawl-phase fault costs from the per-exchange health logs,
/// plus the per-exchange health gauges and resume bookkeeping. Always
/// registered — a fault-free run reports explicit zeros (which CI
/// asserts) rather than absent keys. The `crawl.resume.*` counters are
/// the one deliberate difference between a straight run and an
/// interrupted-then-resumed one; everything else is bit-identical.
fn record_crawl_fault_tallies(obs: &Registry, health: &[CrawlHealth], resume: &ResumeStats) {
    let sum = |f: fn(&CrawlHealth) -> u64| health.iter().map(f).sum::<u64>();
    obs.counter("crawl.faults.injected").add(sum(|h| h.faults_injected));
    obs.counter("crawl.faults.retries").add(sum(|h| h.retries));
    obs.counter("crawl.faults.backoff_nanos").add(sum(|h| h.backoff_nanos));
    obs.counter("crawl.faults.outages").add(sum(|h| h.outage_hits));
    obs.counter("crawl.faults.bans").add(sum(|h| h.ban_hits));
    obs.counter("crawl.faults.captcha_lockouts").add(sum(|h| h.captcha_lockouts));
    obs.counter("crawl.faults.session_drops").add(sum(|h| h.session_drops));
    obs.counter("crawl.faults.lost_steps").add(sum(|h| h.lost_steps));
    obs.counter("crawl.faults.downtime_secs").add(sum(|h| h.downtime_secs));
    obs.counter("crawl.faults.shutdowns")
        .add(health.iter().filter(|h| h.shutdown_at.is_some()).count() as u64);
    obs.counter("crawl.resume.segments_restored").add(resume.segments_restored);
    obs.counter("crawl.resume.records_restored").add(resume.records_restored);
    obs.counter("crawl.resume.replayed_loads").add(resume.loads_replayed);
    for h in health {
        obs.gauge(&format!("crawl.health.{}.lost_steps", h.exchange)).set(h.lost_steps as i64);
        obs.gauge(&format!("crawl.health.{}.downtime_secs", h.exchange))
            .set(h.downtime_secs as i64);
        obs.gauge(&format!("crawl.health.{}.shutdown", h.exchange))
            .set(i64::from(h.shutdown_at.is_some()));
    }
}

/// Tallies the checkpoint store's resilience bookkeeping. Always
/// registered on the checkpointed paths — a fault-free run reports
/// explicit zeros (which CI asserts) rather than absent keys.
/// `ckpt.quarantined` is cumulative over the checkpoint directory's
/// whole history (the store seeds it from `quarantine/` at open, so it
/// survives kill/restart cycles); the remaining counters cover one
/// [`CrawlSession`], from open to finish. Direct (non-checkpointed) runs
/// record nothing here, the same way they record no `crawl.resume.*`
/// activity.
fn record_ckpt_tallies(obs: &Registry, stats: &CkptStats) {
    obs.counter("ckpt.saves").add(CkptStats::get(&stats.saves));
    obs.counter("ckpt.save.torn").add(CkptStats::get(&stats.torn_writes));
    obs.counter("ckpt.save.short").add(CkptStats::get(&stats.short_writes));
    obs.counter("ckpt.save.bitflip").add(CkptStats::get(&stats.bit_flips));
    obs.counter("ckpt.save.disk_full").add(CkptStats::get(&stats.disk_full));
    obs.counter("ckpt.quarantined").add(CkptStats::get(&stats.quarantined));
    obs.counter("ckpt.rollback").add(CkptStats::get(&stats.rollbacks));
    obs.counter("ckpt.pruned").add(CkptStats::get(&stats.pruned));
}

/// Records the regular-traffic filter partition: records in, and the
/// three classes out.
fn record_filter_counts(obs: &Registry, referrals: &[ReferralClass]) {
    let mut selfs = 0u64;
    let mut populars = 0u64;
    let mut regulars = 0u64;
    for class in referrals {
        match class {
            ReferralClass::SelfReferral => selfs += 1,
            ReferralClass::PopularReferral => populars += 1,
            ReferralClass::Regular => regulars += 1,
        }
    }
    obs.counter("filter.records_in").add(referrals.len() as u64);
    obs.counter("filter.self_referrals").add(selfs);
    obs.counter("filter.popular_referrals").add(populars);
    obs.counter("filter.regular_out").add(regulars);
}

/// Records the scan plan's lookup/entry/hit counters for each memoized
/// key kind.
fn record_cache_stats(obs: &Registry, caches: &[(&'static str, slum_detect::CacheStats); 4]) {
    for &(group, stats) in caches {
        obs.counter(&format!("scan.cache.{group}.lookups")).add(stats.lookups);
        obs.counter(&format!("scan.cache.{group}.entries")).add(stats.entries);
        obs.counter(&format!("scan.cache.{group}.hits")).add(stats.hits);
    }
}

/// Records the scan plan's `js.vm.*` counters. Always registered — a
/// tree-walk run (or a corpus with no scripts) reports explicit zeros
/// rather than absent keys, the same convention the fault counters
/// follow. Every counter except `js.vm.compile_nanos` (wall-clock) is
/// deterministic across worker counts: the execution tallies sum over
/// the plan's distinct samples and the compile count is the module
/// cache's entry set. `compile_nanos` goes to a histogram, the home for
/// wall-clock per the crate's determinism contract.
fn record_js_vm_stats(obs: &Registry, stats: &JsVmStats) {
    obs.counter("js.vm.compiles").add(stats.compiles);
    obs.histogram("js.vm.compile_nanos").record(stats.compile_nanos);
    obs.counter("js.vm.module_cache.lookups").add(stats.module_lookups);
    obs.counter("js.vm.module_cache.hits").add(stats.module_hits);
    obs.counter("js.vm.instructions").add(stats.instructions);
    obs.counter("js.vm.budget_exhaustions").add(stats.budget_exhaustions);
}

/// Tallies scan verdicts, blacklist consensus outcomes and per-engine
/// labels over the regular records. Runs serially after the scan phase,
/// so the counts are trivially schedule-independent. Every count is
/// kept locally and added to the registry once, and a name is
/// registered only when its count is positive. Labels are counted by
/// borrowed key first, so each metric name is formatted once.
fn record_outcome_tallies(obs: &Registry, outcomes: &[ScanOutcome], referrals: &[ReferralClass]) {
    let (mut malicious, mut benign, mut uploads, mut consensus) = (0u64, 0u64, 0u64, 0u64);
    let mut engines: BTreeMap<&str, u64> = BTreeMap::new();
    let mut labels: BTreeMap<&str, u64> = BTreeMap::new();
    let mut findings: BTreeMap<QutteraFinding, u64> = BTreeMap::new();
    let mut verdicts: BTreeMap<QutteraVerdict, u64> = BTreeMap::new();
    for (outcome, class) in outcomes.iter().zip(referrals) {
        if *class != ReferralClass::Regular {
            continue;
        }
        malicious += u64::from(outcome.malicious);
        benign += u64::from(!outcome.malicious);
        uploads += u64::from(outcome.needed_content_upload);
        consensus += u64::from(outcome.blacklisted_domain.is_some());
        for (engine, label) in &outcome.vt.detections {
            *engines.entry(engine).or_default() += 1;
            *labels.entry(label).or_default() += 1;
        }
        for finding in &outcome.quttera.findings {
            *findings.entry(*finding).or_default() += 1;
        }
        *verdicts.entry(outcome.quttera.verdict).or_default() += 1;
    }
    let add = |name: &str, n: u64| {
        if n > 0 {
            obs.counter(name).add(n);
        }
    };
    add("scan.verdict.malicious", malicious);
    add("scan.verdict.benign", benign);
    add("scan.content_uploads", uploads);
    add("scan.blacklist.consensus_hits", consensus);
    add("scan.labels.vt.total", engines.values().sum());
    add("scan.labels.quttera.total", findings.values().sum());
    for (engine, n) in engines {
        add(&format!("scan.labels.vt.engine.{engine}"), n);
    }
    for (label, n) in labels {
        add(&format!("scan.labels.vt.label.{label}"), n);
    }
    for (finding, n) in findings {
        add(&format!("scan.labels.quttera.finding.{finding:?}"), n);
    }
    for (verdict, n) in verdicts {
        add(&format!("scan.labels.quttera.verdict.{verdict:?}"), n);
    }
}

/// Tallies fault-layer costs and verdict provenance over the regular
/// records, plus the per-service breaker trajectory from the compiled
/// plan. Runs serially after the scan phase from order-independent
/// per-outcome logs, so every number is identical for every worker
/// count. The counters are always registered — a fault-free run
/// reports explicit zeros (which CI asserts) rather than absent keys.
fn record_fault_tallies(
    obs: &Registry,
    outcomes: &[ScanOutcome],
    referrals: &[ReferralClass],
    plan: Option<&FaultPlan>,
) {
    let mut log = FaultLog::default();
    let mut degraded = 0u64;
    let mut blacklist_only = 0u64;
    let mut unresolved = 0u64;
    for (outcome, class) in outcomes.iter().zip(referrals) {
        if *class != ReferralClass::Regular {
            continue;
        }
        log.injected += outcome.faults.injected;
        log.retries += outcome.faults.retries;
        log.backoff_nanos += outcome.faults.backoff_nanos;
        log.breaker_skips += outcome.faults.breaker_skips;
        match outcome.source {
            VerdictSource::Full => {}
            VerdictSource::Degraded => degraded += 1,
            VerdictSource::BlacklistOnly => blacklist_only += 1,
            VerdictSource::Unresolved => unresolved += 1,
        }
    }
    obs.counter("scan.faults.injected").add(u64::from(log.injected));
    obs.counter("scan.retries").add(u64::from(log.retries));
    obs.counter("scan.backoff_nanos").add(log.backoff_nanos);
    obs.counter("scan.breaker.skips").add(u64::from(log.breaker_skips));
    obs.counter("scan.degraded_verdicts").add(degraded);
    obs.counter("scan.blacklist_only_verdicts").add(blacklist_only);
    obs.counter("scan.unresolved_verdicts").add(unresolved);
    for service in ScanService::ALL {
        let name = service.name();
        let (opens, state) = match plan {
            Some(plan) => {
                (plan.breaker_opens(service), plan.breaker_final_state(service).as_gauge())
            }
            None => (0, 0),
        };
        obs.counter(&format!("scan.breaker.{name}.opens")).add(opens);
        obs.gauge(&format!("scan.breaker.{name}.state")).set(state);
    }
}

/// The scan phase every run ends with, direct or checkpointed: books
/// the crawl's counters, classifies referrals, scans every regular
/// record and assembles the study.
fn scan_crawl(
    config: &StudyConfig,
    obs: Registry,
    built: BuiltSubstrate,
    (store, stats, health): (RecordStore, Vec<(String, CrawlStats)>, Vec<CrawlHealth>),
    resume: &ResumeStats,
    shared_caches: Option<Arc<ScanCaches>>,
) -> Study {
    record_crawl_tallies(&obs, &stats);
    record_crawl_fault_tallies(&obs, &health, resume);
    record_substrate_tallies(&obs, config.substrate, built.meta.len(), store.len() as u64);

    // 3. Classify referrals, then scan every *regular* record across the
    //    configured worker count.
    let (outcomes, referrals) = {
        let _span = obs.span("phase.scan");
        let referrals: Vec<ReferralClass> =
            store.records().iter().map(|r| built.filter.classify(r)).collect();
        record_filter_counts(&obs, &referrals);

        let mut pipeline = ScanPipeline::new(&built.web).with_js_engine(config.js_engine);
        let shared = shared_caches.is_some();
        if let Some(caches) = shared_caches {
            pipeline = pipeline.with_shared_caches(caches);
        }
        if !config.fault_profile.is_inert() {
            // Compile the fault schedule from the *corpus* (regular
            // records in virtual-arrival order), never from scan
            // scheduling — the determinism contract across worker counts
            // hangs on this.
            let requests: Vec<(String, u64)> = store
                .records()
                .iter()
                .zip(&referrals)
                .filter(|(_, class)| **class == ReferralClass::Regular)
                .map(|(record, _)| (scan_key(record), record.at))
                .collect();
            let plan = FaultPlan::compile(&config.fault_profile, config.seed, &requests);
            pipeline = pipeline.with_fault_plan(plan);
        }
        let (outcomes, scan_workers, tally) =
            scan_phase(&pipeline, store.records(), &referrals, config, &obs, shared);
        obs.gauge("scan.workers").set(scan_workers as i64);
        record_cache_stats(&obs, &tally.caches);
        record_js_vm_stats(&obs, &tally.js_vm);
        record_outcome_tallies(&obs, &outcomes, &referrals);
        record_fault_tallies(&obs, &outcomes, &referrals, pipeline.fault_plan());
        (outcomes, referrals)
    };
    // After the scan phase, so the table never adds to its peak.
    let facts = {
        let _span = obs.span("artifact.facts");
        Facts::build(&built.meta, store.records(), &referrals, &outcomes)
    };

    Study {
        web: built.web,
        store,
        outcomes,
        referrals,
        health,
        sources: built.meta,
        facts,
        config: config.clone(),
        obs,
    }
}

/// Scans every Regular record across the effective worker count;
/// Self/Popular referrals get an inert clean outcome in their slots, so
/// the outcomes stay aligned with the records.
///
/// Worker selection goes through [`effective_scan_workers`] — small
/// corpora run serially (below `config.serial_scan_threshold`) and the
/// count is clamped to the host's parallelism. The records then go
/// through [`ScanPipeline::scan_planned`], whose parallel passes pull
/// `config.scan_chunk`-sized work units and keep the output
/// bit-identical to the serial path. Every URL or capture the scan
/// computes records its latency into the `scan.sample_nanos`
/// histogram, and `scan.scans` counts the regular records. Finished
/// samples are kept only in `shared` caches: nothing reads a private
/// set again. Returns the outcomes, the worker count actually used and
/// the plan's counters.
fn scan_phase(
    pipeline: &ScanPipeline<'_>,
    records: &[CrawlRecord],
    referrals: &[ReferralClass],
    config: &StudyConfig,
    obs: &Registry,
    shared: bool,
) -> (Vec<ScanOutcome>, usize, ScanTally) {
    let regular = |i: usize| referrals[i] == ReferralClass::Regular;
    let scans = referrals.iter().filter(|&&class| class == ReferralClass::Regular).count();
    let workers = effective_scan_workers(scans, config.scan_workers, config.serial_scan_threshold);
    let sample_nanos = obs.histogram("scan.sample_nanos");
    let (outcomes, tally) = pipeline.scan_planned(
        records,
        regular,
        workers,
        config.scan_chunk,
        Some(&sample_nanos),
        shared,
    );
    obs.counter("scan.scans").add(scans as u64);
    (outcomes, workers, tally)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slum_exchange::params::PROFILES;

    fn tiny_study() -> Study {
        let config = StudyConfig::builder()
            .seed(77)
            .crawl_scale(0.0003)
            .domain_scale(0.03)
            .build()
            .expect("valid test config");
        Study::run(&config)
    }

    #[test]
    fn study_produces_all_nine_rows() {
        let study = tiny_study();
        let t1 = study.table1();
        assert_eq!(t1.rows.len(), 9);
        for row in &t1.rows {
            assert!(row.crawled >= 40, "{}: {}", row.exchange, row.crawled);
            assert_eq!(
                row.crawled,
                row.self_referrals + row.popular_referrals + row.regular,
                "{} partition",
                row.exchange
            );
        }
    }

    #[test]
    fn overall_malice_rate_in_paper_ballpark() {
        let study = tiny_study();
        let rate = study.table1().overall_malicious_fraction();
        // Paper: 26.7%. Small crawls are noisy; assert the band.
        assert!((0.15..0.45).contains(&rate), "overall malice rate {rate}");
    }

    #[test]
    fn outcomes_align_with_records() {
        let study = tiny_study();
        assert_eq!(study.store.len(), study.outcomes.len());
        assert_eq!(study.store.len(), study.referrals.len());
    }

    #[test]
    fn self_and_popular_referrals_never_malicious() {
        let study = tiny_study();
        for (outcome, class) in study.outcomes.iter().zip(&study.referrals) {
            if *class != ReferralClass::Regular {
                assert!(!outcome.malicious);
            }
        }
    }

    #[test]
    fn fig2_matches_table1() {
        let study = tiny_study();
        let t1 = study.table1();
        let bars = study.fig2();
        for (row, bar) in t1.rows.iter().zip(&bars) {
            assert_eq!(row.exchange, bar.exchange);
            assert_eq!(row.malicious, bar.malicious);
            assert_eq!(row.regular, bar.benign + bar.malicious);
        }
    }

    #[test]
    fn fig3_totals_match_table1() {
        let study = tiny_study();
        let t1 = study.table1();
        for (series, row) in study.fig3().iter().zip(&t1.rows) {
            assert_eq!(series.exchange, row.exchange);
            assert_eq!(series.total_malicious(), row.malicious);
            assert_eq!(series.len() as u64, row.regular);
        }
    }

    #[test]
    fn table3_counts_match_total_malicious() {
        let study = tiny_study();
        let counts = study.table3();
        let total_from_table1: u64 = study.table1().rows.iter().map(|r| r.malicious).sum();
        assert_eq!(counts.total_malicious, total_from_table1);
        let sum: u64 = crate::categorize::Category::ALL.iter().map(|c| counts.count(*c)).sum();
        assert_eq!(sum, counts.total_malicious);
    }

    #[test]
    fn metrics_agree_with_pipeline_state() {
        let study = tiny_study();
        let m = study.metrics();
        let t1 = study.table1();

        assert_eq!(m.counter("crawl.pages") as usize, study.store.len());
        assert_eq!(m.counter("filter.records_in") as usize, study.referrals.len());
        let regular: u64 = t1.rows.iter().map(|r| r.regular).sum();
        assert_eq!(m.counter("filter.regular_out"), regular);
        assert_eq!(m.counter("scan.scans"), regular);
        let malicious: u64 = t1.rows.iter().map(|r| r.malicious).sum();
        assert_eq!(m.counter("scan.verdict.malicious"), malicious);
        assert_eq!(
            m.counter("scan.verdict.malicious") + m.counter("scan.verdict.benign"),
            regular
        );

        // One URL-feature lookup per scanned record; entries+hits
        // partition the lookups.
        let fl = m.counter("scan.cache.url_features.lookups");
        assert_eq!(fl, regular);
        assert_eq!(
            fl,
            m.counter("scan.cache.url_features.entries")
                + m.counter("scan.cache.url_features.hits")
        );

        // Phase spans exist and the scan histogram saw every URL and
        // capture the scan computed.
        assert_eq!(m.spans.iter().filter(|s| s.name.starts_with("phase.")).count(), 3);
        let computed = m.counter("scan.cache.url_features.entries")
            + m.counter("scan.cache.content_features.entries");
        assert_eq!(m.histograms["scan.sample_nanos"].count, computed);
    }

    #[test]
    fn builder_rejects_nonsense() {
        assert!(matches!(
            StudyConfig::builder().scan_workers(0).build(),
            Err(ConfigError::ZeroScanWorkers)
        ));
        assert!(matches!(
            StudyConfig::builder().crawl_scale(0.0).build(),
            Err(ConfigError::NonPositiveScale { field: "crawl_scale", .. })
        ));
        assert!(matches!(
            StudyConfig::builder().domain_scale(-1.0).build(),
            Err(ConfigError::NonPositiveScale { field: "domain_scale", .. })
        ));
        assert!(matches!(
            StudyConfig::builder().crawl_scale(f64::NAN).build(),
            Err(ConfigError::NonPositiveScale { .. })
        ));
        let err = StudyConfig::builder().scan_workers(0).build().unwrap_err();
        assert!(err.to_string().contains("at least 1"));
    }

    #[test]
    fn builder_rejects_invalid_fault_profile() {
        let mut bad = FaultProfile::default_profile();
        bad.services[0].transient_per_mille = 2_000;
        let err = StudyConfig::builder().fault_profile(bad).build().unwrap_err();
        assert!(matches!(err, ConfigError::InvalidFaultProfile { .. }));
        assert!(err.to_string().contains("fault profile"));
    }

    #[test]
    fn fault_free_run_registers_zero_fault_counters() {
        let study = tiny_study();
        let m = study.metrics();
        // The counters must be *present* with explicit zeros (CI's
        // fault-free smoke check greps the snapshot for them).
        for name in [
            "scan.faults.injected",
            "scan.retries",
            "scan.backoff_nanos",
            "scan.degraded_verdicts",
            "scan.blacklist_only_verdicts",
            "scan.unresolved_verdicts",
            "scan.breaker.skips",
        ] {
            assert!(m.counters.contains_key(name), "{name} must be registered");
            assert_eq!(m.counter(name), 0, "{name} must be zero without faults");
        }
        for outcome in &study.outcomes {
            assert_eq!(outcome.source, VerdictSource::Full);
            assert_eq!(outcome.faults, FaultLog::default());
        }
    }

    #[test]
    fn fault_free_run_registers_zero_crawl_fault_counters() {
        let study = tiny_study();
        let m = study.metrics();
        for name in [
            "crawl.faults.injected",
            "crawl.faults.retries",
            "crawl.faults.backoff_nanos",
            "crawl.faults.outages",
            "crawl.faults.bans",
            "crawl.faults.captcha_lockouts",
            "crawl.faults.session_drops",
            "crawl.faults.lost_steps",
            "crawl.faults.downtime_secs",
            "crawl.faults.shutdowns",
            "crawl.resume.segments_restored",
            "crawl.resume.records_restored",
        ] {
            assert!(m.counters.contains_key(name), "{name} must be registered");
            assert_eq!(m.counter(name), 0, "{name} must be zero without crawl faults");
        }
        assert_eq!(study.health.len(), 9);
        assert!(study.health.iter().all(CrawlHealth::is_clean));
    }

    #[test]
    fn default_crawl_fault_profile_degrades_but_completes() {
        let config = StudyConfig::builder()
            .seed(77)
            .crawl_scale(0.0003)
            .domain_scale(0.03)
            .crawl_fault_profile(CrawlFaultProfile::default_profile())
            .build()
            .expect("valid config");
        let study = Study::run(&config);
        let m = study.metrics();
        assert!(m.counter("crawl.faults.injected") > 0, "default profile must inject");
        assert!(m.counter("crawl.faults.downtime_secs") > 0);
        // Every planned slot is accounted for: logged or lost.
        let steps: u64 = PROFILES.iter().map(|p| steps_for(p, config.crawl_scale)).sum();
        assert_eq!(m.counter("crawl.pages") + m.counter("crawl.faults.lost_steps"), steps);
        // The study still produces all nine Table I rows — degraded, not
        // aborted.
        assert_eq!(study.table1().rows.len(), 9);
        assert_eq!(study.health.len(), 9);
        for h in &study.health {
            assert!(
                m.gauge(&format!("crawl.health.{}.lost_steps", h.exchange))
                    == h.lost_steps as i64
            );
        }
    }

    #[test]
    fn checkpointed_run_matches_direct_run() {
        let dir =
            std::env::temp_dir().join(format!("slum-study-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = StudyConfig::builder()
            .seed(77)
            .crawl_scale(0.0003)
            .domain_scale(0.03)
            .scan_workers(2)
            .checkpoint_every(48)
            .build()
            .expect("valid config");
        let direct = Study::run(&config);
        let checkpointed = CrawlSession::open(&config, &dir, Restore::Never)
            .and_then(|session| session.advance(u64::MAX))
            .expect("checkpoint I/O")
            .finish(None);
        assert_eq!(direct.store, checkpointed.store, "checkpointing must not change the corpus");
        assert_eq!(direct.outcomes, checkpointed.outcomes);
        assert_eq!(direct.health, checkpointed.health);
        assert!(
            std::fs::read_dir(&dir).unwrap().count() > 1,
            "periodic checkpoints must be written"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Printing the corpus replays every load on a substrate of its
    /// own: the export, and the shortener hit counts Table IV reads off
    /// the study's web, are the same bytes before and after.
    #[test]
    fn printing_the_corpus_moves_nothing_the_study_reports() {
        let config = StudyConfig::builder()
            .seed(2016)
            .crawl_scale(0.002)
            .domain_scale(0.05)
            .build()
            .expect("valid config");
        let study = Study::run(&config);
        let export = crate::export::to_json(&study).expect("serializable export");
        let table4 = study.table4();
        assert!(table4.iter().any(|row| row.short_hits > 0), "Table IV needs crawled hits");
        let corpus = study.corpus_jsonl().expect("serializable corpus");
        assert_eq!(corpus.lines().count(), study.store.len());
        assert_eq!(study.table4(), table4);
        assert_eq!(crate::export::to_json(&study).expect("serializable export"), export);
    }

    #[test]
    fn builder_rejects_invalid_crawl_profile_and_zero_interval() {
        let mut bad = CrawlFaultProfile::default_profile();
        bad.auto.session_drop_per_mille = 9_999;
        let err = StudyConfig::builder().crawl_fault_profile(bad).build().unwrap_err();
        assert!(matches!(err, ConfigError::InvalidCrawlFaultProfile { .. }));
        assert!(err.to_string().contains("crawl-fault"), "{err}");
        assert!(matches!(
            StudyConfig::builder().checkpoint_every(0).build(),
            Err(ConfigError::ZeroCheckpointInterval)
        ));
    }

    #[test]
    fn default_fault_profile_injects_and_degrades() {
        let config = StudyConfig::builder()
            .seed(77)
            .crawl_scale(0.0003)
            .domain_scale(0.03)
            .fault_profile(FaultProfile::default_profile())
            .build()
            .expect("valid config");
        let study = Study::run(&config);
        let m = study.metrics();
        assert!(m.counter("scan.faults.injected") > 0, "default profile must inject");
        assert!(m.counter("scan.retries") > 0, "faults must drive retries");
        assert!(m.counter("scan.backoff_nanos") > 0);
        assert!(m.counter("scan.degraded_verdicts") > 0, "some verdicts must degrade");
        // Filtered (self/popular) records never touch the services, so
        // their provenance stays Full.
        for (outcome, class) in study.outcomes.iter().zip(&study.referrals) {
            if *class != ReferralClass::Regular {
                assert_eq!(outcome.source, VerdictSource::Full);
            }
        }
    }

    #[test]
    fn unknown_substrate_name_rejected() {
        let err = StudyConfig::builder().substrate_name("usenet").unwrap_err();
        assert!(matches!(err, ConfigError::UnknownSubstrate { .. }));
        assert!(err.to_string().contains("usenet"), "{err}");
        let config =
            StudyConfig::builder().substrate_name("adnet").unwrap().build().unwrap();
        assert_eq!(config.substrate, Substrate::AdNet);
    }

    #[test]
    fn substrate_counters_always_registered() {
        let study = tiny_study();
        let m = study.metrics();
        for name in Substrate::NAMES {
            for key in [
                format!("crawl.substrate.{name}.pages"),
                format!("crawl.substrate.{name}.sources"),
            ] {
                assert!(m.counters.contains_key(&key), "{key} must be registered");
            }
        }
        assert_eq!(m.counter("crawl.substrate.exchange.pages") as usize, study.store.len());
        assert_eq!(m.counter("crawl.substrate.exchange.sources"), 9);
        assert_eq!(m.counter("crawl.substrate.adnet.pages"), 0);
        assert_eq!(m.counter("crawl.substrate.torrent.sources"), 0);
    }

    fn substrate_study(substrate: Substrate) -> Study {
        let config = StudyConfig::builder()
            .seed(77)
            .crawl_scale(0.0005)
            .domain_scale(0.03)
            .substrate(substrate)
            .build()
            .expect("valid config");
        Study::run(&config)
    }

    #[test]
    fn adnet_substrate_runs_end_to_end() {
        let study = substrate_study(Substrate::AdNet);
        assert_eq!(study.sources.len(), 4);
        assert_eq!(study.health.len(), 4);
        let t1 = study.table1();
        assert_eq!(t1.rows.len(), 4);
        for row in &t1.rows {
            assert!(row.crawled >= 40, "{}: {}", row.exchange, row.crawled);
            assert_eq!(
                row.crawled,
                row.self_referrals + row.popular_referrals + row.regular,
                "{} partition",
                row.exchange
            );
            assert!(row.regular > 0, "{}", row.exchange);
        }
        assert!(t1.overall_malicious_fraction() > 0.0, "ad networks must carry malice");
        let m = study.metrics();
        assert_eq!(m.counter("crawl.substrate.adnet.pages") as usize, study.store.len());
        assert_eq!(m.counter("crawl.substrate.adnet.sources"), 4);
        assert_eq!(m.counter("crawl.substrate.exchange.pages"), 0);
    }

    #[test]
    fn torrent_substrate_runs_end_to_end() {
        let study = substrate_study(Substrate::Torrent);
        assert_eq!(study.sources.len(), 3);
        assert_eq!(study.health.len(), 3);
        let t1 = study.table1();
        assert_eq!(t1.rows.len(), 3);
        for row in &t1.rows {
            assert_eq!(
                row.crawled,
                row.self_referrals + row.popular_referrals + row.regular,
                "{} partition",
                row.exchange
            );
        }
        assert!(t1.overall_malicious_fraction() > 0.0, "fake publishers must seed malice");
    }

    #[test]
    fn new_substrates_are_deterministic_per_seed() {
        for substrate in [Substrate::AdNet, Substrate::Torrent] {
            let a = substrate_study(substrate);
            let b = substrate_study(substrate);
            assert_eq!(a.store, b.store, "{substrate:?} corpus must be deterministic");
            assert_eq!(a.outcomes, b.outcomes, "{substrate:?} outcomes");
        }
    }
}
