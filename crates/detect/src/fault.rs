//! Deterministic fault injection for the detection services.
//!
//! The paper's scan campaign (§III-B) ran for months against services
//! that are rate-limited (the public VirusTotal API allows only a few
//! requests per minute), intermittently unavailable, and occasionally
//! just slow. Related measurement work ("A Decade of Mal-Activity
//! Reporting", "Dismantling Common Internet Services for Ad-Malware
//! Detection") shows that scanner availability gaps distort the
//! measurements themselves — so the reproduction models them.
//!
//! Everything is simulated on the *virtual* clock the crawler already
//! stamps into every [`slum_crawler` record's] `at` field:
//!
//! - a [`FaultProfile`] describes per-service outage windows,
//!   token-bucket rate limits, latency spikes and transient errors;
//! - [`FaultPlan::compile`] walks the whole request corpus once, in
//!   virtual-arrival order, and freezes a per-request
//!   [`ServiceDecision`] for every service — including the retry
//!   resolution (via [`crate::retry::RetryPolicy`]) and the per-service
//!   circuit-breaker trajectory.
//!
//! Compiling the plan *ahead of the scan* is the determinism trick:
//! the token bucket and circuit breaker are inherently order-dependent
//! state machines, but the corpus arrival order is fixed by the crawl,
//! not by scan-worker scheduling. Scan workers merely *replay* frozen
//! decisions, so verdicts, provenance and fault counters are
//! bit-identical for every `scan_workers` count.
//!
//! A request is identified by its source and sequence number, the
//! canonical key `source#seq`. The compiler never builds that string:
//! it orders requests by the key's bytes and hashes them one field at a
//! time ([`fnv1a_extend`] continues a hash over the next bytes).

use std::cmp::Ordering;
use std::collections::HashMap;
use std::iter;

use crate::hash::{decimal_digits, fnv1a, fnv1a_extend, hashed_fraction};
use crate::retry::{BreakerState, CircuitBreaker, Resolution, RetryPolicy};

/// Virtual nanoseconds per virtual second.
const NANOS_PER_SEC: u64 = 1_000_000_000;

/// The detection services the scan pipeline consults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ScanService {
    /// The VirusTotal-style multi-engine aggregator.
    VirusTotal,
    /// The Quttera-style heuristic scanner.
    Quttera,
    /// The six-list blacklist consensus.
    Blacklist,
}

impl ScanService {
    /// Every service, in pipeline consultation order.
    pub const ALL: [ScanService; 3] =
        [ScanService::VirusTotal, ScanService::Quttera, ScanService::Blacklist];

    /// Stable metric-segment name.
    pub fn name(self) -> &'static str {
        match self {
            ScanService::VirusTotal => "virustotal",
            ScanService::Quttera => "quttera",
            ScanService::Blacklist => "blacklist",
        }
    }

    /// Index into per-service arrays.
    pub fn index(self) -> usize {
        match self {
            ScanService::VirusTotal => 0,
            ScanService::Quttera => 1,
            ScanService::Blacklist => 2,
        }
    }
}

/// What kind of fault a request ran into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The service is inside a scheduled outage window.
    Outage,
    /// The token bucket ran dry (HTTP-429 shape).
    RateLimit,
    /// A latency spike pushed the request past its deadline.
    LatencySpike,
    /// A one-off transient error (connection reset, 5xx).
    Transient,
}

impl FaultKind {
    /// Stable metric-segment name.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Outage => "outage",
            FaultKind::RateLimit => "rate_limit",
            FaultKind::LatencySpike => "latency_spike",
            FaultKind::Transient => "transient",
        }
    }
}

/// A scan-service error, carrying when (on the virtual clock) retries
/// would start succeeding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanError {
    /// Which service failed.
    pub service: ScanService,
    /// What went wrong.
    pub kind: FaultKind,
    /// Virtual second at which the fault clears for this request.
    pub clears_at_secs: u64,
}

impl std::fmt::Display for ScanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {} (clears at t={}s)",
            self.service.name(),
            self.kind.name(),
            self.clears_at_secs
        )
    }
}

/// Fault parameters for one service.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceFaultProfile {
    /// Number of seeded outage windows across the study span.
    pub outage_windows: u32,
    /// Length of each outage window (virtual seconds).
    pub outage_secs: u64,
    /// Token-bucket refill rate (requests per virtual minute;
    /// 0 disables rate limiting).
    pub rate_per_minute: u32,
    /// Token-bucket capacity (burst size).
    pub burst: u32,
    /// Transient-error probability per request, in per-mille.
    pub transient_per_mille: u32,
    /// Latency-spike probability per request, in per-mille.
    pub spike_per_mille: u32,
    /// How long a spiked request keeps timing out (virtual seconds).
    pub spike_penalty_secs: u64,
}

impl ServiceFaultProfile {
    /// A service that never fails.
    pub fn reliable() -> Self {
        ServiceFaultProfile {
            outage_windows: 0,
            outage_secs: 0,
            rate_per_minute: 0,
            burst: 0,
            transient_per_mille: 0,
            spike_per_mille: 0,
            spike_penalty_secs: 0,
        }
    }

    /// True when this service can never produce a fault.
    pub fn is_inert(&self) -> bool {
        self.outage_windows == 0
            && self.rate_per_minute == 0
            && self.transient_per_mille == 0
            && self.spike_per_mille == 0
    }
}

/// A named, seeded fault-injection profile for the whole detection
/// stack.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultProfile {
    /// Profile name (echoed in reports; `none` is the inert default).
    pub name: String,
    /// Salt mixed with the study seed, so the same corpus can be
    /// faulted independently per profile.
    pub seed_salt: u64,
    /// Per-service fault parameters, indexed by [`ScanService::index`].
    pub services: [ServiceFaultProfile; 3],
    /// Retry discipline applied to every faulted request.
    pub retry: RetryPolicy,
    /// Consecutive exhausted-budget failures that trip a service's
    /// circuit breaker (0 disables the breaker).
    pub breaker_threshold: u32,
    /// Breaker cooldown before a half-open trial (virtual seconds).
    pub breaker_cooldown_secs: u64,
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile::none()
    }
}

impl FaultProfile {
    /// The inert profile: no faults, no retries, no breaker. This is
    /// the [`Default`], so fault injection is strictly opt-in.
    pub fn none() -> Self {
        FaultProfile {
            name: "none".to_string(),
            seed_salt: 0,
            services: [
                ServiceFaultProfile::reliable(),
                ServiceFaultProfile::reliable(),
                ServiceFaultProfile::reliable(),
            ],
            retry: RetryPolicy::no_retries(),
            breaker_threshold: 0,
            breaker_cooldown_secs: 0,
        }
    }

    /// The moderate operational profile: VirusTotal rate-limited at the
    /// public-API tier with occasional outages, Quttera with one outage
    /// window and some transient noise, blacklists nearly always up.
    pub fn default_profile() -> Self {
        FaultProfile {
            name: "default".to_string(),
            seed_salt: 0xfa07,
            services: [
                // VirusTotal: the public API is hard-capped at a few
                // requests/minute; modest outage + spike noise on top.
                ServiceFaultProfile {
                    outage_windows: 2,
                    outage_secs: 600,
                    rate_per_minute: 4,
                    burst: 4,
                    transient_per_mille: 15,
                    spike_per_mille: 10,
                    spike_penalty_secs: 30,
                },
                // Quttera: no hard rate cap, but less reliable overall.
                ServiceFaultProfile {
                    outage_windows: 1,
                    outage_secs: 900,
                    rate_per_minute: 0,
                    burst: 0,
                    transient_per_mille: 10,
                    spike_per_mille: 5,
                    spike_penalty_secs: 20,
                },
                // Blacklist snapshots are local once downloaded; only
                // rare transient refresh failures.
                ServiceFaultProfile {
                    transient_per_mille: 5,
                    ..ServiceFaultProfile::reliable()
                },
            ],
            retry: RetryPolicy::default(),
            breaker_threshold: 8,
            breaker_cooldown_secs: 120,
        }
    }

    /// The harsh profile: long outages, a tighter VirusTotal budget and
    /// much noisier services — for stress-testing graceful degradation.
    pub fn harsh() -> Self {
        FaultProfile {
            name: "harsh".to_string(),
            seed_salt: 0x0bad_5eed,
            services: [
                ServiceFaultProfile {
                    outage_windows: 4,
                    outage_secs: 1_800,
                    rate_per_minute: 2,
                    burst: 2,
                    transient_per_mille: 60,
                    spike_per_mille: 40,
                    spike_penalty_secs: 90,
                },
                ServiceFaultProfile {
                    outage_windows: 3,
                    outage_secs: 1_200,
                    rate_per_minute: 0,
                    burst: 0,
                    transient_per_mille: 40,
                    spike_per_mille: 25,
                    spike_penalty_secs: 60,
                },
                ServiceFaultProfile {
                    outage_windows: 1,
                    outage_secs: 600,
                    transient_per_mille: 20,
                    ..ServiceFaultProfile::reliable()
                },
            ],
            retry: RetryPolicy { max_retries: 3, ..RetryPolicy::default() },
            breaker_threshold: 4,
            breaker_cooldown_secs: 300,
        }
    }

    /// Parses a profile by CLI name (`none`/`off`, `default`, `harsh`).
    pub fn parse(name: &str) -> Option<FaultProfile> {
        match name {
            "none" | "off" => Some(FaultProfile::none()),
            "default" => Some(FaultProfile::default_profile()),
            "harsh" => Some(FaultProfile::harsh()),
            _ => None,
        }
    }

    /// Every named profile (for help text).
    pub const NAMES: [&'static str; 3] = ["none", "default", "harsh"];

    /// The parameters of one service.
    pub fn service(&self, service: ScanService) -> &ServiceFaultProfile {
        &self.services[service.index()]
    }

    /// True when the profile can never inject a fault.
    pub fn is_inert(&self) -> bool {
        self.services.iter().all(ServiceFaultProfile::is_inert)
    }

    /// Validates the profile's parameters.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first invalid field:
    /// per-mille probabilities above 1000, a rate limit with a zero
    /// burst, or an outage schedule with zero-length windows.
    pub fn validate(&self) -> Result<(), String> {
        for (service, p) in ScanService::ALL.iter().zip(&self.services) {
            let name = service.name();
            if p.transient_per_mille > 1000 || p.spike_per_mille > 1000 {
                return Err(format!("{name}: per-mille probabilities must be <= 1000"));
            }
            if p.rate_per_minute > 0 && p.burst == 0 {
                return Err(format!("{name}: a rate limit needs a burst capacity >= 1"));
            }
            if p.outage_windows > 0 && p.outage_secs == 0 {
                return Err(format!("{name}: outage windows need a nonzero duration"));
            }
            if p.spike_per_mille > 0 && p.spike_penalty_secs == 0 {
                return Err(format!("{name}: latency spikes need a nonzero penalty"));
            }
        }
        Ok(())
    }
}

/// The frozen outcome of one service for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServiceDecision {
    /// The service answered first try.
    #[default]
    Ok,
    /// The request hit a fault; `resolution` says whether retries
    /// eventually landed and what they cost.
    Faulted {
        /// The fault that was injected.
        kind: FaultKind,
        /// How the retry loop resolved it.
        resolution: Resolution,
    },
    /// The circuit breaker was open: the service was skipped without
    /// any attempt.
    BreakerSkip,
}

impl ServiceDecision {
    /// Whether the pipeline ultimately got an answer from the service.
    pub fn available(&self) -> bool {
        match self {
            ServiceDecision::Ok => true,
            ServiceDecision::Faulted { resolution, .. } => resolution.resolved,
            ServiceDecision::BreakerSkip => false,
        }
    }

    /// Failed attempts this decision cost (injected faults observed).
    pub fn injected(&self) -> u32 {
        match self {
            ServiceDecision::Faulted { resolution, .. } => resolution.failed_attempts,
            _ => 0,
        }
    }

    /// Retries this decision cost.
    pub fn retries(&self) -> u32 {
        match self {
            ServiceDecision::Faulted { resolution, .. } => resolution.retries,
            _ => 0,
        }
    }

    /// Virtual backoff nanoseconds this decision cost.
    pub fn backoff_nanos(&self) -> u64 {
        match self {
            ServiceDecision::Faulted { resolution, .. } => resolution.backoff_nanos,
            _ => 0,
        }
    }
}

/// Per-service state while compiling a plan.
struct ServiceCompiler {
    profile: ServiceFaultProfile,
    windows: Vec<(u64, u64)>,
    tokens: f64,
    last_refill_secs: u64,
    breaker: CircuitBreaker,
}

impl ServiceCompiler {
    /// The fault (if any) a request arriving at `at` runs into, before
    /// retries. `draws` are the spike and transient prefixes continued
    /// over the request's `source#`, and `seq` its seq's digits. At most
    /// one fault applies per request; outages shadow rate limits, which
    /// shadow spikes, which shadow transient noise.
    fn fault_at(
        &mut self,
        service: ScanService,
        draws: [u64; 2],
        seq: &[u8],
        at: u64,
    ) -> Option<ScanError> {
        if let Some(&(_, end)) = self.windows.iter().find(|(start, end)| (*start..*end).contains(&at))
        {
            return Some(ScanError { service, kind: FaultKind::Outage, clears_at_secs: end });
        }
        if self.profile.rate_per_minute > 0 {
            let rate_per_sec = f64::from(self.profile.rate_per_minute) / 60.0;
            let elapsed = at.saturating_sub(self.last_refill_secs) as f64;
            self.tokens =
                (self.tokens + elapsed * rate_per_sec).min(f64::from(self.profile.burst));
            self.last_refill_secs = at;
            if self.tokens >= 1.0 {
                self.tokens -= 1.0;
            } else {
                let wait_secs = ((1.0 - self.tokens) / rate_per_sec).ceil() as u64;
                return Some(ScanError {
                    service,
                    kind: FaultKind::RateLimit,
                    clears_at_secs: at + wait_secs.max(1),
                });
            }
        }
        // A draw at rate 0 never fires, so it is not hashed.
        let draw = |prefix: u64, per_mille: u32| {
            per_mille > 0
                && hashed_fraction(fnv1a_extend(prefix, seq)) < f64::from(per_mille) / 1000.0
        };
        if draw(draws[0], self.profile.spike_per_mille) {
            return Some(ScanError {
                service,
                kind: FaultKind::LatencySpike,
                clears_at_secs: at + self.profile.spike_penalty_secs,
            });
        }
        if draw(draws[1], self.profile.transient_per_mille) {
            // Transient errors clear almost immediately: the first
            // retry after any backoff succeeds.
            return Some(ScanError {
                service,
                kind: FaultKind::Transient,
                clears_at_secs: at + 1,
            });
        }
        None
    }
}

/// One request of a compile: when it arrives, which source sent it,
/// and the row of `seqs` and `triples` its decisions go to.
#[derive(Debug, Clone, Copy)]
struct Request {
    at: u64,
    seq: u64,
    source: u32,
    row: u32,
}

/// Orders requests of one arrival second as their `source#seq` keys
/// order bytewise, without building the keys.
struct KeyOrder<'a> {
    names: &'a [&'a str],
    /// Each source's rank by its `source#` bytes.
    rank: Vec<u32>,
    /// Whether a source's `source#` is a prefix of another source's
    /// (or another's of its): only then do the digits of two keys from
    /// different sources take part in their order.
    entangled: Vec<bool>,
}

impl<'a> KeyOrder<'a> {
    fn new(names: &'a [&'a str]) -> Self {
        let tagged = |name: &'a str| name.bytes().chain(iter::once(b'#'));
        let mut by_key: Vec<usize> = (0..names.len()).collect();
        by_key.sort_by(|&a, &b| tagged(names[a]).cmp(tagged(names[b])));
        let mut rank = vec![0; names.len()];
        for (r, &source) in by_key.iter().enumerate() {
            rank[source] = u32::try_from(r).expect("fewer than 2^32 sources");
        }
        // `a#` is a proper prefix of `b#`.
        let prefixes = |a: &str, b: &str| {
            b.len() > a.len() && b.starts_with(a) && b.as_bytes()[a.len()] == b'#'
        };
        let entangled = names
            .iter()
            .map(|a| names.iter().any(|b| prefixes(a, b) || prefixes(b, a)))
            .collect();
        KeyOrder { names, rank, entangled }
    }

    fn cmp(&self, a: &Request, b: &Request) -> Ordering {
        if a.source == b.source {
            return decimal_cmp(a.seq, b.seq);
        }
        let (sa, sb) = (a.source as usize, b.source as usize);
        if !self.entangled[sa] && !self.entangled[sb] {
            return self.rank[sa].cmp(&self.rank[sb]);
        }
        let (mut da, mut db) = ([0; 20], [0; 20]);
        key_bytes(self.names[sa], decimal_digits(a.seq, &mut da))
            .cmp(key_bytes(self.names[sb], decimal_digits(b.seq, &mut db)))
    }
}

/// The bytes of the key `source#seq`, from `seq`'s decimal digits.
fn key_bytes<'k>(source: &'k str, digits: &'k [u8]) -> impl Iterator<Item = u8> + 'k {
    source.bytes().chain(iter::once(b'#')).chain(digits.iter().copied())
}

/// Orders two integers as their decimal digits order bytewise (`"10"`
/// before `"9"`): scaled to one digit count, then the shorter first.
fn decimal_cmp(a: u64, b: u64) -> Ordering {
    let digits = |n: u64| n.checked_ilog10().map_or(1, |log| log + 1);
    let (da, db) = (digits(a), digits(b));
    let width = da.max(db);
    let scaled = |n: u64, d: u32| u128::from(n) * 10u128.pow(width - d);
    scaled(a, da).cmp(&scaled(b, db)).then(da.cmp(&db))
}

/// One source's hashes, which every draw and retry key continues over
/// a request's seq digits.
struct SourceHashes {
    /// FNV-1a of `source#`: the retry key's prefix.
    retry: u64,
    /// Per service, the spike and transient draw prefixes continued
    /// over `source#`.
    draws: [[u64; 2]; 3],
}

/// The compiled fault schedule for one scan corpus: a frozen
/// [`ServiceDecision`] triple per request, plus the per-service breaker
/// trajectory. Read-only after compilation, so it is shared freely
/// across scan worker threads.
#[derive(Debug)]
pub struct FaultPlan {
    /// Each source's rows of `seqs` and `triples`, by source name.
    sources: HashMap<Box<str>, (usize, usize)>,
    /// The seq of every request covered, grouped by source and
    /// ascending within one: memory follows the request count, however
    /// sparse the seqs are.
    seqs: Vec<u64>,
    /// The decision triple of the request in the same row of `seqs`.
    triples: Vec<[ServiceDecision; 3]>,
    breaker_opens: [u64; 3],
    breaker_final: [BreakerState; 3],
    injected: [u64; 3],
}

/// One source's decisions in a [`FaultPlan`], looked up by seq
/// ([`FaultPlan::source`]): a scan looks a source up once per run of
/// its records.
#[derive(Debug, Clone, Copy)]
pub struct SourceDecisions<'p> {
    seqs: &'p [u64],
    triples: &'p [[ServiceDecision; 3]],
}

impl SourceDecisions<'_> {
    /// The decision triple of request `seq` (all-Ok when the plan does
    /// not cover it).
    pub fn get(&self, seq: u64) -> [ServiceDecision; 3] {
        match self.seqs.binary_search(&seq) {
            Ok(row) => self.triples[row],
            Err(_) => [ServiceDecision::Ok; 3],
        }
    }
}

/// Splits a canonical `exchange#seq` request key; `None` when the part
/// after the last `#` is not a plain integer.
fn split_key(key: &str) -> Option<(&str, u64)> {
    let (exchange, seq) = key.rsplit_once('#')?;
    seq.parse::<u64>().ok().map(|seq| (exchange, seq))
}

impl FaultPlan {
    /// Compiles the plan over `requests`, `(key, virtual-arrival-seconds)`
    /// pairs keyed `exchange#seq`: each key is split once and compiled
    /// as [`FaultPlan::compile_requests`] compiles it. The part after
    /// the last `#` is read as an integer, so `X#07` is the request
    /// `X#7`.
    ///
    /// # Panics
    ///
    /// Panics when a key is not a canonical `exchange#seq` request key
    /// (the part after the last `#` a plain integer), as every scan key
    /// is.
    pub fn compile(profile: &FaultProfile, seed: u64, requests: &[(String, u64)]) -> FaultPlan {
        FaultPlan::compile_requests(
            profile,
            seed,
            requests.iter().map(|(key, at)| {
                let (source, seq) = split_key(key)
                    .unwrap_or_else(|| panic!("not an `exchange#seq` key: {key:?}"));
                (source, seq, *at)
            }),
        )
    }

    /// Compiles the plan: seeds per-service outage windows from
    /// `(seed, profile.seed_salt)`, then walks `requests` — `(source,
    /// seq, virtual-arrival-seconds)` triples — in the byte order of
    /// `(at, "source#seq")`, driving the token bucket, the per-request
    /// fault draws, the retry resolution and the circuit breaker. The
    /// walk order depends only on the corpus, never on scan scheduling,
    /// which is what makes every downstream consumer bit-identical
    /// across worker counts. A request listed twice is walked twice (in
    /// input order when its arrivals tie); its later walk's decisions
    /// stand.
    pub fn compile_requests<'a>(
        profile: &FaultProfile,
        seed: u64,
        requests: impl IntoIterator<Item = (&'a str, u64, u64)>,
    ) -> FaultPlan {
        // Each source is interned on its first request, and looked up
        // again only where a run of requests from one source ends.
        let mut names: Vec<&str> = Vec::new();
        let mut ids: HashMap<&str, u32> = HashMap::new();
        let mut run: Option<(&str, u32)> = None;
        let mut rows: Vec<Request> = Vec::new();
        let mut last_at = 0;
        for (source, seq, at) in requests {
            let id = match run {
                Some((name, id)) if name == source => id,
                _ => {
                    let next = u32::try_from(names.len()).expect("fewer than 2^32 sources");
                    let id = *ids.entry(source).or_insert_with(|| {
                        names.push(source);
                        next
                    });
                    run = Some((source, id));
                    id
                }
            };
            last_at = last_at.max(at);
            rows.push(Request { at, seq, source: id, row: 0 });
        }
        let span_secs = last_at + 1;
        let salt = seed ^ profile.seed_salt.rotate_left(17);

        let mut compilers: Vec<ServiceCompiler> = ScanService::ALL
            .iter()
            .map(|service| {
                let p = profile.service(*service).clone();
                let windows = outage_windows(&p, *service, salt, span_secs);
                ServiceCompiler {
                    tokens: f64::from(p.burst),
                    last_refill_secs: 0,
                    windows,
                    breaker: CircuitBreaker::new(
                        profile.breaker_threshold,
                        profile.breaker_cooldown_secs * NANOS_PER_SEC,
                    ),
                    profile: p,
                }
            })
            .collect();
        // FNV-1a of each service's `{salt}/{service}/spike/` and
        // `{salt}/{service}/transient/` draw-key prefixes.
        let draw_prefixes: [[u64; 2]; 3] = ScanService::ALL.map(|service| {
            let prefix = |draw: &str| fnv1a(format!("{salt}/{}/{draw}/", service.name()).as_bytes());
            [prefix("spike"), prefix("transient")]
        });
        let hashes: Vec<SourceHashes> = names
            .iter()
            .map(|name| {
                // Continues a hash over `source#` (from the empty hash,
                // the retry key's prefix).
                let over_source = |h: u64| fnv1a_extend(fnv1a_extend(h, name.as_bytes()), b"#");
                SourceHashes {
                    retry: over_source(fnv1a(b"")),
                    draws: draw_prefixes.map(|prefixes| prefixes.map(over_source)),
                }
            })
            .collect();

        // One row per distinct request, grouped by source.
        rows.sort_by_key(|r| (r.source, r.seq));
        let mut seqs: Vec<u64> = Vec::with_capacity(rows.len());
        let mut ends = vec![0usize; names.len()];
        let mut previous = None;
        for request in &mut rows {
            if previous != Some((request.source, request.seq)) {
                previous = Some((request.source, request.seq));
                seqs.push(request.seq);
            }
            request.row = u32::try_from(seqs.len() - 1).expect("fewer than 2^32 requests");
            ends[request.source as usize] = seqs.len();
        }

        let order = KeyOrder::new(&names);
        rows.sort_by(|a, b| a.at.cmp(&b.at).then_with(|| order.cmp(a, b)));

        let mut triples = vec![[ServiceDecision::Ok; 3]; seqs.len()];
        let mut injected = [0u64; 3];
        let mut digits = [0; 20];
        for request in &rows {
            let at = request.at;
            let seq = decimal_digits(request.seq, &mut digits);
            let source = &hashes[request.source as usize];
            let mut triple = [ServiceDecision::Ok; 3];
            for service in ScanService::ALL {
                let i = service.index();
                let compiler = &mut compilers[i];
                if compiler.profile.is_inert() {
                    continue;
                }
                let now_nanos = at * NANOS_PER_SEC;
                if !compiler.breaker.allows(now_nanos) {
                    triple[i] = ServiceDecision::BreakerSkip;
                    continue;
                }
                match compiler.fault_at(service, source.draws[i], seq, at) {
                    None => {
                        compiler.breaker.record_success();
                    }
                    Some(error) => {
                        let resolution = profile.retry.resolve_hashed(
                            fnv1a_extend(source.retry, seq),
                            now_nanos,
                            error.clears_at_secs * NANOS_PER_SEC,
                        );
                        injected[i] += u64::from(resolution.failed_attempts);
                        if resolution.resolved {
                            compiler.breaker.record_success();
                        } else {
                            compiler
                                .breaker
                                .record_failure(now_nanos + resolution.backoff_nanos);
                        }
                        triple[i] =
                            ServiceDecision::Faulted { kind: error.kind, resolution };
                    }
                }
            }
            triples[request.row as usize] = triple;
        }

        let mut start = 0;
        let sources = names
            .iter()
            .zip(ends)
            .map(|(name, end)| ((*name).into(), (std::mem::replace(&mut start, end), end)))
            .collect();
        FaultPlan {
            sources,
            seqs,
            triples,
            breaker_opens: [
                compilers[0].breaker.opens(),
                compilers[1].breaker.opens(),
                compilers[2].breaker.opens(),
            ],
            breaker_final: [
                compilers[0].breaker.state(),
                compilers[1].breaker.state(),
                compilers[2].breaker.state(),
            ],
            injected,
        }
    }

    /// The decision triple for one request key (all-Ok for unknown
    /// keys, so a plan compiled over a subset degrades safely, and for
    /// keys that are not `exchange#seq`, which no plan covers).
    pub fn decisions(&self, key: &str) -> [ServiceDecision; 3] {
        match split_key(key) {
            Some((exchange, seq)) => self.decisions_for(exchange, seq),
            None => [ServiceDecision::Ok; 3],
        }
    }

    /// The decision triple for the record identified by `exchange` and
    /// `seq` — the allocation-free form of [`FaultPlan::decisions`]
    /// (all-Ok for unknown records).
    pub fn decisions_for(&self, exchange: &str, seq: u64) -> [ServiceDecision; 3] {
        self.source(exchange).get(seq)
    }

    /// The decisions of one source's requests (none for a source the
    /// plan does not cover).
    pub fn source(&self, exchange: &str) -> SourceDecisions<'_> {
        let (start, end) = self.sources.get(exchange).copied().unwrap_or((0, 0));
        SourceDecisions { seqs: &self.seqs[start..end], triples: &self.triples[start..end] }
    }

    /// Number of requests the plan covers.
    pub fn len(&self) -> usize {
        self.seqs.len()
    }

    /// True when the plan covers no requests.
    pub fn is_empty(&self) -> bool {
        self.seqs.is_empty()
    }

    /// Total injected faults (failed attempts) planned for a service.
    pub fn injected(&self, service: ScanService) -> u64 {
        self.injected[service.index()]
    }

    /// How many times a service's breaker tripped open during the walk.
    pub fn breaker_opens(&self, service: ScanService) -> u64 {
        self.breaker_opens[service.index()]
    }

    /// The breaker state a service ended the walk in.
    pub fn breaker_final_state(&self, service: ScanService) -> BreakerState {
        self.breaker_final[service.index()]
    }
}

/// Seeded outage windows for one service: starts uniform over the span,
/// clipped to the profile's window length.
fn outage_windows(
    profile: &ServiceFaultProfile,
    service: ScanService,
    salt: u64,
    span_secs: u64,
) -> Vec<(u64, u64)> {
    (0..profile.outage_windows)
        .map(|w| {
            let h = fnv1a(format!("{salt}/{}/outage/{w}", service.name()).as_bytes());
            let start = h % span_secs.max(1);
            (start, start.saturating_add(profile.outage_secs))
        })
        .collect()
}

/// The string-keyed compiler this module replaced: it formats every
/// request's `exchange#seq` key, walks the keys in `(at, key)` order,
/// hashes each draw and retry over the whole key and keeps one map
/// entry per request. Kept as the reference model for the record-keyed
/// compiler above.
#[cfg(test)]
mod oracle {
    use std::collections::HashMap;

    use super::{
        outage_windows, split_key, BreakerState, CircuitBreaker, FaultKind, FaultProfile,
        ScanError, ScanService, ServiceDecision, ServiceFaultProfile, NANOS_PER_SEC,
    };
    use crate::hash::{fnv1a, fnv1a_extend, hashed_fraction};
    use crate::retry;

    struct ServiceCompiler {
        profile: ServiceFaultProfile,
        windows: Vec<(u64, u64)>,
        tokens: f64,
        last_refill_secs: u64,
        breaker: CircuitBreaker,
        spike_prefix: u64,
        transient_prefix: u64,
    }

    impl ServiceCompiler {
        fn fault_at(&mut self, service: ScanService, key: &str, at: u64) -> Option<ScanError> {
            if let Some(&(_, end)) =
                self.windows.iter().find(|(start, end)| (*start..*end).contains(&at))
            {
                return Some(ScanError { service, kind: FaultKind::Outage, clears_at_secs: end });
            }
            if self.profile.rate_per_minute > 0 {
                let rate_per_sec = f64::from(self.profile.rate_per_minute) / 60.0;
                let elapsed = at.saturating_sub(self.last_refill_secs) as f64;
                self.tokens =
                    (self.tokens + elapsed * rate_per_sec).min(f64::from(self.profile.burst));
                self.last_refill_secs = at;
                if self.tokens >= 1.0 {
                    self.tokens -= 1.0;
                } else {
                    let wait_secs = ((1.0 - self.tokens) / rate_per_sec).ceil() as u64;
                    return Some(ScanError {
                        service,
                        kind: FaultKind::RateLimit,
                        clears_at_secs: at + wait_secs.max(1),
                    });
                }
            }
            let draw = |prefix: u64, per_mille: u32| {
                per_mille > 0
                    && hashed_fraction(fnv1a_extend(prefix, key.as_bytes()))
                        < f64::from(per_mille) / 1000.0
            };
            if draw(self.spike_prefix, self.profile.spike_per_mille) {
                return Some(ScanError {
                    service,
                    kind: FaultKind::LatencySpike,
                    clears_at_secs: at + self.profile.spike_penalty_secs,
                });
            }
            if draw(self.transient_prefix, self.profile.transient_per_mille) {
                return Some(ScanError {
                    service,
                    kind: FaultKind::Transient,
                    clears_at_secs: at + 1,
                });
            }
            None
        }
    }

    pub struct FaultPlan {
        decisions: HashMap<String, HashMap<u64, [ServiceDecision; 3]>>,
        covered: usize,
        pub breaker_opens: [u64; 3],
        pub breaker_final: [BreakerState; 3],
        pub injected: [u64; 3],
    }

    impl FaultPlan {
        pub fn compile(profile: &FaultProfile, seed: u64, requests: &[(String, u64)]) -> FaultPlan {
            let span_secs = requests.iter().map(|(_, at)| *at).max().unwrap_or(0) + 1;
            let salt = seed ^ profile.seed_salt.rotate_left(17);
            let mut compilers: Vec<ServiceCompiler> = ScanService::ALL
                .iter()
                .map(|service| {
                    let p = profile.service(*service).clone();
                    let windows = outage_windows(&p, *service, salt, span_secs);
                    let prefix = |draw: &str| {
                        fnv1a(format!("{salt}/{}/{draw}/", service.name()).as_bytes())
                    };
                    ServiceCompiler {
                        tokens: f64::from(p.burst),
                        last_refill_secs: 0,
                        windows,
                        breaker: CircuitBreaker::new(
                            profile.breaker_threshold,
                            profile.breaker_cooldown_secs * NANOS_PER_SEC,
                        ),
                        profile: p,
                        spike_prefix: prefix("spike"),
                        transient_prefix: prefix("transient"),
                    }
                })
                .collect();

            let mut order: Vec<&(String, u64)> = requests.iter().collect();
            order.sort_by(|a, b| (a.1, &a.0).cmp(&(b.1, &b.0)));

            let mut decisions: HashMap<String, HashMap<u64, [ServiceDecision; 3]>> =
                HashMap::new();
            let mut covered = 0usize;
            let mut injected = [0u64; 3];
            for (key, at) in order {
                let mut triple = [ServiceDecision::Ok; 3];
                for service in ScanService::ALL {
                    let i = service.index();
                    let compiler = &mut compilers[i];
                    if compiler.profile.is_inert() {
                        continue;
                    }
                    let now_nanos = at * NANOS_PER_SEC;
                    if !compiler.breaker.allows(now_nanos) {
                        triple[i] = ServiceDecision::BreakerSkip;
                        continue;
                    }
                    match compiler.fault_at(service, key, *at) {
                        None => compiler.breaker.record_success(),
                        Some(error) => {
                            let resolution = retry::oracle::resolve(
                                &profile.retry,
                                key,
                                now_nanos,
                                error.clears_at_secs * NANOS_PER_SEC,
                            );
                            injected[i] += u64::from(resolution.failed_attempts);
                            if resolution.resolved {
                                compiler.breaker.record_success();
                            } else {
                                compiler
                                    .breaker
                                    .record_failure(now_nanos + resolution.backoff_nanos);
                            }
                            triple[i] = ServiceDecision::Faulted { kind: error.kind, resolution };
                        }
                    }
                }
                let (exchange, seq) = split_key(key).expect("an `exchange#seq` key");
                let per_seq = decisions.entry(exchange.to_string()).or_default();
                if per_seq.insert(seq, triple).is_none() {
                    covered += 1;
                }
            }
            FaultPlan {
                decisions,
                covered,
                breaker_opens: std::array::from_fn(|i| compilers[i].breaker.opens()),
                breaker_final: std::array::from_fn(|i| compilers[i].breaker.state()),
                injected,
            }
        }

        pub fn decisions(&self, key: &str) -> [ServiceDecision; 3] {
            match split_key(key) {
                Some((exchange, seq)) => self.decisions_for(exchange, seq),
                None => [ServiceDecision::Ok; 3],
            }
        }

        pub fn decisions_for(&self, exchange: &str, seq: u64) -> [ServiceDecision; 3] {
            self.decisions
                .get(exchange)
                .and_then(|per_seq| per_seq.get(&seq))
                .copied()
                .unwrap_or_default()
        }

        pub fn len(&self) -> usize {
            self.covered
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn requests(n: u64, stride_secs: u64) -> Vec<(String, u64)> {
        (0..n).map(|i| (format!("X#{i}"), i * stride_secs)).collect()
    }

    #[test]
    fn inert_profile_compiles_to_all_ok() {
        let plan = FaultPlan::compile(&FaultProfile::none(), 7, &requests(50, 10));
        assert_eq!(plan.len(), 50);
        for i in 0..50 {
            let triple = plan.decisions(&format!("X#{i}"));
            assert_eq!(triple, [ServiceDecision::Ok; 3]);
        }
        for service in ScanService::ALL {
            assert_eq!(plan.injected(service), 0);
            assert_eq!(plan.breaker_opens(service), 0);
        }
    }

    #[test]
    fn default_profile_injects_and_recovers_some() {
        let plan = FaultPlan::compile(&FaultProfile::default_profile(), 2016, &requests(400, 5));
        let total: u64 = ScanService::ALL.iter().map(|s| plan.injected(*s)).sum();
        assert!(total > 0, "default profile must inject something over 400 requests");
        let mut recovered = 0u64;
        let mut failed = 0u64;
        for i in 0..400 {
            for d in plan.decisions(&format!("X#{i}")) {
                if let ServiceDecision::Faulted { resolution, .. } = d {
                    if resolution.resolved {
                        recovered += 1;
                    } else {
                        failed += 1;
                    }
                }
            }
        }
        assert!(recovered > 0, "retries must recover transient faults");
        assert!(failed > 0, "long outages must defeat the retry budget");
    }

    #[test]
    fn compilation_is_deterministic_and_order_independent() {
        let profile = FaultProfile::harsh();
        let reqs = requests(200, 7);
        let a = FaultPlan::compile(&profile, 99, &reqs);
        let mut shuffled = reqs.clone();
        shuffled.reverse();
        let b = FaultPlan::compile(&profile, 99, &shuffled);
        for (key, _) in &reqs {
            assert_eq!(a.decisions(key), b.decisions(key), "{key}");
        }
        for service in ScanService::ALL {
            assert_eq!(a.injected(service), b.injected(service));
            assert_eq!(a.breaker_opens(service), b.breaker_opens(service));
        }
    }

    #[test]
    fn different_seeds_fault_different_requests() {
        let profile = FaultProfile::default_profile();
        let reqs = requests(300, 5);
        let a = FaultPlan::compile(&profile, 1, &reqs);
        let b = FaultPlan::compile(&profile, 2, &reqs);
        let differs = reqs.iter().any(|(key, _)| a.decisions(key) != b.decisions(key));
        assert!(differs, "seed must steer the fault schedule");
    }

    #[test]
    fn rate_limit_throttles_a_burst() {
        // 10 requests in the same virtual second against a 4-burst
        // bucket: exactly 4 admitted, 6 rate-limited (deterministic
        // because ties sort by key).
        let profile = FaultProfile {
            services: [
                ServiceFaultProfile {
                    rate_per_minute: 4,
                    burst: 4,
                    ..ServiceFaultProfile::reliable()
                },
                ServiceFaultProfile::reliable(),
                ServiceFaultProfile::reliable(),
            ],
            retry: RetryPolicy::no_retries(),
            ..FaultProfile::none()
        };
        let reqs: Vec<(String, u64)> = (0..10).map(|i| (format!("X#{i:02}"), 0)).collect();
        let plan = FaultPlan::compile(&profile, 5, &reqs);
        let limited = reqs
            .iter()
            .filter(|(key, _)| {
                matches!(
                    plan.decisions(key)[ScanService::VirusTotal.index()],
                    ServiceDecision::Faulted { kind: FaultKind::RateLimit, .. }
                )
            })
            .count();
        assert_eq!(limited, 6);
    }

    #[test]
    fn breaker_opens_under_sustained_outage() {
        // One long outage covering the whole span and no retries: the
        // breaker must trip after `breaker_threshold` failures and skip
        // later requests.
        let profile = FaultProfile {
            services: [
                ServiceFaultProfile {
                    outage_windows: 1,
                    outage_secs: 1_000_000,
                    ..ServiceFaultProfile::reliable()
                },
                ServiceFaultProfile::reliable(),
                ServiceFaultProfile::reliable(),
            ],
            retry: RetryPolicy::no_retries(),
            breaker_threshold: 3,
            breaker_cooldown_secs: 1_000_000,
            ..FaultProfile::none()
        };
        let plan = FaultPlan::compile(&profile, 11, &requests(50, 1));
        assert!(plan.breaker_opens(ScanService::VirusTotal) >= 1);
        let skips = (0..50)
            .filter(|i| {
                plan.decisions(&format!("X#{i}"))[0] == ServiceDecision::BreakerSkip
            })
            .count();
        assert!(skips > 0, "open breaker must skip requests");
    }

    #[test]
    fn decisions_for_agrees_with_string_keys() {
        let plan = FaultPlan::compile(&FaultProfile::harsh(), 42, &requests(120, 3));
        for i in 0..120u64 {
            assert_eq!(plan.decisions(&format!("X#{i}")), plan.decisions_for("X", i), "seq {i}");
        }
        assert_eq!(plan.decisions_for("unknown-exchange", 0), [ServiceDecision::Ok; 3]);
        assert_eq!(plan.len(), 120);
    }

    /// SplitMix64: the next draw from `state`.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Source names where one `name#` is a prefix of another's
    /// (`X`, `X#1`) or sorts around the `#` (`X!`, `X0`), and names
    /// that are prefixes of each other (`Ad`, `AdRotor`).
    const SOURCES: [&str; 8] = ["Ad", "AdRotor", "X", "X#1", "X!", "X0", "10KHits", "Hit"];

    /// Seqs across digit boundaries, sparse ones and one near `u64::MAX`.
    const SEQS: [u64; 12] =
        [0, 1, 7, 9, 10, 11, 99, 100, 101, 12_345, 1 << 40, 18_446_744_073_709_551_000];

    /// A corpus of 2–5 sources: arrivals cluster at a few widely spaced
    /// seconds (so requests tie across sources and outage windows
    /// scatter), seqs come from [`SEQS`] or a sparse draw, and keys
    /// repeat, with the same or another arrival.
    fn draw_requests(state: &mut u64) -> Vec<(String, u64)> {
        let mut names: Vec<&str> = Vec::new();
        let wanted = 2 + (next(state) % 4) as usize;
        while names.len() < wanted {
            let name = SOURCES[(next(state) % SOURCES.len() as u64) as usize];
            if !names.contains(&name) {
                names.push(name);
            }
        }
        const CLUSTERS: [u64; 4] = [0, 5_000, 40_000, 90_000];
        let n = (next(state) % 120) as usize;
        let mut requests: Vec<(String, u64)> = Vec::with_capacity(n);
        for _ in 0..n {
            let at = CLUSTERS[(next(state) % 4) as usize] + next(state) % 3;
            if !requests.is_empty() && next(state).is_multiple_of(8) {
                // A key again: at the same arrival or another.
                let pick = (next(state) % requests.len() as u64) as usize;
                let (key, first_at) = requests[pick].clone();
                requests.push((key, if next(state).is_multiple_of(2) { first_at } else { at }));
                continue;
            }
            let name = names[(next(state) % names.len() as u64) as usize];
            let seq = match next(state) % 4 {
                0 => next(state) >> (next(state) % 64),
                _ => SEQS[(next(state) % SEQS.len() as u64) as usize],
            };
            requests.push((format!("{name}#{seq}"), at));
        }
        // Shuffle.
        for i in (1..requests.len()).rev() {
            requests.swap(i, (next(state) % (i as u64 + 1)) as usize);
        }
        requests
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(600))]

        /// The record-keyed compiler makes every decision, count and
        /// breaker trajectory the string-keyed one made, under every
        /// named profile.
        #[test]
        fn plan_matches_the_string_keyed_reference_model(seed in any::<u64>()) {
            let mut state = seed;
            let requests = draw_requests(&mut state);
            let profiles =
                [FaultProfile::none(), FaultProfile::default_profile(), FaultProfile::harsh()];
            let profile = &profiles[(next(&mut state) % 3) as usize];
            let plan_seed = next(&mut state);
            let plan = FaultPlan::compile(profile, plan_seed, &requests);
            let model = oracle::FaultPlan::compile(profile, plan_seed, &requests);
            let absent = ["X#2", "Nobody#0", "Ad#18446744073709551615", "AdRotor", "#5", ""];
            let keys = requests.iter().map(|(key, _)| key.as_str()).chain(absent);
            for key in keys {
                let (got, want) = (plan.decisions(key), model.decisions(key));
                prop_assert_eq!(got, want, "{} in {:?}", key, requests);
                if let Some((source, seq)) = split_key(key) {
                    let got = plan.decisions_for(source, seq);
                    prop_assert_eq!(got, model.decisions_for(source, seq));
                }
            }
            prop_assert_eq!(plan.len(), model.len());
            for service in ScanService::ALL {
                let i = service.index();
                prop_assert_eq!(plan.injected(service), model.injected[i], "{:?}", requests);
                prop_assert_eq!(plan.breaker_opens(service), model.breaker_opens[i]);
                prop_assert_eq!(plan.breaker_final_state(service), model.breaker_final[i]);
            }
        }
    }

    #[test]
    fn a_sparse_seq_costs_one_row() {
        let requests = [("X#18446744073709551000".to_string(), 3), ("X#0".to_string(), 3)];
        let plan = FaultPlan::compile(&FaultProfile::harsh(), 1, &requests);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.seqs, [0, 18_446_744_073_709_551_000]);
        assert_eq!(plan.decisions_for("X", 1), [ServiceDecision::Ok; 3]);
    }

    #[test]
    fn named_profiles_parse_and_validate() {
        for name in FaultProfile::NAMES {
            let profile = FaultProfile::parse(name).expect(name);
            profile.validate().expect(name);
        }
        assert_eq!(FaultProfile::parse("off").map(|p| p.name), Some("none".to_string()));
        assert!(FaultProfile::parse("chaos-monkey").is_none());
        assert!(FaultProfile::none().is_inert());
        assert!(!FaultProfile::default_profile().is_inert());
    }

    #[test]
    fn validation_rejects_nonsense() {
        let mut bad = FaultProfile::default_profile();
        bad.services[0].transient_per_mille = 1_001;
        assert!(bad.validate().is_err());

        let mut bad = FaultProfile::default_profile();
        bad.services[1].rate_per_minute = 10;
        bad.services[1].burst = 0;
        assert!(bad.validate().is_err());

        let mut bad = FaultProfile::default_profile();
        bad.services[0].outage_secs = 0;
        assert!(bad.validate().is_err());
    }
}
