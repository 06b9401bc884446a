//! # slum-detect
//!
//! The malware-detection substrate of the `malware-slums` reproduction of
//! *Malware Slums* (DSN 2016).
//!
//! The paper scanned its 1M-URL corpus with VirusTotal and Quttera
//! (chosen after vetting eight candidate tools on a gold-standard
//! malware set) plus six public domain blacklists. None of those 2015
//! services can be replayed, so this crate implements the *methodology*
//! against the synthetic web:
//!
//! - [`features`] — the shared static+dynamic feature extractor (DOM
//!   inspection via `slum-html`, sandboxed execution via `slum-js`);
//! - [`engine`] — per-engine detection models carrying the threat-label
//!   aliases the paper reports (`Virus.ScrInject.JS`,
//!   `Trojan:JS/Redirector`, `BehavesLike.JS.ExploitBlacole`, ...);
//! - [`virustotal`] — a multi-engine aggregator (k-of-n positives);
//! - [`quttera`] — a heuristic scanner producing detailed findings
//!   reports, the paper's source for malware categorization;
//! - [`blacklist`] — six blacklist databases with the ≥2-list consensus
//!   rule the paper uses to suppress stale-entry false positives;
//! - [`tools`] + [`vetting`] — models of all eight candidate tools and
//!   the gold-standard vetting experiment (§III-B) that selected
//!   VirusTotal and Quttera.
//!
//! Scanner clients fetch through [`slum_websim::SyntheticWeb::fetch`]
//! with a scanner identity, so cloaked pages evade URL-based scanning
//! exactly as the paper observed — and uploading crawler-captured
//! content defeats the cloak (§III, footnote 1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blacklist;
pub mod engine;
pub mod fault;
pub mod features;
pub mod hash;
pub mod js_modules;
pub mod quttera;
pub mod retry;
pub mod tools;
pub mod vetting;
pub mod virustotal;

pub use blacklist::{BlacklistDb, BlacklistVerdict};
pub use engine::{ClassSet, EngineModel, FeatureClass};
pub use fault::{
    FaultKind, FaultPlan, FaultProfile, ScanError, ScanService, ServiceDecision,
    ServiceFaultProfile,
};
pub use features::Features;
pub use js_modules::JsModuleCache;
pub use quttera::{Quttera, QutteraFinding, QutteraReport};
pub use retry::{BreakerState, CircuitBreaker, Resolution, RetryPolicy};
pub use virustotal::{VirusTotal, VtReport};

/// Usage statistics of one memoization cache.
///
/// `hits` is derived as `lookups - entries`: the lookups are fixed by
/// the records scanned and the entries by the distinct keys among them,
/// so the figure never depends on which worker computed a key first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Total memoized lookups issued.
    pub lookups: u64,
    /// Distinct keys cached (== computations a serial run performs).
    pub entries: u64,
    /// Lookups served without a fresh computation (derived).
    pub hits: u64,
}

impl CacheStats {
    /// Stats of `lookups` lookups over `entries` distinct keys.
    pub fn new(lookups: u64, entries: u64) -> CacheStats {
        CacheStats { lookups, entries, hits: lookups.saturating_sub(entries) }
    }
}
