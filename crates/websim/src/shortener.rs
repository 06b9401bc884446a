//! URL-shortening services with public hit statistics.
//!
//! The paper's Table IV reports, for each malicious shortened URL found
//! on the exchanges: the shortened URL's hit count, the long URL's
//! (aggregate) hit count, the top visitor country and the top referrer.
//! This module models exactly that observable surface: services register
//! short codes, resolving a code records a hit attributed to the
//! visitor's country and referrer, and the "public statistics page" is a
//! query API.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use serde::{Deserialize, Serialize};

use crate::url::Url;

/// The shortening services observed in the paper's Table IV.
pub const SERVICES: [&str; 7] =
    ["goo.gl", "bit.ly", "j.mp", "tiny.cc", "zapit.nu", "tr.im", "mbcurl.me"];

/// Per-code statistics.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct ShortStats {
    /// Total resolutions.
    pub hits: u64,
    /// Hits by visitor country.
    pub by_country: HashMap<String, u64>,
    /// Hits by referrer domain.
    pub by_referrer: HashMap<String, u64>,
}

impl ShortStats {
    /// The country contributing the most hits.
    pub fn top_country(&self) -> Option<&str> {
        top_of(&self.by_country)
    }

    /// The referrer contributing the most hits (`None` when hits carried
    /// no referrer — rendered as "-" in Table IV).
    pub fn top_referrer(&self) -> Option<&str> {
        top_of(&self.by_referrer)
    }
}

fn top_of(map: &HashMap<String, u64>) -> Option<&str> {
    map.iter()
        .max_by_key(|(name, count)| (**count, std::cmp::Reverse(name.as_str())))
        .map(|(name, _)| name.as_str())
}

/// One registered short code.
#[derive(Debug, Clone)]
struct ShortEntry {
    target: Url,
    stats: ShortStats,
}

/// A URL-shortening service.
///
/// Thread-safe: resolution happens concurrently from crawler workers.
#[derive(Debug)]
pub struct ShortenerService {
    host: String,
    entries: Mutex<HashMap<String, ShortEntry>>,
}

impl ShortenerService {
    /// Creates an empty service at `host` (e.g. `"goo.gl"`).
    pub fn new(host: impl Into<String>) -> Self {
        ShortenerService { host: host.into(), entries: Mutex::new(HashMap::new()) }
    }

    /// The service's host name.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// The code table, ignoring poison from a panicked holder.
    fn entries(&self) -> MutexGuard<'_, HashMap<String, ShortEntry>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers `target` under `code` and returns the short URL.
    /// Re-registering a code overwrites its target but keeps statistics.
    pub fn register(&self, code: &str, target: Url) -> Url {
        let mut entries = self.entries();
        entries
            .entry(code.to_string())
            .and_modify(|e| e.target = target.clone())
            .or_insert_with(|| ShortEntry { target, stats: ShortStats::default() });
        Url::http(&self.host, &format!("/{code}"))
    }

    /// Resolves `code`, recording a hit from `country` with `referrer`
    /// (empty referrer counts toward no referrer). Returns the target.
    pub fn resolve(&self, code: &str, country: &str, referrer: &str) -> Option<Url> {
        let mut entries = self.entries();
        let entry = entries.get_mut(code)?;
        entry.stats.hits += 1;
        *entry.stats.by_country.entry(country.to_string()).or_insert(0) += 1;
        if !referrer.is_empty() {
            *entry.stats.by_referrer.entry(referrer.to_string()).or_insert(0) += 1;
        }
        Some(entry.target.clone())
    }

    /// Peeks at the target of a code without recording a hit (used by
    /// scanners following short links "offline").
    pub fn peek(&self, code: &str) -> Option<Url> {
        self.entries().get(code).map(|e| e.target.clone())
    }

    /// Public statistics page for a code.
    pub fn stats(&self, code: &str) -> Option<ShortStats> {
        self.entries().get(code).map(|e| e.stats.clone())
    }

    /// Aggregate hit count across every code of *this service* whose
    /// target equals `long_url`. (Table IV: "a URL may have multiple
    /// shortened URLs pointing to itself".)
    pub fn long_url_hits(&self, long_url: &Url) -> u64 {
        self.entries().values().filter(|e| &e.target == long_url).map(|e| e.stats.hits).sum()
    }

    /// Seeds pre-existing organic traffic onto a code: `hits` visits from
    /// `country` with `referrer`. Table IV's multi-million hit counts
    /// predate the study's crawl, so the generator installs them up
    /// front.
    pub fn seed_traffic(&self, code: &str, hits: u64, country: &str, referrer: &str) {
        let mut entries = self.entries();
        if let Some(entry) = entries.get_mut(code) {
            entry.stats.hits += hits;
            *entry.stats.by_country.entry(country.to_string()).or_insert(0) += hits;
            if !referrer.is_empty() {
                *entry.stats.by_referrer.entry(referrer.to_string()).or_insert(0) += hits;
            }
        }
    }

    /// All registered codes (sorted, for deterministic iteration).
    pub fn codes(&self) -> Vec<String> {
        let mut codes: Vec<String> = self.entries().keys().cloned().collect();
        codes.sort();
        codes
    }
}

/// Registry of all shortening services in the simulation.
#[derive(Debug, Default)]
pub struct ShortenerRegistry {
    services: Vec<ShortenerService>,
}

impl ShortenerRegistry {
    /// Creates a registry with the paper's seven services.
    pub fn with_standard_services() -> Self {
        ShortenerRegistry {
            services: SERVICES.iter().map(|h| ShortenerService::new(*h)).collect(),
        }
    }

    /// Looks a service up by host.
    pub fn service(&self, host: &str) -> Option<&ShortenerService> {
        self.services.iter().find(|s| s.host == host)
    }

    /// All services.
    pub fn services(&self) -> &[ShortenerService] {
        &self.services
    }

    /// True when `host` is a known shortening service.
    pub fn is_shortener_host(&self, host: &str) -> bool {
        self.services.iter().any(|s| s.host == host)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn target() -> Url {
        Url::parse("http://longsite.example.com/landing").unwrap()
    }

    #[test]
    fn register_and_resolve_records_stats() {
        let svc = ShortenerService::new("goo.gl");
        let short = svc.register("VAdNHA", target());
        assert_eq!(short.to_string(), "http://goo.gl/VAdNHA");
        for _ in 0..3 {
            assert_eq!(svc.resolve("VAdNHA", "Brazil", "torrentcompleto.example"), Some(target()));
        }
        svc.resolve("VAdNHA", "USA", "10khits.example");
        let stats = svc.stats("VAdNHA").unwrap();
        assert_eq!(stats.hits, 4);
        assert_eq!(stats.top_country(), Some("Brazil"));
        assert_eq!(stats.top_referrer(), Some("torrentcompleto.example"));
    }

    #[test]
    fn unknown_code_resolves_none() {
        let svc = ShortenerService::new("bit.ly");
        assert_eq!(svc.resolve("nope", "USA", ""), None);
        assert!(svc.stats("nope").is_none());
    }

    #[test]
    fn peek_does_not_count() {
        let svc = ShortenerService::new("tiny.cc");
        svc.register("abc", target());
        svc.peek("abc");
        svc.peek("abc");
        assert_eq!(svc.stats("abc").unwrap().hits, 0);
    }

    #[test]
    fn long_url_hits_aggregate_across_codes() {
        let svc = ShortenerService::new("goo.gl");
        svc.register("a1", target());
        svc.register("a2", target());
        svc.register("other", Url::parse("http://elsewhere.example/").unwrap());
        svc.resolve("a1", "USA", "");
        svc.resolve("a2", "USA", "");
        svc.resolve("a2", "USA", "");
        svc.resolve("other", "USA", "");
        assert_eq!(svc.long_url_hits(&target()), 3);
    }

    #[test]
    fn empty_referrer_not_counted() {
        let svc = ShortenerService::new("tr.im");
        svc.register("x", target());
        svc.resolve("x", "USA", "");
        assert_eq!(svc.stats("x").unwrap().top_referrer(), None);
    }

    #[test]
    fn seeded_traffic_shows_in_stats() {
        let svc = ShortenerService::new("j.mp");
        svc.register("1ERFrgM", target());
        svc.seed_traffic("1ERFrgM", 3_746_850, "USA", "tourseoul.ad-button.example");
        let stats = svc.stats("1ERFrgM").unwrap();
        assert_eq!(stats.hits, 3_746_850);
        assert_eq!(stats.top_referrer(), Some("tourseoul.ad-button.example"));
    }

    #[test]
    fn registry_has_standard_services() {
        let reg = ShortenerRegistry::with_standard_services();
        for host in SERVICES {
            assert!(reg.is_shortener_host(host), "{host} missing");
            assert!(reg.service(host).is_some());
        }
        assert!(!reg.is_shortener_host("example.com"));
    }

    #[test]
    fn reregistering_keeps_stats_changes_target() {
        let svc = ShortenerService::new("goo.gl");
        svc.register("c", target());
        svc.resolve("c", "USA", "");
        let new_target = Url::parse("http://new.example/").unwrap();
        svc.register("c", new_target.clone());
        assert_eq!(svc.stats("c").unwrap().hits, 1);
        assert_eq!(svc.peek("c"), Some(new_target));
    }

    #[test]
    fn top_of_tie_breaks_deterministically() {
        let svc = ShortenerService::new("goo.gl");
        svc.register("t", target());
        svc.resolve("t", "Brazil", "");
        svc.resolve("t", "USA", "");
        // Tie at 1–1: alphabetically-first name wins via Reverse ordering.
        assert_eq!(svc.stats("t").unwrap().top_country(), Some("Brazil"));
    }
}
