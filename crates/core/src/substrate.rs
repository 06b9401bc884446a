//! Traffic-substrate selection: which ecosystem the study crawls.
//!
//! The paper measured traffic exchanges; the reproduction generalizes
//! the pipeline behind the [`slum_exchange::TrafficSource`] contract so
//! the same crawler, referral filter, scan pipeline and artifact layer
//! run unchanged over three substrates:
//!
//! - [`Substrate::Exchange`] — the nine measured exchanges (the
//!   default; bit-identical to the pre-substrate pipeline).
//! - [`Substrate::AdNet`] — four synthetic ad networks serving
//!   malicious creatives through time-boxed malvertising flights
//!   ([`slum_adnet`]).
//! - [`Substrate::Torrent`] — three synthetic torrent index sites with
//!   fake publishers seeding scam/malware payload pages
//!   ([`slum_torrent`]).
//!
//! [`build_substrate`] is the single dispatch point: it installs the
//! substrate's population into one synthetic web and returns the boxed
//! sources, their step budgets, the referral filter that knows the
//! substrate's self/popular hosts, and per-source metadata the
//! artifact layer renders from (so artifact code never needs
//! substrate-specific profile tables).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use slum_crawler::drive::estimated_span_secs;
use slum_exchange::{ExchangeKind, TrafficSource};
use slum_websim::build::WebBuilder;
use slum_websim::SyntheticWeb;

use crate::filter::ReferralFilter;
use crate::study::{steps_for, StudyConfig};

/// Which traffic ecosystem a study crawls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Substrate {
    /// The nine traffic exchanges of the paper (default).
    #[default]
    Exchange,
    /// The four synthetic ad networks.
    AdNet,
    /// The three synthetic torrent index sites.
    Torrent,
}

impl Substrate {
    /// Every substrate, in canonical (CLI) order.
    pub const ALL: [Substrate; 3] = [Substrate::Exchange, Substrate::AdNet, Substrate::Torrent];

    /// Canonical CLI names, aligned with [`Substrate::ALL`].
    pub const NAMES: [&'static str; 3] = ["exchange", "adnet", "torrent"];

    /// The canonical CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Substrate::Exchange => "exchange",
            Substrate::AdNet => "adnet",
            Substrate::Torrent => "torrent",
        }
    }

    /// Parses a CLI name (a few aliases are accepted).
    pub fn parse(name: &str) -> Option<Substrate> {
        match name.to_ascii_lowercase().as_str() {
            "exchange" | "exchanges" => Some(Substrate::Exchange),
            "adnet" | "ad-network" | "adnetwork" => Some(Substrate::AdNet),
            "torrent" | "torrents" => Some(Substrate::Torrent),
            _ => None,
        }
    }
}

/// Per-source metadata the artifact layer iterates instead of a
/// substrate-specific profile table: one entry per traffic source, in
/// the substrate's canonical order (which is also crawl input order).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SourceMeta {
    /// Source display name (matches `CrawlRecord::exchange`).
    pub name: String,
    /// Pacing class.
    pub kind: ExchangeKind,
}

/// Everything the crawl phase needs, produced by [`build_substrate`].
pub struct BuiltSubstrate {
    /// The populated synthetic web.
    pub web: SyntheticWeb,
    /// The traffic sources, boxed behind the trait.
    pub sources: Vec<Box<dyn TrafficSource + Send>>,
    /// Per-source metadata, aligned with `sources`.
    pub meta: Vec<SourceMeta>,
    /// Referral filter knowing the substrate's self/popular hosts.
    pub filter: ReferralFilter,
    /// Crawl step budget per source name.
    pub steps: BTreeMap<String, u64>,
}

/// Builds the configured substrate's population and sources.
///
/// The exchange arm reproduces the pre-substrate build sequence
/// exactly — same builder calls in the same order off the same seed —
/// so `--substrate exchange` output stays bit-identical to the
/// pre-refactor pipeline (pinned by the golden-regression suite).
pub fn build_substrate(config: &StudyConfig) -> BuiltSubstrate {
    let mut builder = WebBuilder::new(config.seed);
    let (scale, domain_scale) = (config.crawl_scale, config.domain_scale);
    // Each source with its step budget, in canonical order.
    let (sources, filter): (Vec<(Box<dyn TrafficSource + Send>, u64)>, _) = match config.substrate {
        Substrate::Exchange => {
            let profiles = &slum_exchange::params::PROFILES;
            let sources = profiles
                .iter()
                .map(|p| {
                    let steps = steps_for(p.urls_crawled, scale);
                    let span = estimated_span_secs(p.min_surf_secs, p.kind, steps);
                    let x = slum_exchange::build_exchange(&mut builder, p, domain_scale, span);
                    (Box::new(x) as Box<dyn TrafficSource + Send>, steps)
                })
                .collect();
            (sources, ReferralFilter::from_profiles(profiles.iter()))
        }
        Substrate::AdNet => {
            let sources = slum_adnet::PROFILES
                .iter()
                .map(|p| {
                    let steps = steps_for(p.urls_crawled, scale);
                    let span = estimated_span_secs(p.min_surf_secs, p.kind, steps);
                    let n = slum_adnet::build_ad_network(&mut builder, p, domain_scale, span);
                    (Box::new(n) as Box<dyn TrafficSource + Send>, steps)
                })
                .collect();
            let filter = ReferralFilter::from_hosts(
                slum_adnet::PROFILES.iter().map(|p| p.host.to_string()),
                slum_adnet::PREMIUM_HOSTS.iter().map(|h| h.to_string()),
            );
            (sources, filter)
        }
        Substrate::Torrent => {
            let sources = slum_torrent::PROFILES
                .iter()
                .map(|p| {
                    let steps = steps_for(p.urls_crawled, scale);
                    let span = estimated_span_secs(p.min_surf_secs, p.kind, steps);
                    let i = slum_torrent::build_torrent_index(&mut builder, p, domain_scale, span);
                    (Box::new(i) as Box<dyn TrafficSource + Send>, steps)
                })
                .collect();
            let filter = ReferralFilter::from_hosts(
                slum_torrent::PROFILES.iter().map(|p| p.host.to_string()),
                slum_torrent::MIRROR_HOSTS.iter().map(|h| h.to_string()),
            );
            (sources, filter)
        }
    };
    let meta = sources
        .iter()
        .map(|(source, _)| SourceMeta { name: source.name().to_string(), kind: source.kind() })
        .collect();
    let steps = sources.iter().map(|(source, steps)| (source.name().to_string(), *steps)).collect();
    let sources = sources.into_iter().map(|(source, _)| source).collect();
    BuiltSubstrate { web: builder.finish(), sources, meta, filter, steps }
}

/// One row of the substrate-comparison artifact: per-source malice
/// statistics in a substrate-agnostic shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubstrateRow {
    /// Source (exchange / ad network / torrent index) name.
    pub source: String,
    /// Pacing class.
    pub kind: ExchangeKind,
    /// Records crawled from this source.
    pub crawled: u64,
    /// Self-referrals filtered out.
    pub self_referrals: u64,
    /// Popular/premium/mirror referrals filtered out.
    pub popular_referrals: u64,
    /// Regular records scanned.
    pub regular: u64,
    /// Regular records judged malicious.
    pub malicious: u64,
}

impl SubstrateRow {
    /// Malicious fraction of regular records (0 when none).
    pub fn malicious_fraction(&self) -> f64 {
        if self.regular == 0 {
            0.0
        } else {
            self.malicious as f64 / self.regular as f64
        }
    }
}

/// The substrate-comparison artifact: the active substrate's
/// per-source malice statistics plus totals, in a shape identical
/// across substrates so runs over different substrates diff and
/// tabulate against each other directly (see the cross-substrate
/// recipe in `EXPERIMENTS.md`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubstrateComparison {
    /// Canonical name of the substrate that produced the rows.
    pub substrate: String,
    /// One row per source, in crawl input order.
    pub rows: Vec<SubstrateRow>,
}

impl SubstrateComparison {
    /// Total regular records across sources.
    pub fn total_regular(&self) -> u64 {
        self.rows.iter().map(|r| r.regular).sum()
    }

    /// Total malicious records across sources.
    pub fn total_malicious(&self) -> u64 {
        self.rows.iter().map(|r| r.malicious).sum()
    }

    /// Overall malicious fraction of regular records.
    pub fn overall_malicious_fraction(&self) -> f64 {
        let regular = self.total_regular();
        if regular == 0 {
            0.0
        } else {
            self.total_malicious() as f64 / regular as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for (s, name) in Substrate::ALL.iter().zip(Substrate::NAMES) {
            assert_eq!(s.name(), name);
            assert_eq!(Substrate::parse(name), Some(*s));
        }
        assert_eq!(Substrate::parse("Ad-Network"), Some(Substrate::AdNet));
        assert!(Substrate::parse("usenet").is_none());
    }

    #[test]
    fn default_is_exchange() {
        assert_eq!(Substrate::default(), Substrate::Exchange);
    }

    #[test]
    fn exchange_build_matches_legacy_sequence() {
        let config = StudyConfig::builder()
            .seed(99)
            .crawl_scale(0.0003)
            .domain_scale(0.03)
            .build()
            .unwrap();
        let built = build_substrate(&config);
        assert_eq!(built.sources.len(), 9);
        assert_eq!(built.meta.len(), 9);
        // Same step budgets the legacy step_fn computed.
        for p in &slum_exchange::params::PROFILES {
            assert_eq!(built.steps[p.name], steps_for(p.urls_crawled, config.crawl_scale));
        }
        // Same web population as the legacy build sequence.
        let mut legacy = WebBuilder::new(config.seed);
        for p in &slum_exchange::params::PROFILES {
            let steps = steps_for(p.urls_crawled, config.crawl_scale);
            let span = estimated_span_secs(p.min_surf_secs, p.kind, steps);
            slum_exchange::build_exchange(&mut legacy, p, config.domain_scale, span);
        }
        assert_eq!(built.web.len(), legacy.finish().len());
    }

    #[test]
    fn adnet_and_torrent_substrates_build() {
        for (substrate, n) in [(Substrate::AdNet, 4), (Substrate::Torrent, 3)] {
            let config = StudyConfig::builder()
                .seed(99)
                .crawl_scale(0.0005)
                .domain_scale(0.03)
                .substrate(substrate)
                .build()
                .unwrap();
            let built = build_substrate(&config);
            assert_eq!(built.sources.len(), n, "{substrate:?}");
            assert_eq!(built.meta.len(), n);
            assert_eq!(built.steps.len(), n);
            assert!(built.steps.values().all(|&steps| steps >= 40), "{substrate:?}");
            assert!(built.web.len() > 20, "{substrate:?} population");
            for (source, m) in built.sources.iter().zip(&built.meta) {
                assert_eq!(source.name(), m.name);
                assert_eq!(source.kind(), m.kind);
            }
        }
    }
}
