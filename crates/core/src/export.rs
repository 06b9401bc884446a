//! Machine-readable export of a completed study: every table and figure
//! as one JSON document, so downstream tooling (plotting, dashboards,
//! regression tracking) can consume the reproduction without touching
//! the Rust API.

use serde::Serialize;

use slum_detect::fault::ScanService;

use crate::categorize::Category;
use crate::study::Study;

/// The full study output as a serializable document.
#[derive(Debug, Clone, Serialize)]
pub struct StudyExport {
    /// Configuration echoes.
    pub seed: u64,
    /// Crawl scale used.
    pub crawl_scale: f64,
    /// Traffic substrate the study crawled (`exchange`, `adnet`, or
    /// `torrent`).
    pub substrate: String,
    /// Corpus statistics.
    pub corpus: CorpusExport,
    /// Table I rows.
    pub table1: Vec<Table1Export>,
    /// Table II rows.
    pub table2: Vec<Table2Export>,
    /// Table III rows (category, count, categorized share).
    pub table3: Vec<Table3Export>,
    /// Table IV rows.
    pub table4: Vec<Table4Export>,
    /// Figure 3 series, downsampled.
    pub fig3: Vec<Fig3Export>,
    /// Figure 5 histogram.
    pub fig5: Vec<(u32, u64)>,
    /// Figure 6 buckets.
    pub fig6: Vec<(String, u64)>,
    /// Figure 7 buckets.
    pub fig7: Vec<(String, u64)>,
    /// Fault-injection summary (all-zero for fault-free runs).
    pub faults: FaultSummaryExport,
    /// Crawl-resilience summary: crawl-fault profile, aggregate costs
    /// and per-exchange health (all-clean for fault-free runs).
    pub crawl_resilience: CrawlResilienceExport,
    /// Cross-substrate comparison rows: per-source malice tallies under
    /// the substrate this study ran. Join documents from runs with
    /// different `substrate` echoes to compare ecosystems.
    pub substrate_comparison: Vec<SubstrateRowExport>,
}

/// One traffic source's row in the substrate-comparison section.
#[derive(Debug, Clone, Serialize)]
pub struct SubstrateRowExport {
    /// Source name.
    pub source: String,
    /// Source kind label.
    pub kind: String,
    /// URLs crawled.
    pub crawled: u64,
    /// Regular URLs.
    pub regular: u64,
    /// Malicious URLs.
    pub malicious: u64,
    /// Malicious fraction.
    pub malicious_fraction: f64,
}

/// Crawl-resilience summary: which crawl-fault profile ran, what it
/// cost in aggregate, and the per-exchange health logs. Fully
/// deterministic (derived from the health logs, never from wall-clock
/// or resume bookkeeping), so a resumed run exports byte-identical
/// JSON to an uninterrupted one.
#[derive(Debug, Clone, Serialize)]
pub struct CrawlResilienceExport {
    /// Crawl-fault-profile name (`none` for fault-free runs).
    pub profile: String,
    /// Surf slots lost to faults across all exchanges.
    pub lost_steps: u64,
    /// Faults injected during the crawl phase.
    pub faults_injected: u64,
    /// Retries issued against fault windows.
    pub retries: u64,
    /// Virtual seconds spent down (backoff + reconnects).
    pub downtime_secs: u64,
    /// Exchanges that permanently shut down mid-crawl.
    pub shutdowns: u64,
    /// Per-exchange health rows, in exchange input order.
    pub health: Vec<CrawlHealthExport>,
}

/// One exchange's crawl-health row.
#[derive(Debug, Clone, Serialize)]
pub struct CrawlHealthExport {
    /// Exchange name.
    pub exchange: String,
    /// Pages logged.
    pub pages: u64,
    /// Slots lost to faults.
    pub lost_steps: u64,
    /// Steps that hit an outage window.
    pub outage_hits: u64,
    /// Steps that hit an anti-abuse ban.
    pub ban_hits: u64,
    /// Steps that hit a CAPTCHA lockout.
    pub captcha_lockouts: u64,
    /// Surf sessions dropped after a logged page.
    pub session_drops: u64,
    /// Virtual seconds this exchange's crawl spent down.
    pub downtime_secs: u64,
    /// Virtual second of the permanent shutdown, if one hit.
    pub shutdown_at: Option<u64>,
}

/// Fault-layer summary: which profile ran, what it cost, and where the
/// circuit breakers ended up. Derived from the study's deterministic
/// counters, so the section is identical for every worker count.
#[derive(Debug, Clone, Serialize)]
pub struct FaultSummaryExport {
    /// Fault-profile name (`none` for fault-free runs).
    pub profile: String,
    /// Faults injected during the scan phase.
    pub injected: u64,
    /// Retries issued.
    pub retries: u64,
    /// Virtual backoff spent between attempts (nanoseconds).
    pub backoff_nanos: u64,
    /// Service consultations skipped by an open breaker.
    pub breaker_skips: u64,
    /// Verdicts with at least one scanner up while something was down.
    pub degraded_verdicts: u64,
    /// Verdicts from the blacklist consensus alone.
    pub blacklist_only_verdicts: u64,
    /// Verdicts with no service available at all.
    pub unresolved_verdicts: u64,
    /// Per-service breaker trajectory.
    pub breakers: Vec<BreakerExport>,
}

/// One service's circuit-breaker summary.
#[derive(Debug, Clone, Serialize)]
pub struct BreakerExport {
    /// Service name.
    pub service: String,
    /// Times the breaker tripped open.
    pub opens: u64,
    /// Final state gauge (0 closed, 1 open, 2 half-open).
    pub final_state: i64,
}

/// Corpus-level statistics.
#[derive(Debug, Clone, Serialize)]
pub struct CorpusExport {
    /// Total visits logged.
    pub visits: usize,
    /// Distinct URLs.
    pub distinct_urls: usize,
    /// Distinct registered domains.
    pub distinct_domains: usize,
    /// Overall malicious fraction of regular URLs.
    pub overall_malicious_fraction: f64,
}

/// One Table I row.
#[derive(Debug, Clone, Serialize)]
pub struct Table1Export {
    /// Exchange name.
    pub exchange: String,
    /// Exchange kind label.
    pub kind: String,
    /// URLs crawled.
    pub crawled: u64,
    /// Self-referrals.
    pub self_referrals: u64,
    /// Popular referrals.
    pub popular_referrals: u64,
    /// Regular URLs.
    pub regular: u64,
    /// Malicious URLs.
    pub malicious: u64,
    /// Malicious fraction.
    pub malicious_fraction: f64,
}

/// One Table II row.
#[derive(Debug, Clone, Serialize)]
pub struct Table2Export {
    /// Exchange name.
    pub exchange: String,
    /// Distinct domains.
    pub domains: u64,
    /// Malware-hosting domains.
    pub malware_domains: u64,
    /// Malware fraction.
    pub malware_fraction: f64,
}

/// One Table III row.
#[derive(Debug, Clone, Serialize)]
pub struct Table3Export {
    /// Category label.
    pub category: String,
    /// Count.
    pub count: u64,
    /// Share among categorized malicious URLs (0 for miscellaneous).
    pub categorized_share: f64,
}

/// One Table IV row.
#[derive(Debug, Clone, Serialize)]
pub struct Table4Export {
    /// Shortened URL.
    pub short_url: String,
    /// Short-URL hits.
    pub short_hits: u64,
    /// Aggregate long-URL hits.
    pub long_url_hits: u64,
    /// Top visitor country.
    pub top_country: String,
    /// Top referrer.
    pub top_referrer: String,
}

/// One Figure 3 series.
#[derive(Debug, Clone, Serialize)]
pub struct Fig3Export {
    /// Exchange name.
    pub exchange: String,
    /// `(crawled index, cumulative malicious)` samples.
    pub samples: Vec<(usize, u64)>,
    /// Burstiness score.
    pub burstiness: f64,
}

/// Builds the export document from a completed study through the
/// study's typed artifact builders.
pub fn export(study: &Study) -> StudyExport {
    let table1 = study.table1();
    let counts = study.table3();
    StudyExport {
        seed: study.config().seed,
        crawl_scale: study.config().crawl_scale,
        substrate: study.config().substrate.name().to_string(),
        corpus: CorpusExport {
            visits: study.store.len(),
            distinct_urls: study.facts.urls,
            distinct_domains: study.facts.domains,
            overall_malicious_fraction: table1.overall_malicious_fraction(),
        },
        table1: table1
            .rows
            .iter()
            .map(|r| Table1Export {
                exchange: r.exchange.clone(),
                kind: r.kind.clone(),
                crawled: r.crawled,
                self_referrals: r.self_referrals,
                popular_referrals: r.popular_referrals,
                regular: r.regular,
                malicious: r.malicious,
                malicious_fraction: r.malicious_fraction(),
            })
            .collect(),
        table2: study
            .table2()
            .iter()
            .map(|r| Table2Export {
                exchange: r.exchange.clone(),
                domains: r.domains,
                malware_domains: r.malware_domains,
                malware_fraction: r.malware_fraction(),
            })
            .collect(),
        table3: Category::ALL
            .iter()
            .map(|c| Table3Export {
                category: c.label().to_string(),
                count: counts.count(*c),
                categorized_share: counts.categorized_share(*c),
            })
            .collect(),
        table4: study
            .table4()
            .iter()
            .map(|r| Table4Export {
                short_url: r.short_url.to_string(),
                short_hits: r.short_hits,
                long_url_hits: r.long_url_hits,
                top_country: r.top_country.clone(),
                top_referrer: r.top_referrer.clone(),
            })
            .collect(),
        fig3: study
            .fig3()
            .iter()
            .map(|s| Fig3Export {
                exchange: s.exchange.clone(),
                samples: s.downsample(50),
                burstiness: s.burstiness((s.len() / 20).max(5)),
            })
            .collect(),
        fig5: study.fig5().counts.into_iter().collect(),
        fig6: study.fig6().counts.into_iter().collect(),
        fig7: study.fig7().counts.into_iter().collect(),
        faults: fault_summary(study),
        crawl_resilience: crawl_resilience_summary(study),
        substrate_comparison: study
            .substrate_comparison()
            .rows
            .iter()
            .map(|r| SubstrateRowExport {
                source: r.source.clone(),
                kind: r.kind.label().to_string(),
                crawled: r.crawled,
                regular: r.regular,
                malicious: r.malicious,
                malicious_fraction: r.malicious_fraction(),
            })
            .collect(),
    }
}

/// Builds the crawl-resilience section from the per-exchange health
/// logs.
fn crawl_resilience_summary(study: &Study) -> CrawlResilienceExport {
    let health = &study.health;
    let sum = |f: fn(&slum_crawler::CrawlHealth) -> u64| health.iter().map(f).sum::<u64>();
    CrawlResilienceExport {
        profile: study.config().crawl_fault_profile.name.clone(),
        lost_steps: sum(|h| h.lost_steps),
        faults_injected: sum(|h| h.faults_injected),
        retries: sum(|h| h.retries),
        downtime_secs: sum(|h| h.downtime_secs),
        shutdowns: health.iter().filter(|h| h.shutdown_at.is_some()).count() as u64,
        health: health
            .iter()
            .map(|h| CrawlHealthExport {
                exchange: h.exchange.clone(),
                pages: h.pages,
                lost_steps: h.lost_steps,
                outage_hits: h.outage_hits,
                ban_hits: h.ban_hits,
                captcha_lockouts: h.captcha_lockouts,
                session_drops: h.session_drops,
                downtime_secs: h.downtime_secs,
                shutdown_at: h.shutdown_at,
            })
            .collect(),
    }
}

/// Builds the fault section from the study's deterministic counters.
fn fault_summary(study: &Study) -> FaultSummaryExport {
    let m = study.metrics();
    FaultSummaryExport {
        profile: study.config().fault_profile.name.clone(),
        injected: m.counter("scan.faults.injected"),
        retries: m.counter("scan.retries"),
        backoff_nanos: m.counter("scan.backoff_nanos"),
        breaker_skips: m.counter("scan.breaker.skips"),
        degraded_verdicts: m.counter("scan.degraded_verdicts"),
        blacklist_only_verdicts: m.counter("scan.blacklist_only_verdicts"),
        unresolved_verdicts: m.counter("scan.unresolved_verdicts"),
        breakers: ScanService::ALL
            .iter()
            .map(|service| BreakerExport {
                service: service.name().to_string(),
                opens: m.counter(&format!("scan.breaker.{}.opens", service.name())),
                final_state: m.gauge(&format!("scan.breaker.{}.state", service.name())),
            })
            .collect(),
    }
}

/// Serializes the export to pretty JSON, recorded as an
/// `export.to_json` span in the study's metrics.
///
/// # Errors
///
/// Propagates `serde_json` failures (practically unreachable).
pub fn to_json(study: &Study) -> Result<String, serde_json::Error> {
    let _span = study.obs.span("export.to_json");
    serde_json::to_string_pretty(&export(study))
}

/// FNV-1a digest of the study's export JSON — a compact artifact
/// fingerprint. Two studies digest equal iff their exports are
/// byte-identical, so this is what the slum-serve daemon reports in
/// study-status responses and what determinism checks compare without
/// shipping whole documents around.
///
/// # Errors
///
/// Propagates `serde_json` failures (practically unreachable).
pub fn artifact_digest(study: &Study) -> Result<String, serde_json::Error> {
    Ok(format!("{:016x}", slum_detect::hash::fnv1a(to_json(study)?.as_bytes())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::StudyConfig;

    fn tiny() -> Study {
        let config = StudyConfig::builder()
            .seed(500)
            .crawl_scale(0.0002)
            .domain_scale(0.03)
            .build()
            .expect("valid test config");
        Study::run(&config)
    }

    #[test]
    fn export_is_internally_consistent() {
        let study = tiny();
        let doc = export(&study);
        assert_eq!(doc.table1.len(), 9);
        assert_eq!(doc.table2.len(), 9);
        assert_eq!(doc.table3.len(), 6);
        assert_eq!(doc.fig3.len(), 9);
        let crawled: u64 = doc.table1.iter().map(|r| r.crawled).sum();
        assert_eq!(crawled as usize, doc.corpus.visits);
        let malicious_t1: u64 = doc.table1.iter().map(|r| r.malicious).sum();
        let malicious_t3: u64 = doc.table3.iter().map(|r| r.count).sum();
        assert_eq!(malicious_t1, malicious_t3);
    }

    #[test]
    fn fault_free_export_carries_inert_fault_section() {
        let doc = export(&tiny());
        assert_eq!(doc.faults.profile, "none");
        assert_eq!(doc.faults.injected, 0);
        assert_eq!(doc.faults.degraded_verdicts, 0);
        assert_eq!(doc.faults.breakers.len(), 3);
        assert!(doc.faults.breakers.iter().all(|b| b.opens == 0 && b.final_state == 0));
    }

    #[test]
    fn fault_free_export_carries_clean_crawl_resilience_section() {
        let doc = export(&tiny());
        let section = &doc.crawl_resilience;
        assert_eq!(section.profile, "none");
        assert_eq!(section.lost_steps, 0);
        assert_eq!(section.faults_injected, 0);
        assert_eq!(section.downtime_secs, 0);
        assert_eq!(section.shutdowns, 0);
        assert_eq!(section.health.len(), 9);
        assert!(section.health.iter().all(|h| h.lost_steps == 0 && h.shutdown_at.is_none()));
    }

    #[test]
    fn faulted_crawl_export_reports_losses() {
        let config = StudyConfig::builder()
            .seed(500)
            .crawl_scale(0.0002)
            .domain_scale(0.03)
            .crawl_fault_profile(slum_crawler::CrawlFaultProfile::default_profile())
            .build()
            .expect("valid test config");
        let doc = export(&Study::run(&config));
        let section = &doc.crawl_resilience;
        assert_eq!(section.profile, "default");
        assert!(section.faults_injected > 0);
        assert!(section.lost_steps > 0);
        // The corpus still covers all nine exchanges and Table I's
        // crawled column matches pages per health row.
        assert_eq!(doc.table1.len(), 9);
        for (row, h) in doc.table1.iter().zip(&section.health) {
            assert_eq!(row.exchange, h.exchange);
            assert_eq!(row.crawled, h.pages);
        }
    }

    #[test]
    fn export_carries_substrate_section() {
        let doc = export(&tiny());
        assert_eq!(doc.substrate, "exchange");
        assert_eq!(doc.substrate_comparison.len(), 9);
        for (row, t1) in doc.substrate_comparison.iter().zip(&doc.table1) {
            assert_eq!(row.source, t1.exchange);
            assert_eq!(row.crawled, t1.crawled);
            assert_eq!(row.malicious, t1.malicious);
        }
    }

    #[test]
    fn adnet_export_reports_its_own_sources() {
        let config = StudyConfig::builder()
            .seed(500)
            .crawl_scale(0.0002)
            .domain_scale(0.03)
            .substrate(crate::substrate::Substrate::AdNet)
            .build()
            .expect("valid test config");
        let doc = export(&Study::run(&config));
        assert_eq!(doc.substrate, "adnet");
        assert_eq!(doc.substrate_comparison.len(), 4);
        assert_eq!(doc.table1.len(), 4);
        assert_eq!(doc.crawl_resilience.health.len(), 4);
        let crawled: u64 = doc.substrate_comparison.iter().map(|r| r.crawled).sum();
        assert_eq!(crawled as usize, doc.corpus.visits);
    }

    #[test]
    fn json_serializes_and_carries_key_fields() {
        let study = tiny();
        let json = to_json(&study).expect("serialize");
        assert!(json.contains("\"overall_malicious_fraction\""));
        assert!(json.contains("SendSurf"));
        assert!(json.contains("\"Blacklisted\""));
        // Parses back as generic JSON.
        let value: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(value["table1"].as_array().map(Vec::len), Some(9));
    }
}
