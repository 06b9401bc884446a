//! Countermeasures (§VI).
//!
//! The paper's conclusion names two stakeholders who can act on its
//! findings: **ad networks**, who "should look out for potential fraud
//! in ad impressions, view counts, and clicks" (reputable networks like
//! AdSense and DoubleClick already ban traffic exchanges), and
//! **users**, who "could be shown a warning before they visit a traffic
//! exchange website, incorporated via a plugin or extension". This
//! module implements both as working prototypes over the simulation.

use std::collections::{BTreeMap, BTreeSet};

use slum_crawler::CrawlRecord;
use slum_detect::quttera::QutteraVerdict;
use slum_exchange::ExchangeProfile;

use crate::scanpipe::ScanOutcome;

/// An ad network's traffic-exchange fraud filter.
///
/// Classifies impressions by referrer: traffic generated through a
/// known exchange is fraudulent under the network's terms. Mirrors how
/// AdSense/DoubleClick vet impression figures.
#[derive(Debug, Clone)]
pub struct AdNetworkGuard {
    exchange_hosts: BTreeSet<String>,
}

/// Verdict for one ad impression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImpressionVerdict {
    /// Organic traffic — billable.
    Billable,
    /// Exchange-originated — fraudulent under network terms.
    ExchangeFraud,
}

/// Aggregate fraud report across a traffic log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FraudReport {
    /// Impressions judged billable.
    pub billable: u64,
    /// Impressions judged fraudulent.
    pub fraudulent: u64,
    /// Fraudulent impressions per exchange host.
    pub by_exchange: BTreeMap<String, u64>,
}

impl FraudReport {
    /// Fraction of impressions that were fraudulent.
    pub fn fraud_rate(&self) -> f64 {
        let total = self.billable + self.fraudulent;
        if total == 0 {
            0.0
        } else {
            self.fraudulent as f64 / total as f64
        }
    }
}

impl AdNetworkGuard {
    /// Builds a guard that knows the given exchanges.
    pub fn new<'a>(profiles: impl IntoIterator<Item = &'a ExchangeProfile>) -> Self {
        AdNetworkGuard {
            exchange_hosts: profiles.into_iter().map(|p| p.host.to_string()).collect(),
        }
    }

    /// Classifies one impression by the referrer chain of the page view
    /// that produced it. An impression is fraud when any hop of the
    /// delivering page's request chain is an exchange. Every referrer a
    /// page load sends is empty or a host of its chain, so the chain
    /// hosts cover the referrers of the load's HAR too.
    pub fn classify(&self, record: &CrawlRecord) -> ImpressionVerdict {
        let via_exchange = self.exchange_hosts.contains(record.url.host())
            || record.chain_hosts.iter().any(|h| self.exchange_hosts.contains(&**h));
        if via_exchange {
            ImpressionVerdict::ExchangeFraud
        } else {
            ImpressionVerdict::Billable
        }
    }

    /// Audits a full traffic log. In the crawl model every member-site
    /// visit arrives through an exchange surfbar, so the referrer field
    /// of the *first* request records the exchange; organic visits have
    /// none.
    pub fn audit(&self, records: &[CrawlRecord], surf_referrers: &[String]) -> FraudReport {
        assert_eq!(
            records.len(),
            surf_referrers.len(),
            "records and referrers must align"
        );
        let mut report =
            FraudReport { billable: 0, fraudulent: 0, by_exchange: BTreeMap::new() };
        for (record, referrer) in records.iter().zip(surf_referrers) {
            let verdict = if self.exchange_hosts.contains(referrer) {
                ImpressionVerdict::ExchangeFraud
            } else {
                self.classify(record)
            };
            match verdict {
                ImpressionVerdict::Billable => report.billable += 1,
                ImpressionVerdict::ExchangeFraud => {
                    report.fraudulent += 1;
                    let key = if self.exchange_hosts.contains(referrer) {
                        referrer.clone()
                    } else {
                        record.url.host().to_string()
                    };
                    *report.by_exchange.entry(key).or_insert(0) += 1;
                }
            }
        }
        report
    }
}

/// The browser-extension warning the paper proposes for users.
///
/// Carries the study's measured per-exchange risk so the warning can be
/// quantitative: "N of every 100 pages surfed here were malicious".
#[derive(Debug, Clone)]
pub struct SurfWarning {
    /// exchange host → measured malicious fraction of regular URLs.
    risk_by_host: BTreeMap<String, f64>,
}

/// What the extension shows before navigation proceeds.
#[derive(Debug, Clone, PartialEq)]
pub enum WarningDecision {
    /// Not an exchange — navigate silently.
    Allow,
    /// A known exchange — interpose a warning.
    Warn {
        /// Exchange host.
        host: String,
        /// Expected malicious pages per 100 surfed (from the study).
        expected_malicious_per_100: f64,
        /// Rendered warning text.
        message: String,
    },
}

impl SurfWarning {
    /// Builds the warning database from study output: exchange profiles
    /// plus the measured Table I rows.
    pub fn from_study(study: &crate::study::Study) -> Self {
        let table1 = study.table1();
        let mut risk_by_host = BTreeMap::new();
        for row in &table1.rows {
            if let Some(profile) =
                slum_exchange::params::profile(&row.exchange)
            {
                risk_by_host.insert(profile.host.to_string(), row.malicious_fraction());
            }
        }
        SurfWarning { risk_by_host }
    }

    /// Builds from the paper's published Table I instead of a fresh run.
    pub fn from_paper() -> Self {
        let risk_by_host = slum_exchange::params::PROFILES
            .iter()
            .map(|p| (p.host.to_string(), p.malicious_fraction()))
            .collect();
        SurfWarning { risk_by_host }
    }

    /// Number of exchanges known to the extension.
    pub fn known_exchanges(&self) -> usize {
        self.risk_by_host.len()
    }

    /// The pre-navigation hook.
    pub fn before_navigate(&self, url: &slum_websim::Url) -> WarningDecision {
        match self.risk_by_host.get(url.host()) {
            None => WarningDecision::Allow,
            Some(&risk) => {
                let per_100 = risk * 100.0;
                WarningDecision::Warn {
                    host: url.host().to_string(),
                    expected_malicious_per_100: per_100,
                    message: format!(
                        "{} is a traffic exchange. In a measurement study, {:.0} of every \
                         100 pages surfed here were malicious. Surfing exposes you to \
                         drive-by downloads and social engineering. Continue?",
                        url.host(),
                        per_100
                    ),
                }
            }
        }
    }
}

/// Detection-quality ablation: how much each scanning path contributes.
/// Supports the repository's ablation benches and quantifies the §III
/// design choices (multi-engine aggregation, content upload, blacklist
/// consensus).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DetectionAblation {
    /// Malicious via VT/Quttera URL scans alone.
    pub url_scan_only: u64,
    /// Additional detections from content uploads.
    pub added_by_upload: u64,
    /// Additional detections from blacklist consensus alone (no engine
    /// hit).
    pub added_by_blacklists: u64,
    /// Total malicious.
    pub total: u64,
}

/// Computes the detection-path ablation over scanned outcomes.
pub fn detection_ablation(outcomes: &[ScanOutcome]) -> DetectionAblation {
    let mut ablation = DetectionAblation::default();
    for outcome in outcomes {
        if !outcome.malicious {
            continue;
        }
        ablation.total += 1;
        let engines_hit =
            outcome.vt().is_malicious() || outcome.quttera_verdict() == QutteraVerdict::Malicious;
        if outcome.needed_content_upload {
            ablation.added_by_upload += 1;
        } else if engines_hit {
            ablation.url_scan_only += 1;
        } else if outcome.blacklisted_domain.is_some() {
            ablation.added_by_blacklists += 1;
        }
    }
    ablation
}

#[cfg(test)]
mod tests {
    use super::*;
    use slum_browser::Browser;
    use slum_exchange::params::PROFILES;
    use slum_websim::build::WebBuilder;
    use slum_websim::Url;

    #[test]
    fn guard_flags_exchange_referred_impressions() {
        let guard = AdNetworkGuard::new(PROFILES.iter());
        let mut b = WebBuilder::new(400);
        let site = b.benign_site(Default::default());
        let web = b.finish();
        let load = Browser::new(&web).load(&site.url);
        let record = slum_crawler::CrawlRecord::from_load("10KHits".into(), 0, 0, &load);

        let organic = guard.audit(std::slice::from_ref(&record), &[String::new()]);
        assert_eq!(organic.fraudulent, 0);
        assert_eq!(organic.fraud_rate(), 0.0);

        let surfed = guard.audit(
            std::slice::from_ref(&record),
            &["10khits.exchange.example".to_string()],
        );
        assert_eq!(surfed.fraudulent, 1);
        assert_eq!(surfed.fraud_rate(), 1.0);
        assert_eq!(
            surfed.by_exchange.get("10khits.exchange.example"),
            Some(&1)
        );
    }

    #[test]
    fn guard_flags_self_referral_visits_by_host() {
        let guard = AdNetworkGuard::new(PROFILES.iter());
        let mut b = WebBuilder::new(401);
        let home = b.exchange_home("otohits.exchange.example");
        let web = b.finish();
        let load = Browser::new(&web).load(&home.url);
        let record = slum_crawler::CrawlRecord::from_load("Otohits".into(), 0, 0, &load);
        assert_eq!(guard.classify(&record), ImpressionVerdict::ExchangeFraud);
    }

    #[test]
    fn warning_interposes_on_exchanges_only() {
        let warning = SurfWarning::from_paper();
        assert_eq!(warning.known_exchanges(), 9);

        let allow = warning.before_navigate(&Url::http("ordinary-site.example.com", "/"));
        assert_eq!(allow, WarningDecision::Allow);

        match warning.before_navigate(&Url::http("sendsurf.exchange.example", "/surf")) {
            WarningDecision::Warn { expected_malicious_per_100, message, .. } => {
                // SendSurf: 51.9% malicious in the paper.
                assert!((51.0..53.0).contains(&expected_malicious_per_100));
                assert!(message.contains("traffic exchange"));
            }
            other => panic!("expected warning, got {other:?}"),
        }
    }

    #[test]
    fn warning_from_study_uses_measured_rates() {
        let study = crate::study::Study::run(&crate::study::StudyConfig {
            seed: 5,
            crawl_scale: 0.0002,
            domain_scale: 0.03,
            ..Default::default()
        });
        let warning = SurfWarning::from_study(&study);
        assert_eq!(warning.known_exchanges(), 9);
        let decision = warning.before_navigate(&Url::http("10khits.exchange.example", "/"));
        assert!(matches!(decision, WarningDecision::Warn { .. }));
    }

    #[test]
    fn ablation_partitions_detections() {
        let study = crate::study::Study::run(&crate::study::StudyConfig {
            seed: 6,
            crawl_scale: 0.0005,
            domain_scale: 0.04,
            ..Default::default()
        });
        let ablation = detection_ablation(&study.outcomes);
        assert!(ablation.total > 0);
        assert_eq!(
            ablation.url_scan_only + ablation.added_by_upload + ablation.added_by_blacklists,
            ablation.total,
            "every detection is attributed to exactly one path"
        );
        assert!(ablation.url_scan_only > 0, "engines catch most malware");
    }
}
