//! TLD and content-category breakdowns of malicious URLs
//! (Figures 6 and 7) and the per-exchange domain statistics row of
//! Table II.

use std::collections::BTreeMap;

use slum_crawler::CrawlRecord;
use slum_websim::{SyntheticWeb, Url};

use crate::scanpipe::ScanOutcome;

/// Figure 6: malicious URLs bucketed by top-level domain
/// (`com`/`net`/`de`/`org`/`others`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TldBreakdown {
    /// bucket → count.
    pub counts: BTreeMap<String, u64>,
}

impl TldBreakdown {
    /// Builds the breakdown over malicious records (keyed by the surfed
    /// URL's TLD, matching the paper's per-URL accounting).
    pub fn build(pairs: &[(&CrawlRecord, &ScanOutcome)]) -> TldBreakdown {
        let mut counts = BTreeMap::new();
        for (record, outcome) in pairs {
            if outcome.malicious {
                let bucket = record.url.tld().figure6_bucket().to_string();
                *counts.entry(bucket).or_insert(0) += 1;
            }
        }
        TldBreakdown { counts }
    }

    /// Total malicious URLs counted.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Share of one bucket.
    pub fn share(&self, bucket: &str) -> f64 {
        share_of(&self.counts, bucket)
    }
}

/// Figure 7: malicious URLs bucketed by content category.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ContentBreakdown {
    /// category label → count.
    pub counts: BTreeMap<String, u64>,
}

impl ContentBreakdown {
    /// Builds the breakdown. Category comes from the synthetic web's
    /// page metadata for the *final* URL (standing in for the
    /// VirusTotal category feed the paper used); URLs whose landing page
    /// is unknown fall into "Others".
    pub fn build(
        web: &SyntheticWeb,
        pairs: &[(&CrawlRecord, &ScanOutcome)],
    ) -> ContentBreakdown {
        let category = |url: &Url| web.oracle_page(url).map(|p| p.category.label());
        let mut counts = BTreeMap::new();
        for (record, outcome) in pairs {
            if outcome.malicious {
                let label = category(&record.final_url)
                    .or_else(|| category(&record.url))
                    .unwrap_or("Others");
                *counts.entry(label.to_string()).or_insert(0) += 1;
            }
        }
        ContentBreakdown { counts }
    }

    /// Total malicious URLs counted.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Share of one category label.
    pub fn share(&self, label: &str) -> f64 {
        share_of(&self.counts, label)
    }
}

/// `counts[key]` as a share of all counts (0 when nothing was counted).
fn share_of(counts: &BTreeMap<String, u64>, key: &str) -> f64 {
    let total: u64 = counts.values().sum();
    if total == 0 {
        return 0.0;
    }
    counts.get(key).copied().unwrap_or(0) as f64 / total as f64
}

/// One Table II row: per-exchange domain statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainRow {
    /// Exchange name.
    pub exchange: String,
    /// Distinct registered domains among regular URLs.
    pub domains: u64,
    /// Domains with at least one malicious URL.
    pub malware_domains: u64,
}

impl DomainRow {
    /// Table II's "% Malware" column.
    pub fn malware_fraction(&self) -> f64 {
        if self.domains == 0 {
            0.0
        } else {
            self.malware_domains as f64 / self.domains as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slum_exchange::ExchangeKind;

    fn record(exchange: &str, url: &str) -> CrawlRecord {
        let u = Url::parse(url).unwrap();
        CrawlRecord {
            exchange: exchange.into(),
            seq: 0,
            at: 0,
            url: u.clone(),
            final_url: u,
            redirect_hops: 0,
            chain_hosts: vec![].into(),
            via_shortener: false,
            via_js_redirect: false,
            content: None,
            download_filenames: vec![],
            failed: false,
        }
    }

    fn outcome(malicious: bool) -> ScanOutcome {
        ScanOutcome::answered(malicious, vec![], None)
    }

    #[test]
    fn tld_breakdown_buckets() {
        let records = [
            record("X", "http://a-site.com/"),
            record("X", "http://b-site.com/"),
            record("X", "http://c-site.net/"),
            record("X", "http://d-site.ru/"),
            record("X", "http://e-site.org/"),
        ];
        let outcomes: Vec<_> = (0..5).map(|_| outcome(true)).collect();
        let pairs: Vec<_> = records.iter().zip(&outcomes).collect();
        let t = TldBreakdown::build(&pairs);
        assert_eq!(t.total(), 5);
        assert!((t.share("com") - 0.4).abs() < 1e-9);
        assert!((t.share("net") - 0.2).abs() < 1e-9);
        assert!((t.share("others") - 0.2).abs() < 1e-9);
        assert!((t.share("org") - 0.2).abs() < 1e-9);
        assert_eq!(t.share("de"), 0.0);
    }

    #[test]
    fn benign_records_excluded_from_breakdowns() {
        let records = [record("X", "http://a-site.com/"), record("X", "http://b-site.net/")];
        let outcomes = vec![outcome(true), outcome(false)];
        let pairs: Vec<_> = records.iter().zip(&outcomes).collect();
        let t = TldBreakdown::build(&pairs);
        assert_eq!(t.total(), 1);
    }

    /// Table II's columns, from the facts table's group-by.
    #[test]
    fn domain_rows_count_distinct_and_malicious() {
        use crate::facts::Facts;
        use crate::filter::ReferralClass::{Regular, SelfReferral};
        use crate::substrate::SourceMeta;

        let records = vec![
            record("A", "http://one-site.com/p1"),
            record("A", "http://one-site.com/p2"),
            record("A", "http://two-site.com/"),
            record("A", "http://10khits.exchange.example/"),
            record("B", "http://three-site.net/"),
        ];
        let outcomes =
            vec![outcome(true), outcome(false), outcome(false), outcome(false), outcome(true)];
        let referrals = vec![Regular, Regular, Regular, SelfReferral, Regular];
        let sources: Vec<SourceMeta> = ["A", "B"]
            .map(|name| SourceMeta { name: name.into(), kind: ExchangeKind::AutoSurf })
            .into();
        let facts = Facts::build(&sources, &records, &referrals, &outcomes);
        assert_eq!((facts.urls, facts.domains), (5, 4));
        let rows: Vec<DomainRow> = facts
            .by_source(&sources)
            .into_iter()
            .map(|g| DomainRow {
                exchange: g.row.source,
                domains: g.domains,
                malware_domains: g.malware_domains,
            })
            .collect();
        let a = &rows[0];
        assert_eq!(a.domains, 2, "self-referral excluded, one-site deduped");
        assert_eq!(a.malware_domains, 1);
        assert!((a.malware_fraction() - 0.5).abs() < 1e-9);
        let b = &rows[1];
        assert_eq!((b.domains, b.malware_domains), (1, 1));
    }

    #[test]
    fn content_breakdown_uses_oracle_categories() {
        use slum_websim::build::{MaliciousOptions, WebBuilder};
        use slum_websim::{ContentCategory, MaliceKind};

        let mut b = WebBuilder::new(210);
        let spec = b.malicious_site(MaliciousOptions {
            kind: Some(MaliceKind::Misc),
            category: Some(ContentCategory::Business),
            cloaked: Some(false),
            ..Default::default()
        });
        let web = b.finish();
        let records = [record("X", &spec.url.to_string())];
        let outcomes = vec![outcome(true)];
        let pairs: Vec<_> = records.iter().zip(&outcomes).collect();
        let c = ContentBreakdown::build(&web, &pairs);
        assert_eq!(c.counts.get("Business"), Some(&1));
    }

    #[test]
    fn unknown_landing_page_falls_to_others() {
        let b = slum_websim::build::WebBuilder::new(211);
        let web = b.finish();
        let records = [record("X", "http://ghost-site.com/")];
        let outcomes = vec![outcome(true)];
        let pairs: Vec<_> = records.iter().zip(&outcomes).collect();
        let c = ContentBreakdown::build(&web, &pairs);
        assert_eq!(c.counts.get("Others"), Some(&1));
    }
}
