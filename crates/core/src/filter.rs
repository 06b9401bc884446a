//! Referral filtering (§III-A).
//!
//! Exchanges frequently open their own homepages in the surf iframe
//! ("self-referrals") and pad rotations with popular sites such as
//! Google, Facebook and YouTube ("popular referrals") — likely to garner
//! bogus content views. Both classes are excluded before malware
//! analysis, leaving the "regular URLs".

use std::collections::BTreeSet;

use slum_crawler::CrawlRecord;
use slum_exchange::setup::POPULAR_HOSTS;

/// Classification of one crawled URL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReferralClass {
    /// The exchange's own page.
    SelfReferral,
    /// A genuinely popular site the exchange points at.
    PopularReferral,
    /// A member listing — the analysis corpus.
    Regular,
}

/// The referral filter: knows the exchange hosts and the popular-site
/// hosts.
#[derive(Debug, Clone)]
pub struct ReferralFilter {
    exchange_hosts: BTreeSet<String>,
    popular_hosts: BTreeSet<String>,
}

impl ReferralFilter {
    /// Builds a filter from the exchange profiles in play. Popular hosts
    /// default to the standard set installed by
    /// [`slum_exchange::setup::build_exchange`].
    pub fn from_profiles<'a>(
        profiles: impl IntoIterator<Item = &'a slum_exchange::ExchangeProfile>,
    ) -> Self {
        ReferralFilter::from_hosts(
            profiles.into_iter().map(|p| p.host.to_string()),
            POPULAR_HOSTS.iter().map(|h| h.to_string()),
        )
    }

    /// Builds a filter from raw host sets — the substrate-agnostic
    /// constructor the ad-network and torrent ecosystems use (their
    /// "self" hosts are ad servers / index sites, their "popular" hosts
    /// premium publishers / community mirrors).
    pub fn from_hosts(
        source_hosts: impl IntoIterator<Item = String>,
        popular_hosts: impl IntoIterator<Item = String>,
    ) -> Self {
        ReferralFilter {
            exchange_hosts: source_hosts.into_iter().collect(),
            popular_hosts: popular_hosts.into_iter().collect(),
        }
    }

    /// Classifies one record by its surfed URL's host.
    pub fn classify(&self, record: &CrawlRecord) -> ReferralClass {
        let host = record.url.host();
        if self.exchange_hosts.contains(host) {
            ReferralClass::SelfReferral
        } else if self.popular_hosts.contains(host) {
            ReferralClass::PopularReferral
        } else {
            ReferralClass::Regular
        }
    }

    /// Splits a record slice into `(self, popular, regular)` counts.
    pub fn counts(&self, records: &[CrawlRecord]) -> (u64, u64, u64) {
        let mut counts = (0, 0, 0);
        for r in records {
            match self.classify(r) {
                ReferralClass::SelfReferral => counts.0 += 1,
                ReferralClass::PopularReferral => counts.1 += 1,
                ReferralClass::Regular => counts.2 += 1,
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slum_exchange::params::PROFILES;
    use slum_websim::Url;

    fn rec(url: &str) -> CrawlRecord {
        let u = Url::parse(url).unwrap();
        CrawlRecord {
            exchange: "10KHits".into(),
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

    fn filter() -> ReferralFilter {
        ReferralFilter::from_profiles(PROFILES.iter())
    }

    #[test]
    fn exchange_homepage_is_self_referral() {
        let f = filter();
        assert_eq!(
            f.classify(&rec("http://10khits.exchange.example/")),
            ReferralClass::SelfReferral
        );
        assert_eq!(
            f.classify(&rec("http://otohits.exchange.example/?sid=9")),
            ReferralClass::SelfReferral
        );
    }

    #[test]
    fn popular_sites_detected() {
        let f = filter();
        assert_eq!(
            f.classify(&rec("http://google.popular.example/")),
            ReferralClass::PopularReferral
        );
        assert_eq!(
            f.classify(&rec("http://youtube.popular.example/watch?v=x")),
            ReferralClass::PopularReferral
        );
    }

    #[test]
    fn member_sites_are_regular() {
        let f = filter();
        assert_eq!(f.classify(&rec("http://member-site.example.com/")), ReferralClass::Regular);
    }

    #[test]
    fn counts_partition_totals() {
        let f = filter();
        let records = vec![
            rec("http://10khits.exchange.example/"),
            rec("http://google.popular.example/"),
            rec("http://a.example.com/"),
            rec("http://b.example.com/"),
        ];
        let (s, p, r) = f.counts(&records);
        assert_eq!((s, p, r), (1, 1, 2));
        assert_eq!(s + p + r, records.len() as u64);
    }
}
