//! The per-visit crawl record.

use slum_browser::{LoadResult, RedirectKind};
use slum_websim::{Body, Url};

/// One surfed visit: which slot of the source's crawl, when, and what
/// URL the surfbar opened. A page load is a pure function of the web,
/// the virtual time, the URL and the source's click mode, so a visit
/// determines its [`CrawlRecord`] — checkpoints store visits and
/// restores rebuild the records from them
/// ([`record_visit`](crate::drive::record_visit)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrawlVisit {
    /// Visit sequence number within the source's crawl (lost slots
    /// advance it without a visit, so it is not the visit's index).
    pub seq: u64,
    /// Virtual timestamp of the visit (seconds).
    pub at: u64,
    /// The URL the surfbar opened.
    pub url: Url,
}

/// Everything the crawler logs for one surfed URL — the unit the
/// analysis pipeline consumes.
///
/// A record holds no HAR capture: the load's HAR is a function of the
/// visit too, so the corpus JSON lines replay each visit with logging
/// to print it ([`corpus_jsonl`](crate::run::corpus_jsonl)).
#[derive(Debug, Clone, PartialEq)]
pub struct CrawlRecord {
    /// Exchange the URL was surfed on.
    pub exchange: String,
    /// Visit sequence number within the exchange's crawl.
    pub seq: u64,
    /// Virtual timestamp of the visit (seconds).
    pub at: u64,
    /// The URL the surfbar opened.
    pub url: Url,
    /// URL that finally served content after redirects.
    pub final_url: Url,
    /// Number of redirect hops traversed.
    pub redirect_hops: u32,
    /// Hosts along the redirect chain (from → ... → final), deduplicated
    /// in order.
    pub chain_hosts: Vec<String>,
    /// Whether the chain included a shortener resolution.
    pub via_shortener: bool,
    /// Whether the chain included a JS-driven hop.
    pub via_js_redirect: bool,
    /// Captured page content (the *browser's* view — what the paper
    /// downloaded "to our local storage" to upload to scanners). Records
    /// of the same page share one allocation: the web's handle on the
    /// body the crawl's browser loaded.
    pub content: Option<Body>,
    /// Executable downloads triggered during the load.
    pub download_filenames: Vec<String>,
    /// Load failed (404 / hop-limit).
    pub failed: bool,
}

impl CrawlRecord {
    /// Builds a record from a browser load.
    pub fn from_load(exchange: &str, seq: u64, at: u64, load: &LoadResult) -> CrawlRecord {
        let mut chain_hosts: Vec<String> = Vec::new();
        let mut push_host = |h: &str| {
            if chain_hosts.last().map(String::as_str) != Some(h) {
                chain_hosts.push(h.to_string());
            }
        };
        push_host(load.requested_url.host());
        for hop in &load.chain {
            push_host(hop.to.host());
        }
        push_host(load.final_url.host());

        CrawlRecord {
            exchange: exchange.to_string(),
            seq,
            at,
            url: load.requested_url.clone(),
            final_url: load.final_url.clone(),
            redirect_hops: load.redirect_count(),
            chain_hosts,
            via_shortener: load.chain.iter().any(|h| h.kind == RedirectKind::Shortener),
            via_js_redirect: load.chain.iter().any(|h| h.kind == RedirectKind::JsLocation),
            content: load.html.clone(),
            download_filenames: load.downloads.iter().map(|d| d.filename.clone()).collect(),
            failed: load.failed,
        }
    }

    /// The registered domain of the surfed URL.
    pub fn domain(&self) -> String {
        self.url.registered_domain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;
    use slum_browser::{Browser, HarLog};
    use slum_websim::build::{BenignOptions, MaliciousOptions, WebBuilder};
    use slum_websim::{
        ContentCategory, FalsePositiveKind, JsAttack, MaliceKind, RequestContext, Tld,
    };

    use crate::store::RecordStore;

    #[test]
    fn record_from_redirect_chain_load() {
        let mut b = WebBuilder::new(120);
        let spec = b.redirect_chain_site(3, Tld::Com, ContentCategory::Business);
        let web = b.finish();
        let load = Browser::new(&web).at_time(42).load(&spec.url);
        let rec = CrawlRecord::from_load("10KHits", 7, 42, &load);

        assert_eq!(rec.exchange, "10KHits");
        assert_eq!(rec.seq, 7);
        assert_eq!(rec.at, 42);
        assert_eq!(rec.redirect_hops, 3);
        assert!(rec.chain_hosts.len() >= 2);
        assert_eq!(rec.chain_hosts.first().map(String::as_str), Some(spec.url.host()));
        assert!(rec.content.is_some());
        assert!(!rec.failed);
    }

    /// A record's corpus line parses back to the record's fields and the
    /// HAR its logged load returned.
    #[test]
    fn record_serializes_round_trip() {
        #[derive(Deserialize)]
        struct Line {
            exchange: String,
            url: Url,
            final_url: Url,
            chain_hosts: Vec<String>,
            content: Option<String>,
            har: HarLog,
            failed: bool,
        }
        let mut b = WebBuilder::new(121);
        let site = b.benign_site(Default::default());
        let web = b.finish();
        let (load, har) = Browser::new(&web).load_logged(&site.url);
        let rec = CrawlRecord::from_load("Otohits", 0, 0, &load);
        let store: RecordStore = std::iter::once(rec.clone()).collect();
        let json = store.to_jsonl(|_| har.clone()).unwrap();
        let back: Line = serde_json::from_str(json.trim_end()).unwrap();
        assert_eq!(back.exchange, rec.exchange);
        assert_eq!(back.url, rec.url);
        assert_eq!(back.final_url, rec.final_url);
        assert_eq!(back.chain_hosts, rec.chain_hosts);
        assert_eq!(back.content.as_deref(), rec.content.as_deref());
        assert_eq!(back.failed, rec.failed);
        assert_eq!(back.har, har);
        assert!(!back.har.is_empty());
    }

    #[test]
    fn chain_hosts_deduplicate_consecutive() {
        let mut b = WebBuilder::new(122);
        let site = b.benign_site(Default::default());
        let web = b.finish();
        let load = Browser::new(&web).load(&site.url);
        let rec = CrawlRecord::from_load("x", 0, 0, &load);
        assert_eq!(rec.chain_hosts.len(), 1, "{:?}", rec.chain_hosts);
    }

    /// Loads of every page kind the builder installs, in the crawl's
    /// two click modes and the scanner's context: the logged load
    /// returns what the plain load returns, and every referrer its HAR
    /// records is empty or a host of the record's chain. The ad-network
    /// guard relies on the latter to classify by chain hosts alone.
    #[test]
    fn har_referrers_are_chain_hosts_and_logging_changes_no_load() {
        let mut b = WebBuilder::new(123);
        let mut specs = vec![
            b.benign_site(BenignOptions::default()),
            b.false_positive_site(FalsePositiveKind::GoogleOauthRelay),
            b.false_positive_site(FalsePositiveKind::GoogleAnalytics),
            b.popular_site("popular.example.com"),
            b.exchange_home("home.exchange.example"),
            b.blacklisted_site(Tld::Com, ContentCategory::Business, true),
            b.flash_site(Tld::Com, ContentCategory::Entertainment),
            b.redirect_chain_site(4, Tld::Com, ContentCategory::Business),
            b.rotating_redirector_site(3, ContentCategory::Advertisement),
            b.shortened_site(Tld::Com, ContentCategory::Business),
        ];
        let attacks = [
            JsAttack::HiddenIframe,
            JsAttack::InvisibleIframeExfil,
            JsAttack::DynamicIframe,
            JsAttack::DeceptiveDownload,
            JsAttack::Fingerprinting,
        ];
        for cloaked in [false, true] {
            for attack in attacks {
                specs.push(b.js_site(attack, Tld::Com, ContentCategory::Business, cloaked));
            }
            specs.push(b.misc_site(Tld::Com, ContentCategory::Business, cloaked));
            let kinds = attacks.map(MaliceKind::MaliciousJs).into_iter().chain([
                MaliceKind::Blacklisted,
                MaliceKind::MaliciousFlash,
                MaliceKind::SuspiciousRedirect,
                MaliceKind::MaliciousShortened,
                MaliceKind::Misc,
            ]);
            for kind in kinds {
                let options =
                    MaliciousOptions { kind: Some(kind), cloaked: Some(cloaked), ..Default::default() };
                specs.push(b.malicious_site(options));
            }
        }
        let web = b.finish();
        let mut entries = 0;
        for spec in &specs {
            for at in [0, 1, 2] {
                let browser = Browser::new(&web).at_time(at);
                let browsers = [
                    browser.clone(),
                    browser.clone().without_click(),
                    browser.with_context(RequestContext::scanner("pipeline")),
                ];
                for browser in browsers {
                    let plain = browser.load(&spec.url);
                    let (logged, har) = browser.load_logged(&spec.url);
                    assert_eq!(format!("{plain:?}"), format!("{logged:?}"), "{}", spec.url);
                    let record = CrawlRecord::from_load("x", 0, at, &logged);
                    assert_eq!(record, CrawlRecord::from_load("x", 0, at, &plain));
                    for entry in &har.entries {
                        assert!(
                            entry.referrer.is_empty() || record.chain_hosts.contains(&entry.referrer),
                            "{}: referrer {:?} outside {:?}",
                            spec.url,
                            entry.referrer,
                            record.chain_hosts
                        );
                    }
                    entries += har.len();
                }
            }
        }
        assert!(entries > specs.len() * 9, "every load logs its requests");
    }

    /// The record keeps no HAR, so it fits in 176 bytes (200 with one).
    #[test]
    fn record_layout_holds_no_har() {
        assert!(std::mem::size_of::<CrawlRecord>() <= 176, "{}", std::mem::size_of::<CrawlRecord>());
    }
}
