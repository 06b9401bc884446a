//! The per-visit crawl record.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use slum_browser::har::HarLog;
use slum_browser::{LoadResult, RedirectKind};
use slum_websim::Url;

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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    /// of the same page share one allocation: the body the crawl's
    /// browser loaded through the web's page cache. Serialized as a
    /// plain JSON string either way.
    pub content: Option<Arc<str>>,
    /// Executable downloads triggered during the load.
    pub download_filenames: Vec<String>,
    /// HAR capture of the load.
    pub har: HarLog,
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
            har: load.har.clone(),
            failed: load.failed,
        }
    }

    /// The registered domain of the surfed URL.
    pub fn domain(&self) -> String {
        self.url.registered_domain()
    }

    /// The registered domain of the final URL.
    pub fn final_domain(&self) -> String {
        self.final_url.registered_domain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slum_browser::Browser;
    use slum_websim::build::WebBuilder;
    use slum_websim::{ContentCategory, Tld};

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

    #[test]
    fn record_serializes_round_trip() {
        let mut b = WebBuilder::new(121);
        let site = b.benign_site(Default::default());
        let web = b.finish();
        let load = Browser::new(&web).load(&site.url);
        let rec = CrawlRecord::from_load("Otohits", 0, 0, &load);
        let json = serde_json::to_string(&rec).unwrap();
        let back: CrawlRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back.url, rec.url);
        assert_eq!(back.har, rec.har);
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
}
