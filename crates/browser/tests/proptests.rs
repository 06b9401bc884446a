//! Property tests for the headless browser: loads always terminate,
//! chains are bounded, href resolution is total.

use proptest::prelude::*;
use slum_browser::{session::resolve_href, Browser};
use slum_websim::build::{BenignOptions, MaliciousOptions, WebBuilder};
use slum_websim::{ContentCategory, Tld, Url};

proptest! {
    /// resolve_href is total over arbitrary href strings.
    #[test]
    fn resolve_href_total(href in ".{0,120}") {
        let page = Url::http("page.example.com", "/dir/index");
        let _ = resolve_href(&page, &href);
    }

    /// Relative hrefs always resolve onto the page host.
    #[test]
    fn relative_hrefs_stay_on_host(path in "[a-zA-Z0-9._/-]{1,40}") {
        prop_assume!(!path.starts_with("//"));
        let page = Url::http("page.example.com", "/index");
        let resolved = resolve_href(&page, &path).expect("relative resolution");
        prop_assert_eq!(resolved.host(), "page.example.com");
    }

    /// Every load over a generated web terminates with a chain no longer
    /// than the hop cap, whatever site is loaded.
    #[test]
    fn loads_terminate_within_hop_cap(seed in 0u64..150, max_hops in 1u32..6) {
        let mut b = WebBuilder::new(seed);
        let benign = b.benign_site(BenignOptions::default());
        let malicious = b.malicious_site(MaliciousOptions::default());
        let chain = b.redirect_chain_site(7, Tld::Com, ContentCategory::Business);
        let web = b.finish();
        let browser = Browser::new(&web).with_max_hops(max_hops);
        for spec in [benign, malicious, chain] {
            let load = browser.load(&spec.url);
            prop_assert!(load.redirect_count() <= max_hops + 1, "chain blew the cap");
        }
    }

    /// Loading twice with the same context yields the same HAR status
    /// chain for deterministic (non-rotating) sites.
    #[test]
    fn benign_loads_are_stable(seed in 0u64..150) {
        let mut b = WebBuilder::new(seed);
        let site = b.benign_site(BenignOptions::default());
        let web = b.finish();
        let browser = Browser::new(&web);
        let (first, first_har) = browser.load_logged(&site.url);
        let (second, second_har) = browser.load_logged(&site.url);
        prop_assert_eq!(first_har.status_chain(), second_har.status_chain());
        prop_assert_eq!(first.final_url, second.final_url);
    }
}
