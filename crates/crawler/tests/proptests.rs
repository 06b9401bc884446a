//! Property tests for the crawler: step accounting, determinism, the
//! corpus JSON lines.

use proptest::prelude::*;
use serde::Deserialize;
use slum_browser::{Browser, HarLog};
use slum_crawler::drive::{crawl_exchange, CrawlConfig};
use slum_crawler::{corpus_jsonl, RecordStore};
use slum_exchange::params::PROFILES;
use slum_exchange::{build_exchange, ExchangeKind};
use slum_websim::build::WebBuilder;
use slum_websim::Url;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A crawl always logs exactly the requested number of pages, for
    /// any exchange, seed, and step count.
    #[test]
    fn crawl_logs_exact_step_count(
        profile_idx in 0usize..9,
        steps in 1u64..40,
        seed in 0u64..50,
    ) {
        let profile = &PROFILES[profile_idx];
        let mut b = WebBuilder::new(seed);
        let mut exchange = build_exchange(&mut b, profile, 0.03, 50_000);
        let web = b.finish();
        let mut store = RecordStore::new();
        let stats = crawl_exchange(
            &web,
            &mut exchange,
            &CrawlConfig { steps, seed, ..Default::default() },
            &mut store,
        );
        prop_assert_eq!(stats.pages, steps);
        prop_assert_eq!(store.len() as u64, steps);
        // Sequence numbers are dense and ordered.
        for (i, record) in store.records().iter().enumerate() {
            prop_assert_eq!(record.seq, i as u64);
            prop_assert_eq!(&record.exchange, profile.name);
        }
    }

    /// The corpus JSON lines of a real crawl parse back to what the
    /// analysis consumes, each line carrying the HAR its visit's load
    /// logs on a web built afresh from the same seed.
    #[test]
    fn store_jsonl_round_trip(seed in 0u64..30) {
        #[derive(Deserialize)]
        struct Line {
            url: Url,
            final_url: Url,
            redirect_hops: u32,
            har: HarLog,
        }
        let profile = &PROFILES[(seed % 9) as usize];
        let build = || {
            let mut b = WebBuilder::new(seed);
            let exchange = build_exchange(&mut b, profile, 0.03, 20_000);
            (b.finish(), exchange)
        };
        let (web, mut exchange) = build();
        let mut store = RecordStore::new();
        crawl_exchange(
            &web,
            &mut exchange,
            &CrawlConfig { steps: 15, seed, ..Default::default() },
            &mut store,
        );
        let (fresh_web, fresh_exchange) = build();
        let jsonl = corpus_jsonl(&fresh_web, &[fresh_exchange], &store).expect("serialize");
        prop_assert_eq!(jsonl.lines().count(), store.len());
        for (line, r) in jsonl.lines().zip(store.records()) {
            let back: Line = serde_json::from_str(line).expect("parse");
            prop_assert_eq!(&back.url, &r.url);
            prop_assert_eq!(&back.final_url, &r.final_url);
            prop_assert_eq!(back.redirect_hops, r.redirect_hops);
            let browser = Browser::new(&web).at_time(r.at);
            let browser =
                if profile.kind == ExchangeKind::ManualSurf { browser } else { browser.without_click() };
            prop_assert_eq!(&back.har, &browser.load_logged(&r.url).1);
        }
    }
}
