//! The crawl loads a static route once per segment and builds the
//! records of the route's later visits from that first load (the route
//! table of `slum_crawler::drive::crawl_exchange_segment`). Two claims
//! make that exact, and each test holds one:
//!
//! - the shared crawl builds every record `record_visit`, the per-visit
//!   reference, builds, and leaves the shortener statistics Table IV
//!   reads as the per-visit loads leave them;
//! - a route loads the same whatever the query: no page script reads
//!   `location` (DESIGN §8). The scan's per-route sharing relies on
//!   this too, so the test loads every route both ways in the crawl's
//!   two click modes and in the scanner's context.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::convert::Infallible;
use std::sync::Arc;

use malware_slums::study::StudyConfig;
use malware_slums::substrate::{build_substrate, BuiltSubstrate, Substrate};
use proptest::prelude::*;
use slum_browser::{Browser, Download, LoadResult, RedirectKind};
use slum_crawler::{record_visit, CrawlFaultProfile, CrawlPlan, CrawlVisit, RecordStore};
use slum_detect::JsModuleCache;
use slum_js::sandbox::Effect;
use slum_websim::{RequestContext, SyntheticWeb, Url};

const DOMAIN_SCALE: f64 = 0.03;

/// Hits, hits by country and hits by referrer of every shortener code,
/// by service host and code.
type ShortenerStats = BTreeMap<(String, String), (u64, Vec<(String, u64)>, Vec<(String, u64)>)>;

fn shortener_stats(web: &SyntheticWeb) -> ShortenerStats {
    let sorted = |counts: HashMap<String, u64>| {
        let mut counts: Vec<(String, u64)> = counts.into_iter().collect();
        counts.sort();
        counts
    };
    let mut stats = BTreeMap::new();
    for service in web.shorteners().services() {
        for code in service.codes() {
            let s = service.stats(&code).expect("a listed code has statistics");
            let value = (s.hits, sorted(s.by_country), sorted(s.by_referrer));
            stats.insert((service.host().to_string(), code), value);
        }
    }
    stats
}

/// Crawls `built`'s sources to completion in segments of `budget`
/// slots (`None`: one unbounded segment), as `Study::run` crawls them.
fn crawl(config: &StudyConfig, built: &mut BuiltSubstrate, budget: Option<u64>) -> RecordStore {
    let mut plan = CrawlPlan::new(config.seed).fault_profile(config.crawl_fault_profile.clone());
    if let Some(budget) = budget {
        plan = plan.segment_budget(budget);
    }
    let steps = &built.steps;
    let outcome = plan
        .run_segmented(&built.web, &mut built.sources, |x| steps[x.name()], &mut |_, _| {
            Ok::<(), Infallible>(())
        })
        .unwrap_or_else(|never| match never {});
    assert!(outcome.finished);
    outcome.state.finish().0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every record of a crawl that shares static routes equals the
    /// record `record_visit` builds for its visit on a fresh build of the
    /// substrate, replayed source by source in crawl order, and the two
    /// webs end with the same shortener statistics — for drawn
    /// substrates, seeds, crawl fault profiles and segment budgets, at
    /// crawl scales where routes repeat. An unbounded crawl shares: some
    /// later visit of a route holds its first visit's chain hosts.
    #[test]
    fn shared_crawl_matches_the_per_visit_reference(
        substrate in 0usize..3,
        seed in 1u64..1_000_000,
        crawl_faults in 0usize..3,
        bounded in any::<bool>(),
        budget in 1u64..301,
        crawl_scale in 0.002f64..0.005,
    ) {
        let substrate = [Substrate::Exchange, Substrate::AdNet, Substrate::Torrent][substrate];
        let faults = ["none", "default", "harsh"][crawl_faults];
        let budget = bounded.then_some(budget);
        let world = format!("{substrate:?} seed {seed} scale {crawl_scale} {faults} {budget:?}");
        let config = StudyConfig::builder()
            .seed(seed)
            .crawl_scale(crawl_scale)
            .domain_scale(DOMAIN_SCALE)
            .substrate(substrate)
            .crawl_fault_profile(CrawlFaultProfile::parse(faults).expect("a named profile"))
            .build()
            .unwrap();
        let mut built = build_substrate(&config);
        let store = crawl(&config, &mut built, budget);
        prop_assert!(!store.is_empty(), "{world}: nothing crawled");

        let fresh = build_substrate(&config);
        let modules = Arc::new(JsModuleCache::new());
        let mut first_of_route = HashMap::new();
        let mut shared = 0;
        for record in store.records() {
            let source = (fresh.sources.iter())
                .find(|s| record.exchange == s.name())
                .expect("every record comes from a source of the substrate");
            let visit = CrawlVisit { seq: record.seq, at: record.at, url: record.url.clone() };
            let reference = record_visit(&fresh.web, source, &modules, &visit);
            prop_assert!(*record == reference, "{world}: {record:?} != {reference:?}");
            match first_of_route.entry((record.exchange.as_str(), record.url.host_path())) {
                Entry::Occupied(first) => {
                    shared += usize::from(Arc::ptr_eq(&record.chain_hosts, *first.get()));
                }
                Entry::Vacant(slot) => {
                    slot.insert(&record.chain_hosts);
                }
            }
        }
        prop_assert!(
            shortener_stats(&built.web) == shortener_stats(&fresh.web),
            "{world}: shortener statistics diverged"
        );
        if budget.is_none() {
            prop_assert!(shared > 0, "{world}: no visit shared its route's first load");
        }
    }
}

/// What a load of a route shows apart from the URL it requested and the
/// URL it ended on.
type RouteView<'a> = (
    Option<Option<u32>>,
    Vec<(&'a Url, RedirectKind)>,
    &'a [Effect],
    &'a str,
    &'a [String],
    &'a [Download],
    &'a [Url],
    &'a [Url],
    bool,
);

fn route_view(load: &LoadResult) -> RouteView<'_> {
    (
        load.html.as_ref().map(|body| body.id()),
        load.chain.iter().map(|hop| (&hop.to, hop.kind)).collect(),
        &load.js.effects,
        &load.js.written_html,
        &load.js.errors,
        &load.downloads,
        &load.popups,
        &load.external_scripts,
        load.failed,
    )
}

/// Every route a crawl of each substrate visits (5,699 at seed 2016 and
/// domain scale 1.0) loads the same under `?sid=…` as under
/// `?imp=…&x=1`, at its first visit's virtual time, in the crawl
/// browser with and without clicks and in the scanner's context: same
/// body, redirect targets and kinds, script effects and
/// written markup, downloads, pop-ups, external scripts and failure.
#[test]
fn route_loads_ignore_the_query() {
    for (substrate, crawl_scale) in
        [(Substrate::Exchange, 0.005), (Substrate::AdNet, 0.005), (Substrate::Torrent, 0.01)]
    {
        let config = StudyConfig::builder()
            .seed(2016)
            .crawl_scale(crawl_scale)
            .domain_scale(1.0)
            .substrate(substrate)
            .build()
            .unwrap();
        let mut built = build_substrate(&config);
        let store = crawl(&config, &mut built, None);
        let mut routes: BTreeMap<&str, u64> = BTreeMap::new();
        for record in store.records() {
            routes.entry(record.url.host_path()).or_insert(record.at);
        }
        assert!(routes.len() > 500, "{substrate:?}: {} routes", routes.len());
        for (i, (&route, &at)) in routes.iter().enumerate() {
            let browser = Browser::new(&built.web).at_time(at);
            let browsers = [
                browser.clone(),
                browser.clone().without_click(),
                browser.with_context(RequestContext::scanner("pipeline")),
            ];
            let sid = Url::parse(&format!("http://{route}?sid=q{i}x")).unwrap();
            let imp = Url::parse(&format!("http://{route}?imp={i}&x=1")).unwrap();
            assert_eq!((sid.host_path(), imp.host_path()), (route, route));
            for browser in browsers {
                let (a, b) = (browser.load(&sid), browser.load(&imp));
                assert_eq!(route_view(&a), route_view(&b), "{substrate:?} {route} at {at}");
            }
        }
    }
}
