//! Page bodies as handles change no result: for every kind of page the
//! web builder makes, loaded as a browser and as a scanner,
//!
//! - a body's outline equals the DOM queries the browser and the static
//!   feature pass used to run on every load, and two loads or fetches of
//!   one page hand out one body with one outline;
//! - a detached body built from the same text has the same outline and
//!   the same features as the web's body;
//! - the scan pipeline's URL-scan features equal `Features::from_load`,
//!   and its content-upload features (static pass from the per-body
//!   table, sandbox run over the outline's inline scripts) equal
//!   `Features::from_content_with_engine`;
//! - body ids are a pure function of the build, so pipelines over two
//!   builds of one configuration can share one `ScanCaches`.

use std::sync::Arc;

use malware_slums::study::{Study, StudyConfig};
use malware_slums::substrate::{build_substrate, Substrate};
use malware_slums::{ScanCaches, ScanPipeline};
use slum_browser::{Browser, LoadResult};
use slum_crawler::CrawlRecord;
use slum_detect::Features;
use slum_html::{Document, IframeFacts, Outline, PluginFacts};
use slum_js::sandbox::JsEngine;
use slum_js::ModuleStore;
use slum_websim::build::{BenignOptions, MaliciousOptions, WebBuilder};
use slum_websim::{
    Body, ContentCategory, FalsePositiveKind, FetchOutcome, JsAttack, MaliceKind, RequestContext,
    SyntheticWeb, Tld, Url,
};

/// One site of every kind the builder makes, labelled.
fn every_kind_of_site(b: &mut WebBuilder) -> Vec<(String, Url)> {
    let cat = ContentCategory::Entertainment;
    let mut sites = vec![
        ("benign".to_string(), b.benign_site(BenignOptions::default()).url),
        ("flash click-jack".into(), b.flash_site(Tld::Com, cat).url),
        ("redirect chain + meta refresh".into(), b.redirect_chain_site(4, Tld::Com, cat).url),
        ("rotating redirector".into(), b.rotating_redirector_site(3, cat).url),
        ("shortened".into(), b.shortened_site(Tld::Com, cat).url),
        ("blacklisted, cloaked".into(), b.blacklisted_site(Tld::Com, cat, true).url),
        ("misc, cloaked".into(), b.misc_site(Tld::Com, cat, true).url),
    ];
    let cloaked = MaliciousOptions {
        kind: Some(MaliceKind::Misc),
        cloaked: Some(true),
        ..Default::default()
    };
    sites.push(("malicious, cloaked".into(), b.malicious_site(cloaked).url));
    for attack in [
        JsAttack::HiddenIframe,
        JsAttack::InvisibleIframeExfil,
        JsAttack::DynamicIframe,
        JsAttack::DeceptiveDownload,
        JsAttack::Fingerprinting,
    ] {
        for cloak in [false, true] {
            let url = b.js_site(attack, Tld::Com, cat, cloak).url;
            sites.push((format!("{attack:?}, cloaked {cloak}"), url));
        }
    }
    for kind in [FalsePositiveKind::GoogleOauthRelay, FalsePositiveKind::GoogleAnalytics] {
        sites.push((format!("false positive {kind:?}"), b.false_positive_site(kind).url));
    }
    sites
}

/// The DOM queries `Browser::load` and the static feature pass ran on
/// every visit before outlines carried their facts.
fn queried(body: &str) -> Outline {
    let dom = Document::parse(body);
    let mut plugin_srcs = Vec::new();
    let mut plugins = Vec::new();
    for obj in dom.elements_by_tag("object").into_iter().chain(dom.elements_by_tag("embed")) {
        let Some(el) = dom.element(obj) else { continue };
        let mut facts =
            PluginFacts { width: el.attr("width").map(String::from), ..Default::default() };
        for id in dom.descendants(obj) {
            let Some(param) = dom.element(id) else { continue };
            let value = param.attr("value").unwrap_or_default().to_string();
            match param.attr("name").unwrap_or_default().to_ascii_lowercase().as_str() {
                "wmode" => facts.wmode.push(value),
                "allowscriptaccess" => facts.allowscriptaccess.push(value),
                _ => {}
            }
        }
        plugins.push(facts);
        let Some(data) = el.attr("data").or_else(|| el.attr("src")) else { continue };
        plugin_srcs.push(data.to_string());
    }
    let iframes = dom
        .iframes()
        .into_iter()
        .map(|id| IframeFacts {
            src: dom.element(id).and_then(|el| el.attr("src")).map(String::from),
            hidden_reasons: dom.effective_hidden_reasons(id),
        })
        .collect();
    Outline {
        meta_refresh: dom.meta_refresh_target(),
        external_scripts: dom.external_script_srcs(),
        inline_scripts: dom.inline_scripts(),
        plugin_srcs,
        iframes,
        data_uri_anchor: !dom.data_uri_anchors().is_empty(),
        download_manager: !dom.download_manager_elements().is_empty(),
        plugins,
    }
}

/// `body`'s outline is the queried one, it is the web's one copy when
/// it has an id, and a detached copy of its text outlines alike.
fn check_body(web: &SyntheticWeb, body: &Body, tag: &str) {
    let outline = Document::parse(body).outline();
    assert_eq!(outline, queried(body), "{tag}: outline");
    assert_eq!(*body.outline(), outline, "{tag}: the body's outline");
    assert_eq!(Body::from(body.as_str()).outline(), body.outline(), "{tag}: detached outline");
    if let Some(id) = body.id() {
        assert!(Body::ptr_eq(body, &web.bodies()[id as usize]), "{tag}: the web's one copy");
    }
}

/// Two fetches of `url` as `ctx` hand out one body with one outline.
fn fetched_twice(web: &SyntheticWeb, url: &Url, ctx: &RequestContext) -> Option<Body> {
    let FetchOutcome::Html { body } = web.fetch(url, ctx) else { return None };
    let FetchOutcome::Html { body: again } = web.fetch(url, ctx) else { panic!("{url}: flaky") };
    assert!(Body::ptr_eq(&body, &again), "{url}: a fetch hands out the web's body");
    assert!(std::ptr::eq(body.outline(), again.outline()), "{url}: one outline");
    Some(body)
}

fn check_features(pipeline: &ScanPipeline<'_>, load: &LoadResult, engine: JsEngine, tag: &str) {
    assert_eq!(pipeline.load_features(load), Features::from_load(load), "{tag}: URL-scan features");
    let Some(body) = &load.html else { return };
    let store: Option<Arc<dyn ModuleStore>> =
        (engine == JsEngine::Vm).then(|| Arc::new(slum_detect::JsModuleCache::new()) as _);
    let (want, want_report) =
        Features::from_content_with_engine(&load.final_url, body, engine, store);
    assert_eq!(Features::from_body(body), Features::from_page(body), "{tag}: static pass");
    // The web's body, then a detached copy such as a deserialized
    // record holds: it has no id, so its features are computed on the
    // spot.
    for content in [body.clone(), Body::from(body.as_str())] {
        let (got, report) = pipeline.content_features(&load.final_url, &content);
        assert_eq!(got, want, "{tag}: content-upload features");
        assert_eq!(report.effects, want_report.effects, "{tag}: sandbox effects");
        assert_eq!(report.written_html, want_report.written_html, "{tag}: written markup");
        assert_eq!(report.errors, want_report.errors, "{tag}: sandbox errors");
    }
}

#[test]
fn caches_change_no_outline_and_no_feature_for_any_page_kind() {
    let mut builder = WebBuilder::new(2016);
    let sites = every_kind_of_site(&mut builder);
    let web = builder.finish();
    for engine in [JsEngine::Vm, JsEngine::TreeWalk] {
        let pipeline = ScanPipeline::new(&web).with_js_engine(engine);
        for (kind, url) in &sites {
            for (client, ctx) in [
                ("browser", RequestContext::browser()),
                ("scanner", RequestContext::scanner("pipeline")),
            ] {
                let tag = format!("{kind} as {client} ({engine:?})");
                let browser = Browser::new(&web).with_context(ctx.clone()).with_js_engine(engine);
                let load = browser.load(url);
                if let Some(body) = &load.html {
                    check_body(&web, body, &tag);
                    let again = browser.load(url).html.expect("a page again");
                    assert!(Body::ptr_eq(body, &again), "{tag}: two loads, one body");
                    assert!(std::ptr::eq(body.outline(), again.outline()), "{tag}: one outline");
                }
                // Every meta-refresh hop's body is one of the web's too.
                for hop in &load.chain {
                    if let Some(body) = fetched_twice(&web, &hop.from, &ctx) {
                        assert!(body.id().is_some(), "{tag}, hop {}: a numbered body", hop.from);
                        check_body(&web, &body, &format!("{tag}, hop {}", hop.from));
                    }
                }
                check_features(&pipeline, &load, engine, &tag);
            }
        }
    }
}

#[test]
fn outline_keeps_document_order_within_each_query() {
    // No builder page mixes `object` with `embed` or carries two inline
    // scripts; this body does.
    let web = WebBuilder::new(1).finish();
    let body = Body::from(
        r#"<embed src="e.swf"><object data="o.swf"><embed src="inner.swf"></object>
        <object><param name="movie" value="p.swf"></object><script src="/x.js"></script>
        <script>a();</script><meta http-equiv="refresh" content="5; URL='http://n.example/'">
        <iframe src="/one" width="1"></iframe><div hidden><iframe src="/two"></iframe></div>
        <script>b();</script><embed data="d.swf" src="s.swf">"#,
    );
    check_body(&web, &body, "mixed plugins");
    let outline = body.outline();
    assert_eq!(outline.plugin_srcs, ["o.swf", "e.swf", "inner.swf", "d.swf"]);
    assert_eq!(outline.plugins.len(), 5, "the movie-less object keeps its facts");
    assert_eq!(outline.inline_scripts, ["a();", "b();"]);
    let srcs: Vec<_> = outline.iframes.iter().map(|f| f.src.as_deref()).collect();
    assert_eq!(srcs, [Some("/one"), Some("/two")]);
}

#[test]
fn cloaked_pages_outline_each_view_separately() {
    let mut builder = WebBuilder::new(7);
    let spec = builder.js_site(JsAttack::DynamicIframe, Tld::Com, ContentCategory::Business, true);
    let web = builder.finish();
    let seen = Browser::new(&web).load(&spec.url);
    let scanned =
        Browser::new(&web).with_context(RequestContext::scanner("pipeline")).load(&spec.url);
    let (seen, scanned) = (seen.html.expect("page"), scanned.html.expect("page"));
    assert_ne!(seen, scanned, "the cloak serves scanners other markup");
    assert_ne!(seen.id(), scanned.id(), "each view is a body of its own");
    assert!(!std::ptr::eq(seen.outline(), scanned.outline()));
    assert_ne!(seen.outline(), scanned.outline());
}

/// A small study configuration of `substrate`.
fn config(substrate: Substrate) -> StudyConfig {
    StudyConfig::builder()
        .substrate(substrate)
        .seed(2016)
        .crawl_scale(0.0003)
        .domain_scale(0.03)
        .build()
        .expect("valid configuration")
}

#[test]
fn body_ids_are_a_pure_function_of_the_build() {
    for substrate in [Substrate::Exchange, Substrate::AdNet, Substrate::Torrent] {
        let config = config(substrate);
        // Each build routes through a map with its own hash order.
        let (a, b) = (build_substrate(&config).web, build_substrate(&config).web);
        assert!(a.bodies().len() > 100, "{substrate:?}: {} bodies", a.bodies().len());
        assert_eq!(a.bodies().len(), b.bodies().len(), "{substrate:?}");
        for (id, (x, y)) in a.bodies().iter().zip(b.bodies()).enumerate() {
            assert_eq!((x.id(), y.id()), (Some(id as u32), Some(id as u32)), "{substrate:?}");
            assert_eq!(x, y, "{substrate:?}: body {id}");
        }
        // Every page's views are among the numbered bodies.
        for page in a.oracle_pages() {
            for body in std::iter::once(&page.html).chain(&page.cloaked_benign_html) {
                let id = body.id().expect("a served body is numbered") as usize;
                assert!(Body::ptr_eq(body, &a.bodies()[id]), "{}", page.url);
            }
        }
    }
}

#[test]
fn pipelines_over_two_builds_share_one_cache_set() {
    let config = config(Substrate::Exchange);
    let study = Study::run(&config);
    let records = study.store.records();
    let (half, _) = records.split_at(records.len() / 2);
    assert!(records.iter().filter(|r| r.content.is_some()).count() > 20);
    let private = ScanPipeline::new(&study.web).scan_all(records);

    // Two tenants' webs, one cache set: the second pipeline's scanner
    // loads land on bodies whose static features the first computed
    // from its own web's copies.
    let (a, b) = (build_substrate(&config).web, build_substrate(&config).web);
    let shared = Arc::new(ScanCaches::new());
    let first = ScanPipeline::new(&a).with_shared_caches(Arc::clone(&shared));
    assert_eq!(first.scan_all(half), private[..half.len()]);
    let second = ScanPipeline::new(&b).with_shared_caches(Arc::clone(&shared));
    assert_eq!(second.scan_all(records), private, "warm samples, shared features");
    second.clear_caches();
    assert_eq!(second.scan_all(records), private, "cold samples, shared features");
}

#[test]
#[should_panic(expected = "different bodies")]
fn a_cache_set_sized_for_one_web_rejects_another() {
    let mut small = WebBuilder::new(3);
    let site = small.benign_site(BenignOptions::default());
    let small = small.finish();
    let mut large = WebBuilder::new(3);
    large.benign_site(BenignOptions::default());
    large.flash_site(Tld::Com, ContentCategory::Entertainment);
    let large = large.finish();
    let shared = Arc::new(ScanCaches::new());
    let record = |web: &SyntheticWeb| {
        CrawlRecord::from_load("x".into(), 0, 0, &Browser::new(web).load(&site.url))
    };
    ScanPipeline::new(&small).with_shared_caches(Arc::clone(&shared)).scan(&record(&small));
    let other = ScanPipeline::new(&large).with_shared_caches(shared);
    // Without its finished samples the scan needs the per-body table.
    other.clear_caches();
    other.scan(&record(&large));
}
