//! The parsed-page cache and the per-body feature cache change no
//! result: for every kind of page the web builder makes, loaded as a
//! browser and as a scanner,
//!
//! - a body's cached outline equals the DOM queries the browser used to
//!   run on every load, and a second `parsed` call shares the first
//!   call's allocations;
//! - the scan pipeline's cached URL-scan features equal
//!   `Features::from_load`;
//! - its cached content-upload features (static pass from the cache,
//!   sandbox run over the outline's inline scripts) equal
//!   `Features::from_content_with_engine`, whether or not the body is
//!   the interned copy.

use std::sync::Arc;

use malware_slums::ScanPipeline;
use slum_browser::{Browser, LoadResult};
use slum_detect::Features;
use slum_html::{Document, Outline};
use slum_js::sandbox::JsEngine;
use slum_js::ModuleStore;
use slum_websim::build::{BenignOptions, MaliciousOptions, WebBuilder};
use slum_websim::{
    ContentCategory, FalsePositiveKind, FetchOutcome, JsAttack, MaliceKind, RequestContext,
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

/// The DOM queries `Browser::load` ran on every visit before outlines.
fn queried(body: &str) -> Outline {
    let dom = Document::parse(body);
    let mut plugin_srcs = Vec::new();
    for obj in dom.elements_by_tag("object").into_iter().chain(dom.elements_by_tag("embed")) {
        let Some(el) = dom.element(obj) else { continue };
        let Some(data) = el.attr("data").or_else(|| el.attr("src")) else { continue };
        plugin_srcs.push(data.to_string());
    }
    Outline {
        meta_refresh: dom.meta_refresh_target(),
        external_scripts: dom.external_script_srcs(),
        inline_scripts: dom.inline_scripts(),
        plugin_srcs,
    }
}

fn check_body(web: &SyntheticWeb, body: &str, tag: &str) {
    let outline = Document::parse(body).outline();
    assert_eq!(outline, queried(body), "{tag}: outline");
    let first = web.parsed(body);
    let copy = body.to_owned();
    let second = web.parsed(&copy);
    assert!(Arc::ptr_eq(&first.body, &second.body), "{tag}: body interned once");
    assert!(Arc::ptr_eq(&first.outline, &second.outline), "{tag}: outline parsed once");
    assert_eq!(*first.outline, outline, "{tag}: cached outline");
}

fn check_features(pipeline: &ScanPipeline<'_>, load: &LoadResult, engine: JsEngine, tag: &str) {
    assert_eq!(pipeline.load_features(load), Features::from_load(load), "{tag}: URL-scan features");
    let Some(body) = &load.html else { return };
    let store: Option<Arc<dyn ModuleStore>> =
        (engine == JsEngine::Vm).then(|| Arc::new(slum_detect::JsModuleCache::new()) as _);
    let (want, want_report) =
        Features::from_content_with_engine(&load.final_url, body, engine, store);
    // The interned body, then a private copy such as a checkpoint
    // restore produces.
    let copy = body.to_string();
    for content in [&**body, copy.as_str()] {
        let (got, report) = pipeline.content_features(&load.final_url, content);
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
                    let interned = web.parsed(body).body;
                    assert!(Arc::ptr_eq(body, &interned), "{tag}: load shares the body");
                }
                // Every meta-refresh hop's body went through the cache too.
                for hop in &load.chain {
                    if let FetchOutcome::Html { body } = web.fetch(&hop.from, &ctx) {
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
    let body = r#"<embed src="e.swf"><object data="o.swf"><embed src="inner.swf"></object>
        <object><param name="movie" value="p.swf"></object><script src="/x.js"></script>
        <script>a();</script><meta http-equiv="refresh" content="5; URL='http://n.example/'">
        <script>b();</script><embed data="d.swf" src="s.swf">"#;
    check_body(&web, body, "mixed plugins");
    let outline = web.parsed(body).outline;
    assert_eq!(outline.plugin_srcs, ["o.swf", "e.swf", "inner.swf", "d.swf"]);
    assert_eq!(outline.inline_scripts, ["a();", "b();"]);
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
    assert!(!Arc::ptr_eq(&web.parsed(&seen).outline, &web.parsed(&scanned).outline));
}
