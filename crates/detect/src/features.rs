//! Shared feature extraction: the structural and behavioural signals
//! every detection engine keys on.
//!
//! Extraction is a static pass composed with a dynamic one:
//!
//! - the static pass ([`Features::from_outline`]: the DOM facts of the
//!   body's [`Outline`] + static deobfuscation of its inline scripts) is
//!   a pure function of the page body, so the scan pipeline computes it
//!   once per body the web serves. It reads the outline and the text and
//!   never parses: a body the web serves is parsed once, by its
//!   [`Body::outline`], for the browser and the scanner alike;
//! - the dynamic pass depends on how the sample was obtained. A full
//!   [`slum_browser::LoadResult`] (the scanner fetched the URL itself,
//!   subresources included) folds in the real load's signals
//!   ([`Features::with_load`]); uploaded content runs its inline scripts
//!   in the sandbox ([`Features::with_script_run`]).
//!
//! [`Features::from_load`] and [`Features::from_content_with_engine`]
//! are exactly these compositions.

use std::sync::Arc;

use slum_browser::LoadResult;
use slum_html::attr::HiddenReason;
use slum_html::{Document, Outline};
use slum_js::obfuscate::{is_likely_obfuscated, unpack_all_static};
use slum_js::sandbox::{Effect, JsEngine, Sandbox, SandboxReport};
use slum_js::ModuleStore;
use slum_websim::{Body, Url};

/// Extracted detection features of one sample.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Features {
    /// Hidden-iframe findings: `(reason, src)` pairs.
    pub hidden_iframes: Vec<(HiddenReason, String)>,
    /// A hidden iframe's `src` carries query-string parameters
    /// (information exfiltration, §V-A category two).
    pub iframe_exfil_query: bool,
    /// An iframe was injected at runtime (`document.write` /
    /// `createElement`+`appendChild`).
    pub dynamic_iframe_injection: bool,
    /// Number of scripts the obfuscation heuristic flagged.
    pub obfuscated_scripts: u32,
    /// Deepest `eval` layer observed (static unpack + dynamic).
    pub eval_layers: u32,
    /// Deceptive-download markup: fake install prompt, `data:` URI
    /// anchor, or navigation to a deceptively named executable.
    pub deceptive_download: bool,
    /// Behaviour fingerprinting: mousemove/keydown listeners feeding a
    /// beacon.
    pub fingerprinting: bool,
    /// Full-page transparent Flash with script access (click-jack rig).
    pub flash_clickjack: bool,
    /// Number of `ExternalInterface` calls observed.
    pub external_interface_calls: u32,
    /// Script-driven navigation away from the page (JS redirector).
    pub js_redirect: bool,
    /// Page carries a meta-refresh redirect.
    pub meta_refresh: bool,
    /// Pop-ups opened during execution.
    pub popups: u32,
    /// Generic malware marker (signature corpus match without
    /// structural category).
    pub generic_malware_marker: bool,
    /// Google Analytics bootstrap pattern (benign, FP-prone).
    pub ga_bootstrap: bool,
    /// OAuth postmessage-relay iframe pattern (benign, FP-prone).
    pub oauth_relay_iframe: bool,
}

impl Features {
    /// Extracts features from raw page content (the uploaded-file scan
    /// path: no subresources available) with the default JS engine.
    pub fn from_content(url: &Url, html: &str) -> Features {
        Self::from_content_with_engine(url, html, JsEngine::default(), None).0
    }

    /// Like [`Features::from_content`], but with an explicit JS engine
    /// and optional compiled-module cache, returning the sandbox report
    /// alongside the features (so the pipeline can tally `js.vm.*`
    /// execution counters). The report is [`SandboxReport::default`]
    /// when the content carries no inline scripts.
    pub fn from_content_with_engine(
        url: &Url,
        html: &str,
        engine: JsEngine,
        store: Option<Arc<dyn ModuleStore>>,
    ) -> (Features, SandboxReport) {
        let outline = Document::parse(html).outline();
        Features::from_outline(&outline, html).with_script_run(
            url,
            &outline.inline_scripts,
            engine,
            store,
        )
    }

    /// Extracts features from a full browser load (the URL-scan path —
    /// includes external scripts, Flash, and the redirect chain).
    pub fn from_load(load: &LoadResult) -> Features {
        load.html.as_ref().map(Features::from_body).unwrap_or_default().with_load(load)
    }

    /// The static pass over bare page text: [`Features::from_outline`]
    /// after parsing `html` once.
    pub fn from_page(html: &str) -> Features {
        Features::from_outline(&Document::parse(html).outline(), html)
    }

    /// The static pass over a body the web serves, from the outline the
    /// body parsed once.
    pub fn from_body(body: &Body) -> Features {
        Features::from_outline(body.outline(), body)
    }

    /// The static pass over one page body: the DOM facts of its
    /// `outline` plus static analysis of its inline scripts and a scan
    /// of its text `html`. A pure function of the body; parses nothing.
    pub fn from_outline(outline: &Outline, html: &str) -> Features {
        let mut f = Features::default();
        for iframe in &outline.iframes {
            let src = iframe.src.as_deref().unwrap_or_default();
            if src.contains("postmessageRelay") {
                f.oauth_relay_iframe = true;
            }
            for &reason in &iframe.hidden_reasons {
                f.hidden_iframes.push((reason, src.to_string()));
                if src.contains('?') && src.contains('&') {
                    f.iframe_exfil_query = true;
                }
            }
        }
        for script in &outline.inline_scripts {
            if is_likely_obfuscated(script) {
                f.obfuscated_scripts += 1;
                let (_, layers) = unpack_all_static(script);
                f.eval_layers = f.eval_layers.max(layers);
            }
            if script.contains("GoogleAnalyticsObject") {
                f.ga_bootstrap = true;
            }
            if script.contains("mousemove") || script.contains("keydown") {
                // Listener + beacon shipping = fingerprinting; bare
                // listeners alone are common and benign.
                if script.contains("createElement") || script.contains("/fp?") {
                    f.fingerprinting = true;
                }
            }
        }
        if outline.data_uri_anchor || outline.download_manager {
            f.deceptive_download = true;
        }
        if outline.meta_refresh.is_some() {
            f.meta_refresh = true;
        }
        // Flash click-jack rig: object/embed with transparent wmode and
        // allowscriptaccess. Parameters live in <param> children.
        for plugin in &outline.plugins {
            let any = |values: &[String], want: &str| {
                values.iter().any(|v| v.eq_ignore_ascii_case(want))
            };
            let transparent = any(&plugin.wmode, "transparent");
            let script_access = any(&plugin.allowscriptaccess, "always");
            let covers_page = plugin.width.as_deref() == Some("100%");
            if script_access && (transparent || covers_page) {
                f.flash_clickjack = true;
            }
        }
        if html.contains("slum:payload:") {
            f.generic_malware_marker = true;
        }
        f
    }

    /// Runs a page's inline scripts (in document order, joined into one
    /// program) in the sandbox at `url` and folds what they did into
    /// these features — the dynamic pass of a content upload. The
    /// report is [`SandboxReport::default`] when there is nothing to
    /// run.
    pub fn with_script_run(
        mut self,
        url: &Url,
        inline_scripts: &[String],
        engine: JsEngine,
        store: Option<Arc<dyn ModuleStore>>,
    ) -> (Features, SandboxReport) {
        let program = inline_scripts.join("\n;\n");
        if program.trim().is_empty() {
            return (self, SandboxReport::default());
        }
        let mut sandbox = Sandbox::new().with_location(url.to_string()).with_engine(engine);
        if let Some(store) = store {
            sandbox = sandbox.with_module_store(store);
        }
        let report = sandbox.run(&program);
        self.fold_run(&report, url);
        (self, report)
    }

    /// Folds the dynamic signals of a full browser load — script
    /// effects, injected markup, Flash movies, pop-ups, downloads and
    /// the redirect chain — into the static features of its final page:
    /// the dynamic pass of a URL scan.
    pub fn with_load(mut self, load: &LoadResult) -> Features {
        self.fold_run(&load.js, &load.final_url);
        for movie in &load.swf_movies {
            if movie.is_clickjack() {
                self.flash_clickjack = true;
            }
        }
        self.popups += load.popups.len() as u32;
        if load
            .downloads
            .iter()
            .any(|d| d.filename.to_ascii_lowercase().contains("flash") || d.filename.ends_with(".exe"))
        {
            self.deceptive_download = true;
        }
        if load.chain.iter().any(|h| h.kind == slum_browser::RedirectKind::JsLocation) {
            self.js_redirect = true;
        }
        self
    }

    /// Folds one sandbox run: its effects, its deepest eval layer and
    /// the markup it wrote with `document.write`.
    fn fold_run(&mut self, report: &SandboxReport, page_url: &Url) {
        self.fold_effects(&report.effects, page_url);
        self.eval_layers = self.eval_layers.max(report.max_eval_depth);
        if !report.written_html.is_empty() {
            self.fold_injected_dom(&Document::parse(&report.written_html).outline());
        }
    }

    /// Folds in sandbox effects.
    fn fold_effects(&mut self, effects: &[Effect], page_url: &Url) {
        let mut mouse_listener = false;
        let mut beacon_insert = false;
        for effect in effects {
            match effect {
                Effect::DocumentWrite(html)
                    if html.contains("<iframe") => {
                        self.dynamic_iframe_injection = true;
                    }
                Effect::ElementInserted { tag, attrs }
                    if tag == "iframe" => {
                        self.dynamic_iframe_injection = true;
                        beacon_insert = true;
                        let hidden = slum_html::attr::hidden_reasons(attrs);
                        let src = attrs
                            .iter()
                            .find(|(k, _)| k == "src")
                            .map(|(_, v)| v.clone())
                            .unwrap_or_default();
                        for r in hidden {
                            self.hidden_iframes.push((r, src.clone()));
                        }
                    }
                Effect::Navigate { url } => {
                    let lower = url.to_ascii_lowercase();
                    if lower.contains(".exe") || lower.contains("downloadas=") {
                        self.deceptive_download = true;
                    } else if let Ok(target) = Url::parse(url) {
                        if target.host() != page_url.host() {
                            self.js_redirect = true;
                        }
                    }
                }
                Effect::Popup { .. } => self.popups += 1,
                Effect::ExternalCall { .. } => self.external_interface_calls += 1,
                Effect::ListenerRegistered { event, .. }
                    if (event == "mousemove" || event == "keydown") => {
                        mouse_listener = true;
                    }
                Effect::EvalLayer { depth, .. } => {
                    self.eval_layers = self.eval_layers.max(*depth);
                    if *depth > 0 {
                        self.obfuscated_scripts = self.obfuscated_scripts.max(1);
                    }
                }
                _ => {}
            }
        }
        if mouse_listener && beacon_insert {
            self.fingerprinting = true;
        }
    }

    /// Inspects the outline of runtime-injected markup.
    fn fold_injected_dom(&mut self, injected: &Outline) {
        for iframe in &injected.iframes {
            self.dynamic_iframe_injection = true;
            let src = iframe.src.as_deref().unwrap_or_default();
            for &reason in &iframe.hidden_reasons {
                self.hidden_iframes.push((reason, src.to_string()));
            }
        }
    }

    /// True when no malicious signal at all was extracted (the benign
    /// fast path).
    pub fn is_clean(&self) -> bool {
        self.hidden_iframes.is_empty()
            && !self.dynamic_iframe_injection
            && self.obfuscated_scripts == 0
            && !self.deceptive_download
            && !self.fingerprinting
            && !self.flash_clickjack
            && self.external_interface_calls == 0
            && !self.js_redirect
            && !self.generic_malware_marker
            && self.popups == 0
    }
}

#[cfg(test)]
impl Features {
    /// The static pass as it was before outlines carried the DOM facts:
    /// it walks a second parse of the body. Kept as the reference model
    /// [`Features::from_outline`] is held to.
    fn reference_static_pass(dom: &Document, html: &str) -> Features {
        let mut f = Features::default();
        f.walk_dom(dom, html);
        f
    }

    fn walk_dom(&mut self, dom: &Document, html: &str) {
        for id in dom.iframes() {
            let reasons = dom.effective_hidden_reasons(id);
            let src = dom
                .element(id)
                .and_then(|el| el.attr("src"))
                .unwrap_or_default()
                .to_string();
            let is_oauth = src.contains("oauth2/postmessageRelay") || src.contains("postmessageRelay");
            if is_oauth {
                self.oauth_relay_iframe = true;
            }
            for r in reasons {
                self.hidden_iframes.push((r, src.clone()));
                if src.contains('?') && src.contains('&') {
                    self.iframe_exfil_query = true;
                }
            }
        }
        for script in dom.inline_scripts() {
            if is_likely_obfuscated(&script) {
                self.obfuscated_scripts += 1;
                let (_, layers) = unpack_all_static(&script);
                self.eval_layers = self.eval_layers.max(layers);
            }
            if script.contains("GoogleAnalyticsObject") {
                self.ga_bootstrap = true;
            }
            if script.contains("mousemove") || script.contains("keydown") {
                // Listener + beacon shipping = fingerprinting; bare
                // listeners alone are common and benign.
                if script.contains("createElement") || script.contains("/fp?") {
                    self.fingerprinting = true;
                }
            }
        }
        if !dom.data_uri_anchors().is_empty() || !dom.download_manager_elements().is_empty() {
            self.deceptive_download = true;
        }
        if dom.meta_refresh_target().is_some() {
            self.meta_refresh = true;
        }
        // Flash click-jack rig: object/embed with transparent wmode and
        // allowscriptaccess. Parameters live in <param> children.
        for obj in dom.elements_by_tag("object").into_iter().chain(dom.elements_by_tag("embed")) {
            let subtree: Vec<_> = dom.descendants(obj);
            let mut transparent = false;
            let mut script_access = false;
            for id in subtree {
                if let Some(el) = dom.element(id) {
                    let name = el.attr("name").unwrap_or_default();
                    let value = el.attr("value").unwrap_or_default();
                    if name.eq_ignore_ascii_case("wmode") && value.eq_ignore_ascii_case("transparent")
                    {
                        transparent = true;
                    }
                    if name.eq_ignore_ascii_case("allowscriptaccess")
                        && value.eq_ignore_ascii_case("always")
                    {
                        script_access = true;
                    }
                }
            }
            let covers_page = dom
                .element(obj)
                .and_then(|el| el.attr("width"))
                .is_some_and(|w| w == "100%");
            if script_access && (transparent || covers_page) {
                self.flash_clickjack = true;
            }
        }
        if html.contains("slum:payload:") {
            self.generic_malware_marker = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slum_websim::payload;
    use slum_websim::ContentCategory;

    fn u(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn benign_page_is_clean() {
        let html = payload::benign_page("shop.example.com", ContentCategory::Business);
        let f = Features::from_content(&u("http://shop.example.com/"), &html);
        assert!(f.is_clean(), "{f:?}");
        assert!(!f.meta_refresh);
    }

    #[test]
    fn pixel_iframe_detected_statically() {
        let html = payload::pixel_iframe_page("b.example.com", &u("http://trk.example/t"));
        let f = Features::from_content(&u("http://b.example.com/"), &html);
        assert!(f.hidden_iframes.iter().any(|(r, _)| *r == HiddenReason::PixelDimensions));
        assert!(!f.is_clean());
    }

    #[test]
    fn exfil_iframe_flagged_with_query_signal() {
        let html = payload::invisible_exfil_iframe_page("p.example.com", "x.example.com", "id_77");
        let f = Features::from_content(&u("http://p.example.com/"), &html);
        assert!(f.iframe_exfil_query);
        assert!(f
            .hidden_iframes
            .iter()
            .any(|(r, _)| *r == HiddenReason::Transparency || *r == HiddenReason::PixelDimensions));
    }

    #[test]
    fn obfuscated_dynamic_injection_detected_via_execution() {
        let html =
            payload::js_injected_iframe_page("s.example.com", &u("http://evil.example/x"), 2);
        let f = Features::from_content(&u("http://s.example.com/"), &html);
        assert!(f.dynamic_iframe_injection, "{f:?}");
        assert!(f.obfuscated_scripts >= 1);
        assert!(f.eval_layers >= 2);
    }

    #[test]
    fn plain_dynamic_injection_detected() {
        let html =
            payload::js_injected_iframe_page("s.example.com", &u("http://evil.example/x"), 0);
        let f = Features::from_content(&u("http://s.example.com/"), &html);
        assert!(f.dynamic_iframe_injection);
    }

    #[test]
    fn deceptive_download_markup_detected() {
        let html = payload::deceptive_download_page("anime.example.com", "dl.example.net");
        let f = Features::from_content(&u("http://anime.example.com/"), &html);
        assert!(f.deceptive_download);
    }

    #[test]
    fn fingerprinting_detected() {
        let html = payload::fingerprinting_page("cat.example.com", "collector.example.net");
        let f = Features::from_content(&u("http://cat.example.com/"), &html);
        assert!(f.fingerprinting, "{f:?}");
    }

    #[test]
    fn flash_rig_detected_statically() {
        let html = payload::flash_clickjack_page(
            "games.example.com",
            &u("http://cdn.example.net/swf/AdFlash46.swf"),
            &u("http://cdn.example.net/glue.js"),
        );
        let f = Features::from_content(&u("http://games.example.com/"), &html);
        assert!(f.flash_clickjack);
    }

    #[test]
    fn generic_marker_detected() {
        let html = "<html><body><!-- slum:payload:generic-trojan-dropper --></body></html>";
        let f = Features::from_content(&u("http://m.example.com/"), html);
        assert!(f.generic_malware_marker);
        assert!(!f.is_clean());
    }

    #[test]
    fn false_positive_pages_carry_their_telltales() {
        let oauth = payload::google_oauth_relay_page("site.example.com");
        let f = Features::from_content(&u("http://site.example.com/"), &oauth);
        assert!(f.oauth_relay_iframe);
        assert!(!f.hidden_iframes.is_empty(), "structurally a hidden iframe");

        let ga = payload::google_analytics_page("site2.example.com");
        let f2 = Features::from_content(&u("http://site2.example.com/"), &ga);
        assert!(f2.ga_bootstrap);
        assert!(f2.hidden_iframes.is_empty());
    }

    #[test]
    fn meta_refresh_detected() {
        let html = payload::meta_refresh_page(&u("http://next.example/"));
        let f = Features::from_content(&u("http://hop.example/"), &html);
        assert!(f.meta_refresh);
    }

    #[test]
    fn from_load_sees_flash_and_downloads() {
        use slum_browser::Browser;
        use slum_websim::build::WebBuilder;
        use slum_websim::Tld;

        let mut b = WebBuilder::new(60);
        let flash = b.flash_site(Tld::Com, ContentCategory::Entertainment);
        let dl = b.js_site(
            slum_websim::JsAttack::DeceptiveDownload,
            Tld::Com,
            ContentCategory::Entertainment,
            false,
        );
        let web = b.finish();
        let browser = Browser::new(&web);

        let f_flash = Features::from_load(&browser.load(&flash.url));
        assert!(f_flash.flash_clickjack);
        assert!(f_flash.external_interface_calls > 0);
        assert!(f_flash.popups > 0);

        let f_dl = Features::from_load(&browser.load(&dl.url));
        assert!(f_dl.deceptive_download);
    }

    /// Markup pieces for [`outline_pass_matches_the_dom_walking_reference`]:
    /// hidden-iframe styles and wrappers, iframe `src`s with `?` and `&`,
    /// `object`/`embed` with `param` children, data-URI anchors,
    /// download-manager markup, meta refreshes and inline scripts.
    const PIECES: &[&str] = &[
        r#"<div style="display:none">"#,
        r#"<span style="visibility: hidden">"#,
        "</div>",
        "</span>",
        r#"<iframe src="http://t.example/p?a=1&amp;b=2" width="1" height="1"></iframe>"#,
        r#"<iframe src="https://accounts.example/o/oauth2/postmessageRelay?p=1"
            style="position:absolute;top:-100px"></iframe>"#,
        r#"<iframe allowtransparency="true" frameborder="0" src="http://x/?q"></iframe>"#,
        r#"<iframe hidden src=x?a&b></iframe>"#,
        r#"<IFRAME style="opacity:0" SRC='?&'>"#,
        "<iframe>",
        "</iframe>",
        r#"<object width="100%" data="m.swf">"#,
        "<object>",
        "</object>",
        r#"<param name="wmode" value="transparent">"#,
        r#"<param name="WMode" value="Transparent">"#,
        r#"<param name="wmode" value="opaque">"#,
        r#"<param name="allowscriptaccess" value="always">"#,
        r#"<param name="AllowScriptAccess" value="sameDomain">"#,
        r#"<param name="allowscriptaccess">"#,
        r#"<input name="wmode" value="transparent">"#,
        r#"<embed src="e.swf" width="100%" name="allowScriptAccess" value="ALWAYS">"#,
        r#"<embed name="wmode" value="transparent" src="x.swf">"#,
        r#"<a href="data:text/html;base64,PGh0bWw+">"#,
        r#"<a href=" data:x">"#,
        r#"<a href="http://x/">"#,
        "</a>",
        r#"<div data-dm-title="Flash Player">"#,
        r#"<span data-dm="1">"#,
        r#"<meta http-equiv="refresh" content="0; url=http://n.example/">"#,
        r#"<meta http-equiv="Refresh" content="5;URL='http://m.example/'">"#,
        r#"<meta http-equiv="refresh" content="30">"#,
        r#"<meta charset="utf-8">"#,
        r#"<meta http-equiv="x-ua-compatible" content="ie=edge">"#,
        "<script>var GoogleAnalyticsObject='ga';</script>",
        "<script>document.addEventListener('mousemove',f);document.createElement('img');</script>",
        r#"<script>window.onkeydown=k;new Image().src="/fp?"+k;</script>"#,
        r#"<script src="/lib.js"></script>"#,
        "<script>",
        "</script>",
        "<!-- slum:payload:generic-trojan-dropper -->",
        "<p>hello &amp; bye</p>",
        "<body>",
        "</body>",
    ];

    /// `from_page` and `from_body` equal the DOM-walking reference over
    /// a second parse of `body`.
    fn assert_matches_reference(body: &Body) {
        let want = Features::reference_static_pass(&Document::parse(body), body);
        assert_eq!(Features::from_page(body), want, "{body:?}");
        assert_eq!(Features::from_body(body), want, "{body:?}");
    }

    fn every_kind_of_page(seed: u64) -> slum_websim::SyntheticWeb {
        use slum_websim::build::{BenignOptions, MaliciousOptions, WebBuilder};
        use slum_websim::{FalsePositiveKind, JsAttack, MaliceKind, Tld};

        let mut b = WebBuilder::new(seed);
        let cat = ContentCategory::Entertainment;
        b.benign_site(BenignOptions::default());
        b.popular_site("popular.example.com");
        b.exchange_home("home.exchange.example");
        b.flash_site(Tld::Com, cat);
        b.redirect_chain_site(4, Tld::Com, cat);
        b.rotating_redirector_site(3, cat);
        b.shortened_site(Tld::Com, cat);
        for kind in [FalsePositiveKind::GoogleOauthRelay, FalsePositiveKind::GoogleAnalytics] {
            b.false_positive_site(kind);
        }
        for cloaked in [false, true] {
            b.blacklisted_site(Tld::Com, cat, cloaked);
            b.misc_site(Tld::Com, cat, cloaked);
            for attack in [
                JsAttack::HiddenIframe,
                JsAttack::InvisibleIframeExfil,
                JsAttack::DynamicIframe,
                JsAttack::DeceptiveDownload,
                JsAttack::Fingerprinting,
            ] {
                b.js_site(attack, Tld::Com, cat, cloaked);
            }
            b.malicious_site(MaliciousOptions { cloaked: Some(cloaked), ..Default::default() });
            b.malicious_site(MaliciousOptions {
                kind: Some(MaliceKind::MaliciousFlash),
                cloaked: Some(cloaked),
                ..Default::default()
            });
        }
        b.finish()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// The static pass over the outline's facts equals the
        /// DOM-walking reference: on generated markup, and on every body
        /// of a web holding every kind of page the builder makes, which
        /// includes each cloaked page's scanner view and each
        /// meta-refresh hop.
        #[test]
        fn outline_pass_matches_the_dom_walking_reference(
            seed in proptest::any::<u64>(),
            pieces in proptest::collection::vec(
                (0..PIECES.len() + 1, "[a-z<>/=\"' ?&:;%-]{0,8}"),
                0..32,
            ),
        ) {
            let html: String = pieces
                .iter()
                .map(|(i, free)| PIECES.get(*i).copied().unwrap_or(free))
                .collect();
            assert_matches_reference(&Body::from(html));
            let web = every_kind_of_page(seed);
            let cloaked = web.oracle_pages().filter(|page| page.is_cloaked()).count();
            proptest::prop_assert!(web.bodies().len() >= 30 && cloaked >= 7);
            web.bodies().iter().for_each(assert_matches_reference);
        }
    }

    #[test]
    fn rotating_redirector_script_is_js_redirect() {
        use slum_browser::Browser;
        use slum_websim::build::WebBuilder;

        let mut b = WebBuilder::new(61);
        let spec = b.rotating_redirector_site(3, ContentCategory::Advertisement);
        let web = b.finish();
        let load = Browser::new(&web).load(&spec.url);
        let f = Features::from_load(&load);
        assert!(f.js_redirect, "{f:?}");
    }
}
