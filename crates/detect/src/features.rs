//! Shared feature extraction: the structural and behavioural signals
//! every detection engine keys on.
//!
//! Extraction is a static pass composed with a dynamic one:
//!
//! - the static pass ([`Features::from_page`]: DOM inspection + static
//!   deobfuscation) is a pure function of the page body, so the scan
//!   pipeline computes it once per distinct body;
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
use slum_html::Document;
use slum_js::obfuscate::{is_likely_obfuscated, unpack_all_static};
use slum_js::sandbox::{Effect, JsEngine, Sandbox, SandboxReport};
use slum_js::ModuleStore;
use slum_websim::Url;

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
        let dom = Document::parse(html);
        let inline_scripts = dom.inline_scripts();
        Features::from_document(&dom, html).with_script_run(url, &inline_scripts, engine, store)
    }

    /// Extracts features from a full browser load (the URL-scan path —
    /// includes external scripts, Flash, and the redirect chain).
    pub fn from_load(load: &LoadResult) -> Features {
        load.html.as_deref().map(Features::from_page).unwrap_or_default().with_load(load)
    }

    /// The static pass over one page body: DOM inspection plus static
    /// analysis of its inline scripts. A pure function of `html`.
    pub fn from_page(html: &str) -> Features {
        Features::from_document(&Document::parse(html), html)
    }

    /// [`Features::from_page`] over an already parsed body.
    fn from_document(dom: &Document, html: &str) -> Features {
        let mut f = Features::default();
        f.static_pass(dom, html);
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
            self.fold_injected_dom(&Document::parse(&report.written_html));
        }
    }

    /// Static DOM + script-text analysis.
    fn static_pass(&mut self, dom: &Document, html: &str) {
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

    /// Inspects runtime-injected markup.
    fn fold_injected_dom(&mut self, injected: &Document) {
        for id in injected.iframes() {
            self.dynamic_iframe_injection = true;
            let src = injected
                .element(id)
                .and_then(|el| el.attr("src"))
                .unwrap_or_default()
                .to_string();
            for r in injected.effective_hidden_reasons(id) {
                self.hidden_iframes.push((r, src.clone()));
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
