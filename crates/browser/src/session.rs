//! The page-load pipeline: redirects → outline → scripts → clicks.

use std::sync::Arc;

use slum_js::flash::SwfMovie;
use slum_js::sandbox::{Effect, JsEngine, Sandbox, SandboxReport};
use slum_js::ModuleStore;
use slum_websim::{Body, FetchOutcome, RequestContext, SyntheticWeb, Url};

use crate::har::{HarEntry, HarLog};

/// How a hop in a redirect chain was effected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RedirectKind {
    /// HTTP 301/302 `Location` header.
    Http,
    /// `<meta http-equiv="refresh">`.
    MetaRefresh,
    /// JavaScript `window.location` assignment.
    JsLocation,
    /// URL-shortener resolution (HTTP 301 from a shortening service).
    Shortener,
}

/// One hop of a redirect chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RedirectHop {
    /// URL redirected from.
    pub from: Url,
    /// URL redirected to.
    pub to: Url,
    /// Mechanism.
    pub kind: RedirectKind,
}

/// A file download captured during a load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Download {
    /// URL that served the file.
    pub url: Url,
    /// Offered file name (e.g. `flashplayer.exe`).
    pub filename: String,
}

/// Everything observed while loading one URL.
#[derive(Debug, Clone)]
pub struct LoadResult {
    /// The URL originally requested.
    pub requested_url: Url,
    /// The URL that finally served content (after all redirects).
    pub final_url: Url,
    /// Redirect chain traversed, in order.
    pub chain: Vec<RedirectHop>,
    /// Final page HTML (what the browser saw — cloaking already applied
    /// by the server according to the request context): the web's
    /// handle on the body, shared with every other load of it, which
    /// carries the body's outline.
    pub html: Option<Body>,
    /// Aggregated sandbox report over every executed script; markup the
    /// scripts wrote via `document.write` is in `js.written_html`.
    pub js: SandboxReport,
    /// Downloads triggered (navigations to executables, direct fetches).
    pub downloads: Vec<Download>,
    /// Pop-up windows opened by scripts or Flash.
    pub popups: Vec<Url>,
    /// SWF movies encountered on the page.
    pub swf_movies: Vec<SwfMovie>,
    /// External script URLs that were fetched and executed.
    pub external_scripts: Vec<Url>,
    /// True when the load ended in a 404 or a hop limit.
    pub failed: bool,
}

impl LoadResult {
    /// Number of redirect hops traversed before content was served.
    pub fn redirect_count(&self) -> u32 {
        self.chain.len() as u32
    }

    /// True when the initial and final URLs differ (the paper's
    /// suspicious-redirect signal).
    pub fn was_redirected(&self) -> bool {
        self.requested_url != self.final_url
    }

    /// True when the load fetched nothing but the requested route's own
    /// page: no redirect hop, no external script or plugin named by the
    /// page, no download, navigation or pop-up, and no failure.
    ///
    /// Such a load is a function of the route ([`Url::host_path`]) and
    /// the browser's settings alone: the web serves a route's page
    /// whatever the query and the clock, the only fetch with a side
    /// effect (a shortener's hit count) answers with a redirect, and no
    /// page script reads `location`, while `Math.random` and `Date` are
    /// constants. So every load of the route at any time and under any
    /// query sees the same page and the same effects.
    pub fn is_static(&self) -> bool {
        let Some(page) = &self.html else { return false };
        let outline = page.outline();
        let opens_a_url = |e: &Effect| matches!(e, Effect::Navigate { .. } | Effect::Popup { .. });
        !self.failed
            && self.chain.is_empty()
            && self.final_url == self.requested_url
            && outline.external_scripts.is_empty()
            && outline.plugin_srcs.is_empty()
            && self.downloads.is_empty()
            && !self.js.effects.iter().any(opens_a_url)
    }
}

/// A headless browser bound to a synthetic web.
///
/// A browser carries only its settings, never per-load state, so one
/// can be constructed once and [`Browser::load`] called repeatedly. A
/// load reads each page from its body's outline ([`Body::outline`]):
/// a body the web serves is parsed once, however many loads land on it,
/// and the result of a load is the same either way.
#[derive(Debug, Clone)]
pub struct Browser<'w> {
    web: &'w SyntheticWeb,
    ctx: RequestContext,
    max_hops: u32,
    simulate_click: bool,
    clock: u64,
    js_engine: JsEngine,
    module_store: Option<Arc<dyn ModuleStore>>,
}

impl<'w> Browser<'w> {
    /// Creates a browser with the default (real-browser) request context.
    pub fn new(web: &'w SyntheticWeb) -> Self {
        Browser {
            web,
            ctx: RequestContext::browser(),
            max_hops: 8,
            simulate_click: true,
            clock: 0,
            js_engine: JsEngine::default(),
            module_store: None,
        }
    }

    /// Selects the JavaScript engine used for page scripts (the bytecode
    /// VM by default; the tree-walking interpreter as the differential
    /// oracle).
    pub fn with_js_engine(mut self, engine: JsEngine) -> Self {
        self.js_engine = engine;
        self
    }

    /// Shares a compiled-module cache across loads, so pages reusing the
    /// same packed payload compile it once. Only consulted by the
    /// [`JsEngine::Vm`] engine.
    pub fn with_module_store(mut self, store: Arc<dyn ModuleStore>) -> Self {
        self.module_store = Some(store);
        self
    }

    /// Overrides the request context (visitor country, referrer, or a
    /// scanner identity for cloaking experiments). The browser clock
    /// stays authoritative for the context's request time.
    pub fn with_context(mut self, ctx: RequestContext) -> Self {
        self.ctx = ctx;
        self.ctx.time = self.clock;
        self
    }

    /// Sets the virtual timestamp stamped into HAR entries and carried
    /// on every request (time-keyed resources such as the rotating
    /// redirector resolve against it).
    pub fn at_time(mut self, seconds: u64) -> Self {
        self.clock = seconds;
        self.ctx.time = seconds;
        self
    }

    /// Disables the automatic user-click simulation (auto-surf exchanges
    /// never click; manual-surf users do).
    pub fn without_click(mut self) -> Self {
        self.simulate_click = false;
        self
    }

    /// Sets the redirect hop cap.
    pub fn with_max_hops(mut self, max_hops: u32) -> Self {
        self.max_hops = max_hops;
        self
    }

    /// Loads `url`, following redirects and executing scripts. Logs
    /// nothing: [`Browser::load_logged`] is the same load with its HAR.
    pub fn load(&self, url: &Url) -> LoadResult {
        self.load_with(url, &mut None)
    }

    /// Loads `url` like [`Browser::load`] and also returns the HAR log
    /// of every request the load issued, the capture NetExport wrote.
    /// The [`LoadResult`] equals the one `load` returns.
    pub fn load_logged(&self, url: &Url) -> (LoadResult, HarLog) {
        let mut har = Some(HarLog::new());
        let result = self.load_with(url, &mut har);
        (result, har.unwrap_or_default())
    }

    /// The one load behind both entry points; requests go to `har` when
    /// it holds a log.
    fn load_with(&self, url: &Url, har: &mut Option<HarLog>) -> LoadResult {
        let mut result = LoadResult {
            requested_url: url.clone(),
            final_url: url.clone(),
            chain: Vec::new(),
            html: None,
            js: SandboxReport::default(),
            downloads: Vec::new(),
            popups: Vec::new(),
            swf_movies: Vec::new(),
            external_scripts: Vec::new(),
            failed: false,
        };
        let mut current = url.clone();
        let mut referrer = self.ctx.referrer.clone();

        // Phase 1: follow server-side redirects (302 + shortener 301 +
        // meta refresh) to the content URL.
        loop {
            if result.chain.len() as u32 > self.max_hops {
                result.failed = true;
                return result;
            }
            let ctx = self.ctx.clone().with_referrer(referrer.clone());
            let outcome = self.web.fetch(&current, &ctx);
            match outcome {
                FetchOutcome::Redirect { target, status } => {
                    self.log(har, &current, status, "", &referrer, Some(&target));
                    let kind = if self.web.shorteners().is_shortener_host(current.host()) {
                        RedirectKind::Shortener
                    } else {
                        RedirectKind::Http
                    };
                    result.chain.push(RedirectHop {
                        from: current.clone(),
                        to: target.clone(),
                        kind,
                    });
                    referrer = current.host().to_string();
                    current = target;
                }
                FetchOutcome::Html { body } => {
                    self.log(har, &current, 200, "text/html", &referrer, None);
                    let refresh = body.outline().meta_refresh.as_deref();
                    if let Some(target) = refresh.and_then(|t| Url::parse(t).ok()) {
                        result.chain.push(RedirectHop {
                            from: current.clone(),
                            to: target.clone(),
                            kind: RedirectKind::MetaRefresh,
                        });
                        referrer = current.host().to_string();
                        current = target;
                        continue;
                    }
                    result.final_url = current.clone();
                    result.html = Some(body);
                    break;
                }
                FetchOutcome::Download { filename } => {
                    self.log(
                        har,
                        &current,
                        200,
                        "application/octet-stream",
                        &referrer,
                        None,
                    );
                    result.final_url = current.clone();
                    result.downloads.push(Download { url: current.clone(), filename });
                    return result;
                }
                FetchOutcome::Script { .. } | FetchOutcome::Swf { .. } => {
                    // Direct navigation to a script/swf: record and stop.
                    self.log(har, &current, 200, "application/javascript", &referrer, None);
                    result.final_url = current.clone();
                    return result;
                }
                FetchOutcome::NotFound => {
                    self.log(har, &current, 404, "", &referrer, None);
                    result.final_url = current.clone();
                    result.failed = true;
                    return result;
                }
            }
        }

        // Phase 2: execute scripts against the final document.
        self.run_page_scripts(&mut result, har);

        // Phase 3: follow at most one script-driven navigation (a JS
        // redirector) — to a download or a new page.
        if let Some(nav) = result.js.outbound_urls().first().cloned() {
            self.follow_script_navigation(&nav, &mut result, har);
        }
        result
    }

    /// Executes inline scripts, external scripts and Flash movies of the
    /// final page; aggregates effects into `result.js`.
    fn run_page_scripts(&self, result: &mut LoadResult, har: &mut Option<HarLog>) {
        let Some(body) = result.html.clone() else { return };
        let outline = body.outline();
        let page_url = result.final_url.clone();
        let mut merged = SandboxReport::default();

        let mut external_sources: Vec<String> = Vec::new();
        // External scripts first (as they define globals pages rely on).
        for src in &outline.external_scripts {
            let Ok(script_url) = resolve_href(&page_url, src) else { continue };
            match self.web.fetch(&script_url, &self.ctx) {
                FetchOutcome::Script { body } => {
                    self.log(
                        har,
                        &script_url,
                        200,
                        "application/javascript",
                        page_url.host(),
                        None,
                    );
                    result.external_scripts.push(script_url);
                    external_sources.push(body);
                }
                FetchOutcome::Redirect { target, status } => {
                    // A script src that redirects (the rotating
                    // redirector): treat as a JS-level navigation.
                    self.log(har, &script_url, status, "", page_url.host(), Some(&target));
                    result.external_scripts.push(script_url.clone());
                    merged.effects.push(Effect::Navigate { url: target.to_string() });
                }
                _ => {
                    self.log(har, &script_url, 404, "", page_url.host(), None);
                }
            }
        }
        let sources: Vec<&str> = external_sources
            .iter()
            .chain(&outline.inline_scripts)
            .map(String::as_str)
            .collect();

        // Flash movies: parse descriptors; their ExternalInterface calls
        // become synthesized invocations appended to the glue scripts.
        let mut flash_calls: Vec<String> = Vec::new();
        for data in &outline.plugin_srcs {
            let Ok(swf_url) = resolve_href(&page_url, data) else { continue };
            if let FetchOutcome::Swf { descriptor } = self.web.fetch(&swf_url, &self.ctx) {
                self.log(
                    har,
                    &swf_url,
                    200,
                    "application/x-shockwave-flash",
                    page_url.host(),
                    None,
                );
                if let Ok(movie) = SwfMovie::parse(&descriptor) {
                    for effect in movie.load() {
                        if let Effect::ExternalCall { name, .. } = &effect {
                            flash_calls.push(name.clone());
                        }
                        merged.effects.push(effect);
                    }
                    if self.simulate_click {
                        for effect in movie.click(false) {
                            if let Effect::ExternalCall { name, .. } = &effect {
                                flash_calls.push(name.clone());
                            }
                            merged.effects.push(effect);
                        }
                    }
                    result.swf_movies.push(movie);
                }
            }
        }

        // Run all script sources in one sandbox pass so cross-script
        // definitions resolve, then invoke any Flash external-interface
        // targets against the same program text.
        let mut program = sources.join("\n;\n");
        for call in &flash_calls {
            program.push_str(&format!("\n;try {{ {call}(); }} catch (e) {{}}"));
        }
        if !program.trim().is_empty() {
            let mut sandbox = Sandbox::new()
                .with_location(page_url.to_string())
                .with_referrer(self.ctx.referrer.clone())
                .with_engine(self.js_engine);
            if let Some(store) = &self.module_store {
                sandbox = sandbox.with_module_store(store.clone());
            }
            let report = sandbox.run(&program);
            merge_reports(&mut merged, report);
        }

        // A simulated user click fires the page's registered click
        // handlers; the sandbox already force-executes listeners, so no
        // extra pass is needed.
        for url in merged.effects.iter().filter_map(|e| match e {
            Effect::Popup { url } => Url::parse(url).ok(),
            _ => None,
        }) {
            result.popups.push(url);
        }
        result.js = merged;
    }

    /// Follows a script-initiated navigation: downloads land in
    /// `downloads`, page targets add a `JsLocation` hop (without
    /// recursing into another full script pass).
    fn follow_script_navigation(
        &self,
        nav: &str,
        result: &mut LoadResult,
        har: &mut Option<HarLog>,
    ) {
        let Ok(target) = Url::parse(nav) else { return };
        if target.is_data() {
            return;
        }
        let from = result.final_url.clone();
        match self.web.fetch(&target, &self.ctx) {
            FetchOutcome::Download { filename } => {
                self.log(
                    har,
                    &target,
                    200,
                    "application/octet-stream",
                    from.host(),
                    None,
                );
                result.downloads.push(Download { url: target, filename });
            }
            FetchOutcome::Html { .. } => {
                self.log(har, &target, 200, "text/html", from.host(), None);
                result.chain.push(RedirectHop {
                    from,
                    to: target.clone(),
                    kind: RedirectKind::JsLocation,
                });
                result.final_url = target;
            }
            FetchOutcome::Redirect { target: next, status } => {
                self.log(har, &target, status, "", from.host(), Some(&next));
                result.chain.push(RedirectHop {
                    from: from.clone(),
                    to: target.clone(),
                    kind: RedirectKind::JsLocation,
                });
                // Follow the 302 tail without re-running scripts.
                let mut current = target;
                let mut next_target = Some(next);
                while let Some(t) = next_target.take() {
                    if result.chain.len() as u32 > self.max_hops {
                        result.failed = true;
                        break;
                    }
                    result.chain.push(RedirectHop {
                        from: current.clone(),
                        to: t.clone(),
                        kind: RedirectKind::Http,
                    });
                    match self.web.fetch(&t, &self.ctx) {
                        FetchOutcome::Redirect { target: t2, status } => {
                            self.log(har, &t, status, "", current.host(), Some(&t2));
                            current = t.clone();
                            next_target = Some(t2);
                        }
                        FetchOutcome::Download { filename } => {
                            self.log(
                                har,
                                &t,
                                200,
                                "application/octet-stream",
                                current.host(),
                                None,
                            );
                            result.downloads.push(Download { url: t.clone(), filename });
                            result.final_url = t;
                        }
                        _ => {
                            self.log(har, &t, 200, "text/html", current.host(), None);
                            result.final_url = t;
                        }
                    }
                }
            }
            _ => {}
        }
    }

    /// Appends one request to `har` when the load is logged.
    fn log(
        &self,
        har: &mut Option<HarLog>,
        url: &Url,
        status: u16,
        content_type: &str,
        referrer: &str,
        redirect_to: Option<&Url>,
    ) {
        let Some(har) = har else { return };
        har.push(HarEntry {
            started: self.clock,
            method: "GET".into(),
            url: url.to_string(),
            status,
            content_type: content_type.to_string(),
            redirect_url: redirect_to.map(|u| u.to_string()).unwrap_or_default(),
            body_size: 0,
            referrer: referrer.to_string(),
        });
    }
}

/// Resolves an href/src against the page URL: absolute URLs pass
/// through; `//host/...` inherits http; site-relative paths resolve onto
/// the page host.
pub fn resolve_href(page: &Url, href: &str) -> Result<Url, slum_websim::url::ParseUrlError> {
    if href.starts_with("http://") || href.starts_with("https://") || href.starts_with("//")
        || href.starts_with("data:")
    {
        return Url::parse(href);
    }
    Ok(page.with_path(href))
}

/// Merges `addition` into `base`, concatenating logs.
fn merge_reports(base: &mut SandboxReport, addition: SandboxReport) {
    base.effects.extend(addition.effects);
    base.written_html.push_str(&addition.written_html);
    base.errors.extend(addition.errors);
    base.steps_used += addition.steps_used;
    base.max_eval_depth = base.max_eval_depth.max(addition.max_eval_depth);
    base.vm_instructions += addition.vm_instructions;
    base.vm_module_lookups += addition.vm_module_lookups;
}

#[cfg(test)]
mod tests {
    use super::*;
    use slum_websim::build::{BenignOptions, MaliciousOptions, WebBuilder};
    use slum_websim::{ContentCategory, JsAttack, MaliceKind, Tld};

    #[test]
    fn benign_load_has_no_chain_or_effects() {
        let mut b = WebBuilder::new(100);
        let site = b.benign_site(BenignOptions::default());
        let web = b.finish();
        let (load, har) = Browser::new(&web).load_logged(&site.url);
        assert!(!load.failed);
        assert_eq!(load.redirect_count(), 0);
        assert!(!load.was_redirected());
        assert!(load.downloads.is_empty());
        assert!(load.popups.is_empty());
        assert_eq!(har.status_chain(), vec![200]);
    }

    #[test]
    fn redirect_chain_followed_and_counted() {
        let mut b = WebBuilder::new(101);
        let spec = b.redirect_chain_site(4, Tld::Com, ContentCategory::Business);
        let web = b.finish();
        let load = Browser::new(&web).load(&spec.url);
        assert!(!load.failed);
        assert_eq!(load.redirect_count(), 4);
        assert!(load.was_redirected());
        // Figure 4 shape: 302s then a meta refresh.
        assert!(load.chain.iter().any(|h| h.kind == RedirectKind::MetaRefresh));
        assert!(load.chain.iter().any(|h| h.kind == RedirectKind::Http));
    }

    #[test]
    fn shortener_hop_labelled() {
        let mut b = WebBuilder::new(102);
        let spec = b.shortened_site(Tld::Com, ContentCategory::Business);
        let web = b.finish();
        let load = Browser::new(&web).load(&spec.url);
        assert!(load.chain.iter().any(|h| h.kind == RedirectKind::Shortener));
        assert!(!load.failed);
    }

    #[test]
    fn dynamic_iframe_injection_observed() {
        let mut b = WebBuilder::new(103);
        let spec = b.js_site(
            JsAttack::DynamicIframe,
            Tld::Com,
            ContentCategory::Business,
            false,
        );
        let web = b.finish();
        let load = Browser::new(&web).load(&spec.url);
        assert!(load.js.errors.is_empty(), "{:?}", load.js.errors);
        assert!(!load.js.written_html.is_empty(), "document.write output");
        let injected = slum_html::Document::parse(&load.js.written_html);
        let iframes = injected.iframes();
        assert_eq!(iframes.len(), 1);
        assert!(injected.is_pixel_iframe(iframes[0]));
    }

    #[test]
    fn deceptive_download_captured_on_click() {
        let mut b = WebBuilder::new(104);
        let spec = b.js_site(
            JsAttack::DeceptiveDownload,
            Tld::Com,
            ContentCategory::Entertainment,
            false,
        );
        let web = b.finish();
        let load = Browser::new(&web).load(&spec.url);
        assert_eq!(load.downloads.len(), 1);
        assert_eq!(load.downloads[0].filename, "flashplayer.exe");
    }

    #[test]
    fn flash_clickjack_opens_popups() {
        let mut b = WebBuilder::new(105);
        let spec = b.flash_site(Tld::Com, ContentCategory::Entertainment);
        let web = b.finish();
        let load = Browser::new(&web).load(&spec.url);
        assert_eq!(load.swf_movies.len(), 1);
        assert!(load.swf_movies[0].is_clickjack());
        assert!(!load.popups.is_empty(), "clickjack must open popup ads");
    }

    #[test]
    fn rotating_redirector_navigates_differently_per_time() {
        let mut b = WebBuilder::new(106);
        let spec = b.rotating_redirector_site(4, ContentCategory::Advertisement);
        let web = b.finish();
        let first = Browser::new(&web).at_time(0).load(&spec.url);
        let second = Browser::new(&web).at_time(1).load(&spec.url);
        assert!(first.was_redirected());
        assert!(second.was_redirected());
        assert_ne!(first.final_url, second.final_url, "rotator must vary destination");
        // Replaying the same instant lands on the same destination: the
        // rotation is a pure function of the clock, not of fetch order.
        let replay = Browser::new(&web).at_time(0).load(&spec.url);
        assert_eq!(replay.final_url, first.final_url);
    }

    #[test]
    fn hop_limit_detects_loops() {
        use slum_websim::build::WebBuilder;
        // Build a 2-cycle: a → b → a.
        let mut b = WebBuilder::new(107);
        let site = b.benign_site(BenignOptions::default());
        let web = b.finish();
        let _ = site;
        // No loop primitive in the builder; simulate via max_hops=0 on a
        // redirect site instead.
        let mut b2 = WebBuilder::new(108);
        let spec = b2.redirect_chain_site(5, Tld::Com, ContentCategory::Business);
        let web2 = b2.finish();
        let load = Browser::new(&web2).with_max_hops(2).load(&spec.url);
        assert!(load.failed);
        let _ = web;
    }

    #[test]
    fn cloaked_page_served_evil_to_browser() {
        let mut b = WebBuilder::new(109);
        let spec = b.malicious_site(MaliciousOptions {
            kind: Some(MaliceKind::Misc),
            cloaked: Some(true),
            ..Default::default()
        });
        let web = b.finish();
        let browser_load = Browser::new(&web).load(&spec.url);
        assert!(browser_load.html.unwrap().contains("generic-trojan-dropper"));
        let scanner_load = Browser::new(&web)
            .with_context(RequestContext::scanner("virustotal"))
            .load(&spec.url);
        assert!(!scanner_load.html.unwrap().contains("generic-trojan-dropper"));
    }

    #[test]
    fn har_records_subresources() {
        let mut b = WebBuilder::new(110);
        let spec = b.flash_site(Tld::Com, ContentCategory::Entertainment);
        let web = b.finish();
        let (_, har) = Browser::new(&web).at_time(777).load_logged(&spec.url);
        assert!(har.len() >= 3, "page + swf + glue script");
        assert!(har.entries.iter().all(|e| e.started == 777));
        assert!(har.entries.iter().any(|e| e.content_type == "application/x-shockwave-flash"));
    }

    #[test]
    fn missing_url_fails_cleanly() {
        let b = WebBuilder::new(111);
        let web = b.finish();
        let (load, har) = Browser::new(&web).load_logged(&Url::http("ghost.example.com", "/"));
        assert!(load.failed);
        assert_eq!(har.status_chain(), vec![404]);
    }

    #[test]
    fn resolve_href_variants() {
        let page = Url::http("site.example.com", "/dir/page");
        assert_eq!(
            resolve_href(&page, "http://other.example/x").unwrap().host(),
            "other.example"
        );
        assert_eq!(resolve_href(&page, "/abs/path").unwrap().to_string(), "http://site.example.com/abs/path");
        assert_eq!(resolve_href(&page, "rel.js").unwrap().to_string(), "http://site.example.com/rel.js");
        assert!(resolve_href(&page, "data:text/html,x").unwrap().is_data());
    }

    #[test]
    fn without_click_suppresses_flash_clickjack() {
        let mut b = WebBuilder::new(112);
        let spec = b.flash_site(Tld::Com, ContentCategory::Entertainment);
        let web = b.finish();
        let load = Browser::new(&web).without_click().load(&spec.url);
        // No click → the full-page movie's onclick never fires → no popups.
        assert!(load.popups.is_empty());
        assert_eq!(load.swf_movies.len(), 1);
    }
}
