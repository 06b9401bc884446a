//! Web population builder: the site factory downstream crates use to
//! assemble a synthetic web.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::Rng;

use crate::content::ContentCategory;
use crate::domain::Tld;
use crate::page::{FalsePositiveKind, GroundTruth, JsAttack, MaliceKind, Page};
use crate::params;
use crate::payload;
use crate::rng::{self, pick_weighted};
use crate::server::{Resource, SyntheticWeb};
use crate::shortener::ShortenerRegistry;
use crate::url::Url;

/// Description of an installed site, returned by every factory method.
/// This is what exchange listings reference.
#[derive(Debug, Clone)]
pub struct SiteSpec {
    /// Entry URL of the site.
    pub url: Url,
    /// Ground truth of the entry page (for redirect chains, of the
    /// chain's *entry* resource).
    pub truth: GroundTruth,
    /// Content category.
    pub category: ContentCategory,
    /// Number of redirect hops a browser will traverse from the entry
    /// URL before reaching a page (0 for ordinary pages).
    pub redirect_hops: u32,
}

/// Options for benign-site generation.
#[derive(Debug, Clone)]
#[derive(Default)]
pub struct BenignOptions {
    /// Force a category; `None` samples uniformly.
    pub category: Option<ContentCategory>,
    /// Force a TLD; `None` samples the benign mix.
    pub tld: Option<Tld>,
}


/// Options for malicious-site generation.
#[derive(Debug, Clone)]
#[derive(Default)]
pub struct MaliciousOptions {
    /// Force a malice kind; `None` samples the Table III mix (including
    /// the miscellaneous bucket).
    pub kind: Option<MaliceKind>,
    /// Force a TLD; `None` samples the Figure 6 malicious mix.
    pub tld: Option<Tld>,
    /// Force a content category; `None` samples the Figure 7 mix.
    pub category: Option<ContentCategory>,
    /// Force cloaking on/off; `None` samples [`params::CLOAKED_FRACTION`].
    pub cloaked: Option<bool>,
}


/// Incremental builder for a [`SyntheticWeb`].
///
/// All sampling is driven by the seed passed to [`WebBuilder::new`];
/// identical call sequences produce byte-identical webs.
pub struct WebBuilder {
    rng: StdRng,
    routes: HashMap<String, Resource>,
    shorteners: ShortenerRegistry,
    site_counter: usize,
}

impl WebBuilder {
    /// Creates a builder seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        WebBuilder {
            rng: rng::seeded(seed),
            routes: HashMap::new(),
            shorteners: ShortenerRegistry::with_standard_services(),
            site_counter: 0,
        }
    }

    /// Finishes construction.
    pub fn finish(self) -> SyntheticWeb {
        SyntheticWeb::new(self.routes, self.shorteners)
    }

    /// Direct RNG access for callers that co-sample with the builder.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    // ---- host allocation ----------------------------------------------

    fn fresh_host(&mut self, tld: &Tld) -> String {
        self.site_counter += 1;
        // The counter suffix guarantees uniqueness even under syllable
        // collisions; hosts remain plausible-looking.
        format!("{}{}.{}", rng::domain_stem(&mut self.rng), self.site_counter, tld.label())
    }

    fn sample_tld(&mut self, mix: &[(Tld, f64)]) -> Tld {
        let weights: Vec<f64> = mix.iter().map(|(_, w)| *w).collect();
        mix[pick_weighted(&mut self.rng, &weights)].0.clone()
    }

    fn sample_category(&mut self) -> ContentCategory {
        let mix = params::malicious_category_mix();
        let weights: Vec<f64> = mix.iter().map(|(_, w)| *w).collect();
        mix[pick_weighted(&mut self.rng, &weights)].0
    }

    fn install(&mut self, url: &Url, resource: Resource) {
        self.routes.insert(url.host_path().to_owned(), resource);
    }

    fn install_page(&mut self, page: Page) -> SiteSpec {
        let spec = SiteSpec {
            url: page.url.clone(),
            truth: page.truth,
            category: page.category,
            redirect_hops: 0,
        };
        self.install(&page.url.clone(), Resource::Page(page));
        spec
    }

    // ---- benign sites --------------------------------------------------

    /// Installs an ordinary benign member site.
    pub fn benign_site(&mut self, opts: BenignOptions) -> SiteSpec {
        let tld = opts.tld.unwrap_or_else(|| self.sample_tld(&params::benign_tld_mix()));
        let category = opts.category.unwrap_or_else(|| {
            ContentCategory::ALL[self.rng.gen_range(0..ContentCategory::ALL.len())]
        });
        let host = self.fresh_host(&tld);
        let url = Url::http(&host, "/");
        let html = payload::benign_page(&host, category);
        self.install_page(Page::benign(url, html, category))
    }

    /// Installs a benign site that *looks* malicious (§V-E false
    /// positives).
    pub fn false_positive_site(&mut self, kind: FalsePositiveKind) -> SiteSpec {
        let host = self.fresh_host(&Tld::Com);
        let url = Url::http(&host, "/");
        let html = match kind {
            FalsePositiveKind::GoogleOauthRelay => payload::google_oauth_relay_page(&host),
            FalsePositiveKind::GoogleAnalytics => payload::google_analytics_page(&host),
        };
        let page = Page {
            url: url.clone(),
            html,
            truth: GroundTruth::BenignSuspicious(kind),
            category: ContentCategory::Entertainment,
            cloaked_benign_html: None,
        };
        self.install_page(page)
    }

    /// Installs a stand-in for a genuinely popular site (Google,
    /// Facebook, YouTube analogues) at a fixed host.
    pub fn popular_site(&mut self, host: &str) -> SiteSpec {
        let url = Url::http(host, "/");
        let html = payload::popular_site_page(host);
        self.install_page(Page::benign(url, html, ContentCategory::Other))
    }

    /// Installs a traffic-exchange homepage at a fixed host.
    pub fn exchange_home(&mut self, host: &str) -> SiteSpec {
        let url = Url::http(host, "/");
        let html = payload::exchange_home_page(host);
        self.install_page(Page::benign(url, html, ContentCategory::Business))
    }

    // ---- malicious sites ------------------------------------------------

    /// Installs a malicious site per `opts`, sampling unset fields from
    /// the paper-calibrated mixes.
    pub fn malicious_site(&mut self, opts: MaliciousOptions) -> SiteSpec {
        let kind = match opts.kind {
            Some(k) => k,
            None => self.sample_malice_kind(),
        };
        let tld = opts.tld.unwrap_or_else(|| self.sample_tld(&params::malicious_tld_mix()));
        let category = opts.category.unwrap_or_else(|| self.sample_category());
        let cloaked = opts
            .cloaked
            .unwrap_or_else(|| self.rng.gen_bool(params::CLOAKED_FRACTION));

        match kind {
            MaliceKind::Blacklisted => self.blacklisted_site(tld, category, cloaked),
            MaliceKind::MaliciousJs(attack) => self.js_site(attack, tld, category, cloaked),
            MaliceKind::MaliciousFlash => self.flash_site(tld, category),
            MaliceKind::SuspiciousRedirect => {
                let hops = self.sample_redirect_hops();
                self.redirect_chain_site(hops, tld, category)
            }
            MaliceKind::MaliciousShortened => self.shortened_site(tld, category),
            MaliceKind::Misc => self.misc_site(tld, category, cloaked),
        }
    }

    /// Samples a malice kind from the Table III mix (misc included).
    pub fn sample_malice_kind(&mut self) -> MaliceKind {
        let mix = params::malware_category_mix();
        if self.rng.gen_bool(mix.misc_fraction) {
            return MaliceKind::Misc;
        }
        let weights = [
            mix.blacklisted,
            mix.malicious_js,
            mix.suspicious_redirect,
            mix.malicious_shortened,
            mix.malicious_flash,
        ];
        match pick_weighted(&mut self.rng, &weights) {
            0 => MaliceKind::Blacklisted,
            1 => MaliceKind::MaliciousJs(self.sample_js_attack()),
            2 => MaliceKind::SuspiciousRedirect,
            3 => MaliceKind::MaliciousShortened,
            _ => MaliceKind::MaliciousFlash,
        }
    }

    fn sample_js_attack(&mut self) -> JsAttack {
        // Hidden-iframe variants dominate §IV-A1; downloads and
        // fingerprinting are the named minority behaviours.
        let weights = [0.35, 0.15, 0.25, 0.15, 0.10];
        match pick_weighted(&mut self.rng, &weights) {
            0 => JsAttack::HiddenIframe,
            1 => JsAttack::InvisibleIframeExfil,
            2 => JsAttack::DynamicIframe,
            3 => JsAttack::DeceptiveDownload,
            _ => JsAttack::Fingerprinting,
        }
    }

    fn sample_redirect_hops(&mut self) -> u32 {
        let weights: Vec<f64> = params::REDIRECT_COUNT_HISTOGRAM.iter().map(|(_, w)| *w).collect();
        params::REDIRECT_COUNT_HISTOGRAM[pick_weighted(&mut self.rng, &weights)].0
    }

    /// Installs a page on a blacklisted-looking host. The host itself is
    /// the signal: `slum-detect`'s blacklists are populated from these.
    pub fn blacklisted_site(
        &mut self,
        tld: Tld,
        category: ContentCategory,
        cloaked: bool,
    ) -> SiteSpec {
        let host = self.fresh_host(&tld);
        let url = Url::http(&host, "/");
        let ad_host = format!("ads.{}", self.fresh_host(&Tld::Other("ru".into())));
        let html = payload::blacklisted_host_page(&host, &ad_host);
        let mut page = Page::malicious(url, html, MaliceKind::Blacklisted, category);
        if cloaked {
            page = page.with_cloak(payload::benign_page(&host, category));
        }
        self.install_page(page)
    }

    /// Installs a malicious-JavaScript site carrying `attack`.
    pub fn js_site(
        &mut self,
        attack: JsAttack,
        tld: Tld,
        category: ContentCategory,
        cloaked: bool,
    ) -> SiteSpec {
        let host = self.fresh_host(&tld);
        let url = Url::http(&host, "/");
        let obf_layers = if self.rng.gen_bool(params::OBFUSCATED_JS_FRACTION) {
            self.rng.gen_range(1..=params::MAX_OBFUSCATION_LAYERS)
        } else {
            0
        };
        let html = match attack {
            JsAttack::HiddenIframe => {
                let target = Url::http(&self.fresh_host(&Tld::Com), "/track");
                payload::pixel_iframe_page(&host, &target)
            }
            JsAttack::InvisibleIframeExfil => {
                let exfil = self.fresh_host(&Tld::Com);
                payload::invisible_exfil_iframe_page(&host, &exfil, "id_supp")
            }
            JsAttack::DynamicIframe => {
                let target = Url::http(&self.fresh_host(&Tld::Net), "/ai.aspx");
                payload::js_injected_iframe_page(&host, &target, obf_layers)
            }
            JsAttack::DeceptiveDownload => {
                let dl_host = self.fresh_host(&Tld::Net);
                // Install the executable the prompt downloads.
                let dl_url = Url::http(&dl_host, "/c");
                self.install(&dl_url, Resource::Executable { filename: "flashplayer.exe".into() });
                payload::deceptive_download_page(&host, &dl_host)
            }
            JsAttack::Fingerprinting => {
                let collector = self.fresh_host(&Tld::Com);
                payload::fingerprinting_page(&host, &collector)
            }
        };
        let mut page = Page::malicious(url, html, MaliceKind::MaliciousJs(attack), category);
        if cloaked {
            page = page.with_cloak(payload::benign_page(&host, category));
        }
        self.install_page(page)
    }

    /// Installs a Flash click-jacking site: page + SWF descriptor + glue
    /// script.
    pub fn flash_site(&mut self, tld: Tld, category: ContentCategory) -> SiteSpec {
        let host = self.fresh_host(&tld);
        let url = Url::http(&host, "/");
        let cdn = self.fresh_host(&Tld::Net);
        let swf_url = Url::http(&cdn, "/swf/AdFlash46.swf");
        let glue_url = Url::http(&cdn, "/542_mobile3.js");
        let popup = Url::http(&self.fresh_host(&Tld::Com), "/ad");

        self.install(
            &swf_url,
            Resource::Swf {
                descriptor:
                    "SWF1;name=AdFlash46;fullpage;transparent;allowdomain=*;onclick=AdFlash.onClick,window.NqPnfu"
                        .into(),
            },
        );
        let layers = self.rng.gen_range(1..=params::MAX_OBFUSCATION_LAYERS);
        self.install(
            &glue_url,
            Resource::Script { body: payload::flash_glue_script(&popup, layers) },
        );
        let html = payload::flash_clickjack_page(&host, &swf_url, &glue_url);
        self.install_page(Page::malicious(url, html, MaliceKind::MaliciousFlash, category))
    }

    /// Installs a suspicious redirect chain of `hops` 302s whose entry is
    /// listed on exchanges and whose terminus hosts a malicious page. The
    /// final hop is a meta refresh, matching Figure 4's chain shape.
    pub fn redirect_chain_site(
        &mut self,
        hops: u32,
        tld: Tld,
        category: ContentCategory,
    ) -> SiteSpec {
        let hops = hops.max(1);
        // Terminal malicious page.
        let final_host = self.fresh_host(&Tld::Com);
        let final_url = Url::http(&final_host, "/landing");
        let dl_host = self.fresh_host(&Tld::Net);
        let final_html = payload::deceptive_download_page(&final_host, &dl_host);
        self.install(
            &Url::http(&dl_host, "/c"),
            Resource::Executable { filename: "flashplayer.exe".into() },
        );
        self.install(
            &final_url,
            Resource::Page(Page::malicious(
                final_url.clone(),
                final_html,
                MaliceKind::SuspiciousRedirect,
                category,
            )),
        );

        // Chain backwards: entry → hop1 → ... → final. The last redirect
        // before the landing page is a meta refresh when the chain is
        // long enough (Figure 4 ends `bounce → meta refresh → landing`).
        let mut next = final_url.clone();
        for hop_idx in (0..hops).rev() {
            let bridge_host = if hop_idx == 0 {
                self.fresh_host(&tld)
            } else {
                format!("bridge{}.{}", hop_idx, self.fresh_host(&Tld::Net))
            };
            let token = rng::path_token(&mut self.rng, 8);
            let hop_url = Url::http(&bridge_host, &format!("/ct?cid={token}"));
            let use_meta = hop_idx + 1 == hops && hops >= 2;
            let resource = if use_meta {
                Resource::MetaRefresh { target: next.clone() }
            } else {
                Resource::Redirect { target: next.clone() }
            };
            self.install(&hop_url, resource);
            next = hop_url;
        }
        SiteSpec {
            url: next,
            truth: GroundTruth::Malicious(MaliceKind::SuspiciousRedirect),
            category,
            redirect_hops: hops,
        }
    }

    /// Installs a rotating server-side redirector (the `company.ooo`
    /// pattern, §V-C): a script URL that 302s somewhere different on
    /// every fetch, plus a listed page that includes it.
    pub fn rotating_redirector_site(
        &mut self,
        n_destinations: usize,
        category: ContentCategory,
    ) -> SiteSpec {
        let rotor_host = self.fresh_host(&Tld::Other("ooo".into()));
        let token = rng::path_token(&mut self.rng, 8).to_lowercase();
        let rotor_url = Url::http(&rotor_host, &format!("/{token}.php?id=8689556"));
        let mut targets = Vec::with_capacity(n_destinations.max(1));
        for _ in 0..n_destinations.max(1) {
            let dest_host = self.fresh_host(&Tld::Com);
            let dest_url = Url::http(&dest_host, "/offer");
            let html = payload::blacklisted_host_page(&dest_host, &format!("ads.{dest_host}"));
            self.install(
                &dest_url,
                Resource::Page(Page::malicious(
                    dest_url.clone(),
                    html,
                    MaliceKind::SuspiciousRedirect,
                    category,
                )),
            );
            targets.push(dest_url);
        }
        self.install(&rotor_url, Resource::RotatingRedirect { targets });

        let host = self.fresh_host(&Tld::Com);
        let url = Url::http(&host, "/");
        let html = payload::rotating_redirector_page(&host, &rotor_url);
        let page = Page::malicious(url, html, MaliceKind::SuspiciousRedirect, category);
        self.install_page(page)
    }

    /// Installs a malicious site hidden behind a (possibly nested)
    /// shortened URL. Returns a spec whose entry URL is the short link.
    pub fn shortened_site(&mut self, tld: Tld, category: ContentCategory) -> SiteSpec {
        // Underlying malicious page.
        let inner = self.blacklisted_site(tld, category, false);
        let services = crate::shortener::SERVICES;
        let svc_host = services[self.rng.gen_range(0..services.len())];
        let code = rng::path_token(&mut self.rng, 6);
        let short = self
            .shorteners
            .service(svc_host)
            .expect("standard service")
            .register(&code, inner.url.clone());

        // Organic pre-study traffic per Table IV.
        let hits = rng::heavy_tail(
            &mut self.rng,
            params::SHORTENER_HITS_MIN,
            params::SHORTENER_HITS_MAX,
        );
        let countries = params::VISITOR_COUNTRIES;
        let weights: Vec<f64> = countries.iter().map(|(_, w)| *w).collect();
        let country = countries[pick_weighted(&mut self.rng, &weights)].0;
        let referrer = if self.rng.gen_bool(0.8) {
            // Top referrers are usually traffic exchanges (Table IV).
            ["10khits.example", "otohits.example", "vtrafficrush.example", "hit4hit.example"]
                [self.rng.gen_range(0..4)]
        } else {
            ""
        };
        self.shorteners
            .service(svc_host)
            .expect("standard service")
            .seed_traffic(&code, hits, country, referrer);

        // Occasionally nest: a short URL pointing at another short URL
        // (§IV-A5 reports nested shorteners in the wild). The outer code
        // carries its own organic traffic — Table IV's hit counts never
        // drop below ~1.7k.
        let entry = if self.rng.gen_bool(0.2) {
            let outer_host = services[self.rng.gen_range(0..services.len())];
            let outer_code = rng::path_token(&mut self.rng, 6);
            let outer = self
                .shorteners
                .service(outer_host)
                .expect("standard service")
                .register(&outer_code, short.clone());
            let outer_hits = rng::heavy_tail(
                &mut self.rng,
                params::SHORTENER_HITS_MIN,
                params::SHORTENER_HITS_MAX / 10,
            );
            self.shorteners
                .service(outer_host)
                .expect("standard service")
                .seed_traffic(&outer_code, outer_hits, country, referrer);
            outer
        } else {
            short
        };
        SiteSpec {
            url: entry,
            truth: GroundTruth::Malicious(MaliceKind::MaliciousShortened),
            category,
            redirect_hops: 1,
        }
    }

    /// Installs a "miscellaneous" malicious site: detected as malicious
    /// by engines but carrying no category-defining structure (the
    /// paper's 66% bucket). Modelled as a page with a generically
    /// suspicious payload signature.
    pub fn misc_site(&mut self, tld: Tld, category: ContentCategory, cloaked: bool) -> SiteSpec {
        let host = self.fresh_host(&tld);
        let url = Url::http(&host, "/");
        // A marker comment the signature engines key on, without any of
        // the structural categories' features.
        let html = format!(
            "<!DOCTYPE html><html><head><title>{host}</title></head><body><h1>{host}</h1>\
<p>Limited time offer, act now.</p>\
<!-- slum:payload:generic-trojan-dropper --></body></html>"
        );
        let mut page = Page::malicious(url, html, MaliceKind::Misc, category);
        if cloaked {
            page = page.with_cloak(payload::benign_page(&host, category));
        }
        self.install_page(page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::RequestContext;

    #[test]
    fn deterministic_given_seed() {
        let build = |seed| {
            let mut b = WebBuilder::new(seed);
            let specs: Vec<String> = (0..20)
                .map(|_| b.malicious_site(MaliciousOptions::default()).url.to_string())
                .collect();
            specs
        };
        assert_eq!(build(11), build(11));
        assert_ne!(build(11), build(12));
    }

    #[test]
    fn benign_site_served() {
        let mut b = WebBuilder::new(1);
        let site = b.benign_site(BenignOptions::default());
        let web = b.finish();
        assert!(web.fetch(&site.url, &RequestContext::browser()).is_html());
        assert_eq!(site.truth, GroundTruth::Benign);
    }

    #[test]
    fn forced_kind_respected() {
        let mut b = WebBuilder::new(2);
        let spec = b.malicious_site(MaliciousOptions {
            kind: Some(MaliceKind::MaliciousFlash),
            ..Default::default()
        });
        assert_eq!(spec.truth, GroundTruth::Malicious(MaliceKind::MaliciousFlash));
    }

    /// Follows redirects (302 and meta refresh) until a non-redirect
    /// page; returns `(final_url, hops)`.
    fn follow(web: &crate::server::SyntheticWeb, start: &Url) -> (Url, u32) {
        let ctx = RequestContext::browser();
        let mut url = start.clone();
        let mut hops = 0;
        loop {
            assert!(hops <= 10, "chain must terminate");
            match web.fetch(&url, &ctx) {
                crate::server::FetchOutcome::Redirect { target, .. } => {
                    url = target;
                    hops += 1;
                }
                crate::server::FetchOutcome::Html { body } => {
                    if body.contains("http-equiv=\"refresh\"") {
                        let start_idx = body.find("url=").expect("refresh target");
                        let rest = &body[start_idx + 4..];
                        let end = rest.find('"').unwrap_or(rest.len());
                        url = Url::parse(&rest[..end]).expect("parse refresh target");
                        hops += 1;
                    } else {
                        return (url, hops);
                    }
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        }
    }

    #[test]
    fn redirect_chain_walks_to_malicious_landing() {
        let mut b = WebBuilder::new(3);
        let spec = b.redirect_chain_site(3, Tld::Com, ContentCategory::Business);
        let web = b.finish();
        let (final_url, hops) = follow(&web, &spec.url);
        assert_eq!(hops, spec.redirect_hops);
        assert!(web.oracle_page(&final_url).unwrap().truth.is_malicious());
    }

    #[test]
    fn single_hop_chain_uses_plain_redirect() {
        let mut b = WebBuilder::new(31);
        let spec = b.redirect_chain_site(1, Tld::Com, ContentCategory::Business);
        let web = b.finish();
        let (final_url, hops) = follow(&web, &spec.url);
        assert_eq!(hops, 1);
        assert!(web.oracle_page(&final_url).is_some());
    }

    #[test]
    fn shortened_site_resolves_and_has_stats() {
        let mut b = WebBuilder::new(4);
        let spec = b.shortened_site(Tld::Com, ContentCategory::Business);
        let web = b.finish();
        let svc_host = spec.url.host().to_string();
        assert!(web.shorteners().is_shortener_host(&svc_host));
        let out = web.fetch(&spec.url, &RequestContext::browser());
        assert!(out.redirect_target().is_some());
        let code = spec.url.path().trim_start_matches('/').to_string();
        let stats = web.shorteners().service(&svc_host).unwrap().stats(&code).unwrap();
        assert!(stats.hits >= params::SHORTENER_HITS_MIN);
    }

    #[test]
    fn rotating_redirector_rotates() {
        let mut b = WebBuilder::new(5);
        let spec = b.rotating_redirector_site(3, ContentCategory::Advertisement);
        let web = b.finish();
        // Find the rotor script URL inside the page.
        let page = web.oracle_page(&spec.url).unwrap();
        let src_start = page.html.find("src=\"http://").unwrap() + 5;
        let rest = &page.html[src_start..];
        let src_end = rest.find('"').unwrap();
        let rotor = Url::parse(&rest[..src_end]).unwrap();
        let at = |t: u64| {
            let ctx = RequestContext::browser().with_time(t);
            web.fetch(&rotor, &ctx).redirect_target().cloned().unwrap()
        };
        assert_ne!(at(0), at(1), "rotator must rotate as the clock advances");
    }

    #[test]
    fn flash_site_installs_swf_and_glue() {
        let mut b = WebBuilder::new(6);
        let spec = b.flash_site(Tld::Com, ContentCategory::Entertainment);
        let web = b.finish();
        let page = web.oracle_page(&spec.url).unwrap();
        assert!(page.html.contains(".swf"));
        // Extract and fetch the swf.
        let data_start = page.html.find("data=\"").unwrap() + 6;
        let rest = &page.html[data_start..];
        let swf_url = Url::parse(&rest[..rest.find('"').unwrap()]).unwrap();
        match web.fetch(&swf_url, &RequestContext::browser()) {
            crate::server::FetchOutcome::Swf { descriptor } => {
                assert!(descriptor.starts_with("SWF1"));
            }
            other => panic!("expected swf, got {other:?}"),
        }
    }

    #[test]
    fn misc_site_has_no_structural_category_markers() {
        let mut b = WebBuilder::new(7);
        let spec = b.misc_site(Tld::Com, ContentCategory::Business, false);
        let web = b.finish();
        let page = web.oracle_page(&spec.url).unwrap();
        assert!(!page.html.contains("<iframe"));
        assert!(!page.html.contains(".swf"));
        assert!(page.html.contains("slum:payload:generic-trojan-dropper"));
    }

    #[test]
    fn cloaked_malicious_site_dual_serves() {
        let mut b = WebBuilder::new(8);
        let spec = b.malicious_site(MaliciousOptions {
            kind: Some(MaliceKind::Misc),
            cloaked: Some(true),
            ..Default::default()
        });
        let web = b.finish();
        let browser_body = match web.fetch(&spec.url, &RequestContext::browser()) {
            crate::server::FetchOutcome::Html { body } => body,
            other => panic!("{other:?}"),
        };
        let scanner_body = match web.fetch(&spec.url, &RequestContext::scanner("vt")) {
            crate::server::FetchOutcome::Html { body } => body,
            other => panic!("{other:?}"),
        };
        assert_ne!(browser_body, scanner_body);
        assert!(browser_body.contains("generic-trojan-dropper"));
        assert!(!scanner_body.contains("generic-trojan-dropper"));
    }

    #[test]
    fn hosts_are_unique_across_many_sites() {
        let mut b = WebBuilder::new(9);
        let mut hosts = std::collections::BTreeSet::new();
        for _ in 0..200 {
            let s = b.benign_site(BenignOptions::default());
            assert!(hosts.insert(s.url.host().to_string()), "duplicate host");
        }
    }
}
