//! The synthetic web server: URL → resource resolution with
//! client-sensitive behaviour (cloaking, rotating redirects, shortener
//! hit accounting), serving each page body as its shared [`Body`].

use std::collections::HashMap;

use crate::page::Page;
use crate::page_cache::Body;
use crate::shortener::ShortenerRegistry;
use crate::url::Url;

/// Who is making a request. Cloaked pages serve different content to
/// scanner APIs than to real browsers — the evasion the paper defeats by
/// uploading browser-captured page content to the scanners (§III fn. 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientKind {
    /// A real browser with the given user-agent string.
    Browser {
        /// User-agent header value.
        user_agent: String,
    },
    /// A malware-scanning service fetching the URL itself.
    ScannerApi {
        /// Scanner name (e.g. `"virustotal"`).
        service: String,
    },
}

/// Per-request context: client identity plus attribution metadata used
/// by shortener statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestContext {
    /// Who is asking.
    pub client: ClientKind,
    /// Visitor country (shortener stats attribution).
    pub country: String,
    /// Referrer domain, empty for direct navigation.
    pub referrer: String,
    /// Virtual request time in seconds. Time-sensitive resources (the
    /// rotating redirector) key their behaviour to this clock, so a
    /// fetch is a pure function of `(url, context)` — replayable across
    /// checkpoint/resume boundaries and worker counts.
    pub time: u64,
}

impl RequestContext {
    /// A default real-browser context (US visitor, no referrer).
    pub fn browser() -> Self {
        RequestContext {
            client: ClientKind::Browser {
                user_agent: "Mozilla/5.0 (X11; Linux x86_64; rv:38.0) Gecko/20100101 Firefox/38.0"
                    .into(),
            },
            country: "USA".into(),
            referrer: String::new(),
            time: 0,
        }
    }

    /// A scanner-API context for the named service.
    pub fn scanner(service: impl Into<String>) -> Self {
        RequestContext {
            client: ClientKind::ScannerApi { service: service.into() },
            country: "USA".into(),
            referrer: String::new(),
            time: 0,
        }
    }

    /// Sets the visitor country.
    pub fn with_country(mut self, country: impl Into<String>) -> Self {
        self.country = country.into();
        self
    }

    /// Sets the referrer domain.
    pub fn with_referrer(mut self, referrer: impl Into<String>) -> Self {
        self.referrer = referrer.into();
        self
    }

    /// Sets the virtual request time.
    pub fn with_time(mut self, time: u64) -> Self {
        self.time = time;
        self
    }

    /// True when the requester is a scanner API.
    pub fn is_scanner(&self) -> bool {
        matches!(self.client, ClientKind::ScannerApi { .. })
    }
}

/// A resource installed at a URL.
#[derive(Debug)]
pub enum Resource {
    /// An HTML page.
    Page(Page),
    /// An HTTP 302 redirect.
    Redirect {
        /// Where the redirect points.
        target: Url,
    },
    /// A redirect implemented as an HTML meta refresh (final hop of the
    /// paper's Figure 4 chain).
    MetaRefresh {
        /// Where the refresh points.
        target: Url,
        /// The refresh page served
        /// ([`payload::meta_refresh_page`](crate::payload::meta_refresh_page)
        /// of `target`).
        body: Body,
    },
    /// A server-side rotating redirector: each fetch 302s to the cycle
    /// entry keyed by the request clock (the `company.ooo` pattern,
    /// §V-C). Clock-keyed rather than counter-keyed so a fetch stays a
    /// pure function of `(url, context)` — visits replay identically
    /// across checkpoint/resume boundaries and worker counts.
    RotatingRedirect {
        /// Destination cycle.
        targets: Vec<Url>,
    },
    /// A JavaScript file.
    Script {
        /// JS source body.
        body: String,
    },
    /// An SWF descriptor file (see [`slum_js::flash`]).
    Swf {
        /// Descriptor text.
        descriptor: String,
    },
    /// An executable download.
    Executable {
        /// File name offered to the user (e.g. `flashplayer.exe`).
        filename: String,
    },
}

/// What a fetch returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FetchOutcome {
    /// 200 with an HTML body.
    Html {
        /// The body markup, shared with every other fetch of it.
        body: Body,
    },
    /// 30x redirect.
    Redirect {
        /// `Location` header target.
        target: Url,
        /// HTTP status (301/302).
        status: u16,
    },
    /// 200 with a JavaScript body.
    Script {
        /// The script source.
        body: String,
    },
    /// 200 with an SWF descriptor body.
    Swf {
        /// The descriptor text.
        descriptor: String,
    },
    /// 200 triggering a file download.
    Download {
        /// Offered file name.
        filename: String,
    },
    /// 404.
    NotFound,
}

impl FetchOutcome {
    /// True for HTML responses.
    pub fn is_html(&self) -> bool {
        matches!(self, FetchOutcome::Html { .. })
    }

    /// The redirect target, if this is a redirect.
    pub fn redirect_target(&self) -> Option<&Url> {
        match self {
            FetchOutcome::Redirect { target, .. } => Some(target),
            _ => None,
        }
    }
}

/// The whole synthetic web: a routing table keyed by host + path (the
/// query is ignored, so one installed page serves all its query
/// variants, matching how exchange listings append tracking
/// parameters), the shortener registry and every page body the web
/// serves.
///
/// Built once by [`crate::build::WebBuilder`], then shared immutably
/// across crawler and scanner threads. Each body it can serve — a
/// page's markup, its cloaked variant, a meta-refresh page — is one
/// [`Body`] with a dense id, numbered in install order, so two builds
/// of one configuration number their bodies alike. Interior mutability
/// covers the shortener statistics, which organic resolutions update,
/// and each body's lazily parsed outline, which never changes what a
/// fetch or a load returns.
#[derive(Debug)]
pub struct SyntheticWeb {
    routes: HashMap<String, Resource>,
    shorteners: ShortenerRegistry,
    bodies: Vec<Body>,
}

impl SyntheticWeb {
    /// The web serving `routes`. The bodies of the routes keyed in
    /// `order` are numbered in that order.
    pub(crate) fn new(
        mut routes: HashMap<String, Resource>,
        order: &[String],
        shorteners: ShortenerRegistry,
    ) -> Self {
        let mut bodies = Vec::new();
        let mut number = |body: &mut Body| {
            body.number(u32::try_from(bodies.len()).expect("fewer than 2^32 bodies"));
            bodies.push(body.clone());
        };
        for key in order {
            match routes.get_mut(key) {
                Some(Resource::Page(page)) => {
                    number(&mut page.html);
                    page.cloaked_benign_html.iter_mut().for_each(&mut number);
                }
                Some(Resource::MetaRefresh { body, .. }) => number(body),
                _ => {}
            }
        }
        SyntheticWeb { routes, shorteners, bodies }
    }

    /// Number of installed resources.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// True when no resources are installed.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// The shortener registry (public statistics access).
    pub fn shorteners(&self) -> &ShortenerRegistry {
        &self.shorteners
    }

    /// Every body the web can serve, indexed by its [`Body::id`].
    pub fn bodies(&self) -> &[Body] {
        &self.bodies
    }

    /// Looks up the page installed at `url`, with its ground truth —
    /// the simulation oracle, not reachable through `fetch`.
    pub fn oracle_page(&self, url: &Url) -> Option<&Page> {
        match self.routes.get(url.host_path()) {
            Some(Resource::Page(p)) => Some(p),
            _ => None,
        }
    }

    /// Iterates over all installed pages (oracle access).
    pub fn oracle_pages(&self) -> impl Iterator<Item = &Page> {
        self.routes.values().filter_map(|r| match r {
            Resource::Page(p) => Some(p),
            _ => None,
        })
    }

    /// Fetches `url` as `ctx`. This is the only path the crawler and the
    /// scanners use; all client-sensitive behaviour funnels through here.
    pub fn fetch(&self, url: &Url, ctx: &RequestContext) -> FetchOutcome {
        // Shortening services resolve through their registry so that hits
        // are recorded per Table IV semantics.
        if self.shorteners.is_shortener_host(url.host()) {
            let code = url.path().trim_start_matches('/');
            let svc = self.shorteners.service(url.host()).expect("host checked");
            let resolved = if ctx.is_scanner() {
                // Scanner resolutions are not organic traffic.
                svc.peek(code)
            } else {
                svc.resolve(code, &ctx.country, &ctx.referrer)
            };
            return match resolved {
                Some(target) => FetchOutcome::Redirect { target, status: 301 },
                None => FetchOutcome::NotFound,
            };
        }

        match self.routes.get(url.host_path()) {
            None => FetchOutcome::NotFound,
            Some(Resource::Page(page)) => {
                let body = match (&page.cloaked_benign_html, ctx.is_scanner()) {
                    (Some(benign), true) => benign,
                    _ => &page.html,
                };
                FetchOutcome::Html { body: body.clone() }
            }
            Some(Resource::Redirect { target }) => {
                FetchOutcome::Redirect { target: target.clone(), status: 302 }
            }
            Some(Resource::MetaRefresh { body, .. }) => FetchOutcome::Html { body: body.clone() },
            Some(Resource::RotatingRedirect { targets }) => {
                let i = ctx.time as usize % targets.len();
                FetchOutcome::Redirect { target: targets[i].clone(), status: 302 }
            }
            Some(Resource::Script { body }) => FetchOutcome::Script { body: body.clone() },
            Some(Resource::Swf { descriptor }) => {
                FetchOutcome::Swf { descriptor: descriptor.clone() }
            }
            Some(Resource::Executable { filename }) => {
                FetchOutcome::Download { filename: filename.clone() }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::ContentCategory;
    use crate::page::{MaliceKind, Page};

    /// A web serving `routes`, numbering their bodies in list order.
    fn web(routes: Vec<(String, Resource)>) -> SyntheticWeb {
        let order: Vec<String> = routes.iter().map(|(key, _)| key.clone()).collect();
        let routes = routes.into_iter().collect();
        SyntheticWeb::new(routes, &order, ShortenerRegistry::with_standard_services())
    }

    fn single_page_web(page: Page) -> SyntheticWeb {
        web(vec![(page.url.host_path().to_owned(), Resource::Page(page))])
    }

    #[test]
    fn fetch_html_page() {
        let url = Url::http("site.example.com", "/");
        let web = single_page_web(Page::benign(
            url.clone(),
            "<html>hello</html>".into(),
            ContentCategory::Business,
        ));
        let out = web.fetch(&url, &RequestContext::browser());
        assert_eq!(out, FetchOutcome::Html { body: "<html>hello</html>".into() });
    }

    #[test]
    fn missing_url_is_404() {
        let web = single_page_web(Page::benign(
            Url::http("a.example.com", "/"),
            String::new(),
            ContentCategory::Other,
        ));
        let out = web.fetch(&Url::http("other.example.com", "/"), &RequestContext::browser());
        assert_eq!(out, FetchOutcome::NotFound);
    }

    #[test]
    fn query_variants_hit_same_route() {
        let url = Url::http("site.example.com", "/page");
        let web = single_page_web(Page::benign(url.clone(), "body".into(), ContentCategory::Other));
        let with_query = Url::parse("http://site.example.com/page?ref=10khits&sid=99").unwrap();
        assert!(web.fetch(&with_query, &RequestContext::browser()).is_html());
    }

    #[test]
    fn cloaked_page_serves_benign_to_scanner() {
        let url = Url::http("cloaky.example.com", "/");
        let page = Page::malicious(
            url.clone(),
            "<html>EVIL</html>".into(),
            MaliceKind::Misc,
            ContentCategory::Business,
        )
        .with_cloak("<html>innocent</html>".into());
        let web = single_page_web(page);

        let browser_view = web.fetch(&url, &RequestContext::browser());
        let scanner_view = web.fetch(&url, &RequestContext::scanner("virustotal"));
        assert_eq!(browser_view, FetchOutcome::Html { body: "<html>EVIL</html>".into() });
        assert_eq!(scanner_view, FetchOutcome::Html { body: "<html>innocent</html>".into() });
    }

    #[test]
    fn bodies_are_numbered_in_route_order_and_fetched_as_handles() {
        let cloaked = Url::http("cloaky.example.com", "/");
        let hop = Url::http("hop.example.com", "/ct");
        let page = Page::malicious(
            cloaked.clone(),
            "<html>EVIL</html>".into(),
            MaliceKind::Misc,
            ContentCategory::Business,
        )
        .with_cloak("<html>innocent</html>".into());
        let refresh = crate::payload::meta_refresh_page(&cloaked);
        let web = web(vec![
            (hop.host_path().to_owned(), Resource::MetaRefresh {
                target: cloaked.clone(),
                body: refresh.as_str().into(),
            }),
            (cloaked.host_path().to_owned(), Resource::Page(page)),
        ]);
        let texts: Vec<&str> = web.bodies().iter().map(|b| b.as_str()).collect();
        assert_eq!(texts, [refresh.as_str(), "<html>EVIL</html>", "<html>innocent</html>"]);
        let html = |url: &Url, ctx: &RequestContext| match web.fetch(url, ctx) {
            FetchOutcome::Html { body } => body,
            other => panic!("{other:?}"),
        };
        for (id, (url, ctx)) in [
            (&hop, RequestContext::browser()),
            (&cloaked, RequestContext::browser()),
            (&cloaked, RequestContext::scanner("quttera")),
        ]
        .into_iter()
        .enumerate()
        {
            let body = html(url, &ctx);
            assert_eq!(body.id(), Some(id as u32));
            assert!(Body::ptr_eq(&body, &html(url, &ctx)), "a fetch is a handle, not a copy");
            assert!(Body::ptr_eq(&body, &web.bodies()[id]));
        }
    }

    #[test]
    fn rotating_redirect_cycles() {
        let targets: Vec<Url> =
            (0..3).map(|i| Url::http(&format!("dest{i}.example.com"), "/")).collect();
        let url = Url::http("company.ooo", "/tfjw2pmk.php");
        let web = web(vec![(
            url.host_path().to_owned(),
            Resource::RotatingRedirect { targets: targets.clone() },
        )]);
        let at = |t: u64| {
            let ctx = RequestContext::browser().with_time(t);
            web.fetch(&url, &ctx).redirect_target().cloned().unwrap()
        };
        assert_eq!(at(0), targets[0]);
        assert_eq!(at(1), targets[1]);
        assert_eq!(at(2), targets[2]);
        assert_eq!(at(3), targets[0], "cycle wraps");
        assert_eq!(at(1), targets[1], "pure function of (url, time)");
    }

    #[test]
    fn shortener_fetch_records_hit_for_browser_only() {
        let web = web(Vec::new());
        let target = Url::http("landing.example.com", "/");
        let short = web.shorteners().service("goo.gl").unwrap().register("abc123", target.clone());

        let out = web.fetch(&short, &RequestContext::browser().with_country("Brazil"));
        assert_eq!(out.redirect_target(), Some(&target));
        let out = web.fetch(&short, &RequestContext::scanner("quttera"));
        assert_eq!(out.redirect_target(), Some(&target));

        let stats = web.shorteners().service("goo.gl").unwrap().stats("abc123").unwrap();
        assert_eq!(stats.hits, 1, "scanner peek must not count");
        assert_eq!(stats.top_country(), Some("Brazil"));
    }

    #[test]
    fn oracle_sees_ground_truth() {
        let url = Url::http("bad.example.com", "/");
        let web = single_page_web(Page::malicious(
            url.clone(),
            String::new(),
            MaliceKind::Blacklisted,
            ContentCategory::Business,
        ));
        assert!(web.oracle_page(&url).unwrap().truth.is_malicious());
        assert_eq!(web.oracle_pages().count(), 1);
    }
}
