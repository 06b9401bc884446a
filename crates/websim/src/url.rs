//! A small URL type sufficient for the crawl/scan pipeline.

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use serde::{Content, DeError, Deserialize, JsonWriter, Serialize};

/// URL scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scheme {
    /// `http://`
    Http,
    /// `https://`
    Https,
    /// `data:` URI (deceptive-download payloads embed these).
    Data,
}

impl Scheme {
    /// Canonical lower-case scheme text, without the separator.
    pub fn as_str(self) -> &'static str {
        match self {
            Scheme::Http => "http",
            Scheme::Https => "https",
            Scheme::Data => "data",
        }
    }
}

/// A parsed URL: one shared string holding its display form, plus the
/// scheme and where the host and the path end in that string.
///
/// A clone is a reference-count bump, and [`Url::as_str`] borrows the
/// canonical form, so the crawl corpus holds each URL's text once per
/// load and the passes after the crawl key on it without allocating.
/// Equality, `Hash`, `Debug` and the serde shape are those of the
/// parts (`scheme`, `host`, `path`, `query`, `data`), as if each part
/// were stored on its own.
///
/// Invariants: `host` is lower-case and non-empty for http(s) URLs;
/// `path` always starts with `/` for http(s) URLs.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Url {
    /// `scheme://host/path[?query]`, or `data:payload`.
    text: Arc<str>,
    scheme: Scheme,
    /// End of the host in `text` (for `data:` URIs, the end of `data:`).
    host_end: u32,
    /// End of the path in `text`; a `?` and the query may follow.
    path_end: u32,
}

/// Error returned when a URL cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseUrlError {
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for ParseUrlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid url: {}", self.reason)
    }
}

impl std::error::Error for ParseUrlError {}

/// Offset of `i` in a URL's text (URLs are far shorter than 4 GiB).
fn offset(i: usize) -> u32 {
    u32::try_from(i).expect("URL text shorter than 4 GiB")
}

/// Where a URL's host starts in its text: after `scheme://`, or after
/// `data:`, where a data URI's empty host and path sit.
fn host_start(scheme: Scheme) -> usize {
    match scheme {
        Scheme::Data => "data:".len(),
        scheme => scheme.as_str().len() + "://".len(),
    }
}

impl Url {
    /// Parses a URL string.
    ///
    /// # Errors
    ///
    /// Returns [`ParseUrlError`] when the scheme is unsupported or the
    /// host is empty.
    ///
    /// ```
    /// use slum_websim::Url;
    /// let u: Url = "http://Example.COM/a/b?q=1".parse().unwrap();
    /// assert_eq!(u.host(), "example.com");
    /// assert_eq!(u.path(), "/a/b");
    /// assert_eq!(u.query(), Some("q=1"));
    /// assert_eq!(u.as_str(), "http://example.com/a/b?q=1");
    /// ```
    pub fn parse(s: &str) -> Result<Url, ParseUrlError> {
        let s = s.trim();
        if s.starts_with("data:") {
            return Ok(Url::data(s));
        }
        let (scheme, rest) = if let Some(r) = s.strip_prefix("http://") {
            (Scheme::Http, r)
        } else if let Some(r) = s.strip_prefix("https://") {
            (Scheme::Https, r)
        } else if let Some(r) = s.strip_prefix("//") {
            // Protocol-relative — default to http.
            (Scheme::Http, r)
        } else {
            return Err(ParseUrlError { reason: format!("unsupported scheme in {s:?}") });
        };
        // The authority ends at the first `/` or `?` — `http://h?q=1`
        // has a root path and a query.
        let (host_port, path, query) = match rest.find(['/', '?']) {
            Some(i) if rest.as_bytes()[i] == b'?' => (&rest[..i], "/", Some(&rest[i + 1..])),
            Some(i) => match rest[i..].split_once('?') {
                Some((p, q)) => (&rest[..i], p, Some(q)),
                None => (&rest[..i], &rest[i..], None),
            },
            None => (rest, "/", None),
        };
        // Strip any port; the simulation is port-less.
        let host = host_port.split(':').next().unwrap_or("");
        if host.is_empty() {
            return Err(ParseUrlError { reason: format!("empty host in {s:?}") });
        }
        if !host.chars().all(|c| c.is_ascii_alphanumeric() || c == '.' || c == '-') {
            let host = host.to_ascii_lowercase();
            return Err(ParseUrlError { reason: format!("bad host {host:?}") });
        }
        Ok(Url::from_parts(scheme, host, path, query))
    }

    /// Builds an http URL from parts; panics on invalid host (intended
    /// for generator-internal construction from trusted parts).
    ///
    /// # Panics
    ///
    /// Panics if `host` is empty.
    pub fn http(host: &str, path: &str) -> Url {
        assert!(!host.is_empty(), "host must be non-empty");
        Url::with_path_parts(Scheme::Http, host, path)
    }

    /// An http(s) URL from a host and a path that may carry a query;
    /// a path without a leading `/` gets one.
    fn with_path_parts(scheme: Scheme, host: &str, path: &str) -> Url {
        let (path, query) = match path.split_once('?') {
            Some((p, q)) => (p, Some(q)),
            None => (path, None),
        };
        if path.starts_with('/') {
            Url::from_parts(scheme, host, path, query)
        } else {
            Url::from_parts(scheme, host, &format!("/{path}"), query)
        }
    }

    /// A `data:` URI from its whole text.
    fn data(text: &str) -> Url {
        let end = offset(host_start(Scheme::Data));
        Url { text: text.into(), scheme: Scheme::Data, host_end: end, path_end: end }
    }

    /// Writes `scheme://host path [?query]` into one shared string,
    /// lower-casing the host.
    fn from_parts(scheme: Scheme, host: &str, path: &str, query: Option<&str>) -> Url {
        let start = host_start(scheme);
        let len = start + host.len() + path.len() + query.map_or(0, |q| q.len() + 1);
        let mut text = String::with_capacity(len);
        text.push_str(scheme.as_str());
        text.push_str("://");
        text.push_str(host);
        text[start..].make_ascii_lowercase();
        let host_end = offset(text.len());
        text.push_str(path);
        let path_end = offset(text.len());
        if let Some(q) = query {
            text.push('?');
            text.push_str(q);
        }
        Url { text: text.into(), scheme, host_end, path_end }
    }

    /// The scheme.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Lower-cased host (empty for `data:` URIs).
    pub fn host(&self) -> &str {
        &self.text[host_start(self.scheme)..self.host_end as usize]
    }

    /// Path component (always `/`-prefixed for http/https).
    pub fn path(&self) -> &str {
        &self.text[self.host_end as usize..self.path_end as usize]
    }

    /// Host and path back to back: how the synthetic web routes a
    /// request (the query is ignored, so one installed page serves all
    /// its query variants).
    pub fn host_path(&self) -> &str {
        &self.text[host_start(self.scheme)..self.path_end as usize]
    }

    /// Query string without the leading `?`, if present.
    pub fn query(&self) -> Option<&str> {
        match self.scheme {
            Scheme::Data => None,
            _ => self.text.get(self.path_end as usize + 1..),
        }
    }

    /// Payload of a `data:` URI.
    pub fn data_payload(&self) -> Option<&str> {
        self.is_data().then(|| &self.text[self.path_end as usize..])
    }

    /// True for `data:` URIs.
    pub fn is_data(&self) -> bool {
        self.scheme == Scheme::Data
    }

    /// The registered domain: normally the last two labels
    /// (`a.b.example.com` → `example.com`), extended to three for
    /// country-code second-level suffixes (`x.blogspot.com.br` →
    /// `blogspot.com.br`).
    pub fn registered_domain(&self) -> String {
        crate::domain::registered_domain(self.host())
    }

    /// The top-level domain label.
    pub fn tld(&self) -> crate::domain::Tld {
        crate::domain::Tld::of_host(self.host())
    }

    /// The canonical form, borrowed: identical inputs always
    /// canonicalize identically, which the crawler relies on for dedup.
    /// The same text as `Display` and [`Url::canonical`].
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// Canonical string form, owned (see [`Url::as_str`]).
    pub fn canonical(&self) -> String {
        self.as_str().to_owned()
    }

    /// Returns a copy with a different path/query. A `data:` URI has
    /// neither, so it comes back unchanged.
    pub fn with_path(&self, path: &str) -> Url {
        match self.scheme {
            Scheme::Data => self.clone(),
            scheme => Url::with_path_parts(scheme, self.host(), path),
        }
    }

    /// The URL's parts, as serde and `Debug` show them.
    fn parts(&self) -> UrlParts<&str> {
        UrlParts {
            scheme: self.scheme,
            host: self.host(),
            path: self.path(),
            query: self.query(),
            data: self.data_payload(),
        }
    }
}

/// The serialized shape of a [`Url`]: its parts as separate fields,
/// which is the JSON that records, reports and the corpus carry.
#[derive(Serialize, Deserialize)]
struct UrlParts<S> {
    scheme: Scheme,
    host: S,
    path: S,
    query: Option<S>,
    /// For `data:` URIs the payload lives here and `host`/`path` are empty.
    data: Option<S>,
}

impl Serialize for Url {
    fn to_content(&self) -> Content {
        self.parts().to_content()
    }

    fn write_json(&self, w: &mut JsonWriter<'_>) {
        self.parts().write_json(w);
    }
}

impl Deserialize for Url {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let parts = UrlParts::<String>::from_content(content)?;
        Ok(match parts.scheme {
            Scheme::Data => Url::data(&format!("data:{}", parts.data.unwrap_or_default())),
            scheme => Url::from_parts(scheme, &parts.host, &parts.path, parts.query.as_deref()),
        })
    }
}

impl fmt::Debug for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts = self.parts();
        f.debug_struct("Url")
            .field("scheme", &parts.scheme)
            .field("host", &parts.host)
            .field("path", &parts.path)
            .field("query", &parts.query)
            .field("data", &parts.data)
            .finish()
    }
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

impl FromStr for Url {
    type Err = ParseUrlError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Url::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic_forms() {
        let u = Url::parse("http://example.com").unwrap();
        assert_eq!(u.host(), "example.com");
        assert_eq!(u.path(), "/");
        assert_eq!(u.query(), None);

        let u = Url::parse("https://a.b.example.net/x/y?k=v&k2=v2").unwrap();
        assert_eq!(u.scheme(), Scheme::Https);
        assert_eq!(u.path(), "/x/y");
        assert_eq!(u.query(), Some("k=v&k2=v2"));
    }

    #[test]
    fn host_is_lowercased() {
        let u = Url::parse("http://EXAMPLE.Com/P").unwrap();
        assert_eq!(u.host(), "example.com");
        // Paths stay case-sensitive.
        assert_eq!(u.path(), "/P");
    }

    #[test]
    fn port_is_stripped() {
        let u = Url::parse("http://example.com:8080/x").unwrap();
        assert_eq!(u.host(), "example.com");
    }

    #[test]
    fn protocol_relative_defaults_http() {
        let u = Url::parse("//cdn.example.com/lib.js").unwrap();
        assert_eq!(u.scheme(), Scheme::Http);
        assert_eq!(u.host(), "cdn.example.com");
    }

    #[test]
    fn data_uri() {
        let u = Url::parse("data:text/html,%3Chtml%3E").unwrap();
        assert!(u.is_data());
        assert_eq!(u.data_payload(), Some("text/html,%3Chtml%3E"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Url::parse("ftp://example.com").is_err());
        assert!(Url::parse("http://").is_err());
        assert!(Url::parse("not a url").is_err());
        assert!(Url::parse("http://bad host/").is_err());
    }

    #[test]
    fn display_round_trip() {
        for s in [
            "http://example.com/",
            "https://a.example.net/x?y=1",
            "http://goo.gl/VAdNHA",
        ] {
            let u = Url::parse(s).unwrap();
            let re = Url::parse(&u.to_string()).unwrap();
            assert_eq!(u, re);
        }
    }

    #[test]
    fn registered_domain_and_tld() {
        let u = Url::parse("http://sub.deep.example.com/x").unwrap();
        assert_eq!(u.registered_domain(), "example.com");
        assert_eq!(u.tld().label(), "com");

        let u = Url::parse("http://animestectudo.blogspot.com.br/").unwrap();
        assert_eq!(u.registered_domain(), "blogspot.com.br");
    }

    #[test]
    fn with_path_replaces_query_too() {
        let u = Url::parse("http://example.com/a?old=1").unwrap();
        let v = u.with_path("/b?new=2");
        assert_eq!(v.path(), "/b");
        assert_eq!(v.query(), Some("new=2"));
        assert_eq!(v.host(), "example.com");
    }

    #[test]
    fn http_constructor_normalizes() {
        let u = Url::http("EXAMPLE.com", "page?x=1");
        assert_eq!(u.to_string(), "http://example.com/page?x=1");
    }

    #[test]
    fn layout_is_one_shared_string() {
        assert!(std::mem::size_of::<Url>() <= 32, "{}", std::mem::size_of::<Url>());
        let u = Url::parse("http://example.com/a?b=1").unwrap();
        assert!(Arc::ptr_eq(&u.text, &u.clone().text), "a clone shares the text");
        assert_eq!(u.as_str().as_ptr(), u.clone().as_str().as_ptr());
    }

    /// The `Url` this type replaced: each part in its own string. The
    /// property below holds every observable of the shared-string
    /// layout to it.
    mod oracle {
        use std::fmt;

        use serde::{Deserialize, Serialize};

        use super::super::{ParseUrlError, Scheme};

        #[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
        pub struct Url {
            pub scheme: Scheme,
            pub host: String,
            pub path: String,
            pub query: Option<String>,
            pub data: Option<String>,
        }

        fn split_path(path: &str) -> (String, Option<String>) {
            let path = if path.starts_with('/') { path.to_string() } else { format!("/{path}") };
            match path.split_once('?') {
                Some((p, q)) => (p.to_string(), Some(q.to_string())),
                None => (path, None),
            }
        }

        impl Url {
            pub fn parse(s: &str) -> Result<Url, ParseUrlError> {
                let s = s.trim();
                if let Some(data) = s.strip_prefix("data:") {
                    return Ok(Url {
                        scheme: Scheme::Data,
                        host: String::new(),
                        path: String::new(),
                        query: None,
                        data: Some(data.to_string()),
                    });
                }
                let (scheme, rest) = if let Some(r) = s.strip_prefix("http://") {
                    (Scheme::Http, r)
                } else if let Some(r) = s.strip_prefix("https://") {
                    (Scheme::Https, r)
                } else if let Some(r) = s.strip_prefix("//") {
                    (Scheme::Http, r)
                } else {
                    return Err(ParseUrlError { reason: format!("unsupported scheme in {s:?}") });
                };
                let (host_port, path, query) = match rest.find(['/', '?']) {
                    Some(i) if rest.as_bytes()[i] == b'?' => {
                        (&rest[..i], "/".to_string(), Some(rest[i + 1..].to_string()))
                    }
                    Some(i) => {
                        let path_query = &rest[i..];
                        match path_query.split_once('?') {
                            Some((p, q)) => (&rest[..i], p.to_string(), Some(q.to_string())),
                            None => (&rest[..i], path_query.to_string(), None),
                        }
                    }
                    None => (rest, "/".to_string(), None),
                };
                let host = host_port.split(':').next().unwrap_or("").to_ascii_lowercase();
                if host.is_empty() {
                    return Err(ParseUrlError { reason: format!("empty host in {s:?}") });
                }
                if !host.chars().all(|c| c.is_ascii_alphanumeric() || c == '.' || c == '-') {
                    return Err(ParseUrlError { reason: format!("bad host {host:?}") });
                }
                Ok(Url { scheme, host, path, query, data: None })
            }

            pub fn http(host: &str, path: &str) -> Url {
                let (path, query) = split_path(path);
                let host = host.to_ascii_lowercase();
                Url { scheme: Scheme::Http, host, path, query, data: None }
            }

            pub fn with_path(&self, path: &str) -> Url {
                let (path, query) = split_path(path);
                Url { path, query, ..self.clone() }
            }
        }

        impl fmt::Display for Url {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(data) = &self.data {
                    return write!(f, "data:{data}");
                }
                write!(f, "{}://{}{}", self.scheme.as_str(), self.host, self.path)?;
                if let Some(q) = &self.query {
                    write!(f, "?{q}")?;
                }
                Ok(())
            }
        }
    }

    /// A splitmix64 step: the draws below are a pure function of the
    /// case's seed.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn pick<'a>(state: &mut u64, options: &[&'a str]) -> &'a str {
        options[next(state) as usize % options.len()]
    }

    /// A path-and-query suffix: none, root, mixed-case segments, with
    /// or without a leading `/`, and empty or non-empty queries.
    fn draw_path(state: &mut u64) -> String {
        let path =
            pick(state, &["", "/", "/a", "/Dir/Page.php", "x/y", "/deep/er/path/", "/%7Euser"]);
        let query = pick(state, &["", "?", "?k=v", "?sid=AbC123&ref=10khits", "?a=1?b=2", "?x=/y"]);
        format!("{path}{query}")
    }

    /// A URL string covering the forms `Url::parse` meets: http, https,
    /// protocol-relative and `data:` URLs, mixed-case hosts, ports, no
    /// path, `?` right after the host, and long data payloads, plus a
    /// few it rejects.
    fn draw_url(state: &mut u64) -> String {
        if next(state).is_multiple_of(6) {
            let len = (next(state) % 3000) as usize;
            let payload: String = (0..len).map(|i| (b'a' + (i % 26) as u8) as char).collect();
            return format!(
                "data:{}{payload}",
                pick(state, &["", "text/html,", "application/x-msdownload;base64,"])
            );
        }
        let scheme = pick(state, &["http://", "https://", "//", "ftp://", "", "HTTP://"]);
        let labels = (next(state) % 4) as usize;
        let mut host: Vec<&str> = (0..labels)
            .map(|_| pick(state, &["www", "Sub", "a-b", "x1", "EXAMPLE", "goo", "bad_label", ""]))
            .collect();
        host.push(pick(state, &["com", "NET", "de", "org", "ru", "com.br", "gl"]));
        let port = pick(state, &["", "", ":8080", ":"]);
        let space = pick(state, &["", "", " "]);
        format!("{space}{scheme}{}{port}{}{space}", host.join("."), draw_path(state))
    }

    fn hash_of(u: &impl std::hash::Hash) -> u64 {
        use std::hash::{DefaultHasher, Hasher};
        let mut hasher = DefaultHasher::new();
        u.hash(&mut hasher);
        hasher.finish()
    }

    /// Every observable of `url` equals the reference model's.
    fn assert_matches(url: &Url, model: &oracle::Url) {
        assert_eq!(url.scheme(), model.scheme);
        assert_eq!(url.host(), model.host);
        assert_eq!(url.path(), model.path);
        assert_eq!(url.query(), model.query.as_deref());
        assert_eq!(url.data_payload(), model.data.as_deref());
        assert_eq!(url.is_data(), model.scheme == Scheme::Data);
        assert_eq!(url.registered_domain(), crate::domain::registered_domain(&model.host));
        assert_eq!(url.tld(), crate::domain::Tld::of_host(&model.host));
        assert_eq!(url.to_string(), model.to_string());
        assert_eq!(url.canonical(), model.to_string());
        assert_eq!(url.as_str(), model.to_string());
        assert_eq!(format!("{url:?}"), format!("{model:?}"));
        assert_eq!(format!("{url:#?}"), format!("{model:#?}"));
        let json = serde_json::to_string(url).unwrap();
        assert_eq!(json, serde_json::to_string(model).unwrap());
        assert_eq!(&serde_json::from_str::<Url>(&json).unwrap(), url);
        assert_eq!(Url::parse(url.as_str()).as_ref(), Ok(url), "the display form parses back");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2000))]

        #[test]
        fn url_matches_the_per_part_reference_model(seed in proptest::any::<u64>()) {
            let mut state = seed;
            let (a, b) = (draw_url(&mut state), draw_url(&mut state));
            let parsed = (Url::parse(&a), Url::parse(&b));
            let models = (oracle::Url::parse(&a), oracle::Url::parse(&b));
            assert_eq!(parsed.0.as_ref().err(), models.0.as_ref().err(), "{a:?}");
            let (Ok(url), Ok(model)) = (parsed.0, models.0) else { return };
            assert_matches(&url, &model);
            // Equality (and so hashing) agrees with the model's, for
            // unrelated, re-parsed and rebuilt URLs alike.
            let mut others = vec![url.clone(), Url::parse(&url.to_string()).unwrap()];
            let mut other_models = vec![model.clone(), model.clone()];
            if let (Ok(u), Ok(m)) = (parsed.1, models.1) {
                others.push(u);
                other_models.push(m);
            }
            if !url.is_data() {
                let path = draw_path(&mut state);
                let rebuilt = url.with_path(&path);
                let rebuilt_model = model.with_path(&path);
                assert_matches(&rebuilt, &rebuilt_model);
                others.push(rebuilt);
                other_models.push(rebuilt_model);
                let host = model.host.to_ascii_uppercase();
                let made = Url::http(&host, &path);
                let made_model = oracle::Url::http(&host, &path);
                assert_matches(&made, &made_model);
                others.push(made);
                other_models.push(made_model);
            }
            for (other, other_model) in others.iter().zip(&other_models) {
                assert_eq!(url == *other, model == *other_model, "{url} vs {other}");
                if url == *other {
                    assert_eq!(hash_of(&url), hash_of(other));
                }
            }
        }
    }
}
