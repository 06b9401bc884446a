//! HTTP Archive (HAR) logging.
//!
//! The paper captured traffic with Firebug + NetExport, which emits HAR —
//! a JSON format. A logged page load
//! ([`Browser::load_logged`](crate::Browser::load_logged)) returns one
//! [`HarLog`]; this module provides the subset of HAR 1.2 the corpus
//! prints plus JSON serialization via serde.

use serde::{Deserialize, Serialize};

/// One request/response pair.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HarEntry {
    /// Virtual timestamp (seconds since simulation epoch).
    #[serde(rename = "startedDateTime")]
    pub started: u64,
    /// Request method (always GET in this simulation).
    pub method: String,
    /// Request URL.
    pub url: String,
    /// Response status code (200/301/302/404).
    pub status: u16,
    /// Response content type.
    #[serde(rename = "contentType")]
    pub content_type: String,
    /// `Location` header for redirects, empty otherwise.
    #[serde(rename = "redirectURL")]
    pub redirect_url: String,
    /// Response body size in bytes (post-cloaking, i.e. what the client
    /// actually received).
    #[serde(rename = "bodySize")]
    pub body_size: u64,
    /// Referrer sent with the request, empty if none.
    pub referrer: String,
}

/// An ordered HAR log for one page load.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HarLog {
    /// Entries in request order.
    pub entries: Vec<HarEntry>,
}

impl HarLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        HarLog::default()
    }

    /// Appends an entry.
    pub fn push(&mut self, entry: HarEntry) {
        self.entries.push(entry);
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no requests were recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serializes to HAR-shaped JSON (`{"log": {"entries": [...]}}`).
    ///
    /// # Errors
    ///
    /// Propagates `serde_json` failures (practically unreachable for
    /// these value types).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        #[derive(Serialize)]
        struct Root<'a> {
            log: Log<'a>,
        }
        #[derive(Serialize)]
        struct Log<'a> {
            version: &'static str,
            creator: &'static str,
            entries: &'a [HarEntry],
        }
        serde_json::to_string(&Root {
            log: Log { version: "1.2", creator: "slum-browser", entries: &self.entries },
        })
    }

    /// The status codes in request order — a quick fingerprint of the
    /// redirect chain shape.
    pub fn status_chain(&self) -> Vec<u16> {
        self.entries.iter().map(|e| e.status).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(url: &str, status: u16) -> HarEntry {
        HarEntry {
            started: 100,
            method: "GET".into(),
            url: url.into(),
            status,
            content_type: "text/html".into(),
            redirect_url: String::new(),
            body_size: 1234,
            referrer: String::new(),
        }
    }

    /// Reads back the entries of a HAR document.
    fn entries_of(json: &str) -> Vec<HarEntry> {
        #[derive(Deserialize)]
        struct Root {
            log: HarLog,
        }
        serde_json::from_str::<Root>(json).unwrap().log.entries
    }

    #[test]
    fn json_round_trip() {
        let mut log = HarLog::new();
        log.push(entry("http://a.example/", 302));
        log.push(entry("http://b.example/", 200));
        let json = log.to_json().unwrap();
        assert!(json.contains("\"version\":\"1.2\""));
        assert_eq!(entries_of(&json), log.entries);
    }

    #[test]
    fn status_chain_shape() {
        let mut log = HarLog::new();
        for s in [302, 302, 200] {
            log.push(entry("http://x.example/", s));
        }
        assert_eq!(log.status_chain(), vec![302, 302, 200]);
    }

    #[test]
    fn empty_log_serializes() {
        let log = HarLog::new();
        assert!(log.is_empty());
        let json = log.to_json().unwrap();
        assert_eq!(json, r#"{"log":{"version":"1.2","creator":"slum-browser","entries":[]}}"#);
        assert!(entries_of(&json).is_empty());
    }
}
