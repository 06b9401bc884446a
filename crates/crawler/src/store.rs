//! The crawl-record store.

use std::collections::{BTreeSet, HashSet};
use std::fmt;

use crate::record::CrawlRecord;

/// Maximum characters of the offending line echoed in a [`JsonlError`].
const SNIPPET_MAX: usize = 60;

/// A parse failure in a JSON-lines record stream, pinned to the line
/// that caused it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonlError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// The offending line, truncated to a displayable snippet.
    pub snippet: String,
    /// What went wrong on that line.
    pub detail: String,
}

impl JsonlError {
    fn new(line: usize, raw: &str, detail: impl Into<String>) -> Self {
        let mut snippet: String = raw.chars().take(SNIPPET_MAX).collect();
        if raw.chars().count() > SNIPPET_MAX {
            snippet.push('…');
        }
        JsonlError { line, snippet, detail: detail.into() }
    }
}

impl fmt::Display for JsonlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {} (in {:?})", self.line, self.detail, self.snippet)
    }
}

impl std::error::Error for JsonlError {}

/// An in-memory store of crawl records with the aggregate queries the
/// dataset assembly needs.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct RecordStore {
    records: Vec<CrawlRecord>,
}

impl RecordStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        RecordStore::default()
    }

    /// Appends a record.
    pub fn push(&mut self, record: CrawlRecord) {
        self.records.push(record);
    }

    /// Appends many records.
    pub fn extend(&mut self, records: impl IntoIterator<Item = CrawlRecord>) {
        self.records.extend(records);
    }

    /// All records.
    pub fn records(&self) -> &[CrawlRecord] {
        &self.records
    }

    /// Consumes the store into its records (no cloning) — how a
    /// finished crawl merges its per-source stores.
    pub fn into_records(self) -> Vec<CrawlRecord> {
        self.records
    }

    /// Total visit count.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records for one exchange.
    pub fn by_exchange<'a>(&'a self, exchange: &'a str) -> impl Iterator<Item = &'a CrawlRecord> {
        self.records.iter().filter(move |r| r.exchange == exchange)
    }

    /// Exchange names present, sorted.
    pub fn exchanges(&self) -> Vec<String> {
        let set: BTreeSet<String> =
            self.records.iter().map(|r| r.exchange.clone()).collect();
        set.into_iter().collect()
    }

    /// Count of distinct surfed URLs (full canonical form, query
    /// included — the paper's 306,895 "distinct URLs").
    pub fn distinct_urls(&self) -> usize {
        let set: HashSet<&str> = self.records.iter().map(|r| r.url.as_str()).collect();
        set.len()
    }

    /// Count of distinct registered domains (the paper's 17,448), one
    /// domain computed per distinct host.
    pub fn distinct_domains(&self) -> usize {
        let hosts: HashSet<&str> = self.records.iter().map(|r| r.url.host()).collect();
        let domains: HashSet<String> =
            hosts.into_iter().map(slum_websim::domain::registered_domain).collect();
        domains.len()
    }

    /// Serializes to JSON-lines, writing every record straight into one
    /// buffer.
    ///
    /// # Errors
    ///
    /// Propagates serde failures.
    pub fn to_jsonl(&self) -> Result<String, serde_json::Error> {
        let mut out = String::new();
        for r in &self.records {
            serde_json::append_to_string(&mut out, r)?;
            out.push('\n');
        }
        Ok(out)
    }

    /// Parses a store from JSON-lines. Blank lines between records are
    /// tolerated; anything else — including trailing garbage after the
    /// last record — must parse as a full record.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonlError`] naming the first offending line (1-based)
    /// with a truncated snippet of its content.
    pub fn from_jsonl(input: &str) -> Result<RecordStore, JsonlError> {
        let mut store = RecordStore::new();
        for (idx, line) in input.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let record = serde_json::from_str(line)
                .map_err(|e| JsonlError::new(idx + 1, line, e.to_string()))?;
            store.push(record);
        }
        Ok(store)
    }
}

impl FromIterator<CrawlRecord> for RecordStore {
    fn from_iter<T: IntoIterator<Item = CrawlRecord>>(iter: T) -> Self {
        let mut store = RecordStore::new();
        store.extend(iter);
        store
    }
}

impl Extend<CrawlRecord> for RecordStore {
    fn extend<T: IntoIterator<Item = CrawlRecord>>(&mut self, iter: T) {
        self.records.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slum_browser::har::HarLog;
    use slum_websim::Url;

    fn rec(exchange: &str, url: &str, seq: u64) -> CrawlRecord {
        let u = Url::parse(url).unwrap();
        CrawlRecord {
            exchange: exchange.into(),
            seq,
            at: seq,
            url: u.clone(),
            final_url: u,
            redirect_hops: 0,
            chain_hosts: vec![],
            via_shortener: false,
            via_js_redirect: false,
            content: None,
            download_filenames: vec![],
            har: HarLog::new(),
            failed: false,
        }
    }

    #[test]
    fn distinct_counts() {
        let mut s = RecordStore::new();
        s.push(rec("A", "http://x.example.com/p?sid=1", 0));
        s.push(rec("A", "http://x.example.com/p?sid=2", 1));
        s.push(rec("A", "http://x.example.com/p?sid=1", 2));
        s.push(rec("B", "http://y.example.net/", 0));
        assert_eq!(s.len(), 4);
        assert_eq!(s.distinct_urls(), 3);
        assert_eq!(s.distinct_domains(), 2);
        assert_eq!(s.exchanges(), vec!["A".to_string(), "B".to_string()]);
        assert_eq!(s.by_exchange("A").count(), 3);
    }

    #[test]
    fn jsonl_round_trip() {
        let mut s = RecordStore::new();
        for i in 0..5 {
            // Distinct registered domains (subdomains of one domain would
            // collapse in distinct_domains()).
            s.push(rec("X", &format!("http://site{i}-example.com/"), i));
        }
        let jsonl = s.to_jsonl().unwrap();
        assert_eq!(jsonl.lines().count(), 5);
        let back = RecordStore::from_jsonl(&jsonl).unwrap();
        assert_eq!(back.len(), 5);
        assert_eq!(back.distinct_domains(), 5);
    }

    #[test]
    fn from_iterator_collects() {
        let s: RecordStore =
            (0..3).map(|i| rec("Z", &format!("http://d{i}.example.org/"), i)).collect();
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn malformed_jsonl_errors() {
        assert!(RecordStore::from_jsonl("{not json}").is_err());
    }

    #[test]
    fn jsonl_error_pins_the_failing_line_and_snippet() {
        let mut s = RecordStore::new();
        s.push(rec("A", "http://a.example.com/", 0));
        s.push(rec("A", "http://b.example.com/", 1));
        let mut jsonl = s.to_jsonl().unwrap();
        jsonl.push_str("this is definitely not a record\n");
        let err = RecordStore::from_jsonl(&jsonl).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.snippet.starts_with("this is definitely"), "{:?}", err.snippet);
        assert!(!err.detail.is_empty());
        // Display ties all three together for log lines.
        let shown = err.to_string();
        assert!(shown.contains("line 3"), "{shown}");
    }

    #[test]
    fn jsonl_error_truncates_long_snippets() {
        let long = format!("{{\"exchange\": \"{}\"", "x".repeat(500));
        let err = RecordStore::from_jsonl(&long).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.snippet.chars().count() <= 61, "{}", err.snippet.len());
        assert!(err.snippet.ends_with('…'));
    }

    #[test]
    fn trailing_garbage_after_last_record_is_rejected() {
        let mut s = RecordStore::new();
        s.push(rec("A", "http://a.example.com/", 0));
        let jsonl = s.to_jsonl().unwrap();
        // Trailing whitespace is fine…
        assert!(RecordStore::from_jsonl(&format!("{jsonl}\n  \n")).is_ok());
        // …but a trailing non-whitespace fragment (even without a final
        // newline) is not.
        let err = RecordStore::from_jsonl(&format!("{jsonl}garbage")).unwrap_err();
        assert_eq!(err.line, 2);
        // Nor is garbage appended to a record line itself.
        let fused = jsonl.trim_end().to_string() + "garbage\n";
        assert!(RecordStore::from_jsonl(&fused).is_err());
    }

    /// `exchanges()` returns lexicographically sorted names regardless
    /// of first-seen order — analysis tables rely on this for stable
    /// row ordering across worker counts.
    #[test]
    fn exchanges_sorted_not_first_seen() {
        let mut s = RecordStore::new();
        s.push(rec("Zeta", "http://z.example.com/", 0));
        s.push(rec("Alpha", "http://a.example.com/", 0));
        s.push(rec("Mid", "http://m.example.com/", 0));
        s.push(rec("Alpha", "http://a2.example.com/", 1));
        assert_eq!(
            s.exchanges(),
            vec!["Alpha".to_string(), "Mid".to_string(), "Zeta".to_string()]
        );
    }
}
