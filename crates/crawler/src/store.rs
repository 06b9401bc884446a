//! The crawl-record store.

use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

use serde::Serialize;

use slum_browser::HarLog;
use slum_websim::Url;

use crate::record::CrawlRecord;

/// One corpus line: a record's fields with its load's HAR, in the order
/// the corpus JSON lines print them.
#[derive(Serialize)]
struct CorpusLine<'a> {
    exchange: &'a str,
    seq: u64,
    at: u64,
    url: &'a Url,
    final_url: &'a Url,
    redirect_hops: u32,
    chain_hosts: &'a [Arc<str>],
    via_shortener: bool,
    via_js_redirect: bool,
    content: Option<&'a str>,
    download_filenames: &'a [String],
    har: &'a HarLog,
    failed: bool,
}

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

    /// Exchange names present, sorted.
    pub fn exchanges(&self) -> Vec<String> {
        let set: BTreeSet<&str> = self.records.iter().map(|r| r.exchange.as_str()).collect();
        set.into_iter().map(str::to_owned).collect()
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

    /// Serializes to JSON lines, one record per line with the HAR
    /// `har_of` gives for it, writing every line straight into one
    /// buffer. [`corpus_jsonl`](crate::run::corpus_jsonl) passes each
    /// record's replayed load.
    ///
    /// # Errors
    ///
    /// Propagates serde failures.
    pub(crate) fn to_jsonl(
        &self,
        mut har_of: impl FnMut(&CrawlRecord) -> HarLog,
    ) -> Result<String, serde_json::Error> {
        let mut out = String::new();
        for r in &self.records {
            let har = har_of(r);
            let line = CorpusLine {
                exchange: &r.exchange,
                seq: r.seq,
                at: r.at,
                url: &r.url,
                final_url: &r.final_url,
                redirect_hops: r.redirect_hops,
                chain_hosts: &r.chain_hosts,
                via_shortener: r.via_shortener,
                via_js_redirect: r.via_js_redirect,
                content: r.content.as_deref(),
                download_filenames: &r.download_filenames,
                har: &har,
                failed: r.failed,
            };
            serde_json::append_to_string(&mut out, &line)?;
            out.push('\n');
        }
        Ok(out)
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
    use serde::Deserialize;

    fn rec(exchange: &str, url: &str, seq: u64) -> CrawlRecord {
        let u = Url::parse(url).unwrap();
        CrawlRecord {
            exchange: exchange.into(),
            seq,
            at: seq,
            url: u.clone(),
            final_url: u,
            redirect_hops: 0,
            chain_hosts: Arc::new([]),
            via_shortener: false,
            via_js_redirect: false,
            content: None,
            download_filenames: vec![],
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
    }

    #[test]
    fn jsonl_round_trip() {
        /// The fields of a corpus line this test reads back.
        #[derive(Deserialize)]
        struct Line {
            exchange: String,
            seq: u64,
            url: Url,
            har: HarLog,
        }
        let mut s = RecordStore::new();
        for i in 0..5 {
            // Distinct registered domains (subdomains of one domain would
            // collapse in distinct_domains()).
            s.push(rec("X", &format!("http://site{i}-example.com/"), i));
        }
        let jsonl = s.to_jsonl(|_| HarLog::new()).unwrap();
        assert_eq!(jsonl.lines().count(), 5);
        for (line, r) in jsonl.lines().zip(s.records()) {
            let back: Line = serde_json::from_str(line).unwrap();
            assert_eq!((back.exchange.as_str(), back.seq), (r.exchange.as_str(), r.seq));
            assert_eq!(back.url, r.url);
            assert!(back.har.is_empty());
        }
        assert_eq!(s.distinct_domains(), 5);
    }

    #[test]
    fn from_iterator_collects() {
        let s: RecordStore =
            (0..3).map(|i| rec("Z", &format!("http://d{i}.example.org/"), i)).collect();
        assert_eq!(s.len(), 3);
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
