//! Redirect-chain analysis (Figures 4 and 5).
//!
//! §IV-A4: "URLs involved in redirections sometimes make long chains by
//! redirecting multiple times before reaching their destination URLs"
//! (Figure 4 shows a five-hop example) and "several malicious URLs
//! redirect users up to 7 times" (Figure 5 plots the histogram).

use std::collections::BTreeMap;

use slum_crawler::CrawlRecord;

use crate::scanpipe::ScanOutcome;

/// Figure 5: histogram of redirect counts among malicious URLs that
/// redirect at least once.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RedirectHistogram {
    /// hop count → number of URLs.
    pub counts: BTreeMap<u32, u64>,
}

impl RedirectHistogram {
    /// Builds the histogram over malicious redirecting records.
    pub fn build(pairs: &[(&CrawlRecord, &ScanOutcome)]) -> RedirectHistogram {
        let mut counts = BTreeMap::new();
        for (record, outcome) in pairs {
            if outcome.malicious && record.redirect_hops > 0 {
                *counts.entry(record.redirect_hops).or_insert(0) += 1;
            }
        }
        RedirectHistogram { counts }
    }

    /// Total redirecting malicious URLs.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// The maximum hop count observed.
    pub fn max_hops(&self) -> u32 {
        self.counts.keys().max().copied().unwrap_or(0)
    }

    /// Count at exactly `hops`.
    pub fn at(&self, hops: u32) -> u64 {
        self.counts.get(&hops).copied().unwrap_or(0)
    }
}

/// A rendered redirect chain — the Figure 4 exhibit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainExhibit {
    /// Exchange the chain was observed on.
    pub exchange: String,
    /// Hosts from entry to destination.
    pub hosts: Vec<String>,
    /// Hop count.
    pub hops: u32,
}

/// Picks the longest malicious redirect chain in the corpus as the
/// Figure 4 exhibit.
///
/// Hop-count ties break deterministically on the lexicographically
/// smallest `(url, chain, exchange)`, so the exhibit is a function of
/// the corpus *contents* — `max_by_key` alone keeps the last maximum,
/// which silently changes the figure whenever record order does.
pub fn longest_chain(pairs: &[(&CrawlRecord, &ScanOutcome)]) -> Option<ChainExhibit> {
    pairs
        .iter()
        .filter(|(r, o)| o.malicious && r.redirect_hops > 0)
        .max_by_key(|(r, _)| {
            (r.redirect_hops, std::cmp::Reverse((r.url.as_str(), &r.chain_hosts, &r.exchange)))
        })
        .map(|(r, _)| {
            // chain_hosts collapses consecutive repeats, so a chain of
            // `hops` redirects carries between 1 and hops+1 hosts.
            debug_assert!(
                !r.chain_hosts.is_empty()
                    && r.chain_hosts.len() as u64 <= u64::from(r.redirect_hops) + 1,
                "chain_hosts len {} inconsistent with redirect_hops {}",
                r.chain_hosts.len(),
                r.redirect_hops
            );
            ChainExhibit {
                exchange: r.exchange.to_string(),
                hosts: r.chain_hosts.iter().map(|h| h.to_string()).collect(),
                hops: r.redirect_hops,
            }
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use slum_websim::Url;

    fn record(hops: u32) -> CrawlRecord {
        CrawlRecord {
            exchange: "X".into(),
            seq: 0,
            at: 0,
            url: Url::parse("http://entry.example/").unwrap(),
            final_url: Url::parse("http://dest.example/").unwrap(),
            redirect_hops: hops,
            chain_hosts: (0..=hops).map(|i| format!("h{i}.example").into()).collect(),
            via_shortener: false,
            via_js_redirect: false,
            content: None,
            download_filenames: vec![],
            failed: false,
        }
    }

    fn outcome(malicious: bool) -> ScanOutcome {
        ScanOutcome::answered(malicious, vec![], None)
    }

    fn record_with_url(hops: u32, url: &str, host_prefix: &str) -> CrawlRecord {
        CrawlRecord {
            url: Url::parse(url).unwrap(),
            chain_hosts: (0..=hops).map(|i| format!("{host_prefix}{i}.example").into()).collect(),
            ..record(hops)
        }
    }

    #[test]
    fn histogram_counts_only_malicious_redirecting() {
        let records = [record(1), record(1), record(2), record(0), record(3)];
        let outcomes =
            vec![outcome(true), outcome(true), outcome(true), outcome(true), outcome(false)];
        let pairs: Vec<_> = records.iter().zip(&outcomes).collect();
        let h = RedirectHistogram::build(&pairs);
        assert_eq!(h.at(1), 2);
        assert_eq!(h.at(2), 1);
        assert_eq!(h.at(3), 0, "benign chains excluded");
        assert_eq!(h.total(), 3);
        assert_eq!(h.max_hops(), 2);
    }

    #[test]
    fn longest_chain_selected() {
        let records = [record(2), record(5), record(7), record(6)];
        let outcomes = vec![outcome(true), outcome(true), outcome(false), outcome(true)];
        let pairs: Vec<_> = records.iter().zip(&outcomes).collect();
        let exhibit = longest_chain(&pairs).unwrap();
        assert_eq!(exhibit.hops, 6, "the 7-hop chain is benign");
        assert_eq!(exhibit.hosts.len(), 7);
    }

    #[test]
    fn longest_chain_ties_break_by_url_not_input_position() {
        // Two malicious chains tie at 4 hops. The exhibit must be the
        // lexicographically smallest URL ("http://aaa...") no matter
        // where it sits in the input — `max_by_key`'s last-max-wins
        // behaviour used to pick whichever tied record came last.
        let first = record_with_url(4, "http://aaa.example/", "aaa");
        let second = record_with_url(4, "http://zzz.example/", "zzz");
        let outcomes = vec![outcome(true), outcome(true)];

        let pairs: Vec<_> = [&first, &second].into_iter().zip(&outcomes).collect();
        let exhibit = longest_chain(&pairs).unwrap();
        assert_eq!(exhibit.hosts[0], "aaa0.example", "smallest URL wins the tie");

        let reversed: Vec<_> = [&second, &first].into_iter().zip(&outcomes).collect();
        assert_eq!(longest_chain(&reversed).unwrap(), exhibit, "order must not matter");
    }

    #[test]
    fn empty_corpus_has_no_exhibit() {
        assert!(longest_chain(&[]).is_none());
        let h = RedirectHistogram::build(&[]);
        assert_eq!(h.total(), 0);
        assert_eq!(h.max_hops(), 0);
    }
}
