//! The record-aligned facts table: what the corpus-wide artifacts group
//! by.
//!
//! A study builds it once, after its scan phase, so it never adds to
//! the scan's peak. Each record contributes its source's index, its
//! referral class, its verdict and the id of its surfed URL's
//! registered domain; the table also holds the corpus's distinct URL
//! and domain counts. Table I, Table II, Figure 3, the substrate
//! comparison and the export's corpus counts read it through one
//! group-by ([`Facts::by_source`]) instead of walking the records.

use std::collections::HashMap;

use slum_crawler::CrawlRecord;
use slum_websim::domain::registered_domain;

use crate::filter::ReferralClass;
use crate::scanpipe::ScanOutcome;
use crate::substrate::{SourceMeta, SubstrateRow};

/// One record's facts: its source's index, referral class, verdict and
/// the id of its surfed URL's registered domain.
#[derive(Debug, Clone, Copy)]
struct Fact {
    source: u16,
    class: ReferralClass,
    malicious: bool,
    domain: u32,
}

/// The facts table: one [`Fact`] per record, in record order.
#[derive(Debug)]
pub(crate) struct Facts {
    facts: Vec<Fact>,
    /// Distinct surfed URLs (canonical form, query included).
    pub(crate) urls: usize,
    /// Distinct registered domains of the surfed URLs.
    pub(crate) domains: usize,
}

/// One source's group of the facts table: its counts, the distinct
/// registered domains of its regular records and of those judged
/// malicious, and each regular record's verdict in crawl order.
pub(crate) struct SourceGroup {
    pub(crate) row: SubstrateRow,
    pub(crate) domains: u64,
    pub(crate) malware_domains: u64,
    pub(crate) flags: Vec<bool>,
}

impl Facts {
    /// Builds the table from a study's aligned records, referral
    /// classes and outcomes, keying borrowed strings: a record hashes
    /// its URL, a new URL its host, and a new host computes its
    /// registered domain.
    ///
    /// # Panics
    ///
    /// Panics when a record's source is not among `sources`.
    pub(crate) fn build(
        sources: &[SourceMeta],
        records: &[CrawlRecord],
        referrals: &[ReferralClass],
        outcomes: &[ScanOutcome],
    ) -> Facts {
        // Each distinct URL and host with its domain id. Sized for the
        // records up front: growing would hash every URL again.
        let mut urls: HashMap<&str, u32> = HashMap::with_capacity(records.len());
        let mut hosts: HashMap<&str, u32> = HashMap::new();
        let mut domains: HashMap<String, u32> = HashMap::new();
        // The store is grouped by source: the index is looked up again
        // only where a run of one source's records ends.
        let mut run: Option<(&str, u16)> = None;
        let facts = records
            .iter()
            .zip(referrals)
            .zip(outcomes)
            .map(|((record, &class), outcome)| {
                let domain = *urls.entry(record.url.as_str()).or_insert_with(|| {
                    let host = record.url.host();
                    *hosts.entry(host).or_insert_with(|| {
                        let next = u32::try_from(domains.len()).expect("fewer than 2^32 domains");
                        *domains.entry(registered_domain(host)).or_insert(next)
                    })
                });
                let source = match run {
                    Some((name, source)) if record.exchange == name => source,
                    _ => {
                        let source = sources
                            .iter()
                            .position(|meta| meta.name == record.exchange.as_str())
                            .expect("every record comes from one of the study's sources");
                        let source = u16::try_from(source).expect("fewer than 2^16 sources");
                        run = Some((record.exchange.as_str(), source));
                        source
                    }
                };
                Fact { source, class, malicious: outcome.malicious, domain }
            })
            .collect();
        Facts { facts, urls: urls.len(), domains: domains.len() }
    }

    /// The group-by: one pass over the table, one group per source.
    pub(crate) fn by_source(&self, sources: &[SourceMeta]) -> Vec<SourceGroup> {
        let mut groups: Vec<SourceGroup> = sources
            .iter()
            .map(|meta| SourceGroup {
                row: SubstrateRow {
                    source: meta.name.clone(),
                    kind: meta.kind,
                    crawled: 0,
                    self_referrals: 0,
                    popular_referrals: 0,
                    regular: 0,
                    malicious: 0,
                },
                domains: 0,
                malware_domains: 0,
                flags: Vec::new(),
            })
            .collect();
        // Per (source, domain): 0 unseen, 1 on a regular record, 2 on a
        // malicious one.
        let mut marks = vec![0u8; sources.len() * self.domains];
        for fact in &self.facts {
            let source = usize::from(fact.source);
            let g = &mut groups[source];
            g.row.crawled += 1;
            match fact.class {
                ReferralClass::SelfReferral => g.row.self_referrals += 1,
                ReferralClass::PopularReferral => g.row.popular_referrals += 1,
                ReferralClass::Regular => {
                    g.row.regular += 1;
                    g.row.malicious += u64::from(fact.malicious);
                    g.flags.push(fact.malicious);
                    let mark = &mut marks[source * self.domains + fact.domain as usize];
                    if *mark == 0 {
                        g.domains += 1;
                        *mark = 1;
                    }
                    if fact.malicious && *mark == 1 {
                        g.malware_domains += 1;
                        *mark = 2;
                    }
                }
            }
        }
        groups
    }
}
