//! Malware categorization (§IV-A, Table III).
//!
//! The paper's procedure, in precedence order: shortened URLs are
//! recognized by their shortening-service hosts; suspicious redirections
//! by an initial/final URL mismatch; JavaScript and Flash malware by the
//! detailed scan findings; blacklisted URLs by the multi-list consensus;
//! everything else that was detected but carries no category-defining
//! detail lands in the miscellaneous bucket.

use slum_crawler::CrawlRecord;
use slum_detect::quttera::QutteraFinding;

use crate::scanpipe::ScanOutcome;

/// The Table III categories (plus miscellaneous).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Domain on multiple public blacklists.
    Blacklisted,
    /// Malicious JavaScript (hidden/injected iframes, deceptive
    /// downloads, fingerprinting, obfuscated payloads).
    MaliciousJs,
    /// Suspicious server-side redirection.
    SuspiciousRedirect,
    /// Malicious target behind a URL-shortening service.
    MaliciousShortened,
    /// Malicious Flash.
    MaliciousFlash,
    /// Detected malicious without category-defining detail.
    Misc,
}

impl Category {
    /// All categories in Table III order (misc last).
    pub const ALL: [Category; 6] = [
        Category::Blacklisted,
        Category::MaliciousJs,
        Category::SuspiciousRedirect,
        Category::MaliciousShortened,
        Category::MaliciousFlash,
        Category::Misc,
    ];

    /// Table III row label.
    pub fn label(self) -> &'static str {
        match self {
            Category::Blacklisted => "Blacklisted",
            Category::MaliciousJs => "Malicious JavaScript",
            Category::SuspiciousRedirect => "Suspicious Redirection",
            Category::MaliciousShortened => "Malicious Shortened URLs",
            Category::MaliciousFlash => "Malicious Flash",
            Category::Misc => "Miscellaneous",
        }
    }

    /// The paper's Table III share among *categorized* (non-misc)
    /// malicious URLs.
    pub fn paper_share(self) -> Option<f64> {
        match self {
            Category::Blacklisted => Some(0.748),
            Category::MaliciousJs => Some(0.188),
            Category::SuspiciousRedirect => Some(0.058),
            Category::MaliciousShortened => Some(0.005),
            Category::MaliciousFlash => Some(0.001),
            Category::Misc => None,
        }
    }
}

/// Categorizes one detected-malicious record.
///
/// Returns `None` when the outcome was not malicious.
pub fn categorize(record: &CrawlRecord, outcome: &ScanOutcome) -> Option<Category> {
    if !outcome.malicious {
        return None;
    }
    // Shortening services first: their hop would otherwise read as a
    // generic redirect.
    if record.via_shortener {
        return Some(Category::MaliciousShortened);
    }
    // The paper's opening rule: "classified the malicious URLs as
    // suspicious if their initial and final URL did not match".
    if record.url != record.final_url || record.via_js_redirect {
        return Some(Category::SuspiciousRedirect);
    }
    let findings = outcome.findings();
    let is_flash = findings.contains(&QutteraFinding::MaliciousFlash);
    if is_flash {
        return Some(Category::MaliciousFlash);
    }
    let js_findings = [
        QutteraFinding::HiddenIframe,
        QutteraFinding::JsInjectedIframe,
        QutteraFinding::ObfuscatedJs,
        QutteraFinding::DeceptiveDownload,
        QutteraFinding::Fingerprinting,
    ];
    if findings.iter().any(|f| js_findings.contains(f)) {
        return Some(Category::MaliciousJs);
    }
    if outcome.blacklisted_domain.is_some() {
        return Some(Category::Blacklisted);
    }
    Some(Category::Misc)
}

/// Aggregated categorization counts over a scanned corpus.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CategoryCounts {
    /// `(category, count)` in [`Category::ALL`] order.
    pub counts: [(Option<Category>, u64); 6],
    /// Total malicious records.
    pub total_malicious: u64,
}

/// Tallies categories over `(record, outcome)` pairs (borrowed, as
/// produced by [`crate::Study::regular_pairs`]).
pub fn tally(pairs: &[(&CrawlRecord, &ScanOutcome)]) -> CategoryCounts {
    let mut counts = CategoryCounts {
        counts: [
            (Some(Category::Blacklisted), 0),
            (Some(Category::MaliciousJs), 0),
            (Some(Category::SuspiciousRedirect), 0),
            (Some(Category::MaliciousShortened), 0),
            (Some(Category::MaliciousFlash), 0),
            (Some(Category::Misc), 0),
        ],
        total_malicious: 0,
    };
    for (record, outcome) in pairs {
        if let Some(category) = categorize(record, outcome) {
            counts.total_malicious += 1;
            let idx = Category::ALL.iter().position(|c| *c == category).expect("known");
            counts.counts[idx].1 += 1;
        }
    }
    counts
}

impl CategoryCounts {
    /// Count for one category.
    pub fn count(&self, category: Category) -> u64 {
        let idx = Category::ALL.iter().position(|c| *c == category).expect("known");
        self.counts[idx].1
    }

    /// Share of `category` among categorized (non-misc) malicious URLs —
    /// the Table III percentages.
    pub fn categorized_share(&self, category: Category) -> f64 {
        let categorized: u64 = Category::ALL
            .iter()
            .filter(|c| **c != Category::Misc)
            .map(|c| self.count(*c))
            .sum();
        if categorized == 0 || category == Category::Misc {
            return 0.0;
        }
        self.count(category) as f64 / categorized as f64
    }

    /// The miscellaneous fraction of all malicious URLs (§IV-A reports
    /// 142,405 / 214,527 ≈ 66%).
    pub fn misc_fraction(&self) -> f64 {
        if self.total_malicious == 0 {
            0.0
        } else {
            self.count(Category::Misc) as f64 / self.total_malicious as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slum_websim::Url;

    fn record(url: &str, final_url: &str, via_shortener: bool) -> CrawlRecord {
        CrawlRecord {
            exchange: "t".into(),
            seq: 0,
            at: 0,
            url: Url::parse(url).unwrap(),
            final_url: Url::parse(final_url).unwrap(),
            redirect_hops: u32::from(url != final_url),
            chain_hosts: vec![].into(),
            via_shortener,
            via_js_redirect: false,
            content: None,
            download_filenames: vec![],
            failed: false,
        }
    }

    fn outcome(
        malicious: bool,
        findings: Vec<QutteraFinding>,
        blacklisted_domain: Option<&str>,
    ) -> ScanOutcome {
        ScanOutcome::answered(malicious, findings, blacklisted_domain)
    }

    #[test]
    fn benign_is_uncategorized() {
        let r = record("http://a.example/", "http://a.example/", false);
        assert_eq!(categorize(&r, &outcome(false, vec![], None)), None);
    }

    #[test]
    fn shortener_takes_precedence_over_redirect() {
        let r = record("http://goo.gl/abc", "http://landing.example/", true);
        let o = outcome(true, vec![QutteraFinding::SuspiciousRedirect], Some("landing.example"));
        assert_eq!(categorize(&r, &o), Some(Category::MaliciousShortened));
    }

    #[test]
    fn url_mismatch_is_suspicious_redirect() {
        let r = record("http://entry.example/", "http://dest.example/", false);
        let o = outcome(true, vec![], None);
        assert_eq!(categorize(&r, &o), Some(Category::SuspiciousRedirect));
    }

    #[test]
    fn flash_beats_js_findings() {
        let r = record("http://f.example/", "http://f.example/", false);
        let o = outcome(
            true,
            vec![QutteraFinding::MaliciousFlash, QutteraFinding::ObfuscatedJs],
            None,
        );
        assert_eq!(categorize(&r, &o), Some(Category::MaliciousFlash));
    }

    #[test]
    fn js_findings_categorize_as_js() {
        for finding in [
            QutteraFinding::HiddenIframe,
            QutteraFinding::JsInjectedIframe,
            QutteraFinding::ObfuscatedJs,
            QutteraFinding::DeceptiveDownload,
            QutteraFinding::Fingerprinting,
        ] {
            let r = record("http://j.example/", "http://j.example/", false);
            let o = outcome(true, vec![finding], None);
            assert_eq!(categorize(&r, &o), Some(Category::MaliciousJs), "{finding:?}");
        }
    }

    #[test]
    fn blacklist_without_structure_is_blacklisted() {
        let r = record("http://b.example/", "http://b.example/", false);
        let o = outcome(true, vec![], Some("b.example"));
        assert_eq!(categorize(&r, &o), Some(Category::Blacklisted));
    }

    #[test]
    fn detected_without_detail_is_misc() {
        let r = record("http://m.example/", "http://m.example/", false);
        let o = outcome(true, vec![QutteraFinding::GenericMalware], None);
        assert_eq!(categorize(&r, &o), Some(Category::Misc));
    }

    #[test]
    fn tally_and_shares() {
        let records = [
            record("http://a.example/", "http://a.example/", false), // blacklisted
            record("http://b.example/", "http://b.example/", false), // js
            record("http://c.example/", "http://c.example/", false), // benign
            record("http://d.example/", "http://d.example/", false), // misc
        ];
        let outcomes = vec![
            outcome(true, vec![], Some("a.example")),
            outcome(true, vec![QutteraFinding::HiddenIframe], None),
            outcome(false, vec![], None),
            outcome(true, vec![QutteraFinding::GenericMalware], None),
        ];
        let pairs: Vec<_> = records.iter().zip(&outcomes).collect();
        let counts = tally(&pairs);
        assert_eq!(counts.total_malicious, 3);
        assert_eq!(counts.count(Category::Blacklisted), 1);
        assert_eq!(counts.count(Category::MaliciousJs), 1);
        assert_eq!(counts.count(Category::Misc), 1);
        assert!((counts.categorized_share(Category::Blacklisted) - 0.5).abs() < 1e-9);
        assert!((counts.misc_fraction() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn paper_shares_sum_to_one() {
        let total: f64 = Category::ALL.iter().filter_map(|c| c.paper_share()).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_tally_is_zero() {
        let counts = tally(&[]);
        assert_eq!(counts.total_malicious, 0);
        assert!(counts.counts.iter().all(|(_, n)| *n == 0));
    }
}
