//! Table and figure structures plus text rendering — the artifacts the
//! paper's evaluation section publishes.
//!
//! Every artifact payload implements [`Render`], so callers print any
//! of them — or a whole [`Artifact`] — through one interface.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde::Serialize;

use crate::artifact::Artifact;
use crate::breakdown::{ContentBreakdown, DomainRow, TldBreakdown};
use crate::categorize::{Category, CategoryCounts};
use crate::redirects::{ChainExhibit, RedirectHistogram};
use crate::shortened::ShortenedRow;
use crate::substrate::SubstrateComparison;
use crate::temporal::CumulativeSeries;

/// Plain-text rendering of a published table or figure.
///
/// Implemented by every artifact payload and by [`Artifact`] itself
/// (which dispatches to its payload), so `repro`-style tooling can loop
/// over [`crate::artifact::ArtifactKind::ALL`] and print everything
/// uniformly.
pub trait Render {
    /// Renders the artifact as terminal-ready text (trailing newline
    /// included where the layout wants one).
    fn render(&self) -> String;
}

impl Render for Artifact {
    fn render(&self) -> String {
        match self {
            Artifact::Table1(t) => t.render(),
            Artifact::Table2(rows) => rows.as_slice().render(),
            Artifact::Table3(counts) => counts.render(),
            Artifact::Table4(rows) => rows.as_slice().render(),
            Artifact::Fig2(bars) => bars.as_slice().render(),
            Artifact::Fig3(series) => series.as_slice().render(),
            Artifact::Fig4(Some(chain)) => chain.render(),
            Artifact::Fig4(None) => "(no malicious redirect chain at this scale)\n".to_string(),
            Artifact::Fig5(hist) => hist.render(),
            Artifact::Fig6(tld) => tld.render(),
            Artifact::Fig7(content) => content.render(),
            Artifact::SubstrateComparison(cmp) => cmp.render(),
        }
    }
}

impl Render for SubstrateComparison {
    fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "substrate: {}", self.substrate);
        let _ = writeln!(
            out,
            "{:<16} {:<12} {:>9} {:>7} {:>9} {:>9} {:>10} {:>7}",
            "Source", "Type", "Crawled", "Self", "Popular", "Regular", "Malicious", "%Mal"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<16} {:<12} {:>9} {:>7} {:>9} {:>9} {:>10} {:>6.1}%",
                r.source,
                r.kind.label(),
                r.crawled,
                r.self_referrals,
                r.popular_referrals,
                r.regular,
                r.malicious,
                r.malicious_fraction() * 100.0
            );
        }
        let _ = writeln!(
            out,
            "{:<16} overall: {} malicious / {} regular ({:.1}%)",
            "",
            self.total_malicious(),
            self.total_regular(),
            self.overall_malicious_fraction() * 100.0
        );
        out
    }
}

/// One Table I row.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Table1Row {
    /// Exchange name.
    pub exchange: String,
    /// "Auto-surf" / "Manual-surf".
    pub kind: String,
    /// URLs crawled.
    pub crawled: u64,
    /// Self-referrals.
    pub self_referrals: u64,
    /// Popular referrals.
    pub popular_referrals: u64,
    /// Regular URLs.
    pub regular: u64,
    /// Malicious URLs.
    pub malicious: u64,
}

impl Table1Row {
    /// "% Malicious URLs" column.
    pub fn malicious_fraction(&self) -> f64 {
        if self.regular == 0 {
            0.0
        } else {
            self.malicious as f64 / self.regular as f64
        }
    }
}

/// Table I: statistics of data from traffic exchanges.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Table1 {
    /// Rows in profile order.
    pub rows: Vec<Table1Row>,
}

impl Table1 {
    /// Overall malicious fraction across all regular URLs (the paper's
    /// ">26%" headline).
    pub fn overall_malicious_fraction(&self) -> f64 {
        let regular: u64 = self.rows.iter().map(|r| r.regular).sum();
        let malicious: u64 = self.rows.iter().map(|r| r.malicious).sum();
        if regular == 0 {
            0.0
        } else {
            malicious as f64 / regular as f64
        }
    }

}

impl Render for Table1 {
    fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<16} {:<12} {:>9} {:>7} {:>9} {:>9} {:>10} {:>7}",
            "Exchange", "Type", "Crawled", "Self", "Popular", "Regular", "Malicious", "%Mal"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<16} {:<12} {:>9} {:>7} {:>9} {:>9} {:>10} {:>6.1}%",
                r.exchange,
                r.kind,
                r.crawled,
                r.self_referrals,
                r.popular_referrals,
                r.regular,
                r.malicious,
                r.malicious_fraction() * 100.0
            );
        }
        let _ = writeln!(
            out,
            "{:<16} overall malicious fraction: {:.1}%",
            "",
            self.overall_malicious_fraction() * 100.0
        );
        out
    }
}

impl Render for [DomainRow] {
    fn render(&self) -> String {
        let mut out = String::new();
        let _ =
            writeln!(out, "{:<16} {:>9} {:>9} {:>9}", "Exchange", "#Domains", "#Malware", "%Malware");
        for r in self {
            let _ = writeln!(
                out,
                "{:<16} {:>9} {:>9} {:>8.1}%",
                r.exchange,
                r.domains,
                r.malware_domains,
                r.malware_fraction() * 100.0
            );
        }
        out
    }
}

impl Render for CategoryCounts {
    fn render(&self) -> String {
        let mut out = String::new();
        let _ =
            writeln!(out, "{:<26} {:>9} {:>10} {:>10}", "Category", "Count", "Measured", "Paper");
        for category in Category::ALL {
            if category == Category::Misc {
                continue;
            }
            let _ = writeln!(
                out,
                "{:<26} {:>9} {:>9.1}% {:>9.1}%",
                category.label(),
                self.count(category),
                self.categorized_share(category) * 100.0,
                category.paper_share().unwrap_or(0.0) * 100.0
            );
        }
        let _ = writeln!(
            out,
            "{:<26} {:>9} ({:.1}% of all malicious; paper 66.4%)",
            "Miscellaneous",
            self.count(Category::Misc),
            self.misc_fraction() * 100.0
        );
        out
    }
}

impl Render for [ShortenedRow] {
    fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<30} {:>10} {:>12} {:<12} {:<28}",
            "Shortened URL", "Hits", "LongHits", "TopCountry", "TopReferrer"
        );
        for r in self {
            let _ = writeln!(
                out,
                "{:<30} {:>10} {:>12} {:<12} {:<28}",
                r.short_url.to_string(),
                r.short_hits,
                r.long_url_hits,
                r.top_country,
                r.top_referrer
            );
        }
        out
    }
}

/// Figure 2 data: per-exchange benign/malware counts (the stacked-bar
/// content).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Fig2Bar {
    /// Exchange name.
    pub exchange: String,
    /// Benign regular URLs.
    pub benign: u64,
    /// Malicious regular URLs.
    pub malicious: u64,
}

impl Render for [Fig2Bar] {
    fn render(&self) -> String {
        let mut out = String::new();
        for bar in self {
            let total = (bar.benign + bar.malicious).max(1);
            let frac = bar.malicious as f64 / total as f64;
            let filled = (frac * 40.0).round() as usize;
            let _ = writeln!(
                out,
                "{:<16} [{}{}] {:>5.1}%  (benign {} / malware {})",
                bar.exchange,
                "#".repeat(filled),
                "-".repeat(40 - filled),
                frac * 100.0,
                bar.benign,
                bar.malicious
            );
        }
        out
    }
}

impl Render for [CumulativeSeries] {
    fn render(&self) -> String {
        let mut out = String::new();
        for s in self {
            let _ = writeln!(
                out,
                "{}: crawled {} / malicious {} / burstiness {:.2}",
                s.exchange,
                s.len(),
                s.total_malicious(),
                s.burstiness((s.len() / 20).max(5))
            );
            let samples = s.downsample(10);
            let line: Vec<String> =
                samples.iter().map(|(i, c)| format!("{i}:{c}")).collect();
            let _ = writeln!(out, "  {}", line.join("  "));
        }
        out
    }
}

impl Render for ChainExhibit {
    fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "observed on {}, {} hops:", self.exchange, self.hops);
        for (i, host) in self.hosts.iter().enumerate() {
            let _ = writeln!(out, "  {}{host}", if i == 0 { "" } else { "-> " });
        }
        out
    }
}

impl Render for RedirectHistogram {
    fn render(&self) -> String {
        let mut out = String::new();
        let max = self.counts.values().max().copied().unwrap_or(1).max(1);
        for (hops, count) in &self.counts {
            let filled = ((*count as f64 / max as f64) * 40.0).round() as usize;
            let _ = writeln!(out, "{hops} redirects {:>6}  {}", count, "#".repeat(filled));
        }
        out
    }
}

impl Render for TldBreakdown {
    fn render(&self) -> String {
        let paper: BTreeMap<&str, f64> = [
            ("com", 0.70),
            ("net", 0.22),
            ("de", 0.02),
            ("org", 0.01),
            ("others", 0.05),
        ]
        .into_iter()
        .collect();
        let mut out = String::new();
        let _ = writeln!(out, "{:<8} {:>9} {:>10} {:>10}", "TLD", "Count", "Measured", "Paper");
        for (bucket, expected) in paper {
            let _ = writeln!(
                out,
                "{:<8} {:>9} {:>9.1}% {:>9.1}%",
                bucket,
                self.counts.get(bucket).copied().unwrap_or(0),
                self.share(bucket) * 100.0,
                expected * 100.0
            );
        }
        out
    }
}

impl Render for ContentBreakdown {
    fn render(&self) -> String {
        let paper: [(&str, f64); 5] = [
            ("Business", 0.586),
            ("Advertisement", 0.218),
            ("Entertainment", 0.087),
            ("Information Technology", 0.086),
            ("Others", 0.026),
        ];
        let mut out = String::new();
        let _ =
            writeln!(out, "{:<24} {:>9} {:>10} {:>10}", "Category", "Count", "Measured", "Paper");
        for (label, expected) in paper {
            let _ = writeln!(
                out,
                "{:<24} {:>9} {:>9.1}% {:>9.1}%",
                label,
                self.counts.get(label).copied().unwrap_or(0),
                self.share(label) * 100.0,
                expected * 100.0
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table1() -> Table1 {
        Table1 {
            rows: vec![
                Table1Row {
                    exchange: "A".into(),
                    kind: "Auto-surf".into(),
                    crawled: 100,
                    self_referrals: 10,
                    popular_referrals: 10,
                    regular: 80,
                    malicious: 40,
                },
                Table1Row {
                    exchange: "B".into(),
                    kind: "Manual-surf".into(),
                    crawled: 50,
                    self_referrals: 5,
                    popular_referrals: 5,
                    regular: 40,
                    malicious: 4,
                },
            ],
        }
    }

    #[test]
    fn table1_fractions() {
        let t = table1();
        assert!((t.rows[0].malicious_fraction() - 0.5).abs() < 1e-9);
        assert!((t.overall_malicious_fraction() - 44.0 / 120.0).abs() < 1e-9);
    }

    #[test]
    fn renders_contain_key_numbers() {
        let t = table1();
        let text = t.render();
        assert!(text.contains("50.0%"));
        assert!(text.contains("Auto-surf"));
        assert!(text.contains("overall malicious fraction"));
    }

    #[test]
    fn fig2_bars_render_scaled() {
        let bars = [Fig2Bar { exchange: "X".into(), benign: 50, malicious: 50 }];
        let text = bars.render();
        assert!(text.contains("50.0%"));
        assert!(text.contains("####################"));
    }

    #[test]
    fn fig5_render_handles_empty() {
        let hist = RedirectHistogram::default();
        assert!(hist.render().is_empty());
    }

    #[test]
    fn artifact_render_dispatches_to_payload() {
        let t = table1();
        let direct = t.render();
        assert_eq!(Artifact::Table1(t).render(), direct);
        assert_eq!(
            Artifact::Fig4(None).render(),
            "(no malicious redirect chain at this scale)\n"
        );
        let chain = ChainExhibit {
            exchange: "Otohits".into(),
            hops: 2,
            hosts: vec!["a.com".into(), "b.com".into(), "c.com".into()],
        };
        let text = Artifact::Fig4(Some(chain)).render();
        assert!(text.contains("observed on Otohits, 2 hops:"));
        assert!(text.contains("-> c.com"));
    }

    #[test]
    fn zero_regular_rows_do_not_divide_by_zero() {
        let row = Table1Row {
            exchange: "Z".into(),
            kind: "Auto-surf".into(),
            crawled: 0,
            self_referrals: 0,
            popular_referrals: 0,
            regular: 0,
            malicious: 0,
        };
        assert_eq!(row.malicious_fraction(), 0.0);
        let t = Table1 { rows: vec![row] };
        assert_eq!(t.overall_malicious_fraction(), 0.0);
    }
}
