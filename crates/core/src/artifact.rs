//! The artifact layer: every table and figure the paper's evaluation
//! publishes, one typed builder each.
//!
//! Each artifact has a typed method on [`Study`] (`table1()` through
//! `fig7()`, plus `substrate_comparison()`) that holds its builder, so
//! callers that want one artifact get its payload type checked by the
//! compiler. Generic tooling iterates [`ArtifactKind::ALL`], builds each
//! one with [`Study::artifact`] (a dispatcher over the typed builders)
//! and prints it through [`crate::report::Render`].
//!
//! Table I, Table II, Figure 3 and the substrate comparison are one
//! group-by over the study's record-aligned facts table, built once
//! after the scan phase; the other builders read the regular records
//! and their outcomes.

use crate::breakdown::{ContentBreakdown, DomainRow, TldBreakdown};
use crate::categorize::{tally, CategoryCounts};
use crate::facts::SourceGroup;
use crate::redirects::{longest_chain, ChainExhibit, RedirectHistogram};
use crate::report::{Fig2Bar, Table1, Table1Row};
use crate::shortened::{shortened_rows, ShortenedRow};
use crate::study::Study;
use crate::substrate::SubstrateComparison;
use crate::temporal::CumulativeSeries;

/// Which published artifact to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ArtifactKind {
    /// Table I: per-exchange crawl statistics.
    Table1,
    /// Table II: per-exchange domain statistics.
    Table2,
    /// Table III: malware categorization counts.
    Table3,
    /// Table IV: malicious shortened-URL statistics.
    Table4,
    /// Figure 2: per-exchange benign vs malware bars.
    Fig2,
    /// Figure 3: per-exchange cumulative malicious series.
    Fig3,
    /// Figure 4: the longest malicious redirect chain observed.
    Fig4,
    /// Figure 5: redirect-count histogram.
    Fig5,
    /// Figure 6: TLD breakdown of malicious URLs.
    Fig6,
    /// Figure 7: content-category breakdown of malicious URLs.
    Fig7,
    /// Cross-substrate malice comparison: per-source statistics in a
    /// substrate-agnostic shape (this reproduction's extension; not a
    /// paper artifact).
    SubstrateComparison,
}

impl ArtifactKind {
    /// Every artifact, in publication order.
    pub const ALL: [ArtifactKind; 11] = [
        ArtifactKind::Table1,
        ArtifactKind::Table2,
        ArtifactKind::Table3,
        ArtifactKind::Table4,
        ArtifactKind::Fig2,
        ArtifactKind::Fig3,
        ArtifactKind::Fig4,
        ArtifactKind::Fig5,
        ArtifactKind::Fig6,
        ArtifactKind::Fig7,
        ArtifactKind::SubstrateComparison,
    ];

    /// The short CLI name (`table1`, `fig5`, ...).
    pub fn name(self) -> &'static str {
        match self {
            ArtifactKind::Table1 => "table1",
            ArtifactKind::Table2 => "table2",
            ArtifactKind::Table3 => "table3",
            ArtifactKind::Table4 => "table4",
            ArtifactKind::Fig2 => "fig2",
            ArtifactKind::Fig3 => "fig3",
            ArtifactKind::Fig4 => "fig4",
            ArtifactKind::Fig5 => "fig5",
            ArtifactKind::Fig6 => "fig6",
            ArtifactKind::Fig7 => "fig7",
            ArtifactKind::SubstrateComparison => "substrates",
        }
    }

    /// The publication title used as a section header.
    pub fn title(self) -> &'static str {
        match self {
            ArtifactKind::Table1 => "Table I: statistics of data from traffic exchanges",
            ArtifactKind::Table2 => "Table II: statistics of domains on traffic exchanges",
            ArtifactKind::Table3 => "Table III: malware categorization",
            ArtifactKind::Table4 => "Table IV: statistics of malicious shortened URLs",
            ArtifactKind::Fig2 => "Figure 2: malware ratio in exchanges",
            ArtifactKind::Fig3 => "Figure 3: time series of malicious URLs",
            ArtifactKind::Fig4 => "Figure 4: example suspicious redirection chain",
            ArtifactKind::Fig5 => "Figure 5: distribution of URL redirection count",
            ArtifactKind::Fig6 => "Figure 6: malicious URLs across TLDs",
            ArtifactKind::Fig7 => "Figure 7: malicious content across categories",
            ArtifactKind::SubstrateComparison => {
                "Substrate comparison: malice across traffic ecosystems"
            }
        }
    }

    /// Parses a CLI name back into a kind.
    pub fn parse(name: &str) -> Option<ArtifactKind> {
        ArtifactKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One built artifact: the typed payload for each [`ArtifactKind`].
#[derive(Debug, Clone)]
pub enum Artifact {
    /// Table I.
    Table1(Table1),
    /// Table II rows.
    Table2(Vec<DomainRow>),
    /// Table III counts.
    Table3(CategoryCounts),
    /// Table IV rows.
    Table4(Vec<ShortenedRow>),
    /// Figure 2 bars.
    Fig2(Vec<Fig2Bar>),
    /// Figure 3 series.
    Fig3(Vec<CumulativeSeries>),
    /// Figure 4 exhibit (absent when no malicious chain was observed).
    Fig4(Option<ChainExhibit>),
    /// Figure 5 histogram.
    Fig5(RedirectHistogram),
    /// Figure 6 breakdown.
    Fig6(TldBreakdown),
    /// Figure 7 breakdown.
    Fig7(ContentBreakdown),
    /// Substrate-comparison rows.
    SubstrateComparison(SubstrateComparison),
}

impl Study {
    /// Builds any published artifact from the completed study, for
    /// loops over [`ArtifactKind::ALL`]. Each kind delegates to its
    /// typed builder below.
    pub fn artifact(&self, kind: ArtifactKind) -> Artifact {
        match kind {
            ArtifactKind::Table1 => Artifact::Table1(self.table1()),
            ArtifactKind::Table2 => Artifact::Table2(self.table2()),
            ArtifactKind::Table3 => Artifact::Table3(self.table3()),
            ArtifactKind::Table4 => Artifact::Table4(self.table4()),
            ArtifactKind::Fig2 => Artifact::Fig2(self.fig2()),
            ArtifactKind::Fig3 => Artifact::Fig3(self.fig3()),
            ArtifactKind::Fig4 => Artifact::Fig4(self.fig4()),
            ArtifactKind::Fig5 => Artifact::Fig5(self.fig5()),
            ArtifactKind::Fig6 => Artifact::Fig6(self.fig6()),
            ArtifactKind::Fig7 => Artifact::Fig7(self.fig7()),
            ArtifactKind::SubstrateComparison => {
                Artifact::SubstrateComparison(self.substrate_comparison())
            }
        }
    }

    /// Table I: per-source crawl statistics (one row per traffic source
    /// of the substrate that ran; the nine exchanges under the default).
    pub fn table1(&self) -> Table1 {
        let rows = self
            .source_groups()
            .into_iter()
            .map(|SourceGroup { row, .. }| Table1Row {
                exchange: row.source,
                kind: row.kind.label().to_string(),
                crawled: row.crawled,
                self_referrals: row.self_referrals,
                popular_referrals: row.popular_referrals,
                regular: row.regular,
                malicious: row.malicious,
            })
            .collect();
        Table1 { rows }
    }

    /// Table II: per-source domain statistics, for the sources with
    /// regular records, by name.
    pub fn table2(&self) -> Vec<DomainRow> {
        let mut rows: Vec<DomainRow> = self
            .source_groups()
            .into_iter()
            .filter(|g| g.row.regular > 0)
            .map(|g| DomainRow {
                exchange: g.row.source,
                domains: g.domains,
                malware_domains: g.malware_domains,
            })
            .collect();
        rows.sort_by(|a, b| a.exchange.cmp(&b.exchange));
        rows
    }

    /// Table III: malware categorization counts.
    pub fn table3(&self) -> CategoryCounts {
        tally(&self.regular_pairs())
    }

    /// Table IV: malicious shortened-URL statistics.
    pub fn table4(&self) -> Vec<ShortenedRow> {
        shortened_rows(&self.web, &self.regular_pairs())
    }

    /// Figure 2 bars (per-source benign vs malware).
    pub fn fig2(&self) -> Vec<Fig2Bar> {
        self.table1()
            .rows
            .into_iter()
            .map(|r| Fig2Bar {
                exchange: r.exchange,
                benign: r.regular - r.malicious,
                malicious: r.malicious,
            })
            .collect()
    }

    /// Figure 3: per-source cumulative malicious series (regular URLs,
    /// crawl order).
    pub fn fig3(&self) -> Vec<CumulativeSeries> {
        let groups = self.source_groups().into_iter();
        groups.map(|g| CumulativeSeries::from_flags(g.row.source, &g.flags)).collect()
    }

    /// Figure 4 exhibit: the longest malicious redirect chain observed.
    pub fn fig4(&self) -> Option<ChainExhibit> {
        longest_chain(&self.regular_pairs())
    }

    /// Figure 5: redirect-count histogram.
    pub fn fig5(&self) -> RedirectHistogram {
        RedirectHistogram::build(&self.regular_pairs())
    }

    /// Figure 6: TLD breakdown of malicious URLs.
    pub fn fig6(&self) -> TldBreakdown {
        TldBreakdown::build(&self.regular_pairs())
    }

    /// Figure 7: content-category breakdown of malicious URLs.
    pub fn fig7(&self) -> ContentBreakdown {
        ContentBreakdown::build(&self.web, &self.regular_pairs())
    }

    /// Cross-substrate malice comparison: per-source statistics in a
    /// substrate-agnostic shape.
    pub fn substrate_comparison(&self) -> SubstrateComparison {
        SubstrateComparison {
            substrate: self.config().substrate.name().to_string(),
            rows: self.source_groups().into_iter().map(|g| g.row).collect(),
        }
    }

    /// The group-by of the study's facts table, one group per source.
    pub(crate) fn source_groups(&self) -> Vec<SourceGroup> {
        self.facts.by_source(&self.sources)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_round_trip_through_names() {
        for kind in ArtifactKind::ALL {
            assert_eq!(ArtifactKind::parse(kind.name()), Some(kind));
            assert!(!kind.title().is_empty());
        }
        assert_eq!(ArtifactKind::parse("table9"), None);
    }
}
