//! Models of the eight third-party analysis tools the study considered.
//!
//! §III-B vets candidate tools on a gold-standard malware set (drawn
//! from the Xing et al. ad-injection corpus) and reports their detection
//! accuracies: Wepawet 0%, AVG Threat Labs 0%, Sender Base 10%,
//! Site Check 40%, Bright Cloud 60%, URLQuery 70%, VirusTotal 100%,
//! Quttera 100%. The two perfect scorers became the study's scanners.
//!
//! The six rejected tools are modelled as fixed-rate detectors (their
//! internals are irrelevant to the reproduction — only their vetting
//! behaviour matters); VirusTotal and Quttera are the real feature-based
//! implementations from this crate.

use slum_websim::{SyntheticWeb, Url};

use crate::hash::chance;
use crate::quttera::Quttera;
use crate::virustotal::VirusTotal;

/// Identity of a candidate tool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ToolId {
    /// Wepawet (offline by 2016; detected nothing in the vetting set).
    Wepawet,
    /// AVG Threat Labs.
    AvgThreatLab,
    /// Cisco Sender Base.
    SenderBase,
    /// Sucuri Site Check.
    SiteCheck,
    /// Webroot Bright Cloud.
    BrightCloud,
    /// URLQuery.
    UrlQuery,
    /// VirusTotal (selected).
    VirusTotal,
    /// Quttera (selected).
    Quttera,
}

impl ToolId {
    /// All eight tools, vetting-table order (worst to best).
    pub const ALL: [ToolId; 8] = [
        ToolId::Wepawet,
        ToolId::AvgThreatLab,
        ToolId::SenderBase,
        ToolId::SiteCheck,
        ToolId::BrightCloud,
        ToolId::UrlQuery,
        ToolId::VirusTotal,
        ToolId::Quttera,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ToolId::Wepawet => "Wepawet",
            ToolId::AvgThreatLab => "AVG Threat Lab",
            ToolId::SenderBase => "Sender Base",
            ToolId::SiteCheck => "Site Check",
            ToolId::BrightCloud => "Bright Cloud",
            ToolId::UrlQuery => "URLQuery",
            ToolId::VirusTotal => "VirusTotal",
            ToolId::Quttera => "Quttera",
        }
    }

    /// The detection rate the paper measured on its gold standard.
    pub fn paper_accuracy(self) -> f64 {
        match self {
            ToolId::Wepawet | ToolId::AvgThreatLab => 0.0,
            ToolId::SenderBase => 0.10,
            ToolId::SiteCheck => 0.40,
            ToolId::BrightCloud => 0.60,
            ToolId::UrlQuery => 0.70,
            ToolId::VirusTotal | ToolId::Quttera => 1.0,
        }
    }

    /// Whether the study kept the tool after vetting.
    pub fn selected(self) -> bool {
        matches!(self, ToolId::VirusTotal | ToolId::Quttera)
    }
}

/// A scanning facade over all eight tools.
pub struct ToolBench<'w> {
    web: &'w SyntheticWeb,
    virustotal: VirusTotal<'w>,
    quttera: Quttera<'w>,
}

impl<'w> ToolBench<'w> {
    /// Creates the bench bound to the synthetic web.
    pub fn new(web: &'w SyntheticWeb) -> Self {
        ToolBench { web, virustotal: VirusTotal::new(web), quttera: Quttera::new(web) }
    }

    /// Scans `url` with `tool`; returns its malicious/benign verdict.
    ///
    /// Rejected tools are rate-modelled: on a sample that is genuinely
    /// malicious they detect with their measured accuracy
    /// (deterministically per tool×URL); on benign samples they stay
    /// quiet. VirusTotal and Quttera run their real pipelines.
    pub fn scan(&self, tool: ToolId, url: &Url) -> bool {
        match tool {
            ToolId::VirusTotal => self.virustotal.scan_url(url).is_malicious(),
            ToolId::Quttera => self.quttera.scan_url(url).is_malicious(),
            rate_modelled => {
                let truly_malicious = self
                    .web
                    .oracle_page(url)
                    .map(|p| p.truth.is_malicious())
                    .unwrap_or(false);
                if !truly_malicious {
                    return false;
                }
                chance(
                    &format!("{}|{url}", rate_modelled.name()),
                    rate_modelled.paper_accuracy(),
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slum_websim::build::{BenignOptions, WebBuilder};
    use slum_websim::{ContentCategory, JsAttack, Tld};

    #[test]
    fn tool_metadata_matches_paper() {
        assert_eq!(ToolId::Wepawet.paper_accuracy(), 0.0);
        assert_eq!(ToolId::UrlQuery.paper_accuracy(), 0.70);
        assert_eq!(ToolId::VirusTotal.paper_accuracy(), 1.0);
        let selected: Vec<_> = ToolId::ALL.iter().filter(|t| t.selected()).collect();
        assert_eq!(selected.len(), 2);
    }

    #[test]
    fn accuracies_monotone_in_all_order() {
        let accs: Vec<f64> = ToolId::ALL.iter().map(|t| t.paper_accuracy()).collect();
        assert!(accs.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn rejected_tools_never_flag_benign() {
        let mut b = WebBuilder::new(95);
        let site = b.benign_site(BenignOptions::default());
        let web = b.finish();
        let bench = ToolBench::new(&web);
        for tool in ToolId::ALL {
            if !tool.selected() {
                assert!(!bench.scan(tool, &site.url), "{}", tool.name());
            }
        }
    }

    #[test]
    fn wepawet_detects_nothing_even_on_malware() {
        let mut b = WebBuilder::new(96);
        let spec = b.js_site(JsAttack::HiddenIframe, Tld::Com, ContentCategory::Business, false);
        let web = b.finish();
        let bench = ToolBench::new(&web);
        assert!(!bench.scan(ToolId::Wepawet, &spec.url));
        assert!(!bench.scan(ToolId::AvgThreatLab, &spec.url));
    }

    #[test]
    fn selected_tools_detect_gold_style_malware() {
        let mut b = WebBuilder::new(97);
        let spec = b.js_site(JsAttack::DynamicIframe, Tld::Com, ContentCategory::Business, false);
        let web = b.finish();
        let bench = ToolBench::new(&web);
        assert!(bench.scan(ToolId::VirusTotal, &spec.url));
        assert!(bench.scan(ToolId::Quttera, &spec.url));
    }
}
