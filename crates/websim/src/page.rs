//! Page model and ground-truth labels.

use serde::{Deserialize, Serialize};

use crate::content::ContentCategory;
use crate::page_cache::Body;
use crate::url::Url;

/// The specific JavaScript attack a malicious-JS page carries. Mirrors
/// the behaviours the paper documents in §IV-A1 and §V.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum JsAttack {
    /// Static hidden `iframe` (1×1 dimensions) in the HTML.
    HiddenIframe,
    /// Invisible `iframe` (CSS/transparency) that exfiltrates data via
    /// query-string parameters.
    InvisibleIframeExfil,
    /// `iframe` injected dynamically through `document.write` /
    /// `createElement`.
    DynamicIframe,
    /// Fake download prompt pushing a deceptively named executable.
    DeceptiveDownload,
    /// User-behaviour fingerprinting (mouse-movement recording).
    Fingerprinting,
}

/// Why a benign page *looks* suspicious — the paper's §V-E false
/// positives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FalsePositiveKind {
    /// Google OAuth `postmessageRelay` iframe: 1×1, off-screen.
    GoogleOauthRelay,
    /// Google Analytics bootstrap mislabeled as Faceliker.
    GoogleAnalytics,
}

/// The malware category a page belongs to, following the paper's
/// Table III taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum MaliceKind {
    /// Host appears on multiple public blacklists.
    Blacklisted,
    /// Malicious JavaScript payload.
    MaliciousJs(JsAttack),
    /// Malicious Flash object (`ExternalInterface` abuse).
    MaliciousFlash,
    /// Server-side redirection to an undesirable destination.
    SuspiciousRedirect,
    /// Malicious target hidden behind a shortened URL.
    MaliciousShortened,
    /// Detected malicious but without category detail (the paper's
    /// "miscellaneous" bucket — 142,405 of 214,527 malicious URLs).
    Misc,
}

/// Ground-truth label carried by every generated page. This is the
/// simulation's oracle: scanners never see it; the vetting harness and
/// shape assertions do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GroundTruth {
    /// Ordinary benign content.
    Benign,
    /// Benign content that structurally resembles malware (§V-E).
    BenignSuspicious(FalsePositiveKind),
    /// Malicious content of the given category.
    Malicious(MaliceKind),
}

impl GroundTruth {
    /// True for either malicious variant.
    pub fn is_malicious(self) -> bool {
        matches!(self, GroundTruth::Malicious(_))
    }

    /// The malice kind, if malicious.
    pub fn malice_kind(self) -> Option<MaliceKind> {
        match self {
            GroundTruth::Malicious(k) => Some(k),
            _ => None,
        }
    }
}

/// A generated web page.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Page {
    /// Canonical URL the page is served at.
    pub url: Url,
    /// Full HTML markup.
    pub html: Body,
    /// Ground-truth label (simulation oracle).
    pub truth: GroundTruth,
    /// Content category (drives the Figure 7 breakdown).
    pub category: ContentCategory,
    /// When set, scanner-API clients are served this benign variant
    /// instead of `html` — the cloaking behaviour the paper defeats by
    /// uploading crawler-captured content.
    pub cloaked_benign_html: Option<Body>,
}

impl Page {
    /// Creates a benign page.
    pub fn benign(url: Url, html: String, category: ContentCategory) -> Page {
        Page {
            url,
            html: html.into(),
            truth: GroundTruth::Benign,
            category,
            cloaked_benign_html: None,
        }
    }

    /// Creates a malicious page.
    pub fn malicious(url: Url, html: String, kind: MaliceKind, category: ContentCategory) -> Page {
        Page {
            url,
            html: html.into(),
            truth: GroundTruth::Malicious(kind),
            category,
            cloaked_benign_html: None,
        }
    }

    /// Enables cloaking with the given benign variant.
    pub fn with_cloak(mut self, benign_html: String) -> Page {
        self.cloaked_benign_html = Some(benign_html.into());
        self
    }

    /// True when this page cloaks itself from scanners.
    pub fn is_cloaked(&self) -> bool {
        self.cloaked_benign_html.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn url() -> Url {
        Url::http("example.com", "/")
    }

    #[test]
    fn truth_predicates() {
        assert!(!GroundTruth::Benign.is_malicious());
        assert!(!GroundTruth::BenignSuspicious(FalsePositiveKind::GoogleAnalytics).is_malicious());
        assert!(GroundTruth::Malicious(MaliceKind::Blacklisted).is_malicious());
        assert_eq!(
            GroundTruth::Malicious(MaliceKind::Misc).malice_kind(),
            Some(MaliceKind::Misc)
        );
        assert_eq!(GroundTruth::Benign.malice_kind(), None);
    }

    #[test]
    fn cloaking_setup() {
        let p = Page::malicious(
            url(),
            "<html>evil</html>".into(),
            MaliceKind::MaliciousJs(JsAttack::HiddenIframe),
            ContentCategory::Business,
        )
        .with_cloak("<html>nothing to see</html>".into());
        assert!(p.is_cloaked());
        assert!(p.truth.is_malicious());
    }
}
