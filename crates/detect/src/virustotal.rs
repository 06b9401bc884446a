//! The VirusTotal-style multi-engine aggregator.
//!
//! The paper submitted URLs and downloaded page files through the
//! VirusTotal API and treated a URL as malicious when the aggregate
//! report said so. We reproduce the two scan paths:
//!
//! - **URL scan** ([`VirusTotal::scan_url`]): the service fetches the
//!   URL *itself* — with a scanner identity, so cloaked pages serve
//!   their benign variant and evade detection;
//! - **file scan** ([`VirusTotal::scan_content`]): the client uploads
//!   crawler-captured page content, defeating cloaking (§III fn. 1).

use slum_browser::Browser;
use slum_websim::{RequestContext, SyntheticWeb, Url};

use crate::engine::{default_engines, EngineModel};
use crate::features::Features;

/// Aggregated scan report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VtReport {
    /// Engines that flagged the sample, with their labels (both are
    /// names from the static engine battery, so a report copies no
    /// string).
    pub detections: Vec<(&'static str, &'static str)>,
    /// Total engines consulted.
    pub total_engines: usize,
    /// Positives threshold used for the verdict.
    pub threshold: usize,
}

impl VtReport {
    /// Number of engines that flagged the sample.
    pub fn positives(&self) -> usize {
        self.detections.len()
    }

    /// The aggregate verdict: malicious when positives ≥ threshold.
    pub fn is_malicious(&self) -> bool {
        self.positives() >= self.threshold
    }

    /// All labels reported (for categorization drill-down).
    pub fn labels(&self) -> Vec<&'static str> {
        self.detections.iter().map(|&(_, l)| l).collect()
    }
}

/// A VirusTotal-style scanning service bound to the synthetic web.
///
/// ```
/// use slum_detect::virustotal::VirusTotal;
/// use slum_websim::build::WebBuilder;
/// use slum_websim::{ContentCategory, JsAttack, Tld};
///
/// let mut builder = WebBuilder::new(1);
/// let site = builder.js_site(JsAttack::DynamicIframe, Tld::Com, ContentCategory::Business, false);
/// let web = builder.finish();
///
/// let vt = VirusTotal::new(&web);
/// let report = vt.scan_url(&site.url);
/// assert!(report.is_malicious());
/// assert!(report.positives() >= 2);
/// ```
pub struct VirusTotal<'w> {
    web: &'w SyntheticWeb,
    engines: Vec<EngineModel>,
    threshold: usize,
}

impl<'w> VirusTotal<'w> {
    /// Creates the service with the default engine battery and a
    /// 2-positives threshold (single-engine hits are treated as noise,
    /// mirroring common VT-consumer practice).
    pub fn new(web: &'w SyntheticWeb) -> Self {
        VirusTotal { web, engines: default_engines(), threshold: 2 }
    }

    /// Number of engines in the battery.
    pub fn engine_count(&self) -> usize {
        self.engines.len()
    }

    /// Scans a URL: the service fetches it with a scanner identity
    /// (subject to cloaking) and runs the battery over the features.
    pub fn scan_url(&self, url: &Url) -> VtReport {
        let browser = Browser::new(self.web).with_context(RequestContext::scanner("virustotal"));
        let load = browser.load(url);
        let features = Features::from_load(&load);
        self.aggregate(url.as_str(), &features)
    }

    /// Scans uploaded page content captured by a real browser — the
    /// cloaking-defeating path.
    pub fn scan_content(&self, url: &Url, content: &str) -> VtReport {
        let features = Features::from_content(url, content);
        // Key on the content too so cloaked/uncloaked variants of one
        // URL get independent engine decisions.
        let key = format!("{url}#{:x}", crate::hash::fnv1a(content.as_bytes()));
        self.aggregate(&key, &features)
    }

    /// Runs the battery over pre-extracted features.
    pub fn aggregate(&self, sample_key: &str, features: &Features) -> VtReport {
        let mut detections = Vec::new();
        for engine in &self.engines {
            if let Some(label) = engine.scan(sample_key, features) {
                detections.push((engine.name, label));
            }
        }
        VtReport { detections, total_engines: self.engines.len(), threshold: self.threshold }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slum_websim::build::{BenignOptions, MaliciousOptions, WebBuilder};
    use slum_websim::{ContentCategory, FalsePositiveKind, JsAttack, MaliceKind, Tld};

    #[test]
    fn benign_site_scans_clean() {
        let mut b = WebBuilder::new(70);
        let site = b.benign_site(BenignOptions::default());
        let web = b.finish();
        let vt = VirusTotal::new(&web);
        let report = vt.scan_url(&site.url);
        assert_eq!(report.positives(), 0);
        assert!(!report.is_malicious());
    }

    #[test]
    fn js_injection_site_flagged_with_scrinject_alias() {
        let mut b = WebBuilder::new(71);
        let spec = b.js_site(JsAttack::DynamicIframe, Tld::Com, ContentCategory::Business, false);
        let web = b.finish();
        let vt = VirusTotal::new(&web);
        let report = vt.scan_url(&spec.url);
        assert!(report.is_malicious(), "{report:?}");
        assert!(
            report.labels().iter().any(|l| l.contains("ScrInject") || l.contains("Iframe")),
            "{:?}",
            report.labels()
        );
    }

    #[test]
    fn flash_site_flagged_with_blacole_alias() {
        let mut b = WebBuilder::new(72);
        let spec = b.flash_site(Tld::Com, ContentCategory::Entertainment);
        let web = b.finish();
        let vt = VirusTotal::new(&web);
        let report = vt.scan_url(&spec.url);
        assert!(report.is_malicious());
        assert!(report.labels().iter().any(|l| l.contains("Blacole") || l.contains("Malscript")));
    }

    #[test]
    fn cloaked_site_evades_url_scan_but_not_content_scan() {
        let mut b = WebBuilder::new(73);
        let spec = b.malicious_site(MaliciousOptions {
            kind: Some(MaliceKind::Misc),
            cloaked: Some(true),
            ..Default::default()
        });
        let web = b.finish();
        let vt = VirusTotal::new(&web);

        let url_report = vt.scan_url(&spec.url);
        assert!(!url_report.is_malicious(), "cloak must defeat URL scanning");

        // A real browser captures the evil variant; uploading it wins.
        let browser = Browser::new(&web);
        let load = browser.load(&spec.url);
        let content = load.html.expect("page content");
        let content_report = vt.scan_content(&spec.url, &content);
        assert!(content_report.is_malicious(), "content upload must defeat cloaking");
    }

    #[test]
    fn ga_false_positive_reproduced() {
        let mut b = WebBuilder::new(74);
        let spec = b.false_positive_site(FalsePositiveKind::GoogleAnalytics);
        let web = b.finish();
        let vt = VirusTotal::new(&web);
        let report = vt.scan_url(&spec.url);
        // The paper's §V-E: scanning engines mislabel the GA bootstrap as
        // Faceliker. Our FP-prone engines reproduce that.
        assert!(report.labels().iter().any(|l| l.contains("Faceliker")), "{report:?}");
    }

    #[test]
    fn oauth_relay_false_positive_reproduced() {
        let mut b = WebBuilder::new(75);
        let spec = b.false_positive_site(FalsePositiveKind::GoogleOauthRelay);
        let web = b.finish();
        let vt = VirusTotal::new(&web);
        let report = vt.scan_url(&spec.url);
        // Structurally a hidden iframe: iframe-focused engines bite.
        assert!(report.positives() >= 1, "{report:?}");
    }

    #[test]
    fn threshold_controls_verdict() {
        let report = VtReport {
            detections: vec![("a", "X")],
            total_engines: 12,
            threshold: 2,
        };
        assert!(!report.is_malicious());
        let report1 = VtReport { threshold: 1, ..report };
        assert!(report1.is_malicious());
    }

    #[test]
    fn shortened_url_scan_follows_redirect() {
        let mut b = WebBuilder::new(76);
        let spec = b.shortened_site(Tld::Com, ContentCategory::Business);
        let web = b.finish();
        let vt = VirusTotal::new(&web);
        // The short link resolves (peek, no hit recorded) to a
        // blacklisted-style page; engines flag on structure only, so the
        // verdict here may be weak — but scanning must not error and the
        // service must see *something*.
        let report = vt.scan_url(&spec.url);
        assert_eq!(report.total_engines, vt.engine_count());
    }
}
