//! Case-study extractors (§V).
//!
//! The paper closes with a drill-down into five malware classes it found
//! on the exchanges: hidden-iframe injection (with a three-way
//! taxonomy), deceptive downloads, suspicious server-side redirection,
//! Flash `ExternalInterface` abuse, and the false positives the
//! scanners produced. Each extractor here walks the scanned corpus and
//! surfaces concrete exhibits of one class.

use slum_browser::Browser;
use slum_crawler::CrawlRecord;
use slum_html::attr::HiddenReason;
use slum_websim::{FalsePositiveKind, GroundTruth, SyntheticWeb, Url};

use crate::scanpipe::ScanOutcome;

/// The §V-A iframe-injection taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IframeInjectionKind {
    /// Category one: barely visible (1×1) iframe in static HTML.
    BarelyVisible,
    /// Category two: invisible via CSS/transparency, often exfiltrating
    /// data through query strings.
    Invisible,
    /// Category three: injected dynamically through JavaScript.
    JsInjected,
}

/// One iframe-injection exhibit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IframeExhibit {
    /// Page the iframe was found on.
    pub url: Url,
    /// Taxonomy bucket.
    pub kind: IframeInjectionKind,
    /// The iframe's `src`.
    pub iframe_src: String,
    /// Whether the src carries query-string exfiltration.
    pub exfiltrates: bool,
}

/// Extracts the §V-A taxonomy from malicious records with captured
/// content.
pub fn iframe_injections(pairs: &[(&CrawlRecord, &ScanOutcome)]) -> Vec<IframeExhibit> {
    let mut out = Vec::new();
    for (record, outcome) in pairs {
        if !outcome.malicious {
            continue;
        }
        let Some(content) = &record.content else { continue };

        // Static iframes → categories one and two.
        for iframe in &content.outline().iframes {
            let reasons = &iframe.hidden_reasons;
            if reasons.is_empty() {
                continue;
            }
            let src = iframe.src.clone().unwrap_or_default();
            let exfiltrates = src.contains('?') && src.contains('&');
            let kind = if reasons.contains(&HiddenReason::CssHidden)
                || reasons.contains(&HiddenReason::Transparency)
            {
                IframeInjectionKind::Invisible
            } else {
                IframeInjectionKind::BarelyVisible
            };
            out.push(IframeExhibit { url: record.url.clone(), kind, iframe_src: src, exfiltrates });
        }

        // Dynamic injection → category three (inline scripts writing
        // iframes, detected by the scan findings).
        if outcome
            .findings()
            .contains(&slum_detect::quttera::QutteraFinding::JsInjectedIframe)
        {
            out.push(IframeExhibit {
                url: record.url.clone(),
                kind: IframeInjectionKind::JsInjected,
                iframe_src: String::new(),
                exfiltrates: false,
            });
        }
    }
    out
}

/// One deceptive-download exhibit (§V-B).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DownloadExhibit {
    /// Page pushing the download.
    pub url: Url,
    /// Offered executable names.
    pub filenames: Vec<String>,
    /// Whether the page uses a `data:` URI fake prompt.
    pub uses_data_uri_prompt: bool,
}

/// Extracts deceptive-download exhibits.
pub fn deceptive_downloads(pairs: &[(&CrawlRecord, &ScanOutcome)]) -> Vec<DownloadExhibit> {
    let mut out = Vec::new();
    for (record, outcome) in pairs {
        if !outcome.malicious {
            continue;
        }
        let has_markup = record.content.as_ref().is_some_and(|c| {
            let outline = c.outline();
            outline.data_uri_anchor || outline.download_manager
        });
        if record.download_filenames.is_empty() && !has_markup {
            continue;
        }
        out.push(DownloadExhibit {
            url: record.url.clone(),
            filenames: record.download_filenames.clone(),
            uses_data_uri_prompt: has_markup,
        });
    }
    out
}

/// A rotating-redirector exhibit (§V-C): a script URL that resolves to
/// different destinations across fetches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RotatorExhibit {
    /// The page embedding the rotator script.
    pub page: Url,
    /// The rotator script URL.
    pub script: Url,
    /// Destinations observed across probes.
    pub destinations: Vec<Url>,
}

/// Probes suspected redirector scripts: re-fetches each external script
/// URL on malicious redirecting pages several times and reports those
/// that rotate.
pub fn rotating_redirectors(
    web: &SyntheticWeb,
    pairs: &[(&CrawlRecord, &ScanOutcome)],
    probes: usize,
) -> Vec<RotatorExhibit> {
    let mut out: Vec<RotatorExhibit> = Vec::new();
    for (record, outcome) in pairs {
        if !outcome.malicious {
            continue;
        }
        let Some(content) = &record.content else { continue };
        for src in &content.outline().external_scripts {
            let Ok(script_url) = slum_browser::session::resolve_href(&record.url, src) else {
                continue;
            };
            if out.iter().any(|e| e.script == script_url) {
                continue;
            }
            let mut destinations = Vec::new();
            for probe in 0..probes.max(2) {
                // Spread the probes over virtual time: the rotor keys
                // its cycle to the request clock.
                let ctx = slum_websim::RequestContext::browser()
                    .with_time(record.at + probe as u64);
                let outcome = web.fetch(&script_url, &ctx);
                if let Some(target) = outcome.redirect_target() {
                    destinations.push(target.clone());
                }
            }
            let rotates = destinations.len() >= 2
                && destinations.windows(2).any(|w| w[0] != w[1]);
            if rotates {
                out.push(RotatorExhibit {
                    page: record.url.clone(),
                    script: script_url,
                    destinations,
                });
            }
        }
    }
    out
}

/// A Flash click-jack exhibit (§V-D).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlashExhibit {
    /// Page embedding the movie.
    pub url: Url,
    /// Movie name (decompiled class name).
    pub movie_name: String,
    /// `ExternalInterface` targets the click handler fires.
    pub external_calls: Vec<String>,
    /// Pop-ups observed when the click was simulated.
    pub popups: u32,
}

/// Extracts Flash click-jack exhibits by re-loading flagged pages with
/// click simulation enabled.
pub fn flash_clickjacks(
    web: &SyntheticWeb,
    pairs: &[(&CrawlRecord, &ScanOutcome)],
) -> Vec<FlashExhibit> {
    let mut out: Vec<FlashExhibit> = Vec::new();
    let browser = Browser::new(web);
    for (record, outcome) in pairs {
        if !outcome.malicious
            || !outcome.findings().contains(&slum_detect::quttera::QutteraFinding::MaliciousFlash)
        {
            continue;
        }
        if out.iter().any(|e| e.url == record.url) {
            continue;
        }
        let load = browser.load(&record.url);
        for movie in &load.swf_movies {
            if movie.is_clickjack() {
                out.push(FlashExhibit {
                    url: record.url.clone(),
                    movie_name: movie.name.clone(),
                    external_calls: movie.on_click_calls.clone(),
                    popups: load.popups.len() as u32,
                });
            }
        }
    }
    out
}

/// A false-positive exhibit (§V-E): flagged by scanners, actually benign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FalsePositiveExhibit {
    /// The mislabelled page.
    pub url: Url,
    /// What it actually is.
    pub kind: FalsePositiveKind,
    /// The labels the scanners pinned on it.
    pub labels: Vec<String>,
}

/// Finds false positives: records the pipeline marked malicious whose
/// ground truth is benign-but-suspicious. (Requires oracle access — the
/// paper's authors did this drill-down by hand.)
pub fn false_positives(
    web: &SyntheticWeb,
    pairs: &[(&CrawlRecord, &ScanOutcome)],
) -> Vec<FalsePositiveExhibit> {
    let mut out: Vec<FalsePositiveExhibit> = Vec::new();
    for (record, outcome) in pairs {
        if !outcome.malicious {
            continue;
        }
        let Some(page) = web.oracle_page(&record.final_url) else { continue };
        if let GroundTruth::BenignSuspicious(kind) = page.truth {
            if out.iter().any(|e| e.url == record.url) {
                continue;
            }
            out.push(FalsePositiveExhibit {
                url: record.url.clone(),
                kind,
                labels: outcome.labels().iter().map(|s| s.to_string()).collect(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanpipe::ScanPipeline;
    use slum_crawler::CrawlRecord;
    use slum_websim::build::{MaliciousOptions, WebBuilder};
    use slum_websim::{ContentCategory, JsAttack, MaliceKind, Tld};

    fn crawl_one(web: &SyntheticWeb, url: &Url) -> CrawlRecord {
        let load = Browser::new(web).load(url);
        CrawlRecord::from_load("case", 0, 0, &load)
    }

    #[test]
    fn iframe_taxonomy_covers_all_three_categories() {
        let mut b = WebBuilder::new(230);
        let pixel = b.js_site(JsAttack::HiddenIframe, Tld::Com, ContentCategory::Business, false);
        let invis = b.js_site(
            JsAttack::InvisibleIframeExfil,
            Tld::Com,
            ContentCategory::Business,
            false,
        );
        let dynamic =
            b.js_site(JsAttack::DynamicIframe, Tld::Com, ContentCategory::Business, false);
        let web = b.finish();
        let records: Vec<_> =
            [&pixel.url, &invis.url, &dynamic.url].iter().map(|u| crawl_one(&web, u)).collect();
        let pipe = ScanPipeline::new(&web);
        let outcomes = pipe.scan_all(&records);
        let pairs: Vec<_> = records.iter().zip(&outcomes).collect();
        let exhibits = iframe_injections(&pairs);

        let kinds: std::collections::BTreeSet<_> = exhibits.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&IframeInjectionKind::BarelyVisible), "{exhibits:?}");
        assert!(kinds.contains(&IframeInjectionKind::Invisible));
        assert!(kinds.contains(&IframeInjectionKind::JsInjected));
        // The invisible exhibit exfiltrates via query string.
        assert!(exhibits
            .iter()
            .any(|e| e.kind == IframeInjectionKind::Invisible && e.exfiltrates));
    }

    #[test]
    fn deceptive_download_exhibit_found() {
        let mut b = WebBuilder::new(231);
        let spec = b.js_site(
            JsAttack::DeceptiveDownload,
            Tld::Com,
            ContentCategory::Entertainment,
            false,
        );
        let web = b.finish();
        let records = vec![crawl_one(&web, &spec.url)];
        let pipe = ScanPipeline::new(&web);
        let outcomes = pipe.scan_all(&records);
        let pairs: Vec<_> = records.iter().zip(&outcomes).collect();
        let exhibits = deceptive_downloads(&pairs);
        assert_eq!(exhibits.len(), 1);
        assert!(exhibits[0].uses_data_uri_prompt);
    }

    #[test]
    fn rotating_redirector_probed_and_confirmed() {
        let mut b = WebBuilder::new(232);
        let spec = b.rotating_redirector_site(4, ContentCategory::Advertisement);
        let web = b.finish();
        let records = vec![crawl_one(&web, &spec.url)];
        let pipe = ScanPipeline::new(&web);
        let outcomes = pipe.scan_all(&records);
        let pairs: Vec<_> = records.iter().zip(&outcomes).collect();
        let exhibits = rotating_redirectors(&web, &pairs, 4);
        assert_eq!(exhibits.len(), 1, "{exhibits:?}");
        assert!(exhibits[0].destinations.len() >= 2);
    }

    #[test]
    fn flash_clickjack_exhibit_extracted() {
        let mut b = WebBuilder::new(233);
        let spec = b.flash_site(Tld::Com, ContentCategory::Entertainment);
        let web = b.finish();
        let records = vec![crawl_one(&web, &spec.url)];
        let pipe = ScanPipeline::new(&web);
        let outcomes = pipe.scan_all(&records);
        let pairs: Vec<_> = records.iter().zip(&outcomes).collect();
        let exhibits = flash_clickjacks(&web, &pairs);
        assert_eq!(exhibits.len(), 1);
        assert_eq!(exhibits[0].movie_name, "AdFlash46");
        assert!(exhibits[0].external_calls.contains(&"AdFlash.onClick".to_string()));
        assert!(exhibits[0].popups > 0);
    }

    #[test]
    fn false_positives_surfaced_with_labels() {
        let mut b = WebBuilder::new(234);
        let ga = b.false_positive_site(FalsePositiveKind::GoogleAnalytics);
        let web = b.finish();
        let records = vec![crawl_one(&web, &ga.url)];
        let pipe = ScanPipeline::new(&web);
        let outcomes = pipe.scan_all(&records);
        if outcomes[0].malicious {
            let pairs: Vec<_> = records.iter().zip(&outcomes).collect();
            let fps = false_positives(&web, &pairs);
            assert_eq!(fps.len(), 1);
            assert_eq!(fps[0].kind, FalsePositiveKind::GoogleAnalytics);
            assert!(fps[0].labels.iter().any(|l| l.contains("Faceliker")));
        }
    }

    #[test]
    fn genuinely_malicious_pages_are_not_false_positives() {
        let mut b = WebBuilder::new(235);
        let spec = b.malicious_site(MaliciousOptions {
            kind: Some(MaliceKind::Misc),
            cloaked: Some(false),
            ..Default::default()
        });
        let web = b.finish();
        let records = vec![crawl_one(&web, &spec.url)];
        let pipe = ScanPipeline::new(&web);
        let outcomes = pipe.scan_all(&records);
        assert!(outcomes[0].malicious);
        let pairs: Vec<_> = records.iter().zip(&outcomes).collect();
        assert!(false_positives(&web, &pairs).is_empty());
    }
}
