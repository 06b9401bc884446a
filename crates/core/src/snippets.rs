//! Exhibit snippet extraction.
//!
//! The paper's §V case studies print the actual offending markup and
//! (de)obfuscated code of each malware class. This module pulls the
//! equivalent snippets out of the scanned corpus: the hidden-iframe
//! element, the packed injector with its statically unpacked form, the
//! deceptive-download prompt, and the decompiled-SWF view.
//!
//! Each extractor reads the body's outline; the two that print an
//! element's markup parse the body only once its outline shows the
//! exhibit is there.

use slum_html::{Document, NodeId};
use slum_js::flash::SwfMovie;
use slum_js::obfuscate::unpack_all_static;
use slum_websim::{Body, FetchOutcome, RequestContext, SyntheticWeb, Url};

/// A code/markup exhibit with provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snippet {
    /// Where the snippet came from.
    pub url: Url,
    /// What it demonstrates (listing caption).
    pub caption: String,
    /// The extracted markup or source.
    pub listing: String,
}

/// Serializes one element (with attributes) back to a source-like tag
/// string for display.
fn element_source(doc: &Document, id: NodeId) -> String {
    let Some(el) = doc.element(id) else { return String::new() };
    let mut out = format!("<{}", el.name);
    for (k, v) in &el.attrs {
        out.push_str(&format!(" {k}=\"{v}\""));
    }
    out.push('>');
    out
}

/// Extracts the hidden-iframe exhibit from page content (the paper's
/// Code 1/2 shape), if present.
pub fn hidden_iframe_snippet(url: &Url, html: &Body) -> Option<Snippet> {
    if html.outline().iframes.iter().all(|iframe| iframe.hidden_reasons.is_empty()) {
        return None;
    }
    let doc = Document::parse(html);
    for id in doc.iframes() {
        if doc.is_hidden(id) {
            return Some(Snippet {
                url: url.clone(),
                caption: "A barely visible / invisible iframe element".into(),
                listing: element_source(&doc, id),
            });
        }
    }
    None
}

/// Extracts a packed inline script together with its statically unpacked
/// payload (the paper's "obfuscated multiple times" drill-down).
pub fn unpacked_script_snippet(url: &Url, html: &Body) -> Option<Snippet> {
    for script in &html.outline().inline_scripts {
        let (inner, layers) = unpack_all_static(script);
        if layers > 0 {
            let packed_preview: String = script.chars().take(96).collect();
            return Some(Snippet {
                url: url.clone(),
                caption: format!("Packed script ({layers} layer(s)) and its unpacked payload"),
                listing: format!("// packed ({layers} layers):\n{packed_preview}...\n\n// unpacked:\n{inner}"),
            });
        }
    }
    None
}

/// Extracts the deceptive-download prompt markup (Code 4 shape).
pub fn deceptive_download_snippet(url: &Url, html: &Body) -> Option<Snippet> {
    let outline = html.outline();
    if !outline.data_uri_anchor && !outline.download_manager {
        return None;
    }
    let doc = Document::parse(html);
    let anchor = doc
        .data_uri_anchors()
        .into_iter()
        .chain(doc.download_manager_elements())
        .next()?;
    Some(Snippet {
        url: url.clone(),
        caption: "Fake install prompt pushing a deceptively named executable".into(),
        listing: element_source(&doc, anchor),
    })
}

/// Fetches and "decompiles" the SWF referenced by a Flash page (the
/// Code 6 view: the movie's behavioural surface).
pub fn decompiled_swf_snippet(web: &SyntheticWeb, url: &Url, html: &Body) -> Option<Snippet> {
    for data in &html.outline().plugin_srcs {
        let Ok(swf_url) = slum_browser::session::resolve_href(url, data) else { continue };
        if let FetchOutcome::Swf { descriptor } =
            web.fetch(&swf_url, &RequestContext::scanner("decompiler"))
        {
            let movie = SwfMovie::parse(&descriptor).ok()?;
            let mut listing = format!(
                "public class {} extends MovieClip {{\n  // stage: {}{}\n",
                movie.name,
                if movie.full_page { "EXACT_FIT full-page" } else { "default" },
                if movie.transparent { ", transparent" } else { "" },
            );
            if let Some(domain) = &movie.allow_domain {
                listing.push_str(&format!("  Security.allowDomain(\"{domain}\");\n"));
            }
            if !movie.on_click_calls.is_empty() {
                listing.push_str("  // MOUSE_UP handler:\n");
                for call in &movie.on_click_calls {
                    listing.push_str(&format!("  ExternalInterface.call(\"{call}\");\n"));
                }
            }
            listing.push('}');
            return Some(Snippet {
                url: swf_url,
                caption: "Decompiled view of the invisible click-jacking movie".into(),
                listing,
            });
        }
    }
    None
}

/// Pulls one representative snippet of every class present in a scanned
/// corpus.
pub fn collect(
    web: &SyntheticWeb,
    pairs: &[(&slum_crawler::CrawlRecord, &crate::scanpipe::ScanOutcome)],
) -> Vec<Snippet> {
    let mut out: Vec<Snippet> = Vec::new();
    let mut have = [false; 4];
    for (record, outcome) in pairs {
        if !outcome.malicious {
            continue;
        }
        let Some(content) = &record.content else { continue };
        if !have[0] {
            if let Some(s) = hidden_iframe_snippet(&record.url, content) {
                out.push(s);
                have[0] = true;
            }
        }
        if !have[1] {
            if let Some(s) = unpacked_script_snippet(&record.url, content) {
                out.push(s);
                have[1] = true;
            }
        }
        if !have[2] {
            if let Some(s) = deceptive_download_snippet(&record.url, content) {
                out.push(s);
                have[2] = true;
            }
        }
        if !have[3] {
            if let Some(s) = decompiled_swf_snippet(web, &record.url, content) {
                out.push(s);
                have[3] = true;
            }
        }
        if have.iter().all(|h| *h) {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use slum_websim::build::WebBuilder;
    use slum_websim::{payload, ContentCategory, Tld};

    fn u(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn hidden_iframe_snippet_extracted() {
        let html = payload::pixel_iframe_page("b.example.com", &u("http://trk.example/t"));
        let snippet = hidden_iframe_snippet(&u("http://b.example.com/"), &html.into()).unwrap();
        assert!(snippet.listing.starts_with("<iframe"));
        assert!(snippet.listing.contains("width=\"1\""));
        assert!(snippet.listing.contains("http://trk.example/t"));
    }

    #[test]
    fn packed_script_snippet_shows_both_forms() {
        let html =
            payload::js_injected_iframe_page("s.example.com", &u("http://evil.example/x"), 2);
        let snippet = unpacked_script_snippet(&u("http://s.example.com/"), &html.into()).unwrap();
        assert!(snippet.caption.contains("2 layer"));
        assert!(snippet.listing.contains("// packed"));
        assert!(snippet.listing.contains("document.write"), "unpacked payload visible");
    }

    #[test]
    fn deceptive_download_snippet_extracted() {
        let html = payload::deceptive_download_page("anime.example.com", "dl.example.net");
        let html = html.into();
        let snippet = deceptive_download_snippet(&u("http://anime.example.com/"), &html).unwrap();
        assert!(snippet.listing.contains("data-dm") || snippet.listing.contains("data:"));
    }

    #[test]
    fn swf_decompile_snippet_extracted() {
        let mut b = WebBuilder::new(600);
        let spec = b.flash_site(Tld::Com, ContentCategory::Entertainment);
        let web = b.finish();
        let page = web.oracle_page(&spec.url).unwrap();
        let snippet = decompiled_swf_snippet(&web, &spec.url, &page.html).unwrap();
        assert!(snippet.listing.contains("class AdFlash46"));
        assert!(snippet.listing.contains("ExternalInterface.call(\"AdFlash.onClick\")"));
        assert!(snippet.listing.contains("allowDomain"));
    }

    #[test]
    fn benign_pages_yield_no_snippets() {
        let html = payload::benign_page("ok.example.com", ContentCategory::Business).into();
        let url = u("http://ok.example.com/");
        assert!(hidden_iframe_snippet(&url, &html).is_none());
        assert!(unpacked_script_snippet(&url, &html).is_none());
        assert!(deceptive_download_snippet(&url, &html).is_none());
    }

    #[test]
    fn collect_finds_distinct_classes() {
        use crate::scanpipe::ScanPipeline;
        use slum_browser::Browser;
        use slum_websim::JsAttack;

        let mut b = WebBuilder::new(601);
        let iframe = b.js_site(JsAttack::HiddenIframe, Tld::Com, ContentCategory::Business, false);
        let dl = b.js_site(
            JsAttack::DeceptiveDownload,
            Tld::Com,
            ContentCategory::Entertainment,
            false,
        );
        let flash = b.flash_site(Tld::Com, ContentCategory::Entertainment);
        let web = b.finish();
        let records: Vec<_> = [&iframe.url, &dl.url, &flash.url]
            .iter()
            .map(|u| {
                let load = Browser::new(&web).load(u);
                slum_crawler::CrawlRecord::from_load("snip", 0, 0, &load)
            })
            .collect();
        let pipe = ScanPipeline::new(&web);
        let outcomes = pipe.scan_all(&records);
        let pairs: Vec<_> = records.iter().zip(&outcomes).collect();
        let snippets = collect(&web, &pairs);
        assert!(snippets.len() >= 3, "{snippets:#?}");
    }
}
