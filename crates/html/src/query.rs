//! Query layer: the structural questions the study asks of pages.

use std::ops::ControlFlow;

use crate::attr::{hidden_reasons, HiddenReason};
use crate::dom::{Document, NodeId, NodeKind};
use crate::outline::{is_data_uri_anchor, meta_refresh_step};

impl Document {
    /// All elements with the given (case-insensitive) tag name, in
    /// document order.
    ///
    /// ```
    /// let doc = slum_html::Document::parse("<iframe></iframe><IFRAME></IFRAME>");
    /// assert_eq!(doc.elements_by_tag("iframe").len(), 2);
    /// ```
    pub fn elements_by_tag(&self, tag: &str) -> Vec<NodeId> {
        self.descendants(NodeId::ROOT)
            .into_iter()
            .filter(|&id| {
                self.element(id).is_some_and(|el| el.name.eq_ignore_ascii_case(tag))
            })
            .collect()
    }

    /// Elements matching an arbitrary predicate over `(tag, attrs)`.
    pub fn elements_where<F>(&self, mut pred: F) -> Vec<NodeId>
    where
        F: FnMut(&crate::dom::Element) -> bool,
    {
        self.descendants(NodeId::ROOT)
            .into_iter()
            .filter(|&id| self.element(id).is_some_and(&mut pred))
            .collect()
    }

    /// All `iframe` elements.
    pub fn iframes(&self) -> Vec<NodeId> {
        self.elements_by_tag("iframe")
    }

    /// All `script` elements.
    pub fn scripts(&self) -> Vec<NodeId> {
        self.elements_by_tag("script")
    }

    /// Inline source text of every `script` element that has no `src`
    /// attribute, in document order.
    pub fn inline_scripts(&self) -> Vec<String> {
        self.scripts()
            .into_iter()
            .filter(|&id| self.element(id).is_some_and(|el| el.attr("src").is_none()))
            .map(|id| self.text_content(id))
            .collect()
    }

    /// `src` URLs of every external `script`.
    pub fn external_script_srcs(&self) -> Vec<String> {
        self.scripts()
            .into_iter()
            .filter_map(|id| self.element(id).and_then(|el| el.attr("src")).map(String::from))
            .collect()
    }

    /// Reasons an element (or any of its ancestors) is hidden. An iframe
    /// inside a `display:none` wrapper is just as invisible as one that
    /// hides itself — the paper's second iframe category hides "the HTML
    /// component holding it".
    pub fn effective_hidden_reasons(&self, id: NodeId) -> Vec<HiddenReason> {
        let mut reasons = Vec::new();
        let mut chain = vec![id];
        chain.extend(self.ancestors(id));
        for node in chain {
            if let Some(el) = self.element(node) {
                for r in hidden_reasons(&el.attrs) {
                    if !reasons.contains(&r) {
                        reasons.push(r);
                    }
                }
            }
        }
        reasons
    }

    /// True when the iframe is a "barely visible" 1×1-style frame
    /// (paper §V-A category one).
    pub fn is_pixel_iframe(&self, id: NodeId) -> bool {
        self.effective_hidden_reasons(id).contains(&HiddenReason::PixelDimensions)
    }

    /// True when the element is hidden by any mechanism.
    pub fn is_hidden(&self, id: NodeId) -> bool {
        !self.effective_hidden_reasons(id).is_empty()
    }

    /// `href`/`src` attribute values of all elements, paired with the tag
    /// name — the link surface the crawler records.
    pub fn link_urls(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for id in self.descendants(NodeId::ROOT) {
            if let Some(el) = self.element(id) {
                for attr in ["href", "src"] {
                    if let Some(v) = el.attr(attr) {
                        out.push((el.name.clone(), v.to_string()));
                    }
                }
            }
        }
        out
    }

    /// `meta http-equiv="refresh"` redirect target, if any.
    ///
    /// Parses the `content="5; url=http://..."` form; a bare delay with no
    /// URL yields `None`.
    pub fn meta_refresh_target(&self) -> Option<String> {
        for id in self.elements_by_tag("meta") {
            if let ControlFlow::Break(target) = meta_refresh_step(self.element(id)?) {
                return target;
            }
        }
        None
    }

    /// Anchors whose `href` is a `data:` URI — the deceptive-download
    /// vector from the paper's §V-B.
    pub fn data_uri_anchors(&self) -> Vec<NodeId> {
        self.elements_by_tag("a")
            .into_iter()
            .filter(|&id| self.element(id).is_some_and(is_data_uri_anchor))
            .collect()
    }

    /// Elements carrying any attribute whose name starts with `data-dm-`
    /// (the download-manager markup from the deceptive-download case
    /// study).
    pub fn download_manager_elements(&self) -> Vec<NodeId> {
        self.elements_where(|el| el.attrs.iter().any(|(k, _)| k.starts_with("data-dm")))
    }

    /// All comment bodies in the document.
    pub fn comments(&self) -> Vec<String> {
        self.descendants(NodeId::ROOT)
            .into_iter()
            .filter_map(|id| match &self.node(id).kind {
                NodeKind::Comment(c) => Some(c.clone()),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::Document;

    #[test]
    fn hidden_iframe_via_wrapper_div() {
        let doc = Document::parse(
            r#"<div style="display:none"><iframe src="http://x/"></iframe></div>"#,
        );
        let iframe = doc.iframes()[0];
        assert!(doc.is_hidden(iframe));
        assert!(!doc.is_pixel_iframe(iframe));
    }

    #[test]
    fn pixel_iframe_from_paper_listing() {
        // Mirrors the paper's Code 1 example: width/height both 1.
        let doc = Document::parse(
            r#"<iframe align="right" height="1" name="cwindow" scrolling="NO"
                src="http://tracker.example/" width="1"></iframe>"#,
        );
        assert!(doc.is_pixel_iframe(doc.iframes()[0]));
    }

    #[test]
    fn inline_and_external_scripts_separate() {
        let doc = Document::parse(
            r#"<script src="http://cdn.example/a.js"></script><script>var x=1;</script>"#,
        );
        assert_eq!(doc.inline_scripts(), vec!["var x=1;".to_string()]);
        assert_eq!(doc.external_script_srcs(), vec!["http://cdn.example/a.js".to_string()]);
    }

    #[test]
    fn meta_refresh_parses_url() {
        let doc = Document::parse(
            r#"<meta http-equiv="refresh" content="0; url=http://next.example/p">"#,
        );
        assert_eq!(doc.meta_refresh_target().as_deref(), Some("http://next.example/p"));
    }

    #[test]
    fn meta_refresh_without_url_is_none() {
        let doc = Document::parse(r#"<meta http-equiv="refresh" content="30">"#);
        assert_eq!(doc.meta_refresh_target(), None);
    }

    #[test]
    fn data_uri_anchor_found() {
        let doc = Document::parse(r#"<a href="data:text/html,%3Chtml%3E">dl</a>"#);
        assert_eq!(doc.data_uri_anchors().len(), 1);
    }

    #[test]
    fn download_manager_markup_found() {
        let doc = Document::parse(r#"<a data-dm-title="Flash Player" data-dm="1">install</a>"#);
        assert_eq!(doc.download_manager_elements().len(), 1);
    }

    #[test]
    fn link_urls_collects_href_and_src() {
        let doc = Document::parse(r#"<a href="http://a/">x</a><img src="http://b/i.png">"#);
        let urls = doc.link_urls();
        assert_eq!(urls.len(), 2);
        assert_eq!(urls[0], ("a".to_string(), "http://a/".to_string()));
        assert_eq!(urls[1], ("img".to_string(), "http://b/i.png".to_string()));
    }

    #[test]
    fn comments_collected() {
        let doc = Document::parse("<!--a--><div><!--b--></div>");
        assert_eq!(doc.comments(), vec!["a".to_string(), "b".to_string()]);
    }
}
