//! The page outline: what a browser needs from a page's DOM to load it
//! — where a meta refresh points, which scripts to run and which plugin
//! movies to fetch — and the DOM facts the static detection pass reads.
//!
//! An [`Outline`] is a small, owned summary that outlives the
//! [`Document`] it came from, so a page body parsed once can be loaded
//! and inspected any number of times without parsing, cloning or
//! walking its DOM again. One walk of the tree gathers all of it. The
//! facts are what the markup says, never a verdict about it.

use std::ops::ControlFlow;

use crate::attr::HiddenReason;
use crate::dom::{Document, Element, NodeId};

/// The load-relevant parts and the inspected DOM facts of one page, in
/// document order.
///
/// ```
/// let doc = slum_html::Document::parse(
///     r#"<script src="/a.js"></script><script>go();</script><embed src="m.swf">"#,
/// );
/// let outline = doc.outline();
/// assert_eq!(outline.external_scripts, ["/a.js"]);
/// assert_eq!(outline.inline_scripts, ["go();"]);
/// assert_eq!(outline.plugin_srcs, ["m.swf"]);
/// assert_eq!(outline.meta_refresh, None);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Outline {
    /// The meta-refresh target ([`Document::meta_refresh_target`]).
    pub meta_refresh: Option<String>,
    /// `src` of every external script
    /// ([`Document::external_script_srcs`]).
    pub external_scripts: Vec<String>,
    /// Source text of every inline script ([`Document::inline_scripts`]).
    pub inline_scripts: Vec<String>,
    /// The movie URL (`data`, else `src`) of every `object` element,
    /// then of every `embed` element; elements carrying neither are
    /// skipped.
    pub plugin_srcs: Vec<String>,
    /// Every `iframe` element ([`Document::iframes`]).
    pub iframes: Vec<IframeFacts>,
    /// Some anchor's `href` is a `data:` URI
    /// ([`Document::data_uri_anchors`]).
    pub data_uri_anchor: bool,
    /// Some element carries a `data-dm*` attribute
    /// ([`Document::download_manager_elements`]).
    pub download_manager: bool,
    /// Every `object` element, then every `embed` element, whether or
    /// not it names a movie.
    pub plugins: Vec<PluginFacts>,
}

/// What one `iframe` element says about itself.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IframeFacts {
    /// Its `src` attribute.
    pub src: Option<String>,
    /// Why it is invisible, counting its ancestors
    /// ([`Document::effective_hidden_reasons`]).
    pub hidden_reasons: Vec<HiddenReason>,
}

/// What one `object` or `embed` element says about how its movie is
/// embedded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PluginFacts {
    /// Its `width` attribute.
    pub width: Option<String>,
    /// The `value` (empty when absent) of every element in its subtree,
    /// itself included, whose `name` is `wmode` (any case), in document
    /// order: the `<param>` children a movie reads its mode from.
    pub wmode: Vec<String>,
    /// The same for params named `allowscriptaccess`.
    pub allowscriptaccess: Vec<String>,
}

impl Document {
    /// The document's [`Outline`], gathered in one walk of the tree.
    pub fn outline(&self) -> Outline {
        let mut outline = Outline::default();
        let mut refresh = ControlFlow::Continue(());
        let mut embeds = Vec::new();
        let mut embed_srcs = Vec::new();
        for id in self.descendants(NodeId::ROOT) {
            let Some(el) = self.element(id) else { continue };
            let tag = |name: &str| el.name.eq_ignore_ascii_case(name);
            if tag("script") {
                match el.attr("src") {
                    Some(src) => outline.external_scripts.push(src.to_string()),
                    None => outline.inline_scripts.push(self.text_content(id)),
                }
            } else if tag("iframe") {
                outline.iframes.push(IframeFacts {
                    src: el.attr("src").map(String::from),
                    hidden_reasons: self.effective_hidden_reasons(id),
                });
            } else if tag("object") || tag("embed") {
                let (facts, srcs) = if tag("object") {
                    (&mut outline.plugins, &mut outline.plugin_srcs)
                } else {
                    (&mut embeds, &mut embed_srcs)
                };
                facts.push(self.plugin_facts(id, el));
                srcs.extend(el.attr("data").or_else(|| el.attr("src")).map(String::from));
            } else if tag("meta") && refresh.is_continue() {
                refresh = meta_refresh_step(el);
            } else if tag("a") && is_data_uri_anchor(el) {
                outline.data_uri_anchor = true;
            }
            if el.attrs.iter().any(|(k, _)| k.starts_with("data-dm")) {
                outline.download_manager = true;
            }
        }
        outline.plugins.append(&mut embeds);
        outline.plugin_srcs.append(&mut embed_srcs);
        if let ControlFlow::Break(target) = refresh {
            outline.meta_refresh = target;
        }
        outline
    }

    /// The [`PluginFacts`] of the `object` or `embed` element `id`.
    fn plugin_facts(&self, id: NodeId, el: &Element) -> PluginFacts {
        let mut facts =
            PluginFacts { width: el.attr("width").map(String::from), ..PluginFacts::default() };
        for node in self.descendants(id) {
            let Some(param) = self.element(node) else { continue };
            let name = param.attr("name").unwrap_or_default();
            let value = || param.attr("value").unwrap_or_default().to_string();
            if name.eq_ignore_ascii_case("wmode") {
                facts.wmode.push(value());
            }
            if name.eq_ignore_ascii_case("allowscriptaccess") {
                facts.allowscriptaccess.push(value());
            }
        }
        facts
    }
}

/// True for an `a` element whose `href` is a `data:` URI.
pub(crate) fn is_data_uri_anchor(el: &Element) -> bool {
    el.attr("href").is_some_and(|href| href.trim_start().starts_with("data:"))
}

/// One `meta` element's part in [`Document::meta_refresh_target`],
/// which reads the `meta` elements in document order: `Break` ends the
/// search with its result, `Continue` moves on to the next element. A
/// `meta` without `http-equiv`, or a refresh without `content`, ends
/// the search with no target.
pub(crate) fn meta_refresh_step(el: &Element) -> ControlFlow<Option<String>> {
    let Some(equiv) = el.attr("http-equiv") else { return ControlFlow::Break(None) };
    if !equiv.eq_ignore_ascii_case("refresh") {
        return ControlFlow::Continue(());
    }
    let Some(content) = el.attr("content") else { return ControlFlow::Break(None) };
    for part in content.split(';') {
        let part = part.trim();
        if let Some(url) = part
            .strip_prefix("url=")
            .or_else(|| part.strip_prefix("URL="))
            .or_else(|| part.strip_prefix("Url="))
        {
            return ControlFlow::Break(Some(url.trim().trim_matches(['\'', '"']).to_string()));
        }
    }
    ControlFlow::Continue(())
}

#[cfg(test)]
mod tests {
    use crate::attr::HiddenReason;
    use crate::Document;

    #[test]
    fn objects_precede_embeds_and_data_wins_over_src() {
        let doc = Document::parse(
            r#"<embed src="e.swf"><object data="o.swf" src="ignored.swf"></object>
               <object><param name="movie" value="x"></object>"#,
        );
        assert_eq!(doc.outline().plugin_srcs, ["o.swf", "e.swf"]);
        assert_eq!(doc.outline().plugins.len(), 3, "a plugin without a movie keeps its facts");
    }

    #[test]
    fn meta_refresh_target_is_outlined() {
        let doc =
            Document::parse(r#"<meta http-equiv="refresh" content="0; url=http://n.example/">"#);
        assert_eq!(doc.outline().meta_refresh.as_deref(), Some("http://n.example/"));
    }

    #[test]
    fn a_meta_without_http_equiv_ends_the_refresh_search() {
        let doc = Document::parse(
            r#"<meta charset="utf-8"><meta http-equiv="refresh" content="0; url=http://n/">"#,
        );
        assert_eq!(doc.meta_refresh_target(), None);
        assert_eq!(doc.outline().meta_refresh, None);
    }

    #[test]
    fn inspection_facts_are_outlined() {
        let doc = Document::parse(
            r#"<div style="display:none"><iframe src="http://x/?a=1&b=2" width="1"></iframe></div>
               <iframe></iframe><a href=" data:text/html,x">dl</a><span data-dm-title="F">x</span>
               <object width="100%"><param name="WMode" value="transparent">
               <param name="allowScriptAccess"></object>"#,
        );
        let outline = doc.outline();
        assert_eq!(outline.iframes.len(), 2);
        assert_eq!(outline.iframes[0].src.as_deref(), Some("http://x/?a=1&b=2"));
        assert_eq!(
            outline.iframes[0].hidden_reasons,
            [HiddenReason::PixelDimensions, HiddenReason::CssHidden]
        );
        assert_eq!(outline.iframes[1].src, None);
        assert!(outline.data_uri_anchor && outline.download_manager);
        assert_eq!(outline.plugins[0].width.as_deref(), Some("100%"));
        assert_eq!(outline.plugins[0].wmode, ["transparent"]);
        assert_eq!(outline.plugins[0].allowscriptaccess, [""]);
    }
}
