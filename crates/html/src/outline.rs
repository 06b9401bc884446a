//! The page outline: the few things a browser needs from a page's DOM
//! to load it — where a meta refresh points, which scripts to run and
//! which plugin movies to fetch.
//!
//! An [`Outline`] is a small, owned summary that outlives the
//! [`Document`] it came from, so a page body parsed once can be loaded
//! any number of times without parsing, cloning or walking its DOM
//! again.

use crate::dom::Document;

/// The load-relevant parts of one page, in document order.
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
}

impl Document {
    /// The document's [`Outline`].
    pub fn outline(&self) -> Outline {
        let plugin_srcs = self
            .elements_by_tag("object")
            .into_iter()
            .chain(self.elements_by_tag("embed"))
            .filter_map(|id| {
                let el = self.element(id)?;
                el.attr("data").or_else(|| el.attr("src")).map(String::from)
            })
            .collect();
        Outline {
            meta_refresh: self.meta_refresh_target(),
            external_scripts: self.external_script_srcs(),
            inline_scripts: self.inline_scripts(),
            plugin_srcs,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::Document;

    #[test]
    fn objects_precede_embeds_and_data_wins_over_src() {
        let doc = Document::parse(
            r#"<embed src="e.swf"><object data="o.swf" src="ignored.swf"></object>
               <object><param name="movie" value="x"></object>"#,
        );
        assert_eq!(doc.outline().plugin_srcs, ["o.swf", "e.swf"]);
    }

    #[test]
    fn meta_refresh_target_is_outlined() {
        let doc =
            Document::parse(r#"<meta http-equiv="refresh" content="0; url=http://n.example/">"#);
        assert_eq!(doc.outline().meta_refresh.as_deref(), Some("http://n.example/"));
    }
}
