//! Arena-backed DOM tree.
//!
//! Nodes live in a flat arena owned by the [`Document`]; relationships are
//! expressed through [`NodeId`] indices, which sidesteps ownership cycles
//! and keeps traversal allocation-free.

use std::fmt;

/// Index of a node inside a [`Document`]'s arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The root document node of every [`Document`].
    pub const ROOT: NodeId = NodeId(0);

    /// Returns the raw arena index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// An element node: tag name plus attributes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Element {
    /// Lower-cased tag name.
    pub name: String,
    /// Attributes in source order; duplicates preserved (first wins on
    /// lookup, matching browser behaviour).
    pub attrs: Vec<(String, String)>,
}

impl Element {
    /// Creates a new element with the given tag name and no attributes.
    pub fn new(name: impl Into<String>) -> Self {
        Element { name: name.into(), attrs: Vec::new() }
    }

    /// Returns the first value of attribute `name` (case-insensitive), if
    /// present.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// The payload of a DOM node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// The synthetic document root.
    Document,
    /// An element with a tag name and attributes.
    Element(Element),
    /// A text run.
    Text(String),
    /// A comment.
    Comment(String),
}

/// A node in the arena: payload plus tree links.
#[derive(Debug, Clone)]
pub struct Node {
    /// The node payload.
    pub kind: NodeKind,
    /// Parent node, `None` only for the root.
    pub parent: Option<NodeId>,
    /// Children in document order.
    pub children: Vec<NodeId>,
}

/// True when an attribute name can be emitted verbatim inside a tag.
fn is_serializable_attr_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | ':' | '.'))
}

/// A parsed HTML document.
///
/// Construct with [`Document::parse`]; inspect with the query methods in
/// [`crate::query`] (implemented as inherent methods on `Document`).
#[derive(Debug, Clone)]
pub struct Document {
    nodes: Vec<Node>,
}

impl Default for Document {
    fn default() -> Self {
        Self::new()
    }
}

impl Document {
    /// Creates an empty document containing only the root node.
    pub fn new() -> Self {
        Document {
            nodes: vec![Node { kind: NodeKind::Document, parent: None, children: Vec::new() }],
        }
    }

    /// Parses `html` into a document. Never fails; see the crate docs for
    /// the recovery model.
    pub fn parse(html: &str) -> Self {
        crate::parser::parse_document(html)
    }

    /// Total number of nodes, including the root.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the document contains only the root node.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Borrows the node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this document.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Returns the element payload for `id`, or `None` when the node is
    /// not an element.
    pub fn element(&self, id: NodeId) -> Option<&Element> {
        match &self.nodes[id.0].kind {
            NodeKind::Element(el) => Some(el),
            _ => None,
        }
    }

    /// Appends a new node under `parent` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is out of bounds.
    pub fn append(&mut self, parent: NodeId, kind: NodeKind) -> NodeId {
        assert!(parent.0 < self.nodes.len(), "parent {parent} out of bounds");
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node { kind, parent: Some(parent), children: Vec::new() });
        self.nodes[parent.0].children.push(id);
        id
    }

    /// Iterates over all node ids in arena (pre-order-compatible) order.
    pub fn iter_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId)
    }

    /// Depth-first pre-order traversal starting at `root`.
    pub fn descendants(&self, root: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            out.push(id);
            // Push children in reverse so traversal is document order.
            for &child in self.nodes[id.0].children.iter().rev() {
                stack.push(child);
            }
        }
        out
    }

    /// Concatenated text content beneath `root` (inclusive).
    pub fn text_content(&self, root: NodeId) -> String {
        let mut out = String::new();
        for id in self.descendants(root) {
            if let NodeKind::Text(t) = &self.nodes[id.0].kind {
                out.push_str(t);
            }
        }
        out
    }

    /// Walks ancestors of `id`, closest first (excluding `id` itself).
    pub fn ancestors(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut cur = self.nodes[id.0].parent;
        while let Some(p) = cur {
            out.push(p);
            cur = self.nodes[p.0].parent;
        }
        out
    }

    /// Serializes the tree back to HTML. Attribute values are re-escaped;
    /// raw-text elements are emitted verbatim.
    pub fn to_html(&self) -> String {
        let mut out = String::new();
        self.write_node(NodeId::ROOT, &mut out);
        out
    }

    fn write_node(&self, id: NodeId, out: &mut String) {
        match &self.nodes[id.0].kind {
            NodeKind::Document => {
                for &c in &self.nodes[id.0].children {
                    self.write_node(c, out);
                }
            }
            NodeKind::Element(el) => {
                out.push('<');
                out.push_str(&el.name);
                for (k, v) in &el.attrs {
                    // Attribute names from hostile markup can contain
                    // quotes or angle brackets; serializing those would
                    // produce malformed output, so they are dropped
                    // (matching how browsers refuse to set them).
                    if !is_serializable_attr_name(k) {
                        continue;
                    }
                    out.push(' ');
                    out.push_str(k);
                    out.push_str("=\"");
                    out.push_str(&crate::escape::encode_text(v));
                    out.push('"');
                }
                out.push('>');
                let raw = matches!(el.name.as_str(), "script" | "style" | "textarea" | "title");
                for &c in &self.nodes[id.0].children {
                    if raw {
                        if let NodeKind::Text(t) = &self.nodes[c.0].kind {
                            out.push_str(t);
                            continue;
                        }
                    }
                    self.write_node(c, out);
                }
                out.push_str("</");
                out.push_str(&el.name);
                out.push('>');
            }
            NodeKind::Text(t) => out.push_str(&crate::escape::encode_text(t)),
            NodeKind::Comment(c) => {
                out.push_str("<!--");
                out.push_str(c);
                out.push_str("-->");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_document_has_root_only() {
        let doc = Document::new();
        assert!(doc.is_empty());
        assert_eq!(doc.len(), 1);
        assert!(matches!(doc.node(NodeId::ROOT).kind, NodeKind::Document));
    }

    #[test]
    fn append_links_parent_and_child() {
        let mut doc = Document::new();
        let div = doc.append(NodeId::ROOT, NodeKind::Element(Element::new("div")));
        let text = doc.append(div, NodeKind::Text("hi".into()));
        assert_eq!(doc.node(div).parent, Some(NodeId::ROOT));
        assert_eq!(doc.node(div).children, vec![text]);
        assert_eq!(doc.ancestors(text), vec![div, NodeId::ROOT]);
    }

    #[test]
    fn text_content_concatenates_in_order() {
        let doc = Document::parse("<div>a<span>b</span>c</div>");
        assert_eq!(doc.text_content(NodeId::ROOT), "abc");
    }

    #[test]
    fn element_attr_is_case_insensitive_first_wins() {
        let el = Element {
            name: "a".into(),
            attrs: vec![("href".into(), "1".into()), ("HREF".into(), "2".into())],
        };
        assert_eq!(el.attr("HREF"), Some("1"));
        assert_eq!(el.attr("missing"), None);
    }

    #[test]
    fn descendants_are_document_order() {
        let doc = Document::parse("<a><b></b><c></c></a>");
        let names: Vec<String> = doc
            .descendants(NodeId::ROOT)
            .into_iter()
            .filter_map(|id| doc.element(id).map(|e| e.name.clone()))
            .collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn to_html_round_trips_structure() {
        let src = r#"<div id="x"><p>hi &amp; bye</p></div>"#;
        let doc = Document::parse(src);
        let re = Document::parse(&doc.to_html());
        assert_eq!(doc.text_content(NodeId::ROOT), re.text_content(NodeId::ROOT));
        assert_eq!(doc.elements_by_tag("p").len(), re.elements_by_tag("p").len());
    }

    #[test]
    fn script_round_trip_preserves_body() {
        let src = "<script>if (a<b) { x(); }</script>";
        let doc = Document::parse(src);
        assert_eq!(doc.to_html(), src);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn append_to_bogus_parent_panics() {
        let mut doc = Document::new();
        doc.append(NodeId(42), NodeKind::Text("x".into()));
    }
}
