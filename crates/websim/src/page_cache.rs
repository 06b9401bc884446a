//! Page bodies as shared handles.
//!
//! A crawl opens a few hundred thousand pages but the web serves only a
//! few tens of thousands of bodies: a site serves the same markup to
//! every visit whatever tracking query the exchange appended. A
//! [`Body`] is one such body. The web builds each of its bodies once
//! ([`WebBuilder::finish`](crate::build::WebBuilder::finish)), so a
//! fetch, a load and a crawl record hand the same allocation on with a
//! reference-count bump. The body parses itself into its
//! [`slum_html::Outline`] the first time anyone asks and hashes itself
//! the same way, so every load and scan of it shares one parse and one
//! hash. Each body the web serves carries a dense id, which lets a scan
//! keep per-body results in a table instead of a map keyed by text.

use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use serde::{Content, DeError, Deserialize, JsonWriter, Serialize};
use slum_html::{Document, Outline};

use crate::hash::fnv1a;

/// One page body: its text, its id in the web that serves it, and its
/// outline and content hash, each computed on first use.
///
/// A clone is a reference-count bump. Equality, `Debug` and serde are
/// those of the text, so a body compares, prints and serializes like
/// the `String` it holds.
#[derive(Clone)]
pub struct Body(Arc<Shared>);

struct Shared {
    text: String,
    id: Option<u32>,
    outline: OnceLock<Outline>,
    hash: OnceLock<u64>,
}

impl Body {
    fn new(text: String, id: Option<u32>) -> Body {
        Body(Arc::new(Shared { text, id, outline: OnceLock::new(), hash: OnceLock::new() }))
    }

    /// Gives the body id `id` in its web: in place when this handle is
    /// its only one, as it is while the web is built.
    pub(crate) fn number(&mut self, id: u32) {
        match Arc::get_mut(&mut self.0) {
            Some(shared) => shared.id = Some(id),
            None => *self = Body::new(self.as_str().to_owned(), Some(id)),
        }
    }

    /// The body's dense id in the web that serves it, counting from 0
    /// in build order; `None` for a body made from bare text.
    pub fn id(&self) -> Option<u32> {
        self.0.id
    }

    /// The markup.
    pub fn as_str(&self) -> &str {
        &self.0.text
    }

    /// What loading and inspecting the body needs from its DOM, parsed
    /// on the first call and shared by every clone.
    pub fn outline(&self) -> &Outline {
        self.0.outline.get_or_init(|| Document::parse(&self.0.text).outline())
    }

    /// FNV-1a of the text ([`fnv1a`]), computed on the first call.
    pub fn content_hash(&self) -> u64 {
        *self.0.hash.get_or_init(|| fnv1a(self.0.text.as_bytes()))
    }

    /// True when `a` and `b` are clones of one body.
    pub fn ptr_eq(a: &Body, b: &Body) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl From<String> for Body {
    fn from(text: String) -> Body {
        Body::new(text, None)
    }
}

impl From<&str> for Body {
    fn from(text: &str) -> Body {
        Body::from(text.to_owned())
    }
}

impl Deref for Body {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Body {
    fn eq(&self, other: &Body) -> bool {
        Body::ptr_eq(self, other) || self.as_str() == other.as_str()
    }
}

impl Eq for Body {}

impl fmt::Debug for Body {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl Serialize for Body {
    fn to_content(&self) -> Content {
        self.as_str().to_content()
    }

    fn write_json(&self, w: &mut JsonWriter<'_>) {
        self.as_str().write_json(w);
    }
}

impl Deserialize for Body {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        String::from_content(content).map(Body::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_one_text_and_one_outline() {
        let mut body = Body::from("<script>go();</script>");
        body.number(3);
        let clone = body.clone();
        assert!(Body::ptr_eq(&body, &clone));
        assert!(std::ptr::eq(body.outline(), clone.outline()), "parsed once");
        assert_eq!(clone.outline().inline_scripts, ["go();"]);
        assert_eq!((clone.id(), clone.content_hash()), (Some(3), fnv1a(body.as_bytes())));
        let detached = Body::from(body.as_str());
        assert_eq!(detached, body, "equal text, equal bodies");
        assert!(!Body::ptr_eq(&detached, &body));
        assert_eq!(detached.id(), None);
        assert_eq!(detached.outline(), body.outline());
    }

    #[test]
    fn a_body_keeps_the_buffer_of_its_owned_text() {
        let text = String::from("<html></html>");
        let buffer = text.as_ptr();
        let mut body = Body::from(text);
        assert_eq!(body.as_ptr(), buffer);
        body.number(7);
        assert_eq!((body.as_ptr(), body.id()), (buffer, Some(7)), "numbered in place");
        let mut shared = body.clone();
        shared.number(8);
        assert_eq!((body.id(), shared.id()), (Some(7), Some(8)), "a shared body is copied");
    }

    #[test]
    fn debug_and_json_are_the_texts() {
        let body = Body::from("a \"quoted\" body");
        assert_eq!(format!("{body:?}"), format!("{:?}", "a \"quoted\" body"));
        let json = serde_json::to_string(&body).unwrap();
        assert_eq!(json, serde_json::to_string("a \"quoted\" body").unwrap());
        assert_eq!(serde_json::from_str::<Body>(&json).unwrap(), body);
    }
}
