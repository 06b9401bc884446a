//! # slum-html
//!
//! A small, dependency-free HTML parsing library built for the
//! `malware-slums` reproduction of *Malware Slums: Measurement and Analysis
//! of Malware on Traffic Exchanges* (DSN 2016).
//!
//! The paper's analysis pipeline repeatedly needs to answer structural
//! questions about web pages: *does this page contain an `iframe` that is
//! effectively invisible?*, *which scripts does it embed?*, *does an anchor
//! carry a `data:` URI payload?*. This crate provides exactly that: a
//! forgiving tokenizer, an arena-backed DOM, and a query layer tuned for
//! the inspection passes the study performs.
//!
//! It is intentionally **not** a full HTML5 parser: error recovery follows
//! a simple, predictable model (unclosed elements are closed at EOF,
//! mis-nested end tags are ignored) which is sufficient for the synthetic
//! web generated by `slum-websim` and robust for arbitrary input.
//!
//! ## Example
//!
//! ```
//! use slum_html::Document;
//!
//! let doc = Document::parse(
//!     r#"<html><body><iframe src="http://evil.example/" width="1" height="1"></iframe></body></html>"#,
//! );
//! let iframes = doc.elements_by_tag("iframe");
//! assert_eq!(iframes.len(), 1);
//! assert!(doc.is_pixel_iframe(iframes[0]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attr;
pub mod dom;
pub mod escape;
pub mod outline;
pub mod parser;
pub mod query;
pub mod tokenizer;

pub use dom::{Document, Element, Node, NodeId, NodeKind};
pub use outline::{IframeFacts, Outline, PluginFacts};
pub use tokenizer::{tokenize, Token};
