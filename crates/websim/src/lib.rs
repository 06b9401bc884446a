//! # slum-websim
//!
//! A deterministic synthetic-web substrate for the `malware-slums`
//! reproduction of *Malware Slums: Measurement and Analysis of Malware on
//! Traffic Exchanges* (DSN 2016).
//!
//! The original study measured the live 2015 web through nine traffic
//! exchanges. That web no longer exists, so this crate *generates* one:
//! domains, pages with real (inert) HTML/JS/Flash payloads, redirect
//! chains, URL-shortening services with public hit statistics, and
//! cloaking behaviour — all seeded and reproducible, and all calibrated
//! to the marginal distributions the paper publishes.
//!
//! Downstream crates treat [`SyntheticWeb`] exactly like an HTTP
//! substrate: [`SyntheticWeb::fetch`] takes a URL plus a
//! [`RequestContext`] (who is asking: a real browser or a scanner API)
//! and returns a [`FetchOutcome`]; browsers then read an HTML body
//! through [`SyntheticWeb::parsed`], a content-addressed cache that
//! parses each distinct body once ([`page_cache`]). Every generated
//! page carries a [`GroundTruth`] label, which is what lets the
//! reproduction *vet* detection tooling the way the paper did.
//!
//! ## Example
//!
//! ```
//! use slum_websim::{build::WebBuilder, RequestContext};
//!
//! let mut builder = WebBuilder::new(42);
//! let site = builder.benign_site(Default::default());
//! let web = builder.finish();
//! let outcome = web.fetch(&site.url, &RequestContext::browser());
//! assert!(outcome.is_html());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build;
pub mod content;
pub mod domain;
pub mod hash;
pub mod page;
pub mod page_cache;
pub mod params;
pub mod payload;
pub mod rng;
pub mod server;
pub mod shortener;
pub mod url;

pub use content::ContentCategory;
pub use domain::Tld;
pub use page::{FalsePositiveKind, GroundTruth, JsAttack, MaliceKind, Page};
pub use page_cache::{BodyCache, ParsedPage};
pub use server::{ClientKind, FetchOutcome, RequestContext, Resource, SyntheticWeb};
pub use url::Url;
