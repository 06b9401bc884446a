//! # slum-browser
//!
//! A headless mini-browser over the [`slum_websim::SyntheticWeb`]
//! substrate, reproducing the measurement client of *Malware Slums*
//! (DSN 2016): Firefox + Firebug + NetExport. Loading a URL follows
//! HTTP 302 chains, meta refreshes and JavaScript `location`
//! navigations; reads the final page's outline (meta refresh, scripts,
//! plugin movies); executes inline and external scripts in the
//! [`slum_js`] sandbox; simulates a user click (exposing
//! click-hijacking Flash movies and deceptive download prompts); and
//! reports what it saw. [`Browser::load_logged`] also returns the
//! load's HTTP Archive (HAR) log, the format the paper's NetExport
//! extension emitted; [`Browser::load`] is the same load without it.
//!
//! A [`Browser`] holds settings only; the state a load touches lives in
//! the web it is bound to. Page bodies come through the web's
//! parsed-page cache ([`slum_websim::SyntheticWeb::parsed`]), so each
//! distinct body is parsed once per web rather than once per visit, and
//! a load's [`LoadResult::html`] shares that body's one allocation.
//!
//! ## Example
//!
//! ```
//! use slum_browser::Browser;
//! use slum_websim::build::WebBuilder;
//!
//! let mut builder = WebBuilder::new(7);
//! let site = builder.benign_site(Default::default());
//! let web = builder.finish();
//!
//! let browser = Browser::new(&web);
//! let load = browser.load(&site.url);
//! assert_eq!(load.final_url, site.url);
//! assert!(load.outline.is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod har;
pub mod session;

pub use har::{HarEntry, HarLog};
pub use session::{Browser, Download, LoadResult, RedirectHop, RedirectKind};
