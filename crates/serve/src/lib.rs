//! # slum-serve
//!
//! A resident multi-tenant study service on top of the checkpoint
//! scheduler.
//!
//! Batch `repro` answers one question and exits; a measurement group
//! running the Malware Slums methodology continuously wants the
//! opposite shape: a long-lived process that accepts study submissions
//! from several tenants, advances them *concurrently* on shared
//! hardware, and answers verdict queries out of caches warmed by
//! whichever tenant scanned a URL first.
//!
//! This crate provides that in two layers:
//!
//! - [`Service`] — the in-process API: submit studies, advance them
//!   cooperatively (each scheduling slice runs one checkpoint round of
//!   the study's resident `CrawlSession`), query verdicts against the
//!   shared cross-tenant index, and stream a namespaced per-tenant
//!   metrics rollup.
//! - [`Daemon`] — a thin TCP front end speaking newline-delimited JSON
//!   ([`Request`] in, [`Response`] out), with a background scheduler
//!   thread driving the service.
//!
//! ## Cache sharing
//!
//! Verdicts and features are pure functions of the deterministic web
//! and the scan key, so studies whose configs agree on the web
//! fingerprint (seed, scales, substrate, JS engine — see
//! `StudyConfig::cache_fingerprint`) share one `ScanCaches` set: a URL
//! scanned for tenant A is a cache hit for tenant B. Sharing is
//! artifact-invisible — only the `scan.cache.*.lookups` / `.hits`
//! *metrics* observe it; export JSON is bit-identical with or without
//! sharing, checked by `tests/invariance.rs`.
//!
//! ## Protocol
//!
//! ```json
//! > {"op":"submit-study","tenant":"alpha","crawl_scale":0.0002,"substrate":"adnet"}
//! < {"ok":true,"op":"submit-study","study":1,"tenant":"alpha"}
//! > {"op":"study-status","study":1}
//! < {"ok":true,"op":"study-status","study":1,"state":"done","digest":"…"}
//! > {"op":"query-verdict","study":1,"url":"http://malslum-00042.example/"}
//! < {"ok":true,"op":"query-verdict","known":true,"malicious":false}
//! > {"op":"stream-metrics"}
//! < {"ok":true,"op":"stream-metrics","metrics":"{…}"}
//! > {"op":"shutdown"}
//! < {"ok":true,"op":"shutdown"}
//! ```
//!
//! ## Resilience
//!
//! The service is built to survive its tenants and its disks:
//! panicking studies are contained to a `poisoned` state by slice
//! supervision, runaway studies stall at a slice budget, request
//! floods shed with `overloaded` + `retry_after_ms` (per-tenant
//! in-flight caps, a daemon-wide connection cap), and checkpoint
//! storage faults (injectable via [`malware_slums::DiskFaultProfile`])
//! are detected when a study attaches and cost recrawled rounds, never
//! the study, thanks to checkpoint generations with quarantine/rollback.
//! The seeded storm harness lives in
//! [`chaos`]; `tests/serve_chaos.rs` and `repro chaos` both drive it
//! to pin the headline guarantee: under a storm of kills, corruptions,
//! disk faults and tenant panics, every surviving tenant's export is
//! bit-identical to a fault-free run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod daemon;
pub mod proto;
pub mod service;

pub use daemon::{Daemon, DaemonOptions};
pub use proto::{
    parse_request, ProtoError, Request, Response, DEFAULT_CHECKPOINT_EVERY, MAX_REQUEST_LINE,
};
pub use service::{ServeError, Service, StudyStatus};
