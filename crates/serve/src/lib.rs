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
//! scanned for tenant A is not scanned again for tenant B. Sharing is
//! invisible to every study — export JSON and every deterministic
//! counter, `scan.cache.*` and `js.vm.*` included, are the same with or
//! without it, checked by `tests/invariance.rs`; only the group's
//! cumulative stats (`Service::cache_group_stats`) observe it.
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
//! The service is built to survive its tenants, its clients and its
//! disks: panicking studies are contained to a `poisoned` state by
//! slice supervision, request floods shed with `overloaded` +
//! `retry_after_ms` (per-tenant in-flight caps, a daemon-wide
//! connection cap), stopping the daemon shuts every connection down so
//! no client can hold it open, and checkpoint storage faults
//! (injectable via [`malware_slums::DiskFaultProfile`]) are detected
//! when a study attaches and cost recrawled rounds, never the study,
//! thanks to checkpoint generations with quarantine/rollback.
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

pub use daemon::Daemon;
pub use malware_slums::study::DEFAULT_CHECKPOINT_EVERY;
pub use proto::{parse_request, ProtoError, Request, Response, MAX_REQUEST_LINE};
pub use service::{ServeError, Service, StudyStatus};
