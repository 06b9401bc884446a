//! # slum-obs
//!
//! The observability substrate for the malware-slums reproduction: a
//! lightweight metrics layer whose only dependencies are the vendored
//! serde and serde_json, which write and read its snapshots.
//!
//! The paper's credibility rests on knowing exactly what the crawler
//! and the scanners did — how many URLs were surfed, how many scans hit
//! a cache instead of running, how many labels each engine produced.
//! This crate provides the vocabulary for reporting that:
//!
//! - [`Registry`] — a `Send + Sync` home for named metrics;
//! - monotonic [`Counter`]s and settable [`Gauge`]s (lock-free atomics);
//! - [`Histogram`]s with fixed log-scale buckets for latencies;
//! - named span timers ([`Registry::span`]) for phase wall-clock;
//! - [`MetricsSnapshot`] — an immutable, ordered view of everything,
//!   written as pretty JSON by [`MetricsSnapshot::to_json`] and read
//!   back with `serde_json::from_str`;
//! - [`TenantRegistries`] — per-tenant registries for a multi-study
//!   service, with a namespaced global rollup
//!   ([`TenantRegistries::global_snapshot`]).
//!
//! ## Determinism contract
//!
//! Counters and gauges must be *deterministic*: for a fixed seed they
//! hold the same values regardless of worker counts or scheduling.
//! Wall-clock measurements (histogram samples of durations, span
//! nanoseconds) are machine-dependent and are therefore excluded from
//! [`MetricsSnapshot::deterministic_counters`], the view that tests pin.
//!
//! ```
//! use slum_obs::Registry;
//!
//! let registry = Registry::new();
//! registry.counter("crawl.pages").add(3);
//! {
//!     let _span = registry.span("phase.crawl");
//!     // ... timed work ...
//! }
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.counter("crawl.pages"), 3);
//! let json = snapshot.to_json();
//! let back: slum_obs::MetricsSnapshot = serde_json::from_str(&json).unwrap();
//! assert_eq!(back, snapshot);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod registry;
pub mod rollup;
pub mod snapshot;

pub use histogram::{Histogram, HistogramSnapshot};
pub use registry::{Counter, Gauge, Registry, SpanGuard};
pub use rollup::TenantRegistries;
pub use snapshot::{MetricsSnapshot, SpanSnapshot};
