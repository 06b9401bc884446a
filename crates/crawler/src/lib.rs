//! # slum-crawler
//!
//! The measurement crawler of the `malware-slums` reproduction of
//! *Malware Slums* (DSN 2016).
//!
//! The paper registered fresh accounts on nine traffic exchanges and
//! crawled them for months: auto-surf exchanges were logged passively
//! from the browser as pages rotated, manual-surf exchanges were
//! clicked through by hand (hence far fewer pages), and all traffic was
//! captured via Firebug/NetExport as HAR. This crate reproduces that
//! procedure over the simulated exchanges:
//!
//! - [`record`] / [`store`] — the per-visit crawl records (URL, redirect
//!   chain, captured content, HAR) and their store;
//! - [`drive`] — the auto-surf and manual-surf crawl drivers, including
//!   the scripted CAPTCHA operator;
//! - [`run`] — multi-exchange orchestration: one segmented crawl
//!   driver (one scoped thread per exchange) that checkpoints
//!   between rounds, or runs to completion in one segment;
//! - [`fault`] — named crawl-fault profiles (exchange outages, bans,
//!   CAPTCHA lockouts, permanent shutdowns, session drops) and the
//!   per-exchange crawl-health log;
//! - [`burst`] — the paid-campaign burst-validation experiment client
//!   ($5 → 2,500 visits, §IV).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod burst;
pub mod drive;
pub mod fault;
pub mod record;
pub mod run;
pub mod store;

pub use drive::{crawl_exchange, record_visit, CrawlConfig, CrawlCursor};
pub use fault::{CrawlFaultProfile, CrawlHealth};
pub use record::{CrawlRecord, CrawlVisit};
pub use run::{crawl_all_resilient, replay_restored_loads, CrawlCheckpointState, CrawlPlan};
pub use slum_exchange::TrafficSource;
pub use store::{JsonlError, RecordStore};
