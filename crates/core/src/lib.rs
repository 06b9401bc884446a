//! # malware-slums
//!
//! A full reproduction of *Malware Slums: Measurement and Analysis of
//! Malware on Traffic Exchanges* (DSN 2016).
//!
//! The paper crawled nine auto-surf and manual-surf traffic exchanges
//! for several months (1,003,087 URLs), scanned everything with
//! VirusTotal, Quttera and six public blacklists, and found that more
//! than 26% of the URLs surfed on exchanges were malicious. This crate
//! is the study pipeline itself, running over the simulated ecosystem
//! provided by the `slum-*` substrate crates:
//!
//! 1. **Crawl** the simulated exchanges ([`slum_crawler`]).
//! 2. **Filter** self-referrals and popular referrals ([`filter`]).
//! 3. **Scan** every regular URL — URL scans first, then
//!    cloaking-defeating content uploads ([`scanpipe`]).
//! 4. **Categorize** detected malware into the paper's five classes +
//!    miscellaneous ([`categorize`]).
//! 5. **Analyze**: per-exchange rates (Table I/II, Figure 2), temporal
//!    bursts (Figure 3), redirect chains (Figures 4/5), TLD and content
//!    breakdowns (Figures 6/7), shortened-URL statistics (Table IV),
//!    and the case studies of §V ([`temporal`], [`redirects`],
//!    [`breakdown`], [`shortened`], [`case_studies`]).
//!
//! The one-call entry point is [`study::Study::run`];
//! [`study::CrawlSession`] runs the same study with crawl checkpoints
//! (open → advance → finish). Every published table and figure has a
//! typed builder on [`study::Study`] (`table1()` .. `fig7()`, see
//! [`artifact`]), [`study::Study::artifact`] dispatches to them by
//! [`artifact::ArtifactKind`], and [`study::Study::metrics`] exposes
//! the pipeline's observability counters:
//!
//! ```
//! use malware_slums::artifact::ArtifactKind;
//! use malware_slums::report::Render;
//! use malware_slums::study::{Study, StudyConfig};
//!
//! let config = StudyConfig::builder().crawl_scale(0.0002).build().unwrap();
//! let study = Study::run(&config);
//! assert_eq!(study.table1().rows.len(), 9);
//! assert_eq!(study.artifact(ArtifactKind::Table1).render(), study.table1().render());
//! assert!(study.metrics().counter("scan.scans") > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod breakdown;
pub mod case_studies;
pub mod categorize;
pub mod checkpoint;
pub mod countermeasures;
pub mod crawlloss;
pub mod diskfault;
pub mod export;
pub(crate) mod facts;
pub mod faultloss;
pub mod filter;
pub mod redirects;
pub mod report;
pub mod scanpipe;
pub mod shortened;
pub mod snippets;
pub mod staleness;
pub mod study;
pub mod substrate;
pub mod temporal;

pub use artifact::{Artifact, ArtifactKind};
pub use categorize::Category;
pub use checkpoint::{CheckpointError, CheckpointHeader, CheckpointStore};
pub use crawlloss::{run_crawl_loss_experiment, CrawlLossConfig, CrawlLossReport};
pub use diskfault::{DiskFault, DiskFaultProfile};
pub use faultloss::{run_fault_loss_experiment, FaultLossConfig, FaultLossReport};
pub use filter::ReferralClass;
pub use report::Render;
pub use scanpipe::{FaultLog, ScanCaches, ScanOutcome, ScanPipeline, VerdictSource};
pub use study::{ConfigError, CrawlSession, Restore, Study, StudyConfig, StudyConfigBuilder};
pub use substrate::{SourceMeta, Substrate};
