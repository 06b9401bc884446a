//! # slumbench
//!
//! One repeatable benchmark for the malware-slums study pipeline and
//! the slum-serve study service: four workloads measured end to end in
//! fresh child processes, a separate traced pass that times the
//! benchmark's own calls into every layer, and a paired comparison of a
//! change against its parent. See `README.md` beside this crate for the
//! workloads, metrics, bounds and recipes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod loadgen;
pub mod procfs;
pub mod record;
pub mod stats;
pub mod trace;
pub mod workload;
