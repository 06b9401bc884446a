//! The end-to-end metric catalog and the run file every `run` appends
//! to.

use std::collections::BTreeMap;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::stats;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (capacity).
    Higher,
}

/// How far a metric may worsen before a change counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// By `share` of the parent's median, but never less than `floor`
    /// (in the metric's unit).
    Relative {
        /// Share of the parent's median.
        share: f64,
        /// Absolute floor.
        floor: f64,
    },
    /// Any worsening is a regression (discrete metrics).
    AnyWorse,
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Metric name, as printed and stored.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound.
    pub bound: Bound,
}

impl MetricSpec {
    /// The bound in the metric's unit, given the parent's median.
    pub fn bound_abs(&self, parent_median: f64) -> f64 {
        match self.bound {
            Bound::Relative { share, floor } => (share * parent_median.abs()).max(floor),
            Bound::AnyWorse => 0.0,
        }
    }

    /// How much worse `change` is than `parent` (negative when better).
    pub fn worsening(&self, parent: f64, change: f64) -> f64 {
        match self.better {
            Better::Lower => change - parent,
            Better::Higher => parent - change,
        }
    }
}

const fn lower(name: &'static str, unit: &'static str, share: f64, floor: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
        bound: Bound::Relative { share, floor },
    }
}

/// Every end-to-end metric a workload can report. `failed_ratio` is
/// derived from each run's attempted and failed counts.
///
/// The first four are the metrics `BENCHMARK.json` lists, reported on
/// every workload; their shares equal its bounds (a test keeps them
/// in step). `latency_ms` is each workload's headline latency:
/// `study_s` on `study-*`, `turnaround_s` on `serve-mixed` and
/// `verdict_p50_ms` on `serve-query`.
pub const CATALOG: &[MetricSpec] = &[
    lower("latency_ms", "ms", 0.25, 0.0),
    lower("cpu_s", "s", 0.25, 0.0),
    lower("peak_rss_mb", "MB", 0.20, 0.0),
    lower("setup_s", "s", 0.25, 0.0),
    lower("study_s", "s", 0.25, 0.0),
    lower("turnaround_s", "s", 0.25, 0.0),
    lower("verdict_p50_ms", "ms", 0.15, 0.2),
    lower("verdict_p99_ms", "ms", 0.15, 1.0),
    MetricSpec {
        name: "verdict_capacity_qps",
        unit: "req/s",
        better: Better::Higher,
        bound: Bound::AnyWorse,
    },
    MetricSpec {
        name: "failed_ratio",
        unit: "fraction",
        better: Better::Lower,
        bound: Bound::AnyWorse,
    },
];

/// The catalog entry for `name`.
pub fn spec(name: &str) -> Option<&'static MetricSpec> {
    CATALOG.iter().find(|m| m.name == name)
}

/// The benchmark definition at the repository root: which metrics the
/// final JSON line of a run carries, with their units and bounds.
pub const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`
/// (`end_to_end` or `per_layer`).
pub fn benchmark_metrics(key: &str) -> Vec<(String, String)> {
    let spec: serde_json::Value =
        serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    spec[key]
        .as_array()
        .expect("BENCHMARK.json lists metrics")
        .iter()
        .map(|m| {
            let field = |f: &str| m[f].as_str().expect("metric name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// The host a run measured on.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Host {
    /// Available parallelism.
    pub cpus: u64,
}

/// Raw samples of one metric within one run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Samples {
    /// Unit.
    pub unit: String,
    /// Every measured value (one per repeat, tenant or set-up).
    pub values: Vec<f64>,
}

impl Samples {
    /// The run's value of the metric: the median of its samples.
    pub fn value(&self) -> Option<f64> {
        stats::median(&self.values)
    }
}

/// One workload's share of a run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WorkloadRecord {
    /// Operations attempted (studies, requests, digest checks).
    pub attempted: u64,
    /// Operations failed: error or overloaded responses, wrong verdicts,
    /// studies that never finished, digest mismatches.
    pub failed: u64,
    /// `false` when a validity stamp disqualifies the numbers.
    pub valid: bool,
    /// Why the run is invalid.
    pub invalid_reason: Option<String>,
    /// Filesystem type under the daemon's checkpoint root (serve).
    pub serve_root_fs: Option<String>,
    /// Generator lateness at the tail percentile of the 20/s step, ms
    /// (serve).
    pub late_ms_tail: Option<f64>,
    /// Every artifact digest the run produced.
    pub digests: Vec<String>,
    /// Metric samples by name.
    pub metrics: BTreeMap<String, Samples>,
    /// Further observations that are not end-to-end metrics (per-step
    /// ladder latencies, the reader's tail), last repeat wins.
    pub notes: BTreeMap<String, f64>,
}

impl WorkloadRecord {
    /// Appends one sample of a catalog metric.
    pub fn push(&mut self, name: &str, value: f64) {
        let unit = spec(name).map_or("", |m| m.unit);
        self.metrics
            .entry(name.to_string())
            .or_insert_with(|| Samples {
                unit: unit.to_string(),
                values: Vec::new(),
            })
            .values
            .push(value);
    }

    /// The run's value of `name`, if measured.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).and_then(Samples::value)
    }

    /// Failed over attempted operations.
    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// One invocation of `slumbench run`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunRecord {
    /// Git revision of the checkout (`unknown` outside a git checkout).
    pub rev: String,
    /// Host description.
    pub host: Host,
    /// Workload seed.
    pub seed: u64,
    /// Wall-clock start, ms since the Unix epoch (orders paired runs).
    pub started_unix_ms: u64,
    /// Whether the workloads ran at toy sizes.
    pub toy: bool,
    /// Results by workload name.
    pub workloads: BTreeMap<String, WorkloadRecord>,
}

/// A run file: every run appended so far.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RunFile {
    /// Runs in the order they were appended.
    pub runs: Vec<RunRecord>,
}

impl RunFile {
    /// Reads a run file.
    ///
    /// # Errors
    ///
    /// I/O failures and malformed contents.
    pub fn read(path: &Path) -> Result<RunFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Appends `run` to the file at `path`, creating it if needed.
    ///
    /// # Errors
    ///
    /// I/O failures, or an existing file that does not parse.
    pub fn append(path: &Path, run: RunRecord) -> Result<(), String> {
        let mut file = if path.exists() {
            RunFile::read(path)?
        } else {
            RunFile::default()
        };
        file.runs.push(run);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let text = serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?;
        std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// The git revision of the checkout in the working directory, read from
/// `.git` directly so nothing outside the checkout is consulted.
pub fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let full = match head.strip_prefix("ref: ") {
        None => Some(head),
        Some(name) => read(&format!(".git/{name}")).or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(&format!(" {name}")))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        }),
    };
    full.map_or_else(|| "unknown".to_string(), |h| h.chars().take(12).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_agrees_with_the_catalogs() {
        let spec: serde_json::Value = serde_json::from_str(BENCHMARK_JSON).expect("parses");
        for m in spec["end_to_end"].as_array().expect("end_to_end") {
            let name = m["name"].as_str().expect("name");
            let ours = super::spec(name).unwrap_or_else(|| panic!("{name} not in CATALOG"));
            assert_eq!(m["unit"].as_str(), Some(ours.unit), "{name}");
            assert_eq!(m["better"].as_str(), Some("lower"), "{name}");
            let Bound::Relative { share, .. } = ours.bound else {
                panic!("{name} needs a share")
            };
            assert_eq!(
                m["bound"].as_f64(),
                Some(share),
                "{name}: bound differs from CATALOG"
            );
        }
        for (name, unit) in benchmark_metrics("per_layer") {
            assert_eq!(
                crate::trace::unit(&name),
                unit,
                "{name}: unit differs from LAYER_METRICS"
            );
        }
    }
}
