//! `slumbench compare`: paired runs of a parent and a change.
//!
//! For each workload, pair `i` is the `i`-th run of each file that
//! measured it, on the same seed, and the side that ran first must
//! alternate from pair to pair. Per workload and metric:
//!
//! - **regressed**: the change's median is worse than the parent's by
//!   more than the metric's bound (`failed_ratio` and capacity: worse
//!   at all);
//! - **improved**: the change wins at least 9 of 10 pairs (ties count
//!   for neither) and the medians differ by more than the parent's
//!   interquartile range;
//! - **unresolved**: the run-to-run spread (the wider interquartile
//!   range of the two sides) exceeds the bound, unless every change run
//!   beats every parent run;
//! - **unchanged** otherwise.

use std::collections::BTreeSet;

use crate::record::{spec, Bound, MetricSpec, RunFile, RunRecord, WorkloadRecord, CATALOG};
use crate::stats;

/// Pairs a comparison needs.
pub const MIN_PAIRS: usize = 10;

/// Share of pairs the change must win to claim an improvement.
pub const WIN_SHARE: f64 = 0.9;

/// The judgement on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better beyond noise.
    Improved,
    /// Worse beyond the bound.
    Regressed,
    /// Too noisy to tell against the bound.
    Unresolved,
    /// Within the bound.
    Unchanged,
}

impl Verdict {
    /// Lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Unchanged => "unchanged",
        }
    }
}

/// One row of a comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Parent median.
    pub parent: f64,
    /// Change median.
    pub change: f64,
    /// Pairs the change won.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// The judgement.
    pub verdict: Verdict,
}

/// Judges paired samples `parent[i]`/`change[i]` of one metric.
pub fn judge(metric: &MetricSpec, parent: &[f64], change: &[f64]) -> (Verdict, usize) {
    let pairs = parent.len().min(change.len());
    let (parent, change) = (&parent[..pairs], &change[..pairs]);
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| metric.worsening(**p, **c) < 0.0)
        .count();
    let (Some(p_med), Some(c_med)) = (stats::median(parent), stats::median(change)) else {
        return (Verdict::Unresolved, wins);
    };
    let bound = metric.bound_abs(p_med);
    let worse = metric.worsening(p_med, c_med);
    let p_iqr = stats::iqr(parent).unwrap_or(0.0);
    let spread = p_iqr.max(stats::iqr(change).unwrap_or(0.0));
    let dominates = parent
        .iter()
        .all(|p| change.iter().all(|c| metric.worsening(*p, *c) < 0.0));
    let verdict = if worse > bound {
        Verdict::Regressed
    } else if wins as f64 >= WIN_SHARE * pairs as f64 && -worse > p_iqr {
        Verdict::Improved
    } else if spread > bound && !dominates {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    };
    (verdict, wins)
}

/// Judges the failed share: any rise over the parent's, summed over
/// all pairs, is a regression.
pub fn judge_failed(parent: &[&WorkloadRecord], change: &[&WorkloadRecord]) -> (f64, f64, Verdict) {
    let share = |side: &[&WorkloadRecord]| {
        let failed: u64 = side.iter().map(|w| w.failed).sum();
        let attempted: u64 = side.iter().map(|w| w.attempted).sum();
        failed as f64 / attempted.max(1) as f64
    };
    let (p, c) = (share(parent), share(change));
    (
        p,
        c,
        if c > p {
            Verdict::Regressed
        } else {
            Verdict::Unchanged
        },
    )
}

/// Checks that the runs pair up: enough pairs, equal seeds, and an
/// order that alternates which side ran first.
///
/// # Errors
///
/// Describes the first violated condition.
pub fn check_pairs(parent: &[&RunRecord], change: &[&RunRecord]) -> Result<usize, String> {
    let pairs = parent.len().min(change.len());
    if pairs < MIN_PAIRS {
        return Err(format!(
            "need at least {MIN_PAIRS} paired runs, have {pairs}"
        ));
    }
    let mut last_parent_first = None;
    for (i, (p, c)) in parent.iter().zip(change).enumerate() {
        if p.seed != c.seed {
            return Err(format!("pair {i}: seeds differ ({} vs {})", p.seed, c.seed));
        }
        if p.toy != c.toy {
            return Err(format!("pair {i}: one side ran at toy sizes"));
        }
        let parent_first = p.started_unix_ms <= c.started_unix_ms;
        if last_parent_first == Some(parent_first) {
            return Err(format!(
                "pair {i}: the same side ran first as in pair {}",
                i - 1
            ));
        }
        last_parent_first = Some(parent_first);
    }
    Ok(pairs)
}

/// Compares two run files, one row per workload and metric. A
/// workload's pairs are the runs of each file that measured it, in
/// order, so a file may hold runs of all workloads or of one at a time.
///
/// # Errors
///
/// As [`check_pairs`], per workload, and runs marked invalid.
pub fn compare(parent: &RunFile, change: &RunFile) -> Result<Vec<Row>, String> {
    let workloads: BTreeSet<&str> = parent
        .runs
        .iter()
        .chain(&change.runs)
        .flat_map(|run| run.workloads.keys().map(String::as_str))
        .collect();
    let mut rows = Vec::new();
    for workload in workloads {
        let (p_runs, c_runs) = (runs_of(parent, workload), runs_of(change, workload));
        let pairs = check_pairs(&p_runs, &c_runs).map_err(|e| format!("{workload}: {e}"))?;
        let (p, c): (Vec<&WorkloadRecord>, Vec<&WorkloadRecord>) = (
            p_runs[..pairs]
                .iter()
                .map(|r| &r.workloads[workload])
                .collect(),
            c_runs[..pairs]
                .iter()
                .map(|r| &r.workloads[workload])
                .collect(),
        );
        if let Some(bad) = p.iter().chain(&c).find(|w| !w.valid) {
            let reason = bad.invalid_reason.as_deref().unwrap_or("invalid");
            return Err(format!(
                "{workload}: a run is invalid ({reason}); its numbers do not count"
            ));
        }
        for metric in CATALOG.iter().filter(|m| m.name != "failed_ratio") {
            let values = |side: &[&WorkloadRecord]| -> Option<Vec<f64>> {
                side.iter().map(|w| w.value(metric.name)).collect()
            };
            let (Some(pv), Some(cv)) = (values(&p), values(&c)) else {
                continue;
            };
            let (verdict, wins) = judge(metric, &pv, &cv);
            rows.push(Row {
                workload: workload.to_string(),
                metric: metric.name.to_string(),
                parent: stats::median(&pv).unwrap_or(f64::NAN),
                change: stats::median(&cv).unwrap_or(f64::NAN),
                wins,
                pairs,
                verdict,
            });
        }
        let (pf, cf, verdict) = judge_failed(&p, &c);
        rows.push(Row {
            workload: workload.to_string(),
            metric: "failed_ratio".to_string(),
            parent: pf,
            change: cf,
            wins: 0,
            pairs,
            verdict,
        });
    }
    Ok(rows)
}

/// The runs of `file` that measured `workload`, in order.
fn runs_of<'a>(file: &'a RunFile, workload: &str) -> Vec<&'a RunRecord> {
    file.runs
        .iter()
        .filter(|r| r.workloads.contains_key(workload))
        .collect()
}

/// Renders rows as aligned text, one per line.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    for r in rows {
        let unit = spec(&r.metric).map_or("", |m| m.unit);
        let bound = match spec(&r.metric).map(|m| m.bound) {
            Some(Bound::Relative { share, floor }) if floor > 0.0 => {
                format!("max({:.0}%, {floor}{unit})", share * 100.0)
            }
            Some(Bound::Relative { share, .. }) => format!("{:.0}%", share * 100.0),
            _ => "any".to_string(),
        };
        out.push_str(&format!(
            "{:<20} {:<22} parent {:>14.6} change {:>14.6} {:<8} wins {:>2}/{:<2} bound {:<16} {}\n",
            r.workload,
            r.metric,
            r.parent,
            r.change,
            unit,
            r.wins,
            r.pairs,
            bound,
            r.verdict.name()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Host;

    fn latency() -> &'static MetricSpec {
        spec("latency_ms").expect("catalog entry")
    }

    /// Ten noisy-but-tight samples around `center` (±1%).
    fn around(center: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center * (1.0 + (i as f64 - 4.5) / 450.0))
            .collect()
    }

    #[test]
    fn a_consistent_win_beyond_the_parents_spread_is_an_improvement() {
        let (verdict, wins) = judge(latency(), &around(100.0), &around(80.0));
        assert_eq!((verdict, wins), (Verdict::Improved, 10));
    }

    #[test]
    fn a_median_worse_than_the_bound_is_a_regression() {
        let (verdict, wins) = judge(latency(), &around(100.0), &around(130.0));
        assert_eq!((verdict, wins), (Verdict::Regressed, 0));
        // Within the 25% bound and no consistent win: unchanged.
        assert_eq!(
            judge(latency(), &around(100.0), &around(110.0)).0,
            Verdict::Unchanged
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let parent = [
            60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 100.0, 100.0,
        ];
        let change = [
            130.0, 70.0, 120.0, 80.0, 110.0, 90.0, 100.0, 140.0, 60.0, 100.0,
        ];
        assert_eq!(judge(latency(), &parent, &change).0, Verdict::Unresolved);
        // A change that beats every parent run is never unresolved.
        let better: Vec<f64> = (0..10).map(|i| 40.0 + i as f64).collect();
        assert_ne!(judge(latency(), &parent, &better).0, Verdict::Unresolved);
    }

    #[test]
    fn higher_is_better_metrics_flip_the_direction() {
        let capacity = spec("verdict_capacity_qps").expect("catalog entry");
        assert_eq!(
            judge(capacity, &[80.0; 10], &[20.0; 10]).0,
            Verdict::Regressed
        );
        assert_eq!(
            judge(capacity, &[20.0; 10], &[80.0; 10]).0,
            Verdict::Improved
        );
        assert_eq!(
            judge(capacity, &[20.0; 10], &[20.0; 10]).0,
            Verdict::Unchanged
        );
    }

    fn run(seed: u64, started: u64, latency_ms: f64, failed: u64) -> RunRecord {
        let mut w = WorkloadRecord {
            attempted: 100,
            failed,
            valid: true,
            ..Default::default()
        };
        w.push("latency_ms", latency_ms);
        RunRecord {
            rev: "test".to_string(),
            host: Host { cpus: 2 },
            seed,
            started_unix_ms: started,
            toy: false,
            workloads: std::collections::BTreeMap::from([("study-exchange".to_string(), w)]),
        }
    }

    /// Ten alternating pairs: parent first on even pairs.
    fn files(parent_failed: u64, change_failed: u64) -> (RunFile, RunFile) {
        let mut parent = RunFile::default();
        let mut change = RunFile::default();
        for i in 0..10u64 {
            let (p_at, c_at) = if i % 2 == 0 {
                (10 * i, 10 * i + 5)
            } else {
                (10 * i + 5, 10 * i)
            };
            parent
                .runs
                .push(run(i, p_at, 100.0 + i as f64 / 10.0, parent_failed));
            change
                .runs
                .push(run(i, c_at, 100.0 + i as f64 / 10.0, change_failed));
        }
        (parent, change)
    }

    #[test]
    fn a_rise_in_failed_share_is_a_regression() {
        let (parent, change) = files(0, 1);
        let rows = compare(&parent, &change).expect("valid pairs");
        let failed = rows
            .iter()
            .find(|r| r.metric == "failed_ratio")
            .expect("failed row");
        assert_eq!(failed.verdict, Verdict::Regressed);
        assert!((failed.change - 0.01).abs() < 1e-12);
        let latency = rows
            .iter()
            .find(|r| r.metric == "latency_ms")
            .expect("latency row");
        assert_eq!(latency.verdict, Verdict::Unchanged);

        let (parent, change) = files(1, 0);
        let rows = compare(&parent, &change).expect("valid pairs");
        assert!(rows.iter().all(|r| r.verdict == Verdict::Unchanged));
    }

    #[test]
    fn runs_of_one_workload_at_a_time_pair_per_workload() {
        // The same runs again under a second workload, interleaved, as
        // per-workload invocations of `run` leave them.
        let interleave = |file: RunFile| RunFile {
            runs: file
                .runs
                .into_iter()
                .flat_map(|run| {
                    let mut other = run.clone();
                    other.workloads = std::mem::take(&mut other.workloads)
                        .into_values()
                        .map(|w| ("serve-query".to_string(), w))
                        .collect();
                    [run, other]
                })
                .collect(),
        };
        let (parent, change) = files(0, 0);
        let rows = compare(&interleave(parent), &interleave(change)).expect("valid pairs");
        for workload in ["serve-query", "study-exchange"] {
            let row = rows
                .iter()
                .find(|r| r.workload == workload && r.metric == "latency_ms")
                .expect("latency row");
            assert_eq!((row.pairs, row.verdict), (10, Verdict::Unchanged));
        }
    }

    #[test]
    fn pairs_must_be_enough_seeded_alike_and_alternating() {
        let refs = |file| runs_of(file, "study-exchange");
        let (parent, change) = files(0, 0);
        let (p, c) = (refs(&parent), refs(&change));
        assert_eq!(check_pairs(&p, &c), Ok(10));
        assert!(check_pairs(&p[..9], &c[..9]).is_err());
        let mut same_order = change.clone();
        for (i, r) in same_order.runs.iter_mut().enumerate() {
            r.started_unix_ms = 10 * i as u64 + 5;
        }
        assert!(check_pairs(&p, &refs(&same_order)).is_err());
        let mut reseeded = change.clone();
        reseeded.runs[3].seed = 99;
        assert!(check_pairs(&p, &refs(&reseeded)).is_err());
    }
}
