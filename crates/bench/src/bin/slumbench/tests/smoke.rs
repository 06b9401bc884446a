//! Smoke tests: the real binary, its worker and daemon children, every
//! workload end to end at toy sizes, with each daemon on port 0.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;
use slumbench::record::RunFile;

/// A scratch working directory, under Cargo's per-test scratch space,
/// that the binary writes `target/slumbench` into.
fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("slumbench-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs `slumbench` in `dir`; returns stdout and every JSON result line.
fn slumbench(dir: &Path, args: &[&str]) -> (String, Vec<Value>) {
    let out = Command::new(env!("CARGO_BIN_EXE_slumbench"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("slumbench runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        out.status.success(),
        "slumbench {args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let results = stdout
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| serde_json::from_str(l).expect("result line is JSON"))
        .collect();
    (stdout, results)
}

fn listed(key: &str) -> Vec<String> {
    let spec: Value = serde_json::from_str(slumbench::record::BENCHMARK_JSON).expect("parses");
    spec[key]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| m["name"].as_str().unwrap().to_string())
        .collect()
}

fn assert_result(result: &Value, metrics: &[String]) {
    assert_eq!(result["correct"].as_bool(), Some(true), "{result:?}");
    assert_eq!(result["failed"].as_u64(), Some(0), "{result:?}");
    assert!(result["attempted"].as_u64().is_some_and(|n| n >= 1));
    for name in metrics {
        let v = result["metrics"][name.as_str()]["value"].as_f64();
        assert!(
            v.is_some_and(f64::is_finite),
            "{name} missing from {result:?}"
        );
    }
}

#[test]
fn all_four_workloads_run_at_toy_sizes() {
    let dir = scratch("smoke");
    let (stdout, results) = slumbench(
        &dir,
        &[
            "run",
            "--toy",
            "--seconds",
            "1",
            "--seed",
            "7",
            "--out",
            "runs.json",
        ],
    );
    assert_eq!(results.len(), 4, "one result line per workload:\n{stdout}");
    let end_to_end = listed("end_to_end");
    for r in &results {
        assert_result(r, &end_to_end);
    }
    assert!(stdout
        .lines()
        .any(|l| l.starts_with("serve-query verdict_capacity_qps ")));
    assert!(stdout
        .lines()
        .any(|l| l.starts_with("serve-mixed turnaround_s ")));

    let file = RunFile::read(&dir.join("runs.json")).expect("run file");
    let run = &file.runs[0];
    assert_eq!((run.seed, run.toy, run.workloads.len()), (7, true, 4));
    let mixed = &run.workloads["serve-mixed"];
    assert_eq!(
        mixed.metrics["turnaround_s"].values.len() % 3,
        0,
        "three tenants per repeat"
    );
    assert!(mixed.serve_root_fs.is_some());
    assert!(run.workloads["study-exchange"]
        .digests
        .windows(2)
        .all(|d| d[0] == d[1]));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn traced_serve_mixed_reports_every_listed_layer_metric() {
    let dir = scratch("trace");
    let (stdout, results) = slumbench(
        &dir,
        &["trace", "--workload", "serve-mixed", "--toy", "--seed", "7"],
    );
    assert_eq!(results.len(), 1, "{stdout}");
    assert_result(&results[0], &listed("per_layer"));
    for serve_only in [
        "serve.slice_ms_p50",
        "checkpoint.load_ms_mean",
        "daemon.rtt_ms_p50",
    ] {
        assert!(
            stdout.contains(&format!("serve-mixed {serve_only} ")),
            "{serve_only} not printed"
        );
    }
    let spans: Value = serde_json::from_str(
        &std::fs::read_to_string(dir.join("target/slumbench/trace-serve-mixed.json"))
            .expect("trace file"),
    )
    .expect("spans parse");
    assert!(spans
        .as_array()
        .is_some_and(|s| s.iter().any(|s| s["name"].as_str() == Some("serve.slice"))));
    std::fs::remove_dir_all(&dir).ok();
}
