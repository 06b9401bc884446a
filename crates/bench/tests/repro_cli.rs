//! The `repro` command line end to end: what it rejects, and that its
//! options reach the study. Every check runs the built binary at the
//! smallest scale at which it still means something.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use serde_json::Value;

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("repro runs")
}

/// Runs `repro` and returns its stdout, failing on a non-zero exit.
fn stdout_of(args: &[&str]) -> String {
    let out = repro(args);
    assert!(out.status.success(), "repro {args:?}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("UTF-8 stdout")
}

/// The `--metrics` snapshot at `path`, parsed as plain JSON.
fn metrics(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).expect("metrics file written");
    serde_json::from_str(&text).expect("metrics file parses as JSON")
}

fn counter(snapshot: &Value, key: &str) -> u64 {
    snapshot["counters"][key].as_u64().unwrap_or_else(|| panic!("counter {key} missing"))
}

fn scratch(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("repro-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    path
}

#[test]
fn rejects_what_it_cannot_run() {
    let empty = scratch("empty");
    std::fs::create_dir_all(&empty).expect("empty dir");
    let empty = empty.to_str().expect("UTF-8 path");
    let fixture = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../core/tests/fixtures/checkpoint-v1.slumckpt"
    ))
    .expect("version-1 fixture");
    let v1 = scratch("v1");
    std::fs::create_dir_all(&v1).expect("v1 dir");
    std::fs::write(v1.join("ckpt-000001.slumckpt"), &fixture).expect("place the fixture");
    let v1 = v1.to_str().expect("UTF-8 path");
    // (arguments, whether the error message comes with the usage line)
    let cases: [(&[&str], bool); 15] = [
        // Unknown options, the removed ones included, and artifacts.
        (&["table1", "--sclae", "0.001"], true),
        (&["table1", "--overlap"], true),
        (&["table1", "--quick"], true),
        (&["tabel1"], true),
        (&["bench-serve"], true),
        // Malformed values, and scales the config builder refuses.
        (&["table1", "--workers", "0"], false),
        (&["table1", "--workers"], false),
        (&["table1", "--scale", "x"], false),
        (&["table1", "--scale", "0"], false),
        // Options used without the one they need.
        (&["table1", "--checkpoint-every", "8"], false),
        (&["table1", "--port", "5"], false),
        (&["table1", "--root", empty], false),
        (&["table1", "--disk-fault-profile", "harsh"], false),
        // A resume from a directory holding no checkpoint, or only one
        // of an older format version.
        (&["table1", "--scale", "0.0002", "--resume", empty], false),
        (&["table1", "--scale", "0.0002", "--resume", v1], false),
    ];
    for (args, usage) in cases {
        let out = repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "repro {args:?}: {stderr}");
        assert!(stderr.lines().any(|l| l.starts_with("repro: ")), "repro {args:?}: {stderr}");
        assert_eq!(stderr.contains("usage: repro"), usage, "repro {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "repro {args:?} printed artifacts");
        if args.contains(&v1) {
            assert!(
                stderr.lines().any(|l| l.starts_with("repro: ") && l.contains("format version 1")),
                "repro {args:?}: {stderr}"
            );
        }
    }
    assert_eq!(std::fs::read_dir(empty).expect("dir").count(), 0, "a failed resume writes nothing");
    // The version-1 file is neither quarantined nor touched.
    let left: Vec<_> =
        std::fs::read_dir(v1).expect("dir").map(|e| e.expect("entry").file_name()).collect();
    assert_eq!(left, ["ckpt-000001.slumckpt"], "the version-1 dir must hold only its file");
    assert_eq!(std::fs::read(Path::new(v1).join("ckpt-000001.slumckpt")).expect("file"), fixture);
    std::fs::remove_dir_all(empty).ok();
    std::fs::remove_dir_all(v1).ok();
}

#[test]
fn killed_run_resumes_to_the_straight_runs_table() {
    // At this scale a 32-slot cadence takes three rounds, so a kill
    // after round 2 leaves the crawl unfinished.
    let study = [
        "table1",
        "--scale",
        "0.0003",
        "--fault-profile",
        "default",
        "--crawl-fault-profile",
        "default",
        "--checkpoint-every",
        "32",
    ];
    let dir = scratch("ckpt");
    let dir_arg = dir.to_str().expect("UTF-8 path");
    let metrics_path = scratch("resumed.json");

    let straight = stdout_of(&study[..7]);
    let killed =
        stdout_of(&[&study[..], &["--checkpoint", dir_arg, "--kill-after-round", "2"]].concat());
    assert!(killed.is_empty(), "a killed run prints no artifact");
    let resumed = stdout_of(
        &[&study[..], &["--resume", dir_arg, "--metrics", metrics_path.to_str().unwrap()]].concat(),
    );
    assert!(straight.contains("=== Table I"), "{straight}");
    assert_eq!(resumed, straight, "the resumed table1 differs from the straight run's");

    let snapshot = metrics(&metrics_path);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&metrics_path).ok();
    assert_eq!(counter(&snapshot, "crawl.resume.segments_restored"), 2);
    assert!(counter(&snapshot, "crawl.resume.records_restored") > 0);
    assert!(counter(&snapshot, "scan.scans") > 0);
    // Both fault profiles reached the study.
    assert!(counter(&snapshot, "scan.faults.injected") > 0);
    assert!(counter(&snapshot, "crawl.faults.injected") > 0);
}

#[test]
fn substrates_print_every_source() {
    for (substrate, sources) in [
        ("adnet", &["AdRotor", "ClickNimbus", "PopMatrix", "BannerBloom"][..]),
        ("torrent", &["OpenBay", "SeedNest", "RssLeech"][..]),
    ] {
        let metrics_path = scratch(&format!("{substrate}.json"));
        let rendered = stdout_of(&[
            "substrates",
            "--scale",
            "0.0002",
            "--substrate",
            substrate,
            "--metrics",
            metrics_path.to_str().unwrap(),
        ]);
        assert!(rendered.contains(&format!("substrate: {substrate}")), "{rendered}");
        assert!(rendered.contains("overall:"), "{rendered}");
        for source in sources {
            assert!(rendered.contains(source), "{substrate} render lacks {source}:\n{rendered}");
        }
        let snapshot = metrics(&metrics_path);
        std::fs::remove_file(&metrics_path).ok();
        assert!(counter(&snapshot, &format!("crawl.substrate.{substrate}.pages")) > 0);
        let listed = counter(&snapshot, &format!("crawl.substrate.{substrate}.sources"));
        assert_eq!(listed, sources.len() as u64);
        // Every substrate's counters are registered; only the active
        // one's count.
        for other in ["exchange", "adnet", "torrent"].into_iter().filter(|s| *s != substrate) {
            assert_eq!(counter(&snapshot, &format!("crawl.substrate.{other}.pages")), 0);
            assert_eq!(counter(&snapshot, &format!("crawl.substrate.{other}.sources")), 0);
        }
    }
}

#[test]
fn interp_engine_prints_the_same_json() {
    let run = |engine: &str| {
        let metrics_path = scratch(&format!("{engine}.json"));
        let json = stdout_of(&[
            "json",
            "--scale",
            "0.0002",
            "--js-engine",
            engine,
            "--metrics",
            metrics_path.to_str().unwrap(),
        ]);
        let snapshot = metrics(&metrics_path);
        std::fs::remove_file(&metrics_path).ok();
        (json, snapshot)
    };
    let (vm, vm_metrics) = run("vm");
    let (interp, interp_metrics) = run("interp");
    assert!(counter(&vm_metrics, "js.vm.instructions") > 0, "the corpus must run scripts");
    assert_eq!(counter(&interp_metrics, "js.vm.instructions"), 0);
    assert_eq!(interp_metrics["gauges"]["config.js_engine_vm"].as_i64(), Some(0));
    assert!(interp == vm, "the interp export differs from the vm export");
}
