//! `slumbench`: run, trace and compare the malware-slums benchmark.
//!
//! ```text
//! slumbench run     [--workload W].. [--seed S] [--repeats N] [--seconds S] [--trace 0|1] [--out FILE]
//! slumbench trace   --workload W [--seed S]
//! slumbench compare PARENT.json CHANGE.json
//! ```
//!
//! `run` prints every metric as `workload metric value unit
//! median/min/max n`, appends the run to `target/slumbench/run-<rev>.json`
//! and ends each workload with one JSON line carrying the metrics
//! `BENCHMARK.json` names. `worker` and `daemon` are the child processes
//! `run` spawns.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

use serde_json::Value;
use slumbench::compare;
use slumbench::record::{self, Host, RunFile, RunRecord, WorkloadRecord, CATALOG};
use slumbench::stats;
use slumbench::trace::{self, TraceOutcome};
use slumbench::workload::{self, Budget, Env, WorkerMode, Workload, FULL, TOY};

/// Outputs and scratch space, relative to the working directory.
const OUT_DIR: &str = "target/slumbench";

/// Default seed.
const DEFAULT_SEED: u64 = 2016;

/// Default repeats when no `--seconds` budget is given.
const DEFAULT_REPEATS: usize = 3;

const USAGE: &str = "usage:
  slumbench run [--workload W].. [--seed S] [--repeats N] [--seconds S] [--trace 0|1] [--out FILE]
  slumbench trace --workload W [--seed S]
  slumbench compare PARENT.json CHANGE.json
workloads: study-exchange study-adnet-faults serve-mixed serve-query";

#[derive(Debug, Default)]
struct Opts {
    workloads: Vec<Workload>,
    seed: Option<u64>,
    repeats: Option<usize>,
    seconds: Option<f64>,
    trace: bool,
    toy: bool,
    out: Option<PathBuf>,
    mode: Option<WorkerMode>,
    root: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let bad = |flag: &str, v: &str| format!("{flag}: bad value {v:?}");
        match arg.as_str() {
            "--workload" => {
                let v = value(arg)?;
                o.workloads
                    .push(Workload::parse(&v).ok_or_else(|| bad(arg, &v))?);
            }
            "--seed" => {
                let v = value(arg)?;
                o.seed = Some(v.parse().map_err(|_| bad(arg, &v))?);
            }
            "--repeats" => {
                let v = value(arg)?;
                o.repeats = Some(
                    v.parse()
                        .ok()
                        .filter(|n| *n > 0)
                        .ok_or_else(|| bad(arg, &v))?,
                );
            }
            "--seconds" => {
                let v = value(arg)?;
                let s: f64 = v.parse().map_err(|_| bad(arg, &v))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad(arg, &v));
                }
                o.seconds = Some(s);
            }
            "--trace" => {
                let v = value(arg)?;
                o.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(arg, &v)),
                };
            }
            "--mode" => {
                let v = value(arg)?;
                o.mode = Some(WorkerMode::parse(&v).ok_or_else(|| bad(arg, &v))?);
            }
            "--out" => o.out = Some(PathBuf::from(value(arg)?)),
            "--root" => o.root = Some(PathBuf::from(value(arg)?)),
            "--toy" => o.toy = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => o.positional.push(arg.clone()),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = args
        .split_first()
        .map_or(("", &[][..]), |(c, r)| (c.as_str(), r));
    let result = parse_opts(rest).and_then(|opts| match command {
        "run" => cmd_run(&opts),
        "trace" => cmd_run(&Opts {
            trace: true,
            ..opts
        }),
        "compare" => cmd_compare(&opts),
        "worker" => cmd_worker(&opts),
        "daemon" => cmd_daemon(&opts),
        _ => Err(USAGE.to_string()),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("slumbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn env(opts: &Opts) -> Result<Env, String> {
    Ok(Env {
        exe: std::env::current_exe().map_err(|e| format!("own executable: {e}"))?,
        out_dir: PathBuf::from(OUT_DIR),
        sizes: if opts.toy { TOY } else { FULL },
    })
}

/// The final JSON line of a workload; an error when a listed metric is
/// missing.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    listed: &[(String, String)],
    value: impl Fn(&str) -> Option<f64>,
) -> Result<String, String> {
    let mut metrics = Vec::new();
    for (name, unit) in listed {
        let v = value(name)
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("metric {name} missing"))?;
        let entry = vec![
            ("value".to_string(), Value::F64(v)),
            ("unit".to_string(), Value::Str(unit.clone())),
        ];
        metrics.push((name.clone(), Value::Map(entry)));
    }
    let line = Value::Map(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::U64(attempted.max(1))),
        ("failed".to_string(), Value::U64(failed)),
        ("metrics".to_string(), Value::Map(metrics)),
    ]);
    serde_json::to_string(&line).map_err(|e| e.to_string())
}

fn cmd_run(opts: &Opts) -> Result<bool, String> {
    let env = env(opts)?;
    let seed = opts.seed.unwrap_or(DEFAULT_SEED);
    let workloads = if opts.workloads.is_empty() {
        Workload::ALL.to_vec()
    } else {
        opts.workloads.clone()
    };
    let mut all_ok = true;
    if opts.trace {
        let listed = record::benchmark_metrics("per_layer");
        for w in workloads {
            let outcome = trace::trace_workload(&env, w, seed)?;
            let path = env.out_dir.join(format!("trace-{}.json", w.name()));
            trace::write_spans(&path, &outcome.spans)?;
            print_trace(w, &outcome);
            let correct = outcome.failed == 0;
            let line = result_line(correct, outcome.attempted, outcome.failed, &listed, |n| {
                outcome.metrics.get(n).copied()
            })?;
            println!("{line}");
            all_ok &= correct;
        }
        return Ok(all_ok);
    }
    let listed = record::benchmark_metrics("end_to_end");
    let budget = Budget {
        seed,
        seconds: opts.seconds,
        min_repeats: opts.repeats.unwrap_or(if opts.seconds.is_some() {
            1
        } else {
            DEFAULT_REPEATS
        }),
    };
    let rev = record::git_rev();
    let mut run = RunRecord {
        rev: rev.clone(),
        host: Host {
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        },
        seed,
        started_unix_ms: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64),
        toy: opts.toy,
        workloads: BTreeMap::new(),
    };
    for w in workloads {
        let rec = workload::run_workload(&env, w, budget);
        print_run(w, &run, &rec);
        let correct = rec.failed == 0 && rec.valid;
        all_ok &= correct;
        if rec.valid {
            let line = result_line(correct, rec.attempted, rec.failed, &listed, |n| {
                rec.value(n)
            })?;
            println!("{line}");
        }
        run.workloads.insert(w.name().to_string(), rec);
    }
    let out = opts
        .out
        .clone()
        .unwrap_or_else(|| env.out_dir.join(format!("run-{rev}.json")));
    RunFile::append(&out, run)?;
    eprintln!("slumbench: appended the run to {}", out.display());
    Ok(all_ok)
}

fn print_run(w: Workload, run: &RunRecord, rec: &WorkloadRecord) {
    println!(
        "# {} rev {} host.cpus {} seed {} valid {} serve_root_fs {} late_ms_tail {}",
        w.name(),
        run.rev,
        run.host.cpus,
        run.seed,
        rec.valid,
        rec.serve_root_fs.as_deref().unwrap_or("-"),
        rec.late_ms_tail
            .map_or("-".to_string(), |v| format!("{v:.3}")),
    );
    if let Some(reason) = &rec.invalid_reason {
        println!("# {} invalid: {reason}", w.name());
    }
    for spec in CATALOG {
        let Some(samples) = rec.metrics.get(spec.name) else {
            continue;
        };
        let v = &samples.values;
        let min = v.iter().copied().fold(f64::INFINITY, f64::min);
        let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        match (rec.valid, stats::median(v)) {
            (true, Some(med)) => println!(
                "{} {} {med:.6} {} {med:.6}/{min:.6}/{max:.6} {}",
                w.name(),
                spec.name,
                spec.unit,
                v.len()
            ),
            _ => println!(
                "{} {} invalid {} -/-/- {}",
                w.name(),
                spec.name,
                spec.unit,
                v.len()
            ),
        }
    }
    let ratio = rec.failed_ratio();
    println!(
        "{} failed_ratio {ratio:.6} fraction {ratio:.6}/{ratio:.6}/{ratio:.6} {}",
        w.name(),
        rec.attempted
    );
    for (note, value) in &rec.notes {
        println!("# {} {note} {value:.6}", w.name());
    }
    let _ = std::io::stdout().flush();
}

fn print_trace(w: Workload, outcome: &TraceOutcome) {
    println!("# {} spans: name count total_ms self_ms", w.name());
    for (name, (count, total, own)) in trace::self_times(&outcome.spans) {
        println!("# {} span {name} {count} {total:.3} {own:.3}", w.name());
    }
    for (name, unit, moves) in trace::LAYER_METRICS {
        if let Some(v) = outcome.metrics.get(*name) {
            println!("{} {name} {v:.6} {unit}   -> {moves}", w.name());
        }
    }
    for (note, value) in &outcome.notes {
        println!("# {} {note} {value:.6}", w.name());
    }
    println!(
        "# {} checks {} failed {}",
        w.name(),
        outcome.attempted,
        outcome.failed
    );
    let _ = std::io::stdout().flush();
}

fn cmd_compare(opts: &Opts) -> Result<bool, String> {
    let [parent, change] = opts.positional.as_slice() else {
        return Err("compare needs PARENT.json CHANGE.json".to_string());
    };
    let rows = compare::compare(
        &RunFile::read(parent.as_ref())?,
        &RunFile::read(change.as_ref())?,
    )?;
    print!("{}", compare::render(&rows));
    Ok(!rows
        .iter()
        .any(|r| r.verdict == compare::Verdict::Regressed))
}

/// The study worker: reports READY once set up, then, unless it is a
/// set-up probe, one SAMPLE line.
fn cmd_worker(opts: &Opts) -> Result<bool, String> {
    let w = *opts.workloads.first().ok_or("worker needs --workload")?;
    let mode = opts.mode.ok_or("worker needs --mode")?;
    let sizes = if opts.toy { TOY } else { FULL };
    let config = workload::study_config(w, opts.seed.unwrap_or(DEFAULT_SEED), &sizes);
    println!("READY");
    let _ = std::io::stdout().flush();
    let sample = match mode {
        WorkerMode::Setup => return Ok(true),
        WorkerMode::Study | WorkerMode::Traced => serde_json::to_string(
            &workload::study_in_process(&config, mode == WorkerMode::Traced),
        ),
        WorkerMode::Staged => serde_json::to_string(&trace::staged_in_process(&config)),
    };
    println!("SAMPLE {}", sample.map_err(|e| e.to_string())?);
    Ok(true)
}

/// The daemon child: a `Service` behind a loopback `Daemon`, printing
/// its address and serving until a `shutdown` request.
fn cmd_daemon(opts: &Opts) -> Result<bool, String> {
    let root = opts.root.clone().ok_or("daemon needs --root")?;
    let service = slum_serve::Service::open(&root).map_err(|e| e.to_string())?;
    let mut daemon =
        slum_serve::Daemon::start(service, "127.0.0.1:0").map_err(|e| e.to_string())?;
    println!("SERVE_ADDR {}", daemon.addr());
    let _ = std::io::stdout().flush();
    daemon.wait();
    Ok(true)
}
