//! `repro` — regenerate every table and figure of *Malware Slums*
//! (DSN 2016) from the simulated ecosystem.
//!
//! ```sh
//! cargo run --release -p slum-bench --bin repro -- all
//! cargo run --release -p slum-bench --bin repro -- table1 --scale 0.01
//! cargo run --release -p slum-bench --bin repro -- vetting burst cloaking cases
//! ```
//!
//! Artifacts: `table1`..`table4`, `fig2`..`fig7` and `substrates`
//! (printed by one loop over [`ArtifactKind::ALL`]), the auxiliary
//! experiments `vetting` (§III-B), `burst` (§IV), `cloaking` (§III
//! fn. 1) and `cases` (§V), `faultloss` (the detection-loss-under-faults
//! experiment), `crawlloss` (the corpus-loss-under-exchange-faults
//! experiment), plus `json` (the full study as one JSON document),
//! `chaos` (the seeded chaos storm: daemon kills, checkpoint
//! corruption, harsh storage faults and tenant panics over a
//! multi-tenant service under two chaos seeds, one line per storm,
//! every survivor's export asserted bit-identical to a fault-free batch
//! run) and `serve` (run the resident study daemon: newline-delimited
//! JSON over TCP, `--port 0` picks an ephemeral port printed as
//! `SERVE_ADDR`, `--root DIR` holds per-tenant checkpoints).
//! Options: `--scale <f64>` (crawl scale, default 0.002), `--seed
//! <u64>` (default 2016), `--workers <N>` (scan-phase worker threads,
//! default = available parallelism; `1` forces the serial path),
//! `--fault-profile <name>` (scan under a named fault profile: `none`,
//! `default`, `harsh`), `--crawl-fault-profile <name>` (crawl under a
//! named exchange-fault profile: `none`, `default`, `harsh`),
//! `--disk-fault-profile <name>` (inject checkpoint-storage faults —
//! torn/short writes, bit flips, ENOSPC — on checkpointed runs and in
//! the `serve` daemon: `none`, `default`, `harsh`; artifacts stay
//! bit-identical, only durability work changes; needs `--checkpoint`,
//! `--resume` or `serve`),
//! `--checkpoint <dir>` (crawl from scratch through a
//! [`CrawlSession`], writing checkpoints into `<dir>`),
//! `--resume <dir>` (continue the crawl from the latest checkpoint in
//! `<dir>`; fails when there is none), `--checkpoint-every <N>` (surf
//! slots per checkpoint segment, default 256; needs `--checkpoint` or
//! `--resume`), `--kill-after-round <N>` (abandon a `--checkpoint` run
//! after N checkpoint rounds — a deterministic stand-in for a crash),
//! `--metrics <path>` (dump the study's observability snapshot —
//! `Study::metrics()` — as JSON), `--js-engine <name>` (`vm`, the
//! default compiled-bytecode engine, or `interp`, the tree-walking
//! oracle — scan output is bit-identical either way) and `--substrate
//! <name>` (traffic substrate to crawl: `exchange`, the paper's nine
//! traffic exchanges and the default; `adnet`, the low-tier ad-network
//! ecosystem; or `torrent`, the torrent-index ecosystem). `--port <N>`
//! and `--root <dir>` configure the `serve` daemon and need the `serve`
//! artifact. An unknown option or artifact name exits with status 2 and
//! the usage line; an option used without the one it needs exits with
//! status 2 and a `repro: ...` message saying what it needs.
//!
//! Timing lives in the separate `slumbench` package
//! (`crates/bench/src/bin/slumbench`).

use std::path::Path;
use std::sync::OnceLock;

use malware_slums::artifact::{Artifact, ArtifactKind};
use malware_slums::report::Render;
use malware_slums::study::{CrawlSession, Restore, Study, StudyConfig, DEFAULT_CHECKPOINT_EVERY};
use malware_slums::substrate::Substrate;
use malware_slums::DiskFaultProfile;
use slum_crawler::CrawlFaultProfile;
use slum_detect::fault::FaultProfile;
use slum_js::sandbox::JsEngine;

/// The synopsis `--help` leads with and argument errors end with.
const USAGE: &str = "usage: repro [artifacts..] [--scale F] [--seed N] [--workers W] \
                     [--fault-profile NAME] [--crawl-fault-profile NAME] \
                     [--checkpoint DIR | --resume DIR] [--checkpoint-every N] \
                     [--kill-after-round N] [--disk-fault-profile NAME] [--metrics PATH] \
                     [--js-engine NAME] [--substrate NAME]\n       \
                     repro serve [--port N] [--root DIR] [--disk-fault-profile NAME]";

/// Artifact names beyond the [`ArtifactKind`] ones.
const EXTRA_ARTIFACTS: [&str; 11] = [
    "all", "vetting", "burst", "cloaking", "staleness", "faultloss", "crawlloss", "cases", "json",
    "chaos", "serve",
];

struct Args {
    artifacts: Vec<String>,
    scale: f64,
    seed: u64,
    workers: usize,
    fault_profile: FaultProfile,
    crawl_fault_profile: CrawlFaultProfile,
    disk_fault_profile: Option<DiskFaultProfile>,
    checkpoint: Option<String>,
    checkpoint_every: Option<u64>,
    resume: Option<String>,
    kill_after_round: Option<u64>,
    metrics: Option<String>,
    js_engine: JsEngine,
    substrate: Substrate,
    port: Option<u16>,
    serve_root: Option<String>,
}

fn parse_args() -> Args {
    let mut artifacts = Vec::new();
    let mut scale = 0.002;
    let mut seed = 2016;
    let mut workers = malware_slums::study::default_scan_workers();
    let mut fault_profile = FaultProfile::none();
    let mut crawl_fault_profile = CrawlFaultProfile::none();
    let mut disk_fault_profile = None;
    let mut checkpoint = None;
    let mut checkpoint_every = None;
    let mut resume = None;
    let mut kill_after_round = None;
    let mut metrics = None;
    let mut js_engine = JsEngine::default();
    let mut substrate = Substrate::default();
    let mut port = None;
    let mut serve_root = None;
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => {
                scale = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a float"));
            }
            "--seed" => {
                seed = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--workers" => {
                workers = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|w| *w >= 1)
                    .unwrap_or_else(|| die("--workers needs a positive integer"));
            }
            "--fault-profile" => {
                let name = iter.next().unwrap_or_else(|| die("--fault-profile needs a name"));
                fault_profile = FaultProfile::parse(&name).unwrap_or_else(|| {
                    die(&format!(
                        "unknown fault profile '{name}' (known: {})",
                        FaultProfile::NAMES.join(", ")
                    ))
                });
            }
            "--crawl-fault-profile" => {
                let name =
                    iter.next().unwrap_or_else(|| die("--crawl-fault-profile needs a name"));
                crawl_fault_profile = CrawlFaultProfile::parse(&name).unwrap_or_else(|| {
                    die(&format!(
                        "unknown crawl fault profile '{name}' (known: {})",
                        CrawlFaultProfile::NAMES.join(", ")
                    ))
                });
            }
            "--disk-fault-profile" => {
                let name =
                    iter.next().unwrap_or_else(|| die("--disk-fault-profile needs a name"));
                disk_fault_profile = Some(DiskFaultProfile::parse(&name).unwrap_or_else(|| {
                    die(&format!(
                        "unknown disk fault profile '{name}' (known: {})",
                        DiskFaultProfile::NAMES.join(", ")
                    ))
                }));
            }
            "--checkpoint" => {
                checkpoint = Some(iter.next().unwrap_or_else(|| die("--checkpoint needs a dir")));
            }
            "--checkpoint-every" => {
                checkpoint_every = Some(
                    iter.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|n| *n >= 1)
                        .unwrap_or_else(|| die("--checkpoint-every needs a positive integer")),
                );
            }
            "--resume" => {
                resume = Some(iter.next().unwrap_or_else(|| die("--resume needs a dir")));
            }
            "--kill-after-round" => {
                kill_after_round = Some(
                    iter.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|n| *n >= 1)
                        .unwrap_or_else(|| die("--kill-after-round needs a positive integer")),
                );
            }
            "--metrics" => {
                metrics = Some(iter.next().unwrap_or_else(|| die("--metrics needs a path")));
            }
            "--js-engine" => {
                let name = iter.next().unwrap_or_else(|| die("--js-engine needs a name"));
                js_engine = JsEngine::parse(&name).unwrap_or_else(|| {
                    die(&format!("unknown JS engine '{name}' (known: vm, interp)"))
                });
            }
            "--substrate" => {
                let name = iter.next().unwrap_or_else(|| die("--substrate needs a name"));
                substrate = Substrate::parse(&name).unwrap_or_else(|| {
                    die(&format!(
                        "unknown substrate '{name}' (known: {})",
                        Substrate::NAMES.join(", ")
                    ))
                });
            }
            "--port" => {
                port = Some(
                    iter.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--port needs an integer (0 = ephemeral)")),
                );
            }
            "--root" => {
                serve_root = Some(iter.next().unwrap_or_else(|| die("--root needs a dir")));
            }
            "--help" | "-h" => {
                println!(
                    "{USAGE}\n\
                     artifacts: all table1 table2 table3 table4 fig2 fig3 fig4 fig5 fig6 fig7 \
                     substrates vetting burst cloaking staleness faultloss crawlloss cases json \
                     chaos serve\n\
                     fault profiles: none default harsh (scan, crawl and disk alike; \
                     --disk-fault-profile injects torn/short writes, bit flips and ENOSPC \
                     into checkpoint storage — artifacts stay bit-identical — and needs \
                     --checkpoint, --resume or serve)\n\
                     JS engines: vm (default; compiled bytecode) interp (tree-walking oracle) \
                     — scan output is bit-identical either way\n\
                     substrates: exchange (default; the paper's nine traffic exchanges) \
                     adnet (low-tier ad networks) torrent (torrent indexes)\n\
                     checkpoints: --checkpoint DIR crawls from scratch writing checkpoints \
                     into DIR, --resume DIR continues from its latest one (and fails when \
                     there is none); --checkpoint-every and --kill-after-round need one of \
                     them\n\
                     chaos: seeded storm of daemon kills, checkpoint corruption, disk \
                     faults and tenant panics under two chaos seeds; asserts every \
                     export bit-identical to batch\n\
                     serve: run the resident multi-tenant study daemon (newline-delimited \
                     JSON over TCP; --port 0 picks an ephemeral port, printed as \
                     SERVE_ADDR; --root DIR holds per-tenant checkpoints; both options \
                     need serve)"
                );
                std::process::exit(0);
            }
            other if other.starts_with("--") => {
                die(&format!("unknown option '{other}'\n{USAGE}"));
            }
            other => {
                if ArtifactKind::parse(other).is_none() && !EXTRA_ARTIFACTS.contains(&other) {
                    die(&format!("unknown artifact '{other}'\n{USAGE}"));
                }
                artifacts.push(other.to_string());
            }
        }
    }
    if artifacts.is_empty() {
        artifacts.push("all".to_string());
    }
    if kill_after_round.is_some() && checkpoint.is_none() {
        die("--kill-after-round requires --checkpoint DIR");
    }
    if resume.is_some() && checkpoint.is_some() {
        die("--resume continues writing into its own dir; drop --checkpoint");
    }
    if checkpoint_every.is_some() && checkpoint.is_none() && resume.is_none() {
        die("--checkpoint-every requires --checkpoint DIR or --resume DIR");
    }
    let serve = artifacts.iter().any(|a| a == "serve");
    if port.is_some() && !serve {
        die("--port requires the serve artifact");
    }
    if serve_root.is_some() && !serve {
        die("--root requires the serve artifact");
    }
    if disk_fault_profile.is_some() && checkpoint.is_none() && resume.is_none() && !serve {
        die("--disk-fault-profile requires --checkpoint DIR, --resume DIR or serve");
    }
    Args {
        artifacts,
        scale,
        seed,
        workers,
        fault_profile,
        crawl_fault_profile,
        disk_fault_profile,
        checkpoint,
        checkpoint_every,
        resume,
        kill_after_round,
        metrics,
        js_engine,
        substrate,
        port,
        serve_root,
    }
}

/// The process's peak resident set so far, in MiB: `VmHWM` of
/// `/proc/self/status`, or `None` where that file cannot be read.
fn peak_rss_mib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|line| line.strip_prefix("VmHWM:"))?;
    let kib: u64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib.div_ceil(1024))
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}

fn main() {
    let args = parse_args();
    // `serve` owns the process: the daemon runs until a shutdown
    // request arrives, no batch artifacts are produced.
    if args.artifacts.iter().any(|a| a == "serve") {
        run_serve(&args);
        return;
    }
    let wants = |name: &str| args.artifacts.iter().any(|a| a == name || a == "all");
    let study_cell: OnceLock<Study> = OnceLock::new();
    let study = || {
        study_cell.get_or_init(|| {
            eprintln!(
                "[repro] running study: substrate={} crawl_scale={} seed={} fault_profile={} \
                 crawl_fault_profile={} ...",
                args.substrate.name(),
                args.scale,
                args.seed,
                args.fault_profile.name,
                args.crawl_fault_profile.name
            );
            let t0 = std::time::Instant::now();
            let mut builder = StudyConfig::builder()
                .seed(args.seed)
                .crawl_scale(args.scale)
                .domain_scale((args.scale * 25.0).clamp(0.03, 1.0))
                .scan_workers(args.workers)
                .js_engine(args.js_engine)
                .substrate(args.substrate)
                .fault_profile(args.fault_profile.clone())
                .crawl_fault_profile(args.crawl_fault_profile.clone());
            if let Some(profile) = &args.disk_fault_profile {
                builder = builder.disk_fault_profile(profile.clone());
            }
            // `--checkpoint` crawls from scratch and `--resume` restores
            // the newest intact generation (failing on an empty dir);
            // both run the crawl through one `CrawlSession`.
            let checkpointed = match (&args.checkpoint, &args.resume) {
                (Some(dir), _) => Some((dir, Restore::Never)),
                (None, Some(dir)) => Some((dir, Restore::Required)),
                (None, None) => None,
            };
            if checkpointed.is_some() {
                builder = builder
                    .checkpoint_every(args.checkpoint_every.unwrap_or(DEFAULT_CHECKPOINT_EVERY));
            }
            let config = builder
                .build()
                .unwrap_or_else(|e| die(&format!("invalid configuration: {e}")));
            let study = match checkpointed {
                None => Study::run(&config),
                Some((dir, restore)) => {
                    if restore == Restore::Required {
                        eprintln!("[repro] resuming crawl from latest checkpoint in {dir}");
                    }
                    let rounds = args.kill_after_round.unwrap_or(u64::MAX);
                    let session = CrawlSession::open(&config, Path::new(dir), restore)
                        .and_then(|session| session.advance(rounds))
                        .unwrap_or_else(|e| die(&format!("checkpointed run failed: {e}")));
                    if !session.crawl_done() {
                        eprintln!(
                            "[repro] crawl killed after {rounds} checkpoint round(s); \
                             state saved in {dir} (continue with --resume {dir})"
                        );
                        std::process::exit(0);
                    }
                    session.finish(None)
                }
            };
            eprintln!(
                "[repro] study done: {} visits in {:?}",
                study.store.len(),
                t0.elapsed()
            );
            let snapshot = study.metrics();
            eprintln!(
                "[repro] phases: build {:?}  crawl {:?}  scan {:?} ({} worker(s))",
                snapshot.span_duration("phase.build"),
                snapshot.span_duration("phase.crawl"),
                snapshot.span_duration("phase.scan"),
                snapshot.gauge("scan.workers").max(1)
            );
            if let Some(mib) = peak_rss_mib() {
                eprintln!("[repro] peak RSS {mib} MiB");
            }
            eprintln!();
            study
        })
    };

    // Every published table and figure goes through the unified
    // artifact API: one loop, one render call.
    for kind in ArtifactKind::ALL {
        if !wants(kind.name()) {
            continue;
        }
        let mut artifact = study().artifact(kind);
        // Table IV has hundreds of rows at scale; print the paper-sized
        // excerpt.
        if let Artifact::Table4(rows) = &mut artifact {
            rows.truncate(24);
        }
        println!("=== {} ===", kind.title());
        println!("{}", artifact.render());
    }
    if wants("vetting") {
        println!("=== SIII-B: gold-standard tool vetting ===");
        let gold = slum_detect::vetting::build_gold_standard(args.seed, 50);
        for row in slum_detect::vetting::run_vetting(&gold) {
            println!(
                "{:<16} {:>3}/{:<3} = {:>4.0}%   (paper {:>4.0}%){}",
                row.tool.name(),
                row.detected,
                row.total,
                row.accuracy() * 100.0,
                row.tool.paper_accuracy() * 100.0,
                if row.tool.selected() { "  <- selected" } else { "" }
            );
        }
        println!();
    }
    if wants("burst") {
        println!("=== SIV: paid-campaign burst validation ===");
        let mut builder = slum_websim::build::WebBuilder::new(args.seed);
        let dummy = builder.benign_site(Default::default());
        let profile = slum_exchange::params::profile("Cash N Hits").expect("profile");
        let mut exchange = slum_exchange::build_exchange(&mut builder, profile, 0.05, 500_000);
        let mut rng = slum_websim::rng::seeded(args.seed);
        let exp = slum_crawler::burst::run_burst_experiment(
            &mut exchange,
            &dummy.url,
            5,
            100_000,
            &mut rng,
        )
        .expect("fresh account");
        println!("purchased {} visits for ${}", exp.report.purchased, exp.campaign.dollars);
        println!("delivered {} visits (paper: 4,621)", exp.report.delivered);
        println!("unique IPs {} (paper: 2,685)", exp.report.unique_ips);
        println!("span {}s (paper: <1h)\n", exp.report.span_secs);
    }
    if wants("cloaking") {
        println!("=== SIII fn.1: cloaking vs content upload ===");
        let s = study();
        let uploads = s.outcomes.iter().filter(|o| o.needed_content_upload).count();
        let malicious = s.outcomes.iter().filter(|o| o.malicious).count();
        println!(
            "{} of {} malicious URLs were only caught by uploading crawler-captured content\n",
            uploads, malicious
        );
    }
    if args.artifacts.iter().any(|a| a == "json") {
        match malware_slums::export::to_json(study()) {
            Ok(json) => println!("{json}"),
            Err(e) => eprintln!("repro: JSON export failed: {e}"),
        }
    }
    if wants("staleness") {
        println!("=== Blacklist update-lag experiment ===");
        let report = malware_slums::staleness::run_lag_experiment(
            &malware_slums::staleness::LagConfig { seed: args.seed, ..Default::default() },
        );
        println!(
            "fresh-detectable visits: {}   caught through lagged lists: {}   missed: {} ({:.1}%)",
            report.flagged_fresh,
            report.flagged_stale,
            report.missed_by_lag,
            report.miss_fraction() * 100.0
        );
        println!(
            "mean onset-to-consensus lag: {:.1} days\n",
            report.mean_consensus_lag_secs / 86_400.0
        );
    }
    if wants("faultloss") {
        println!("=== Detection loss under service faults ===");
        // `--fault-profile none` (the default) would diff a fault-free
        // run against itself; exercise the moderate profile instead.
        let profile = if args.fault_profile.is_inert() {
            FaultProfile::default_profile()
        } else {
            args.fault_profile.clone()
        };
        let report = malware_slums::faultloss::run_fault_loss_experiment(
            &malware_slums::faultloss::FaultLossConfig {
                seed: args.seed,
                profile,
                ..Default::default()
            },
        );
        println!(
            "profile '{}': {} regular records, {} baseline detections",
            report.profile, report.regular, report.malicious_baseline
        );
        println!(
            "kept under faults: {}   missed: {} ({:.1}%)",
            report.malicious_faulted,
            report.missed_by_faults,
            report.miss_fraction() * 100.0
        );
        println!(
            "degraded verdicts: {}   blacklist-only: {}   unresolved: {}  ({:.1}% non-full)",
            report.degraded_verdicts,
            report.blacklist_only_verdicts,
            report.unresolved_verdicts,
            report.degraded_fraction() * 100.0
        );
        println!(
            "faults injected: {}   retries: {}   virtual backoff: {:.1}s   breaker skips: {}\n",
            report.injected_faults,
            report.retries,
            report.backoff_nanos as f64 / 1e9,
            report.breaker_skips
        );
    }
    if wants("crawlloss") {
        println!("=== Corpus loss under exchange faults ===");
        // As with `faultloss`: an inert profile would diff a fault-free
        // crawl against itself, so substitute the moderate one.
        let profile = if args.crawl_fault_profile.is_inert() {
            CrawlFaultProfile::default_profile()
        } else {
            args.crawl_fault_profile.clone()
        };
        let report = malware_slums::crawlloss::run_crawl_loss_experiment(
            &malware_slums::crawlloss::CrawlLossConfig {
                seed: args.seed,
                profile,
                ..Default::default()
            },
        );
        println!(
            "profile '{}': kept {} of {} planned pages ({:.1}% coverage)",
            report.profile,
            report.pages_faulted,
            report.pages_baseline,
            report.coverage_fraction() * 100.0
        );
        println!(
            "slots lost: {}   permanent shutdowns: {}",
            report.lost_steps, report.shutdowns
        );
        println!(
            "overall malice rate: {:.2}% -> {:.2}%  (bias {:+.2} pp)",
            report.overall_rate_baseline * 100.0,
            report.overall_rate_faulted * 100.0,
            report.overall_bias() * 100.0
        );
        for row in &report.rows {
            println!(
                "  {:<18} kept {:>4}/{:<4}  lost {:>4}  down {:>6}s  rate {:>5.1}% -> {:>5.1}%{}",
                row.exchange,
                row.pages_faulted,
                row.planned_steps,
                row.lost_steps,
                row.downtime_secs,
                row.rate_baseline() * 100.0,
                row.rate_faulted() * 100.0,
                match row.shutdown_at {
                    Some(t) => format!("  (shut down at t={t}s)"),
                    None => String::new(),
                }
            );
        }
        println!();
    }
    if wants("cases") {
        println!("=== SV: case studies ===");
        let s = study();
        let iframes = s.iframe_case_studies();
        let mut by_kind = std::collections::BTreeMap::new();
        for e in &iframes {
            *by_kind.entry(format!("{:?}", e.kind)).or_insert(0u64) += 1;
        }
        println!("iframe injections: {} exhibits {:?}", iframes.len(), by_kind);
        let downloads = s.download_case_studies();
        println!("deceptive downloads: {} exhibits", downloads.len());
        for d in downloads.iter().take(3) {
            println!("  {} -> {:?}", d.url, d.filenames);
        }
        let rotators = s.rotator_case_studies();
        println!("rotating redirectors: {} exhibits", rotators.len());
        for r in rotators.iter().take(3) {
            println!("  {} -> {} -> {} destinations", r.page, r.script, r.destinations.len());
        }
        let flash = s.flash_case_studies();
        println!("flash click-jacks: {} exhibits", flash.len());
        for f in flash.iter().take(3) {
            println!("  {} movie={} calls={:?}", f.url, f.movie_name, f.external_calls);
        }
        let fps = s.false_positive_case_studies();
        println!("false positives: {} exhibits", fps.len());
        for fp in fps.iter().take(3) {
            println!("  {} kind={:?} labels={:?}", fp.url, fp.kind, fp.labels);
        }

        // The paper's Code-listing style exhibits.
        let snippets = malware_slums::snippets::collect(&s.web, &s.regular_pairs());
        for snippet in &snippets {
            println!("\n--- {} ({})", snippet.caption, snippet.url);
            for line in snippet.listing.lines().take(12) {
                println!("    {line}");
            }
        }
        println!();
    }
    // Explicitly requested only — the storm runs its own studies, so it
    // stays out of `all`.
    if args.artifacts.iter().any(|a| a == "chaos") {
        println!("=== Seeded chaos storm over the study service ===");
        run_chaos(args.seed);
    }
    if let Some(path) = &args.metrics {
        let json = study().metrics().to_json();
        match std::fs::write(path, json) {
            Ok(()) => eprintln!("[repro] wrote metrics snapshot to {path}"),
            Err(e) => die(&format!("could not write {path}: {e}")),
        }
    }
}

/// `repro serve`: the resident multi-tenant study daemon. Binds
/// `--port` (0 = ephemeral), prints the bound address as a
/// `SERVE_ADDR host:port` line for scripted clients, checkpoints every
/// tenant's studies under `--root`, and blocks until a `shutdown`
/// request arrives over the wire.
fn run_serve(args: &Args) {
    use std::io::Write as _;

    let root = args.serve_root.clone().unwrap_or_else(|| "serve-root".to_string());
    let service = slum_serve::Service::open(&root)
        .unwrap_or_else(|e| die(&format!("could not open serve root {root}: {e}")))
        .with_disk_fault_profile(
            args.disk_fault_profile.clone().unwrap_or_else(DiskFaultProfile::none),
        );
    let bind = format!("127.0.0.1:{}", args.port.unwrap_or(0));
    let mut daemon = slum_serve::Daemon::start(service, &bind)
        .unwrap_or_else(|e| die(&format!("could not bind {bind}: {e}")));
    println!("SERVE_ADDR {}", daemon.addr());
    let _ = std::io::stdout().flush();
    eprintln!(
        "[repro] study service listening on {} (root {root}); \
         send {{\"op\":\"shutdown\"}} to stop",
        daemon.addr()
    );
    daemon.wait();
    eprintln!("[repro] study service stopped");
}

/// The seeded chaos harness behind `repro chaos`: runs the
/// [`slum_serve::chaos`] storm (daemon kills, checkpoint corruption,
/// harsh storage faults, tenant panics) over a multi-tenant service and
/// asserts every survivor's export is bit-identical to a fault-free
/// batch run, printing one line per storm.
///
/// It storms under two chaos seeds — two completely different
/// fault/scheduling orders — to show that the order of faults never
/// leaks into artifacts.
fn run_chaos(seed: u64) {
    use slum_serve::chaos::{run_storm, StormConfig};

    let base = StormConfig { study_seed: seed, ..StormConfig::default() };
    eprintln!(
        "[chaos] batch reference studies ({} tenant(s), crawl_scale {}) ...",
        base.tenants, base.crawl_scale
    );
    let batches: Vec<String> = (0..base.tenants)
        .map(|t| {
            malware_slums::export::to_json(&Study::run(&base.batch_config(t)))
                .expect("batch export")
        })
        .collect();

    // The storm injects tenant panics that the service's slice
    // supervision catches; without this filter every one of them would
    // spray a backtrace over the report. Real (invariant) panics still
    // reach the default hook. The filter stays installed — run_chaos
    // runs last and the process exits right after.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.contains("chaos: injected"))
            .or_else(|| {
                info.payload().downcast_ref::<String>().map(|s| s.contains("chaos: injected"))
            })
            .unwrap_or(false);
        if !injected {
            default_hook(info);
        }
    }));

    for chaos_seed in [0xbad5_eed0, 0x5ca1_ab1e] {
        let root = std::env::temp_dir()
            .join(format!("slum-chaos-{chaos_seed:08x}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        eprintln!(
            "[chaos] storm {chaos_seed:#010x}: {} actions, profile '{}' ...",
            base.actions, base.disk_fault_profile.name
        );
        let report = run_storm(&root, &StormConfig { chaos_seed, ..base.clone() });
        for (t, export) in report.exports.iter().enumerate() {
            assert_eq!(
                export, &batches[t],
                "tenant t{t} diverged from the fault-free batch under chaos \
                 seed {chaos_seed:#x}"
            );
        }
        println!(
            "  storm {chaos_seed:#010x}: {} kill(s), {} corruption(s), {} panic(s); \
             {} quarantined, {} rollback(s); every export bit-identical to batch",
            report.kills,
            report.corruptions,
            report.panics,
            report.quarantined,
            report.rollbacks
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
