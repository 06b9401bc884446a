//! Cross-crate integration: substrate pieces composed outside the
//! one-call `Study` runner — cloaking end to end, the vetting
//! experiment, the burst-validation experiment, and the crawl→scan
//! hand-off.

use slum_browser::Browser;
use slum_crawler::burst::run_burst_experiment;
use slum_crawler::drive::{crawl_exchange, CrawlConfig};
use slum_crawler::{CrawlRecord, RecordStore};
use slum_detect::quttera::Quttera;
use slum_detect::tools::ToolId;
use slum_detect::vetting::{build_gold_standard, run_vetting, select_tools};
use slum_detect::virustotal::VirusTotal;
use slum_exchange::params::profile;
use slum_exchange::{build_exchange, ExchangeKind};
use slum_websim::build::{MaliciousOptions, WebBuilder};
use slum_websim::rng::seeded;
use slum_websim::{MaliceKind, RequestContext};

use malware_slums::scanpipe::ScanPipeline;

#[test]
fn cloaking_lifecycle_url_scan_misses_upload_catches() {
    // Build one cloaked site; reproduce §III footnote 1 end to end.
    let mut builder = WebBuilder::new(300);
    let spec = builder.malicious_site(MaliciousOptions {
        kind: Some(MaliceKind::Misc),
        cloaked: Some(true),
        ..Default::default()
    });
    let web = builder.finish();

    // 1. Both scanners fetch by URL → cloak serves benign → miss.
    let vt = VirusTotal::new(&web);
    let quttera = Quttera::new(&web);
    assert!(!vt.scan_url(&spec.url).is_malicious());
    assert!(!quttera.scan_url(&spec.url).is_malicious());

    // 2. A crawler's browser captures the real content.
    let load = Browser::new(&web).load(&spec.url);
    let content = load.html.clone().expect("captured content");

    // 3. Uploading the capture defeats the cloak.
    assert!(vt.scan_content(&spec.url, &content).is_malicious());
    assert!(quttera.scan_content(&spec.url, &content).is_malicious());

    // 4. The pipeline does all of this automatically.
    let record = CrawlRecord::from_load("test".into(), 0, 0, &load);
    let pipeline = ScanPipeline::new(&web);
    let outcome = pipeline.scan(&record);
    assert!(outcome.malicious);
    assert!(outcome.needed_content_upload);
}

#[test]
fn vetting_experiment_selects_vt_and_quttera() {
    let gold = build_gold_standard(2016, 30);
    let rows = run_vetting(&gold);
    assert_eq!(rows.len(), 8, "all eight candidate tools vetted");
    let selected = select_tools(&rows);
    assert_eq!(selected, vec![ToolId::VirusTotal, ToolId::Quttera]);
    // Weakest tools at 0%.
    for row in &rows {
        if matches!(row.tool, ToolId::Wepawet | ToolId::AvgThreatLab) {
            assert_eq!(row.detected, 0, "{:?}", row.tool);
        }
    }
}

#[test]
fn burst_experiment_end_to_end_on_manual_exchange() {
    let mut builder = WebBuilder::new(301);
    let dummy = builder.benign_site(Default::default());
    let p = profile("Traffic Monsoon").expect("profile exists");
    let mut exchange = build_exchange(&mut builder, p, 0.05, 500_000);
    let mut rng = seeded(5);

    let before = exchange.campaigns().len();
    let experiment =
        run_burst_experiment(&mut exchange, &dummy.url, 5, 50_000, &mut rng).expect("economy ok");

    assert_eq!(experiment.report.purchased, 2_500);
    assert!(experiment.report.delivered > experiment.report.purchased, "over-delivery");
    assert!(experiment.report.span_secs < 3_600, "visits land within the hour");
    assert_eq!(exchange.campaigns().len(), before + 1);
}

#[test]
fn crawl_then_scan_hand_off_preserves_alignment() {
    let mut builder = WebBuilder::new(302);
    let p = profile("SendSurf").expect("profile exists");
    let mut exchange = build_exchange(&mut builder, p, 0.04, 50_000);
    let web = builder.finish();

    let mut store = RecordStore::new();
    let stats = crawl_exchange(
        &web,
        &mut exchange,
        &CrawlConfig { steps: 120, seed: 9, ..Default::default() },
        &mut store,
    );
    assert_eq!(stats.pages, 120);

    let pipeline = ScanPipeline::new(&web);
    let outcomes = pipeline.scan_all(store.records());
    assert_eq!(outcomes.len(), store.len());

    // SendSurf is the paper's most-infested exchange; even a small crawl
    // must surface a sizeable malicious share among member sites.
    let malicious = outcomes.iter().filter(|o| o.malicious).count();
    assert!(malicious > 10, "SendSurf crawl found only {malicious} malicious of 120");
}

#[test]
fn auto_exchanges_log_faster_than_manual_in_wall_clock_model() {
    // Auto-surf exchanges produced ~50x the pages of manual-surf in the
    // paper (Table I). The simulator models this through CAPTCHA gates
    // and solve time: verify virtual time per page is higher for manual.
    let mut builder = WebBuilder::new(303);
    let auto_profile = profile("Otohits").expect("profile");
    let manual_profile = profile("Cash N Hits").expect("profile");
    let mut auto = build_exchange(&mut builder, auto_profile, 0.04, 50_000);
    let mut manual = build_exchange(&mut builder, manual_profile, 0.04, 50_000);
    assert_eq!(auto.kind(), ExchangeKind::AutoSurf);
    assert_eq!(manual.kind(), ExchangeKind::ManualSurf);
    let web = builder.finish();

    let steps = 60;
    let mut store_a = RecordStore::new();
    let mut store_m = RecordStore::new();
    crawl_exchange(
        &web,
        &mut auto,
        &CrawlConfig { steps, seed: 1, ..Default::default() },
        &mut store_a,
    );
    crawl_exchange(
        &web,
        &mut manual,
        &CrawlConfig { steps, seed: 1, ..Default::default() },
        &mut store_m,
    );
    let span = |s: &RecordStore| {
        let first = s.records().first().map(|r| r.at).unwrap_or(0);
        let last = s.records().last().map(|r| r.at).unwrap_or(0);
        last - first
    };
    // Per-page virtual cost: manual (30s surf + solving) > auto (10s surf).
    assert!(
        span(&store_m) > span(&store_a),
        "manual {} vs auto {}",
        span(&store_m),
        span(&store_a)
    );
}

#[test]
fn scanner_fetches_do_not_pollute_shortener_stats() {
    let mut builder = WebBuilder::new(304);
    let spec =
        builder.shortened_site(slum_websim::Tld::Com, slum_websim::ContentCategory::Business);
    let web = builder.finish();

    let code = spec.url.path().trim_start_matches('/').to_string();
    let service = web.shorteners().service(spec.url.host()).expect("shortener host");
    let before = service.stats(&code).expect("stats").hits;

    // Scanner resolutions must not count as organic hits.
    let vt = VirusTotal::new(&web);
    let _ = vt.scan_url(&spec.url);
    let quttera = Quttera::new(&web);
    let _ = quttera.scan_url(&spec.url);
    assert_eq!(service.stats(&code).expect("stats").hits, before);

    // A browser visit does count.
    let _ = web.fetch(&spec.url, &RequestContext::browser());
    assert_eq!(service.stats(&code).expect("stats").hits, before + 1);
}
