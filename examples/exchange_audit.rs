//! Exchange audit: crawl a single exchange and drill into what a member
//! is actually exposed to — the workload the paper's introduction
//! motivates ("users of these exchanges most likely do not understand
//! the risks").
//!
//! ```sh
//! cargo run --release --example exchange_audit [exchange-name]
//! ```

use malware_slums::case_studies;
use malware_slums::categorize::{categorize, Category};
use malware_slums::scanpipe::ScanPipeline;
use slum_crawler::drive::{crawl_exchange, estimated_span_secs, CrawlConfig};
use slum_crawler::RecordStore;
use slum_exchange::params::{profile, PROFILES};
use slum_exchange::build_exchange;
use slum_websim::build::WebBuilder;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "SendSurf".to_string());
    let Some(p) = profile(&name) else {
        eprintln!("unknown exchange {name:?}; pick one of:");
        for p in &PROFILES {
            eprintln!("  {}", p.name);
        }
        std::process::exit(1);
    };

    println!("Auditing {} ({})\n", p.name, p.kind.label());
    let steps = 400;
    let mut builder = WebBuilder::new(99);
    let span = estimated_span_secs(p.min_surf_secs, p.kind, steps);
    let mut exchange = build_exchange(&mut builder, p, 0.08, span);
    let web = builder.finish();

    let mut store = RecordStore::new();
    let stats = crawl_exchange(
        &web,
        &mut exchange,
        &CrawlConfig { steps, seed: 99, ..Default::default() },
        &mut store,
    );
    println!(
        "crawled {} pages ({} CAPTCHA failures, {} load failures, {} milli-credits earned)",
        stats.pages, stats.captcha_failures, stats.load_failures, stats.credits_earned_millis
    );
    println!(
        "distinct URLs: {}   distinct domains: {}\n",
        store.distinct_urls(),
        store.distinct_domains()
    );

    let pipeline = ScanPipeline::new(&web);
    let outcomes = pipeline.scan_all(store.records());
    let malicious = outcomes.iter().filter(|o| o.malicious).count();
    println!(
        "scan verdicts: {malicious} of {} visits malicious ({:.1}%)\n",
        outcomes.len(),
        malicious as f64 / outcomes.len() as f64 * 100.0
    );

    // Category breakdown for this exchange alone.
    let mut by_category = std::collections::BTreeMap::new();
    for (record, outcome) in store.records().iter().zip(&outcomes) {
        if let Some(category) = categorize(record, outcome) {
            *by_category.entry(category.label()).or_insert(0u64) += 1;
        }
    }
    println!("category breakdown:");
    for category in Category::ALL {
        let count = by_category.get(category.label()).copied().unwrap_or(0);
        println!("  {:<26} {count}", category.label());
    }

    // What would a member actually hit?
    let pairs: Vec<_> = store.records().iter().zip(&outcomes).collect();
    let downloads = case_studies::deceptive_downloads(&pairs);
    let iframes = case_studies::iframe_injections(&pairs);
    println!("\nexposure highlights:");
    println!("  hidden-iframe exhibits:     {}", iframes.len());
    println!("  deceptive-download pushes:  {}", downloads.len());
    for d in downloads.iter().take(3) {
        println!("    {} -> {:?}", d.url, d.filenames);
    }
    let threat_labels: std::collections::BTreeSet<&str> = outcomes
        .iter()
        .flat_map(|o| o.labels().into_iter())
        .collect();
    println!("  distinct threat labels seen: {}", threat_labels.len());
    for label in threat_labels.iter().take(8) {
        println!("    {label}");
    }
}
