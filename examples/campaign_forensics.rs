//! Campaign forensics: reproduce the paper's §IV burst-validation
//! experiment and show how a paid campaign distorts a manual-surf
//! exchange's rotation — the mechanism behind Figure 3(b)'s bursts.
//!
//! ```sh
//! cargo run --release --example campaign_forensics
//! ```

use slum_crawler::burst::run_burst_experiment;
use slum_crawler::drive::{crawl_exchange, CrawlConfig};
use slum_crawler::RecordStore;
use slum_exchange::params::profile;
use slum_exchange::build_exchange;
use slum_websim::build::WebBuilder;
use slum_websim::rng::seeded;

use malware_slums::temporal::CumulativeSeries;

fn main() {
    println!("== Part 1: the $5 purchase (paper §IV) ==\n");
    let mut builder = WebBuilder::new(7);
    let dummy = builder.benign_site(Default::default());
    let p = profile("Cash N Hits").expect("profile");
    let mut exchange = build_exchange(&mut builder, p, 0.08, 600_000);
    let mut rng = seeded(2016);

    let experiment = run_burst_experiment(&mut exchange, &dummy.url, 5, 100_000, &mut rng)
        .expect("fresh account");
    let r = &experiment.report;
    println!("dummy site:        {}", dummy.url);
    println!("purchased:         {} visits for ${}", r.purchased, experiment.campaign.dollars);
    println!("delivered:         {} visits (paper: 4,621)", r.delivered);
    println!("unique IPs:        {} (paper: 2,685)", r.unique_ips);
    println!("delivery span:     {}s (paper: under an hour)", r.span_secs);

    // Per-country distribution of the delivered traffic.
    let mut by_country = std::collections::BTreeMap::new();
    for visit in &experiment.visits {
        *by_country.entry(visit.country.as_str()).or_insert(0u64) += 1;
    }
    let mut countries: Vec<_> = by_country.into_iter().collect();
    countries.sort_by_key(|c| std::cmp::Reverse(c.1));
    println!("top visitor countries:");
    for (country, count) in countries.iter().take(5) {
        println!("  {country:<10} {count}");
    }

    println!("\n== Part 2: the burst is visible in the crawl (Figure 3(b)) ==\n");
    // Crawl through the campaign window and watch the dummy site flood
    // the rotation.
    let web = builder.finish();
    let mut store = RecordStore::new();
    crawl_exchange(
        &web,
        &mut exchange,
        &CrawlConfig { steps: 600, seed: 11, start_time: 95_000 },
        &mut store,
    );
    let flags: Vec<bool> =
        store.records().iter().map(|r| r.url.host() == dummy.url.host()).collect();
    let series = CumulativeSeries::from_flags("Cash N Hits (dummy-site visits)", &flags);
    let total: u64 = series.total_malicious();
    println!(
        "dummy-site visits during crawl: {total} of {} ({:.1}%)",
        series.len(),
        total as f64 / series.len() as f64 * 100.0
    );
    println!("burstiness score: {:.2} (smooth rotation ≈ 1.0)", series.burstiness(40));
    for (start, end) in series.bursts(40, 3.0) {
        println!("burst window: crawl indices {start}..{end}");
    }
    println!("\ncumulative curve (downsampled):");
    for (i, cum) in series.downsample(12) {
        println!("  after {i:>4} pages: {cum:>4} dummy-site visits");
    }
}
