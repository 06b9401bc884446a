//! Countermeasures: run the paper's §VI recommendations against the
//! simulation — an ad network vetting exchange-driven impressions, and
//! the warn-before-you-surf browser extension.
//!
//! ```sh
//! cargo run --release --example countermeasures
//! ```

use malware_slums::countermeasures::{
    detection_ablation, AdNetworkGuard, SurfWarning, WarningDecision,
};
use malware_slums::study::{Study, StudyConfig};
use slum_exchange::params::PROFILES;
use slum_websim::Url;

fn main() {
    println!("Running a reduced study to drive the countermeasures...\n");
    let study = Study::run(&StudyConfig { seed: 2016, crawl_scale: 0.001, domain_scale: 0.05, ..Default::default() });

    println!("== 1. Ad-network fraud vetting (AdSense/DoubleClick-style) ==\n");
    let guard = AdNetworkGuard::new(PROFILES.iter());
    // Every crawl record is an exchange-driven page view; the surfbar's
    // exchange is the referrer the ad network sees.
    let referrers: Vec<String> = study
        .store
        .records()
        .iter()
        .map(|r| {
            PROFILES
                .iter()
                .find(|p| r.exchange == p.name)
                .map(|p| p.host.to_string())
                .unwrap_or_default()
        })
        .collect();
    let report = guard.audit(study.store.records(), &referrers);
    println!("impressions audited:  {}", report.billable + report.fraudulent);
    println!("flagged as fraud:     {} ({:.1}%)", report.fraudulent, report.fraud_rate() * 100.0);
    println!("top offending exchanges:");
    let mut offenders: Vec<_> = report.by_exchange.iter().collect();
    offenders.sort_by(|a, b| b.1.cmp(a.1));
    for (host, count) in offenders.iter().take(5) {
        println!("  {host:<34} {count}");
    }

    println!("\n== 2. The warn-before-you-surf extension ==\n");
    let warning = SurfWarning::from_study(&study);
    for target in [
        "sendsurf.exchange.example",
        "10khits.exchange.example",
        "ordinary-shop.example.com",
    ] {
        match warning.before_navigate(&Url::http(target, "/")) {
            WarningDecision::Allow => println!("{target}\n  -> allowed silently\n"),
            WarningDecision::Warn { message, .. } => println!("{target}\n  -> {message}\n"),
        }
    }

    println!("== 3. Which detection path catches what (ablation) ==\n");
    let ablation = detection_ablation(&study.outcomes);
    println!("total malicious:            {}", ablation.total);
    println!("caught by URL scans:        {}", ablation.url_scan_only);
    println!("needed content upload:      {} (cloaked sites)", ablation.added_by_upload);
    println!("blacklist consensus only:   {}", ablation.added_by_blacklists);
}
