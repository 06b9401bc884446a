//! Quickstart: run a scaled-down version of the whole study and print
//! every table and figure the paper reports.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use malware_slums::artifact::{Artifact, ArtifactKind};
use malware_slums::report::Render;
use malware_slums::study::{Study, StudyConfig};

fn main() {
    let config = StudyConfig::builder()
        .seed(2016)
        .crawl_scale(0.002)
        .domain_scale(0.05)
        .build()
        .expect("valid quickstart config");
    println!(
        "Running the Malware Slums study at {}x crawl scale (seed {})...\n",
        config.crawl_scale, config.seed
    );
    let study = Study::run(&config);

    println!("== Corpus ==");
    println!(
        "visits: {}   distinct URLs: {}   distinct domains: {}\n",
        study.store.len(),
        study.store.distinct_urls(),
        study.store.distinct_domains()
    );

    // Every published artifact, built and printed generically — the same
    // loop `repro` runs.
    for kind in ArtifactKind::ALL {
        let mut artifact = study.artifact(kind);
        // Table IV runs to hundreds of rows; show the top ten.
        if let Artifact::Table4(rows) = &mut artifact {
            rows.truncate(10);
        }
        println!("== {} ==", kind.title());
        println!("{}", artifact.render());
    }

    println!("== Headline ==");
    println!(
        "{:.1}% of regular URLs on the simulated exchanges are malicious (paper: >26%).",
        study.table1().overall_malicious_fraction() * 100.0
    );
}
