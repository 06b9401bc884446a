//! Mid-scale pins: the artifact digest and the corpus hash of three
//! studies at seed 2016, crawl scale 0.01 and domain scale 0.25, one per
//! substrate, recorded before the crawl and scan learned to share
//! parsed pages and rotation weights. Beside each digest sit the
//! study's `scan.cache.*` and `js.vm.*` counters, recorded while the
//! scan still memoised every key in concurrent caches, before it
//! learned to plan its keys: the lookups follow the fault decisions and
//! the chain walk's early exit, so an off-by-one there moves them.
//!
//! The 0.0005-scale goldens see few repeat visits. Here each page is
//! visited 3–12 times, in browser and scanner context, and manual-surf
//! campaigns and ad flights open and close mid-crawl, so every cache in
//! the page-load, scan and rotation paths is hit while it matters. A
//! killed-and-resumed run must reach the same digest: its restored
//! records carry bodies that no load in the resumed process produced,
//! and its replayed loads go through the page cache.

use std::path::PathBuf;

use malware_slums::export;
use malware_slums::study::{CrawlSession, Restore, Study, StudyConfig, StudyConfigBuilder};
use malware_slums::Substrate;
use slum_crawler::CrawlFaultProfile;
use slum_detect::fault::FaultProfile;

/// FNV-1a, 64-bit, inline so the pin depends on nothing under test.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

fn builder(substrate: Substrate) -> StudyConfigBuilder {
    StudyConfig::builder().seed(2016).crawl_scale(0.01).domain_scale(0.25).substrate(substrate)
}

fn assert_pinned(study: &Study, digest: &str, corpus_fnv: u64, tag: &str) {
    assert_eq!(
        export::artifact_digest(study).expect("serializable export"),
        digest,
        "{tag}: artifact digest drifted"
    );
    let corpus = fnv1a(study.corpus_jsonl().expect("serializable corpus").as_bytes());
    assert_eq!(corpus, corpus_fnv, "{tag}: corpus drifted: fnv1a = {corpus:#018x}");
}

/// A study's scan counters: `(lookups, entries)` of the
/// `url_features`, `content_features`, `host_domains` and
/// `domain_blacklisted` caches, then `js.vm.compiles`,
/// `js.vm.instructions` and `js.vm.module_cache.lookups`.
struct ScanPins {
    caches: [(u64, u64); 4],
    js_vm: [u64; 3],
}

const GROUPS: [&str; 4] =
    ["url_features", "content_features", "host_domains", "domain_blacklisted"];

/// Holds every `scan.cache.*` and `js.vm.*` counter except the
/// wall-clock `js.vm.compile_nanos` histogram to `pins`.
fn assert_scan_pinned(study: &Study, pins: &ScanPins, tag: &str) {
    let m = study.metrics();
    let mut want = std::collections::BTreeMap::new();
    for (group, (lookups, entries)) in GROUPS.iter().zip(pins.caches) {
        want.insert(format!("scan.cache.{group}.lookups"), lookups);
        want.insert(format!("scan.cache.{group}.entries"), entries);
        want.insert(format!("scan.cache.{group}.hits"), lookups - entries);
    }
    let [compiles, instructions, module_lookups] = pins.js_vm;
    for (key, value) in [
        ("compiles", compiles),
        ("instructions", instructions),
        ("module_cache.lookups", module_lookups),
        ("module_cache.hits", module_lookups - compiles),
        ("budget_exhaustions", 0),
    ] {
        want.insert(format!("js.vm.{key}"), value);
    }
    let got: std::collections::BTreeMap<String, u64> = m
        .counters_with_prefix("scan.cache.")
        .chain(m.counters_with_prefix("js.vm."))
        .map(|(key, value)| (key.to_string(), value))
        .collect();
    assert_eq!(got, want, "{tag}: scan counters drifted");
}

const EXCHANGE_DIGEST: &str = "672666e997826d58";
const EXCHANGE_CORPUS: u64 = 0xabf7_5529_e6c0_b9ff;
const EXCHANGE_SCAN: ScanPins = ScanPins {
    caches: [(8_105, 7_231), (6_528, 5_994), (8_181, 3_143), (8_181, 3_143)],
    js_vm: [23, 2_310, 71],
};

#[test]
fn exchange_study_matches_its_pins() {
    let study = Study::run(&builder(Substrate::Exchange).build().expect("valid config"));
    assert_eq!(study.store.len(), 10_037);
    assert_pinned(&study, EXCHANGE_DIGEST, EXCHANGE_CORPUS, "exchange");
    assert_scan_pinned(&study, &EXCHANGE_SCAN, "exchange");
}

#[test]
fn adnet_study_under_harsh_faults_matches_its_pins() {
    let config = builder(Substrate::AdNet)
        .fault_profile(FaultProfile::harsh())
        .crawl_fault_profile(CrawlFaultProfile::harsh())
        .build()
        .expect("valid config");
    let study = Study::run(&config);
    assert_pinned(&study, "8088044aeaaf1d3d", 0xf66c_e456_3232_73ea, "adnet");
    // Scan faults keep 279 of the 1,086 regular records from any URL
    // lookup.
    let pins = ScanPins {
        caches: [(807, 790), (683, 677), (1_070, 743), (1_070, 743)],
        js_vm: [8, 2_646, 12],
    };
    assert_scan_pinned(&study, &pins, "adnet");
}

#[test]
fn torrent_study_matches_its_pins() {
    let study = Study::run(&builder(Substrate::Torrent).build().expect("valid config"));
    assert_pinned(&study, "da268f9735e4c4d4", 0xd367_586b_b8fa_47fe, "torrent");
    let pins = ScanPins {
        caches: [(980, 912), (815, 768), (980, 474), (980, 474)],
        js_vm: [7, 2_774, 15],
    };
    assert_scan_pinned(&study, &pins, "torrent");
}

#[test]
fn killed_and_resumed_exchange_study_matches_its_pins() {
    let config =
        builder(Substrate::Exchange).checkpoint_every(256).build().expect("valid config");
    let dir: PathBuf =
        std::env::temp_dir().join(format!("slum-midscale-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let killed = CrawlSession::open(&config, &dir, Restore::Never)
        .and_then(|session| session.advance(2))
        .expect("killed run checkpoints");
    assert!(!killed.crawl_done(), "round 2 must stop the crawl part-way");
    drop(killed);
    let resumed = CrawlSession::open(&config, &dir, Restore::Required)
        .and_then(|session| session.advance(u64::MAX))
        .expect("resume")
        .finish(None);
    std::fs::remove_dir_all(&dir).ok();
    let tag = "exchange, killed after round 2";
    assert_pinned(&resumed, EXCHANGE_DIGEST, EXCHANGE_CORPUS, tag);
    assert_scan_pinned(&resumed, &EXCHANGE_SCAN, tag);
}
