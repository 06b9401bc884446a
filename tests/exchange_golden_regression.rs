//! Pins the exchange substrate byte-identical to its pre-refactor
//! output at the default seed.
//!
//! The `TrafficSource` refactor (pluggable substrates) must not perturb
//! a single byte of the exchange substrate's corpus or rendered
//! artifacts: the crawl loop performs the same RNG draws in the same
//! order, the filter sees the same host sets, and the artifact builders
//! walk the same per-source rows. The rendered artifacts must equal
//! `scripts/golden/exchange_artifacts.golden.txt` byte for byte — the
//! file `repro table1 .. fig7 --scale 0.0005 --seed 2016` printed on
//! the pre-refactor tree — and the corpus must hash to the FNV-1a value
//! captured there at the same seed and scale. Any drift here means the
//! abstraction leaked into behaviour.

use std::sync::OnceLock;

use malware_slums::artifact::ArtifactKind;
use malware_slums::report::Render;
use malware_slums::study::{Study, StudyConfig};

/// FNV-1a, 64-bit. Inline so the pin depends on nothing that the
/// refactor itself touches.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Same shape as the golden file's run: default seed, tiny scale,
/// default (serial-capable) worker count.
fn study() -> &'static Study {
    static STUDY: OnceLock<Study> = OnceLock::new();
    STUDY.get_or_init(|| {
        let config = StudyConfig::builder()
            .seed(2016)
            .crawl_scale(0.0005)
            .domain_scale(0.03)
            .build()
            .expect("valid config");
        Study::run(&config)
    })
}

/// The ten artifact kinds that existed before the substrate refactor,
/// in their pre-refactor `ArtifactKind::ALL` order. SubstrateComparison
/// is deliberately absent: the pin covers exactly the old surface.
const PRE_REFACTOR_KINDS: [ArtifactKind; 10] = [
    ArtifactKind::Table1,
    ArtifactKind::Table2,
    ArtifactKind::Table3,
    ArtifactKind::Table4,
    ArtifactKind::Fig2,
    ArtifactKind::Fig3,
    ArtifactKind::Fig4,
    ArtifactKind::Fig5,
    ArtifactKind::Fig6,
    ArtifactKind::Fig7,
];

/// Captured on pre-refactor `main` (commit 65b6b6f) at seed 2016,
/// crawl_scale 0.0005, domain_scale 0.03.
const GOLDEN_CORPUS_FNV: u64 = 0x9a5b_5812_015f_b382;
const GOLDEN_ARTIFACTS: &str = include_str!("../scripts/golden/exchange_artifacts.golden.txt");

#[test]
fn corpus_matches_pre_refactor_golden() {
    let got = fnv1a(study().store.to_jsonl().expect("serializable corpus").as_bytes());
    assert_eq!(
        got, GOLDEN_CORPUS_FNV,
        "exchange corpus drifted from pre-refactor golden: fnv1a = {got:#018x}"
    );
}

#[test]
fn artifacts_match_pre_refactor_golden() {
    // The layout `repro` prints each artifact in.
    let rendered: String = PRE_REFACTOR_KINDS
        .into_iter()
        .map(|kind| format!("=== {} ===\n{}\n", kind.title(), study().artifact(kind).render()))
        .collect();
    assert_eq!(rendered, GOLDEN_ARTIFACTS, "exchange artifacts drifted from the golden file");
}
