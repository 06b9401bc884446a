//! Per-engine detection models.
//!
//! VirusTotal aggregates "multiple antivirus products, file
//! characterization tools, and website scanning engines" (§III-B). Each
//! [`EngineModel`] here detects a subset of feature classes and reports
//! the threat-label aliases the paper quotes from its scan reports.

use crate::features::Features;
use crate::hash::{fnv1a, fnv1a_extend, hashed_fraction};

/// The classes of malicious behaviour an engine can specialize in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureClass {
    /// Statically hidden iframes.
    HiddenIframe,
    /// Runtime iframe injection.
    DynamicInjection,
    /// Packed/obfuscated scripts.
    Obfuscation,
    /// Fake download prompts / executable pushes.
    DeceptiveDownload,
    /// Behaviour fingerprinting.
    Fingerprinting,
    /// Flash `ExternalInterface` abuse.
    Flash,
    /// Script/meta redirections.
    Redirect,
    /// Generic signature match.
    GenericSignature,
    /// FP-prone: Google Analytics bootstrap misread as click fraud.
    GaBootstrapFp,
    /// FP-prone: OAuth relay iframe misread as iframe injection.
    OauthRelayFp,
}

impl FeatureClass {
    /// Every class, in declaration order.
    pub const ALL: [FeatureClass; 10] = [
        FeatureClass::HiddenIframe,
        FeatureClass::DynamicInjection,
        FeatureClass::Obfuscation,
        FeatureClass::DeceptiveDownload,
        FeatureClass::Fingerprinting,
        FeatureClass::Flash,
        FeatureClass::Redirect,
        FeatureClass::GenericSignature,
        FeatureClass::GaBootstrapFp,
        FeatureClass::OauthRelayFp,
    ];

    /// Does `features` exhibit this class?
    pub fn present_in(self, f: &Features) -> bool {
        match self {
            FeatureClass::HiddenIframe => !f.hidden_iframes.is_empty(),
            FeatureClass::DynamicInjection => f.dynamic_iframe_injection,
            FeatureClass::Obfuscation => f.obfuscated_scripts > 0 || f.eval_layers > 0,
            FeatureClass::DeceptiveDownload => f.deceptive_download,
            FeatureClass::Fingerprinting => f.fingerprinting,
            FeatureClass::Flash => f.flash_clickjack || f.external_interface_calls > 0,
            FeatureClass::Redirect => f.js_redirect,
            FeatureClass::GenericSignature => f.generic_malware_marker,
            FeatureClass::GaBootstrapFp => f.ga_bootstrap,
            FeatureClass::OauthRelayFp => f.oauth_relay_iframe,
        }
    }
}

/// The feature classes one sample exhibits: all an engine reads of the
/// sample's features, so samples showing the same classes trigger the
/// same rules and differ only in their per-key draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClassSet(u16);

impl ClassSet {
    /// The classes `features` exhibit.
    pub fn of(features: &Features) -> ClassSet {
        let present = FeatureClass::ALL.iter().filter(|class| class.present_in(features));
        ClassSet(present.fold(0, |bits, &class| bits | 1 << class as u16))
    }

    /// Whether the set holds `class`.
    pub fn contains(self, class: FeatureClass) -> bool {
        self.0 & 1 << class as u16 != 0
    }

    /// True when the sample exhibits no class, so no rule draws.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

/// One scanning engine: named strengths mapped to the labels it emits.
#[derive(Debug, Clone)]
pub struct EngineModel {
    /// Engine name (clearly marked as a simulation).
    pub name: &'static str,
    /// `(class, label, sensitivity)` — when the class is present the
    /// engine fires with probability `sensitivity` (deterministic per
    /// engine × sample).
    pub rules: Vec<(FeatureClass, &'static str, f64)>,
}

impl EngineModel {
    /// Scans sample `key` (canonical URL or content hash), which
    /// exhibits `classes`, and returns the first matching label: each
    /// rule of a present class fires with its sensitivity, drawn from
    /// the decision key `name|label|key`.
    pub fn scan_classes(&self, key: &str, classes: ClassSet) -> Option<&'static str> {
        self.rules
            .iter()
            .find(|&&(class, label, sensitivity)| {
                classes.contains(class) && self.draw(label, key) < sensitivity
            })
            .map(|&(_, label, _)| label)
    }

    /// The uniform draw `fraction(&format!("{name}|{label}|{key}"))`,
    /// hashing the key's parts in turn instead of formatting it.
    fn draw(&self, label: &str, key: &str) -> f64 {
        let parts: [&[u8]; 4] = [b"|", label.as_bytes(), b"|", key.as_bytes()];
        let h = parts.iter().fold(fnv1a(self.name.as_bytes()), |h, part| fnv1a_extend(h, part));
        hashed_fraction(h)
    }
}

/// The default engine battery behind the VirusTotal aggregator. Labels
/// are the aliases reported in the paper (§IV-A, §V).
pub fn default_engines() -> Vec<EngineModel> {
    use FeatureClass::*;
    vec![
        EngineModel {
            name: "clamav-sim",
            rules: vec![
                (HiddenIframe, "HTML/IframeRef.gen", 0.95),
                (GenericSignature, "Trojan.Generic.KD", 0.95),
                (OauthRelayFp, "HTML/IframeRef.gen", 0.9),
            ],
        },
        EngineModel {
            name: "mcafee-sim",
            rules: vec![
                (Flash, "BehavesLike.JS.ExploitBlacole.nv", 0.95),
                (Obfuscation, "BehavesLike.JS.ExploitBlacole.xm", 0.85),
            ],
        },
        EngineModel {
            name: "microsoft-sim",
            rules: vec![
                (Redirect, "Trojan:JS/Redirector", 0.95),
                (DeceptiveDownload, "Trojan:Script.Heuristic-js.iacgm", 0.95),
            ],
        },
        EngineModel {
            name: "kaspersky-sim",
            rules: vec![
                (Redirect, "Trojan.Script.Generic", 0.9),
                (GenericSignature, "Trojan.Script.Generic", 0.95),
                (DeceptiveDownload, "Trojan-Downloader.Script", 0.9),
            ],
        },
        EngineModel {
            name: "avast-sim",
            rules: vec![
                (DynamicInjection, "Virus.ScrInject.JS", 0.95),
                (HiddenIframe, "Mal_Hifrm", 0.9),
                (OauthRelayFp, "Mal_Hifrm", 0.85),
            ],
        },
        EngineModel {
            name: "bitdefender-sim",
            rules: vec![
                (HiddenIframe, "Trojan.IFrame.Script", 0.9),
                (Fingerprinting, "Trojan.Spy.JS", 0.9),
            ],
        },
        EngineModel {
            name: "sophos-sim",
            rules: vec![
                (HiddenIframe, "htm.iframe.art.gen", 0.85),
                (Obfuscation, "Script.virus", 0.9),
            ],
        },
        EngineModel {
            name: "trendmicro-sim",
            rules: vec![
                (DeceptiveDownload, "JS_DLOADR.AUSUAK", 0.9),
                (Fingerprinting, "JS_SPYEYE.SMEP", 0.85),
                (GenericSignature, "HTML_IFRAME.SM", 0.85),
            ],
        },
        EngineModel {
            name: "symantec-sim",
            rules: vec![
                (Flash, "Trojan.Malscript", 0.9),
                (DynamicInjection, "Trojan.Malscript!html", 0.9),
            ],
        },
        EngineModel {
            name: "eset-sim",
            rules: vec![
                (Obfuscation, "JS/Kryptik.I", 0.9),
                (GenericSignature, "JS/TrojanDownloader.Iframe", 0.9),
                (GaBootstrapFp, "TrojanClicker:JS/Faceliker.D", 0.8),
            ],
        },
        EngineModel {
            name: "fortinet-sim",
            rules: vec![
                (DynamicInjection, "JS/Iframe.BYF!tr", 0.85),
                (Redirect, "JS/Redirector.NIO!tr", 0.85),
                (GaBootstrapFp, "TrojanClicker:JS/Faceliker.D", 0.75),
            ],
        },
        EngineModel {
            name: "drweb-sim",
            rules: vec![
                (HiddenIframe, "Trojan.IframeClick", 0.85),
                (Flash, "SWF.Exploit.Blacole", 0.85),
                (DeceptiveDownload, "Trojan.DownLoader11", 0.85),
            ],
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::{chance, fraction};
    use proptest::prelude::*;

    fn features_with(f: impl FnOnce(&mut Features)) -> Features {
        let mut features = Features::default();
        f(&mut features);
        features
    }

    #[test]
    fn clean_features_fire_nothing() {
        let features = Features::default();
        for engine in default_engines() {
            let label = engine.scan_classes("http://x.example/", ClassSet::of(&features));
            assert_eq!(label, None, "{}", engine.name);
        }
    }

    #[test]
    fn redirect_fires_microsoft_alias() {
        let features = features_with(|f| f.js_redirect = true);
        let ms = default_engines().into_iter().find(|e| e.name == "microsoft-sim").unwrap();
        let label = ms.scan_classes("http://r.example/", ClassSet::of(&features));
        assert_eq!(label, Some("Trojan:JS/Redirector"));
    }

    #[test]
    fn scan_is_deterministic() {
        let features = features_with(|f| f.obfuscated_scripts = 1);
        let sophos = default_engines().into_iter().find(|e| e.name == "sophos-sim").unwrap();
        let a = sophos.scan_classes("http://o.example/", ClassSet::of(&features));
        let b = sophos.scan_classes("http://o.example/", ClassSet::of(&features));
        assert_eq!(a, b);
    }

    #[test]
    fn sensitivity_below_one_misses_some_samples() {
        let features = features_with(|f| f.obfuscated_scripts = 1);
        let sophos = default_engines().into_iter().find(|e| e.name == "sophos-sim").unwrap();
        let classes = ClassSet::of(&features);
        let hits = (0..500)
            .filter(|i| sophos.scan_classes(&format!("http://s{i}.example/"), classes).is_some())
            .count();
        assert!(hits > 400 && hits < 500, "sensitivity 0.9 → ~450 hits, got {hits}");
    }

    #[test]
    fn every_paper_alias_is_emitted_by_some_engine() {
        let aliases = [
            "Virus.ScrInject.JS",
            "Script.virus",
            "Trojan:Script.Heuristic-js.iacgm",
            "BehavesLike.JS.ExploitBlacole.nv",
            "BehavesLike.JS.ExploitBlacole.xm",
            "HTML/IframeRef.gen",
            "Mal_Hifrm",
            "Trojan.IFrame.Script",
            "htm.iframe.art.gen",
            "Trojan:JS/Redirector",
            "Trojan.Script.Generic",
            "TrojanClicker:JS/Faceliker.D",
        ];
        let engines = default_engines();
        for alias in aliases {
            assert!(
                engines.iter().any(|e| e.rules.iter().any(|(_, l, _)| *l == alias)),
                "alias {alias} not covered"
            );
        }
    }

    #[test]
    fn fp_rules_fire_on_benign_lookalikes() {
        let ga = features_with(|f| f.ga_bootstrap = true);
        let engines = default_engines();
        let fp_hits = engines
            .iter()
            .filter_map(|e| e.scan_classes("http://recipes.example/", ClassSet::of(&ga)))
            .collect::<Vec<_>>();
        assert!(
            fp_hits.iter().any(|l| l.contains("Faceliker")),
            "GA bootstrap should draw Faceliker FPs: {fp_hits:?}"
        );
    }

    #[test]
    fn class_set_holds_exactly_the_present_classes() {
        let features = features_with(|f| {
            f.js_redirect = true;
            f.ga_bootstrap = true;
        });
        let classes = ClassSet::of(&features);
        for class in FeatureClass::ALL {
            assert_eq!(classes.contains(class), class.present_in(&features), "{class:?}");
        }
        assert!(ClassSet::of(&Features::default()).is_empty());
    }

    proptest! {
        /// Hashing the decision key's parts in turn draws what hashing
        /// the formatted key draws, for every rule of the battery.
        #[test]
        fn streamed_draw_equals_the_formatted_key_draw(key in ".{0,80}") {
            for engine in default_engines() {
                for &(_, label, sensitivity) in &engine.rules {
                    let formatted = format!("{}|{}|{}", engine.name, label, key);
                    let draw = engine.draw(label, &key);
                    prop_assert_eq!(draw, fraction(&formatted));
                    prop_assert_eq!(draw < sensitivity, chance(&formatted, sensitivity));
                }
            }
        }
    }
}
