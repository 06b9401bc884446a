//! Property tests for the detection substrate: total feature
//! extraction, deterministic engines, monotone blacklist consensus, and
//! the `RetryPolicy` properties the fault plan compiler relies on
//! (bounded termination, monotone backoff, replayable resolution).

use proptest::prelude::*;
use slum_detect::blacklist::BlacklistDb;
use slum_detect::engine::default_engines;
use slum_detect::hash::{chance, fraction};
use slum_detect::retry::RetryPolicy;
use slum_detect::{ClassSet, Features};
use slum_websim::Url;

proptest! {
    /// Feature extraction is total over arbitrary content.
    #[test]
    fn features_total_over_arbitrary_html(html in ".{0,400}") {
        let url = Url::http("sample.example.com", "/");
        let f = Features::from_content(&url, &html);
        // Structural invariant: clean implies no hidden iframes.
        if f.is_clean() {
            prop_assert!(f.hidden_iframes.is_empty());
        }
    }

    /// Engine decisions are deterministic per (engine, key, features).
    #[test]
    fn engines_deterministic(key in "[a-z0-9:/.?=-]{1,60}") {
        let features = Features {
            obfuscated_scripts: 1,
            js_redirect: true,
            generic_malware_marker: true,
            ..Default::default()
        };
        let classes = ClassSet::of(&features);
        for engine in default_engines() {
            prop_assert_eq!(engine.scan_classes(&key, classes), engine.scan_classes(&key, classes));
        }
    }

    /// No engine fires on clean features, for any sample key.
    #[test]
    fn engines_quiet_on_clean(key in "[ -~]{1,60}") {
        let clean = Features::default();
        let classes = ClassSet::of(&clean);
        for engine in default_engines() {
            prop_assert_eq!(engine.scan_classes(&key, classes), None);
        }
    }

    /// Blacklist consensus is monotone: adding a domain to more lists
    /// never flips a positive verdict to negative.
    #[test]
    fn consensus_monotone(domain in "[a-z]{2,12}\\.(com|net|ru)") {
        let mut db = BlacklistDb::new();
        let before = db.check(&domain).hits.len();
        prop_assert_eq!(before, 0);
        db.add_malicious_domain(&domain);
        let verdict = db.check(&domain);
        prop_assert!(verdict.hits.len() >= 2, "guaranteed multi-list coverage");
        prop_assert!(verdict.is_blacklisted());
    }

    /// The deterministic hash fraction is stable and uniform-ish.
    #[test]
    fn hash_fraction_stable(key in ".{0,60}") {
        let a = fraction(&key);
        prop_assert!((0.0..1.0).contains(&a));
        prop_assert_eq!(a, fraction(&key));
        prop_assert_eq!(chance(&key, 1.0), true);
        prop_assert_eq!(chance(&key, 0.0), false);
    }

    /// `resolve` always terminates within the retry budget: at most
    /// `max_retries` retries and `max_retries + 1` failed attempts, for
    /// any key, arrival time and fault horizon.
    #[test]
    fn retry_resolution_bounded_by_budget(
        key in "[a-zA-Z0-9#/._-]{1,40}",
        max_retries in 0u32..12,
        at_secs in 0u64..1_000_000,
        clears_delta_secs in 0u64..100_000,
    ) {
        let policy = RetryPolicy { max_retries, ..RetryPolicy::default() };
        let at = at_secs * 1_000_000_000;
        let clears = at.saturating_add(clears_delta_secs * 1_000_000_000);
        let r = policy.resolve(&key, at, clears);
        prop_assert!(r.retries <= policy.max_retries);
        prop_assert!(r.failed_attempts <= policy.max_retries + 1);
        if r.resolved {
            prop_assert_eq!(r.failed_attempts, r.retries);
        } else {
            prop_assert_eq!(r.retries, policy.max_retries);
            prop_assert_eq!(r.failed_attempts, policy.max_retries + 1);
        }
        // Total backoff is the sum of a bounded, monotone schedule.
        prop_assert!(
            r.backoff_nanos
                <= u64::from(policy.max_retries)
                    * (policy.max_backoff_nanos * 3 / 2 + 1)
        );
    }

    /// The jittered backoff schedule is monotone non-decreasing in the
    /// attempt number and bounded by 1.5x the cap, for any key.
    #[test]
    fn backoff_monotone_and_bounded(key in ".{0,60}", attempts in 1u32..16) {
        let policy = RetryPolicy::default();
        let mut prev = 0u64;
        for attempt in 0..attempts {
            let b = policy.backoff_nanos(&key, attempt);
            prop_assert!(b >= prev, "attempt {}: {} < {}", attempt, b, prev);
            prop_assert!(b <= policy.max_backoff_nanos * 3 / 2 + 1);
            prev = b;
        }
    }

    /// Resolution is a pure function of (policy, key, times): replaying
    /// it — as every scan worker does — can never change the answer.
    #[test]
    fn retry_resolution_is_replayable(
        key in "[a-z0-9#]{1,30}",
        at in 0u64..u64::MAX / 2,
        clears in 0u64..u64::MAX / 2,
    ) {
        let policy = RetryPolicy::default();
        prop_assert_eq!(policy.resolve(&key, at, clears), policy.resolve(&key, at, clears));
    }
}
