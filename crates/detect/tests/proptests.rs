//! Property tests for the detection substrate: total feature
//! extraction, deterministic engines, monotone blacklist consensus,
//! interner round-trips, RCU/RwLock cache agreement, and the
//! `RetryPolicy` properties the fault plan compiler relies on (bounded
//! termination, monotone backoff, replayable resolution).

use proptest::prelude::*;
use slum_detect::blacklist::BlacklistDb;
use slum_detect::engine::default_engines;
use slum_detect::hash::{chance, fraction};
use slum_detect::retry::RetryPolicy;
use slum_detect::{Features, Interner, ShardedCache};
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
        for engine in default_engines() {
            prop_assert_eq!(engine.scan(&key, &features), engine.scan(&key, &features));
        }
    }

    /// No engine fires on clean features, for any sample key.
    #[test]
    fn engines_quiet_on_clean(key in "[ -~]{1,60}") {
        let clean = Features::default();
        for engine in default_engines() {
            prop_assert_eq!(engine.scan(&key, &clean), None);
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

    /// Interner ids round-trip: every interned string resolves back to
    /// itself, duplicates share one id, and distinct strings get
    /// distinct ids.
    #[test]
    fn interner_syms_round_trip(strings in proptest::collection::vec(".{0,24}", 1..40)) {
        let pool = Interner::new();
        let syms: Vec<_> = strings.iter().map(|s| pool.sym(s)).collect();
        for (s, sym) in strings.iter().zip(&syms) {
            // Round-trip: id → string → same id.
            prop_assert_eq!(pool.resolve(*sym).as_deref(), Some(s.as_str()));
            prop_assert_eq!(pool.sym(s), *sym);
            // The Arc layer agrees with the id layer.
            let arc = pool.intern(s);
            prop_assert_eq!(&*arc, s.as_str());
        }
        for (i, a) in strings.iter().enumerate() {
            for (j, b) in strings.iter().enumerate() {
                prop_assert_eq!(syms[i] == syms[j], a == b);
            }
        }
        let distinct: std::collections::HashSet<&str> =
            strings.iter().map(String::as_str).collect();
        prop_assert_eq!(pool.len(), distinct.len());
    }

    /// The lock-free RCU read path of `ShardedCache` agrees with the
    /// `RwLock` write path under concurrent writers: readers never see
    /// a value other than the first-inserted one, no matter how the
    /// insert/republish schedule interleaves.
    #[test]
    fn sharded_cache_rcu_agrees_with_rwlock_under_writers(
        keys in proptest::collection::vec("[a-z]{1,6}", 1..60),
    ) {
        let cache = ShardedCache::new();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    for key in &keys {
                        // Writer path: first insert wins.
                        let inserted = cache.get_or_insert_with(key, || format!("v:{key}"));
                        assert_eq!(inserted, format!("v:{key}"));
                    }
                });
            }
            scope.spawn(|| {
                for key in &keys {
                    // RCU `get` may race ahead of the writers (None),
                    // but must never disagree once a value exists.
                    if let Some(seen) = cache.get(key) {
                        assert_eq!(seen, format!("v:{key}"));
                    }
                }
            });
        });
        // After the barrier, the snapshot path and the live path agree
        // on every key.
        for key in &keys {
            prop_assert_eq!(cache.get(key), Some(format!("v:{key}")));
        }
        let distinct: std::collections::HashSet<&str> =
            keys.iter().map(String::as_str).collect();
        prop_assert_eq!(cache.len(), distinct.len());
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
