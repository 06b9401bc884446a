//! Retry policy with bounded exponential backoff and seeded jitter.
//!
//! The paper's scan campaign ran for months against rate-limited,
//! intermittently unavailable services (the public VirusTotal API is
//! hard-capped at a few requests per minute), so a production-shaped
//! reproduction needs a retry discipline. Everything here runs on the
//! *simulated* clock: backoff delays are virtual nanoseconds added to a
//! request's virtual arrival time, never real sleeps, so retries are
//! deterministic per seed and free at test time.
//!
//! Determinism contract: [`RetryPolicy::backoff_nanos`] is a pure
//! function of `(policy, key, attempt)`, and the schedule it yields is
//! monotone non-decreasing in the attempt number by construction (the
//! jitter for attempt `n` is bounded by half the raw backoff, and the
//! schedule takes a running maximum so capping at
//! [`RetryPolicy::max_backoff_nanos`] can never produce a shrinking
//! delay).
//!
//! A draw hashes `{key}#retry{n}#{salt}` without building that string:
//! FNV-1a runs one byte at a time, so each attempt continues the key's
//! hash over the suffix's bytes ([`fnv1a_extend`]).

use crate::hash::{decimal_digits, fnv1a, fnv1a_extend, fnv1a_extend_decimal};

/// The FNV-1a hash of the request key `{source}#{seq}`, hashed without
/// formatting it: the key the crawl's lifecycle retries and the scan's
/// fault plan resolve with ([`RetryPolicy::resolve_hashed`]).
pub fn request_key_hash(source: &str, seq: u64) -> u64 {
    fnv1a_extend_decimal(fnv1a_extend(fnv1a(source.as_bytes()), b"#"), seq)
}

/// Bounded exponential backoff with deterministic per-key jitter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum number of *re*-attempts after the initial try.
    pub max_retries: u32,
    /// Backoff before the first retry (virtual nanoseconds).
    pub base_backoff_nanos: u64,
    /// Cap on the raw exponential term (virtual nanoseconds).
    pub max_backoff_nanos: u64,
    /// Salt mixed into the per-key jitter hash, so two policies with
    /// the same shape can still jitter differently.
    pub jitter_salt: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            base_backoff_nanos: 500_000_000,        // 0.5 virtual seconds
            max_backoff_nanos: 16_000_000_000,      // 16 virtual seconds
            jitter_salt: 0x5ca1_ab1e,
        }
    }
}

/// How one faulted request resolved under a [`RetryPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Resolution {
    /// Attempts that failed (each one is an injected fault observed by
    /// the caller).
    pub failed_attempts: u32,
    /// Retries issued (`failed_attempts` when the request eventually
    /// succeeded, `max_retries` when the budget ran out).
    pub retries: u32,
    /// Total virtual backoff spent waiting between attempts.
    pub backoff_nanos: u64,
    /// Whether an attempt eventually succeeded within the budget.
    pub resolved: bool,
}

impl RetryPolicy {
    /// A policy that never retries (used by inert fault profiles).
    pub fn no_retries() -> Self {
        RetryPolicy { max_retries: 0, ..RetryPolicy::default() }
    }

    /// The backoff before retry number `attempt` (0-based) of the
    /// request identified by `key`.
    ///
    /// The raw schedule is `min(base << attempt, max)` plus a
    /// deterministic jitter in `[0, raw/2]` hashed from
    /// `(key, attempt, salt)`; the returned value is the running
    /// maximum of the jittered schedule, so it is monotone
    /// non-decreasing in `attempt` and bounded by
    /// `1.5 * max_backoff_nanos`.
    pub fn backoff_nanos(&self, key: &str, attempt: u32) -> u64 {
        let key_hash = fnv1a(key.as_bytes());
        let mut salt = [0; 20];
        let salt = decimal_digits(self.jitter_salt, &mut salt);
        (0..=attempt).map(|n| self.jittered_nanos(key_hash, n, salt)).max().unwrap_or(0)
    }

    /// Retry `n`'s raw backoff plus its jitter, hashed from
    /// `{key}#retry{n}#{salt}` on top of the key's hash `key_hash`;
    /// `salt` is the jitter salt's decimal digits.
    fn jittered_nanos(&self, key_hash: u64, n: u32, salt: &[u8]) -> u64 {
        let raw = self
            .base_backoff_nanos
            .checked_shl(n)
            .unwrap_or(self.max_backoff_nanos)
            .min(self.max_backoff_nanos);
        let jitter_span = raw / 2 + 1;
        let h = fnv1a_extend_decimal(fnv1a_extend(key_hash, b"#retry"), u64::from(n));
        let h = fnv1a_extend(fnv1a_extend(h, b"#"), salt);
        raw + h % jitter_span
    }

    /// Resolves a request that arrives (on the virtual clock) at
    /// `at_nanos` against a fault that clears at `clears_at_nanos`:
    /// attempts fail while the virtual clock is before the clear time,
    /// each failure waits out the next backoff step, and the request
    /// either lands after the fault clears or exhausts the retry
    /// budget. Pure per `(policy, key, times)`, so the outcome is
    /// identical no matter which worker thread replays it.
    pub fn resolve(&self, key: &str, at_nanos: u64, clears_at_nanos: u64) -> Resolution {
        self.resolve_hashed(fnv1a(key.as_bytes()), at_nanos, clears_at_nanos)
    }

    /// [`RetryPolicy::resolve`] for the key whose FNV-1a hash is
    /// `key_hash` ([`request_key_hash`] for a `{source}#{seq}` key).
    /// Each retry waits the running maximum of the jittered schedule,
    /// carried from one attempt to the next.
    pub fn resolve_hashed(&self, key_hash: u64, at_nanos: u64, clears_at_nanos: u64) -> Resolution {
        let mut now = at_nanos;
        let mut backoff = 0u64;
        let mut resolution = Resolution::default();
        let mut salt = [0; 20];
        let salt = decimal_digits(self.jitter_salt, &mut salt);
        loop {
            if now >= clears_at_nanos {
                resolution.resolved = true;
                return resolution;
            }
            resolution.failed_attempts += 1;
            if resolution.retries == self.max_retries {
                return resolution;
            }
            backoff = backoff.max(self.jittered_nanos(key_hash, resolution.retries, salt));
            resolution.retries += 1;
            resolution.backoff_nanos += backoff;
            now = now.saturating_add(backoff);
        }
    }
}

/// Circuit-breaker states (the classic three-state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow; consecutive failures are being counted.
    Closed,
    /// Requests are short-circuited until the cooldown passes.
    Open,
    /// Cooldown elapsed; the next request is a trial.
    HalfOpen,
}

impl BreakerState {
    /// Stable integer encoding for gauges (0 closed, 1 open, 2
    /// half-open).
    pub fn as_gauge(self) -> i64 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        }
    }
}

/// A per-service circuit breaker driven by explicit virtual
/// timestamps.
///
/// The breaker is *compiled into the fault plan*, not consulted live
/// from scan workers: [`crate::fault::FaultPlan::compile`] walks the
/// corpus in virtual-time order, feeding each request's resolution into
/// the breaker, and records per-request skip decisions — which is what
/// makes breaker behaviour bit-identical for every scan worker count.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    failure_threshold: u32,
    cooldown_nanos: u64,
    consecutive_failures: u32,
    state: BreakerState,
    open_until_nanos: u64,
    opens: u64,
}

impl CircuitBreaker {
    /// Creates a closed breaker. A `failure_threshold` of 0 disables
    /// the breaker entirely (it never opens).
    pub fn new(failure_threshold: u32, cooldown_nanos: u64) -> Self {
        CircuitBreaker {
            failure_threshold,
            cooldown_nanos,
            consecutive_failures: 0,
            state: BreakerState::Closed,
            open_until_nanos: 0,
            opens: 0,
        }
    }

    /// Whether a request arriving at `now_nanos` may proceed. An open
    /// breaker whose cooldown has elapsed transitions to half-open and
    /// admits the request as a trial.
    pub fn allows(&mut self, now_nanos: u64) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if now_nanos >= self.open_until_nanos {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a request that ultimately succeeded (possibly after
    /// retries): closes the breaker and resets the failure streak.
    pub fn record_success(&mut self) {
        self.consecutive_failures = 0;
        self.state = BreakerState::Closed;
    }

    /// Records a request that exhausted its retry budget at
    /// `now_nanos`. A half-open trial failure re-opens immediately;
    /// a closed breaker opens once the streak reaches the threshold.
    pub fn record_failure(&mut self, now_nanos: u64) {
        if self.failure_threshold == 0 {
            return;
        }
        self.consecutive_failures += 1;
        let trip = self.state == BreakerState::HalfOpen
            || self.consecutive_failures >= self.failure_threshold;
        if trip {
            self.state = BreakerState::Open;
            self.open_until_nanos = now_nanos.saturating_add(self.cooldown_nanos);
            self.opens += 1;
            self.consecutive_failures = 0;
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// How many times the breaker has tripped open.
    pub fn opens(&self) -> u64 {
        self.opens
    }
}

/// The string-keyed retry schedule this module replaced: every draw
/// formats `{key}#retry{n}#{salt}` and hashes it whole, and every retry
/// recomputes the schedule from attempt 0. Kept as the reference model
/// for the byte-at-a-time hashing above.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{Resolution, RetryPolicy};
    use crate::hash::fnv1a;

    pub fn backoff_nanos(policy: &RetryPolicy, key: &str, attempt: u32) -> u64 {
        let mut best = 0u64;
        for n in 0..=attempt {
            let raw = policy
                .base_backoff_nanos
                .checked_shl(n)
                .unwrap_or(policy.max_backoff_nanos)
                .min(policy.max_backoff_nanos);
            let jitter_span = raw / 2 + 1;
            let h = fnv1a(format!("{key}#retry{n}#{}", policy.jitter_salt).as_bytes());
            best = best.max(raw + h % jitter_span);
        }
        best
    }

    pub fn resolve(
        policy: &RetryPolicy,
        key: &str,
        at_nanos: u64,
        clears_at_nanos: u64,
    ) -> Resolution {
        let mut now = at_nanos;
        let mut resolution = Resolution::default();
        loop {
            if now >= clears_at_nanos {
                resolution.resolved = true;
                return resolution;
            }
            resolution.failed_attempts += 1;
            if resolution.retries == policy.max_retries {
                return resolution;
            }
            let backoff = backoff_nanos(policy, key, resolution.retries);
            resolution.retries += 1;
            resolution.backoff_nanos += backoff;
            now = now.saturating_add(backoff);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// SplitMix64: the next draw from `state`.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A key of up to six pieces: empty, ASCII, digits, `#` (alone and
    /// as the `#retry` the draws append), multi-byte characters.
    fn draw_key(state: &mut u64) -> String {
        const PIECES: [&str; 12] =
            ["", "a", "Z", "0", "9", "#", "#retry", "/", " ", "é", "漢", "🦀"];
        let len = next(state) % 7;
        (0..len).map(|_| PIECES[(next(state) % PIECES.len() as u64) as usize]).collect()
    }

    /// A policy whose base and cap range from zero to values whose
    /// shifts overflow (`base << n` loses bits well before attempt 12);
    /// the cap stays small enough that 13 capped, jittered waits sum
    /// without overflow.
    fn draw_policy(state: &mut u64) -> RetryPolicy {
        let base = match next(state) % 5 {
            0 => 0,
            1 => 1,
            2 => RetryPolicy::default().base_backoff_nanos,
            3 => 1 << 63,
            _ => next(state),
        };
        let max_backoff_nanos = match next(state) % 4 {
            0 => 0,
            1 => 1,
            2 => RetryPolicy::default().max_backoff_nanos,
            _ => next(state) % (u64::MAX / 32),
        };
        let jitter_salt = match next(state) % 2 {
            0 => RetryPolicy::default().jitter_salt,
            _ => next(state),
        };
        RetryPolicy {
            max_retries: (next(state) % 13) as u32,
            base_backoff_nanos: base,
            max_backoff_nanos,
            jitter_salt,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// Backoff and resolution equal the formatted-key reference for
        /// every key, attempt, salt and schedule shape; a `source#seq`
        /// key resolves the same through its hash.
        #[test]
        fn backoff_and_resolution_match_the_formatted_key_reference(
            seed in any::<u64>(),
            attempt in 0u32..13,
        ) {
            let mut state = seed;
            let key = draw_key(&mut state);
            let policy = draw_policy(&mut state);
            prop_assert_eq!(
                policy.backoff_nanos(&key, attempt),
                oracle::backoff_nanos(&policy, &key, attempt),
                "{:?} {:?} attempt {}", key, policy, attempt
            );
            let at = match next(&mut state) % 3 {
                0 => 0,
                1 => next(&mut state) % (1 << 40),
                _ => u64::MAX - next(&mut state) % (1 << 40),
            };
            let horizon = policy.max_backoff_nanos.saturating_mul(3).max(1 << 30);
            let clears = at.saturating_add(next(&mut state) % horizon);
            let expected = oracle::resolve(&policy, &key, at, clears);
            prop_assert_eq!(policy.resolve(&key, at, clears), expected, "{:?} {:?}", key, policy);
            let seq = next(&mut state) >> (next(&mut state) % 64);
            let request = format!("{key}#{seq}");
            prop_assert_eq!(request_key_hash(&key, seq), fnv1a(request.as_bytes()));
            prop_assert_eq!(
                policy.resolve_hashed(request_key_hash(&key, seq), at, clears),
                oracle::resolve(&policy, &request, at, clears)
            );
        }
    }

    #[test]
    fn backoff_is_monotone_and_bounded() {
        let policy = RetryPolicy::default();
        let mut prev = 0;
        for attempt in 0..12 {
            let b = policy.backoff_nanos("req-1", attempt);
            assert!(b >= prev, "attempt {attempt}: {b} < {prev}");
            assert!(b <= policy.max_backoff_nanos * 3 / 2 + 1);
            prev = b;
        }
    }

    #[test]
    fn backoff_is_deterministic_per_key_and_varies_across_keys() {
        let policy = RetryPolicy::default();
        assert_eq!(policy.backoff_nanos("a", 3), policy.backoff_nanos("a", 3));
        let distinct = (0..32)
            .map(|i| policy.backoff_nanos(&format!("key-{i}"), 2))
            .collect::<std::collections::BTreeSet<_>>();
        assert!(distinct.len() > 1, "jitter must spread keys");
    }

    #[test]
    fn resolve_succeeds_once_fault_clears() {
        let policy = RetryPolicy::default();
        // Fault clears after ~1 virtual second; base backoff is 0.5s, so
        // a couple of retries land past the clear time.
        let r = policy.resolve("req", 0, 1_000_000_000);
        assert!(r.resolved);
        assert!(r.retries >= 1 && r.retries <= policy.max_retries);
        assert_eq!(r.failed_attempts, r.retries);
        assert!(r.backoff_nanos >= 1_000_000_000);
    }

    #[test]
    fn resolve_exhausts_budget_against_long_fault() {
        let policy = RetryPolicy::default();
        let r = policy.resolve("req", 0, u64::MAX);
        assert!(!r.resolved);
        assert_eq!(r.retries, policy.max_retries);
        assert_eq!(r.failed_attempts, policy.max_retries + 1);
    }

    #[test]
    fn resolve_with_no_fault_is_free() {
        let policy = RetryPolicy::default();
        let r = policy.resolve("req", 10, 10);
        assert_eq!(r, Resolution { resolved: true, ..Resolution::default() });
    }

    #[test]
    fn breaker_opens_after_threshold_and_half_opens_after_cooldown() {
        let mut b = CircuitBreaker::new(3, 1_000);
        assert!(b.allows(0));
        b.record_failure(0);
        b.record_failure(1);
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure(2);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opens(), 1);
        assert!(!b.allows(500));
        assert!(b.allows(1_002), "cooldown elapsed");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Half-open trial failure re-opens immediately.
        b.record_failure(1_002);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opens(), 2);
        // A success after the next cooldown closes it.
        assert!(b.allows(3_000));
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn zero_threshold_disables_breaker() {
        let mut b = CircuitBreaker::new(0, 1_000);
        for t in 0..100 {
            b.record_failure(t);
            assert!(b.allows(t));
        }
        assert_eq!(b.opens(), 0);
    }
}
