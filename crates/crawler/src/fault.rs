//! Named crawl-fault profiles and the per-exchange health log.
//!
//! A [`CrawlFaultProfile`] bundles the exchange-side hazard rates
//! ([`LifecycleParams`] per exchange class) with the retry discipline
//! the crawler applies when it runs into them — mirroring how
//! `slum_detect::fault::FaultProfile` packages scanner-side faults.
//! Profiles are strictly opt-in: [`CrawlFaultProfile::none`] is inert
//! and the default, so fault-free runs stay bit-identical to the
//! pre-resilience crawler.

use serde::Serialize;

use slum_detect::retry::RetryPolicy;
use slum_exchange::lifecycle::{ExchangeLifecycle, LifecycleParams};
use slum_exchange::{ExchangeKind, TrafficSource};

/// A named, seeded crawl-fault profile.
#[derive(Debug, Clone, PartialEq)]
pub struct CrawlFaultProfile {
    /// Profile name (echoed in reports; `none` is the inert default).
    pub name: String,
    /// Salt mixed with the study seed, so the same corpus can be
    /// faulted independently per profile.
    pub seed_salt: u64,
    /// Hazard rates for the five auto-surf exchanges.
    pub auto: LifecycleParams,
    /// Hazard rates for the four manual-surf exchanges.
    pub manual: LifecycleParams,
    /// Retry discipline applied when a surf step hits a fault window.
    pub retry: RetryPolicy,
}

impl Default for CrawlFaultProfile {
    fn default() -> Self {
        CrawlFaultProfile::none()
    }
}

impl CrawlFaultProfile {
    /// Every named profile, for CLI help text.
    pub const NAMES: [&'static str; 3] = ["none", "default", "harsh"];

    /// The inert profile: no lifecycle hazards, no retries. This is the
    /// [`Default`], so crawl-fault injection is strictly opt-in.
    pub fn none() -> Self {
        CrawlFaultProfile {
            name: "none".to_string(),
            seed_salt: 0,
            auto: LifecycleParams::reliable(),
            manual: LifecycleParams::reliable(),
            retry: RetryPolicy::no_retries(),
        }
    }

    /// The moderate operational profile: occasional outages on every
    /// exchange, anti-abuse bans and CAPTCHA lockouts on the
    /// manual-surf services, a small per-exchange chance of a permanent
    /// Traffic-Monsoon-style shutdown, and rare session drops.
    pub fn default_profile() -> Self {
        CrawlFaultProfile {
            name: "default".to_string(),
            seed_salt: 0x000c_4a71,
            auto: LifecycleParams {
                outage_windows: 2,
                outage_secs: 400,
                ban_windows: 1,
                ban_secs: 300,
                lockout_windows: 0,
                lockout_secs: 0,
                shutdown_per_mille: 150,
                session_drop_per_mille: 10,
                reconnect_secs: 20,
            },
            manual: LifecycleParams {
                outage_windows: 1,
                outage_secs: 300,
                ban_windows: 1,
                ban_secs: 400,
                lockout_windows: 1,
                lockout_secs: 200,
                shutdown_per_mille: 150,
                session_drop_per_mille: 15,
                reconnect_secs: 30,
            },
            retry: RetryPolicy::default(),
        }
    }

    /// The harsh profile: long outages, aggressive bans and lockouts,
    /// a high shutdown probability and frequent session drops — for
    /// stress-testing graceful degradation.
    pub fn harsh() -> Self {
        CrawlFaultProfile {
            name: "harsh".to_string(),
            seed_salt: 0x0dea_d51d,
            auto: LifecycleParams {
                outage_windows: 4,
                outage_secs: 1_200,
                ban_windows: 2,
                ban_secs: 900,
                lockout_windows: 0,
                lockout_secs: 0,
                shutdown_per_mille: 400,
                session_drop_per_mille: 40,
                reconnect_secs: 45,
            },
            manual: LifecycleParams {
                outage_windows: 3,
                outage_secs: 900,
                ban_windows: 2,
                ban_secs: 1_200,
                lockout_windows: 2,
                lockout_secs: 600,
                shutdown_per_mille: 400,
                session_drop_per_mille: 60,
                reconnect_secs: 60,
            },
            retry: RetryPolicy { max_retries: 3, ..RetryPolicy::default() },
        }
    }

    /// Looks a profile up by name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "none" => Some(CrawlFaultProfile::none()),
            "default" => Some(CrawlFaultProfile::default_profile()),
            "harsh" => Some(CrawlFaultProfile::harsh()),
            _ => None,
        }
    }

    /// True when this profile can never produce a fault.
    pub fn is_inert(&self) -> bool {
        self.auto.is_inert() && self.manual.is_inert()
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        self.auto.validate().map_err(|e| format!("auto: {e}"))?;
        self.manual.validate().map_err(|e| format!("manual: {e}"))?;
        Ok(())
    }

    /// The hazard parameters for one exchange class.
    pub fn params_for(&self, kind: ExchangeKind) -> &LifecycleParams {
        match kind {
            ExchangeKind::AutoSurf => &self.auto,
            ExchangeKind::ManualSurf => &self.manual,
        }
    }

    /// Compiles the lifecycle schedule for `source`, expected to
    /// crawl for `span_secs` of virtual time. The salt mixes the study
    /// seed with the profile salt exactly like the scan-side
    /// `FaultPlan::compile`, so the same corpus faults independently
    /// per profile.
    pub fn compile_for<S: TrafficSource + ?Sized>(
        &self,
        source: &S,
        seed: u64,
        span_secs: u64,
    ) -> ExchangeLifecycle {
        let salt = seed ^ self.seed_salt.rotate_left(17);
        ExchangeLifecycle::compile(self.params_for(source.kind()), salt, source.name(), span_secs)
    }
}

/// Per-exchange crawl-health log: what the lifecycle faults cost one
/// exchange's crawl. Surfaced through `Study` and the JSON export.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct CrawlHealth {
    /// Exchange name.
    pub exchange: String,
    /// Pages actually logged.
    pub pages: u64,
    /// Planned surf slots lost to faults (including everything after a
    /// permanent shutdown). `pages + lost_steps` always equals the
    /// planned step budget.
    pub lost_steps: u64,
    /// Surf steps that ran into an outage window.
    pub outage_hits: u64,
    /// Surf steps that ran into an anti-abuse ban.
    pub ban_hits: u64,
    /// Surf steps that ran into a CAPTCHA lockout.
    pub captcha_lockouts: u64,
    /// Surf sessions dropped after a logged page.
    pub session_drops: u64,
    /// Total faults injected (failed attempts across all retry loops,
    /// plus session drops).
    pub faults_injected: u64,
    /// Retries issued against fault windows.
    pub retries: u64,
    /// Virtual backoff spent between attempts (nanoseconds).
    pub backoff_nanos: u64,
    /// Virtual seconds the crawl spent down (backoff + reconnects).
    pub downtime_secs: u64,
    /// Virtual second the exchange permanently shut down, if it did.
    pub shutdown_at: Option<u64>,
}

impl CrawlHealth {
    /// A healthy log for `exchange` (all-zero; what an inert profile
    /// produces).
    pub fn healthy(exchange: &str, pages: u64) -> Self {
        CrawlHealth { exchange: exchange.to_string(), pages, ..CrawlHealth::default() }
    }

    /// True when the exchange crawl saw no fault at all.
    pub fn is_clean(&self) -> bool {
        self.lost_steps == 0
            && self.faults_injected == 0
            && self.session_drops == 0
            && self.shutdown_at.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inert_and_default() {
        assert!(CrawlFaultProfile::none().is_inert());
        assert!(CrawlFaultProfile::default().is_inert());
        assert!(!CrawlFaultProfile::default_profile().is_inert());
        assert!(!CrawlFaultProfile::harsh().is_inert());
    }

    #[test]
    fn parse_round_trips_every_name() {
        for name in CrawlFaultProfile::NAMES {
            let profile = CrawlFaultProfile::parse(name).expect(name);
            assert_eq!(profile.name, name);
            assert!(profile.validate().is_ok(), "{name} must validate");
        }
        assert!(CrawlFaultProfile::parse("bogus").is_none());
    }

    #[test]
    fn validate_flags_the_broken_class() {
        let mut bad = CrawlFaultProfile::default_profile();
        bad.manual.session_drop_per_mille = 5_000;
        let err = bad.validate().unwrap_err();
        assert!(err.starts_with("manual:"), "{err}");
    }

    #[test]
    fn healthy_log_is_clean() {
        let h = CrawlHealth::healthy("Otohits", 120);
        assert!(h.is_clean());
        assert_eq!(h.pages, 120);
        let mut sick = h.clone();
        sick.lost_steps = 1;
        assert!(!sick.is_clean());
    }
}
