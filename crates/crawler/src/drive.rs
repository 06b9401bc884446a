//! Auto-surf and manual-surf crawl drivers.
//!
//! The crawl loop is written once, as a *resumable segment driver*
//! ([`crawl_exchange_segment`]) over an explicit [`CrawlCursor`] that
//! holds every piece of loop state — surf slot, virtual clock, RNG
//! state, CAPTCHA nonce, stats and health counters. [`crawl_exchange`]
//! is a thin wrapper that runs one unbounded segment with an inert
//! lifecycle, so the historical fail-fast behaviour is bit-identical by
//! construction. Every study crawls through the one multi-source driver,
//! `run::CrawlPlan::run_segmented`, which drives the same loop with a
//! fault schedule: in bounded segments with the cursor checkpointed
//! between them, or in one unbounded segment for a direct run.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use slum_browser::{Browser, HarLog};
use slum_detect::retry::RetryPolicy;
use slum_detect::JsModuleCache;
use slum_exchange::antiabuse::{Admission, IpAddr, SessionPolicy, SessionTracker};
use slum_exchange::captcha::CaptchaOutcome;
use slum_exchange::economy::{EconomyConfig, Ledger};
use slum_exchange::lifecycle::{ExchangeLifecycle, LifecycleFaultKind};
use slum_exchange::{ExchangeKind, TrafficSource};
use slum_websim::rng::seeded;
use slum_websim::SyntheticWeb;

use crate::fault::CrawlHealth;
use crate::record::{CrawlRecord, CrawlVisit};
use crate::store::RecordStore;

/// Virtual nanoseconds per virtual second.
const NANOS_PER_SEC: u64 = 1_000_000_000;

/// Configuration of one exchange crawl.
#[derive(Debug, Clone)]
pub struct CrawlConfig {
    /// Number of surf steps to log.
    pub steps: u64,
    /// RNG seed for this crawl.
    pub seed: u64,
    /// Virtual start time (seconds).
    pub start_time: u64,
    /// Scripted operator's CAPTCHA success rate (manual-surf only).
    pub captcha_skill: f64,
    /// Whether to capture page content into records (needed for the
    /// cloaking-defeating upload scans). A captured body is the shared
    /// `Arc<str>` the browser loaded, so records of the same page cost
    /// one pointer each, not one copy.
    pub capture_content: bool,
}

impl Default for CrawlConfig {
    fn default() -> Self {
        CrawlConfig {
            steps: 500,
            seed: 1,
            start_time: 0,
            captcha_skill: 0.96,
            capture_content: true,
        }
    }
}

/// Outcome statistics of one crawl.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrawlStats {
    /// Pages logged.
    pub pages: u64,
    /// CAPTCHAs failed (manual-surf).
    pub captcha_failures: u64,
    /// Page loads that failed (404/hop-limit).
    pub load_failures: u64,
    /// Credits earned (milli-credits).
    pub credits_earned_millis: i64,
    /// Surf steps taken (pages + burned CAPTCHAs).
    pub surf_steps: u64,
    /// Redirect hops followed.
    pub redirects: u64,
    /// Surf steps that landed inside a paid-campaign burst.
    pub burst_steps: u64,
    /// Visits that went through a URL shortener.
    pub shortener_visits: u64,
}

/// The complete resumable state of one exchange crawl.
///
/// A cursor plus the (deterministically rebuilt) exchange and web is
/// everything needed to continue a crawl from exactly where it stopped:
/// the surf-slot position, virtual clock, raw RNG state, the exchange's
/// CAPTCHA nonce, and every stat/health counter accumulated so far.
/// Serializes to one JSON object inside a checkpoint body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrawlCursor {
    /// Exchange name (checkpoint sections are matched back by name).
    pub exchange: String,
    /// Planned surf-slot budget for the whole crawl.
    pub steps: u64,
    /// Seed this crawl's RNG stream started from.
    pub seed: u64,
    /// Next surf slot (== records logged + slots lost so far).
    pub seq: u64,
    /// Virtual clock (seconds).
    pub t: u64,
    /// xoshiro256** state word 0.
    pub rng_s0: u64,
    /// xoshiro256** state word 1.
    pub rng_s1: u64,
    /// xoshiro256** state word 2.
    pub rng_s2: u64,
    /// xoshiro256** state word 3.
    pub rng_s3: u64,
    /// The exchange's CAPTCHA nonce at the cursor position.
    pub captcha_nonce: u64,
    /// Whether the crawl has consumed its whole slot budget.
    pub done: bool,
    /// Pages logged so far.
    pub pages: u64,
    /// CAPTCHAs failed so far.
    pub captcha_failures: u64,
    /// Failed page loads so far.
    pub load_failures: u64,
    /// Credits earned so far (milli-credits).
    pub credits_earned_millis: i64,
    /// Surf steps taken so far (pages + burned CAPTCHAs).
    pub surf_steps: u64,
    /// Redirect hops followed so far.
    pub redirects: u64,
    /// Surf steps that landed inside a paid-campaign burst.
    pub burst_steps: u64,
    /// Visits that went through a URL shortener.
    pub shortener_visits: u64,
    /// Surf slots lost to lifecycle faults.
    pub lost_steps: u64,
    /// Steps that ran into an outage window.
    pub outage_hits: u64,
    /// Steps that ran into an anti-abuse ban.
    pub ban_hits: u64,
    /// Steps that ran into a CAPTCHA lockout.
    pub captcha_lockouts: u64,
    /// Surf sessions dropped after a logged page.
    pub session_drops: u64,
    /// Total faults injected (failed attempts + session drops).
    pub faults_injected: u64,
    /// Retries issued against fault windows.
    pub retries: u64,
    /// Virtual backoff spent between attempts (nanoseconds).
    pub backoff_nanos: u64,
    /// Virtual seconds spent down (backoff + reconnects).
    pub downtime_secs: u64,
    /// Virtual second of the permanent shutdown, if one hit.
    pub shutdown_at: Option<u64>,
}

impl CrawlCursor {
    /// A cursor at the very start of a crawl of `source` under
    /// `config`.
    pub fn start<S: TrafficSource + ?Sized>(source: &S, config: &CrawlConfig) -> Self {
        let rng = seeded(config.seed);
        let s = rng.state();
        CrawlCursor {
            exchange: source.name().to_string(),
            steps: config.steps,
            seed: config.seed,
            seq: 0,
            t: config.start_time,
            rng_s0: s[0],
            rng_s1: s[1],
            rng_s2: s[2],
            rng_s3: s[3],
            captcha_nonce: source.captcha_nonce(),
            done: config.steps == 0,
            pages: 0,
            captcha_failures: 0,
            load_failures: 0,
            credits_earned_millis: 0,
            surf_steps: 0,
            redirects: 0,
            burst_steps: 0,
            shortener_visits: 0,
            lost_steps: 0,
            outage_hits: 0,
            ban_hits: 0,
            captcha_lockouts: 0,
            session_drops: 0,
            faults_injected: 0,
            retries: 0,
            backoff_nanos: 0,
            downtime_secs: 0,
            shutdown_at: None,
        }
    }

    /// Rebuilds the RNG at the cursor position.
    fn rng(&self) -> StdRng {
        StdRng::from_state([self.rng_s0, self.rng_s1, self.rng_s2, self.rng_s3])
    }

    fn save_rng(&mut self, rng: &StdRng) {
        let s = rng.state();
        self.rng_s0 = s[0];
        self.rng_s1 = s[1];
        self.rng_s2 = s[2];
        self.rng_s3 = s[3];
    }

    /// The crawl statistics accumulated so far.
    pub fn stats(&self) -> CrawlStats {
        CrawlStats {
            pages: self.pages,
            captcha_failures: self.captcha_failures,
            load_failures: self.load_failures,
            credits_earned_millis: self.credits_earned_millis,
            surf_steps: self.surf_steps,
            redirects: self.redirects,
            burst_steps: self.burst_steps,
            shortener_visits: self.shortener_visits,
        }
    }

    /// The per-exchange health log accumulated so far.
    pub fn health(&self) -> CrawlHealth {
        CrawlHealth {
            exchange: self.exchange.clone(),
            pages: self.pages,
            lost_steps: self.lost_steps,
            outage_hits: self.outage_hits,
            ban_hits: self.ban_hits,
            captcha_lockouts: self.captcha_lockouts,
            session_drops: self.session_drops,
            faults_injected: self.faults_injected,
            retries: self.retries,
            backoff_nanos: self.backoff_nanos,
            downtime_secs: self.downtime_secs,
            shutdown_at: self.shutdown_at,
        }
    }
}

/// Crawls one traffic source for `config.steps` logged pages, appending
/// records to `store`.
///
/// The procedure mirrors §III-A: register a brand-new account, open a
/// session (subject to anti-abuse checks), then either let the auto-surf
/// rotation run or click through manually, solving CAPTCHAs. Auto-surf
/// loads never simulate user clicks; the virtual clock advances by the
/// source's minimum surf time per page.
pub fn crawl_exchange<S: TrafficSource + ?Sized>(
    web: &SyntheticWeb,
    source: &mut S,
    config: &CrawlConfig,
    store: &mut RecordStore,
) -> CrawlStats {
    let mut cursor = CrawlCursor::start(source, config);
    let lifecycle = ExchangeLifecycle::inert(source.name());
    let retry = RetryPolicy::no_retries();
    let modules = Arc::new(JsModuleCache::new());
    crawl_exchange_segment(
        web, source, config, &lifecycle, &retry, &modules, &mut cursor, store, u64::MAX,
    );
    cursor.stats()
}

/// Advances one traffic-source crawl by up to `budget` surf slots (logged
/// pages plus fault-lost slots), reading and writing all loop state
/// through `cursor`. Returns the number of slots consumed.
///
/// Lifecycle faults are consulted on the virtual clock before every
/// surf step: a permanent shutdown forfeits every remaining slot; a
/// temporary window (outage / ban / CAPTCHA lockout) goes through
/// `retry` — if backoff outlasts the window the step proceeds on the
/// advanced clock, otherwise the slot is recorded as lost and the crawl
/// degrades to the next slot. Session drops charge reconnect time after
/// a logged page. None of this touches the RNG stream, so a crawl under
/// an inert lifecycle is bit-identical to the historical fail-fast
/// loop, and fault decisions replay identically across resume
/// boundaries. Page loads compile their scripts through `modules`, the
/// crawl's compiled-module cache.
#[allow(clippy::too_many_arguments)] // the segment driver threads all crawl state explicitly
pub fn crawl_exchange_segment<S: TrafficSource + ?Sized>(
    web: &SyntheticWeb,
    source: &mut S,
    config: &CrawlConfig,
    lifecycle: &ExchangeLifecycle,
    retry: &RetryPolicy,
    modules: &Arc<JsModuleCache>,
    cursor: &mut CrawlCursor,
    store: &mut RecordStore,
    budget: u64,
) -> u64 {
    debug_assert_eq!(cursor.exchange, source.name(), "cursor/source mismatch");
    let mut rng = cursor.rng();
    source.restore_captcha_nonce(cursor.captcha_nonce);

    // Fresh account, fresh session — the study's brand-new accounts.
    // The ledger holds no crawl-relevant state across segments (earning
    // always succeeds for an active account), so each segment opens its
    // own; earned credits accumulate in the cursor.
    let mut ledger = Ledger::new();
    let economy = EconomyConfig::default();
    let account = ledger.open_account();
    let mut sessions = SessionTracker::new(SessionPolicy::SingleSessionStrict);
    let crawler_ip = IpAddr::new(format!("crawler-{}", cursor.seed));
    let Admission::Granted { .. } = sessions.open_session(account, crawler_ip) else {
        // Fresh tracker + fresh account: admission cannot fail.
        unreachable!("fresh session must be admitted");
    };

    let mut used = 0u64;

    while !cursor.done && used < budget {
        // Lifecycle gate: is the exchange reachable at this instant?
        if let Some(fault) = lifecycle.fault_at(cursor.t) {
            if fault.kind == LifecycleFaultKind::Shutdown {
                // Traffic-Monsoon case: the exchange is gone for good;
                // every remaining slot is lost.
                cursor.shutdown_at = lifecycle.shutdown_at();
                cursor.lost_steps += cursor.steps - cursor.seq;
                cursor.seq = cursor.steps;
                cursor.done = true;
                break;
            }
            match fault.kind {
                LifecycleFaultKind::Outage => cursor.outage_hits += 1,
                LifecycleFaultKind::Ban => cursor.ban_hits += 1,
                LifecycleFaultKind::CaptchaLockout => cursor.captcha_lockouts += 1,
                _ => {}
            }
            let key = format!("{}#{}", cursor.exchange, cursor.seq);
            let resolution = retry.resolve(
                &key,
                cursor.t.saturating_mul(NANOS_PER_SEC),
                fault.clears_at_secs.saturating_mul(NANOS_PER_SEC),
            );
            cursor.retries += u64::from(resolution.retries);
            cursor.faults_injected += u64::from(resolution.failed_attempts);
            cursor.backoff_nanos += resolution.backoff_nanos;
            let backoff_secs = resolution.backoff_nanos.div_ceil(NANOS_PER_SEC);
            cursor.t = cursor.t.saturating_add(backoff_secs);
            cursor.downtime_secs += backoff_secs;
            if !resolution.resolved {
                // The retry budget never outlasted the window: this
                // surf slot is lost; degrade to the next one.
                cursor.lost_steps += 1;
                cursor.seq += 1;
                used += 1;
                cursor.done = cursor.seq >= cursor.steps;
                continue;
            }
            // Resolved: the clock advanced past the window; surf now.
        }

        let step = source.next_step(cursor.t, &mut rng);
        cursor.surf_steps += 1;
        cursor.burst_steps += u64::from(step.campaign_boosted);

        // Manual-surf: solve the CAPTCHA first; a failure burns time but
        // logs nothing (the page never opens).
        if let Some(captcha) = &step.captcha {
            let outcome = if rng.gen_bool(config.captcha_skill) {
                debug_assert!(captcha.verify(captcha.answer()));
                CaptchaOutcome::Passed
            } else {
                CaptchaOutcome::Failed
            };
            if outcome == CaptchaOutcome::Failed {
                cursor.captcha_failures += 1;
                cursor.t += 5;
                continue;
            }
            // Human solve time.
            cursor.t += rng.gen_range(3..10);
        }

        let visit = CrawlVisit { seq: cursor.seq, at: cursor.t, url: step.url };
        let record = record_visit(web, &*source, config, modules, &visit);
        cursor.load_failures += u64::from(record.failed);
        cursor.redirects += u64::from(record.redirect_hops);
        cursor.shortener_visits += u64::from(record.via_shortener);
        store.push(record);
        cursor.pages += 1;
        cursor.seq += 1;
        used += 1;

        if ledger.earn_view(account, &economy).is_ok() {
            cursor.credits_earned_millis += economy.earn_per_view_millis;
        }
        // Dwell for the required surf time (plus jitter for realism).
        cursor.t += step.min_surf_secs as u64 + rng.gen_range(0..5);

        // The surf session may drop after any logged page; reopening it
        // burns reconnect time but loses no slot. Keyed by the slot
        // just logged, so the decision replays across resume points.
        if lifecycle.drops_session(cursor.seq - 1) {
            cursor.session_drops += 1;
            cursor.faults_injected += 1;
            cursor.t = cursor.t.saturating_add(lifecycle.reconnect_secs());
            cursor.downtime_secs += lifecycle.reconnect_secs();
        }

        cursor.done = cursor.seq >= cursor.steps;
    }

    cursor.save_rng(&rng);
    cursor.captcha_nonce = source.captcha_nonce();
    used
}

/// The browser a visit of `source` at virtual time `at` loads with: the
/// click mode of `source`'s kind (auto-surf loads never simulate a
/// click) and the crawl's compiled-module cache, which never changes a
/// load.
fn surf_browser<'w, S: TrafficSource + ?Sized>(
    web: &'w SyntheticWeb,
    source: &S,
    modules: &Arc<JsModuleCache>,
    at: u64,
) -> Browser<'w> {
    let browser = Browser::new(web).at_time(at).with_module_store(modules.clone());
    if source.kind() == ExchangeKind::ManualSurf {
        browser
    } else {
        browser.without_click()
    }
}

/// Surfs one visit and builds its record: loads `visit.url` at virtual
/// time `visit.at` with the click mode of `source`'s kind, then drops
/// the captured content when `config` says so. The crawl loop logs
/// every page through this, and a checkpoint restore rebuilds every
/// stored visit through it
/// ([`replay_restored_loads`](crate::run::replay_restored_loads)), so a
/// rebuilt record equals the crawled one and reapplies the load's side
/// effects on the web.
pub fn record_visit<S: TrafficSource + ?Sized>(
    web: &SyntheticWeb,
    source: &S,
    config: &CrawlConfig,
    modules: &Arc<JsModuleCache>,
    visit: &CrawlVisit,
) -> CrawlRecord {
    let load = surf_browser(web, source, modules, visit.at).load(&visit.url);
    let mut record = CrawlRecord::from_load(source.name(), visit.seq, visit.at, &load);
    if !config.capture_content {
        record.content = None;
    }
    record
}

/// The HAR log of `record`'s load: its visit surfed again, as
/// [`record_visit`] surfs it, with logging. The load repeats the
/// crawl's side effects on `web`, so callers pass a web of their own.
pub(crate) fn record_har<S: TrafficSource + ?Sized>(
    web: &SyntheticWeb,
    source: &S,
    modules: &Arc<JsModuleCache>,
    record: &CrawlRecord,
) -> HarLog {
    surf_browser(web, source, modules, record.at).load_logged(&record.url).1
}

/// Estimates the virtual duration a crawl of `steps` pages will span —
/// used to place campaign bursts before crawling starts.
pub fn estimated_duration_secs(profile: &slum_exchange::ExchangeProfile, steps: u64) -> u64 {
    // Average dwell = min surf + ~2s jitter (+ solve time for manual).
    let per_page = profile.min_surf_secs as u64
        + 2
        + if profile.kind == ExchangeKind::ManualSurf { 6 } else { 0 };
    steps * per_page
}

/// The same span estimate computed from a built [`TrafficSource`] (the
/// resilience layer compiles lifecycle schedules inside crawl workers,
/// where only the source itself is at hand).
pub fn estimated_exchange_span_secs<S: TrafficSource + ?Sized>(source: &S, steps: u64) -> u64 {
    let per_page = source.min_surf_secs() as u64
        + 2
        + if source.kind() == ExchangeKind::ManualSurf { 6 } else { 0 };
    steps * per_page
}

#[cfg(test)]
mod tests {
    use super::*;
    use slum_exchange::{build_exchange, params::profile};
    use slum_websim::build::WebBuilder;

    fn crawl(name: &str, steps: u64, seed: u64) -> (RecordStore, CrawlStats) {
        let mut b = WebBuilder::new(seed);
        let p = profile(name).unwrap();
        let span = estimated_duration_secs(p, steps);
        let mut x = build_exchange(&mut b, p, 0.05, span);
        let web = b.finish();
        let mut store = RecordStore::new();
        let stats = crawl_exchange(
            &web,
            &mut x,
            &CrawlConfig { steps, seed, ..Default::default() },
            &mut store,
        );
        (store, stats)
    }

    #[test]
    fn auto_surf_crawl_logs_requested_steps() {
        let (store, stats) = crawl("Otohits", 300, 7);
        assert_eq!(stats.pages, 300);
        assert_eq!(store.len(), 300);
        assert_eq!(stats.captcha_failures, 0, "auto-surf has no CAPTCHAs");
        assert!(stats.credits_earned_millis > 0);
    }

    #[test]
    fn manual_surf_crawl_fails_some_captchas() {
        let (store, stats) = crawl("Cash N Hits", 200, 8);
        assert_eq!(store.len(), 200);
        assert!(stats.captcha_failures > 0, "4% failure rate over 200+ attempts");
    }

    #[test]
    fn records_carry_exchange_name_and_monotone_time() {
        let (store, _) = crawl("ManyHits", 50, 9);
        let mut last = 0;
        for r in store.records() {
            assert_eq!(r.exchange, "ManyHits");
            assert!(r.at >= last);
            last = r.at;
        }
    }

    #[test]
    fn crawl_is_deterministic() {
        let (a, _) = crawl("Hit2Hit", 80, 10);
        let (b, _) = crawl("Hit2Hit", 80, 10);
        let urls_a: Vec<String> = a.records().iter().map(|r| r.url.canonical()).collect();
        let urls_b: Vec<String> = b.records().iter().map(|r| r.url.canonical()).collect();
        assert_eq!(urls_a, urls_b);
    }

    #[test]
    fn self_referrals_present_in_crawl() {
        let (store, _) = crawl("Otohits", 400, 11);
        let p = profile("Otohits").unwrap();
        let selfs =
            store.records().iter().filter(|r| r.url.host() == p.host).count();
        // Otohits self-refers >50% of the time.
        assert!(
            selfs as f64 / store.len() as f64 > 0.4,
            "Otohits self-referrals: {selfs}/{}",
            store.len()
        );
    }

    #[test]
    fn crawl_metrics_mirror_stats() {
        let (store, stats) = crawl("Cash N Hits", 120, 13);
        assert_eq!(stats.pages, store.len() as u64);
        // Every logged page plus every burned CAPTCHA is one surf step.
        assert_eq!(stats.surf_steps, stats.pages + stats.captcha_failures);
        let redirects: u64 =
            store.records().iter().map(|r| u64::from(r.redirect_hops)).sum();
        assert_eq!(stats.redirects, redirects);
        let shortened = store.records().iter().filter(|r| r.via_shortener).count();
        assert_eq!(stats.shortener_visits, shortened as u64);
    }

    #[test]
    fn content_capture_can_be_disabled() {
        let mut b = WebBuilder::new(12);
        let p = profile("Otohits").unwrap();
        let mut x = build_exchange(&mut b, p, 0.05, 10_000);
        let web = b.finish();
        let mut store = RecordStore::new();
        crawl_exchange(
            &web,
            &mut x,
            &CrawlConfig { steps: 20, capture_content: false, ..Default::default() },
            &mut store,
        );
        assert!(store.records().iter().all(|r| r.content.is_none()));
    }

    /// The segment driver with an inert lifecycle, stopped and resumed
    /// at arbitrary budgets, must reproduce the one-shot crawl exactly.
    #[test]
    fn segmented_crawl_matches_one_shot_bit_for_bit() {
        let steps = 90u64;
        let seed = 21u64;
        let one_shot = crawl("Cash N Hits", steps, seed);

        for segment in [1u64, 7, 32] {
            let mut b = WebBuilder::new(seed);
            let p = profile("Cash N Hits").unwrap();
            let span = estimated_duration_secs(p, steps);
            let mut x = build_exchange(&mut b, p, 0.05, span);
            let web = b.finish();
            let config = CrawlConfig { steps, seed, ..Default::default() };
            let lifecycle = ExchangeLifecycle::inert(x.name());
            let retry = RetryPolicy::no_retries();
            let modules = Arc::new(JsModuleCache::new());
            let mut cursor = CrawlCursor::start(&x, &config);
            let mut store = RecordStore::new();
            while !cursor.done {
                // Round-trip the cursor through JSON between segments —
                // exactly what a checkpoint/resume cycle does.
                let json = serde_json::to_string(&cursor).expect("cursor serializes");
                cursor = serde_json::from_str(&json).expect("cursor parses");
                crawl_exchange_segment(
                    &web, &mut x, &config, &lifecycle, &retry, &modules, &mut cursor, &mut store,
                    segment,
                );
            }
            let stats = cursor.stats();
            assert_eq!(stats, one_shot.1, "stats diverged at segment budget {segment}");
            assert_eq!(store, one_shot.0, "records diverged at segment budget {segment}");
            assert!(cursor.health().is_clean());
        }
    }

    /// A mid-window fault schedule degrades the crawl instead of
    /// aborting it: slots are lost, pages + lost always add up to the
    /// plan, and the whole thing is deterministic.
    #[test]
    fn faulted_crawl_degrades_and_balances_its_slots() {
        use slum_exchange::lifecycle::LifecycleParams;

        let run = || {
            let steps = 120u64;
            let seed = 31u64;
            let mut b = WebBuilder::new(seed);
            let p = profile("Otohits").unwrap();
            let span = estimated_duration_secs(p, steps);
            let mut x = build_exchange(&mut b, p, 0.05, span);
            let web = b.finish();
            let config = CrawlConfig { steps, seed, ..Default::default() };
            let params = LifecycleParams {
                outage_windows: 3,
                outage_secs: 200,
                session_drop_per_mille: 50,
                reconnect_secs: 20,
                ..LifecycleParams::reliable()
            };
            let lifecycle = ExchangeLifecycle::compile(&params, 77, x.name(), span);
            let retry = RetryPolicy { max_retries: 1, ..RetryPolicy::default() };
            let modules = Arc::new(JsModuleCache::new());
            let mut cursor = CrawlCursor::start(&x, &config);
            let mut store = RecordStore::new();
            crawl_exchange_segment(
                &web, &mut x, &config, &lifecycle, &retry, &modules, &mut cursor, &mut store,
                u64::MAX,
            );
            (cursor, store)
        };
        let (cursor, store) = run();
        let health = cursor.health();
        assert_eq!(health.pages + health.lost_steps, 120, "slots must balance");
        assert!(health.outage_hits > 0, "three windows over the span must hit");
        assert!(health.faults_injected > 0);
        assert!(health.downtime_secs > 0);
        assert_eq!(cursor.pages as usize, store.len());
        let (cursor2, store2) = run();
        assert_eq!(cursor, cursor2, "faulted crawl must be deterministic");
        assert_eq!(store, store2);
    }

    /// A scheduled shutdown forfeits the remaining slots and is
    /// recorded in the health log.
    #[test]
    fn shutdown_forfeits_remaining_slots() {
        use slum_exchange::lifecycle::LifecycleParams;

        let steps = 100u64;
        let seed = 41u64;
        let mut b = WebBuilder::new(seed);
        let p = profile("ManyHits").unwrap();
        let span = estimated_duration_secs(p, steps);
        let mut x = build_exchange(&mut b, p, 0.05, span);
        let web = b.finish();
        let config = CrawlConfig { steps, seed, ..Default::default() };
        let params =
            LifecycleParams { shutdown_per_mille: 1000, ..LifecycleParams::reliable() };
        let lifecycle = ExchangeLifecycle::compile(&params, 9, x.name(), span);
        let retry = RetryPolicy::no_retries();
        let modules = Arc::new(JsModuleCache::new());
        let mut cursor = CrawlCursor::start(&x, &config);
        let mut store = RecordStore::new();
        crawl_exchange_segment(
            &web, &mut x, &config, &lifecycle, &retry, &modules, &mut cursor, &mut store,
            u64::MAX,
        );
        let health = cursor.health();
        assert!(cursor.done);
        assert!(health.shutdown_at.is_some());
        assert!(health.pages < steps, "the back-half shutdown cuts the crawl short");
        assert!(health.lost_steps > 0);
        assert_eq!(health.pages + health.lost_steps, steps);
        assert_eq!(store.len() as u64, health.pages);
    }
}
