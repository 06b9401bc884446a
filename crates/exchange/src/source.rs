//! The [`TrafficSource`] trait: the substrate contract the crawler
//! drives.
//!
//! The crawl loop in `slum-crawler` was originally hard-wired to the
//! concrete [`Exchange`]. Everything it actually consumed turns out to
//! be a narrow surface — a name, a pacing class, a step stream and a
//! CAPTCHA nonce — so that surface is extracted here as a trait. Any
//! ecosystem that can answer "where does the visitor go next, and how
//! long must they stay?" can feed the same crawl → scan → analysis
//! pipeline: traffic exchanges (this crate), ad networks
//! (`slum-adnet`), torrent index sites (`slum-torrent`), or whatever
//! comes after.
//!
//! # Contract
//!
//! A `TrafficSource` is a *deterministic generator of surf steps* on a
//! virtual clock. The crawler owns the RNG, the clock and all fault
//! machinery; the source owns only its rotation state. Specifically:
//!
//! - **Step stream** — [`next_step`](TrafficSource::next_step) is
//!   called once per surf slot with the current virtual time and the
//!   cursor's RNG, and returns the [`SurfStep`] to visit (entry URL,
//!   minimum dwell, optional CAPTCHA challenge, campaign-boost flag).
//! - **Pacing** — [`kind`](TrafficSource::kind) and
//!   [`min_surf_secs`](TrafficSource::min_surf_secs) tell the crawler
//!   whether steps are clicked through by an operator (manual-surf:
//!   clicks enabled, CAPTCHAs expected, slower) or rotate passively
//!   (auto-surf: `without_click`, no CAPTCHA gate).
//! - **Lifecycle faults** — the crawler compiles outage/ban/lockout/
//!   shutdown schedules *outside* the source, keyed only on
//!   [`name`](TrafficSource::name), [`kind`](TrafficSource::kind) and
//!   the planned span. Sources never model their own downtime.
//! - **Seeded determinism** — all randomness a source consumes MUST
//!   come from the `&mut StdRng` handed to `next_step`, and the number
//!   and order of draws for a given `(state, t)` must be a pure
//!   function of that state. Together with the serializable
//!   side-channel state (the CAPTCHA nonce, restored via
//!   [`restore_captcha_nonce`](TrafficSource::restore_captcha_nonce)
//!   on checkpoint resume) this is what makes kill+resume, worker
//!   fan-out and segment boundaries bit-identical: the crawler can
//!   snapshot *its* cursor and reconstruct *your* stream.
//!
//! Sources are rebuilt from the study seed on resume, so everything a
//! source derives from its construction inputs is already reproducible;
//! only state that advances per-step (like the CAPTCHA nonce) needs the
//! explicit save/restore hooks.

use rand::rngs::StdRng;

use crate::exchange::{Exchange, ExchangeKind, SurfStep};

/// A crawlable traffic substrate: a deterministic stream of surf steps
/// plus the pacing and bookkeeping hooks the crawl loop needs.
///
/// See the [module docs](self) for the full contract.
pub trait TrafficSource {
    /// Stable display name; also the key under which lifecycle fault
    /// schedules, retry decisions and crawl records are filed.
    fn name(&self) -> &str;

    /// Pacing class: manual-surf sources get operator clicks and
    /// CAPTCHA handling, auto-surf sources rotate passively.
    fn kind(&self) -> ExchangeKind;

    /// Minimum dwell the source enforces per page, in virtual seconds.
    fn min_surf_secs(&self) -> u32;

    /// Produces the next surf step at virtual time `t`. All randomness
    /// must be drawn from `rng`, in an order that is a pure function of
    /// the source's state and `t`.
    fn next_step(&mut self, t: u64, rng: &mut StdRng) -> SurfStep;

    /// Monotonic counter of CAPTCHA challenges issued so far, snapshot
    /// into the crawl cursor at checkpoint time.
    fn captcha_nonce(&self) -> u64;

    /// Restores the CAPTCHA counter from a checkpointed cursor so the
    /// resumed stream issues the same challenges as an uninterrupted
    /// run.
    fn restore_captcha_nonce(&mut self, nonce: u64);
}

impl TrafficSource for Exchange {
    fn name(&self) -> &str {
        Exchange::name(self)
    }

    fn kind(&self) -> ExchangeKind {
        Exchange::kind(self)
    }

    fn min_surf_secs(&self) -> u32 {
        Exchange::min_surf_secs(self)
    }

    fn next_step(&mut self, t: u64, rng: &mut StdRng) -> SurfStep {
        Exchange::next_step(self, t, rng)
    }

    fn captcha_nonce(&self) -> u64 {
        Exchange::captcha_nonce(self)
    }

    fn restore_captcha_nonce(&mut self, nonce: u64) {
        Exchange::restore_captcha_nonce(self, nonce)
    }
}

/// Boxed sources forward to their contents, so heterogeneous substrate
/// dispatch (`Vec<Box<dyn TrafficSource + Send>>`) crawls identically
/// to the concrete type.
impl<T: TrafficSource + ?Sized> TrafficSource for Box<T> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn kind(&self) -> ExchangeKind {
        (**self).kind()
    }

    fn min_surf_secs(&self) -> u32 {
        (**self).min_surf_secs()
    }

    fn next_step(&mut self, t: u64, rng: &mut StdRng) -> SurfStep {
        (**self).next_step(t, rng)
    }

    fn captcha_nonce(&self) -> u64 {
        (**self).captcha_nonce()
    }

    fn restore_captcha_nonce(&mut self, nonce: u64) {
        (**self).restore_captcha_nonce(nonce)
    }
}

#[cfg(test)]
mod tests {
    use rand::SeedableRng;

    use super::*;
    use crate::setup::build_all_exchanges;
    use slum_websim::build::WebBuilder;

    /// The trait impl must be a pure delegation: same draws, same step.
    #[test]
    fn exchange_trait_delegation_is_exact() {
        let mut builder = WebBuilder::new(99);
        let mut a = build_all_exchanges(&mut builder, 0.03, 600);
        let mut builder2 = WebBuilder::new(99);
        let mut b = build_all_exchanges(&mut builder2, 0.03, 600);

        let ex_a = &mut a[0];
        let ex_b = &mut b[0];
        let mut rng_a = StdRng::seed_from_u64(7);
        let mut rng_b = StdRng::seed_from_u64(7);
        for t in 0..50u64 {
            let inherent = ex_a.next_step(t * 30, &mut rng_a);
            let via_trait = TrafficSource::next_step(ex_b, t * 30, &mut rng_b);
            assert_eq!(inherent.url, via_trait.url);
            assert_eq!(inherent.min_surf_secs, via_trait.min_surf_secs);
            assert_eq!(inherent.captcha.is_some(), via_trait.captcha.is_some());
            assert_eq!(inherent.campaign_boosted, via_trait.campaign_boosted);
        }
        assert_eq!(
            TrafficSource::captcha_nonce(&*ex_a),
            TrafficSource::captcha_nonce(&*ex_b)
        );
    }

    /// Boxing must not change the stream either.
    #[test]
    fn boxed_source_streams_identically() {
        let mut builder = WebBuilder::new(4242);
        let exchanges = build_all_exchanges(&mut builder, 0.03, 600);
        let mut builder2 = WebBuilder::new(4242);
        let exchanges2 = build_all_exchanges(&mut builder2, 0.03, 600);

        for (plain, boxed_src) in exchanges.into_iter().zip(exchanges2) {
            let mut plain = plain;
            let mut boxed: Box<dyn TrafficSource + Send> = Box::new(boxed_src);
            assert_eq!(TrafficSource::name(&plain), boxed.name());
            assert_eq!(TrafficSource::kind(&plain), boxed.kind());
            let mut rng_a = StdRng::seed_from_u64(11);
            let mut rng_b = StdRng::seed_from_u64(11);
            for t in 0..20u64 {
                let a = TrafficSource::next_step(&mut plain, t * 45, &mut rng_a);
                let b = boxed.next_step(t * 45, &mut rng_b);
                assert_eq!(a.url, b.url);
            }
        }
    }
}
