//! # slum-exchange
//!
//! A traffic-exchange simulator for the `malware-slums` reproduction of
//! *Malware Slums* (DSN 2016).
//!
//! The paper measured nine live exchanges — five auto-surf (Otohits,
//! ManyHit, SendSurf, Smiley Traffic, 10KHits) and four manual-surf
//! (Cash N Hits, Easyhits4u, Traffic Monsoon, Hit2Hit). This crate
//! models the machinery of such services that shapes the URL stream a
//! crawling member sees:
//!
//! - the **credit economy**: earn credits by surfing, spend them on
//!   visits, or buy them for cash ([`economy`]);
//! - **surf sessions**: auto-surf streams that rotate member sites on a
//!   timer, and manual-surf flows gated by CAPTCHAs ([`exchange`],
//!   [`captcha`]);
//! - **lifecycle faults**: seeded, deterministic outage / ban /
//!   CAPTCHA-lockout / permanent-shutdown schedules modelling the
//!   operational hazards of a months-long crawl ([`lifecycle`]);
//! - **paid campaigns**: fixed-duration weight boosts that produce the
//!   bursty malicious-URL arrivals of Figure 3(b), and the
//!   $5-for-2500-visits burst-validation experiment ([`campaign`]);
//! - **rotation**: the weighted pick with time-boxed boosts that every
//!   traffic source shares ([`rotation`]);
//! - **calibration profiles** for all nine exchanges, carrying the
//!   Table I/II marginals ([`params`]).
//!
//! [`setup::build_exchange`] wires an exchange to a
//! [`slum_websim::build::WebBuilder`], installing its member-site
//! population into the synthetic web.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod captcha;
pub mod economy;
pub mod exchange;
pub mod lifecycle;
pub mod params;
pub mod rotation;
pub mod setup;
pub mod source;

pub use exchange::{Exchange, ExchangeKind, Listing, SurfStep};
pub use params::{ExchangeProfile, PROFILES};
pub use setup::build_exchange;
pub use source::TrafficSource;
