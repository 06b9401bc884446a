//! # slum-adnet
//!
//! The ad-network traffic substrate: a second malware-distribution
//! ecosystem behind the same [`slum_exchange::TrafficSource`] contract
//! the traffic exchanges implement.
//!
//! The paper measured traffic *exchanges*; its closing discussion notes
//! that the same low-quality traffic flows through underground ad
//! networks. This crate models that ecosystem: publisher pages embed ad
//! slots filled by a rotation of *creatives*, a slice of which are
//! malicious campaigns whose landing pages hide behind ad-chain
//! redirects (the third-party inclusion trees of ad serving). The
//! crawler drives an [`AdNetwork`] exactly like an exchange — each surf
//! step is one served impression — so the corpus flows through the
//! unchanged referral filter, scan pipeline and artifact layer.
//!
//! Mapping onto the crawl contract:
//!
//! - **Self-referrals** — the network's own interstitial/landing pages
//!   (served on the ad-server host).
//! - **Popular referrals** — premium direct-deal publishers the network
//!   pads its reporting with (the analog of the exchanges' Google /
//!   Facebook / YouTube padding).
//! - **Regular URLs** — creative landing pages: the analysis corpus.
//! - **Campaign flights** — time-boxed malvertising buys that boost one
//!   malicious creative, the ad-world analog of the exchanges' paid
//!   campaign bursts (§IV).
//!
//! All rotation randomness is drawn from the crawler's cursor RNG in an
//! order that is a pure function of network state and virtual time, so
//! every determinism guarantee of the crawl layer (worker fan-out,
//! segment boundaries, kill+resume) holds for this substrate too.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod network;
pub mod params;
pub mod setup;

pub use network::{AdNetwork, Creative, Flight};
pub use params::{profile, AdNetProfile, PROFILES};
pub use setup::{build_ad_network, build_all_networks, PREMIUM_HOSTS};
