//! # slum-torrent
//!
//! The torrent-ecosystem traffic substrate: a third malware-distribution
//! ecosystem behind the same [`slum_exchange::TrafficSource`] contract
//! as the traffic exchanges and ad networks.
//!
//! Torrent index sites list content swarms uploaded by publishers; a
//! slice of those publishers are *fake* — accounts that seed
//! scam/malware payload pages (fake codecs, rebundled installers,
//! blacklisted mirror domains) behind legitimate-looking listings. The
//! crawler drives a [`TorrentIndex`] like any other source: each surf
//! step follows one listing to the publisher's payload page, so the
//! corpus flows through the unchanged referral filter, scan pipeline
//! and artifact layer.
//!
//! Mapping onto the crawl contract:
//!
//! - **Self-referrals** — the index's own browse/search pages.
//! - **Popular referrals** — the big community mirror sites every index
//!   cross-links (the analog of the exchanges' popular-site padding).
//! - **Regular URLs** — publisher payload pages: the analysis corpus.
//! - **Manual-surf indexes** — the two gated indexes front their
//!   download links with CAPTCHAs; the scripted operator solves them
//!   and the nonce counter checkpoints exactly like the manual-surf
//!   exchanges'. The RSS-style feed index rotates passively.
//!
//! All rotation randomness comes from the crawler's cursor RNG in an
//! order that is a pure function of index state and virtual time, so
//! worker fan-out, segment boundaries and kill+resume stay
//! bit-identical on this substrate too.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod index;
pub mod params;
pub mod setup;

pub use index::{TorrentIndex, TorrentListing};
pub use params::{profile, TorrentProfile, PROFILES};
pub use setup::{build_all_indexes, build_torrent_index, MIRROR_HOSTS};
