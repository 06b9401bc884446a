//! The index site itself: listings, swarm rotation, download gates.

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use slum_exchange::campaign::Campaign;
use slum_exchange::captcha::Captcha;
use slum_exchange::rotation::{Rotation, RotationEntry};
use slum_exchange::{ExchangeKind, SurfStep, TrafficSource};
use slum_websim::rng::path_token;
use slum_websim::Url;

/// One torrent listing: a swarm whose "download" link lands on the
/// publisher's payload page.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TorrentListing {
    /// Publisher payload-page URL.
    pub url: Url,
    /// Rotation weight (seeder count analog: hot swarms get followed
    /// more).
    pub weight: f64,
    /// Ground truth: whether the listing was seeded by a fake
    /// publisher (used by calibration and the oracle, never by
    /// rotation).
    pub fake_publisher: bool,
}

impl RotationEntry for TorrentListing {
    fn url(&self) -> &Url {
        &self.url
    }

    fn weight(&self) -> f64 {
        self.weight
    }
}

/// A configured torrent index: a deterministic listing stream behind
/// the [`TrafficSource`] contract.
#[derive(Debug, Clone)]
pub struct TorrentIndex {
    name: String,
    kind: ExchangeKind,
    /// The index's own browse page (self-referral target).
    home: Url,
    /// Community mirror sites the index cross-links.
    mirrors: Vec<Url>,
    listings: Vec<TorrentListing>,
    /// Listing weights (swarm heat never gets boosted).
    rotation: Rotation,
    self_fraction: f64,
    mirror_fraction: f64,
    min_surf_secs: u32,
    captcha_nonce: u64,
}

impl TorrentIndex {
    /// Creates an index.
    ///
    /// # Panics
    ///
    /// Panics when `listings` is empty or the referral fractions leave
    /// no room for regular listings.
    #[allow(clippy::too_many_arguments)] // a constructor mirroring the profile fields
    pub fn new(
        name: impl Into<String>,
        kind: ExchangeKind,
        home: Url,
        mirrors: Vec<Url>,
        listings: Vec<TorrentListing>,
        self_fraction: f64,
        mirror_fraction: f64,
        min_surf_secs: u32,
    ) -> Self {
        assert!(!listings.is_empty(), "an index needs at least one listing");
        assert!(
            self_fraction + mirror_fraction < 1.0,
            "referral fractions must leave room for regular listings"
        );
        TorrentIndex {
            name: name.into(),
            kind,
            home,
            mirrors,
            listings,
            rotation: Rotation::default(),
            self_fraction,
            mirror_fraction,
            min_surf_secs,
            captcha_nonce: 0,
        }
    }

    /// Index name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Registered listings.
    pub fn listings(&self) -> &[TorrentListing] {
        &self.listings
    }
}

impl TrafficSource for TorrentIndex {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> ExchangeKind {
        self.kind
    }

    fn min_surf_secs(&self) -> u32 {
        self.min_surf_secs
    }

    /// Follows one listing at virtual time `t`.
    ///
    /// Rotation: with probability `self_fraction` the crawl lands on a
    /// browse page of the index itself (usually a paginated variant);
    /// with `mirror_fraction` a community mirror; otherwise a listing
    /// weighted by swarm heat. Download links usually carry a gate
    /// token (`?dl=`), so distinct URLs accumulate per payload domain.
    /// Manual-surf indexes CAPTCHA-gate every download; the nonce
    /// counter advances exactly like the manual-surf exchanges' so
    /// checkpoint resume regenerates the identical challenge sequence.
    fn next_step(&mut self, t: u64, rng: &mut StdRng) -> SurfStep {
        let roll: f64 = rng.gen();
        let url = if roll < self.self_fraction {
            // Paginated browse pages: same host, varying path.
            if rng.gen_bool(0.6) {
                let token = path_token(rng, 4);
                self.home.with_path(&format!("/browse?p={token}"))
            } else {
                self.home.clone()
            }
        } else if roll < self.self_fraction + self.mirror_fraction && !self.mirrors.is_empty() {
            self.mirrors[rng.gen_range(0..self.mirrors.len())].clone()
        } else {
            let no_boosts: &[Campaign] = &[];
            let (idx, _) = self.rotation.pick(t, rng, &self.listings, no_boosts);
            let base = &self.listings[idx].url;
            if rng.gen_bool(0.7) {
                let token = path_token(rng, 6);
                base.with_path(&format!("{}?dl={}", base.path(), token))
            } else {
                base.clone()
            }
        };
        let captcha = match self.kind {
            ExchangeKind::ManualSurf => {
                self.captcha_nonce += 1;
                Some(Captcha::for_nonce(self.captcha_nonce))
            }
            ExchangeKind::AutoSurf => None,
        };
        SurfStep { url, min_surf_secs: self.min_surf_secs, captcha, campaign_boosted: false }
    }

    fn captcha_nonce(&self) -> u64 {
        self.captcha_nonce
    }

    fn restore_captcha_nonce(&mut self, nonce: u64) {
        self.captcha_nonce = nonce;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slum_websim::rng::seeded;

    fn listing(host: &str, weight: f64, fake: bool) -> TorrentListing {
        TorrentListing { url: Url::http(host, "/payload"), weight, fake_publisher: fake }
    }

    fn basic_index(kind: ExchangeKind) -> TorrentIndex {
        TorrentIndex::new(
            "TestIdx",
            kind,
            Url::http("testidx.torrent.example", "/"),
            vec![Url::http("mirror-a.example", "/"), Url::http("mirror-b.example", "/")],
            vec![
                listing("linux-iso.example.com", 1.0, false),
                listing("freeware.example.com", 1.0, false),
                listing("fake-codec.example.com", 1.0, true),
            ],
            0.15,
            0.08,
            20,
        )
    }

    #[test]
    fn referral_fractions_respected() {
        let mut idx = basic_index(ExchangeKind::AutoSurf);
        let mut rng = seeded(1);
        let n = 20_000;
        let (mut selfs, mut mirrors) = (0u64, 0u64);
        for t in 0..n {
            let step = idx.next_step(t, &mut rng);
            let host = step.url.host().to_string();
            if host == "testidx.torrent.example" {
                selfs += 1;
            } else if host.starts_with("mirror-") {
                mirrors += 1;
            }
        }
        assert!((selfs as f64 / n as f64 - 0.15).abs() < 0.01);
        assert!((mirrors as f64 / n as f64 - 0.08).abs() < 0.01);
    }

    #[test]
    fn self_pages_stay_on_the_index_host() {
        let mut idx = basic_index(ExchangeKind::AutoSurf);
        let mut rng = seeded(2);
        let mut browse_variants = std::collections::BTreeSet::new();
        for t in 0..5_000 {
            let step = idx.next_step(t, &mut rng);
            if step.url.host() == "testidx.torrent.example" {
                browse_variants.insert(step.url.to_string());
            }
        }
        assert!(browse_variants.len() > 10, "paginated browse pages vary");
    }

    #[test]
    fn manual_gates_downloads_auto_does_not() {
        let mut manual = basic_index(ExchangeKind::ManualSurf);
        let mut auto = basic_index(ExchangeKind::AutoSurf);
        let mut rng = seeded(3);
        assert!(manual.next_step(0, &mut rng).captcha.is_some());
        assert!(auto.next_step(0, &mut rng).captcha.is_none());
        assert_eq!(TrafficSource::captcha_nonce(&manual), 1);
        assert_eq!(TrafficSource::captcha_nonce(&auto), 0);
    }

    #[test]
    fn captcha_nonce_round_trips_for_resume() {
        let mut idx = basic_index(ExchangeKind::ManualSurf);
        let mut rng = seeded(4);
        let _ = idx.next_step(0, &mut rng);
        let _ = idx.next_step(1, &mut rng);
        let snapshot = TrafficSource::captcha_nonce(&idx);
        let expected = idx.next_step(2, &mut rng).captcha.unwrap();
        let mut resumed = basic_index(ExchangeKind::ManualSurf);
        resumed.restore_captcha_nonce(snapshot);
        let mut rng2 = seeded(4);
        let _ = rng2.gen::<u64>();
        let got = resumed.next_step(2, &mut rng2).captcha.unwrap();
        assert_eq!(got, expected);
    }

    #[test]
    fn stream_is_deterministic_per_seed() {
        let mut a = basic_index(ExchangeKind::ManualSurf);
        let mut b = basic_index(ExchangeKind::ManualSurf);
        let mut rng_a = seeded(9);
        let mut rng_b = seeded(9);
        for t in 0..500 {
            assert_eq!(a.next_step(t, &mut rng_a).url, b.next_step(t, &mut rng_b).url);
        }
    }

    #[test]
    #[should_panic(expected = "at least one listing")]
    fn empty_index_rejected() {
        TorrentIndex::new(
            "X",
            ExchangeKind::AutoSurf,
            Url::http("x.example", "/"),
            vec![],
            vec![],
            0.1,
            0.1,
            10,
        );
    }
}
