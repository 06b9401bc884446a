//! The exchange itself: listings, rotation, surf steps.

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use slum_websim::rng::path_token;
use slum_websim::Url;

use crate::campaign::Campaign;
use crate::captcha::Captcha;
use crate::rotation::{Rotation, RotationEntry};

/// Auto-surf or manual-surf.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExchangeKind {
    /// Automated rotation, no user input required.
    AutoSurf,
    /// User clicks through, gated by CAPTCHAs.
    ManualSurf,
}

impl ExchangeKind {
    /// Table I's type column text.
    pub fn label(self) -> &'static str {
        match self {
            ExchangeKind::AutoSurf => "Auto-surf",
            ExchangeKind::ManualSurf => "Manual-surf",
        }
    }
}

/// A member-site listing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Listing {
    /// Site entry URL.
    pub url: Url,
    /// Base rotation weight.
    pub weight: f64,
    /// Whether the listed site is malicious (ground truth; used only by
    /// the oracle and calibration, never by rotation itself).
    pub malicious: bool,
}

impl RotationEntry for Listing {
    fn url(&self) -> &Url {
        &self.url
    }

    fn weight(&self) -> f64 {
        self.weight
    }
}

/// One step of a surf session: the URL to open plus the gate conditions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SurfStep {
    /// URL the surfbar opens (query parameters vary per visit, so
    /// distinct URLs accumulate on each domain as in the corpus).
    pub url: Url,
    /// Seconds the member must remain on the page for credit.
    pub min_surf_secs: u32,
    /// CAPTCHA to solve first (manual-surf only).
    pub captcha: Option<Captcha>,
    /// Whether the served listing carried an active paid-campaign boost
    /// at selection time (the burst traffic of §IV; lets the crawler
    /// report how many of its surf steps landed inside a burst).
    pub campaign_boosted: bool,
}

/// A configured traffic exchange.
///
/// ```
/// use slum_exchange::{build_exchange, params::profile};
/// use slum_websim::build::WebBuilder;
/// use slum_websim::rng::seeded;
///
/// let mut builder = WebBuilder::new(3);
/// let mut exchange =
///     build_exchange(&mut builder, profile("Otohits").unwrap(), 0.05, 50_000);
/// let mut rng = seeded(3);
/// let step = exchange.next_step(0, &mut rng);
/// assert!(step.captcha.is_none(), "auto-surf exchanges have no CAPTCHA");
/// assert_eq!(step.min_surf_secs, 10);
/// ```
#[derive(Debug, Clone)]
pub struct Exchange {
    /// Exchange display name.
    name: String,
    kind: ExchangeKind,
    /// The exchange's own homepage (self-referral target).
    home: Url,
    /// Popular sites the exchange pads rotations with.
    popular: Vec<Url>,
    listings: Vec<Listing>,
    campaigns: Vec<Campaign>,
    /// Effective listing weights under the open campaigns.
    rotation: Rotation,
    self_fraction: f64,
    popular_fraction: f64,
    min_surf_secs: u32,
    captcha_nonce: u64,
}

impl Exchange {
    /// Creates an exchange.
    ///
    /// # Panics
    ///
    /// Panics when `listings` is empty or the referral fractions exceed 1.
    #[allow(clippy::too_many_arguments)] // a constructor mirroring the profile fields
    pub fn new(
        name: impl Into<String>,
        kind: ExchangeKind,
        home: Url,
        popular: Vec<Url>,
        listings: Vec<Listing>,
        self_fraction: f64,
        popular_fraction: f64,
        min_surf_secs: u32,
    ) -> Self {
        assert!(!listings.is_empty(), "an exchange needs at least one listing");
        assert!(
            self_fraction + popular_fraction < 1.0,
            "referral fractions must leave room for regular URLs"
        );
        Exchange {
            name: name.into(),
            kind,
            home,
            popular,
            listings,
            campaigns: Vec::new(),
            rotation: Rotation::default(),
            self_fraction,
            popular_fraction,
            min_surf_secs,
            captcha_nonce: 0,
        }
    }

    /// Exchange name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Exchange kind.
    pub fn kind(&self) -> ExchangeKind {
        self.kind
    }

    /// The exchange's homepage URL.
    pub fn home(&self) -> &Url {
        &self.home
    }

    /// Registered listings.
    pub fn listings(&self) -> &[Listing] {
        &self.listings
    }

    /// Active + scheduled campaigns.
    pub fn campaigns(&self) -> &[Campaign] {
        &self.campaigns
    }

    /// Minimum per-page surf time the exchange enforces (seconds).
    pub fn min_surf_secs(&self) -> u32 {
        self.min_surf_secs
    }

    /// The current CAPTCHA nonce — the only piece of exchange state a
    /// surf session mutates. Checkpointing a crawl records it so a
    /// resumed session regenerates the identical CAPTCHA sequence.
    pub fn captcha_nonce(&self) -> u64 {
        self.captcha_nonce
    }

    /// Restores the CAPTCHA nonce captured by
    /// [`Exchange::captcha_nonce`] when resuming a crawl.
    pub fn restore_captcha_nonce(&mut self, nonce: u64) {
        self.captcha_nonce = nonce;
    }

    /// Schedules a campaign (weight boost on the listing whose URL
    /// matches `campaign.target`; unknown targets are accepted — the
    /// listing is added with zero base weight, matching how a freshly
    /// listed dummy site behaves).
    pub fn schedule_campaign(&mut self, campaign: Campaign) {
        if !self.listings.iter().any(|l| l.url == campaign.target) {
            self.listings.push(Listing {
                url: campaign.target.clone(),
                weight: 0.0,
                malicious: false,
            });
        }
        self.campaigns.push(campaign);
    }

    /// Produces the next surf step at virtual time `t`.
    ///
    /// Rotation: with probability `self_fraction` the exchange opens its
    /// own homepage (self-referral); with `popular_fraction` a popular
    /// site; otherwise a member listing weighted by base weight plus any
    /// active campaign boosts.
    pub fn next_step(&mut self, t: u64, rng: &mut StdRng) -> SurfStep {
        let roll: f64 = rng.gen();
        let mut campaign_boosted = false;
        let url = if roll < self.self_fraction {
            self.home.clone()
        } else if roll < self.self_fraction + self.popular_fraction && !self.popular.is_empty() {
            self.popular[rng.gen_range(0..self.popular.len())].clone()
        } else {
            let (idx, boosted) = self.rotation.pick(t, rng, &self.listings, &self.campaigns);
            campaign_boosted = boosted;
            let base = &self.listings[idx].url;
            // Exchanges append tracking parameters, which is why the
            // corpus has ~18 distinct URLs per domain.
            if rng.gen_bool(0.7) {
                let token = path_token(rng, 6);
                let path = format!("{}?sid={}", base.path(), token);
                base.with_path(&path)
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
        SurfStep { url, min_surf_secs: self.min_surf_secs, captcha, campaign_boosted }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slum_websim::rng::seeded;

    fn listing(host: &str, weight: f64, malicious: bool) -> Listing {
        Listing { url: Url::http(host, "/"), weight, malicious }
    }

    fn basic_exchange(kind: ExchangeKind) -> Exchange {
        Exchange::new(
            "TestX",
            kind,
            Url::http("testx.exchange.example", "/"),
            vec![Url::http("google.example", "/"), Url::http("youtube.example", "/")],
            vec![
                listing("member-a.example.com", 1.0, false),
                listing("member-b.example.com", 1.0, false),
                listing("evil.example.com", 1.0, true),
            ],
            0.10,
            0.10,
            30,
        )
    }

    #[test]
    fn referral_fractions_respected() {
        let mut x = basic_exchange(ExchangeKind::AutoSurf);
        let mut rng = seeded(1);
        let n = 20_000;
        let mut selfs = 0;
        let mut populars = 0;
        for t in 0..n {
            let step = x.next_step(t, &mut rng);
            let host = step.url.host().to_string();
            if host == "testx.exchange.example" {
                selfs += 1;
            } else if host.ends_with("google.example") || host.ends_with("youtube.example") {
                populars += 1;
            }
        }
        let self_frac = selfs as f64 / n as f64;
        let pop_frac = populars as f64 / n as f64;
        assert!((self_frac - 0.10).abs() < 0.01, "self {self_frac}");
        assert!((pop_frac - 0.10).abs() < 0.01, "popular {pop_frac}");
    }

    #[test]
    fn auto_surf_has_no_captcha_manual_does() {
        let mut auto = basic_exchange(ExchangeKind::AutoSurf);
        let mut manual = basic_exchange(ExchangeKind::ManualSurf);
        let mut rng = seeded(2);
        assert!(auto.next_step(0, &mut rng).captcha.is_none());
        assert!(manual.next_step(0, &mut rng).captcha.is_some());
    }

    #[test]
    fn captcha_nonces_advance() {
        let mut x = basic_exchange(ExchangeKind::ManualSurf);
        let mut rng = seeded(3);
        let a = x.next_step(0, &mut rng).captcha.unwrap();
        let b = x.next_step(1, &mut rng).captcha.unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn captcha_nonce_round_trips_for_resume() {
        let mut x = basic_exchange(ExchangeKind::ManualSurf);
        let mut rng = seeded(6);
        let _ = x.next_step(0, &mut rng);
        let _ = x.next_step(1, &mut rng);
        let snapshot = x.captcha_nonce();
        let expected = x.next_step(2, &mut rng).captcha.unwrap();
        let mut resumed = basic_exchange(ExchangeKind::ManualSurf);
        resumed.restore_captcha_nonce(snapshot);
        let mut rng2 = seeded(6);
        let _ = rng2.gen::<u64>(); // position is irrelevant to the CAPTCHA
        let got = resumed.next_step(2, &mut rng2).captcha.unwrap();
        assert_eq!(got, expected);
    }

    #[test]
    fn campaign_boost_skews_rotation_during_window() {
        let mut x = basic_exchange(ExchangeKind::ManualSurf);
        x.schedule_campaign(Campaign {
            target: Url::http("evil.example.com", "/"),
            visits_purchased: 1_000,
            dollars: 2,
            start: 1_000,
            end: 2_000,
            boost: 100.0,
        });
        let mut rng = seeded(4);
        let evil_share = |x: &mut Exchange, rng: &mut StdRng, t0: u64| {
            let mut evil = 0;
            let n = 3_000;
            for i in 0..n {
                let step = x.next_step(t0 + (i % 900), rng);
                if step.url.host() == "evil.example.com" {
                    evil += 1;
                }
            }
            evil as f64 / n as f64
        };
        let before = evil_share(&mut x, &mut rng, 0);
        let during = evil_share(&mut x, &mut rng, 1_000);
        assert!(during > before * 2.0, "boost must dominate: before {before}, during {during}");
        assert!(during > 0.6, "campaign should capture most rotation: {during}");
    }

    #[test]
    fn steps_flag_campaign_boosted_listings() {
        let mut x = basic_exchange(ExchangeKind::AutoSurf);
        x.schedule_campaign(Campaign {
            target: Url::http("evil.example.com", "/"),
            visits_purchased: 1_000,
            dollars: 2,
            start: 1_000,
            end: 2_000,
            boost: 100.0,
        });
        let mut rng = seeded(5);
        // Outside the window nothing is boosted.
        assert!((0..200).all(|t| !x.next_step(t, &mut rng).campaign_boosted));
        // Inside, exactly the steps that land on the boosted listing are.
        let mut boosted = 0;
        for i in 0..500 {
            let step = x.next_step(1_000 + i, &mut rng);
            assert_eq!(step.campaign_boosted, step.url.host() == "evil.example.com");
            boosted += u64::from(step.campaign_boosted);
        }
        assert!(boosted > 250, "boost dominates the window: {boosted}/500");
    }

    #[test]
    fn campaign_on_unlisted_site_lists_it() {
        let mut x = basic_exchange(ExchangeKind::ManualSurf);
        let n_before = x.listings().len();
        x.schedule_campaign(Campaign {
            target: Url::http("dummy-experiment.example.com", "/"),
            visits_purchased: 2_500,
            dollars: 5,
            start: 0,
            end: 3_600,
            boost: 10.0,
        });
        assert_eq!(x.listings().len(), n_before + 1);
    }

    #[test]
    fn distinct_urls_accumulate_per_domain() {
        let mut x = basic_exchange(ExchangeKind::AutoSurf);
        let mut rng = seeded(5);
        let mut urls = std::collections::BTreeSet::new();
        for t in 0..500 {
            urls.insert(x.next_step(t, &mut rng).url.to_string());
        }
        // 3 listings + home + 2 popular sites, but query variants create
        // far more distinct URLs.
        assert!(urls.len() > 50, "only {} distinct URLs", urls.len());
    }

    #[test]
    #[should_panic(expected = "at least one listing")]
    fn empty_exchange_rejected() {
        Exchange::new(
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
