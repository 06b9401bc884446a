//! The ad network itself: creatives, flights, impression rotation.

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use slum_exchange::rotation::{Rotation, RotationBoost, RotationEntry};
use slum_exchange::{ExchangeKind, SurfStep, TrafficSource};
use slum_websim::rng::path_token;
use slum_websim::Url;

/// One creative in the network's rotation: an ad whose click-through
/// lands on `url`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Creative {
    /// Landing-page URL (often the head of an ad-chain redirect for
    /// malicious campaigns).
    pub url: Url,
    /// Base rotation weight.
    pub weight: f64,
    /// Ground truth: whether the campaign behind this creative is
    /// malicious (used by calibration and the oracle, never by
    /// rotation).
    pub malicious: bool,
}

impl RotationEntry for Creative {
    fn url(&self) -> &Url {
        &self.url
    }

    fn weight(&self) -> f64 {
        self.weight
    }
}

/// A time-boxed malvertising flight: a paid buy that boosts one
/// creative hard for its window — the ad-world analog of the exchanges'
/// paid campaign bursts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Flight {
    /// Landing URL of the boosted creative.
    pub target: Url,
    /// Virtual second the flight starts.
    pub start: u64,
    /// Virtual second the flight ends (exclusive).
    pub end: u64,
    /// Additive rotation-weight boost while active.
    pub boost: f64,
}

impl Flight {
    /// Whether the flight is serving at time `t`.
    pub fn active_at(&self, t: u64) -> bool {
        (self.start..self.end).contains(&t)
    }
}

impl RotationBoost for Flight {
    fn target(&self) -> &Url {
        &self.target
    }

    fn window(&self) -> std::ops::Range<u64> {
        self.start..self.end
    }

    fn boost(&self) -> f64 {
        self.boost
    }
}

/// A configured ad network: a deterministic impression stream behind
/// the [`TrafficSource`] contract.
#[derive(Debug, Clone)]
pub struct AdNetwork {
    name: String,
    /// The network's own interstitial page (self-referral target).
    home: Url,
    /// Premium direct-deal publisher pages (popular-referral targets).
    premium: Vec<Url>,
    creatives: Vec<Creative>,
    flights: Vec<Flight>,
    /// Effective creative weights under the serving flights.
    rotation: Rotation,
    self_fraction: f64,
    premium_fraction: f64,
    min_surf_secs: u32,
}

impl AdNetwork {
    /// Creates a network.
    ///
    /// # Panics
    ///
    /// Panics when `creatives` is empty or the referral fractions leave
    /// no room for regular impressions.
    pub fn new(
        name: impl Into<String>,
        home: Url,
        premium: Vec<Url>,
        creatives: Vec<Creative>,
        self_fraction: f64,
        premium_fraction: f64,
        min_surf_secs: u32,
    ) -> Self {
        assert!(!creatives.is_empty(), "an ad network needs at least one creative");
        assert!(
            self_fraction + premium_fraction < 1.0,
            "referral fractions must leave room for served creatives"
        );
        AdNetwork {
            name: name.into(),
            home,
            premium,
            creatives,
            flights: Vec::new(),
            rotation: Rotation::default(),
            self_fraction,
            premium_fraction,
            min_surf_secs,
        }
    }

    /// Network name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Registered creatives.
    pub fn creatives(&self) -> &[Creative] {
        &self.creatives
    }

    /// Scheduled malvertising flights.
    pub fn flights(&self) -> &[Flight] {
        &self.flights
    }

    /// Schedules a flight (targets must already be listed; unknown
    /// targets are added with zero base weight, like a creative
    /// uploaded just for the buy).
    pub fn schedule_flight(&mut self, flight: Flight) {
        if !self.creatives.iter().any(|c| c.url == flight.target) {
            self.creatives.push(Creative {
                url: flight.target.clone(),
                weight: 0.0,
                malicious: false,
            });
        }
        self.flights.push(flight);
    }
}

impl TrafficSource for AdNetwork {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> ExchangeKind {
        // Programmatic rotation: impressions are served, never clicked
        // through by an operator.
        ExchangeKind::AutoSurf
    }

    fn min_surf_secs(&self) -> u32 {
        self.min_surf_secs
    }

    /// Serves one impression at virtual time `t`.
    ///
    /// Rotation: with probability `self_fraction` the network serves
    /// its own interstitial; with `premium_fraction` a premium
    /// publisher page; otherwise a creative weighted by base weight
    /// plus any active flight boosts. Served creatives usually carry an
    /// impression token (`?imp=`), so distinct URLs accumulate per
    /// landing domain just like the exchange corpus.
    fn next_step(&mut self, t: u64, rng: &mut StdRng) -> SurfStep {
        let roll: f64 = rng.gen();
        let mut campaign_boosted = false;
        let url = if roll < self.self_fraction {
            self.home.clone()
        } else if roll < self.self_fraction + self.premium_fraction && !self.premium.is_empty() {
            self.premium[rng.gen_range(0..self.premium.len())].clone()
        } else {
            let (idx, boosted) = self.rotation.pick(t, rng, &self.creatives, &self.flights);
            campaign_boosted = boosted;
            let base = &self.creatives[idx].url;
            if rng.gen_bool(0.7) {
                let token = path_token(rng, 8);
                let path = format!("{}?imp={}", base.path(), token);
                base.with_path(&path)
            } else {
                base.clone()
            }
        };
        SurfStep { url, min_surf_secs: self.min_surf_secs, captcha: None, campaign_boosted }
    }

    fn captcha_nonce(&self) -> u64 {
        // Auto-surf pacing: no CAPTCHA gate, so there is no advancing
        // side-channel state to checkpoint.
        0
    }

    fn restore_captcha_nonce(&mut self, _nonce: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use slum_websim::rng::seeded;

    fn creative(host: &str, weight: f64, malicious: bool) -> Creative {
        Creative { url: Url::http(host, "/"), weight, malicious }
    }

    fn basic_network() -> AdNetwork {
        AdNetwork::new(
            "TestNet",
            Url::http("testnet.adnet.example", "/"),
            vec![Url::http("news.premium.example", "/"), Url::http("sports.premium.example", "/")],
            vec![
                creative("brand-a.example.com", 1.0, false),
                creative("brand-b.example.com", 1.0, false),
                creative("sketchy.example.com", 1.0, true),
            ],
            0.08,
            0.12,
            6,
        )
    }

    #[test]
    fn referral_fractions_respected() {
        let mut net = basic_network();
        let mut rng = seeded(1);
        let n = 20_000;
        let (mut selfs, mut premiums) = (0u64, 0u64);
        for t in 0..n {
            let step = net.next_step(t, &mut rng);
            let host = step.url.host().to_string();
            if host == "testnet.adnet.example" {
                selfs += 1;
            } else if host.ends_with("premium.example") {
                premiums += 1;
            }
        }
        assert!((selfs as f64 / n as f64 - 0.08).abs() < 0.01);
        assert!((premiums as f64 / n as f64 - 0.12).abs() < 0.01);
    }

    #[test]
    fn impressions_never_carry_captchas() {
        let mut net = basic_network();
        let mut rng = seeded(2);
        for t in 0..200 {
            assert!(net.next_step(t, &mut rng).captcha.is_none());
        }
        assert_eq!(net.captcha_nonce(), 0);
    }

    #[test]
    fn flight_boost_skews_rotation_during_window() {
        let mut net = basic_network();
        net.schedule_flight(Flight {
            target: Url::http("sketchy.example.com", "/"),
            start: 1_000,
            end: 2_000,
            boost: 100.0,
        });
        let mut rng = seeded(3);
        let share = |net: &mut AdNetwork, rng: &mut StdRng, t0: u64| {
            let n = 3_000;
            let mut hits = 0;
            for i in 0..n {
                let step = net.next_step(t0 + (i % 900), rng);
                if step.url.host() == "sketchy.example.com" {
                    hits += 1;
                }
            }
            hits as f64 / n as f64
        };
        let before = share(&mut net, &mut rng, 0);
        let during = share(&mut net, &mut rng, 1_000);
        assert!(during > before * 2.0, "before {before}, during {during}");
    }

    #[test]
    fn steps_flag_boosted_creatives() {
        let mut net = basic_network();
        net.schedule_flight(Flight {
            target: Url::http("sketchy.example.com", "/"),
            start: 500,
            end: 1_500,
            boost: 100.0,
        });
        let mut rng = seeded(4);
        assert!((0..200).all(|t| !net.next_step(t, &mut rng).campaign_boosted));
        for i in 0..300 {
            let step = net.next_step(500 + i, &mut rng);
            assert_eq!(step.campaign_boosted, step.url.host() == "sketchy.example.com");
        }
    }

    /// Flight windows through the shared rotation table pick exactly as
    /// the per-step weight rebuild this network used to run, including
    /// flights on creatives uploaded after serving began.
    #[test]
    fn flight_rotation_matches_a_per_step_rebuild() {
        use slum_websim::rng::pick_weighted;

        fn rebuilt(t: u64, rng: &mut StdRng, net: &AdNetwork) -> (usize, bool) {
            let serving = |f: &Flight, url: &Url| f.active_at(t) && f.target == *url;
            let weights: Vec<f64> = net
                .creatives()
                .iter()
                .map(|c| {
                    let boost: f64 =
                        net.flights().iter().filter(|f| serving(f, &c.url)).map(|f| f.boost).sum();
                    c.weight + boost
                })
                .collect();
            let total: f64 = weights.iter().sum();
            let idx = if total <= 0.0 {
                rng.gen_range(0..weights.len())
            } else {
                pick_weighted(rng, &weights)
            };
            (idx, net.flights().iter().any(|f| serving(f, &net.creatives()[idx].url)))
        }

        for seed in 0..200 {
            let mut gen = seeded(seed);
            let creatives = (0..gen.gen_range(1..5))
                .map(|i| {
                    let weight = [0.0, 1.0, gen.gen_range(0.0..3.0)][gen.gen_range(0..3)];
                    creative(&format!("c{i}.example.com"), weight, false)
                })
                .collect();
            let home = Url::http("n.adnet.example", "/");
            let mut net = AdNetwork::new("N", home, vec![], creatives, 0.0, 0.0, 5);
            let mut rotation = Rotation::default();
            let (mut cached, mut reference) = (seeded(seed + 1_000), seeded(seed + 1_000));
            let mut t = 0;
            for _ in 0..gen.gen_range(1..120) {
                t += gen.gen_range(0..20);
                if gen.gen_bool(0.06) {
                    // Sometimes a creative nobody has listed yet.
                    let host = format!("c{}.example.com", gen.gen_range(0..6));
                    let start = gen.gen_range(0..t + 200);
                    net.schedule_flight(Flight {
                        target: Url::http(&host, "/"),
                        start,
                        end: start + gen.gen_range(0..300),
                        boost: [0.0, gen.gen_range(0.0..50.0)][gen.gen_range(0..2)],
                    });
                }
                assert_eq!(
                    rotation.pick(t, &mut cached, net.creatives(), net.flights()),
                    rebuilt(t, &mut reference, &net),
                    "seed {seed}, t {t}"
                );
            }
            assert_eq!(cached.state(), reference.state(), "seed {seed}");
        }
    }

    #[test]
    fn stream_is_deterministic_per_seed() {
        let mut a = basic_network();
        let mut b = basic_network();
        let mut rng_a = seeded(9);
        let mut rng_b = seeded(9);
        for t in 0..500 {
            assert_eq!(a.next_step(t, &mut rng_a).url, b.next_step(t, &mut rng_b).url);
        }
    }

    #[test]
    fn distinct_urls_accumulate_per_domain() {
        let mut net = basic_network();
        let mut rng = seeded(5);
        let mut urls = std::collections::BTreeSet::new();
        for t in 0..500 {
            urls.insert(net.next_step(t, &mut rng).url.to_string());
        }
        assert!(urls.len() > 50, "only {} distinct URLs", urls.len());
    }

    #[test]
    #[should_panic(expected = "at least one creative")]
    fn empty_network_rejected() {
        AdNetwork::new(
            "X",
            Url::http("x.example", "/"),
            vec![],
            vec![],
            0.1,
            0.1,
            5,
        );
    }
}
