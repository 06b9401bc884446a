//! Weighted rotation with time-boxed boosts, shared by every traffic
//! source: exchange listings boosted by paid campaigns, ad creatives
//! boosted by malvertising flights, and torrent listings (no boosts).
//!
//! A pick at virtual time `t` draws from the effective weights at `t`:
//! each entry's base weight plus the boosts of the windows open at `t`
//! that target its URL. Those weights only change when a window opens
//! or closes, or when an entry or boost is added, so [`Rotation`] keeps
//! them with their sequential total and rebuilds them only then. Every
//! RNG draw and every pick is exactly the one a rebuild on every step
//! would make.
//!
//! A pick binary-searches the running sums of those weights instead of
//! walking them, and falls back to the walk wherever floating-point
//! rounding could make the two disagree (see [`Rotation::search`]), so
//! the pick is the walk's, bit for bit.

use std::ops::Range;

use rand::rngs::StdRng;
use rand::Rng;

use slum_websim::rng::weighted_index;
use slum_websim::Url;

/// An entry a rotation can land on.
pub trait RotationEntry {
    /// Where a pick of this entry lands.
    fn url(&self) -> &Url;
    /// Base rotation weight.
    fn weight(&self) -> f64;
}

/// An additive weight boost on every entry whose URL is
/// [`target`](RotationBoost::target), open over a half-open window of
/// virtual time.
pub trait RotationBoost {
    /// URL of the boosted entry.
    fn target(&self) -> &Url;
    /// Virtual seconds the boost is open, `start..end`.
    fn window(&self) -> Range<u64>;
    /// Weight added while open.
    fn boost(&self) -> f64;
}

/// The effective-weight table of one rotation, cached between window
/// edges.
///
/// Owners only ever append entries and boosts, so the table records the
/// list lengths it was built from and rebuilds when either changes.
#[derive(Debug, Clone, Default)]
pub struct Rotation {
    /// Effective weight of each entry.
    weights: Vec<f64>,
    /// Running sums of `weights`, added up in order.
    sums: Vec<f64>,
    /// Whether an open window targets each entry.
    boosted: Vec<bool>,
    /// `weights.iter().sum()`.
    total: f64,
    /// How far inside its entry a needle must lie for the search to
    /// answer (infinite when a weight is negative or not a number).
    margin: f64,
    /// Virtual times the table holds for: no window opens or closes
    /// inside it. Empty until the first pick.
    span: Range<u64>,
    /// Entry and boost counts the table was built from.
    built_from: (usize, usize),
}

impl Rotation {
    /// Picks an entry at virtual time `t`, returning its index and
    /// whether an open window targets it. The pick is uniform when the
    /// effective weights do not sum to a positive value, and weighted
    /// otherwise.
    ///
    /// # Panics
    ///
    /// Panics when `entries` is empty.
    pub fn pick<E: RotationEntry, B: RotationBoost>(
        &mut self,
        t: u64,
        rng: &mut StdRng,
        entries: &[E],
        boosts: &[B],
    ) -> (usize, bool) {
        if !self.span.contains(&t) || self.built_from != (entries.len(), boosts.len()) {
            self.rebuild(t, entries, boosts);
        }
        let index = if self.total <= 0.0 {
            rng.gen_range(0..entries.len())
        } else {
            self.index(rng.gen_range(0.0..self.total))
        };
        (index, self.boosted[index])
    }

    /// The entry a drawn `needle` lands on: [`weighted_index`]'s answer,
    /// found by [`Rotation::search`] where it can be.
    fn index(&self, needle: f64) -> usize {
        self.search(needle).unwrap_or_else(|| weighted_index(&self.weights, needle))
    }

    /// The entry whose running-sum interval holds `needle`, when the
    /// needle lies more than `margin` inside it; `None` near an edge.
    ///
    /// With non-negative weights, the walk's needle after `i`
    /// subtractions and the running sum `sums[i]` each stray from their
    /// exact values by at most `i·ε·total/2`. A needle farther than
    /// `4·(n+2)·ε·total` from both edges of the interval it falls in is
    /// beyond anything those errors can move, so the walk stops at the
    /// same entry.
    fn search(&self, needle: f64) -> Option<usize> {
        let i = self.sums.partition_point(|&sum| sum <= needle);
        let end = *self.sums.get(i)?;
        let start = if i == 0 { 0.0 } else { self.sums[i - 1] };
        (needle - start > self.margin && end - needle > self.margin).then_some(i)
    }

    fn rebuild<E: RotationEntry, B: RotationBoost>(&mut self, t: u64, entries: &[E], boosts: &[B]) {
        let open: Vec<&B> = boosts.iter().filter(|b| b.window().contains(&t)).collect();
        self.weights.clear();
        self.boosted.clear();
        for entry in entries {
            let targeting = || open.iter().filter(|b| b.target() == entry.url());
            let boost: f64 = targeting().map(|b| b.boost()).sum();
            self.weights.push(entry.weight() + boost);
            self.boosted.push(targeting().next().is_some());
        }
        self.total = self.weights.iter().sum();
        self.index_weights();
        let edges = || boosts.iter().flat_map(|b| [b.window().start, b.window().end]);
        let start = edges().filter(|&e| e <= t).max().unwrap_or(0);
        let end = edges().filter(|&e| e > t).min().unwrap_or(u64::MAX);
        self.span = start..end;
        self.built_from = (entries.len(), boosts.len());
    }

    /// Adds up `weights` into the running sums and sets the search's
    /// margin.
    fn index_weights(&mut self) {
        self.sums.clear();
        let mut sum = 0.0;
        for w in &self.weights {
            sum += w;
            self.sums.push(sum);
        }
        let n = self.weights.len() as f64;
        self.margin = if self.weights.iter().all(|&w| w >= 0.0) {
            4.0 * (n + 2.0) * f64::EPSILON * self.total
        } else {
            f64::INFINITY
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;
    use crate::exchange::{Exchange, ExchangeKind, Listing};
    use proptest::prelude::*;
    use proptest::TestRng;
    use slum_websim::rng::{pick_weighted, seeded};

    /// A rotation's weight table over `weights`, as a rebuild fills it.
    fn table(weights: &[f64]) -> Rotation {
        let mut rotation =
            Rotation { weights: weights.to_vec(), total: weights.iter().sum(), ..Rotation::default() };
        rotation.index_weights();
        rotation
    }

    /// The rotation as every source computed it before the table: the
    /// effective weights rebuilt from scratch on every step.
    fn per_step_rebuild<E: RotationEntry, B: RotationBoost>(
        t: u64,
        rng: &mut StdRng,
        entries: &[E],
        boosts: &[B],
    ) -> (usize, bool) {
        let open = |b: &&B, url: &Url| b.window().contains(&t) && b.target() == url;
        let weights: Vec<f64> = entries
            .iter()
            .map(|e| {
                let boost: f64 =
                    boosts.iter().filter(|b| open(b, e.url())).map(|b| b.boost()).sum();
                e.weight() + boost
            })
            .collect();
        let total: f64 = weights.iter().sum();
        let index = if total <= 0.0 {
            rng.gen_range(0..entries.len())
        } else {
            pick_weighted(rng, &weights)
        };
        (index, boosts.iter().any(|b| open(&b, entries[index].url())))
    }

    /// One random rotation history.
    #[derive(Debug)]
    struct Scenario {
        seed: u64,
        weights: Vec<f64>,
        /// `(time of the first pick it applies to, campaign)`; scheduled
        /// before the first pick when the time is 0.
        campaigns: Vec<(u64, Campaign)>,
        /// Non-decreasing pick times.
        times: Vec<u64>,
    }

    struct Scenarios;

    impl Strategy for Scenarios {
        type Value = Scenario;

        fn sample(&self, rng: &mut TestRng) -> Scenario {
            let weight = || prop_oneof![Just(0.0), 0.0f64..4.0, Just(1.0)];
            let weights = collection::vec(weight(), 1..6).sample(rng);
            let mut t = 0u64;
            let times: Vec<u64> = (0..(1..160usize).sample(rng))
                .map(|_| {
                    t += (0u64..25).sample(rng);
                    t
                })
                .collect();
            let horizon = t.max(1);
            let campaigns = (0..(0..6usize).sample(rng))
                .map(|_| {
                    // The two indices past the last listing are targets
                    // the exchange does not list yet.
                    let target = match (0..weights.len() + 2).sample(rng) {
                        i if i < weights.len() => listing_url(i),
                        i => Url::http(&format!("unlisted-{i}.example"), "/"),
                    };
                    let start = (0..horizon + 50).sample(rng);
                    let end = start + (0u64..horizon / 2 + 2).sample(rng);
                    let boost = prop_oneof![Just(0.0), 0.0f64..60.0].sample(rng);
                    let scheduled_at =
                        if any::<bool>().sample(rng) { 0 } else { (0..horizon).sample(rng) };
                    let campaign = Campaign {
                        target,
                        visits_purchased: 1,
                        dollars: 1,
                        start,
                        end,
                        boost,
                    };
                    (scheduled_at, campaign)
                })
                .collect();
            Scenario { seed: any::<u64>().sample(rng), weights, campaigns, times }
        }
    }

    fn listing_url(i: usize) -> Url {
        Url::http(&format!("listing-{i}.example"), "/")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn cached_table_picks_exactly_like_a_per_step_rebuild(s in Scenarios) {
            let listings = s
                .weights
                .iter()
                .enumerate()
                .map(|(i, &weight)| Listing { url: listing_url(i), weight, malicious: false })
                .collect();
            let mut exchange = Exchange::new(
                "X",
                ExchangeKind::ManualSurf,
                Url::http("x.example", "/"),
                Vec::new(),
                listings,
                0.0,
                0.0,
                10,
            );
            let mut pending = s.campaigns.clone();
            pending.sort_by_key(|(at, _)| *at);
            let mut pending = pending.into_iter().peekable();
            let mut rotation = Rotation::default();
            let (mut cached_rng, mut reference_rng) = (seeded(s.seed), seeded(s.seed));
            for &t in &s.times {
                while let Some((_, campaign)) = pending.next_if(|(at, _)| *at <= t) {
                    exchange.schedule_campaign(campaign);
                }
                let (entries, boosts) = (exchange.listings(), exchange.campaigns());
                prop_assert_eq!(
                    rotation.pick(t, &mut cached_rng, entries, boosts),
                    per_step_rebuild(t, &mut reference_rng, entries, boosts),
                    "t = {}", t
                );
            }
            prop_assert_eq!(cached_rng.state(), reference_rng.state());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The search answers exactly as the walk does, for needles
        /// within three ulps of every running sum, where rounding
        /// decides, and for needles drawn as a pick draws them. Weights
        /// are zeros and magnitudes from 1e-6 to 1e6.
        #[test]
        fn search_picks_exactly_like_the_walk(
            len in prop_oneof![1usize..65, 1usize..5001],
            seed in any::<u64>(),
        ) {
            let mut rng = seeded(seed);
            let weights: Vec<f64> = (0..len)
                .map(|_| if rng.gen_bool(0.25) { 0.0 } else { 10f64.powf(rng.gen_range(-6.0..6.0)) })
                .collect();
            let rotation = table(&weights);
            prop_assume!(rotation.total > 0.0);
            let mut needles = Vec::new();
            for &edge in std::iter::once(&0.0).chain(&rotation.sums) {
                let (mut up, mut down) = (edge, edge);
                needles.push(edge);
                for _ in 0..3 {
                    (up, down) = (up.next_up(), down.next_down());
                    needles.extend([up, down]);
                }
            }
            let drawn: Vec<f64> = (0..200).map(|_| rng.gen_range(0.0..rotation.total)).collect();
            let mut searched = 0;
            for &needle in needles.iter().chain(&drawn) {
                if !(0.0..rotation.total).contains(&needle) {
                    continue;
                }
                prop_assert_eq!(
                    rotation.index(needle),
                    weighted_index(&weights, needle),
                    "needle {:e} of {:e}", needle, rotation.total
                );
                searched += usize::from(rotation.search(needle).is_some());
            }
            prop_assert!(searched > 0, "the search answers drawn needles");
        }
    }

    #[test]
    fn table_is_rebuilt_only_at_window_edges_and_appends() {
        let entries = vec![Listing { url: listing_url(0), weight: 1.0, malicious: false }];
        let mut boosts = vec![Campaign {
            target: listing_url(0),
            visits_purchased: 1,
            dollars: 1,
            start: 10,
            end: 20,
            boost: 5.0,
        }];
        let mut rotation = Rotation::default();
        let mut rng = seeded(1);
        rotation.pick(3, &mut rng, &entries, &boosts);
        assert_eq!((rotation.span.clone(), rotation.total), (0..10, 1.0));
        rotation.pick(12, &mut rng, &entries, &boosts);
        assert_eq!((rotation.span.clone(), rotation.total), (10..20, 6.0));
        assert_eq!(rotation.pick(19, &mut rng, &entries, &boosts), (0, true));
        rotation.pick(20, &mut rng, &entries, &boosts);
        assert_eq!((rotation.span.clone(), rotation.total), (20..u64::MAX, 1.0));
        boosts.push(Campaign { start: 0, end: 100, ..boosts[0].clone() });
        rotation.pick(25, &mut rng, &entries, &boosts);
        assert_eq!((rotation.span.clone(), rotation.total), (20..100, 6.0));
    }
}
