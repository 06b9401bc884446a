//! Paid traffic campaigns.
//!
//! §IV: "The bursts of malicious URLs can be explained by paid campaigns
//! of fix durations on the traffic exchanges. To validate this
//! assertion, we paid a manual-surf traffic exchange to get impressions
//! on a dummy website. We purchased 2500 visits for $5 and our website
//! received a total of 4,621 visits from 2,685 unique IP addresses in
//! less than an hour."
//!
//! A [`Campaign`] is a fixed-duration weight boost on one listing; the
//! delivery generator reproduces the observed over-delivery and IP
//! diversity.

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use slum_websim::params::VISITOR_COUNTRIES;
use slum_websim::rng::pick_weighted;
use slum_websim::Url;

use crate::rotation::RotationBoost;

/// A purchased traffic campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Campaign {
    /// Target site receiving the visits.
    pub target: Url,
    /// Visits purchased.
    pub visits_purchased: u64,
    /// Price paid in dollars.
    pub dollars: u64,
    /// Virtual start time (seconds).
    pub start: u64,
    /// Virtual end time (seconds).
    pub end: u64,
    /// Multiplier applied to the listing weight while active.
    pub boost: f64,
}

impl Campaign {
    /// True while the campaign is running at time `t`.
    pub fn active_at(&self, t: u64) -> bool {
        (self.start..self.end).contains(&t)
    }

    /// Duration in seconds.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

impl RotationBoost for Campaign {
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

/// One delivered campaign visit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VisitEvent {
    /// Virtual timestamp.
    pub at: u64,
    /// Visitor IP (synthetic token).
    pub ip: String,
    /// Visitor country.
    pub country: String,
}

/// Delivery model calibrated to the paper's burst experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeliveryModel {
    /// Delivered / purchased ratio. Paper: 4,621 / 2,500 ≈ 1.85.
    pub overdelivery: f64,
    /// Unique IPs / delivered visits. Paper: 2,685 / 4,621 ≈ 0.58.
    pub ip_diversity: f64,
    /// Delivery window in seconds ("in less than an hour").
    pub window_secs: u64,
}

impl Default for DeliveryModel {
    fn default() -> Self {
        DeliveryModel { overdelivery: 4_621.0 / 2_500.0, ip_diversity: 2_685.0 / 4_621.0, window_secs: 3_540 }
    }
}

impl DeliveryModel {
    /// Generates the visit stream for a campaign purchase of
    /// `visits_purchased`, starting at `start`.
    ///
    /// Visits arrive uniformly inside the window; the IP pool size is
    /// `ip_diversity × delivered`, and pool members are reused with a
    /// mild skew (real exchange members surf repeatedly).
    pub fn deliver(&self, visits_purchased: u64, start: u64, rng: &mut StdRng) -> Vec<VisitEvent> {
        let delivered = (visits_purchased as f64 * self.overdelivery).round() as u64;
        let pool_size = ((delivered as f64 * self.ip_diversity).round() as u64).max(1);
        let country_weights: Vec<f64> = VISITOR_COUNTRIES.iter().map(|(_, w)| *w).collect();

        let mut events = Vec::with_capacity(delivered as usize);
        for _ in 0..delivered {
            let at = start + rng.gen_range(0..self.window_secs);
            // Skew reuse toward low pool indices: square a uniform draw.
            let u: f64 = rng.gen();
            let idx = ((u * u) * pool_size as f64) as u64 % pool_size;
            let country = VISITOR_COUNTRIES[pick_weighted(rng, &country_weights)].0.to_string();
            events.push(VisitEvent { at, ip: format!("ip-{idx}"), country });
        }
        events.sort_by_key(|e| e.at);
        events
    }
}

/// Summary of a delivered campaign, as the paper reports it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeliveryReport {
    /// Visits purchased.
    pub purchased: u64,
    /// Visits actually delivered.
    pub delivered: u64,
    /// Unique IP addresses observed.
    pub unique_ips: u64,
    /// Seconds from first to last visit.
    pub span_secs: u64,
}

/// Summarizes a visit stream.
pub fn summarize(purchased: u64, events: &[VisitEvent]) -> DeliveryReport {
    let unique_ips = {
        let mut ips: Vec<&str> = events.iter().map(|e| e.ip.as_str()).collect();
        ips.sort_unstable();
        ips.dedup();
        ips.len() as u64
    };
    let span_secs = match (events.first(), events.last()) {
        (Some(first), Some(last)) => last.at - first.at,
        _ => 0,
    };
    DeliveryReport { purchased, delivered: events.len() as u64, unique_ips, span_secs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slum_websim::rng::seeded;

    #[test]
    fn campaign_activity_window() {
        let c = Campaign {
            target: Url::http("dummy.example.com", "/"),
            visits_purchased: 2_500,
            dollars: 5,
            start: 100,
            end: 200,
            boost: 50.0,
        };
        assert!(!c.active_at(99));
        assert!(c.active_at(100));
        assert!(c.active_at(199));
        assert!(!c.active_at(200));
        assert_eq!(c.duration(), 100);
    }

    #[test]
    fn delivery_reproduces_paper_experiment_shape() {
        // Purchase 2,500 visits for $5; expect ≈4,621 delivered from
        // ≈2,685 unique IPs within an hour.
        let mut rng = seeded(2016);
        let model = DeliveryModel::default();
        let events = model.deliver(2_500, 0, &mut rng);
        let report = summarize(2_500, &events);

        assert_eq!(report.delivered, 4_621, "overdelivery factor fixed by model");
        assert!(report.span_secs < 3_600, "within an hour: {}", report.span_secs);
        let ip_ratio = report.unique_ips as f64 / report.delivered as f64;
        assert!(
            (0.40..0.70).contains(&ip_ratio),
            "IP diversity {ip_ratio} should be near the paper's 0.58"
        );
        assert!(report.unique_ips > 1_800 && report.unique_ips < 2_900, "{}", report.unique_ips);
    }

    #[test]
    fn events_sorted_by_time() {
        let mut rng = seeded(7);
        let events = DeliveryModel::default().deliver(100, 500, &mut rng);
        assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(events.iter().all(|e| e.at >= 500));
    }

    #[test]
    fn deterministic_given_seed() {
        let model = DeliveryModel::default();
        let a = model.deliver(50, 0, &mut seeded(1));
        let b = model.deliver(50, 0, &mut seeded(1));
        assert_eq!(a, b);
    }

    #[test]
    fn usa_dominates_visitor_countries() {
        let mut rng = seeded(3);
        let events = DeliveryModel::default().deliver(2_000, 0, &mut rng);
        let usa = events.iter().filter(|e| e.country == "USA").count();
        assert!(usa * 2 > events.len() / 2, "USA must be the plurality country");
    }

    #[test]
    fn summarize_empty_stream() {
        let r = summarize(10, &[]);
        assert_eq!(r.delivered, 0);
        assert_eq!(r.unique_ips, 0);
        assert_eq!(r.span_secs, 0);
    }
}
