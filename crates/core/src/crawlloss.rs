//! Crawl-loss-under-exchange-faults experiment.
//!
//! [`crate::faultloss`] quantifies what *scan-service* unavailability
//! costs; this experiment quantifies what *exchange-side* downtime
//! costs. It runs the same seeded study twice — once with an inert
//! crawl-fault profile, once under a [`CrawlFaultProfile`] — and
//! compares the per-exchange Table I statistics. Crawl faults change
//! the corpus itself (outage windows lose surf slots, a permanent
//! shutdown truncates an exchange's crawl entirely), so the interesting
//! question is not which verdicts flip but how the *measured malice
//! rates* shift when an exchange's observation window shrinks — the
//! Traffic-Monsoon bias problem: the paper's Table I rows rest on very
//! different per-exchange sample sizes, and mid-study downtime skews
//! them further.

use slum_crawler::CrawlFaultProfile;

use crate::study::{steps_for, Study, StudyConfig};
use slum_exchange::params::PROFILES;

/// Parameters of the crawl-loss experiment.
#[derive(Debug, Clone)]
pub struct CrawlLossConfig {
    /// Study seed (shared by both runs).
    pub seed: u64,
    /// Crawl-volume scale for both runs.
    pub crawl_scale: f64,
    /// Domain-pool scale for both runs.
    pub domain_scale: f64,
    /// The crawl-fault profile the degraded run crawls under.
    pub profile: CrawlFaultProfile,
}

impl Default for CrawlLossConfig {
    fn default() -> Self {
        CrawlLossConfig {
            seed: 2016,
            crawl_scale: 0.0003,
            domain_scale: 0.03,
            profile: CrawlFaultProfile::default_profile(),
        }
    }
}

/// Per-exchange comparison between the fault-free and the faulted
/// crawl.
#[derive(Debug, Clone, PartialEq)]
pub struct ExchangeBiasRow {
    /// Exchange name.
    pub exchange: String,
    /// Surf slots planned for this exchange (identical in both runs).
    pub planned_steps: u64,
    /// Pages logged by the fault-free crawl (equals the plan).
    pub pages_baseline: u64,
    /// Pages logged under the fault profile.
    pub pages_faulted: u64,
    /// Slots lost to faults (outages, bans, lockouts, shutdown).
    pub lost_steps: u64,
    /// Virtual seconds the faulted crawl spent down on this exchange.
    pub downtime_secs: u64,
    /// Virtual second the exchange permanently shut down, if it did.
    pub shutdown_at: Option<u64>,
    /// Regular (analyzed) records in the baseline.
    pub regular_baseline: u64,
    /// Regular records under faults.
    pub regular_faulted: u64,
    /// Malicious verdicts in the baseline.
    pub malicious_baseline: u64,
    /// Malicious verdicts under faults.
    pub malicious_faulted: u64,
}

impl ExchangeBiasRow {
    /// Baseline malice rate over regular records.
    pub fn rate_baseline(&self) -> f64 {
        rate(self.malicious_baseline, self.regular_baseline)
    }

    /// Faulted malice rate over regular records.
    pub fn rate_faulted(&self) -> f64 {
        rate(self.malicious_faulted, self.regular_faulted)
    }

    /// How far exchange downtime moved this row's measured malice rate
    /// (positive: the shrunken window *over*states malice).
    pub fn rate_bias(&self) -> f64 {
        self.rate_faulted() - self.rate_baseline()
    }
}

fn rate(malicious: u64, regular: u64) -> f64 {
    if regular == 0 {
        0.0
    } else {
        malicious as f64 / regular as f64
    }
}

/// Outcome of the crawl-loss experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct CrawlLossReport {
    /// Name of the crawl-fault profile the degraded run used.
    pub profile: String,
    /// Per-exchange comparison rows, in Table I order.
    pub rows: Vec<ExchangeBiasRow>,
    /// Total pages in the fault-free crawl.
    pub pages_baseline: u64,
    /// Total pages under the fault profile.
    pub pages_faulted: u64,
    /// Total slots lost to faults.
    pub lost_steps: u64,
    /// Exchanges that permanently shut down mid-crawl.
    pub shutdowns: u64,
    /// Overall malice rate (malicious / regular) in the baseline.
    pub overall_rate_baseline: f64,
    /// Overall malice rate under faults.
    pub overall_rate_faulted: f64,
}

impl CrawlLossReport {
    /// Fraction of the planned corpus the faulted crawl still captured.
    pub fn coverage_fraction(&self) -> f64 {
        rate(self.pages_faulted, self.pages_baseline)
    }

    /// How far downtime moved the overall Table I malice rate.
    pub fn overall_bias(&self) -> f64 {
        self.overall_rate_faulted - self.overall_rate_baseline
    }
}

/// Runs the experiment: the same seeded study with an inert and with
/// `config.profile`'s crawl-fault schedule, compared per exchange.
///
/// # Panics
///
/// Panics if either study configuration fails validation, or if the
/// fault-free baseline loses slots (which would mean the inert path is
/// not inert).
pub fn run_crawl_loss_experiment(config: &CrawlLossConfig) -> CrawlLossReport {
    let base = |profile: CrawlFaultProfile| -> Study {
        let study_config = StudyConfig::builder()
            .seed(config.seed)
            .crawl_scale(config.crawl_scale)
            .domain_scale(config.domain_scale)
            .scan_workers(1)
            .crawl_fault_profile(profile)
            .build()
            .expect("valid crawl-loss study config");
        Study::run(&study_config)
    };
    let baseline = base(CrawlFaultProfile::none());
    let faulted = base(config.profile.clone());
    assert!(
        baseline.health.iter().all(|h| h.lost_steps == 0),
        "the inert baseline must not lose slots"
    );

    let t1_base = baseline.table1();
    let t1_faulted = faulted.table1();
    let mut rows = Vec::with_capacity(t1_base.rows.len());
    for (row_base, row_faulted) in t1_base.rows.iter().zip(&t1_faulted.rows) {
        assert_eq!(row_base.exchange, row_faulted.exchange, "Table I row order must match");
        let health = faulted
            .health
            .iter()
            .find(|h| h.exchange == row_base.exchange)
            .expect("health log per exchange");
        let profile =
            PROFILES.iter().find(|p| p.name == row_base.exchange).expect("known exchange");
        rows.push(ExchangeBiasRow {
            exchange: row_base.exchange.clone(),
            planned_steps: steps_for(profile.urls_crawled, config.crawl_scale),
            pages_baseline: row_base.crawled,
            pages_faulted: row_faulted.crawled,
            lost_steps: health.lost_steps,
            downtime_secs: health.downtime_secs,
            shutdown_at: health.shutdown_at,
            regular_baseline: row_base.regular,
            regular_faulted: row_faulted.regular,
            malicious_baseline: row_base.malicious,
            malicious_faulted: row_faulted.malicious,
        });
    }

    let sum = |f: fn(&ExchangeBiasRow) -> u64| rows.iter().map(f).sum::<u64>();
    CrawlLossReport {
        profile: config.profile.name.clone(),
        pages_baseline: sum(|r| r.pages_baseline),
        pages_faulted: sum(|r| r.pages_faulted),
        lost_steps: sum(|r| r.lost_steps),
        shutdowns: rows.iter().filter(|r| r.shutdown_at.is_some()).count() as u64,
        overall_rate_baseline: rate(sum(|r| r.malicious_baseline), sum(|r| r.regular_baseline)),
        overall_rate_faulted: rate(sum(|r| r.malicious_faulted), sum(|r| r.regular_faulted)),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_profile_biases_nothing() {
        let report = run_crawl_loss_experiment(&CrawlLossConfig {
            profile: CrawlFaultProfile::none(),
            ..CrawlLossConfig::default()
        });
        assert_eq!(report.pages_faulted, report.pages_baseline);
        assert_eq!(report.lost_steps, 0);
        assert_eq!(report.shutdowns, 0);
        assert_eq!(report.coverage_fraction(), 1.0);
        assert_eq!(report.overall_bias(), 0.0);
        for row in &report.rows {
            assert_eq!(row.pages_faulted, row.pages_baseline);
            assert_eq!(row.pages_baseline, row.planned_steps);
            assert_eq!(row.rate_bias(), 0.0, "{}", row.exchange);
        }
    }

    #[test]
    fn default_profile_shrinks_the_corpus() {
        let report = run_crawl_loss_experiment(&CrawlLossConfig::default());
        assert_eq!(report.profile, "default");
        assert_eq!(report.rows.len(), 9);
        assert!(report.lost_steps > 0, "outage windows must cost slots");
        assert!(report.pages_faulted < report.pages_baseline);
        let coverage = report.coverage_fraction();
        assert!(coverage > 0.0 && coverage < 1.0, "coverage {coverage}");
        for row in &report.rows {
            assert_eq!(
                row.pages_faulted + row.lost_steps,
                row.planned_steps,
                "{}: slots must balance",
                row.exchange
            );
        }
    }

    #[test]
    fn harsh_profile_loses_more_than_default() {
        let default = run_crawl_loss_experiment(&CrawlLossConfig::default());
        let harsh = run_crawl_loss_experiment(&CrawlLossConfig {
            profile: CrawlFaultProfile::harsh(),
            ..CrawlLossConfig::default()
        });
        assert!(
            harsh.lost_steps > default.lost_steps,
            "harsh {} vs default {}",
            harsh.lost_steps,
            default.lost_steps
        );
        assert!(harsh.coverage_fraction() < default.coverage_fraction());
    }

    #[test]
    fn experiment_is_deterministic() {
        let a = run_crawl_loss_experiment(&CrawlLossConfig::default());
        let b = run_crawl_loss_experiment(&CrawlLossConfig::default());
        assert_eq!(a, b);
    }
}
