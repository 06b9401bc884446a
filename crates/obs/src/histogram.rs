//! Latency histograms with fixed log-scale buckets.
//!
//! Bucket boundaries are powers of two: bucket `i` counts samples whose
//! value `v` satisfies `2^i <= v < 2^(i+1)` (bucket 0 holds zeros and
//! ones). Fixed buckets make recording a branch-free atomic increment —
//! cheap enough for per-record latencies on the scan hot path — and
//! merging two histograms a plain element-wise sum.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

/// Number of log2 buckets. 2^63 nanoseconds is ~292 years, so 64
/// buckets cover any duration this workspace can observe.
const BUCKETS: usize = 64;

/// A concurrent histogram with fixed log2 buckets.
///
/// All methods take `&self`; recording is a relaxed atomic add on one
/// bucket plus the count/sum totals.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Index of the bucket that holds `value`.
    fn bucket_index(value: u64) -> usize {
        (64 - value.leading_zeros() as usize).saturating_sub(1).min(BUCKETS - 1)
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Adds every bucket of a snapshot into this histogram. Snapshot
    /// bounds map back to the exact bucket they came from (`bound + 1`
    /// is a power of two, and `u64::MAX` is the last bucket, so
    /// the private `Histogram::bucket_index` of a bound is the bucket it
    /// summarizes) — absorbing N snapshots then snapshotting equals the
    /// element-wise bucket sum.
    pub fn absorb(&self, snap: &HistogramSnapshot) {
        self.count.fetch_add(snap.count, Ordering::Relaxed);
        self.sum.fetch_add(snap.sum, Ordering::Relaxed);
        for &(bound, n) in &snap.buckets {
            self.buckets[Self::bucket_index(bound)].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// An immutable copy of the current state (non-empty buckets only).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then(|| (upper_bound(i), n))
            })
            .collect();
        HistogramSnapshot { count: self.count(), sum: self.sum(), buckets }
    }
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the last).
fn upper_bound(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        (2u64 << i) - 1
    }
}

/// Immutable histogram state: totals plus `(upper_bound, count)` pairs
/// for every non-empty bucket, in ascending bound order.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// `(inclusive upper bound, samples)` for non-empty buckets.
    pub buckets: Vec<(u64, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_log2() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(3), 1);
        assert_eq!(Histogram::bucket_index(4), 2);
        assert_eq!(Histogram::bucket_index(1024), 10);
        assert_eq!(Histogram::bucket_index(u64::MAX), 63);
    }

    #[test]
    fn records_accumulate_into_snapshot() {
        let h = Histogram::new();
        for v in [1, 2, 3, 1000, 1024] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 2030);
        assert_eq!(s.buckets, vec![(1, 1), (3, 2), (1023, 1), (2047, 1)]);
    }

    #[test]
    fn concurrent_records_are_lossless() {
        let h = std::sync::Arc::new(Histogram::new());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let h = std::sync::Arc::clone(&h);
                scope.spawn(move || {
                    for v in 0..1000u64 {
                        h.record(v);
                    }
                });
            }
        });
        assert_eq!(h.count(), 8000);
        assert_eq!(h.sum(), 8 * 499_500);
    }
}
