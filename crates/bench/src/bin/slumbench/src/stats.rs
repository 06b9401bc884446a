//! Order statistics for benchmark samples.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has [`TAIL_SAMPLES`] samples beyond it: a p99 read off fewer
//! than 1,000 samples is one or two outliers, not a percentile.

/// Samples a percentile needs beyond it before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// The highest tail percentile ever reported.
pub const MAX_TAIL_PERCENTILE: f64 = 99.0;

/// Median (mean of the middle two for an even count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (its default "exclusive" method)
/// computes them; `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let n = data.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut cuts = [0.0; 3];
    for (k, cut) in cuts.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *cut = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(cuts)
}

/// Interquartile range (`q3 - q1`); `None` below two values.
pub fn iqr(values: &[f64]) -> Option<f64> {
    quartiles(values).map(|[q1, _, q3]| q3 - q1)
}

/// Nearest-rank percentile `p` (0–100) of `values`, refused (`None`)
/// unless at least [`TAIL_SAMPLES`] samples lie beyond it — so a p99
/// needs 1,000 samples.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    let beyond = n as f64 * (1.0 - p / 100.0);
    if n == 0 || beyond + 1e-9 < TAIL_SAMPLES as f64 {
        return None;
    }
    let sorted = sorted(values);
    let rank = ((p / 100.0) * n as f64 - 1e-9).ceil().max(1.0) as usize;
    Some(sorted[rank.min(n) - 1])
}

/// The highest percentile, capped at [`MAX_TAIL_PERCENTILE`], that has
/// [`TAIL_SAMPLES`] samples beyond it, as `(percentile, value)`; `None`
/// when even the median lacks them.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 * TAIL_SAMPLES {
        return None;
    }
    let p = (100.0 * (1.0 - TAIL_SAMPLES as f64 / n as f64)).min(MAX_TAIL_PERCENTILE);
    percentile(values, p).map(|v| (p, v))
}

/// Arithmetic mean; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn p99_is_refused_below_a_thousand_samples() {
        let v: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        assert_eq!(percentile(&v, 50.0), Some(500.0));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p, value) = tail(&v).expect("100 samples support p90");
        assert!((p - 90.0).abs() < 1e-9);
        assert_eq!(value, 90.0);
        // 80 samples at 20/s over a 4 s step: the tail is p87.5.
        let v: Vec<f64> = (1..=80).map(f64::from).collect();
        let (p, value) = tail(&v).expect("80 samples support p87.5");
        assert!((p - 87.5).abs() < 1e-9);
        assert_eq!(value, 70.0);
        // Large samples are capped at p99.
        let v: Vec<f64> = (1..=5000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.0, 4950.0)));
        assert_eq!(tail(&[1.0; 19]), None);
    }
}
