//! Deterministic randomness helpers for the generators.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Creates a seeded RNG. All generation in the workspace flows from
/// explicit seeds so every experiment is exactly reproducible.
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Picks an index according to `weights` (need not be normalized).
///
/// # Panics
///
/// Panics if `weights` is empty or sums to zero.
pub fn pick_weighted(rng: &mut StdRng, weights: &[f64]) -> usize {
    assert!(!weights.is_empty(), "weights must be non-empty");
    pick_weighted_with_total(rng, weights, weights.iter().sum())
}

/// [`pick_weighted`] for callers that keep the weights' sequential sum
/// (`weights.iter().sum()`) beside them: the same draw and the same
/// pick, without summing again.
///
/// # Panics
///
/// Panics if `total` is not positive.
pub fn pick_weighted_with_total(rng: &mut StdRng, weights: &[f64], total: f64) -> usize {
    assert!(total > 0.0, "weights must sum to a positive value");
    weighted_index(weights, rng.gen_range(0.0..total))
}

/// The index a weighted pick lands on for the drawn `needle`: the walk
/// that subtracts each weight from the needle in turn until the needle
/// falls inside one (the last index when rounding carries it past the
/// end).
pub fn weighted_index(weights: &[f64], mut needle: f64) -> usize {
    for (i, w) in weights.iter().enumerate() {
        if needle < *w {
            return i;
        }
        needle -= w;
    }
    weights.len() - 1
}

/// Samples a heavy-tailed hit count in `[min, max]` using a bounded
/// Pareto-ish inverse-CDF. Shortened-URL hit counts in the paper span
/// 1.7k .. 4.45M, i.e. three orders of magnitude — a uniform draw in
/// log-space captures that spread.
pub fn heavy_tail(rng: &mut StdRng, min: u64, max: u64) -> u64 {
    assert!(min >= 1 && max > min, "need 1 <= min < max");
    let lo = (min as f64).ln();
    let hi = (max as f64).ln();
    let x = rng.gen_range(lo..hi);
    (x.exp() as u64).clamp(min, max)
}

/// Lower-case syllables used to mint plausible, clearly synthetic
/// domain names.
const SYLLABLES: [&str; 24] = [
    "zor", "mix", "tra", "vel", "net", "lux", "pix", "dro", "kal", "ben", "sto", "ria", "cli",
    "qua", "fen", "mar", "tek", "sol", "vix", "nom", "pra", "dul", "hit", "sur",
];

/// Generates a synthetic domain name (without TLD), 2–4 syllables.
pub fn domain_stem(rng: &mut StdRng) -> String {
    let n = rng.gen_range(2..=4);
    let mut s = String::new();
    for _ in 0..n {
        s.push_str(SYLLABLES[rng.gen_range(0..SYLLABLES.len())]);
    }
    s
}

/// Generates a short random path token (for shortener codes and page
/// paths).
pub fn path_token(rng: &mut StdRng, len: usize) -> String {
    const ALPHABET: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
    (0..len).map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())] as char).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_is_deterministic() {
        let a: Vec<u32> = {
            let mut r = seeded(7);
            (0..5).map(|_| r.gen()).collect()
        };
        let b: Vec<u32> = {
            let mut r = seeded(7);
            (0..5).map(|_| r.gen()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn weighted_pick_respects_zero_weights() {
        let mut rng = seeded(1);
        for _ in 0..100 {
            let i = pick_weighted(&mut rng, &[0.0, 1.0, 0.0]);
            assert_eq!(i, 1);
        }
    }

    #[test]
    fn weighted_pick_roughly_proportional() {
        let mut rng = seeded(2);
        let mut counts = [0usize; 2];
        for _ in 0..10_000 {
            counts[pick_weighted(&mut rng, &[3.0, 1.0])] += 1;
        }
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!((2.4..3.6).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn weighted_pick_empty_panics() {
        pick_weighted(&mut seeded(0), &[]);
    }

    #[test]
    fn heavy_tail_in_range_and_spread() {
        let mut rng = seeded(3);
        let samples: Vec<u64> = (0..500).map(|_| heavy_tail(&mut rng, 1_000, 5_000_000)).collect();
        assert!(samples.iter().all(|&s| (1_000..=5_000_000).contains(&s)));
        let below_100k = samples.iter().filter(|&&s| s < 100_000).count();
        let above_1m = samples.iter().filter(|&&s| s > 1_000_000).count();
        // Log-uniform: both tails must be populated.
        assert!(below_100k > 50, "low tail {below_100k}");
        assert!(above_1m > 20, "high tail {above_1m}");
    }

    #[test]
    fn domain_stems_are_dns_safe() {
        let mut rng = seeded(4);
        for _ in 0..100 {
            let d = domain_stem(&mut rng);
            assert!(!d.is_empty());
            assert!(d.chars().all(|c| c.is_ascii_lowercase()));
        }
    }

    #[test]
    fn path_tokens_have_requested_length() {
        let mut rng = seeded(5);
        assert_eq!(path_token(&mut rng, 6).len(), 6);
        assert_eq!(path_token(&mut rng, 0).len(), 0);
    }
}
