//! Stable hashing used for deterministic pseudo-random decisions.
//!
//! Several layers of the simulation need per-sample randomness that is
//! stable across runs and independent of any RNG state: does Bright
//! Cloud detect *this* URL, does *this* surf session drop, does an
//! exchange shut down mid-study. Drawing those from a seeded stream
//! would entangle unrelated subsystems (consuming one extra draw would
//! shift every later decision); FNV-1a over an explicit decision key
//! keeps each decision a pure function of its key.

/// FNV-1a 64-bit hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues the FNV-1a hash `h` of some prefix over `bytes`:
/// `fnv1a_extend(fnv1a(a), b) == fnv1a(a ++ b)`, so keys sharing a
/// prefix can hash it once.
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// The decimal digits of `n`, as `format!("{n}")` writes them, in
/// `buf`: a key with an integer field hashes (or compares) its digits
/// without formatting the key.
pub fn decimal_digits(n: u64, buf: &mut [u8; 20]) -> &[u8] {
    let mut start = buf.len();
    let mut rest = n;
    loop {
        start -= 1;
        buf[start] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            return &buf[start..];
        }
    }
}

/// [`fnv1a_extend`] over the decimal digits of `n`.
pub fn fnv1a_extend_decimal(h: u64, n: u64) -> u64 {
    fnv1a_extend(h, decimal_digits(n, &mut [0; 20]))
}

/// Maps a decision key to a uniform fraction in `[0, 1)`.
pub fn fraction(key: &str) -> f64 {
    hashed_fraction(fnv1a(key.as_bytes()))
}

/// [`fraction`] of a key whose FNV-1a hash is `h`.
pub fn hashed_fraction(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Deterministic Bernoulli draw: true with probability `p` for this key.
pub fn chance(key: &str, p: f64) -> bool {
    fraction(key) < p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_across_calls() {
        assert_eq!(fnv1a(b"abc"), fnv1a(b"abc"));
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
    }

    #[test]
    fn fraction_in_unit_interval() {
        for i in 0..1_000 {
            let f = fraction(&format!("key-{i}"));
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn chance_rate_roughly_matches_p() {
        let hits = (0..10_000).filter(|i| chance(&format!("sample-{i}"), 0.3)).count();
        let rate = hits as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn extending_a_prefix_hash_equals_hashing_the_whole_key() {
        for (prefix, rest) in [("", ""), ("", "abc"), ("7/vt/spike/", "X#12"), ("abc", "")] {
            let whole = format!("{prefix}{rest}");
            assert_eq!(
                fnv1a_extend(fnv1a(prefix.as_bytes()), rest.as_bytes()),
                fnv1a(whole.as_bytes())
            );
            assert_eq!(hashed_fraction(fnv1a(whole.as_bytes())), fraction(&whole));
        }
    }

    #[test]
    fn decimal_digits_are_the_formatted_integer() {
        for n in [0, 7, 9, 10, 99, 100, 12_345, u64::from(u32::MAX), u64::MAX - 1, u64::MAX] {
            let text = n.to_string();
            assert_eq!(decimal_digits(n, &mut [0; 20]), text.as_bytes());
            assert_eq!(fnv1a_extend_decimal(fnv1a(b"X#"), n), fnv1a(format!("X#{n}").as_bytes()));
        }
    }

    #[test]
    fn chance_extremes() {
        assert!(!chance("x", 0.0));
        assert!(chance("x", 1.0));
    }
}
