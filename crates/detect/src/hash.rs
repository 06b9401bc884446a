//! Stable hashing used for deterministic pseudo-random detection
//! decisions.
//!
//! Engine and tool models need per-sample randomness (does Bright Cloud
//! detect *this* URL?) that is stable across runs and independent of any
//! RNG state — otherwise re-scanning a URL would flip verdicts. The
//! implementation moved to [`slum_websim::hash`] so substrate-level
//! crates (exchange lifecycles) can share it without depending on the
//! detection stack; this module re-exports it for existing callers.

pub use slum_websim::hash::{
    chance, decimal_digits, fnv1a, fnv1a_extend, fnv1a_extend_decimal, fraction, hashed_fraction,
};
