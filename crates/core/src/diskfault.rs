//! Deterministic storage-fault injection for the checkpoint store.
//!
//! A [`DiskFaultProfile`] decides, per checkpoint save, whether the
//! write is corrupted — torn (only a prefix lands), short (the tail is
//! dropped), bit-flipped (one byte is damaged after the fact) — or
//! refused outright with a simulated `ENOSPC`. The schedule is a pure
//! function of `(profile, seed, round, epoch)` hashed through FNV-1a:
//! no RNG state is consumed, so threading a profile through a study
//! never perturbs the crawl or scan streams, and the same seed replays
//! the same faults in any process, thread count or slice interleaving.
//!
//! The `epoch` input is the store's cumulative quarantine count. Every
//! quarantined file advances it, so a save that was torn at round R is
//! re-rolled — not replayed — when recovery re-reaches R: a fault costs
//! re-crawled rounds, never a livelock of identical torn writes.
//!
//! Like the scan- and crawl-fault layers (PR 4/5), injection is
//! strictly opt-in: the [`DiskFaultProfile::none`] default is inert and
//! the artifact contract holds regardless — corrupted checkpoints are
//! detected at load, rolled back past, and the lost rounds re-crawled
//! deterministically, so final exports stay bit-identical to a
//! fault-free run.

use slum_detect::hash::fnv1a;

/// What the injector did to one checkpoint save.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFault {
    /// Only a keyed prefix of the file content was written.
    Torn,
    /// The last few bytes of the file content were dropped.
    Short,
    /// One byte of the written file was flipped.
    BitFlip,
    /// The write was refused: simulated `ENOSPC`, nothing touched disk.
    Full,
}

impl DiskFault {
    /// Stable lowercase name (metric suffixes, logs).
    pub fn name(self) -> &'static str {
        match self {
            DiskFault::Torn => "torn",
            DiskFault::Short => "short",
            DiskFault::BitFlip => "bitflip",
            DiskFault::Full => "full",
        }
    }
}

/// A named, seeded storage-fault profile for checkpoint writes.
///
/// Rates are per-mille of saves and mutually exclusive (one roll per
/// save picks at most one fault), so their sum must stay ≤ 1000.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiskFaultProfile {
    /// Profile name (echoed in reports; `none` is the inert default).
    pub name: String,
    /// Salt mixed into the fate hash, so the same study can be faulted
    /// independently per profile.
    pub seed_salt: u64,
    /// Per-mille of saves that land only a prefix of the file.
    pub torn_per_mille: u32,
    /// Per-mille of saves that drop the last few bytes.
    pub short_per_mille: u32,
    /// Per-mille of saves that flip one byte after the write.
    pub flip_per_mille: u32,
    /// Per-mille of saves refused with simulated `ENOSPC`.
    pub full_per_mille: u32,
}

impl Default for DiskFaultProfile {
    fn default() -> Self {
        DiskFaultProfile::none()
    }
}

impl DiskFaultProfile {
    /// The inert profile: every save lands intact. This is the
    /// [`Default`], so storage-fault injection is strictly opt-in.
    pub fn none() -> Self {
        DiskFaultProfile {
            name: "none".to_string(),
            seed_salt: 0,
            torn_per_mille: 0,
            short_per_mille: 0,
            flip_per_mille: 0,
            full_per_mille: 0,
        }
    }

    /// The moderate operational profile: occasional torn/short writes
    /// and `ENOSPC` refusals, the kind a long-lived measurement box on
    /// cheap disks actually sees.
    pub fn default_profile() -> Self {
        DiskFaultProfile {
            name: "default".to_string(),
            seed_salt: 0xd15c,
            torn_per_mille: 15,
            short_per_mille: 10,
            flip_per_mille: 10,
            full_per_mille: 20,
        }
    }

    /// The harsh profile: roughly a quarter of all saves are damaged or
    /// refused — for stress-testing rollback and re-crawl recovery.
    pub fn harsh() -> Self {
        DiskFaultProfile {
            name: "harsh".to_string(),
            seed_salt: 0x0d15_cbad,
            torn_per_mille: 60,
            short_per_mille: 40,
            flip_per_mille: 50,
            full_per_mille: 100,
        }
    }

    /// Parses a profile by CLI name (`none`/`off`, `default`, `harsh`).
    pub fn parse(name: &str) -> Option<DiskFaultProfile> {
        match name {
            "none" | "off" => Some(DiskFaultProfile::none()),
            "default" => Some(DiskFaultProfile::default_profile()),
            "harsh" => Some(DiskFaultProfile::harsh()),
            _ => None,
        }
    }

    /// Every named profile (for help text).
    pub const NAMES: [&'static str; 3] = ["none", "default", "harsh"];

    /// True when the profile can never inject a fault.
    pub fn is_inert(&self) -> bool {
        self.torn_per_mille == 0
            && self.short_per_mille == 0
            && self.flip_per_mille == 0
            && self.full_per_mille == 0
    }

    /// Validates the profile's parameters.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first invalid field:
    /// a per-mille rate above 1000, or rates that sum past 1000 (the
    /// fates are exclusive alternatives of one roll).
    pub fn validate(&self) -> Result<(), String> {
        for (field, rate) in [
            ("torn_per_mille", self.torn_per_mille),
            ("short_per_mille", self.short_per_mille),
            ("flip_per_mille", self.flip_per_mille),
            ("full_per_mille", self.full_per_mille),
        ] {
            if rate > 1000 {
                return Err(format!("{field} must be <= 1000, got {rate}"));
            }
        }
        let sum = self.torn_per_mille
            + self.short_per_mille
            + self.flip_per_mille
            + self.full_per_mille;
        if sum > 1000 {
            return Err(format!(
                "fault rates are exclusive per-mille shares and must sum to <= 1000, got {sum}"
            ));
        }
        Ok(())
    }

    /// The fate of the save at `round` under `seed`, given the store's
    /// current quarantine `epoch`. Pure and RNG-free: the same inputs
    /// always roll the same fate.
    pub fn fate(&self, seed: u64, round: u64, epoch: u64) -> Option<DiskFault> {
        if self.is_inert() {
            return None;
        }
        let roll = (self.fate_hash(seed, round, epoch, "fate") % 1000) as u32;
        let mut threshold = self.torn_per_mille;
        if roll < threshold {
            return Some(DiskFault::Torn);
        }
        threshold += self.short_per_mille;
        if roll < threshold {
            return Some(DiskFault::Short);
        }
        threshold += self.flip_per_mille;
        if roll < threshold {
            return Some(DiskFault::BitFlip);
        }
        threshold += self.full_per_mille;
        if roll < threshold {
            return Some(DiskFault::Full);
        }
        None
    }

    /// A keyed position for damage placement: where to cut a torn
    /// write, how many tail bytes a short write drops, which byte a
    /// flip hits. Derived from the same inputs as [`Self::fate`] under
    /// a different domain tag so fate and position are independent.
    pub fn damage_position(&self, seed: u64, round: u64, epoch: u64, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        (self.fate_hash(seed, round, epoch, "pos") % len as u64) as usize
    }

    fn fate_hash(&self, seed: u64, round: u64, epoch: u64, domain: &str) -> u64 {
        let key = format!(
            "diskfault&{domain}&salt={:x}&seed={seed}&round={round}&epoch={epoch}",
            self.seed_salt
        );
        fnv1a(key.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inert_and_never_faults() {
        let p = DiskFaultProfile::none();
        assert!(p.is_inert());
        assert!(p.validate().is_ok());
        for round in 0..500 {
            assert_eq!(p.fate(2016, round, 0), None);
        }
    }

    #[test]
    fn named_profiles_parse_and_validate() {
        for name in DiskFaultProfile::NAMES {
            let p = DiskFaultProfile::parse(name).expect("named profile");
            assert_eq!(p.name, name);
            assert!(p.validate().is_ok(), "{name} must validate");
        }
        assert_eq!(DiskFaultProfile::parse("off"), Some(DiskFaultProfile::none()));
        assert!(DiskFaultProfile::parse("catastrophic").is_none());
        assert!(!DiskFaultProfile::harsh().is_inert());
    }

    #[test]
    fn invalid_rates_are_rejected() {
        let mut p = DiskFaultProfile::harsh();
        p.torn_per_mille = 1001;
        assert!(p.validate().unwrap_err().contains("torn_per_mille"));
        let mut p = DiskFaultProfile::harsh();
        p.torn_per_mille = 400;
        p.short_per_mille = 400;
        p.flip_per_mille = 400;
        assert!(p.validate().unwrap_err().contains("sum"));
    }

    #[test]
    fn fate_is_deterministic_and_epoch_keyed() {
        let p = DiskFaultProfile::harsh();
        for round in 0..200 {
            assert_eq!(p.fate(7, round, 0), p.fate(7, round, 0));
        }
        // Advancing the epoch re-rolls fates: some round faulted at
        // epoch 0 must be clean at a later epoch (no livelock).
        let faulted: Vec<u64> =
            (0..200).filter(|r| p.fate(7, *r, 0).is_some()).collect();
        assert!(!faulted.is_empty(), "harsh must fault some of 200 rounds");
        assert!(
            faulted.iter().any(|r| (1..8).any(|e| p.fate(7, *r, e).is_none())),
            "every faulted round stayed faulted across 8 epochs"
        );
    }

    #[test]
    fn harsh_hits_every_fault_kind() {
        let p = DiskFaultProfile::harsh();
        let mut seen = std::collections::BTreeSet::new();
        for round in 0..2000 {
            if let Some(f) = p.fate(2016, round, 0) {
                seen.insert(f.name());
            }
        }
        assert_eq!(
            seen.into_iter().collect::<Vec<_>>(),
            vec!["bitflip", "full", "short", "torn"],
            "2000 rolls must exercise all four fault kinds"
        );
    }

    #[test]
    fn damage_position_is_in_bounds() {
        let p = DiskFaultProfile::harsh();
        for len in [1usize, 2, 63, 4096] {
            for round in 0..50 {
                assert!(p.damage_position(7, round, 0, len) < len);
            }
        }
        assert_eq!(p.damage_position(7, 0, 0, 0), 0);
    }
}
