//! Versioned, checksummed crawl checkpoints.
//!
//! A checkpoint file captures the complete mid-crawl state of a study —
//! every exchange's loop cursor (surf slot, virtual clock, raw RNG
//! state, CAPTCHA nonce, stats and health counters) plus the visits
//! logged so far — so an interrupted run can resume and produce output
//! **bit-identical** to an uninterrupted one.
//!
//! # File format
//!
//! ```text
//! SLUMCKPT 2\n          ← magic + format version
//! <crc32 decimal>\n     ← IEEE CRC-32 over everything below
//! <header json>\n       ← version, seed, scales, profile, round, body length
//! <body>                ← per exchange: "#cursor {json}", then one
//!                         {"seq":..,"at":..,"url":".."} line per visit
//! ```
//!
//! A checkpoint stores visits, not records: a page load is a pure
//! function of (web, time, URL, click mode), so a restore rebuilds
//! every record by replaying its visit's load on the rebuilt web
//! ([`slum_crawler::replay_restored_loads`]). Version 1 stored the full
//! records; this build rejects such files as
//! [`CheckpointError::VersionSkew`].
//!
//! The CRC covers the header line *and* the body, so flipping any
//! single byte past the CRC line is detected; corruption of the magic
//! or CRC lines themselves is caught structurally — a magic version
//! that disagrees with the header's is corruption, not skew. It is
//! computed eight
//! bytes at a time (slicing-by-8 tables built at compile time), which
//! gives the same value as the textbook bit-at-a-time loop. Files are
//! written atomically (temp file + rename) as `ckpt-NNNNNN.slumckpt`,
//! numbered by completed segment round.
//!
//! # Generations, quarantine and rollback
//!
//! [`CheckpointStore::save`] keeps the last
//! [`DEFAULT_KEEP_GENERATIONS`] generations (configurable via
//! [`CheckpointStore::with_keep_generations`]), pruning older files.
//! [`CheckpointStore::load_latest`] never gives up on the first corrupt
//! file: it walks the generation chain newest→oldest, moving every
//! file that fails structural/CRC validation into a `quarantine/`
//! subdirectory, and restores the newest *intact* generation — so a
//! torn write costs re-crawled rounds, never the study.
//! Only when every generation is corrupt does it return the typed
//! [`CheckpointError::Quarantined`]. A sound file of another format
//! version is not corrupt: the walk stops there with
//! [`CheckpointError::VersionSkew`] and leaves the file in place.
//!
//! # Storage-fault injection
//!
//! [`CheckpointStore::with_disk_faults`] arms a seeded
//! [`DiskFaultProfile`] that corrupts saves (torn/short writes,
//! bit-flips) or refuses them ([`CheckpointError::DiskFull`]) on a
//! deterministic schedule keyed by `(seed, round, quarantine epoch)` —
//! see [`crate::diskfault`]. The default profile is inert.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use slum_crawler::CrawlCheckpointState;

use crate::diskfault::{DiskFault, DiskFaultProfile};
use crate::study::StudyConfig;

/// Magic prefix of the first line; the format version follows it.
pub const MAGIC_PREFIX: &str = "SLUMCKPT ";

/// Current checkpoint format version.
pub const FORMAT_VERSION: u32 = 2;

/// File extension of checkpoint files.
pub const EXTENSION: &str = "slumckpt";

/// Checkpoint generations a store retains by default.
pub const DEFAULT_KEEP_GENERATIONS: usize = 4;

/// Name of the subdirectory corrupt checkpoints are moved into.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Slicing-by-8 lookup tables of the reflected IEEE polynomial
/// `0xEDB88320`, built at compile time. `CRC_TABLES[0]` is the classic
/// byte-at-a-time table; `CRC_TABLES[k][i]` is the CRC of byte `i`
/// followed by `k` zero bytes, so eight lookups advance the CRC over
/// eight bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// IEEE CRC-32 (the zlib/PNG polynomial) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_of(&[bytes])
}

/// IEEE CRC-32 of the concatenation of `parts`, computed without
/// concatenating them — a checkpoint's CRC covers its header line and
/// its multi-megabyte body, which are built separately.
fn crc32_of(parts: &[&[u8]]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    for part in parts {
        let mut chunks = part.chunks_exact(8);
        for c in &mut chunks {
            let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
        }
    }
    !crc
}

/// The checkpoint header: enough configuration echo to refuse resuming
/// under an incompatible study, plus the round number and body length.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointHeader {
    /// Format version (duplicates the magic line for self-description).
    pub version: u32,
    /// Master seed of the run that wrote the checkpoint.
    pub seed: u64,
    /// Crawl scale in parts-per-million.
    pub crawl_scale_ppm: u64,
    /// Domain scale in parts-per-million.
    pub domain_scale_ppm: u64,
    /// Name of the crawl-fault profile in force.
    pub crawl_fault_profile: String,
    /// Canonical name of the traffic substrate crawled. Defaults to
    /// `exchange` when absent so pre-substrate checkpoints stay
    /// readable.
    #[serde(default = "default_substrate_name")]
    pub substrate: String,
    /// Configured segment budget (0 when unbounded).
    pub checkpoint_every: u64,
    /// Completed segment rounds at the time of writing.
    pub round: u64,
    /// Byte length of the body (a cheap truncation tripwire on top of
    /// the CRC).
    pub body_len: u64,
}

/// Scale fraction → parts-per-million, matching the `config.*_ppm`
/// gauges.
pub fn scale_ppm(scale: f64) -> u64 {
    (scale * 1e6).round() as u64
}

fn default_substrate_name() -> String {
    crate::substrate::Substrate::Exchange.name().to_string()
}

/// Parses a header line. `substrate` defaults to `exchange` via
/// `#[serde(default = "default_substrate_name")]` on the field, so
/// checkpoints written before the substrate refactor (which carry no
/// such field) stay readable.
fn parse_header(header_line: &str) -> Result<CheckpointHeader, CheckpointError> {
    let malformed =
        |detail: String| CheckpointError::Malformed { line: 3, detail };
    let value: serde_json::Value =
        serde_json::from_str(header_line).map_err(|e| malformed(e.to_string()))?;
    <CheckpointHeader as serde::Deserialize>::from_content(&value)
        .map_err(|e| malformed(e.to_string()))
}

impl CheckpointHeader {
    /// A header for `config` (round and body length are filled in at
    /// save time).
    pub fn for_config(config: &StudyConfig) -> Self {
        CheckpointHeader {
            version: FORMAT_VERSION,
            seed: config.seed,
            crawl_scale_ppm: scale_ppm(config.crawl_scale),
            domain_scale_ppm: scale_ppm(config.domain_scale),
            crawl_fault_profile: config.crawl_fault_profile.name.clone(),
            substrate: config.substrate.name().to_string(),
            checkpoint_every: config.checkpoint_every.unwrap_or(0),
            round: 0,
            body_len: 0,
        }
    }

    /// Refuses to resume under a study configuration that would diverge
    /// from the run that wrote the checkpoint. `checkpoint_every` is
    /// deliberately *not* checked: segment boundaries never affect
    /// results, only file cadence.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::ConfigMismatch`] naming the first
    /// differing field.
    pub fn verify(&self, config: &StudyConfig) -> Result<(), CheckpointError> {
        let checks: [(&'static str, String, String); 5] = [
            ("seed", self.seed.to_string(), config.seed.to_string()),
            (
                "crawl_scale_ppm",
                self.crawl_scale_ppm.to_string(),
                scale_ppm(config.crawl_scale).to_string(),
            ),
            (
                "domain_scale_ppm",
                self.domain_scale_ppm.to_string(),
                scale_ppm(config.domain_scale).to_string(),
            ),
            (
                "crawl_fault_profile",
                self.crawl_fault_profile.clone(),
                config.crawl_fault_profile.name.clone(),
            ),
            ("substrate", self.substrate.clone(), config.substrate.name().to_string()),
        ];
        for (field, expected, found) in checks {
            if expected != found {
                return Err(CheckpointError::ConfigMismatch { field, expected, found });
            }
        }
        Ok(())
    }
}

/// Why a checkpoint could not be written or read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io {
        /// Path involved.
        path: String,
        /// OS error text.
        detail: String,
    },
    /// The file does not start with the checkpoint magic.
    BadMagic {
        /// What the first line actually held (truncated).
        found: String,
    },
    /// The file is a sound checkpoint — its CRC checks out and its
    /// header repeats the magic line's version — of an unsupported
    /// format version.
    VersionSkew {
        /// The version the file declares.
        found: u32,
    },
    /// The file ends before the format's mandatory structure does.
    Truncated {
        /// What was missing.
        detail: String,
    },
    /// The stored CRC does not match the payload.
    CrcMismatch {
        /// CRC the file declares.
        expected: u32,
        /// CRC of the payload as read.
        actual: u32,
    },
    /// The checkpoint was written by a run with different configuration.
    ConfigMismatch {
        /// Which configuration field differs.
        field: &'static str,
        /// The checkpoint's value.
        expected: String,
        /// The resuming study's value.
        found: String,
    },
    /// The payload passed the CRC but does not parse — header or body.
    Malformed {
        /// 1-based line number within the file.
        line: usize,
        /// What went wrong.
        detail: String,
    },
    /// `load_latest` found no checkpoint file in the directory.
    NoCheckpoint {
        /// The directory searched.
        dir: String,
    },
    /// The save was refused by the storage-fault injector: simulated
    /// `ENOSPC`, nothing was written. Callers on the crawl path swallow
    /// this (the next round's save retries); it is never a study
    /// failure.
    DiskFull {
        /// The path the save would have written.
        path: String,
    },
    /// Every generation in the directory failed validation; all were
    /// moved into the `quarantine/` subdirectory and nothing is left to
    /// restore from.
    Quarantined {
        /// The directory searched.
        dir: String,
        /// File names quarantined by this walk, newest first.
        quarantined: Vec<String>,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, detail } => write!(f, "checkpoint I/O on {path}: {detail}"),
            CheckpointError::BadMagic { found } => {
                write!(f, "not a checkpoint file (first line {found:?})")
            }
            CheckpointError::VersionSkew { found } => {
                write!(f, "checkpoint format version {found} (this build reads {FORMAT_VERSION})")
            }
            CheckpointError::Truncated { detail } => write!(f, "truncated checkpoint: {detail}"),
            CheckpointError::CrcMismatch { expected, actual } => {
                write!(f, "checkpoint CRC mismatch: stored {expected}, computed {actual}")
            }
            CheckpointError::ConfigMismatch { field, expected, found } => {
                write!(f, "checkpoint {field} is {expected} but the study has {found}")
            }
            CheckpointError::Malformed { line, detail } => {
                write!(f, "malformed checkpoint at line {line}: {detail}")
            }
            CheckpointError::NoCheckpoint { dir } => {
                write!(f, "no checkpoint found in {dir}")
            }
            CheckpointError::DiskFull { path } => {
                write!(f, "no space left on device (injected) writing {path}")
            }
            CheckpointError::Quarantined { dir, quarantined } => {
                write!(
                    f,
                    "every checkpoint generation in {dir} was corrupt; quarantined {}",
                    quarantined.join(", ")
                )
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

fn io_err(path: &Path, e: &std::io::Error) -> CheckpointError {
    CheckpointError::Io { path: path.display().to_string(), detail: e.to_string() }
}

/// Serializes a checkpoint to its full file content.
///
/// # Errors
///
/// Propagates body serialization failures as [`CheckpointError::Malformed`].
pub fn encode_checkpoint(
    header: &CheckpointHeader,
    state: &CrawlCheckpointState,
) -> Result<String, CheckpointError> {
    let malformed =
        |e: serde_json::Error| CheckpointError::Malformed { line: 0, detail: e.to_string() };
    let mut file = state.to_body().map_err(malformed)?;
    let mut header = header.clone();
    header.version = FORMAT_VERSION;
    header.round = state.round;
    header.body_len = file.len() as u64;
    let header_json = serde_json::to_string(&header).map_err(malformed)?;
    let crc = crc32_of(&[header_json.as_bytes(), b"\n", file.as_bytes()]);
    // The body is the file's tail: prepend the three header lines in
    // place instead of copying the body into a second buffer.
    file.insert_str(0, &format!("{MAGIC_PREFIX}{FORMAT_VERSION}\n{crc}\n{header_json}\n"));
    Ok(file)
}

/// Parses and validates full checkpoint file content.
///
/// # Errors
///
/// Every corruption mode maps to a typed [`CheckpointError`]; this
/// function never panics on arbitrary input. A file of another format
/// version is [`CheckpointError::VersionSkew`] only when it is sound
/// under its own version; otherwise it is corrupt like any other.
pub fn decode_checkpoint(
    raw: &str,
) -> Result<(CheckpointHeader, CrawlCheckpointState), CheckpointError> {
    let (magic_line, rest) = raw
        .split_once('\n')
        .ok_or_else(|| CheckpointError::Truncated { detail: "no magic line".to_string() })?;
    let version_text = magic_line.strip_prefix(MAGIC_PREFIX).ok_or_else(|| {
        CheckpointError::BadMagic { found: magic_line.chars().take(32).collect() }
    })?;
    let version: u32 = version_text.trim().parse().map_err(|_| CheckpointError::BadMagic {
        found: magic_line.chars().take(32).collect(),
    })?;
    let (crc_line, payload) = rest
        .split_once('\n')
        .ok_or_else(|| CheckpointError::Truncated { detail: "no CRC line".to_string() })?;
    let expected: u32 = crc_line.trim().parse().map_err(|_| CheckpointError::Malformed {
        line: 2,
        detail: format!("unparseable CRC {crc_line:?}"),
    })?;
    let actual = crc32(payload.as_bytes());
    if actual != expected {
        return Err(CheckpointError::CrcMismatch { expected, actual });
    }
    let (header_line, body) = payload
        .split_once('\n')
        .ok_or_else(|| CheckpointError::Truncated { detail: "no header line".to_string() })?;
    let header = parse_header(header_line)?;
    if header.version != version {
        // The CRC does not cover the magic line: a flipped version
        // digit shows up only as this disagreement.
        return Err(CheckpointError::Malformed {
            line: 1,
            detail: format!("magic version {version} but header version {}", header.version),
        });
    }
    if version != FORMAT_VERSION {
        return Err(CheckpointError::VersionSkew { found: version });
    }
    if body.len() as u64 != header.body_len {
        return Err(CheckpointError::Truncated {
            detail: format!("header declares {} body bytes, file holds {}", header.body_len, body.len()),
        });
    }
    let state = CrawlCheckpointState::from_body(header.round, body)
        .map_err(|(line, detail)| CheckpointError::Malformed { line: 3 + line, detail })?;
    Ok((header, state))
}

/// Per-store bookkeeping of the resilience machinery: save outcomes,
/// injected faults, quarantine and rollback events, pruned generations.
/// Counts cover this store instance's lifetime (one
/// [`CrawlSession`](crate::study::CrawlSession), from open to finish) —
/// except `quarantined`, which is seeded from the quarantine directory
/// at open and therefore cumulative across the directory's whole
/// history, matching [`CheckpointStore::epoch`].
#[derive(Debug, Default)]
pub struct CkptStats {
    /// Checkpoint files that landed on disk (including corrupted ones —
    /// a torn write still "succeeds" from the writer's view).
    pub saves: AtomicU64,
    /// Saves written torn (prefix only).
    pub torn_writes: AtomicU64,
    /// Saves written short (tail dropped).
    pub short_writes: AtomicU64,
    /// Saves with one byte flipped after the write.
    pub bit_flips: AtomicU64,
    /// Saves refused with simulated `ENOSPC`.
    pub disk_full: AtomicU64,
    /// Files ever moved into `quarantine/` (cumulative: seeded from
    /// the directory at open, bumped per quarantine by this store).
    pub quarantined: AtomicU64,
    /// `load_latest` walks that had to roll back past at least one
    /// corrupt generation.
    pub rollbacks: AtomicU64,
    /// Old generations pruned by the keep-K policy.
    pub pruned: AtomicU64,
}

impl CkptStats {
    fn bump(field: &AtomicU64) {
        field.fetch_add(1, Ordering::Relaxed);
    }

    /// Reads one counter.
    pub fn get(field: &AtomicU64) -> u64 {
        field.load(Ordering::Relaxed)
    }
}

/// A directory of numbered checkpoint files.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    disk_faults: DiskFaultProfile,
    seed: u64,
    keep_generations: usize,
    epoch: AtomicU64,
    stats: Arc<CkptStats>,
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory. The store
    /// starts with an inert fault profile and the default generation
    /// retention; see [`Self::with_disk_faults`] and
    /// [`Self::with_keep_generations`].
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, CheckpointError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err(&dir, &e))?;
        let names: Vec<String> = match fs::read_dir(dir.join(QUARANTINE_DIR)) {
            Ok(entries) => entries
                .filter_map(Result::ok)
                .filter_map(|e| e.file_name().to_str().map(str::to_string))
                .collect(),
            Err(_) => Vec::new(),
        };
        let epoch = names.len() as u64;
        let quarantined = names.iter().filter(|n| !n.ends_with(".marker")).count() as u64;
        let stats = CkptStats::default();
        stats.quarantined.store(quarantined, Ordering::Relaxed);
        Ok(CheckpointStore {
            dir,
            disk_faults: DiskFaultProfile::none(),
            seed: 0,
            keep_generations: DEFAULT_KEEP_GENERATIONS,
            epoch: AtomicU64::new(epoch),
            stats: Arc::new(stats),
        })
    }

    /// Arms the storage-fault injector: saves roll their fate on
    /// `profile` under `seed` (see [`crate::diskfault`]).
    pub fn with_disk_faults(mut self, profile: DiskFaultProfile, seed: u64) -> Self {
        self.disk_faults = profile;
        self.seed = seed;
        self
    }

    /// Sets how many checkpoint generations [`Self::save`] retains
    /// (0 = unlimited).
    pub fn with_keep_generations(mut self, keep: usize) -> Self {
        self.keep_generations = keep;
        self
    }

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The quarantine subdirectory (may not exist yet).
    pub fn quarantine_dir(&self) -> PathBuf {
        self.dir.join(QUARANTINE_DIR)
    }

    /// This store's resilience bookkeeping.
    pub fn stats(&self) -> &CkptStats {
        &self.stats
    }

    /// Cumulative storage-incident count of the directory: files ever
    /// moved into `quarantine/` plus injected-`ENOSPC` markers,
    /// including those left by previous store instances. Also the
    /// fault-schedule epoch: every incident re-rolls pending save
    /// fates so recovery cannot livelock on a repeating torn write or
    /// a sticky `ENOSPC`.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    fn file_name(round: u64) -> String {
        format!("ckpt-{round:06}.{EXTENSION}")
    }

    /// Atomically writes the checkpoint for `state` (numbered by its
    /// round), returning the file path, then prunes generations beyond
    /// the retention limit. An armed fault profile may corrupt the
    /// written bytes (torn/short/flip — still `Ok`: the writer cannot
    /// see it, exactly like real storage) or refuse the write.
    ///
    /// # Errors
    ///
    /// Propagates serialization and filesystem failures;
    /// [`CheckpointError::DiskFull`] when the injector refuses the
    /// write (no checkpoint lands on disk, only an epoch marker in
    /// `quarantine/` — callers may treat this as a skipped checkpoint
    /// and continue).
    pub fn save(
        &self,
        header: &CheckpointHeader,
        state: &CrawlCheckpointState,
    ) -> Result<PathBuf, CheckpointError> {
        let content = encode_checkpoint(header, state)?;
        let path = self.dir.join(Self::file_name(state.round));
        let epoch = self.epoch();
        let mut bytes = content.into_bytes();
        match self.disk_faults.fate(self.seed, state.round, epoch) {
            Some(DiskFault::Full) => {
                CkptStats::bump(&self.stats.disk_full);
                // Persist the epoch bump with a marker entry: the fate
                // is keyed on (seed, round, epoch), so without it a
                // caller that retries the same round every slice (one
                // round per scheduling slice) would roll `Full` forever
                // — a livelock the injector itself must not create.
                // Real ENOSPC clears nondeterministically; simulated
                // ENOSPC clears on the next epoch.
                let qdir = self.quarantine_dir();
                fs::create_dir_all(&qdir).map_err(|e| io_err(&qdir, &e))?;
                let marker =
                    qdir.join(format!("q{epoch:04}-enospc-{:06}.marker", state.round));
                fs::write(&marker, b"injected ENOSPC\n").map_err(|e| io_err(&marker, &e))?;
                self.epoch.fetch_add(1, Ordering::Relaxed);
                return Err(CheckpointError::DiskFull { path: path.display().to_string() });
            }
            Some(DiskFault::Torn) => {
                let cut = self.disk_faults.damage_position(self.seed, state.round, epoch, bytes.len());
                bytes.truncate(cut);
                CkptStats::bump(&self.stats.torn_writes);
            }
            Some(DiskFault::Short) => {
                let pos = self.disk_faults.damage_position(self.seed, state.round, epoch, bytes.len());
                let drop = (1 + pos % 64).min(bytes.len());
                bytes.truncate(bytes.len() - drop);
                CkptStats::bump(&self.stats.short_writes);
            }
            Some(DiskFault::BitFlip) => {
                let pos = self.disk_faults.damage_position(self.seed, state.round, epoch, bytes.len());
                if let Some(b) = bytes.get_mut(pos) {
                    *b ^= 0x01;
                }
                CkptStats::bump(&self.stats.bit_flips);
            }
            None => {}
        }
        let tmp = self.dir.join(format!(".{}.tmp", Self::file_name(state.round)));
        fs::write(&tmp, &bytes).map_err(|e| io_err(&tmp, &e))?;
        fs::rename(&tmp, &path).map_err(|e| io_err(&path, &e))?;
        CkptStats::bump(&self.stats.saves);
        self.prune()?;
        Ok(path)
    }

    /// Removes the oldest generations past the retention limit.
    fn prune(&self) -> Result<(), CheckpointError> {
        if self.keep_generations == 0 {
            return Ok(());
        }
        let files = self.list()?;
        if files.len() <= self.keep_generations {
            return Ok(());
        }
        for old in &files[..files.len() - self.keep_generations] {
            fs::remove_file(old).map_err(|e| io_err(old, &e))?;
            CkptStats::bump(&self.stats.pruned);
        }
        Ok(())
    }

    /// Loads and validates one checkpoint file.
    ///
    /// # Errors
    ///
    /// Propagates read failures and every [`decode_checkpoint`] error.
    pub fn load(path: &Path) -> Result<(CheckpointHeader, CrawlCheckpointState), CheckpointError> {
        let raw = fs::read_to_string(path).map_err(|e| io_err(path, &e))?;
        decode_checkpoint(&raw)
    }

    /// Checkpoint files present, sorted ascending by round. Quarantined
    /// files live in a subdirectory and are never listed.
    ///
    /// # Errors
    ///
    /// Propagates directory-read failures.
    pub fn list(&self) -> Result<Vec<PathBuf>, CheckpointError> {
        let mut files: Vec<PathBuf> = fs::read_dir(&self.dir)
            .map_err(|e| io_err(&self.dir, &e))?
            .filter_map(Result::ok)
            .map(|entry| entry.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("ckpt-") && n.ends_with(EXTENSION))
            })
            .collect();
        files.sort();
        Ok(files)
    }

    /// Moves a corrupt checkpoint into `quarantine/` and advances the
    /// fault-schedule epoch. The quarantined name is prefixed with the
    /// epoch so repeated quarantines of the same round never collide.
    fn quarantine(&self, path: &Path) -> Result<String, CheckpointError> {
        let qdir = self.quarantine_dir();
        fs::create_dir_all(&qdir).map_err(|e| io_err(&qdir, &e))?;
        let file = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("unnamed")
            .to_string();
        let qname = format!("q{:04}-{file}", self.epoch());
        fs::rename(path, qdir.join(&qname)).map_err(|e| io_err(path, &e))?;
        CkptStats::bump(&self.stats.quarantined);
        self.epoch.fetch_add(1, Ordering::Relaxed);
        Ok(file)
    }

    /// Restores the newest *intact* generation: walks the chain
    /// newest→oldest, quarantining every file that fails structural or
    /// CRC validation, and returns the first one that decodes.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::NoCheckpoint`] when the directory holds none;
    /// [`CheckpointError::Quarantined`] when every generation was
    /// corrupt (all moved to `quarantine/`);
    /// [`CheckpointError::VersionSkew`] when the walk reaches a sound
    /// file of another format version, which stays where it is (it is
    /// not corrupt, and quarantining it would silently restart the
    /// study); I/O failures propagate unchanged (a transient read error
    /// must not quarantine a possibly healthy file).
    pub fn load_latest(&self) -> Result<(CheckpointHeader, CrawlCheckpointState), CheckpointError> {
        let files = self.list()?;
        if files.is_empty() {
            return Err(CheckpointError::NoCheckpoint { dir: self.dir.display().to_string() });
        }
        let mut quarantined = Vec::new();
        for path in files.iter().rev() {
            match Self::load(path) {
                Ok(loaded) => {
                    if !quarantined.is_empty() {
                        CkptStats::bump(&self.stats.rollbacks);
                    }
                    return Ok(loaded);
                }
                Err(skew @ CheckpointError::VersionSkew { .. }) => return Err(skew),
                Err(CheckpointError::Io { .. }) => {
                    // fs::read_to_string also fails on non-UTF-8 bytes,
                    // which *is* corruption (the format is pure text) —
                    // but a vanished/unreadable file is not provably
                    // corrupt, so only quarantine when the bytes are
                    // actually present and wrong.
                    match fs::read(path) {
                        Ok(_) => quarantined.push(self.quarantine(path)?),
                        Err(e) => return Err(io_err(path, &e)),
                    }
                }
                Err(_) => quarantined.push(self.quarantine(path)?),
            }
        }
        Err(CheckpointError::Quarantined {
            dir: self.dir.display().to_string(),
            quarantined,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::substrate::{build_substrate, Substrate};
    use proptest::prelude::{
        prop_assert, prop_assert_eq, prop_oneof, proptest, Just, ProptestConfig,
    };
    use slum_crawler::{replay_restored_loads, CrawlFaultProfile, CrawlPlan};
    use slum_exchange::{build_exchange, params::profile, Exchange};
    use slum_websim::build::WebBuilder;
    use slum_websim::{SyntheticWeb, Url};

    /// The version-1 file the encoder wrote for the round-1 sample state
    /// before checkpoints held visits.
    const V1_FIXTURE: &str = include_str!("../tests/fixtures/checkpoint-v1.slumckpt");

    /// The sample crawl's world: one Otohits exchange on a seed-5 web.
    fn sample_world() -> (SyntheticWeb, Vec<Exchange>) {
        let mut b = WebBuilder::new(5);
        let x = build_exchange(&mut b, profile("Otohits").unwrap(), 0.05, 10_000);
        (b.finish(), vec![x])
    }

    /// The sample crawl's state after its first 7-slot round of 12.
    fn sample_state() -> CrawlCheckpointState {
        let (web, mut sources) = sample_world();
        CrawlPlan::new(5)
            .segment_budget(7)
            .stop_after_round(1)
            .run_segmented::<_, _, std::convert::Infallible>(
                &web,
                &mut sources,
                |_| 12,
                &mut |_, _| Ok(()),
            )
            .unwrap_or_else(|never| match never {})
            .state
    }

    /// A decoded sample state with its records rebuilt on a fresh
    /// sample web, as a restore does.
    fn rebuilt(decoded: &CrawlCheckpointState) -> CrawlCheckpointState {
        let (web, sources) = sample_world();
        replay_restored_loads(&web, &sources, decoded)
    }

    fn sample_header() -> CheckpointHeader {
        CheckpointHeader {
            version: FORMAT_VERSION,
            seed: 5,
            crawl_scale_ppm: 300,
            domain_scale_ppm: 30_000,
            crawl_fault_profile: "none".to_string(),
            substrate: "exchange".to_string(),
            checkpoint_every: 7,
            round: 0,
            body_len: 0,
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bitwise CRC-32 loop the lookup table replaced — the oracle.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn table_crc32_matches_the_bitwise_oracle_on_random_input() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x0c0f_fee5);
        for _ in 0..200 {
            let len = rng.gen_range(0..2048usize);
            let bytes: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            assert_eq!(crc32(&bytes), crc32_bitwise(&bytes), "len {len}");
            // Any split into parts gives the CRC of the whole.
            let cut = rng.gen_range(0..=len);
            let (head, tail) = bytes.split_at(cut);
            assert_eq!(crc32_of(&[head, b"", tail]), crc32_bitwise(&bytes), "cut {cut}/{len}");
        }
    }

    #[test]
    fn encoder_output_equals_the_concatenating_construction() {
        // The encoder before it learned to CRC the parts in place: three
        // buffers, one `format!` each. The bytes on disk must not change.
        fn concatenating(header: &CheckpointHeader, state: &CrawlCheckpointState) -> String {
            let body = state.to_body().unwrap();
            let mut header = header.clone();
            header.version = FORMAT_VERSION;
            header.round = state.round;
            header.body_len = body.len() as u64;
            let header_json = serde_json::to_string(&header).unwrap();
            let payload = format!("{header_json}\n{body}");
            let crc = crc32_bitwise(payload.as_bytes());
            format!("{MAGIC_PREFIX}{FORMAT_VERSION}\n{crc}\n{payload}")
        }
        for state in states(3) {
            let header = sample_header();
            assert_eq!(
                encode_checkpoint(&header, &state).unwrap(),
                concatenating(&header, &state),
                "round {}",
                state.round
            );
        }
    }

    #[test]
    fn encoder_output_is_pinned_to_recorded_bytes() {
        // Length and CRC-32 of each whole format-2 file: the bytes on
        // disk must not move. (Format 1 wrote 6,944 bytes for round 1,
        // kept as `V1_FIXTURE`.)
        let pinned: [(u64, usize, u32); 3] =
            [(1, 1104, 0x93d1_5969), (2, 1106, 0x55a2_9054), (3, 1106, 0x25b8_0666)];
        for (state, (round, len, crc)) in states(3).iter().zip(pinned) {
            assert_eq!(state.round, round);
            let raw = encode_checkpoint(&sample_header(), state).unwrap();
            assert_eq!((raw.len(), crc32_bitwise(raw.as_bytes())), (len, crc), "round {round}");
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let state = sample_state();
        let raw = encode_checkpoint(&sample_header(), &state).unwrap();
        assert!(raw.starts_with("SLUMCKPT 2\n"));
        let (header, back) = decode_checkpoint(&raw).unwrap();
        assert_eq!(header.round, 1);
        assert_eq!(header.seed, 5);
        assert_eq!(back.records_total(), state.records_total());
        // A decoded state holds visits: it re-encodes to the same file
        // before its records are rebuilt, and equals the crawled state
        // after.
        assert_eq!(encode_checkpoint(&sample_header(), &back).unwrap(), raw);
        assert_eq!(rebuilt(&back), state);
    }

    #[test]
    fn format_2_bodies_stay_under_200_bytes_per_visit() {
        // Record bodies took about 900 bytes each; a visit line is its
        // sequence number, virtual time and URL.
        let state = sample_state();
        let visits = state.records_total() as usize;
        assert!(visits > 0);
        let body = state.to_body().unwrap();
        assert!(body.len() < 200 * visits, "{} body bytes for {visits} visits", body.len());
    }

    #[test]
    fn save_and_load_latest_round_trips_on_disk() {
        let dir = std::env::temp_dir().join(format!("slumckpt-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).unwrap();
        let mut state = sample_state();
        let header = sample_header();
        store.save(&header, &state).unwrap();
        state.round = 2;
        let path2 = store.save(&header, &state).unwrap();
        assert!(path2.ends_with("ckpt-000002.slumckpt"));
        assert_eq!(store.list().unwrap().len(), 2);
        let (loaded_header, loaded) = store.load_latest().unwrap();
        assert_eq!(loaded_header.round, 2);
        assert_eq!(rebuilt(&loaded), state);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_dir_reports_no_checkpoint() {
        let dir = std::env::temp_dir().join(format!("slumckpt-empty-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).unwrap();
        assert!(matches!(store.load_latest(), Err(CheckpointError::NoCheckpoint { .. })));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A sound file of format `version`: the sample's header and body
    /// under that version, with its CRC recomputed.
    fn sound_file_of_version(version: u32) -> String {
        let mut header = sample_header();
        header.version = version;
        let body = sample_state().to_body().unwrap();
        header.round = 1;
        header.body_len = body.len() as u64;
        let payload = format!("{}\n{body}", serde_json::to_string(&header).unwrap());
        format!("{MAGIC_PREFIX}{version}\n{}\n{payload}", crc32(payload.as_bytes()))
    }

    #[test]
    fn bad_magic_and_version_skew_are_typed() {
        assert!(matches!(
            decode_checkpoint("WHATEVER\nrest\n"),
            Err(CheckpointError::BadMagic { .. })
        ));
        assert!(matches!(
            decode_checkpoint(&sound_file_of_version(9)),
            Err(CheckpointError::VersionSkew { found: 9 })
        ));
        assert!(decode_checkpoint(&sound_file_of_version(FORMAT_VERSION)).is_ok());
        // Another version is skew only in a sound file: a failing CRC or
        // a header that disagrees with the magic line is corruption.
        assert!(matches!(
            decode_checkpoint("SLUMCKPT 9\n0\nx\n"),
            Err(CheckpointError::CrcMismatch { .. })
        ));
        let disagreeing =
            sound_file_of_version(FORMAT_VERSION).replacen("SLUMCKPT 2", "SLUMCKPT 9", 1);
        assert!(matches!(
            decode_checkpoint(&disagreeing),
            Err(CheckpointError::Malformed { line: 1, .. })
        ));
        assert!(matches!(decode_checkpoint(""), Err(CheckpointError::Truncated { .. })));
    }

    #[test]
    fn version_1_file_is_skew_and_stays_in_place() {
        assert_eq!((V1_FIXTURE.len(), crc32(V1_FIXTURE.as_bytes())), (6944, 0xe053_7558));
        assert!(matches!(
            decode_checkpoint(V1_FIXTURE),
            Err(CheckpointError::VersionSkew { found: 1 })
        ));
        let dir = scratch("v1");
        let store = CheckpointStore::open(&dir).unwrap();
        let path = dir.join(CheckpointStore::file_name(1));
        fs::write(&path, V1_FIXTURE).unwrap();
        let err = store.load_latest().unwrap_err();
        assert_eq!(err, CheckpointError::VersionSkew { found: 1 });
        assert!(err.to_string().contains("format version 1"), "{err}");
        assert_eq!(fs::read_to_string(&path).unwrap(), V1_FIXTURE, "the file stays in place");
        assert!(!store.quarantine_dir().exists(), "nothing is quarantined");
        assert_eq!(CkptStats::get(&store.stats().quarantined), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_is_detected() {
        let raw = encode_checkpoint(&sample_header(), &sample_state()).unwrap();
        // Chop the tail: either the CRC or the body-length check trips.
        let cut = &raw[..raw.len() - 10];
        assert!(matches!(
            decode_checkpoint(cut),
            Err(CheckpointError::CrcMismatch { .. } | CheckpointError::Truncated { .. })
        ));
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let raw = encode_checkpoint(&sample_header(), &sample_state()).unwrap();
        let bytes = raw.as_bytes();
        // Exhaustive over a strided sample (every position for short
        // files would be slow in debug builds at full corpus size; this
        // state is small enough to do every byte).
        for i in 0..bytes.len() {
            let mut corrupt = bytes.to_vec();
            corrupt[i] ^= 0x01;
            let corrupt = String::from_utf8_lossy(&corrupt).into_owned();
            let decoded = decode_checkpoint(&corrupt);
            let flipped = bytes[i] as char;
            assert!(decoded.is_err(), "flip at byte {i} ({flipped:?}) must not validate");
            // Skew would leave the file unquarantined: a flipped version
            // digit must read as corruption.
            assert!(
                !matches!(decoded, Err(CheckpointError::VersionSkew { .. })),
                "flip at byte {i} ({flipped:?}) reads as version skew"
            );
        }
    }

    #[test]
    fn header_verify_flags_mismatches() {
        let config = StudyConfig::builder()
            .seed(5)
            .crawl_scale(0.0003)
            .domain_scale(0.03)
            .build()
            .unwrap();
        let header = sample_header();
        assert!(header.verify(&config).is_ok());
        let mut wrong_seed = header.clone();
        wrong_seed.seed = 6;
        assert!(matches!(
            wrong_seed.verify(&config),
            Err(CheckpointError::ConfigMismatch { field: "seed", .. })
        ));
        let mut wrong_profile = header.clone();
        wrong_profile.crawl_fault_profile = "harsh".to_string();
        let err = wrong_profile.verify(&config).unwrap_err();
        assert!(err.to_string().contains("crawl_fault_profile"), "{err}");
        let mut wrong_substrate = header;
        wrong_substrate.substrate = "torrent".to_string();
        assert!(matches!(
            wrong_substrate.verify(&config),
            Err(CheckpointError::ConfigMismatch { field: "substrate", .. })
        ));
    }

    /// States for rounds 1..=n (same cursors, bumped round numbers —
    /// enough to exercise the store's file machinery).
    fn states(n: u64) -> Vec<CrawlCheckpointState> {
        let base = sample_state();
        (1..=n)
            .map(|round| {
                let mut s = base.clone();
                s.round = round;
                s
            })
            .collect()
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("slumckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Flips one mid-file byte — enough to break the CRC.
    fn corrupt_file(path: &Path) {
        let mut bytes = fs::read(path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(path, bytes).unwrap();
    }

    #[test]
    fn generation_rollback_matrix_recovers_newest_intact() {
        // Corrupt each of the newest 3 generations in every combination
        // and pin exactly which generation load_latest restores, what
        // lands in quarantine and what the counters say.
        let header = sample_header();
        for mask in 0u64..8 {
            let corrupt: Vec<u64> =
                (1..=3).filter(|r| mask & (1 << (r - 1)) != 0).collect();
            let dir = scratch(&format!("matrix-{mask}"));
            let store = CheckpointStore::open(&dir).unwrap();
            for state in states(3) {
                store.save(&header, &state).unwrap();
            }
            for r in &corrupt {
                corrupt_file(&dir.join(CheckpointStore::file_name(*r)));
            }
            // load_latest walks newest→oldest: it quarantines exactly
            // the corrupt files *newer* than the newest intact one.
            let newest_intact = (1..=3).rev().find(|r| !corrupt.contains(r));
            let expect_quarantined = match newest_intact {
                Some(intact) => corrupt.iter().filter(|r| **r > intact).count() as u64,
                None => 3,
            };
            match store.load_latest() {
                Ok((h, state)) => {
                    let intact = newest_intact.expect("recovered despite all corrupt");
                    assert_eq!(h.round, intact, "mask {mask}: wrong generation restored");
                    assert_eq!(state.round, intact);
                    assert_eq!(
                        CkptStats::get(&store.stats().rollbacks),
                        u64::from(expect_quarantined > 0),
                        "mask {mask}: rollback count"
                    );
                }
                Err(CheckpointError::Quarantined { quarantined, .. }) => {
                    assert_eq!(newest_intact, None, "mask {mask}: spurious Quarantined");
                    assert_eq!(quarantined.len(), 3, "mask {mask}");
                }
                Err(e) => panic!("mask {mask}: unexpected error {e}"),
            }
            assert_eq!(
                CkptStats::get(&store.stats().quarantined),
                expect_quarantined,
                "mask {mask}: quarantine counter"
            );
            assert_eq!(store.epoch(), expect_quarantined, "mask {mask}: epoch");
            let in_quarantine = match fs::read_dir(store.quarantine_dir()) {
                Ok(entries) => entries.count() as u64,
                Err(_) => 0,
            };
            assert_eq!(in_quarantine, expect_quarantined, "mask {mask}: quarantine dir");
            // Surviving (non-quarantined) files are still listed.
            assert_eq!(
                store.list().unwrap().len() as u64,
                3 - expect_quarantined,
                "mask {mask}: remaining generations"
            );
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn save_prunes_to_the_retention_limit() {
        let dir = scratch("prune");
        let store = CheckpointStore::open(&dir).unwrap().with_keep_generations(4);
        let header = sample_header();
        for state in states(6) {
            store.save(&header, &state).unwrap();
        }
        let files = store.list().unwrap();
        assert_eq!(files.len(), 4, "keeps exactly K generations");
        assert!(files[0].ends_with("ckpt-000003.slumckpt"), "oldest kept is round 3");
        assert_eq!(CkptStats::get(&store.stats().pruned), 2);
        // Unlimited retention keeps everything.
        let dir2 = scratch("prune-unlimited");
        let store2 = CheckpointStore::open(&dir2).unwrap().with_keep_generations(0);
        for state in states(6) {
            store2.save(&header, &state).unwrap();
        }
        assert_eq!(store2.list().unwrap().len(), 6);
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&dir2).unwrap();
    }

    #[test]
    fn epoch_survives_reopen_and_rerolls_fates() {
        // A quarantine by one store instance must advance the fault
        // schedule seen by the next instance over the same directory —
        // that is what breaks the repeated-torn-write livelock.
        let dir = scratch("epoch");
        let header = sample_header();
        let store = CheckpointStore::open(&dir).unwrap();
        for state in states(2) {
            store.save(&header, &state).unwrap();
        }
        corrupt_file(&dir.join(CheckpointStore::file_name(2)));
        let (h, _) = store.load_latest().unwrap();
        assert_eq!(h.round, 1);
        assert_eq!(store.epoch(), 1);
        let reopened = CheckpointStore::open(&dir).unwrap();
        assert_eq!(reopened.epoch(), 1, "epoch rebuilt from the quarantine dir");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_faults_follow_the_seeded_schedule() {
        use crate::diskfault::{DiskFault, DiskFaultProfile};
        let profile = DiskFaultProfile::harsh();
        let seed = 2016u64;
        let header = sample_header();
        let dir = scratch("faults");
        let store = CheckpointStore::open(&dir)
            .unwrap()
            .with_disk_faults(profile.clone(), seed)
            .with_keep_generations(0);
        let mut landed = Vec::new();
        // Each injected ENOSPC persistently advances the epoch (that is
        // the anti-livelock mechanism), so the expected schedule walks
        // the same moving key.
        let mut epoch = 0u64;
        for state in states(300) {
            match store.save(&header, &state) {
                Ok(path) => landed.push((state.round, epoch, path)),
                Err(CheckpointError::DiskFull { .. }) => {
                    assert_eq!(
                        profile.fate(seed, state.round, epoch),
                        Some(DiskFault::Full),
                        "round {}: ENOSPC off schedule",
                        state.round
                    );
                    epoch += 1;
                    assert_eq!(store.epoch(), epoch, "ENOSPC must bump the epoch");
                }
                Err(e) => panic!("round {}: {e}", state.round),
            }
        }
        let s = store.stats();
        assert!(CkptStats::get(&s.torn_writes) > 0, "harsh must tear some writes");
        assert!(CkptStats::get(&s.short_writes) > 0);
        assert!(CkptStats::get(&s.bit_flips) > 0);
        assert!(CkptStats::get(&s.disk_full) > 0);
        // Every file the schedule says was damaged must fail to decode;
        // every clean one must load.
        for (round, epoch, path) in &landed {
            let loadable = CheckpointStore::load(path).is_ok();
            match profile.fate(seed, *round, *epoch) {
                None => assert!(loadable, "round {round}: clean save must load"),
                Some(DiskFault::Full) => unreachable!("ENOSPC never lands a file"),
                Some(_) => assert!(!loadable, "round {round}: damaged save must not load"),
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The fact format 2 rests on: every record a crawl logged equals
        /// the record its visit rebuilds on a freshly built web, as a
        /// restore does — on every substrate, with and without harsh
        /// crawl faults (lost slots advance `seq` without a visit), at a
        /// drawn cadence and kill round. Exchange seeds 24 and 29 surf
        /// through shorteners, whose loads mutate the web.
        #[test]
        fn visits_rebuild_the_crawled_records(
            seed in prop_oneof![Just(24u64), Just(29u64), 1u64..5000],
            every in 5u64..80,
            kill in 1u64..4,
        ) {
            for substrate in Substrate::ALL {
                for crawl_faults in [CrawlFaultProfile::none(), CrawlFaultProfile::harsh()] {
                    let config = StudyConfig::builder()
                        .seed(seed)
                        .crawl_scale(0.0003)
                        .domain_scale(0.03)
                        .substrate(substrate)
                        .crawl_fault_profile(crawl_faults)
                        .checkpoint_every(every)
                        .build()
                        .unwrap();
                    let label =
                        format!("{} seed {seed} every {every} kill {kill}", substrate.name());
                    let mut built = build_substrate(&config);
                    let steps = &built.steps;
                    let crawled = CrawlPlan::new(seed)
                        .fault_profile(config.crawl_fault_profile.clone())
                        .segment_budget(every)
                        .stop_after_round(kill)
                        .run_segmented::<_, _, std::convert::Infallible>(
                            &built.web,
                            &mut built.sources,
                            |x| steps[x.name()],
                            &mut |_, _| Ok(()),
                        )
                        .unwrap_or_else(|never| match never {})
                        .state;
                    prop_assert!(crawled.records_total() > 0, "{label}: nothing crawled");
                    for record in crawled.stores.iter().flat_map(|s| s.records()) {
                        let url = &record.url;
                        prop_assert_eq!(Url::parse(&url.to_string()).as_ref(), Ok(url));
                    }
                    let raw = encode_checkpoint(&CheckpointHeader::for_config(&config), &crawled)
                        .unwrap();
                    let (_, decoded) = decode_checkpoint(&raw).unwrap();
                    let fresh = build_substrate(&config);
                    let rebuilt = replay_restored_loads(&fresh.web, &fresh.sources, &decoded);
                    prop_assert!(rebuilt == crawled, "{label}: rebuilt records differ");
                }
            }
        }
    }

    #[test]
    fn pre_substrate_headers_default_to_exchange() {
        // A header JSON without the substrate field (written before the
        // substrate refactor) must still parse and verify as exchange.
        let json = r#"{"version":1,"seed":5,"crawl_scale_ppm":300,"domain_scale_ppm":30000,"crawl_fault_profile":"none","checkpoint_every":7,"round":0,"body_len":0}"#;
        let header = parse_header(json).unwrap();
        assert_eq!(header.substrate, "exchange");
        assert_eq!(header.seed, 5);
        assert_eq!(header.checkpoint_every, 7);
    }
}
