//! The seeded chaos harness behind `tests/serve_chaos.rs` and
//! `repro chaos`: one storm throws daemon kills, checkpoint
//! corruption, injected storage faults and tenant panics at a
//! multi-tenant [`Service`], then lets the weather clear and drains
//! every tenant to completion.
//!
//! One xorshift RNG drives the whole schedule, so a failure reproduces
//! exactly from its [`StormConfig::chaos_seed`]. Forced events
//! guarantee each fault class fires at least once even on schedules
//! that would otherwise converge early. The harness *panics* when a
//! containment invariant breaks (an uncontained tenant panic, a tenant
//! that never drains, a corruption that was read instead of
//! quarantined) — a chaos run whose invariants fail must be loud, not
//! a `Result` a caller might shrug off.
//!
//! What the harness deliberately does **not** check is artifact
//! equality: it returns every survivor's export in
//! [`StormReport::exports`] and leaves the bit-identical-to-batch
//! comparison to its callers, who own the fault-free reference runs.

use std::path::{Path, PathBuf};

use malware_slums::checkpoint::CkptStats;
use malware_slums::study::StudyConfig;
use malware_slums::{CheckpointStore, DiskFaultProfile};

use crate::Service;

/// One storm's shape: how many tenants, how hard the weather, how many
/// actions before it clears.
#[derive(Debug, Clone)]
pub struct StormConfig {
    /// Seed of the xorshift RNG driving the whole action schedule.
    pub chaos_seed: u64,
    /// Fault actions thrown in the storm phase before the drain.
    pub actions: u32,
    /// Tenant count; tenant `t` is named `t{t}`.
    pub tenants: usize,
    /// Base study seed; tenant `t` runs a study seeded `study_seed + t`.
    pub study_seed: u64,
    /// Crawl scale of every tenant's study.
    pub crawl_scale: f64,
    /// Domain scale of every tenant's study.
    pub domain_scale: f64,
    /// Surf slots per checkpoint segment.
    pub checkpoint_every: u64,
    /// Storage-fault profile armed for the storm *and* the drain — the
    /// disks stay bad even after the scheduling chaos stops.
    pub disk_fault_profile: DiskFaultProfile,
}

impl Default for StormConfig {
    fn default() -> StormConfig {
        StormConfig {
            chaos_seed: 0xbad5_eed0,
            actions: 80,
            tenants: 3,
            study_seed: 2016,
            crawl_scale: 0.0002,
            domain_scale: 0.03,
            checkpoint_every: 7,
            disk_fault_profile: DiskFaultProfile::harsh(),
        }
    }
}

impl StormConfig {
    /// The study config tenant `t` submits — repeatedly, across kills
    /// and resubmissions, so it must be a pure function of the storm.
    pub fn study_config(&self, tenant: usize) -> StudyConfig {
        StudyConfig::builder()
            .seed(self.study_seed + tenant as u64)
            .crawl_scale(self.crawl_scale)
            .domain_scale(self.domain_scale)
            .checkpoint_every(self.checkpoint_every)
            .build()
            .expect("storm study config is valid")
    }

    /// The fault-free reference config for tenant `t`: same study, no
    /// checkpointing (batch `Study::run` shape).
    pub fn batch_config(&self, tenant: usize) -> StudyConfig {
        let mut config = self.study_config(tenant);
        config.checkpoint_every = None;
        config
    }
}

/// What one storm did, and what survived it.
#[derive(Debug, Clone)]
pub struct StormReport {
    /// Daemon kill/reopen cycles (service dropped mid-flight, reopened
    /// over the same root, every tenant resubmitted).
    pub kills: u32,
    /// Checkpoint files corrupted on disk mid-run.
    pub corruptions: u32,
    /// Tenant slices panicked under supervision (and were contained).
    pub panics: u32,
    /// Final `ckpt.quarantined` counter: corrupted generations that
    /// were detected and moved aside, never silently read.
    pub quarantined: u64,
    /// Final `ckpt.rollback` counter: loads that walked back past a
    /// bad generation to an older intact one.
    pub rollbacks: u64,
    /// Every tenant's final export JSON, in tenant order. Callers
    /// compare these against their own fault-free batch runs.
    pub exports: Vec<String>,
}

/// xorshift64 — the one RNG behind the whole storm.
struct Chaos(u64);

impl Chaos {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn open_service(root: &Path, config: &StormConfig) -> Service {
    Service::open(root)
        .expect("storm service root opens")
        .with_disk_fault_profile(config.disk_fault_profile.clone())
}

fn submit_all(service: &Service, config: &StormConfig) -> Vec<u64> {
    (0..config.tenants)
        .map(|t| {
            service
                .submit(&format!("t{t}"), config.study_config(t))
                .expect("storm submit")
        })
        .collect()
}

/// The newest surviving checkpoint file of a tenant's study dirs
/// (lexicographic max — generation file names are zero-padded rounds).
fn newest_ckpt(root: &Path, tenant: usize) -> Option<PathBuf> {
    let tenant_dir = root.join(format!("t{tenant}"));
    let mut candidates = Vec::new();
    for study_dir in std::fs::read_dir(tenant_dir).ok()? {
        let study_dir = study_dir.ok()?.path();
        if !study_dir.is_dir() {
            continue;
        }
        for entry in std::fs::read_dir(&study_dir).ok()? {
            let path = entry.ok()?.path();
            let Some(name) = path.file_name().map(|n| n.to_string_lossy().into_owned())
            else {
                continue;
            };
            if path.is_file() && name.starts_with("ckpt-") && name.ends_with(".slumckpt") {
                candidates.push(path);
            }
        }
    }
    candidates.sort();
    candidates.pop()
}

/// A study dir's cumulative `ckpt.quarantined`: the count a checkpoint
/// store seeds from the dir's `quarantine/` at open.
fn quarantined(dir: &Path) -> u64 {
    let store = CheckpointStore::open(dir).expect("study checkpoint dir opens");
    CkptStats::get(&store.stats().quarantined)
}

/// Flips a mid-file byte — breaks the checkpoint CRC whatever it hits.
fn corrupt(path: &Path) {
    let mut bytes = std::fs::read(path).expect("read checkpoint");
    assert!(!bytes.is_empty(), "checkpoint file must not be empty");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(path, bytes).expect("write corruption");
}

/// Runs one storm over `root` and returns what happened. The storm
/// phase throws [`StormConfig::actions`] seeded fault actions; the
/// drain phase then runs every tenant to completion (resubmitting
/// poisoned ones) with the disk-fault profile still armed.
///
/// # Panics
///
/// Panics when a containment invariant breaks: a tenant panic escapes
/// supervision, a tenant fails to drain after the storm, a fault class
/// never fires, or a corruption goes unquarantined. `root` is left in
/// place for post-mortems on panic; callers own its cleanup on
/// success.
pub fn run_storm(root: &Path, config: &StormConfig) -> StormReport {
    let mut service = open_service(root, config);
    let mut ids = submit_all(&service, config);
    let mut rng = Chaos(config.chaos_seed);
    let (mut kills, mut corruptions, mut panics) = (0u32, 0u32, 0u32);

    for iter in 1..=config.actions {
        // Forced events guarantee every fault class fires even when the
        // random schedule would converge without it.
        let action = if kills == 0 && iter >= config.actions / 8 {
            1
        } else if corruptions == 0 && iter >= config.actions / 4 {
            2
        } else if panics == 0 && iter >= (config.actions * 3) / 8 {
            3
        } else {
            match rng.pick(12) {
                0 => 1, // kill
                1 => 2, // corrupt
                2 => 3, // panic
                _ => 0, // advance
            }
        };
        match action {
            // Advance one random tenant one supervised slice.
            0 => {
                let t = rng.pick(config.tenants);
                service.advance(ids[t]).expect("advance");
            }
            // kill -9 the daemon: drop the service, reopen over the
            // same root, resubmit every tenant (same config → same
            // checkpoint dir → resume).
            1 => {
                drop(service);
                service = open_service(root, config);
                ids = submit_all(&service, config);
                kills += 1;
            }
            // Corrupt the newest checkpoint, then restart the service: a
            // live service never re-reads its tenants' checkpoints, so
            // only the next attach can meet the damage — and it must
            // quarantine it and roll back a generation, never read it.
            2 => {
                let t = rng.pick(config.tenants);
                if let Some(path) = newest_ckpt(root, t) {
                    let dir = path.parent().expect("a checkpoint sits in its study dir");
                    let before = quarantined(dir);
                    corrupt(&path);
                    corruptions += 1;
                    drop(service);
                    service = open_service(root, config);
                    ids = submit_all(&service, config);
                    service.advance(ids[t]).expect("advance over corruption");
                    assert!(
                        quarantined(dir) > before,
                        "t{t}: the attach must quarantine the corrupt generation"
                    );
                }
            }
            // Panic a tenant's next slice; supervision must contain it
            // to that job, and the resubmitted study resumes from the
            // intact checkpoints.
            3 => {
                let t = rng.pick(config.tenants);
                if service.status(ids[t]).expect("status").state == "running" {
                    service.chaos_panic_next_slice(ids[t]).expect("arm chaos hook");
                    let status = service.advance(ids[t]).expect("supervised advance");
                    assert_eq!(status.state, "poisoned", "panic must be contained");
                    panics += 1;
                    ids[t] = service
                        .submit(&format!("t{t}"), config.study_config(t))
                        .expect("resubmit");
                }
            }
            _ => unreachable!(),
        }
    }

    // The storm passes: drain every tenant to done. Poisoned/stalled
    // jobs are resubmitted (same config → same checkpoint dir → resume
    // from the newest intact generation).
    for (t, id) in ids.iter_mut().enumerate() {
        for drained in 1.. {
            assert!(drained < 500, "t{t} failed to drain after the storm");
            match service.status(*id).expect("status").state.as_str() {
                "done" => break,
                "running" => {
                    service.advance(*id).expect("advance");
                }
                _ => {
                    *id = service
                        .submit(&format!("t{t}"), config.study_config(t))
                        .expect("resubmit");
                }
            }
        }
    }

    assert!(
        kills >= 1 && corruptions >= 1 && panics >= 1,
        "every fault class must fire (kills {kills}, corruptions {corruptions}, \
         panics {panics})"
    );
    // The storm left scars where they belong: the quarantine counter
    // proves corruption was detected and contained, not silently read.
    let metrics = service.metrics();
    let quarantined = metrics.counter("ckpt.quarantined");
    assert!(quarantined >= 1, "corrupted checkpoints must be quarantined, not trusted");

    let exports = (0..config.tenants)
        .map(|t| {
            service
                .export(ids[t])
                .expect("known study")
                .expect("storm survivor has an export")
        })
        .collect();
    StormReport {
        kills,
        corruptions,
        panics,
        quarantined,
        rollbacks: metrics.counter("ckpt.rollback"),
        exports,
    }
}
