//! The in-process study service: job table, cooperative scheduler,
//! shared cross-tenant caches, tenant supervision and admission
//! control.
//!
//! # Supervision
//!
//! Every scheduling slice runs under `catch_unwind`: a panicking
//! tenant's study transitions to the `poisoned` state and the scheduler
//! skips it from then on — the panic never crosses a lock boundary, so
//! `status`/`metrics` keep answering for every other tenant. All
//! internal locks recover from poisoning
//! (`lock_recover`): even a panic at an unexpected point degrades one
//! job, not the service.
//!
//! # Admission control
//!
//! [`Service::handle`] enforces a per-tenant in-flight request cap
//! ([`MAX_INFLIGHT_PER_TENANT`]); requests over the cap get an explicit
//! `overloaded` response carrying [`RETRY_AFTER_MS`] instead of
//! queueing without bound. The TCP daemon
//! adds a connection cap on top (see `daemon.rs`). Shed work is counted
//! under `serve.shed.*` — always registered, so clean runs export
//! explicit zeros.

use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};

use malware_slums::export;
use malware_slums::{
    CheckpointError, CrawlSession, DiskFaultProfile, Restore, ScanCaches, Study, StudyConfig,
};
use slum_detect::hash::fnv1a;
use slum_detect::CacheStats;
use slum_obs::{MetricsSnapshot, Registry, TenantRegistries};

use crate::proto::{Request, Response};

/// Per-tenant cap on concurrently handled protocol requests.
pub const MAX_INFLIGHT_PER_TENANT: usize = 8;

/// The `retry_after_ms` hint sent with `overloaded` responses.
pub const RETRY_AFTER_MS: u64 = 25;

/// Locks a mutex, recovering from poisoning: a panic that died inside
/// the critical section (already contained by the slice supervisor)
/// must never wedge `status`/`metrics` for the surviving tenants. The
/// guarded data are simple state tables kept consistent by
/// single-field writes, so the recovered view is always usable.
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Renders a `catch_unwind` payload into the panic's message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Service-level failure.
#[derive(Debug)]
pub enum ServeError {
    /// Checkpoint scheduler failure while advancing a study.
    Checkpoint(CheckpointError),
    /// No study with the given id.
    UnknownStudy(u64),
    /// Invalid submit configuration.
    Config(String),
    /// Filesystem failure managing the study root.
    Io(std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            ServeError::UnknownStudy(id) => write!(f, "unknown study {id}"),
            ServeError::Config(msg) => write!(f, "config: {msg}"),
            ServeError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<CheckpointError> for ServeError {
    fn from(e: CheckpointError) -> Self {
        ServeError::Checkpoint(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// What a finished study leaves behind: the artifacts the protocol can
/// answer with, not the study itself (the web and corpus are dropped —
/// their distilled verdicts live on in the shared verdict index).
struct FinishedStudy {
    export: String,
    digest: String,
    records: u64,
    malicious_regular: u64,
    sample_url: Option<String>,
}

/// What one supervised slice left behind.
enum Slice {
    /// The crawl goes on; the session stays resident for the next
    /// slice.
    Crawling(Box<CrawlSession>),
    /// The study completed and was published.
    Done(FinishedStudy),
}

/// The per-study lifecycle. `Poisoned` is the supervision quarantine
/// state: the scheduler skips such jobs, their checkpoints stay on
/// disk, and resubmitting the same (tenant, config) resumes from where
/// the last intact checkpoint left off.
enum JobState {
    Running,
    Done(FinishedStudy),
    Failed(String),
    /// The study's slice panicked; the panic was contained here.
    Poisoned(String),
}

struct Job {
    id: u64,
    tenant: String,
    config: StudyConfig,
    dir: PathBuf,
    fingerprint: String,
    slices: u64,
    in_flight: bool,
    /// Chaos hook: the next claimed slice panics inside the supervised
    /// region (see [`Service::chaos_panic_next_slice`]).
    panic_next_slice: bool,
    state: JobState,
    /// The crawl kept resident between slices. `None` before the first
    /// slice (which attaches from the checkpoints on disk), while a
    /// slice runs, and once the job stops running — a panicked or
    /// failed slice drops its session.
    session: Option<CrawlSession>,
}

/// A study's externally visible status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StudyStatus {
    /// Study id.
    pub id: u64,
    /// Owning tenant.
    pub tenant: String,
    /// `running`, `done`, `failed` or `poisoned`.
    pub state: String,
    /// Scheduling slices executed so far.
    pub slices: u64,
    /// Export-JSON digest, once done.
    pub digest: Option<String>,
    /// Crawled records, once done.
    pub records: Option<u64>,
    /// Malicious regular records, once done.
    pub malicious_regular: Option<u64>,
    /// A canonical URL the study scanned (its first regular record) —
    /// a guaranteed-known probe for `query-verdict` clients.
    pub sample_url: Option<String>,
    /// Failure message, when failed.
    pub error: Option<String>,
}

/// The resident multi-tenant study service.
///
/// Studies are advanced cooperatively: each [`Service::advance`] call
/// runs one slice — one checkpoint round — of one study's resident
/// [`CrawlSession`], so many tenants' studies interleave on one thread
/// (or a few) without preemption. A study's checkpoints are written
/// every round but read only when it attaches: on its first slice after
/// a submit or resubmit. All studies with the
/// same web fingerprint scan through one shared [`ScanCaches`], and
/// every completed study publishes its per-URL verdicts into a shared
/// index — a URL scanned for one tenant answers instantly for another.
///
/// Determinism: artifacts of a service-run study are bit-identical to
/// the same config run through batch `repro`, no matter how its slices
/// interleave with other tenants' (see `tests/invariance.rs`).
pub struct Service {
    root: PathBuf,
    disk_fault_override: Option<DiskFaultProfile>,
    jobs: Mutex<Vec<Job>>,
    /// Notified under the `jobs` lock on every submit and by
    /// [`Service::wake_scheduler`]: a daemon's scheduler waits on it
    /// while no study runs.
    work: Condvar,
    inflight: Mutex<BTreeMap<String, usize>>,
    cache_groups: Mutex<BTreeMap<String, Arc<ScanCaches>>>,
    /// `fingerprint#canonical-url` → the first verdict published for it.
    verdicts: RwLock<HashMap<String, bool>>,
    tenants: TenantRegistries,
    obs: Registry,
}

/// RAII token for one admitted request; releases the tenant's in-flight
/// slot on drop.
pub struct InflightGuard<'s> {
    service: &'s Service,
    tenant: String,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        let mut inflight = lock_recover(&self.service.inflight);
        if let Some(n) = inflight.get_mut(&self.tenant) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                inflight.remove(&self.tenant);
            }
        }
    }
}

impl Service {
    /// Opens a service whose studies checkpoint under `root` (created
    /// if missing). A service re-opened over the same root resumes
    /// interrupted studies from their checkpoints on resubmission.
    ///
    /// # Errors
    ///
    /// Fails when the root cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> Result<Service, ServeError> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        let obs = Registry::new();
        // Always-registered zeros: clean runs export these explicitly
        // (CI asserts their presence) rather than as absent keys.
        for name in [
            "serve.shed.requests",
            "serve.shed.connections",
            "serve.tenants.poisoned",
            "ckpt.quarantined",
        ] {
            obs.counter(name).add(0);
        }
        Ok(Service {
            root,
            disk_fault_override: None,
            jobs: Mutex::new(Vec::new()),
            work: Condvar::new(),
            inflight: Mutex::new(BTreeMap::new()),
            cache_groups: Mutex::new(BTreeMap::new()),
            verdicts: RwLock::new(HashMap::new()),
            tenants: TenantRegistries::new(),
            obs,
        })
    }

    /// Forces every submitted study onto `profile` for checkpoint
    /// storage-fault injection — the operator chaos override behind
    /// `repro serve --disk-fault-profile`. Disk faults never change
    /// study artifacts, so tenants cannot observe the override in their
    /// results.
    pub fn with_disk_fault_profile(mut self, profile: DiskFaultProfile) -> Service {
        self.disk_fault_override = Some(profile);
        self
    }

    /// The service's own observability registry (shed/supervision
    /// counters) — the daemon records connection sheds here.
    pub(crate) fn obs(&self) -> &Registry {
        &self.obs
    }

    /// Admits one request for `tenant`, or `None` when the tenant is at
    /// its in-flight cap (the caller sheds with an `overloaded`
    /// response). The returned guard releases the slot on drop.
    pub fn admit(&self, tenant: &str) -> Option<InflightGuard<'_>> {
        let mut inflight = lock_recover(&self.inflight);
        let n = inflight.entry(tenant.to_string()).or_insert(0);
        if *n >= MAX_INFLIGHT_PER_TENANT {
            return None;
        }
        *n += 1;
        Some(InflightGuard { service: self, tenant: tenant.to_string() })
    }

    /// Arms the chaos hook on study `id`: its next claimed slice panics
    /// inside the supervised region. Drives the poisoned-tenant path in
    /// chaos tests without a genuinely buggy study.
    ///
    /// # Errors
    ///
    /// Unknown ids error.
    pub fn chaos_panic_next_slice(&self, id: u64) -> Result<(), ServeError> {
        let mut jobs = lock_recover(&self.jobs);
        job_mut(&mut jobs, id)?.panic_next_slice = true;
        Ok(())
    }

    /// Submits a study for `tenant`. The study's checkpoint directory
    /// is a pure function of (tenant, config), so resubmitting the same
    /// study after a daemon restart resumes from whatever checkpoints
    /// the previous incarnation left behind.
    ///
    /// # Errors
    ///
    /// Rejects configs without `checkpoint_every` (the scheduler's
    /// preemption grain) and propagates filesystem failures.
    pub fn submit(&self, tenant: &str, config: StudyConfig) -> Result<u64, ServeError> {
        let mut config = config;
        if config.checkpoint_every.is_none() {
            return Err(ServeError::Config(
                "daemon studies need checkpoint_every (the scheduling grain)".to_string(),
            ));
        }
        if let Some(profile) = &self.disk_fault_override {
            config.disk_fault_profile = profile.clone();
        }
        let fingerprint = config.cache_fingerprint();
        let dir_key = format!(
            "{fingerprint}&scan_fault={}&crawl_fault={}&disk_fault={}&every={}",
            config.fault_profile.name,
            config.crawl_fault_profile.name,
            config.disk_fault_profile.name,
            config.checkpoint_every.unwrap_or(0),
        );
        let dir = self
            .root
            .join(sanitize(tenant))
            .join(format!("{:016x}", fnv1a(dir_key.as_bytes())));
        std::fs::create_dir_all(&dir)?;
        let mut jobs = lock_recover(&self.jobs);
        let id = jobs.len() as u64 + 1;
        jobs.push(Job {
            id,
            tenant: tenant.to_string(),
            config,
            dir,
            fingerprint,
            slices: 0,
            in_flight: false,
            panic_next_slice: false,
            state: JobState::Running,
            session: None,
        });
        self.obs.counter("serve.studies.submitted").inc();
        self.obs.gauge("serve.studies.running").set(running_count(&jobs) as i64);
        self.work.notify_all();
        Ok(id)
    }

    /// Blocks the calling scheduler thread until a study is running or
    /// `stop` is raised.
    pub(crate) fn wait_for_work(&self, stop: &AtomicBool) {
        let mut jobs = lock_recover(&self.jobs);
        while running_count(&jobs) == 0 && !stop.load(Ordering::SeqCst) {
            jobs = self.work.wait(jobs).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Wakes a scheduler blocked in [`Service::wait_for_work`] to
    /// re-check its stop flag; raise the flag first. Taking the lock
    /// the waiter checks under means the wake cannot slip in between
    /// its check and its wait.
    pub(crate) fn wake_scheduler(&self) {
        let _jobs = lock_recover(&self.jobs);
        self.work.notify_all();
    }

    /// The shared cache set for a web fingerprint, created on first
    /// use. Studies with equal fingerprints get the same `Arc`.
    fn cache_group(&self, fingerprint: &str) -> Arc<ScanCaches> {
        let mut groups = lock_recover(&self.cache_groups);
        Arc::clone(
            groups.entry(fingerprint.to_string()).or_insert_with(|| Arc::new(ScanCaches::new())),
        )
    }

    /// Cumulative stats of the shared scan caches for `fingerprint`:
    /// lookups summed over every study scanned through them, entries the
    /// distinct keys they hold (`None` when no study with that
    /// fingerprint was submitted).
    pub fn cache_group_stats(
        &self,
        fingerprint: &str,
    ) -> Option<[(&'static str, CacheStats); 4]> {
        lock_recover(&self.cache_groups).get(fingerprint).map(|c| c.stats())
    }

    /// Advances study `id` by one scheduling slice, supervised: a
    /// panicking slice transitions the study to `poisoned` — the panic
    /// is contained to this job and the scheduler keeps serving every
    /// other tenant. Returns the status after the slice;
    /// completed, failed or quarantined studies return immediately
    /// without work.
    ///
    /// # Errors
    ///
    /// Unknown ids error; scheduler failures are recorded in the
    /// study's state (and reported there), not returned.
    pub fn advance(&self, id: u64) -> Result<StudyStatus, ServeError> {
        // Claim the slice and the job's resident session under the lock,
        // run it outside (a slice does real crawl/scan work — status
        // queries must not block on it).
        let (config, dir, fingerprint, tenant, session, panic_requested) = {
            let mut jobs = lock_recover(&self.jobs);
            let job = job_mut(&mut jobs, id)?;
            if !matches!(job.state, JobState::Running) || job.in_flight {
                return status_of(job);
            }
            job.in_flight = true;
            (
                job.config.clone(),
                job.dir.clone(),
                job.fingerprint.clone(),
                job.tenant.clone(),
                job.session.take(),
                std::mem::take(&mut job.panic_next_slice),
            )
        };

        let caches = self.cache_group(&fingerprint);
        // The supervised region: no service lock is held here, so a
        // panic can only lose this slice's work and the session it
        // owns — the next attach restores from disk — never wedge the
        // job table or the shared caches' cohabitants.
        let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<Slice, String> {
            if panic_requested {
                panic!("chaos: injected tenant panic");
            }
            let session = match session {
                Some(session) => session,
                None => CrawlSession::open(&config, &dir, Restore::IfPresent)
                    .map_err(|e| e.to_string())?,
            };
            let session = session.advance(1).map_err(|e| e.to_string())?;
            if !session.crawl_done() {
                return Ok(Slice::Crawling(Box::new(session)));
            }
            let study = session.finish(Some(caches));
            let finished = self.publish(&tenant, &fingerprint, &study);
            finished.map(Slice::Done).map_err(|e| e.to_string())
        }));
        self.obs.counter("serve.slices.total").inc();

        let mut jobs = lock_recover(&self.jobs);
        let job = job_mut(&mut jobs, id)?;
        job.in_flight = false;
        job.slices += 1;
        match outcome {
            Err(payload) => {
                job.state = JobState::Poisoned(panic_message(payload));
                self.obs.counter("serve.tenants.poisoned").inc();
            }
            // Crawl still in progress; the next slice continues it.
            Ok(Ok(Slice::Crawling(session))) => job.session = Some(*session),
            Ok(Ok(Slice::Done(finished))) => {
                job.state = JobState::Done(finished);
                self.obs.counter("serve.studies.completed").inc();
            }
            Ok(Err(e)) => job.state = JobState::Failed(e),
        }
        self.obs.gauge("serve.studies.running").set(running_count(&jobs) as i64);
        status_of(job_mut(&mut jobs, id)?)
    }

    /// Publishes a completed study: verdicts into the shared index,
    /// metrics into the tenant's registry, artifacts distilled for the
    /// protocol. Runs without the jobs lock, so status queries never
    /// wait on it.
    fn publish(
        &self,
        tenant: &str,
        fingerprint: &str,
        study: &Study,
    ) -> Result<FinishedStudy, serde_json::Error> {
        let mut malicious_regular = 0u64;
        let mut sample_url = None;
        let mut verdicts = self.verdicts.write().unwrap_or_else(PoisonError::into_inner);
        for (record, outcome) in study.regular_pairs() {
            malicious_regular += u64::from(outcome.malicious);
            let url = record.url.as_str();
            verdicts.entry(format!("{fingerprint}#{url}")).or_insert(outcome.malicious);
            sample_url.get_or_insert_with(|| url.to_owned());
        }
        drop(verdicts);
        self.tenants.absorb(tenant, &study.metrics());
        let export = export::to_json(study)?;
        let digest = format!("{:016x}", fnv1a(export.as_bytes()));
        Ok(FinishedStudy {
            export,
            digest,
            records: study.store.len() as u64,
            malicious_regular,
            sample_url,
        })
    }

    /// One round-robin pass: advances every running study one slice.
    /// Returns how many studies are still running afterwards.
    ///
    /// # Errors
    ///
    /// Propagates unknown-id errors (impossible from the internal id
    /// list — jobs are never removed).
    pub fn step(&self) -> Result<usize, ServeError> {
        let ids: Vec<u64> = {
            let jobs = lock_recover(&self.jobs);
            jobs.iter()
                .filter(|j| matches!(j.state, JobState::Running) && !j.in_flight)
                .map(|j| j.id)
                .collect()
        };
        for id in ids {
            self.advance(id)?;
        }
        let jobs = lock_recover(&self.jobs);
        Ok(running_count(&jobs))
    }

    /// Runs the scheduler until every submitted study completes.
    ///
    /// # Errors
    ///
    /// Propagates [`Service::step`] failures.
    pub fn run_to_completion(&self) -> Result<(), ServeError> {
        while self.step()? > 0 {}
        Ok(())
    }

    /// The status of study `id`.
    ///
    /// # Errors
    ///
    /// Unknown ids error.
    pub fn status(&self, id: u64) -> Result<StudyStatus, ServeError> {
        let mut jobs = lock_recover(&self.jobs);
        status_of(job_mut(&mut jobs, id)?)
    }

    /// The export JSON of a completed study.
    ///
    /// # Errors
    ///
    /// Unknown ids error; running or failed studies return `None`.
    pub fn export(&self, id: u64) -> Result<Option<String>, ServeError> {
        let jobs = lock_recover(&self.jobs);
        let job =
            jobs.iter().find(|j| j.id == id).ok_or(ServeError::UnknownStudy(id))?;
        Ok(match &job.state {
            JobState::Done(f) => Some(f.export.clone()),
            _ => None,
        })
    }

    /// Looks up a URL's verdict in the shared index through study
    /// `id`'s web fingerprint. `Some(malicious)` when any completed
    /// study of the same web scanned the URL — including another
    /// tenant's — `None` otherwise.
    ///
    /// # Errors
    ///
    /// Unknown ids error.
    pub fn query_verdict(&self, id: u64, url: &str) -> Result<Option<bool>, ServeError> {
        let fingerprint = {
            let jobs = lock_recover(&self.jobs);
            jobs.iter()
                .find(|j| j.id == id)
                .ok_or(ServeError::UnknownStudy(id))?
                .fingerprint
                .clone()
        };
        self.obs.counter("serve.verdict.queries").inc();
        let verdict = self
            .verdicts
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&format!("{fingerprint}#{url}"))
            .copied();
        match verdict {
            Some(_) => self.obs.counter("serve.verdict.hits").inc(),
            None => self.obs.counter("serve.verdict.misses").inc(),
        }
        Ok(verdict)
    }

    /// The service-wide metrics snapshot: every tenant's study metrics
    /// namespaced `tenant.<name>.*` plus the bare cross-tenant rollup
    /// (see [`TenantRegistries::global_snapshot`]), merged with the
    /// service's own `serve.*` counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        let merged = Registry::new();
        merged.absorb(&self.tenants.global_snapshot());
        merged.absorb(&self.obs.snapshot());
        merged.snapshot()
    }

    /// Dispatches one protocol request (the shared front end behind the
    /// TCP daemon and any in-process embedding). Requests over the
    /// tenant's in-flight cap ([`MAX_INFLIGHT_PER_TENANT`]) are shed
    /// with an `overloaded` response carrying [`RETRY_AFTER_MS`].
    pub fn handle(&self, req: &Request) -> Response {
        let Some(_guard) = self.admit(&req.tenant) else {
            self.obs.counter("serve.shed.requests").inc();
            return Response::overloaded(&req.op, RETRY_AFTER_MS);
        };
        match req.op.as_str() {
            "submit-study" => {
                let config = match req.study_config() {
                    Ok(c) => c,
                    Err(e) => return Response::failure(&req.op, e),
                };
                match self.submit(&req.tenant, config) {
                    Ok(id) => {
                        let mut r = Response::success(&req.op);
                        r.study = Some(id);
                        r.tenant = Some(req.tenant.clone());
                        r
                    }
                    Err(e) => Response::failure(&req.op, e),
                }
            }
            "study-status" => {
                let Some(id) = req.study else {
                    return Response::failure(&req.op, "study-status needs `study`");
                };
                match self.status(id) {
                    Ok(status) => {
                        let mut r = Response::success(&req.op);
                        r.study = Some(status.id);
                        r.tenant = Some(status.tenant);
                        r.state = Some(status.state.clone());
                        r.slices = Some(status.slices);
                        r.digest = status.digest;
                        r.records = status.records;
                        r.malicious_regular = status.malicious_regular;
                        r.sample_url = status.sample_url;
                        r.error = status.error;
                        if req.include_export {
                            r.export = self.export(id).ok().flatten();
                        }
                        r
                    }
                    Err(e) => Response::failure(&req.op, e),
                }
            }
            "query-verdict" => {
                let (Some(id), Some(url)) = (req.study, req.url.as_deref()) else {
                    return Response::failure(&req.op, "query-verdict needs `study` and `url`");
                };
                match self.query_verdict(id, url) {
                    Ok(verdict) => {
                        let mut r = Response::success(&req.op);
                        r.study = Some(id);
                        r.known = Some(verdict.is_some());
                        r.malicious = verdict;
                        r
                    }
                    Err(e) => Response::failure(&req.op, e),
                }
            }
            "stream-metrics" => {
                let mut r = Response::success(&req.op);
                r.metrics = Some(self.metrics().to_json());
                r
            }
            "shutdown" => Response::success(&req.op),
            other => Response::failure(other, format!("unknown op `{other}`")),
        }
    }
}

fn running_count(jobs: &[Job]) -> usize {
    jobs.iter().filter(|j| matches!(j.state, JobState::Running)).count()
}

fn job_mut(jobs: &mut [Job], id: u64) -> Result<&mut Job, ServeError> {
    jobs.iter_mut().find(|j| j.id == id).ok_or(ServeError::UnknownStudy(id))
}

fn status_of(job: &mut Job) -> Result<StudyStatus, ServeError> {
    let (state, digest, records, malicious_regular, sample_url, error) = match &job.state {
        JobState::Running => ("running", None, None, None, None, None),
        JobState::Done(f) => (
            "done",
            Some(f.digest.clone()),
            Some(f.records),
            Some(f.malicious_regular),
            f.sample_url.clone(),
            None,
        ),
        JobState::Failed(e) => ("failed", None, None, None, None, Some(e.clone())),
        JobState::Poisoned(e) => ("poisoned", None, None, None, None, Some(e.clone())),
    };
    Ok(StudyStatus {
        id: job.id,
        tenant: job.tenant.clone(),
        state: state.to_string(),
        slices: job.slices,
        digest,
        records,
        malicious_regular,
        sample_url,
        error,
    })
}

/// Tenant names become path components; keep them boring.
fn sanitize(tenant: &str) -> String {
    let cleaned: String = tenant
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
        .collect();
    if cleaned.is_empty() {
        "default".to_string()
    } else {
        cleaned
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_service(tag: &str) -> (Service, PathBuf) {
        let root = std::env::temp_dir()
            .join(format!("slum-service-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let service = Service::open(&root).expect("service root");
        (service, root)
    }

    fn tiny_config() -> StudyConfig {
        StudyConfig::builder()
            .seed(2016)
            .crawl_scale(0.0002)
            .domain_scale(0.03)
            .scan_workers(1)
            .checkpoint_every(7)
            .build()
            .expect("valid config")
    }

    #[test]
    fn admission_caps_inflight_per_tenant_and_sheds_requests() {
        let (service, root) = scratch_service("admit");

        let mut guards: Vec<_> = (0..MAX_INFLIGHT_PER_TENANT)
            .map(|_| service.admit("alpha").expect("slots under the cap admit"))
            .collect();
        assert!(service.admit("alpha").is_none(), "a full tenant must shed the next");
        assert!(service.admit("beta").is_some(), "caps are per-tenant");

        // handle() sheds through the same gate, with the typed
        // overloaded response and the shed counter.
        let mut req = Request::new("stream-metrics");
        req.tenant = "alpha".to_string();
        let shed = service.handle(&req);
        assert!(!shed.ok);
        assert_eq!(shed.error.as_deref(), Some("overloaded"));
        assert_eq!(shed.retry_after_ms, Some(RETRY_AFTER_MS));
        assert!(service.metrics().counter("serve.shed.requests") >= 1);

        // Dropping a guard frees its slot.
        guards.pop();
        let served = service.handle(&req);
        assert!(served.ok, "slot must free on guard drop: {:?}", served.error);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn clean_service_exports_zeroed_resilience_counters() {
        let (service, root) = scratch_service("zeros");
        let m = service.metrics();
        for name in [
            "serve.shed.requests",
            "serve.shed.connections",
            "serve.tenants.poisoned",
            "ckpt.quarantined",
        ] {
            assert_eq!(m.counter(name), 0, "{name} must be present and zero");
            assert!(
                m.to_json().contains(name),
                "{name} must be exported explicitly on clean runs"
            );
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn service_survives_a_poisoned_job_table_lock() {
        let (service, root) = scratch_service("poisonlock");
        let id = service.submit("alpha", tiny_config()).expect("submit");

        // Poison the jobs mutex the way a panicking thread would: grab
        // it, panic, unwind. Before lock_recover, every later call
        // died on `.lock().expect(...)`.
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _guard = service.jobs.lock().unwrap();
            panic!("poison the lock");
        }));
        assert!(service.jobs.is_poisoned(), "test precondition: lock is poisoned");

        let status = service.status(id).expect("status still answers");
        assert_eq!(status.state, "running");
        let second = service.submit("alpha", tiny_config()).expect("submit still works");
        assert_eq!(second, id + 1);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn panicking_slice_poisons_only_its_own_study() {
        let (service, root) = scratch_service("panic");
        let victim = service.submit("victim", tiny_config()).expect("submit");
        let mut other_config = tiny_config();
        other_config.seed = 2017;
        let other = service.submit("bystander", other_config).expect("submit");

        service.chaos_panic_next_slice(victim).expect("arm chaos hook");
        let status = service.advance(victim).expect("supervised advance");
        assert_eq!(status.state, "poisoned");
        assert!(
            status.error.as_deref().unwrap_or("").contains("chaos"),
            "panic message must surface: {:?}",
            status.error
        );
        assert_eq!(service.metrics().counter("serve.tenants.poisoned"), 1);

        // The scheduler skips the poisoned job and completes everyone
        // else.
        service.run_to_completion().expect("scheduler");
        assert_eq!(service.status(other).expect("status").state, "done");
        assert_eq!(service.status(victim).expect("status").state, "poisoned");

        // Resubmitting the same (tenant, config) maps to the same
        // checkpoint dir and picks up where the intact checkpoints
        // left off.
        let retry = service.submit("victim", tiny_config()).expect("resubmit");
        service.run_to_completion().expect("scheduler");
        assert_eq!(service.status(retry).expect("status").state, "done");
        std::fs::remove_dir_all(&root).ok();
    }

    /// The export a batch run of `config` produces — what every service
    /// run of it must reproduce byte for byte.
    fn batch_export(config: &StudyConfig) -> String {
        let mut config = config.clone();
        config.checkpoint_every = None;
        export::to_json(&Study::run(&config)).expect("batch export")
    }

    fn session_resident(service: &Service, id: u64) -> bool {
        lock_recover(&service.jobs).iter().any(|j| j.id == id && j.session.is_some())
    }

    #[test]
    fn resident_study_reads_no_checkpoint_and_saves_every_round() {
        let (service, root) = scratch_service("resident");
        let id = service.submit("solo", tiny_config()).expect("submit");
        service.run_to_completion().expect("scheduler");
        let status = service.status(id).expect("status");
        assert_eq!(status.state, "done");
        assert!(status.slices > 1, "the study must span several slices");
        let m = service.metrics();
        assert_eq!(m.counter("tenant.solo.crawl.resume.segments_restored"), 0);
        assert_eq!(m.counter("tenant.solo.crawl.resume.replayed_loads"), 0);
        // One slice is one checkpoint round, and every round saves.
        assert_eq!(m.counter("tenant.solo.ckpt.saves"), status.slices);
        // Every save attempt is timed.
        assert_eq!(
            m.histograms["tenant.solo.ckpt.save_nanos"].count,
            m.counter("tenant.solo.ckpt.saves")
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn reattached_study_restores_and_replays_from_disk() {
        let (service, root) = scratch_service("reattach");
        let id = service.submit("phoenix", tiny_config()).expect("submit");
        for _ in 0..2 {
            assert_eq!(service.advance(id).expect("advance").state, "running");
        }
        drop(service);

        let service = Service::open(&root).expect("service root");
        let id = service.submit("phoenix", tiny_config()).expect("resubmit");
        service.run_to_completion().expect("scheduler");
        let m = service.metrics();
        assert_eq!(m.counter("tenant.phoenix.crawl.resume.segments_restored"), 2);
        assert!(m.counter("tenant.phoenix.crawl.resume.replayed_loads") > 0);
        assert_eq!(service.export(id).expect("known study"), Some(batch_export(&tiny_config())));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn panicked_slice_drops_its_session_and_the_retry_restores_from_disk() {
        let (service, root) = scratch_service("panic-resident");
        let id = service.submit("victim", tiny_config()).expect("submit");
        assert_eq!(service.advance(id).expect("first slice").state, "running");
        assert!(session_resident(&service, id), "a running study keeps its session");

        service.chaos_panic_next_slice(id).expect("arm chaos hook");
        assert_eq!(service.advance(id).expect("supervised advance").state, "poisoned");
        assert!(!session_resident(&service, id), "a panicked slice must drop its session");

        let retry = service.submit("victim", tiny_config()).expect("resubmit");
        service.run_to_completion().expect("scheduler");
        let m = service.metrics();
        assert_eq!(m.counter("tenant.victim.crawl.resume.segments_restored"), 1);
        assert_eq!(
            service.export(retry).expect("known study"),
            Some(batch_export(&tiny_config()))
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_version_1_checkpoint_fails_the_study_and_stays_on_disk() {
        let v1 = std::fs::read(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../core/tests/fixtures/checkpoint-v1.slumckpt"
        ))
        .expect("version-1 fixture");
        let (service, root) = scratch_service("v1");
        let id = service.submit("legacy", tiny_config()).expect("submit");
        let dir = lock_recover(&service.jobs)[0].dir.clone();
        let file = dir.join("ckpt-000001.slumckpt");
        std::fs::write(&file, &v1).expect("place the version-1 file");
        // The study's first slice attaches and fails on the version-1
        // file; a resubmission attaches again and fails the same way.
        service.run_to_completion().expect("scheduler");
        let resubmitted = service.submit("legacy", tiny_config()).expect("resubmit");
        service.run_to_completion().expect("scheduler");
        for id in [id, resubmitted] {
            let status = service.status(id).expect("status");
            assert_eq!(status.state, "failed");
            let error = status.error.unwrap_or_default();
            assert!(error.contains("format version 1"), "{error}");
        }
        assert_eq!(std::fs::read(&file).expect("still in place"), v1);
        assert!(!dir.join("quarantine").exists(), "nothing is quarantined");
        std::fs::remove_dir_all(&root).ok();
    }
}
