//! The newline-delimited JSON protocol: one request object per line in,
//! one response object per line out.
//!
//! Requests are a single flat struct — the `op` field selects the
//! operation, every other field is optional with a sensible default
//! (`#[serde(default)]` / `#[serde(default = "...")]` on the vendored
//! derive), so a submit line only needs to name what differs from the
//! stock study configuration:
//!
//! ```json
//! {"op":"submit-study","tenant":"alpha","crawl_scale":0.0002,"substrate":"adnet"}
//! {"op":"study-status","study":1}
//! {"op":"query-verdict","study":1,"url":"http://example.com/"}
//! {"op":"stream-metrics"}
//! {"op":"shutdown"}
//! ```

use malware_slums::study::{
    DEFAULT_CHECKPOINT_EVERY, DEFAULT_CRAWL_SCALE, DEFAULT_DOMAIN_SCALE, DEFAULT_JS_ENGINE,
    DEFAULT_SEED, DEFAULT_SUBSTRATE,
};
use malware_slums::{DiskFaultProfile, StudyConfig};
use serde::{Deserialize, Serialize};
use slum_crawler::CrawlFaultProfile;
use slum_detect::fault::FaultProfile;

/// Hard cap on a single request line in bytes. Longer lines are
/// rejected with [`ProtoError::RequestTooLarge`] before any JSON
/// parsing happens — a client cannot make the daemon buffer an
/// unbounded line.
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

/// A typed parse failure at the protocol boundary. Every byte sequence
/// a client sends maps to either a [`Request`] or one of these — never
/// a panic, never an unbounded buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The request line exceeded [`MAX_REQUEST_LINE`] bytes.
    RequestTooLarge {
        /// Bytes received (may be a lower bound if the reader stopped
        /// buffering early).
        len: usize,
        /// The enforced cap.
        max: usize,
    },
    /// The line was not a valid request object (bad UTF-8 handled by
    /// the transport; bad JSON or a non-object lands here).
    Malformed(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::RequestTooLarge { len, max } => {
                write!(f, "request line too large: {len} bytes exceeds the {max}-byte cap")
            }
            ProtoError::Malformed(msg) => write!(f, "malformed request: {msg}"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Parses one request line, enforcing the [`MAX_REQUEST_LINE`] cap
/// before touching the JSON parser.
///
/// # Errors
///
/// [`ProtoError::RequestTooLarge`] for oversized lines,
/// [`ProtoError::Malformed`] for anything that is not a request object.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    if line.len() > MAX_REQUEST_LINE {
        return Err(ProtoError::RequestTooLarge { len: line.len(), max: MAX_REQUEST_LINE });
    }
    serde_json::from_str(line).map_err(|e| ProtoError::Malformed(e.to_string()))
}

fn default_tenant() -> String {
    "default".to_string()
}

// The study defaults come from core's constants, never from a whole
// `StudyConfig::default()`: that queries the host's parallelism, and
// these run on every parsed request line.
fn default_seed() -> u64 {
    DEFAULT_SEED
}

fn default_crawl_scale() -> f64 {
    DEFAULT_CRAWL_SCALE
}

fn default_domain_scale() -> f64 {
    DEFAULT_DOMAIN_SCALE
}

fn default_substrate() -> String {
    DEFAULT_SUBSTRATE.name().to_string()
}

fn default_js_engine() -> String {
    DEFAULT_JS_ENGINE.name().to_string()
}

fn default_checkpoint_every() -> u64 {
    DEFAULT_CHECKPOINT_EVERY
}

fn default_profile() -> String {
    "none".to_string()
}

/// One protocol request. Fields irrelevant to the selected `op` are
/// ignored.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Request {
    /// Operation: `submit-study`, `study-status`, `query-verdict`,
    /// `stream-metrics` or `shutdown`.
    pub op: String,
    /// Tenant the operation acts for.
    #[serde(default = "default_tenant")]
    pub tenant: String,
    /// Study id (`study-status`, `query-verdict`).
    pub study: Option<u64>,
    /// URL to look up (`query-verdict`).
    pub url: Option<String>,
    /// Master seed (`submit-study`).
    #[serde(default = "default_seed")]
    pub seed: u64,
    /// Crawl scale fraction (`submit-study`).
    #[serde(default = "default_crawl_scale")]
    pub crawl_scale: f64,
    /// Domain scale fraction (`submit-study`).
    #[serde(default = "default_domain_scale")]
    pub domain_scale: f64,
    /// Traffic substrate name (`submit-study`).
    #[serde(default = "default_substrate")]
    pub substrate: String,
    /// JS engine name (`submit-study`).
    #[serde(default = "default_js_engine")]
    pub js_engine: String,
    /// Checkpoint cadence in surf slots (`submit-study`).
    #[serde(default = "default_checkpoint_every")]
    pub checkpoint_every: u64,
    /// Scan workers; 0 means the library default (`submit-study`).
    #[serde(default)]
    pub scan_workers: usize,
    /// Scan-fault profile name (`submit-study`).
    #[serde(default = "default_profile")]
    pub fault_profile: String,
    /// Crawl-fault profile name (`submit-study`).
    #[serde(default = "default_profile")]
    pub crawl_fault_profile: String,
    /// Disk-fault profile name for checkpoint storage (`submit-study`).
    /// The default (`none`) injects nothing; artifacts are identical
    /// under every profile — faults only exercise recovery.
    #[serde(default = "default_profile")]
    pub disk_fault_profile: String,
    /// Include the full export JSON in a `study-status` response.
    #[serde(default)]
    pub include_export: bool,
}

impl Request {
    /// A request skeleton for `op` with every other field defaulted.
    pub fn new(op: &str) -> Request {
        let line = format!("{{\"op\":{:?}}}", op);
        serde_json::from_str(&line).expect("op-only request parses")
    }

    /// Builds the study configuration a `submit-study` request asks
    /// for.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown names or invalid
    /// values (this is the protocol boundary — errors go back over the
    /// wire as strings).
    pub fn study_config(&self) -> Result<StudyConfig, String> {
        let mut b = StudyConfig::builder()
            .seed(self.seed)
            .crawl_scale(self.crawl_scale)
            .domain_scale(self.domain_scale)
            .checkpoint_every(self.checkpoint_every)
            .js_engine_name(&self.js_engine)
            .map_err(|e| e.to_string())?
            .substrate_name(&self.substrate)
            .map_err(|e| e.to_string())?;
        if self.scan_workers > 0 {
            b = b.scan_workers(self.scan_workers);
        }
        let scan_fault = FaultProfile::parse(&self.fault_profile)
            .ok_or_else(|| format!("unknown fault profile `{}`", self.fault_profile))?;
        let crawl_fault = CrawlFaultProfile::parse(&self.crawl_fault_profile).ok_or_else(
            || format!("unknown crawl fault profile `{}`", self.crawl_fault_profile),
        )?;
        let disk_fault = DiskFaultProfile::parse(&self.disk_fault_profile).ok_or_else(
            || format!("unknown disk fault profile `{}`", self.disk_fault_profile),
        )?;
        b.fault_profile(scan_fault)
            .crawl_fault_profile(crawl_fault)
            .disk_fault_profile(disk_fault)
            .build()
            .map_err(|e| e.to_string())
    }
}

/// One protocol response. `ok` is the success flag; `error` carries the
/// failure message when `ok` is false. Every other field is populated
/// only when the operation produces it.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Response {
    /// Success flag.
    pub ok: bool,
    /// Echo of the request's `op`.
    pub op: String,
    /// Failure message when `ok` is false.
    pub error: Option<String>,
    /// Study id (submit/status/verdict).
    pub study: Option<u64>,
    /// Tenant the study belongs to.
    pub tenant: Option<String>,
    /// Study state: `running`, `done` or `failed`.
    pub state: Option<String>,
    /// Scheduling slices executed so far.
    pub slices: Option<u64>,
    /// FNV-1a digest of the export JSON (done studies).
    pub digest: Option<String>,
    /// Crawled records (done studies).
    pub records: Option<u64>,
    /// Malicious regular records (done studies).
    pub malicious_regular: Option<u64>,
    /// A canonical URL the study scanned — a guaranteed-known probe
    /// for `query-verdict` (done studies).
    pub sample_url: Option<String>,
    /// Whether the queried URL has a cached verdict.
    pub known: Option<bool>,
    /// The cached verdict, when known.
    pub malicious: Option<bool>,
    /// Full export JSON (status with `include_export`).
    pub export: Option<String>,
    /// Metrics snapshot JSON (`stream-metrics`).
    pub metrics: Option<String>,
    /// Suggested client back-off when the daemon sheds the request
    /// (`error` = `overloaded`).
    pub retry_after_ms: Option<u64>,
}

impl Response {
    /// A failure response for `op`.
    pub fn failure(op: &str, error: impl std::fmt::Display) -> Response {
        Response {
            ok: false,
            op: op.to_string(),
            error: Some(error.to_string()),
            ..Response::default()
        }
    }

    /// A success skeleton for `op`.
    pub fn success(op: &str) -> Response {
        Response { ok: true, op: op.to_string(), ..Response::default() }
    }

    /// The load-shedding response: the daemon is over capacity for this
    /// tenant or connection; the client should back off `retry_after_ms`
    /// and retry. `error` is always the literal `"overloaded"` so
    /// clients can match on it.
    pub fn overloaded(op: &str, retry_after_ms: u64) -> Response {
        Response {
            ok: false,
            op: op.to_string(),
            error: Some("overloaded".to_string()),
            retry_after_ms: Some(retry_after_ms),
            ..Response::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_submit_line_fills_defaults() {
        let req: Request =
            serde_json::from_str(r#"{"op":"submit-study","crawl_scale":0.0002}"#)
                .expect("parses");
        assert_eq!(req.op, "submit-study");
        assert_eq!(req.tenant, "default");
        assert_eq!(req.seed, StudyConfig::default().seed);
        assert_eq!(req.crawl_scale, 0.0002);
        assert_eq!(req.substrate, "exchange");
        assert_eq!(req.checkpoint_every, DEFAULT_CHECKPOINT_EVERY);
        assert!(!req.include_export);
        let config = req.study_config().expect("valid config");
        assert_eq!(config.checkpoint_every, Some(DEFAULT_CHECKPOINT_EVERY));
    }

    #[test]
    fn skeleton_submit_builds_the_builder_defaults() {
        let got = Request::new("submit-study").study_config().expect("valid config");
        let want = StudyConfig::builder()
            .checkpoint_every(DEFAULT_CHECKPOINT_EVERY)
            .build()
            .expect("valid config");
        // StudyConfig has no PartialEq; its Debug rendering covers every
        // field.
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }

    #[test]
    fn bad_names_are_rejected() {
        let mut req = Request::new("submit-study");
        req.substrate = "blogosphere".to_string();
        assert!(req.study_config().is_err());
        let mut req = Request::new("submit-study");
        req.fault_profile = "catastrophic".to_string();
        assert!(req.study_config().is_err());
    }

    #[test]
    fn parse_request_caps_line_length() {
        let huge = format!("{{\"op\":\"submit-study\",\"tenant\":\"{}\"}}", "x".repeat(MAX_REQUEST_LINE));
        match parse_request(&huge) {
            Err(ProtoError::RequestTooLarge { len, max }) => {
                assert_eq!(len, huge.len());
                assert_eq!(max, MAX_REQUEST_LINE);
            }
            other => panic!("expected RequestTooLarge, got {other:?}"),
        }
        assert!(parse_request("{\"op\":\"shutdown\"}").is_ok());
    }

    #[test]
    fn parse_request_rejects_garbage_with_typed_errors() {
        for junk in ["", "{", "[]", "42", "\"op\"", "{\"op\":3}", "{\"op\":\"x\",\"seed\":\"n\"}"] {
            match parse_request(junk) {
                Err(ProtoError::Malformed(_)) => {}
                other => panic!("{junk:?}: expected Malformed, got {other:?}"),
            }
        }
    }

    #[test]
    fn escaped_surrogate_pairs_decode_to_one_character() {
        // Python's json.dumps escapes non-BMP characters as UTF-16
        // surrogate pairs by default.
        let req =
            parse_request(r#"{"op":"submit-study","tenant":"t\ud83d\ude00"}"#).expect("parses");
        assert_eq!(req.tenant, "t\u{1f600}");
        let lone =
            parse_request(r#"{"op":"submit-study","tenant":"t\ud83d-\ude00"}"#).expect("parses");
        assert_eq!(lone.tenant, "t\u{fffd}-\u{fffd}");
    }

    #[test]
    fn disk_fault_profile_flows_into_the_config() {
        let req: Request = serde_json::from_str(
            r#"{"op":"submit-study","crawl_scale":0.0002,"disk_fault_profile":"harsh"}"#,
        )
        .expect("parses");
        let config = req.study_config().expect("valid config");
        assert_eq!(config.disk_fault_profile.name, "harsh");
        let mut bad = Request::new("submit-study");
        bad.disk_fault_profile = "meteor-strike".to_string();
        assert!(bad.study_config().is_err());
    }

    #[test]
    fn overloaded_response_carries_retry_after() {
        let r = Response::overloaded("submit-study", 25);
        assert!(!r.ok);
        assert_eq!(r.error.as_deref(), Some("overloaded"));
        assert_eq!(r.retry_after_ms, Some(25));
        let line = serde_json::to_string(&r).expect("serializes");
        let back: Response = serde_json::from_str(&line).expect("parses");
        assert_eq!(back.retry_after_ms, Some(25));
    }

    #[test]
    fn response_round_trips_one_line() {
        let mut r = Response::success("study-status");
        r.study = Some(3);
        r.state = Some("done".to_string());
        let line = serde_json::to_string(&r).expect("serializes");
        assert!(!line.contains('\n'), "must stay newline-delimited");
        let back: Response = serde_json::from_str(&line).expect("parses");
        assert_eq!(back.study, Some(3));
        assert_eq!(back.state.as_deref(), Some("done"));
    }
}
