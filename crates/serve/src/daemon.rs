//! The thin TCP front end: newline-delimited JSON over a socket, one
//! request per line, one response per line, with a background scheduler
//! thread cooperatively advancing every submitted study.
//!
//! # Robustness contract
//!
//! - **Admission control**: at most [`DaemonOptions::max_connections`]
//!   concurrent connections; excess connects receive one `overloaded`
//!   line (with `retry_after_ms`) and are closed, counted under
//!   `serve.shed.connections`.
//! - **Bounded buffering**: request lines are read through a timeout
//!   poll loop and capped at [`crate::proto::MAX_REQUEST_LINE`] bytes;
//!   an oversized line is discarded up to its newline and answered with
//!   a typed failure instead of growing the buffer.
//! - **Bounded shutdown**: [`Daemon::shutdown`] is idempotent and
//!   drains connection handlers for at most
//!   [`DaemonOptions::drain_deadline`]; idle clients cannot wedge it
//!   because every read wakes within [`READ_POLL`] to check the stop
//!   flag.
//! - **No idle polling**: the accept loop blocks in `accept` and the
//!   scheduler sleeps while no study runs. A submit wakes the
//!   scheduler; raising the stop flag wakes both (see [`Stop`]).

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::proto::{parse_request, Response, MAX_REQUEST_LINE};
use crate::service::{ServeError, Service};

/// How often the shutdown drain re-checks its connection handlers.
const DRAIN_POLL: Duration = Duration::from_millis(5);

/// How long raising the stop flag waits for its wake-up connection.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Socket read timeout: the longest a connection handler sleeps before
/// re-checking the stop flag. Bounds shutdown latency per handler.
const READ_POLL: Duration = Duration::from_millis(50);

/// Tuning knobs for [`Daemon::start_with`]. [`Default`] gives the
/// stock daemon: 64 connections, a 2-second drain deadline.
#[derive(Debug, Clone)]
pub struct DaemonOptions {
    /// Maximum concurrent connections before new connects are shed.
    pub max_connections: usize,
    /// How long [`Daemon::shutdown`] waits for connection handlers to
    /// notice the stop flag before abandoning them.
    pub drain_deadline: Duration,
}

impl Default for DaemonOptions {
    fn default() -> DaemonOptions {
        DaemonOptions { max_connections: 64, drain_deadline: Duration::from_secs(2) }
    }
}

/// A running daemon: a [`Service`] behind a TCP listener.
///
/// The daemon owns two kinds of threads: one scheduler thread that
/// round-robins [`Service::step`] while any study is running and sleeps
/// otherwise, and one short-lived thread per accepted connection.
/// `shutdown` requests (or [`Daemon::shutdown`]) stop the accept loop;
/// the scheduler drains the in-flight studies before joining so no
/// tenant's study is abandoned mid-slice.
pub struct Daemon {
    service: Arc<Service>,
    addr: SocketAddr,
    stop: Arc<Stop>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    scheduler_thread: Option<std::thread::JoinHandle<()>>,
}

/// The daemon's stop flag, and how raising it wakes the threads that
/// block: the scheduler through [`Service::wake_scheduler`], the accept
/// loop through one connection to the bound address, which the loop
/// drops before it exits.
struct Stop {
    raised: AtomicBool,
    addr: SocketAddr,
}

impl Stop {
    fn is_raised(&self) -> bool {
        self.raised.load(Ordering::SeqCst)
    }

    /// Raises the flag and wakes the scheduler and the accept loop.
    /// Raising it again is harmless: once the accept loop is gone the
    /// wake-up connection is refused.
    fn raise(&self, service: &Service) {
        self.raised.store(true, Ordering::SeqCst);
        service.wake_scheduler();
        let _ = TcpStream::connect_timeout(&self.addr, WAKE_TIMEOUT);
    }
}

impl Daemon {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept and scheduler threads.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(service: Service, addr: &str) -> Result<Daemon, ServeError> {
        Daemon::start_with(service, addr, DaemonOptions::default())
    }

    /// [`Daemon::start`] with explicit [`DaemonOptions`].
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start_with(
        service: Service,
        addr: &str,
        options: DaemonOptions,
    ) -> Result<Daemon, ServeError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let service = Arc::new(service);
        let stop = Arc::new(Stop { raised: AtomicBool::new(false), addr });

        let accept_service = Arc::clone(&service);
        let accept_stop = Arc::clone(&stop);
        let accept_options = options;
        let accept_thread = std::thread::spawn(move || {
            accept_loop(&listener, &accept_service, &accept_stop, &accept_options);
        });

        let sched_service = Arc::clone(&service);
        let sched_stop = Arc::clone(&stop);
        let scheduler_thread = std::thread::spawn(move || {
            scheduler_loop(&sched_service, &sched_stop);
        });

        Ok(Daemon {
            service,
            addr,
            stop,
            accept_thread: Some(accept_thread),
            scheduler_thread: Some(scheduler_thread),
        })
    }

    /// The bound socket address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service behind the listener, for in-process inspection.
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Signals the accept loop and scheduler to stop, then joins them.
    /// The scheduler finishes the current scheduling pass, so studies
    /// stop at a checkpoint boundary and resume cleanly on the next
    /// daemon over the same root.
    ///
    /// Bounded and idempotent: connection handlers wake within
    /// [`READ_POLL`] to observe the stop flag and the accept loop
    /// abandons any that outlive [`DaemonOptions::drain_deadline`], so
    /// an idle or wedged client cannot stall shutdown. Calling it
    /// again (including via [`Drop`]) is a no-op.
    pub fn shutdown(&mut self) {
        if self.accept_thread.is_none() && self.scheduler_thread.is_none() {
            return;
        }
        self.stop.raise(&self.service);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.scheduler_thread.take() {
            let _ = t.join();
        }
    }

    /// Blocks until a `shutdown` request stops the daemon: joins the
    /// accept loop, which exits once the stop flag is raised (or when
    /// `accept` itself fails), then shuts down the rest.
    pub fn wait(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        self.shutdown();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Decrements the live-connection count when a handler exits, however
/// it exits.
struct ConnectionSlot(Arc<AtomicUsize>);

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn accept_loop(
    listener: &TcpListener,
    service: &Arc<Service>,
    stop: &Arc<Stop>,
    options: &DaemonOptions,
) {
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let live = Arc::new(AtomicUsize::new(0));
    loop {
        let accepted = listener.accept();
        if stop.is_raised() {
            // The stop's wake-up connection (or a client racing it):
            // dropped unanswered.
            break;
        }
        match accepted {
            Ok((stream, _)) => {
                if live.load(Ordering::SeqCst) >= options.max_connections {
                    shed_connection(stream, service);
                    continue;
                }
                live.fetch_add(1, Ordering::SeqCst);
                let slot = ConnectionSlot(Arc::clone(&live));
                let service = Arc::clone(service);
                let stop = Arc::clone(stop);
                handlers.push(std::thread::spawn(move || {
                    let _slot = slot;
                    serve_connection(stream, &service, &stop);
                }));
            }
            Err(_) => break,
        }
        handlers.retain(|h| !h.is_finished());
    }
    // Drain: handlers poll the stop flag every READ_POLL, so they exit
    // on their own. Wait up to the deadline, then abandon stragglers —
    // they hold only Arc clones and die with the process.
    let deadline = Instant::now() + options.drain_deadline;
    loop {
        handlers.retain(|h| !h.is_finished());
        if handlers.is_empty() || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(DRAIN_POLL);
    }
}

/// Answers one over-capacity connection with a single `overloaded`
/// line and closes it.
fn shed_connection(mut stream: TcpStream, service: &Arc<Service>) {
    service.obs().counter("serve.shed.connections").inc();
    let response = Response::overloaded("connect", service.retry_after_ms());
    if let Ok(encoded) = serde_json::to_string(&response) {
        let _ = writeln!(stream, "{encoded}");
        let _ = stream.flush();
    }
}

/// Advances every running study a slice per pass, and sleeps in
/// [`Service::wait_for_work`] while none runs.
fn scheduler_loop(service: &Arc<Service>, stop: &Arc<Stop>) {
    while !stop.is_raised() {
        // Only unknown study ids fail a pass, and the pass takes its ids
        // from the job table itself.
        let _ = service.step();
        service.wait_for_work(&stop.raised);
    }
}

fn serve_connection(stream: TcpStream, service: &Arc<Service>, stop: &Arc<Stop>) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    let mut reader = BufReader::new(stream);
    // The line buffer persists across read timeouts: `read_until`
    // appends whatever bytes arrived before the timeout, so a slow
    // client's half-line survives the next poll. `discarding` tracks
    // an oversized line being skipped up to its newline.
    let mut buf: Vec<u8> = Vec::new();
    let mut discarding = false;
    let mut discarded: usize = 0;
    loop {
        if stop.is_raised() {
            return;
        }
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) => return, // EOF
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Timeout: partial bytes (if any) are already in
                // `buf`. Enforce the line cap before waiting again so
                // a newline-free firehose cannot grow the buffer.
                if buf.len() > MAX_REQUEST_LINE {
                    discarding = true;
                    discarded += buf.len();
                    buf.clear();
                }
                continue;
            }
            Err(_) => return,
        }
        if buf.last() != Some(&b'\n') {
            // read_until returned without the delimiter: EOF follows.
            if buf.len() > MAX_REQUEST_LINE {
                discarding = true;
                discarded += buf.len();
                buf.clear();
            }
            if buf.is_empty() && !discarding {
                return;
            }
        }
        if discarding || buf.len() > MAX_REQUEST_LINE {
            // The newline (or EOF) ending an oversized line: report it
            // once, then resync on the next line.
            discarded += buf.len();
            buf.clear();
            let response = Response::failure(
                "parse",
                crate::proto::ProtoError::RequestTooLarge {
                    len: discarded,
                    max: MAX_REQUEST_LINE,
                },
            );
            discarding = false;
            discarded = 0;
            if !write_response(&mut writer, &response) {
                return;
            }
            continue;
        }
        let line = String::from_utf8_lossy(&buf).into_owned();
        buf.clear();
        if line.trim().is_empty() {
            continue;
        }
        let response = match parse_request(line.trim_end()) {
            Ok(req) => {
                let response = service.handle(&req);
                if req.op == "shutdown" {
                    stop.raise(service);
                }
                response
            }
            Err(e) => Response::failure("parse", e),
        };
        if !write_response(&mut writer, &response) {
            return;
        }
        if stop.is_raised() {
            return;
        }
    }
}

fn write_response(writer: &mut TcpStream, response: &Response) -> bool {
    let Ok(encoded) = serde_json::to_string(response) else { return false };
    writeln!(writer, "{encoded}").is_ok() && writer.flush().is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(
        reader: &mut BufReader<TcpStream>,
        writer: &mut TcpStream,
        line: &str,
    ) -> Response {
        writeln!(writer, "{line}").expect("write request");
        writer.flush().expect("flush request");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read response");
        serde_json::from_str(reply.trim()).expect("response parses")
    }

    #[test]
    fn daemon_serves_a_tiny_study_over_tcp() {
        let root = std::env::temp_dir()
            .join(format!("slum-daemon-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let service = Service::open(&root).expect("service root");
        let mut daemon = Daemon::start(service, "127.0.0.1:0").expect("daemon");

        let stream = TcpStream::connect(daemon.addr()).expect("connect");
        let mut writer = stream.try_clone().expect("clone stream");
        let mut reader = BufReader::new(stream);

        let submit = roundtrip(
            &mut reader,
            &mut writer,
            r#"{"op":"submit-study","tenant":"smoke","crawl_scale":0.0002,"domain_scale":0.03,"checkpoint_every":7}"#,
        );
        assert!(submit.ok, "submit failed: {:?}", submit.error);
        let id = submit.study.expect("study id");

        let done = loop {
            let status = roundtrip(
                &mut reader,
                &mut writer,
                &format!(r#"{{"op":"study-status","study":{id}}}"#),
            );
            assert!(status.ok, "status failed: {:?}", status.error);
            match status.state.as_deref() {
                Some("done") => break status,
                Some("failed") => panic!("study failed: {:?}", status.error),
                _ => std::thread::sleep(std::time::Duration::from_millis(10)),
            }
        };
        assert!(done.digest.is_some(), "done study reports a digest");

        let metrics = roundtrip(&mut reader, &mut writer, r#"{"op":"stream-metrics"}"#);
        let metrics_json = metrics.metrics.expect("metrics payload");
        let snapshot: slum_obs::MetricsSnapshot =
            serde_json::from_str(&metrics_json).expect("metrics parse");
        assert!(snapshot.counter("serve.studies.completed") >= 1);
        assert!(snapshot.counter("tenant.smoke.crawl.pages") > 0);

        let bye = roundtrip(&mut reader, &mut writer, r#"{"op":"shutdown"}"#);
        assert!(bye.ok);
        daemon.wait();
        std::fs::remove_dir_all(&root).ok();
    }

    fn scratch_service(tag: &str) -> (Service, std::path::PathBuf) {
        let root = std::env::temp_dir()
            .join(format!("slum-daemon-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let service = Service::open(&root).expect("service root");
        (service, root)
    }

    #[test]
    fn in_process_submit_wakes_the_idle_scheduler() {
        let (service, root) = scratch_service("wake");
        let mut daemon = Daemon::start(service, "127.0.0.1:0").expect("daemon");
        // The scheduler sleeps as soon as it finds nothing to run; give
        // it time to get there, so that the submit below must wake it.
        std::thread::sleep(Duration::from_millis(50));
        let config = malware_slums::StudyConfig::builder()
            .crawl_scale(0.0002)
            .domain_scale(0.03)
            .checkpoint_every(7)
            .build()
            .expect("valid config");
        let id = daemon.service().submit("direct", config).expect("submit");
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let status = daemon.service().status(id).expect("status");
            match status.state.as_str() {
                "done" => break,
                "running" => {
                    assert!(Instant::now() < deadline, "the submit never woke the scheduler");
                }
                other => panic!("study {other}: {:?}", status.error),
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        daemon.shutdown();
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn shutdown_is_idempotent_and_bounded_with_idle_clients() {
        let (service, root) = scratch_service("drain");
        let mut daemon = Daemon::start_with(
            service,
            "127.0.0.1:0",
            DaemonOptions { drain_deadline: Duration::from_secs(1), ..DaemonOptions::default() },
        )
        .expect("daemon");

        // Two clients that connect and then go silent: the old
        // blocking reader would park the handlers in `lines()` forever
        // and `shutdown` would never join the accept loop.
        let _idle_a = TcpStream::connect(daemon.addr()).expect("connect");
        let _idle_b = TcpStream::connect(daemon.addr()).expect("connect");
        std::thread::sleep(Duration::from_millis(30));

        let started = Instant::now();
        daemon.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "shutdown with idle clients must be deadline-bounded, took {:?}",
            started.elapsed()
        );
        // Idempotent: a second call (and the Drop impl after it) is a
        // no-op, not a hang or panic.
        daemon.shutdown();
        drop(daemon);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn oversized_request_line_is_rejected_without_buffering() {
        let (service, root) = scratch_service("bigline");
        let mut daemon = Daemon::start(service, "127.0.0.1:0").expect("daemon");

        let stream = TcpStream::connect(daemon.addr()).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);

        // A single line well past the cap, then a valid request: the
        // daemon must reject the first with a typed error and still
        // serve the second on the same connection.
        let blob = "z".repeat(MAX_REQUEST_LINE * 2 + 17);
        writeln!(writer, "{blob}").expect("write oversized line");
        writer.flush().expect("flush");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read rejection");
        let rejected: Response = serde_json::from_str(reply.trim()).expect("parses");
        assert!(!rejected.ok);
        assert!(
            rejected.error.as_deref().unwrap_or("").contains("too large"),
            "unexpected error: {:?}",
            rejected.error
        );

        let metrics = roundtrip(&mut reader, &mut writer, r#"{"op":"stream-metrics"}"#);
        assert!(metrics.ok, "connection must survive an oversized line");
        daemon.shutdown();
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn connection_cap_sheds_with_overloaded_response() {
        let (service, root) = scratch_service("shed");
        let mut daemon = Daemon::start_with(
            service,
            "127.0.0.1:0",
            DaemonOptions { max_connections: 1, ..DaemonOptions::default() },
        )
        .expect("daemon");

        // First client occupies the single slot (a roundtrip proves
        // its handler is live, not just queued).
        let first = TcpStream::connect(daemon.addr()).expect("connect");
        let mut first_writer = first.try_clone().expect("clone");
        let mut first_reader = BufReader::new(first);
        let ping = roundtrip(&mut first_reader, &mut first_writer, r#"{"op":"stream-metrics"}"#);
        assert!(ping.ok);

        // Second client is shed with one overloaded line.
        let second = TcpStream::connect(daemon.addr()).expect("connect");
        let mut second_reader = BufReader::new(second);
        let mut reply = String::new();
        second_reader.read_line(&mut reply).expect("read shed line");
        let shed: Response = serde_json::from_str(reply.trim()).expect("parses");
        assert!(!shed.ok);
        assert_eq!(shed.error.as_deref(), Some("overloaded"));
        assert!(shed.retry_after_ms.is_some());

        let metrics = roundtrip(&mut first_reader, &mut first_writer, r#"{"op":"stream-metrics"}"#);
        let snapshot: slum_obs::MetricsSnapshot =
            serde_json::from_str(&metrics.metrics.expect("payload")).expect("metrics parse");
        assert!(snapshot.counter("serve.shed.connections") >= 1);
        daemon.shutdown();
        std::fs::remove_dir_all(&root).ok();
    }
}
