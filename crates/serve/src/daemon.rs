//! The thin TCP front end: newline-delimited JSON over a socket, one
//! request per line, one response per line, with a background scheduler
//! thread cooperatively advancing every submitted study.
//!
//! # Robustness contract
//!
//! - **Admission control**: at most [`MAX_CONNECTIONS`] concurrent
//!   connections; excess connects receive one `overloaded` line (with
//!   `retry_after_ms`) and are closed, counted under
//!   `serve.shed.connections`.
//! - **Bounded buffering**: a handler reads at most
//!   [`MAX_REQUEST_LINE`] + 1 bytes of a line; an oversized line is
//!   discarded up to its newline and answered once with a typed failure
//!   instead of growing the buffer.
//! - **Prompt shutdown**: [`Daemon::shutdown`] is idempotent. Raising
//!   the stop shuts every live connection down, so a handler blocked in
//!   `read` returns at once and the accept loop joins every handler:
//!   idle clients cannot wedge it, and there is no drain deadline.
//! - **No polling**: the accept loop blocks in `accept`, connection
//!   handlers block in `read` and the scheduler sleeps while no study
//!   runs. A submit wakes the scheduler; raising the stop wakes all of
//!   them (see [`Stop`]).

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use crate::proto::{parse_request, ProtoError, Response, MAX_REQUEST_LINE};
use crate::service::{ServeError, Service, RETRY_AFTER_MS};

/// Concurrent connections the daemon serves; connects beyond it are
/// shed with one `overloaded` line.
pub const MAX_CONNECTIONS: usize = 64;

/// How long raising the stop flag waits for its wake-up connection.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

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

/// The daemon's stop flag, the live connections, and how raising the
/// flag wakes the threads that block: the scheduler through
/// [`Service::wake_scheduler`], every connection handler by shutting
/// its stream down, and the accept loop through one connection to the
/// bound address, which the loop drops before it exits.
struct Stop {
    raised: AtomicBool,
    addr: SocketAddr,
    /// A clone of every live connection's stream, by connection id.
    connections: Mutex<HashMap<u64, TcpStream>>,
}

impl Stop {
    fn is_raised(&self) -> bool {
        self.raised.load(Ordering::SeqCst)
    }

    fn connections(&self) -> MutexGuard<'_, HashMap<u64, TcpStream>> {
        self.connections.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Raises the flag and wakes the scheduler, the connection handlers
    /// and the accept loop. Raising it again is harmless: once the
    /// accept loop is gone the wake-up connection is refused.
    fn raise(&self, service: &Service) {
        self.raised.store(true, Ordering::SeqCst);
        service.wake_scheduler();
        self.close_connections();
        let _ = TcpStream::connect_timeout(&self.addr, WAKE_TIMEOUT);
    }

    /// Shuts every registered connection down: a handler blocked in
    /// `read` sees end of stream, one blocked in `write` an error.
    fn close_connections(&self) {
        for stream in self.connections().values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// Registers a clone of connection `id`'s stream; `false` at
    /// [`MAX_CONNECTIONS`] live connections or once the flag is raised.
    /// The flag is checked under the lock [`Stop::close_connections`]
    /// takes, so no connection registers after the raise closed the
    /// registered ones.
    fn register(&self, id: u64, stream: &TcpStream) -> bool {
        let mut connections = self.connections();
        if self.is_raised() || connections.len() >= MAX_CONNECTIONS {
            return false;
        }
        let Ok(clone) = stream.try_clone() else { return false };
        connections.insert(id, clone);
        true
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
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let service = Arc::new(service);
        let stop = Arc::new(Stop {
            raised: AtomicBool::new(false),
            addr,
            connections: Mutex::new(HashMap::new()),
        });

        let accept_service = Arc::clone(&service);
        let accept_stop = Arc::clone(&stop);
        let accept_thread = std::thread::spawn(move || {
            accept_loop(&listener, &accept_service, &accept_stop);
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
    /// Prompt and idempotent: raising the stop shuts every live
    /// connection down, so no client, idle or not, holds a handler
    /// open. Calling it again (including via [`Drop`]) is a no-op.
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

/// Unregisters a connection when its handler exits, however it exits.
struct ConnectionSlot {
    id: u64,
    stop: Arc<Stop>,
}

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        self.stop.connections().remove(&self.id);
    }
}

fn accept_loop(listener: &TcpListener, service: &Arc<Service>, stop: &Arc<Stop>) {
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut next_id = 0u64;
    loop {
        let accepted = listener.accept();
        if stop.is_raised() {
            // The stop's wake-up connection (or a client racing it):
            // dropped unanswered.
            break;
        }
        let Ok((stream, _)) = accepted else { break };
        next_id += 1;
        if stop.register(next_id, &stream) {
            let slot = ConnectionSlot { id: next_id, stop: Arc::clone(stop) };
            let service = Arc::clone(service);
            handlers.push(std::thread::spawn(move || {
                serve_connection(stream, &service, &slot.stop);
            }));
        } else if !stop.is_raised() {
            shed_connection(stream, service);
        }
        handlers.retain(|h| !h.is_finished());
    }
    // A handler blocks in `read` until its stream shuts down. The stop
    // shut every registered stream down already; closing them here
    // covers an `accept` failure with the stop still lowered.
    stop.close_connections();
    for handler in handlers {
        let _ = handler.join();
    }
}

/// Answers one over-capacity connection with a single `overloaded`
/// line and closes it.
fn shed_connection(mut stream: TcpStream, service: &Service) {
    service.obs().counter("serve.shed.connections").inc();
    let _ = write_response(&mut stream, &Response::overloaded("connect", RETRY_AFTER_MS));
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

fn serve_connection(stream: TcpStream, service: &Service, stop: &Stop) {
    let Ok(mut writer) = stream.try_clone() else { return };
    let mut reader = BufReader::new(stream);
    let mut line: Vec<u8> = Vec::new();
    loop {
        line.clear();
        // At most one byte past the cap: enough to tell an oversized
        // line without buffering it.
        let cap = MAX_REQUEST_LINE as u64 + 1;
        match (&mut reader).take(cap).read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => return, // end of stream, or shut down
            Ok(_) => {}
        }
        let response = if line.len() > MAX_REQUEST_LINE {
            // Discard the rest of the oversized line, then resync on
            // the next one.
            let mut len = line.len();
            if line.last() != Some(&b'\n') {
                match reader.skip_until(b'\n') {
                    Ok(rest) => len += rest,
                    Err(_) => return,
                }
            }
            Response::failure("parse", ProtoError::RequestTooLarge { len, max: MAX_REQUEST_LINE })
        } else {
            let text = String::from_utf8_lossy(&line);
            if text.trim().is_empty() {
                continue;
            }
            match parse_request(text.trim_end()) {
                Ok(req) => {
                    let response = service.handle(&req);
                    if req.op == "shutdown" {
                        // Raising the stop closes this connection too:
                        // answer first.
                        let _ = write_response(&mut writer, &response);
                        stop.raise(service);
                        return;
                    }
                    response
                }
                Err(e) => Response::failure("parse", e),
            }
        };
        if !write_response(&mut writer, &response) {
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
    use std::time::Instant;

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
        let daemon = Daemon::start(service, "127.0.0.1:0").expect("daemon");

        // Two clients that connect and then go silent: their handlers
        // block in `read` until the stop shuts their streams down.
        let _idle_a = TcpStream::connect(daemon.addr()).expect("connect");
        let _idle_b = TcpStream::connect(daemon.addr()).expect("connect");
        std::thread::sleep(Duration::from_millis(30));

        // Shut down on another thread, so a shutdown that never returns
        // fails the test instead of hanging it.
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut daemon = daemon;
            daemon.shutdown();
            let _ = done.send(daemon);
        });
        let mut daemon = finished
            .recv_timeout(Duration::from_secs(5))
            .expect("shutdown with idle clients must return within 5 s");
        // Idempotent: a second call (and the Drop impl after it) is a
        // no-op, not a hang or panic.
        daemon.shutdown();
        drop(daemon);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_line_split_across_pauses_is_answered_once_whole() {
        let (service, root) = scratch_service("split");
        let mut daemon = Daemon::start(service, "127.0.0.1:0").expect("daemon");

        let stream = TcpStream::connect(daemon.addr()).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        writer.write_all(br#"{"op":"stream-"#).expect("write first half");
        writer.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(200));
        writeln!(writer, r#"metrics"}}"#).expect("write second half");
        writer.flush().expect("flush");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read response");
        let whole: Response = serde_json::from_str(reply.trim()).expect("parses");
        assert!(whole.ok, "the joined line must parse: {:?}", whole.error);
        assert_eq!(whole.op, "stream-metrics");

        // The next answer belongs to the next request: the first half
        // was never answered on its own.
        let next = roundtrip(&mut reader, &mut writer, r#"{"op":"study-status","study":9}"#);
        assert_eq!(next.op, "study-status");
        daemon.shutdown();
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
        let mut daemon = Daemon::start(service, "127.0.0.1:0").expect("daemon");

        // Fill every slot (a roundtrip on each proves its handler is
        // live, not just queued).
        let mut clients = Vec::new();
        for _ in 0..MAX_CONNECTIONS {
            let stream = TcpStream::connect(daemon.addr()).expect("connect");
            let mut writer = stream.try_clone().expect("clone");
            let mut reader = BufReader::new(stream);
            let ping = roundtrip(&mut reader, &mut writer, r#"{"op":"stream-metrics"}"#);
            assert!(ping.ok);
            clients.push((reader, writer));
        }

        // The next client is shed with one overloaded line.
        let extra = TcpStream::connect(daemon.addr()).expect("connect");
        let mut extra_reader = BufReader::new(extra);
        let mut reply = String::new();
        extra_reader.read_line(&mut reply).expect("read shed line");
        let shed: Response = serde_json::from_str(reply.trim()).expect("parses");
        assert!(!shed.ok);
        assert_eq!(shed.error.as_deref(), Some("overloaded"));
        assert_eq!(shed.retry_after_ms, Some(RETRY_AFTER_MS));

        let (reader, writer) = &mut clients[0];
        let metrics = roundtrip(reader, writer, r#"{"op":"stream-metrics"}"#);
        let snapshot: slum_obs::MetricsSnapshot =
            serde_json::from_str(&metrics.metrics.expect("payload")).expect("metrics parse");
        assert!(snapshot.counter("serve.shed.connections") >= 1);
        daemon.shutdown();
        std::fs::remove_dir_all(&root).ok();
    }
}
