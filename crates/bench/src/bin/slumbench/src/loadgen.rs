//! Open-loop request generation over one daemon connection.
//!
//! Requests are due on a fixed schedule (`i / rate`) whatever the
//! daemon does. The connection carries one request at a time, as a
//! client waiting for each answer would, so a slow daemon makes later
//! requests go out late. Every latency is timed from the request's due
//! time, which charges a stall to every request queued behind it, and a
//! request still unsent when the step ends counts at `step end - due`.
//! Generator lateness is kept apart: it is how long after the
//! connection became free (or the request fell due, if later) the
//! generator actually sent, i.e. the load generator's own scheduling
//! delay, not the daemon's backlog.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use slum_serve::{Request, Response};

use crate::stats;

/// Latency limit a ladder step must meet, at its tail percentile, both
/// for request latency and generator lateness, to count toward
/// capacity.
pub const LATENCY_LIMIT_MS: f64 = 10.0;

/// How long a client waits for one response before calling it failed.
pub const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

/// One line-protocol connection to the daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// Propagates connect and socket-option failures.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
        Ok(Client {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Sends one request line and reads its response line.
    ///
    /// # Errors
    ///
    /// Socket failures, a closed connection or an unparsable response.
    pub fn call_line(&mut self, line: &str) -> std::io::Result<Response> {
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.writer.write_all(framed.as_bytes())?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed",
            ));
        }
        serde_json::from_str(reply.trim_end())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Sends one request.
    ///
    /// # Errors
    ///
    /// As [`Client::call_line`].
    pub fn call(&mut self, request: &Request) -> std::io::Result<Response> {
        let line = serde_json::to_string(request)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        self.call_line(&line)
    }
}

/// What a correct answer to a generated request looks like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// The URL is in the verdict index with this maliciousness.
    Known(bool),
    /// The URL was never scanned.
    Unknown,
}

impl Expect {
    /// Whether `response` is the correct answer.
    pub fn accepts(self, response: &Response) -> bool {
        if !response.ok {
            return false;
        }
        match self {
            Expect::Known(malicious) => {
                response.known == Some(true) && response.malicious == Some(malicious)
            }
            Expect::Unknown => response.known == Some(false),
        }
    }
}

/// The outcome of one open-loop step.
#[derive(Debug, Clone, Default)]
pub struct Step {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Latency of every request due within the step, from its due time;
    /// unsent requests count at `step end - due`.
    pub latencies_ms: Vec<f64>,
    /// Generator lateness of every sent request.
    pub late_ms: Vec<f64>,
    /// Requests sent.
    pub sent: u64,
    /// Requests due within the step but never sent.
    pub unsent: u64,
    /// Sent requests answered wrongly, with an error, or not at all.
    pub failed: u64,
}

impl Step {
    /// Tail latency at the highest percentile the sample supports.
    pub fn latency_tail(&self) -> Option<(f64, f64)> {
        stats::tail(&self.latencies_ms)
    }

    /// Tail generator lateness at the highest percentile the sample
    /// supports.
    pub fn late_tail(&self) -> Option<(f64, f64)> {
        stats::tail(&self.late_ms)
    }

    /// Whether the step meets [`LATENCY_LIMIT_MS`] with no failures.
    pub fn meets_limit(&self) -> bool {
        let within = |t: Option<(f64, f64)>| t.is_some_and(|(_, v)| v <= LATENCY_LIMIT_MS);
        self.failed == 0 && within(self.latency_tail()) && within(self.late_tail())
    }
}

/// Due time of request `i` at `rate` requests per second, in ms.
pub fn due_ms(i: u64, rate: f64) -> f64 {
    i as f64 * 1000.0 / rate
}

/// Requests due strictly before `end_ms` at `rate`.
pub fn due_before(end_ms: f64, rate: f64) -> u64 {
    (end_ms * rate / 1000.0).ceil().max(0.0) as u64
}

/// Latencies from due time. Request `i` completed at `done_ms[i]`; every
/// later request due before `cutoff_ms` was never sent and counts at
/// `stopped_ms - due`, where `stopped_ms` is when the generator actually
/// stopped (at or after the cutoff).
pub fn latencies_from_due(done_ms: &[f64], rate: f64, cutoff_ms: f64, stopped_ms: f64) -> Vec<f64> {
    let due_total = due_before(cutoff_ms, rate).max(done_ms.len() as u64);
    (0..due_total)
        .map(|i| {
            let due = due_ms(i, rate);
            match done_ms.get(i as usize) {
                Some(done) => done - due,
                None => (stopped_ms - due).max(0.0),
            }
        })
        .collect()
}

/// Generator lateness of a send at `send_ms` for a request due at
/// `due_ms` on a connection that became free at `free_ms`.
pub fn lateness_ms(send_ms: f64, due_ms: f64, free_ms: f64) -> f64 {
    (send_ms - due_ms.max(free_ms)).max(0.0)
}

/// The highest ladder rate whose step meets the latency limit
/// ([`Step::meets_limit`]); 0 when none does.
pub fn capacity(steps: &[Step]) -> f64 {
    steps
        .iter()
        .filter(|s| s.meets_limit())
        .map(|s| s.rate)
        .fold(0.0, f64::max)
}

/// When an open-loop step ends.
#[derive(Clone, Copy)]
pub enum StepEnd<'a> {
    /// After a fixed length, in ms.
    After(f64),
    /// When the flag is raised.
    Flag(&'a AtomicBool),
}

impl StepEnd<'_> {
    /// Whether the step has ended by `now_ms`.
    fn reached(self, now_ms: f64) -> bool {
        match self {
            StepEnd::After(end_ms) => now_ms >= end_ms,
            StepEnd::Flag(flag) => flag.load(Ordering::SeqCst),
        }
    }

    /// The time after which no request counts as due: the nominal end
    /// for a fixed-length step, else when the generator stopped.
    fn cutoff_ms(self, stopped_ms: f64) -> f64 {
        match self {
            StepEnd::After(end_ms) => end_ms,
            StepEnd::Flag(_) => stopped_ms,
        }
    }
}

/// Runs one open-loop step on a fresh connection to `addr` at `rate`
/// requests per second until `end`. `next(i)` gives request `i` and its
/// expected answer.
///
/// # Errors
///
/// Fails only when a connection cannot be opened; per-request failures
/// are counted in [`Step::failed`].
pub fn run_step(
    addr: SocketAddr,
    rate: f64,
    end: StepEnd<'_>,
    next: &mut dyn FnMut(u64) -> (String, Expect),
) -> std::io::Result<Step> {
    let mut client = Client::connect(addr)?;
    let start = Instant::now();
    let elapsed_ms = || start.elapsed().as_secs_f64() * 1e3;
    let mut step = Step {
        rate,
        ..Step::default()
    };
    let mut done_ms = Vec::new();
    let mut free_ms = 0.0;
    let stopped_ms = loop {
        let i = done_ms.len() as u64;
        let due = due_ms(i, rate);
        let now = elapsed_ms();
        if end.reached(now) {
            break now;
        }
        if now < due {
            std::thread::sleep(Duration::from_secs_f64((due - now) / 1e3));
            let now = elapsed_ms();
            if end.reached(now) {
                break now;
            }
        }
        let (line, expect) = next(i);
        let send = elapsed_ms();
        step.late_ms.push(lateness_ms(send, due, free_ms));
        let answered = client.call_line(&line);
        let done = elapsed_ms();
        free_ms = done;
        done_ms.push(done);
        step.sent += 1;
        match answered {
            Ok(response) if expect.accepts(&response) => {}
            Ok(_) => step.failed += 1,
            Err(_) => {
                step.failed += 1;
                // Reconnect, so a broken connection costs one request.
                client = Client::connect(addr)?;
            }
        }
    };
    step.latencies_ms = latencies_from_due(&done_ms, rate, end.cutoff_ms(stopped_ms), stopped_ms);
    step.unsent = step.latencies_ms.len() as u64 - step.sent.min(step.latencies_ms.len() as u64);
    Ok(step)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsent_requests_count_from_due_to_step_end() {
        // 10/s for 1 s: ten requests due at 0, 100, ..., 900 ms. Three
        // were answered; seven were still unsent when the step ended.
        let lat = latencies_from_due(&[5.0, 400.0, 650.0], 10.0, 1000.0, 1000.0);
        assert_eq!(lat.len(), 10);
        assert_eq!(&lat[..3], &[5.0, 300.0, 450.0]);
        assert_eq!(lat[3], 700.0);
        assert_eq!(lat[9], 100.0);
        // The generator noticed the end 40 ms late, waiting on an
        // answer: unsent requests waited those 40 ms too, but no
        // request due after the nominal end is added.
        let lat = latencies_from_due(&[5.0, 400.0, 1040.0], 10.0, 1000.0, 1040.0);
        assert_eq!(lat.len(), 10);
        assert_eq!((lat[2], lat[3], lat[9]), (840.0, 740.0, 140.0));
        // A request sent in time but answered after the step ended keeps
        // its own latency.
        let lat = latencies_from_due(&[5.0, 1200.0], 2.0, 1000.0, 1200.0);
        assert_eq!(lat, vec![5.0, 700.0]);
    }

    #[test]
    fn lateness_excludes_waiting_for_the_connection() {
        // On time, the generator overslept by 0.3 ms.
        assert!((lateness_ms(100.3, 100.0, 20.0) - 0.3).abs() < 1e-9);
        // Backlogged: the connection freed at 250 ms, well after the
        // 100 ms due time; sending at 250.1 ms is 0.1 ms late.
        assert!((lateness_ms(250.1, 100.0, 250.0) - 0.1).abs() < 1e-9);
        assert_eq!(lateness_ms(99.0, 100.0, 0.0), 0.0);
    }

    fn step(rate: f64, latency: f64, late: f64, failed: u64) -> Step {
        Step {
            rate,
            latencies_ms: vec![latency; 200],
            late_ms: vec![late; 200],
            sent: 200,
            unsent: 0,
            failed,
        }
    }

    #[test]
    fn capacity_is_the_highest_rate_meeting_the_limit() {
        let ladder = [
            step(20.0, 0.4, 0.1, 0),
            step(80.0, 3.0, 0.1, 0),
            step(320.0, 1800.0, 0.1, 0),
            step(1280.0, 1900.0, 0.1, 0),
        ];
        assert_eq!(capacity(&ladder), 80.0);
        // A late generator disqualifies a step however fast the daemon.
        assert_eq!(
            capacity(&[step(20.0, 0.4, 0.1, 0), step(80.0, 0.5, 25.0, 0)]),
            20.0
        );
        // So does a single wrong answer.
        assert_eq!(capacity(&[step(20.0, 0.4, 0.1, 1)]), 0.0);
        // Too few samples for any tail percentile: not proven to meet it.
        let short = Step {
            rate: 20.0,
            latencies_ms: vec![0.1; 5],
            late_ms: vec![0.1; 5],
            ..Step::default()
        };
        assert_eq!(capacity(&[short]), 0.0);
    }

    #[test]
    fn due_counts_include_a_request_due_at_time_zero() {
        assert_eq!(due_before(1000.0, 10.0), 10);
        assert_eq!(due_before(1001.0, 10.0), 11);
        assert_eq!(due_before(0.0, 10.0), 0);
    }
}
