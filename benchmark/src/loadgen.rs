//! The open-loop load generator: two threads, one keep-alive pipelined
//! connection each, sending every request at its scheduled due time
//! whether or not earlier responses have arrived.
//!
//! Latency is charged from the due time, not from the send, so a stall
//! counts against every request it delays (no coordinated omission); the
//! generator's own lateness is recorded per request as `sent - due`.
//!
//! The server stops reading a connection that has
//! [`MAX_PIPELINE_DEPTH`] requests in flight, so a request due beyond that
//! would wait in a socket buffer; the generator keeps it in its own send
//! queue instead and still charges it from its due time. It stays one
//! below the cap: the server closes a paused connection when a response
//! other than the oldest completes while no output is pending.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

use arbitrex_server::server::MAX_PIPELINE_DEPTH;

/// Generator threads, and so connections.
pub const CONNECTIONS: usize = 2;
/// Most requests in flight on one connection.
pub const MAX_IN_FLIGHT: usize = MAX_PIPELINE_DEPTH - 1;

/// What happened to one scheduled request.
#[derive(Debug)]
pub struct Outcome {
    /// HTTP status, or 0 when no response arrived (connection error, or
    /// still unanswered when the drain ended).
    pub status: u16,
    /// When the request was due, from the phase start.
    pub due: Duration,
    /// When it was written to the connection's send buffer.
    pub sent: Option<Duration>,
    /// When its response was read.
    pub done: Option<Duration>,
    /// The response body, when the phase asked to keep it.
    pub body: Vec<u8>,
}

impl Outcome {
    /// A 2xx response arrived.
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// Due-to-response time, for answered requests.
    pub fn latency(&self) -> Option<Duration> {
        self.done.map(|d| d.saturating_sub(self.due))
    }
}

/// One phase of traffic.
pub struct Phase<'a> {
    /// Due times, ascending.
    pub due: &'a [Duration],
    /// Wire bytes of each request.
    pub wires: &'a [Vec<u8>],
    /// Which responses to keep the body of.
    pub keep_body: &'a [bool],
    /// How long after the last due time to wait for outstanding responses.
    pub drain: Duration,
}

/// Run `phase` against `addr` and return one outcome per request, in
/// schedule order. Request `i` goes on connection `i % CONNECTIONS`.
/// `tick` is called from the calling thread once per whole second of the
/// phase (for counter scrapes) while the generator threads run.
pub fn run_phase(
    addr: SocketAddr,
    phase: &Phase,
    mut tick: impl FnMut(u64),
) -> io::Result<Vec<Outcome>> {
    let conns = (0..CONNECTIONS)
        .map(|_| {
            let conn = TcpStream::connect(addr)?;
            conn.set_nodelay(true)?;
            conn.set_nonblocking(true)?;
            Ok(conn)
        })
        .collect::<io::Result<Vec<_>>>()?;
    let start = Instant::now();
    let mut outcomes: Vec<Outcome> = phase
        .due
        .iter()
        .map(|&due| Outcome {
            status: 0,
            due,
            sent: None,
            done: None,
            body: Vec::new(),
        })
        .collect();
    std::thread::scope(|scope| {
        let (done_tx, done_rx) = mpsc::channel();
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(k, conn)| {
                let done = done_tx.clone();
                scope.spawn(move || {
                    let mine = drive(conn, k, phase, start);
                    let _ = done.send(());
                    mine
                })
            })
            .collect();
        let (mut finished, mut second) = (0, 1);
        while finished < CONNECTIONS {
            let tick_at = start + Duration::from_secs(second);
            match done_rx.recv_timeout(tick_at.saturating_duration_since(Instant::now())) {
                Ok(()) => finished += 1,
                Err(RecvTimeoutError::Timeout) => {
                    tick(second);
                    second += 1;
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        for (k, handle) in handles.into_iter().enumerate() {
            let mine = handle.join().expect("generator thread panicked");
            for (j, outcome) in mine.into_iter().enumerate() {
                outcomes[k + j * CONNECTIONS] = outcome;
            }
        }
    });
    Ok(outcomes)
}

/// One generator thread: requests `k, k + CONNECTIONS, …` of the phase on
/// `conn`. Responses arrive in request order, so the in-flight requests
/// are always `head..next`.
fn drive(mut conn: TcpStream, k: usize, phase: &Phase, start: Instant) -> Vec<Outcome> {
    set_timer_slack();
    let mine: Vec<usize> = (k..phase.due.len()).step_by(CONNECTIONS).collect();
    let n = mine.len();
    let mut out: Vec<Outcome> = mine
        .iter()
        .map(|&i| Outcome {
            status: 0,
            due: phase.due[i],
            sent: None,
            done: None,
            body: Vec::new(),
        })
        .collect();
    let deadline = phase.due.last().copied().unwrap_or_default() + phase.drain;
    let (mut next, mut head) = (0usize, 0usize);
    let mut send_buf: Vec<u8> = Vec::new();
    let mut send_pos = 0usize;
    let mut recv_buf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    loop {
        let now = start.elapsed();
        while next < n && out[next].due <= now && next - head < MAX_IN_FLIGHT {
            send_buf.extend_from_slice(&phase.wires[mine[next]]);
            out[next].sent = Some(now);
            next += 1;
        }
        let mut broken = false;
        if send_pos < send_buf.len() {
            match conn.write(&send_buf[send_pos..]) {
                Ok(written) => send_pos += written,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => broken = true,
            }
            if send_pos == send_buf.len() {
                send_buf.clear();
                send_pos = 0;
            }
        }
        loop {
            match conn.read(&mut chunk) {
                Ok(0) => {
                    broken = true;
                    break;
                }
                Ok(got) => recv_buf.extend_from_slice(&chunk[..got]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    broken = true;
                    break;
                }
            }
        }
        let now = start.elapsed();
        let mut consumed = 0;
        while let Some(resp) = parse_response(&recv_buf[consumed..]) {
            let resp = match resp {
                Ok(resp) => resp,
                Err(_) => {
                    broken = true;
                    break;
                }
            };
            if head >= next {
                broken = true;
                break;
            }
            let o = &mut out[head];
            o.status = resp.status;
            o.done = Some(now);
            if phase.keep_body[mine[head]] {
                o.body = recv_buf[consumed + resp.body.start..consumed + resp.body.end].to_vec();
            }
            head += 1;
            consumed += resp.consumed;
        }
        recv_buf.drain(..consumed);
        let sending = next < n;
        if broken || (head == next && !sending) || now >= deadline {
            break;
        }
        let wait = if sending && next - head < MAX_IN_FLIGHT {
            out[next].due.saturating_sub(now)
        } else {
            deadline.saturating_sub(now).min(Duration::from_millis(50))
        };
        if !wait.is_zero() {
            wait_ready(&conn, send_pos < send_buf.len(), wait);
        }
    }
    out
}

/// A parsed response at the front of a buffer.
#[derive(Debug)]
pub struct Parsed {
    /// The status code.
    pub status: u16,
    /// Where the body lies in the buffer.
    pub body: std::ops::Range<usize>,
    /// Bytes the whole response occupies.
    pub consumed: usize,
}

/// Parse one `Content-Length`-framed HTTP/1.1 response from the front of
/// `buf`: `None` when more bytes are needed.
pub fn parse_response(buf: &[u8]) -> Option<Result<Parsed, String>> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = match std::str::from_utf8(&buf[..head_end]) {
        Ok(head) => head,
        Err(_) => return Some(Err("non-UTF-8 response head".to_string())),
    };
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|line| line.split(' ').nth(1))
        .and_then(|code| code.parse::<u16>().ok());
    let Some(status) = status else {
        return Some(Err(format!("bad status line in `{head}`")));
    };
    let length = lines
        .filter_map(|line| line.split_once(':'))
        .find(|(name, _)| name.trim().eq_ignore_ascii_case("content-length"))
        .map(|(_, value)| value.trim().parse::<usize>());
    let length = match length {
        Some(Ok(length)) => length,
        _ => return Some(Err("response without a valid Content-Length".to_string())),
    };
    if buf.len() < head_end + length {
        return None;
    }
    Some(Ok(Parsed {
        status,
        body: head_end..head_end + length,
        consumed: head_end + length,
    }))
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;
const PR_SET_TIMERSLACK: i32 = 29;

/// Block until `conn` is readable (or writable, when output is pending)
/// or `timeout` passes. `ppoll` takes a nanosecond timeout; `epoll_wait`
/// and socket timeouts round to milliseconds or jiffies, which would add
/// up to a millisecond of generator lag to every send.
fn wait_ready(conn: &TcpStream, want_write: bool, timeout: Duration) {
    let mut fd = PollFd {
        fd: conn.as_raw_fd(),
        events: if want_write { POLLIN | POLLOUT } else { POLLIN },
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: timeout.subsec_nanos() as i64,
    };
    // SAFETY: `fd` and `ts` are live, properly initialised `#[repr(C)]`
    // values matching `struct pollfd` and `struct timespec` on 64-bit
    // Linux; `nfds` is 1 for the single entry, and a null signal mask
    // leaves the mask unchanged. An error (EINTR) only ends the wait early.
    unsafe {
        ppoll(&mut fd, 1, &ts, std::ptr::null());
    }
}

/// Let this thread's timed waits wake within a microsecond instead of the
/// default 50 µs slack.
fn set_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned-long argument (the slack
    // in nanoseconds) and only changes this thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_framed_responses_and_waits_for_partial_ones() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}HTTP/1.1 503 Service Unavailable\r\ncontent-length: 0\r\n\r\n";
        let first = parse_response(wire).unwrap().unwrap();
        assert_eq!(first.status, 200);
        assert_eq!(&wire[first.body.clone()], b"{}");
        let second = parse_response(&wire[first.consumed..]).unwrap().unwrap();
        assert_eq!(second.status, 503);
        assert_eq!(first.consumed + second.consumed, wire.len());
        assert!(parse_response(&wire[..first.consumed - 1]).is_none());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\n\r\n").unwrap().is_err());
    }
}
