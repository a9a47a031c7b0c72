//! The connection engine: a readiness-driven event loop with a CPU
//! worker pool.
//!
//! One I/O thread multiplexes every connection through a [`Poller`]
//! (raw `epoll` on Linux, `poll(2)` elsewhere): nonblocking accept,
//! per-connection state machines that parse pipelined HTTP/1.1 requests
//! out of a read buffer, and in-order response flushing. Parsed
//! requests are handed to `threads` CPU workers over a bounded queue;
//! workers run [`crate::routes::dispatch`] (operator work, budgets,
//! commits) and complete responses back to the I/O thread through a
//! completion list plus a [`Waker`]. When the queue is full the I/O
//! thread writes the `503` itself (with `Retry-After`) — backpressure
//! costs one buffered write, never a worker slot, and the connection
//! stays usable.
//!
//! Pipelining: a connection may have up to [`MAX_PIPELINE_DEPTH`]
//! requests in flight. Each parsed request claims the next response
//! slot; completions fill slots out of order but flush strictly in
//! request order, so concurrent workers never reorder a connection's
//! responses. At the cap the loop stops reading that socket — TCP
//! backpressure, not buffering — and resumes when a slot frees.
//! Requests that could observe each other do not run in parallel (RFC
//! 9112 §9.3.2): a request that conflicts with an earlier, still
//! computing one on its connection — a write and another access to the
//! same KB (`routes::access`) — waits in the read buffer, and
//! later requests wait behind it, so one connection's writes to a KB
//! commit in request order and its later reads see them.
//!
//! Shutdown is cooperative: a flag checked by the loop's 25 ms poll
//! timeout and by idle workers. On shutdown the loop stops accepting,
//! stops parsing new requests, lets in-flight requests complete and
//! flush, then joins the workers — no request is torn mid-response.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::http::{self, BufferParse, Request};
use crate::metrics;
use crate::poller::{Event, Interest, Poller, Waker};
use crate::routes;
use crate::{ServerConfig, ServiceState};

/// How often blocked loops wake to check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);
/// Most requests one connection may have in flight (parsed but not yet
/// flushed). Beyond this the loop stops reading the socket until a
/// response flushes, so a pipelining client cannot force unbounded
/// response buffering.
pub const MAX_PIPELINE_DEPTH: usize = 128;
/// Socket read chunk size.
const READ_CHUNK: usize = 16 * 1024;
/// How often idle keep-alive connections are swept against
/// `keep_alive_timeout_ms`.
const REAP_INTERVAL: Duration = Duration::from_millis(500);

/// Token of the listening socket in the poll set.
const LISTENER_TOKEN: usize = usize::MAX;
/// Token of the completion waker in the poll set.
const WAKER_TOKEN: usize = usize::MAX - 1;

/// Process-global flag set by the installed signal handler. Checked by
/// every running server in the process alongside its own handle.
static SIGNAL_SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Install SIGTERM/SIGINT handlers that request clean shutdown of every
/// server in the process. Uses the raw `signal(2)` binding — the handler
/// only stores to an atomic, which is async-signal-safe.
#[cfg(unix)]
pub fn install_signal_shutdown() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_signal(_signum: i32) {
        SIGNAL_SHUTDOWN.store(true, Ordering::SeqCst);
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_signal as *const () as usize);
        signal(SIGINT, on_signal as *const () as usize);
    }
}

/// No-op off Unix; only the in-process [`ShutdownHandle`] stops the server.
#[cfg(not(unix))]
pub fn install_signal_shutdown() {}

/// Requests a running server stop accepting and drain. Cloneable and
/// usable from any thread.
#[derive(Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
}

impl ShutdownHandle {
    /// Ask the server to stop. Idempotent.
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    fn is_set(&self) -> bool {
        self.flag.load(Ordering::SeqCst) || SIGNAL_SHUTDOWN.load(Ordering::SeqCst)
    }
}

/// One parsed request on its way to a CPU worker.
struct Job {
    token: usize,
    generation: u64,
    slot: u64,
    request: Request,
    close: bool,
}

/// A finished response on its way back to the I/O thread.
struct Completion {
    token: usize,
    generation: u64,
    slot: u64,
    bytes: Vec<u8>,
    /// The response demands the connection close after this flush
    /// (handler-forced close or an aborted chunked stream).
    close: bool,
}

/// The bounded handoff between the I/O thread and the CPU workers.
struct WorkQueue {
    inner: Mutex<VecDeque<Job>>,
    ready: Condvar,
    depth: usize,
}

impl WorkQueue {
    fn new(depth: usize) -> WorkQueue {
        WorkQueue {
            inner: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            depth,
        }
    }

    /// Enqueue unless full; `false` means the queue was full and the
    /// job was dropped, so the caller must refuse the request.
    fn try_push(&self, job: Job) -> bool {
        let mut q = self.inner.lock().unwrap();
        if q.len() >= self.depth {
            return false;
        }
        q.push_back(job);
        drop(q);
        self.ready.notify_one();
        true
    }

    /// Block for the next job, waking periodically to observe shutdown.
    /// `None` means "shutting down and drained".
    fn pop(&self, shutdown: &ShutdownHandle) -> Option<Job> {
        let mut q = self.inner.lock().unwrap();
        loop {
            if let Some(job) = q.pop_front() {
                return Some(job);
            }
            if shutdown.is_set() {
                return None;
            }
            let (guard, _timeout) = self.ready.wait_timeout(q, POLL_INTERVAL).unwrap();
            q = guard;
        }
    }
}

/// Finished responses plus the waker that tells the poll loop about
/// them.
struct Completions {
    inner: Mutex<Vec<Completion>>,
    waker: Waker,
}

impl Completions {
    fn new() -> io::Result<Completions> {
        Ok(Completions {
            inner: Mutex::new(Vec::new()),
            waker: Waker::new()?,
        })
    }

    fn push(&self, completion: Completion) {
        self.inner.lock().unwrap().push(completion);
        self.waker.wake();
    }

    fn take(&self, into: &mut Vec<Completion>) {
        std::mem::swap(&mut *self.inner.lock().unwrap(), into);
    }
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    /// Guards completions against token reuse: a completion whose
    /// generation does not match the current occupant is dropped.
    generation: u64,
    /// Unparsed request bytes.
    buf: Vec<u8>,
    /// Encoded response bytes awaiting the socket; `out[..written]` is
    /// already sent.
    out: Vec<u8>,
    written: usize,
    /// In-flight responses in request order. `None` = still computing;
    /// the front flushes as soon as it is `Some`.
    slots: VecDeque<Option<Vec<u8>>>,
    /// Slot number of `slots[0]`.
    base_slot: u64,
    /// Next slot number to assign.
    next_slot: u64,
    /// The interest currently registered with the poller (`None` =
    /// deregistered).
    interest: Option<Interest>,
    last_activity: Instant,
    /// Read side saw EOF (or hangup).
    peer_closed: bool,
    /// No further requests will be parsed (close requested, malformed
    /// input, or server drain).
    stop_parsing: bool,
    /// Close once every slot has flushed.
    close_after_flush: bool,
    /// Requests still computing that touch stored state, by slot: a
    /// later request that conflicts with one of them waits in `buf`.
    touching: Vec<(u64, routes::Access)>,
    /// A complete request waits in `buf` for an earlier one to complete
    /// ([`Conn::must_wait`]); reading pauses until it dispatches.
    held: bool,
    /// Unrecoverable socket error; close regardless of pending output.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream, generation: u64) -> Conn {
        Conn {
            stream,
            generation,
            buf: Vec::new(),
            out: Vec::new(),
            written: 0,
            slots: VecDeque::new(),
            base_slot: 0,
            next_slot: 0,
            interest: None,
            last_activity: Instant::now(),
            peer_closed: false,
            stop_parsing: false,
            close_after_flush: false,
            touching: Vec::new(),
            held: false,
            dead: false,
        }
    }

    /// Must the next buffered request, touching `access`, wait for an
    /// earlier one that conflicts with it?
    fn must_wait(&self, access: &routes::Access) -> bool {
        self.touching.iter().any(|(_, a)| a.conflicts(access))
    }

    /// At the pipeline cap: stop reading until a slot frees.
    fn paused(&self) -> bool {
        self.slots.len() >= MAX_PIPELINE_DEPTH
    }

    fn flushed(&self) -> bool {
        self.slots.is_empty() && self.written >= self.out.len()
    }

    fn should_close(&self) -> bool {
        self.dead
            || (self.flushed()
                && !self.held
                && (self.close_after_flush || self.peer_closed || self.stop_parsing))
    }

    fn desired_interest(&self) -> Interest {
        Interest {
            readable: !self.stop_parsing
                && !self.peer_closed
                && !self.dead
                && !self.paused()
                && !self.held,
            writable: self.written < self.out.len(),
        }
    }

    /// Record a synchronous (I/O-thread-produced) response in the next
    /// slot: queue-full 503s, malformed 400s, oversized 413s.
    fn push_ready_slot(&mut self, bytes: Vec<u8>) {
        self.next_slot += 1;
        self.slots.push_back(Some(bytes));
    }

    /// Move leading completed slots into the output buffer.
    fn promote_ready_slots(&mut self) {
        while matches!(self.slots.front(), Some(Some(_))) {
            let bytes = self.slots.pop_front().flatten().unwrap();
            self.base_slot += 1;
            self.out.extend_from_slice(&bytes);
        }
    }

    /// Write buffered output until the socket would block.
    fn write_out(&mut self) {
        while self.written < self.out.len() {
            match self.stream.write(&self.out[self.written..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => {
                    self.written += n;
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        self.out.clear();
        self.written = 0;
    }
}

/// A bound-but-not-yet-running server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServiceState>,
    shutdown: ShutdownHandle,
}

impl Server {
    /// Bind `config.addr` (port 0 picks a free port) and build the shared
    /// state, the KB store above all — running crash recovery first when a
    /// state directory is configured. A
    /// recovery refusal (mid-log corruption in strict mode) fails the
    /// bind: the server never serves a state it cannot prove complete.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let state = ServiceState::new(config)?;
        let listener = TcpListener::bind(&state.config.addr)?;
        listener.set_nonblocking(true)?;
        // A node advertising `auto` learns its ring identity from the
        // bound address (resolving port 0), before any request can ask
        // for a placement.
        state
            .shards
            .resolve_self(&listener.local_addr()?.to_string());
        let state = Arc::new(state);
        state.failover.attach(&state);
        Ok(Server {
            listener,
            state,
            shutdown: ShutdownHandle {
                flag: Arc::new(AtomicBool::new(false)),
            },
        })
    }

    /// The actually bound address (resolves port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that stops this server from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.shutdown.clone()
    }

    /// The shared service state (config, KB store, recovery report).
    pub fn state(&self) -> Arc<ServiceState> {
        Arc::clone(&self.state)
    }

    /// Run until shutdown: spawns the CPU workers, runs the event loop,
    /// then drains and joins the workers.
    pub fn run(self) -> io::Result<()> {
        let threads = self.state.config.threads.max(1);
        let work = Arc::new(WorkQueue::new(self.state.config.queue_depth.max(1)));
        let completions = Arc::new(Completions::new()?);

        // Take the role the ring gives this node: a node listed behind
        // a head demotes and streams that head's WAL. The detector
        // thread probes this node's chain head and promotes through it.
        crate::failover::reconcile_role(&self.state);
        let detector = crate::failover::spawn_detector(Arc::clone(&self.state));

        let workers: Vec<_> = (0..threads)
            .map(|i| {
                let work = Arc::clone(&work);
                let completions = Arc::clone(&completions);
                let state = Arc::clone(&self.state);
                let shutdown = self.shutdown.clone();
                thread::Builder::new()
                    .name(format!("arbitrex-worker-{i}"))
                    .spawn(move || {
                        while let Some(job) = work.pop(&shutdown) {
                            let response = routes::dispatch(&state, &job.request);
                            let close = job.close
                                || shutdown.is_set()
                                || response.force_close
                                || response.chunk_abort;
                            completions.push(Completion {
                                token: job.token,
                                generation: job.generation,
                                slot: job.slot,
                                bytes: http::encode_response(&response, close),
                                close,
                            });
                        }
                    })
                    .expect("spawn worker")
            })
            .collect();

        let poller = Poller::new()?;
        poller.add(self.listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
        poller.add(completions.waker.fd(), WAKER_TOKEN, Interest::READ)?;

        let state = Arc::clone(&self.state);
        let mut event_loop = EventLoop {
            listener: self.listener,
            state: self.state,
            shutdown: self.shutdown.clone(),
            poller,
            work,
            completions,
            conns: Vec::new(),
            free: Vec::new(),
            next_generation: 0,
        };
        let result = event_loop.run();
        // The loop exits only with shutdown set (requested or fatal), so
        // the workers drain the queue and stop.
        for worker in workers {
            let _ = worker.join();
        }
        state.failover.request_stop();
        if let Some(handle) = detector {
            let _ = handle.join();
        }
        crate::failover::join_puller(&state);
        // Drain complete: no worker can commit anymore. Fold the WAL
        // into a final snapshot so the next startup replays nothing.
        // Best-effort — every commit is already durable in the log.
        state.kbs.snapshot_now();
        result
    }
}

/// The I/O thread's entire mutable world.
struct EventLoop {
    listener: TcpListener,
    state: Arc<ServiceState>,
    shutdown: ShutdownHandle,
    poller: Poller,
    work: Arc<WorkQueue>,
    completions: Arc<Completions>,
    /// Token-indexed connection slab.
    conns: Vec<Option<Conn>>,
    /// Recycled tokens.
    free: Vec<usize>,
    next_generation: u64,
}

impl EventLoop {
    fn run(&mut self) -> io::Result<()> {
        let mut events: Vec<Event> = Vec::with_capacity(1024);
        let mut scratch: Vec<Completion> = Vec::new();
        let mut accepting = true;
        let mut fatal: Option<io::Error> = None;
        let mut last_reap = Instant::now();

        loop {
            if self.shutdown.is_set() {
                if accepting {
                    accepting = false;
                    let _ = self.poller.remove(self.listener.as_raw_fd());
                    self.begin_drain();
                }
                if self.conns.iter().all(|c| c.is_none()) {
                    break;
                }
            }

            events.clear();
            if let Err(e) = self
                .poller
                .wait(&mut events, POLL_INTERVAL.as_millis() as i32)
            {
                // The poll set itself is broken: no drain is possible.
                fatal = Some(e);
                self.shutdown.shutdown();
                break;
            }
            for &ev in &events {
                match ev.token {
                    LISTENER_TOKEN => {
                        if accepting {
                            if let Err(e) = self.accept_all() {
                                // Unexpected accept failure: stop cleanly
                                // rather than spin; in-flight work drains.
                                fatal = Some(e);
                                self.shutdown.shutdown();
                            }
                        }
                    }
                    WAKER_TOKEN => {
                        metrics::EL_WAKEUPS.incr();
                        self.completions.waker.drain();
                    }
                    token => {
                        metrics::EL_READY_EVENTS.incr();
                        self.conn_event(token, ev);
                    }
                }
            }
            self.drain_completions(&mut scratch);
            if last_reap.elapsed() >= REAP_INTERVAL {
                last_reap = Instant::now();
                self.reap_idle();
            }
        }

        for token in 0..self.conns.len() {
            self.close_conn(token);
        }
        match fatal {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Accept until the listener would block.
    fn accept_all(&mut self) -> io::Result<()> {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    metrics::ACCEPTED.incr();
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = match self.free.pop() {
                        Some(t) => t,
                        None => {
                            self.conns.push(None);
                            self.conns.len() - 1
                        }
                    };
                    self.next_generation += 1;
                    let mut conn = Conn::new(stream, self.next_generation);
                    if self
                        .poller
                        .add(conn.stream.as_raw_fd(), token, Interest::READ)
                        .is_ok()
                    {
                        conn.interest = Some(Interest::READ);
                        self.conns[token] = Some(conn);
                    } else {
                        // Registration failed; the connection is dropped
                        // (closed) and the token recycled.
                        self.free.push(token);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn conn_event(&mut self, token: usize, ev: Event) {
        if self.conns.get(token).is_none_or(|c| c.is_none()) {
            return;
        }
        if ev.readable {
            self.read_and_parse(token);
        }
        if ev.hangup {
            if let Some(conn) = self.conns[token].as_mut() {
                // Reads above drained any final bytes; whatever is left
                // on a hung-up socket is gone. A held connection stopped
                // reading early: it reads on, up to the EOF, once the
                // held request dispatches.
                if !conn.held {
                    conn.peer_closed = true;
                }
            }
        }
        self.finalize(token);
    }

    /// Read until the socket would block (or the connection pauses at
    /// the pipeline cap), parsing requests as bytes land.
    fn read_and_parse(&mut self, token: usize) {
        let mut scratch = [0u8; READ_CHUNK];
        loop {
            let Some(conn) = self.conns.get_mut(token).and_then(|c| c.as_mut()) else {
                return;
            };
            if conn.dead || conn.peer_closed || conn.stop_parsing || conn.paused() || conn.held {
                break;
            }
            match conn.stream.read(&mut scratch) {
                Ok(0) => {
                    conn.peer_closed = true;
                    break;
                }
                Ok(n) => {
                    conn.buf.extend_from_slice(&scratch[..n]);
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
            self.parse_buffered(token);
        }
        self.parse_buffered(token);
    }

    /// Parse as many complete requests as the buffer holds, dispatching
    /// each to the worker queue (or answering synchronously: 400, 413,
    /// and queue-full 503).
    fn parse_buffered(&mut self, token: usize) {
        let max_body = self.state.config.max_body_bytes;
        loop {
            let parsed = {
                let Some(conn) = self.conns.get_mut(token).and_then(|c| c.as_mut()) else {
                    return;
                };
                if conn.dead || conn.stop_parsing || conn.paused() || conn.buf.is_empty() {
                    return;
                }
                http::parse_request_buffer(&conn.buf, max_body)
            };
            match parsed {
                BufferParse::Incomplete => return,
                BufferParse::Malformed(message) => {
                    metrics::REQUESTS.incr();
                    let resp = routes::error_response(400, message);
                    metrics::record_response(resp.status);
                    let bytes = http::encode_response(&resp, true);
                    let conn = self.conns[token].as_mut().unwrap();
                    conn.buf.clear();
                    conn.stop_parsing = true;
                    conn.close_after_flush = true;
                    conn.push_ready_slot(bytes);
                    return;
                }
                BufferParse::TooLarge { declared, cap } => {
                    metrics::REQUESTS.incr();
                    let resp = routes::error_response(
                        413,
                        format!("body of {declared} bytes exceeds the {cap}-byte cap"),
                    );
                    metrics::record_response(resp.status);
                    // The unread body makes the connection unusable: close.
                    let bytes = http::encode_response(&resp, true);
                    let conn = self.conns[token].as_mut().unwrap();
                    conn.buf.clear();
                    conn.stop_parsing = true;
                    conn.close_after_flush = true;
                    conn.push_ready_slot(bytes);
                    return;
                }
                BufferParse::Complete { request, consumed } => {
                    let close = request.wants_close();
                    let access = routes::access(&request);
                    let (generation, slot) = {
                        let conn = self.conns[token].as_mut().unwrap();
                        // Left in the buffer, the request parses again
                        // once the completion it waits for arrives.
                        conn.held = access.as_ref().is_some_and(|a| conn.must_wait(a));
                        if conn.held {
                            return;
                        }
                        conn.buf.drain(..consumed);
                        if !conn.slots.is_empty() {
                            metrics::EL_PIPELINED.incr();
                        }
                        let slot = conn.next_slot;
                        conn.next_slot += 1;
                        conn.slots.push_back(None);
                        if conn.paused() {
                            metrics::EL_READ_PAUSES.incr();
                        }
                        if close {
                            conn.stop_parsing = true;
                            conn.close_after_flush = true;
                        }
                        (conn.generation, slot)
                    };
                    let job = Job {
                        token,
                        generation,
                        slot,
                        request,
                        close,
                    };
                    if self.work.try_push(job) {
                        metrics::QUEUED.incr();
                        if let Some(access) = access {
                            let conn = self.conns[token].as_mut().unwrap();
                            conn.touching.push((slot, access));
                        }
                    } else {
                        metrics::REQUESTS.incr();
                        metrics::REJECTED.incr();
                        let resp =
                            routes::error_response(503, "server overloaded: request queue is full")
                                .with_header("Retry-After", "1");
                        metrics::record_response(resp.status);
                        let bytes = http::encode_response(&resp, close);
                        let conn = self.conns[token].as_mut().unwrap();
                        let idx = (slot - conn.base_slot) as usize;
                        conn.slots[idx] = Some(bytes);
                    }
                    if close {
                        return;
                    }
                }
            }
        }
    }

    /// Flush what is flushable, resume parsing if a pause or a hold
    /// lifted, sync poller interest with the connection's needs, and
    /// close if done.
    fn finalize(&mut self, token: usize) {
        let was_blocked = {
            let Some(conn) = self.conns.get_mut(token).and_then(|c| c.as_mut()) else {
                return;
            };
            let was_blocked = conn.paused() || conn.held;
            conn.promote_ready_slots();
            conn.write_out();
            if conn.should_close() {
                self.close_conn(token);
                return;
            }
            was_blocked
        };
        // A freed slot or a completed one may unblock buffered pipelined
        // requests (the kernel fires no new readiness for bytes we
        // already hold).
        if was_blocked {
            self.parse_buffered(token);
        }
        let Some(conn) = self.conns.get_mut(token).and_then(|c| c.as_mut()) else {
            return;
        };
        // Synchronous responses out of the resumed parse flush now too.
        conn.promote_ready_slots();
        conn.write_out();
        if conn.should_close() {
            self.close_conn(token);
            return;
        }
        let desired = conn.desired_interest();
        if conn.interest != (desired.readable || desired.writable).then_some(desired) {
            let fd = conn.stream.as_raw_fd();
            let result = if desired.readable || desired.writable {
                if conn.interest.is_some() {
                    self.poller.modify(fd, token, desired)
                } else {
                    self.poller.add(fd, token, desired)
                }
            } else {
                // Nothing to wait for (e.g. all slots computing and
                // output drained): leave the poll set entirely so a
                // hung-up fd cannot spin the loop.
                conn.interest = None;
                self.poller.remove(fd)
            };
            match result {
                Ok(()) => {
                    if desired.readable || desired.writable {
                        conn.interest = Some(desired);
                    }
                }
                Err(_) => {
                    self.close_conn(token);
                }
            }
        }
    }

    /// Deliver finished responses to their connections and flush.
    fn drain_completions(&mut self, scratch: &mut Vec<Completion>) {
        self.completions.take(scratch);
        if scratch.is_empty() {
            return;
        }
        let mut touched: Vec<usize> = Vec::with_capacity(scratch.len());
        for completion in scratch.drain(..) {
            let Some(conn) = self
                .conns
                .get_mut(completion.token)
                .and_then(|c| c.as_mut())
            else {
                continue;
            };
            if conn.generation != completion.generation {
                continue; // token was recycled; the response has no home
            }
            let idx = (completion.slot - conn.base_slot) as usize;
            if let Some(slot) = conn.slots.get_mut(idx) {
                *slot = Some(completion.bytes);
            }
            conn.touching.retain(|(slot, _)| *slot != completion.slot);
            if completion.close {
                // A held request is dropped with the rest of the buffer.
                conn.stop_parsing = true;
                conn.close_after_flush = true;
                conn.held = false;
            }
            conn.last_activity = Instant::now();
            touched.push(completion.token);
        }
        touched.sort_unstable();
        touched.dedup();
        for token in touched {
            self.finalize(token);
        }
    }

    /// Server drain: stop parsing everywhere, discard unparsed input,
    /// and close every connection with nothing in flight.
    fn begin_drain(&mut self) {
        for token in 0..self.conns.len() {
            if let Some(conn) = self.conns[token].as_mut() {
                conn.stop_parsing = true;
                conn.buf.clear();
                conn.held = false;
            } else {
                continue;
            }
            self.finalize(token);
        }
    }

    /// Close idle keep-alive connections past the configured timeout.
    fn reap_idle(&mut self) {
        let timeout_ms = self.state.config.keep_alive_timeout_ms;
        if timeout_ms == 0 {
            return;
        }
        let timeout = Duration::from_millis(timeout_ms);
        for token in 0..self.conns.len() {
            let stale = match self.conns[token].as_ref() {
                Some(conn) => {
                    conn.flushed() && conn.buf.is_empty() && conn.last_activity.elapsed() >= timeout
                }
                None => false,
            };
            if stale {
                metrics::EL_KEEPALIVE_REAPED.incr();
                self.close_conn(token);
            }
        }
    }

    fn close_conn(&mut self, token: usize) {
        if let Some(conn) = self.conns.get_mut(token).and_then(|c| c.take()) {
            if conn.interest.is_some() {
                let _ = self.poller.remove(conn.stream.as_raw_fd());
            }
            self.free.push(token);
            // conn drops here, closing the socket.
        }
    }
}
