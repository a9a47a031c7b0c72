//! The connection engine: a readiness-driven event loop with a CPU
//! worker pool.
//!
//! One I/O thread multiplexes every connection through a [`Poller`]
//! (raw `epoll` on Linux, `poll(2)` elsewhere): nonblocking accept,
//! per-connection state machines that parse pipelined HTTP/1.1 requests
//! out of a read buffer, and in-order response flushing. Parsed
//! requests are handed to `threads` CPU workers over a bounded queue;
//! workers run [`crate::routes::dispatch`] (operator work, budgets,
//! commits), put the encoded response in the connection's outbox and
//! write whatever is ready at its front to the socket themselves. A
//! worker hands the connection back to the I/O thread — a completion
//! list plus a [`Waker`] — only when that thread has something to do:
//! resume reading a paused or held connection, wait for writability
//! after the socket refused bytes, or close. When the queue is full the
//! I/O thread writes the `503` itself (with `Retry-After`) —
//! backpressure costs one buffered write, never a worker slot, and the
//! connection stays usable.
//!
//! Pipelining: a connection may have up to [`MAX_PIPELINE_DEPTH`]
//! requests in flight. Each parsed request claims the next response
//! slot; responses fill slots out of order but flush strictly in
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
//! Shutdown is cooperative: [`ShutdownHandle::shutdown`] sets a flag,
//! wakes the loop through the waker and wakes idle workers; no thread
//! wakes on a timer to look. A flag set by SIGTERM/SIGINT is seen within
//! the 500 ms reap interval, the longest the loop ever sleeps. On
//! shutdown the loop stops accepting, stops parsing new requests, lets
//! in-flight requests complete and flush, then joins the workers — no
//! request is torn mid-response.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use crate::http::{self, BufferParse, Request};
use crate::metrics;
use crate::poller::{Event, Interest, Poller, Waker};
use crate::routes;
use crate::{ServerConfig, ServiceState};

/// Most requests one connection may have in flight (parsed but not yet
/// flushed). Beyond this the loop stops reading the socket until a
/// response flushes, so a pipelining client cannot force unbounded
/// response buffering.
pub const MAX_PIPELINE_DEPTH: usize = 128;
/// Socket read chunk size.
const READ_CHUNK: usize = 16 * 1024;
/// How often idle keep-alive connections are swept against
/// `keep_alive_timeout_ms`; also the loop's poll timeout, so a
/// signal-set shutdown flag is seen within it.
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
    /// The handoffs a stop must wake — idle workers block on the queue
    /// and the loop on the waker, with no timeout to notice the flag.
    work: Arc<WorkQueue>,
    completions: Arc<Completions>,
}

impl ShutdownHandle {
    /// Ask the server to stop. Idempotent.
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::SeqCst);
        self.work.wake_all();
        self.completions.waker.wake();
    }

    fn is_set(&self) -> bool {
        self.flag.load(Ordering::SeqCst) || SIGNAL_SHUTDOWN.load(Ordering::SeqCst)
    }
}

/// One parsed request on its way to a CPU worker.
struct Job {
    token: usize,
    conn: Arc<ConnIo>,
    slot: u64,
    request: Request,
    close: bool,
}

/// A connection a worker hands back to the I/O thread. The `Arc` is its
/// identity: a hand-back for a token that was closed (and perhaps
/// reused) since is dropped.
struct Completion {
    token: usize,
    conn: Arc<ConnIo>,
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

    /// Block for the next job. `None` means "shutting down and drained".
    fn pop(&self, shutdown: &ShutdownHandle) -> Option<Job> {
        let mut q = self.inner.lock().unwrap();
        loop {
            if let Some(job) = q.pop_front() {
                return Some(job);
            }
            if shutdown.is_set() {
                return None;
            }
            q = self
                .ready
                .wait(q)
                .expect("work queue lock poisoned: a thread panicked holding it");
        }
    }

    /// Wake every idle worker to re-check the shutdown flag. Taking the
    /// lock orders this after any worker's check-then-wait.
    fn wake_all(&self) {
        let _q = self
            .inner
            .lock()
            .expect("work queue lock poisoned: a thread panicked holding it");
        self.ready.notify_all();
    }
}

/// Connections handed back to the I/O thread, plus the waker that tells
/// the poll loop about them.
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

/// The part of a connection the workers share: the socket and its
/// outbox. The outbox mutex is a leaf — its holder takes no other lock
/// (not the work queue, not the completion list, no store lock) — and
/// every write to the socket happens under it, which is what keeps
/// responses in request order.
struct ConnIo {
    stream: TcpStream,
    outbox: Mutex<Outbox>,
}

impl ConnIo {
    fn lock(&self) -> MutexGuard<'_, Outbox> {
        self.outbox
            .lock()
            .expect("outbox lock poisoned: a thread panicked holding it")
    }

    /// A worker's finish: fill `slot`, release its conflict entry, and
    /// flush whatever is ready at the front. Returns whether the I/O
    /// thread must act — resume reading a paused or held connection,
    /// arm writable interest for bytes the socket refused, or close.
    fn complete(&self, slot: u64, bytes: Vec<u8>, close: bool) -> bool {
        let mut ob = self.lock();
        if ob.dead {
            // Closed under the job (or already handed back as broken).
            return false;
        }
        let was_paused = ob.paused();
        let idx = (slot - ob.base_slot) as usize;
        if let Some(entry) = ob.slots.get_mut(idx) {
            *entry = Some(bytes);
        }
        ob.touching.retain(|(s, _)| *s != slot);
        if close {
            // A held request is dropped with the rest of the buffer.
            ob.stop_parsing = true;
            ob.close_after_flush = true;
            ob.held = false;
        }
        ob.flush(&self.stream);
        close
            || (was_paused && !ob.paused())
            || ob.held
            || ob.written < ob.out.len()
            || ob.should_close()
    }
}

/// A connection's response side, shared by the I/O thread and the
/// workers under [`ConnIo::outbox`].
struct Outbox {
    /// Encoded response bytes awaiting the socket; `out[..written]` is
    /// already sent.
    out: Vec<u8>,
    written: usize,
    /// In-flight responses in request order. `None` = still computing;
    /// the front flushes as soon as it is `Some`.
    slots: VecDeque<Option<Vec<u8>>>,
    /// Slot number of `slots[0]`.
    base_slot: u64,
    /// Requests still computing that touch stored state, by slot: a
    /// later request that conflicts with one of them waits in the read
    /// buffer.
    touching: Vec<(u64, routes::Access)>,
    /// A complete request waits in the read buffer for an earlier one
    /// to complete ([`Outbox::must_wait`]); reading pauses until it
    /// dispatches.
    held: bool,
    /// Read side saw EOF (or hangup).
    peer_closed: bool,
    /// No further requests will be parsed (close requested, malformed
    /// input, or server drain).
    stop_parsing: bool,
    /// Close once every slot has flushed.
    close_after_flush: bool,
    /// Unrecoverable socket error, or closed by the I/O thread; close
    /// regardless of pending output and write nothing more.
    dead: bool,
    /// Last time bytes reached the socket.
    last_write: Instant,
}

impl Outbox {
    fn new() -> Outbox {
        Outbox {
            out: Vec::new(),
            written: 0,
            slots: VecDeque::new(),
            base_slot: 0,
            touching: Vec::new(),
            held: false,
            peer_closed: false,
            stop_parsing: false,
            close_after_flush: false,
            dead: false,
            last_write: Instant::now(),
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

    fn wants_read(&self) -> bool {
        !self.stop_parsing && !self.peer_closed && !self.dead && !self.paused() && !self.held
    }

    fn desired_interest(&self) -> Interest {
        Interest {
            readable: self.wants_read(),
            writable: self.written < self.out.len(),
        }
    }

    /// Slot number of the next request parsed.
    fn next_slot(&self) -> u64 {
        self.base_slot + self.slots.len() as u64
    }

    /// Promote every ready front slot into the output buffer and write
    /// it until the socket would block.
    fn flush(&mut self, stream: &TcpStream) {
        while matches!(self.slots.front(), Some(Some(_))) {
            let bytes = self.slots.pop_front().flatten().unwrap();
            self.base_slot += 1;
            self.out.extend_from_slice(&bytes);
        }
        let mut stream = stream;
        while !self.dead && self.written < self.out.len() {
            match stream.write(&self.out[self.written..]) {
                Ok(0) => self.dead = true,
                Ok(n) => {
                    self.written += n;
                    self.last_write = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => self.dead = true,
            }
        }
        if self.written >= self.out.len() {
            self.out.clear();
            self.written = 0;
        }
    }
}

/// The I/O thread's own per-connection state.
struct Conn {
    io: Arc<ConnIo>,
    /// Unparsed request bytes.
    buf: Vec<u8>,
    /// The interest currently registered with the poller (`None` =
    /// deregistered).
    interest: Option<Interest>,
    /// Last time bytes arrived from the peer.
    last_read: Instant,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            io: Arc::new(ConnIo {
                stream,
                outbox: Mutex::new(Outbox::new()),
            }),
            buf: Vec::new(),
            interest: None,
            last_read: Instant::now(),
        }
    }

    /// Answer the buffered bytes with a synchronous error (400, 413) and
    /// close once it flushes.
    fn refuse(&mut self, resp: http::Response) {
        metrics::REQUESTS.incr();
        metrics::record_response(resp.status);
        let bytes = http::encode_response(&resp, true);
        self.buf.clear();
        let mut ob = self.io.lock();
        ob.stop_parsing = true;
        ob.close_after_flush = true;
        ob.slots.push_back(Some(bytes));
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
        let shutdown = ShutdownHandle {
            flag: Arc::new(AtomicBool::new(false)),
            work: Arc::new(WorkQueue::new(state.config.queue_depth.max(1))),
            completions: Arc::new(Completions::new()?),
        };
        Ok(Server {
            listener,
            state,
            shutdown,
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

        // Take the role the ring gives this node: a node listed behind
        // a head demotes and streams that head's WAL. The detector
        // thread probes this node's chain head and promotes through it.
        crate::failover::reconcile_role(&self.state);
        let detector = crate::failover::spawn_detector(Arc::clone(&self.state));

        let workers: Vec<_> = (0..threads)
            .map(|i| {
                let state = Arc::clone(&self.state);
                let shutdown = self.shutdown.clone();
                thread::Builder::new()
                    .name(format!("arbitrex-worker-{i}"))
                    .spawn(move || run_worker(&state, &shutdown))
                    .expect("spawn worker")
            })
            .collect();

        let poller = Poller::new()?;
        poller.add(self.listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
        poller.add(
            self.shutdown.completions.waker.fd(),
            WAKER_TOKEN,
            Interest::READ,
        )?;

        let state = Arc::clone(&self.state);
        let mut event_loop = EventLoop {
            listener: self.listener,
            state: self.state,
            shutdown: self.shutdown.clone(),
            poller,
            conns: Vec::new(),
            free: Vec::new(),
            read_buf: vec![0; READ_CHUNK].into_boxed_slice(),
        };
        let result = event_loop.run();
        // The loop exits only with shutdown set (requested or fatal) and
        // the workers woken, so they drain the queue and stop.
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

/// A CPU worker: run jobs until shutdown drains the queue, flushing each
/// response itself and handing the connection back only when the I/O
/// thread must act on it.
fn run_worker(state: &ServiceState, shutdown: &ShutdownHandle) {
    while let Some(job) = shutdown.work.pop(shutdown) {
        let response = routes::dispatch(state, &job.request);
        let close = job.close || shutdown.is_set() || response.force_close || response.chunk_abort;
        let bytes = http::encode_response(&response, close);
        if job.conn.complete(job.slot, bytes, close) {
            shutdown.completions.push(Completion {
                token: job.token,
                conn: job.conn,
            });
        }
    }
}

/// The I/O thread's entire mutable world.
struct EventLoop {
    listener: TcpListener,
    state: Arc<ServiceState>,
    shutdown: ShutdownHandle,
    poller: Poller,
    /// Token-indexed connection slab.
    conns: Vec<Option<Conn>>,
    /// Recycled tokens.
    free: Vec<usize>,
    /// Socket read buffer, reused across events.
    read_buf: Box<[u8]>,
}

impl EventLoop {
    fn run(&mut self) -> io::Result<()> {
        let mut events: Vec<Event> = Vec::new();
        let mut scratch: Vec<Completion> = Vec::new();
        let mut accepting = true;
        let mut fatal: Option<io::Error> = None;
        let mut last_reap = Instant::now();

        loop {
            if self.shutdown.is_set() {
                if accepting {
                    accepting = false;
                    // A signal sets only the global flag: wake the idle
                    // workers so they see it.
                    self.shutdown.shutdown();
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
                .wait(&mut events, REAP_INTERVAL.as_millis() as i32)
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
                        self.shutdown.completions.waker.drain();
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
                    let mut conn = Conn::new(stream);
                    if self
                        .poller
                        .add(conn.io.stream.as_raw_fd(), token, Interest::READ)
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

    /// The shared half of the connection at `token`, if one is open.
    fn conn_io(&self, token: usize) -> Option<Arc<ConnIo>> {
        self.conns
            .get(token)
            .and_then(Option::as_ref)
            .map(|conn| Arc::clone(&conn.io))
    }

    fn conn_event(&mut self, token: usize, ev: Event) {
        let Some(io) = self.conn_io(token) else {
            return;
        };
        if ev.readable {
            self.read_and_parse(token, &io);
        }
        if ev.hangup {
            let mut ob = io.lock();
            // Reads above drained any final bytes; whatever is left on a
            // hung-up socket is gone. A held connection stopped reading
            // early: it reads on, up to the EOF, once the held request
            // dispatches.
            if !ob.held {
                ob.peer_closed = true;
            }
        }
        self.finalize(token);
    }

    /// Read until the socket would block, a read comes back short (the
    /// poller is level-triggered, so bytes that land later fire again),
    /// or the connection pauses at the pipeline cap; parse requests as
    /// bytes land.
    fn read_and_parse(&mut self, token: usize, io: &ConnIo) {
        loop {
            if !io.lock().wants_read() {
                break;
            }
            let Some(conn) = self.conns.get_mut(token).and_then(|c| c.as_mut()) else {
                return;
            };
            let full = match (&io.stream).read(&mut self.read_buf) {
                Ok(0) => {
                    io.lock().peer_closed = true;
                    break;
                }
                Ok(n) => {
                    conn.buf.extend_from_slice(&self.read_buf[..n]);
                    conn.last_read = Instant::now();
                    n == self.read_buf.len()
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    io.lock().dead = true;
                    break;
                }
            };
            self.parse_buffered(token);
            if !full {
                return;
            }
        }
        self.parse_buffered(token);
    }

    /// Parse as many complete requests as the buffer holds, dispatching
    /// each to the worker queue (or answering synchronously: 400, 413,
    /// and queue-full 503).
    fn parse_buffered(&mut self, token: usize) {
        let max_body = self.state.config.max_body_bytes;
        loop {
            let Some(conn) = self.conns.get_mut(token).and_then(|c| c.as_mut()) else {
                return;
            };
            if conn.buf.is_empty() {
                return;
            }
            {
                let ob = conn.io.lock();
                if ob.dead || ob.stop_parsing || ob.paused() {
                    return;
                }
            }
            match http::parse_request_buffer(&conn.buf, max_body) {
                BufferParse::Incomplete => return,
                BufferParse::Malformed(message) => {
                    conn.refuse(routes::error_response(400, message));
                    return;
                }
                BufferParse::TooLarge { declared, cap } => {
                    // The unread body makes the connection unusable: close.
                    conn.refuse(routes::error_response(
                        413,
                        format!("body of {declared} bytes exceeds the {cap}-byte cap"),
                    ));
                    return;
                }
                BufferParse::Complete { request, consumed } => {
                    let close = request.wants_close();
                    let access = routes::access(&request);
                    let slot = {
                        let mut ob = conn.io.lock();
                        // Left in the buffer, the request parses again
                        // once the request it waits for completes.
                        ob.held = access.as_ref().is_some_and(|a| ob.must_wait(a));
                        if ob.held {
                            return;
                        }
                        if !ob.slots.is_empty() {
                            metrics::EL_PIPELINED.incr();
                        }
                        let slot = ob.next_slot();
                        ob.slots.push_back(None);
                        if ob.paused() {
                            metrics::EL_READ_PAUSES.incr();
                        }
                        if close {
                            ob.stop_parsing = true;
                            ob.close_after_flush = true;
                        }
                        // Registered before the job is queued: a worker
                        // may finish it before `try_push` returns.
                        if let Some(access) = access {
                            ob.touching.push((slot, access));
                        }
                        slot
                    };
                    conn.buf.drain(..consumed);
                    let job = Job {
                        token,
                        conn: Arc::clone(&conn.io),
                        slot,
                        request,
                        close,
                    };
                    if self.shutdown.work.try_push(job) {
                        metrics::QUEUED.incr();
                    } else {
                        metrics::REQUESTS.incr();
                        metrics::REJECTED.incr();
                        let resp =
                            routes::error_response(503, "server overloaded: request queue is full")
                                .with_header("Retry-After", "1");
                        metrics::record_response(resp.status);
                        let bytes = http::encode_response(&resp, close);
                        let mut ob = conn.io.lock();
                        let idx = (slot - ob.base_slot) as usize;
                        ob.slots[idx] = Some(bytes);
                        ob.touching.retain(|(s, _)| *s != slot);
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
        let Some(io) = self.conn_io(token) else {
            return;
        };
        let mut ob = io.lock();
        if (ob.paused() || ob.held) && !ob.dead {
            // A freed slot or a finished conflicting request may unblock
            // buffered pipelined requests (the kernel fires no new
            // readiness for bytes we already hold).
            ob.flush(&io.stream);
            drop(ob);
            self.parse_buffered(token);
            ob = io.lock();
        }
        ob.flush(&io.stream);
        let close = ob.should_close();
        let desired = ob.desired_interest();
        drop(ob);
        if close {
            self.close_conn(token);
            return;
        }
        let Some(conn) = self.conns[token].as_mut() else {
            return;
        };
        let wanted = (desired.readable || desired.writable).then_some(desired);
        if conn.interest == wanted {
            return;
        }
        let fd = io.stream.as_raw_fd();
        let result = match (conn.interest, wanted) {
            (Some(_), Some(interest)) => self.poller.modify(fd, token, interest),
            (None, Some(interest)) => self.poller.add(fd, token, interest),
            // Nothing to wait for (e.g. all slots computing and output
            // drained): leave the poll set entirely so a hung-up fd
            // cannot spin the loop.
            (_, None) => self.poller.remove(fd),
        };
        match result {
            Ok(()) => conn.interest = wanted,
            Err(_) => self.close_conn(token),
        }
    }

    /// Act on the connections workers handed back.
    fn drain_completions(&mut self, scratch: &mut Vec<Completion>) {
        self.shutdown.completions.take(scratch);
        if scratch.is_empty() {
            return;
        }
        let mut touched: Vec<usize> = scratch
            .drain(..)
            .filter(|c| {
                // A closed token, or one reused by a newer connection,
                // has nothing left to do for this hand-back.
                self.conns
                    .get(c.token)
                    .and_then(Option::as_ref)
                    .is_some_and(|conn| Arc::ptr_eq(&conn.io, &c.conn))
            })
            .map(|c| c.token)
            .collect();
        touched.sort_unstable();
        touched.dedup();
        for token in touched {
            // The worker may have lifted a pause or a hold: buffered
            // requests get no new readiness from the kernel.
            self.parse_buffered(token);
            self.finalize(token);
        }
    }

    /// Server drain: stop parsing everywhere, discard unparsed input,
    /// and close every connection with nothing in flight.
    fn begin_drain(&mut self) {
        for token in 0..self.conns.len() {
            if let Some(conn) = self.conns[token].as_mut() {
                conn.buf.clear();
                let mut ob = conn.io.lock();
                ob.stop_parsing = true;
                ob.held = false;
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
            let stale = self.conns[token].as_ref().is_some_and(|conn| {
                conn.buf.is_empty() && conn.last_read.elapsed() >= timeout && {
                    let ob = conn.io.lock();
                    ob.flushed() && ob.last_write.elapsed() >= timeout
                }
            });
            if stale {
                metrics::EL_KEEPALIVE_REAPED.incr();
                self.close_conn(token);
            }
        }
    }

    fn close_conn(&mut self, token: usize) {
        if let Some(conn) = self.conns.get_mut(token).and_then(|c| c.take()) {
            if conn.interest.is_some() {
                let _ = self.poller.remove(conn.io.stream.as_raw_fd());
            }
            // A job still computing holds the stream: it must write
            // nothing more, and the peer must see the close now, not
            // when that job drops the last reference.
            conn.io.lock().dead = true;
            let _ = conn.io.stream.shutdown(Shutdown::Both);
            self.free.push(token);
        }
    }
}
