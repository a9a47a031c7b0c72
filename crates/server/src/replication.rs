//! Primary/replica replication over the WAL, with failover and
//! arbitration-based anti-entropy.
//!
//! The primary retains recent stamped WAL frames in a [`ReplLog`] ring;
//! a replica streams them over the same zero-dependency HTTP/1.1 stack
//! (`GET /v1/replication/wal?from_seq=N`, chunked, one frame per chunk)
//! and applies them through [`crate::kb::KbStore::apply_replicated`],
//! which lands the primary's bytes verbatim so the two logs are
//! byte-identical over the shared history. A replica that falls behind
//! the ring's retention — or that observes a higher fencing epoch on the
//! primary (a promotion happened while it was away) — resyncs by
//! installing the primary's snapshot image and resumes streaming from
//! its watermark.
//!
//! Which node pulls from which is the ring's business, not this
//! module's: a node becomes a replica only by being listed behind a
//! chain head, and a promotion is always a chain rotation
//! ([`crate::failover`]). Promotion bumps the store's epoch, clears
//! read-only, and stops its puller. Frames from the deposed epoch are
//! fenced at every layer: the apply path rejects them, the WAL scan
//! refuses a stamp regression, and the puller disconnects from any peer
//! reporting a lower epoch than its own.
//!
//! Divergence after a partition (two primaries acked disjoint commits)
//! is not resolved by last-writer-wins: `POST /v1/replication/reconcile`
//! fetches the peer's KB listing (`GET /v1/kbs`: name, seq, canonical
//! content hash) and merges each divergent theory with the paper's
//! arbitration operator `Δ` — the fair merge of two equally trusted
//! sources, which does not depend on which side is which, so both nodes
//! compute the identical result. See DESIGN.md §12.
//!
//! # Network fault injection
//!
//! The primary's replication transport charges the `net_*` sites of the
//! server's [`arbitrex_core::Faults`] trigger: `net_drop` (connection
//! cut mid-stream before the k-th frame), `net_torn` (k-th frame
//! corrupted in transit), `net_dup` (k-th frame delivered twice),
//! `net_delay` (k-th batch request delayed by [`NET_DELAY`]),
//! `net_partition` (the k-th and the next
//! [`arbitrex_telemetry::budget::PARTITION_REFUSALS`]−1 requests refused,
//! then healed). Network faults fire once — unlike the sticky durability
//! sites — because a network fault heals; the replica's
//! reconnect/backoff/CRC machinery is what is under test.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use arbitrex_core::{try_arbitrate_with_budget, Budget, Quality};
use arbitrex_logic::{parse as parse_formula, rename_formula, Formula, ModelSet, Sig, ENUM_LIMIT};

use crate::json::{self, Json};
use crate::kb::{ApplyOutcome, StoredKb};
use crate::metrics;
use crate::snapshot;
use crate::wal;
use crate::ServiceState;

/// Stamped WAL frames the primary retains for streaming; a replica whose
/// cursor is older than the oldest retained frame must resync from a
/// snapshot instead.
pub const RETAIN_FRAMES: usize = 8192;
/// Most frames served in one batch response.
pub const MAX_BATCH_FRAMES: usize = 512;
/// How long a batch request with nothing to ship long-polls before
/// returning an empty batch (the replica re-requests immediately, so
/// this is the idle polling cadence, not added replication lag).
pub const POLL_WAIT: Duration = Duration::from_millis(50);
/// Reconnect backoff bounds: exponential from `BACKOFF_MIN`, capped at
/// `BACKOFF_MAX`, with deterministic jitter.
pub const BACKOFF_MIN: Duration = Duration::from_millis(10);
/// Upper bound of the reconnect backoff.
pub const BACKOFF_MAX: Duration = Duration::from_millis(1000);

// --- the replication log ----------------------------------------------------

/// One retained frame: the stamp plus the exact on-disk bytes.
#[derive(Debug, Clone)]
pub struct ReplFrame {
    /// Fencing epoch stamped into the frame.
    pub epoch: u64,
    /// Global replication sequence number.
    pub rseq: u64,
    /// The full framed bytes (`len||crc||epoch||rseq||payload`).
    pub bytes: Vec<u8>,
}

struct LogInner {
    /// Retained frames, contiguous by `rseq`.
    frames: VecDeque<ReplFrame>,
    /// `rseq` of the oldest retained frame; when empty, the next `rseq`
    /// a push will carry. A cursor below the floor needs a resync.
    floor: u64,
}

/// Shared replication state of one store: the frame ring, the watermarks
/// (durable = shippable head, visible = served by reads), the fencing
/// epoch, and the role flags.
pub struct ReplLog {
    inner: Mutex<LogInner>,
    /// Signals long-polling fetchers that the durable head advanced.
    shipped: Condvar,
    /// Highest `rseq` covered by an fsync or durable snapshot — the
    /// head a replica may be served up to.
    durable: AtomicU64,
    /// Highest `rseq` visible to reads (on a primary this trails
    /// `durable` by nothing observable; on a replica it advances as
    /// frames apply — the `X-Arbitrex-Min-Seq` gate reads this).
    visible: AtomicU64,
    /// Current fencing epoch.
    epoch: AtomicU64,
    /// Replica role: writes are refused until promotion.
    read_only: AtomicBool,
    /// Puller generation: bumped to invalidate the running puller
    /// (promotion, retarget, shutdown). A puller captures the value at
    /// spawn and exits once it changes, so stop-then-respawn can never
    /// leave a stale puller streaming from the old target alongside the
    /// new one.
    puller_gen: AtomicU64,
    /// The primary's head as last reported to this replica (lag gauge).
    last_seen_head: AtomicU64,
    /// The puller generation that last caught up with its head (applied
    /// everything the head reported); `u64::MAX` before any did. A
    /// retarget starts a new generation, so a new tail is never "caught
    /// up" on the strength of a previous head.
    caught_up_gen: AtomicU64,
}

/// What a batch fetch produced.
#[derive(Debug)]
pub enum FetchOutcome {
    /// Frames from the cursor (possibly empty after the long-poll), plus
    /// the durable head at serve time.
    Frames {
        /// The batch, contiguous from the requested cursor.
        frames: Vec<ReplFrame>,
        /// Durable head at serve time.
        head: u64,
    },
    /// The cursor is older than the retention floor: the replica must
    /// install a snapshot and re-stream from its watermark.
    ResyncRequired {
        /// Oldest retained `rseq`.
        floor: u64,
    },
}

impl ReplLog {
    /// A log for a store whose next append will carry `next_rseq` under
    /// `epoch`. `read_only` marks a replica (cleared by promotion).
    pub fn new(epoch: u64, next_rseq: u64, read_only: bool) -> ReplLog {
        ReplLog {
            inner: Mutex::new(LogInner {
                frames: VecDeque::new(),
                floor: next_rseq,
            }),
            shipped: Condvar::new(),
            durable: AtomicU64::new(next_rseq.saturating_sub(1)),
            visible: AtomicU64::new(next_rseq.saturating_sub(1)),
            epoch: AtomicU64::new(epoch),
            read_only: AtomicBool::new(read_only),
            puller_gen: AtomicU64::new(0),
            last_seen_head: AtomicU64::new(0),
            caught_up_gen: AtomicU64::new(u64::MAX),
        }
    }

    /// Retain a just-appended frame. Called under the WAL lock, which is
    /// what keeps `rseq` contiguous in the ring.
    pub fn push(&self, epoch: u64, rseq: u64, bytes: Vec<u8>) {
        let mut inner = self.inner.lock().unwrap();
        debug_assert_eq!(rseq, inner.floor + inner.frames.len() as u64);
        inner.frames.push_back(ReplFrame { epoch, rseq, bytes });
        while inner.frames.len() > RETAIN_FRAMES {
            inner.frames.pop_front();
            inner.floor += 1;
        }
    }

    /// Advance the durable head (monotone) and wake long-pollers.
    pub fn advance_durable(&self, rseq: u64) {
        self.durable.fetch_max(rseq, Ordering::SeqCst);
        // Lock-then-notify so a fetcher between its head check and its
        // wait cannot miss the advance.
        drop(self.inner.lock().unwrap());
        self.shipped.notify_all();
    }

    /// The durable head: the highest `rseq` a replica may be served.
    pub fn head(&self) -> u64 {
        self.durable.load(Ordering::SeqCst)
    }

    /// Advance the read-visible watermark (monotone).
    pub fn set_visible(&self, rseq: u64) {
        self.visible.fetch_max(rseq, Ordering::SeqCst);
    }

    /// The read-visible watermark (the `X-Arbitrex-Min-Seq` gate).
    pub fn visible(&self) -> u64 {
        self.visible.load(Ordering::SeqCst)
    }

    /// Current fencing epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Adopt `epoch` (promotion, or a replica following its primary).
    pub fn set_epoch(&self, epoch: u64) {
        self.epoch.fetch_max(epoch, Ordering::SeqCst);
    }

    /// Is this store refusing writes (replica role)?
    pub fn read_only(&self) -> bool {
        self.read_only.load(Ordering::SeqCst)
    }

    /// Set or clear the replica role.
    pub fn set_read_only(&self, value: bool) {
        self.read_only.store(value, Ordering::SeqCst);
    }

    /// Ask the running puller thread (if any) to exit by bumping the
    /// puller generation. A puller spawned *after* this call captures
    /// the new generation and is unaffected — which is what lets the
    /// failover supervisor retarget a replica at a newly promoted chain
    /// head with a plain stop-then-spawn.
    pub fn stop_puller(&self) {
        self.puller_gen.fetch_add(1, Ordering::SeqCst);
    }

    /// The current puller generation.
    pub fn puller_gen(&self) -> u64 {
        self.puller_gen.load(Ordering::SeqCst)
    }

    /// Has the puller of generation `gen` been asked to exit?
    pub fn puller_stopped(&self, gen: u64) -> bool {
        self.puller_gen.load(Ordering::SeqCst) != gen
    }

    /// Record that the puller of generation `gen` applied everything its
    /// head reported.
    pub fn mark_caught_up(&self, gen: u64) {
        self.caught_up_gen.store(gen, Ordering::SeqCst);
    }

    /// Has the running puller caught up with its head at least once? A
    /// replica that has not proxies plain reads to its head instead of
    /// answering from its own store.
    pub fn caught_up(&self) -> bool {
        self.caught_up_gen.load(Ordering::SeqCst) == self.puller_gen()
    }

    /// Record the primary's head as reported in a batch response.
    pub fn note_seen_head(&self, head: u64) {
        self.last_seen_head.fetch_max(head, Ordering::SeqCst);
    }

    /// The primary's head as last seen (0 before the first batch).
    pub fn last_seen_head(&self) -> u64 {
        self.last_seen_head.load(Ordering::SeqCst)
    }

    /// Oldest retained `rseq` (cursor floor).
    pub fn floor(&self) -> u64 {
        self.inner.lock().unwrap().floor
    }

    /// Serve a batch from cursor `from`, long-polling up to `wait` when
    /// nothing is shippable yet.
    pub fn fetch(&self, from: u64, wait: Duration) -> FetchOutcome {
        let deadline = Instant::now() + wait;
        let mut inner = self.inner.lock().unwrap();
        loop {
            if from < inner.floor {
                return FetchOutcome::ResyncRequired { floor: inner.floor };
            }
            let head = self.durable.load(Ordering::SeqCst);
            if from <= head {
                let frames: Vec<ReplFrame> = inner
                    .frames
                    .iter()
                    .skip_while(|f| f.rseq < from)
                    .take_while(|f| f.rseq <= head)
                    .take(MAX_BATCH_FRAMES)
                    .cloned()
                    .collect();
                if !frames.is_empty() {
                    return FetchOutcome::Frames { frames, head };
                }
                // Cursor ≤ head but nothing retained at it (can only
                // happen right at the floor after a reset): resync.
                if head >= inner.floor {
                    return FetchOutcome::ResyncRequired { floor: inner.floor };
                }
            }
            let now = Instant::now();
            if now >= deadline {
                return FetchOutcome::Frames {
                    frames: Vec::new(),
                    head,
                };
            }
            let (guard, _) = self.shipped.wait_timeout(inner, deadline - now).unwrap();
            inner = guard;
        }
    }

    /// Reset after a snapshot install: the ring empties, the floor moves
    /// past the snapshot watermark, and every watermark snaps to it.
    pub fn reset(&self, epoch: u64, rseq: u64) {
        let mut inner = self.inner.lock().unwrap();
        inner.frames.clear();
        inner.floor = rseq + 1;
        drop(inner);
        self.epoch.fetch_max(epoch, Ordering::SeqCst);
        self.durable.fetch_max(rseq, Ordering::SeqCst);
        self.visible.fetch_max(rseq, Ordering::SeqCst);
        self.shipped.notify_all();
    }
}

/// Artificial latency the `net_delay` fault injects.
pub const NET_DELAY: Duration = Duration::from_millis(100);

// --- a blocking peer client --------------------------------------------------

/// What a peer answered: status, lowercased headers, the body, and — for
/// chunked responses — the individual chunks (one WAL frame each).
#[derive(Debug)]
pub struct PeerResponse {
    /// HTTP status code.
    pub status: u16,
    /// Lowercased header names with values.
    pub headers: Vec<(String, String)>,
    /// The whole body (chunks concatenated when chunked).
    pub body: Vec<u8>,
    /// The individual chunks of a chunked response.
    pub chunks: Option<Vec<Vec<u8>>>,
}

impl PeerResponse {
    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A blocking HTTP/1.1 client for one keep-alive connection to a peer
/// node. [`PeerClient::request`] sends one request and reads its
/// response. A pipelined batch is one [`PeerClient::send_raw`] of
/// several encoded requests followed by one
/// [`PeerClient::read_response`] per request, in order; the buffered
/// reader carries bytes of the next response over between reads.
pub struct PeerClient {
    reader: BufReader<TcpStream>,
}

/// Read timeout on peer sockets; a peer silent this long is treated as
/// gone and the connection is rebuilt.
const PEER_READ_TIMEOUT: Duration = Duration::from_secs(5);

impl PeerClient {
    /// Connect to `addr` (host:port).
    pub fn connect(addr: &str) -> io::Result<PeerClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(PEER_READ_TIMEOUT))?;
        Ok(PeerClient::from_stream(stream))
    }

    /// A client over an already connected `stream`, which keeps the read
    /// timeout its caller set on it.
    pub fn from_stream(stream: TcpStream) -> PeerClient {
        let _ = stream.set_nodelay(true);
        PeerClient {
            reader: BufReader::new(stream),
        }
    }

    /// Send `method path` with an optional JSON body and read the full
    /// response (buffering all chunks of a chunked one).
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<PeerResponse> {
        self.request_with_headers(method, path, body, &[])
    }

    /// [`PeerClient::request`] with extra request headers — the shard
    /// handoff marks its pulls cluster-internal this way, so an old
    /// owner serves its local copy instead of routing by the new ring.
    pub fn request_with_headers(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        headers: &[(&str, &str)],
    ) -> io::Result<PeerResponse> {
        self.send_raw(&PeerClient::encode(method, path, body, headers))?;
        self.read_response()
    }

    /// The bytes of one request: head and body in one buffer, so it
    /// leaves in one write. A head and a body written separately go out
    /// as two small packets, and Nagle plus delayed ACK can then hold the
    /// body back for ~40 ms.
    pub fn encode(
        method: &str,
        path: &str,
        body: Option<&str>,
        headers: &[(&str, &str)],
    ) -> Vec<u8> {
        use std::fmt::Write as _;
        let body = body.unwrap_or("");
        let mut wire = format!("{method} {path} HTTP/1.1\r\nHost: peer\r\n");
        for (name, value) in headers {
            let _ = write!(wire, "{name}: {value}\r\n");
        }
        let _ = write!(wire, "Content-Length: {}\r\n\r\n{body}", body.len());
        wire.into_bytes()
    }

    /// Write already encoded requests ([`PeerClient::encode`]) in one
    /// write, without reading anything back.
    pub fn send_raw(&mut self, wire: &[u8]) -> io::Result<()> {
        self.reader.get_mut().write_all(wire)
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "peer closed mid-response",
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    /// Read the next response off the connection (buffering all chunks
    /// of a chunked one).
    pub fn read_response(&mut self) -> io::Result<PeerResponse> {
        let status_line = self.read_line()?;
        let mut parts = status_line.split_ascii_whitespace();
        let status = match (parts.next(), parts.next()) {
            (Some(v), Some(code)) if v.starts_with("HTTP/1.") => code
                .parse::<u16>()
                .map_err(|_| io::Error::other(format!("bad status line `{status_line}`")))?,
            _ => return Err(io::Error::other(format!("bad status line `{status_line}`"))),
        };
        let mut headers = Vec::new();
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
            }
        }
        let chunked = headers
            .iter()
            .any(|(k, v)| k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
        if chunked {
            let mut chunks = Vec::new();
            let mut body = Vec::new();
            loop {
                let size_line = self.read_line()?;
                let size = usize::from_str_radix(size_line.trim(), 16)
                    .map_err(|_| io::Error::other(format!("bad chunk size `{size_line}`")))?;
                if size == 0 {
                    let _ = self.read_line(); // trailing CRLF after the last chunk
                    break;
                }
                let mut chunk = vec![0u8; size];
                self.reader.read_exact(&mut chunk)?;
                let mut crlf = [0u8; 2];
                self.reader.read_exact(&mut crlf)?;
                body.extend_from_slice(&chunk);
                chunks.push(chunk);
            }
            return Ok(PeerResponse {
                status,
                headers,
                body,
                chunks: Some(chunks),
            });
        }
        let length = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .and_then(|(_, v)| v.parse::<usize>().ok())
            .unwrap_or(0);
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        Ok(PeerResponse {
            status,
            headers,
            body,
            chunks: None,
        })
    }
}

// --- the replica's puller thread ---------------------------------------------

/// Capped exponential backoff with deterministic xorshift jitter. The
/// same policy backs the replication puller's reconnects and the shard
/// proxy's read retries (`routes::shard_proxy_get`).
pub(crate) struct Backoff {
    delay: Duration,
    rng: u64,
}

impl Backoff {
    pub(crate) fn new(seed: u64) -> Backoff {
        Backoff {
            delay: BACKOFF_MIN,
            rng: seed | 1,
        }
    }

    pub(crate) fn reset(&mut self) {
        self.delay = BACKOFF_MIN;
    }

    /// The next sleep: current delay ± 25% jitter (the draw is uniform
    /// over `[base - base/4, base + base/4]`); the base then doubles
    /// toward the cap for the draw after this one.
    pub(crate) fn next_delay(&mut self) -> Duration {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let base = self.delay.as_millis() as u64;
        let jitter = self.rng % (base / 2 + 1); // 0 ..= base/2
        self.delay = (self.delay * 2).min(BACKOFF_MAX);
        Duration::from_millis(base - base / 4 + jitter)
    }

    /// Sleep the next delay (in short slices so a stop request is
    /// observed promptly).
    fn sleep(&mut self, log: &ReplLog, gen: u64) {
        metrics::REPL_BACKOFF_SLEEPS.incr();
        let total = self.next_delay();
        let slice = Duration::from_millis(10);
        let deadline = Instant::now() + total;
        while Instant::now() < deadline && !log.puller_stopped(gen) {
            thread::sleep(slice.min(deadline - Instant::now()));
        }
    }
}

/// Spawn the replica's puller thread: connect to `primary`, stream WAL
/// frames, apply them, resync via snapshot when required, and reconnect
/// with capped backoff on every failure. Exits when the store's
/// [`ReplLog::stop_puller`] fires (promotion or shutdown).
pub fn spawn_puller(state: Arc<ServiceState>, primary: String) -> thread::JoinHandle<()> {
    thread::Builder::new()
        .name("arbitrex-repl-puller".to_string())
        .spawn(move || run_puller(&state, &primary))
        .expect("spawn replication puller")
}

fn run_puller(state: &ServiceState, primary: &str) {
    let log = match state.kbs.replication() {
        Some(log) => Arc::clone(log),
        None => return, // replication requires a durable store
    };
    let seed = primary.bytes().fold(0xDEAD_BEEF_u64, |h, b| {
        h.wrapping_mul(31).wrapping_add(b as u64)
    });
    let mut backoff = Backoff::new(seed);
    let gen = log.puller_gen();
    while !log.puller_stopped(gen) {
        let mut client = match PeerClient::connect(primary) {
            Ok(c) => {
                backoff.reset();
                c
            }
            Err(_) => {
                backoff.sleep(&log, gen);
                continue;
            }
        };
        metrics::REPL_RECONNECTS.incr();
        // Stream batches on this connection until it breaks.
        loop {
            if log.puller_stopped(gen) {
                return;
            }
            let from = log.head() + 1;
            let response = match client.request(
                "GET",
                &format!("/v1/replication/wal?from_seq={from}"),
                None,
            ) {
                Ok(r) => r,
                Err(_) => break, // dropped/cut connection: rebuild it
            };
            match response.status {
                200 => {}
                409 => {
                    // Cursor below the primary's retention floor.
                    if !resync(state, &log, &mut client) {
                        break;
                    }
                    continue;
                }
                _ => break, // partition 503s and surprises: back off
            }
            let peer_epoch = response
                .header("x-arbitrex-epoch")
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0);
            if peer_epoch < log.epoch() {
                // A deposed primary is answering: refuse its frames.
                metrics::REPL_EPOCH_REJECTIONS.incr();
                break;
            }
            if peer_epoch > log.epoch() {
                // A promotion happened while we were away; our history
                // may have diverged past the shared prefix — resync.
                if !resync(state, &log, &mut client) {
                    break;
                }
                continue;
            }
            let reported_head = response
                .header("x-arbitrex-head")
                .and_then(|v| v.parse::<u64>().ok());
            if let Some(head) = reported_head {
                log.note_seen_head(head);
            }
            let chunks = response.chunks.unwrap_or_default();
            let mut stream_ok = true;
            for chunk in &chunks {
                let start = Instant::now();
                let stamped = match wal::decode_frame(chunk) {
                    Ok(s) => s,
                    Err(_) => {
                        // Torn in transit: drop the rest, re-request
                        // from the same cursor on this connection.
                        metrics::REPL_BAD_FRAMES.incr();
                        break;
                    }
                };
                match state.kbs.apply_replicated(chunk, &stamped) {
                    Ok(ApplyOutcome::Applied { snapshot_due, .. }) => {
                        metrics::REPL_FRAMES_APPLIED.incr();
                        metrics::LATENCY_REPL_APPLY
                            .record_nanos(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
                        if snapshot_due && state.kbs.maybe_snapshot().is_err() {
                            state.kbs.note_snapshot_error();
                        }
                    }
                    Ok(ApplyOutcome::Duplicate { .. }) => {
                        metrics::REPL_DUP_FRAMES_SKIPPED.incr();
                    }
                    Ok(ApplyOutcome::StaleEpoch { .. }) => {
                        metrics::REPL_EPOCH_REJECTIONS.incr();
                        stream_ok = false;
                        break;
                    }
                    Ok(ApplyOutcome::Gap { .. }) => {
                        stream_ok = resync(state, &log, &mut client);
                        break;
                    }
                    Err(_) => {
                        // Local append failed (disk trouble): back off
                        // rather than spin against a broken store.
                        stream_ok = false;
                        break;
                    }
                }
            }
            if !stream_ok {
                break;
            }
            if reported_head.is_some_and(|head| log.head() >= head) {
                log.mark_caught_up(gen);
            }
        }
        backoff.sleep(&log, gen);
    }
}

/// Install the primary's snapshot image: fetch, verify, swap the whole
/// store, and resume the cursor from the snapshot watermark. `false`
/// breaks the connection loop (caller backs off).
fn resync(state: &ServiceState, log: &ReplLog, client: &mut PeerClient) -> bool {
    metrics::REPL_RESYNCS.incr();
    let response = match client.request("GET", "/v1/replication/snapshot", None) {
        Ok(r) => r,
        Err(_) => return false,
    };
    if response.status != 200 {
        return false;
    }
    let contents = match snapshot::parse_snapshot(&response.body) {
        Ok(c) => c,
        Err(_) => {
            metrics::REPL_BAD_FRAMES.incr();
            return false;
        }
    };
    // Fencing covers state transfer too: a node fenced at epoch E must
    // not install a deposed primary's snapshot, or a kill-9'd old
    // primary could undo a promotion by answering a resync.
    if contents.epoch < log.epoch() {
        metrics::REPL_EPOCH_REJECTIONS.incr();
        return false;
    }
    if state.kbs.install_state(contents).is_err() {
        return false;
    }
    // Watermarks were reset by install_state through the same log.
    true
}

// --- Δ-based anti-entropy ----------------------------------------------------

/// What one reconciliation pass did.
#[derive(Debug, Default)]
pub struct ReconcileSummary {
    /// KBs present on both sides with identical seq and content.
    pub identical: u64,
    /// KBs absent locally, adopted verbatim from the peer.
    pub adopted: u64,
    /// KBs with identical content but different seq; seq aligned to max.
    pub aligned: u64,
    /// Divergent KBs merged with `Δ` arbitration.
    pub merged: u64,
    /// Divergent KBs skipped (peer formula unreadable or arbitration
    /// not exact — should not happen with an unlimited budget).
    pub skipped: u64,
}

/// One KB of a peer's `GET /v1/kbs` listing.
pub(crate) struct ListedKb {
    pub(crate) name: String,
    pub(crate) seq: u64,
    pub(crate) hash: u64,
}

/// Fetch and parse a peer's KB listing — what anti-entropy compares and
/// shard handoff walks.
pub(crate) fn fetch_listing(client: &mut PeerClient) -> Result<Vec<ListedKb>, String> {
    let response = client
        .request("GET", "/v1/kbs", None)
        .map_err(|e| format!("listing fetch failed: {e}"))?;
    if response.status != 200 {
        return Err(format!("peer answered {} for its listing", response.status));
    }
    let text =
        std::str::from_utf8(&response.body).map_err(|_| "listing is not UTF-8".to_string())?;
    let doc = json::parse(text).map_err(|e| format!("listing does not parse: {e}"))?;
    let kbs = doc
        .get("kbs")
        .and_then(|v| v.as_array())
        .ok_or("listing has no `kbs` array")?;
    let mut out = Vec::with_capacity(kbs.len());
    for entry in kbs {
        let name = entry
            .get("name")
            .and_then(|v| v.as_str())
            .ok_or("listing entry has no name")?
            .to_string();
        let seq = entry
            .get("seq")
            .and_then(|v| v.as_u64())
            .ok_or("listing entry has no seq")?;
        let hash = entry
            .get("hash")
            .and_then(|v| v.as_str())
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or("listing entry has no hash")?;
        out.push(ListedKb { name, seq, hash });
    }
    Ok(out)
}

/// This store's listing as `name -> (seq, hash)`.
pub(crate) fn local_listing(state: &ServiceState) -> HashMap<String, (u64, u64)> {
    state
        .kbs
        .digest()
        .into_iter()
        .map(|(name, seq, hash)| (name, (seq, hash)))
        .collect()
}

/// Fetch one KB's formula text and seq from the peer's own store.
fn fetch_kb(client: &mut PeerClient, name: &str) -> Result<(String, u64), String> {
    // Anti-entropy and handoff address a *node*, not the namespace: the
    // shard bypass header makes the peer serve its own local copy
    // instead of routing the read by its ring (which could hand this
    // node its own theory back and turn a Δ-merge into a no-op).
    let response = client
        .request_with_headers(
            "GET",
            &format!("/v1/kb/{name}"),
            None,
            &[(crate::shard::INTERNAL_HEADER, "1")],
        )
        .map_err(|e| format!("peer unreachable: {e}"))?;
    if response.status != 200 {
        return Err(format!("peer answered {} for `{name}`", response.status));
    }
    let text = std::str::from_utf8(&response.body).map_err(|_| "KB body not UTF-8".to_string())?;
    let doc = json::parse(text).map_err(|e| format!("KB body does not parse: {e}"))?;
    let formula = doc
        .get("formula")
        .and_then(|v| v.as_str())
        .ok_or("KB body has no formula")?
        .to_string();
    let seq = doc
        .get("seq")
        .and_then(|v| v.as_u64())
        .ok_or("KB body has no seq")?;
    Ok((formula, seq))
}

/// Fetch `name` from the peer and land it verbatim, seq included, so
/// the two listings agree afterwards. Returns the adopted seq.
pub(crate) fn pull_kb(
    state: &ServiceState,
    client: &mut PeerClient,
    name: &str,
) -> Result<u64, String> {
    let (text, seq) = fetch_kb(client, name)?;
    let mut sig = arbitrex_logic::Sig::new();
    let formula =
        parse_formula(&mut sig, &text).map_err(|e| format!("peer formula unparsable: {e}"))?;
    state
        .kbs
        .force_put(name, StoredKb { sig, formula, seq })
        .map_err(|e| e.to_string())?;
    Ok(seq)
}

/// One anti-entropy pass against `peer`: adopt KBs we lack, align seqs
/// on identical content, and merge genuinely divergent theories with
/// `Δ` arbitration — over sorted names, both sides ordered by digest, so
/// the peer running the same pass against us would commit the identical
/// result.
pub fn reconcile_with_peer(state: &ServiceState, peer: &str) -> Result<ReconcileSummary, String> {
    if state.kbs.replication().is_none() {
        return Err("reconciliation requires a durable store".to_string());
    }
    let mut client = PeerClient::connect(peer).map_err(|e| format!("cannot reach {peer}: {e}"))?;
    let peer_listing = fetch_listing(&mut client)?;
    let local = local_listing(state);

    let mut summary = ReconcileSummary::default();
    for entry in peer_listing {
        match local.get(&entry.name) {
            None => {
                // Absent here: adopt the peer's theory verbatim.
                match pull_kb(state, &mut client, &entry.name) {
                    Ok(_) => summary.adopted += 1,
                    Err(_) => summary.skipped += 1,
                }
            }
            Some(&(local_seq, local_hash)) if local_hash == entry.hash => {
                if local_seq == entry.seq {
                    summary.identical += 1;
                    continue;
                }
                // Same theory, different seq (e.g. one side redundantly
                // re-committed): align on the max so digests converge.
                let target = local_seq.max(entry.seq);
                if align_seq(state, &entry.name, target) {
                    summary.aligned += 1;
                } else {
                    summary.skipped += 1;
                }
            }
            Some(&(local_seq, _)) => {
                // Genuine divergence: merge with Δ, not last-writer-wins.
                match merge_divergent(state, &mut client, &entry.name, local_seq, entry.seq) {
                    Ok(()) => {
                        metrics::REPL_RECONCILIATIONS.incr();
                        summary.merged += 1;
                    }
                    Err(_) => summary.skipped += 1,
                }
            }
        }
    }
    Ok(summary)
}

/// Re-commit the local theory under `target` seq (content unchanged).
fn align_seq(state: &ServiceState, name: &str, target: u64) -> bool {
    let Some(entry) = state.kbs.entry(name) else {
        return false;
    };
    let next = {
        let kb = entry.lock().unwrap();
        if kb.seq == 0 || kb.seq == target {
            return kb.seq == target;
        }
        StoredKb {
            sig: kb.sig.clone(),
            formula: kb.formula.clone(),
            seq: target,
        }
    };
    state.kbs.force_put(name, next).is_ok()
}

/// Merge one divergent KB: `Δ(local, peer)` over the names the two
/// theories mention, interned in sorted order. Arbitration reads only
/// `Mod(local) ∪ Mod(peer)`, so the result does not depend on which side
/// is which; the sorted interning makes the variable numbering, and so
/// the stored text, the same on every member that merges the pair.
/// Commits at `max(seq_local, seq_peer) + 1`.
fn merge_divergent(
    state: &ServiceState,
    client: &mut PeerClient,
    name: &str,
    local_seq: u64,
    peer_seq: u64,
) -> Result<(), String> {
    let (peer_text, _) = fetch_kb(client, name)?;
    let entry = state
        .kbs
        .entry(name)
        .ok_or("KB vanished during reconciliation")?;
    let (local_sig, local_formula) = {
        let kb = entry.lock().unwrap();
        if kb.seq == 0 {
            return Err("KB vanished during reconciliation".to_string());
        }
        (kb.sig.clone(), kb.formula.clone())
    };
    let mut peer_sig = Sig::new();
    let peer_formula = parse_formula(&mut peer_sig, &peer_text)
        .map_err(|e| format!("peer formula does not parse: {e}"))?;
    let mut names: Vec<&str> = [(&local_sig, &local_formula), (&peer_sig, &peer_formula)]
        .into_iter()
        .flat_map(|(sig, f)| f.vars().into_iter().map(|v| sig.name(v)))
        .collect();
    names.sort_unstable();
    names.dedup();
    let mut sig = Sig::new();
    for name in &names {
        sig.var(name);
    }
    let n = sig.width();
    if n > ENUM_LIMIT {
        return Err(format!("merged signature of {n} variables too wide"));
    }
    let psi = ModelSet::of_formula(&renamed_into(&sig, &local_sig, &local_formula), n);
    let phi = ModelSet::of_formula(&renamed_into(&sig, &peer_sig, &peer_formula), n);
    let merged = StoredKb {
        sig,
        formula: exact_merge(&psi, &phi, &Budget::unlimited())?.to_formula(),
        seq: local_seq.max(peer_seq) + 1,
    };
    state
        .kbs
        .force_put(name, merged)
        .map_err(|e| e.to_string())?;
    Ok(())
}

/// `ψ Δ φ` under `budget`, refused unless exact: a merged theory is
/// stored on every member, so it must not depend on how far a search got.
fn exact_merge(psi: &ModelSet, phi: &ModelSet, budget: &Budget) -> Result<ModelSet, String> {
    let outcome = try_arbitrate_with_budget(psi, phi, budget).map_err(|e| e.to_string())?;
    if outcome.quality != Quality::Exact {
        return Err("arbitration degraded under an unlimited budget".to_string());
    }
    Ok(outcome.models)
}

/// `f`, written over `from`, renumbered into `to`, which names every
/// variable `f` mentions.
fn renamed_into(to: &Sig, from: &Sig, f: &Formula) -> Formula {
    let map: Vec<u32> = from
        .names()
        .iter()
        .map(|name| to.get(name).map_or(0, |v| v.0))
        .collect();
    rename_formula(f, &map)
}

/// Render a reconcile summary as the endpoint's response body.
pub fn summary_json(peer: &str, s: &ReconcileSummary) -> Json {
    json::obj([
        ("peer", json::s(peer)),
        ("identical", json::n(s.identical)),
        ("adopted", json::n(s.adopted)),
        ("aligned", json::n(s.aligned)),
        ("merged", json::n(s.merged)),
        ("skipped", json::n(s.skipped)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbitrex_logic::Interp;

    #[test]
    fn a_merge_is_exact_or_refused() {
        let (psi, phi) = (
            ModelSet::new(2, [Interp(0b01)]),
            ModelSet::new(2, [Interp(0b10)]),
        );
        let merged = exact_merge(&psi, &phi, &Budget::unlimited()).unwrap();
        assert_eq!(merged, ModelSet::new(2, [Interp(0b00), Interp(0b11)]));
        // 2^11 candidates: past one meter batch, so a zero deadline trips
        // mid-scan and the degraded answer is refused, not stored.
        let wide = ModelSet::new(11, (1..1 << 11).map(Interp));
        let expired = Budget::unlimited().with_deadline(Duration::from_millis(0));
        assert_eq!(
            exact_merge(&wide, &wide, &expired),
            Err("arbitration degraded under an unlimited budget".to_string())
        );
    }

    fn frame_bytes(epoch: u64, rseq: u64) -> Vec<u8> {
        wal::frame(epoch, rseq, &[rseq as u8])
    }

    #[test]
    fn repl_log_serves_contiguous_batches_up_to_the_durable_head() {
        let log = ReplLog::new(1, 1, false);
        for rseq in 1..=5 {
            log.push(1, rseq, frame_bytes(1, rseq));
        }
        // Nothing durable yet: an immediate fetch long-polls then
        // returns empty.
        match log.fetch(1, Duration::from_millis(1)) {
            FetchOutcome::Frames { frames, head } => {
                assert!(frames.is_empty());
                assert_eq!(head, 0);
            }
            other => panic!("expected empty frames, got {other:?}"),
        }
        log.advance_durable(3);
        match log.fetch(1, Duration::from_millis(1)) {
            FetchOutcome::Frames { frames, head } => {
                assert_eq!(head, 3);
                assert_eq!(
                    frames.iter().map(|f| f.rseq).collect::<Vec<_>>(),
                    vec![1, 2, 3]
                );
            }
            other => panic!("expected frames 1..=3, got {other:?}"),
        }
        // A cursor mid-ring serves the suffix.
        match log.fetch(3, Duration::from_millis(1)) {
            FetchOutcome::Frames { frames, .. } => {
                assert_eq!(frames.iter().map(|f| f.rseq).collect::<Vec<_>>(), vec![3]);
            }
            other => panic!("expected frame 3, got {other:?}"),
        }
    }

    #[test]
    fn repl_log_requires_resync_below_the_retention_floor() {
        let log = ReplLog::new(1, 1, false);
        for rseq in 1..=(RETAIN_FRAMES as u64 + 10) {
            log.push(1, rseq, frame_bytes(1, rseq));
        }
        log.advance_durable(RETAIN_FRAMES as u64 + 10);
        assert_eq!(log.floor(), 11);
        match log.fetch(5, Duration::from_millis(1)) {
            FetchOutcome::ResyncRequired { floor } => assert_eq!(floor, 11),
            other => panic!("expected resync, got {other:?}"),
        }
        match log.fetch(11, Duration::from_millis(1)) {
            FetchOutcome::Frames { frames, .. } => {
                assert_eq!(frames.len(), MAX_BATCH_FRAMES);
                assert_eq!(frames[0].rseq, 11);
            }
            other => panic!("expected frames, got {other:?}"),
        }
    }

    #[test]
    fn repl_log_reset_moves_every_watermark_past_the_snapshot() {
        let log = ReplLog::new(1, 1, true);
        for rseq in 1..=4 {
            log.push(1, rseq, frame_bytes(1, rseq));
        }
        log.advance_durable(4);
        log.reset(3, 40);
        assert_eq!(log.epoch(), 3);
        assert_eq!(log.head(), 40);
        assert_eq!(log.visible(), 40);
        assert_eq!(log.floor(), 41);
        match log.fetch(41, Duration::from_millis(1)) {
            FetchOutcome::Frames { frames, .. } => assert!(frames.is_empty()),
            other => panic!("expected empty frames, got {other:?}"),
        }
    }

    #[test]
    fn backoff_doubles_to_the_cap_and_resets() {
        let log = ReplLog::new(1, 1, true);
        let gen = log.puller_gen();
        log.stop_puller(); // sleeps return immediately
        let mut backoff = Backoff::new(7);
        let mut seen = Vec::new();
        for _ in 0..10 {
            seen.push(backoff.delay);
            backoff.sleep(&log, gen);
        }
        assert_eq!(seen[0], BACKOFF_MIN);
        assert!(seen.windows(2).all(|w| w[1] >= w[0]));
        assert_eq!(*seen.last().unwrap(), BACKOFF_MAX);
        backoff.reset();
        assert_eq!(backoff.delay, BACKOFF_MIN);
    }

    #[test]
    fn backoff_sleeps_stay_inside_the_jitter_band() {
        // With the log live (no stop request), each sleep must run for
        // its full jittered duration: at least `base - base/4` (jitter
        // floor) and not wildly past `base + base/4` (jitter ceiling;
        // generous slack for scheduler noise on loaded CI).
        let log = ReplLog::new(1, 1, true);
        let gen = log.puller_gen();
        let mut backoff = Backoff::new(42);
        for _ in 0..3 {
            let base = backoff.delay.as_millis() as u64;
            let start = Instant::now();
            backoff.sleep(&log, gen);
            let elapsed = start.elapsed().as_millis() as u64;
            assert!(
                elapsed + 1 >= base - base / 4,
                "slept {elapsed}ms, below the jitter floor of base {base}ms"
            );
            assert!(
                elapsed <= base + base / 4 + 100,
                "slept {elapsed}ms, far past the jitter ceiling of base {base}ms"
            );
        }
        // After the doubling ladder, one successful connect resets the
        // next sleep to the floor — measured, not just stored.
        backoff.reset();
        let start = Instant::now();
        backoff.sleep(&log, gen);
        let elapsed = start.elapsed();
        assert!(elapsed >= BACKOFF_MIN - BACKOFF_MIN / 4);
        assert!(elapsed < BACKOFF_MAX / 2, "reset did not take: {elapsed:?}");
    }

    #[test]
    fn next_delay_draws_stay_inside_the_jitter_band_at_every_tier() {
        // The shard proxy's retry sleeps come straight from
        // `next_delay`, so the band must hold as a pure function of the
        // ladder, not just as measured sleep time: every draw lands in
        // `[base - base/4, base + base/4]` while the base doubles from
        // `BACKOFF_MIN` to `BACKOFF_MAX`, and keeps holding at the cap.
        for seed in [1_u64, 42, 0xA5A5, u64::MAX] {
            let mut backoff = Backoff::new(seed);
            for _ in 0..64 {
                let base = backoff.delay.as_millis() as u64;
                let drawn = backoff.next_delay().as_millis() as u64;
                assert!(
                    drawn >= base - base / 4 && drawn <= base + base / 4,
                    "seed {seed}: drew {drawn}ms outside the band of base {base}ms"
                );
            }
            assert_eq!(backoff.delay, BACKOFF_MAX);
        }
    }

    #[test]
    fn puller_generations_invalidate_only_older_pullers() {
        let log = ReplLog::new(1, 1, true);
        let gen = log.puller_gen();
        assert!(!log.puller_stopped(gen));
        log.stop_puller();
        assert!(log.puller_stopped(gen), "the old generation is invalidated");
        let newer = log.puller_gen();
        assert!(
            !log.puller_stopped(newer),
            "a puller spawned at the new generation keeps running"
        );
        log.stop_puller();
        assert!(log.puller_stopped(newer));
    }
}
