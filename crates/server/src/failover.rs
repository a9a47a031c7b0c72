//! Automatic failover for shard chain heads.
//!
//! PR 9's ring maps names to replica **chains** (`shard.rs`); this
//! module adds the machinery that makes a chain survive its head:
//!
//! * **Roles follow the ring** — [`reconcile_role`] is the only place a
//!   node becomes a replica: at boot, on every ring adoption, and on
//!   every detector tick, a node listed behind a head demotes and
//!   streams that head's WAL. Its puller supervision compares the
//!   puller this node is running against what the current ring says it
//!   should run, and stops/retargets/respawns as needed. The
//!   [`crate::replication::ReplLog`] puller *generation* makes
//!   stop-then-spawn race-free: a deposed puller can never outlive its
//!   retarget.
//! * **Failure detection** — the detector thread probes this node's
//!   chain head over `GET /v1/replication/status` every
//!   `--probe-interval-ms`. After `--suspect-after` consecutive
//!   failures the designated successor (the first replica) runs a
//!   **quorum check**: it asks every other serving member to probe the
//!   head (`POST /v1/cluster/probe`). Any voter that can still reach
//!   the head vetoes the promotion — a suspected-but-alive head behind
//!   a partition stays fenced instead of split-brained. No responding
//!   voters at all means *this* node may be the partitioned one, so it
//!   also refuses to promote (with no voters configured — a two-node
//!   chain — the successor must self-decide).
//! * **Promotion** — on confirmed death the successor runs
//!   [`promote_self`], the one path that makes a store its chain's
//!   head (an operator's `POST /v1/replication/promote` runs it too,
//!   minus the quorum check): the store's `promote()` (WAL epoch bump), a
//!   chain rotation on the ring ([`crate::shard::ShardRouter::rotate_chain`]
//!   records the new WAL epoch as the chain's `repl_epoch` — the epoch
//!   *composition* that fences the deposed head at apply, stream,
//!   resync and routing), and a broadcast of the rotated ring through
//!   the ring sync path. Because chains hash by a stable anchor, the
//!   rotation moves **zero** data.
//! * **Revival** — the new head remembers whom it deposed. When the old
//!   head answers probes again, its acked-but-never-shipped commits are
//!   absorbed with the paper's `Δ` arbitration
//!   ([`crate::replication::reconcile_with_peer`] — divergence is
//!   merged, never last-writer-wins), and the node is re-enlisted as
//!   the chain's tail. Adopting the new ring demotes it
//!   ([`reconcile_role`]): read-only, pulling from the new head, whose
//!   higher epoch forces a resync over the shared history.
//! * **Ring anti-entropy** — heads push the current ring to chain
//!   members whose advertised ring epoch lags, so a member that missed
//!   the rotation broadcast converges within a probe interval instead
//!   of fencing writes against a dead ring forever.
//!
//! Probing, promotion on death, revival and ring anti-entropy are
//! driven by one thread per node ([`spawn_detector`]), disabled with
//! `--probe-interval-ms 0`; role and puller follow every ring adoption
//! with or without it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::json::{self, Json};
use crate::metrics;
use crate::replication::{self, PeerClient};
use crate::shard::{ChainEntry, ShardRing, ShardRouter};
use crate::ServiceState;

/// Cross-thread failover bookkeeping hung off [`ServiceState`].
pub struct FailoverState {
    /// The replication puller this node currently runs.
    puller: Mutex<PullerSlot>,
    /// Chain heads this node deposed and still owes a revival
    /// reconcile + re-enlist.
    deposed: Mutex<Vec<String>>,
    /// Stops the detector thread.
    stop: AtomicBool,
    /// Serializes role changes: a promotion and a ring-driven demotion
    /// must never interleave (a demotion landing between a promotion's
    /// epoch bump and its chain rotation would wedge the new head).
    role: Mutex<()>,
    /// The state this bookkeeping lives in, so a ring adoption on a
    /// worker thread can hand the puller thread an owning handle.
    this: OnceLock<Weak<ServiceState>>,
}

#[derive(Default)]
struct PullerSlot {
    target: Option<String>,
    handle: Option<JoinHandle<()>>,
}

impl Default for FailoverState {
    fn default() -> FailoverState {
        FailoverState::new()
    }
}

impl FailoverState {
    /// Fresh bookkeeping: no puller, no deposed heads.
    pub fn new() -> FailoverState {
        FailoverState {
            puller: Mutex::new(PullerSlot::default()),
            deposed: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
            role: Mutex::new(()),
            this: OnceLock::new(),
        }
    }

    /// Attach the running server's state (once, when it is wrapped in
    /// an `Arc`). A state never attached — built for a single-threaded
    /// replay — runs no puller.
    pub fn attach(&self, state: &Arc<ServiceState>) {
        let _ = self.this.set(Arc::downgrade(state));
    }

    /// Ask the detector thread to exit.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Chain heads this node deposed and has not yet reconciled back
    /// (the `deposed_heads` gauge).
    pub fn deposed_count(&self) -> usize {
        self.deposed.lock().unwrap().len()
    }

    fn note_deposed(&self, addr: &str) {
        let mut deposed = self.deposed.lock().unwrap();
        if !deposed.iter().any(|d| d == addr) {
            deposed.push(addr.to_string());
        }
    }

    fn deposed_snapshot(&self) -> Vec<String> {
        self.deposed.lock().unwrap().clone()
    }

    fn forget_deposed(&self, addr: &str) {
        self.deposed.lock().unwrap().retain(|d| d != addr);
    }
}

// --- puller supervision ------------------------------------------------------

/// The head this node should be pulling from right now: its chain head
/// under the current ring. `None` for a head, a node outside every
/// chain, or any writable store: primaries don't pull.
fn desired_puller_target(state: &ServiceState) -> Option<String> {
    let log = state.kbs.replication()?;
    if !log.read_only() {
        return None;
    }
    let router = &state.shards;
    let chain = router.self_chain()?;
    let head = chain.head();
    (head != router.self_addr()).then(|| head.to_string())
}

/// Reconcile the puller this node runs with what the ring says it
/// should run: stop a puller aimed at the wrong head, spawn one at the
/// right target, respawn one that died. Idempotent.
fn ensure_puller(state: &ServiceState) {
    let Some(log) = state.kbs.replication() else {
        return;
    };
    let desired = desired_puller_target(state);
    let mut slot = state.failover.puller.lock().unwrap();
    let live = slot.handle.as_ref().is_some_and(|h| !h.is_finished());
    if slot.target == desired && (live || desired.is_none()) {
        return;
    }
    let spawn = match &desired {
        Some(target) => match state.failover.this.get().and_then(Weak::upgrade) {
            Some(owner) => Some((owner, target.clone())),
            None => return,
        },
        None => None,
    };
    // Invalidate whatever generation is running before spawning the
    // replacement at the next one.
    log.stop_puller();
    if let Some(stale) = slot.handle.take() {
        let _ = stale.join();
    }
    slot.handle = spawn.map(|(owner, target)| replication::spawn_puller(owner, target));
    slot.target = desired;
}

/// Stop and join the puller thread (server shutdown).
pub fn join_puller(state: &ServiceState) {
    if let Some(log) = state.kbs.replication() {
        log.stop_puller();
    }
    let handle = state.failover.puller.lock().unwrap().handle.take();
    if let Some(handle) = handle {
        let _ = handle.join();
    }
}

/// Take the role the ring gives this node, and run the puller that
/// role needs. A node listed *behind* another head is a replica —
/// whatever it used to be (a deposed head re-listed as a tail, a plain
/// node just enlisted, a node booted from a chain spec) — so it demotes
/// to read-only and streams that head's WAL. Promotion is never done
/// here: becoming a head goes through [`promote_self`], not through ring
/// gossip a stale broadcast could forge. Runs at boot, on every ring
/// adoption, and on every detector tick.
pub fn reconcile_role(state: &ServiceState) {
    let role = state.failover.role.lock().unwrap();
    if let (Some(log), Some(chain)) = (state.kbs.replication(), state.shards.self_chain()) {
        if chain.head() != state.shards.self_addr() && !log.read_only() {
            let _ = state.kbs.demote();
        }
    }
    drop(role);
    ensure_puller(state);
}

/// What [`promote_self`] left this node as: its chain's head at
/// `epoch`, holding sequence numbers up to `last_rseq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Promotion {
    /// Whether this call promoted the store (`false`: it already
    /// headed its chain).
    pub promoted: bool,
    /// The fencing epoch the node heads its chain at.
    pub epoch: u64,
    /// The last replication sequence number it holds.
    pub last_rseq: u64,
}

/// Why [`promote_self`] refused; each variant carries its message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PromoteError {
    /// This node is a chain replica but not its chain's successor: a
    /// conflict with the ring (`409`).
    NotSuccessor(String),
    /// The store could not be promoted — it is in memory, or removing
    /// its replica marker failed (`503`, retryable).
    Store(String),
}

/// Make this node its chain's head — the one promotion path, run by the
/// detector after its quorum check and by `POST /v1/replication/promote`
/// without one. A chain replica promotes its store (WAL epoch bump),
/// rotates its chain on the ring (recording the new WAL epoch as the
/// chain's `repl_epoch`), remembers the deposed head for revival, and
/// broadcasts the rotated ring — to the deposed head too, so it stops
/// taking writes the moment it is reachable. A node already heading its
/// chain (or serving in none) only promotes a read-only store, so a
/// repeated promote never bumps the epoch twice. Only the chain's
/// successor may take over; any other replica gets an error naming it.
pub fn promote_self(state: &ServiceState) -> Result<Promotion, PromoteError> {
    let log = state
        .kbs
        .replication()
        .ok_or_else(|| PromoteError::Store("promotion requires a durable store".into()))?;
    let role = state.failover.role.lock().unwrap();
    let router = &state.shards;
    let self_addr = router.self_addr();
    let head = match router.self_chain() {
        Some(chain) if chain.head() != self_addr => {
            if chain.successor() != Some(self_addr.as_str()) {
                return Err(PromoteError::NotSuccessor(format!(
                    "only the chain's successor {} may take over its head",
                    chain.successor().unwrap_or_default()
                )));
            }
            Some(chain.head().to_string())
        }
        _ if !log.read_only() => {
            return Ok(Promotion {
                promoted: false,
                epoch: log.epoch(),
                last_rseq: log.head(),
            });
        }
        _ => None,
    };
    let (epoch, last_rseq) = state
        .kbs
        .promote()
        .map_err(|e| PromoteError::Store(e.to_string()))?;
    let rotated = head
        .as_deref()
        .and_then(|head| router.rotate_chain(head, epoch));
    drop(role);
    if let (Some(head), Some(ring)) = (head, rotated) {
        state.failover.note_deposed(&head);
        broadcast_ring(state, &ring, &[&head], None);
    }
    Ok(Promotion {
        promoted: true,
        epoch,
        last_rseq,
    })
}

// --- probing -----------------------------------------------------------------

/// What a status probe learned about a peer.
pub(crate) struct StatusView {
    /// The peer's ring epoch (0 when it is not sharded).
    pub(crate) ring_epoch: u64,
}

/// Probe `addr` over `GET /v1/replication/status`. `None` when the peer
/// is unreachable or answers anything but 200 — the detector's (and the
/// quorum voters') definition of "down".
pub(crate) fn probe_status(addr: &str) -> Option<StatusView> {
    metrics::FAILOVER_PROBES.incr();
    let response = PeerClient::connect(addr)
        .ok()?
        .request("GET", "/v1/replication/status", None)
        .ok()?;
    if response.status != 200 {
        return None;
    }
    let text = std::str::from_utf8(&response.body).ok()?;
    let doc = json::parse(text).ok()?;
    Some(StatusView {
        ring_epoch: doc.get("ring_epoch").and_then(|v| v.as_u64()).unwrap_or(0),
    })
}

/// The `POST /v1/cluster/sync` body for `ring`: the full membership list
/// plus the epoch, and on a leave the departed node as an extra handoff
/// `source`.
fn sync_body(ring: &ShardRing, source: Option<&str>) -> String {
    let members: Vec<Json> = ring.members().iter().map(|m| json::s(m.clone())).collect();
    let mut fields = vec![
        ("epoch".to_string(), json::n(ring.epoch())),
        ("members".to_string(), Json::Arr(members)),
    ];
    if let Some(src) = source {
        fields.push(("source".to_string(), json::s(src)));
    }
    Json::Obj(fields).to_text()
}

/// Post a sync `body` to one peer; `true` when it acked.
fn post_sync(target: &str, body: &str) -> bool {
    PeerClient::connect(target)
        .and_then(|mut client| client.request("POST", "/v1/cluster/sync", Some(body)))
        .map(|resp| resp.status == 200)
        .unwrap_or(false)
}

/// Push `ring` to one peer; `true` when it acked.
pub(crate) fn push_sync(target: &str, ring: &ShardRing) -> bool {
    post_sync(target, &sync_body(ring, None))
}

/// Push `ring` to every serving member (plus `extra` — e.g. a deposed
/// head, or a node that just left — no longer listed), skipping self, with
/// `source` in the body. Returns how many acked.
pub(crate) fn broadcast_ring(
    state: &ServiceState,
    ring: &ShardRing,
    extra: &[&str],
    source: Option<&str>,
) -> u64 {
    let self_addr = state.shards.self_addr();
    let body = sync_body(ring, source);
    let mut targets = ring.serving_addrs();
    for addr in extra {
        if !targets.iter().any(|t| t == addr) {
            targets.push(addr.to_string());
        }
    }
    let mut synced = 0u64;
    for target in targets {
        if target != self_addr && post_sync(&target, &body) {
            synced += 1;
        }
    }
    synced
}

// --- the detector thread -----------------------------------------------------

/// Spawn the failure detector, or `None` when it is disabled
/// (`--probe-interval-ms 0`) or the store has no replication log
/// (in-memory stores cannot chain).
pub fn spawn_detector(state: Arc<ServiceState>) -> Option<JoinHandle<()>> {
    if state.config.probe_interval_ms == 0 || state.kbs.replication().is_none() {
        return None;
    }
    Some(
        thread::Builder::new()
            .name("arbitrex-failover".to_string())
            .spawn(move || run_detector(&state))
            .expect("spawn failover detector"),
    )
}

fn run_detector(state: &Arc<ServiceState>) {
    let interval = Duration::from_millis(state.config.probe_interval_ms);
    let suspect_after = state.config.suspect_after.max(1);
    let mut consecutive_failures: u32 = 0;
    while !state.failover.stopped() {
        reconcile_role(state);
        tick(state, &mut consecutive_failures, suspect_after);
        sleep_interval(state, interval);
    }
}

/// Sleep one probe interval in short slices so shutdown stays prompt.
fn sleep_interval(state: &ServiceState, interval: Duration) {
    let deadline = Instant::now() + interval;
    let slice = Duration::from_millis(20);
    while !state.failover.stopped() {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        thread::sleep(slice.min(deadline - now));
    }
}

fn tick(state: &Arc<ServiceState>, consecutive_failures: &mut u32, suspect_after: u32) {
    let router = &state.shards;
    let Some(chain) = router.self_chain() else {
        return;
    };
    let self_addr = router.self_addr();
    if chain.head() == self_addr {
        *consecutive_failures = 0;
        head_tick(state, router, &chain);
        return;
    }
    let head = chain.head().to_string();
    match probe_status(&head) {
        Some(status) => {
            *consecutive_failures = 0;
            // Ring anti-entropy upward: a head answering with an older
            // ring epoch missed a broadcast — push ours.
            if status.ring_epoch < router.epoch() {
                push_sync(&head, &router.ring());
            }
        }
        None => {
            metrics::FAILOVER_PROBE_FAILURES.incr();
            *consecutive_failures += 1;
            if *consecutive_failures >= suspect_after
                && chain.successor() == Some(self_addr.as_str())
            {
                if confirm_death(router, &head) && promote_self(state).is_ok_and(|p| p.promoted) {
                    metrics::FAILOVER_AUTO_PROMOTIONS.incr();
                }
                // Both outcomes restart the suspicion count: a veto
                // means the head is alive behind a partition (probe
                // again from scratch), a promotion changes roles.
                *consecutive_failures = 0;
            }
        }
    }
}

/// The quorum check: ask every other serving member to probe the
/// suspect. Any voter that reaches it vetoes the promotion; no
/// responding voters at all (while some are configured) aborts too,
/// because this node cannot tell the head's partition from its own.
fn confirm_death(router: &ShardRouter, head: &str) -> bool {
    metrics::FAILOVER_SUSPICIONS.incr();
    let self_addr = router.self_addr();
    let voters: Vec<String> = router
        .ring()
        .serving_addrs()
        .into_iter()
        .filter(|a| a != &self_addr && a != head)
        .collect();
    if voters.is_empty() {
        // A two-node chain has nobody to ask: the successor decides.
        return true;
    }
    let body = json::obj([("addr", json::s(head))]).to_text();
    let mut responders = 0u32;
    for voter in &voters {
        let Ok(mut client) = PeerClient::connect(voter) else {
            continue;
        };
        let Ok(response) = client.request("POST", "/v1/cluster/probe", Some(&body)) else {
            continue;
        };
        if response.status != 200 {
            continue;
        }
        responders += 1;
        let reachable = std::str::from_utf8(&response.body)
            .ok()
            .and_then(|text| json::parse(text).ok())
            .and_then(|doc| doc.get("reachable").and_then(|v| v.as_bool()))
            .unwrap_or(false);
        if reachable {
            metrics::FAILOVER_QUORUM_VETOES.incr();
            return false;
        }
    }
    responders > 0
}

/// What a chain head does each tick: shepherd deposed predecessors back
/// in, and push the current ring to chain members whose epoch lags.
fn head_tick(state: &Arc<ServiceState>, router: &ShardRouter, chain: &ChainEntry) {
    let self_addr = router.self_addr();
    for addr in state.failover.deposed_snapshot() {
        if probe_status(&addr).is_none() {
            continue;
        }
        // The revived head may hold commits it acked but never shipped
        // before dying: absorb them with Δ arbitration *before*
        // re-enlisting it, so the chain's history subsumes its own.
        metrics::FAILOVER_RECONCILES.incr();
        if replication::reconcile_with_peer(state, &addr).is_err() {
            continue; // answered, then died again: retry next tick
        }
        // None => already serving somewhere: nothing to re-add.
        if let Some(ring) = router.enlist_member(&self_addr, &addr) {
            broadcast_ring(state, &ring, &[], None);
        }
        state.failover.forget_deposed(&addr);
    }
    // Ring anti-entropy downward: a replica that missed the rotation
    // broadcast keeps routing (and fencing writes) by the old ring.
    let ring = router.ring();
    for member in chain.members() {
        if *member == self_addr {
            continue;
        }
        let Some(status) = probe_status(member) else {
            continue;
        };
        if status.ring_epoch < ring.epoch() {
            push_sync(member, &ring);
        }
    }
}
