//! Endpoint dispatch: the service protocol over parsed requests.
//!
//! Every handler is a pure function of the shared [`ServiceState`] and one
//! [`Request`], returning a [`Response`] — the connection loop in
//! `server.rs` owns all socket I/O. The protocol table lives in the
//! workspace README ("Serving").

use std::time::{Duration, Instant};

use crate::answer::AnswerWriter;
use crate::failover::{self, PromoteError};
use crate::http::{Request, Response};
use crate::json::{self, obj, Json};
use crate::kb::{self, CommitError, Next, StoredKb};
use crate::metrics;
use crate::replication::{
    self, FetchOutcome, PeerClient, PeerResponse, ReplLog, NET_DELAY, POLL_WAIT,
};
use crate::shard::{self, Placement, ShardRouter};
use crate::ServiceState;

use arbitrex_core::iterated::iterate_fixed_input;
use arbitrex_core::{
    budgeted_operator, budgeted_operator_names, try_arbitrate_with_budget,
    try_warbitrate_with_budget, Budget, BudgetedChangeOperator, FaultFamily, FaultSite, Quality,
    WeightedKb,
};
use arbitrex_logic::{
    parse as parse_formula, read_cover, Cover, Formula, ModelSet, Sig, ENUM_LIMIT,
};

/// Longest artificial `hold_ms` accepted: a request's `hold_ms` field
/// makes its worker sleep before computing, a load-testing knob for
/// exercising queue overflow.
pub const MAX_HOLD_MS: u64 = 10_000;
/// Most models listed verbatim in a response; larger sets report
/// `n_models` and set `models_truncated`.
pub const MAX_LISTED_MODELS: usize = 256;
/// Cap on `max_steps` for the KB `iterate` action.
pub const MAX_ITERATE_STEPS: usize = 256;

/// Route and handle one request, recording request/latency/response-class
/// telemetry.
pub fn dispatch(state: &ServiceState, req: &Request) -> Response {
    metrics::REQUESTS.incr();
    let start = Instant::now();
    let (histogram, response) = route(state, req);
    if let Some(h) = histogram {
        h.record_nanos(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
    }
    metrics::record_response(response.status);
    response
}

type Routed = (Option<&'static arbitrex_telemetry::Histogram>, Response);

fn route(state: &ServiceState, req: &Request) -> Routed {
    // Split the query string off the target; only the replication WAL
    // endpoint uses one, but a stray `?` must not break path matching.
    let (path, query) = match req.path.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (req.path.as_str(), None),
    };
    if let Some(name) = path.strip_prefix("/v1/kb/") {
        return (Some(&metrics::LATENCY_KB), handle_kb(state, req, name));
    }
    if let Some(action) = path.strip_prefix("/v1/replication/") {
        return (
            Some(&metrics::LATENCY_REPL),
            handle_replication(state, req, action, query),
        );
    }
    if let Some(action) = path.strip_prefix("/v1/cluster/") {
        return (
            Some(&metrics::LATENCY_CLUSTER),
            handle_cluster(state, req, action),
        );
    }
    match (req.method.as_str(), path) {
        ("GET", "/v1/kbs") => (Some(&metrics::LATENCY_CLUSTER), handle_kbs(state)),
        ("GET", "/metrics") => (Some(&metrics::LATENCY_METRICS), handle_metrics(state)),
        ("POST", "/v1/arbitrate") => (
            Some(&metrics::LATENCY_ARBITRATE),
            handle_arbitrate(state, req),
        ),
        ("POST", "/v1/fit") => (Some(&metrics::LATENCY_FIT), handle_fit(state, req)),
        ("POST", "/v1/warbitrate") => (
            Some(&metrics::LATENCY_WARBITRATE),
            handle_warbitrate(state, req),
        ),
        (_, "/metrics" | "/v1/arbitrate" | "/v1/fit" | "/v1/warbitrate" | "/v1/kbs") => {
            (None, error_response(405, "method not allowed"))
        }
        _ => (None, error_response(404, "no such endpoint")),
    }
}

/// The stored state a request reads or writes, for ordering one
/// connection's pipelined requests (RFC 9112 §9.3.2 lets a server process
/// in parallel only requests that cannot observe each other).
#[derive(Debug)]
pub(crate) struct Access {
    /// Any method but `GET` may change what it touches.
    writes: bool,
    /// One KB (`/v1/kb/{name}`), or `None` for all state: the KB list,
    /// replication, the cluster ring, and unknown paths.
    kb: Option<String>,
}

impl Access {
    /// Must one of the two wait for the other? Only when one writes and
    /// they may touch the same KB.
    pub(crate) fn conflicts(&self, other: &Access) -> bool {
        (self.writes || other.writes)
            && match (&self.kb, &other.kb) {
                (Some(a), Some(b)) => a == b,
                _ => true,
            }
    }
}

/// What `req` touches, read off the same paths [`route`] matches; `None`
/// for the pure queries `/v1/arbitrate`, `/v1/fit`, `/v1/warbitrate` and
/// for `/metrics`, which touch no stored state. The event loop dispatches
/// a request only once no earlier, still-computing request on its
/// connection conflicts with it, so one connection's writes to a KB apply
/// in request order and its later reads of that KB see them.
pub(crate) fn access(req: &Request) -> Option<Access> {
    let path = req.path.split('?').next().unwrap_or_default();
    if let "/v1/arbitrate" | "/v1/fit" | "/v1/warbitrate" | "/metrics" = path {
        return None;
    }
    Some(Access {
        writes: req.method != "GET",
        kb: path.strip_prefix("/v1/kb/").map(str::to_string),
    })
}

/// The uniform error body: `{"error": "...", "code": N}`.
pub fn error_response(status: u16, message: impl Into<String>) -> Response {
    let body = obj([
        ("error", json::s(message.into())),
        ("code", json::n(status as u64)),
    ]);
    Response::json(status, body.to_text())
}

fn ok(body: Json) -> Response {
    Response::json(200, body.to_text())
}

// --- request decoding helpers ----------------------------------------------

fn body_json(req: &Request) -> Result<Json, Response> {
    let text =
        std::str::from_utf8(&req.body).map_err(|_| error_response(400, "body is not UTF-8"))?;
    json::parse(text).map_err(|e| error_response(400, format!("invalid JSON: {e}")))
}

fn field_str<'a>(body: &'a Json, key: &str) -> Result<&'a str, Response> {
    body.get(key)
        .ok_or_else(|| error_response(400, format!("missing field `{key}`")))?
        .as_str()
        .ok_or_else(|| error_response(400, format!("field `{key}` must be a string")))
}

fn field_u64(body: &Json, key: &str) -> Result<Option<u64>, Response> {
    match body.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            error_response(400, format!("field `{key}` must be a non-negative integer"))
        }),
    }
}

fn parse_field(sig: &mut Sig, key: &str, text: &str) -> Result<Formula, Response> {
    parse_formula(sig, text)
        .map_err(|e| error_response(400, format!("field `{key}` does not parse: {e}")))
}

/// The formula fields `keys` of `body` as model sets over one signature
/// `sig`, which interns their names in field order. Each field is read as
/// a cube cover with no `Formula` built; one the reader declines is
/// parsed instead (and counted in `formula_fallbacks`), which interns the
/// same names, so the answer and every error text are the same either
/// way. The width is checked against [`ENUM_LIMIT`] once all fields are
/// read, before any model is enumerated: every query route's one width
/// check, with one 400 text.
fn read_sides<const K: usize>(
    sig: &mut Sig,
    body: &Json,
    keys: [&str; K],
) -> Result<[ModelSet; K], Response> {
    enum Side {
        Cover(Cover),
        Parsed(Formula),
    }
    let mut sides = Vec::with_capacity(K);
    for key in keys {
        let text = field_str(body, key)?;
        sides.push(match read_cover(sig, text) {
            Some(cover) => Side::Cover(cover),
            None => {
                metrics::FORMULA_FALLBACKS.incr();
                Side::Parsed(parse_field(sig, key, text)?)
            }
        });
    }
    check_width(sig.width())?;
    let n = sig.width();
    let sets = sides
        .iter()
        .map(|side| match side {
            Side::Cover(cover) => ModelSet::try_of_cover(cover, n),
            Side::Parsed(f) => ModelSet::try_of_formula(f, n),
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| error_response(400, e.to_string()))?;
    Ok(sets.try_into().expect("one set per key"))
}

fn check_width(n_vars: u32) -> Result<(), Response> {
    if n_vars > ENUM_LIMIT {
        return Err(error_response(
            400,
            format!("{n_vars} variables exceed the enumeration limit of {ENUM_LIMIT}"),
        ));
    }
    Ok(())
}

/// Build the request budget and apply the synthetic `hold_ms` latency.
///
/// `timeout_ms` in the body overrides the server default (`0` means an
/// immediate deadline — useful for forcing degraded responses in tests);
/// an absent field uses the server default, where `0` means unlimited.
/// `hold_ms` makes the worker sleep before computing, a documented
/// load-testing knob for exercising queue overflow.
fn budget_and_hold(body: &Json, state: &ServiceState) -> Result<Budget, Response> {
    if let Some(hold) = field_u64(body, "hold_ms")? {
        std::thread::sleep(Duration::from_millis(hold.min(MAX_HOLD_MS)));
    }
    let mut budget = Budget::unlimited();
    match field_u64(body, "timeout_ms")? {
        Some(ms) => budget = budget.with_deadline(Duration::from_millis(ms)),
        None if state.config.timeout_ms > 0 => {
            budget = budget.with_deadline(Duration::from_millis(state.config.timeout_ms));
        }
        None => {}
    }
    if let Some(steps) = field_u64(body, "max_steps")? {
        budget = budget.with_step_limit(steps);
    }
    Ok(budget)
}

/// Count a degraded answer in `degraded`; [`AnswerWriter`] writes the
/// answer's body.
fn note_quality(quality: Quality) {
    if quality != Quality::Exact {
        metrics::DEGRADED.incr();
    }
}

// --- endpoint handlers ------------------------------------------------------

fn handle_metrics(state: &ServiceState) -> Response {
    let mut text = metrics::metrics_json();
    let (role, epoch, head, visible, lag) = match state.kbs.replication() {
        Some(log) => (
            if log.read_only() { 0 } else { 1 },
            log.epoch(),
            log.head(),
            log.visible(),
            log.last_seen_head().saturating_sub(log.visible()),
        ),
        None => (1, 0, 0, 0, 0),
    };
    let router = &state.shards;
    let ring = router.ring();
    let (chain_length, chain_position) = match router.self_chain() {
        Some(chain) => {
            let pos = chain
                .members()
                .iter()
                .position(|m| *m == router.self_addr())
                .unwrap_or(0);
            (chain.members().len(), pos)
        }
        None => (0, 0),
    };
    let (ring_epoch, ring_members) = (ring.epoch(), ring.members().len());
    let deposed_heads = state.failover.deposed_count();
    // Splice live gauge values (KB count, replication watermarks, ring
    // and chain state) into the document.
    let gauges = format!(
        ", \"gauges\": {{\"kb_count\": {}, \"replication_role\": {role}, \"replication_epoch\": {epoch}, \"replication_head\": {head}, \"replication_visible\": {visible}, \"replication_lag\": {lag}, \"shard_ring_epoch\": {ring_epoch}, \"shard_members\": {ring_members}, \"chain_length\": {chain_length}, \"chain_position\": {chain_position}, \"deposed_heads\": {deposed_heads}}}}}",
        state.kbs.len(),
    );
    text.truncate(text.len() - 1);
    text.push_str(&gauges);
    Response::json(200, text)
}

fn handle_arbitrate(state: &ServiceState, req: &Request) -> Response {
    let body = match body_json(req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    match arbitrate_inner(state, &body) {
        Ok(resp) => resp,
        Err(resp) => resp,
    }
}

fn arbitrate_inner(state: &ServiceState, body: &Json) -> Result<Response, Response> {
    let budget = budget_and_hold(body, state)?;
    let mut sig = Sig::new();
    let [psi, phi] = read_sides(&mut sig, body, ["psi", "phi"])?;
    let outcome = try_arbitrate_with_budget(&psi, &phi, &budget)
        .map_err(|e| error_response(400, e.to_string()))?;
    note_quality(outcome.quality);
    let body = AnswerWriter::new(&sig)
        .str("endpoint", "arbitrate")
        .outcome(&outcome)
        .finish();
    Ok(Response::json(200, body))
}

fn handle_fit(state: &ServiceState, req: &Request) -> Response {
    let body = match body_json(req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    match fit_inner(state, &body) {
        Ok(resp) => resp,
        Err(resp) => resp,
    }
}

/// The `op` field of a request body, `odist` when absent.
fn op_field(body: &Json) -> Result<&str, Response> {
    match body.get("op") {
        None => Ok("odist"),
        Some(v) => v
            .as_str()
            .ok_or_else(|| error_response(400, "field `op` must be a string")),
    }
}

/// The budgeted operator a fit names in its `op` field, with the name as
/// given; shared by `/v1/fit` and the KB `fit` action.
fn fit_operator(body: &Json) -> Result<(&str, Box<dyn BudgetedChangeOperator>), Response> {
    let op_name = op_field(body)?;
    let op = budgeted_operator(op_name).ok_or_else(|| {
        error_response(
            400,
            format!(
                "unknown operator `{op_name}`; budgeted operators: {}",
                budgeted_operator_names().join(", ")
            ),
        )
    })?;
    Ok((op_name, op))
}

fn fit_inner(state: &ServiceState, body: &Json) -> Result<Response, Response> {
    let (op_name, op) = fit_operator(body)?;
    let budget = budget_and_hold(body, state)?;
    let mut sig = Sig::new();
    let [psi, mu] = read_sides(&mut sig, body, ["psi", "mu"])?;
    let outcome = op.apply_with_budget(&psi, &mu, &budget);
    note_quality(outcome.quality);
    let body = AnswerWriter::new(&sig)
        .str("endpoint", "fit")
        .str("op", op_name)
        .outcome(&outcome)
        .finish();
    Ok(Response::json(200, body))
}

fn handle_warbitrate(state: &ServiceState, req: &Request) -> Response {
    let body = match body_json(req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    match warbitrate_inner(state, &body) {
        Ok(resp) => resp,
        Err(resp) => resp,
    }
}

/// `models` with every model carrying `weight`: the uniform-source
/// reading of a `/v1/warbitrate` side.
fn weighted_side(models: &ModelSet, weight: u64) -> WeightedKb {
    WeightedKb::from_weights(models.n_vars(), models.iter().map(|i| (i, weight)))
}

fn warbitrate_inner(state: &ServiceState, body: &Json) -> Result<Response, Response> {
    let budget = budget_and_hold(body, state)?;
    let psi_weight = field_u64(body, "psi_weight")?.unwrap_or(1);
    let phi_weight = field_u64(body, "phi_weight")?.unwrap_or(1);
    if psi_weight == 0 || phi_weight == 0 {
        return Err(error_response(400, "weights must be at least 1"));
    }
    let mut sig = Sig::new();
    let [psi, phi] = read_sides(&mut sig, body, ["psi", "phi"])?;
    let n = sig.width();
    let psi = weighted_side(&psi, psi_weight);
    let phi = weighted_side(&phi, phi_weight);
    for (key, side) in [("psi", &psi), ("phi", &phi)] {
        if !side.is_satisfiable() {
            return Err(error_response(
                400,
                format!("field `{key}` is unsatisfiable; weighted sources need models"),
            ));
        }
    }
    let outcome = try_warbitrate_with_budget(&psi, &phi, &budget)
        .map_err(|e| error_response(400, e.to_string()))?;
    note_quality(outcome.quality);
    let body = AnswerWriter::new(&sig)
        .str("endpoint", "warbitrate")
        .str("quality", outcome.quality.name())
        .num("n_vars", n as u64)
        .num("support_size", outcome.kb.support_size() as u64)
        .support(outcome.kb.support(), outcome.kb.support_size())
        .num("total_weight", outcome.kb.total_weight() as u64)
        .spent(&outcome.spent)
        .finish();
    Ok(Response::json(200, body))
}

// --- the replication endpoints ----------------------------------------------

fn handle_replication(
    state: &ServiceState,
    req: &Request,
    action: &str,
    query: Option<&str>,
) -> Response {
    let log = match state.kbs.replication() {
        Some(log) => log,
        None => {
            return error_response(
                503,
                "replication requires a durable store (start with --state-dir)",
            )
        }
    };
    match (req.method.as_str(), action) {
        ("GET", "wal") => repl_wal(state, log, query),
        ("GET", "snapshot") => repl_snapshot(state),
        ("GET", "status") => repl_status(state, log),
        ("POST", "promote") => repl_promote(state),
        ("POST", "reconcile") => repl_reconcile(state, req),
        (_, "wal" | "snapshot" | "status" | "promote" | "reconcile") => {
            error_response(405, "method not allowed")
        }
        _ => error_response(404, "no such endpoint"),
    }
}

/// `GET /v1/replication/wal?from_seq=N`: a chunked batch of stamped WAL
/// frames from cursor `N` (one frame per HTTP chunk), long-polling
/// briefly when the replica is caught up. `409` with `resync: true`
/// when the cursor is older than frame retention. The configured
/// `net_*` fault plan is injected here — this endpoint *is* the
/// replication transport.
fn repl_wal(state: &ServiceState, log: &ReplLog, query: Option<&str>) -> Response {
    let from = query
        .into_iter()
        .flat_map(|q| q.split('&'))
        .find_map(|kv| kv.strip_prefix("from_seq="))
        .and_then(|v| v.parse::<u64>().ok());
    let from = match from {
        Some(v) => v,
        None => return error_response(400, "query `from_seq=N` is required"),
    };
    if injected(state, FaultSite::NetPartition) {
        return partition_refusal();
    }
    if injected(state, FaultSite::NetDelay) {
        std::thread::sleep(NET_DELAY);
    }
    match log.fetch(from, POLL_WAIT) {
        FetchOutcome::ResyncRequired { floor } => {
            let body = obj([
                (
                    "error",
                    json::s(format!(
                        "cursor {from} is below the retention floor {floor}; resync from a snapshot"
                    )),
                ),
                ("code", json::n(409)),
                ("resync", Json::Bool(true)),
                ("floor", json::n(floor)),
            ]);
            Response::json(409, body.to_text())
        }
        FetchOutcome::Frames { frames, head } => {
            metrics::REPL_BATCHES_SERVED.incr();
            let mut chunks = Vec::with_capacity(frames.len());
            let mut abort = false;
            for frame in &frames {
                if injected(state, FaultSite::NetDrop) {
                    // Cut the stream: no terminator, socket closed.
                    abort = true;
                    break;
                }
                if injected(state, FaultSite::NetTorn) {
                    // Corrupt in transit; the replica's CRC check must
                    // refuse this frame.
                    let mut torn = frame.bytes.clone();
                    let last = torn.len() - 1;
                    torn[last] ^= 0x01;
                    chunks.push(torn);
                    metrics::REPL_FRAMES_SHIPPED.incr();
                    continue;
                }
                if injected(state, FaultSite::NetDup) {
                    chunks.push(frame.bytes.clone());
                }
                chunks.push(frame.bytes.clone());
                metrics::REPL_FRAMES_SHIPPED.incr();
            }
            let mut response = Response::binary_chunked(200, chunks);
            response.chunk_abort = abort;
            response
                .extra_headers
                .push(("X-Arbitrex-Epoch", log.epoch().to_string()));
            response
                .extra_headers
                .push(("X-Arbitrex-Head", head.to_string()));
            response
        }
    }
}

/// Charge one event at a `net_*` or `shard_*` site of the server's fault
/// trigger; a misfire is counted in `net_faults` or `shard_faults`.
fn injected(state: &ServiceState, site: FaultSite) -> bool {
    let fired = state.config.faults.fire(site);
    if fired {
        match site.family() {
            FaultFamily::Net => metrics::REPL_NET_FAULTS.incr(),
            _ => metrics::SHARD_FAULTS.incr(),
        }
    }
    fired
}

/// The 503 a request refused by an injected `net_partition` gets; the
/// connection closes as a partitioned link would.
fn partition_refusal() -> Response {
    let mut refused = error_response(503, "injected fault: network partition");
    refused.force_close = true;
    refused
}

/// `GET /v1/replication/snapshot`: the deterministic in-memory snapshot
/// image of the current state, for replica resync.
fn repl_snapshot(state: &ServiceState) -> Response {
    match state.kbs.snapshot_image() {
        Ok(bytes) => Response::binary_chunked(200, vec![bytes]),
        Err(e) => error_response(500, e.to_string()),
    }
}

/// `GET /v1/replication/status`: role, epoch, watermarks, and the ring
/// epoch this node routes by. This endpoint doubles as the failure
/// detector's probe, so the configured `net_partition` fault is
/// injected here too — chaos runs can make a healthy head *look* dead
/// to its probers and exercise the quorum veto.
fn repl_status(state: &ServiceState, log: &ReplLog) -> Response {
    if injected(state, FaultSite::NetPartition) {
        return partition_refusal();
    }
    ok(obj([
        ("ring_epoch", json::n(state.shards.epoch())),
        (
            "role",
            json::s(if log.read_only() {
                "replica"
            } else {
                "primary"
            }),
        ),
        ("epoch", json::n(log.epoch())),
        ("head", json::n(log.head())),
        ("visible", json::n(log.visible())),
        ("floor", json::n(log.floor())),
        ("last_seen_head", json::n(log.last_seen_head())),
    ]))
}

/// `POST /v1/replication/promote`: operator failover. On a chain
/// replica this is the detector's promotion minus the quorum check —
/// promote the store, rotate the chain, broadcast the rotated ring. On
/// a node already heading its chain it changes nothing and answers the
/// current epoch. A replica that is not its chain's successor gets a
/// `409`; a store that cannot be promoted a retryable `503`.
fn repl_promote(state: &ServiceState) -> Response {
    match failover::promote_self(state) {
        Ok(p) => ok(obj([
            ("promoted", Json::Bool(p.promoted)),
            ("epoch", json::n(p.epoch)),
            ("last_rseq", json::n(p.last_rseq)),
        ])),
        Err(PromoteError::NotSuccessor(message)) => error_response(409, message),
        Err(PromoteError::Store(message)) => error_response(503, message),
    }
}

/// `POST /v1/replication/reconcile {"peer": "host:port"}`: one
/// anti-entropy pass merging divergent KBs with `Δ` arbitration.
fn repl_reconcile(state: &ServiceState, req: &Request) -> Response {
    let body = match body_json(req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    let peer = match field_str(&body, "peer") {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    match replication::reconcile_with_peer(state, peer) {
        Ok(summary) => ok(replication::summary_json(peer, &summary)),
        Err(message) => error_response(502, message),
    }
}

// --- sharding: listing and cluster membership -------------------------------

/// `GET /v1/kbs`: every KB on this node with its sequence number and
/// name-bound content hash (`kb::theory_digest`) — the listing
/// shard handoff and anti-entropy (and operators) walk.
fn handle_kbs(state: &ServiceState) -> Response {
    let kbs: Vec<Json> = state
        .kbs
        .digest()
        .into_iter()
        .map(|(name, seq, hash)| {
            obj([
                ("name", json::s(name)),
                ("seq", json::n(seq)),
                ("hash", json::s(format!("{hash:016x}"))),
            ])
        })
        .collect();
    let epoch = state.kbs.replication().map(|log| log.epoch()).unwrap_or(0);
    ok(obj([
        ("count", json::n(kbs.len() as u64)),
        ("epoch", json::n(epoch)),
        ("ring_epoch", json::n(state.shards.epoch())),
        ("kbs", Json::Arr(kbs)),
    ]))
}

/// Claim this node's membership slot for `join`/`leave`/`sync`/`enlist`,
/// or the typed 503 that refuses the call. Each of them blocks its
/// worker while peers call back into this node, so a one-worker node
/// would deadlock on itself; and two overlapping operations would
/// clobber each other's write fence.
fn membership_slot(state: &ServiceState) -> Result<std::sync::MutexGuard<'_, ()>, Response> {
    if state.config.threads < 2 {
        return Err(error_response(
            503,
            "membership changes need at least 2 worker threads (a member answers peer \
             pulls while its own membership handler blocks); restart with --threads 2 or more",
        ));
    }
    state
        .shards
        .try_membership()
        .ok_or_else(membership_busy_response)
}

fn handle_cluster(state: &ServiceState, req: &Request, action: &str) -> Response {
    match (req.method.as_str(), action) {
        ("GET", "ring") => cluster_ring(state),
        ("POST", "join") => cluster_membership(state, req, true),
        ("POST", "leave") => cluster_membership(state, req, false),
        ("POST", "sync") => cluster_sync(state, req),
        ("POST", "release") => cluster_release(state, req),
        ("POST", "probe") => cluster_probe(req),
        ("POST", "enlist") => cluster_enlist(state, req),
        (_, "ring" | "join" | "leave" | "sync" | "release" | "probe" | "enlist") => {
            error_response(405, "method not allowed")
        }
        _ => error_response(404, "unknown cluster action"),
    }
}

/// `GET /v1/cluster/ring`: the membership view this node routes by.
fn cluster_ring(state: &ServiceState) -> Response {
    let router = &state.shards;
    let ring = router.ring();
    let members: Vec<Json> = ring.members().iter().map(|m| json::s(m.clone())).collect();
    let owned_here = state
        .kbs
        .committed(|_| ())
        .iter()
        .filter(|(name, _, _)| matches!(router.place(name), Placement::Local))
        .count();
    ok(obj([
        ("epoch", json::n(ring.epoch())),
        ("self", json::s(router.self_addr())),
        ("vnodes", json::n(ring.vnodes() as u64)),
        ("members", Json::Arr(members)),
        ("kbs_here", json::n(state.kbs.len() as u64)),
        ("owned_here", json::n(owned_here as u64)),
    ]))
}

/// `POST /v1/cluster/probe {"addr": "host:port"}`: a quorum-check
/// vote. This node probes `addr` itself and reports whether it could
/// reach it — a suspecting replica asks its peers before promoting, so
/// one partitioned prober cannot depose a healthy head alone.
fn cluster_probe(req: &Request) -> Response {
    let body = match body_json(req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    let addr = match field_str(&body, "addr") {
        Ok(a) => a,
        Err(resp) => return resp,
    };
    if addr.is_empty() {
        return error_response(400, "field `addr` must be a host:port");
    }
    let reachable = failover::probe_status(addr).is_some();
    ok(obj([
        ("addr", json::s(addr)),
        ("reachable", Json::Bool(reachable)),
    ]))
}

/// `POST /v1/cluster/enlist {"host": "a", "addr": "b"}`: append `b` to
/// the chain serving `a` as its new replica tail. Chains hash by their
/// stable anchor, so enlistment moves no data and needs no write fence
/// — the grown ring just broadcasts, and the new tail demotes itself
/// and starts pulling from its head when it adopts it. This (or a chain
/// spec at boot) is the only way a node becomes a replica. Enlisting a
/// node the ring already lists re-sends it the current ring.
fn cluster_enlist(state: &ServiceState, req: &Request) -> Response {
    let router = &state.shards;
    let _membership = match membership_slot(state) {
        Ok(guard) => guard,
        Err(resp) => return resp,
    };
    let body = match body_json(req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    let host = match field_str(&body, "host") {
        Ok(h) => h,
        Err(resp) => return resp,
    };
    let addr = match field_str(&body, "addr") {
        Ok(a) => a,
        Err(resp) => return resp,
    };
    if host.is_empty() || addr.is_empty() {
        return error_response(400, "fields `host` and `addr` must be host:port");
    }
    match router.enlist_member(host, addr) {
        Some(ring) => {
            let synced = failover::broadcast_ring(state, &ring, &[], None);
            ok(obj([
                ("addr", json::s(addr)),
                ("enlisted", Json::Bool(true)),
                ("epoch", json::n(ring.epoch())),
                ("synced", json::n(synced)),
            ]))
        }
        // `host` serves nowhere, or `addr` already serves: no ring
        // change. A listed `addr` is sent the current ring again, so a
        // tail restarted on its state dir (read-only, a singleton ring
        // of its own) takes its role back.
        None => {
            let ring = router.ring();
            let resynced = ring.contains(addr)
                && addr != router.self_addr()
                && failover::push_sync(addr, &ring);
            ok(obj([
                ("addr", json::s(addr)),
                ("enlisted", Json::Bool(false)),
                ("epoch", json::n(ring.epoch())),
                ("synced", json::n(u64::from(resynced))),
            ]))
        }
    }
}

/// Rebalance sources for a node holding `ring`: every other chain
/// *head* (heads are authoritative; a replica's copy may lag its
/// chain), plus (on a leave) the departed node whose shards must drain
/// somewhere.
fn rebalance_sources(ring: &shard::ShardRing, self_addr: &str, extra: Option<&str>) -> Vec<String> {
    let mut sources: Vec<String> = ring
        .chains()
        .iter()
        .map(|c| c.head().to_string())
        .filter(|m| m.as_str() != self_addr)
        .collect();
    if let Some(addr) = extra {
        if addr != self_addr && !sources.iter().any(|s| s == addr) {
            sources.push(addr.to_string());
        }
    }
    sources
}

/// The typed refusal when two membership operations collide on one
/// node: the router has a single transition slot, and overlapping
/// operations would clobber each other's write fence — the caller
/// retries once the in-flight change completes.
fn membership_busy_response() -> Response {
    let body = obj([
        (
            "error",
            json::s("a membership change is already in progress on this node; retry"),
        ),
        ("code", json::n(503)),
    ]);
    let mut resp = Response::json(503, body.to_text());
    resp.extra_headers.push(("Retry-After", "0".to_string()));
    resp
}

/// `POST /v1/cluster/{join,leave}`: mutate membership on this node, push
/// the new ring to every affected peer (each rebalances inside its sync
/// handler), then run the local rebalance pass. Synchronous by design:
/// when the request returns, every reachable member routes by the new
/// epoch and has pulled the shards it gained. Membership operations
/// serialize through the router's single slot; a colliding operation is
/// refused with a typed 503 instead of clobbering the active fence.
fn cluster_membership(state: &ServiceState, req: &Request, join: bool) -> Response {
    let router = &state.shards;
    let _membership = match membership_slot(state) {
        Ok(guard) => guard,
        Err(resp) => return resp,
    };
    let body = match body_json(req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    let addr = match field_str(&body, "addr") {
        Ok(a) => a,
        Err(resp) => return resp,
    };
    if addr.is_empty() {
        return error_response(400, "field `addr` must be a host:port");
    }
    let before = router.ring();
    let changed = if join {
        router.add_member(addr)
    } else {
        router.remove_member(addr)
    };
    let verb = if join { "joined" } else { "left" };
    let Some(ring) = changed else {
        // Already in the requested state: idempotent no-op.
        return ok(obj([
            ("addr", json::s(addr)),
            (verb, Json::Bool(false)),
            ("epoch", json::n(router.epoch())),
        ]));
    };
    let self_addr = router.self_addr();
    let source = if join { None } else { Some(addr) };
    // Fence writes for every KB changing owner until the local
    // rebalance pass lands (peers fence themselves inside their sync
    // handlers).
    router.begin_transition(before);
    // Broadcast to every serving *address* (replicas included — they
    // route by the ring too); the departed node also gets the sync so
    // it stops answering for shards it no longer owns.
    let synced = failover::broadcast_ring(state, &ring, source.as_slice(), source);
    let summary = shard::rebalance(state, &rebalance_sources(&ring, &self_addr, source));
    router.end_transition();
    let members: Vec<Json> = ring.members().iter().map(|m| json::s(m.clone())).collect();
    ok(obj([
        ("addr", json::s(addr)),
        (verb, Json::Bool(true)),
        ("epoch", json::n(ring.epoch())),
        ("members", Json::Arr(members)),
        ("synced", json::n(synced)),
        ("rebalance", summary.to_json()),
    ]))
}

/// `POST /v1/cluster/sync`: adopt a superseding ring and immediately
/// pull the shards the new placement assigns here. A ring that does not
/// supersede under the `(epoch, member set)` total order is
/// acknowledged without action, which makes redelivery safe. Like
/// join/leave, syncs serialize through the router's membership slot.
fn cluster_sync(state: &ServiceState, req: &Request) -> Response {
    let router = &state.shards;
    let _membership = match membership_slot(state) {
        Ok(guard) => guard,
        Err(resp) => return resp,
    };
    let body = match body_json(req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    let epoch = match field_u64(&body, "epoch") {
        Ok(Some(e)) => e,
        Ok(None) => return error_response(400, "missing field `epoch`"),
        Err(resp) => return resp,
    };
    let members: Vec<String> = match body.get("members").and_then(|v| v.as_array()) {
        Some(arr) => {
            let mut out = Vec::with_capacity(arr.len());
            for v in arr {
                match v.as_str() {
                    Some(s) => out.push(s.to_string()),
                    None => return error_response(400, "field `members` must be strings"),
                }
            }
            out
        }
        None => return error_response(400, "missing field `members`"),
    };
    let source = body.get("source").and_then(|v| v.as_str());
    // Rebalance against the *candidate* ring first, adopt second: until
    // the pull completes this node routes by its old ring, so writes for
    // the migrating KBs bounce 307 between owners (brief unavailability)
    // instead of committing onto a copy the pull would overwrite.
    let mut fields = Vec::new();
    let adopted = match router.preview(&members, epoch) {
        Some(ring) if router.ring().same_placement(&ring) => {
            // Pure chain-topology change (a head rotation or a replica
            // enlistment): every name stays on its chain, so no write
            // fence and no rebalance — adopt in place.
            router.adopt(&members, epoch)
        }
        Some(ring) => {
            router.begin_transition(ring.clone());
            let sources = rebalance_sources(&ring, &router.self_addr(), source);
            let summary = shard::rebalance_onto(state, &sources, &ring);
            let adopted = router.adopt(&members, epoch);
            router.end_transition();
            fields.push(("rebalance".to_string(), summary.to_json()));
            adopted
        }
        None => false,
    };
    if adopted {
        // The adopted ring may change this node's chain role — a
        // deposed head re-listed as a tail, or a plain node enlisted
        // behind a head — so take that role, and its puller, now.
        failover::reconcile_role(state);
    }
    fields.insert(0, ("adopted".to_string(), Json::Bool(adopted)));
    fields.insert(1, ("epoch".to_string(), json::n(router.epoch())));
    ok(Json::Obj(fields))
}

/// `POST /v1/cluster/release`: the handoff's final step. The new owner
/// proves it pulled seq `seq`; the source deletes its copy only if that
/// is still the latest — a racing commit turns the release into a typed
/// 409 and the puller re-pulls. The injected `shard_handoff_torn` fault
/// fails here, leaving both copies alive for anti-entropy to reconcile.
fn cluster_release(state: &ServiceState, req: &Request) -> Response {
    let body = match body_json(req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    let name = match field_str(&body, "name") {
        Ok(n) => n,
        Err(resp) => return resp,
    };
    if !kb::valid_name(name) {
        return error_response(400, "KB names are [A-Za-z0-9_-], at most 64 chars");
    }
    let seq = match field_u64(&body, "seq") {
        Ok(Some(s)) => s,
        Ok(None) => return error_response(400, "missing field `seq`"),
        Err(resp) => return resp,
    };
    if injected(state, FaultSite::ShardHandoffTorn) {
        return error_response(503, "injected fault: shard handoff torn");
    }
    match state.kbs.delete(name, Some(seq)) {
        Ok(Some(_)) => {
            metrics::SHARD_RELEASES.incr();
            ok(obj([
                ("name", json::s(name)),
                ("released", Json::Bool(true)),
            ]))
        }
        // Already gone: the handoff converged some other way.
        Ok(None) => ok(obj([
            ("name", json::s(name)),
            ("released", Json::Bool(false)),
        ])),
        Err(CommitError::Conflict { current }) => {
            let body = obj([
                (
                    "error",
                    json::s(format!(
                        "release of `{name}` at seq {seq} conflicts with local seq {current}"
                    )),
                ),
                ("code", json::n(409)),
                ("released", Json::Bool(false)),
                ("seq", json::n(current)),
            ]);
            Response::json(409, body.to_text())
        }
        Err(CommitError::Io(e)) => error_response(500, e.to_string()),
    }
}

// --- the KB endpoint --------------------------------------------------------

/// Stamp a mutation response with the commit's replication sequence
/// number, the token follower reads pass back via `X-Arbitrex-Min-Seq`.
fn with_commit_seq(mut response: Response, rseq: u64) -> Response {
    if rseq > 0 {
        response
            .extra_headers
            .push(("X-Arbitrex-Seq", rseq.to_string()));
    }
    response
}

fn handle_kb(state: &ServiceState, req: &Request, name: &str) -> Response {
    if !kb::valid_name(name) {
        return error_response(400, "KB names are [A-Za-z0-9_-], at most 64 chars");
    }
    // Shard routing: a KB owned elsewhere is proxied (reads) or
    // redirected (writes) instead of being served from a copy that
    // would fork history. Handoff pulls and proxy legs carry the
    // internal bypass header so the source keeps serving its local copy
    // mid-migration.
    if req.header(shard::INTERNAL_HEADER).is_none() {
        if let Some(routed) = shard_route(state, &state.shards, req, name) {
            return routed;
        }
    }
    // A replica's store serves reads only; a write that reached it
    // past routing must go to the head.
    if req.method.as_str() != "GET" {
        if let Some(log) = state.kbs.replication() {
            if log.read_only() {
                return error_response(
                    503,
                    "this node is a read-only replica; write to the primary",
                );
            }
        }
    }
    let response = match req.method.as_str() {
        "GET" => kb_get(state, req, name),
        "DELETE" => kb_delete(state, name, None),
        "POST" => {
            let body = match body_json(req) {
                Ok(b) => b,
                Err(resp) => return resp,
            };
            match kb_post(state, name, &body) {
                Ok(resp) => resp,
                Err(resp) => resp,
            }
        }
        _ => error_response(405, "method not allowed"),
    };
    stamp_ring_epoch(state, response)
}

/// Every KB response carries the serving node's ring epoch so clients
/// (and the storm harness) can detect membership drift without a
/// separate poll.
fn stamp_ring_epoch(state: &ServiceState, mut response: Response) -> Response {
    response
        .extra_headers
        .push(("X-Arbitrex-Ring-Epoch", state.shards.epoch().to_string()));
    response
}

/// The typed stale-ring refusal: a client that pinned a ring epoch via
/// `X-Arbitrex-Ring-Epoch` gets 421 instead of a commit the current ring
/// would route elsewhere — the split-brain write becomes a visible retry.
fn stale_ring_response(current: u64, claimed: u64) -> Response {
    metrics::SHARD_STALE_RING_REFUSALS.incr();
    let body = obj([
        (
            "error",
            json::s(format!(
                "ring epoch {claimed} is stale; this node is at epoch {current}"
            )),
        ),
        ("code", json::n(421)),
        ("ring_epoch", json::n(current)),
        ("claimed", json::n(claimed)),
    ]);
    let mut resp = Response::json(421, body.to_text());
    resp.extra_headers
        .push(("X-Arbitrex-Ring-Epoch", current.to_string()));
    resp
}

/// Decide whether this node answers for `name` or routes away. `None`
/// means "ours: fall through to the local handlers".
fn shard_route(
    state: &ServiceState,
    router: &ShardRouter,
    req: &Request,
    name: &str,
) -> Option<Response> {
    let epoch = router.epoch();
    if let Some(claimed) = req
        .header("x-arbitrex-ring-epoch")
        .and_then(|v| v.parse::<u64>().ok())
    {
        if claimed != epoch {
            return Some(stale_ring_response(epoch, claimed));
        }
    }
    if injected(state, FaultSite::ShardRingStale) {
        // Injected: pretend the caller pinned a ring one epoch behind.
        return Some(stale_ring_response(epoch, epoch.saturating_sub(1)));
    }
    // The handoff write fence: while a membership transition is pulling
    // this KB between owners, no node accepts external writes for it —
    // a commit landing mid-pull would be overwritten by the migration.
    if req.method.as_str() != "GET" && router.in_transition(name) {
        metrics::SHARD_WRITES_FENCED.incr();
        let body = obj([
            (
                "error",
                json::s(format!(
                    "KB `{name}` is mid-handoff (ring transition in progress); retry"
                )),
            ),
            ("code", json::n(503)),
            ("ring_epoch", json::n(epoch)),
        ]);
        let mut resp = Response::json(503, body.to_text());
        resp.extra_headers.push(("Retry-After", "0".to_string()));
        resp.extra_headers
            .push(("X-Arbitrex-Ring-Epoch", epoch.to_string()));
        return Some(resp);
    }
    let placement = router.place(name);
    // Reads are served by *any* member of the owning chain — replicas
    // hold the head's KBs through WAL replication, and the
    // `X-Arbitrex-Min-Seq` gate turns replica lag into a typed 412
    // instead of a stale answer. That keeps reads available through a
    // failover blackout. A replica that has not yet caught up with its
    // head (a new tail) proxies plain reads to the head instead; a
    // min-seq read is safe here, since the gate answers it.
    if req.method.as_str() == "GET"
        && (placement == Placement::Local
            || (router.read_serves_locally(name)
                && (req.header("x-arbitrex-min-seq").is_some()
                    || state.kbs.replication().is_some_and(|log| log.caught_up()))))
    {
        return None;
    }
    match placement {
        Placement::Local => {
            // The deposed-head routing fence: the ring records each
            // chain's WAL epoch at its last rotation. A listed head
            // whose own store is *behind* that epoch is serving a
            // superseded history (a deposed head that restarted, or a
            // store rolled back under a live ring) — accepting the
            // write would fork from the chain's true timeline.
            if let (Some(log), Some(chain)) = (state.kbs.replication(), router.self_chain()) {
                if chain.repl_epoch() > log.epoch() {
                    metrics::FAILOVER_FENCED_WRITES.incr();
                    let body = obj([
                        (
                            "error",
                            json::s(format!(
                                "this node's store (epoch {}) is behind its chain's \
                                 recorded epoch {}; refusing the write until it resyncs",
                                log.epoch(),
                                chain.repl_epoch()
                            )),
                        ),
                        ("code", json::n(503)),
                        ("ring_epoch", json::n(epoch)),
                    ]);
                    let mut resp = Response::json(503, body.to_text());
                    resp.extra_headers.push(("Retry-After", "1".to_string()));
                    resp.extra_headers
                        .push(("X-Arbitrex-Ring-Epoch", epoch.to_string()));
                    return Some(resp);
                }
            }
            None
        }
        Placement::Remote(owner) => {
            if req.method.as_str() == "GET" {
                Some(shard_proxy_get(state, router, req, name, &owner, epoch))
            } else {
                metrics::SHARD_REDIRECTS.incr();
                let body = obj([
                    (
                        "error",
                        json::s(format!("KB `{name}` is owned by shard {owner}")),
                    ),
                    ("code", json::n(307)),
                    ("owner", json::s(owner.as_str())),
                ]);
                let mut resp = Response::json(307, body.to_text());
                resp.extra_headers
                    .push(("Location", format!("http://{owner}/v1/kb/{name}")));
                resp.extra_headers
                    .push(("X-Arbitrex-Shard-Owner", owner.clone()));
                resp.extra_headers
                    .push(("X-Arbitrex-Ring-Epoch", epoch.to_string()));
                Some(resp)
            }
        }
    }
}

/// How many times a proxied read is attempted before the typed 502.
const PROXY_ATTEMPTS: u32 = 3;

/// Longest slice of a peer's `Retry-After` a proxy leg will honor — a
/// read held longer than this is better answered by the next chain
/// member than by waiting out the peer's estimate.
const PROXY_RETRY_CAP: Duration = Duration::from_millis(250);

/// One proxy leg to `target`; `Err` is a transport failure.
fn proxy_leg(
    state: &ServiceState,
    target: &str,
    name: &str,
    min_seq: Option<&str>,
) -> Result<PeerResponse, String> {
    if injected(state, FaultSite::ShardProxyDrop) {
        return Err("injected fault: shard proxy dropped".to_string());
    }
    let mut headers = vec![(shard::INTERNAL_HEADER, "1")];
    if let Some(min) = min_seq {
        headers.push(("x-arbitrex-min-seq", min));
    }
    PeerClient::connect(target)
        .map_err(|e| format!("connect {target}: {e}"))
        .and_then(|mut client| {
            client
                .request_with_headers("GET", &format!("/v1/kb/{name}"), None, &headers)
                .map_err(|e| format!("proxy to {target}: {e}"))
        })
}

/// A peer's `Retry-After` header in seconds, if it sent one.
fn retry_after_of(peer: &PeerResponse) -> Option<Duration> {
    peer.headers
        .iter()
        .find(|(k, _)| k == "retry-after")
        .and_then(|(_, v)| v.trim().parse::<u64>().ok())
        .map(Duration::from_secs)
}

/// Proxy a read to the owning chain. The forwarded request carries the
/// internal bypass header (so the target serves even mid-handoff) and
/// the caller's read-your-writes watermark, if any. Transient failures
/// — transport errors, 503 (fenced or mid-transition), 421 (stale
/// ring) — are retried with the replication puller's jittered
/// capped-exponential backoff, walking down the owning chain (head
/// first, then replicas) so a read stays answerable through a failover
/// blackout; a peer's `Retry-After` is honored up to a cap.
fn shard_proxy_get(
    state: &ServiceState,
    router: &ShardRouter,
    req: &Request,
    name: &str,
    owner: &str,
    epoch: u64,
) -> Response {
    let mut targets = router.read_targets(name);
    if targets.is_empty() {
        targets.push(owner.to_string());
    }
    let min_seq = req.header("x-arbitrex-min-seq").map(str::to_string);
    // Deterministic per-name seed: tests can assert the jitter band.
    let seed = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    });
    let mut backoff = replication::Backoff::new(seed);
    let mut last_failure = String::new();
    for attempt in 0..PROXY_ATTEMPTS {
        let target = &targets[attempt as usize % targets.len()];
        let retry_after = match proxy_leg(state, target, name, min_seq.as_deref()) {
            Ok(peer) if peer.status != 503 && peer.status != 421 => {
                metrics::SHARD_PROXIED_READS.incr();
                // Mid-handoff read race: the ring already points at the
                // new owner but the pull has not landed there yet, so
                // the local copy (not yet released) is still the truth —
                // serve it. Scoped strictly to an active transition:
                // outside one, the owner's 404 is authoritative, and a
                // stale leftover copy (e.g. after a torn handoff) must
                // not resurrect a KB that was legitimately deleted.
                let fallback = (peer.status == 404 && router.in_transition(name))
                    .then(|| local_kb_view(state, name))
                    .flatten();
                let mut resp = match fallback {
                    Some(local) => ok(local),
                    None => match String::from_utf8(peer.body) {
                        Ok(text) => Response::json(peer.status, text),
                        Err(_) => {
                            error_response(502, format!("shard {target} returned a non-JSON body"))
                        }
                    },
                };
                resp.extra_headers
                    .push(("X-Arbitrex-Shard-Owner", target.to_string()));
                resp.extra_headers
                    .push(("X-Arbitrex-Ring-Epoch", epoch.to_string()));
                return resp;
            }
            Ok(peer) => {
                last_failure = format!("shard {target} refused with {}", peer.status);
                retry_after_of(&peer)
            }
            Err(message) => {
                last_failure = message;
                None
            }
        };
        if attempt + 1 < PROXY_ATTEMPTS {
            metrics::FAILOVER_PROXY_RETRIES.incr();
            let mut delay = backoff.next_delay();
            if let Some(hint) = retry_after {
                delay = delay.max(hint.min(PROXY_RETRY_CAP));
            }
            std::thread::sleep(delay);
        }
    }
    metrics::SHARD_PROXY_FAILURES.incr();
    let mut resp = error_response(
        502,
        format!("{last_failure} (after {PROXY_ATTEMPTS} attempts)"),
    );
    resp.extra_headers
        .push(("X-Arbitrex-Shard-Owner", owner.to_string()));
    resp.extra_headers
        .push(("X-Arbitrex-Ring-Epoch", epoch.to_string()));
    resp
}

/// The local copy of `name` as a response body, if this node holds a
/// committed copy (seq > 0).
fn local_kb_view(state: &ServiceState, name: &str) -> Option<Json> {
    state.kbs.read(name, |kb| kb_view(name, kb))
}

fn no_kb(name: &str) -> Response {
    error_response(404, format!("no KB named `{name}`"))
}

fn kb_view(name: &str, kb: &StoredKb) -> Json {
    obj([
        ("name", json::s(name)),
        ("formula", json::s(kb.formula.display(&kb.sig).to_string())),
        ("n_vars", json::n(kb.sig.width() as u64)),
        ("seq", json::n(kb.seq)),
    ])
}

/// The typed optimistic-concurrency failure: 409 carrying both the
/// sequence number actually current and the one the caller guarded on,
/// so the client can re-read and retry.
fn conflict_response(current: u64, wanted: u64) -> Response {
    let body = obj([
        (
            "error",
            json::s(format!(
                "if_seq {wanted} does not match current seq {current}"
            )),
        ),
        ("code", json::n(409)),
        ("seq", json::n(current)),
        ("if_seq", json::n(wanted)),
    ]);
    Response::json(409, body.to_text())
}

fn commit_error_response(e: CommitError, wanted: Option<u64>) -> Response {
    match e {
        CommitError::Conflict { current } => conflict_response(current, wanted.unwrap_or(0)),
        CommitError::Io(err) => error_response(
            500,
            format!("durable commit failed: {err}; the KB is unchanged"),
        ),
    }
}

fn kb_get(state: &ServiceState, req: &Request, name: &str) -> Response {
    // Read-your-writes across failover: a client holding the
    // `X-Arbitrex-Seq` of its commit asks any node to only answer once
    // that seq is visible; a lagging replica answers 412 + Retry-After
    // instead of serving a stale read. Ignored on in-memory stores,
    // which have no replication watermark.
    if let Some(min_seq) = req
        .header("x-arbitrex-min-seq")
        .and_then(|v| v.parse::<u64>().ok())
    {
        if let Some(log) = state.kbs.replication() {
            let visible = log.visible();
            if visible < min_seq {
                let body = obj([
                    (
                        "error",
                        json::s(format!(
                            "read requires seq {min_seq}; only {visible} is visible here"
                        )),
                    ),
                    ("code", json::n(412)),
                    ("min_seq", json::n(min_seq)),
                    ("visible", json::n(visible)),
                ]);
                let mut stale = Response::json(412, body.to_text());
                stale.extra_headers.push(("Retry-After", "0".to_string()));
                return stale;
            }
        }
    }
    local_kb_view(state, name).map_or_else(|| no_kb(name), ok)
}

fn kb_delete(state: &ServiceState, name: &str, if_seq: Option<u64>) -> Response {
    match state.kbs.delete(name, if_seq) {
        Ok(Some(rseq)) => with_commit_seq(
            ok(obj([
                ("name", json::s(name)),
                ("deleted", Json::Bool(true)),
            ])),
            rseq,
        ),
        Ok(None) => no_kb(name),
        Err(e) => commit_error_response(e, if_seq),
    }
}

fn kb_post(state: &ServiceState, name: &str, body: &Json) -> Result<Response, Response> {
    let action = field_str(body, "action")?;
    let if_seq = field_u64(body, "if_seq")?;
    match action {
        "put" => {
            let mut sig = Sig::new();
            let formula = parse_field(&mut sig, "formula", field_str(body, "formula")?)?;
            check_width(sig.width())?;
            let done = state
                .kbs
                .update(name, if_seq, |kb| {
                    let seq = kb.map_or(0, |kb| kb.seq) + 1;
                    let next = StoredKb { sig, formula, seq };
                    let view = kb_view(name, &next);
                    (Next::Put(next), view)
                })
                .map_err(|e| commit_error_response(e, if_seq))?;
            Ok(with_commit_seq(ok(done.value), done.rseq))
        }
        "delete" => Ok(kb_delete(state, name, if_seq)),
        "arbitrate" | "fit" => kb_change(state, name, body, action, if_seq),
        "iterate" => kb_iterate(state, name, body, if_seq),
        other => Err(error_response(
            400,
            format!("unknown action `{other}`; expected put, arbitrate, fit, iterate, delete"),
        )),
    }
}

/// Arbitrate (or fit, with an explicit operator) new information into the
/// stored theory in place: `ψ ← ψ Δ μ`. Only exact results commit; a
/// degraded outcome is reported but leaves the KB untouched, so a stored
/// theory can never silently absorb an under-searched compromise.
fn kb_change(
    state: &ServiceState,
    name: &str,
    body: &Json,
    action: &str,
    if_seq: Option<u64>,
) -> Result<Response, Response> {
    let budget = budget_and_hold(body, state)?;
    let step = |kb: Option<&StoredKb>| {
        let kb = kb.ok_or_else(|| no_kb(name))?;
        let mut sig = kb.sig.clone();
        let [mu] = read_sides(&mut sig, body, ["formula"])?;
        let psi = ModelSet::of_formula(&kb.formula, sig.width());
        let outcome = if action == "arbitrate" {
            try_arbitrate_with_budget(&psi, &mu, &budget)
                .map_err(|e| error_response(400, e.to_string()))?
        } else {
            let (_, op) = fit_operator(body)?;
            op.apply_with_budget(&psi, &mu, &budget)
        };
        note_quality(outcome.quality);
        // The stored theory is the only `Formula` built; the response
        // text is written from the models.
        let next = match outcome.quality {
            Quality::Exact => Next::Put(StoredKb {
                sig: sig.clone(),
                formula: outcome.models.to_formula(),
                seq: kb.seq + 1,
            }),
            _ => Next::Keep,
        };
        Ok((next, (sig, outcome)))
    };
    let done = state
        .kbs
        .update(name, if_seq, |kb| Next::or_keep(step(kb)))
        .map_err(|e| commit_error_response(e, if_seq))?;
    let (sig, outcome) = done.value?;
    let body = AnswerWriter::new(&sig)
        .str("endpoint", "kb")
        .str("name", name)
        .str("action", action)
        .provenance(outcome.quality)
        .bool("committed", outcome.quality == Quality::Exact)
        .num("seq", done.seq)
        .answer(&outcome.models, &outcome.spent)
        .finish();
    Ok(with_commit_seq(Response::json(200, body), done.rseq))
}

/// Iterate `ψ ← op(ψ, μ)` to a fixpoint or cycle via `core::iterated`,
/// committing the final state.
fn kb_iterate(
    state: &ServiceState,
    name: &str,
    body: &Json,
    if_seq: Option<u64>,
) -> Result<Response, Response> {
    let step = |kb: Option<&StoredKb>| {
        let kb = kb.ok_or_else(|| no_kb(name))?;
        let mut sig = kb.sig.clone();
        let [mu_m] = read_sides(&mut sig, body, ["formula"])?;
        let max_steps = field_u64(body, "max_steps")?
            .map(|s| (s as usize).min(MAX_ITERATE_STEPS))
            .unwrap_or(64);
        let op_name = op_field(body)?;
        let op = arbitrex_core::operator(op_name)
            .ok_or_else(|| error_response(400, format!("unknown operator `{op_name}`")))?;
        let psi_m = ModelSet::of_formula(&kb.formula, sig.width());
        let run = iterate_fixed_input(op.as_ref(), &psi_m, &mu_m, max_steps);
        let final_models = run.trajectory.last().cloned().unwrap_or(psi_m);
        let next = StoredKb {
            sig: sig.clone(),
            formula: final_models.to_formula(),
            seq: kb.seq + 1,
        };
        Ok((Next::Put(next), (sig, op_name, run, final_models)))
    };
    let done = state
        .kbs
        .update(name, if_seq, |kb| Next::or_keep(step(kb)))
        .map_err(|e| commit_error_response(e, if_seq))?;
    let (sig, op_name, run, final_models) = done.value?;
    let body = AnswerWriter::new(&sig)
        .str("endpoint", "kb")
        .str("name", name)
        .str("action", "iterate")
        .str("op", op_name)
        .num("steps", run.trajectory.len() as u64 - 1)
        .opt_num("period", run.period().map(|p| p as u64))
        .bool("fixpoint", run.is_fixpoint())
        .num("seq", done.seq)
        .num("n_models", final_models.len() as u64)
        .formula(&final_models)
        .finish();
    Ok(with_commit_seq(Response::json(200, body), done.rseq))
}
