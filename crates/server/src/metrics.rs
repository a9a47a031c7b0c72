//! Server-side counters and per-endpoint latency histograms.
//!
//! These join the workspace's existing sections (`kernel`, `weighted`,
//! `budget`, `sat`) in the `/metrics` snapshot as section
//! `"server"`. Like every other counter they compile to no-ops when the
//! `telemetry` feature is off; the endpoint then reports zeros. Counter
//! definitions live in `OBSERVABILITY.md` at the workspace root.

use arbitrex_telemetry::{Counter, Histogram, Section};

/// Connections accepted by the listener.
pub static ACCEPTED: Counter = Counter::new("accepted");
/// Connections handed to the worker queue.
pub static QUEUED: Counter = Counter::new("queued");
/// Connections refused with 503 because the queue was full.
pub static REJECTED: Counter = Counter::new("rejected");
/// HTTP requests parsed off accepted connections.
pub static REQUESTS: Counter = Counter::new("requests");
/// Responses in the 2xx range.
pub static RESPONSES_OK: Counter = Counter::new("responses_ok");
/// Responses in the 4xx range (malformed bodies, unknown routes, …).
pub static RESPONSES_CLIENT_ERROR: Counter = Counter::new("responses_client_error");
/// Responses in the 5xx range (including backpressure 503s).
pub static RESPONSES_SERVER_ERROR: Counter = Counter::new("responses_server_error");
/// Operator responses whose budget tripped (quality below exact).
pub static DEGRADED: Counter = Counter::new("degraded");
/// Request formulas the cube-cover reader declined, which `parse` read.
pub static FORMULA_FALLBACKS: Counter = Counter::new("formula_fallbacks");

/// The `"server"` section.
pub static SERVER_SECTION: Section = Section {
    name: "server",
    counters: &[
        &ACCEPTED,
        &QUEUED,
        &REJECTED,
        &REQUESTS,
        &RESPONSES_OK,
        &RESPONSES_CLIENT_ERROR,
        &RESPONSES_SERVER_ERROR,
        &DEGRADED,
        &FORMULA_FALLBACKS,
    ],
    timers: &[],
};

/// Readiness events delivered to connection tokens by the poller.
pub static EL_READY_EVENTS: Counter = Counter::new("ready_events");
/// Completion-waker wakeups received by the event loop.
pub static EL_WAKEUPS: Counter = Counter::new("wakeups");
/// Requests parsed while the connection already had one in flight —
/// divide by `accepted` for pipelined requests per connection.
pub static EL_PIPELINED: Counter = Counter::new("pipelined_requests");
/// Times a connection hit [`crate::server::MAX_PIPELINE_DEPTH`] and its
/// socket reads were paused (TCP backpressure engaged).
pub static EL_READ_PAUSES: Counter = Counter::new("read_pauses");
/// Idle keep-alive connections closed by `keep_alive_timeout_ms`.
pub static EL_KEEPALIVE_REAPED: Counter = Counter::new("keep_alive_reaped");

/// The `"event_loop"` section.
pub static EVENT_LOOP_SECTION: Section = Section {
    name: "event_loop",
    counters: &[
        &EL_READY_EVENTS,
        &EL_WAKEUPS,
        &EL_PIPELINED,
        &EL_READ_PAUSES,
        &EL_KEEPALIVE_REAPED,
    ],
    timers: &[],
};

/// Commits acknowledged through the group-commit flusher.
pub static GC_COMMITS: Counter = Counter::new("commits");
/// Shared fsyncs issued by the flusher — `commits / fsyncs` is the
/// achieved batch size (commits per fsync).
pub static GC_FSYNCS: Counter = Counter::new("fsyncs");
/// Shared flushes that failed; every commit waiting on one is refused.
pub static GC_FLUSH_FAILURES: Counter = Counter::new("flush_failures");
/// Commits made durable by a snapshot landing before their fsync did.
pub static GC_SNAPSHOT_ACKS: Counter = Counter::new("snapshot_acks");

/// The `"group_commit"` section.
pub static GROUP_COMMIT_SECTION: Section = Section {
    name: "group_commit",
    counters: &[
        &GC_COMMITS,
        &GC_FSYNCS,
        &GC_FLUSH_FAILURES,
        &GC_SNAPSHOT_ACKS,
    ],
    timers: &[],
};

/// WAL records appended (each one a durable, acknowledged KB mutation).
pub static WAL_RECORDS_APPENDED: Counter = Counter::new("records_appended");
/// Framed bytes appended to the WAL.
pub static WAL_BYTES_APPENDED: Counter = Counter::new("bytes_appended");
/// WAL fsyncs issued (one per commit with group commit off; shared
/// across a batch with it on).
pub static WAL_FSYNCS: Counter = Counter::new("fsyncs");
/// Snapshots made durable (temp write + fsync + rename + dir fsync).
pub static WAL_SNAPSHOTS_WRITTEN: Counter = Counter::new("snapshots_written");
/// Periodic snapshots that failed (commits stay safe in the WAL;
/// truncation is postponed).
pub static WAL_SNAPSHOT_ERRORS: Counter = Counter::new("snapshot_errors");
/// Startup recoveries performed (one per durable open).
pub static WAL_REPLAYS: Counter = Counter::new("replays");
/// WAL records replayed during recovery.
pub static WAL_RECORDS_REPLAYED: Counter = Counter::new("records_replayed");
/// Torn final records truncated away during recovery (unacknowledged by
/// construction, so nothing durable was lost).
pub static WAL_TORN_TAIL_TRUNCATIONS: Counter = Counter::new("torn_tail_truncations");
/// Damaged regions dropped by `--recover=salvage` (corrupt mid-log
/// spans or a corrupt snapshot).
pub static WAL_SALVAGE_DROPS: Counter = Counter::new("salvage_drops");

/// The `"wal"` section: durability counters.
pub static WAL_SECTION: Section = Section {
    name: "wal",
    counters: &[
        &WAL_RECORDS_APPENDED,
        &WAL_BYTES_APPENDED,
        &WAL_FSYNCS,
        &WAL_SNAPSHOTS_WRITTEN,
        &WAL_SNAPSHOT_ERRORS,
        &WAL_REPLAYS,
        &WAL_RECORDS_REPLAYED,
        &WAL_TORN_TAIL_TRUNCATIONS,
        &WAL_SALVAGE_DROPS,
    ],
    timers: &[],
};

/// WAL frames shipped to replicas over `/v1/replication/wal`.
pub static REPL_FRAMES_SHIPPED: Counter = Counter::new("frames_shipped");
/// Batch responses served to replicas (including empty long-poll ones).
pub static REPL_BATCHES_SERVED: Counter = Counter::new("batches_served");
/// Streamed frames applied by this replica.
pub static REPL_FRAMES_APPLIED: Counter = Counter::new("frames_applied");
/// Duplicate frame deliveries skipped by the apply path.
pub static REPL_DUP_FRAMES_SKIPPED: Counter = Counter::new("dup_frames_skipped");
/// Frames or peers refused for carrying a deposed fencing epoch.
pub static REPL_EPOCH_REJECTIONS: Counter = Counter::new("epoch_rejections");
/// Streamed frames that failed CRC/decode verification on the replica.
pub static REPL_BAD_FRAMES: Counter = Counter::new("bad_frames");
/// Connections (re)established by the puller to its primary.
pub static REPL_RECONNECTS: Counter = Counter::new("reconnects");
/// Backoff sleeps taken by the puller between connection attempts.
pub static REPL_BACKOFF_SLEEPS: Counter = Counter::new("backoff_sleeps");
/// Full snapshot resyncs performed by this replica.
pub static REPL_RESYNCS: Counter = Counter::new("resyncs");
/// Promotions of this store to primary.
pub static REPL_PROMOTIONS: Counter = Counter::new("promotions");
/// Divergent KBs merged by `Δ` arbitration during anti-entropy.
pub static REPL_RECONCILIATIONS: Counter = Counter::new("reconciliations");
/// Injected `net_*` faults that fired at the replication transport.
pub static REPL_NET_FAULTS: Counter = Counter::new("net_faults");

/// The `"replication"` section.
pub static REPLICATION_SECTION: Section = Section {
    name: "replication",
    counters: &[
        &REPL_FRAMES_SHIPPED,
        &REPL_BATCHES_SERVED,
        &REPL_FRAMES_APPLIED,
        &REPL_DUP_FRAMES_SKIPPED,
        &REPL_EPOCH_REJECTIONS,
        &REPL_BAD_FRAMES,
        &REPL_RECONNECTS,
        &REPL_BACKOFF_SLEEPS,
        &REPL_RESYNCS,
        &REPL_PROMOTIONS,
        &REPL_RECONCILIATIONS,
        &REPL_NET_FAULTS,
    ],
    timers: &[],
};

/// Mutations answered `307 + X-Arbitrex-Shard-Owner` because another
/// member owns the KB.
pub static SHARD_REDIRECTS: Counter = Counter::new("redirects");
/// Reads proxied to the owning member on the caller's behalf.
pub static SHARD_PROXIED_READS: Counter = Counter::new("proxied_reads");
/// Proxied reads that failed (owner unreachable or an injected
/// `shard_proxy_drop`), answered 502.
pub static SHARD_PROXY_FAILURES: Counter = Counter::new("proxy_failures");
/// Requests refused 421 for routing against a stale ring epoch
/// (including injected `shard_ring_stale` charges).
pub static SHARD_STALE_RING_REFUSALS: Counter = Counter::new("stale_ring_refusals");
/// Ring versions installed here (local join/leave or an adopted sync).
pub static SHARD_RING_CHANGES: Counter = Counter::new("ring_changes");
/// KBs pulled to this node by the rebalancer (it became their owner).
pub static SHARD_KBS_MIGRATED: Counter = Counter::new("kbs_migrated");
/// Old-owner copies released after a verified handoff (counted by the
/// releasing side).
pub static SHARD_RELEASES: Counter = Counter::new("releases");
/// Writes refused 503 because their KB was mid-handoff (owner differs
/// between the current ring and an in-flight transition ring).
pub static SHARD_WRITES_FENCED: Counter = Counter::new("writes_fenced");
/// Handoffs torn between transfer and release — both copies survive
/// until a later pass or a `Δ` reconcile converges them.
pub static SHARD_HANDOFFS_TORN: Counter = Counter::new("handoffs_torn");
/// Injected `shard_*` faults that fired.
pub static SHARD_FAULTS: Counter = Counter::new("shard_faults");

/// The `"sharding"` section.
pub static SHARDING_SECTION: Section = Section {
    name: "sharding",
    counters: &[
        &SHARD_REDIRECTS,
        &SHARD_PROXIED_READS,
        &SHARD_PROXY_FAILURES,
        &SHARD_STALE_RING_REFUSALS,
        &SHARD_RING_CHANGES,
        &SHARD_KBS_MIGRATED,
        &SHARD_RELEASES,
        &SHARD_WRITES_FENCED,
        &SHARD_HANDOFFS_TORN,
        &SHARD_FAULTS,
    ],
    timers: &[],
};

/// Failure-detector probes sent at chain heads.
pub static FAILOVER_PROBES: Counter = Counter::new("probes");
/// Probes that failed (unreachable head or a refused status request).
pub static FAILOVER_PROBE_FAILURES: Counter = Counter::new("probe_failures");
/// Heads this node suspected dead (consecutive probe failures reached
/// the `--suspect-after` threshold).
pub static FAILOVER_SUSPICIONS: Counter = Counter::new("suspicions");
/// Suspicions vetoed by quorum — some peer could still reach the head,
/// so a partitioned successor stayed fenced instead of splitting the
/// brain.
pub static FAILOVER_QUORUM_VETOES: Counter = Counter::new("quorum_vetoes");
/// Automatic self-promotions performed by a chain successor after a
/// quorum-confirmed head death (manual `/v1/replication/promote` calls
/// count under `replication.promotions` only).
pub static FAILOVER_AUTO_PROMOTIONS: Counter = Counter::new("auto_promotions");
/// Chain rotations recorded in the ring (head dropped, successor
/// promoted, chain epoch bumped).
pub static FAILOVER_CHAIN_ROTATIONS: Counter = Counter::new("chain_rotations");
/// Nodes that stepped down to replica because an adopted ring listed
/// them behind a newer chain head (a deposed head fenced at routing).
pub static FAILOVER_DEMOTIONS: Counter = Counter::new("demotions");
/// Writes refused with a typed 503 because this node's WAL epoch trails
/// its chain's recorded epoch — a deposed head that has not yet caught
/// up with its own deposition.
pub static FAILOVER_FENCED_WRITES: Counter = Counter::new("fenced_writes");
/// Δ-arbitration reconciles run against a revived deposed head to
/// absorb commits it acked but never shipped.
pub static FAILOVER_RECONCILES: Counter = Counter::new("failover_reconciles");
/// Proxied-read retry attempts taken by the backoff loop (each retry
/// after the first attempt counts once).
pub static FAILOVER_PROXY_RETRIES: Counter = Counter::new("proxy_retries");

/// The `"failover"` section: per-shard replica chains.
pub static FAILOVER_SECTION: Section = Section {
    name: "failover",
    counters: &[
        &FAILOVER_PROBES,
        &FAILOVER_PROBE_FAILURES,
        &FAILOVER_SUSPICIONS,
        &FAILOVER_QUORUM_VETOES,
        &FAILOVER_AUTO_PROMOTIONS,
        &FAILOVER_CHAIN_ROTATIONS,
        &FAILOVER_DEMOTIONS,
        &FAILOVER_FENCED_WRITES,
        &FAILOVER_RECONCILES,
        &FAILOVER_PROXY_RETRIES,
    ],
    timers: &[],
};

/// Wall-clock handling latency of `/v1/arbitrate` requests.
pub static LATENCY_ARBITRATE: Histogram = Histogram::new("arbitrate");
/// Wall-clock handling latency of `/v1/fit` requests.
pub static LATENCY_FIT: Histogram = Histogram::new("fit");
/// Wall-clock handling latency of `/v1/warbitrate` requests.
pub static LATENCY_WARBITRATE: Histogram = Histogram::new("warbitrate");
/// Wall-clock handling latency of `/v1/kb/{name}` requests.
pub static LATENCY_KB: Histogram = Histogram::new("kb");
/// Wall-clock handling latency of `/metrics` requests.
pub static LATENCY_METRICS: Histogram = Histogram::new("metrics");
/// Latency of each WAL fsync — the per-commit durability price, and the
/// first place storage trouble shows up.
pub static LATENCY_WAL_FSYNC: Histogram = Histogram::new("wal_fsync");
/// Time a commit spends waiting on the shared group-commit flush
/// (append → ack). Bounded by one fsync plus `flush_interval_us`.
pub static LATENCY_FLUSH_WAIT: Histogram = Histogram::new("flush_wait");
/// Wall-clock handling latency of `/v1/replication/*` requests on the
/// serving (primary) side.
pub static LATENCY_REPL: Histogram = Histogram::new("repl");
/// Per-frame apply latency on the replica (decode + append + publish).
pub static LATENCY_REPL_APPLY: Histogram = Histogram::new("repl_apply");
/// Wall-clock handling latency of `/v1/cluster/*` and `/v1/kbs`
/// requests (membership, handoff, and listing — join/sync include the
/// synchronous rebalance they trigger).
pub static LATENCY_CLUSTER: Histogram = Histogram::new("cluster");

/// Every histogram, in protocol-table order (endpoints, then durability,
/// then replication, then sharding).
pub fn histograms() -> [&'static Histogram; 10] {
    [
        &LATENCY_ARBITRATE,
        &LATENCY_FIT,
        &LATENCY_WARBITRATE,
        &LATENCY_KB,
        &LATENCY_METRICS,
        &LATENCY_WAL_FSYNC,
        &LATENCY_FLUSH_WAIT,
        &LATENCY_REPL,
        &LATENCY_REPL_APPLY,
        &LATENCY_CLUSTER,
    ]
}

/// Count `status` into the right response-class counter.
pub fn record_response(status: u16) {
    match status {
        200..=299 => RESPONSES_OK.incr(),
        400..=499 => RESPONSES_CLIENT_ERROR.incr(),
        _ => RESPONSES_SERVER_ERROR.incr(),
    }
}

/// The full `/metrics` document: the workspace telemetry snapshot
/// (including this crate's `"server"` section) plus per-endpoint latency
/// histograms.
pub fn metrics_json() -> String {
    let mut sections: Vec<&'static Section> = arbitrex_core::telemetry::sections().to_vec();
    sections.push(&SERVER_SECTION);
    sections.push(&EVENT_LOOP_SECTION);
    sections.push(&WAL_SECTION);
    sections.push(&GROUP_COMMIT_SECTION);
    sections.push(&REPLICATION_SECTION);
    sections.push(&SHARDING_SECTION);
    sections.push(&FAILOVER_SECTION);
    let snapshot = arbitrex_telemetry::snapshot_of(&sections);
    let mut out = String::with_capacity(2048);
    out.push_str("{\"telemetry\": ");
    out.push_str(&snapshot.to_json());
    out.push_str(", \"latency_ns\": {");
    for (i, h) in histograms().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push('"');
        out.push_str(h.name());
        out.push_str("\": ");
        out.push_str(&h.snapshot().to_json());
    }
    out.push_str("}}");
    out
}

/// Reset the server counters and histograms (test isolation).
pub fn reset() {
    SERVER_SECTION.reset();
    EVENT_LOOP_SECTION.reset();
    WAL_SECTION.reset();
    GROUP_COMMIT_SECTION.reset();
    REPLICATION_SECTION.reset();
    SHARDING_SECTION.reset();
    FAILOVER_SECTION.reset();
    for h in histograms() {
        h.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_json_contains_every_section_and_histogram() {
        let text = metrics_json();
        for section in [
            "kernel",
            "weighted",
            "budget",
            "sat",
            "server",
            "event_loop",
            "wal",
            "group_commit",
            "replication",
            "sharding",
            "failover",
        ] {
            assert!(
                text.contains(&format!("\"{section}\"")),
                "missing {section}"
            );
        }
        for h in [
            "arbitrate",
            "fit",
            "warbitrate",
            "kb",
            "metrics",
            "wal_fsync",
            "flush_wait",
            "repl",
            "repl_apply",
            "cluster",
        ] {
            assert!(text.contains(&format!("\"{h}\"")), "missing histogram {h}");
        }
        assert!(text.contains("\"accepted\""));
        assert!(text.contains("\"rejected\""));
    }

    #[test]
    fn response_classes_split_by_status() {
        reset();
        record_response(200);
        record_response(201);
        record_response(404);
        record_response(503);
        if arbitrex_telemetry::enabled() {
            assert_eq!(RESPONSES_OK.get(), 2);
            assert_eq!(RESPONSES_CLIENT_ERROR.get(), 1);
            assert_eq!(RESPONSES_SERVER_ERROR.get(), 1);
        }
        reset();
    }
}
