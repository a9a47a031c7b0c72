//! Replication integration suite: primary/replica pairs over real
//! sockets, the deterministic network fault matrix, failover, and
//! `Δ`-arbitration anti-entropy.
//!
//! Covers the acceptance criteria of the replication layer: a replica
//! streams the primary's WAL and converges to byte-identical canonical
//! state under every `net_*` fault site (connection drop, torn frame,
//! duplicated delivery, delayed delivery, partition); read-your-writes
//! via `X-Arbitrex-Min-Seq` answers 412 on a lagging replica and 200
//! once caught up; explicit promotion continues the rseq space without
//! reuse; frames stamped with a deposed epoch are refused; a rejected
//! `if_seq` commit never ships a frame; and post-partition divergence
//! reconciles with the paper's `Δ` operator, differentially checked
//! against an in-test oracle computing `Δ` directly on model sets.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use arbitrex_core::arbitrate;
use arbitrex_core::{FaultPlan, FaultSite, Faults};
use arbitrex_logic::{parse, ModelSet, Sig};
use arbitrex_server::kb::{theory_digest, ApplyOutcome, DurabilityOptions, KbStore, StoredKb};
use arbitrex_server::recovery::RecoverMode;
use arbitrex_server::wal::{self, StampedRecord, WalRecord};
use arbitrex_server::{spawn, RunningServer, ServerConfig};

mod common;
use common::{num_of, request, str_of, Client};

static DIR_ID: AtomicU64 = AtomicU64::new(0);

fn temp_state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "arbx-replication-{tag}-{}-{}",
        std::process::id(),
        DIR_ID.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create state dir");
    dir
}

fn durable_server(dir: &Path, configure: impl FnOnce(&mut ServerConfig)) -> RunningServer {
    let mut config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        queue_depth: 64,
        timeout_ms: 0,
        state_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    };
    configure(&mut config);
    spawn(config).expect("spawn durable server")
}

/// A plain durable node enlisted as `primary`'s chain tail: the only way
/// a node becomes a replica.
fn replica_of(
    primary: &RunningServer,
    dir: &Path,
    configure: impl FnOnce(&mut ServerConfig),
) -> RunningServer {
    let replica = durable_server(dir, configure);
    let body = format!(
        r#"{{"host": "{}", "addr": "{}"}}"#,
        primary.addr, replica.addr
    );
    let (status, v) = request(primary, "POST", "/v1/cluster/enlist", &body);
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(v.get("enlisted").and_then(|e| e.as_bool()), Some(true));
    replica
}

/// Commit `formula` into KB `name`, asserting success; returns the
/// committed seq reported in the body.
fn put(server: &RunningServer, name: &str, formula: &str) -> u64 {
    let body = format!(r#"{{"action": "put", "formula": "{formula}"}}"#);
    let (status, v) = request(server, "POST", &format!("/v1/kb/{name}"), &body);
    assert_eq!(status, 200, "{v:?}");
    num_of(&v, "seq")
}

/// Wait until the replica has applied everything the primary shipped
/// (primary head == `expected` == replica visible), then assert the two
/// stores converged: equal anti-entropy digests AND byte-identical
/// canonical snapshot images.
fn assert_converged(primary: &RunningServer, replica: &RunningServer, expected: u64, tag: &str) {
    let p_state = primary.state();
    let r_state = replica.state();
    let p_log = p_state.kbs.replication().expect("primary repl log");
    let r_log = r_state.kbs.replication().expect("replica repl log");
    let deadline = Instant::now() + Duration::from_secs(30);
    while p_log.head() < expected || r_log.visible() < expected {
        assert!(
            Instant::now() < deadline,
            "[{tag}] replica never converged: primary head {}, replica visible {}, want {expected}",
            p_log.head(),
            r_log.visible(),
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(p_log.head(), expected, "[{tag}] primary overshot");
    assert_eq!(
        p_state.kbs.digest(),
        r_state.kbs.digest(),
        "[{tag}] digests diverge after convergence"
    );
    let p_image = p_state
        .kbs
        .snapshot_image()
        .expect("primary snapshot image");
    let r_image = r_state
        .kbs
        .snapshot_image()
        .expect("replica snapshot image");
    assert_eq!(
        p_image, r_image,
        "[{tag}] canonical snapshot images are not byte-identical"
    );
}

/// An address nothing listens on (bind an ephemeral port, then drop the
/// listener) — for replicas whose primary must stay unreachable.
fn dead_addr() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    drop(listener);
    addr
}

// --- happy path --------------------------------------------------------------

#[test]
fn replica_streams_the_primary_wal_and_serves_reads() {
    let p_dir = temp_state_dir("basic-p");
    let r_dir = temp_state_dir("basic-r");
    let primary = durable_server(&p_dir, |_| {});
    let replica = replica_of(&primary, &r_dir, |_| {});

    for (name, formula) in [("alpha", "A & B"), ("beta", "A | !B"), ("gamma", "!A & !B")] {
        put(&primary, name, formula);
    }
    let (status, v) = request(&primary, "POST", "/v1/kb/beta", r#"{"action": "delete"}"#);
    assert_eq!(status, 200, "{v:?}");

    // 3 commits + 1 delete = 4 frames.
    assert_converged(&primary, &replica, 4, "basic");

    // Follower reads serve the replicated theory...
    let (status, v) = request(&replica, "GET", "/v1/kb/alpha", "");
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(num_of(&v, "seq"), 1);
    // ...and the replicated delete.
    let (status, _) = request(&replica, "GET", "/v1/kb/beta", "");
    assert_eq!(status, 404);

    // Mutations are refused on a replica's store (the internal header
    // skips routing, which would redirect the write to the head).
    let (status, v) = Client::connect_server(&replica).request_with_headers(
        "POST",
        "/v1/kb/alpha",
        &[("x-arbitrex-shard-internal", "1")],
        r#"{"action": "put", "formula": "A"}"#,
    );
    assert_eq!(status, 503, "{v:?}");
    assert!(str_of(&v, "error").contains("read-only replica"), "{v:?}");

    // Roles as reported by the status endpoint.
    let (_, v) = request(&primary, "GET", "/v1/replication/status", "");
    assert_eq!(str_of(&v, "role"), "primary");
    assert_eq!(num_of(&v, "epoch"), 1);
    let (_, v) = request(&replica, "GET", "/v1/replication/status", "");
    assert_eq!(str_of(&v, "role"), "replica");
    assert_eq!(num_of(&v, "head"), 4);

    replica.stop().unwrap();
    primary.stop().unwrap();
}

// --- the network fault matrix ------------------------------------------------

/// Frame-level faults (`net_drop`, `net_torn`, `net_dup`): commits land
/// before the replica connects, so the first batch carries all frames
/// and the k-th is deterministically cut / corrupted / duplicated. The
/// replica's reconnect, CRC, and idempotent-apply machinery must still
/// converge it to byte-identical state.
#[test]
fn frame_level_faults_still_converge() {
    for site in [FaultSite::NetDrop, FaultSite::NetTorn, FaultSite::NetDup] {
        let tag = site.name();
        let p_dir = temp_state_dir(tag);
        let r_dir = temp_state_dir(&format!("{tag}-r"));
        let primary = durable_server(&p_dir, |c| {
            c.faults = Faults::new([FaultPlan::new(site, 3)]);
        });
        for i in 0..8u32 {
            let formula = if i % 2 == 0 { "A & B" } else { "A | B | !C" };
            put(&primary, &format!("kb{i}"), formula);
        }
        let replica = replica_of(&primary, &r_dir, |_| {});
        assert_converged(&primary, &replica, 8, tag);
        replica.stop().unwrap();
        primary.stop().unwrap();
    }
}

/// Request-level faults (`net_delay`, `net_partition`): the replica
/// connects first and commits trickle in, so delayed and refused batch
/// requests land while frames are genuinely in flight. The partition
/// refuses a whole window of requests, then heals; backoff must carry
/// the replica across it.
#[test]
fn request_level_faults_still_converge() {
    for site in [FaultSite::NetDelay, FaultSite::NetPartition] {
        let tag = site.name();
        let p_dir = temp_state_dir(tag);
        let r_dir = temp_state_dir(&format!("{tag}-r"));
        let primary = durable_server(&p_dir, |c| {
            c.faults = Faults::new([FaultPlan::new(site, 2)]);
        });
        let replica = replica_of(&primary, &r_dir, |_| {});
        for i in 0..8u32 {
            put(&primary, &format!("kb{i}"), "A & (B | C)");
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_converged(&primary, &replica, 8, tag);
        replica.stop().unwrap();
        primary.stop().unwrap();
    }
}

/// The puller's reconnect backoff, observed end-to-end. A `net_drop`
/// cuts the established stream *after* a successfully applied frame, so
/// the ladder was reset to `BACKOFF_MIN` by the successful connect; the
/// puller must come back at the jittered floor delay and converge
/// promptly. A puller that failed to reset (or jittered past its
/// documented band) would need ladder-of-seconds time here.
#[test]
fn reconnect_backoff_recovers_from_a_drop_at_the_floor_delay() {
    let p_dir = temp_state_dir("backoff");
    let r_dir = temp_state_dir("backoff-r");
    let primary = durable_server(&p_dir, |c| {
        // Second shipped frame trips the drop: one good frame first.
        c.faults = Faults::new([FaultPlan::new(FaultSite::NetDrop, 2)]);
    });
    let replica = replica_of(&primary, &r_dir, |_| {});
    put(&primary, "warm", "A");
    assert_converged(&primary, &replica, 1, "backoff-warm");

    // The next frame is cut mid-stream; the one after must arrive over
    // the reconnected stream.
    let start = Instant::now();
    put(&primary, "cut", "A & B");
    put(&primary, "after", "A | B");
    assert_converged(&primary, &replica, 3, "backoff-cut");
    let recovery = start.elapsed();
    assert!(
        recovery < Duration::from_secs(5),
        "post-drop catch-up took {recovery:?}; the backoff ladder did not reset to its floor"
    );
    replica.stop().unwrap();
    primary.stop().unwrap();
}

// --- read-your-writes --------------------------------------------------------

#[test]
fn min_seq_reads_answer_412_until_the_replica_catches_up() {
    // A replica whose primary is unreachable never advances: the gate
    // must answer 412 + Retry-After, not a stale 404/200.
    let stuck_dir = temp_state_dir("minseq-stuck");
    let dead = dead_addr();
    let stuck = durable_server(&stuck_dir, |c| {
        c.cluster_peers = vec![format!("{dead}~auto")];
        c.probe_interval_ms = 0;
    });
    let mut client = Client::connect_server(&stuck);
    let (status, head, v) =
        client.request_full("GET", "/v1/kb/anything", &[("X-Arbitrex-Min-Seq", "1")], "");
    assert_eq!(status, 412, "{v:?}");
    assert_eq!(num_of(&v, "min_seq"), 1);
    assert_eq!(num_of(&v, "visible"), 0);
    assert!(head.header("retry-after").is_some(), "{head:?}");
    stuck.stop().unwrap();

    // Against a live pair: a commit's X-Arbitrex-Seq token, passed back
    // as X-Arbitrex-Min-Seq, eventually reads its own write on the
    // replica — and any interim answer is a 412, never stale data.
    let p_dir = temp_state_dir("minseq-p");
    let r_dir = temp_state_dir("minseq-r");
    let primary = durable_server(&p_dir, |_| {});
    let replica = replica_of(&primary, &r_dir, |_| {});

    let mut writer = Client::connect_server(&primary);
    let (status, head, _) = writer.request_full(
        "POST",
        "/v1/kb/ryw",
        &[],
        r#"{"action": "put", "formula": "A & !B"}"#,
    );
    assert_eq!(status, 200);
    assert_eq!(head.header("x-arbitrex-seq"), Some("1"), "{head:?}");

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut reader = Client::connect_server(&replica);
        let (status, v) =
            reader.request_with_headers("GET", "/v1/kb/ryw", &[("X-Arbitrex-Min-Seq", "1")], "");
        match status {
            200 => {
                assert_eq!(num_of(&v, "seq"), 1, "{v:?}");
                break;
            }
            412 => assert!(
                Instant::now() < deadline,
                "replica never served the min-seq read: {v:?}"
            ),
            other => panic!("unexpected status {other}: {v:?}"),
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    replica.stop().unwrap();
    primary.stop().unwrap();
}

// --- commit gating (satellite: if_seq must never ship a frame) ---------------

#[test]
fn conflicting_if_seq_never_ships_a_frame() {
    let dir = temp_state_dir("ifseq");
    let primary = durable_server(&dir, |_| {});
    put(&primary, "guarded", "A & B");

    let state = primary.state();
    let log = state.kbs.replication().expect("repl log");
    assert_eq!(log.head(), 1);

    // A stale if_seq draws 409 — and the replication head must not
    // move: a rejected commit has no WAL frame to ship.
    let (status, v) = request(
        &primary,
        "POST",
        "/v1/kb/guarded",
        r#"{"action": "put", "formula": "A", "if_seq": 99}"#,
    );
    assert_eq!(status, 409, "{v:?}");
    assert_eq!(num_of(&v, "seq"), 1);
    assert_eq!(log.head(), 1, "a 409'd commit shipped a frame");
    let (_, v) = request(&primary, "GET", "/v1/replication/status", "");
    assert_eq!(num_of(&v, "head"), 1);

    // The matching if_seq commits and ships as usual.
    let (status, _) = request(
        &primary,
        "POST",
        "/v1/kb/guarded",
        r#"{"action": "put", "formula": "A", "if_seq": 1}"#,
    );
    assert_eq!(status, 200);
    assert_eq!(log.head(), 2);

    primary.stop().unwrap();
}

// --- failover ----------------------------------------------------------------

#[test]
fn promoted_replica_continues_the_seq_space_without_reuse() {
    let p_dir = temp_state_dir("promote-p");
    let r_dir = temp_state_dir("promote-r");
    let primary = durable_server(&p_dir, |_| {});
    let replica = replica_of(&primary, &r_dir, |_| {});

    for i in 0..3u32 {
        put(&primary, &format!("kb{i}"), "A | B");
    }
    assert_converged(&primary, &replica, 3, "promote");
    primary.stop().unwrap();

    // Explicit failover: the replica becomes the epoch-2 primary.
    let (status, v) = request(&replica, "POST", "/v1/replication/promote", "");
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(num_of(&v, "epoch"), 2);
    assert_eq!(num_of(&v, "last_rseq"), 3);

    // The first post-promotion commit continues the rseq space at 4 —
    // sequence numbers are never reused across a failover.
    let mut client = Client::connect_server(&replica);
    let (status, head, _) = client.request_full(
        "POST",
        "/v1/kb/after",
        &[],
        r#"{"action": "put", "formula": "!A"}"#,
    );
    assert_eq!(status, 200);
    assert_eq!(head.header("x-arbitrex-seq"), Some("4"), "{head:?}");

    let (_, v) = request(&replica, "GET", "/v1/replication/status", "");
    assert_eq!(str_of(&v, "role"), "primary");
    assert_eq!(num_of(&v, "epoch"), 2);
    assert_eq!(num_of(&v, "head"), 4);

    replica.stop().unwrap();
}

// --- epoch fencing -----------------------------------------------------------

/// A stamped commit frame exactly as the replication transport ships it.
fn stamped_commit(epoch: u64, rseq: u64, name: &str, text: &str) -> (Vec<u8>, StampedRecord) {
    let mut sig = Sig::new();
    let formula = parse(&mut sig, text).expect("parse");
    let record = WalRecord::Commit {
        name: name.to_string(),
        kb: StoredKb {
            sig,
            formula,
            seq: 1,
        },
    };
    let framed = wal::frame(epoch, rseq, &wal::encode_record(&record));
    (
        framed,
        StampedRecord {
            epoch,
            rseq,
            record,
        },
    )
}

#[test]
fn frames_from_a_deposed_epoch_are_refused() {
    let dir = temp_state_dir("fencing");
    let (store, _report) = KbStore::open_durable(DurabilityOptions {
        dir: dir.clone(),
        snapshot_every: 0,
        recover: RecoverMode::Strict,
        faults: Faults::default(),
        flush_interval: Duration::ZERO,
        initial_epoch: None,
    })
    .expect("open store");
    store.demote().expect("demote to replica");

    let (framed, stamped) = stamped_commit(1, 1, "alive", "A & B");
    assert!(matches!(
        store.apply_replicated(&framed, &stamped).unwrap(),
        ApplyOutcome::Applied { rseq: 1, .. }
    ));

    // Failover: epoch 2. Everything the deposed epoch-1 primary still
    // ships must bounce — even a frame with the next expected rseq.
    let (epoch, last_rseq) = store.promote().expect("promote");
    assert_eq!((epoch, last_rseq), (2, 1));

    let (framed, stamped) = stamped_commit(1, 2, "fenced", "!A");
    assert_eq!(
        store.apply_replicated(&framed, &stamped).unwrap(),
        ApplyOutcome::StaleEpoch {
            frame_epoch: 1,
            current_epoch: 2,
        }
    );
    assert!(
        store.entry("fenced").is_none(),
        "a deposed-epoch frame mutated the store"
    );

    // Idempotence and gap detection still hold under the new epoch.
    let (framed, stamped) = stamped_commit(2, 1, "alive", "A & B");
    assert_eq!(
        store.apply_replicated(&framed, &stamped).unwrap(),
        ApplyOutcome::Duplicate { rseq: 1 }
    );
    let (framed, stamped) = stamped_commit(2, 5, "future", "B");
    assert_eq!(
        store.apply_replicated(&framed, &stamped).unwrap(),
        ApplyOutcome::Gap {
            expected: 2,
            got: 5
        }
    );
    let (framed, stamped) = stamped_commit(2, 2, "next", "A | B");
    assert!(matches!(
        store.apply_replicated(&framed, &stamped).unwrap(),
        ApplyOutcome::Applied { rseq: 2, .. }
    ));
}

// --- anti-entropy ------------------------------------------------------------

/// The in-test oracle: `Δ` computed directly on model sets with the
/// same digest side-ordering the server uses, so the reconciled theory
/// can be checked differentially (same models, not just "some merge
/// happened").
fn delta_oracle(local_text: &str, peer_text: &str) -> (Sig, ModelSet) {
    let mut sig = Sig::new();
    let local = parse(&mut sig, local_text).expect("parse local");
    let peer = parse(&mut sig, peer_text).expect("parse peer");
    let n = sig.width();
    let (psi, phi) = if theory_digest(&sig, &local) <= theory_digest(&sig, &peer) {
        (local, peer)
    } else {
        (peer, local)
    };
    let merged = arbitrate(
        &ModelSet::of_formula(&psi, n),
        &ModelSet::of_formula(&phi, n),
    );
    (sig, merged)
}

#[test]
fn post_partition_divergence_reconciles_with_delta_arbitration() {
    let p_dir = temp_state_dir("delta-p");
    let r_dir = temp_state_dir("delta-r");
    let primary = durable_server(&p_dir, |_| {});
    let replica = replica_of(&primary, &r_dir, |_| {});

    // A shared prefix on both sides.
    put(&primary, "shared", "A & B");
    put(&primary, "contested", "A & B");
    assert_converged(&primary, &replica, 2, "delta");

    // Partition: the old primary drops off, the replica is promoted
    // (rotating it out of its chain, a broadcast it never hears), and
    // the old primary recovers from its state dir outside the rotated
    // ring. Both sides accept writes — the split-brain window.
    primary.stop().unwrap();
    let (status, v) = request(&replica, "POST", "/v1/replication/promote", "");
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(num_of(&v, "epoch"), 2);
    let primary = durable_server(&p_dir, |_| {});

    let local_text = "A & (B | C)"; // committed on the new primary
    let peer_text = "(A & B) | C"; // committed on the deposed primary
    put(&replica, "contested", local_text);
    put(&primary, "contested", peer_text);
    put(&primary, "only_on_p", "C");

    // Heal: one anti-entropy pass on the new primary against the old
    // one. The divergent KB merges with Δ — not last-writer-wins.
    let body = format!(r#"{{"peer": "{}"}}"#, primary.addr);
    let (status, v) = request(&replica, "POST", "/v1/replication/reconcile", &body);
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(num_of(&v, "identical"), 1, "{v:?}"); // shared
    assert_eq!(num_of(&v, "adopted"), 1, "{v:?}"); // only_on_p
    assert_eq!(num_of(&v, "merged"), 1, "{v:?}"); // contested
    assert_eq!(num_of(&v, "aligned"), 0, "{v:?}");
    assert_eq!(num_of(&v, "skipped"), 0, "{v:?}");

    // The adopted KB arrived verbatim, seq included.
    let (status, v) = request(&replica, "GET", "/v1/kb/only_on_p", "");
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(num_of(&v, "seq"), 1);

    // Differential check: the reconciled theory's models equal the
    // oracle's Δ of the two divergent sides, and its seq dominates both
    // inputs (max + 1), so a later digest comparison converges.
    let (status, v) = request(&replica, "GET", "/v1/kb/contested", "");
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(num_of(&v, "seq"), 3);
    let (mut sig, expect) = delta_oracle(local_text, peer_text);
    let n = sig.width();
    let reconciled = parse(&mut sig, str_of(&v, "formula")).expect("parse reconciled");
    assert_eq!(
        ModelSet::of_formula(&reconciled, n),
        expect,
        "reconciled theory diverges from the Δ oracle"
    );

    replica.stop().unwrap();
    primary.stop().unwrap();
}

/// One raw `GET /v1/kb/{name}` body.
fn kb_body(server: &RunningServer, name: &str) -> String {
    let mut client = Client::connect_server(server);
    client.send("GET", &format!("/v1/kb/{name}"), "");
    let (status, body) = client.read_response_text();
    assert_eq!(status, 200, "{body}");
    body
}

#[test]
fn renamed_divergence_merges_to_the_same_text_on_both_members() {
    // Two members commit a renamed pair to one name while apart, then each
    // runs its anti-entropy pass against the other's divergent copy (a
    // third node holds `x`'s pre-merge copy, so `y` reconciles against the
    // same pair `x` did, as if both passes ran at once). Both must store —
    // and serve — the same text: the merge may not depend on which member
    // interned which name first.
    let dirs: Vec<PathBuf> = ["x", "y", "x-copy"]
        .iter()
        .map(|tag| temp_state_dir(&format!("renamed-{tag}")))
        .collect();
    let x = durable_server(&dirs[0], |_| {});
    let y = durable_server(&dirs[1], |_| {});
    let x_copy = durable_server(&dirs[2], |_| {});
    put(&x, "contested", "A & !B");
    put(&x_copy, "contested", "A & !B");
    put(&y, "contested", "B & !A");

    for (member, peer) in [(&x, &y), (&y, &x_copy)] {
        let body = format!(r#"{{"peer": "{}"}}"#, peer.addr);
        let (status, v) = request(member, "POST", "/v1/replication/reconcile", &body);
        assert_eq!(status, 200, "{v:?}");
        assert_eq!(num_of(&v, "merged"), 1, "{v:?}");
    }
    let (on_x, on_y) = (kb_body(&x, "contested"), kb_body(&y, "contested"));
    assert_eq!(on_x, on_y, "members serve different merged text");
    // And the text is Δ of the pair: the two midpoints.
    let (mut sig, expect) = delta_oracle("A & !B", "B & !A");
    let n = sig.width();
    let v = arbitrex_server::json::parse(&on_x).expect("KB body is JSON");
    let merged = parse(&mut sig, str_of(&v, "formula")).expect("parse merged");
    assert_eq!(ModelSet::of_formula(&merged, n), expect);

    for server in [x, y, x_copy] {
        server.stop().unwrap();
    }
}
