//! Crash-consistency suite for the durable KB store.
//!
//! Covers the acceptance criteria of the durability layer end to end,
//! over real sockets and a real state directory:
//!
//! * clean restart — every committed KB comes back with a byte-identical
//!   canonical formula and the same sequence number;
//! * the corruption matrix — torn tail (truncate and start), flipped CRC
//!   byte mid-log (strict refuses, salvage keeps the verified prefix),
//!   truncated snapshot (strict refuses, salvage replays the WAL alone),
//!   missing WAL with a stale snapshot (snapshot wins);
//! * injected durability faults (`wal_write`, `wal_fsync`,
//!   `snapshot_rename`) — a failed commit is a 500 and the KB is
//!   unchanged, both in memory and after a restart;
//! * `if_seq` optimistic concurrency (409 with the current seq) and the
//!   request-body cap (413 before buffering);
//! * a kill-9 harness — a child server process is SIGKILLed mid
//!   commit-storm; recovery must retain every acknowledged seq and at
//!   most one unacknowledged trailing commit.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use arbitrex_core::{FaultPlan, FaultSite, Faults};
use arbitrex_logic::{encode_formula, parse, Sig};
use arbitrex_server::kb::{DurabilityOptions, KbStore, Next, StoredKb};
use arbitrex_server::recovery::{self, RecoverMode};
use arbitrex_server::snapshot;
use arbitrex_server::wal::{self, Wal, WalRecord, WAL_FILE};
use arbitrex_server::{spawn, RunningServer, ServerConfig};

static DIR_ID: AtomicU64 = AtomicU64::new(0);

fn temp_state_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "arbx-durability-{}-{}",
        std::process::id(),
        DIR_ID.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn durable_server(dir: &Path, configure: impl FnOnce(&mut ServerConfig)) -> RunningServer {
    spawn(durable_config(dir, configure)).expect("spawn durable server")
}

fn durable_config(dir: &Path, configure: impl FnOnce(&mut ServerConfig)) -> ServerConfig {
    let mut config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        queue_depth: 16,
        state_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    };
    configure(&mut config);
    config
}

// --- shared HTTP client -------------------------------------------------------

mod common;
use common::{num_of, request, str_of, Client};

fn put_body(formula: &str) -> String {
    format!(r#"{{"action": "put", "formula": "{formula}"}}"#)
}

/// Open the state directory directly (no server) and return its KBs.
fn recover_map(dir: &Path, mode: RecoverMode) -> HashMap<String, StoredKb> {
    let (state, _report) = recovery::recover(dir, mode).expect("recover");
    state
}

/// The canonical bytes of `text` parsed in a fresh signature — what a
/// `put` of `text` stores and what replay must reproduce exactly.
fn canonical_of(text: &str) -> Vec<u8> {
    let mut sig = Sig::new();
    encode_formula(&parse(&mut sig, text).unwrap())
}

/// Frame `rec` and append it unsynced, as the store's commit path does.
fn append(wal: &mut Wal, epoch: u64, rseq: u64, rec: &WalRecord) {
    wal.append_frame_unsynced(&wal::frame(epoch, rseq, &wal::encode_record(rec)))
        .unwrap();
}

fn wal_commit(name: &str, text: &str, seq: u64) -> WalRecord {
    let mut sig = Sig::new();
    let formula = parse(&mut sig, text).unwrap();
    WalRecord::Commit {
        name: name.to_string(),
        kb: StoredKb { sig, formula, seq },
    }
}

// --- clean restart ------------------------------------------------------------

#[test]
fn restart_restores_formulas_byte_identically_with_seqs() {
    let dir = temp_state_dir();
    let server = durable_server(&dir, |_| {});

    let (status, v) = request(&server, "POST", "/v1/kb/alpha", &put_body("A & (B | !C)"));
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(num_of(&v, "seq"), 1);
    let (status, _) = request(&server, "POST", "/v1/kb/beta", &put_body("X ^ Y"));
    assert_eq!(status, 200);
    // Arbitrate new information into alpha: seq 2, exact commit.
    let (status, v) = request(
        &server,
        "POST",
        "/v1/kb/alpha",
        r#"{"action": "arbitrate", "formula": "!A & !B"}"#,
    );
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(str_of(&v, "quality"), "exact");
    assert_eq!(num_of(&v, "seq"), 2);
    let committed_formula = str_of(&v, "formula").to_string();
    // And a KB that gets deleted: it must stay deleted after replay.
    let (status, _) = request(&server, "POST", "/v1/kb/doomed", &put_body("D"));
    assert_eq!(status, 200);
    let (status, _) = request(&server, "DELETE", "/v1/kb/doomed", "");
    assert_eq!(status, 200);
    server.stop().unwrap();

    // Clean shutdown wrote a snapshot and truncated the WAL.
    assert!(dir.join(snapshot::SNAPSHOT_FILE).exists());
    assert_eq!(
        std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(),
        wal::WAL_MAGIC.len() as u64,
        "clean shutdown should leave an empty (magic-only) WAL"
    );

    let server = durable_server(&dir, |_| {});
    let report = server.state().recovery.expect("recovery report");
    assert!(report.snapshot_loaded);
    assert_eq!(report.kbs, 2);
    assert_eq!(report.max_seq, 2);

    let (status, v) = request(&server, "GET", "/v1/kb/alpha", "");
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(num_of(&v, "seq"), 2);
    assert_eq!(str_of(&v, "formula"), committed_formula);
    let (status, v) = request(&server, "GET", "/v1/kb/beta", "");
    assert_eq!(status, 200);
    assert_eq!(num_of(&v, "seq"), 1);
    let (status, _) = request(&server, "GET", "/v1/kb/doomed", "");
    assert_eq!(status, 404);
    server.stop().unwrap();

    // Byte-level check: the recovered canonical encoding of beta equals
    // a fresh parse of what was put.
    let state = recover_map(&dir, RecoverMode::Strict);
    assert_eq!(
        encode_formula(&state["beta"].formula),
        canonical_of("X ^ Y")
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

// --- the corruption matrix ----------------------------------------------------

#[test]
fn torn_tail_is_truncated_and_the_server_starts() {
    let dir = temp_state_dir();
    {
        let mut wal = Wal::open(&dir.join(WAL_FILE), Faults::default()).unwrap();
        append(&mut wal, 1, 1, &wal_commit("kept", "A | B", 1));
        append(&mut wal, 1, 2, &wal_commit("kept", "A & B", 2));
    }
    // Tear the final record: chop its last 5 bytes, as a crash mid-write
    // would.
    let wal_path = dir.join(WAL_FILE);
    let len = std::fs::metadata(&wal_path).unwrap().len();
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(&wal_path)
        .unwrap();
    f.set_len(len - 5).unwrap();
    drop(f);

    let server = durable_server(&dir, |_| {});
    let report = server.state().recovery.expect("report");
    assert!(report.torn_tail_truncated);
    assert_eq!(report.wal_records_replayed, 1);
    let (status, v) = request(&server, "GET", "/v1/kb/kept", "");
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(num_of(&v, "seq"), 1);
    // The truncated (never-acknowledged) second commit is gone.
    assert_eq!(str_of(&v, "formula"), "A | B");
    server.stop().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mid_log_corruption_refuses_strict_and_salvages_the_prefix() {
    let dir = temp_state_dir();
    {
        let mut wal = Wal::open(&dir.join(WAL_FILE), Faults::default()).unwrap();
        append(&mut wal, 1, 1, &wal_commit("first", "A", 1));
        append(&mut wal, 1, 2, &wal_commit("second", "B", 1));
        append(&mut wal, 1, 3, &wal_commit("third", "C", 1));
    }
    // Flip one byte inside the second record's payload: mid-log damage.
    let wal_path = dir.join(WAL_FILE);
    let mut bytes = std::fs::read(&wal_path).unwrap();
    let first_frame_len = {
        let pos = wal::WAL_MAGIC.len();
        wal::FRAME_HEADER_BYTES
            + u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize
    };
    let target = wal::WAL_MAGIC.len() + first_frame_len + wal::FRAME_HEADER_BYTES + 2;
    bytes[target] ^= 0xFF;
    std::fs::write(&wal_path, &bytes).unwrap();

    // Strict: the server refuses to start.
    let err = spawn(durable_config(&dir, |_| {}))
        .err()
        .expect("strict must refuse");
    assert!(err.to_string().contains("salvage"), "{err}");

    // Salvage: the verified prefix (record 1) survives, the rest is
    // dropped and counted.
    let server = durable_server(&dir, |c| c.recover = RecoverMode::Salvage);
    let report = server.state().recovery.expect("report");
    assert!(report.salvaged_bytes_dropped > 0);
    assert_eq!(report.wal_records_replayed, 1);
    let (status, _) = request(&server, "GET", "/v1/kb/first", "");
    assert_eq!(status, 200);
    let (status, _) = request(&server, "GET", "/v1/kb/second", "");
    assert_eq!(status, 404);
    server.stop().unwrap();

    // Salvage physically repaired the log: strict now starts.
    let server = durable_server(&dir, |_| {});
    server.stop().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncated_snapshot_refuses_strict_and_salvage_replays_the_wal() {
    let dir = temp_state_dir();
    // A snapshot holding `snap`, then a WAL commit of `walkb`.
    let mut entries = HashMap::new();
    let mut sig = Sig::new();
    let formula = parse(&mut sig, "S1 & S2").unwrap();
    entries.insert(
        "snap".to_string(),
        StoredKb {
            sig,
            formula,
            seq: 4,
        },
    );
    snapshot::write_snapshot(&dir, &entries, 1, 4, &Faults::default()).unwrap();
    {
        let mut wal = Wal::open(&dir.join(WAL_FILE), Faults::default()).unwrap();
        append(&mut wal, 1, 5, &wal_commit("walkb", "W", 1));
    }
    // Truncate the snapshot mid-file.
    let snap_path = dir.join(snapshot::SNAPSHOT_FILE);
    let bytes = std::fs::read(&snap_path).unwrap();
    std::fs::write(&snap_path, &bytes[..bytes.len() - 6]).unwrap();

    let err = spawn(durable_config(&dir, |_| {}))
        .err()
        .expect("strict must refuse");
    assert!(err.to_string().contains("salvage"), "{err}");

    let server = durable_server(&dir, |c| c.recover = RecoverMode::Salvage);
    let report = server.state().recovery.expect("report");
    assert!(report.snapshot_dropped);
    // The snapshot-only KB is lost (that is what salvage means); the WAL
    // commit survives.
    let (status, _) = request(&server, "GET", "/v1/kb/snap", "");
    assert_eq!(status, 404);
    let (status, v) = request(&server, "GET", "/v1/kb/walkb", "");
    assert_eq!(status, 200, "{v:?}");
    server.stop().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn missing_wal_with_stale_snapshot_recovers_the_snapshot() {
    let dir = temp_state_dir();
    let mut entries = HashMap::new();
    let mut sig = Sig::new();
    let formula = parse(&mut sig, "P | Q").unwrap();
    entries.insert(
        "only".to_string(),
        StoredKb {
            sig,
            formula,
            seq: 9,
        },
    );
    snapshot::write_snapshot(&dir, &entries, 1, 9, &Faults::default()).unwrap();
    // A stray snapshot.tmp (crash debris) must be ignored and removed.
    std::fs::write(dir.join(snapshot::SNAPSHOT_TMP), b"garbage").unwrap();
    assert!(!dir.join(WAL_FILE).exists());

    let server = durable_server(&dir, |_| {});
    let report = server.state().recovery.expect("report");
    assert!(report.snapshot_loaded);
    assert_eq!(report.wal_records_replayed, 0);
    assert_eq!(report.max_seq, 9);
    assert!(!dir.join(snapshot::SNAPSHOT_TMP).exists());
    let (status, v) = request(&server, "GET", "/v1/kb/only", "");
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(num_of(&v, "seq"), 9);
    server.stop().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

// --- injected durability faults ----------------------------------------------

#[test]
fn wal_write_fault_fails_the_commit_and_leaves_the_kb_unchanged() {
    let dir = temp_state_dir();
    let server = durable_server(&dir, |c| {
        c.faults = Faults::new([FaultPlan::new(FaultSite::WalWrite, 2)]);
    });
    let (status, _) = request(&server, "POST", "/v1/kb/kb", &put_body("A & B"));
    assert_eq!(status, 200);
    // The second append trips: a genuinely torn frame lands on disk and
    // the commit fails with a 500.
    let (status, v) = request(&server, "POST", "/v1/kb/kb", &put_body("A | B"));
    assert_eq!(status, 500, "{v:?}");
    assert!(
        str_of(&v, "error").contains("durable commit failed"),
        "{v:?}"
    );
    // In memory: unchanged.
    let (status, v) = request(&server, "GET", "/v1/kb/kb", "");
    assert_eq!(status, 200);
    assert_eq!(num_of(&v, "seq"), 1);
    assert_eq!(str_of(&v, "formula"), "A & B");
    server.stop().unwrap();

    // After restart the torn frame is truncated away and the acked state
    // is intact.
    let server = durable_server(&dir, |_| {});
    let (status, v) = request(&server, "GET", "/v1/kb/kb", "");
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(num_of(&v, "seq"), 1);
    assert_eq!(str_of(&v, "formula"), "A & B");
    server.stop().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_torn_wal_write_refuses_every_later_commit() {
    let dir = temp_state_dir();
    let server = durable_server(&dir, |c| {
        c.faults = Faults::new([FaultPlan::new(FaultSite::WalWrite, 2)]);
    });
    let (status, v) = request(&server, "POST", "/v1/kb/first", &put_body("A & B"));
    assert_eq!(status, 200, "{v:?}");
    // The second append tears its frame on disk and fails.
    let (status, v) = request(&server, "POST", "/v1/kb/first", &put_body("A | B"));
    assert_eq!(status, 500, "{v:?}");
    // A commit to another KB would land behind the torn frame, where
    // recovery truncates: it must be refused too, never acked.
    let (status, v) = request(&server, "POST", "/v1/kb/second", &put_body("!A"));
    assert_eq!(status, 500, "{v:?}");
    let (status, _) = request(&server, "GET", "/v1/kb/second", "");
    assert_eq!(status, 404);
    server.stop().unwrap();

    // After a restart exactly the acked commit is present.
    let kbs = recover_map(&dir, RecoverMode::Strict);
    assert_eq!(kbs.len(), 1, "{:?}", kbs.keys().collect::<Vec<_>>());
    assert_eq!(kbs["first"].seq, 1);
    assert_eq!(encode_formula(&kbs["first"].formula), canonical_of("A & B"));
    let server = durable_server(&dir, |_| {});
    let (status, v) = request(&server, "GET", "/v1/kb/first", "");
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(num_of(&v, "seq"), 1);
    assert_eq!(str_of(&v, "formula"), "A & B");
    let (status, _) = request(&server, "GET", "/v1/kb/second", "");
    assert_eq!(status, 404);
    server.stop().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn wal_fsync_fault_fails_the_commit() {
    let dir = temp_state_dir();
    let server = durable_server(&dir, |c| {
        c.faults = Faults::new([FaultPlan::new(FaultSite::WalFsync, 1)]);
    });
    let (status, v) = request(&server, "POST", "/v1/kb/kb", &put_body("A"));
    assert_eq!(status, 500, "{v:?}");
    // Never acknowledged, never created.
    let (status, _) = request(&server, "GET", "/v1/kb/kb", "");
    assert_eq!(status, 404);
    server.stop().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn snapshot_rename_fault_leaves_every_commit_safe_in_the_wal() {
    let dir = temp_state_dir();
    let server = durable_server(&dir, |c| {
        c.snapshot_every = 1;
        c.faults = Faults::new([FaultPlan::new(FaultSite::SnapshotRename, 1)]);
    });
    // The commit acks 200 even though the due snapshot then fails — the
    // record is already durable in the log.
    let (status, v) = request(&server, "POST", "/v1/kb/kb", &put_body("A & !B"));
    assert_eq!(status, 200, "{v:?}");
    // The failed rename leaves the fsync'd temp file behind.
    assert!(dir.join(snapshot::SNAPSHOT_TMP).exists());
    assert!(!dir.join(snapshot::SNAPSHOT_FILE).exists());
    drop(server); // SIGKILL-like: no clean shutdown snapshot.

    let server = durable_server(&dir, |_| {});
    let report = server.state().recovery.expect("report");
    assert!(!report.snapshot_loaded);
    assert_eq!(report.wal_records_replayed, 1);
    let (status, v) = request(&server, "GET", "/v1/kb/kb", "");
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(str_of(&v, "formula"), "A & !B");
    server.stop().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

// --- satellites: if_seq and the body cap -------------------------------------

#[test]
fn if_seq_guards_mutations_with_a_typed_409() {
    let server = spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        ..ServerConfig::default()
    })
    .unwrap();
    let (status, _) = request(&server, "POST", "/v1/kb/kb", &put_body("A"));
    assert_eq!(status, 200);

    // Stale guard: 409 carrying both seqs.
    let (status, v) = request(
        &server,
        "POST",
        "/v1/kb/kb",
        r#"{"action": "put", "formula": "B", "if_seq": 7}"#,
    );
    assert_eq!(status, 409, "{v:?}");
    assert_eq!(num_of(&v, "code"), 409);
    assert_eq!(num_of(&v, "seq"), 1);
    assert_eq!(num_of(&v, "if_seq"), 7);

    // Matching guard: commits.
    let (status, v) = request(
        &server,
        "POST",
        "/v1/kb/kb",
        r#"{"action": "put", "formula": "B", "if_seq": 1}"#,
    );
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(num_of(&v, "seq"), 2);

    // The guard also covers arbitrate, iterate, and delete.
    let (status, v) = request(
        &server,
        "POST",
        "/v1/kb/kb",
        r#"{"action": "arbitrate", "formula": "!B", "if_seq": 1}"#,
    );
    assert_eq!(status, 409, "{v:?}");
    let (status, _) = request(
        &server,
        "POST",
        "/v1/kb/kb",
        r#"{"action": "iterate", "formula": "B", "if_seq": 9}"#,
    );
    assert_eq!(status, 409);
    let (status, _) = request(
        &server,
        "POST",
        "/v1/kb/kb",
        r#"{"action": "delete", "if_seq": 9}"#,
    );
    assert_eq!(status, 409);
    let (status, _) = request(
        &server,
        "POST",
        "/v1/kb/kb",
        r#"{"action": "delete", "if_seq": 2}"#,
    );
    assert_eq!(status, 200);
    // Creating a KB guarded on "does not exist yet": if_seq 0.
    let (status, v) = request(
        &server,
        "POST",
        "/v1/kb/fresh",
        r#"{"action": "put", "formula": "C", "if_seq": 0}"#,
    );
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(num_of(&v, "seq"), 1);
    server.stop().unwrap();
}

#[test]
fn oversized_bodies_are_refused_413_before_buffering() {
    let server = spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 1,
        max_body_bytes: 256,
        ..ServerConfig::default()
    })
    .unwrap();
    let big = format!(
        r#"{{"action": "put", "formula": "{}"}}"#,
        "A & ".repeat(200) + "A"
    );
    assert!(big.len() > 256);
    let (status, v) = Client::connect(server.addr)
        .try_request("POST", "/v1/kb/kb", &big)
        .expect("413 exchange");
    assert_eq!(status, 413, "{v:?}");
    assert!(str_of(&v, "error").contains("exceeds"), "{v:?}");
    // A small request still works.
    let (status, _) = request(&server, "POST", "/v1/kb/kb", &put_body("A"));
    assert_eq!(status, 200);
    server.stop().unwrap();
}

// --- group commit ------------------------------------------------------------

fn durable_store(dir: &Path, flush_interval: Duration) -> KbStore {
    let (store, _report) = KbStore::open_durable(DurabilityOptions {
        dir: dir.to_path_buf(),
        snapshot_every: 0,
        recover: RecoverMode::Strict,
        faults: Faults::default(),
        flush_interval,
        initial_epoch: None,
    })
    .expect("open durable store");
    store
}

#[test]
fn a_demoted_store_reopens_read_only_until_promoted() {
    let dir = temp_state_dir();
    let read_only = |store: &KbStore| store.replication().expect("durable").read_only();
    let store = durable_store(&dir, Duration::ZERO);
    assert!(!read_only(&store));
    store.demote().expect("demote");
    assert!(read_only(&store));
    drop(store);

    // The demotion survives the restart; only a promotion clears it.
    let store = durable_store(&dir, Duration::ZERO);
    assert!(read_only(&store), "a demoted store reopened writable");
    assert_eq!(store.promote().expect("promote"), (2, 0));
    assert!(!read_only(&store));
    drop(store);
    let store = durable_store(&dir, Duration::ZERO);
    assert!(!read_only(&store), "a promoted store reopened read-only");
}

/// A client put through the store's one write path: `oracle(i)` at the
/// current seq + 1. Returns the committed seq.
fn put_oracle(store: &KbStore, name: &str, i: u64) -> u64 {
    let mut sig = Sig::new();
    let formula = parse(&mut sig, &oracle(i)).unwrap();
    store
        .update(name, None, |kb| {
            let seq = kb.map_or(0, |kb| kb.seq) + 1;
            (Next::Put(StoredKb { sig, formula, seq }), ())
        })
        .unwrap_or_else(|e| panic!("commit {i} on {name}: {e:?}"))
        .seq
}

/// N committer threads, each driving its own KB through `commits`
/// sequential puts. Every put must be acknowledged.
fn commit_storm(store: &KbStore, threads: u64, commits: u64) {
    std::thread::scope(|scope| {
        for t in 0..threads {
            let store = &store;
            scope.spawn(move || {
                let name = format!("kb-{t}");
                for i in 1..=commits {
                    assert_eq!(put_oracle(store, &name, i), i);
                }
            });
        }
    });
}

/// Every KB from [`commit_storm`] recovered at its final seq with the
/// oracle's exact canonical bytes.
fn assert_storm_recovered(dir: &Path, threads: u64, commits: u64) {
    let recovered = recover_map(dir, RecoverMode::Strict);
    assert_eq!(recovered.len(), threads as usize);
    for t in 0..threads {
        let kb = &recovered[&format!("kb-{t}")];
        assert_eq!(kb.seq, commits);
        assert_eq!(encode_formula(&kb.formula), canonical_of(&oracle(commits)));
    }
}

#[test]
fn group_commit_acks_every_concurrent_commit_durably() {
    let dir = temp_state_dir();
    {
        let store = durable_store(&dir, Duration::ZERO);
        commit_storm(&store, 8, 32);
        // The store drops here: the flusher drains and joins.
    }
    assert_storm_recovered(&dir, 8, 32);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn flush_interval_lingers_without_losing_acks() {
    let dir = temp_state_dir();
    {
        // A 2ms linger forces the deadline-accumulation path: the
        // flusher waits for batch-mates, then must still ack everyone.
        let store = durable_store(&dir, Duration::from_millis(2));
        commit_storm(&store, 4, 16);
    }
    assert_storm_recovered(&dir, 4, 16);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn group_commit_snapshot_acks_pending_commits() {
    let dir = temp_state_dir();
    {
        let (store, _report) = KbStore::open_durable(DurabilityOptions {
            dir: dir.clone(),
            snapshot_every: 4, // snapshots race the flusher mid-storm
            recover: RecoverMode::Strict,
            faults: Faults::default(),
            flush_interval: Duration::from_millis(1),
            initial_epoch: None,
        })
        .expect("open durable store");
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let store = &store;
                scope.spawn(move || {
                    let name = format!("kb-{t}");
                    // The store writes each due snapshot itself,
                    // after releasing the entry lock.
                    for i in 1..=16u64 {
                        put_oracle(store, &name, i);
                    }
                });
            }
        });
        assert!(dir.join(snapshot::SNAPSHOT_FILE).exists());
    }
    assert_storm_recovered(&dir, 4, 16);
    std::fs::remove_dir_all(&dir).unwrap();
}

// --- the kill-9 harness -------------------------------------------------------

/// Deterministic oracle: the formula the i-th put writes. Always the
/// same six variables in the same order, so a fresh parse reproduces the
/// stored encoding bit for bit.
fn oracle(i: u64) -> String {
    let mut parts = Vec::with_capacity(6);
    for (bit, name) in ["VA", "VB", "VC", "VD", "VE", "VF"].iter().enumerate() {
        if (i >> bit) & 1 == 1 {
            parts.push(name.to_string());
        } else {
            parts.push(format!("!{name}"));
        }
    }
    parts.join(" & ")
}

/// Child mode for the kill-9 harness: runs a durable server and blocks
/// until killed. A no-op under a normal test run (the env var is absent).
#[test]
fn child_server_main() {
    let Ok(dir) = std::env::var("ARBX_DURABILITY_CHILD_DIR") else {
        return;
    };
    let dir = PathBuf::from(dir);
    let server = durable_server(&dir, |c| {
        c.threads = 2;
        c.snapshot_every = 16; // exercise snapshot + truncate mid-storm
    });
    // Publish the bound address atomically (write + rename).
    let tmp = dir.join("addr.tmp");
    std::fs::write(&tmp, server.addr.to_string()).unwrap();
    std::fs::rename(&tmp, dir.join("addr.txt")).unwrap();
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

#[test]
fn kill9_mid_commit_storm_loses_no_acknowledged_commit() {
    let dir = temp_state_dir();
    let exe = std::env::current_exe().unwrap();
    let mut child = std::process::Command::new(&exe)
        .args([
            "child_server_main",
            "--exact",
            "--nocapture",
            "--test-threads=1",
        ])
        .env("ARBX_DURABILITY_CHILD_DIR", &dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn child server");

    // Wait for the child to publish its address.
    let addr_file = dir.join("addr.txt");
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let addr: std::net::SocketAddr = loop {
        if let Ok(text) = std::fs::read_to_string(&addr_file) {
            if let Ok(addr) = text.trim().parse() {
                break addr;
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "child never published an address"
        );
        std::thread::sleep(Duration::from_millis(20));
    };

    // SIGKILL lands mid-storm, from another thread, while commits are in
    // flight. Child::kill is SIGKILL on Unix: no drain, no snapshot.
    let killer = {
        let pid = child.id();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(250));
            #[cfg(unix)]
            {
                extern "C" {
                    fn kill(pid: i32, sig: i32) -> i32;
                }
                unsafe { kill(pid as i32, 9) };
            }
            #[cfg(not(unix))]
            let _ = pid;
        })
    };

    // The commit storm: sequential puts on one keep-alive connection.
    // Every 200 response is an acknowledged, fsync'd commit.
    let mut client = Client::connect(addr);
    let mut last_acked = 0u64;
    for i in 1..=100_000u64 {
        match client.try_request("POST", "/v1/kb/storm", &put_body(&oracle(i))) {
            Ok((200, v)) => {
                assert_eq!(num_of(&v, "seq"), i, "acks must be sequential");
                last_acked = i;
            }
            Ok((status, v)) => panic!("unexpected status {status}: {v:?}"),
            Err(_) => break, // the kill landed
        }
    }
    killer.join().unwrap();
    let _ = child.kill();
    let _ = child.wait();
    assert!(last_acked > 0, "no commit was ever acknowledged");

    // Recover the directory in-process and check the crash-consistency
    // contract: every acknowledged commit is present (seq can only have
    // advanced past last_acked by the one in-flight, unacknowledged put),
    // and the surviving formula is byte-identical to the oracle's.
    let (store, report) = KbStore::open_durable(DurabilityOptions {
        dir: dir.clone(),
        snapshot_every: 0,
        recover: RecoverMode::Strict,
        faults: Faults::default(),
        flush_interval: Duration::ZERO,
        initial_epoch: None,
    })
    .expect("strict recovery after SIGKILL");
    let kb = store
        .read("storm", StoredKb::clone)
        .expect("storm KB survived");
    assert!(
        kb.seq == last_acked || kb.seq == last_acked + 1,
        "recovered seq {} vs last acked {last_acked}",
        kb.seq
    );
    assert_eq!(
        encode_formula(&kb.formula),
        canonical_of(&oracle(kb.seq)),
        "recovered formula must match the oracle for seq {}",
        kb.seq
    );
    assert_eq!(report.max_seq, kb.seq);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Child mode for the group-commit kill-9 harness: a durable server with
/// a nonzero group-commit flush interval, so the SIGKILL lands
/// while batched, not-yet-fsynced appends are in flight. A no-op under a
/// normal test run (the env var is absent).
#[test]
fn child_group_commit_server_main() {
    let Ok(dir) = std::env::var("ARBX_GC_CHILD_DIR") else {
        return;
    };
    let dir = PathBuf::from(dir);
    let server = durable_server(&dir, |c| {
        c.threads = 4;
        c.snapshot_every = 16;
        c.flush_interval_us = 200; // widen the append→fsync window
    });
    let tmp = dir.join("addr.tmp");
    std::fs::write(&tmp, server.addr.to_string()).unwrap();
    std::fs::rename(&tmp, dir.join("addr.txt")).unwrap();
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

#[test]
fn kill9_group_commit_storm_loses_no_acknowledged_commit() {
    const CLIENTS: u64 = 4;
    let dir = temp_state_dir();
    let exe = std::env::current_exe().unwrap();
    let mut child = std::process::Command::new(&exe)
        .args([
            "child_group_commit_server_main",
            "--exact",
            "--nocapture",
            "--test-threads=1",
        ])
        .env("ARBX_GC_CHILD_DIR", &dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn child server");

    let addr_file = dir.join("addr.txt");
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let addr: std::net::SocketAddr = loop {
        if let Ok(text) = std::fs::read_to_string(&addr_file) {
            if let Ok(addr) = text.trim().parse() {
                break addr;
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "child never published an address"
        );
        std::thread::sleep(Duration::from_millis(20));
    };

    let killer = {
        let pid = child.id();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(400));
            #[cfg(unix)]
            {
                extern "C" {
                    fn kill(pid: i32, sig: i32) -> i32;
                }
                unsafe { kill(pid as i32, 9) };
            }
            #[cfg(not(unix))]
            let _ = pid;
        })
    };

    // Concurrent commit storms: one sequential client per KB, so the
    // per-KB in-flight window is exactly one put, while across KBs the
    // flusher sees genuinely concurrent appends to batch.
    let clients: Vec<std::thread::JoinHandle<u64>> = (0..CLIENTS)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                let path = format!("/v1/kb/storm-{t}");
                let mut last_acked = 0u64;
                for i in 1..=100_000u64 {
                    match client.try_request("POST", &path, &put_body(&oracle(i))) {
                        Ok((200, v)) => {
                            assert_eq!(num_of(&v, "seq"), i, "acks must be sequential");
                            last_acked = i;
                        }
                        Ok((status, v)) => panic!("unexpected status {status}: {v:?}"),
                        Err(_) => break, // the kill landed
                    }
                }
                last_acked
            })
        })
        .collect();
    let acked: Vec<u64> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    killer.join().unwrap();
    let _ = child.kill();
    let _ = child.wait();

    // The crash-consistency contract, per KB: every acknowledged commit
    // survives; at most the one in-flight (possibly batched-but-unacked)
    // put may additionally have reached the log.
    let (store, _report) = KbStore::open_durable(DurabilityOptions {
        dir: dir.clone(),
        snapshot_every: 0,
        recover: RecoverMode::Strict,
        faults: Faults::default(),
        flush_interval: Duration::ZERO,
        initial_epoch: None,
    })
    .expect("strict recovery after SIGKILL");
    for (t, last_acked) in acked.iter().enumerate() {
        assert!(
            *last_acked > 0,
            "client {t} never got a single acknowledgement"
        );
        let kb = store
            .read(&format!("storm-{t}"), StoredKb::clone)
            .unwrap_or_else(|| panic!("storm-{t} KB survived"));
        assert!(
            kb.seq == *last_acked || kb.seq == *last_acked + 1,
            "storm-{t}: recovered seq {} vs last acked {last_acked}",
            kb.seq
        );
        assert_eq!(
            encode_formula(&kb.formula),
            canonical_of(&oracle(kb.seq)),
            "storm-{t}: recovered formula must match the oracle for seq {}",
            kb.seq
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
