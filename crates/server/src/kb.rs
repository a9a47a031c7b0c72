//! Named knowledge bases for iterated arbitration sessions.
//!
//! A stored KB is a formula together with the signature its variable
//! names live in and a monotonically increasing sequence number; the
//! `/v1/kb/{name}` endpoint arbitrates new information into it in place
//! (`ψ ← ψ Δ μ`), the paper's iterated-change reading of a theory
//! absorbing a stream of reports. The store is a read-mostly map of
//! independently locked entries: concurrent updates to *different* KBs
//! never contend, updates to the same KB serialize, and the sequence
//! number makes lost updates detectable (and, with `if_seq`,
//! preventable) for clients.
//!
//! # Durability
//!
//! The store has two backends. The default is purely in memory (tests,
//! benches, `arbx serve` without `--state-dir`). Every mutation — a
//! client's put, change or delete, a handoff's adoption, a reconcile's
//! merge — goes through [`KbStore::update`], which alone holds the
//! commit protocol; with [`DurabilityOptions`] that is:
//!
//! 1. compute the new state under the entry's lock,
//! 2. append it to the write-ahead log and **fsync** ([`crate::wal`]),
//! 3. only then publish it in memory and acknowledge to the client.
//!
//! A crash between 2 and 3 leaves a durable record of a commit nobody
//! was told about (harmless: replay keeps it); a crash during 2 leaves a
//! torn tail that recovery truncates (also harmless: nobody was told).
//! What can never happen is an acknowledged commit that recovery loses.
//!
//! Step 2 is a **group commit**: the record is appended — not
//! synced — under the WAL lock and receives a monotonically increasing
//! *ticket*; the committer then releases the WAL lock and blocks until
//! a dedicated flusher thread's shared fsync covers its ticket. One
//! fsync acknowledges every commit appended while the previous one ran,
//! so N concurrent commit streams pay ~1/N of an fsync each. A failed
//! shared flush refuses (500s) exactly the commits it covered; their
//! records may still reach disk, which is the always-allowed "durable
//! record of a commit nobody was told about". The ack point is
//! unchanged: no commit is acknowledged before an fsync (or a durable
//! snapshot — see below) covering its append has succeeded.
//!
//! The durable backend also maintains a *shadow* copy of the committed
//! state under the WAL lock — the materialized fold of the log — so
//! snapshots serialize a provably log-consistent state without touching
//! the per-entry locks (which a committing request may hold while
//! waiting on the WAL). Because the shadow folds *appended* records,
//! a snapshot durably carries even not-yet-fsynced appends; writing one
//! therefore advances the group-commit durable watermark and acks any
//! commits still waiting on the flusher.
//!
//! # Replication
//!
//! Every append is stamped with the store's fencing *epoch* and a
//! global *replication sequence number* (`rseq`, one per logged record
//! across all KBs) and retained in a [`crate::replication::ReplLog`]
//! ring for streaming to replicas. A replica applies the primary's
//! frames byte-for-byte through [`KbStore::apply_replicated`], which
//! enforces epoch fencing (a deposed primary's frames are refused) and
//! rseq contiguity (a gap forces a snapshot resync). Promotion bumps
//! the epoch and clears the replica's read-only flag.
//!
//! Lock order: entry lock → WAL/shadow lock → flush-progress lock →
//! map lock. The map lock is never held while acquiring an entry lock,
//! so a mutation holding its entry across a (slow, fsyncing) commit
//! cannot deadlock with lookups, deletes, or placeholder cleanup. The
//! flusher thread only ever takes the flush-progress lock, and fsyncs
//! with no lock held at all — that is what lets appends continue while
//! a flush is in flight. The replication log's ring lock is a leaf
//! acquired under the WAL/shadow lock (push) or with no other lock held
//! (fetch); it never acquires any other lock itself.

use std::collections::HashMap;
use std::fs::File;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use arbitrex_core::Faults;
use arbitrex_logic::canonical::fnv1a;
use arbitrex_logic::{numbered_canonical_bytes, rename_formula, Formula, Interp, ModelSet, Sig};

use crate::metrics;
use crate::recovery::{self, RecoverMode, RecoveryError, RecoveryReport};
use crate::replication::ReplLog;
use crate::snapshot::{self, SnapshotContents};
use crate::wal::{self, StampedRecord, Wal, WalRecord, WAL_FILE};

/// Longest accepted KB name.
pub const MAX_NAME_LEN: usize = 64;

/// Present in a state directory while its store is a demoted replica,
/// so recovery reopens it read-only: a restarted chain tail takes no
/// writes until a ring gives it a role (or an operator promotes it).
pub const REPLICA_MARKER: &str = "replica";

/// One stored knowledge base.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredKb {
    /// The signature the formula's variables are named in. Grows when new
    /// information mentions fresh variables.
    pub sig: Sig,
    /// The current theory.
    pub formula: Formula,
    /// Bumped by every committed mutation, starting at 1 on first put.
    /// `0` never names a committed state: it marks a placeholder entry
    /// whose creating commit has not reached the log yet (treated as
    /// absent everywhere).
    pub seq: u64,
}

/// Widest theory, in variables its formula mentions, whose digest
/// enumerates `Mod(ψ)`: `2^16` models take 512 KiB at most.
const DIGEST_ENUM_VARS: u32 = 16;

/// A KB's content hash for anti-entropy, bound to variable names: equal
/// hashes mean logically equivalent theories over the same names (up to
/// 64-bit collisions), so renamed theories such as `A & !B` and `B & !A`
/// differ.
///
/// The variables the formula mentions are numbered by name. Up to
/// 16 of them (`DIGEST_ENUM_VARS`), the hash covers the names `ψ` depends on
/// and `Mod(ψ)` over them, so by syntax irrelevance (R4/A4) equivalent
/// theories hash alike; past it, the names and the canonical bytes of the
/// renumbered formula.
pub fn theory_digest(sig: &Sig, formula: &Formula) -> u64 {
    let mut vars: Vec<_> = formula.vars().into_iter().collect();
    vars.sort_by(|a, b| sig.name(*a).cmp(sig.name(*b)));
    let mut by_name = vec![0u32; formula.max_var().map_or(0, |v| v.index() + 1)];
    for (rank, v) in vars.iter().enumerate() {
        by_name[v.index()] = rank as u32;
    }
    let named = rename_formula(formula, &by_name);
    let k = vars.len() as u32;
    let mut bytes = Vec::new();
    let push_name = |bytes: &mut Vec<u8>, rank: u32| {
        let name = sig.name(vars[rank as usize]).as_bytes();
        bytes.extend_from_slice(&(name.len() as u32).to_le_bytes());
        bytes.extend_from_slice(name);
    };
    let models = (k <= DIGEST_ENUM_VARS)
        .then(|| ModelSet::try_of_formula(&named, k).ok())
        .flatten();
    match models {
        Some(models) => {
            // ψ depends on bit `b` unless flipping it maps Mod(ψ) onto itself.
            let kept: Vec<u32> = (0..k)
                .filter(|&b| {
                    models
                        .iter()
                        .any(|m| !models.contains(Interp(m.0 ^ 1 << b)))
                })
                .collect();
            bytes.push(b'M');
            bytes.extend_from_slice(&(kept.len() as u32).to_le_bytes());
            for &b in &kept {
                push_name(&mut bytes, b);
            }
            let mut projected: Vec<u64> = models
                .iter()
                .map(|m| {
                    kept.iter()
                        .enumerate()
                        .fold(0, |acc, (to, &from)| acc | (m.0 >> from & 1) << to)
                })
                .collect();
            projected.sort_unstable();
            projected.dedup();
            bytes.extend_from_slice(&(projected.len() as u64).to_le_bytes());
            for p in projected {
                bytes.extend_from_slice(&p.to_le_bytes());
            }
        }
        None => {
            bytes.push(b'F');
            bytes.extend_from_slice(&k.to_le_bytes());
            for rank in 0..k {
                push_name(&mut bytes, rank);
            }
            bytes.extend_from_slice(&numbered_canonical_bytes(&named));
        }
    }
    fnv1a(&bytes)
}

/// Why a mutation did not commit.
#[derive(Debug)]
pub enum CommitError {
    /// The caller's `if_seq` did not match the current sequence number.
    Conflict {
        /// The sequence number actually current (0 when absent).
        current: u64,
    },
    /// The durable append (or its fsync) failed: the mutation was NOT
    /// applied and must not be acknowledged.
    Io(io::Error),
}

impl From<io::Error> for CommitError {
    fn from(e: io::Error) -> CommitError {
        CommitError::Io(e)
    }
}

/// Configuration of the durable backend.
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// State directory holding `wal.log` and `snapshot.bin`.
    pub dir: PathBuf,
    /// Snapshot after this many WAL records (0 disables periodic
    /// snapshots; one is still written on clean shutdown).
    pub snapshot_every: u64,
    /// What to do when recovery meets damage beyond a torn tail.
    pub recover: RecoverMode,
    /// Deterministic fault injection (testing): the log, the flusher and
    /// the snapshot writer charge its durability sites.
    pub faults: Faults,
    /// How long the group-commit flusher may linger past the
    /// oldest pending append waiting for batch-mates. Zero flushes as
    /// soon as the flusher is free (natural batching only).
    pub flush_interval: Duration,
    /// Start the fencing epoch here instead of continuing from what
    /// recovery found (never below it — a lower epoch would be a stamp
    /// regression on the next recovery).
    pub initial_epoch: Option<u64>,
}

struct DurableState {
    wal: Wal,
    /// The materialized fold of the log: exactly what recovery would
    /// rebuild. Snapshots serialize this, never the live entries.
    shadow: HashMap<String, StoredKb>,
    dir: PathBuf,
    snapshot_every: u64,
    since_snapshot: u64,
    /// Current fencing epoch, stamped into every appended frame.
    epoch: u64,
    /// The `rseq` the next appended frame will carry.
    next_rseq: u64,
}

/// Group-commit progress, shared between committers and the flusher.
struct FlushState {
    /// Records appended to the log so far; an append's ticket is the
    /// value after its increment.
    appended: u64,
    /// Highest ticket covered by a successful fsync or durable snapshot.
    durable: u64,
    /// Highest ticket covered by a failed flush attempt; waiters at or
    /// below it are refused.
    failed_through: u64,
    /// The most recent flush error, for refused waiters.
    error: String,
    /// When the oldest not-yet-flushed append landed (the
    /// `flush_interval` deadline is measured from here).
    oldest_pending: Option<Instant>,
    /// The store is closing: flush what is pending, then exit.
    shutdown: bool,
}

struct FlushShared {
    state: Mutex<FlushState>,
    /// Wakes the flusher (new appends, shutdown).
    work: Condvar,
    /// Wakes committers (a watermark advanced).
    done: Condvar,
}

/// The group-commit half of a durable backend: ticket issuing, the
/// flusher thread, and the ack rendezvous.
struct GroupCommit {
    shared: Arc<FlushShared>,
    flusher: Option<thread::JoinHandle<()>>,
}

impl GroupCommit {
    fn start(file: Arc<File>, faults: Faults, interval: Duration) -> GroupCommit {
        let shared = Arc::new(FlushShared {
            state: Mutex::new(FlushState {
                appended: 0,
                durable: 0,
                failed_through: 0,
                error: String::new(),
                oldest_pending: None,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let thread_shared = Arc::clone(&shared);
        let flusher = thread::Builder::new()
            .name("arbitrex-wal-flusher".to_string())
            .spawn(move || flusher_loop(&thread_shared, &file, &faults, interval))
            .expect("spawn wal flusher");
        GroupCommit {
            shared,
            flusher: Some(flusher),
        }
    }

    /// Issue the ticket for an append. Called under the WAL/shadow lock,
    /// which is what keeps ticket order consistent with file contents:
    /// a flusher that observes ticket T (under the flush-progress lock)
    /// is ordered after the `write(2)` that produced T's bytes.
    fn note_append(&self) -> u64 {
        let mut st = self.shared.state.lock().unwrap();
        st.appended += 1;
        let ticket = st.appended;
        if st.oldest_pending.is_none() {
            st.oldest_pending = Some(Instant::now());
        }
        drop(st);
        self.shared.work.notify_one();
        ticket
    }

    /// Block until `ticket` is durable (ack) or its flush failed
    /// (refuse). Called *after* the WAL/shadow lock is released; the
    /// caller's entry lock may stay held — that is per-KB serialization,
    /// and commits to other KBs keep flowing while we wait.
    fn wait_durable(&self, ticket: u64) -> io::Result<()> {
        let start = Instant::now();
        let mut st = self.shared.state.lock().unwrap();
        while st.durable < ticket && st.failed_through < ticket {
            st = self.shared.done.wait(st).unwrap();
        }
        let ok = st.durable >= ticket;
        let error = if ok { String::new() } else { st.error.clone() };
        drop(st);
        metrics::LATENCY_FLUSH_WAIT
            .record_nanos(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        if ok {
            metrics::GC_COMMITS.incr();
            Ok(())
        } else {
            Err(io::Error::other(format!(
                "group commit flush failed: {error}"
            )))
        }
    }

    /// A snapshot just became durable and the WAL was truncated: every
    /// append so far is carried by it (the snapshot serializes the
    /// shadow, the fold of all appends), so pending waiters are acked.
    /// Called under the WAL/shadow lock, which excludes new appends.
    fn ack_snapshot(&self) {
        let mut st = self.shared.state.lock().unwrap();
        let floor = st.durable.max(st.failed_through);
        if st.appended > floor {
            metrics::GC_SNAPSHOT_ACKS.add(st.appended - floor);
        }
        if st.appended > st.durable {
            st.durable = st.appended;
        }
        st.oldest_pending = None;
        drop(st);
        self.shared.done.notify_all();
    }

    /// Flush whatever is pending, then stop and join the flusher.
    fn stop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        if let Some(handle) = self.flusher.take() {
            let _ = handle.join();
        }
        // Defensive: nothing should be waiting once the server has
        // drained, but a straggler must be refused, never left hanging.
        let mut st = self.shared.state.lock().unwrap();
        if st.durable < st.appended && st.failed_through < st.appended {
            st.failed_through = st.appended;
            st.error = "store closed before flush".to_string();
        }
        drop(st);
        self.shared.done.notify_all();
    }
}

/// The flusher: wait for appends, optionally linger up to the flush
/// interval past the oldest pending append so batch-mates join, fsync
/// once with **no lock held**, then advance the durable (or failed)
/// watermark and wake every covered waiter. Commits that append during
/// the fsync form the next batch — that overlap is the natural batching
/// that makes one fsync pay for N commits under load.
fn flusher_loop(shared: &FlushShared, file: &File, faults: &Faults, interval: Duration) {
    loop {
        let target = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.appended > st.durable.max(st.failed_through) {
                    break;
                }
                if st.shutdown {
                    return;
                }
                st = shared.work.wait(st).unwrap();
            }
            if !interval.is_zero() && !st.shutdown {
                // Deadline accumulation: the fsync is issued at most
                // `interval` after the oldest unflushed append, however
                // many batch-mates have arrived by then.
                while let Some(oldest) = st.oldest_pending {
                    let elapsed = oldest.elapsed();
                    if elapsed >= interval || st.shutdown {
                        break;
                    }
                    let (guard, timeout) =
                        shared.work.wait_timeout(st, interval - elapsed).unwrap();
                    st = guard;
                    if timeout.timed_out() {
                        break;
                    }
                }
            }
            st.oldest_pending = None;
            st.appended
        };
        let result = wal::sync_file(file, faults);
        let mut st = shared.state.lock().unwrap();
        match result {
            Ok(()) => {
                metrics::GC_FSYNCS.incr();
                if target > st.durable {
                    st.durable = target;
                }
            }
            Err(e) => {
                metrics::GC_FLUSH_FAILURES.incr();
                st.error = e.to_string();
                if target > st.failed_through {
                    st.failed_through = target;
                }
            }
        }
        drop(st);
        shared.done.notify_all();
    }
}

struct DurableBackend {
    state: Mutex<DurableState>,
    group: GroupCommit,
    /// Retained frames + watermarks + role flags, shared with the
    /// replication endpoints and (on a replica) the puller thread.
    repl: Arc<ReplLog>,
}

impl DurableBackend {
    /// Append one stamped frame carrying `rec` at the next `rseq`, under
    /// the WAL/shadow lock `s`, and fold `rec` into the shadow. Returns
    /// the group-commit ticket and whether a periodic snapshot is due.
    fn append(
        &self,
        s: &mut DurableState,
        framed: Vec<u8>,
        rec: WalRecord,
    ) -> io::Result<(u64, bool)> {
        s.wal.append_frame_unsynced(&framed)?;
        let ticket = self.group.note_append();
        self.repl.push(s.epoch, s.next_rseq, framed);
        s.next_rseq += 1;
        rec.fold_into(&mut s.shadow);
        s.since_snapshot += 1;
        Ok((
            ticket,
            s.snapshot_every > 0 && s.since_snapshot >= s.snapshot_every,
        ))
    }
}

enum Durability {
    Memory,
    // Boxed: the backend is ~400 bytes and there is one per store, so
    // keep the in-memory variant from paying for it.
    Durable(Box<DurableBackend>),
}

/// A concurrent map from KB name to independently locked state.
pub struct KbStore {
    map: RwLock<HashMap<String, Arc<Mutex<StoredKb>>>>,
    /// Committed-KB count, mirrored from the map so `/metrics` scrapes
    /// never touch the map lock.
    count: AtomicUsize,
    durability: Durability,
}

impl Default for KbStore {
    fn default() -> KbStore {
        KbStore {
            map: RwLock::new(HashMap::new()),
            count: AtomicUsize::new(0),
            durability: Durability::Memory,
        }
    }
}

/// Is `name` a well-formed KB name (`[A-Za-z0-9_-]`, nonempty, bounded)?
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_NAME_LEN
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

impl KbStore {
    /// An empty in-memory store (nothing survives the process).
    pub fn new() -> KbStore {
        KbStore::default()
    }

    /// Open a durable store: recover `opts.dir` (snapshot + WAL replay,
    /// torn-tail repair), then position the log for appending. The
    /// returned report says what recovery found.
    pub fn open_durable(
        opts: DurabilityOptions,
    ) -> Result<(KbStore, RecoveryReport), RecoveryError> {
        let (state, report) = recovery::recover(&opts.dir, opts.recover)?;
        let wal = Wal::open(&opts.dir.join(WAL_FILE), opts.faults)?;
        let group =
            GroupCommit::start(wal.shared_file(), wal.faults().clone(), opts.flush_interval);
        // The epoch continues from (never drops below) what recovery
        // found — a lower stamp would read as corruption next time; the
        // rseq space always continues, promotion does not reset it.
        let epoch = opts.initial_epoch.unwrap_or(1).max(report.max_epoch).max(1);
        let next_rseq = report.max_rseq + 1;
        let replica = opts.dir.join(REPLICA_MARKER).exists();
        let repl = Arc::new(ReplLog::new(epoch, next_rseq, replica));
        let map = state
            .iter()
            .map(|(name, kb)| (name.clone(), Arc::new(Mutex::new(kb.clone()))))
            .collect::<HashMap<_, _>>();
        let store = KbStore {
            count: AtomicUsize::new(map.len()),
            map: RwLock::new(map),
            durability: Durability::Durable(Box::new(DurableBackend {
                state: Mutex::new(DurableState {
                    wal,
                    shadow: state,
                    dir: opts.dir,
                    snapshot_every: opts.snapshot_every,
                    since_snapshot: 0,
                    epoch,
                    next_rseq,
                }),
                group,
                repl,
            })),
        };
        Ok((store, report))
    }

    /// Read `name`'s committed KB under its entry lock; `None` when
    /// absent. The map lock is released before the entry is locked.
    pub fn read<R>(&self, name: &str, f: impl FnOnce(&StoredKb) -> R) -> Option<R> {
        let entry = self.map.read().unwrap().get(name).cloned()?;
        let kb = entry.lock().unwrap();
        // seq 0 is a placeholder or a deleted entry: not a KB.
        (kb.seq > 0).then(|| f(&kb))
    }

    /// The one way to change a KB. Takes `name`'s entry lock (reserving
    /// a placeholder when the name is absent), checks `if_seq`, and
    /// calls `f` with the committed KB, or `None`, under the lock. What
    /// `f` decides is appended to the WAL and waited durable with the
    /// lock still held, then published and acknowledged; a periodic
    /// snapshot it made due runs after the lock is released.
    ///
    /// `if_seq` guards an existing KB before `f` runs, and an absent
    /// one only when `f` creates it (the guard then must be 0): a
    /// guarded action on a missing KB is `f`'s to answer.
    pub fn update<T>(
        &self,
        name: &str,
        if_seq: Option<u64>,
        f: impl FnOnce(Option<&StoredKb>) -> (Next, T),
    ) -> Result<Updated<T>, CommitError> {
        let guard = |current: u64| match if_seq {
            Some(wanted) if wanted != current => Err(CommitError::Conflict { current }),
            _ => Ok(()),
        };
        let (value, seq, rseq, due) = self.locked(name, |entry, kb| -> Result<_, CommitError> {
            if kb.seq > 0 {
                guard(kb.seq)?;
            }
            let (next, value) = f((kb.seq > 0).then_some(&*kb));
            let next = match next {
                Next::Put(next) => {
                    // seq 0 would read as a placeholder, not a KB.
                    assert!(next.seq > 0, "a committed KB has seq > 0");
                    Some(next)
                }
                Next::Delete if kb.seq > 0 => None,
                Next::Delete | Next::Keep => return Ok((value, kb.seq, 0, false)),
            };
            if kb.seq == 0 {
                // Only a put of an absent KB gets here.
                guard(0)?;
            }
            let (rseq, due) = self.log(name, next.as_ref())?;
            self.publish(name, entry, kb, next);
            Ok((value, kb.seq, rseq, due))
        })?;
        if due {
            self.snapshot(false);
        }
        Ok(Updated { value, seq, rseq })
    }

    /// Remove `name`, guarded by `if_seq`: `Ok(None)` when no such KB
    /// exists, otherwise the delete's replication sequence number.
    pub fn delete(&self, name: &str, if_seq: Option<u64>) -> Result<Option<u64>, CommitError> {
        let done = self.update(name, if_seq, |kb| match kb {
            Some(_) => (Next::Delete, true),
            None => (Next::Keep, false),
        })?;
        Ok(done.value.then_some(done.rseq))
    }

    /// Run `f` under `name`'s entry lock, with a placeholder (seq 0)
    /// reserving the name when it is absent; a placeholder `f` leaves
    /// uncommitted is dropped again afterwards.
    fn locked<R>(
        &self,
        name: &str,
        f: impl FnOnce(&Arc<Mutex<StoredKb>>, &mut StoredKb) -> R,
    ) -> R {
        loop {
            let entry = self.entry_or_placeholder(name);
            let mut kb = entry.lock().unwrap();
            // A concurrent delete may have detached this entry between
            // the map lookup and our lock; its seq is 0 then. A fresh
            // placeholder also has seq 0 but is still in the map.
            if kb.seq == 0 && !self.is_current(name, &entry) {
                continue;
            }
            let out = f(&entry, &mut kb);
            let uncommitted = kb.seq == 0;
            drop(kb);
            if uncommitted {
                self.cleanup_placeholder(name, &entry);
            }
            return out;
        }
    }

    /// Publish a logged record in the live map, under the entry lock
    /// held by the caller: install `next`, or with `None` tombstone
    /// (seq 0) and detach the entry, so writers queued on its lock retry
    /// against the map instead of resurrecting it.
    fn publish(
        &self,
        name: &str,
        entry: &Arc<Mutex<StoredKb>>,
        kb: &mut StoredKb,
        next: Option<StoredKb>,
    ) {
        match next {
            Some(next) => {
                if kb.seq == 0 {
                    self.count.fetch_add(1, Ordering::Relaxed);
                }
                *kb = next;
            }
            None if kb.seq > 0 => {
                kb.seq = 0;
                self.detach_if(name, entry, |_| true);
                self.count.fetch_sub(1, Ordering::Relaxed);
            }
            None => {}
        }
    }

    /// Log `next` for `name` (`None`: its delete): append the record,
    /// fold it into the shadow, and wait until it is durable. In-memory
    /// stores trivially succeed (with `rseq` 0). Returns the record's
    /// replication sequence number and whether a periodic snapshot is
    /// now due.
    ///
    /// With group commit, the append + shadow fold happen under the
    /// WAL lock but the durability wait happens after releasing it, so
    /// commits to other KBs can append (and join the same fsync batch)
    /// while this one waits. If the shared flush fails the shadow is
    /// left ahead of the durable log — safe, because a later snapshot
    /// of the shadow is itself durable and replay keeps the last record
    /// per name; the commit is still refused and never published.
    ///
    /// The frame is retained for replication at append time, but the
    /// shippable watermark only advances after the durability wait
    /// succeeds — a replica is never served a frame the primary has not
    /// acknowledged to its own client.
    fn log(&self, name: &str, next: Option<&StoredKb>) -> io::Result<(u64, bool)> {
        let Ok(backend) = self.backend() else {
            return Ok((0, false));
        };
        let name = name.to_string();
        let rec = match next {
            Some(kb) => WalRecord::Commit {
                name,
                kb: kb.clone(),
            },
            None => WalRecord::Delete { name },
        };
        let (rseq, ticket, due) = {
            let mut s = backend.state.lock().unwrap();
            let rseq = s.next_rseq;
            let framed = wal::frame(s.epoch, rseq, &wal::encode_record(&rec));
            let (ticket, due) = backend.append(&mut s, framed, rec)?;
            (rseq, ticket, due)
        };
        backend.group.wait_durable(ticket)?;
        // The shared fsync that covered this record covered every
        // earlier append too, so the watermark jump is safe.
        backend.repl.advance_durable(rseq);
        backend.repl.set_visible(rseq);
        Ok((rseq, due))
    }

    /// Get the entry for `name`, inserting a placeholder (seq 0) if
    /// absent. Placeholders reserve the per-name lock for a creating
    /// commit; they read as absent until the commit lands.
    fn entry_or_placeholder(&self, name: &str) -> Arc<Mutex<StoredKb>> {
        if let Some(entry) = self.map.read().unwrap().get(name) {
            return Arc::clone(entry);
        }
        let mut map = self.map.write().unwrap();
        map.entry(name.to_string())
            .or_insert_with(|| {
                Arc::new(Mutex::new(StoredKb {
                    sig: Sig::new(),
                    formula: Formula::False,
                    seq: 0,
                }))
            })
            .clone()
    }

    /// Does the map still point at exactly this entry?
    fn is_current(&self, name: &str, entry: &Arc<Mutex<StoredKb>>) -> bool {
        self.map
            .read()
            .unwrap()
            .get(name)
            .is_some_and(|e| Arc::ptr_eq(e, entry))
    }

    /// Remove `entry` from the map if the map still holds it and `also`
    /// says so.
    fn detach_if(
        &self,
        name: &str,
        entry: &Arc<Mutex<StoredKb>>,
        also: impl FnOnce(&Mutex<StoredKb>) -> bool,
    ) {
        let mut map = self.map.write().unwrap();
        if map
            .get(name)
            .is_some_and(|e| Arc::ptr_eq(e, entry) && also(e))
        {
            map.remove(name);
        }
    }

    /// Remove `entry` from the map if it is an uncommitted placeholder
    /// this caller abandoned (failed or refused creating commit).
    /// `try_lock` keeps the lock order acyclic (the map lock is never
    /// held while *waiting* on an entry): if another thread holds the
    /// entry, it is mid-mutation and owns the cleanup decision — worst
    /// case a benign placeholder lingers until the next put reuses it.
    fn cleanup_placeholder(&self, name: &str, entry: &Arc<Mutex<StoredKb>>) {
        self.detach_if(
            name,
            entry,
            |e| matches!(e.try_lock(), Ok(kb) if kb.seq == 0),
        );
    }

    /// Number of stored KBs. Lock-free: a relaxed gauge mirrored from
    /// the map, so `/metrics` scrapes never contend with mutations.
    pub fn len(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Write a snapshot now (shutdown drain). A no-op in memory; a
    /// failure is counted and absorbed, since every commit is already
    /// durable in the WAL.
    pub fn snapshot_now(&self) {
        self.snapshot(true);
    }

    /// Snapshot protocol, under the WAL/shadow lock and with no entry
    /// lock held: serialize the shadow (the fold of the log), make it
    /// durable, then truncate the log it materializes. Unless `force`,
    /// only a due periodic snapshot is written. Commits are blocked for
    /// the duration, which is the price of the truncation being
    /// provably safe. The durable snapshot covers every append the
    /// shadow folded, so it also acks any commits still waiting on the
    /// group-commit flusher. A failure is counted
    /// (`wal.snapshot_errors`) and absorbed: the WAL still holds
    /// everything, truncation is merely postponed.
    fn snapshot(&self, force: bool) {
        let Ok(backend) = self.backend() else {
            return;
        };
        let mut s = backend.state.lock().unwrap();
        if !force && (s.snapshot_every == 0 || s.since_snapshot < s.snapshot_every) {
            return;
        }
        let watermark = s.next_rseq - 1;
        let written =
            snapshot::write_snapshot(&s.dir, &s.shadow, s.epoch, watermark, s.wal.faults())
                .and_then(|()| s.wal.truncate_to_empty());
        if written.is_err() {
            metrics::WAL_SNAPSHOT_ERRORS.incr();
            return;
        }
        s.since_snapshot = 0;
        backend.group.ack_snapshot();
        // The durable snapshot carries every append the shadow folded,
        // so those frames are shippable even if their fsync never ran.
        backend.repl.advance_durable(watermark);
    }

    /// The durable backend, or an error for an in-memory store.
    fn backend(&self) -> io::Result<&DurableBackend> {
        match &self.durability {
            Durability::Memory => Err(io::Error::other("this needs a durable store")),
            Durability::Durable(backend) => Ok(backend),
        }
    }

    /// The replication log of a durable store (`None` in memory).
    pub fn replication(&self) -> Option<&Arc<ReplLog>> {
        self.backend().ok().map(|backend| &backend.repl)
    }

    /// Apply one frame streamed from the primary, byte-for-byte.
    /// `framed` must be the exact wire bytes `stamped` was decoded from:
    /// they are appended to the local WAL verbatim, which is what makes
    /// primary and replica logs bit-identical over the shared history.
    ///
    /// Fencing and ordering are enforced here: a frame from an older
    /// epoch is refused ([`ApplyOutcome::StaleEpoch`] — a deposed
    /// primary is talking), an already-applied `rseq` is skipped
    /// ([`ApplyOutcome::Duplicate`]), and an `rseq` beyond the next
    /// expected one means frames were missed ([`ApplyOutcome::Gap`] —
    /// the caller resyncs from a snapshot). A *newer* epoch is adopted:
    /// the primary was promoted and this replica follows it.
    ///
    /// The apply does not wait for local durability — the primary's
    /// fsync was the commit's ack point, and the replica's group-commit
    /// flusher (or the next snapshot) makes the frame locally durable in
    /// the background. Visibility advances immediately so follower reads
    /// with `X-Arbitrex-Min-Seq` see the commit as soon as it applies.
    /// A periodic snapshot the frame made due runs before this returns.
    pub fn apply_replicated(
        &self,
        framed: &[u8],
        stamped: &StampedRecord,
    ) -> io::Result<ApplyOutcome> {
        let backend = self.backend()?;
        let due = {
            let mut s = backend.state.lock().unwrap();
            if stamped.epoch < s.epoch {
                return Ok(ApplyOutcome::StaleEpoch {
                    frame_epoch: stamped.epoch,
                    current_epoch: s.epoch,
                });
            }
            if stamped.rseq < s.next_rseq {
                return Ok(ApplyOutcome::Duplicate { rseq: stamped.rseq });
            }
            if stamped.rseq > s.next_rseq {
                return Ok(ApplyOutcome::Gap {
                    expected: s.next_rseq,
                    got: stamped.rseq,
                });
            }
            if stamped.epoch > s.epoch {
                s.epoch = stamped.epoch;
                backend.repl.set_epoch(stamped.epoch);
            }
            // The background flusher will cover this ticket; nobody
            // waits on it.
            let (_, due) = backend.append(&mut s, framed.to_vec(), stamped.record.clone())?;
            due
        };
        backend.repl.advance_durable(stamped.rseq);
        // Publish to the live map with the WAL lock released (entry
        // locks are taken above WAL in the lock order). Single-writer:
        // the puller is the only mutator of a read-only replica.
        let (name, next) = match &stamped.record {
            WalRecord::Commit { name, kb } => (name, Some(kb.clone())),
            WalRecord::Delete { name } => (name, None),
        };
        self.locked(name, |entry, kb| self.publish(name, entry, kb, next));
        backend.repl.set_visible(stamped.rseq);
        if due {
            self.snapshot(false);
        }
        Ok(ApplyOutcome::Applied { rseq: stamped.rseq })
    }

    /// Promote this store to primary: bump the fencing epoch and accept
    /// writes. Frames the deposed primary stamped with the old epoch are
    /// refused from here on. The rseq space continues — promotion never
    /// reuses a sequence number. The replica marker is removed first;
    /// if that fails nothing changes. Returns `(new_epoch, last_rseq)`.
    pub fn promote(&self) -> io::Result<(u64, u64)> {
        let backend = self.backend()?;
        let mut s = backend.state.lock().unwrap();
        // Not fsynced: a crash that loses the unlink reopens the store
        // read-only, the safe side (a second promote clears it).
        match std::fs::remove_file(s.dir.join(REPLICA_MARKER)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        s.epoch += 1;
        backend.repl.set_epoch(s.epoch);
        backend.repl.set_read_only(false);
        backend.repl.stop_puller();
        metrics::REPL_PROMOTIONS.incr();
        Ok((s.epoch, s.next_rseq - 1))
    }

    /// Demote this store to replica: refuse writes until the next
    /// promotion. The epoch is untouched — the follow/resync path adopts
    /// the new head's higher epoch when frames arrive. Used when a ring
    /// lists this node behind a head. The refusal starts at once; the
    /// replica marker then makes it survive a restart.
    pub fn demote(&self) -> io::Result<()> {
        let backend = self.backend()?;
        backend.repl.set_read_only(true);
        metrics::FAILOVER_DEMOTIONS.incr();
        let s = backend.state.lock().unwrap();
        File::create(s.dir.join(REPLICA_MARKER))?.sync_all()?;
        snapshot::sync_dir(&s.dir)
    }

    /// Per-KB digest for anti-entropy: `(name, seq, content hash)`,
    /// sorted by name, the hash from `theory_digest`. Two stores with
    /// equal digests hold logically identical state over the same names.
    pub fn digest(&self) -> Vec<(String, u64, u64)> {
        self.committed(|kb| theory_digest(&kb.sig, &kb.formula))
    }

    /// `(name, seq, read(kb))` for every committed KB, sorted by name.
    /// Each entry is locked alone, after the map lock is released.
    pub(crate) fn committed<T>(&self, read: impl Fn(&StoredKb) -> T) -> Vec<(String, u64, T)> {
        let entries: Vec<(String, Arc<Mutex<StoredKb>>)> = self
            .map
            .read()
            .unwrap()
            .iter()
            .map(|(name, entry)| (name.clone(), Arc::clone(entry)))
            .collect();
        let mut out = Vec::with_capacity(entries.len());
        for (name, entry) in entries {
            let kb = entry.lock().unwrap();
            if kb.seq > 0 {
                out.push((name, kb.seq, read(&kb)));
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// The in-memory snapshot image of the current state — what `GET
    /// /v1/replication/snapshot` serves a resyncing replica. Built from
    /// the shadow under the WAL lock, so it is log-consistent.
    pub fn snapshot_image(&self) -> io::Result<Vec<u8>> {
        let s = self.backend()?.state.lock().unwrap();
        Ok(snapshot::encode_snapshot(
            &s.shadow,
            s.epoch,
            s.next_rseq - 1,
        ))
    }

    /// Replace this store's entire state with a snapshot shipped from
    /// the primary (replica resync after falling behind frame retention
    /// or observing a promotion). The image is made locally durable
    /// first — crash-during-resync recovers to either the old state or
    /// the new one, never a mix.
    pub fn install_state(&self, contents: SnapshotContents) -> io::Result<()> {
        let backend = self.backend()?;
        let mut s = backend.state.lock().unwrap();
        snapshot::write_snapshot(
            &s.dir,
            &contents.entries,
            contents.epoch,
            contents.rseq,
            s.wal.faults(),
        )?;
        s.wal.truncate_to_empty()?;
        s.shadow = contents.entries.clone();
        s.epoch = contents.epoch;
        s.next_rseq = contents.rseq + 1;
        s.since_snapshot = 0;
        backend.group.ack_snapshot();
        backend.repl.reset(contents.epoch, contents.rseq);
        // Swap the live map under the WAL lock (WAL → map is the
        // documented order). The replica's single puller thread is the
        // only mutator, so no entry lock is held across this.
        let new_map: HashMap<String, Arc<Mutex<StoredKb>>> = contents
            .entries
            .into_iter()
            .map(|(name, kb)| (name, Arc::new(Mutex::new(kb))))
            .collect();
        let n = new_map.len();
        let mut map = self.map.write().unwrap();
        *map = new_map;
        drop(map);
        self.count.store(n, Ordering::Relaxed);
        Ok(())
    }
}

/// What an [`KbStore::update`] step decides for its KB.
#[derive(Debug)]
pub enum Next {
    /// Commit this state. Its `seq` is the caller's choice and must be
    /// above 0: the current seq + 1 for a client action, a peer's seq
    /// for an adoption.
    Put(StoredKb),
    /// Remove the KB (nothing is logged when it is absent).
    Delete,
    /// Leave the KB as it is; nothing is logged.
    Keep,
}

impl Next {
    /// Split a step that may refuse: a refusal leaves the KB as it is
    /// and comes back as the update's value.
    pub(crate) fn or_keep<T, E>(step: Result<(Next, T), E>) -> (Next, Result<T, E>) {
        match step {
            Ok((next, value)) => (next, Ok(value)),
            Err(e) => (Next::Keep, Err(e)),
        }
    }
}

/// What a successful [`KbStore::update`] did.
#[derive(Debug)]
pub struct Updated<T> {
    /// The step's value.
    pub value: T,
    /// The KB's seq afterwards (0 when absent).
    pub seq: u64,
    /// The logged record's replication sequence number (0 when nothing
    /// was logged, or in memory).
    pub rseq: u64,
}

/// What [`KbStore::apply_replicated`] did with a streamed frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyOutcome {
    /// Applied and visible.
    Applied {
        /// The frame's replication sequence number.
        rseq: u64,
    },
    /// Already applied (duplicate delivery); skipped.
    Duplicate {
        /// The duplicate frame's replication sequence number.
        rseq: u64,
    },
    /// Stamped by a deposed epoch; refused.
    StaleEpoch {
        /// The refused frame's epoch.
        frame_epoch: u64,
        /// This store's current epoch.
        current_epoch: u64,
    },
    /// Beyond the next expected `rseq`: frames were missed, resync.
    Gap {
        /// The `rseq` this store expected next.
        expected: u64,
        /// The `rseq` the frame actually carried.
        got: u64,
    },
}

impl Drop for KbStore {
    fn drop(&mut self) {
        if let Durability::Durable(backend) = &mut self.durability {
            backend.group.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbitrex_logic::parse;

    fn digest_of(text: &str) -> u64 {
        let mut sig = Sig::new();
        let f = parse(&mut sig, text).unwrap();
        theory_digest(&sig, &f)
    }

    #[test]
    fn theory_digest_binds_names_and_ignores_syntax() {
        // Renamed theories differ, whichever path hashes them.
        assert_ne!(digest_of("A & !B"), digest_of("B & !A"));
        assert_ne!(digest_of("A & !B"), digest_of("X & !Y"));
        let wide = |a: &str, b: &str| {
            let rest: Vec<String> = (0..16).map(|k| format!("V{k}")).collect();
            format!("{a} & !{b} & ({})", rest.join(" | "))
        };
        assert_ne!(digest_of(&wide("A", "B")), digest_of(&wide("B", "A")));
        assert_eq!(digest_of(&wide("A", "B")), digest_of(&wide("A", "B")));
        // Equivalent theories over the same names agree, in any variable
        // order of the signature and with idle variables dropped.
        assert_eq!(digest_of("A & !B"), digest_of("!B & A"));
        assert_eq!(digest_of("A -> B"), digest_of("B | !A"));
        assert_eq!(digest_of("A"), digest_of("A & (C | !C)"));
        assert_eq!(digest_of("A | !A"), digest_of("B | !B"));
        assert_ne!(digest_of("A | !A"), digest_of("A & !A"));
    }

    /// A client put through `update`: `text` at the current seq + 1.
    fn put(
        store: &KbStore,
        name: &str,
        text: &str,
        if_seq: Option<u64>,
    ) -> Result<u64, CommitError> {
        let mut sig = Sig::new();
        let formula = parse(&mut sig, text).unwrap();
        let done = store.update(name, if_seq, |kb| {
            let seq = kb.map_or(0, |kb| kb.seq) + 1;
            (Next::Put(StoredKb { sig, formula, seq }), ())
        })?;
        Ok(done.seq)
    }

    fn seq_of(store: &KbStore, name: &str) -> Option<u64> {
        store.read(name, |kb| kb.seq)
    }

    #[test]
    fn put_get_replace_delete_lifecycle() {
        let store = KbStore::new();
        assert!(seq_of(&store, "fleet").is_none());

        assert_eq!(put(&store, "fleet", "A & B", None).unwrap(), 1);
        assert_eq!(store.len(), 1);
        assert_eq!(seq_of(&store, "fleet"), Some(1));

        assert_eq!(put(&store, "fleet", "A | B", None).unwrap(), 2);
        // Reads observe the replacement: entries are shared state.
        assert_eq!(seq_of(&store, "fleet"), Some(2));

        assert!(store.delete("fleet", None).unwrap().is_some());
        assert!(store.delete("fleet", None).unwrap().is_none());
        assert!(store.is_empty());
    }

    #[test]
    fn an_update_that_grows_the_signature_bumps_seq_and_is_visible_to_read() {
        let store = KbStore::new();
        put(&store, "k", "A", None).unwrap();
        let done = store
            .update("k", Some(1), |kb| {
                let mut kb = kb.unwrap().clone();
                kb.formula = parse(&mut kb.sig, "A & C").unwrap();
                kb.seq += 1;
                (Next::Put(kb), ())
            })
            .unwrap();
        assert_eq!(done.seq, 2);
        let (seq, has_c) = store
            .read("k", |kb| (kb.seq, kb.sig.get("C").is_some()))
            .unwrap();
        assert_eq!(seq, 2);
        assert!(has_c);
    }

    #[test]
    fn if_seq_guards_put_and_delete() {
        let store = KbStore::new();

        // Creating with if_seq 0 means "only if absent".
        assert_eq!(put(&store, "k", "A", Some(0)).unwrap(), 1);
        match put(&store, "k", "A", Some(0)) {
            Err(CommitError::Conflict { current }) => assert_eq!(current, 1),
            other => panic!("expected conflict, got {other:?}"),
        }
        // A failed guarded create of a *new* name leaves no placeholder.
        match put(&store, "other", "A", Some(7)) {
            Err(CommitError::Conflict { current }) => assert_eq!(current, 0),
            other => panic!("expected conflict, got {other:?}"),
        }
        assert!(seq_of(&store, "other").is_none());
        assert!(store.map.read().unwrap().get("other").is_none());

        // Matching guard commits; stale guard then conflicts with the
        // new current seq.
        assert_eq!(put(&store, "k", "A", Some(1)).unwrap(), 2);
        match store.delete("k", Some(1)) {
            Err(CommitError::Conflict { current }) => assert_eq!(current, 2),
            other => panic!("expected conflict, got {other:?}"),
        }
        assert!(store.delete("k", Some(2)).unwrap().is_some());
        assert_eq!(store.len(), 0);
    }

    #[test]
    fn len_is_lock_free_and_tracks_mutations() {
        let store = KbStore::new();
        for i in 0..10 {
            put(&store, &format!("kb-{i}"), "A", None).unwrap();
        }
        assert_eq!(store.len(), 10);
        // Replacement does not change the count.
        put(&store, "kb-3", "A", None).unwrap();
        assert_eq!(store.len(), 10);
        store.delete("kb-3", None).unwrap();
        assert_eq!(store.len(), 9);
    }

    #[test]
    fn name_validation() {
        assert!(valid_name("fleet-1_config"));
        assert!(valid_name("A"));
        assert!(!valid_name(""));
        assert!(!valid_name("has space"));
        assert!(!valid_name("sneaky/../path"));
        assert!(!valid_name(&"x".repeat(MAX_NAME_LEN + 1)));
    }
}
