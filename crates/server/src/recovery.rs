//! Startup recovery: rebuild the KB store from snapshot + WAL.
//!
//! The recovered state is `fold(apply, snapshot, wal_records)` — the
//! snapshot is the materialized prefix of the log, the log holds
//! everything committed since. The scan verdict from [`crate::wal::scan`]
//! decides what a bad frame means:
//!
//! * **torn tail** — the final frame is incomplete or fails its CRC with
//!   nothing after it. That is the signature of a crash mid-append: the
//!   record was *never acknowledged* (acks happen after fsync), so it is
//!   safe to drop. Recovery truncates the file at the bad frame and
//!   starts.
//! * **mid-log corruption** — a bad frame with more log after it means
//!   acknowledged history is damaged. In [`RecoverMode::Strict`] (the
//!   default) the server refuses to start rather than silently serve a
//!   state missing acknowledged commits. `--recover=salvage` keeps the
//!   verified prefix, truncates the rest, and counts what was dropped.
//!
//! A corrupt snapshot likewise refuses in strict mode; salvage drops it
//! and replays the WAL alone (whatever the log still proves). After
//! recovery the in-memory `seq` of every KB equals the on-disk one by
//! construction — replay *is* the on-disk state.

use std::collections::HashMap;
use std::fs::OpenOptions;
use std::io;
use std::path::Path;

use crate::kb::StoredKb;
use crate::metrics;
use crate::snapshot;
use crate::wal::{self, ScanTail, WalRecord, WAL_FILE};

/// What to do when recovery meets damage beyond a torn tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoverMode {
    /// Refuse to start on mid-log or snapshot corruption (default).
    #[default]
    Strict,
    /// Keep the verified prefix, drop the damage, count what was lost.
    Salvage,
}

impl RecoverMode {
    /// Stable flag-value name (`--recover=strict|salvage`).
    pub fn name(self) -> &'static str {
        match self {
            RecoverMode::Strict => "strict",
            RecoverMode::Salvage => "salvage",
        }
    }

    /// Parse a `--recover` flag value.
    pub fn parse(text: &str) -> Option<RecoverMode> {
        match text {
            "strict" => Some(RecoverMode::Strict),
            "salvage" => Some(RecoverMode::Salvage),
            _ => None,
        }
    }
}

/// Why recovery refused to start.
#[derive(Debug)]
pub enum RecoveryError {
    /// An I/O error reading or repairing the state directory.
    Io(io::Error),
    /// Mid-log corruption in strict mode.
    CorruptWal {
        /// Byte offset of the first bad frame.
        offset: u64,
        /// What was wrong with it.
        what: String,
    },
    /// A corrupt snapshot in strict mode.
    CorruptSnapshot(String),
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Io(e) => write!(f, "recovery I/O error: {e}"),
            RecoveryError::CorruptWal { offset, what } => write!(
                f,
                "WAL corrupt at byte {offset} ({what}); refusing to start — \
                 acknowledged commits may be damaged. Pass --recover=salvage \
                 to keep the verified prefix and drop the rest"
            ),
            RecoveryError::CorruptSnapshot(what) => write!(
                f,
                "{what}; refusing to start. Pass --recover=salvage to drop \
                 the snapshot and replay the WAL alone"
            ),
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<io::Error> for RecoveryError {
    fn from(e: io::Error) -> RecoveryError {
        RecoveryError::Io(e)
    }
}

/// What recovery found and did; surfaced by the CLI on startup and
/// asserted by the durability tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryReport {
    /// KBs in the recovered state.
    pub kbs: usize,
    /// Was a snapshot loaded?
    pub snapshot_loaded: bool,
    /// WAL records replayed on top of the snapshot.
    pub wal_records_replayed: u64,
    /// Was a torn final record truncated away?
    pub torn_tail_truncated: bool,
    /// Bytes dropped by salvage (0 outside salvage mode).
    pub salvaged_bytes_dropped: u64,
    /// Did salvage drop a corrupt snapshot?
    pub snapshot_dropped: bool,
    /// The largest sequence number in the recovered state.
    pub max_seq: u64,
    /// When a torn or corrupt tail was truncated: the byte offset the
    /// file was cut back to (= the offset of the first bad frame).
    /// Post-crash forensics starts here, not at a guess.
    pub truncated_offset: Option<u64>,
    /// When a tail was truncated: the 0-based index of the first bad
    /// frame — equivalently, how many verified frames precede the cut.
    pub truncated_frame_index: Option<u64>,
    /// Highest fencing epoch in the recovered state (snapshot watermark
    /// or replayed frames; 0 for a fresh directory).
    pub max_epoch: u64,
    /// Highest global replication sequence number recovered. Appends
    /// resume stamping at `max_rseq + 1`.
    pub max_rseq: u64,
}

/// Apply one verified record to the recovered state.
fn apply(state: &mut HashMap<String, StoredKb>, rec: WalRecord) {
    match rec {
        WalRecord::Commit { name, kb } => {
            state.insert(name, kb);
        }
        WalRecord::Delete { name } => {
            state.remove(&name);
        }
    }
}

/// Recover the state directory `dir`: load the snapshot, replay the WAL,
/// repair a torn tail, and (in salvage mode only) drop damage. On
/// success the WAL file on disk contains exactly the replayed records —
/// appending may resume at its end.
pub fn recover(
    dir: &Path,
    mode: RecoverMode,
) -> Result<(HashMap<String, StoredKb>, RecoveryReport), RecoveryError> {
    std::fs::create_dir_all(dir)?;
    let mut report = RecoveryReport::default();

    // Debris of a crash mid-snapshot (or an injected rename fault): the
    // temp name is never state, remove it unconditionally.
    snapshot::remove_stale_tmp(dir)?;

    let mut state = match snapshot::read_snapshot(dir)? {
        Ok(Some(contents)) => {
            report.snapshot_loaded = true;
            report.max_epoch = contents.epoch;
            report.max_rseq = contents.rseq;
            contents.entries
        }
        Ok(None) => HashMap::new(),
        Err(corrupt) => match mode {
            RecoverMode::Strict => return Err(RecoveryError::CorruptSnapshot(corrupt.to_string())),
            RecoverMode::Salvage => {
                report.snapshot_dropped = true;
                metrics::WAL_SALVAGE_DROPS.incr();
                HashMap::new()
            }
        },
    };

    let wal_path = dir.join(WAL_FILE);
    if let Some(scan) = wal::scan(&wal_path)? {
        let truncate_at = match scan.tail {
            ScanTail::Clean => None,
            ScanTail::Torn { offset } => {
                report.torn_tail_truncated = true;
                metrics::WAL_TORN_TAIL_TRUNCATIONS.incr();
                Some(offset)
            }
            ScanTail::Corrupt { offset, what } => match mode {
                RecoverMode::Strict => return Err(RecoveryError::CorruptWal { offset, what }),
                RecoverMode::Salvage => {
                    report.salvaged_bytes_dropped = scan.file_len - offset;
                    metrics::WAL_SALVAGE_DROPS.incr();
                    Some(offset)
                }
            },
        };
        if let Some(offset) = truncate_at {
            report.truncated_offset = Some(offset);
            report.truncated_frame_index = Some(scan.records.len() as u64);
        }
        report.wal_records_replayed = scan.records.len() as u64;
        metrics::WAL_RECORDS_REPLAYED.add(scan.records.len() as u64);
        for stamped in scan.records {
            // Stamps are monotone within a scan (enforced by the scan),
            // so the last frame carries the maxima.
            report.max_epoch = report.max_epoch.max(stamped.epoch);
            report.max_rseq = report.max_rseq.max(stamped.rseq);
            apply(&mut state, stamped.record);
        }
        if let Some(offset) = truncate_at {
            // Physically repair the file so appends resume after the last
            // verified frame instead of interleaving with garbage.
            let file = OpenOptions::new().write(true).open(&wal_path)?;
            file.set_len(offset)?;
            file.sync_data()?;
        }
    }
    metrics::WAL_REPLAYS.incr();

    report.kbs = state.len();
    report.max_seq = state.values().map(|kb| kb.seq).max().unwrap_or(0);
    Ok((state, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbitrex_core::Faults;
    use arbitrex_logic::{parse, Sig};
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_ID: AtomicU64 = AtomicU64::new(0);

    fn temp_dir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "arbx-recovery-test-{}-{}",
            std::process::id(),
            DIR_ID.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Frame `rec` and append it unsynced, as `KbStore::log` does.
    fn append(wal: &mut wal::Wal, epoch: u64, rseq: u64, rec: &WalRecord) {
        wal.append_frame_unsynced(&wal::frame(epoch, rseq, &wal::encode_record(rec)))
            .unwrap();
    }

    fn commit(name: &str, text: &str, seq: u64) -> WalRecord {
        let mut sig = Sig::new();
        let formula = parse(&mut sig, text).unwrap();
        WalRecord::Commit {
            name: name.to_string(),
            kb: StoredKb { sig, formula, seq },
        }
    }

    #[test]
    fn replay_is_a_fold_over_snapshot_plus_wal() {
        let dir = temp_dir();
        let mut snap = HashMap::new();
        let mut sig = Sig::new();
        let f = parse(&mut sig, "A").unwrap();
        snap.insert(
            "old".to_string(),
            StoredKb {
                sig,
                formula: f,
                seq: 5,
            },
        );
        snapshot::write_snapshot(&dir, &snap, 1, 40, &Faults::default()).unwrap();
        {
            let mut wal = wal::Wal::open(&dir.join(WAL_FILE), Faults::default()).unwrap();
            append(&mut wal, 1, 41, &commit("old", "A & B", 6));
            append(&mut wal, 1, 42, &commit("new", "C", 1));
            append(
                &mut wal,
                2,
                43,
                &WalRecord::Delete {
                    name: "old".to_string(),
                },
            );
        }
        let (state, report) = recover(&dir, RecoverMode::Strict).unwrap();
        assert_eq!(state.len(), 1);
        assert_eq!(state["new"].seq, 1);
        assert!(report.snapshot_loaded);
        assert_eq!(report.wal_records_replayed, 3);
        assert!(!report.torn_tail_truncated);
        assert_eq!(report.max_seq, 1);
        assert_eq!(report.max_epoch, 2);
        assert_eq!(report.max_rseq, 43);
        assert_eq!(report.truncated_offset, None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_log_corruption_refuses_unless_salvage() {
        let dir = temp_dir();
        let wal_path = dir.join(WAL_FILE);
        {
            let mut wal = wal::Wal::open(&wal_path, Faults::default()).unwrap();
            append(&mut wal, 1, 1, &commit("a", "A", 1));
            append(&mut wal, 1, 2, &commit("b", "B", 1));
            append(&mut wal, 1, 3, &commit("c", "C", 1));
        }
        // Flip a byte inside the *first* record's stamp (CRC-covered).
        let mut bytes = std::fs::read(&wal_path).unwrap();
        bytes[wal::WAL_MAGIC.len() + 9] ^= 0xFF;
        std::fs::write(&wal_path, &bytes).unwrap();

        assert!(matches!(
            recover(&dir, RecoverMode::Strict),
            Err(RecoveryError::CorruptWal { .. })
        ));
        // Salvage keeps the (empty) verified prefix and truncates,
        // reporting where the cut landed for forensics.
        let (state, report) = recover(&dir, RecoverMode::Salvage).unwrap();
        assert!(state.is_empty());
        assert!(report.salvaged_bytes_dropped > 0);
        assert_eq!(report.truncated_offset, Some(wal::WAL_MAGIC.len() as u64));
        assert_eq!(report.truncated_frame_index, Some(0));
        // The file is repaired: a strict re-open now succeeds.
        let (state, _) = recover(&dir, RecoverMode::Strict).unwrap();
        assert!(state.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fresh_directory_recovers_empty() {
        let dir = temp_dir();
        let (state, report) = recover(&dir, RecoverMode::Strict).unwrap();
        assert!(state.is_empty());
        assert!(!report.snapshot_loaded);
        assert_eq!(report.wal_records_replayed, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
