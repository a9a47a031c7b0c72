//! Atomic snapshots of the whole KB store.
//!
//! A snapshot is the materialized fold of the write-ahead log: every
//! stored KB serialized as a plain framed commit record (`len || crc ||
//! payload`, [`crate::wal::frame_plain`]) behind a magic, a replication
//! watermark, and a count. The watermark `(epoch, rseq)` records the
//! fencing epoch and the highest global replication sequence number the
//! snapshot covers — recovery resumes stamping from there, and a replica
//! installing a shipped snapshot resumes pulling from there.
//! Snapshots are written with the classic atomic-replace protocol —
//! write `snapshot.tmp`, fsync it, rename over `snapshot.bin`, fsync the
//! directory — so a crash at any point leaves either the old snapshot or
//! the new one, never a half-written file under the live name. Only
//! after the rename is durable does the caller truncate the WAL.
//!
//! The writer charges the `snapshot_rename` site of the store's
//! [`Faults`] trigger: an armed plan makes the k-th rename fail with the
//! temp file left behind, the exact debris a crash between fsync and
//! rename leaves; recovery ignores and removes stray temp files.

use std::collections::HashMap;
use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::Path;

use arbitrex_core::{FaultSite, Faults};

use crate::kb::StoredKb;
use crate::metrics;
use crate::wal::{self, WalRecord};

/// File name of the live snapshot inside a state directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";
/// File name snapshots are staged under before the atomic rename.
pub const SNAPSHOT_TMP: &str = "snapshot.tmp";
/// Magic bytes opening every snapshot file (format version 2: an
/// `(epoch, rseq)` replication watermark follows the magic).
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"ARBXSNP2";

/// A snapshot file whose content failed verification (bad magic, bad
/// CRC, truncation, or an undecodable entry).
#[derive(Debug)]
pub struct SnapshotCorrupt(pub String);

impl std::fmt::Display for SnapshotCorrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt snapshot: {}", self.0)
    }
}

/// The verified content of a snapshot: the stored KBs and the
/// replication watermark they are current through.
#[derive(Debug)]
pub struct SnapshotContents {
    /// The stored KBs.
    pub entries: HashMap<String, StoredKb>,
    /// Fencing epoch at snapshot time.
    pub epoch: u64,
    /// Highest global replication sequence number the snapshot covers.
    pub rseq: u64,
}

/// Serialize `entries` with their replication watermark into snapshot
/// bytes. Deterministic: a snapshot of the same state is the same bytes,
/// which is also what lets `GET /v1/replication/snapshot` build a
/// resync image in memory without touching the disk file.
pub fn encode_snapshot(entries: &HashMap<String, StoredKb>, epoch: u64, rseq: u64) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(1024);
    bytes.extend_from_slice(SNAPSHOT_MAGIC);
    bytes.extend_from_slice(&epoch.to_le_bytes());
    bytes.extend_from_slice(&rseq.to_le_bytes());
    bytes.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    // Deterministic order: a snapshot of the same state is the same file.
    let mut names: Vec<&String> = entries.keys().collect();
    names.sort();
    for name in names {
        let rec = WalRecord::Commit {
            name: name.clone(),
            kb: entries[name].clone(),
        };
        bytes.extend_from_slice(&wal::frame_plain(&wal::encode_record(&rec)));
    }
    bytes
}

/// Write `entries` as a new durable snapshot of `dir`, atomically
/// replacing any previous one. On success the snapshot alone carries the
/// full state and the caller may truncate the WAL.
pub fn write_snapshot(
    dir: &Path,
    entries: &HashMap<String, StoredKb>,
    epoch: u64,
    rseq: u64,
    faults: &Faults,
) -> io::Result<()> {
    let bytes = encode_snapshot(entries, epoch, rseq);
    let tmp = dir.join(SNAPSHOT_TMP);
    let live = dir.join(SNAPSHOT_FILE);
    {
        let mut file = File::create(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_data()?;
    }
    if faults.fire(FaultSite::SnapshotRename) {
        // Injected failed rename: the fsync'd temp file stays behind,
        // exactly the debris of a crash between fsync and rename.
        return Err(io::Error::other("injected fault: snapshot rename failed"));
    }
    fs::rename(&tmp, &live)?;
    sync_dir(dir)?;
    metrics::WAL_SNAPSHOTS_WRITTEN.incr();
    Ok(())
}

/// fsync a directory so a rename inside it is durable. Directories open
/// read-only on every Unix this builds on; off Unix this is a no-op.
pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    if cfg!(unix) {
        File::open(dir)?.sync_all()
    } else {
        Ok(())
    }
}

/// Read and verify the snapshot of `dir`. `Ok(None)` when no snapshot
/// exists (a fresh state directory); `Err(SnapshotCorrupt)` when one
/// exists but fails verification — the recovery layer decides whether
/// that refuses startup or is salvaged by starting from the WAL alone.
pub fn read_snapshot(dir: &Path) -> io::Result<Result<Option<SnapshotContents>, SnapshotCorrupt>> {
    let mut file = match File::open(dir.join(SNAPSHOT_FILE)) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Ok(None)),
        Err(e) => return Err(e),
    };
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    Ok(parse_snapshot(&bytes).map(Some))
}

/// Verify and decode snapshot `bytes`. Public because a replica falling
/// behind the primary's frame retention installs a shipped snapshot
/// through exactly this verifier.
pub fn parse_snapshot(bytes: &[u8]) -> Result<SnapshotContents, SnapshotCorrupt> {
    let corrupt = |what: &str| SnapshotCorrupt(what.to_string());
    const HEADER: usize = 8 + 8 + 8 + 4; // magic, epoch, rseq, count
    if bytes.len() < HEADER {
        return Err(corrupt("truncated header"));
    }
    if &bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let epoch = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let rseq = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    let count = u32::from_le_bytes(bytes[24..28].try_into().unwrap()) as usize;
    let mut entries = HashMap::with_capacity(count.min(1024));
    let mut pos = HEADER;
    for i in 0..count {
        let remaining = bytes.len() - pos;
        if remaining < 8 {
            return Err(SnapshotCorrupt(format!("truncated at entry {i}")));
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if len > wal::MAX_RECORD_BYTES || (len as usize) > remaining - 8 {
            return Err(SnapshotCorrupt(format!("truncated at entry {i}")));
        }
        let payload = &bytes[pos + 8..pos + 8 + len as usize];
        if wal::crc32(payload) != crc {
            return Err(SnapshotCorrupt(format!("CRC mismatch at entry {i}")));
        }
        match wal::decode_record(payload) {
            Ok(WalRecord::Commit { name, kb }) => {
                if entries.insert(name, kb).is_some() {
                    return Err(SnapshotCorrupt(format!("duplicate entry at {i}")));
                }
            }
            Ok(WalRecord::Delete { .. }) => {
                return Err(SnapshotCorrupt(format!("delete record at entry {i}")));
            }
            Err(what) => return Err(SnapshotCorrupt(format!("entry {i}: {what}"))),
        }
        pos += 8 + len as usize;
    }
    if pos != bytes.len() {
        return Err(corrupt("trailing bytes"));
    }
    Ok(SnapshotContents {
        entries,
        epoch,
        rseq,
    })
}

/// Remove a stray `snapshot.tmp` (debris of a crash or injected rename
/// fault). Safe: the temp name is never read as state.
pub fn remove_stale_tmp(dir: &Path) -> io::Result<()> {
    match fs::remove_file(dir.join(SNAPSHOT_TMP)) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbitrex_logic::{parse, Sig};

    fn entries() -> HashMap<String, StoredKb> {
        let mut out = HashMap::new();
        for (name, text, seq) in [("a", "A & B", 3u64), ("b", "!C | D", 11)] {
            let mut sig = Sig::new();
            let formula = parse(&mut sig, text).unwrap();
            out.insert(name.to_string(), StoredKb { sig, formula, seq });
        }
        out
    }

    #[test]
    fn snapshot_round_trips_and_detects_corruption() {
        let dir = std::env::temp_dir().join(format!("arbx-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let _ = std::fs::remove_file(dir.join(SNAPSHOT_FILE));

        assert!(read_snapshot(&dir).unwrap().unwrap().is_none());
        let state = entries();
        write_snapshot(&dir, &state, 4, 97, &Faults::default()).unwrap();
        let loaded = read_snapshot(&dir).unwrap().unwrap().unwrap();
        assert_eq!(loaded.entries, state);
        assert_eq!(loaded.epoch, 4);
        assert_eq!(loaded.rseq, 97);
        assert!(!dir.join(SNAPSHOT_TMP).exists());

        // Flip a byte mid-file: verification must fail, not mis-load.
        let path = dir.join(SNAPSHOT_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_snapshot(&dir).unwrap().is_err());

        // Truncation fails too.
        std::fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
        assert!(read_snapshot(&dir).unwrap().is_err());

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn in_memory_encode_matches_disk_write() {
        let dir = std::env::temp_dir().join(format!("arbx-snap-mem-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let state = entries();
        write_snapshot(&dir, &state, 2, 31, &Faults::default()).unwrap();
        let on_disk = std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
        assert_eq!(on_disk, encode_snapshot(&state, 2, 31));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
