//! The write-ahead log: the durable record of every KB commit.
//!
//! One append-only file per state directory (`wal.log`), holding an
//! 8-byte magic followed by length-prefixed, replication-stamped
//! records:
//!
//! ```text
//! ┌───────────┬───────────┬────────────┬───────────┬─────────────────┐
//! │ len: u32  │ crc: u32  │ epoch: u64 │ rseq: u64 │ payload (len b) │
//! │ LE        │ LE, IEEE  │ LE         │ LE        │                 │
//! └───────────┴───────────┴────────────┴───────────┴─────────────────┘
//! ```
//!
//! The CRC32 covers `epoch || rseq || payload`, so a frame shipped to a
//! replica is end-to-end verifiable — stamp included — from the exact
//! bytes on the primary's disk. `epoch` is the fencing term (bumped by
//! replica promotion; a deposed primary's frames carry a stale epoch and
//! are rejected on apply) and `rseq` is the global replication sequence
//! number, one per logged record across all KBs, the cursor replicas
//! pull from (`GET /v1/replication/wal?from_seq=N`).
//!
//! The payload serializes `{name, seq, sig,
//! formula}` — the formula in the canonical prefix byte encoding from
//! `arbitrex_logic::canonical` ([`arbitrex_logic::encode_formula`]), so a
//! replayed theory is byte-identical to the acknowledged one. No commit
//! is acknowledged before an fsync covering its append has succeeded: a
//! shared group-commit flush ([`Wal::append_frame_unsynced`] +
//! [`sync_file`], where one fsync acknowledges every append that
//! preceded it).
//! [`crate::recovery`] replays the log on startup and decides, from the
//! position and shape of the first bad frame, whether the log has a torn
//! tail (safe to truncate) or mid-log corruption (refuse unless
//! salvaging).
//!
//! Fault injection: the log charges the `wal_write` and `wal_fsync` sites
//! of the store's [`Faults`] trigger. An armed plan makes the k-th append
//! write a genuinely torn frame prefix (then fail), or skip the k-th
//! fsync (then fail), so the recovery matrix in `tests/durability.rs`
//! exercises real on-disk torn states deterministically. Durability
//! faults are sticky: every later append and fsync fails too, so no
//! commit is acknowledged behind the torn frame.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use arbitrex_core::{FaultSite, Faults};
use arbitrex_logic::{decode_formula, encode_formula, Sig};

use crate::kb::StoredKb;
use crate::metrics;

/// File name of the write-ahead log inside a state directory.
pub const WAL_FILE: &str = "wal.log";
/// Magic bytes opening every WAL file (format version 2: frames carry a
/// replication stamp — epoch + rseq — between the CRC and the payload).
pub const WAL_MAGIC: &[u8; 8] = b"ARBXWAL2";
/// Bytes of frame header before the payload: `len || crc || epoch || rseq`.
pub const FRAME_HEADER_BYTES: usize = 24;
/// Hard cap on one record's payload; a declared length beyond this is
/// corruption, not a large record (formulas are bounded far below it).
pub const MAX_RECORD_BYTES: u32 = 16 * 1024 * 1024;

/// One logged mutation. `Commit` carries the full post-state of the KB —
/// records are self-contained, never deltas — so replay is a plain fold.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A committed put/arbitrate/fit/iterate: the KB's complete new state.
    Commit {
        /// KB name.
        name: String,
        /// The committed state (sig, formula, seq).
        kb: StoredKb,
    },
    /// A committed delete.
    Delete {
        /// KB name.
        name: String,
    },
}

impl WalRecord {
    /// The KB name this record is about.
    pub fn name(&self) -> &str {
        match self {
            WalRecord::Commit { name, .. } | WalRecord::Delete { name } => name,
        }
    }
}

// --- CRC32 (IEEE 802.3, reflected) ------------------------------------------

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// CRC32 (IEEE, as in zlib/Ethernet) over a byte string.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(0xFFFF_FFFF, bytes)
}

/// The CRC a stamped frame carries: over `epoch || rseq || payload`.
fn frame_crc(epoch: u64, rseq: u64, payload: &[u8]) -> u32 {
    let mut crc = crc32_update(0xFFFF_FFFF, &epoch.to_le_bytes());
    crc = crc32_update(crc, &rseq.to_le_bytes());
    !crc32_update(crc, payload)
}

// --- record payload codec ----------------------------------------------------

const TAG_COMMIT: u8 = 1;
const TAG_DELETE: u8 = 2;

fn push_str(out: &mut Vec<u8>, s: &str) {
    // invariant: names are validated to MAX_NAME_LEN ≪ u16::MAX before
    // they reach the log, and sig names are parser identifiers.
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Serialize one record's payload (the CRC-covered bytes).
pub fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    match rec {
        WalRecord::Commit { name, kb } => {
            out.push(TAG_COMMIT);
            push_str(&mut out, name);
            out.extend_from_slice(&kb.seq.to_le_bytes());
            out.extend_from_slice(&kb.sig.width().to_le_bytes());
            for (_, var_name) in kb.sig.iter() {
                push_str(&mut out, var_name);
            }
            let formula = encode_formula(&kb.formula);
            out.extend_from_slice(&(formula.len() as u32).to_le_bytes());
            out.extend_from_slice(&formula);
        }
        WalRecord::Delete { name } => {
            out.push(TAG_DELETE);
            push_str(&mut out, name);
        }
    }
    out
}

/// Frame a payload for the log with its replication stamp:
/// `len || crc || epoch || rseq || payload`, CRC over the stamp and the
/// payload. These exact bytes are what replication ships: a replica
/// appends the frame verbatim, so primary and replica logs are
/// byte-identical over the shared history.
pub fn frame(epoch: u64, rseq: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + FRAME_HEADER_BYTES);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&frame_crc(epoch, rseq, payload).to_le_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&rseq.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Frame a payload *without* a stamp: `len || crc32(payload) || payload`.
/// The snapshot format uses this for its entries (snapshots carry one
/// watermark stamp in their header instead of one per record).
pub fn frame_plain(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// One verified WAL frame: the record plus its replication stamp.
#[derive(Debug, Clone, PartialEq)]
pub struct StampedRecord {
    /// The fencing epoch the frame was written under.
    pub epoch: u64,
    /// The global replication sequence number of this record.
    pub rseq: u64,
    /// The decoded record.
    pub record: WalRecord,
}

/// Decode one complete stamped frame (exactly `bytes`, no trailing
/// data), verifying length and CRC. This is the replica-side check on a
/// shipped frame: any torn or corrupted delivery fails here before
/// anything touches the local log.
pub fn decode_frame(bytes: &[u8]) -> Result<StampedRecord, String> {
    if bytes.len() < FRAME_HEADER_BYTES {
        return Err("frame shorter than its header".to_string());
    }
    let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
    let crc = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    let epoch = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let rseq = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    if len > MAX_RECORD_BYTES {
        return Err(format!("frame length {len} exceeds the record cap"));
    }
    if bytes.len() != FRAME_HEADER_BYTES + len as usize {
        return Err(format!(
            "frame length {len} does not match {} delivered payload bytes",
            bytes.len() - FRAME_HEADER_BYTES
        ));
    }
    let payload = &bytes[FRAME_HEADER_BYTES..];
    if frame_crc(epoch, rseq, payload) != crc {
        return Err("frame CRC mismatch".to_string());
    }
    let record = decode_record(payload)?;
    Ok(StampedRecord {
        epoch,
        rseq,
        record,
    })
}

struct PayloadReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or("record payload truncated")?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<&'a str, String> {
        let len = self.u16()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| "non-UTF-8 string".to_string())
    }
}

/// Decode one record payload (CRC already verified by the caller).
pub fn decode_record(payload: &[u8]) -> Result<WalRecord, String> {
    let mut r = PayloadReader {
        bytes: payload,
        pos: 0,
    };
    let tag = r.u8()?;
    let name = r.str()?.to_string();
    let rec = match tag {
        TAG_COMMIT => {
            let seq = r.u64()?;
            if seq == 0 {
                return Err("commit record with seq 0".to_string());
            }
            let n_vars = r.u32()?;
            if n_vars as usize > arbitrex_logic::MAX_VARS {
                return Err(format!("signature of {n_vars} variables out of range"));
            }
            let mut sig = Sig::new();
            for _ in 0..n_vars {
                sig.var(r.str()?);
            }
            if sig.width() != n_vars {
                return Err("duplicate signature names".to_string());
            }
            let formula_len = r.u32()? as usize;
            let formula =
                decode_formula(r.take(formula_len)?).map_err(|e| format!("bad formula: {e}"))?;
            if let Some(v) = formula.max_var() {
                if v.0 >= n_vars {
                    return Err("formula mentions a variable outside its signature".to_string());
                }
            }
            WalRecord::Commit {
                name,
                kb: StoredKb { sig, formula, seq },
            }
        }
        TAG_DELETE => WalRecord::Delete { name },
        other => return Err(format!("unknown record tag {other}")),
    };
    if r.pos != payload.len() {
        return Err("trailing bytes in record payload".to_string());
    }
    Ok(rec)
}

// --- scanning (replay) -------------------------------------------------------

/// How a scan of the log ended.
#[derive(Debug, Clone, PartialEq)]
pub enum ScanTail {
    /// Every frame parsed and verified; the log is clean.
    Clean,
    /// The final frame is incomplete or fails its CRC with nothing after
    /// it — the signature of a write torn by a crash. Recovery truncates
    /// the file at `offset` and proceeds.
    Torn {
        /// Byte offset of the first bad frame (= new file length).
        offset: u64,
    },
    /// A frame fails its CRC (or decodes to garbage) with more log after
    /// it — not a torn tail but damage inside the committed history.
    /// Recovery refuses to start unless salvaging.
    Corrupt {
        /// Byte offset of the first bad frame.
        offset: u64,
        /// What was wrong with it.
        what: String,
    },
}

/// The result of scanning a WAL file: the verified records in append
/// order, how the scan ended, and the file's byte length.
#[derive(Debug)]
pub struct WalScan {
    /// Verified, decoded records in append order, with their stamps.
    pub records: Vec<StampedRecord>,
    /// How the scan ended.
    pub tail: ScanTail,
    /// Total bytes in the file as scanned.
    pub file_len: u64,
}

/// Scan `path`, verifying every frame. Returns `None` if the file does
/// not exist. Never fails on corrupt *content* — that is reported in the
/// [`ScanTail`] — only on I/O errors reading the file.
pub fn scan(path: &Path) -> io::Result<Option<WalScan>> {
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    let file_len = bytes.len() as u64;

    // The magic itself can be torn by a crash between create and the
    // first durable write; a *wrong* magic is a different format — corrupt.
    if bytes.len() < WAL_MAGIC.len() {
        let tail = if WAL_MAGIC.starts_with(&bytes[..]) {
            ScanTail::Torn { offset: 0 }
        } else {
            ScanTail::Corrupt {
                offset: 0,
                what: "bad magic".to_string(),
            }
        };
        return Ok(Some(WalScan {
            records: Vec::new(),
            tail,
            file_len,
        }));
    }
    if &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Ok(Some(WalScan {
            records: Vec::new(),
            tail: ScanTail::Corrupt {
                offset: 0,
                what: "bad magic".to_string(),
            },
            file_len,
        }));
    }

    let mut records: Vec<StampedRecord> = Vec::new();
    let mut pos = WAL_MAGIC.len();
    loop {
        let remaining = bytes.len() - pos;
        if remaining == 0 {
            return Ok(Some(WalScan {
                records,
                tail: ScanTail::Clean,
                file_len,
            }));
        }
        let offset = pos as u64;
        if remaining < FRAME_HEADER_BYTES {
            // Not even a full header: can only be a torn final write.
            return Ok(Some(WalScan {
                records,
                tail: ScanTail::Torn { offset },
                file_len,
            }));
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        let epoch = u64::from_le_bytes(bytes[pos + 8..pos + 16].try_into().unwrap());
        let rseq = u64::from_le_bytes(bytes[pos + 16..pos + 24].try_into().unwrap());
        if len > MAX_RECORD_BYTES {
            // An absurd length that still "fits" is corruption; one that
            // runs past EOF is indistinguishable from a torn header.
            let tail = if (len as u64) > (remaining - FRAME_HEADER_BYTES) as u64 {
                ScanTail::Torn { offset }
            } else {
                ScanTail::Corrupt {
                    offset,
                    what: format!("record length {len} exceeds the {MAX_RECORD_BYTES} cap"),
                }
            };
            return Ok(Some(WalScan {
                records,
                tail,
                file_len,
            }));
        }
        let len = len as usize;
        if remaining - FRAME_HEADER_BYTES < len {
            // Frame extends past EOF: torn final write.
            return Ok(Some(WalScan {
                records,
                tail: ScanTail::Torn { offset },
                file_len,
            }));
        }
        let payload = &bytes[pos + FRAME_HEADER_BYTES..pos + FRAME_HEADER_BYTES + len];
        let at_tail = pos + FRAME_HEADER_BYTES + len == bytes.len();
        if frame_crc(epoch, rseq, payload) != crc {
            // A bad CRC on the *final* frame is a torn write (the crash
            // landed mid-payload); anywhere else it is mid-log damage.
            let tail = if at_tail {
                ScanTail::Torn { offset }
            } else {
                ScanTail::Corrupt {
                    offset,
                    what: "CRC mismatch".to_string(),
                }
            };
            return Ok(Some(WalScan {
                records,
                tail,
                file_len,
            }));
        }
        // Stamps are monotone by construction (appends assign them in
        // order under the WAL lock); a regression that passes its CRC is
        // damage to acknowledged history, never a torn write.
        let regression = records.last().and_then(|prev| {
            (epoch < prev.epoch || rseq <= prev.rseq).then(|| {
                format!(
                    "replication stamp regressed (epoch {} rseq {} after epoch {} rseq {})",
                    epoch, rseq, prev.epoch, prev.rseq
                )
            })
        });
        if let Some(what) = regression {
            return Ok(Some(WalScan {
                records,
                tail: ScanTail::Corrupt { offset, what },
                file_len,
            }));
        }
        match decode_record(payload) {
            Ok(record) => records.push(StampedRecord {
                epoch,
                rseq,
                record,
            }),
            Err(what) => {
                // CRC passed but the payload is semantically invalid:
                // that is never a torn write — refuse (or salvage).
                return Ok(Some(WalScan {
                    records,
                    tail: ScanTail::Corrupt { offset, what },
                    file_len,
                }));
            }
        }
        pos += FRAME_HEADER_BYTES + len;
    }
}

// --- the appender ------------------------------------------------------------

/// Fsync `file`, charging the `wal_fsync` fault site and recording the
/// fsync metrics. Free-standing so the group-commit flusher can sync a
/// shared handle to the log without holding the WAL mutex (the appender
/// and the flusher share the [`File`] via [`Wal::shared_file`]).
pub fn sync_file(file: &File, faults: &Faults) -> io::Result<()> {
    if faults.fire(FaultSite::WalFsync) {
        return Err(io::Error::other("injected fault: WAL fsync failed"));
    }
    let start = Instant::now();
    file.sync_data()?;
    metrics::WAL_FSYNCS.incr();
    metrics::LATENCY_WAL_FSYNC
        .record_nanos(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
    Ok(())
}

/// An open, append-positioned write-ahead log.
#[derive(Debug)]
pub struct Wal {
    file: Arc<File>,
    path: PathBuf,
    faults: Faults,
}

impl Wal {
    /// Open (creating if absent) the log at `path` for appending. A fresh
    /// file gets the magic written and fsync'd immediately, so an empty
    /// log is distinguishable from a missing one. Recovery must have run
    /// first: this seeks to the end of whatever the file holds.
    pub fn open(path: &Path, faults: Faults) -> io::Result<Wal> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        if len == 0 {
            file.write_all(WAL_MAGIC)?;
            file.sync_data()?;
        } else {
            file.seek(SeekFrom::End(0))?;
        }
        Ok(Wal {
            file: Arc::new(file),
            path: path.to_path_buf(),
            faults,
        })
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A shared handle to the underlying file, for a flusher thread that
    /// fsyncs outside the WAL mutex (see [`sync_file`]).
    pub fn shared_file(&self) -> Arc<File> {
        Arc::clone(&self.file)
    }

    /// The fault trigger this log was opened with (shared counters, so a
    /// flusher charging through a clone fires the same plans).
    pub fn faults(&self) -> &Faults {
        &self.faults
    }

    /// Append an already-framed record *without* syncing it. This is the
    /// replica's apply half: the frame arrives verified from the primary
    /// and lands on disk byte-for-byte, so the two logs stay identical
    /// over the shared history.
    ///
    /// With a fault plan armed, the k-th `wal_write` writes a torn frame
    /// prefix to disk (flushed, so it is really there for recovery to
    /// find) and fails.
    pub fn append_frame_unsynced(&mut self, framed: &[u8]) -> io::Result<()> {
        if self.faults.fire(FaultSite::WalWrite) {
            // Injected torn write: half the frame (always a strict,
            // nonempty prefix) lands on disk, exactly like a crash
            // mid-`write`.
            let torn = (framed.len() / 2).max(1);
            (&*self.file).write_all(&framed[..torn])?;
            self.file.sync_data()?;
            return Err(io::Error::other("injected fault: torn WAL write"));
        }
        (&*self.file).write_all(framed)?;
        metrics::WAL_RECORDS_APPENDED.incr();
        metrics::WAL_BYTES_APPENDED.add(framed.len() as u64);
        Ok(())
    }

    /// Drop every record: truncate back to the magic and fsync. Called
    /// after a snapshot has been made durable — the snapshot now carries
    /// the state the records encoded.
    pub fn truncate_to_empty(&mut self) -> io::Result<()> {
        self.file.set_len(WAL_MAGIC.len() as u64)?;
        (&*self.file).seek(SeekFrom::Start(WAL_MAGIC.len() as u64))?;
        self.file.sync_data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbitrex_logic::parse;

    /// Frame `rec` and append it unsynced, as `KbStore::log` does.
    fn append(wal: &mut Wal, epoch: u64, rseq: u64, rec: &WalRecord) {
        wal.append_frame_unsynced(&frame(epoch, rseq, &encode_record(rec)))
            .unwrap();
    }

    fn sample_commit(name: &str, text: &str, seq: u64) -> WalRecord {
        let mut sig = Sig::new();
        let formula = parse(&mut sig, text).unwrap();
        WalRecord::Commit {
            name: name.to_string(),
            kb: StoredKb { sig, formula, seq },
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 test vectors (zlib's crc32()).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn record_payloads_round_trip() {
        for rec in [
            sample_commit("fleet", "(A & !B) | (C ^ D)", 7),
            sample_commit("x", "true", 1),
            WalRecord::Delete {
                name: "fleet".to_string(),
            },
        ] {
            let payload = encode_record(&rec);
            assert_eq!(decode_record(&payload).unwrap(), rec);
        }
    }

    #[test]
    fn decode_rejects_corruption_totally() {
        let payload = encode_record(&sample_commit("kb", "A & B", 3));
        for cut in 0..payload.len() {
            assert!(decode_record(&payload[..cut]).is_err(), "cut at {cut}");
        }
        let mut bad_tag = payload.clone();
        bad_tag[0] = 99;
        assert!(decode_record(&bad_tag).is_err());
        let mut trailing = payload.clone();
        trailing.push(0);
        assert!(decode_record(&trailing).is_err());
    }

    #[test]
    fn append_scan_round_trip_and_torn_tail() {
        let dir = std::env::temp_dir().join(format!("arbx-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(WAL_FILE);
        let _ = std::fs::remove_file(&path);

        let recs = [
            sample_commit("a", "A | B", 1),
            sample_commit("a", "A & B", 2),
            WalRecord::Delete {
                name: "a".to_string(),
            },
        ];
        {
            let mut wal = Wal::open(&path, Faults::default()).unwrap();
            for (i, rec) in recs.iter().enumerate() {
                append(&mut wal, 3, 10 + i as u64, rec);
            }
        }
        let scanned = scan(&path).unwrap().unwrap();
        assert_eq!(scanned.tail, ScanTail::Clean);
        assert_eq!(scanned.records.len(), recs.len());
        for (i, stamped) in scanned.records.iter().enumerate() {
            assert_eq!(stamped.epoch, 3);
            assert_eq!(stamped.rseq, 10 + i as u64);
            assert_eq!(stamped.record, recs[i]);
        }

        // Tear the final record: drop its last 3 bytes.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);
        let scanned = scan(&path).unwrap().unwrap();
        assert_eq!(scanned.records.len(), 2);
        assert!(matches!(scanned.tail, ScanTail::Torn { .. }));

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn decode_frame_round_trips_and_rejects_tampering() {
        let rec = sample_commit("ship", "(A & B) | C", 9);
        let framed = frame(7, 42, &encode_record(&rec));
        let stamped = decode_frame(&framed).unwrap();
        assert_eq!(stamped.epoch, 7);
        assert_eq!(stamped.rseq, 42);
        assert_eq!(stamped.record, rec);

        // Any single-byte flip anywhere in the frame must be caught:
        // in the stamp it breaks the CRC, in the header it breaks the
        // length or the CRC itself.
        for i in 0..framed.len() {
            let mut bad = framed.clone();
            bad[i] ^= 0xFF;
            assert!(decode_frame(&bad).is_err(), "flip at byte {i} accepted");
        }
        // Truncated and extended deliveries are rejected too.
        assert!(decode_frame(&framed[..framed.len() - 1]).is_err());
        let mut long = framed.clone();
        long.push(0);
        assert!(decode_frame(&long).is_err());
    }

    #[test]
    fn scan_rejects_stamp_regressions_as_corruption() {
        let dir = std::env::temp_dir().join(format!(
            "arbx-wal-stamp-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(WAL_FILE);
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = Wal::open(&path, Faults::default()).unwrap();
            append(&mut wal, 2, 5, &sample_commit("a", "A", 1));
            // A frame from a *lower* epoch after a higher one can only
            // mean a deposed primary's bytes were spliced in.
            append(&mut wal, 1, 6, &sample_commit("a", "B", 2));
        }
        let scanned = scan(&path).unwrap().unwrap();
        assert_eq!(scanned.records.len(), 1);
        assert!(matches!(scanned.tail, ScanTail::Corrupt { .. }));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
