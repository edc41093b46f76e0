//! Write-ahead logging for dynamic updates.
//!
//! A serving process that accepts inserts and deletes needs those
//! mutations to survive a crash without paying a full index rebuild per
//! op. The WAL provides that: every [`UpdateOp`] is appended to an on-disk
//! log **before** it is applied to the overlay (see
//! [`IsLabelIndex::attach_wal`](crate::IsLabelIndex::attach_wal)), and
//! [`load_index_with_wal`](crate::persist::load_index_with_wal) replays
//! the log's valid prefix through the normal mutation path — the patching
//! algorithms are deterministic, so replay reconstructs the exact overlay
//! of the crashed process at the last record boundary.
//!
//! ## File format (little-endian)
//!
//! ```text
//! header   magic "ISWL" | version u32 | epoch u64          (16 bytes)
//! record*  len u32 | crc32 u32 (IEEE, over payload) | payload
//! payload  kind u8 + body:
//!            1 = InsertVertex  count u32, then count × (v u32, w u32)
//!            2 = InsertEdge    a u32, b u32, w u32
//!            3 = DeleteVertex  v u32
//! ```
//!
//! The `epoch` pairs the log with exactly one index artifact lineage
//! (minted at build time, stored in the `.islx` header): replay is only
//! attempted when the epochs match, which closes the crash window between
//! "new artifact renamed into place" and "old WAL truncated" during
//! compaction — a stale log is discarded, never replayed onto the wrong
//! base.
//!
//! ## Crash behavior
//!
//! A crash can truncate or corrupt the log at **any byte offset**. The
//! scanner stops at the first record whose length prefix, checksum, or
//! payload fails to verify and reports the byte length of the valid
//! prefix; recovery replays exactly those records and truncates the rest
//! — replay either restores the exact overlay of some applied prefix or
//! fails with a typed error, never with a wrong distance (asserted
//! byte-by-byte in `tests/wal_crash.rs`).
//!
//! This module is a **panic-free zone** and its record kinds/version are
//! pinned by `docs/wire_registry.toml` — both enforced by `islabel-lint`
//! (see `lint.toml` at the repo root).

use crate::updates::UpdateOp;
use islabel_graph::{VertexId, Weight};
use std::fs;
use std::io::{self, Seek, SeekFrom, Write};
use std::path::Path;

/// Magic bytes of a WAL file.
const WAL_MAGIC: &[u8; 4] = b"ISWL";
/// Current WAL format version.
const WAL_VERSION: u32 = 1;
/// Byte length of the WAL header (magic + version + epoch).
pub const WAL_HEADER_LEN: u64 = 16;
/// Upper bound on one record's payload — anything larger is corruption,
/// not data (an insert-vertex op would need ~2M neighbors to reach it).
pub const MAX_RECORD_LEN: u32 = 1 << 24;

const KIND_INSERT_VERTEX: u8 = 1;
const KIND_INSERT_EDGE: u8 = 2;
const KIND_DELETE_VERTEX: u8 = 3;

/// IEEE CRC-32 of `data` (the checksum stored in every WAL record). The
/// one implementation lives in `islabel-store` — the same function
/// checksums the artifact header, so the two formats cannot drift.
pub use islabel_store::format::crc32;

/// Process-wide WAL counters, registered lazily on the global metrics
/// registry the first time any writer touches the log. Handles are cached
/// so the append path pays one `Arc` deref + one relaxed increment.
struct WalMetrics {
    appends: std::sync::Arc<islabel_obs::Counter>,
    fsync_batches: std::sync::Arc<islabel_obs::Counter>,
}

fn wal_metrics() -> &'static WalMetrics {
    static METRICS: std::sync::OnceLock<WalMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = islabel_obs::Registry::global();
        WalMetrics {
            appends: registry.counter(
                islabel_obs::names::METRIC_WAL_APPENDS_TOTAL,
                "Records appended to the write-ahead log.",
                &[],
            ),
            fsync_batches: registry.counter(
                islabel_obs::names::METRIC_WAL_FSYNC_BATCHES_TOTAL,
                "fsync calls that flushed a batch of appended WAL records.",
                &[],
            ),
        }
    })
}

/// Re-emits a recovery outcome through the global metrics registry.
/// Called once per [`attach_wal`](crate::IsLabelIndex::attach_wal), from
/// the index layer (this file stays panic-free; the registry panics only
/// on a kind clash between two registrations of the same name, which the
/// `docs/wire_registry.toml` metric-name registry pins statically).
pub(crate) fn record_recovery_metrics(recovery: &WalRecovery) {
    let outcome = if recovery.discarded_stale {
        "discarded_stale"
    } else if recovery.created {
        "created"
    } else if recovery.truncated {
        "truncated"
    } else {
        "clean"
    };
    let registry = islabel_obs::Registry::global();
    registry
        .counter(
            islabel_obs::names::METRIC_WAL_RECOVERIES_TOTAL,
            "WAL recovery attempts by outcome.",
            &[("outcome", outcome)],
        )
        .inc();
    if recovery.replayed > 0 {
        registry
            .counter(
                islabel_obs::names::METRIC_WAL_RECOVERED_OPS_TOTAL,
                "Update ops replayed from the WAL during recovery.",
                &[("kind", "replayed")],
            )
            .add(recovery.replayed as u64);
    }
}

/// Serializes one op as a WAL record payload (kind byte + body), appending
/// to `out`. The inverse of [`decode_op`].
pub fn encode_op(op: &UpdateOp, out: &mut Vec<u8>) {
    match op {
        UpdateOp::InsertVertex { edges } => {
            out.push(KIND_INSERT_VERTEX);
            out.extend_from_slice(&(edges.len() as u32).to_le_bytes());
            for &(v, w) in edges {
                out.extend_from_slice(&v.to_le_bytes());
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
        UpdateOp::InsertEdge { a, b, w } => {
            out.push(KIND_INSERT_EDGE);
            out.extend_from_slice(&a.to_le_bytes());
            out.extend_from_slice(&b.to_le_bytes());
            out.extend_from_slice(&w.to_le_bytes());
        }
        UpdateOp::DeleteVertex { v } => {
            out.push(KIND_DELETE_VERTEX);
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Parses one record payload back into an [`UpdateOp`]. Fails (with a
/// human-readable reason) on unknown kinds, short bodies, or trailing
/// garbage — the scanner treats any failure as a corrupt tail.
pub fn decode_op(payload: &[u8]) -> Result<UpdateOp, String> {
    let &kind = payload.first().ok_or("empty record payload")?;
    let mut pos = 1usize;
    let mut take_u32 = |payload: &[u8]| -> Result<u32, String> {
        let end = pos.checked_add(4).ok_or("record length overflow")?;
        let bytes = payload
            .get(pos..end)
            .ok_or("record body shorter than declared")?;
        pos = end;
        // `get(pos..end)` guarantees 4 bytes; map instead of unwrap keeps
        // recovery panic-free even if the invariant ever breaks.
        let bytes: [u8; 4] = bytes
            .try_into()
            .map_err(|_| "record body shorter than declared".to_string())?;
        Ok(u32::from_le_bytes(bytes))
    };
    let op = match kind {
        KIND_INSERT_VERTEX => {
            let count = take_u32(payload)? as usize;
            if count > (MAX_RECORD_LEN as usize) / 8 {
                return Err(format!("implausible neighbor count {count}"));
            }
            let mut edges: Vec<(VertexId, Weight)> = Vec::with_capacity(count);
            for _ in 0..count {
                let v = take_u32(payload)?;
                let w = take_u32(payload)?;
                edges.push((v, w));
            }
            UpdateOp::InsertVertex { edges }
        }
        KIND_INSERT_EDGE => {
            let a = take_u32(payload)?;
            let b = take_u32(payload)?;
            let w = take_u32(payload)?;
            UpdateOp::InsertEdge { a, b, w }
        }
        KIND_DELETE_VERTEX => {
            let v = take_u32(payload)?;
            UpdateOp::DeleteVertex { v }
        }
        other => return Err(format!("unknown record kind {other}")),
    };
    if pos != payload.len() {
        return Err("trailing bytes in record payload".to_string());
    }
    Ok(op)
}

/// What [`IsLabelIndex::attach_wal`](crate::IsLabelIndex::attach_wal)
/// found and did while pairing an index with its log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalRecovery {
    /// Ops replayed from the log on top of the artifact's sealed state.
    pub replayed: usize,
    /// The log was (re)created fresh — it was missing, a creation-time
    /// stub, or inconsistent with the artifact's sealed op history.
    pub created: bool,
    /// A log from a different artifact lineage was discarded (the crash
    /// window between a compaction's artifact rename and its WAL reset —
    /// those ops are already folded into the artifact).
    pub discarded_stale: bool,
    /// A torn or corrupt tail was dropped (the file is truncated back to
    /// the last verified, applicable record).
    pub truncated: bool,
}

/// The verified content of a WAL file: its epoch, the decodable op prefix,
/// and where the valid bytes end (see [`scan_wal`]).
#[derive(Debug)]
pub struct WalScan {
    /// Artifact-lineage epoch from the header.
    pub epoch: u64,
    /// Every fully verified record, in append order.
    pub ops: Vec<UpdateOp>,
    /// End offset (bytes) of record `i` — `offsets[i]` is where a recovery
    /// that keeps records `..=i` should truncate the file.
    pub offsets: Vec<u64>,
    /// Byte length of the valid prefix (header plus verified records).
    pub valid_len: u64,
    /// Whether bytes after the valid prefix were ignored (torn write,
    /// checksum mismatch, or undecodable payload).
    pub truncated_tail: bool,
}

/// Checked little-endian u32 read at `at` (`None` past the end).
fn le_u32(bytes: &[u8], at: usize) -> Option<u32> {
    let raw: [u8; 4] = bytes.get(at..at.checked_add(4)?)?.try_into().ok()?;
    Some(u32::from_le_bytes(raw))
}

/// Checked little-endian u64 read at `at` (`None` past the end).
fn le_u64(bytes: &[u8], at: usize) -> Option<u64> {
    let raw: [u8; 8] = bytes.get(at..at.checked_add(8)?)?.try_into().ok()?;
    Some(u64::from_le_bytes(raw))
}

/// Reads and verifies a WAL file without applying anything.
///
/// Returns `Ok(None)` when the file is shorter than the header — the
/// signature of a crash during [`WalWriter::create`], before any op could
/// have been logged (callers recreate the log; nothing is lost). A wrong
/// magic or unsupported version is a typed error: the file is not a WAL,
/// and destroying it silently would be worse than refusing.
pub fn scan_wal(path: &Path) -> io::Result<Option<WalScan>> {
    let bytes = fs::read(path)?;
    if (bytes.len() as u64) < WAL_HEADER_LEN {
        return Ok(None);
    }
    // The header-length check above makes every `get` below succeed; the
    // checked accessors keep recovery panic-free on any byte sequence.
    if bytes.get(..4) != Some(WAL_MAGIC.as_slice()) {
        return Err(bad("not an ISWL write-ahead log"));
    }
    let Some(version) = le_u32(&bytes, 4) else {
        return Ok(None);
    };
    if version != WAL_VERSION {
        return Err(bad(&format!("unsupported WAL version {version}")));
    }
    let Some(epoch) = le_u64(&bytes, 8) else {
        return Ok(None);
    };

    let mut ops = Vec::new();
    let mut offsets = Vec::new();
    let mut pos = WAL_HEADER_LEN as usize;
    let mut truncated_tail = false;
    while pos < bytes.len() {
        let (Some(len), Some(crc)) = (le_u32(&bytes, pos), le_u32(&bytes, pos + 4)) else {
            truncated_tail = true;
            break;
        };
        if len > MAX_RECORD_LEN {
            truncated_tail = true;
            break;
        }
        let Some(payload) = bytes.get(pos + 8..pos + 8 + len as usize) else {
            truncated_tail = true;
            break;
        };
        if crc32(payload) != crc {
            truncated_tail = true;
            break;
        }
        let Ok(op) = decode_op(payload) else {
            truncated_tail = true;
            break;
        };
        ops.push(op);
        pos += 8 + len as usize;
        offsets.push(pos as u64);
    }
    let valid_len = offsets.last().copied().unwrap_or(WAL_HEADER_LEN);
    Ok(Some(WalScan {
        epoch,
        ops,
        offsets,
        valid_len,
        truncated_tail,
    }))
}

/// Appender for one WAL file: length-prefixed, checksummed records with
/// batched `fsync` (every `sync_every` appends; 1 = sync each op).
///
/// Writers are obtained through
/// [`IsLabelIndex::attach_wal`](crate::IsLabelIndex::attach_wal), which
/// guarantees the log's prefix always equals the overlay's op history for
/// the paired artifact epoch.
#[derive(Debug)]
pub struct WalWriter {
    file: fs::File,
    epoch: u64,
    sync_every: u32,
    pending: u32,
    buf: Vec<u8>,
}

impl WalWriter {
    /// Creates (truncating) the log at `path` with the given epoch and
    /// syncs the header to disk.
    pub fn create(path: &Path, epoch: u64, sync_every: u32) -> io::Result<Self> {
        let mut file = fs::File::create(path)?;
        let mut header = Vec::with_capacity(WAL_HEADER_LEN as usize);
        header.extend_from_slice(WAL_MAGIC);
        header.extend_from_slice(&WAL_VERSION.to_le_bytes());
        header.extend_from_slice(&epoch.to_le_bytes());
        file.write_all(&header)?;
        file.sync_all()?;
        Ok(Self {
            file,
            epoch,
            sync_every: sync_every.max(1),
            pending: 0,
            buf: Vec::new(),
        })
    }

    /// Reopens an existing log for appending, first truncating it to
    /// `valid_len` (dropping a torn tail found by [`scan_wal`]).
    pub fn resume(path: &Path, epoch: u64, sync_every: u32, valid_len: u64) -> io::Result<Self> {
        let mut file = fs::OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(valid_len)?;
        file.sync_all()?;
        file.seek(SeekFrom::End(0))?;
        Ok(Self {
            file,
            epoch,
            sync_every: sync_every.max(1),
            pending: 0,
            buf: Vec::new(),
        })
    }

    /// The artifact-lineage epoch this log is paired with.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Appends one record (buffered sync: see [`WalWriter::sync`]). The
    /// record is built in the writer's reusable buffer: 8 bytes reserved,
    /// the payload encoded after them, then its length and CRC written in
    /// place, so an append allocates nothing once the buffer has grown.
    pub fn append(&mut self, op: &UpdateOp) -> io::Result<()> {
        self.buf.clear();
        self.buf.extend_from_slice(&[0; 8]);
        encode_op(op, &mut self.buf);
        let (head, payload) = self.buf.split_at_mut(8);
        let (len, crc) = head.split_at_mut(4);
        len.copy_from_slice(&(payload.len() as u32).to_le_bytes());
        crc.copy_from_slice(&crc32(payload).to_le_bytes());
        self.file.write_all(&self.buf)?;
        wal_metrics().appends.inc();
        self.pending += 1;
        if self.pending >= self.sync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Forces all appended records to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()?;
        if self.pending > 0 {
            wal_metrics().fsync_batches.inc();
        }
        self.pending = 0;
        Ok(())
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn ops_roundtrip_through_payload_encoding() {
        let ops = [
            UpdateOp::InsertVertex { edges: vec![] },
            UpdateOp::InsertVertex {
                edges: vec![(0, 1), (7, 1000), (u32::MAX - 1, u32::MAX)],
            },
            UpdateOp::InsertEdge { a: 3, b: 9, w: 42 },
            UpdateOp::DeleteVertex { v: 12345 },
        ];
        for op in &ops {
            let mut buf = Vec::new();
            encode_op(op, &mut buf);
            assert_eq!(&decode_op(&buf).unwrap(), op);
            // Any strict prefix (or extension) must fail, not misparse.
            for cut in 0..buf.len() {
                assert!(decode_op(&buf[..cut]).is_err(), "prefix {cut}");
            }
            let mut extended = buf.clone();
            extended.push(0);
            assert!(decode_op(&extended).is_err());
        }
    }

    #[test]
    fn writer_and_scanner_roundtrip_with_torn_tail() {
        let dir = crate::testdir::TestDir::new("wal");
        let path = dir.join("test.wal");
        let ops = vec![
            UpdateOp::InsertEdge { a: 1, b: 2, w: 3 },
            UpdateOp::InsertVertex {
                edges: vec![(0, 5)],
            },
            UpdateOp::DeleteVertex { v: 1 },
        ];
        let mut w = WalWriter::create(&path, 0xFEED, 2).unwrap();
        for op in &ops {
            w.append(op).unwrap();
        }
        w.sync().unwrap();
        drop(w);

        let scan = scan_wal(&path).unwrap().unwrap();
        assert_eq!(scan.epoch, 0xFEED);
        assert_eq!(scan.ops, ops);
        assert!(!scan.truncated_tail);
        assert_eq!(scan.valid_len, std::fs::metadata(&path).unwrap().len());
        assert_eq!(scan.offsets.len(), 3);

        // A torn final record is dropped, earlier records survive.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let scan = scan_wal(&path).unwrap().unwrap();
        assert_eq!(scan.ops, ops[..2]);
        assert!(scan.truncated_tail);

        // Resuming truncates the tear and appends cleanly.
        let mut w = WalWriter::resume(&path, 0xFEED, 1, scan.valid_len).unwrap();
        w.append(&ops[2]).unwrap();
        drop(w);
        let scan = scan_wal(&path).unwrap().unwrap();
        assert_eq!(scan.ops, ops);
        assert!(!scan.truncated_tail);

        // A header-only stub (crash during create) scans as None.
        std::fs::write(&path, &full[..7]).unwrap();
        assert!(scan_wal(&path).unwrap().is_none());
        // Garbage with the wrong magic is a typed refusal.
        std::fs::write(&path, vec![0xAB; 64]).unwrap();
        assert!(scan_wal(&path).is_err());
    }
}
