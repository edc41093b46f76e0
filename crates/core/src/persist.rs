//! Whole-index serialization.
//!
//! The paper's index is explicitly disk-based ("construct a disk-based
//! index", Section 2): build once, persist, then serve queries from the
//! stored artifact. This module stores everything a query needs — the
//! residual graph, level numbers, peel adjacency (for path expansion),
//! via annotations and the labels — in one stream, so an index can be
//! built offline (including by the external pipeline) and reloaded by a
//! query server or the CLI.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic   "ISLX"  version u32  epoch u64
//! config  (k-selection tag + value, keep_path_info)
//! graph   CSR binary block (islabel-graph format)
//! k       u32
//! level_of  n × u32
//! peel_adj  per vertex: count u32, then (to, weight, via) × count
//! gk      CSR binary block
//! gk_vias count u64, then (u, v, via) × count
//! labels  offsets (n+1) × u64, ancestors n_e × u32, dists n_e × u64,
//!         has_hops u8 [+ first_hops n_e × u32]
//! ops     count u64, then per op: len u32 + payload ([`wal`] record
//!         payload format, no per-record checksum)
//! ```
//!
//! Version 2 added the `epoch` and `ops` sections: a non-pristine index now
//! persists by *sealing* its overlay op log into the artifact, and the
//! loader replays those ops through the normal mutation path — patching is
//! deterministic, so the reloaded overlay is exact. The `epoch` pairs the
//! artifact with its write-ahead log (see [`wal`],
//! [`load_index_with_wal`], and [`compact_index_with_wal`]); version 1
//! artifacts still load (fresh epoch, no ops). Path-level saves write a
//! sibling temp file, `fsync`, and rename, so a crashed or failed save
//! never destroys the previous artifact.

use crate::config::{BuildConfig, KSelection};
use crate::hierarchy::{PeelEdge, VertexHierarchy};
use crate::index::IsLabelIndex;
use crate::label::LabelSet;
use crate::stats::IndexStats;
use bytes::{Buf, BufMut};
use islabel_graph::io::{read_csr_binary, write_csr_binary};
use islabel_graph::{FxHashMap, VertexId};
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

pub mod v3;
pub mod wal;

const MAGIC: &[u8; 4] = b"ISLX";
const VERSION: u32 = 2;
/// The flat, section-table version written by [`v3`] / `islabel-store`.
const VERSION_V3: u32 = 3;

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Serializes `index` to `writer`, including any pending dynamic updates
/// (the overlay op log is sealed into the artifact and replayed on load).
/// Historically this panicked on a non-pristine index; since the WAL path
/// landed it accepts any index, and the old "rebuild before saving" advice
/// only applies when you want a pristine (exact, dense-only) artifact.
pub fn save_index<W: Write>(index: &IsLabelIndex, writer: &mut W) -> io::Result<()> {
    save_index_body(index, writer)
}

/// Fully typed serialization of `index` to `writer`: I/O failures surface
/// as [`Error::Persist`](crate::Error::Persist). Pending dynamic updates no
/// longer refuse the save — they are sealed into the artifact's op section
/// and the loader reconstructs the exact overlay (see the module docs).
pub fn try_save_index<W: Write>(index: &IsLabelIndex, writer: &mut W) -> Result<(), crate::Error> {
    save_index_body(index, writer).map_err(crate::Error::Persist)
}

fn save_index_body<W: Write>(index: &IsLabelIndex, writer: &mut W) -> io::Result<()> {
    let mut head = Vec::new();
    head.put_slice(MAGIC);
    head.put_u32_le(VERSION);
    head.put_u64_le(index.artifact_epoch());
    // Config.
    let config = index.config();
    match config.k_selection {
        KSelection::SigmaThreshold(s) => {
            head.put_u8(0);
            head.put_f64_le(s);
        }
        KSelection::FixedK(k) => {
            head.put_u8(1);
            head.put_f64_le(k as f64);
        }
        KSelection::Full => {
            head.put_u8(2);
            head.put_f64_le(0.0);
        }
    }
    head.put_u8(config.keep_path_info as u8);
    writer.write_all(&head)?;

    // Base graph.
    write_csr_framed(index.base_graph(), writer)?;

    // Hierarchy.
    let h = index.hierarchy();
    let n = h.universe();
    let mut buf = Vec::new();
    buf.put_u32_le(h.k());
    buf.put_u64_le(n as u64);
    for v in 0..n as VertexId {
        buf.put_u32_le(h.level_of(v));
    }
    writer.write_all(&buf)?;
    buf.clear();
    for v in 0..n as VertexId {
        let adj = h.peel_adj(v);
        buf.put_u32_le(adj.len() as u32);
        for e in adj {
            buf.put_u32_le(e.to);
            buf.put_u32_le(e.weight);
            buf.put_u32_le(e.via);
        }
        if buf.len() > 1 << 20 {
            writer.write_all(&buf)?;
            buf.clear();
        }
    }
    writer.write_all(&buf)?;
    write_csr_framed(h.gk(), writer)?;
    let mut vias: Vec<(VertexId, VertexId, VertexId)> = Vec::new();
    for (u, v, _) in h.gk().edge_list() {
        if let Some(via) = h.gk_via(u, v) {
            vias.push((u, v, via));
        }
    }
    buf.clear();
    buf.put_u64_le(vias.len() as u64);
    for (u, v, via) in vias {
        buf.put_u32_le(u);
        buf.put_u32_le(v);
        buf.put_u32_le(via);
    }
    writer.write_all(&buf)?;

    // Labels.
    let labels = index.labels();
    buf.clear();
    let mut total = 0u64;
    buf.put_u64_le(labels.num_vertices() as u64);
    writer.write_all(&buf)?;
    buf.clear();
    buf.put_u64_le(0);
    for v in 0..labels.num_vertices() as VertexId {
        total += labels.label(v).len() as u64;
        buf.put_u64_le(total);
    }
    writer.write_all(&buf)?;
    buf.clear();
    for v in 0..labels.num_vertices() as VertexId {
        for &a in labels.label(v).ancestors {
            buf.put_u32_le(a);
        }
        flush_if_large(writer, &mut buf)?;
    }
    writer.write_all(&buf)?;
    buf.clear();
    for v in 0..labels.num_vertices() as VertexId {
        for &d in labels.label(v).dists {
            buf.put_u64_le(d);
        }
        flush_if_large(writer, &mut buf)?;
    }
    writer.write_all(&buf)?;
    buf.clear();
    buf.put_u8(labels.has_path_info() as u8);
    if labels.has_path_info() {
        for v in 0..labels.num_vertices() as VertexId {
            for &hop in labels.label(v).first_hops {
                buf.put_u32_le(hop);
            }
            flush_if_large(writer, &mut buf)?;
        }
    }
    writer.write_all(&buf)?;

    // Sealed dynamic updates: the overlay op log, in the WAL payload
    // format. The loader replays these through the mutation path, which
    // reconstructs the exact overlay (patching is deterministic).
    let ops = index.overlay.ops();
    buf.clear();
    buf.put_u64_le(ops.len() as u64);
    let mut rec = Vec::new();
    for op in ops {
        rec.clear();
        wal::encode_op(op, &mut rec);
        buf.put_u32_le(rec.len() as u32);
        buf.put_slice(&rec);
        flush_if_large(writer, &mut buf)?;
    }
    writer.write_all(&buf)?;
    writer.flush()
}

fn flush_if_large<W: Write>(writer: &mut W, buf: &mut Vec<u8>) -> io::Result<()> {
    if buf.len() > 1 << 20 {
        writer.write_all(buf)?;
        buf.clear();
    }
    Ok(())
}

/// Loads an index previously written by [`save_index`]. Accepts the
/// current version 2 format (artifact epoch + sealed dynamic updates) and
/// the pristine version 1 format (a fresh epoch is minted).
pub fn load_index<R: Read>(reader: &mut R) -> io::Result<IsLabelIndex> {
    // Magic + version, then the version-dependent epoch, then config.
    let mut head = [0u8; 8];
    reader.read_exact(&mut head)?;
    let mut hb = &head[..];
    let mut magic = [0u8; 4];
    hb.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(bad("bad magic (not an ISLX index)"));
    }
    let version = hb.get_u32_le();
    if version != 1 && version != VERSION {
        return Err(bad(&format!("unsupported index version {version}")));
    }
    let epoch = if version >= 2 {
        let mut e = [0u8; 8];
        reader.read_exact(&mut e)?;
        Some(u64::from_le_bytes(e))
    } else {
        None
    };
    let mut config_head = [0u8; 1 + 8 + 1];
    reader.read_exact(&mut config_head)?;
    let mut hb = &config_head[..];
    let ksel_tag = hb.get_u8();
    let ksel_val = hb.get_f64_le();
    let keep_path_info = hb.get_u8() != 0;
    let k_selection = match ksel_tag {
        0 => KSelection::SigmaThreshold(ksel_val),
        1 => KSelection::FixedK(ksel_val as u32),
        2 => KSelection::Full,
        t => return Err(bad(&format!("unknown k-selection tag {t}"))),
    };
    let config = BuildConfig {
        k_selection,
        keep_path_info,
        ..BuildConfig::default()
    };

    // Base graph. `read_csr_binary` consumes to stream end, so the graph
    // blocks are length-prefixed here by re-framing: read the CSR block via
    // a counted sub-reader. The binary CSR format is self-describing, so we
    // read it directly.
    let graph = read_csr_framed(reader)?;

    let mut small = [0u8; 12];
    reader.read_exact(&mut small)?;
    let mut sb = &small[..];
    let k = sb.get_u32_le();
    let n = sb.get_u64_le() as usize;
    if n != graph.num_vertices() {
        return Err(bad("level table size mismatch"));
    }
    let mut level_of = vec![0u32; n];
    read_u32s(reader, &mut level_of)?;
    if level_of.iter().any(|&l| l == 0 || l > k) {
        return Err(bad("level number out of range"));
    }

    let mut peel_adj: Vec<Box<[PeelEdge]>> = Vec::with_capacity(n);
    for _ in 0..n {
        let mut cnt = [0u8; 4];
        reader.read_exact(&mut cnt)?;
        let count = u32::from_le_bytes(cnt) as usize;
        if count > n {
            return Err(bad("peel adjacency count out of range"));
        }
        let mut body = vec![0u8; count * 12];
        reader.read_exact(&mut body)?;
        let mut bb = &body[..];
        let mut adj = Vec::with_capacity(count);
        for _ in 0..count {
            let e = PeelEdge {
                to: bb.get_u32_le(),
                weight: bb.get_u32_le(),
                via: bb.get_u32_le(),
            };
            if e.to as usize >= n
                || (e.via != islabel_graph::adjacency::NO_VIA && e.via as usize >= n)
                || e.weight == 0
            {
                return Err(bad("peel edge out of range"));
            }
            adj.push(e);
        }
        peel_adj.push(adj.into_boxed_slice());
    }

    let gk = read_csr_framed(reader)?;
    if gk.num_vertices() != n {
        return Err(bad("residual graph universe mismatch"));
    }
    let mut cnt8 = [0u8; 8];
    reader.read_exact(&mut cnt8)?;
    let via_count = u64::from_le_bytes(cnt8) as usize;
    if via_count > gk.num_edges() {
        return Err(bad("more via annotations than residual edges"));
    }
    let mut via_body = vec![0u8; via_count * 12];
    reader.read_exact(&mut via_body)?;
    let mut vb = &via_body[..];
    let mut gk_vias = FxHashMap::default();
    for _ in 0..via_count {
        let u = vb.get_u32_le();
        let v = vb.get_u32_le();
        let via = vb.get_u32_le();
        gk_vias.insert((u, v), via);
    }

    // Levels and members reconstructed from level_of.
    let mut levels: Vec<Vec<VertexId>> = vec![Vec::new(); k.saturating_sub(1) as usize];
    let mut gk_members = Vec::new();
    for v in 0..n as VertexId {
        let l = level_of[v as usize];
        if l == k {
            gk_members.push(v);
        } else {
            levels[(l - 1) as usize].push(v);
        }
    }

    // Labels.
    reader.read_exact(&mut cnt8)?;
    let ln = u64::from_le_bytes(cnt8) as usize;
    if ln != n {
        return Err(bad("label table size mismatch"));
    }
    let mut offsets = vec![0u64; n + 1];
    read_u64s(reader, &mut offsets)?;
    if offsets[0] != 0 || !offsets.windows(2).all(|w| w[0] <= w[1]) {
        return Err(bad("label offsets corrupt"));
    }
    // Bound allocations before trusting the totals: a label has at most one
    // entry per vertex, so more than n entries for any vertex (or n² overall)
    // is corruption, not data.
    if offsets.windows(2).any(|w| w[1] - w[0] > n as u64) {
        return Err(bad("label larger than the vertex universe"));
    }
    let total = *offsets.last().unwrap() as usize;
    let mut ancestors = vec![0u32; total];
    read_u32s(reader, &mut ancestors)?;
    let mut dists = vec![0u64; total];
    read_u64s(reader, &mut dists)?;
    let mut flag = [0u8; 1];
    reader.read_exact(&mut flag)?;
    let has_hops = flag[0] != 0;
    let mut hops = vec![0u32; if has_hops { total } else { 0 }];
    if has_hops {
        read_u32s(reader, &mut hops)?;
    }
    let mut per_vertex: Vec<Vec<(VertexId, u64, VertexId)>> = Vec::with_capacity(n);
    for v in 0..n {
        let lo = offsets[v] as usize;
        let hi = offsets[v + 1] as usize;
        let mut entries = Vec::with_capacity(hi - lo);
        for e in lo..hi {
            let hop = if has_hops {
                hops[e]
            } else {
                crate::label::NO_HOP
            };
            entries.push((ancestors[e], dists[e], hop));
        }
        if !entries.windows(2).all(|w| w[0].0 < w[1].0) {
            return Err(bad("label entries not sorted"));
        }
        per_vertex.push(entries);
    }
    let labels = LabelSet::from_per_vertex(per_vertex, has_hops);

    let hierarchy =
        VertexHierarchy::from_parts(level_of, k, levels, peel_adj, gk, gk_vias, gk_members);
    let stats = IndexStats {
        num_vertices: n,
        num_edges: graph.num_edges(),
        k,
        gk_vertices: hierarchy.num_gk_vertices(),
        gk_edges: hierarchy.num_gk_edges(),
        label_entries: labels.num_entries(),
        label_bytes: labels.memory_bytes(),
        avg_label_len: labels.avg_label_len(),
        max_label_len: labels.max_label_len(),
        hierarchy_time: Duration::ZERO, // not recorded in the artifact
        labeling_time: Duration::ZERO,
        build_time: Duration::ZERO,
    };
    let mut index = IsLabelIndex::from_parts(graph, hierarchy, labels, config, stats);

    // Version 2: restore the artifact epoch, then replay the sealed op log
    // through the normal mutation path. Every record is validated against
    // the overlay state it applies to, so a corrupt op section fails
    // cleanly instead of panicking (or silently building a wrong overlay).
    if let Some(epoch) = epoch {
        index.set_artifact_epoch(epoch);
        reader.read_exact(&mut cnt8)?;
        let op_count = u64::from_le_bytes(cnt8);
        let mut rec = Vec::new();
        for i in 0..op_count {
            let mut len4 = [0u8; 4];
            reader.read_exact(&mut len4)?;
            let len = u32::from_le_bytes(len4);
            if len > wal::MAX_RECORD_LEN {
                return Err(bad(&format!("sealed op {i} implausibly large")));
            }
            rec.resize(len as usize, 0);
            reader.read_exact(&mut rec)?;
            let op = wal::decode_op(&rec).map_err(|e| bad(&format!("sealed op {i}: {e}")))?;
            index
                .replay_op(&op)
                .map_err(|e| bad(&format!("sealed op {i} inapplicable: {e}")))?;
        }
    }
    Ok(index)
}

/// Saves to a file path, atomically: the artifact is written to a sibling
/// temp file, `fsync`ed, and renamed into place, so a crash or I/O failure
/// mid-save never destroys an existing artifact at `path`.
///
/// Path-level saves write the **v3 flat format** (the mmap-servable
/// section container of [`v3`] / `islabel-store`); the stream-level
/// [`save_index`] still writes the v2 stream, and [`save_index_v2_to_path`]
/// exists for explicit down-conversion. Loading auto-detects either.
pub fn save_index_to_path(
    index: &IsLabelIndex,
    path: impl AsRef<std::path::Path>,
) -> io::Result<()> {
    atomic_save(index, path.as_ref())
}

/// Saves the legacy v2 stream format to a file path (atomic like
/// [`save_index_to_path`]). For interoperability with pre-v3 readers and
/// the CLI's `convert --to v2`.
pub fn save_index_v2_to_path(
    index: &IsLabelIndex,
    path: impl AsRef<std::path::Path>,
) -> io::Result<()> {
    atomic_save_with(path.as_ref(), |mut w| {
        save_index_body(index, &mut w)?;
        w.into_inner().map_err(|e| e.into_error())
    })
}

/// Loads from a file path, auto-detecting the artifact version from the
/// shared `"ISLX" + version` prefix: v3 goes through the flat-section
/// reader (fully validated, then materialized on the heap), v1/v2 through
/// the stream loader.
pub fn load_index_from_path(path: impl AsRef<std::path::Path>) -> io::Result<IsLabelIndex> {
    let path = path.as_ref();
    let mut f = io::BufReader::new(std::fs::File::open(path)?);
    let mut head = [0u8; 8];
    let is_v3 = match f.read_exact(&mut head) {
        Ok(()) => {
            &head[..4] == MAGIC
                && u32::from_le_bytes([head[4], head[5], head[6], head[7]]) == VERSION_V3
        }
        // Too short for any version; let the stream loader report it.
        Err(_) => false,
    };
    if is_v3 {
        drop(f);
        let reader = islabel_store::StoreReader::open(path)?;
        return v3::read_index(&reader);
    }
    io::Seek::seek(&mut f, io::SeekFrom::Start(0))?;
    load_index(&mut f)
}

/// Loads the artifact at `path` as a serving oracle, preferring the
/// zero-copy engine: a pristine v3 artifact is memory-mapped and served
/// in place ([`crate::MmapIndex`]); anything else — a v2 artifact, a v3
/// artifact with sealed dynamic updates, or a platform where mapping
/// fails — falls back to the fully materialized heap engine. Both engines
/// are bit-identical on queries, so callers only observe the difference
/// in [`DistanceOracle::engine_name`](crate::DistanceOracle::engine_name)
/// and load time.
pub fn try_load_oracle_from_path(
    path: impl AsRef<std::path::Path>,
) -> Result<crate::SharedOracle, crate::Error> {
    let path = path.as_ref();
    if let Ok(mapped) = crate::MmapIndex::open(path) {
        return Ok(std::sync::Arc::new(mapped));
    }
    Ok(std::sync::Arc::new(try_load_index_from_path(path)?))
}

/// Fully typed save to a file path: I/O failures surface as
/// [`Error::Persist`](crate::Error::Persist). Like [`save_index_to_path`]
/// the write is atomic (temp file + rename), and pending dynamic updates
/// are sealed into the artifact rather than refused (see
/// [`try_save_index`]).
pub fn try_save_index_to_path(
    index: &IsLabelIndex,
    path: impl AsRef<std::path::Path>,
) -> Result<(), crate::Error> {
    atomic_save(index, path.as_ref()).map_err(crate::Error::Persist)
}

fn atomic_save(index: &IsLabelIndex, path: &Path) -> io::Result<()> {
    atomic_save_with(path, |w| {
        let w = v3::write_index(index, w)?;
        w.into_inner().map_err(|e| e.into_error())
    })
}

/// The temp-file-fsync-rename-fsync-dir dance, generalized over the body
/// writer so the v2 stream and the v3 flat format share one durability
/// path. `write` receives the buffered temp file and must hand back the
/// inner [`File`](std::fs::File) for the pre-rename `sync_all`.
fn atomic_save_with(
    path: &Path,
    write: impl FnOnce(io::BufWriter<std::fs::File>) -> io::Result<std::fs::File>,
) -> io::Result<()> {
    let mut tmp_name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| "index".into());
    // Unique per call, not just per process: concurrent saves to one
    // path must each rename a complete temp file of their own.
    static SAVE_SEQ: AtomicU64 = AtomicU64::new(0);
    // ordering: Relaxed — only the counter's uniqueness matters.
    let seq = SAVE_SEQ.fetch_add(1, Ordering::Relaxed);
    tmp_name.push(format!(".tmp-{}-{seq}", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    let written = (|| {
        let w = io::BufWriter::new(std::fs::File::create(&tmp)?);
        let f = write(w)?;
        f.sync_all()
    })();
    if let Err(e) = written {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    std::fs::rename(&tmp, path)?;
    // Make the rename itself durable where directory fsync is supported;
    // best-effort elsewhere (the artifact is valid either way).
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        if let Ok(dir) = std::fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// Fully typed load: I/O and format failures surface as
/// [`Error::Persist`](crate::Error::Persist).
pub fn try_load_index_from_path(
    path: impl AsRef<std::path::Path>,
) -> Result<IsLabelIndex, crate::Error> {
    load_index_from_path(path).map_err(crate::Error::Persist)
}

/// Loads the artifact at `index_path` and attaches (recovering if needed)
/// the write-ahead log at `wal_path` — the one call a serving process makes
/// at startup to come back crash-consistent: sealed ops are already in the
/// artifact, the WAL's epoch-matched suffix is replayed on top, a torn tail
/// is truncated, and the returned index appends subsequent mutations to the
/// log. See [`IsLabelIndex::attach_wal`] for the exact recovery cases.
pub fn load_index_with_wal(
    index_path: impl AsRef<Path>,
    wal_path: impl AsRef<Path>,
) -> Result<(IsLabelIndex, wal::WalRecovery), crate::Error> {
    let mut index = try_load_index_from_path(index_path)?;
    let recovery = index.attach_wal(wal_path)?;
    Ok((index, recovery))
}

/// Outcome of [`compact_index_with_wal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactInfo {
    /// Dynamic updates folded into the rebuilt base index (sealed ops plus
    /// WAL-replayed ops).
    pub folded_ops: usize,
    /// Of those, how many came from WAL replay (vs. the artifact's sealed
    /// section).
    pub replayed_ops: usize,
    /// Vertices of the rebuilt index.
    pub num_vertices: usize,
    /// Edges of the rebuilt index.
    pub num_edges: usize,
    /// The fresh artifact-lineage epoch shared by the new artifact and the
    /// reset WAL.
    pub epoch: u64,
}

/// Folds all pending updates into a fresh pristine index on disk: load +
/// WAL recovery, rebuild from the materialized graph, **durably** save the
/// new artifact (temp file + rename + fsync), then reset the WAL to the new
/// epoch. The ordering makes every crash window safe: before the rename the
/// old artifact/WAL pair is intact; between the rename and the WAL reset
/// the leftover log's epoch no longer matches, so
/// [`load_index_with_wal`] discards it instead of replaying already-folded
/// ops twice.
///
/// This is the offline/CLI form; a serving process uses
/// `RebuildCoordinator` in `islabel-serve`, which additionally swaps the
/// live oracle between the save and the WAL reset.
pub fn compact_index_with_wal(
    index_path: impl AsRef<Path>,
    wal_path: impl AsRef<Path>,
) -> Result<CompactInfo, crate::Error> {
    let (index, recovery) = load_index_with_wal(index_path.as_ref(), wal_path.as_ref())?;
    let folded_ops = index.pending_ops();
    let graph = index.current_graph();
    let rebuilt = IsLabelIndex::try_build(&graph, *index.config())?;
    let epoch = rebuilt.artifact_epoch();
    drop(index); // release the old WAL writer before resetting the file
    try_save_index_to_path(&rebuilt, index_path)?;
    let mut w =
        wal::WalWriter::create(wal_path.as_ref(), epoch, 1).map_err(crate::Error::Persist)?;
    w.sync().map_err(crate::Error::Persist)?;
    Ok(CompactInfo {
        folded_ops,
        replayed_ops: recovery.replayed,
        num_vertices: rebuilt.stats().num_vertices,
        num_edges: rebuilt.stats().num_edges,
        epoch,
    })
}

// The CSR binary format reads to end-of-stream; frame it with a length.
fn read_csr_framed<R: Read>(reader: &mut R) -> io::Result<islabel_graph::CsrGraph> {
    let mut len = [0u8; 8];
    reader.read_exact(&mut len)?;
    let n = u64::from_le_bytes(len) as usize;
    let mut body = vec![0u8; n];
    reader.read_exact(&mut body)?;
    read_csr_binary(&mut &body[..])
}

fn write_csr_framed<W: Write>(g: &islabel_graph::CsrGraph, writer: &mut W) -> io::Result<()> {
    let mut body = Vec::new();
    write_csr_binary(g, &mut body)?;
    writer.write_all(&(body.len() as u64).to_le_bytes())?;
    writer.write_all(&body)
}

fn read_u32s<R: Read>(reader: &mut R, out: &mut [u32]) -> io::Result<()> {
    let mut body = vec![0u8; out.len() * 4];
    reader.read_exact(&mut body)?;
    for (i, chunk) in body.chunks_exact(4).enumerate() {
        out[i] = u32::from_le_bytes(chunk.try_into().unwrap());
    }
    Ok(())
}

fn read_u64s<R: Read>(reader: &mut R, out: &mut [u64]) -> io::Result<()> {
    let mut body = vec![0u8; out.len() * 8];
    reader.read_exact(&mut body)?;
    for (i, chunk) in body.chunks_exact(8).enumerate() {
        out[i] = u64::from_le_bytes(chunk.try_into().unwrap());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use islabel_graph::generators::{barabasi_albert, WeightModel};

    fn roundtrip(config: BuildConfig) -> (IsLabelIndex, IsLabelIndex) {
        let g = barabasi_albert(200, 3, WeightModel::UniformRange(1, 5), 13);
        let index = IsLabelIndex::build(&g, config);
        let mut buf = Vec::new();
        save_index(&index, &mut buf).unwrap();
        let loaded = load_index(&mut &buf[..]).unwrap();
        (index, loaded)
    }

    #[test]
    fn roundtrip_preserves_everything_queryable() {
        let (index, loaded) = roundtrip(BuildConfig::default());
        assert_eq!(loaded.labels(), index.labels());
        assert_eq!(loaded.hierarchy().gk(), index.hierarchy().gk());
        assert_eq!(loaded.hierarchy().levels(), index.hierarchy().levels());
        assert_eq!(loaded.stats().k, index.stats().k);
        assert_eq!(loaded.config().k_selection, index.config().k_selection);
        for i in 0..60u32 {
            let (s, t) = ((i * 7) % 200, (i * 11 + 3) % 200);
            assert_eq!(loaded.distance(s, t), index.distance(s, t), "({s}, {t})");
            assert_eq!(
                loaded.shortest_path(s, t),
                index.shortest_path(s, t),
                "path ({s}, {t})"
            );
        }
    }

    #[test]
    fn roundtrip_without_path_info() {
        let config = BuildConfig {
            keep_path_info: false,
            ..BuildConfig::default()
        };
        let (index, loaded) = roundtrip(config);
        assert_eq!(loaded.labels(), index.labels());
        assert!(!loaded.labels().has_path_info());
        assert_eq!(loaded.shortest_path(0, 1), None);
        assert_eq!(loaded.distance(0, 1), index.distance(0, 1));
    }

    #[test]
    fn roundtrip_full_hierarchy() {
        let (index, loaded) = roundtrip(BuildConfig::full());
        assert_eq!(loaded.stats().gk_vertices, 0);
        for i in 0..30u32 {
            let (s, t) = ((i * 13) % 200, (i * 29 + 1) % 200);
            assert_eq!(loaded.distance(s, t), index.distance(s, t));
        }
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        assert!(load_index(&mut &b"NOPE"[..]).is_err());
        let g = barabasi_albert(50, 2, WeightModel::Unit, 1);
        let index = IsLabelIndex::build(&g, BuildConfig::default());
        let mut buf = Vec::new();
        save_index(&index, &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(load_index(&mut &buf[..]).is_err());
    }

    #[test]
    fn non_pristine_index_roundtrips_with_sealed_ops() {
        // The historical refusal to persist an updated index is gone: the
        // overlay op log is sealed into the artifact and replayed on load,
        // reconstructing the exact overlay.
        let g = barabasi_albert(150, 3, WeightModel::Unit, 1);
        let mut index = IsLabelIndex::build(&g, BuildConfig::default());
        index.insert_edge(0, 30, 1);
        let u = index.insert_vertex(&[(0, 2), (30, 1)]);
        let victim = index.hierarchy().gk_members()[0];
        index.delete_vertex(victim);
        assert!(index.has_updates());

        let mut buf = Vec::new();
        save_index(&index, &mut buf).unwrap();
        let loaded = load_index(&mut &buf[..]).unwrap();
        assert!(loaded.has_updates());
        assert_eq!(loaded.num_vertices(), index.num_vertices());
        assert_eq!(loaded.artifact_epoch(), index.artifact_epoch());
        assert_eq!(loaded.is_stale(), index.is_stale());
        for i in 0..40u32 {
            let (s, t) = ((i * 7) % 151, (i * 11 + 3) % 151);
            assert_eq!(loaded.try_distance(s, t), index.try_distance(s, t));
        }
        assert_eq!(loaded.try_distance(u, 30), index.try_distance(u, 30));
    }

    #[test]
    fn pristine_artifacts_mint_distinct_epochs() {
        let g = barabasi_albert(40, 2, WeightModel::Unit, 3);
        let a = IsLabelIndex::build(&g, BuildConfig::default());
        let b = IsLabelIndex::build(&g, BuildConfig::default());
        assert_ne!(a.artifact_epoch(), b.artifact_epoch());
        let mut buf = Vec::new();
        save_index(&a, &mut buf).unwrap();
        assert_eq!(
            load_index(&mut &buf[..]).unwrap().artifact_epoch(),
            a.artifact_epoch()
        );
    }

    #[test]
    fn path_save_is_atomic_and_types_io_errors() {
        let g = barabasi_albert(50, 2, WeightModel::Unit, 1);
        let mut index = IsLabelIndex::build(&g, BuildConfig::default());
        index.insert_edge(0, 30, 1);
        let dir = std::env::temp_dir();
        let path = dir.join(format!("islabel-atomic-{}.islx", std::process::id()));

        // A non-pristine save now goes through and replaces the artifact
        // in place (temp file + rename).
        let pristine = IsLabelIndex::build(&g, BuildConfig::default());
        save_index_to_path(&pristine, &path).unwrap();
        try_save_index_to_path(&index, &path).unwrap();
        let loaded = load_index_from_path(&path).unwrap();
        assert!(loaded.has_updates());
        assert_eq!(loaded.try_distance(0, 30), index.try_distance(0, 30));

        // An unwritable destination is a typed error, leaves the existing
        // artifact untouched, and leaves no temp file behind.
        let bad_dest = dir.join("islabel-no-such-dir").join("x.islx");
        assert!(matches!(
            try_save_index_to_path(&index, &bad_dest),
            Err(crate::Error::Persist(_))
        ));
        assert!(load_index_from_path(&path).is_ok());
        let strays = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| {
                e.file_name()
                    .to_string_lossy()
                    .starts_with(&format!("islabel-atomic-{}.islx.tmp", std::process::id()))
            })
            .count();
        assert_eq!(strays, 0, "temp file leaked");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn single_byte_corruption_never_panics() {
        // Flip one byte at a time across the artifact: loading must either
        // fail cleanly or succeed (a flip in label distance bytes can still
        // decode) — but never panic or allocate absurdly.
        let g = barabasi_albert(40, 2, WeightModel::UniformRange(1, 3), 2);
        let index = IsLabelIndex::build(&g, BuildConfig::default());
        let mut buf = Vec::new();
        save_index(&index, &mut buf).unwrap();
        let step = (buf.len() / 97).max(1);
        for pos in (0..buf.len()).step_by(step) {
            let mut corrupt = buf.clone();
            corrupt[pos] ^= 0xA5;
            let result = std::panic::catch_unwind(|| load_index(&mut &corrupt[..]));
            match result {
                Ok(_loaded_or_error) => {}
                Err(_) => panic!("panicked on corruption at byte {pos}"),
            }
        }
    }

    #[test]
    fn file_roundtrip() {
        let g = barabasi_albert(80, 2, WeightModel::Unit, 5);
        let index = IsLabelIndex::build(&g, BuildConfig::default());
        let path =
            std::env::temp_dir().join(format!("islabel-persist-{}.islx", std::process::id()));
        save_index_to_path(&index, &path).unwrap();
        let loaded = load_index_from_path(&path).unwrap();
        assert_eq!(loaded.labels(), index.labels());
        std::fs::remove_file(&path).ok();
    }
}
