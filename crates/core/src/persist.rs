//! Whole-index serialization, and serving straight off the artifact.
//!
//! The paper's index is explicitly disk-based ("construct a disk-based
//! index", Section 2): build once, persist, then serve queries from the
//! stored artifact. An `.islx` artifact is the flat section container of
//! [`v3`] / `islabel-store` — everything a query needs (base graph, level
//! numbers, peel adjacency and via annotations for path expansion, the
//! dense `G_k`, the labels) as 8-byte-aligned sections — so an index can be
//! built offline (including by the external pipeline) and opened by a
//! query server or the CLI.
//!
//! Every load opens the index *over* the artifact ([`MmapIndex`]): its
//! arrays are the mapped sections, read in place, and a built index holds
//! the same arrays in `Vec`s (`docs/adr/0018-one-engine-over-the-sections.md`).
//! Opening is therefore one O(index) validation scan with no allocation
//! proportional to the labels; the mapping is prefaulted (`MAP_POPULATE`)
//! so that scan runs at memory speed. A served artifact is replaced by
//! renaming a new file over its path, never by writing into it: an open
//! index keeps its mapping — its generation — until it is dropped, and
//! truncating a mapped file in place is unsupported (the next read would
//! fault with `SIGBUS`).
//!
//! It is the only artifact format. A file carrying the `ISLX` magic and an
//! older version number (the v1/v2 streams, the v3 container with `u64`
//! label distances, the v4 container with a stored first hop per label
//! entry) is refused by version with a
//! typed error that says to rebuild with `islabel build`
//! (`docs/adr/0007-one-format-one-harness.md`); [`v3`]'s
//! `Sections::validate` is the only artifact validator.
//!
//! A non-pristine index persists by *sealing* its overlay op log into the
//! artifact, and the loader replays those ops through the normal mutation
//! path — patching is deterministic, so the reloaded overlay is exact. The
//! artifact `epoch` pairs it with its write-ahead log (see [`wal`],
//! [`load_index_with_wal`], and [`compact_index_with_wal`]). Saves write a
//! sibling temp file, `fsync`, and rename, so a crashed or failed save
//! never destroys the previous artifact.

use crate::index::IsLabelIndex;
use crate::oracle::Error;
use islabel_store::StoreReader;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

pub mod v3;
pub mod wal;

/// An [`IsLabelIndex`] opened in place over an artifact's sections: the
/// built index in every respect — session, paths, updates, WAL replay,
/// writer, answers — but where its arrays live, which only
/// [`DistanceOracle::engine_name`](crate::DistanceOracle::engine_name)
/// tells (`islabel-mmap`, against a build's `islabel`).
pub type MmapIndex = IsLabelIndex;

impl IsLabelIndex {
    /// Maps and opens `path`: structural checks (header CRC, section
    /// bounds and alignment), then `Sections::validate` — every stored
    /// value range-checked, every cross-array invariant verified, which is
    /// what makes reading the raw bytes sound — then the sealed ops. Any
    /// defect is a typed error. Section *content checksums* are not
    /// recomputed here: that second O(file) pass attributes corruption
    /// rather than containing it, and belongs to the writers
    /// ([`open_verified`](Self::open_verified) before a hot swap, loads
    /// for recovery and tooling), not to every serving open.
    pub fn open(path: &Path) -> Result<Self, Error> {
        Ok(v3::read_index(StoreReader::open_unverified(path)?)?)
    }

    /// [`open`](Self::open) plus content-checksum verification of every
    /// section. The rebuild coordinator uses this before publishing a
    /// freshly written artifact, so a corrupt file can never be swapped
    /// into serving.
    pub fn open_verified(path: &Path) -> Result<Self, Error> {
        Ok(v3::read_index(StoreReader::open(path)?)?)
    }

    /// Same as [`open_verified`](Self::open_verified) over an in-memory
    /// image, held in an aligned heap buffer.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, Error> {
        Ok(v3::read_index(StoreReader::from_bytes(bytes)?)?)
    }
}

/// Opens the artifact at `path` as a serving oracle: the index over its
/// sections, mapped in place ([`crate::MmapIndex::open`]), sealed ops
/// replayed. Any open error — a defect in the file, an older format, an
/// inapplicable sealed op — is returned as is.
pub fn try_load_oracle_from_path(
    path: impl AsRef<Path>,
) -> Result<crate::SharedOracle, crate::Error> {
    Ok(std::sync::Arc::new(IsLabelIndex::open(path.as_ref())?))
}

/// Saves to a file path, atomically: the artifact is written to a sibling
/// temp file, `fsync`ed, and renamed into place, so a crash or I/O failure
/// mid-save never destroys an existing artifact at `path`. Pending dynamic
/// updates are sealed into the artifact's op section and the loader
/// reconstructs the exact overlay (see the module docs). I/O failures
/// surface as [`Error::Persist`].
pub fn try_save_index_to_path(
    index: &IsLabelIndex,
    path: impl AsRef<Path>,
) -> Result<(), crate::Error> {
    atomic_save(index, path.as_ref()).map_err(crate::Error::Persist)
}

/// The temp-file → `sync_all` → rename → directory-`fsync` sequence every
/// save goes through.
fn atomic_save(index: &IsLabelIndex, path: &Path) -> io::Result<()> {
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
        let f = v3::write_index(index, w)?
            .into_inner()
            .map_err(|e| e.into_error())?;
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

/// Opens the artifact at `path` for tooling and recovery: structure and
/// content checksums verified by `StoreReader::open`, every stored value
/// by `Sections::validate`, sealed ops replayed — the index over the
/// mapped sections ([`crate::MmapIndex::open_verified`]). Anything that is
/// not a v5 artifact — an older version included — is a typed
/// [`Error::Persist`], as is any I/O failure.
pub fn try_load_index_from_path(path: impl AsRef<Path>) -> Result<IsLabelIndex, crate::Error> {
    IsLabelIndex::open_verified(path.as_ref())
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

/// Outcome of [`compact_and_publish`] and [`compact_index_with_wal`].
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

/// [`compact_and_publish`] with nothing to publish: folds all pending
/// updates of an offline artifact + WAL pair into a fresh pristine index
/// on disk (the CLI's `compact`).
pub fn compact_index_with_wal(
    index_path: impl AsRef<Path>,
    wal_path: impl AsRef<Path>,
) -> Result<CompactInfo, crate::Error> {
    compact_and_publish(index_path.as_ref(), wal_path.as_ref(), |_, _| {})
}

/// The one compaction pipeline: load + WAL recovery, rebuild the
/// materialized graph with the artifact's own [`BuildConfig`](crate::BuildConfig)
/// (its `k` selection and path info), **durably** save the new artifact
/// (temp file + rename + fsync), hand it to `publish` — the saved path and
/// the rebuilt index — then reset the WAL to the new epoch.
///
/// The ordering makes every crash window safe: before the rename the old
/// artifact/WAL pair is intact; between the rename and the WAL reset the
/// leftover log's epoch no longer matches, so [`load_index_with_wal`]
/// discards it instead of replaying already-folded ops twice. A serving
/// process (`RebuildCoordinator` in `islabel-serve`) swaps its live oracle
/// in `publish`, so readers move to the new index before the log forgets
/// the ops it folds.
pub fn compact_and_publish(
    index_path: &Path,
    wal_path: &Path,
    publish: impl FnOnce(&Path, IsLabelIndex),
) -> Result<CompactInfo, crate::Error> {
    let (index, recovery) = load_index_with_wal(index_path, wal_path)?;
    let folded_ops = index.pending_ops();
    let graph = index.current_graph();
    let config = *index.config();
    drop(index); // release the old WAL writer before the log is reset
    let rebuilt = IsLabelIndex::try_build(&graph, config)?;
    let info = CompactInfo {
        folded_ops,
        replayed_ops: recovery.replayed,
        num_vertices: rebuilt.stats().num_vertices,
        num_edges: rebuilt.stats().num_edges,
        epoch: rebuilt.artifact_epoch(),
    };
    try_save_index_to_path(&rebuilt, index_path)?;
    publish(index_path, rebuilt);
    let mut w = wal::WalWriter::create(wal_path, info.epoch, 1).map_err(crate::Error::Persist)?;
    w.sync().map_err(crate::Error::Persist)?;
    Ok(info)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BuildConfig;
    use crate::oracle::DistanceOracle;
    use islabel_graph::generators::{barabasi_albert, WeightModel};

    fn mmap_of(index: &IsLabelIndex) -> MmapIndex {
        let buf = v3::write_index(index, io::Cursor::new(Vec::new()))
            .unwrap()
            .into_inner();
        MmapIndex::from_bytes(buf).unwrap()
    }

    #[test]
    fn mmap_matches_heap_engine() {
        let g = barabasi_albert(300, 3, WeightModel::UniformRange(1, 9), 21);
        let index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        let mapped = mmap_of(&index);
        assert_eq!(mapped.num_vertices(), 300);
        let mut session = mapped.session();
        let mut heap_session = index.session();
        for i in 0..200u32 {
            let (s, t) = ((i * 7) % 300, (i * 13 + 5) % 300);
            assert_eq!(
                session.distance(s, t),
                heap_session.distance(s, t),
                "({s}, {t})"
            );
        }
        // Out-of-range vertices are typed errors, and s == t is free.
        assert!(session.distance(300, 0).is_err());
        assert_eq!(session.distance(17, 17), Ok(Some(0)));
    }

    #[test]
    fn mmap_serves_sealed_updates() {
        let g = barabasi_albert(80, 2, WeightModel::Unit, 3);
        let mut index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        index.try_insert_edge(0, 40, 1).unwrap();
        let u = index.try_insert_vertex(&[(3, 2), (40, 1)]).unwrap();
        let mapped = mmap_of(&index);
        assert_eq!(mapped.engine_name(), "islabel-mmap");
        assert_eq!(mapped.overlay(), index.overlay());
        let (mut ms, mut hs) = (mapped.session(), index.session());
        for s in 0..=u {
            for t in [0, 7, 40, u] {
                assert_eq!(ms.distance(s, t), hs.distance(s, t), "({s}, {t})");
            }
        }
    }

    #[test]
    fn pristine_artifacts_mint_distinct_epochs() {
        let g = barabasi_albert(40, 2, WeightModel::Unit, 3);
        let a = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        let b = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        assert_ne!(a.artifact_epoch(), b.artifact_epoch());
        let buf = v3::write_index(&a, io::Cursor::new(Vec::new()))
            .unwrap()
            .into_inner();
        let loaded = IsLabelIndex::from_bytes(buf).unwrap();
        assert_eq!(loaded.artifact_epoch(), a.artifact_epoch());
    }

    #[test]
    fn path_save_is_atomic_and_types_io_errors() {
        let g = barabasi_albert(50, 2, WeightModel::Unit, 1);
        let mut index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        index.try_insert_edge(0, 30, 1).unwrap();
        let dir = crate::testdir::TestDir::new("atomic");
        let path = dir.join("index.islx");

        // A non-pristine save now goes through and replaces the artifact
        // in place (temp file + rename).
        let pristine = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        try_save_index_to_path(&pristine, &path).unwrap();
        try_save_index_to_path(&index, &path).unwrap();
        let loaded = try_load_index_from_path(&path).unwrap();
        assert!(loaded.has_updates());
        assert_eq!(loaded.try_distance(0, 30), index.try_distance(0, 30));

        // An unwritable destination is a typed error, leaves the existing
        // artifact untouched, and leaves no temp file behind.
        let bad_dest = dir.join("no-such-dir").join("x.islx");
        assert!(matches!(
            try_save_index_to_path(&index, &bad_dest),
            Err(crate::Error::Persist(_))
        ));
        assert!(try_load_index_from_path(&path).is_ok());
        let names: Vec<_> = std::fs::read_dir(&*dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["index.islx"], "temp file leaked");
    }

    #[test]
    fn file_roundtrip() {
        let g = barabasi_albert(80, 2, WeightModel::Unit, 5);
        let index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        let dir = crate::testdir::TestDir::new("persist");
        let path = dir.join("index.islx");
        try_save_index_to_path(&index, &path).unwrap();
        let loaded = try_load_index_from_path(&path).unwrap();
        assert_eq!(loaded.labels(), index.labels());
    }
}
