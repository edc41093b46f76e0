//! Background rebuild-then-swap ("compaction") for a served index.
//!
//! A long-running server accumulates dynamic updates: the overlay grows,
//! deletions of peeled vertices make answers approximate
//! ([`IsLabelIndex::is_stale`]), and the write-ahead log grows without
//! bound. The [`RebuildCoordinator`] folds all of that back into a
//! pristine artifact *while the server keeps answering queries*, by
//! running the one compaction pipeline, [`compact_and_publish`]:
//!
//! 1. **Rebuild** — load the on-disk artifact, replay its WAL and build a
//!    fresh index from the materialized current graph with the artifact's
//!    own build configuration, on a worker thread. Queries keep flowing
//!    against the old snapshot throughout.
//! 2. **Durability point** — persist the rebuilt artifact atomically
//!    (temp file + rename) *before* anything else changes.
//! 3. **Swap** — the coordinator's part: publish through the shared
//!    [`OracleHandle`]; in-flight queries finish on the snapshot they
//!    started on. The published oracle is the just-saved artifact opened
//!    in place ([`islabel_core::MmapIndex`]) — the rebuild's own arrays
//!    are dropped and the server reads the artifact it owns on disk; if
//!    the open fails for any reason the rebuilt index is published
//!    instead, so compaction never fails on the swap. The old artifact is
//!    renamed over, never written into, so snapshots still on it keep
//!    their mapping until they are released.
//! 4. **WAL reset** — only now truncate the log, rewriting it with the
//!    rebuilt artifact's fresh epoch.
//!
//! The ordering *new index durable → swap → WAL truncate* is what makes a
//! crash at any point safe: before the rename the old artifact + full WAL
//! still recover the exact overlay; between the rename and the WAL reset
//! the new artifact simply discards the stale-epoch log (those ops are
//! already folded in — see `persist::wal`); after the reset the pair is
//! pristine. No window loses an acknowledged update or double-applies one.
//!
//! Compactions are single-flight: a second [`compact`] while one is
//! running fails fast with [`CompactError::Busy`] instead of queueing —
//! rebuilds are expensive and back-to-back runs would fold the same ops
//! twice for no benefit.
//!
//! [`IsLabelIndex::is_stale`]: islabel_core::IsLabelIndex::is_stale
//! [`compact`]: RebuildCoordinator::compact

use islabel_core::persist::{compact_and_publish, CompactInfo};
use islabel_core::snapshot::OracleHandle;
use islabel_core::{MmapIndex, SharedOracle};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// What one successful compaction did; returned by
/// [`RebuildCoordinator::compact`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactStats {
    /// Snapshot generation the rebuilt index was published as.
    pub version: u64,
    /// What the pipeline folded and rebuilt.
    pub info: CompactInfo,
}

/// Why a compaction did not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompactError {
    /// Another compaction is already running; retry after it finishes.
    Busy,
    /// The rebuild pipeline failed (I/O, corrupt artifact, build panic);
    /// the served index and the on-disk artifact + WAL pair are untouched.
    Failed(String),
}

impl std::fmt::Display for CompactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompactError::Busy => write!(f, "a compaction is already in progress"),
            CompactError::Failed(msg) => write!(f, "compaction failed: {msg}"),
        }
    }
}

impl std::error::Error for CompactError {}

/// Coordinates background rebuild-then-swap compactions for a served
/// index backed by an on-disk artifact + WAL pair (see the [module
/// docs](self) for the crash-safety argument).
///
/// Shared with the serving side as an `Arc`: the network server's
/// `Compact` admin opcode funnels into
/// [`compact`](RebuildCoordinator::compact).
pub struct RebuildCoordinator {
    handle: Arc<OracleHandle>,
    index_path: PathBuf,
    wal_path: PathBuf,
    /// Single-flight guard; holds no data, only the "running" claim.
    running: Mutex<()>,
}

impl RebuildCoordinator {
    /// A coordinator publishing through `handle`, rebuilding from the
    /// artifact at `index_path` plus the WAL at `wal_path`. The rebuild
    /// uses the artifact's own build configuration.
    pub fn new(
        handle: Arc<OracleHandle>,
        index_path: impl Into<PathBuf>,
        wal_path: impl Into<PathBuf>,
    ) -> Self {
        Self {
            handle,
            index_path: index_path.into(),
            wal_path: wal_path.into(),
            running: Mutex::new(()),
        }
    }

    /// The handle compactions publish through.
    pub fn handle(&self) -> &Arc<OracleHandle> {
        &self.handle
    }

    /// Runs one full compaction on a dedicated worker thread (joined
    /// before returning, so a build panic surfaces as
    /// [`CompactError::Failed`], never a poisoned server): rebuild from
    /// artifact + WAL, persist durably, swap, then reset the log.
    ///
    /// Call it from a background/admin thread — the serving workers keep
    /// answering on the old snapshot while this blocks.
    pub fn compact(&self) -> Result<CompactStats, CompactError> {
        let result = self.compact_inner();
        // Re-emit the outcome through the process-wide registry; folded
        // and replayed op totals accumulate across compactions.
        let registry = islabel_obs::Registry::global();
        let outcome = match &result {
            Ok(_) => "ok",
            Err(CompactError::Busy) => "busy",
            Err(CompactError::Failed(_)) => "failed",
        };
        registry
            .counter(
                islabel_obs::names::METRIC_COMPACTIONS_TOTAL,
                "Background compactions by outcome.",
                &[("outcome", outcome)],
            )
            .inc();
        if let Ok(stats) = &result {
            registry
                .counter(
                    islabel_obs::names::METRIC_COMPACT_FOLDED_OPS_TOTAL,
                    "Overlay + WAL operations folded into rebuilt indexes.",
                    &[],
                )
                .add(stats.info.folded_ops as u64);
            registry
                .counter(
                    islabel_obs::names::METRIC_COMPACT_REPLAYED_OPS_TOTAL,
                    "WAL-tail operations replayed during compaction rebuilds.",
                    &[],
                )
                .add(stats.info.replayed_ops as u64);
        }
        result
    }

    fn compact_inner(&self) -> Result<CompactStats, CompactError> {
        let Ok(_guard) = self.running.try_lock() else {
            return Err(CompactError::Busy);
        };
        let index_path = self.index_path.clone();
        let wal_path = self.wal_path.clone();
        let handle = Arc::clone(&self.handle);
        let worker = std::thread::Builder::new()
            .name("islabel-compact".into())
            .spawn(move || -> Result<CompactStats, String> {
                let mut version = 0;
                let info = compact_and_publish(&index_path, &wal_path, |saved, rebuilt| {
                    // Serve off the artifact just persisted: map it and drop
                    // the rebuild's own arrays. The verified open
                    // recomputes every section checksum, so a corrupt write
                    // can never be published. Any failure falls back to the
                    // rebuilt index — the same arrays in owned memory, so
                    // this choice is unobservable to queries.
                    let published: SharedOracle = match MmapIndex::open_verified(saved) {
                        Ok(mapped) => Arc::new(mapped),
                        Err(_) => Arc::new(rebuilt),
                    };
                    // The generation is the retired one's plus one, read
                    // off the swap itself so a concurrent swap cannot
                    // misreport it; the retired pin is dropped at once.
                    version = handle.swap(published).version() + 1;
                })
                .map_err(|e| e.to_string())?;
                Ok(CompactStats { version, info })
            })
            .map_err(|e| CompactError::Failed(e.to_string()))?;
        match worker.join() {
            Ok(result) => result.map_err(CompactError::Failed),
            Err(_) => Err(CompactError::Failed("rebuild worker panicked".into())),
        }
    }
}

impl std::fmt::Debug for RebuildCoordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RebuildCoordinator")
            .field("index_path", &self.index_path)
            .field("wal_path", &self.wal_path)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdir::TestDir;
    use islabel_core::persist::{self, load_index_with_wal};
    use islabel_core::snapshot::Snapshot;
    use islabel_core::{BuildConfig, IsLabelIndex, IsStrategy, KSelection};
    use islabel_graph::generators::{barabasi_albert, WeightModel};
    use std::path::Path;

    #[test]
    fn compact_folds_wal_swaps_and_resets_log() {
        let dir = TestDir::new("fold");
        let index_path = dir.join("i.islx");
        let wal_path = dir.join("i.wal");
        let g = barabasi_albert(150, 3, WeightModel::Unit, 9);
        let mut index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        persist::try_save_index_to_path(&index, &index_path).unwrap();
        index.attach_wal(&wal_path).unwrap();
        index.try_insert_edge(2, 77, 1).unwrap();
        let u = index.try_insert_vertex(&[(3, 2), (50, 4)]).unwrap();
        let expected = index.current_graph();
        let epoch_before = index.artifact_epoch();
        drop(index); // server restarts from disk below

        let (served, recovery) = load_index_with_wal(&index_path, &wal_path).unwrap();
        assert_eq!(recovery.replayed, 2);
        assert!(served.has_updates());
        let handle = Arc::new(OracleHandle::new(Snapshot::new(served)));
        let coordinator = RebuildCoordinator::new(Arc::clone(&handle), &index_path, &wal_path);

        let stats = coordinator.compact().unwrap();
        assert_eq!(stats.version, 1);
        assert_eq!(stats.info.num_vertices, 151);
        assert_eq!(stats.info.folded_ops, 2);
        assert_eq!(stats.info.replayed_ops, 2);

        // The served snapshot is the pristine rebuild.
        let snap = handle.load();
        assert_eq!(snap.version(), 1);
        assert_eq!(
            snap.oracle().try_distance(u, 3),
            Ok(islabel_core::reference::dijkstra_p2p(&expected, u, 3))
        );

        // Artifact + WAL on disk are a pristine pair with a fresh epoch.
        let (reloaded, rec2) = load_index_with_wal(&index_path, &wal_path).unwrap();
        assert!(!reloaded.has_updates());
        assert_eq!(rec2.replayed, 0);
        assert!(!rec2.created, "the reset WAL already matches");
        assert_ne!(reloaded.artifact_epoch(), epoch_before);
        assert_eq!(reloaded.artifact_epoch(), stats.info.epoch);
    }

    #[test]
    fn compact_rebuilds_with_the_artifacts_own_config() {
        // A full hierarchy without path info, as `islabel build --full
        // --no-paths` writes it: the rebuild must not fall back to the
        // default σ rule or bring path info back.
        let dir = TestDir::new("config");
        let index_path = dir.join("i.islx");
        let wal_path = dir.join("i.wal");
        let g = barabasi_albert(150, 3, WeightModel::UniformRange(1, 5), 2);
        let config = BuildConfig {
            keep_path_info: false,
            ..BuildConfig::full()
        };
        let mut index = IsLabelIndex::try_build(&g, config).unwrap();
        persist::try_save_index_to_path(&index, &index_path).unwrap();
        index.attach_wal(&wal_path).unwrap();
        index.try_insert_edge(4, 90, 2).unwrap();
        drop(index);

        let (served, _) = load_index_with_wal(&index_path, &wal_path).unwrap();
        let handle = Arc::new(OracleHandle::new(Snapshot::new(served)));
        let coordinator = RebuildCoordinator::new(Arc::clone(&handle), &index_path, &wal_path);
        assert_eq!(coordinator.compact().unwrap().info.folded_ops, 1);

        let reloaded = persist::try_load_index_from_path(&index_path).unwrap();
        assert_eq!(reloaded.config().k_selection, KSelection::Full);
        assert!(!reloaded.config().keep_path_info);
        assert!(reloaded.hierarchy().is_label_only());
        assert_eq!(reloaded.dense_gk().ids().len(), 0);
    }

    #[test]
    fn compactions_rebuild_what_a_fresh_build_writes() {
        // Random(7) selection under a cap of four levels: the header
        // records both, so offline and live compaction rebuild with them
        // and write, section for section, what a fresh build of the
        // updated graph with the same config writes.
        let dir = TestDir::new("whole-config");
        let g = barabasi_albert(300, 3, WeightModel::UniformRange(1, 5), 8);
        let config = BuildConfig {
            is_strategy: IsStrategy::Random(7),
            max_levels: 4,
            ..BuildConfig::default()
        };
        let sections = |path: &Path| -> Vec<(u32, u64, u64)> {
            let mapped = MmapIndex::open_verified(path).unwrap();
            assert_eq!(*mapped.config(), config, "{}", path.display());
            let header = mapped.reader().expect("an opened index").header();
            header
                .sections
                .iter()
                .map(|s| (s.kind, s.len, s.checksum))
                .collect()
        };
        for live in [false, true] {
            let index_path = dir.join(format!("{live}.islx"));
            let wal_path = dir.join(format!("{live}.wal"));
            let mut index = IsLabelIndex::try_build(&g, config).unwrap();
            persist::try_save_index_to_path(&index, &index_path).unwrap();
            index.attach_wal(&wal_path).unwrap();
            index.try_insert_edge(4, 90, 2).unwrap();
            index.try_insert_vertex(&[(7, 1), (200, 3)]).unwrap();
            let current = index.current_graph();
            if live {
                let handle = Arc::new(OracleHandle::new(Snapshot::new(index)));
                let coordinator = RebuildCoordinator::new(handle, &index_path, &wal_path);
                assert_eq!(coordinator.compact().unwrap().info.folded_ops, 2);
            } else {
                drop(index);
                let info = persist::compact_index_with_wal(&index_path, &wal_path).unwrap();
                assert_eq!(info.folded_ops, 2);
            }
            let fresh_path = dir.join(format!("{live}-fresh.islx"));
            let fresh = IsLabelIndex::try_build(&current, config).unwrap();
            persist::try_save_index_to_path(&fresh, &fresh_path).unwrap();
            assert_eq!(sections(&index_path), sections(&fresh_path), "live {live}");
            let reloaded = persist::try_load_index_from_path(&index_path).unwrap();
            assert_eq!(*reloaded.config(), config);
        }
    }

    #[test]
    fn second_concurrent_compact_reports_busy() {
        let dir = TestDir::new("busy");
        let index_path = dir.join("i.islx");
        let wal_path = dir.join("i.wal");
        let g = barabasi_albert(80, 2, WeightModel::Unit, 4);
        let index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        persist::try_save_index_to_path(&index, &index_path).unwrap();
        let handle = Arc::new(OracleHandle::new(Snapshot::new(index)));
        let coordinator = Arc::new(RebuildCoordinator::new(
            Arc::clone(&handle),
            &index_path,
            &wal_path,
        ));

        // Hold the single-flight guard as a concurrent compaction would.
        let guard = coordinator.running.lock().unwrap();
        assert_eq!(coordinator.compact(), Err(CompactError::Busy));
        drop(guard);
        coordinator.compact().unwrap();
    }

    #[test]
    fn failed_compact_leaves_serving_state_untouched() {
        let dir = TestDir::new("fail");
        let g = barabasi_albert(80, 2, WeightModel::Unit, 4);
        let index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        let handle = Arc::new(OracleHandle::new(Snapshot::new(index)));
        // No artifact on disk: the rebuild cannot even load.
        let coordinator = RebuildCoordinator::new(
            Arc::clone(&handle),
            dir.join("missing.islx"),
            dir.join("missing.wal"),
        );
        assert!(matches!(
            coordinator.compact(),
            Err(CompactError::Failed(_))
        ));
        assert_eq!(handle.version(), 0, "no swap on failure");
    }
}
