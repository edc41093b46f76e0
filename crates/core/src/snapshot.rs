//! Immutable index snapshots and atomic hot-swap: [`Snapshot`] and
//! [`OracleHandle`].
//!
//! The paper's serving model is *build once, query forever*: a disk-based
//! index is constructed offline and then answers point-to-point queries
//! (Section 2). A long-running query server adds one requirement on top —
//! replacing the index with a freshly built artifact without stopping the
//! world. This module provides the two pieces:
//!
//! * [`Snapshot`] — an immutable, cheaply-cloneable (`Arc`-backed) view of
//!   a built [`DistanceOracle`]. Cloning is one atomic refcount bump;
//!   every clone answers from exactly the same index version.
//! * [`OracleHandle`] — a shared slot holding the *current* snapshot.
//!   Readers [`load`](OracleHandle::load) a clone and query it for as long
//!   as they like; a writer [`swap`](OracleHandle::swap)s in a new oracle
//!   atomically. Queries already running against the old snapshot finish
//!   on it untouched (their `Arc` keeps it alive); the old index is freed
//!   when its last in-flight reader drops.
//!
//! Snapshots are version-stamped so serving layers can detect a swap and
//! refresh per-thread [`QuerySession`]s.
//!
//! # Examples
//!
//! ```
//! use islabel_core::snapshot::{OracleHandle, Snapshot};
//! use islabel_core::{BuildConfig, IsLabelIndex};
//! use islabel_graph::GraphBuilder;
//!
//! let mut b = GraphBuilder::new(3);
//! b.add_edge(0, 1, 5);
//! let g = b.build();
//!
//! let handle = OracleHandle::new(Snapshot::new(IsLabelIndex::try_build(
//!     &g,
//!     BuildConfig::default(),
//! )?));
//! let reader = handle.load(); // in-flight view
//! assert_eq!(reader.oracle().try_distance(0, 1), Ok(Some(5)));
//!
//! // Rebuild with a different weight and hot-swap it in.
//! let mut b = GraphBuilder::new(3);
//! b.add_edge(0, 1, 9);
//! let retired = handle.swap_oracle(IsLabelIndex::try_build(&b.build(), BuildConfig::default())?);
//!
//! // New loads see the new index; the old reader finishes on the old one.
//! assert_eq!(handle.load().oracle().try_distance(0, 1), Ok(Some(9)));
//! assert_eq!(reader.oracle().try_distance(0, 1), Ok(Some(5)));
//! assert_eq!(retired.version(), reader.version());
//! # Ok::<(), islabel_core::Error>(())
//! ```

use crate::oracle::{DistanceOracle, QuerySession};
use parking_lot::RwLock;
use std::sync::Arc;

/// A shared, heap-allocated distance engine: what [`Snapshot`]s are made
/// of. `dyn DistanceOracle` is `Send + Sync` by the trait's supertraits,
/// so the same oracle serves any number of threads.
pub type SharedOracle = Arc<dyn DistanceOracle>;

/// An immutable, cheaply-cloneable view of one built index.
///
/// A snapshot never changes: all clones answer from the same underlying
/// oracle, and the version stamp identifies which generation of the index
/// a reader is on (see [`OracleHandle`]). Dropping the last clone frees
/// the index.
#[derive(Clone)]
pub struct Snapshot {
    oracle: SharedOracle,
    version: u64,
}

impl Snapshot {
    /// Wraps a freshly built engine as generation-0.
    pub fn new(oracle: impl DistanceOracle + 'static) -> Self {
        Self::from_arc(Arc::new(oracle))
    }

    /// Wraps an already-shared engine as generation-0 (used when the
    /// caller needs to keep its own `Arc` to the oracle).
    pub fn from_arc(oracle: SharedOracle) -> Self {
        Self { oracle, version: 0 }
    }

    /// The underlying engine.
    pub fn oracle(&self) -> &dyn DistanceOracle {
        &*self.oracle
    }

    /// A clone of the underlying `Arc` (for handing the engine to another
    /// owner, e.g. a second [`OracleHandle`]).
    pub fn shared(&self) -> SharedOracle {
        Arc::clone(&self.oracle)
    }

    /// Which swap generation this snapshot belongs to: 0 for the snapshot
    /// a handle started with, incremented by every
    /// [`OracleHandle::swap`].
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Opens a per-thread [`QuerySession`] on this snapshot's engine.
    pub fn session(&self) -> Box<dyn QuerySession + '_> {
        self.oracle.session()
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("engine", &self.oracle.engine_name())
            .field("version", &self.version)
            .field("num_vertices", &self.oracle.num_vertices())
            .finish()
    }
}

/// A shared slot holding the current [`Snapshot`], with atomic hot-swap.
///
/// The read path is wait-free in practice: [`load`](OracleHandle::load)
/// takes a read lock only long enough to clone an `Arc`. A
/// [`swap`](OracleHandle::swap) publishes a new snapshot for all future
/// loads and returns the retired one; readers that loaded before the swap
/// keep serving from the old index until they drop it — zero-downtime
/// replacement with no coordination.
pub struct OracleHandle {
    current: RwLock<Snapshot>,
}

impl OracleHandle {
    /// A handle serving `initial` (stamped as its generation as-is;
    /// usually a fresh generation-0 [`Snapshot::new`]).
    pub fn new(initial: Snapshot) -> Self {
        Self {
            current: RwLock::new(initial),
        }
    }

    /// Convenience: wraps a freshly built engine directly.
    pub fn from_oracle(oracle: impl DistanceOracle + 'static) -> Self {
        Self::new(Snapshot::new(oracle))
    }

    /// The current snapshot, cloned (one refcount bump). The returned
    /// snapshot stays valid — and keeps its index alive — for as long as
    /// the caller holds it, across any number of concurrent swaps.
    pub fn load(&self) -> Snapshot {
        self.current.read().clone()
    }

    /// The current generation counter (equals `load().version()` but
    /// without cloning).
    pub fn version(&self) -> u64 {
        self.current.read().version
    }

    /// Atomically publishes `oracle` as the new current snapshot and
    /// returns the retired one. The new snapshot's version is the retired
    /// version plus one. In-flight readers of the retired snapshot are
    /// unaffected.
    pub fn swap(&self, oracle: SharedOracle) -> Snapshot {
        let mut slot = self.current.write();
        let next = Snapshot {
            oracle,
            version: slot.version + 1,
        };
        std::mem::replace(&mut *slot, next)
    }

    /// Convenience: [`swap`](OracleHandle::swap) for an unshared engine.
    pub fn swap_oracle(&self, oracle: impl DistanceOracle + 'static) -> Snapshot {
        self.swap(Arc::new(oracle))
    }
}

impl std::fmt::Debug for OracleHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OracleHandle")
            .field("current", &*self.current.read())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BuildConfig;
    use crate::index::IsLabelIndex;
    use islabel_graph::GraphBuilder;

    fn line_index(weight: u32) -> IsLabelIndex {
        let mut b = GraphBuilder::new(4);
        for v in 0..3u32 {
            b.add_edge(v, v + 1, weight);
        }
        IsLabelIndex::try_build(&b.build(), BuildConfig::default()).unwrap()
    }

    #[test]
    fn snapshot_clones_share_one_index() {
        let snap = Snapshot::new(line_index(2));
        let clone = snap.clone();
        assert_eq!(snap.version(), clone.version());
        assert_eq!(clone.oracle().try_distance(0, 3), Ok(Some(6)));
        assert!(Arc::ptr_eq(&snap.shared(), &clone.shared()));
    }

    #[test]
    fn swap_retires_old_generation_and_bumps_version() {
        let handle = OracleHandle::from_oracle(line_index(1));
        assert_eq!(handle.version(), 0);
        let before = handle.load();

        let retired = handle.swap_oracle(line_index(10));
        assert_eq!(retired.version(), 0);
        assert_eq!(handle.version(), 1);
        // The pre-swap reader still answers from the old index.
        assert_eq!(before.oracle().try_distance(0, 3), Ok(Some(3)));
        assert_eq!(handle.load().oracle().try_distance(0, 3), Ok(Some(30)));

        let retired = handle.swap_oracle(line_index(100));
        assert_eq!(retired.version(), 1);
        assert_eq!(handle.load().version(), 2);
    }

    #[test]
    fn concurrent_loads_and_swaps_never_tear() {
        // Weights are generation-coherent: every loaded snapshot must
        // answer with a distance consistent with a single index, even
        // while another thread swaps generations as fast as it can.
        let handle = OracleHandle::from_oracle(line_index(1));
        std::thread::scope(|scope| {
            let swapper = scope.spawn(|| {
                for w in 2..40u32 {
                    handle.swap_oracle(line_index(w));
                }
            });
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..200 {
                        let snap = handle.load();
                        let d01 = snap.oracle().try_distance(0, 1).unwrap().unwrap();
                        let d03 = snap.oracle().try_distance(0, 3).unwrap().unwrap();
                        assert_eq!(d03, 3 * d01, "snapshot tore across generations");
                    }
                });
            }
            swapper.join().unwrap();
        });
        assert_eq!(handle.version(), 38);
    }

    #[test]
    fn sessions_pin_the_snapshot_they_came_from() {
        let handle = OracleHandle::from_oracle(line_index(5));
        let snap = handle.load();
        let mut session = snap.session();
        handle.swap_oracle(line_index(7));
        // The session keeps answering from the generation it was opened on.
        assert_eq!(session.distance(0, 2), Ok(Some(10)));
        assert_eq!(handle.load().session().distance(0, 2), Ok(Some(14)));
    }
}
