// `deny`, not `forbid`: the one SAFETY-documented prefetch hint
// (`kernel::prefetch`) opts back in with a module-level allow; everything
// else in the crate stays unsafe-free, and `islabel-lint`'s confinement
// rule (`lint.toml [unsafe] allowed_files`) pins that boundary.
#![deny(unsafe_code)]
#![deny(missing_debug_implementations)]

//! # islabel-core
//!
//! The IS-LABEL index of Fu, Wu, Cheng, Chu and Wong (VLDB 2013): an
//! independent-set based labeling scheme for point-to-point distance and
//! shortest-path querying on large graphs.
//!
//! ## How it works
//!
//! 1. **Vertex hierarchy** ([`hierarchy`]): repeatedly peel an independent
//!    set `L_i` (greedy minimum-degree) off the graph `G_i`, patching the
//!    remainder with *augmenting edges* so `G_{i+1}` preserves all pairwise
//!    distances among surviving vertices (paper Definition 1, Algorithms 2
//!    and 3). Stop at level `k` when the graph stops shrinking (Definition 4)
//!    and keep the residual graph `G_k`.
//! 2. **Labels** ([`label`]): every peeled vertex stores `(ancestor, d)`
//!    pairs for all its ancestors — vertices reachable by strictly
//!    level-increasing chains (Definition 3, computed top-down as in
//!    Algorithm 4). `d` upper-bounds the true distance but is *exact* at the
//!    max-level vertex of any shortest path (Lemma 5), which is what makes
//!    querying correct.
//! 3. **Queries** ([`query`], [`dense`]): intersect the two sorted labels
//!    (Equation 1) to seed `µ`, then run a label-seeded bidirectional
//!    Dijkstra over `G_k` (Algorithm 1) that prunes with
//!    `min(FQ) + min(RQ) ≥ µ`.
//!
//! ## Entry points
//!
//! * [`DistanceOracle`] — the unified query trait every engine in the
//!   workspace implements. Every operation that can fail has one public
//!   form, and it returns a typed error ([`Error`], [`QueryError`]);
//!   per-thread [`QuerySession`]s reuse search scratch on the hot path.
//! * [`Snapshot`] / [`OracleHandle`] ([`snapshot`]) — immutable Arc-backed
//!   index views with atomic hot-swap, the serving substrate consumed by
//!   the `islabel-serve` worker pool.
//! * [`dense`] — the one implementation of Algorithm 1
//!   ([`dense::dense_search`]), which every distance and path query of
//!   every engine runs: compact `G_k` ids ([`GkIdMap`]),
//!   generation-stamped flat arrays ([`StampedSlab`]) and an indexed 4-ary
//!   heap with decrease-key whose entries are one `u64` each
//!   ([`IndexedHeap`]); updated indexes stay on it
//!   through a view of the [`DensePatch`] their overlay maintains
//!   ([`updates`]). Its oracle is [`mod@reference`] Dijkstra.
//! * [`kernel`] — Equation 1's one production entry point
//!   ([`kernel::intersect_min_auto`], the adaptive merge-join every query
//!   path routes through, with the linear [`query::intersect_min`] as its
//!   oracle) plus the software-prefetch hint the dense search uses.
//! * [`persist`] — the one artifact format ([`persist::v3`]) plus the
//!   write-ahead log ([`persist::wal`]) that makes dynamic updates
//!   crash-durable:
//!   [`persist::load_index_with_wal`] reconstructs the exact overlay after
//!   a crash at any byte boundary, [`persist::compact_index_with_wal`]
//!   folds the log into a rebuilt artifact.
//! * [`IsLabelIndex`] — build/query interface for undirected graphs,
//!   including shortest-path reconstruction (Section 8.1) and lazy dynamic
//!   updates (Section 8.3).
//! * [`DiIsLabelIndex`] — the directed variant with in/out labels
//!   (Section 8.2).
//! * [`disklabel::DiskLabelStore`] — disk-resident labels with counted I/O,
//!   reproducing the paper's Time (a) accounting.
//! * [`embuild`] — the I/O-efficient external-memory construction pipeline
//!   (Section 6), equivalent to the in-memory builder.
//!
//! ```
//! use islabel_core::{BuildConfig, IsLabelIndex};
//! use islabel_graph::GraphBuilder;
//!
//! // The 9-vertex example graph of the paper's Figure 1.
//! let mut b = GraphBuilder::new(9);
//! for (u, v, w) in [
//!     (0, 1, 1), (1, 2, 1), (1, 4, 1), (3, 4, 1), (4, 5, 3),
//!     (4, 8, 1), (5, 7, 1), (6, 7, 1), (3, 6, 1), (0, 3, 1),
//! ] {
//!     b.add_edge(u, v, w);
//! }
//! let g = b.build();
//! let index = IsLabelIndex::try_build(&g, BuildConfig::default())?;
//! assert_eq!(index.try_distance(7, 4)?, Some(3)); // dist(h, e) in the paper
//! # Ok::<(), islabel_core::Error>(())
//! ```

pub mod config;
pub mod dense;
pub mod directed;
pub mod disklabel;
pub mod embuild;
pub mod hierarchy;
pub mod index;
pub mod kernel;
pub mod label;
pub mod oracle;
pub mod path;
pub mod persist;
pub mod query;
pub mod reference;
pub mod snapshot;
pub mod stats;
pub mod trace;
pub mod updates;

#[cfg(test)]
mod testdir;

pub use config::{BuildConfig, IsStrategy, KSelection};
pub use dense::{
    DenseCsr, DenseGk, DensePatch, DenseScratch, DenseView, GkIdMap, IndexedHeap, PatchedDense,
    StampedSlab,
};
pub use directed::{DiIsLabelIndex, DiIsLabelSession};
pub use index::{IsLabelIndex, IsLabelSession, DEFAULT_WAL_SYNC_EVERY};
pub use oracle::{BatchOptions, DistanceOracle, Error, QueryError, QuerySession};
pub use path::Path;
pub use persist::wal::{WalRecovery, WalScan, WalWriter};
pub use persist::MmapIndex;
pub use persist::{compact_index_with_wal, load_index_with_wal, CompactInfo};
pub use query::QueryType;
pub use snapshot::{OracleHandle, SharedOracle, Snapshot};
pub use stats::IndexStats;
pub use trace::{PhaseSample, QueryTrace};
pub use updates::{OverlayStats, UpdateOp};
