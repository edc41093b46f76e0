#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

//! # islabel — facade crate
//!
//! Re-exports the whole IS-LABEL workspace behind one dependency:
//!
//! * [`graph`] — graph substrate (CSR graphs, builders, generators, I/O).
//! * [`extmem`] — external-memory substrate (block devices, external sort,
//!   I/O accounting).
//! * [`core`] — the IS-LABEL index itself (hierarchy, labels, queries).
//! * [`baselines`] — comparison methods (Dijkstra, bi-Dijkstra, VC-Index,
//!   Pruned Landmark Labeling).
//! * [`serve`] — the concurrent serving layer (a caller-runs
//!   [`QueryService`] over hot-swappable [`Snapshot`]s).
//! * [`net`] — the network boundary: a binary wire protocol, a pipelining
//!   TCP [`DistanceServer`], and a blocking [`DistanceClient`] /
//!   [`ClientPool`].
//! * [`store`] — the on-disk v5 `.islx` artifact: flat sectioned format,
//!   streaming writer, and the validating zero-copy mapped reader an
//!   opened [`IsLabelIndex`] ([`MmapIndex`]) reads its arrays from.
//!
//! The most common entry points are re-exported at the top level:
//!
//! ```
//! use islabel::{GraphBuilder, IsLabelIndex, BuildConfig};
//!
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(0, 1, 1);
//! b.add_edge(1, 2, 2);
//! b.add_edge(2, 3, 1);
//! let g = b.build();
//!
//! let index = IsLabelIndex::try_build(&g, BuildConfig::default())?;
//! assert_eq!(index.try_distance(0, 3)?, Some(4));
//! assert_eq!(index.try_distance(3, 3)?, Some(0));
//! # Ok::<(), islabel::core::Error>(())
//! ```
//!
//! Engine-agnostic code programs against [`DistanceOracle`] and builds any
//! engine through the [`Engine`] registry (see [`prelude`]):
//!
//! ```
//! use islabel::prelude::*;
//!
//! let mut b = GraphBuilder::new(3);
//! b.add_edge(0, 1, 4);
//! let g = b.build();
//! for engine in Engine::ALL {
//!     let oracle = build_oracle(engine, &g, &BuildConfig::default()).unwrap();
//!     assert_eq!(oracle.try_distance(0, 1), Ok(Some(4)));
//!     assert_eq!(oracle.try_distance(0, 2), Ok(None)); // unreachable
//!     assert!(oracle.try_distance(0, 7).is_err()); // typed, not a panic
//! }
//! ```

pub use islabel_baselines as baselines;
pub use islabel_core as core;
pub use islabel_extmem as extmem;
pub use islabel_graph as graph;
pub use islabel_net as net;
pub use islabel_serve as serve;
pub use islabel_store as store;

pub use islabel_baselines::{build_oracle, BiDijkstraOracle, Engine};
pub use islabel_core::{
    BatchOptions, BuildConfig, DiIsLabelIndex, DistanceOracle, Error, IsLabelIndex, MmapIndex,
    OracleHandle, QueryError, QuerySession, SharedOracle, Snapshot,
};
pub use islabel_graph::{
    CsrDigraph, CsrGraph, Dataset, DigraphBuilder, Dist, GraphBuilder, Scale, VertexId, Weight, INF,
};
pub use islabel_net::{ClientPool, DistanceClient, DistanceServer, NetConfig, NetError};
pub use islabel_obs::LatencyHistogram;
pub use islabel_serve::{BatchTicket, QueryService, ServeConfig, ServiceStats};

/// One-stop imports for programming against the unified query API.
pub mod prelude {
    pub use islabel_baselines::{build_oracle, BiDijkstraOracle, Engine};
    pub use islabel_baselines::{PllIndex, VcConfig, VcIndex};
    pub use islabel_core::{
        BatchOptions, BuildConfig, DiIsLabelIndex, DistanceOracle, Error, IsLabelIndex, MmapIndex,
        OracleHandle, QueryError, QuerySession, SharedOracle, Snapshot,
    };
    pub use islabel_graph::{
        CsrDigraph, CsrGraph, DigraphBuilder, Dist, GraphBuilder, VertexId, Weight, INF,
    };
    pub use islabel_net::{ClientPool, DistanceClient, DistanceServer, NetConfig, NetError};
    pub use islabel_obs::LatencyHistogram;
    pub use islabel_serve::{BatchTicket, QueryService, ServeConfig, ServiceStats};
}
