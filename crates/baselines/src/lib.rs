#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

//! # islabel-baselines
//!
//! Every comparison method the paper's evaluation needs:
//!
//! * [`BiDijkstra`] — in-memory bidirectional Dijkstra, the paper's
//!   **IM-DIJ** baseline (Table 8). It runs Algorithm 1's kernel
//!   ([`islabel_core::dense::dense_bi_dijkstra`]) over the input graph, one
//!   seed per side; plain single-source Dijkstra is
//!   [`islabel_core::reference`].
//! * [`VcIndex`] — a clean-room reimplementation of the vertex-cover
//!   distance index of Cheng et al. (SIGMOD 2012), converted for
//!   point-to-point querying by early termination exactly as the paper did
//!   (**VC-Index(P2P)**, Tables 8 and 9).
//! * [`PllIndex`] — Pruned Landmark Labeling, the canonical practical
//!   2-hop labeling; stands in for the Cohen et al. 2-hop family whose
//!   construction cost Section 3 argues is prohibitive (ablation C).
//!
//! Every engine implements
//! [`DistanceOracle`](islabel_core::oracle::DistanceOracle); the
//! [`registry`] module builds any of them behind `Box<dyn DistanceOracle>`
//! from an [`Engine`] selector.

pub mod bidijkstra;
pub mod pll;
pub mod registry;
pub mod vc_index;

pub use bidijkstra::{BiDijkstra, BiDijkstraOracle};
pub use pll::PllIndex;
pub use registry::{build_oracle, Engine};
pub use vc_index::{VcConfig, VcIndex, VcQueryCost};
