#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

//! # islabel-graph
//!
//! Graph substrate for the IS-LABEL reproduction.
//!
//! This crate provides everything below the index itself:
//!
//! * Compact identifier and weight types ([`VertexId`], [`Weight`], [`Dist`]).
//! * An immutable CSR graph for query-time workloads ([`CsrGraph`]) and a
//!   directed variant ([`CsrDigraph`]).
//! * The mutable graph of hierarchy construction as sorted rows, which
//!   peels a vertex and merges its augmenting edges into its neighbours'
//!   rows ([`SortedAdjacency`]).
//! * Deterministic random-graph generators ([`generators`]) and the five
//!   synthetic stand-ins for the paper's datasets ([`datasets`]).
//! * Text and binary graph I/O ([`io`]).
//! * Basic graph algorithms and statistics ([`algo`]).
//! * A fast integer hasher ([`hash`]) used throughout the workspace.
//!
//! The paper studies weighted, undirected simple graphs `G = (V, E, ω)` with
//! positive integer weights (Section 2); those conventions are baked into the
//! types here: weights are `u32 >= 1`, distances are `u64` with
//! [`INF`] denoting "unreachable" (the paper's `∞`).

pub mod adjacency;
pub mod algo;
pub mod builder;
pub mod csr;
pub mod datasets;
pub mod digraph;
pub mod generators;
pub mod hash;
pub mod ids;
pub mod io;

pub use adjacency::SortedAdjacency;
pub use builder::{DigraphBuilder, GraphBuilder};
pub use csr::CsrGraph;
pub use datasets::{Dataset, Scale};
pub use digraph::CsrDigraph;
pub use hash::{FxHashMap, FxHashSet};
pub use ids::{Dist, VertexId, Weight, INF};
