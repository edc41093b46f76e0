//! Basic graph algorithms and statistics used by dataset preparation,
//! tests and the experiment harness.

pub mod bfs;
pub mod components;
pub mod stats;

pub use bfs::bfs_distances;
pub use components::{connected_components, largest_component, ComponentInfo};
pub use stats::GraphStats;
