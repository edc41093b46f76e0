//! Weighted grid ("road network") workload with shortest-*path* queries.
//!
//! Road networks are the regime the paper contrasts against (Section 3:
//! methods tuned to low highway dimension don't transfer to general
//! graphs — but IS-LABEL still works here). This example runs point-to-point
//! routes on a weighted grid and verifies every returned path edge-by-edge.
//!
//! ```sh
//! cargo run --release --example road_grid
//! ```

use islabel::core::{BuildConfig, Error};
use islabel::graph::generators::{grid2d, WeightModel};
use islabel::IsLabelIndex;

fn main() -> Result<(), Error> {
    let (rows, cols) = (120usize, 120usize);
    // Travel times between 1 and 9 minutes per segment.
    let graph = grid2d(rows, cols, WeightModel::UniformRange(1, 9), 7);
    println!(
        "road grid: {} intersections, {} segments",
        graph.num_vertices(),
        graph.num_edges()
    );

    let index = IsLabelIndex::try_build(&graph, BuildConfig::default())?;
    println!("index: {}", index.stats());

    let id = |r: usize, c: usize| (r * cols + c) as u32;
    let routes = [
        (id(0, 0), id(rows - 1, cols - 1), "corner to corner"),
        (id(0, cols - 1), id(rows - 1, 0), "anti-diagonal"),
        (id(rows / 2, 0), id(rows / 2, cols - 1), "straight across"),
    ];

    for (s, t, what) in routes {
        let path = index.try_shortest_path(s, t)?.expect("grid is connected");
        path.validate_against(&graph)
            .expect("path must be edge-valid");
        println!(
            "{what}: travel time {} over {} segments (distance query agrees: {})",
            path.length,
            path.num_edges(),
            index.try_distance(s, t)?.unwrap() == path.length,
        );
    }
    Ok(())
}
