//! Quickstart: build an IS-LABEL index and answer distance + path queries.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use islabel::core::{BuildConfig, Error};
use islabel::{GraphBuilder, IsLabelIndex};

fn main() -> Result<(), Error> {
    // The 9-vertex example graph from the paper's Figure 1 (a = 0 ... i = 8).
    // Every edge has weight 1 except (e, f) with weight 3.
    let mut builder = GraphBuilder::new(9);
    for (u, v, w) in [
        (0, 1, 1), // a-b
        (1, 2, 1), // b-c
        (1, 4, 1), // b-e
        (0, 4, 1), // a-e
        (3, 4, 1), // d-e
        (4, 5, 3), // e-f
        (4, 8, 1), // e-i
        (5, 7, 1), // f-h
        (6, 7, 1), // g-h
        (3, 6, 1), // d-g
    ] {
        builder.add_edge(u, v, w);
    }
    let graph = builder.build();

    // Build with the paper's defaults (σ = 0.95 k-selection, greedy
    // min-degree independent sets, path info retained).
    let index = IsLabelIndex::try_build(&graph, BuildConfig::default())?;
    println!("built index: {}", index.stats());

    let names = ["a", "b", "c", "d", "e", "f", "g", "h", "i"];

    // Example 4 of the paper: dist(h, e) = 3.
    let (h, e) = (7, 4);
    println!(
        "dist({}, {}) = {:?}",
        names[h as usize],
        names[e as usize],
        index.try_distance(h, e)?
    );

    // Section 8.1: full shortest-path reconstruction.
    let path = index
        .try_shortest_path(h, e)?
        .expect("h and e are connected");
    let pretty: Vec<&str> = path.vertices.iter().map(|&v| names[v as usize]).collect();
    println!(
        "path(h -> e) = {} (length {})",
        pretty.join(" -> "),
        path.length
    );

    // Unreachable pairs answer None (the paper's ∞).
    let lonely = GraphBuilder::new(2).build();
    let empty_index = IsLabelIndex::try_build(&lonely, BuildConfig::default())?;
    println!(
        "disconnected: dist(0, 1) = {:?}",
        empty_index.try_distance(0, 1)?
    );
    Ok(())
}
