//! Social-network distance queries — the paper's motivating workload
//! ("social network analysis ... context-aware search in social networking
//! sites", Section 1).
//!
//! Builds a preferential-attachment graph (the structure of real social
//! networks), indexes it, and compares IS-LABEL query latency against
//! in-memory bidirectional Dijkstra on a batch of "degrees of separation"
//! queries.
//!
//! ```sh
//! cargo run --release --example social_network
//! ```

use islabel::baselines::BiDijkstra;
use islabel::core::{BuildConfig, Error};
use islabel::graph::generators::{barabasi_albert, WeightModel};
use islabel::IsLabelIndex;
use std::time::Instant;

fn main() -> Result<(), Error> {
    let n = 50_000;
    println!("generating a {n}-member social network (preferential attachment)...");
    let graph = barabasi_albert(n, 4, WeightModel::Unit, 2024);
    println!(
        "  {} members, {} friendships, max degree {}",
        graph.num_vertices(),
        graph.num_edges(),
        graph.max_degree()
    );

    let t0 = Instant::now();
    let index = IsLabelIndex::try_build(&graph, BuildConfig::default())?;
    println!("indexed in {:.2?}: {}", t0.elapsed(), index.stats());

    // 2000 random "how far apart are these two people" queries.
    let pairs: Vec<(u32, u32)> = (0..2000u32)
        .map(|i| {
            (
                (i.wrapping_mul(2654435761)) % n as u32,
                (i.wrapping_mul(40503) + 7) % n as u32,
            )
        })
        .collect();

    let t0 = Instant::now();
    let mut total_sep = 0u64;
    for &(s, t) in &pairs {
        total_sep += index.try_distance(s, t)?.expect("BA graphs are connected");
    }
    let is_time = t0.elapsed();

    let mut bidij = BiDijkstra::new(n);
    let t0 = Instant::now();
    let mut check = 0u64;
    for &(s, t) in &pairs {
        check += bidij.distance(&graph, s, t).expect("connected");
    }
    let dij_time = t0.elapsed();
    assert_eq!(total_sep, check, "methods must agree");

    println!(
        "average separation: {:.2} hops",
        total_sep as f64 / pairs.len() as f64
    );
    println!(
        "IS-LABEL: {:.2?} total ({:.1} µs/query)   bi-Dijkstra: {:.2?} total ({:.1} µs/query)",
        is_time,
        is_time.as_secs_f64() * 1e6 / pairs.len() as f64,
        dij_time,
        dij_time.as_secs_f64() * 1e6 / pairs.len() as f64,
    );
    Ok(())
}
