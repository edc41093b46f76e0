//! Dynamic update maintenance (paper Section 8.3): lazy insertions and
//! deletions with periodic rebuild.
//!
//! ```sh
//! cargo run --release --example dynamic_updates
//! ```

use islabel::core::{BuildConfig, Error};
use islabel::graph::generators::{barabasi_albert, WeightModel};
use islabel::IsLabelIndex;

fn main() -> Result<(), Error> {
    let graph = barabasi_albert(5_000, 3, WeightModel::Unit, 11);
    let mut index = IsLabelIndex::try_build(&graph, BuildConfig::default())?;
    println!("initial index: {}", index.stats());

    // A new member joins and connects to two existing vertices.
    let friend_a = 42u32;
    let friend_b = 4_999u32;
    let newcomer = index.try_insert_vertex(&[(friend_a, 1), (friend_b, 1)])?;
    println!("\ninserted vertex {newcomer} with edges to {friend_a} and {friend_b}");
    println!(
        "dist({newcomer}, {friend_a})      = {:?}",
        index.try_distance(newcomer, friend_a)?
    );
    println!(
        "dist({newcomer}, {friend_b})    = {:?}",
        index.try_distance(newcomer, friend_b)?
    );
    println!(
        "dist({newcomer}, 0)       = {:?}  (upper bound until rebuild)",
        index.try_distance(newcomer, 0)?
    );

    // A new relationship between existing members.
    index.try_insert_edge(7, 4_998, 1)?;
    println!(
        "\ninserted edge (7, 4998): dist(7, 4998) = {:?}",
        index.try_distance(7, 4_998)?
    );

    // A member leaves.
    index.try_delete_vertex(friend_a)?;
    println!("\ndeleted vertex {friend_a}:");
    println!(
        "  dist({newcomer}, {friend_a}) = {:?} (deleted endpoints answer None)",
        index.try_distance(newcomer, friend_a)?
    );
    println!(
        "  index stale? {} (deleting a peeled vertex leaves stale shortcuts)",
        index.is_stale()
    );

    // Periodic rebuild restores exactness, as the paper prescribes.
    index.rebuild();
    println!("\nafter rebuild: {}", index.stats());
    println!(
        "  stale? {}   dist({newcomer}, 0) = {:?}",
        index.is_stale(),
        index.try_distance(newcomer, 0)?
    );
    Ok(())
}
