//! Disk-resident querying with counted I/O (paper Sections 6.2 and 7.2).
//!
//! Stores the vertex labels on real disk files, answers queries with one
//! positioned read per non-residual endpoint, and reports both measured
//! time and the paper-style modeled I/O time (10 ms per seek — how the
//! paper's Table 4 attributes Time (a) to its 7200 RPM disk).
//!
//! ```sh
//! cargo run --release --example external_memory
//! ```

use islabel::core::disklabel::{DiskLabelStore, FetchedLabel};
use islabel::core::{BuildConfig, Error};
use islabel::extmem::storage::Storage;
use islabel::extmem::{DirStorage, IoCostModel};
use islabel::graph::{Dataset, Scale};
use islabel::IsLabelIndex;
use std::time::Instant;

fn main() -> Result<(), Error> {
    let graph = Dataset::BtcLike.generate(Scale::Small);
    println!(
        "BTC-like graph: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    );
    let index = IsLabelIndex::try_build(&graph, BuildConfig::default())?;
    println!("index: {}", index.stats());

    // Real files under a temp directory, every byte counted.
    let dir = std::env::temp_dir().join(format!("islabel-example-{}", std::process::id()));
    let storage = DirStorage::new(&dir)?;
    let store = DiskLabelStore::write(&storage, "labels", index.labels())?;
    println!(
        "wrote {} labels ({} bytes) to {}",
        store.num_vertices(),
        store.data_bytes(),
        dir.display()
    );

    let cost = IoCostModel::default();
    let stats = storage.stats();
    stats.reset();

    let queries: Vec<(u32, u32)> = (0..200u32)
        .map(|i| {
            (
                (i * 131) % graph.num_vertices() as u32,
                (i * 4099 + 5) % graph.num_vertices() as u32,
            )
        })
        .collect();

    let t0 = Instant::now();
    let mut answered = 0usize;
    let (mut bs, mut bt) = (FetchedLabel::default(), FetchedLabel::default());
    for &(s, t) in &queries {
        let ls = store.fetch(&storage, s, &mut bs)?;
        let lt = store.fetch(&storage, t, &mut bt)?;
        if index.try_distance_from_labels(ls, lt)?.is_some() {
            answered += 1;
        }
    }
    let wall = t0.elapsed();
    let snap = stats.snapshot();
    println!("\n{answered}/{} queries answered", queries.len());
    println!(
        "I/O: {} seeks, {} bytes read  (measured wall {:.2?}, modeled disk {:.2?})",
        snap.seeks,
        snap.bytes_read,
        wall,
        cost.modeled_time(&snap),
    );
    println!(
        "modeled Time (a) per query: {:.2?}  — the paper's ~20 ms for two label fetches",
        cost.modeled_time(&snap) / queries.len() as u32
    );

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
