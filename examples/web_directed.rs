//! Directed web-graph querying (paper Section 8.2): in/out labels,
//! asymmetric distances, and reachability for free.
//!
//! ```sh
//! cargo run --release --example web_directed
//! ```

use islabel::core::{BuildConfig, Error};
use islabel::{DiIsLabelIndex, DigraphBuilder};
use rand::{rngs::StdRng, Rng, SeedableRng};

fn main() -> Result<(), Error> {
    // A synthetic "web": hyperlinks are directed, popular pages attract
    // links (preferential attachment on the in-degree side), plus a sparse
    // back-link layer.
    let n = 20_000usize;
    let mut rng = StdRng::seed_from_u64(99);
    let mut b = DigraphBuilder::new(n);
    let mut urn: Vec<u32> = vec![0];
    for v in 1..n as u32 {
        for _ in 0..3 {
            let target = urn[rng.gen_range(0..urn.len())];
            if target != v {
                b.add_arc(v, target, 1);
                urn.push(target);
            }
        }
        urn.push(v);
        // Occasional reverse link.
        if rng.gen_bool(0.15) {
            let back = rng.gen_range(0..v);
            b.add_arc(back, v, 1);
        }
    }
    let web = b.build();
    println!(
        "web graph: {} pages, {} hyperlinks",
        web.num_vertices(),
        web.num_arcs()
    );

    let index = DiIsLabelIndex::try_build(&web, BuildConfig::default())?;
    println!("directed index: {}", index.stats());

    let mut reachable = 0usize;
    let mut asym = 0usize;
    let samples = 500;
    for _ in 0..samples {
        let s = rng.gen_range(0..n as u32);
        let t = rng.gen_range(0..n as u32);
        let fwd = index.try_distance(s, t)?;
        let bwd = index.try_distance(t, s)?;
        if fwd.is_some() {
            reachable += 1;
        }
        if fwd != bwd {
            asym += 1;
        }
    }
    println!("{reachable}/{samples} random (s, t) pairs are s → t reachable");
    println!("{asym}/{samples} pairs have asymmetric distances (dist(s,t) ≠ dist(t,s))");

    // Reachability is answered by the same index (paper Section 9).
    let (s, t) = (5u32, 17u32);
    println!(
        "page {s} {} reach page {t} (dist = {:?})",
        if index.reachable(s, t)? {
            "can"
        } else {
            "cannot"
        },
        index.try_distance(s, t)?
    );
    Ok(())
}
