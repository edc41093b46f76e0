//! Randomized differential test: three independent oracles must agree.
//!
//! IS-LABEL answers every point-to-point query by intersecting labels and
//! finishing in the residual graph `G_k`; bidirectional Dijkstra searches
//! the graph directly; Pruned Landmark Labeling is an unrelated 2-hop
//! scheme. The three share no code paths beyond the graph itself, so
//! pairwise agreement over many random queries on structurally different
//! graphs (Erdős–Rényi, 2-D grid, Barabási–Albert) is strong evidence of
//! correctness. Everything is seeded: a failure reproduces exactly.

use islabel::baselines::{BiDijkstra, PllIndex};
use islabel::core::{BuildConfig, IsLabelIndex};
use islabel::graph::generators::{barabasi_albert, erdos_renyi_gnm, grid2d, WeightModel};
use islabel::CsrGraph;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Queries per (graph, config) combination. 4 graphs x 2 configs x 128
/// queries x 3 oracles ≈ 3k cross-checked answers per run.
const QUERIES: usize = 128;

fn crosscheck(name: &str, g: &CsrGraph, config: BuildConfig, seed: u64) {
    let index = IsLabelIndex::try_build(g, config).unwrap();
    let pll = PllIndex::build(g);
    let mut bidij = BiDijkstra::new(g.num_vertices());

    let n = g.num_vertices() as u32;
    let mut rng = StdRng::seed_from_u64(seed);
    for q in 0..QUERIES {
        let s = rng.gen_range(0..n);
        let t = rng.gen_range(0..n);
        let via_label = index.try_distance(s, t).unwrap();
        let via_dijkstra = bidij.distance(g, s, t);
        let via_pll = pll.try_distance(s, t).unwrap();
        assert_eq!(
            via_label, via_dijkstra,
            "{name}: IS-LABEL vs bi-Dijkstra disagree on query #{q} ({s}, {t})"
        );
        assert_eq!(
            via_dijkstra, via_pll,
            "{name}: bi-Dijkstra vs PLL disagree on query #{q} ({s}, {t})"
        );
    }
}

fn configs() -> [(&'static str, BuildConfig); 2] {
    [
        ("default", BuildConfig::default()),
        ("full", BuildConfig::full()),
    ]
}

#[test]
fn erdos_renyi_sparse() {
    // Just above the connectivity threshold: many unreachable pairs, so the
    // None-vs-Some paths of all three oracles get exercised too.
    let g = erdos_renyi_gnm(400, 700, WeightModel::UniformRange(1, 9), 0xE5);
    for (cname, config) in configs() {
        crosscheck(&format!("er-sparse/{cname}"), &g, config, 0x5EED_0001);
    }
}

#[test]
fn erdos_renyi_dense() {
    let g = erdos_renyi_gnm(250, 2_000, WeightModel::UniformRange(1, 20), 0xE6);
    for (cname, config) in configs() {
        crosscheck(&format!("er-dense/{cname}"), &g, config, 0x5EED_0002);
    }
}

#[test]
fn grid_road_like() {
    // Grids have large diameter and no hubs — the opposite regime from BA;
    // label-seeded search must fall through to the residual graph often.
    let g = grid2d(20, 24, WeightModel::UniformRange(1, 4), 0xE7);
    for (cname, config) in configs() {
        crosscheck(&format!("grid/{cname}"), &g, config, 0x5EED_0003);
    }
}

#[test]
fn barabasi_albert_scale_free() {
    let g = barabasi_albert(500, 3, WeightModel::Unit, 0xE8);
    for (cname, config) in configs() {
        crosscheck(&format!("ba/{cname}"), &g, config, 0x5EED_0004);
    }
}

#[test]
fn small_k_forces_residual_search() {
    // A tiny fixed k leaves most vertices in G_k, stressing Algorithm 1's
    // label-seeded bidirectional search rather than pure label intersection.
    let g = erdos_renyi_gnm(300, 900, WeightModel::UniformRange(1, 7), 0xE9);
    crosscheck("er/k=2", &g, BuildConfig::fixed_k(2), 0x5EED_0005);
    crosscheck("er/k=4", &g, BuildConfig::fixed_k(4), 0x5EED_0006);
}
