//! Erdős–Rényi random graphs, G(n, m).

use super::WeightModel;
use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::ids::VertexId;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// G(n, m): exactly `m` distinct uniform random edges (or as many as the
/// simple graph admits).
///
/// Sampling is rejection-based over the builder's dedup, which is efficient
/// for the sparse graphs this project targets (`m ≪ n²`).
pub fn erdos_renyi_gnm(n: usize, m: usize, weights: WeightModel, seed: u64) -> CsrGraph {
    assert!(
        n >= 2 || m == 0,
        "need at least two vertices to place edges"
    );
    let max_edges = n.saturating_mul(n.saturating_sub(1)) / 2;
    let m = m.min(max_edges);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    b.reserve(m);
    let mut seen = crate::hash::FxHashSet::default();
    seen.reserve(m);
    while seen.len() < m {
        let u = rng.gen_range(0..n as VertexId);
        let v = rng.gen_range(0..n as VertexId);
        if u == v {
            continue;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if seen.insert(key) {
            b.add_edge(u, v, weights.sample(&mut rng));
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gnm_produces_requested_edge_count() {
        let g = erdos_renyi_gnm(100, 300, WeightModel::Unit, 5);
        assert_eq!(g.num_vertices(), 100);
        assert_eq!(g.num_edges(), 300);
    }

    #[test]
    fn gnm_clamps_to_complete_graph() {
        let g = erdos_renyi_gnm(5, 1000, WeightModel::Unit, 5);
        assert_eq!(g.num_edges(), 10);
    }
}
