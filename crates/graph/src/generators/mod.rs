//! Deterministic random-graph generators.
//!
//! The paper evaluates on five real networks (BTC, Web, as-Skitter,
//! wiki-Talk, Google) that are not redistributable here; [`crate::datasets`]
//! composes these generators into synthetic stand-ins matched on the
//! published structural statistics. Every generator takes an explicit seed
//! and is reproducible across runs and platforms.
//!
//! All generators produce simple graphs (no self-loops, no parallel edges —
//! the builders enforce this) and take a [`WeightModel`] describing how edge
//! weights are drawn.

mod barabasi_albert;
mod communities;
mod erdos_renyi;
mod grid;
mod rmat;
mod watts_strogatz;
mod weights;

pub use barabasi_albert::barabasi_albert;
pub use communities::clustered_communities;
pub use erdos_renyi::erdos_renyi_gnm;
pub use grid::grid2d;
pub use rmat::{rmat, RmatParams};
pub use watts_strogatz::watts_strogatz;
pub use weights::WeightModel;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::components::connected_components;

    #[test]
    fn all_generators_are_deterministic() {
        let a = barabasi_albert(500, 3, WeightModel::Unit, 7);
        let b = barabasi_albert(500, 3, WeightModel::Unit, 7);
        assert_eq!(a, b);

        let a = erdos_renyi_gnm(400, 900, WeightModel::UniformRange(1, 10), 3);
        let b = erdos_renyi_gnm(400, 900, WeightModel::UniformRange(1, 10), 3);
        assert_eq!(a, b);

        let p = RmatParams::default();
        let a = rmat(8, 4, p, WeightModel::Unit, 11);
        let b = rmat(8, 4, p, WeightModel::Unit, 11);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = erdos_renyi_gnm(400, 900, WeightModel::Unit, 1);
        let b = erdos_renyi_gnm(400, 900, WeightModel::Unit, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn ba_graph_is_connected() {
        let g = barabasi_albert(1000, 2, WeightModel::Unit, 42);
        let cc = connected_components(&g);
        assert_eq!(cc.num_components, 1);
    }

    #[test]
    fn weight_models_respected() {
        let g = erdos_renyi_gnm(200, 500, WeightModel::UniformRange(3, 5), 9);
        for (_, _, w) in g.edge_list() {
            assert!((3..=5).contains(&w));
        }
        let g = erdos_renyi_gnm(200, 500, WeightModel::Unit, 9);
        for (_, _, w) in g.edge_list() {
            assert_eq!(w, 1);
        }
    }
}
