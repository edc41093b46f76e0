//! Query workload generation.
//!
//! The paper evaluates with "1000 randomly generated queries" per dataset
//! (Section 7.2), and Table 5 additionally needs pools restricted by query
//! type (both/one/neither endpoint in `G_k`).

use islabel_core::{IsLabelIndex, QueryType};
use islabel_graph::VertexId;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A list of query pairs.
#[derive(Debug, Clone)]
pub struct QueryWorkload {
    /// `(s, t)` pairs.
    pub pairs: Vec<(VertexId, VertexId)>,
}

impl QueryWorkload {
    /// `count` uniform random pairs over `0..n` (the paper's workload).
    pub fn random(n: usize, count: usize, seed: u64) -> Self {
        assert!(n >= 2, "need at least two vertices");
        let mut rng = StdRng::seed_from_u64(seed);
        let pairs = (0..count)
            .map(|_| {
                let s = rng.gen_range(0..n as VertexId);
                let mut t = rng.gen_range(0..n as VertexId);
                while t == s {
                    t = rng.gen_range(0..n as VertexId);
                }
                (s, t)
            })
            .collect();
        Self { pairs }
    }

    /// `count` random pairs of a specific Table 5 query type, sampled with
    /// rejection against the index's searched `G_k`
    /// ([`IsLabelIndex::is_in_gk`]). Returns `None` when the type is
    /// unrealizable (e.g. `G_k` has fewer than 2 vertices, or the index is
    /// label-only and searches none).
    pub fn of_type(
        index: &IsLabelIndex,
        qtype: QueryType,
        count: usize,
        seed: u64,
    ) -> Option<Self> {
        let n = index.num_vertices();
        let (gk, non_gk): (Vec<VertexId>, Vec<VertexId>) =
            (0..n as VertexId).partition(|&v| index.is_in_gk(v));
        let feasible = match qtype {
            QueryType::BothInGk => gk.len() >= 2,
            QueryType::OneInGk => !gk.is_empty() && !non_gk.is_empty(),
            QueryType::NeitherInGk => non_gk.len() >= 2,
        };
        if !feasible {
            return None;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let pick = |pool: &[VertexId], rng: &mut StdRng| pool[rng.gen_range(0..pool.len())];
        let pairs = (0..count)
            .map(|_| loop {
                let (s, t) = match qtype {
                    QueryType::BothInGk => (pick(&gk, &mut rng), pick(&gk, &mut rng)),
                    QueryType::OneInGk => (pick(&gk, &mut rng), pick(&non_gk, &mut rng)),
                    QueryType::NeitherInGk => (pick(&non_gk, &mut rng), pick(&non_gk, &mut rng)),
                };
                if s != t {
                    break (s, t);
                }
            })
            .collect();
        Some(Self { pairs })
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use islabel_core::BuildConfig;
    use islabel_graph::generators::{barabasi_albert, WeightModel};

    #[test]
    fn random_workload_is_deterministic_and_valid() {
        let a = QueryWorkload::random(100, 50, 7);
        let b = QueryWorkload::random(100, 50, 7);
        assert_eq!(a.pairs, b.pairs);
        assert_eq!(a.len(), 50);
        for &(s, t) in &a.pairs {
            assert!(s < 100 && t < 100 && s != t);
        }
    }

    #[test]
    fn typed_workloads_respect_membership() {
        let g = barabasi_albert(300, 4, WeightModel::Unit, 3);
        let index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        assert!(index.stats().gk_vertices >= 2, "need a residual graph");
        for qtype in [
            QueryType::BothInGk,
            QueryType::OneInGk,
            QueryType::NeitherInGk,
        ] {
            let w = QueryWorkload::of_type(&index, qtype, 30, 1).unwrap();
            for &(s, t) in &w.pairs {
                assert_eq!(index.query_type(s, t), qtype, "({s}, {t})");
            }
        }
    }

    #[test]
    fn infeasible_type_returns_none() {
        // A label-only index keeps a core G_k but searches none of it, so
        // every query is NeitherInGk and BothInGk is unrealizable.
        let g = barabasi_albert(300, 4, WeightModel::Unit, 3);
        let index = IsLabelIndex::try_build(&g, BuildConfig::full()).unwrap();
        assert!(index.hierarchy().num_gk_vertices() >= 2, "the core is kept");
        assert!(QueryWorkload::of_type(&index, QueryType::BothInGk, 5, 1).is_none());
        assert!(QueryWorkload::of_type(&index, QueryType::OneInGk, 5, 1).is_none());
        assert!(QueryWorkload::of_type(&index, QueryType::NeitherInGk, 5, 1).is_some());
    }
}
