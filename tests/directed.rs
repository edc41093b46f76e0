//! Directed-graph integration tests (Section 8.2): distances against
//! directed Dijkstra, reachability semantics, and structural properties of
//! the in/out labels.

use islabel::core::reference::di_dijkstra_p2p;
use islabel::core::{BuildConfig, DiIsLabelIndex, IsStrategy, KSelection};
use islabel::{CsrDigraph, DigraphBuilder, VertexId};
use rand::{rngs::StdRng, Rng, SeedableRng};

fn random_digraph(n: usize, m: usize, max_w: u32, seed: u64) -> CsrDigraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = DigraphBuilder::new(n);
    for _ in 0..m {
        let u = rng.gen_range(0..n as VertexId);
        let v = rng.gen_range(0..n as VertexId);
        if u != v {
            b.add_arc(u, v, rng.gen_range(1..=max_w));
        }
    }
    b.build()
}

/// A directed "web crawl": preferential attachment with mostly forward
/// links and some back links (the structure the paper's Web dataset came
/// from before its undirected conversion).
fn weblike_digraph(n: usize, seed: u64) -> CsrDigraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = DigraphBuilder::new(n);
    let mut urn: Vec<VertexId> = vec![0];
    for v in 1..n as VertexId {
        for _ in 0..3 {
            let t = urn[rng.gen_range(0..urn.len())];
            if t != v {
                b.add_arc(v, t, 1);
                urn.push(t);
            }
        }
        urn.push(v);
        if rng.gen_bool(0.2) {
            b.add_arc(rng.gen_range(0..v), v, 1);
        }
    }
    b.build()
}

#[test]
fn random_digraphs_match_dijkstra() {
    for seed in 0..3u64 {
        let g = random_digraph(200, 800, 9, seed);
        let index = DiIsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        for i in 0..120u32 {
            let (s, t) = ((i * 17) % 200, (i * 31 + 3) % 200);
            assert_eq!(
                index.try_distance(s, t),
                Ok(di_dijkstra_p2p(&g, s, t)),
                "seed {seed} ({s}, {t})"
            );
        }
    }
}

#[test]
fn weblike_digraph_matches_dijkstra_across_configs() {
    let g = weblike_digraph(500, 7);
    for config in [
        BuildConfig::default(),
        BuildConfig::full(),
        BuildConfig::fixed_k(4),
    ] {
        let index = DiIsLabelIndex::try_build(&g, config).unwrap();
        for i in 0..100u32 {
            let (s, t) = ((i * 13) % 500, (i * 101 + 1) % 500);
            assert_eq!(
                index.try_distance(s, t),
                Ok(di_dijkstra_p2p(&g, s, t)),
                "{:?} ({s}, {t})",
                config.k_selection
            );
        }
    }
}

#[test]
fn reachability_matches_bfs_closure() {
    let g = random_digraph(80, 160, 3, 11);
    let index = DiIsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
    for s in (0..80u32).step_by(7) {
        // Directed BFS closure as ground truth.
        let mut seen = [false; 80];
        let mut stack = vec![s];
        seen[s as usize] = true;
        while let Some(v) = stack.pop() {
            for (u, _) in g.out_edges(v) {
                if !seen[u as usize] {
                    seen[u as usize] = true;
                    stack.push(u);
                }
            }
        }
        for t in 0..80u32 {
            assert_eq!(index.reachable(s, t), Ok(seen[t as usize]), "({s}, {t})");
        }
    }
}

#[test]
fn undirected_graph_as_digraph_agrees_with_undirected_index() {
    // Encoding an undirected graph as symmetric arcs must give identical
    // answers to the undirected index.
    let ug = islabel::graph::generators::erdos_renyi_gnm(
        150,
        400,
        islabel::graph::generators::WeightModel::UniformRange(1, 6),
        13,
    );
    let mut b = DigraphBuilder::new(150);
    for (u, v, w) in ug.edge_list() {
        b.add_arc(u, v, w);
        b.add_arc(v, u, w);
    }
    let dg = b.build();
    let di = DiIsLabelIndex::try_build(&dg, BuildConfig::default()).unwrap();
    let ui = islabel::IsLabelIndex::try_build(&ug, BuildConfig::default()).unwrap();
    for i in 0..100u32 {
        let (s, t) = ((i * 7) % 150, (i * 11 + 5) % 150);
        assert_eq!(di.try_distance(s, t), ui.try_distance(s, t), "({s}, {t})");
    }
}

#[test]
fn symmetric_digraph_peels_the_undirected_levels() {
    // Both hierarchies run one IS selection, so on symmetric arcs — where
    // the directed degree is twice the undirected one and every neighbour
    // is listed twice — they peel the same levels for every strategy.
    // Under the σ rule k may differ: the directed size counts arcs twice.
    let ug = islabel::graph::generators::barabasi_albert(
        600,
        3,
        islabel::graph::generators::WeightModel::UniformRange(1, 9),
        5,
    );
    let mut b = DigraphBuilder::new(600);
    for (u, v, w) in ug.edge_list() {
        b.add_arc(u, v, w);
        b.add_arc(v, u, w);
    }
    let dg = b.build();
    for is_strategy in [
        IsStrategy::MinDegreeGreedy,
        IsStrategy::MaxDegreeGreedy,
        IsStrategy::Random(7),
    ] {
        for base in [BuildConfig::full(), BuildConfig::fixed_k(4)] {
            let config = BuildConfig {
                is_strategy,
                ..base
            };
            let di = DiIsLabelIndex::try_build(&dg, config).unwrap();
            let ui = islabel::IsLabelIndex::try_build(&ug, config).unwrap();
            let undirected = ui.hierarchy().levels();
            if config.k_selection == KSelection::Full {
                // The undirected build stops at its σ core and labels it;
                // the directed one peels on, the same sets up to there.
                assert_eq!(
                    di.levels()[..undirected.len()],
                    undirected[..],
                    "{is_strategy:?} Full"
                );
                continue;
            }
            assert_eq!(
                di.levels(),
                undirected,
                "{is_strategy:?} {:?}",
                config.k_selection
            );
            assert_eq!(di.k(), ui.hierarchy().k());
        }
    }
}

#[test]
fn level_partition_is_complete() {
    let g = weblike_digraph(300, 3);
    let index = DiIsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
    let peeled: usize = index.levels().iter().map(|l| l.len()).sum();
    let in_gk = (0..300u32).filter(|&v| index.is_in_gk(v)).count();
    assert_eq!(peeled + in_gk, 300);
}

#[test]
fn out_label_chains_ascend_levels() {
    let g = random_digraph(120, 500, 4, 21);
    let index = DiIsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
    for v in 0..120u32 {
        for &(to, _) in index.peel_out(v) {
            assert!(
                !index
                    .levels()
                    .iter()
                    .take(levels_of(&index, v) as usize)
                    .any(|l| l.contains(&to)),
                "peel-out target {to} of {v} is at a lower level"
            );
        }
    }
}

fn levels_of(index: &DiIsLabelIndex, v: VertexId) -> u32 {
    // Level of v = 1 + number of level sets before the one containing it.
    for (i, l) in index.levels().iter().enumerate() {
        if l.binary_search(&v).is_ok() {
            return i as u32 + 1;
        }
    }
    index.k()
}
