//! Dynamic-update integration tests (Section 8.3): long interleaved update
//! sequences, the upper-bound contract, and rebuild reconciliation.

use islabel::core::reference::dijkstra_p2p;
use islabel::core::{BuildConfig, IsLabelIndex};
use islabel::graph::generators::{barabasi_albert, WeightModel};
use islabel::VertexId;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// After arbitrary updates (no deletions of peeled vertices), answers must
/// be upper bounds of the truth on the materialized current graph; after
/// rebuild they must be exact.
#[test]
fn long_update_sequence_upper_bound_then_exact() {
    let g = barabasi_albert(300, 3, WeightModel::UniformRange(1, 5), 17);
    let mut index = IsLabelIndex::build(&g, BuildConfig::default());
    let mut rng = StdRng::seed_from_u64(5);

    // 30 mixed updates: vertex inserts (attached anywhere), edge inserts,
    // and deletions restricted to G_k / inserted vertices (exact cases).
    for step in 0..30 {
        match step % 3 {
            0 => {
                let a = rng.gen_range(0..index.num_vertices() as VertexId);
                let b = rng.gen_range(0..index.num_vertices() as VertexId);
                let edges: Vec<(VertexId, u32)> = [a, b]
                    .iter()
                    .filter(|&&v| !deleted(&index, v))
                    .map(|&v| (v, rng.gen_range(1..5)))
                    .collect();
                if !edges.is_empty() {
                    index.try_insert_vertex(&edges).unwrap();
                }
            }
            1 => {
                let a = rng.gen_range(0..index.num_vertices() as VertexId);
                let b = rng.gen_range(0..index.num_vertices() as VertexId);
                if a != b && !deleted(&index, a) && !deleted(&index, b) {
                    index.try_insert_edge(a, b, rng.gen_range(1..8)).unwrap();
                }
            }
            _ => {
                // Delete only residual-graph members: stays exact per the
                // documented semantics.
                let members = index.hierarchy().gk_members().to_vec();
                if let Some(&v) = members.get(rng.gen_range(0..members.len().max(1))) {
                    if !deleted(&index, v) {
                        index.try_delete_vertex(v).unwrap();
                    }
                }
            }
        }
    }
    assert!(!index.is_stale(), "no peeled vertex was deleted");

    let current = index.current_graph();
    let mut upper_bound_hits = 0;
    for i in 0..150u32 {
        let s = (i * 37) % current.num_vertices() as VertexId;
        let t = (i * 101 + 3) % current.num_vertices() as VertexId;
        if deleted(&index, s) || deleted(&index, t) {
            assert_eq!(
                index.try_distance(s, t),
                Ok(None),
                "deleted endpoint ({s}, {t})"
            );
            continue;
        }
        let truth = dijkstra_p2p(&current, s, t);
        match (index.try_distance(s, t).unwrap(), truth) {
            (Some(got), Some(want)) => {
                assert!(got >= want, "({s}, {t}): {got} < true {want}");
                upper_bound_hits += 1;
            }
            (Some(_), None) => panic!("({s}, {t}): distance reported for unreachable pair"),
            _ => {}
        }
    }
    assert!(
        upper_bound_hits > 0,
        "workload produced no comparable queries"
    );

    index.rebuild();
    let current = index.current_graph();
    for i in 0..150u32 {
        let s = (i * 37) % current.num_vertices() as VertexId;
        let t = (i * 101 + 3) % current.num_vertices() as VertexId;
        if deleted_after_rebuild(&current, s) || deleted_after_rebuild(&current, t) {
            continue;
        }
        assert_eq!(
            index.try_distance(s, t),
            Ok(dijkstra_p2p(&current, s, t)),
            "post-rebuild ({s}, {t})"
        );
    }
}

fn deleted(index: &IsLabelIndex, v: VertexId) -> bool {
    index.try_distance(v, v).unwrap().is_none()
}

fn deleted_after_rebuild(g: &islabel::CsrGraph, v: VertexId) -> bool {
    // After rebuild, tombstoned vertices survive as isolated ids.
    g.degree(v) == 0
}

#[test]
fn growth_only_workload_stays_connected_and_exact_for_gk_chains() {
    // Simulates a stream of new arrivals each linking to a residual vertex:
    // queries among the new vertices go exclusively through G_k and remain
    // exact without any rebuild.
    let g = barabasi_albert(200, 3, WeightModel::Unit, 3);
    let mut index = IsLabelIndex::build(&g, BuildConfig::default());
    let anchor = index.hierarchy().gk_members()[0];
    let mut ids = vec![anchor];
    for i in 0..15 {
        let parent = ids[i / 2];
        let v = index.try_insert_vertex(&[(parent, 1)]).unwrap();
        ids.push(v);
    }
    let current = index.current_graph();
    for (i, &a) in ids.iter().enumerate() {
        for &b in ids.iter().skip(i) {
            assert_eq!(
                index.try_distance(a, b),
                Ok(dijkstra_p2p(&current, a, b)),
                "({a}, {b})"
            );
        }
    }
}

#[test]
fn stale_flag_reports_and_clears() {
    let g = barabasi_albert(120, 2, WeightModel::Unit, 9);
    let mut index = IsLabelIndex::build(&g, BuildConfig::default());
    let peeled = (0..120u32).find(|&v| !index.is_in_gk(v)).unwrap();
    let other = if peeled == 0 { 1 } else { 0 };
    assert!(!index.is_stale());
    index.try_delete_vertex(peeled).unwrap();
    assert!(index.is_stale());
    index.rebuild();
    assert!(!index.is_stale());
    // The deleted vertex stays deleted (isolated) through the rebuild.
    assert_eq!(index.try_distance(peeled, other), Ok(None));
}
