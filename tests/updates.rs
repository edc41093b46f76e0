//! Dynamic-update integration tests (Section 8.3): long interleaved update
//! sequences, the upper-bound contract, and rebuild reconciliation.

mod common;

use common::TempDir;
use islabel::core::reference::dijkstra_p2p;
use islabel::core::{BuildConfig, Error, IsLabelIndex, OverlayStats};
use islabel::graph::generators::{barabasi_albert, WeightModel};
use islabel::VertexId;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// After arbitrary updates (no deletions of peeled vertices), answers must
/// be upper bounds of the truth on the materialized current graph; after
/// rebuild they must be exact.
#[test]
fn long_update_sequence_upper_bound_then_exact() {
    let g = barabasi_albert(300, 3, WeightModel::UniformRange(1, 5), 17);
    let mut index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
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
    let mut index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
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
    let mut index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
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

/// An insertion whose quick bound check fails — twice the largest label
/// distance plus twice its weight past `u32::MAX` — is first applied to a
/// copy of the overlay; `overlay_stats` counts each such check, accepted or
/// refused, and no other op.
#[test]
fn heavy_insertions_are_counted_as_slow_fit_checks() {
    let g = barabasi_albert(200, 2, WeightModel::UniformRange(1, 5), 3);
    let mut index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
    let slow = |index: &IsLabelIndex| index.overlay_stats().slow_fit_checks;
    index.try_insert_edge(0, 1, 7).unwrap();
    index.try_insert_vertex(&[(2, 3), (3, 4)]).unwrap();
    index.try_delete_vertex(4).unwrap();
    assert_eq!(slow(&index), 0);

    // 2 · (u32::MAX / 2) is u32::MAX − 1, and every label distance is at
    // least 1 away from the self entry: past the quick bound, yet the
    // patched values fit, so both ops are applied.
    let heavy = u32::MAX / 2;
    index.try_insert_edge(5, 6, heavy).unwrap();
    assert_eq!(slow(&index), 1);
    index.try_insert_vertex(&[(7, heavy - 1), (8, 2)]).unwrap();
    assert_eq!(slow(&index), 2);
    // The trial is paid whatever its outcome (refusals: see below).
    index.try_insert_edge(5, 9, u32::MAX).unwrap();
    assert_eq!(slow(&index), 3);
    index.try_insert_edge(10, 11, 1).unwrap();
    assert_eq!(slow(&index), 3);
    let current = index.current_graph();
    for (s, t) in [(5, 6), (0, 1), (7, 8), (10, 11), (12, 150)] {
        assert_eq!(
            index.try_distance(s, t).unwrap(),
            dijkstra_p2p(&current, s, t)
        );
    }
}

/// Label patches store u32 distances, as the base labels do: an insertion
/// whose patched entry would pass `u32::MAX` is refused before it is
/// logged, and one whose entries fit is applied, however heavy its edge.
#[test]
fn insertions_past_the_label_width_are_refused_unlogged() {
    let dir = TempDir::new("updates-width");
    let wal_path = dir.join("i.wal");
    let g = barabasi_albert(200, 2, WeightModel::UniformRange(1, 5), 3);
    let mut index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
    index.attach_wal(&wal_path).unwrap();
    // Two peeled endpoints, `a` a descendant of `b`, and `b`'s label holds
    // an ancestor at distance ≥ 1: an edge at `u32::MAX` teaches `a` that
    // ancestor past the width, and a new vertex hung off `b` at `u32::MAX`
    // is taught to `a` past it.
    let peeled = |v: VertexId| !index.is_in_gk(v);
    let (a, b) = (0..200)
        .filter(|&c| peeled(c))
        .find_map(|c| {
            let label = index.labels().label(c);
            let mut up = label.ancestors.iter().copied();
            up.find(|&x| x != c && peeled(x) && index.labels().label(x).len() > 1)
                .map(|x| (c, x))
        })
        .expect("a peeled vertex with a peeled ancestor");
    let top = index.hierarchy().gk_members()[0];
    index.try_insert_vertex(&[(top, 2)]).unwrap();
    let (stats, ops) = (index.overlay_stats(), index.pending_ops());
    let wal_len = std::fs::metadata(&wal_path).unwrap().len();

    let refused = index.try_insert_edge(a, b, u32::MAX);
    assert!(
        matches!(refused, Err(Error::InvalidUpdate(_))),
        "{refused:?}"
    );
    let refused = index.try_insert_vertex(&[(a, 1), (b, u32::MAX)]);
    assert!(
        matches!(refused, Err(Error::InvalidUpdate(_))),
        "{refused:?}"
    );
    // Both refusals were tried on a copy of the overlay (and counted);
    // nothing else moved.
    let tried = OverlayStats {
        slow_fit_checks: stats.slow_fit_checks + 2,
        ..stats
    };
    assert_eq!(index.overlay_stats(), tried);
    assert_eq!(index.pending_ops(), ops);
    assert_eq!(std::fs::metadata(&wal_path).unwrap().len(), wal_len);

    // 3 · 10⁹ plus the short labels here still fits: applied and logged,
    // and the useless edge changes no answer.
    index.try_insert_edge(a, b, 3_000_000_000).unwrap();
    assert_eq!(index.pending_ops(), ops + 1);
    assert!(std::fs::metadata(&wal_path).unwrap().len() > wal_len);
    let current = index.current_graph();
    for s in [a, b, 0, 17] {
        for t in [a, b, 5, 150] {
            assert_eq!(
                index.try_distance(s, t).unwrap(),
                dijkstra_p2p(&current, s, t),
                "({s}, {t})"
            );
        }
    }
}
