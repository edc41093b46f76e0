//! Conformance suite for the search kernel (`islabel_core::dense`): every
//! answer it gives — through sessions of both IS-LABEL directions, driven
//! by hand from the public parts, behind every oracle engine, and over a
//! dynamic-update overlay — is held to reference Dijkstra across ER / BA /
//! grid graphs and hierarchy depths.

use islabel::core::dense::{dense_bi_dijkstra, globalize_outcome, DenseScratch};
use islabel::core::label::LabelView;
use islabel::core::query::intersect_min;
use islabel::core::reference::{di_dijkstra_p2p, dijkstra_p2p};
use islabel::graph::generators::{barabasi_albert, erdos_renyi_gnm, grid2d, WeightModel};
use islabel::prelude::*;

fn test_graphs() -> Vec<(&'static str, CsrGraph)> {
    vec![
        (
            "er",
            erdos_renyi_gnm(400, 1100, WeightModel::UniformRange(1, 9), 11),
        ),
        (
            "ba",
            barabasi_albert(400, 3, WeightModel::UniformRange(1, 5), 7),
        ),
        ("grid", grid2d(20, 20, WeightModel::UniformRange(1, 4), 3)),
    ]
}

fn query_pairs(n: u32, count: u32) -> impl Iterator<Item = (VertexId, VertexId)> {
    (0..count).map(move |i| ((i * 7) % n, (i * 13 + 5) % n))
}

#[test]
fn dense_kernel_matches_reference_across_graphs_and_configs() {
    for (name, g) in test_graphs() {
        for config in [
            BuildConfig::default(),
            BuildConfig::fixed_k(3),
            BuildConfig::sigma(0.5),
        ] {
            let index = IsLabelIndex::try_build(&g, config).unwrap();
            let mut session = index.session();
            for (s, t) in query_pairs(g.num_vertices() as u32, 120) {
                if s == t {
                    continue;
                }
                let out = session.search_outcome(s, t).unwrap();
                let truth = dijkstra_p2p(&g, s, t).unwrap_or(INF);
                assert_eq!(out.dist, truth, "{name} {config:?} ({s}, {t})");
            }
        }
    }
}

fn random_digraph() -> islabel::graph::CsrDigraph {
    let mut b = DigraphBuilder::new(300);
    let mut state = 0xD1CEu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..1200 {
        let u = (next() % 300) as VertexId;
        let v = (next() % 300) as VertexId;
        if u != v {
            b.add_arc(u, v, (next() % 6 + 1) as Weight);
        }
    }
    b.build()
}

#[test]
fn dense_kernel_matches_reference_on_directed_graphs() {
    // Directed conformance: the session (forward and transposed compact
    // CSRs) against directed Dijkstra.
    let g = random_digraph();
    let index = DiIsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
    let mut session = index.session();
    for (s, t) in query_pairs(300, 150) {
        let expect = di_dijkstra_p2p(&g, s, t);
        assert_eq!(session.distance(s, t).unwrap(), expect, "({s}, {t})");
    }
}

#[test]
fn dense_kernel_drivable_from_public_parts() {
    // The substrate accessors are enough to drive the dense kernel by hand
    // (what benches do): seeds mapped through GkIdMap, outcome globalized.
    let g = erdos_renyi_gnm(300, 800, WeightModel::UniformRange(1, 7), 23);
    let index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
    let dense = index.dense_gk();
    assert_eq!(dense.ids().len(), index.hierarchy().num_gk_vertices());
    let mut scratch = DenseScratch::new(dense.ids().len());
    let mut session = index.session();
    for (s, t) in query_pairs(300, 60) {
        if s == t {
            continue;
        }
        let ls = index.labels().label(s);
        let lt = index.labels().label(t);
        let (mu0, witness) = intersect_min(ls, lt);
        let seed = |l: LabelView<'_>| -> Vec<(u32, Dist)> {
            l.iter()
                .filter_map(|(a, d)| dense.ids().dense(a).map(|da| (da, d)))
                .collect()
        };
        let out = globalize_outcome(
            dense_bi_dijkstra(
                dense.fwd(),
                dense.rev(),
                &seed(ls),
                &seed(lt),
                mu0,
                witness,
                &mut scratch,
            ),
            dense.ids(),
        );
        assert_eq!(
            out.dist,
            dijkstra_p2p(&g, s, t).unwrap_or(INF),
            "({s}, {t})"
        );
        // And the session does nothing the public parts cannot.
        assert_eq!(out, session.search_outcome(s, t).unwrap(), "({s}, {t})");
    }
}

#[test]
fn all_engines_agree_through_sessions() {
    // Every DistanceOracle engine — IS-LABEL and di-IS-LABEL on the dense
    // kernel, bidij and VC on the shared indexed heap, PLL untouched —
    // answers identically to plain Dijkstra through its session.

    for (name, g) in test_graphs() {
        let config = BuildConfig::default();
        for engine in [
            Engine::IsLabel,
            Engine::DiIsLabel,
            Engine::Pll,
            Engine::Vc,
            Engine::BiDijkstra,
        ] {
            let oracle = build_oracle(engine, &g, &config).unwrap();
            let mut session = oracle.session();
            for (s, t) in query_pairs(g.num_vertices() as u32, 80) {
                let expect = dijkstra_p2p(&g, s, t);
                assert_eq!(
                    session.distance(s, t).unwrap(),
                    expect,
                    "{name} {engine:?} ({s}, {t})"
                );
            }
        }
    }
}

#[test]
fn overlay_session_keeps_the_lazy_update_contract() {
    // A non-pristine index serves through the same kernel over a
    // `PatchedDense` view (tail + tombstones), with the documented
    // upper-bound semantics; rebuild() returns to the pristine view
    // (exact).
    let g = barabasi_albert(250, 3, WeightModel::UniformRange(1, 4), 31);
    let mut index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
    let gk_anchor = index.hierarchy().gk_members()[0];
    let peeled = g.vertices().find(|&v| !index.is_in_gk(v)).unwrap();
    let u = index
        .try_insert_vertex(&[(gk_anchor, 2), (peeled, 1)])
        .unwrap();
    index.try_insert_edge(u, gk_anchor, 5).unwrap();
    let victim = index.hierarchy().gk_members()[1];
    index.try_delete_vertex(victim).unwrap();
    assert!(index.has_updates());

    let current = index.current_graph();
    let mut session = index.session();
    for (s, t) in query_pairs(250, 60).chain([(u, gk_anchor), (u, peeled), (victim, 0)]) {
        let via_session = session.distance(s, t).unwrap();
        // Upper-bound contract against the materialized graph.
        let truth = dijkstra_p2p(&current, s, t);
        match (via_session, truth) {
            (Some(got), Some(tr)) => assert!(got >= tr, "({s}, {t}): {got} < {tr}"),
            (Some(_), None) => panic!("({s}, {t}): distance for unreachable pair"),
            _ => {}
        }
    }
    drop(session);

    index.rebuild();
    let current = index.current_graph();
    let mut session = index.session();
    for (s, t) in query_pairs(250, 60) {
        assert_eq!(
            session.distance(s, t).unwrap(),
            dijkstra_p2p(&current, s, t),
            "post-rebuild ({s}, {t})"
        );
    }
}

/// Answers `pairs` on one session with phase tracing on, then off: the
/// answers must be equal and the trace must stand still while off.
fn assert_tracing_is_invisible<S: QuerySession + ?Sized, A: PartialEq + std::fmt::Debug>(
    what: &str,
    session: &mut S,
    n: u32,
    mut answer: impl FnMut(&mut S, VertexId, VertexId) -> A,
) {
    let mut run = |session: &mut S| -> Vec<A> {
        query_pairs(n, 80)
            .map(|(s, t)| answer(session, s, t))
            .collect()
    };
    let traced = run(session);
    let before = session.trace().expect("session traces").clone();
    assert!(before.enabled && before.queries > 0, "{what}");
    session.trace_mut().expect("session traces").enabled = false;
    assert_eq!(run(session), traced, "{what}: tracing changed an answer");
    let after = session.trace().expect("session traces");
    assert_eq!(after.queries, before.queries, "{what}: traced while off");
    assert_eq!(after.last, before.last, "{what}: traced while off");
}

#[test]
fn answers_do_not_depend_on_phase_tracing() {
    let g = barabasi_albert(250, 3, WeightModel::UniformRange(1, 4), 31);
    let mut index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
    let outcome = |session: &mut islabel::core::IsLabelSession<'_>, s, t| {
        session.search_outcome(s, t).unwrap()
    };
    assert_tracing_is_invisible("heap", &mut index.session(), 250, outcome);

    let image = islabel::core::persist::v3::write_index(&index, std::io::Cursor::new(Vec::new()))
        .unwrap()
        .into_inner();
    let mapped = MmapIndex::from_bytes(image).unwrap();
    assert_tracing_is_invisible("mmap", &mut mapped.session(), 250, |session, s, t| {
        session.distance(s, t).unwrap()
    });

    let u = index
        .try_insert_vertex(&[(index.hierarchy().gk_members()[0], 2), (7, 1)])
        .unwrap();
    index.try_insert_edge(u, 11, 5).unwrap();
    let victim = index.hierarchy().gk_members()[1];
    index.try_delete_vertex(victim).unwrap();
    assert_tracing_is_invisible("patched", &mut index.session(), 251, outcome);

    let di = DiIsLabelIndex::try_build(&random_digraph(), BuildConfig::default()).unwrap();
    assert_tracing_is_invisible("directed", &mut di.session(), 300, |session, s, t| {
        session.distance(s, t).unwrap()
    });
}
