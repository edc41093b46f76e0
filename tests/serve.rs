//! Concurrent-serving correctness: many threads hammering one
//! [`Snapshot`] through a [`QueryService`], checked against the reference
//! Dijkstra oracle, plus hot-swap semantics — a call pins one generation
//! before its first query and every answer it returns comes from that
//! generation; the next call sees the new index.

use islabel::core::reference::dijkstra_p2p;
use islabel::graph::generators::{erdos_renyi_gnm, WeightModel};
use islabel::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

fn pair_mix(n: u32, count: u32) -> Vec<(VertexId, VertexId)> {
    (0..count)
        .map(|i| ((i * 13) % n, (i * 37 + 5) % n))
        .collect()
}

/// N client threads hammer one snapshot of every engine through the
/// service; every answer must equal the reference Dijkstra on the base
/// graph. This is the concurrent conformance check of the serving layer:
/// per-chunk sessions, batch fan-out and result collection may not distort
/// a single distance under contention, and every query is counted once.
#[test]
fn all_engines_stay_exact_under_concurrent_hammering() {
    let g = erdos_renyi_gnm(250, 600, WeightModel::UniformRange(1, 9), 0xC0);
    let pairs = pair_mix(250, 120);
    let truth: Vec<Option<Dist>> = pairs.iter().map(|&(s, t)| dijkstra_p2p(&g, s, t)).collect();

    for engine in Engine::ALL {
        let oracle: SharedOracle =
            Arc::from(build_oracle(engine, &g, &BuildConfig::default()).unwrap());
        let service = QueryService::start(Arc::clone(&oracle), ServeConfig::with_shards(4));
        let clients = 6;
        // Every client submits the window of (at most) 8 pairs starting at
        // each position of the mix exactly once.
        let per_client: u64 = (0..pairs.len())
            .map(|i| (pairs.len() - i).min(8) as u64)
            .sum();
        let submitted = clients as u64 * per_client;
        std::thread::scope(|scope| {
            for c in 0..clients {
                let service = &service;
                let pairs = &pairs;
                let truth = &truth;
                scope.spawn(move || {
                    // Each client walks the mix from a different offset in
                    // small batches, so chunks of different batches interleave.
                    for start in 0..pairs.len() {
                        let i = (start + c * 17) % pairs.len();
                        let chunk_end = (i + 8).min(pairs.len());
                        let got = service.submit(&pairs[i..chunk_end]).wait().unwrap();
                        assert_eq!(
                            got,
                            truth[i..chunk_end],
                            "{engine}: client {c} chunk {i}..{chunk_end}"
                        );
                    }
                });
            }
        });
        let stats = service.shutdown();
        assert_eq!(stats.errors, 0, "{engine}");
        assert_eq!(stats.queries, submitted, "{engine}: {stats:?}");
        assert_eq!(stats.latency.count(), submitted, "{engine}");
    }
}

/// A gate that lets the test observe a caller *inside* a query and hold it
/// there: the first gated query signals entry and blocks until released;
/// everything after the release passes through untouched.
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Default)]
struct GateState {
    entered: bool,
    released: bool,
}

impl Gate {
    fn new() -> Self {
        Self {
            state: Mutex::new(GateState::default()),
            cv: Condvar::new(),
        }
    }

    fn pass(&self) {
        let mut st = self.state.lock().unwrap();
        st.entered = true;
        self.cv.notify_all();
        while !st.released {
            st = self.cv.wait(st).unwrap();
        }
    }

    fn wait_entered(&self) {
        let mut st = self.state.lock().unwrap();
        while !st.entered {
            st = self.cv.wait(st).unwrap();
        }
    }

    fn release(&self) {
        let mut st = self.state.lock().unwrap();
        st.released = true;
        self.cv.notify_all();
    }
}

/// An engine wrapper whose queries stop at the gate — the instrument for
/// deterministically racing a hot swap against an in-flight query.
struct GatedOracle {
    inner: IsLabelIndex,
    gate: Arc<Gate>,
}

impl DistanceOracle for GatedOracle {
    fn engine_name(&self) -> &'static str {
        "gated-islabel"
    }

    fn num_vertices(&self) -> usize {
        DistanceOracle::num_vertices(&self.inner)
    }

    fn index_bytes(&self) -> usize {
        self.inner.index_bytes()
    }

    fn try_distance(&self, s: VertexId, t: VertexId) -> Result<Option<Dist>, QueryError> {
        self.gate.pass();
        self.inner.try_distance(s, t)
    }

    fn session(&self) -> Box<dyn QuerySession + '_> {
        Box::new(GatedSession { oracle: self })
    }
}

struct GatedSession<'a> {
    oracle: &'a GatedOracle,
}

impl QuerySession for GatedSession<'_> {
    fn engine_name(&self) -> &'static str {
        "gated-islabel"
    }

    fn distance(&mut self, s: VertexId, t: VertexId) -> Result<Option<Dist>, QueryError> {
        self.oracle.try_distance(s, t)
    }
}

fn line_index(weight: u32) -> IsLabelIndex {
    let mut b = GraphBuilder::new(3);
    b.add_edge(0, 1, weight);
    b.add_edge(1, 2, weight);
    IsLabelIndex::try_build(&b.build(), BuildConfig::default()).unwrap()
}

/// The hot-swap contract, deterministically: a call already answering
/// when the swap lands finishes on the *old* snapshot; a call made after
/// the swap — even one that returns first — is answered by the *new* one.
#[test]
fn in_flight_queries_finish_on_the_old_snapshot() {
    let gate = Arc::new(Gate::new());
    let old = GatedOracle {
        inner: line_index(5), // dist(0, 2) = 10
        gate: Arc::clone(&gate),
    };
    let service = QueryService::start(Arc::new(old), ServeConfig::with_shards(1));

    std::thread::scope(|scope| {
        let in_flight = scope.spawn(|| service.submit(&[(0, 2)]).wait());
        // That thread is now provably inside the query, on generation 0.
        gate.wait_entered();

        // Swap to an index that answers differently (dist(0, 2) = 2).
        let retired = service.swap_oracle(line_index(1));
        assert_eq!(retired.version(), 0);
        assert_eq!(service.handle().version(), 1);

        // A second call overtakes the blocked one and sees the new index.
        assert_eq!(service.submit(&[(0, 2)]).wait(), Ok(vec![Some(2)]));
        gate.release();

        // The in-flight call still answers from the snapshot it pinned.
        assert_eq!(in_flight.join().unwrap(), Ok(vec![Some(10)]));
    });
    assert_eq!(service.shutdown().queries, 2);
}

/// The two graphs of the swap storms: `g` and the same topology with every
/// weight tripled, so generation 2's truth is exactly 3x generation 1's
/// and a coherence check needs no second Dijkstra.
fn storm_graphs() -> (CsrGraph, CsrGraph) {
    let g = erdos_renyi_gnm(150, 400, WeightModel::UniformRange(1, 5), 0xD1);
    let mut b = GraphBuilder::new(150);
    for (u, v, w) in g.edge_list() {
        b.add_edge(u, v, w * 3);
    }
    (g, b.build())
}

/// Swaps racing a live workload: every answer must be coherent with *some*
/// generation (never a mix, never a crash), and the workload drains clean.
#[test]
fn answers_stay_generation_coherent_under_swap_storm() {
    let (g, g3) = storm_graphs();
    let pairs = pair_mix(150, 60);
    let truth1: Vec<Option<Dist>> = pairs.iter().map(|&(s, t)| dijkstra_p2p(&g, s, t)).collect();

    let make = |tripled: bool| -> IsLabelIndex {
        IsLabelIndex::try_build(if tripled { &g3 } else { &g }, BuildConfig::default()).unwrap()
    };
    let service = QueryService::start(Arc::new(make(false)), ServeConfig::with_shards(3));
    std::thread::scope(|scope| {
        let swapper = scope.spawn(|| {
            for gen in 0..12u32 {
                service.swap_oracle(make(gen % 2 == 0));
                std::thread::yield_now();
            }
        });
        for c in 0..4 {
            let service = &service;
            let pairs = &pairs;
            let truth1 = &truth1;
            scope.spawn(move || {
                for round in 0..10 {
                    for (i, &(s, t)) in pairs.iter().enumerate() {
                        let got = service.query(s, t).unwrap();
                        let t1 = truth1[i];
                        let t3 = t1.map(|d| d * 3);
                        assert!(
                            got == t1 || got == t3,
                            "client {c} round {round} ({s}, {t}): {got:?} matches no generation"
                        );
                    }
                }
            });
        }
        swapper.join().unwrap();
    });
    // After the storm settles the service answers from the last generation
    // (gen 11 is odd, so the final swap installed the untripled graph).
    assert_eq!(service.handle().version(), 12);
    for (i, &(s, t)) in pairs.iter().enumerate() {
        assert_eq!(service.query(s, t).unwrap(), truth1[i]);
    }
    service.shutdown();
}

/// The batch half of the storm: `submit` pins one snapshot for the whole
/// batch, so however its chunks race the swapper, a batch equals one
/// generation's truth entirely — never the old index for one chunk and the
/// new one for the next.
#[test]
fn batches_stay_generation_coherent_under_swap_storm() {
    let (g, g3) = storm_graphs();
    let pairs = pair_mix(150, 60);
    let truth1: Vec<Option<Dist>> = pairs.iter().map(|&(s, t)| dijkstra_p2p(&g, s, t)).collect();
    let truth3: Vec<Option<Dist>> = truth1.iter().map(|d| d.map(|d| d * 3)).collect();
    assert_ne!(truth1, truth3);

    let make = |tripled: bool| -> IsLabelIndex {
        IsLabelIndex::try_build(if tripled { &g3 } else { &g }, BuildConfig::default()).unwrap()
    };
    let service = QueryService::start(Arc::new(make(false)), ServeConfig::with_shards(3));
    let storm_over = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for c in 0..3 {
            let (service, pairs, truth1, truth3, storm_over) =
                (&service, &pairs, &truth1, &truth3, &storm_over);
            scope.spawn(move || {
                // Batches keep coming for as long as swaps do.
                while !storm_over.load(Ordering::Relaxed) {
                    let got = service.submit(pairs).wait().unwrap();
                    assert!(
                        got == *truth1 || got == *truth3,
                        "client {c}: a batch mixed two generations"
                    );
                }
            });
        }
        for gen in 0..40u32 {
            service.swap_oracle(make(gen % 2 == 0));
            std::thread::yield_now();
        }
        storm_over.store(true, Ordering::Relaxed);
    });
    assert_eq!(service.handle().version(), 40);
    // Gen 39 is odd: the last swap installed the untripled graph.
    assert_eq!(service.submit(&pairs).wait().unwrap(), truth1);
    let stats = service.shutdown();
    assert_eq!(stats.queries % pairs.len() as u64, 0, "{stats:?}");
}
