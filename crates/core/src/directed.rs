//! IS-LABEL for directed graphs (paper Section 8.2).
//!
//! The directed extension changes three things relative to the undirected
//! index:
//!
//! * **Hierarchy**: independent sets are selected "by simply ignoring the
//!   direction of the edges" — the undirected hierarchy's own selection
//!   run over the undirected skeleton; but distance repair is directional:
//!   peeling `v` creates an augmenting arc `(u, w)` only when `(u, v)` and
//!   `(v, w)` both exist as arcs, with weight `ω(u,v) + ω(v,w)`.
//! * **Labels**: each vertex keeps an *out-label* (out-ancestors reached by
//!   level-increasing chains of forward arcs) and an *in-label*
//!   (in-ancestors via backward arcs).
//! * **Query**: `dist(s → t)` evaluates Equation 1 over
//!   `X = LABEL_out(s) ∩ LABEL_in(t)`, then runs the bidirectional search
//!   with the forward frontier on `G_k`'s arcs and the reverse frontier on
//!   the transposed arcs.
//!
//! Because a `dist(s → t) ≠ ∞` answer is exactly a reachability witness,
//! this index "simultaneously solves the fundamental problem of
//! reachability" (paper Section 9); see [`DiIsLabelIndex::reachable`].
//!
//! Shortest-path reconstruction and dynamic updates are implemented for the
//! undirected index only (the paper describes them in the undirected
//! setting); directed queries return distances.

use crate::config::{BuildConfig, IsStrategy};
use crate::dense::{seeded_search, DenseCsr, DenseGk, DenseScratch, GkIdMap};
use crate::hierarchy::{peel_levels, select_independent_set, LevelPeel, Levels, PeelCsr, PeelRows};
use crate::label::LabelSet;
use crate::oracle::{check_vertex, DistanceOracle, Error, QueryError, QuerySession};
use crate::stats::IndexStats;
use islabel_graph::{CsrDigraph, Dist, FxHashMap, VertexId, Weight, INF};
use std::convert::Infallible;
use std::time::Instant;

/// A sorted list of `(endpoint, weight)` arcs.
type ArcList = Vec<(VertexId, Weight)>;

/// One direction's peel-time arc lists, in the CSR the undirected peel
/// adjacency uses.
type ArcCsr = PeelCsr<Vec<u64>, ArcList>;

/// The directed backend of the level driver: `G_i` as a mutable directed
/// adjacency (the analogue of `AdjacencyGraph`) plus the peel-time arcs.
/// `L_i` is selected on the undirected skeleton, and peeling `v` joins its
/// in-arcs with its out-arcs.
#[derive(Debug)]
struct DiAdjacency {
    out: Vec<FxHashMap<VertexId, Weight>>,
    inn: Vec<FxHashMap<VertexId, Weight>>,
    present: Vec<bool>,
    num_arcs: usize,
    peel_out: PeelRows<(VertexId, Weight)>,
    peel_in: PeelRows<(VertexId, Weight)>,
    excluded_at: Vec<u32>,
    strategy: IsStrategy,
}

impl DiAdjacency {
    fn from_digraph(g: &CsrDigraph, strategy: IsStrategy) -> Self {
        let n = g.num_vertices();
        let mut out: Vec<FxHashMap<VertexId, Weight>> = vec![FxHashMap::default(); n];
        let mut inn: Vec<FxHashMap<VertexId, Weight>> = vec![FxHashMap::default(); n];
        for v in g.vertices() {
            for (u, w) in g.out_edges(v) {
                out[v as usize].insert(u, w);
                inn[u as usize].insert(v, w);
            }
        }
        Self {
            out,
            inn,
            present: vec![true; n],
            num_arcs: g.num_arcs(),
            peel_out: PeelRows::new(n),
            peel_in: PeelRows::new(n),
            excluded_at: vec![0; n],
            strategy,
        }
    }

    fn upsert_arc_min(&mut self, u: VertexId, w: VertexId, weight: Weight) {
        debug_assert!(u != w);
        match self.out[u as usize].entry(w) {
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(weight);
                self.inn[w as usize].insert(u, weight);
                self.num_arcs += 1;
            }
            std::collections::hash_map::Entry::Occupied(mut slot) => {
                if weight < *slot.get() {
                    *slot.get_mut() = weight;
                    self.inn[w as usize].insert(u, weight);
                }
            }
        }
    }

    /// Removes `v`, returning its (sorted) out- and in-adjacency.
    fn remove_vertex(&mut self, v: VertexId) -> (ArcList, ArcList) {
        assert!(self.present[v as usize]);
        let out_map = std::mem::take(&mut self.out[v as usize]);
        let in_map = std::mem::take(&mut self.inn[v as usize]);
        let mut out_adj: ArcList = out_map.into_iter().collect();
        let mut in_adj: ArcList = in_map.into_iter().collect();
        out_adj.sort_unstable_by_key(|&(u, _)| u);
        in_adj.sort_unstable_by_key(|&(u, _)| u);
        for &(u, _) in &out_adj {
            self.inn[u as usize].remove(&v);
        }
        for &(u, _) in &in_adj {
            self.out[u as usize].remove(&v);
        }
        self.num_arcs -= out_adj.len() + in_adj.len();
        self.present[v as usize] = false;
        (out_adj, in_adj)
    }
}

impl LevelPeel for DiAdjacency {
    type Error = Infallible;

    // No in/out core labeling here: a full directed hierarchy peels `G_k`
    // empty, and Equation 1 alone answers.
    const FULL_PEELS_TO_CORE: bool = false;

    fn num_edges(&self) -> usize {
        self.num_arcs
    }

    fn peel(&mut self, level: u32, level_of: &mut [u32]) -> Result<Vec<VertexId>, Infallible> {
        let (out, inn) = (&self.out, &self.inn);
        let li = select_independent_set(
            (0..self.present.len() as VertexId)
                .filter(|&v| self.present[v as usize])
                .collect(),
            // Out + in: an antiparallel pair counts twice, a deterministic
            // and cheap proxy for the undirected degree.
            |v| out[v as usize].len() + inn[v as usize].len(),
            |v| {
                out[v as usize]
                    .keys()
                    .chain(inn[v as usize].keys())
                    .copied()
            },
            self.strategy,
            level,
            &mut self.excluded_at,
        );
        for &v in &li {
            let (out_adj, in_adj) = self.remove_vertex(v);
            level_of[v as usize] = level;
            // Directed repair: one arc per (in-neighbor, out-neighbor)
            // pair — "we create an augmenting edge (u, w) at G_i only if
            // ∃v ∈ L_{i−1} such that (u, v), (v, w) ∈ E_{G_{i−1}}".
            for &(u, wu) in &in_adj {
                for &(w, ww) in &out_adj {
                    if u != w {
                        let weight = wu.checked_add(ww).expect(
                            "augmenting arc weight overflows u32: input weights are too \
                             large (shortest-path lengths must fit in u32 during \
                             construction)",
                        );
                        self.upsert_arc_min(u, w, weight);
                    }
                }
            }
            self.peel_out.set(v, out_adj);
            self.peel_in.set(v, in_adj);
        }
        Ok(li)
    }
}

/// The directed IS-LABEL index.
///
/// # Examples
///
/// ```
/// use islabel_core::{BuildConfig, DiIsLabelIndex};
/// use islabel_graph::DigraphBuilder;
///
/// let mut b = DigraphBuilder::new(3);
/// b.add_arc(0, 1, 4);
/// b.add_arc(1, 2, 1);
/// b.add_arc(2, 0, 1);
/// let g = b.build();
/// let index = DiIsLabelIndex::try_build(&g, BuildConfig::default())?;
/// assert_eq!(index.try_distance(0, 2)?, Some(5));
/// assert_eq!(index.try_distance(2, 1)?, Some(5)); // 2 → 0 → 1
/// # Ok::<(), islabel_core::Error>(())
/// ```
#[derive(Debug)]
pub struct DiIsLabelIndex {
    levels: Levels,
    /// Peel-time outgoing arcs `v → to` (targets at strictly higher levels).
    peel_out: ArcCsr,
    /// Peel-time incoming arcs `from → v`.
    peel_in: ArcCsr,
    /// Compact-id forward/transposed residual adjacency (see
    /// [`crate::dense`]); the session hot path searches this.
    dense: DenseGk,
    out_labels: LabelSet,
    in_labels: LabelSet,
    stats: IndexStats,
}

impl DiIsLabelIndex {
    /// Builds the directed index; returns [`Error::InvalidConfig`] on a
    /// nonsense `config`.
    pub fn try_build(g: &CsrDigraph, config: BuildConfig) -> Result<Self, Error> {
        config.try_validate()?;
        let t0 = Instant::now();
        let n = g.num_vertices();
        let mut work = DiAdjacency::from_digraph(g, config.is_strategy);
        let Ok(levels) = peel_levels(n, &config, &mut work);

        // G_k's forward and transposed rows, straight from the residual
        // adjacency (`DenseCsr::build` sorts each row).
        let ids = GkIdMap::build(n, &levels.gk_members);
        let rows = |adj: &[FxHashMap<VertexId, Weight>]| {
            DenseCsr::build(ids.len(), |d| {
                adj[ids.global(d) as usize]
                    .iter()
                    .map(|(&u, &w)| (ids.dense(u).expect("G_k arc endpoint outside G_k"), w))
            })
        };
        let (fwd, rev) = (rows(&work.out), rows(&work.inn));
        let dense = DenseGk::directed(ids, fwd, rev);
        let t1 = Instant::now();

        // Top-down labeling in both directions (Algorithm 4 applied to the
        // out- and in-peel adjacency respectively).
        let (peel_out, peel_in) = (work.peel_out.into_csr(), work.peel_in.into_csr());
        let out_labels = build_directional_labels(&levels, &peel_out);
        let in_labels = build_directional_labels(&levels, &peel_in);
        let t2 = Instant::now();

        let label_entries = out_labels.num_entries() + in_labels.num_entries();
        let label_bytes = out_labels.memory_bytes() + in_labels.memory_bytes();
        let stats = IndexStats {
            num_vertices: n,
            num_edges: g.num_arcs(),
            k: levels.k,
            gk_vertices: levels.gk_members.len(),
            gk_edges: work.num_arcs,
            label_entries,
            label_bytes,
            avg_label_len: if n == 0 {
                0.0
            } else {
                label_entries as f64 / (2.0 * n as f64)
            },
            max_label_len: out_labels.max_label_len().max(in_labels.max_label_len()),
            hierarchy_time: t1 - t0,
            labeling_time: t2 - t1,
            build_time: t0.elapsed(),
        };

        Ok(Self {
            levels,
            peel_out,
            peel_in,
            dense,
            out_labels,
            in_labels,
            stats,
        })
    }

    /// Number of vertices indexed.
    pub fn num_vertices(&self) -> usize {
        self.levels.level_of.len()
    }

    /// The number of levels `k`.
    pub fn k(&self) -> u32 {
        self.levels.k
    }

    /// The peeled level sets.
    pub fn levels(&self) -> &[Vec<VertexId>] {
        &self.levels.sets
    }

    /// Vertices of the residual graph, ascending.
    pub fn gk_members(&self) -> &[VertexId] {
        &self.levels.gk_members
    }

    /// The dense search substrate: compact `G_k` ids plus remapped forward
    /// and transposed adjacency (see [`crate::dense`]).
    pub fn dense_gk(&self) -> &DenseGk {
        &self.dense
    }

    /// Peel-time outgoing arcs of `v` (empty for residual vertices).
    pub fn peel_out(&self, v: VertexId) -> &[(VertexId, Weight)] {
        self.peel_out.view().row(v)
    }

    /// Peel-time incoming arcs of `v` (empty for residual vertices).
    pub fn peel_in(&self, v: VertexId) -> &[(VertexId, Weight)] {
        self.peel_in.view().row(v)
    }

    /// Whether `v` survived into the residual graph.
    pub fn is_in_gk(&self, v: VertexId) -> bool {
        self.levels.level_of[v as usize] == self.levels.k
    }

    /// Construction statistics (label fields cover both directions).
    pub fn stats(&self) -> &IndexStats {
        &self.stats
    }

    /// The out-label of `v` (`(out-ancestor, d(v → ·))` pairs).
    pub fn out_label(&self, v: VertexId) -> crate::label::LabelView<'_> {
        self.out_labels.label(v)
    }

    /// The in-label of `v` (`(in-ancestor, d(· → v))` pairs).
    pub fn in_label(&self, v: VertexId) -> crate::label::LabelView<'_> {
        self.in_labels.label(v)
    }

    /// Directed distance `dist(s → t)`: `Ok(None)` means unreachable,
    /// `Err(VertexOutOfRange)` flags a malformed query. A one-shot is a
    /// [`session`](DiIsLabelIndex::session) opened for this one query.
    pub fn try_distance(&self, s: VertexId, t: VertexId) -> Result<Option<Dist>, QueryError> {
        self.session().distance(s, t)
    }

    /// Directed reachability: whether any path `s → t` exists. The paper
    /// points out the directed index answers this "fundamental problem"
    /// for free (Section 9). Same errors as
    /// [`DiIsLabelIndex::try_distance`].
    pub fn reachable(&self, s: VertexId, t: VertexId) -> Result<bool, QueryError> {
        Ok(self.try_distance(s, t)?.is_some())
    }

    /// Opens a per-thread [`DiIsLabelSession`] with reusable dense-kernel
    /// scratch; the typed twin of [`DistanceOracle::session`]. Scratch and
    /// seed buffers are fully pre-sized, so steady-state queries are
    /// allocation-free.
    pub fn session(&self) -> DiIsLabelSession<'_> {
        // The longer of the two directions' longest labels, as `try_build`
        // recorded it — not rescanned per open.
        let seed_cap = self.stats.max_label_len;
        DiIsLabelSession {
            index: self,
            scratch: DenseScratch::new(self.dense.ids().len()),
            fseeds: Vec::with_capacity(seed_cap),
            rseeds: Vec::with_capacity(seed_cap),
            trace: crate::trace::QueryTrace::new(),
        }
    }
}

/// Reusable query state for one [`DiIsLabelIndex`]: dense search scratch
/// plus compact-id seed buffers (see [`QuerySession`]). Obtained from
/// [`DiIsLabelIndex::session`].
#[derive(Debug)]
pub struct DiIsLabelSession<'a> {
    index: &'a DiIsLabelIndex,
    scratch: DenseScratch,
    fseeds: Vec<(u32, Dist)>,
    rseeds: Vec<(u32, Dist)>,
    trace: crate::trace::QueryTrace,
}

impl DiIsLabelSession<'_> {
    /// Directed distance `dist(s → t)` through the reused dense scratch;
    /// same contract as [`DiIsLabelIndex::try_distance`]: Equation 1 over
    /// `X = LABEL_out(s) ∩ LABEL_in(t)`, then the forward search on arcs and
    /// the reverse search on transposed arcs.
    pub fn distance(&mut self, s: VertexId, t: VertexId) -> Result<Option<Dist>, QueryError> {
        let index = self.index;
        check_vertex(s, index.num_vertices())?;
        check_vertex(t, index.num_vertices())?;
        if s == t {
            return Ok(Some(0));
        }
        let outcome = seeded_search(
            index.out_labels.label(s),
            index.in_labels.label(t),
            |a| index.dense.ids().dense(a),
            index.dense.fwd(),
            index.dense.rev(),
            &mut self.fseeds,
            &mut self.rseeds,
            &mut self.scratch,
            &mut self.trace,
        );
        Ok((outcome.dist < INF).then_some(outcome.dist))
    }
}

impl QuerySession for DiIsLabelSession<'_> {
    fn engine_name(&self) -> &'static str {
        "di-islabel"
    }

    fn distance(&mut self, s: VertexId, t: VertexId) -> Result<Option<Dist>, QueryError> {
        DiIsLabelSession::distance(self, s, t)
    }

    fn trace(&self) -> Option<&crate::trace::QueryTrace> {
        Some(&self.trace)
    }

    fn trace_mut(&mut self) -> Option<&mut crate::trace::QueryTrace> {
        Some(&mut self.trace)
    }
}

/// The directed index serves the shared oracle contract in the forward
/// (out) direction: `try_distance(s, t)` is `dist(s → t)`.
impl DistanceOracle for DiIsLabelIndex {
    fn engine_name(&self) -> &'static str {
        "di-islabel"
    }

    fn num_vertices(&self) -> usize {
        DiIsLabelIndex::num_vertices(self)
    }

    /// Both label directions plus the dense `G_k` search substrate the
    /// session hot path reads.
    fn index_bytes(&self) -> usize {
        self.out_labels.memory_bytes() + self.in_labels.memory_bytes() + self.dense.memory_bytes()
    }

    fn try_distance(&self, s: VertexId, t: VertexId) -> Result<Option<Dist>, QueryError> {
        DiIsLabelIndex::try_distance(self, s, t)
    }

    fn session(&self) -> Box<dyn QuerySession + '_> {
        Box::new(DiIsLabelIndex::session(self))
    }
}

/// One direction's peel-arc lists as a [`crate::label::PeelSource`], so the
/// directed index shares the level-parallel scatter-min labeling loop with
/// the undirected one.
struct DirectionalPeel<'a>(PeelCsr<&'a [u64], &'a [(VertexId, Weight)]>);

impl crate::label::PeelSource for DirectionalPeel<'_> {
    fn peel_neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        self.0.row(v).iter().copied()
    }
}

/// Top-down labeling along one direction's peel adjacency (the shared
/// Algorithm 4 loop; directed queries return distances only).
fn build_directional_labels(levels: &Levels, peel: &ArcCsr) -> LabelSet {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    crate::label::build_from_peel(levels, &DirectionalPeel(peel.view()), None, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KSelection;
    use crate::reference::di_dijkstra_p2p;
    use islabel_graph::DigraphBuilder;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_digraph(n: usize, m: usize, max_w: Weight, seed: u64) -> CsrDigraph {
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

    #[test]
    fn matches_directed_dijkstra_exhaustively_small() {
        for seed in 0..4u64 {
            let g = random_digraph(30, 90, 5, seed);
            let index = DiIsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
            for s in g.vertices() {
                for t in g.vertices() {
                    assert_eq!(
                        index.try_distance(s, t),
                        Ok(di_dijkstra_p2p(&g, s, t)),
                        "seed {seed} query ({s}, {t})"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_directed_dijkstra_across_configs() {
        let g = random_digraph(150, 600, 9, 42);
        for config in [
            BuildConfig::default(),
            BuildConfig::full(),
            BuildConfig::fixed_k(3),
        ] {
            let index = DiIsLabelIndex::try_build(&g, config).unwrap();
            for i in 0..80u32 {
                let (s, t) = ((i * 7) % 150, (i * 13 + 2) % 150);
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
    fn asymmetry_is_respected() {
        // 0 → 1 → 2 with no way back.
        let mut b = DigraphBuilder::new(3);
        b.add_arc(0, 1, 2);
        b.add_arc(1, 2, 3);
        let g = b.build();
        let index = DiIsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        assert_eq!(index.try_distance(0, 2), Ok(Some(5)));
        assert_eq!(index.try_distance(2, 0), Ok(None));
        assert_eq!(index.reachable(0, 2), Ok(true));
        assert_eq!(index.reachable(2, 0), Ok(false));
    }

    #[test]
    fn antiparallel_arcs_with_different_weights() {
        let mut b = DigraphBuilder::new(2);
        b.add_arc(0, 1, 3);
        b.add_arc(1, 0, 8);
        let g = b.build();
        let index = DiIsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        assert_eq!(index.try_distance(0, 1), Ok(Some(3)));
        assert_eq!(index.try_distance(1, 0), Ok(Some(8)));
    }

    #[test]
    fn dag_reachability() {
        // A layered DAG: level i reaches level j > i only.
        let mut b = DigraphBuilder::new(9);
        for layer in 0..2u32 {
            for i in 0..3u32 {
                for j in 0..3u32 {
                    b.add_arc(layer * 3 + i, (layer + 1) * 3 + j, 1);
                }
            }
        }
        let g = b.build();
        let index = DiIsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        assert_eq!(index.reachable(0, 8), Ok(true));
        assert_eq!(index.try_distance(0, 8), Ok(Some(2)));
        assert_eq!(index.reachable(8, 0), Ok(false));
        assert_eq!(index.reachable(3, 1), Ok(false));
    }

    #[test]
    fn in_out_labels_upper_bound_true_distances() {
        let g = random_digraph(80, 240, 4, 7);
        let index = DiIsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        for v in (0..80u32).step_by(9) {
            for (anc, d) in index.out_label(v).iter() {
                let truth = di_dijkstra_p2p(&g, v, anc).expect("out-ancestors must be reachable");
                assert!(d >= truth, "d_out({v}, {anc}) = {d} < {truth}");
            }
            for (anc, d) in index.in_label(v).iter() {
                let truth = di_dijkstra_p2p(&g, anc, v).expect("in-ancestors must reach v");
                assert!(d >= truth, "d_in({anc}, {v}) = {d} < {truth}");
            }
        }
    }

    #[test]
    fn strongly_connected_cycle() {
        let n = 12u32;
        let mut b = DigraphBuilder::new(n as usize);
        for v in 0..n {
            b.add_arc(v, (v + 1) % n, 1);
        }
        let g = b.build();
        let index = DiIsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        // Around the ring: dist(u, v) = (v - u) mod n.
        for u in 0..n {
            for v in 0..n {
                let expect = ((v + n - u) % n) as Dist;
                assert_eq!(index.try_distance(u, v), Ok(Some(expect)), "({u}, {v})");
            }
        }
    }

    #[test]
    fn stats_count_both_directions() {
        let g = random_digraph(60, 200, 3, 3);
        let index = DiIsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        let s = index.stats();
        // Each vertex carries a self entry in both label sets.
        assert!(s.label_entries >= 2 * 60);
        assert_eq!(s.num_vertices, 60);
        assert!(s.k >= 2);
        // Sessions size their seed buffers from this.
        let longest = (0..60)
            .map(|v| index.out_label(v).len().max(index.in_label(v).len()))
            .max();
        assert_eq!(Some(s.max_label_len), longest);
        assert!(s.build_time >= s.hierarchy_time + s.labeling_time);
    }

    #[test]
    fn both_label_directions_match_the_hash_map_reference() {
        // Unit weights, so equal-distance ties are everywhere, and levels
        // wide enough to fan out over the labeling workers.
        let g = random_digraph(1500, 5000, 1, 21);
        for config in [BuildConfig::default(), BuildConfig::full()] {
            let index = DiIsLabelIndex::try_build(&g, config).unwrap();
            for (built, peel) in [
                (&index.out_labels, &index.peel_out),
                (&index.in_labels, &index.peel_in),
            ] {
                let (expected, _) = crate::label::tests::reference_labels(
                    &index.levels,
                    &DirectionalPeel(peel.view()),
                    None,
                );
                assert_eq!(built, &expected, "{:?}", config.k_selection);
            }
        }
    }

    #[test]
    fn isolated_vertices_and_self_queries() {
        let g = DigraphBuilder::new(5).build();
        let index = DiIsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        assert_eq!(index.try_distance(0, 0), Ok(Some(0)));
        assert_eq!(index.try_distance(0, 4), Ok(None));
    }

    #[test]
    fn session_matches_try_distance_directed() {
        let g = random_digraph(120, 420, 7, 5);
        let index = DiIsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        let mut session = index.session();
        for round in 0..2 {
            for i in 0..70u32 {
                let (s, t) = ((i * 11) % 120, (i * 17 + 3) % 120);
                assert_eq!(
                    session.distance(s, t),
                    index.try_distance(s, t),
                    "round {round} ({s}, {t})"
                );
            }
        }
        assert!(session.distance(0, 500).is_err());
    }

    #[test]
    fn oracle_impl_answers_out_direction() {
        let mut b = DigraphBuilder::new(3);
        b.add_arc(0, 1, 2);
        b.add_arc(1, 2, 3);
        let g = b.build();
        let index = DiIsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        let oracle: &dyn crate::DistanceOracle = &index;
        assert_eq!(oracle.engine_name(), "di-islabel");
        assert_eq!(oracle.num_vertices(), 3);
        assert!(oracle.index_bytes() > 0);
        assert_eq!(oracle.try_distance(0, 2), Ok(Some(5)));
        assert_eq!(oracle.try_distance(2, 0), Ok(None));
        assert_eq!(
            oracle.try_distance(0, 3),
            Err(crate::QueryError::VertexOutOfRange {
                vertex: 3,
                universe: 3
            })
        );
        let bad = BuildConfig {
            k_selection: KSelection::FixedK(1),
            ..BuildConfig::default()
        };
        assert!(matches!(
            DiIsLabelIndex::try_build(&g, bad),
            Err(crate::Error::InvalidConfig(_))
        ));
    }
}
