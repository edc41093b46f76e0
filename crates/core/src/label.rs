//! Vertex labels (paper Definitions 2/3) and the top-down labeling
//! algorithm (Algorithm 4).
//!
//! The relaxed label `label(v)` holds one entry per *ancestor* of `v` — a
//! vertex reachable from `v` by a strictly level-increasing chain whose step
//! `(w_i, w_{i+1})` is an edge of `G_{ℓ(w_i)}`. The recorded value
//! `d(v, u)` is the minimum length over such chains: an upper bound on
//! `dist_G(v, u)` that Lemma 5 proves exact at the max-level vertex of any
//! shortest path, which is all Equation 1 needs.
//!
//! Algorithm 4 computes labels top-down using Corollary 1:
//! `label(v) = {(v, 0)} ∪ min-merge over peel-neighbors u of
//! (ω(v, u) + label(u))`, processing levels `k−1 .. 1` so every neighbor's
//! label (all neighbors sit at strictly higher levels) is already final.
//!
//! Two observations make that loop fast here:
//!
//! * Within one level the vertices are **independent**: every peel neighbor
//!   sits at a strictly higher level, so level `i` labels read only
//!   already-final data. [`LabelSet::build`] therefore fans each level out
//!   over scoped worker threads that claim small vertex chunks off an
//!   atomic counter (label sizes vary wildly, so static halves would
//!   leave workers idle), producing bit-identical labels at any thread
//!   count. Transient labels live in flat arenas — per-vertex `Vec`s would
//!   put the allocator on the contended path.
//! * The per-vertex min-merge is a **scatter-min**: each worker owns a
//!   dense slot array indexed by ancestor id and walks every peel
//!   neighbor's final label once — one add and one compare per input
//!   entry. An entry is the minimum distance over the peel neighbors, so
//!   the result does not depend on the order neighbors are visited in.
//!   Labels leave ancestor-ascending because the touched ids are sorted,
//!   and exactly the touched slots are reset, so between two vertices
//!   every slot is unset (`docs/adr/0005-scatter-min-labeling.md`).
//!
//! A label-only index ([`crate::KSelection::Full`]) starts Algorithm 4 from
//! `G_k`'s own labels instead of self entries: [`pruned_labels`], one
//! pruned Dijkstra per core vertex in descending (degree, id) order, the
//! pruned landmark labeling of Akiba, Iwata and Yoshida (SIGMOD 2013), run
//! over the core alone. Its labels are a 2-hop cover of `G_k`, so Equation
//! 1 is exact with no search (`docs/adr/0021-degree-ranked-core.md`).
//!
//! Storage is struct-of-arrays, each vertex's entries sorted by ancestor id,
//! which makes Equation 1 a linear merge-join — the "simple sequential
//! scanning" the paper relies on (Section 6.2). An entry is `(ancestor,
//! distance)` only, 8 bytes: the paper's Section 8.1 first hop is a
//! function of the peel row and these labels, so a path query derives it
//! ([`crate::path`], `docs/adr/0020-derived-first-hops.md`).

use crate::hierarchy::{Levels, VertexHierarchy};
use islabel_graph::{CsrGraph, Dist, VertexId, Weight, INF};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A stored label distance. Labels hold it at 4 bytes wherever they live
/// (heap, mapped artifact, disk store); Equation 1 widens to [`Dist`] for
/// the sum, so a query answer is never narrowed. A label distance above
/// `u32::MAX` fails construction (see the `BuildConfig` weight contract).
pub type LabelDist = u32;

/// The construction-time failure for a label distance past
/// [`LabelDist`]: the in-memory and the external builder both panic with
/// it, as an augmenting-edge overflow does.
pub(crate) const LABEL_OVERFLOW: &str = "label distance overflows u32: input weights are too \
     large (shortest-path lengths must fit in u32 during construction)";

/// All vertex labels, flattened: the artifact's three label sections.
///
/// `O` holds the offsets and `A` the entry arrays — `Vec`s after a build
/// (the default), slices borrowed from an index's storage ([`Labels`]) —
/// so one set of readers serves both, as [`crate::dense::DenseCsr`]'s do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabelSet<O = Vec<u64>, A = Vec<VertexId>> {
    /// `offsets[v]..offsets[v + 1]` indexes `v`'s entries.
    pub(crate) offsets: O,
    pub(crate) ancestors: A,
    pub(crate) dists: A,
}

/// The labels of an index as plain slices (see [`LabelSet`]).
pub type Labels<'a> = LabelSet<&'a [u64], &'a [VertexId]>;

/// Borrowed view of one vertex's label.
#[derive(Debug, Clone, Copy)]
pub struct LabelView<'a> {
    /// Ancestor ids, ascending.
    pub ancestors: &'a [VertexId],
    /// Chain-length upper bounds, parallel to `ancestors`.
    pub dists: &'a [LabelDist],
}

impl<'a> LabelView<'a> {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.ancestors.len()
    }

    /// Whether the label is empty (only possible for an out-of-universe id).
    pub fn is_empty(&self) -> bool {
        self.ancestors.is_empty()
    }

    /// Iterates `(ancestor, d)` pairs in ascending ancestor order.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, Dist)> + 'a {
        self.ancestors
            .iter()
            .copied()
            .zip(self.dists.iter().map(|&d| Dist::from(d)))
    }

    /// Looks up the entry for `ancestor` (binary search).
    pub fn get(&self, ancestor: VertexId) -> Option<Dist> {
        self.ancestors
            .binary_search(&ancestor)
            .ok()
            .map(|i| Dist::from(self.dists[i]))
    }
}

/// One transient label entry during construction: `(ancestor, dist)`.
type Entry = (VertexId, LabelDist);

/// One chunk's output of a labeling worker: `(chunk index, per-vertex
/// lengths, flat entries)` — committed to the arena by the main thread.
type ChunkOut = (usize, Vec<u32>, Vec<Entry>);

/// A peel-adjacency view of one hierarchy direction, consumed by the
/// shared top-down labeling loop. The undirected index implements it over
/// [`VertexHierarchy::peel_adj`]; the directed index implements it twice,
/// over its out- and in-arc peel lists.
pub(crate) trait PeelSource: Sync {
    /// Iterates `(higher-level neighbor, edge weight)` of `v` as archived at
    /// peel time.
    fn peel_neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_;
}

struct HierarchyPeel<'a>(&'a VertexHierarchy);

impl PeelSource for HierarchyPeel<'_> {
    fn peel_neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        self.0.peel.view().row(v).iter().map(|&[to, w, _]| (to, w))
    }
}

/// Transient label storage during construction: per-vertex **spans into
/// flat arena chunks** instead of one `Vec` per vertex.
///
/// Construction produces tens of thousands of short-lived label lists; a
/// `Vec<Vec<Entry>>` allocates each of them individually, and when worker
/// threads do that concurrently the allocator becomes the bottleneck
/// (measured 3–6× *slowdowns* at 2 threads). Here every worker appends its
/// chunk's labels to one flat buffer, the finished buffer is frozen as an
/// arena, and each vertex stores `(arena, start, len)` — a handful of
/// allocations per level instead of one per vertex, on both the sequential
/// and the parallel path.
#[derive(Debug)]
struct ArenaLabels {
    /// All committed entries, level after level. Only grows between level
    /// scopes, so worker borrows never observe a reallocation.
    arena: Vec<Entry>,
    /// `(start, len)` per vertex into `arena`; len 0 = no label yet.
    span: Vec<(u64, u32)>,
}

impl ArenaLabels {
    fn new(n: usize) -> Self {
        Self {
            arena: Vec::new(),
            span: vec![(0, 0); n],
        }
    }

    #[inline]
    fn get(&self, v: VertexId) -> &[Entry] {
        let (s, l) = self.span[v as usize];
        &self.arena[s as usize..s as usize + l as usize]
    }

    /// Appends one worker's flat output to the arena and records the spans
    /// of the vertices it covered (`lens` parallel to `part`).
    fn commit(&mut self, part: &[VertexId], lens: &[u32], flat: &[Entry]) {
        debug_assert_eq!(part.len(), lens.len());
        debug_assert_eq!(lens.iter().map(|&l| l as usize).sum::<usize>(), flat.len());
        let mut start = self.arena.len() as u64;
        self.arena.extend_from_slice(flat);
        for (&v, &len) in part.iter().zip(lens) {
            self.span[v as usize] = (start, len);
            start += len as u64;
        }
    }

    fn total_entries(&self) -> usize {
        self.arena.len()
    }
}

/// A slot no vertex has written. Every real distance is at most it, and
/// one may equal it: `touched`, not the slot, says which slots hold an
/// entry.
const UNSET: LabelDist = LabelDist::MAX;

/// One labeling worker's scratch, created once per build: one distance
/// per ancestor id plus the ids written for the current vertex. Between
/// two vertices every slot is [`UNSET`] and `touched` is empty.
#[derive(Debug)]
struct ScatterMin {
    slots: Vec<LabelDist>,
    touched: Vec<VertexId>,
}

impl ScatterMin {
    fn new(n: usize) -> Self {
        Self {
            slots: vec![UNSET; n],
            touched: Vec::new(),
        }
    }

    /// Appends `label(v)` to `out`, ancestor-ascending, and returns its
    /// length: the self entry plus, per ancestor of a peel neighbor `u`, the
    /// minimum of `ω(v, u) + d(u, ancestor)`. Panics with
    /// [`LABEL_OVERFLOW`] on a sum past [`LabelDist`].
    fn label_vertex<P: PeelSource>(
        &mut self,
        v: VertexId,
        peel: &P,
        labels: &ArenaLabels,
        out: &mut Vec<Entry>,
    ) -> u32 {
        for (u, w) in peel.peel_neighbors(v) {
            for &(anc, d) in labels.get(u) {
                let slot = &mut self.slots[anc as usize];
                if *slot == UNSET {
                    self.touched.push(anc);
                }
                *slot = (*slot).min(w.checked_add(d).expect(LABEL_OVERFLOW));
            }
        }
        // No neighbor label contains `v`: ancestors of a strictly
        // higher-level neighbor all sit above `v`'s level.
        debug_assert_eq!(self.slots[v as usize], UNSET);
        self.slots[v as usize] = 0;
        self.touched.push(v);
        self.touched.sort_unstable();
        // A slot holding exactly `LabelDist::MAX` still reads as unset, so
        // its next candidate listed it a second time.
        self.touched.dedup();
        for &anc in &self.touched {
            out.push((anc, std::mem::replace(&mut self.slots[anc as usize], UNSET)));
        }
        let len = self.touched.len() as u32;
        self.touched.clear();
        len
    }

    /// Labels chunks of `parts` claimed off `next` until none are left.
    fn claim_chunks<P: PeelSource>(
        &mut self,
        parts: &[&[VertexId]],
        next: &AtomicUsize,
        peel: &P,
        labels: &ArenaLabels,
    ) -> Vec<ChunkOut> {
        let mut outs = Vec::new();
        loop {
            let pi = next.fetch_add(1, Ordering::Relaxed);
            let Some(part) = parts.get(pi) else { break };
            let mut flat: Vec<Entry> = Vec::new();
            let lens = part
                .iter()
                .map(|&v| self.label_vertex(v, peel, labels, &mut flat))
                .collect();
            outs.push((pi, lens, flat));
        }
        outs
    }

    fn is_clean(&self) -> bool {
        self.touched.is_empty() && self.slots.iter().all(|&s| s == UNSET)
    }
}

/// Smallest level size worth fanning out over worker threads: below this
/// the per-level spawn cost dominates the merge work.
const PARALLEL_LEVEL_CUTOFF: usize = 128;

/// The pruned labels of the vertices `members` of `g`, whose edges stay
/// among them: one Dijkstra per member `hub` in descending (degree, id)
/// order. A vertex `v` it settles at `d` gets the entry `(hub, d)` and is
/// expanded, unless the labels made so far already answer `(hub, v)`
/// within `d`, which prunes it. The labels are the canonical 2-hop
/// cover of that order: every pair's distance is the minimum of
/// `L(s)[h] + L(t)[h]` over common hubs `h`, and which equal-key vertex a
/// heap pops first decides nothing. A vertex outside `members` gets an
/// empty label. Panics on a distance past [`LabelDist`], as the other
/// label builders do.
///
/// The one pruned-labeling loop: a label-only index runs it over its core
/// `G_k`, the PLL baseline over the whole graph.
pub fn pruned_labels(g: &CsrGraph, members: &[VertexId]) -> LabelSet {
    let n = g.num_vertices();
    let mut order = members.to_vec();
    order.sort_unstable_by_key(|&v| (Reverse(g.degree(v)), v));
    // Entries as (hub rank, distance), appended in rank order.
    let mut ranked: Vec<Vec<(u32, LabelDist)>> = vec![Vec::new(); n];
    // The current hub's label by rank, for an O(|L(v)|) pruning test.
    let mut hub_dist = vec![INF; order.len()];
    let mut dist = vec![INF; n];
    let mut touched: Vec<VertexId> = Vec::new();
    let mut heap: BinaryHeap<Reverse<(Dist, VertexId)>> = BinaryHeap::new();
    for (rank, &hub) in (0u32..).zip(&order) {
        for &(r, d) in &ranked[hub as usize] {
            hub_dist[r as usize] = Dist::from(d);
        }
        dist[hub as usize] = 0;
        touched.push(hub);
        heap.push(Reverse((0, hub)));
        while let Some(Reverse((d, v))) = heap.pop() {
            if d > dist[v as usize] {
                continue;
            }
            let covered = ranked[v as usize]
                .iter()
                .any(|&(r, dv)| hub_dist[r as usize].saturating_add(Dist::from(dv)) <= d);
            if covered {
                continue;
            }
            let stored = LabelDist::try_from(d).expect(LABEL_OVERFLOW);
            ranked[v as usize].push((rank, stored));
            for (u, w) in g.edges(v) {
                let nd = d + Dist::from(w);
                if nd < dist[u as usize] {
                    if dist[u as usize] == INF {
                        touched.push(u);
                    }
                    dist[u as usize] = nd;
                    heap.push(Reverse((nd, u)));
                }
            }
        }
        for &(r, _) in &ranked[hub as usize] {
            hub_dist[r as usize] = INF;
        }
        for &v in &touched {
            dist[v as usize] = INF;
        }
        touched.clear();
    }
    let rows = ranked
        .into_iter()
        .map(|label| {
            let mut row: Vec<Entry> = label
                .into_iter()
                .map(|(r, d)| (order[r as usize], d))
                .collect();
            row.sort_unstable();
            row
        })
        .collect();
    LabelSet::from_per_vertex(rows)
}

/// Shared top-down labeling loop (Algorithm 4) over any [`PeelSource`],
/// level-parallel and deterministic at every thread count. `G_k`'s
/// vertices start from their `core` labels when given (a label-only
/// index), and from their self entries otherwise.
pub(crate) fn build_from_peel<P: PeelSource>(
    levels: &Levels,
    peel: &P,
    core: Option<&LabelSet>,
    threads: usize,
) -> LabelSet {
    let (n, k, gk_members) = (levels.level_of.len(), levels.k, &levels.gk_members[..]);
    // Transient labels live in flat arenas (see [`ArenaLabels`]): entries
    // are (ancestor, dist), each vertex's slice sorted by ancestor.
    let mut labels = ArenaLabels::new(n);

    // Initialization: the labels of G_k vertices, final from the start.
    let (lens, first): (Vec<u32>, Vec<Entry>) = match core {
        Some(core) => {
            let rows = gk_members.iter().map(|&v| core.label(v));
            let lens = rows.clone().map(|l| l.len() as u32).collect();
            let flat = rows
                .flat_map(|l| l.ancestors.iter().copied().zip(l.dists.iter().copied()))
                .collect();
            (lens, flat)
        }
        None => (
            vec![1; gk_members.len()],
            gk_members.iter().map(|&v| (v, 0)).collect(),
        ),
    };
    labels.commit(gk_members, &lens, &first);
    drop(first);

    // One scratch per worker for the whole build, lent to each level's
    // threads: a per-level array would be re-filled `k` times.
    let peeled = &levels.sets[..(k as usize).saturating_sub(1)];
    let workers_for = |len: usize| threads.min(len.div_ceil(PARALLEL_LEVEL_CUTOFF)).max(1);
    let max_workers = peeled
        .iter()
        .map(|li| workers_for(li.len()))
        .max()
        .unwrap_or(1);
    let mut scratch: Vec<ScatterMin> = (0..max_workers).map(|_| ScatterMin::new(n)).collect();

    // Top-down: level k−1 down to 1. Every peel neighbor of a level-i
    // vertex is at a level > i, so its label is already final — which also
    // means the vertices of one level are mutually independent and can be
    // labeled in parallel.
    for li in peeled.iter().rev() {
        let workers = workers_for(li.len());
        // Dynamic chunk assignment: label sizes vary wildly within a
        // level, so fixed contiguous halves leave workers idle. Chunks
        // several times smaller than a worker's fair share are claimed
        // off an atomic counter instead — cheap work stealing.
        let chunk = li
            .len()
            .div_ceil(workers * 8)
            .max(PARALLEL_LEVEL_CUTOFF / 2);
        let parts: Vec<&[VertexId]> = li.chunks(chunk).collect();
        let next = AtomicUsize::new(0);
        let (parts_ref, next_ref, shared) = (&parts[..], &next, &labels);
        let mut produced: Vec<ChunkOut> = Vec::new();
        if workers > 1 {
            produced = std::thread::scope(|scope| {
                // A failed spawn is not an error: chunks are claimed, not
                // assigned, so the workers that did start cover the level.
                let handles: Vec<_> = scratch[..workers]
                    .iter_mut()
                    .enumerate()
                    .filter_map(|(i, s)| {
                        std::thread::Builder::new()
                            .name(format!("islabel-label-{i}"))
                            .spawn_scoped(scope, move || {
                                s.claim_chunks(parts_ref, next_ref, peel, shared)
                            })
                            .ok()
                    })
                    .collect();
                // A worker's panic (a label distance past `LabelDist`) is
                // re-raised here with its own message.
                handles
                    .into_iter()
                    .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                    .collect()
            });
        }
        // The calling thread runs the same loop: a small level entirely,
        // and after a fan-out whatever is unclaimed — nothing, unless no
        // worker could be started.
        produced.extend(scratch[0].claim_chunks(parts_ref, next_ref, peel, shared));
        for (pi, lens, flat) in produced {
            labels.commit(parts[pi], &lens, &flat);
        }
        debug_assert!(
            scratch.iter().all(ScatterMin::is_clean),
            "a labeling worker left a slot set"
        );
    }

    LabelSet::from_arena(&labels, n)
}

impl LabelSet {
    /// Runs top-down labeling (Algorithm 4) over a hierarchy, parallelized
    /// level-by-level over [`std::thread::available_parallelism`] workers.
    /// A label-only hierarchy ([`VertexHierarchy::is_label_only`]) has its
    /// core labelled first, by [`pruned_labels`] over `G_k`.
    /// Labels are deterministic — identical at any worker count (see
    /// [`LabelSet::build_with_threads`]). The labels are the same whatever
    /// `keep_path_info` says: no first hop is stored, a path query derives
    /// it (`docs/adr/0020-derived-first-hops.md`). The flag stays in the
    /// signature because the frozen `benchmark/` harness passes it.
    pub fn build(h: &VertexHierarchy, _keep_path_info: bool) -> Self {
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Self::build_with_threads(h, threads)
    }

    /// [`LabelSet::build`] with an explicit worker count (`0` and `1` both
    /// run single-threaded). Every vertex's label is the per-ancestor
    /// minimum distance over its peel neighbors — a pure function of
    /// already-final labels — so the output is bit-identical across
    /// `threads` values.
    pub fn build_with_threads(h: &VertexHierarchy, threads: usize) -> Self {
        let core = h.label_only.then(|| pruned_labels(&h.gk, h.gk_members()));
        build_from_peel(&h.levels, &HierarchyPeel(h), core.as_ref(), threads.max(1))
    }

    /// Flattens arena-backed construction labels into the SoA layout.
    fn from_arena(labels: &ArenaLabels, n: usize) -> Self {
        Self::from_rows(
            (0..n as VertexId).map(|v| labels.get(v)),
            labels.total_entries(),
        )
    }

    /// Flattens per-vertex sorted entry lists into the SoA layout.
    pub(crate) fn from_per_vertex(labels: Vec<Vec<(VertexId, LabelDist)>>) -> Self {
        let total = labels.iter().map(Vec::len).sum();
        Self::from_rows(labels.iter().map(Vec::as_slice), total)
    }

    /// The SoA layout of `rows`, one ancestor-sorted row per vertex and
    /// `total` entries in all.
    fn from_rows<'r>(rows: impl ExactSizeIterator<Item = &'r [Entry]>, total: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows.len() + 1);
        let mut ancestors = Vec::with_capacity(total);
        let mut dists = Vec::with_capacity(total);
        offsets.push(0);
        for l in rows {
            debug_assert!(l.windows(2).all(|w| w[0].0 < w[1].0), "label not sorted");
            for &(anc, d) in l {
                ancestors.push(anc);
                dists.push(d);
            }
            offsets.push(ancestors.len() as u64);
        }
        Self {
            offsets,
            ancestors,
            dists,
        }
    }

    /// The label of `v`.
    #[inline]
    pub fn label(&self, v: VertexId) -> LabelView<'_> {
        self.view().label(v)
    }

    /// The three arrays borrowed as plain slices.
    pub fn view(&self) -> Labels<'_> {
        LabelSet {
            offsets: &self.offsets,
            ancestors: &self.ancestors,
            dists: &self.dists,
        }
    }
}

impl<'a> Labels<'a> {
    /// The label of `v`, borrowed for as long as the arrays are.
    #[inline]
    pub fn label(&self, v: VertexId) -> LabelView<'a> {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        LabelView {
            ancestors: &self.ancestors[lo..hi],
            dists: &self.dists[lo..hi],
        }
    }
}

impl<O: AsRef<[u64]>, A: AsRef<[VertexId]>> LabelSet<O, A> {
    /// Number of vertices covered.
    pub fn num_vertices(&self) -> usize {
        self.offsets.as_ref().len() - 1
    }

    /// Total number of label entries across all vertices.
    pub fn num_entries(&self) -> usize {
        self.ancestors.as_ref().len()
    }

    /// Resident bytes of the label arrays — the paper's "label size" column
    /// (Tables 3, 6, 7).
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(self.offsets.as_ref())
            + std::mem::size_of_val(self.ancestors.as_ref())
            + std::mem::size_of_val(self.dists.as_ref())
    }

    /// Largest label distance, 0 for no labels: the bound the update
    /// overlay checks an insertion against before it patches anything.
    pub(crate) fn max_dist(&self) -> LabelDist {
        self.dists.as_ref().iter().copied().max().unwrap_or(0)
    }

    /// Largest single label (diagnostics; drives worst-case Time (a)).
    pub fn max_label_len(&self) -> usize {
        let offsets = self.offsets.as_ref();
        let lens = offsets.windows(2).map(|w| (w[1] - w[0]) as usize);
        lens.max().unwrap_or(0)
    }

    /// Mean entries per vertex.
    pub fn avg_label_len(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_entries() as f64 / self.num_vertices() as f64
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::BuildConfig;
    use crate::hierarchy::tests::{paper_graph, paper_hierarchy};
    use crate::reference;
    use islabel_graph::generators::{barabasi_albert, erdos_renyi_gnm, grid2d, WeightModel};
    use islabel_graph::{FxHashMap, GraphBuilder};
    use std::collections::{BTreeMap, BTreeSet};

    fn label_pairs(ls: &LabelSet, v: VertexId) -> Vec<(VertexId, Dist)> {
        ls.label(v).iter().collect()
    }

    /// Second implementation of Algorithm 4 with first hops: a top-down
    /// hash-map min-merge under the lexicographic `(dist, hop)` rule, one
    /// vertex at a time, sharing only [`PeelSource`] with
    /// [`build_from_peel`], from `G_k`'s `core` labels when given. Returns
    /// the labels and, per vertex, the first hop of each entry (the vertex
    /// itself for its self entry and for every entry of a `G_k` vertex,
    /// which has no peel row).
    pub(crate) fn reference_labels<P: PeelSource>(
        levels: &Levels,
        peel: &P,
        core: Option<&LabelSet>,
    ) -> (LabelSet, Vec<Vec<VertexId>>) {
        let n = levels.level_of.len();
        let mut per_vertex: Vec<Vec<(VertexId, LabelDist, VertexId)>> = vec![Vec::new(); n];
        for &v in &levels.gk_members {
            per_vertex[v as usize] = match core {
                Some(core) => {
                    let l = core.label(v);
                    let entries = l.ancestors.iter().zip(l.dists);
                    entries.map(|(&a, &d)| (a, d, v)).collect()
                }
                None => vec![(v, 0, v)],
            };
        }
        for li in levels.sets.iter().rev() {
            for &v in li {
                let mut acc: FxHashMap<VertexId, (LabelDist, VertexId)> = FxHashMap::default();
                acc.insert(v, (0, v));
                for (u, w) in peel.peel_neighbors(v) {
                    for &(anc, d, _) in &per_vertex[u as usize] {
                        let cand = (w + d, u);
                        let cur = acc.entry(anc).or_insert(cand);
                        *cur = (*cur).min(cand);
                    }
                }
                let mut label: Vec<_> = acc.into_iter().map(|(a, (d, h))| (a, d, h)).collect();
                label.sort_unstable();
                per_vertex[v as usize] = label;
            }
        }
        let hops = per_vertex
            .iter()
            .map(|l| l.iter().map(|&(_, _, hop)| hop).collect())
            .collect();
        let rows = per_vertex
            .into_iter()
            .map(|l| l.into_iter().map(|(a, d, _)| (a, d)).collect())
            .collect();
        (LabelSet::from_per_vertex(rows), hops)
    }

    /// The first hop a path query derives for every entry of every label,
    /// the vertex itself for its self entry and for a `G_k` vertex's
    /// entries: what [`reference_labels`] records.
    fn derived_hops(h: &VertexHierarchy, ls: &LabelSet) -> Vec<Vec<VertexId>> {
        let (peel, lv) = (h.peel.view(), ls.view());
        let hop = |v: VertexId, w: VertexId| {
            if w == v || h.is_in_gk(v) {
                return v;
            }
            let edge = crate::path::first_hop(peel, lv, v, w).expect("entry has a hop");
            edge.to
        };
        (0..h.universe() as VertexId)
            .map(|v| ls.label(v).ancestors.iter().map(|&w| hop(v, w)).collect())
            .collect()
    }

    /// A hierarchy's peel lists walked backwards: the visiting order must
    /// not decide a label.
    struct ReversedPeel<'a>(&'a VertexHierarchy);

    impl PeelSource for ReversedPeel<'_> {
        fn peel_neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
            let row = self.0.peel.view().row(v);
            row.iter().rev().map(|&[to, w, _]| (to, w))
        }
    }

    #[test]
    fn equal_distance_keeps_the_smaller_first_hop_in_any_visiting_order() {
        // The unit 4-cycle 0-1-3-2-0 peeled one vertex a level: vertex 0 has
        // peel neighbors 1 and 2. Both reach ancestor 3 at distance 2 — a
        // tie the smaller id wins; ancestor 2 is 3 away through 1 and 1 away
        // through 2 itself — the larger id is strictly closer and wins.
        let mut b = GraphBuilder::new(4);
        for (u, v) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            b.add_edge(u, v, 1);
        }
        let h = VertexHierarchy::build_with_forced_levels(
            &b.build(),
            &[vec![0], vec![1], vec![2], vec![3]],
        );
        let neighbors: Vec<VertexId> = h.peel_adj(0).map(|e| e.to).collect();
        assert_eq!(neighbors, vec![1, 2]);

        let forward = build_from_peel(&h.levels, &HierarchyPeel(&h), None, 1);
        let backward = build_from_peel(&h.levels, &ReversedPeel(&h), None, 1);
        assert_eq!(forward, backward);
        assert_eq!(
            label_pairs(&forward, 0),
            vec![(0, 0), (1, 1), (2, 1), (3, 2)]
        );
        let (peel, lv) = (h.peel.view(), forward.view());
        let hop = |w| crate::path::first_hop(peel, lv, 0, w).map(|e| e.to);
        assert_eq!(hop(3), Some(1), "tie");
        assert_eq!(hop(2), Some(2), "closer");
        assert_eq!(hop(1), Some(1));
    }

    /// Records the name of every thread that walks a peel list.
    struct NamingPeel<'a>(&'a VertexHierarchy, std::sync::Mutex<Vec<String>>);

    impl PeelSource for NamingPeel<'_> {
        fn peel_neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
            let name = std::thread::current().name().unwrap_or("").to_string();
            let mut seen = self.1.lock().expect("no labeling thread panicked");
            if !seen.contains(&name) {
                seen.push(name);
            }
            self.0.peel_adj(v).map(|e| (e.to, e.weight))
        }
    }

    #[test]
    fn labeling_workers_are_named() {
        let g = grid2d(45, 45, WeightModel::Unit, 13);
        let h = VertexHierarchy::build(&g, &BuildConfig::sigma(0.95));
        let peel = NamingPeel(&h, std::sync::Mutex::default());
        build_from_peel(&h.levels, &peel, None, 3);
        let caller = std::thread::current().name().unwrap_or("").to_string();
        let mut workers = peel.1.into_inner().expect("no labeling thread panicked");
        workers.retain(|name| *name != caller);
        assert!(!workers.is_empty(), "no level fanned out");
        let allowed = ["islabel-label-0", "islabel-label-1", "islabel-label-2"];
        assert!(
            workers.iter().all(|w| allowed.contains(&w.as_str())),
            "{workers:?}"
        );
    }

    #[test]
    fn matches_the_hash_map_reference_with_first_hops_at_every_worker_count() {
        // Unit weights put ties everywhere; the graphs are large enough
        // that the first levels fan out over all eight workers.
        let graphs = [
            ("er", erdos_renyi_gnm(2000, 2800, WeightModel::Unit, 11)),
            ("ba", barabasi_albert(2000, 2, WeightModel::Unit, 12)),
            ("grid", grid2d(45, 45, WeightModel::Unit, 13)),
        ];
        for (name, g) in &graphs {
            for config in [BuildConfig::sigma(0.95), BuildConfig::full()] {
                let h = VertexHierarchy::build(g, &config);
                let core = h.label_only.then(|| pruned_labels(&h.gk, h.gk_members()));
                let (expected, hops) =
                    reference_labels(&h.levels, &HierarchyPeel(&h), core.as_ref());
                for threads in [1, 2, 3, 8] {
                    let ls = LabelSet::build_with_threads(&h, threads);
                    let tag = format!("{name} {:?} threads {threads}", config.k_selection);
                    assert_eq!(ls, expected, "{tag}");
                    assert_eq!(derived_hops(&h, &ls), hops, "{tag} first hops");
                }
            }
        }
    }

    /// The pruned Dijkstra over `G_k` written out with ordered maps: hubs
    /// in descending (degree in `G_k`, id) order, each a plain Dijkstra
    /// with a `BTreeSet` frontier that gives `v` the entry `(hub, d)`
    /// unless the labels made so far answer `(hub, v)` within `d`, and
    /// expands `v` only then.
    fn literal_pruned_core(h: &VertexHierarchy) -> BTreeMap<VertexId, BTreeMap<VertexId, Dist>> {
        let gk = h.gk();
        let mut order = h.gk_members().to_vec();
        order.sort_by_key(|&v| (std::cmp::Reverse(gk.degree(v)), v));
        let mut labels: BTreeMap<VertexId, BTreeMap<VertexId, Dist>> =
            order.iter().map(|&v| (v, BTreeMap::new())).collect();
        for &hub in &order {
            let mut best = BTreeMap::from([(hub, 0)]);
            let mut frontier = BTreeSet::from([(0, hub)]);
            while let Some((d, v)) = frontier.pop_first() {
                let answered = labels[&hub]
                    .iter()
                    .filter_map(|(a, da)| Some(da + labels[&v].get(a)?))
                    .min();
                if answered.is_some_and(|q| q <= d) {
                    continue;
                }
                labels.get_mut(&v).unwrap().insert(hub, d);
                for (u, w) in gk.edges(v) {
                    let nd = d + Dist::from(w);
                    if best.get(&u).is_none_or(|&b| nd < b) {
                        if let Some(b) = best.insert(u, nd) {
                            frontier.remove(&(b, u));
                        }
                        frontier.insert((nd, u));
                    }
                }
            }
        }
        labels
    }

    #[test]
    fn core_labels_are_the_literal_pruned_dijkstra_over_gk() {
        let graphs = [
            (
                "er",
                erdos_renyi_gnm(300, 900, WeightModel::UniformRange(1, 4), 31),
            ),
            (
                "ba",
                barabasi_albert(300, 3, WeightModel::UniformRange(1, 3), 32),
            ),
            ("grid", grid2d(12, 12, WeightModel::UniformRange(1, 2), 33)),
            ("ba unit", barabasi_albert(400, 2, WeightModel::Unit, 34)),
        ];
        for (name, g) in &graphs {
            let h = VertexHierarchy::build(g, &BuildConfig::full());
            assert!(h.is_label_only());
            assert!(h.num_gk_edges() > 0, "{name}: the core needs edges");
            let literal = literal_pruned_core(&h);
            // Algorithm 4 leaves the core's labels as the pruned Dijkstra
            // made them, at any worker count.
            for threads in [1, 3] {
                let ls = LabelSet::build_with_threads(&h, threads);
                for (&v, expected) in &literal {
                    let got: BTreeMap<VertexId, Dist> = ls.label(v).iter().collect();
                    assert_eq!(&got, expected, "{name}: label({v}), threads {threads}");
                }
            }
            // Pruning dropped something: not every hub reaches every vertex.
            let entries: usize = literal.values().map(BTreeMap::len).sum();
            let m = literal.len();
            assert!(
                entries < m * (m + 1) / 2,
                "{name}: {entries} entries over {m}"
            );
        }
    }

    #[test]
    fn pruned_labels_cover_every_pair_of_the_core() {
        // 2-hop cover: Equation 1 over two core labels is the distance.
        let g = barabasi_albert(250, 3, WeightModel::UniformRange(1, 5), 35);
        let h = VertexHierarchy::build(&g, &BuildConfig::full());
        let core = pruned_labels(&h.gk, h.gk_members());
        for &s in h.gk_members() {
            let truth = reference::dijkstra_all(&g, s);
            for &t in h.gk_members() {
                let (d, _) = crate::query::intersect_min(core.label(s), core.label(t));
                assert_eq!(d, truth[t as usize], "({s}, {t})");
            }
        }
    }

    #[test]
    fn paper_example_labels_match_figure_2() {
        // a=0 b=1 c=2 d=3 e=4 f=5 g=6 h=7 i=8.
        let h = paper_hierarchy();
        let ls = LabelSet::build(&h, true);

        assert_eq!(
            label_pairs(&ls, 2),
            vec![(0, 2), (1, 1), (2, 0), (4, 2), (6, 4)]
        ); // c
        assert_eq!(label_pairs(&ls, 8), vec![(0, 2), (4, 1), (6, 3), (8, 0)]); // i
        assert_eq!(label_pairs(&ls, 1), vec![(0, 1), (1, 0), (4, 1), (6, 3)]); // b
        assert_eq!(label_pairs(&ls, 3), vec![(0, 2), (3, 0), (4, 1), (6, 1)]); // d
        assert_eq!(label_pairs(&ls, 7), vec![(0, 5), (4, 4), (6, 1), (7, 0)]); // h
        assert_eq!(label_pairs(&ls, 4), vec![(0, 1), (4, 0), (6, 2)]); // e
        assert_eq!(label_pairs(&ls, 0), vec![(0, 0), (6, 3)]); // a
        assert_eq!(label_pairs(&ls, 6), vec![(6, 0)]); // g

        // label(f): the paper's Figure 2(b) prints (g, 5), but Definition 3
        // yields d(f, g) = 2 through the valid level-increasing chain
        // f → h → g (ℓ(f)=1 < ℓ(h)=2 < ℓ(g)=5, edges in G1 and G2 of weights
        // 1 and 1); the figure's value appears to be a typo. Both values are
        // upper bounds of dist_G(f, g) = 2, so query answers are unaffected.
        assert_eq!(
            label_pairs(&ls, 5),
            vec![(0, 4), (4, 3), (5, 0), (6, 2), (7, 1)]
        ); // f

        // The paper highlights d(h, e) = 4 > dist_G(h, e) = 3.
        assert_eq!(ls.label(7).get(4), Some(4));
    }

    #[test]
    fn algorithm4_matches_definition3_procedure() {
        // The top-down join must compute exactly the labels of the
        // Definition 3 marking procedure (our reference implementation).
        for seed in 0..5u64 {
            let g = islabel_graph::generators::erdos_renyi_gnm(
                80,
                200,
                islabel_graph::generators::WeightModel::UniformRange(1, 6),
                seed,
            );
            let h = VertexHierarchy::build(&g, &BuildConfig::sigma(0.95));
            let ls = LabelSet::build(&h, false);
            for v in g.vertices() {
                let expected = reference::definition3_label(&h, v);
                assert_eq!(
                    label_pairs(&ls, v),
                    expected,
                    "label({v}) diverges from Definition 3 (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn ancestor_sets_match_exact_labels() {
        // Lemma 4: V[label(v)] = V[LABEL(v)].
        let g = paper_graph();
        let h = paper_hierarchy();
        let ls = LabelSet::build(&h, false);
        for v in g.vertices() {
            let relaxed: Vec<VertexId> = ls.label(v).ancestors.to_vec();
            let exact: Vec<VertexId> = reference::exact_label(&g, &h, v)
                .into_iter()
                .map(|(a, _)| a)
                .collect();
            assert_eq!(relaxed, exact, "ancestor set of {v}");
        }
    }

    #[test]
    fn label_distances_upper_bound_true_distances() {
        // Each d(v, u) is the length of a real path, so it can never be
        // below dist_G(v, u).
        let g = islabel_graph::generators::barabasi_albert(
            120,
            3,
            islabel_graph::generators::WeightModel::UniformRange(1, 4),
            5,
        );
        let h = VertexHierarchy::build(&g, &BuildConfig::sigma(0.95));
        let ls = LabelSet::build(&h, false);
        for v in g.vertices().step_by(10) {
            let exact = crate::reference::dijkstra_all(&g, v);
            for (anc, d) in ls.label(v).iter() {
                assert!(
                    d >= exact[anc as usize],
                    "d({v}, {anc}) = {d} below true {}",
                    exact[anc as usize]
                );
            }
        }
    }

    #[test]
    fn gk_vertices_have_singleton_labels() {
        let g = islabel_graph::generators::erdos_renyi_gnm(
            100,
            400,
            islabel_graph::generators::WeightModel::Unit,
            1,
        );
        let h = VertexHierarchy::build(&g, &BuildConfig::sigma(0.95));
        let ls = LabelSet::build(&h, true);
        assert!(h.num_gk_vertices() > 0, "test needs a non-empty G_k");
        for &v in h.gk_members() {
            assert_eq!(label_pairs(&ls, v), vec![(v, 0)]);
        }
    }

    #[test]
    fn first_hops_are_valid_peel_neighbors() {
        let g = paper_graph();
        let h = paper_hierarchy();
        let ls = LabelSet::build(&h, true);
        let hops = derived_hops(&h, &ls);
        for v in g.vertices() {
            let lv = ls.label(v);
            for (i, (&anc, &hop)) in lv.ancestors.iter().zip(&hops[v as usize]).enumerate() {
                if anc == v {
                    assert_eq!(lv.dists[i], 0, "self entry of {v}");
                } else {
                    assert!(
                        h.peel_adj(v).any(|e| e.to == hop),
                        "first hop {hop} of entry {i} of label({v}) is not a peel neighbor"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_build_is_deterministic_across_thread_counts() {
        // The level-parallel sorted merge must produce bit-identical labels
        // (entries and distances) at every worker count.
        for seed in [3u64, 19] {
            let g = islabel_graph::generators::barabasi_albert(
                600,
                3,
                islabel_graph::generators::WeightModel::UniformRange(1, 5),
                seed,
            );
            let h = VertexHierarchy::build(&g, &BuildConfig::sigma(0.95));
            let single = LabelSet::build_with_threads(&h, 1);
            for threads in [2, 3, 8] {
                let multi = LabelSet::build_with_threads(&h, threads);
                assert_eq!(single, multi, "threads {threads} seed {seed}");
            }
        }
    }

    #[test]
    fn memory_accounting_is_consistent() {
        let h = paper_hierarchy();
        let with_paths = LabelSet::build(&h, true);
        let without = LabelSet::build(&h, false);
        // No first hop is stored: 8 bytes an entry plus the offsets,
        // whatever the path flag says.
        assert_eq!(with_paths, without);
        let entries = without.num_entries();
        assert_eq!(without.memory_bytes(), 8 * entries + 8 * (9 + 1));
        assert_eq!(without.num_vertices(), 9);
        assert!(without.max_label_len() >= 5);
        assert!(without.avg_label_len() > 1.0);
    }
}
