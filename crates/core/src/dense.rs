//! The search kernel: Algorithm 1 over compact `G_k` ids, generation-stamped
//! flat arrays, and an indexed 4-ary min-heap with decrease-key.
//!
//! The paper's query cost is dominated by "Time (b)" — the label-seeded
//! bidirectional Dijkstra over the residual graph `G_k` (Section 5.2,
//! Algorithm 1). Hub-labeling systems (PLL and its successors) get their
//! speed from flat, cache-friendly state, and this module holds the `G_k`
//! search to that standard:
//!
//! * [`GkIdMap`] remaps the (typically sparse) `G_k` vertex set to compact
//!   ids `0..|G_k|`, built **once per index**. Label seeds translate with
//!   one array read, and every per-vertex search array shrinks from
//!   universe-sized to `|G_k|`-sized.
//! * [`DenseCsr`] stores `G_k`'s adjacency over compact ids in flat CSR
//!   arrays, every row in ascending `(weight, neighbour)` order, so the
//!   relax loop is a sequential scan that µ can cut short. The same type
//!   borrows a mapped artifact's sections, which have the same layout.
//! * [`StampedSlab`] gives O(1) *whole-array reset*: each slot carries a
//!   generation stamp, and "clearing" is one epoch increment — no per-query
//!   `memset`, no hashing, no allocation.
//! * [`IndexedHeap`] is a 4-ary min-heap with a stamped position index and
//!   true decrease-key: at most one live entry per vertex, so no pop ever
//!   wades through stale entries, and heap capacity is bounded by `|G_k|`.
//!   An entry is one `u64`, `(key − base) << 32 | vertex` over a per-heap
//!   `base`, so a sift compares integers and reads 32 bytes per level
//!   (`docs/adr/0017-one-word-heap-entries.md`).
//! * [`DenseScratch`] bundles the per-search state; a session allocates it
//!   once and every later query runs **allocation-free** (asserted by the
//!   `alloc_free` integration test).
//!
//! [`dense_search`] is the **only** implementation of Algorithm 1
//! (`docs/adr/0003-one-search-kernel.md`): generic over [`DenseView`], so
//! the pristine CSR, the directed forward/transposed pair, the
//! dynamic-update [`PatchedDense`], a mapped artifact's sections and the
//! IM-DIJ baseline's input graph all run the same loop, and generic over
//! [`ParentSink`], so a path query is that loop with predecessor recording
//! compiled in and a distance query ([`dense_bi_dijkstra`]) the same loop
//! with it compiled out. Its oracle
//! is [`crate::reference`] Dijkstra. Ties pop in `(key, vertex)` order and
//! dense ids ascend with global ids, so which of several equally short
//! paths a path query returns is a function of the graph alone.
//!
//! µ bounds the *work* of Algorithm 1, not only its stopping point, by two
//! rules (`docs/adr/0001-mu-bounded-search.md`):
//!
//! 1. a key that plus the opposite frontier's minimum is `≥ µ` is never
//!    materialised — the relaxation is skipped before a slab or heap line
//!    is touched. Frontier minima only grow and µ only shrinks, so the
//!    `min(FQ) + min(RQ) ≥ µ` cutoff fires before such a key could be
//!    popped, and whatever it could close from the other side is no
//!    shorter than µ already is. Rule 1 **cuts the row**: within one
//!    settle `d(v)` and the opposite minimum are constant and µ only
//!    shrinks, so in a row sorted by weight the first entry it rejects
//!    condemns every later one, and the scan stops there
//!    (`docs/adr/0010-weight-ordered-rows.md`);
//! 2. a relaxation that lands is checked against the opposite side's
//!    *tentative* distance. Any tentative distance is a real path, so µ
//!    only ever takes real path lengths, and it is finite from the moment
//!    the frontiers touch.
//!
//! Settle order is unchanged by either: rule 1 removes only entries that
//! would never have been popped, rule 2 only makes the cutoff fire earlier,
//! and the pops that remain compare `(key, vertex)` as before.
//!
//! A row is a weight-ordered *run* — the whole row of a pristine CSR —
//! and an unordered *tail*: a [`PatchedDense`]'s inserted edges. The run
//! is cut, the tail is read in full ([`DenseView::ordered_run`],
//! [`DenseView::tail_of`]).
//!
//! The kernel functions here are an **alloc-free zone**: `islabel-lint`
//! (see `lint.toml` at the repo root) rejects any allocating construct
//! inside them, so all scratch must come from the reusable state below.

use crate::query::{Meeting, SearchOutcome};
use islabel_graph::{CsrGraph, Dist, VertexId, Weight, INF};

/// Sentinel for "vertex is not in `G_k`" in [`GkIdMap`]'s forward array.
pub const NO_DENSE: u32 = u32::MAX;

/// Read access to a dense adjacency over compact ids — what the kernel
/// actually requires of its graph. Implemented by the pristine [`DenseCsr`]
/// (built on the heap or borrowed from a mapped artifact), by
/// [`PatchedDense`] (base CSR plus a dynamic-update [`DensePatch`]) and by
/// the input [`CsrGraph`] itself (IM-DIJ), so the same allocation-free
/// search serves all four.
///
/// The kernel reads a row as [`ordered_run`](Self::ordered_run), cut at
/// the first entry µ rejects, then [`tail_of`](Self::tail_of) in full. A
/// view that implements only [`edges_of`](Self::edges_of) promises no
/// order: its whole row is tail.
pub trait DenseView {
    /// Number of compact vertices (the dense id range).
    fn num_vertices(&self) -> usize;

    /// Every `(dense_neighbor, weight)` pair of compact vertex `d`: the
    /// ordered run, then the tail.
    fn edges_of(&self, d: u32) -> impl Iterator<Item = (u32, Weight)> + '_;

    /// The part of `d`'s row in ascending `(weight, neighbour)` order.
    #[inline]
    fn ordered_run(&self, _d: u32) -> impl Iterator<Item = (u32, Weight)> + '_ {
        std::iter::empty()
    }

    /// The rest of `d`'s row, in no particular order.
    #[inline]
    fn tail_of(&self, d: u32) -> impl Iterator<Item = (u32, Weight)> + '_ {
        self.edges_of(d)
    }

    /// Best-effort hint that `d`'s adjacency is about to be iterated:
    /// implementations issue a software prefetch for the row's first
    /// cache line so the miss overlaps with the work before the
    /// iteration. Never affects results; the default is a no-op.
    #[inline]
    fn prefetch_row(&self, _d: u32) {}
}

/// A bidirectional mapping between global vertex ids and compact `G_k` ids
/// `0..|G_k|`, built once per index.
///
/// Because `G_k` members are enumerated in ascending global order, dense
/// ids preserve the relative order of global ids — so the kernel's
/// `(key, vertex)` tie-breaking is the same in either id space. `S` holds
/// the two arrays, as it does for [`DenseCsr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GkIdMap<S = Vec<u32>> {
    /// `dense_of[global]` is the compact id, or [`NO_DENSE`].
    pub(crate) dense_of: S,
    /// `global_of[dense]` is the original vertex id.
    pub(crate) global_of: S,
}

impl GkIdMap {
    /// Builds the map for a `universe`-vertex index whose `G_k` members are
    /// `members` (ascending global ids).
    pub fn build(universe: usize, members: &[VertexId]) -> Self {
        debug_assert!(members.windows(2).all(|w| w[0] < w[1]));
        let mut dense_of = vec![NO_DENSE; universe];
        for (d, &v) in members.iter().enumerate() {
            dense_of[v as usize] = d as u32;
        }
        Self {
            dense_of,
            global_of: members.to_vec(),
        }
    }
}

impl<S: AsRef<[u32]>> GkIdMap<S> {
    /// Compact id of `v`, or `None` when `v` is not a `G_k` vertex. This is
    /// simultaneously the `G_k` membership test the seed filter uses. The
    /// empty map of a label-only index's searched view
    /// ([`crate::hierarchy::HierarchyView::searched`]) maps no vertex.
    #[inline]
    pub fn dense(&self, v: VertexId) -> Option<u32> {
        let d = *self.dense_of.as_ref().get(v as usize)?;
        (d != NO_DENSE).then_some(d)
    }

    /// Global id of compact id `d`.
    #[inline]
    pub fn global(&self, d: u32) -> VertexId {
        self.global_of.as_ref()[d as usize]
    }

    /// Number of `G_k` vertices (the compact id range).
    #[inline]
    pub fn len(&self) -> usize {
        self.global_of.as_ref().len()
    }

    /// Whether `G_k` is empty.
    pub fn is_empty(&self) -> bool {
        self.global_of.as_ref().is_empty()
    }

    /// Resident bytes of both direction arrays.
    pub fn memory_bytes(&self) -> usize {
        (self.dense_of.as_ref().len() + self.len()) * std::mem::size_of::<u32>()
    }

    /// The raw forward array (`dense_of[global]`, [`NO_DENSE`] sentinel),
    /// the artifact's `GK_DENSE_OF` section.
    pub(crate) fn dense_of_raw(&self) -> &[u32] {
        self.dense_of.as_ref()
    }

    /// The raw reverse array (`global_of[dense]`, ascending), the
    /// artifact's `GK_GLOBAL_OF` section.
    pub(crate) fn global_of_raw(&self) -> &[VertexId] {
        self.global_of.as_ref()
    }

    fn view(&self) -> GkIdMap<&[u32]> {
        GkIdMap {
            dense_of: self.dense_of.as_ref(),
            global_of: self.global_of.as_ref(),
        }
    }
}

/// The row order of `G_k` as one integer: a row is sorted when the keys of
/// its `(neighbour, weight)` entries strictly ascend, which is ascending
/// `(weight, neighbour)` with no neighbour twice.
#[inline]
pub(crate) fn row_key(neighbour: u32, weight: Weight) -> u64 {
    u64::from(weight) << 32 | u64::from(neighbour)
}

/// `G_k` adjacency over compact ids in flat CSR arrays, every row in
/// ascending `(weight, neighbour)` order.
///
/// The base residual graph spans the full id universe with peeled vertices
/// isolated; remapping to `0..|G_k|` packs the arrays the relax loop
/// actually touches into contiguous, cache-dense memory.
///
/// The row order is what lets rule 1 cut a row (module docs). It is
/// established here, in [`build`](DenseCsr::build), the one constructor
/// of every heap CSR, and checked once when an artifact is opened
/// (`Sections::validate`); the kernel never re-checks it.
///
/// Targets and weights are two arrays side by side, the layout of the
/// artifact's `GK_OFFSETS` / `GK_TARGETS` / `GK_WEIGHTS` sections. `S` is
/// what holds them: `Vec`s for a built index (the default), or slices
/// borrowed from a mapped artifact (`DenseCsr<&[u32]>`). So one row view,
/// and one [`DenseView`] impl, serves both, and the writer saves the
/// arrays verbatim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DenseCsr<S = Vec<u32>> {
    pub(crate) offsets: S,
    pub(crate) targets: S,
    pub(crate) weights: S,
}

impl DenseCsr {
    /// Builds from an edge source: for each of the `m` compact vertices,
    /// `edges(dense_id)` yields `(dense_neighbor, weight)` pairs, in any
    /// order. Each row is stored sorted by `(weight, neighbour)`.
    pub fn build<I: Iterator<Item = (u32, Weight)>>(
        m: usize,
        mut edges: impl FnMut(u32) -> I,
    ) -> Self {
        let mut offsets = Vec::with_capacity(m + 1);
        let (mut targets, mut weights) = (Vec::new(), Vec::new());
        let mut row: Vec<u64> = Vec::new();
        offsets.push(0);
        for d in 0..m as u32 {
            row.clear();
            row.extend(edges(d).map(|(u, w)| row_key(u, w)));
            row.sort_unstable();
            targets.extend(row.iter().map(|&key| key as u32));
            weights.extend(row.iter().map(|&key| (key >> 32) as Weight));
            assert!(
                targets.len() <= u32::MAX as usize,
                "G_k adjacency exceeds u32 offsets; widen DenseCsr::offsets"
            );
            offsets.push(targets.len() as u32);
        }
        Self {
            offsets,
            targets,
            weights,
        }
    }

    /// Compacts the undirected residual graph `gk` (over the full universe)
    /// through `ids`.
    pub fn from_gk(gk: &CsrGraph, ids: &GkIdMap) -> Self {
        Self::build(ids.len(), |d| {
            gk.edges(ids.global(d)).map(|(u, w)| {
                let du = ids.dense(u).expect("G_k edge endpoint outside G_k");
                (du, w)
            })
        })
    }
}

impl<S: AsRef<[u32]>> DenseCsr<S> {
    /// Number of compact vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.as_ref().len().saturating_sub(1)
    }

    /// Number of stored (directed) adjacency entries.
    pub fn num_entries(&self) -> usize {
        self.targets.as_ref().len()
    }

    /// The targets and weights of compact vertex `d`'s row, in ascending
    /// `(weight, neighbour)` order.
    #[inline]
    pub(crate) fn row(&self, d: u32) -> (&[u32], &[Weight]) {
        let offsets = self.offsets.as_ref();
        let lo = offsets[d as usize] as usize;
        let hi = offsets[d as usize + 1] as usize;
        (
            &self.targets.as_ref()[lo..hi],
            &self.weights.as_ref()[lo..hi],
        )
    }

    /// Resident bytes of the CSR arrays.
    pub fn memory_bytes(&self) -> usize {
        (self.offsets.as_ref().len() + 2 * self.num_entries()) * std::mem::size_of::<u32>()
    }

    /// The offsets, targets and weights arrays: the artifact's
    /// `GK_OFFSETS`, `GK_TARGETS` and `GK_WEIGHTS` sections, verbatim.
    pub(crate) fn arrays(&self) -> [&[u32]; 3] {
        [
            self.offsets.as_ref(),
            self.targets.as_ref(),
            self.weights.as_ref(),
        ]
    }

    fn view(&self) -> DenseCsr<&[u32]> {
        let [offsets, targets, weights] = self.arrays();
        DenseCsr {
            offsets,
            targets,
            weights,
        }
    }
}

impl<S: AsRef<[u32]>> DenseView for DenseCsr<S> {
    fn num_vertices(&self) -> usize {
        DenseCsr::num_vertices(self)
    }

    #[inline]
    fn edges_of(&self, d: u32) -> impl Iterator<Item = (u32, Weight)> + '_ {
        self.ordered_run(d)
    }

    #[inline]
    fn ordered_run(&self, d: u32) -> impl Iterator<Item = (u32, Weight)> + '_ {
        let (targets, weights) = self.row(d);
        targets.iter().copied().zip(weights.iter().copied())
    }

    #[inline]
    fn tail_of(&self, _d: u32) -> impl Iterator<Item = (u32, Weight)> + '_ {
        std::iter::empty()
    }

    #[inline]
    fn prefetch_row(&self, d: u32) {
        // A row spans two arrays: hint both.
        if let Some(&lo) = self.offsets.as_ref().get(d as usize) {
            crate::kernel::prefetch_index(self.targets.as_ref(), lo as usize);
            crate::kernel::prefetch_index(self.weights.as_ref(), lo as usize);
        }
    }
}

/// The input graph as a view: its vertex ids are already compact, and its
/// rows are in neighbour order, not weight order, so every row is tail and
/// rule 1 skips an entry instead of cutting the row. This is how IM-DIJ
/// (`islabel-baselines`' `BiDijkstra`) runs Algorithm 1's kernel with one
/// seed per side and µ0 = ∞.
impl DenseView for CsrGraph {
    fn num_vertices(&self) -> usize {
        CsrGraph::num_vertices(self)
    }

    #[inline]
    fn edges_of(&self, d: u32) -> impl Iterator<Item = (u32, Weight)> + '_ {
        self.edges(d)
    }
}

/// Dynamic-update deltas in compact-id space: an append-only *tail* of
/// dense ids for inserted vertices, a tombstone bitmap for deletions, and
/// per-vertex extra adjacency — what keeps an updated index on the same
/// zero-alloc kernel as a pristine one. The update overlay
/// ([`crate::updates::Overlay`]) owns one from its first mutation on and
/// maintains it op by op; sessions borrow it.
///
/// Tail ids extend the base mapping order-preservingly: inserted global id
/// `base_n + j` becomes dense id `base_len + j`, so the combined dense id
/// order is still the global id order and the heap tie-breaking of
/// [`dense_search`] does not depend on which vertices were inserted.
///
/// Nothing is ever removed: a tombstoned vertex keeps its list and stays
/// in its neighbours' lists, and [`PatchedDense::edges_of`] filters both.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DensePatch {
    /// Number of base compact ids; tail ids start here.
    base_len: u32,
    /// Number of appended (inserted-vertex) ids.
    tail: u32,
    /// Tombstone bitmap over `base_len + tail` dense ids.
    dead: Vec<u64>,
    /// Extra adjacency per dense id, push order preserved.
    extra: Vec<Vec<(u32, Weight)>>,
}

impl DensePatch {
    /// An empty patch over `base_len` base ids plus `tail` appended ids.
    pub fn new(base_len: usize, tail: usize) -> Self {
        let m = base_len + tail;
        Self {
            base_len: base_len as u32,
            tail: tail as u32,
            dead: vec![0u64; m.div_ceil(64)],
            extra: vec![Vec::new(); m],
        }
    }

    /// Total dense id range (base plus tail).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        (self.base_len + self.tail) as usize
    }

    /// Number of appended (inserted-vertex) dense ids.
    pub fn tail(&self) -> u32 {
        self.tail
    }

    /// Appends one inserted vertex to the tail and returns its dense id:
    /// alive, with no adjacency yet.
    pub fn push_vertex(&mut self) -> u32 {
        let d = self.base_len + self.tail;
        self.tail += 1;
        self.extra.push(Vec::new());
        if self.dead.len() * 64 < self.num_vertices() {
            self.dead.push(0);
        }
        d
    }

    /// Tombstones dense id `d`.
    pub fn mark_dead(&mut self, d: u32) {
        self.dead[(d / 64) as usize] |= 1u64 << (d % 64);
    }

    /// Whether dense id `d` is tombstoned.
    #[inline]
    pub fn is_dead(&self, d: u32) -> bool {
        (self.dead[(d / 64) as usize] >> (d % 64)) & 1 == 1
    }

    /// Appends an extra (directed) adjacency entry to `from`'s list.
    pub fn push_edge(&mut self, from: u32, to: u32, w: Weight) {
        self.extra[from as usize].push((to, w));
    }

    /// Resident bytes, by capacity: the bitmap, the list headers and every
    /// list's buffer.
    pub fn memory_bytes(&self) -> usize {
        self.dead.capacity() * std::mem::size_of::<u64>()
            + self.extra.capacity() * std::mem::size_of::<Vec<(u32, Weight)>>()
            + self
                .extra
                .iter()
                .map(|l| l.capacity() * std::mem::size_of::<(u32, Weight)>())
                .sum::<usize>()
    }

    /// `d`'s extra adjacency as pushed, tombstoned endpoints included.
    #[inline]
    pub(crate) fn extra_of(&self, d: u32) -> &[(u32, Weight)] {
        &self.extra[d as usize]
    }
}

/// A [`DenseView`] of the base compact CSR with a [`DensePatch`] applied:
/// a vertex's base adjacency first (the weight-ordered run), then the
/// patch's extra adjacency in push order (the tail, read in full), with
/// tombstoned endpoints filtered from both.
#[derive(Debug, Clone, Copy)]
pub struct PatchedDense<'a, S = Vec<u32>> {
    /// The pristine base adjacency (dense ids `0..base_len`).
    pub base: &'a DenseCsr<S>,
    /// The dynamic-update deltas.
    pub patch: &'a DensePatch,
}

impl<S: AsRef<[u32]>> DenseView for PatchedDense<'_, S> {
    fn num_vertices(&self) -> usize {
        self.patch.num_vertices()
    }

    fn edges_of(&self, d: u32) -> impl Iterator<Item = (u32, Weight)> + '_ {
        self.ordered_run(d).chain(self.tail_of(d))
    }

    #[inline]
    fn ordered_run(&self, d: u32) -> impl Iterator<Item = (u32, Weight)> + '_ {
        (d < self.patch.base_len && !self.patch.is_dead(d))
            .then(|| self.base.ordered_run(d))
            .into_iter()
            .flatten()
            .filter(|&(u, _)| !self.patch.is_dead(u))
    }

    #[inline]
    fn tail_of(&self, d: u32) -> impl Iterator<Item = (u32, Weight)> + '_ {
        (!self.patch.is_dead(d))
            .then(|| self.patch.extra_of(d).iter().copied())
            .into_iter()
            .flatten()
            .filter(|&(u, _)| !self.patch.is_dead(u))
    }

    #[inline]
    fn prefetch_row(&self, d: u32) {
        if d < self.patch.base_len {
            self.base.prefetch_row(d);
        }
    }
}

/// The dense search substrate of one index: the compact id map plus the
/// remapped residual adjacency (and, for directed indexes, its transpose).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DenseGk<S = Vec<u32>> {
    pub(crate) ids: GkIdMap<S>,
    pub(crate) fwd: DenseCsr<S>,
    /// Transposed arcs for the reverse frontier; `None` for undirected
    /// graphs (the forward CSR is symmetric).
    pub(crate) rev: Option<DenseCsr<S>>,
}

impl DenseGk {
    /// Builds the undirected substrate from a full-universe residual graph.
    pub fn undirected(universe: usize, members: &[VertexId], gk: &CsrGraph) -> Self {
        let ids = GkIdMap::build(universe, members);
        let fwd = DenseCsr::from_gk(gk, &ids);
        Self {
            ids,
            fwd,
            rev: None,
        }
    }

    /// Builds a directed substrate from pre-remapped forward/reverse CSRs.
    pub fn directed(ids: GkIdMap, fwd: DenseCsr, rev: DenseCsr) -> Self {
        Self {
            ids,
            fwd,
            rev: Some(rev),
        }
    }
}

impl DenseGk<&[u32]> {
    /// No vertex and no row: what a label-only index searches.
    pub(crate) fn empty() -> Self {
        let csr = DenseCsr {
            offsets: &[][..],
            targets: &[],
            weights: &[],
        };
        Self {
            ids: GkIdMap {
                dense_of: &[],
                global_of: &[],
            },
            fwd: csr,
            rev: None,
        }
    }
}

impl<S: AsRef<[u32]>> DenseGk<S> {
    /// The compact id map.
    #[inline]
    pub fn ids(&self) -> &GkIdMap<S> {
        &self.ids
    }

    /// Forward adjacency over compact ids.
    #[inline]
    pub fn fwd(&self) -> &DenseCsr<S> {
        &self.fwd
    }

    /// Reverse adjacency (the forward CSR itself when undirected).
    #[inline]
    pub fn rev(&self) -> &DenseCsr<S> {
        self.rev.as_ref().unwrap_or(&self.fwd)
    }

    /// Resident bytes of ids and adjacency.
    pub fn memory_bytes(&self) -> usize {
        self.ids.memory_bytes()
            + self.fwd.memory_bytes()
            + self.rev.as_ref().map_or(0, DenseCsr::memory_bytes)
    }

    /// The arrays borrowed as plain slices.
    pub fn view(&self) -> DenseGk<&[u32]> {
        DenseGk {
            ids: self.ids.view(),
            fwd: self.fwd.view(),
            rev: self.rev.as_ref().map(DenseCsr::view),
        }
    }
}

/// A flat array with O(1) whole-array reset via generation stamps.
///
/// Each slot pairs a value with the epoch it was written in; a slot "holds"
/// a value only when its stamp equals the current epoch, so
/// [`reset`](StampedSlab::reset) is a single counter increment — no
/// per-query clearing, hashing, or allocation. On the (rare) epoch-counter
/// wrap the stamps are zeroed once, keeping correctness unconditional.
#[derive(Debug, Clone)]
pub struct StampedSlab<T> {
    vals: Vec<T>,
    stamps: Vec<u32>,
    epoch: u32,
}

impl<T: Copy + Default> StampedSlab<T> {
    /// A slab of `n` unset slots.
    pub fn new(n: usize) -> Self {
        Self {
            vals: vec![T::default(); n],
            stamps: vec![0; n],
            epoch: 1,
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// Whether the slab has no slots.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Moves the epoch counter, so a test can put a reset on the wrap.
    #[cfg(test)]
    pub(crate) fn force_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }

    /// Unsets every slot in O(1) by bumping the epoch.
    #[inline]
    pub fn reset(&mut self) {
        if self.epoch == u32::MAX {
            self.stamps.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    /// The value of slot `i`, if written since the last reset.
    #[inline]
    pub fn get(&self, i: u32) -> Option<T> {
        (self.stamps[i as usize] == self.epoch).then(|| self.vals[i as usize])
    }

    /// Whether slot `i` was written since the last reset.
    #[inline]
    pub fn contains(&self, i: u32) -> bool {
        self.stamps[i as usize] == self.epoch
    }

    /// Writes slot `i`.
    #[inline]
    pub fn set(&mut self, i: u32, v: T) {
        self.vals[i as usize] = v;
        self.stamps[i as usize] = self.epoch;
    }
}

/// An indexed 4-ary min-heap with decrease-key over compact vertex ids.
///
/// Entries are `(key, vertex)` ordered by `(key, vertex)` — the same total
/// order `BinaryHeap<Reverse<(Dist, VertexId)>>` pops in (the unit tests
/// model it against one), so settle order, `settled` counts and meeting
/// vertices are functions of the graph alone. Unlike a lazy-deletion heap
/// there is **at most one live entry per vertex**: a relaxation either
/// inserts or sifts the existing entry up, so the heap never exceeds
/// `|G_k|` slots and `pop` never revisits stale state.
///
/// One word per entry: a slot is `(key − base) << 32 | vertex`, so a
/// single `u64` compare orders by `(key, vertex)` and a node's four
/// children fill 32 bytes. `base` is a per-heap offset that
/// [`clear`](IndexedHeap::clear) sets to 0. A key whose offset from
/// `base` does not fit in 32 bits moves `base` to the smaller of that key
/// and the queued minimum, shifting every entry; it panics if the queued
/// keys would then span more than `u32::MAX`. A Dijkstra search with
/// `u32` weights and `u32` seeds never queues a wider span
/// (`docs/adr/0017-one-word-heap-entries.md`), so on every search in this
/// workspace the shift is at most a rare cold path and never a panic.
///
/// 4-ary layout: children of slot `i` are `4i + 1 ..= 4i + 4`. A wider node
/// trades deeper sift-downs for fewer cache-missing levels, the standard
/// choice for Dijkstra workloads.
///
/// Deliberately not `Clone`: `Vec::clone` copies length, not capacity, so
/// a cloned heap would silently lose the pre-reservation this type's
/// allocation-free contract rests on. Build a fresh one with
/// [`IndexedHeap::new`] instead.
#[derive(Debug)]
pub struct IndexedHeap {
    /// Heap-ordered entries, each `(key − base) << 32 | vertex`.
    slots: Vec<u64>,
    /// The key an entry's upper half counts from.
    base: Dist,
    /// `pos.get(v)` is `v`'s slot index while `v` is queued this epoch.
    pos: StampedSlab<u32>,
}

impl IndexedHeap {
    /// An empty heap addressing vertices `0..n`, with slot storage
    /// pre-reserved so pushes never reallocate (at most one live entry per
    /// vertex bounds the heap by `n`).
    pub fn new(n: usize) -> Self {
        Self {
            slots: Vec::with_capacity(n),
            base: 0,
            pos: StampedSlab::new(n),
        }
    }

    /// Number of queued vertices.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no vertex is queued.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Empties the heap in O(1) (epoch bump + length reset).
    #[inline]
    pub fn clear(&mut self) {
        self.slots.clear();
        self.base = 0;
        self.pos.reset();
    }

    /// The minimum key, or [`INF`] when empty — the `min(FQ)` / `min(RQ)`
    /// read of Algorithm 1's cutoff, with no stale-entry cleanup needed.
    #[inline]
    pub fn peek_key(&self) -> Dist {
        self.slots.first().map_or(INF, |&e| self.key_of(e))
    }

    /// The minimum `(key, vertex)` without popping — what the search
    /// uses to prefetch the likely-next settle's adjacency row while the
    /// current row is relaxed.
    #[inline]
    pub fn peek(&self) -> Option<(Dist, u32)> {
        self.slots.first().map(|&e| (self.key_of(e), e as u32))
    }

    /// Pops the minimum `(key, vertex)`.
    pub fn pop(&mut self) -> Option<(Dist, u32)> {
        let top = *self.slots.first()?;
        let last = self.slots.pop().expect("non-empty");
        if !self.slots.is_empty() {
            self.slots[0] = last;
            self.sift_down(0);
        }
        // Leave `top`'s position stamped-but-dangling: `contains` is only
        // meaningful for queued vertices, and the search never re-pushes a
        // settled vertex (its tentative distance is already final).
        Some((self.key_of(top), top as u32))
    }

    /// Inserts `v` with `key`, or lowers `v`'s existing key if `key`
    /// improves it; returns whether the heap changed. A `key` at or above
    /// the queued one is ignored (the caller's relaxation test should make
    /// that unreachable for Dijkstra, but the heap stays safe regardless).
    ///
    /// # Panics
    ///
    /// If the queued keys and `key` would span more than `u32::MAX`.
    pub fn push_or_decrease(&mut self, v: u32, key: Dist) -> bool {
        match self.pos.get(v) {
            Some(slot)
                if (slot as usize) < self.slots.len() && self.slots[slot as usize] as u32 == v =>
            {
                let slot = slot as usize;
                if key >= self.key_of(self.slots[slot]) {
                    return false;
                }
                self.slots[slot] = self.pack(key, v, slot);
                self.sift_up(slot);
            }
            _ => {
                let packed = self.pack(key, v, usize::MAX);
                self.slots.push(packed);
                self.sift_up(self.slots.len() - 1);
            }
        }
        true
    }

    /// The absolute key of a packed entry.
    #[inline]
    fn key_of(&self, entry: u64) -> Dist {
        self.base + (entry >> 32)
    }

    /// Packs `(key, v)` for slot `replacing` (`usize::MAX` for a new
    /// slot), rebasing first when `key − base` does not fit in the upper
    /// 32 bits (including `key < base`, which wraps).
    #[inline]
    fn pack(&mut self, key: Dist, v: u32, replacing: usize) -> u64 {
        let mut offset = key.wrapping_sub(self.base);
        if offset > u64::from(u32::MAX) {
            offset = self.rebase(key, replacing);
        }
        offset << 32 | u64::from(v)
    }

    /// Moves `base` to `min(key, queued minimum)` and shifts every queued
    /// entry by the difference, which preserves the heap order; returns
    /// `key`'s new offset. The entry in slot `replacing`, about to be
    /// overwritten by `key`, does not count toward the span.
    #[cold]
    #[inline(never)]
    fn rebase(&mut self, key: Dist, replacing: usize) -> u64 {
        let new_base = key.min(self.peek_key());
        let top = (self.slots.iter().enumerate())
            .filter(|&(i, _)| i != replacing)
            .map(|(_, &e)| self.key_of(e))
            .fold(key, Dist::max);
        assert!(
            top - new_base <= u64::from(u32::MAX),
            "IndexedHeap: queued keys {new_base}..={top} span more than u32::MAX"
        );
        let old_base = self.base;
        for e in &mut self.slots {
            let k = old_base + (*e >> 32);
            *e = (k - new_base) << 32 | (*e & u64::from(u32::MAX));
        }
        self.base = new_base;
        key - new_base
    }

    fn sift_up(&mut self, mut i: usize) {
        let entry = self.slots[i];
        while i > 0 {
            let parent = (i - 1) / 4;
            let p = self.slots[parent];
            if p <= entry {
                break;
            }
            self.slots[i] = p;
            self.pos.set(p as u32, i as u32);
            i = parent;
        }
        self.slots[i] = entry;
        self.pos.set(entry as u32, i as u32);
    }

    fn sift_down(&mut self, mut i: usize) {
        let entry = self.slots[i];
        let n = self.slots.len();
        loop {
            let first = 4 * i + 1;
            if first >= n {
                break;
            }
            let mut best = first;
            let last = (first + 4).min(n);
            for c in (first + 1)..last {
                if self.slots[c] < self.slots[best] {
                    best = c;
                }
            }
            let b = self.slots[best];
            if entry <= b {
                break;
            }
            self.slots[i] = b;
            self.pos.set(b as u32, i as u32);
            i = best;
        }
        self.slots[i] = entry;
        self.pos.set(entry as u32, i as u32);
    }
}

/// Where [`dense_search`] writes predecessor pointers: the compile-time
/// choice between a distance query and a path query (paper Section 8.1).
/// The kernel is monomorphised per sink, and with [`NoParents`] both
/// methods are empty, so that instantiation executes no parent store.
pub trait ParentSink {
    /// Forgets the previous search.
    fn reset(&mut self);

    /// `child` was reached from `parent` on the forward (`true`) or reverse
    /// frontier; `parent` is [`NO_DENSE`] for a label seed. A later, shorter
    /// relaxation of `child` overwrites the entry.
    fn record(&mut self, forward: bool, child: u32, parent: u32);
}

/// The distance-query sink: records nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoParents;

impl ParentSink for NoParents {
    #[inline(always)]
    fn reset(&mut self) {}

    #[inline(always)]
    fn record(&mut self, _forward: bool, _child: u32, _parent: u32) {}
}

/// The path-query sink: one stamped predecessor array per frontier.
#[derive(Debug)]
pub struct DenseParents {
    fwd: StampedSlab<u32>,
    rev: StampedSlab<u32>,
}

impl DenseParents {
    /// The chain that reached `m` on the forward (`true`) or reverse
    /// frontier of the last search, seed first and `m` last; `None` when
    /// that side never reached `m`.
    pub fn chain(&self, forward: bool, m: u32) -> Option<Vec<u32>> {
        let parents = if forward { &self.fwd } else { &self.rev };
        let mut chain = vec![m];
        loop {
            let p = parents.get(chain[chain.len() - 1])?;
            if p == NO_DENSE {
                break;
            }
            chain.push(p);
            // Every step leads to a vertex settled strictly earlier.
            debug_assert!(chain.len() <= parents.len(), "parent cycle");
        }
        chain.reverse();
        Some(chain)
    }
}

impl ParentSink for DenseParents {
    #[inline]
    fn reset(&mut self) {
        self.fwd.reset();
        self.rev.reset();
    }

    #[inline]
    fn record(&mut self, forward: bool, child: u32, parent: u32) {
        if forward {
            self.fwd.set(child, parent);
        } else {
            self.rev.set(child, parent);
        }
    }
}

/// Reusable workspace of one bidirectional search: stamped tentative
/// distances, the two indexed frontiers and the [`ParentSink`].
///
/// A session sizes this once against `|G_k|` and every later search resets
/// it in O(1); [`dense_search`] performs no heap allocation. Not `Clone`
/// (see [`IndexedHeap`]) — each thread builds its own. [`DenseScratch::new`]
/// gives the distance-query workspace every session holds;
/// [`DenseScratch::with_parents`] adds the two predecessor arrays, which
/// only a path query pays for.
#[derive(Debug)]
pub struct DenseScratch<P = NoParents> {
    dist_f: StampedSlab<Dist>,
    dist_r: StampedSlab<Dist>,
    fq: IndexedHeap,
    rq: IndexedHeap,
    parents: P,
}

impl DenseScratch {
    /// A workspace for distance searches over `m = |G_k|` compact
    /// vertices; all arrays and both heaps are fully pre-sized.
    pub fn new(m: usize) -> Self {
        Self::sized(m, NoParents)
    }
}

impl DenseScratch<DenseParents> {
    /// A workspace for path searches over `m` compact vertices.
    pub fn with_parents(m: usize) -> Self {
        Self::sized(
            m,
            DenseParents {
                fwd: StampedSlab::new(m),
                rev: StampedSlab::new(m),
            },
        )
    }

    /// The predecessor pointers of the last search.
    pub fn parents(&self) -> &DenseParents {
        &self.parents
    }
}

impl<P: ParentSink> DenseScratch<P> {
    fn sized(m: usize, parents: P) -> Self {
        Self {
            dist_f: StampedSlab::new(m),
            dist_r: StampedSlab::new(m),
            fq: IndexedHeap::new(m),
            rq: IndexedHeap::new(m),
            parents,
        }
    }

    /// Number of compact vertices this scratch is sized for.
    pub fn capacity(&self) -> usize {
        self.dist_f.len()
    }

    fn reset(&mut self) {
        self.dist_f.reset();
        self.dist_r.reset();
        self.fq.clear();
        self.rq.clear();
        self.parents.reset();
    }
}

/// Algorithm 1 for a distance query: [`dense_search`] with parent
/// recording compiled out.
pub fn dense_bi_dijkstra<G: DenseView>(
    fwd: &G,
    rev: &G,
    fseeds: &[(u32, Dist)],
    rseeds: &[(u32, Dist)],
    mu0: Dist,
    mu0_witness: Option<VertexId>,
    scratch: &mut DenseScratch,
) -> SearchOutcome {
    dense_search(fwd, rev, fseeds, rseeds, mu0, mu0_witness, scratch)
}

/// Algorithm 1: label-seeded bidirectional Dijkstra over compact ids,
/// allocation-free inside `scratch`.
///
/// `fseeds` / `rseeds` carry **compact** ids (map label ancestors through
/// [`GkIdMap::dense`]); the returned [`Meeting::Search`] vertex is likewise
/// compact — callers map it back with [`GkIdMap::global`]. The reverse
/// search runs over `rev`, the transposed arcs of a directed index
/// (Section 8.2) and `fwd` itself otherwise.
///
/// Differences from the paper's pseudocode, all conservative:
/// * vertices enter the queues on demand instead of all starting at `∞`;
/// * µ bounds the work by the two rules of the [module docs](self): the
///   first relaxation to a key `nd` with `nd + min(opposite queue) ≥ µ`
///   ends the row's weight-ordered run (a tail entry is only skipped),
///   and one that lands is checked against the opposite side's tentative
///   distance, as is every vertex when it settles.
///
/// With `P =` [`DenseParents`] every tentative-distance write also records
/// where it came from, which is all a path query adds.
pub fn dense_search<G: DenseView, P: ParentSink>(
    fwd: &G,
    rev: &G,
    fseeds: &[(u32, Dist)],
    rseeds: &[(u32, Dist)],
    mu0: Dist,
    mu0_witness: Option<VertexId>,
    scratch: &mut DenseScratch<P>,
) -> SearchOutcome {
    debug_assert!(scratch.capacity() >= fwd.num_vertices());
    scratch.reset();
    let mut mu = mu0;
    // The witness is a *global* id (a label ancestor that may not be in
    // G_k); it is returned verbatim when Equation 1 wins.
    let mut meeting = match mu0_witness {
        Some(w) if mu < INF => Meeting::Labels(w),
        _ => Meeting::None,
    };

    let DenseScratch {
        dist_f,
        dist_r,
        fq,
        rq,
        parents,
    } = scratch;

    let (mut settled, mut relaxed, mut pushed) = (0usize, 0usize, 0usize);
    for &(v, d) in fseeds {
        if dist_f.get(v).is_none_or(|cur| d < cur) {
            dist_f.set(v, d);
            fq.push_or_decrease(v, d);
            parents.record(true, v, NO_DENSE);
            pushed += 1;
        }
    }
    for &(v, d) in rseeds {
        if dist_r.get(v).is_none_or(|cur| d < cur) {
            dist_r.set(v, d);
            rq.push_or_decrease(v, d);
            parents.record(false, v, NO_DENSE);
            pushed += 1;
        }
    }

    loop {
        let min_f = fq.peek_key();
        let min_r = rq.peek_key();
        // Line 8: stop when either frontier is exhausted or no via-G_k path
        // can beat µ.
        if min_f == INF || min_r == INF {
            break;
        }
        if min_f.saturating_add(min_r) >= mu {
            break;
        }

        // Settle the cheaper frontier, ties to forward. `min_y` is the
        // opposite queue's minimum, constant for this settle.
        let forward = min_f <= min_r;
        let (g, q, dist_x, dist_y, min_y) = if forward {
            (fwd, &mut *fq, &mut *dist_f, &*dist_r, min_r)
        } else {
            (rev, &mut *rq, &mut *dist_r, &*dist_f, min_f)
        };
        let (d, v) = q.pop().expect("peek_key returned a finite minimum");
        // While v's row is decoded and relaxed, pull the likely-next
        // settle's adjacency row toward L1 (best-effort: a decrease-key
        // may still reorder the queue before the next pop).
        if let Some((_, next)) = q.peek() {
            g.prefetch_row(next);
        }
        settled += 1;
        // Settle-time meeting check: any distance on the other side
        // (tentative or settled) closes a real path.
        if let Some(dy) = dist_y.get(v) {
            let cand = d.saturating_add(dy);
            if cand < mu {
                mu = cand;
                meeting = Meeting::Search(v);
            }
        }
        let mut relax = |u: u32, nd: Dist, mu: &mut Dist| {
            if dist_x.get(u).is_none_or(|cur| nd < cur) {
                dist_x.set(u, nd);
                q.push_or_decrease(u, nd);
                parents.record(forward, u, v);
                pushed += 1;
                // Lines 17–18, on the tentative distance.
                if let Some(dy) = dist_y.get(u) {
                    let cand = nd.saturating_add(dy);
                    if cand < *mu {
                        *mu = cand;
                        meeting = Meeting::Search(u);
                    }
                }
            }
        };
        // Rule 1. `d` and `min_y` are fixed for this settle and µ only
        // shrinks, so in the weight-ordered run the first entry rejected
        // rejects every later one: the run is cut there. The tail has no
        // order and is read in full.
        for (u, w) in g.ordered_run(v) {
            relaxed += 1;
            let nd = d + w as Dist;
            if nd.saturating_add(min_y) >= mu {
                break;
            }
            relax(u, nd, &mut mu);
        }
        for (u, w) in g.tail_of(v) {
            relaxed += 1;
            let nd = d + w as Dist;
            if nd.saturating_add(min_y) < mu {
                relax(u, nd, &mut mu);
            }
        }
    }

    SearchOutcome {
        dist: mu,
        meeting: if mu == INF { Meeting::None } else { meeting },
        settled,
        relaxed,
        pushed,
    }
}

/// One whole query: Equation 1 via [`crate::kernel::intersect_min_auto`]
/// (the single entry point every engine shares), label seeds translated to
/// compact ids through `to_dense` (the lookup doubling as the `G_k`
/// membership filter), then [`dense_search`]. The returned meeting vertex
/// is still compact — callers wanting global ids apply
/// [`globalize_outcome`].
///
/// Shared by the undirected, directed, patched-overlay, and mmap
/// sessions (pass the out-label of `s` and the in-label of `t` for a
/// directed query), and by the one-shot, from-labels and path queries of
/// [`crate::IsLabelIndex`], so neither the seed handling nor the intersect
/// kernel can drift between them: pristine heap sessions pass
/// [`GkIdMap::dense`], the mmap session a closure over its mapped
/// `dense_of` section, and the patched session its tail-aware extension
/// of the base map.
///
/// When `trace.enabled`, the phase boundaries (intersect → seed fetch →
/// dense search) are timestamped — four `Instant::now()` reads per
/// query, three when `fwd` has no vertices and the seed scan is skipped,
/// none inside a loop — and accumulated into `trace` as plain field
/// adds, preserving this function's zero-allocation contract.
#[allow(clippy::too_many_arguments)]
pub fn seeded_search<G: DenseView, P: ParentSink>(
    ls: crate::label::LabelView<'_>,
    lt: crate::label::LabelView<'_>,
    to_dense: impl Fn(VertexId) -> Option<u32>,
    fwd: &G,
    rev: &G,
    fseeds: &mut Vec<(u32, Dist)>,
    rseeds: &mut Vec<(u32, Dist)>,
    scratch: &mut DenseScratch<P>,
    trace: &mut crate::trace::QueryTrace,
) -> SearchOutcome {
    let t0 = trace.enabled.then(std::time::Instant::now);
    let (mu0, witness) = crate::kernel::intersect_min_auto(ls, lt);
    let t1 = trace.enabled.then(std::time::Instant::now);
    fseeds.clear();
    rseeds.clear();
    // A view with no vertices (a full hierarchy, `G_k = ∅`) has no seed
    // to find, so the scan and its clock read are skipped. The view
    // counts a patched tail, so inserted vertices are still seeded.
    let t2 = if fwd.num_vertices() == 0 {
        t1
    } else {
        for (a, d) in ls.iter() {
            if let Some(da) = to_dense(a) {
                fseeds.push((da, d));
            }
        }
        for (a, d) in lt.iter() {
            if let Some(da) = to_dense(a) {
                rseeds.push((da, d));
            }
        }
        trace.enabled.then(std::time::Instant::now)
    };
    let out = dense_search(fwd, rev, fseeds, rseeds, mu0, witness, scratch);
    if let (Some(t0), Some(t1), Some(t2)) = (t0, t1, t2) {
        let t3 = std::time::Instant::now();
        trace.record_query(crate::trace::PhaseSample {
            intersect_ns: t1.duration_since(t0).as_nanos() as u64,
            seed_ns: t2.duration_since(t1).as_nanos() as u64,
            search_ns: t3.duration_since(t2).as_nanos() as u64,
            settled: out.settled as u64,
            relaxed: out.relaxed as u64,
            pushed: out.pushed as u64,
        });
    }
    out
}

/// Maps a dense search outcome's meeting vertex back to global ids.
pub fn globalize_outcome<S: AsRef<[u32]>>(
    outcome: SearchOutcome,
    ids: &GkIdMap<S>,
) -> SearchOutcome {
    SearchOutcome {
        meeting: match outcome.meeting {
            Meeting::Search(d) => Meeting::Search(ids.global(d)),
            other => other,
        },
        ..outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[test]
    fn gk_id_map_roundtrip() {
        let map = GkIdMap::build(10, &[1, 4, 7, 9]);
        assert_eq!(map.len(), 4);
        assert_eq!(map.dense(4), Some(1));
        assert_eq!(map.dense(0), None);
        for d in 0..4u32 {
            assert_eq!(map.dense(map.global(d)), Some(d));
        }
        assert!(map.memory_bytes() >= 10 * 4 + 4 * 4);
        assert!(!map.is_empty());
        assert!(GkIdMap::build(3, &[]).is_empty());
    }

    #[test]
    fn stamped_slab_reset_is_logical_clear() {
        let mut s: StampedSlab<u64> = StampedSlab::new(4);
        assert_eq!(s.get(2), None);
        s.set(2, 7);
        assert_eq!(s.get(2), Some(7));
        assert!(s.contains(2));
        s.reset();
        assert_eq!(s.get(2), None);
        assert!(!s.contains(2));
        s.set(2, 9);
        assert_eq!(s.get(2), Some(9));
    }

    #[test]
    fn stamped_slab_epoch_wrap_stays_correct() {
        let mut s: StampedSlab<u32> = StampedSlab::new(2);
        s.set(0, 1);
        // Force the wrap path.
        s.epoch = u32::MAX - 1;
        s.set(1, 5);
        assert_eq!(s.get(1), Some(5));
        s.reset(); // epoch becomes MAX
        s.set(0, 6);
        s.reset(); // wrap: stamps zeroed, epoch back to 1
        assert_eq!(s.get(0), None);
        assert_eq!(s.get(1), None);
        s.set(1, 8);
        assert_eq!(s.get(1), Some(8));
    }

    #[test]
    fn indexed_heap_matches_binary_heap_model() {
        // Deterministic pseudo-random operation stream checked against a
        // lazy-deletion BinaryHeap reference.
        let n = 64u32;
        let mut heap = IndexedHeap::new(n as usize);
        let mut model: BinaryHeap<Reverse<(Dist, u32)>> = BinaryHeap::new();
        let mut best = vec![INF; n as usize];
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..4 {
            heap.clear();
            model.clear();
            best.fill(INF);
            for _ in 0..400 {
                let v = (next() % n as u64) as u32;
                let key = (next() % 1000) as Dist;
                heap.push_or_decrease(v, key);
                if key < best[v as usize] {
                    best[v as usize] = key;
                    model.push(Reverse((key, v)));
                }
            }
            // Drain both; the model needs lazy-deletion cleanup.
            let mut drained = Vec::new();
            while let Some((k, v)) = heap.pop() {
                drained.push((k, v));
            }
            let mut expect = Vec::new();
            let mut settled = vec![false; n as usize];
            while let Some(Reverse((k, v))) = model.pop() {
                if !settled[v as usize] && k == best[v as usize] {
                    settled[v as usize] = true;
                    expect.push((k, v));
                }
            }
            assert_eq!(drained, expect, "round {round}");
            assert!(heap.is_empty());
            assert_eq!(heap.peek_key(), INF);
        }
    }

    #[test]
    fn indexed_heap_decrease_key_reorders() {
        let mut h = IndexedHeap::new(8);
        for (v, k) in [(0u32, 50u64), (1, 40), (2, 30), (3, 20)] {
            assert!(h.push_or_decrease(v, k));
        }
        // Raising a key is a no-op.
        assert!(!h.push_or_decrease(3, 25));
        assert_eq!(h.peek_key(), 20);
        // Decrease 0 below everything.
        assert!(h.push_or_decrease(0, 1));
        assert_eq!(h.pop(), Some((1, 0)));
        assert_eq!(h.pop(), Some((20, 3)));
        assert_eq!(h.pop(), Some((30, 2)));
        assert_eq!(h.pop(), Some((40, 1)));
        assert_eq!(h.pop(), None);
        assert_eq!(h.len(), 0);
    }

    #[test]
    fn indexed_heap_ties_pop_by_vertex_id() {
        let mut h = IndexedHeap::new(8);
        for v in [5u32, 2, 7, 0, 3] {
            h.push_or_decrease(v, 10);
        }
        let order: Vec<u32> = std::iter::from_fn(|| h.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, vec![0, 2, 3, 5, 7]);
    }

    #[test]
    fn indexed_heap_rebases_across_u32_boundaries() {
        // A Dijkstra-shaped stream: every key lies within 2^31 above the
        // last pop, so keys climb past 2^32 several times and each climb
        // rebases. Checked pop by pop against the lazy-deletion model,
        // decrease-keys after a rebase included.
        let n = 4096u32;
        let mut heap = IndexedHeap::new(n as usize);
        let mut model: BinaryHeap<Reverse<(Dist, u32)>> = BinaryHeap::new();
        let mut best = vec![INF; n as usize];
        let mut settled = vec![false; n as usize];
        let mut state = 0x0bad_5eed_1234_5678u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let (mut floor, mut rebases, mut late_decreases) = (0 as Dist, 0, 0);
        let mut base = heap.base;
        for step in 0..6000 {
            if heap.len() < 32 && next() % 3 != 0 {
                let v = (next() % n as u64) as u32;
                if settled[v as usize] {
                    continue;
                }
                let key = floor + next() % (1 << 31);
                let improves = key < best[v as usize];
                if improves && best[v as usize] != INF && heap.base != 0 {
                    late_decreases += 1;
                }
                assert_eq!(heap.push_or_decrease(v, key), improves, "step {step}");
                if improves {
                    best[v as usize] = key;
                    model.push(Reverse((key, v)));
                }
            } else {
                let expect = model.pop().map(|Reverse(e)| e);
                assert_eq!(heap.pop(), expect, "step {step}");
                if let Some((k, v)) = expect {
                    settled[v as usize] = true;
                    floor = k;
                }
            }
            // Drop the model's stale tops, so its top is the live minimum.
            while let Some(&Reverse((k, v))) = model.peek() {
                if !settled[v as usize] && k == best[v as usize] {
                    break;
                }
                model.pop();
            }
            assert_eq!(heap.peek(), model.peek().map(|r| r.0), "step {step}");
            if heap.base != base {
                base = heap.base;
                rebases += 1;
            }
        }
        assert!(floor > 4 << 32, "keys reached only {floor}");
        assert!(rebases >= 4, "{rebases} rebases");
        assert!(late_decreases > 0);
        heap.clear();
        assert_eq!(heap.base, 0);
        assert_eq!(heap.peek_key(), INF);
    }

    #[test]
    fn indexed_heap_holds_a_span_of_exactly_u32_max() {
        let mut h = IndexedHeap::new(4);
        let lo = 5u64 << 32;
        h.push_or_decrease(0, lo + u64::from(u32::MAX));
        h.push_or_decrease(1, lo);
        h.push_or_decrease(2, lo + 7);
        // Lowering the top entry below the rest does not count its old key.
        h.push_or_decrease(0, lo - u64::from(u32::MAX) + 7);
        assert_eq!(h.pop(), Some((lo - u64::from(u32::MAX) + 7, 0)));
        assert_eq!(h.pop(), Some((lo, 1)));
        assert_eq!(h.pop(), Some((lo + 7, 2)));
    }

    #[test]
    #[should_panic(expected = "span more than u32::MAX")]
    fn indexed_heap_refuses_a_span_wider_than_u32_max() {
        let mut h = IndexedHeap::new(4);
        h.push_or_decrease(0, 10);
        h.push_or_decrease(1, 10 + (1 << 32));
    }

    #[test]
    fn dense_csr_compacts_gk() {
        // Global graph over 6 vertices; members {1, 3, 5} form a path
        // 1 - 3 - 5.
        let mut b = islabel_graph::GraphBuilder::new(6);
        b.add_edge(1, 3, 2);
        b.add_edge(3, 5, 4);
        let gk = b.build();
        let ids = GkIdMap::build(6, &[1, 3, 5]);
        let csr = DenseCsr::from_gk(&gk, &ids);
        assert_eq!(csr.num_vertices(), 3);
        assert_eq!(csr.num_entries(), 4);
        let adj: Vec<(u32, Weight)> = csr.edges_of(1).collect();
        assert_eq!(adj, vec![(0, 2), (2, 4)]);
        assert!(csr.memory_bytes() > 0);
    }

    #[test]
    fn dense_csr_rows_are_weight_ordered() {
        // Pushed in neighbour order; stored by (weight, neighbour), ties
        // by neighbour.
        let rows: [&[(u32, Weight)]; 3] = [&[(1, 9), (2, 3), (3, 3), (4, 1)], &[], &[(0, 5)]];
        let csr = DenseCsr::build(rows.len(), |d| rows[d as usize].iter().copied());
        let run: Vec<(u32, Weight)> = csr.ordered_run(0).collect();
        assert_eq!(run, vec![(4, 1), (2, 3), (3, 3), (1, 9)]);
        assert_eq!(csr.row(0), (&[4, 2, 3, 1][..], &[1, 3, 3, 9][..]));
        assert_eq!(csr.edges_of(0).collect::<Vec<_>>(), run);
        assert_eq!(csr.tail_of(0).count(), 0);
        assert_eq!(csr.row(1), (&[][..], &[][..]));
        assert_eq!(csr.num_entries(), 5);
        // A borrowed view of the same arrays is the same rows.
        let mapped = csr.view();
        for d in 0..3 {
            assert_eq!(mapped.row(d), csr.row(d));
        }
    }

    #[test]
    fn dense_search_plain_point_to_point() {
        let g = islabel_graph::generators::erdos_renyi_gnm(
            60,
            150,
            islabel_graph::generators::WeightModel::UniformRange(1, 5),
            3,
        );
        let members: Vec<VertexId> = g.vertices().collect();
        let dense = DenseGk::undirected(60, &members, &g);
        let mut scratch = DenseScratch::new(dense.ids().len());
        for (s, t) in [(0u32, 59u32), (5, 40), (2, 30)] {
            let out = dense_bi_dijkstra(
                dense.fwd(),
                dense.rev(),
                &[(dense.ids().dense(s).unwrap(), 0)],
                &[(dense.ids().dense(t).unwrap(), 0)],
                INF,
                None,
                &mut scratch,
            );
            let expect = crate::reference::dijkstra_p2p(&g, s, t).unwrap_or(INF);
            assert_eq!(out.dist, expect, "({s}, {t})");
        }
    }

    #[test]
    fn dense_search_distances_past_u32_max() {
        // Weights near 2^31: three hops pass u32::MAX, so the frontiers'
        // keys rebase their heaps mid-search. Pristine, then with a fifth
        // of the edges moved into a patch's unordered tail.
        use islabel_graph::generators::{grid2d, WeightModel};
        let heavy = WeightModel::UniformRange((1 << 31) - 4096, 1 << 31);
        let full = grid2d(10, 10, heavy, 5);
        let n = full.num_vertices();
        let members: Vec<VertexId> = full.vertices().collect();
        let mut base = islabel_graph::GraphBuilder::new(n);
        let mut moved = Vec::new();
        for u in full.vertices() {
            for (v, w) in full.edges(u).filter(|&(v, _)| u < v) {
                if (u + v) % 5 == 0 {
                    moved.push((u, v, w));
                } else {
                    base.add_edge(u, v, w);
                }
            }
        }
        let pristine = DenseGk::undirected(n, &members, &full);
        let split = DenseGk::undirected(n, &members, &base.build());
        let mut patch = DensePatch::new(n, 0);
        for &(u, v, w) in &moved {
            patch.push_edge(u, v, w);
            patch.push_edge(v, u, w);
        }
        let patched = PatchedDense {
            base: split.fwd(),
            patch: &patch,
        };
        assert!(!moved.is_empty());
        let mut scratch = DenseScratch::new(n);
        let mut past_u32 = 0;
        for (s, t) in [(0u32, 99u32), (9, 90), (3, 77), (45, 46), (12, 12), (98, 1)] {
            let expect = crate::reference::dijkstra_p2p(&full, s, t).unwrap_or(INF);
            past_u32 += usize::from(expect > Dist::from(u32::MAX));
            let (fs, rs) = ([(s, 0)], [(t, 0)]);
            let (f, r) = (pristine.fwd(), pristine.rev());
            let out = dense_bi_dijkstra(f, r, &fs, &rs, INF, None, &mut scratch);
            assert_eq!(out.dist, expect, "pristine ({s}, {t})");
            let out = dense_bi_dijkstra(&patched, &patched, &fs, &rs, INF, None, &mut scratch);
            assert_eq!(out.dist, expect, "patched ({s}, {t})");
        }
        assert!(past_u32 >= 4, "{past_u32} pairs past u32::MAX");
    }

    #[test]
    fn dense_search_respects_mu0_shortcut() {
        // A long chain in G_k, but labels already know a distance-1
        // shortcut: the search returns it and prunes at once.
        let mut b = islabel_graph::GraphBuilder::new(5);
        for v in 0..4u32 {
            b.add_edge(v, v + 1, 10);
        }
        let dense = DenseGk::undirected(5, &[0, 1, 2, 3, 4], &b.build());
        let mut scratch = DenseScratch::new(5);
        let out = dense_bi_dijkstra(
            dense.fwd(),
            dense.rev(),
            &[(0, 0)],
            &[(4, 0)],
            1,
            Some(99),
            &mut scratch,
        );
        assert_eq!(out.dist, 1);
        assert_eq!(out.meeting, Meeting::Labels(99));
        assert!(out.settled <= 2, "settled {}", out.settled);
    }

    #[test]
    fn dense_search_parent_chains_start_at_the_best_seeds() {
        // Path 0-1-2-3-4 (unit weights). Forward seeds {1: 5, 2: 1},
        // reverse seed {4: 0}: best is 2->3->4 = 1+2 = 3.
        let mut b = islabel_graph::GraphBuilder::new(5);
        for v in 0..4u32 {
            b.add_edge(v, v + 1, 1);
        }
        let dense = DenseGk::undirected(5, &[0, 1, 2, 3, 4], &b.build());
        let mut scratch = DenseScratch::with_parents(5);
        let out = dense_search(
            dense.fwd(),
            dense.rev(),
            &[(1, 5), (2, 1)],
            &[(4, 0)],
            INF,
            None,
            &mut scratch,
        );
        assert_eq!(out.dist, 3);
        let Meeting::Search(m) = out.meeting else {
            panic!("{:?}", out.meeting)
        };
        let fchain = scratch.parents().chain(true, m).unwrap();
        let rchain = scratch.parents().chain(false, m).unwrap();
        assert_eq!((fchain[0], rchain[0]), (2, 4));
        assert_eq!(fchain.len() + rchain.len() - 2, 2, "two G_k edges");
        // A vertex one side never reached has no chain there.
        assert_eq!(scratch.parents().chain(false, 0), None);
        // The next search forgets them.
        dense_search(dense.fwd(), dense.rev(), &[], &[], INF, None, &mut scratch);
        assert_eq!(scratch.parents().chain(true, m), None);
    }

    #[test]
    fn dense_search_empty_seeds_returns_mu0() {
        let dense = DenseGk::undirected(3, &[0, 1, 2], &CsrGraph::empty(3));
        let mut scratch = DenseScratch::new(3);
        let out = dense_bi_dijkstra(
            dense.fwd(),
            dense.rev(),
            &[],
            &[(1, 0)],
            7,
            Some(2),
            &mut scratch,
        );
        assert_eq!(out.dist, 7);
        assert_eq!(out.meeting, Meeting::Labels(2));
        let out = dense_bi_dijkstra(dense.fwd(), dense.rev(), &[], &[], INF, None, &mut scratch);
        assert_eq!(out.dist, INF);
        assert_eq!(out.meeting, Meeting::None);
    }
}
