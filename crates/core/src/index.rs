//! The public IS-LABEL index for undirected graphs.
//!
//! An index is the artifact's section arrays (ADR-0018): level table, peel
//! adjacency, compact `G_k`, via table and labels. A build holds them in
//! owned `Vec`s; a load holds the mapped artifact and reads them where they
//! lie. Everything else — sessions, updates, path queries, the writer —
//! reads both through one borrowed view of plain slices (`Sections`),
//! taken once per session or operation.

use crate::config::BuildConfig;
use crate::dense::{
    globalize_outcome, seeded_search, DenseGk, DensePatch, DenseScratch, ParentSink, PatchedDense,
};
use crate::hierarchy::{GkVia, HierarchyView, PeelCsr, VertexHierarchy};
use crate::kernel::intersect_min_auto;
use crate::label::{LabelDist, LabelSet, LabelView, Labels};
use crate::oracle::{check_vertex, DistanceOracle, Error, QueryError, QuerySession};
use crate::persist::v3::{Mapped, Sections};
use crate::persist::wal::{scan_wal, WalRecovery, WalWriter, WAL_HEADER_LEN};
use crate::query::{Meeting, QueryType, SearchOutcome};
use crate::stats::IndexStats;
use crate::trace::QueryTrace;
use crate::updates::{Overlay, OverlayStats, UpdateOp};
use islabel_graph::{CsrGraph, Dist, VertexId, Weight, INF};
use islabel_store::StoreReader;
use std::path::Path;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Default `fsync` batching for an attached write-ahead log: sync every
/// this many appended records (see [`IsLabelIndex::attach_wal_with`]).
pub const DEFAULT_WAL_SYNC_EVERY: u32 = 32;

/// Mints an artifact-lineage epoch: unique per build within a process
/// (atomic sequence) and essentially unique across processes (wall-clock
/// nanoseconds mixed in). Stored in the `.islx` header and the WAL header
/// so recovery can tell whether a log belongs to the artifact next to it.
fn mint_epoch() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(1);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    nanos
        ^ SEQ
            .fetch_add(1, Ordering::Relaxed)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Outcome of a detailed query (see [`IsLabelIndex::query`]).
#[derive(Debug)]
pub struct QueryOutcome {
    /// `dist_G(s, t)`; `None` encodes the paper's `∞` (unreachable).
    pub distance: Option<Dist>,
    /// Table 5 classification of the query.
    pub query_type: QueryType,
    /// The Equation 1 estimate `µ` before the search ran (`None` when the
    /// labels do not intersect).
    pub eq1_estimate: Option<Dist>,
    /// Vertices settled by the bidirectional search (0 when labels alone
    /// answered the query).
    pub settled: usize,
    /// Whether the final answer improved on (or was found without) the
    /// label-only estimate via the `G_k` search.
    pub answered_by_search: bool,
}

/// The IS-LABEL index (paper Sections 4–6).
///
/// Build once with [`IsLabelIndex::try_build`] (or open a saved artifact in
/// place with [`IsLabelIndex::open`]), then answer point-to-point distance
/// queries with [`try_distance`](IsLabelIndex::try_distance) (or a held
/// [`session`](IsLabelIndex::session)) and shortest-path queries with
/// [`try_shortest_path`](IsLabelIndex::try_shortest_path). The index also
/// supports the lazy dynamic updates of Section 8.3 (see the `updates`
/// methods and their caveats), built or mapped alike.
///
/// # Examples
///
/// ```
/// use islabel_core::{BuildConfig, IsLabelIndex};
/// use islabel_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(5);
/// for v in 0..4 {
///     b.add_edge(v, v + 1, (v + 1));
/// }
/// let g = b.build();
/// let index = IsLabelIndex::try_build(&g, BuildConfig::default())?;
/// assert_eq!(index.try_distance(0, 4)?, Some(1 + 2 + 3 + 4));
/// assert_eq!(index.try_distance(4, 0)?, Some(10)); // undirected symmetry
/// # Ok::<(), islabel_core::Error>(())
/// ```
#[derive(Debug)]
pub struct IsLabelIndex {
    storage: Storage,
    /// The base graph: the builder's input, or the artifact's graph
    /// section parsed on first use (no query reads it).
    graph: OnceLock<CsrGraph>,
    config: BuildConfig,
    stats: IndexStats,
    pub(crate) overlay: Overlay,
    /// Identifies this index's build lineage; a WAL with a different epoch
    /// belongs to a different base state and is never replayed here.
    artifact_epoch: u64,
    /// Attached write-ahead log, if any: every mutation is appended here
    /// *before* it is applied (see [`IsLabelIndex::attach_wal`]).
    wal: Option<WalWriter>,
}

/// Where an index's arrays live.
#[derive(Debug)]
pub(crate) enum Storage {
    /// A build's arrays.
    Owned(Arrays),
    /// A validated artifact, read in place.
    Mapped(Mapped),
}

/// A build's arrays, each the content of one artifact section.
#[derive(Debug)]
pub(crate) struct Arrays {
    level_of: Vec<u32>,
    k: u32,
    peel: PeelCsr,
    dense: DenseGk,
    gk_vias: Vec<GkVia>,
    labels: LabelSet,
    label_only: bool,
}

impl Storage {
    fn sections(&self) -> Sections<'_> {
        match self {
            Storage::Owned(a) => Sections {
                hierarchy: HierarchyView {
                    level_of: &a.level_of,
                    k: a.k,
                    peel: a.peel.view(),
                    gk: a.dense.view(),
                    gk_vias: &a.gk_vias,
                    label_only: a.label_only,
                },
                labels: a.labels.view(),
            },
            Storage::Mapped(m) => m.sections(),
        }
    }
}

impl IsLabelIndex {
    /// Builds the index, panicking on an invalid configuration
    /// (convenience over [`IsLabelIndex::try_build`]). The last panicking
    /// twin: it stays only because the frozen `benchmark/` harness calls
    /// it, and goes when that harness is re-baselined (ROADMAP item 8).
    pub fn build(g: &CsrGraph, config: BuildConfig) -> Self {
        Self::try_build(g, config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds the index: vertex hierarchy (Algorithms 2 + 3), then top-down
    /// labels (Algorithm 4). Returns
    /// [`Error::InvalidConfig`] instead of panicking when `config` makes no
    /// sense (bad σ, `k < 2`, ...).
    pub fn try_build(g: &CsrGraph, config: BuildConfig) -> Result<Self, Error> {
        config.try_validate()?;
        let t0 = Instant::now();
        let hierarchy = VertexHierarchy::build(g, &config);
        let t1 = Instant::now();
        let labels = LabelSet::build(&hierarchy, config.keep_path_info);
        let t2 = Instant::now();
        let mut index = Self::from_parts(g.clone(), hierarchy, labels, config, t1 - t0, t2 - t1);
        // Stamped after the last construction step, so it covers the dense
        // substrate, the overlay and the graph copy too.
        index.stats.build_time = t0.elapsed();
        Ok(index)
    }

    /// Assembles an index from a builder's parts (the in-memory builder's
    /// and the external-memory pipeline's — identical hierarchy and labels
    /// through disk-based algorithms), with the two phase times of its
    /// build. `G_k` is kept in compact form only.
    pub(crate) fn from_parts(
        graph: CsrGraph,
        hierarchy: VertexHierarchy,
        labels: LabelSet,
        config: BuildConfig,
        hierarchy_time: Duration,
        labeling_time: Duration,
    ) -> Self {
        let dense =
            DenseGk::undirected(hierarchy.universe(), hierarchy.gk_members(), hierarchy.gk());
        let arrays = Arrays {
            level_of: hierarchy.levels.level_of,
            k: hierarchy.levels.k,
            peel: hierarchy.peel,
            dense,
            gk_vias: hierarchy.gk_vias,
            labels,
            label_only: hierarchy.label_only,
        };
        let num_edges = graph.num_edges();
        let storage = Storage::Owned(arrays);
        let mut index = Self::from_storage(storage, num_edges, config, mint_epoch());
        index.graph = OnceLock::from(graph);
        index.stats.hierarchy_time = hierarchy_time;
        index.stats.labeling_time = labeling_time;
        index.stats.build_time = hierarchy_time + labeling_time;
        index
    }

    /// A pristine index over `storage`, whose base graph has `num_edges`
    /// edges. Over a mapped artifact (see
    /// [`crate::persist::v3::read_index`]) no array is copied, and the base
    /// graph is parsed only if something asks for it.
    pub(crate) fn from_storage(
        storage: Storage,
        num_edges: usize,
        config: BuildConfig,
        epoch: u64,
    ) -> Self {
        let Sections { hierarchy, labels } = storage.sections();
        let n = hierarchy.universe();
        let stats = IndexStats {
            num_vertices: n,
            num_edges,
            k: hierarchy.k(),
            gk_vertices: hierarchy.num_gk_vertices(),
            gk_edges: hierarchy.num_gk_edges(),
            label_entries: labels.num_entries(),
            label_bytes: labels.memory_bytes(),
            avg_label_len: labels.avg_label_len(),
            max_label_len: labels.max_label_len(),
            hierarchy_time: Duration::ZERO,
            labeling_time: Duration::ZERO,
            build_time: Duration::ZERO,
        };
        let overlay = Overlay::new(n, labels.max_dist());
        Self {
            storage,
            graph: OnceLock::new(),
            config,
            stats,
            overlay,
            artifact_epoch: epoch,
            wal: None,
        }
    }

    /// The index's arrays as plain slices, wherever they live.
    pub(crate) fn sections(&self) -> Sections<'_> {
        self.storage.sections()
    }

    /// The arrays and the overlay borrowed apart, so an update reads the
    /// one while it writes the other.
    fn split(&mut self) -> (Sections<'_>, &mut Overlay) {
        (self.storage.sections(), &mut self.overlay)
    }

    /// The artifact an opened index reads its arrays from (header facts,
    /// section table, residency); `None` for a build.
    pub fn reader(&self) -> Option<&StoreReader> {
        match &self.storage {
            Storage::Mapped(m) => Some(m.reader()),
            Storage::Owned(_) => None,
        }
    }

    /// Whether the arrays are a kernel mapping of an artifact file (not a
    /// build's, nor an in-memory image's).
    pub fn is_mapped(&self) -> bool {
        self.reader().is_some_and(StoreReader::is_mapped)
    }

    /// Number of vertices the index currently answers for (including
    /// dynamically inserted ones).
    pub fn num_vertices(&self) -> usize {
        self.overlay.universe()
    }

    /// The base graph the index was built over (without dynamic updates).
    /// A loaded index parses the artifact's graph section on the first
    /// call; `Sections::validate` checked it at open.
    pub fn base_graph(&self) -> &CsrGraph {
        self.graph.get_or_init(|| match &self.storage {
            Storage::Mapped(m) => m.base_graph(),
            Storage::Owned(_) => unreachable!("a build sets its base graph"),
        })
    }

    /// The vertex hierarchy: levels, peel adjacency and `G_k`.
    pub fn hierarchy(&self) -> HierarchyView<'_> {
        self.sections().hierarchy
    }

    /// The label set.
    pub fn labels(&self) -> Labels<'_> {
        self.sections().labels
    }

    /// The dense search substrate: compact `G_k` ids plus the
    /// weight-ordered residual adjacency (see [`crate::dense`]). Sessions
    /// run the bidirectional search on this; benches and the conformance
    /// suite use it to drive the dense kernel directly. Empty in a
    /// label-only index, which searches nothing
    /// ([`HierarchyView::searched`]); its core rows serve path queries
    /// only.
    pub fn dense_gk(&self) -> DenseGk<&[u32]> {
        self.sections().hierarchy.searched()
    }

    /// Build configuration used.
    pub fn config(&self) -> &BuildConfig {
        &self.config
    }

    /// Construction statistics (Tables 3/6/7 columns).
    pub fn stats(&self) -> &IndexStats {
        &self.stats
    }

    /// Whether `v` is (effectively) a vertex of the residual graph `G_k`
    /// that queries search; dynamically inserted vertices live in `G_k` by
    /// construction (Section 8.3). A label-only index searches no base
    /// vertex, so only its inserted vertices count.
    pub fn is_in_gk(&self, v: VertexId) -> bool {
        self.overlay.effective_in_gk(self.hierarchy(), v)
    }

    /// Table 5 classification of a query.
    pub fn query_type(&self, s: VertexId, t: VertexId) -> QueryType {
        match (self.is_in_gk(s), self.is_in_gk(t)) {
            (true, true) => QueryType::BothInGk,
            (false, false) => QueryType::NeitherInGk,
            _ => QueryType::OneInGk,
        }
    }

    /// Point-to-point distance: `Ok(None)` means unreachable (the paper's
    /// `∞`), `Err(VertexOutOfRange)` flags a malformed query.
    ///
    /// A one-shot is a [`session`](IsLabelIndex::session) opened for this
    /// one query: `|G_k|`-sized scratch per call, whether or not the index
    /// carries updates. Hold a session to answer many.
    pub fn try_distance(&self, s: VertexId, t: VertexId) -> Result<Option<Dist>, QueryError> {
        self.session().distance(s, t)
    }

    /// Detailed query with diagnostics; `Err(VertexOutOfRange)` flags a
    /// malformed query, as for [`IsLabelIndex::try_distance`].
    pub fn query(&self, s: VertexId, t: VertexId) -> Result<QueryOutcome, QueryError> {
        let out = self.session().search_outcome(s, t)?;
        // Equation 1 on its own, as the search saw it (a deleted endpoint
        // answers nothing; `s == t` meets at the self entry, 0).
        let eq1_estimate = if self.overlay.is_deleted(s) || self.overlay.is_deleted(t) {
            None
        } else {
            let (mut anc_s, mut dist_s, mut anc_t, mut dist_t) = Default::default();
            let (overlay, labels) = (&self.overlay, self.labels());
            let ls = overlay.effective_label_into(labels, s, &mut anc_s, &mut dist_s);
            let lt = overlay.effective_label_into(labels, t, &mut anc_t, &mut dist_t);
            let (mu0, _) = intersect_min_auto(ls, lt);
            (mu0 < INF).then_some(mu0)
        };
        Ok(QueryOutcome {
            distance: (out.dist < INF).then_some(out.dist),
            query_type: self.query_type(s, t),
            eq1_estimate,
            settled: out.settled,
            answered_by_search: matches!(out.meeting, Meeting::Search(_)),
        })
    }

    /// Answers a distance query from externally supplied labels (e.g.
    /// fetched from a [`crate::disklabel::DiskLabelStore`]): Equation 1 plus
    /// the `G_k` search, without touching the in-memory label arrays.
    /// Returns [`QueryError::StaleIndex`] when the index has pending
    /// dynamic updates (whose patched labels the supplied views cannot
    /// reflect), and [`QueryError::VertexOutOfRange`] for an ancestor the
    /// index does not have — the views are the caller's bytes (a disk
    /// label is returned as stored), not validated labels of this index.
    pub fn try_distance_from_labels(
        &self,
        ls: LabelView<'_>,
        lt: LabelView<'_>,
    ) -> Result<Option<Dist>, QueryError> {
        if !self.overlay.is_pristine() {
            return Err(QueryError::StaleIndex);
        }
        for &a in ls.ancestors.iter().chain(lt.ancestors) {
            self.check_vertex(a)?;
        }
        let gk = self.dense_gk();
        let out = search_once(gk, ls, lt, &mut DenseScratch::new(gk.ids().len()));
        Ok((out.dist < INF).then_some(out.dist))
    }

    /// Shortest path between `s` and `t` (Section 8.1): `Ok(None)` means
    /// unreachable, [`QueryError::NoPathInfo`] means the index cannot
    /// reconstruct paths — built with `keep_path_info: false`, or carrying
    /// dynamic updates whose patched label entries have no path metadata.
    ///
    /// The search is the distance query's, with predecessor recording
    /// compiled in ([`DenseScratch::with_parents`]).
    pub fn try_shortest_path(
        &self,
        s: VertexId,
        t: VertexId,
    ) -> Result<Option<crate::path::Path>, QueryError> {
        self.check_vertex(s)?;
        self.check_vertex(t)?;
        if !self.config().keep_path_info || !self.overlay.is_pristine() {
            return Err(QueryError::NoPathInfo);
        }
        if s == t {
            // A pristine overlay has no deletions, so `s` answers for
            // itself.
            return Ok(Some(crate::path::Path {
                vertices: vec![s],
                length: 0,
            }));
        }
        let Sections { hierarchy, labels } = self.sections();
        let gk = hierarchy.searched();
        let mut scratch = DenseScratch::with_parents(gk.ids().len());
        let out = search_once(gk, labels.label(s), labels.label(t), &mut scratch);
        let path = crate::path::reconstruct(hierarchy, labels, s, t, &out, scratch.parents());
        debug_assert!(path
            .as_ref()
            .is_none_or(|p| p.validate_against(self.base_graph()).is_ok()));
        Ok(path)
    }

    fn check_vertex(&self, v: VertexId) -> Result<(), QueryError> {
        check_vertex(v, self.overlay.universe())
    }

    /// Opens a per-thread [`IsLabelSession`] with reusable search scratch;
    /// the typed twin of [`DistanceOracle::session`]. Create one per
    /// serving thread and answer queries through it allocation-free: the
    /// dense scratch is fully pre-sized against `|G_k|` and the seed
    /// buffers against the longest label, so steady-state queries perform
    /// zero heap allocations (asserted by the `alloc_free` test).
    ///
    /// Indexes carrying dynamic updates stay on the dense kernel too: the
    /// session borrows the [`DensePatch`] the overlay maintains
    /// (inserted-vertex tail, tombstones, extra adjacency), sizes every
    /// buffer for the patched universe, and queries run against the
    /// patched view — still allocation-free in steady state. Opening costs
    /// the same whatever the number of pending updates; the borrow keeps
    /// the index from being mutated under an open session.
    pub fn session(&self) -> IsLabelSession<'_> {
        // The longest label is read from the stats every constructor and
        // loader fills, not rescanned: opening stays O(|G_k|), not O(n).
        let label_cap = self.stats.max_label_len + self.overlay.max_patch_len();
        let mut sections = self.sections();
        // A session reads `G_k` only to search it.
        sections.hierarchy.gk = sections.hierarchy.searched();
        let overlay = self.overlay.residual().map(|patch| OverlayDense {
            patch,
            anc_s: Vec::with_capacity(label_cap),
            dist_s: Vec::with_capacity(label_cap),
            anc_t: Vec::with_capacity(label_cap),
            dist_t: Vec::with_capacity(label_cap),
        });
        let scratch_len = overlay
            .as_ref()
            .map_or(sections.hierarchy.gk.ids().len(), |od| {
                od.patch.num_vertices()
            });
        IsLabelSession {
            index: self,
            sections,
            scratch: DenseScratch::new(scratch_len),
            fseeds: Vec::with_capacity(label_cap),
            rseeds: Vec::with_capacity(label_cap),
            overlay,
            trace: QueryTrace::new(),
        }
    }

    // ---------------------------------------------------------------------
    // Dynamic updates (Section 8.3) — lazy, upper-bound semantics; see the
    // `updates` module docs for the exact guarantees — and their
    // durability (write-ahead logging; see `persist::wal`).
    // ---------------------------------------------------------------------

    /// Inserts a new vertex with the given adjacency, returning its id. The
    /// new vertex joins `G_k`; labels of affected descendants are patched
    /// (paper Section 8.3).
    ///
    /// Every update is checked, then logged, then applied. Input the
    /// overlay cannot apply (an out-of-range or deleted neighbour, a zero
    /// weight) is refused with [`Error::InvalidUpdate`], and a failed
    /// append to the attached WAL with [`Error::Persist`]; either way
    /// nothing is applied, so log and overlay stay in lockstep. The op is
    /// in the log *before* it is applied, so a crash directly after `Ok`
    /// cannot lose it.
    pub fn try_insert_vertex(&mut self, edges: &[(VertexId, Weight)]) -> Result<VertexId, Error> {
        self.admit(&UpdateOp::InsertVertex {
            edges: edges.to_vec(),
        })?;
        let (s, overlay) = self.split();
        Ok(overlay.insert_vertex(s, edges))
    }

    /// Inserts an edge between two existing vertices; refuses a deleted or
    /// out-of-range endpoint, a self-loop and a zero weight (same contract
    /// as [`IsLabelIndex::try_insert_vertex`]).
    pub fn try_insert_edge(&mut self, u: VertexId, v: VertexId, w: Weight) -> Result<(), Error> {
        self.admit(&UpdateOp::InsertEdge { a: u, b: v, w })?;
        let (s, overlay) = self.split();
        overlay.insert_edge(s, u, v, w);
        Ok(())
    }

    /// Deletes a vertex. Queries touching it return `None` afterwards.
    /// Deleting a vertex that was peeled into the hierarchy marks the index
    /// *stale* (see [`IsLabelIndex::is_stale`]). An out-of-range or
    /// already-deleted `v` is refused with [`Error::InvalidUpdate`] and
    /// changes nothing (a consistent log never holds a second delete of one
    /// vertex, which lets replay flag such a record as corruption); same
    /// contract as [`IsLabelIndex::try_insert_vertex`].
    pub fn try_delete_vertex(&mut self, v: VertexId) -> Result<(), Error> {
        self.admit(&UpdateOp::DeleteVertex { v })?;
        let (s, overlay) = self.split();
        overlay.delete_vertex(s, v);
        Ok(())
    }

    /// The two steps every update takes before it is applied: check `op`
    /// against the overlay, then append it to the attached log. An op that
    /// fails the check never reaches the log (replay could not apply it).
    fn admit(&mut self, op: &UpdateOp) -> Result<(), Error> {
        self.check_op(op).map_err(Error::InvalidUpdate)?;
        if let Some(wal) = self.wal.as_mut() {
            wal.append(op).map_err(Error::Persist)?;
        }
        Ok(())
    }

    /// What an op must pass before it is logged or replayed: valid against
    /// the overlay, and no patched label distance past `u32::MAX`.
    fn check_op(&mut self, op: &UpdateOp) -> Result<(), String> {
        op.validate(&self.overlay)?;
        let (s, overlay) = self.split();
        overlay.check_fits(s, op)
    }

    /// Applies one recovered op (sealed section or WAL replay) through the
    /// normal mutation path, first checking it against the current overlay
    /// so corrupt records fail cleanly instead of panicking. Never touches
    /// the attached WAL.
    pub(crate) fn replay_op(&mut self, op: &UpdateOp) -> Result<(), String> {
        self.check_op(op)?;
        let (s, overlay) = self.split();
        overlay.apply(s, op);
        Ok(())
    }

    /// The artifact-lineage epoch: minted at build time, preserved by
    /// save/load, shared with the paired write-ahead log (see
    /// [`crate::persist::wal`]).
    pub fn artifact_epoch(&self) -> u64 {
        self.artifact_epoch
    }

    /// Number of pending dynamic updates (the overlay op log length).
    pub fn pending_ops(&self) -> usize {
        self.overlay.ops().len()
    }

    /// The update overlay itself; `==` on two of them compares their whole
    /// state (see [`Overlay`]).
    pub fn overlay(&self) -> &Overlay {
        &self.overlay
    }

    /// What shape the update overlay is — pending ops, inserted and
    /// deleted vertices, patched labels, extra `G_k` edges, bytes held
    /// (which [`DistanceOracle::index_bytes`] leaves out). All zero on a
    /// pristine index.
    pub fn overlay_stats(&self) -> OverlayStats {
        self.overlay.stats()
    }

    /// Attaches the write-ahead log at `path` with the default `fsync`
    /// batching ([`DEFAULT_WAL_SYNC_EVERY`]); see
    /// [`IsLabelIndex::attach_wal_with`].
    pub fn attach_wal(&mut self, path: impl AsRef<Path>) -> Result<WalRecovery, Error> {
        self.attach_wal_with(path, DEFAULT_WAL_SYNC_EVERY)
    }

    /// Attaches (creating or recovering) the write-ahead log at `path`:
    /// afterwards every mutation is appended to the log *before* it is
    /// applied, with an `fsync` every `sync_every` records.
    ///
    /// The log is reconciled with this index's state first:
    ///
    /// * missing / shorter-than-header (a crash during creation) → a fresh
    ///   log is written, seeded with the overlay's current op history so
    ///   the pair is self-sufficient;
    /// * epoch mismatch (the crash window between a compaction's artifact
    ///   rename and its WAL reset) → the stale log is discarded and
    ///   recreated — its ops are already folded into this artifact;
    /// * a log inconsistent with the artifact's sealed op history → rewritten
    ///   from the current overlay;
    /// * otherwise the suffix beyond the sealed history is replayed through
    ///   the mutation path, stopping at the first torn, corrupt, or
    ///   inapplicable record, and the file is truncated to the last record
    ///   that survived — recovery restores the exact overlay of some
    ///   applied prefix, never a wrong one.
    pub fn attach_wal_with(
        &mut self,
        path: impl AsRef<Path>,
        sync_every: u32,
    ) -> Result<WalRecovery, Error> {
        let recovery = self.attach_wal_inner(path.as_ref(), sync_every)?;
        crate::persist::wal::record_recovery_metrics(&recovery);
        Ok(recovery)
    }

    fn attach_wal_inner(&mut self, path: &Path, sync_every: u32) -> Result<WalRecovery, Error> {
        if !path.exists() {
            self.recreate_wal(path, sync_every)?;
            return Ok(WalRecovery {
                created: true,
                ..Default::default()
            });
        }
        let Some(scan) = scan_wal(path).map_err(Error::Persist)? else {
            // Shorter than the header: a crash during creation, before any
            // op could have been logged. Start over.
            self.recreate_wal(path, sync_every)?;
            return Ok(WalRecovery {
                created: true,
                ..Default::default()
            });
        };
        if scan.epoch != self.artifact_epoch {
            self.recreate_wal(path, sync_every)?;
            return Ok(WalRecovery {
                created: true,
                discarded_stale: true,
                ..Default::default()
            });
        }
        let sealed = self.overlay.ops().len();
        if scan.ops.len() < sealed || scan.ops[..sealed] != *self.overlay.ops() {
            // Same lineage but the log diverges from the artifact's sealed
            // history (e.g. the artifact was re-saved after more ops while
            // the log was lost): rewrite it from the trusted artifact state.
            self.recreate_wal(path, sync_every)?;
            return Ok(WalRecovery {
                created: true,
                ..Default::default()
            });
        }
        // Replay the suffix beyond the sealed prefix (those ops are already
        // in the overlay — replaying them again would double-apply).
        let mut replayed = 0usize;
        let mut truncated = scan.truncated_tail;
        for op in &scan.ops[sealed..] {
            if self.replay_op(op).is_err() {
                truncated = true;
                break;
            }
            replayed += 1;
        }
        let applied = sealed + replayed;
        let valid_len = if applied == 0 {
            WAL_HEADER_LEN
        } else {
            scan.offsets[applied - 1]
        };
        let writer = WalWriter::resume(path, self.artifact_epoch, sync_every, valid_len)
            .map_err(Error::Persist)?;
        self.wal = Some(writer);
        Ok(WalRecovery {
            replayed,
            created: false,
            discarded_stale: false,
            truncated,
        })
    }

    /// Writes a fresh log at `path` seeded with the overlay's op history.
    fn recreate_wal(&mut self, path: &Path, sync_every: u32) -> Result<(), Error> {
        let write = || -> std::io::Result<WalWriter> {
            let mut w = WalWriter::create(path, self.artifact_epoch, sync_every)?;
            for op in self.overlay.ops() {
                w.append(op)?;
            }
            w.sync()?;
            Ok(w)
        };
        self.wal = Some(write().map_err(Error::Persist)?);
        Ok(())
    }

    /// Whether lazy deletions may have invalidated some distances (answers
    /// can then under- or over-estimate until [`IsLabelIndex::rebuild`]).
    pub fn is_stale(&self) -> bool {
        self.overlay.stale()
    }

    /// Whether any dynamic update has been applied since the last build.
    pub fn has_updates(&self) -> bool {
        !self.overlay.is_pristine()
    }

    /// Whether `v` has been removed by a dynamic [`try_delete_vertex`]
    /// (`v` beyond the universe counts as not deleted).
    ///
    /// [`try_delete_vertex`]: IsLabelIndex::try_delete_vertex
    pub fn is_vertex_deleted(&self, v: VertexId) -> bool {
        (v as usize) < self.overlay.universe() && self.overlay.is_deleted(v)
    }

    /// Materializes the current graph (base plus all dynamic updates);
    /// deleted vertices become isolated.
    pub fn current_graph(&self) -> CsrGraph {
        self.overlay.materialize(self.base_graph())
    }

    /// Rebuilds the index from the current graph, restoring exactness and
    /// clearing all overlay state.
    ///
    /// The rebuilt index starts a fresh artifact lineage (new epoch) and
    /// any attached WAL is *dropped, not rotated* — the old log still pairs
    /// with the pre-rebuild artifact on disk. For the crash-safe
    /// rebuild-then-truncate rotation use
    /// [`crate::persist::compact_index_with_wal`] (offline) or the
    /// `RebuildCoordinator` in `islabel-serve` (live).
    pub fn rebuild(&mut self) {
        let g = self.current_graph();
        *self = Self::try_build(&g, self.config)
            .expect("the configuration this index was built with validates again");
    }
}

impl DistanceOracle for IsLabelIndex {
    /// `islabel-mmap` over an artifact's sections, `islabel` over a
    /// build's.
    fn engine_name(&self) -> &'static str {
        match self.storage {
            Storage::Owned(_) => "islabel",
            Storage::Mapped(_) => "islabel-mmap",
        }
    }

    fn num_vertices(&self) -> usize {
        self.overlay.universe()
    }

    /// Labels plus the dense `G_k` search substrate — everything the
    /// session hot path reads, wherever it lives.
    fn index_bytes(&self) -> usize {
        let Sections { hierarchy, labels } = self.sections();
        labels.memory_bytes() + hierarchy.gk.memory_bytes()
    }

    fn try_distance(&self, s: VertexId, t: VertexId) -> Result<Option<Dist>, QueryError> {
        IsLabelIndex::try_distance(self, s, t)
    }

    fn session(&self) -> Box<dyn QuerySession + '_> {
        Box::new(IsLabelIndex::session(self))
    }
}

/// One untraced search over the pristine substrate with seed buffers
/// allocated for just this call; the meeting vertex is still compact.
fn search_once<P: ParentSink>(
    gk: DenseGk<&[u32]>,
    ls: LabelView<'_>,
    lt: LabelView<'_>,
    scratch: &mut DenseScratch<P>,
) -> SearchOutcome {
    seeded_search(
        ls,
        lt,
        |a| gk.ids().dense(a),
        gk.fwd(),
        gk.rev(),
        &mut Vec::with_capacity(ls.len()),
        &mut Vec::with_capacity(lt.len()),
        scratch,
        &mut QueryTrace::disabled(),
    )
}

/// Reusable query state for one [`IsLabelIndex`], built or mapped: the
/// index's arrays as resolved at open, the dense-kernel search workspace
/// plus the two compact-id seed buffers (see [`QuerySession`]). Obtained
/// from [`IsLabelIndex::session`].
#[derive(Debug)]
pub struct IsLabelSession<'a> {
    index: &'a IsLabelIndex,
    /// The index's arrays, with `G_k` as the session searches it: empty in
    /// a label-only index ([`HierarchyView::searched`]).
    sections: Sections<'a>,
    scratch: DenseScratch,
    fseeds: Vec<(u32, Dist)>,
    rseeds: Vec<(u32, Dist)>,
    /// Present iff the index carries dynamic updates: the overlay's
    /// residual delta plus this session's label merge buffers.
    overlay: Option<OverlayDense<'a>>,
    /// Phase timings/settle counts, recorded by the seeded search (plain
    /// fields — the zero-allocation contract includes tracing).
    trace: crate::trace::QueryTrace,
}

/// What a session needs of the update overlay: the structural patch the
/// overlay owns (inserted tail, tombstones, extra adjacency) plus label
/// merge buffers for the two endpoints, pre-sized so queries stay
/// allocation-free.
#[derive(Debug)]
struct OverlayDense<'a> {
    patch: &'a DensePatch,
    anc_s: Vec<VertexId>,
    dist_s: Vec<LabelDist>,
    anc_t: Vec<VertexId>,
    dist_t: Vec<LabelDist>,
}

impl IsLabelSession<'_> {
    /// The index this session queries.
    pub fn index(&self) -> &IsLabelIndex {
        self.index
    }

    /// Exact distance `dist(s, t)` through the reused dense scratch; same
    /// contract as [`IsLabelIndex::try_distance`]. Both pristine and
    /// updated indexes run on the dense kernel (the latter through the
    /// session's [`DensePatch`] view), allocation-free in steady state.
    pub fn distance(&mut self, s: VertexId, t: VertexId) -> Result<Option<Dist>, QueryError> {
        let index = self.index;
        index.check_vertex(s)?;
        index.check_vertex(t)?;
        if index.overlay.is_deleted(s) || index.overlay.is_deleted(t) {
            return Ok(None);
        }
        if s == t {
            return Ok(Some(0));
        }
        let outcome = if self.overlay.is_some() {
            self.run_dense_patched(s, t)
        } else {
            self.run_dense(s, t)
        };
        Ok((outcome.dist < INF).then_some(outcome.dist))
    }

    /// The full dense-kernel outcome (distance, meeting mechanism, settled
    /// count) for one query — the session-side counterpart of
    /// [`IsLabelIndex::query`], used by the conformance suite and benches.
    pub fn search_outcome(
        &mut self,
        s: VertexId,
        t: VertexId,
    ) -> Result<crate::query::SearchOutcome, QueryError> {
        let index = self.index;
        index.check_vertex(s)?;
        index.check_vertex(t)?;
        if index.overlay.is_deleted(s) || index.overlay.is_deleted(t) {
            return Ok(crate::query::SearchOutcome {
                dist: INF,
                meeting: Meeting::None,
                settled: 0,
                relaxed: 0,
                pushed: 0,
            });
        }
        if s == t {
            return Ok(crate::query::SearchOutcome {
                dist: 0,
                meeting: Meeting::Labels(s),
                settled: 0,
                relaxed: 0,
                pushed: 0,
            });
        }
        if self.overlay.is_some() {
            let outcome = self.run_dense_patched(s, t);
            return Ok(self.globalize_patched(outcome));
        }
        let outcome = self.run_dense(s, t);
        Ok(globalize_outcome(outcome, self.sections.hierarchy.gk.ids()))
    }

    /// The pristine fast path (`s != t`, bounds checked): seed translation
    /// plus the dense kernel, meeting still compact.
    fn run_dense(&mut self, s: VertexId, t: VertexId) -> crate::query::SearchOutcome {
        let (labels, gk) = (&self.sections.labels, &self.sections.hierarchy.gk);
        seeded_search(
            labels.label(s),
            labels.label(t),
            |a| gk.ids().dense(a),
            gk.fwd(),
            gk.rev(),
            &mut self.fseeds,
            &mut self.rseeds,
            &mut self.scratch,
            &mut self.trace,
        )
    }

    /// The updated-index fast path: effective (patch-merged) labels seed
    /// the dense kernel running over the [`PatchedDense`] view — base CSR
    /// plus inserted tail, tombstoned vertices skipped. Dense ids extend
    /// the base mapping monotonically (tail ids after all base ids), so
    /// ties still break by global id.
    fn run_dense_patched(&mut self, s: VertexId, t: VertexId) -> crate::query::SearchOutcome {
        let overlay = &self.index.overlay;
        let (labels, gk) = (self.sections.labels, &self.sections.hierarchy.gk);
        let od = self
            .overlay
            .as_mut()
            .expect("patched path requires overlay");
        let ls = overlay.effective_label_into(labels, s, &mut od.anc_s, &mut od.dist_s);
        let lt = overlay.effective_label_into(labels, t, &mut od.anc_t, &mut od.dist_t);
        let ids = gk.ids();
        let view = PatchedDense {
            base: gk.fwd(),
            patch: od.patch,
        };
        // Inserted vertices (global id >= base_n) live on the dense tail;
        // deleted ancestors were already dropped by the label merge.
        seeded_search(
            ls,
            lt,
            |a| overlay.dense_id(ids, a),
            &view,
            &view,
            &mut self.fseeds,
            &mut self.rseeds,
            &mut self.scratch,
            &mut self.trace,
        )
    }

    /// Maps a patched-view outcome's meeting vertex back to global ids:
    /// tail ids (`>= |G_k|`) are inserted vertices numbered from the base
    /// universe size.
    fn globalize_patched(
        &self,
        outcome: crate::query::SearchOutcome,
    ) -> crate::query::SearchOutcome {
        let ids = self.sections.hierarchy.gk.ids();
        let m = ids.len();
        let base_n = self.sections.hierarchy.universe();
        crate::query::SearchOutcome {
            meeting: match outcome.meeting {
                Meeting::Search(d) if (d as usize) >= m => {
                    Meeting::Search((base_n + (d as usize - m)) as VertexId)
                }
                Meeting::Search(d) => Meeting::Search(ids.global(d)),
                other => other,
            },
            ..outcome
        }
    }
}

impl QuerySession for IsLabelSession<'_> {
    fn engine_name(&self) -> &'static str {
        self.index.engine_name()
    }

    fn distance(&mut self, s: VertexId, t: VertexId) -> Result<Option<Dist>, QueryError> {
        IsLabelSession::distance(self, s, t)
    }

    fn trace(&self) -> Option<&crate::trace::QueryTrace> {
        Some(&self.trace)
    }

    fn trace_mut(&mut self) -> Option<&mut crate::trace::QueryTrace> {
        Some(&mut self.trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KSelection;
    use crate::oracle::BatchOptions;
    use crate::reference::{dijkstra_all, dijkstra_p2p};
    use islabel_graph::generators::{barabasi_albert, erdos_renyi_gnm, WeightModel};
    use islabel_graph::GraphBuilder;

    fn paper_index() -> IsLabelIndex {
        let g = crate::hierarchy::tests::paper_graph();
        IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap()
    }

    #[test]
    fn paper_example_queries() {
        // Example 4: dist(h, e) = 3 even though d(h, e) = 4 in label(h);
        // dist(a, g) = 3.
        let index = paper_index();
        assert_eq!(index.try_distance(7, 4), Ok(Some(3)));
        assert_eq!(index.try_distance(0, 6), Ok(Some(3)));
        // Example 6 (k = 2 hierarchy there, but distances are distances):
        // dist(c, i) = 3.
        assert_eq!(index.try_distance(2, 8), Ok(Some(3)));
    }

    #[test]
    fn matches_dijkstra_exhaustively_on_small_graphs() {
        for seed in 0..6u64 {
            let g = erdos_renyi_gnm(40, 70, WeightModel::UniformRange(1, 7), seed);
            let index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
            for s in g.vertices() {
                let truth = dijkstra_all(&g, s);
                for t in g.vertices() {
                    let expect = (truth[t as usize] < INF).then_some(truth[t as usize]);
                    assert_eq!(
                        index.try_distance(s, t),
                        Ok(expect),
                        "seed {seed} query ({s}, {t})"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_dijkstra_across_k_selections() {
        let g = barabasi_albert(200, 3, WeightModel::UniformRange(1, 4), 17);
        let configs = [
            BuildConfig::default(),
            BuildConfig::sigma(0.5),
            BuildConfig::fixed_k(2),
            BuildConfig::fixed_k(3),
            BuildConfig::fixed_k(8),
            BuildConfig::full(),
        ];
        let queries: Vec<(VertexId, VertexId)> = (0..60)
            .map(|i| ((i * 7) % 200, (i * 13 + 5) % 200))
            .collect();
        for config in configs {
            let index = IsLabelIndex::try_build(&g, config).unwrap();
            for &(s, t) in &queries {
                let expect = dijkstra_p2p(&g, s, t);
                assert_eq!(
                    index.try_distance(s, t),
                    Ok(expect),
                    "k_selection {:?} query ({s}, {t})",
                    config.k_selection
                );
            }
        }
    }

    #[test]
    fn disconnected_pairs_are_none() {
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 1);
        b.add_edge(3, 4, 1);
        let g = b.build();
        let index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        assert_eq!(index.try_distance(0, 2), Ok(Some(2)));
        assert_eq!(index.try_distance(3, 4), Ok(Some(1)));
        assert_eq!(index.try_distance(0, 3), Ok(None));
        assert_eq!(index.try_distance(2, 5), Ok(None));
        assert_eq!(index.try_distance(5, 5), Ok(Some(0)));
    }

    #[test]
    fn full_hierarchy_answers_by_labels_alone() {
        // A label-only index keeps its core G_k but searches none of it:
        // the searched view is empty, and every query meets on labels.
        let g = erdos_renyi_gnm(80, 160, WeightModel::UniformRange(1, 3), 2);
        let index = IsLabelIndex::try_build(&g, BuildConfig::full()).unwrap();
        assert!(index.stats().gk_vertices > 0, "the core is kept");
        assert!(index.hierarchy().is_label_only());
        assert_eq!(index.dense_gk().ids().len(), 0, "nothing is searched");
        assert!(index
            .hierarchy()
            .gk_members()
            .iter()
            .all(|&v| !index.is_in_gk(v)));
        for (s, t) in [(0u32, 79u32), (1, 50), (10, 60)] {
            let out = index.query(s, t).unwrap();
            assert_eq!(out.settled, 0, "no search may run in a label-only index");
            assert!(!out.answered_by_search);
            assert_eq!(out.distance, dijkstra_p2p(&g, s, t));
        }
    }

    #[test]
    fn full_hierarchy_matches_reference_on_every_pair() {
        let w = WeightModel::UniformRange(1, 4);
        let graphs = [
            ("er", erdos_renyi_gnm(90, 260, w, 41)),
            ("ba", barabasi_albert(90, 3, w, 42)),
            ("grid", islabel_graph::generators::grid2d(9, 10, w, 43)),
        ];
        for (name, g) in &graphs {
            let index = IsLabelIndex::try_build(g, BuildConfig::full()).unwrap();
            assert!(index.stats().gk_vertices > 1, "{name}: needs a core");
            let mut session = index.session();
            for s in g.vertices() {
                let truth = dijkstra_all(g, s);
                for t in g.vertices() {
                    let expect = (truth[t as usize] < INF).then_some(truth[t as usize]);
                    assert_eq!(session.distance(s, t), Ok(expect), "{name} ({s}, {t})");
                }
            }
        }
    }

    #[test]
    fn deleting_a_core_vertex_of_a_label_only_index_makes_it_stale() {
        let g = barabasi_albert(120, 3, WeightModel::UniformRange(1, 4), 44);
        let mut index = IsLabelIndex::try_build(&g, BuildConfig::full()).unwrap();
        let core = index.hierarchy().gk_members()[0];
        index.try_insert_edge(0, 119, 2).unwrap();
        assert!(!index.is_stale(), "an insertion keeps the index fresh");
        index.try_delete_vertex(core).unwrap();
        assert!(index.is_stale(), "a hub entry may route through {core}");
        // Every later op still applies.
        let v = index.try_insert_vertex(&[(1, 3)]).unwrap();
        index.try_insert_edge(v, 2, 1).unwrap();
        index.try_delete_vertex(v).unwrap();
        assert_eq!(index.try_distance(core, 5), Ok(None));

        // The same deletion in a σ index is exact.
        let mut sigma = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        sigma.try_delete_vertex(core).unwrap();
        assert!(!sigma.is_stale());
    }

    #[test]
    fn label_only_updates_keep_the_upper_bound_contract() {
        // Insertions anywhere and deletions of inserted vertices keep the
        // index fresh, and every answer a real path of the updated graph;
        // a core deletion makes it stale; a rebuild is exact again.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let w = WeightModel::UniformRange(1, 5);
        let graphs = [
            ("er", erdos_renyi_gnm(100, 300, w, 51)),
            ("ba", barabasi_albert(100, 3, w, 52)),
            ("grid", islabel_graph::generators::grid2d(10, 10, w, 53)),
        ];
        for (name, g) in &graphs {
            let mut rng = StdRng::seed_from_u64(54);
            let mut index = IsLabelIndex::try_build(g, BuildConfig::full()).unwrap();
            assert!(index.stats().gk_vertices > 0, "{name}: needs a core");
            let mut inserted = Vec::new();
            for _ in 0..40 {
                let n = index.num_vertices() as VertexId;
                let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                let w = rng.gen_range(1..=6);
                if index.is_vertex_deleted(a) || index.is_vertex_deleted(b) {
                    continue;
                }
                match rng.gen_range(0..10) {
                    0..=5 if a != b => index.try_insert_edge(a, b, w).unwrap(),
                    0..=7 => inserted.push(index.try_insert_vertex(&[(a, w), (b, w + 1)]).unwrap()),
                    _ if !inserted.is_empty() => {
                        let v = inserted.swap_remove(rng.gen_range(0..inserted.len()));
                        index.try_delete_vertex(v).unwrap();
                    }
                    _ => {}
                }
            }
            assert!(!index.is_stale(), "{name}");
            let current = index.current_graph();
            let mut session = index.session();
            for s in (0..current.num_vertices() as VertexId).step_by(3) {
                let truth = dijkstra_all(&current, s);
                for t in current.vertices() {
                    let want = (truth[t as usize] < INF).then_some(truth[t as usize]);
                    match (session.distance(s, t).unwrap(), want) {
                        (Some(got), Some(want)) => assert!(got >= want, "{name} ({s}, {t})"),
                        (Some(_), None) => panic!("{name} ({s}, {t}): a distance for no path"),
                        (None, _) => {}
                    }
                }
            }
            let core = index.hierarchy().gk_members()[0];
            index.try_delete_vertex(core).unwrap();
            assert!(index.is_stale(), "{name}");
            let current = index.current_graph();
            index.rebuild();
            for s in (0..current.num_vertices() as VertexId).step_by(5) {
                for t in (0..current.num_vertices() as VertexId).step_by(3) {
                    let want = dijkstra_p2p(&current, s, t);
                    assert_eq!(index.try_distance(s, t), Ok(want), "{name} ({s}, {t})");
                }
            }
        }
    }

    #[test]
    fn a_640_op_update_mix_applies_to_a_label_only_index() {
        // The 70 / 20 / 10 mix over live endpoints, deletions drawn from
        // the core and from inserted vertices: every op applies.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let g = barabasi_albert(400, 3, WeightModel::UniformRange(1, 5), 45);
        let mut index = IsLabelIndex::try_build(&g, BuildConfig::full()).unwrap();
        let mut deletable = index.hierarchy().gk_members().to_vec();
        assert!(!deletable.is_empty());
        let mut alive = vec![true; g.num_vertices()];
        let mut rng = StdRng::seed_from_u64(42);
        let live = |rng: &mut StdRng, alive: &[bool]| loop {
            let v = rng.gen_range(0..alive.len());
            if alive[v] {
                return v as VertexId;
            }
        };
        let mut deletions = 0;
        for _ in 0..640 {
            let roll = rng.gen_range(0..100u32);
            let w: Weight = rng.gen_range(1..=10);
            if roll < 70 || (roll >= 90 && deletable.is_empty()) {
                let a = live(&mut rng, &alive);
                let mut b = live(&mut rng, &alive);
                while b == a {
                    b = live(&mut rng, &alive);
                }
                index.try_insert_edge(a, b, w).unwrap();
            } else if roll < 90 {
                let a = live(&mut rng, &alive);
                let v = index.try_insert_vertex(&[(a, w)]).unwrap();
                deletable.push(v);
                alive.push(true);
            } else {
                let v = deletable.swap_remove(rng.gen_range(0..deletable.len()));
                alive[v as usize] = false;
                index.try_delete_vertex(v).unwrap();
                deletions += 1;
            }
        }
        assert_eq!(index.pending_ops(), 640);
        assert!(deletions > 0);
        let mut session = index.session();
        for s in (0..index.num_vertices() as VertexId).step_by(37) {
            session.distance(s, 7).unwrap();
        }
    }

    #[test]
    fn query_outcome_diagnostics() {
        let g = barabasi_albert(300, 4, WeightModel::Unit, 3);
        let index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        assert!(index.stats().gk_vertices > 0);
        // Pick one vertex in G_k and one outside for each class.
        let in_gk = index.hierarchy().gk_members()[0];
        let in_gk2 = index.hierarchy().gk_members()[1];
        let out_gk = g.vertices().find(|&v| !index.is_in_gk(v)).unwrap();
        let out_gk2 = g
            .vertices()
            .rev()
            .find(|&v| !index.is_in_gk(v) && v != out_gk)
            .unwrap();

        assert_eq!(index.query_type(in_gk, in_gk2), QueryType::BothInGk);
        assert_eq!(index.query_type(in_gk, out_gk), QueryType::OneInGk);
        assert_eq!(index.query_type(out_gk, in_gk), QueryType::OneInGk);
        assert_eq!(index.query_type(out_gk, out_gk2), QueryType::NeitherInGk);

        let out = index.query(in_gk, in_gk2).unwrap();
        assert_eq!(out.distance, dijkstra_p2p(&g, in_gk, in_gk2));
    }

    #[test]
    fn sigma_thresholds_trade_label_size_for_gk_size() {
        // Table 7's trend: a smaller σ stops earlier => larger G_k, smaller
        // labels.
        let g = barabasi_albert(500, 4, WeightModel::Unit, 21);
        let strict = IsLabelIndex::try_build(&g, BuildConfig::sigma(0.95)).unwrap();
        let loose = IsLabelIndex::try_build(&g, BuildConfig::sigma(0.60)).unwrap();
        assert!(loose.stats().k <= strict.stats().k);
        assert!(loose.stats().gk_vertices >= strict.stats().gk_vertices);
        assert!(loose.stats().label_bytes <= strict.stats().label_bytes);
    }

    #[test]
    fn stats_are_coherent() {
        let g = erdos_renyi_gnm(120, 360, WeightModel::Unit, 4);
        let index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        let s = index.stats();
        assert_eq!(s.num_vertices, 120);
        assert_eq!(s.num_edges, 360);
        assert_eq!(s.k, index.hierarchy().k());
        assert!(s.label_entries >= 120); // at least the self entries
        assert!(s.build_time >= s.hierarchy_time + s.labeling_time);
        assert!((s.avg_label_len - s.label_entries as f64 / 120.0).abs() < 1e-9);
    }

    #[test]
    fn out_of_range_endpoints_are_typed_errors_on_every_query_form() {
        let index = paper_index();
        let oob = QueryError::VertexOutOfRange {
            vertex: 100,
            universe: 9,
        };
        assert_eq!(index.try_distance(0, 100), Err(oob));
        assert_eq!(index.session().distance(100, 0), Err(oob));
        assert_eq!(index.try_shortest_path(0, 100), Err(oob));
        let view = LabelView {
            ancestors: &[100],
            dists: &[0],
        };
        assert_eq!(index.try_distance_from_labels(view, view), Err(oob));
    }

    #[test]
    fn try_distance_types_out_of_range() {
        let index = paper_index();
        assert_eq!(
            index.try_distance(0, 100),
            Err(crate::QueryError::VertexOutOfRange {
                vertex: 100,
                universe: 9
            })
        );
        assert_eq!(
            index.try_distance(100, 0),
            Err(crate::QueryError::VertexOutOfRange {
                vertex: 100,
                universe: 9
            })
        );
        assert_eq!(index.try_distance(7, 4), Ok(Some(3)));
    }

    #[test]
    fn try_build_rejects_bad_config() {
        let g = crate::hierarchy::tests::paper_graph();
        let bad = BuildConfig {
            k_selection: KSelection::FixedK(1),
            ..BuildConfig::default()
        };
        assert!(matches!(
            IsLabelIndex::try_build(&g, bad),
            Err(crate::Error::InvalidConfig(_))
        ));
    }

    #[test]
    fn try_shortest_path_distinguishes_unreachable_from_unsupported() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 2);
        let g = b.build();

        // With path info: unreachable is Ok(None), not an error.
        let with = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        assert!(with.try_shortest_path(0, 1).unwrap().is_some());
        assert_eq!(with.try_shortest_path(0, 3), Ok(None));

        // Without path info: a typed NoPathInfo, not a silent None.
        let without = IsLabelIndex::try_build(
            &g,
            BuildConfig {
                keep_path_info: false,
                ..BuildConfig::default()
            },
        )
        .unwrap();
        assert_eq!(
            without.try_shortest_path(0, 1),
            Err(crate::QueryError::NoPathInfo)
        );

        // Dynamic updates also drop path metadata.
        let mut updated = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        updated.try_insert_edge(2, 3, 1).unwrap();
        assert_eq!(
            updated.try_shortest_path(0, 1),
            Err(crate::QueryError::NoPathInfo)
        );
    }

    #[test]
    fn try_distance_from_labels_reports_stale_index() {
        let g = crate::hierarchy::tests::paper_graph();
        let mut index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        let own = |index: &IsLabelIndex, v: VertexId| {
            let l = index.labels().label(v);
            (l.ancestors.to_vec(), l.dists.to_vec())
        };
        let (sa, sd) = own(&index, 7);
        let (ta, td) = own(&index, 4);
        fn view<'a>(a: &'a [VertexId], d: &'a [LabelDist]) -> crate::label::LabelView<'a> {
            crate::label::LabelView {
                ancestors: a,
                dists: d,
            }
        }
        assert_eq!(
            index.try_distance_from_labels(view(&sa, &sd), view(&ta, &td)),
            Ok(Some(3))
        );
        index.try_insert_edge(0, 8, 1).unwrap();
        assert_eq!(
            index.try_distance_from_labels(view(&sa, &sd), view(&ta, &td)),
            Err(crate::QueryError::StaleIndex)
        );
    }

    #[test]
    fn oracle_trait_surface() {
        let index = paper_index();
        let oracle: &dyn crate::DistanceOracle = &index;
        assert_eq!(oracle.engine_name(), "islabel");
        assert_eq!(oracle.num_vertices(), 9);
        assert!(oracle.index_bytes() > 0);
        assert_eq!(oracle.try_distance(7, 4), Ok(Some(3)));
        let batch = oracle
            .distance_batch(&[(7, 4), (0, 6), (3, 3)], BatchOptions::default())
            .unwrap();
        assert_eq!(batch, vec![Some(3), Some(3), Some(0)]);
        assert!(oracle
            .distance_batch(&[(0, 99)], BatchOptions::sequential())
            .is_err());
    }

    #[test]
    fn batch_zero_threads_uses_default_parallelism() {
        let g = erdos_renyi_gnm(60, 140, WeightModel::Unit, 12);
        let index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        let pairs: Vec<(VertexId, VertexId)> =
            (0..40).map(|i| (i % 60, (i * 7 + 3) % 60)).collect();
        let sequential: Vec<Option<Dist>> = pairs
            .iter()
            .map(|&(s, t)| index.try_distance(s, t).unwrap())
            .collect();
        // The old assert!(threads > 0) is gone: 0 selects the default.
        assert_eq!(
            index.distance_batch(&pairs, BatchOptions::with_threads(0)),
            Ok(sequential)
        );
    }

    #[test]
    fn session_matches_try_distance_across_reuse() {
        let g = barabasi_albert(200, 3, WeightModel::UniformRange(1, 4), 17);
        let index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        let mut session = index.session();
        assert_eq!(QuerySession::engine_name(&session), "islabel");
        for round in 0..3 {
            for i in 0..60u32 {
                let (s, t) = ((i * 7) % 200, (i * 13 + 5) % 200);
                assert_eq!(
                    session.distance(s, t),
                    index.try_distance(s, t),
                    "round {round} ({s}, {t})"
                );
            }
        }
        assert_eq!(session.distance(3, 3), Ok(Some(0)));
        assert!(matches!(
            session.distance(0, 999),
            Err(QueryError::VertexOutOfRange { .. })
        ));
    }

    #[test]
    fn session_serves_updated_index_on_patched_dense_kernel() {
        let g = erdos_renyi_gnm(60, 140, WeightModel::UniformRange(1, 5), 23);
        let mut index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        let v = index.try_insert_vertex(&[(0, 2), (10, 1)]).unwrap();
        let mut session = DistanceOracle::session(&index);
        for t in [0u32, 10, 30, v] {
            assert_eq!(
                session.distance(v, t),
                index.try_distance(v, t),
                "({v}, {t})"
            );
        }
    }

    #[test]
    fn full_hierarchy_seeds_the_patched_tail() {
        // A label-only index searches nothing, so the session skips the
        // seed scan. Inserted vertices join the searched view on the
        // patched tail, which holds them alone, never the core's rows:
        // `v2 → v1 → a` is found only by seeding that tail, so the skip
        // must test the searched view, not the base `|G_k|`.
        let g = erdos_renyi_gnm(60, 140, WeightModel::UniformRange(1, 5), 23);
        let mut index = IsLabelIndex::try_build(&g, BuildConfig::full()).unwrap();
        assert_eq!(index.dense_gk().ids().len(), 0);
        let (a, w1, w2) = (7, 3, 4);
        let v1 = index.try_insert_vertex(&[(a, w1)]).unwrap();
        let v2 = index.try_insert_vertex(&[(v1, w2)]).unwrap();
        assert_eq!(
            index.session().distance(v2, a),
            Ok(Some(Dist::from(w1 + w2)))
        );
    }

    #[test]
    fn self_distance_is_zero_for_all_vertices() {
        let index = paper_index();
        for v in 0..9 {
            assert_eq!(index.try_distance(v, v), Ok(Some(0)));
            assert_eq!(index.query(v, v).unwrap().eq1_estimate, Some(0));
        }
    }

    #[test]
    fn symmetric_queries_agree() {
        let g = erdos_renyi_gnm(100, 220, WeightModel::UniformRange(1, 9), 31);
        let index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        for (s, t) in (0..50u32).map(|i| (i, 99 - i)) {
            assert_eq!(
                index.try_distance(s, t),
                index.try_distance(t, s),
                "({s}, {t})"
            );
        }
    }

    #[test]
    fn parallel_batch_matches_sequential() {
        let g = barabasi_albert(300, 3, WeightModel::UniformRange(1, 4), 8);
        let index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        let pairs: Vec<(VertexId, VertexId)> = (0..200)
            .map(|i| ((i * 7) % 300, (i * 13 + 5) % 300))
            .collect();
        let sequential: Vec<Option<Dist>> = pairs
            .iter()
            .map(|&(s, t)| index.try_distance(s, t).unwrap())
            .collect();
        for threads in [1, 2, 4, 7] {
            assert_eq!(
                index.distance_batch(&pairs, BatchOptions::with_threads(threads)),
                Ok(sequential.clone()),
                "{threads}"
            );
        }
        assert_eq!(
            index.distance_batch(&[], BatchOptions::with_threads(4)),
            Ok(vec![])
        );
    }

    #[test]
    fn fixed_k_two_means_single_peel() {
        let g = erdos_renyi_gnm(100, 220, WeightModel::Unit, 31);
        let index = IsLabelIndex::try_build(&g, BuildConfig::fixed_k(2)).unwrap();
        assert_eq!(index.stats().k, 2);
        assert_eq!(index.hierarchy().levels().len(), 1);
        match index.config().k_selection {
            KSelection::FixedK(2) => {}
            other => panic!("unexpected {other:?}"),
        }
    }
}
