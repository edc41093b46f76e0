//! The flat artifact (format version 4; the module keeps the name of the
//! version that introduced the section container): writing an
//! [`IsLabelIndex`] into the `islabel-store` section container and
//! loading it back — either fully
//! into heap structures (this module's [`read_index`]) or zero-copy via
//! [`crate::mmapindex::MmapIndex`], which shares this module's
//! `Sections` resolution and semantic validation so the two load paths
//! cannot drift in what they accept.
//!
//! Every array is its own 8-byte-aligned section (see
//! `islabel_store::format` for the layout constants), which is what makes
//! mmap-and-serve possible. The residual graph `G_k` is stored
//! *only* in compact (dense-id) form, as the in-memory
//! [`crate::dense::DenseCsr`]'s three arrays written verbatim: every row
//! in ascending `(weight, neighbour)` order, which `Sections::validate`
//! checks, so an artifact written before rows were ordered is refused
//! with "rebuild with islabel build". The heap loader reconstructs the
//! full-universe CSR through [`GraphBuilder`], which is exact because CSR
//! construction is canonical (sorted, deduplicated) and the dense
//! sections were derived from a CSR built the same way.

use crate::config::{BuildConfig, IsStrategy, KSelection};
use crate::hierarchy::{Levels, PeelEdge, VertexHierarchy};
use crate::index::IsLabelIndex;
use crate::label::{LabelDist, LabelSet};
use crate::persist::wal;
use islabel_graph::io::{read_csr_binary, write_csr_binary};
use islabel_graph::{GraphBuilder, VertexId};
use islabel_store::format::Header;
use islabel_store::format::{
    FLAG_HAS_HOPS, FLAG_KEEP_PATH_INFO, SECTION_GK_DENSE_OF, SECTION_GK_GLOBAL_OF,
    SECTION_GK_OFFSETS, SECTION_GK_TARGETS, SECTION_GK_VIAS, SECTION_GK_WEIGHTS, SECTION_GRAPH,
    SECTION_LABEL_ANCESTORS, SECTION_LABEL_DISTS, SECTION_LABEL_HOPS, SECTION_LABEL_OFFSETS,
    SECTION_LEVELS, SECTION_OPS, SECTION_PEEL_EDGES, SECTION_PEEL_OFFSETS,
};
use islabel_store::{ArtifactMeta, StoreReader, StoreWriter};
use std::io::{self, Seek, Write};
use std::time::Duration;

use crate::dense::{row_key, DenseCsr, DenseView, NO_DENSE};

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn ksel_encode(config: &BuildConfig) -> (u32, u64) {
    match config.k_selection {
        KSelection::SigmaThreshold(s) => (0, s.to_bits()),
        KSelection::FixedK(k) => (1, (k as f64).to_bits()),
        KSelection::Full => (2, 0),
    }
}

fn ksel_decode(tag: u32, bits: u64) -> io::Result<KSelection> {
    match tag {
        0 => Ok(KSelection::SigmaThreshold(f64::from_bits(bits))),
        1 => Ok(KSelection::FixedK(f64::from_bits(bits) as u32)),
        2 => Ok(KSelection::Full),
        t => Err(bad(&format!("unknown k-selection tag {t}"))),
    }
}

fn is_encode(strategy: IsStrategy) -> (u32, u64) {
    match strategy {
        IsStrategy::MinDegreeGreedy => (0, 0),
        IsStrategy::Random(seed) => (1, seed),
        IsStrategy::MaxDegreeGreedy => (2, 0),
    }
}

fn is_decode(tag: u32, seed: u64) -> io::Result<IsStrategy> {
    match (tag, seed) {
        (0, 0) => Ok(IsStrategy::MinDegreeGreedy),
        (1, seed) => Ok(IsStrategy::Random(seed)),
        (2, 0) => Ok(IsStrategy::MaxDegreeGreedy),
        (t, _) => Err(bad(&format!("unknown IS-strategy tag {t} or stray seed"))),
    }
}

/// The whole [`BuildConfig`] an artifact's header records: what a load
/// restores and what a compaction rebuilds with. A configuration the
/// builder would refuse is refused here too.
pub fn stored_config(h: &Header) -> io::Result<BuildConfig> {
    let config = BuildConfig {
        k_selection: ksel_decode(h.ksel_tag, h.ksel_bits)?,
        is_strategy: is_decode(h.is_tag, h.is_seed)?,
        keep_path_info: h.flags & FLAG_KEEP_PATH_INFO != 0,
        max_levels: h.max_levels,
    };
    config
        .try_validate()
        .map_err(|e| bad(&format!("stored build config: {e}")))?;
    Ok(config)
}

/// Serializes `index` as a v4 flat artifact. Needs [`Seek`] because the
/// header (with section table and checksums) is patched in at the end of
/// the single forward pass. Returns the writer so path-level callers can
/// `sync_all` the file.
pub fn write_index<W: Write + Seek>(index: &IsLabelIndex, out: W) -> io::Result<W> {
    let h = index.hierarchy();
    let labels = index.labels();
    let dense = index.dense_gk();
    let config = index.config();
    let n = h.universe();
    let (ksel_tag, ksel_bits) = ksel_encode(config);
    let (is_tag, is_seed) = is_encode(config.is_strategy);
    let ops = index.overlay.ops();
    let mut flags = 0u32;
    if config.keep_path_info {
        flags |= FLAG_KEEP_PATH_INFO;
    }
    if labels.has_path_info() {
        flags |= FLAG_HAS_HOPS;
    }
    let meta = ArtifactMeta {
        epoch: index.artifact_epoch(),
        flags,
        k: h.k(),
        ksel_tag,
        ksel_bits,
        n: n as u64,
        dense_m: dense.ids().len() as u64,
        op_count: ops.len() as u64,
        max_levels: config.max_levels,
        is_tag,
        is_seed,
    };
    let mut w = StoreWriter::new(out, meta)?;

    // Base graph, reusing the self-describing CSR block format.
    let mut graph_block = Vec::new();
    write_csr_binary(index.base_graph(), &mut graph_block)?;
    w.begin_section(SECTION_GRAPH)?;
    w.write_bytes(&graph_block)?;
    w.end_section()?;
    drop(graph_block);

    // Hierarchy levels.
    w.begin_section(SECTION_LEVELS)?;
    buffered((0..n as VertexId).map(|v| h.level_of(v)), |b| {
        w.write_u32s(b)
    })?;
    w.end_section()?;

    // Peel adjacency: an entry-index offset table, then the flat triples.
    w.begin_section(SECTION_PEEL_OFFSETS)?;
    buffered(offsets(n, |v| h.peel_adj(v).len()), |b| w.write_u64s(b))?;
    w.end_section()?;
    w.begin_section(SECTION_PEEL_EDGES)?;
    let peel = (0..n as VertexId).flat_map(|v| h.peel_adj(v));
    let peel = peel.flat_map(|e| [e.to, e.weight, e.via]);
    buffered(peel, |b| w.write_u32s(b))?;
    w.end_section()?;

    // Dense G_k: the compact CSR, whose three arrays are the sections'
    // layout and row order, written verbatim; then both id maps.
    for (kind, array) in [SECTION_GK_OFFSETS, SECTION_GK_TARGETS, SECTION_GK_WEIGHTS]
        .into_iter()
        .zip(dense.fwd().arrays())
    {
        w.begin_section(kind)?;
        w.write_u32s(array)?;
        w.end_section()?;
    }
    w.begin_section(SECTION_GK_DENSE_OF)?;
    w.write_u32s(dense.ids().dense_of_raw())?;
    w.end_section()?;
    w.begin_section(SECTION_GK_GLOBAL_OF)?;
    w.write_u32s(dense.ids().global_of_raw())?;
    w.end_section()?;

    // Via annotations, global ids (path expansion only): the hierarchy's
    // ascending triples, verbatim.
    w.begin_section(SECTION_GK_VIAS)?;
    let vias = h.gk_vias().iter().flat_map(|&(u, v, via)| [u, v, via]);
    buffered(vias, |b| w.write_u32s(b))?;
    w.end_section()?;

    // Labels, struct-of-arrays.
    w.begin_section(SECTION_LABEL_OFFSETS)?;
    buffered(offsets(n, |v| labels.label(v).len()), |b| w.write_u64s(b))?;
    w.end_section()?;
    w.begin_section(SECTION_LABEL_ANCESTORS)?;
    for v in 0..n as VertexId {
        w.write_u32s(labels.label(v).ancestors)?;
    }
    w.end_section()?;
    w.begin_section(SECTION_LABEL_DISTS)?;
    for v in 0..n as VertexId {
        w.write_u32s(labels.label(v).dists)?;
    }
    w.end_section()?;
    if labels.has_path_info() {
        w.begin_section(SECTION_LABEL_HOPS)?;
        for v in 0..n as VertexId {
            w.write_u32s(labels.label(v).first_hops)?;
        }
        w.end_section()?;
    }

    // Sealed dynamic updates (WAL payload format, length-framed).
    w.begin_section(SECTION_OPS)?;
    let mut rec = Vec::new();
    let mut framed = Vec::new();
    for op in ops {
        rec.clear();
        wal::encode_op(op, &mut rec);
        framed.extend_from_slice(&(rec.len() as u32).to_le_bytes());
        framed.extend_from_slice(&rec);
        if framed.len() >= 1 << 16 {
            w.write_bytes(&framed)?;
            framed.clear();
        }
    }
    w.write_bytes(&framed)?;
    w.end_section()?;

    w.finish()
}

/// Feeds `values` to `sink` in chunks of 4096.
fn buffered<T>(
    values: impl IntoIterator<Item = T>,
    mut sink: impl FnMut(&[T]) -> io::Result<()>,
) -> io::Result<()> {
    let mut buf = Vec::with_capacity(4096);
    for x in values {
        buf.push(x);
        if buf.len() == 4096 {
            sink(&buf)?;
            buf.clear();
        }
    }
    sink(&buf)
}

/// The entry-index offset table of `n` consecutive runs, run `v` holding
/// `len(v)` entries: `0`, then every prefix sum.
fn offsets(n: usize, len: impl Fn(VertexId) -> usize) -> impl Iterator<Item = u64> {
    let ends = (0..n as VertexId).scan(0u64, move |total, v| {
        *total += len(v) as u64;
        Some(*total)
    });
    std::iter::once(0).chain(ends)
}

/// The resolved, typed views of every artifact section, plus the header facts
/// queries need. Produced by [`Sections::resolve`]; semantic validity
/// (value ranges, monotonicity, cross-section consistency) is checked
/// once by [`Sections::validate`] — both the heap loader and `MmapIndex`
/// run it, so the two paths accept exactly the same artifacts.
#[derive(Debug)]
pub(crate) struct Sections<'a> {
    pub n: usize,
    pub m: usize,
    pub k: u32,
    pub has_hops: bool,
    pub config: BuildConfig,
    pub epoch: u64,
    pub op_count: u64,
    pub graph: &'a [u8],
    pub levels: &'a [u32],
    pub peel_offsets: &'a [u64],
    pub peel_edges: &'a [u32],
    pub gk_offsets: &'a [u32],
    pub gk_targets: &'a [u32],
    pub gk_weights: &'a [u32],
    pub dense_of: &'a [u32],
    pub global_of: &'a [u32],
    pub gk_vias: &'a [u32],
    pub label_offsets: &'a [u64],
    pub label_ancestors: &'a [u32],
    pub label_dists: &'a [LabelDist],
    /// Empty when the artifact has no hop section.
    pub label_hops: &'a [u32],
    pub ops: &'a [u8],
}

fn need_u32s<'a>(r: &'a StoreReader, kind: u32, what: &str) -> io::Result<&'a [u32]> {
    r.section_u32s(kind)?
        .ok_or_else(|| bad(&format!("missing section: {what}")))
}

fn need_u64s<'a>(r: &'a StoreReader, kind: u32, what: &str) -> io::Result<&'a [u64]> {
    r.section_u64s(kind)?
        .ok_or_else(|| bad(&format!("missing section: {what}")))
}

impl<'a> Sections<'a> {
    /// Resolves every section to a typed slice and cross-checks all the
    /// O(1) length facts (array sizes against `n`, `m`, and each other).
    /// Cheap enough to re-run per session; the O(index) value scans live
    /// in [`validate`](Self::validate).
    pub(crate) fn resolve(r: &'a StoreReader) -> io::Result<Sections<'a>> {
        let h = r.header();
        let n = usize::try_from(h.n).map_err(|_| bad("vertex count overflows usize"))?;
        let m = usize::try_from(h.dense_m).map_err(|_| bad("G_k size overflows usize"))?;
        if n > u32::MAX as usize || m > n {
            return Err(bad("vertex counts out of range"));
        }
        let s = Sections {
            n,
            m,
            k: h.k,
            has_hops: h.flags & FLAG_HAS_HOPS != 0,
            config: stored_config(h)?,
            epoch: h.epoch,
            op_count: h.op_count,
            graph: r
                .section_bytes(SECTION_GRAPH)
                .ok_or_else(|| bad("missing section: graph"))?,
            levels: need_u32s(r, SECTION_LEVELS, "levels")?,
            peel_offsets: need_u64s(r, SECTION_PEEL_OFFSETS, "peel offsets")?,
            peel_edges: need_u32s(r, SECTION_PEEL_EDGES, "peel edges")?,
            gk_offsets: need_u32s(r, SECTION_GK_OFFSETS, "gk offsets")?,
            gk_targets: need_u32s(r, SECTION_GK_TARGETS, "gk targets")?,
            gk_weights: need_u32s(r, SECTION_GK_WEIGHTS, "gk weights")?,
            dense_of: need_u32s(r, SECTION_GK_DENSE_OF, "gk dense ids")?,
            global_of: need_u32s(r, SECTION_GK_GLOBAL_OF, "gk global ids")?,
            gk_vias: need_u32s(r, SECTION_GK_VIAS, "gk vias")?,
            label_offsets: need_u64s(r, SECTION_LABEL_OFFSETS, "label offsets")?,
            label_ancestors: need_u32s(r, SECTION_LABEL_ANCESTORS, "label ancestors")?,
            label_dists: need_u32s(r, SECTION_LABEL_DISTS, "label dists")?,
            label_hops: match (
                h.flags & FLAG_HAS_HOPS != 0,
                r.section_u32s(SECTION_LABEL_HOPS)?,
            ) {
                (true, Some(hops)) => hops,
                (true, None) => return Err(bad("missing section: label hops")),
                (false, Some(_)) => return Err(bad("hop section without the hops flag")),
                (false, None) => &[],
            },
            ops: r.section_bytes(SECTION_OPS).unwrap_or(&[]),
        };

        // Length cross-checks (O(1) each).
        if s.levels.len() != n {
            return Err(bad("level table size mismatch"));
        }
        if s.peel_offsets.len() != n + 1 {
            return Err(bad("peel offset table size mismatch"));
        }
        if s.peel_offsets.first() != Some(&0)
            || s.peel_offsets.last().copied().unwrap_or(0) as u128 * 3 != s.peel_edges.len() as u128
        {
            return Err(bad("peel offsets inconsistent with edge array"));
        }
        if s.gk_offsets.len() != m + 1 {
            return Err(bad("gk offset table size mismatch"));
        }
        if s.gk_offsets.first() != Some(&0)
            || s.gk_offsets.last().copied().unwrap_or(0) as usize != s.gk_targets.len()
            || s.gk_targets.len() != s.gk_weights.len()
        {
            return Err(bad("gk offsets inconsistent with adjacency arrays"));
        }
        if s.dense_of.len() != n || s.global_of.len() != m {
            return Err(bad("gk id map size mismatch"));
        }
        if !s.gk_vias.len().is_multiple_of(3) {
            return Err(bad("via table length not a multiple of 3"));
        }
        if s.label_offsets.len() != n + 1 {
            return Err(bad("label offset table size mismatch"));
        }
        let label_total = s.label_offsets.last().copied().unwrap_or(0);
        if s.label_offsets.first() != Some(&0)
            || label_total as u128 != s.label_ancestors.len() as u128
            || s.label_ancestors.len() != s.label_dists.len()
            || (s.has_hops && s.label_hops.len() != s.label_ancestors.len())
        {
            return Err(bad("label offsets inconsistent with entry arrays"));
        }
        Ok(s)
    }

    /// The O(index) semantic scans: every stored value is range-checked
    /// and every cross-array invariant verified, so queries over these
    /// slices can never index out of bounds. Run once at open.
    ///
    /// The scan groups (peel graph / G_k arrays / id maps / labels) are
    /// independent, so for large artifacts they run on scoped threads —
    /// validate-on-open sits on the hot-reload path and its latency is
    /// the price of every swap. Error precedence matches the sequential
    /// order regardless of which thread finishes first.
    pub(crate) fn validate(&self) -> io::Result<()> {
        /// Entry count (summed over the big arrays) above which the
        /// scans fan out to threads; below it thread spawn overhead
        /// would exceed the scan itself.
        const PARALLEL_VALIDATE_ENTRIES: usize = 1 << 18;
        let work =
            self.n + self.peel_edges.len() + self.gk_targets.len() + self.label_ancestors.len();
        if work < PARALLEL_VALIDATE_ENTRIES {
            self.validate_levels_and_peel()?;
            self.validate_gk_and_vias()?;
            self.validate_id_maps()?;
            return self.validate_labels(0, self.n);
        }
        // Labels dominate (one entry per (vertex, ancestor) pair), so
        // that group is itself chunked by vertex range.
        let quarter = (self.n / 4).max(1);
        std::thread::scope(|scope| {
            let handles = [
                scope.spawn(|| self.validate_levels_and_peel()),
                scope.spawn(|| self.validate_gk_and_vias()),
                scope.spawn(|| self.validate_id_maps()),
                scope.spawn(|| self.validate_labels(0, quarter.min(self.n))),
                scope
                    .spawn(|| self.validate_labels(quarter.min(self.n), (2 * quarter).min(self.n))),
                scope.spawn(|| {
                    self.validate_labels((2 * quarter).min(self.n), (3 * quarter).min(self.n))
                }),
                scope.spawn(|| self.validate_labels((3 * quarter).min(self.n), self.n)),
            ];
            handles.into_iter().try_for_each(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(bad("validation worker panicked")))
            })
        })
    }

    fn validate_levels_and_peel(&self) -> io::Result<()> {
        let n = self.n;
        let nv = n as u32;
        if self.levels.iter().any(|&l| l == 0 || l > self.k) {
            return Err(bad("level number out of range"));
        }
        if !self.peel_offsets.windows(2).all(|w| w[0] <= w[1]) {
            return Err(bad("peel offsets not monotone"));
        }
        if self.peel_offsets.windows(2).any(|w| w[1] - w[0] > n as u64) {
            return Err(bad("peel adjacency larger than the vertex universe"));
        }
        for t in self.peel_edges.chunks_exact(3) {
            let (to, weight, via) = (t[0], t[1], t[2]);
            if to >= nv || weight == 0 || (via != islabel_graph::adjacency::NO_VIA && via >= nv) {
                return Err(bad("peel edge out of range"));
            }
        }
        Ok(())
    }

    fn validate_gk_and_vias(&self) -> io::Result<()> {
        let m = self.m;
        let nv = self.n as u32;
        if !self.gk_offsets.windows(2).all(|w| w[0] <= w[1]) {
            return Err(bad("gk offsets not monotone"));
        }
        if self.gk_targets.iter().any(|&t| t as usize >= m) {
            return Err(bad("gk target out of range"));
        }
        if self.gk_weights.contains(&0) {
            return Err(bad("gk edge weight zero"));
        }
        // The search cuts a row at the first entry µ rejects, so a row out
        // of order would skip a shorter edge: refused here, never
        // re-checked by the kernel.
        let gk = self.gk();
        for d in 0..m as u32 {
            let (targets, weights) = gk.row(d);
            let keys = targets.iter().zip(weights).map(|(&t, &w)| row_key(t, w));
            if !keys.is_sorted_by(|a, b| a < b) {
                return Err(bad("gk row not weight-ordered; rebuild with islabel build"));
            }
        }
        for t in self.gk_vias.chunks_exact(3) {
            if t[0] >= nv || t[1] >= nv || t[2] >= nv {
                return Err(bad("via annotation out of range"));
            }
        }
        // `gk_via` binary-searches the triples as loaded, so they must be
        // strictly ascending by `(u, v)` with `u < v`: refused here, never
        // re-checked by the lookup.
        let pairs = self.gk_vias.chunks_exact(3).map(|t| (t[0], t[1]));
        if !pairs.clone().all(|(u, v)| u < v) || !pairs.is_sorted_by(|a, b| a < b) {
            return Err(bad(
                "gk via table not strictly ascending by (u, v) with u < v",
            ));
        }
        Ok(())
    }

    /// The id maps must be mutually inverse bijections between the m
    /// dense ids and an ascending subset of the universe, and dense
    /// membership must agree with the level table (level == k) — the
    /// heap loader reconstructs membership from levels while the mmap
    /// engine reads `dense_of`, so this is what keeps them identical.
    fn validate_id_maps(&self) -> io::Result<()> {
        let m = self.m;
        let nv = self.n as u32;
        if !self.global_of.windows(2).all(|w| w[0] < w[1]) {
            return Err(bad("gk global ids not ascending"));
        }
        if self.global_of.last().is_some_and(|&g| g >= nv) {
            return Err(bad("gk global id out of range"));
        }
        for (d, &g) in self.global_of.iter().enumerate() {
            if self.dense_of.get(g as usize) != Some(&(d as u32)) {
                return Err(bad("gk id maps not inverse"));
            }
        }
        let mut members = 0usize;
        for (v, &d) in self.dense_of.iter().enumerate() {
            let in_gk = d != NO_DENSE;
            if in_gk {
                members += 1;
                if d as usize >= m {
                    return Err(bad("gk dense id out of range"));
                }
            }
            if in_gk != (self.levels.get(v).copied() == Some(self.k)) {
                return Err(bad("gk membership disagrees with level table"));
            }
        }
        if members != m {
            return Err(bad("gk member count disagrees with header"));
        }
        Ok(())
    }

    /// Label scans over the vertex range `lo..hi`. Chunks overlap on
    /// the shared boundary offset pair, so every adjacent pair of
    /// `label_offsets` is covered by exactly one chunk's monotone
    /// check. A locally-monotone chunk of a globally non-monotone
    /// table could still point past the entry arrays (resolve only
    /// pins the final offset), so the end offset is bounds-checked
    /// here before any slicing.
    fn validate_labels(&self, lo: usize, hi: usize) -> io::Result<()> {
        let n = self.n;
        let nv = n as u32;
        let Some(offs) = self.label_offsets.get(lo..=hi) else {
            return Ok(());
        };
        if !offs.windows(2).all(|w| w[0] <= w[1]) {
            return Err(bad("label offsets not monotone"));
        }
        if offs.windows(2).any(|w| w[1] - w[0] > n as u64) {
            return Err(bad("label larger than the vertex universe"));
        }
        let first = offs.first().copied().unwrap_or(0);
        let last = offs.last().copied().unwrap_or(0);
        if first > last || last > self.label_ancestors.len() as u64 {
            return Err(bad("label offsets not monotone"));
        }
        if self.label_ancestors[first as usize..last as usize]
            .iter()
            .any(|&a| a >= nv)
        {
            return Err(bad("label ancestor out of range"));
        }
        for w in offs.windows(2) {
            let entries = &self.label_ancestors[w[0] as usize..w[1] as usize];
            if !entries.windows(2).all(|e| e[0] < e[1]) {
                return Err(bad("label entries not sorted"));
            }
        }
        Ok(())
    }

    /// The zero-universe sections — every slice empty, every query
    /// rejected by the bounds check. Used as the unreachable fallback in
    /// `MmapIndex::sections` so re-resolution never needs to panic.
    pub(crate) fn empty() -> Sections<'static> {
        Sections {
            n: 0,
            m: 0,
            k: 1,
            has_hops: false,
            config: BuildConfig::full(),
            epoch: 0,
            op_count: 0,
            graph: &[],
            levels: &[],
            peel_offsets: &[],
            peel_edges: &[],
            gk_offsets: &[],
            gk_targets: &[],
            gk_weights: &[],
            dense_of: &[],
            global_of: &[],
            gk_vias: &[],
            label_offsets: &[],
            label_ancestors: &[],
            label_dists: &[],
            label_hops: &[],
            ops: &[],
        }
    }

    /// The `G_k` sections as the kernel's row view. Sound to query only
    /// after [`validate`](Self::validate).
    #[inline]
    pub(crate) fn gk(&self) -> DenseCsr<&'a [u32]> {
        DenseCsr::from_sections(self.gk_offsets, self.gk_targets, self.gk_weights)
    }

    /// One vertex's label as a [`crate::label::LabelView`] over the
    /// mapped slices. `v` must be `< n` (callers bounds-check first).
    #[inline]
    pub(crate) fn label_view(&self, v: VertexId) -> crate::label::LabelView<'a> {
        let lo = self.label_offsets[v as usize] as usize;
        let hi = self.label_offsets[v as usize + 1] as usize;
        crate::label::LabelView {
            ancestors: &self.label_ancestors[lo..hi],
            dists: &self.label_dists[lo..hi],
            first_hops: if self.label_hops.is_empty() {
                &[]
            } else {
                &self.label_hops[lo..hi]
            },
        }
    }
}

/// Loads a v4 artifact fully into heap structures, including sealed-op
/// replay.
pub fn read_index(reader: &StoreReader) -> io::Result<IsLabelIndex> {
    let s = Sections::resolve(reader)?;
    s.validate()?;
    let n = s.n;
    let m = s.m;

    let graph = read_csr_binary(&mut &s.graph[..])?;
    if graph.num_vertices() != n {
        return Err(bad("graph universe disagrees with header"));
    }

    let mut levels = Levels {
        level_of: s.levels.to_vec(),
        k: s.k,
        sets: vec![Vec::new(); s.k.saturating_sub(1) as usize],
        gk_members: Vec::with_capacity(m),
    };
    for (v, &l) in levels.level_of.iter().enumerate() {
        if l == s.k {
            levels.gk_members.push(v as VertexId);
        } else {
            levels.sets[(l - 1) as usize].push(v as VertexId);
        }
    }

    let mut peel_adj: Vec<Box<[PeelEdge]>> = Vec::with_capacity(n);
    for w in s.peel_offsets.windows(2) {
        let adj: Vec<PeelEdge> = s.peel_edges[w[0] as usize * 3..w[1] as usize * 3]
            .chunks_exact(3)
            .map(|t| PeelEdge {
                to: t[0],
                weight: t[1],
                via: t[2],
            })
            .collect();
        peel_adj.push(adj.into_boxed_slice());
    }

    // Reconstruct the full-universe residual CSR from the dense sections.
    // CSR construction is canonical (sorted, min-deduplicated), so this is
    // bit-identical to the graph the dense sections were derived from.
    let mut b = GraphBuilder::new(n);
    b.reserve(s.gk_targets.len() / 2);
    let dense = s.gk();
    let mut row = Vec::new();
    for d in 0..m as u32 {
        // Each row back in neighbour order, so the builder sorts a sorted
        // edge list.
        row.clear();
        row.extend(dense.edges_of(d).filter(|&(t, _)| t > d));
        row.sort_unstable();
        for &(t, w) in &row {
            b.add_edge(s.global_of[d as usize], s.global_of[t as usize], w);
        }
    }
    let gk = b.build();

    let gk_vias = s
        .gk_vias
        .chunks_exact(3)
        .map(|t| (t[0], t[1], t[2]))
        .collect();

    let mut per_vertex: Vec<Vec<(VertexId, LabelDist, VertexId)>> = Vec::with_capacity(n);
    for w in s.label_offsets.windows(2) {
        let (lo, hi) = (w[0] as usize, w[1] as usize);
        let entries = (lo..hi)
            .map(|e| {
                let hop = if s.has_hops {
                    s.label_hops[e]
                } else {
                    crate::label::NO_HOP
                };
                (s.label_ancestors[e], s.label_dists[e], hop)
            })
            .collect();
        per_vertex.push(entries);
    }
    let labels = LabelSet::from_per_vertex(per_vertex, s.has_hops);

    let hierarchy = VertexHierarchy::from_parts(levels, peel_adj, gk, gk_vias);
    // Build times are not recorded in the artifact.
    let mut index = IsLabelIndex::from_parts(
        graph,
        hierarchy,
        labels,
        s.config,
        Duration::ZERO,
        Duration::ZERO,
    );
    index.set_artifact_epoch(s.epoch);

    // Replay the sealed op log through the normal mutation path: every
    // record is validated against the overlay state it applies to, so a
    // corrupt op section fails cleanly instead of building a wrong overlay.
    let mut bytes = s.ops;
    for i in 0..s.op_count {
        if bytes.len() < 4 {
            return Err(bad(&format!("sealed op {i} truncated")));
        }
        let (len4, rest) = bytes.split_at(4);
        let len = u32::from_le_bytes([len4[0], len4[1], len4[2], len4[3]]) as usize;
        if len > wal::MAX_RECORD_LEN as usize || rest.len() < len {
            return Err(bad(&format!("sealed op {i} implausibly large")));
        }
        let (payload, rest) = rest.split_at(len);
        let op = wal::decode_op(payload).map_err(|e| bad(&format!("sealed op {i}: {e}")))?;
        index
            .replay_op(&op)
            .map_err(|e| bad(&format!("sealed op {i} inapplicable: {e}")))?;
        bytes = rest;
    }
    if !bytes.is_empty() {
        return Err(bad("trailing bytes after the sealed op log"));
    }
    Ok(index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use islabel_graph::generators::{barabasi_albert, WeightModel};
    use std::io::Cursor;

    fn v3_roundtrip(config: BuildConfig) -> (IsLabelIndex, IsLabelIndex) {
        let g = barabasi_albert(200, 3, WeightModel::UniformRange(1, 5), 13);
        let index = IsLabelIndex::try_build(&g, config).unwrap();
        let buf = write_index(&index, Cursor::new(Vec::new()))
            .unwrap()
            .into_inner();
        let reader = StoreReader::from_bytes(buf).unwrap();
        let loaded = read_index(&reader).unwrap();
        (index, loaded)
    }

    #[test]
    fn v3_roundtrip_preserves_everything_queryable() {
        let (index, loaded) = v3_roundtrip(BuildConfig::default());
        assert_eq!(loaded.labels(), index.labels());
        assert_eq!(loaded.hierarchy().gk(), index.hierarchy().gk());
        assert_eq!(loaded.hierarchy().levels(), index.hierarchy().levels());
        assert_eq!(loaded.dense_gk().fwd(), index.dense_gk().fwd());
        assert_eq!(loaded.dense_gk().ids(), index.dense_gk().ids());
        assert_eq!(loaded.artifact_epoch(), index.artifact_epoch());
        assert_eq!(loaded.config().k_selection, index.config().k_selection);
        for i in 0..60u32 {
            let (s, t) = ((i * 7) % 200, (i * 11 + 3) % 200);
            assert_eq!(
                loaded.try_distance(s, t),
                index.try_distance(s, t),
                "({s}, {t})"
            );
            assert_eq!(
                loaded.try_shortest_path(s, t),
                index.try_shortest_path(s, t),
                "path ({s}, {t})"
            );
        }
    }

    #[test]
    fn v3_roundtrip_without_path_info_and_full() {
        let config = BuildConfig {
            keep_path_info: false,
            ..BuildConfig::default()
        };
        let (index, loaded) = v3_roundtrip(config);
        assert_eq!(loaded.labels(), index.labels());
        assert!(!loaded.labels().has_path_info());

        let (index, loaded) = v3_roundtrip(BuildConfig::full());
        assert_eq!(loaded.stats().gk_vertices, 0);
        for i in 0..30u32 {
            let (s, t) = ((i * 13) % 200, (i * 29 + 1) % 200);
            assert_eq!(loaded.try_distance(s, t), index.try_distance(s, t));
        }
    }

    #[test]
    fn v3_seals_and_replays_dynamic_updates() {
        let g = barabasi_albert(150, 3, WeightModel::Unit, 1);
        let mut index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        index.try_insert_edge(0, 30, 1).unwrap();
        let u = index.try_insert_vertex(&[(0, 2), (30, 1)]).unwrap();
        let victim = index.hierarchy().gk_members()[0];
        index.try_delete_vertex(victim).unwrap();

        let buf = write_index(&index, Cursor::new(Vec::new()))
            .unwrap()
            .into_inner();
        let reader = StoreReader::from_bytes(buf).unwrap();
        assert_eq!(reader.header().op_count, 3);
        let loaded = read_index(&reader).unwrap();
        assert!(loaded.has_updates());
        assert_eq!(loaded.num_vertices(), index.num_vertices());
        assert_eq!(loaded.artifact_epoch(), index.artifact_epoch());
        assert_eq!(loaded.is_stale(), index.is_stale());
        for i in 0..40u32 {
            let (s, t) = ((i * 7) % 151, (i * 11 + 3) % 151);
            assert_eq!(loaded.try_distance(s, t), index.try_distance(s, t));
        }
        assert_eq!(loaded.try_distance(u, 30), index.try_distance(u, 30));
    }

    #[test]
    fn v3_semantic_validation_rejects_tampering() {
        let g = barabasi_albert(60, 2, WeightModel::Unit, 5);
        let index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        let good = write_index(&index, Cursor::new(Vec::new()))
            .unwrap()
            .into_inner();

        // Re-checksum a section after tampering so only semantic (not
        // structural) validation can catch it: swap the first two label
        // ancestors of some vertex with at least 2 entries.
        let reader = StoreReader::from_bytes(good.clone()).unwrap();
        let s = Sections::resolve(&reader).unwrap();
        let target = s
            .label_offsets
            .windows(2)
            .position(|w| w[1] - w[0] >= 2)
            .expect("some label has 2+ entries");
        let lo = s.label_offsets[target] as usize;
        let sec = *reader.header().section(SECTION_LABEL_ANCESTORS).unwrap();
        drop(reader);

        let mut bad_bytes = good;
        let base = sec.offset as usize + lo * 4;
        bad_bytes.copy_within(base..base + 4, base + 4); // duplicate entry => not strictly sorted
                                                         // Patch the section checksum and the header crc so structure
                                                         // validates and only semantic validation can object.
        let body = &bad_bytes[sec.offset as usize..(sec.offset + sec.len) as usize];
        let new_sum = islabel_store::format::checksum64(body);
        assert_ne!(new_sum, sec.checksum); // tampering changed the body
                                           // Rewrite the table entry checksum in place.
        let table_at = (0..islabel_store::format::MAX_SECTIONS)
            .map(|i| {
                islabel_store::format::HEADER_BYTES + i * islabel_store::format::TABLE_ENTRY_BYTES
            })
            .find(|&at| {
                u32::from_le_bytes(bad_bytes[at..at + 4].try_into().unwrap())
                    == SECTION_LABEL_ANCESTORS
            })
            .unwrap();
        bad_bytes[table_at + 24..table_at + 32].copy_from_slice(&new_sum.to_le_bytes());
        // Recompute the header crc.
        let mut head: Vec<u8> = bad_bytes[..islabel_store::format::DATA_START].to_vec();
        head[64..68].fill(0);
        let hcrc = islabel_store::format::crc32(&head);
        bad_bytes[64..68].copy_from_slice(&hcrc.to_le_bytes());

        let reader = StoreReader::from_bytes(bad_bytes).unwrap(); // structure OK
        let err = read_index(&reader).unwrap_err();
        assert!(err.to_string().contains("not sorted"), "{err}");
    }
}
