//! The flat artifact (format version 5; the module keeps the name of the
//! version that introduced the section container): an [`IsLabelIndex`]'s
//! arrays written into the `islabel-store` section container, and an
//! artifact opened as an index over its own sections.
//!
//! Every array of an index is one 8-byte-aligned section, verbatim (see
//! `islabel_store::format` for the layout constants): the level table, the
//! peel adjacency as offsets plus `[to, weight, via]` triples, `G_k` as the
//! compact [`crate::dense::DenseCsr`]'s three arrays plus both id maps, the
//! via table and the three label arrays. So a load copies nothing:
//! [`read_index`] runs `Sections::validate` — the one validator — once,
//! and the index then reads the mapping in place
//! (`docs/adr/0018-one-engine-over-the-sections.md`). Every `G_k` row is
//! in ascending `(weight, neighbour)` order, which `Sections::validate`
//! checks, so an artifact written before rows were ordered is refused with
//! "rebuild with islabel build".

use crate::config::{BuildConfig, IsStrategy, KSelection};
use crate::dense::{row_key, DenseCsr, DenseGk, GkIdMap, NO_DENSE};
use crate::hierarchy::{HierarchyView, PeelCsr};
use crate::index::{IsLabelIndex, Storage};
use crate::label::Labels;
use crate::persist::wal;
use crate::updates::UpdateOp;
use islabel_graph::io::{check_csr_binary, read_csr_binary, write_csr_binary};
use islabel_graph::CsrGraph;
use islabel_store::format::{
    section_kind_name, Header, FLAG_KEEP_PATH_INFO, SECTION_GK_DENSE_OF, SECTION_GK_GLOBAL_OF,
    SECTION_GK_OFFSETS, SECTION_GK_TARGETS, SECTION_GK_VIAS, SECTION_GK_WEIGHTS, SECTION_GRAPH,
    SECTION_LABEL_ANCESTORS, SECTION_LABEL_DISTS, SECTION_LABEL_OFFSETS, SECTION_LEVELS,
    SECTION_OPS, SECTION_PEEL_EDGES, SECTION_PEEL_OFFSETS,
};
use islabel_store::mmap::{cast_u32s, cast_u64s};
use islabel_store::{ArtifactMeta, StoreReader, StoreWriter};
use std::io::{self, Seek, Write};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// Serializes `index` as a v5 flat artifact: each of its arrays verbatim,
/// then its pending ops. Needs [`Seek`] because the header (with section
/// table and checksums) is patched in at the end of the single forward
/// pass. Returns the writer so path-level callers can `sync_all` the file.
pub fn write_index<W: Write + Seek>(index: &IsLabelIndex, out: W) -> io::Result<W> {
    let Sections {
        hierarchy: h,
        labels,
    } = index.sections();
    let config = index.config();
    let (ksel_tag, ksel_bits) = ksel_encode(config);
    let (is_tag, is_seed) = is_encode(config.is_strategy);
    let ops = index.overlay.ops();
    let mut flags = 0u32;
    if config.keep_path_info {
        flags |= FLAG_KEEP_PATH_INFO;
    }
    let meta = ArtifactMeta {
        epoch: index.artifact_epoch(),
        flags,
        k: h.k(),
        ksel_tag,
        ksel_bits,
        n: h.universe() as u64,
        dense_m: h.num_gk_vertices() as u64,
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

    let [gk_offsets, gk_targets, gk_weights] = h.gk.fwd().arrays();
    let u32s = |w: &mut StoreWriter<W>, kind: u32, array: &[u32]| {
        w.begin_section(kind)?;
        w.write_u32s(array)?;
        w.end_section()
    };
    let u64s = |w: &mut StoreWriter<W>, kind: u32, array: &[u64]| {
        w.begin_section(kind)?;
        w.write_u64s(array)?;
        w.end_section()
    };
    u32s(&mut w, SECTION_LEVELS, h.level_of)?;
    u64s(&mut w, SECTION_PEEL_OFFSETS, h.peel.offsets)?;
    u32s(&mut w, SECTION_PEEL_EDGES, h.peel.entries.as_flattened())?;
    u32s(&mut w, SECTION_GK_OFFSETS, gk_offsets)?;
    u32s(&mut w, SECTION_GK_TARGETS, gk_targets)?;
    u32s(&mut w, SECTION_GK_WEIGHTS, gk_weights)?;
    u32s(&mut w, SECTION_GK_DENSE_OF, h.gk.ids().dense_of_raw())?;
    u32s(&mut w, SECTION_GK_GLOBAL_OF, h.gk.ids().global_of_raw())?;
    u32s(&mut w, SECTION_GK_VIAS, h.gk_vias.as_flattened())?;
    u64s(&mut w, SECTION_LABEL_OFFSETS, labels.offsets)?;
    u32s(&mut w, SECTION_LABEL_ANCESTORS, labels.ancestors)?;
    u32s(&mut w, SECTION_LABEL_DISTS, labels.dists)?;

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
/// An index's arrays as plain slices — a build's `Vec`s or a mapped
/// artifact's sections, the same layout either way. Sessions, updates,
/// path queries and the writer all read an index through this one view,
/// taken once per session or operation. Sound to query only once
/// [`validate`](Self::validate) has accepted the arrays, which a build
/// establishes by construction and [`read_index`] checks at open.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sections<'a> {
    pub hierarchy: HierarchyView<'a>,
    pub labels: Labels<'a>,
}

impl Sections<'_> {
    /// Every length fact and every stored value, range-checked and
    /// cross-checked, with the artifact's base-graph `graph` block: after
    /// it, no query, update or path over these slices can index out of
    /// bounds. The one validator of an artifact, run once at open.
    ///
    /// The value scans (peel graph / G_k arrays / id maps / labels / base
    /// graph) are independent, so for large artifacts they run on scoped
    /// threads — validate-on-open sits on the hot-reload path and its
    /// latency is the price of every swap. Error precedence matches the
    /// sequential order regardless of which thread finishes first. Returns
    /// the base graph's edge count.
    pub(crate) fn validate(&self, graph: &[u8]) -> io::Result<usize> {
        /// Entry count (summed over the big arrays) above which the
        /// scans fan out to threads; below it thread spawn overhead
        /// would exceed the scan itself.
        const PARALLEL_VALIDATE_ENTRIES: usize = 1 << 18;
        self.validate_lengths()?;
        let h = &self.hierarchy;
        let n = h.universe();
        let edges = AtomicUsize::new(0);
        let graph_check = || match check_csr_binary(graph) {
            Ok((gn, e)) if gn == n => {
                // ordering: Relaxed — read after the scope joins this thread.
                edges.store(e, Ordering::Relaxed);
                Ok(())
            }
            Ok(_) => Err(bad("graph universe disagrees with header")),
            Err(e) => Err(bad(&format!("graph section: {e}"))),
        };
        let quarter = (n / 4).max(1);
        let cut = |i: usize| (i * quarter).min(n);
        let groups: [&(dyn Fn() -> io::Result<()> + Sync); 8] = [
            &|| self.validate_levels_and_peel(),
            &|| self.validate_gk_and_vias(),
            &|| self.validate_id_maps(),
            // Labels dominate (one entry per (vertex, ancestor) pair), so
            // that group is itself chunked by vertex range.
            &|| self.validate_labels(0, cut(1)),
            &|| self.validate_labels(cut(1), cut(2)),
            &|| self.validate_labels(cut(2), cut(3)),
            &|| self.validate_labels(cut(3), n),
            &graph_check,
        ];
        let work = n + h.peel.entries.len() + h.gk.fwd().num_entries() + self.labels.num_entries();
        if work < PARALLEL_VALIDATE_ENTRIES {
            groups.iter().try_for_each(|group| group())?;
        } else {
            std::thread::scope(|scope| {
                let handles = groups.map(|group| scope.spawn(group));
                handles.into_iter().try_for_each(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err(bad("validation worker panicked")))
                })
            })?;
        }
        // ordering: Relaxed — every writer has been joined.
        Ok(edges.load(Ordering::Relaxed))
    }

    /// The O(1) length facts: array sizes against `n`, `m` and each other.
    fn validate_lengths(&self) -> io::Result<()> {
        /// Whether `offsets` frames `rows` rows over `entries` entries.
        fn frames<T: Copy + Into<u64>>(offsets: &[T], rows: usize, entries: usize) -> bool {
            offsets.len() == rows + 1
                && offsets.first().map(|&o| o.into()) == Some(0)
                && offsets.last().map(|&o| o.into()) == Some(entries as u64)
        }
        let h = &self.hierarchy;
        let (n, m) = (h.universe(), h.num_gk_vertices());
        let [gk_offsets, gk_targets, gk_weights] = h.gk.fwd().arrays();
        let Labels {
            offsets,
            ancestors,
            dists,
        } = self.labels;
        let facts = [
            (
                frames(h.peel.offsets, n, h.peel.entries.len()),
                "peel offsets inconsistent with edge array",
            ),
            (
                frames(gk_offsets, m, gk_targets.len()) && gk_weights.len() == gk_targets.len(),
                "gk offsets inconsistent with adjacency arrays",
            ),
            (
                h.gk.ids().dense_of_raw().len() == n,
                "gk id map size mismatch",
            ),
            (
                frames(offsets, n, ancestors.len()) && dists.len() == ancestors.len(),
                "label offsets inconsistent with entry arrays",
            ),
        ];
        match facts.into_iter().find(|&(holds, _)| !holds) {
            Some((_, what)) => Err(bad(what)),
            None => Ok(()),
        }
    }

    fn validate_levels_and_peel(&self) -> io::Result<()> {
        let h = &self.hierarchy;
        let n = h.universe();
        let nv = n as u32;
        if h.level_of.iter().any(|&l| l == 0 || l > h.k) {
            return Err(bad("level number out of range"));
        }
        let PeelCsr { offsets, entries } = h.peel;
        if !offsets.windows(2).all(|w| w[0] <= w[1]) {
            return Err(bad("peel offsets not monotone"));
        }
        if offsets.windows(2).any(|w| w[1] - w[0] > n as u64) {
            return Err(bad("peel adjacency larger than the vertex universe"));
        }
        for &[to, weight, via] in entries {
            if to >= nv || weight == 0 || (via != islabel_graph::adjacency::NO_VIA && via >= nv) {
                return Err(bad("peel edge out of range"));
            }
        }
        Ok(())
    }

    fn validate_gk_and_vias(&self) -> io::Result<()> {
        let h = &self.hierarchy;
        let m = h.num_gk_vertices();
        let nv = h.universe() as u32;
        let gk = h.gk.fwd();
        let [gk_offsets, gk_targets, gk_weights] = gk.arrays();
        if !gk_offsets.windows(2).all(|w| w[0] <= w[1]) {
            return Err(bad("gk offsets not monotone"));
        }
        if gk_targets.iter().any(|&t| t as usize >= m) {
            return Err(bad("gk target out of range"));
        }
        if gk_weights.contains(&0) {
            return Err(bad("gk edge weight zero"));
        }
        // The search cuts a row at the first entry µ rejects, so a row out
        // of order would skip a shorter edge: refused here, never
        // re-checked by the kernel.
        for d in 0..m as u32 {
            let (targets, weights) = gk.row(d);
            let keys = targets.iter().zip(weights).map(|(&t, &w)| row_key(t, w));
            if !keys.is_sorted_by(|a, b| a < b) {
                return Err(bad("gk row not weight-ordered; rebuild with islabel build"));
            }
        }
        if h.gk_vias.iter().flatten().any(|&x| x >= nv) {
            return Err(bad("via annotation out of range"));
        }
        // `gk_via` binary-searches the triples as loaded, so they must be
        // strictly ascending by `(u, v)` with `u < v`: refused here, never
        // re-checked by the lookup.
        let pairs = h.gk_vias.iter().map(|&[u, v, _]| (u, v));
        if !pairs.clone().all(|(u, v)| u < v) || !pairs.is_sorted_by(|a, b| a < b) {
            return Err(bad(
                "gk via table not strictly ascending by (u, v) with u < v",
            ));
        }
        Ok(())
    }

    /// The id maps must be mutually inverse bijections between the m
    /// dense ids and an ascending subset of the universe, and dense
    /// membership must agree with the level table (level == k): `G_k`
    /// membership is read from either, so this is what keeps them one.
    fn validate_id_maps(&self) -> io::Result<()> {
        let h = &self.hierarchy;
        let m = h.num_gk_vertices();
        let nv = h.universe() as u32;
        let (dense_of, global_of) = (h.gk.ids().dense_of_raw(), h.gk.ids().global_of_raw());
        if !global_of.windows(2).all(|w| w[0] < w[1]) {
            return Err(bad("gk global ids not ascending"));
        }
        if global_of.last().is_some_and(|&g| g >= nv) {
            return Err(bad("gk global id out of range"));
        }
        for (d, &g) in global_of.iter().enumerate() {
            if dense_of.get(g as usize) != Some(&(d as u32)) {
                return Err(bad("gk id maps not inverse"));
            }
        }
        let mut members = 0usize;
        for (&d, &level) in dense_of.iter().zip(h.level_of) {
            let in_gk = d != NO_DENSE;
            if in_gk {
                members += 1;
                if d as usize >= m {
                    return Err(bad("gk dense id out of range"));
                }
            }
            if in_gk != (level == h.k) {
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
    /// table could still point past the entry arrays (the length check
    /// only pins the final offset), so the end offset is bounds-checked
    /// here before any slicing.
    fn validate_labels(&self, lo: usize, hi: usize) -> io::Result<()> {
        let n = self.hierarchy.universe();
        let nv = n as u32;
        let (label_offsets, ancestors) = (self.labels.offsets, self.labels.ancestors);
        let Some(offs) = label_offsets.get(lo..=hi) else {
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
        if first > last || last > ancestors.len() as u64 {
            return Err(bad("label offsets not monotone"));
        }
        if ancestors[first as usize..last as usize]
            .iter()
            .any(|&a| a >= nv)
        {
            return Err(bad("label ancestor out of range"));
        }
        for w in offs.windows(2) {
            let entries = &ancestors[w[0] as usize..w[1] as usize];
            if !entries.windows(2).all(|e| e[0] < e[1]) {
                return Err(bad("label entries not sorted"));
            }
        }
        Ok(())
    }
}

/// An artifact as an index's storage: the reader, and where each section
/// lies in it, found once at open so a view is slicing, not a lookup.
#[derive(Debug)]
pub(crate) struct Mapped {
    reader: StoreReader,
    /// Byte range of each section, by kind; empty when it is absent.
    ranges: [Range<usize>; 16],
    /// The header records a [`KSelection::Full`] build: Equation 1 alone
    /// answers, and `G_k` is never searched.
    label_only: bool,
}

impl Mapped {
    /// The sections of `reader`, every required one present.
    fn new(reader: StoreReader) -> io::Result<Self> {
        let h = reader.header();
        let mut ranges: [Range<usize>; 16] = Default::default();
        for s in &h.sections {
            if let Some(r) = ranges.get_mut(s.kind as usize) {
                *r = s.offset as usize..(s.offset + s.len) as usize;
            }
        }
        // Every kind from the graph to the label distances is required.
        for kind in SECTION_GRAPH..=SECTION_LABEL_DISTS {
            if h.section(kind).is_none() {
                return Err(bad(&format!(
                    "missing section: {}",
                    section_kind_name(kind)
                )));
            }
        }
        let label_only = matches!(ksel_decode(h.ksel_tag, h.ksel_bits), Ok(KSelection::Full));
        Ok(Self {
            reader,
            ranges,
            label_only,
        })
    }

    /// The store underneath (header facts, residency).
    pub(crate) fn reader(&self) -> &StoreReader {
        &self.reader
    }

    fn bytes(&self, kind: u32) -> &[u8] {
        &self.reader.bytes()[self.ranges[kind as usize].clone()]
    }

    fn u32s(&self, kind: u32) -> io::Result<&[u32]> {
        cast_u32s(self.bytes(kind)).ok_or_else(|| bad_size(kind))
    }

    fn u64s(&self, kind: u32) -> io::Result<&[u64]> {
        cast_u64s(self.bytes(kind)).ok_or_else(|| bad_size(kind))
    }

    fn triples(&self, kind: u32) -> io::Result<&[[u32; 3]]> {
        match self.u32s(kind)?.as_chunks() {
            (triples, []) => Ok(triples),
            _ => Err(bad_size(kind)),
        }
    }

    /// The sections as typed slices; fails only on a section whose length
    /// is not a whole number of its elements.
    fn try_sections(&self) -> io::Result<Sections<'_>> {
        Ok(Sections {
            hierarchy: HierarchyView {
                level_of: self.u32s(SECTION_LEVELS)?,
                k: self.reader.header().k,
                peel: PeelCsr {
                    offsets: self.u64s(SECTION_PEEL_OFFSETS)?,
                    entries: self.triples(SECTION_PEEL_EDGES)?,
                },
                gk: DenseGk {
                    ids: GkIdMap {
                        dense_of: self.u32s(SECTION_GK_DENSE_OF)?,
                        global_of: self.u32s(SECTION_GK_GLOBAL_OF)?,
                    },
                    fwd: DenseCsr {
                        offsets: self.u32s(SECTION_GK_OFFSETS)?,
                        targets: self.u32s(SECTION_GK_TARGETS)?,
                        weights: self.u32s(SECTION_GK_WEIGHTS)?,
                    },
                    rev: None,
                },
                gk_vias: self.triples(SECTION_GK_VIAS)?,
                label_only: self.label_only,
            },
            labels: Labels {
                offsets: self.u64s(SECTION_LABEL_OFFSETS)?,
                ancestors: self.u32s(SECTION_LABEL_ANCESTORS)?,
                dists: self.u32s(SECTION_LABEL_DISTS)?,
            },
        })
    }

    /// The sections as typed slices: slicing at the ranges found at open
    /// and one cast per array, which [`read_index`] has seen succeed.
    pub(crate) fn sections(&self) -> Sections<'_> {
        self.try_sections()
            .expect("section sizes were checked when the artifact was opened")
    }

    /// The base graph, parsed from its section.
    pub(crate) fn base_graph(&self) -> CsrGraph {
        read_csr_binary(&mut self.bytes(SECTION_GRAPH))
            .expect("the graph section was validated when the artifact was opened")
    }
}

fn bad_size(kind: u32) -> io::Error {
    bad(&format!(
        "section {}: length not a whole number of elements",
        section_kind_name(kind)
    ))
}

/// Opens a v5 artifact as an index over its sections, in place: header
/// facts checked, `Sections::validate` run once, sealed ops replayed
/// into the overlay. Nothing proportional to the index is copied.
pub fn read_index(reader: StoreReader) -> io::Result<IsLabelIndex> {
    let h = reader.header().clone();
    let config = stored_config(&h)?;
    let n = usize::try_from(h.n).map_err(|_| bad("vertex count overflows usize"))?;
    let m = usize::try_from(h.dense_m).map_err(|_| bad("G_k size overflows usize"))?;
    if n > u32::MAX as usize || m > n {
        return Err(bad("vertex counts out of range"));
    }
    let mapped = Mapped::new(reader)?;
    let s = mapped.try_sections()?;
    if s.hierarchy.universe() != n {
        return Err(bad("level table size mismatch"));
    }
    if s.hierarchy.num_gk_vertices() != m {
        return Err(bad("gk id map size mismatch"));
    }
    let num_edges = s.validate(mapped.bytes(SECTION_GRAPH))?;
    let ops = sealed_ops(mapped.bytes(SECTION_OPS), h.op_count)?;
    let mut index = IsLabelIndex::from_storage(Storage::Mapped(mapped), num_edges, config, h.epoch);
    // Replay the sealed op log through the normal mutation path: every
    // record is validated against the overlay state it applies to, so a
    // corrupt op section fails cleanly instead of building a wrong overlay.
    for (i, op) in ops.iter().enumerate() {
        index
            .replay_op(op)
            .map_err(|e| bad(&format!("sealed op {i} inapplicable: {e}")))?;
    }
    Ok(index)
}

/// Decodes the `count` length-framed records of an ops section.
fn sealed_ops(mut bytes: &[u8], count: u64) -> io::Result<Vec<UpdateOp>> {
    let mut ops = Vec::new();
    for i in 0..count {
        if bytes.len() < 4 {
            return Err(bad(&format!("sealed op {i} truncated")));
        }
        let (len4, rest) = bytes.split_at(4);
        let len = u32::from_le_bytes([len4[0], len4[1], len4[2], len4[3]]) as usize;
        if len > wal::MAX_RECORD_LEN as usize || rest.len() < len {
            return Err(bad(&format!("sealed op {i} implausibly large")));
        }
        let (payload, rest) = rest.split_at(len);
        ops.push(wal::decode_op(payload).map_err(|e| bad(&format!("sealed op {i}: {e}")))?);
        bytes = rest;
    }
    if !bytes.is_empty() {
        return Err(bad("trailing bytes after the sealed op log"));
    }
    Ok(ops)
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
        let loaded = read_index(StoreReader::from_bytes(buf).unwrap()).unwrap();
        (index, loaded)
    }

    #[test]
    fn v3_roundtrip_preserves_everything_queryable() {
        let (index, loaded) = v3_roundtrip(BuildConfig::default());
        // The loaded index reads the very arrays the built one holds.
        assert_eq!(loaded.labels(), index.labels());
        assert_eq!(loaded.hierarchy(), index.hierarchy());
        assert_eq!(loaded.artifact_epoch(), index.artifact_epoch());
        assert_eq!(loaded.base_graph(), index.base_graph());
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
        assert!(!loaded.config().keep_path_info);
        assert_eq!(
            loaded.try_shortest_path(0, 1),
            Err(crate::QueryError::NoPathInfo)
        );

        // A label-only artifact keeps its core and loads label-only.
        let (index, loaded) = v3_roundtrip(BuildConfig::full());
        assert!(loaded.stats().gk_vertices > 0);
        assert_eq!(loaded.hierarchy(), index.hierarchy());
        assert!(loaded.hierarchy().is_label_only());
        assert_eq!(loaded.dense_gk().ids().len(), 0);
        for i in 0..30u32 {
            let (s, t) = ((i * 13) % 200, (i * 29 + 1) % 200);
            assert_eq!(loaded.try_distance(s, t), index.try_distance(s, t));
            assert_eq!(
                loaded.try_shortest_path(s, t),
                index.try_shortest_path(s, t)
            );
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
        let loaded = read_index(reader).unwrap();
        assert!(loaded.has_updates());
        assert_eq!(loaded.overlay(), index.overlay());
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
    fn v4_artifacts_are_refused_with_the_rebuild_message() {
        // A v4 file is a v5 layout plus a first-hop section: the version
        // field alone refuses it, before any section is read.
        let g = barabasi_albert(40, 2, WeightModel::Unit, 2);
        let index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        let mut bytes = write_index(&index, Cursor::new(Vec::new()))
            .unwrap()
            .into_inner();
        bytes[4..8].copy_from_slice(&4u32.to_le_bytes());
        let err = crate::persist::MmapIndex::from_bytes(bytes)
            .unwrap_err()
            .to_string();
        assert!(err.contains("version 4"), "{err}");
        assert!(
            err.contains("rebuild the index from its graph with `islabel build`"),
            "{err}"
        );
    }

    #[test]
    fn v3_semantic_validation_rejects_tampering() {
        let g = barabasi_albert(60, 2, WeightModel::Unit, 5);
        let index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        let good = write_index(&index, Cursor::new(Vec::new()))
            .unwrap()
            .into_inner();

        // Duplicate an entry of some label with at least 2 (so it is not
        // strictly sorted), then reseal every checksum and the header crc:
        // structure validates, and only semantic validation can object.
        let offsets = index.labels().offsets;
        let target = offsets.windows(2).position(|w| w[1] - w[0] >= 2);
        let lo = offsets[target.expect("some label has 2+ entries")] as usize;
        let mut bad_bytes = good;
        let mut header = Header::decode(&bad_bytes, bad_bytes.len() as u64).unwrap();
        let at = header.section(SECTION_LABEL_ANCESTORS).unwrap().offset as usize + lo * 4;
        bad_bytes.copy_within(at..at + 4, at + 4);
        for s in &mut header.sections {
            let body = &bad_bytes[s.offset as usize..(s.offset + s.len) as usize];
            s.checksum = islabel_store::format::checksum64(body);
        }
        bad_bytes[..islabel_store::format::DATA_START].copy_from_slice(&header.encode());

        let reader = StoreReader::from_bytes(bad_bytes).unwrap(); // structure OK
        let err = read_index(reader).unwrap_err();
        assert!(err.to_string().contains("not sorted"), "{err}");
    }
}
