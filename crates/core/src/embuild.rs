//! I/O-efficient external-memory index construction (paper Section 6).
//!
//! The paper's core systems claim is that IS-LABEL can be *built* for graphs
//! that do not fit in memory, using only sequential scans and external
//! sorts:
//!
//! * **Algorithm 2** (select `L_i`): sort the adjacency-list file by vertex
//!   degree, stream it, keep every vertex not yet excluded, and archive its
//!   adjacency (`ADJ(L_i)`). The exclusion buffer `L'` is bounded; when it
//!   fills, the remaining stream is rewritten without the excluded vertices
//!   ("scan G'_i to delete all v ∈ L'") and the buffer clears — giving the
//!   paper's `O(|L'|/M) · scan(|G_i|)` bound.
//! * **Algorithm 3** (construct `G_{i+1}`): stream `ADJ(L_i)` to emit the
//!   augmenting-edge array `EA` (both directions per pair), external-sort
//!   `EA` by vertex ids, and merge-scan it with `G_i`, dropping the peeled
//!   vertices.
//! * **Algorithm 4** (top-down labeling): per level, a block nested-loop
//!   join between that level's labels (blocked by the memory budget) and
//!   the final labels of all higher levels. A label-only index
//!   ([`crate::KSelection::Full`]) first labels its core `G_k` in memory
//!   with the in-memory builder's [`pruned_labels`] — the core is the
//!   residual graph, which by the paper's premise fits — and writes those
//!   labels as the top level's file, so the join carries them down.
//!
//! The pipeline is **semi-external** in the standard sense: per-vertex level
//! numbers (4 bytes/vertex) stay in memory, while everything edge- and
//! label-sized streams through [`islabel_extmem`] storage with counted I/O.
//! The output is identical — labels, hierarchy, via annotations — to the
//! in-memory builder's (asserted by the equivalence tests), because every
//! step uses the same total orders and tie-breaking rules:
//!
//! * IS selection visits vertices in `(degree, id)` order;
//! * augmenting-edge collisions keep the minimum weight, then the existing
//!   edge, then the smallest via vertex;
//! * label merges keep the minimum distance: Algorithm 4 sorts each
//!   block's candidates by `(slot, ancestor, distance)` and keeps the
//!   first per `(slot, ancestor)` — the minimum the in-memory scatter-min
//!   keeps too. No first hop is carried: a path query derives it from the
//!   peel row and the labels (`docs/adr/0020-derived-first-hops.md`).
//!
//! That holds for every [`BuildConfig`] the pipeline accepts, path info
//! off included: the peel adjacency keeps its via vertices either way, as
//! the in-memory builder's does, so both write the same artifact bytes.

use crate::config::{BuildConfig, KSelection};
use crate::hierarchy::{peel_levels, GkVia, LevelPeel, PeelRows, VertexHierarchy};
use crate::index::IsLabelIndex;
use crate::label::{pruned_labels, LabelDist, LabelSet, LABEL_OVERFLOW};
use islabel_extmem::diskgraph::{AdjByDegree, AdjRecord, DiskGraph};
use islabel_extmem::extsort::{external_sort, ExtRecord, RecordReader, RecordWriter, SortConfig};
use islabel_extmem::storage::Storage;
use islabel_graph::adjacency::NO_VIA;
use islabel_graph::{CsrGraph, FxHashSet, VertexId, Weight};
use std::io;
use std::time::Instant;

/// Tuning for the external build.
#[derive(Debug, Clone, Copy)]
pub struct EmConfig {
    /// Memory budget in bytes for sort runs and label-join blocks (the
    /// paper's `M`).
    pub memory_budget: usize,
    /// Fan-in of external-sort merge passes.
    pub sort_fan_in: usize,
    /// Capacity of the exclusion buffer `L'` (entries) before a purge scan.
    pub exclusion_capacity: usize,
}

impl Default for EmConfig {
    fn default() -> Self {
        Self {
            memory_budget: 64 * 1024 * 1024,
            sort_fan_in: 16,
            exclusion_capacity: 1 << 22,
        }
    }
}

impl EmConfig {
    /// A deliberately tiny configuration that forces many sort runs, merge
    /// passes, exclusion purges and label blocks — used by tests to exercise
    /// every external code path on small graphs.
    pub fn tiny_for_tests() -> Self {
        Self {
            memory_budget: 4 * 1024,
            sort_fan_in: 2,
            exclusion_capacity: 16,
        }
    }
}

/// Sorts the record file `input_name` into `output_name` by
/// [`external_sort`], propagating any read error of the input stream.
fn sort_file<T: ExtRecord>(
    storage: &dyn Storage,
    input_name: &str,
    output_name: &str,
    config: SortConfig,
) -> io::Result<()> {
    let mut reader = RecordReader::new(storage.open(input_name)?);
    let mut error = None;
    let stream = std::iter::from_fn(|| {
        reader.next::<T>().unwrap_or_else(|e| {
            error = Some(e);
            None
        })
    });
    external_sort(storage, stream, output_name, config)?;
    error.map_or(Ok(()), Err)
}

/// Builds an [`IsLabelIndex`] from a disk-resident graph through the
/// external-memory pipeline. `config` carries the paper-level parameters
/// (k-selection, path info) and has passed [`check_config`]; `em` the
/// memory-model tuning.
fn build_external(
    storage: &dyn Storage,
    input: &DiskGraph,
    config: BuildConfig,
    em: EmConfig,
) -> io::Result<IsLabelIndex> {
    let t0 = Instant::now();
    let n = input.universe;
    // Semi-external: ℓ(v) stays in memory, every graph G_i on disk.
    let mut peel = ExternalPeel {
        storage,
        current: input.clone(),
        owned_current: false,
        em,
    };
    let levels = peel_levels(n, &config, &mut peel)?;
    let (gk, gk_vias) = materialize_gk(storage, &peel.current, n, config.keep_path_info)?;
    if peel.owned_current {
        peel.current.delete(storage)?;
    }
    let k = levels.k;
    let label_only = config.k_selection == KSelection::Full;
    let t1 = Instant::now();

    // ---- The core's pruned labels, then Algorithm 4: top-down block
    // nested-loop labeling. ----
    // The last level whose labels are on file: the core's in a label-only
    // index, the last peeled level's otherwise.
    let top = if label_only {
        let core = pruned_labels(&gk, &levels.gk_members);
        let mut writer = RecordWriter::new(storage.create(&label_name(k))?);
        for &v in &levels.gk_members {
            let label = core.label(v);
            writer.write(&LabelRecord {
                vertex: v,
                entries: label
                    .ancestors
                    .iter()
                    .copied()
                    .zip(label.dists.iter().copied())
                    .collect(),
            })?;
        }
        writer.finish()?;
        k
    } else {
        k - 1
    };
    label_top_down(storage, k, top, &levels.level_of, &em)?;
    let t2 = Instant::now();

    // ---- Assembly: identical structures to the in-memory builder. ----
    let mut peel_adj = PeelRows::new(n);
    for level in 1..k {
        let mut scan = RecordReader::new(storage.open(&adj_name(level))?);
        while let Some(rec) = scan.next::<AdjRecord>()? {
            peel_adj.set(rec.vertex, rec.edges.iter().map(|&(t, w, via)| [t, w, via]));
        }
    }
    let mut per_vertex: Vec<Vec<(VertexId, LabelDist)>> = vec![Vec::new(); n];
    for level in 1..=top {
        let mut scan = RecordReader::new(storage.open(&label_name(level))?);
        while let Some(rec) = scan.next::<LabelRecord>()? {
            per_vertex[rec.vertex as usize] = rec.entries;
        }
    }
    // Self-only labels: G_k members outside a label-only index and
    // peeled-but-isolated vertices never appear in the label files.
    for (v, label) in per_vertex.iter_mut().enumerate() {
        if label.is_empty() {
            label.push((v as VertexId, 0));
        }
    }
    let labels = LabelSet::from_per_vertex(per_vertex);

    // Temp cleanup.
    for level in 1..k {
        storage.delete(&adj_name(level))?;
    }
    for level in 1..=top {
        storage.delete(&label_name(level))?;
    }

    let peel = peel_adj.into_csr();
    let hierarchy = VertexHierarchy {
        levels,
        peel,
        gk,
        gk_vias,
        label_only,
    };
    let graph = input.to_csr(storage)?;
    Ok(IsLabelIndex::from_parts(
        graph,
        hierarchy,
        labels,
        config,
        t1 - t0,
        t2 - t1,
    ))
}

/// Stages a CSR graph into storage and builds externally. An invalid
/// `config`, or an IS strategy other than the paper's min-degree greedy
/// (the ablation strategies are in-memory concerns), is an
/// [`io::ErrorKind::InvalidInput`] error, returned before anything is
/// written.
pub fn build_external_from_csr(
    storage: &dyn Storage,
    g: &CsrGraph,
    config: BuildConfig,
    em: EmConfig,
) -> io::Result<IsLabelIndex> {
    check_config(&config)?;
    let dg = DiskGraph::from_csr(storage, "embuild.input", g)?;
    let index = build_external(storage, &dg, config, em);
    dg.delete(storage)?;
    index
}

/// The caller-input checks of [`build_external_from_csr`].
fn check_config(config: &BuildConfig) -> io::Result<()> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidInput, msg);
    config.try_validate().map_err(|e| invalid(e.to_string()))?;
    match config.is_strategy {
        crate::config::IsStrategy::MinDegreeGreedy => Ok(()),
        other => Err(invalid(format!(
            "external construction implements only the paper's min-degree greedy \
             selection, not {other:?}"
        ))),
    }
}

fn adj_name(level: u32) -> String {
    format!("embuild.adj.L{level}")
}

fn label_name(level: u32) -> String {
    format!("embuild.labels.L{level}")
}

/// The semi-external backend of the level driver: `G_i` is a disk graph,
/// and one peel is Algorithm 2 then Algorithm 3.
struct ExternalPeel<'a> {
    storage: &'a dyn Storage,
    current: DiskGraph,
    /// Whether `current` is ours to delete (`G_1` is the caller's input).
    owned_current: bool,
    em: EmConfig,
}

impl LevelPeel for ExternalPeel<'_> {
    type Error = io::Error;

    fn num_edges(&self) -> usize {
        self.current.num_edges
    }

    fn peel(&mut self, level: u32, level_of: &mut [u32]) -> io::Result<Vec<VertexId>> {
        let (storage, em) = (self.storage, &self.em);
        let sort = SortConfig {
            memory_budget: em.memory_budget,
            fan_in: em.sort_fan_in,
        };
        // ---- Algorithm 2: select L_i, archive ADJ(L_i). ----
        let li = select_level(storage, &self.current, level, level_of, em, sort)?;
        // ---- Algorithm 3: build G_{i+1}. ----
        let next = build_next_graph(storage, &self.current, level, level_of, sort)?;
        if self.owned_current {
            self.current.delete(storage)?;
        }
        self.current = next;
        self.owned_current = true;
        Ok(li)
    }
}

// ---------------------------------------------------------------------------
// Algorithm 2 — external greedy independent set
// ---------------------------------------------------------------------------

/// Sorts `G_i` by degree, streams it with a bounded exclusion buffer, writes
/// `ADJ(L_i)` and assigns levels. Returns `L_i` ascending.
fn select_level(
    storage: &dyn Storage,
    gi: &DiskGraph,
    level: u32,
    level_of: &mut [u32],
    em: &EmConfig,
    sort_config: SortConfig,
) -> io::Result<Vec<VertexId>> {
    // Degree sort (the paper's sort(|G_i|) step). The id component of the
    // sort key makes the order total — the same (degree, id) order the
    // in-memory builder uses.
    let sorted_name = format!("embuild.degsort.L{level}");
    sort_file::<AdjByDegree>(storage, &gi.name, &sorted_name, sort_config)?;

    let mut li: Vec<VertexId> = Vec::new();
    // Vertices seen in the stream; present vertices without records are
    // isolated in G_i and join L_i unconditionally (degree 0, nothing to
    // exclude) — mirroring their position at the front of the (degree, id)
    // order.
    let mut has_record = vec![false; level_of.len()];

    let mut adj_writer = RecordWriter::new(storage.create(&adj_name(level))?);
    let mut excluded: FxHashSet<VertexId> = FxHashSet::default();
    let mut stream_name = sorted_name;
    let mut reader = RecordReader::new(storage.open(&stream_name)?);
    let mut purge_round = 0usize;
    while let Some(AdjByDegree(rec)) = reader.next::<AdjByDegree>()? {
        has_record[rec.vertex as usize] = true;
        if excluded.contains(&rec.vertex) {
            continue;
        }
        // Choose rec.vertex into L_i and archive its adjacency.
        li.push(rec.vertex);
        for &(u, _, _) in &rec.edges {
            excluded.insert(u);
        }
        adj_writer.write(&rec)?;

        // Bounded L': purge by rewriting the remaining stream without the
        // excluded vertices (the paper's mid-scan cleanup), then clear.
        if excluded.len() >= em.exclusion_capacity {
            purge_round += 1;
            let purged_name = format!("embuild.degsort.L{level}.purge{purge_round}");
            let mut w = RecordWriter::new(storage.create(&purged_name)?);
            while let Some(rest) = reader.next::<AdjByDegree>()? {
                has_record[rest.0.vertex as usize] = true;
                if !excluded.contains(&rest.0.vertex) {
                    w.write(&rest)?;
                }
            }
            w.finish()?;
            storage.delete(&stream_name)?;
            excluded.clear();
            stream_name = purged_name;
            reader = RecordReader::new(storage.open(&stream_name)?);
        }
    }
    adj_writer.finish()?;
    storage.delete(&stream_name)?;

    for v in 0..level_of.len() as VertexId {
        if level_of[v as usize] == 0 && !has_record[v as usize] {
            li.push(v);
        }
    }
    for &v in &li {
        debug_assert_eq!(level_of[v as usize], 0, "vertex {v} already assigned");
        level_of[v as usize] = level;
    }
    li.sort_unstable();
    Ok(li)
}

// ---------------------------------------------------------------------------
// Algorithm 3 — external graph reduction
// ---------------------------------------------------------------------------

/// Streams `ADJ(L_i)` to emit `EA`, sorts it, and merge-scans with `G_i` to
/// produce `G_{i+1}`.
fn build_next_graph(
    storage: &dyn Storage,
    gi: &DiskGraph,
    level: u32,
    level_of: &[u32],
    sort_config: SortConfig,
) -> io::Result<DiskGraph> {
    // Emit EA: for every peeled v and neighbor pair (a, b), both directed
    // records (a, b, ω(a,v)+ω(v,b), via=v) and (b, a, ·, ·).
    let ea_raw = format!("embuild.ea.L{level}.raw");
    {
        let mut w = RecordWriter::new(storage.create(&ea_raw)?);
        let mut scan = RecordReader::new(storage.open(&adj_name(level))?);
        while let Some(rec) = scan.next::<AdjRecord>()? {
            let v = rec.vertex;
            for (x, &(a, wa, _)) in rec.edges.iter().enumerate() {
                for &(b, wb, _) in &rec.edges[x + 1..] {
                    let weight = wa.checked_add(wb).expect(
                        "augmenting edge weight overflows u32: input weights are too large",
                    );
                    w.write(&(a, b, weight, v))?;
                    w.write(&(b, a, weight, v))?;
                }
            }
        }
        w.finish()?;
    }
    // Sort EA by (u, v, weight, via): the first record per (u, v) carries
    // the minimum weight, ties by smallest via — the same tie-break the
    // in-memory builder realizes by processing L_i in ascending id order.
    let ea_sorted = format!("embuild.ea.L{level}");
    sort_file::<(u32, u32, u32, u32)>(storage, &ea_raw, &ea_sorted, sort_config)?;
    storage.delete(&ea_raw)?;

    // Merge-scan G_i with the sorted EA.
    let next_name = format!("embuild.g.L{}", level + 1);
    let mut ea = RecordReader::new(storage.open(&ea_sorted)?);
    // One-record lookahead over the EA stream.
    let mut ea_head: Option<(u32, u32, u32, u32)> = ea.next()?;
    let mut writer = RecordWriter::new(storage.create(&next_name)?);
    let mut num_vertices = 0usize;
    let mut half_edges = 0usize;
    let mut scan = gi.scan(storage)?;
    while let Some(rec) = scan.next()? {
        let v = rec.vertex;
        // Every EA endpoint had an edge to its peeled via vertex in G_i, so
        // it owns a G_i record; the stream stays aligned.
        debug_assert!(
            ea_head.is_none_or(|e| e.0 >= v),
            "EA endpoint without G_i record"
        );
        if level_of[v as usize] == level {
            continue; // peeled: the record is already archived in ADJ(L_i)
        }
        // v's surviving edges and its EA records, merged by one sort on
        // `(target, weight, rank, via)`: per target the minimum weight
        // wins ("update ω with the smaller weight"), a tie keeps the
        // existing edge (rank 0) over the EA records (rank 1), and EA ties
        // keep the smallest via.
        let mut ranked: Vec<(VertexId, Weight, u8, VertexId)> = rec
            .edges
            .iter()
            .filter(|&&(t, _, _)| level_of[t as usize] != level)
            .map(|&(t, w, via)| (t, w, 0, via))
            .collect();
        while let Some((_, t, w, via)) = ea_head.filter(|e| e.0 == v) {
            ranked.push((t, w, 1, via));
            ea_head = ea.next()?;
        }
        ranked.sort_unstable();
        ranked.dedup_by_key(|e| e.0);
        let merged: Vec<(VertexId, Weight, VertexId)> =
            ranked.iter().map(|&(t, w, _, via)| (t, w, via)).collect();
        if !merged.is_empty() {
            num_vertices += 1;
            half_edges += merged.len();
            writer.write(&AdjRecord {
                vertex: v,
                edges: merged,
            })?;
        }
    }
    debug_assert!(ea_head.is_none(), "unconsumed EA records");
    writer.finish()?;
    storage.delete(&ea_sorted)?;

    DiskGraph::assemble(
        storage,
        &next_name,
        gi.universe,
        num_vertices,
        half_edges / 2,
    )
}

// ---------------------------------------------------------------------------
// Residual graph materialization
// ---------------------------------------------------------------------------

/// Loads `G_k` and its via annotations as `[min, max, via]` triples. The
/// scan visits vertices ascending and each row by ascending target, so the
/// triples come out strictly ascending by `(min, max)`: the order
/// [`VertexHierarchy`] keeps them in.
fn materialize_gk(
    storage: &dyn Storage,
    gk: &DiskGraph,
    n: usize,
    keep_path_info: bool,
) -> io::Result<(CsrGraph, Vec<GkVia>)> {
    let mut b = islabel_graph::GraphBuilder::new(n);
    let mut vias = Vec::new();
    let mut scan = gk.scan(storage)?;
    while let Some(rec) = scan.next()? {
        for &(t, w, via) in &rec.edges {
            if rec.vertex < t {
                b.add_edge(rec.vertex, t, w);
                if keep_path_info && via != NO_VIA {
                    vias.push([rec.vertex, t, via]);
                }
            }
        }
    }
    Ok((b.build(), vias))
}

// ---------------------------------------------------------------------------
// Algorithm 4 — external top-down labeling (block nested-loop join)
// ---------------------------------------------------------------------------

/// A vertex's final label on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
struct LabelRecord {
    vertex: VertexId,
    /// `(ancestor, d)` ascending by ancestor.
    entries: Vec<(VertexId, LabelDist)>,
}

impl ExtRecord for LabelRecord {
    type Key = VertexId;

    fn key(&self) -> Self::Key {
        self.vertex
    }

    fn encode(&self, out: &mut Vec<u8>) {
        use bytes::BufMut;
        out.put_u32_le(self.vertex);
        out.put_u32_le(self.entries.len() as u32);
        for &(a, d) in &self.entries {
            out.put_u32_le(a);
            out.put_u32_le(d);
        }
    }

    fn decode(mut buf: &[u8]) -> Self {
        use bytes::Buf;
        let vertex = buf.get_u32_le();
        let count = buf.get_u32_le() as usize;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            entries.push((buf.get_u32_le(), buf.get_u32_le()));
        }
        Self { vertex, entries }
    }

    fn approx_size(&self) -> usize {
        8 + self.entries.len() * 8 + 24
    }
}

/// One label candidate of the current block: `(block slot, ancestor,
/// distance)`. Sorting puts each `(slot, ancestor)` group's minimum
/// distance first.
type Candidate = (u32, VertexId, LabelDist);

/// Sorts `candidates` and keeps the first per `(slot, ancestor)`: the
/// min-merge shared with the in-memory Algorithm 4, whose scatter-min
/// keeps the same minimum.
fn sort_reduce(candidates: &mut Vec<Candidate>) {
    candidates.sort_unstable();
    candidates.dedup_by_key(|&mut (slot, anc, _)| (slot, anc));
}

/// Labels level `k−1` down to `1`, writing the `labels.L{i}` files; the
/// labels of levels up to `top` are on file (`top = k` when `G_k`'s pruned
/// labels are, `k − 1` otherwise).
///
/// The join works off each vertex's *direct* (peel-adjacency) entries, which
/// is exactly what Corollary 1 licenses: `label(v)` is the min-merge of
/// `ω(v, u) + label(u)` over the direct neighbors `u`. Neighbors living in
/// `G_k` contribute their self-only labels inline when `G_k` has no label
/// file.
///
/// A block's candidates collect in one buffer that [`sort_reduce`] merges.
/// Whenever the buffer grows by `em.memory_budget` bytes past its last
/// merged size it is merged early, so it never holds more than the block's
/// merged labels plus one budget.
fn label_top_down(
    storage: &dyn Storage,
    k: u32,
    top: u32,
    level_of: &[u32],
    em: &EmConfig,
) -> io::Result<()> {
    let budget_entries = (em.memory_budget / std::mem::size_of::<Candidate>()).max(1);
    // Slot -> vertex of the current block.
    let mut block: Vec<VertexId> = Vec::new();
    let mut candidates: Vec<Candidate> = Vec::new();
    // Join index: `(neighbour u, block slot, ω(v, u))`, sorted by `u`.
    let mut join: Vec<(VertexId, u32, Weight)> = Vec::new();
    let mut out = LabelRecord {
        vertex: 0,
        entries: Vec::new(),
    };
    for i in (1..k).rev() {
        let mut bl = RecordReader::new(storage.open(&adj_name(i))?);
        let mut writer = RecordWriter::new(storage.create(&label_name(i))?);
        loop {
            // Load one block of BL under the memory budget.
            block.clear();
            candidates.clear();
            join.clear();
            let mut block_bytes = 0usize;
            while block_bytes < em.memory_budget {
                let Some(rec) = bl.next::<AdjRecord>()? else {
                    break;
                };
                let slot = block.len() as u32;
                candidates.push((slot, rec.vertex, 0));
                for &(u, w, _) in &rec.edges {
                    debug_assert!(level_of[u as usize] > i);
                    // Fold u's self entry inline: this covers G_k neighbors
                    // without a label file (their labels are {(u, 0)}) and
                    // peeled neighbors that were isolated at peel time
                    // (same situation). For everything else the BU join
                    // below re-derives the same value, a no-op.
                    candidates.push((slot, u, w));
                    if level_of[u as usize] <= top {
                        join.push((u, slot, w));
                    }
                }
                block_bytes += rec.approx_size() * 4 + 64;
                block.push(rec.vertex);
            }
            if block.is_empty() {
                break;
            }
            join.sort_unstable();
            let mut merge_at = candidates.len() + budget_entries;

            // Scan BU — the final labels of all higher levels on file — once
            // per block (the paper's block nested loop).
            for j in (i + 1)..=top {
                let mut bu = RecordReader::new(storage.open(&label_name(j))?);
                while let Some(lab) = bu.next::<LabelRecord>()? {
                    let from = join.partition_point(|&(u, _, _)| u < lab.vertex);
                    for &(_, slot, w) in join[from..]
                        .iter()
                        .take_while(|&&(u, _, _)| u == lab.vertex)
                    {
                        for &(anc, d) in &lab.entries {
                            let d = w.checked_add(d).expect(LABEL_OVERFLOW);
                            candidates.push((slot, anc, d));
                        }
                        if candidates.len() >= merge_at {
                            sort_reduce(&mut candidates);
                            merge_at = candidates.len() + budget_entries;
                        }
                    }
                }
            }

            // Every slot holds at least its self entry, so the merged
            // candidates are the block's labels, slot by slot, each
            // ascending by ancestor.
            sort_reduce(&mut candidates);
            let labels = candidates.chunk_by(|a, b| a.0 == b.0);
            for (label, &vertex) in labels.zip(&block) {
                out.vertex = vertex;
                out.entries.clear();
                out.entries
                    .extend(label.iter().map(|&(_, anc, d)| (anc, d)));
                writer.write(&out)?;
            }
        }
        writer.finish()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KSelection;
    use islabel_extmem::storage::MemStorage;
    use islabel_graph::generators::{barabasi_albert, erdos_renyi_gnm, WeightModel};

    fn assert_equivalent(g: &CsrGraph, config: BuildConfig, em: EmConfig, tag: &str) {
        let storage = MemStorage::new();
        let em_index = build_external_from_csr(&storage, g, config, em).unwrap();
        let im_index = IsLabelIndex::try_build(g, config).unwrap();

        assert_eq!(
            em_index.labels(),
            im_index.labels(),
            "{tag}: labels diverge"
        );
        assert_eq!(
            em_index.hierarchy(),
            im_index.hierarchy(),
            "{tag}: hierarchies diverge"
        );
        assert_eq!(em_index.stats().k, im_index.stats().k, "{tag}: k diverges");
        // All temp files cleaned up.
        assert!(
            storage.names().is_empty(),
            "{tag}: leftover temp files {:?}",
            storage.names()
        );

        // And the answers agree with ground truth.
        let n = g.num_vertices();
        for q in 0..40usize {
            let s = ((q * 7919) % n) as VertexId;
            let t = ((q * 104729 + 1) % n) as VertexId;
            assert_eq!(
                em_index.try_distance(s, t),
                Ok(crate::reference::dijkstra_p2p(g, s, t)),
                "{tag}: query ({s}, {t})"
            );
        }
    }

    #[test]
    fn equivalence_is_structural_not_just_behavioral() {
        let g = erdos_renyi_gnm(30, 70, WeightModel::Unit, 11);
        for config in [
            BuildConfig::full(),
            BuildConfig::fixed_k(3),
            BuildConfig::sigma(0.7),
            BuildConfig {
                keep_path_info: false,
                ..BuildConfig::default()
            },
        ] {
            let storage = MemStorage::new();
            let em_index =
                build_external_from_csr(&storage, &g, config, EmConfig::tiny_for_tests()).unwrap();
            let im_index = IsLabelIndex::try_build(&g, config).unwrap();
            assert_eq!(em_index.stats().k, im_index.stats().k, "{config:?} k");
            // Levels, peel adjacency, `G_k` and its vias, array for array.
            assert_eq!(
                em_index.hierarchy(),
                im_index.hierarchy(),
                "{config:?} hierarchy"
            );
            for v in 0..30u32 {
                let em_l: Vec<_> = em_index.labels().label(v).iter().collect();
                let im_l: Vec<_> = im_index.labels().label(v).iter().collect();
                assert_eq!(em_l, im_l, "{config:?} label({v}) dists");
            }
        }
    }

    #[test]
    fn equivalent_on_random_graphs_default_config() {
        for seed in 0..3u64 {
            let g = erdos_renyi_gnm(150, 400, WeightModel::UniformRange(1, 9), seed);
            assert_equivalent(&g, BuildConfig::default(), EmConfig::default(), "er");
        }
    }

    #[test]
    fn equivalent_under_tiny_memory_budget() {
        // Forces multiple sort runs, merge passes, exclusion purges and
        // label blocks.
        let g = barabasi_albert(300, 3, WeightModel::UniformRange(1, 5), 7);
        assert_equivalent(
            &g,
            BuildConfig::default(),
            EmConfig::tiny_for_tests(),
            "ba-tiny-mem",
        );
    }

    #[test]
    fn equivalent_across_k_policies() {
        let g = erdos_renyi_gnm(120, 300, WeightModel::Unit, 11);
        for config in [
            BuildConfig::full(),
            BuildConfig::fixed_k(3),
            BuildConfig::sigma(0.7),
        ] {
            assert_equivalent(&g, config, EmConfig::tiny_for_tests(), "policies");
        }
    }

    #[test]
    fn equivalent_with_isolated_vertices_and_components() {
        let mut b = islabel_graph::GraphBuilder::new(30);
        // Two path components; vertices 20..30 stay isolated.
        for v in 0..9u32 {
            b.add_edge(v, v + 1, (v % 3) + 1);
        }
        for v in 10..18u32 {
            b.add_edge(v, v + 1, 2);
        }
        let g = b.build();
        assert_equivalent(
            &g,
            BuildConfig::default(),
            EmConfig::tiny_for_tests(),
            "components",
        );
    }

    #[test]
    fn path_queries_work_after_external_build() {
        let g = barabasi_albert(150, 3, WeightModel::UniformRange(1, 4), 5);
        let storage = MemStorage::new();
        let index =
            build_external_from_csr(&storage, &g, BuildConfig::default(), EmConfig::default())
                .unwrap();
        for q in 0..25usize {
            let s = ((q * 13) % 150) as VertexId;
            let t = ((q * 41 + 3) % 150) as VertexId;
            let expect = crate::reference::dijkstra_p2p(&g, s, t);
            match (index.try_shortest_path(s, t).unwrap(), expect) {
                (Some(p), Some(d)) => {
                    assert_eq!(p.length, d);
                    p.validate_against(&g).unwrap();
                }
                (None, None) => {}
                (p, d) => panic!("({s}, {t}): {p:?} vs {d:?}"),
            }
        }
    }

    /// Builds `config` externally, expecting a typed refusal that names
    /// `what` and leaves storage empty.
    fn assert_refused(config: BuildConfig, what: &str) {
        let g = erdos_renyi_gnm(20, 40, WeightModel::Unit, 1);
        let storage = MemStorage::new();
        let err = build_external_from_csr(&storage, &g, config, EmConfig::default()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        assert!(err.to_string().contains(what), "{err}");
        assert!(storage.names().is_empty(), "{:?}", storage.names());
    }

    #[test]
    fn invalid_config_is_a_typed_error() {
        let config = BuildConfig {
            k_selection: KSelection::FixedK(1),
            ..BuildConfig::default()
        };
        let message = config.try_validate().unwrap_err().to_string();
        assert_refused(config, &message);
    }

    #[test]
    fn ablation_strategies_are_a_typed_error() {
        use crate::config::IsStrategy;
        for (is_strategy, what) in [
            (IsStrategy::Random(3), "Random"),
            (IsStrategy::MaxDegreeGreedy, "MaxDegreeGreedy"),
        ] {
            let config = BuildConfig {
                is_strategy,
                ..BuildConfig::default()
            };
            assert_refused(config, what);
        }
    }

    #[test]
    fn io_is_counted_during_build() {
        let g = erdos_renyi_gnm(200, 600, WeightModel::Unit, 3);
        let storage = MemStorage::new();
        let _ = build_external_from_csr(&storage, &g, BuildConfig::default(), EmConfig::default())
            .unwrap();
        let snap = storage.stats().snapshot();
        assert!(snap.bytes_written > 10_000, "writes {}", snap.bytes_written);
        assert!(snap.bytes_read > 10_000, "reads {}", snap.bytes_read);
    }
}
