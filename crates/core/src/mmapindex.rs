//! # Zero-copy serving straight off a mapped artifact
//!
//! [`MmapIndex`] implements [`DistanceOracle`] over the raw bytes of an
//! `.islx` file — no deserialization: labels, the dense `G_k` CSR, and
//! the id maps are the mapped sections themselves, cast to typed slices
//! at open (`islabel-store` validates structure — header CRC, section
//! bounds and alignment; `Sections::validate` adds
//! the semantic scans that make querying the raw bytes sound; section
//! content checksums are verified by writers before a swap, not on every
//! open — see [`MmapIndex::open`]). Opening is therefore O(index bytes
//! scanned once) with no allocation proportional to the label set, and
//! the mapping is prefaulted (`MAP_POPULATE`) so that one scan runs at
//! memory speed.
//!
//! Two deliberate scope limits keep this engine simple and bit-identical
//! to the heap path:
//!
//! * only **pristine** artifacts are served (`op_count == 0`): sealed
//!   dynamic updates require overlay state that is inherently heap-built.
//!   [`MmapIndex::open`] refuses non-pristine files and the oracle loader
//!   in [`super::persist`] falls back to the heap engine.
//! * queries answer **distances** (the serving hot path); path expansion
//!   still goes through the heap index.
//!
//! The query algorithm is exactly the session fast path of
//! [`crate::index::IsLabelSession`]: [`seeded_search`] — Equation 1 via
//! [`crate::kernel::intersect_min_auto`], seeds
//! filtered through the mapped `dense_of` array, then the dense search
//! on a [`crate::dense::DenseCsr`] that borrows the mapped `G_k` sections.
//! Heap and mapped indexes share that one row layout and its row order,
//! ascending `(weight, neighbour)`, which `Sections::validate` checks on
//! open (`docs/adr/0010-weight-ordered-rows.md`). The `store_mmap`
//! integration suite pins bit-identical results against the heap engine.

use crate::config::BuildConfig;
use crate::dense::{seeded_search, DenseScratch, NO_DENSE};
use crate::oracle::{check_vertex, DistanceOracle, Error, QueryError, QuerySession};
use crate::persist::v3::Sections;
use islabel_graph::{Dist, VertexId, INF};
use islabel_store::StoreReader;
use std::path::Path;

/// A distance oracle serving directly from a memory-mapped artifact.
/// See the [module docs](self) for scope and guarantees.
#[derive(Debug)]
pub struct MmapIndex {
    reader: StoreReader,
    /// The build configuration the header records.
    config: BuildConfig,
    /// The longest label, read once from `label_offsets` at open: what a
    /// session pre-sizes its seed buffers to.
    max_label_len: usize,
}

impl MmapIndex {
    /// Maps and validates `path`. Fails with a typed error on any
    /// structural or semantic defect, and on artifacts with sealed
    /// dynamic updates (those need the heap engine).
    ///
    /// Validation here is structural (header CRC, section table bounds)
    /// plus the full semantic scan — every stored value range-checked,
    /// every cross-array invariant verified — which is what makes
    /// querying the raw bytes sound. Section *content checksums* are
    /// deliberately not recomputed on this path: that second O(file)
    /// pass exists to attribute corruption, not to contain it, and it
    /// belongs to the writers ([`open_verified`](Self::open_verified)
    /// before a hot swap, `StoreReader::open` in recovery and tooling),
    /// not to every serving open.
    pub fn open(path: &Path) -> Result<Self, Error> {
        Self::from_reader(StoreReader::open_unverified(path)?)
    }

    /// [`open`](Self::open) plus content-checksum verification of every
    /// section. The rebuild coordinator uses this before publishing a
    /// freshly written artifact, so a corrupt file can never be swapped
    /// into serving.
    pub fn open_verified(path: &Path) -> Result<Self, Error> {
        let this = Self::open(path)?;
        this.reader.verify()?;
        Ok(this)
    }

    /// Same as [`open_verified`](Self::open_verified) over an in-memory
    /// image (testing).
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, Error> {
        Self::from_reader(StoreReader::from_bytes(bytes)?)
    }

    fn from_reader(reader: StoreReader) -> Result<Self, Error> {
        let s = Sections::resolve(&reader)?;
        // Before the O(index) scan: the oracle loader answers this refusal
        // (and only this one, by its `Unsupported` kind) with the heap
        // engine, whose loader validates the same sections itself.
        if s.op_count != 0 {
            return Err(Error::Persist(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "artifact has sealed dynamic updates; the mmap engine serves only pristine indexes",
            )));
        }
        s.validate()?;
        // Validated monotone, so no difference underflows.
        let max_label_len = s
            .label_offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0);
        Ok(Self {
            config: s.config,
            reader,
            max_label_len,
        })
    }

    /// The whole build configuration the artifact was built with, as its
    /// header records it.
    pub fn config(&self) -> &BuildConfig {
        &self.config
    }

    /// The underlying store (header facts, section table, residency).
    pub fn reader(&self) -> &StoreReader {
        &self.reader
    }

    /// Artifact epoch, for swap-coherence checks against the WAL.
    pub fn artifact_epoch(&self) -> u64 {
        self.reader.epoch()
    }

    /// Whether the bytes are an actual `mmap` (as opposed to the heap
    /// fallback used for in-memory images and exotic platforms).
    pub fn is_mapped(&self) -> bool {
        self.reader.is_mapped()
    }

    /// Re-resolves the section views. Infallible after `from_reader`
    /// validated the image (the mapping is immutable), so failures are
    /// reported as the (unreachable) zero-universe index rather than a
    /// panic.
    fn sections(&self) -> Sections<'_> {
        match Sections::resolve(&self.reader) {
            Ok(s) => s,
            // Unreachable: validated at open and immutable since.
            Err(_) => Sections::empty(),
        }
    }
}

impl DistanceOracle for MmapIndex {
    fn engine_name(&self) -> &'static str {
        "islabel-mmap"
    }

    fn num_vertices(&self) -> usize {
        self.reader.header().n as usize
    }

    fn index_bytes(&self) -> usize {
        self.reader.len()
    }

    fn try_distance(&self, s: VertexId, t: VertexId) -> Result<Option<Dist>, QueryError> {
        MmapSession::new(self).distance(s, t)
    }

    fn session(&self) -> Box<dyn QuerySession + '_> {
        Box::new(MmapSession::new(self))
    }
}

/// Per-thread query state over a mapped artifact: the resolved section
/// views plus reusable seed buffers and dense-search scratch, pre-sized
/// as [`crate::index::IsLabelSession`]'s are, so it allocates nothing
/// from its first query on.
#[derive(Debug)]
pub struct MmapSession<'a> {
    sections: Sections<'a>,
    fseeds: Vec<(u32, Dist)>,
    rseeds: Vec<(u32, Dist)>,
    scratch: DenseScratch,
    trace: crate::trace::QueryTrace,
}

impl<'a> MmapSession<'a> {
    fn new(index: &'a MmapIndex) -> Self {
        let sections = index.sections();
        let scratch = DenseScratch::new(sections.m);
        Self {
            sections,
            fseeds: Vec::with_capacity(index.max_label_len),
            rseeds: Vec::with_capacity(index.max_label_len),
            scratch,
            trace: crate::trace::QueryTrace::new(),
        }
    }

    fn run(&mut self, s: VertexId, t: VertexId) -> Result<Option<Dist>, QueryError> {
        let sec = &self.sections;
        check_vertex(s, sec.n)?;
        check_vertex(t, sec.n)?;
        if s == t {
            return Ok(Some(0));
        }
        // `G_k` is undirected, so one view serves both search directions.
        let dense = sec.gk();
        let out = seeded_search(
            sec.label_view(s),
            sec.label_view(t),
            |a| {
                let da = sec.dense_of[a as usize];
                (da != NO_DENSE).then_some(da)
            },
            &dense,
            &dense,
            &mut self.fseeds,
            &mut self.rseeds,
            &mut self.scratch,
            &mut self.trace,
        );
        Ok((out.dist < INF).then_some(out.dist))
    }
}

impl QuerySession for MmapSession<'_> {
    fn engine_name(&self) -> &'static str {
        "islabel-mmap"
    }

    fn distance(&mut self, s: VertexId, t: VertexId) -> Result<Option<Dist>, QueryError> {
        self.run(s, t)
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
    use crate::index::IsLabelIndex;
    use crate::persist::v3;
    use islabel_graph::generators::{barabasi_albert, WeightModel};
    use std::io::Cursor;

    fn mmap_of(index: &IsLabelIndex) -> MmapIndex {
        let buf = v3::write_index(index, Cursor::new(Vec::new()))
            .unwrap()
            .into_inner();
        MmapIndex::from_bytes(buf).unwrap()
    }

    #[test]
    fn mmap_matches_heap_engine() {
        let g = barabasi_albert(300, 3, WeightModel::UniformRange(1, 9), 21);
        let index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        let mapped = mmap_of(&index);
        assert_eq!(mapped.num_vertices(), 300);
        let mut session = mapped.session();
        let mut heap_session = index.session();
        for i in 0..200u32 {
            let (s, t) = ((i * 7) % 300, (i * 13 + 5) % 300);
            assert_eq!(
                session.distance(s, t),
                heap_session.distance(s, t),
                "({s}, {t})"
            );
        }
        // Out-of-range vertices are typed errors, and s == t is free.
        assert!(session.distance(300, 0).is_err());
        assert_eq!(session.distance(17, 17), Ok(Some(0)));
    }

    #[test]
    fn mmap_refuses_sealed_updates() {
        let g = barabasi_albert(80, 2, WeightModel::Unit, 3);
        let mut index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        index.try_insert_edge(0, 40, 1).unwrap();
        let buf = v3::write_index(&index, Cursor::new(Vec::new()))
            .unwrap()
            .into_inner();
        assert!(MmapIndex::from_bytes(buf).is_err());
    }
}
