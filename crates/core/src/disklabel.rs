//! Disk-resident vertex labels (paper Section 6.2).
//!
//! "For processing large datasets, the vertex labels may not fit in main
//! memory and are stored on disk. The entries in each label(v) are stored
//! sequentially on disk and are sorted by the vertex IDs ... retrieving a
//! vertex label from disk takes only one I/O."
//!
//! [`DiskLabelStore`] reproduces that storage layout: one data file with
//! every label's entries back to back (each vertex's entries ascending by
//! ancestor id), plus an offset table so a label fetch is a single
//! positioned read — counted as exactly one seek by the I/O statistics,
//! which is how the experiment harness reconstructs the paper's Time (a)
//! (~10 ms per label on their 7200 RPM disk).
//!
//! The at-rest entry layout (`ancestor u32 + distance u32`) is shared with
//! the label sections of the persistent artifact —
//! [`islabel_store::format`] (`crates/store`) is the single source of
//! truth for these record sizes.

use crate::label::{LabelDist, LabelView, Labels};
use bytes::{Buf, BufMut};
use islabel_extmem::storage::Storage;
use islabel_graph::VertexId;
use islabel_store::format::LABEL_ENTRY_BYTES;
use std::io::{self, Read, Write};

/// Caller-owned buffers one label is fetched into. Each
/// [`DiskLabelStore::fetch`] overwrites them and grows them only past the
/// longest label fetched so far, so a fetch loop over one buffer allocates
/// nothing in steady state.
#[derive(Debug, Clone, Default)]
pub struct FetchedLabel {
    /// Ancestor ids, ascending.
    pub ancestors: Vec<VertexId>,
    /// Distances parallel to `ancestors`.
    pub dists: Vec<LabelDist>,
    /// The record bytes of the last fetch.
    raw: Vec<u8>,
}

impl FetchedLabel {
    /// Borrows as the common label view (no path info on disk labels —
    /// distance querying only, as in the paper).
    pub fn view(&self) -> LabelView<'_> {
        LabelView {
            ancestors: &self.ancestors,
            dists: &self.dists,
        }
    }
}

/// Disk-resident labels with an in-memory offset table.
pub struct DiskLabelStore {
    name: String,
    /// `offsets[v] .. offsets[v + 1]` delimits `v`'s byte range.
    offsets: Vec<u64>,
}

impl std::fmt::Debug for DiskLabelStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskLabelStore")
            .field("name", &self.name)
            .field("num_vertices", &self.offsets.len().saturating_sub(1))
            .finish_non_exhaustive()
    }
}

impl DiskLabelStore {
    /// Serializes a label set to storage as `{name}` (data) and
    /// `{name}.idx` (offset table).
    pub fn write(storage: &dyn Storage, name: &str, labels: Labels<'_>) -> io::Result<Self> {
        let n = labels.num_vertices();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut w = storage.create(name)?;
        let mut pos: u64 = 0;
        let mut buf = Vec::new();
        offsets.push(0);
        for v in 0..n as VertexId {
            let label = labels.label(v);
            buf.clear();
            for (&anc, &d) in label.ancestors.iter().zip(label.dists) {
                buf.put_u32_le(anc);
                buf.put_u32_le(d);
            }
            w.write_all(&buf)?;
            pos += buf.len() as u64;
            offsets.push(pos);
        }
        w.flush()?;
        drop(w);

        let mut iw = storage.create(&format!("{name}.idx"))?;
        let mut ibuf =
            Vec::with_capacity(8 + offsets.len() * islabel_store::format::LABEL_OFFSET_BYTES);
        ibuf.put_u64_le(n as u64);
        for &o in &offsets {
            ibuf.put_u64_le(o);
        }
        iw.write_all(&ibuf)?;
        iw.flush()?;
        Ok(Self {
            name: name.to_string(),
            offsets,
        })
    }

    /// Opens a previously written store by loading the offset table.
    pub fn open(storage: &dyn Storage, name: &str) -> io::Result<Self> {
        let mut r = storage.open(&format!("{name}.idx"))?;
        let mut head = [0u8; 8];
        r.read_exact(&mut head)?;
        let n = u64::from_le_bytes(head) as usize;
        let mut body = vec![0u8; (n + 1) * 8];
        r.read_exact(&mut body)?;
        let mut b = &body[..];
        let mut offsets = Vec::with_capacity(n + 1);
        for _ in 0..=n {
            offsets.push(b.get_u64_le());
        }
        if !offsets.windows(2).all(|w| w[0] <= w[1]) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "offsets not monotone",
            ));
        }
        Ok(Self {
            name: name.to_string(),
            offsets,
        })
    }

    /// Number of vertices stored.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total bytes of the label data file.
    pub fn data_bytes(&self) -> u64 {
        *self.offsets.last().unwrap()
    }

    /// Fetches `v`'s label into `out` with a single positioned read (one
    /// counted seek — the paper's "retrieving a vertex label from disk
    /// takes only one I/O") and returns it as a view.
    pub fn fetch<'a>(
        &self,
        storage: &dyn Storage,
        v: VertexId,
        out: &'a mut FetchedLabel,
    ) -> io::Result<LabelView<'a>> {
        let lo = self.offsets[v as usize];
        let hi = self.offsets[v as usize + 1];
        out.raw.resize((hi - lo) as usize, 0);
        storage.read_at(&self.name, lo, &mut out.raw)?;
        out.ancestors.clear();
        out.dists.clear();
        for mut entry in out.raw.chunks_exact(LABEL_ENTRY_BYTES) {
            out.ancestors.push(entry.get_u32_le());
            out.dists.push(entry.get_u32_le());
        }
        Ok(out.view())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BuildConfig;
    use crate::index::IsLabelIndex;
    use islabel_extmem::storage::MemStorage;
    use islabel_graph::generators::{barabasi_albert, WeightModel};
    use islabel_graph::Dist;

    fn setup() -> (IsLabelIndex, MemStorage, DiskLabelStore) {
        let g = barabasi_albert(200, 3, WeightModel::UniformRange(1, 4), 11);
        let index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        let storage = MemStorage::new();
        let store = DiskLabelStore::write(&storage, "labels", index.labels()).unwrap();
        (index, storage, store)
    }

    #[test]
    fn roundtrip_matches_in_memory_labels() {
        let (index, storage, store) = setup();
        assert_eq!(store.num_vertices(), 200);
        let mut buf = FetchedLabel::default();
        for v in 0..200u32 {
            let mem: Vec<(VertexId, Dist)> = index.labels().label(v).iter().collect();
            let disk: Vec<(VertexId, Dist)> =
                store.fetch(&storage, v, &mut buf).unwrap().iter().collect();
            assert_eq!(disk, mem, "label({v})");
        }
    }

    #[test]
    fn each_fetch_is_one_seek() {
        let (_, storage, store) = setup();
        let stats = storage.stats();
        stats.reset();
        let mut buf = FetchedLabel::default();
        store.fetch(&storage, 7, &mut buf).unwrap();
        store.fetch(&storage, 123, &mut buf).unwrap();
        let snap = stats.snapshot();
        assert_eq!(snap.seeks, 2);
    }

    #[test]
    fn open_reloads_offsets() {
        let (_, storage, store) = setup();
        let reopened = DiskLabelStore::open(&storage, "labels").unwrap();
        assert_eq!(reopened.num_vertices(), store.num_vertices());
        assert_eq!(reopened.data_bytes(), store.data_bytes());
        let (mut a, mut b) = (FetchedLabel::default(), FetchedLabel::default());
        store.fetch(&storage, 55, &mut a).unwrap();
        reopened.fetch(&storage, 55, &mut b).unwrap();
        assert_eq!((a.ancestors, a.dists), (b.ancestors, b.dists));
    }

    #[test]
    fn disk_labels_answer_queries_correctly() {
        let (index, storage, store) = setup();
        let g = index.base_graph().clone();
        let (mut bs, mut bt) = (FetchedLabel::default(), FetchedLabel::default());
        for (s, t) in [(0u32, 199u32), (5, 100), (42, 43)] {
            let ls = store.fetch(&storage, s, &mut bs).unwrap();
            let lt = store.fetch(&storage, t, &mut bt).unwrap();
            let got = index.try_distance_from_labels(ls, lt).unwrap();
            assert_eq!(got, crate::reference::dijkstra_p2p(&g, s, t), "({s}, {t})");
        }
    }

    #[test]
    fn out_of_range_ancestor_is_a_typed_error() {
        // `fetch` returns the stored bytes as they are, so a corrupt file
        // can name a vertex the index does not have; the fallible query
        // must say so instead of indexing out of bounds.
        let (index, storage, store) = setup();
        let mut good = FetchedLabel::default();
        store.fetch(&storage, 5, &mut good).unwrap();
        let mut corrupt = FetchedLabel::default();
        for bad in [200, VertexId::MAX] {
            store.fetch(&storage, 100, &mut corrupt).unwrap();
            *corrupt.ancestors.last_mut().unwrap() = bad;
            let expect = Err(crate::QueryError::VertexOutOfRange {
                vertex: bad,
                universe: 200,
            });
            assert_eq!(
                index.try_distance_from_labels(good.view(), corrupt.view()),
                expect
            );
            assert_eq!(
                index.try_distance_from_labels(corrupt.view(), good.view()),
                expect
            );
        }
    }

    #[test]
    fn empty_labels_roundtrip() {
        let storage = MemStorage::new();
        let ls = crate::label::LabelSet::from_per_vertex(vec![]);
        let store = DiskLabelStore::write(&storage, "empty", ls.view()).unwrap();
        assert_eq!(store.num_vertices(), 0);
        assert_eq!(store.data_bytes(), 0);
    }
}
