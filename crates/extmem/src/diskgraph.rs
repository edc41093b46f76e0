//! Disk-resident adjacency-list graphs.
//!
//! The paper stores each `G_i` "in its adjacency list representation
//! (whether in memory or on disk), where ... vertices are ordered in
//! ascending order of their vertex IDs" (Section 2), and every
//! external-memory step of Algorithms 2 and 3 is a *sequential* scan or a
//! sort of such files. [`DiskGraph`] is that file format: a stream of
//! [`AdjRecord`]s, one per vertex with at least one edge, ordered by vertex
//! id, with a small sidecar carrying the counts.
//!
//! Each adjacency entry also carries the augmenting-edge `via` annotation
//! (Section 8.1) so that the external build produces the same path metadata
//! as the in-memory build.
//!
//! The `(neighbor, weight, via)` triple layout is shared with the peel
//! adjacency and via sections of the persistent artifact —
//! [`islabel_store::format`] (`crates/store`) is the single source of
//! truth for these at-rest record sizes.

use crate::extsort::{ExtRecord, RecordReader, RecordWriter};
use crate::storage::Storage;
use bytes::{Buf, BufMut};
use islabel_graph::adjacency::NO_VIA;
use islabel_graph::{CsrGraph, VertexId, Weight};
use islabel_store::format::EDGE_TRIPLE_BYTES;
use std::io::{self, Read};

/// One vertex's adjacency list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdjRecord {
    /// The vertex this list belongs to.
    pub vertex: VertexId,
    /// `(neighbor, weight, via)` triples sorted by neighbor id; `via` is
    /// [`NO_VIA`] for original edges.
    pub edges: Vec<(VertexId, Weight, VertexId)>,
}

impl AdjRecord {
    /// Degree of the vertex.
    pub fn degree(&self) -> usize {
        self.edges.len()
    }
}

impl ExtRecord for AdjRecord {
    // Sorted by vertex id (the at-rest order of a DiskGraph).
    type Key = VertexId;

    fn key(&self) -> Self::Key {
        self.vertex
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.put_u32_le(self.vertex);
        out.put_u32_le(self.edges.len() as u32);
        for &(n, w, via) in &self.edges {
            out.put_u32_le(n);
            out.put_u32_le(w);
            out.put_u32_le(via);
        }
    }

    fn decode(mut buf: &[u8]) -> Self {
        let vertex = buf.get_u32_le();
        let count = buf.get_u32_le() as usize;
        let mut edges = Vec::with_capacity(count);
        for _ in 0..count {
            edges.push((buf.get_u32_le(), buf.get_u32_le(), buf.get_u32_le()));
        }
        Self { vertex, edges }
    }

    fn approx_size(&self) -> usize {
        8 + self.edges.len() * EDGE_TRIPLE_BYTES + 24
    }
}

/// [`AdjRecord`] ordered by `(degree, vertex)` — the sort order Algorithm 2
/// needs ("sort the adjacency lists in ascending order of the vertex
/// degrees"); the vertex-id component makes the order total, which keeps the
/// greedy independent-set selection deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdjByDegree(pub AdjRecord);

impl ExtRecord for AdjByDegree {
    type Key = (u32, VertexId);

    fn key(&self) -> Self::Key {
        (self.0.edges.len() as u32, self.0.vertex)
    }

    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }

    fn decode(buf: &[u8]) -> Self {
        Self(AdjRecord::decode(buf))
    }

    fn approx_size(&self) -> usize {
        self.0.approx_size()
    }
}

/// A named adjacency-list graph file plus its counts.
#[derive(Debug, Clone)]
pub struct DiskGraph {
    /// Storage object name holding the records.
    pub name: String,
    /// Vertex-id universe size (ids are `0..universe`).
    pub universe: usize,
    /// Number of vertices present (records in the file).
    pub num_vertices: usize,
    /// Number of undirected edges (each appears in two records).
    pub num_edges: usize,
}

impl DiskGraph {
    /// Writes `records` (which must be ascending by vertex id, each
    /// neighbor list sorted) as graph `name`, and returns the handle.
    pub fn create(
        storage: &dyn Storage,
        name: &str,
        universe: usize,
        records: impl IntoIterator<Item = AdjRecord>,
    ) -> io::Result<Self> {
        let mut w = RecordWriter::new(storage.create(name)?);
        let mut num_vertices = 0usize;
        let mut half_edges = 0usize;
        let mut last: Option<VertexId> = None;
        for rec in records {
            assert!(
                last.is_none_or(|l| l < rec.vertex),
                "records must ascend by vertex id"
            );
            assert!(
                rec.edges.windows(2).all(|e| e[0].0 < e[1].0),
                "neighbors must be sorted"
            );
            last = Some(rec.vertex);
            num_vertices += 1;
            half_edges += rec.edges.len();
            w.write(&rec)?;
        }
        w.finish()?;
        let dg = Self {
            name: name.to_string(),
            universe,
            num_vertices,
            num_edges: half_edges / 2,
        };
        dg.write_meta(storage)?;
        Ok(dg)
    }

    /// Converts an in-memory CSR graph (vertices with edges only).
    pub fn from_csr(storage: &dyn Storage, name: &str, g: &CsrGraph) -> io::Result<Self> {
        let records = g
            .vertices()
            .filter(|&v| g.degree(v) > 0)
            .map(|v| AdjRecord {
                vertex: v,
                edges: g.edges(v).map(|(n, w)| (n, w, NO_VIA)).collect(),
            });
        Self::create(storage, name, g.num_vertices(), records)
    }

    /// Registers an already-written record file as a graph by persisting its
    /// sidecar. The caller guarantees the file holds ascending [`AdjRecord`]s
    /// consistent with the given counts (used by streaming producers that
    /// cannot go through [`DiskGraph::create`]).
    pub fn assemble(
        storage: &dyn Storage,
        name: &str,
        universe: usize,
        num_vertices: usize,
        num_edges: usize,
    ) -> io::Result<Self> {
        let dg = Self {
            name: name.to_string(),
            universe,
            num_vertices,
            num_edges,
        };
        dg.write_meta(storage)?;
        Ok(dg)
    }

    /// Opens an existing graph by reading its sidecar.
    pub fn open(storage: &dyn Storage, name: &str) -> io::Result<Self> {
        let mut r = storage.open(&format!("{name}.meta"))?;
        let mut buf = [0u8; 24];
        r.read_exact(&mut buf)?;
        let mut b = &buf[..];
        Ok(Self {
            name: name.to_string(),
            universe: b.get_u64_le() as usize,
            num_vertices: b.get_u64_le() as usize,
            num_edges: b.get_u64_le() as usize,
        })
    }

    fn write_meta(&self, storage: &dyn Storage) -> io::Result<()> {
        let mut w = storage.create(&format!("{}.meta", self.name))?;
        let mut buf = Vec::with_capacity(24);
        buf.put_u64_le(self.universe as u64);
        buf.put_u64_le(self.num_vertices as u64);
        buf.put_u64_le(self.num_edges as u64);
        w.write_all(&buf)?;
        Ok(())
    }

    /// Sequentially scans the records in ascending vertex-id order.
    pub fn scan<'a>(&self, storage: &'a dyn Storage) -> io::Result<AdjScan<'a>> {
        Ok(AdjScan {
            reader: RecordReader::new(storage.open(&self.name)?),
        })
    }

    /// Deletes the record file and sidecar.
    pub fn delete(&self, storage: &dyn Storage) -> io::Result<()> {
        storage.delete(&self.name)?;
        storage.delete(&format!("{}.meta", self.name))
    }

    /// Materializes into an in-memory CSR graph (drops via annotations).
    pub fn to_csr(&self, storage: &dyn Storage) -> io::Result<CsrGraph> {
        let mut b = islabel_graph::GraphBuilder::new(self.universe);
        b.reserve(self.num_edges);
        let mut scan = self.scan(storage)?;
        while let Some(rec) = scan.next()? {
            for &(n, w, _) in &rec.edges {
                if rec.vertex < n {
                    b.add_edge(rec.vertex, n, w);
                }
            }
        }
        Ok(b.build())
    }
}

/// Streaming cursor over a [`DiskGraph`].
pub struct AdjScan<'a> {
    reader: RecordReader<Box<dyn Read + Send + 'a>>,
}

impl std::fmt::Debug for AdjScan<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdjScan").finish_non_exhaustive()
    }
}

impl AdjScan<'_> {
    /// The next adjacency record, or `None` at end of graph.
    #[allow(clippy::should_implement_trait)] // fallible iterator
    pub fn next(&mut self) -> io::Result<Option<AdjRecord>> {
        self.reader.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;
    use islabel_graph::generators::{erdos_renyi_gnm, WeightModel};
    use islabel_graph::GraphBuilder;

    #[test]
    fn csr_roundtrip() {
        let storage = MemStorage::new();
        let g = erdos_renyi_gnm(100, 300, WeightModel::UniformRange(1, 9), 5);
        let dg = DiskGraph::from_csr(&storage, "g", &g).unwrap();
        assert_eq!(dg.universe, 100);
        assert_eq!(dg.num_edges, 300);
        assert_eq!(dg.to_csr(&storage).unwrap(), g);
    }

    #[test]
    fn open_reads_sidecar() {
        let storage = MemStorage::new();
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 2);
        b.add_edge(3, 4, 7);
        let g = b.build();
        let dg = DiskGraph::from_csr(&storage, "g", &g).unwrap();
        let reopened = DiskGraph::open(&storage, "g").unwrap();
        assert_eq!(reopened.universe, dg.universe);
        assert_eq!(reopened.num_vertices, 4); // only vertices with edges
        assert_eq!(reopened.num_edges, 2);
    }

    #[test]
    fn scan_is_ascending_and_complete() {
        let storage = MemStorage::new();
        let g = erdos_renyi_gnm(50, 120, WeightModel::Unit, 8);
        let dg = DiskGraph::from_csr(&storage, "g", &g).unwrap();
        let mut scan = dg.scan(&storage).unwrap();
        let mut seen = Vec::new();
        let mut half_edges = 0;
        while let Some(rec) = scan.next().unwrap() {
            seen.push(rec.vertex);
            half_edges += rec.edges.len();
        }
        assert!(seen.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(half_edges, 240);
    }

    #[test]
    #[should_panic(expected = "ascend")]
    fn create_rejects_unsorted_records() {
        let storage = MemStorage::new();
        let recs = vec![
            AdjRecord {
                vertex: 2,
                edges: vec![(3, 1, NO_VIA)],
            },
            AdjRecord {
                vertex: 1,
                edges: vec![(3, 1, NO_VIA)],
            },
        ];
        DiskGraph::create(&storage, "g", 4, recs).unwrap();
    }

    #[test]
    fn delete_removes_both_objects() {
        let storage = MemStorage::new();
        let g = erdos_renyi_gnm(10, 20, WeightModel::Unit, 0);
        let dg = DiskGraph::from_csr(&storage, "g", &g).unwrap();
        dg.delete(&storage).unwrap();
        assert!(storage.names().is_empty());
    }

    #[test]
    fn degree_order_wrapper_sorts_by_degree() {
        use crate::extsort::{external_sort, SortConfig};
        let storage = MemStorage::new();
        let recs = vec![
            AdjByDegree(AdjRecord {
                vertex: 0,
                edges: vec![(1, 1, NO_VIA), (2, 1, NO_VIA), (3, 1, NO_VIA)],
            }),
            AdjByDegree(AdjRecord {
                vertex: 1,
                edges: vec![(0, 1, NO_VIA)],
            }),
            AdjByDegree(AdjRecord {
                vertex: 2,
                edges: vec![(0, 1, NO_VIA), (3, 1, NO_VIA)],
            }),
        ];
        external_sort(&storage, recs, "sorted", SortConfig::default()).unwrap();
        let mut r = RecordReader::new(storage.open("sorted").unwrap());
        let out: Vec<AdjByDegree> = r.collect().unwrap();
        let degrees: Vec<usize> = out.iter().map(|r| r.0.degree()).collect();
        assert_eq!(degrees, vec![1, 2, 3]);
    }

    #[test]
    fn via_annotations_survive_roundtrip() {
        let storage = MemStorage::new();
        let recs = vec![AdjRecord {
            vertex: 0,
            edges: vec![(1, 5, 7), (2, 3, NO_VIA)],
        }];
        let dg = DiskGraph::create(&storage, "g", 8, recs.clone()).unwrap();
        let mut scan = dg.scan(&storage).unwrap();
        assert_eq!(scan.next().unwrap(), Some(recs[0].clone()));
    }
}
