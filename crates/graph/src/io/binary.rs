//! Compact binary CSR snapshot.
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic   "ISGB"           4 bytes
//! version u32              currently 1
//! n       u64              vertex count
//! m2      u64              directed half-edge count (= 2|E|)
//! offsets (n + 1) × u64
//! neighbors m2 × u32
//! weights   m2 × u32
//! ```
//!
//! Loading performs full structural validation so that a corrupt or
//! truncated file can never produce an out-of-bounds CSR.

use crate::csr::CsrGraph;
use crate::ids::{VertexId, Weight};
use bytes::{Buf, BufMut};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"ISGB";
const VERSION: u32 = 1;

/// Serializes `g` to `writer`.
pub fn write_csr_binary<W: Write>(g: &CsrGraph, writer: &mut W) -> io::Result<()> {
    let (offsets, neighbors, weights) = g.parts();
    let mut header = Vec::with_capacity(24);
    header.put_slice(MAGIC);
    header.put_u32_le(VERSION);
    header.put_u64_le(g.num_vertices() as u64);
    header.put_u64_le(neighbors.len() as u64);
    writer.write_all(&header)?;

    // Stream the arrays in chunks to avoid one giant intermediate buffer.
    let mut buf = Vec::with_capacity(64 * 1024);
    for chunk in offsets.chunks(8 * 1024) {
        buf.clear();
        for &o in chunk {
            buf.put_u64_le(o as u64);
        }
        writer.write_all(&buf)?;
    }
    for chunk in neighbors.chunks(16 * 1024) {
        buf.clear();
        for &v in chunk {
            buf.put_u32_le(v);
        }
        writer.write_all(&buf)?;
    }
    for chunk in weights.chunks(16 * 1024) {
        buf.clear();
        for &w in chunk {
            buf.put_u32_le(w);
        }
        writer.write_all(&buf)?;
    }
    Ok(())
}

/// Deserializes a graph previously written by [`write_csr_binary`].
pub fn read_csr_binary<R: Read>(reader: &mut R) -> io::Result<CsrGraph> {
    let mut block = Vec::new();
    reader.read_to_end(&mut block)?;
    let (n, _) = check_csr_binary(&block)?;
    let m2 = (block.len() - 24 - (n + 1) * 8) / 8;
    let mut b = &block[24..];
    let offsets = (0..=n).map(|_| b.get_u64_le() as usize).collect();
    let neighbors: Vec<VertexId> = (0..m2).map(|_| b.get_u32_le()).collect();
    let weights: Vec<Weight> = (0..m2).map(|_| b.get_u32_le()).collect();
    Ok(CsrGraph::from_parts(offsets, neighbors, weights))
}

/// Checks a whole [`write_csr_binary`] block in place — header, length,
/// offsets, neighbour range, weights — without building the graph; the
/// checks [`read_csr_binary`] relies on. Returns `(|V|, |E|)`.
pub fn check_csr_binary(block: &[u8]) -> io::Result<(usize, usize)> {
    let mut h = block
        .get(..24)
        .ok_or_else(|| bad_data("truncated header"))?;
    let mut magic = [0u8; 4];
    h.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(bad_data("bad magic (not an ISGB file)"));
    }
    let version = h.get_u32_le();
    if version != VERSION {
        return Err(bad_data(&format!("unsupported version {version}")));
    }
    let (n, m2) = (h.get_u64_le(), h.get_u64_le());
    let body = (block.len() - 24) as u64;
    let expected = n
        .checked_add(1)
        .and_then(|n1| n1.checked_mul(8))
        .and_then(|o| m2.checked_mul(8).and_then(|a| a.checked_add(o)));
    if expected != Some(body) {
        return Err(bad_data(&format!(
            "expected {expected:?} body bytes, found {body}"
        )));
    }
    let (n, m2) = (n as usize, m2 as usize);
    let (offsets, arrays) = block[24..].split_at((n + 1) * 8);
    let (neighbors, weights) = arrays.split_at(m2 * 4);
    // Whole-array folds over fixed-size chunks, no early exit: each pass
    // runs at memory speed.
    let offsets = offsets.as_chunks().0.iter().map(|&c| u64::from_le_bytes(c));
    let (first, last, monotone) = offsets.fold((None, 0, true), |(first, last, ok), o| {
        (first.or(Some(o)), o, ok & (o >= last))
    });
    if first != Some(0) || last != m2 as u64 {
        return Err(bad_data("offset bounds corrupt"));
    }
    if !monotone {
        return Err(bad_data("offsets not monotone"));
    }
    let u32s = |b: &[u8], ok: &dyn Fn(u32) -> bool| {
        b.as_chunks()
            .0
            .iter()
            .fold(true, |all, &c| all & ok(u32::from_le_bytes(c)))
    };
    if !u32s(neighbors, &|v| (v as usize) < n) {
        return Err(bad_data("neighbor id out of range"));
    }
    if !u32s(weights, &|w| w != 0) {
        return Err(bad_data("zero edge weight"));
    }
    Ok((n, m2 / 2))
}

fn bad_data(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators::{erdos_renyi_gnm, WeightModel};

    #[test]
    fn roundtrip_small() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 3);
        b.add_edge(2, 3, 9);
        let g = b.build();
        let mut buf = Vec::new();
        write_csr_binary(&g, &mut buf).unwrap();
        let g2 = read_csr_binary(&mut &buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn roundtrip_random() {
        let g = erdos_renyi_gnm(500, 2000, WeightModel::UniformRange(1, 100), 17);
        let mut buf = Vec::new();
        write_csr_binary(&g, &mut buf).unwrap();
        assert_eq!(read_csr_binary(&mut &buf[..]).unwrap(), g);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_csr_binary(&mut &b"XXXX0000000000000000000000"[..]).unwrap_err();
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn rejects_truncation() {
        let g = erdos_renyi_gnm(50, 100, WeightModel::Unit, 1);
        let mut buf = Vec::new();
        write_csr_binary(&g, &mut buf).unwrap();
        buf.truncate(buf.len() - 5);
        assert!(read_csr_binary(&mut &buf[..]).is_err());
    }

    #[test]
    fn rejects_corrupt_neighbor() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 1);
        let g = b.build();
        let mut buf = Vec::new();
        write_csr_binary(&g, &mut buf).unwrap();
        // Clobber a neighbor id with an out-of-range value.
        let neighbors_start = 24 + 3 * 8;
        buf[neighbors_start..neighbors_start + 4].copy_from_slice(&99u32.to_le_bytes());
        assert!(read_csr_binary(&mut &buf[..]).is_err());
    }

    #[test]
    fn empty_graph_roundtrip() {
        let g = CsrGraph::empty(7);
        let mut buf = Vec::new();
        write_csr_binary(&g, &mut buf).unwrap();
        assert_eq!(read_csr_binary(&mut &buf[..]).unwrap(), g);
    }
}
