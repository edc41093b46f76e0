//! Streaming v5 artifact writer.
//!
//! [`StoreWriter`] writes sections one at a time in a single forward
//! pass, checksumming as it goes, then seeks back once at the end to
//! patch the header + section table. Callers never hold a whole section
//! in memory: `write_u32s`/`write_u64s` convert to little-endian in
//! bounded chunks.

use std::io::{self, Seek, SeekFrom, Write};

use crate::format::{Checksum64, Header, SectionEntry, DATA_START, MAX_SECTIONS, SECTION_ALIGN};

/// The fixed header fields the caller supplies; the writer fills in the
/// section table.
#[derive(Debug, Clone)]
pub struct ArtifactMeta {
    /// Artifact-lineage epoch (pairs the artifact with its WAL).
    pub epoch: u64,
    /// `FLAG_*` bits (path info / hops).
    pub flags: u32,
    /// Hierarchy depth `k`.
    pub k: u32,
    /// k-selection strategy tag.
    pub ksel_tag: u32,
    /// k-selection parameter as `f64` bits.
    pub ksel_bits: u64,
    /// Vertex universe size.
    pub n: u64,
    /// Number of `G_k` members.
    pub dense_m: u64,
    /// Sealed dynamic-update records in the ops section.
    pub op_count: u64,
    /// The build's level cap.
    pub max_levels: u32,
    /// Independent-set strategy tag.
    pub is_tag: u32,
    /// The random strategy's seed; 0 for the others.
    pub is_seed: u64,
}

/// Writes a v5 `.islx` artifact section by section.
///
/// ```text
/// let mut w = StoreWriter::new(file, meta)?;
/// w.begin_section(SECTION_LEVELS)?;
/// w.write_u32s(&levels)?;
/// w.end_section()?;
/// …
/// let file = w.finish()?;   // seeks back and writes the header
/// ```
#[derive(Debug)]
pub struct StoreWriter<W: Write + Seek> {
    out: W,
    meta: ArtifactMeta,
    sections: Vec<SectionEntry>,
    /// Kind of the section currently open, if any.
    open: Option<u32>,
    /// Absolute offset of the next byte to be written.
    pos: u64,
    /// Running checksum of the open section.
    crc: Checksum64,
    /// Start offset of the open section.
    start: u64,
}

impl<W: Write + Seek> StoreWriter<W> {
    /// Starts an artifact: reserves the header + table region with
    /// zeroes (patched by [`finish`](Self::finish)).
    pub fn new(mut out: W, meta: ArtifactMeta) -> io::Result<Self> {
        out.write_all(&[0u8; DATA_START])?;
        Ok(StoreWriter {
            out,
            meta,
            sections: Vec::new(),
            open: None,
            pos: DATA_START as u64,
            crc: Checksum64::new(),
            start: 0,
        })
    }

    /// Opens a new section of the given kind. Sections must not nest.
    pub fn begin_section(&mut self, kind: u32) -> io::Result<()> {
        if self.open.is_some() {
            return Err(io::Error::other("store writer: section already open"));
        }
        if self.sections.len() >= MAX_SECTIONS {
            return Err(io::Error::other("store writer: section table full"));
        }
        if self.sections.iter().any(|s| s.kind == kind) {
            return Err(io::Error::other("store writer: duplicate section kind"));
        }
        // Pad to the section alignment so in-place u64 views are sound.
        let pad = (SECTION_ALIGN as u64 - self.pos % SECTION_ALIGN as u64) % SECTION_ALIGN as u64;
        if pad > 0 {
            self.out.write_all(&[0u8; SECTION_ALIGN][..pad as usize])?;
            self.pos += pad;
        }
        self.open = Some(kind);
        self.start = self.pos;
        self.crc = Checksum64::new();
        Ok(())
    }

    /// Appends raw bytes to the open section.
    pub fn write_bytes(&mut self, data: &[u8]) -> io::Result<()> {
        if self.open.is_none() {
            return Err(io::Error::other("store writer: no section open"));
        }
        self.out.write_all(data)?;
        self.crc.update(data);
        self.pos += data.len() as u64;
        Ok(())
    }

    /// Appends `u32`s to the open section as little-endian bytes.
    pub fn write_u32s(&mut self, values: &[u32]) -> io::Result<()> {
        let mut buf = [0u8; 4 * 1024];
        for chunk in values.chunks(1024) {
            for (i, v) in chunk.iter().enumerate() {
                buf[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
            }
            self.write_bytes(&buf[..chunk.len() * 4])?;
        }
        Ok(())
    }

    /// Appends `u64`s to the open section as little-endian bytes.
    pub fn write_u64s(&mut self, values: &[u64]) -> io::Result<()> {
        let mut buf = [0u8; 8 * 1024];
        for chunk in values.chunks(1024) {
            for (i, v) in chunk.iter().enumerate() {
                buf[i * 8..i * 8 + 8].copy_from_slice(&v.to_le_bytes());
            }
            self.write_bytes(&buf[..chunk.len() * 8])?;
        }
        Ok(())
    }

    /// Closes the open section, recording its table entry.
    pub fn end_section(&mut self) -> io::Result<()> {
        let kind = self
            .open
            .take()
            .ok_or_else(|| io::Error::other("store writer: no section open"))?;
        self.sections.push(SectionEntry {
            kind,
            offset: self.start,
            len: self.pos - self.start,
            checksum: self.crc.finalize(),
        });
        Ok(())
    }

    /// Seeks back, writes the finalized header + section table, flushes,
    /// and returns the underlying writer (so callers can `sync_all`).
    pub fn finish(mut self) -> io::Result<W> {
        if self.open.is_some() {
            return Err(io::Error::other("store writer: unclosed section"));
        }
        let header = Header {
            epoch: self.meta.epoch,
            flags: self.meta.flags,
            k: self.meta.k,
            ksel_tag: self.meta.ksel_tag,
            ksel_bits: self.meta.ksel_bits,
            n: self.meta.n,
            dense_m: self.meta.dense_m,
            op_count: self.meta.op_count,
            max_levels: self.meta.max_levels,
            is_tag: self.meta.is_tag,
            is_seed: self.meta.is_seed,
            sections: self.sections,
        };
        self.out.seek(SeekFrom::Start(0))?;
        self.out.write_all(&header.encode())?;
        self.out.flush()?;
        Ok(self.out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{validate_sections, SECTION_LABEL_OFFSETS, SECTION_LEVELS};
    use std::io::Cursor;

    #[test]
    fn writer_produces_a_decodable_artifact() {
        let meta = ArtifactMeta {
            epoch: 42,
            flags: 0,
            k: 3,
            ksel_tag: 1,
            ksel_bits: 0,
            n: 5,
            dense_m: 2,
            op_count: 0,
            max_levels: 10_000,
            is_tag: 0,
            is_seed: 0,
        };
        let mut w = StoreWriter::new(Cursor::new(Vec::new()), meta).unwrap();
        w.begin_section(SECTION_LEVELS).unwrap();
        w.write_u32s(&[1, 2, 3, 2, 1]).unwrap();
        w.end_section().unwrap();
        w.begin_section(SECTION_LABEL_OFFSETS).unwrap();
        w.write_u64s(&[0, 1, 2, 3, 4, 5]).unwrap();
        w.end_section().unwrap();
        let buf = w.finish().unwrap().into_inner();

        let h = Header::decode(&buf, buf.len() as u64).unwrap();
        assert_eq!(h.epoch, 42);
        assert_eq!(h.sections.len(), 2);
        validate_sections(&h, &buf).unwrap();

        let levels = h.section(SECTION_LEVELS).unwrap();
        // 5 u32s, starting right at DATA_START (already aligned).
        assert_eq!(levels.offset, DATA_START as u64);
        assert_eq!(levels.len, 20);
        // The next section got padded to the 8-byte boundary.
        let offs = h.section(SECTION_LABEL_OFFSETS).unwrap();
        assert_eq!(offs.offset % 8, 0);
        assert_eq!(offs.offset, DATA_START as u64 + 24);
        assert_eq!(offs.len, 48);
    }

    #[test]
    fn writer_rejects_misuse() {
        let meta = ArtifactMeta {
            epoch: 0,
            flags: 0,
            k: 0,
            ksel_tag: 0,
            ksel_bits: 0,
            n: 0,
            dense_m: 0,
            op_count: 0,
            max_levels: 10_000,
            is_tag: 0,
            is_seed: 0,
        };
        let mut w = StoreWriter::new(Cursor::new(Vec::new()), meta.clone()).unwrap();
        assert!(w.write_bytes(b"x").is_err()); // no section open
        assert!(w.end_section().is_err());
        w.begin_section(SECTION_LEVELS).unwrap();
        assert!(w.begin_section(SECTION_LEVELS).is_err()); // nested
        assert!(w.finish().is_err()); // unclosed

        let mut w = StoreWriter::new(Cursor::new(Vec::new()), meta).unwrap();
        w.begin_section(SECTION_LEVELS).unwrap();
        w.end_section().unwrap();
        assert!(w.begin_section(SECTION_LEVELS).is_err()); // duplicate kind
    }
}
