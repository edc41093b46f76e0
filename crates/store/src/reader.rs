//! Validating, zero-copy v5 artifact reader.
//!
//! [`StoreReader::open`] maps the file and runs the full validate-on-open
//! pass — magic, version, header checksum, every section's offset /
//! length / alignment / checksum — before returning.
//! [`StoreReader::open_unverified`] runs everything except the content
//! checksums (the one O(file) scan), for callers that semantically
//! validate every section themselves; [`StoreReader::verify`] runs that
//! scan on demand. After either open succeeds, the typed accessors
//! ([`section_u32s`](StoreReader::section_u32s),
//! [`section_u64s`](StoreReader::section_u64s)) are pure slice views into
//! the mapping: no copies, no further validation cost, and no way to
//! reach bytes outside the decoded section table. Corrupt input yields a
//! typed `io::Error` (wrapping [`FormatError`]) — never a panic.

use std::io;
use std::path::Path;

use crate::format::{validate_sections, FormatError, Header};
use crate::mmap::{cast_u32s, cast_u64s, MappedFile};

/// An open, fully validated v5 artifact.
#[derive(Debug)]
pub struct StoreReader {
    map: MappedFile,
    header: Header,
}

impl StoreReader {
    /// Opens and validates `path`. Every header field, section offset,
    /// length, alignment, and checksum is verified before this returns;
    /// any violation is a typed error.
    pub fn open(path: &Path) -> io::Result<StoreReader> {
        Self::from_map(MappedFile::open(path)?, true)
    }

    /// Opens `path` with structural validation only: magic, version,
    /// header CRC, and every section's offset / length / alignment are
    /// checked, but section *contents* are not checksummed — that is the
    /// one O(file) scan in `open`, and latency-critical callers that run
    /// their own semantic pass over every section (the mmap query
    /// engine) can defer it. Call [`verify`](Self::verify) to run the
    /// checksum pass later, e.g. when diagnosing a semantic failure.
    pub fn open_unverified(path: &Path) -> io::Result<StoreReader> {
        Self::from_map(MappedFile::open(path)?, false)
    }

    /// Opens an artifact held in memory (the bytes are copied into an
    /// aligned buffer). Same validation as [`open`](Self::open).
    pub fn from_bytes(bytes: Vec<u8>) -> io::Result<StoreReader> {
        Self::from_map(MappedFile::from_vec(bytes), true)
    }

    fn from_map(map: MappedFile, verify_contents: bool) -> io::Result<StoreReader> {
        let registry = islabel_obs::Registry::global();
        registry
            .counter(
                islabel_obs::names::METRIC_STORE_OPENS_TOTAL,
                "Artifact opens by byte source.",
                &[("backing", if map.is_mapped() { "mmap" } else { "heap" })],
            )
            .inc();
        let result: io::Result<Header> = (|| {
            let bytes = map.bytes();
            let header = Header::decode(bytes, bytes.len() as u64).map_err(io::Error::from)?;
            if verify_contents {
                validate_sections(&header, bytes).map_err(io::Error::from)?;
            }
            Ok(header)
        })();
        registry
            .counter(
                islabel_obs::names::METRIC_STORE_VALIDATE_TOTAL,
                "Validate-on-open outcomes.",
                &[("outcome", if result.is_ok() { "ok" } else { "error" })],
            )
            .inc();
        Ok(StoreReader {
            map,
            header: result?,
        })
    }

    /// Verifies every section's content checksum against the table.
    /// A no-op source of truth after [`open`](Self::open) (which already
    /// ran it); the explicit pass for readers that started from
    /// [`open_unverified`](Self::open_unverified).
    pub fn verify(&self) -> io::Result<()> {
        validate_sections(&self.header, self.map.bytes()).map_err(io::Error::from)
    }

    /// The decoded header.
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// Artifact-lineage epoch.
    pub fn epoch(&self) -> u64 {
        self.header.epoch
    }

    /// Total artifact bytes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the artifact is zero bytes (never true after `open`).
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether the bytes come from a kernel mapping rather than the heap
    /// fallback.
    pub fn is_mapped(&self) -> bool {
        self.map.is_mapped()
    }

    /// The whole artifact, header included.
    pub fn bytes(&self) -> &[u8] {
        self.map.bytes()
    }

    /// The raw bytes of section `kind`, or `None` if the artifact does
    /// not carry that section.
    pub fn section_bytes(&self, kind: u32) -> Option<&[u8]> {
        let s = self.header.section(kind)?;
        self.map
            .bytes()
            .get(s.offset as usize..(s.offset + s.len) as usize)
    }

    /// Section `kind` viewed in place as little-endian `u32`s. `Err` if
    /// the section length is not a multiple of 4 (or the host cannot view
    /// little-endian data in place), `Ok(None)` if the section is absent.
    pub fn section_u32s(&self, kind: u32) -> io::Result<Option<&[u32]>> {
        match self.section_bytes(kind) {
            None => Ok(None),
            Some(b) => cast_u32s(b).map(Some).ok_or_else(|| {
                io::Error::from(FormatError::Section {
                    kind,
                    reason: "length not a multiple of the element size",
                })
            }),
        }
    }

    /// Section `kind` viewed in place as little-endian `u64`s; same
    /// contract as [`section_u32s`](Self::section_u32s).
    pub fn section_u64s(&self, kind: u32) -> io::Result<Option<&[u64]>> {
        match self.section_bytes(kind) {
            None => Ok(None),
            Some(b) => cast_u64s(b).map(Some).ok_or_else(|| {
                io::Error::from(FormatError::Section {
                    kind,
                    reason: "length not a multiple of the element size",
                })
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{SECTION_LABEL_DISTS, SECTION_LEVELS};
    use crate::writer::{ArtifactMeta, StoreWriter};
    use std::io::Cursor;

    fn tiny_artifact() -> Vec<u8> {
        let meta = ArtifactMeta {
            epoch: 9,
            flags: 0,
            k: 2,
            ksel_tag: 2,
            ksel_bits: 0,
            n: 4,
            dense_m: 1,
            op_count: 0,
            max_levels: 10_000,
            is_tag: 0,
            is_seed: 0,
        };
        let mut w = StoreWriter::new(Cursor::new(Vec::new()), meta).unwrap();
        w.begin_section(SECTION_LEVELS).unwrap();
        w.write_u32s(&[1, 1, 2, 1]).unwrap();
        w.end_section().unwrap();
        w.begin_section(SECTION_LABEL_DISTS).unwrap();
        w.write_u64s(&[10, 20, 30]).unwrap();
        w.end_section().unwrap();
        w.finish().unwrap().into_inner()
    }

    #[test]
    fn roundtrip_through_reader() {
        let buf = tiny_artifact();
        let r = StoreReader::from_bytes(buf).unwrap();
        assert_eq!(r.epoch(), 9);
        assert_eq!(r.header().n, 4);
        assert_eq!(
            r.section_u32s(SECTION_LEVELS).unwrap(),
            Some(&[1u32, 1, 2, 1][..])
        );
        assert_eq!(
            r.section_u64s(SECTION_LABEL_DISTS).unwrap(),
            Some(&[10u64, 20, 30][..])
        );
        // Absent section.
        assert_eq!(r.section_bytes(crate::format::SECTION_OPS), None);
        assert_eq!(r.section_u32s(crate::format::SECTION_OPS).unwrap(), None);
    }

    #[test]
    fn file_roundtrip_is_mapped() {
        let buf = tiny_artifact();
        let dir = crate::testdir::TestDir::new("reader");
        let path = dir.join("a.islx");
        std::fs::write(&path, &buf).unwrap();
        let r = StoreReader::open(&path).unwrap();
        #[cfg(unix)]
        assert!(r.is_mapped());
        assert_eq!(
            r.section_u32s(SECTION_LEVELS).unwrap(),
            Some(&[1u32, 1, 2, 1][..])
        );
        drop(r);
    }

    #[test]
    fn corrupt_bytes_yield_typed_errors() {
        let good = tiny_artifact();
        // Flip one byte in a section body: checksum failure.
        let mut bad = good.clone();
        let at = crate::format::DATA_START + 1;
        bad[at] ^= 0xFF;
        let err = StoreReader::from_bytes(bad).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Truncation.
        let err = StoreReader::from_bytes(good[..40].to_vec()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn wrong_element_size_is_an_error_not_a_panic() {
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
        let mut w = StoreWriter::new(Cursor::new(Vec::new()), meta).unwrap();
        w.begin_section(SECTION_LEVELS).unwrap();
        w.write_bytes(&[1, 2, 3]).unwrap(); // 3 bytes: not a u32 array
        w.end_section().unwrap();
        let buf = w.finish().unwrap().into_inner();
        let r = StoreReader::from_bytes(buf).unwrap();
        assert!(r.section_u32s(SECTION_LEVELS).is_err());
    }
}
