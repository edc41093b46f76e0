//! The v5 `.islx` flat artifact format: constants, header/section-table
//! codec, and the structural validate-on-open checks.
//!
//! A v5 artifact is one file laid out for zero-copy serving:
//!
//! ```text
//! [ header 88 B | section table 16 × 32 B | section | pad | section | … ]
//! ```
//!
//! Every section is a homogeneous little-endian array (`u32` or `u64`
//! elements) or an opaque byte block, starts at an 8-byte-aligned offset,
//! and carries a 64-bit content checksum ([`checksum64`]) over its exact
//! bytes — a multi-lane word-folding checksum chosen so validate-on-open
//! runs at memory speed instead of CRC-table speed. The header carries a
//! CRC-32 over the header + table region (with the checksum field
//! zeroed), so a reader can reject a torn or bit-flipped file before
//! trusting any offset. Section kinds and the format version are
//! wire-frozen: they are registered in `docs/wire_registry.toml` and
//! `islabel-lint` fails the build if any value here is renumbered.
//!
//! This module is a `lint.toml` panic-free zone: decoding works on
//! untrusted bytes, so every access is checked and every failure is a
//! typed [`FormatError`] — never a panic.

use std::io;

/// File magic shared by every `.islx` version.
pub const MAGIC: [u8; 4] = *b"ISLX";

/// The flat, mmap-servable artifact format version — the only one read.
/// Versions 1 and 2 were streamed, heap-deserialized layouts; version 3
/// stored label distances as `u64` and only part of the build
/// configuration; version 4 stored a first hop beside every label entry
/// (section kind 14 and header flag bit 1, both reserved since). A file
/// carrying any of them is refused as [`FormatError::UnsupportedVersion`].
pub const FORMAT_VERSION: u32 = 5;

/// Fixed header bytes before the section table.
const HEADER_BYTES: usize = 88;
/// Bytes per section-table entry.
const TABLE_ENTRY_BYTES: usize = 32;
/// Section-table slots reserved in every artifact (unused slots are
/// zeroed). Bounding the table keeps the header region fixed-size so the
/// first section offset never moves.
pub const MAX_SECTIONS: usize = 16;
/// Total header + table bytes; the first section starts here (8-aligned).
pub const DATA_START: usize = HEADER_BYTES + MAX_SECTIONS * TABLE_ENTRY_BYTES;

/// Section alignment: every section offset is a multiple of 8 so `u64`
/// arrays can be viewed in place.
pub const SECTION_ALIGN: usize = 8;

// Section kinds. Wire-frozen (see docs/wire_registry.toml): renumbering
// breaks every artifact on disk, so `islabel-lint` diffs these constants
// against the registry.
/// Base graph, CSR binary block (islabel-graph format; opaque bytes).
pub const SECTION_GRAPH: u32 = 1;
/// Hierarchy level numbers, `n × u32`.
pub const SECTION_LEVELS: u32 = 2;
/// Peel adjacency offsets, `(n+1) × u64` (entry indices, not bytes).
pub const SECTION_PEEL_OFFSETS: u32 = 3;
/// Peel adjacency entries, `(to, weight, via)` triples as `3p × u32`.
pub const SECTION_PEEL_EDGES: u32 = 4;
/// Dense `G_k` CSR offsets, `(m+1) × u32`.
pub const SECTION_GK_OFFSETS: u32 = 5;
/// Dense `G_k` CSR targets (compact ids), `me × u32`.
pub const SECTION_GK_TARGETS: u32 = 6;
/// Dense `G_k` CSR weights, `me × u32`.
pub const SECTION_GK_WEIGHTS: u32 = 7;
/// Global→dense id map, `n × u32` (`u32::MAX` = not in `G_k`).
pub const SECTION_GK_DENSE_OF: u32 = 8;
/// Dense→global id map, `m × u32`, strictly ascending.
pub const SECTION_GK_GLOBAL_OF: u32 = 9;
/// `G_k` via annotations, `(u, v, via)` triples as `3c × u32`.
pub const SECTION_GK_VIAS: u32 = 10;
/// Label offsets, `(n+1) × u64` (entry indices).
pub const SECTION_LABEL_OFFSETS: u32 = 11;
/// Label ancestors, `E × u32`, ascending within each vertex's range.
pub const SECTION_LABEL_ANCESTORS: u32 = 12;
/// Label distances, `E × u32`, parallel to the ancestors.
pub const SECTION_LABEL_DISTS: u32 = 13;
/// Reserved: version 4's label first hops, `E × u32`. A v5 artifact
/// never carries it (a path query derives each hop) and the table
/// decoder refuses it, so the number is never reused.
const SECTION_LABEL_HOPS: u32 = 14;
/// Sealed dynamic-update ops, WAL payload format framed as
/// `len u32 + payload` per record; record count is in the header.
pub const SECTION_OPS: u32 = 15;

/// Highest section kind currently defined (for validation).
const SECTION_KIND_MAX: u32 = 15;

/// Human-readable name of a section kind, for diagnostics (`islabel
/// stats --file`) and error messages. Unknown kinds answer `"unknown"`.
pub fn section_kind_name(kind: u32) -> &'static str {
    match kind {
        SECTION_GRAPH => "graph",
        SECTION_LEVELS => "levels",
        SECTION_PEEL_OFFSETS => "peel_offsets",
        SECTION_PEEL_EDGES => "peel_edges",
        SECTION_GK_OFFSETS => "gk_offsets",
        SECTION_GK_TARGETS => "gk_targets",
        SECTION_GK_WEIGHTS => "gk_weights",
        SECTION_GK_DENSE_OF => "gk_dense_of",
        SECTION_GK_GLOBAL_OF => "gk_global_of",
        SECTION_GK_VIAS => "gk_vias",
        SECTION_LABEL_OFFSETS => "label_offsets",
        SECTION_LABEL_ANCESTORS => "label_ancestors",
        SECTION_LABEL_DISTS => "label_dists",
        SECTION_LABEL_HOPS => "label_hops (reserved)",
        SECTION_OPS => "ops",
        _ => "unknown",
    }
}

/// Header flag bit: the index answers path queries (the build config's
/// `keep_path_info`). Bit 1 is reserved: version 4's hop-section flag.
pub const FLAG_KEEP_PATH_INFO: u32 = 1 << 0;
/// All flag bits a v5 reader understands; unknown bits fail validation.
const FLAG_MASK: u32 = FLAG_KEEP_PATH_INFO;

// Shared at-rest record layouts. These are the single source of truth for
// every crate that serializes the same records (the disk-resident label
// store in islabel-core::disklabel, the external-memory adjacency records
// in islabel-extmem, and the artifact sections here).
/// Bytes of one at-rest label entry: ancestor `u32` + distance `u32`.
pub const LABEL_ENTRY_BYTES: usize = 8;
/// Bytes of one at-rest offset-table slot (`u64`).
pub const LABEL_OFFSET_BYTES: usize = 8;
/// Bytes of one `(vertex, weight, via)` adjacency triple (`3 × u32`):
/// peel-adjacency entries, `G_k` via annotations, and the external-memory
/// adjacency records all share it.
pub const EDGE_TRIPLE_BYTES: usize = 12;

/// Why a byte region is not a valid v5 artifact. Every decode failure is
/// one of these — opening corrupt input never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// The region is shorter than the fixed header + table.
    Truncated {
        /// Bytes required.
        need: u64,
        /// Bytes present.
        have: u64,
    },
    /// The magic bytes are not `ISLX`.
    BadMagic,
    /// The version field is not [`FORMAT_VERSION`].
    UnsupportedVersion(u32),
    /// The header CRC does not match the header + table bytes.
    HeaderChecksum,
    /// A fixed header field is out of its valid range.
    Header(&'static str),
    /// A section-table entry is structurally invalid.
    Section {
        /// The entry's kind field.
        kind: u32,
        /// What is wrong with it.
        reason: &'static str,
    },
    /// A section's bytes do not match the checksum in its table entry.
    SectionChecksum {
        /// The corrupted section's kind.
        kind: u32,
    },
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormatError::Truncated { need, have } => {
                write!(f, "artifact truncated: need {need} bytes, have {have}")
            }
            FormatError::BadMagic => write!(f, "bad magic (not an ISLX artifact)"),
            FormatError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported artifact version {v} (this build reads only version \
                     {FORMAT_VERSION}; rebuild the index from its graph with `islabel build`)"
                )
            }
            FormatError::HeaderChecksum => write!(f, "header checksum mismatch"),
            FormatError::Header(what) => write!(f, "corrupt header: {what}"),
            FormatError::Section { kind, reason } => {
                write!(f, "corrupt section table entry (kind {kind}): {reason}")
            }
            FormatError::SectionChecksum { kind } => {
                write!(f, "section checksum mismatch (kind {kind})")
            }
        }
    }
}

impl std::error::Error for FormatError {}

impl From<FormatError> for io::Error {
    fn from(e: FormatError) -> io::Error {
        let kind = match e {
            FormatError::Truncated { .. } => io::ErrorKind::UnexpectedEof,
            _ => io::ErrorKind::InvalidData,
        };
        io::Error::new(kind, e.to_string())
    }
}

// CRC-32 (IEEE 802.3), table computed at compile time. This is the one
// checksum implementation in the workspace: the WAL in islabel-core
// re-exports it, and the artifact header checksum uses it.
const fn crc_entry(mut c: u32) -> u32 {
    let mut k = 0;
    while k < 8 {
        c = if c & 1 != 0 {
            0xEDB8_8320 ^ (c >> 1)
        } else {
            c >> 1
        };
        k += 1;
    }
    c
}

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        // lint:allow(panic, const-eval index bounded by the `i < 256` loop — an overrun is a compile error, not a runtime panic)
        table[i] = crc_entry(i as u32);
        i += 1;
    }
    table
};

/// Streaming CRC-32 state, for checksumming a section as it is written.
#[derive(Debug, Clone)]
struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh state.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds `data` through the checksum.
    pub fn update(&mut self, data: &[u8]) {
        let mut c = self.state;
        for &b in data {
            let idx = ((c ^ b as u32) & 0xFF) as usize;
            // The table has 256 entries and the index is masked to 8 bits.
            c = CRC_TABLE.get(idx).copied().unwrap_or(0) ^ (c >> 8);
        }
        self.state = c;
    }

    /// Finishes and returns the checksum.
    pub fn finalize(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finalize()
}

// Section checksums use a 4-lane 64-bit word-folding checksum instead of
// CRC-32: table-driven CRC processes one byte per step (~hundreds of
// MB/s), which would make validate-on-open cost tens of milliseconds on a
// multi-megabyte artifact and erase the point of mmap-open. The lanes
// fold 8 input bytes each per step with an xor + odd-multiplier multiply
// (a bijection in the input word, so any single flipped bit changes the
// lane), interleaved so the four multiplies pipeline — several GB/s on
// one core. Not cryptographic; it detects corruption, not adversaries,
// exactly like the CRC it replaces. The definition below (little-endian
// words, zero-padded tail block, length folded into the finalizer) is
// frozen: it is part of the artifact format.
const CK64_MUL: u64 = 0x9E37_79B9_7F4A_7C15;
const CK64_SEEDS: [u64; 4] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];

#[inline]
fn ck64_mix(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(CK64_MUL).rotate_left(29)
}

#[inline]
fn ck64_word(chunk: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    for (dst, src) in w.iter_mut().zip(chunk) {
        *dst = *src;
    }
    u64::from_le_bytes(w)
}

#[inline]
fn ck64_absorb(lanes: &mut [u64; 4], block: &[u8]) {
    let mut words = block.chunks_exact(8);
    for lane in lanes.iter_mut() {
        *lane = ck64_mix(*lane, words.next().map_or(0, ck64_word));
    }
}

/// Streaming state of the 64-bit section checksum, for checksumming a
/// section as it is written. [`checksum64`] is the one-shot form; both
/// produce identical values for identical byte streams.
#[derive(Debug, Clone)]
pub struct Checksum64 {
    lanes: [u64; 4],
    /// Partial input block awaiting 32 buffered bytes.
    buf: [u8; 32],
    buffered: usize,
    /// Total bytes fed, folded into the finalizer so streams that differ
    /// only by trailing zero bytes do not collide.
    len: u64,
}

impl Default for Checksum64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Checksum64 {
    /// Fresh state.
    pub fn new() -> Self {
        Checksum64 {
            lanes: CK64_SEEDS,
            buf: [0u8; 32],
            buffered: 0,
            len: 0,
        }
    }

    /// Feeds `data` through the checksum.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buffered > 0 {
            let take = (32 - self.buffered).min(rest.len());
            if let Some((head, tail)) = rest.split_at_checked(take) {
                for (dst, src) in self.buf.iter_mut().skip(self.buffered).zip(head) {
                    *dst = *src;
                }
                self.buffered += take;
                rest = tail;
            }
            if self.buffered == 32 {
                let block = self.buf;
                ck64_absorb(&mut self.lanes, &block);
                self.buffered = 0;
            }
        }
        let mut blocks = rest.chunks_exact(32);
        for block in &mut blocks {
            ck64_absorb(&mut self.lanes, block);
        }
        // `rest` is nonempty only when the buffer drained above, so the
        // remainder always lands at the start of an empty buffer.
        let rem = blocks.remainder();
        for (dst, src) in self.buf.iter_mut().skip(self.buffered).zip(rem) {
            *dst = *src;
        }
        self.buffered += rem.len();
    }

    /// Finishes and returns the checksum.
    pub fn finalize(&self) -> u64 {
        let mut lanes = self.lanes;
        if self.buffered > 0 {
            // Zero-padded final block; the padding cannot alias real
            // trailing zeros because `len` enters the finalizer.
            let mut block = [0u8; 32];
            for (dst, src) in block.iter_mut().zip(self.buf.iter().take(self.buffered)) {
                *dst = *src;
            }
            ck64_absorb(&mut lanes, &block);
        }
        let mut h = self.len ^ CK64_MUL;
        for lane in lanes {
            h = (h.rotate_left(23) ^ lane).wrapping_mul(CK64_MUL);
        }
        h ^= h >> 32;
        h.wrapping_mul(CK64_MUL) ^ (h >> 29)
    }
}

/// One-shot 64-bit section checksum of `data` (see [`Checksum64`]).
pub fn checksum64(data: &[u8]) -> u64 {
    let mut c = Checksum64::new();
    c.update(data);
    c.finalize()
}

/// One section-table entry: where a section's bytes live and their
/// content checksum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionEntry {
    /// `SECTION_*` kind tag.
    pub kind: u32,
    /// Absolute byte offset in the file (8-aligned, ≥ [`DATA_START`]).
    pub offset: u64,
    /// Exact byte length (excludes inter-section padding).
    pub len: u64,
    /// [`checksum64`] over the section's `len` bytes.
    pub checksum: u64,
}

/// The decoded fixed header + section table of a v5 artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    /// Artifact-lineage epoch pairing the artifact with its WAL.
    pub epoch: u64,
    /// `FLAG_*` bits.
    pub flags: u32,
    /// Hierarchy depth `k`.
    pub k: u32,
    /// k-selection tag (0 sigma-threshold, 1 fixed-k, 2 full).
    pub ksel_tag: u32,
    /// k-selection parameter as `f64` bits.
    pub ksel_bits: u64,
    /// Vertex universe size `n`.
    pub n: u64,
    /// Number of `G_k` members (dense ids) `m`.
    pub dense_m: u64,
    /// Sealed dynamic-update records in [`SECTION_OPS`]; 0 = pristine.
    pub op_count: u64,
    /// The build's level cap.
    pub max_levels: u32,
    /// Independent-set strategy tag (0 min-degree greedy, 1 random,
    /// 2 max-degree greedy).
    pub is_tag: u32,
    /// The random strategy's seed; 0 for the others.
    pub is_seed: u64,
    /// Declared sections, in table order (offset-ascending).
    pub sections: Vec<SectionEntry>,
}

fn get_u32(data: &[u8], at: usize) -> Option<u32> {
    let b = data.get(at..at.checked_add(4)?)?;
    Some(u32::from_le_bytes([
        *b.first()?,
        *b.get(1)?,
        *b.get(2)?,
        *b.get(3)?,
    ]))
}

fn get_u64(data: &[u8], at: usize) -> Option<u64> {
    let lo = get_u32(data, at)? as u64;
    let hi = get_u32(data, at.checked_add(4)?)? as u64;
    Some(lo | (hi << 32))
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

impl Header {
    /// Encodes the fixed header + full 16-slot table ([`DATA_START`]
    /// bytes), computing the header checksum. `sections` beyond
    /// [`MAX_SECTIONS`] are ignored (the writer enforces the bound).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(DATA_START);
        out.extend_from_slice(&MAGIC);
        put_u32(&mut out, FORMAT_VERSION);
        put_u64(&mut out, self.epoch);
        put_u32(&mut out, self.flags);
        put_u32(&mut out, self.k);
        put_u32(&mut out, self.ksel_tag);
        put_u32(&mut out, self.sections.len().min(MAX_SECTIONS) as u32);
        put_u64(&mut out, self.ksel_bits);
        put_u64(&mut out, self.n);
        put_u64(&mut out, self.dense_m);
        put_u64(&mut out, self.op_count);
        put_u32(&mut out, 0); // header crc, patched below
        put_u32(&mut out, self.max_levels);
        put_u32(&mut out, self.is_tag);
        put_u32(&mut out, 0); // reserved
        put_u64(&mut out, self.is_seed);
        for s in self.sections.iter().take(MAX_SECTIONS) {
            put_u32(&mut out, s.kind);
            put_u32(&mut out, 0); // reserved
            put_u64(&mut out, s.offset);
            put_u64(&mut out, s.len);
            put_u64(&mut out, s.checksum);
        }
        out.resize(DATA_START, 0);
        let crc = crc32(&out);
        if let Some(slot) = out.get_mut(64..68) {
            slot.copy_from_slice(&crc.to_le_bytes());
        }
        out
    }

    /// Decodes and structurally validates the header + section table
    /// against a file of `file_len` total bytes: magic, version, header
    /// CRC, flag bits, and — for every declared section — kind range,
    /// kind uniqueness, 8-byte alignment, in-bounds extent, and ascending
    /// non-overlapping placement. Section *content* checksums are
    /// verified separately by [`validate_sections`] (they need the
    /// section bytes).
    pub fn decode(data: &[u8], file_len: u64) -> Result<Header, FormatError> {
        if data.len() < DATA_START {
            return Err(FormatError::Truncated {
                need: DATA_START as u64,
                have: data.len() as u64,
            });
        }
        if data.get(..4) != Some(MAGIC.as_slice()) {
            return Err(FormatError::BadMagic);
        }
        let version = get_u32(data, 4).unwrap_or(0);
        if version != FORMAT_VERSION {
            return Err(FormatError::UnsupportedVersion(version));
        }
        // Header checksum: the stored field zeroed, everything else exact.
        let stored_crc = get_u32(data, 64).unwrap_or(0);
        let mut crc = Crc32::new();
        crc.update(data.get(..64).unwrap_or(&[]));
        crc.update(&[0, 0, 0, 0]);
        crc.update(data.get(68..DATA_START).unwrap_or(&[]));
        if crc.finalize() != stored_crc {
            return Err(FormatError::HeaderChecksum);
        }

        let flags = get_u32(data, 16).unwrap_or(0);
        if flags & !FLAG_MASK != 0 {
            return Err(FormatError::Header("unknown flag bits"));
        }
        let section_count = get_u32(data, 28).unwrap_or(0) as usize;
        if section_count > MAX_SECTIONS {
            return Err(FormatError::Header("section count exceeds table"));
        }
        let header = Header {
            epoch: get_u64(data, 8).unwrap_or(0),
            flags,
            k: get_u32(data, 20).unwrap_or(0),
            ksel_tag: get_u32(data, 24).unwrap_or(0),
            ksel_bits: get_u64(data, 32).unwrap_or(0),
            n: get_u64(data, 40).unwrap_or(0),
            dense_m: get_u64(data, 48).unwrap_or(0),
            op_count: get_u64(data, 56).unwrap_or(0),
            max_levels: get_u32(data, 68).unwrap_or(0),
            is_tag: get_u32(data, 72).unwrap_or(0),
            is_seed: get_u64(data, 80).unwrap_or(0),
            sections: Self::decode_table(data, section_count, file_len)?,
        };
        Ok(header)
    }

    fn decode_table(
        data: &[u8],
        count: usize,
        file_len: u64,
    ) -> Result<Vec<SectionEntry>, FormatError> {
        let mut sections = Vec::with_capacity(count);
        let mut prev_end = DATA_START as u64;
        let mut seen = [false; SECTION_KIND_MAX as usize + 1];
        for slot in 0..MAX_SECTIONS {
            let base = HEADER_BYTES + slot * TABLE_ENTRY_BYTES;
            let kind = get_u32(data, base).unwrap_or(0);
            let offset = get_u64(data, base + 8).unwrap_or(0);
            let len = get_u64(data, base + 16).unwrap_or(0);
            let checksum = get_u64(data, base + 24).unwrap_or(0);
            if slot >= count {
                // Unused slots must be fully zeroed: a nonzero stray slot
                // means the count field and the table disagree.
                if kind != 0 || offset != 0 || len != 0 || checksum != 0 {
                    return Err(FormatError::Header("nonzero section slot past count"));
                }
                continue;
            }
            if kind == 0 || kind > SECTION_KIND_MAX {
                return Err(FormatError::Section {
                    kind,
                    reason: "unknown section kind",
                });
            }
            if kind == SECTION_LABEL_HOPS {
                return Err(FormatError::Section {
                    kind,
                    reason: "reserved section kind",
                });
            }
            let seen_slot = seen.get_mut(kind as usize);
            match seen_slot {
                Some(s) if !*s => *s = true,
                _ => {
                    return Err(FormatError::Section {
                        kind,
                        reason: "duplicate section kind",
                    })
                }
            }
            if !offset.is_multiple_of(SECTION_ALIGN as u64) {
                return Err(FormatError::Section {
                    kind,
                    reason: "offset not 8-byte aligned",
                });
            }
            if offset < prev_end {
                return Err(FormatError::Section {
                    kind,
                    reason: "sections out of order or overlapping",
                });
            }
            let end = offset.checked_add(len).ok_or(FormatError::Section {
                kind,
                reason: "offset + len overflows",
            })?;
            if end > file_len {
                return Err(FormatError::Section {
                    kind,
                    reason: "extends past end of file",
                });
            }
            prev_end = end;
            sections.push(SectionEntry {
                kind,
                offset,
                len,
                checksum,
            });
        }
        Ok(sections)
    }

    /// The table entry for `kind`, if the artifact has that section.
    pub fn section(&self, kind: u32) -> Option<&SectionEntry> {
        self.sections.iter().find(|s| s.kind == kind)
    }
}

/// Artifacts at least this large verify section checksums on scoped
/// threads, one per section; smaller ones stay single-threaded (thread
/// spawn costs more than the checksums).
const PARALLEL_VERIFY_BYTES: usize = 2 << 20;

/// Verifies every declared section's content checksum against the file
/// bytes. `data` must be the whole file (header included). This is the
/// O(file) half of validate-on-open; [`Header::decode`] is the O(1) half.
pub fn validate_sections(header: &Header, data: &[u8]) -> Result<(), FormatError> {
    let mut work = Vec::with_capacity(header.sections.len());
    for s in &header.sections {
        let lo = s.offset as usize;
        let hi = lo.saturating_add(s.len as usize);
        let bytes = data.get(lo..hi).ok_or(FormatError::Section {
            kind: s.kind,
            reason: "extends past end of file",
        })?;
        work.push((s.kind, s.checksum, bytes));
    }
    if data.len() >= PARALLEL_VERIFY_BYTES && work.len() > 1 {
        return std::thread::scope(|scope| {
            let handles: Vec<_> = work
                .iter()
                .map(|&(kind, want, bytes)| (kind, scope.spawn(move || checksum64(bytes) == want)))
                .collect();
            for (kind, handle) in handles {
                // A worker cannot panic (checksum64 is panic-free), but a
                // failed join must still degrade to an error, not a panic.
                if !handle.join().unwrap_or(false) {
                    return Err(FormatError::SectionChecksum { kind });
                }
            }
            Ok(())
        });
    }
    for (kind, want, bytes) in work {
        if checksum64(bytes) != want {
            return Err(FormatError::SectionChecksum { kind });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> Header {
        Header {
            epoch: 7,
            flags: FLAG_KEEP_PATH_INFO,
            k: 4,
            ksel_tag: 0,
            ksel_bits: 0.875f64.to_bits(),
            n: 100,
            dense_m: 10,
            op_count: 0,
            max_levels: 4,
            is_tag: 1,
            is_seed: 7,
            sections: vec![
                SectionEntry {
                    kind: SECTION_LEVELS,
                    offset: DATA_START as u64,
                    len: 400,
                    checksum: checksum64(&[0u8; 400]),
                },
                SectionEntry {
                    kind: SECTION_LABEL_OFFSETS,
                    offset: DATA_START as u64 + 400,
                    len: 808,
                    checksum: checksum64(&[0u8; 808]),
                },
            ],
        }
    }

    fn encode_file(h: &Header) -> Vec<u8> {
        let mut buf = h.encode();
        buf.resize(DATA_START + 400 + 808, 0);
        buf
    }

    #[test]
    fn header_roundtrip() {
        let h = sample_header();
        let buf = encode_file(&h);
        let d = Header::decode(&buf, buf.len() as u64).unwrap();
        assert_eq!(d, h);
        validate_sections(&d, &buf).unwrap();
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The standard IEEE check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        let mut s = Crc32::new();
        s.update(b"1234");
        s.update(b"56789");
        assert_eq!(s.finalize(), 0xCBF4_3926);
    }

    #[test]
    fn rejects_bad_magic_version_and_crc() {
        let h = sample_header();
        let good = encode_file(&h);

        let mut bad = good.clone();
        bad[0] = b'X';
        assert_eq!(
            Header::decode(&bad, bad.len() as u64),
            Err(FormatError::BadMagic)
        );

        let mut bad = good.clone();
        bad[4] = 9;
        assert!(matches!(
            Header::decode(&bad, bad.len() as u64),
            Err(FormatError::UnsupportedVersion(9))
        ));

        let mut bad = good.clone();
        bad[40] ^= 1; // n field: covered by the header crc
        assert_eq!(
            Header::decode(&bad, bad.len() as u64),
            Err(FormatError::HeaderChecksum)
        );

        assert!(matches!(
            Header::decode(&good[..10], good.len() as u64),
            Err(FormatError::Truncated { .. })
        ));
    }

    #[test]
    fn rejects_bad_section_tables() {
        let mut h = sample_header();
        h.sections[1].offset = DATA_START as u64 + 4; // misaligned
        let buf = encode_file(&h);
        assert!(matches!(
            Header::decode(&buf, buf.len() as u64),
            Err(FormatError::Section { .. })
        ));

        let mut h = sample_header();
        h.sections[1].kind = SECTION_LABEL_HOPS; // version 4's first hops
        let buf = encode_file(&h);
        assert!(matches!(
            Header::decode(&buf, buf.len() as u64),
            Err(FormatError::Section {
                kind: SECTION_LABEL_HOPS,
                reason: "reserved section kind",
            })
        ));

        let mut h = sample_header();
        h.sections[1].kind = SECTION_LEVELS; // duplicate
        let buf = encode_file(&h);
        assert!(matches!(
            Header::decode(&buf, buf.len() as u64),
            Err(FormatError::Section {
                reason: "duplicate section kind",
                ..
            })
        ));

        let h = sample_header();
        let buf = h.encode(); // no section bytes at all
        assert!(matches!(
            Header::decode(&buf, buf.len() as u64),
            Err(FormatError::Section {
                reason: "extends past end of file",
                ..
            })
        ));
    }

    #[test]
    fn section_checksums_catch_flips() {
        let h = sample_header();
        let mut buf = encode_file(&h);
        let d = Header::decode(&buf, buf.len() as u64).unwrap();
        buf[DATA_START + 3] ^= 0x40;
        assert_eq!(
            validate_sections(&d, &buf),
            Err(FormatError::SectionChecksum {
                kind: SECTION_LEVELS
            })
        );
    }
}
