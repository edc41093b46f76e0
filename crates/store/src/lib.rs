//! # islabel-store — memory-mapped, zero-copy index artifacts
//!
//! The v5 flat `.islx` container: a fixed header + section table followed
//! by 8-byte-aligned little-endian sections, designed so a server opens
//! an index by mapping the file and validating it — O(1) in index size —
//! instead of deserializing every label into heap `Vec`s.
//!
//! This crate is deliberately **dependency-free** and graph-agnostic: it
//! knows bytes, sections, and checksums, not labels or hierarchies. It
//! sits *below* `islabel-core` in the workspace graph, which is what lets
//! it be the single source of truth for on-disk record layouts shared by
//! the core persist layer, the external-memory crates, and the CLI —
//! and what lets `islabel-core` stay `forbid(unsafe_code)` while the one
//! `unsafe` module in the workspace ([`mmap`]) lives here behind a safe
//! API.
//!
//! - [`mod@format`] — constants, header/section-table codec, CRC-32 (header)
//!   plus the 64-bit section content checksum, validate-on-open checks,
//!   shared record-layout constants. Panic-free zone: decoding untrusted
//!   bytes returns typed errors.
//! - [`mmap`] — the `// SAFETY:`-documented mapping shim (read-only
//!   private mapping with an aligned-heap fallback).
//! - [`writer`] / [`reader`] — streaming [`StoreWriter`] and validating
//!   [`StoreReader`].
//!
//! The byte layout is documented in the workspace README ("On-disk index
//! format") and wire-frozen via `docs/wire_registry.toml`.

pub mod format;
pub mod mmap;
pub mod reader;
pub mod writer;

#[cfg(test)]
#[path = "../../core/src/testdir.rs"]
mod testdir;

pub use format::{FormatError, Header, SectionEntry};
pub use mmap::MappedFile;
pub use reader::StoreReader;
pub use writer::{ArtifactMeta, StoreWriter};
