#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

//! # islabel-extmem
//!
//! External-memory substrate for the IS-LABEL reproduction.
//!
//! Section 6 of the paper designs I/O-efficient index-construction
//! algorithms in the scan/sort model of Aggarwal–Vitter:
//! `scan(N) = Θ(N/B)` and `sort(N) = Θ((N/B) log_{M/B}(N/B))`, where `M` is
//! main-memory size and `B` the disk block size. This crate supplies the
//! machinery those algorithms run on:
//!
//! * [`storage`] — a named byte-stream store with two backends (in-memory
//!   for deterministic tests, directory-backed for real disk runs), every
//!   byte accounted.
//! * [`iostats`] — shared I/O counters plus the block/latency cost model
//!   used to report modeled I/O time the way the paper attributes ~10 ms to
//!   each label fetch.
//! * [`extsort`] — external merge sort (run generation under a memory
//!   budget, k-way merge) over length-delimited records.
//! * [`diskgraph`] — an adjacency-list graph file scanned strictly
//!   sequentially, the on-disk input/output format of Algorithms 2 and 3.

pub mod diskgraph;
pub mod extsort;
pub mod iostats;
pub mod storage;

#[cfg(test)]
#[path = "../../core/src/testdir.rs"]
mod testdir;

pub use diskgraph::{AdjRecord, DiskGraph};
pub use extsort::{external_sort, ExtRecord, RecordReader, RecordWriter};
pub use iostats::{IoCostModel, IoSnapshot, IoStats};
pub use storage::{DirStorage, MemStorage, Storage, StorageHandle};
