#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

//! # islabel-benchmark
//!
//! The repo benchmark behind `BENCHMARK.json`: five named workloads, each
//! run in its own process by one command that prints every metric by name
//! and unit and verifies answers; a second, traced run of the same command
//! records spans around the calls into each layer's public functions and
//! derives the per-layer budget from them. `benchmark/README.md` has the
//! tables: why each workload exists, which layer it isolates, and which
//! end-to-end metric each per-layer metric should move.
//!
//! The package sits outside the root workspace (its manifest carries an
//! empty `[workspace]` table) and instruments no library code: everything
//! is measured from outside, through public items.

pub mod aa;
pub mod cli;
pub mod env;
pub mod json;
pub mod opgen;
pub mod passes;
pub mod plan;
pub mod probes;
pub mod run;
pub mod stats;
pub mod tempdir;
pub mod trace;
pub mod verify;
