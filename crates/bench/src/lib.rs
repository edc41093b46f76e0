#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

//! # islabel-bench
//!
//! Experiment harness reproducing the IS-LABEL paper's evaluation
//! (Section 7): one runner per table, shared workload generation, timing
//! utilities and an ASCII table renderer.
//!
//! One binary, `paper [--scale tiny|small|medium|large] [--table NAME]`,
//! prints every table in the order below at `small` scale by default, or
//! the one named:
//!
//! | `NAME` | reproduces |
//! |--------|------------|
//! | `table2` | Table 2 — dataset statistics |
//! | `table3` | Table 3 — index construction, σ = 0.95 |
//! | `table4` | Table 4 — query time split Time (a) / Time (b) |
//! | `table5` | Table 5 — query time by query type |
//! | `table6` | Table 6 — sweep over k |
//! | `table7` | Table 7 — construction and querying at σ = 0.90 |
//! | `table8` | Table 8 — IS-LABEL vs IM-ISL vs VC-Index(P2P) vs IM-DIJ |
//! | `table9` | Table 9 — VC-Index construction costs |
//! | `engine_matrix` | every `DistanceOracle` engine via the registry |
//! | `ablation_strategy` | independent-set strategy ablation |
//! | `ablation_sigma` | σ sweep ablation |
//! | `ablation_twohop` | 2-hop (PLL) construction-cost curve |
//! | `ablation_parallel` | query throughput vs worker threads |
//!
//! The tables reproduce the paper. Performance claims about this
//! repository are made with the repo benchmark instead (`BENCHMARK.json`,
//! `benchmark/`), which borrows [`QueryWorkload`] and
//! [`timing::percentile_us`] from here
//! (`docs/adr/0007-one-format-one-harness.md`).

pub mod experiments;
pub mod table;
pub mod timing;
pub mod workload;

pub use table::Table;
pub use workload::QueryWorkload;
