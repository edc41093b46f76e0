#![forbid(unsafe_code)]

//! `islabel` — command-line interface to the IS-LABEL index.
//!
//! ```text
//! islabel gen <dataset> [--scale S] [-o graph.isgb]       generate a stand-in dataset
//! islabel convert <in> <out>                              edge-list <-> binary graph
//! islabel build <graph> -o index.islx [options]           build and persist an index
//! islabel query <index.islx> <s> <t> [--path]             one query
//! islabel bench <index.islx> [--queries N] [--seed S]     random-query benchmark
//! islabel serve <index.islx> [--shards N] [--smoke]       closed-loop serving workload
//! islabel serve <index.islx> --listen ADDR                TCP wire-protocol server
//! islabel remote-query <addr> [s t] [--stats|--shutdown]  client of a --listen server
//! islabel stats <index.islx|graph>                        artifact statistics
//! ```
//!
//! Graphs are read as edge lists (`.txt`, see `islabel_graph::io`) or binary
//! CSR snapshots (`.isgb`); indexes are the self-contained `.islx` artifact
//! of `islabel_core::persist`. Argument parsing is deliberately dependency-
//! free.

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut stdout = std::io::stdout().lock();
    match commands::dispatch(&argv, &mut commands::Out::new(&mut stdout)) {
        Ok(()) => ExitCode::SUCCESS,
        // The reader closed the pipe: it has all the output it wants.
        Err(commands::CliError::Stdout(e)) if e.kind() == std::io::ErrorKind::BrokenPipe => {
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
