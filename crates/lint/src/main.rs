#![forbid(unsafe_code)]

//! CLI entry point: `cargo run -p islabel-lint -- [--root DIR]`.
//!
//! Finds `lint.toml` by walking up from the current directory (or uses
//! `--root`), runs every rule, prints one `file:line: [rule] message`
//! diagnostic per finding, and exits nonzero when anything is reported —
//! which is what makes it usable as a blocking CI job.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut root: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--root requires a directory argument");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!(
                    "islabel-lint: workspace invariant checker\n\
                     \n\
                     USAGE:\n\
                     \x20   cargo run -p islabel-lint -- [--root DIR]\n\
                     \n\
                     Reads <root>/lint.toml (found by walking up from the current\n\
                     directory unless --root is given), checks the panic-free,\n\
                     alloc-free, ordering, unsafe-hygiene, wire-registry and\n\
                     dead-pub rules,\n\
                     and prints one 'file:line: [rule] message' line per finding.\n\
                     \n\
                     EXIT CODES:\n\
                     \x20   0  no findings\n\
                     \x20   1  findings reported, or the analyzer itself failed\n\
                     \n\
                     See the README section \"Static analysis\" for the rule table."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other} (try --help)");
                return ExitCode::FAILURE;
            }
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("cannot determine current directory: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match islabel_lint::find_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "no lint.toml found walking up from {}; run from inside the \
                         repo or pass --root",
                        cwd.display()
                    );
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    let cfg = match islabel_lint::LintConfig::load(&root) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("lint.toml: {e}");
            return ExitCode::FAILURE;
        }
    };

    match islabel_lint::run(&root, &cfg) {
        Ok(findings) if findings.is_empty() => {
            println!("islabel-lint: 0 findings");
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for f in &findings {
                println!("{f}");
            }
            println!("islabel-lint: {} finding(s)", findings.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("islabel-lint: {e}");
            ExitCode::FAILURE
        }
    }
}
