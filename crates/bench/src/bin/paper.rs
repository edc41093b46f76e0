//! Reproduces the paper's evaluation (Section 7):
//!
//! ```text
//! paper [--scale tiny|small|medium|large] [--table NAME]
//! ```
//!
//! prints every table at `small` scale by default, or the one named
//! (`table2` … `table9`, `engine_matrix`, `ablation_*`).

use islabel_bench::experiments as ex;
use islabel_bench::Table;
use islabel_graph::Scale;
use std::process::ExitCode;

/// A table's runner.
type Runner = fn(Scale) -> Table;

/// Every table, in print order.
const TABLES: [(&str, Runner); 13] = [
    ("table2", ex::table2),
    ("table3", ex::table3),
    ("table4", ex::table4),
    ("table5", ex::table5),
    ("table6", ex::table6),
    ("table7", ex::table7),
    ("table8", ex::table8),
    ("table9", ex::table9),
    ("engine_matrix", ex::engine_matrix),
    ("ablation_strategy", ex::ablation_strategy),
    ("ablation_sigma", ex::ablation_sigma),
    ("ablation_twohop", |_| ex::ablation_twohop()),
    ("ablation_parallel", ex::ablation_parallel),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (scale, table) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("paper: {e}");
            return ExitCode::from(2);
        }
    };
    if table.is_none() {
        println!("IS-LABEL experiment suite  (scale = {scale:?})\n");
        println!("Figures 1-3 are worked examples; they are verified bit-exactly by");
        println!("`cargo test -p islabel-core paper_example` (hierarchy, labels, queries).\n");
    }
    for (name, run) in TABLES {
        if table.is_none_or(|t| t == name) {
            println!("{}", run(scale));
        }
    }
    ExitCode::SUCCESS
}

/// The scale and the one table asked for (`None`: every table).
fn parse(args: &[String]) -> Result<(Scale, Option<&str>), String> {
    let (mut scale, mut table) = (Scale::Small, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match (flag.as_str(), it.next()) {
            ("--scale", Some(value)) => scale = value.parse()?,
            ("--table", Some(value)) if TABLES.iter().any(|(name, _)| name == value) => {
                table = Some(value.as_str())
            }
            ("--table", Some(value)) => {
                let names = TABLES.map(|(name, _)| name).join("|");
                return Err(format!("unknown table '{value}' ({names})"));
            }
            _ => {
                return Err(format!(
                    "bad argument '{flag}' (usage: paper [--scale tiny|small|medium|large] [--table NAME])"
                ))
            }
        }
    }
    Ok((scale, table))
}
