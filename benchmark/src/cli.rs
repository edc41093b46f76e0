//! Command line of `islabel_benchmark`.
//!
//! ```text
//! islabel_benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!                   [--smoke] [--out PATH]
//! islabel_benchmark [--workload all] ...     every workload, untraced then traced
//! islabel_benchmark --aa ...                 the untraced suite twice, compared
//! ```
//!
//! One workload runs in this process; the suite and the A/A comparison
//! start one child process per workload run, so no run inherits another's
//! heap, page cache warmth or peak RSS. The last line a single-workload
//! run prints on stdout is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; everything before it
//! is for people.

use crate::json::{self, Value};
use crate::plan::Kind;
use crate::run::{self, Options, Outcome};
use std::path::PathBuf;
use std::process::{Command, Stdio};

const USAGE: &str = "usage: islabel_benchmark [--workload <build|query-labels|query-search|remote-rpc|update-mix|all>] \
[--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out PATH] [--aa]";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// `None` = every workload.
    pub workload: Option<Kind>,
    /// Seed of the query pairs and update ops (default 42).
    pub seed: u64,
    /// Timed-phase length; default 10 s (0.3 s with `--smoke`).
    pub seconds: Option<f64>,
    /// `Some(false)` end-to-end run, `Some(true)` traced run, `None` =
    /// not given (one workload: end-to-end; the suite: both).
    pub trace: Option<bool>,
    /// Sizes ÷100.
    pub smoke: bool,
    /// Result file of a single-workload run.
    pub out: Option<PathBuf>,
    /// Run the untraced suite twice and compare against the bounds.
    pub aa: bool,
    /// Test hook (not in the usage line): corrupt one answer so the
    /// correctness gate must fail the run.
    pub inject_fault: bool,
}

/// Parses the arguments after the program name.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 42,
        seconds: None,
        trace: None,
        smoke: false,
        out: None,
        aa: false,
        inject_fault: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                parsed.workload = match name.as_str() {
                    "all" => None,
                    other => Some(Kind::parse(other).ok_or(format!("unknown workload '{other}'"))?),
                };
            }
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                parsed.seconds = Some(s);
            }
            // `--trace 1`, `--trace 0`, or a bare `--trace`.
            "--trace" => {
                parsed.trace = Some(match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                });
            }
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = Some(PathBuf::from(value("--out")?)),
            "--aa" => parsed.aa = true,
            "--inject-fault" => parsed.inject_fault = true,
            "-h" | "--help" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(parsed)
}

/// Result files, traces and scratch directories live under the build
/// directory, which `.gitignore` already covers.
fn out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("benchmark")
}

fn print_outcome(kind: Kind, outcome: &Outcome) {
    println!("workload {}: {}", kind.name(), kind.why());
    for m in &outcome.metrics {
        let spread = m.spread.map_or(String::new(), |s| {
            format!("  (spread across replays {:.2} %)", s * 100.0)
        });
        println!("  {:<42} {:>16.4} {}{}", m.name, m.value, m.unit, spread);
    }
    println!(
        "  answers_checksum {}  attempted {}  failed {}  result file {}",
        outcome.answers_checksum,
        outcome.attempted,
        outcome.failed,
        outcome.result_path.display()
    );
    println!("{}", outcome.result_line());
}

/// Entry point; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let args = match parse_args(args) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };
    let result = match (args.aa, args.workload) {
        (true, _) => crate::aa::run(&args),
        (false, Some(kind)) => single(kind, &args),
        (false, None) => suite(&args),
    };
    match result {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(msg) => {
            eprintln!("islabel_benchmark: {msg}");
            1
        }
    }
}

fn single(kind: Kind, args: &Args) -> Result<bool, String> {
    let opts = Options {
        kind,
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.smoke { 0.3 } else { 10.0 }),
        trace: args.trace.unwrap_or(false),
        smoke: args.smoke,
        inject_fault: args.inject_fault,
        out_dir: out_dir(),
        out: args.out.clone(),
    };
    let outcome = run::run(&opts)?;
    print_outcome(kind, &outcome);
    Ok(outcome.correct)
}

/// Every workload, each run in its own process: untraced, then traced
/// (or only the mode `--trace` names).
fn suite(args: &Args) -> Result<bool, String> {
    let modes = match args.trace {
        Some(mode) => vec![mode],
        None => vec![false, true],
    };
    let mut all_correct = true;
    for kind in Kind::ALL {
        for &trace in &modes {
            let line = run_child(kind, trace, args, true)?;
            all_correct &= line.get("correct").and_then(Value::as_bool) == Some(true);
        }
    }
    println!(
        "suite: {}",
        if all_correct {
            "every workload correct"
        } else {
            "FAILED"
        }
    );
    Ok(all_correct)
}

/// Runs one workload in a child process and returns its parsed result
/// line. `echo` passes the child's human-readable lines through.
pub fn run_child(kind: Kind, trace: bool, args: &Args, echo: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", kind.name(), "--seed", &args.seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    if args.inject_fault {
        cmd.arg("--inject-fault");
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("start {} run: {e}", kind.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    if echo {
        for line in stdout.lines().filter(|&l| l != last) {
            println!("{line}");
        }
    }
    // A failed gate exits nonzero but still prints its result line.
    json::parse(last).map_err(|e| {
        format!(
            "{} run ({}) printed no result line: {e}",
            kind.name(),
            output.status
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn the_driver_invocation_parses() {
        let a = parse("--workload remote-rpc --seed 7 --seconds 10 --trace 0").unwrap();
        assert_eq!(a.workload, Some(Kind::RemoteRpc));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(10.0), Some(false)));
        let b = parse("--workload build --seed 1 --seconds 10 --trace 1").unwrap();
        assert_eq!(b.trace, Some(true));
    }

    #[test]
    fn defaults_and_bare_trace() {
        let a = parse("").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.trace, a.smoke, a.aa),
            (None, 42, None, false, false)
        );
        let b = parse("--trace --smoke --workload all --out x.json").unwrap();
        assert_eq!((b.trace, b.smoke, b.workload), (Some(true), true, None));
        assert_eq!(b.out, Some(PathBuf::from("x.json")));
    }

    #[test]
    fn malformed_arguments_are_refused() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--seconds -1",
            "--seed",
            "--frobnicate",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
