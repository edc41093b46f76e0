//! Runs all five workloads in smoke mode through the real binary, untraced
//! and traced, and holds what they print to `BENCHMARK.json`.

use islabel_benchmark::json::{self, Value};
use islabel_benchmark::plan::{Kind, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits one level below the repository root")
        .to_path_buf()
}

/// Runs the benchmark binary from the repository root, with its output
/// directory inside cargo's per-test scratch space.
fn benchmark(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_islabel_benchmark"))
        .args(args)
        .current_dir(repo_root())
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("start islabel_benchmark")
}

fn result_line(output: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().expect("the run printed nothing");
    json::parse(last).unwrap_or_else(|e| panic!("last stdout line is not JSON ({e}): {last}"))
}

fn declared() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("{key} list"))
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("string {key}"))
}

fn well_formed_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

#[test]
fn benchmark_json_matches_the_harness_catalogue() {
    let doc = declared();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let workloads: Vec<(&str, &str)> = entries(&doc, "workloads")
        .iter()
        .map(|w| {
            assert_eq!(keys(w), ["name", "why"]);
            (text(w, "name"), text(w, "why"))
        })
        .collect();
    let expected: Vec<(&str, &str)> = Kind::ALL.iter().map(|k| (k.name(), k.why())).collect();
    assert_eq!(workloads, expected, "workload names and reasons");

    let e2e = entries(&doc, "end_to_end");
    let layers = entries(&doc, "per_layer");
    assert!(e2e.len() <= 16 && layers.len() <= 128);
    let pairs = |list: &[Value]| -> Vec<(String, String)> {
        list.iter()
            .map(|m| (text(m, "name").to_string(), text(m, "unit").to_string()))
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(pairs(e2e), own(END_TO_END));
    assert_eq!(pairs(layers), own(PER_LAYER));
    for m in e2e {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        assert!(well_formed_name(text(m, "name")));
        let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(
            bound > 0.0 && bound <= 0.25,
            "{}: bound {bound}",
            text(m, "name")
        );
        assert!(["lower", "higher"].contains(&text(m, "better")));
    }
    for m in layers {
        assert_eq!(keys(m), ["name", "unit", "better"]);
        assert!(well_formed_name(text(m, "name")));
    }
    let setup = e2e
        .iter()
        .find(|m| text(m, "name") == "setup_s")
        .expect("setup_s");
    assert_eq!((text(setup, "unit"), text(setup, "better")), ("s", "lower"));
    let seconds = doc
        .get("run_seconds")
        .and_then(Value::as_f64)
        .expect("run_seconds");
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
    let paths: Vec<&str> = entries(&doc, "paths")
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
    assert!(entries(&doc, "command").len() <= 32);
}

#[test]
fn every_workload_reports_every_declared_metric_in_both_modes() {
    let doc = declared();
    for kind in Kind::ALL {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let output = benchmark(&[
                "--workload",
                kind.name(),
                "--smoke",
                "--seed",
                "3",
                "--trace",
                trace,
            ]);
            let what = format!("{} --trace {trace}", kind.name());
            assert!(
                output.status.success(),
                "{what} failed:\n{}",
                String::from_utf8_lossy(&output.stderr)
            );
            let line = result_line(&output);
            assert_eq!(
                keys(&line),
                ["correct", "attempted", "failed", "metrics"],
                "{what}"
            );
            assert_eq!(
                line.get("correct").and_then(Value::as_bool),
                Some(true),
                "{what}"
            );
            assert_eq!(
                line.get("failed").and_then(Value::as_f64),
                Some(0.0),
                "{what}"
            );
            assert!(
                line.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0,
                "{what}"
            );
            let metrics = line.get("metrics").expect("metrics");
            let declared = entries(&doc, list);
            assert_eq!(
                keys(metrics).len(),
                declared.len(),
                "{what}: exactly the declared metrics"
            );
            for m in declared {
                let name = text(m, "name");
                let got = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{what}: no {name}"));
                assert_eq!(keys(got), ["value", "unit"], "{what}: {name}");
                assert_eq!(text(got, "unit"), text(m, "unit"), "{what}: {name}");
                let value = got.get("value").and_then(Value::as_f64);
                let value = value.unwrap_or_else(|| panic!("{what}: {name} is not a number"));
                assert!(value.is_finite(), "{what}: {name}");
                if list == "end_to_end" {
                    assert!(value > 0.0, "{what}: end-to-end {name} must never be 0");
                }
            }
        }
    }
}

#[test]
fn checksum_repeats_for_a_seed_and_moves_with_it() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let checksum = |seed: &str, file: &str| -> String {
        let out = dir.join(file);
        let output = benchmark(&[
            "--workload",
            "update-mix",
            "--smoke",
            "--seed",
            seed,
            "--out",
            out.to_str().unwrap(),
        ]);
        assert!(output.status.success());
        let doc = json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
        // The result file also carries the fingerprint and the spreads.
        assert!(doc
            .get("environment")
            .and_then(|e| e.get("rustc"))
            .is_some());
        assert!(doc
            .get("metrics")
            .and_then(|m| m.get("latency_p50_us.spread"))
            .is_some());
        text(&doc, "answers_checksum").to_string()
    };
    let a = checksum("11", "checksum-a.json");
    let b = checksum("11", "checksum-b.json");
    let c = checksum("12", "checksum-c.json");
    assert_eq!(a, b, "same seed, same answers");
    assert_ne!(a, c, "another seed draws other pairs and ops");
}

#[test]
fn a_corrupted_answer_fails_the_run() {
    for kind in [Kind::QuerySearch, Kind::UpdateMix] {
        let output = benchmark(&["--workload", kind.name(), "--smoke", "--inject-fault"]);
        assert!(
            !output.status.success(),
            "{}: the gate must fail the run",
            kind.name()
        );
        let line = result_line(&output);
        assert_eq!(line.get("correct").and_then(Value::as_bool), Some(false));
        assert!(line.get("failed").and_then(Value::as_f64).unwrap() >= 1.0);
    }
}
