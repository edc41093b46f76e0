//! `--aa`: the same code measured twice, back to back, and held to the
//! benchmark's own regression bounds — the evidence that the bounds are
//! wider than the noise, and the first entry of the trajectory.
//!
//! The second pass runs the workloads in reverse order, so a drift that
//! follows run order (thermal state, page cache) cannot hide behind a
//! fixed sequence.

use crate::cli::{run_child, Args};
use crate::json::{self, Value};
use crate::plan::Kind;

/// `name → bound` of the end-to-end metrics declared in `BENCHMARK.json`
/// (looked up in the working directory, the repository root).
fn declared_bounds() -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json from the working directory: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    doc.get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| "end_to_end entry without name and bound".to_string())
        })
        .collect()
}

fn metric(line: &Value, name: &str) -> Option<f64> {
    line.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// One compared pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Pairing {
    /// Workload name.
    pub workload: &'static str,
    /// Metric name.
    pub metric: String,
    /// First run's value.
    pub a: f64,
    /// Second run's value.
    pub b: f64,
    /// `|b - a| / |a|`.
    pub diff: f64,
    /// The declared bound.
    pub bound: f64,
}

impl Pairing {
    /// Whether the two runs agree within the bound.
    pub fn within(&self) -> bool {
        self.diff <= self.bound
    }
}

/// Compares two result lines of one workload, metric by metric.
pub fn compare(
    workload: &'static str,
    a: &Value,
    b: &Value,
    bounds: &[(String, f64)],
) -> Result<Vec<Pairing>, String> {
    bounds
        .iter()
        .map(|(name, bound)| {
            let (va, vb) = metric(a, name)
                .zip(metric(b, name))
                .ok_or(format!("{workload}: a run did not report {name}"))?;
            Ok(Pairing {
                workload,
                metric: name.clone(),
                a: va,
                b: vb,
                diff: (vb - va).abs() / va.abs().max(f64::MIN_POSITIVE),
                bound: *bound,
            })
        })
        .collect()
}

/// Runs the untraced suite twice and prints every pairing; `Ok(true)`
/// when every pair is within its bound and every run was correct.
pub fn run(args: &Args) -> Result<bool, String> {
    let bounds = declared_bounds()?;
    let kinds: Vec<Kind> = args.workload.map_or(Kind::ALL.to_vec(), |k| vec![k]);
    let pass = |order: &[Kind]| -> Result<Vec<(Kind, Value)>, String> {
        order
            .iter()
            .map(|&k| Ok((k, run_child(k, false, args, false)?)))
            .collect()
    };
    let first = pass(&kinds)?;
    let reversed: Vec<Kind> = kinds.iter().rev().copied().collect();
    let second = pass(&reversed)?;

    let mut ok = true;
    println!(
        "{:<13} {:<26} {:>16} {:>16} {:>8} {:>7}",
        "workload", "metric", "run A", "run B", "diff %", "bound %"
    );
    for (kind, a) in &first {
        let b = &second
            .iter()
            .find(|(k, _)| k == kind)
            .ok_or("second pass lost a workload")?
            .1;
        for line in [a, b] {
            ok &= line.get("correct").and_then(Value::as_bool) == Some(true);
        }
        for p in compare(kind.name(), a, b, &bounds)? {
            println!(
                "{:<13} {:<26} {:>16.4} {:>16.4} {:>8.2} {:>7.0}{}",
                p.workload,
                p.metric,
                p.a,
                p.b,
                p.diff * 100.0,
                p.bound * 100.0,
                if p.within() { "" } else { "  OUTSIDE" }
            );
            ok &= p.within();
        }
    }
    println!(
        "A/A: {}",
        if ok {
            "every pair within its bound"
        } else {
            "FAILED"
        }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(latency: f64) -> Value {
        json::parse(&format!(
            r#"{{"correct": true, "attempted": 1, "failed": 0,
                "metrics": {{"latency_p50_us": {{"value": {latency}, "unit": "us"}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn pairs_inside_and_outside_the_bound() {
        let bounds = vec![("latency_p50_us".to_string(), 0.10)];
        let near = compare("w", &line(100.0), &line(105.0), &bounds).unwrap();
        assert!(near[0].within() && (near[0].diff - 0.05).abs() < 1e-12);
        // Symmetric: an A/A pair that got *better* by more than the bound
        // is just as much evidence of noise.
        let far = compare("w", &line(100.0), &line(80.0), &bounds).unwrap();
        assert!(!far[0].within());
        let missing = vec![("not_reported".to_string(), 0.15)];
        assert!(compare("w", &line(1.0), &line(1.0), &missing).is_err());
    }
}
