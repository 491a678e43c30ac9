//! `cybench compare BASE.json NEW.json`: one row per (workload, end-to-end
//! metric), judged by the bounds in `BENCHMARK.json`.

use crate::json::Json;
use crate::spec::{MetricSpec, Spec};
use crate::stats::quartile_spread;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// One side's own slices (or set-ups) spread wider than the bound, so
    /// a difference of that size cannot be told from noise.
    Unresolved,
}

fn values(doc: &Json, workload: &str, metric: &str) -> (Option<f64>, Vec<f64>) {
    let w = doc.get("workloads").and_then(|ws| ws.get(workload));
    let value = w
        .and_then(|w| w.get("end_to_end"))
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(Json::num);
    let runs = w
        .and_then(|w| w.get("untraced"))
        .and_then(|u| u.get("runs"))
        .and_then(|r| r.get(metric))
        .map(|r| r.arr().iter().filter_map(Json::num).collect())
        .unwrap_or_default();
    (value, runs)
}

pub fn judge(m: &MetricSpec, base: f64, new: f64, base_runs: &[f64], new_runs: &[f64]) -> Verdict {
    let bound = m.bound.expect("end-to-end metrics carry a bound");
    let noisy = |runs: &[f64]| quartile_spread(runs).is_some_and(|s| s > bound);
    let worsening = if m.higher_is_better {
        (base - new) / base
    } else {
        (new - base) / base
    };
    if noisy(base_runs) || noisy(new_runs) {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Prints the table; the exit code is 1 when any row is `worse`.
pub fn compare_files(spec: &Spec, base_path: &str, new_path: &str) -> Result<u8, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("parse {path}: {e}"))
    };
    let (base_doc, new_doc) = (load(base_path)?, load(new_path)?);
    println!(
        "{:<18} {:<10} {:>14} {:>14} {:>7} {:>6}  verdict",
        "workload", "metric", "base", "new", "ratio", "bound"
    );
    let mut worse = 0;
    for (workload, _) in &spec.workloads {
        for m in &spec.end_to_end {
            let (base, base_runs) = values(&base_doc, workload, &m.name);
            let (new, new_runs) = values(&new_doc, workload, &m.name);
            let (Some(base), Some(new)) = (base, new) else {
                println!("{workload:<18} {:<10} missing from one input", m.name);
                worse += 1;
                continue;
            };
            let verdict = judge(m, base, new, &base_runs, &new_runs);
            worse += u8::from(verdict == Verdict::Worse);
            println!(
                "{workload:<18} {:<10} {base:>14.3} {new:>14.3} {:>7.3} {:>6.2}  {}",
                m.name,
                new / base,
                m.bound.unwrap_or(f64::NAN),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(u8::from(worse > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher_is_better: bool) -> MetricSpec {
        MetricSpec {
            name: "m".to_string(),
            unit: "u".to_string(),
            higher_is_better,
            bound: Some(0.10),
        }
    }

    #[test]
    fn verdicts() {
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        let noisy = [100.0, 140.0, 70.0, 100.0, 120.0];
        // Lower is better: +5 % is inside the bound, +20 % is not.
        assert_eq!(
            judge(&metric(false), 100.0, 105.0, &steady, &steady),
            Verdict::Ok
        );
        assert_eq!(
            judge(&metric(false), 100.0, 120.0, &steady, &steady),
            Verdict::Worse
        );
        assert_eq!(
            judge(&metric(false), 100.0, 50.0, &steady, &steady),
            Verdict::Ok
        );
        // Higher is better: the direction flips.
        assert_eq!(
            judge(&metric(true), 100.0, 80.0, &steady, &steady),
            Verdict::Worse
        );
        assert_eq!(
            judge(&metric(true), 100.0, 120.0, &steady, &steady),
            Verdict::Ok
        );
        // A side noisier than the bound resolves nothing.
        assert_eq!(
            judge(&metric(false), 100.0, 120.0, &noisy, &steady),
            Verdict::Unresolved
        );
    }
}
