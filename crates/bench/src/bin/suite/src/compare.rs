//! `suite compare A.json B.json`: judges B against A, metric by metric,
//! with the bounds `BENCHMARK.json` fixes.

use crate::json::Json;
use crate::stats::{median, quantile};
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The runs of one side spread wider than the bound (quartile to
    /// quartile), so a delta within or beyond it cannot be told from
    /// noise.
    Unresolved,
}

/// How a metric may move, from `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    /// Largest allowed worsening, as a share of A's median.
    pub bound: f64,
}

pub fn load(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The end-to-end bounds of `BENCHMARK.json`, plus `fail_frac`, which
/// must never rise (it is 0 and so cannot be listed there).
pub fn bounds(benchmark: &Json) -> Result<Vec<Bound>, String> {
    let mut out = Vec::new();
    for m in benchmark
        .get("end_to_end")
        .ok_or("BENCHMARK.json lacks end_to_end")?
        .arr()
    {
        let field = |k: &str| {
            m.get(k)
                .ok_or_else(|| format!("end_to_end entry lacks {k}"))
        };
        out.push(Bound {
            name: field("name")?
                .str()
                .ok_or("name is not a string")?
                .to_string(),
            lower_is_better: field("better")?.str() == Some("lower"),
            bound: field("bound")?.num().ok_or("bound is not a number")?,
        });
    }
    out.push(Bound {
        name: "fail_frac".to_string(),
        lower_is_better: true,
        bound: 0.0,
    });
    Ok(out)
}

/// Judges one metric from the per-run values of each side.
pub fn judge(b: &Bound, a_runs: &[f64], b_runs: &[f64]) -> (f64, f64, f64, Verdict) {
    let (ma, mb) = (median(a_runs), median(b_runs));
    let sign = if b.lower_is_better { 1.0 } else { -1.0 };
    let worse = |from: f64, to: f64| {
        if from == 0.0 {
            if to == 0.0 {
                0.0
            } else {
                sign * f64::INFINITY
            }
        } else {
            sign * (to - from) / from.abs()
        }
    };
    let delta = worse(ma, mb);
    // The distance between the quartiles of a side's runs, as a share
    // of their median.
    let spread = |runs: &[f64], m: f64| {
        if m == 0.0 {
            0.0
        } else {
            (quantile(runs, 0.75) - quantile(runs, 0.25)) / m.abs()
        }
    };
    let noisy = spread(a_runs, ma).max(spread(b_runs, mb)) > b.bound;
    let every_b_run_worse = a_runs
        .iter()
        .all(|&x| b_runs.iter().all(|&y| worse(x, y) > b.bound));
    let verdict = if delta <= b.bound && !noisy {
        Verdict::Ok
    } else if delta > b.bound && (!noisy || every_b_run_worse) {
        Verdict::Regressed
    } else {
        Verdict::Unresolved
    };
    (ma, mb, delta, verdict)
}

/// Header fields two result sets must share to be comparable.
fn header_mismatches(a: &Json, b: &Json) -> Vec<String> {
    let mut out = Vec::new();
    let (ha, hb) = (a.get("header"), b.get("header"));
    for key in [
        "seed",
        "shot_threads",
        "inputs",
        "pinned_cpu",
        "host_parallelism",
        "segments",
    ] {
        let (va, vb) = (ha.and_then(|h| h.get(key)), hb.and_then(|h| h.get(key)));
        if va != vb || va.is_none() {
            out.push(format!("header.{key} differs"));
        }
    }
    let workloads = |r: &Json| -> Vec<(String, Option<f64>)> {
        r.get("workloads")
            .map(Json::fields)
            .unwrap_or_default()
            .iter()
            .map(|(k, v)| (k.clone(), v.get("requests").and_then(Json::num)))
            .collect()
    };
    if workloads(a) != workloads(b) {
        out.push("workloads or their request counts differ".to_string());
    }
    out
}

fn runs_of(result: &Json, workload: &str, metric: &str) -> Vec<f64> {
    result
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("runs"))
        .map(Json::arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|run| run.get(metric).and_then(Json::num))
        .collect()
}

/// Prints the comparison; returns whether B passes: comparable headers
/// and every metric `ok`. An `unresolved` metric fails too, since it
/// does not show that B is within the bound.
pub fn run(root: &Path, a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let bounds = bounds(&load(&root.join("BENCHMARK.json"))?)?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mismatches = header_mismatches(&a, &b);
    for m in &mismatches {
        println!("header mismatch: {m}");
    }
    println!(
        "{:<14} {:<16} {:>12} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "delta", "bound"
    );
    let mut regressed = 0;
    let mut unresolved = 0;
    for (workload, _) in a.get("workloads").map(Json::fields).unwrap_or_default() {
        for bound in &bounds {
            let (ra, rb) = (
                runs_of(&a, workload, &bound.name),
                runs_of(&b, workload, &bound.name),
            );
            if ra.is_empty() || rb.is_empty() {
                return Err(format!("{workload}: no runs of {}", bound.name));
            }
            let (ma, mb, delta, verdict) = judge(bound, &ra, &rb);
            match verdict {
                Verdict::Regressed => regressed += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Ok => {}
            }
            println!(
                "{workload:<14} {:<16} {ma:>12.4} {mb:>12.4} {:>+8.2}% {:>6.1}%  {}",
                bound.name,
                delta * 100.0,
                bound.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    println!(
        "delta is the worsening of B's median against A's (negative = better); \
         {regressed} regressed, {unresolved} unresolved"
    );
    Ok(regressed == 0 && unresolved == 0 && mismatches.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(lower_is_better: bool) -> Bound {
        Bound {
            name: "m".to_string(),
            lower_is_better,
            bound: 0.1,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let lat = bound(true);
        assert_eq!(
            judge(&lat, &[10.0, 10.1, 9.9], &[10.5, 10.4, 10.6]).3,
            Verdict::Ok
        );
        assert_eq!(
            judge(&lat, &[10.0, 10.1, 9.9], &[12.0, 12.1, 11.9]).3,
            Verdict::Regressed
        );
        // A spread of 30% cannot resolve a 10% bound ...
        assert_eq!(
            judge(&lat, &[10.0, 13.0, 10.0], &[12.0, 10.0, 12.5]).3,
            Verdict::Unresolved
        );
        // ... unless every run of B is worse than every run of A.
        assert_eq!(
            judge(&lat, &[10.0, 13.0, 10.0], &[20.0, 25.0, 21.0]).3,
            Verdict::Regressed
        );
        // Higher-is-better metrics regress downwards.
        let rps = bound(false);
        assert_eq!(judge(&rps, &[100.0; 3], &[80.0; 3]).3, Verdict::Regressed);
        assert_eq!(judge(&rps, &[100.0; 3], &[130.0; 3]).3, Verdict::Ok);
    }

    #[test]
    fn any_new_failure_regresses() {
        let fail = Bound {
            name: "fail_frac".to_string(),
            lower_is_better: true,
            bound: 0.0,
        };
        assert_eq!(judge(&fail, &[0.0; 3], &[0.0; 3]).3, Verdict::Ok);
        assert_eq!(judge(&fail, &[0.0; 3], &[0.001; 3]).3, Verdict::Regressed);
    }

    #[test]
    fn headers_must_agree_on_seed_inputs_pinning_and_request_counts() {
        let result = |seed: f64, n: f64, cpus: f64| {
            Json::parse(&format!(
                r#"{{"header": {{"seed": {seed}, "shot_threads": 1, "inputs": {{"a": "0x1"}},
                                 "pinned_cpu": 0, "host_parallelism": {cpus}, "segments": 40}},
                    "workloads": {{"w": {{"requests": {n}, "runs": []}}}}}}"#
            ))
            .unwrap()
        };
        let base = result(1.0, 16.0, 2.0);
        assert!(header_mismatches(&base, &result(1.0, 16.0, 2.0)).is_empty());
        for other in [
            result(2.0, 16.0, 2.0),
            result(1.0, 32.0, 2.0),
            result(1.0, 16.0, 8.0),
        ] {
            assert_eq!(header_mismatches(&base, &other).len(), 1);
        }
    }
}
