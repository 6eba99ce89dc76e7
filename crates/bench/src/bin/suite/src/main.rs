//! The repository benchmark: five workloads driven through
//! `qutes::run_source`, the path users hit, with every output checked.
//! See `README.md` beside this file for what each metric and workload
//! means and why.
//!
//! ```text
//! suite [--seed S] [--workload W] [--out FILE]            end-to-end metrics
//! suite --traced [--seed S] [--workload W] [--out FILE]   per-layer breakdown
//! suite compare A.json B.json                             judge B against A
//! suite --workload W --seed S --seconds T --trace 0|1     one time-boxed run
//! ```
//!
//! The last form prints, as its last line, one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics of `BENCHMARK.json` with `--trace 0`, its per-layer metrics
//! with `--trace 1`.

mod compare;
mod json;
mod measure;
mod stats;
mod trace;
mod workloads;

use json::Json;
use measure::{Budget, Measured, Mode, END_TO_END, SEGMENTS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{read_input, repo_root, Workload, INPUTS, SHOT_THREADS};

const USAGE: &str = "usage:
  suite [--seed S] [--workload W] [--out FILE]            end-to-end metrics (tracing off)
  suite --traced [--seed S] [--workload W] [--out FILE]   per-layer breakdown
  suite compare A.json B.json                             judge B against A with BENCHMARK.json's bounds
  suite --workload W --seed S --seconds T --trace 0|1     one time-boxed run; last line is its JSON result
workloads: live_examples grover_shots noisy_arith wide_search ghz_sampling";

#[derive(Debug, Default)]
struct Args {
    positional: Vec<String>,
    seed: Option<u64>,
    workloads: Vec<Workload>,
    out: Option<PathBuf>,
    traced: bool,
    seconds: Option<f64>,
    trace: Option<bool>,
    requests: Option<usize>,
}

fn parse_args(raw: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = raw.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        let num = |flag: &str, v: String| v.parse::<f64>().map_err(|_| format!("bad {flag} {v:?}"));
        match arg.as_str() {
            "--seed" => {
                let v = value(&arg)?;
                a.seed = Some(v.parse().map_err(|_| format!("bad --seed {v:?}"))?);
            }
            "--requests" => a.requests = Some(num(&arg, value(&arg)?)? as usize),
            "--workload" => a.workloads.push(Workload::from_name(&value(&arg)?)?),
            "--out" => a.out = Some(PathBuf::from(value(&arg)?)),
            "--seconds" => a.seconds = Some(num(&arg, value(&arg)?)?),
            "--trace" => {
                a.trace = Some(match value(&arg)?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v:?}; expected 0 or 1")),
                })
            }
            "--traced" => a.traced = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => a.positional.push(arg),
        }
    }
    if a.requests == Some(0) {
        return Err("--requests must be at least 1".to_string());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("suite: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match dispatch(args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("suite: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the chosen command; `Ok(false)` means it ran but found failed
/// requests or a regression.
fn dispatch(args: Args) -> Result<bool, String> {
    match args.positional.first().map(String::as_str) {
        Some("compare") => match &args.positional[1..] {
            [a, b] => compare::run(&repo_root()?, Path::new(a), Path::new(b)),
            _ => Err(format!("compare takes two result files\n{USAGE}")),
        },
        Some("child") => {
            let workload = *args.workloads.first().ok_or("child needs --workload")?;
            let mode = if args.traced {
                Mode::Traced
            } else if let Some(s) = args.seconds {
                Mode::Timed(Budget::Seconds(s))
            } else {
                Mode::Timed(Budget::Requests(
                    args.requests.ok_or("child needs a budget")?,
                ))
            };
            measure::child(workload, args.seed.unwrap_or(1), mode).map(|()| true)
        }
        Some(other) => Err(format!("unknown command {other:?}\n{USAGE}")),
        None => {
            let root = repo_root()?;
            // Refuse before any work when an input differs from its pin.
            for (rel, _) in INPUTS {
                read_input(&root, rel)?;
            }
            measure::pinned_cpu()?;
            match (args.seconds, args.trace) {
                (Some(seconds), Some(trace)) => timeboxed_run(&args, seconds, trace),
                (None, None) if args.traced => traced_runs(&root, &args),
                (None, None) => full_runs(&root, &args),
                _ => Err(format!("--seconds and --trace go together\n{USAGE}")),
            }
        }
    }
}

fn selected(args: &Args) -> Vec<Workload> {
    if args.workloads.is_empty() {
        Workload::ALL.to_vec()
    } else {
        args.workloads.clone()
    }
}

fn header(root: &Path, seed: u64) -> Result<Json, String> {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .current_dir(root)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let rev = match (git(&["rev-parse", "HEAD"]), git(&["status", "--porcelain"])) {
        (Some(rev), Some(status)) if !status.is_empty() => format!("{rev}-dirty"),
        (Some(rev), _) => rev,
        (None, _) => "unknown".to_string(),
    };
    let mut inputs = Json::obj();
    for (rel, hash) in INPUTS {
        inputs.set(rel, format!("{hash:#018x}"));
    }
    let mut h = Json::obj();
    h.set("git_rev", rev);
    h.set(
        "host_parallelism",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    h.set("pinned_cpu", measure::pinned_cpu()? as usize);
    h.set("seed", seed);
    h.set("shot_threads", SHOT_THREADS);
    h.set("segments", SEGMENTS);
    h.set("inputs", inputs);
    Ok(h)
}

fn units(metrics: &[(&str, &str)]) -> Json {
    let mut u = Json::obj();
    for (name, unit) in metrics {
        u.set(name, *unit);
    }
    u
}

fn write_out(args: &Args, result: &Json) -> Result<(), String> {
    if let Some(path) = &args.out {
        std::fs::write(path, result.pretty() + "\n")
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

fn report_failures(workload: Workload, m: &Measured) {
    if m.failed > 0 {
        println!(
            "{}: {} of {} requests FAILED; first: {}",
            workload.name(),
            m.failed,
            m.attempted,
            m.first_error.as_deref().unwrap_or("?")
        );
    }
}

/// Runs of each workload in a full run, whose medians a result reports.
const RUNS: usize = 5;

/// Every selected workload, [`RUNS`] times each (interleaved, so drift
/// on the host spreads over all workloads), with the fixed request
/// counts of [`Workload::requests`].
fn full_runs(root: &Path, args: &Args) -> Result<bool, String> {
    let seed = args.seed.unwrap_or(1);
    let workloads = selected(args);
    let mut measured: Vec<Vec<Measured>> = workloads.iter().map(|_| Vec::new()).collect();
    for run in 0..RUNS {
        for (w, into) in workloads.iter().zip(&mut measured) {
            let m = measure::end_to_end(*w, seed, Budget::Requests(w.requests()))?;
            println!("run {}/{RUNS} {}: {}", run + 1, w.name(), summary(&m));
            into.push(m);
        }
    }
    let mut all_ok = true;
    let mut results = Json::obj();
    println!(
        "\n{:<14} {:<16} {:>12}  unit  (median of {RUNS} runs)",
        "workload", "metric", "value"
    );
    for (w, ms) in workloads.iter().zip(&measured) {
        let mut entry = Json::obj();
        entry.set("requests", w.requests());
        entry.set("attempted", ms.iter().map(|m| m.attempted).sum::<usize>());
        entry.set("failed", ms.iter().map(|m| m.failed).sum::<usize>());
        let mut medians = Json::obj();
        for (name, unit) in END_TO_END {
            let values: Vec<f64> = ms.iter().filter_map(|m| m.get(name)).collect();
            let med = stats::median(&values);
            println!("{:<14} {name:<16} {med:>12.4}  {unit}", w.name());
            medians.set(name, med);
        }
        entry.set("median", medians);
        entry.set(
            "runs",
            Json::Arr(
                ms.iter()
                    .map(|m| {
                        let mut run = Json::obj();
                        for (name, v) in &m.metrics {
                            run.set(name, *v);
                        }
                        run
                    })
                    .collect(),
            ),
        );
        results.set(w.name(), entry);
        for m in ms {
            report_failures(*w, m);
            all_ok &= m.failed == 0;
        }
    }
    let mut result = Json::obj();
    result.set("header", header(root, seed)?);
    result.set("units", units(&END_TO_END));
    result.set("workloads", results);
    write_out(args, &result)?;
    Ok(all_ok)
}

fn summary(m: &Measured) -> String {
    m.metrics
        .iter()
        .map(|(n, v)| format!("{n}={v:.4}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// The per-layer breakdown of every selected workload.
fn traced_runs(root: &Path, args: &Args) -> Result<bool, String> {
    let seed = args.seed.unwrap_or(1);
    let mut all_ok = true;
    let mut results = Json::obj();
    for w in selected(args) {
        let m = measure::traced(w, seed)?;
        let mut entry = Json::obj();
        for ((name, unit), (_, v)) in trace::METRICS.iter().zip(&m.metrics) {
            println!("{:<14} {name:<24} {v:>12.4}  {unit}", w.name());
            entry.set(name, *v);
        }
        results.set(w.name(), entry);
        report_failures(w, &m);
        all_ok &= m.failed == 0;
    }
    let mut result = Json::obj();
    result.set("header", header(root, seed)?);
    result.set("traced_requests", trace::TRACED_REQUESTS);
    result.set("units", units(&trace::METRICS));
    result.set("workloads", results);
    write_out(args, &result)?;
    Ok(all_ok)
}

/// One time-boxed run of one workload, the form `BENCHMARK.json`'s
/// command takes: metric lines, then the JSON result as the last line.
fn timeboxed_run(args: &Args, seconds: f64, trace: bool) -> Result<bool, String> {
    let [workload] = args.workloads[..] else {
        return Err("--seconds runs exactly one --workload".to_string());
    };
    let seed = args.seed.ok_or("--seconds needs --seed")?;
    let (m, listed): (Measured, &[(&str, &str)]) = if trace {
        (measure::traced(workload, seed)?, &trace::METRICS)
    } else {
        let m = measure::end_to_end(workload, seed, Budget::Seconds(seconds))?;
        (m, &END_TO_END)
    };
    let mut metrics = Json::obj();
    for (name, unit) in listed {
        let value = m.get(name).ok_or_else(|| format!("no {name}"))?;
        println!("{} {name} = {value} {unit}", workload.name());
        // fail_frac is printed but left out of the result line, whose
        // metrics are exactly BENCHMARK.json's: it is 0, so it has no
        // median to bound, and the line carries it as `failed`.
        if *name != "fail_frac" {
            let mut entry = Json::obj();
            entry.set("value", value);
            entry.set("unit", *unit);
            metrics.set(name, entry);
        }
    }
    report_failures(workload, &m);
    let mut line = Json::obj();
    line.set("correct", m.failed == 0);
    line.set("attempted", m.attempted);
    line.set("failed", m.failed);
    line.set("metrics", metrics);
    println!("{line}");
    Ok(m.failed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::Oracle;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_timeboxed_form_and_rejects_bad_flags() {
        let a = args("--workload grover_shots --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workloads, [Workload::GroverShots]);
        assert_eq!(
            (a.seed, a.seconds, a.trace),
            (Some(3), Some(10.0), Some(true))
        );
        assert!(args("--trace 2").is_err());
        assert!(args("--workload nope").is_err());
        assert!(args("--bogus").is_err());
        assert!(args("--seed").is_err());
    }

    /// `BENCHMARK.json` must name exactly the metrics the suite prints.
    #[test]
    fn benchmark_json_lists_the_reported_metrics() {
        let bench = compare::load(&repo_root().unwrap().join("BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<String> {
            bench
                .get(key)
                .unwrap()
                .arr()
                .iter()
                .map(|m| m.get("name").unwrap().str().unwrap().to_string())
                .collect()
        };
        let want = |ms: &[(&str, &str)]| ms.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(names("end_to_end"), want(&END_TO_END[..5]));
        assert_eq!(END_TO_END[5].0, "fail_frac");
        assert_eq!(names("per_layer"), want(&trace::METRICS));
        assert_eq!(
            names("workloads"),
            Workload::ALL.map(|w| w.name().to_string())
        );
    }

    /// One request of every workload, in process: no failures.
    #[test]
    fn smoke_every_workload_at_one_request() {
        let root = repo_root().unwrap();
        for w in Workload::ALL {
            let prep = w.prepare(&root, 1).unwrap();
            let t = measure::timed_loop(&prep, Budget::Requests(1));
            let fail_frac = t.failed as f64 / t.walls_ms.len() as f64;
            assert_eq!(fail_frac, 0.0, "{}: {:?}", w.name(), t.first_error);
        }
    }

    /// Each oracle rejects a corrupted copy of a real, passing outcome.
    #[test]
    fn oracles_reject_corrupted_outputs() {
        let root = repo_root().unwrap();
        for w in Workload::ALL {
            let prep = w.prepare(&root, 1).unwrap();
            for job in prep.request(0) {
                let mut out = qutes::run_source(&job.source, &prep.config(job, 0)).unwrap();
                workloads::check(job, &out).unwrap();
                if job.config.shots > 0 {
                    let mut more_shots = job.clone();
                    more_shots.config.shots += 1;
                    assert!(workloads::check(&more_shots, &out).is_err(), "{}", job.name);
                }
                if let Oracle::Ghz(n) = job.oracle {
                    // A narrower GHZ: its all-ones key is not allowed.
                    let mut narrower = job.clone();
                    narrower.oracle = Oracle::Ghz(n - 1);
                    assert!(workloads::check(&narrower, &out).is_err());
                } else {
                    out.output.push("0".to_string());
                    assert!(workloads::check(job, &out).is_err(), "{}", job.name);
                    out.output.pop();
                }
                out.degraded = true;
                assert!(workloads::check(job, &out).is_err(), "{}", job.name);
            }
        }
    }
}
