//! Measurement in child processes.
//!
//! Every measurement runs in fresh children (this same executable, with
//! `child` as its first argument) that the suite spawns and waits for,
//! one at a time, so all load comes from one process. A child prepares
//! its workload, runs request 0 cold, prints `ready`, and then runs its
//! share of the timed requests, or the traced requests, and prints one
//! JSON line.

use crate::json::Json;
use crate::stats::{median, quantile, MIN_REQUESTS_FOR_P90};
use crate::trace;
use crate::workloads::{repo_root, run_job, Prepared, Workload, SEED_PERIOD};
use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Command, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Children one end-to-end measurement of a workload spawns, one after
/// another. Each sets up (one sample of `setup_s`) and then runs an equal
/// share of the timed requests, so the set-up samples and the repeats of
/// every input spread over the whole run.
///
/// Every request timing the suite reports is the fastest of repeated,
/// identical work: each input's fastest repeat, call by call. The
/// reference host (2 vCPUs shared with other tenants) runs a CPU up to
/// 1.6x slower for most of the time, in phases from milliseconds to
/// minutes long; full-speed stretches come in bursts of a few to tens of
/// milliseconds. A call of a few milliseconds, repeated hundreds of
/// times, fits one of those bursts in nearly every run; calls of 100 ms
/// did so rarely, and their fastest repeat spread by up to 26% between
/// runs. So every request of every workload takes a few milliseconds. A
/// change to the code moves the fastest repeat like any other.
///
/// `setup_s` is the median of the children's set-ups, not a fastest
/// repeat, so it takes many set-ups far apart in time: the host's speed
/// holds for about a second and then changes, and set-ups taken back to
/// back read alike while those a second apart differed by up to 1.8x.
/// Slow phases longer than a run still move that median (`README.md`).
pub const SEGMENTS: usize = 40;

// Every segment runs at least one whole block of `SEED_PERIOD` requests.
const _: () = assert!(SEGMENTS * SEED_PERIOD >= MIN_REQUESTS_FOR_P90);

/// `(name, unit)` of every end-to-end metric, in report order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("latency_ms.p50", "ms"),
    ("latency_ms.p90", "ms"),
    ("requests_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("fail_frac", "ratio"),
];

/// How long the timed requests of a measurement run.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// Exactly this many requests, a multiple of `SEGMENTS * SEED_PERIOD`.
    Requests(usize),
    /// Whole 16-request blocks until about this many seconds have passed.
    Seconds(f64),
}

impl Budget {
    /// One child's share.
    fn segment(self) -> Budget {
        match self {
            Budget::Requests(n) => Budget::Requests(n / SEGMENTS),
            Budget::Seconds(s) => Budget::Seconds(s / SEGMENTS as f64),
        }
    }
}

/// What a child does after its cold request.
#[derive(Clone, Copy, Debug)]
pub enum Mode {
    Timed(Budget),
    Traced,
}

/// Runs request `i`, every job in it; returns the time each job spent in
/// `run_source` and the first failure.
pub fn run_request(prep: &Prepared, i: usize) -> (Vec<Duration>, Result<(), String>) {
    let mut times = Vec::new();
    let mut first = Ok(());
    for job in prep.request(i) {
        let (took, verdict) = run_job(job, &prep.config(job, i));
        times.push(took);
        if first.is_ok() {
            first = verdict;
        }
    }
    (times, first)
}

/// Per-job times of timed loops, with their failures. Every loop runs
/// whole blocks of [`SEED_PERIOD`] requests, so the loops of several
/// children concatenate with request `i` still of input
/// `i mod SEED_PERIOD`.
#[derive(Default)]
pub struct Timed {
    /// `run_source` calls per request: 11 for `live_examples`, else 1.
    pub jobs: usize,
    /// Time in `run_source` of every call: request `i`'s are
    /// `job_ms[i * jobs..(i + 1) * jobs]`.
    pub job_ms: Vec<f64>,
    /// Wall time from the start of the request to the start of the next:
    /// `run_source`, the oracle and the loop.
    pub walls_ms: Vec<f64>,
    pub failed: usize,
    pub first_error: Option<String>,
}

pub fn timed_loop(prep: &Prepared, budget: Budget) -> Timed {
    let mut t = Timed {
        jobs: prep.request(0).len(),
        ..Timed::default()
    };
    let start = Instant::now();
    let mut i = 0;
    loop {
        let done = match budget {
            Budget::Requests(n) => i >= n,
            // Stop at the block boundary nearest the budget, so a
            // workload whose block is longer than the budget runs one.
            Budget::Seconds(s) => {
                let blocks = i / SEED_PERIOD;
                let elapsed = start.elapsed().as_secs_f64();
                i % SEED_PERIOD == 0 && blocks > 0 && elapsed * (1.0 + 0.5 / blocks as f64) >= s
            }
        };
        if done {
            break;
        }
        let begun = Instant::now();
        let (times, verdict) = run_request(prep, i);
        t.job_ms
            .extend(times.iter().map(|took| took.as_secs_f64() * 1e3));
        if let Err(e) = verdict {
            t.failed += 1;
            t.first_error.get_or_insert(e);
        }
        t.walls_ms.push(begun.elapsed().as_secs_f64() * 1e3);
        i += 1;
    }
    t
}

/// Each input's time at its fastest, input by input. `times` holds
/// `jobs` values per request; an input's time is the sum over its jobs
/// of each job's fastest repeat.
fn fastest_per_input(times: &[f64], jobs: usize) -> Vec<f64> {
    let requests = times.len() / jobs.max(1);
    (0..SEED_PERIOD.min(requests))
        .map(|j| {
            (0..jobs)
                .map(|k| {
                    times
                        .iter()
                        .skip(j * jobs + k)
                        .step_by(SEED_PERIOD * jobs)
                        .copied()
                        .fold(f64::INFINITY, f64::min)
                })
                .sum()
        })
        .collect()
}

impl Timed {
    /// `(p50, p90)` over the request inputs: each of the
    /// [`SEED_PERIOD`] inputs (request seed, and program where a
    /// workload has several) gets its fastest repeat, job by job, and
    /// the percentiles are taken across inputs. An input that is slow
    /// every time still sets p90.
    pub fn latency_quantiles(&self) -> (f64, f64) {
        let per_input = fastest_per_input(&self.job_ms, self.jobs);
        (quantile(&per_input, 0.5), quantile(&per_input, 0.9))
    }

    /// Requests per second of wall time over one pass of the inputs,
    /// each at its fastest request.
    pub fn requests_per_s(&self) -> f64 {
        let pass_ms: f64 = fastest_per_input(&self.walls_ms, 1).iter().sum();
        SEED_PERIOD as f64 * 1e3 / pass_ms
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The child side. Prints `ready ok` or `ready fail: <why>` after the
/// cold request, then one JSON line.
pub fn child(workload: Workload, seed: u64, mode: Mode) -> Result<(), String> {
    let prep = workload.prepare(&repo_root()?, seed)?;
    let (_, cold) = run_request(&prep, 0);
    let mut stdout = std::io::stdout().lock();
    let ready = match &cold {
        Ok(()) => "ready ok".to_string(),
        Err(e) => format!("ready fail: {}", e.replace('\n', " ")),
    };
    writeln!(stdout, "{ready}")
        .and_then(|()| stdout.flush())
        .map_err(|e| e.to_string())?;
    let mut line = Json::obj();
    match mode {
        Mode::Timed(budget) => {
            let t = timed_loop(&prep, budget);
            line.set("attempted", t.walls_ms.len());
            line.set("failed", t.failed);
            line.set("first_error", t.first_error.map_or(Json::Null, Json::from));
            line.set("jobs", t.jobs);
            line.set("job_ms", &t.job_ms[..]);
            line.set("walls_ms", &t.walls_ms[..]);
            line.set("peak_rss_mb", peak_rss_mb()?);
        }
        Mode::Traced => {
            let t = trace::run(&prep, trace::TRACED_REQUESTS);
            line.set("attempted", t.attempted);
            line.set("failed", t.failed);
            line.set("first_error", t.first_error.map_or(Json::Null, Json::from));
            line.set("metrics", t.metrics);
        }
    }
    writeln!(stdout, "{line}").map_err(|e| e.to_string())
}

/// One child's report, as the parent sees it.
struct Report {
    setup_s: f64,
    cold_error: Option<String>,
    line: Json,
}

/// The CPU every child is pinned to: the first one this process may use.
/// The suite refuses to measure where `taskset` cannot pin, so every
/// result measures the same single-CPU path.
///
/// Pinned, a child sees one CPU, so the simulator's kernels, which
/// otherwise spawn a thread per CPU on every call past 2^14 amplitudes,
/// run on the calling thread. On the reference host (2 vCPUs shared
/// with other tenants) those per-call spawns made `noisy_arith` 4x
/// slower and moved its p50 by up to 40% between 2-second windows.
pub fn pinned_cpu() -> Result<u32, String> {
    static CPU: OnceLock<Result<u32, String>> = OnceLock::new();
    CPU.get_or_init(|| {
        let status = std::fs::read_to_string("/proc/self/status")
            .map_err(|e| format!("read /proc/self/status: {e}"))?;
        let cpu = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .and_then(|list| list.trim().split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|first| first.parse::<u32>().ok())
            .ok_or("no Cpus_allowed_list in /proc/self/status")?;
        let pins = Command::new("taskset")
            .args(["-c", &cpu.to_string(), "true"])
            .status()
            .is_ok_and(|s| s.success());
        if pins {
            Ok(cpu)
        } else {
            Err(format!(
                "cannot pin children to CPU {cpu} with taskset; the suite measures pinned children only"
            ))
        }
    })
    .clone()
}

fn spawn(workload: Workload, seed: u64, mode: Mode) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new("taskset");
    cmd.arg("-c").arg(pinned_cpu()?.to_string()).arg(exe);
    cmd.args(["child", "--workload", workload.name(), "--seed"])
        .arg(seed.to_string());
    match mode {
        Mode::Timed(Budget::Requests(n)) => cmd.arg("--requests").arg(n.to_string()),
        Mode::Timed(Budget::Seconds(s)) => cmd.arg("--seconds").arg(s.to_string()),
        Mode::Traced => cmd.arg("--traced"),
    };
    let begun = Instant::now();
    let mut proc = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn child: {e}"))?;
    let mut out = BufReader::new(proc.stdout.take().ok_or("child has no stdout")?);
    let mut first = String::new();
    let read = out.read_line(&mut first);
    let setup_s = begun.elapsed().as_secs_f64();
    let mut rest = String::new();
    let read = read.and_then(|_| out.read_to_string(&mut rest));
    let status = proc.wait().map_err(|e| format!("wait for child: {e}"))?;
    read.map_err(|e| format!("read child output: {e}"))?;
    if !status.success() {
        return Err(format!("{} child exited with {status}", workload.name()));
    }
    let cold_error = match first.trim_end() {
        "ready ok" => None,
        other => Some(
            other
                .strip_prefix("ready fail: ")
                .ok_or_else(|| format!("unexpected child output {other:?}"))?
                .to_string(),
        ),
    };
    let line = rest
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("child printed no result")?;
    Ok(Report {
        setup_s,
        cold_error,
        line: Json::parse(line)?,
    })
}

/// A measured run of one workload: `(name, value)` for each metric,
/// and how many requests were attempted and failed (cold requests of
/// every spawned child included).
#[derive(Default)]
pub struct Measured {
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: usize,
    pub failed: usize,
    pub first_error: Option<String>,
}

impl Measured {
    fn absorb(&mut self, report: &Report) -> Result<(), String> {
        self.attempted += 1;
        if let Some(e) = &report.cold_error {
            self.failed += 1;
            self.first_error.get_or_insert_with(|| e.clone());
        }
        let line = &report.line;
        let count = |k: &str| line.get(k).and_then(Json::num).map(|n| n as usize);
        self.attempted += count("attempted").ok_or("child line lacks attempted")?;
        self.failed += count("failed").ok_or("child line lacks failed")?;
        if let Some(e) = line.get("first_error").and_then(Json::str) {
            self.first_error.get_or_insert_with(|| e.to_string());
        }
        Ok(())
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }
}

fn numbers(line: &Json, key: &str) -> Result<Vec<f64>, String> {
    line.get(key)
        .ok_or_else(|| format!("child line lacks {key}"))?
        .arr()
        .iter()
        .map(|v| v.num().ok_or_else(|| format!("{key} holds a non-number")))
        .collect()
}

/// Measures the end-to-end metrics of one workload with [`SEGMENTS`]
/// children, each timing its share of `budget`. `setup_s` and
/// `peak_rss_mb` are medians over the children; the requests of all
/// children are pooled.
pub fn end_to_end(workload: Workload, seed: u64, budget: Budget) -> Result<Measured, String> {
    let mut m = Measured::default();
    let mut t = Timed::default();
    let (mut setups, mut rss) = (Vec::new(), Vec::new());
    for _ in 0..SEGMENTS {
        let r = spawn(workload, seed, Mode::Timed(budget.segment()))?;
        m.absorb(&r)?;
        setups.push(r.setup_s);
        t.jobs = r
            .line
            .get("jobs")
            .and_then(Json::num)
            .ok_or("child line lacks jobs")? as usize;
        t.job_ms.extend(numbers(&r.line, "job_ms")?);
        t.walls_ms.extend(numbers(&r.line, "walls_ms")?);
        rss.push(
            r.line
                .get("peak_rss_mb")
                .and_then(Json::num)
                .ok_or("child line lacks peak_rss_mb")?,
        );
    }
    let (p50, p90) = t.latency_quantiles();
    for (name, _) in END_TO_END {
        let value = match name {
            "latency_ms.p50" => p50,
            "latency_ms.p90" => p90,
            "requests_per_s" => t.requests_per_s(),
            "setup_s" => median(&setups),
            "peak_rss_mb" => median(&rss),
            "fail_frac" => m.failed as f64 / m.attempted as f64,
            _ => unreachable!("{name} has no measurement"),
        };
        m.metrics.push((name, value));
    }
    Ok(m)
}

/// Runs the per-layer breakdown of one workload in a child.
pub fn traced(workload: Workload, seed: u64) -> Result<Measured, String> {
    let mut m = Measured::default();
    let r = spawn(workload, seed, Mode::Traced)?;
    m.absorb(&r)?;
    let metrics = r
        .line
        .get("metrics")
        .ok_or("traced child line lacks metrics")?;
    for (name, _) in trace::METRICS {
        let v = metrics
            .get(name)
            .and_then(Json::num)
            .ok_or_else(|| format!("traced child lacks {name}"))?;
        m.metrics.push((name, v));
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slowdown_of_all_but_one_repeat_moves_no_timing() {
        // Inputs 3 and 9 are slow every time. Every input has 7 repeats,
        // and all but one of them run 1.7x slower; input j's fast repeat
        // is in block j mod 7, so no block of 16 runs fast throughout.
        let times = |overhead_ms: f64| -> Vec<f64> {
            (0..7 * SEED_PERIOD)
                .map(|i| {
                    let j = i % SEED_PERIOD;
                    let base = if matches!(j, 3 | 9) { 50.0 } else { 10.0 };
                    let slow = if i / SEED_PERIOD == j % 7 { 1.0 } else { 1.7 };
                    base * slow + overhead_ms
                })
                .collect()
        };
        let t = Timed {
            jobs: 1,
            job_ms: times(0.0),
            walls_ms: times(1.0),
            ..Timed::default()
        };
        // Two of 16 inputs are slow, so p90 lies between 10 and 50.
        assert_eq!(t.latency_quantiles(), (10.0, 30.0));
        let quiet_pass_s = (14.0 * 11.0 + 2.0 * 51.0) / 1e3;
        assert!((t.requests_per_s() - SEED_PERIOD as f64 / quiet_pass_s).abs() < 1e-9);
    }

    #[test]
    fn an_input_of_several_jobs_sums_each_jobs_fastest_repeat() {
        // Two jobs per request, two repeats per input: job 0 is fast
        // (1 ms) only in the first repeat, job 1 (2 ms) only in the
        // second, so no single request ran at 3 ms.
        let job_ms: Vec<f64> = (0..2 * SEED_PERIOD)
            .flat_map(|i| {
                let first = i < SEED_PERIOD;
                [if first { 1.0 } else { 1.5 }, if first { 3.0 } else { 2.0 }]
            })
            .collect();
        let t = Timed {
            jobs: 2,
            job_ms,
            ..Timed::default()
        };
        assert_eq!(t.latency_quantiles(), (3.0, 3.0));
    }

    #[test]
    fn every_child_gets_an_equal_share_of_the_budget() {
        assert!(matches!(
            Budget::Requests(SEGMENTS * 32).segment(),
            Budget::Requests(32)
        ));
        assert!(matches!(
            Budget::Seconds(16.0).segment(),
            Budget::Seconds(s) if s * SEGMENTS as f64 == 16.0
        ));
    }
}
