//! The five workloads: their inputs, their run configurations, and the
//! output oracles every request must pass.
//!
//! Every run of a workload does the same work, whatever its `--seed`:
//! the programs are fixed, and the RNG seed of request `i` comes from
//! `i mod 16`, so a run of any multiple of 16 requests repeats the same
//! 16-input mix. `--seed` enters that mix only where the random path
//! leaves the work unchanged (see [`Workload::seeds_requests`]). Oracles
//! are written from what each program means, never from what the
//! compiler printed on some earlier run.

use qutes::sim::NoiseModel;
use qutes::{RunConfig, RunOutcome};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Every file the suite reads, with its FNV-1a-64 hash. The suite
/// refuses to run when a file differs, so a workload cannot change
/// through an edit to a shipped example. `language_tour` is left out on
/// purpose (see `Workload::LiveExamples`).
pub const INPUTS: [(&str, u64); 11] = [
    ("examples/programs/adder.qut", 0x8d0f_bbc2_c4fe_4798),
    ("examples/programs/bell.qut", 0x8719_f887_c353_576f),
    (
        "examples/programs/bernstein_vazirani.qut",
        0xc433_b166_4089_ef93,
    ),
    ("examples/programs/cyclic_shift.qut", 0x2283_6d13_553c_e10c),
    ("examples/programs/deutsch_jozsa.qut", 0xdde7_6e54_414f_9725),
    ("examples/programs/entanglement.qut", 0xe3be_957a_6e55_a080),
    ("examples/programs/fib.qut", 0xd566_c004_d7ba_84ed),
    ("examples/programs/ghz_100.qut", 0x70ee_2574_234d_0875),
    ("examples/programs/grover.qut", 0x8c5e_ef81_28b2_c5da),
    ("examples/programs/minmax.qut", 0xbb22_672f_b530_d6ba),
    ("examples/programs/teleport.qut", 0xf4eb_73f0_a302_0129),
];

/// Request RNG seeds cycle with this period.
pub const SEED_PERIOD: usize = 16;

/// Shot-replay worker count for every workload. The reference host
/// has two cores shared with other tenants; one worker keeps all load
/// in one thread and made p90 steady (two workers moved it by ±20%).
pub const SHOT_THREADS: usize = 1;

pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The nearest ancestor of the working directory that holds
/// `BENCHMARK.json`: the repository root, whether the suite runs from
/// there or from a package directory under `cargo test`.
pub fn repo_root() -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| format!("working directory: {e}"))?;
    cwd.ancestors()
        .find(|d| d.join("BENCHMARK.json").is_file())
        .map(Path::to_path_buf)
        .ok_or_else(|| format!("no BENCHMARK.json in {} or above", cwd.display()))
}

/// Reads one input file and checks it against its pinned hash.
pub fn read_input(root: &Path, rel: &str) -> Result<String, String> {
    let (_, want) = INPUTS
        .iter()
        .find(|(p, _)| *p == rel)
        .ok_or_else(|| format!("{rel} is not a pinned input"))?;
    let bytes = std::fs::read(root.join(rel)).map_err(|e| format!("read {rel}: {e}"))?;
    let got = fnv1a64(&bytes);
    if got != *want {
        return Err(format!(
            "{rel} has FNV-1a-64 {got:#018x}, pinned {want:#018x}; a workload input changed"
        ));
    }
    String::from_utf8(bytes).map_err(|e| format!("{rel}: {e}"))
}

/// SplitMix64: the generators' only source of randomness.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One sweep over the shipped examples (minus `language_tour`, whose
    /// 19 ms would be 90% of the sweep) with `RunConfig::default()`:
    /// what `qutes run f.qut` does. Small programs in an edit-run loop,
    /// where dispatch, interpretation and the frontend dominate. A sweep
    /// is the request because a per-program p90 falls between two
    /// programs and jumps between runs.
    LiveExamples,
    /// `grover.qut` (paper Fig. 2) with 100 shots: noise-free
    /// mid-circuit measurement forces per-shot replay.
    GroverShots,
    /// Generated quint addition under depolarizing noise: noisy
    /// trajectories exercise the dense kernels and the noise engine on
    /// every shot, with work independent of the seed.
    NoisyArith,
    /// Generated `"pattern" in text` on 14 qubits at `-O2`: the
    /// kernel-bound workload, running the paper's headline operator.
    WideSearch,
    /// Generated 60-qubit GHZ sampled 10^5 times on the tableau: batched
    /// replay on the other engine, with the dense kernels idle.
    GhzSampling,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::LiveExamples,
        Workload::GroverShots,
        Workload::NoisyArith,
        Workload::WideSearch,
        Workload::GhzSampling,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LiveExamples => "live_examples",
            Workload::GroverShots => "grover_shots",
            Workload::NoisyArith => "noisy_arith",
            Workload::WideSearch => "wide_search",
            Workload::GhzSampling => "ghz_sampling",
        }
    }

    pub fn from_name(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload {name:?}"))
    }

    /// Timed requests in a full run: a multiple of [`SEED_PERIOD`] for
    /// each of the [`crate::measure::SEGMENTS`] children, and about 20 s
    /// on the reference host.
    pub fn requests(self) -> usize {
        match self {
            Workload::LiveExamples => 9600,
            Workload::GroverShots => 1920,
            Workload::NoisyArith => 2560,
            Workload::WideSearch => 2560,
            Workload::GhzSampling => 1920,
        }
    }

    /// Whether `--seed` picks the RNG seeds of requests: only where the
    /// random path does not change the work. Sampling a GHZ state and
    /// drawing noise faults cost the same whatever the draws; the
    /// searches (`grover.qut`, in `live_examples` too, and the `in`
    /// operator) draw their round counts from the RNG, so their 16-seed
    /// mix is fixed, since one drawn from `--seed` moved p90 by 15%.
    pub fn seeds_requests(self) -> bool {
        matches!(self, Workload::NoisyArith | Workload::GhzSampling)
    }

    /// Builds the workload's jobs for `seed`, reading pinned inputs
    /// under `root`.
    pub fn prepare(self, root: &Path, seed: u64) -> Result<Prepared, String> {
        let jobs = match self {
            Workload::LiveExamples => {
                let mut jobs = Vec::new();
                for (rel, _) in INPUTS {
                    let name = Path::new(rel)
                        .file_stem()
                        .and_then(|s| s.to_str())
                        .unwrap_or(rel);
                    jobs.push(Job {
                        name: name.to_string(),
                        source: read_input(root, rel)?,
                        config: RunConfig::default(),
                        oracle: Oracle::Example,
                    });
                }
                jobs
            }
            Workload::GroverShots => vec![Job {
                name: "grover".to_string(),
                source: read_input(root, "examples/programs/grover.qut")?,
                config: RunConfig {
                    shots: 100,
                    ..RunConfig::default()
                },
                oracle: Oracle::Example,
            }],
            Workload::NoisyArith => vec![noisy_arith()],
            Workload::WideSearch => WIDE_SEARCH
                .iter()
                .enumerate()
                .map(|(k, &(text, at))| wide_search(k, text, at))
                .collect(),
            Workload::GhzSampling => vec![ghz(GHZ_QUBITS)],
        };
        let jobs = jobs
            .into_iter()
            .map(|mut j| {
                j.config.shot_threads = SHOT_THREADS;
                j
            })
            .collect();
        Ok(Prepared {
            workload: self,
            jobs,
            request_seed_base: if self.seeds_requests() { seed } else { 0 },
        })
    }
}

/// One `run_source` call: a program, how to run it, and how to judge it.
#[derive(Clone, Debug)]
pub struct Job {
    pub name: String,
    pub source: String,
    /// The run configuration; its `seed` is replaced per request.
    pub config: RunConfig,
    pub oracle: Oracle,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Oracle {
    /// The invariant of the shipped example named by the job.
    Example,
    /// Prints a single integer.
    Integer,
    /// Prints `found` exactly when the pattern occurs in the text.
    Found(bool),
    /// A GHZ state on `n` qubits: only all-zeros and all-ones, each in
    /// 50 ± 1% of the shots.
    Ghz(usize),
}

pub struct Prepared {
    pub workload: Workload,
    pub jobs: Vec<Job>,
    /// `--seed` where it picks the request seeds, else 0.
    request_seed_base: u64,
}

impl Prepared {
    /// The jobs request `i` runs: the whole sweep for `live_examples`,
    /// one of the four programs in turn for `wide_search`, and
    /// the single job otherwise.
    pub fn request(&self, i: usize) -> &[Job] {
        match self.workload {
            Workload::LiveExamples => &self.jobs,
            _ => {
                let k = i % self.jobs.len();
                &self.jobs[k..=k]
            }
        }
    }

    pub fn config(&self, job: &Job, i: usize) -> RunConfig {
        RunConfig {
            seed: request_seed(self.request_seed_base, i),
            ..job.config.clone()
        }
    }
}

/// RNG seed of request `i`: fixed by `base` and `i mod 16`.
pub fn request_seed(base: u64, i: usize) -> u64 {
    SplitMix::new(base.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (i % SEED_PERIOD) as u64).next_u64()
}

/// `a + b` over superposed quints (3 values and 2 values, 14 qubits,
/// 61 gates) under depolarizing noise, 8 shots. The program is the
/// same for every seed: the state preparation's gate count follows the
/// values, and seed-picked value sets of the same widths moved the
/// work per request by up to 40%.
fn noisy_arith() -> Job {
    Job {
        name: "noisy_arith".to_string(),
        source: "quint a = [0, 2, 7]q;\nquint b = [1, 3]q;\nquint s = a + b;\nprint s;\n"
            .to_string(),
        config: RunConfig {
            noise: Some(NoiseModel::depolarizing(0.002)),
            shots: 8,
            ..RunConfig::default()
        },
        oracle: Oracle::Integer,
    }
}

const PATTERN_BITS: usize = 4;

/// The texts of `wide_search`, each with the slot its pattern is cut
/// from: 11 bits with five ones, a 4-bit pattern with two ones, which
/// occurs in the text at that slot only, so the search's random path
/// follows the request's RNG seed alone. They were drawn once at random
/// and are fixed: texts drawn from `--seed`, even of this shape, left
/// the `-O2` circuits a few gates longer or shorter and moved the work
/// per request by up to 5% from one seed to the next.
const WIDE_SEARCH: [(&str, usize); 4] = [
    ("00011010101", 1),
    ("00111001010", 3),
    ("11000001101", 5),
    ("00001110101", 7),
];

/// `"pattern" in text` with the pattern cut from `text` at `at`: 11
/// text qubits plus a 3-qubit position register over the 8 slots.
fn wide_search(k: usize, text: &str, at: usize) -> Job {
    let pattern = &text[at..at + PATTERN_BITS];
    Job {
        name: format!("wide_search_{k}"),
        source: format!(
            "qustring text = \"{text}\"q;\n\
             if (\"{pattern}\" in text) {{\n    print \"found\";\n}} else {{\n    print \"missing\";\n}}\n"
        ),
        config: RunConfig {
            shots: 1,
            opt_level: 2,
            ..RunConfig::default()
        },
        oracle: Oracle::Found(text.contains(pattern)),
    }
}

/// Sampled GHZ width. `ghz_100.qut` has 100 qubits, but `run_source`
/// keys histograms by 64-bit integers and fails past 63 measured bits.
pub const GHZ_QUBITS: usize = 60;

/// A GHZ chain in the shape of `ghz_100.qut`, measured and sampled
/// 10^5 times.
fn ghz(n: usize) -> Job {
    Job {
        name: format!("ghz_{n}"),
        source: format!(
            "qustring g = \"{}\"q;\nhadamard g[0];\nint i = 0;\nwhile (i < {}) {{\n    cnot g[i], g[i + 1];\n    i += 1;\n}}\nmeasure g;\n",
            "0".repeat(n),
            n - 1
        ),
        config: RunConfig {
            shots: 100_000,
            ..RunConfig::default()
        },
        oracle: Oracle::Ghz(n),
    }
}

/// Runs one job through `qutes::run_source` and judges it. The time
/// covers `run_source` alone, not the oracle.
pub fn run_job(job: &Job, cfg: &RunConfig) -> (Duration, Result<(), String>) {
    let start = Instant::now();
    let out = qutes::run_source(&job.source, cfg);
    let took = start.elapsed();
    let verdict = out
        .map_err(|e| format!("{}: {}", job.name, e.render(&job.source)))
        .and_then(|out| check(job, &out));
    (took, verdict)
}

/// Judges one job's outcome. Every shot workload must return exactly
/// the requested number of shots, and no outcome may be degraded.
pub fn check(job: &Job, out: &RunOutcome) -> Result<(), String> {
    if out.degraded {
        return Err(format!("degraded: {:?}", out.stop_reason));
    }
    let shots = job.config.shots;
    if shots > 0 {
        let got = out.counts.as_ref().map_or(0, |c| c.shots());
        if got != shots {
            return Err(format!("{got} shots, requested {shots}"));
        }
    }
    let lines: Vec<&str> = out.output.iter().map(String::as_str).collect();
    let ok = match job.oracle {
        Oracle::Example => example_holds(&job.name, &lines),
        Oracle::Integer => lines.len() == 1 && lines[0].parse::<i64>().is_ok(),
        Oracle::Found(present) => lines == [if present { "found" } else { "missing" }],
        Oracle::Ghz(n) => {
            let counts = out.counts.as_ref().ok_or("no histogram")?;
            let ones = (1usize << n) - 1;
            let total = counts.iter().map(|(_, c)| c).sum::<usize>();
            counts.iter().all(|(k, _)| k == 0 || k == ones)
                && total == shots
                && [0, ones]
                    .iter()
                    .all(|&k| (counts.get(k) as f64 / total as f64 - 0.5).abs() <= 0.01)
        }
    };
    if ok {
        Ok(())
    } else {
        Err(format!("{}: oracle rejected output {lines:?}", job.name))
    }
}

/// The invariants of `tests/end_to_end.rs`, plus the examples' own
/// documented results (`bernstein_vazirani` reads its mask 5,
/// `teleport` delivers `|1>`, `minmax` finds 2 and 30 and computes
/// 3 * 5) and all 100 bits equal on `ghz_100`.
fn example_holds(name: &str, out: &[&str]) -> bool {
    match name {
        "bell" | "entanglement" => out.len() == 2 && out[0] == out[1],
        "adder" => match out {
            [s, a, b] => match (s.parse::<i64>(), a.parse::<i64>(), b.parse::<i64>()) {
                (Ok(s), Ok(a), Ok(b)) => s == a + b && (a == 1 || a == 2) && b == 3,
                _ => false,
            },
            _ => false,
        },
        "bernstein_vazirani" => out == ["5"],
        "cyclic_shift" => out == ["12"],
        "deutsch_jozsa" => out == ["balanced"],
        "fib" => out == ["0", "1", "1", "2", "3", "5", "8", "13", "21", "34"],
        "ghz_100" => {
            out.len() == 1
                && out[0].len() == 100
                && (out[0].bytes().all(|b| b == b'0') || out[0].bytes().all(|b| b == b'1'))
        }
        "grover" => out == ["found"],
        "minmax" => out == ["2", "30", "15"],
        "teleport" => out == ["true"],
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every job's source and run configuration for request `i`.
    fn inputs(w: Workload, seed: u64, i: usize) -> Vec<(String, RunConfig)> {
        let p = w.prepare(&repo_root().unwrap(), seed).unwrap();
        p.request(i)
            .iter()
            .map(|j| (j.source.clone(), p.config(j, i)))
            .collect()
    }

    #[test]
    fn pinned_hashes_match_the_files() {
        let root = repo_root().unwrap();
        for (rel, _) in INPUTS {
            read_input(&root, rel).unwrap();
        }
        assert!(read_input(&root, "examples/programs/language_tour.qut").is_err());
    }

    #[test]
    fn inputs_are_deterministic_per_seed_and_seed_only_work_free_draws() {
        for w in Workload::ALL {
            let same = format!("{:?}", inputs(w, 7, 3)) == format!("{:?}", inputs(w, 7, 3));
            assert!(same, "{}", w.name());
            let (a, b) = (inputs(w, 1, 3), inputs(w, 2, 3));
            let sources =
                |x: &[(String, RunConfig)]| x.iter().map(|(s, _)| s.clone()).collect::<Vec<_>>();
            let seeds =
                |x: &[(String, RunConfig)]| x.iter().map(|(_, c)| c.seed).collect::<Vec<_>>();
            assert_eq!(sources(&a), sources(&b), "{}", w.name());
            assert_eq!(seeds(&a) != seeds(&b), w.seeds_requests(), "{}", w.name());
        }
    }

    #[test]
    fn request_counts_split_into_whole_blocks_per_child() {
        for w in Workload::ALL {
            let n = w.requests();
            assert_eq!(
                n % (crate::measure::SEGMENTS * SEED_PERIOD),
                0,
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn request_seeds_repeat_with_period_16() {
        for base in [0, 1, 2] {
            assert_eq!(request_seed(base, 3), request_seed(base, 3 + SEED_PERIOD));
            assert_ne!(request_seed(base, 3), request_seed(base, 4));
        }
    }

    /// Positions where `pattern` starts in `text`, overlaps included.
    fn occurrences(text: &str, pattern: &str) -> usize {
        (0..text.len())
            .filter(|&i| text[i..].starts_with(pattern))
            .count()
    }

    #[test]
    fn wide_search_texts_share_their_shape() {
        const TEXT_BITS: usize = 11;
        for (text, at) in WIDE_SEARCH {
            let pattern = &text[at..at + PATTERN_BITS];
            assert_eq!(text.len(), TEXT_BITS);
            assert_eq!(occurrences(text, pattern), 1, "{text}");
            assert_eq!(text.matches('1').count(), TEXT_BITS / 2);
            assert_eq!(pattern.matches('1').count(), PATTERN_BITS / 2);
        }
    }
}
