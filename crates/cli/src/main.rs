//! `qutes` — command-line driver for the Qutes language.
//!
//! ```text
//! qutes run    <file.qut> [--seed N] [--max-steps N] [--stats] [--draw]
//!              [--noise P] [--readout-error P] [--shots N] [--shot-threads N]
//!              [--mem-budget BYTES] [--opt-level N] [--time-budget MS]
//!              [--backend NAME] [--trace] [--profile] [--stats-json PATH]
//!              [--lint] [-W ID] [-A ID] [--deny-warnings] [--verify]
//! qutes verify <file.qut> [--seed N] [--max-steps N] [--time-budget MS]
//!              [--deny-warnings]
//! qutes lint   <file.qut> [-W ID] [-A ID] [--deny-warnings] [--lint-json]
//! qutes check  <file.qut>
//! qutes fmt    <file.qut>
//! qutes qasm   <file.qut> [--v3] [--seed N] [--time-budget MS] [-o out.qasm]
//! ```
//!
//! `run` executes the program and prints its `print` output; `qasm`
//! executes it and emits the accumulated circuit as OpenQASM (the
//! measurement outcomes taken during execution determine classically-
//! conditioned paths, exactly like the paper's Qiskit lowering).
//!
//! `--noise P` attaches a symmetric depolarizing fault model (rate `P`
//! per gate per touched qubit) and `--readout-error P` flips each
//! measured bit with probability `P`; with `--shots N` the accumulated
//! circuit is additionally replayed `N` times under the same model and
//! the outcome histogram printed. `--mem-budget` caps the dense
//! statevector allocation (`16 * 2^n` bytes) with a clean error instead
//! of an OOM. `--shot-threads N` sizes the worker pool for grouped
//! replay, noisy or not (`0` = auto from the host's
//! available parallelism, `1` = serial; histograms are bit-for-bit
//! identical at every value — see `docs/performance.md`).
//! `--backend {auto,statevector,tableau}` selects the
//! simulation engine (default `auto`: a noise-free run starts on the
//! stabilizer tableau, which scales to hundreds of qubits, and is
//! promoted to the dense statevector at its first non-Clifford gate —
//! see `docs/backends.md`). `--opt-level` selects the
//! circuit-optimization level used
//! for the shot replay and the `--stats` report (0 = off, 1 = gate
//! cancellation + rotation merging, 2 = additionally single-qubit gate
//! fusion; default 1).
//!
//! `verify` runs the program once (shot-free) and then replays the
//! optimizer over the accumulated circuit at levels 1 and 2, statically
//! checking every pass boundary and the end-to-end composition for
//! unitary equivalence in the cheapest exact domain that fits
//! (stabilizer tableau, phase polynomial, dense unitary ≤ 8 qubits —
//! see `docs/verification.md`). It prints the per-boundary
//! classification and the dispatch-oracle segment counts, exits
//! non-zero on any `inequivalent` verdict, and warns on `unknown`.
//! `run --verify` performs the same check at the run's `--opt-level`
//! after execution, refusing (non-zero exit) on `inequivalent`.
//!
//! `lint` runs the static analyzer (`qutes-analysis`, see
//! `docs/analysis.md`) without executing: it prints every finding with
//! source context plus a one-line resource estimate (qubits, gates,
//! depth, measurements), and exits non-zero when any finding resolves to
//! deny level. `-W <ID>` promotes a lint to warn, `-A <ID>` allows
//! (silences) it, `--deny-warnings` turns warnings into errors, and
//! `--lint-json` emits the machine-readable report instead. The same
//! flags on `run` lint first and refuse to execute a program with
//! deny-level findings.
//!
//! `--time-budget MS` bounds the whole run (parse through shot replay)
//! to a wall-clock deadline: when it expires, cooperative checkpoints
//! stop the run with a typed `deadline exceeded` error (see
//! `docs/robustness.md`). Both `run` and `lint` execute inside a
//! panic-containment boundary, so an internal fault renders as an
//! `internal error in stage …` message instead of a crash.
//!
//! The observability flags (see `docs/observability.md`) enable the
//! `qutes-obs` collector for the run: `--trace` prints the nested
//! pipeline span tree to stderr, `--profile` prints the aggregated
//! hot-path table (per-stage wall time, per-kernel apply times, per-gate
//! counts), and `--stats-json PATH` writes the full machine-readable
//! snapshot to `PATH` (`-` for stdout).

use qutes_core::{QutesError, RunConfig};
use qutes_frontend::{parse, print_program};
use qutes_qasm::{to_qasm2, to_qasm3};
use qutes_sim::NoiseModel;
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Set once a reader has closed standard output.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Every command's standard output goes through here. A reader that
/// closes the pipe early (`qutes qasm prog.qut | head -3`) ends the
/// output, not the command: the rest is dropped and the command exits
/// with the status it would have had. Any other write failure is
/// reported and exits with status 1.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            STDOUT_CLOSED.store(true, Ordering::Relaxed);
        } else {
            eprintln!("error: cannot write to stdout: {e}");
            std::process::exit(1);
        }
    }
}

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  qutes run    <file.qut> [--seed N] [--max-steps N] [--stats] [--draw]\n               \
         [--noise P] [--readout-error P] [--shots N] [--shot-threads N]\n               \
         [--mem-budget BYTES] [--opt-level N] [--time-budget MS]\n               \
         [--backend NAME] [--trace] [--profile] [--stats-json PATH]\n               \
         [--lint] [-W ID] [-A ID] [--deny-warnings] [--verify]\n  \
         qutes verify <file.qut> [--seed N] [--max-steps N] [--time-budget MS]\n               \
         [--deny-warnings]\n  \
         qutes lint   <file.qut> [-W ID] [-A ID] [--deny-warnings] [--lint-json]\n  \
         qutes check  <file.qut>\n  qutes fmt    <file.qut>\n  \
         qutes qasm   <file.qut> [--v3] [--seed N] [--time-budget MS] [-o out.qasm]"
    );
    ExitCode::from(2)
}

struct Args {
    path: String,
    seed: u64,
    max_steps: u64,
    stats: bool,
    draw: bool,
    v3: bool,
    out: Option<String>,
    noise: f64,
    readout_error: f64,
    shots: usize,
    shot_threads: usize,
    mem_budget: Option<u64>,
    opt_level: u8,
    time_budget_ms: Option<u64>,
    backend: qutes_qcirc::BackendChoice,
    trace: bool,
    profile: bool,
    stats_json: Option<String>,
    lint: bool,
    warns: Vec<String>,
    allows: Vec<String>,
    deny_warnings: bool,
    lint_json: bool,
    verify: bool,
}

impl Args {
    /// True when any observability output was requested.
    fn observing(&self) -> bool {
        self.trace || self.profile || self.stats_json.is_some()
    }
}

fn parse_args(rest: &[String]) -> Result<Args, String> {
    let mut args = Args {
        path: String::new(),
        seed: 0,
        max_steps: 1_000_000,
        stats: false,
        draw: false,
        v3: false,
        out: None,
        noise: 0.0,
        readout_error: 0.0,
        shots: 0,
        shot_threads: 0,
        mem_budget: None,
        opt_level: 1,
        time_budget_ms: None,
        backend: qutes_qcirc::BackendChoice::Auto,
        trace: false,
        profile: false,
        stats_json: None,
        lint: false,
        warns: Vec::new(),
        allows: Vec::new(),
        deny_warnings: false,
        lint_json: false,
        verify: false,
    };
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                args.seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|_| "--seed needs an integer")?;
            }
            "--max-steps" => {
                args.max_steps = it
                    .next()
                    .ok_or("--max-steps needs a value")?
                    .parse()
                    .map_err(|_| "--max-steps needs an integer")?;
            }
            "--noise" => {
                args.noise = it
                    .next()
                    .ok_or("--noise needs a probability")?
                    .parse()
                    .map_err(|_| "--noise needs a number in [0, 1]")?;
            }
            "--readout-error" => {
                args.readout_error = it
                    .next()
                    .ok_or("--readout-error needs a probability")?
                    .parse()
                    .map_err(|_| "--readout-error needs a number in [0, 1]")?;
            }
            "--shots" => {
                args.shots = it
                    .next()
                    .ok_or("--shots needs a value")?
                    .parse()
                    .map_err(|_| "--shots needs an integer")?;
            }
            "--shot-threads" => {
                args.shot_threads = it
                    .next()
                    .ok_or("--shot-threads needs a value")?
                    .parse()
                    .map_err(|_| "--shot-threads needs an integer (0 = auto)")?;
            }
            "--mem-budget" => {
                args.mem_budget = Some(
                    it.next()
                        .ok_or("--mem-budget needs a byte count")?
                        .parse()
                        .map_err(|_| "--mem-budget needs an integer byte count")?,
                );
            }
            "--opt-level" => {
                args.opt_level = it
                    .next()
                    .ok_or("--opt-level needs a value")?
                    .parse()
                    .map_err(|_| "--opt-level needs 0, 1, or 2")?;
                if args.opt_level > 2 {
                    return Err("--opt-level needs 0, 1, or 2".into());
                }
            }
            "--time-budget" => {
                args.time_budget_ms = Some(
                    it.next()
                        .ok_or("--time-budget needs a millisecond count")?
                        .parse()
                        .map_err(|_| "--time-budget needs an integer millisecond count")?,
                );
            }
            "--backend" => {
                let name = it.next().ok_or("--backend needs a name")?;
                args.backend = qutes_qcirc::BackendChoice::from_name(name).ok_or(format!(
                    "unknown backend '{name}' (choices: auto, statevector, tableau)"
                ))?;
            }
            "--lint" => args.lint = true,
            "--verify" => args.verify = true,
            "--deny-warnings" => args.deny_warnings = true,
            "--lint-json" => args.lint_json = true,
            "-W" | "--warn" => {
                args.warns.push(lint_id(
                    it.next().ok_or("-W needs a lint id (e.g. QL003)")?,
                )?);
            }
            "-A" | "--allow" => {
                args.allows.push(lint_id(
                    it.next().ok_or("-A needs a lint id (e.g. QL101)")?,
                )?);
            }
            "--stats" => args.stats = true,
            "--trace" => args.trace = true,
            "--profile" => args.profile = true,
            "--stats-json" => {
                args.stats_json = Some(it.next().ok_or("--stats-json needs a path")?.clone());
            }
            "--draw" => args.draw = true,
            "--v3" => args.v3 = true,
            "-o" | "--out" => {
                args.out = Some(it.next().ok_or("-o needs a path")?.clone());
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag '{flag}'")),
            path => {
                if args.path.is_empty() {
                    args.path = path.to_string();
                } else {
                    return Err(format!("unexpected argument '{path}'"));
                }
            }
        }
    }
    if args.path.is_empty() {
        return Err("missing input file".into());
    }
    Ok(args)
}

/// Validates a `-W`/`-A` argument against the lint registry.
fn lint_id(id: &str) -> Result<String, String> {
    if qutes_analysis::lint_by_id(id).is_some() {
        Ok(id.to_string())
    } else {
        let known: Vec<&str> = qutes_analysis::REGISTRY.iter().map(|l| l.id).collect();
        Err(format!(
            "unknown lint '{id}' (known lints: {})",
            known.join(", ")
        ))
    }
}

/// Builds the analyzer configuration from the CLI flags.
fn lint_options(args: &Args) -> qutes_analysis::LintOptions {
    qutes_analysis::LintOptions {
        warns: args.warns.clone(),
        allows: args.allows.clone(),
        deny_warnings: args.deny_warnings,
    }
}

/// Runs the static analyzer inside a panic-containment boundary: a
/// panic in the analyzer surfaces as a rendered internal error, never
/// an abort of the CLI process.
#[allow(clippy::type_complexity)]
fn analyze_contained(
    source: &str,
    opts: &qutes_analysis::LintOptions,
) -> Result<
    Result<qutes_analysis::AnalysisReport, Vec<qutes_frontend::Diagnostic>>,
    qutes_supervisor::ContainedPanic,
> {
    qutes_supervisor::contain(|| {
        let _stage = qutes_supervisor::enter_stage("cli.lint");
        qutes_analysis::analyze_source(source, opts)
    })
}

/// Runs the analyzer for `run --lint`: prints findings to stderr and
/// reports whether execution may proceed.
fn lint_gate(source: &str, args: &Args) -> Result<(), ExitCode> {
    match analyze_contained(source, &lint_options(args)) {
        Err(p) => {
            eprintln!("error: {p}");
            Err(ExitCode::FAILURE)
        }
        Ok(Ok(report)) => {
            for f in &report.findings {
                eprint!("{}", f.render(source));
            }
            if report.denied().is_empty() {
                Ok(())
            } else {
                eprintln!(
                    "error: program has deny-level lints; refusing to run (silence with -A <id>)"
                );
                Err(ExitCode::FAILURE)
            }
        }
        Ok(Err(diags)) => {
            for d in diags {
                eprint!("{}", d.render(source));
            }
            Err(ExitCode::FAILURE)
        }
    }
}

/// Builds the noise model from the CLI flags, `None` when both are zero.
fn noise_from_args(args: &Args) -> Option<NoiseModel> {
    if args.noise == 0.0 && args.readout_error == 0.0 {
        return None;
    }
    Some(NoiseModel::depolarizing(args.noise).with_readout_error(args.readout_error))
}

/// Replays and verifies the optimizer over `circuit` at `level` inside
/// a panic-containment boundary (see `docs/verification.md`).
fn verify_contained(
    circuit: &qutes_qcirc::QuantumCircuit,
    level: u8,
) -> Result<qutes_analysis::OptimizationVerification, String> {
    match qutes_supervisor::contain(|| {
        let _stage = qutes_supervisor::enter_stage("cli.verify");
        qutes_analysis::verify_optimization(circuit, level)
    }) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(format!("verification could not run: {e}")),
        Err(p) => Err(p.to_string()),
    }
}

/// Compact `domain=count` summary of a boundary's verified segments.
fn domain_summary(report: &qutes_analysis::VerifyReport) -> String {
    if report.segments.is_empty() {
        return "no segments".into();
    }
    let mut counts: Vec<(&str, usize)> = Vec::new();
    for s in &report.segments {
        match counts.iter_mut().find(|(d, _)| *d == s.domain) {
            Some((_, c)) => *c += 1,
            None => counts.push((s.domain, 1)),
        }
    }
    counts
        .iter()
        .map(|(d, c)| format!("{d}={c}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Renders an `inequivalent` overall verdict to stderr: names the first
/// failing pass and the verifier's explanation.
fn report_inequivalent(v: &qutes_analysis::OptimizationVerification) {
    let pass = v.first_problem().map_or("pipeline", |b| b.pass);
    let detail = v
        .first_problem()
        .and_then(|b| b.report.detail.clone())
        .unwrap_or_else(|| "proven inequivalent".into());
    eprintln!(
        "error: verification failed: optimizer pass '{pass}' produced an \
         inequivalent rewrite: {detail}\n\
         this is a compiler bug, not a program error — bypass with --opt-level 0 \
         and please report the program"
    );
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))
}

/// Renders the collector snapshot per the requested observability flags.
///
/// `--trace` and `--profile` go to stderr so they compose with piped
/// program output; `--stats-json` writes the snapshot JSON to the given
/// path (`-` for stdout). This runs on **every** exit path of `run` —
/// success, typed error, deadline trip, contained panic — with
/// `aborted` recording whether the run completed; a failed run still
/// leaves its partial stage timings behind for diagnosis.
fn report_observability(args: &Args, aborted: bool) -> Result<(), String> {
    let snap = qutes_obs::snapshot();
    if args.trace {
        eprint!("{}", snap.render_trace());
    }
    if args.profile {
        eprint!("{}", snap.render_profile());
    }
    if let Some(path) = &args.stats_json {
        let json = snap.to_json_tagged(aborted);
        if path == "-" {
            outln!("{json}");
        } else {
            std::fs::write(path, json.as_bytes())
                .map_err(|e| format!("cannot write '{path}': {e}"))?;
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        return usage();
    };
    let args = match parse_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let source = match read(&args.path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Debug/CI builds validate every optimizer rewrite in-line; release
    // builds never consult the validator (zero overhead — see
    // docs/verification.md). Installing is idempotent.
    qutes_analysis::install_optimizer_guard();

    match cmd.as_str() {
        "run" => {
            let cfg = RunConfig {
                seed: args.seed,
                max_steps: args.max_steps,
                noise: noise_from_args(&args),
                shots: args.shots,
                shot_threads: args.shot_threads,
                memory_budget_bytes: args.mem_budget,
                opt_level: args.opt_level,
                observe: args.observing(),
                time_budget: args.time_budget_ms.map(Duration::from_millis),
                backend: args.backend,
                ..RunConfig::default()
            };
            if args.observing() {
                // Enable before the lint gate so `stage.analyze` and
                // `stage.typecheck` land in the same trace/profile.
                qutes_obs::reset();
                qutes_obs::set_enabled(true);
            }
            if args.lint {
                if let Err(code) = lint_gate(&source, &args) {
                    if args.observing() {
                        let _ = report_observability(&args, true);
                    }
                    return code;
                }
            }
            match qutes::run_source(&source, &cfg) {
                Ok(out) => {
                    for line in &out.output {
                        outln!("{line}");
                    }
                    if args.draw {
                        out!("{}", qutes_qcirc::draw(&out.circuit));
                    }
                    if let Some(counts) = &out.counts {
                        if out.degraded {
                            outln!(
                                "-- histogram ({} of {} shots; degraded) --",
                                counts.shots(),
                                args.shots
                            );
                        } else {
                            outln!("-- histogram ({} shots) --", counts.shots());
                        }
                        out!("{counts}");
                    }
                    if out.degraded {
                        if let Some(reason) = &out.stop_reason {
                            eprintln!("warning: run degraded: {reason}");
                        } else {
                            eprintln!("warning: run degraded");
                        }
                    }
                    if args.stats {
                        let stats = out.circuit.stats();
                        eprintln!(
                            "[stats] backend={} qubits={} measurements={} ops={} depth={} \
                             shot_threads={}",
                            out.backend,
                            out.qubits_used,
                            out.measurements,
                            stats.size,
                            stats.depth,
                            qutes_qcirc::execute::shot_pool::resolve_workers(
                                args.shot_threads,
                                args.shots
                            )
                        );
                        match qutes_qcirc::optimize(&out.circuit, args.opt_level) {
                            Ok((_, r)) => eprintln!(
                                "[opt] level={} gates {} -> {} depth {} -> {} \
                                 (cancelled={} merged={} fused={} reduction={:.1}%)",
                                r.level,
                                r.gates_before,
                                r.gates_after,
                                r.depth_before,
                                r.depth_after,
                                r.cancelled,
                                r.merged,
                                r.fused,
                                100.0 * r.gate_reduction()
                            ),
                            Err(e) => eprintln!("[opt] failed: {e}"),
                        }
                    }
                    // `--verify`: translation-validate the optimizer
                    // over the circuit this run accumulated, at the
                    // run's own --opt-level. Refuse (non-zero exit) on
                    // a proven-inequivalent rewrite; an `unknown` is
                    // sound to keep and only warns.
                    let verify_failed = if args.verify {
                        match verify_contained(&out.circuit, args.opt_level) {
                            Err(e) => {
                                eprintln!("error: {e}");
                                true
                            }
                            Ok(v) => match v.verdict {
                                qutes_analysis::Verdict::Inequivalent => {
                                    report_inequivalent(&v);
                                    true
                                }
                                qutes_analysis::Verdict::Unknown => {
                                    let unknown = v
                                        .boundaries
                                        .iter()
                                        .filter(|b| {
                                            b.report.verdict == qutes_analysis::Verdict::Unknown
                                        })
                                        .count();
                                    eprintln!(
                                        "warning: verification inconclusive: {unknown} of {} \
                                         rewrite boundaries exceeded every exact domain \
                                         (sound to run; see docs/verification.md)",
                                        v.boundaries.len()
                                    );
                                    false
                                }
                                qutes_analysis::Verdict::Equivalent => false,
                            },
                        }
                    } else {
                        false
                    };
                    if args.observing() {
                        if let Err(e) = report_observability(&args, verify_failed) {
                            eprintln!("error: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                    if verify_failed {
                        return ExitCode::FAILURE;
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    // Capacity/backend refusals depend on which engine's
                    // limits were consulted — name the choice, so "too
                    // many qubits" under `--backend statevector` is
                    // distinguishable from the same program overflowing
                    // the tableau cap. Under `auto` the run may have been
                    // refused at promotion; the `backend.refused.*`
                    // counters name the engine.
                    let resource_refusal = matches!(
                        &e,
                        QutesError::Sim(qutes_sim::SimError::TooManyQubits(_))
                            | QutesError::Sim(qutes_sim::SimError::AllocationFailed { .. })
                            | QutesError::Circuit(qutes_qcirc::CircError::ResourceLimit { .. })
                            | QutesError::Circuit(
                                qutes_qcirc::CircError::BackendUnsupported { .. }
                            )
                    );
                    if resource_refusal {
                        eprintln!("error: refused on the '{}' backend:", cfg.backend);
                    }
                    eprintln!("{}", e.render(&source));
                    if args.observing() {
                        // Flush the partial snapshot with the abort
                        // marker so a bounded/failed run still leaves
                        // its stage timings behind (the `backend.*`
                        // counters record the attempted engine).
                        let _ = report_observability(&args, true);
                    }
                    ExitCode::FAILURE
                }
            }
        }
        "verify" => {
            let cfg = RunConfig {
                seed: args.seed,
                max_steps: args.max_steps,
                time_budget: args.time_budget_ms.map(Duration::from_millis),
                ..RunConfig::default()
            };
            // Runs like `run` would: wide Clifford programs (e.g.
            // examples/programs/ghz_100.qut) stay on the tableau.
            let out = match qutes::run_source(&source, &cfg) {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("{}", e.render(&source));
                    return ExitCode::FAILURE;
                }
            };
            // Noise-free `auto` starts on the tableau, so ending on the
            // statevector means the run was promoted.
            outln!(
                "engine: {}{}",
                out.backend,
                if out.backend == qutes_qcirc::BackendKind::Statevector {
                    " (promoted from tableau at the first non-Clifford gate)"
                } else {
                    ""
                }
            );
            let mut worst = qutes_analysis::Verdict::Equivalent;
            for level in 1..=2u8 {
                match verify_contained(&out.circuit, level) {
                    Err(e) => {
                        eprintln!("error: {e}");
                        return ExitCode::FAILURE;
                    }
                    Ok(v) => {
                        outln!("opt-level {level}: {}", v.verdict.name());
                        for b in &v.boundaries {
                            outln!(
                                "  [{}] {:<12} {:<12} {}",
                                b.index,
                                b.pass,
                                b.report.verdict.name(),
                                domain_summary(&b.report)
                            );
                        }
                        worst = worst.join(v.verdict);
                        if v.verdict == qutes_analysis::Verdict::Inequivalent {
                            report_inequivalent(&v);
                        }
                    }
                }
            }
            match worst {
                qutes_analysis::Verdict::Inequivalent => ExitCode::FAILURE,
                qutes_analysis::Verdict::Unknown => {
                    eprintln!(
                        "warning: some rewrite boundaries exceeded every exact domain \
                         (sound unknown; see docs/verification.md)"
                    );
                    // Mirrors lint: strict callers (CI) can insist on a
                    // full proof rather than a sound "too wide to check".
                    if args.deny_warnings {
                        eprintln!("error: unverified rewrite rejected by --deny-warnings");
                        ExitCode::FAILURE
                    } else {
                        ExitCode::SUCCESS
                    }
                }
                qutes_analysis::Verdict::Equivalent => ExitCode::SUCCESS,
            }
        }
        "lint" => match analyze_contained(&source, &lint_options(&args)) {
            Err(p) => {
                eprintln!("error: {p}");
                ExitCode::FAILURE
            }
            Ok(Ok(report)) => {
                if args.lint_json {
                    out!("{}", report.to_json(&source));
                } else {
                    out!("{}", report.render(&source));
                }
                if report.denied().is_empty() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Ok(Err(diags)) => {
                for d in diags {
                    eprint!("{}", d.render(&source));
                }
                ExitCode::FAILURE
            }
        },
        "check" => match parse(&source) {
            Ok(program) => {
                let diags = qutes_core::check_program(&program);
                if diags.is_empty() {
                    outln!("ok");
                    ExitCode::SUCCESS
                } else {
                    for d in diags {
                        eprint!("{}", d.render(&source));
                    }
                    ExitCode::FAILURE
                }
            }
            Err(diags) => {
                for d in diags {
                    eprint!("{}", d.render(&source));
                }
                ExitCode::FAILURE
            }
        },
        "fmt" => match parse(&source) {
            Ok(program) => {
                out!("{}", print_program(&program));
                ExitCode::SUCCESS
            }
            Err(diags) => {
                for d in diags {
                    eprint!("{}", d.render(&source));
                }
                ExitCode::FAILURE
            }
        },
        "qasm" => {
            let cfg = RunConfig {
                seed: args.seed,
                max_steps: args.max_steps,
                time_budget: args.time_budget_ms.map(Duration::from_millis),
                ..RunConfig::default()
            };
            match qutes::run_source(&source, &cfg) {
                Ok(out) => {
                    let rendered = if args.v3 {
                        to_qasm3(&out.circuit)
                    } else {
                        to_qasm2(&out.circuit)
                    };
                    match rendered {
                        Ok(text) => {
                            if let Some(path) = &args.out {
                                if let Err(e) = std::fs::write(path, &text) {
                                    eprintln!("error: cannot write '{path}': {e}");
                                    return ExitCode::FAILURE;
                                }
                            } else {
                                out!("{text}");
                            }
                            ExitCode::SUCCESS
                        }
                        Err(e) => {
                            eprintln!("error: {e}");
                            ExitCode::FAILURE
                        }
                    }
                }
                Err(e) => {
                    eprintln!("{}", e.render(&source));
                    ExitCode::FAILURE
                }
            }
        }
        other => {
            eprintln!("error: unknown command '{other}'");
            usage()
        }
    }
}
