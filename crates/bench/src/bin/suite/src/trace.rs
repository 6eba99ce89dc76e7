//! The per-layer breakdown behind `--traced`.
//!
//! For each of the first requests of a workload, three passes run back
//! to back, so drift on a shared host hits all three alike:
//!
//! 1. **untraced**: `qutes::run_source` as users call it;
//! 2. **layered**: the same pipeline split into timed calls to each
//!    layer's public function (dispatch, parse, typecheck, live run,
//!    optimize, shot replay), whose outcome must pass the same oracle;
//! 3. **observed**: `run_source` with `observe = true`, read back from
//!    the existing `qutes-obs` counters and timers.
//!
//! Nothing is instrumented inside the library. Every value is a mean
//! per request.

use crate::json::Json;
use crate::workloads::{check, run_job, Job, Prepared};
use qutes::obs::Snapshot;
use qutes::qcirc::{execute::run_shots_supervised, BackendChoice, ExecutionConfig};
use qutes::RunConfig;
use std::time::{Duration, Instant};

/// Requests a traced run splits.
pub const TRACED_REQUESTS: usize = 32;

/// `(name, unit)` of every per-layer metric, in report order.
pub const METRICS: [(&str, &str); 24] = [
    ("frontend.parse_ms", "ms"),
    ("frontend.tokens", "count"),
    ("frontend.parse_calls", "count"),
    ("analysis.dispatch_ms", "ms"),
    ("analysis.dispatch_frac", "ratio"),
    ("analysis.tableau_frac", "ratio"),
    ("core.typecheck_ms", "ms"),
    ("core.interp_ms", "ms"),
    ("core.gates", "count"),
    ("core.qubits", "count"),
    ("core.measurements", "count"),
    ("qcirc.optimize_ms", "ms"),
    ("qcirc.gates_after_opt", "count"),
    ("qcirc.replay_ms", "ms"),
    ("qcirc.shots_simulated", "count"),
    ("qcirc.per_shot_frac", "ratio"),
    ("qsim.kernel_ms", "ms"),
    ("qsim.kernel_calls", "count"),
    ("qsim.fused_calls", "count"),
    ("qsim.noise_faults", "count"),
    ("layers.run_ms", "ms"),
    ("layers.sum_ms", "ms"),
    ("layers.unaccounted_frac", "ratio"),
    ("obs.overhead_frac", "ratio"),
];

/// Sums over all traced requests; divided by the request count at the end.
#[derive(Default)]
struct Totals {
    untraced: Duration,
    observed: Duration,
    dispatch: Duration,
    parse: Duration,
    typecheck: Duration,
    interp: Duration,
    optimize: Duration,
    replay: Duration,
    tokens: usize,
    gates: usize,
    qubits: usize,
    measurements: usize,
    gates_after_opt: usize,
    runs: u64,
    parse_calls: u64,
    engines_tableau: u64,
    engines_statevector: u64,
    shots: u64,
    replays_per_shot: u64,
    replays_batched: u64,
    kernel_ns: u128,
    kernel_calls: u64,
    fused_calls: u64,
    noise_faults: u64,
}

/// Outcome of a traced run.
pub struct Traced {
    pub metrics: Json,
    pub attempted: usize,
    pub failed: usize,
    pub first_error: Option<String>,
}

pub fn run(prep: &Prepared, requests: usize) -> Traced {
    let mut t = Totals::default();
    let (mut attempted, mut failed, mut first_error) = (0, 0, None);
    let passes: [Pass; 3] = [untraced, layered, observed];
    for i in 0..requests {
        for pass in passes {
            attempted += 1;
            let mut result = Ok(());
            for job in prep.request(i) {
                result = result.and(pass(job, &prep.config(job, i), &mut t));
            }
            if let Err(e) = result {
                failed += 1;
                first_error.get_or_insert(e);
            }
        }
    }
    Traced {
        metrics: t.report(requests),
        attempted,
        failed,
        first_error,
    }
}

type Pass = fn(&Job, &RunConfig, &mut Totals) -> Result<(), String>;

fn timed<T>(at: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *at += start.elapsed();
    out
}

fn untraced(job: &Job, cfg: &RunConfig, t: &mut Totals) -> Result<(), String> {
    let (took, verdict) = run_job(job, cfg);
    t.untraced += took;
    verdict
}

/// `run_source` taken apart into the calls the facade and
/// `qutes_core::run_source` make, in their order, with the replay
/// configured as the runtime configures it.
fn layered(job: &Job, cfg: &RunConfig, t: &mut Totals) -> Result<(), String> {
    let fail = |e: &dyn std::fmt::Display| format!("{}: {e}", job.name);
    t.tokens += qutes::frontend::lex(&job.source).map_or(0, |toks| toks.len());
    let backend = timed(&mut t.dispatch, || qutes::resolve_backend(&job.source, cfg));
    let program =
        timed(&mut t.parse, || qutes::parse(&job.source)).map_err(|d| fail(&format!("{d:?}")))?;
    let diags = timed(&mut t.typecheck, || qutes::core::check_program(&program));
    if !diags.is_empty() {
        return Err(fail(&format!("{diags:?}")));
    }
    let live = RunConfig {
        backend,
        shots: 0,
        ..cfg.clone()
    };
    let mut out = timed(&mut t.interp, || qutes::core::run_program(&program, &live))
        .map_err(|e| fail(&e.render(&job.source)))?;
    let (_, report) = timed(&mut t.optimize, || {
        qutes::qcirc::optimize(&out.circuit, cfg.opt_level)
    })
    .map_err(|e| fail(&e))?;
    t.gates += out.circuit.len();
    t.gates_after_opt += report.gates_after;
    t.qubits += out.qubits_used;
    t.measurements += out.measurements;
    // Timed even when it does nothing (no shots), like the runtime's
    // own guard.
    let replay = timed(&mut t.replay, || {
        if cfg.shots == 0 || out.circuit.num_clbits() == 0 {
            return Ok(None);
        }
        let mut exec = ExecutionConfig::default()
            .with_shots(cfg.shots)
            .with_seed(cfg.seed)
            .with_opt_level(cfg.opt_level)
            .with_shot_threads(cfg.shot_threads)
            .with_backend(match backend {
                BackendChoice::Auto => BackendChoice::Statevector,
                other => other,
            });
        if let Some(nm) = &cfg.noise {
            exec = exec.with_noise(nm.clone());
        }
        run_shots_supervised(&out.circuit, &exec).map(Some)
    })
    .map_err(|e| fail(&e))?;
    if let Some(shots) = replay {
        out.counts = Some(shots.counts);
        out.degraded = shots.degraded;
        out.stop_reason = shots.stop;
    }
    check(job, &out)
}

fn observed(job: &Job, cfg: &RunConfig, t: &mut Totals) -> Result<(), String> {
    let cfg = RunConfig {
        observe: true,
        ..cfg.clone()
    };
    // Enabled before the call, as the CLI does, so the facade's
    // dispatch (which runs before `observe` takes effect) is recorded.
    qutes::obs::reset();
    qutes::obs::set_enabled(true);
    let (took, verdict) = run_job(job, &cfg);
    // `observe` switches the process-global collector on and leaves it
    // on; the next untraced pass must not pay for it.
    qutes::obs::set_enabled(false);
    t.observed += took;
    t.absorb(&qutes::obs::snapshot());
    verdict
}

impl Totals {
    fn absorb(&mut self, snap: &Snapshot) {
        let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        let timer = |name: &str| {
            snap.timers
                .get(name)
                .map_or((0, 0), |stat| (stat.count, stat.total_ns))
        };
        self.runs += 1;
        self.parse_calls += timer("stage.parse").0;
        let (tableau, statevector) = (counter("backend.tableau"), counter("backend.statevector"));
        self.engines_tableau += tableau;
        self.engines_statevector += statevector;
        self.shots += counter("sim.shots");
        self.replays_per_shot += counter("backend.mode.per_shot");
        self.replays_batched += counter("backend.mode.batched");
        for (name, stat) in &snap.timers {
            if name.starts_with("kernel.") {
                self.kernel_ns += stat.total_ns;
                self.kernel_calls += stat.count;
            }
        }
        // The tableau records no per-kernel timers; on a run that used
        // only the tableau, its simulate time is the engine's time.
        if tableau > 0 && statevector == 0 {
            self.kernel_ns += timer("stage.simulate").1;
        }
        self.fused_calls += timer("kernel.2q_fused").0 + timer("kernel.3q_fused").0;
        self.noise_faults += snap
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("noise.faults."))
            .map(|(_, v)| v)
            .sum::<u64>();
    }

    fn report(&self, requests: usize) -> Json {
        let n = requests.max(1) as f64;
        let ms = |d: Duration| d.as_secs_f64() * 1e3 / n;
        let per = |x: f64| x / n;
        let frac = |part: u64, rest: u64| {
            if part + rest == 0 {
                0.0
            } else {
                part as f64 / (part + rest) as f64
            }
        };
        let run_ms = ms(self.untraced);
        let sum_ms = ms(self.dispatch + self.parse + self.typecheck + self.interp + self.replay);
        let values: [f64; 24] = [
            ms(self.parse),
            per(self.tokens as f64),
            self.parse_calls as f64 / self.runs.max(1) as f64,
            ms(self.dispatch),
            ms(self.dispatch) / run_ms,
            frac(self.engines_tableau, self.engines_statevector),
            ms(self.typecheck),
            ms(self.interp),
            per(self.gates as f64),
            per(self.qubits as f64),
            per(self.measurements as f64),
            ms(self.optimize),
            per(self.gates_after_opt as f64),
            ms(self.replay),
            per(self.shots as f64),
            frac(self.replays_per_shot, self.replays_batched),
            self.kernel_ns as f64 / 1e6 / n,
            per(self.kernel_calls as f64),
            per(self.fused_calls as f64),
            per(self.noise_faults as f64),
            run_ms,
            sum_ms,
            1.0 - sum_ms / run_ms,
            ms(self.observed) / run_ms - 1.0,
        ];
        let mut out = Json::obj();
        for ((name, _), v) in METRICS.iter().zip(values) {
            out.set(name, v);
        }
        out
    }
}
