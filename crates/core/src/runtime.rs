//! The Qutes interpreter: runs the walker of [`crate::interp`] over the
//! concrete domain, running classical operations natively and lowering
//! quantum operations into the [`QuantumCircuitHandler`] (the paper's
//! two-pass design, §3 — a symbol/declaration pass, then an operation
//! pass that "translates quantum operations into corresponding quantum
//! circuit instructions, while non-quantum operations are executed
//! directly").
//!
//! The symbol pass is the type checker: every run checks its program
//! first and runs the checker's typed resolution, so no value's type is
//! decided again at run time. A program the checker rejects does not run.

use crate::casting::TypeCastingHandler as Cast;
use crate::error::{QutesError, QutesResult};
use crate::handler::QuantumCircuitHandler;
use crate::interp::{Domain, Flow, Interp, Role};
use crate::lower::SubstringSearch;
use crate::ops;
use crate::resolution::{Builtin, Resolution, Stmt};
use crate::types;
use crate::value::{cell, Cell, QuantumRef, Value};
use qutes_frontend::ast::{Program, Type};
use qutes_frontend::{parse_with_interrupt, ParseFailure, Span};
use qutes_qcirc::{Gate, QuantumCircuit};
use qutes_supervisor::{failpoint, Interrupt, StopReason};
use std::cell::RefCell;
use std::convert::Infallible;
use std::rc::Rc;
use std::time::Duration;

/// How the runtime responds when a run is cut short (deadline,
/// cancellation) or refused resources. See `docs/robustness.md`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DegradePolicy {
    /// Return a partial shot histogram flagged [`RunOutcome::degraded`]
    /// (instead of an error) when the deadline trips mid-replay with at
    /// least one shot completed. Default `true`.
    pub allow_partial: bool,
    /// Retry a *transient* failure (see [`QutesError::is_transient`])
    /// once, after a short backoff, at reduced settings: half the shots
    /// and `opt_level <= 1`. Never retries deadline trips or
    /// cancellations. Default `false`.
    pub auto_retry: bool,
}

impl Default for DegradePolicy {
    fn default() -> Self {
        DegradePolicy {
            allow_partial: true,
            auto_retry: false,
        }
    }
}

/// Execution configuration.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// RNG seed (measurements are reproducible given a seed).
    pub seed: u64,
    /// Statement-execution budget (guards against infinite `while`).
    pub max_steps: u64,
    /// Function-call nesting budget (guards against runaway recursion —
    /// each Qutes frame costs native stack, so this errors cleanly long
    /// before the process would overflow).
    pub max_call_depth: usize,
    /// Optional fault model applied to every gate and measurement as the
    /// interpreter plays them onto the live state, and to the `shots`
    /// histogram re-execution.
    pub noise: Option<qutes_sim::NoiseModel>,
    /// When non-zero, the accumulated circuit is re-executed this many
    /// shots after the program completes (under the same noise model) and
    /// the histogram is returned in [`RunOutcome::counts`].
    pub shots: usize,
    /// Cap on the dense-statevector allocation in bytes (`16 * 2^n`),
    /// enforced before every qubit allocation.
    pub memory_budget_bytes: Option<u64>,
    /// Circuit-optimization level for the post-run shot replay
    /// (0 = off, 1 = cancel/merge, 2 = +fusion). Default 1.
    pub opt_level: u8,
    /// Enables the process-global `qutes-obs` collector before the run:
    /// stage spans (lex/parse/typecheck/op_pass/optimize/
    /// simulate), per-kernel timers, and per-gate counters. The caller
    /// snapshots with `qutes_obs::snapshot()` afterwards. Off by default;
    /// a disabled collector costs one atomic load per recording site.
    pub observe: bool,
    /// Wall-clock budget for the whole run (parse through shot replay).
    /// When it expires, cooperative checkpoints return
    /// [`QutesError::Interrupted`] (or a degraded partial outcome, per
    /// [`DegradePolicy::allow_partial`]). `None` (the default) means
    /// unbounded.
    pub time_budget: Option<Duration>,
    /// External interrupt handle. Supply one to cancel a run from
    /// another thread ([`Interrupt::cancel`]); the same handle is armed
    /// with [`Self::time_budget`] when set. `None` creates a private
    /// handle per run.
    pub interrupt: Option<Interrupt>,
    /// Graceful-degradation policy for deadline trips and transient
    /// resource refusals.
    pub degrade: DegradePolicy,
    /// Which simulation engine executes the program (live interpretation
    /// *and* the shot replay). [`qutes_qcirc::BackendChoice::Auto`]
    /// starts a noise-free run on the stabilizer tableau and promotes it
    /// to the dense statevector at its first non-Clifford gate; a noisy
    /// run starts on the statevector. The replay runs on the engine the
    /// live run ended on (see `docs/backends.md`).
    pub backend: qutes_qcirc::BackendChoice,
    /// Worker threads for grouped replay, noisy or not (`0` = auto-size
    /// from [`std::thread::available_parallelism`], `1` = serial).
    /// Histograms are bit-for-bit identical at every value because each
    /// shot draws from its own counter-derived RNG stream; batched
    /// (noise-free, measure-at-end) replays ignore this knob.
    pub shot_threads: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            seed: 0,
            max_steps: 1_000_000,
            max_call_depth: 100,
            noise: None,
            shots: 0,
            memory_budget_bytes: None,
            opt_level: 1,
            observe: false,
            time_budget: None,
            interrupt: None,
            degrade: DegradePolicy::default(),
            backend: qutes_qcirc::BackendChoice::Auto,
            shot_threads: 0,
        }
    }
}

impl RunConfig {
    /// The interrupt handle this run will observe: the configured one
    /// (or a fresh one), with [`Self::time_budget`] armed as a deadline
    /// counted from *now*.
    pub fn effective_interrupt(&self) -> Interrupt {
        let intr = self.interrupt.clone().unwrap_or_default();
        if let Some(budget) = self.time_budget {
            intr.set_deadline(budget);
        }
        intr
    }
}

/// Result of executing a program.
#[derive(Debug)]
pub struct RunOutcome {
    /// Lines produced by `print`.
    pub output: Vec<String>,
    /// The accumulated quantum circuit.
    pub circuit: QuantumCircuit,
    /// Number of collapsing measurements performed.
    pub measurements: usize,
    /// Total qubits allocated.
    pub qubits_used: usize,
    /// The engine the live run ended on: under
    /// [`qutes_qcirc::BackendChoice::Auto`], the tableau unless the run
    /// was promoted to the statevector at a non-Clifford gate.
    pub backend: qutes_qcirc::BackendKind,
    /// Shot histogram of the accumulated circuit, present when
    /// [`RunConfig::shots`] was non-zero and the program measured
    /// anything.
    pub counts: Option<qutes_qcirc::Counts>,
    /// True when the outcome is partial: the shot replay was cut short
    /// by a deadline/cancellation and [`DegradePolicy::allow_partial`]
    /// let it return the shots completed so far.
    pub degraded: bool,
    /// Why the run stopped early, when [`Self::degraded`] is set.
    pub stop_reason: Option<StopReason>,
}

/// Parses, type-checks, and runs a Qutes source file.
///
/// The whole pipeline — parse, typecheck, interpretation, shot replay —
/// shares one [`Interrupt`] handle (see
/// [`RunConfig::effective_interrupt`]), so a deadline set here bounds
/// the run end to end.
pub fn run_source(source: &str, config: &RunConfig) -> QutesResult<RunOutcome> {
    if config.observe {
        qutes_obs::set_enabled(true);
    }
    let intr = config.effective_interrupt();
    let program = match parse_with_interrupt(source, &intr) {
        Ok(p) => p,
        Err(ParseFailure::Diagnostics(ds)) => return Err(QutesError::Compile(ds)),
        Err(ParseFailure::Interrupted(reason)) => return Err(QutesError::Interrupted(reason)),
    };
    check_and_run(&program, config, &intr)
}

/// Type-checks and runs an already-parsed program, as [`run_source`]
/// does after parsing: a program the checker rejects does not run, and
/// the error holds the checker's diagnostics.
pub fn run_program(program: &Program, config: &RunConfig) -> QutesResult<RunOutcome> {
    check_and_run(program, config, &config.effective_interrupt())
}

/// The symbol pass, then the operation pass. The checker is also the
/// resolver: one walk gives the diagnostics and the typed resolution.
fn check_and_run(
    program: &Program,
    config: &RunConfig,
    intr: &Interrupt,
) -> QutesResult<RunOutcome> {
    let resolution = {
        let _span = qutes_obs::span("stage.typecheck");
        intr.check()?;
        let (resolution, diags) = types::resolve(program);
        if !diags.is_empty() {
            return Err(QutesError::Compile(diags));
        }
        resolution
    };
    run_supervised(&resolution, config, intr)
}

/// One run with retry-once degradation: a transient failure (resource
/// refusal) is retried at reduced settings when
/// [`DegradePolicy::auto_retry`] is set and the interrupt has not
/// tripped.
fn run_supervised(
    program: &Resolution<'_>,
    config: &RunConfig,
    intr: &Interrupt,
) -> QutesResult<RunOutcome> {
    match run_attempt(program, config, intr) {
        Err(e) if e.is_transient() && config.degrade.auto_retry && intr.check().is_ok() => {
            qutes_obs::counter_add("supervisor.retries", 1);
            // Brief backoff so a momentarily-contended allocator gets a
            // chance to recover before the (single) retry.
            std::thread::sleep(Duration::from_millis(25));
            let mut reduced = config.clone();
            reduced.shots = if config.shots > 1 {
                config.shots / 2
            } else {
                config.shots
            };
            reduced.opt_level = config.opt_level.min(1);
            reduced.degrade.auto_retry = false;
            run_attempt(program, &reduced, intr)
        }
        other => other,
    }
}

fn run_attempt(
    program: &Resolution<'_>,
    config: &RunConfig,
    intr: &Interrupt,
) -> QutesResult<RunOutcome> {
    if config.observe {
        qutes_obs::set_enabled(true);
    }
    failpoint("core.run")
        .map_err(|_| QutesError::Sim(qutes_sim::SimError::AllocationFailed { bytes: 0 }))?;

    // Reject malformed noise probabilities before anything executes.
    if let Some(nm) = &config.noise {
        nm.validate().map_err(|e| {
            QutesError::runtime(format!("invalid noise model: {e}"), Span::default())
        })?;
    }

    // The operation pass: execute.
    let mut handler = QuantumCircuitHandler::with_backend(
        config.seed,
        config.noise.clone(),
        config.memory_budget_bytes,
        config.backend,
    )?;
    handler.set_interrupt(intr.clone());
    let run = Run {
        handler,
        output: Vec::new(),
        interrupt: intr.clone(),
        interrupt_ck: 0,
    };
    let mut interp = Interp::new(program, run, config.max_steps, config.max_call_depth);
    let op_pass = {
        let _span = qutes_obs::span("stage.op_pass");
        // Runs until the end or a top-level `return`.
        interp.exec_stmts(&program.main).map(|_| ())
    };
    // Counted once per run, for the engine the live run ended on (an
    // `Auto` run may have been promoted from the tableau).
    let backend = interp.dom.handler.backend_kind();
    qutes_obs::counter_add(backend.counter_name(), 1);
    op_pass?;
    // Release the interpreter and the live engine before the replay:
    // keep what the outcome reports and move the circuit out.
    let Run {
        output, handler, ..
    } = interp.dom;
    let measurements = handler.measurements();
    let qubits_used = handler.num_qubits();
    let circuit = handler.into_circuit();

    // Optional post-run histogram: replay the accumulated circuit under
    // the same seed/noise/budget configuration. The replay observes the
    // run's interrupt handle, and — when the policy allows — degrades
    // to the shots completed so far instead of discarding them.
    let (counts, degraded, stop_reason) = if config.shots > 0 && circuit.num_clbits() > 0 {
        let mut exec_cfg = qutes_qcirc::ExecutionConfig::default()
            .with_shots(config.shots)
            .with_seed(config.seed)
            .with_opt_level(config.opt_level)
            .with_observe(config.observe)
            .with_shot_threads(config.shot_threads)
            .with_interrupt(intr.clone())
            // Replay on the engine the live run ended on.
            .with_backend(match backend {
                qutes_qcirc::BackendKind::Statevector => qutes_qcirc::BackendChoice::Statevector,
                qutes_qcirc::BackendKind::Tableau => qutes_qcirc::BackendChoice::Tableau,
            });
        if let Some(nm) = &config.noise {
            exec_cfg = exec_cfg.with_noise(nm.clone());
        }
        if let Some(b) = config.memory_budget_bytes {
            exec_cfg = exec_cfg.with_memory_budget(b);
        }
        if config.degrade.allow_partial {
            let outcome = qutes_qcirc::execute::run_shots_supervised(&circuit, &exec_cfg)?;
            (Some(outcome.counts), outcome.degraded, outcome.stop)
        } else {
            let counts = qutes_qcirc::execute::run_shots_cfg(&circuit, &exec_cfg)?;
            (Some(counts), false, None)
        }
    } else {
        (None, false, None)
    };

    Ok(RunOutcome {
        output,
        measurements,
        qubits_used,
        backend,
        circuit,
        counts,
        degraded,
        stop_reason,
    })
}

/// The concrete domain: a run. Every value is a [`Value`], every
/// condition is known, gates go to the live [`QuantumCircuitHandler`],
/// and draws take the handler's seeded RNG.
struct Run {
    handler: QuantumCircuitHandler,
    output: Vec<String>,
    interrupt: Interrupt,
    interrupt_ck: u64,
}

impl Domain for Run {
    type Val = Value;
    type Cell = Cell;
    type Unknown = Infallible;
    type Sink = QuantumCircuitHandler;

    #[inline(always)]
    fn sink(&mut self) -> &mut QuantumCircuitHandler {
        &mut self.handler
    }

    #[inline(always)]
    fn value(v: &Value) -> Result<&Value, Infallible> {
        Ok(v)
    }

    #[inline(always)]
    fn split(v: Value) -> Result<Value, (Infallible, Value)> {
        Ok(v)
    }

    fn new_cell(&mut self, v: Value) -> Cell {
        cell(v)
    }

    #[inline(always)]
    fn read<R>(&self, c: &Cell, f: impl FnOnce(&Value) -> R) -> R {
        f(&c.borrow())
    }

    #[inline(always)]
    fn write(&mut self, c: &Cell, v: Value) {
        *c.borrow_mut() = v;
    }

    fn array(&mut self, _: &Type, items: Vec<Value>) -> Value {
        Value::Array(Rc::new(RefCell::new(items.into_iter().map(cell).collect())))
    }

    fn cells(&self, v: &Value) -> Option<Vec<Cell>> {
        match v {
            Value::Array(items) => Some(items.borrow().clone()),
            _ => None,
        }
    }

    fn element(&self, arr: &Value, i: usize, span: Span) -> QutesResult<Result<Cell, Infallible>> {
        match arr {
            Value::Array(items) => {
                let items = items.borrow();
                items.get(i).cloned().map(Ok).ok_or_else(|| {
                    QutesError::runtime(
                        format!(
                            "index {i} out of bounds for array of length {}",
                            items.len()
                        ),
                        span,
                    )
                })
            }
            other => Err(QutesError::runtime(
                format!("cannot index into {}", other.type_name()),
                span,
            )),
        }
    }

    #[inline]
    fn index(&self, base: &Value, i: usize, span: Span) -> QutesResult<Value> {
        ops::index_value(base, i, span)
    }

    fn measure(&mut self, q: &QuantumRef) -> QutesResult<Value> {
        Cast::measure_to_classical(&mut self.handler, q)
    }

    /// Grover search over start positions ([`SubstringSearch`]), each
    /// round drawing its iteration count at random and verifying the
    /// measured candidate against the text window.
    fn search(
        it: &mut Interp<'_, '_, Self>,
        pattern: Result<Vec<bool>, Infallible>,
        hay: &[usize],
        span: Span,
    ) -> QutesResult<Value> {
        let Ok(pattern) = pattern;
        let h = &mut it.dom.handler;
        let m = pattern.len();
        let search = SubstringSearch::prepare(h, &pattern, hay, span)?;
        // Absent patterns exhaust the schedule and return false; present
        // patterns succeed with overwhelming probability within
        // O(sqrt(positions)) expected oracle calls.
        use rand::Rng as _;
        for max_k in search.schedule() {
            let k = h.rng().random_range(0..max_k + 1);
            search.amplify(h, k)?;
            let candidate = h.measure(&search.pos)? as usize;
            // Reset the (collapsed) position register to |0> so the next
            // round can re-prepare it.
            for (bit, &pq) in search.pos.iter().enumerate() {
                if candidate >> bit & 1 == 1 {
                    h.apply(Gate::X(pq))?;
                }
            }
            if candidate < search.positions {
                let window = &hay[candidate..candidate + m];
                let observed = h.measure(window)?;
                let matches = pattern
                    .iter()
                    .enumerate()
                    .all(|(j, &p)| (observed >> j & 1 == 1) == p);
                if matches {
                    h.release_ancillas(&search.pos);
                    return Ok(Value::Bool(true));
                }
            }
        }
        h.release_ancillas(&search.pos);
        Ok(Value::Bool(false))
    }

    fn extremum(&mut self, builtin: Builtin, values: &[u64]) -> QutesResult<Value> {
        let res = if builtin == Builtin::Qmin {
            qutes_algos::minmax::quantum_minimum(values, self.handler.rng())
        } else {
            qutes_algos::minmax::quantum_maximum(values, self.handler.rng())
        }
        .map_err(QutesError::Circuit)?;
        Ok(Value::Int(res.value as i64))
    }

    fn print(&mut self, v: Value) {
        self.output.push(v.to_string());
    }

    fn barrier(&mut self) -> QutesResult<()> {
        self.handler.barrier()
    }

    /// Amortised over 16 steps so tight classical loops stay cheap, but
    /// an expired deadline or a cancellation from another thread stops
    /// interpretation promptly.
    #[inline(always)]
    fn checkpoint(&mut self) -> QutesResult<()> {
        self.interrupt
            .checkpoint_named(&mut self.interrupt_ck, 16, "stage.interp.checkpoints")?;
        Ok(())
    }

    fn too_deep(&mut self, max: usize, span: Span) -> QutesResult<Infallible> {
        Err(QutesError::runtime(
            format!("recursion exceeded {max} nested calls (raise max_call_depth to allow more)"),
            span,
        ))
    }

    fn unknown(u: Infallible, _: &Type) -> Value {
        match u {}
    }

    fn note(&mut self, u: Infallible, _: &str) {
        match u {}
    }

    fn stand_in<'p, 'a, const N: usize>(
        _: &mut Interp<'p, 'a, Self>,
        u: Infallible,
        _: [Value; N],
        _: [Role; N],
        _: impl FnOnce(&mut Interp<'p, 'a, Self>, [Value; N]) -> QutesResult<Value>,
    ) -> QutesResult<Value> {
        match u {}
    }

    fn explore<'p, 'a>(
        _: &mut Interp<'p, 'a, Self>,
        u: Infallible,
        _: impl FnOnce(&mut Interp<'p, 'a, Self>) -> QutesResult<Flow>,
        _: impl FnOnce(&mut Interp<'p, 'a, Self>) -> QutesResult<Flow>,
    ) -> QutesResult<Flow> {
        match u {}
    }

    fn havoc(_: &mut Interp<'_, '_, Self>, u: Infallible, _: Option<&Stmt<'_>>) {
        match u {}
    }
}
