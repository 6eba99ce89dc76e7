//! The Qutes interpreter: executes the AST, running classical operations
//! natively and lowering quantum operations into the
//! [`QuantumCircuitHandler`] (the paper's two-pass design, §3 — a symbol/
//! declaration pass, then an operation pass that "translates quantum
//! operations into corresponding quantum circuit instructions, while
//! non-quantum operations are executed directly").

use crate::casting::TypeCastingHandler as Cast;
use crate::error::{QutesError, QutesResult};
use crate::handler::QuantumCircuitHandler;
use crate::lower::{self, Emit, Operand, SubstringSearch};
use crate::ops;
use crate::resolution::{
    Builtin, Callee, DeclSlot, Expr, ExprKind, Function, Loc, Place, Resolution, Stmt, Var, VarType,
};
use crate::types;
use crate::value::{cell, Cell, QKind, QuantumRef, Value};
use qutes_algos::substring_oracle;
use qutes_frontend::ast::{AssignOp, BinOp, GateKind, Program, Type};
use qutes_frontend::{parse_with_interrupt, Diagnostic, ParseFailure, Span};
use qutes_qcirc::{Gate, QuantumCircuit};
use qutes_supervisor::{failpoint, Interrupt, StopReason};
use std::borrow::Cow;
use std::cell::RefCell;
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
    /// Skip the static type check (used by tests probing runtime guards).
    pub skip_typecheck: bool,
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
    /// stage spans (lex/parse/typecheck/decl_pass/op_pass/optimize/
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
            skip_typecheck: false,
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
    // The checker is also the resolver: one walk gives the diagnostics
    // and the resolved program. Without the check, only the resolution
    // is kept.
    let resolution = if config.skip_typecheck {
        resolve_unchecked(&program)
    } else {
        let _span = qutes_obs::span("stage.typecheck");
        intr.check()?;
        let (resolution, diags) = types::resolve(&program);
        if !diags.is_empty() {
            return Err(QutesError::Compile(diags));
        }
        resolution
    };
    run_supervised(&resolution, config, &intr)
}

/// Runs an already-parsed program. It is resolved but not type-checked
/// (as under [`RunConfig::skip_typecheck`]).
pub fn run_program(program: &Program, config: &RunConfig) -> QutesResult<RunOutcome> {
    run_supervised(
        &resolve_unchecked(program),
        config,
        &config.effective_interrupt(),
    )
}

/// The declaration pass of a run that skips the type check: the
/// checker's resolution, its diagnostics dropped.
fn resolve_unchecked(program: &Program) -> Resolution<'_> {
    let _span = qutes_obs::span("stage.decl_pass");
    types::resolve(program).0
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
    if !program.duplicate_functions.is_empty() {
        return Err(QutesError::Compile(program.duplicate_functions.clone()));
    }

    // Reject malformed noise probabilities before anything executes.
    if let Some(nm) = &config.noise {
        nm.validate().map_err(|e| {
            QutesError::runtime(format!("invalid noise model: {e}"), Span::default())
        })?;
    }

    // The operation pass: execute.
    let mut interp = Interp {
        functions: &program.functions,
        globals: std::iter::repeat_with(Binding::default)
            .take(program.globals)
            .collect(),
        locals: std::iter::repeat_with(Slot::default)
            .take(program.main_slots)
            .collect(),
        base: 0,
        returned: Value::Void,
        handler: QuantumCircuitHandler::with_backend(
            config.seed,
            config.noise.clone(),
            config.memory_budget_bytes,
            config.backend,
        )?,
        output: Vec::new(),
        steps: 0,
        max_steps: config.max_steps,
        call_depth: 0,
        max_call_depth: config.max_call_depth,
        interrupt: intr.clone(),
        interrupt_ck: 0,
    };
    interp.handler.set_interrupt(intr.clone());
    let op_pass = {
        let _span = qutes_obs::span("stage.op_pass");
        // Runs until the end or a top-level `return`.
        interp.exec_stmts(&program.main).map(|_| ())
    };
    // Counted once per run, for the engine the live run ended on (an
    // `Auto` run may have been promoted from the tableau).
    let backend = interp.handler.backend_kind();
    qutes_obs::counter_add(backend.counter_name(), 1);
    op_pass?;
    // Release the interpreter and the live engine before the replay:
    // keep what the outcome reports and move the circuit out.
    let Interp {
        output, handler, ..
    } = interp;
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

/// How a statement finished. A `return` leaves its value in
/// [`Interp::returned`].
#[derive(Clone, Copy, PartialEq, Eq)]
enum Flow {
    Normal,
    Return,
}

/// A variable's value. It stays in its slot until something needs to
/// share it (a by-reference argument), and then moves to a shared cell
/// that both sides hold; a `foreach` variable is bound to the element's
/// cell from the start.
#[derive(Default)]
enum Binding {
    /// The declaration has not run.
    #[default]
    Empty,
    /// Held by this slot alone.
    Owned(Value),
    /// Shared with other variables or array elements.
    Shared(Cell),
}

/// One variable's storage in a frame.
#[derive(Default)]
struct Slot {
    value: Binding,
    /// For a `foreach` variable, the runtime type of the element it is
    /// bound to on this iteration.
    loop_ty: Option<Type>,
}

/// An assignment target: a variable, or an array element's cell.
enum Lhs {
    Var(Loc),
    Elem(Cell),
}

struct Interp<'p, 'a> {
    functions: &'p [Function<'a>],
    /// Global slots.
    globals: Vec<Binding>,
    /// The frames of the running calls, end to end; the running frame
    /// starts at `base`.
    locals: Vec<Slot>,
    base: usize,
    /// The value of the `return` being executed.
    returned: Value,
    handler: QuantumCircuitHandler,
    output: Vec<String>,
    steps: u64,
    max_steps: u64,
    call_depth: usize,
    max_call_depth: usize,
    interrupt: Interrupt,
    interrupt_ck: u64,
}

impl<'p, 'a> Interp<'p, 'a> {
    fn step(&mut self, span: Span) -> QutesResult<()> {
        self.steps += 1;
        if self.steps > self.max_steps {
            return Err(QutesError::runtime(
                format!(
                    "execution exceeded {} steps (infinite loop?)",
                    self.max_steps
                ),
                span,
            ));
        }
        // Cooperative checkpoint: amortised over 16 statements so tight
        // classical loops stay cheap, but an expired deadline or a
        // cancellation from another thread stops interpretation promptly.
        self.interrupt
            .checkpoint_named(&mut self.interrupt_ck, 16, "stage.interp.checkpoints")?;
        Ok(())
    }

    // ---- variables ---------------------------------------------------------

    fn binding(&self, at: Loc) -> Option<&Binding> {
        match at {
            Loc::Local(slot) => self.locals.get(self.base + slot as usize).map(|s| &s.value),
            Loc::Global(slot) => self.globals.get(slot as usize),
            Loc::Unresolved => None,
        }
    }

    fn binding_mut(&mut self, at: Loc) -> Option<&mut Binding> {
        match at {
            Loc::Local(slot) => self
                .locals
                .get_mut(self.base + slot as usize)
                .map(|s| &mut s.value),
            Loc::Global(slot) => self.globals.get_mut(slot as usize),
            Loc::Unresolved => None,
        }
    }

    /// Applies `f` to a variable's value; `None` if the variable is not
    /// declared (yet).
    #[inline]
    fn with_value<R>(&self, at: Loc, f: impl FnOnce(&Value) -> R) -> Option<R> {
        match self.binding(at)? {
            Binding::Empty => None,
            Binding::Owned(v) => Some(f(v)),
            Binding::Shared(c) => Some(f(&c.borrow())),
        }
    }

    /// The value of a variable that holds an int.
    #[inline]
    fn int_at(&self, at: Loc) -> Option<i64> {
        match self.binding(at)? {
            Binding::Owned(Value::Int(v)) => Some(*v),
            Binding::Shared(c) => match *c.borrow() {
                Value::Int(v) => Some(v),
                _ => None,
            },
            _ => None,
        }
    }

    /// The value of an int literal, or of a variable that holds an int;
    /// `None` for anything else (including an undeclared variable).
    #[inline]
    fn int_leaf(&self, e: &Expr<'_>) -> Option<i64> {
        match &e.kind {
            ExprKind::Int(v) => Some(*v),
            ExprKind::Var(var) => self.int_at(var.at),
            _ => None,
        }
    }

    fn declared(&self, at: Loc) -> bool {
        !matches!(self.binding(at), None | Some(Binding::Empty))
    }

    /// Reads a variable; an undeclared one is an error at `span`.
    fn read(&self, var: &Var<'_>, span: Span) -> QutesResult<Value> {
        self.with_value(var.at, Value::clone)
            .ok_or_else(|| undeclared(var, span))
    }

    /// A declared variable's static type (a `foreach` variable's is the
    /// runtime type of its element when the iteration bound it); `None`
    /// if it is not declared (yet).
    fn var_type(&self, var: &Var<'a>) -> Option<Cow<'a, Type>> {
        if !self.declared(var.at) {
            return None;
        }
        match (var.ty, var.at) {
            (VarType::Declared(t), _) => Some(Cow::Borrowed(t)),
            (VarType::Loop, Loc::Local(slot)) => self
                .locals
                .get(self.base + slot as usize)
                .and_then(|s| s.loop_ty.clone())
                .map(Cow::Owned),
            (VarType::Loop, _) => None,
        }
    }

    /// The variable's cell, moving its value into one first if it was
    /// held in place: for passing it by reference.
    fn share(&mut self, at: Loc) -> Option<Cell> {
        let b = self.binding_mut(at)?;
        if let Binding::Owned(v) = b {
            let c = cell(std::mem::replace(v, Value::Void));
            *b = Binding::Shared(c);
        }
        match b {
            Binding::Shared(c) => Some(Rc::clone(c)),
            _ => None,
        }
    }

    fn lhs_read(&self, lhs: &Lhs) -> Value {
        match lhs {
            Lhs::Var(at) => self.with_value(*at, Value::clone).unwrap_or(Value::Void),
            Lhs::Elem(c) => c.borrow().clone(),
        }
    }

    #[inline]
    fn lhs_write(&mut self, lhs: &Lhs, v: Value) {
        match lhs {
            Lhs::Var(at) => match self.binding_mut(*at) {
                Some(Binding::Owned(x)) => *x = v,
                Some(Binding::Shared(c)) => *c.borrow_mut() = v,
                Some(Binding::Empty) | None => {}
            },
            Lhs::Elem(c) => *c.borrow_mut() = v,
        }
    }

    // ---- statements ------------------------------------------------------

    fn exec_stmts(&mut self, stmts: &[Stmt<'a>]) -> QutesResult<Flow> {
        for s in stmts {
            if self.exec_stmt(s)? == Flow::Return {
                return Ok(Flow::Return);
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, s: &Stmt<'a>) -> QutesResult<Flow> {
        self.step(s.span())?;
        match s {
            Stmt::Decl {
                ty,
                name,
                slot,
                init,
                span,
            } => {
                let value = match init {
                    Some(e) => {
                        let v = self.eval_with_target(e, Some(ty))?;
                        self.coerce(v, ty, name, e.span)?
                    }
                    None => self.default_value(ty, name, *span)?,
                };
                let redeclared = || {
                    QutesError::Compile(vec![Diagnostic::error(
                        format!("variable '{name}' is already declared in this scope"),
                        *span,
                    )])
                };
                let target = match *slot {
                    DeclSlot::Local(i) => self
                        .locals
                        .get_mut(self.base + i as usize)
                        .map(|s| &mut s.value),
                    DeclSlot::Global(i) => self.globals.get_mut(i as usize),
                    DeclSlot::Duplicate => None,
                };
                match target {
                    // A global is declared once; a local slot is
                    // rebound each time its block runs again.
                    Some(Binding::Owned(_) | Binding::Shared(_))
                        if matches!(slot, DeclSlot::Global(_)) =>
                    {
                        return Err(redeclared())
                    }
                    Some(b) => *b = Binding::Owned(value),
                    None => return Err(redeclared()),
                }
                Ok(Flow::Normal)
            }
            Stmt::Assign {
                target,
                op,
                value,
                span,
            } => {
                self.exec_assign(target, *op, value, *span)?;
                Ok(Flow::Normal)
            }
            Stmt::If {
                cond,
                then_block,
                else_block,
                ..
            } => {
                if self.eval_condition(cond)? {
                    self.exec_stmts(then_block)
                } else if let Some(eb) = else_block {
                    self.exec_stmts(eb)
                } else {
                    Ok(Flow::Normal)
                }
            }
            Stmt::While { cond, body, span } => {
                while self.eval_condition(cond)? {
                    self.step(*span)?;
                    if self.exec_stmts(body)? == Flow::Return {
                        return Ok(Flow::Return);
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Foreach {
                var,
                iterable,
                body,
                span,
                ..
            } => {
                let it = self.eval(iterable)?;
                let items: Vec<Cell> = match it {
                    Value::Array(items) => items.borrow().clone(),
                    Value::Quantum(q) if q.kind == QKind::Qustring => q
                        .qubits
                        .iter()
                        .map(|&qb| {
                            cell(Value::Quantum(QuantumRef {
                                qubits: vec![qb],
                                kind: QKind::Qubit,
                            }))
                        })
                        .collect(),
                    other => {
                        return Err(QutesError::runtime(
                            format!("cannot iterate over {}", other.type_name()),
                            iterable.span,
                        ))
                    }
                };
                let at = self.base + *var as usize;
                for item in items {
                    self.step(*span)?;
                    // Bind by reference: the loop variable aliases the
                    // element cell (mutations persist, paper §4).
                    let ty = ops::runtime_type(&item.borrow());
                    if let Some(slot) = self.locals.get_mut(at) {
                        slot.value = Binding::Shared(item);
                        slot.loop_ty = Some(ty);
                    }
                    if self.exec_stmts(body)? == Flow::Return {
                        return Ok(Flow::Return);
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Return { value, .. } => {
                let v = match value {
                    Some(e) => self.eval(e)?,
                    None => Value::Void,
                };
                self.returned = v;
                Ok(Flow::Return)
            }
            Stmt::Print { value, .. } => {
                let v = self.eval(value)?;
                let line = match v {
                    Value::Quantum(q) => {
                        // Printing a quantum variable measures it (paper
                        // §5: "the evaluation of a quantum variable —
                        // whether for verifying its value or for printing
                        // — requires a measurement operation").
                        let measured = Cast::measure_to_classical(&mut self.handler, &q)?;
                        measured.to_string()
                    }
                    other => other.to_string(),
                };
                self.output.push(line);
                Ok(Flow::Normal)
            }
            Stmt::Expr { expr, .. } => {
                self.eval(expr)?;
                Ok(Flow::Normal)
            }
            Stmt::Gate { gate, args, span } => {
                self.exec_gate(*gate, args, *span)?;
                Ok(Flow::Normal)
            }
            Stmt::Measure { target, .. } => {
                let v = self.eval(target)?;
                match v {
                    Value::Quantum(q) => {
                        self.handler.measure(&q.qubits)?;
                        Ok(Flow::Normal)
                    }
                    other => Err(QutesError::runtime(
                        format!(
                            "measure expects a quantum value, found {}",
                            other.type_name()
                        ),
                        target.span,
                    )),
                }
            }
            Stmt::Barrier { .. } => {
                self.handler.barrier()?;
                Ok(Flow::Normal)
            }
            Stmt::Block { stmts, .. } => self.exec_stmts(stmts),
        }
    }

    fn default_value(&mut self, ty: &Type, name: &str, span: Span) -> QutesResult<Value> {
        Ok(match ty {
            Type::Bool => Value::Bool(false),
            Type::Int => Value::Int(0),
            Type::Float => Value::Float(0.0),
            Type::String => Value::Str(String::new()),
            Type::Qubit => Value::Quantum(Cast::new_qubit_basis(&mut self.handler, name, false)?),
            Type::Quint => Value::Quantum(Cast::new_quint(&mut self.handler, name, 0, Some(1))?),
            Type::Qustring => {
                return Err(QutesError::runtime(
                    "qustring declarations need an initialiser (the width is the string length)",
                    span,
                ))
            }
            Type::Array(_) => Value::Array(Rc::new(RefCell::new(Vec::new()))),
            Type::Void => Value::Void,
        })
    }

    /// Coerces a value into a declared type: identity, numeric widening,
    /// promotion (classical -> quantum, via the `TypeCastingHandler`), or
    /// auto-measurement (quantum -> classical).
    #[inline]
    fn coerce(&mut self, v: Value, ty: &Type, name: &str, span: Span) -> QutesResult<Value> {
        if ops::conforms(&v, ty) {
            return Ok(v);
        }
        self.convert(v, ty, name, span)
    }

    /// [`Self::coerce`] for a value not already of type `ty`.
    fn convert(&mut self, v: Value, ty: &Type, name: &str, span: Span) -> QutesResult<Value> {
        match (ty, v) {
            (Type::Qubit, v @ (Value::Bool(_) | Value::Int(_))) => Ok(Value::Quantum(
                Cast::promote(&mut self.handler, name, &v, QKind::Qubit, span)?,
            )),
            (Type::Quint, v @ (Value::Bool(_) | Value::Int(_))) => Ok(Value::Quantum(
                Cast::promote(&mut self.handler, name, &v, QKind::Quint, span)?,
            )),
            (Type::Qubit, Value::Quantum(q)) if q.width() == 1 => {
                // quint/qustring of width 1 reinterpreted as a qubit.
                Ok(Value::Quantum(QuantumRef {
                    qubits: q.qubits,
                    kind: QKind::Qubit,
                }))
            }
            (Type::Quint, Value::Quantum(q)) => Ok(Value::Quantum(QuantumRef {
                qubits: q.qubits,
                kind: QKind::Quint,
            })),
            (Type::Qustring, Value::Str(s)) => Ok(Value::Quantum(Cast::new_qustring(
                &mut self.handler,
                name,
                &s,
                span,
            )?)),
            (Type::Qustring, Value::Quantum(q)) => Ok(Value::Quantum(QuantumRef {
                qubits: q.qubits,
                kind: QKind::Qustring,
            })),
            (classical, Value::Quantum(q)) => {
                let measured = Cast::measure_to_classical(&mut self.handler, &q)?;
                ops::store_measured(classical, measured, span)
            }
            (ty, v) => ops::widen(v, ty, span),
        }
    }

    fn exec_assign(
        &mut self,
        target: &Place<'a>,
        op: AssignOp,
        value_expr: &Expr<'a>,
        span: Span,
    ) -> QutesResult<()> {
        if self.assign_fast(target, op, value_expr) {
            return Ok(());
        }
        let undeclared = |var: &Var<'_>| {
            QutesError::runtime(
                format!("assignment to undeclared variable '{}'", var.name),
                span,
            )
        };
        let (lhs, target_ty, name) = match target {
            Place::Var(var) => {
                let ty = self.var_type(var).ok_or_else(|| undeclared(var))?;
                (Lhs::Var(var.at), ty, var.name)
            }
            Place::Index(var, idx_expr) => {
                let idx = self.eval_index(idx_expr)?;
                let ty = self.var_type(var).ok_or_else(|| undeclared(var))?;
                let elem_ty = match ty {
                    Cow::Borrowed(Type::Array(t)) => Cow::Borrowed(&**t),
                    Cow::Owned(Type::Array(t)) => Cow::Owned(*t),
                    other => {
                        return Err(QutesError::runtime(
                            format!("cannot index-assign into {other}"),
                            span,
                        ))
                    }
                };
                let elem = self.with_value(var.at, |arr| match arr {
                    Value::Array(items) => {
                        let items = items.borrow();
                        items.get(idx).cloned().ok_or_else(|| {
                            QutesError::runtime(
                                format!(
                                    "index {idx} out of bounds for array of length {}",
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
                });
                let elem = elem.ok_or_else(|| undeclared(var))??;
                (Lhs::Elem(elem), elem_ty, var.name)
            }
        };

        match op {
            AssignOp::Set => {
                let v = self.eval_with_target(value_expr, Some(&target_ty))?;
                let v = self.coerce(v, &target_ty, name, value_expr.span)?;
                self.lhs_write(&lhs, v);
            }
            AssignOp::Add | AssignOp::Sub => {
                let current = self.lhs_read(&lhs);
                match current {
                    Value::Quantum(q) if q.kind == QKind::Quint => {
                        let rhs = self.eval(value_expr)?;
                        self.quint_add_sub_in_place(&q, rhs, op == AssignOp::Sub, span)?;
                    }
                    classical => {
                        let rhs = self.eval(value_expr)?;
                        let bin = if op == AssignOp::Add {
                            BinOp::Add
                        } else {
                            BinOp::Sub
                        };
                        let result = self.classical_binary(bin, classical, rhs, span)?;
                        self.lhs_write(&lhs, result);
                    }
                }
            }
            AssignOp::Shl | AssignOp::Shr => {
                let rhs = self.eval(value_expr)?;
                let k = rhs.as_i64().ok_or_else(|| {
                    QutesError::runtime("shift amount must be an integer", value_expr.span)
                })?;
                if k < 0 {
                    return Err(QutesError::runtime(
                        "shift amount must be >= 0",
                        value_expr.span,
                    ));
                }
                let current = self.lhs_read(&lhs);
                match current {
                    Value::Quantum(q) => {
                        // Cyclic shift in constant depth (paper §5).
                        lower::rotate(
                            &mut self.handler,
                            &q.qubits,
                            k as usize,
                            op == AssignOp::Shl,
                        )?;
                    }
                    int @ Value::Int(_) => {
                        let shift = if op == AssignOp::Shl {
                            BinOp::Shl
                        } else {
                            BinOp::Shr
                        };
                        let v = ops::binary(shift, &int, &rhs, span)?;
                        self.lhs_write(&lhs, v);
                    }
                    other => {
                        return Err(QutesError::runtime(
                            format!("cannot shift a {} value", other.type_name()),
                            span,
                        ))
                    }
                }
            }
        }
        Ok(())
    }

    /// The assignments that need none of [`Self::exec_assign`]'s general
    /// machinery, done in place: `int ±= int`, and storing a scalar into
    /// a variable declared with exactly its type. Returns `false`, having
    /// done nothing, for every other assignment.
    #[inline]
    fn assign_fast(&mut self, target: &Place<'a>, op: AssignOp, value: &Expr<'a>) -> bool {
        let Place::Var(var) = target else {
            return false;
        };
        let v = match op {
            AssignOp::Add | AssignOp::Sub => {
                let (Some(a), Some(b)) = (self.int_at(var.at), self.int_leaf(value)) else {
                    return false;
                };
                Value::Int(if op == AssignOp::Add {
                    a.wrapping_add(b)
                } else {
                    a.wrapping_sub(b)
                })
            }
            AssignOp::Set => {
                let VarType::Declared(ty) = var.ty else {
                    return false;
                };
                if !self.declared(var.at) {
                    return false;
                }
                match (ty, self.eval_fast(value)) {
                    (Type::Int, Some(v @ Value::Int(_)))
                    | (Type::Bool, Some(v @ Value::Bool(_)))
                    | (Type::Float, Some(v @ Value::Float(_))) => v,
                    _ => return false,
                }
            }
            AssignOp::Shl | AssignOp::Shr => return false,
        };
        self.lhs_write(&Lhs::Var(var.at), v);
        true
    }

    fn eval_index(&mut self, e: &Expr<'a>) -> QutesResult<usize> {
        let v = self.eval(e)?;
        ops::non_negative(&self.classical(v)?, "index", e.span)
    }

    /// `v` as a classical value: a quantum register is measured.
    fn classical(&mut self, v: Value) -> QutesResult<Value> {
        match v {
            Value::Quantum(q) => Cast::measure_to_classical(&mut self.handler, &q),
            v => Ok(v),
        }
    }

    // ---- gates -----------------------------------------------------------

    fn eval_quantum_operand(&mut self, e: &Expr<'a>, what: &str) -> QutesResult<QuantumRef> {
        match self.eval(e)? {
            Value::Quantum(q) => Ok(q),
            other => Err(QutesError::runtime(
                format!(
                    "{what} needs a quantum operand, found {}",
                    other.type_name()
                ),
                e.span,
            )),
        }
    }

    fn exec_gate(&mut self, gate: GateKind, args: &[Expr<'a>], span: Span) -> QutesResult<()> {
        let q = self.eval_quantum_operand(&args[0], gate.name())?;
        match gate {
            GateKind::CNot => {
                let t = self.eval_quantum_operand(&args[1], "cnot")?;
                lower::cnot(&mut self.handler, &q.qubits, &t.qubits, span)
            }
            GateKind::Phase => {
                let angle = self.eval(&args[1])?.as_f64().ok_or_else(|| {
                    QutesError::runtime("phase angle must be numeric", args[1].span)
                })?;
                lower::gate_each(&mut self.handler, gate, &q.qubits, angle, span)
            }
            _ => lower::gate_each(&mut self.handler, gate, &q.qubits, 0.0, span),
        }
    }

    // ---- quantum arithmetic and shifts ------------------------------------

    /// In-place `target op= rhs` for quints.
    fn quint_add_sub_in_place(
        &mut self,
        target: &QuantumRef,
        rhs: Value,
        subtract: bool,
        span: Span,
    ) -> QutesResult<()> {
        let Some(rhs) = Operand::of(&rhs) else {
            return Err(QutesError::runtime(
                format!(
                    "cannot {} a {} value {} a quint",
                    if subtract { "subtract" } else { "add" },
                    rhs.type_name(),
                    if subtract { "from" } else { "to" },
                ),
                span,
            ));
        };
        lower::add_sub_in_place(&mut self.handler, &target.qubits, rhs, subtract)
    }

    /// `a + b` / `a - b` producing a fresh quint register.
    fn quint_add_sub_expr(
        &mut self,
        a: &QuantumRef,
        rhs: Value,
        subtract: bool,
        span: Span,
    ) -> QutesResult<Value> {
        let Some(rhs) = Operand::of(&rhs) else {
            return Err(QutesError::runtime(
                format!("cannot combine quint with {}", rhs.type_name()),
                span,
            ));
        };
        let sum = lower::add_sub_expr(&mut self.handler, &a.qubits, rhs, subtract)?;
        Ok(quint(sum))
    }

    /// `a * b` producing a fresh quint product register.
    fn quint_mul_expr(&mut self, a: &QuantumRef, rhs: Value, span: Span) -> QutesResult<Value> {
        let Some(rhs) = Operand::of(&rhs) else {
            return Err(QutesError::runtime(
                format!("cannot multiply a quint by {}", rhs.type_name()),
                span,
            ));
        };
        let product = lower::mul_expr(&mut self.handler, &a.qubits, rhs)?;
        Ok(quint(product))
    }

    // ---- the `in` operator: Grover substring search ------------------------

    /// `pattern in haystack` where the haystack is a qustring: Grover
    /// search over start positions ([`SubstringSearch`]), each round
    /// drawing its iteration count at random and verifying the measured
    /// candidate against the text window.
    fn quantum_substring_search(
        &mut self,
        pattern: &[bool],
        hay: &QuantumRef,
        span: Span,
    ) -> QutesResult<bool> {
        let m = pattern.len();
        if m == 0 {
            return Ok(true);
        }
        if m > hay.width() {
            return Ok(false);
        }
        let search = SubstringSearch::prepare(&mut self.handler, pattern, &hay.qubits, span)?;
        // Absent patterns exhaust the schedule and return false; present
        // patterns succeed with overwhelming probability within
        // O(sqrt(positions)) expected oracle calls.
        use rand::Rng as _;
        for max_k in search.schedule() {
            let k = self.handler.rng().random_range(0..max_k + 1);
            search.amplify(&mut self.handler, k)?;
            let candidate = self.handler.measure(&search.pos)? as usize;
            // Reset the (collapsed) position register to |0> so the next
            // round can re-prepare it.
            for (bit, &pq) in search.pos.iter().enumerate() {
                if candidate >> bit & 1 == 1 {
                    self.handler.apply(Gate::X(pq))?;
                }
            }
            if candidate < search.positions {
                let window = &hay.qubits[candidate..candidate + m];
                let observed = self.handler.measure(window)?;
                let matches = pattern
                    .iter()
                    .enumerate()
                    .all(|(j, &p)| (observed >> j & 1 == 1) == p);
                if matches {
                    self.handler.release_ancillas(&search.pos);
                    return Ok(true);
                }
            }
        }
        self.handler.release_ancillas(&search.pos);
        Ok(false)
    }

    // ---- expressions -------------------------------------------------------

    #[inline(always)]
    fn eval(&mut self, e: &Expr<'a>) -> QutesResult<Value> {
        self.eval_with_target(e, None)
    }

    /// Evaluates the cheapest expressions (a scalar literal, a variable
    /// holding a scalar, an int operator over two such ints) without the
    /// general dispatch; `None` sends the caller to it. None of these has
    /// a side effect, so falling back after a look is harmless.
    #[inline(always)]
    fn eval_fast(&self, e: &Expr<'_>) -> Option<Value> {
        let scalar = |v: &Value| match *v {
            Value::Int(i) => Some(Value::Int(i)),
            Value::Bool(b) => Some(Value::Bool(b)),
            Value::Float(f) => Some(Value::Float(f)),
            _ => None,
        };
        match &e.kind {
            ExprKind::Int(v) => Some(Value::Int(*v)),
            ExprKind::Bool(b) => Some(Value::Bool(*b)),
            ExprKind::Var(var) => match self.binding(var.at)? {
                Binding::Owned(v) => scalar(v),
                Binding::Shared(c) => scalar(&c.borrow()),
                Binding::Empty => None,
            },
            ExprKind::Binary(op, l, r) => {
                ops::int_binary(*op, self.int_leaf(l)?, self.int_leaf(r)?)
            }
            _ => None,
        }
    }

    fn eval_condition(&mut self, e: &Expr<'a>) -> QutesResult<bool> {
        // An int comparison, the usual branch or loop test.
        if let ExprKind::Binary(op, l, r) = &e.kind {
            if let (Some(a), Some(b)) = (self.int_leaf(l), self.int_leaf(r)) {
                if let Some(c) = ops::int_compare(*op, a, b) {
                    return Ok(c);
                }
            }
        }
        let v = match self.eval(e)? {
            Value::Bool(b) => return Ok(b),
            Value::Quantum(q) => Cast::measure_to_classical(&mut self.handler, &q)?,
            other => other,
        };
        v.as_bool()
            .ok_or_else(|| QutesError::runtime("condition is not boolean", e.span))
    }

    #[inline(always)]
    fn eval_with_target(&mut self, e: &Expr<'a>, target: Option<&Type>) -> QutesResult<Value> {
        if let Some(v) = self.eval_fast(e) {
            return Ok(v);
        }
        self.eval_slow(e, target)
    }

    fn eval_slow(&mut self, e: &Expr<'a>, target: Option<&Type>) -> QutesResult<Value> {
        match &e.kind {
            ExprKind::Int(v) => Ok(Value::Int(*v)),
            ExprKind::Bool(b) => Ok(Value::Bool(*b)),
            ExprKind::Var(var) => self.read(var, e.span),
            ExprKind::Binary(op, l, r) => self.eval_binary(*op, l, r, e.span),
            ExprKind::Call { name, callee, args } => self.eval_call(name, *callee, args, e.span),
            ExprKind::Float(v) => Ok(Value::Float(*v)),
            ExprKind::Str(s) => Ok(Value::Str((*s).to_string())),
            ExprKind::Pi => Ok(Value::Float(std::f64::consts::PI)),
            ExprKind::Quint(v) => {
                let name = self.handler.fresh_name("quint_lit");
                if matches!(target, Some(Type::Qubit)) && *v <= 1 {
                    Ok(Value::Quantum(Cast::new_qubit_basis(
                        &mut self.handler,
                        &name,
                        *v == 1,
                    )?))
                } else {
                    Ok(Value::Quantum(Cast::new_quint(
                        &mut self.handler,
                        &name,
                        *v,
                        None,
                    )?))
                }
            }
            ExprKind::Qustring(s) => {
                let name = self.handler.fresh_name("qustring_lit");
                Ok(Value::Quantum(Cast::new_qustring(
                    &mut self.handler,
                    &name,
                    s,
                    e.span,
                )?))
            }
            ExprKind::Ket(k) => {
                let name = self.handler.fresh_name("ket");
                Ok(Value::Quantum(Cast::new_qubit_ket(
                    &mut self.handler,
                    &name,
                    *k,
                )?))
            }
            ExprKind::Array(elems) => {
                let elem_target = match target {
                    Some(Type::Array(t)) => Some((**t).clone()),
                    _ => None,
                };
                let mut items = Vec::with_capacity(elems.len());
                for el in elems {
                    let v = self.eval_with_target(el, elem_target.as_ref())?;
                    let v = match (&elem_target, v) {
                        (Some(t), v) => {
                            let name = self.handler.fresh_name("elem");
                            self.coerce(v, t, &name, el.span)?
                        }
                        (None, v) => v,
                    };
                    items.push(cell(v));
                }
                Ok(Value::Array(Rc::new(RefCell::new(items))))
            }
            ExprKind::QuantumArray(elems) => {
                let vals: Vec<Value> = elems
                    .iter()
                    .map(|el| self.eval(el))
                    .collect::<QutesResult<_>>()?;
                let any_float = vals.iter().any(|v| matches!(v, Value::Float(_)));
                if any_float || matches!(target, Some(Type::Qubit)) {
                    if vals.len() != 2 {
                        return Err(QutesError::runtime(
                            "a qubit amplitude literal needs exactly two entries [a, b]",
                            e.span,
                        ));
                    }
                    let a = vals[0]
                        .as_f64()
                        .ok_or_else(|| QutesError::runtime("amplitudes must be numeric", e.span))?;
                    let b = vals[1]
                        .as_f64()
                        .ok_or_else(|| QutesError::runtime("amplitudes must be numeric", e.span))?;
                    let name = self.handler.fresh_name("qubit_amp");
                    Ok(Value::Quantum(Cast::new_qubit_amplitudes(
                        &mut self.handler,
                        &name,
                        a,
                        b,
                        e.span,
                    )?))
                } else {
                    let values: Vec<u64> = vals
                        .iter()
                        .map(|v| {
                            v.as_i64()
                                .filter(|&i| i >= 0)
                                .map(|i| i as u64)
                                .ok_or_else(|| {
                                    QutesError::runtime(
                                        "superposition values must be non-negative integers",
                                        e.span,
                                    )
                                })
                        })
                        .collect::<QutesResult<_>>()?;
                    let name = self.handler.fresh_name("superpos");
                    Ok(Value::Quantum(Cast::new_quint_superposed(
                        &mut self.handler,
                        &name,
                        &values,
                        e.span,
                    )?))
                }
            }
            ExprKind::IndexVar {
                var,
                var_span,
                index,
            } => {
                // `index` calls no function, so it cannot rebind `var`:
                // check the variable, evaluate the index, then read the
                // element through a borrow of the variable's value.
                if !self.declared(var.at) {
                    return Err(undeclared(var, *var_span));
                }
                let i = self.eval_index(index)?;
                self.with_value(var.at, |base| ops::index_value(base, i, e.span))
                    .unwrap_or_else(|| Err(undeclared(var, *var_span)))
            }
            ExprKind::Index(base, idx) => {
                let b = self.eval(base)?;
                let i = self.eval_index(idx)?;
                ops::index_value(&b, i, e.span)
            }
            ExprKind::Unary(op, inner) => {
                let v = self.eval(inner)?;
                ops::unary(*op, &self.classical(v)?, inner.span)
            }
            ExprKind::Measure(inner) => {
                let v = self.eval(inner)?;
                match v {
                    Value::Quantum(q) => Cast::measure_to_classical(&mut self.handler, &q),
                    other => Err(QutesError::runtime(
                        format!(
                            "measure expects a quantum value, found {}",
                            other.type_name()
                        ),
                        inner.span,
                    )),
                }
            }
        }
    }

    fn eval_binary(
        &mut self,
        op: BinOp,
        l: &Expr<'a>,
        r: &Expr<'a>,
        span: Span,
    ) -> QutesResult<Value> {
        use BinOp::*;
        // Short-circuit logicals first.
        if matches!(op, And | Or) {
            let lv = self.eval_condition(l)?;
            return Ok(Value::Bool(match op {
                And => lv && self.eval_condition(r)?,
                Or => lv || self.eval_condition(r)?,
                _ => unreachable!(),
            }));
        }

        let lv = self.eval(l)?;

        // `in`: Grover substring search when the haystack is quantum.
        if op == In {
            let rv = self.eval(r)?;
            return self.eval_in(lv, rv, span);
        }

        // Quantum arithmetic producing fresh registers.
        if let Value::Quantum(q) = &lv {
            if q.kind == QKind::Quint && matches!(op, Add | Sub) {
                let rv = self.eval(r)?;
                return self.quint_add_sub_expr(q, rv, op == Sub, span);
            }
            if q.kind == QKind::Quint && op == Mul {
                let rv = self.eval(r)?;
                let q = q.clone();
                return self.quint_mul_expr(&q, rv, span);
            }
            if matches!(op, Shl | Shr) {
                let k = ops::non_negative(&self.eval(r)?, "shift amount", r.span)?;
                let copy = lower::shifted_copy(&mut self.handler, &q.qubits, k, op == Shl)?;
                return Ok(Value::Quantum(QuantumRef {
                    qubits: copy,
                    kind: q.kind,
                }));
            }
        }
        // int + quint / int * quint (commute to the quint-first forms).
        if let (Add | Mul, Value::Int(_) | Value::Bool(_)) = (op, &lv) {
            let rv = self.eval(r)?;
            if let Value::Quantum(q) = &rv {
                if q.kind == QKind::Quint {
                    return if op == Add {
                        self.quint_add_sub_expr(q, lv, false, span)
                    } else {
                        let q = q.clone();
                        self.quint_mul_expr(&q, lv, span)
                    };
                }
            }
            return self.classical_binary(op, lv, rv, span);
        }

        let rv = self.eval(r)?;
        self.classical_binary(op, lv, rv, span)
    }

    /// Classical binary semantics; quantum operands are auto-measured.
    fn classical_binary(
        &mut self,
        op: BinOp,
        lv: Value,
        rv: Value,
        span: Span,
    ) -> QutesResult<Value> {
        let lv = self.classical(lv)?;
        let rv = self.classical(rv)?;
        ops::binary(op, &lv, &rv, span)
    }

    /// `pattern in haystack` dispatch.
    fn eval_in(&mut self, pattern: Value, haystack: Value, span: Span) -> QutesResult<Value> {
        // The pattern must be classical bits; measure it if quantum.
        let pattern = self.classical(pattern)?;
        match haystack {
            Value::Quantum(hay) if hay.kind == QKind::Qustring => {
                let Value::Str(p) = &pattern else {
                    return Err(QutesError::runtime(
                        format!("'in' needs a string pattern, found {}", pattern.type_name()),
                        span,
                    ));
                };
                if !p.chars().all(|c| c == '0' || c == '1') {
                    return Err(QutesError::runtime(
                        "quantum substring search patterns must be bitstrings",
                        span,
                    ));
                }
                let bits = substring_oracle::bits_from_str(p);
                let found = self.quantum_substring_search(&bits, &hay, span)?;
                Ok(Value::Bool(found))
            }
            v => self.classical_binary(BinOp::In, pattern, v, span),
        }
    }

    // ---- calls -------------------------------------------------------------

    fn eval_call(
        &mut self,
        name: &str,
        callee: Callee,
        args: &[Expr<'a>],
        span: Span,
    ) -> QutesResult<Value> {
        let index = match callee {
            Callee::Builtin(b) => return self.eval_builtin(b, name, args, span),
            Callee::Function(i) => i as usize,
            Callee::Unknown => {
                return Err(QutesError::runtime(
                    format!("call to unknown function '{name}'"),
                    span,
                ))
            }
        };
        let functions = self.functions;
        let Some(f) = functions.get(index) else {
            return Err(QutesError::runtime(
                format!("call to unknown function '{name}'"),
                span,
            ));
        };
        let decl = f.decl;
        if args.len() != decl.params.len() {
            return Err(QutesError::runtime(
                format!(
                    "'{name}' expects {} argument(s), found {}",
                    decl.params.len(),
                    args.len()
                ),
                span,
            ));
        }
        // The callee's frame goes on top of the caller's. Arguments are
        // evaluated in the caller's frame (calls inside them stack their
        // frames above this one) and bound straight into their slots.
        let frame = self.locals.len();
        self.locals.resize_with(frame + f.slots, Slot::default);
        let bound = self.bind_args(f, args, frame).and_then(|()| {
            self.call_depth += 1;
            if self.call_depth > self.max_call_depth {
                self.call_depth -= 1;
                return Err(QutesError::runtime(
                    format!(
                        "recursion exceeded {} nested calls (raise max_call_depth to allow more)",
                        self.max_call_depth
                    ),
                    span,
                ));
            }
            Ok(())
        });
        if let Err(e) = bound {
            self.locals.truncate(frame);
            return Err(e);
        }
        // Only globals and the parameters are visible inside a function:
        // the body's variables all resolve to this frame or a global.
        let caller = std::mem::replace(&mut self.base, frame);
        let flow = self.exec_stmts(&f.body);
        self.base = caller;
        self.locals.truncate(frame);
        self.call_depth -= 1;
        match flow? {
            Flow::Return => Ok(std::mem::replace(&mut self.returned, Value::Void)),
            Flow::Normal => {
                if decl.ret_type == Type::Void {
                    Ok(Value::Void)
                } else {
                    Err(QutesError::runtime(
                        format!(
                            "function '{name}' finished without returning a {} value",
                            decl.ret_type
                        ),
                        span,
                    ))
                }
            }
        }
    }

    /// Binds a call's arguments into the parameter slots of the frame
    /// at `frame`. Plain-variable arguments of matching type are passed
    /// **by reference** (shared cell, paper §4); everything else is
    /// evaluated and coerced into a fresh cell.
    fn bind_args(&mut self, f: &Function<'a>, args: &[Expr<'a>], frame: usize) -> QutesResult<()> {
        for ((a, p), &slot) in args.iter().zip(&f.decl.params).zip(&f.params) {
            let shared = match &a.kind {
                ExprKind::Var(var) if self.var_type(var).is_some_and(|ty| *ty == p.ty) => {
                    self.share(var.at)
                }
                _ => None,
            };
            let value = match (shared, self.eval_fast(a)) {
                (Some(c), _) => Binding::Shared(c),
                // Already of the parameter's type: stored as it is, which
                // spares a copy through `coerce`.
                (None, Some(v)) if ops::conforms(&v, &p.ty) => Binding::Owned(v),
                (None, _) => {
                    let v = self.eval_with_target(a, Some(&p.ty))?;
                    Binding::Owned(self.coerce(v, &p.ty, &p.name, a.span)?)
                }
            };
            if let Some(s) = self.locals.get_mut(frame + slot as usize) {
                s.value = value;
            }
        }
        Ok(())
    }

    /// Calls a built-in function.
    fn eval_builtin(
        &mut self,
        builtin: Builtin,
        name: &str,
        args: &[Expr<'a>],
        span: Span,
    ) -> QutesResult<Value> {
        let n = builtin.arity();
        if args.len() != n {
            return Err(QutesError::runtime(
                format!(
                    "builtin '{name}' expects {n} argument(s), found {}",
                    args.len()
                ),
                span,
            ));
        }
        let v = match builtin {
            Builtin::Len => ops::len(&self.eval(&args[0])?, span)?,
            Builtin::Width => ops::width(&self.eval(&args[0])?, span)?,
            Builtin::Range => {
                let n = ops::range_len(&self.eval(&args[0])?, span)?;
                Value::Array(Rc::new(RefCell::new(
                    (0..n).map(|i| cell(Value::Int(i))).collect(),
                )))
            }
            Builtin::Int | Builtin::Float | Builtin::Bool | Builtin::Str => {
                let v = self.eval(&args[0])?;
                ops::cast(builtin, &self.classical(v)?, span)?
            }
            Builtin::Qmin | Builtin::Qmax => {
                // Dürr–Høyer quantum extremum over a classical database
                // (paper §6). Runs Grover rounds on an auxiliary index
                // register; inputs and output are classical.
                let v = self.eval(&args[0])?;
                let Value::Array(items) = v else {
                    return Err(QutesError::runtime(
                        format!("{name}() needs an int array, found {}", v.type_name()),
                        span,
                    ));
                };
                let mut values = Vec::new();
                for item in items.borrow().iter() {
                    let iv = self.classical(item.borrow().clone())?;
                    let Some(x) = iv.as_i64().filter(|&x| x >= 0) else {
                        return Err(QutesError::runtime(
                            format!("{name}() needs non-negative integers"),
                            span,
                        ));
                    };
                    values.push(x as u64);
                }
                if values.is_empty() {
                    return Err(QutesError::runtime(
                        format!("{name}() of an empty array"),
                        span,
                    ));
                }
                let res = if builtin == Builtin::Qmin {
                    qutes_algos::minmax::quantum_minimum(&values, self.handler.rng())
                } else {
                    qutes_algos::minmax::quantum_maximum(&values, self.handler.rng())
                }
                .map_err(QutesError::Circuit)?;
                Value::Int(res.value as i64)
            }
            Builtin::Rotl | Builtin::Rotr => {
                let q = self.eval_quantum_operand(&args[0], name)?;
                let k = ops::non_negative(&self.eval(&args[1])?, "rotation amount", span)?;
                lower::rotate(&mut self.handler, &q.qubits, k, builtin == Builtin::Rotl)?;
                Value::Void
            }
        };
        Ok(v)
    }
}

/// The error for reading a variable whose declaration has not run (or
/// that no declaration binds).
fn undeclared(var: &Var<'_>, span: Span) -> QutesError {
    QutesError::runtime(format!("use of undeclared variable '{}'", var.name), span)
}

fn quint(qubits: Vec<usize>) -> Value {
    Value::Quantum(QuantumRef {
        qubits,
        kind: QKind::Quint,
    })
}
