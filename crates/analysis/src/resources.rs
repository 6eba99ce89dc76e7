//! Static resource estimation: bounds on qubit count, gate count, circuit
//! depth, and measurement count — computed **without simulating**.
//!
//! The estimator is an abstract interpreter that shares the runtime's
//! semantics instead of copying them. It walks the checker's resolution
//! (`qutes_core::resolution`, built by `types::resolve`) over the same
//! slot frames as the interpreter. A classical value it knows is a
//! runtime [`Value`], and every operator, cast and builtin on known
//! values is the runtime's own (`qutes_core::ops`). Quantum operations
//! call the runtime's circuit lowering (`qutes_core::lower` and the
//! `TypeCastingHandler` constructors) on a *shadow circuit*, which
//! implements the same [`Emit`] trait as the runtime's handler; unknown
//! operands reach it as stand-ins that emit the same gates (an unknown
//! Draper constant becomes 0, an unknown phase angle 0.0). Nothing
//! allocates a statevector or samples. The estimator's own parts are
//! what a run does not have: unknown values, both-worlds exploration,
//! loop havoc and slack.
//!
//! On programs whose control flow does not depend on measurement outcomes
//! the resulting counts are **exact** (they match `qcirc`'s
//! [`CircuitStats`](qutes_qcirc::CircuitStats) for the circuit a real run
//! accumulates). Measurement-dependent branches are explored on both
//! sides: when the two worlds build identical circuits the estimate stays
//! exact, otherwise the larger world is kept and the difference becomes
//! additive slack, making every figure an upper bound. Constructs whose
//! circuit size is inherently run-dependent (the Grover-based `in`
//! operator's BBHT schedule, unbounded `while` loops) mark the estimate
//! inexact and leave a note. A loop whose trip count is unknown is walked
//! once; then every classical variable its body may write is forgotten:
//! what it assigns or passes to a call, the globals that the user
//! functions it calls may write, through their own calls too, and the
//! classical contents of every cell when any of them writes an element.
//!
//! Storage has the runtime's shape: an array is a list of cells in the
//! estimator's heap, shared by declarations, assignments, arguments and
//! element reads as `Value::Array` is; a `foreach` variable is bound to
//! its element's cell; and a by-reference argument moves the caller's
//! variable into a cell that the parameter shares.

use qutes_core::lower::{self, Emit, Operand, SubstringSearch};
use qutes_core::ops;
use qutes_core::resolution::{
    Builtin, Callee, DeclSlot, Expr, ExprKind, Function, Loc, Place, Resolution, Stmt, Var, VarType,
};
use qutes_core::value::{QKind, QuantumRef, Value};
use qutes_core::{types, QutesError, QutesResult, TypeCastingHandler as Cast};
use qutes_frontend::ast::{AssignOp, BinOp, GateKind, Program, Type, UnOp};
use qutes_frontend::Span;
use qutes_qcirc::{Gate, QuantumCircuit};

/// Static bounds on the circuit a program would build.
#[derive(Clone, Debug, PartialEq)]
pub struct ResourceEstimate {
    /// Total qubits allocated (shadow width plus branch slack).
    pub qubits: usize,
    /// Instructions excluding barriers (matches [`size`] semantics).
    ///
    /// [`size`]: qutes_qcirc::QuantumCircuit::size
    pub gates: usize,
    /// Circuit depth (matches [`depth`] semantics; an upper bound when
    /// the estimate is not exact).
    ///
    /// [`depth`]: qutes_qcirc::QuantumCircuit::depth
    pub depth: usize,
    /// Collapsing measurement operations.
    pub measurements: usize,
    /// True when every figure is exact for any run of the program.
    pub exact: bool,
    /// True when every gate the program can emit (on any branch the
    /// estimator explored) is Clifford — H/X/Y/Z/S/S†/CX/CY/CZ/Swap,
    /// measurement, reset. Forced `false` when estimation gives up
    /// early, so a `true` here is a sound promise, never a guess. The
    /// runtime does not consult it: an `Auto` run finds out exactly, by
    /// promotion (see `docs/backends.md`).
    pub clifford_only: bool,
    /// Why the estimate is inexact (empty when `exact`).
    pub notes: Vec<String>,
}

impl Default for ResourceEstimate {
    fn default() -> Self {
        ResourceEstimate {
            qubits: 0,
            gates: 0,
            depth: 0,
            measurements: 0,
            exact: true,
            clifford_only: true,
            notes: Vec::new(),
        }
    }
}

impl ResourceEstimate {
    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "resources: {} qubit{}, {} gate{}, depth {}, {} measurement{} ({})",
            self.qubits,
            plural(self.qubits),
            self.gates,
            plural(self.gates),
            self.depth,
            self.measurements,
            plural(self.measurements),
            match (self.exact, self.clifford_only) {
                (true, true) => "exact, clifford-only",
                (true, false) => "exact",
                (false, true) => "upper bound, clifford-only",
                (false, false) => "upper bound",
            },
        )
    }
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

/// Estimates the resources `program` would consume when run.
pub fn estimate(program: &Program) -> ResourceEstimate {
    estimate_resolved(&types::resolve(program).0)
}

/// [`estimate`] of a program the checker has already resolved.
pub(crate) fn estimate_resolved(program: &Resolution<'_>) -> ResourceEstimate {
    let mut est = Est::new(program);
    if est.exec_stmts(&program.main).is_err() {
        est.inexact("estimation stopped early (budget exhausted or un-analyzable construct)");
        // Unknown gates may follow the stop point.
        est.clifford_only = false;
    }
    est.finish()
}

/// Abstract value: what the estimator knows about a value at one point
/// of every run.
#[derive(Clone, Debug, PartialEq)]
enum AVal {
    /// A value every run computes alike: a classical scalar, a quantum
    /// register (its shadow-circuit qubits) or void. Never an array.
    Known(Value),
    /// A classical scalar of this type (bool, int, float or string)
    /// whose value is run-dependent.
    Unknown(Type),
    /// An array: the heap cells of its elements, which may be unknown.
    Array(Vec<usize>),
    /// A value the estimator lost track of, type included.
    Lost,
}

impl AVal {
    fn register(qubits: Vec<usize>, kind: QKind) -> AVal {
        AVal::Known(Value::Quantum(QuantumRef { qubits, kind }))
    }

    fn known(&self) -> Option<&Value> {
        match self {
            AVal::Known(v) => Some(v),
            _ => None,
        }
    }

    fn is_quantum(&self) -> bool {
        matches!(self, AVal::Known(Value::Quantum(_)))
    }

    /// The type a `foreach` variable bound to this value takes.
    fn loop_type(&self) -> Type {
        match self {
            AVal::Known(v) => ops::runtime_type(v),
            AVal::Unknown(t) => t.clone(),
            AVal::Array(_) => Type::Array(Box::new(Type::Int)),
            AVal::Lost => Type::Int,
        }
    }

    /// Forgets a classical value; a quantum register keeps its identity
    /// (its qubits exist whatever the run did).
    fn forget(&mut self) {
        if !self.is_quantum() {
            *self = AVal::Lost;
        }
    }
}

impl From<QuantumRef> for AVal {
    fn from(r: QuantumRef) -> Self {
        AVal::Known(Value::Quantum(r))
    }
}

/// A known shift, rotation or index amount: a non-negative int (else
/// the run fails); `None` when it is not known.
fn amount(v: &AVal, what: &str) -> R<Option<usize>> {
    match v {
        AVal::Known(v) => Ok(Some(ops::non_negative(v, what, Span::default())?)),
        _ => Ok(None),
    }
}

/// One variable slot, as the interpreter's frames hold them.
#[derive(Clone, Debug, Default, PartialEq)]
enum Binding {
    /// The declaration has not run, or its block has ended.
    #[default]
    Empty,
    /// The variable's value, held by this slot alone.
    Val(AVal),
    /// A heap cell shared with an array element or another variable: a
    /// `foreach` variable, or a variable passed by reference.
    Cell(usize),
}

enum Flow {
    Normal,
    Return(AVal),
}

/// Estimation cannot continue (budget exhausted, or the program would
/// error at runtime anyway). The caller marks the estimate inexact.
struct Stop;

/// A runtime error means the program would fail at runtime too.
impl From<QutesError> for Stop {
    fn from(_: QutesError) -> Self {
        Stop
    }
}

type R<T> = Result<T, Stop>;

const MAX_SHADOW_QUBITS: usize = 1024;
const MAX_STEPS: u64 = 200_000;
const MAX_CALL_DEPTH: usize = 64;

#[derive(Clone, Default)]
struct Est<'r, 'a> {
    functions: &'r [Function<'a>],
    /// The global slots, then the frames of the running calls; the
    /// running frame starts at `base`.
    slots: Vec<Binding>,
    globals: usize,
    base: usize,
    /// The shared cells, indexed by id. A scope drops the cells it made
    /// that nothing outside it refers to (see [`Est::drop_cells`]).
    heap: Vec<AVal>,
    circ: QuantumCircuit,
    free: Vec<usize>,
    measurements: usize,
    exact: bool,
    clifford_only: bool,
    notes: Vec<String>,
    slack_gates: usize,
    slack_depth: usize,
    slack_qubits: usize,
    slack_meas: usize,
    steps: u64,
    call_depth: usize,
}

impl<'r, 'a> Est<'r, 'a> {
    fn new(program: &'r Resolution<'a>) -> Self {
        Est {
            functions: &program.functions,
            slots: vec![Binding::Empty; program.globals + program.main_slots],
            globals: program.globals,
            base: program.globals,
            circ: QuantumCircuit::new(),
            exact: true,
            clifford_only: true,
            ..Est::default()
        }
    }

    fn finish(self) -> ResourceEstimate {
        ResourceEstimate {
            qubits: self.circ.num_qubits() + self.slack_qubits,
            gates: self.circ.size() + self.slack_gates,
            depth: self.circ.depth() + self.slack_depth,
            measurements: self.measurements + self.slack_meas,
            exact: self.exact,
            clifford_only: self.clifford_only,
            notes: self.notes,
        }
    }

    fn inexact(&mut self, note: &str) {
        self.exact = false;
        if !self.notes.iter().any(|n| n == note) {
            self.notes.push(note.to_string());
        }
    }

    fn step(&mut self) -> R<()> {
        self.steps += 1;
        if self.steps > MAX_STEPS {
            return Err(Stop);
        }
        Ok(())
    }

    fn shadow_measure(&mut self, qubits: &[usize]) -> R<()> {
        let creg = self
            .circ
            .add_creg(format!("m{}", self.measurements), qubits.len());
        self.measurements += 1;
        for (k, &q) in qubits.iter().enumerate() {
            self.apply(Gate::Measure {
                qubit: q,
                clbit: creg.bit(k),
            })?;
        }
        Ok(())
    }

    /// Measures a quantum value into an unknown classical one (the
    /// collapse is mirrored; the outcome is not predictable).
    fn measure_if_quantum(&mut self, v: AVal) -> R<AVal> {
        match v {
            AVal::Known(Value::Quantum(q)) => {
                self.shadow_measure(&q.qubits)?;
                Ok(AVal::Unknown(
                    types::measured(&q.kind.as_type()).ok_or(Stop)?,
                ))
            }
            v => Ok(v),
        }
    }

    // ---- variables -------------------------------------------------------

    fn slot(&self, at: Loc) -> Option<usize> {
        match at {
            Loc::Local(slot) => Some(self.base + slot as usize),
            Loc::Global(slot) => Some(slot as usize),
            Loc::Unresolved => None,
        }
    }

    fn value(&self, at: Loc) -> Option<&AVal> {
        match self.slots.get(self.slot(at)?)? {
            Binding::Val(v) => Some(v),
            Binding::Cell(c) => self.heap.get(*c),
            Binding::Empty => None,
        }
    }

    fn value_mut(&mut self, at: Loc) -> Option<&mut AVal> {
        let i = self.slot(at)?;
        match self.slots.get_mut(i)? {
            Binding::Val(v) => Some(v),
            Binding::Cell(c) => self.heap.get_mut(*c),
            Binding::Empty => None,
        }
    }

    /// The cell a variable's value lives in, moving the value into a new
    /// one if its slot held it alone: a by-reference argument shares it.
    fn share(&mut self, at: Loc) -> Option<usize> {
        let i = self.slot(at)?;
        let b = self.slots.get_mut(i)?;
        if let Binding::Val(v) = b {
            self.heap.push(std::mem::replace(v, AVal::Lost));
            *b = Binding::Cell(self.heap.len() - 1);
        }
        match b {
            Binding::Cell(c) => Some(*c),
            _ => None,
        }
    }

    /// New cells holding `values`, as an array literal or `range` makes.
    fn alloc(&mut self, values: impl IntoIterator<Item = AVal>) -> AVal {
        let start = self.heap.len();
        self.heap.extend(values);
        AVal::Array((start..self.heap.len()).collect())
    }

    /// Ends a scope that began with `mark` cells in the heap. A variable
    /// moved into a cell since (to be passed by reference) is its only
    /// holder now and takes its value back. Then, unless a variable, an
    /// older cell or the value `flow` returns refers to a cell made
    /// since, those cells are dropped: two worlds that differ only in cells
    /// nothing reaches are the same world, and forks copy a small heap.
    fn drop_cells(&mut self, mark: usize, flow: &Flow) {
        if self.heap.len() <= mark {
            return;
        }
        for b in &mut self.slots {
            if let Binding::Cell(c) = *b {
                if let Some(cell) = self.heap.get_mut(c).filter(|_| c >= mark) {
                    *b = Binding::Val(std::mem::replace(cell, AVal::Lost));
                }
            }
        }
        let new = |v: &AVal| matches!(v, AVal::Array(cells) if cells.iter().any(|&c| c >= mark));
        let held = |b: &Binding| matches!(b, Binding::Val(v) if new(v));
        let returned = matches!(flow, Flow::Return(v) if new(v));
        if !(returned || self.slots.iter().any(held) || self.heap[..mark].iter().any(new)) {
            self.heap.truncate(mark);
        }
    }

    /// A declared variable's type; `None` if it is not declared (yet).
    fn var_type(&self, var: &Var<'_>) -> Option<Type> {
        let v = self.value(var.at)?;
        Some(match var.ty {
            VarType::Declared(t) => t.clone(),
            VarType::Loop => v.loop_type(),
        })
    }

    fn bind_local(&mut self, slot: u32, b: Binding) {
        if let Some(s) = self.slots.get_mut(self.base + slot as usize) {
            *s = b;
        }
    }

    /// Forgets every classical value the running code can see: the
    /// globals, the running frame and every cell.
    fn havoc_all(&mut self) {
        let base = self.base.min(self.slots.len());
        let (outer, running) = self.slots.split_at_mut(base);
        for b in outer.iter_mut().take(self.globals).chain(running) {
            if let Binding::Val(v) = b {
                v.forget();
            }
        }
        self.heap.iter_mut().for_each(AVal::forget);
    }

    /// Forgets what an unknown number of runs of `stmts` may have
    /// written: what they write, and the globals written by the functions
    /// they may call, through their own calls too (each is walked once,
    /// so recursion ends).
    fn havoc_writes(&mut self, stmts: &[Stmt<'_>]) {
        let mut writes = Writes::of(stmts);
        let mut walked = vec![false; self.functions.len()];
        while let Some(f) = writes.calls.pop() {
            let f = f as usize;
            if let (Some(false), Some(callee)) = (walked.get(f), self.functions.get(f)) {
                walked[f] = true;
                let w = Writes::of(&callee.body);
                let globals = w.locs.into_iter().filter(|at| matches!(at, Loc::Global(_)));
                writes.locs.extend(globals);
                writes.calls.extend(w.calls);
                writes.elements |= w.elements;
            }
        }
        for &at in &writes.locs {
            if let Some(v) = self.value_mut(at) {
                v.forget();
            }
        }
        if writes.elements {
            self.heap.iter_mut().for_each(AVal::forget);
        }
    }

    // ---- statements -------------------------------------------------------

    /// Runs a block, then ends the lifetime of its declarations and of the
    /// cells only they reached, as the end of its scope does: two worlds
    /// that differ only in a dead local are the same world.
    fn exec_block(&mut self, stmts: &'r [Stmt<'a>]) -> R<Flow> {
        let mark = self.heap.len();
        let flow = self.exec_stmts(stmts)?;
        self.end_scope(stmts);
        self.drop_cells(mark, &flow);
        Ok(flow)
    }

    fn end_scope(&mut self, stmts: &[Stmt<'_>]) {
        for s in stmts {
            if let Stmt::Decl {
                slot: DeclSlot::Local(i),
                ..
            } = s
            {
                self.bind_local(*i, Binding::Empty);
            }
        }
    }

    fn exec_stmts(&mut self, stmts: &'r [Stmt<'a>]) -> R<Flow> {
        for s in stmts {
            if let Flow::Return(v) = self.exec_stmt(s)? {
                return Ok(Flow::Return(v));
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, s: &'r Stmt<'a>) -> R<Flow> {
        self.step()?;
        match s {
            Stmt::Decl { ty, slot, init, .. } => {
                let val = match init {
                    Some(e) => {
                        let v = self.eval_with_target(e, Some(ty))?;
                        self.coerce(v, ty)?
                    }
                    None => self.default_value(ty)?,
                };
                // A repeated declaration, which the checker rejects, is
                // walked past: the value is dropped, or a global's replaced.
                let i = match *slot {
                    DeclSlot::Local(i) => self.base + i as usize,
                    DeclSlot::Global(i) => i as usize,
                    DeclSlot::Duplicate => return Ok(Flow::Normal),
                };
                if let Some(b) = self.slots.get_mut(i) {
                    *b = Binding::Val(val);
                }
                Ok(Flow::Normal)
            }
            Stmt::Assign {
                target, op, value, ..
            } => {
                self.exec_assign(target, *op, value)?;
                Ok(Flow::Normal)
            }
            Stmt::If {
                cond,
                then_block,
                else_block,
                ..
            } => match self.eval_condition(cond)? {
                Some(true) => self.exec_block(then_block),
                Some(false) => match else_block {
                    Some(eb) => self.exec_block(eb),
                    None => Ok(Flow::Normal),
                },
                None => self.explore(
                    |e| e.exec_block(then_block),
                    |e| match else_block {
                        Some(eb) => e.exec_block(eb),
                        None => Ok(Flow::Normal),
                    },
                ),
            },
            Stmt::While { cond, body, .. } => loop {
                match self.eval_condition(cond)? {
                    Some(false) => return Ok(Flow::Normal),
                    Some(true) => {
                        self.step()?;
                        if let Flow::Return(v) = self.exec_block(body)? {
                            return Ok(Flow::Return(v));
                        }
                    }
                    None => {
                        // The trip count is not statically known: walk the
                        // body once (for declarations/uses), then forget
                        // everything the loop, its condition included,
                        // might have changed.
                        self.inexact(
                            "while loop with a run-dependent condition: iteration count \
                             (and any gates its body emits) cannot be bounded statically",
                        );
                        let flow = self.exec_block(body)?;
                        self.havoc_writes(std::slice::from_ref(s));
                        return Ok(flow);
                    }
                }
            },
            Stmt::Foreach {
                var,
                iterable,
                body,
                ..
            } => {
                // The variable is bound to each element's cell in turn, over
                // the cells the array held when the loop began; a qustring's
                // qubits are new cells that nothing else reaches. Over an
                // unknown collection the body is walked once, and what the
                // loop may have written is forgotten.
                let (items, unknown): (Vec<Binding>, bool) = match self.eval(iterable)? {
                    AVal::Array(cells) => (cells.into_iter().map(Binding::Cell).collect(), false),
                    AVal::Known(Value::Quantum(q)) if q.kind == QKind::Qustring => {
                        let qubit = |&qb| Binding::Val(AVal::register(vec![qb], QKind::Qubit));
                        (q.qubits.iter().map(qubit).collect(), false)
                    }
                    AVal::Known(_) => return Err(Stop),
                    AVal::Unknown(_) | AVal::Lost => {
                        self.inexact(
                            "foreach over a run-dependent collection: iteration count cannot \
                             be bounded statically",
                        );
                        (vec![Binding::Val(AVal::Lost)], true)
                    }
                };
                let mut flow = Flow::Normal;
                for item in items {
                    self.step()?;
                    self.bind_local(*var, item);
                    flow = self.exec_block(body)?;
                    self.bind_local(*var, Binding::Empty);
                    if let Flow::Return(_) = flow {
                        break;
                    }
                }
                if unknown {
                    self.havoc_writes(std::slice::from_ref(s));
                }
                Ok(flow)
            }
            Stmt::Return { value, .. } => {
                let v = match value {
                    Some(e) => self.eval(e)?,
                    None => AVal::Known(Value::Void),
                };
                Ok(Flow::Return(v))
            }
            Stmt::Print { value, .. } => {
                let v = self.eval(value)?;
                self.measure_if_quantum(v)?;
                Ok(Flow::Normal)
            }
            Stmt::Expr { expr, .. } => {
                self.eval(expr)?;
                Ok(Flow::Normal)
            }
            Stmt::Gate { gate, args, .. } => {
                self.exec_gate(*gate, args)?;
                Ok(Flow::Normal)
            }
            Stmt::Measure { target, .. } => {
                match self.eval(target)? {
                    AVal::Known(Value::Quantum(q)) => self.shadow_measure(&q.qubits)?,
                    AVal::Lost => {
                        self.inexact("measure of a value the estimator lost track of");
                        self.slack_meas += 1;
                    }
                    _ => return Err(Stop),
                }
                Ok(Flow::Normal)
            }
            Stmt::Barrier { .. } => {
                self.apply(Gate::Barrier(vec![]))?;
                Ok(Flow::Normal)
            }
            Stmt::Block { stmts, .. } => self.exec_block(stmts),
        }
    }

    fn default_value(&mut self, ty: &Type) -> R<AVal> {
        Ok(match ty {
            Type::Bool => AVal::Known(Value::Bool(false)),
            Type::Int => AVal::Known(Value::Int(0)),
            Type::Float => AVal::Known(Value::Float(0.0)),
            Type::String => AVal::Known(Value::Str(String::new())),
            Type::Qubit => Cast::new_qubit_basis(self, "", false)?.into(),
            Type::Quint => Cast::new_quint(self, "", 0, Some(1))?.into(),
            Type::Qustring => return Err(Stop),
            Type::Array(_) => AVal::Array(Vec::new()),
            Type::Void => AVal::Known(Value::Void),
        })
    }

    /// `Interp::coerce` over abstract values: identity, widening,
    /// promotion (which allocates and encodes), reinterpretation of a
    /// register, auto-measure.
    fn coerce(&mut self, v: AVal, ty: &Type) -> R<AVal> {
        match v {
            AVal::Known(v) if ops::conforms(&v, ty) => Ok(AVal::Known(v)),
            AVal::Unknown(t) if t == *ty => Ok(AVal::Unknown(t)),
            AVal::Array(items) if matches!(ty, Type::Array(_)) => Ok(AVal::Array(items)),
            AVal::Lost => {
                if ty.is_quantum() {
                    self.inexact("value promoted to a quantum register of run-dependent width");
                    self.slack_qubits += 1;
                }
                Ok(AVal::Lost)
            }
            AVal::Known(Value::Quantum(q)) => match ty {
                Type::Qubit if q.width() == 1 => Ok(AVal::register(q.qubits, QKind::Qubit)),
                Type::Quint => Ok(AVal::register(q.qubits, QKind::Quint)),
                Type::Qustring => Ok(AVal::register(q.qubits, QKind::Qustring)),
                classical if classical.is_classical() => {
                    let m = self.measure_if_quantum(AVal::Known(Value::Quantum(q)))?;
                    self.coerce(m, ty)
                }
                _ => Err(Stop),
            },
            v if ty.is_quantum() => self.promote(v, ty),
            AVal::Known(v) => Ok(AVal::Known(ops::widen(v, ty, Span::default())?)),
            AVal::Unknown(Type::Int) if *ty == Type::Float => Ok(AVal::Unknown(Type::Float)),
            _ => Err(Stop),
        }
    }

    /// Type promotion of a classical value into a fresh register, through
    /// the runtime's `TypeCastingHandler::promote`. A value the estimator
    /// does not know is promoted as a stand-in: `|0>` for a qubit (the X
    /// gate a 1 would add becomes slack), or a 1-qubit register for a
    /// quint or qustring, whose real width is unknown.
    fn promote(&mut self, v: AVal, ty: &Type) -> R<AVal> {
        let kind = match ty {
            Type::Qubit => QKind::Qubit,
            Type::Quint => QKind::Quint,
            Type::Qustring => QKind::Qustring,
            _ => return Err(Stop),
        };
        let (value, note) = match (kind, v) {
            (_, AVal::Known(v @ (Value::Bool(_) | Value::Int(_) | Value::Str(_)))) => (v, None),
            (QKind::Qubit, AVal::Unknown(Type::Bool | Type::Int)) => (
                Value::Bool(false),
                Some("qubit prepared from a run-dependent classical bit"),
            ),
            (QKind::Quint, AVal::Unknown(Type::Bool | Type::Int)) => (
                Value::Int(0),
                Some("quint promoted from a run-dependent integer: width unknown"),
            ),
            (QKind::Qustring, AVal::Unknown(Type::String)) => (
                Value::Str("0".into()),
                Some("qustring promoted from a run-dependent string: width unknown"),
            ),
            _ => return Err(Stop),
        };
        let promoted = Cast::promote(self, "", &value, kind, Span::default())?;
        if let Some(note) = note {
            self.inexact(note);
            if kind == QKind::Qubit {
                self.slack_gates += 1;
                self.slack_depth += 1;
            }
        }
        Ok(promoted.into())
    }

    fn exec_assign(
        &mut self,
        target: &'r Place<'a>,
        op: AssignOp,
        value_expr: &'r Expr<'a>,
    ) -> R<()> {
        // Where the result goes: the variable, one element's cell, or
        // (through an unknown index) any element.
        enum Tgt {
            Var,
            Elem(usize),
            Lost,
        }
        let (var, tgt, target_ty, current) = match target {
            Place::Var(var) => {
                let ty = self.var_type(var).ok_or(Stop)?;
                let current = self.value(var.at).ok_or(Stop)?.clone();
                (var, Tgt::Var, ty, current)
            }
            Place::Index(var, idx_expr) => {
                let idx = self.eval_index(idx_expr)?;
                let Some(Type::Array(elem_ty)) = self.var_type(var) else {
                    return Err(Stop);
                };
                match (idx, self.value(var.at)) {
                    (Some(i), Some(AVal::Array(cells))) => {
                        let cell = *cells.get(i).ok_or(Stop)?;
                        let current = self.heap.get(cell).ok_or(Stop)?.clone();
                        (var, Tgt::Elem(cell), *elem_ty, current)
                    }
                    _ => {
                        self.inexact("assignment through a run-dependent array index");
                        (var, Tgt::Lost, *elem_ty, AVal::Lost)
                    }
                }
            }
        };

        let result = match op {
            AssignOp::Set => {
                let v = self.eval_with_target(value_expr, Some(&target_ty))?;
                Some(self.coerce(v, &target_ty)?)
            }
            AssignOp::Add | AssignOp::Sub => match current {
                AVal::Known(Value::Quantum(q)) if q.kind == QKind::Quint => {
                    let rhs = self.eval(value_expr)?;
                    self.quint_add_sub_in_place(&q.qubits, rhs, op == AssignOp::Sub)?;
                    None
                }
                classical => {
                    let rhs = self.eval(value_expr)?;
                    let bin = if op == AssignOp::Add {
                        BinOp::Add
                    } else {
                        BinOp::Sub
                    };
                    Some(self.classical_binary(bin, classical, rhs)?)
                }
            },
            AssignOp::Shl | AssignOp::Shr => {
                let rhs = self.eval(value_expr)?;
                let k = amount(&rhs, "shift amount")?;
                match (current, k) {
                    (AVal::Known(Value::Quantum(q)), Some(k)) => {
                        lower::rotate(self, &q.qubits, k, op == AssignOp::Shl)?;
                        None
                    }
                    (AVal::Known(Value::Quantum(_)), None) => {
                        self.inexact(
                            "cyclic shift by a run-dependent amount: rotation network unknown",
                        );
                        None
                    }
                    (AVal::Known(int @ Value::Int(_)), Some(_)) => {
                        let shift = if op == AssignOp::Shl {
                            BinOp::Shl
                        } else {
                            BinOp::Shr
                        };
                        let rhs = rhs.known().ok_or(Stop)?;
                        Some(AVal::Known(ops::binary(shift, &int, rhs, Span::default())?))
                    }
                    (AVal::Unknown(Type::Int), Some(_)) => Some(AVal::Unknown(Type::Int)),
                    (AVal::Known(Value::Int(_)) | AVal::Unknown(Type::Int) | AVal::Lost, _) => {
                        Some(AVal::Lost)
                    }
                    _ => return Err(Stop),
                }
            }
        };

        if let Some(v) = result {
            match tgt {
                Tgt::Var => {
                    if let Some(slot) = self.value_mut(var.at) {
                        *slot = v;
                    }
                }
                Tgt::Elem(cell) => {
                    if let Some(e) = self.heap.get_mut(cell) {
                        *e = v;
                    }
                }
                // Any cell of the array, which other arrays may share.
                Tgt::Lost => self.heap.iter_mut().for_each(AVal::forget),
            }
        }
        Ok(())
    }

    fn eval_index(&mut self, e: &'r Expr<'a>) -> R<Option<usize>> {
        let v = self.eval(e)?;
        let v = self.measure_if_quantum(v)?;
        amount(&v, "index")
    }

    /// `base[i]`; `None` is an index the estimator does not know.
    fn index(&mut self, base: AVal, i: Option<usize>) -> R<AVal> {
        match (base, i) {
            (AVal::Array(cells), Some(i)) => {
                let cell = cells.get(i).and_then(|&c| self.heap.get(c));
                cell.cloned().ok_or(Stop)
            }
            (AVal::Known(b), Some(i)) => Ok(AVal::Known(ops::index_value(&b, i, Span::default())?)),
            (AVal::Known(Value::Quantum(_)), None) => {
                self.inexact("quantum register indexed by a run-dependent value");
                Ok(AVal::Lost)
            }
            _ => Ok(AVal::Lost),
        }
    }

    fn exec_gate(&mut self, gate: GateKind, args: &'r [Expr<'a>]) -> R<()> {
        let operand = |est: &mut Self, e: Option<&'r Expr<'a>>| -> R<Option<Vec<usize>>> {
            match est.eval(e.ok_or(Stop)?)? {
                AVal::Known(Value::Quantum(q)) => Ok(Some(q.qubits)),
                AVal::Lost => Ok(None),
                _ => Err(Stop),
            }
        };
        let first = operand(self, args.first())?;
        let second = match gate {
            GateKind::CNot => operand(self, args.get(1))?,
            _ => None,
        };
        // An unknown angle emits the same one phase gate per qubit.
        let angle = match gate {
            GateKind::Phase => self
                .eval(args.get(1).ok_or(Stop)?)?
                .known()
                .and_then(Value::as_f64),
            _ => None,
        };
        match (gate, first, second) {
            (GateKind::CNot, Some(c), Some(t)) => lower::cnot(self, &c, &t, Span::default())?,
            (GateKind::CNot, _, _) | (_, None, _) => {
                self.inexact("gate applied to a register the estimator lost track of")
            }
            (_, Some(q), _) => {
                lower::gate_each(self, gate, &q, angle.unwrap_or(0.0), Span::default())?
            }
        }
        Ok(())
    }

    // ---- quantum arithmetic (the runtime's lowering, on known operands) -

    fn quint_add_sub_in_place(&mut self, target: &[usize], rhs: AVal, subtract: bool) -> R<()> {
        let rhs = match rhs {
            // The Draper adder emits the same gates for every constant —
            // only the phase angles differ — so an unknown classical
            // addend lowers exactly as 0.
            AVal::Unknown(Type::Int | Type::Bool) => Value::Int(0),
            AVal::Lost => {
                self.inexact("quint arithmetic with an operand the estimator lost track of");
                return Ok(());
            }
            AVal::Known(v) => v,
            _ => return Err(Stop),
        };
        let rhs = Operand::of(&rhs).ok_or(Stop)?;
        Ok(lower::add_sub_in_place(self, target, rhs, subtract)?)
    }

    fn quint_add_sub_expr(&mut self, a: &[usize], rhs: AVal, subtract: bool) -> R<AVal> {
        let rhs = match rhs {
            // A bool is one qubit wide whatever its value.
            AVal::Unknown(Type::Bool) => Value::Int(0),
            AVal::Unknown(Type::Int) | AVal::Lost => {
                self.inexact("quint arithmetic with a run-dependent operand: result width unknown");
                return Ok(AVal::Lost);
            }
            AVal::Known(v) => v,
            _ => return Err(Stop),
        };
        let rhs = Operand::of(&rhs).ok_or(Stop)?;
        let sum = lower::add_sub_expr(self, a, rhs, subtract)?;
        Ok(AVal::register(sum, QKind::Quint))
    }

    fn quint_mul_expr(&mut self, a: &[usize], rhs: AVal) -> R<AVal> {
        let rhs = match rhs {
            AVal::Unknown(Type::Int | Type::Bool) | AVal::Lost => {
                self.inexact("quint multiplication by a run-dependent factor: width unknown");
                return Ok(AVal::Lost);
            }
            AVal::Known(v) => v,
            _ => return Err(Stop),
        };
        let rhs = Operand::of(&rhs).ok_or(Stop)?;
        let product = lower::mul_expr(self, a, rhs)?;
        Ok(AVal::register(product, QKind::Quint))
    }

    // ---- the `in` operator: Grover substring search -----------------------

    /// Upper-bounds `pattern in haystack` for a qustring haystack.
    ///
    /// The runtime's BBHT schedule draws random iteration counts and may
    /// return early, so the real circuit is run-dependent; the estimate
    /// plays the schedule's *worst case* (maximum draw every round, no
    /// early exit), which dominates every actual run. `bits` is `None`
    /// when the pattern string is not statically known, in which case the
    /// worst pattern (every length, all-zero bits — the most X-conjugation
    /// in the oracle) is taken.
    fn substring_search_upper_bound(&mut self, bits: Option<Vec<bool>>, hay: &[usize]) -> R<AVal> {
        let n = hay.len();
        self.inexact(
            "Grover substring search ('in'): the BBHT schedule is randomized, so the \
             mirrored counts are its worst case",
        );
        match bits {
            Some(b) if b.is_empty() => Ok(AVal::Known(Value::Bool(true))),
            Some(b) if b.len() > n => Ok(AVal::Known(Value::Bool(false))),
            Some(b) => {
                self.worst_case_search(&b, hay)?;
                Ok(AVal::Unknown(Type::Bool))
            }
            None => {
                if n == 0 {
                    // Any non-empty pattern misses; the empty one matches.
                    // Either way no circuit is built.
                    return Ok(AVal::Unknown(Type::Bool));
                }
                // Unknown pattern: bound every length, keep the world with
                // the most gates, and fold the other lengths' excesses into
                // additive slack so each metric stays an upper bound.
                let worlds = (1..=n).map(|m| {
                    let mut world = self.clone();
                    world.worst_case_search(&vec![false; m], hay)?;
                    Ok(world)
                });
                let worlds = worlds.collect::<R<Vec<_>>>()?;
                self.keep_largest(worlds)?;
                Ok(AVal::Unknown(Type::Bool))
            }
        }
    }

    /// Plays the worst-case BBHT run onto the shadow circuit with the
    /// runtime's own search fragments.
    fn worst_case_search(&mut self, bits: &[bool], hay: &[usize]) -> R<()> {
        if hay.len() > 32 {
            // A qustring this wide cannot be simulated densely anyway;
            // playing the search would explode the shadow circuit.
            return Err(Stop);
        }
        let search = SubstringSearch::prepare(self, bits, hay, Span::default())?;
        // Worst case of the runtime's loop: every round draws the maximum
        // iteration count, every candidate is in range (so the window
        // verification measure happens), the reset flips every pos bit,
        // and no round succeeds early.
        for k in search.schedule() {
            self.step()?;
            search.amplify(self, k)?;
            self.shadow_measure(&search.pos)?;
            for &pq in &search.pos {
                self.apply(Gate::X(pq))?;
            }
            self.shadow_measure(&hay[..bits.len()])?;
        }
        self.release(&search.pos);
        Ok(())
    }

    // ---- expressions ------------------------------------------------------

    fn eval(&mut self, e: &'r Expr<'a>) -> R<AVal> {
        self.eval_with_target(e, None)
    }

    fn eval_condition(&mut self, e: &'r Expr<'a>) -> R<Option<bool>> {
        let v = self.eval(e)?;
        match self.measure_if_quantum(v)? {
            AVal::Known(v) => Ok(Some(v.as_bool().ok_or(Stop)?)),
            AVal::Unknown(_) | AVal::Lost => Ok(None),
            AVal::Array(_) => Err(Stop),
        }
    }

    fn eval_with_target(&mut self, e: &'r Expr<'a>, target: Option<&Type>) -> R<AVal> {
        self.step()?;
        Ok(match &e.kind {
            ExprKind::Int(v) => AVal::Known(Value::Int(*v)),
            ExprKind::Float(v) => AVal::Known(Value::Float(*v)),
            ExprKind::Bool(b) => AVal::Known(Value::Bool(*b)),
            ExprKind::Str(s) => AVal::Known(Value::Str((*s).to_string())),
            ExprKind::Pi => AVal::Known(Value::Float(std::f64::consts::PI)),
            ExprKind::Quint(v) => if matches!(target, Some(Type::Qubit)) && *v <= 1 {
                Cast::new_qubit_basis(self, "", *v == 1)?
            } else {
                Cast::new_quint(self, "", *v, None)?
            }
            .into(),
            ExprKind::Qustring(s) => Cast::new_qustring(self, "", s, e.span)?.into(),
            ExprKind::Ket(k) => Cast::new_qubit_ket(self, "", *k)?.into(),
            ExprKind::Array(elems) => {
                let elem_target = match target {
                    Some(Type::Array(t)) => Some(&**t),
                    _ => None,
                };
                let mut items = Vec::with_capacity(elems.len());
                for el in elems {
                    let v = self.eval_with_target(el, elem_target)?;
                    items.push(match elem_target {
                        Some(t) => self.coerce(v, t)?,
                        None => v,
                    });
                }
                self.alloc(items)
            }
            ExprKind::QuantumArray(elems) => {
                let vals: Vec<AVal> = elems
                    .iter()
                    .map(|el| self.eval(el))
                    .collect::<R<Vec<_>>>()?;
                let any_float = vals.iter().any(|v| {
                    matches!(v, AVal::Known(Value::Float(_)) | AVal::Unknown(Type::Float))
                });
                if any_float || matches!(target, Some(Type::Qubit)) {
                    let amplitude =
                        |i: usize| vals.get(i).and_then(AVal::known).and_then(Value::as_f64);
                    let (Some(a), Some(b)) = (amplitude(0), amplitude(1)) else {
                        self.inexact("qubit amplitude literal with run-dependent amplitudes");
                        return Ok(AVal::Lost);
                    };
                    if vals.len() != 2 {
                        return Err(Stop);
                    }
                    Cast::new_qubit_amplitudes(self, "", a, b, e.span)?.into()
                } else {
                    let value = |v: &AVal| u64::try_from(v.known()?.as_i64()?).ok();
                    let values: Option<Vec<u64>> = vals.iter().map(value).collect();
                    let Some(values) = values else {
                        self.inexact(
                            "superposition literal with run-dependent values: state \
                             preparation network unknown",
                        );
                        return Ok(AVal::Lost);
                    };
                    Cast::new_quint_superposed(self, "", &values, e.span)?.into()
                }
            }
            ExprKind::Var(var) => self.value(var.at).ok_or(Stop)?.clone(),
            ExprKind::IndexVar { var, index, .. } => {
                // One step for reading the variable, as for `base[index]`.
                self.step()?;
                self.value(var.at).ok_or(Stop)?;
                let i = self.eval_index(index)?;
                match (self.value(var.at).ok_or(Stop)?, i) {
                    // One element, not a copy of the whole register.
                    (AVal::Known(b), Some(i)) => {
                        AVal::Known(ops::index_value(b, i, Span::default())?)
                    }
                    (base, i) => self.index(base.clone(), i)?,
                }
            }
            ExprKind::Index(base, idx) => {
                let b = self.eval(base)?;
                let i = self.eval_index(idx)?;
                self.index(b, i)?
            }
            ExprKind::Unary(op, inner) => {
                let v = self.eval(inner)?;
                match (op, self.measure_if_quantum(v)?) {
                    (_, AVal::Known(v)) => AVal::Known(ops::unary(*op, &v, inner.span)?),
                    (UnOp::Neg, v @ (AVal::Unknown(Type::Int | Type::Float) | AVal::Lost)) => v,
                    (UnOp::Not, AVal::Unknown(_) | AVal::Lost) => AVal::Unknown(Type::Bool),
                    _ => return Err(Stop),
                }
            }
            ExprKind::Binary(op, l, r) => self.eval_binary(*op, l, r)?,
            ExprKind::Call { callee, args, .. } => self.eval_call(*callee, args)?,
            ExprKind::Measure(inner) => match self.eval(inner)? {
                q @ AVal::Known(Value::Quantum(_)) => self.measure_if_quantum(q)?,
                AVal::Lost => {
                    self.inexact("measure of a value the estimator lost track of");
                    self.slack_meas += 1;
                    AVal::Lost
                }
                _ => return Err(Stop),
            },
        })
    }

    fn eval_binary(&mut self, op: BinOp, l: &'r Expr<'a>, r: &'r Expr<'a>) -> R<AVal> {
        use BinOp::*;
        if matches!(op, And | Or) {
            let lv = self.eval_condition(l)?;
            return match (op, lv) {
                (And, Some(false)) => Ok(AVal::Known(Value::Bool(false))),
                (Or, Some(true)) => Ok(AVal::Known(Value::Bool(true))),
                (_, Some(_)) => Ok(match self.eval_condition(r)? {
                    Some(b) => AVal::Known(Value::Bool(b)),
                    None => AVal::Unknown(Type::Bool),
                }),
                (_, None) => {
                    // Whether the right side (and its measurements) runs
                    // depends on the unknown left value: explore both.
                    self.explore(
                        |e| {
                            e.eval_condition(r)?;
                            Ok(Flow::Normal)
                        },
                        |_| Ok(Flow::Normal),
                    )?;
                    Ok(AVal::Unknown(Type::Bool))
                }
            };
        }

        let lv = self.eval(l)?;

        if op == In {
            let rv = self.eval(r)?;
            let pattern = self.measure_if_quantum(lv)?;
            return match rv {
                AVal::Known(Value::Quantum(hay)) if hay.kind == QKind::Qustring => {
                    let bits = match &pattern {
                        AVal::Known(Value::Str(p)) => {
                            if !p.chars().all(|c| c == '0' || c == '1') {
                                return Err(Stop);
                            }
                            Some(p.chars().map(|c| c == '1').collect::<Vec<bool>>())
                        }
                        AVal::Unknown(Type::String) => None,
                        _ => return Err(Stop),
                    };
                    self.substring_search_upper_bound(bits, &hay.qubits)
                }
                rv => self.classical_binary(In, pattern, rv),
            };
        }

        if let AVal::Known(Value::Quantum(q)) = &lv {
            if q.kind == QKind::Quint && matches!(op, Add | Sub) {
                let q = q.qubits.clone();
                let rv = self.eval(r)?;
                return self.quint_add_sub_expr(&q, rv, op == Sub);
            }
            if q.kind == QKind::Quint && op == Mul {
                let q = q.qubits.clone();
                let rv = self.eval(r)?;
                return self.quint_mul_expr(&q, rv);
            }
            if matches!(op, Shl | Shr) {
                let q = q.clone();
                let rv = self.eval(r)?;
                let Some(k) = amount(&rv, "shift amount")? else {
                    self.inexact(
                        "cyclic shift by a run-dependent amount: rotation network unknown",
                    );
                    return Ok(AVal::Lost);
                };
                let copy = lower::shifted_copy(self, &q.qubits, k, op == Shl)?;
                return Ok(AVal::register(copy, q.kind));
            }
        }
        if let (
            Add | Mul,
            AVal::Known(Value::Int(_) | Value::Bool(_)) | AVal::Unknown(Type::Int | Type::Bool),
        ) = (op, &lv)
        {
            let rv = self.eval(r)?;
            if let AVal::Known(Value::Quantum(q)) = &rv {
                if q.kind == QKind::Quint {
                    let q = q.qubits.clone();
                    return if op == Add {
                        self.quint_add_sub_expr(&q, lv, false)
                    } else {
                        self.quint_mul_expr(&q, lv)
                    };
                }
            }
            return self.classical_binary(op, lv, rv);
        }

        let rv = self.eval(r)?;
        self.classical_binary(op, lv, rv)
    }

    /// A classical operator: quantum operands are measured, two known
    /// operands fold through the runtime's own [`ops::binary`], and an
    /// unknown operand yields an unknown result.
    fn classical_binary(&mut self, op: BinOp, lv: AVal, rv: AVal) -> R<AVal> {
        use BinOp::*;
        let lv = self.measure_if_quantum(lv)?;
        let rv = self.measure_if_quantum(rv)?;
        match (lv, rv) {
            (AVal::Known(a), AVal::Known(b)) => {
                Ok(AVal::Known(ops::binary(op, &a, &b, Span::default())?))
            }
            (AVal::Lost, _) | (_, AVal::Lost) => Ok(AVal::Lost),
            // The operation still type-checks; only the value is lost.
            (AVal::Unknown(_), _) | (_, AVal::Unknown(_)) => Ok(match op {
                Eq | Ne | Lt | Le | Gt | Ge | In => AVal::Unknown(Type::Bool),
                _ => AVal::Lost,
            }),
            _ => Err(Stop),
        }
    }

    fn eval_call(&mut self, callee: Callee, args: &'r [Expr<'a>]) -> R<AVal> {
        let index = match callee {
            Callee::Builtin(b) => return self.eval_builtin(b, args),
            Callee::Function(i) => i as usize,
            Callee::Unknown => return Err(Stop),
        };
        let functions = self.functions;
        let f = functions.get(index).ok_or(Stop)?;
        if args.len() != f.decl.params.len() {
            return Err(Stop);
        }
        if self.call_depth + 1 > MAX_CALL_DEPTH {
            self.inexact("call depth exceeds the estimator's bound");
            return Ok(AVal::Lost);
        }
        // Plain-variable arguments of exactly the parameter's type bind
        // by reference, as in the runtime; the others are evaluated in
        // the caller's frame and coerced.
        let mut bound = Vec::with_capacity(args.len());
        for (a, p) in args.iter().zip(&f.decl.params) {
            bound.push(match &a.kind {
                ExprKind::Var(var) if self.var_type(var).is_some_and(|t| t == p.ty) => {
                    Binding::Cell(self.share(var.at).ok_or(Stop)?)
                }
                _ => {
                    let v = self.eval_with_target(a, Some(&p.ty))?;
                    Binding::Val(self.coerce(v, &p.ty)?)
                }
            });
        }
        // The callee's frame goes on top of the caller's.
        let frame = self.slots.len();
        self.slots.resize(frame + f.slots, Binding::Empty);
        for (binding, &slot) in bound.into_iter().zip(&f.params) {
            if let Some(s) = self.slots.get_mut(frame + slot as usize) {
                *s = binding;
            }
        }
        self.call_depth += 1;
        let caller = std::mem::replace(&mut self.base, frame);
        let flow = self.exec_stmts(&f.body);
        self.base = caller;
        self.slots.truncate(frame);
        self.call_depth -= 1;
        match flow? {
            Flow::Return(v) => Ok(v),
            Flow::Normal if f.decl.ret_type == Type::Void => Ok(AVal::Known(Value::Void)),
            Flow::Normal => Err(Stop),
        }
    }

    fn eval_builtin(&mut self, builtin: Builtin, args: &'r [Expr<'a>]) -> R<AVal> {
        if args.len() != builtin.arity() {
            return Err(Stop);
        }
        let arg = self.eval(&args[0])?;
        let span = Span::default();
        Ok(match builtin {
            Builtin::Len => match arg {
                AVal::Array(cells) => AVal::Known(Value::Int(cells.len() as i64)),
                AVal::Known(v) => AVal::Known(ops::len(&v, span)?),
                AVal::Unknown(Type::String) | AVal::Lost => AVal::Unknown(Type::Int),
                AVal::Unknown(_) => return Err(Stop),
            },
            Builtin::Width => match arg {
                AVal::Known(v) => AVal::Known(ops::width(&v, span)?),
                AVal::Lost => AVal::Unknown(Type::Int),
                _ => return Err(Stop),
            },
            Builtin::Range => match arg {
                AVal::Known(v) => {
                    let n = ops::range_len(&v, span)?;
                    self.alloc((0..n).map(|i| AVal::Known(Value::Int(i))))
                }
                AVal::Unknown(_) | AVal::Lost => AVal::Lost,
                AVal::Array(_) => return Err(Stop),
            },
            Builtin::Int | Builtin::Float | Builtin::Bool | Builtin::Str => {
                match self.measure_if_quantum(arg)? {
                    AVal::Known(v) => AVal::Known(ops::cast(builtin, &v, span)?),
                    AVal::Array(_) if builtin != Builtin::Str => return Err(Stop),
                    _ => AVal::Unknown(match builtin {
                        Builtin::Int => Type::Int,
                        Builtin::Float => Type::Float,
                        Builtin::Bool => Type::Bool,
                        _ => Type::String,
                    }),
                }
            }
            Builtin::Qmin | Builtin::Qmax => match arg {
                // Dürr–Høyer runs on its own internal circuit, so it costs
                // nothing in the accumulated circuit — but quantum array
                // elements are measured first, which does.
                AVal::Array(cells) => {
                    if cells.is_empty() {
                        return Err(Stop);
                    }
                    for c in cells {
                        let item = self.heap.get(c).ok_or(Stop)?.clone();
                        self.measure_if_quantum(item)?;
                    }
                    AVal::Unknown(Type::Int)
                }
                AVal::Lost => {
                    self.inexact("qmin/qmax over a collection the estimator lost track of");
                    AVal::Unknown(Type::Int)
                }
                _ => return Err(Stop),
            },
            Builtin::Rotl | Builtin::Rotr => {
                let k = self.eval(&args[1])?;
                match (arg, amount(&k, "rotation amount")?) {
                    (AVal::Known(Value::Quantum(q)), Some(k)) => {
                        lower::rotate(self, &q.qubits, k, builtin == Builtin::Rotl)?;
                    }
                    (AVal::Known(Value::Quantum(_)) | AVal::Lost, _) => {
                        self.inexact(
                            "cyclic shift by a run-dependent amount: rotation network unknown",
                        );
                    }
                    _ => return Err(Stop),
                }
                AVal::Known(Value::Void)
            }
        })
    }

    // ---- both-worlds exploration -----------------------------------------

    /// Runs two alternative continuations on clones of the current state.
    /// If both worlds end in the same circuit and environment the merge is
    /// exact; otherwise the larger world is kept and the difference
    /// becomes additive slack (every figure stays an upper bound).
    fn explore(
        &mut self,
        then_f: impl FnOnce(&mut Est<'r, 'a>) -> R<Flow>,
        else_f: impl FnOnce(&mut Est<'r, 'a>) -> R<Flow>,
    ) -> R<Flow> {
        let mark = self.heap.len();
        let (mut a, mut b) = (self.clone(), self.clone());
        let fa = then_f(&mut a)?;
        let fb = else_f(&mut b)?;
        // Each world ends as a block does (a condition's right side too).
        a.drop_cells(mark, &fa);
        b.drop_cells(mark, &fb);
        let steps = a.steps.max(b.steps);
        // A non-Clifford gate on *either* path poisons the Clifford
        // claim — the discarded world's gates survive only as slack
        // counts, so the bit must be merged before a world is dropped.
        let clifford_only = a.clifford_only && b.clifford_only;
        let same_world = a.circ.ops() == b.circ.ops()
            && a.circ.num_qubits() == b.circ.num_qubits()
            && a.free == b.free
            && a.measurements == b.measurements
            && a.slots == b.slots
            && a.heap == b.heap
            && a.slack_gates == b.slack_gates
            && a.slack_qubits == b.slack_qubits
            && a.slack_meas == b.slack_meas;
        if same_world {
            *self = a;
        } else {
            // `a` is kept on a tie.
            self.keep_largest([b, a])?;
            self.inexact(
                "measurement-dependent branches build different circuits: totals are the \
                 larger branch plus slack for the other",
            );
            // Values that differ between the worlds are no longer known.
            self.havoc_all();
        }
        self.steps = steps;
        self.clifford_only = clifford_only;
        Ok(match (fa, fb) {
            // An array either world returns names cells of that world alone.
            (Flow::Return(AVal::Array(_)), _) | (_, Flow::Return(AVal::Array(_)))
                if !same_world =>
            {
                Flow::Return(AVal::Lost)
            }
            (Flow::Return(va), Flow::Return(vb)) => {
                Flow::Return(if va == vb { va } else { AVal::Lost })
            }
            (Flow::Normal, Flow::Normal) => Flow::Normal,
            (f @ Flow::Return(_), Flow::Normal) | (Flow::Normal, f @ Flow::Return(_)) => {
                if same_world {
                    self.inexact("a measurement-dependent branch may return early");
                }
                f
            }
        })
    }

    /// Goes on in the world of `worlds` with the most gates (the last one
    /// on a tie) and adds to it, as slack, what any other world exceeds it
    /// by, so every figure stays an upper bound.
    fn keep_largest(&mut self, worlds: impl IntoIterator<Item = Est<'r, 'a>>) -> R<()> {
        let mut max = [0; 4];
        let mut kept: Option<([usize; 4], Est<'r, 'a>)> = None;
        for w in worlds {
            let t = [
                w.circ.size() + w.slack_gates,
                w.circ.depth() + w.slack_depth,
                w.circ.num_qubits() + w.slack_qubits,
                w.measurements + w.slack_meas,
            ];
            max = std::array::from_fn(|i| max[i].max(t[i]));
            if kept.as_ref().is_none_or(|(k, _)| t[0] >= k[0]) {
                kept = Some((t, w));
            }
        }
        let (t, mut kept) = kept.ok_or(Stop)?;
        kept.slack_gates += max[0] - t[0];
        kept.slack_depth += max[1] - t[1];
        kept.slack_qubits += max[2] - t[2];
        kept.slack_meas += max[3] - t[3];
        *self = kept;
        Ok(())
    }
}

/// What an unknown number of runs of a loop may write: every
/// variable it assigns or names as a call argument (which may bind by
/// reference), whether it writes an array element in place, and the user
/// functions it calls.
#[derive(Default)]
struct Writes {
    locs: Vec<Loc>,
    /// An indexed assignment, or a write to a `foreach` variable (bound
    /// to its element's cell): it writes storage other arrays may share.
    elements: bool,
    calls: Vec<u32>,
}

impl Writes {
    fn of(stmts: &[Stmt<'_>]) -> Writes {
        let mut w = Writes::default();
        w.stmts(stmts);
        w
    }

    fn stmts(&mut self, stmts: &[Stmt<'_>]) {
        for s in stmts {
            match s {
                Stmt::Assign { target, value, .. } => {
                    match target {
                        Place::Var(v) => self.locs.push(v.at),
                        Place::Index(_, i) => {
                            self.elements = true;
                            self.expr(i);
                        }
                    }
                    self.expr(value);
                }
                Stmt::If {
                    cond,
                    then_block,
                    else_block,
                    ..
                } => {
                    self.expr(cond);
                    self.stmts(then_block);
                    if let Some(eb) = else_block {
                        self.stmts(eb);
                    }
                }
                Stmt::While { cond: e, body, .. }
                | Stmt::Foreach {
                    iterable: e, body, ..
                } => {
                    self.expr(e);
                    self.stmts(body);
                    if let Stmt::Foreach { var, .. } = s {
                        self.elements |= self.locs.contains(&Loc::Local(*var));
                    }
                }
                Stmt::Decl { init: Some(e), .. }
                | Stmt::Return { value: Some(e), .. }
                | Stmt::Print { value: e, .. }
                | Stmt::Expr { expr: e, .. }
                | Stmt::Measure { target: e, .. } => self.expr(e),
                Stmt::Gate { args, .. } => args.iter().for_each(|a| self.expr(a)),
                Stmt::Block { stmts, .. } => self.stmts(stmts),
                Stmt::Decl { init: None, .. }
                | Stmt::Return { value: None, .. }
                | Stmt::Barrier { .. } => {}
            }
        }
    }

    fn expr(&mut self, e: &Expr<'_>) {
        match &e.kind {
            ExprKind::Call { callee, args, .. } => {
                if let Callee::Function(f) = callee {
                    self.calls.push(*f);
                }
                for a in args {
                    if let ExprKind::Var(v) = &a.kind {
                        self.locs.push(v.at);
                    }
                    self.expr(a);
                }
            }
            ExprKind::Unary(_, inner) | ExprKind::Measure(inner) => self.expr(inner),
            ExprKind::IndexVar { index, .. } => self.expr(index),
            ExprKind::Binary(_, l, r) | ExprKind::Index(l, r) => {
                self.expr(l);
                self.expr(r);
            }
            ExprKind::Array(items) | ExprKind::QuantumArray(items) => {
                items.iter().for_each(|i| self.expr(i))
            }
            _ => {}
        }
    }
}

/// The shadow circuit, as the target of the runtime's lowering. Unlike
/// the runtime's handler it needs no register names (every register is
/// `r`) and always re-pools released qubits: every release site in the
/// shared lowering uncomputes its work qubits back to `|0>`
/// deterministically, so there is no state to probe.
impl Emit for Est<'_, '_> {
    fn fresh_name(&mut self, _base: &str) -> String {
        String::new()
    }

    fn check_capacity(&self, extra: usize, _name: &str) -> QutesResult<()> {
        let total = self.circ.num_qubits() + extra;
        if total > MAX_SHADOW_QUBITS {
            return Err(QutesError::Sim(qutes_sim::SimError::TooManyQubits(total)));
        }
        Ok(())
    }

    fn allocate(&mut self, name: &str, width: usize) -> QutesResult<Vec<usize>> {
        self.check_capacity(width, name)?;
        Ok(self.circ.add_qreg("r", width).qubits())
    }

    fn acquire(&mut self, n: usize, name: &str) -> QutesResult<Vec<usize>> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            match self.free.pop() {
                Some(q) => out.push(q),
                None => break,
            }
        }
        let missing = n - out.len();
        if missing > 0 {
            out.extend(self.allocate(name, missing)?);
        }
        Ok(out)
    }

    fn release(&mut self, qubits: &[usize]) {
        self.free.extend_from_slice(qubits);
    }

    fn apply(&mut self, gate: Gate) -> QutesResult<()> {
        if !gate.is_clifford() {
            self.clifford_only = false;
        }
        Ok(self.circ.append(gate)?)
    }

    fn num_qubits(&self) -> usize {
        self.circ.num_qubits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qutes_frontend::parse;

    fn est(src: &str) -> ResourceEstimate {
        estimate(&parse(src).expect("test program parses"))
    }

    #[test]
    fn empty_program_is_exact_zero() {
        let e = est("int x = 1;\nprint x;\n");
        assert!(e.exact);
        assert_eq!(e.qubits, 0);
        assert_eq!(e.gates, 0);
        assert_eq!(e.measurements, 0);
    }

    #[test]
    fn bell_pair_counts() {
        let e =
            est("qubit a = |0>;\nqubit b = |0>;\nhadamard a;\ncnot a, b;\nprint a;\nprint b;\n");
        assert!(e.exact, "notes: {:?}", e.notes);
        assert_eq!(e.qubits, 2);
        // H + CX + 2 measure instructions.
        assert_eq!(e.gates, 4);
        assert_eq!(e.measurements, 2);
    }

    #[test]
    fn known_loops_unroll_exactly() {
        let e = est(
            "quint a = 3q;\nint i = 0;\nwhile (i < 3) {\n  a += 1;\n  i = i + 1;\n}\nprint a;\n",
        );
        assert!(e.exact, "notes: {:?}", e.notes);
        assert_eq!(e.qubits, 2);
        assert!(e.gates > 0);
    }

    #[test]
    fn unknown_condition_with_identical_branches_stays_exact() {
        let e = est(
            "qubit q = |+>;\nbool b = q;\nif (b) {\n  print \"yes\";\n} else {\n  print \"no\";\n}\n",
        );
        assert!(e.exact, "notes: {:?}", e.notes);
        assert_eq!(e.measurements, 1);
    }

    #[test]
    fn divergent_branches_become_upper_bounds() {
        let e = est(
            "qubit q = |+>;\nqubit t = |0>;\nbool b = q;\nif (b) {\n  not t;\n  not t;\n} else {\n}\nprint t;\n",
        );
        assert!(!e.exact);
        assert_eq!(e.gates, 1 + 2 + 2, "H, 2 X (larger branch), 2 measures");
        assert!(!e.notes.is_empty());
    }

    #[test]
    fn grover_in_is_flagged_inexact() {
        let e = est("qustring t = \"0110\"q;\nbool hit = \"11\" in t;\nprint hit;\n");
        assert!(!e.exact);
        assert!(e.notes.iter().any(|n| n.contains("BBHT")));
    }

    #[test]
    fn summary_mentions_exactness() {
        let e = est("qubit a = |1>;\nprint a;\n");
        assert!(e.summary().contains("exact"));
        assert!(e.summary().contains("1 qubit,"));
    }

    #[test]
    fn clifford_only_holds_for_ghz_style_programs() {
        let e =
            est("qubit a = |0>;\nqubit b = |0>;\nhadamard a;\ncnot a, b;\nprint a;\nprint b;\n");
        assert!(e.clifford_only, "H/CX/measure are all Clifford");
        assert!(e.summary().contains("clifford-only"), "{}", e.summary());
    }

    #[test]
    fn clifford_only_false_for_arithmetic_programs() {
        // Quint addition lowers to phase rotations — not Clifford.
        let e = est("quint a = 3q;\na += 1;\nprint a;\n");
        assert!(!e.clifford_only, "ripple adders use non-Clifford phases");
        assert!(!e.summary().contains("clifford-only"), "{}", e.summary());
    }

    #[test]
    fn clifford_only_poisoned_by_either_branch() {
        // The non-Clifford gate sits in the *smaller* (discarded) branch;
        // the merge must still poison the Clifford bit.
        let e = est(
            "qubit q = |+>;\nquint t = 0q;\nbool b = q;\nif (b) {\n  not t;\n  not t;\n  not t;\n} else {\n  t += 1;\n}\nprint t;\n",
        );
        assert!(!e.clifford_only, "notes: {:?}", e.notes);
    }

    #[test]
    fn clifford_only_false_when_estimation_gives_up() {
        // `in` search lowers via Grover/BBHT: inexact and non-Clifford.
        let e = est("qustring t = \"0110\"q;\nbool hit = \"11\" in t;\nprint hit;\n");
        assert!(!e.clifford_only);
    }

    #[test]
    fn clifford_only_lost_on_give_up_even_in_clifford_programs() {
        // The step budget trips mid-loop: gates past the stop point are
        // unknown, so even a Clifford-only program loses the bit. (The
        // runtime still keeps it on the tableau; see tests/dispatch.rs.)
        let e = est("int i = 0;\nwhile (i < 10000000) {\n  i = i + 1;\n}\n\
             qubit a = |0>;\nqubit b = |0>;\nhadamard a;\ncnot a, b;\nprint a;\n");
        assert!(!e.exact, "the step budget must have tripped");
        assert!(!e.clifford_only, "notes: {:?}", e.notes);
    }

    #[test]
    fn clifford_only_still_false_on_give_up_with_phase_gates() {
        // Same give-up shape, with a phase gate past the stop point.
        let e = est("int i = 0;\nwhile (i < 10000000) {\n  i = i + 1;\n}\n\
             qubit q = |0>;\nphase(q, pi/4);\nprint q;\n");
        assert!(!e.exact);
        assert!(!e.clifford_only);
    }
}
