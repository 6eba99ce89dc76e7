//! Static resource estimation: bounds on qubit count, gate count, circuit
//! depth, and measurement count — computed **without simulating**.
//!
//! The estimator is the interpreter run over an abstract domain: it
//! runs the runtime's own walker (`qutes_core::interp`) over the
//! checker's resolution, so evaluation order, slot frames, by-reference
//! binding, the folding of known values (`qutes_core::ops`) and the
//! circuit lowering (`qutes_core::lower`, on a *shadow circuit* that
//! implements the runtime handler's [`Emit`] trait) are the same code.
//! This module is only the abstract domain: what a run does not have.
//! Values may be run-dependent (`AVal`); an unknown operand reaches
//! the lowering as a stand-in that emits the same gates (an unknown
//! Draper constant becomes 0, an unknown phase angle 0.0); both sides of
//! a branch on an unknown condition are explored; a loop of unknown trip
//! count is havocked; and the slack of an inexact estimate is kept.
//! Nothing allocates a statevector or samples.
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
//! once; then every variable its body may write is forgotten: what it
//! assigns or passes to a call, the globals that the user functions it
//! calls may write, through their own calls too, and the contents of
//! every cell when any of them writes an element. A register it forgets
//! becomes a register of unknown qubits. An operation on such a register
//! (a gate, a measurement, quint arithmetic, a shift, an `in` search) is
//! played on a scratch circuit at the widest register a run can hold,
//! every qubit allocated so far, and what it emits becomes slack.
//!
//! Storage has the runtime's shape: an array is a list of cells in the
//! estimator's heap, shared by declarations, assignments, arguments and
//! element reads as `Value::Array` is; a `foreach` variable is bound to
//! its element's cell; and a by-reference argument moves the caller's
//! variable into a cell that the parameter shares.

use qutes_core::interp::{Arith, Binding, Domain, Flow, Interp, UnknownOp};
use qutes_core::lower::{self, Emit, Operand, SubstringSearch};
use qutes_core::ops;
use qutes_core::resolution::{
    Builtin, Callee, DeclSlot, Expr, ExprKind, Loc, Place, Resolution, Stmt,
};
use qutes_core::value::{QKind, QuantumRef, Value};
use qutes_core::{types, QutesError, QutesResult, TypeCastingHandler as Cast};
use qutes_frontend::ast::{GateKind, Program, Type};
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

/// Abstract value: what the estimator knows about a value at one point
/// of every run.
#[derive(Clone, Debug, PartialEq)]
enum AVal {
    /// A value every run computes alike: a classical scalar, a quantum
    /// register (its shadow-circuit qubits) or void. Never an array.
    Known(Value),
    /// A value of this type that is run-dependent: a classical scalar,
    /// or a register whose qubits are (after a loop havoc).
    Unknown(Type),
    /// An array: the heap cells of its elements, which may be unknown.
    Array(Vec<usize>),
    /// A value the estimator lost track of, type included.
    Lost,
}

impl AVal {
    /// Forgets a classical value. A register keeps its identity (its
    /// qubits exist whatever the run did) unless `registers`: a loop may
    /// have rebound it to other qubits.
    fn forget(&mut self, registers: bool) {
        match self {
            AVal::Known(Value::Quantum(q)) if registers => *self = AVal::Unknown(q.kind.as_type()),
            AVal::Known(Value::Quantum(_)) => {}
            AVal::Unknown(t) if t.is_quantum() => {}
            _ => *self = AVal::Lost,
        }
    }
}

impl From<Value> for AVal {
    fn from(v: Value) -> Self {
        AVal::Known(v)
    }
}

const LOST_REGISTER: &str = "operation on a register the estimator lost track of (or by an \
     amount it lost): counted at the widest register a run can hold";

/// The error estimation stops with: the program would fail at run time
/// too, or a budget ran out. The caller marks the estimate inexact.
fn stop() -> QutesError {
    QutesError::runtime("estimation stopped", Span::default())
}

const MAX_SHADOW_QUBITS: usize = 1024;
const MAX_STEPS: u64 = 200_000;
const MAX_CALL_DEPTH: usize = 64;

/// The abstract domain: the heap of shared cells, the shadow circuit, and
/// the slack and notes of an inexact estimate.
#[derive(Clone, Default)]
struct Est {
    /// The shared cells, indexed by id. A scope drops the cells it made
    /// that nothing outside it refers to (see [`drop_cells`]).
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
}

/// The walker over the abstract domain: one world of the estimate.
type World<'r, 'a> = Interp<'r, 'a, Est>;

/// [`estimate`] of a program the checker has already resolved.
pub(crate) fn estimate_resolved(program: &Resolution<'_>) -> ResourceEstimate {
    let mut world = Interp::new(program, Est::new(), MAX_STEPS, MAX_CALL_DEPTH);
    if world.exec_stmts(&program.main).is_err() {
        world
            .dom
            .inexact("estimation stopped early (budget exhausted or un-analyzable construct)");
        // Unknown gates may follow the stop point.
        world.dom.clifford_only = false;
    }
    world.dom.finish()
}

impl Est {
    fn new() -> Est {
        Est {
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

    fn shadow_measure(&mut self, qubits: &[usize]) -> QutesResult<()> {
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

    /// The most qubits a register the estimator holds as `v` can have in
    /// any run: a known register's own, one for a qubit, and otherwise
    /// every qubit allocated so far, since no register is wider. `None`
    /// for a classical value.
    fn width_bound(&self, v: &AVal) -> Option<usize> {
        match v {
            AVal::Known(Value::Quantum(q)) => Some(q.width()),
            AVal::Unknown(Type::Qubit) => Some(1),
            AVal::Unknown(t) if t.is_quantum() => Some(self.circ.num_qubits() + self.slack_qubits),
            AVal::Lost => Some(self.circ.num_qubits() + self.slack_qubits),
            _ => None,
        }
    }

    /// Plays `op` on a scratch circuit whose fresh registers have the
    /// given widths, and adds what it emits to the slack: its gates, its
    /// depth (appending a circuit adds at most its depth), the qubits it
    /// allocates beyond those registers and its measurements. Lowering a
    /// register of a run-dependent width at its widest bound every run.
    fn on_scratch<R>(
        &mut self,
        widths: &[usize],
        op: impl FnOnce(&mut Est, &[Vec<usize>]) -> QutesResult<R>,
    ) -> QutesResult<R> {
        let mut scratch = Est::new();
        let regs =
            (widths.iter().map(|&w| scratch.allocate("", w))).collect::<QutesResult<Vec<_>>>()?;
        let r = op(&mut scratch, &regs)?;
        self.absorb(scratch, widths.iter().sum());
        Ok(r)
    }

    /// Adds what a scratch circuit that starts with `width` stand-in
    /// qubits holds to the slack (see [`Est::on_scratch`]).
    fn absorb(&mut self, scratch: Est, width: usize) {
        self.slack_gates += scratch.circ.size() + scratch.slack_gates;
        self.slack_depth += scratch.circ.depth() + scratch.slack_depth;
        self.slack_qubits += scratch.circ.num_qubits() - width + scratch.slack_qubits;
        self.slack_meas += scratch.measurements + scratch.slack_meas;
        self.clifford_only &= scratch.clifford_only;
        scratch.notes.iter().for_each(|n| self.inexact(n));
    }

    /// Converts a value the estimator does not know to type `ty`:
    /// identity, widening, measurement of a register it lost, or
    /// promotion through a stand-in.
    fn coerce(&mut self, v: AVal, ty: &Type) -> QutesResult<AVal> {
        match v {
            AVal::Unknown(t) if t == *ty => Ok(AVal::Unknown(t)),
            AVal::Array(items) if matches!(ty, Type::Array(_)) => Ok(AVal::Array(items)),
            AVal::Lost => {
                if ty.is_quantum() {
                    self.inexact("value promoted to a quantum register of run-dependent width");
                    self.slack_qubits += 1;
                }
                Ok(AVal::Lost)
            }
            AVal::Unknown(t) if t.is_quantum() && ty.is_classical() => {
                let m = self.measure(AVal::Unknown(t), false)?;
                self.coerce(m, ty)
            }
            AVal::Unknown(t) if t.is_quantum() => Ok(match ty {
                Type::Qubit => AVal::Lost,
                _ => AVal::Unknown(ty.clone()),
            }),
            AVal::Unknown(Type::Int) if *ty == Type::Float => Ok(AVal::Unknown(Type::Float)),
            AVal::Unknown(t) if ty.is_quantum() => self.promote(&t, ty),
            _ => Err(stop()),
        }
    }

    /// Type promotion of a run-dependent classical value into a fresh
    /// register, through the runtime's `TypeCastingHandler::promote`
    /// with a stand-in: `|0>` for a qubit (the X gate a 1 would add
    /// becomes slack), or a 1-qubit register for a quint or qustring,
    /// whose real width is unknown.
    fn promote(&mut self, from: &Type, ty: &Type) -> QutesResult<AVal> {
        let (kind, value, note) = match (ty, from) {
            (Type::Qubit, Type::Bool | Type::Int) => (
                QKind::Qubit,
                Value::Bool(false),
                "qubit prepared from a run-dependent classical bit",
            ),
            (Type::Quint, Type::Bool | Type::Int) => (
                QKind::Quint,
                Value::Int(0),
                "quint promoted from a run-dependent integer: width unknown",
            ),
            (Type::Qustring, Type::String) => (
                QKind::Qustring,
                Value::Str("0".into()),
                "qustring promoted from a run-dependent string: width unknown",
            ),
            _ => return Err(stop()),
        };
        let promoted = Cast::promote(self, "", &value, kind, Span::default())?;
        self.inexact(note);
        if kind == QKind::Qubit {
            // The X gate a 1 would add, wherever it lands.
            self.slack_gates += 1;
            self.slack_depth += 1;
        }
        Ok(Value::Quantum(promoted).into())
    }

    /// Measures a value the estimator does not know: a register it lost
    /// is measured at its widest, as slack. A conversion (`explicit`
    /// false) passes classical values through.
    fn measure(&mut self, v: AVal, explicit: bool) -> QutesResult<AVal> {
        let measured = match &v {
            AVal::Unknown(t) if t.is_quantum() => {
                AVal::Unknown(types::measured(t).ok_or_else(stop)?)
            }
            AVal::Lost if explicit => AVal::Lost,
            _ if !explicit => return Ok(v),
            _ => return Err(stop()),
        };
        if v != AVal::Unknown(Type::Qubit) {
            self.inexact("measure of a value the estimator lost track of");
        }
        let width = self.width_bound(&v).ok_or_else(stop)?;
        self.on_scratch(&[width], |s, r| s.shadow_measure(&r[0]))?;
        Ok(measured)
    }
}

impl Domain for Est {
    type Val = AVal;
    type Cell = usize;
    type Unknown = ();
    type Sink = Est;
    const STEP_EXPRESSIONS: bool = true;

    fn sink(&mut self) -> &mut Est {
        self
    }

    fn value(v: &AVal) -> Result<&Value, ()> {
        match v {
            AVal::Known(v) => Ok(v),
            _ => Err(()),
        }
    }

    fn split(v: AVal) -> Result<Value, ((), AVal)> {
        match v {
            AVal::Known(v) => Ok(v),
            v => Err(((), v)),
        }
    }

    fn type_of(v: &AVal) -> Option<Type> {
        match v {
            AVal::Known(v) => Some(ops::runtime_type(v)),
            AVal::Unknown(t) => Some(t.clone()),
            AVal::Array(_) => Some(Type::Array(Box::new(Type::Int))),
            AVal::Lost => None,
        }
    }

    fn new_cell(&mut self, v: AVal) -> usize {
        self.heap.push(v);
        self.heap.len() - 1
    }

    fn read<R>(&self, c: &usize, f: impl FnOnce(&AVal) -> R) -> R {
        f(self.heap.get(*c).unwrap_or(&AVal::Lost))
    }

    fn write(&mut self, c: &usize, v: AVal) {
        if let Some(cell) = self.heap.get_mut(*c) {
            *cell = v;
        }
    }

    fn array(&mut self, items: Vec<AVal>) -> AVal {
        let start = self.heap.len();
        self.heap.extend(items);
        AVal::Array((start..self.heap.len()).collect())
    }

    fn cells(&self, v: &AVal) -> Option<Vec<usize>> {
        match v {
            AVal::Array(cells) => Some(cells.clone()),
            _ => None,
        }
    }

    fn element(&self, arr: &AVal, i: usize, _: Span) -> QutesResult<Result<usize, ()>> {
        match arr {
            AVal::Array(cells) => cells.get(i).map(|&c| Ok(c)).ok_or_else(stop),
            _ => Ok(Err(())),
        }
    }

    fn index(&self, base: &AVal, i: usize, span: Span) -> QutesResult<AVal> {
        match base {
            AVal::Array(cells) => cells
                .get(i)
                .and_then(|&c| self.heap.get(c))
                .cloned()
                .ok_or_else(stop),
            AVal::Known(b) => Ok(ops::index_value(b, i, span)?.into()),
            _ => Ok(AVal::Lost),
        }
    }

    /// The collapse is mirrored; the outcome is not predictable.
    fn measure(&mut self, q: &QuantumRef) -> QutesResult<AVal> {
        self.shadow_measure(&q.qubits)?;
        Ok(AVal::Unknown(
            types::measured(&q.kind.as_type()).ok_or_else(stop)?,
        ))
    }

    /// Upper-bounds `pattern in haystack`. The runtime's BBHT schedule
    /// draws random iteration counts and may return early, so the real
    /// circuit is run-dependent; the estimate plays the schedule's *worst
    /// case* (maximum draw every round, no early exit), which dominates
    /// every actual run. For a pattern that is not statically known, the
    /// worst pattern of every length (all-zero bits: the most
    /// X-conjugation in the oracle) is taken.
    fn search(
        it: &mut World<'_, '_>,
        pattern: Result<Vec<bool>, ()>,
        hay: Result<&QuantumRef, ()>,
        _: Span,
    ) -> QutesResult<AVal> {
        let Ok(hay) = hay else {
            // A text the estimator lost track of is searched at its
            // widest, in a scratch world.
            let width = it.dom.width_bound(&AVal::Lost).ok_or_else(stop)?;
            let mut scratch = it.clone();
            scratch.dom = Est::new();
            let qubits = scratch.dom.allocate("", width)?;
            let text = QuantumRef {
                qubits,
                kind: QKind::Qustring,
            };
            let found = Self::search(&mut scratch, pattern, Ok(&text), Span::default())?;
            it.steps = scratch.steps;
            it.dom.absorb(scratch.dom, width);
            return Ok(found);
        };
        let hay = &hay.qubits;
        let n = hay.len();
        it.dom.inexact(
            "Grover substring search ('in'): the BBHT schedule is randomized, so the \
             mirrored counts are its worst case",
        );
        match pattern {
            Ok(b) if b.is_empty() => Ok(Value::Bool(true).into()),
            Ok(b) if b.len() > n => Ok(Value::Bool(false).into()),
            Ok(b) => {
                worst_case_search(it, &b, hay)?;
                Ok(AVal::Unknown(Type::Bool))
            }
            // Any non-empty pattern misses an empty text; the empty one
            // matches. Either way no circuit is built.
            Err(()) if n == 0 => Ok(AVal::Unknown(Type::Bool)),
            Err(()) => {
                // Bound every length, keep the world with the most gates,
                // and fold the other lengths' excesses into additive
                // slack so each metric stays an upper bound.
                let worlds = (1..=n).map(|m| {
                    let mut world = it.clone();
                    worst_case_search(&mut world, &vec![false; m], hay)?;
                    Ok(world)
                });
                let worlds = worlds.collect::<QutesResult<Vec<_>>>()?;
                keep_largest(it, worlds)?;
                Ok(AVal::Unknown(Type::Bool))
            }
        }
    }

    /// Dürr–Høyer runs on its own internal circuit, so it costs nothing
    /// in the accumulated circuit.
    fn extremum(&mut self, _: Builtin, _: &[u64]) -> QutesResult<AVal> {
        Ok(AVal::Unknown(Type::Int))
    }

    fn print(&mut self, _: AVal) {}

    fn barrier(&mut self) -> QutesResult<()> {
        self.apply(Gate::Barrier(vec![]))
    }

    fn redeclared(&mut self, _: QutesError) -> QutesResult<()> {
        Ok(())
    }

    fn too_deep(&mut self, _: usize, _: Span) -> QutesResult<AVal> {
        self.inexact("call depth exceeds the estimator's bound");
        Ok(AVal::Lost)
    }

    fn unknown(_: (), ty: Option<Type>) -> AVal {
        ty.map_or(AVal::Lost, AVal::Unknown)
    }

    fn note(&mut self, _: (), why: &str) {
        self.inexact(why);
    }

    fn unknown_op(&mut self, _: (), op: UnknownOp<'_, AVal>) -> QutesResult<AVal> {
        use qutes_frontend::ast::{BinOp::*, UnOp};
        use AVal::{Lost, Unknown};
        Ok(match op {
            UnknownOp::Coerce(v, ty) => return self.coerce(v, ty),
            UnknownOp::Measure(v, explicit) => return self.measure(v, explicit),
            // The operation still type-checks; only the value is lost.
            UnknownOp::Binary(op, l, r) => match (l, r) {
                (Lost, _) | (_, Lost) => Lost,
                (Unknown(_), _) | (_, Unknown(_))
                    if matches!(op, Eq | Ne | Lt | Le | Gt | Ge | In) =>
                {
                    Unknown(Type::Bool)
                }
                (Unknown(_), _) | (_, Unknown(_)) => Lost,
                _ => return Err(stop()),
            },
            UnknownOp::Unary(op, v) => match (op, v) {
                (UnOp::Neg, v @ (Unknown(Type::Int | Type::Float) | Lost)) => v,
                (UnOp::Not, Unknown(_) | Lost) => Unknown(Type::Bool),
                _ => return Err(stop()),
            },
            UnknownOp::Builtin(b, v) => match (b, v) {
                (Builtin::Len, AVal::Array(cells)) => Value::Int(cells.len() as i64).into(),
                (Builtin::Len, Unknown(Type::String) | Lost) | (Builtin::Width, Lost) => {
                    Unknown(Type::Int)
                }
                (Builtin::Range, Unknown(_) | Lost) => Lost,
                (Builtin::Int | Builtin::Float | Builtin::Bool, AVal::Array(_)) => {
                    return Err(stop())
                }
                (Builtin::Int, _) => Unknown(Type::Int),
                (Builtin::Float, _) => Unknown(Type::Float),
                (Builtin::Bool, _) => Unknown(Type::Bool),
                (Builtin::Str, _) => Unknown(Type::String),
                (Builtin::Qmin | Builtin::Qmax, Lost) => {
                    self.inexact("qmin/qmax over a collection the estimator lost track of");
                    Unknown(Type::Int)
                }
                _ => return Err(stop()),
            },
            // The Draper adder emits the same gates for every constant
            // (only the phase angles differ), so an unknown addend lowers
            // exactly as 0; a bool is one qubit wide whatever its value.
            UnknownOp::Operand(v, arith) => match (arith, v) {
                (Arith::InPlace, Unknown(Type::Int | Type::Bool))
                | (Arith::Sum, Unknown(Type::Bool)) => Value::Int(0).into(),
                (Arith::InPlace, Lost) => {
                    self.inexact("quint arithmetic with an operand the estimator lost track of");
                    Lost
                }
                (Arith::Sum, Unknown(Type::Int) | Lost) => {
                    self.inexact(
                        "quint arithmetic with a run-dependent operand: result width unknown",
                    );
                    Lost
                }
                (Arith::Product, Unknown(Type::Int | Type::Bool) | Lost) => {
                    self.inexact("quint multiplication by a run-dependent factor: width unknown");
                    Lost
                }
                _ => return Err(stop()),
            },
            // A gate on qubits the estimator cannot name is played at
            // their widest as slack: on one qubit, one instruction and
            // one layer wherever it lands. A cnot counts as a fan-out
            // from one control, which has as many gates as the pairwise
            // form and at least its layers.
            UnknownOp::Gate(gate, operands) => {
                let widths = (operands.iter())
                    .map(|o| match o {
                        Ok(q) => Some(q.width()),
                        Err(v) => self.width_bound(v),
                    })
                    .collect::<Option<Vec<_>>>()
                    .ok_or_else(stop)?;
                if widths.iter().any(|&w| w > 1) {
                    self.inexact(LOST_REGISTER);
                }
                self.on_scratch(&widths, |s, r| match r {
                    [c, t] => lower::cnot(s, &c[..c.len().min(1)], t, Span::default()),
                    [q] => lower::gate_each(s, gate, q, 0.0, Span::default()),
                    _ => Err(stop()),
                })?;
                // A phase gate of unknown angle may be non-Clifford.
                self.clifford_only &= gate != GateKind::Phase;
                Value::Void.into()
            }
            UnknownOp::Arith(arith, reg, rhs, subtract) => {
                let width = self.width_bound(&reg).ok_or_else(stop)?;
                // An unknown constant is as wide as any int (the in-place
                // adder's gates do not depend on it).
                let (rhs, k) = match rhs {
                    AVal::Known(Value::Quantum(q)) => (Some(q.width()), 0),
                    Unknown(Type::Quint) => (self.width_bound(&rhs), 0),
                    AVal::Known(v) => match Operand::of(&v) {
                        Some(Operand::Const(k)) => (None, k),
                        _ => return Err(stop()),
                    },
                    Unknown(Type::Int) => (None, i64::MAX as u64),
                    Unknown(Type::Bool) => (None, 1),
                    _ => return Err(stop()),
                };
                self.inexact(LOST_REGISTER);
                let widths: Vec<usize> = std::iter::once(width).chain(rhs).collect();
                self.on_scratch(&widths, |s, r| {
                    let operand = r.get(1).map_or(Operand::Const(k), |b| Operand::Quint(b));
                    match arith {
                        Arith::InPlace => lower::add_sub_in_place(s, &r[0], operand, subtract),
                        Arith::Sum => lower::add_sub_expr(s, &r[0], operand, subtract).map(drop),
                        Arith::Product => lower::mul_expr(s, &r[0], operand).map(drop),
                    }
                })?;
                match arith {
                    Arith::InPlace => Value::Void.into(),
                    Arith::Sum | Arith::Product => Unknown(Type::Quint),
                }
            }
            // Any rotation of `n` qubits is three layers of disjoint swaps,
            // `n` swaps at most; a shifted copy first copies the register
            // into fresh qubits.
            UnknownOp::Rotate(reg, copy) => {
                let width = self.width_bound(&reg).ok_or_else(stop)?;
                self.inexact(LOST_REGISTER);
                if copy {
                    self.on_scratch(&[width], |s, r| lower::cx_copy(s, &r[0], width, ""))?;
                }
                self.slack_gates += width;
                self.slack_depth += 3;
                match reg {
                    AVal::Known(Value::Quantum(q)) if copy => Unknown(q.kind.as_type()),
                    Unknown(t) if copy => Unknown(t),
                    _ if copy => Lost,
                    _ => Value::Void.into(),
                }
            }
        })
    }

    /// Runs two alternative continuations on clones of the current world.
    /// If both end in the same circuit and environment the merge is
    /// exact; otherwise the larger world is kept and the difference
    /// becomes additive slack (every figure stays an upper bound).
    fn explore<'p, 'a>(
        it: &mut World<'p, 'a>,
        _: (),
        then: impl FnOnce(&mut World<'p, 'a>) -> QutesResult<Flow>,
        other: impl FnOnce(&mut World<'p, 'a>) -> QutesResult<Flow>,
    ) -> QutesResult<Flow> {
        let mark = it.dom.heap.len();
        let (mut a, mut b) = (it.clone(), it.clone());
        let fa = then(&mut a)?;
        let fb = other(&mut b)?;
        // Each world ends as a block does (a condition's right side too).
        drop_cells(&mut a, mark, fa);
        drop_cells(&mut b, mark, fb);
        let steps = a.steps.max(b.steps);
        // A non-Clifford gate on *either* path poisons the Clifford
        // claim — the discarded world's gates survive only as slack
        // counts, so the bit must be merged before a world is dropped.
        let clifford_only = a.dom.clifford_only && b.dom.clifford_only;
        let (x, y) = (&a.dom, &b.dom);
        let same_world = x.circ.ops() == y.circ.ops()
            && x.circ.num_qubits() == y.circ.num_qubits()
            && x.free == y.free
            && x.measurements == y.measurements
            && a.slots == b.slots
            && x.heap == y.heap
            && x.slack_gates == y.slack_gates
            && x.slack_qubits == y.slack_qubits
            && x.slack_meas == y.slack_meas;
        let returned = |w: &World<'_, '_>, f| (f == Flow::Return).then(|| w.returned.clone());
        let (ra, rb) = (returned(&a, fa), returned(&b, fb));
        if same_world {
            *it = a;
        } else {
            // A register the worlds hold on different qubits may be on
            // either: its qubits are no longer known.
            let rebound = |x: &AVal, y: &AVal| {
                x != y
                    && matches!(
                        (x, y),
                        (AVal::Known(Value::Quantum(_)), _) | (_, AVal::Known(Value::Quantum(_)))
                    )
            };
            let slots: Vec<usize> = (a.slots.iter().zip(&b.slots).enumerate())
                .filter(|(_, pair)| matches!(pair, (Binding::Owned(x), Binding::Owned(y)) if rebound(x, y)))
                .map(|(i, _)| i)
                .collect();
            let cells: Vec<usize> = (a.dom.heap.iter().zip(&b.dom.heap).enumerate())
                .filter(|(_, (x, y))| rebound(x, y))
                .map(|(i, _)| i)
                .collect();
            // `a` is kept on a tie.
            keep_largest(it, [b, a])?;
            it.dom.inexact(
                "measurement-dependent branches build different circuits: totals are the \
                 larger branch plus slack for the other",
            );
            // Values that differ between the worlds are no longer known.
            havoc_all(it);
            for i in slots {
                if let Some(Binding::Owned(v)) = it.slots.get_mut(i) {
                    v.forget(true);
                }
            }
            for i in cells {
                if let Some(v) = it.dom.heap.get_mut(i) {
                    v.forget(true);
                }
            }
        }
        it.steps = steps;
        it.dom.clifford_only = clifford_only;
        if same_world && ra.is_some() != rb.is_some() {
            it.dom
                .inexact("a measurement-dependent branch may return early");
        }
        it.returned = match (ra, rb) {
            (None, None) => return Ok(Flow::Normal),
            // An array either world returns names cells of that world
            // alone.
            (Some(AVal::Array(_)), _) | (_, Some(AVal::Array(_))) if !same_world => AVal::Lost,
            (Some(va), Some(vb)) if va != vb => AVal::Lost,
            (Some(v), _) | (None, Some(v)) => v,
        };
        Ok(Flow::Return)
    }

    /// Forgets what an unknown number of runs of a loop may have written:
    /// what it writes, and the globals written by the functions it may
    /// call, through their own calls too (each is walked once, so
    /// recursion ends). A write through an unknown index may have written
    /// any cell.
    fn havoc(it: &mut World<'_, '_>, _: (), loop_stmt: Option<&Stmt<'_>>) {
        let Some(s) = loop_stmt else {
            it.dom.heap.iter_mut().for_each(|v| v.forget(true));
            return;
        };
        let mut writes = Writes::of(std::slice::from_ref(s));
        let mut walked = vec![false; it.functions.len()];
        while let Some(f) = writes.calls.pop() {
            let f = f as usize;
            if let (Some(false), Some(callee)) = (walked.get(f), it.functions.get(f)) {
                walked[f] = true;
                let w = Writes::of(&callee.body);
                let globals = w.locs.into_iter().filter(|at| matches!(at, Loc::Global(_)));
                writes.locs.extend(globals);
                writes.calls.extend(w.calls);
                writes.elements |= w.elements;
            }
        }
        for &at in &writes.locs {
            let slot = match at {
                Loc::Local(i) => it.base + i as usize,
                Loc::Global(i) => i as usize,
                Loc::Unresolved => continue,
            };
            match it.slots.get_mut(slot) {
                Some(Binding::Owned(v)) => v.forget(true),
                Some(Binding::Shared(c)) => {
                    if let Some(v) = it.dom.heap.get_mut(*c) {
                        v.forget(true);
                    }
                }
                _ => {}
            }
        }
        if writes.elements {
            it.dom.heap.iter_mut().for_each(|v| v.forget(true));
        }
    }

    fn mark(&self) -> usize {
        self.heap.len()
    }

    /// Ends the lifetime of a block's declarations and of the cells only
    /// they reached, as the end of its scope does: two worlds that differ
    /// only in a dead local are the same world.
    fn end_block(it: &mut World<'_, '_>, stmts: &[Stmt<'_>], mark: usize, flow: Flow) {
        for s in stmts {
            if let Stmt::Decl {
                slot: DeclSlot::Local(i),
                ..
            } = s
            {
                if let Some(b) = it.slots.get_mut(it.base + *i as usize) {
                    *b = Binding::Empty;
                }
            }
        }
        drop_cells(it, mark, flow);
    }
}

/// Ends a scope that began with `mark` cells in the heap. A variable
/// moved into a cell since (to be passed by reference) is its only
/// holder now and takes its value back. Then, unless a variable, an
/// older cell or the value `flow` returns refers to a cell made since,
/// those cells are dropped: two worlds that differ only in cells nothing
/// reaches are the same world, and forks copy a small heap.
fn drop_cells(it: &mut World<'_, '_>, mark: usize, flow: Flow) {
    let heap = &mut it.dom.heap;
    if heap.len() <= mark {
        return;
    }
    for b in &mut it.slots {
        if let Binding::Shared(c) = *b {
            if let Some(cell) = heap.get_mut(c).filter(|_| c >= mark) {
                *b = Binding::Owned(std::mem::replace(cell, AVal::Lost));
            }
        }
    }
    let new = |v: &AVal| matches!(v, AVal::Array(cells) if cells.iter().any(|&c| c >= mark));
    let held = |b: &Binding<AVal, usize>| matches!(b, Binding::Owned(v) if new(v));
    let returned = flow == Flow::Return && new(&it.returned);
    if !(returned || it.slots.iter().any(held) || heap[..mark].iter().any(new)) {
        heap.truncate(mark);
    }
}

/// Forgets every classical value the running code can see: the globals,
/// the running frame and every cell.
fn havoc_all(it: &mut World<'_, '_>) {
    let base = it.base.min(it.slots.len());
    let (outer, running) = it.slots.split_at_mut(base);
    for b in outer.iter_mut().take(it.globals).chain(running) {
        if let Binding::Owned(v) = b {
            v.forget(false);
        }
    }
    it.dom.heap.iter_mut().for_each(|v| v.forget(false));
}

/// Goes on in the world of `worlds` with the most gates (the last one on
/// a tie) and adds to it, as slack, what any other world exceeds it by,
/// so every figure stays an upper bound.
fn keep_largest<'p, 'a>(
    it: &mut World<'p, 'a>,
    worlds: impl IntoIterator<Item = World<'p, 'a>>,
) -> QutesResult<()> {
    let mut max = [0; 4];
    let mut kept: Option<([usize; 4], World<'p, 'a>)> = None;
    for w in worlds {
        let d = &w.dom;
        let t = [
            d.circ.size() + d.slack_gates,
            d.circ.depth() + d.slack_depth,
            d.circ.num_qubits() + d.slack_qubits,
            d.measurements + d.slack_meas,
        ];
        max = std::array::from_fn(|i| max[i].max(t[i]));
        if kept.as_ref().is_none_or(|(k, _)| t[0] >= k[0]) {
            kept = Some((t, w));
        }
    }
    let (t, mut kept) = kept.ok_or_else(stop)?;
    kept.dom.slack_gates += max[0] - t[0];
    kept.dom.slack_depth += max[1] - t[1];
    kept.dom.slack_qubits += max[2] - t[2];
    kept.dom.slack_meas += max[3] - t[3];
    *it = kept;
    Ok(())
}

/// Plays the worst-case BBHT run onto the shadow circuit with the
/// runtime's own search fragments: every round draws the maximum
/// iteration count, every candidate is in range (so the window
/// verification measure happens), the reset flips every pos bit, and no
/// round succeeds early.
fn worst_case_search(it: &mut World<'_, '_>, bits: &[bool], hay: &[usize]) -> QutesResult<()> {
    if hay.len() > 32 {
        // A qustring this wide cannot be simulated densely anyway;
        // playing the search would explode the shadow circuit.
        return Err(stop());
    }
    let search = SubstringSearch::prepare(&mut it.dom, bits, hay, Span::default())?;
    for k in search.schedule() {
        it.step(Span::default())?;
        let est = &mut it.dom;
        search.amplify(est, k)?;
        est.shadow_measure(&search.pos)?;
        for &pq in &search.pos {
            est.apply(Gate::X(pq))?;
        }
        est.shadow_measure(&hay[..bits.len()])?;
    }
    it.dom.release(&search.pos);
    Ok(())
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
impl Emit for Est {
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
