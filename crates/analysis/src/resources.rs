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
//! Values may be run-dependent (`AVal`), and such a value always has the
//! static type the checker gave the expression that made it; both sides
//! of a branch on an unknown condition are explored; a loop of unknown
//! trip count is havocked; and the slack of an inexact estimate is kept.
//! Nothing allocates a statevector or samples. A program the checker
//! rejects is not walked: its estimate is partial.
//!
//! Where the walker lowers quantum code from an operand the estimator
//! does not know, it asks for a known *stand-in* and runs its own arm on
//! it (`Domain::stand_in`). A stand-in emits at least what any run
//! emits: `true` for a bool or a qubit's bit, `i64::MAX` for an int
//! promoted to a quint or used as a sum or product operand (the widest
//! register, with the most X gates, that promotion builds), 0 for an
//! in-place Draper constant (every constant emits the same gates), and
//! for a register of unknown qubits a fresh register at the widest a run
//! can hold, played on a scratch circuit whose gates, depth, extra qubits
//! and measurements become slack (`Est::absorb`). An unknown phase angle
//! emits the same one gate per qubit as any other.
//!
//! On programs whose control flow does not depend on measurement outcomes
//! the resulting counts are **exact** (they match `qcirc`'s
//! [`CircuitStats`](qutes_qcirc::CircuitStats) for the circuit a real run
//! accumulates). Measurement-dependent branches are explored on both
//! sides: when the two worlds build identical circuits the estimate stays
//! exact, otherwise the larger world is kept and the difference becomes
//! additive slack, making every figure an upper bound; so does the
//! Grover-based `in` operator, whose BBHT schedule is played at its worst
//! case. A loop whose trip count is unknown is walked once; then every
//! variable its body may write is forgotten: what it assigns or passes
//! to a call, the globals that the user functions it calls may write,
//! through their own calls too, and the contents of every cell when any
//! of them writes an element. A register it forgets becomes a register
//! of unknown qubits. More runs of the body would emit more, so such an
//! estimate is *partial*, as is one that stopped early: its figures count
//! only what was walked and bound nothing.
//!
//! Storage has the runtime's shape: an array is a list of cells in the
//! estimator's heap, shared by declarations, assignments, arguments and
//! element reads as `Value::Array` is; a `foreach` variable is bound to
//! its element's cell; and a by-reference argument moves the caller's
//! variable into a cell that the parameter shares.

use qutes_core::interp::{Arith, Binding, Domain, Flow, Interp, Role};
use qutes_core::lower::{Emit, SubstringSearch};
use qutes_core::ops;
use qutes_core::resolution::{Builtin, Callee, Expr, ExprKind, Loc, Place, Resolution, Stmt};
use qutes_core::value::{QKind, QuantumRef, Value};
use qutes_core::{types, QutesError, QutesResult};
use qutes_frontend::ast::{Program, Type};
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
    /// True when the figures are not a bound either: estimation stopped
    /// early, or walked the body of a loop of unknown trip count once.
    /// They count only what was walked.
    pub partial: bool,
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
            partial: false,
            clifford_only: true,
            notes: Vec::new(),
        }
    }
}

impl ResourceEstimate {
    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "resources: {} qubit{}, {} gate{}, depth {}, {} measurement{} ({}{})",
            self.qubits,
            plural(self.qubits),
            self.gates,
            plural(self.gates),
            self.depth,
            self.measurements,
            plural(self.measurements),
            match (self.exact, self.partial) {
                (true, _) => "exact",
                (false, true) => "partial",
                (false, false) => "upper bound",
            },
            if self.clifford_only {
                ", clifford-only"
            } else {
                ""
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

/// Estimates the resources `program` would consume when run. A program
/// the checker rejects does not run: its estimate is partial, with no
/// figures.
pub fn estimate(program: &Program) -> ResourceEstimate {
    let (resolution, diags) = types::resolve(program);
    if !diags.is_empty() {
        return ResourceEstimate {
            exact: false,
            partial: true,
            clifford_only: false,
            notes: vec!["the program does not type-check".to_string()],
            ..ResourceEstimate::default()
        };
    }
    estimate_resolved(&resolution)
}

/// Abstract value: what the estimator knows about a value at one point
/// of every run.
#[derive(Clone, Debug, PartialEq)]
enum AVal {
    /// A value every run computes alike: a classical scalar, a quantum
    /// register (its shadow-circuit qubits) or void. Never an array.
    Known(Value),
    /// A value of this type that is run-dependent: a classical value, or
    /// a register whose qubits are (after a loop havoc).
    Unknown(Type),
    /// An array of elements of this type: the heap cells of its
    /// elements, which may be unknown.
    Array(Type, Vec<usize>),
}

/// What a cell nothing refers to holds.
const VOID: AVal = AVal::Known(Value::Void);

impl AVal {
    /// Forgets a classical value; it keeps its type, the static type of
    /// the cell that holds it (the walker stores no value off its static
    /// type). A register keeps its identity (its qubits exist whatever the
    /// run did) unless `registers`: a loop may have rebound it to other
    /// qubits.
    fn forget(&mut self, registers: bool) {
        *self = match self {
            AVal::Known(Value::Quantum(q)) if registers => AVal::Unknown(q.kind.as_type()),
            AVal::Known(Value::Quantum(_)) | AVal::Unknown(_) => return,
            AVal::Known(v) => AVal::Unknown(ops::runtime_type(v)),
            AVal::Array(t, _) => AVal::Unknown(Type::Array(Box::new(t.clone()))),
        }
    }
}

impl From<Value> for AVal {
    fn from(v: Value) -> Self {
        AVal::Known(v)
    }
}

const STAND_IN: &str = "quantum code lowered from an operand the estimator does not know (a \
     run-dependent value, a register's qubits): counted at the widest a run can give it";

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
    partial: bool,
    clifford_only: bool,
    notes: Vec<String>,
    /// What an inexact estimate adds to the shadow circuit's qubits,
    /// gates, depth and measurements (the order of [`Est::totals`]).
    slack: [usize; 4],
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
        world.dom.partial = true;
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

    /// Qubits, gates, depth and measurements, slack included.
    fn totals(&self) -> [usize; 4] {
        let c = &self.circ;
        let counted = [c.num_qubits(), c.size(), c.depth(), self.measurements];
        std::array::from_fn(|i| counted[i] + self.slack[i])
    }

    fn finish(self) -> ResourceEstimate {
        let [qubits, gates, depth, measurements] = self.totals();
        ResourceEstimate {
            qubits,
            gates,
            depth,
            measurements,
            exact: self.exact,
            partial: self.partial,
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

    /// Adds what a scratch circuit that starts with `width` stand-in
    /// qubits holds to the slack: its gates, its depth (appending a
    /// circuit adds at most its depth), the qubits it allocates beyond
    /// the stand-ins and its measurements.
    fn absorb(&mut self, scratch: Est, width: usize) {
        for (s, t) in self.slack.iter_mut().zip(scratch.totals()) {
            *s += t;
        }
        self.slack[0] -= width;
        self.clifford_only &= scratch.clifford_only;
        self.partial |= scratch.partial;
        scratch.notes.iter().for_each(|n| self.inexact(n));
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

    fn new_cell(&mut self, v: AVal) -> usize {
        self.heap.push(v);
        self.heap.len() - 1
    }

    fn read<R>(&self, c: &usize, f: impl FnOnce(&AVal) -> R) -> R {
        f(self.heap.get(*c).unwrap_or(&VOID))
    }

    fn write(&mut self, c: &usize, v: AVal) {
        if let Some(cell) = self.heap.get_mut(*c) {
            *cell = v;
        }
    }

    fn array(&mut self, elem: &Type, items: Vec<AVal>) -> AVal {
        let start = self.heap.len();
        self.heap.extend(items);
        AVal::Array(elem.clone(), (start..self.heap.len()).collect())
    }

    fn cells(&self, v: &AVal) -> Option<Vec<usize>> {
        match v {
            AVal::Array(_, cells) => Some(cells.clone()),
            _ => None,
        }
    }

    fn element(&self, arr: &AVal, i: usize, _: Span) -> QutesResult<Result<usize, ()>> {
        match arr {
            AVal::Array(_, cells) => cells.get(i).map(|&c| Ok(c)).ok_or_else(stop),
            _ => Ok(Err(())),
        }
    }

    fn index(&self, base: &AVal, i: usize, span: Span) -> QutesResult<AVal> {
        match base {
            AVal::Array(_, cells) => cells
                .get(i)
                .and_then(|&c| self.heap.get(c))
                .cloned()
                .ok_or_else(stop),
            AVal::Known(b) => Ok(ops::index_value(b, i, span)?.into()),
            AVal::Unknown(t) => Ok(AVal::Unknown(types::element(t).ok_or_else(stop)?)),
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
        hay: &[usize],
        _: Span,
    ) -> QutesResult<AVal> {
        let n = hay.len();
        it.dom.inexact(
            "Grover substring search ('in'): the BBHT schedule is randomized, so the \
             mirrored counts are its worst case",
        );
        match pattern {
            Ok(b) => worst_case_search(it, &b, hay)?,
            // Any non-empty pattern misses an empty text; the empty one
            // matches. Either way no circuit is built.
            Err(()) if n == 0 => {}
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
            }
        }
        Ok(AVal::Unknown(Type::Bool))
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

    fn too_deep(&mut self, _: usize, _: Span) -> QutesResult<()> {
        self.inexact("call depth exceeds the estimator's bound");
        Ok(())
    }

    fn unknown(_: (), ty: &Type) -> AVal {
        AVal::Unknown(ty.clone())
    }

    fn note(&mut self, _: (), why: &str) {
        self.inexact(why);
    }

    /// The stand-ins of the module doc. A register of unknown qubits, or a
    /// rotation by an unknown amount, puts the whole operation on a
    /// scratch circuit, known registers too. A register the operation
    /// returns is one of unknown qubits unless every stand-in was exact.
    fn stand_in<'p, 'a, const N: usize>(
        it: &mut World<'p, 'a>,
        _: (),
        vals: [AVal; N],
        roles: [Role; N],
        arm: impl FnOnce(&mut World<'p, 'a>, [AVal; N]) -> QutesResult<AVal>,
    ) -> QutesResult<AVal> {
        use AVal::{Known, Unknown};
        // No register is wider than every qubit allocated so far. A `cnot`
        // counts as a fan-out from one control, which has as many gates as
        // the pairwise form and at least its layers.
        let widest = it.dom.totals()[0];
        let widths: [Option<usize>; N] = std::array::from_fn(|i| {
            let w = match (&vals[i], roles[i]) {
                (Known(Value::Quantum(q)), _) => q.width(),
                (Unknown(Type::Qubit), _) => 1,
                (Unknown(Type::Quint | Type::Qustring), _) => widest,
                _ => return None,
            };
            match roles[i] {
                Role::Register | Role::Operand(_) => Some(w),
                Role::Control => Some(w.min(1)),
                _ => None,
            }
        });
        let on_scratch = (vals.iter().zip(roles).zip(&widths))
            .any(|((v, role), w)| !matches!(v, Known(_)) && (w.is_some() || role == Role::Amount));
        let mut scratch = on_scratch.then(Est::new);
        // A rotation of `n` qubits by 2 (by 1 below four qubits) has the
        // most swaps of any amount, in the most layers.
        let n = widths.iter().flatten().next().copied().unwrap_or(0);
        let mut exact = true;
        let values = vals
            .into_iter()
            .zip(roles)
            .zip(widths)
            .map(|((v, role), w)| {
                if let (Some(w), Some(scratch)) = (w, &mut scratch) {
                    let kind = match &v {
                        Known(Value::Quantum(q)) => Some(q.kind),
                        Unknown(t) => QKind::of(t),
                        _ => None,
                    };
                    let kind = kind.unwrap_or(QKind::Quint);
                    let qubits = scratch.allocate("", w)?;
                    return Ok(Value::Quantum(QuantumRef { qubits, kind }).into());
                }
                let v = match (v, role) {
                    (v @ Known(_), _) => return Ok(v),
                    // The Draper adder emits the same gates for every constant
                    // (only the phase angles differ); a bool is one qubit wide
                    // whatever its value.
                    (Unknown(Type::Int | Type::Bool), Role::Operand(Arith::InPlace))
                    | (Unknown(Type::Bool), Role::Operand(Arith::Sum)) => Value::Int(0),
                    (Unknown(Type::Int), Role::Amount) => Value::Int(1 + i64::from(n >= 4)),
                    // `TypeCastingHandler::promote` builds its widest register,
                    // with the most X gates, from these.
                    (Unknown(Type::Int | Type::Bool), Role::Promoted(QKind::Qubit))
                    | (Unknown(Type::Bool), Role::Promoted(QKind::Quint) | Role::Operand(_)) => {
                        exact = false;
                        Value::Bool(true)
                    }
                    (Unknown(Type::Int), Role::Promoted(QKind::Quint) | Role::Operand(_)) => {
                        exact = false;
                        Value::Int(i64::MAX)
                    }
                    _ => return Err(stop()),
                };
                Ok(v.into())
            });
        let values = values.collect::<QutesResult<Vec<_>>>()?;
        let values = <[AVal; N]>::try_from(values).map_err(|_| stop())?;
        if !exact || (on_scratch && widths.iter().flatten().any(|&w| w > 1)) {
            it.dom.inexact(STAND_IN);
        }
        let result = match scratch {
            None => arm(it, values)?,
            Some(scratch) => {
                let outer = std::mem::replace(&mut it.dom, scratch);
                let result = arm(it, values);
                let scratch = std::mem::replace(&mut it.dom, outer);
                it.dom.absorb(scratch, widths.iter().flatten().sum());
                result?
            }
        };
        Ok(match result {
            Known(Value::Quantum(q)) if on_scratch || !exact => Unknown(q.kind.as_type()),
            r => r,
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
        let partial = a.dom.partial || b.dom.partial;
        let (x, y) = (&a.dom, &b.dom);
        let same_world = x.circ.ops() == y.circ.ops()
            && x.circ.num_qubits() == y.circ.num_qubits()
            && x.free == y.free
            && x.measurements == y.measurements
            && a.slots == b.slots
            && x.heap == y.heap
            && x.slack == y.slack;
        let returned = |w: &World<'_, '_>, f| (f == Flow::Return).then(|| w.returned.clone());
        let (ra, rb) = (returned(&a, fa), returned(&b, fb));
        if same_world {
            *it = a;
        } else {
            // A register the worlds hold on different qubits may be on
            // either: its qubits are no longer known.
            let forget_rebound = |x: &mut AVal, y: &mut AVal| {
                let register = |v: &AVal| matches!(v, AVal::Known(Value::Quantum(_)));
                if x != y && (register(x) || register(y)) {
                    x.forget(true);
                    y.forget(true);
                }
            };
            for pair in a.slots.iter_mut().zip(&mut b.slots) {
                if let (Binding::Owned(x), Binding::Owned(y)) = pair {
                    forget_rebound(x, y);
                }
            }
            for (x, y) in a.dom.heap.iter_mut().zip(&mut b.dom.heap) {
                forget_rebound(x, y);
            }
            // `a` is kept on a tie.
            keep_largest(it, [b, a])?;
            it.dom.inexact(
                "measurement-dependent branches build different circuits: totals are the \
                 larger branch plus slack for the other",
            );
            // Values that differ between the worlds are no longer known.
            havoc_all(it);
        }
        it.steps = steps;
        it.dom.clifford_only = clifford_only;
        it.dom.partial = partial;
        if same_world && ra.is_some() != rb.is_some() {
            it.dom
                .inexact("a measurement-dependent branch may return early");
        }
        it.returned = match (ra, rb) {
            (None, None) => return Ok(Flow::Normal),
            // An array either world returns names cells of that world
            // alone.
            (Some(mut v @ AVal::Array(..)), _) | (_, Some(mut v @ AVal::Array(..)))
                if !same_world =>
            {
                v.forget(false);
                v
            }
            (Some(mut va), Some(vb)) if va != vb => {
                va.forget(true);
                va
            }
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
        // More runs of the body would emit more.
        it.dom.partial = true;
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
            let i = it.slot(at);
            match it.slots.get_mut(i) {
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
                slot: Loc::Local(i),
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
                *b = Binding::Owned(std::mem::replace(cell, VOID));
            }
        }
    }
    let new = |v: &AVal| matches!(v, AVal::Array(_, cells) if cells.iter().any(|&c| c >= mark));
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
        let t = w.dom.totals();
        max = std::array::from_fn(|i| max[i].max(t[i]));
        if kept.as_ref().is_none_or(|(k, _)| t[1] >= k[1]) {
            kept = Some((t, w));
        }
    }
    let (t, mut kept) = kept.ok_or_else(stop)?;
    for ((s, m), t) in kept.dom.slack.iter_mut().zip(max).zip(t) {
        *s += m - t;
    }
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
    fn an_estimate_that_stopped_early_is_partial() {
        // The step budget trips before the gate: the run builds 1 qubit
        // and 1 gate, the estimate counts none.
        let e = est("int i = 0; while (i < 100000) { i += 1; } qubit q = |0>; hadamard q;");
        assert!(e.partial && !e.exact, "notes: {:?}", e.notes);
        assert!(e.summary().ends_with("(partial)"), "{}", e.summary());
    }

    #[test]
    fn a_loop_of_unknown_trip_count_is_partial() {
        // `a` is a register of unknown qubits after the branch, so the
        // loop over it is walked once: 6 gates, while a run at seed 1
        // builds 9.
        let e = est(
            "qustring a = \"01\"; qustring r = \"0110\"; qubit q = |+>; qubit t = |0>;\n\
             bool m = q; if (m) { int z = 0; } else { a = r; }\n\
             foreach b in a { hadamard t; }\n",
        );
        assert!(e.partial && !e.exact, "notes: {:?}", e.notes);
        assert!(
            e.summary().ends_with("(partial, clifford-only)"),
            "{}",
            e.summary()
        );
        let e = est("qubit q = |+>; bool m = q; int i = 0;\nwhile (m && i < 3) { i += 1; }\n");
        assert!(e.partial, "notes: {:?}", e.notes);
    }

    #[test]
    fn a_divergent_branch_is_an_upper_bound_not_partial() {
        let e =
            est("qubit q = |+>;\nqubit t = |0>;\nbool b = q;\nif (b) {\n  not t;\n} else {\n}\n");
        assert!(!e.exact && !e.partial, "notes: {:?}", e.notes);
        assert!(e.summary().contains("(upper bound"), "{}", e.summary());
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
