//! Static resource estimation: bounds on qubit count, gate count, circuit
//! depth, and measurement count — computed **without simulating**.
//!
//! The estimator is an abstract interpreter that calls the runtime's
//! circuit lowering (`qutes_core::lower` and the `TypeCastingHandler`
//! constructors) on a *shadow circuit*, which implements the same
//! [`Emit`] trait as the runtime's handler. It evaluates the classical
//! side itself, symbolically (known constant or unknown), and hands the
//! shared lowering concrete operands — an unknown Draper constant becomes
//! 0, an unknown phase angle 0.0, which emit the same gates — but never
//! allocates a statevector and never samples.
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
//! inexact and leave a note.

use qutes_core::lower::{self, Emit, Operand, SubstringSearch};
use qutes_core::value::{QKind, QuantumRef, Value};
use qutes_core::{QutesError, QutesResult, TypeCastingHandler as Cast};
use qutes_frontend::ast::*;
use qutes_frontend::Span;
use qutes_qcirc::{Gate, QuantumCircuit};
use std::collections::HashMap;

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
    let mut est = Est::new(program);
    let mut gave_up = false;
    for item in &program.items {
        if let Item::Statement(s) = item {
            match est.exec_stmt(s) {
                Ok(Flow::Normal) => {}
                Ok(Flow::Return(_)) => break,
                Err(Stop) => {
                    gave_up = true;
                    break;
                }
            }
        }
    }
    if gave_up {
        est.inexact("estimation stopped early (budget exhausted or un-analyzable construct)");
        // Unknown gates may follow the stop point.
        est.clifford_only = false;
    }
    est.finish()
}

/// Abstract value: a classical constant, an unknown of known type, or a
/// quantum register (identified by its shadow-circuit qubit indices).
#[derive(Clone, Debug, PartialEq)]
enum AVal {
    Bool(Option<bool>),
    Int(Option<i64>),
    Float(Option<f64>),
    Str(Option<String>),
    Array(Vec<AVal>),
    Quantum(Vec<usize>, QKind),
    Void,
    Unknown,
}

impl AVal {
    /// Mirrors `Value::as_bool` (unknown payload → unknown truth).
    fn as_bool(&self) -> Option<bool> {
        match self {
            AVal::Bool(b) => *b,
            AVal::Int(i) => i.map(|i| i != 0),
            AVal::Float(f) => f.map(|f| f != 0.0),
            AVal::Str(s) => s.as_ref().map(|s| !s.is_empty()),
            _ => None,
        }
    }

    /// Mirrors `Value::as_i64`.
    fn as_i64(&self) -> Option<i64> {
        match self {
            AVal::Int(i) => *i,
            AVal::Bool(b) => b.map(|b| b as i64),
            AVal::Float(f) => f.filter(|f| f.fract() == 0.0).map(|f| f as i64),
            _ => None,
        }
    }

    /// Mirrors `Value::as_f64`.
    fn as_f64(&self) -> Option<f64> {
        match self {
            AVal::Int(i) => i.map(|i| i as f64),
            AVal::Float(f) => *f,
            AVal::Bool(b) => b.map(|b| b as i64 as f64),
            _ => None,
        }
    }

    /// True when this is a quantum register (of any kind).
    fn is_quantum(&self) -> bool {
        matches!(self, AVal::Quantum(_, _))
    }

    /// The right-hand operand of a quint operator, for known values
    /// (mirrors the runtime's `quint_operand`).
    fn quint_operand(&self) -> Option<Operand<'_>> {
        match self {
            AVal::Int(Some(k)) if *k >= 0 => Some(Operand::Const(*k as u64)),
            AVal::Bool(Some(b)) => Some(Operand::Const(u64::from(*b))),
            AVal::Quantum(q, QKind::Quint) => Some(Operand::Quint(q)),
            _ => None,
        }
    }
}

impl From<QuantumRef> for AVal {
    fn from(r: QuantumRef) -> Self {
        AVal::Quantum(r.qubits, r.kind)
    }
}

/// One environment slot: declared type plus abstract value.
#[derive(Clone, Debug, PartialEq)]
struct Slot {
    ty: Type,
    val: AVal,
}

enum Flow {
    Normal,
    Return(AVal),
}

/// Estimation cannot continue (budget exhausted, or the program would
/// error at runtime anyway). The caller marks the estimate inexact.
struct Stop;

/// A lowering error means the program would fail at runtime too.
impl From<QutesError> for Stop {
    fn from(_: QutesError) -> Self {
        Stop
    }
}

type R<T> = Result<T, Stop>;

const MAX_SHADOW_QUBITS: usize = 1024;
const MAX_STEPS: u64 = 200_000;
const MAX_CALL_DEPTH: usize = 64;

#[derive(Clone)]
struct Est<'p> {
    scopes: Vec<HashMap<String, Slot>>,
    functions: HashMap<String, &'p FunctionDecl>,
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

impl<'p> Est<'p> {
    fn new(program: &'p Program) -> Self {
        let functions = program
            .items
            .iter()
            .filter_map(|i| match i {
                Item::Function(f) => Some((f.name.clone(), f)),
                _ => None,
            })
            .collect();
        Est {
            scopes: vec![HashMap::new()],
            functions,
            circ: QuantumCircuit::new(),
            free: Vec::new(),
            measurements: 0,
            exact: true,
            clifford_only: true,
            notes: Vec::new(),
            slack_gates: 0,
            slack_depth: 0,
            slack_qubits: 0,
            slack_meas: 0,
            steps: 0,
            call_depth: 0,
        }
    }

    fn finish(mut self) -> ResourceEstimate {
        self.notes.dedup();
        let mut seen = Vec::new();
        for n in self.notes {
            if !seen.contains(&n) {
                seen.push(n);
            }
        }
        ResourceEstimate {
            qubits: self.circ.num_qubits() + self.slack_qubits,
            gates: self.circ.size() + self.slack_gates,
            depth: self.circ.depth() + self.slack_depth,
            measurements: self.measurements + self.slack_meas,
            exact: self.exact,
            clifford_only: self.clifford_only,
            notes: seen,
        }
    }

    fn inexact(&mut self, note: &str) {
        self.exact = false;
        let note = note.to_string();
        if !self.notes.contains(&note) {
            self.notes.push(note);
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
            AVal::Quantum(qubits, kind) => {
                self.shadow_measure(&qubits)?;
                Ok(match kind {
                    QKind::Qubit => AVal::Bool(None),
                    QKind::Quint => AVal::Int(None),
                    QKind::Qustring => AVal::Str(None),
                })
            }
            v => Ok(v),
        }
    }

    // ---- environment ------------------------------------------------------

    fn declare(&mut self, name: &str, ty: Type, val: AVal) {
        if let Some(scope) = self.scopes.last_mut() {
            scope.insert(name.to_string(), Slot { ty, val });
        }
    }

    fn lookup(&self, name: &str) -> Option<&Slot> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    fn lookup_mut(&mut self, name: &str) -> Option<&mut Slot> {
        self.scopes.iter_mut().rev().find_map(|s| s.get_mut(name))
    }

    fn havoc(&mut self, name: &str) {
        if let Some(slot) = self.lookup_mut(name) {
            slot.val = AVal::Unknown;
        }
    }

    // ---- statements -------------------------------------------------------

    fn exec_block(&mut self, b: &Block) -> R<Flow> {
        self.scopes.push(HashMap::new());
        let r = self.exec_stmts(&b.stmts);
        self.scopes.pop();
        r
    }

    fn exec_stmts(&mut self, stmts: &[Stmt]) -> R<Flow> {
        for s in stmts {
            if let Flow::Return(v) = self.exec_stmt(s)? {
                return Ok(Flow::Return(v));
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, s: &Stmt) -> R<Flow> {
        self.step()?;
        match s {
            Stmt::VarDecl { ty, name, init, .. } => {
                let val = match init {
                    Some(e) => {
                        let v = self.eval_with_target(e, Some(ty))?;
                        self.coerce(v, ty)?
                    }
                    None => self.default_value(ty)?,
                };
                self.declare(name, ty.clone(), val);
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
                None => {
                    let then_block = then_block.clone();
                    let else_block = else_block.clone();
                    self.explore(
                        move |e| e.exec_block(&then_block),
                        move |e| match &else_block {
                            Some(eb) => e.exec_block(eb),
                            None => Ok(Flow::Normal),
                        },
                    )
                }
            },
            Stmt::While { cond, body, .. } => {
                loop {
                    match self.eval_condition(cond)? {
                        Some(false) => break,
                        Some(true) => {
                            self.step()?;
                            if let Flow::Return(v) = self.exec_block(body)? {
                                return Ok(Flow::Return(v));
                            }
                        }
                        None => {
                            // The trip count is not statically known: walk
                            // the body once (for declarations/uses), then
                            // forget everything it might have changed.
                            self.inexact(
                                "while loop with a run-dependent condition: iteration count \
                                 (and any gates its body emits) cannot be bounded statically",
                            );
                            let flow = self.exec_block(body)?;
                            for name in assigned_names(&body.stmts) {
                                self.havoc(&name);
                            }
                            if let Flow::Return(v) = flow {
                                return Ok(Flow::Return(v));
                            }
                            break;
                        }
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Foreach {
                var,
                iterable,
                body,
                ..
            } => {
                let it = self.eval(iterable)?;
                let items: Vec<(Type, AVal)> = match it {
                    AVal::Array(items) => {
                        items.into_iter().map(|v| (abstract_type(&v), v)).collect()
                    }
                    AVal::Quantum(qubits, QKind::Qustring) => qubits
                        .iter()
                        .map(|&qb| (Type::Qubit, AVal::Quantum(vec![qb], QKind::Qubit)))
                        .collect(),
                    AVal::Quantum(_, _) => return Err(Stop),
                    _ => {
                        self.inexact(
                            "foreach over a run-dependent collection: iteration count cannot \
                             be bounded statically",
                        );
                        self.scopes.push(HashMap::new());
                        self.declare(var, Type::Int, AVal::Unknown);
                        let flow = self.exec_stmts(&body.stmts);
                        self.scopes.pop();
                        for name in assigned_names(&body.stmts) {
                            self.havoc(&name);
                        }
                        if let Flow::Return(v) = flow? {
                            return Ok(Flow::Return(v));
                        }
                        return Ok(Flow::Normal);
                    }
                };
                // The runtime binds the loop variable by reference; the
                // shadow env is by value, so writes through the loop
                // variable invalidate the (possibly aliased) iterable.
                let body_writes_var = assigned_names(&body.stmts).contains(var);
                for (ty, item) in items {
                    self.step()?;
                    self.scopes.push(HashMap::new());
                    self.declare(var, ty, item);
                    let flow = self.exec_stmts(&body.stmts);
                    self.scopes.pop();
                    if let Flow::Return(v) = flow? {
                        return Ok(Flow::Return(v));
                    }
                }
                if body_writes_var {
                    if let ExprKind::Var(n) = &iterable.kind {
                        let n = n.clone();
                        self.havoc(&n);
                    }
                    self.inexact("foreach body writes its loop variable (bound by reference)");
                }
                Ok(Flow::Normal)
            }
            Stmt::Return { value, .. } => {
                let v = match value {
                    Some(e) => self.eval(e)?,
                    None => AVal::Void,
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
                let v = self.eval(target)?;
                match v {
                    AVal::Quantum(qubits, _) => self.shadow_measure(&qubits)?,
                    AVal::Unknown => {
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
            Stmt::Block(b) => self.exec_block(b),
        }
    }

    fn default_value(&mut self, ty: &Type) -> R<AVal> {
        Ok(match ty {
            Type::Bool => AVal::Bool(Some(false)),
            Type::Int => AVal::Int(Some(0)),
            Type::Float => AVal::Float(Some(0.0)),
            Type::String => AVal::Str(Some(String::new())),
            Type::Qubit => Cast::new_qubit_basis(self, "", false)?.into(),
            Type::Quint => Cast::new_quint(self, "", 0, Some(1))?.into(),
            Type::Qustring => return Err(Stop),
            Type::Array(_) => AVal::Array(Vec::new()),
            Type::Void => AVal::Void,
        })
    }

    /// Mirrors `Interp::coerce`: identity, widening, promotion (which
    /// allocates and encodes), width-1 reinterpretation, auto-measure.
    fn coerce(&mut self, v: AVal, ty: &Type) -> R<AVal> {
        let ok = match (ty, &v) {
            (Type::Bool, AVal::Bool(_))
            | (Type::Int, AVal::Int(_))
            | (Type::Float, AVal::Float(_))
            | (Type::String, AVal::Str(_))
            | (Type::Array(_), AVal::Array(_)) => true,
            (Type::Qubit, AVal::Quantum(_, k)) => *k == QKind::Qubit,
            (Type::Quint, AVal::Quantum(_, k)) => *k == QKind::Quint,
            (Type::Qustring, AVal::Quantum(_, k)) => *k == QKind::Qustring,
            _ => false,
        };
        if ok {
            return Ok(v);
        }
        match (ty, v) {
            (_, AVal::Unknown) => {
                if ty.is_quantum() {
                    self.inexact("value promoted to a quantum register of run-dependent width");
                    self.slack_qubits += 1;
                }
                Ok(AVal::Unknown)
            }
            (Type::Float, AVal::Int(i)) => Ok(AVal::Float(i.map(|i| i as f64))),
            (
                Type::Qubit | Type::Quint | Type::Qustring,
                v @ (AVal::Bool(_) | AVal::Int(_) | AVal::Str(_)),
            ) => self.promote(v, ty),
            (Type::Qubit, AVal::Quantum(qubits, _)) if qubits.len() == 1 => {
                Ok(AVal::Quantum(qubits, QKind::Qubit))
            }
            (Type::Quint, AVal::Quantum(qubits, _)) => Ok(AVal::Quantum(qubits, QKind::Quint)),
            (Type::Qustring, AVal::Quantum(qubits, _)) => {
                Ok(AVal::Quantum(qubits, QKind::Qustring))
            }
            (classical, q @ AVal::Quantum(_, _)) if classical.is_classical() => {
                let m = self.measure_if_quantum(q)?;
                match (classical, m) {
                    (Type::Bool, m @ AVal::Bool(_))
                    | (Type::Int, m @ AVal::Int(_))
                    | (Type::String, m @ AVal::Str(_)) => Ok(m),
                    (Type::Float, AVal::Int(i)) => Ok(AVal::Float(i.map(|i| i as f64))),
                    _ => Err(Stop),
                }
            }
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
            (_, AVal::Bool(Some(b))) => (Value::Bool(b), None),
            (_, AVal::Int(Some(i))) => (Value::Int(i), None),
            (_, AVal::Str(Some(s))) => (Value::Str(s), None),
            (QKind::Qubit, AVal::Bool(None) | AVal::Int(None)) => (
                Value::Bool(false),
                Some("qubit prepared from a run-dependent classical bit"),
            ),
            (QKind::Quint, AVal::Bool(None) | AVal::Int(None)) => (
                Value::Int(0),
                Some("quint promoted from a run-dependent integer: width unknown"),
            ),
            (QKind::Qustring, AVal::Str(None)) => (
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

    fn exec_assign(&mut self, target: &LValue, op: AssignOp, value_expr: &Expr) -> R<()> {
        // Resolve the target slot's type; element targets with unknown
        // indices can only be havocked.
        enum Tgt {
            Var(String),
            Elem(String, usize),
            Lost(String),
        }
        let (tgt, target_ty, current) = match target {
            LValue::Name(name) => {
                let Some(slot) = self.lookup(name) else {
                    return Err(Stop);
                };
                (Tgt::Var(name.clone()), slot.ty.clone(), slot.val.clone())
            }
            LValue::Index(name, idx_expr) => {
                let idx = self.eval_index(idx_expr)?;
                let Some(slot) = self.lookup(name) else {
                    return Err(Stop);
                };
                let elem_ty = match &slot.ty {
                    Type::Array(t) => (**t).clone(),
                    _ => return Err(Stop),
                };
                match (idx, &slot.val) {
                    (Some(i), AVal::Array(items)) => match items.get(i) {
                        Some(v) => (Tgt::Elem(name.clone(), i), elem_ty, v.clone()),
                        None => return Err(Stop),
                    },
                    _ => {
                        self.inexact("assignment through a run-dependent array index");
                        (Tgt::Lost(name.clone()), elem_ty, AVal::Unknown)
                    }
                }
            }
        };

        let result: Option<AVal> = match op {
            AssignOp::Set => {
                let v = self.eval_with_target(value_expr, Some(&target_ty))?;
                Some(self.coerce(v, &target_ty)?)
            }
            AssignOp::Add | AssignOp::Sub => match current {
                AVal::Quantum(qubits, QKind::Quint) => {
                    let rhs = self.eval(value_expr)?;
                    self.quint_add_sub_in_place(&qubits, rhs, op == AssignOp::Sub)?;
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
                let k = rhs.as_i64();
                match (current, k) {
                    (AVal::Quantum(qubits, _), Some(k)) if k >= 0 => {
                        lower::rotate(self, &qubits, k as usize, op == AssignOp::Shl)?;
                        None
                    }
                    (AVal::Quantum(_, _), _) => {
                        self.inexact(
                            "cyclic shift by a run-dependent amount: rotation network unknown",
                        );
                        None
                    }
                    (AVal::Int(i), Some(k)) if k >= 0 => Some(AVal::Int(i.map(|i| {
                        if op == AssignOp::Shl {
                            i.wrapping_shl(k as u32)
                        } else {
                            i.wrapping_shr(k as u32)
                        }
                    }))),
                    (AVal::Int(_) | AVal::Unknown, _) => Some(AVal::Unknown),
                    _ => return Err(Stop),
                }
            }
        };

        if let Some(v) = result {
            match tgt {
                Tgt::Var(name) => {
                    if let Some(slot) = self.lookup_mut(&name) {
                        slot.val = v;
                    }
                }
                Tgt::Elem(name, i) => {
                    if let Some(slot) = self.lookup_mut(&name) {
                        if let AVal::Array(items) = &mut slot.val {
                            if let Some(e) = items.get_mut(i) {
                                *e = v;
                            }
                        }
                    }
                }
                Tgt::Lost(name) => self.havoc(&name),
            }
        }
        Ok(())
    }

    fn eval_index(&mut self, e: &Expr) -> R<Option<usize>> {
        let v = self.eval(e)?;
        let v = self.measure_if_quantum(v)?;
        Ok(v.as_i64().filter(|&i| i >= 0).map(|i| i as usize))
    }

    fn exec_gate(&mut self, gate: GateKind, args: &[Expr]) -> R<()> {
        let operand = |est: &mut Self, e: Option<&Expr>| -> R<Option<Vec<usize>>> {
            match est.eval(e.ok_or(Stop)?)? {
                AVal::Quantum(qubits, _) => Ok(Some(qubits)),
                AVal::Unknown => Ok(None),
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
            GateKind::Phase => self.eval(args.get(1).ok_or(Stop)?)?.as_f64(),
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
            AVal::Int(None) | AVal::Bool(None) => AVal::Int(Some(0)),
            AVal::Unknown => {
                self.inexact("quint arithmetic with an operand the estimator lost track of");
                return Ok(());
            }
            rhs => rhs,
        };
        let rhs = rhs.quint_operand().ok_or(Stop)?;
        Ok(lower::add_sub_in_place(self, target, rhs, subtract)?)
    }

    fn quint_add_sub_expr(&mut self, a: &[usize], rhs: AVal, subtract: bool) -> R<AVal> {
        let rhs = match rhs {
            // A bool is one qubit wide whatever its value.
            AVal::Bool(None) => AVal::Int(Some(0)),
            AVal::Int(None) | AVal::Unknown => {
                self.inexact("quint arithmetic with a run-dependent operand: result width unknown");
                return Ok(AVal::Unknown);
            }
            rhs => rhs,
        };
        let rhs = rhs.quint_operand().ok_or(Stop)?;
        let sum = lower::add_sub_expr(self, a, rhs, subtract)?;
        Ok(AVal::Quantum(sum, QKind::Quint))
    }

    fn quint_mul_expr(&mut self, a: &[usize], rhs: AVal) -> R<AVal> {
        if matches!(rhs, AVal::Int(None) | AVal::Bool(None) | AVal::Unknown) {
            self.inexact("quint multiplication by a run-dependent factor: width unknown");
            return Ok(AVal::Unknown);
        }
        let rhs = rhs.quint_operand().ok_or(Stop)?;
        let product = lower::mul_expr(self, a, rhs)?;
        Ok(AVal::Quantum(product, QKind::Quint))
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
            Some(b) if b.is_empty() => Ok(AVal::Bool(Some(true))),
            Some(b) if b.len() > n => Ok(AVal::Bool(Some(false))),
            Some(b) => {
                self.worst_case_search(&b, hay)?;
                Ok(AVal::Bool(None))
            }
            None => {
                if n == 0 {
                    // Any non-empty pattern misses; the empty one matches.
                    // Either way no circuit is built.
                    return Ok(AVal::Bool(None));
                }
                // Unknown pattern: bound every length, keep the world with
                // the most gates, and fold the other lengths' excesses into
                // additive slack so each metric stays an upper bound.
                let mut best: Option<Est<'p>> = None;
                let (mut max_g, mut max_d, mut max_q, mut max_m) = (0, 0, 0, 0);
                for m in 1..=n {
                    let mut world = self.clone();
                    world.worst_case_search(&vec![false; m], hay)?;
                    let g = world.circ.size();
                    max_d = max_d.max(world.circ.depth());
                    max_q = max_q.max(world.circ.num_qubits());
                    max_m = max_m.max(world.measurements);
                    if g >= max_g {
                        max_g = g;
                        best = Some(world);
                    }
                }
                let Some(chosen) = best else { return Err(Stop) };
                let (d, q, meas) = (
                    chosen.circ.depth(),
                    chosen.circ.num_qubits(),
                    chosen.measurements,
                );
                *self = chosen;
                self.slack_depth += max_d.saturating_sub(d);
                self.slack_qubits += max_q.saturating_sub(q);
                self.slack_meas += max_m.saturating_sub(meas);
                Ok(AVal::Bool(None))
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

    fn eval(&mut self, e: &Expr) -> R<AVal> {
        self.eval_with_target(e, None)
    }

    fn eval_condition(&mut self, e: &Expr) -> R<Option<bool>> {
        let v = self.eval(e)?;
        let v = self.measure_if_quantum(v)?;
        if matches!(v, AVal::Unknown) {
            return Ok(None);
        }
        Ok(v.as_bool())
    }

    fn eval_with_target(&mut self, e: &Expr, target: Option<&Type>) -> R<AVal> {
        self.step()?;
        match &e.kind {
            ExprKind::Int(v) => Ok(AVal::Int(Some(*v))),
            ExprKind::Float(v) => Ok(AVal::Float(Some(*v))),
            ExprKind::Bool(b) => Ok(AVal::Bool(Some(*b))),
            ExprKind::Str(s) => Ok(AVal::Str(Some(s.clone()))),
            ExprKind::Pi => Ok(AVal::Float(Some(std::f64::consts::PI))),
            ExprKind::Quint(v) => Ok(if matches!(target, Some(Type::Qubit)) && *v <= 1 {
                Cast::new_qubit_basis(self, "", *v == 1)?
            } else {
                Cast::new_quint(self, "", *v, None)?
            }
            .into()),
            ExprKind::Qustring(s) => Ok(Cast::new_qustring(self, "", s, e.span)?.into()),
            ExprKind::Ket(k) => Ok(Cast::new_qubit_ket(self, "", *k)?.into()),
            ExprKind::Array(elems) => {
                let elem_target = match target {
                    Some(Type::Array(t)) => Some((**t).clone()),
                    _ => None,
                };
                let mut items = Vec::with_capacity(elems.len());
                for el in elems {
                    let v = self.eval_with_target(el, elem_target.as_ref())?;
                    let v = match &elem_target {
                        Some(t) => self.coerce(v, t)?,
                        None => v,
                    };
                    items.push(v);
                }
                Ok(AVal::Array(items))
            }
            ExprKind::QuantumArray(elems) => {
                let vals: Vec<AVal> = elems
                    .iter()
                    .map(|el| self.eval(el))
                    .collect::<R<Vec<_>>>()?;
                let any_float = vals.iter().any(|v| matches!(v, AVal::Float(_)));
                if any_float || matches!(target, Some(Type::Qubit)) {
                    let (Some(a), Some(b)) = (
                        vals.first().and_then(AVal::as_f64),
                        vals.get(1).and_then(AVal::as_f64),
                    ) else {
                        self.inexact("qubit amplitude literal with run-dependent amplitudes");
                        return Ok(AVal::Unknown);
                    };
                    if vals.len() != 2 {
                        return Err(Stop);
                    }
                    Ok(Cast::new_qubit_amplitudes(self, "", a, b, e.span)?.into())
                } else {
                    let values: Option<Vec<u64>> = vals
                        .iter()
                        .map(|v| v.as_i64().filter(|&i| i >= 0).map(|i| i as u64))
                        .collect();
                    let Some(values) = values else {
                        self.inexact(
                            "superposition literal with run-dependent values: state \
                             preparation network unknown",
                        );
                        return Ok(AVal::Unknown);
                    };
                    Ok(Cast::new_quint_superposed(self, "", &values, e.span)?.into())
                }
            }
            ExprKind::Var(name) => match self.lookup(name) {
                Some(slot) => Ok(slot.val.clone()),
                None => Err(Stop),
            },
            ExprKind::Index(base, idx) => {
                let b = self.eval(base)?;
                let i = self.eval_index(idx)?;
                match (b, i) {
                    (AVal::Array(items), Some(i)) => match items.get(i) {
                        Some(v) => Ok(v.clone()),
                        None => Err(Stop),
                    },
                    (AVal::Quantum(qubits, _), Some(i)) => match qubits.get(i) {
                        Some(&q) => Ok(AVal::Quantum(vec![q], QKind::Qubit)),
                        None => Err(Stop),
                    },
                    (AVal::Str(Some(s)), Some(i)) => match s.chars().nth(i) {
                        Some(c) => Ok(AVal::Str(Some(c.to_string()))),
                        None => Err(Stop),
                    },
                    (AVal::Quantum(_, _), None) => {
                        self.inexact("quantum register indexed by a run-dependent value");
                        Ok(AVal::Unknown)
                    }
                    _ => Ok(AVal::Unknown),
                }
            }
            ExprKind::Unary(op, inner) => {
                let v = self.eval(inner)?;
                let v = self.measure_if_quantum(v)?;
                Ok(match op {
                    UnOp::Neg => match v {
                        AVal::Int(i) => AVal::Int(i.map(|i| -i)),
                        AVal::Float(f) => AVal::Float(f.map(|f| -f)),
                        AVal::Unknown => AVal::Unknown,
                        _ => return Err(Stop),
                    },
                    UnOp::Not => match v.as_bool() {
                        Some(b) => AVal::Bool(Some(!b)),
                        None if matches!(v, AVal::Bool(_) | AVal::Int(_) | AVal::Unknown) => {
                            AVal::Bool(None)
                        }
                        None => return Err(Stop),
                    },
                })
            }
            ExprKind::Binary(op, l, r) => self.eval_binary(*op, l, r),
            ExprKind::Call(name, args) => self.eval_call(name, args),
            ExprKind::MeasureExpr(inner) => {
                let v = self.eval(inner)?;
                match v {
                    q @ AVal::Quantum(_, _) => self.measure_if_quantum(q),
                    AVal::Unknown => {
                        self.inexact("measure of a value the estimator lost track of");
                        self.slack_meas += 1;
                        Ok(AVal::Unknown)
                    }
                    _ => Err(Stop),
                }
            }
        }
    }

    fn eval_binary(&mut self, op: BinOp, l: &Expr, r: &Expr) -> R<AVal> {
        use BinOp::*;
        if matches!(op, And | Or) {
            let lv = self.eval_condition(l)?;
            return match (op, lv) {
                (And, Some(false)) => Ok(AVal::Bool(Some(false))),
                (Or, Some(true)) => Ok(AVal::Bool(Some(true))),
                (_, Some(_)) => {
                    let rv = self.eval_condition(r)?;
                    Ok(AVal::Bool(rv))
                }
                (_, None) => {
                    // Whether the right side (and its measurements) runs
                    // depends on the unknown left value: explore both.
                    let r = r.clone();
                    self.explore(
                        move |e| {
                            e.eval_condition(&r)?;
                            Ok(Flow::Normal)
                        },
                        |_| Ok(Flow::Normal),
                    )?;
                    Ok(AVal::Bool(None))
                }
            };
        }

        let lv = self.eval(l)?;

        if op == In {
            let rv = self.eval(r)?;
            let pattern = self.measure_if_quantum(lv)?;
            return match rv {
                AVal::Quantum(hay, QKind::Qustring) => {
                    let bits = match &pattern {
                        AVal::Str(Some(p)) => {
                            if !p.chars().all(|c| c == '0' || c == '1') {
                                return Err(Stop);
                            }
                            Some(p.chars().map(|c| c == '1').collect::<Vec<bool>>())
                        }
                        AVal::Str(None) => None,
                        _ => return Err(Stop),
                    };
                    self.substring_search_upper_bound(bits, &hay)
                }
                rv => self.classical_binary(BinOp::In, pattern, rv),
            };
        }

        if let AVal::Quantum(q, kind) = &lv {
            if *kind == QKind::Quint && matches!(op, Add | Sub) {
                let q = q.clone();
                let rv = self.eval(r)?;
                return self.quint_add_sub_expr(&q, rv, op == Sub);
            }
            if *kind == QKind::Quint && op == Mul {
                let q = q.clone();
                let rv = self.eval(r)?;
                return self.quint_mul_expr(&q, rv);
            }
            if matches!(op, Shl | Shr) {
                let (q, kind) = (q.clone(), *kind);
                let rv = self.eval(r)?;
                let Some(k) = rv.as_i64().filter(|&k| k >= 0) else {
                    self.inexact(
                        "cyclic shift by a run-dependent amount: rotation network unknown",
                    );
                    return Ok(AVal::Unknown);
                };
                let copy = lower::shifted_copy(self, &q, k as usize, op == Shl)?;
                return Ok(AVal::Quantum(copy, kind));
            }
        }
        if let (Add | Mul, AVal::Int(_) | AVal::Bool(_)) = (op, &lv) {
            let rv = self.eval(r)?;
            if let AVal::Quantum(q, QKind::Quint) = &rv {
                let q = q.clone();
                return if op == Add {
                    self.quint_add_sub_expr(&q, lv, false)
                } else {
                    self.quint_mul_expr(&q, lv)
                };
            }
            return self.classical_binary(op, lv, rv);
        }

        let rv = self.eval(r)?;
        self.classical_binary(op, lv, rv)
    }

    /// Classical folding that mirrors `Interp::classical_binary`; quantum
    /// operands are measured, unknown operands yield unknown results.
    fn classical_binary(&mut self, op: BinOp, lv: AVal, rv: AVal) -> R<AVal> {
        use BinOp::*;
        let lv = self.measure_if_quantum(lv)?;
        let rv = self.measure_if_quantum(rv)?;
        if matches!(lv, AVal::Unknown) || matches!(rv, AVal::Unknown) {
            return Ok(AVal::Unknown);
        }
        let unknown_operand = |v: &AVal| {
            matches!(
                v,
                AVal::Bool(None) | AVal::Int(None) | AVal::Float(None) | AVal::Str(None)
            )
        };
        if unknown_operand(&lv) || unknown_operand(&rv) {
            // The operation still type-checks; only the value is lost.
            return Ok(match op {
                Eq | Ne | Lt | Le | Gt | Ge | In => AVal::Bool(None),
                _ => AVal::Unknown,
            });
        }
        Ok(match op {
            Add => match (&lv, &rv) {
                (AVal::Str(Some(a)), AVal::Str(Some(b))) => AVal::Str(Some(format!("{a}{b}"))),
                (AVal::Int(Some(a)), AVal::Int(Some(b))) => AVal::Int(Some(a.wrapping_add(*b))),
                _ => match (lv.as_f64(), rv.as_f64()) {
                    (Some(a), Some(b)) => AVal::Float(Some(a + b)),
                    _ => return Err(Stop),
                },
            },
            Sub => match (&lv, &rv) {
                (AVal::Int(Some(a)), AVal::Int(Some(b))) => AVal::Int(Some(a.wrapping_sub(*b))),
                _ => match (lv.as_f64(), rv.as_f64()) {
                    (Some(a), Some(b)) => AVal::Float(Some(a - b)),
                    _ => return Err(Stop),
                },
            },
            Mul => match (&lv, &rv) {
                (AVal::Int(Some(a)), AVal::Int(Some(b))) => AVal::Int(Some(a.wrapping_mul(*b))),
                _ => match (lv.as_f64(), rv.as_f64()) {
                    (Some(a), Some(b)) => AVal::Float(Some(a * b)),
                    _ => return Err(Stop),
                },
            },
            Div => match (&lv, &rv) {
                (AVal::Int(Some(a)), AVal::Int(Some(b))) => {
                    if *b == 0 {
                        return Err(Stop);
                    } else if a.wrapping_rem(*b) == 0 {
                        AVal::Int(Some(a.wrapping_div(*b)))
                    } else {
                        AVal::Float(Some(*a as f64 / *b as f64))
                    }
                }
                _ => match (lv.as_f64(), rv.as_f64()) {
                    (Some(a), Some(b)) if b != 0.0 => AVal::Float(Some(a / b)),
                    _ => return Err(Stop),
                },
            },
            Mod => match (&lv, &rv) {
                (AVal::Int(Some(a)), AVal::Int(Some(b))) => {
                    if *b == 0 {
                        return Err(Stop);
                    }
                    AVal::Int(Some(a.wrapping_rem_euclid(*b)))
                }
                _ => return Err(Stop),
            },
            Shl | Shr => match (&lv, rv.as_i64()) {
                (AVal::Int(Some(a)), Some(k)) if k >= 0 => AVal::Int(Some(if op == Shl {
                    a.wrapping_shl(k as u32)
                } else {
                    a.wrapping_shr(k as u32)
                })),
                _ => return Err(Stop),
            },
            Eq | Ne => {
                let eq = match (&lv, &rv) {
                    (AVal::Str(Some(a)), AVal::Str(Some(b))) => a == b,
                    (AVal::Bool(Some(a)), AVal::Bool(Some(b))) => a == b,
                    _ => match (lv.as_f64(), rv.as_f64()) {
                        (Some(a), Some(b)) => a == b,
                        _ => return Err(Stop),
                    },
                };
                AVal::Bool(Some(if op == Eq { eq } else { !eq }))
            }
            Lt | Le | Gt | Ge => {
                let ord = match (&lv, &rv) {
                    (AVal::Str(Some(a)), AVal::Str(Some(b))) => a.partial_cmp(b),
                    _ => match (lv.as_f64(), rv.as_f64()) {
                        (Some(a), Some(b)) => a.partial_cmp(&b),
                        _ => return Err(Stop),
                    },
                };
                let Some(ord) = ord else { return Err(Stop) };
                AVal::Bool(Some(match op {
                    Lt => ord.is_lt(),
                    Le => ord.is_le(),
                    Gt => ord.is_gt(),
                    _ => ord.is_ge(),
                }))
            }
            In => match (&lv, &rv) {
                (AVal::Str(Some(p)), AVal::Str(Some(h))) => AVal::Bool(Some(h.contains(p))),
                _ => return Err(Stop),
            },
            And | Or => return Err(Stop),
        })
    }

    fn eval_call(&mut self, name: &str, args: &[Expr]) -> R<AVal> {
        if let Some(v) = self.eval_builtin(name, args)? {
            return Ok(v);
        }
        let Some(decl) = self.functions.get(name).copied() else {
            return Err(Stop);
        };
        if args.len() != decl.params.len() {
            return Err(Stop);
        }
        if self.call_depth + 1 > MAX_CALL_DEPTH {
            self.inexact("call depth exceeds the estimator's bound");
            return Ok(AVal::Unknown);
        }
        // Plain-variable arguments of exactly matching type bind by
        // reference in the runtime; mirror that with a copy-back.
        let mut bindings: Vec<(String, Type, AVal)> = Vec::with_capacity(args.len());
        let mut by_ref: Vec<(String, String)> = Vec::new();
        for (a, p) in args.iter().zip(&decl.params) {
            let referenced = if let ExprKind::Var(var_name) = &a.kind {
                match self.lookup(var_name) {
                    Some(slot) if slot.ty == p.ty => Some((var_name.clone(), slot.val.clone())),
                    _ => None,
                }
            } else {
                None
            };
            let v = match referenced {
                Some((var_name, v)) => {
                    by_ref.push((var_name, p.name.clone()));
                    v
                }
                None => {
                    let v = self.eval_with_target(a, Some(&p.ty))?;
                    self.coerce(v, &p.ty)?
                }
            };
            bindings.push((p.name.clone(), p.ty.clone(), v));
        }
        self.call_depth += 1;
        // Hide caller locals: only globals (scope 0) plus parameters are
        // visible inside the function.
        let saved: Vec<HashMap<String, Slot>> = self.scopes.split_off(1);
        self.scopes.push(HashMap::new());
        for (pname, pty, v) in bindings {
            self.declare(&pname, pty, v);
        }
        let flow = self.exec_stmts(&decl.body.stmts);
        let param_scope = self.scopes.pop().unwrap_or_default();
        self.scopes.truncate(1);
        self.scopes.extend(saved);
        self.call_depth -= 1;
        for (var_name, pname) in by_ref {
            if let Some(slot) = param_scope.get(&pname) {
                let v = slot.val.clone();
                if let Some(target) = self.lookup_mut(&var_name) {
                    target.val = v;
                }
            }
        }
        match flow? {
            Flow::Return(v) => Ok(v),
            Flow::Normal if decl.ret_type == Type::Void => Ok(AVal::Void),
            Flow::Normal => Err(Stop),
        }
    }

    fn eval_builtin(&mut self, name: &str, args: &[Expr]) -> R<Option<AVal>> {
        let v = match name {
            "len" => {
                let Some(a) = args.first() else {
                    return Err(Stop);
                };
                match self.eval(a)? {
                    AVal::Array(items) => AVal::Int(Some(items.len() as i64)),
                    AVal::Str(s) => AVal::Int(s.map(|s| s.chars().count() as i64)),
                    AVal::Quantum(q, _) => AVal::Int(Some(q.len() as i64)),
                    AVal::Unknown => AVal::Int(None),
                    _ => return Err(Stop),
                }
            }
            "width" => {
                let Some(a) = args.first() else {
                    return Err(Stop);
                };
                match self.eval(a)? {
                    AVal::Quantum(q, _) => AVal::Int(Some(q.len() as i64)),
                    AVal::Unknown => AVal::Int(None),
                    _ => return Err(Stop),
                }
            }
            "range" => {
                let Some(a) = args.first() else {
                    return Err(Stop);
                };
                match self.eval(a)?.as_i64() {
                    Some(n) if n >= 0 => AVal::Array((0..n).map(|i| AVal::Int(Some(i))).collect()),
                    Some(_) => return Err(Stop),
                    None => AVal::Unknown,
                }
            }
            "int" | "float" | "bool" | "str" => {
                let Some(a) = args.first() else {
                    return Err(Stop);
                };
                let v = self.eval(a)?;
                let v = self.measure_if_quantum(v)?;
                match name {
                    "int" => match v {
                        AVal::Int(i) => AVal::Int(i),
                        AVal::Float(f) => AVal::Int(f.map(|f| f.trunc() as i64)),
                        AVal::Bool(b) => AVal::Int(b.map(|b| b as i64)),
                        AVal::Str(Some(s)) => match s.trim().parse::<i64>() {
                            Ok(i) => AVal::Int(Some(i)),
                            Err(_) => return Err(Stop),
                        },
                        AVal::Str(None) | AVal::Unknown => AVal::Int(None),
                        _ => return Err(Stop),
                    },
                    "float" => match v.as_f64() {
                        Some(f) => AVal::Float(Some(f)),
                        None => match v {
                            AVal::Str(Some(s)) => match s.trim().parse::<f64>() {
                                Ok(f) => AVal::Float(Some(f)),
                                Err(_) => return Err(Stop),
                            },
                            AVal::Int(None)
                            | AVal::Float(None)
                            | AVal::Bool(None)
                            | AVal::Str(None)
                            | AVal::Unknown => AVal::Float(None),
                            _ => return Err(Stop),
                        },
                    },
                    "bool" => AVal::Bool(match v {
                        AVal::Unknown
                        | AVal::Bool(None)
                        | AVal::Int(None)
                        | AVal::Float(None)
                        | AVal::Str(None) => None,
                        known => match known.as_bool() {
                            Some(b) => Some(b),
                            None => return Err(Stop),
                        },
                    }),
                    _ => match v {
                        AVal::Int(Some(i)) => AVal::Str(Some(i.to_string())),
                        AVal::Bool(Some(b)) => AVal::Str(Some(b.to_string())),
                        AVal::Str(s) => AVal::Str(s),
                        AVal::Float(Some(f)) => AVal::Str(Some(f.to_string())),
                        _ => AVal::Str(None),
                    },
                }
            }
            "qmin" | "qmax" => {
                // Dürr–Høyer runs on its own internal circuit, so it costs
                // nothing in the accumulated circuit — but quantum array
                // elements are measured first, which does.
                let Some(a) = args.first() else {
                    return Err(Stop);
                };
                match self.eval(a)? {
                    AVal::Array(items) => {
                        if items.is_empty() {
                            return Err(Stop);
                        }
                        for item in items {
                            self.measure_if_quantum(item)?;
                        }
                        AVal::Int(None)
                    }
                    AVal::Unknown => {
                        self.inexact("qmin/qmax over a collection the estimator lost track of");
                        AVal::Int(None)
                    }
                    _ => return Err(Stop),
                }
            }
            "rotl" | "rotr" => {
                let (Some(a0), Some(a1)) = (args.first(), args.get(1)) else {
                    return Err(Stop);
                };
                let q = self.eval(a0)?;
                let k = self.eval(a1)?;
                match (q, k.as_i64()) {
                    (AVal::Quantum(qubits, _), Some(k)) if k >= 0 => {
                        lower::rotate(self, &qubits, k as usize, name == "rotl")?;
                    }
                    (AVal::Quantum(_, _) | AVal::Unknown, _) => {
                        self.inexact(
                            "cyclic shift by a run-dependent amount: rotation network unknown",
                        );
                    }
                    _ => return Err(Stop),
                }
                AVal::Void
            }
            _ => return Ok(None),
        };
        Ok(Some(v))
    }

    // ---- both-worlds exploration -----------------------------------------

    /// Runs two alternative continuations on clones of the current state.
    /// If both worlds end in the same circuit and environment the merge is
    /// exact; otherwise the larger world is kept and the difference
    /// becomes additive slack (every figure stays an upper bound).
    fn explore(
        &mut self,
        then_f: impl FnOnce(&mut Est<'p>) -> R<Flow>,
        else_f: impl FnOnce(&mut Est<'p>) -> R<Flow>,
    ) -> R<Flow> {
        let mut a = self.clone();
        let mut b = self.clone();
        let fa = then_f(&mut a)?;
        let fb = else_f(&mut b)?;
        self.steps = a.steps.max(b.steps);
        // A non-Clifford gate on *either* path poisons the Clifford
        // claim — the discarded world's gates survive only as slack
        // counts, so the bit must be merged before a world is dropped.
        let clifford_both = a.clifford_only && b.clifford_only;

        let same_world = a.circ.ops() == b.circ.ops()
            && a.circ.num_qubits() == b.circ.num_qubits()
            && a.free == b.free
            && a.measurements == b.measurements
            && a.scopes == b.scopes
            && a.slack_gates == b.slack_gates
            && a.slack_qubits == b.slack_qubits
            && a.slack_meas == b.slack_meas;
        if same_world {
            let steps = self.steps;
            *self = a;
            self.steps = steps;
            self.clifford_only = clifford_both;
            // The worlds agree, but differing return values still matter.
            return Ok(match (fa, fb) {
                (Flow::Return(va), Flow::Return(vb)) => {
                    Flow::Return(if va == vb { va } else { AVal::Unknown })
                }
                (Flow::Normal, Flow::Normal) => Flow::Normal,
                (f @ Flow::Return(_), Flow::Normal) | (Flow::Normal, f @ Flow::Return(_)) => {
                    self.inexact("a measurement-dependent branch may return early");
                    f
                }
            });
        }

        let totals = |w: &Est<'p>| {
            (
                w.circ.size() + w.slack_gates,
                w.circ.depth() + w.slack_depth,
                w.circ.num_qubits() + w.slack_qubits,
                w.measurements + w.slack_meas,
            )
        };
        let ta = totals(&a);
        let tb = totals(&b);
        let (mut kept, other, to, kept_flow, other_flow) = if ta.0 >= tb.0 {
            (a, tb, ta, fa, fb)
        } else {
            (b, ta, tb, fb, fa)
        };
        kept.slack_gates += other.0.saturating_sub(to.0);
        kept.slack_depth += other.1.saturating_sub(to.1);
        kept.slack_qubits += other.2.saturating_sub(to.2);
        kept.slack_meas += other.3.saturating_sub(to.3);
        kept.inexact(
            "measurement-dependent branches build different circuits: totals are the \
             larger branch plus slack for the other",
        );
        let steps = self.steps;
        *self = kept;
        self.steps = steps;
        self.clifford_only = clifford_both;
        // Values that differ between the worlds are no longer known. The
        // kept world's bindings survive only where both agree; the scope
        // *structure* is identical (branches balance their push/pop).
        // After a structural divergence, conservatively havoc everything.
        self.havoc_all();
        Ok(match (kept_flow, other_flow) {
            (Flow::Return(va), Flow::Return(vb)) => {
                Flow::Return(if va == vb { va } else { AVal::Unknown })
            }
            (f @ Flow::Return(_), Flow::Normal) | (Flow::Normal, f @ Flow::Return(_)) => f,
            (Flow::Normal, Flow::Normal) => Flow::Normal,
        })
    }

    fn havoc_all(&mut self) {
        for scope in &mut self.scopes {
            for slot in scope.values_mut() {
                // Quantum registers keep their identity (the qubits exist
                // either way); classical values diverge.
                if !slot.val.is_quantum() {
                    slot.val = AVal::Unknown;
                }
            }
        }
    }
}

/// The shadow circuit, as the target of the runtime's lowering. Unlike
/// the runtime's handler it needs no register names (every register is
/// `r`) and always re-pools released qubits: every release site in the
/// shared lowering uncomputes its work qubits back to `|0>`
/// deterministically, so there is no state to probe.
impl Emit for Est<'_> {
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

/// Best-effort static type of an abstract value (for foreach bindings).
fn abstract_type(v: &AVal) -> Type {
    match v {
        AVal::Bool(_) => Type::Bool,
        AVal::Int(_) => Type::Int,
        AVal::Float(_) => Type::Float,
        AVal::Str(_) => Type::String,
        AVal::Quantum(_, k) => k.as_type(),
        AVal::Array(_) => Type::Array(Box::new(Type::Int)),
        AVal::Void => Type::Void,
        AVal::Unknown => Type::Int,
    }
}

/// Syntactic set of variable names a statement list may write to
/// (assignment targets and by-reference call arguments), used to havoc
/// state after loops whose trip count is unknown.
fn assigned_names(stmts: &[Stmt]) -> Vec<String> {
    let mut out = Vec::new();
    fn walk_expr(e: &Expr, out: &mut Vec<String>) {
        match &e.kind {
            ExprKind::Call(_, args) => {
                for a in args {
                    if let ExprKind::Var(n) = &a.kind {
                        if !out.contains(n) {
                            out.push(n.clone());
                        }
                    }
                    walk_expr(a, out);
                }
            }
            ExprKind::Unary(_, inner) | ExprKind::MeasureExpr(inner) => walk_expr(inner, out),
            ExprKind::Binary(_, l, r) => {
                walk_expr(l, out);
                walk_expr(r, out);
            }
            ExprKind::Index(b, i) => {
                walk_expr(b, out);
                walk_expr(i, out);
            }
            ExprKind::Array(items) | ExprKind::QuantumArray(items) => {
                for i in items {
                    walk_expr(i, out);
                }
            }
            _ => {}
        }
    }
    fn walk(stmts: &[Stmt], out: &mut Vec<String>) {
        for s in stmts {
            match s {
                Stmt::Assign { target, value, .. } => {
                    let (LValue::Name(n) | LValue::Index(n, _)) = target;
                    if !out.contains(n) {
                        out.push(n.clone());
                    }
                    walk_expr(value, out);
                }
                Stmt::If {
                    cond,
                    then_block,
                    else_block,
                    ..
                } => {
                    walk_expr(cond, out);
                    walk(&then_block.stmts, out);
                    if let Some(eb) = else_block {
                        walk(&eb.stmts, out);
                    }
                }
                Stmt::While { cond, body, .. } => {
                    walk_expr(cond, out);
                    walk(&body.stmts, out);
                }
                Stmt::Foreach { iterable, body, .. } => {
                    walk_expr(iterable, out);
                    walk(&body.stmts, out);
                }
                Stmt::VarDecl { init, .. } => {
                    if let Some(e) = init {
                        walk_expr(e, out);
                    }
                }
                Stmt::Return { value: Some(e), .. }
                | Stmt::Print { value: e, .. }
                | Stmt::Expr { expr: e, .. }
                | Stmt::Measure { target: e, .. } => walk_expr(e, out),
                Stmt::Gate { args, .. } => {
                    for a in args {
                        walk_expr(a, out);
                    }
                }
                Stmt::Block(b) => walk(&b.stmts, out),
                Stmt::Return { value: None, .. } | Stmt::Barrier { .. } => {}
            }
        }
    }
    walk(stmts, &mut out);
    out
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
