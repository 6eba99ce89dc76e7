//! The one statement and expression walker, generic over a [`Domain`].
//!
//! A Qutes program has one meaning, and this walker is it: evaluation
//! order, scoping, frames and by-reference binding, the quantum
//! lowering of every operator, and the step and call-depth budgets. Two
//! domains run it:
//!
//! * the runtime's concrete domain (`crate::runtime`), whose values are
//!   [`Value`]s with `Rc` cells, whose conditions are always known, and
//!   whose sink is the live [`QuantumCircuitHandler`]; and
//! * the static resource estimator's abstract domain
//!   (`qutes-analysis`), whose values may be run-dependent, whose cells
//!   live in a heap of ids, and whose sink is a shadow circuit.
//!
//! The walker runs the checker's typed resolution: every dispatch on a
//! type (quint arithmetic or classical, a quantum search or a classical
//! `in`, a promotion or a measurement) reads the static type the checker
//! wrote, and every conversion is a node the checker placed
//! ([`Conversion`]). No value is asked for its type at run time, and a
//! value the domain does not know takes the type of the expression that
//! made it.
//!
//! The hooks of [`Domain`] cover only what differs: values and cells,
//! branching on a condition the domain does not know, loops of unknown
//! trip count, draws (measurement, the `in` search, `qmin`/`qmax`),
//! budgets, `print`, and the sink. An operand the domain does not know,
//! in a place that lowers quantum code, is replaced by a known stand-in
//! the domain picks ([`Domain::stand_in`]), and the walker's own arm runs
//! on it: conversion and lowering are written once. A hook that only an
//! abstract domain can reach takes a [`Domain::Unknown`] witness, which
//! is uninhabited in the concrete domain, so the compiler proves that a
//! run never gets there and drops those paths from the concrete walker.
//!
//! [`QuantumCircuitHandler`]: crate::handler::QuantumCircuitHandler

use crate::casting::TypeCastingHandler as Cast;
use crate::error::{QutesError, QutesResult};
use crate::lower::{self, Emit, Operand};
use crate::ops;
use crate::resolution::{
    Builtin, Callee, Conversion, Expr, ExprKind, Function, Loc, Place, Resolution, Stmt, Var,
};
use crate::types::element;
use crate::value::{QKind, QuantumRef, Value};
use qutes_algos::substring_oracle;
use qutes_frontend::ast::{AssignOp, BinOp, GateKind, Type};
use qutes_frontend::Span;

/// How a statement finished. A `return` leaves its value in
/// [`Interp::returned`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flow {
    /// On to the next statement.
    Normal,
    /// A `return` ran.
    Return,
}

/// A variable's storage. A value stays in its slot until something needs
/// to share it (a by-reference argument), and then moves to a cell that
/// both sides hold; a `foreach` variable is bound to its element's cell.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum Binding<V, C> {
    /// The declaration has not run (or its block has ended).
    #[default]
    Empty,
    /// Held by this slot alone.
    Owned(V),
    /// Shared with other variables or array elements.
    Shared(C),
}

/// Which quint operation an operand feeds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arith {
    /// `q += x` / `q -= x`: the Draper adder, whose gates do not depend
    /// on the constant.
    InPlace,
    /// `q + x` / `q - x`: a fresh register as wide as the wider operand.
    Sum,
    /// `q * x`: a fresh product register.
    Product,
}

/// The place an operand takes in the quantum code the walker lowers: it
/// picks a domain's stand-in for the operand ([`Domain::stand_in`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// The register an operation acts on: a gate's, a measurement's, or
    /// the left side of quint arithmetic, a shift or `in`.
    Register,
    /// A `cnot`'s control.
    Control,
    /// A value converted to this quantum kind: a classical one is
    /// promoted into a fresh register.
    Promoted(QKind),
    /// The right side of quint arithmetic.
    Operand(Arith),
    /// A shift or rotation amount.
    Amount,
}

/// What the walker needs of the domain it runs over.
pub trait Domain: Sized {
    /// A value.
    type Val: Clone + From<Value>;
    /// Shared storage: an array element, or a variable passed by
    /// reference.
    type Cell: Clone;
    /// A witness that a value may be run-dependent: `()` in an abstract
    /// domain, uninhabited in a run, which knows every value.
    type Unknown: Copy;
    /// Where quantum operations are lowered to.
    type Sink: Emit;
    /// Count every expression evaluated as a step, not only statements
    /// and loop iterations.
    const STEP_EXPRESSIONS: bool = false;

    /// The gate sink.
    fn sink(&mut self) -> &mut Self::Sink;
    /// The value every run computes, or `Err` when the domain cannot name
    /// one `Value` for it.
    fn value(v: &Self::Val) -> Result<&Value, Self::Unknown>;
    /// [`Self::value`], by value; `Err` returns the value with the witness.
    fn split(v: Self::Val) -> Result<Value, (Self::Unknown, Self::Val)>;

    // ---- storage ----------------------------------------------------------

    /// A fresh cell holding `v`.
    fn new_cell(&mut self, v: Self::Val) -> Self::Cell;
    /// Applies `f` to a cell's value.
    fn read<R>(&self, c: &Self::Cell, f: impl FnOnce(&Self::Val) -> R) -> R;
    /// Overwrites a cell's value.
    fn write(&mut self, c: &Self::Cell, v: Self::Val);
    /// A fresh array of fresh cells, of elements of type `elem`.
    fn array(&mut self, elem: &Type, items: Vec<Self::Val>) -> Self::Val;
    /// An array's element cells; `None` for anything else.
    fn cells(&self, v: &Self::Val) -> Option<Vec<Self::Cell>>;
    /// The cell of `arr[i]`, for an assignment; `Ok(Err(_))` when the
    /// domain does not know which cell it is.
    fn element(
        &self,
        arr: &Self::Val,
        i: usize,
        span: Span,
    ) -> QutesResult<Result<Self::Cell, Self::Unknown>>;
    /// `base[i]`.
    fn index(&self, base: &Self::Val, i: usize, span: Span) -> QutesResult<Self::Val>;

    // ---- draws, output and budgets ----------------------------------------

    /// Measures a register into a classical value.
    fn measure(&mut self, q: &QuantumRef) -> QutesResult<Self::Val>;
    /// `pattern in hay` for the qubits of a qustring haystack and a
    /// bitstring pattern that is not empty and, when known, no longer
    /// than the haystack.
    fn search(
        it: &mut Interp<'_, '_, Self>,
        pattern: Result<Vec<bool>, Self::Unknown>,
        hay: &[usize],
        span: Span,
    ) -> QutesResult<Self::Val>;
    /// `qmin`/`qmax` over non-negative ints.
    fn extremum(&mut self, builtin: Builtin, values: &[u64]) -> QutesResult<Self::Val>;
    /// `print` of a classical value.
    fn print(&mut self, v: Self::Val);
    /// A `barrier` statement.
    fn barrier(&mut self) -> QutesResult<()>;
    /// A cooperative checkpoint, on every step.
    fn checkpoint(&mut self) -> QutesResult<()> {
        Ok(())
    }
    /// A call nested deeper than the budget allows: an error, or the
    /// witness that its result is not known.
    fn too_deep(&mut self, max: usize, span: Span) -> QutesResult<Self::Unknown>;

    // ---- what only an abstract domain reaches -----------------------------

    /// A run-dependent value of static type `ty`.
    fn unknown(u: Self::Unknown, ty: &Type) -> Self::Val;
    /// Records why the domain's result is not exact.
    fn note(&mut self, u: Self::Unknown, why: &str);
    /// Runs `arm`, one of the walker's lowering arms, on `vals` with each
    /// operand the domain does not know replaced by a known stand-in that
    /// emits at least what any run emits in its [`Role`].
    fn stand_in<'p, 'a, const N: usize>(
        it: &mut Interp<'p, 'a, Self>,
        u: Self::Unknown,
        vals: [Self::Val; N],
        roles: [Role; N],
        arm: impl FnOnce(&mut Interp<'p, 'a, Self>, [Self::Val; N]) -> QutesResult<Self::Val>,
    ) -> QutesResult<Self::Val>;
    /// Runs both sides of a branch on a condition the domain does not
    /// know.
    fn explore<'p, 'a>(
        it: &mut Interp<'p, 'a, Self>,
        u: Self::Unknown,
        then: impl FnOnce(&mut Interp<'p, 'a, Self>) -> QutesResult<Flow>,
        other: impl FnOnce(&mut Interp<'p, 'a, Self>) -> QutesResult<Flow>,
    ) -> QutesResult<Flow>;
    /// Forgets what an unknown number of runs of `loop_stmt` may write,
    /// after its body was walked once; with `None`, what a write to a
    /// cell the domain cannot name may have changed.
    fn havoc(it: &mut Interp<'_, '_, Self>, u: Self::Unknown, loop_stmt: Option<&Stmt<'_>>);
    /// Marks the storage a block starts with, for [`Self::end_block`].
    fn mark(&self) -> usize {
        0
    }
    /// Ends the scope of a block's declarations.
    fn end_block(_it: &mut Interp<'_, '_, Self>, _stmts: &[Stmt<'_>], _mark: usize, _flow: Flow) {}
}

/// An assignment target: a variable, an array element's cell, or a cell
/// the domain cannot name.
enum Lhs<D: Domain> {
    Var(Loc),
    Elem(D::Cell),
    Any(D::Unknown),
}

/// The walker's state: frames of slots, the budgets, and the domain.
#[derive(Clone)]
pub struct Interp<'p, 'a, D: Domain> {
    /// The program's functions.
    pub functions: &'p [Function<'a>],
    /// The global slots, then the frames of the running calls.
    pub slots: Vec<Binding<D::Val, D::Cell>>,
    /// How many of [`Self::slots`] are globals.
    pub globals: usize,
    /// Where the running frame starts.
    pub base: usize,
    /// The value of the `return` being executed.
    pub returned: D::Val,
    /// Steps taken so far.
    pub steps: u64,
    max_steps: u64,
    call_depth: usize,
    max_call_depth: usize,
    /// The domain.
    pub dom: D,
}

impl<'p, 'a, D: Domain> Interp<'p, 'a, D> {
    /// A walker over `program`'s main body in `dom`, within the budgets.
    pub fn new(program: &'p Resolution<'a>, dom: D, max_steps: u64, max_call_depth: usize) -> Self {
        Interp {
            functions: &program.functions,
            slots: std::iter::repeat_with(Binding::default)
                .take(program.globals + program.main_slots)
                .collect(),
            globals: program.globals,
            base: program.globals,
            returned: Value::Void.into(),
            steps: 0,
            max_steps,
            call_depth: 0,
            max_call_depth,
            dom,
        }
    }

    /// Counts one step against the budget.
    pub fn step(&mut self, span: Span) -> QutesResult<()> {
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
        self.dom.checkpoint()
    }

    /// The steps of an expression that [`Self::eval_fast`] evaluated:
    /// its nodes, in a domain that counts expressions.
    #[inline(always)]
    fn fast_steps(&mut self, e: &Expr<'_>) -> QutesResult<()> {
        if D::STEP_EXPRESSIONS {
            let nodes = if matches!(e.kind, ExprKind::Binary(..)) {
                3
            } else {
                1
            };
            for _ in 0..nodes {
                self.step(e.span)?;
            }
        }
        Ok(())
    }

    // ---- variables ---------------------------------------------------------

    /// The slot a variable's location names in the running frame.
    #[inline]
    pub fn slot(&self, at: Loc) -> usize {
        match at {
            Loc::Local(slot) => self.base + slot as usize,
            Loc::Global(slot) => slot as usize,
        }
    }

    #[inline]
    fn binding(&self, at: Loc) -> Option<&Binding<D::Val, D::Cell>> {
        self.slots.get(self.slot(at))
    }

    /// Applies `f` to a variable's value; `None` if the variable is not
    /// declared (yet).
    #[inline]
    pub fn with_value<R>(&self, at: Loc, f: impl FnOnce(&D::Val) -> R) -> Option<R> {
        match self.binding(at)? {
            Binding::Empty => None,
            Binding::Owned(v) => Some(f(v)),
            Binding::Shared(c) => Some(self.dom.read(c, f)),
        }
    }

    /// The value of a variable that holds an int.
    #[inline]
    fn int_at(&self, at: Loc) -> Option<i64> {
        self.with_value(at, |v| match D::value(v) {
            Ok(Value::Int(i)) => Some(*i),
            _ => None,
        })?
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
    fn read(&self, var: &Var<'_>, span: Span) -> QutesResult<D::Val> {
        self.with_value(var.at, D::Val::clone)
            .ok_or_else(|| undeclared(var, span))
    }

    /// The variable's cell, moving its value into one first if it was
    /// held in place: for passing it by reference.
    fn share(&mut self, at: Loc) -> Option<D::Cell> {
        let i = self.slot(at);
        let b = self.slots.get_mut(i)?;
        if let Binding::Owned(v) = b {
            let v = std::mem::replace(v, Value::Void.into());
            *b = Binding::Shared(self.dom.new_cell(v));
        }
        match b {
            Binding::Shared(c) => Some(c.clone()),
            _ => None,
        }
    }

    fn bind(&mut self, i: usize, b: Binding<D::Val, D::Cell>) {
        if let Some(s) = self.slots.get_mut(i) {
            *s = b;
        }
    }

    /// The current value of an assignment target of static type `ty`.
    fn lhs_read(&self, lhs: &Lhs<D>, ty: &Type) -> D::Val {
        match lhs {
            Lhs::Var(at) => self
                .with_value(*at, D::Val::clone)
                .unwrap_or_else(|| Value::Void.into()),
            Lhs::Elem(c) => self.dom.read(c, D::Val::clone),
            Lhs::Any(u) => D::unknown(*u, ty),
        }
    }

    #[inline]
    fn lhs_write(&mut self, lhs: &Lhs<D>, v: D::Val) {
        match lhs {
            Lhs::Var(at) => {
                let i = self.slot(*at);
                match self.slots.get_mut(i) {
                    Some(Binding::Owned(x)) => *x = v,
                    Some(Binding::Shared(c)) => self.dom.write(c, v),
                    Some(Binding::Empty) | None => {}
                }
            }
            Lhs::Elem(c) => self.dom.write(c, v),
            Lhs::Any(u) => D::havoc(self, *u, None),
        }
    }

    // ---- statements ------------------------------------------------------

    /// Runs statements in order until one returns.
    pub fn exec_stmts(&mut self, stmts: &[Stmt<'a>]) -> QutesResult<Flow> {
        for s in stmts {
            if self.exec_stmt(s)? == Flow::Return {
                return Ok(Flow::Return);
            }
        }
        Ok(Flow::Normal)
    }

    /// Runs a block, then ends its scope.
    pub fn exec_block(&mut self, stmts: &[Stmt<'a>]) -> QutesResult<Flow> {
        let mark = self.dom.mark();
        let flow = self.exec_stmts(stmts)?;
        D::end_block(self, stmts, mark, flow);
        Ok(flow)
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
            } => self.exec_decl(ty, name, *slot, init.as_ref(), *span),
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
            } => match self.eval_condition(cond)? {
                Ok(true) => self.exec_block(then_block),
                Ok(false) => match else_block {
                    Some(eb) => self.exec_block(eb),
                    None => Ok(Flow::Normal),
                },
                Err(u) => D::explore(
                    self,
                    u,
                    |it| it.exec_block(then_block),
                    |it| match else_block {
                        Some(eb) => it.exec_block(eb),
                        None => Ok(Flow::Normal),
                    },
                ),
            },
            Stmt::While { cond, body, span } => self.exec_while(s, cond, body, *span),
            Stmt::Foreach { .. } => self.exec_foreach(s),
            Stmt::Return { value, .. } => {
                self.returned = match value {
                    Some(e) => self.eval_typed(e)?,
                    None => Value::Void.into(),
                };
                Ok(Flow::Return)
            }
            Stmt::Print { value, .. } => {
                // Printing a quantum variable measures it (paper §5: "the
                // evaluation of a quantum variable — whether for verifying
                // its value or for printing — requires a measurement
                // operation").
                let mut v = self.eval(value)?;
                if QKind::of(&value.ty).is_some() {
                    v = self.measure_value(v, value.span)?;
                }
                self.dom.print(v);
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
                self.measure_value(v, target.span)?;
                Ok(Flow::Normal)
            }
            Stmt::Barrier { .. } => {
                self.dom.barrier()?;
                Ok(Flow::Normal)
            }
            Stmt::Block { stmts, .. } => self.exec_block(stmts),
        }
    }

    #[inline(never)]
    fn exec_while(
        &mut self,
        s: &Stmt<'_>,
        cond: &Expr<'a>,
        body: &[Stmt<'a>],
        span: Span,
    ) -> QutesResult<Flow> {
        loop {
            match self.eval_condition(cond)? {
                Ok(false) => return Ok(Flow::Normal),
                Ok(true) => {
                    self.step(span)?;
                    if self.exec_block(body)? == Flow::Return {
                        return Ok(Flow::Return);
                    }
                }
                Err(u) => {
                    self.dom.note(
                        u,
                        "while loop with a run-dependent condition: iteration count \
                             (and any gates its body emits) cannot be bounded statically",
                    );
                    return self.once_then_havoc(u, s, body);
                }
            }
        }
    }

    /// Walks the body of a loop whose trip count the domain does not know
    /// once, then forgets what more runs of it may have written.
    #[inline(never)]
    fn once_then_havoc(
        &mut self,
        u: D::Unknown,
        s: &Stmt<'_>,
        body: &[Stmt<'a>],
    ) -> QutesResult<Flow> {
        let flow = self.exec_block(body)?;
        D::havoc(self, u, Some(s));
        Ok(flow)
    }

    /// A declaration binds its slot; a local slot is rebound each time
    /// its block runs again.
    #[inline(never)]
    fn exec_decl(
        &mut self,
        ty: &Type,
        name: &str,
        slot: Loc,
        init: Option<&Expr<'a>>,
        span: Span,
    ) -> QutesResult<Flow> {
        let value = match init {
            Some(e) => self.eval_typed(e)?,
            None => self.default_value(ty, name, span)?,
        };
        self.bind(self.slot(slot), Binding::Owned(value));
        Ok(Flow::Normal)
    }

    /// `foreach`: the variable is bound to each element's cell in turn
    /// (mutations persist, paper §4), over the cells the array held when
    /// the loop began; over a qustring, to each of its qubits.
    #[inline(never)]
    fn exec_foreach(&mut self, s: &Stmt<'a>) -> QutesResult<Flow> {
        let Stmt::Foreach {
            var,
            iterable,
            body,
            span,
            ..
        } = s
        else {
            return Ok(Flow::Normal);
        };
        let it = self.eval(iterable)?;
        let items: Vec<Binding<D::Val, D::Cell>> = match self.dom.cells(&it) {
            Some(cells) => cells.into_iter().map(Binding::Shared).collect(),
            None => match D::split(it) {
                Ok(Value::Quantum(q)) => q
                    .qubits
                    .iter()
                    .map(|&qb| Binding::Owned(quantum(vec![qb], QKind::Qubit)))
                    .collect(),
                Ok(_) => return Err(ill_typed("foreach over a scalar")),
                Err((u, _)) => {
                    self.dom.note(
                        u,
                        "foreach over a run-dependent collection: iteration count cannot \
                         be bounded statically",
                    );
                    let at = self.base + *var as usize;
                    let elem = element(&iterable.ty).unwrap_or(Type::Void);
                    self.step(*span)?;
                    self.bind(at, Binding::Owned(D::unknown(u, &elem)));
                    let flow = self.once_then_havoc(u, s, body);
                    self.bind(at, Binding::Empty);
                    return flow;
                }
            },
        };
        let at = self.base + *var as usize;
        for item in items {
            self.step(*span)?;
            self.bind(at, item);
            let flow = self.exec_block(body)?;
            self.bind(at, Binding::Empty);
            if flow == Flow::Return {
                return Ok(Flow::Return);
            }
        }
        Ok(Flow::Normal)
    }

    fn default_value(&mut self, ty: &Type, name: &str, span: Span) -> QutesResult<D::Val> {
        Ok(match ty {
            Type::Bool => Value::Bool(false).into(),
            Type::Int => Value::Int(0).into(),
            Type::Float => Value::Float(0.0).into(),
            Type::String => Value::Str(String::new()).into(),
            Type::Qubit => {
                Value::Quantum(Cast::new_qubit_basis(self.dom.sink(), name, false)?).into()
            }
            Type::Quint => {
                Value::Quantum(Cast::new_quint(self.dom.sink(), name, 0, Some(1))?).into()
            }
            Type::Qustring => {
                return Err(QutesError::runtime(
                    "qustring declarations need an initialiser (the width is the string length)",
                    span,
                ))
            }
            Type::Array(elem) => self.dom.array(elem, Vec::new()),
            Type::Void => Value::Void.into(),
        })
    }

    /// Runs a conversion node the checker placed: `v` converted to the
    /// node's type `ty`.
    #[inline(never)]
    fn convert(
        &mut self,
        v: D::Val,
        conv: &Conversion<'_>,
        ty: &Type,
        span: Span,
    ) -> QutesResult<D::Val> {
        match conv {
            Conversion::Promote(kind, name) => {
                let kind = *kind;
                self.lower_known([v], [Role::Promoted(kind)], |it, [v]| {
                    let v = known::<D>(v)?;
                    let sink = it.dom.sink();
                    let fresh;
                    let name = match name {
                        Some(name) => *name,
                        None => {
                            fresh = sink.fresh_name("elem");
                            &fresh
                        }
                    };
                    Ok(Value::Quantum(Cast::promote(sink, name, &v, kind, span)?).into())
                })
            }
            Conversion::Measure => {
                let m = self.measure_value(v, span)?;
                match D::split(m) {
                    Ok(m) if *ty == Type::Float => widen(m),
                    Ok(m) => Ok(m.into()),
                    Err((u, _)) => Ok(D::unknown(u, ty)),
                }
            }
            Conversion::Widen => match D::split(v) {
                Ok(v) => widen(v),
                Err((u, _)) => Ok(D::unknown(u, ty)),
            },
            Conversion::Elements(conv) => {
                let elem = element(ty).ok_or_else(|| ill_typed("elements of a scalar"))?;
                let Some(cells) = self.dom.cells(&v) else {
                    return match D::value(&v) {
                        Ok(_) => Err(ill_typed("elements of a scalar")),
                        // Widening lowers no code; a promotion or a
                        // measurement of each of an unknown number of
                        // elements cannot be counted.
                        Err(u) if **conv == Conversion::Widen => Ok(D::unknown(u, ty)),
                        Err(_) => Err(QutesError::runtime(
                            "conversion of each element of a run-dependent array",
                            span,
                        )),
                    };
                };
                let mut items = Vec::with_capacity(cells.len());
                for c in &cells {
                    let item = self.dom.read(c, D::Val::clone);
                    items.push(self.convert(item, conv, &elem, span)?);
                }
                Ok(self.dom.array(&elem, items))
            }
        }
    }

    fn exec_assign(
        &mut self,
        target: &Place<'a>,
        op: AssignOp,
        value_expr: &Expr<'a>,
        span: Span,
    ) -> QutesResult<()> {
        if self.assign_fast(target, op, value_expr)? {
            return Ok(());
        }
        self.assign_slow(target, op, value_expr, span)
    }

    #[inline(never)]
    fn assign_slow(
        &mut self,
        target: &Place<'a>,
        op: AssignOp,
        value_expr: &Expr<'a>,
        span: Span,
    ) -> QutesResult<()> {
        let undeclared = |var: &Var<'_>| {
            QutesError::runtime(
                format!("assignment to undeclared variable '{}'", var.name),
                span,
            )
        };
        let (lhs, elem_ty);
        let target_ty = match target {
            Place::Var(var) => {
                if !self.declared(var.at) {
                    return Err(undeclared(var));
                }
                lhs = Lhs::Var(var.at);
                &var.ty
            }
            Place::Index(var, idx_expr) => {
                let idx = self.eval_index(idx_expr)?;
                if !self.declared(var.at) {
                    return Err(undeclared(var));
                }
                let elem = match idx {
                    Ok(i) => self
                        .with_value(var.at, |arr| self.dom.element(arr, i, span))
                        .ok_or_else(|| undeclared(var))??,
                    Err(u) => Err(u),
                };
                lhs = match elem {
                    Ok(cell) => Lhs::Elem(cell),
                    Err(u) => {
                        self.dom
                            .note(u, "assignment through a run-dependent array index");
                        Lhs::Any(u)
                    }
                };
                elem_ty = element(&var.ty).ok_or_else(|| ill_typed("index into a scalar"))?;
                &elem_ty
            }
        };

        match op {
            AssignOp::Set => {
                let v = self.eval_typed(value_expr)?;
                self.lhs_write(&lhs, v);
            }
            AssignOp::Add | AssignOp::Sub => {
                let current = self.lhs_read(&lhs, target_ty);
                let rhs = self.eval(value_expr)?;
                let subtract = op == AssignOp::Sub;
                if *target_ty == Type::Quint {
                    self.quint_arith(Arith::InPlace, current, rhs, subtract, span)?;
                } else {
                    let bin = if op == AssignOp::Add {
                        BinOp::Add
                    } else {
                        BinOp::Sub
                    };
                    let result = self.classical_binary(bin, current, rhs, target_ty, span)?;
                    let result = typed::<D>(result, target_ty, value_expr.span)?;
                    self.lhs_write(&lhs, result);
                }
            }
            AssignOp::Shl | AssignOp::Shr => {
                let rhs = self.eval_typed(value_expr)?;
                if let Ok(v) = D::value(&rhs) {
                    let k = v
                        .as_i64()
                        .ok_or_else(|| ill_typed("a shift by a non-int"))?;
                    if k < 0 {
                        return Err(QutesError::runtime(
                            "shift amount must be >= 0",
                            value_expr.span,
                        ));
                    }
                }
                let current = self.lhs_read(&lhs, target_ty);
                let left = op == AssignOp::Shl;
                if target_ty.is_quantum() {
                    // Cyclic shift in constant depth (paper §5).
                    self.rotate(current, rhs, left, value_expr.span)?;
                } else {
                    let shift = if left { BinOp::Shl } else { BinOp::Shr };
                    let v = self.classical_binary(shift, current, rhs, target_ty, span)?;
                    self.lhs_write(&lhs, v);
                }
            }
        }
        Ok(())
    }

    /// The assignments that need none of [`Self::assign_slow`]'s general
    /// machinery, done in place: `int ±= int`, and storing a scalar into
    /// a variable. Returns `false`, having done nothing, for every other
    /// assignment.
    #[inline]
    fn assign_fast(
        &mut self,
        target: &Place<'a>,
        op: AssignOp,
        value: &Expr<'a>,
    ) -> QutesResult<bool> {
        let Place::Var(var) = target else {
            return Ok(false);
        };
        let v = match op {
            AssignOp::Add | AssignOp::Sub => {
                let (Some(a), Some(b)) = (self.int_at(var.at), self.int_leaf(value)) else {
                    return Ok(false);
                };
                Value::Int(if op == AssignOp::Add {
                    a.wrapping_add(b)
                } else {
                    a.wrapping_sub(b)
                })
            }
            // The checker converted the value to the variable's type.
            AssignOp::Set => match self.eval_fast(value) {
                Some(v) if self.declared(var.at) => v,
                _ => return Ok(false),
            },
            AssignOp::Shl | AssignOp::Shr => return Ok(false),
        };
        self.fast_steps(value)?;
        self.lhs_write(&Lhs::Var(var.at), v.into());
        Ok(true)
    }

    /// An index: a non-negative int; `Err` when the domain does not know
    /// it.
    fn eval_index(&mut self, e: &Expr<'a>) -> QutesResult<Result<usize, D::Unknown>> {
        let v = self.eval(e)?;
        match D::value(&v) {
            Ok(v) => Ok(Ok(ops::non_negative(v, "index", e.span)?)),
            Err(u) => Ok(Err(u)),
        }
    }

    /// A measurement of `v`: its classical value.
    #[inline(never)]
    fn measure_value(&mut self, v: D::Val, span: Span) -> QutesResult<D::Val> {
        match D::split(v) {
            Ok(Value::Quantum(q)) => self.dom.measure(&q),
            Ok(other) => Err(QutesError::runtime(
                format!(
                    "measure expects a quantum value, found {}",
                    other.type_name()
                ),
                span,
            )),
            Err((u, v)) => D::stand_in(self, u, [v], [Role::Register], |it, [v]| {
                it.measure_value(v, span)
            }),
        }
    }

    /// Runs the lowering `arm` on `vals`, or on the domain's stand-ins
    /// when it does not know one ([`Domain::stand_in`]).
    #[inline]
    fn lower_known<const N: usize>(
        &mut self,
        vals: [D::Val; N],
        roles: [Role; N],
        arm: impl FnOnce(&mut Self, [D::Val; N]) -> QutesResult<D::Val>,
    ) -> QutesResult<D::Val> {
        match vals.iter().find_map(|v| D::value(v).err()) {
            Some(u) => D::stand_in(self, u, vals, roles, arm),
            None => arm(self, vals),
        }
    }

    // ---- gates -----------------------------------------------------------

    /// A gate's register operand: an error for a known value that is not
    /// one.
    fn quantum_operand(&mut self, e: &Expr<'a>, what: &str) -> QutesResult<D::Val> {
        let v = self.eval(e)?;
        match D::value(&v) {
            Ok(other) if !matches!(other, Value::Quantum(_)) => Err(QutesError::runtime(
                format!(
                    "{what} needs a quantum operand, found {}",
                    other.type_name()
                ),
                e.span,
            )),
            _ => Ok(v),
        }
    }

    #[inline(never)]
    fn exec_gate(&mut self, gate: GateKind, args: &[Expr<'a>], span: Span) -> QutesResult<D::Val> {
        let q = self.quantum_operand(&args[0], gate.name())?;
        let void = |_| Value::Void.into();
        if gate == GateKind::CNot {
            let t = self.quantum_operand(&args[1], "cnot")?;
            return self.lower_known([q, t], [Role::Control, Role::Register], |it, [c, t]| {
                lower::cnot(it.dom.sink(), qubits::<D>(&c), qubits::<D>(&t), span).map(void)
            });
        }
        // An angle the domain does not know emits the same one phase
        // gate per qubit.
        let angle = match gate {
            GateKind::Phase => match D::split(self.eval(&args[1])?) {
                Ok(v) => v
                    .as_f64()
                    .ok_or_else(|| ill_typed("a phase by a non-number"))?,
                Err(_) => 0.0,
            },
            _ => 0.0,
        };
        self.lower_known([q], [Role::Register], |it, [q]| {
            lower::gate_each(it.dom.sink(), gate, qubits::<D>(&q), angle, span).map(void)
        })
    }

    // ---- quantum arithmetic ------------------------------------------------

    /// Quint arithmetic on register `a` with a classical or quint
    /// operand: `a += rhs` / `a -= rhs` in place (void), or a fresh sum
    /// or product register.
    fn quint_arith(
        &mut self,
        arith: Arith,
        a: D::Val,
        rhs: D::Val,
        subtract: bool,
        span: Span,
    ) -> QutesResult<D::Val> {
        let roles = [Role::Register, Role::Operand(arith)];
        self.lower_known([a, rhs], roles, |it, [a, rhs]| {
            let rhs = known::<D>(rhs)?;
            let Some(operand) = Operand::of(&rhs) else {
                let found = rhs.type_name();
                let (verb, prep) = if subtract {
                    ("subtract", "from")
                } else {
                    ("add", "to")
                };
                return Err(QutesError::runtime(
                    match arith {
                        Arith::InPlace => {
                            format!("cannot {verb} a {found} value {prep} a quint")
                        }
                        Arith::Sum => format!("cannot combine quint with {found}"),
                        Arith::Product => format!("cannot multiply a quint by {found}"),
                    },
                    span,
                ));
            };
            let (a, sink) = (qubits::<D>(&a), it.dom.sink());
            Ok(match arith {
                Arith::InPlace => {
                    lower::add_sub_in_place(sink, a, operand, subtract)?;
                    Value::Void.into()
                }
                Arith::Sum => quantum(
                    lower::add_sub_expr(sink, a, operand, subtract)?,
                    QKind::Quint,
                ),
                Arith::Product => quantum(lower::mul_expr(sink, a, operand)?, QKind::Quint),
            })
        })
    }

    /// Cyclic shift of register `q` by `k` in place, in constant depth
    /// (paper §5).
    fn rotate(&mut self, q: D::Val, k: D::Val, left: bool, span: Span) -> QutesResult<D::Val> {
        self.lower_known([q, k], [Role::Register, Role::Amount], |it, [q, k]| {
            let k = ops::non_negative(&known::<D>(k)?, "rotation amount", span)?;
            lower::rotate(it.dom.sink(), qubits::<D>(&q), k, left)?;
            Ok(Value::Void.into())
        })
    }

    // ---- expressions -------------------------------------------------------

    /// Evaluates an expression.
    #[inline]
    pub fn eval(&mut self, e: &Expr<'a>) -> QutesResult<D::Val> {
        if let Some(v) = self.eval_fast(e) {
            self.fast_steps(e)?;
            return Ok(v.into());
        }
        if D::STEP_EXPRESSIONS {
            self.step(e.span)?;
        }
        self.eval_slow(e)
    }

    /// Evaluates `e` for a store or a shift amount: see [`typed`].
    fn eval_typed(&mut self, e: &Expr<'a>) -> QutesResult<D::Val> {
        let v = self.eval(e)?;
        typed::<D>(v, &e.ty, e.span)
    }

    /// Evaluates the cheapest expressions (a scalar literal, a variable
    /// holding a scalar, an int operator over two such ints) without the
    /// general dispatch; `None` sends the caller to it. None of these has
    /// a side effect, so falling back after a look is harmless.
    #[inline(always)]
    fn eval_fast(&self, e: &Expr<'_>) -> Option<Value> {
        let scalar = |v: &D::Val| match D::value(v) {
            Ok(Value::Int(i)) => Some(Value::Int(*i)),
            Ok(Value::Bool(b)) => Some(Value::Bool(*b)),
            Ok(Value::Float(f)) => Some(Value::Float(*f)),
            _ => None,
        };
        match &e.kind {
            ExprKind::Int(v) => Some(Value::Int(*v)),
            ExprKind::Bool(b) => Some(Value::Bool(*b)),
            ExprKind::Var(var) => self.with_value(var.at, scalar)?,
            ExprKind::Binary(op, l, r) => {
                ops::int_binary(*op, self.int_leaf(l)?, self.int_leaf(r)?)
            }
            _ => None,
        }
    }

    /// A condition's truth; `Err` when the domain does not know it.
    pub fn eval_condition(&mut self, e: &Expr<'a>) -> QutesResult<Result<bool, D::Unknown>> {
        // An int comparison, the usual branch or loop test.
        if let ExprKind::Binary(op, l, r) = &e.kind {
            if let (Some(a), Some(b)) = (self.int_leaf(l), self.int_leaf(r)) {
                if let Some(c) = ops::int_compare(*op, a, b) {
                    self.fast_steps(e)?;
                    return Ok(Ok(c));
                }
            }
        }
        let v = self.eval(e)?;
        match D::value(&v) {
            Ok(v) => v
                .as_bool()
                .map(Ok)
                .ok_or_else(|| ill_typed("a condition that is not classical")),
            Err(u) => Ok(Err(u)),
        }
    }

    fn eval_slow(&mut self, e: &Expr<'a>) -> QutesResult<D::Val> {
        match &e.kind {
            ExprKind::Int(v) => Ok(Value::Int(*v).into()),
            ExprKind::Bool(b) => Ok(Value::Bool(*b).into()),
            ExprKind::Var(var) => self.read(var, e.span),
            ExprKind::Binary(op, l, r) => self.eval_binary(*op, l, r, &e.ty, e.span),
            ExprKind::Call { name, callee, args } => {
                self.eval_call(name, *callee, args, &e.ty, e.span)
            }
            ExprKind::Convert(conv, inner) => {
                let v = self.eval(inner)?;
                self.convert(v, conv, &e.ty, e.span)
            }
            ExprKind::Float(v) => Ok(Value::Float(*v).into()),
            ExprKind::Str(s) => Ok(Value::Str((*s).to_string()).into()),
            ExprKind::Pi => Ok(Value::Float(std::f64::consts::PI).into()),
            ExprKind::IndexVar {
                var,
                var_span,
                index,
            } => self.eval_index_var(var, *var_span, index, e),
            ExprKind::Index(base, idx) => {
                let b = self.eval(base)?;
                match self.eval_index(idx)? {
                    Ok(i) => self.dom.index(&b, i, e.span),
                    Err(u) => Ok(self.index_unknown(u, b, &e.ty)),
                }
            }
            ExprKind::Unary(op, inner) => match D::split(self.eval(inner)?) {
                Ok(v) => Ok(ops::unary(*op, &v, inner.span)?.into()),
                Err((u, _)) => Ok(D::unknown(u, &e.ty)),
            },
            ExprKind::Measure(inner) => {
                let v = self.eval(inner)?;
                self.measure_value(v, inner.span)
            }
            _ => self.eval_literal(e),
        }
    }

    /// `var[index]`.
    #[inline(never)]
    fn eval_index_var(
        &mut self,
        var: &Var<'a>,
        var_span: Span,
        index: &Expr<'a>,
        e: &Expr<'a>,
    ) -> QutesResult<D::Val> {
        let span = e.span;
        // `index` calls no function, so it cannot rebind `var`:
        // check the variable, evaluate the index, then read the
        // element through a borrow of the variable's value.
        if !self.declared(var.at) {
            return Err(undeclared(var, var_span));
        }
        if D::STEP_EXPRESSIONS {
            // One step for reading the variable, as for
            // `base[index]`.
            self.step(span)?;
        }
        match self.eval_index(index)? {
            Ok(i) => self
                .with_value(var.at, |base| self.dom.index(base, i, span))
                .unwrap_or_else(|| Err(undeclared(var, var_span))),
            Err(u) => {
                let base = self.read(var, var_span)?;
                Ok(self.index_unknown(u, base, &e.ty))
            }
        }
    }

    /// An element, of type `ty`, of a register, string or array at an
    /// index the domain does not know.
    #[inline(never)]
    fn index_unknown(&mut self, u: D::Unknown, base: D::Val, ty: &Type) -> D::Val {
        if let Ok(Value::Quantum(_)) = D::value(&base) {
            self.dom
                .note(u, "quantum register indexed by a run-dependent value");
        }
        D::unknown(u, ty)
    }

    /// The literals that allocate: registers and arrays. A literal's
    /// type picks what it builds: `0q`/`1q` of type `qubit` are basis
    /// qubits, and `[a, b]q` of type `qubit` an amplitude pair.
    #[inline(never)]
    fn eval_literal(&mut self, e: &Expr<'a>) -> QutesResult<D::Val> {
        let reg = |q: QuantumRef| Ok(Value::Quantum(q).into());
        match &e.kind {
            ExprKind::Quint(v) => {
                let name = self.dom.sink().fresh_name("quint_lit");
                if e.ty == Type::Qubit {
                    reg(Cast::new_qubit_basis(self.dom.sink(), &name, *v == 1)?)
                } else {
                    reg(Cast::new_quint(self.dom.sink(), &name, *v, None)?)
                }
            }
            ExprKind::Qustring(s) => {
                let name = self.dom.sink().fresh_name("qustring_lit");
                reg(Cast::new_qustring(self.dom.sink(), &name, s, e.span)?)
            }
            ExprKind::Ket(k) => {
                let name = self.dom.sink().fresh_name("ket");
                reg(Cast::new_qubit_ket(self.dom.sink(), &name, *k)?)
            }
            ExprKind::Array(elems) => {
                let elem = element(&e.ty).ok_or_else(|| ill_typed("an array of no type"))?;
                let mut items = Vec::with_capacity(elems.len());
                for el in elems {
                    items.push(self.eval_typed(el)?);
                }
                Ok(self.dom.array(&elem, items))
            }
            ExprKind::QuantumArray(elems) => {
                let vals = elems
                    .iter()
                    .map(|el| self.eval(el))
                    .collect::<QutesResult<Vec<_>>>()?;
                if e.ty == Type::Qubit {
                    self.amplitude_literal(&vals, e.span)
                } else {
                    let mut values = Vec::with_capacity(vals.len());
                    for v in &vals {
                        match D::value(v) {
                            Ok(v) => values.push(
                                v.as_i64()
                                    .filter(|&i| i >= 0)
                                    .map(|i| i as u64)
                                    .ok_or_else(|| {
                                        QutesError::runtime(
                                            "superposition values must be non-negative integers",
                                            e.span,
                                        )
                                    })?,
                            ),
                            Err(u) => {
                                self.dom.note(
                                    u,
                                    "superposition literal with run-dependent values: state \
                                     preparation network unknown",
                                );
                                return Ok(D::unknown(u, &e.ty));
                            }
                        }
                    }
                    let name = self.dom.sink().fresh_name("superpos");
                    reg(Cast::new_quint_superposed(
                        self.dom.sink(),
                        &name,
                        &values,
                        e.span,
                    )?)
                }
            }
            _ => Err(ill_typed("not a literal")),
        }
    }

    /// `[a, b]` as the amplitudes of a qubit.
    fn amplitude_literal(&mut self, vals: &[D::Val], span: Span) -> QutesResult<D::Val> {
        let [a, b] = vals else {
            return Err(ill_typed("an amplitude literal of other than two entries"));
        };
        let (a, b) = match (D::value(a), D::value(b)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(u), _) | (_, Err(u)) => {
                self.dom
                    .note(u, "qubit amplitude literal with run-dependent amplitudes");
                return Ok(D::unknown(u, &Type::Qubit));
            }
        };
        let amplitude = |v: &Value| {
            v.as_f64()
                .ok_or_else(|| ill_typed("a non-numeric amplitude"))
        };
        let (a, b) = (amplitude(a)?, amplitude(b)?);
        let name = self.dom.sink().fresh_name("qubit_amp");
        Ok(Value::Quantum(Cast::new_qubit_amplitudes(
            self.dom.sink(),
            &name,
            a,
            b,
            span,
        )?)
        .into())
    }

    fn eval_binary(
        &mut self,
        op: BinOp,
        l: &Expr<'a>,
        r: &Expr<'a>,
        ty: &Type,
        span: Span,
    ) -> QutesResult<D::Val> {
        use BinOp::*;
        // Short-circuit logicals first.
        if matches!(op, And | Or) {
            return self.eval_logical(op, l, r);
        }

        let lv = self.eval(l)?;

        // `in`: Grover substring search when the haystack is quantum.
        if op == In {
            let rv = self.eval(r)?;
            if r.ty == Type::Qustring {
                return self.eval_in(lv, rv, span);
            }
            return self.classical_binary(op, lv, rv, ty, span);
        }

        // Quantum arithmetic producing fresh registers.
        let arith = if op == Mul {
            Arith::Product
        } else {
            Arith::Sum
        };
        let quint = matches!(op, Add | Sub | Mul);
        if l.ty == Type::Quint && quint {
            let rv = self.eval(r)?;
            return self.quint_arith(arith, lv, rv, op == Sub, span);
        }
        if l.ty.is_quantum() && matches!(op, Shl | Shr) {
            return self.shifted_copy(lv, op == Shl, r);
        }
        let rv = self.eval(r)?;
        // int + quint / int * quint (commute to the quint-first forms).
        if r.ty == Type::Quint && matches!(op, Add | Mul) {
            return self.quint_arith(arith, rv, lv, false, span);
        }
        self.classical_binary(op, lv, rv, ty, span)
    }

    /// `&&` and `||`: the right side runs only when the left does not
    /// decide.
    #[inline(never)]
    fn eval_logical(&mut self, op: BinOp, l: &Expr<'a>, r: &Expr<'a>) -> QutesResult<D::Val> {
        let known = |b: Result<bool, D::Unknown>| match b {
            Ok(b) => Value::Bool(b).into(),
            Err(u) => D::unknown(u, &Type::Bool),
        };
        match self.eval_condition(l)? {
            Ok(b) if b == (op == BinOp::Or) => Ok(Value::Bool(b).into()),
            Ok(_) => Ok(known(self.eval_condition(r)?)),
            Err(u) => {
                // Whether the right side (and its measurements) runs
                // depends on the unknown left value: explore both.
                D::explore(
                    self,
                    u,
                    |it| {
                        let _ = it.eval_condition(r)?;
                        Ok(Flow::Normal)
                    },
                    |_| Ok(Flow::Normal),
                )?;
                Ok(D::unknown(u, &Type::Bool))
            }
        }
    }

    /// `q << k` / `q >> k`: a shifted copy of a register.
    #[inline(never)]
    fn shifted_copy(&mut self, q: D::Val, left: bool, r: &Expr<'a>) -> QutesResult<D::Val> {
        let k = self.eval(r)?;
        self.lower_known([q, k], [Role::Register, Role::Amount], |it, [q, k]| {
            let k = ops::non_negative(&known::<D>(k)?, "shift amount", r.span)?;
            let Value::Quantum(q) = known::<D>(q)? else {
                return Err(ill_typed("a shifted copy of a classical value"));
            };
            let copy = lower::shifted_copy(it.dom.sink(), &q.qubits, k, left)?;
            Ok(quantum(copy, q.kind))
        })
    }

    /// Classical binary semantics, with a result of static type `ty`.
    fn classical_binary(
        &mut self,
        op: BinOp,
        lv: D::Val,
        rv: D::Val,
        ty: &Type,
        span: Span,
    ) -> QutesResult<D::Val> {
        match (D::value(&lv), D::value(&rv)) {
            (Ok(a), Ok(b)) => Ok(ops::binary(op, a, b, span)?.into()),
            (Err(u), _) | (_, Err(u)) => Ok(D::unknown(u, ty)),
        }
    }

    /// `pattern in haystack` for a qustring haystack.
    #[inline(never)]
    fn eval_in(&mut self, pattern: D::Val, haystack: D::Val, span: Span) -> QutesResult<D::Val> {
        let bits = match D::value(&pattern) {
            Ok(Value::Str(p)) => {
                if !p.chars().all(|c| c == '0' || c == '1') {
                    return Err(QutesError::runtime(
                        "quantum substring search patterns must be bitstrings",
                        span,
                    ));
                }
                Ok(substring_oracle::bits_from_str(p))
            }
            Ok(_) => return Err(ill_typed("a search for a non-string pattern")),
            Err(u) => Err(u),
        };
        self.lower_known([haystack], [Role::Register], |it, [hay]| {
            let hay = qubits::<D>(&hay);
            match &bits {
                // No circuit: every text holds "", and none a longer one.
                Ok(b) if b.is_empty() || b.len() > hay.len() => {
                    Ok(Value::Bool(b.is_empty()).into())
                }
                _ => D::search(it, bits, hay, span),
            }
        })
    }

    // ---- calls -------------------------------------------------------------

    fn eval_call(
        &mut self,
        name: &str,
        callee: Callee,
        args: &[Expr<'a>],
        ty: &Type,
        span: Span,
    ) -> QutesResult<D::Val> {
        let index = match callee {
            Callee::Builtin(b) => return self.eval_builtin(b, args, ty, span),
            Callee::Function(i) => i as usize,
        };
        let functions = self.functions;
        let f = functions
            .get(index)
            .ok_or_else(|| ill_typed("a call of no function"))?;
        // The callee's frame goes on top of the caller's. Arguments are
        // evaluated in the caller's frame (calls inside them stack their
        // frames above this one) and bound straight into their slots.
        let frame = self.slots.len();
        self.slots.resize_with(frame + f.slots, Binding::default);
        if let Err(e) = self.bind_args(f, args, frame) {
            self.slots.truncate(frame);
            return Err(e);
        }
        if self.call_depth >= self.max_call_depth {
            self.slots.truncate(frame);
            let u = self.dom.too_deep(self.max_call_depth, span)?;
            return Ok(D::unknown(u, ty));
        }
        self.call_depth += 1;
        // Only globals and the parameters are visible inside a function:
        // the body's variables all resolve to this frame or a global.
        let caller = std::mem::replace(&mut self.base, frame);
        let flow = self.exec_stmts(&f.body);
        self.base = caller;
        self.slots.truncate(frame);
        self.call_depth -= 1;
        match flow? {
            Flow::Return => Ok(std::mem::replace(&mut self.returned, Value::Void.into())),
            Flow::Normal if *ty == Type::Void => Ok(Value::Void.into()),
            Flow::Normal => Err(QutesError::runtime(
                format!("function '{name}' finished without returning a {ty} value"),
                span,
            )),
        }
    }

    /// Binds a call's arguments into the parameter slots of the frame
    /// at `frame`. A plain variable (the checker converted every other
    /// argument to its parameter's type) is passed **by reference**
    /// (shared cell, paper §4); everything else is evaluated.
    fn bind_args(&mut self, f: &Function<'a>, args: &[Expr<'a>], frame: usize) -> QutesResult<()> {
        for (a, &slot) in args.iter().zip(&f.params) {
            let shared = match &a.kind {
                ExprKind::Var(var) => self.share(var.at),
                _ => None,
            };
            let value = match (shared, self.eval_fast(a)) {
                (Some(c), _) => Binding::Shared(c),
                (None, Some(v)) => {
                    self.fast_steps(a)?;
                    Binding::Owned(v.into())
                }
                (None, None) => Binding::Owned(self.eval_typed(a)?),
            };
            self.bind(frame + slot as usize, value);
        }
        Ok(())
    }

    /// Calls a built-in function, of result type `ty`.
    #[inline(never)]
    fn eval_builtin(
        &mut self,
        builtin: Builtin,
        args: &[Expr<'a>],
        ty: &Type,
        span: Span,
    ) -> QutesResult<D::Val> {
        let [first, rest @ ..] = args else {
            return Err(ill_typed("a builtin call without arguments"));
        };
        if let (Builtin::Rotl | Builtin::Rotr, [amount]) = (builtin, rest) {
            let q = self.eval(first)?;
            let k = self.eval(amount)?;
            return self.rotate(q, k, builtin == Builtin::Rotl, span);
        }
        let v = self.eval(first)?;
        if matches!(builtin, Builtin::Qmin | Builtin::Qmax) {
            return self.extremum(builtin, v, span);
        }
        let v = match D::split(v) {
            Ok(v) => v,
            Err((u, v)) => {
                return Ok(match (builtin, self.dom.cells(&v)) {
                    (Builtin::Len, Some(cells)) => Value::Int(cells.len() as i64).into(),
                    _ => D::unknown(u, ty),
                })
            }
        };
        Ok(match builtin {
            Builtin::Len => ops::len(&v, span)?.into(),
            Builtin::Width => ops::width(&v, span)?.into(),
            Builtin::Range => {
                let n = ops::range_len(&v, span)?;
                let items = (0..n).map(|i| Value::Int(i).into()).collect();
                self.dom.array(&Type::Int, items)
            }
            _ => ops::cast(builtin, &v, span)?.into(),
        })
    }

    /// `qmin`/`qmax`: Dürr–Høyer quantum extremum over a classical
    /// database (paper §6). Runs Grover rounds on an auxiliary index
    /// register; inputs and output are classical (the checker measures
    /// quantum elements first).
    fn extremum(&mut self, builtin: Builtin, v: D::Val, span: Span) -> QutesResult<D::Val> {
        let name = if builtin == Builtin::Qmin {
            "qmin"
        } else {
            "qmax"
        };
        let Some(cells) = self.dom.cells(&v) else {
            return match D::value(&v) {
                Ok(_) => Err(ill_typed("an extremum of a scalar")),
                Err(u) => {
                    self.dom
                        .note(u, "qmin/qmax over a collection the estimator lost track of");
                    Ok(D::unknown(u, &Type::Int))
                }
            };
        };
        if cells.is_empty() {
            return Err(QutesError::runtime(
                format!("{name}() of an empty array"),
                span,
            ));
        }
        let (mut values, mut unknown) = (Vec::with_capacity(cells.len()), None);
        for c in &cells {
            match self.dom.read(c, |item| D::value(item).map(Value::as_i64)) {
                Ok(x) => values.push(x.filter(|&x| x >= 0).ok_or_else(|| {
                    QutesError::runtime(format!("{name}() needs non-negative integers"), span)
                })? as u64),
                Err(u) => unknown = Some(u),
            }
        }
        match unknown {
            None => self.dom.extremum(builtin, &values),
            Some(u) => Ok(D::unknown(u, &Type::Int)),
        }
    }
}

/// The qubits of a known register; none for any other value.
fn qubits<D: Domain>(v: &D::Val) -> &[usize] {
    match D::value(v) {
        Ok(Value::Quantum(q)) => &q.qubits,
        _ => &[],
    }
}

/// A lowering arm's operand: known, or a domain's stand-in for it.
fn known<D: Domain>(v: D::Val) -> QutesResult<Value> {
    D::split(v).map_err(|_| QutesError::runtime("an operand has no stand-in", Span::default()))
}

/// `v`, a value of static type `ty`, to be stored. The checker decides
/// every type but one value's: an inexact quotient of two ints is a float
/// typed `int` (`print 7 / 2` prints `3.5`). A store refuses it, so every
/// variable, element, parameter and returned value holds a value of its
/// static type.
fn typed<D: Domain>(v: D::Val, ty: &Type, span: Span) -> QutesResult<D::Val> {
    if *ty == Type::Int && matches!(D::value(&v), Ok(Value::Float(_))) {
        return Err(QutesError::runtime("cannot use a float value as int", span));
    }
    Ok(v)
}

/// An int widened to a float. A float is one already: an inexact
/// `int / int` quotient, typed `int`, widens to the float it is.
fn widen<V: From<Value>>(v: Value) -> QutesResult<V> {
    match v {
        Value::Int(i) => Ok(Value::Float(i as f64).into()),
        v @ Value::Float(_) => Ok(v.into()),
        _ => Err(ill_typed("a widening of a non-number")),
    }
}

/// The error for a construct the checker rejects, were its resolution
/// run: the walker runs only the resolution of a program that checks.
fn ill_typed(what: &str) -> QutesError {
    QutesError::Internal {
        stage: "interp",
        message: format!("ill-typed resolution: {what}"),
    }
}

/// The error for reading a variable whose declaration has not run.
fn undeclared(var: &Var<'_>, span: Span) -> QutesError {
    QutesError::runtime(format!("use of undeclared variable '{}'", var.name), span)
}

fn quantum<V: From<Value>>(qubits: Vec<usize>, kind: QKind) -> V {
    Value::Quantum(QuantumRef { qubits, kind }).into()
}
