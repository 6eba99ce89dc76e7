//! Quantum-aware dataflow lints.
//!
//! One walk over the checker's resolution (`qutes_core::resolution`)
//! tracks, per variable: its type, whether it has been read, whether its
//! declaration captured a measurement result, and whether it escapes the
//! analysis' view (is returned, passed by reference to a user function,
//! or aliased). A variable is a program-wide [`VarId`] taken from its
//! slot (globals, then the main frame, then each function's frame); the
//! checker gives each declaration its own slot. The walk directly
//! produces the flow-insensitive lints:
//! - **QL002 quantum-alias** — binding an existing quantum variable (or
//!   an element of one) to a second name; both names share qubits.
//! - **QL003 dirty-qubits** — a quantum variable that is operated on but
//!   never measured and never escapes.
//! - **QL004 unused-measurement** — a variable initialised from a
//!   measurement whose result is never read.
//! - **QL101 unused-variable** — any other never-read variable
//!   (`_`-prefixed names and parameters are exempt).
//! - **QL201 implicit-measurement** — sites where the runtime measures a
//!   quantum value as a side effect of a classical context: exactly the
//!   measurement conversions the checker wrote into the resolution
//!   (assignment to a classical type, conditions, comparisons, classical
//!   casts, indices, arguments, returned values), so the lint and the run
//!   name the same sites. `print` and `measure` are explicit and exempt:
//!   printing a quantum value is the idiomatic way to observe it.
//!
//! Blocks carry no scope in the resolution: the end-of-life lints
//! (QL003, QL004, QL101) fire for a statement list's declarations when
//! the list ends, for a `foreach` variable when its loop ends, and for
//! the globals after every function body.
//!
//! The flow-*sensitive* lint — **QL001 use-after-measurement**, a
//! quantum operation (gate statement, quantum arithmetic, cyclic shift,
//! Grover search target) applied to a variable after an explicit
//! `measure` collapsed it — is not decided here. The walk records every
//! measure, quantum use, whole-variable reassignment and user-function
//! call as an event stream bracketed by control-flow markers, and
//! [`crate::cfg`] rebuilds a basic-block CFG from that stream and runs
//! an interprocedural must-measured fixpoint over it (meet =
//! intersection, function summaries at call sites). A variable counts
//! as measured only when *every* path measured it, and a measure inside
//! a callee propagates to plain-variable arguments at the call site.

use crate::cfg::{self, Ev, VarId};
use crate::lints::{self, Lint};
use crate::RawFinding;
use qutes_core::resolution::{Builtin, Callee, Expr, ExprKind, Loc, Place, Resolution, Stmt, Var};
use qutes_core::types::element;
use qutes_frontend::ast::{AssignOp, BinOp, GateKind, Type, UnOp};
use qutes_frontend::Span;

/// Runs the dataflow lints over a whole resolved program.
pub(crate) fn run(program: &Resolution<'_>) -> Vec<RawFinding> {
    let mut pass = Pass::new(program);
    // Top-level statements first: their declarations become the globals
    // visible inside function bodies.
    pass.walk_stmts(&program.main);
    let toplevel = cfg::Unit {
        params: Vec::new(),
        events: std::mem::take(&mut pass.events),
    };
    // Each function body becomes its own analysis unit for the CFG
    // phase, indexed like `program.functions`.
    let mut base = program.globals + program.main_slots;
    let mut funcs = Vec::with_capacity(program.functions.len());
    for f in &program.functions {
        // Parameters are exempt from the end-of-life lints, so they have
        // no state of their own.
        let params = f.params.iter().map(|&slot| base + slot as usize).collect();
        pass.base = base;
        base += f.slots;
        pass.walk_block(&f.body);
        funcs.push(cfg::Unit {
            params,
            events: std::mem::take(&mut pass.events),
        });
    }
    // The globals live until every function body has used them.
    pass.end_scope(&program.main);
    let mut findings = pass.findings;
    findings.extend(cfg::must_measured_findings(&toplevel, &funcs));
    findings
}

/// Everything the pass knows about one declaration.
#[derive(Clone, Debug)]
struct VarInfo<'a> {
    name: &'a str,
    /// The declared type (a `foreach` variable's: its element type).
    ty: Type,
    decl_span: Span,
    used: bool,
    /// Collapsed by *any* observation — explicit measure, `print`, or an
    /// implicit-measurement context. Satisfies QL003 without triggering
    /// QL001 (which stays explicit-measure-only to avoid false alarms).
    observed: bool,
    /// Declaration captured a measurement result (explicit or implicit).
    from_measurement: bool,
    /// Returned, passed by reference, or aliased — its later life is
    /// outside this pass' view, so "never measured" cannot be concluded.
    escapes: bool,
}

impl<'a> VarInfo<'a> {
    fn new(name: &'a str, ty: Type, decl_span: Span, from_measurement: bool) -> Self {
        VarInfo {
            name,
            ty,
            decl_span,
            used: false,
            observed: false,
            from_measurement,
            escapes: false,
        }
    }
}

/// The variable an lvalue-ish expression resolves to.
fn root_var<'e, 'a>(e: &'e Expr<'a>) -> Option<&'e Var<'a>> {
    match &e.kind {
        ExprKind::Var(v) | ExprKind::IndexVar { var: v, .. } => Some(v),
        ExprKind::Index(b, _) | ExprKind::Measure(b) | ExprKind::Convert(_, b) => root_var(b),
        _ => None,
    }
}

struct Pass<'a> {
    /// Per-variable state, indexed by [`VarId`]; `None` outside the
    /// variable's life.
    vars: Vec<Option<VarInfo<'a>>>,
    /// [`VarId`] of slot 0 of the frame being walked.
    base: usize,
    findings: Vec<RawFinding>,
    /// Event stream for the CFG phase; drained per analysis unit.
    events: Vec<Ev<'a>>,
}

impl<'a> Pass<'a> {
    fn new(program: &Resolution<'a>) -> Self {
        let frames: usize = program.functions.iter().map(|f| f.slots).sum();
        Pass {
            vars: vec![None; program.globals + program.main_slots + frames],
            base: program.globals,
            findings: Vec::new(),
            events: Vec::new(),
        }
    }

    fn report(&mut self, lint: &'static Lint, message: String, span: Span) {
        self.findings.push(RawFinding {
            lint,
            message,
            span,
            notes: Vec::new(),
        });
    }

    // ---- variables --------------------------------------------------------

    fn id(&self, at: Loc) -> VarId {
        match at {
            Loc::Local(slot) => self.base + slot as usize,
            Loc::Global(slot) => slot as usize,
        }
    }

    /// Applies `f` to the state of `var`, if it is live.
    fn mark(&mut self, var: Option<&Var<'a>>, f: impl FnOnce(&mut VarInfo<'a>)) {
        let id = var.map(|var| self.id(var.at));
        if let Some(v) = id.and_then(|id| self.vars.get_mut(id)?.as_mut()) {
            f(v);
        }
    }

    /// Ends the life of the declarations of a statement list and emits
    /// their end-of-life lints.
    fn end_scope(&mut self, stmts: &[Stmt<'a>]) {
        for s in stmts {
            if let Stmt::Decl { slot, .. } = s {
                self.end_life(self.id(*slot));
            }
        }
    }

    fn end_life(&mut self, id: VarId) {
        let Some(v) = self.vars.get_mut(id).and_then(Option::take) else {
            return;
        };
        if v.name.starts_with('_') {
            return;
        }
        if !v.used {
            if v.from_measurement {
                self.report(
                    &lints::UNUSED_MEASUREMENT,
                    format!(
                        "the measurement stored in '{}' is never used; the collapse has \
                         no observable effect",
                        v.name
                    ),
                    v.decl_span,
                );
            } else {
                self.report(
                    &lints::UNUSED_VARIABLE,
                    format!("unused variable '{}'", v.name),
                    v.decl_span,
                );
            }
        } else if v.ty.is_quantum() && !v.observed && !v.escapes {
            self.report(
                &lints::DIRTY_QUBITS,
                format!(
                    "quantum variable '{}' is operated on but never measured; its qubits \
                     stay allocated and unobserved",
                    v.name
                ),
                v.decl_span,
            );
        }
    }

    // ---- lint trigger helpers ---------------------------------------------

    /// Records a quantum operation on `var` at `span` for the CFG phase,
    /// which decides QL001 from the must-measured fixpoint.
    fn quantum_use(&mut self, var: &Var<'a>, span: Span) {
        self.events.push(Ev::Use {
            var: self.id(var.at),
            name: var.name,
            span,
        });
    }

    /// Records a quantum operation touching `e`.
    fn check_quantum_use(&mut self, e: &Expr<'a>) {
        if let Some(var) = root_var(e) {
            self.quantum_use(var, e.span);
        }
    }

    /// Marks the root variable of an explicitly measured expression and
    /// records the collapse for the CFG phase.
    fn mark_measured(&mut self, e: &Expr<'a>, measure_span: Span) {
        let var = root_var(e);
        self.mark(var, |v| {
            v.used = true;
            v.observed = true;
        });
        if let Some(var) = var {
            self.events.push(Ev::Measure {
                var: self.id(var.at),
                span: measure_span,
            });
        }
    }

    /// QL002: `init` aliases an existing quantum value.
    fn check_alias(&mut self, new_name: &str, target_ty: &Type, init: &Expr<'a>) {
        if !target_ty.is_quantum() {
            return;
        }
        let (src, is_element) = match &init.kind {
            ExprKind::Var(v) => (v, false),
            ExprKind::IndexVar { var, .. } => (var, true),
            ExprKind::Index(b, _) => match root_var(b) {
                Some(v) => (v, true),
                None => return,
            },
            _ => return,
        };
        if !src.ty.is_quantum() {
            return;
        }
        let name = src.name;
        let what = if is_element {
            format!("a qubit of '{name}'")
        } else {
            format!("the qubits of '{name}'")
        };
        self.report(
            &lints::QUANTUM_ALIAS,
            format!(
                "'{new_name}' aliases {what}; quantum state cannot be cloned, so both names \
                 share the same qubits and operations through one affect the other"
            ),
            init.span,
        );
        // The aliased qubits may be measured through the new name, so
        // "never measured" can no longer be concluded for the source.
        self.mark(Some(src), |v| v.escapes = true);
    }

    /// Walks `e`, an operand in the classical context `site` names (`by
    /// this condition`). When `e` is one of the checker's measurement
    /// nodes, QL201 reports it there, and the measured variable counts as
    /// observed afterwards (satisfies QL003). [`Self::walk_expr`] walks
    /// every other conversion node through here, so each measurement node
    /// is reported once, whether or not a site names its context.
    fn walk_at(&mut self, e: &Expr<'a>, site: impl FnOnce() -> String) {
        let ExprKind::Convert(conv, inner) = &e.kind else {
            return self.walk_expr(e);
        };
        self.walk_expr(inner);
        if !conv.measures() {
            return;
        }
        self.report(
            &lints::IMPLICIT_MEASUREMENT,
            format!(
                "this {} value is implicitly measured {}; its state collapses",
                inner.ty,
                site()
            ),
            inner.span,
        );
        self.mark(root_var(inner), |v| v.observed = true);
    }

    // ---- walkers ----------------------------------------------------------

    fn walk_stmts(&mut self, stmts: &[Stmt<'a>]) {
        for s in stmts {
            self.walk_stmt(s);
        }
    }

    fn walk_block(&mut self, stmts: &[Stmt<'a>]) {
        self.walk_stmts(stmts);
        self.end_scope(stmts);
    }

    fn walk_stmt(&mut self, s: &Stmt<'a>) {
        match s {
            Stmt::Decl {
                ty,
                name,
                slot,
                init,
                span,
            } => {
                let mut from_measurement = false;
                if let Some(e) = init {
                    self.walk_at(e, || format!("when assigned to the {ty} variable '{name}'"));
                    self.check_alias(name, ty, e);
                    from_measurement = match &e.kind {
                        ExprKind::Measure(_) => true,
                        ExprKind::Convert(conv, _) => conv.measures(),
                        _ => false,
                    };
                }
                let id = self.id(*slot);
                self.vars[id] = Some(VarInfo::new(name, (*ty).clone(), *span, from_measurement));
            }
            Stmt::Assign {
                target,
                op,
                value,
                span,
            } => {
                let (Place::Var(var) | Place::Index(var, _)) = target;
                let (name, ty) = (var.name, &var.ty);
                self.walk_at(value, || match (op, target) {
                    (AssignOp::Set, Place::Var(_)) => {
                        format!("when assigned to the {ty} variable '{name}'")
                    }
                    (AssignOp::Set, Place::Index(..)) => {
                        format!("when assigned to an element of '{name}'")
                    }
                    _ => format!("by the '{op}' assignment"),
                });
                if let Place::Index(_, idx) = target {
                    self.walk_at(idx, || "when used as an index".to_string());
                    // Writing an element reads the array binding.
                    self.mark(Some(var), |v| v.used = true);
                }
                match (op, target) {
                    (AssignOp::Set, Place::Var(_)) => {
                        self.check_alias(name, ty, value);
                        // A fresh value replaces the measured one.
                        self.events.push(Ev::Reset {
                            var: self.id(var.at),
                        });
                    }
                    (AssignOp::Set, Place::Index(..)) => {}
                    (AssignOp::Add | AssignOp::Sub | AssignOp::Shl | AssignOp::Shr, _) => {
                        // Compound assignment reads the target.
                        self.mark(Some(var), |v| v.used = true);
                        if var.ty.is_quantum() {
                            self.quantum_use(var, *span);
                            if matches!(op, AssignOp::Add | AssignOp::Sub) && value.ty.is_quantum()
                            {
                                self.check_quantum_use(value);
                            }
                        }
                    }
                }
            }
            Stmt::If {
                cond,
                then_block,
                else_block,
                ..
            } => {
                self.walk_at(cond, || "by this condition".to_string());
                self.events.push(Ev::BranchStart {
                    has_else: else_block.is_some(),
                });
                self.events.push(Ev::ArmStart);
                self.walk_block(then_block);
                self.events.push(Ev::ArmEnd);
                if let Some(eb) = else_block {
                    self.events.push(Ev::ArmStart);
                    self.walk_block(eb);
                    self.events.push(Ev::ArmEnd);
                }
                self.events.push(Ev::BranchEnd);
            }
            Stmt::While { cond, body, .. } => {
                // The condition re-evaluates every iteration: its events
                // belong to the loop header, not the pre-loop block.
                self.events.push(Ev::LoopStart);
                self.walk_at(cond, || "by this condition".to_string());
                self.events.push(Ev::BodyStart);
                self.walk_block(body);
                self.events.push(Ev::LoopEnd);
            }
            Stmt::Foreach {
                name,
                var,
                iterable,
                body,
                ..
            } => {
                // The iterable is evaluated once, before the loop.
                self.walk_expr(iterable);
                let elem_ty = element(&iterable.ty).unwrap_or(Type::Int);
                self.events.push(Ev::LoopStart);
                self.events.push(Ev::BodyStart);
                let id = self.base + *var as usize;
                self.vars[id] = Some(VarInfo::new(name, elem_ty, iterable.span, false));
                self.walk_stmts(body);
                self.end_life(id);
                self.end_scope(body);
                self.events.push(Ev::LoopEnd);
            }
            Stmt::Return { value, .. } => {
                if let Some(e) = value {
                    self.walk_at(e, || "when returned".to_string());
                    self.mark(root_var(e), |v| v.escapes = true);
                }
                self.events.push(Ev::Ret);
            }
            Stmt::Print { value, .. } => {
                // Printing a quantum value measures it, but that is the
                // idiomatic way to observe a result — no QL201 here. It
                // does satisfy QL003's "never measured", though.
                self.walk_expr(value);
                if value.ty.is_quantum() {
                    self.mark(root_var(value), |v| v.observed = true);
                }
            }
            Stmt::Expr { expr, .. } => self.walk_expr(expr),
            Stmt::Gate { gate, args, .. } => {
                // All operands are quantum uses; for `phase` the trailing
                // argument is the classical angle.
                let operands = match gate {
                    GateKind::Phase => &args[..args.len().min(1)],
                    _ => &args[..],
                };
                for a in args {
                    self.walk_expr(a);
                }
                for a in operands {
                    self.check_quantum_use(a);
                }
            }
            Stmt::Measure { target, span } => {
                self.walk_expr(target);
                self.mark_measured(target, *span);
            }
            Stmt::Barrier { .. } => {}
            Stmt::Block { stmts, .. } => self.walk_block(stmts),
        }
    }

    fn walk_expr(&mut self, e: &Expr<'a>) {
        match &e.kind {
            ExprKind::Var(v) => self.mark(Some(v), |v| v.used = true),
            ExprKind::IndexVar { var, index, .. } => {
                self.mark(Some(var), |v| v.used = true);
                self.walk_at(index, || "when used as an index".to_string());
            }
            ExprKind::Index(b, i) => {
                self.walk_expr(b);
                self.walk_at(i, || "when used as an index".to_string());
            }
            ExprKind::Unary(op, inner) => {
                let op = match op {
                    UnOp::Neg => '-',
                    UnOp::Not => '!',
                };
                self.walk_at(inner, || format!("by the '{op}' operator"));
            }
            ExprKind::Binary(op, l, r) => match op {
                // Quantum arithmetic / shifts operate on live state.
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Shl | BinOp::Shr => {
                    for side in [l, r] {
                        self.walk_expr(side);
                    }
                    for side in [l, r] {
                        if side.ty.is_quantum() {
                            self.check_quantum_use(side);
                        }
                    }
                }
                // `pattern in haystack` runs Grover on the haystack and
                // implicitly measures a quantum pattern.
                BinOp::In => {
                    self.walk_at(l, || "when used as an 'in' search pattern".to_string());
                    self.walk_expr(r);
                    if r.ty.is_quantum() {
                        self.check_quantum_use(r);
                    }
                }
                // Classical-only operators auto-measure quantum operands.
                BinOp::Eq
                | BinOp::Ne
                | BinOp::Lt
                | BinOp::Le
                | BinOp::Gt
                | BinOp::Ge
                | BinOp::Div
                | BinOp::Mod
                | BinOp::And
                | BinOp::Or => {
                    for side in [l, r] {
                        self.walk_at(side, || format!("by the classical '{op}' operator"));
                    }
                }
            },
            ExprKind::Call { name, callee, args } => {
                for a in args {
                    self.walk_at(a, || match callee {
                        Callee::Builtin(
                            Builtin::Int | Builtin::Float | Builtin::Bool | Builtin::Str,
                        ) => format!("by the {name}() cast"),
                        Callee::Builtin(_) => format!("by {name}()"),
                        Callee::Function(_) => format!("when passed to '{name}'"),
                    });
                }
                match callee {
                    Callee::Builtin(Builtin::Rotl | Builtin::Rotr) => {
                        if let Some(a) = args.first() {
                            self.check_quantum_use(a);
                        }
                    }
                    Callee::Function(i) => {
                        // Plain-variable arguments bind by reference: the
                        // callee may measure or transform them. The call
                        // event lets the CFG phase apply the callee's
                        // must-measured summary to these arguments.
                        let mut bound = Vec::with_capacity(args.len());
                        for a in args {
                            if let ExprKind::Var(v) = &a.kind {
                                self.mark(Some(v), |v| v.escapes = true);
                                bound.push(Some(self.id(v.at)));
                            } else {
                                bound.push(None);
                            }
                        }
                        self.events.push(Ev::Call {
                            callee: *i,
                            args: bound,
                        });
                    }
                    Callee::Builtin(_) => {}
                }
            }
            ExprKind::Measure(inner) => {
                self.walk_expr(inner);
                self.mark_measured(inner, e.span);
            }
            ExprKind::Convert(..) => self.walk_at(e, || "in a classical context".to_string()),
            ExprKind::Array(items) => {
                for i in items {
                    self.walk_at(i, || "when stored in an array".to_string());
                }
            }
            ExprKind::QuantumArray(items) => {
                for i in items {
                    self.walk_expr(i);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qutes_core::resolve;
    use qutes_frontend::parse;

    fn ids(src: &str) -> Vec<&'static str> {
        let program = parse(src).expect("test program parses");
        let mut found: Vec<&'static str> = run(&resolve(&program).0)
            .iter()
            .map(|f| f.lint.id)
            .collect();
        found.sort_unstable();
        found
    }

    #[test]
    fn use_after_measurement_fires_on_gate() {
        let src = "qubit q = |+>;\nmeasure q;\nhadamard q;\nprint q;\n";
        assert!(ids(src).contains(&"QL001"), "{:?}", ids(src));
    }

    #[test]
    fn reassignment_clears_measured_state() {
        let src = "qubit q = |+>;\nmeasure q;\nq = |0>;\nhadamard q;\nprint q;\n";
        assert!(!ids(src).contains(&"QL001"), "{:?}", ids(src));
    }

    #[test]
    fn measure_in_one_branch_only_does_not_flag() {
        let src = "qubit q = |+>;\nbool c = false;\nif (c) {\n  measure q;\n} else {\n}\nhadamard q;\nprint q;\n";
        assert!(!ids(src).contains(&"QL001"), "{:?}", ids(src));
    }

    #[test]
    fn measure_in_both_branches_flags() {
        let src = "qubit q = |+>;\nbool c = false;\nif (c) {\n  measure q;\n} else {\n  measure q;\n}\nhadamard q;\nprint q;\n";
        assert!(ids(src).contains(&"QL001"), "{:?}", ids(src));
    }

    #[test]
    fn alias_fires_on_quantum_var_init() {
        let src = "qubit a = |+>;\nqubit b = a;\nprint a;\nprint b;\n";
        assert!(ids(src).contains(&"QL002"), "{:?}", ids(src));
    }

    #[test]
    fn unused_variable_and_measurement() {
        let found = ids("int x = 1;\nqubit q = |+>;\nbool b = measure q;\nprint \"done\";\n");
        assert!(found.contains(&"QL101"), "{:?}", found);
        assert!(found.contains(&"QL004"), "{:?}", found);
    }

    #[test]
    fn underscore_prefix_silences_unused() {
        let found = ids("int _scratch = 1;\nprint \"done\";\n");
        assert!(!found.contains(&"QL101"), "{:?}", found);
    }

    #[test]
    fn dirty_qubits_is_noted_but_not_for_escaping_vars() {
        let noisy = ids("qubit q = |+>;\nhadamard q;\n");
        assert!(noisy.contains(&"QL003"), "{:?}", noisy);
        let returned = ids(
            "qubit make() {\n  qubit q = |+>;\n  hadamard q;\n  return q;\n}\nqubit r = make();\nprint r;\n",
        );
        assert!(!returned.contains(&"QL003"), "{:?}", returned);
    }

    #[test]
    fn implicit_measurement_noted_on_lossy_decl() {
        let found = ids("qubit q = |+>;\nbool b = q;\nprint b;\n");
        assert!(found.contains(&"QL201"), "{:?}", found);
        // The explicit form is silent.
        let explicit = ids("qubit q = |+>;\nbool b = measure q;\nprint b;\n");
        assert!(!explicit.contains(&"QL201"), "{:?}", explicit);
    }

    #[test]
    fn print_is_not_an_implicit_measurement_site() {
        let found = ids("qubit q = |+>;\nhadamard q;\nprint q;\n");
        assert!(!found.contains(&"QL201"), "{:?}", found);
    }

    #[test]
    fn params_are_exempt_from_unused() {
        let found = ids("int id(int x) {\n  return 7;\n}\nprint id(3);\n");
        assert!(!found.contains(&"QL101"), "{:?}", found);
    }

    #[test]
    fn ql001_carries_a_note_at_the_collapsing_measure() {
        let src = "qubit q = |+>;\nmeasure q;\nhadamard q;\nprint q;\n";
        let program = parse(src).expect("parses");
        let findings = run(&resolve(&program).0);
        let f = findings
            .iter()
            .find(|f| f.lint.id == "QL001")
            .expect("QL001 fires");
        assert_eq!(f.notes.len(), 1);
        assert_eq!(f.notes[0].0, "the collapsing measurement is here");
        // The note points at the `measure q;` statement on line 2.
        let measure_at = src.find("measure").expect("source has a measure");
        assert_eq!(f.notes[0].1.start, measure_at);
    }

    #[test]
    fn callee_measure_propagates_to_the_call_site() {
        // `collapse` definitely measures its parameter on every path, so
        // the gate after the call operates on collapsed state.
        let src = "void collapse(qubit p) {\n  measure p;\n}\n\
                   qubit q = |+>;\ncollapse(q);\nhadamard q;\nprint q;\n";
        assert!(ids(src).contains(&"QL001"), "{:?}", ids(src));
    }

    #[test]
    fn callee_measuring_on_one_path_does_not_propagate() {
        let src = "void maybe(qubit p, bool c) {\n  if (c) {\n    measure p;\n  }\n}\n\
                   qubit q = |+>;\nmaybe(q, false);\nhadamard q;\nprint q;\n";
        assert!(!ids(src).contains(&"QL001"), "{:?}", ids(src));
    }

    #[test]
    fn callee_that_reprepares_after_measuring_does_not_propagate() {
        let src = "void recycle(qubit p) {\n  measure p;\n  p = |0>;\n}\n\
                   qubit q = |+>;\nrecycle(q);\nhadamard q;\nprint q;\n";
        assert!(!ids(src).contains(&"QL001"), "{:?}", ids(src));
    }

    #[test]
    fn builtins_win_over_user_functions_of_the_same_name() {
        // `len(q)` calls the builtin, as in the checker and the runtime:
        // the user's `len`, which measures its parameter, never runs.
        let src = "void len(qubit p) {\n  measure p;\n}\n\
                   qubit q = |+>;\nint n = len(q);\nhadamard q;\nprint n;\nprint q;\n";
        assert!(!ids(src).contains(&"QL001"), "{:?}", ids(src));
    }

    #[test]
    fn early_return_path_does_not_mask_the_other_arms_measure() {
        // Every path *reaching* the gate measured p: the then-arm
        // returns early. The old snapshot-based merge missed this.
        let src = "void f(qubit p, bool c) {\n  if (c) {\n    return;\n  } else {\n    measure p;\n  }\n  hadamard p;\n}\nqubit q = |+>;\nf(q, false);\nprint q;\n";
        assert!(ids(src).contains(&"QL001"), "{:?}", ids(src));
    }
}
