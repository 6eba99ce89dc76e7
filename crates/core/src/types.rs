//! Static type checking and name resolution for Qutes programs (paper
//! §4, "Type System in Qutes").
//!
//! The checker walks the AST with a scoped environment and enforces:
//! * declaration/assignment compatibility, including **type promotion**
//!   (classical → quantum) and **auto-measurement** (quantum → classical),
//! * operator typing (`+` on quints is superposition addition, `<<`/`>>`
//!   are cyclic shifts, `in` is Grover substring search),
//! * gate-statement operand kinds,
//! * function signatures, return types, and call-site arity.
//!
//! Errors are collected (not bail-on-first) so a program reports all its
//! problems in one pass. Expressions whose type could not be determined
//! propagate `None` to suppress cascading errors.
//!
//! The same walk is the program's one name resolver: [`resolve`] also
//! returns the [`Resolution`] the interpreter runs on, with every
//! variable bound to a frame or global slot, every expression typed, and
//! every conversion the checker allows written as an explicit node
//! ([`conversion`]). The walk visits every expression even where type
//! checking stops early; the parts it visits only to resolve them report
//! nothing, so the diagnostics are those of the checker alone.

use crate::resolution::{self as r, Builtin, Callee, Conversion, Loc, Resolution};
use crate::value::QKind;
use qutes_frontend::ast::*;
use qutes_frontend::{Diagnostic, Span};
use std::collections::HashMap;

/// Checks a whole program; returns every diagnostic found (empty = ok).
pub fn check_program(p: &Program) -> Vec<Diagnostic> {
    resolve(p).1
}

/// Checks and resolves a whole program: the resolved program the
/// interpreter runs, and every diagnostic found (empty = ok). The
/// resolution is complete even when there are diagnostics, but only that
/// of a program without any may be run.
pub fn resolve(p: &Program) -> (Resolution<'_>, Vec<Diagnostic>) {
    let mut cx = Checker::default();
    // Pass 1: register function signatures (use before declaration is
    // fine at the top level) and give each top-level variable name its
    // global slot.
    let mut index = 0u32;
    for item in &p.items {
        match item {
            Item::Function(f) => {
                if cx.functions.contains_key(f.name.as_str()) {
                    cx.diags.push(Diagnostic::error(
                        format!("function '{}' is declared more than once", f.name),
                        f.span,
                    ));
                } else {
                    cx.functions.insert(&f.name, (index, f));
                }
                index += 1;
            }
            Item::Statement(Stmt::VarDecl { name, ty, .. }) => {
                let slot = cx.globals.len() as u32;
                cx.globals.entry(name).or_insert((slot, ty));
            }
            Item::Statement(_) => {}
        }
    }
    // Pass 2: check bodies and top-level statements.
    let mut main = Vec::new();
    let mut functions = Vec::new();
    for item in &p.items {
        match item {
            Item::Function(f) => functions.push(cx.check_function(f)),
            Item::Statement(s) => main.push(cx.check_stmt(s)),
        }
    }
    let resolution = Resolution {
        main,
        main_slots: cx.slots as usize,
        globals: cx.globals.len(),
        functions,
    };
    (resolution, cx.diags)
}

/// One name in one scope.
struct Binding {
    /// The type the checker sees; `None` when the name is bound only for
    /// the runtime (a `foreach` variable over a value of unknown type),
    /// so the checker looks past it.
    checked: Option<Type>,
    /// Where the runtime finds it.
    at: Loc,
}

struct Checker<'a> {
    /// Lexical scopes, innermost last; `scopes[0]` is the global scope.
    scopes: Vec<HashMap<&'a str, Binding>>,
    functions: HashMap<&'a str, (u32, &'a FunctionDecl)>,
    /// Every top-level variable name: its global slot and the type of
    /// its first declaration.
    globals: HashMap<&'a str, (u32, &'a Type)>,
    /// Next free slot of the frame being resolved (a function's, or the
    /// main frame's).
    slots: u32,
    /// The function being resolved: a value it returns is converted to
    /// its return type, and a register promoted there is named after it.
    current_fn: Option<&'a FunctionDecl>,
    /// Above zero while walking code only to resolve it.
    muted: u32,
    diags: Vec<Diagnostic>,
}

impl Default for Checker<'_> {
    fn default() -> Self {
        Checker {
            scopes: vec![HashMap::new()],
            functions: HashMap::new(),
            globals: HashMap::new(),
            slots: 0,
            current_fn: None,
            muted: 0,
            diags: Vec::new(),
        }
    }
}

/// The classical type a quantum type measures to.
pub fn measured(t: &Type) -> Option<Type> {
    match t {
        Type::Qubit => Some(Type::Bool),
        Type::Quint => Some(Type::Int),
        Type::Qustring => Some(Type::String),
        _ => None,
    }
}

/// The type of one element of a value of type `t`: what indexing it
/// reads, and what a `foreach` over it binds.
pub fn element(t: &Type) -> Option<Type> {
    Some(match t {
        Type::Array(t) => (**t).clone(),
        Type::Quint | Type::Qustring => Type::Qubit,
        Type::String => Type::String,
        _ => return None,
    })
}

/// Can a value of `src` be stored into a slot of type `dst`?
/// Covers identity, numeric widening, promotion, and auto-measurement.
pub fn assignable(dst: &Type, src: &Type) -> bool {
    dst == src || conversion(dst, src).is_some()
}

/// The conversion that stores a value of `src` into a slot of type
/// `dst`, for each pair [`assignable`] allows other than the identity;
/// `None` for the identity and for every pair it rejects. A promotion is
/// not named yet.
pub fn conversion(dst: &Type, src: &Type) -> Option<Conversion<'static>> {
    Some(match (dst, src) {
        (Type::Float, Type::Int) => Conversion::Widen,
        // promotion (classical -> quantum)
        (Type::Qubit, Type::Bool | Type::Int)
        | (Type::Quint, Type::Int | Type::Bool)
        | (Type::Qustring, Type::String) => Conversion::Promote(QKind::of(dst)?, None),
        // auto-measure (quantum -> classical)
        (Type::Bool, Type::Qubit)
        | (Type::Int | Type::Float, Type::Quint)
        | (Type::String, Type::Qustring) => Conversion::Measure,
        (Type::Array(d), Type::Array(s)) if d != s => {
            Conversion::Elements(Box::new(conversion(d, s)?))
        }
        _ => return None,
    })
}

/// Builds a resolved expression.
fn node<'a>(kind: r::ExprKind<'a>, ty: Option<Type>, span: Span) -> r::Expr<'a> {
    r::Expr {
        kind,
        ty: ty.unwrap_or(Type::Void),
        span,
    }
}

/// `n` stored into a slot of type `dst`: wrapped in the node of its
/// [`conversion`], a promotion named `name`; unchanged for the identity
/// (and for a pair the checker rejects).
fn coerce<'a>(n: r::Expr<'a>, dst: &Type, name: Option<&'a str>) -> r::Expr<'a> {
    let conv = match conversion(dst, &n.ty) {
        Some(Conversion::Promote(kind, _)) => Conversion::Promote(kind, name),
        Some(conv) => conv,
        None => return n,
    };
    let span = n.span;
    node(
        r::ExprKind::Convert(conv, Box::new(n)),
        Some(dst.clone()),
        span,
    )
}

/// `n` in a classical context: a quantum value is measured.
fn classical(n: r::Expr<'_>) -> r::Expr<'_> {
    match measured(&n.ty) {
        Some(t) => {
            let span = n.span;
            node(
                r::ExprKind::Convert(Conversion::Measure, Box::new(n)),
                Some(t),
                span,
            )
        }
        None => n,
    }
}

impl<'a> Checker<'a> {
    fn error(&mut self, message: impl Into<String>, span: Span) {
        if self.muted == 0 {
            self.diags.push(Diagnostic::error(message, span));
        }
    }

    fn push(&mut self) {
        self.scopes.push(HashMap::new());
    }

    fn pop(&mut self) {
        self.scopes.pop();
    }

    fn fresh_slot(&mut self) -> u32 {
        self.slots += 1;
        self.slots - 1
    }

    /// Declares `name` in the innermost scope. `checked` is the type the
    /// checker records (`None`: bind for the runtime only). Redeclaring
    /// a name the scope already holds is reported, and the declaration
    /// resolves to the slot it already has.
    fn declare(&mut self, name: &'a str, checked: Option<Type>, span: Span) -> Loc {
        let global = self.scopes.len() == 1;
        let global_slot = if global {
            let next = self.globals.len() as u32;
            let (slot, _) = *self.globals.entry(name).or_insert((next, &Type::Void));
            Some(slot)
        } else {
            None
        };
        let last = self.scopes.len() - 1;
        if let Some(b) = self.scopes[last].get_mut(name) {
            let redeclared = b.checked.is_some() && checked.is_some();
            if b.checked.is_none() {
                b.checked = checked;
            }
            let at = b.at;
            if redeclared {
                self.error(
                    format!("variable '{name}' is already declared in this scope"),
                    span,
                );
            }
            return at;
        }
        let at = match global_slot {
            Some(slot) => Loc::Global(slot),
            None => Loc::Local(self.fresh_slot()),
        };
        self.scopes[last].insert(name, Binding { checked, at });
        at
    }

    /// Binds a parameter in the function's scope. A repeated parameter
    /// name is reported; at run time the later parameter rebinds the
    /// same slot.
    fn bind_param(&mut self, p: &'a Param) -> u32 {
        let last = self.scopes.len() - 1;
        if let Some(b) = self.scopes[last].get(p.name.as_str()) {
            let Loc::Local(slot) = b.at else {
                return 0;
            };
            self.error(
                format!("variable '{}' is already declared in this scope", p.name),
                p.span,
            );
            return slot;
        }
        let slot = self.fresh_slot();
        self.scopes[last].insert(
            &p.name,
            Binding {
                checked: Some(p.ty.clone()),
                at: Loc::Local(slot),
            },
        );
        slot
    }

    /// Looks `name` up: the type the checker sees (innermost binding it
    /// can see), and the runtime's resolution (innermost binding, else
    /// the global of that name, declared before or after this point).
    fn lookup(&self, name: &'a str) -> (Option<Type>, r::Var<'a>) {
        let mut at = None;
        for scope in self.scopes.iter().rev() {
            if let Some(b) = scope.get(name) {
                let at = *at.get_or_insert(b.at);
                if let Some(t) = &b.checked {
                    let ty = t.clone();
                    return (Some(ty.clone()), r::Var { name, at, ty });
                }
            }
        }
        let (at, ty) = match (at, self.globals.get(name)) {
            (Some(at), _) => (at, Type::Void),
            (None, Some(&(slot, ty))) => (Loc::Global(slot), ty.clone()),
            // Only a rejected program names it: a placeholder slot.
            (None, None) => (Loc::Global(u32::MAX), Type::Void),
        };
        (None, r::Var { name, at, ty })
    }

    fn check_function(&mut self, f: &'a FunctionDecl) -> r::Function<'a> {
        let outer_slots = std::mem::replace(&mut self.slots, 0);
        self.push();
        let mut params = Vec::with_capacity(f.params.len());
        for p in &f.params {
            if p.ty == Type::Void {
                self.error("parameters cannot have type void", p.span);
            }
            params.push(self.bind_param(p));
        }
        let saved = self.current_fn.replace(f);
        let body = f.body.stmts.iter().map(|s| self.check_stmt(s)).collect();
        self.current_fn = saved;
        self.pop();
        let slots = std::mem::replace(&mut self.slots, outer_slots) as usize;
        r::Function {
            params,
            slots,
            body,
        }
    }

    fn check_block(&mut self, b: &'a Block) -> Vec<r::Stmt<'a>> {
        self.push();
        let stmts = b.stmts.iter().map(|s| self.check_stmt(s)).collect();
        self.pop();
        stmts
    }

    fn check_condition(&mut self, cond: &'a Expr) -> r::Expr<'a> {
        let (t, n) = self.infer(cond);
        let n = classical(n);
        if let Some(t) = t {
            let ok = matches!(t, Type::Bool | Type::Int | Type::Qubit | Type::Quint);
            if !ok {
                self.error(
                    format!(
                        "condition must be bool (or a quantum value that \
                         auto-measures to one), found {t}"
                    ),
                    cond.span,
                );
            }
        }
        n
    }

    fn check_stmt(&mut self, s: &'a Stmt) -> r::Stmt<'a> {
        match s {
            Stmt::VarDecl {
                ty,
                name,
                init,
                span,
            } => {
                if *ty == Type::Void {
                    self.error("variables cannot have type void", *span);
                }
                let init = init.as_ref().map(|init| {
                    let (src, n) = self.infer_in_context(init, Some(ty));
                    if let Some(src) = src {
                        if !assignable(ty, &src) {
                            self.error(
                                format!(
                                    "cannot initialise '{name}' of type {ty} with a {src} value"
                                ),
                                init.span,
                            );
                        }
                    }
                    coerce(n, ty, Some(name))
                });
                let slot = self.declare(name, Some(ty.clone()), *span);
                r::Stmt::Decl {
                    ty,
                    name,
                    slot,
                    init,
                    span: *span,
                }
            }
            Stmt::Assign {
                target,
                op,
                value,
                span,
            } => self.check_assign(target, *op, value, *span),
            Stmt::If {
                cond,
                then_block,
                else_block,
                span,
            } => {
                let cond = self.check_condition(cond);
                let then_block = self.check_block(then_block);
                let else_block = else_block.as_ref().map(|eb| self.check_block(eb));
                r::Stmt::If {
                    cond,
                    then_block,
                    else_block,
                    span: *span,
                }
            }
            Stmt::While { cond, body, span } => {
                let cond = self.check_condition(cond);
                let body = self.check_block(body);
                r::Stmt::While {
                    cond,
                    body,
                    span: *span,
                }
            }
            Stmt::Foreach {
                var,
                iterable,
                body,
                span,
            } => {
                let (it, iterable) = self.infer(iterable);
                let elem = match it {
                    Some(t @ (Type::Array(_) | Type::Qustring)) => element(&t),
                    Some(other) => {
                        self.error(
                            format!("foreach needs an array or qustring, found {other}"),
                            iterable.span,
                        );
                        None
                    }
                    None => None,
                };
                self.push();
                // The variable is bound whatever its type: the runtime
                // binds it to each element.
                let slot = match self.declare(var, elem, *span) {
                    Loc::Local(slot) => slot,
                    Loc::Global(_) => 0,
                };
                let body = body.stmts.iter().map(|st| self.check_stmt(st)).collect();
                self.pop();
                r::Stmt::Foreach {
                    name: var,
                    var: slot,
                    iterable,
                    body,
                    span: *span,
                }
            }
            Stmt::Return { value, span } => {
                let value = match (
                    value,
                    self.current_fn.map(|f| (f.name.as_str(), &f.ret_type)),
                ) {
                    (value, None) => {
                        self.error("return outside of a function", *span);
                        value.as_ref().map(|v| self.quiet(v))
                    }
                    (None, Some((_, Type::Void))) => None,
                    (None, Some((_, other))) => {
                        self.error(format!("function must return a {other} value"), *span);
                        None
                    }
                    (Some(v), Some((_, Type::Void))) => {
                        self.error("void function cannot return a value", v.span);
                        Some(self.quiet(v))
                    }
                    (Some(v), Some((name, expected))) => {
                        let (actual, n) = self.infer(v);
                        if let Some(actual) = actual {
                            if !assignable(expected, &actual) {
                                self.error(
                                    format!(
                                        "return type mismatch: expected {expected}, found {actual}"
                                    ),
                                    v.span,
                                );
                            }
                        }
                        Some(coerce(n, expected, Some(name)))
                    }
                };
                r::Stmt::Return { value, span: *span }
            }
            Stmt::Print { value, span } => r::Stmt::Print {
                value: self.infer(value).1,
                span: *span,
            },
            Stmt::Expr { expr, span } => r::Stmt::Expr {
                expr: self.infer(expr).1,
                span: *span,
            },
            Stmt::Gate { gate, args, span } => r::Stmt::Gate {
                gate: *gate,
                args: self.check_gate(*gate, args),
                span: *span,
            },
            Stmt::Measure { target, span } => {
                let (t, n) = self.infer(target);
                if let Some(t) = t {
                    if !t.is_quantum() {
                        self.error(
                            format!("measure expects a quantum value, found {t}"),
                            target.span,
                        );
                    }
                }
                r::Stmt::Measure {
                    target: n,
                    span: *span,
                }
            }
            Stmt::Barrier { span } => r::Stmt::Barrier { span: *span },
            Stmt::Block(b) => r::Stmt::Block {
                stmts: self.check_block(b),
                span: b.span,
            },
        }
    }

    fn check_assign(
        &mut self,
        target: &'a LValue,
        op: AssignOp,
        value: &'a Expr,
        span: Span,
    ) -> r::Stmt<'a> {
        let (target_ty, place) = match target {
            LValue::Name(name) => {
                let (t, var) = self.lookup(name);
                if t.is_none() {
                    self.error(format!("assignment to undeclared variable '{name}'"), span);
                }
                (t, r::Place::Var(var))
            }
            LValue::Index(name, idx) => {
                let (it, idx_node) = self.infer(idx);
                if let Some(it) = it {
                    if !matches!(it, Type::Int | Type::Quint) {
                        self.error(format!("array index must be int, found {it}"), idx.span);
                    }
                }
                let idx_node = classical(idx_node);
                let (t, var) = self.lookup(name);
                let t = match t {
                    Some(Type::Array(t)) => Some(*t),
                    Some(other) => {
                        self.error(format!("cannot index into {other}"), span);
                        None
                    }
                    None => {
                        self.error(format!("assignment to undeclared variable '{name}'"), span);
                        None
                    }
                };
                (t, r::Place::Index(var, idx_node))
            }
        };
        let value_node = match &target_ty {
            Some(target_ty) => {
                let (value_ty, n) = self.infer_in_context(value, Some(target_ty));
                if let Some(value_ty) = value_ty {
                    self.check_assign_op(op, target_ty, &value_ty, span);
                }
                match (op, &place) {
                    (AssignOp::Set, r::Place::Var(var) | r::Place::Index(var, _)) => {
                        coerce(n, target_ty, Some(var.name))
                    }
                    // A compound assignment to a classical target measures
                    // a quantum operand; a quint target takes it as is.
                    _ if target_ty.is_quantum() => n,
                    _ => classical(n),
                }
            }
            None => self.quiet(value),
        };
        r::Stmt::Assign {
            target: place,
            op,
            value: value_node,
            span,
        }
    }

    fn check_assign_op(&mut self, op: AssignOp, target_ty: &Type, value_ty: &Type, span: Span) {
        match op {
            AssignOp::Set => {
                if !assignable(target_ty, value_ty) {
                    self.error(
                        format!("cannot assign a {value_ty} value to a {target_ty} target"),
                        span,
                    );
                }
            }
            AssignOp::Add | AssignOp::Sub => {
                let ok = match target_ty {
                    Type::Int => matches!(value_ty, Type::Int | Type::Quint),
                    Type::Float => matches!(value_ty, Type::Int | Type::Float | Type::Quint),
                    Type::Quint => matches!(value_ty, Type::Int | Type::Quint | Type::Bool),
                    Type::String if op == AssignOp::Add => {
                        matches!(value_ty, Type::String | Type::Qustring)
                    }
                    _ => false,
                };
                if !ok {
                    self.error(
                        format!("'{op}' is not defined for {target_ty} and {value_ty}"),
                        span,
                    );
                }
            }
            AssignOp::Shl | AssignOp::Shr => {
                let lhs_ok = matches!(target_ty, Type::Int | Type::Quint | Type::Qustring);
                let rhs_ok = matches!(value_ty, Type::Int);
                if !lhs_ok || !rhs_ok {
                    self.error(
                        format!("'{op}' needs an int/quint/qustring target and an int shift, found {target_ty} and {value_ty}"),
                        span,
                    );
                }
            }
        }
    }

    fn check_gate(&mut self, gate: GateKind, args: &'a [Expr]) -> Vec<r::Expr<'a>> {
        let mut out = Vec::with_capacity(args.len().min(2));
        out.push(self.quantum_arg(gate, &args[0]));
        match gate {
            GateKind::Hadamard | GateKind::NotGate | GateKind::PauliY | GateKind::PauliZ => {}
            GateKind::Phase => {
                let (t, n) = self.infer(&args[1]);
                if let Some(t) = t {
                    if !matches!(t, Type::Int | Type::Float) {
                        self.error(
                            format!("phase angle must be numeric, found {t}"),
                            args[1].span,
                        );
                    }
                }
                out.push(n);
            }
            GateKind::CNot => out.push(self.quantum_arg(gate, &args[1])),
        }
        out
    }

    fn quantum_arg(&mut self, gate: GateKind, e: &'a Expr) -> r::Expr<'a> {
        let (t, n) = self.infer(e);
        if let Some(t) = t {
            if !t.is_quantum() {
                self.error(
                    format!("'{}' needs a quantum operand, found {t}", gate.name()),
                    e.span,
                );
            }
        }
        n
    }

    /// Infers an expression's type; `None` means an error was already
    /// reported somewhere inside. Also returns the resolved expression.
    fn infer(&mut self, e: &'a Expr) -> (Option<Type>, r::Expr<'a>) {
        self.infer_in_context(e, None)
    }

    /// Resolves an expression the checker does not look into (it has
    /// already given up on the enclosing construct): nothing inside is
    /// reported.
    fn quiet(&mut self, e: &'a Expr) -> r::Expr<'a> {
        self.muted += 1;
        let (_, n) = self.infer(e);
        self.muted -= 1;
        n
    }

    /// Resolves `exprs` without reporting anything.
    fn quiet_all(&mut self, exprs: &'a [Expr]) -> Vec<r::Expr<'a>> {
        exprs.iter().map(|e| self.quiet(e)).collect()
    }

    /// Context-aware inference: `0q`/`1q` and quantum array literals type
    /// differently where a `qubit` is expected (a basis qubit, an
    /// amplitude pair) than elsewhere (a quint), and an array literal's
    /// elements take the expected element type.
    fn infer_in_context(
        &mut self,
        e: &'a Expr,
        expected: Option<&Type>,
    ) -> (Option<Type>, r::Expr<'a>) {
        let (t, kind) = match &e.kind {
            ExprKind::Int(v) => (Some(Type::Int), r::ExprKind::Int(*v)),
            ExprKind::Float(v) => (Some(Type::Float), r::ExprKind::Float(*v)),
            ExprKind::Bool(b) => (Some(Type::Bool), r::ExprKind::Bool(*b)),
            ExprKind::Str(s) => (Some(Type::String), r::ExprKind::Str(s)),
            ExprKind::Quint(v) => {
                // `0q`/`1q` under a qubit target are basis-qubit literals.
                let t = if *v <= 1 && matches!(expected, Some(Type::Qubit)) {
                    Type::Qubit
                } else {
                    Type::Quint
                };
                (Some(t), r::ExprKind::Quint(*v))
            }
            ExprKind::Qustring(s) => (Some(Type::Qustring), r::ExprKind::Qustring(s)),
            ExprKind::Ket(k) => (Some(Type::Qubit), r::ExprKind::Ket(*k)),
            ExprKind::Pi => (Some(Type::Float), r::ExprKind::Pi),
            ExprKind::Array(elems) => {
                let elem_target = match expected {
                    Some(Type::Array(t)) => Some((**t).clone()),
                    _ => None,
                };
                // The elements take the target's element type, else the
                // first element's, widened to a later element's when only
                // that direction converts (`[1, 2.5]` is a float array).
                let mut elem_ty: Option<Type> = elem_target.clone();
                let mut failed = false;
                let mut nodes = Vec::with_capacity(elems.len());
                for el in elems {
                    if failed {
                        nodes.push(self.quiet(el));
                        continue;
                    }
                    let (t, n) = self.infer_in_context(el, elem_target.as_ref());
                    nodes.push(n);
                    let Some(t) = t else {
                        failed = true;
                        continue;
                    };
                    match &elem_ty {
                        None => elem_ty = Some(t),
                        Some(prev) if assignable(prev, &t) => {}
                        Some(prev) if elem_target.is_none() && assignable(&t, prev) => {
                            elem_ty = Some(t)
                        }
                        Some(prev) => {
                            self.error(
                                format!("array elements must share a type: found {prev} and {t}"),
                                el.span,
                            );
                            failed = true;
                        }
                    }
                }
                let elem_ty = elem_ty.unwrap_or(Type::Int);
                if !failed {
                    nodes = nodes
                        .into_iter()
                        .map(|n| coerce(n, &elem_ty, None))
                        .collect();
                }
                let t = (!failed).then(|| Type::Array(Box::new(elem_ty)));
                (t, r::ExprKind::Array(nodes))
            }
            ExprKind::QuantumArray(elems) => {
                // Float elements -> single-qubit amplitude pair;
                // int elements -> quint superposition of values.
                let mut saw_float = false;
                let mut failed = false;
                let mut nodes = Vec::with_capacity(elems.len());
                for el in elems {
                    if failed {
                        nodes.push(self.quiet(el));
                        continue;
                    }
                    let (t, n) = self.infer(el);
                    nodes.push(n);
                    match t {
                        Some(Type::Float) => saw_float = true,
                        Some(Type::Int) => {}
                        Some(other) => {
                            self.error(
                                format!(
                                    "quantum array literals take numeric entries, found {other}"
                                ),
                                el.span,
                            );
                            failed = true;
                        }
                        None => failed = true,
                    }
                }
                let t = if failed {
                    None
                } else if saw_float || matches!(expected, Some(Type::Qubit)) {
                    if elems.len() != 2 {
                        self.error(
                            "a qubit amplitude literal needs exactly two entries [a, b]",
                            e.span,
                        );
                        None
                    } else {
                        Some(Type::Qubit)
                    }
                } else {
                    Some(Type::Quint)
                };
                (t, r::ExprKind::QuantumArray(nodes))
            }
            ExprKind::Var(name) => {
                let (t, var) = self.lookup(name);
                if t.is_none() {
                    self.error(format!("use of undeclared variable '{name}'"), e.span);
                }
                (t, r::ExprKind::Var(var))
            }
            ExprKind::Index(base, idx) => {
                let (it, idx_node) = self.infer(idx);
                if let Some(it) = it {
                    if !matches!(it, Type::Int | Type::Quint) {
                        self.error(format!("index must be int, found {it}"), idx.span);
                    }
                }
                let idx_node = classical(idx_node);
                let (bt, base_node) = self.infer(base);
                let t = match bt {
                    Some(t) => {
                        let elem = element(&t);
                        if elem.is_none() {
                            self.error(format!("cannot index into {t}"), base.span);
                        }
                        elem
                    }
                    None => None,
                };
                let kind = match base_node.kind {
                    r::ExprKind::Var(var) if !idx_node.calls_function() => r::ExprKind::IndexVar {
                        var,
                        var_span: base_node.span,
                        index: Box::new(idx_node),
                    },
                    kind => r::ExprKind::Index(
                        Box::new(r::Expr { kind, ..base_node }),
                        Box::new(idx_node),
                    ),
                };
                (t, kind)
            }
            ExprKind::Unary(op, inner) => {
                let (t, n) = self.infer(inner);
                let n = classical(n);
                let t = t.and_then(|t| match op {
                    UnOp::Neg => match t {
                        Type::Int | Type::Float => Some(t),
                        Type::Quint => Some(Type::Int), // auto-measure then negate
                        other => {
                            self.error(format!("cannot negate {other}"), inner.span);
                            None
                        }
                    },
                    UnOp::Not => match t {
                        Type::Bool | Type::Qubit => Some(Type::Bool),
                        other => {
                            self.error(format!("'!' needs bool, found {other}"), inner.span);
                            None
                        }
                    },
                });
                (t, r::ExprKind::Unary(*op, Box::new(n)))
            }
            ExprKind::Binary(op, l, r) => {
                let (lt, ln) = self.infer(l);
                let (rt, rn) = match lt {
                    Some(_) => self.infer(r),
                    None => (None, self.quiet(r)),
                };
                let t = match (lt, rt) {
                    (Some(lt), Some(rt)) => self.infer_binary(*op, lt, rt, e.span),
                    _ => None,
                };
                // The classical operators measure quantum operands, and
                // `in` a quantum pattern.
                use BinOp::*;
                let (ln, rn) = match op {
                    Div | Mod | Eq | Ne | Lt | Le | Gt | Ge | And | Or => {
                        (classical(ln), classical(rn))
                    }
                    In => (classical(ln), rn),
                    Add | Sub | Mul | Shl | Shr => (ln, rn),
                };
                (t, r::ExprKind::Binary(*op, Box::new(ln), Box::new(rn)))
            }
            ExprKind::Call(name, args) => self.infer_call(name, args, e.span),
            ExprKind::MeasureExpr(inner) => {
                let (t, n) = self.infer(inner);
                let t = t.and_then(|t| match measured(&t) {
                    Some(c) => Some(c),
                    None => {
                        self.error(
                            format!("measure expects a quantum value, found {t}"),
                            inner.span,
                        );
                        None
                    }
                });
                (t, r::ExprKind::Measure(Box::new(n)))
            }
        };
        let ty = t.clone();
        (t, node(kind, ty, e.span))
    }

    fn infer_call(
        &mut self,
        name: &'a str,
        args: &'a [Expr],
        span: Span,
    ) -> (Option<Type>, r::ExprKind<'a>) {
        if let Some(b) = Builtin::from_name(name) {
            let (t, args) = self.check_builtin_call(b, name, args, span);
            let call = r::ExprKind::Call {
                name,
                callee: Callee::Builtin(b),
                args,
            };
            return (t, call);
        }
        let Some(&(index, f)) = self.functions.get(name) else {
            self.error(format!("call to unknown function '{name}'"), span);
            // Only a rejected program calls it: a placeholder index.
            let call = r::ExprKind::Call {
                name,
                callee: Callee::Function(u32::MAX),
                args: self.quiet_all(args),
            };
            return (None, call);
        };
        if args.len() != f.params.len() {
            self.error(
                format!(
                    "'{name}' expects {} argument(s), found {}",
                    f.params.len(),
                    args.len()
                ),
                span,
            );
        }
        let mut nodes = Vec::with_capacity(args.len());
        for (i, a) in args.iter().enumerate() {
            let Some(p) = f.params.get(i) else {
                nodes.push(self.quiet(a));
                continue;
            };
            let (at, n) = self.infer_in_context(a, Some(&p.ty));
            if let Some(at) = at {
                if !assignable(&p.ty, &at) {
                    self.error(
                        format!(
                            "argument '{}' of '{name}' expects {}, found {at}",
                            p.name, p.ty
                        ),
                        a.span,
                    );
                }
            }
            nodes.push(coerce(n, &p.ty, Some(&p.name)));
        }
        let call = r::ExprKind::Call {
            name,
            callee: Callee::Function(index),
            args: nodes,
        };
        (Some(f.ret_type.clone()), call)
    }

    /// Types a call of a built-in function the runtime provides; `None`
    /// when an error was reported.
    fn check_builtin_call(
        &mut self,
        builtin: Builtin,
        name: &str,
        args: &'a [Expr],
        span: Span,
    ) -> (Option<Type>, Vec<r::Expr<'a>>) {
        let expected_arity = builtin.arity();
        if args.len() != expected_arity {
            self.error(
                format!(
                    "builtin '{name}' expects {expected_arity} argument(s), found {}",
                    args.len()
                ),
                span,
            );
            return (None, self.quiet_all(args));
        }
        let (arg_types, nodes): (Vec<Option<Type>>, Vec<r::Expr<'a>>) =
            args.iter().map(|a| self.infer(a)).unzip();
        // `range` and the casts take a classical value, `qmin`/`qmax`
        // classical elements: quantum ones are measured.
        let mut nodes = nodes.into_iter();
        let first = nodes.next().map(|n| match builtin {
            Builtin::Range | Builtin::Int | Builtin::Float | Builtin::Bool | Builtin::Str => {
                classical(n)
            }
            Builtin::Qmin | Builtin::Qmax => coerce(n, &Type::Array(Box::new(Type::Int)), None),
            _ => n,
        });
        let nodes: Vec<r::Expr<'a>> = first.into_iter().chain(nodes).collect();
        let t = match builtin {
            Builtin::Len => {
                if let Some(Some(t)) = arg_types.first() {
                    if !matches!(
                        t,
                        Type::Array(_) | Type::String | Type::Qustring | Type::Quint | Type::Qubit
                    ) {
                        self.error(format!("len() is not defined for {t}"), args[0].span);
                        return (None, nodes);
                    }
                }
                Type::Int
            }
            Builtin::Width => {
                if let Some(Some(t)) = arg_types.first() {
                    if !t.is_quantum() {
                        self.error(
                            format!("width() needs a quantum value, found {t}"),
                            args[0].span,
                        );
                        return (None, nodes);
                    }
                }
                Type::Int
            }
            Builtin::Range => {
                if let Some(Some(t)) = arg_types.first() {
                    if !matches!(t, Type::Int | Type::Quint) {
                        self.error(format!("range() needs an int, found {t}"), args[0].span);
                        return (None, nodes);
                    }
                }
                Type::Array(Box::new(Type::Int))
            }
            Builtin::Int => Type::Int,
            Builtin::Float => Type::Float,
            Builtin::Bool => Type::Bool,
            Builtin::Str => Type::String,
            Builtin::Qmin | Builtin::Qmax => {
                if let Some(Some(t)) = arg_types.first() {
                    if !matches!(t, Type::Array(inner) if matches!(**inner, Type::Int | Type::Quint))
                    {
                        self.error(
                            format!("{name}() needs an int array, found {t}"),
                            args[0].span,
                        );
                        return (None, nodes);
                    }
                }
                Type::Int
            }
            Builtin::Rotl | Builtin::Rotr => {
                if let Some(Some(t)) = arg_types.first() {
                    if !matches!(t, Type::Quint | Type::Qustring) {
                        self.error(
                            format!("{name}() rotates quint/qustring registers, found {t}"),
                            args[0].span,
                        );
                        return (None, nodes);
                    }
                }
                if let Some(Some(t)) = arg_types.get(1) {
                    if !matches!(t, Type::Int) {
                        self.error(
                            format!("{name}() needs an int amount, found {t}"),
                            args[1].span,
                        );
                        return (None, nodes);
                    }
                }
                Type::Void
            }
        };
        (Some(t), nodes)
    }

    fn infer_binary(&mut self, op: BinOp, lt: Type, rt: Type, span: Span) -> Option<Type> {
        use BinOp::*;
        let result = match op {
            Add => match (&lt, &rt) {
                (Type::Quint, Type::Quint | Type::Int | Type::Bool) => Type::Quint,
                (Type::Int | Type::Bool, Type::Quint) => Type::Quint,
                (Type::String, Type::String) => Type::String,
                (Type::Int, Type::Int) => Type::Int,
                (Type::Int | Type::Float, Type::Int | Type::Float) => Type::Float,
                _ => return self.binary_type_error(op, &lt, &rt, span),
            },
            Sub => match (&lt, &rt) {
                (Type::Quint, Type::Quint | Type::Int) => Type::Quint,
                (Type::Int, Type::Int) => Type::Int,
                (Type::Int | Type::Float, Type::Int | Type::Float) => Type::Float,
                _ => return self.binary_type_error(op, &lt, &rt, span),
            },
            Mul => match (&lt, &rt) {
                // Quantum multiplication (paper §6 extension): a fresh
                // 2n-qubit product register via the shift-and-add circuit.
                (Type::Quint, Type::Quint | Type::Int | Type::Bool) => Type::Quint,
                (Type::Int | Type::Bool, Type::Quint) => Type::Quint,
                (Type::Int, Type::Int) => Type::Int,
                (Type::Int | Type::Float, Type::Int | Type::Float) => Type::Float,
                _ => return self.binary_type_error(op, &lt, &rt, span),
            },
            Div | Mod => {
                // Quantum division remains future work; quints are
                // auto-measured to ints here.
                let cl = measured(&lt).unwrap_or(lt.clone());
                let cr = measured(&rt).unwrap_or(rt.clone());
                match (&cl, &cr) {
                    (Type::Int, Type::Int) => Type::Int,
                    (Type::Int | Type::Float, Type::Int | Type::Float) if op != Mod => Type::Float,
                    _ => return self.binary_type_error(op, &lt, &rt, span),
                }
            }
            Shl | Shr => match (&lt, &rt) {
                (Type::Quint | Type::Qustring, Type::Int) => lt.clone(),
                (Type::Int, Type::Int) => Type::Int,
                _ => return self.binary_type_error(op, &lt, &rt, span),
            },
            Eq | Ne | Lt | Le | Gt | Ge => {
                let cl = measured(&lt).unwrap_or(lt.clone());
                let cr = measured(&rt).unwrap_or(rt.clone());
                let comparable = matches!(
                    (&cl, &cr),
                    (Type::Int | Type::Float, Type::Int | Type::Float)
                        | (Type::Bool, Type::Bool)
                        | (Type::String, Type::String)
                );
                if !comparable {
                    return self.binary_type_error(op, &lt, &rt, span);
                }
                if matches!(op, Lt | Le | Gt | Ge) && matches!((&cl, &cr), (Type::Bool, Type::Bool))
                {
                    return self.binary_type_error(op, &lt, &rt, span);
                }
                Type::Bool
            }
            And | Or => {
                let ok = |t: &Type| matches!(t, Type::Bool | Type::Qubit);
                if !ok(&lt) || !ok(&rt) {
                    return self.binary_type_error(op, &lt, &rt, span);
                }
                Type::Bool
            }
            In => {
                let pat_ok = matches!(lt, Type::String | Type::Qustring);
                let hay_ok = matches!(rt, Type::String | Type::Qustring);
                if !pat_ok || !hay_ok {
                    return self.binary_type_error(op, &lt, &rt, span);
                }
                Type::Bool
            }
        };
        Some(result)
    }

    fn binary_type_error(&mut self, op: BinOp, lt: &Type, rt: &Type, span: Span) -> Option<Type> {
        self.error(
            format!("operator '{op}' is not defined for {lt} and {rt}"),
            span,
        );
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qutes_frontend::parse;

    fn errs(src: &str) -> Vec<String> {
        let p = parse(src).expect("parse");
        check_program(&p).into_iter().map(|d| d.message).collect()
    }

    fn ok(src: &str) {
        let e = errs(src);
        assert!(e.is_empty(), "expected no errors, got {e:?}");
    }

    #[test]
    fn accepts_well_typed_programs() {
        ok("int x = 1; float y = x; bool b = x == 1;");
        ok("qubit q = |+>; hadamard q; bool b = q;");
        ok("quint n = 5q; quint m = n + 3; int c = n;");
        ok("qustring s = \"0101\"q; bool f = \"01\"q in s;");
        ok("quint n = [1, 2, 3]q; n <<= 1;");
        ok("qubit a = [0.6, 0.8]q;");
        ok("int[] xs = [1, 2]; foreach v in xs { print v; }");
        ok("int add(int a, int b) { return a + b; } print add(1, 2);");
        ok("quint n = 2q; if (n > 1) { print 1; }");
    }

    #[test]
    fn rejects_undeclared_and_duplicates() {
        assert!(errs("print x;")[0].contains("undeclared"));
        assert!(errs("int x = 1; int x = 2;")[0].contains("already declared"));
        assert!(errs("x = 3;")[0].contains("undeclared"));
    }

    #[test]
    fn rejects_bad_declarations() {
        assert!(errs("int x = \"hi\";")[0].contains("cannot initialise"));
        assert!(errs("qubit q = \"01\"q;")[0].contains("cannot initialise"));
        assert!(errs("int f(void x) { return 1; }")[0].contains("void"));
    }

    #[test]
    fn promotion_and_measurement_are_allowed() {
        ok("quint n = 5; int back = n;");
        ok("qubit q = true; bool b = q;");
        ok("qustring s = \"01\"; string t = s;");
    }

    #[test]
    fn gate_operand_rules() {
        assert!(errs("int x = 1; hadamard x;")[0].contains("quantum operand"));
        ok("quint n = 1q; pauliz n;");
        assert!(errs("qubit q = 0q; phase(q, \"x\");")[0].contains("numeric"));
        assert!(errs("qubit q = 0q; cnot q, 3;")[0].contains("quantum operand"));
    }

    #[test]
    fn operator_rules() {
        assert!(errs("bool b = true + false;")[0].contains("not defined"));
        assert!(errs("string s = \"a\" - \"b\";")[0].contains("not defined"));
        assert!(errs("int x = 1 < true;")[0].contains("not defined"));
        ok("float f = 1 / 2;");
        ok("int m = 7 % 3;");
        assert!(errs("float f = 1.5 % 2.0;")[0].contains("not defined"));
    }

    #[test]
    fn in_operator_rules() {
        ok("qustring s = \"0101\"q; bool b = \"01\" in s;");
        ok("string s = \"abc\"; bool b = \"b\" in s;");
        assert!(errs("int x = 1; bool b = 1 in x;")[0].contains("not defined"));
    }

    #[test]
    fn function_rules() {
        assert!(errs("int f() { return 1; } int f() { return 2; }")[0].contains("more than once"));
        assert!(errs("print g(1);")[0].contains("unknown function"));
        assert!(errs("int f(int a) { return a; } print f();")[0].contains("expects 1"));
        assert!(errs("int f(int a) { return a; } print f(\"x\");")[0].contains("expects int"));
        assert!(errs("int f() { return \"x\"; }")[0].contains("return type mismatch"));
        assert!(errs("void f() { return 1; }")[0].contains("cannot return"));
        assert!(errs("return 1;")[0].contains("outside"));
        assert!(errs("int f() { return; }")[0].contains("must return"));
    }

    #[test]
    fn condition_rules() {
        ok("qubit q = |+>; if (q) { }");
        assert!(errs("string s = \"x\"; if (s) { }")[0].contains("condition"));
        ok("while (false) { }");
    }

    #[test]
    fn foreach_rules() {
        assert!(errs("int x = 1; foreach v in x { }")[0].contains("array"));
        ok("qustring s = \"01\"q; foreach c in s { hadamard c; }");
    }

    #[test]
    fn quantum_array_literal_rules() {
        assert!(errs("qubit q = [0.1, 0.2, 0.3]q;")[0].contains("exactly two"));
        assert!(errs("quint n = [true]q;")[0].contains("numeric"));
        ok("quint n = [0, 7]q;");
    }

    #[test]
    fn compound_assignment_rules() {
        ok("quint n = 1q; n += 2; n -= 1q; n <<= 1; n >>= 2;");
        ok("int i = 0; i += 1;");
        ok("string s = \"a\"; s += \"b\";");
        assert!(errs("bool b = true; b += false;")[0].contains("not defined"));
        assert!(errs("quint n = 1q; n <<= 1.5;")[0].contains("int shift"));
    }

    #[test]
    fn measure_rules() {
        ok("quint n = 3q; measure n; int x = measure n;");
        assert!(errs("int x = 1; measure x;")[0].contains("quantum"));
        assert!(errs("int x = 1; int y = measure x;")[0].contains("quantum"));
    }

    #[test]
    fn shadowing_in_blocks() {
        ok("int x = 1; { int x = 2; print x; } print x;");
        assert!(errs("int x = 1; { int x = 2; int x = 3; }")[0].contains("already declared"));
    }

    #[test]
    fn indexing_rules() {
        ok("int[] a = [1, 2]; int x = a[0]; a[1] = 5;");
        ok("qustring s = \"010\"q; hadamard s[1];");
        assert!(errs("int x = 1; int y = x[0];")[0].contains("cannot index"));
        assert!(errs("int[] a = [1]; int x = a[\"no\"];")[0].contains("index must be int"));
    }
}
