//! Static type checking for Qutes programs (paper §4, "Type System in
//! Qutes").
//!
//! The checker walks the AST with a scoped type environment and enforces:
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

use qutes_frontend::ast::*;
use qutes_frontend::{Diagnostic, Span};
use std::collections::HashMap;

/// Checks a whole program; returns every diagnostic found (empty = ok).
pub fn check_program(p: &Program) -> Vec<Diagnostic> {
    let mut cx = Checker::default();
    // Pass 1: register function signatures (use before declaration is
    // fine at the top level).
    for item in &p.items {
        if let Item::Function(f) = item {
            if cx.functions.contains_key(&f.name) {
                cx.diags.push(Diagnostic::error(
                    format!("function '{}' is declared more than once", f.name),
                    f.span,
                ));
            } else {
                cx.functions.insert(f.name.clone(), f.clone());
            }
        }
    }
    // Pass 2: check bodies and top-level statements.
    for item in &p.items {
        match item {
            Item::Function(f) => cx.check_function(f),
            Item::Statement(s) => cx.check_stmt(s),
        }
    }
    cx.diags
}

#[derive(Default)]
struct Checker {
    scopes: Vec<HashMap<String, Type>>,
    functions: HashMap<String, FunctionDecl>,
    current_ret: Option<Type>,
    diags: Vec<Diagnostic>,
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

/// Can a value of `src` be stored into a slot of type `dst`?
/// Covers identity, numeric widening, promotion, and auto-measurement.
pub fn assignable(dst: &Type, src: &Type) -> bool {
    if dst == src {
        return true;
    }
    match (dst, src) {
        (Type::Float, Type::Int) => true,
        // promotion (classical -> quantum)
        (Type::Qubit, Type::Bool | Type::Int) => true,
        (Type::Quint, Type::Int | Type::Bool) => true,
        (Type::Qustring, Type::String) => true,
        // auto-measure (quantum -> classical)
        (Type::Bool, Type::Qubit) => true,
        (Type::Int, Type::Quint) => true,
        (Type::Float, Type::Quint) => true,
        (Type::String, Type::Qustring) => true,
        (Type::Array(d), Type::Array(s)) => assignable(d, s),
        _ => false,
    }
}

impl Checker {
    fn error(&mut self, message: impl Into<String>, span: Span) {
        self.diags.push(Diagnostic::error(message, span));
    }

    fn push(&mut self) {
        self.scopes.push(HashMap::new());
    }

    fn pop(&mut self) {
        self.scopes.pop();
    }

    fn declare(&mut self, name: &str, ty: Type, span: Span) {
        if self.scopes.is_empty() {
            self.push();
        }
        let last = self.scopes.len() - 1;
        let scope = &mut self.scopes[last];
        if scope.contains_key(name) {
            self.diags.push(Diagnostic::error(
                format!("variable '{name}' is already declared in this scope"),
                span,
            ));
        } else {
            scope.insert(name.to_string(), ty);
        }
    }

    fn lookup(&self, name: &str) -> Option<&Type> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    fn check_function(&mut self, f: &FunctionDecl) {
        self.push();
        for p in &f.params {
            if p.ty == Type::Void {
                self.error("parameters cannot have type void", p.span);
            }
            self.declare(&p.name, p.ty.clone(), p.span);
        }
        let saved = self.current_ret.replace(f.ret_type.clone());
        for s in &f.body.stmts {
            self.check_stmt(s);
        }
        self.current_ret = saved;
        self.pop();
    }

    fn check_block(&mut self, b: &Block) {
        self.push();
        for s in &b.stmts {
            self.check_stmt(s);
        }
        self.pop();
    }

    fn check_condition(&mut self, cond: &Expr) {
        if let Some(t) = self.infer(cond) {
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
    }

    fn check_stmt(&mut self, s: &Stmt) {
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
                if let Some(init) = init {
                    if let Some(src) = self.infer_in_context(init, Some(ty)) {
                        if !assignable(ty, &src) {
                            self.error(
                                format!(
                                    "cannot initialise '{name}' of type {ty} with a {src} value"
                                ),
                                init.span,
                            );
                        }
                    }
                }
                self.declare(name, ty.clone(), *span);
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
                ..
            } => {
                self.check_condition(cond);
                self.check_block(then_block);
                if let Some(eb) = else_block {
                    self.check_block(eb);
                }
            }
            Stmt::While { cond, body, .. } => {
                self.check_condition(cond);
                self.check_block(body);
            }
            Stmt::Foreach {
                var,
                iterable,
                body,
                span,
            } => {
                let elem = match self.infer(iterable) {
                    Some(Type::Array(t)) => Some(*t),
                    Some(Type::Qustring) => Some(Type::Qubit),
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
                if let Some(t) = elem {
                    self.declare(var, t, *span);
                }
                for st in &body.stmts {
                    self.check_stmt(st);
                }
                self.pop();
            }
            Stmt::Return { value, span } => {
                let Some(expected) = self.current_ret.clone() else {
                    self.error("return outside of a function", *span);
                    return;
                };
                match (value, expected) {
                    (None, Type::Void) => {}
                    (None, other) => {
                        self.error(format!("function must return a {other} value"), *span);
                    }
                    (Some(v), Type::Void) => {
                        self.error("void function cannot return a value", v.span);
                    }
                    (Some(v), expected) => {
                        if let Some(actual) = self.infer(v) {
                            if !assignable(&expected, &actual) {
                                self.error(
                                    format!(
                                        "return type mismatch: expected {expected}, found {actual}"
                                    ),
                                    v.span,
                                );
                            }
                        }
                    }
                }
            }
            Stmt::Print { value, .. } => {
                let _ = self.infer(value);
            }
            Stmt::Expr { expr, .. } => {
                let _ = self.infer(expr);
            }
            Stmt::Gate { gate, args, span } => self.check_gate(*gate, args, *span),
            Stmt::Measure { target, .. } => {
                if let Some(t) = self.infer(target) {
                    if !t.is_quantum() {
                        self.error(
                            format!("measure expects a quantum value, found {t}"),
                            target.span,
                        );
                    }
                }
            }
            Stmt::Barrier { .. } => {}
            Stmt::Block(b) => self.check_block(b),
        }
    }

    fn check_assign(&mut self, target: &LValue, op: AssignOp, value: &Expr, span: Span) {
        let target_ty = match target {
            LValue::Name(name) => match self.lookup(name) {
                Some(t) => t.clone(),
                None => {
                    self.error(format!("assignment to undeclared variable '{name}'"), span);
                    return;
                }
            },
            LValue::Index(name, idx) => {
                if let Some(it) = self.infer(idx) {
                    if !matches!(it, Type::Int | Type::Quint) {
                        self.error(format!("array index must be int, found {it}"), idx.span);
                    }
                }
                match self.lookup(name).cloned() {
                    Some(Type::Array(t)) => *t,
                    Some(other) => {
                        self.error(format!("cannot index into {other}"), span);
                        return;
                    }
                    None => {
                        self.error(format!("assignment to undeclared variable '{name}'"), span);
                        return;
                    }
                }
            }
        };
        let Some(value_ty) = self.infer_in_context(value, Some(&target_ty)) else {
            return;
        };
        match op {
            AssignOp::Set => {
                if !assignable(&target_ty, &value_ty) {
                    self.error(
                        format!("cannot assign a {value_ty} value to a {target_ty} target"),
                        span,
                    );
                }
            }
            AssignOp::Add | AssignOp::Sub => {
                let ok = match &target_ty {
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

    fn check_gate(&mut self, gate: GateKind, args: &[Expr], span: Span) {
        let quantum_arg = |cx: &mut Self, e: &Expr| {
            if let Some(t) = cx.infer(e) {
                if !t.is_quantum() {
                    cx.error(
                        format!("'{}' needs a quantum operand, found {t}", gate.name()),
                        e.span,
                    );
                }
            }
        };
        match gate {
            GateKind::Hadamard | GateKind::NotGate | GateKind::PauliY | GateKind::PauliZ => {
                // `not` doubles as logical NOT statement? No: statement
                // form is only the gate; classical negation is `!`.
                quantum_arg(self, &args[0]);
            }
            GateKind::Phase => {
                quantum_arg(self, &args[0]);
                if let Some(t) = self.infer(&args[1]) {
                    if !matches!(t, Type::Int | Type::Float) {
                        self.error(
                            format!("phase angle must be numeric, found {t}"),
                            args[1].span,
                        );
                    }
                }
            }
            GateKind::CNot => {
                quantum_arg(self, &args[0]);
                quantum_arg(self, &args[1]);
                let _ = span;
            }
        }
    }

    /// Infers an expression's type; `None` means an error was already
    /// reported somewhere inside.
    fn infer(&mut self, e: &Expr) -> Option<Type> {
        self.infer_in_context(e, None)
    }

    /// Context-aware inference: quantum array literals type differently
    /// under a `qubit` target (amplitude pair) than under `quint`.
    fn infer_in_context(&mut self, e: &Expr, target: Option<&Type>) -> Option<Type> {
        let t = match &e.kind {
            ExprKind::Int(_) => Type::Int,
            ExprKind::Float(_) => Type::Float,
            ExprKind::Bool(_) => Type::Bool,
            ExprKind::Str(_) => Type::String,
            ExprKind::Quint(v) => {
                // `0q`/`1q` under a qubit target are basis-qubit literals.
                if *v <= 1 && matches!(target, Some(Type::Qubit)) {
                    Type::Qubit
                } else {
                    Type::Quint
                }
            }
            ExprKind::Qustring(_) => Type::Qustring,
            ExprKind::Ket(_) => Type::Qubit,
            ExprKind::Pi => Type::Float,
            ExprKind::Array(elems) => {
                let elem_target = match target {
                    Some(Type::Array(t)) => Some((**t).clone()),
                    _ => None,
                };
                let mut elem_ty: Option<Type> = elem_target.clone();
                for el in elems {
                    let t = self.infer_in_context(el, elem_target.as_ref())?;
                    match &elem_ty {
                        None => elem_ty = Some(t),
                        Some(prev) => {
                            if !assignable(prev, &t) && !assignable(&t, prev) {
                                self.error(
                                    format!(
                                        "array elements must share a type: found {prev} and {t}"
                                    ),
                                    el.span,
                                );
                                return None;
                            }
                        }
                    }
                }
                Type::Array(Box::new(elem_ty.unwrap_or(Type::Int)))
            }
            ExprKind::QuantumArray(elems) => {
                // Float elements -> single-qubit amplitude pair;
                // int elements -> quint superposition of values.
                let mut saw_float = false;
                for el in elems {
                    match self.infer(el)? {
                        Type::Float => saw_float = true,
                        Type::Int => {}
                        other => {
                            self.error(
                                format!(
                                    "quantum array literals take numeric entries, found {other}"
                                ),
                                el.span,
                            );
                            return None;
                        }
                    }
                }
                if saw_float || matches!(target, Some(Type::Qubit)) {
                    if elems.len() != 2 {
                        self.error(
                            "a qubit amplitude literal needs exactly two entries [a, b]",
                            e.span,
                        );
                        return None;
                    }
                    Type::Qubit
                } else {
                    Type::Quint
                }
            }
            ExprKind::Var(name) => match self.lookup(name) {
                Some(t) => t.clone(),
                None => {
                    self.error(format!("use of undeclared variable '{name}'"), e.span);
                    return None;
                }
            },
            ExprKind::Index(base, idx) => {
                if let Some(it) = self.infer(idx) {
                    if !matches!(it, Type::Int | Type::Quint) {
                        self.error(format!("index must be int, found {it}"), idx.span);
                    }
                }
                match self.infer(base)? {
                    Type::Array(t) => *t,
                    Type::Qustring => Type::Qubit,
                    Type::String => Type::String,
                    Type::Quint => Type::Qubit,
                    other => {
                        self.error(format!("cannot index into {other}"), base.span);
                        return None;
                    }
                }
            }
            ExprKind::Unary(op, inner) => {
                let t = self.infer(inner)?;
                match op {
                    UnOp::Neg => match t {
                        Type::Int | Type::Float => t,
                        Type::Quint => Type::Int, // auto-measure then negate
                        other => {
                            self.error(format!("cannot negate {other}"), inner.span);
                            return None;
                        }
                    },
                    UnOp::Not => match t {
                        Type::Bool | Type::Qubit => Type::Bool,
                        other => {
                            self.error(format!("'!' needs bool, found {other}"), inner.span);
                            return None;
                        }
                    },
                }
            }
            ExprKind::Binary(op, l, r) => return self.infer_binary(*op, l, r, e.span),
            ExprKind::Call(name, args) => {
                if let Some(t) = self.check_builtin_call(name, args, e.span) {
                    return t;
                }
                let Some(f) = self.functions.get(name).cloned() else {
                    self.error(format!("call to unknown function '{name}'"), e.span);
                    return None;
                };
                if args.len() != f.params.len() {
                    self.error(
                        format!(
                            "'{name}' expects {} argument(s), found {}",
                            f.params.len(),
                            args.len()
                        ),
                        e.span,
                    );
                }
                for (a, p) in args.iter().zip(&f.params) {
                    if let Some(at) = self.infer_in_context(a, Some(&p.ty)) {
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
                }
                f.ret_type.clone()
            }
            ExprKind::MeasureExpr(inner) => {
                let t = self.infer(inner)?;
                match measured(&t) {
                    Some(c) => c,
                    None => {
                        self.error(
                            format!("measure expects a quantum value, found {t}"),
                            inner.span,
                        );
                        return None;
                    }
                }
            }
        };
        Some(t)
    }

    /// Types the built-in functions the runtime provides. Returns
    /// `Some(result)` when `name` is a builtin (the outer `Option` layer),
    /// where `result` itself is `None` when an error was reported.
    #[allow(clippy::option_option)]
    fn check_builtin_call(
        &mut self,
        name: &str,
        args: &[Expr],
        span: Span,
    ) -> Option<Option<Type>> {
        let expected_arity = match name {
            "len" | "width" | "range" | "int" | "float" | "bool" | "str" | "qmin" | "qmax" => 1,
            "rotl" | "rotr" => 2,
            _ => return None,
        };
        if args.len() != expected_arity {
            self.error(
                format!(
                    "builtin '{name}' expects {expected_arity} argument(s), found {}",
                    args.len()
                ),
                span,
            );
            return Some(None);
        }
        let arg_types: Vec<Option<Type>> = args.iter().map(|a| self.infer(a)).collect();
        let t = match name {
            "len" => {
                if let Some(Some(t)) = arg_types.first() {
                    if !matches!(
                        t,
                        Type::Array(_) | Type::String | Type::Qustring | Type::Quint | Type::Qubit
                    ) {
                        self.error(format!("len() is not defined for {t}"), args[0].span);
                        return Some(None);
                    }
                }
                Type::Int
            }
            "width" => {
                if let Some(Some(t)) = arg_types.first() {
                    if !t.is_quantum() {
                        self.error(
                            format!("width() needs a quantum value, found {t}"),
                            args[0].span,
                        );
                        return Some(None);
                    }
                }
                Type::Int
            }
            "range" => {
                if let Some(Some(t)) = arg_types.first() {
                    if !matches!(t, Type::Int | Type::Quint) {
                        self.error(format!("range() needs an int, found {t}"), args[0].span);
                        return Some(None);
                    }
                }
                Type::Array(Box::new(Type::Int))
            }
            "int" => Type::Int,
            "float" => Type::Float,
            "bool" => Type::Bool,
            "str" => Type::String,
            "qmin" | "qmax" => {
                if let Some(Some(t)) = arg_types.first() {
                    if !matches!(t, Type::Array(inner) if matches!(**inner, Type::Int | Type::Quint))
                    {
                        self.error(
                            format!("{name}() needs an int array, found {t}"),
                            args[0].span,
                        );
                        return Some(None);
                    }
                }
                Type::Int
            }
            "rotl" | "rotr" => {
                if let Some(Some(t)) = arg_types.first() {
                    if !matches!(t, Type::Quint | Type::Qustring) {
                        self.error(
                            format!("{name}() rotates quint/qustring registers, found {t}"),
                            args[0].span,
                        );
                        return Some(None);
                    }
                }
                if let Some(Some(t)) = arg_types.get(1) {
                    if !matches!(t, Type::Int) {
                        self.error(
                            format!("{name}() needs an int amount, found {t}"),
                            args[1].span,
                        );
                        return Some(None);
                    }
                }
                Type::Void
            }
            _ => unreachable!(),
        };
        Some(Some(t))
    }

    fn infer_binary(&mut self, op: BinOp, l: &Expr, r: &Expr, span: Span) -> Option<Type> {
        let lt = self.infer(l)?;
        let rt = self.infer(r)?;
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
