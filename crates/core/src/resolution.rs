//! The resolved program: the type checker's second product.
//!
//! The paper's Qutes walks the AST twice: a symbol pass that makes each
//! `Symbol` with its type and scope, then an operation pass. Here the
//! checker ([`crate::types::resolve`]) is the symbol pass. While it
//! walks every scope it binds each name once, and it emits this tree:
//! the program's statements and expressions with every variable use,
//! declaration and assignment target replaced by a [`Var`] (a frame slot
//! or a global slot, plus the static type) and every call site by a
//! [`Callee`]. The interpreter ([`crate::runtime`]) runs on this tree
//! over frames indexed by slot; it never looks a name up.
//!
//! Frames: each function call gets a frame of [`Function::slots`]
//! slots for its parameters, `foreach` variables and block locals. The
//! top-level statements run in the main frame ([`Resolution::main_slots`]
//! slots for the locals of top-level blocks). Every top-level
//! declaration is a global, one slot per name ([`Resolution::globals`]);
//! a function body sees the globals and its own frame, nothing else.
//!
//! Resolution is lexical, and it gives the scoping a lookup in the
//! scopes live at run time would give: a global slot stays empty until
//! its declaration runs, so reading it earlier (say, in a function
//! called before a global it reads is declared) fails at run time with
//! "use of undeclared variable". The resolver never rejects a program: a
//! name it cannot bind becomes [`Loc::Unresolved`], which fails when
//! (and only when) it is evaluated. So a `skip_typecheck` run, which
//! executes a program the checker rejects, fails only where a run-time
//! lookup would.

use qutes_frontend::ast::{AssignOp, BinOp, FunctionDecl, GateKind, Type, UnOp};
use qutes_frontend::{Diagnostic, KetState, Span};

/// A whole program, resolved.
#[derive(Debug)]
pub struct Resolution<'a> {
    /// Top-level statements, in source order.
    pub main: Vec<Stmt<'a>>,
    /// Slots in the main frame (locals of top-level blocks).
    pub main_slots: usize,
    /// Number of global slots: one per distinct top-level variable name.
    pub globals: usize,
    /// Every function declaration, in source order.
    pub functions: Vec<Function<'a>>,
    /// "declared more than once" errors for repeated function names; a
    /// run refuses to start while there are any.
    pub duplicate_functions: Vec<Diagnostic>,
}

/// One resolved function.
#[derive(Debug)]
pub struct Function<'a> {
    /// The declaration (name, parameter types, return type, span).
    pub decl: &'a FunctionDecl,
    /// The frame slot each parameter binds, in parameter order. Two
    /// parameters with the same name share a slot; the later one wins.
    pub params: Vec<u32>,
    /// Frame size.
    pub slots: usize,
    /// The body's statements.
    pub body: Vec<Stmt<'a>>,
}

/// Where a variable lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Loc {
    /// A slot of the running frame.
    Local(u32),
    /// A global slot.
    Global(u32),
    /// No declaration binds the name here; evaluating it is an error.
    Unresolved,
}

/// A variable's static type.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum VarType<'a> {
    /// The declared type of the variable or parameter.
    Declared(&'a Type),
    /// A `foreach` variable: it takes the runtime type of the element
    /// it is bound to, on each iteration.
    Loop,
}

/// A resolved variable reference.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Var<'a> {
    /// The source name (for messages and register names).
    pub name: &'a str,
    /// Its slot.
    pub at: Loc,
    /// Its type.
    pub ty: VarType<'a>,
}

/// Where a declaration stores its value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeclSlot {
    /// A frame slot.
    Local(u32),
    /// A global slot; declaring it twice is an error at run time.
    Global(u32),
    /// The innermost scope already declares the name: the declaration
    /// fails after evaluating its initialiser.
    Duplicate,
}

/// An assignment target.
#[derive(Debug)]
pub enum Place<'a> {
    /// A variable.
    Var(Var<'a>),
    /// One element of an array variable.
    Index(Var<'a>, Expr<'a>),
}

/// A resolved statement. Blocks carry no scope of their own: their
/// locals already have slots.
#[derive(Debug)]
pub enum Stmt<'a> {
    /// `type name = init;`
    Decl {
        /// Declared type.
        ty: &'a Type,
        /// Variable name (also the name of a promoted register).
        name: &'a str,
        /// Where the value goes.
        slot: DeclSlot,
        /// Optional initialiser.
        init: Option<Expr<'a>>,
        /// Statement span.
        span: Span,
    },
    /// `target op value;`
    Assign {
        /// Target.
        target: Place<'a>,
        /// Operator.
        op: AssignOp,
        /// Right-hand side.
        value: Expr<'a>,
        /// Statement span.
        span: Span,
    },
    /// `if (cond) {..} else {..}`
    If {
        /// Condition.
        cond: Expr<'a>,
        /// Then branch.
        then_block: Vec<Stmt<'a>>,
        /// Else branch.
        else_block: Option<Vec<Stmt<'a>>>,
        /// Statement span.
        span: Span,
    },
    /// `while (cond) {..}`
    While {
        /// Condition.
        cond: Expr<'a>,
        /// Body.
        body: Vec<Stmt<'a>>,
        /// Statement span.
        span: Span,
    },
    /// `foreach var in iterable {..}`
    Foreach {
        /// The loop variable's frame slot.
        var: u32,
        /// Iterated value.
        iterable: Expr<'a>,
        /// Body.
        body: Vec<Stmt<'a>>,
        /// Statement span.
        span: Span,
    },
    /// `return expr?;`
    Return {
        /// Returned value.
        value: Option<Expr<'a>>,
        /// Statement span.
        span: Span,
    },
    /// `print expr;`
    Print {
        /// Printed value.
        value: Expr<'a>,
        /// Statement span.
        span: Span,
    },
    /// A bare expression.
    Expr {
        /// The expression.
        expr: Expr<'a>,
        /// Statement span.
        span: Span,
    },
    /// A gate statement.
    Gate {
        /// Which gate.
        gate: GateKind,
        /// Operands (and `phase`'s angle).
        args: Vec<Expr<'a>>,
        /// Statement span.
        span: Span,
    },
    /// `measure expr;`
    Measure {
        /// Measured value.
        target: Expr<'a>,
        /// Statement span.
        span: Span,
    },
    /// `barrier;`
    Barrier {
        /// Statement span.
        span: Span,
    },
    /// A nested block.
    Block {
        /// Its statements.
        stmts: Vec<Stmt<'a>>,
        /// Block span.
        span: Span,
    },
}

impl Stmt<'_> {
    /// Span of any statement.
    pub fn span(&self) -> Span {
        match self {
            Stmt::Decl { span, .. }
            | Stmt::Assign { span, .. }
            | Stmt::If { span, .. }
            | Stmt::While { span, .. }
            | Stmt::Foreach { span, .. }
            | Stmt::Return { span, .. }
            | Stmt::Print { span, .. }
            | Stmt::Expr { span, .. }
            | Stmt::Gate { span, .. }
            | Stmt::Measure { span, .. }
            | Stmt::Barrier { span }
            | Stmt::Block { span, .. } => *span,
        }
    }
}

/// A resolved expression.
#[derive(Debug)]
pub struct Expr<'a> {
    /// What it is.
    pub kind: ExprKind<'a>,
    /// Source span.
    pub span: Span,
}

/// Resolved expression kinds; literals and operators as in the AST.
#[derive(Debug)]
pub enum ExprKind<'a> {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Boolean literal.
    Bool(bool),
    /// String literal.
    Str(&'a str),
    /// `5q`.
    Quint(u64),
    /// `"0101"q`.
    Qustring(&'a str),
    /// `|0>`, `|+>`, ...
    Ket(KetState),
    /// `pi`.
    Pi,
    /// `[a, b, c]`.
    Array(Vec<Expr<'a>>),
    /// `[a, b]q`.
    QuantumArray(Vec<Expr<'a>>),
    /// A variable read.
    Var(Var<'a>),
    /// `var[index]` where evaluating `index` calls no function, so it
    /// cannot reassign `var`: the element is read through a borrow of
    /// the variable instead of a copy of its whole value.
    IndexVar {
        /// The indexed variable.
        var: Var<'a>,
        /// Where the variable is named.
        var_span: Span,
        /// The index.
        index: Box<Expr<'a>>,
    },
    /// `base[index]`.
    Index(Box<Expr<'a>>, Box<Expr<'a>>),
    /// Unary operator.
    Unary(UnOp, Box<Expr<'a>>),
    /// Binary operator.
    Binary(BinOp, Box<Expr<'a>>, Box<Expr<'a>>),
    /// A call.
    Call {
        /// The called name (for messages).
        name: &'a str,
        /// What it calls.
        callee: Callee,
        /// Arguments.
        args: Vec<Expr<'a>>,
    },
    /// `measure expr` as an expression.
    Measure(Box<Expr<'a>>),
}

impl Expr<'_> {
    /// True when evaluating this expression may run a user function
    /// (and so may assign to any variable).
    pub fn calls_function(&self) -> bool {
        match &self.kind {
            ExprKind::Call {
                callee: Callee::Function(_),
                ..
            } => true,
            ExprKind::Call { args, .. } | ExprKind::Array(args) | ExprKind::QuantumArray(args) => {
                args.iter().any(Expr::calls_function)
            }
            ExprKind::IndexVar { index: e, .. } | ExprKind::Unary(_, e) | ExprKind::Measure(e) => {
                e.calls_function()
            }
            ExprKind::Index(a, b) | ExprKind::Binary(_, a, b) => {
                a.calls_function() || b.calls_function()
            }
            ExprKind::Int(_)
            | ExprKind::Float(_)
            | ExprKind::Bool(_)
            | ExprKind::Str(_)
            | ExprKind::Quint(_)
            | ExprKind::Qustring(_)
            | ExprKind::Ket(_)
            | ExprKind::Pi
            | ExprKind::Var(_) => false,
        }
    }
}

/// What a call site calls. Builtins win over user functions of the
/// same name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Callee {
    /// A runtime builtin.
    Builtin(Builtin),
    /// The function at this index of [`Resolution::functions`].
    Function(u32),
    /// No function of that name; calling it is an error.
    Unknown,
}

/// The builtin functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Builtin {
    /// `len(x)`
    Len,
    /// `width(q)`
    Width,
    /// `range(n)`
    Range,
    /// `int(x)`
    Int,
    /// `float(x)`
    Float,
    /// `bool(x)`
    Bool,
    /// `str(x)`
    Str,
    /// `qmin(xs)`
    Qmin,
    /// `qmax(xs)`
    Qmax,
    /// `rotl(q, k)`
    Rotl,
    /// `rotr(q, k)`
    Rotr,
}

impl Builtin {
    /// The builtin called `name`, if any.
    pub fn from_name(name: &str) -> Option<Builtin> {
        Some(match name {
            "len" => Builtin::Len,
            "width" => Builtin::Width,
            "range" => Builtin::Range,
            "int" => Builtin::Int,
            "float" => Builtin::Float,
            "bool" => Builtin::Bool,
            "str" => Builtin::Str,
            "qmin" => Builtin::Qmin,
            "qmax" => Builtin::Qmax,
            "rotl" => Builtin::Rotl,
            "rotr" => Builtin::Rotr,
            _ => return None,
        })
    }

    /// Number of arguments it takes.
    pub fn arity(self) -> usize {
        match self {
            Builtin::Rotl | Builtin::Rotr => 2,
            _ => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::resolve;
    use qutes_frontend::{parse, Program};

    fn program(src: &str) -> Program {
        parse(src).expect("parses")
    }

    /// The variable read by `print <name>;` statement `i` of `stmts`.
    fn printed<'r, 'a>(stmts: &'r [Stmt<'a>], i: usize) -> &'r Var<'a> {
        match &stmts[i] {
            Stmt::Print {
                value:
                    Expr {
                        kind: ExprKind::Var(v),
                        ..
                    },
                ..
            } => v,
            other => panic!("statement {i} is not `print var;`: {other:?}"),
        }
    }

    #[test]
    fn declare_and_lookup() {
        let p = program("int x = 1; print x; print y;");
        let (r, diags) = resolve(&p);
        assert!(matches!(
            r.main[0],
            Stmt::Decl {
                slot: DeclSlot::Global(0),
                ..
            }
        ));
        let x = printed(&r.main, 1);
        assert_eq!(x.at, Loc::Global(0));
        assert_eq!(x.ty, VarType::Declared(&Type::Int));
        assert_eq!(printed(&r.main, 2).at, Loc::Unresolved);
        assert_eq!(r.globals, 1);
        assert!(diags[0].message.contains("undeclared variable 'y'"));
    }

    #[test]
    fn duplicate_in_same_scope_rejected() {
        let p = program("{ int x = 1; int x = 2; }");
        let (r, diags) = resolve(&p);
        let Stmt::Block { stmts, .. } = &r.main[0] else {
            panic!("expected a block");
        };
        assert!(matches!(
            stmts[1],
            Stmt::Decl {
                slot: DeclSlot::Duplicate,
                ..
            }
        ));
        assert!(diags[0].message.contains("already declared"));
    }

    #[test]
    fn shadowing_in_inner_scope() {
        let p = program("int x = 1; { bool x = true; print x; } print x;");
        let (r, diags) = resolve(&p);
        assert!(diags.is_empty(), "{diags:?}");
        let Stmt::Block { stmts, .. } = &r.main[1] else {
            panic!("expected a block");
        };
        let inner = printed(stmts, 1);
        assert_eq!(inner.at, Loc::Local(0));
        assert_eq!(inner.ty, VarType::Declared(&Type::Bool));
        assert_eq!(printed(&r.main, 2).at, Loc::Global(0));
        assert_eq!(r.main_slots, 1);
    }

    #[test]
    fn global_scope_never_popped() {
        // Blocks and function bodies come and go; a function still sees
        // every top-level variable, even one declared after it (which
        // only the checker rejects).
        let p = program("{ int a = 1; } int f() { return g; } int g = 2;");
        let (r, diags) = resolve(&p);
        assert!(diags[0].message.contains("undeclared variable 'g'"));
        let Stmt::Return {
            value:
                Some(Expr {
                    kind: ExprKind::Var(g),
                    ..
                }),
            ..
        } = &r.functions[0].body[0]
        else {
            panic!("expected `return g;`");
        };
        assert_eq!(g.at, Loc::Global(0));
        assert_eq!(r.globals, 1);
    }

    #[test]
    fn cells_are_shared() {
        // A by-reference parameter and a `foreach` variable share their
        // argument's and element's storage.
        let src = "void bump(int n) { n += 1; }\n\
                   int c = 0; bump(c); print c;\n\
                   int[] xs = [1, 2]; foreach v in xs { v = v * 10; } print xs[1];";
        let out = crate::run_source(src, &crate::RunConfig::default()).expect("runs");
        assert_eq!(out.output, ["1", "20"]);
    }

    #[test]
    fn function_table_rejects_duplicates() {
        let p = program("int f() { return 1; }\nint f() { return 2; }");
        let (r, diags) = resolve(&p);
        assert_eq!(r.duplicate_functions.len(), 1);
        assert!(r.duplicate_functions[0].message.contains("more than once"));
        assert_eq!(diags[0].message, r.duplicate_functions[0].message);
        assert_eq!(r.functions.len(), 2);
    }

    #[test]
    fn function_table_lookup() {
        let p = program("int f() { return 1; } print f(); print g(); print len([1]);");
        let (r, _) = resolve(&p);
        let callee = |i: usize| match &r.main[i] {
            Stmt::Print {
                value:
                    Expr {
                        kind: ExprKind::Call { callee, .. },
                        ..
                    },
                ..
            } => *callee,
            other => panic!("not a printed call: {other:?}"),
        };
        assert_eq!(callee(0), Callee::Function(0));
        assert_eq!(callee(1), Callee::Unknown);
        assert_eq!(callee(2), Callee::Builtin(Builtin::Len));
    }
}
