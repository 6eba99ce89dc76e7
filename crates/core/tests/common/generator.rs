//! The seeded generator of small classical Qutes programs, shared by the
//! tests that pin what the toolchain does with them: their run outputs
//! (`crates/core/tests/generated_programs.rs`) and their static estimates
//! and lint reports (`tests/estimate_golden.rs` at the workspace root).
//! Include it with `#[path = ".../common/generator.rs"] mod generator;`.
//!
//! The programs have functions, recursion, globals read from function
//! bodies, by-reference parameters, `foreach` writes through the loop
//! variable, shadowing in nested blocks, early returns from loops,
//! division by zero, and runs that trip `max_steps` or `max_call_depth`.
//! Some are rejected by the type checker on purpose.

use std::fmt::Write as _;

/// SplitMix64: a tiny, fixed generator so the programs never depend on
/// another crate's stream.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn percent(&mut self, p: u64) -> bool {
        self.below(100) < p
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.below(items.len() as u64) as usize])
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Ty {
    Int,
    Bool,
    IntArr,
}

/// A generated function's signature.
struct Func {
    name: String,
    params: Vec<Ty>,
    returns_int: bool,
}

/// Every array the generator makes has this many elements, so constant
/// indices below it are in bounds.
const ARR_LEN: u64 = 3;

struct Gen {
    rng: SplitMix,
    /// Visible variables, innermost scope last.
    scopes: Vec<Vec<(String, Ty)>>,
    /// Functions callable from the code being generated.
    funcs: Vec<Func>,
    fresh: u32,
    /// Inside a function body: whether it returns an int (`return`
    /// is allowed in either).
    in_function: Option<bool>,
}

impl Gen {
    fn name(&mut self, prefix: &str) -> String {
        self.fresh += 1;
        format!("{prefix}{}", self.fresh)
    }

    fn vars(&self, ty: Ty) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for scope in &self.scopes {
            for (n, t) in scope {
                if *t == ty && !out.contains(n) {
                    out.push(n.clone());
                }
            }
        }
        out
    }

    fn declare(&mut self, name: &str, ty: Ty) {
        if let Some(scope) = self.scopes.last_mut() {
            scope.push((name.to_string(), ty));
        }
    }

    fn int_expr(&mut self, depth: u32) -> String {
        let choices = if depth == 0 { 4 } else { 9 };
        match self.rng.below(choices) {
            0 => format!("{}", self.rng.below(25) as i64 - 5),
            1 | 2 => match self.rng.pick(&self.vars(Ty::Int)).cloned() {
                Some(v) => v,
                None => format!("{}", self.rng.below(9)),
            },
            3 => match self.rng.pick(&self.vars(Ty::IntArr)).cloned() {
                Some(a) => format!("{a}[{}]", self.rng.below(ARR_LEN)),
                None => "7".to_string(),
            },
            4 => {
                let callable: Vec<usize> = (0..self.funcs.len())
                    .filter(|&i| self.funcs[i].returns_int)
                    .collect();
                match self.rng.pick(&callable).copied() {
                    Some(i) => self.call(i, depth - 1),
                    None => format!("{}", self.rng.below(9)),
                }
            }
            5 | 6 => {
                let op = ["+", "-", "*"][self.rng.below(3) as usize];
                format!(
                    "({} {op} {})",
                    self.int_expr(depth - 1),
                    self.int_expr(depth - 1)
                )
            }
            7 => {
                let l = self.int_expr(depth - 1);
                if self.rng.percent(4) {
                    // Division by zero, spelled so the checker accepts it.
                    let z = self.int_expr(0);
                    format!("({l} / ({z} - {z}))")
                } else {
                    // `%` keeps the result an int.
                    format!("({l} % {})", self.rng.below(6) + 1)
                }
            }
            _ => match self.rng.pick(&self.vars(Ty::IntArr)).cloned() {
                Some(a) => format!("len({a})"),
                None => self.int_expr(depth - 1),
            },
        }
    }

    fn bool_expr(&mut self, depth: u32) -> String {
        match self.rng.below(if depth == 0 { 2 } else { 5 }) {
            0 => match self.rng.pick(&self.vars(Ty::Bool)).cloned() {
                Some(v) => v,
                None => "true".to_string(),
            },
            1 => {
                let op = ["<", "<=", "==", "!=", ">"][self.rng.below(5) as usize];
                format!("{} {op} {}", self.int_expr(1), self.int_expr(1))
            }
            2 => format!("!({})", self.bool_expr(depth - 1)),
            3 => format!(
                "({} && {})",
                self.bool_expr(depth - 1),
                self.bool_expr(depth - 1)
            ),
            _ => format!(
                "({} || {})",
                self.bool_expr(depth - 1),
                self.bool_expr(depth - 1)
            ),
        }
    }

    fn arr_expr(&mut self) -> String {
        match self.rng.pick(&self.vars(Ty::IntArr)).cloned() {
            Some(a) if self.rng.percent(50) => a,
            _ => {
                let e: Vec<String> = (0..ARR_LEN).map(|_| self.int_expr(1)).collect();
                format!("[{}]", e.join(", "))
            }
        }
    }

    /// A call to function `i`. Plain variables of the parameter's type
    /// are passed by reference.
    fn call(&mut self, i: usize, depth: u32) -> String {
        let params = self.funcs[i].params.clone();
        let args: Vec<String> = params
            .iter()
            .map(|t| match t {
                Ty::Int => self.int_expr(depth),
                Ty::Bool => self.bool_expr(depth),
                Ty::IntArr => self.arr_expr(),
            })
            .collect();
        format!("{}({})", self.funcs[i].name, args.join(", "))
    }

    fn block(&mut self, out: &mut String, indent: usize, depth: u32, stmts: u64) {
        self.scopes.push(Vec::new());
        for _ in 0..stmts {
            self.stmt(out, indent, depth);
        }
        self.scopes.pop();
    }

    fn line(out: &mut String, indent: usize, text: &str) {
        let _ = writeln!(out, "{:w$}{text}", "", w = indent * 4);
    }

    fn stmt(&mut self, out: &mut String, indent: usize, depth: u32) {
        let kinds = if depth == 0 { 5 } else { 14 };
        match self.rng.below(kinds) {
            0 => {
                let n = self.name("n");
                let e = self.int_expr(2);
                Self::line(out, indent, &format!("int {n} = {e};"));
                self.declare(&n, Ty::Int);
            }
            1 => {
                let e = self.int_expr(2);
                Self::line(out, indent, &format!("print {e};"));
            }
            2 => match self.rng.pick(&self.vars(Ty::Int)).cloned() {
                Some(v) => {
                    let op = ["=", "+=", "-="][self.rng.below(3) as usize];
                    let e = self.int_expr(2);
                    Self::line(out, indent, &format!("{v} {op} {e};"));
                }
                None => {
                    let b = self.name("b");
                    let e = self.bool_expr(1);
                    Self::line(out, indent, &format!("bool {b} = {e};"));
                    self.declare(&b, Ty::Bool);
                }
            },
            3 => match self.rng.pick(&self.vars(Ty::IntArr)).cloned() {
                Some(a) => {
                    let i = self.rng.below(ARR_LEN);
                    let e = self.int_expr(1);
                    Self::line(out, indent, &format!("{a}[{i}] = {e};"));
                }
                None => {
                    let a = self.name("a");
                    let e = self.arr_expr();
                    Self::line(out, indent, &format!("int[] {a} = {e};"));
                    self.declare(&a, Ty::IntArr);
                }
            },
            4 => {
                let voids: Vec<usize> = (0..self.funcs.len())
                    .filter(|&i| !self.funcs[i].returns_int)
                    .collect();
                match self.rng.pick(&voids).copied() {
                    Some(i) => {
                        let c = self.call(i, 1);
                        Self::line(out, indent, &format!("{c};"));
                    }
                    None => {
                        let e = self.bool_expr(1);
                        Self::line(out, indent, &format!("print {e};"));
                    }
                }
            }
            5 | 6 => {
                let c = self.bool_expr(2);
                Self::line(out, indent, &format!("if ({c}) {{"));
                let n = self.rng.below(3) + 1;
                self.block(out, indent + 1, depth - 1, n);
                if self.rng.percent(50) {
                    Self::line(out, indent, "} else {");
                    let n = self.rng.below(3) + 1;
                    self.block(out, indent + 1, depth - 1, n);
                }
                Self::line(out, indent, "}");
            }
            7 => {
                // A bounded `while`; now and then an unbounded one that
                // only `max_steps` stops.
                let c = self.name("c");
                let bound = self.rng.below(6) + 1;
                Self::line(out, indent, &format!("int {c} = 0;"));
                self.declare(&c, Ty::Int);
                let cond = if self.rng.percent(8) {
                    "true".to_string()
                } else {
                    format!("{c} < {bound}")
                };
                Self::line(out, indent, &format!("while ({cond}) {{"));
                Self::line(out, indent + 1, &format!("{c} += 1;"));
                let n = self.rng.below(3) + 1;
                self.block(out, indent + 1, depth - 1, n);
                Self::line(out, indent, "}");
            }
            8 | 9 => {
                // `foreach` writing through the loop variable.
                let v = self.name("v");
                let it = if self.rng.percent(70) {
                    self.arr_expr()
                } else {
                    format!("range({})", self.rng.below(5))
                };
                Self::line(out, indent, &format!("foreach {v} in {it} {{"));
                self.scopes.push(vec![(v.clone(), Ty::Int)]);
                let e = self.int_expr(1);
                Self::line(out, indent + 1, &format!("{v} = {v} + {e};"));
                let n = self.rng.below(2) + 1;
                for _ in 0..n {
                    self.stmt(out, indent + 1, depth - 1);
                }
                self.scopes.pop();
                Self::line(out, indent, "}");
            }
            10 => {
                // Shadow a visible int in a nested block.
                let shadowed = self.rng.pick(&self.vars(Ty::Int)).cloned();
                Self::line(out, indent, "{");
                self.scopes.push(Vec::new());
                let n = shadowed.unwrap_or_else(|| self.name("s"));
                let e = self.int_expr(1);
                Self::line(out, indent + 1, &format!("int {n} = {e};"));
                self.declare(&n, Ty::Int);
                Self::line(out, indent + 1, &format!("print {n};"));
                let k = self.rng.below(2) + 1;
                for _ in 0..k {
                    self.stmt(out, indent + 1, depth - 1);
                }
                self.scopes.pop();
                Self::line(out, indent, "}");
            }
            11 if self.in_function == Some(true) => {
                let e = self.int_expr(1);
                Self::line(out, indent, &format!("return {e};"));
            }
            11 if self.in_function == Some(false) => Self::line(out, indent, "return;"),
            _ => {
                let e = self.int_expr(2);
                Self::line(out, indent, &format!("print {e};"));
            }
        }
    }

    /// One function: a recursive one, a by-reference mutator, or a
    /// search that returns from inside a loop.
    fn function(&mut self, out: &mut String, globals: &[(String, Ty)]) {
        let name = self.name("f");
        self.scopes = vec![globals.to_vec()];
        let kind = self.rng.below(4);
        self.in_function = Some(kind != 1);
        match kind {
            0 => {
                // Recursion; a large argument trips `max_call_depth`.
                let _ = writeln!(out, "int {name}(int n) {{");
                self.scopes.push(vec![("n".to_string(), Ty::Int)]);
                let base = self.int_expr(1);
                Self::line(out, 1, &format!("if (n < 1) {{ return {base}; }}"));
                self.stmt(out, 1, 1);
                let step = self.int_expr(1);
                Self::line(out, 1, &format!("return {name}(n - 1) + {step};"));
                self.funcs.push(Func {
                    name,
                    params: vec![Ty::Int],
                    returns_int: true,
                });
            }
            1 => {
                // Writes through by-reference parameters.
                let _ = writeln!(out, "void {name}(int x, int[] xs) {{");
                self.scopes.push(vec![
                    ("x".to_string(), Ty::Int),
                    ("xs".to_string(), Ty::IntArr),
                ]);
                let e = self.int_expr(1);
                Self::line(out, 1, &format!("x += {e};"));
                let i = self.rng.below(ARR_LEN);
                let e = self.int_expr(1);
                Self::line(out, 1, &format!("xs[{i}] = {e};"));
                self.stmt(out, 1, 1);
                self.funcs.push(Func {
                    name,
                    params: vec![Ty::Int, Ty::IntArr],
                    returns_int: false,
                });
            }
            2 => {
                // Early return from inside a `foreach`.
                let _ = writeln!(out, "int {name}(int[] xs, int t) {{");
                self.scopes.push(vec![
                    ("xs".to_string(), Ty::IntArr),
                    ("t".to_string(), Ty::Int),
                ]);
                Self::line(out, 1, "foreach v in xs {");
                self.scopes.push(vec![("v".to_string(), Ty::Int)]);
                Self::line(out, 2, "if (v > t) { return v; }");
                self.stmt(out, 2, 1);
                self.scopes.pop();
                Self::line(out, 1, "}");
                let e = self.int_expr(1);
                Self::line(out, 1, &format!("return {e};"));
                self.funcs.push(Func {
                    name,
                    params: vec![Ty::IntArr, Ty::Int],
                    returns_int: true,
                });
            }
            _ => {
                // Early return from inside a `while`.
                let _ = writeln!(out, "int {name}(int n) {{");
                self.scopes.push(vec![("n".to_string(), Ty::Int)]);
                Self::line(out, 1, "int i = 0;");
                self.declare("i", Ty::Int);
                Self::line(out, 1, "while (i < 50) {");
                Self::line(out, 2, "i += 1;");
                Self::line(out, 2, "if (i * i > n) { return i; }");
                self.block(out, 2, 1, 1);
                Self::line(out, 1, "}");
                Self::line(out, 1, "return -1;");
                self.funcs.push(Func {
                    name,
                    params: vec![Ty::Int],
                    returns_int: true,
                });
            }
        }
        let _ = writeln!(out, "}}");
        self.in_function = None;
    }
}

/// The program for one seed. Layout: an optional prelude that calls a
/// function before the globals it reads exist, the globals, the
/// functions (sometimes one reading a global declared after it, which
/// the checker rejects), then the main statements.
pub fn generate(seed: u64) -> String {
    let mut g = Gen {
        rng: SplitMix(seed),
        scopes: vec![Vec::new()],
        funcs: Vec::new(),
        fresh: 0,
        in_function: None,
    };
    let mut globals: Vec<(String, Ty)> = Vec::new();
    let mut decls = String::new();
    for _ in 0..g.rng.below(3) + 1 {
        let n = g.name("g");
        let e = g.int_expr(1);
        let _ = writeln!(decls, "int {n} = {e};");
        globals.push((n.clone(), Ty::Int));
        g.declare(&n, Ty::Int);
    }
    if g.rng.percent(70) {
        let a = g.name("ga");
        let e = g.arr_expr();
        let _ = writeln!(decls, "int[] {a} = {e};");
        globals.push((a.clone(), Ty::IntArr));
        g.declare(&a, Ty::IntArr);
    }
    let late = g.rng.percent(15).then(|| g.name("late"));
    let mut funcs = String::new();
    let mut fn_globals = globals.clone();
    if let Some(l) = &late {
        fn_globals.push((l.clone(), Ty::Int));
    }
    for _ in 0..g.rng.below(3) + 1 {
        g.function(&mut funcs, &fn_globals);
    }
    let mut out = String::new();
    g.scopes = vec![Vec::new()];
    if g.rng.percent(20) {
        // Runs before any global is declared.
        let fs: Vec<usize> = (0..g.funcs.len())
            .filter(|&i| g.funcs[i].params == [Ty::Int])
            .collect();
        if let Some(&i) = g.rng.pick(&fs) {
            let _ = writeln!(out, "print {}(2);", g.funcs[i].name);
        }
    }
    out.push_str(&decls);
    g.scopes = vec![globals];
    if let Some(l) = &late {
        let _ = writeln!(funcs, "int {l} = 4;");
        g.declare(l, Ty::Int);
    }
    out.push_str(&funcs);
    for _ in 0..g.rng.below(6) + 3 {
        g.stmt(&mut out, 0, 3);
    }
    if g.rng.percent(5) {
        // Checked: rejected. Unchecked: stops the program here.
        out.push_str("return;\nprint 999;\n");
    }
    if g.rng.percent(4) {
        // Checked: rejected. Unchecked: a runtime redeclaration error.
        out.push_str("{\n    int dup = 1;\n    int dup = 2;\n}\n");
    }
    out
}
