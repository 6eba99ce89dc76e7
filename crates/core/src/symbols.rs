//! Symbol table: lexically scoped variables plus the function registry.
//!
//! Mirrors the paper's design (§3): "the resulting Abstract Syntax Tree
//! is traversed to instantiate symbols, represented by instances of a
//! custom class, Symbol. Each Symbol object encapsulates essential
//! information, including type and scope."

use crate::value::{Cell, Value};
use qutes_frontend::{Diagnostic, FunctionDecl, Span, Type};
use std::collections::HashMap;
use std::rc::Rc;

/// One declared variable.
#[derive(Clone, Debug)]
pub struct Symbol {
    /// Declared (static) type.
    pub ty: Type,
    /// The shared value cell.
    pub value: Cell,
    /// Declaration site.
    pub span: Span,
}

/// A stack of lexical scopes mapping names to symbols.
#[derive(Default, Debug)]
pub struct SymbolTable {
    scopes: Vec<HashMap<String, Symbol>>,
}

impl SymbolTable {
    /// A table with one (global) scope.
    pub fn new() -> Self {
        SymbolTable {
            scopes: vec![HashMap::new()],
        }
    }

    /// Enters a nested scope.
    pub fn push_scope(&mut self) {
        self.scopes.push(HashMap::new());
    }

    /// Leaves the innermost scope. The global scope is never popped.
    pub fn pop_scope(&mut self) {
        if self.scopes.len() > 1 {
            self.scopes.pop();
        }
    }

    /// Current nesting depth (1 = global only).
    pub fn depth(&self) -> usize {
        self.scopes.len()
    }

    /// Declares `name` in the innermost scope. Errors if the same scope
    /// already declares it (shadowing outer scopes is allowed).
    pub fn declare(
        &mut self,
        name: &str,
        ty: Type,
        value: Cell,
        span: Span,
    ) -> Result<(), Diagnostic> {
        let scope = self.innermost();
        if scope.contains_key(name) {
            return Err(Diagnostic::error(
                format!("variable '{name}' is already declared in this scope"),
                span,
            ));
        }
        scope.insert(name.to_string(), Symbol { ty, value, span });
        Ok(())
    }

    /// Declares or rebinds without the duplicate check (used to bind
    /// function parameters and loop variables).
    pub fn bind(&mut self, name: &str, ty: Type, value: Cell, span: Span) {
        self.innermost()
            .insert(name.to_string(), Symbol { ty, value, span });
    }

    /// The innermost scope; a global one is created if there is none
    /// (a [`Default`] table starts empty).
    fn innermost(&mut self) -> &mut HashMap<String, Symbol> {
        if self.scopes.is_empty() {
            self.scopes.push(HashMap::new());
        }
        let last = self.scopes.len() - 1;
        &mut self.scopes[last]
    }

    /// Enters a function body: hides every scope above the global one
    /// (callee code must not see caller locals). Returns the hidden
    /// scopes; restore them with [`Self::exit_function`].
    pub fn enter_function(&mut self) -> Vec<HashMap<String, Symbol>> {
        self.scopes.split_off(1)
    }

    /// Restores the scopes hidden by [`Self::enter_function`].
    pub fn exit_function(&mut self, saved: Vec<HashMap<String, Symbol>>) {
        self.scopes.truncate(1);
        self.scopes.extend(saved);
    }

    /// Looks `name` up from the innermost scope outwards.
    pub fn lookup(&self, name: &str) -> Option<&Symbol> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    /// Shared handle to a variable's value cell.
    pub fn cell(&self, name: &str) -> Option<Cell> {
        self.lookup(name).map(|s| Rc::clone(&s.value))
    }

    /// Snapshot of every visible variable (inner shadows outer) — used by
    /// the CLI's `--dump-vars` listing.
    pub fn visible(&self) -> Vec<(String, Value)> {
        let mut seen: HashMap<&str, &Symbol> = HashMap::new();
        for scope in self.scopes.iter().rev() {
            for (k, v) in scope {
                seen.entry(k.as_str()).or_insert(v);
            }
        }
        let mut out: Vec<(String, Value)> = seen
            .into_iter()
            .map(|(k, s)| (k.to_string(), s.value.borrow().clone()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

/// The function registry built by the first (declaration) pass.
#[derive(Default, Debug, Clone)]
pub struct FunctionTable {
    functions: HashMap<String, Rc<FunctionDecl>>,
}

impl FunctionTable {
    /// Builds the registry, rejecting duplicate names.
    pub fn build(decls: &[&FunctionDecl]) -> Result<Self, Vec<Diagnostic>> {
        let mut functions = HashMap::new();
        let mut diags = Vec::new();
        for &f in decls {
            if functions.contains_key(&f.name) {
                diags.push(Diagnostic::error(
                    format!("function '{}' is declared more than once", f.name),
                    f.span,
                ));
            } else {
                functions.insert(f.name.clone(), Rc::new(f.clone()));
            }
        }
        if diags.is_empty() {
            Ok(FunctionTable { functions })
        } else {
            Err(diags)
        }
    }

    /// Looks a function up by name.
    pub fn get(&self, name: &str) -> Option<&Rc<FunctionDecl>> {
        self.functions.get(name)
    }

    /// Number of registered functions.
    pub fn len(&self) -> usize {
        self.functions.len()
    }

    /// True when no functions are registered.
    pub fn is_empty(&self) -> bool {
        self.functions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::cell;
    use qutes_frontend::parse;

    #[test]
    fn declare_and_lookup() {
        let mut t = SymbolTable::new();
        t.declare("x", Type::Int, cell(Value::Int(1)), Span::default())
            .unwrap();
        assert!(t.lookup("x").is_some());
        assert!(t.lookup("y").is_none());
        assert_eq!(t.lookup("x").unwrap().ty, Type::Int);
    }

    #[test]
    fn duplicate_in_same_scope_rejected() {
        let mut t = SymbolTable::new();
        t.declare("x", Type::Int, cell(Value::Int(1)), Span::default())
            .unwrap();
        let err = t
            .declare("x", Type::Bool, cell(Value::Bool(true)), Span::default())
            .unwrap_err();
        assert!(err.message.contains("already declared"));
    }

    #[test]
    fn shadowing_in_inner_scope() {
        let mut t = SymbolTable::new();
        t.declare("x", Type::Int, cell(Value::Int(1)), Span::default())
            .unwrap();
        t.push_scope();
        t.declare("x", Type::Bool, cell(Value::Bool(true)), Span::default())
            .unwrap();
        assert_eq!(t.lookup("x").unwrap().ty, Type::Bool);
        t.pop_scope();
        assert_eq!(t.lookup("x").unwrap().ty, Type::Int);
    }

    #[test]
    fn global_scope_never_popped() {
        let mut t = SymbolTable::new();
        t.pop_scope();
        t.pop_scope();
        assert_eq!(t.depth(), 1);
        t.declare("x", Type::Int, cell(Value::Int(1)), Span::default())
            .unwrap();
        assert!(t.lookup("x").is_some());
    }

    #[test]
    fn cells_are_shared() {
        let mut t = SymbolTable::new();
        t.declare("x", Type::Int, cell(Value::Int(1)), Span::default())
            .unwrap();
        let c = t.cell("x").unwrap();
        *c.borrow_mut() = Value::Int(5);
        assert!(matches!(
            *t.lookup("x").unwrap().value.borrow(),
            Value::Int(5)
        ));
    }

    #[test]
    fn visible_snapshot_respects_shadowing() {
        let mut t = SymbolTable::new();
        t.declare("a", Type::Int, cell(Value::Int(1)), Span::default())
            .unwrap();
        t.push_scope();
        t.declare("a", Type::Int, cell(Value::Int(2)), Span::default())
            .unwrap();
        t.declare("b", Type::Int, cell(Value::Int(3)), Span::default())
            .unwrap();
        let vis = t.visible();
        assert_eq!(vis.len(), 2);
        assert!(matches!(vis[0].1, Value::Int(2)));
    }

    #[test]
    fn function_table_rejects_duplicates() {
        let src = "int f() { return 1; }\nint f() { return 2; }";
        let program = parse(src).unwrap();
        let decls: Vec<&FunctionDecl> = program
            .items
            .iter()
            .filter_map(|i| match i {
                qutes_frontend::Item::Function(f) => Some(f),
                _ => None,
            })
            .collect();
        let err = FunctionTable::build(&decls).unwrap_err();
        assert_eq!(err.len(), 1);
        assert!(err[0].message.contains("more than once"));
    }

    #[test]
    fn function_table_lookup() {
        let src = "int f() { return 1; }";
        let program = parse(src).unwrap();
        let decls: Vec<&FunctionDecl> = program
            .items
            .iter()
            .filter_map(|i| match i {
                qutes_frontend::Item::Function(f) => Some(f),
                _ => None,
            })
            .collect();
        let t = FunctionTable::build(&decls).unwrap();
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        assert!(t.get("f").is_some());
        assert!(t.get("g").is_none());
    }
}
