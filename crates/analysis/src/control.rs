//! Classical control-flow lints.
//!
//! - **QL102 unreachable-code** — statements that can never run because
//!   an earlier statement in the same block always returns. Only the
//!   first unreachable statement of a list is reported (everything after
//!   it is implied), but nested blocks are still walked so independent
//!   findings inside them are not lost.
//! - **QL103 constant-condition** — `if`/`while` conditions that are
//!   bare literals, so one outcome can never happen. Deliberately
//!   literal-only: folding arbitrary expressions would duplicate the
//!   resource estimator's abstract interpretation and risk false
//!   positives.
//!
//! Both walk the checker's resolution, statement list by statement list.

use crate::lints;
use crate::RawFinding;
use qutes_core::resolution::{Expr, ExprKind, Resolution, Stmt};

/// Runs the control-flow lints over a whole resolved program.
pub(crate) fn run(program: &Resolution<'_>) -> Vec<RawFinding> {
    let mut findings = Vec::new();
    walk_list(&program.main, &mut findings);
    for f in &program.functions {
        walk_list(&f.body, &mut findings);
    }
    findings
}

/// True when executing `s` always leaves the enclosing function (so no
/// statement after it in the same block can run).
fn always_returns(s: &Stmt<'_>) -> bool {
    match s {
        Stmt::Return { .. } => true,
        Stmt::Block { stmts, .. } => stmts.iter().any(always_returns),
        Stmt::If {
            then_block,
            else_block: Some(eb),
            ..
        } => then_block.iter().any(always_returns) && eb.iter().any(always_returns),
        _ => false,
    }
}

fn walk_list(stmts: &[Stmt<'_>], findings: &mut Vec<RawFinding>) {
    let mut reported_unreachable = false;
    let mut terminated = false;
    for s in stmts {
        if terminated && !reported_unreachable {
            reported_unreachable = true;
            findings.push(RawFinding {
                lint: &lints::UNREACHABLE_CODE,
                message: "unreachable statement: an earlier statement in this block always returns"
                    .to_string(),
                span: s.span(),
                notes: Vec::new(),
            });
        }
        walk_stmt(s, findings);
        if always_returns(s) {
            terminated = true;
        }
    }
}

fn walk_stmt(s: &Stmt<'_>, findings: &mut Vec<RawFinding>) {
    match s {
        Stmt::If {
            cond,
            then_block,
            else_block,
            ..
        } => {
            check_condition(cond, "if", findings);
            walk_list(then_block, findings);
            if let Some(eb) = else_block {
                walk_list(eb, findings);
            }
        }
        Stmt::While { cond, body, .. } => {
            check_condition(cond, "while", findings);
            walk_list(body, findings);
        }
        Stmt::Foreach { body, .. } | Stmt::Block { stmts: body, .. } => walk_list(body, findings),
        _ => {}
    }
}

fn check_condition(cond: &Expr<'_>, kind: &str, findings: &mut Vec<RawFinding>) {
    let truth = match &cond.kind {
        ExprKind::Bool(b) => Some(*b),
        ExprKind::Int(i) => Some(*i != 0),
        _ => None,
    };
    if let Some(truth) = truth {
        let consequence = match (kind, truth) {
            ("while", false) => "; the loop body can never run",
            ("while", true) => "; the loop can never exit normally",
            _ => "; one branch can never run",
        };
        findings.push(RawFinding {
            lint: &lints::CONSTANT_CONDITION,
            message: format!("this {kind} condition is always {truth}{consequence}"),
            span: cond.span,
            notes: Vec::new(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qutes_core::resolve;
    use qutes_frontend::parse;

    fn ids(src: &str) -> Vec<&'static str> {
        let program = parse(src).expect("test program parses");
        run(&resolve(&program).0)
            .iter()
            .map(|f| f.lint.id)
            .collect()
    }

    #[test]
    fn code_after_return_is_unreachable() {
        let src = "int f() {\n  return 1;\n  print \"never\";\n}\nprint f();\n";
        assert_eq!(ids(src), vec!["QL102"]);
    }

    #[test]
    fn only_first_unreachable_statement_is_reported() {
        let src = "int f() {\n  return 1;\n  print \"a\";\n  print \"b\";\n}\nprint f();\n";
        assert_eq!(ids(src), vec!["QL102"]);
    }

    #[test]
    fn if_with_both_arms_returning_terminates() {
        let src = "int f(bool c) {\n  if (c) {\n    return 1;\n  } else {\n    return 2;\n  }\n  print \"never\";\n}\nprint f(true);\n";
        assert_eq!(ids(src), vec!["QL102"]);
    }

    #[test]
    fn if_without_else_does_not_terminate() {
        let src =
            "int f(bool c) {\n  if (c) {\n    return 1;\n  }\n  return 2;\n}\nprint f(true);\n";
        assert!(ids(src).is_empty());
    }

    #[test]
    fn constant_conditions_fire_on_literals_only() {
        assert_eq!(ids("if (true) {\n  print 1;\n}\n"), vec!["QL103"]);
        assert_eq!(ids("while (0) {\n  print 1;\n}\n"), vec!["QL103"]);
        assert!(ids("bool c = true;\nif (c) {\n  print 1;\n}\n").is_empty());
    }
}
