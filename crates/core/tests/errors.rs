//! Failure-injection suite: every class of user error must surface as a
//! positioned diagnostic (compile-time) or a descriptive runtime error —
//! never a panic or silent misbehaviour.

// Helpers outside `#[test]` fns fail loudly on an unexpected outcome.
#![allow(clippy::expect_used, clippy::panic)]

use qutes_core::{run_source, QutesError, RunConfig};

fn err(src: &str) -> QutesError {
    run_source(src, &RunConfig::default()).expect_err("program should fail")
}

fn compile_messages(src: &str) -> Vec<String> {
    match err(src) {
        QutesError::Compile(ds) => ds.into_iter().map(|d| d.message).collect(),
        other => panic!("expected compile error, got {other}"),
    }
}

// ---- lexical -------------------------------------------------------------

#[test]
fn lexical_errors() {
    assert!(compile_messages("int x = @;")[0].contains("unexpected character"));
    assert!(compile_messages("string s = \"open;")[0].contains("unterminated"));
    assert!(compile_messages("qustring s = \"012\"q;")[0].contains("bitstrings"));
    assert!(compile_messages("/* forever")[0].contains("block comment"));
}

// ---- syntactic -------------------------------------------------------------

#[test]
fn syntactic_errors() {
    assert!(compile_messages("int x = ;")[0].contains("expected an expression"));
    assert!(compile_messages("if true { }")[0].contains("'('"));
    assert!(compile_messages("int f(int) { }")[0].contains("parameter name"));
    assert!(compile_messages("cnot a;")[0].contains("2 arguments"));
}

#[test]
fn multiple_errors_reported_together() {
    let msgs = compile_messages("int x = ;\nint y = ;\nint z = ;");
    assert!(msgs.len() >= 3, "{msgs:?}");
}

// ---- semantic (type checker) ------------------------------------------------

#[test]
fn type_errors() {
    assert!(
        compile_messages("quint q = 1q; quint r = q * q; string s = r;")
            .iter()
            .any(|m| m.contains("cannot initialise"))
    );
    assert!(compile_messages("int x = 1; int x = 2;")[0].contains("already declared"));
    assert!(compile_messages("hadamard 42;")[0].contains("quantum operand"));
    assert!(compile_messages("foreach v in 3 { }")[0].contains("array"));
    assert!(compile_messages("int f() { return 1; } print f(1);")[0].contains("expects 0"));
    assert!(compile_messages("return 5;")[0].contains("outside"));
}

#[test]
fn error_positions_render_with_source() {
    let src = "int x = 1;\nhadamard x;";
    let e = err(src);
    let rendered = e.render(src);
    assert!(rendered.contains("2:"), "line number in: {rendered}");
    assert!(
        rendered.contains("hadamard x;"),
        "source line in: {rendered}"
    );
    assert!(rendered.contains('^'), "caret in: {rendered}");
}

// ---- runtime ------------------------------------------------------------------

#[test]
fn arithmetic_runtime_faults() {
    assert!(err("print 1 / 0;").to_string().contains("division by zero"));
    assert!(err("print 7 % 0;").to_string().contains("modulo by zero"));
    assert!(err("int x = int(\"abc\");")
        .to_string()
        .contains("cannot parse"));
}

#[test]
fn inexact_quotient_is_refused_where_stored_as_int() {
    // `int / int` is typed `int`; an inexact quotient is a float that no
    // int variable, element, parameter or returned value may hold.
    for src in [
        "int x = 7 / 2;",
        "int k = 7 / 2; int y = 1; y <<= k; print y;",
        "int y = 1; y <<= 7 / 2; print y;",
        "int i = 0; i += 7 / 2; print i;",
        "int x = 0; x = 7 / 2;",
        "int[] xs = [7 / 2];",
        "int[] xs = [1]; xs[0] += 7 / 2;",
        "void g(int a) { print a; } g(7 / 2);",
        "int f() { return 7 / 2; } print f();",
    ] {
        let e = err(src);
        assert!(
            matches!(e, QutesError::Runtime { .. }),
            "{src}: expected a runtime error, got {e}"
        );
        assert!(
            e.to_string().contains("cannot use a float value as int"),
            "{src}: {e}"
        );
    }
    // Where no int holds it, the quotient is the float it is.
    let out = run_source(
        "print 7 / 2; float f = 7 / 2; print f; float g = 1; g += 7 / 2; print g;",
        &RunConfig::default(),
    )
    .expect("program should run");
    assert_eq!(out.output, ["3.5", "3.5", "4.5"]);
}

#[test]
fn bounds_runtime_faults() {
    assert!(err("int[] a = [1, 2]; print a[2];")
        .to_string()
        .contains("out of bounds"));
    assert!(err("int[] a = [1]; a[9] = 0;")
        .to_string()
        .contains("out of bounds"));
    assert!(err(r#"qustring s = "01"q; not s[5];"#)
        .to_string()
        .contains("out of bounds"));
    assert!(err("int[] a = [1]; print a[-1 + 0];")
        .to_string()
        .contains("non-negative"));
}

#[test]
fn quantum_runtime_faults() {
    // Non-normalised amplitude literal.
    assert!(err("qubit q = [0.5, 0.5]q;")
        .to_string()
        .contains("normalised"));
    // Zero-norm literal.
    assert!(err("qubit q = [0.0, 0.0]q;").to_string().contains("norm"));
    // Negative superposition values.
    assert!(err("quint n = [1, -2]q;")
        .to_string()
        .contains("non-negative"));
    // cnot width mismatch (runtime check; widths are dynamic).
    assert!(
        err(r#"qustring a = "11"q; qustring b = "111"q; cnot a, b;"#)
            .to_string()
            .contains("equal width")
    );
}

#[test]
fn capacity_guard_is_typed_refusal() {
    // One register bigger than the statevector cap: refused pre-flight
    // with a typed (transient, retryable) error — never an OOM abort.
    let wide = "1".repeat(qutes_sim::MAX_QUBITS + 1);
    let src = format!("qustring s = \"{wide}\"q;");
    let statevector = RunConfig {
        backend: qutes_qcirc::BackendChoice::Statevector,
        ..RunConfig::default()
    };
    let e = run_source(&src, &statevector).expect_err("program should fail");
    assert!(
        matches!(e, QutesError::Sim(qutes_sim::SimError::TooManyQubits(_))),
        "{e}"
    );
    assert!(e.is_transient());
    // Under `auto` the Clifford register fits the tableau; the same
    // refusal comes at promotion, on the first non-Clifford gate.
    let e = err(&format!("{src}\nphase(s[0], pi / 4);"));
    assert!(
        matches!(e, QutesError::Sim(qutes_sim::SimError::TooManyQubits(_))),
        "{e}"
    );
    assert!(e.is_transient());
}

#[test]
fn infinite_loop_guard_has_limit_in_message() {
    let cfg = RunConfig {
        max_steps: 500,
        ..RunConfig::default()
    };
    let e = run_source("int i = 0; while (i < 10) { i = i * 1; }", &cfg).unwrap_err();
    assert!(e.to_string().contains("500"));
}

#[test]
fn runtime_guards_and_checker_diagnostics() {
    // Values the checker cannot see are guarded at run time.
    assert!(err("print range(-1);").to_string().contains("non-negative"));
    assert!(err("int x = 1; x <<= -2;").to_string().contains(">= 0"));
    assert!(err("qustring s;").to_string().contains("initialiser"));
    // Badly typed operations never run: the checker rejects them.
    assert!(compile_messages("print nope;")[0].contains("undeclared variable 'nope'"));
    assert!(compile_messages("int x = 1; measure x;")[0].contains("expects a quantum value"));
    assert!(compile_messages("print len(1);")[0].contains("len() is not defined for int"));
    assert!(compile_messages("print width(3);")[0].contains("needs a quantum value"));
    assert!(compile_messages("print unknown_fn(1);")[0].contains("unknown function"));
}

#[test]
fn builtin_arity_checked() {
    assert!(err("print len(1, 2);").to_string().contains("argument"));
    assert!(compile_messages("quint q = 1q; rotl(q);")[0].contains("2 argument"));
}

#[test]
fn function_runtime_faults() {
    assert!(compile_messages("int f(int a) { return a; } print f();")[0].contains("expects 1"));
    let e = err("int f(int a) { if (a > 0) { return a; } } print f(0);");
    assert!(e.to_string().contains("finished without returning"));
}
