//! End-to-end interpreter tests: every language feature of the paper's
//! §4–§5, exercised through complete Qutes programs.

// Helpers outside `#[test]` fns fail loudly on an unexpected outcome.
#![allow(clippy::expect_used, clippy::panic)]

use qutes_core::{run_source, QutesError, RunConfig};

fn run(src: &str) -> Vec<String> {
    match run_source(src, &RunConfig::default()) {
        Ok(out) => out.output,
        Err(e) => panic!("program failed:\n{}", e.render(src)),
    }
}

fn run_seeded(src: &str, seed: u64) -> Vec<String> {
    let cfg = RunConfig {
        seed,
        ..RunConfig::default()
    };
    run_source(src, &cfg).expect("program failed").output
}

fn fails(src: &str) -> QutesError {
    run_source(src, &RunConfig::default()).expect_err("program should fail")
}

// ---- classical base language -------------------------------------------

#[test]
fn classical_arithmetic_and_printing() {
    assert_eq!(
        run("int x = 2 + 3 * 4; print x; print x - 4; print x % 5; print 7 / 2;"),
        vec!["14", "10", "4", "3.5"]
    );
}

#[test]
fn int_division_and_modulo_wrap_at_the_minimum() {
    // The one overflowing quotient, `i64::MIN / -1`, and the one
    // overflowing negation, `-i64::MIN`, wrap as `+ - *` do.
    assert_eq!(
        run("int m = -9223372036854775807 - 1; print m / -1; print m % -1; print m / 2; print m % 7; \
             int y = -m; print y;"),
        vec![
            "-9223372036854775808",
            "0",
            "-4611686018427387904",
            "6",
            "-9223372036854775808"
        ]
    );
}

#[test]
fn float_arithmetic() {
    assert_eq!(
        run("float f = 1.5 + 2; print f; print f * 2.0; print pi > 3.14;"),
        vec!["3.5", "7.0", "true"]
    );
}

#[test]
fn string_operations() {
    assert_eq!(
        run(r#"string s = "ab" + "cd"; print s; print len(s); print "bc" in s; print s[1];"#),
        vec!["abcd", "4", "true", "b"]
    );
}

#[test]
fn boolean_logic_short_circuits() {
    // Division by zero on the right of && must not be evaluated.
    assert_eq!(
        run("bool b = false && (1 / 0 == 1); print b; print true || false;"),
        vec!["false", "true"]
    );
}

#[test]
fn if_else_chains() {
    let src = r#"
        int x = 7;
        if (x > 10) { print "big"; }
        else if (x > 5) { print "medium"; }
        else { print "small"; }
    "#;
    assert_eq!(run(src), vec!["medium"]);
}

#[test]
fn while_loops() {
    assert_eq!(
        run("int i = 0; int acc = 0; while (i < 5) { acc += i; i += 1; } print acc;"),
        vec!["10"]
    );
}

#[test]
fn foreach_over_arrays_and_range() {
    assert_eq!(
        run("int[] xs = [3, 1, 4]; int s = 0; foreach v in xs { s += v; } print s;"),
        vec!["8"]
    );
    assert_eq!(
        run("int s = 0; foreach i in range(5) { s += i; } print s;"),
        vec!["10"]
    );
}

#[test]
fn arrays_index_and_mutate() {
    assert_eq!(
        run("int[] a = [1, 2, 3]; a[1] = 9; print a[1]; print a; print len(a);"),
        vec!["9", "[1, 9, 3]", "3"]
    );
}

#[test]
fn functions_and_recursion() {
    let src = r#"
        int fib(int n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        print fib(10);
    "#;
    assert_eq!(run(src), vec!["55"]);
}

#[test]
fn pass_by_reference_semantics() {
    // Paper §4: variables are always passed by reference.
    let src = r#"
        void bump(int x) { x += 1; }
        int v = 5;
        bump(v);
        bump(v);
        print v;
    "#;
    assert_eq!(run(src), vec!["7"]);
}

#[test]
fn array_elements_by_reference_in_foreach() {
    let src = r#"
        int[] xs = [1, 2, 3];
        foreach v in xs { v += 10; }
        print xs;
    "#;
    assert_eq!(run(src), vec!["[11, 12, 13]"]);
}

#[test]
fn function_cannot_fall_off_non_void() {
    let err = fails("int f() { int x = 1; } print f();");
    assert!(err.to_string().contains("without returning"));
}

#[test]
fn scoping_and_shadowing() {
    assert_eq!(
        run("int x = 1; { int x = 2; print x; } print x;"),
        vec!["2", "1"]
    );
}

// ---- quantum declarations and measurement --------------------------------

#[test]
fn quint_literals_roundtrip_through_measurement() {
    assert_eq!(run("quint n = 5q; print n;"), vec!["5"]);
    assert_eq!(run("quint n = 0q; print n;"), vec!["0"]);
    assert_eq!(run("quint n = 255q; print n;"), vec!["255"]);
}

#[test]
fn qubit_kets_measure_deterministically() {
    assert_eq!(run("qubit a = |0>; print a;"), vec!["false"]);
    assert_eq!(run("qubit b = |1>; print b;"), vec!["true"]);
}

#[test]
fn qustring_roundtrip() {
    assert_eq!(run(r#"qustring s = "0110"q; print s;"#), vec!["0110"]);
}

#[test]
fn type_promotion_classical_to_quantum() {
    // Paper §4: "Classical variables can be promoted to quantum
    // equivalents through type promotion".
    assert_eq!(run("quint n = 6; print n;"), vec!["6"]);
    assert_eq!(run("qubit q = true; print q;"), vec!["true"]);
    assert_eq!(run(r#"qustring s = "101"; print s;"#), vec!["101"]);
}

#[test]
fn auto_measurement_quantum_to_classical() {
    assert_eq!(run("quint n = 9q; int x = n; print x + 1;"), vec!["10"]);
    assert_eq!(run("qubit q = |1>; bool b = q; print b;"), vec!["true"]);
}

#[test]
fn measurement_collapses_for_repeat_reads() {
    // Reading a superposed quint twice gives the same value (collapse).
    let src = r#"
        quint n = [0, 7]q;
        int a = n;
        int b = n;
        print a == b;
    "#;
    assert_eq!(run(src), vec!["true"]);
}

#[test]
fn superposition_literal_measures_to_listed_value() {
    for seed in 0..10 {
        let out = run_seeded("quint n = [1, 2, 3]q; print n;", seed);
        let v: i64 = out[0].parse().unwrap();
        assert!((1..=3).contains(&v), "measured {v}");
    }
}

#[test]
fn amplitude_literal_biases_measurement() {
    // [0.6, 0.8]q: P(1) = 0.64. Over seeds, both outcomes appear with
    // one clearly more frequent.
    let mut ones = 0;
    for seed in 0..60 {
        let out = run_seeded("qubit q = [0.6, 0.8]q; print q;", seed);
        if out[0] == "true" {
            ones += 1;
        }
    }
    assert!(ones > 25 && ones < 55, "ones = {ones}");
}

#[test]
fn measure_expression_and_statement() {
    assert_eq!(run("quint n = 4q; int x = measure n; print x;"), vec!["4"]);
    assert_eq!(run("quint n = 4q; measure n; print n;"), vec!["4"]);
}

// ---- gates ---------------------------------------------------------------

#[test]
fn not_gate_flips() {
    assert_eq!(run("qubit q = |0>; not q; print q;"), vec!["true"]);
    assert_eq!(run("quint n = 0q; not n; print n;"), vec!["1"]);
    // On a 3-bit register, NOT flips every bit: 5 -> 2.
    assert_eq!(run("quint n = 5q; not n; print n;"), vec!["2"]);
}

#[test]
fn hadamard_creates_superposition() {
    let mut seen = std::collections::HashSet::new();
    for seed in 0..30 {
        let out = run_seeded("qubit q = |0>; hadamard q; print q;", seed);
        seen.insert(out[0].clone());
    }
    assert_eq!(seen.len(), 2, "both outcomes should occur: {seen:?}");
}

#[test]
fn double_hadamard_is_identity() {
    assert_eq!(
        run("qubit q = |0>; hadamard q; hadamard q; print q;"),
        vec!["false"]
    );
}

#[test]
fn pauli_z_and_y_preserve_basis_probabilities() {
    assert_eq!(run("qubit q = |1>; pauliz q; print q;"), vec!["true"]);
    assert_eq!(run("qubit q = |0>; pauliy q; print q;"), vec!["true"]);
}

#[test]
fn phase_gate_composition() {
    // Four S gates = Z^2 = identity on probabilities; H S S S S H = I.
    let src = r#"
        qubit q = |0>;
        hadamard q;
        phase(q, pi / 2);
        phase(q, pi / 2);
        phase(q, pi / 2);
        phase(q, pi / 2);
        hadamard q;
        print q;
    "#;
    assert_eq!(run(src), vec!["false"]);
}

#[test]
fn cnot_entangles_bell_pair() {
    // Bell pair: outcomes always agree.
    for seed in 0..20 {
        let out = run_seeded(
            "qubit a = |0>; qubit b = |0>; hadamard a; cnot a, b; print a; print b;",
            seed,
        );
        assert_eq!(out[0], out[1], "seed {seed}");
    }
}

#[test]
fn cnot_register_wise_xors_bits() {
    assert_eq!(
        run(r#"qustring a = "101"q; qustring b = "011"q; cnot a, b; print b; print a;"#),
        vec!["110", "101"]
    );
}

#[test]
fn cnot_single_control_fans_out() {
    assert_eq!(
        run(r#"qubit c = |1>; qustring t = "000"q; cnot c, t; print t;"#),
        vec!["111"]
    );
}

#[test]
fn barrier_is_accepted() {
    assert_eq!(run("qubit q = |0>; barrier; print q;"), vec!["false"]);
}

#[test]
fn indexing_into_registers_applies_single_qubit_gates() {
    // Flip only character 1 of the string.
    assert_eq!(
        run(r#"qustring s = "000"q; not s[1]; print s;"#),
        vec!["010"]
    );
}

// ---- quantum arithmetic ----------------------------------------------------

#[test]
fn quantum_addition_basic() {
    assert_eq!(
        run("quint a = 5q; quint b = 3q; quint s = a + b; print s;"),
        vec!["8"]
    );
    assert_eq!(run("quint a = 0q; quint b = 0q; print a + b;"), vec!["0"]);
    assert_eq!(run("quint a = 7q; print a + 1;"), vec!["8"]);
    assert_eq!(run("quint a = 7q; print 1 + a;"), vec!["8"]);
}

#[test]
fn quantum_addition_keeps_operands_intact() {
    let src = r#"
        quint a = 5q;
        quint b = 3q;
        quint s = a + b;
        print s; print a; print b;
    "#;
    assert_eq!(run(src), vec!["8", "5", "3"]);
}

#[test]
fn quantum_in_place_addition() {
    assert_eq!(run("quint a = 5q; a += 2; print a;"), vec!["7"]);
    assert_eq!(
        run("quint a = 5q; quint b = 2q; a += b; print a; print b;"),
        vec!["7", "2"]
    );
    // Wraps modulo the register width (3 bits for 5q).
    assert_eq!(run("quint a = 5q; a += 5; print a;"), vec!["2"]);
}

#[test]
fn quantum_subtraction() {
    assert_eq!(run("quint a = 5q; a -= 2; print a;"), vec!["3"]);
    assert_eq!(
        run("quint a = 5q; quint b = 1q; a -= b; print a;"),
        vec!["4"]
    );
    assert_eq!(run("quint a = 6q; quint b = 2q; print a - b;"), vec!["4"]);
}

#[test]
fn superposed_addition_lands_in_shifted_set() {
    // (|1> + |2>) + 3 ∈ {4, 5} — the paper's "superposition addition".
    for seed in 0..12 {
        let out = run_seeded("quint n = [1, 2]q; quint s = n + 3; print s;", seed);
        let v: i64 = out[0].parse().unwrap();
        assert!(v == 4 || v == 5, "seed {seed}: got {v}");
    }
}

#[test]
fn superposed_addition_is_correlated_with_operand() {
    // Measuring the sum then the operand must be consistent: s - n == 3.
    for seed in 0..12 {
        let out = run_seeded(
            "quint n = [1, 2]q; quint s = n + 3; int sv = s; int nv = n; print sv - nv;",
            seed,
        );
        assert_eq!(out[0], "3", "seed {seed}");
    }
}

// ---- cyclic shift -----------------------------------------------------------

#[test]
fn cyclic_shift_rotates_register() {
    // 4-bit 0b0001 rotated left by 1 -> bit 0 moves to bit 3 (value-level
    // contract of rotate_value_left: position i gets old (i+k) mod n).
    assert_eq!(run("quint n = 8q; n <<= 1; print n;"), vec!["4"]);
    assert_eq!(run("quint n = 8q; n >>= 1; print n;"), vec!["1"]);
    assert_eq!(run("quint n = 9q; n <<= 2; print n;"), vec!["6"]);
}

#[test]
fn shift_expression_leaves_original() {
    assert_eq!(
        run("quint n = 8q; quint m = n << 1; print m; print n;"),
        vec!["4", "8"]
    );
}

#[test]
fn rotl_rotr_builtins() {
    assert_eq!(run("quint n = 8q; rotl(n, 1); print n;"), vec!["4"]);
    assert_eq!(
        run("quint n = 8q; rotr(n, 1); rotl(n, 1); print n;"),
        vec!["8"]
    );
}

#[test]
fn qustring_rotation() {
    assert_eq!(
        run(r#"qustring s = "0011"q; s <<= 1; print s;"#),
        vec!["0110"]
    );
}

// ---- Grover substring search (`in`) -----------------------------------------

#[test]
fn grover_in_finds_present_substring() {
    for seed in 0..8 {
        let out = run_seeded(r#"qustring s = "010110"q; print "11" in s;"#, seed);
        assert_eq!(out[0], "true", "seed {seed}");
    }
}

#[test]
fn grover_in_rejects_absent_substring() {
    for seed in 0..8 {
        let out = run_seeded(r#"qustring s = "000000"q; print "11" in s;"#, seed);
        assert_eq!(out[0], "false", "seed {seed}");
    }
}

#[test]
fn grover_in_full_width_pattern() {
    assert_eq!(
        run(r#"qustring s = "1011"q; print "1011" in s;"#),
        vec!["true"]
    );
    assert_eq!(
        run(r#"qustring s = "1011"q; print "0000" in s;"#),
        vec!["false"]
    );
}

#[test]
fn grover_in_longer_pattern_than_text() {
    assert_eq!(
        run(r#"qustring s = "01"q; print "0101" in s;"#),
        vec!["false"]
    );
}

#[test]
fn in_condition_controls_flow() {
    let src = r#"
        qustring s = "0110"q;
        if ("11" in s) { print "found"; } else { print "missing"; }
    "#;
    assert_eq!(run(src), vec!["found"]);
}

// ---- quantum control flow -----------------------------------------------------

#[test]
fn quantum_condition_auto_measures() {
    assert_eq!(
        run("qubit q = |1>; if (q) { print \"one\"; } else { print \"zero\"; }"),
        vec!["one"]
    );
    assert_eq!(
        run("quint n = 3q; while (n > 0) { n -= 1; } print n;"),
        vec!["0"]
    );
}

#[test]
fn foreach_over_qustring_qubits() {
    assert_eq!(
        run(r#"qustring s = "000"q; foreach c in s { not c; } print s;"#),
        vec!["111"]
    );
}

#[test]
fn quantum_comparison_measures() {
    assert_eq!(
        run("quint n = 5q; print n == 5; print n != 4; print n >= 5;"),
        vec!["true", "true", "true"]
    );
}

// ---- reproducibility, errors, guards -----------------------------------------

#[test]
fn seeded_runs_reproduce() {
    let src = "quint n = [0, 1, 2, 3]q; print n;";
    assert_eq!(run_seeded(src, 7), run_seeded(src, 7));
}

#[test]
fn runtime_errors_have_positions() {
    let err = fails("int x = 1 / 0;");
    assert!(err.to_string().contains("division by zero"));
    let err = fails("int[] a = [1]; print a[5];");
    assert!(err.to_string().contains("out of bounds"));
}

#[test]
fn infinite_loop_guard() {
    let cfg = RunConfig {
        max_steps: 1000,
        ..RunConfig::default()
    };
    let err = run_source("while (true) { }", &cfg).unwrap_err();
    assert!(err.to_string().contains("exceeded"));
}

#[test]
fn type_errors_are_compile_time() {
    let err = fails("print undeclared;");
    assert!(matches!(err, QutesError::Compile(_)));
    let err = fails("int x = \"not an int\";");
    assert!(matches!(err, QutesError::Compile(_)));
    let err = fails("int x = 1; hadamard x;");
    assert!(matches!(err, QutesError::Compile(_)));
}

#[test]
fn measurements_and_qubits_are_reported() {
    let out = run_source(
        "quint a = 5q; quint b = 3q; quint s = a + b; print s;",
        &RunConfig::default(),
    )
    .unwrap();
    assert!(out.qubits_used >= 7, "qubits {}", out.qubits_used);
    assert_eq!(out.measurements, 1);
    assert!(out.circuit.len() > 10);
}

#[test]
fn circuit_accumulates_measurement_ops() {
    let out = run_source("qubit q = |+>; print q;", &RunConfig::default()).unwrap();
    let has_measure = out
        .circuit
        .ops()
        .iter()
        .any(|g| matches!(g, qutes_qcirc::Gate::Measure { .. }));
    assert!(has_measure);
}

// ---- paper showcase programs (§5) ---------------------------------------------

#[test]
fn paper_example_quantum_types_and_addition() {
    // Figure 1-style program: quantum declarations, superposition, sum.
    let src = r#"
        qubit a = |+>;
        quint b = [1, 2]q;
        quint c = 2q;
        quint sum = b + c;
        print sum;
    "#;
    for seed in 0..6 {
        let v: i64 = run_seeded(src, seed)[0].parse().unwrap();
        assert!(v == 3 || v == 4, "sum = {v}");
    }
}

#[test]
fn paper_example_grover_search() {
    // Figure 2-style program: substring search drives a conditional.
    let src = r#"
        qustring text = "01110"q;
        bool found = "111" in text;
        print found;
    "#;
    assert_eq!(run(src), vec!["true"]);
}

#[test]
fn paper_example_deutsch_jozsa_shape() {
    // The DJ pattern from §5: prepare |->, superpose inputs, query a
    // balanced (parity) oracle via cnot, re-Hadamard, read out.
    let src = r#"
        quint x = 0q;
        qubit y = |->;
        hadamard x;
        cnot x, y;        // balanced oracle f(x) = x (parity of 1 bit)
        hadamard x;
        if (x == 0) { print "constant"; } else { print "balanced"; }
    "#;
    assert_eq!(run(src), vec!["balanced"]);

    let constant = r#"
        quint x = 0q;
        qubit y = |->;
        hadamard x;
        hadamard x;       // constant oracle: no query needed
        if (x == 0) { print "constant"; } else { print "balanced"; }
    "#;
    assert_eq!(run(constant), vec!["constant"]);
}

#[test]
fn paper_example_entanglement_propagation() {
    // Chain: entangle a-b, b-c via gates, ends correlate.
    let src = r#"
        qubit a = |0>;
        qubit b = |0>;
        qubit c = |0>;
        hadamard a;
        cnot a, b;
        cnot b, c;
        print a; print c;
    "#;
    for seed in 0..15 {
        let out = run_seeded(src, seed);
        assert_eq!(out[0], out[1], "GHZ ends must agree (seed {seed})");
    }
}

// ---- paper §6 extensions: multiplication, comparison, min/max -----------------

#[test]
fn quantum_multiplication_basic() {
    assert_eq!(
        run("quint a = 3q; quint b = 5q; quint p = a * b; print p;"),
        vec!["15"]
    );
    assert_eq!(run("quint a = 3q; print a * 2;"), vec!["6"]);
    assert_eq!(run("quint a = 3q; print 4 * a;"), vec!["12"]);
    assert_eq!(run("quint a = 7q; print a * 0;"), vec!["0"]);
}

#[test]
fn quantum_multiplication_preserves_operands() {
    assert_eq!(
        run("quint a = 3q; quint b = 5q; quint p = a * b; print p; print a; print b;"),
        vec!["15", "3", "5"]
    );
}

#[test]
fn superposed_multiplication_is_correlated() {
    // (|1> + |2>) * 3: product in {3, 6}, consistent with the operand.
    for seed in 0..10 {
        let out = run_seeded(
            "quint n = [1, 2]q; quint p = n * 3; int pv = p; int nv = n; print pv; print nv;",
            seed,
        );
        let pv: i64 = out[0].parse().unwrap();
        let nv: i64 = out[1].parse().unwrap();
        assert_eq!(pv, nv * 3, "seed {seed}");
    }
}

#[test]
fn qmin_qmax_builtins() {
    assert_eq!(run("int[] xs = [5, 3, 9, 1]; print qmin(xs);"), vec!["1"]);
    assert_eq!(run("int[] xs = [5, 3, 9, 1]; print qmax(xs);"), vec!["9"]);
    assert_eq!(run("print qmin([7]);"), vec!["7"]);
    for seed in 0..5 {
        let out = run_seeded(
            "int[] xs = [14, 2, 8, 2, 30, 11, 4]; print qmin(xs); print qmax(xs);",
            seed,
        );
        assert_eq!(out, vec!["2", "30"], "seed {seed}");
    }
}

#[test]
fn qmin_errors() {
    assert!(matches!(fails("print qmin(3);"), QutesError::Compile(_)));
    let e = fails("int[] e = []; print qmin(e);");
    assert!(e.to_string().contains("empty"));
}

#[test]
fn teleportation_in_the_language() {
    // |1> teleports exactly: bob always reads true, for every seed.
    let src = r#"
        qubit message = |1>;
        qubit alice = |0>;
        qubit bob = |0>;
        hadamard alice;
        cnot alice, bob;
        cnot message, alice;
        hadamard message;
        bool phase_bit = message;
        bool flip_bit = alice;
        if (flip_bit) { not bob; }
        if (phase_bit) { pauliz bob; }
        print bob;
    "#;
    for seed in 0..25 {
        assert_eq!(run_seeded(src, seed), vec!["true"], "seed {seed}");
    }
}

#[test]
fn teleportation_preserves_superposition_phase() {
    // Teleport |+>; Hadamard at the receiver must give |0> every time.
    let src = r#"
        qubit message = |+>;
        qubit alice = |0>;
        qubit bob = |0>;
        hadamard alice;
        cnot alice, bob;
        cnot message, alice;
        hadamard message;
        bool phase_bit = message;
        bool flip_bit = alice;
        if (flip_bit) { not bob; }
        if (phase_bit) { pauliz bob; }
        hadamard bob;
        print bob;
    "#;
    for seed in 0..25 {
        assert_eq!(run_seeded(src, seed), vec!["false"], "seed {seed}");
    }
}

#[test]
fn bernstein_vazirani_in_the_language() {
    let src = r#"
        quint x = 7q;
        x -= 7;
        qubit y = |->;
        hadamard x;
        cnot x[0], y;
        cnot x[2], y;
        hadamard x;
        print x;
    "#;
    for seed in 0..10 {
        assert_eq!(run_seeded(src, seed), vec!["5"], "seed {seed}");
    }
}

// ---- additional coverage -------------------------------------------------

#[test]
fn nested_arrays() {
    assert_eq!(
        run("int[][] m = [[1, 2], [3, 4]]; print m[1][0]; print m; print len(m[0]);"),
        vec!["3", "[[1, 2], [3, 4]]", "2"]
    );
}

#[test]
fn array_of_quints_measures_elementwise() {
    assert_eq!(
        run("quint[] qs = [1q, 2q, 3q]; print qs[0]; print qs[2];"),
        vec!["1", "3"]
    );
}

#[test]
fn foreach_over_quantum_array_applies_gates() {
    assert_eq!(
        run("qubit[] qs = [0q, 0q]; foreach q in qs { not q; } print qs[0]; print qs[1];"),
        vec!["true", "true"]
    );
}

#[test]
fn function_returning_quantum_value() {
    let src = r#"
        qubit excited() {
            qubit q = |0>;
            not q;
            return q;
        }
        qubit r = excited();
        print r;
    "#;
    assert_eq!(run(src), vec!["true"]);
}

#[test]
fn quantum_parameter_mutation_visible_to_caller() {
    // Quantum arguments are references to the same qubits.
    let src = r#"
        void flip(qubit k) { not k; }
        qubit q = |0>;
        flip(q);
        flip(q);
        flip(q);
        print q;
    "#;
    assert_eq!(run(src), vec!["true"]);
}

#[test]
fn quint_parameter_gates_affect_caller_register() {
    let src = r#"
        void invert(quint r) { not r; }
        quint n = 5q;
        invert(n);
        print n;
    "#;
    assert_eq!(run(src), vec!["2"]);
}

#[test]
fn cast_builtins() {
    assert_eq!(
        run(r#"print int("42") + 1; print float(3) / 2.0; print bool(0); print str(7) + "!";"#),
        vec!["43", "1.5", "false", "7!"]
    );
    assert_eq!(run("quint n = 6q; print int(n) * 2;"), vec!["12"]);
}

#[test]
fn string_cast_keyword_form() {
    assert_eq!(run("print string(12) + \"3\";"), vec!["123"]);
}

#[test]
fn while_over_quantum_counter() {
    // A quint condition is measured each iteration; -= keeps the loop
    // classical-consistent.
    let src = r#"
        quint n = 3q;
        int steps = 0;
        while (n != 0) {
            n -= 1;
            steps += 1;
        }
        print steps;
    "#;
    assert_eq!(run(src), vec!["3"]);
}

#[test]
fn deep_recursion_within_budget() {
    let src = r#"
        int down(int n) {
            if (n == 0) { return 0; }
            return down(n - 1);
        }
        print down(90);
    "#;
    assert_eq!(run(src), vec!["0"]);
}

#[test]
fn runaway_recursion_errors_cleanly() {
    let src = r#"
        int forever(int n) { return forever(n + 1); }
        print forever(0);
    "#;
    let e = fails(src);
    assert!(e.to_string().contains("recursion exceeded"), "{e}");
}

#[test]
fn mixed_quantum_classical_pipeline() {
    // Promote, compute, compare — the full §4 tour in one program.
    // Note: `n + 1` (expression form) grows the register, while `+=`
    // wraps at the current width (modular in-place semantics).
    let src = r#"
        int seed_value = 3;
        quint n = seed_value;
        quint grown = n + 1;
        quint doubled = grown * 2;
        int result = doubled;
        if (result == 8) { print "ok"; } else { print result; }
    "#;
    assert_eq!(run(src), vec!["ok"]);

    // The wrapping behaviour itself, pinned down:
    assert_eq!(run("quint n = 3; n += 1; print n;"), vec!["0"]);
}

#[test]
fn ancilla_pooling_supports_long_arithmetic_chains() {
    // Each += allocates a temp copy + carry; pooling recycles them, so a
    // long chain of register additions stays within the simulator cap.
    let src = r#"
        quint acc = 1q;
        quint step = 1q;
        int i = 0;
        while (i < 20) {
            acc += step;
            i += 1;
        }
        print acc;
    "#;
    let out = run_source(src, &RunConfig::default()).unwrap();
    // acc is 1 qubit wide: (1 + 20) mod 2 = 1.
    assert_eq!(out.output, vec!["1"]);
    // Without pooling this would need ~20 * 2 extra qubits; with pooling
    // the whole program fits in a handful.
    assert!(out.qubits_used <= 8, "qubits used: {}", out.qubits_used);
}

#[test]
fn repeated_grover_searches_reuse_position_registers() {
    let src = r#"
        qustring s = "011010"q;
        bool a = "11" in s;
        bool b = "01" in s;
        bool c = "10" in s;
        print a && b && c;
    "#;
    let out = run_source(
        src,
        &RunConfig {
            seed: 2,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(out.output, vec!["true"]);
    assert!(out.qubits_used <= 12, "qubits used: {}", out.qubits_used);
}
