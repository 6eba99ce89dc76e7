//! Cross-checks the static resource estimator against the real pipeline:
//! for every circuit-building example the estimator marks *exact*, the
//! predicted qubit/gate/measurement counts must equal what an actual run
//! records in `qcirc` metrics, and depth must be a sound upper bound.

#[path = "../crates/core/tests/common/generator.rs"]
mod generator;

use qutes::analysis::estimate;
use qutes::qcirc::BackendChoice;
use qutes::{parse, RunConfig};
use std::path::Path;

/// Examples whose control flow is measurement-independent enough for the
/// estimator to produce exact counts. The acceptance bar is >= 5 programs.
const EXACT_EXAMPLES: &[&str] = &[
    "adder",
    "bell",
    "bernstein_vazirani",
    "cyclic_shift",
    "deutsch_jozsa",
    "entanglement",
    "fib",
    "minmax",
];

fn example_source(name: &str) -> String {
    let path = format!(
        "{}/examples/programs/{name}.qut",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Lint-corpus programs: small shapes (kets, amplitude literals,
/// promotions, aliasing) that the exact examples do not exercise.
const CORPUS_PROGRAMS: &[&str] = &[
    "aliasing",
    "builtin_shadow",
    "clean",
    "constant_condition",
    "dirty_ancilla",
    "foreach_shadow",
    "global_measured_in_function",
    "lossy_cast",
    "nested_block_argument",
    "param_shadow",
    "recursion",
    "shadow_nested_block",
    "sibling_blocks",
    "unreachable",
    "unused_measurement",
    "unused_variable",
    "use_after_measurement",
    "wrapper_call",
];

fn corpus_source(name: &str) -> String {
    let path = format!(
        "{}/tests/lint_corpus/{name}.qut",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn cross_check(name: &str, seed: u64) {
    cross_check_source(name, &example_source(name), seed);
}

fn cross_check_source(name: &str, source: &str, seed: u64) {
    let program = parse(source).expect("example parses");
    let est = estimate(&program);

    let cfg = RunConfig {
        seed,
        ..RunConfig::default()
    };
    let out = qutes::run_source(source, &cfg).expect("example runs");

    assert!(
        est.exact,
        "{name}: expected an exact estimate, got upper bound ({:?})",
        est.notes
    );
    assert_eq!(
        est.qubits,
        out.circuit.num_qubits(),
        "{name}: qubit count mismatch"
    );
    assert_eq!(est.qubits, out.qubits_used, "{name}: qubits_used mismatch");
    assert_eq!(est.gates, out.circuit.size(), "{name}: gate count mismatch");
    assert_eq!(
        est.measurements, out.measurements,
        "{name}: measurement count mismatch"
    );
    // Depth is promised as an upper bound; for exact estimates it must be
    // the true scheduled depth.
    assert_eq!(est.depth, out.circuit.depth(), "{name}: depth mismatch");
}

#[test]
fn exact_examples_match_real_circuit_metrics() {
    for name in EXACT_EXAMPLES {
        cross_check(name, 0);
    }
}

#[test]
fn corpus_programs_match_real_circuit_metrics() {
    for name in CORPUS_PROGRAMS {
        cross_check_source(name, &corpus_source(name), 0);
    }
    let listed = std::fs::read_dir(format!("{}/tests/lint_corpus", env!("CARGO_MANIFEST_DIR")))
        .expect("corpus dir exists")
        .filter(|e| {
            e.as_ref()
                .is_ok_and(|e| e.path().extension().is_some_and(|x| x == "qut"))
        })
        .count();
    assert_eq!(
        listed,
        CORPUS_PROGRAMS.len(),
        "every corpus program is cross-checked"
    );
    // Known values fold with the runtime's own operations, so a branch
    // on a folded value takes the side the run takes: `str(1.0)` is
    // "1.0", and `-i64::MIN` wraps to itself.
    cross_check_source(
        "str of a float",
        "string s = str(1.0);\nif (s == \"1\") { qubit a = |1>; print a; }\n",
        0,
    );
    cross_check_source(
        "negated minimum",
        "int m = -9223372036854775807 - 1;\nint y = -m;\n\
         if (y < 0) { qubit a = |1>; print a; }\n",
        0,
    );
    // Arrays are shared cells, as in the runtime: a write through any
    // alias decides the branch, and the run builds the 17-qubit sum.
    for (name, prefix, read) in [
        (
            "array alias",
            "int[] a = [0];\nint[] b = a;\nb[0] = 1;\n",
            "a[0]",
        ),
        (
            "callee writes a copy of its parameter",
            "int[] a = [0];\nvoid set(int[] xs) { int[] ys = xs; ys[0] = 1; }\nset(a);\n",
            "a[0]",
        ),
        (
            "returned argument",
            "int[] a = [0];\nint[] same(int[] xs) { return xs; }\n\
             int[] b = same(a);\nb[0] = 1;\n",
            "a[0]",
        ),
        (
            "nested element",
            "int[][] grid = [[0]];\nint[] row = grid[0];\nrow[0] = 1;\n",
            "grid[0][0]",
        ),
        (
            "loop variable of an alias",
            "int[] a = [0];\nint[] b = a;\nforeach x in b { x = 1; }\n",
            "a[0]",
        ),
        (
            "callee writes its parameter",
            "int[] a = [0];\nvoid set(int[] xs) { xs[0] = 1; }\nset(a);\n",
            "a[0]",
        ),
    ] {
        let source =
            format!("{prefix}if ({read} == 1) {{ quint big = 200; big = big + 3; print big; }}\n");
        cross_check_source(name, &source, 0);
        // The sum is not Clifford, so the tableau is not promised.
        let predicted = qutes::resolve_backend(&source, &RunConfig::default());
        assert_eq!(predicted, BackendChoice::Statevector, "{name}");
    }
}

/// Measurement outcomes steer classical control flow in some examples
/// (e.g. `deutsch_jozsa` branches on the measured value). An *exact*
/// estimate claims the circuit shape is outcome-independent, so the
/// cross-check must hold under different seeds too.
#[test]
fn exact_estimates_are_seed_independent() {
    for seed in [1, 7, 42] {
        cross_check("deutsch_jozsa", seed);
        cross_check("bell", seed);
    }
}

/// Programs the estimator cannot bound exactly must still produce a sound
/// *upper* bound on every metric.
#[test]
fn inexact_estimates_are_upper_bounds() {
    for name in ["grover", "teleport", "fib"] {
        check_upper_bound(name, &example_source(name), 3);
    }
    let programs = [
        // A loop whose trip count is unknown calls a function that writes
        // a global: after the loop the global is unknown, so both sides of
        // the `if` count.
        (
            "global written by a call",
            "int g = 0;\nvoid bump() { g = g + 1; }\n\
             qubit q = |+>;\nbool n = q;\nwhile (n && g < 1) { bump(); }\n\
             if (g == 0) { quint big = 200; print big; }\n",
        ),
        // The loop havoc forgets only the globals its callees may write:
        // here `bump` writes `h`, so `g` stays known.
        (
            "other global written",
            "int g = 0;\nint h = 0;\nvoid bump() { h = h + 1; }\n\
             qubit q = |+>;\nbool n = q;\nwhile (n && h < 1) { bump(); }\n\
             if (g == 0) { quint big = 200; print big; }\n",
        ),
        // ...but a global written by a callee's callee is forgotten too.
        (
            "global written transitively",
            "int g = 0;\nvoid bump() { g = g + 1; }\nvoid wrap() { bump(); }\n\
             qubit q = |+>;\nbool n = q;\nwhile (n && g < 1) { wrap(); }\n\
             if (g == 0) { quint big = 200; print big; }\n",
        ),
        // The condition runs on every iteration too.
        (
            "global written by the loop condition",
            "int g = 0;\nqubit q = |+>;\nbool n = q;\n\
             bool tick() { g += 1; return n && g < 3; }\nwhile (tick()) { }\n\
             if (g == 1) { print g; } else { quint big = 200; print big; }\n",
        ),
        // A foreach variable shares its element's cell, so a loop (or a
        // callee) that writes it on a later iteration writes the iterable.
        (
            "written through a loop variable",
            "int[] xs = [0];\nint c = 0;\nqubit q = |+>;\nbool n = q;\n\
             while (n && c < 2) {\nif (c == 1) { foreach v in xs { v = 1; } }\nc += 1;\n}\n\
             if (xs[0] == 1) { quint big = 200; print big; }\n",
        ),
        (
            "callee writes through a loop variable",
            "int[] xs = [0];\nvoid set_all() { foreach v in xs { v = 1; } }\n\
             int c = 0;\nqubit q = |+>;\nbool n = q;\n\
             while (n && c < 2) {\nif (c == 1) { set_all(); }\nc += 1;\n}\n\
             if (xs[0] == 1) { quint big = 200; print big; }\n",
        ),
        // An element read shares the inner array's cells, so the loop
        // variable of a `foreach` over `grid[0]` writes `grid`.
        (
            "written through a nested loop variable",
            "int[][] grid = [[0]];\nint c = 0;\nqubit q = |+>;\nbool n = q;\n\
             while (n && c < 2) {\nif (c == 1) { foreach v in grid[0] { v = 1; } }\nc += 1;\n}\n\
             if (grid[0][0] == 1) { quint big = 200; print big; }\n",
        ),
        (
            "written through a doubly nested loop variable",
            "int[][][] cube = [[[0]]];\nforeach v in cube[0][0] { v = 1; }\n\
             if (cube[0][0][0] == 1) { quint big = 200; print big; }\n",
        ),
        (
            "callee writes through a nested loop variable",
            "int[][] grid = [[0]];\nvoid set_all() { foreach v in grid[0] { v = 1; } }\n\
             int c = 0;\nqubit q = |+>;\nbool n = q;\n\
             while (n && c < 2) {\nif (c == 1) { set_all(); }\nc += 1;\n}\n\
             if (grid[0][0] == 1) { quint big = 200; print big; }\n",
        ),
        // A declaration shares the array it is initialised from, so the
        // callee's local `a` writes the global `g`.
        (
            "callee writes through an array alias",
            "int[] g = [0];\nvoid set_alias() { int[] a = g; a[0] = 1; }\n\
             int c = 0;\nqubit q = |+>;\nbool n = q;\n\
             while (n && c < 2) {\nif (c == 1) { set_alias(); }\nc += 1;\n}\n\
             if (g[0] == 1) { quint big = 200; print big; }\n",
        ),
        // An element passed by value still shares its cells with `grid`.
        (
            "callee writes an element passed to it",
            "int[][] grid = [[0]];\nvoid set_first(int[] p) { p[0] = 1; }\n\
             int c = 0;\nqubit q = |+>;\nbool n = q;\n\
             while (n && c < 2) {\nif (c == 1) { set_first(grid[0]); }\nc += 1;\n}\n\
             if (grid[0][0] == 1) { quint big = 200; print big; }\n",
        ),
        (
            "callee writes an element through a loop variable",
            "int[][] grid = [[0]];\nvoid set_all(int[] p) { foreach v in p { v = 1; } }\n\
             int c = 0;\nqubit q = |+>;\nbool n = q;\n\
             while (n && c < 2) {\nif (c == 1) { set_all(grid[0]); }\nc += 1;\n}\n\
             if (grid[0][0] == 1) { quint big = 200; print big; }\n",
        ),
        // A loop may rebind a register variable to other qubits, so after
        // its havoc the gates on `a` may land on `r`'s wire.
        (
            "register rebound by a loop",
            "qubit a = |0>; qubit r = |0>; qubit q = |+>; bool m = q; int c = 0;\n\
             while (m && c < 2) { if (c == 1) { a = r; } c += 1; }\n\
             hadamard a; hadamard a; hadamard r; hadamard r;\n",
        ),
        // ...and so may one side of a measurement-dependent branch.
        (
            "register rebound by one branch",
            "qubit a = |0>; qubit r = |0>; qubit q = |+>; bool m = q;\n\
             if (m) { int z = 0; } else { a = r; }\n\
             hadamard a; hadamard a; hadamard r; hadamard r;\n",
        ),
        // The same with wider registers: a gate, measurement, addition
        // or shift on a register of unknown qubits is counted at the
        // widest register a run can hold.
        (
            "quint rebound by a loop",
            "quint a = 3; quint r = 3; qubit q = |+>; bool m = q; int c = 0;\n\
             while (m && c < 2) { if (c == 1) { a = r; } c += 1; }\n\
             hadamard a; hadamard r;\n",
        ),
        (
            "quint rebound by one branch",
            "quint a = 3; quint r = 3; qubit q = |+>; bool m = q;\n\
             if (m) { int z = 0; } else { a = r; }\n\
             hadamard a; hadamard r;\n",
        ),
        (
            "arithmetic on a rebound quint",
            "quint a = 3; quint r = 12; qubit q = |+>; bool m = q; int c = 0;\n\
             while (m && c < 2) { if (c == 1) { a = r; } c += 1; }\n\
             a += 5; r -= 1; quint s = a + r; quint p = a * 2; a <<= 1; rotl(a, 1);\n\
             quint t = a << 2; cnot q, a; print a; print s;\n",
        ),
        (
            "qustring rebound by one branch",
            "qustring a = \"01\"; qustring r = \"0110\"; qubit q = |+>; bool m = q;\n\
             if (m) { int z = 0; } else { a = r; }\n\
             hadamard a; pauliz a; hadamard r; print a;\n",
        ),
        (
            "search in a rebound qustring",
            "qustring a = \"01\"; qustring r = \"0110\"; qubit q = |+>; bool m = q;\n\
             if (m) { int z = 0; } else { a = r; }\n\
             bool f = \"11\" in a; print f;\n",
        ),
        // A register promoted from a run-dependent int stands in as the
        // widest a run can promote (i64::MAX, 63 qubits), whether the
        // estimator knows the value is an int or has lost its type.
        (
            "quint promoted from a run-dependent int",
            "qubit q = |+>; int n = int(q) + 6; quint a = n; hadamard a;\n",
        ),
        (
            "quint promoted from an element at an unknown index",
            "int[] xs = [200, 1]; qubit q = |+>; int i = int(q); quint a = xs[i]; hadamard a;\n",
        ),
        // An element read at an unknown index loses its type, so the `in`
        // may be a Grover search over any register.
        (
            "search in an element at an unknown index",
            "qustring[] ts = [\"0110\"q]; qubit q = |+>; int i = int(q);\n\
             bool f = \"11\" in ts[i - i]; print f;\n",
        ),
        // A return from inside a `foreach` keeps what the loop variable
        // wrote.
        (
            "loop variable written before a return",
            "int[] xs = [0];\n\
             int first(int[] ys) { foreach v in ys { v = 1; return 0; } return 1; }\n\
             int r = first(xs);\nif (xs[0] == 1) { quint big = 200; print big; }\n",
        ),
        // A shift by a run-dependent amount stands in as the amount with
        // the most swaps (runs at seeds 2 and 4 reach depth 5).
        (
            "quint shifted by a measured amount",
            "quint a = 5; int s = 0; qubit q = |+>; bool m = q; if (m) { s = 1; }\n\
             a = a << s; print a;\n",
        ),
        // A run-dependent bool promoted to a qubit stands in as `true`,
        // whose promotion emits an X (runs at seeds 2 and 4 emit 5 gates).
        (
            "qubit promoted from a measured bool",
            "qubit q = |+>; bool b = q; qubit r = b; hadamard r; print r;\n",
        ),
        ("width of a rebound quint", WIDTH_OF_REBOUND_QUINT),
    ];
    for seed in 1..=4 {
        for (name, source) in programs {
            check_upper_bound(name, source, seed);
        }
    }
    // `width` of a register of unknown qubits is an unknown int, so the
    // walk goes on and the estimate bounds the runs.
    let est = estimate(&parse(WIDTH_OF_REBOUND_QUINT).expect("program parses"));
    assert!(!est.exact && !est.partial, "notes: {:?}", est.notes);
}

/// `a` is a register of unknown qubits after the branch; its runs build
/// 7 ops at depth 3.
const WIDTH_OF_REBOUND_QUINT: &str = "quint a = 3; quint r = 3; qubit q = |+>; bool m = q;\n\
     if (m) { int z = 0; } else { a = r; }\n\
     int w = width(a); if (w == 2) { hadamard q; }\n";

/// When a block or an explored world ends, the cells it made that
/// nothing outside it reaches are dropped, and a variable it passed by
/// reference goes back to its slot, so measurement-dependent worlds that
/// differ only there still merge exactly. A write through an unknown
/// index forgets the cells every alias of the array sees.
#[test]
fn shared_cells_merge_exactly_and_forget_soundly() {
    let measured = "qubit q = |+>;\nbool m = q;\n";
    let big = "if (a[0] == 1) { quint big = 200; big = big + 3; print big; }\n";
    for (name, body) in [
        (
            "dead arrays in both branches",
            "int[] a = [1];\n\
             if (m) { int[] t = [1]; print t[0]; } else { int[] t = [2, 3]; print t[1]; }\n",
        ),
        (
            "by-reference call in one branch",
            "int[] a = [1];\nint first(int[] xs) { return xs[0]; }\n\
             if (m) { int s = first(a); print s; }\n",
        ),
        (
            "by-reference call on a condition's right side",
            "int[] a = [1];\nint first(int[] xs) { return xs[0]; }\n\
             bool t = m && first(a) == 1;\n",
        ),
    ] {
        for seed in 0..4 {
            cross_check_source(name, &format!("{measured}{body}{big}"), seed);
        }
    }
    let unknown_index =
        format!("{measured}int[] a = [0, 0];\nint[] b = a;\nint i = int(q);\nb[i] = 1;\n{big}");
    for seed in 0..8 {
        check_upper_bound("write through an unknown index", &unknown_index, seed);
    }
}

/// Every program whose estimate `tests/golden/estimates.txt` pins (the
/// examples, the lint corpus, the interpreter programs and the 200
/// generated programs) that runs under the default configuration: at
/// seeds 0-3, an exact estimate equals the run's circuit, an upper bound
/// is at least it, and a partial estimate claims nothing.
#[test]
fn estimates_hold_on_every_estimated_program() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut programs = Vec::new();
    for dir in [
        "examples/programs",
        "tests/lint_corpus",
        "tests/interp_programs",
    ] {
        let entries =
            std::fs::read_dir(root.join(dir)).unwrap_or_else(|e| panic!("read {dir}: {e}"));
        for entry in entries {
            let path = entry.expect("readable entry").path();
            if path.extension().is_some_and(|e| e == "qut") {
                let source = std::fs::read_to_string(&path).expect("program reads");
                programs.push((path.display().to_string(), source));
            }
        }
    }
    programs
        .extend((0..200).map(|seed| (format!("generated seed {seed}"), generator::generate(seed))));
    let (mut exact, mut bounded, mut partial) = (0, 0, 0);
    for (name, source) in &programs {
        let Ok(program) = parse(source) else {
            continue;
        };
        let est = estimate(&program);
        for seed in 0..4 {
            let cfg = RunConfig {
                seed,
                ..RunConfig::default()
            };
            let Ok(out) = qutes::run_source(source, &cfg) else {
                continue;
            };
            let c = &out.circuit;
            let run = [c.num_qubits(), c.size(), c.depth(), out.measurements];
            let claimed = [est.qubits, est.gates, est.depth, est.measurements];
            if est.exact {
                exact += 1;
                assert_eq!(claimed, run, "{name} (seed {seed}): exact estimate differs");
                assert_eq!(est.qubits, out.qubits_used, "{name} (seed {seed})");
            } else if est.partial {
                partial += 1;
            } else {
                bounded += 1;
                let below = claimed.iter().zip(&run).any(|(e, r)| e < r);
                assert!(
                    !below,
                    "{name} (seed {seed}): bound {claimed:?} below run {run:?}"
                );
            }
        }
    }
    assert!(
        exact > 400 && bounded > 0 && partial > 0,
        "{exact} exact, {bounded} bounded and {partial} partial runs checked"
    );
}

fn check_upper_bound(name: &str, source: &str, seed: u64) {
    let program = parse(source).expect("program parses");
    let est = estimate(&program);
    let cfg = RunConfig {
        seed,
        ..RunConfig::default()
    };
    let out = qutes::run_source(source, &cfg).expect("program runs");
    assert!(
        est.qubits >= out.circuit.num_qubits(),
        "{name} (seed {seed}): qubit bound too low"
    );
    assert!(
        est.gates >= out.circuit.size(),
        "{name} (seed {seed}): gate bound too low"
    );
    assert!(
        est.depth >= out.circuit.depth(),
        "{name} (seed {seed}): depth bound too low"
    );
    assert!(
        est.measurements >= out.measurements,
        "{name} (seed {seed}): measurement bound too low"
    );
}

#[test]
fn estimate_summary_mentions_exactness() {
    let program = parse("qubit q = |+>; print q;").expect("parses");
    let est = estimate(&program);
    assert!(est.exact);
    let s = est.summary();
    assert!(s.contains("exact"), "summary: {s}");
    assert!(s.contains("1 qubit"), "summary: {s}");
}
