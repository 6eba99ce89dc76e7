//! Cross-checks the static resource estimator against the real pipeline:
//! for every circuit-building example the estimator marks *exact*, the
//! predicted qubit/gate/measurement counts must equal what an actual run
//! records in `qcirc` metrics, and depth must be a sound upper bound.

use qutes::analysis::estimate;
use qutes::{parse, RunConfig};

/// Examples whose control flow is measurement-independent enough for the
/// estimator to produce exact counts. The acceptance bar is >= 5 programs.
const EXACT_EXAMPLES: &[&str] = &[
    "adder",
    "bell",
    "bernstein_vazirani",
    "cyclic_shift",
    "deutsch_jozsa",
    "entanglement",
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
    "clean",
    "constant_condition",
    "dirty_ancilla",
    "lossy_cast",
    "unreachable",
    "unused_measurement",
    "unused_variable",
    "use_after_measurement",
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
        let path = format!(
            "{}/examples/programs/{name}.qut",
            env!("CARGO_MANIFEST_DIR")
        );
        let Ok(source) = std::fs::read_to_string(&path) else {
            continue; // example set may not ship every name
        };
        check_upper_bound(name, &source, 3);
    }
    // A loop whose trip count is unknown calls a function that writes a
    // global: after the loop the global is unknown, so both sides of the
    // `if` count.
    let global_written_by_a_call = "int g = 0;\nvoid bump() { g = g + 1; }\n\
         qubit q = |+>;\nbool n = q;\nwhile (n && g < 1) { bump(); }\n\
         if (g == 0) { quint big = 200; print big; }\n";
    for seed in 1..=4 {
        check_upper_bound("global written by a call", global_written_by_a_call, seed);
    }
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
