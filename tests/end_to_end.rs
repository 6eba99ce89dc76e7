//! Workspace-level integration tests: run the shipped `.qut` example
//! programs through the whole stack (frontend -> type checker ->
//! interpreter -> simulator) and check their observable behaviour.

use qutes::{run_source, RunConfig};
use std::fs;
use std::path::Path;

fn program(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("examples/programs")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"))
}

fn run_seeded(src: &str, seed: u64) -> Vec<String> {
    run_source(
        src,
        &RunConfig {
            seed,
            ..RunConfig::default()
        },
    )
    .unwrap_or_else(|e| panic!("run failed:\n{}", e.render(src)))
    .output
}

#[test]
fn all_shipped_programs_parse_and_typecheck() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/programs");
    let mut count = 0;
    for entry in fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "qut") {
            let src = fs::read_to_string(&path).unwrap();
            let parsed =
                qutes::parse(&src).unwrap_or_else(|e| panic!("{path:?} failed to parse: {e:?}"));
            let diags = qutes::core::check_program(&parsed);
            assert!(diags.is_empty(), "{path:?} has type errors: {diags:?}");
            count += 1;
        }
    }
    assert!(count >= 7, "expected the shipped programs, found {count}");
}

#[test]
fn bell_outcomes_agree() {
    for seed in 0..20 {
        let out = run_seeded(&program("bell.qut"), seed);
        assert_eq!(out[0], out[1], "seed {seed}");
    }
}

#[test]
fn adder_respects_superposition() {
    for seed in 0..10 {
        let out = run_seeded(&program("adder.qut"), seed);
        let sum: i64 = out[0].parse().unwrap();
        let a: i64 = out[1].parse().unwrap();
        let b: i64 = out[2].parse().unwrap();
        assert_eq!(sum, a + b, "seed {seed}: {out:?}");
        assert!(a == 1 || a == 2);
        assert_eq!(b, 3);
    }
}

#[test]
fn grover_program_finds_substring() {
    for seed in 0..6 {
        assert_eq!(run_seeded(&program("grover.qut"), seed), vec!["found"]);
    }
}

#[test]
fn deutsch_jozsa_program_is_deterministic() {
    for seed in 0..6 {
        assert_eq!(
            run_seeded(&program("deutsch_jozsa.qut"), seed),
            vec!["balanced"]
        );
    }
}

#[test]
fn entanglement_ends_correlate() {
    for seed in 0..20 {
        let out = run_seeded(&program("entanglement.qut"), seed);
        assert_eq!(out[0], out[1], "seed {seed}");
    }
}

#[test]
fn cyclic_shift_program() {
    assert_eq!(run_seeded(&program("cyclic_shift.qut"), 0), vec!["12"]);
}

#[test]
fn fib_program() {
    assert_eq!(
        run_seeded(&program("fib.qut"), 0),
        vec!["0", "1", "1", "2", "3", "5", "8", "13", "21", "34"]
    );
}

#[test]
fn language_tour_covers_the_reference_manual() {
    // One runnable example per construct in docs/LANGUAGE.md; every
    // printed line is seed-independent.
    let expected: Vec<&str> = vec![
        "6", "1", "qutes", "3", "8", "1", "true", "true", "true", "two", "3", "6", "99", "8", "3",
        "found", "2", "1", "false", "true", "false", "1", "0", "2", "1", "1", "2", "1", "43",
        "true", "true", "5!", "6?", "2", "9",
    ];
    for seed in [0, 7, 42] {
        let out = run_seeded(&program("language_tour.qut"), seed);
        assert_eq!(out, expected, "seed {seed}");
    }
}

#[test]
fn recycled_state_storage_leaves_noisy_histograms_unchanged() {
    // Each thread reuses the storage of the states it dropped; twenty
    // noisy runs on this thread must each give the histogram a thread
    // with no spare storage gives.
    let run = || {
        let config = RunConfig {
            seed: 7,
            noise: Some(qutes::sim::NoiseModel::depolarizing(0.01)),
            shots: 16,
            shot_threads: 1,
            ..RunConfig::default()
        };
        let src = "quint a = [0, 2, 7]q;\nquint b = [1, 3]q;\nquint s = a + b;\nprint s;\n";
        let out = run_source(src, &config).unwrap_or_else(|e| panic!("{}", e.render(src)));
        (out.output, out.counts.map(|c| c.to_string()))
    };
    let fresh = std::thread::spawn(run).join().unwrap();
    assert!(fresh.1.is_some());
    for _ in 0..20 {
        assert_eq!(run(), fresh);
    }
}

#[test]
fn facade_reexports_cover_the_stack() {
    // Spot-check the public API surface through the facade.
    let mut c = qutes::qcirc::QuantumCircuit::with_qubits(2);
    c.h(0).unwrap().cx(0, 1).unwrap();
    let sv = qutes::qcirc::statevector(&c).unwrap();
    assert!((sv.norm_sqr() - 1.0).abs() < 1e-12);
    let qasm = qutes::to_qasm2(&c).unwrap();
    assert!(qasm.contains("OPENQASM 2.0"));
    let back = qutes::qasm::from_qasm2(&qasm).unwrap();
    assert_eq!(back.num_qubits(), 2);
    assert_eq!(qutes::algos::grover::optimal_iterations(16, 1), 3);
}
