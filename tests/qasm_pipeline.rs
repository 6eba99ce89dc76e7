//! Integration: Qutes source -> interpreter -> accumulated circuit ->
//! OpenQASM 2 -> importer -> re-execution, checking the exported circuit
//! reproduces the original program's measurement statistics.

use qutes::qasm::{from_qasm2, to_qasm2, to_qasm3};
use qutes::qcirc::run_shots;
use qutes::{run_source, RunConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn circuit_of(src: &str) -> qutes::qcirc::QuantumCircuit {
    run_source(src, &RunConfig::default())
        .unwrap_or_else(|e| panic!("{}", e.render(src)))
        .circuit
}

#[test]
fn bell_program_roundtrips_through_qasm2() {
    let circuit =
        circuit_of("qubit a = |0>; qubit b = |0>; hadamard a; cnot a, b; print a; print b;");
    let text = to_qasm2(&circuit).unwrap();
    let back = from_qasm2(&text).unwrap();
    assert_eq!(back.num_qubits(), circuit.num_qubits());
    assert_eq!(back.num_clbits(), circuit.num_clbits());

    // Re-executing the imported circuit shows the same Bell statistics.
    let mut rng = StdRng::seed_from_u64(5);
    let counts = run_shots(&back, 1000, &mut rng).unwrap();
    // clbits: m0[0] (a), m1[0] (b) -> keys 0b00 and 0b11 only.
    assert_eq!(counts.get(0b00) + counts.get(0b11), 1000);
    assert!(counts.get(0b00) > 350 && counts.get(0b11) > 350);
}

#[test]
fn arithmetic_program_qasm_is_deterministic_on_reexecution() {
    let circuit = circuit_of("quint a = 5q; quint b = 3q; quint s = a + b; print s;");
    let text = to_qasm2(&circuit).unwrap();
    let back = from_qasm2(&text).unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    let counts = run_shots(&back, 64, &mut rng).unwrap();
    // The sum register measurement (creg m0, the only creg) must always
    // read 8.
    let m0_offset = back
        .cregs()
        .iter()
        .find(|r| r.name() == "m0")
        .expect("measurement register")
        .offset();
    for (outcome, count) in counts.iter() {
        assert!(count > 0);
        let sum = (outcome >> m0_offset) & 0xF;
        assert_eq!(sum, 8, "outcome {outcome:b}");
    }
}

#[test]
fn every_showcase_circuit_exports_to_qasm3() {
    for src in [
        "qubit q = [0.6, 0.8]q; print q;",
        "quint n = [1, 2, 3]q; n <<= 1; print n;",
        r#"qustring s = "0110"q; print "11" in s;"#,
        "quint a = 3q; a += 2; a -= 1; print a;",
    ] {
        let circuit = circuit_of(src);
        let text = to_qasm3(&circuit).unwrap();
        assert!(text.contains("OPENQASM 3.0;"), "{src}");
        assert!(text.contains("measure"), "{src}");
    }
}

#[test]
fn every_shipped_example_roundtrips_through_the_qasm2_importer() {
    // The CI `verify-examples` job leans on this: every program we ship
    // must export to OpenQASM 2 and come back through the importer with
    // its register shape intact. `run_source` picks engines like `qutes
    // run` does, so the 100-qubit Clifford examples stay on the tableau.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/programs");
    let mut checked = 0;
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "qut"))
        .collect();
    entries.sort();
    for path in entries {
        let src = std::fs::read_to_string(&path).unwrap();
        let circuit = run_source(&src, &RunConfig::default())
            .unwrap_or_else(|e| panic!("{}: {}", path.display(), e.render(&src)))
            .circuit;
        let text = to_qasm2(&circuit).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let back = from_qasm2(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            back.num_qubits(),
            circuit.num_qubits(),
            "{}",
            path.display()
        );
        assert_eq!(
            back.num_clbits(),
            circuit.num_clbits(),
            "{}",
            path.display()
        );
        to_qasm3(&circuit).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        checked += 1;
    }
    assert!(
        checked >= 12,
        "expected the shipped examples, saw {checked}"
    );
}

#[test]
fn qasm2_exports_avoid_unsupported_gates() {
    // The exporter must lower everything to qelib1-expressible gates,
    // whatever the program used.
    let circuit = circuit_of("quint n = [1, 5]q; quint m = n + 2; print m;");
    let text = to_qasm2(&circuit).unwrap();
    for line in text.lines() {
        let gate = line.split([' ', '(']).next().unwrap_or("");
        assert!(
            !gate.starts_with("mc"),
            "multi-controlled gate leaked into QASM2: {line}"
        );
    }
    // And the result must re-import cleanly.
    from_qasm2(&text).unwrap();
}
