//! Differential test for dispatch by promotion: an `Auto` run must be
//! indistinguishable from a run forced onto the engine it ended on.
//!
//! A noise-free `Auto` run starts on the tableau and, at its first
//! non-Clifford gate, replays the recorded circuit into a statevector.
//! When nothing was measured before that gate the tableau drew no
//! randomness, so the promoted run must print and histogram exactly
//! what a forced `--backend statevector` run prints, byte for byte, at
//! every seed, shot count and optimization level. Runs that never
//! promote must match a forced tableau run. (A run that measured before
//! promoting draws the RNG differently on purpose; `tests/dispatch.rs`
//! pins one.)

use qutes::qcirc::{BackendChoice, BackendKind, Gate, QuantumCircuit};
use qutes::{run_source, QutesError, RunConfig, RunOutcome};
use std::path::Path;
use std::time::{Duration, Instant};

/// Programs with a long Clifford prefix before their first non-Clifford
/// gate and no measurement before it.
const HAND_WRITTEN: [&str; 4] = [
    // Clifford layers on a register, then one T-angle phase.
    "qustring s = \"0110\"q;\nhadamard s;\nint i = 0;\nwhile (i < 3) {\n    \
     cnot s[i], s[i + 1];\n    pauliz s[i];\n    i += 1;\n}\npauliy s[0];\n\
     phase(s[2], pi / 4);\nhadamard s;\nprint s;\n",
    // A GHZ prefix entangled with a register that arithmetic then uses.
    "qubit c = |+>;\nquint a = 5q;\ncnot c, a[0];\ncnot c, a[1];\nhadamard c;\n\
     a += 3;\nprint a;\nprint c;\n",
    // Clifford work first, then an amplitude literal (a rotation).
    "qubit x = |->;\nqubit y = |0>;\ncnot x, y;\nhadamard x;\nnot y;\n\
     qubit r = [0.6, 0.8]q;\ncnot r, y;\nprint x;\nprint y;\nprint r;\n",
    // A Clifford-prepared text searched with Grover (`in`).
    "qustring t = \"0000000\"q;\nnot t[1];\nnot t[2];\nnot t[4];\n\
     if (\"101\" in t) { print \"found\"; } else { print \"missing\"; }\n",
];

fn corpus() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut programs = Vec::new();
    for dir in ["examples/programs", "tests/lint_corpus"] {
        let mut paths: Vec<_> = std::fs::read_dir(root.join(dir))
            .unwrap_or_else(|e| panic!("{dir}: {e}"))
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "qut"))
            .collect();
        paths.sort();
        for p in paths {
            let src = std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("{p:?}: {e}"));
            programs.push((p.display().to_string(), src));
        }
    }
    for (k, src) in HAND_WRITTEN.iter().enumerate() {
        programs.push((format!("hand-written #{k}"), src.to_string()));
    }
    programs
}

/// True when the circuit measures before its first non-Clifford gate.
fn measures_before_promotion(circuit: &QuantumCircuit) -> bool {
    circuit
        .ops()
        .iter()
        .take_while(|g| g.is_clifford())
        .any(|g| matches!(g, Gate::Measure { .. }))
}

/// Everything a user sees of a run, as text.
fn observable(result: &Result<RunOutcome, QutesError>) -> String {
    match result {
        Ok(out) => format!(
            "{:?}\n{}\ndegraded={}",
            out.output,
            out.counts
                .as_ref()
                .map(|c| c.to_string())
                .unwrap_or_default(),
            out.degraded
        ),
        Err(e) => format!("error: {e}"),
    }
}

#[test]
fn auto_matches_the_engine_it_ended_on() {
    let mut promoted = Vec::new();
    for (name, src) in corpus() {
        for seed in 0..9u64 {
            // `opt_level` shapes only the shot replay. The tour's replay
            // (25 mid-circuit measurements on 19 qubits) takes seconds,
            // so only its live runs are compared.
            let replays: &[(usize, u8)] = if name.ends_with("language_tour.qut") {
                &[(0, 1)]
            } else {
                &[(0, 1), (100, 0), (100, 1), (100, 2)]
            };
            for &(shots, opt_level) in replays {
                let cfg = RunConfig {
                    seed,
                    shots,
                    opt_level,
                    ..RunConfig::default()
                };
                let auto = run_source(&src, &cfg);
                let ended = match &auto {
                    Ok(out) => out.backend,
                    // Refusals before any quantum work: compare on the
                    // engine `Auto` starts on.
                    Err(_) => BackendKind::Tableau,
                };
                if ended == BackendKind::Statevector {
                    let out = auto.as_ref().expect("ended on an engine");
                    if measures_before_promotion(&out.circuit) {
                        continue;
                    }
                    if !promoted.contains(&name) {
                        promoted.push(name.clone());
                    }
                }
                let forced = RunConfig {
                    backend: match ended {
                        BackendKind::Statevector => BackendChoice::Statevector,
                        BackendKind::Tableau => BackendChoice::Tableau,
                    },
                    ..cfg.clone()
                };
                assert_eq!(
                    observable(&auto),
                    observable(&run_source(&src, &forced)),
                    "{name}: seed {seed}, shots {shots}, -O{opt_level}, ended on {ended}"
                );
            }
        }
    }
    // Every hand-written program and the non-Clifford examples promote.
    for must in [
        "adder.qut",
        "bernstein_vazirani.qut",
        "grover.qut",
        "minmax.qut",
        "hand-written #0",
        "hand-written #1",
        "hand-written #2",
        "hand-written #3",
    ] {
        assert!(
            promoted.iter().any(|p| p.ends_with(must)),
            "{must} was never compared after promotion: {promoted:?}"
        );
    }
}

#[test]
fn deadline_after_promotion_is_typed() {
    // A short Clifford prefix promotes at once; the statevector work
    // after it (Grover rounds over a 16-qubit text) outlives the
    // budget. The run must stop with a typed interrupt, or a degraded
    // partial histogram, never run to completion unbounded.
    let src = format!(
        "qustring t = \"{}\"q;\nhadamard t[0];\nphase(t[0], pi / 4);\n\
         int k = 0;\nwhile (k < 1000) {{\n    if (\"1111\" in t) {{ k += 1; }} else {{ k += 1; }}\n}}\n\
         print t;\n",
        "0".repeat(16)
    );
    let cfg = RunConfig {
        shots: 1000,
        time_budget: Some(Duration::from_millis(20)),
        ..RunConfig::default()
    };
    let started = Instant::now();
    match run_source(&src, &cfg) {
        Err(QutesError::Interrupted(_)) => {}
        Ok(out) => assert!(out.degraded, "finished unbounded: {:?}", out.output),
        Err(e) => panic!("expected a typed interrupt, got {e}"),
    }
    // The interpreter checks the deadline only every 16 statements, and
    // each `in` search is one statement of many kernel calls: only the
    // promoted state's kernels see the deadline promptly.
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "the deadline was observed only after {:?}",
        started.elapsed()
    );
}
