//! Backend-dispatch regression tests: pin the engine a run *ends on*
//! through [`qutes::run_source`] (reported as [`RunOutcome::backend`]
//! and by the `backend.*` counters) on the shipped `ghz_100.qut` and
//! close variants of it. Under `Auto` a noise-free run starts on the
//! tableau and is promoted to the statevector at its first non-Clifford
//! gate, so a change that re-routes programs shows up as a diff here.

#[path = "../crates/core/tests/common/generator.rs"]
mod generator;

use qutes::qcirc::{BackendChoice, BackendKind, CircError};
use qutes::{obs, resolve_backend, run_source, QutesError, RunConfig, RunOutcome};
use std::fs;
use std::path::Path;
use std::sync::{Mutex, MutexGuard};

fn ghz_100() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/programs/ghz_100.qut");
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"))
}

/// The obs collector is process-global: every test here takes this lock
/// so counters read by one test are not bumped by another.
fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn counter(snap: &obs::Snapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

/// Runs `src` with the collector on and returns the result with the
/// run's snapshot.
fn observed(src: &str, cfg: &RunConfig) -> (Result<RunOutcome, QutesError>, obs::Snapshot) {
    obs::reset();
    obs::set_enabled(true);
    let out = run_source(src, cfg);
    let snap = obs::snapshot();
    obs::set_enabled(false);
    (out, snap)
}

fn ends_on(src: &str, cfg: &RunConfig) -> (BackendKind, u64) {
    let (out, snap) = observed(src, cfg);
    let out = out.unwrap_or_else(|e| panic!("{}", e.render(src)));
    let counted = match out.backend {
        BackendKind::Tableau => "backend.tableau",
        BackendKind::Statevector => "backend.statevector",
    };
    assert_eq!(counter(&snap, counted), 1, "one run, one engine");
    (out.backend, counter(&snap, "backend.promoted"))
}

#[test]
fn pristine_ghz_100_dispatches_to_tableau() {
    let _lock = serialize();
    let (engine, promoted) = ends_on(&ghz_100(), &RunConfig::default());
    assert_eq!(engine, BackendKind::Tableau);
    assert_eq!(promoted, 0);
    let (_, snap) = observed(&ghz_100(), &RunConfig::default());
    assert!(!snap.timers.contains_key("stage.dispatch"));
}

#[test]
fn shot_replay_runs_on_the_engine_the_run_ended_on() {
    let _lock = serialize();
    // 40 qubits: the replay must stay on the tableau, as the live run did.
    let src = format!(
        "qustring g = \"{}\"q;\nhadamard g[0];\nint i = 0;\nwhile (i < 39) {{\n    \
         cnot g[i], g[i + 1];\n    i += 1;\n}}\nprint g[0];\nprint g[39];\n",
        "0".repeat(40)
    );
    let cfg = RunConfig {
        shots: 100,
        ..RunConfig::default()
    };
    let (out, snap) = observed(&src, &cfg);
    let out = out.unwrap_or_else(|e| panic!("{}", e.render(&src)));
    assert_eq!(out.backend, BackendKind::Tableau);
    let counts = out.counts.expect("measured");
    assert_eq!(counts.get(0b00) + counts.get(0b11), 100);
    assert_eq!(counter(&snap, "backend.tableau"), 2, "live run and replay");
    assert_eq!(counter(&snap, "backend.statevector"), 0);
}

#[test]
fn estimator_give_up_still_dispatches_clifford_program_to_tableau() {
    let _lock = serialize();
    // A classical loop past the estimator's step budget makes it give
    // up, so its Clifford bit is false and the static prediction says
    // statevector (which cannot hold 100 qubits). The runtime never
    // meets a non-Clifford gate, so the run stays on the tableau.
    let src = format!(
        "int n = 0;\nwhile (n < 150000) {{\n    n = n + 1;\n}}\n{}",
        ghz_100()
    );
    let program = qutes::parse(&src).expect("variant parses");
    let est = qutes::analysis::estimate(&program);
    assert!(!est.exact && !est.clifford_only, "{:?}", est.notes);
    assert_eq!(
        resolve_backend(&src, &RunConfig::default()),
        BackendChoice::Statevector
    );
    assert_eq!(
        ends_on(&src, &RunConfig::default()),
        (BackendKind::Tableau, 0)
    );
}

#[test]
fn non_clifford_variant_dispatches_to_statevector() {
    let _lock = serialize();
    // One T-angle phase gate is enough to lose the stabilizer domain:
    // the 100-qubit tableau cannot be promoted, and the refusal is the
    // statevector's typed capacity error, counted against that engine.
    let src = format!("{}\nphase(g[0], pi / 4);\n", ghz_100());
    let (out, snap) = observed(&src, &RunConfig::default());
    let err = out.expect_err("100 qubits cannot be promoted");
    assert!(
        matches!(
            err,
            QutesError::Sim(qutes::sim::SimError::TooManyQubits(100))
        ),
        "{err}"
    );
    assert_eq!(counter(&snap, "backend.refused.statevector"), 1);
    assert_eq!(counter(&snap, "backend.promoted"), 0);
    // On a width the statevector holds, the same phase promotes.
    let narrow = "qustring g = \"000000\"q;\nhadamard g[0];\nint i = 0;\n\
                  while (i < 5) {\n    cnot g[i], g[i + 1];\n    i += 1;\n}\n\
                  phase(g[0], pi / 4);\nprint g;\n";
    assert_eq!(
        ends_on(narrow, &RunConfig::default()),
        (BackendKind::Statevector, 1)
    );
}

#[test]
fn noise_forces_statevector_even_for_clifford_programs() {
    let _lock = serialize();
    let bell = "qubit a = |0>;\nqubit b = |0>;\nhadamard a;\ncnot a, b;\nprint a;\nprint b;\n";
    let noisy = RunConfig {
        noise: Some(qutes::sim::NoiseModel::depolarizing(0.01)),
        ..RunConfig::default()
    };
    let (out, snap) = observed(bell, &noisy);
    assert_eq!(out.expect("noisy run").backend, BackendKind::Statevector);
    assert_eq!(counter(&snap, "backend.tableau"), 0, "no tableau is built");
    assert_eq!(counter(&snap, "backend.promoted"), 0);
    assert_eq!(counter(&snap, "gate.h"), 1);
    // The silent all-zeros model is behaviourally noiseless and must
    // not change the decision.
    let silent = RunConfig {
        noise: Some(qutes::sim::NoiseModel::none()),
        ..RunConfig::default()
    };
    assert_eq!(ends_on(bell, &silent), (BackendKind::Tableau, 0));
}

#[test]
fn explicit_backend_choices_pass_through_untouched() {
    let _lock = serialize();
    let forced = |backend| RunConfig {
        backend,
        ..RunConfig::default()
    };
    let bell = "qubit a = |+>;\nqubit b = |0>;\ncnot a, b;\nprint a;\n";
    let t = "qubit a = |+>;\nphase(a, pi / 4);\nprint a;\n";
    // A Clifford program forced onto the statevector stays there.
    assert_eq!(
        ends_on(bell, &forced(BackendChoice::Statevector)),
        (BackendKind::Statevector, 0)
    );
    assert_eq!(
        ends_on(t, &forced(BackendChoice::Statevector)),
        (BackendKind::Statevector, 0)
    );
    assert_eq!(
        ends_on(bell, &forced(BackendChoice::Tableau)),
        (BackendKind::Tableau, 0)
    );
    // Forcing the tableau never promotes: a T gate is a typed refusal.
    let (out, snap) = observed(t, &forced(BackendChoice::Tableau));
    let err = out.expect_err("forced tableau cannot run a T gate");
    assert!(
        matches!(
            err,
            QutesError::Circuit(CircError::BackendUnsupported {
                backend: "tableau",
                ..
            })
        ),
        "{err}"
    );
    assert_eq!(counter(&snap, "backend.promoted"), 0);
}

#[test]
fn wide_register_then_t_gate_is_refused_at_promotion() {
    let _lock = serialize();
    // 40 Clifford qubits fit the tableau; the T gate needs 2^40
    // amplitudes.
    let src = format!(
        "qustring s = \"{}\"q;\nhadamard s[0];\nphase(s[1], pi / 4);\n",
        "0".repeat(40)
    );
    let (out, snap) = observed(&src, &RunConfig::default());
    let err = out.expect_err("2^40 amplitudes are over the cap");
    assert!(
        matches!(
            err,
            QutesError::Sim(qutes::sim::SimError::TooManyQubits(40))
        ),
        "{err}"
    );
    assert!(err.is_transient());
    assert_eq!(counter(&snap, "backend.refused.statevector"), 1);
    assert_eq!(counter(&snap, "gate.h"), 1, "the prefix ran on the tableau");
}

#[test]
fn measuring_before_the_first_non_clifford_gate_changes_the_rng_stream() {
    let _lock = serialize();
    // `a` is measured on the tableau, where a determined outcome draws
    // no coin; the statevector draws one for every measurement. So `r`,
    // measured after promotion, sees a shifted stream. Pinned at seeds
    // 0..8: the new `Auto` output, and the forced statevector (the
    // engine `Auto` used to pick for this program).
    let src = "qubit a = |1>;\nprint a;\nqubit r = [0.6, 0.8]q;\nprint r;\n";
    let auto = [true, false, true, false, true, true, false, false, false];
    let statevector = [false, true, false, false, false, true, false, true, true];
    for seed in 0..9u64 {
        for (backend, want) in [
            (BackendChoice::Auto, auto),
            (BackendChoice::Statevector, statevector),
        ] {
            let cfg = RunConfig {
                seed,
                backend,
                ..RunConfig::default()
            };
            let out = run_source(src, &cfg).expect("runs");
            assert_eq!(out.backend, BackendKind::Statevector);
            assert_eq!(
                out.output,
                vec!["true".to_string(), want[seed as usize].to_string()],
                "seed {seed}, {backend}"
            );
        }
    }
}

#[test]
fn promotion_keeps_outcomes_measured_on_the_tableau() {
    let _lock = serialize();
    // `a` collapses on the tableau to a random outcome; the phase then
    // promotes, and the replay must force `a` to that outcome, so
    // measuring it again on the statevector repeats it.
    let src = "qubit a = |+>;\nbool first = measure a;\nphase(a, pi / 4);\n\
               print first;\nprint a;\n";
    let mut seen = [false; 2];
    for seed in 0..16u64 {
        let cfg = RunConfig {
            seed,
            ..RunConfig::default()
        };
        let out = run_source(src, &cfg).expect("runs");
        assert_eq!(out.backend, BackendKind::Statevector);
        assert_eq!(out.output[0], out.output[1], "seed {seed}");
        seen[usize::from(out.output[0] == "true")] = true;
    }
    assert_eq!(seen, [true, true], "both outcomes drawn");
}

/// Runs `src` under `Auto` and checks whether it was promoted: a
/// program's first non-Clifford gate, if it emits one, promotes it.
fn assert_promotes(src: &str, promotes: bool) {
    let _lock = serialize();
    let want = if promotes {
        (BackendKind::Statevector, 1)
    } else {
        (BackendKind::Tableau, 0)
    };
    assert_eq!(ends_on(src, &RunConfig::default()), want, "{src}");
}

#[test]
fn ghz_style_program_stays_on_tableau() {
    assert_promotes(
        "qubit a = |+>;\nqubit b = |0>;\ncnot a, b;\nprint measure a;\n",
        false,
    );
}

#[test]
fn phase_gate_promotes() {
    assert_promotes("qubit q = |0>;\nphase(q, pi/4);\nprint q;\n", true);
}

#[test]
fn quantum_addition_promotes() {
    assert_promotes("quint a = 3q;\nquint b = 2q;\na += b;\nprint a;\n", true);
}

#[test]
fn classical_arithmetic_stays_on_tableau() {
    assert_promotes(
        "int n = 3;\nint m = n * 2 + 1;\nqubit q = |1>;\nprint m;\nprint q;\n",
        false,
    );
}

#[test]
fn measurement_terminated_branch_stays_on_tableau() {
    assert_promotes(
        "qubit q = |+>;\nif (measure q) { print 1; } else { print 0; }\n",
        false,
    );
}

#[test]
fn superposition_literal_promotes() {
    assert_promotes("quint r = [1, 3]q;\nprint r;\n", true);
}

#[test]
fn function_bodies_promote_only_when_called() {
    assert_promotes(
        "void flip(qubit q) { not q; }\nqubit a = |0>;\nflip(a);\nprint a;\n",
        false,
    );
    // A non-Clifford body that is never called emits nothing.
    let spin = "void spin(qubit q) { phase(q, pi/8); }\nqubit a = |0>;\n";
    assert_promotes(&format!("{spin}print a;\n"), false);
    assert_promotes(&format!("{spin}spin(a);\nprint a;\n"), true);
}

#[test]
fn unparsable_source_passes_through_to_the_statevector() {
    let _lock = serialize();
    // `resolve_backend` is a static prediction; it never answers `Auto`.
    let auto = RunConfig::default();
    assert_eq!(
        resolve_backend("qubit = ;", &auto),
        BackendChoice::Statevector
    );
    assert_eq!(resolve_backend(&ghz_100(), &auto), BackendChoice::Tableau);
    let noisy = RunConfig {
        noise: Some(qutes::sim::NoiseModel::depolarizing(0.01)),
        ..RunConfig::default()
    };
    assert_eq!(
        resolve_backend(&ghz_100(), &noisy),
        BackendChoice::Statevector
    );
}

/// A `Tableau` answer of `resolve_backend` is a promise that the run
/// never promotes. It is checked on every program whose estimate
/// `tests/golden/estimates.txt` pins: the examples, the lint corpus,
/// the interpreter programs and the 200 generated programs. A run that
/// succeeds ends on the tableau; one that fails has not promoted.
#[test]
fn tableau_predictions_hold_on_every_estimated_program() {
    let _lock = serialize();
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut programs = Vec::new();
    for dir in [
        "examples/programs",
        "tests/lint_corpus",
        "tests/interp_programs",
    ] {
        let entries = fs::read_dir(root.join(dir)).unwrap_or_else(|e| panic!("read {dir}: {e}"));
        for entry in entries {
            let path = entry.expect("readable entry").path();
            if path.extension().is_some_and(|e| e == "qut") {
                let source = fs::read_to_string(&path).expect("program reads");
                programs.push((path.display().to_string(), source));
            }
        }
    }
    programs
        .extend((0..200).map(|seed| (format!("generated seed {seed}"), generator::generate(seed))));
    let cfg = RunConfig::default();
    let mut promised = 0;
    for (name, src) in &programs {
        if resolve_backend(src, &cfg) != BackendChoice::Tableau {
            continue;
        }
        promised += 1;
        let (out, snap) = observed(src, &cfg);
        assert_eq!(counter(&snap, "backend.promoted"), 0, "{name} promoted");
        if let Ok(out) = out {
            assert_eq!(out.backend, BackendKind::Tableau, "{name}");
        }
    }
    assert!(
        promised > 100,
        "only {promised} programs are promised the tableau"
    );
}

/// A run that recurses to the default `max_call_depth` of 100 returns
/// the typed depth error, and the estimator walks the same programs,
/// on a thread with a 2 MiB stack in every build profile: the walker's
/// recursive frames stay small. Generated seeds 3, 136 and 170 each
/// recurse without end.
#[test]
fn default_call_depth_fits_a_two_mib_stack() {
    let _lock = serialize();
    let check = || {
        for seed in [3, 136, 170] {
            let src = generator::generate(seed);
            let err = match run_source(&src, &RunConfig::default()) {
                Err(e) => e.to_string(),
                Ok(out) => panic!("seed {seed} ran to the end: {:?}", out.output),
            };
            assert!(
                err.contains("recursion exceeded 100 nested calls"),
                "seed {seed}: {err}"
            );
            let program = qutes::frontend::parse(&src).expect("generated programs parse");
            let est = qutes::analysis::estimate(&program);
            assert!(!est.exact, "seed {seed}: {est:?}");
        }
    };
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(check)
        .expect("thread spawns")
        .join()
        .unwrap_or_else(|e| std::panic::resume_unwind(e));
}
