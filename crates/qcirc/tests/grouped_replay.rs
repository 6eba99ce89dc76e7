//! Exact differential tests for grouped replay: on circuits with
//! mid-circuit measurement, reset and conditionals, noise-free or under
//! noise, the grouped histogram must equal, key for key, the histogram
//! of running every shot alone on its own counter-derived stream — on
//! both engines, at any thread count, and under a memory budget that
//! forces the per-shot fallback. Under noise the `noise.faults.*`
//! totals must equal the per-shot run's too.

// Circuit-builder helpers sit outside `#[test]` fns, where clippy's
// `allow-unwrap-in-tests` does not reach.
#![allow(clippy::unwrap_used)]

use qutes_qcirc::execute::{apply_gate_noisy, run_shots_supervised};
use qutes_qcirc::{
    optimize, run_once, run_shots_cfg, BackendChoice, BackendKind, CircError, Engine,
    ExecutionConfig, Gate, Interrupt, QuantumCircuit,
};
use qutes_sim::rng_stream::shot_rng;
use qutes_sim::tableau::Tableau;
use qutes_sim::{NoiseModel, StateVector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// The obs collector is process-global and some tests read its
/// counters, so the tests of this file run one at a time.
fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn unitary(rng: &mut StdRng, n: usize, clifford: bool) -> Gate {
    let a = rng.random_range(0..n);
    let b = (a + rng.random_range(1..n)) % n;
    match rng.random_range(0..if clifford { 7 } else { 10 }) {
        0 => Gate::H(a),
        1 => Gate::X(a),
        2 => Gate::S(a),
        3 => Gate::Sdg(a),
        4 => Gate::CX {
            control: a,
            target: b,
        },
        5 => Gate::CZ {
            control: a,
            target: b,
        },
        6 => Gate::Swap { a, b },
        7 => Gate::T(a),
        8 => Gate::RY {
            target: a,
            theta: rng.random_range(-3.0..3.0),
        },
        _ => Gate::CPhase {
            control: a,
            target: b,
            lambda: rng.random_range(-3.0..3.0),
        },
    }
}

/// A noise-free circuit mixing unitaries with mid-circuit measurement,
/// reset, conditionals, and conditional-wrapped measure and reset.
fn random_circuit(seed: u64, clifford: bool) -> QuantumCircuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(2..5usize);
    let m = 3;
    let mut c = QuantumCircuit::with_qubits_and_clbits(n, m);
    for _ in 0..rng.random_range(10..40usize) {
        let q = rng.random_range(0..n);
        let k = rng.random_range(0..m);
        let cond = |gate: Gate, value: bool| Gate::Conditional {
            clbit: k,
            value,
            gate: Box::new(gate),
        };
        let value = rng.random_bool(0.5);
        let target = rng.random_range(0..m);
        let g = match rng.random_range(0..10) {
            0 | 1 => Gate::Measure { qubit: q, clbit: k },
            2 => Gate::Reset(q),
            3 => cond(
                Gate::Measure {
                    qubit: q,
                    clbit: target,
                },
                value,
            ),
            4 => cond(Gate::Reset(q), value),
            5 => cond(unitary(&mut rng, n, clifford), value),
            _ => unitary(&mut rng, n, clifford),
        };
        c.append(g).unwrap();
    }
    for q in 0..n.min(m) {
        c.measure(q, q).unwrap();
    }
    c
}

/// Runs one instruction on the tableau through its own measurement
/// primitives, so the reference shares no code with the stepper under
/// test (only the gate map of [`Engine::apply_unitary`]).
fn tableau_step(tab: &mut Tableau, clbits: &mut [bool], g: &Gate, rng: &mut StdRng) {
    match g {
        Gate::Measure { qubit, clbit } => clbits[*clbit] = tab.measure(*qubit, rng).unwrap(),
        Gate::Reset(qubit) => {
            tab.reset(*qubit, rng).unwrap();
        }
        Gate::Conditional { clbit, value, gate } => {
            if clbits[*clbit] == *value {
                tableau_step(tab, clbits, gate, rng);
            }
        }
        _ => tab.apply_unitary(g).unwrap(),
    }
}

/// Runs shot `s` alone on `shot_rng(base, s)` — with the public one-shot
/// runner on the statevector, and through [`tableau_step`] on the
/// tableau — and histograms the keys.
fn reference(
    c: &QuantumCircuit,
    seed: u64,
    shots: usize,
    kind: BackendKind,
) -> Vec<(usize, usize)> {
    let base = StdRng::seed_from_u64(seed).next_u64();
    let mut hist = BTreeMap::new();
    for s in 0..shots {
        let mut rng = shot_rng(base, s as u64);
        let key = match kind {
            BackendKind::Statevector => run_once(c, &mut rng).unwrap().clbits_as_usize(),
            BackendKind::Tableau => {
                let mut tab = Tableau::new(c.num_qubits()).unwrap();
                let mut clbits = vec![false; c.num_clbits()];
                for g in c.ops() {
                    tableau_step(&mut tab, &mut clbits, g, &mut rng);
                }
                clbits
                    .iter()
                    .enumerate()
                    .fold(0, |acc, (i, &b)| acc | (usize::from(b) << i))
            }
        };
        *hist.entry(key).or_insert(0) += 1;
    }
    let mut sorted: Vec<_> = hist.into_iter().collect();
    sorted.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    sorted
}

fn cfg(kind: BackendKind, seed: u64, shots: usize, threads: usize) -> ExecutionConfig {
    let backend = match kind {
        BackendKind::Statevector => BackendChoice::Statevector,
        BackendKind::Tableau => BackendChoice::Tableau,
    };
    ExecutionConfig::default()
        .with_shots(shots)
        .with_seed(seed)
        .with_opt_level(0)
        .with_backend(backend)
        .with_shot_threads(threads)
}

fn assert_matches_reference(kind: BackendKind, clifford: bool) {
    for seed in 0..40u64 {
        let c = random_circuit(seed, clifford);
        let shots = 50 + (seed as usize * 37) % 200;
        let want = reference(&c, seed, shots, kind);
        for threads in [1, 2, 7] {
            let got = run_shots_cfg(&c, &cfg(kind, seed, shots, threads)).unwrap();
            assert_eq!(
                got.sorted(),
                want,
                "{kind} circuit {seed}, {threads} threads: grouped histogram diverged"
            );
        }
    }
}

#[test]
fn statevector_grouped_histograms_equal_the_per_shot_reference() {
    let _g = serialize();
    assert_matches_reference(BackendKind::Statevector, false);
}

#[test]
fn tableau_grouped_histograms_equal_the_per_shot_reference() {
    let _g = serialize();
    assert_matches_reference(BackendKind::Tableau, true);
}

#[test]
fn optimized_circuits_replay_exactly_too() {
    let _g = serialize();
    for seed in 0..20u64 {
        let c = random_circuit(1000 + seed, false);
        let (opt, _) = optimize(&c, 2).unwrap();
        let want = reference(&opt, seed, 120, BackendKind::Statevector);
        let got = run_shots_cfg(
            &c,
            &cfg(BackendKind::Statevector, seed, 120, 1).with_opt_level(2),
        )
        .unwrap();
        assert_eq!(got.sorted(), want, "circuit {seed} at -O2 diverged");
    }
}

/// Runs with the obs collector on and returns the histogram with the
/// grouped-replay counters `sim.branches` and `sim.snapshots`.
fn traced(c: &QuantumCircuit, cfg: &ExecutionConfig) -> (Vec<(usize, usize)>, u64, u64) {
    qutes_obs::reset();
    qutes_obs::set_enabled(true);
    let counts = run_shots_cfg(c, cfg).unwrap();
    let snap = qutes_obs::snapshot();
    qutes_obs::set_enabled(false);
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    assert_eq!(counter("backend.mode.grouped"), 1);
    assert_eq!(counter("backend.mode.per_shot"), 0);
    (
        counts.sorted(),
        counter("sim.branches"),
        counter("sim.snapshots"),
    )
}

#[test]
fn tight_memory_budget_falls_back_to_per_shot_with_the_same_histogram() {
    let _g = serialize();
    for (kind, clifford) in [
        (BackendKind::Statevector, false),
        (BackendKind::Tableau, true),
    ] {
        for seed in 0..10u64 {
            let c = random_circuit(seed, clifford);
            let want = reference(&c, seed, 200, kind);
            let (free, _, snapshots) = traced(&c, &cfg(kind, seed, 200, 1));
            // Room for exactly one live state: no split may snapshot.
            let one_state = u64::try_from(kind.required_bytes(c.num_qubits())).unwrap();
            let tight = cfg(kind, seed, 200, 1).with_memory_budget(one_state);
            let (budgeted, branches, no_snapshots) = traced(&c, &tight);
            assert_eq!(free, want, "{kind} circuit {seed}: unbudgeted run diverged");
            assert_eq!(budgeted, want, "{kind} circuit {seed}: fallback diverged");
            assert_eq!(
                no_snapshots, 0,
                "{kind} circuit {seed}: snapshot over budget"
            );
            // Every split the free run snapshotted became fallback shots.
            assert!(
                branches > snapshots,
                "{kind} circuit {seed}: no fallback ran"
            );
        }
    }
}

#[test]
fn grouped_replay_simulates_branches_not_shots() {
    let _g = serialize();
    // Every measurement is a fair coin: the outcome tree is as bushy as
    // the shots allow.
    let mut c = QuantumCircuit::with_qubits_and_clbits(1, 1);
    for _ in 0..12 {
        c.h(0).unwrap().measure(0, 0).unwrap();
    }
    let shots = 1000;
    qutes_obs::reset();
    qutes_obs::set_enabled(true);
    let got = run_shots_cfg(&c, &cfg(BackendKind::Statevector, 5, shots, 1)).unwrap();
    let snap = qutes_obs::snapshot();
    qutes_obs::set_enabled(false);
    assert_eq!(
        got.sorted(),
        reference(&c, 5, shots, BackendKind::Statevector)
    );
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    // Without a memory budget every branch beyond the root is a snapshot,
    // and no branch holds fewer than one shot.
    assert_eq!(counter("sim.branches"), counter("sim.snapshots") + 1);
    assert!(counter("sim.branches") <= shots as u64);
    // Per-shot replay applies 12 Hadamards per shot; the shared
    // prefixes of the outcome tree are simulated once.
    assert!(
        counter("gate.h") < 12 * shots as u64 / 2,
        "{}",
        counter("gate.h")
    );
}

#[test]
fn ten_thousand_measurements_do_not_overflow_the_stack() {
    let _g = serialize();
    let mut c = QuantumCircuit::with_qubits_and_clbits(2, 2);
    for _ in 0..10_000 {
        c.h(0).unwrap().measure(0, 0).unwrap();
        c.c_if(0, true, Gate::X(1)).unwrap();
        c.measure(1, 1).unwrap();
    }
    for kind in [BackendKind::Statevector, BackendKind::Tableau] {
        let want = reference(&c, 3, 64, kind);
        let got = run_shots_cfg(&c, &cfg(kind, 3, 64, 1)).unwrap();
        assert_eq!(got.sorted(), want, "{kind} diverged");
    }
}

#[test]
fn gate_budget_meters_each_branch_path() {
    let _g = serialize();
    // Outcome 1 takes the conditional body: one gate more than the
    // budget allows. Outcome 0 fits exactly.
    let mut c = QuantumCircuit::with_qubits_and_clbits(2, 2);
    c.h(0).unwrap().measure(0, 0).unwrap();
    c.c_if(0, true, Gate::X(1)).unwrap();
    c.measure(1, 1).unwrap();
    for kind in [BackendKind::Statevector, BackendKind::Tableau] {
        for threads in [1, 2, 7] {
            let cfg = cfg(kind, 8, 64, threads).with_max_gate_applications(4);
            match run_shots_cfg(&c, &cfg) {
                Err(CircError::BudgetExhausted { limit: 4 }) => {}
                other => {
                    panic!("{kind}, {threads} threads: expected BudgetExhausted, got {other:?}")
                }
            }
        }
    }
    // Forced to outcome 0 (no H), every path fits the budget.
    let mut zero = QuantumCircuit::with_qubits_and_clbits(2, 2);
    zero.measure(0, 0).unwrap();
    zero.c_if(0, true, Gate::X(1)).unwrap();
    zero.h(1).unwrap().measure(1, 1).unwrap();
    let ok = run_shots_cfg(
        &zero,
        &cfg(BackendKind::Statevector, 8, 64, 2).with_max_gate_applications(4),
    )
    .unwrap();
    assert_eq!(ok.shots(), 64);
}

#[test]
fn mid_run_stop_keeps_weight_equal_to_completed_shots() {
    let _g = serialize();
    let mut c = QuantumCircuit::with_qubits_and_clbits(2, 2);
    c.h(0).unwrap().measure(0, 0).unwrap();
    c.reset(0).unwrap();
    c.c_if(0, true, Gate::H(1)).unwrap();
    c.h(0)
        .unwrap()
        .measure(0, 0)
        .unwrap()
        .measure(1, 1)
        .unwrap();
    for kind in [BackendKind::Statevector, BackendKind::Tableau] {
        for threads in [1, 4] {
            let intr = Interrupt::new();
            let canceller = intr.clone();
            // Grouped replay completes shots a round of up to 2^16 at a
            // time, which takes tens of milliseconds in a debug build.
            let watcher = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(300));
                canceller.cancel();
            });
            let cfg = cfg(kind, 1, 2_000_000_000, threads).with_interrupt(intr);
            let outcome = run_shots_supervised(&c, &cfg).unwrap();
            watcher.join().unwrap();
            assert!(outcome.degraded, "{kind}, {threads} threads: not degraded");
            assert!(outcome.stop.is_some());
            assert!(outcome.completed_shots > 0 && outcome.completed_shots < 2_000_000_000);
            assert_eq!(outcome.counts.shots(), outcome.completed_shots);
            let weight: usize = outcome.counts.sorted().iter().map(|(_, n)| n).sum();
            assert_eq!(
                weight, outcome.completed_shots,
                "{kind}, {threads} threads: weight != completed_shots"
            );
        }
    }
}

/// A noise model with every channel drawn at a rate high enough that
/// most shots fault somewhere; some seeds leave a channel off.
fn random_noise(seed: u64) -> NoiseModel {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let mut rate = |max: f64| {
        if rng.random_bool(0.25) {
            0.0
        } else {
            rng.random_range(0.0..max)
        }
    };
    NoiseModel {
        bit_flip: rate(0.05),
        phase_flip: rate(0.05),
        depolarizing_1q: rate(0.05),
        depolarizing_2q: rate(0.1),
        amplitude_damping: rate(0.15),
        readout_error: rate(0.1),
    }
}

/// Unitaries then measurements only: under noise these replay grouped
/// too.
fn terminal_circuit(seed: u64) -> QuantumCircuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(2..5usize);
    let mut c = QuantumCircuit::with_qubits_and_clbits(n, n);
    for _ in 0..rng.random_range(5..25usize) {
        c.append(unitary(&mut rng, n, false)).unwrap();
    }
    for q in 0..n {
        c.measure(q, q).unwrap();
    }
    c
}

/// The histogram and the `noise.faults.*` totals of a run.
type Traced = (Vec<(usize, usize)>, BTreeMap<String, u64>);

/// Runs `f` with the obs collector on, and returns what it returns with
/// the `noise.faults.*` totals it counted.
fn with_faults(f: impl FnOnce() -> Vec<(usize, usize)>) -> Traced {
    qutes_obs::reset();
    qutes_obs::set_enabled(true);
    let hist = f();
    let snap = qutes_obs::snapshot();
    qutes_obs::set_enabled(false);
    let faults = snap
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("noise.faults."))
        .map(|(name, &n)| (name.to_string(), n))
        .collect();
    (hist, faults)
}

/// Per-shot noisy replay, the reference grouped replay must match: shot
/// `s` runs alone on a fresh statevector and on `shot_rng(base, s)`,
/// every instruction through the one-shot stepper of the live
/// interpreter ([`apply_gate_noisy`]).
fn noisy_reference(c: &QuantumCircuit, seed: u64, shots: usize, noise: &NoiseModel) -> Traced {
    with_faults(|| {
        let base = StdRng::seed_from_u64(seed).next_u64();
        let mut hist = BTreeMap::new();
        for s in 0..shots {
            let mut rng = shot_rng(base, s as u64);
            let mut state = StateVector::new(c.num_qubits()).unwrap();
            let mut clbits = vec![false; c.num_clbits()];
            for g in c.ops() {
                apply_gate_noisy(&mut state, &mut clbits, g, &mut rng, Some(noise)).unwrap();
            }
            let key = clbits
                .iter()
                .enumerate()
                .fold(0, |acc, (i, &b)| acc | (usize::from(b) << i));
            *hist.entry(key).or_insert(0) += 1;
        }
        let mut sorted: Vec<_> = hist.into_iter().collect();
        sorted.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        sorted
    })
}

/// Grouped noisy replay of `c` under `cfg`, traced.
fn noisy_grouped(c: &QuantumCircuit, cfg: &ExecutionConfig) -> Traced {
    with_faults(|| run_shots_cfg(c, cfg).unwrap().sorted())
}

fn noisy_circuits() -> impl Iterator<Item = (String, QuantumCircuit, u64)> {
    (0..30u64)
        .map(|seed| (format!("circuit {seed}"), random_circuit(seed, false), seed))
        .chain((0..10u64).map(|seed| {
            (
                format!("terminal circuit {seed}"),
                terminal_circuit(500 + seed),
                seed,
            )
        }))
}

#[test]
fn noisy_grouped_histograms_and_faults_equal_the_per_shot_reference() {
    let _g = serialize();
    for (name, c, seed) in noisy_circuits() {
        let noise = random_noise(seed);
        let shots = 40 + (seed as usize * 37) % 120;
        let want = noisy_reference(&c, seed, shots, &noise);
        for threads in [1, 2, 7] {
            let cfg = cfg(BackendKind::Statevector, seed, shots, threads).with_noise(noise.clone());
            let got = noisy_grouped(&c, &cfg);
            assert_eq!(got, want, "{name}, {threads} threads: diverged");
        }
    }
}

#[test]
fn noisy_tight_memory_budget_fallback_equals_the_per_shot_reference() {
    let _g = serialize();
    for (name, c, seed) in noisy_circuits() {
        let noise = random_noise(seed);
        let want = noisy_reference(&c, seed, 100, &noise);
        // Room for exactly one live state: no split may snapshot.
        let one_state =
            u64::try_from(BackendKind::Statevector.required_bytes(c.num_qubits())).unwrap();
        for threads in [1, 2, 7] {
            let tight = cfg(BackendKind::Statevector, seed, 100, threads)
                .with_noise(noise.clone())
                .with_memory_budget(one_state);
            let got = noisy_grouped(&c, &tight);
            assert_eq!(got, want, "{name}, {threads} threads: fallback diverged");
        }
    }
}

#[test]
fn noisy_replay_shares_fault_free_prefixes() {
    let _g = serialize();
    // Rare faults: nearly every shot stays on the fault-free branch, so
    // the gates run about once per distinct trajectory, not per shot.
    // The state stays a basis state, so only faults split the shots.
    let mut c = QuantumCircuit::with_qubits_and_clbits(3, 3);
    for _ in 0..20 {
        c.x(0).unwrap().cx(0, 1).unwrap().cx(1, 2).unwrap();
    }
    for q in 0..3 {
        c.measure(q, q).unwrap();
    }
    let noise = NoiseModel::depolarizing(0.001);
    let shots = 200;
    let (want, faults) = noisy_reference(&c, 4, shots, &noise);
    qutes_obs::reset();
    qutes_obs::set_enabled(true);
    let cfg = cfg(BackendKind::Statevector, 4, shots, 1).with_noise(noise);
    let got = run_shots_cfg(&c, &cfg).unwrap();
    let snap = qutes_obs::snapshot();
    qutes_obs::set_enabled(false);
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    assert_eq!(got.sorted(), want);
    assert_eq!(counter("backend.mode.grouped"), 1);
    assert_eq!(counter("backend.mode.batched"), 0);
    let drawn = faults.values().sum::<u64>();
    assert_eq!(counter("noise.faults.depolarizing"), drawn);
    // One branch per split, at most one split per fault drawn.
    assert_eq!(counter("sim.branches"), counter("sim.snapshots") + 1);
    assert!(counter("sim.branches") <= drawn + 1, "{drawn} faults");
    // Per-shot replay applies 20 X gates per shot.
    assert!(
        counter("gate.x") < 20 * shots as u64 / 4,
        "{}",
        counter("gate.x")
    );
}
