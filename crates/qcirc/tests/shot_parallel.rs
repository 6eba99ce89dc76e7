//! Shot-pool determinism properties: the parallel Monte-Carlo replay
//! must be **bit-for-bit** identical to the serial loop at any thread
//! count, on both per-shot paths (noisy statevector trajectories and
//! tableau re-runs), and a mid-run stop must keep the exact
//! `completed_shots == histogram weight` contract whether the pool has
//! one worker or many.

// Circuit-builder helpers sit outside `#[test]` fns, where clippy's
// `allow-unwrap-in-tests` does not reach.
#![allow(clippy::unwrap_used)]

use qutes_qcirc::execute::{run_shots_cfg, run_shots_supervised};
use qutes_qcirc::{CircError, Counts, ExecutionConfig, Gate, QuantumCircuit};
use qutes_sim::NoiseModel;
use qutes_supervisor::Interrupt;
use std::time::Duration;

/// Bell pair with terminal measurements; with noise attached the shots
/// cannot batch, so the statevector engine replays them grouped.
fn bell() -> QuantumCircuit {
    let mut c = QuantumCircuit::with_qubits_and_clbits(2, 2);
    c.h(0).unwrap().cx(0, 1).unwrap();
    c.measure(0, 0).unwrap().measure(1, 1).unwrap();
    c
}

/// Clifford circuit whose conditional forces the per-shot tableau path
/// (auto-dispatch routes the noise-free Clifford stream to the tableau).
fn clifford_conditional() -> QuantumCircuit {
    let mut c = QuantumCircuit::with_qubits_and_clbits(3, 3);
    c.h(0).unwrap().cx(0, 1).unwrap();
    c.measure(0, 0).unwrap();
    c.c_if(0, true, Gate::X(2)).unwrap();
    c.h(2).unwrap();
    c.measure(1, 1).unwrap().measure(2, 2).unwrap();
    c
}

fn sorted(counts: &Counts) -> Vec<(usize, usize)> {
    counts.sorted()
}

#[test]
fn noisy_statevector_histogram_is_thread_count_invariant() {
    let c = bell();
    let base = ExecutionConfig::default()
        .with_shots(600)
        .with_seed(42)
        .with_noise(NoiseModel::depolarizing(0.05).with_readout_error(0.02));
    let serial = run_shots_cfg(&c, &base.clone().with_shot_threads(1)).unwrap();
    for threads in [2usize, 7] {
        let par = run_shots_cfg(&c, &base.clone().with_shot_threads(threads)).unwrap();
        assert_eq!(
            sorted(&par),
            sorted(&serial),
            "{threads} threads diverged from serial on the noisy statevector path"
        );
    }
}

#[test]
fn tableau_per_shot_histogram_is_thread_count_invariant() {
    let c = clifford_conditional();
    let base = ExecutionConfig::default().with_shots(600).with_seed(9);
    let serial = run_shots_cfg(&c, &base.clone().with_shot_threads(1)).unwrap();
    for threads in [2usize, 7] {
        let par = run_shots_cfg(&c, &base.clone().with_shot_threads(threads)).unwrap();
        assert_eq!(
            sorted(&par),
            sorted(&serial),
            "{threads} threads diverged from serial on the tableau per-shot path"
        );
    }
}

#[test]
fn auto_thread_count_matches_serial_bit_for_bit() {
    // `0` resolves to the host's available parallelism — whatever that
    // is, the histogram must not depend on it.
    let c = bell();
    let base = ExecutionConfig::default()
        .with_shots(400)
        .with_seed(77)
        .with_noise(NoiseModel::depolarizing(0.1));
    let serial = run_shots_cfg(&c, &base.clone().with_shot_threads(1)).unwrap();
    let auto = run_shots_cfg(&c, &base.clone().with_shot_threads(0)).unwrap();
    assert_eq!(sorted(&auto), sorted(&serial));
}

#[test]
fn batched_fast_path_ignores_thread_knob() {
    // Noise-free terminal-measurement circuits take the simulate-once
    // sampling fast path; the knob must not perturb it.
    let c = bell();
    let base = ExecutionConfig::default().with_shots(500).with_seed(3);
    let one = run_shots_cfg(&c, &base.clone().with_shot_threads(1)).unwrap();
    let many = run_shots_cfg(&c, &base.clone().with_shot_threads(7)).unwrap();
    assert_eq!(sorted(&one), sorted(&many));
}

/// Mid-run cancellation under graceful degradation: serial and parallel
/// pools must honour the same contract — `degraded`, a stop reason, and
/// a histogram whose weight equals `completed_shots` exactly.
#[test]
fn mid_run_stop_keeps_completed_shots_exact_at_any_thread_count() {
    let c = bell();
    for threads in [1usize, 4] {
        let intr = Interrupt::new();
        let canceller = intr.clone();
        // Grouped replay completes shots a round of up to 2^16 at a
        // time, which takes tens of milliseconds in a debug build.
        let watcher = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(300));
            canceller.cancel();
        });
        let cfg = ExecutionConfig::default()
            .with_shots(2_000_000_000)
            .with_seed(1)
            .with_noise(NoiseModel::depolarizing(0.01))
            .with_shot_threads(threads)
            .with_interrupt(intr);
        let outcome = run_shots_supervised(&c, &cfg).unwrap();
        watcher.join().unwrap();
        assert!(outcome.degraded, "{threads} threads: expected degradation");
        assert!(outcome.stop.is_some(), "{threads} threads: missing reason");
        assert!(
            outcome.completed_shots > 0 && outcome.completed_shots < 2_000_000_000,
            "{threads} threads: implausible completed_shots {}",
            outcome.completed_shots
        );
        assert_eq!(
            outcome.counts.shots(),
            outcome.completed_shots,
            "{threads} threads: histogram weight must equal completed_shots"
        );
        let weight: usize = outcome.counts.sorted().iter().map(|(_, n)| n).sum();
        assert_eq!(weight, outcome.completed_shots);
    }
}

/// Without `allow_partial`, a mid-run stop is the same typed error on
/// every pool size.
#[test]
fn mid_run_stop_without_partial_is_typed_interrupt() {
    let c = bell();
    for threads in [1usize, 4] {
        let intr = Interrupt::with_deadline(Duration::from_millis(25));
        let cfg = ExecutionConfig::default()
            .with_shots(2_000_000_000)
            .with_noise(NoiseModel::depolarizing(0.01))
            .with_shot_threads(threads)
            .with_interrupt(intr);
        match run_shots_cfg(&c, &cfg) {
            Err(CircError::Interrupted(_)) => {}
            other => panic!("{threads} threads: expected Interrupted, got {other:?}"),
        }
    }
}
