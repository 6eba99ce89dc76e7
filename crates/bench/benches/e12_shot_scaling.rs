//! E12 bench: shot-replay scaling under the worker pool.
//!
//! Three regimes of the Monte-Carlo replay engine:
//!
//! * **noisy grouped statevector** — Grover at 8 qubits under
//!   depolarizing noise, replayed at pinned pool sizes (1/2/4 workers).
//!   The rows keep their historical `noisy_grover8_per_shot` id: noisy
//!   replay is grouped now, each fault a branch.
//!   Thread counts are pinned, not auto-sized, so the attached obs
//!   counters (`shots.parallel.workers`) are machine-independent and
//!   `scripts/bench_check.sh` can gate them. Wall-time scaling across
//!   the pinned sizes depends on the runner's core count; the committed
//!   trajectory for that lives in `BENCH_pr9_shots.json`.
//! * **batched fast path** — the same circuit noise-free, which samples
//!   one simulation instead of walking every trajectory: the crossover
//!   against the noisy rows shows what noise costs.
//! * **ranked tableau sampling** — a 100-qubit GHZ chain sampled
//!   100 000 times. The sampler row-reduces the stabilizer group once
//!   and replays only the `O(rank)` random coins per shot, so this runs
//!   in milliseconds where a clone-per-shot sampler would take seconds.
//!
//! After the timed loops, one untimed profiled run (2 pinned workers)
//! attaches its `qutes-obs` snapshot under `"obs"`, carrying the
//! `shots.*` pool counters into the gated artifact.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qutes_algos::grover::{grover_circuit, mark_states_oracle};
use qutes_qcirc::execute::run_shots_cfg;
use qutes_qcirc::{BackendChoice, ExecutionConfig, QuantumCircuit};
use qutes_sim::NoiseModel;
use std::time::Duration;

/// GHZ chain with only the two end qubits measured: keeps histogram
/// keys 2 bits wide so the same circuit shape scales past 64 qubits.
fn ghz_ends(n: usize) -> QuantumCircuit {
    let mut c = QuantumCircuit::with_qubits_and_clbits(n, 2);
    c.h(0).unwrap();
    for q in 1..n {
        c.cx(q - 1, q).unwrap();
    }
    c.measure(0, 0).unwrap();
    c.measure(n - 1, 1).unwrap();
    c
}

fn grover(n: usize) -> QuantumCircuit {
    let qubits: Vec<usize> = (0..n).collect();
    let oracle = mark_states_oracle(n, &qubits, &[1]).unwrap();
    grover_circuit(n, &qubits, &oracle, 1).unwrap()
}

fn noisy_cfg(shots: usize, threads: usize) -> ExecutionConfig {
    ExecutionConfig::default()
        .with_shots(shots)
        .with_seed(1)
        .with_noise(NoiseModel::depolarizing(0.01))
        .with_shot_threads(threads)
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e12_shot_scaling");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900));

    let shots = 128usize;
    let g8 = grover(8);

    // Grouped noisy replay at pinned pool sizes. The histogram is
    // bit-for-bit identical across rows; only wall time may differ.
    for threads in [1usize, 2, 4] {
        g.bench_with_input(
            BenchmarkId::new("noisy_grover8_per_shot", threads),
            &threads,
            |b, &t| b.iter(|| run_shots_cfg(&g8, &noisy_cfg(shots, t)).unwrap()),
        );
    }

    // Crossover reference: the same circuit noise-free takes the
    // simulate-once batched path, which no pool size can beat.
    g.bench_with_input(BenchmarkId::new("grover8_batched", 1usize), &1, |b, _| {
        let cfg = ExecutionConfig::default().with_shots(shots).with_seed(1);
        b.iter(|| run_shots_cfg(&g8, &cfg).unwrap())
    });

    // Ranked-stabilizer sampling: 100k shots off a 100-qubit GHZ chain.
    let wide = ghz_ends(100);
    g.bench_with_input(
        BenchmarkId::new("ghz_sample_100k", 100usize),
        &100,
        |b, _| {
            let cfg = ExecutionConfig::default()
                .with_shots(100_000)
                .with_seed(1)
                .with_backend(BackendChoice::Tableau);
            b.iter(|| run_shots_cfg(&wide, &cfg).unwrap())
        },
    );

    // One profiled run outside the timed loops: pinned at 2 workers so
    // the shots.parallel.* counters in the artifact are deterministic
    // on every runner.
    qutes_obs::reset();
    let profiled = noisy_cfg(64, 2).with_observe(true);
    run_shots_cfg(&g8, &profiled).unwrap();
    qutes_obs::set_enabled(false);
    g.attach_json("obs", qutes_obs::snapshot().to_json());

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
