//! E9 bench: overhead of the Monte-Carlo noise engine — noiseless fast
//! path vs grouped noisy trajectories vs full noise, and the
//! majority-vote mitigation wrapper.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qutes_algos::grover::{grover_circuit, mark_states_oracle};
use qutes_qcirc::execute::{run_shots_cfg, run_shots_majority};
use qutes_qcirc::{ExecutionConfig, QuantumCircuit};
use qutes_sim::NoiseModel;
use std::time::Duration;

fn grover(n: usize) -> QuantumCircuit {
    let qubits: Vec<usize> = (0..n).collect();
    let oracle = mark_states_oracle(n, &qubits, &[1]).unwrap();
    grover_circuit(n, &qubits, &oracle, 1).unwrap()
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e9_noise");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900));

    let shots = 256usize;
    for n in [4usize, 8] {
        let circuit = grover(n);
        g.bench_with_input(BenchmarkId::new("noiseless_fast_path", n), &n, |b, _| {
            let cfg = ExecutionConfig::default().with_shots(shots).with_seed(1);
            b.iter(|| run_shots_cfg(&circuit, &cfg).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("depolarizing_0p01", n), &n, |b, _| {
            let cfg = ExecutionConfig::default()
                .with_shots(shots)
                .with_seed(1)
                .with_noise(NoiseModel::depolarizing(0.01));
            b.iter(|| run_shots_cfg(&circuit, &cfg).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("full_noise_model", n), &n, |b, _| {
            let cfg = ExecutionConfig::default()
                .with_shots(shots)
                .with_seed(1)
                .with_noise(
                    NoiseModel::depolarizing(0.01)
                        .with_bit_flip(0.001)
                        .with_amplitude_damping(0.005)
                        .with_readout_error(0.01),
                );
            b.iter(|| run_shots_cfg(&circuit, &cfg).unwrap())
        });
    }

    g.bench_function("majority_vote_5x64", |b| {
        let circuit = grover(4);
        let cfg = ExecutionConfig::default()
            .with_shots(64)
            .with_seed(1)
            .with_noise(NoiseModel::depolarizing(0.02));
        b.iter(|| run_shots_majority(&circuit, &cfg, 5).unwrap())
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
