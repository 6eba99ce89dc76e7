//! E11 bench: tableau-vs-statevector crossover on GHZ chains.
//!
//! GHZ preparation is pure Clifford, so both engines can run it and the
//! artifact shows where the stabilizer tableau overtakes the dense
//! statevector as the chain grows: the statevector pays `O(2^n)` per
//! gate while the tableau pays `O(n)` per gate on `O(n^2)` bits. The
//! large-`n` rows run tableau-only — the dense engine cannot represent
//! them at all (`qutes_sim::MAX_QUBITS` is 28).
//!
//! After the timed loops, one extra (untimed) profiled 100-qubit run
//! attaches its `qutes-obs` snapshot under `"obs"`, so the artifact
//! records the `backend.*` dispatch counters alongside the medians.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qutes_qcirc::execute::run_shots_cfg;
use qutes_qcirc::{BackendChoice, ExecutionConfig, QuantumCircuit};
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

fn cfg(backend: BackendChoice, shots: usize) -> ExecutionConfig {
    ExecutionConfig::default()
        .with_shots(shots)
        .with_seed(1)
        .with_backend(backend)
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e11_backends");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900));

    let shots = 256usize;

    // Crossover region: every n the dense engine can still hold.
    for n in [8usize, 14, 20] {
        let circuit = ghz_ends(n);
        g.bench_with_input(BenchmarkId::new("ghz_statevector", n), &n, |b, _| {
            b.iter(|| run_shots_cfg(&circuit, &cfg(BackendChoice::Statevector, shots)).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("ghz_tableau", n), &n, |b, _| {
            b.iter(|| run_shots_cfg(&circuit, &cfg(BackendChoice::Tableau, shots)).unwrap())
        });
    }

    // Beyond the dense ceiling: tableau-only territory.
    for n in [100usize, 400] {
        let circuit = ghz_ends(n);
        g.bench_with_input(BenchmarkId::new("ghz_tableau", n), &n, |b, _| {
            b.iter(|| run_shots_cfg(&circuit, &cfg(BackendChoice::Tableau, shots)).unwrap())
        });
    }

    // One profiled run outside the timed loops: the snapshot carries the
    // backend.* counters (engine choice, batched-vs-grouped mode) into
    // the JSON artifact where scripts/bench_check.sh gates them.
    qutes_obs::reset();
    let profiled = cfg(BackendChoice::Tableau, shots).with_observe(true);
    run_shots_cfg(&ghz_ends(100), &profiled).unwrap();
    qutes_obs::set_enabled(false);
    g.attach_json("obs", qutes_obs::snapshot().to_json());

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
