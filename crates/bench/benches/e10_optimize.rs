//! E10 bench: the circuit-optimization pipeline — cost of the optimizer
//! itself, and end-to-end shot execution at each `opt_level` so the
//! fused-gate payoff is visible as wall-clock, not just gate counts.
//!
//! After the timed loops, one extra (untimed) profiled execution runs
//! with the `qutes-obs` collector enabled and its snapshot is attached
//! to `BENCH_e10_optimize.json` under `"obs"`, giving the artifact
//! per-stage and per-kernel breakdowns alongside the medians.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qutes_algos::grover::{grover_circuit, mark_states_oracle};
use qutes_algos::qft::{iqft, qft};
use qutes_analysis::verify_optimization;
use qutes_qcirc::execute::run_shots_cfg;
use qutes_qcirc::{optimize, ExecutionConfig, QuantumCircuit};
use std::time::Duration;

fn grover(n: usize) -> QuantumCircuit {
    let qubits: Vec<usize> = (0..n).collect();
    let oracle = mark_states_oracle(n, &qubits, &[1]).unwrap();
    grover_circuit(n, &qubits, &oracle, 1).unwrap()
}

/// QFT followed by its inverse: the level-1 showcase — the whole body
/// cancels.
fn qft_roundtrip(n: usize) -> QuantumCircuit {
    let mut c = QuantumCircuit::with_qubits(n);
    let qubits: Vec<usize> = (0..n).collect();
    for q in 0..n {
        c.h(q).unwrap();
    }
    qft(&mut c, &qubits).unwrap();
    iqft(&mut c, &qubits).unwrap();
    c
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e10_optimize");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900));

    let shots = 256usize;
    for n in [4usize, 8] {
        let circuit = grover(n);
        g.bench_with_input(BenchmarkId::new("optimizer_pass_l2", n), &n, |b, _| {
            b.iter(|| optimize(&circuit, 2).unwrap())
        });
        for level in [0u8, 1, 2] {
            let cfg = ExecutionConfig::default()
                .with_shots(shots)
                .with_seed(1)
                .with_opt_level(level);
            g.bench_with_input(
                BenchmarkId::new(format!("grover_shots_l{level}"), n),
                &n,
                |b, _| b.iter(|| run_shots_cfg(&circuit, &cfg).unwrap()),
            );
        }
        // The translation validator's own cost on the same circuit: how
        // much the static check costs in isolation (dominated by the
        // dense-domain simulations of the fused l2 runs).
        g.bench_with_input(BenchmarkId::new("verify_pass_l2", n), &n, |b, _| {
            b.iter(|| verify_optimization(&circuit, 2).unwrap())
        });
    }

    // The `run --verify` trajectory: the tour program runs end to end
    // through the facade, alone (the baseline — verification code is
    // never consulted, so `--verify`-off costs exactly 0%) and followed
    // by the validation `run --verify` adds (the acceptance bar: within
    // 10% of the baseline, since one static validation amortizes
    // against a whole program's interpretation).
    let tour = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/programs/language_tour.qut"
    ))
    .unwrap();
    let cfg = qutes::RunConfig {
        seed: 7,
        ..qutes::RunConfig::default()
    };
    for verify in [false, true] {
        let id = if verify {
            "tour_run_verified"
        } else {
            "tour_run"
        };
        g.bench_with_input(BenchmarkId::new(id, 0), &0, |b, _| {
            b.iter(|| {
                let out = qutes::run_source(&tour, &cfg).unwrap();
                if verify {
                    verify_optimization(&out.circuit, cfg.opt_level).unwrap();
                }
                out
            })
        });
    }

    for n in [6usize, 10] {
        let circuit = qft_roundtrip(n);
        for level in [0u8, 1] {
            let cfg = ExecutionConfig::default()
                .with_shots(shots)
                .with_seed(1)
                .with_opt_level(level);
            g.bench_with_input(
                BenchmarkId::new(format!("qft_roundtrip_shots_l{level}"), n),
                &n,
                |b, _| b.iter(|| run_shots_cfg(&circuit, &cfg).unwrap()),
            );
        }
    }

    // One profiled execution, outside the timed loops: the observability
    // snapshot (per-stage timers, per-kernel counters) rides along in the
    // JSON artifact so CI logs show *where* the time goes, not just how
    // much there is.
    qutes_obs::reset();
    let profiled_cfg = ExecutionConfig::default()
        .with_shots(shots)
        .with_seed(1)
        .with_opt_level(2)
        .with_observe(true);
    run_shots_cfg(&grover(8), &profiled_cfg).unwrap();
    // One profiled validation too, so the `verify.*` counters (segment
    // domain tallies, escalations, verdicts) land in the gated snapshot.
    verify_optimization(&grover(8), 2).unwrap();
    qutes_obs::set_enabled(false);
    g.attach_json("obs", qutes_obs::snapshot().to_json());

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
