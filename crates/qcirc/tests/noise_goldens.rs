//! Golden seeded histograms of noisy shot replay.
//!
//! Each case runs a small circuit under one noise channel (or all of
//! them) through [`run_shots_cfg`] at three seeds and at 1 and 2 shot
//! threads, and compares the exact histogram and the `noise.faults.*`
//! totals with the checked-in `noise_goldens.txt`. The cases cover every
//! channel (bit flip, phase flip, depolarizing on one- and two-qubit
//! gates, amplitude damping, readout, and the noise after a reset) on
//! terminal-only circuits and on circuits with mid-circuit measurement,
//! reset and classical conditionals. Any change to how a noisy run draws
//! from its per-shot streams shows up here as a diff.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! QUTES_UPDATE_GOLDEN=1 cargo test -p qutes-qcirc --test noise_goldens
//! ```

// Circuit-builder helpers sit outside `#[test]` fns, where clippy's
// `allow-unwrap-in-tests` does not reach.
#![allow(clippy::unwrap_used)]

use qutes_qcirc::{run_shots_cfg, ExecutionConfig, Gate, QuantumCircuit};
use qutes_sim::NoiseModel;
use std::fmt::Write as _;
use std::path::PathBuf;

const FAULT_COUNTERS: [&str; 5] = [
    "bit_flip",
    "phase_flip",
    "depolarizing",
    "damping_jump",
    "readout",
];

/// GHZ on three qubits, measured at the end only.
fn ghz_terminal() -> QuantumCircuit {
    let mut c = QuantumCircuit::with_qubits_and_clbits(3, 3);
    c.h(0).unwrap().cx(0, 1).unwrap().cx(1, 2).unwrap();
    for q in 0..3 {
        c.measure(q, q).unwrap();
    }
    c
}

/// Interference that a phase flip turns into a bit flip: H, CZ, H.
fn phase_sensitive() -> QuantumCircuit {
    let mut c = QuantumCircuit::with_qubits_and_clbits(2, 2);
    c.h(0).unwrap().h(1).unwrap();
    c.cz(0, 1).unwrap().cz(0, 1).unwrap();
    c.h(0).unwrap().h(1).unwrap();
    c.measure(0, 0).unwrap().measure(1, 1).unwrap();
    c
}

/// Mid-circuit measurement feeding conditionals, one- and two-qubit
/// gates, then more gates on the measured qubit.
fn feed_forward() -> QuantumCircuit {
    let mut c = QuantumCircuit::with_qubits_and_clbits(3, 3);
    c.h(0).unwrap().ry(0.7, 1).unwrap().cx(0, 2).unwrap();
    c.measure(0, 0).unwrap();
    c.c_if(0, true, Gate::X(1)).unwrap();
    c.c_if(0, false, Gate::H(2)).unwrap();
    c.cx(1, 2).unwrap().h(0).unwrap();
    c.measure(1, 1).unwrap();
    c.c_if(1, true, Gate::Z(0)).unwrap();
    c.h(0).unwrap();
    c.measure(0, 0).unwrap().measure(2, 2).unwrap();
    c
}

/// Excited and superposed qubits for amplitude damping to relax, with a
/// mid-circuit measurement in between.
fn relaxing() -> QuantumCircuit {
    let mut c = QuantumCircuit::with_qubits_and_clbits(3, 3);
    c.x(0).unwrap().h(1).unwrap().ry(2.2, 2).unwrap();
    c.x(0).unwrap().x(0).unwrap().cx(1, 2).unwrap();
    c.measure(1, 1).unwrap();
    c.t(2).unwrap().h(2).unwrap().s(0).unwrap();
    c.measure(0, 0).unwrap().measure(2, 2).unwrap();
    c
}

/// Resets mid-circuit, so the post-reset channels draw too.
fn with_resets() -> QuantumCircuit {
    let mut c = QuantumCircuit::with_qubits_and_clbits(2, 3);
    c.h(0).unwrap().cx(0, 1).unwrap();
    c.measure(0, 0).unwrap();
    c.reset(0).unwrap();
    c.x(1).unwrap();
    c.reset(1).unwrap();
    c.c_if(0, true, Gate::X(0)).unwrap();
    c.h(1).unwrap();
    c.measure(0, 1).unwrap().measure(1, 2).unwrap();
    c
}

/// One case: a name, a circuit, a noise model and an optimization level.
struct Case {
    name: &'static str,
    circuit: QuantumCircuit,
    noise: NoiseModel,
    opt_level: u8,
}

fn cases() -> Vec<Case> {
    let all = NoiseModel {
        bit_flip: 0.02,
        phase_flip: 0.03,
        depolarizing_1q: 0.02,
        depolarizing_2q: 0.06,
        amplitude_damping: 0.08,
        readout_error: 0.04,
    };
    let case = |name, circuit, noise, opt_level| Case {
        name,
        circuit,
        noise,
        opt_level,
    };
    vec![
        case(
            "bit_flip_terminal",
            ghz_terminal(),
            NoiseModel::none().with_bit_flip(0.05),
            0,
        ),
        case(
            "phase_flip_terminal",
            phase_sensitive(),
            NoiseModel::none().with_phase_flip(0.08),
            0,
        ),
        case(
            "depolarizing_1q_2q_terminal",
            ghz_terminal(),
            NoiseModel {
                depolarizing_1q: 0.03,
                depolarizing_2q: 0.12,
                ..NoiseModel::none()
            },
            0,
        ),
        case(
            "depolarizing_feed_forward",
            feed_forward(),
            NoiseModel {
                depolarizing_1q: 0.05,
                depolarizing_2q: 0.1,
                ..NoiseModel::none()
            },
            0,
        ),
        case(
            "damping_mid_circuit",
            relaxing(),
            NoiseModel::none().with_amplitude_damping(0.15),
            0,
        ),
        case(
            "readout_terminal",
            ghz_terminal(),
            NoiseModel::none().with_readout_error(0.1),
            0,
        ),
        case(
            "readout_feed_forward",
            feed_forward(),
            NoiseModel::none().with_readout_error(0.1),
            0,
        ),
        case(
            "reset_noise",
            with_resets(),
            NoiseModel::depolarizing(0.08).with_amplitude_damping(0.1),
            0,
        ),
        case("all_channels_feed_forward", feed_forward(), all.clone(), 0),
        case("all_channels_resets", with_resets(), all.clone(), 0),
        case("all_channels_relaxing_o2", relaxing(), all, 2),
    ]
}

/// Runs `case` at `seed` on `threads` shot threads with the collector
/// on, and renders the histogram and the fault totals as one line.
fn render(case: &Case, seed: u64, threads: usize) -> String {
    let cfg = ExecutionConfig::default()
        .with_shots(300)
        .with_seed(seed)
        .with_opt_level(case.opt_level)
        .with_noise(case.noise.clone())
        .with_shot_threads(threads);
    qutes_obs::reset();
    qutes_obs::set_enabled(true);
    let counts = run_shots_cfg(&case.circuit, &cfg).unwrap();
    let snap = qutes_obs::snapshot();
    qutes_obs::set_enabled(false);
    let mut line = format!("{} seed={seed}:", case.name);
    for (key, n) in counts.sorted() {
        write!(line, " {}x{n}", counts.key_to_bitstring(key)).unwrap();
    }
    line.push_str(" | faults");
    for name in FAULT_COUNTERS {
        let n = snap
            .counters
            .get(format!("noise.faults.{name}").as_str())
            .copied()
            .unwrap_or(0);
        write!(line, " {name}={n}").unwrap();
    }
    line
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/noise_goldens.txt")
}

#[test]
fn noisy_histograms_match_the_goldens_at_one_and_two_threads() {
    let mut rendered = String::new();
    for case in cases() {
        for seed in [0u64, 7, 1234] {
            let serial = render(&case, seed, 1);
            let parallel = render(&case, seed, 2);
            assert_eq!(
                parallel, serial,
                "{} seed {seed}: 2 shot threads diverged from 1",
                case.name
            );
            rendered.push_str(&serial);
            rendered.push('\n');
        }
    }
    if std::env::var_os("QUTES_UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path(), &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(golden_path()).unwrap();
    for (want, got) in golden.lines().zip(rendered.lines()) {
        assert_eq!(got, want, "noisy histogram moved");
    }
    assert_eq!(
        golden.lines().count(),
        rendered.lines().count(),
        "golden line count differs; rerun with QUTES_UPDATE_GOLDEN=1 if intended"
    );
}
