//! Engine conformance: one measure or reset executed through the shared
//! instruction stepper (`apply_gate` / `apply_gate_noisy`, which settle
//! the event at once) must behave exactly like the simulator's own
//! primitives — `measure::measure_qubit` and `measure::measure_and_reset`
//! on the statevector, `Tableau::measure` and `Tableau::reset` on the
//! tableau. On random states, from the same stream, both sides must
//! yield the same outcome, a bit-equal state, and the same next RNG
//! draw; a determined tableau outcome must draw nothing at all.

// Circuit-builder helpers sit outside `#[test]` fns, where clippy's
// `allow-unwrap-in-tests` does not reach.
#![allow(clippy::unwrap_used)]

use qutes_qcirc::execute::{apply_gate, apply_gate_noisy};
use qutes_qcirc::{Engine, Gate, Interrupt};
use qutes_sim::tableau::Tableau;
use qutes_sim::{measure, NoiseModel, StateVector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const QUBITS: usize = 4;

/// A random Clifford gate (`clifford`) or any gate on `QUBITS` qubits.
fn random_gate(rng: &mut StdRng, clifford: bool) -> Gate {
    let a = rng.random_range(0..QUBITS);
    let b = (a + rng.random_range(1..QUBITS)) % QUBITS;
    match rng.random_range(0..if clifford { 6 } else { 8 }) {
        0 => Gate::H(a),
        1 => Gate::S(a),
        2 => Gate::X(a),
        3 => Gate::CX {
            control: a,
            target: b,
        },
        4 => Gate::CZ {
            control: a,
            target: b,
        },
        5 => Gate::Swap { a, b },
        6 => Gate::RY {
            target: a,
            theta: rng.random_range(-3.0..3.0),
        },
        _ => Gate::T(a),
    }
}

/// A random state of engine `E`, reached by up to 12 random gates.
fn random_state<E: Engine>(seed: u64, clifford: bool) -> E {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut state = E::fresh(QUBITS, &Interrupt::new(), true).unwrap();
    for _ in 0..rng.random_range(0..12) {
        state
            .apply_unitary(&random_gate(&mut rng, clifford))
            .unwrap();
    }
    state
}

fn assert_same_amplitudes(a: &mut StateVector, b: &mut StateVector, what: &str) {
    assert!(a.amplitudes() == b.amplitudes(), "{what}: states differ");
}

#[test]
fn statevector_measure_matches_measure_qubit() {
    for seed in 0..200u64 {
        let q = seed as usize % QUBITS;
        let mut stepped: StateVector = random_state(seed, false);
        let mut reference = stepped.clone();
        let mut rng_a = StdRng::seed_from_u64(seed ^ 0xABCD);
        let mut rng_b = rng_a.clone();
        let mut clbits = [false];
        let gate = Gate::Measure { qubit: q, clbit: 0 };
        apply_gate(&mut stepped, &mut clbits, &gate, &mut rng_a).unwrap();
        let want = measure::measure_qubit(&mut reference, q, &mut rng_b).unwrap();
        assert_eq!(clbits[0], want, "seed {seed}: outcome");
        assert_same_amplitudes(&mut stepped, &mut reference, &format!("seed {seed}"));
        assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "seed {seed}: stream");
    }
}

#[test]
fn statevector_reset_matches_measure_and_reset() {
    for seed in 0..200u64 {
        let q = seed as usize % QUBITS;
        let mut stepped: StateVector = random_state(seed, false);
        let mut reference = stepped.clone();
        let mut rng_a = StdRng::seed_from_u64(seed ^ 0x1234);
        let mut rng_b = rng_a.clone();
        apply_gate(&mut stepped, &mut [], &Gate::Reset(q), &mut rng_a).unwrap();
        measure::measure_and_reset(&mut reference, q, &mut rng_b).unwrap();
        assert_same_amplitudes(&mut stepped, &mut reference, &format!("seed {seed}"));
        assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "seed {seed}: stream");
    }
}

#[test]
fn statevector_readout_flip_follows_the_collapse() {
    // The state collapses onto the true outcome; only the classical bit
    // reports the flipped one, drawn after the measurement's own coin.
    for (seed, p) in (0..200u64).zip([1.0, 0.3].into_iter().cycle()) {
        let q = seed as usize % QUBITS;
        let noise = NoiseModel::none().with_readout_error(p);
        let mut stepped: StateVector = random_state(seed, false);
        let mut reference = stepped.clone();
        let mut rng_a = StdRng::seed_from_u64(seed ^ 0x77);
        let mut rng_b = rng_a.clone();
        let mut clbits = [false];
        let gate = Gate::Measure { qubit: q, clbit: 0 };
        apply_gate_noisy(&mut stepped, &mut clbits, &gate, &mut rng_a, Some(&noise)).unwrap();
        let truth = measure::measure_qubit(&mut reference, q, &mut rng_b).unwrap();
        let reported = noise.flip_readout(truth, &mut rng_b);
        assert_eq!(clbits[0], reported, "seed {seed}: reported bit");
        if p == 1.0 {
            assert_ne!(clbits[0], truth, "seed {seed}: readout at p=1 must flip");
        }
        assert_same_amplitudes(&mut stepped, &mut reference, &format!("seed {seed}"));
        assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "seed {seed}: stream");
    }
}

#[test]
fn tableau_measure_matches_tableau_measure() {
    let mut random = 0;
    for seed in 0..200u64 {
        let q = seed as usize % QUBITS;
        let mut stepped: Tableau = random_state(seed, true);
        let mut reference = stepped.clone();
        random += usize::from(reference.determined_outcome(q).unwrap().is_none());
        let mut rng_a = StdRng::seed_from_u64(seed ^ 0xABCD);
        let mut rng_b = rng_a.clone();
        let mut clbits = [false];
        let gate = Gate::Measure { qubit: q, clbit: 0 };
        apply_gate(&mut stepped, &mut clbits, &gate, &mut rng_a).unwrap();
        let want = reference.measure(q, &mut rng_b).unwrap();
        assert_eq!(clbits[0], want, "seed {seed}: outcome");
        assert!(
            stepped.action_eq(&reference),
            "seed {seed}: tableaus differ"
        );
        assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "seed {seed}: stream");
    }
    // Both kinds of outcome were exercised.
    assert!(random > 20 && random < 180, "{random} random outcomes");
}

#[test]
fn tableau_reset_matches_tableau_reset() {
    for seed in 0..200u64 {
        let q = seed as usize % QUBITS;
        let mut stepped: Tableau = random_state(seed, true);
        let mut reference = stepped.clone();
        let mut rng_a = StdRng::seed_from_u64(seed ^ 0x1234);
        let mut rng_b = rng_a.clone();
        apply_gate(&mut stepped, &mut [], &Gate::Reset(q), &mut rng_a).unwrap();
        reference.reset(q, &mut rng_b).unwrap();
        assert!(
            stepped.action_eq(&reference),
            "seed {seed}: tableaus differ"
        );
        assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "seed {seed}: stream");
    }
}

#[test]
fn determined_tableau_outcomes_draw_nothing() {
    for seed in 0..100u64 {
        let q = seed as usize % QUBITS;
        let mut tab: Tableau = random_state(seed, true);
        let mut rng = StdRng::seed_from_u64(seed);
        // After one measurement the qubit's outcome is determined.
        let mut clbits = [false, false];
        apply_gate(
            &mut tab,
            &mut clbits,
            &Gate::Measure { qubit: q, clbit: 0 },
            &mut rng,
        )
        .unwrap();
        let before = rng.clone();
        let again = Gate::Measure { qubit: q, clbit: 1 };
        apply_gate(&mut tab, &mut clbits, &again, &mut rng).unwrap();
        apply_gate(&mut tab, &mut [], &Gate::Reset(q), &mut rng).unwrap();
        apply_gate(&mut tab, &mut [], &Gate::Reset(q), &mut rng).unwrap();
        assert_eq!(clbits[0], clbits[1], "seed {seed}: re-measurement moved");
        assert_eq!(
            rng.next_u64(),
            before.clone().next_u64(),
            "seed {seed}: a determined outcome drew from the stream"
        );
    }
}
