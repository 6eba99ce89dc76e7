//! `kernel.amps_visited` counts the amplitudes each kernel call visits,
//! which the state's support bounds. The obs collector is process-wide,
//! so this stays the only test in its binary.

#![allow(clippy::unwrap_used)]

use qutes_sim::{gates, StateVector};

/// The amplitudes `f` visits on a 12-qubit state whose support frees
/// only qubit 5 and fixes qubit 1 at 1 and every other qubit at 0.
fn visited(f: impl Fn(&mut StateVector)) -> u64 {
    let mut sv = StateVector::from_basis_state(12, 0b10).unwrap();
    sv.apply_single(&gates::h(), 5).unwrap();
    qutes_obs::reset();
    f(&mut sv);
    let snap = qutes_obs::snapshot();
    snap.counters
        .get("kernel.amps_visited")
        .copied()
        .unwrap_or(0)
}

#[test]
fn the_support_bounds_the_amplitudes_visited() {
    qutes_obs::set_enabled(true);
    // A control fixed at 0 makes the call a no-op; one fixed at 1 drops
    // out, leaving the two pairs of the free qubit's values.
    assert_eq!(
        visited(|sv| sv.apply_controlled(&gates::h(), &[0], 3).unwrap()),
        0
    );
    assert_eq!(
        visited(|sv| sv.apply_controlled(&gates::h(), &[1], 3).unwrap()),
        4
    );
    // A diagonal entry of 1 on a fixed target is a no-op; -1 visits the
    // one pair whose free control is set.
    assert_eq!(
        visited(|sv| sv.apply_controlled(&gates::z(), &[5], 3).unwrap()),
        0
    );
    assert_eq!(
        visited(|sv| sv.apply_controlled(&gates::z(), &[5], 1).unwrap()),
        2
    );
    // P(1) sums the support's amplitudes with the bit set.
    assert_eq!(
        visited(|sv| {
            sv.probability_one(5).unwrap();
        }),
        1
    );
    assert_eq!(
        visited(|sv| {
            sv.probability_one(7).unwrap();
        }),
        0
    );
    // A dense state visits every amplitude.
    assert_eq!(
        visited(|sv| {
            for q in 0..12 {
                sv.apply_single(&gates::h(), q).unwrap();
            }
            qutes_obs::reset();
            sv.apply_single(&gates::ry(0.3), 7).unwrap();
        }),
        1 << 12
    );
    qutes_obs::set_enabled(false);
}
