//! Recycled amplitude storage leaks nothing from earlier states. Every
//! thread keeps the buffers of the states it drops and serves new
//! states, clones and growth from them; each constructor must still
//! give exactly the amplitudes it gives on a thread with no spares.

#![allow(clippy::unwrap_used)]

use qutes_sim::{gates, StateVector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The stored bits of every amplitude, in basis-index order.
fn bits(sv: &mut StateVector) -> Vec<u64> {
    sv.amplitudes()
        .iter()
        .flat_map(|a| [a.re.to_bits(), a.im.to_bits()])
        .collect()
}

/// Random single-qubit rotations and CXs on every wire of `sv`, which
/// leave (almost) every amplitude non-zero.
fn scramble(sv: &mut StateVector, rng: &mut StdRng) {
    let n = sv.num_qubits();
    for _ in 0..3 * n {
        let q = rng.random_range(0..n);
        sv.apply_single(&gates::ry(rng.random::<f64>() * 3.0), q)
            .unwrap();
        sv.apply_single(&gates::rz(rng.random::<f64>() * 3.0), q)
            .unwrap();
        if n > 1 {
            let c = (q + 1 + rng.random_range(0..n - 1)) % n;
            sv.apply_controlled(&gates::x(), &[c], q).unwrap();
        }
    }
}

/// Leaves this thread two spares each of 2^13, 2^14 and 2^15
/// amplitudes, every one last holding a scrambled state.
fn fill_spares() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut live = Vec::new();
    for n in [13, 14, 15] {
        let mut sv = StateVector::new(n).unwrap();
        scramble(&mut sv, &mut rng);
        live.push(sv.clone());
        live.push(sv);
    }
}

/// Builds states through every constructor that takes storage, and
/// returns the bits of each.
fn constructed() -> Vec<Vec<u64>> {
    let mut rng = StdRng::seed_from_u64(5);
    let mut out = Vec::new();
    // After `fill_spares`, a 2^13 spare serves this one, and the other
    // 2^13 spare the next.
    let mut a = StateVector::new(2).unwrap();
    out.push(bits(&mut a));
    let mut b = StateVector::from_basis_state(5, 19).unwrap();
    out.push(bits(&mut b));
    // A 2^14 spare; growing to 3 qubits stays within it, to 15 moves
    // the state into a 2^15 spare.
    let mut g = StateVector::new(1).unwrap();
    scramble(&mut g, &mut rng);
    g.grow(2).unwrap();
    out.push(bits(&mut g));
    scramble(&mut g, &mut rng);
    g.grow(12).unwrap();
    out.push(bits(&mut g));
    scramble(&mut g, &mut rng);
    out.push(bits(&mut g));
    // The other 2^15 spare; then growing past it with no spare left
    // that fits reallocates.
    let mut c = g.clone();
    out.push(bits(&mut c));
    c.grow(1).unwrap();
    out.push(bits(&mut c));
    scramble(&mut a, &mut rng);
    scramble(&mut b, &mut rng);
    let mut t = a.tensor(&b).unwrap();
    out.push(bits(&mut t));
    scramble(&mut t, &mut rng);
    out.push(bits(&mut t));
    out
}

#[test]
fn recycled_storage_matches_a_fresh_thread() {
    let fresh = std::thread::spawn(constructed).join().unwrap();
    fill_spares();
    assert_eq!(constructed(), fresh);
    // Each run leaves spares of its own shapes behind; a second run
    // over them is the same again.
    assert_eq!(constructed(), fresh);
}
