//! Property-based tests for the statevector simulator: the invariants here
//! (unitarity, norm preservation, involutions) must hold for *every* gate
//! sequence, so they are checked on randomly generated programs.

#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use qutes_sim::{
    gates, measure, parallel, Channel, Complex64, Fault, Matrix2, Matrix4, Matrix8, StateVector,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A randomly chosen (gate, params) pair we can both apply and invert.
#[derive(Clone, Debug)]
enum Op {
    Single(u8, usize),        // gate id, target
    Rot(u8, f64, usize),      // axis, angle, target
    Controlled(usize, usize), // control, target (CX)
    Swap(usize, usize),
    TwoFused(u8, u8, usize, usize), // gate ids (bit 0, bit 1), q0, q1
    ThreeFused(u8, u8, u8, usize, usize, usize), // gate ids, q0, q1, q2
}

fn gate_for(id: u8) -> Matrix2 {
    match id % 7 {
        0 => gates::x(),
        1 => gates::y(),
        2 => gates::z(),
        3 => gates::h(),
        4 => gates::s(),
        5 => gates::t(),
        _ => gates::sx(),
    }
}

fn rot_for(axis: u8, theta: f64) -> Matrix2 {
    match axis % 3 {
        0 => gates::rx(theta),
        1 => gates::ry(theta),
        _ => gates::rz(theta),
    }
}

/// Kronecker product of two single-qubit gates over basis `|q1 q0>`:
/// `g0` acts on fused bit 0, `g1` on fused bit 1.
fn kron2(g1: &Matrix2, g0: &Matrix2) -> Matrix4 {
    let mut m = [[Complex64::ZERO; 4]; 4];
    for (r, row) in m.iter_mut().enumerate() {
        for (c, e) in row.iter_mut().enumerate() {
            *e = g1.m[r >> 1][c >> 1] * g0.m[r & 1][c & 1];
        }
    }
    Matrix4::new(m)
}

/// Kronecker product of three single-qubit gates over basis `|q2 q1 q0>`.
fn kron3(g2: &Matrix2, g1: &Matrix2, g0: &Matrix2) -> Matrix8 {
    let mut m = [[Complex64::ZERO; 8]; 8];
    for (r, row) in m.iter_mut().enumerate() {
        for (c, e) in row.iter_mut().enumerate() {
            *e = g2.m[r >> 2][c >> 2] * g1.m[r >> 1 & 1][c >> 1 & 1] * g0.m[r & 1][c & 1];
        }
    }
    Matrix8::new(m)
}

fn op_strategy(n: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), 0..n).prop_map(|(g, t)| Op::Single(g, t)),
        (any::<u8>(), -6.0..6.0f64, 0..n).prop_map(|(a, th, t)| Op::Rot(a, th, t)),
        (0..n, 0..n).prop_filter_map("distinct", |(c, t)| {
            (c != t).then_some(Op::Controlled(c, t))
        }),
        (0..n, 0..n).prop_filter_map("distinct", |(a, b)| (a != b).then_some(Op::Swap(a, b))),
        (any::<u8>(), any::<u8>(), 0..n, 0..n).prop_filter_map("distinct", |(g0, g1, a, b)| {
            (a != b).then_some(Op::TwoFused(g0, g1, a, b))
        }),
        (any::<u8>(), any::<u8>(), any::<u8>(), 0..n, 0..n, 0..n).prop_filter_map(
            "distinct",
            |(g0, g1, g2, a, b, c)| {
                (a != b && b != c && a != c).then_some(Op::ThreeFused(g0, g1, g2, a, b, c))
            }
        ),
    ]
}

fn apply(sv: &mut StateVector, op: &Op) {
    match op {
        Op::Single(g, t) => sv.apply_single(&gate_for(*g), *t).unwrap(),
        Op::Rot(a, th, t) => sv.apply_single(&rot_for(*a, *th), *t).unwrap(),
        Op::Controlled(c, t) => sv.apply_controlled(&gates::x(), &[*c], *t).unwrap(),
        Op::Swap(a, b) => sv.apply_swap(*a, *b).unwrap(),
        Op::TwoFused(g0, g1, a, b) => sv
            .apply_two_fused(&kron2(&gate_for(*g1), &gate_for(*g0)), *a, *b)
            .unwrap(),
        Op::ThreeFused(g0, g1, g2, a, b, c) => sv
            .apply_three(
                &kron3(&gate_for(*g2), &gate_for(*g1), &gate_for(*g0)),
                *a,
                *b,
                *c,
            )
            .unwrap(),
    }
}

fn apply_inverse(sv: &mut StateVector, op: &Op) {
    match op {
        Op::Single(g, t) => sv.apply_single(&gate_for(*g).adjoint(), *t).unwrap(),
        Op::Rot(a, th, t) => sv.apply_single(&rot_for(*a, -th), *t).unwrap(),
        Op::Controlled(c, t) => sv.apply_controlled(&gates::x(), &[*c], *t).unwrap(),
        Op::Swap(a, b) => sv.apply_swap(*a, *b).unwrap(),
        Op::TwoFused(g0, g1, a, b) => sv
            .apply_two_fused(&kron2(&gate_for(*g1), &gate_for(*g0)).adjoint(), *a, *b)
            .unwrap(),
        Op::ThreeFused(g0, g1, g2, a, b, c) => sv
            .apply_three(
                &kron3(&gate_for(*g2), &gate_for(*g1), &gate_for(*g0)).adjoint(),
                *a,
                *b,
                *c,
            )
            .unwrap(),
    }
}

proptest! {
    /// Any sequence of unitaries preserves the norm.
    #[test]
    fn norm_preserved(ops in prop::collection::vec(op_strategy(5), 0..60)) {
        let mut sv = StateVector::new(5).unwrap();
        for op in &ops {
            apply(&mut sv, op);
        }
        prop_assert!((sv.norm_sqr() - 1.0).abs() < 1e-9);
    }

    /// Applying a program then its reverse-inverse returns to |0..0>.
    #[test]
    fn program_then_inverse_is_identity(ops in prop::collection::vec(op_strategy(4), 0..40)) {
        let mut sv = StateVector::new(4).unwrap();
        for op in &ops {
            apply(&mut sv, op);
        }
        for op in ops.iter().rev() {
            apply_inverse(&mut sv, op);
        }
        prop_assert!(sv.amplitude(0).approx_eq(Complex64::ONE, 1e-7),
            "returned amplitude {:?}", sv.amplitude(0));
    }

    /// The phase-flip oracle is an involution.
    #[test]
    fn phase_oracle_involutive(marked in any::<u16>(), ops in prop::collection::vec(op_strategy(4), 0..20)) {
        let mut sv = StateVector::new(4).unwrap();
        for op in &ops {
            apply(&mut sv, op);
        }
        let reference = sv.clone();
        let mask = (marked as usize) & 0xF;
        sv.apply_phase_flip_where(|i| i & 0xF == mask);
        sv.apply_phase_flip_where(|i| i & 0xF == mask);
        prop_assert!((sv.fidelity(&reference).unwrap() - 1.0).abs() < 1e-9);
    }

    /// Probabilities from marginal distributions always sum to 1 and agree
    /// with per-qubit probabilities.
    #[test]
    fn marginals_consistent(ops in prop::collection::vec(op_strategy(4), 0..30), q in 0usize..4) {
        let mut sv = StateVector::new(4).unwrap();
        for op in &ops {
            apply(&mut sv, op);
        }
        let marg = sv.marginal_probabilities(&[q]).unwrap();
        prop_assert!((marg.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!((marg[1] - sv.probability_one(q).unwrap()).abs() < 1e-9);
    }

    /// Measurement outcomes follow the pre-measurement distribution: the
    /// observed outcome always has nonzero prior probability, and the
    /// post-measurement state is consistent (re-measurement repeats).
    #[test]
    fn measurement_consistency(ops in prop::collection::vec(op_strategy(3), 0..25), seed in any::<u64>()) {
        let mut sv = StateVector::new(3).unwrap();
        for op in &ops {
            apply(&mut sv, op);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut before = sv.clone();
        let out = measure::measure_qubit(&mut sv, 1, &mut rng).unwrap();
        let prior = before.probability_one(1).unwrap();
        let prior_of_outcome = if out { prior } else { 1.0 - prior };
        prop_assert!(prior_of_outcome > 1e-12);
        // Re-measurement is deterministic after collapse.
        let again = measure::measure_qubit(&mut sv, 1, &mut rng).unwrap();
        prop_assert_eq!(out, again);
        prop_assert!((sv.norm_sqr() - 1.0).abs() < 1e-9);
    }

    /// Controlled application with an empty control list is exactly the
    /// unconditional application.
    #[test]
    fn empty_controls_equal_single(g in any::<u8>(), t in 0usize..4,
                                   ops in prop::collection::vec(op_strategy(4), 0..20)) {
        let mut a = StateVector::new(4).unwrap();
        for op in &ops {
            apply(&mut a, op);
        }
        let mut b = a.clone();
        a.apply_single(&gate_for(g), t).unwrap();
        b.apply_controlled(&gate_for(g), &[], t).unwrap();
        prop_assert!((a.fidelity(&b).unwrap() - 1.0).abs() < 1e-9);
    }

    /// Serial and parallel kernels agree bit-for-bit in distribution.
    #[test]
    fn parallel_serial_agree(ops in prop::collection::vec(op_strategy(14), 1..12)) {
        let mut par = StateVector::new(14).unwrap();
        let mut ser = StateVector::new(14).unwrap();
        ser.set_parallel(false);
        for op in &ops {
            apply(&mut par, op);
            apply(&mut ser, op);
        }
        prop_assert!((par.fidelity(&ser).unwrap() - 1.0).abs() < 1e-8);
    }

    /// Kernel results are *bit-identical* on either side of the parallel
    /// dispatch threshold (2^14 amplitudes): n = 13 stays serial, n = 14
    /// crosses it, n = 15 is comfortably above. The parallel paths
    /// partition the same blocked per-amplitude arithmetic, so every
    /// amplitude must match exactly — not just to tolerance.
    #[test]
    fn parallel_dispatch_is_bit_identical(
        n in 13usize..16,
        ops in prop::collection::vec(op_strategy(13), 1..10),
    ) {
        let mut par = StateVector::new(n).unwrap();
        let mut ser = StateVector::new(n).unwrap();
        par.set_parallel(true);
        ser.set_parallel(false);
        for op in &ops {
            apply(&mut par, op);
            apply(&mut ser, op);
        }
        for i in 0..1usize << n {
            let (a, b) = (par.amplitude(i), ser.amplitude(i));
            prop_assert!(
                a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                "amplitude {i} differs: parallel {a:?} vs serial {b:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Kernel shapes against a naive per-index reference.
//
// `apply_controlled` picks a per-pair operation from the matrix's exact
// entries (swap, scaled swap, one- or two-sided scale, real or complex
// product) and visits only the pairs in the state's support. Each must
// give the amplitudes of the full 2×2 complex product over every index,
// equal under `==` component by component and bit for bit where nonzero
// (the only difference allowed is the sign of an exact zero), at every
// target and control placement, on dense states and on states whose
// support is a proper sub-cube.
// ---------------------------------------------------------------------------

/// The full complex 2×2 product on every pair `(i, i | 1 << target)`
/// whose `i` has the target bit clear and every control set, visiting
/// each index in turn. Test-only: the library keeps no second scalar path.
fn reference_controlled(amps: &mut [Complex64], m: &Matrix2, controls: &[usize], target: usize) {
    let tb = 1usize << target;
    let cm: usize = controls.iter().map(|&c| 1usize << c).sum();
    let [[m00, m01], [m10, m11]] = m.m;
    for i in 0..amps.len() {
        if i & tb == 0 && i & cm == cm {
            let (x, y) = (amps[i], amps[i | tb]);
            amps[i] = m00 * x + m01 * y;
            amps[i | tb] = m10 * x + m11 * y;
        }
    }
}

/// The swap of wires `a` and `b` on every index with every control set,
/// visiting each index in turn.
fn reference_cswap(amps: &mut [Complex64], controls: &[usize], a: usize, b: usize) {
    let (ab, bb) = (1usize << a, 1usize << b);
    let cm: usize = controls.iter().map(|&c| 1usize << c).sum();
    for i in 0..amps.len() {
        if i & ab != 0 && i & bb == 0 && i & cm == cm {
            amps.swap(i, i ^ ab ^ bb);
        }
    }
}

/// The matrices under test, one of each kernel shape: anti-diagonal
/// (X, Y, a phased swap), one-sided diagonal (Z, S, T, phase and the
/// damping no-jump Kraus operator on the `|1>` side, a phase on the
/// `|0>` side), two-sided diagonal (a fused `Gate::Unitary` product),
/// real (H, RY) and complex (RX, U).
fn shape_matrices(th: f64, ph: f64, la: f64) -> Vec<(&'static str, Matrix2)> {
    let z = Complex64::ZERO;
    vec![
        ("x", gates::x()),
        ("y", gates::y()),
        (
            "phased_swap",
            Matrix2::new(z, Complex64::cis(ph), Complex64::cis(la), z),
        ),
        ("z", gates::z()),
        ("s", gates::s()),
        ("t", gates::t()),
        ("phase", gates::phase(la)),
        (
            "phase_low",
            Matrix2::new(Complex64::cis(la), z, z, Complex64::ONE),
        ),
        (
            "damping_k0",
            Matrix2::new(
                Complex64::ONE,
                z,
                z,
                Complex64::from_real((1.0 - th.abs() / 7.0).sqrt()),
            ),
        ),
        ("diag_unitary", gates::rz(th).matmul(&gates::phase(la))),
        ("h", gates::h()),
        ("rx", gates::rx(th)),
        ("ry", gates::ry(th)),
        ("u", gates::u(th, ph, la)),
    ]
}

/// Control placements around `target` on `n` qubits: none, one or two
/// below (bit 0 included), one or two above, and straddling.
fn control_sets(n: usize, target: usize) -> Vec<Vec<usize>> {
    let mut sets = vec![vec![]];
    if target >= 1 {
        sets.push(vec![target - 1]);
    }
    if target >= 2 {
        sets.push(vec![0, target - 1]);
    }
    if target + 1 < n {
        sets.push(vec![target + 1]);
    }
    if target + 2 < n {
        sets.push(vec![target + 1, n - 1]);
    }
    if target >= 1 && target + 1 < n {
        sets.push(vec![target - 1, target + 1]);
        sets.push(vec![0, n - 1]);
    }
    sets
}

/// A random normalised state on `n` qubits with about a quarter of its
/// amplitudes exactly zero, so the kernels also meet signed zeros.
fn random_state(n: usize, seed: u64, parallel: bool) -> StateVector {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut amps: Vec<Complex64> = (0..1usize << n)
        .map(|_| {
            if rng.random::<f64>() < 0.25 {
                Complex64::ZERO
            } else {
                Complex64::new(rng.random::<f64>() - 0.5, rng.random::<f64>() - 0.5)
            }
        })
        .collect();
    amps[0] = Complex64::ONE;
    let norm = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
    for a in &mut amps {
        *a = a.scale(1.0 / norm);
    }
    let mut sv = StateVector::from_amplitudes(amps).unwrap();
    sv.set_parallel(parallel);
    sv
}

/// A state on `n` qubits whose support is a proper sub-cube: a random
/// basis state, then mixing gates on three chosen wires (one of them
/// controlled by another) and a phase, so the other wires stay fixed,
/// some at 1 and some at 0, and some through the X frame.
fn subcube_state(n: usize, seed: u64, parallel: bool) -> StateVector {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sv = StateVector::from_basis_state(n, rng.random_range(0..1usize << n)).unwrap();
    sv.set_parallel(parallel);
    let wires = pick_qubits(&mut rng, n, 3, &[]);
    sv.apply_single(&gates::x(), pick_qubits(&mut rng, n, 1, &wires)[0])
        .unwrap();
    sv.apply_single(&gates::h(), wires[0]).unwrap();
    sv.apply_single(&gates::ry(rng.random::<f64>() * 6.0), wires[1])
        .unwrap();
    sv.apply_single(&gates::t(), wires[1]).unwrap();
    sv.apply_controlled(&gates::u(0.7, -0.4, 1.9), &[wires[1]], wires[2])
        .unwrap();
    sv
}

fn assert_equal_amps(
    got: &[Complex64],
    want: &[Complex64],
    what: &str,
) -> Result<(), TestCaseError> {
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        prop_assert!(
            same_amplitude(*a, *b),
            "{what}: amplitude {i} is {a:?}, reference {b:?}"
        );
    }
    Ok(())
}

/// Checks each of `shapes` at every target and control placement, and
/// the controlled swap of each wire pair in `swaps`, on one state.
fn check_kernels(
    sv: &mut StateVector,
    shapes: &[(&str, Matrix2)],
    swaps: &[(usize, usize)],
) -> Result<(), TestCaseError> {
    let n = sv.num_qubits();
    let base = sv.amplitudes().to_vec();
    for (name, m) in shapes {
        for target in 0..n {
            for controls in control_sets(n, target) {
                let mut got = sv.clone();
                got.apply_controlled(m, &controls, target).unwrap();
                let mut want = base.clone();
                reference_controlled(&mut want, m, &controls, target);
                assert_equal_amps(
                    got.amplitudes(),
                    &want,
                    &format!("{name} {controls:?}->{target}"),
                )?;
            }
        }
    }
    for &(a, b) in swaps {
        let others: Vec<usize> = (0..n).filter(|&q| q != a && q != b).collect();
        for controls in [
            vec![],
            vec![others[0]],
            vec![others[0], others[others.len() - 1]],
        ] {
            let mut got = sv.clone();
            got.apply_controlled_swap(&controls, a, b).unwrap();
            let mut want = base.clone();
            reference_cswap(&mut want, &controls, a, b);
            assert_equal_amps(
                got.amplitudes(),
                &want,
                &format!("cswap {controls:?} {a}<->{b}"),
            )?;
        }
    }
    Ok(())
}

/// `probability_one` is the index-order sum of every squared norm, zero
/// for the indices with the bit clear, within each chunk of the
/// parallel split: bit for bit what a full per-index sweep returns.
fn check_measurement(sv: &mut StateVector) -> Result<(), TestCaseError> {
    let amps = sv.amplitudes().to_vec();
    let engaged = sv.parallel_enabled()
        && amps.len() >= parallel::PAR_THRESHOLD
        && parallel::num_threads() > 1;
    let per_chunk = if engaged {
        amps.len().div_ceil(parallel::num_threads())
    } else {
        amps.len()
    };
    for q in 0..sv.num_qubits() {
        let bit = 1usize << q;
        let naive: f64 = amps
            .chunks(per_chunk)
            .enumerate()
            .map(|(c, chunk)| {
                let mut acc = 0.0;
                for (i, a) in chunk.iter().enumerate() {
                    acc += if (c * per_chunk + i) & bit != 0 {
                        a.norm_sqr()
                    } else {
                        0.0
                    };
                }
                acc
            })
            .sum();
        let p1 = sv.probability_one(q).unwrap();
        prop_assert_eq!(p1.to_bits(), naive.to_bits(), "P(1) of qubit {}", q);

        // A collapse handed the P(1) a coin holds equals one that sums
        // it, and both equal the per-index reference: the dropped side
        // zeroed, the kept side scaled by 1/√p.
        for value in [false, true] {
            let mut given = sv.clone();
            let mut summed = sv.clone();
            // A qubit the support fixes has one possible outcome.
            if (if value { p1 } else { 1.0 - p1 }) <= 1e-12 {
                prop_assert!(given.collapse_given(q, value, p1).is_err());
                prop_assert!(summed.collapse_qubit(q, value).is_err());
                continue;
            }
            let pg = given.collapse_given(q, value, p1).unwrap();
            let ps = summed.collapse_qubit(q, value).unwrap();
            prop_assert_eq!(pg.to_bits(), ps.to_bits());
            let s = 1.0 / pg.sqrt();
            for (i, (a, b)) in given
                .amplitudes()
                .iter()
                .zip(summed.amplitudes())
                .enumerate()
            {
                let want = if (i & bit != 0) == value {
                    amps[i].scale(s)
                } else {
                    Complex64::ZERO
                };
                for (x, y) in [(a.re, b.re), (a.im, b.im)] {
                    prop_assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "collapse of qubit {} to {}, amplitude {}",
                        q,
                        value,
                        i
                    );
                }
                prop_assert!(
                    same_amplitude(*a, want),
                    "collapse of qubit {} to {}, amplitude {} is {:?}, reference {:?}",
                    q,
                    value,
                    i,
                    a,
                    want
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every kernel shape matches the reference on 5 qubits, serially,
    /// and so does the controlled swap of every wire pair, on a dense
    /// state and on one whose support is a sub-cube.
    #[test]
    fn kernel_shapes_match_reference_small(
        seed in any::<u64>(),
        th in -6.0..6.0f64,
        ph in -6.0..6.0f64,
        la in -6.0..6.0f64,
    ) {
        let pairs: Vec<(usize, usize)> =
            (0..5).flat_map(|a| (0..5).filter(move |&b| b != a).map(move |b| (a, b))).collect();
        for mut sv in [random_state(5, seed, false), subcube_state(5, seed, false)] {
            check_kernels(&mut sv, &shape_matrices(th, ph, la), &pairs)?;
            check_measurement(&mut sv)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The same at 14 and 15 qubits, with parallel kernels off and on: a
    /// third of the shapes per case (rotating with the seed), every
    /// target, and swaps at the low and high ends of the index, on a
    /// dense state and on one whose support is a sub-cube.
    #[test]
    fn kernel_shapes_match_reference_large(
        n in 14usize..16,
        seed in any::<u64>(),
        th in -6.0..6.0f64,
        ph in -6.0..6.0f64,
        la in -6.0..6.0f64,
    ) {
        let all = shape_matrices(th, ph, la);
        let first = (seed % 3) as usize;
        let shapes: Vec<_> = all.into_iter().skip(first).step_by(3).collect();
        let swaps = [(0, 1), (1, 0), (0, n - 1), (n - 1, n - 2), (2, 9)];
        for parallel in [false, true] {
            for mut sv in [random_state(n, seed, parallel), subcube_state(n, seed, parallel)] {
                check_kernels(&mut sv, &shapes, &swaps)?;
                check_measurement(&mut sv)?;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The X frame.
//
// An uncontrolled X only toggles a bit of the state's pending X mask, and
// every other operation reads through it. Each generated sequence runs
// twice: as is, and with `settle()` after every operation, which applies
// the frame to the amplitudes. The two must agree after every operation
// (read through the frame) and at the end (settled): bit for bit on every
// nonzero amplitude, under `==` on all. A zero outside the state's support
// is never visited, so the sign it keeps depends on the sweeps that
// skipped it.
// ---------------------------------------------------------------------------

/// One operation of a frame-equivalence sequence.
#[derive(Clone, Debug)]
enum FrameOp {
    /// An uncontrolled X: a frame toggle.
    X(usize),
    /// `shape_matrices()[shape]` under `controls` on `target`.
    Shape(usize, Vec<usize>, usize),
    TwoFused(u8, u8, usize, usize),
    ThreeFused(u8, u8, u8, usize, usize, usize),
    /// A swap of two wires under `controls` (none: a plain swap).
    Swap(Vec<usize>, usize, usize),
    /// A collapse of the qubit onto its likelier outcome.
    Collapse(usize),
    /// New `|0>` qubits at the top.
    Grow(usize),
    /// `channels[channel]` armed on the qubit, then its `fault` applied.
    Fault(usize, Fault, usize),
}

/// The noise channels a fault is drawn from, with the faults each can
/// apply.
fn frame_channels() -> [(Channel, &'static [Fault]); 4] {
    [
        (Channel::BitFlip(0.1), &[Fault::X, Fault::None]),
        (Channel::PhaseFlip(0.1), &[Fault::Z]),
        (Channel::Depolarizing(0.1), &[Fault::X, Fault::Y, Fault::Z]),
        (Channel::Damping(0.3), &[Fault::Jump, Fault::None]),
    ]
}

/// `k` distinct qubits of `0..n` other than those in `taken`.
fn pick_qubits(rng: &mut StdRng, n: usize, k: usize, taken: &[usize]) -> Vec<usize> {
    let mut out = Vec::new();
    while out.len() < k {
        let q = rng.random_range(0..n);
        if !taken.contains(&q) && !out.contains(&q) {
            out.push(q);
        }
    }
    out
}

/// A random sequence of `len` operations starting on `n` qubits, growing
/// by at most `grow` qubits in total. A third of the operations are Xs,
/// so most later operations meet flipped wires and controls.
fn frame_ops(seed: u64, n: usize, len: usize, grow: usize) -> Vec<FrameOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let shapes = shape_matrices(0.0, 0.0, 0.0).len();
    let (mut n, mut grown) = (n, 0);
    let mut ops = Vec::with_capacity(len);
    while ops.len() < len {
        let op = match rng.random_range(0..12u8) {
            0..=3 => FrameOp::X(rng.random_range(0..n)),
            4..=6 => {
                let target = rng.random_range(0..n);
                let k = rng.random_range(0..4usize).min(n - 1);
                let controls = pick_qubits(&mut rng, n, k, &[target]);
                FrameOp::Shape(rng.random_range(0..shapes), controls, target)
            }
            7 => {
                let w = pick_qubits(&mut rng, n, 2, &[]);
                FrameOp::TwoFused(rng.random(), rng.random(), w[0], w[1])
            }
            8 => {
                let w = pick_qubits(&mut rng, n, 3, &[]);
                FrameOp::ThreeFused(rng.random(), rng.random(), rng.random(), w[0], w[1], w[2])
            }
            9 => {
                let w = pick_qubits(&mut rng, n, 2, &[]);
                let k = rng.random_range(0..3usize).min(n - 2);
                FrameOp::Swap(pick_qubits(&mut rng, n, k, &w), w[0], w[1])
            }
            10 if grown < grow => {
                let extra = rng.random_range(1..=grow - grown);
                grown += extra;
                n += extra;
                FrameOp::Grow(extra)
            }
            10 => FrameOp::Collapse(rng.random_range(0..n)),
            _ => {
                let channel = rng.random_range(0..4usize);
                let faults = frame_channels()[channel].1;
                let fault = faults[rng.random_range(0..faults.len())];
                FrameOp::Fault(channel, fault, rng.random_range(0..n))
            }
        };
        ops.push(op);
    }
    ops
}

fn apply_frame_op(sv: &mut StateVector, op: &FrameOp) {
    let shapes = shape_matrices(0.9, -2.1, 1.3);
    match op {
        FrameOp::X(q) => sv.apply_single(&gates::x(), *q).unwrap(),
        FrameOp::Shape(i, controls, target) => sv
            .apply_controlled(&shapes[*i].1, controls, *target)
            .unwrap(),
        FrameOp::TwoFused(g0, g1, a, b) => sv
            .apply_two_fused(&kron2(&gate_for(*g1), &rot_for(*g0, 0.7)), *a, *b)
            .unwrap(),
        FrameOp::ThreeFused(g0, g1, g2, a, b, c) => sv
            .apply_three(
                &kron3(&gate_for(*g2), &rot_for(*g1, -1.1), &gate_for(*g0)),
                *a,
                *b,
                *c,
            )
            .unwrap(),
        FrameOp::Swap(controls, a, b) => sv.apply_controlled_swap(controls, *a, *b).unwrap(),
        FrameOp::Collapse(q) => {
            let p1 = sv.probability_one(*q).unwrap();
            sv.collapse_given(*q, p1 >= 0.5, p1).unwrap();
        }
        FrameOp::Grow(extra) => sv.grow(*extra).unwrap(),
        FrameOp::Fault(channel, fault, q) => {
            let (channel, _) = frame_channels()[*channel];
            // A jump needs weight on |1> to collapse onto.
            let fault = match fault {
                Fault::Jump if sv.probability_one(*q).unwrap() < 0.05 => Fault::None,
                f => *f,
            };
            let site = channel.arm(sv, *q).unwrap();
            site.apply(fault, sv).unwrap();
        }
    }
}

/// Whether two amplitudes agree: each component equal under `==`, and
/// bit for bit when nonzero, so only the sign of a zero may differ.
fn same_amplitude(a: Complex64, b: Complex64) -> bool {
    let same = |x: f64, y: f64| x == y && (x == 0.0 || x.to_bits() == y.to_bits());
    same(a.re, b.re) && same(a.im, b.im)
}

fn assert_same_bits(
    plain: &StateVector,
    settled: &StateVector,
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(plain.num_qubits(), settled.num_qubits());
    for i in 0..plain.len() {
        let (a, b) = (plain.amplitude(i), settled.amplitude(i));
        prop_assert!(
            same_amplitude(a, b),
            "{what}: amplitude {i} is {a:?}, settled {b:?}"
        );
    }
    Ok(())
}

/// Runs `ops` on `start` as is and settled after every operation.
fn check_frame(start: &StateVector, ops: &[FrameOp]) -> Result<(), TestCaseError> {
    let mut plain = start.clone();
    let mut settled = start.clone();
    for (k, op) in ops.iter().enumerate() {
        apply_frame_op(&mut plain, op);
        apply_frame_op(&mut settled, op);
        settled.settle();
        assert_same_bits(&plain, &settled, &format!("after op {k} {op:?}"))?;
    }
    let (a, b) = (plain.amplitudes().to_vec(), settled.amplitudes().to_vec());
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        prop_assert!(
            same_amplitude(*x, *y),
            "settled amplitude {i} is {x:?}, reference {y:?}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On 5 and 6 qubits (serial kernels, every tile size), from a random
    /// state with a quarter of its amplitudes zero.
    #[test]
    fn frame_matches_settled_small(seed in any::<u64>(), n in 5usize..7) {
        let start = random_state(n, seed, false);
        check_frame(&start, &frame_ops(seed, n, 60, 2))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// At 14 qubits, growing to 15, with parallel kernels off and on.
    #[test]
    fn frame_matches_settled_large(seed in any::<u64>()) {
        let ops = frame_ops(seed, 14, 24, 1);
        for parallel in [false, true] {
            let start = random_state(14, seed, parallel);
            check_frame(&start, &ops)?;
        }
    }
}
