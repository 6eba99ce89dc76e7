//! The support against the dense sweep.
//!
//! Each generated sequence runs twice: on a state that keeps its support,
//! and on a copy whose support is widened to every bit after each
//! operation, which is the dense sweep. After every operation the two
//! must agree on every amplitude, under `==` and bit for bit where a
//! component is nonzero, and on every probability they return; the
//! support's invariant is checked each time.

use super::*;
use crate::gates;
use crate::noise::{Channel, Fault};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One operation of a sequence.
#[derive(Clone, Debug)]
enum Op {
    /// `shapes()[shape]` under `controls` on `target`.
    Shape(usize, Vec<usize>, usize),
    TwoFused(u8, u8, usize, usize),
    ThreeFused(u8, u8, u8, usize, usize, usize),
    /// A swap of two wires under `controls` (none: a plain swap).
    Swap(Vec<usize>, usize, usize),
    /// `probability_one`, then a collapse onto the likelier outcome.
    Collapse(usize),
    /// A collapse onto `|1>` if possible, then `flip_if_one`.
    Reset(usize),
    /// New `|0>` qubits at the top.
    Grow(usize),
    Settle,
    /// `channels()[channel]` armed on the qubit, then its `fault` applied.
    Fault(usize, Fault, usize),
    /// The phase oracle marking the indices with `i & mask == value`.
    Oracle(usize, usize),
    GlobalPhase(f64),
    /// `other ⊗ self` for a one-qubit `other`, in `|1>` or mixed.
    Tensor(bool),
}

/// One matrix of each kernel shape: anti-diagonal, one- and two-sided
/// diagonal, identity, real and complex.
fn shapes() -> Vec<Matrix2> {
    let z = Complex64::ZERO;
    vec![
        gates::x(),
        gates::y(),
        Matrix2::new(z, Complex64::cis(0.4), Complex64::cis(-1.3), z),
        gates::z(),
        gates::t(),
        Matrix2::new(Complex64::cis(2.1), z, z, Complex64::ONE),
        gates::rz(0.8).matmul(&gates::phase(-0.3)),
        Matrix2::new(Complex64::ONE, z, z, Complex64::ONE),
        gates::h(),
        gates::ry(1.1),
        gates::u(0.9, -2.1, 1.3),
    ]
}

fn one_qubit(id: u8) -> Matrix2 {
    match id % 5 {
        0 => gates::x(),
        1 => gates::h(),
        2 => gates::s(),
        3 => gates::ry(0.7),
        _ => gates::rx(-1.2),
    }
}

fn kron2(g1: &Matrix2, g0: &Matrix2) -> Matrix4 {
    let mut m = [[Complex64::ZERO; 4]; 4];
    for (r, row) in m.iter_mut().enumerate() {
        for (c, e) in row.iter_mut().enumerate() {
            *e = g1.m[r >> 1][c >> 1] * g0.m[r & 1][c & 1];
        }
    }
    Matrix4::new(m)
}

fn kron3(g2: &Matrix2, g1: &Matrix2, g0: &Matrix2) -> Matrix8 {
    let mut m = [[Complex64::ZERO; 8]; 8];
    for (r, row) in m.iter_mut().enumerate() {
        for (c, e) in row.iter_mut().enumerate() {
            *e = g2.m[r >> 2][c >> 2] * g1.m[r >> 1 & 1][c >> 1 & 1] * g0.m[r & 1][c & 1];
        }
    }
    Matrix8::new(m)
}

/// The noise channels a fault is drawn from, with the faults each can
/// apply.
fn channels() -> [(Channel, &'static [Fault]); 4] {
    [
        (Channel::BitFlip(0.1), &[Fault::X, Fault::None]),
        (Channel::PhaseFlip(0.1), &[Fault::Z]),
        (Channel::Depolarizing(0.1), &[Fault::X, Fault::Y, Fault::Z]),
        (Channel::Damping(0.3), &[Fault::Jump, Fault::None]),
    ]
}

/// `k` distinct qubits of `0..n` other than those in `taken`.
fn pick(rng: &mut StdRng, n: usize, k: usize, taken: &[usize]) -> Vec<usize> {
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
/// by at most `grow` qubits in total. Mixing gates are a minority, and
/// collapses fix qubits again, so the support stays a proper sub-cube
/// for long stretches and gates meet fixed and free wires and controls.
fn ops(seed: u64, n: usize, len: usize, grow: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut n, mut grown) = (n, 0);
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let op = match rng.random_range(0..16u8) {
            0..=5 => {
                let target = rng.random_range(0..n);
                let k = rng.random_range(0..4usize).min(n - 1);
                let controls = pick(&mut rng, n, k, &[target]);
                Op::Shape(rng.random_range(0..shapes().len()), controls, target)
            }
            6 => {
                let w = pick(&mut rng, n, 2, &[]);
                Op::TwoFused(rng.random(), rng.random(), w[0], w[1])
            }
            7 => {
                let w = pick(&mut rng, n, 3, &[]);
                Op::ThreeFused(rng.random(), rng.random(), rng.random(), w[0], w[1], w[2])
            }
            8 => {
                let w = pick(&mut rng, n, 2, &[]);
                let k = rng.random_range(0..3usize).min(n - 2);
                Op::Swap(pick(&mut rng, n, k, &w), w[0], w[1])
            }
            9 | 10 => Op::Collapse(rng.random_range(0..n)),
            11 => Op::Reset(rng.random_range(0..n)),
            12 if grown < grow => {
                grown += 1;
                n += 1;
                if rng.random() {
                    Op::Grow(1)
                } else {
                    Op::Tensor(rng.random())
                }
            }
            12 => Op::Settle,
            13 => {
                let channel = rng.random_range(0..4usize);
                let faults = channels()[channel].1;
                let fault = faults[rng.random_range(0..faults.len())];
                Op::Fault(channel, fault, rng.random_range(0..n))
            }
            14 => {
                let mask = rng.random_range(0..1usize << n);
                Op::Oracle(mask, rng.random_range(0..1usize << n) & mask)
            }
            _ => Op::GlobalPhase(rng.random_range(-3.0..3.0)),
        };
        out.push(op);
    }
    out
}

/// Applies `op`, returning the probabilities it computed.
fn apply(sv: &mut StateVector, op: &Op) -> Vec<f64> {
    match op {
        Op::Shape(i, controls, target) => {
            sv.apply_controlled(&shapes()[*i], controls, *target)
                .unwrap();
        }
        Op::TwoFused(g0, g1, a, b) => {
            sv.apply_two_fused(&kron2(&one_qubit(*g1), &one_qubit(*g0)), *a, *b)
                .unwrap();
        }
        Op::ThreeFused(g0, g1, g2, a, b, c) => {
            let m = kron3(&one_qubit(*g2), &one_qubit(*g1), &one_qubit(*g0));
            sv.apply_three(&m, *a, *b, *c).unwrap();
        }
        Op::Swap(controls, a, b) => sv.apply_controlled_swap(controls, *a, *b).unwrap(),
        Op::Collapse(q) => {
            let p1 = sv.probability_one(*q).unwrap();
            let p = sv.collapse_given(*q, p1 >= 0.5, p1).unwrap();
            return vec![p1, p];
        }
        Op::Reset(q) => {
            let p1 = sv.probability_one(*q).unwrap();
            if p1 > 1e-9 {
                let p = sv.collapse_qubit(*q, true).unwrap();
                sv.flip_if_one(*q).unwrap();
                return vec![p1, p];
            }
            return vec![p1];
        }
        Op::Grow(extra) => sv.grow(*extra).unwrap(),
        Op::Settle => sv.settle(),
        Op::Fault(channel, fault, q) => {
            let (channel, _) = channels()[*channel];
            let p1 = sv.probability_one(*q).unwrap();
            // A jump needs weight on |1> to collapse onto.
            let fault = match fault {
                Fault::Jump if p1 < 0.05 => Fault::None,
                f => *f,
            };
            let site = channel.arm(sv, *q).unwrap();
            site.apply(fault, sv).unwrap();
            return vec![p1, sv.norm_sqr()];
        }
        Op::Oracle(mask, value) => sv.apply_phase_flip_where(|i| i & mask == *value),
        Op::GlobalPhase(theta) => sv.apply_global_phase(*theta),
        Op::Tensor(mixed) => {
            let mut other = StateVector::from_basis_state(1, 1).unwrap();
            if *mixed {
                other.apply_single(&gates::ry(0.6), 0).unwrap();
            }
            *sv = other.tensor(sv).unwrap();
        }
    }
    vec![sv.norm_sqr()]
}

fn same(x: f64, y: f64) -> bool {
    x == y && (x == 0.0 || x.to_bits() == y.to_bits())
}

/// Runs `ops` from the basis state `start` on `n` qubits, keeping the
/// support and widened to every bit.
fn check(n: usize, start: usize, ops: &[Op], parallel: bool) -> Result<(), TestCaseError> {
    let mut sv = StateVector::from_basis_state(n, start).unwrap();
    sv.set_parallel(parallel);
    let mut dense = sv.clone();
    dense.widen_support();
    for (k, op) in ops.iter().enumerate() {
        let got = apply(&mut sv, op);
        let want = apply(&mut dense, op);
        dense.widen_support();
        sv.check_support();
        prop_assert_eq!(sv.num_qubits(), dense.num_qubits());
        for (x, y) in got.iter().zip(&want) {
            prop_assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "op {} {:?}: {} vs {}",
                k,
                op,
                x,
                y
            );
        }
        for i in 0..sv.len() {
            let (a, b) = (sv.amplitude(i), dense.amplitude(i));
            prop_assert!(
                same(a.re, b.re) && same(a.im, b.im),
                "op {k} {op:?}: amplitude {i} is {a:?}, dense {b:?}"
            );
        }
    }
    for q in 0..sv.num_qubits() {
        let (x, y) = (
            sv.probability_one(q).unwrap(),
            dense.probability_one(q).unwrap(),
        );
        prop_assert_eq!(x.to_bits(), y.to_bits(), "P(1) of qubit {}", q);
    }
    let qubits: Vec<usize> = (0..sv.num_qubits()).rev().collect();
    let (x, y) = (
        sv.marginal_probabilities(&qubits).unwrap(),
        dense.marginal_probabilities(&qubits).unwrap(),
    );
    prop_assert!(x.iter().zip(&y).all(|(a, b)| a.to_bits() == b.to_bits()));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On 5 and 6 qubits, growing by one, serially.
    #[test]
    fn support_matches_dense_small(seed in any::<u64>(), n in 5usize..7) {
        let start = seed as usize % (1 << n);
        check(n, start, &ops(seed, n, 80, 1), false)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// At 14 qubits, growing to 15, with parallel kernels off and on.
    #[test]
    fn support_matches_dense_large(seed in any::<u64>()) {
        let ops = ops(seed, 14, 40, 1);
        for parallel in [false, true] {
            check(14, seed as usize % (1 << 14), &ops, parallel)?;
        }
    }
}

#[test]
fn constructors_keep_the_least_support() {
    let sv = StateVector::new(4).unwrap();
    assert_eq!((sv.free, sv.base), (0, 0));
    let sv = StateVector::from_basis_state(4, 0b1010).unwrap();
    assert_eq!((sv.free, sv.base), (0, 0b1010));
    let h = 0.5f64.sqrt();
    let mut amps = vec![Complex64::ZERO; 16];
    amps[0b0110] = c64(h, 0.0);
    amps[0b1100] = c64(0.0, -h);
    let sv = StateVector::from_amplitudes(amps).unwrap();
    assert_eq!((sv.free, sv.base), (0b1010, 0b0100));
    let t = sv
        .tensor(&StateVector::from_basis_state(1, 1).unwrap())
        .unwrap();
    assert_eq!((t.free, t.base), (0b1010, 0b10100));
    let u = uniform_superposition(3).unwrap();
    assert_eq!((u.free, u.base), (0b111, 0));
}
