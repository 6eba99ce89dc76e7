//! Quantum integer arithmetic — the circuits behind Qutes' `+`/`+=`/`-=`
//! on `quint` values ("superposition addition", paper §4).
//!
//! The workhorse is the Cuccaro–Draper–Kutin–Moulton (CDKM) ripple-carry
//! adder: `|a>|b> -> |a>|a+b mod 2^n>` using a single carry ancilla and
//! `O(n)` Toffolis. A Draper QFT adder is provided as an alternative
//! (benchmarked against CDKM in the E8 ablation).

use crate::qft;
use qutes_qcirc::{CircError, CircResult, QuantumCircuit};
use std::f64::consts::PI;

/// MAJ block of the CDKM adder.
fn maj(circ: &mut QuantumCircuit, c: usize, b: usize, a: usize) -> CircResult<()> {
    circ.cx(a, b)?;
    circ.cx(a, c)?;
    circ.ccx(c, b, a)?;
    Ok(())
}

/// UMA (unmajority-and-add) block of the CDKM adder.
fn uma(circ: &mut QuantumCircuit, c: usize, b: usize, a: usize) -> CircResult<()> {
    circ.ccx(c, b, a)?;
    circ.cx(a, c)?;
    circ.cx(c, b)?;
    Ok(())
}

/// Appends `|a>|b> -> |a>|a+b mod 2^n>` (CDKM ripple-carry, modular).
///
/// `a` and `b` are equal-length qubit lists (bit 0 = LSB); `carry` is one
/// ancilla qubit in `|0>`, returned to `|0>`.
pub fn add_in_place(
    circ: &mut QuantumCircuit,
    a: &[usize],
    b: &[usize],
    carry: usize,
) -> CircResult<()> {
    if a.len() != b.len() {
        return Err(CircError::RegisterSizeMismatch {
            qubits: a.len(),
            clbits: b.len(),
        });
    }
    let n = a.len();
    if n == 0 {
        return Ok(());
    }
    maj(circ, carry, b[0], a[0])?;
    for i in 1..n {
        maj(circ, a[i - 1], b[i], a[i])?;
    }
    for i in (1..n).rev() {
        uma(circ, a[i - 1], b[i], a[i])?;
    }
    uma(circ, carry, b[0], a[0])?;
    Ok(())
}

/// Appends `|a>|b> -> |a>|a+b>` with an explicit carry-out qubit
/// (`b` effectively gains one bit held in `carry_out`).
pub fn add_with_carry(
    circ: &mut QuantumCircuit,
    a: &[usize],
    b: &[usize],
    carry_in: usize,
    carry_out: usize,
) -> CircResult<()> {
    if a.len() != b.len() {
        return Err(CircError::RegisterSizeMismatch {
            qubits: a.len(),
            clbits: b.len(),
        });
    }
    let n = a.len();
    if n == 0 {
        return Ok(());
    }
    maj(circ, carry_in, b[0], a[0])?;
    for i in 1..n {
        maj(circ, a[i - 1], b[i], a[i])?;
    }
    circ.cx(a[n - 1], carry_out)?;
    for i in (1..n).rev() {
        uma(circ, a[i - 1], b[i], a[i])?;
    }
    uma(circ, carry_in, b[0], a[0])?;
    Ok(())
}

/// Appends `|a>|b> -> |a>|b-a mod 2^n>` (the inverse adder).
pub fn sub_in_place(
    circ: &mut QuantumCircuit,
    a: &[usize],
    b: &[usize],
    carry: usize,
) -> CircResult<()> {
    let mut tmp = QuantumCircuit::with_qubits(circ.num_qubits());
    add_in_place(&mut tmp, a, b, carry)?;
    circ.extend(&tmp.inverse()?)
}

/// Appends `|b> -> |b+k mod 2^n>` for a classical constant `k`, using the
/// Draper QFT adder (no ancillas: phase rotations in Fourier space).
pub fn add_const(circ: &mut QuantumCircuit, b: &[usize], k: u64) -> CircResult<()> {
    let n = b.len();
    if n == 0 {
        return Ok(());
    }
    qft::qft(circ, b)?;
    // After QFT (with bit-reversal swaps), register holds the Fourier
    // transform with qubit i carrying phase weight 2^i in the standard
    // ordering used below.
    for (i, &q) in b.iter().enumerate() {
        // Phase on qubit i: 2*pi*k / 2^(n-i) — derived from the Draper
        // construction with our bit ordering.
        let angle = 2.0 * PI * (k as f64) / 2f64.powi((n - i) as i32);
        circ.p(angle, q)?;
    }
    qft::iqft(circ, b)?;
    Ok(())
}

/// Appends `|a>|b> -> |a>|a+b mod 2^n>` using the Draper QFT adder
/// (controlled phases from `a` into Fourier-space `b`). Ancilla-free; the
/// E8 ablation compares it with the CDKM ripple-carry adder.
pub fn add_in_place_qft(circ: &mut QuantumCircuit, a: &[usize], b: &[usize]) -> CircResult<()> {
    if a.len() != b.len() {
        return Err(CircError::RegisterSizeMismatch {
            qubits: a.len(),
            clbits: b.len(),
        });
    }
    let n = b.len();
    if n == 0 {
        return Ok(());
    }
    qft::qft(circ, b)?;
    for (i, &bq) in b.iter().enumerate() {
        for (j, &aq) in a.iter().enumerate() {
            // Adding a_j (weight 2^j) puts phase 2*pi*2^j/2^(n-i) on the
            // Fourier-space qubit i; multiples of 2*pi are no-ops.
            if j < n - i {
                let angle = 2.0 * PI * (1u64 << j) as f64 / (1u64 << (n - i)) as f64;
                circ.cp(angle, aq, bq)?;
            }
        }
    }
    qft::iqft(circ, b)?;
    Ok(())
}

/// Appends the CDKM comparator: `|a>|b>|out> -> |a>|b>|out ^ (a < b)>`.
///
/// Runs the MAJ carry ladder on `~a + b`, copies the carry (which is 1
/// exactly when `a < b`) into `out`, and un-runs the ladder so both
/// inputs are restored. `carry` is one clean ancilla. This is the paper's
/// §6 "comparative functions" extension.
pub fn less_than(
    circ: &mut QuantumCircuit,
    a: &[usize],
    b: &[usize],
    carry: usize,
    out: usize,
) -> CircResult<()> {
    if a.len() != b.len() {
        return Err(CircError::RegisterSizeMismatch {
            qubits: a.len(),
            clbits: b.len(),
        });
    }
    let n = a.len();
    if n == 0 {
        return Ok(());
    }
    // a := ~a
    for &q in a {
        circ.x(q)?;
    }
    // Forward MAJ ladder computes the carry of ~a + b onto a[n-1].
    let mut forward = QuantumCircuit::with_qubits(circ.num_qubits());
    maj(&mut forward, carry, b[0], a[0])?;
    for i in 1..n {
        maj(&mut forward, a[i - 1], b[i], a[i])?;
    }
    circ.extend(&forward)?;
    circ.cx(a[n - 1], out)?;
    circ.extend(&forward.inverse()?)?;
    for &q in a {
        circ.x(q)?;
    }
    Ok(())
}

/// Appends a shift-and-add multiplier:
/// `|a>|b>|0..0> -> |a>|b>|a*b>` with `product.len() == a.len() + b.len()`
/// and one clean `carry` ancilla. Each partial product is a controlled
/// CDKM addition of `b` into the window `product[i..i+n]` (controlled on
/// `a_i`), realising the paper's §6 "arithmetic (e.g. … multiplication)"
/// extension.
pub fn mul_into(
    circ: &mut QuantumCircuit,
    a: &[usize],
    b: &[usize],
    product: &[usize],
    carry: usize,
) -> CircResult<()> {
    if product.len() != a.len() + b.len() {
        return Err(CircError::RegisterSizeMismatch {
            qubits: a.len() + b.len(),
            clbits: product.len(),
        });
    }
    let n = b.len();
    if n == 0 || a.is_empty() {
        return Ok(());
    }
    for (i, &abit) in a.iter().enumerate() {
        // Window of the product receiving b << i, plus its carry-out bit.
        let window: Vec<usize> = (i..i + n).map(|j| product[j]).collect();
        let cout = product[i + n];
        let mut frag = QuantumCircuit::with_qubits(circ.num_qubits());
        add_with_carry(&mut frag, b, &window, carry, cout)?;
        circ.extend(&frag.controlled(abit)?)?;
    }
    Ok(())
}

/// Builds a standalone circuit computing `x * y` (`n`-bit inputs, `2n`-bit
/// product). Returns `(circuit, product_qubits)`.
pub fn multiplier_circuit(n: usize, x: u64, y: u64) -> CircResult<(QuantumCircuit, Vec<usize>)> {
    let mut c = QuantumCircuit::new();
    let a = c.add_qreg("a", n);
    let b = c.add_qreg("b", n);
    let p = c.add_qreg("p", 2 * n);
    let anc = c.add_qreg("carry", 1);
    for i in 0..n {
        if x >> i & 1 == 1 {
            c.x(a.qubit(i))?;
        }
        if y >> i & 1 == 1 {
            c.x(b.qubit(i))?;
        }
    }
    mul_into(&mut c, &a.qubits(), &b.qubits(), &p.qubits(), anc.qubit(0))?;
    Ok((c, p.qubits()))
}

/// Builds a standalone circuit computing `x + y` for `n`-bit inputs and
/// returns `(circuit, a_qubits, b_qubits)`; the sum lands in the `b`
/// register. Used by E1 and the examples.
pub fn adder_circuit(
    n: usize,
    x: u64,
    y: u64,
) -> CircResult<(QuantumCircuit, Vec<usize>, Vec<usize>)> {
    let mut c = QuantumCircuit::new();
    let a = c.add_qreg("a", n);
    let b = c.add_qreg("b", n);
    let anc = c.add_qreg("carry", 1);
    for i in 0..n {
        if x >> i & 1 == 1 {
            c.x(a.qubit(i))?;
        }
        if y >> i & 1 == 1 {
            c.x(b.qubit(i))?;
        }
    }
    add_in_place(&mut c, &a.qubits(), &b.qubits(), anc.qubit(0))?;
    Ok((c, a.qubits(), b.qubits()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qutes_qcirc::statevector;
    use qutes_sim::measure::most_probable_outcome;

    /// Reads the classical value of a register from a basis-state vector.
    fn register_value(circ: &QuantumCircuit, qubits: &[usize]) -> u64 {
        let sv = statevector(circ).unwrap();
        most_probable_outcome(&sv, qubits).unwrap() as u64
    }

    #[test]
    fn cdkm_adds_all_small_pairs() {
        let n = 3;
        for x in 0..(1u64 << n) {
            for y in 0..(1u64 << n) {
                let (c, a, b) = adder_circuit(n, x, y).unwrap();
                assert_eq!(register_value(&c, &a), x, "a preserved");
                assert_eq!(register_value(&c, &b), (x + y) % (1 << n), "{x}+{y} mod 8");
            }
        }
    }

    #[test]
    fn carry_out_captures_overflow() {
        let n = 3;
        let mut c = QuantumCircuit::with_qubits(2 * n + 2);
        let a: Vec<usize> = (0..n).collect();
        let b: Vec<usize> = (n..2 * n).collect();
        let cin = 2 * n;
        let cout = 2 * n + 1;
        // 6 + 5 = 11 = 0b1011: sum 3 bits = 011, carry = 1.
        for i in 0..n {
            if 6 >> i & 1 == 1 {
                c.x(a[i]).unwrap();
            }
            if 5 >> i & 1 == 1 {
                c.x(b[i]).unwrap();
            }
        }
        add_with_carry(&mut c, &a, &b, cin, cout).unwrap();
        assert_eq!(register_value(&c, &b), 3);
        assert_eq!(register_value(&c, &[cout]), 1);
        assert_eq!(register_value(&c, &[cin]), 0, "carry-in ancilla restored");
    }

    #[test]
    fn subtraction_inverts_addition() {
        let n = 4;
        let mut c = QuantumCircuit::with_qubits(2 * n + 1);
        let a: Vec<usize> = (0..n).collect();
        let b: Vec<usize> = (n..2 * n).collect();
        let anc = 2 * n;
        // a = 9, b = 4; b - a mod 16 = 11.
        for i in 0..n {
            if 9 >> i & 1 == 1 {
                c.x(a[i]).unwrap();
            }
            if 4 >> i & 1 == 1 {
                c.x(b[i]).unwrap();
            }
        }
        sub_in_place(&mut c, &a, &b, anc).unwrap();
        assert_eq!(register_value(&c, &b), 11);
        assert_eq!(register_value(&c, &a), 9);
    }

    #[test]
    fn adder_works_on_superposed_inputs() {
        // a = (|1> + |2>)/sqrt(2), b = 3: result entangles a with b = a+3.
        let n = 3;
        let mut c = QuantumCircuit::with_qubits(2 * n + 1);
        let a: Vec<usize> = (0..n).collect();
        let b: Vec<usize> = (n..2 * n).collect();
        // Superpose a over {1, 2}: H on bit 0 of a gives {0,1}; add X on
        // bit 1 conditioned — simpler: H(a1) then CX a1->a0, X a0 maps
        // |00> -> (|01> + |10>)/sqrt(2).
        c.h(a[1]).unwrap();
        c.cx(a[1], a[0]).unwrap();
        c.x(a[0]).unwrap();
        // b = 3
        c.x(b[0]).unwrap();
        c.x(b[1]).unwrap();
        add_in_place(&mut c, &a, &b, 2 * n).unwrap();
        let sv = statevector(&c).unwrap();
        // Expect superposition of (a=1,b=4) and (a=2,b=5).
        let m = sv
            .marginal_probabilities(&a.iter().chain(b.iter()).copied().collect::<Vec<_>>())
            .unwrap();
        let idx = |av: usize, bv: usize| av | (bv << n);
        assert!((m[idx(1, 4)] - 0.5).abs() < 1e-9);
        assert!((m[idx(2, 5)] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn add_const_matches_classical() {
        let n = 4;
        for start in [0u64, 3, 9, 15] {
            for k in [0u64, 1, 5, 15, 16, 31] {
                let mut c = QuantumCircuit::with_qubits(n);
                for i in 0..n {
                    if start >> i & 1 == 1 {
                        c.x(i).unwrap();
                    }
                }
                add_const(&mut c, &(0..n).collect::<Vec<_>>(), k).unwrap();
                assert_eq!(
                    register_value(&c, &(0..n).collect::<Vec<_>>()),
                    (start + k) % (1 << n),
                    "{start}+{k}"
                );
            }
        }
    }

    #[test]
    fn qft_adder_matches_cdkm() {
        let n = 3;
        for x in [0u64, 2, 5, 7] {
            for y in [0u64, 1, 3, 6] {
                let mut c = QuantumCircuit::with_qubits(2 * n);
                let a: Vec<usize> = (0..n).collect();
                let b: Vec<usize> = (n..2 * n).collect();
                for i in 0..n {
                    if x >> i & 1 == 1 {
                        c.x(a[i]).unwrap();
                    }
                    if y >> i & 1 == 1 {
                        c.x(b[i]).unwrap();
                    }
                }
                add_in_place_qft(&mut c, &a, &b).unwrap();
                assert_eq!(register_value(&c, &b), (x + y) % (1 << n), "{x}+{y}");
                assert_eq!(register_value(&c, &a), x);
            }
        }
    }

    #[test]
    fn less_than_truth_table() {
        let n = 3;
        for a in 0..(1u64 << n) {
            for b in 0..(1u64 << n) {
                let mut c = QuantumCircuit::with_qubits(2 * n + 2);
                let aq: Vec<usize> = (0..n).collect();
                let bq: Vec<usize> = (n..2 * n).collect();
                let carry = 2 * n;
                let out = 2 * n + 1;
                for i in 0..n {
                    if a >> i & 1 == 1 {
                        c.x(aq[i]).unwrap();
                    }
                    if b >> i & 1 == 1 {
                        c.x(bq[i]).unwrap();
                    }
                }
                less_than(&mut c, &aq, &bq, carry, out).unwrap();
                let want = (a < b) as u64;
                assert_eq!(register_value(&c, &[out]), want, "{a} < {b}");
                // Inputs and the ancilla are restored.
                assert_eq!(register_value(&c, &aq), a);
                assert_eq!(register_value(&c, &bq), b);
                assert_eq!(register_value(&c, &[carry]), 0);
            }
        }
    }

    #[test]
    fn less_than_works_on_superposed_operand() {
        // a in {2, 5}, b = 4: out entangled with a (2<4 yes, 5<4 no).
        let n = 3;
        let mut c = QuantumCircuit::with_qubits(2 * n + 2);
        let aq: Vec<usize> = (0..n).collect();
        let bq: Vec<usize> = (n..2 * n).collect();
        let mut prep = QuantumCircuit::with_qubits(2 * n + 2);
        crate::state_prep::prepare_uniform_over(&mut prep, &aq, &[2, 5]).unwrap();
        c.extend(&prep).unwrap();
        c.x(bq[2]).unwrap(); // b = 4
        less_than(&mut c, &aq, &bq, 2 * n, 2 * n + 1).unwrap();
        let sv = statevector(&c).unwrap();
        let mut probe: Vec<usize> = aq.clone();
        probe.push(2 * n + 1);
        let m = sv.marginal_probabilities(&probe).unwrap();
        // (a=2, out=1) and (a=5, out=0) each with probability 1/2.
        assert!((m[0b1010] - 0.5).abs() < 1e-9, "{m:?}");
        assert!((m[0b0101] - 0.5).abs() < 1e-9, "{m:?}");
    }

    #[test]
    fn multiplier_truth_table() {
        let n = 2;
        for x in 0..(1u64 << n) {
            for y in 0..(1u64 << n) {
                let (c, p) = multiplier_circuit(n, x, y).unwrap();
                assert_eq!(register_value(&c, &p), x * y, "{x} * {y}");
            }
        }
    }

    #[test]
    fn multiplier_three_bits_spot_checks() {
        for (x, y) in [(5u64, 7u64), (6, 6), (0, 7), (7, 1)] {
            let (c, p) = multiplier_circuit(3, x, y).unwrap();
            assert_eq!(register_value(&c, &p), x * y, "{x} * {y}");
        }
    }

    #[test]
    fn multiplier_superposed_operand() {
        // a in {1, 2}, b = 3: product in {3, 6}, correlated with a.
        let n = 2;
        let mut c = QuantumCircuit::new();
        let a = c.add_qreg("a", n);
        let b = c.add_qreg("b", n);
        let p = c.add_qreg("p", 2 * n);
        let anc = c.add_qreg("c", 1);
        let mut prep = QuantumCircuit::with_qubits(c.num_qubits());
        crate::state_prep::prepare_uniform_over(&mut prep, &a.qubits(), &[1, 2]).unwrap();
        c.extend(&prep).unwrap();
        c.x(b.qubit(0)).unwrap();
        c.x(b.qubit(1)).unwrap();
        mul_into(&mut c, &a.qubits(), &b.qubits(), &p.qubits(), anc.qubit(0)).unwrap();
        let sv = statevector(&c).unwrap();
        let probe: Vec<usize> = a.qubits().into_iter().chain(p.qubits()).collect();
        let m = sv.marginal_probabilities(&probe).unwrap();
        let key = |av: usize, pv: usize| av | (pv << n);
        assert!((m[key(1, 3)] - 0.5).abs() < 1e-9);
        assert!((m[key(2, 6)] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn comparator_and_multiplier_validate_sizes() {
        let mut c = QuantumCircuit::with_qubits(8);
        assert!(less_than(&mut c, &[0, 1], &[2], 3, 4).is_err());
        assert!(mul_into(&mut c, &[0], &[1], &[2, 3, 4], 5).is_err());
    }

    #[test]
    fn mismatched_register_sizes_rejected() {
        let mut c = QuantumCircuit::with_qubits(6);
        assert!(add_in_place(&mut c, &[0, 1], &[2, 3, 4], 5).is_err());
        assert!(add_in_place_qft(&mut c, &[0], &[1, 2]).is_err());
    }

    #[test]
    fn zero_width_add_is_noop() {
        let mut c = QuantumCircuit::with_qubits(1);
        add_in_place(&mut c, &[], &[], 0).unwrap();
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn adder_gate_count_linear() {
        let sizes: Vec<usize> = (2..8)
            .map(|n| {
                let (c, _, _) = adder_circuit(n, 0, 0).unwrap();
                c.size()
            })
            .collect();
        // Differences between consecutive sizes are constant (linear growth).
        let d: Vec<isize> = sizes
            .windows(2)
            .map(|w| w[1] as isize - w[0] as isize)
            .collect();
        assert!(d.windows(2).all(|w| w[0] == w[1]), "sizes {sizes:?}");
    }
}
