//! Quantum Fourier transform circuits.
//!
//! Used as a library building block (the paper's §6 roadmap calls for "a
//! comprehensive standard library containing essential quantum functions
//! and algorithms") and by the Draper-style adder variant in
//! [`crate::arithmetic`].

use qutes_qcirc::{CircResult, QuantumCircuit};
use std::f64::consts::PI;

/// Appends the QFT on `qubits` (qubit 0 = least significant bit) to
/// `circ`. Includes the final bit-reversal swaps so the output ordering
/// matches the textbook definition.
pub fn qft(circ: &mut QuantumCircuit, qubits: &[usize]) -> CircResult<()> {
    let n = qubits.len();
    for i in (0..n).rev() {
        circ.h(qubits[i])?;
        for j in (0..i).rev() {
            let angle = PI / 2f64.powi((i - j) as i32);
            circ.cp(angle, qubits[j], qubits[i])?;
        }
    }
    for i in 0..n / 2 {
        circ.swap(qubits[i], qubits[n - 1 - i])?;
    }
    Ok(())
}

/// Appends the inverse QFT on `qubits`.
pub fn iqft(circ: &mut QuantumCircuit, qubits: &[usize]) -> CircResult<()> {
    let mut tmp = QuantumCircuit::with_qubits(circ.num_qubits());
    qft(&mut tmp, qubits)?;
    circ.extend(&tmp.inverse()?)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qutes_qcirc::statevector;
    use qutes_sim::Complex64;

    #[test]
    fn qft_of_zero_is_uniform() {
        let n = 4;
        let mut c = QuantumCircuit::with_qubits(n);
        qft(&mut c, &(0..n).collect::<Vec<_>>()).unwrap();
        let sv = statevector(&c).unwrap();
        let amp = 1.0 / ((1 << n) as f64).sqrt();
        for i in 0..(1 << n) {
            assert!(
                sv.amplitude(i).approx_eq(Complex64::new(amp, 0.0), 1e-9),
                "amp[{i}]"
            );
        }
    }

    #[test]
    fn qft_of_basis_state_has_expected_phases() {
        // QFT|x> = (1/sqrt(N)) sum_y e^{2 pi i x y / N} |y>
        let n = 3;
        let x = 5usize;
        let big_n = 1usize << n;
        let mut c = QuantumCircuit::with_qubits(n);
        for q in 0..n {
            if x >> q & 1 == 1 {
                c.x(q).unwrap();
            }
        }
        qft(&mut c, &(0..n).collect::<Vec<_>>()).unwrap();
        let sv = statevector(&c).unwrap();
        let amp = 1.0 / (big_n as f64).sqrt();
        for y in 0..big_n {
            let phase = 2.0 * PI * (x * y) as f64 / big_n as f64;
            let expect = Complex64::cis(phase).scale(amp);
            assert!(
                sv.amplitude(y).approx_eq(expect, 1e-9),
                "y={y}: {:?} vs {:?}",
                sv.amplitude(y),
                expect
            );
        }
    }

    #[test]
    fn iqft_inverts_qft() {
        let n = 4;
        let qubits: Vec<usize> = (0..n).collect();
        let mut c = QuantumCircuit::with_qubits(n);
        // Prepare a non-trivial state.
        c.h(0).unwrap();
        c.cx(0, 2).unwrap();
        c.t(3).unwrap();
        let reference = statevector(&c).unwrap();
        qft(&mut c, &qubits).unwrap();
        iqft(&mut c, &qubits).unwrap();
        let sv = statevector(&c).unwrap();
        assert!((sv.fidelity(&reference).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn qft_depth_is_quadratic_in_gates() {
        let n = 6;
        let mut c = QuantumCircuit::with_qubits(n);
        qft(&mut c, &(0..n).collect::<Vec<_>>()).unwrap();
        // n H gates + n(n-1)/2 controlled phases + n/2 swaps.
        assert_eq!(c.size(), n + n * (n - 1) / 2 + n / 2);
    }
}
