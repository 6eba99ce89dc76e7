//! Measurement: collapsing single- and multi-qubit measurements and
//! non-collapsing shot sampling.
//!
//! All randomness flows through a caller-supplied [`rand::Rng`], so the
//! Qutes runtime (and every test) can be made deterministic with a seeded
//! `StdRng`.
//!
//! ```
//! use qutes_sim::{gates, measure, StateVector};
//! use rand::SeedableRng;
//!
//! let mut sv = StateVector::new(1).unwrap();
//! sv.apply_single(&gates::x(), 0).unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! // |1> measures to 1 with certainty, and the state stays collapsed.
//! assert!(measure::measure_qubit(&mut sv, 0, &mut rng).unwrap());
//! assert!((sv.probability_one(0).unwrap() - 1.0).abs() < 1e-12);
//! ```

use crate::error::{SimError, SimResult};
use crate::state::StateVector;
use rand::Rng;
use std::collections::HashMap;

/// Measures a single qubit in the computational basis, collapsing the
/// state. Returns the observed bit.
pub fn measure_qubit<R: Rng + ?Sized>(
    state: &mut StateVector,
    qubit: usize,
    rng: &mut R,
) -> SimResult<bool> {
    let p1 = state.probability_one(qubit)?;
    let outcome = rng.random::<f64>() < p1;
    state.collapse_given(qubit, outcome, p1)?;
    Ok(outcome)
}

/// Measures several qubits (in order), collapsing the state. Bit `k` of
/// the returned value is the outcome for `qubits[k]`.
pub fn measure_qubits<R: Rng + ?Sized>(
    state: &mut StateVector,
    qubits: &[usize],
    rng: &mut R,
) -> SimResult<usize> {
    let mut result = 0usize;
    for (k, &q) in qubits.iter().enumerate() {
        if measure_qubit(state, q, rng)? {
            result |= 1 << k;
        }
    }
    Ok(result)
}

/// Measures every qubit, collapsing to a single basis state. Returns the
/// basis index.
pub fn measure_all<R: Rng + ?Sized>(state: &mut StateVector, rng: &mut R) -> SimResult<usize> {
    let qubits: Vec<usize> = (0..state.num_qubits()).collect();
    measure_qubits(state, &qubits, rng)
}

/// Measures `qubit` and then resets it to `|0>` (measure-and-reset, the
/// non-unitary `reset` primitive). Returns the pre-reset outcome.
pub fn measure_and_reset<R: Rng + ?Sized>(
    state: &mut StateVector,
    qubit: usize,
    rng: &mut R,
) -> SimResult<bool> {
    let outcome = measure_qubit(state, qubit, rng)?;
    if outcome {
        state.flip_if_one(qubit)?;
    }
    Ok(outcome)
}

/// Shots between interrupt checks in the sampling loops (here and in
/// [`Tableau::sample`](crate::Tableau::sample)). A shot costs
/// nanoseconds, so a check per shot would be the dominant cost under an
/// armed deadline, which reads the clock on every check.
pub(crate) const SAMPLE_CHECK_STRIDE: u64 = 1 << 12;

/// Draws `shots` independent samples of the joint outcome on `qubits`
/// **without collapsing** the state, returning outcome -> count.
///
/// This mirrors how Qiskit executes a measured circuit many times; the
/// Qutes runtime uses it for `print`-style inspection while using the
/// collapsing measurements above for program semantics.
///
/// Each shot is one uniform draw, a binary search of the marginal's
/// cumulative distribution and one increment of a dense tally the size
/// of that distribution; only the occupied outcomes reach the map. The
/// state's interrupt is checked once up front and then every
/// 4096 shots.
pub fn sample_counts<R: Rng + ?Sized>(
    state: &StateVector,
    qubits: &[usize],
    shots: usize,
    rng: &mut R,
) -> SimResult<HashMap<usize, usize>> {
    // Cumulative distribution for inverse-transform sampling, summed in
    // place over the marginal.
    let mut cdf = state.marginal_probabilities(qubits)?;
    let mut acc = 0.0f64;
    for c in &mut cdf {
        acc += *c;
        *c = acc;
    }
    let total = acc.max(f64::MIN_POSITIVE);
    let interrupt = state.interrupt();
    interrupt.check().map_err(SimError::Interrupted)?;
    let mut ck = 0u64;
    let mut tally = vec![0usize; cdf.len()];
    for _ in 0..shots {
        interrupt
            .checkpoint(&mut ck, SAMPLE_CHECK_STRIDE)
            .map_err(SimError::Interrupted)?;
        let r = rng.random::<f64>() * total;
        let idx = cdf.partition_point(|&c| c < r).min(cdf.len() - 1);
        tally[idx] += 1;
    }
    Ok(tally
        .into_iter()
        .enumerate()
        .filter(|&(_, n)| n > 0)
        .collect())
}

/// Returns the single most probable joint outcome on `qubits` (ties broken
/// toward the smaller index). Useful for noiseless algorithm checks where
/// sampling would only add variance.
pub fn most_probable_outcome(state: &StateVector, qubits: &[usize]) -> SimResult<usize> {
    let marginal = state.marginal_probabilities(qubits)?;
    let mut best = 0usize;
    let mut best_p = -1.0f64;
    for (i, &p) in marginal.iter().enumerate() {
        if p > best_p {
            best_p = p;
            best = i;
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xC0FFEE)
    }

    #[test]
    fn measuring_basis_state_is_deterministic() {
        let mut r = rng();
        let mut sv = StateVector::from_basis_state(3, 0b101).unwrap();
        assert!(measure_qubit(&mut sv, 0, &mut r).unwrap());
        assert!(!measure_qubit(&mut sv, 1, &mut r).unwrap());
        assert!(measure_qubit(&mut sv, 2, &mut r).unwrap());
    }

    #[test]
    fn measure_all_returns_basis_index() {
        let mut r = rng();
        let mut sv = StateVector::from_basis_state(4, 0b1010).unwrap();
        assert_eq!(measure_all(&mut sv, &mut r).unwrap(), 0b1010);
    }

    #[test]
    fn bell_pair_measurements_are_correlated() {
        let mut r = rng();
        for _ in 0..50 {
            let mut sv = StateVector::new(2).unwrap();
            sv.apply_single(&gates::h(), 0).unwrap();
            sv.apply_controlled(&gates::x(), &[0], 1).unwrap();
            let a = measure_qubit(&mut sv, 0, &mut r).unwrap();
            let b = measure_qubit(&mut sv, 1, &mut r).unwrap();
            assert_eq!(a, b, "Bell pair outcomes must be perfectly correlated");
        }
    }

    #[test]
    fn uniform_qubit_is_roughly_fair() {
        let mut r = rng();
        let mut ones = 0;
        let n = 2000;
        for _ in 0..n {
            let mut sv = StateVector::new(1).unwrap();
            sv.apply_single(&gates::h(), 0).unwrap();
            if measure_qubit(&mut sv, 0, &mut r).unwrap() {
                ones += 1;
            }
        }
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.05, "frac={frac}");
    }

    #[test]
    fn measurement_collapses_state() {
        let mut r = rng();
        let mut sv = StateVector::new(1).unwrap();
        sv.apply_single(&gates::h(), 0).unwrap();
        let first = measure_qubit(&mut sv, 0, &mut r).unwrap();
        // Re-measuring must repeat the same outcome forever.
        for _ in 0..10 {
            assert_eq!(measure_qubit(&mut sv, 0, &mut r).unwrap(), first);
        }
    }

    #[test]
    fn measure_and_reset_zeroes_qubit() {
        let mut r = rng();
        let mut sv = StateVector::from_basis_state(2, 0b11).unwrap();
        let out = measure_and_reset(&mut sv, 0, &mut r).unwrap();
        assert!(out);
        assert!((sv.probability_one(0).unwrap()).abs() < 1e-12);
        // Other qubit untouched.
        assert!((sv.probability_one(1).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sample_counts_does_not_collapse() {
        let mut r = rng();
        let mut sv = StateVector::new(2).unwrap();
        sv.apply_single(&gates::h(), 0).unwrap();
        sv.apply_controlled(&gates::x(), &[0], 1).unwrap();
        let before = sv.probabilities();
        let counts = sample_counts(&sv, &[0, 1], 1000, &mut r).unwrap();
        assert_eq!(sv.probabilities(), before);
        let c00 = *counts.get(&0b00).unwrap_or(&0);
        let c11 = *counts.get(&0b11).unwrap_or(&0);
        assert_eq!(c00 + c11, 1000, "only correlated outcomes possible");
        assert!(c00 > 350 && c11 > 350, "c00={c00} c11={c11}");
    }

    #[test]
    fn sample_counts_subset_ordering() {
        let mut r = rng();
        // |q1 q0> = |10>: sampling [1] alone must give outcome 1.
        let sv = StateVector::from_basis_state(2, 0b10).unwrap();
        let counts = sample_counts(&sv, &[1], 100, &mut r).unwrap();
        assert_eq!(*counts.get(&1).unwrap(), 100);
    }

    /// Per-shot hash-map sampler (the pre-tally implementation):
    /// `sample_counts` must reproduce its histograms bit-for-bit.
    fn reference_sample(
        state: &StateVector,
        qubits: &[usize],
        shots: usize,
        rng: &mut StdRng,
    ) -> HashMap<usize, usize> {
        let marginal = state.marginal_probabilities(qubits).unwrap();
        let mut cdf = Vec::new();
        let mut acc = 0.0f64;
        for &p in &marginal {
            acc += p;
            cdf.push(acc);
        }
        let total = acc.max(f64::MIN_POSITIVE);
        let mut counts = HashMap::new();
        for _ in 0..shots {
            let r = rng.random::<f64>() * total;
            let idx = cdf.partition_point(|&c| c < r).min(marginal.len() - 1);
            *counts.entry(idx).or_insert(0) += 1;
        }
        counts
    }

    #[test]
    fn sample_counts_matches_per_shot_reference_bit_for_bit() {
        for (n, seed) in [(3usize, 0u64), (3, 1), (6, 2), (10, 3), (10, 4)] {
            let mut sv = StateVector::new(n).unwrap();
            for q in 0..n {
                sv.apply_single(&gates::ry(0.3 + 0.37 * q as f64), q)
                    .unwrap();
            }
            for q in 1..n {
                sv.apply_controlled(&gates::x(), &[q - 1], q).unwrap();
                sv.apply_single(&gates::t(), q).unwrap();
            }
            sv.apply_single(&gates::h(), 0).unwrap();
            // Every qubit in order, then a subset in shuffled order.
            let all: Vec<usize> = (0..n).collect();
            let mut shuffled = all.clone();
            let mut gen = StdRng::seed_from_u64(seed);
            for i in (1..n).rev() {
                shuffled.swap(i, gen.random_range(0..=i));
            }
            shuffled.pop();
            for qubits in [all, shuffled] {
                let reference =
                    reference_sample(&sv, &qubits, 2000, &mut StdRng::seed_from_u64(seed));
                let tallied =
                    sample_counts(&sv, &qubits, 2000, &mut StdRng::seed_from_u64(seed)).unwrap();
                assert_eq!(tallied, reference, "n={n} seed={seed} qubits={qubits:?}");
            }
        }
    }

    #[test]
    fn interrupt_cancels_sample_counts() {
        use qutes_supervisor::{Interrupt, StopReason};
        let mut sv = StateVector::new(2).unwrap();
        sv.apply_single(&gates::h(), 0).unwrap();
        let intr = Interrupt::new();
        intr.cancel();
        sv.set_interrupt(intr);
        let err = sample_counts(&sv, &[0, 1], 10, &mut rng()).unwrap_err();
        assert_eq!(err, SimError::Interrupted(StopReason::Cancelled));
    }

    #[test]
    fn deadline_stops_long_sample_counts_promptly() {
        use qutes_supervisor::{Interrupt, StopReason};
        use std::time::{Duration, Instant};
        let mut sv = StateVector::new(2).unwrap();
        sv.apply_single(&gates::h(), 0).unwrap();
        sv.set_interrupt(Interrupt::with_deadline(Duration::from_millis(1)));
        let start = Instant::now();
        let err = sample_counts(&sv, &[0, 1], 1_000_000_000, &mut rng()).unwrap_err();
        assert!(
            matches!(
                err,
                SimError::Interrupted(StopReason::DeadlineExceeded { .. })
            ),
            "{err:?}"
        );
        assert!(start.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn most_probable_outcome_picks_peak() {
        let mut sv = StateVector::new(2).unwrap();
        sv.apply_single(&gates::x(), 1).unwrap();
        assert_eq!(most_probable_outcome(&sv, &[0, 1]).unwrap(), 0b10);
    }

    #[test]
    fn measure_qubits_bit_order() {
        let mut r = rng();
        let mut sv = StateVector::from_basis_state(3, 0b100).unwrap();
        // qubits listed high-to-low: result bit 0 = qubit 2's outcome.
        let out = measure_qubits(&mut sv, &[2, 1, 0], &mut r).unwrap();
        assert_eq!(out, 0b001);
    }
}
