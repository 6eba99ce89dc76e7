//! Gate-level substring-match phase oracle — the circuit behind Qutes'
//! `"pattern" in haystack` operator (paper §5, Grover-based substring
//! search on `qustring` values).
//!
//! For an `n`-qubit haystack (one qubit per bit-character) and an `m`-bit
//! pattern there are `n - m + 1` candidate positions. The oracle:
//!
//! 1. computes a *match flag* per position with an X-conjugated MCX,
//! 2. ORs the flags into one result ancilla (De Morgan: X-MCX-X),
//! 3. phase-flips on the result (`Z`),
//! 4. uncomputes everything.
//!
//! Ancilla budget: `n - m + 1` flags + 1 result. A simulator-level
//! predicate oracle ([`matches_at_any_position`] fed to
//! `StateVector::apply_phase_flip_where`) cross-checks the construction
//! (DESIGN.md §6 ablation).

use crate::grover;
use qutes_qcirc::{CircResult, QuantumCircuit};
use rand::Rng;

/// Layout of the substring-search circuit.
#[derive(Clone, Debug)]
pub struct SubstringSearch {
    /// Haystack qubits (bit-characters, index 0 = first character).
    pub haystack: Vec<usize>,
    /// Per-position match-flag ancillas.
    pub flags: Vec<usize>,
    /// OR-result ancilla.
    pub result: usize,
    /// Total circuit width.
    pub width: usize,
    /// The pattern being searched.
    pub pattern: Vec<bool>,
}

/// Classical reference: does `pattern` occur in `text` (as a bitstring,
/// index 0 = first character) at any position? Also returns the number of
/// character comparisons performed — the classical cost E2 reports.
pub fn classical_substring_scan(text: &[bool], pattern: &[bool]) -> (bool, usize) {
    let n = text.len();
    let m = pattern.len();
    let mut comparisons = 0usize;
    if m == 0 || m > n {
        return (m == 0, comparisons);
    }
    for start in 0..=n - m {
        let mut ok = true;
        for j in 0..m {
            comparisons += 1;
            if text[start + j] != pattern[j] {
                ok = false;
                break;
            }
        }
        if ok {
            return (true, comparisons);
        }
    }
    (false, comparisons)
}

/// Does `pattern` match basis state `state` (haystack bits = low `n`
/// bits, bit `i` = character `i`) at any position?
pub fn matches_at_any_position(state: usize, n: usize, pattern: &[bool]) -> bool {
    let m = pattern.len();
    if m == 0 || m > n {
        return m == 0;
    }
    'positions: for start in 0..=n - m {
        for (j, &p) in pattern.iter().enumerate() {
            if ((state >> (start + j)) & 1 == 1) != p {
                continue 'positions;
            }
        }
        return true;
    }
    false
}

/// Number of `n`-bit strings containing `pattern` — the marked-set size
/// used to pick the Grover iteration count.
pub fn count_matching_strings(n: usize, pattern: &[bool]) -> u64 {
    (0..(1u64 << n))
        .filter(|&s| matches_at_any_position(s as usize, n, pattern))
        .count() as u64
}

impl SubstringSearch {
    /// Plans a search over an `n`-character haystack for `pattern`.
    pub fn new(n: usize, pattern: &[bool]) -> Self {
        let m = pattern.len();
        assert!(m >= 1, "empty pattern matches trivially");
        assert!(m <= n, "pattern longer than haystack");
        let positions = n - m + 1;
        let haystack: Vec<usize> = (0..n).collect();
        let flags: Vec<usize> = (n..n + positions).collect();
        let result = n + positions;
        SubstringSearch {
            haystack,
            flags,
            result,
            width: n + positions + 1,
            pattern: pattern.to_vec(),
        }
    }

    /// Number of candidate positions.
    pub fn positions(&self) -> usize {
        self.flags.len()
    }

    /// Appends the flag-computation layer (or its inverse — the circuit is
    /// self-inverse, so the same code uncomputes).
    fn compute_flags(&self, c: &mut QuantumCircuit) -> CircResult<()> {
        let m = self.pattern.len();
        for (pos, &flag) in self.flags.iter().enumerate() {
            // X-conjugate the haystack qubits where the pattern bit is 0 so
            // the MCX fires exactly on a match.
            for j in 0..m {
                if !self.pattern[j] {
                    c.x(self.haystack[pos + j])?;
                }
            }
            let controls: Vec<usize> = (0..m).map(|j| self.haystack[pos + j]).collect();
            c.mcx(&controls, flag)?;
            for j in 0..m {
                if !self.pattern[j] {
                    c.x(self.haystack[pos + j])?;
                }
            }
        }
        Ok(())
    }

    /// Appends the OR of all flags into the result ancilla
    /// (`result ^= OR(flags)`), via De Morgan.
    fn compute_or(&self, c: &mut QuantumCircuit) -> CircResult<()> {
        for &f in &self.flags {
            c.x(f)?;
        }
        c.mcx(&self.flags, self.result)?;
        c.x(self.result)?;
        for &f in &self.flags {
            c.x(f)?;
        }
        Ok(())
    }

    /// Builds the full phase oracle: flips the sign of every haystack
    /// basis state containing the pattern; all ancillas restored.
    pub fn phase_oracle(&self) -> CircResult<QuantumCircuit> {
        let mut c = QuantumCircuit::with_qubits(self.width);
        self.compute_flags(&mut c)?;
        self.compute_or(&mut c)?;
        c.z(self.result)?;
        // Uncompute (both layers are self-inverse; order reversed).
        let mut undo = QuantumCircuit::with_qubits(self.width);
        self.compute_flags(&mut undo)?;
        self.compute_or(&mut undo)?;
        c.extend(&undo.inverse()?)?;
        Ok(c)
    }

    /// Runs the full Grover substring search and reports the measured
    /// haystack distribution plus the fraction of outcomes containing the
    /// pattern.
    pub fn search<R: Rng + ?Sized>(
        &self,
        shots: usize,
        rng: &mut R,
    ) -> CircResult<SubstringOutcome> {
        let n = self.haystack.len();
        let space = 1u64 << n;
        let marked = count_matching_strings(n, &self.pattern);
        let iterations = grover::optimal_iterations(space, marked);
        let oracle = self.phase_oracle()?;
        let res = grover::run_grover(self.width, &self.haystack, &oracle, iterations, shots, rng)?;
        let pattern = self.pattern.clone();
        let hit_rate = res.success_rate(|o| matches_at_any_position(o, n, &pattern));
        Ok(SubstringOutcome {
            result: res,
            marked,
            space,
            hit_rate,
        })
    }
}

/// Result of a Grover substring search.
#[derive(Clone, Debug)]
pub struct SubstringOutcome {
    /// Raw Grover result (counts + iteration count).
    pub result: grover::GroverResult,
    /// Number of marked strings.
    pub marked: u64,
    /// Search-space size (`2^n`).
    pub space: u64,
    /// Fraction of shots yielding a string that contains the pattern.
    pub hit_rate: f64,
}

/// Parses `"0110"`-style text into pattern bits.
pub fn bits_from_str(s: &str) -> Vec<bool> {
    s.chars().map(|c| c == '1').collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qutes_qcirc::statevector;
    use qutes_sim::uniform_superposition;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5EED)
    }

    #[test]
    fn classical_scan_counts_comparisons() {
        let text = bits_from_str("0010110");
        let (found, cmp) = classical_substring_scan(&text, &bits_from_str("101"));
        assert!(found);
        assert!(cmp > 0);
        let (found, _) = classical_substring_scan(&text, &bits_from_str("111"));
        assert!(!found);
        let (found, cmp) = classical_substring_scan(&text, &[]);
        assert!(found);
        assert_eq!(cmp, 0);
    }

    #[test]
    fn predicate_matches_scan() {
        let n = 6;
        for pattern in ["1", "01", "110", "0000"] {
            let p = bits_from_str(pattern);
            for state in 0..(1usize << n) {
                let text: Vec<bool> = (0..n).map(|i| state >> i & 1 == 1).collect();
                assert_eq!(
                    matches_at_any_position(state, n, &p),
                    classical_substring_scan(&text, &p).0,
                    "pattern {pattern} state {state:06b}"
                );
            }
        }
    }

    #[test]
    fn gate_oracle_matches_predicate_oracle() {
        // The gate-level construction and the simulator-level phase flip
        // must produce identical states on a uniform superposition.
        for (n, pattern) in [(4usize, "11"), (5, "101"), (4, "0")] {
            let p = bits_from_str(pattern);
            let plan = SubstringSearch::new(n, &p);
            let oracle = plan.phase_oracle().unwrap();

            // Gate level: uniform superposition on haystack, oracle applied.
            let mut c = QuantumCircuit::with_qubits(plan.width);
            for &q in &plan.haystack {
                c.h(q).unwrap();
            }
            c.extend(&oracle).unwrap();
            let gate_state = statevector(&c).unwrap();

            // Predicate level on haystack qubits only, tensored with |0>
            // ancillas (ancillas are the high qubits).
            let mut pred = uniform_superposition(n).unwrap();
            pred.apply_phase_flip_where(|i| matches_at_any_position(i, n, &p));
            let ancillas = qutes_sim::StateVector::new(plan.width - n).unwrap();
            let expect = pred.tensor(&ancillas).unwrap();

            let f = gate_state.fidelity(&expect).unwrap();
            assert!((f - 1.0).abs() < 1e-9, "n={n} pattern={pattern} f={f}");
        }
    }

    #[test]
    fn oracle_restores_ancillas() {
        let p = bits_from_str("10");
        let plan = SubstringSearch::new(4, &p);
        let oracle = plan.phase_oracle().unwrap();
        let mut c = QuantumCircuit::with_qubits(plan.width);
        for &q in &plan.haystack {
            c.h(q).unwrap();
        }
        c.extend(&oracle).unwrap();
        let mut sv = statevector(&c).unwrap();
        for &f in plan.flags.iter().chain(std::iter::once(&plan.result)) {
            assert!(sv.probability_one(f).unwrap() < 1e-9, "ancilla {f} dirty");
        }
    }

    #[test]
    fn search_amplifies_matching_strings() {
        let p = bits_from_str("111");
        let plan = SubstringSearch::new(5, &p);
        let out = plan.search(400, &mut rng()).unwrap();
        // 2^5 = 32 strings, 8 contain "111" -> uniform baseline 0.25.
        assert_eq!(out.space, 32);
        assert_eq!(out.marked, 8);
        assert!(
            out.hit_rate > 0.8,
            "hit rate {} (baseline would be 0.25)",
            out.hit_rate
        );
    }

    #[test]
    fn search_beats_uniform_baseline_for_rare_patterns() {
        let p = bits_from_str("1111");
        let plan = SubstringSearch::new(5, &p);
        let out = plan.search(400, &mut rng()).unwrap();
        let baseline = out.marked as f64 / out.space as f64;
        assert!(
            out.hit_rate > 2.0 * baseline,
            "hit {} vs baseline {baseline}",
            out.hit_rate
        );
    }

    #[test]
    fn count_matching_strings_basics() {
        // Single-bit pattern "1" in 3-bit strings: all but 000 -> 7.
        assert_eq!(count_matching_strings(3, &bits_from_str("1")), 7);
        // Full-width pattern matches exactly one string.
        assert_eq!(count_matching_strings(4, &bits_from_str("1010")), 1);
    }

    #[test]
    #[should_panic(expected = "pattern longer than haystack")]
    fn pattern_longer_than_haystack_panics() {
        SubstringSearch::new(2, &bits_from_str("111"));
    }
}
