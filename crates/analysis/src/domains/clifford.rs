//! The exact stabilizer/Clifford abstract domain.
//!
//! A Clifford unitary is fully determined (up to global phase) by its
//! conjugation action on the `2n` Pauli generators `X_0..X_{n-1},
//! Z_0..Z_{n-1}`. `qsim::Tableau` already stores exactly that action —
//! [`qutes_sim::Tableau::new`] seeds destabilizer row `i` with `X_i`
//! and stabilizer row `i` with `Z_i`, and every gate method conjugates
//! all rows — so *replaying a gate run through a fresh tableau* is a
//! complete symbolic interpretation of the run: no amplitudes, `O(n²)`
//! bits, exact equality via [`qutes_sim::Tableau::action_eq`].

use qutes_qcirc::{Engine, Gate};
use qutes_sim::Tableau;

/// Replays `run` through a fresh `n`-qubit tableau, returning the
/// resulting Clifford action. Gates map onto the tableau exactly as the
/// tableau engine applies them ([`Engine::apply_unitary`]); a global
/// phase is invisible to the conjugation action, which is exactly the
/// "up to global phase" equivalence checked here. `None` when the run
/// leaves the domain (a non-Clifford gate, a sync operation, or a width
/// the tableau rejects) — the caller falls through to the next domain,
/// never to an unsound verdict.
pub fn interpret(run: &[Gate], n: usize) -> Option<Tableau> {
    let mut t = Tableau::new(n).ok()?;
    for g in run {
        t.apply_unitary(g).ok()?;
    }
    Some(t)
}

/// Decides equivalence of two runs in the stabilizer domain. `None`
/// when either run leaves the domain; otherwise the answer is exact.
pub fn runs_equal(a: &[Gate], b: &[Gate], n: usize) -> Option<bool> {
    let ta = interpret(a, n)?;
    let tb = interpret(b, n)?;
    Some(ta.action_eq(&tb))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hzh_equals_x() {
        let a = [Gate::H(0), Gate::Z(0), Gate::H(0)];
        let b = [Gate::X(0)];
        assert_eq!(runs_equal(&a, &b, 2), Some(true));
    }

    #[test]
    fn s_vs_sdg_differ() {
        assert_eq!(runs_equal(&[Gate::S(0)], &[Gate::Sdg(0)], 1), Some(false));
    }

    #[test]
    fn global_phase_is_ignored() {
        let a = [Gate::X(0), Gate::GlobalPhase(1.25)];
        let b = [Gate::X(0)];
        assert_eq!(runs_equal(&a, &b, 1), Some(true));
    }

    #[test]
    fn t_gate_leaves_the_domain() {
        assert_eq!(runs_equal(&[Gate::T(0)], &[Gate::T(0)], 1), None);
    }

    #[test]
    fn empty_runs_are_the_identity() {
        assert_eq!(runs_equal(&[], &[], 3), Some(true));
        assert_eq!(runs_equal(&[Gate::H(0), Gate::H(0)], &[], 3), Some(true));
    }
}
