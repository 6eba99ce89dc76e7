//! Whole-boundary channel (quantum instrument) comparison — the
//! alignment-free fallback behind both run-alignment schemes.
//!
//! The positional and causal schemes both assume a rewrite can be
//! decomposed into per-run equivalences. That assumption breaks when a
//! pass *removes* gates whose presence pinned the causal position of
//! other rewritten gates: cancelling an adjacent `CCX·CCX⁻¹` pair can
//! un-fence a wire so that a rotation merged across a disjoint anchor
//! lands in a different causal run on each side. The rewrite is
//! correct, but no run-by-run alignment exists.
//!
//! This domain sidesteps alignment entirely: it compares the two op
//! streams — **anchors included** — as quantum instruments. Every
//! measure/reset anchor is branched on explicitly; for each branch `o`
//! (an outcome bit per branching anchor, in anchor order) the branch's
//! Kraus operator `K_o = Π (runs · projectors)` is reconstructed column
//! by column, with conditionals resolved against the branch's classical
//! record. The two sides are equivalent when every pair `K_o^A`,
//! `K_o^B` is entrywise equal up to one phase *per branch*: branches
//! with distinct measurement records never interfere (the record is
//! classical), and reset branches decohere into orthogonal environment
//! states, so per-branch phase is unobservable.
//!
//! Soundness: `Some(true)` implies the instruments are equal, hence the
//! circuits are observationally equivalent (joint record distribution
//! and conditional states both match). `Some(false)` is exact for any
//! rewrite that treats anchors as opaque — i.e. every optimizer pass —
//! because such rewrites preserve branch operators up to phase; a
//! hypothetical rewrite that re-mixed *reset* branches could be
//! channel-equal yet per-branch different, which is why this domain is
//! only consulted for optimizer boundaries. `None` (cost cap exceeded,
//! unsupported op) is a sound "don't know".
//!
//! Cost: `2^b` branches × `2^k` columns × `len` gate applications on
//! `2^k` amplitudes — bounded by an amplitude budget (`AMP_BUDGET`) and the same 8-wire cap
//! as the dense domain, so the check only fires on small boundaries.

use std::collections::BTreeSet;

use qutes_qcirc::{apply_deterministic, remap_gate, segment_ops, Gate};
use qutes_sim::{Complex64, StateVector};

/// Wire cap — same rationale as [`super::dense::MAX_DENSE_QUBITS`].
pub const MAX_CHANNEL_QUBITS: usize = 8;
/// Cap on branching anchors (measure/reset): `2^b` branches.
const MAX_BRANCH_BITS: usize = 16;
/// Total amplitude-operation budget across all branches and columns.
const AMP_BUDGET: u128 = 1 << 28;
/// Entrywise comparison tolerance after per-branch phase alignment.
const TOL: f64 = 1e-6;
/// Probability below which a branch is dead for a given input column.
const DEAD: f64 = 1e-12;

/// Decides whether two op streams (anchors included) implement the
/// same quantum instrument. `None` when the boundary is too wide, has
/// too many branching anchors, exceeds the amplitude budget, or
/// contains an op the column simulation cannot handle.
///
/// Precondition (checked): both sides have identical sync skeletons —
/// [`crate::verify::verify_rewrite`] only calls this after the skeleton
/// check has passed.
pub fn instruments_equal(before: &[Gate], after: &[Gate]) -> Option<bool> {
    if segment_ops(before).sync != segment_ops(after).sync {
        return None;
    }

    // Localize: remap the union wire/clbit support to dense indices so
    // a 20-wire circuit whose boundary only touches 3 wires stays a
    // 3-qubit comparison.
    let mut wires: BTreeSet<usize> = BTreeSet::new();
    let mut clbits: BTreeSet<usize> = BTreeSet::new();
    for g in before.iter().chain(after) {
        wires.extend(g.qubits());
        clbits.extend(g.clbits());
    }
    let k = wires.len();
    if k == 0 || k > MAX_CHANNEL_QUBITS {
        return None;
    }
    let qmap = dense_map(&wires);
    let cmap = dense_map(&clbits);
    let la: Vec<Gate> = before.iter().map(|g| remap_gate(g, &qmap, &cmap)).collect();
    let lb: Vec<Gate> = after.iter().map(|g| remap_gate(g, &qmap, &cmap)).collect();

    let branch_bits = la
        .iter()
        .filter(|g| matches!(g, Gate::Measure { .. } | Gate::Reset(_)))
        .count();
    if branch_bits > MAX_BRANCH_BITS {
        return None;
    }
    let branches: u128 = 1u128 << branch_bits;
    let len = la.len().max(lb.len()) as u128;
    let dim = 1usize << k;
    if branches * len * (dim as u128) * (dim as u128) > AMP_BUDGET {
        return None;
    }

    let nclbits = clbits.len();
    for branch in 0..branches as usize {
        let ka = branch_operator(&la, k, nclbits, branch)?;
        let kb = branch_operator(&lb, k, nclbits, branch)?;
        if !equal_up_to_phase(&ka, &kb) {
            return Some(false);
        }
    }
    Some(true)
}

/// Sparse-to-dense index map: `map[global] = local` for members,
/// `usize::MAX` (an intentional out-of-bounds trap) elsewhere.
fn dense_map(members: &BTreeSet<usize>) -> Vec<usize> {
    let mut map = vec![usize::MAX; members.iter().next_back().map_or(0, |&m| m + 1)];
    for (local, &global) in members.iter().enumerate() {
        map[global] = local;
    }
    map
}

/// Reconstructs the branch's Kraus operator as `2^k` columns: column
/// `j` is `K_o |j>`, *unnormalized* (its norm² is the branch
/// probability for that input). Bit `i` of `branch` is the outcome of
/// the `i`-th branching anchor in op order; columns annihilated by a
/// projector come back as all-zero.
fn branch_operator(
    ops: &[Gate],
    k: usize,
    nclbits: usize,
    branch: usize,
) -> Option<Vec<Vec<Complex64>>> {
    let dim = 1usize << k;
    let mut cols = Vec::with_capacity(dim);
    for basis in 0..dim {
        let mut state = StateVector::from_basis_state(k, basis).ok()?;
        state.set_parallel(false);
        let mut scale = 1.0f64;
        let mut record = vec![false; nclbits];
        let mut bit = 0usize;
        let mut dead = false;
        for g in ops {
            match g {
                Gate::Measure { qubit, clbit } => {
                    let m = branch >> bit & 1 == 1;
                    bit += 1;
                    match project(&mut state, *qubit, m)? {
                        Some(p) => scale *= p.sqrt(),
                        None => {
                            dead = true;
                            break;
                        }
                    }
                    record[*clbit] = m;
                }
                Gate::Reset(q) => {
                    let m = branch >> bit & 1 == 1;
                    bit += 1;
                    match project(&mut state, *q, m)? {
                        Some(p) => scale *= p.sqrt(),
                        None => {
                            dead = true;
                            break;
                        }
                    }
                    if m {
                        state.flip_if_one(*q).ok()?;
                    }
                }
                Gate::Conditional { clbit, value, gate } => {
                    if record.get(*clbit).copied()? == *value {
                        // A branching op nested inside a conditional is
                        // outside this domain — give up soundly.
                        apply_deterministic(&mut state, gate).ok()?;
                    }
                }
                g => apply_deterministic(&mut state, g).ok()?,
            }
        }
        cols.push(if dead {
            vec![Complex64::ZERO; dim]
        } else {
            state.amplitudes().iter().map(|a| a.scale(scale)).collect()
        });
    }
    Some(cols)
}

/// Projects `qubit` onto outcome `m`, renormalizing the state.
/// `Ok(Some(p))` with the pre-collapse probability, `Ok(None)`
/// (encoded as `Some(None)`) when the outcome has ~zero probability —
/// the column dies — and `None` on a simulator error.
#[allow(clippy::option_option)]
fn project(state: &mut StateVector, qubit: usize, m: bool) -> Option<Option<f64>> {
    let p1 = state.probability_one(qubit).ok()?;
    let p = if m { p1 } else { 1.0 - p1 };
    if p <= DEAD {
        return Some(None);
    }
    state.collapse_given(qubit, m, p1).ok()?;
    Some(Some(p))
}

/// Entrywise equality of two column matrices up to one overall phase.
fn equal_up_to_phase(a: &[Vec<Complex64>], b: &[Vec<Complex64>]) -> bool {
    let (mut ci, mut ri, mut mag) = (0usize, 0usize, 0.0f64);
    for (i, col) in a.iter().enumerate() {
        for (j, amp) in col.iter().enumerate() {
            if amp.norm() > mag {
                mag = amp.norm();
                ci = i;
                ri = j;
            }
        }
    }
    if mag <= TOL {
        // Branch dead on side A: equal iff dead on side B too.
        return b.iter().all(|col| col.iter().all(|amp| amp.norm() <= TOL));
    }
    let aref = a[ci][ri];
    let bref = b[ci][ri];
    if (bref.norm() - aref.norm()).abs() > TOL {
        return false;
    }
    let phase = bref / aref;
    a.iter().zip(b).all(|(col_a, col_b)| {
        col_a
            .iter()
            .zip(col_b)
            .all(|(x, y)| (*x * phase).approx_eq(*y, TOL))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_2;

    fn measure(q: usize) -> Gate {
        Gate::Measure { qubit: q, clbit: q }
    }

    #[test]
    fn identical_streams_with_anchors_are_equal() {
        let ops = [Gate::H(0), measure(0), Gate::X(1)];
        assert_eq!(instruments_equal(&ops, &ops), Some(true));
    }

    #[test]
    fn merged_rotation_across_disjoint_anchor_is_equal() {
        // The alignment-breaking shape: RY(0)·RY(0) merged across a
        // Reset on another wire — no per-run alignment exists, but the
        // instruments are identical.
        let before = [
            Gate::RY {
                target: 0,
                theta: 0.4,
            },
            Gate::Reset(1),
            Gate::RY {
                target: 0,
                theta: 0.7,
            },
        ];
        let after = [
            Gate::RY {
                target: 0,
                theta: 1.1,
            },
            Gate::Reset(1),
        ];
        assert_eq!(instruments_equal(&before, &after), Some(true));
    }

    #[test]
    fn wrong_merged_angle_is_caught() {
        let before = [
            Gate::RY {
                target: 0,
                theta: 0.4,
            },
            Gate::Reset(1),
            Gate::RY {
                target: 0,
                theta: 0.7,
            },
        ];
        let after = [
            Gate::RY {
                target: 0,
                theta: 1.3,
            },
            Gate::Reset(1),
        ];
        assert_eq!(instruments_equal(&before, &after), Some(false));
    }

    #[test]
    fn measurement_probabilities_are_compared_not_just_post_states() {
        // Both sides collapse to the same normalized post-states, but
        // the branch *weights* differ (cos²(π/4) vs cos²(π/12)): the
        // unnormalized Kraus columns carry the weight, so this must be
        // caught even though every conditional state matches.
        let before = [
            Gate::RY {
                target: 0,
                theta: FRAC_PI_2,
            },
            measure(0),
        ];
        let after = [
            Gate::RY {
                target: 0,
                theta: FRAC_PI_2 / 3.0,
            },
            measure(0),
        ];
        assert_eq!(instruments_equal(&before, &after), Some(false));
    }

    #[test]
    fn conditionals_resolve_against_the_branch_record() {
        // The anchor is identical on both sides (a skeleton
        // requirement); the rewrite cancels a Z·Z pair *after* it. The
        // comparison walks both measurement branches, firing the
        // conditional only where the record says to.
        let cond = Gate::Conditional {
            clbit: 0,
            value: true,
            gate: Box::new(Gate::X(0)),
        };
        let before = [Gate::X(0), measure(0), cond.clone(), Gate::Z(0), Gate::Z(0)];
        let after = [Gate::X(0), measure(0), cond];
        assert_eq!(instruments_equal(&before, &after), Some(true));
    }

    #[test]
    fn mismatch_after_a_live_conditional_is_caught() {
        let cond = Gate::Conditional {
            clbit: 0,
            value: true,
            gate: Box::new(Gate::X(0)),
        };
        let before = [Gate::X(0), measure(0), cond.clone()];
        let after = [Gate::X(0), measure(0), cond, Gate::H(0)];
        assert_eq!(instruments_equal(&before, &after), Some(false));
    }

    #[test]
    fn skeleton_mismatch_is_a_sound_unknown() {
        let before = [measure(0)];
        let after = [Gate::Reset(0)];
        assert_eq!(instruments_equal(&before, &after), None);
    }

    #[test]
    fn width_cap_is_a_sound_unknown() {
        let before: Vec<Gate> = (0..9).map(Gate::H).collect();
        assert_eq!(instruments_equal(&before, &before), None);
    }

    #[test]
    fn dropped_gate_with_anchors_is_caught() {
        let before = [Gate::H(0), Gate::Reset(1), Gate::H(0), Gate::X(0)];
        let after = [Gate::H(0), Gate::Reset(1), Gate::H(0)];
        assert_eq!(instruments_equal(&before, &after), Some(false));
    }
}
