//! Circuit optimization: a composable pass pipeline over the IR.
//!
//! The paper's Python stack leans on Qiskit's transpiler to shrink the
//! circuits its `QuantumCircuitHandler` logs before execution; this module
//! plays that role for the Rust substrate. Three passes are provided,
//! selected by an optimization level:
//!
//! * **Peephole cancellation** (level >= 1) — adjacent inverse pairs on
//!   the same wires annihilate (`H·H`, `X·X`, `CX·CX`, `S·S†`, adjoint
//!   rotations, unordered `SWAP·SWAP`, …). Adjacency is *commutation
//!   aware*: gates on disjoint qubits between the pair do not block it.
//! * **Rotation merging** (level >= 1) — same-axis rotations and phase
//!   gates on the same wires combine (`RZ(a)·RZ(b) → RZ(a+b)`), dropping
//!   the result when the combined angle is negligible. Global phases
//!   merge unconditionally (scalars commute with everything).
//! * **Single-qubit gate fusion** (level >= 2) — maximal runs of
//!   single-qubit gates on one wire collapse into a single fused
//!   [`Gate::Unitary`] matrix, consumed directly by
//!   `qsim::StateVector::apply_single`. One matrix application replaces
//!   `k` sweeps over the statevector — the dominant lever for dense
//!   statevector emulators.
//! * **Multi-qubit gate fusion** (level >= 2) — adjacent runs of gates
//!   whose combined support stays on at most 3 qubits batch into a dense
//!   [`Gate::Unitary2`]/[`Gate::Unitary3`] matrix, consumed by the
//!   cache-blocked `apply_two_fused`/`apply_three` kernels. A cluster is
//!   only materialised when it absorbs *more gates than it spans wires*
//!   (measured break-even of the 4x4/8x8 kernels against separate
//!   sweeps); otherwise the original gates are restored untouched.
//!
//! All passes preserve the circuit's action on the statevector: the only
//! deliberate approximations are dropping phase-family gates whose
//! accumulated angle is a multiple of `2π` (error ~1e-16) and the usual
//! floating-point rounding of matrix products, both far below the 1e-10
//! fidelity budget the property tests enforce.
//!
//! [`optimize`] is wired into [`crate::execute`] behind
//! [`crate::ExecutionConfig::opt_level`] (0 = off, 1 = cancel/merge,
//! 2 = +fusion; default 1), so gate budgets meter the gates *actually
//! executed* rather than the raw logged stream.
//!
//! ```
//! use qutes_qcirc::{optimize, QuantumCircuit};
//!
//! // H·H annihilates at level 1.
//! let mut c = QuantumCircuit::with_qubits(1);
//! c.h(0).unwrap().h(0).unwrap();
//! let (opt, report) = optimize(&c, 1).unwrap();
//! assert_eq!(opt.len(), 0);
//! assert_eq!(report.cancelled, 2);
//! ```

use crate::circuit::QuantumCircuit;
use crate::error::{CircError, CircResult};
use crate::gate::Gate;
use qutes_sim::{gates, Complex64, Matrix2, Matrix4, Matrix8};
use qutes_supervisor::{failpoint, Interrupt};
use std::sync::OnceLock;

const ANGLE_TOL: f64 = 1e-12;
const TAU: f64 = 2.0 * std::f64::consts::PI;
/// Fixpoint guard; each pass strictly shrinks the gate list, so this is
/// never reached in practice.
const MAX_PASSES: usize = 32;

/// Before/after metrics of one [`optimize`] invocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OptimizationReport {
    /// The optimization level that produced this report.
    pub level: u8,
    /// Gate count (excluding barriers/global phases) before optimization.
    pub gates_before: usize,
    /// Gate count after optimization.
    pub gates_after: usize,
    /// Critical-path depth before optimization.
    pub depth_before: usize,
    /// Critical-path depth after optimization.
    pub depth_after: usize,
    /// Gates removed by inverse-pair cancellation.
    pub cancelled: usize,
    /// Gates removed by rotation/phase merging.
    pub merged: usize,
    /// Gates removed by single-qubit fusion.
    pub fused: usize,
}

impl OptimizationReport {
    /// Fractional gate-count reduction in `[0, 1]`.
    pub fn gate_reduction(&self) -> f64 {
        if self.gates_before == 0 {
            0.0
        } else {
            (self.gates_before - self.gates_after) as f64 / self.gates_before as f64
        }
    }
}

/// One optimizer rewrite captured at its pass boundary: the gate list
/// immediately before and after a pass iteration that changed it.
///
/// Boundaries are what the static translation-validation pass in
/// `qutes-analysis::verify` consumes: instead of comparing only the
/// whole-pipeline input/output, every *individual* rewrite is checked,
/// so a miscompile is pinned to the pass that introduced it.
#[derive(Clone, Debug)]
pub struct PassBoundary {
    /// Which pass produced this rewrite (`"cancel_merge"`,
    /// `"fuse_runs"`, `"fuse_multi"`).
    pub pass: &'static str,
    /// Position of this boundary in pipeline order (0-based).
    pub index: usize,
    /// Gate list entering the pass.
    pub before: Vec<Gate>,
    /// Gate list leaving the pass. Always differs from `before`:
    /// unchanged iterations are not recorded.
    pub after: Vec<Gate>,
}

/// Callback validating one optimizer rewrite: `(pass, index, before,
/// after)`. Returning `Err(detail)` aborts optimization with
/// [`CircError::RewriteRejected`].
pub type PassValidator = fn(&'static str, usize, &[Gate], &[Gate]) -> Result<(), String>;

static PASS_VALIDATOR: OnceLock<PassValidator> = OnceLock::new();

/// Installs a process-global rewrite validator, consulted by
/// [`optimize`]/[`optimize_with_interrupt`] at every changed pass
/// boundary **in debug builds only** (`cfg(debug_assertions)`) — release
/// builds never clone gate lists or call the validator, so the
/// steady-state cost is zero. The first installation wins; later calls
/// are ignored (the validator is a process-wide invariant, not a
/// per-call option). [`optimize_with_trace`] bypasses the validator so
/// a verifier can collect boundaries and judge them itself.
pub fn set_pass_validator(v: PassValidator) {
    let _ = PASS_VALIDATOR.set(v);
}

/// Feature-gated deliberately-broken rewrite, used by the mutation test
/// that proves translation validation actually catches miscompiles.
#[cfg(feature = "verify-mutation")]
static VERIFY_MUTATION_ARMED: std::sync::atomic::AtomicBool =
    std::sync::atomic::AtomicBool::new(false);

/// Arms (or disarms) the seeded optimizer bug: while armed, [`optimize`]
/// treats adjacent `S·S` and `T·T` pairs as inverse pairs and cancels
/// them — `S·S = Z` (caught by the Clifford domain) and `T·T = S`
/// (caught by the phase-polynomial domain), so both verification
/// domains are exercised. Only exists under the `verify-mutation`
/// feature; never enable that feature outside the mutation test.
#[cfg(feature = "verify-mutation")]
pub fn arm_verify_mutation(on: bool) {
    VERIFY_MUTATION_ARMED.store(on, std::sync::atomic::Ordering::SeqCst);
}

/// Per-boundary callback used internally to route changed pass
/// boundaries either into a trace or into the installed validator.
type BoundarySink<'a> = &'a mut dyn FnMut(&'static str, &[Gate], &[Gate]) -> CircResult<()>;

/// Runs the pass pipeline at `level` (0 = off, 1 = cancel/merge,
/// 2 = +fusion) and returns the rewritten circuit with its report.
pub fn optimize(
    circuit: &QuantumCircuit,
    level: u8,
) -> CircResult<(QuantumCircuit, OptimizationReport)> {
    optimize_with_interrupt(circuit, level, &Interrupt::new())
}

/// [`optimize`] with cooperative cancellation: the deadline/cancel
/// handle is checked between passes and fixpoint iterations, so even a
/// pathological pass sequence cannot outlive its budget. A trip returns
/// [`CircError::Interrupted`].
pub fn optimize_with_interrupt(
    circuit: &QuantumCircuit,
    level: u8,
    intr: &Interrupt,
) -> CircResult<(QuantumCircuit, OptimizationReport)> {
    #[cfg(debug_assertions)]
    if let Some(v) = PASS_VALIDATOR.get().copied() {
        let mut index = 0usize;
        let mut sink = move |pass: &'static str, before: &[Gate], after: &[Gate]| {
            let i = index;
            index += 1;
            v(pass, i, before, after).map_err(|detail| CircError::RewriteRejected { pass, detail })
        };
        return optimize_impl(circuit, level, intr, &mut Some(&mut sink));
    }
    optimize_impl(circuit, level, intr, &mut None)
}

/// [`optimize_with_interrupt`] that additionally records every changed
/// pass boundary. The installed [`PassValidator`] is **not** consulted
/// on this path: the caller is the verifier and wants verdicts, not
/// mid-optimize errors.
pub fn optimize_with_trace(
    circuit: &QuantumCircuit,
    level: u8,
    intr: &Interrupt,
) -> CircResult<(QuantumCircuit, OptimizationReport, Vec<PassBoundary>)> {
    let mut trace: Vec<PassBoundary> = Vec::new();
    let mut sink = |pass: &'static str, before: &[Gate], after: &[Gate]| {
        trace.push(PassBoundary {
            pass,
            index: trace.len(),
            before: before.to_vec(),
            after: after.to_vec(),
        });
        Ok(())
    };
    let (out, report) = optimize_impl(circuit, level, intr, &mut Some(&mut sink))?;
    Ok((out, report, trace))
}

fn optimize_impl(
    circuit: &QuantumCircuit,
    level: u8,
    intr: &Interrupt,
    sink: &mut Option<BoundarySink<'_>>,
) -> CircResult<(QuantumCircuit, OptimizationReport)> {
    let _span = qutes_obs::span("stage.optimize");
    let (size, depth) = (circuit.size(), circuit.depth());
    let mut report = OptimizationReport {
        level,
        gates_before: size,
        gates_after: size,
        depth_before: depth,
        depth_after: depth,
        cancelled: 0,
        merged: 0,
        fused: 0,
    };
    if level == 0 {
        return Ok((circuit.clone(), report));
    }

    let n = circuit.num_qubits();
    let mut ops: Vec<Gate> = circuit.ops().to_vec();
    cancel_merge_fixpoint(&mut ops, n, &mut report, intr, sink)?;
    if level >= 2 {
        intr.check().map_err(CircError::Interrupted)?;
        let _ = failpoint("qcirc.optimize.pass");
        let snap = sink.as_ref().map(|_| ops.clone());
        if fuse_runs(&mut ops, n, &mut report.fused) {
            if let (Some(s), Some(before)) = (sink.as_mut(), snap.as_ref()) {
                s("fuse_runs", before, &ops)?;
            }
            // Fusion can make 2-qubit inverse pairs adjacent on their wires.
            cancel_merge_fixpoint(&mut ops, n, &mut report, intr, sink)?;
        }
        intr.check().map_err(CircError::Interrupted)?;
        let snap = sink.as_ref().map(|_| ops.clone());
        if fuse_multi(&mut ops, n, &mut report.fused) {
            if let (Some(s), Some(before)) = (sink.as_mut(), snap.as_ref()) {
                s("fuse_multi", before, &ops)?;
            }
        }
    }

    let out = circuit.with_derived_ops(ops);
    report.gates_after = out.size();
    report.depth_after = out.depth();
    if qutes_obs::is_enabled() {
        qutes_obs::counter_add("opt.gates_before", report.gates_before as u64);
        qutes_obs::counter_add("opt.gates_after", report.gates_after as u64);
        qutes_obs::counter_add("opt.cancelled", report.cancelled as u64);
        qutes_obs::counter_add("opt.merged", report.merged as u64);
        qutes_obs::counter_add("opt.fused", report.fused as u64);
    }
    Ok((out, report))
}

/// Calls `f` on each wire an instruction occupies for scheduling
/// purposes: an empty barrier fences every qubit.
fn for_each_wire(g: &Gate, n: usize, f: impl FnMut(usize)) {
    match g {
        Gate::Barrier(qs) if qs.is_empty() => (0..n).for_each(f),
        _ => g.for_each_qubit(f),
    }
}

/// True when a gate may participate in cancellation/merging/fusion: a
/// plain unitary. Conditionals are excluded even though they are unitary
/// — their action depends on a classical bit that may change between two
/// occurrences — and act as fences on their wires instead.
fn is_candidate(g: &Gate) -> bool {
    g.is_unitary() && !matches!(g, Gate::Conditional { .. })
}

/// True when `(a0, a1)` and `(b0, b1)` hold the same two qubits.
fn same_pair(a0: usize, a1: usize, b0: usize, b1: usize) -> bool {
    (a0 == b0 && a1 == b1) || (a0 == b1 && a1 == b0)
}

/// True when `a` and `b` hold the same qubits with the same
/// multiplicities, in any order.
fn same_multiset(a: &[usize], b: &[usize]) -> bool {
    let count = |xs: &[usize], x: usize| xs.iter().filter(|&&y| y == x).count();
    a.len() == b.len() && a.iter().all(|&x| count(a, x) == count(b, x))
}

/// True when `b` is exactly the inverse of `a`, the interchangeable
/// qubits of symmetric gates compared as sets. Both must be candidates
/// ([`is_candidate`]).
fn cancels(a: &Gate, b: &Gate) -> bool {
    #[cfg(feature = "verify-mutation")]
    if VERIFY_MUTATION_ARMED.load(std::sync::atomic::Ordering::SeqCst) {
        // Seeded miscompile (see `arm_verify_mutation`): S·S = Z and
        // T·T = S, neither is the identity, yet both "cancel" here.
        match (a, b) {
            (Gate::S(x), Gate::S(y)) | (Gate::T(x), Gate::T(y)) if x == y => return true,
            _ => {}
        }
    }
    use Gate::*;
    match (a, b) {
        // Gates whose inverse would allocate are compared in place.
        (
            MCX {
                controls: c1,
                target: t1,
            },
            MCX {
                controls: c2,
                target: t2,
            },
        ) => t1 == t2 && same_multiset(c1, c2),
        (
            MCPhase {
                controls: c1,
                target: t1,
                lambda: l1,
            },
            MCPhase {
                controls: c2,
                target: t2,
                lambda: l2,
            },
        ) => t1 == t2 && same_multiset(c1, c2) && -l1 == *l2,
        (
            Unitary2 {
                q0: a0,
                q1: a1,
                matrix: m1,
            },
            Unitary2 {
                q0: b0,
                q1: b1,
                matrix: m2,
            },
        ) => a0 == b0 && a1 == b1 && m1.adjoint() == **m2,
        (
            Unitary3 {
                q0: a0,
                q1: a1,
                q2: a2,
                matrix: m1,
            },
            Unitary3 {
                q0: b0,
                q1: b1,
                q2: b2,
                matrix: m2,
            },
        ) => a0 == b0 && a1 == b1 && a2 == b2 && m1.adjoint() == **m2,
        (MCX { .. } | MCPhase { .. } | Unitary2 { .. } | Unitary3 { .. }, _) => false,
        _ => a.inverse().is_some_and(|inv| same_up_to_symmetry(&inv, b)),
    }
}

/// `a == b`, with the interchangeable qubits of SWAP, CZ, CP and the
/// controls of CCX compared as sets.
fn same_up_to_symmetry(a: &Gate, b: &Gate) -> bool {
    use Gate::*;
    match (a, b) {
        (Swap { a: a0, b: a1 }, Swap { a: b0, b: b1 })
        | (
            CZ {
                control: a0,
                target: a1,
            },
            CZ {
                control: b0,
                target: b1,
            },
        ) => same_pair(*a0, *a1, *b0, *b1),
        (
            CPhase {
                control: a0,
                target: a1,
                lambda: l1,
            },
            CPhase {
                control: b0,
                target: b1,
                lambda: l2,
            },
        ) => same_pair(*a0, *a1, *b0, *b1) && l1 == l2,
        (
            CCX {
                c0: a0,
                c1: a1,
                target: t1,
            },
            CCX {
                c0: b0,
                c1: b1,
                target: t2,
            },
        ) => t1 == t2 && same_pair(*a0, *a1, *b0, *b1),
        _ => a == b,
    }
}

/// Outcome of trying to combine two adjacent gates on the same wires.
enum Merge {
    /// Not combinable; the earlier gate is unchanged.
    No,
    /// The earlier gate now holds the combined gate.
    Merged,
    /// Combined into the identity — both gates vanish.
    Identity,
}

/// True when `diag(1, e^{i lambda})` is the identity within tolerance.
fn phase_is_trivial(lambda: f64) -> bool {
    let m = lambda.rem_euclid(TAU);
    m < ANGLE_TOL || TAU - m < ANGLE_TOL
}

/// True when a rotation by `theta` is the identity. A full 2π turn of
/// RX/RY/RZ is -I (a global phase), not I, so only angles that vanish
/// outright count.
fn rotation_is_trivial(theta: f64) -> bool {
    theta.abs() < ANGLE_TOL
}

/// Adds `extra` to the angle of the earlier gate, unless the sum is
/// `trivial`.
fn merge_angle(angle: &mut f64, extra: f64, trivial: fn(f64) -> bool) -> Merge {
    let sum = *angle + extra;
    if trivial(sum) {
        Merge::Identity
    } else {
        *angle = sum;
        Merge::Merged
    }
}

/// Tries to fold `b` into the earlier gate `a`. The caller guarantees
/// that both act on the same set of wires, which is all that symmetric
/// phase gates need; a merged CP or MCP has its qubits in canonical
/// (ascending) order.
fn try_merge(a: &mut Gate, b: &Gate) -> Merge {
    use Gate::*;
    match (a, b) {
        (
            RX {
                target: t1,
                theta: x1,
            },
            RX {
                target: t2,
                theta: x2,
            },
        )
        | (
            RY {
                target: t1,
                theta: x1,
            },
            RY {
                target: t2,
                theta: x2,
            },
        )
        | (
            RZ {
                target: t1,
                theta: x1,
            },
            RZ {
                target: t2,
                theta: x2,
            },
        ) if *t1 == *t2 => merge_angle(x1, *x2, rotation_is_trivial),
        (
            Phase {
                target: t1,
                lambda: l1,
            },
            Phase {
                target: t2,
                lambda: l2,
            },
        ) if *t1 == *t2 => merge_angle(l1, *l2, phase_is_trivial),
        (
            CPhase {
                control,
                target,
                lambda: l1,
            },
            CPhase { lambda: l2, .. },
        ) => {
            if *control > *target {
                std::mem::swap(control, target);
            }
            merge_angle(l1, *l2, phase_is_trivial)
        }
        (
            MCPhase {
                controls,
                lambda: l1,
                ..
            },
            MCPhase { lambda: l2, .. },
        ) => {
            controls.sort_unstable();
            merge_angle(l1, *l2, phase_is_trivial)
        }
        (
            Unitary {
                target: t1,
                matrix: m1,
            },
            Unitary {
                target: t2,
                matrix: m2,
            },
        ) if *t1 == *t2 => {
            let product = m2.matmul(m1);
            if product.approx_eq(&Matrix2::IDENTITY, ANGLE_TOL) {
                Merge::Identity
            } else {
                *m1 = product;
                Merge::Merged
            }
        }
        _ => Merge::No,
    }
}

/// Drops the gates whose `keep` flag is false, preserving order.
fn compact(ops: &mut Vec<Gate>, keep: &[bool]) {
    let mut flags = keep.iter();
    ops.retain(|_| flags.next().copied().unwrap_or(true));
}

fn cancel_merge_fixpoint(
    ops: &mut Vec<Gate>,
    n: usize,
    report: &mut OptimizationReport,
    intr: &Interrupt,
    sink: &mut Option<BoundarySink<'_>>,
) -> CircResult<()> {
    for _ in 0..MAX_PASSES {
        if intr.is_armed() {
            qutes_obs::counter_add("stage.optimize.checkpoints", 1);
        }
        intr.check().map_err(CircError::Interrupted)?;
        let _ = failpoint("qcirc.optimize.pass");
        // The pre-pass snapshot exists only when a sink is attached, so
        // the plain `optimize` path never pays for the clone.
        let snap = sink.as_ref().map(|_| ops.clone());
        if !cancel_merge(ops, n, &mut report.cancelled, &mut report.merged) {
            break;
        }
        if let (Some(s), Some(before)) = (sink.as_mut(), snap.as_ref()) {
            s("cancel_merge", before, ops)?;
        }
    }
    Ok(())
}

/// One forward pass of commutation-aware cancellation and merging, in
/// place; returns whether it changed `ops`.
///
/// `last[q]` tracks the most recent surviving instruction touching wire
/// `q`; a new gate whose wires *all* point at one predecessor covering
/// exactly the same wires is checked against it. Each instruction
/// records the `last` entries it displaced, so tombstoning a pair puts
/// its wires back in O(1): only a gate that is the latest on all of its
/// wires is ever tombstoned, so what it displaced is exactly the latest
/// surviving instruction before it on each wire. Cascades (`X·Y·Y·X`)
/// collapse within a single pass.
fn cancel_merge(ops: &mut Vec<Gate>, n: usize, cancelled: &mut usize, merged: &mut usize) -> bool {
    let mut keep = vec![true; ops.len()];
    // Instruction `i` displaced the `(wire, last[wire])` pairs
    // `displaced[first[i]..first[i + 1]]`.
    let mut first: Vec<usize> = Vec::with_capacity(ops.len());
    let mut displaced: Vec<(usize, Option<usize>)> = Vec::with_capacity(2 * ops.len());
    let mut last: Vec<Option<usize>> = vec![None; n];
    let mut gphase: Option<usize> = None;
    let mut changed = false;

    for i in 0..ops.len() {
        first.push(displaced.len());
        // Rewrites only ever touch instructions before `i`.
        let (done, rest) = ops.split_at_mut(i);
        let g = &rest[0];
        // Global phases are scalars: they commute with everything, so any
        // two of them merge regardless of what sits between.
        if let Gate::GlobalPhase(t) = *g {
            if let Some(Gate::GlobalPhase(prev)) = gphase.map(|j| &mut done[j]) {
                *prev += t;
                *merged += 1;
                keep[i] = false;
                changed = true;
            } else {
                gphase = Some(i);
            }
            continue;
        }

        if is_candidate(g) {
            // The instruction all of `g`'s wires last saw, if they agree.
            let mut pred: Option<Option<usize>> = None;
            g.for_each_qubit(|q| {
                pred = match pred {
                    Some(p) if p != last[q] => Some(None),
                    Some(p) => Some(p),
                    None => Some(last[q]),
                };
            });
            // Every wire of `g` is a wire of `done[p]`, and no instruction
            // repeats a qubit (`QuantumCircuit::append` rejects that), so
            // the two span the same wires exactly when their counts match.
            if let Some(p) = pred.flatten() {
                let prev = &mut done[p];
                if is_candidate(prev) && prev.num_qubits() == g.num_qubits() {
                    let vanished = if cancels(prev, g) {
                        *cancelled += 2;
                        true
                    } else {
                        match try_merge(prev, g) {
                            Merge::Identity => {
                                *merged += 2;
                                true
                            }
                            Merge::Merged => {
                                // Same wires, so the wire pointers still
                                // reference `p`.
                                *merged += 1;
                                keep[i] = false;
                                changed = true;
                                continue;
                            }
                            Merge::No => false,
                        }
                    };
                    if vanished {
                        keep[p] = false;
                        keep[i] = false;
                        for &(q, before) in &displaced[first[p]..first[p + 1]] {
                            last[q] = before;
                        }
                        changed = true;
                        continue;
                    }
                }
            }
        }

        for_each_wire(g, n, |q| {
            displaced.push((q, last[q]));
            last[q] = Some(i);
        });
    }

    if changed {
        compact(ops, &keep);
    }
    changed
}

/// The target of a plain single-qubit unitary gate: of the gates
/// [`gate_matrix`] gives a matrix for, without forming it.
fn single_target(g: &Gate) -> Option<usize> {
    use Gate::*;
    match g {
        H(q) | X(q) | Y(q) | Z(q) | S(q) | Sdg(q) | T(q) | Tdg(q) | SX(q) | SXdg(q) => Some(*q),
        Phase { target, .. }
        | RX { target, .. }
        | RY { target, .. }
        | RZ { target, .. }
        | U { target, .. }
        | Unitary { target, .. } => Some(*target),
        _ => None,
    }
}

/// The 2x2 matrix of a plain single-qubit unitary gate, with its target.
fn gate_matrix(g: &Gate) -> Option<(usize, Matrix2)> {
    use Gate::*;
    Some(match g {
        H(q) => (*q, gates::h()),
        X(q) => (*q, gates::x()),
        Y(q) => (*q, gates::y()),
        Z(q) => (*q, gates::z()),
        S(q) => (*q, gates::s()),
        Sdg(q) => (*q, gates::sdg()),
        T(q) => (*q, gates::t()),
        Tdg(q) => (*q, gates::tdg()),
        SX(q) => (*q, gates::sx()),
        SXdg(q) => (*q, gates::sx().adjoint()),
        Phase { target, lambda } => (*target, gates::phase(*lambda)),
        RX { target, theta } => (*target, gates::rx(*theta)),
        RY { target, theta } => (*target, gates::ry(*theta)),
        RZ { target, theta } => (*target, gates::rz(*theta)),
        U {
            target,
            theta,
            phi,
            lambda,
        } => (*target, gates::u(*theta, *phi, *lambda)),
        Unitary { target, matrix } => (*target, *matrix),
        _ => return None,
    })
}

/// An in-progress fusion run on one wire: index of its first gate, the
/// accumulated matrix product, and the number of gates absorbed.
type Run = (usize, Matrix2, usize);

/// Closes the run on wire `q`: a multi-gate run is replaced by one fused
/// [`Gate::Unitary`] at its first position (or dropped outright when the
/// product is the identity); a single-gate run keeps its original gate.
fn flush_run(
    runs: &mut [Option<Run>],
    ops: &mut [Gate],
    keep: &mut [bool],
    q: usize,
    fused: &mut usize,
    changed: &mut bool,
) {
    if let Some((first, acc, len)) = runs[q].take() {
        if len >= 2 {
            *changed = true;
            if acc.approx_eq(&Matrix2::IDENTITY, ANGLE_TOL) {
                *fused += len;
                keep[first] = false;
            } else {
                *fused += len - 1;
                ops[first] = Gate::Unitary {
                    target: q,
                    matrix: acc,
                };
            }
        }
    }
}

/// Level-2 pass, in place: collapses maximal runs of single-qubit gates
/// per wire into one fused matrix; returns whether it changed `ops`. A
/// run member commutes backward past everything between it and the run
/// head (nothing in between touches the wire, or the run would have been
/// flushed), so placing the fused gate at the head position is exact.
fn fuse_runs(ops: &mut Vec<Gate>, n: usize, fused: &mut usize) -> bool {
    let mut keep = vec![true; ops.len()];
    let mut runs: Vec<Option<Run>> = vec![None; n];
    let mut changed = false;

    for i in 0..ops.len() {
        // Runs only ever rewrite positions before `i`.
        let (done, rest) = ops.split_at_mut(i);
        let g = &rest[0];
        if let Some((q, m)) = gate_matrix(g) {
            match runs[q].take() {
                Some((first, acc, len)) => {
                    keep[i] = false; // absorbed into the run head
                    runs[q] = Some((first, m.matmul(&acc), len + 1));
                }
                None => runs[q] = Some((i, m, 1)),
            }
        } else {
            // Fences (multi-qubit gates, measures, resets, barriers,
            // conditionals) close the runs on every wire they touch;
            // global phases touch none and pass through.
            for_each_wire(g, n, |q| {
                flush_run(&mut runs, done, &mut keep, q, fused, &mut changed);
            });
        }
    }
    for q in 0..n {
        flush_run(&mut runs, ops, &mut keep, q, fused, &mut changed);
    }

    if changed {
        compact(ops, &keep);
    }
    changed
}

/// Dense top-left `2^k x 2^k` block of an 8x8 scratch matrix.
type Dense = [[Complex64; 8]; 8];

/// The identity on `k` wires.
fn dense_identity(k: usize) -> Dense {
    let mut m = [[Complex64::ZERO; 8]; 8];
    for (d, row) in m.iter_mut().enumerate().take(1 << k) {
        row[d] = Complex64::ONE;
    }
    m
}

/// Builds the dense matrix of a gate from its action on basis states:
/// `action(i) = (j, amp)` means the gate maps `|i>` to `amp * |j>`.
/// Only permutation/phase gates (one non-zero per column) use this.
fn dense_from_action(dim: usize, action: impl Fn(usize) -> (usize, Complex64)) -> Dense {
    let mut m = [[Complex64::ZERO; 8]; 8];
    // Column `i` of the matrix holds the image of basis state `|i>`.
    #[allow(clippy::needless_range_loop)]
    for i in 0..dim {
        let (j, amp) = action(i);
        m[j][i] = amp;
    }
    m
}

/// The wires (in gate bit order: wire `t` = bit `t` of the basis index,
/// the first `k` entries of the array), wire count `k`, and dense matrix
/// of a 2- or 3-qubit gate the multi-qubit fusion pass can absorb.
/// `None` for everything else: single-qubit gates ([`single_target`])
/// and fences.
fn fusable_dense(g: &Gate) -> Option<([usize; 3], usize, Dense)> {
    use Gate::*;
    let one = Complex64::ONE;
    Some(match g {
        CX { control, target } => (
            [*control, *target, 0],
            2,
            dense_from_action(4, |i| (if i & 1 == 1 { i ^ 2 } else { i }, one)),
        ),
        CY { control, target } => (
            [*control, *target, 0],
            2,
            dense_from_action(4, |i| {
                if i & 1 == 1 {
                    // Y|0> = i|1>, Y|1> = -i|0> on the target bit.
                    (
                        i ^ 2,
                        if i & 2 == 0 {
                            Complex64::I
                        } else {
                            -Complex64::I
                        },
                    )
                } else {
                    (i, one)
                }
            }),
        ),
        CZ { control, target } => (
            [*control, *target, 0],
            2,
            dense_from_action(4, |i| (i, if i == 3 { -one } else { one })),
        ),
        CPhase {
            control,
            target,
            lambda,
        } => (
            [*control, *target, 0],
            2,
            dense_from_action(4, |i| {
                (i, if i == 3 { Complex64::cis(*lambda) } else { one })
            }),
        ),
        Swap { a, b } => (
            [*a, *b, 0],
            2,
            dense_from_action(4, |i| ((i >> 1 & 1) | (i & 1) << 1, one)),
        ),
        CCX { c0, c1, target } => (
            [*c0, *c1, *target],
            3,
            dense_from_action(8, |i| (if i & 3 == 3 { i ^ 4 } else { i }, one)),
        ),
        CSwap { control, a, b } => (
            [*control, *a, *b],
            3,
            dense_from_action(8, |i| {
                if i & 1 == 1 {
                    ((i & 1) | (i >> 1 & 1) << 2 | (i >> 2 & 1) << 1, one)
                } else {
                    (i, one)
                }
            }),
        ),
        Unitary2 { q0, q1, matrix } => {
            let mut d = [[Complex64::ZERO; 8]; 8];
            for (dr, mr) in d.iter_mut().zip(matrix.m.iter()) {
                dr[..4].copy_from_slice(mr);
            }
            ([*q0, *q1, 0], 2, d)
        }
        Unitary3 { q0, q1, q2, matrix } => ([*q0, *q1, *q2], 3, matrix.m),
        _ => return None,
    })
}

/// The matrix of a gate joining a fusion cluster: a single-qubit gate
/// keeps its 2x2 matrix, which [`apply`] widens onto the cluster. It
/// lives on the stack for one gate; boxing the wide variant would
/// allocate per gate.
#[allow(clippy::large_enum_variant)]
enum GateMatrix {
    Single(Matrix2),
    Multi(Dense),
}

impl GateMatrix {
    /// [`apply`] with this matrix.
    fn apply(&self, mat: &mut Dense, wires: &[usize], gwires: &[usize], skip_zeros: bool) -> bool {
        match self {
            GateMatrix::Single(m) => apply(mat, wires, gwires, &m.m, skip_zeros),
            GateMatrix::Multi(d) => apply(mat, wires, gwires, d, skip_zeros),
        }
    }
}

/// Left-multiplies a gate's matrix (the top-left block of `gdense`, over
/// `gwires` in gate bit order, all of which must lie in the sorted
/// `wires`) onto `mat`, a product over `wires`, and returns whether
/// every entry of the result is finite.
///
/// With `skip_zeros`, products with a zero gate entry are left out of
/// the sums. When every entry of `mat` is finite that changes no bit:
/// such a product is then an exact (signed) zero, and adding one never
/// changes a sum that starts at `+0`.
fn apply<const C: usize>(
    mat: &mut Dense,
    wires: &[usize],
    gwires: &[usize],
    gdense: &[[Complex64; C]],
    skip_zeros: bool,
) -> bool {
    let dim = 1 << wires.len();
    let gdim = 1 << gwires.len();
    // Cluster-local bit position of each gate bit. The wire is
    // guaranteed present; the fallback is unreachable.
    let mut pos = [0usize; 3];
    for (p, w) in pos.iter_mut().zip(gwires) {
        *p = wires.binary_search(w).unwrap_or(0);
    }
    let pos = &pos[..gwires.len()];
    // Scatter table: gate sub-index -> cluster index bits.
    let mut scatter = [0usize; 8];
    for (s, e) in scatter.iter_mut().enumerate().take(gdim) {
        for (t, &p) in pos.iter().enumerate() {
            *e |= (s >> t & 1) << p;
        }
    }
    let gate_mask = scatter[gdim - 1];
    let src = *mat;
    let mut finite = true;
    for (r, row) in mat.iter_mut().enumerate().take(dim) {
        // Output row `r` takes gate row `sub` against the source rows
        // `base | scatter[s]`.
        let base = r & !gate_mask;
        let mut sub = 0usize;
        for (t, &p) in pos.iter().enumerate() {
            sub |= (r >> p & 1) << t;
        }
        let mut terms = [(Complex64::ZERO, 0usize); 8];
        let mut nterms = 0;
        for (&g, &off) in gdense[sub].iter().zip(&scatter).take(gdim) {
            if !skip_zeros || g != Complex64::ZERO {
                terms[nterms] = (g, base | off);
                nterms += 1;
            }
        }
        // Term by term over the whole row: each entry still sums its
        // terms in gate-column order.
        let mut acc = [Complex64::ZERO; 8];
        for &(g, from) in &terms[..nterms] {
            for (a, &x) in acc.iter_mut().zip(&src[from]).take(dim) {
                *a += g * x;
            }
        }
        for (e, &a) in row.iter_mut().zip(&acc).take(dim) {
            *e = a;
            finite &= a.re.is_finite() & a.im.is_finite();
        }
    }
    finite
}

/// A multi-qubit fusion cluster: a set of gates whose combined support
/// fits on at most 3 wires, with the running product of their dense
/// matrices over basis `|w2 w1 w0>` (sorted wire `t` = bit `t`). The
/// pass keeps one per slot and reuses a slot once its cluster closes.
struct Cluster {
    /// Sorted, distinct wires the cluster spans: `wires[..k]`, with
    /// `k` = 0 for a free slot.
    wires: [usize; 3],
    k: usize,
    /// Product of member matrices, top-left `2^k x 2^k` block.
    mat: Dense,
    /// Positions of the absorbed gates; the last is the latest.
    members: Vec<usize>,
    /// When the product last changed. Touched clusters merge oldest
    /// first, the order in which their products were formed.
    stamp: usize,
    /// True when every entry of the product is finite.
    finite: bool,
    /// True while the cluster holds one single-qubit gate whose product
    /// is not formed yet ([`Cluster::form`]): a gate that meets a fence
    /// before another gate never needs its matrix.
    lazy: bool,
}

impl Cluster {
    fn empty() -> Cluster {
        Cluster {
            wires: [0; 3],
            k: 0,
            mat: [[Complex64::ZERO; 8]; 8],
            members: Vec::new(),
            stamp: 0,
            finite: true,
            lazy: false,
        }
    }

    fn wires(&self) -> &[usize] {
        &self.wires[..self.k]
    }

    /// Forms the product of a lazy cluster from its one gate, found in
    /// `ops`: the identity times the gate's matrix, as if the gate had
    /// opened the cluster eagerly.
    fn form(&mut self, ops: &[Gate]) {
        if !std::mem::take(&mut self.lazy) {
            return;
        }
        if let Some((q, m)) = self.members.first().and_then(|&p| gate_matrix(&ops[p])) {
            self.mat = dense_identity(1);
            self.finite = apply(&mut self.mat, &[q], &[q], &m.m, true);
        }
    }

    /// True when the cluster product is the identity (up to `ANGLE_TOL`).
    fn is_identity(&self) -> bool {
        let dim = 1 << self.k;
        for r in 0..dim {
            for c in 0..dim {
                let want = if r == c {
                    Complex64::ONE
                } else {
                    Complex64::ZERO
                };
                let d = self.mat[r][c] - want;
                if d.norm() > ANGLE_TOL {
                    return false;
                }
            }
        }
        true
    }

    /// The fused gate carrying the cluster product.
    fn to_gate(&self) -> Gate {
        let m = &self.mat;
        match self.k {
            1 => Gate::Unitary {
                target: self.wires[0],
                matrix: Matrix2::new(m[0][0], m[0][1], m[1][0], m[1][1]),
            },
            2 => {
                let mut m4 = [[Complex64::ZERO; 4]; 4];
                for (r, row) in m4.iter_mut().enumerate() {
                    row.copy_from_slice(&m[r][..4]);
                }
                Gate::Unitary2 {
                    q0: self.wires[0],
                    q1: self.wires[1],
                    matrix: Box::new(Matrix4::new(m4)),
                }
            }
            _ => Gate::Unitary3 {
                q0: self.wires[0],
                q1: self.wires[1],
                q2: self.wires[2],
                matrix: Box::new(Matrix8::new(*m)),
            },
        }
    }
}

/// Closes a cluster and frees its slot. A cluster only pays for itself
/// when it absorbed more gates than it spans wires (one fused
/// `2^k x 2^k` sweep costs about as much as `k` separate passes on this
/// kernel set); below that threshold its gates stay untouched. A
/// profitable cluster is emitted at its *last* member position — every
/// surviving gate between member positions is off-cluster-wire (or the
/// cluster would have been flushed earlier) and therefore commutes with
/// it.
fn flush_cluster(
    cl: &mut Cluster,
    ops: &mut [Gate],
    keep: &mut [bool],
    wire_map: &mut [Option<usize>],
    fused: &mut usize,
    changed: &mut bool,
) {
    for &w in cl.wires() {
        wire_map[w] = None;
    }
    if let Some(&last) = cl.members.last().filter(|_| cl.members.len() > cl.k) {
        *changed = true;
        for &p in &cl.members {
            keep[p] = false;
        }
        if cl.is_identity() {
            *fused += cl.members.len();
        } else {
            *fused += cl.members.len() - 1;
            ops[last] = cl.to_gate();
            keep[last] = true;
        }
    }
    cl.k = 0;
    cl.members.clear();
}

/// Level-2 pass: batches adjacent gates whose combined support stays on
/// at most 3 qubits into dense [`Gate::Unitary2`]/[`Gate::Unitary3`]
/// matrices for the cache-blocked fused kernels. Runs after single-qubit
/// fusion, so its clusters are anchored by genuine multi-qubit gates.
///
/// A gate whose wires all lie in one open cluster multiplies onto that
/// cluster's product in place. Otherwise the clusters it touches merge:
/// their products are embedded, oldest first, into a fresh identity on
/// the union of their wires, and the gate is applied on top. Embedding a
/// finite product into an identity on its own wires gives back the same
/// bits (`apply` never leaves a `-0.0`, and the embedding multiplies each
/// entry by exactly one `1` and adds exact zeros), so the in-place step
/// is taken only while the product is finite.
fn fuse_multi(ops: &mut Vec<Gate>, n: usize, fused: &mut usize) -> bool {
    let mut keep = vec![true; ops.len()];
    // Open clusters have pairwise disjoint wire sets, so at most `n` are
    // open at once; a closed cluster's slot goes on `free` for reuse.
    let mut slots: Vec<Cluster> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    // wire -> slot of the open cluster covering it, if any.
    let mut wire_map: Vec<Option<usize>> = vec![None; n];
    let mut stamp = 0usize;
    let mut changed = false;

    for i in 0..ops.len() {
        // Gates stay in place until their cluster closes; closing only
        // rewrites positions before `i`.
        let (done, rest) = ops.split_at_mut(i);
        let g = &rest[0];
        let gate = if let Some(q) = single_target(g).filter(|&q| wire_map[q].is_none()) {
            // A single-qubit gate on a free wire opens a lazy cluster.
            stamp += 1;
            let slot = free.pop().unwrap_or_else(|| {
                slots.push(Cluster::empty());
                slots.len() - 1
            });
            let cl = &mut slots[slot];
            cl.wires = [q, 0, 0];
            cl.k = 1;
            cl.members.push(i);
            cl.stamp = stamp;
            cl.lazy = true;
            wire_map[q] = Some(slot);
            continue;
        } else if let Some((q, m)) = gate_matrix(g) {
            Some(([q, 0, 0], 1, GateMatrix::Single(m)))
        } else {
            fusable_dense(g).map(|(gw, gk, d)| (gw, gk, GateMatrix::Multi(d)))
        };
        let Some((gw, gk, gmat)) = gate else {
            if crate::segment::is_sync_op(g) {
                // Sync anchors close *every* open cluster, not just the
                // ones on their wires. Fusing across a measurement on a
                // disjoint wire would be unitarily sound, but the fused
                // gate's widened support would no longer sit in the
                // same positional run as its constituents, defeating
                // the run-by-run translation validation of this pass
                // (`qutes-analysis::verify`). Keeping fusion list-local
                // costs a rare fusion opportunity and keeps every
                // rewrite of this pass statically checkable.
                for (s, cl) in slots.iter_mut().enumerate() {
                    if cl.k > 0 {
                        flush_cluster(cl, done, &mut keep, &mut wire_map, fused, &mut changed);
                        free.push(s);
                    }
                }
                continue;
            }
            // Unitary fences (wide gates, barriers) close every cluster
            // they touch. An empty wire list (bare Barrier, GlobalPhase)
            // means "all" for barriers and "none" for global phases;
            // for_each_wire already resolves that.
            for_each_wire(g, n, |q| {
                if let Some(s) = wire_map[q] {
                    flush_cluster(
                        &mut slots[s],
                        done,
                        &mut keep,
                        &mut wire_map,
                        fused,
                        &mut changed,
                    );
                    free.push(s);
                }
            });
            continue;
        };
        let gwires = &gw[..gk];
        stamp += 1;

        // The open clusters this gate touches, oldest product first.
        let mut touched = [0usize; 3];
        let mut nt = 0;
        for &w in gwires {
            if let Some(s) = wire_map[w] {
                if !touched[..nt].contains(&s) {
                    touched[nt] = s;
                    nt += 1;
                }
            }
        }
        touched[..nt].sort_unstable_by_key(|&s| slots[s].stamp);
        for &s in &touched[..nt] {
            slots[s].form(done);
        }

        if nt == 1 && gwires.iter().all(|&w| wire_map[w] == Some(touched[0])) {
            let cl = &mut slots[touched[0]];
            if cl.finite {
                cl.finite = gmat.apply(&mut cl.mat, &cl.wires[..cl.k], gwires, true);
                cl.members.push(i);
                cl.stamp = stamp;
                continue;
            }
        }

        // The union of the gate's wires and the touched clusters': each
        // touched cluster shares a wire with the gate, so at most 9.
        let mut union = [0usize; 9];
        union[..gk].copy_from_slice(gwires);
        let mut k = gk;
        for &s in &touched[..nt] {
            for &w in slots[s].wires() {
                if !gwires.contains(&w) {
                    union[k] = w;
                    k += 1;
                }
            }
        }
        if k > 3 {
            // Too wide to fuse with its neighbours: close them and
            // start fresh from this gate alone.
            for &s in &touched[..nt] {
                flush_cluster(
                    &mut slots[s],
                    done,
                    &mut keep,
                    &mut wire_map,
                    fused,
                    &mut changed,
                );
                free.push(s);
            }
            nt = 0;
            k = gk;
        }
        let mut wires = [0usize; 3];
        wires[..k].copy_from_slice(&union[..k]);
        wires[..k].sort_unstable();

        // Absorb the touched clusters (disjoint wire sets, so they
        // commute with each other; interleaved member order is safe).
        let mut mat = dense_identity(k);
        let mut finite = true;
        for &s in &touched[..nt] {
            finite = apply(
                &mut mat,
                &wires[..k],
                slots[s].wires(),
                &slots[s].mat,
                finite,
            );
        }
        finite = gmat.apply(&mut mat, &wires[..k], gwires, finite);

        // The merged cluster takes over the oldest touched slot.
        let slot = match touched[..nt].split_first() {
            Some((&s, others)) => {
                for &o in others {
                    let mut members = std::mem::take(&mut slots[o].members);
                    slots[s].members.extend_from_slice(&members);
                    members.clear();
                    slots[o].members = members;
                    slots[o].k = 0;
                    free.push(o);
                }
                s
            }
            None => free.pop().unwrap_or_else(|| {
                slots.push(Cluster::empty());
                slots.len() - 1
            }),
        };
        let cl = &mut slots[slot];
        cl.wires = wires;
        cl.k = k;
        cl.mat = mat;
        cl.members.push(i);
        cl.stamp = stamp;
        cl.finite = finite;
        cl.lazy = false;
        for &w in &wires[..k] {
            wire_map[w] = Some(slot);
        }
    }

    for cl in &mut slots {
        if cl.k > 0 {
            flush_cluster(cl, ops, &mut keep, &mut wire_map, fused, &mut changed);
        }
    }

    if changed {
        compact(ops, &keep);
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execute::statevector;

    #[test]
    fn single_target_names_the_gates_with_a_2x2_matrix() {
        use Gate::*;
        let every = [
            H(3),
            X(3),
            Y(3),
            Z(3),
            S(3),
            Sdg(3),
            T(3),
            Tdg(3),
            SX(3),
            SXdg(3),
            Phase {
                target: 3,
                lambda: 0.5,
            },
            RX {
                target: 3,
                theta: 0.5,
            },
            RY {
                target: 3,
                theta: 0.5,
            },
            RZ {
                target: 3,
                theta: 0.5,
            },
            U {
                target: 3,
                theta: 0.5,
                phi: 0.25,
                lambda: 0.125,
            },
            Unitary {
                target: 3,
                matrix: Matrix2::IDENTITY,
            },
            CX {
                control: 1,
                target: 3,
            },
            CY {
                control: 1,
                target: 3,
            },
            CZ {
                control: 1,
                target: 3,
            },
            CPhase {
                control: 1,
                target: 3,
                lambda: 0.5,
            },
            CCX {
                c0: 0,
                c1: 1,
                target: 3,
            },
            MCX {
                controls: vec![],
                target: 3,
            },
            MCPhase {
                controls: vec![],
                target: 3,
                lambda: 0.5,
            },
            Swap { a: 1, b: 3 },
            CSwap {
                control: 0,
                a: 1,
                b: 3,
            },
            Measure { qubit: 3, clbit: 0 },
            Reset(3),
            Barrier(vec![3]),
            Conditional {
                clbit: 0,
                value: true,
                gate: Box::new(H(3)),
            },
            GlobalPhase(0.5),
        ];
        for g in &every {
            assert_eq!(single_target(g), gate_matrix(g).map(|(q, _)| q), "{g:?}");
        }
    }

    fn fidelity_preserved(c: &QuantumCircuit, level: u8) {
        let (opt, _) = optimize(c, level).unwrap();
        let sa = statevector(c).unwrap();
        let sb = statevector(&opt).unwrap();
        let f = sa.fidelity(&sb).unwrap();
        assert!((f - 1.0).abs() < 1e-10, "level {level}: fidelity {f}");
    }

    #[test]
    fn hh_pair_cancels() {
        let mut c = QuantumCircuit::with_qubits(1);
        c.h(0).unwrap().h(0).unwrap();
        let (opt, r) = optimize(&c, 1).unwrap();
        assert_eq!(opt.size(), 0);
        assert_eq!(r.cancelled, 2);
        assert_eq!(r.gates_before, 2);
        assert_eq!(r.gates_after, 0);
        assert!((r.gate_reduction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn named_inverse_pairs_cancel() {
        let mut c = QuantumCircuit::with_qubits(2);
        c.x(0).unwrap().x(0).unwrap();
        c.s(1).unwrap().sdg(1).unwrap();
        c.t(0).unwrap().tdg(0).unwrap();
        c.sx(1).unwrap();
        c.append(Gate::SXdg(1)).unwrap();
        c.rx(0.7, 0).unwrap().rx(-0.7, 0).unwrap();
        let (opt, _) = optimize(&c, 1).unwrap();
        assert_eq!(opt.size(), 0);
    }

    #[test]
    fn cx_pair_cancels_across_disjoint_gates() {
        // The Z on wire 2 sits between the CX pair but commutes with it.
        let mut c = QuantumCircuit::with_qubits(3);
        c.cx(0, 1).unwrap();
        c.z(2).unwrap();
        c.cx(0, 1).unwrap();
        let (opt, r) = optimize(&c, 1).unwrap();
        assert_eq!(opt.size(), 1);
        assert!(matches!(opt.ops()[0], Gate::Z(2)));
        assert_eq!(r.cancelled, 2);
    }

    #[test]
    fn gate_on_shared_wire_blocks_cancellation() {
        let mut c = QuantumCircuit::with_qubits(2);
        c.cx(0, 1).unwrap();
        c.x(1).unwrap(); // touches the CX target
        c.cx(0, 1).unwrap();
        let (opt, _) = optimize(&c, 1).unwrap();
        assert_eq!(opt.size(), 3);
        fidelity_preserved(&c, 1);
    }

    #[test]
    fn swap_pair_cancels_regardless_of_order() {
        let mut c = QuantumCircuit::with_qubits(2);
        c.swap(0, 1).unwrap();
        c.swap(1, 0).unwrap();
        let (opt, _) = optimize(&c, 1).unwrap();
        assert_eq!(opt.size(), 0);
    }

    #[test]
    fn cascaded_pairs_collapse_in_one_call() {
        let mut c = QuantumCircuit::with_qubits(1);
        c.x(0).unwrap().y(0).unwrap().y(0).unwrap().x(0).unwrap();
        let (opt, _) = optimize(&c, 1).unwrap();
        assert_eq!(opt.size(), 0);
    }

    #[test]
    fn rotations_merge_with_lookahead() {
        let mut c = QuantumCircuit::with_qubits(2);
        c.rz(0.3, 0).unwrap();
        c.h(1).unwrap(); // disjoint wire: must not block the merge
        c.rz(0.5, 0).unwrap();
        let (opt, r) = optimize(&c, 1).unwrap();
        assert_eq!(opt.size(), 2);
        assert!(opt
            .ops()
            .iter()
            .any(|g| matches!(g, Gate::RZ { target: 0, theta } if (theta - 0.8).abs() < 1e-12)));
        assert_eq!(r.merged, 1);
        fidelity_preserved(&c, 1);
    }

    #[test]
    fn opposite_rotations_vanish() {
        let mut c = QuantumCircuit::with_qubits(1);
        c.ry(1.1, 0).unwrap().ry(-1.1, 0).unwrap();
        let (opt, _) = optimize(&c, 1).unwrap();
        assert_eq!(opt.size(), 0);
    }

    #[test]
    fn full_turn_rotation_is_not_dropped() {
        // RZ(2π) = -I: a global phase, not the identity — it must survive
        // as a gate so the statevector stays bit-for-bit identical.
        let mut c = QuantumCircuit::with_qubits(1);
        c.rz(std::f64::consts::PI, 0).unwrap();
        c.rz(std::f64::consts::PI, 0).unwrap();
        let (opt, _) = optimize(&c, 1).unwrap();
        assert_eq!(opt.size(), 1);
    }

    #[test]
    fn phase_gates_drop_mod_two_pi() {
        let mut c = QuantumCircuit::with_qubits(1);
        c.p(std::f64::consts::PI, 0).unwrap();
        c.p(std::f64::consts::PI, 0).unwrap();
        let (opt, _) = optimize(&c, 1).unwrap();
        assert_eq!(opt.size(), 0);
    }

    #[test]
    fn controlled_phases_merge_symmetrically() {
        let mut c = QuantumCircuit::with_qubits(2);
        c.cp(0.4, 0, 1).unwrap();
        c.cp(0.6, 1, 0).unwrap(); // same unordered pair
        let (opt, _) = optimize(&c, 1).unwrap();
        assert_eq!(opt.size(), 1);
        assert!(matches!(
            opt.ops()[0],
            Gate::CPhase { lambda, .. } if (lambda - 1.0).abs() < 1e-12
        ));
        fidelity_preserved(&c, 1);
    }

    #[test]
    fn global_phases_merge() {
        let mut c = QuantumCircuit::with_qubits(1);
        c.gphase(0.3).unwrap();
        c.h(0).unwrap();
        c.gphase(0.4).unwrap();
        let (opt, _) = optimize(&c, 1).unwrap();
        let phases: Vec<f64> = opt
            .ops()
            .iter()
            .filter_map(|g| match g {
                Gate::GlobalPhase(t) => Some(*t),
                _ => None,
            })
            .collect();
        assert_eq!(phases.len(), 1);
        assert!((phases[0] - 0.7).abs() < 1e-12);
    }

    #[test]
    fn measure_fences_cancellation() {
        let mut c = QuantumCircuit::with_qubits_and_clbits(1, 1);
        c.h(0).unwrap();
        c.measure(0, 0).unwrap();
        c.h(0).unwrap();
        let (opt, _) = optimize(&c, 2).unwrap();
        assert_eq!(opt.size(), 3);
    }

    #[test]
    fn barrier_fences_cancellation() {
        let mut c = QuantumCircuit::with_qubits(1);
        c.h(0).unwrap();
        c.barrier(&[]).unwrap();
        c.h(0).unwrap();
        let (opt, _) = optimize(&c, 2).unwrap();
        assert_eq!(opt.size(), 2);
    }

    #[test]
    fn conditionals_are_never_combined() {
        // The measurement between the two conditioned S gates can change
        // the classical bit, so they must not cancel.
        let mut c = QuantumCircuit::with_qubits_and_clbits(3, 1);
        c.measure(2, 0).unwrap();
        c.c_if(0, true, Gate::S(1)).unwrap();
        c.measure(2, 0).unwrap();
        c.c_if(0, true, Gate::Sdg(1)).unwrap();
        let (opt, _) = optimize(&c, 2).unwrap();
        assert_eq!(opt.size(), 4);
    }

    #[test]
    fn fusion_collapses_single_qubit_runs() {
        let mut c = QuantumCircuit::with_qubits(2);
        c.h(0).unwrap().s(0).unwrap().t(0).unwrap();
        c.cx(0, 1).unwrap();
        c.h(0).unwrap().x(0).unwrap();
        let (opt, r) = optimize(&c, 2).unwrap();
        // [H,S,T] -> 1 fused, CX, [H,X] -> 1 fused (fuse_runs, +3), then
        // the multi-qubit pass clusters [Unitary, CX, Unitary] on wires
        // {0,1} into a single Unitary2 (3 members > 2 wires, +2).
        assert_eq!(opt.size(), 1);
        assert_eq!(r.fused, 5);
        assert!(matches!(opt.ops()[0], Gate::Unitary2 { .. }));
        fidelity_preserved(&c, 2);
    }

    #[test]
    fn multi_fusion_skips_unprofitable_clusters() {
        // A lone CX plus one 1q gate on its wires: 2 members on 2 wires
        // never beats two separate sweeps, so the originals survive.
        let mut c = QuantumCircuit::with_qubits(2);
        c.h(0).unwrap();
        c.cx(0, 1).unwrap();
        let (opt, r) = optimize(&c, 2).unwrap();
        assert_eq!(opt.size(), 2);
        assert_eq!(r.fused, 0);
        assert!(matches!(opt.ops()[0], Gate::H(0)));
        assert!(matches!(opt.ops()[1], Gate::CX { .. }));
    }

    #[test]
    fn multi_fusion_emits_unitary3_over_ccx() {
        // H(0), CCX, H(1), X(2): 4 members on 3 wires -> one Unitary3.
        let mut c = QuantumCircuit::with_qubits(3);
        c.h(0).unwrap();
        c.ccx(0, 1, 2).unwrap();
        c.h(1).unwrap();
        c.x(2).unwrap();
        let (opt, r) = optimize(&c, 2).unwrap();
        assert_eq!(opt.size(), 1);
        assert_eq!(r.fused, 3);
        assert!(matches!(opt.ops()[0], Gate::Unitary3 { .. }));
        fidelity_preserved(&c, 2);
    }

    #[test]
    fn multi_fusion_drops_identity_products() {
        // (CX · X(1)) twice multiplies to the identity on wires {0,1}.
        // cancel_merge cannot see it (the interleaving blocks the wire
        // rewind), but the cluster product is I and everything drops.
        let mut c = QuantumCircuit::with_qubits(2);
        c.cx(0, 1).unwrap();
        c.x(1).unwrap();
        c.cx(0, 1).unwrap();
        c.x(1).unwrap();
        let (opt, r) = optimize(&c, 2).unwrap();
        assert_eq!(opt.size(), 0, "{:?}", opt.ops());
        assert_eq!(r.fused, 4);
    }

    #[test]
    fn multi_fusion_respects_wide_fences() {
        // A 4-wire gate between two fusable groups forces both clusters
        // shut; the groups still fuse independently.
        let mut c = QuantumCircuit::with_qubits(4);
        c.h(0).unwrap();
        c.cx(0, 1).unwrap();
        c.x(1).unwrap();
        c.mcx(&[0, 1, 2], 3).unwrap();
        c.h(2).unwrap();
        c.cx(2, 3).unwrap();
        c.x(3).unwrap();
        let (opt, _) = optimize(&c, 2).unwrap();
        assert_eq!(
            opt.ops()
                .iter()
                .filter(|g| matches!(g, Gate::Unitary2 { .. }))
                .count(),
            2
        );
        assert_eq!(opt.size(), 3);
        fidelity_preserved(&c, 2);
    }

    #[test]
    fn multi_fusion_preserves_statevector_on_mixed_widths() {
        let mut c = QuantumCircuit::with_qubits(4);
        c.h(0).unwrap().t(1).unwrap();
        c.cx(0, 1).unwrap();
        c.swap(1, 2).unwrap();
        c.cswap(0, 1, 2).unwrap();
        c.rz(0.37, 2).unwrap();
        c.ccx(1, 2, 3).unwrap();
        c.cy(3, 0).unwrap();
        c.cz(2, 3).unwrap();
        c.cp(1.1, 0, 3).unwrap();
        c.sx(3).unwrap();
        fidelity_preserved(&c, 2);
        fidelity_preserved(&c, 3);
    }

    #[test]
    fn fusion_is_off_at_level_one() {
        let mut c = QuantumCircuit::with_qubits(1);
        c.h(0).unwrap().s(0).unwrap().t(0).unwrap();
        let (opt, r) = optimize(&c, 1).unwrap();
        assert_eq!(opt.size(), 3);
        assert_eq!(r.fused, 0);
    }

    #[test]
    fn fused_identity_run_is_dropped() {
        // H·Z·H = X, then X: the whole run multiplies to the identity.
        let mut c = QuantumCircuit::with_qubits(1);
        c.h(0).unwrap().z(0).unwrap().h(0).unwrap().x(0).unwrap();
        let (opt, _) = optimize(&c, 2).unwrap();
        assert_eq!(opt.size(), 0);
    }

    #[test]
    fn fusion_unlocks_two_qubit_cancellation() {
        // CX · (X·X on the control wire) · CX: level 1 already cancels the
        // X pair and then the CX pair through the wire rewind.
        let mut c = QuantumCircuit::with_qubits(2);
        c.cx(0, 1).unwrap();
        c.x(0).unwrap();
        c.x(0).unwrap();
        c.cx(0, 1).unwrap();
        let (opt, _) = optimize(&c, 2).unwrap();
        assert_eq!(opt.size(), 0);
    }

    #[test]
    fn level_zero_is_identity() {
        let mut c = QuantumCircuit::with_qubits(1);
        c.h(0).unwrap().h(0).unwrap();
        let (opt, r) = optimize(&c, 0).unwrap();
        assert_eq!(opt.size(), 2);
        assert_eq!(r.gates_after, 2);
        assert_eq!(r.gate_reduction(), 0.0);
    }

    #[test]
    fn mixed_circuit_preserves_statevector_exactly() {
        let mut c = QuantumCircuit::with_qubits(3);
        c.h(0).unwrap().h(1).unwrap().h(2).unwrap();
        c.rz(0.3, 0).unwrap().rz(0.4, 0).unwrap();
        c.cx(0, 1).unwrap();
        c.t(1).unwrap().tdg(1).unwrap();
        c.cp(0.8, 1, 2).unwrap();
        c.x(2).unwrap().y(2).unwrap().z(2).unwrap();
        c.swap(0, 2).unwrap();
        c.gphase(0.2).unwrap();
        c.ccx(0, 1, 2).unwrap();
        for level in [1u8, 2] {
            fidelity_preserved(&c, level);
        }
    }

    #[test]
    fn report_metrics_are_consistent() {
        let mut c = QuantumCircuit::with_qubits(2);
        c.h(0).unwrap().h(0).unwrap();
        c.h(1).unwrap().s(1).unwrap();
        let (opt, r) = optimize(&c, 2).unwrap();
        assert_eq!(r.gates_before, 4);
        assert_eq!(r.gates_after, opt.size());
        assert_eq!(r.depth_before, 2);
        assert_eq!(r.depth_after, opt.depth());
        assert_eq!(r.level, 2);
    }
}
