//! Static translation validation of circuit rewrites.
//!
//! [`verify_rewrite`] decides whether two gate streams implement the
//! same quantum channel, **without simulating amplitudes** except in a
//! bounded fallback. [`verify_optimization`] applies it to every pass
//! boundary the optimizer reports (plus the whole-pipeline
//! composition), and [`install_optimizer_guard`] wires the same check
//! into `qutes_qcirc::optimize` itself for debug/CI builds, so every
//! rewrite performed anywhere in the test suite is validated.
//!
//! ## How a rewrite is decided
//!
//! 1. **Sync skeleton.** Both streams are split into unitary runs
//!    separated by the sync operations (measure/reset/conditional). No
//!    optimizer pass may create, drop or reorder sync operations, so
//!    differing skeletons are immediately `Inequivalent`; matching
//!    skeletons reduce the question to the pairwise equivalence of
//!    aligned unitary runs.
//! 2. **Run alignment**, under two schemes (see
//!    `qutes_qcirc::segment`): the **positional** view
//!    ([`qutes_qcirc::segment_ops`]), which aligns list-local rewrites
//!    such as gate fusion, and the **causal** view
//!    ([`qutes_qcirc::segment_ops_causal`]), which aligns the
//!    commutation-aware peephole's cancellations across anchors on
//!    disjoint wires. Each scheme's `Equivalent` is a proof; its
//!    `Inequivalent` may be mere misalignment. When neither scheme
//!    proves equivalence, the **channel fallback**
//!    ([`crate::domains::channel`]) compares the whole boundary as a
//!    quantum instrument — anchors included, outcome branches
//!    enumerated — which needs no alignment at all but is bounded to
//!    small supports. `Inequivalent` is only reported when the
//!    applicable checks independently prove a mismatch.
//! 3. **Tensor factoring.** Each aligned run pair is partitioned into
//!    connected components by qubit support (union of both sides).
//!    Disjoint factors are verified independently — equivalence up to
//!    global phase distributes over tensor products.
//! 4. **Domain dispatch** per component, cheapest exact domain first:
//!    the stabilizer domain ([`crate::domains::clifford`]) when every
//!    gate is Clifford; the phase-polynomial domain
//!    ([`crate::domains::phase_poly`]) for {X, CX, Swap, Rz-family,
//!    controlled-phase} runs; the dense fallback
//!    ([`crate::domains::dense`]) up to 8 wires; otherwise a sound
//!    [`Verdict::Unknown`] — never a guess.
//!
//! The whole-pipeline entry of [`verify_optimization`] is proven by
//! **transitivity**: when the traced rewrite chain is intact (each
//! boundary's output is the next one's input, ends matching the
//! original and optimized circuits) the composition inherits the join
//! of the per-boundary verdicts; a broken chain — a pass mutating ops
//! while reporting no change — falls back to a direct structural
//! check.
//!
//! Soundness: `Equivalent` and `Inequivalent` are only ever produced
//! by a domain that is *exact* on the gates it accepted (the dense
//! domain is exact up to the documented 1e-6 numerical tolerance).
//! `Unknown` is the only answer allowed to be imprecise, and it is
//! reported, not silently swallowed.

use crate::domains::{channel, clifford, dense, phase_poly};
use qutes_qcirc::{
    optimize_with_trace, remap_gate, segment_ops, segment_ops_causal, CircError, Gate, Interrupt,
    QuantumCircuit, Segmented,
};

/// Outcome of an equivalence check, ordered as a lattice:
/// `Inequivalent > Unknown > Equivalent` under [`Verdict::join`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Proven equivalent (up to global phase) by an exact domain.
    Equivalent,
    /// No applicable domain: soundly undecided, never a guess.
    Unknown,
    /// Proven inequivalent by an exact domain.
    Inequivalent,
}

impl Verdict {
    /// Lattice join: the worse verdict wins.
    pub fn join(self, other: Verdict) -> Verdict {
        use Verdict::*;
        match (self, other) {
            (Inequivalent, _) | (_, Inequivalent) => Inequivalent,
            (Unknown, _) | (_, Unknown) => Unknown,
            _ => Equivalent,
        }
    }

    /// Lowercase display name (`"equivalent"`, …).
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Equivalent => "equivalent",
            Verdict::Unknown => "unknown",
            Verdict::Inequivalent => "inequivalent",
        }
    }
}

/// One verified component of one run pair.
#[derive(Clone, Debug)]
pub struct SegmentVerdict {
    /// Index of the unitary run (between sync anchors) this component
    /// belongs to.
    pub run: usize,
    /// The component's wires (global indices, sorted).
    pub wires: Vec<usize>,
    /// Which domain decided it (`"clifford"`, `"phase_poly"`,
    /// `"dense"`, or `"none"` for `Unknown`).
    pub domain: &'static str,
    /// The component's verdict.
    pub verdict: Verdict,
}

/// Full result of [`verify_rewrite`].
#[derive(Clone, Debug)]
pub struct VerifyReport {
    /// Joined verdict over all segments (and the skeleton check).
    pub verdict: Verdict,
    /// Per-component verdicts, in run order.
    pub segments: Vec<SegmentVerdict>,
    /// Human-readable cause of the first non-`Equivalent` fact.
    pub detail: Option<String>,
}

/// Decides whether two gate streams over `n` qubits implement the same
/// channel (each unitary run equal up to global phase, sync operations
/// identical).
///
/// Runs the positional alignment first; if it cannot prove equivalence
/// the causal alignment is tried, and the most favorable verdict wins
/// (each scheme's `Equivalent` is a proof; a scheme's `Inequivalent`
/// may be misalignment — see the module docs).
pub fn verify_rewrite(before: &[Gate], after: &[Gate], n: usize) -> VerifyReport {
    let _span = qutes_obs::span("verify.rewrite");
    let sa = segment_ops(before);
    let sb = segment_ops(after);
    if sa.sync != sb.sync {
        return VerifyReport {
            verdict: Verdict::Inequivalent,
            segments: Vec::new(),
            detail: Some(format!(
                "sync skeletons differ: {} vs {} measure/reset/conditional anchors \
                 (no pass may create, drop or reorder them)",
                sa.sync.len(),
                sb.sync.len()
            )),
        };
    }
    let positional = judge_runs(&sa, &sb, n, true);
    if positional.verdict == Verdict::Equivalent {
        return positional;
    }
    if qutes_obs::is_enabled() {
        qutes_obs::counter_add("verify.rewrite.causal_escalations", 1);
    }
    let causal = judge_runs(
        &segment_ops_causal(before),
        &segment_ops_causal(after),
        n,
        false,
    );
    // Rank Equivalent < Unknown < Inequivalent and keep the better
    // report: proofs win outright, and between two failures the less
    // damning one stands (the worse may be pure misalignment).
    let rank = |v: Verdict| match v {
        Verdict::Equivalent => 0u8,
        Verdict::Unknown => 1,
        Verdict::Inequivalent => 2,
    };
    let best = if rank(causal.verdict) < rank(positional.verdict) {
        causal
    } else {
        positional
    };
    if best.verdict == Verdict::Equivalent {
        return best;
    }
    // Last resort: the alignment-free whole-boundary channel
    // comparison. A pass that removes gates can re-time the causal
    // position of *other* rewritten gates relative to anchors on
    // disjoint wires, so that no run-by-run decomposition of the
    // rewrite exists under either scheme; comparing the two streams as
    // quantum instruments (anchors included, outcome branches
    // enumerated) needs no alignment at all, at dense-domain cost.
    if qutes_obs::is_enabled() {
        qutes_obs::counter_add("verify.rewrite.channel_escalations", 1);
    }
    match channel::instruments_equal(before, after) {
        Some(true) => VerifyReport {
            verdict: Verdict::Equivalent,
            segments: Vec::new(),
            detail: Some(
                "proven by whole-boundary channel comparison (no run alignment exists; \
                 branch operators equal up to per-branch phase)"
                    .to_string(),
            ),
        },
        // The channel domain is exact where it applies, so it may
        // *sharpen* an Unknown into a proof of inequivalence — but a
        // scheme's Inequivalent keeps its more precise per-run detail.
        Some(false) if best.verdict == Verdict::Unknown => VerifyReport {
            verdict: Verdict::Inequivalent,
            segments: Vec::new(),
            detail: Some("whole-boundary channel comparison: branch operators differ".to_string()),
        },
        _ => best,
    }
}

/// Judges every aligned run pair of one segmentation of both sides.
/// `count` gates the per-segment obs counters so the escalation pass
/// does not double-count components.
fn judge_runs(sa: &Segmented, sb: &Segmented, n: usize, count: bool) -> VerifyReport {
    let mut verdict = Verdict::Equivalent;
    let mut segments = Vec::new();
    let mut detail = None;
    for (run_idx, (ra, rb)) in sa.runs.iter().zip(&sb.runs).enumerate() {
        for comp in components(ra, rb, n) {
            let (la, ka) = localize(ra, &comp, n);
            let (lb, _) = localize(rb, &comp, n);
            let k = ka;
            let (domain, v) = decide(&la, &lb, k);
            if count && qutes_obs::is_enabled() {
                qutes_obs::counter_add(segment_counter(domain), 1);
            }
            if v != Verdict::Equivalent && detail.is_none() {
                detail = Some(format!(
                    "run {run_idx}, wires {:?}: {} in the {} domain",
                    comp,
                    v.name(),
                    if domain == "none" {
                        "(no applicable)"
                    } else {
                        domain
                    }
                ));
            }
            verdict = verdict.join(v);
            segments.push(SegmentVerdict {
                run: run_idx,
                wires: comp,
                domain,
                verdict: v,
            });
        }
    }
    VerifyReport {
        verdict,
        segments,
        detail,
    }
}

fn segment_counter(domain: &'static str) -> &'static str {
    match domain {
        "clifford" => "verify.segments.clifford",
        "phase_poly" => "verify.segments.phase_poly",
        "dense" => "verify.segments.dense",
        _ => "verify.segments.unknown",
    }
}

/// Picks the cheapest exact domain that accepts both runs and decides.
fn decide(a: &[Gate], b: &[Gate], k: usize) -> (&'static str, Verdict) {
    let to_verdict = |eq: bool| {
        if eq {
            Verdict::Equivalent
        } else {
            Verdict::Inequivalent
        }
    };
    if let Some(eq) = clifford::runs_equal(a, b, k) {
        return ("clifford", to_verdict(eq));
    }
    if let Some(eq) = phase_poly::runs_equal(a, b, k) {
        return ("phase_poly", to_verdict(eq));
    }
    if let Some(eq) = dense::runs_equal(a, b, k) {
        return ("dense", to_verdict(eq));
    }
    ("none", Verdict::Unknown)
}

/// Connected components of the union support of both runs, each a
/// sorted wire list. Gates with empty support (global phases) join no
/// component — they only move the global phase, which every domain
/// already quotients out.
fn components(a: &[Gate], b: &[Gate], n: usize) -> Vec<Vec<usize>> {
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut touched = vec![false; n];
    for g in a.iter().chain(b) {
        let qs = g.qubits();
        for &q in &qs {
            touched[q] = true;
        }
        for w in qs.windows(2) {
            let (ra, rb) = (find(&mut parent, w[0]), find(&mut parent, w[1]));
            if ra != rb {
                parent[ra] = rb;
            }
        }
    }
    let mut groups: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for (q, &hit) in touched.iter().enumerate() {
        if hit {
            let root = find(&mut parent, q);
            groups.entry(root).or_default().push(q);
        }
    }
    groups.into_values().collect()
}

/// Extracts the gates of `run` supported on `comp` and remaps their
/// wires to `0..comp.len()`. Support-less gates (global phases) are
/// dropped — see [`components`].
fn localize(run: &[Gate], comp: &[usize], n: usize) -> (Vec<Gate>, usize) {
    let mut qmap = vec![usize::MAX; n];
    for (local, &global) in comp.iter().enumerate() {
        qmap[global] = local;
    }
    let gates = run
        .iter()
        .filter(|g| {
            let qs = g.qubits();
            !qs.is_empty() && qs.iter().all(|&q| qmap[q] != usize::MAX)
        })
        .map(|g| remap_gate(g, &qmap, &[]))
        .collect();
    (gates, comp.len())
}

/// One verified optimizer pass boundary.
#[derive(Clone, Debug)]
pub struct BoundaryReport {
    /// Pass name (`"cancel_merge"`, `"fuse_runs"`, `"fuse_multi"`, or
    /// `"pipeline"` for the whole-composition check).
    pub pass: &'static str,
    /// Boundary position in pipeline order.
    pub index: usize,
    /// The rewrite's verification report.
    pub report: VerifyReport,
}

/// Result of [`verify_optimization`].
#[derive(Clone, Debug)]
pub struct OptimizationVerification {
    /// Joined verdict over every boundary.
    pub verdict: Verdict,
    /// Per-boundary reports, ending with the `"pipeline"` composition.
    pub boundaries: Vec<BoundaryReport>,
}

impl OptimizationVerification {
    /// The first boundary whose verdict is not `Equivalent`, if any.
    pub fn first_problem(&self) -> Option<&BoundaryReport> {
        self.boundaries
            .iter()
            .find(|b| b.report.verdict != Verdict::Equivalent)
    }
}

/// Optimizes `circuit` at `level` while tracing pass boundaries, then
/// verifies every recorded rewrite *and* the end-to-end composition.
pub fn verify_optimization(
    circuit: &QuantumCircuit,
    level: u8,
) -> Result<OptimizationVerification, CircError> {
    let _span = qutes_obs::span("verify.optimize");
    let n = circuit.num_qubits();
    let (optimized, _report, trace) = optimize_with_trace(circuit, level, &Interrupt::new())?;
    let mut boundaries: Vec<BoundaryReport> = trace
        .iter()
        .map(|b| BoundaryReport {
            pass: b.pass,
            index: b.index,
            report: verify_rewrite(&b.before, &b.after, n),
        })
        .collect();
    // The whole-pipeline verdict is what `run --verify` ultimately
    // promises the user. With an intact rewrite chain (every recorded
    // boundary's output is the next one's input, ends matching the
    // original and optimized circuits — unchanged iterations are exact
    // identities and need no entries) it follows by transitivity from
    // the per-boundary verdicts; no single run alignment scheme covers
    // cancellation *and* fusion at once, so a direct structural check
    // of the composition would spuriously fail exactly when both kinds
    // of rewrite fired. The direct check remains as the fallback
    // against a pass that mutated ops while reporting no change.
    let chain_ok = if trace.is_empty() {
        circuit.ops() == optimized.ops()
    } else {
        trace[0].before.as_slice() == circuit.ops()
            && trace.windows(2).all(|w| w[0].after == w[1].before)
            && trace
                .last()
                .is_some_and(|b| b.after.as_slice() == optimized.ops())
    };
    let pipeline_report = if chain_ok {
        let joined = boundaries
            .iter()
            .fold(Verdict::Equivalent, |acc, b| acc.join(b.report.verdict));
        VerifyReport {
            verdict: joined,
            segments: Vec::new(),
            detail: Some(if trace.is_empty() {
                "optimizer made no changes".to_string()
            } else {
                format!(
                    "by composition of {} verified pass boundaries (rewrite chain intact)",
                    trace.len()
                )
            }),
        }
    } else {
        verify_rewrite(circuit.ops(), optimized.ops(), n)
    };
    boundaries.push(BoundaryReport {
        pass: "pipeline",
        index: trace.len(),
        report: pipeline_report,
    });
    let verdict = boundaries
        .iter()
        .fold(Verdict::Equivalent, |acc, b| acc.join(b.report.verdict));
    if qutes_obs::is_enabled() {
        qutes_obs::counter_add(
            match verdict {
                Verdict::Equivalent => "verify.equivalent",
                Verdict::Unknown => "verify.unknown",
                Verdict::Inequivalent => "verify.inequivalent",
            },
            1,
        );
    }
    Ok(OptimizationVerification {
        verdict,
        boundaries,
    })
}

/// The validator handed to `qutes_qcirc::set_pass_validator`: rejects
/// a rewrite only on a *proven* `Inequivalent` — `Unknown` is sound
/// (the rewrite may be fine; refusing would break legitimate >8-wire
/// dense fusions).
fn optimizer_guard(
    pass: &'static str,
    index: usize,
    before: &[Gate],
    after: &[Gate],
) -> Result<(), String> {
    let n = before
        .iter()
        .chain(after)
        .flat_map(Gate::qubits)
        .max()
        .map_or(0, |q| q + 1);
    let report = verify_rewrite(before, after, n);
    match report.verdict {
        Verdict::Inequivalent => Err(format!(
            "boundary {index}: {}",
            report
                .detail
                .unwrap_or_else(|| "proven inequivalent".to_string())
        )),
        _ => {
            let _ = pass;
            Ok(())
        }
    }
}

/// Installs translation validation inside `qutes_qcirc::optimize` for
/// this process (debug builds only — release builds never consult the
/// validator). Idempotent.
pub fn install_optimizer_guard() {
    qutes_qcirc::set_pass_validator(optimizer_guard);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cx(c: usize, t: usize) -> Gate {
        Gate::CX {
            control: c,
            target: t,
        }
    }

    #[test]
    fn identical_streams_are_equivalent() {
        let ops = [Gate::H(0), cx(0, 1), Gate::Measure { qubit: 0, clbit: 0 }];
        let r = verify_rewrite(&ops, &ops, 2);
        assert_eq!(r.verdict, Verdict::Equivalent);
    }

    #[test]
    fn hh_cancellation_is_equivalent() {
        let before = [Gate::H(0), Gate::H(0), cx(0, 1)];
        let after = [cx(0, 1)];
        let r = verify_rewrite(&before, &after, 2);
        assert_eq!(r.verdict, Verdict::Equivalent);
        assert!(r.segments.iter().all(|s| s.domain == "clifford"));
    }

    #[test]
    fn dropped_gate_is_inequivalent() {
        let before = [Gate::H(0), cx(0, 1)];
        let after = [cx(0, 1)];
        let r = verify_rewrite(&before, &after, 2);
        assert_eq!(r.verdict, Verdict::Inequivalent);
        assert!(r.detail.is_some());
    }

    #[test]
    fn skeleton_mismatch_is_inequivalent() {
        let before = [Gate::Measure { qubit: 0, clbit: 0 }];
        let r = verify_rewrite(&before, &[], 1);
        assert_eq!(r.verdict, Verdict::Inequivalent);
    }

    #[test]
    fn rz_merge_uses_phase_poly() {
        let before = [
            Gate::RZ {
                target: 0,
                theta: 0.25,
            },
            Gate::RZ {
                target: 0,
                theta: 0.5,
            },
        ];
        let after = [Gate::RZ {
            target: 0,
            theta: 0.75,
        }];
        let r = verify_rewrite(&before, &after, 1);
        assert_eq!(r.verdict, Verdict::Equivalent);
        assert_eq!(r.segments[0].domain, "phase_poly");
    }

    #[test]
    fn fused_unitary_uses_dense() {
        // H·H fused into the identity matrix gate.
        let id = qutes_sim::gates::h().matmul(&qutes_sim::gates::h());
        let before = [Gate::H(0), Gate::H(0)];
        let after = [Gate::Unitary {
            target: 0,
            matrix: id,
        }];
        let r = verify_rewrite(&before, &after, 1);
        assert_eq!(r.verdict, Verdict::Equivalent);
        assert_eq!(r.segments[0].domain, "dense");
    }

    #[test]
    fn disjoint_factors_verify_independently() {
        let before = [Gate::H(0), Gate::T(1), Gate::T(1)];
        let after = [Gate::H(0), Gate::S(1)];
        let r = verify_rewrite(&before, &after, 2);
        assert_eq!(r.verdict, Verdict::Equivalent);
        let domains: Vec<_> = r.segments.iter().map(|s| s.domain).collect();
        assert!(domains.contains(&"clifford"));
        assert!(domains.contains(&"phase_poly"));
    }

    #[test]
    fn optimization_of_bell_pair_verifies() {
        let mut c = QuantumCircuit::with_qubits_and_clbits(2, 2);
        c.h(0).unwrap().h(0).unwrap().h(0).unwrap();
        c.cx(0, 1).unwrap();
        c.measure(0, 0).unwrap();
        for level in 1..=2 {
            let v = verify_optimization(&c, level).unwrap();
            assert_eq!(v.verdict, Verdict::Equivalent, "level {level}");
            assert!(v.boundaries.len() >= 2); // at least one pass + pipeline
        }
    }

    #[test]
    fn verdict_join_is_a_lattice() {
        use Verdict::*;
        assert_eq!(Equivalent.join(Unknown), Unknown);
        assert_eq!(Unknown.join(Inequivalent), Inequivalent);
        assert_eq!(Equivalent.join(Equivalent), Equivalent);
    }
}
