//! Abstract domains for translation validation.
//!
//! Each domain interprets a gate run *symbolically* — no amplitudes are
//! ever enumerated except in the bounded [`dense`] fallback — and
//! supports one question: are two gate runs the same unitary (up to
//! global phase)?
//!
//! * [`clifford`] — the exact stabilizer domain. Replays a run through
//!   a fresh `qsim::Tableau`, whose rows then record the conjugation
//!   action on every `X_i`/`Z_i` generator; equality of actions is
//!   equality of tableaus. Complete for the Clifford gate set, `O(n²)`
//!   bits per run.
//! * [`phase_poly`] — the phase-polynomial / path-sum domain for
//!   {X, CX, Swap, Z, S, T, Rz, Phase, CZ, CPhase, MCPhase} runs: the
//!   state is an affine GF(2) function per wire plus a pseudo-Boolean
//!   phase polynomial. Exact on its gate set.
//! * [`dense`] — bounded dense-unitary comparison (≤ 8 wires) by
//!   basis-column simulation; the fallback when neither symbolic
//!   domain applies.
//! * [`channel`] — bounded whole-boundary *instrument* comparison
//!   (anchors included, outcome branches enumerated); the
//!   alignment-free fallback when no run-by-run decomposition of a
//!   rewrite exists.
//!
//! The decision table lives in `docs/verification.md`.

pub mod channel;
pub mod clifford;
pub mod dense;
pub mod phase_poly;
