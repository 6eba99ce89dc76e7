//! # qutes
//!
//! A high-level quantum programming language, reproduced in Rust from
//! "Qutes: A High-Level Quantum Programming Language for Simplified
//! Quantum Computing" (Faro, Marino & Messina, HPDC 2025).
//!
//! This facade crate re-exports the whole stack:
//!
//! * [`frontend`] — lexer, parser, AST, pretty-printer,
//! * [`core`] — type system, symbol table, casting, the
//!   `QuantumCircuitHandler`, and the interpreter,
//! * [`qcirc`] — the quantum-circuit IR (the Qiskit stand-in),
//! * [`sim`] — the dense statevector simulator (the Aer stand-in),
//! * [`algos`] — Grover/substring search, Deutsch-Jozsa, constant-depth
//!   rotation, quantum arithmetic, entanglement swap, QFT, state prep,
//! * [`qasm`] — OpenQASM 2/3 export and import,
//! * [`analysis`] — quantum-aware static lints and resource estimation
//!   (`qutes lint`; see `docs/analysis.md`),
//! * [`obs`] — the zero-cost-when-disabled observability collector
//!   (spans, per-stage timers, per-kernel counters; see
//!   `docs/observability.md`).
//!
//! ## Quickstart
//!
//! ```
//! use qutes::{run_source, RunConfig};
//!
//! let program = r#"
//!     quint a = [1, 2]q;      // superposition of 1 and 2
//!     quint sum = a + 3;      // quantum ripple-carry addition
//!     print sum;              // auto-measures: prints 4 or 5
//! "#;
//! let out = run_source(program, &RunConfig::default()).unwrap();
//! let v: i64 = out.output[0].parse().unwrap();
//! assert!(v == 4 || v == 5);
//! ```

pub use qutes_algos as algos;
pub use qutes_analysis as analysis;
pub use qutes_core as core;
pub use qutes_frontend as frontend;
pub use qutes_obs as obs;
pub use qutes_qasm as qasm;
pub use qutes_qcirc as qcirc;
pub use qutes_sim as sim;
pub use qutes_supervisor as supervisor;

pub use qutes_core::{DegradePolicy, QutesError, QutesResult, RunConfig, RunOutcome};
pub use qutes_frontend::{parse, print_program};
pub use qutes_qasm::{to_qasm2, to_qasm3};
pub use qutes_supervisor::{Interrupt, StopReason};

/// Parses and runs a Qutes program.
///
/// Identical to [`qutes_core::run_source`] except that the whole
/// pipeline runs inside a panic-containment boundary
/// ([`qutes_supervisor::contain`]): a panic anywhere in the stack
/// surfaces as a typed [`QutesError::Internal`] naming the active stage,
/// never an unwind across the library API. Linting (`qutes lint`, `run
/// --lint`) and translation validation (`qutes verify`, `run --verify`)
/// are the CLI's gates, over [`analysis::analyze_source`] and
/// [`analysis::verify_optimization`].
///
/// Engine choice is the runtime's: under [`qcirc::BackendChoice::Auto`]
/// a noise-free run starts on the stabilizer tableau and is promoted to
/// the dense statevector at its first non-Clifford gate, and
/// [`RunOutcome::backend`] reports where it ended (see
/// `docs/backends.md`). Nothing is decided ahead of the run.
pub fn run_source(source: &str, config: &RunConfig) -> QutesResult<RunOutcome> {
    qutes_supervisor::contain(|| run_source_inner(source, config)).map_err(QutesError::from)?
}

/// A static *prediction* of the engine a run would end on, from the
/// resource estimator's Clifford bit:
///
/// * no effective noise model, the estimator proves every gate the
///   program can emit Clifford ([`analysis::ResourceEstimate::clifford_only`],
///   `false` whenever estimation gives up), and the estimated width
///   fits the tableau → **tableau**;
/// * otherwise → **statevector**.
///
/// Non-`Auto` choices pass through untouched, and an `Auto` input never
/// yields `Auto`; a program that fails to parse predicts the
/// statevector. [`run_source`] never calls this: the runtime decides
/// exactly, by promotion, so a program the estimator cannot certify may
/// still end on the tableau. A `Tableau` answer is a promise: the
/// estimator's bit is sound, so such a run never promotes.
/// `tableau_predictions_hold_on_every_estimated_program` in
/// `tests/dispatch.rs` checks it on every program whose estimate
/// `tests/golden/estimates.txt` pins.
pub fn resolve_backend(source: &str, config: &RunConfig) -> qcirc::BackendChoice {
    if config.backend != qcirc::BackendChoice::Auto {
        return config.backend;
    }
    let noisy = config.noise.as_ref().is_some_and(|nm| !nm.is_noiseless());
    match parse(source) {
        Ok(program) if !noisy => {
            let est = analysis::estimate(&program);
            if est.clifford_only && est.qubits <= sim::TABLEAU_MAX_QUBITS {
                qcirc::BackendChoice::Tableau
            } else {
                qcirc::BackendChoice::Statevector
            }
        }
        _ => qcirc::BackendChoice::Statevector,
    }
}

fn run_source_inner(source: &str, config: &RunConfig) -> QutesResult<RunOutcome> {
    // Translation validation inside the optimizer: debug/CI builds
    // check every rewrite of every run through this facade; release
    // builds never consult the validator (see
    // `analysis::install_optimizer_guard`). Installing is idempotent
    // and costs one OnceLock read.
    analysis::install_optimizer_guard();
    let _stage = qutes_supervisor::enter_stage("facade.run");
    qutes_core::run_source(source, config)
}
