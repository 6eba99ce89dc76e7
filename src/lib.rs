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

/// Parses, optionally lints, and runs a Qutes program.
///
/// Identical to [`qutes_core::run_source`] except that:
///
/// * when `config.lint.enabled` is set the static analyzer
///   ([`analysis::analyze_source`]) runs first, and any finding resolved
///   to deny level (see [`qutes_core::LintOptions`]) refuses execution
///   with a [`QutesError::Compile`] carrying the findings as
///   diagnostics, and
/// * when `config.backend` is [`qcirc::BackendChoice::Auto`] the
///   resource estimator's static gate composition resolves it to a
///   concrete engine before execution ([`resolve_backend_for`], on the
///   run's one parse of `source`):
///   Clifford-only programs run on the stabilizer tableau (hundreds of
///   qubits), everything else on the dense statevector — `qutes-core`
///   alone has no estimator and treats `Auto` as the statevector, and
/// * the whole pipeline runs inside a panic-containment boundary
///   ([`qutes_supervisor::contain`]): a panic anywhere in the stack
///   surfaces as a typed [`QutesError::Internal`] naming the active
///   stage, never an unwind across the library API.
pub fn run_source(source: &str, config: &RunConfig) -> QutesResult<RunOutcome> {
    qutes_supervisor::contain(|| run_source_inner(source, config)).map_err(QutesError::from)?
}

/// Resolves [`qcirc::BackendChoice::Auto`] to a concrete engine from the
/// program's statically estimated gate composition (see
/// `docs/backends.md` for the decision table):
///
/// * estimator proves the program Clifford-only
///   ([`analysis::ResourceEstimate::clifford_only`]), no noise model is
///   configured, and the estimated width fits the tableau → **tableau**;
/// * otherwise → **statevector** (always sound).
///
/// Non-`Auto` choices pass through untouched — a forced `--backend
/// tableau` on an unsupported program fails later with the typed
/// [`qcirc::CircError::BackendUnsupported`] rather than being silently
/// rewritten. A program that fails to parse also passes through: the
/// runtime will report the parse error itself, with its proper span.
///
/// This parses `source`; a caller that holds the AST already uses
/// [`resolve_backend_for`], as [`run_source`] does.
pub fn resolve_backend(source: &str, config: &RunConfig) -> qcirc::BackendChoice {
    if config.backend != qcirc::BackendChoice::Auto {
        return config.backend;
    }
    match parse(source) {
        Ok(program) => resolve_backend_for(&program, config),
        Err(_) => qcirc::BackendChoice::Statevector,
    }
}

/// [`resolve_backend`] on an already-parsed program.
pub fn resolve_backend_for(
    program: &frontend::ast::Program,
    config: &RunConfig,
) -> qcirc::BackendChoice {
    if config.backend != qcirc::BackendChoice::Auto {
        return config.backend;
    }
    let _span = obs::span("stage.dispatch");
    let noisy = config.noise.as_ref().is_some_and(|nm| !nm.is_noiseless());
    let est = analysis::estimate(program);
    // Cross-check the two dispatch oracles: the syntactic Clifford
    // classifier is strictly weaker than the estimator's trace-based
    // bit, so whenever it certifies a program the estimator must agree
    // (the converse is not true: the estimator also certifies programs
    // whose *executed trace* happens to be Clifford).
    debug_assert!(
        !analysis::program_is_clifford(program) || est.clifford_only,
        "syntactic Clifford classifier certified a program the estimator rejected"
    );
    if est.clifford_only && !noisy && est.qubits <= sim::TABLEAU_MAX_QUBITS {
        qcirc::BackendChoice::Tableau
    } else {
        qcirc::BackendChoice::Statevector
    }
}

fn run_source_inner(source: &str, config: &RunConfig) -> QutesResult<RunOutcome> {
    // Translation validation inside the optimizer: debug/CI builds
    // check every rewrite of every run through this facade; release
    // builds never consult the validator (see
    // `analysis::install_optimizer_guard`). Installing is idempotent
    // and costs one OnceLock read.
    analysis::install_optimizer_guard();
    if config.lint.enabled {
        let _stage = qutes_supervisor::enter_stage("facade.lint");
        let report = analysis::analyze_source(source, &config.lint).map_err(QutesError::Compile)?;
        let denied = report.denied();
        if !denied.is_empty() {
            return Err(QutesError::Compile(
                denied.iter().map(|f| f.to_diagnostic()).collect(),
            ));
        }
    }
    if config.observe {
        obs::set_enabled(true);
    }
    // One parse and one interrupt handle for the whole run: the deadline
    // armed here bounds parsing, dispatch and execution alike.
    let intr = config.effective_interrupt();
    let program = {
        let _stage = qutes_supervisor::enter_stage("facade.parse");
        qutes_core::parse_checked(source, config, &intr)?
    };
    let resolved = {
        let _stage = qutes_supervisor::enter_stage("facade.dispatch");
        resolve_backend_for(&program, config)
    };
    intr.check()?;
    let _stage = qutes_supervisor::enter_stage("facade.run");
    let outcome = if resolved == config.backend {
        qutes_core::run_program_with(&program, config, &intr)
    } else {
        let mut patched = config.clone();
        patched.backend = resolved;
        qutes_core::run_program_with(&program, &patched, &intr)
    }?;
    if config.verify {
        let _stage = qutes_supervisor::enter_stage("facade.verify");
        let v = analysis::verify_optimization(&outcome.circuit, config.opt_level)
            .map_err(QutesError::from)?;
        if v.verdict == analysis::Verdict::Inequivalent {
            let problem = v.first_problem();
            return Err(QutesError::Verify {
                pass: problem.map_or("pipeline", |b| b.pass).to_string(),
                detail: problem
                    .and_then(|b| b.report.detail.clone())
                    .unwrap_or_else(|| "proven inequivalent".to_string()),
            });
        }
        // `Unknown` is sound to execute; the CLI surfaces it as a
        // warning (the library accepts it silently — see
        // docs/verification.md).
    }
    Ok(outcome)
}
