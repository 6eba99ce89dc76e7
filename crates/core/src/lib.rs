//! # qutes-core
//!
//! Compiler and runtime for the **Qutes** quantum programming language —
//! a Rust reproduction of "Qutes: A High-Level Quantum Programming
//! Language for Simplified Quantum Computing" (Faro, Marino & Messina,
//! HPDC 2025).
//!
//! Pipeline (mirroring the paper's §3 architecture):
//!
//! 1. `qutes-frontend` lexes/parses the source into an AST,
//! 2. the static type checker ([`types`]) enforces the §4 type system
//!    and, in the same walk, is the symbol pass: it binds every name to
//!    a frame or global slot ([`resolution`]),
//! 3. the operation pass ([`runtime`]) runs the resolved program on
//!    the one walker of [`interp`] (which the static resource estimator
//!    runs too, over an abstract domain): it executes classical code
//!    natively, with the value operations of [`ops`], and lowers
//!    quantum operations
//!    through the [`handler::QuantumCircuitHandler`] (accumulated
//!    circuit + live statevector) with [`casting::TypeCastingHandler`]
//!    bridging the classical/quantum boundary.
//!
//! ```
//! use qutes_core::{run_source, RunConfig};
//!
//! let out = run_source(r#"
//!     quint a = 5q;
//!     quint b = 3q;
//!     quint sum = a + b;
//!     print sum;
//! "#, &RunConfig::default()).unwrap();
//! assert_eq!(out.output, vec!["8"]);
//! ```

pub mod casting;
pub mod error;
pub mod handler;
pub mod interp;
pub mod lower;
pub mod ops;
pub mod resolution;
pub mod runtime;
pub mod types;
pub mod value;

pub use casting::TypeCastingHandler;
pub use error::{QutesError, QutesResult};
pub use handler::QuantumCircuitHandler;
pub use qutes_supervisor::{Interrupt, StopReason};
pub use runtime::{run_program, run_source, DegradePolicy, RunConfig, RunOutcome};
pub use types::{assignable, check_program, measured, resolve};
pub use value::{QKind, QuantumRef, Value};
