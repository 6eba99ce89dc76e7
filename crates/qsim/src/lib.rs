//! # qutes-sim
//!
//! Dense statevector quantum simulator — the execution substrate for the
//! Qutes language, standing in for the Qiskit/Aer backend used by the
//! original paper ("Qutes: A High-Level Quantum Programming Language for
//! Simplified Quantum Computing", Faro, Marino & Messina, HPDC 2025).
//!
//! Features:
//! * own [`complex::Complex64`] (no external numerics dependency),
//! * single-qubit, multi-controlled, swap and diagonal-oracle kernels,
//! * automatic multi-threading for large states (scoped threads, block-
//!   aligned partitioning, zero synchronisation inside kernels),
//! * collapsing measurement, measure-and-reset, and non-collapsing shot
//!   sampling driven by any [`rand::Rng`].
//!
//! ```
//! use qutes_sim::{StateVector, gates, measure};
//! use rand::SeedableRng;
//!
//! // Build and measure a Bell pair.
//! let mut sv = StateVector::new(2).unwrap();
//! sv.apply_single(&gates::h(), 0).unwrap();
//! sv.apply_controlled(&gates::x(), &[0], 1).unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let a = measure::measure_qubit(&mut sv, 0, &mut rng).unwrap();
//! let b = measure::measure_qubit(&mut sv, 1, &mut rng).unwrap();
//! assert_eq!(a, b);
//! ```

#![deny(missing_docs)]

pub mod complex;
pub mod error;
pub mod gates;
pub mod measure;
pub mod noise;
pub mod parallel;
pub mod rng_stream;
pub mod state;
pub mod tableau;

pub use complex::{c64, Complex64};
pub use error::{SimError, SimResult};
pub use gates::{Matrix2, Matrix4, Matrix8};
pub use noise::{Channel, Fault, GateChannels, NoiseModel, Site};
pub use state::{uniform_superposition, StateVector, MAX_QUBITS};
pub use tableau::{Tableau, TABLEAU_MAX_QUBITS};
