//! # qutes-qcirc
//!
//! Quantum circuit intermediate representation — the substrate that plays
//! the role of Qiskit's `QuantumCircuit` in the Qutes paper (Faro, Marino
//! & Messina, HPDC 2025). The Qutes compiler's `QuantumCircuitHandler`
//! lowers language constructs into this IR; the IR executes on the
//! `qutes-sim` statevector backend and exports to OpenQASM via
//! `qutes-qasm`.
//!
//! ```
//! use qutes_qcirc::{QuantumCircuit, execute};
//! use rand::SeedableRng;
//!
//! let mut c = QuantumCircuit::with_qubits_and_clbits(2, 2);
//! c.h(0).unwrap().cx(0, 1).unwrap();
//! c.measure(0, 0).unwrap().measure(1, 1).unwrap();
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let counts = execute::run_shots(&c, 100, &mut rng).unwrap();
//! assert_eq!(counts.get(0b00) + counts.get(0b11), 100);
//! ```

#![deny(missing_docs)]
// Failures surface as `CircError`, never abort: the unwrap/expect/panic
// clippy denies come from `[workspace.lints]` in the root Cargo.toml.

pub mod backend;
pub mod circuit;
pub mod decompose;
pub mod draw;
pub mod error;
pub mod execute;
pub mod gate;
pub mod metrics;
pub mod optimize;
pub mod register;
pub mod segment;

pub use backend::{circuit_is_clifford, BackendChoice, BackendKind, Coin, Engine};
pub use circuit::{remap_gate, QuantumCircuit};
pub use decompose::{
    lower_gate_to_standard, mcphase_no_ancilla, mcx_no_ancilla, mcx_vchain, transpile, Basis,
};
pub use draw::draw;
pub use error::{CircError, CircResult};
pub use execute::{
    apply_deterministic, run_once, run_once_cfg, run_shots, run_shots_cfg, run_shots_majority,
    run_shots_supervised, statevector, Counts, ExecutionConfig, MajorityOutcome, Shot,
    ShotsOutcome,
};
pub use gate::Gate;
pub use metrics::CircuitStats;
#[cfg(feature = "verify-mutation")]
pub use optimize::arm_verify_mutation;
pub use optimize::{
    optimize, optimize_with_interrupt, optimize_with_trace, set_pass_validator, OptimizationReport,
    PassBoundary, PassValidator,
};
pub use qutes_supervisor::{Interrupt, StopReason};
pub use register::{ClassicalRegister, QuantumRegister};
pub use segment::{is_sync_op, run_support, segment_ops, segment_ops_causal, Segmented};
