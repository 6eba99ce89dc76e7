//! Pluggable simulation backends and the dispatch rules that choose one.
//!
//! The execution layer is generic over *how* a circuit's quantum state is
//! represented. Two engines ship today:
//!
//! * **Statevector** — the dense `O(2ⁿ)` engine in [`qutes_sim::state`].
//!   Universal: every gate in the IR, every noise model. Capped at
//!   [`qutes_sim::MAX_QUBITS`] qubits.
//! * **Tableau** — the Aaronson–Gottesman stabilizer engine in
//!   [`qutes_sim::tableau`]. `O(n²)` memory and `O(n)` per gate, so it
//!   runs hundreds of qubits, but only Clifford circuits
//!   (H/S/S†/X/Y/Z/CX/CY/CZ/SWAP + measure/reset) and no noise.
//!
//! [`resolve`] picks the cheapest **sound** backend: an explicit choice
//! is validated against these constraints, and [`BackendChoice::Auto`]
//! selects the tableau exactly when the circuit is Clifford-only,
//! noise-free, and within the tableau's qubit cap. See
//! `docs/backends.md` for the full decision table.
//!
//! ```
//! use qutes_qcirc::backend::{resolve, BackendChoice, BackendKind};
//! use qutes_qcirc::QuantumCircuit;
//!
//! let mut ghz = QuantumCircuit::with_qubits(100);
//! ghz.h(0).unwrap();
//! for q in 0..99 {
//!     ghz.cx(q, q + 1).unwrap();
//! }
//! let kind = resolve(BackendChoice::Auto, &ghz, false).unwrap();
//! assert_eq!(kind, BackendKind::Tableau);
//! ```

use crate::error::{CircError, CircResult};
use crate::execute::{apply_gate_noisy, apply_gate_tableau};
use crate::gate::Gate;
use crate::QuantumCircuit;
use qutes_sim::tableau::{Tableau, TABLEAU_MAX_QUBITS};
use qutes_sim::{NoiseModel, StateVector, MAX_QUBITS};
use qutes_supervisor::Interrupt;
use rand::rngs::StdRng;
use std::collections::HashMap;
use std::fmt;

/// User-facing backend selection: what the caller *asked for*.
/// [`resolve`] turns it into a concrete [`BackendKind`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackendChoice {
    /// Pick automatically: tableau when sound (Clifford-only, noise-free,
    /// within the tableau qubit cap), dense statevector otherwise.
    #[default]
    Auto,
    /// Force the dense statevector engine.
    Statevector,
    /// Force the stabilizer tableau engine. Fails with
    /// [`CircError::BackendUnsupported`] on non-Clifford circuits or
    /// noise models rather than computing a wrong answer.
    Tableau,
}

impl BackendChoice {
    /// Parses a CLI-style name (`auto` / `statevector` / `tableau`).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "auto" => Some(BackendChoice::Auto),
            "statevector" | "sv" => Some(BackendChoice::Statevector),
            "tableau" | "stabilizer" => Some(BackendChoice::Tableau),
            _ => None,
        }
    }

    /// Canonical lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            BackendChoice::Auto => "auto",
            BackendChoice::Statevector => "statevector",
            BackendChoice::Tableau => "tableau",
        }
    }
}

impl fmt::Display for BackendChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A concrete engine, after dispatch has resolved [`BackendChoice`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendKind {
    /// Dense statevector engine.
    Statevector,
    /// Stabilizer tableau engine.
    Tableau,
}

impl BackendKind {
    /// Canonical lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Statevector => "statevector",
            BackendKind::Tableau => "tableau",
        }
    }

    /// The obs counter bumped once per run executed on this backend.
    pub fn counter_name(self) -> &'static str {
        match self {
            BackendKind::Statevector => "backend.statevector",
            BackendKind::Tableau => "backend.tableau",
        }
    }

    /// Hard qubit ceiling of this engine.
    pub fn max_qubits(self) -> usize {
        match self {
            BackendKind::Statevector => MAX_QUBITS,
            BackendKind::Tableau => TABLEAU_MAX_QUBITS,
        }
    }

    /// Bytes the engine's state representation needs for `num_qubits`
    /// qubits: `16·2ⁿ` dense amplitudes vs the `O(n²)` tableau bits.
    pub fn required_bytes(self, num_qubits: usize) -> u128 {
        match self {
            BackendKind::Statevector => {
                (16u128).checked_shl(num_qubits as u32).unwrap_or(u128::MAX)
            }
            BackendKind::Tableau => Tableau::required_bytes(num_qubits) as u128,
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// True when every instruction of `circuit` is expressible in the
/// stabilizer formalism (see [`Gate::is_clifford`]).
pub fn circuit_is_clifford(circuit: &QuantumCircuit) -> bool {
    circuit.ops().iter().all(Gate::is_clifford)
}

/// Resolves a [`BackendChoice`] against a concrete circuit and noise
/// setting.
///
/// Soundness rules:
/// * `Statevector` is always legal (the universal engine).
/// * `Tableau` requires a Clifford-only circuit, no (effective) noise,
///   and at most [`TABLEAU_MAX_QUBITS`] qubits; violations are typed
///   [`CircError::BackendUnsupported`] (or `TooManyQubits`), never a
///   silent wrong answer.
/// * `Auto` picks the tableau exactly when those conditions hold, and
///   otherwise falls back to the statevector — so auto-dispatch can
///   never select an unsound engine.
pub fn resolve(
    choice: BackendChoice,
    circuit: &QuantumCircuit,
    noisy: bool,
) -> CircResult<BackendKind> {
    match choice {
        BackendChoice::Statevector => Ok(BackendKind::Statevector),
        BackendChoice::Tableau => {
            if noisy {
                return Err(CircError::BackendUnsupported {
                    backend: "tableau",
                    what: "noise models (stabilizer states cannot represent \
                           arbitrary faulty trajectories)"
                        .to_string(),
                });
            }
            if let Some(g) = circuit.ops().iter().find(|g| !g.is_clifford()) {
                return Err(CircError::BackendUnsupported {
                    backend: "tableau",
                    what: format!("non-Clifford gate '{}'", g.name()),
                });
            }
            if circuit.num_qubits() > TABLEAU_MAX_QUBITS {
                return Err(CircError::Sim(qutes_sim::SimError::TooManyQubits(
                    circuit.num_qubits(),
                )));
            }
            Ok(BackendKind::Tableau)
        }
        BackendChoice::Auto => {
            if !noisy && circuit.num_qubits() <= TABLEAU_MAX_QUBITS && circuit_is_clifford(circuit)
            {
                Ok(BackendKind::Tableau)
            } else {
                Ok(BackendKind::Statevector)
            }
        }
    }
}

/// A live quantum-state engine driven gate-by-gate.
///
/// This is the seam the core runtime's `QuantumCircuitHandler` builds
/// on: the interpreter allocates registers, applies gates, measures, and
/// samples against this trait without knowing the representation. Both
/// implementations route through the exact same code paths as whole-
/// circuit execution ([`apply_gate_noisy`] / [`apply_gate_tableau`]), so
/// per-gate interpretation and shot replay stay behaviourally identical
/// — including RNG-stream order on the statevector engine.
pub trait Backend {
    /// Which engine this is.
    fn kind(&self) -> BackendKind;

    /// Qubits currently tracked.
    fn num_qubits(&self) -> usize;

    /// Appends `extra` fresh `|0⟩` qubits at the top indices.
    fn grow(&mut self, extra: usize) -> CircResult<()>;

    /// Applies one instruction, updating classical bits on measurement.
    /// `noise` is a per-gate trajectory fault model; the tableau engine
    /// rejects it (auto-dispatch never routes noisy runs here).
    fn apply(
        &mut self,
        gate: &Gate,
        clbits: &mut [bool],
        rng: &mut StdRng,
        noise: Option<&NoiseModel>,
    ) -> CircResult<()>;

    /// Probability of measuring `|1⟩` on `qubit` (exact on both engines;
    /// `&mut` because the tableau uses scratch storage).
    fn probability_one(&mut self, qubit: usize) -> CircResult<f64>;

    /// Draws `shots` joint samples of `qubits` without collapsing the
    /// state. Bit `k` of each key is the outcome of `qubits[k]`.
    fn sample(
        &mut self,
        qubits: &[usize],
        shots: usize,
        rng: &mut StdRng,
    ) -> CircResult<HashMap<usize, usize>>;

    /// Installs the cooperative-cancellation handle.
    fn set_interrupt(&mut self, intr: Interrupt);

    /// The dense statevector, when this engine has one (test inspection
    /// and simulator-level oracles; `None` on the tableau).
    fn dense_state(&self) -> Option<&StateVector>;

    /// Mutable dense statevector, when this engine has one.
    fn dense_state_mut(&mut self) -> Option<&mut StateVector>;
}

/// The dense statevector engine as a [`Backend`].
pub struct StatevectorBackend {
    state: StateVector,
}

impl StatevectorBackend {
    /// An empty (0-qubit) dense state.
    pub fn new() -> CircResult<Self> {
        Ok(StatevectorBackend {
            state: StateVector::new(0)?,
        })
    }

    /// The engine holding an existing dense state.
    pub fn from_state(state: StateVector) -> Self {
        StatevectorBackend { state }
    }
}

impl Backend for StatevectorBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Statevector
    }

    fn num_qubits(&self) -> usize {
        self.state.num_qubits()
    }

    fn grow(&mut self, extra: usize) -> CircResult<()> {
        if extra > 0 {
            let fresh = StateVector::new(extra)?;
            self.state = self.state.tensor(&fresh)?;
        }
        Ok(())
    }

    fn apply(
        &mut self,
        gate: &Gate,
        clbits: &mut [bool],
        rng: &mut StdRng,
        noise: Option<&NoiseModel>,
    ) -> CircResult<()> {
        apply_gate_noisy(&mut self.state, clbits, gate, rng, noise)
    }

    fn probability_one(&mut self, qubit: usize) -> CircResult<f64> {
        Ok(self.state.probability_one(qubit)?)
    }

    fn sample(
        &mut self,
        qubits: &[usize],
        shots: usize,
        rng: &mut StdRng,
    ) -> CircResult<HashMap<usize, usize>> {
        Ok(qutes_sim::measure::sample_counts(
            &self.state,
            qubits,
            shots,
            rng,
        )?)
    }

    fn set_interrupt(&mut self, intr: Interrupt) {
        self.state.set_interrupt(intr);
    }

    fn dense_state(&self) -> Option<&StateVector> {
        Some(&self.state)
    }

    fn dense_state_mut(&mut self) -> Option<&mut StateVector> {
        Some(&mut self.state)
    }
}

/// The stabilizer tableau engine as a [`Backend`].
pub struct TableauBackend {
    tab: Tableau,
}

impl TableauBackend {
    /// An empty (0-qubit) tableau.
    pub fn new() -> CircResult<Self> {
        Ok(TableauBackend {
            tab: Tableau::new(0)?,
        })
    }
}

impl Backend for TableauBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Tableau
    }

    fn num_qubits(&self) -> usize {
        self.tab.num_qubits()
    }

    fn grow(&mut self, extra: usize) -> CircResult<()> {
        Ok(self.tab.grow(extra)?)
    }

    fn apply(
        &mut self,
        gate: &Gate,
        clbits: &mut [bool],
        rng: &mut StdRng,
        noise: Option<&NoiseModel>,
    ) -> CircResult<()> {
        if noise.is_some_and(|nm| !nm.is_noiseless()) {
            return Err(CircError::BackendUnsupported {
                backend: "tableau",
                what: "noise models (stabilizer states cannot represent \
                       arbitrary faulty trajectories)"
                    .to_string(),
            });
        }
        apply_gate_tableau(&mut self.tab, clbits, gate, rng)
    }

    fn probability_one(&mut self, qubit: usize) -> CircResult<f64> {
        Ok(self.tab.probability_one(qubit)?)
    }

    fn sample(
        &mut self,
        qubits: &[usize],
        shots: usize,
        rng: &mut StdRng,
    ) -> CircResult<HashMap<usize, usize>> {
        Ok(self.tab.sample(qubits, shots, rng)?)
    }

    fn set_interrupt(&mut self, intr: Interrupt) {
        self.tab.set_interrupt(intr);
    }

    fn dense_state(&self) -> Option<&StateVector> {
        None
    }

    fn dense_state_mut(&mut self) -> Option<&mut StateVector> {
        None
    }
}

/// Instantiates an empty live engine of the given kind.
pub fn instantiate(kind: BackendKind) -> CircResult<Box<dyn Backend>> {
    Ok(match kind {
        BackendKind::Statevector => Box::new(StatevectorBackend::new()?),
        BackendKind::Tableau => Box::new(TableauBackend::new()?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn bell() -> QuantumCircuit {
        let mut c = QuantumCircuit::with_qubits_and_clbits(2, 2);
        c.h(0).unwrap().cx(0, 1).unwrap();
        c.measure(0, 0).unwrap().measure(1, 1).unwrap();
        c
    }

    fn non_clifford() -> QuantumCircuit {
        let mut c = QuantumCircuit::with_qubits(1);
        c.t(0).unwrap();
        c
    }

    #[test]
    fn auto_routes_clifford_to_tableau() {
        assert_eq!(
            resolve(BackendChoice::Auto, &bell(), false).unwrap(),
            BackendKind::Tableau
        );
    }

    #[test]
    fn auto_routes_non_clifford_and_noise_to_statevector() {
        assert_eq!(
            resolve(BackendChoice::Auto, &non_clifford(), false).unwrap(),
            BackendKind::Statevector
        );
        assert_eq!(
            resolve(BackendChoice::Auto, &bell(), true).unwrap(),
            BackendKind::Statevector
        );
    }

    #[test]
    fn forced_tableau_rejects_non_clifford_and_noise() {
        let err = resolve(BackendChoice::Tableau, &non_clifford(), false).unwrap_err();
        assert!(err.to_string().contains("non-Clifford gate 't'"), "{err}");
        let err = resolve(BackendChoice::Tableau, &bell(), true).unwrap_err();
        assert!(err.to_string().contains("noise"), "{err}");
    }

    #[test]
    fn choice_parses_cli_names() {
        assert_eq!(BackendChoice::from_name("auto"), Some(BackendChoice::Auto));
        assert_eq!(
            BackendChoice::from_name("tableau"),
            Some(BackendChoice::Tableau)
        );
        assert_eq!(
            BackendChoice::from_name("statevector"),
            Some(BackendChoice::Statevector)
        );
        assert_eq!(BackendChoice::from_name("qvm"), None);
    }

    #[test]
    fn required_bytes_crossover() {
        // At 28 qubits the dense state is ~4 GiB; the tableau is ~450 KB.
        assert!(
            BackendKind::Statevector.required_bytes(28)
                > 1000 * BackendKind::Tableau.required_bytes(28)
        );
    }

    #[test]
    fn live_backends_agree_on_clifford_program() {
        let mut rng_a = rand::rngs::StdRng::seed_from_u64(3);
        let mut rng_b = rand::rngs::StdRng::seed_from_u64(3);
        let mut sv = StatevectorBackend::new().unwrap();
        let mut tb = TableauBackend::new().unwrap();
        let mut cl_a = vec![false; 2];
        let mut cl_b = vec![false; 2];
        for b in [&mut sv as &mut dyn Backend, &mut tb as &mut dyn Backend] {
            b.grow(2).unwrap();
        }
        for g in [
            Gate::H(0),
            Gate::CX {
                control: 0,
                target: 1,
            },
        ] {
            sv.apply(&g, &mut cl_a, &mut rng_a, None).unwrap();
            tb.apply(&g, &mut cl_b, &mut rng_b, None).unwrap();
        }
        for q in 0..2 {
            let a = sv.probability_one(q).unwrap();
            let b = tb.probability_one(q).unwrap();
            assert!((a - b).abs() < 1e-9, "qubit {q}: {a} vs {b}");
        }
        let counts = tb.sample(&[0, 1], 400, &mut rng_b).unwrap();
        assert!(counts.keys().all(|&k| k == 0 || k == 3));
    }

    #[test]
    fn tableau_backend_rejects_non_clifford_gate() {
        let mut tb = TableauBackend::new().unwrap();
        tb.grow(1).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let err = tb.apply(&Gate::T(0), &mut [], &mut rng, None).unwrap_err();
        assert!(matches!(err, CircError::BackendUnsupported { .. }), "{err}");
    }
}
