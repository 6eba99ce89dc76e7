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
//! Both implement [`Engine`] directly: the one seam every execution mode
//! (the live interpreter, batched and grouped replay) and the
//! verifier's stabilizer domain go through. [`Coin`] pins how a
//! measurement draws from the RNG stream on each engine.
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
use crate::gate::Gate;
use crate::QuantumCircuit;
use qutes_sim::tableau::{Tableau, TABLEAU_MAX_QUBITS};
use qutes_sim::{gates, Channel, Fault, Site, StateVector, MAX_QUBITS};
use qutes_supervisor::Interrupt;
use rand::Rng;
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
                return Err(tableau_noise_unsupported());
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

/// Stabilizer states cannot represent faulty trajectories, so the
/// tableau refuses every noise model with this typed error.
pub(crate) fn tableau_noise_unsupported() -> CircError {
    CircError::BackendUnsupported {
        backend: "tableau",
        what: "noise models (stabilizer states cannot represent \
               arbitrary faulty trajectories)"
            .to_string(),
    }
}

/// How a measure or reset draws its outcome from a shot's RNG stream:
/// exactly what the engine's own measurement primitive draws, so every
/// caller of [`Engine::coin`] stays on the same stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Coin {
    /// Statevector: one `f64` drawn against `P(1)`, as
    /// [`qutes_sim::measure::measure_qubit`] draws it.
    Threshold(f64),
    /// Tableau, random outcome: [`Tableau::measure`]'s fair coin.
    Fair,
    /// Tableau, determined outcome: no draw, and the state already holds
    /// it, so no collapse either.
    Fixed(bool),
}

impl Coin {
    /// Draws the outcome from `rng`.
    pub fn draw<R: Rng + ?Sized>(self, rng: &mut R) -> bool {
        match self {
            Coin::Threshold(p1) => rng.random::<f64>() < p1,
            Coin::Fair => rng.random_bool(0.5),
            Coin::Fixed(outcome) => outcome,
        }
    }
}

/// A quantum-state engine: the one seam between the execution layer and
/// the two state representations, implemented directly by
/// [`StateVector`] and [`Tableau`].
///
/// Engines know gates and qubits, not circuits: the instruction stepper
/// in [`mod@crate::execute`] charges budgets, counts gates, reads
/// classical bits and resolves conditionals once for both, and drives
/// measurements through [`Engine::coin`] then [`Engine::collapse`]. The
/// live interpreter, batched and grouped replay all run through that
/// stepper.
pub trait Engine: Clone {
    /// Which engine this is.
    const KIND: BackendKind;

    /// The `|0…0⟩` state on `num_qubits` qubits, observing `intr`;
    /// dense kernels may thread only when `kernel_parallel` is set.
    fn fresh(num_qubits: usize, intr: &Interrupt, kernel_parallel: bool) -> CircResult<Self>;

    /// Appends `extra` fresh `|0⟩` qubits at the top indices (the
    /// statevector grows its amplitude vector in place).
    fn grow(&mut self, extra: usize) -> CircResult<()>;

    /// Applies a unitary gate, a barrier or a global phase. Measure,
    /// reset and conditionals are a typed [`CircError::NonUnitary`]; the
    /// tableau refuses non-Clifford gates with
    /// [`CircError::BackendUnsupported`].
    fn apply_unitary(&mut self, g: &Gate) -> CircResult<()>;

    /// How a measurement of `qubit` draws its outcome in this state.
    /// The state is unchanged.
    fn coin(&mut self, qubit: usize) -> CircResult<Coin>;

    /// Collapses `qubit` onto `outcome`, which the random `coin` this
    /// state gave for it drew. The statevector renormalises with the
    /// `P(1)` a [`Coin::Threshold`] holds instead of summing it again.
    fn collapse(&mut self, qubit: usize, coin: Coin, outcome: bool) -> CircResult<()>;

    /// Flips a collapsed `qubit` (a reset that read 1 returns to `|0⟩`).
    fn flip(&mut self, qubit: usize) -> CircResult<()>;

    /// Probability of measuring `|1⟩` on `qubit` (exact on both engines;
    /// `&mut` because the tableau uses scratch storage and the
    /// statevector settles its X frame).
    fn probability_one(&mut self, qubit: usize) -> CircResult<f64>;

    /// Draws `shots` joint samples of `qubits` without collapsing the
    /// state. Bit `k` of each key is the outcome of `qubits[k]`.
    fn sample<R: Rng + ?Sized>(
        &self,
        qubits: &[usize],
        shots: usize,
        rng: &mut R,
    ) -> CircResult<HashMap<usize, usize>>;

    /// Installs the cooperative-cancellation handle.
    fn set_interrupt(&mut self, intr: Interrupt);

    /// Arms a gate-level noise channel on `qubit` of this state
    /// ([`Channel::arm`]), for a group of shots to draw at. The tableau
    /// refuses it, and the method below, with a typed
    /// [`CircError::BackendUnsupported`].
    fn arm(&mut self, channel: Channel, qubit: usize) -> CircResult<Site>;

    /// Applies the fault a group of shots drew at `site`.
    fn apply_fault(&mut self, site: &Site, fault: Fault) -> CircResult<()>;
}

impl Engine for StateVector {
    const KIND: BackendKind = BackendKind::Statevector;

    fn fresh(num_qubits: usize, intr: &Interrupt, kernel_parallel: bool) -> CircResult<Self> {
        let mut state = StateVector::new(num_qubits)?;
        state.set_parallel(kernel_parallel);
        StateVector::set_interrupt(&mut state, intr.clone());
        Ok(state)
    }

    fn grow(&mut self, extra: usize) -> CircResult<()> {
        Ok(StateVector::grow(self, extra)?)
    }

    fn apply_unitary(&mut self, g: &Gate) -> CircResult<()> {
        use Gate::*;
        match g {
            H(q) => self.apply_single(&gates::h(), *q)?,
            X(q) => self.apply_single(&gates::x(), *q)?,
            Y(q) => self.apply_single(&gates::y(), *q)?,
            Z(q) => self.apply_single(&gates::z(), *q)?,
            S(q) => self.apply_single(&gates::s(), *q)?,
            Sdg(q) => self.apply_single(&gates::sdg(), *q)?,
            T(q) => self.apply_single(&gates::t(), *q)?,
            Tdg(q) => self.apply_single(&gates::tdg(), *q)?,
            SX(q) => self.apply_single(&gates::sx(), *q)?,
            SXdg(q) => self.apply_single(&gates::sx().adjoint(), *q)?,
            Phase { target, lambda } => self.apply_single(&gates::phase(*lambda), *target)?,
            RX { target, theta } => self.apply_single(&gates::rx(*theta), *target)?,
            RY { target, theta } => self.apply_single(&gates::ry(*theta), *target)?,
            RZ { target, theta } => self.apply_single(&gates::rz(*theta), *target)?,
            U {
                target,
                theta,
                phi,
                lambda,
            } => self.apply_single(&gates::u(*theta, *phi, *lambda), *target)?,
            CX { control, target } => self.apply_controlled(&gates::x(), &[*control], *target)?,
            CY { control, target } => self.apply_controlled(&gates::y(), &[*control], *target)?,
            CZ { control, target } => self.apply_controlled(&gates::z(), &[*control], *target)?,
            CPhase {
                control,
                target,
                lambda,
            } => self.apply_controlled(&gates::phase(*lambda), &[*control], *target)?,
            CCX { c0, c1, target } => self.apply_controlled(&gates::x(), &[*c0, *c1], *target)?,
            MCX { controls, target } => self.apply_controlled(&gates::x(), controls, *target)?,
            MCPhase {
                controls,
                target,
                lambda,
            } => self.apply_controlled(&gates::phase(*lambda), controls, *target)?,
            Swap { a, b } => self.apply_swap(*a, *b)?,
            CSwap { control, a, b } => self.apply_controlled_swap(&[*control], *a, *b)?,
            Unitary { target, matrix } => {
                qutes_obs::counter_add("kernel.fused_unitary", 1);
                self.apply_single(matrix, *target)?;
            }
            Unitary2 { q0, q1, matrix } => {
                qutes_obs::counter_add("kernel.fused_unitary", 1);
                self.apply_two_fused(matrix, *q0, *q1)?;
            }
            Unitary3 { q0, q1, q2, matrix } => {
                qutes_obs::counter_add("kernel.fused_unitary", 1);
                self.apply_three(matrix, *q0, *q1, *q2)?;
            }
            GlobalPhase(t) => self.apply_global_phase(*t),
            Barrier(_) => {}
            Measure { .. } | Reset(_) | Conditional { .. } => {
                return Err(CircError::NonUnitary(g.name()));
            }
        }
        Ok(())
    }

    fn coin(&mut self, qubit: usize) -> CircResult<Coin> {
        Ok(Coin::Threshold(StateVector::probability_one(self, qubit)?))
    }

    fn collapse(&mut self, qubit: usize, coin: Coin, outcome: bool) -> CircResult<()> {
        match coin {
            Coin::Threshold(p1) => self.collapse_given(qubit, outcome, p1)?,
            Coin::Fair | Coin::Fixed(_) => self.collapse_qubit(qubit, outcome)?,
        };
        Ok(())
    }

    fn flip(&mut self, qubit: usize) -> CircResult<()> {
        Ok(self.flip_if_one(qubit)?)
    }

    fn probability_one(&mut self, qubit: usize) -> CircResult<f64> {
        Ok(StateVector::probability_one(self, qubit)?)
    }

    fn sample<R: Rng + ?Sized>(
        &self,
        qubits: &[usize],
        shots: usize,
        rng: &mut R,
    ) -> CircResult<HashMap<usize, usize>> {
        Ok(qutes_sim::measure::sample_counts(self, qubits, shots, rng)?)
    }

    fn set_interrupt(&mut self, intr: Interrupt) {
        StateVector::set_interrupt(self, intr);
    }

    fn arm(&mut self, channel: Channel, qubit: usize) -> CircResult<Site> {
        Ok(channel.arm(self, qubit)?)
    }

    fn apply_fault(&mut self, site: &Site, fault: Fault) -> CircResult<()> {
        Ok(site.apply(fault, self)?)
    }
}

impl Engine for Tableau {
    const KIND: BackendKind = BackendKind::Tableau;

    fn fresh(num_qubits: usize, intr: &Interrupt, _kernel_parallel: bool) -> CircResult<Self> {
        let mut tab = Tableau::new(num_qubits)?;
        Tableau::set_interrupt(&mut tab, intr.clone());
        Ok(tab)
    }

    fn grow(&mut self, extra: usize) -> CircResult<()> {
        Ok(Tableau::grow(self, extra)?)
    }

    fn apply_unitary(&mut self, g: &Gate) -> CircResult<()> {
        match g {
            Gate::H(q) => self.h(*q)?,
            Gate::X(q) => self.x(*q)?,
            Gate::Y(q) => self.y(*q)?,
            Gate::Z(q) => self.z(*q)?,
            Gate::S(q) => self.s(*q)?,
            Gate::Sdg(q) => self.sdg(*q)?,
            Gate::CX { control, target } => self.cx(*control, *target)?,
            Gate::CY { control, target } => self.cy(*control, *target)?,
            Gate::CZ { control, target } => self.cz(*control, *target)?,
            Gate::Swap { a, b } => self.swap(*a, *b)?,
            // Stabilizer states are defined up to global phase, so these
            // are exact no-ops rather than approximations.
            Gate::Barrier(_) | Gate::GlobalPhase(_) => {}
            Gate::Measure { .. } | Gate::Reset(_) | Gate::Conditional { .. } => {
                return Err(CircError::NonUnitary(g.name()));
            }
            other => {
                return Err(CircError::BackendUnsupported {
                    backend: "tableau",
                    what: format!("non-Clifford gate '{}'", other.name()),
                });
            }
        }
        Ok(())
    }

    fn coin(&mut self, qubit: usize) -> CircResult<Coin> {
        Ok(match self.determined_outcome(qubit)? {
            Some(outcome) => Coin::Fixed(outcome),
            None => Coin::Fair,
        })
    }

    fn collapse(&mut self, qubit: usize, _coin: Coin, outcome: bool) -> CircResult<()> {
        self.measure_forced(qubit, outcome)?;
        Ok(())
    }

    fn flip(&mut self, qubit: usize) -> CircResult<()> {
        Ok(self.x(qubit)?)
    }

    fn probability_one(&mut self, qubit: usize) -> CircResult<f64> {
        Ok(Tableau::probability_one(self, qubit)?)
    }

    fn sample<R: Rng + ?Sized>(
        &self,
        qubits: &[usize],
        shots: usize,
        rng: &mut R,
    ) -> CircResult<HashMap<usize, usize>> {
        Ok(Tableau::sample(self, qubits, shots, rng)?)
    }

    fn set_interrupt(&mut self, intr: Interrupt) {
        Tableau::set_interrupt(self, intr);
    }

    fn arm(&mut self, _channel: Channel, _qubit: usize) -> CircResult<Site> {
        Err(tableau_noise_unsupported())
    }

    fn apply_fault(&mut self, _site: &Site, _fault: Fault) -> CircResult<()> {
        Err(tableau_noise_unsupported())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execute::apply_gate;
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
        let intr = Interrupt::new();
        let mut sv = StateVector::fresh(0, &intr, true).unwrap();
        let mut tb = Tableau::fresh(0, &intr, true).unwrap();
        let mut cl_a = vec![false; 2];
        let mut cl_b = vec![false; 2];
        Engine::grow(&mut sv, 2).unwrap();
        Engine::grow(&mut tb, 2).unwrap();
        for g in [
            Gate::H(0),
            Gate::CX {
                control: 0,
                target: 1,
            },
        ] {
            apply_gate(&mut sv, &mut cl_a, &g, &mut rng_a).unwrap();
            apply_gate(&mut tb, &mut cl_b, &g, &mut rng_b).unwrap();
        }
        for q in 0..2 {
            let a = Engine::probability_one(&mut sv, q).unwrap();
            let b = Engine::probability_one(&mut tb, q).unwrap();
            assert!((a - b).abs() < 1e-9, "qubit {q}: {a} vs {b}");
        }
        let counts = Engine::sample(&tb, &[0, 1], 400, &mut rng_b).unwrap();
        assert!(counts.keys().all(|&k| k == 0 || k == 3));
    }

    #[test]
    fn statevector_collapse_with_the_coin_equals_collapse_qubit() {
        let mut sv = StateVector::fresh(3, &Interrupt::new(), false).unwrap();
        for g in [
            Gate::H(0),
            Gate::T(0),
            Gate::RY {
                target: 1,
                theta: 0.7,
            },
        ] {
            sv.apply_unitary(&g).unwrap();
        }
        sv.apply_controlled(&gates::h(), &[0], 2).unwrap();
        for q in 0..3 {
            for outcome in [false, true] {
                let coin = sv.coin(q).unwrap();
                let mut with_coin = sv.clone();
                let mut summed = sv.clone();
                Engine::collapse(&mut with_coin, q, coin, outcome).unwrap();
                summed.collapse_qubit(q, outcome).unwrap();
                assert_eq!(
                    with_coin.amplitudes(),
                    summed.amplitudes(),
                    "q{q}={outcome}"
                );
            }
        }
    }

    #[test]
    fn tableau_backend_rejects_non_clifford_gate() {
        let mut tb = Tableau::fresh(1, &Interrupt::new(), true).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let err = apply_gate(&mut tb, &mut [], &Gate::T(0), &mut rng).unwrap_err();
        assert!(matches!(err, CircError::BackendUnsupported { .. }), "{err}");
    }
}
