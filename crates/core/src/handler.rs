//! `QuantumCircuitHandler` — the paper's central runtime component (§3):
//! "the QuantumCircuitHandler class plays a pivotal role by logging all
//! quantum operations specified by the user … generating a QuantumCircuit
//! instance that incorporates all necessary QuantumRegisters associated
//! with declared variables."
//!
//! This implementation keeps **two** synchronized artefacts:
//! * the accumulated [`QuantumCircuit`] (for QASM export, metrics, and
//!   inspection), and
//! * a **live engine** (a [`StateVector`] or a [`Tableau`], both
//!   [`Engine`]s), so measurements have exact sequential semantics
//!   (measure, collapse, keep computing) instead of re-running the whole
//!   circuit per interaction. Each instruction goes through
//!   [`apply_gate_noisy`], the same stepper shot replay uses.
//!
//! Under [`BackendChoice::Auto`] a noise-free run starts on the
//! stabilizer tableau (thousands of qubits, `O(n)` per gate) and is
//! *promoted* to the dense statevector at its first non-Clifford gate
//! ([`Gate::is_clifford`]): the recorded circuit is replayed into a
//! fresh statevector, each measurement forced to the outcome the
//! tableau drew (see `docs/backends.md`).

use crate::error::{QutesError, QutesResult};
use qutes_qcirc::backend::{resolve, BackendChoice, BackendKind, Engine};
use qutes_qcirc::execute::apply_gate_noisy;
use qutes_qcirc::{CircError, Gate, QuantumCircuit};
use qutes_sim::tableau::Tableau;
use qutes_sim::{NoiseModel, StateVector};
use qutes_supervisor::Interrupt;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The live state, on whichever engine the run is on.
enum Live {
    Statevector(StateVector),
    Tableau(Tableau),
}

/// Evaluates `$body` with `$e` bound to the live engine.
macro_rules! on_engine {
    ($live:expr, $e:ident => $body:expr) => {
        match $live {
            Live::Statevector($e) => $body,
            Live::Tableau($e) => $body,
        }
    };
}

/// The quantum side of the Qutes runtime.
pub struct QuantumCircuitHandler {
    circuit: QuantumCircuit,
    live: Live,
    clbits: Vec<bool>,
    rng: StdRng,
    measurements: usize,
    free_ancillas: Vec<usize>,
    noise: Option<NoiseModel>,
    memory_budget_bytes: Option<u64>,
    /// Promote the tableau to the statevector at the first non-Clifford
    /// gate ([`BackendChoice::Auto`]).
    promotes: bool,
    interrupt: Option<Interrupt>,
    /// Anonymous registers named so far: [`Emit::fresh_name`] appends
    /// this counter, which runs over the whole program run.
    ///
    /// [`Emit::fresh_name`]: crate::lower::Emit::fresh_name
    pub(crate) names: usize,
}

impl QuantumCircuitHandler {
    /// A handler with no qubits yet, seeded for reproducibility.
    pub fn new(seed: u64) -> Self {
        Self::with_config(seed, None, None)
    }

    /// A handler on the dense statevector backend, with an optional
    /// fault model (applied to every gate and measurement as they hit
    /// the live state) and an optional memory budget (enforced by
    /// [`Self::check_capacity`] before allocations grow the state). An
    /// all-zero noise model is normalised to `None` so it cannot
    /// desynchronise the RNG stream.
    pub fn with_config(
        seed: u64,
        noise: Option<NoiseModel>,
        memory_budget_bytes: Option<u64>,
    ) -> Self {
        // A 0-qubit statevector cannot fail to construct.
        #[allow(clippy::expect_used)]
        Self::with_backend(seed, noise, memory_budget_bytes, BackendChoice::Statevector)
            .expect("0-qubit statevector backend")
    }

    /// Like [`Self::with_config`], but on the engine `choice` asks for.
    /// [`BackendChoice::Auto`] starts on the tableau and promotes at the
    /// first non-Clifford gate, or starts on the statevector when an
    /// effective noise model is set. A forced tableau rejects
    /// (effective) noise models up front with a typed
    /// [`CircError::BackendUnsupported`] — stabilizer states cannot
    /// represent faulty trajectories.
    pub fn with_backend(
        seed: u64,
        noise: Option<NoiseModel>,
        memory_budget_bytes: Option<u64>,
        choice: BackendChoice,
    ) -> QutesResult<Self> {
        let noise = noise.filter(|nm| !nm.is_noiseless());
        // The engine an empty circuit resolves to is the one the run
        // starts on, by the same rules as whole-circuit dispatch.
        let live = match resolve(choice, &QuantumCircuit::new(), noise.is_some())? {
            BackendKind::Statevector => Live::Statevector(StateVector::new(0)?),
            BackendKind::Tableau => Live::Tableau(Tableau::new(0)?),
        };
        Ok(QuantumCircuitHandler {
            circuit: QuantumCircuit::new(),
            live,
            clbits: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            measurements: 0,
            free_ancillas: Vec::new(),
            noise,
            memory_budget_bytes,
            promotes: choice == BackendChoice::Auto,
            interrupt: None,
            names: 0,
        })
    }

    /// The active fault model, if any.
    pub fn noise(&self) -> Option<&NoiseModel> {
        self.noise.as_ref()
    }

    /// Arms the live backend with the supervisor's interrupt handle, so
    /// checkpoints inside gate application and sampling observe the
    /// run's deadline and cancellation state.
    pub fn set_interrupt(&mut self, intr: Interrupt) {
        on_engine!(&mut self.live, e => Engine::set_interrupt(e, intr.clone()));
        self.interrupt = Some(intr);
    }

    /// Acquires `n` clean (`|0>`) work qubits, reusing previously released
    /// ancillas before growing the circuit. The returned indices are not
    /// contiguous in general.
    pub fn acquire_ancillas(&mut self, n: usize, name: &str) -> QutesResult<Vec<usize>> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            match self.free_ancillas.pop() {
                Some(q) => out.push(q),
                None => break,
            }
        }
        let missing = n - out.len();
        if missing > 0 {
            self.check_capacity(missing, name)?;
            out.extend(self.allocate(name, missing)?);
        }
        Ok(out)
    }

    /// Returns work qubits to the pool. The caller must have uncomputed
    /// them back to `|0>`; qubits that are measurably dirty are *not*
    /// pooled (silently leaked — safe, just unrecoverable capacity).
    /// The probes are timed as `stage.ancilla_probe`.
    pub fn release_ancillas(&mut self, qubits: &[usize]) {
        let t0 = qutes_obs::maybe_now();
        for &q in qubits {
            let clean = on_engine!(&mut self.live, e => Engine::probability_one(e, q))
                .map(|p| p < 1e-9)
                .unwrap_or(false);
            if clean {
                self.free_ancillas.push(q);
            }
        }
        if let Some(t0) = t0 {
            qutes_obs::record_duration("stage.ancilla_probe", t0.elapsed());
        }
    }

    /// Number of pooled (clean, reusable) ancilla qubits.
    pub fn pooled_ancillas(&self) -> usize {
        self.free_ancillas.len()
    }

    /// Allocates a fresh quantum register (circuit and live state grow
    /// together). Returns the global qubit indices.
    pub fn allocate(&mut self, name: &str, width: usize) -> QutesResult<Vec<usize>> {
        self.check_capacity(width, name)?;
        let reg = self.circuit.add_qreg(name, width);
        on_engine!(&mut self.live, e => Engine::grow(e, width))?;
        Ok(reg.qubits())
    }

    /// Appends a unitary gate to the circuit and applies it to the live
    /// state (with trajectory noise when a fault model is active). Under
    /// [`BackendChoice::Auto`], a non-Clifford gate on the tableau first
    /// promotes the live state to the statevector.
    pub fn apply(&mut self, gate: Gate) -> QutesResult<()> {
        if self.promotes && self.backend_kind() == BackendKind::Tableau && !gate.is_clifford() {
            self.promote()?;
        }
        self.circuit.append(gate.clone())?;
        // Keep the live classical bits in step with the circuit: a gate
        // referencing a creg added since the last measure would otherwise
        // index past the end.
        self.clbits.resize(self.circuit.num_clbits(), false);
        self.step(&gate)
    }

    /// Runs `gate` on the live engine. Inline simulation happens
    /// gate-by-gate during interpretation, so it is aggregated into the
    /// `stage.simulate` timer rather than opening one span per gate.
    fn step(&mut self, gate: &Gate) -> QutesResult<()> {
        let t0 = qutes_obs::maybe_now();
        let (clbits, rng, noise) = (&mut self.clbits, &mut self.rng, self.noise.as_ref());
        on_engine!(&mut self.live, e => apply_gate_noisy(e, clbits, gate, rng, noise))?;
        if let Some(t0) = t0 {
            qutes_obs::record_duration("stage.simulate", t0.elapsed());
        }
        Ok(())
    }

    /// Moves the live state from the tableau to a statevector of the
    /// same width: checks the statevector's capacity (a refusal is the
    /// usual typed [`Self::check_capacity`] error), then replays the
    /// recorded circuit with every measurement forced to the outcome the
    /// tableau drew, so the promoted state is the tableau's state. No
    /// randomness is drawn and no gate is counted twice. The new state
    /// observes the run's interrupt, during the replay and after it.
    fn promote(&mut self) -> QutesResult<()> {
        self.check_capacity_on(BackendKind::Statevector, 0)?;
        let t0 = qutes_obs::maybe_now();
        let mut state = StateVector::new(self.num_qubits())?;
        if let Some(intr) = &self.interrupt {
            state.set_interrupt(intr.clone());
        }
        for g in self.circuit.ops() {
            match g {
                Gate::Measure { qubit, clbit } => {
                    state.collapse_qubit(*qubit, self.clbits[*clbit])?;
                }
                // The interpreter resolves classical control itself, so
                // the live circuit holds only unitaries, measurements
                // and barriers; anything else cannot be replayed.
                Gate::Reset(_) | Gate::Conditional { .. } => {
                    return Err(QutesError::Circuit(CircError::NonUnitary(g.name())));
                }
                _ => state.apply_unitary(g)?,
            }
        }
        self.live = Live::Statevector(state);
        qutes_obs::counter_add("backend.promoted", 1);
        if let Some(t0) = t0 {
            qutes_obs::record_duration("stage.simulate", t0.elapsed());
        }
        Ok(())
    }

    /// Measures `qubits` (low bit first), collapsing the live state and
    /// logging `measure` instructions into fresh classical bits. Returns
    /// the observed value. On the tableau backend registers can exceed 64
    /// qubits; bits past the 64th still collapse and are logged, but only
    /// the low 64 fit in the returned integer — use
    /// [`Self::measure_bits`] for wide registers.
    pub fn measure(&mut self, qubits: &[usize]) -> QutesResult<u64> {
        let bits = self.measure_bits(qubits)?;
        let mut result = 0u64;
        for (k, &b) in bits.iter().enumerate().take(64) {
            if b {
                result |= 1u64 << k;
            }
        }
        Ok(result)
    }

    /// Measures `qubits` (index `k` of the result = outcome of
    /// `qubits[k]`), collapsing the live state and logging `measure`
    /// instructions into fresh classical bits. Unlike [`Self::measure`]
    /// this has no 64-bit width ceiling, so it is the right call for
    /// qustrings on the tableau backend (hundreds of qubits).
    pub fn measure_bits(&mut self, qubits: &[usize]) -> QutesResult<Vec<bool>> {
        let creg = self
            .circuit
            .add_creg(format!("m{}", self.measurements), qubits.len());
        self.measurements += 1;
        self.clbits.resize(self.circuit.num_clbits(), false);
        let mut bits = Vec::with_capacity(qubits.len());
        for (k, &q) in qubits.iter().enumerate() {
            let gate = Gate::Measure {
                qubit: q,
                clbit: creg.bit(k),
            };
            self.circuit.append(gate.clone())?;
            // Readout error (when modelled) is applied inside: the live
            // state collapses to the true outcome, the classical bit may
            // report the flipped one — exactly a readout fault.
            self.step(&gate)?;
            bits.push(self.clbits[creg.bit(k)]);
        }
        Ok(bits)
    }

    /// Non-collapsing sampling of `qubits` over `shots` — used by the
    /// CLI's histogram output. A modelled readout error corrupts each
    /// sampled bit independently per shot.
    pub fn sample(&mut self, qubits: &[usize], shots: usize) -> QutesResult<Vec<(u64, usize)>> {
        let rng = &mut self.rng;
        let counts = on_engine!(&self.live, e => Engine::sample(e, qubits, shots, rng))?;
        let readout = self
            .noise
            .as_ref()
            .map(|nm| nm.readout_error)
            .unwrap_or(0.0);
        let mut agg: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        for (k, c) in counts {
            if readout > 0.0 {
                for _ in 0..c {
                    let mut noisy = k as u64;
                    for bit in 0..qubits.len() {
                        if self.rng.random::<f64>() < readout {
                            noisy ^= 1 << bit;
                        }
                    }
                    *agg.entry(noisy).or_insert(0) += 1;
                }
            } else {
                *agg.entry(k as u64).or_insert(0) += c;
            }
        }
        let mut v: Vec<(u64, usize)> = agg.into_iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        Ok(v)
    }

    /// Appends a barrier over the whole circuit.
    pub fn barrier(&mut self) -> QutesResult<()> {
        self.circuit.append(Gate::Barrier(vec![]))?;
        Ok(())
    }

    /// The accumulated circuit.
    pub fn circuit(&self) -> &QuantumCircuit {
        &self.circuit
    }

    /// The accumulated circuit, taken out of the handler; the live state
    /// is released with it.
    pub fn into_circuit(self) -> QuantumCircuit {
        self.circuit
    }

    /// Which engine holds the live state.
    pub fn backend_kind(&self) -> BackendKind {
        match self.live {
            Live::Statevector(_) => BackendKind::Statevector,
            Live::Tableau(_) => BackendKind::Tableau,
        }
    }

    /// Exact probability of measuring `|1⟩` on `qubit` in the live state
    /// (both engines answer exactly; the tableau only ever yields 0, ½,
    /// or 1).
    pub fn probability_one(&mut self, qubit: usize) -> QutesResult<f64> {
        Ok(on_engine!(&mut self.live, e => Engine::probability_one(e, qubit))?)
    }

    /// The live dense statevector, when the backend has one (`None` on
    /// the tableau). Used by tests and simulator-level oracles;
    /// gate-level code should go through [`Self::apply`].
    pub fn dense_state(&self) -> Option<&StateVector> {
        match &self.live {
            Live::Statevector(state) => Some(state),
            Live::Tableau(_) => None,
        }
    }

    /// The RNG (shared so the whole program run is reproducible from one
    /// seed).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Total qubits allocated so far.
    pub fn num_qubits(&self) -> usize {
        self.circuit.num_qubits()
    }

    /// Total collapsing measurements performed.
    pub fn measurements(&self) -> usize {
        self.measurements
    }

    /// Guard: errors when allocating `extra` more qubits would exceed
    /// the live backend's capacity or the configured memory budget. Runs
    /// **before** any allocation, and the refusal is a typed error
    /// ([`SimError::TooManyQubits`] / [`CircError::ResourceLimit`]) so
    /// the supervisor can classify it as transient — never an OOM abort.
    /// Both limits are backend-aware: the tableau admits thousands of
    /// qubits within budgets that reject a 30-qubit dense state. Every
    /// refusal records which backend was attempted
    /// (`backend.refused.<name>` counter, surfaced in `--stats-json`).
    ///
    /// [`SimError::TooManyQubits`]: qutes_sim::SimError::TooManyQubits
    /// [`CircError::ResourceLimit`]: qutes_qcirc::CircError::ResourceLimit
    pub fn check_capacity(&self, extra: usize, _what: &str) -> QutesResult<()> {
        self.check_capacity_on(self.backend_kind(), extra)
    }

    /// [`Self::check_capacity`] against the limits of engine `kind`.
    fn check_capacity_on(&self, kind: BackendKind, extra: usize) -> QutesResult<()> {
        let total = self.num_qubits() + extra;
        if total > kind.max_qubits() {
            // Typed (not a string `Runtime` error) so the supervisor can
            // classify it as transient and consider a degraded retry.
            self.record_refusal(kind);
            return Err(QutesError::Sim(qutes_sim::SimError::TooManyQubits(total)));
        }
        if let Some(budget) = self.memory_budget_bytes {
            let required = kind.required_bytes(total);
            if required > budget as u128 {
                self.record_refusal(kind);
                return Err(QutesError::Circuit(qutes_qcirc::CircError::ResourceLimit {
                    required_bytes: u64::try_from(required).unwrap_or(u64::MAX),
                    budget_bytes: budget,
                }));
            }
        }
        Ok(())
    }

    /// Bumps the capacity-refusal counters, tagged with the backend that
    /// was attempted.
    fn record_refusal(&self, kind: BackendKind) {
        qutes_obs::counter_add("handler.capacity_refusals", 1);
        qutes_obs::counter_add(
            match kind {
                BackendKind::Statevector => "backend.refused.statevector",
                BackendKind::Tableau => "backend.refused.tableau",
            },
            1,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::Emit;

    #[test]
    fn allocation_grows_circuit_and_state() {
        let mut h = QuantumCircuitHandler::new(1);
        let a = h.allocate("a", 2).unwrap();
        let b = h.allocate("b", 3).unwrap();
        assert_eq!(a, vec![0, 1]);
        assert_eq!(b, vec![2, 3, 4]);
        assert_eq!(h.num_qubits(), 5);
        assert_eq!(h.dense_state().unwrap().num_qubits(), 5);
        // Fresh qubits are |0>.
        for q in 0..5 {
            assert!(h.probability_one(q).unwrap() < 1e-12);
        }
    }

    #[test]
    fn gates_affect_live_state_and_circuit() {
        let mut h = QuantumCircuitHandler::new(1);
        let q = h.allocate("q", 1).unwrap();
        h.apply(Gate::X(q[0])).unwrap();
        assert!((h.probability_one(q[0]).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(h.circuit().len(), 1);
    }

    #[test]
    fn allocation_after_gates_preserves_existing_state() {
        let mut h = QuantumCircuitHandler::new(1);
        let a = h.allocate("a", 1).unwrap();
        h.apply(Gate::X(a[0])).unwrap();
        let b = h.allocate("b", 1).unwrap();
        assert!((h.probability_one(a[0]).unwrap() - 1.0).abs() < 1e-12);
        assert!(h.probability_one(b[0]).unwrap() < 1e-12);
    }

    #[test]
    fn measurement_collapses_and_logs() {
        let mut h = QuantumCircuitHandler::new(7);
        let q = h.allocate("q", 2).unwrap();
        h.apply(Gate::H(q[0])).unwrap();
        h.apply(Gate::CX {
            control: q[0],
            target: q[1],
        })
        .unwrap();
        let v = h.measure(&q).unwrap();
        assert!(v == 0b00 || v == 0b11, "Bell measurement gave {v:02b}");
        // Re-measuring returns the same (collapsed) value.
        let v2 = h.measure(&q).unwrap();
        assert_eq!(v, v2);
        assert_eq!(h.measurements(), 2);
        assert_eq!(h.circuit().num_clbits(), 4);
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let run = |seed| {
            let mut h = QuantumCircuitHandler::new(seed);
            let q = h.allocate("q", 4).unwrap();
            for &x in &q {
                h.apply(Gate::H(x)).unwrap();
            }
            h.measure(&q).unwrap()
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn sample_does_not_collapse() {
        let mut h = QuantumCircuitHandler::new(3);
        let q = h.allocate("q", 1).unwrap();
        h.apply(Gate::H(q[0])).unwrap();
        let hist = h.sample(&q, 500).unwrap();
        let total: usize = hist.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 500);
        assert_eq!(hist.len(), 2, "both outcomes present: {hist:?}");
        // State still in superposition after sampling.
        assert!((h.probability_one(q[0]).unwrap() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn capacity_guard() {
        let h = QuantumCircuitHandler::new(0);
        assert!(h.check_capacity(4, "x").is_ok());
        assert!(h.check_capacity(qutes_sim::MAX_QUBITS + 1, "x").is_err());
    }

    #[test]
    fn ancilla_pool_reuses_clean_qubits() {
        let mut h = QuantumCircuitHandler::new(2);
        let a = h.acquire_ancillas(2, "w").unwrap();
        assert_eq!(h.num_qubits(), 2);
        h.release_ancillas(&a);
        assert_eq!(h.pooled_ancillas(), 2);
        let b = h.acquire_ancillas(3, "w2").unwrap();
        // Two reused + one fresh.
        assert_eq!(h.num_qubits(), 3);
        assert_eq!(b.len(), 3);
        assert_eq!(h.pooled_ancillas(), 0);
    }

    #[test]
    fn dirty_ancillas_are_not_pooled() {
        let mut h = QuantumCircuitHandler::new(2);
        let a = h.acquire_ancillas(1, "w").unwrap();
        h.apply(Gate::X(a[0])).unwrap();
        h.release_ancillas(&a);
        assert_eq!(h.pooled_ancillas(), 0, "a |1> qubit must not be pooled");
        h.apply(Gate::X(a[0])).unwrap();
        h.release_ancillas(&a);
        assert_eq!(h.pooled_ancillas(), 1, "back to |0>: poolable");
    }

    #[test]
    fn fragment_application() {
        let mut h = QuantumCircuitHandler::new(5);
        let q = h.allocate("q", 2).unwrap();
        let mut frag = QuantumCircuit::with_qubits(2);
        frag.h(0).unwrap().cx(0, 1).unwrap();
        h.apply_fragment(&frag).unwrap();
        let m = h.dense_state().unwrap().marginal_probabilities(&q).unwrap();
        assert!((m[0b00] - 0.5).abs() < 1e-9);
        assert!((m[0b11] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn tableau_handler_runs_wide_clifford_programs() {
        let mut h =
            QuantumCircuitHandler::with_backend(9, None, None, BackendChoice::Tableau).unwrap();
        assert_eq!(h.backend_kind(), BackendKind::Tableau);
        assert!(h.dense_state().is_none());
        // 100-qubit GHZ: far beyond the dense engine's MAX_QUBITS.
        let q = h.allocate("ghz", 100).unwrap();
        assert!(h.check_capacity(0, "x").is_ok());
        h.apply(Gate::H(q[0])).unwrap();
        for w in q.windows(2) {
            h.apply(Gate::CX {
                control: w[0],
                target: w[1],
            })
            .unwrap();
        }
        let v = h.measure(&[q[0]]).unwrap();
        // GHZ: every qubit agrees with the first after collapse.
        for &qb in &q {
            let p = h.probability_one(qb).unwrap();
            assert!((p - v as f64).abs() < 1e-12, "qubit {qb}: p1={p}, v={v}");
        }
        // Re-measuring the full register reproduces the collapsed value.
        let v2 = h.measure(&[q[0], q[99]]).unwrap();
        assert_eq!(v2, v | (v << 1));
    }

    #[test]
    fn tableau_handler_rejects_noise_and_non_clifford() {
        let noisy = QuantumCircuitHandler::with_backend(
            0,
            Some(qutes_sim::NoiseModel::depolarizing(0.1)),
            None,
            BackendChoice::Tableau,
        );
        assert!(noisy.is_err());
        let mut h =
            QuantumCircuitHandler::with_backend(0, None, None, BackendChoice::Tableau).unwrap();
        let q = h.allocate("q", 1).unwrap();
        let err = h.apply(Gate::T(q[0])).unwrap_err();
        assert!(err.to_string().contains("tableau"), "{err}");
    }

    #[test]
    fn auto_handler_promotes_at_first_non_clifford_gate() {
        let mut h =
            QuantumCircuitHandler::with_backend(4, None, None, BackendChoice::Auto).unwrap();
        assert_eq!(h.backend_kind(), BackendKind::Tableau);
        let q = h.allocate("q", 2).unwrap();
        h.apply(Gate::H(q[0])).unwrap();
        h.apply(Gate::CX {
            control: q[0],
            target: q[1],
        })
        .unwrap();
        let v = h.measure(&[q[0]]).unwrap();
        h.barrier().unwrap();
        assert_eq!(h.backend_kind(), BackendKind::Tableau);
        h.apply(Gate::T(q[1])).unwrap();
        assert_eq!(h.backend_kind(), BackendKind::Statevector);
        // The replay forced the tableau's outcome: the Bell partner agrees.
        for &qb in &q {
            assert!((h.probability_one(qb).unwrap() - v as f64).abs() < 1e-12);
        }
        assert_eq!(h.circuit().len(), 5);
        // Noise starts an `Auto` handler on the statevector.
        let noisy = QuantumCircuitHandler::with_backend(
            0,
            Some(qutes_sim::NoiseModel::depolarizing(0.1)),
            None,
            BackendChoice::Auto,
        )
        .unwrap();
        assert_eq!(noisy.backend_kind(), BackendKind::Statevector);
    }

    #[test]
    fn promoted_backend_carries_the_interrupt() {
        let intr = Interrupt::new();
        let mut h =
            QuantumCircuitHandler::with_backend(0, None, None, BackendChoice::Auto).unwrap();
        h.set_interrupt(intr.clone());
        let q = h.allocate("q", 2).unwrap();
        h.apply(Gate::H(q[0])).unwrap();
        h.apply(Gate::T(q[0])).unwrap();
        assert_eq!(h.backend_kind(), BackendKind::Statevector);
        intr.cancel();
        let err = h.apply(Gate::H(q[1])).unwrap_err();
        assert!(err.to_string().contains("cancel"), "{err}");
    }

    #[test]
    fn promotion_refusals_are_typed() {
        let wide = qutes_sim::MAX_QUBITS + 1;
        let mut h =
            QuantumCircuitHandler::with_backend(0, None, None, BackendChoice::Auto).unwrap();
        let q = h.allocate("wide", wide).unwrap();
        let err = h.apply(Gate::T(q[0])).unwrap_err();
        assert!(
            matches!(err, QutesError::Sim(qutes_sim::SimError::TooManyQubits(n)) if n == wide),
            "{err}"
        );
        assert_eq!(h.backend_kind(), BackendKind::Tableau);
        assert_eq!(h.circuit().len(), 0, "the refused gate is not recorded");
        let mut h =
            QuantumCircuitHandler::with_backend(0, None, Some(1 << 10), BackendChoice::Auto)
                .unwrap();
        let q = h.allocate("q", 8).unwrap();
        let err = h.apply(Gate::T(q[0])).unwrap_err();
        assert!(
            matches!(
                err,
                QutesError::Circuit(qutes_qcirc::CircError::ResourceLimit { .. })
            ),
            "{err}"
        );
    }

    #[test]
    fn tableau_capacity_uses_tableau_limits() {
        // A budget far too small for even a 20-qubit dense state admits
        // hundreds of tableau qubits.
        let h = QuantumCircuitHandler::with_backend(0, None, Some(1 << 20), BackendChoice::Tableau)
            .unwrap();
        assert!(h.check_capacity(500, "wide").is_ok());
        assert!(h
            .check_capacity(qutes_sim::TABLEAU_MAX_QUBITS + 1, "too wide")
            .is_err());
    }
}
