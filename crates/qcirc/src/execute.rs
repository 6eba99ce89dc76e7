//! Circuit execution over the pluggable simulation backends (see
//! [`mod@crate::backend`] and `docs/backends.md`).
//!
//! Two modes mirror how the paper's runtime uses Qiskit:
//! * [`statevector`] — exact state of a measurement-free circuit (used by
//!   algorithm tests and fidelity checks);
//! * [`run_shots`] — repeated execution with measurement, producing a
//!   [`Counts`] histogram like a Qiskit job result. Every shots entry
//!   point first resolves a backend ([`crate::backend::resolve`]):
//!   Clifford-only noise-free circuits run on the stabilizer tableau,
//!   everything else on the dense statevector. On either engine, when
//!   all measurements are terminal and unconditioned, the state is
//!   simulated once and sampled `shots` times (the standard Aer
//!   batched-sampling fast path). Every other run, noisy or not, takes
//!   the outcome-grouped replay (see `docs/backends.md`), which
//!   simulates each branch once for all the shots that drew it: a
//!   mid-circuit measurement outcome, and under noise each fault.
//!
//! Every mode, like the core runtime's live interpreter, executes
//! instructions through one stepper generic over [`Engine`]: it charges
//! the gate budget, counts the gate, resolves conditionals and applies
//! unitaries, and hands each measure or reset, and under noise each
//! unitary's post-gate channels, back to its caller to draw and settle.
//!
//! ```
//! use qutes_qcirc::execute::statevector;
//! use qutes_qcirc::QuantumCircuit;
//!
//! let mut c = QuantumCircuit::with_qubits(1);
//! c.h(0).unwrap();
//! let mut sv = statevector(&c).unwrap();
//! assert!((sv.probability_one(0).unwrap() - 0.5).abs() < 1e-12);
//! ```
//!
//! The hardened entry points [`run_shots_cfg`] / [`run_once_cfg`] take an
//! [`ExecutionConfig`] adding a seed, an optional Monte-Carlo
//! [`NoiseModel`] (the fast path is disabled whenever noise is actually
//! non-zero, since every trajectory then differs), a pre-flight memory
//! check that rejects oversized states with
//! [`CircError::ResourceLimit`] *before* allocating, and a
//! gate-application budget that turns runaway circuits into
//! [`CircError::BudgetExhausted`] instead of hangs. A mitigation wrapper,
//! [`run_shots_majority`], re-runs a noisy circuit in independently
//! seeded batches and majority-votes the winning outcome.

use crate::backend::{tableau_noise_unsupported, BackendChoice, BackendKind, Coin, Engine};
use crate::circuit::QuantumCircuit;
use crate::error::{CircError, CircResult};
use crate::gate::Gate;
use qutes_sim::tableau::Tableau;
use qutes_sim::{NoiseModel, StateVector};
use qutes_supervisor::{Interrupt, StopReason};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::time::Duration;

mod grouped;
pub mod shot_pool;

/// Gate applications between cooperative deadline checks in the
/// execution loops. Gates on small states run in nanoseconds,
/// so a modest stride keeps the check invisible; large states are
/// covered by the amortised checks inside the qsim kernels themselves.
const GATE_CHECK_STRIDE: u64 = 64;

/// How a circuit is executed: shot count, RNG seed, optional noise, and
/// resource ceilings. [`Default`] gives 1024 noiseless shots, seed 0,
/// and no resource limits.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecutionConfig {
    /// Number of shots for [`run_shots_cfg`].
    pub shots: usize,
    /// Seed for the execution RNG; the whole run is a pure function of it.
    pub seed: u64,
    /// Optional fault model. A model for which
    /// [`NoiseModel::is_noiseless`] holds behaves exactly like `None`,
    /// including RNG-stream and fast-path selection.
    pub noise: Option<NoiseModel>,
    /// Cap on gate applications **per shot** (conditional bodies count).
    /// `None` means unlimited.
    pub max_gate_applications: Option<u64>,
    /// Cap on the dense-state allocation, checked pre-flight against the
    /// `16 * 2^n` bytes estimate. `None` means unlimited.
    pub memory_budget_bytes: Option<u64>,
    /// Optimization level applied by [`run_once_cfg`]/[`run_shots_cfg`]
    /// before execution: 0 = off, 1 = cancellation + rotation merging,
    /// 2 = additionally single-qubit gate fusion. See [`mod@crate::optimize`].
    pub opt_level: u8,
    /// Enables the process-global `qutes-obs` collector before this run
    /// (stage spans, per-kernel timers, per-gate counters). Collection
    /// stays on afterwards so the caller can snapshot; disabled runs pay
    /// only one atomic load per recording site.
    pub observe: bool,
    /// Wall-clock budget for the whole run (optimization included).
    /// Armed on the interrupt handle at entry; a trip surfaces as
    /// [`CircError::Interrupted`]. `None` means unbounded.
    pub time_budget: Option<Duration>,
    /// Externally shared cancellation handle. Lets a caller (server,
    /// Ctrl-C handler) stop the run from another thread; `None` gives
    /// each run a private handle. Compared by identity.
    pub interrupt: Option<Interrupt>,
    /// Which simulation engine to use (see [`mod@crate::backend`]).
    /// The default [`BackendChoice::Auto`] routes Clifford-only
    /// noise-free circuits to the stabilizer tableau and everything else
    /// to the dense statevector; forcing an unsound backend is a typed
    /// [`CircError::BackendUnsupported`].
    pub backend: BackendChoice,
    /// Worker threads for grouped replay (see [`mod@shot_pool`]): `0`
    /// (the default) sizes the pool from
    /// [`std::thread::available_parallelism`], `1` forces the serial
    /// path. Histograms are bit-for-bit identical at any value — every
    /// shot draws from its own counter-derived RNG stream — so this is
    /// purely a throughput knob. The batched fast path (terminal
    /// measurements, no noise) ignores it.
    pub shot_threads: usize,
}

impl Default for ExecutionConfig {
    fn default() -> Self {
        ExecutionConfig {
            shots: 1024,
            seed: 0,
            noise: None,
            max_gate_applications: None,
            memory_budget_bytes: None,
            opt_level: 1,
            observe: false,
            time_budget: None,
            interrupt: None,
            backend: BackendChoice::Auto,
            shot_threads: 0,
        }
    }
}

impl ExecutionConfig {
    /// Sets the shot count.
    pub fn with_shots(mut self, shots: usize) -> Self {
        self.shots = shots;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attaches a noise model.
    pub fn with_noise(mut self, noise: NoiseModel) -> Self {
        self.noise = Some(noise);
        self
    }

    /// Sets the per-shot gate-application budget.
    pub fn with_max_gate_applications(mut self, limit: u64) -> Self {
        self.max_gate_applications = Some(limit);
        self
    }

    /// Sets the memory budget in bytes.
    pub fn with_memory_budget(mut self, bytes: u64) -> Self {
        self.memory_budget_bytes = Some(bytes);
        self
    }

    /// Sets the optimization level (0 = off, 1 = cancel/merge,
    /// 2 = +fusion).
    pub fn with_opt_level(mut self, level: u8) -> Self {
        self.opt_level = level;
        self
    }

    /// Turns observability collection on for this run (see
    /// [`ExecutionConfig::observe`]).
    pub fn with_observe(mut self, on: bool) -> Self {
        self.observe = on;
        self
    }

    /// Sets the wall-clock budget for the whole run.
    pub fn with_time_budget(mut self, budget: Duration) -> Self {
        self.time_budget = Some(budget);
        self
    }

    /// Attaches a shared cancellation handle.
    pub fn with_interrupt(mut self, interrupt: Interrupt) -> Self {
        self.interrupt = Some(interrupt);
        self
    }

    /// Selects the simulation backend (default [`BackendChoice::Auto`]).
    pub fn with_backend(mut self, backend: BackendChoice) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the shot-pool worker count (`0` = auto, `1` = serial); see
    /// [`ExecutionConfig::shot_threads`].
    pub fn with_shot_threads(mut self, threads: usize) -> Self {
        self.shot_threads = threads;
        self
    }

    /// The interrupt handle driving this run: the attached one (or a
    /// fresh private handle), with [`ExecutionConfig::time_budget`]
    /// armed as a deadline starting now.
    pub fn effective_interrupt(&self) -> Interrupt {
        let intr = self.interrupt.clone().unwrap_or_default();
        if let Some(budget) = self.time_budget {
            intr.set_deadline(budget);
        }
        intr
    }

    /// Enables the global collector when this config asks for it.
    fn arm_observability(&self) {
        if self.observe {
            qutes_obs::set_enabled(true);
        }
    }

    /// The circuit actually executed: the input rewritten by
    /// [`crate::optimize::optimize`] at this config's level, or an
    /// unmodified input at level 0. Gate budgets are charged against this
    /// circuit, so optimized-away gates cost nothing.
    fn optimized<'c>(
        &self,
        circuit: &'c QuantumCircuit,
        intr: &Interrupt,
    ) -> CircResult<Cow<'c, QuantumCircuit>> {
        if self.opt_level == 0 {
            return Ok(Cow::Borrowed(circuit));
        }
        let (opt, _) = crate::optimize::optimize_with_interrupt(circuit, self.opt_level, intr)?;
        Ok(Cow::Owned(opt))
    }

    /// Checks the noise probabilities (if any) are valid.
    pub fn validate(&self) -> CircResult<()> {
        if let Some(nm) = &self.noise {
            nm.validate()?;
        }
        Ok(())
    }

    /// The noise model to actually apply: `None` when absent **or**
    /// all-zero, so a silent model cannot knock execution off the fast
    /// path or desynchronise the RNG stream.
    fn effective_noise(&self) -> Option<&NoiseModel> {
        self.noise.as_ref().filter(|nm| !nm.is_noiseless())
    }

    /// Pre-flight resource check: estimates the dense statevector at
    /// `16 * 2^n` bytes and rejects it against the budget **without
    /// allocating anything**.
    pub fn check_memory(&self, num_qubits: usize) -> CircResult<()> {
        self.check_memory_backend(BackendKind::Statevector, num_qubits)
    }

    /// Backend-aware pre-flight resource check: estimates the state
    /// representation of `kind` ([`BackendKind::required_bytes`]) and
    /// rejects it against the budget **without allocating anything** —
    /// the same budget admits far wider circuits on the tableau.
    pub fn check_memory_backend(&self, kind: BackendKind, num_qubits: usize) -> CircResult<()> {
        let Some(budget) = self.memory_budget_bytes else {
            return Ok(());
        };
        let required = kind.required_bytes(num_qubits);
        if required > budget as u128 {
            return Err(CircError::ResourceLimit {
                required_bytes: u64::try_from(required).unwrap_or(u64::MAX),
                budget_bytes: budget,
            });
        }
        Ok(())
    }

    fn budget(&self) -> GateBudget {
        match self.max_gate_applications {
            Some(limit) => GateBudget::limited(limit),
            None => GateBudget::unlimited(),
        }
    }
}

/// Per-shot countdown of gate applications.
#[derive(Clone)]
struct GateBudget {
    remaining: Option<u64>,
    limit: u64,
}

impl GateBudget {
    fn unlimited() -> Self {
        GateBudget {
            remaining: None,
            limit: 0,
        }
    }

    fn limited(limit: u64) -> Self {
        GateBudget {
            remaining: Some(limit),
            limit,
        }
    }

    fn charge(&mut self) -> CircResult<()> {
        if let Some(r) = &mut self.remaining {
            if *r == 0 {
                return Err(CircError::BudgetExhausted { limit: self.limit });
            }
            *r -= 1;
        }
        Ok(())
    }
}

/// Histogram of classical-register outcomes over many shots.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    map: HashMap<usize, usize>,
    num_clbits: usize,
    shots: usize,
}

impl Counts {
    /// Count for a specific outcome (clbit `k` = bit `k` of the key).
    pub fn get(&self, outcome: usize) -> usize {
        self.map.get(&outcome).copied().unwrap_or(0)
    }

    /// Total number of shots recorded.
    pub fn shots(&self) -> usize {
        self.shots
    }

    /// Number of classical bits per outcome.
    pub fn num_clbits(&self) -> usize {
        self.num_clbits
    }

    /// Iterates `(outcome, count)` pairs (unordered).
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.map.iter().map(|(&k, &v)| (k, v))
    }

    /// The most frequent outcome, ties broken toward the smaller key.
    pub fn most_frequent(&self) -> Option<usize> {
        self.map
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            .map(|(&k, _)| k)
    }

    /// Outcomes sorted by descending count.
    pub fn sorted(&self) -> Vec<(usize, usize)> {
        let mut v: Vec<_> = self.map.iter().map(|(&k, &c)| (k, c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Fraction of shots yielding `outcome`.
    pub fn frequency(&self, outcome: usize) -> f64 {
        if self.shots == 0 {
            0.0
        } else {
            self.get(outcome) as f64 / self.shots as f64
        }
    }

    /// Renders an outcome as a bitstring, clbit `num_clbits-1` first
    /// (Qiskit display convention).
    pub fn key_to_bitstring(&self, outcome: usize) -> String {
        (0..self.num_clbits)
            .rev()
            .map(|b| if outcome >> b & 1 == 1 { '1' } else { '0' })
            .collect()
    }
}

impl fmt::Display for Counts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, c) in self.sorted() {
            writeln!(f, "{}: {}", self.key_to_bitstring(k), c)?;
        }
        Ok(())
    }
}

/// Applies one instruction to a live engine, updating classical bits.
///
/// Classical-bit indices are bounds-checked (typed
/// [`CircError::ClbitOutOfRange`], never a panic) so even hand-built
/// [`Gate`] values that bypassed circuit construction fail cleanly.
pub fn apply_gate<E: Engine, R: Rng + ?Sized>(
    state: &mut E,
    clbits: &mut [bool],
    g: &Gate,
    rng: &mut R,
) -> CircResult<()> {
    apply_gate_full(state, clbits, g, rng, None, &mut GateBudget::unlimited())
}

/// Like [`apply_gate`], but threading an optional noise model: unitary
/// gates get post-gate trajectory noise, measurements get readout
/// flips, and conditionals propagate the model into their body. Used by
/// the core runtime's live-state handler, which applies gates one at a
/// time rather than through [`run_shots_cfg`]. The tableau refuses an
/// effective model with a typed [`CircError::BackendUnsupported`].
pub fn apply_gate_noisy<E: Engine, R: Rng + ?Sized>(
    state: &mut E,
    clbits: &mut [bool],
    g: &Gate,
    rng: &mut R,
    noise: Option<&NoiseModel>,
) -> CircResult<()> {
    let noise = noise.filter(|nm| !nm.is_noiseless());
    apply_gate_full(state, clbits, g, rng, noise, &mut GateBudget::unlimited())
}

/// Checks `clbit` indexes into `clbits`.
fn check_clbit(clbits: &[bool], clbit: usize) -> CircResult<()> {
    if clbit >= clbits.len() {
        return Err(CircError::ClbitOutOfRange {
            clbit,
            num_clbits: clbits.len(),
        });
    }
    Ok(())
}

/// Applies a *deterministic* instruction — any unitary gate, a global
/// phase, or a barrier — to `state`, with no randomness and no
/// classical bits. Branching instructions (measure/reset/conditional)
/// are a typed [`CircError::NonUnitary`].
///
/// This is the building block the translation validator's channel
/// domain uses to reconstruct Kraus operators column by column: it
/// needs gate application onto an *arbitrary* existing state, which
/// [`statevector`] (always starting from `|0…0>`) cannot provide.
pub fn apply_deterministic(state: &mut StateVector, g: &Gate) -> CircResult<()> {
    state.apply_unitary(g)
}

/// A measure or reset reached by [`step`], left for the caller to draw
/// and settle.
#[derive(Clone, Copy, Debug)]
enum Event {
    Measure { qubit: usize, clbit: usize },
    Reset(usize),
}

impl Event {
    /// The qubit measured or reset.
    fn qubit(self) -> usize {
        match self {
            Event::Measure { qubit, .. } | Event::Reset(qubit) => qubit,
        }
    }

    /// Completes the event with `outcome`, drawn from `coin`: collapses
    /// the qubit (skipped for a determined coin, whose state already
    /// holds the outcome), records a measurement, and returns a reset
    /// qubit that read 1 to `|0⟩`.
    fn settle<E: Engine>(
        self,
        state: &mut E,
        clbits: &mut [bool],
        coin: Coin,
        outcome: bool,
    ) -> CircResult<()> {
        if !matches!(coin, Coin::Fixed(_)) {
            state.collapse(self.qubit(), coin, outcome)?;
        }
        match self {
            Event::Measure { clbit, .. } => clbits[clbit] = outcome,
            Event::Reset(qubit) if outcome => state.flip(qubit)?,
            Event::Reset(_) => {}
        }
        Ok(())
    }
}

/// What [`step`] hands back for its caller to draw.
enum Draw<'g> {
    /// A measure or reset, with the state untouched.
    Event(Event),
    /// Under noise, a unitary just applied: its post-gate channels
    /// ([`NoiseModel::gate_channels`]) draw next.
    Channels(&'g Gate),
}

/// The instruction stepper every execution mode shares: charges the gate
/// budget, counts the gate, bounds-checks classical bits, recurses into
/// a satisfied conditional, and applies unitaries. A measure or reset
/// comes back as a [`Draw::Event`] with the state untouched; when the
/// run is `noisy`, a unitary other than a barrier or global phase comes
/// back as [`Draw::Channels`].
fn step<'g, E: Engine>(
    state: &mut E,
    clbits: &[bool],
    g: &'g Gate,
    budget: &mut GateBudget,
    noisy: bool,
) -> CircResult<Option<Draw<'g>>> {
    budget.charge()?;
    qutes_obs::counter_add(g.counter_name(), 1);
    match g {
        Gate::Measure { qubit, clbit } => {
            check_clbit(clbits, *clbit)?;
            Ok(Some(Draw::Event(Event::Measure {
                qubit: *qubit,
                clbit: *clbit,
            })))
        }
        Gate::Reset(qubit) => Ok(Some(Draw::Event(Event::Reset(*qubit)))),
        Gate::Conditional { clbit, value, gate } => {
            check_clbit(clbits, *clbit)?;
            if clbits[*clbit] == *value {
                step(state, clbits, gate, budget, noisy)
            } else {
                Ok(None)
            }
        }
        _ => {
            state.apply_unitary(g)?;
            let quiet = matches!(g, Gate::Barrier(_) | Gate::GlobalPhase(_));
            Ok((noisy && !quiet).then_some(Draw::Channels(g)))
        }
    }
}

/// One instruction as a one-shot or live run executes it: [`step`],
/// then whatever it hands back drawn at once on `rng` — the post-gate
/// channels, or a measure or reset's coin, its collapse, and then the
/// readout flip (measure) or post-reset channels. This is the group of
/// one of grouped replay's walk, drawing the same values in the same
/// order.
fn apply_gate_full<E: Engine, R: Rng + ?Sized>(
    state: &mut E,
    clbits: &mut [bool],
    g: &Gate,
    rng: &mut R,
    noise: Option<&NoiseModel>,
    budget: &mut GateBudget,
) -> CircResult<()> {
    if noise.is_some() && E::KIND == BackendKind::Tableau {
        // Readout flips never reach the engine, so refuse up front.
        return Err(tableau_noise_unsupported());
    }
    let event = match step(state, clbits, g, budget, noise.is_some())? {
        None => return Ok(()),
        Some(Draw::Channels(gate)) => {
            if let Some(nm) = noise {
                apply_channels(state, nm, gate.qubits(), rng)?;
            }
            return Ok(());
        }
        Some(Draw::Event(event)) => event,
    };
    let coin = state.coin(event.qubit())?;
    let outcome = coin.draw(rng);
    event.settle(state, clbits, coin, outcome)?;
    match (noise, event) {
        (Some(nm), Event::Measure { clbit, .. }) => clbits[clbit] = nm.flip_readout(outcome, rng),
        (Some(nm), Event::Reset(qubit)) => apply_channels(state, nm, vec![qubit], rng)?,
        (None, _) => {}
    }
    Ok(())
}

/// Draws, for one shot, the channels of [`NoiseModel::gate_channels`]
/// after a gate or reset touched `qubits`, applying each fault before
/// the next channel is armed.
fn apply_channels<E: Engine, R: Rng + ?Sized>(
    state: &mut E,
    noise: &NoiseModel,
    qubits: Vec<usize>,
    rng: &mut R,
) -> CircResult<()> {
    for (channel, qubit) in noise.gate_channels(qubits) {
        let site = state.arm(channel, qubit)?;
        let fault = site.draw(rng);
        state.apply_fault(&site, fault)?;
        if let Some(counter) = site.fault_counter(fault) {
            qutes_obs::counter_add(counter, 1);
        }
    }
    Ok(())
}

/// Bytes a refused state allocation reports (chaos failpoints).
fn denied_bytes(kind: BackendKind, num_qubits: usize) -> usize {
    usize::try_from(kind.required_bytes(num_qubits)).unwrap_or(usize::MAX)
}

/// Runs the noise-free batched path: the circuit's measurements are all
/// terminal, so its unitary prefix is simulated once and all shots are
/// sampled from the final state (the standard Aer fast path). The single
/// simulation is all-or-nothing, so interrupts surface as errors.
fn run_batched<E: Engine, R: Rng + ?Sized>(
    circuit: &QuantumCircuit,
    rng: &mut R,
    cfg: &ExecutionConfig,
    intr: &Interrupt,
) -> CircResult<ShotsOutcome> {
    qutes_obs::counter_add("sim.fast_path", 1);
    qutes_obs::counter_add("backend.mode.batched", 1);
    let mut state = E::fresh(circuit.num_qubits(), intr, true)?;
    let clbits = vec![false; circuit.num_clbits()];
    let mut budget = cfg.budget();
    let mut gate_ck = 0u64;
    let mut meas_pairs: Vec<(usize, usize)> = Vec::new();
    for g in circuit.ops() {
        intr.checkpoint_named(
            &mut gate_ck,
            GATE_CHECK_STRIDE,
            "stage.simulate.checkpoints",
        )
        .map_err(CircError::Interrupted)?;
        if let Gate::Measure { qubit, clbit } = g {
            // Charged like any gate, but sampled rather than counted.
            check_clbit(&clbits, *clbit)?;
            budget.charge()?;
            meas_pairs.push((*qubit, *clbit));
        } else {
            // Terminal noise-free circuits hold no reset or
            // conditional, so nothing comes back to draw.
            step(&mut state, &clbits, g, &mut budget, false)?;
        }
    }
    let qubits: Vec<usize> = meas_pairs.iter().map(|&(q, _)| q).collect();
    let mut map = HashMap::new();
    for (joint, count) in state.sample(&qubits, cfg.shots, rng)? {
        // Re-scatter bit k of the joint outcome to clbit of pair k.
        let mut key = 0usize;
        for (k, &(_, c)) in meas_pairs.iter().enumerate() {
            if joint >> k & 1 == 1 {
                key |= 1 << c;
            }
        }
        *map.entry(key).or_insert(0) += count;
    }
    let pool = shot_pool::PoolOutcome {
        map,
        completed: cfg.shots,
        stop: None,
    };
    pool_outcome(pool, circuit.num_clbits(), cfg.shots, false)
}

/// Outcome-grouped replay (see [`mod@grouped`]) on engine `E`: the path
/// for every run that cannot batch — noisy, or with measurements that
/// are not all terminal. Histograms are bit-identical to re-running
/// every shot on its own stream.
fn run_grouped<E: Engine, R: Rng + ?Sized>(
    circuit: &QuantumCircuit,
    rng: &mut R,
    noise: Option<&NoiseModel>,
    cfg: &ExecutionConfig,
    intr: &Interrupt,
    allow_partial: bool,
) -> CircResult<ShotsOutcome> {
    qutes_obs::counter_add("sim.slow_path", 1);
    qutes_obs::counter_add("backend.mode.grouped", 1);
    // Counter-derived child streams (see `qutes_sim::rng_stream`): one
    // base draw from the caller's stream, then a private RNG per shot
    // index.
    let base_seed = rng.next_u64();
    let workers = shot_pool::resolve_workers(cfg.shot_threads, cfg.shots);
    let replay = grouped::Replay {
        circuit,
        base_seed,
        noise,
        cfg,
        intr,
        // With several workers live, shot-level parallelism owns the
        // cores: nested kernel threading would only oversubscribe.
        kernel_parallel: workers == 1,
        denied_bytes: denied_bytes(E::KIND, circuit.num_qubits()),
    };
    let pool =
        shot_pool::run_pool_chunked(cfg.shots, workers, replay.denied_bytes, |lo, hi, failed| {
            replay.run_chunk::<E>(lo, hi, failed)
        })?;
    pool_outcome(pool, circuit.num_clbits(), cfg.shots, allow_partial)
}

/// Translates a merged pool result into the shot-outcome contract
/// shared with the serial loop: a mid-run interrupt yields a degraded
/// partial histogram when allowed and at least one shot completed
/// (`completed_shots` is exactly the histogram weight), and is a typed
/// error otherwise.
fn pool_outcome(
    pool: shot_pool::PoolOutcome,
    num_clbits: usize,
    shots: usize,
    allow_partial: bool,
) -> CircResult<ShotsOutcome> {
    match pool.stop {
        Some(reason) if allow_partial && pool.completed > 0 => {
            qutes_obs::counter_add("supervisor.degraded", 1);
            Ok(ShotsOutcome {
                counts: Counts {
                    map: pool.map,
                    num_clbits,
                    shots: pool.completed,
                },
                completed_shots: pool.completed,
                degraded: true,
                stop: Some(reason),
            })
        }
        Some(reason) => Err(CircError::Interrupted(reason)),
        None => Ok(ShotsOutcome {
            counts: Counts {
                map: pool.map,
                num_clbits,
                shots,
            },
            completed_shots: shots,
            degraded: false,
            stop: None,
        }),
    }
}

/// Result of a single end-to-end execution.
#[derive(Clone, Debug)]
pub struct Shot {
    /// Final (collapsed) statevector.
    pub state: StateVector,
    /// Final classical-bit values.
    pub clbits: Vec<bool>,
}

impl Shot {
    /// Classical bits packed into an integer, clbit `k` = bit `k`.
    pub fn clbits_as_usize(&self) -> usize {
        pack_clbits(&self.clbits)
    }
}

/// Packs classical bits into a histogram key, clbit `k` = bit `k`.
fn pack_clbits(clbits: &[bool]) -> usize {
    clbits
        .iter()
        .enumerate()
        .fold(0usize, |acc, (i, &b)| acc | ((b as usize) << i))
}

/// Runs the circuit once, collapsing at each measurement.
pub fn run_once<R: Rng + ?Sized>(circuit: &QuantumCircuit, rng: &mut R) -> CircResult<Shot> {
    run_once_full(
        circuit,
        rng,
        None,
        GateBudget::unlimited(),
        &Interrupt::new(),
    )
}

/// Runs the circuit once under an [`ExecutionConfig`]: seeded RNG,
/// optional noise, memory pre-flight, gate budget, and deadline.
pub fn run_once_cfg(circuit: &QuantumCircuit, cfg: &ExecutionConfig) -> CircResult<Shot> {
    cfg.arm_observability();
    let intr = cfg.effective_interrupt();
    intr.check().map_err(CircError::Interrupted)?;
    cfg.validate()?;
    cfg.check_memory(circuit.num_qubits())?;
    let circuit = cfg.optimized(circuit, &intr)?;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let _span = qutes_obs::span("stage.simulate");
    run_once_full(
        &circuit,
        &mut rng,
        cfg.effective_noise(),
        cfg.budget(),
        &intr,
    )
}

fn run_once_full<R: Rng + ?Sized>(
    circuit: &QuantumCircuit,
    rng: &mut R,
    noise: Option<&NoiseModel>,
    mut budget: GateBudget,
    intr: &Interrupt,
) -> CircResult<Shot> {
    let mut state = StateVector::fresh(circuit.num_qubits(), intr, true)?;
    let mut clbits = vec![false; circuit.num_clbits()];
    let mut gate_ck = 0u64;
    for g in circuit.ops() {
        intr.checkpoint_named(
            &mut gate_ck,
            GATE_CHECK_STRIDE,
            "stage.simulate.checkpoints",
        )
        .map_err(CircError::Interrupted)?;
        apply_gate_full(&mut state, &mut clbits, g, rng, noise, &mut budget)?;
    }
    Ok(Shot { state, clbits })
}

/// The exact statevector of a unitary circuit. Errors if the circuit
/// contains measurement, reset, or classically-conditioned gates.
pub fn statevector(circuit: &QuantumCircuit) -> CircResult<StateVector> {
    let mut state = StateVector::new(circuit.num_qubits())?;
    let mut clbits = vec![false; circuit.num_clbits()];
    // A fixed-seed RNG is fine: unitary circuits never sample. We still
    // reject non-unitary instructions explicitly for a clear error.
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    for g in circuit.ops() {
        match g {
            Gate::Measure { .. } | Gate::Reset(_) | Gate::Conditional { .. } => {
                return Err(CircError::NonUnitary(g.name()));
            }
            _ => apply_gate(&mut state, &mut clbits, g, &mut rng)?,
        }
    }
    Ok(state)
}

/// True when every measurement is terminal (no gate after it touches a
/// measured qubit) and no reset/conditional instruction exists — the
/// precondition for the sample-once fast path.
fn measurements_are_terminal(circuit: &QuantumCircuit) -> bool {
    let mut measured: Vec<Option<usize>> = vec![None; circuit.num_qubits()];
    for g in circuit.ops() {
        match g {
            Gate::Reset(_) | Gate::Conditional { .. } => return false,
            Gate::Measure { qubit, clbit } => {
                if measured[*qubit].is_some() {
                    return false; // double measurement of one qubit
                }
                measured[*qubit] = Some(*clbit);
            }
            Gate::Barrier(_) => {}
            _ => {
                if g.qubits().iter().any(|&q| measured[q].is_some()) {
                    return false;
                }
            }
        }
    }
    true
}

/// Outcome of a supervised shot run: the histogram plus degradation
/// metadata. A non-degraded run has `completed_shots` equal to the
/// configured shot count and `stop == None`.
#[derive(Clone, Debug)]
pub struct ShotsOutcome {
    /// Histogram over the shots that actually completed.
    pub counts: Counts,
    /// How many shots finished before the run ended.
    pub completed_shots: usize,
    /// True when the run was cut short by a deadline or cancellation
    /// and partial results were returned instead of an error.
    pub degraded: bool,
    /// Why the run stopped early, when `degraded` is set.
    pub stop: Option<StopReason>,
}

/// Runs the circuit `shots` times and histograms the classical register.
///
/// Backend dispatch applies here too: a Clifford-only circuit runs on
/// the stabilizer tableau, everything else on the dense statevector
/// (the input circuit is executed as-is, with no optimizer pass).
pub fn run_shots<R: Rng + ?Sized>(
    circuit: &QuantumCircuit,
    shots: usize,
    rng: &mut R,
) -> CircResult<Counts> {
    let cfg = ExecutionConfig::default()
        .with_shots(shots)
        .with_opt_level(0);
    let outcome = dispatch(circuit, &cfg, &Interrupt::new(), rng, false, false)?;
    Ok(outcome.counts)
}

/// Runs the circuit under an [`ExecutionConfig`] and histograms the
/// classical register.
///
/// The terminal-measurement fast path (simulate once, sample `shots`
/// times) is used only when the attached noise is absent or all-zero —
/// under real noise trajectories differ, so the shots replay grouped,
/// each fault a branch. The pre-flight memory check runs before any
/// state is allocated, and the gate budget applies per shot.
pub fn run_shots_cfg(circuit: &QuantumCircuit, cfg: &ExecutionConfig) -> CircResult<Counts> {
    run_shots_entry(circuit, cfg, false).map(|o| o.counts)
}

/// Like [`run_shots_cfg`], but with graceful degradation: when the
/// deadline or a cancellation trips after at least one shot completed,
/// the partial histogram is returned (`degraded: true`, with the
/// [`StopReason`]) instead of an error. An interrupt before the first
/// completed shot is still the typed [`CircError::Interrupted`].
pub fn run_shots_supervised(
    circuit: &QuantumCircuit,
    cfg: &ExecutionConfig,
) -> CircResult<ShotsOutcome> {
    run_shots_entry(circuit, cfg, true)
}

fn run_shots_entry(
    circuit: &QuantumCircuit,
    cfg: &ExecutionConfig,
    allow_partial: bool,
) -> CircResult<ShotsOutcome> {
    cfg.arm_observability();
    let intr = cfg.effective_interrupt();
    intr.check().map_err(CircError::Interrupted)?;
    cfg.validate()?;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    dispatch(circuit, cfg, &intr, &mut rng, allow_partial, true)
}

/// The one shot dispatcher: resolves the engine, counts it, checks the
/// memory budget, and replays `cfg.shots` shots on it — batched when
/// every measurement is terminal and the run is noise-free, grouped
/// otherwise. `timed` runs (the [`ExecutionConfig`] entry points) time
/// the replay as `stage.simulate`.
fn dispatch<R: Rng + ?Sized>(
    circuit: &QuantumCircuit,
    cfg: &ExecutionConfig,
    intr: &Interrupt,
    rng: &mut R,
    allow_partial: bool,
    timed: bool,
) -> CircResult<ShotsOutcome> {
    let noise = cfg.effective_noise();
    let kind = crate::backend::resolve(cfg.backend, circuit, noise.is_some())?;
    qutes_obs::counter_add(kind.counter_name(), 1);
    cfg.check_memory_backend(kind, circuit.num_qubits())?;
    match kind {
        // The optimizer targets dense kernels (it may fuse Clifford runs
        // into float `Unitary` matrices), so the tableau executes the
        // raw circuit; gate budgets are charged against it directly.
        BackendKind::Tableau => {
            let _span = timed.then(|| qutes_obs::span("stage.simulate"));
            replay::<Tableau, R>(circuit, rng, None, cfg, intr, allow_partial)
        }
        BackendKind::Statevector => {
            let circuit = cfg.optimized(circuit, intr)?;
            let _span = timed.then(|| qutes_obs::span("stage.simulate"));
            replay::<StateVector, R>(&circuit, rng, noise, cfg, intr, allow_partial)
        }
    }
}

/// Replays `cfg.shots` shots of `circuit` on engine `E` in the mode the
/// run allows.
fn replay<E: Engine, R: Rng + ?Sized>(
    circuit: &QuantumCircuit,
    rng: &mut R,
    noise: Option<&NoiseModel>,
    cfg: &ExecutionConfig,
    intr: &Interrupt,
    allow_partial: bool,
) -> CircResult<ShotsOutcome> {
    qutes_obs::counter_add("sim.shots", cfg.shots as u64);
    if noise.is_none() && measurements_are_terminal(circuit) {
        run_batched::<E, R>(circuit, rng, cfg, intr)
    } else {
        run_grouped::<E, R>(circuit, rng, noise, cfg, intr, allow_partial)
    }
}

/// Result of a [`run_shots_majority`] mitigation run.
#[derive(Clone, Debug)]
pub struct MajorityOutcome {
    /// The outcome winning the most batches (`None` only for 0 batches).
    pub winner: Option<usize>,
    /// How many batches each candidate outcome won.
    pub votes: HashMap<usize, usize>,
    /// Number of batches run.
    pub batches: usize,
}

impl MajorityOutcome {
    /// Fraction of batches won by the winner (0 when there are none).
    pub fn confidence(&self) -> f64 {
        match self.winner {
            Some(w) if self.batches > 0 => {
                self.votes.get(&w).copied().unwrap_or(0) as f64 / self.batches as f64
            }
            _ => 0.0,
        }
    }
}

/// Error-mitigation wrapper: runs the circuit in `batches` independent
/// re-runs of `cfg.shots` shots each (batch `b` reseeded deterministically
/// from `cfg.seed`), takes each batch's most frequent outcome as that
/// batch's vote, and returns the majority winner.
///
/// Under stochastic noise a single histogram can be won by a faulty
/// outcome; voting across independent trajectories recovers the correct
/// answer whenever each batch is right with probability above one half —
/// graceful degradation at low noise rather than a silent wrong answer.
pub fn run_shots_majority(
    circuit: &QuantumCircuit,
    cfg: &ExecutionConfig,
    batches: usize,
) -> CircResult<MajorityOutcome> {
    let mut votes: HashMap<usize, usize> = HashMap::new();
    for b in 0..batches {
        let mut batch_cfg = cfg.clone();
        // Golden-ratio stride keeps batch streams well separated; batch 0
        // reproduces a plain `run_shots_cfg` run exactly.
        batch_cfg.seed = cfg
            .seed
            .wrapping_add((b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let counts = run_shots_cfg(circuit, &batch_cfg)?;
        if let Some(w) = counts.most_frequent() {
            *votes.entry(w).or_insert(0) += 1;
        }
    }
    let winner = votes
        .iter()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
        .map(|(&k, _)| k);
    Ok(MajorityOutcome {
        winner,
        votes,
        batches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn statevector_of_bell_circuit() {
        let mut c = QuantumCircuit::with_qubits(2);
        c.h(0).unwrap().cx(0, 1).unwrap();
        let sv = statevector(&c).unwrap();
        let a = 1.0 / 2f64.sqrt();
        assert!((sv.amplitude(0).re - a).abs() < 1e-12);
        assert!((sv.amplitude(3).re - a).abs() < 1e-12);
    }

    #[test]
    fn statevector_rejects_measurement() {
        let mut c = QuantumCircuit::with_qubits_and_clbits(1, 1);
        c.measure(0, 0).unwrap();
        assert!(matches!(statevector(&c), Err(CircError::NonUnitary(_))));
    }

    #[test]
    fn bell_counts_are_correlated() {
        let mut c = QuantumCircuit::with_qubits_and_clbits(2, 2);
        c.h(0).unwrap().cx(0, 1).unwrap();
        c.measure(0, 0).unwrap().measure(1, 1).unwrap();
        let counts = run_shots(&c, 1000, &mut rng()).unwrap();
        assert_eq!(counts.shots(), 1000);
        assert_eq!(counts.get(0b00) + counts.get(0b11), 1000);
        assert!(counts.get(0b00) > 350);
        assert!(counts.get(0b11) > 350);
    }

    #[test]
    fn fast_and_slow_paths_agree_statistically() {
        // Same Bell circuit, but a trailing X on an unmeasured qubit after
        // measurement forces the slow path.
        let mut fast = QuantumCircuit::with_qubits_and_clbits(3, 2);
        fast.h(0).unwrap().cx(0, 1).unwrap();
        fast.measure(0, 0).unwrap().measure(1, 1).unwrap();
        let mut slow = fast.clone();
        slow.x(0).unwrap(); // touches a measured qubit -> slow path
        assert!(measurements_are_terminal(&fast));
        assert!(!measurements_are_terminal(&slow));
        let cf = run_shots(&fast, 4000, &mut rng()).unwrap();
        let cs = run_shots(&slow, 4000, &mut rng()).unwrap();
        for key in [0b00usize, 0b11] {
            let a = cf.frequency(key);
            let b = cs.frequency(key);
            assert!((a - b).abs() < 0.05, "key {key}: {a} vs {b}");
        }
    }

    #[test]
    fn conditional_gate_teleports_correction() {
        // Prepare |1>, measure into c0, then conditionally flip another
        // qubit: final qubit must always read 1.
        let mut c = QuantumCircuit::with_qubits_and_clbits(2, 2);
        c.x(0).unwrap();
        c.measure(0, 0).unwrap();
        c.c_if(0, true, Gate::X(1)).unwrap();
        c.measure(1, 1).unwrap();
        let counts = run_shots(&c, 100, &mut rng()).unwrap();
        assert_eq!(counts.get(0b11), 100);
    }

    #[test]
    fn reset_forces_zero() {
        let mut c = QuantumCircuit::with_qubits_and_clbits(1, 1);
        c.h(0).unwrap();
        c.reset(0).unwrap();
        c.measure(0, 0).unwrap();
        let counts = run_shots(&c, 200, &mut rng()).unwrap();
        assert_eq!(counts.get(0), 200);
    }

    #[test]
    fn mid_circuit_measurement_collapses() {
        // H, measure, then re-measure: outcomes agree within each shot.
        let mut c = QuantumCircuit::with_qubits_and_clbits(1, 2);
        c.h(0).unwrap();
        c.measure(0, 0).unwrap();
        c.measure(0, 1).unwrap();
        let counts = run_shots(&c, 500, &mut rng()).unwrap();
        assert_eq!(counts.get(0b00) + counts.get(0b11), 500);
        assert_eq!(counts.get(0b01), 0);
        assert_eq!(counts.get(0b10), 0);
    }

    #[test]
    fn counts_helpers() {
        let mut c = QuantumCircuit::with_qubits_and_clbits(2, 2);
        c.x(1).unwrap();
        c.measure(0, 0).unwrap().measure(1, 1).unwrap();
        let counts = run_shots(&c, 64, &mut rng()).unwrap();
        assert_eq!(counts.most_frequent(), Some(0b10));
        assert_eq!(counts.key_to_bitstring(0b10), "10");
        assert_eq!(counts.frequency(0b10), 1.0);
        assert_eq!(counts.sorted()[0], (0b10, 64));
        let shown = counts.to_string();
        assert!(shown.contains("10: 64"));
    }

    #[test]
    fn run_once_returns_final_state() {
        let mut c = QuantumCircuit::with_qubits_and_clbits(2, 1);
        c.x(0).unwrap().measure(0, 0).unwrap();
        let mut shot = run_once(&c, &mut rng()).unwrap();
        assert!(shot.clbits[0]);
        assert_eq!(shot.clbits_as_usize(), 1);
        assert!((shot.state.probability_one(0).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn expired_deadline_is_typed_error() {
        let mut c = QuantumCircuit::with_qubits_and_clbits(2, 2);
        c.h(0).unwrap().cx(0, 1).unwrap();
        c.measure(0, 0).unwrap().measure(1, 1).unwrap();
        let cfg = ExecutionConfig::default().with_time_budget(Duration::ZERO);
        let err = run_shots_cfg(&c, &cfg).unwrap_err();
        assert!(matches!(
            err,
            CircError::Interrupted(StopReason::DeadlineExceeded { .. })
        ));
    }

    #[test]
    fn cancelled_interrupt_is_typed_error() {
        let mut c = QuantumCircuit::with_qubits_and_clbits(1, 1);
        c.h(0).unwrap().measure(0, 0).unwrap();
        let intr = Interrupt::new();
        intr.cancel();
        let cfg = ExecutionConfig::default().with_interrupt(intr);
        let err = run_once_cfg(&c, &cfg).unwrap_err();
        assert!(matches!(err, CircError::Interrupted(StopReason::Cancelled)));
    }

    #[test]
    fn generous_deadline_does_not_change_results() {
        let mut c = QuantumCircuit::with_qubits_and_clbits(2, 2);
        c.h(0).unwrap().cx(0, 1).unwrap();
        c.measure(0, 0).unwrap().measure(1, 1).unwrap();
        let plain = run_shots_cfg(&c, &ExecutionConfig::default()).unwrap();
        let timed = run_shots_cfg(
            &c,
            &ExecutionConfig::default().with_time_budget(Duration::from_secs(600)),
        )
        .unwrap();
        assert_eq!(plain.sorted(), timed.sorted());
    }

    #[test]
    fn supervised_run_completes_normally() {
        let mut c = QuantumCircuit::with_qubits_and_clbits(1, 1);
        c.h(0).unwrap().measure(0, 0).unwrap();
        let cfg = ExecutionConfig::default().with_shots(100);
        let outcome = run_shots_supervised(&c, &cfg).unwrap();
        assert!(!outcome.degraded);
        assert_eq!(outcome.completed_shots, 100);
        assert_eq!(outcome.stop, None);
        assert_eq!(outcome.counts.shots(), 100);
    }

    #[test]
    fn supervised_run_degrades_to_partial_counts() {
        // Reset forces the slow grouped path; cancel from a watcher
        // thread once at least one shot has landed.
        let mut c = QuantumCircuit::with_qubits_and_clbits(1, 1);
        c.h(0).unwrap();
        c.reset(0).unwrap();
        c.h(0).unwrap();
        c.measure(0, 0).unwrap();
        let intr = Interrupt::new();
        let cfg = ExecutionConfig::default()
            .with_shots(2_000_000_000)
            .with_interrupt(intr.clone());
        let watcher = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            intr.cancel();
        });
        let outcome = run_shots_supervised(&c, &cfg).unwrap();
        watcher.join().map_err(|_| "watcher panicked").unwrap();
        assert!(outcome.degraded);
        assert!(outcome.completed_shots > 0);
        assert!(outcome.completed_shots < 2_000_000_000);
        assert_eq!(outcome.stop, Some(StopReason::Cancelled));
        assert_eq!(outcome.counts.shots(), outcome.completed_shots);
    }

    #[test]
    fn supervised_zero_budget_still_errors() {
        // No shot can complete under an already-expired deadline, so
        // there is nothing partial to salvage.
        let mut c = QuantumCircuit::with_qubits_and_clbits(1, 1);
        c.h(0).unwrap().measure(0, 0).unwrap();
        let cfg = ExecutionConfig::default().with_time_budget(Duration::ZERO);
        assert!(matches!(
            run_shots_supervised(&c, &cfg),
            Err(CircError::Interrupted(_))
        ));
    }

    #[test]
    fn mcx_and_mcphase_execute() {
        let mut c = QuantumCircuit::with_qubits(4);
        c.x(0).unwrap().x(1).unwrap().x(2).unwrap();
        c.mcx(&[0, 1, 2], 3).unwrap();
        let mut sv = statevector(&c).unwrap();
        assert!((sv.probability_one(3).unwrap() - 1.0).abs() < 1e-12);

        let mut c2 = QuantumCircuit::with_qubits(3);
        c2.x(0).unwrap().x(1).unwrap().x(2).unwrap();
        c2.mcz(&[0, 1], 2).unwrap();
        let sv2 = statevector(&c2).unwrap();
        assert!((sv2.amplitude(0b111).re + 1.0).abs() < 1e-12);
    }
}
