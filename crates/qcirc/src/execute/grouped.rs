//! Outcome-grouped replay of noise-free circuits with mid-circuit
//! measurement, reset or classical conditionals.
//!
//! Per-shot replay re-simulates the whole circuit once per shot. Without
//! noise, though, the only randomness is the outcome drawn at each
//! measure or reset, and shots that have drawn the same outcomes so far
//! hold the same state. Grouped replay therefore walks the circuit once
//! with a whole set of shots:
//!
//! * gates between two measure/reset events run once per **group** of
//!   shots, not once per shot (conditionals are deterministic within a
//!   group, since its classical bits are a function of its outcome
//!   history);
//! * at an event, every shot of the group draws its outcome, and the
//!   group splits by outcome; each side collapses once.
//!
//! **Bit identity.** Each shot keeps its own counter-derived stream
//! ([`qutes_sim::rng_stream::shot_rng`]) and draws from it exactly what
//! its own per-shot run would draw at that event: one `f64` against the
//! qubit's `P(1)` on the statevector (as `measure::measure_qubit`), and a
//! fair coin on the tableau only when the outcome is random (as
//! [`Tableau::measure`]). The gates in between are deterministic and a
//! state clone is exact, so every shot sees the same states, draws,
//! classical bits and gate-budget charges as in its per-shot run, and
//! lands on the same histogram key. Grouping changes the schedule, not
//! the result, so histograms stay identical at any `shot_threads`.
//!
//! **Memory.** At a split the larger group waits on an explicit stack as
//! a snapshot (a clone of the state) while the smaller group walks on.
//! Every push therefore at least halves the walking group, so at most
//! `⌊log₂ n⌋` snapshots are pending for `n` shots. When a memory budget
//! is set and one more live state would exceed it, the split takes no
//! snapshot: the larger group walks on in place, and the smaller group's
//! shots are replayed one at a time, from fresh streams and a fresh
//! state, once the stack has drained — per-shot replay, which is the
//! only fallback. Shots are walked in rounds of at most
//! [`ROUND_SHOTS`], which bounds the per-shot RNG table and the stack
//! for very large shot counts.

use super::shot_pool::ChunkResult;
use super::{
    apply_deterministic, apply_tableau_deterministic, check_clbit, pack_clbits, ExecutionConfig,
    GateBudget, GATE_CHECK_STRIDE,
};
use crate::backend::BackendKind;
use crate::circuit::QuantumCircuit;
use crate::error::{CircError, CircResult};
use crate::gate::Gate;
use qutes_sim::rng_stream::shot_rng;
use qutes_sim::tableau::Tableau;
use qutes_sim::StateVector;
use qutes_supervisor::{failpoint, Interrupt};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::atomic::{AtomicBool, Ordering};

/// Most shots walked together in one round.
const ROUND_SHOTS: usize = 1 << 16;

/// How each shot of a group draws its outcome at one measure or reset.
pub(crate) enum Coin {
    /// Statevector: `measure_qubit`'s `f64` draw against `P(1)`.
    Threshold(f64),
    /// Tableau, random outcome: [`Tableau::measure`]'s fair coin.
    Fair,
    /// Tableau, determined outcome: no draw.
    Fixed(bool),
}

impl Coin {
    fn draw(&self, rng: &mut StdRng) -> bool {
        match *self {
            Coin::Threshold(p1) => rng.random::<f64>() < p1,
            Coin::Fair => rng.random_bool(0.5),
            Coin::Fixed(outcome) => outcome,
        }
    }
}

/// A simulation state that grouped replay can walk and branch. Each
/// method does what the engine's per-shot runner does at that step.
pub(crate) trait Branching: Clone {
    /// The engine, for memory accounting.
    const KIND: BackendKind;
    /// The `|0…0⟩` state, set up like a per-shot run's.
    fn fresh(num_qubits: usize, intr: &Interrupt, kernel_parallel: bool) -> CircResult<Self>;
    /// Applies a unitary gate, a barrier or a global phase.
    fn apply(&mut self, g: &Gate) -> CircResult<()>;
    /// How shots draw the outcome of measuring `qubit` in this state.
    fn coin(&mut self, qubit: usize) -> CircResult<Coin>;
    /// Collapses `qubit` onto `outcome`.
    fn collapse(&mut self, qubit: usize, outcome: bool) -> CircResult<()>;
    /// Flips `qubit` back to `|0⟩` after a reset read 1.
    fn flip(&mut self, qubit: usize) -> CircResult<()>;
}

impl Branching for StateVector {
    const KIND: BackendKind = BackendKind::Statevector;

    fn fresh(num_qubits: usize, intr: &Interrupt, kernel_parallel: bool) -> CircResult<Self> {
        let mut state = StateVector::new(num_qubits)?;
        state.set_parallel(kernel_parallel);
        state.set_interrupt(intr.clone());
        Ok(state)
    }

    fn apply(&mut self, g: &Gate) -> CircResult<()> {
        apply_deterministic(self, g)
    }

    fn coin(&mut self, qubit: usize) -> CircResult<Coin> {
        Ok(Coin::Threshold(self.probability_one(qubit)?))
    }

    fn collapse(&mut self, qubit: usize, outcome: bool) -> CircResult<()> {
        self.collapse_qubit(qubit, outcome)?;
        Ok(())
    }

    fn flip(&mut self, qubit: usize) -> CircResult<()> {
        Ok(self.flip_if_one(qubit)?)
    }
}

impl Branching for Tableau {
    const KIND: BackendKind = BackendKind::Tableau;

    fn fresh(num_qubits: usize, intr: &Interrupt, _kernel_parallel: bool) -> CircResult<Self> {
        let mut tab = Tableau::new(num_qubits)?;
        tab.set_interrupt(intr.clone());
        Ok(tab)
    }

    fn apply(&mut self, g: &Gate) -> CircResult<()> {
        apply_tableau_deterministic(self, g)
    }

    fn coin(&mut self, qubit: usize) -> CircResult<Coin> {
        Ok(match self.determined_outcome(qubit)? {
            Some(outcome) => Coin::Fixed(outcome),
            None => Coin::Fair,
        })
    }

    fn collapse(&mut self, qubit: usize, outcome: bool) -> CircResult<()> {
        self.measure_forced(qubit, outcome)?;
        Ok(())
    }

    fn flip(&mut self, qubit: usize) -> CircResult<()> {
        Ok(self.x(qubit)?)
    }
}

/// Bytes a refused state allocation reports (chaos failpoints).
pub(crate) fn denied_bytes<S: Branching>(num_qubits: usize) -> usize {
    usize::try_from(S::KIND.required_bytes(num_qubits)).unwrap_or(usize::MAX)
}

/// A measure or reset reached by a group.
#[derive(Clone, Copy)]
enum Event {
    Measure { qubit: usize, clbit: usize },
    Reset(usize),
}

impl Event {
    fn qubit(self) -> usize {
        match self {
            Event::Measure { qubit, .. } | Event::Reset(qubit) => qubit,
        }
    }
}

/// Shots that have drawn the same outcomes so far, with their shared
/// state.
struct Group<S> {
    /// Shot indices, ascending.
    shots: Vec<usize>,
    state: S,
    clbits: Vec<bool>,
    budget: GateBudget,
    /// Index of the next instruction.
    pc: usize,
    /// The outcome this group split off with, settled when it resumes.
    pending: Option<(Event, bool)>,
}

impl<S: Branching> Group<S> {
    /// Charges and executes one instruction like the per-shot runner,
    /// except that a measure or reset (possibly inside a satisfied
    /// conditional) is returned instead of executed.
    fn step(&mut self, g: &Gate) -> CircResult<Option<Event>> {
        self.budget.charge()?;
        qutes_obs::counter_add(g.counter_name(), 1);
        match g {
            Gate::Measure { qubit, clbit } => {
                check_clbit(&self.clbits, *clbit)?;
                Ok(Some(Event::Measure {
                    qubit: *qubit,
                    clbit: *clbit,
                }))
            }
            Gate::Reset(qubit) => Ok(Some(Event::Reset(*qubit))),
            Gate::Conditional { clbit, value, gate } => {
                check_clbit(&self.clbits, *clbit)?;
                if self.clbits[*clbit] == *value {
                    self.step(gate)
                } else {
                    Ok(None)
                }
            }
            _ => self.state.apply(g).map(|()| None),
        }
    }

    /// Completes `event` with the outcome every shot of the group drew.
    fn settle(&mut self, event: Event, outcome: bool) -> CircResult<()> {
        self.state.collapse(event.qubit(), outcome)?;
        match event {
            Event::Measure { clbit, .. } => self.clbits[clbit] = outcome,
            Event::Reset(qubit) if outcome => self.state.flip(qubit)?,
            Event::Reset(_) => {}
        }
        Ok(())
    }
}

/// Grouped replay of one circuit: what every chunk shares.
pub(crate) struct Replay<'a> {
    pub circuit: &'a QuantumCircuit,
    /// Base of the per-shot streams, drawn once from the run's RNG.
    pub base_seed: u64,
    pub cfg: &'a ExecutionConfig,
    pub intr: &'a Interrupt,
    /// Whether dense kernels may thread (only when the pool is serial).
    pub kernel_parallel: bool,
}

impl Replay<'_> {
    /// Runs shots `[lo, hi)` grouped, under the shot pool's chunk
    /// contract (see [`super::shot_pool::run_pool_chunked`]).
    pub(crate) fn run_chunk<S: Branching>(
        &self,
        lo: usize,
        hi: usize,
        abort: &AtomicBool,
    ) -> ChunkResult {
        let mut out = ChunkResult::default();
        let mut refused = None;
        let mut start = lo;
        while start < hi
            && refused.is_none()
            && out.error.is_none()
            && out.stop.is_none()
            && !abort.load(Ordering::Relaxed)
        {
            let mut stop = (start + ROUND_SHOTS).min(hi);
            // The per-shot failpoint still fires once per shot, in shot
            // order. A refusal at shot `s` ends the chunk there, as in
            // the per-shot loop, unless an earlier shot fails first.
            for s in start..stop {
                if failpoint("qcirc.execute.shot").is_err() {
                    let bytes = denied_bytes::<S>(self.circuit.num_qubits());
                    let e = CircError::Sim(qutes_sim::SimError::AllocationFailed { bytes });
                    refused = Some((s, e));
                    stop = s;
                    break;
                }
            }
            self.run_round::<S>(start, stop, abort, &mut out);
            start = stop;
        }
        if out.error.is_none() && out.stop.is_none() {
            out.error = refused;
        }
        if out.error.is_some() {
            abort.store(true, Ordering::Relaxed);
        }
        out
    }

    /// Walks shots `[lo, hi)` as one round, folding finished groups into
    /// `out`. A hard error is recorded against the earliest shot it hits,
    /// as the per-shot loop would report it.
    fn run_round<S: Branching>(
        &self,
        lo: usize,
        hi: usize,
        abort: &AtomicBool,
        out: &mut ChunkResult,
    ) {
        if lo == hi {
            return;
        }
        let mut walk = Walk::<S> {
            replay: self,
            lo,
            rngs: (lo..hi)
                .map(|s| shot_rng(self.base_seed, s as u64))
                .collect(),
            stack: Vec::new(),
            deferred: Vec::new(),
            gate_ck: 0,
        };
        let mut next = Some((lo..hi).collect::<Vec<_>>());
        loop {
            // The round's root, then pending snapshots, then the shots
            // over-budget splits deferred, each alone on a fresh stream.
            let mut group = if let Some(shots) = next.take() {
                match walk.fresh(shots) {
                    Ok(group) => group,
                    Err((s, e)) => {
                        record(out, s, e, abort);
                        return;
                    }
                }
            } else if let Some(group) = walk.stack.pop() {
                group
            } else if let Some(s) = walk.deferred.pop() {
                walk.rngs[s - lo] = shot_rng(self.base_seed, s as u64);
                match walk.fresh(vec![s]) {
                    Ok(group) => group,
                    Err((s, e)) => {
                        record(out, s, e, abort);
                        continue;
                    }
                }
            } else {
                return;
            };
            match &out.error {
                // A sibling chunk failed: stop, like the per-shot loop.
                None if abort.load(Ordering::Relaxed) => return,
                // Only an earlier shot can still change the reported error.
                Some((failed, _)) if group.shots[0] > *failed => continue,
                _ => {}
            }
            match walk.run(&mut group) {
                Ok(key) => {
                    *out.map.entry(key).or_insert(0) += group.shots.len();
                    out.completed += group.shots.len();
                }
                Err(CircError::Interrupted(reason)) => {
                    out.stop = Some(reason);
                    return;
                }
                Err(e) => record(out, group.shots[0], e, abort),
            }
        }
    }
}

/// Keeps the hard error of the earliest failing shot.
fn record(out: &mut ChunkResult, shot: usize, e: CircError, abort: &AtomicBool) {
    if out.error.as_ref().is_none_or(|(failed, _)| shot < *failed) {
        out.error = Some((shot, e));
    }
    abort.store(true, Ordering::Relaxed);
}

/// The walk state of one round.
struct Walk<'r, 'a, S> {
    replay: &'r Replay<'a>,
    /// First shot of the round; `rngs[s - lo]` is shot `s`'s stream.
    lo: usize,
    rngs: Vec<StdRng>,
    /// Snapshots waiting for their turn.
    stack: Vec<Group<S>>,
    /// Shots to replay alone (over-budget splits).
    deferred: Vec<usize>,
    /// Gate applications since the round began, for interrupt strides.
    gate_ck: u64,
}

impl<S: Branching> Walk<'_, '_, S> {
    /// A group of `shots` at the start of the circuit, or the first
    /// shot and the error if the state cannot be allocated.
    fn fresh(&self, shots: Vec<usize>) -> Result<Group<S>, (usize, CircError)> {
        let r = self.replay;
        match S::fresh(r.circuit.num_qubits(), r.intr, r.kernel_parallel) {
            Ok(state) => Ok(Group {
                shots,
                state,
                clbits: vec![false; r.circuit.num_clbits()],
                budget: r.cfg.budget(),
                pc: 0,
                pending: None,
            }),
            Err(e) => Err((shots[0], e)),
        }
    }

    /// Walks `g` to the end of the circuit, pushing the larger side of
    /// every split, and returns its histogram key. On error, `g.shots`
    /// holds the group that failed.
    fn run(&mut self, g: &mut Group<S>) -> CircResult<usize> {
        qutes_obs::counter_add("sim.branches", 1);
        let intr = self.replay.intr;
        intr.check().map_err(CircError::Interrupted)?;
        if intr.is_armed() {
            qutes_obs::counter_add("stage.shots.checkpoints", 1);
        }
        if let Some((event, outcome)) = g.pending.take() {
            g.settle(event, outcome)?;
        }
        let ops = self.replay.circuit.ops();
        while let Some(op) = ops.get(g.pc) {
            g.pc += 1;
            intr.checkpoint_named(
                &mut self.gate_ck,
                GATE_CHECK_STRIDE,
                "stage.simulate.checkpoints",
            )
            .map_err(CircError::Interrupted)?;
            let Some(event) = g.step(op)? else {
                continue;
            };
            let coin = g.state.coin(event.qubit())?;
            let (rngs, lo) = (&mut self.rngs, self.lo);
            let (ones, zeros): (Vec<usize>, Vec<usize>) =
                g.shots.iter().partition(|&&s| coin.draw(&mut rngs[s - lo]));
            if ones.is_empty() || zeros.is_empty() {
                let outcome = zeros.is_empty();
                g.shots = if outcome { ones } else { zeros };
                g.settle(event, outcome)?;
                continue;
            }
            let ((big, big_outcome), (small, small_outcome)) = if ones.len() > zeros.len() {
                ((ones, true), (zeros, false))
            } else {
                ((zeros, false), (ones, true))
            };
            if self.snapshot_fits() {
                qutes_obs::counter_add("sim.snapshots", 1);
                self.stack.push(Group {
                    shots: big,
                    state: g.state.clone(),
                    clbits: g.clbits.clone(),
                    budget: g.budget.clone(),
                    pc: g.pc,
                    pending: Some((event, big_outcome)),
                });
                g.shots = small;
                g.settle(event, small_outcome)?;
            } else {
                self.deferred.extend(small);
                g.shots = big;
                g.settle(event, big_outcome)?;
            }
        }
        Ok(pack_clbits(&g.clbits))
    }

    /// Whether one more snapshot keeps every live state (the walking
    /// group's, the pending ones and the new one) within the memory
    /// budget.
    fn snapshot_fits(&self) -> bool {
        let r = self.replay;
        r.cfg.memory_budget_bytes.is_none_or(|budget| {
            let live = self.stack.len() as u128 + 2;
            live.saturating_mul(S::KIND.required_bytes(r.circuit.num_qubits()))
                <= u128::from(budget)
        })
    }
}
