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
//! The walk runs every instruction through the same stepper as the
//! per-shot runner and the live interpreter (`super::step`); only the
//! settling of a measure or reset differs, drawing one coin per shot
//! instead of one per run.
//!
//! **Bit identity.** Each shot keeps its own counter-derived stream
//! ([`qutes_sim::rng_stream::shot_rng`]) and draws from it exactly what
//! its own per-shot run would draw at that event: the event's
//! [`Coin`], one `f64` against the qubit's `P(1)` on the statevector,
//! and a fair coin on the tableau only when the outcome is random. The
//! gates in between are deterministic and a state clone is exact, so
//! every shot sees the same states, draws, classical bits and
//! gate-budget charges as in its per-shot run, and lands on the same
//! histogram key. Grouping changes the schedule, not
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
use super::{pack_clbits, step, Event, ExecutionConfig, GateBudget, GATE_CHECK_STRIDE};
use crate::backend::{Coin, Engine};
use crate::circuit::QuantumCircuit;
use crate::error::{CircError, CircResult};
use qutes_sim::rng_stream::shot_rng;
use qutes_supervisor::{failpoint, Interrupt};
use rand::rngs::StdRng;
use std::sync::atomic::{AtomicBool, Ordering};

/// Most shots walked together in one round.
const ROUND_SHOTS: usize = 1 << 16;

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
    /// The event this group split off at, with its coin and this side's
    /// outcome, settled when the group resumes.
    pending: Option<(Event, Coin, bool)>,
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
    /// Bytes a refused state allocation reports (chaos failpoints).
    pub denied_bytes: usize,
}

impl Replay<'_> {
    /// Runs shots `[lo, hi)` grouped, under the shot pool's chunk
    /// contract (see [`super::shot_pool::run_pool_chunked`]).
    pub(crate) fn run_chunk<S: Engine>(
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
                    let e = CircError::Sim(qutes_sim::SimError::AllocationFailed {
                        bytes: self.denied_bytes,
                    });
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
    fn run_round<S: Engine>(
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

impl<S: Engine> Walk<'_, '_, S> {
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
        if let Some((event, coin, outcome)) = g.pending.take() {
            event.settle(&mut g.state, &mut g.clbits, coin, outcome)?;
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
            let Some(event) = step::<S, StdRng>(&mut g.state, &g.clbits, op, &mut g.budget, None)?
            else {
                continue;
            };
            let coin = g.state.coin(event.qubit())?;
            let (rngs, lo) = (&mut self.rngs, self.lo);
            let (ones, zeros): (Vec<usize>, Vec<usize>) =
                g.shots.iter().partition(|&&s| coin.draw(&mut rngs[s - lo]));
            if ones.is_empty() || zeros.is_empty() {
                let outcome = zeros.is_empty();
                g.shots = if outcome { ones } else { zeros };
                event.settle(&mut g.state, &mut g.clbits, coin, outcome)?;
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
                    pending: Some((event, coin, big_outcome)),
                });
                g.shots = small;
                event.settle(&mut g.state, &mut g.clbits, coin, small_outcome)?;
            } else {
                self.deferred.extend(small);
                g.shots = big;
                event.settle(&mut g.state, &mut g.clbits, coin, big_outcome)?;
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
