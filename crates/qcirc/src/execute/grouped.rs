//! Grouped replay: shots that have drawn alike share one simulation.
//!
//! Re-simulating the whole circuit once per shot repeats work: the
//! only randomness is what each shot draws — the outcome at each
//! measure or reset, and under noise each channel's fault after a gate
//! or reset and each readout flip — and shots that have drawn the same
//! values so far hold the same state. Grouped replay therefore walks the
//! circuit once with a whole set of shots:
//!
//! * gates between two draws run once per **group** of shots, not once
//!   per shot (conditionals are deterministic within a group, since its
//!   classical bits are a function of its draw history);
//! * at a draw, every shot of the group draws its value, and the group
//!   splits by value; each side settles it once — collapses the qubit,
//!   records the (flipped) reading, or applies the fault.
//!
//! A noise fault is a branch event like a measurement outcome. The
//! draws after a gate are the sites of
//! [`qutes_sim::NoiseModel::gate_channels`], in its order; each is
//! armed on the group's state ([`Engine::arm`]) once every earlier
//! fault has been applied, so a damping site compares each shot's draw
//! against the `γ·P(1)` of exactly the state its one-shot run holds
//! there. A depolarizing fault splits up to four ways (none, X, Y, Z),
//! one side at a time. Shots that draw no fault stay together.
//!
//! The walk runs every instruction through the same stepper as the
//! one-shot runner and the live interpreter (`super::step`); only the
//! draws differ, one per shot instead of one per run.
//!
//! **Bit identity.** Each shot keeps its own counter-derived stream
//! ([`qutes_sim::rng_stream::shot_rng`]) and draws from it exactly what
//! its own one-shot run would draw, in the same order: the event's
//! [`Coin`] (one `f64` against the qubit's `P(1)` on the statevector, a
//! fair coin on the tableau only when the outcome is random), each
//! [`Site::draw`], and [`qutes_sim::NoiseModel::readout_flips`]. The
//! operations in between are deterministic and a state clone is exact,
//! so every shot sees the same states, draws, classical bits and
//! gate-budget charges as in its one-shot run, and lands on the same
//! histogram key. Grouping changes the schedule, not the result, so
//! histograms stay identical at any `shot_threads`. Each group keeps
//! the `noise.faults.*` counters of the faults on its path and reports
//! them once per shot when it finishes, so their totals match too.
//!
//! **Memory.** At a split the larger side waits on an explicit stack as
//! a snapshot (a clone of the state) while the smaller side walks on.
//! Every push therefore at least halves the walking group, so at most
//! `⌊log₂ n⌋` snapshots are pending for `n` shots. When one more live
//! state would exceed the memory budget, the split takes no snapshot:
//! the larger side walks on in place, and the smaller side's shots are
//! replayed one at a time, from fresh streams and a fresh state, once
//! the stack has drained — the only per-shot path. A noisy run with no
//! budget set is held to [`NOISY_REPLAY_BYTES`] per walk, or two states
//! when one state is larger: noise splits nearly every group, and
//! without the cap a wide run would reach the `⌊log₂ n⌋` bound in every
//! worker. Shots are walked in rounds of at most [`ROUND_SHOTS`], which
//! bounds the per-shot RNG table and the stack for very large shot
//! counts.

use super::shot_pool::{ChunkResult, FirstFailure};
use super::{pack_clbits, step, Draw, Event, ExecutionConfig, GateBudget, GATE_CHECK_STRIDE};
use crate::backend::{Coin, Engine};
use crate::circuit::QuantumCircuit;
use crate::error::{CircError, CircResult};
use qutes_sim::noise::READOUT_FAULTS;
use qutes_sim::rng_stream::shot_rng;
use qutes_sim::{Fault, GateChannels, NoiseModel, Site};
use qutes_supervisor::{failpoint, Interrupt};
use rand::rngs::StdRng;

/// Most shots walked together in one round.
const ROUND_SHOTS: usize = 1 << 16;

/// Live replay-state bytes a walk of a noisy run may hold when the run
/// sets no memory budget. It is at least two states: the walking one
/// and one snapshot. Each thread keeps as many bytes of freed states
/// for reuse ([`qutes_sim::state::SPARE_BYTES`]), so the snapshots a
/// walk drops serve the next walk's without new page faults.
const NOISY_REPLAY_BYTES: u128 = 32 << 20;
const _: () = assert!(NOISY_REPLAY_BYTES == qutes_sim::state::SPARE_BYTES as u128);

/// Shots that have drawn alike so far, with their shared state.
struct Group<S> {
    /// Shot indices, ascending.
    shots: Vec<usize>,
    state: S,
    clbits: Vec<bool>,
    budget: GateBudget,
    /// Index of the next instruction.
    pc: usize,
    /// The channels of the last gate or reset still to draw.
    channels: Option<GateChannels>,
    /// The last draw, not yet settled; a group split off there resumes
    /// with it.
    fork: Option<Fork>,
    /// The `noise.faults.*` counter of every fault on this group's path.
    faults: Vec<&'static str>,
}

/// A draw every shot of a group has made: where, and what each shot
/// drew, aligned with [`Group::shots`].
enum Fork {
    /// A measure or reset: each shot's outcome.
    Event(Event, Coin, Vec<bool>),
    /// The reading of a measurement into this clbit: whether each shot's
    /// reading flipped.
    Readout(usize, Vec<bool>),
    /// A gate-channel site: each shot's fault.
    Site(Site, Vec<Fault>),
}

impl Fork {
    /// Splits off the shots that drew differently from the first one:
    /// removes them from `shots` and from this fork, and returns them
    /// with their own fork. `None` when every shot drew alike.
    fn split_off(&mut self, shots: &mut Vec<usize>) -> Option<(Vec<usize>, Fork)> {
        Some(match self {
            Fork::Event(event, coin, drawn) => {
                let (rest, drawn) = split_off(shots, drawn)?;
                (rest, Fork::Event(*event, *coin, drawn))
            }
            Fork::Readout(clbit, drawn) => {
                let (rest, drawn) = split_off(shots, drawn)?;
                (rest, Fork::Readout(*clbit, drawn))
            }
            Fork::Site(site, drawn) => {
                let (rest, drawn) = split_off(shots, drawn)?;
                (rest, Fork::Site(*site, drawn))
            }
        })
    }
}

/// [`Fork::split_off`] on one kind of draw.
fn split_off<T: Copy + PartialEq>(
    shots: &mut Vec<usize>,
    drawn: &mut Vec<T>,
) -> Option<(Vec<usize>, Vec<T>)> {
    let first = drawn[0];
    let at = drawn.iter().position(|&d| d != first)?;
    // Compact the shots that drew `first` in place, in order.
    let (mut kept, mut rest) = (at, (Vec::new(), Vec::new()));
    for i in at..drawn.len() {
        if drawn[i] == first {
            shots[kept] = shots[i];
            drawn[kept] = drawn[i];
            kept += 1;
        } else {
            rest.0.push(shots[i]);
            rest.1.push(drawn[i]);
        }
    }
    shots.truncate(kept);
    drawn.truncate(kept);
    Some(rest)
}

/// Grouped replay of one circuit: what every chunk shares.
pub(crate) struct Replay<'a> {
    pub circuit: &'a QuantumCircuit,
    /// Base of the per-shot streams, drawn once from the run's RNG.
    pub base_seed: u64,
    /// The effective noise model, if any.
    pub noise: Option<&'a NoiseModel>,
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
        failed: &FirstFailure,
    ) -> ChunkResult {
        let mut out = ChunkResult::default();
        let mut refused = None;
        let mut start = lo;
        while start < hi
            && refused.is_none()
            && out.error.is_none()
            && out.stop.is_none()
            && !failed.passed(start)
        {
            let mut stop = (start + ROUND_SHOTS).min(hi);
            // The shot failpoint fires once per shot, in shot order. A
            // refusal at shot `s` ends the chunk there, unless an earlier
            // shot fails first.
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
            self.run_round::<S>(start, stop, failed, &mut out);
            start = stop;
        }
        if out.error.is_none() && out.stop.is_none() {
            if let Some((s, _)) = &refused {
                failed.record(*s);
            }
            out.error = refused;
        }
        out
    }

    /// Walks shots `[lo, hi)` as one round, folding finished groups into
    /// `out`. A hard error is recorded against the earliest shot it hits,
    /// as running the shots one by one would report it.
    fn run_round<S: Engine>(
        &self,
        lo: usize,
        hi: usize,
        failed: &FirstFailure,
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
                        record(out, s, e, failed);
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
                        record(out, s, e, failed);
                        continue;
                    }
                }
            } else {
                return;
            };
            // Only a shot before every known failure can still change
            // the reported error.
            if failed.passed(group.shots[0]) {
                continue;
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
                Err(e) => record(out, group.shots[0], e, failed),
            }
        }
    }
}

/// Keeps the hard error of the earliest failing shot.
fn record(out: &mut ChunkResult, shot: usize, e: CircError, failed: &FirstFailure) {
    if out.error.as_ref().is_none_or(|(first, _)| shot < *first) {
        out.error = Some((shot, e));
    }
    failed.record(shot);
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
                channels: None,
                fork: None,
                faults: Vec::new(),
            }),
            Err(e) => Err((shots[0], e)),
        }
    }

    /// What each shot of `shots` draws with `draw` from its own stream.
    fn draw<T>(&mut self, shots: &[usize], mut draw: impl FnMut(&mut StdRng) -> T) -> Vec<T> {
        shots
            .iter()
            .map(|&s| draw(&mut self.rngs[s - self.lo]))
            .collect()
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
        let noise = self.replay.noise;
        let ops = self.replay.circuit.ops();
        loop {
            if let Some(fork) = g.fork.take() {
                self.fork(g, fork)?;
                continue;
            }
            if let Some(channels) = &mut g.channels {
                if let Some((channel, qubit)) = channels.next() {
                    let site = g.state.arm(channel, qubit)?;
                    let drawn = self.draw(&g.shots, |rng| site.draw(rng));
                    g.fork = Some(Fork::Site(site, drawn));
                    continue;
                }
                g.channels = None;
            }
            let Some(op) = ops.get(g.pc) else { break };
            g.pc += 1;
            intr.checkpoint_named(
                &mut self.gate_ck,
                GATE_CHECK_STRIDE,
                "stage.simulate.checkpoints",
            )
            .map_err(CircError::Interrupted)?;
            match step(&mut g.state, &g.clbits, op, &mut g.budget, noise.is_some())? {
                None => {}
                Some(Draw::Channels(gate)) => {
                    g.channels = noise.map(|nm| nm.gate_channels(gate.qubits()));
                }
                Some(Draw::Event(event)) => {
                    let coin = g.state.coin(event.qubit())?;
                    let drawn = self.draw(&g.shots, |rng| coin.draw(rng));
                    g.fork = Some(Fork::Event(event, coin, drawn));
                }
            }
        }
        for counter in &g.faults {
            qutes_obs::counter_add(counter, g.shots.len() as u64);
        }
        Ok(pack_clbits(&g.clbits))
    }

    /// Settles `fork` on `g`. Each class of shots that drew differently
    /// from the first leaves the group in turn: the larger side of each
    /// split waits on the stack with the fork still to settle while the
    /// smaller side walks on, or, when no snapshot fits the memory
    /// budget, the smaller side is deferred. The shots left drew alike,
    /// and `g` settles their draw.
    fn fork(&mut self, g: &mut Group<S>, mut fork: Fork) -> CircResult<()> {
        let r = self.replay;
        let state_bytes = S::KIND.required_bytes(r.circuit.num_qubits());
        while let Some((mut shots, mut other)) = fork.split_off(&mut g.shots) {
            let fits = snapshot_fits(r.cfg, r.noise.is_some(), state_bytes, self.stack.len());
            if fits == (shots.len() < g.shots.len()) {
                std::mem::swap(&mut shots, &mut g.shots);
                std::mem::swap(&mut other, &mut fork);
            }
            if fits {
                qutes_obs::counter_add("sim.snapshots", 1);
                self.stack.push(Group {
                    shots,
                    state: g.state.clone(),
                    clbits: g.clbits.clone(),
                    budget: g.budget.clone(),
                    pc: g.pc,
                    channels: g.channels.clone(),
                    fork: Some(other),
                    faults: g.faults.clone(),
                });
            } else {
                self.deferred.extend(shots);
            }
        }
        self.settle(g, fork)
    }

    /// Applies what every shot of `g` drew at `fork`, then queues the
    /// draws that follow it under noise: a measurement's readout flip, or
    /// the channels after a reset.
    fn settle(&mut self, g: &mut Group<S>, fork: Fork) -> CircResult<()> {
        match fork {
            Fork::Event(event, coin, drawn) => {
                event.settle(&mut g.state, &mut g.clbits, coin, drawn[0])?;
                let Some(nm) = self.replay.noise else {
                    return Ok(());
                };
                match event {
                    Event::Measure { clbit, .. } if nm.readout_error > 0.0 => {
                        let drawn = self.draw(&g.shots, |rng| nm.readout_flips(rng));
                        g.fork = Some(Fork::Readout(clbit, drawn));
                    }
                    Event::Measure { .. } => {}
                    Event::Reset(qubit) => g.channels = Some(nm.gate_channels(vec![qubit])),
                }
            }
            Fork::Readout(clbit, drawn) => {
                if drawn[0] {
                    g.clbits[clbit] = !g.clbits[clbit];
                    g.faults.push(READOUT_FAULTS);
                }
            }
            Fork::Site(site, drawn) => {
                g.state.apply_fault(&site, drawn[0])?;
                g.faults.extend(site.fault_counter(drawn[0]));
            }
        }
        Ok(())
    }
}

/// Whether a walk holding `pending` snapshots of `state_bytes` each may
/// take one more: the walking state, the pending ones and the new one
/// must fit the run's memory budget, or, for a noisy run with none set,
/// [`NOISY_REPLAY_BYTES`] or two states, whichever is more.
fn snapshot_fits(cfg: &ExecutionConfig, noisy: bool, state_bytes: u128, pending: usize) -> bool {
    let cap = match cfg.memory_budget_bytes {
        Some(budget) => u128::from(budget),
        None if noisy => NOISY_REPLAY_BYTES.max(state_bytes.saturating_mul(2)),
        None => return true,
    };
    (pending as u128 + 2).saturating_mul(state_bytes) <= cap
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendKind;

    fn state_bytes(num_qubits: usize) -> u128 {
        BackendKind::Statevector.required_bytes(num_qubits)
    }

    #[test]
    fn unbudgeted_noise_free_walks_keep_every_snapshot() {
        let cfg = ExecutionConfig::default();
        assert!(snapshot_fits(&cfg, false, state_bytes(30), 16));
    }

    #[test]
    fn unbudgeted_noisy_walks_of_small_states_keep_the_log_bound() {
        // 14 qubits is 256 KiB a state: the ⌊log₂ 2¹⁶⌋ = 16 snapshots of
        // a full round and the walking state fit the cap.
        let cfg = ExecutionConfig::default();
        assert!(snapshot_fits(&cfg, true, state_bytes(14), 15));
    }

    #[test]
    fn unbudgeted_noisy_walks_of_wide_states_hold_two_states() {
        // 26 qubits is 1 GiB a state: the walking state and one
        // snapshot, then every further split defers.
        let cfg = ExecutionConfig::default();
        assert!(snapshot_fits(&cfg, true, state_bytes(26), 0));
        assert!(!snapshot_fits(&cfg, true, state_bytes(26), 1));
        // 20 qubits is 16 MiB: the 32 MiB cap holds two states.
        assert!(!snapshot_fits(&cfg, true, state_bytes(20), 1));
    }

    #[test]
    fn a_set_budget_bounds_noisy_and_noise_free_walks_alike() {
        let bytes = state_bytes(14);
        let cfg = ExecutionConfig {
            memory_budget_bytes: Some(u64::try_from(3 * bytes).unwrap()),
            ..ExecutionConfig::default()
        };
        for noisy in [false, true] {
            assert!(snapshot_fits(&cfg, noisy, bytes, 1));
            assert!(!snapshot_fits(&cfg, noisy, bytes, 2));
        }
    }
}
