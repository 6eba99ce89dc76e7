//! Monte-Carlo trajectory noise channels.
//!
//! Real devices are not the perfect statevector this crate simulates:
//! gates misfire, qubits relax, and readout lies. This module models
//! those faults with the **stochastic trajectory** method used by
//! Qiskit Aer and the state-vector emulators in the related literature:
//! instead of evolving a density matrix (which squares memory), each
//! *shot* samples one concrete fault pattern — after every gate, each
//! touched qubit may suffer a Pauli error or an amplitude-damping decay
//! with the configured probability, and each measured bit may be
//! reported flipped. Averaged over shots, the trajectory ensemble
//! reproduces the channel's density-matrix action.
//!
//! All randomness is drawn from the caller's seeded [`Rng`], so a run
//! is exactly reproducible from its seed. Channels with probability
//! zero draw **no** random numbers: a [`NoiseModel::none`] model
//! consumes the RNG stream identically to no model at all, which keeps
//! seeded noiseless runs bit-identical whether or not a model is
//! attached (and is relied on by the execution layer's fast-path
//! selection).
//!
//! **One draw order.** [`NoiseModel::gate_channels`] is the one
//! definition of which channels draw after a gate, in which order. Each
//! is armed on the current state as a [`Site`]; a shot draws its
//! [`Fault`] there, and the fault is applied. Every fault is a branch
//! event: shots that hold the same state and draw the same fault still
//! hold the same state afterwards, so the execution layer's grouped
//! replay applies each fault once per group of shots that drew it.
//! [`NoiseModel::apply_gate_noise`] and [`NoiseModel::flip_readout`] are
//! the one-shot case, a group of one.
//!
//! ```
//! use qutes_sim::NoiseModel;
//!
//! let nm = NoiseModel::depolarizing(0.01).with_readout_error(0.02);
//! nm.validate().unwrap();
//! assert!(!nm.is_noiseless());
//! assert!(NoiseModel::none().is_noiseless());
//! ```

use crate::error::{SimError, SimResult};
use crate::gates;
use crate::state::StateVector;
use rand::Rng;

/// Per-gate and per-measurement fault probabilities.
///
/// Each field is an independent channel applied after every gate to the
/// qubits that gate touched (except `readout_error`, which applies to
/// measured bits). Probabilities are per-gate-application, not
/// per-circuit.
#[derive(Clone, Debug, PartialEq)]
pub struct NoiseModel {
    /// Probability of an X error on each touched qubit.
    pub bit_flip: f64,
    /// Probability of a Z error on each touched qubit.
    pub phase_flip: f64,
    /// Probability of a uniformly random Pauli (X, Y or Z) error on the
    /// qubit of a single-qubit gate.
    pub depolarizing_1q: f64,
    /// Probability of a uniformly random Pauli error on **each** qubit
    /// touched by a multi-qubit gate (typically set several times higher
    /// than `depolarizing_1q`, matching hardware two-qubit error rates).
    pub depolarizing_2q: f64,
    /// Probability that an excited qubit relaxes `|1> -> |0>` at each
    /// gate application (the T1 decay analogue, Kraus damping rate γ).
    pub amplitude_damping: f64,
    /// Probability that a measured classical bit is reported flipped.
    pub readout_error: f64,
}

impl NoiseModel {
    /// The all-zeros model: attached but behaviourally silent — draws no
    /// randomness and perturbs nothing.
    pub fn none() -> Self {
        NoiseModel {
            bit_flip: 0.0,
            phase_flip: 0.0,
            depolarizing_1q: 0.0,
            depolarizing_2q: 0.0,
            amplitude_damping: 0.0,
            readout_error: 0.0,
        }
    }

    /// A symmetric depolarizing model: every gate depolarizes each
    /// touched qubit with probability `p` (same rate for one- and
    /// two-qubit gates), no damping or readout error.
    pub fn depolarizing(p: f64) -> Self {
        NoiseModel {
            depolarizing_1q: p,
            depolarizing_2q: p,
            ..NoiseModel::none()
        }
    }

    /// Sets the bit-flip probability.
    pub fn with_bit_flip(mut self, p: f64) -> Self {
        self.bit_flip = p;
        self
    }

    /// Sets the phase-flip probability.
    pub fn with_phase_flip(mut self, p: f64) -> Self {
        self.phase_flip = p;
        self
    }

    /// Sets the amplitude-damping rate γ.
    pub fn with_amplitude_damping(mut self, gamma: f64) -> Self {
        self.amplitude_damping = gamma;
        self
    }

    /// Sets the readout bit-flip probability.
    pub fn with_readout_error(mut self, p: f64) -> Self {
        self.readout_error = p;
        self
    }

    /// Checks every probability is a finite value in `[0, 1]`.
    pub fn validate(&self) -> SimResult<()> {
        for (name, p) in [
            ("bit_flip", self.bit_flip),
            ("phase_flip", self.phase_flip),
            ("depolarizing_1q", self.depolarizing_1q),
            ("depolarizing_2q", self.depolarizing_2q),
            ("amplitude_damping", self.amplitude_damping),
            ("readout_error", self.readout_error),
        ] {
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                return Err(SimError::InvalidState(format!(
                    "noise probability {name} = {p} is outside [0, 1]"
                )));
            }
        }
        Ok(())
    }

    /// True when every channel has probability zero, i.e. the model is
    /// behaviourally identical to no model (the execution layer uses
    /// this to keep its noiseless fast path).
    pub fn is_noiseless(&self) -> bool {
        self.bit_flip == 0.0
            && self.phase_flip == 0.0
            && self.depolarizing_1q == 0.0
            && self.depolarizing_2q == 0.0
            && self.amplitude_damping == 0.0
            && self.readout_error == 0.0
    }

    /// The gate-level channel draws after a gate touched `qubits`, in
    /// the order every run makes them: for each touched qubit in turn,
    /// bit flip, phase flip, depolarizing, then amplitude damping,
    /// skipping every channel at rate zero.
    ///
    /// The depolarizing rate is chosen by gate arity: `depolarizing_1q`
    /// when the gate touched one qubit, `depolarizing_2q` per qubit
    /// otherwise. A reset draws the same sequence on its one qubit.
    pub fn gate_channels(&self, qubits: Vec<usize>) -> GateChannels {
        let depol = if qubits.len() <= 1 {
            self.depolarizing_1q
        } else {
            self.depolarizing_2q
        };
        let at = |p: f64, channel: fn(f64) -> Channel| (p > 0.0).then(|| channel(p));
        GateChannels {
            channels: [
                at(self.bit_flip, Channel::BitFlip),
                at(self.phase_flip, Channel::PhaseFlip),
                at(depol, Channel::Depolarizing),
                at(self.amplitude_damping, Channel::Damping),
            ],
            qubits,
            next: 0,
        }
    }

    /// Applies one trajectory sample of every gate-level channel to the
    /// qubits a gate just touched: the one-shot walk of
    /// [`NoiseModel::gate_channels`], each channel armed on the state its
    /// predecessors left, drawn once, and applied. Call after each gate
    /// application. Channels at probability zero draw no randomness.
    pub fn apply_gate_noise<R: Rng + ?Sized>(
        &self,
        state: &mut StateVector,
        qubits: &[usize],
        rng: &mut R,
    ) -> SimResult<()> {
        for (channel, qubit) in self.gate_channels(qubits.to_vec()) {
            let site = channel.arm(state, qubit)?;
            let fault = site.draw(rng);
            site.apply(fault, state)?;
            if let Some(counter) = site.fault_counter(fault) {
                qutes_obs::counter_add(counter, 1);
            }
        }
        Ok(())
    }

    /// Whether one shot's reading of a measured bit comes out flipped:
    /// one `f64` drawn against `readout_error`, and no draw at rate zero.
    pub fn readout_flips<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        self.readout_error > 0.0 && rng.random::<f64>() < self.readout_error
    }

    /// Applies the readout channel to one measured bit: the one-shot
    /// case of [`NoiseModel::readout_flips`].
    pub fn flip_readout<R: Rng + ?Sized>(&self, bit: bool, rng: &mut R) -> bool {
        if self.readout_flips(rng) {
            qutes_obs::counter_add(READOUT_FAULTS, 1);
            !bit
        } else {
            bit
        }
    }
}

/// The counter a flipped reading counts under.
pub const READOUT_FAULTS: &str = "noise.faults.readout";

/// A gate-level noise channel with its rate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Channel {
    /// An X error with this probability.
    BitFlip(f64),
    /// A Z error with this probability.
    PhaseFlip(f64),
    /// A uniformly random Pauli error with this probability.
    Depolarizing(f64),
    /// Amplitude damping at this rate γ.
    Damping(f64),
}

impl Channel {
    /// Arms the channel on `qubit` of `state`: fixes the threshold every
    /// shot holding this state draws against — the channel's probability
    /// for a Pauli channel, `γ·P(1)` of the current state for damping.
    /// Arm a channel only once every earlier fault of the sequence has
    /// been applied. `&mut` because summing `P(1)` settles the state's
    /// X frame.
    pub fn arm(self, state: &mut StateVector, qubit: usize) -> SimResult<Site> {
        let (threshold, p1) = match self {
            Channel::Damping(gamma) => {
                let p1 = state.probability_one(qubit)?;
                (gamma * p1, p1)
            }
            Channel::BitFlip(p) | Channel::PhaseFlip(p) | Channel::Depolarizing(p) => (p, 0.0),
        };
        Ok(Site {
            channel: self,
            qubit,
            threshold,
            p1,
        })
    }
}

/// The post-gate draws of one gate, from [`NoiseModel::gate_channels`]:
/// yields each `(channel, qubit)` in draw order.
#[derive(Clone, Debug)]
pub struct GateChannels {
    qubits: Vec<usize>,
    /// Bit flip, phase flip, depolarizing, damping; `None` at rate zero.
    channels: [Option<Channel>; 4],
    /// Position in the qubit-major walk of `qubits` × `channels`.
    next: usize,
}

impl Iterator for GateChannels {
    type Item = (Channel, usize);

    fn next(&mut self) -> Option<(Channel, usize)> {
        while let Some(&qubit) = self.qubits.get(self.next / 4) {
            let channel = self.channels[self.next % 4];
            self.next += 1;
            if let Some(channel) = channel {
                return Some((channel, qubit));
            }
        }
        None
    }
}

/// What one shot drew at a [`Site`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// No fault. At a damping site this is the no-jump branch, which
    /// still reshapes the state.
    None,
    /// A Pauli X error.
    X,
    /// A Pauli Y error.
    Y,
    /// A Pauli Z error.
    Z,
    /// A damping jump: the qubit relaxed to `|0⟩`.
    Jump,
}

/// A channel armed on one qubit of one state ([`Channel::arm`]): the draw
/// point every shot holding that state draws at.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Site {
    channel: Channel,
    qubit: usize,
    /// What each shot's `f64` is compared against.
    threshold: f64,
    /// `P(1)` of the qubit when armed (damping only); a jump collapses
    /// with it.
    p1: f64,
}

impl Site {
    /// Draws one shot's fault from `rng`: one `f64` against the
    /// threshold, then, when a depolarizing draw faults,
    /// `random_range(0..3)` for the Pauli.
    pub fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> Fault {
        let faulted = rng.random::<f64>() < self.threshold;
        if !faulted {
            return Fault::None;
        }
        match self.channel {
            Channel::BitFlip(_) => Fault::X,
            Channel::PhaseFlip(_) => Fault::Z,
            Channel::Depolarizing(_) => match rng.random_range(0..3u8) {
                0 => Fault::X,
                1 => Fault::Y,
                _ => Fault::Z,
            },
            Channel::Damping(_) => Fault::Jump,
        }
    }

    /// Applies what a shot drew here to the state the site was armed on.
    /// A damping jump collapses the qubit to `|1⟩` and flips it to `|0⟩`
    /// (the "photon emitted" branch); damping's no-jump branch applies
    /// the Kraus operator `diag(1, √(1−γ))` and renormalises, unless the
    /// qubit held no `|1⟩` weight.
    pub fn apply(&self, fault: Fault, state: &mut StateVector) -> SimResult<()> {
        let q = self.qubit;
        match fault {
            Fault::X => state.apply_single(&gates::x(), q)?,
            Fault::Y => state.apply_single(&gates::y(), q)?,
            Fault::Z => state.apply_single(&gates::z(), q)?,
            Fault::Jump => {
                state.collapse_given(q, true, self.p1)?;
                state.flip_if_one(q)?;
            }
            Fault::None => {
                if let Channel::Damping(gamma) = self.channel {
                    if self.p1 > 1e-12 {
                        let k0 = gates::Matrix2::new(
                            crate::complex::Complex64::ONE,
                            crate::complex::Complex64::ZERO,
                            crate::complex::Complex64::ZERO,
                            crate::c64((1.0 - gamma).sqrt(), 0.0),
                        );
                        state.apply_single(&k0, q)?;
                        state.renormalize()?;
                    }
                }
            }
        }
        Ok(())
    }

    /// The `noise.faults.*` counter `fault` counts under here, or `None`
    /// when it is no fault.
    pub fn fault_counter(&self, fault: Fault) -> Option<&'static str> {
        match (self.channel, fault) {
            (_, Fault::None) => None,
            (Channel::BitFlip(_), _) => Some("noise.faults.bit_flip"),
            (Channel::PhaseFlip(_), _) => Some("noise.faults.phase_flip"),
            (Channel::Depolarizing(_), _) => Some("noise.faults.depolarizing"),
            (Channel::Damping(_), _) => Some("noise.faults.damping_jump"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn none_is_noiseless_and_valid() {
        let m = NoiseModel::none();
        assert!(m.is_noiseless());
        assert!(m.validate().is_ok());
        assert!(!NoiseModel::depolarizing(0.1).is_noiseless());
    }

    #[test]
    fn validate_rejects_out_of_range() {
        assert!(NoiseModel::depolarizing(1.5).validate().is_err());
        assert!(NoiseModel::none().with_bit_flip(-0.1).validate().is_err());
        assert!(NoiseModel::none()
            .with_readout_error(f64::NAN)
            .validate()
            .is_err());
    }

    #[test]
    fn zero_model_draws_no_randomness_and_leaves_state_alone() {
        let mut sv = StateVector::new(3).unwrap();
        sv.apply_single(&gates::h(), 0).unwrap();
        let before = sv.amplitudes().to_vec();

        let mut rng = StdRng::seed_from_u64(11);
        let baseline = rng.clone().next_u64();
        NoiseModel::none()
            .apply_gate_noise(&mut sv, &[0, 1, 2], &mut rng)
            .unwrap();
        assert!(NoiseModel::none().flip_readout(true, &mut rng));
        assert_eq!(rng.next_u64(), baseline, "none() consumed RNG draws");
        assert_eq!(sv.amplitudes(), &before[..]);
    }

    #[test]
    fn bit_flip_at_certainty_flips() {
        let mut sv = StateVector::new(1).unwrap();
        let m = NoiseModel::none().with_bit_flip(1.0);
        let mut rng = StdRng::seed_from_u64(0);
        m.apply_gate_noise(&mut sv, &[0], &mut rng).unwrap();
        assert!((sv.probability_one(0).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn readout_error_at_certainty_flips() {
        let m = NoiseModel::none().with_readout_error(1.0);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(!m.flip_readout(true, &mut rng));
        assert!(m.flip_readout(false, &mut rng));
    }

    #[test]
    fn amplitude_damping_fully_relaxes_at_gamma_one() {
        let mut sv = StateVector::new(1).unwrap();
        sv.apply_single(&gates::x(), 0).unwrap();
        let m = NoiseModel::none().with_amplitude_damping(1.0);
        let mut rng = StdRng::seed_from_u64(1);
        m.apply_gate_noise(&mut sv, &[0], &mut rng).unwrap();
        assert!(sv.probability_one(0).unwrap() < 1e-12);
    }

    #[test]
    fn amplitude_damping_decays_plus_state_toward_zero() {
        // Average over trajectories: |+> under damping γ=0.5 should show
        // P(1) well below 0.5.
        let mut ones = 0usize;
        let shots = 400;
        let m = NoiseModel::none().with_amplitude_damping(0.5);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..shots {
            let mut sv = StateVector::new(1).unwrap();
            sv.apply_single(&gates::h(), 0).unwrap();
            m.apply_gate_noise(&mut sv, &[0], &mut rng).unwrap();
            if measure::measure_qubit(&mut sv, 0, &mut rng).unwrap() {
                ones += 1;
            }
        }
        let p1 = ones as f64 / shots as f64;
        assert!(p1 < 0.4, "damping failed to bias toward |0>: P(1)={p1}");
    }

    #[test]
    fn depolarizing_randomises_basis_state() {
        // |0> under heavy depolarizing noise should sometimes read 1.
        let m = NoiseModel::depolarizing(0.75);
        let mut rng = StdRng::seed_from_u64(3);
        let mut ones = 0usize;
        let shots = 300;
        for _ in 0..shots {
            let mut sv = StateVector::new(1).unwrap();
            m.apply_gate_noise(&mut sv, &[0], &mut rng).unwrap();
            if measure::measure_qubit(&mut sv, 0, &mut rng).unwrap() {
                ones += 1;
            }
        }
        assert!(ones > 0, "depolarizing never flipped |0>");
        assert!(ones < shots, "depolarizing always flipped |0>");
    }

    #[test]
    fn two_qubit_rate_selected_for_multi_qubit_gates() {
        // 1q rate zero, 2q rate one: single-qubit application is silent,
        // two-qubit application flips deterministically.
        let m = NoiseModel {
            depolarizing_1q: 0.0,
            depolarizing_2q: 1.0,
            ..NoiseModel::none()
        };
        let mut rng = StdRng::seed_from_u64(4);
        let mut sv = StateVector::new(2).unwrap();
        let before = sv.amplitudes().to_vec();
        m.apply_gate_noise(&mut sv, &[0], &mut rng).unwrap();
        assert_eq!(sv.amplitudes(), &before[..]);
        m.apply_gate_noise(&mut sv, &[0, 1], &mut rng).unwrap();
        assert_ne!(sv.amplitudes(), &before[..]);
    }

    #[test]
    fn trajectories_are_reproducible_from_seed() {
        let m = NoiseModel::depolarizing(0.3)
            .with_amplitude_damping(0.1)
            .with_bit_flip(0.05);
        let run = || {
            let mut rng = StdRng::seed_from_u64(99);
            let mut sv = StateVector::new(2).unwrap();
            sv.apply_single(&gates::h(), 0).unwrap();
            for _ in 0..10 {
                m.apply_gate_noise(&mut sv, &[0, 1], &mut rng).unwrap();
            }
            sv.amplitudes().to_vec()
        };
        assert_eq!(run(), run());
    }
}
