//! The instruction set of the circuit IR.
//!
//! `Gate` covers every operation the Qutes compiler emits: the standard
//! single-qubit gates, controlled and multi-controlled variants, swaps,
//! measurement, reset, barriers, and classically-conditioned gates (used
//! for teleportation-style corrections in the entanglement-swap builtin).
//!
//! ```
//! use qutes_qcirc::Gate;
//!
//! let g = Gate::CX { control: 0, target: 1 };
//! assert_eq!(g.qubits(), vec![0, 1]);
//! assert_eq!(g.counter_name(), "gate.cx");
//! assert_eq!(Gate::H(0).inverse(), Some(Gate::H(0)));
//! ```

use qutes_sim::{Matrix2, Matrix4, Matrix8};
use std::fmt;

/// One circuit instruction.
#[derive(Clone, Debug, PartialEq)]
pub enum Gate {
    /// Hadamard.
    H(usize),
    /// Pauli-X.
    X(usize),
    /// Pauli-Y.
    Y(usize),
    /// Pauli-Z.
    Z(usize),
    /// S (sqrt Z).
    S(usize),
    /// S-dagger.
    Sdg(usize),
    /// T (fourth root of Z).
    T(usize),
    /// T-dagger.
    Tdg(usize),
    /// sqrt(X).
    SX(usize),
    /// Inverse of sqrt(X).
    SXdg(usize),
    /// Phase gate `diag(1, e^{i lambda})`.
    Phase {
        /// Target qubit.
        target: usize,
        /// Phase angle.
        lambda: f64,
    },
    /// X-rotation.
    RX {
        /// Target qubit.
        target: usize,
        /// Rotation angle.
        theta: f64,
    },
    /// Y-rotation.
    RY {
        /// Target qubit.
        target: usize,
        /// Rotation angle.
        theta: f64,
    },
    /// Z-rotation.
    RZ {
        /// Target qubit.
        target: usize,
        /// Rotation angle.
        theta: f64,
    },
    /// General single-qubit unitary `U(theta, phi, lambda)`.
    U {
        /// Target qubit.
        target: usize,
        /// Polar angle.
        theta: f64,
        /// First phase.
        phi: f64,
        /// Second phase.
        lambda: f64,
    },
    /// Controlled-X (CNOT).
    CX {
        /// Control qubit.
        control: usize,
        /// Target qubit.
        target: usize,
    },
    /// Controlled-Y.
    CY {
        /// Control qubit.
        control: usize,
        /// Target qubit.
        target: usize,
    },
    /// Controlled-Z.
    CZ {
        /// Control qubit.
        control: usize,
        /// Target qubit.
        target: usize,
    },
    /// Controlled phase gate.
    CPhase {
        /// Control qubit.
        control: usize,
        /// Target qubit.
        target: usize,
        /// Phase angle.
        lambda: f64,
    },
    /// Toffoli (CCX).
    CCX {
        /// First control.
        c0: usize,
        /// Second control.
        c1: usize,
        /// Target qubit.
        target: usize,
    },
    /// Multi-controlled X with any number of controls.
    MCX {
        /// Control qubits (all must be |1>).
        controls: Vec<usize>,
        /// Target qubit.
        target: usize,
    },
    /// Multi-controlled phase: applies `e^{i lambda}` when all listed
    /// qubits (controls and target alike — the gate is symmetric) are |1>.
    MCPhase {
        /// Control qubits.
        controls: Vec<usize>,
        /// Target qubit.
        target: usize,
        /// Phase angle.
        lambda: f64,
    },
    /// SWAP.
    Swap {
        /// First qubit.
        a: usize,
        /// Second qubit.
        b: usize,
    },
    /// Controlled SWAP (Fredkin).
    CSwap {
        /// Control qubit.
        control: usize,
        /// First swapped qubit.
        a: usize,
        /// Second swapped qubit.
        b: usize,
    },
    /// Measures `qubit` into classical bit `clbit` (collapsing).
    Measure {
        /// Measured qubit.
        qubit: usize,
        /// Destination classical bit.
        clbit: usize,
    },
    /// Resets a qubit to |0> (measure-and-flip; non-unitary).
    Reset(usize),
    /// Scheduling barrier over the listed qubits (all qubits if empty).
    Barrier(Vec<usize>),
    /// Applies `gate` only if classical bit `clbit` equals `value`
    /// (Qiskit's `c_if`). The inner gate must be unitary.
    Conditional {
        /// Classical bit inspected.
        clbit: usize,
        /// Required value.
        value: bool,
        /// Gate to apply when the condition holds.
        gate: Box<Gate>,
    },
    /// Global phase `e^{i theta}` on the whole state.
    GlobalPhase(f64),
    /// An arbitrary single-qubit unitary given as an explicit matrix.
    ///
    /// Produced by the optimizer's gate-fusion pass
    /// ([`mod@crate::optimize`]), which collapses runs of single-qubit gates
    /// into one matrix application; it can also be appended directly.
    /// The matrix is applied verbatim by the simulator and re-expressed
    /// via ZYZ decomposition for QASM export.
    Unitary {
        /// Target qubit.
        target: usize,
        /// The 2x2 unitary to apply.
        matrix: Matrix2,
    },
    /// An arbitrary two-qubit unitary given as an explicit 4x4 matrix
    /// over basis `|q1 q0>` (`q0` = bit 0 of the matrix index).
    ///
    /// Produced by the level-2 optimizer's multi-qubit fusion pass,
    /// which batches adjacent gates on ≤2 wires into one matrix consumed
    /// by the simulator's fused kernel; decomposed into standard gates
    /// for transpile/QASM export. Boxed to keep `Gate` small.
    Unitary2 {
        /// First wire (matrix bit 0).
        q0: usize,
        /// Second wire (matrix bit 1).
        q1: usize,
        /// The 4x4 unitary to apply.
        matrix: Box<Matrix4>,
    },
    /// An arbitrary three-qubit unitary given as an explicit 8x8 matrix
    /// over basis `|q2 q1 q0>` (`q0` = bit 0 of the matrix index).
    ///
    /// Produced by the level-2 optimizer's multi-qubit fusion pass;
    /// decomposed into standard gates for transpile/QASM export. Boxed
    /// to keep `Gate` small.
    Unitary3 {
        /// First wire (matrix bit 0).
        q0: usize,
        /// Second wire (matrix bit 1).
        q1: usize,
        /// Third wire (matrix bit 2).
        q2: usize,
        /// The 8x8 unitary to apply.
        matrix: Box<Matrix8>,
    },
}

impl Gate {
    /// The qubits this instruction touches, controls first.
    pub fn qubits(&self) -> Vec<usize> {
        let mut qs = Vec::with_capacity(self.num_qubits());
        self.for_each_qubit(|q| qs.push(q));
        qs
    }

    /// Calls `f` on each qubit of [`Gate::qubits`], in the same order,
    /// without allocating: the hot paths (circuit validation, depth, the
    /// optimizer) walk every gate's wires.
    ///
    /// ```
    /// use qutes_qcirc::Gate;
    ///
    /// let g = Gate::MCX { controls: vec![4, 1], target: 2 };
    /// let mut seen = Vec::new();
    /// g.for_each_qubit(|q| seen.push(q));
    /// assert_eq!(seen, [4, 1, 2]);
    /// assert_eq!(g.num_qubits(), 3);
    /// ```
    #[inline]
    pub fn for_each_qubit(&self, mut f: impl FnMut(usize)) {
        let (listed, fixed, k) = self.wire_parts();
        for &q in listed {
            f(q);
        }
        for &q in &fixed[..k] {
            f(q);
        }
    }

    /// The number of qubits this instruction touches.
    pub fn num_qubits(&self) -> usize {
        let (listed, _, k) = self.wire_parts();
        listed.len() + k
    }

    /// The qubits as a borrowed list followed by up to three inline
    /// ones: `(listed, fixed, k)` lists `listed` then `fixed[..k]`.
    fn wire_parts(&self) -> (&[usize], [usize; 3], usize) {
        use Gate::*;
        match self {
            H(q) | X(q) | Y(q) | Z(q) | S(q) | Sdg(q) | T(q) | Tdg(q) | SX(q) | SXdg(q)
            | Reset(q) => (&[], [*q, 0, 0], 1),
            Phase { target, .. }
            | RX { target, .. }
            | RY { target, .. }
            | RZ { target, .. }
            | U { target, .. }
            | Unitary { target, .. } => (&[], [*target, 0, 0], 1),
            CX { control, target }
            | CY { control, target }
            | CZ { control, target }
            | CPhase {
                control, target, ..
            } => (&[], [*control, *target, 0], 2),
            CCX { c0, c1, target } => (&[], [*c0, *c1, *target], 3),
            MCX { controls, target }
            | MCPhase {
                controls, target, ..
            } => (controls.as_slice(), [*target, 0, 0], 1),
            Swap { a, b } => (&[], [*a, *b, 0], 2),
            CSwap { control, a, b } => (&[], [*control, *a, *b], 3),
            Unitary2 { q0, q1, .. } => (&[], [*q0, *q1, 0], 2),
            Unitary3 { q0, q1, q2, .. } => (&[], [*q0, *q1, *q2], 3),
            Measure { qubit, .. } => (&[], [*qubit, 0, 0], 1),
            Barrier(qs) => (qs.as_slice(), [0; 3], 0),
            Conditional { gate, .. } => gate.wire_parts(),
            GlobalPhase(_) => (&[], [0; 3], 0),
        }
    }

    /// The classical bit this instruction touches, if any (no
    /// instruction touches more than one).
    pub fn clbit(&self) -> Option<usize> {
        match self {
            Gate::Measure { clbit, .. } | Gate::Conditional { clbit, .. } => Some(*clbit),
            _ => None,
        }
    }

    /// The classical bits this instruction touches.
    pub fn clbits(&self) -> Vec<usize> {
        self.clbit().into_iter().collect()
    }

    /// Lower-case mnemonic, matching OpenQASM where a counterpart exists.
    pub fn name(&self) -> &'static str {
        use Gate::*;
        match self {
            H(_) => "h",
            X(_) => "x",
            Y(_) => "y",
            Z(_) => "z",
            S(_) => "s",
            Sdg(_) => "sdg",
            T(_) => "t",
            Tdg(_) => "tdg",
            SX(_) => "sx",
            SXdg(_) => "sxdg",
            Phase { .. } => "p",
            RX { .. } => "rx",
            RY { .. } => "ry",
            RZ { .. } => "rz",
            U { .. } => "u",
            CX { .. } => "cx",
            CY { .. } => "cy",
            CZ { .. } => "cz",
            CPhase { .. } => "cp",
            CCX { .. } => "ccx",
            MCX { .. } => "mcx",
            MCPhase { .. } => "mcp",
            Swap { .. } => "swap",
            CSwap { .. } => "cswap",
            Measure { .. } => "measure",
            Reset(_) => "reset",
            Barrier(_) => "barrier",
            Conditional { .. } => "if",
            GlobalPhase(_) => "gphase",
            Unitary { .. } => "unitary",
            Unitary2 { .. } => "unitary2",
            Unitary3 { .. } => "unitary3",
        }
    }

    /// The observability counter name for this instruction:
    /// `gate.<mnemonic>` with the same mnemonic as [`Gate::name`]
    /// (e.g. `gate.h`, `gate.cx`, `gate.unitary`). The execution layer
    /// bumps this counter once per application when profiling is on.
    pub fn counter_name(&self) -> &'static str {
        use Gate::*;
        match self {
            H(_) => "gate.h",
            X(_) => "gate.x",
            Y(_) => "gate.y",
            Z(_) => "gate.z",
            S(_) => "gate.s",
            Sdg(_) => "gate.sdg",
            T(_) => "gate.t",
            Tdg(_) => "gate.tdg",
            SX(_) => "gate.sx",
            SXdg(_) => "gate.sxdg",
            Phase { .. } => "gate.p",
            RX { .. } => "gate.rx",
            RY { .. } => "gate.ry",
            RZ { .. } => "gate.rz",
            U { .. } => "gate.u",
            CX { .. } => "gate.cx",
            CY { .. } => "gate.cy",
            CZ { .. } => "gate.cz",
            CPhase { .. } => "gate.cp",
            CCX { .. } => "gate.ccx",
            MCX { .. } => "gate.mcx",
            MCPhase { .. } => "gate.mcp",
            Swap { .. } => "gate.swap",
            CSwap { .. } => "gate.cswap",
            Measure { .. } => "gate.measure",
            Reset(_) => "gate.reset",
            Barrier(_) => "gate.barrier",
            Conditional { .. } => "gate.if",
            GlobalPhase(_) => "gate.gphase",
            Unitary { .. } => "gate.unitary",
            Unitary2 { .. } => "gate.unitary2",
            Unitary3 { .. } => "gate.unitary3",
        }
    }

    /// True when the instruction is expressible in the stabilizer
    /// formalism, i.e. executable on the Clifford tableau backend: the
    /// Clifford group generators and compositions (H, S, S†, X, Y, Z,
    /// CX, CY, CZ, SWAP), plus measurement, reset, barriers, global
    /// phase, and conditionals whose body is itself Clifford.
    ///
    /// Deliberately conservative: gates that are Clifford only for
    /// special parameter values (`Phase(±π/2)`, fused `Unitary` products
    /// of Cliffords, SX up to global phase) report `false`, so a `true`
    /// answer is always a soundness guarantee, never a numeric judgement
    /// on floats.
    pub fn is_clifford(&self) -> bool {
        use Gate::*;
        match self {
            H(_)
            | X(_)
            | Y(_)
            | Z(_)
            | S(_)
            | Sdg(_)
            | CX { .. }
            | CY { .. }
            | CZ { .. }
            | Swap { .. }
            | Measure { .. }
            | Reset(_)
            | Barrier(_)
            | GlobalPhase(_) => true,
            Conditional { gate, .. } => gate.is_clifford(),
            _ => false,
        }
    }

    /// True for instructions with a unitary action (everything except
    /// measurement, reset and barriers).
    pub fn is_unitary(&self) -> bool {
        !matches!(
            self,
            Gate::Measure { .. } | Gate::Reset(_) | Gate::Barrier(_)
        )
    }

    /// The inverse instruction, if the gate is unitary.
    pub fn inverse(&self) -> Option<Gate> {
        use Gate::*;
        Some(match self {
            H(q) => H(*q),
            X(q) => X(*q),
            Y(q) => Y(*q),
            Z(q) => Z(*q),
            S(q) => Sdg(*q),
            Sdg(q) => S(*q),
            T(q) => Tdg(*q),
            Tdg(q) => T(*q),
            SX(q) => SXdg(*q),
            SXdg(q) => SX(*q),
            Phase { target, lambda } => Phase {
                target: *target,
                lambda: -lambda,
            },
            RX { target, theta } => RX {
                target: *target,
                theta: -theta,
            },
            RY { target, theta } => RY {
                target: *target,
                theta: -theta,
            },
            RZ { target, theta } => RZ {
                target: *target,
                theta: -theta,
            },
            U {
                target,
                theta,
                phi,
                lambda,
            } => U {
                target: *target,
                theta: -theta,
                phi: -lambda,
                lambda: -phi,
            },
            CX { control, target } => CX {
                control: *control,
                target: *target,
            },
            CY { control, target } => CY {
                control: *control,
                target: *target,
            },
            CZ { control, target } => CZ {
                control: *control,
                target: *target,
            },
            CPhase {
                control,
                target,
                lambda,
            } => CPhase {
                control: *control,
                target: *target,
                lambda: -lambda,
            },
            CCX { c0, c1, target } => CCX {
                c0: *c0,
                c1: *c1,
                target: *target,
            },
            MCX { controls, target } => MCX {
                controls: controls.clone(),
                target: *target,
            },
            MCPhase {
                controls,
                target,
                lambda,
            } => MCPhase {
                controls: controls.clone(),
                target: *target,
                lambda: -lambda,
            },
            Swap { a, b } => Swap { a: *a, b: *b },
            CSwap { control, a, b } => CSwap {
                control: *control,
                a: *a,
                b: *b,
            },
            Conditional { clbit, value, gate } => Conditional {
                clbit: *clbit,
                value: *value,
                gate: Box::new(gate.inverse()?),
            },
            GlobalPhase(t) => GlobalPhase(-t),
            Unitary { target, matrix } => Unitary {
                target: *target,
                matrix: matrix.adjoint(),
            },
            Unitary2 { q0, q1, matrix } => Unitary2 {
                q0: *q0,
                q1: *q1,
                matrix: Box::new(matrix.adjoint()),
            },
            Unitary3 { q0, q1, q2, matrix } => Unitary3 {
                q0: *q0,
                q1: *q1,
                q2: *q2,
                matrix: Box::new(matrix.adjoint()),
            },
            Measure { .. } | Reset(_) | Barrier(_) => return None,
        })
    }

    /// Adds one more control to the gate, producing the controlled variant.
    /// Returns `None` for non-unitary instructions and barriers.
    pub fn controlled(&self, control: usize) -> Option<Gate> {
        use Gate::*;
        Some(match self {
            X(q) => CX {
                control,
                target: *q,
            },
            Y(q) => CY {
                control,
                target: *q,
            },
            Z(q) => CZ {
                control,
                target: *q,
            },
            Phase { target, lambda } => CPhase {
                control,
                target: *target,
                lambda: *lambda,
            },
            S(q) => CPhase {
                control,
                target: *q,
                lambda: std::f64::consts::FRAC_PI_2,
            },
            Sdg(q) => CPhase {
                control,
                target: *q,
                lambda: -std::f64::consts::FRAC_PI_2,
            },
            T(q) => CPhase {
                control,
                target: *q,
                lambda: std::f64::consts::FRAC_PI_4,
            },
            Tdg(q) => CPhase {
                control,
                target: *q,
                lambda: -std::f64::consts::FRAC_PI_4,
            },
            CX { control: c, target } => CCX {
                c0: control,
                c1: *c,
                target: *target,
            },
            CCX { c0, c1, target } => MCX {
                controls: vec![control, *c0, *c1],
                target: *target,
            },
            MCX { controls, target } => {
                let mut cs = vec![control];
                cs.extend_from_slice(controls);
                MCX {
                    controls: cs,
                    target: *target,
                }
            }
            CZ { control: c, target } => MCPhase {
                controls: vec![control, *c],
                target: *target,
                lambda: std::f64::consts::PI,
            },
            CPhase {
                control: c,
                target,
                lambda,
            } => MCPhase {
                controls: vec![control, *c],
                target: *target,
                lambda: *lambda,
            },
            MCPhase {
                controls,
                target,
                lambda,
            } => {
                let mut cs = vec![control];
                cs.extend_from_slice(controls);
                MCPhase {
                    controls: cs,
                    target: *target,
                    lambda: *lambda,
                }
            }
            Swap { a, b } => CSwap {
                control,
                a: *a,
                b: *b,
            },
            GlobalPhase(t) => Phase {
                target: control,
                lambda: *t,
            },
            // Remaining unitaries have no named controlled form in the IR;
            // callers should decompose first.
            _ => return None,
        })
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Gate::*;
        match self {
            Phase { target, lambda } => write!(f, "p({lambda}) q[{target}]"),
            RX { target, theta } => write!(f, "rx({theta}) q[{target}]"),
            RY { target, theta } => write!(f, "ry({theta}) q[{target}]"),
            RZ { target, theta } => write!(f, "rz({theta}) q[{target}]"),
            U {
                target,
                theta,
                phi,
                lambda,
            } => write!(f, "u({theta},{phi},{lambda}) q[{target}]"),
            CPhase {
                control,
                target,
                lambda,
            } => write!(f, "cp({lambda}) q[{control}],q[{target}]"),
            MCPhase {
                controls,
                target,
                lambda,
            } => write!(f, "mcp({lambda}) {controls:?},q[{target}]"),
            Measure { qubit, clbit } => write!(f, "measure q[{qubit}] -> c[{clbit}]"),
            Conditional { clbit, value, gate } => {
                write!(f, "if (c[{clbit}]=={}) {gate}", *value as u8)
            }
            GlobalPhase(t) => write!(f, "gphase({t})"),
            other => {
                write!(f, "{}", other.name())?;
                let qs = other.qubits();
                if !qs.is_empty() {
                    write!(f, " ")?;
                    for (i, q) in qs.iter().enumerate() {
                        if i > 0 {
                            write!(f, ",")?;
                        }
                        write!(f, "q[{q}]")?;
                    }
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qubits_reports_controls_first() {
        assert_eq!(
            Gate::CX {
                control: 3,
                target: 1
            }
            .qubits(),
            vec![3, 1]
        );
        assert_eq!(
            Gate::MCX {
                controls: vec![0, 2],
                target: 4
            }
            .qubits(),
            vec![0, 2, 4]
        );
        assert_eq!(Gate::GlobalPhase(1.0).qubits(), Vec::<usize>::new());
    }

    #[test]
    fn qubit_walk_lists_every_variant_in_order() {
        use qutes_sim::Matrix2;
        let cases: Vec<(Gate, Vec<usize>)> = vec![
            (Gate::H(3), vec![3]),
            (Gate::X(1), vec![1]),
            (Gate::Y(2), vec![2]),
            (Gate::Z(0), vec![0]),
            (Gate::S(4), vec![4]),
            (Gate::Sdg(4), vec![4]),
            (Gate::T(5), vec![5]),
            (Gate::Tdg(5), vec![5]),
            (Gate::SX(6), vec![6]),
            (Gate::SXdg(6), vec![6]),
            (
                Gate::Phase {
                    target: 7,
                    lambda: 0.1,
                },
                vec![7],
            ),
            (
                Gate::RX {
                    target: 1,
                    theta: 0.2,
                },
                vec![1],
            ),
            (
                Gate::RY {
                    target: 2,
                    theta: 0.3,
                },
                vec![2],
            ),
            (
                Gate::RZ {
                    target: 3,
                    theta: 0.4,
                },
                vec![3],
            ),
            (
                Gate::U {
                    target: 4,
                    theta: 0.1,
                    phi: 0.2,
                    lambda: 0.3,
                },
                vec![4],
            ),
            (
                Gate::CX {
                    control: 5,
                    target: 1,
                },
                vec![5, 1],
            ),
            (
                Gate::CY {
                    control: 0,
                    target: 2,
                },
                vec![0, 2],
            ),
            (
                Gate::CZ {
                    control: 3,
                    target: 2,
                },
                vec![3, 2],
            ),
            (
                Gate::CPhase {
                    control: 4,
                    target: 0,
                    lambda: 0.5,
                },
                vec![4, 0],
            ),
            (
                Gate::CCX {
                    c0: 2,
                    c1: 0,
                    target: 1,
                },
                vec![2, 0, 1],
            ),
            (
                Gate::MCX {
                    controls: vec![4, 0, 3],
                    target: 1,
                },
                vec![4, 0, 3, 1],
            ),
            (
                Gate::MCPhase {
                    controls: vec![2, 5],
                    target: 0,
                    lambda: 0.6,
                },
                vec![2, 5, 0],
            ),
            (Gate::Swap { a: 3, b: 1 }, vec![3, 1]),
            (
                Gate::CSwap {
                    control: 2,
                    a: 0,
                    b: 4,
                },
                vec![2, 0, 4],
            ),
            (Gate::Measure { qubit: 6, clbit: 2 }, vec![6]),
            (Gate::Reset(7), vec![7]),
            (Gate::Barrier(vec![]), vec![]),
            (Gate::Barrier(vec![5, 2, 8]), vec![5, 2, 8]),
            (
                Gate::Conditional {
                    clbit: 1,
                    value: true,
                    gate: Box::new(Gate::CCX {
                        c0: 3,
                        c1: 4,
                        target: 0,
                    }),
                },
                vec![3, 4, 0],
            ),
            (Gate::GlobalPhase(0.7), vec![]),
            (
                Gate::Unitary {
                    target: 2,
                    matrix: Matrix2::IDENTITY,
                },
                vec![2],
            ),
            (
                Gate::Unitary2 {
                    q0: 4,
                    q1: 1,
                    matrix: Box::new(Matrix4::identity()),
                },
                vec![4, 1],
            ),
            (
                Gate::Unitary3 {
                    q0: 0,
                    q1: 5,
                    q2: 3,
                    matrix: Box::new(Matrix8::identity()),
                },
                vec![0, 5, 3],
            ),
        ];
        for (g, want) in &cases {
            let mut walked = Vec::new();
            g.for_each_qubit(|q| walked.push(q));
            assert_eq!(walked, *want, "{g:?}");
            assert_eq!(g.qubits(), *want, "{g:?}");
            assert_eq!(g.num_qubits(), want.len(), "{g:?}");
            let clbit = match g {
                Gate::Measure { clbit, .. } | Gate::Conditional { clbit, .. } => Some(*clbit),
                _ => None,
            };
            assert_eq!(g.clbit(), clbit, "{g:?}");
            assert_eq!(g.clbits(), clbit.into_iter().collect::<Vec<_>>(), "{g:?}");
        }
    }

    #[test]
    fn inverse_of_self_inverse_gates() {
        for g in [Gate::H(0), Gate::X(1), Gate::Y(2), Gate::Z(0)] {
            assert_eq!(g.inverse().unwrap(), g);
        }
        assert_eq!(Gate::S(0).inverse().unwrap(), Gate::Sdg(0));
        assert_eq!(Gate::T(0).inverse().unwrap(), Gate::Tdg(0));
    }

    #[test]
    fn inverse_negates_angles() {
        let g = Gate::RX {
            target: 0,
            theta: 0.5,
        };
        assert_eq!(
            g.inverse().unwrap(),
            Gate::RX {
                target: 0,
                theta: -0.5
            }
        );
        let u = Gate::U {
            target: 1,
            theta: 0.1,
            phi: 0.2,
            lambda: 0.3,
        };
        assert_eq!(
            u.inverse().unwrap(),
            Gate::U {
                target: 1,
                theta: -0.1,
                phi: -0.3,
                lambda: -0.2
            }
        );
    }

    #[test]
    fn non_unitary_have_no_inverse() {
        assert!(Gate::Measure { qubit: 0, clbit: 0 }.inverse().is_none());
        assert!(Gate::Reset(0).inverse().is_none());
        assert!(Gate::Barrier(vec![]).inverse().is_none());
        assert!(!Gate::Reset(0).is_unitary());
        assert!(Gate::H(0).is_unitary());
    }

    #[test]
    fn controlled_ladder_x() {
        let x = Gate::X(5);
        let cx = x.controlled(0).unwrap();
        assert_eq!(
            cx,
            Gate::CX {
                control: 0,
                target: 5
            }
        );
        let ccx = cx.controlled(1).unwrap();
        assert_eq!(
            ccx,
            Gate::CCX {
                c0: 1,
                c1: 0,
                target: 5
            }
        );
        let mcx = ccx.controlled(2).unwrap();
        assert_eq!(
            mcx,
            Gate::MCX {
                controls: vec![2, 1, 0],
                target: 5
            }
        );
        let mcx2 = mcx.controlled(3).unwrap();
        assert_eq!(mcx2.qubits(), vec![3, 2, 1, 0, 5]);
    }

    #[test]
    fn controlled_z_ladder_uses_phase() {
        let z = Gate::Z(2);
        let cz = z.controlled(0).unwrap();
        assert_eq!(
            cz,
            Gate::CZ {
                control: 0,
                target: 2
            }
        );
        let ccz = cz.controlled(1).unwrap();
        assert!(
            matches!(ccz, Gate::MCPhase { ref controls, target: 2, lambda }
            if controls == &vec![1, 0] && (lambda - std::f64::consts::PI).abs() < 1e-12)
        );
    }

    #[test]
    fn conditional_wraps_inverse() {
        let g = Gate::Conditional {
            clbit: 0,
            value: true,
            gate: Box::new(Gate::S(1)),
        };
        let inv = g.inverse().unwrap();
        assert_eq!(
            inv,
            Gate::Conditional {
                clbit: 0,
                value: true,
                gate: Box::new(Gate::Sdg(1)),
            }
        );
        assert_eq!(g.clbits(), vec![0]);
        assert_eq!(g.qubits(), vec![1]);
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(Gate::H(0).to_string(), "h q[0]");
        assert_eq!(
            Gate::CX {
                control: 0,
                target: 1
            }
            .to_string(),
            "cx q[0],q[1]"
        );
        assert_eq!(
            Gate::Measure { qubit: 2, clbit: 3 }.to_string(),
            "measure q[2] -> c[3]"
        );
    }
}
