//! The `QuantumCircuit` builder — the IR the Qutes compiler lowers into,
//! playing the role Qiskit's `QuantumCircuit` plays in the paper.
//!
//! ```
//! use qutes_qcirc::QuantumCircuit;
//!
//! let mut c = QuantumCircuit::with_qubits(2);
//! c.h(0).unwrap().cx(0, 1).unwrap();
//! assert_eq!(c.len(), 2);
//! assert_eq!(c.num_qubits(), 2);
//! ```

use crate::error::{CircError, CircResult};
use crate::gate::Gate;
use crate::register::{ClassicalRegister, QuantumRegister};
use std::fmt;

/// An ordered list of [`Gate`] instructions over a qubit/clbit index space,
/// with named registers carving that space into variables.
#[derive(Clone, Debug, Default)]
pub struct QuantumCircuit {
    num_qubits: usize,
    num_clbits: usize,
    ops: Vec<Gate>,
    qregs: Vec<QuantumRegister>,
    cregs: Vec<ClassicalRegister>,
    name: String,
}

impl QuantumCircuit {
    /// An empty circuit with no qubits; grow it with
    /// [`QuantumCircuit::add_qreg`] as variables are declared.
    pub fn new() -> Self {
        QuantumCircuit {
            name: "circuit".into(),
            ..Default::default()
        }
    }

    /// A circuit with `n` anonymous qubits (register `q`) and no clbits.
    pub fn with_qubits(n: usize) -> Self {
        let mut c = Self::new();
        c.add_qreg("q", n);
        c
    }

    /// A circuit with `n` qubits (register `q`) and `m` clbits (register `c`).
    pub fn with_qubits_and_clbits(n: usize, m: usize) -> Self {
        let mut c = Self::with_qubits(n);
        c.add_creg("c", m);
        c
    }

    /// Sets a display name (used in QASM comments and debug output).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// The circuit's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a new quantum register of `size` qubits; the circuit grows.
    /// Register names are made unique by suffixing when they collide.
    pub fn add_qreg(&mut self, name: impl Into<String>, size: usize) -> QuantumRegister {
        let mut name = name.into();
        if self.qregs.iter().any(|r| r.name() == name) {
            let mut k = 1;
            while self.qregs.iter().any(|r| r.name() == format!("{name}_{k}")) {
                k += 1;
            }
            name = format!("{name}_{k}");
        }
        let reg = QuantumRegister::new(name, self.num_qubits, size);
        self.num_qubits += size;
        self.qregs.push(reg.clone());
        reg
    }

    /// Appends a new classical register of `size` bits.
    pub fn add_creg(&mut self, name: impl Into<String>, size: usize) -> ClassicalRegister {
        let mut name = name.into();
        if self.cregs.iter().any(|r| r.name() == name) {
            let mut k = 1;
            while self.cregs.iter().any(|r| r.name() == format!("{name}_{k}")) {
                k += 1;
            }
            name = format!("{name}_{k}");
        }
        let reg = ClassicalRegister::new(name, self.num_clbits, size);
        self.num_clbits += size;
        self.cregs.push(reg.clone());
        reg
    }

    /// Total number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Total number of classical bits.
    pub fn num_clbits(&self) -> usize {
        self.num_clbits
    }

    /// The quantum registers, in declaration order.
    pub fn qregs(&self) -> &[QuantumRegister] {
        &self.qregs
    }

    /// The classical registers, in declaration order.
    pub fn cregs(&self) -> &[ClassicalRegister] {
        &self.cregs
    }

    /// The instruction list.
    pub fn ops(&self) -> &[Gate] {
        &self.ops
    }

    /// Number of instructions (barriers included).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when no instruction has been appended.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    fn check_gate(&self, g: &Gate) -> CircResult<()> {
        let mut out_of_range = None;
        g.for_each_qubit(|q| {
            if q >= self.num_qubits {
                out_of_range.get_or_insert(q);
            }
        });
        if let Some(qubit) = out_of_range {
            return Err(CircError::QubitOutOfRange {
                qubit,
                num_qubits: self.num_qubits,
            });
        }
        if let Some(c) = g.clbit() {
            if c >= self.num_clbits {
                return Err(CircError::ClbitOutOfRange {
                    clbit: c,
                    num_clbits: self.num_clbits,
                });
            }
        }
        // The first qubit, in order, that is listed again later: the
        // first one listed more than once, since a qubit's first listing
        // precedes its repeats.
        let mut duplicate = None;
        g.for_each_qubit(|a| {
            if duplicate.is_none() {
                let mut count = 0;
                g.for_each_qubit(|b| count += usize::from(b == a));
                if count > 1 {
                    duplicate = Some(a);
                }
            }
        });
        match duplicate {
            Some(a) => Err(CircError::DuplicateQubit(a)),
            None => Ok(()),
        }
    }

    /// Appends a validated instruction.
    pub fn append(&mut self, g: Gate) -> CircResult<()> {
        self.check_gate(&g)?;
        self.ops.push(g);
        Ok(())
    }

    // ---- fluent gate helpers -------------------------------------------

    /// Hadamard on `q`.
    pub fn h(&mut self, q: usize) -> CircResult<&mut Self> {
        self.append(Gate::H(q))?;
        Ok(self)
    }

    /// Pauli-X on `q`.
    pub fn x(&mut self, q: usize) -> CircResult<&mut Self> {
        self.append(Gate::X(q))?;
        Ok(self)
    }

    /// Pauli-Y on `q`.
    pub fn y(&mut self, q: usize) -> CircResult<&mut Self> {
        self.append(Gate::Y(q))?;
        Ok(self)
    }

    /// Pauli-Z on `q`.
    pub fn z(&mut self, q: usize) -> CircResult<&mut Self> {
        self.append(Gate::Z(q))?;
        Ok(self)
    }

    /// S gate on `q`.
    pub fn s(&mut self, q: usize) -> CircResult<&mut Self> {
        self.append(Gate::S(q))?;
        Ok(self)
    }

    /// S-dagger on `q`.
    pub fn sdg(&mut self, q: usize) -> CircResult<&mut Self> {
        self.append(Gate::Sdg(q))?;
        Ok(self)
    }

    /// T gate on `q`.
    pub fn t(&mut self, q: usize) -> CircResult<&mut Self> {
        self.append(Gate::T(q))?;
        Ok(self)
    }

    /// T-dagger on `q`.
    pub fn tdg(&mut self, q: usize) -> CircResult<&mut Self> {
        self.append(Gate::Tdg(q))?;
        Ok(self)
    }

    /// sqrt(X) on `q`.
    pub fn sx(&mut self, q: usize) -> CircResult<&mut Self> {
        self.append(Gate::SX(q))?;
        Ok(self)
    }

    /// Phase gate on `q`.
    pub fn p(&mut self, lambda: f64, q: usize) -> CircResult<&mut Self> {
        self.append(Gate::Phase { target: q, lambda })?;
        Ok(self)
    }

    /// X-rotation on `q`.
    pub fn rx(&mut self, theta: f64, q: usize) -> CircResult<&mut Self> {
        self.append(Gate::RX { target: q, theta })?;
        Ok(self)
    }

    /// Y-rotation on `q`.
    pub fn ry(&mut self, theta: f64, q: usize) -> CircResult<&mut Self> {
        self.append(Gate::RY { target: q, theta })?;
        Ok(self)
    }

    /// Z-rotation on `q`.
    pub fn rz(&mut self, theta: f64, q: usize) -> CircResult<&mut Self> {
        self.append(Gate::RZ { target: q, theta })?;
        Ok(self)
    }

    /// General single-qubit unitary on `q`.
    pub fn u(&mut self, theta: f64, phi: f64, lambda: f64, q: usize) -> CircResult<&mut Self> {
        self.append(Gate::U {
            target: q,
            theta,
            phi,
            lambda,
        })?;
        Ok(self)
    }

    /// CNOT.
    pub fn cx(&mut self, control: usize, target: usize) -> CircResult<&mut Self> {
        self.append(Gate::CX { control, target })?;
        Ok(self)
    }

    /// Controlled-Y.
    pub fn cy(&mut self, control: usize, target: usize) -> CircResult<&mut Self> {
        self.append(Gate::CY { control, target })?;
        Ok(self)
    }

    /// Controlled-Z.
    pub fn cz(&mut self, control: usize, target: usize) -> CircResult<&mut Self> {
        self.append(Gate::CZ { control, target })?;
        Ok(self)
    }

    /// Controlled phase.
    pub fn cp(&mut self, lambda: f64, control: usize, target: usize) -> CircResult<&mut Self> {
        self.append(Gate::CPhase {
            control,
            target,
            lambda,
        })?;
        Ok(self)
    }

    /// Toffoli.
    pub fn ccx(&mut self, c0: usize, c1: usize, target: usize) -> CircResult<&mut Self> {
        self.append(Gate::CCX { c0, c1, target })?;
        Ok(self)
    }

    /// Multi-controlled X. One control degenerates to CX, two to CCX.
    pub fn mcx(&mut self, controls: &[usize], target: usize) -> CircResult<&mut Self> {
        let g = match controls.len() {
            0 => Gate::X(target),
            1 => Gate::CX {
                control: controls[0],
                target,
            },
            2 => Gate::CCX {
                c0: controls[0],
                c1: controls[1],
                target,
            },
            _ => Gate::MCX {
                controls: controls.to_vec(),
                target,
            },
        };
        self.append(g)?;
        Ok(self)
    }

    /// Multi-controlled Z (an MCPhase of pi).
    pub fn mcz(&mut self, controls: &[usize], target: usize) -> CircResult<&mut Self> {
        self.mcp(std::f64::consts::PI, controls, target)
    }

    /// Multi-controlled phase.
    pub fn mcp(&mut self, lambda: f64, controls: &[usize], target: usize) -> CircResult<&mut Self> {
        let g = match controls.len() {
            0 => Gate::Phase { target, lambda },
            1 => Gate::CPhase {
                control: controls[0],
                target,
                lambda,
            },
            _ => Gate::MCPhase {
                controls: controls.to_vec(),
                target,
                lambda,
            },
        };
        self.append(g)?;
        Ok(self)
    }

    /// SWAP.
    pub fn swap(&mut self, a: usize, b: usize) -> CircResult<&mut Self> {
        self.append(Gate::Swap { a, b })?;
        Ok(self)
    }

    /// Fredkin (controlled SWAP).
    pub fn cswap(&mut self, control: usize, a: usize, b: usize) -> CircResult<&mut Self> {
        self.append(Gate::CSwap { control, a, b })?;
        Ok(self)
    }

    /// Measurement of `qubit` into `clbit`.
    pub fn measure(&mut self, qubit: usize, clbit: usize) -> CircResult<&mut Self> {
        self.append(Gate::Measure { qubit, clbit })?;
        Ok(self)
    }

    /// Measures an entire quantum register into a classical register of the
    /// same length (bit `i` of `creg` receives qubit `i` of `qreg`).
    pub fn measure_register(
        &mut self,
        qreg: &QuantumRegister,
        creg: &ClassicalRegister,
    ) -> CircResult<&mut Self> {
        if qreg.len() != creg.len() {
            return Err(CircError::RegisterSizeMismatch {
                qubits: qreg.len(),
                clbits: creg.len(),
            });
        }
        for i in 0..qreg.len() {
            self.measure(qreg.qubit(i), creg.bit(i))?;
        }
        Ok(self)
    }

    /// Reset `qubit` to |0>.
    pub fn reset(&mut self, qubit: usize) -> CircResult<&mut Self> {
        self.append(Gate::Reset(qubit))?;
        Ok(self)
    }

    /// Barrier over `qubits` (or all when empty).
    pub fn barrier(&mut self, qubits: &[usize]) -> CircResult<&mut Self> {
        self.append(Gate::Barrier(qubits.to_vec()))?;
        Ok(self)
    }

    /// Classically conditioned gate (`c_if`).
    pub fn c_if(&mut self, clbit: usize, value: bool, gate: Gate) -> CircResult<&mut Self> {
        if !gate.is_unitary() {
            return Err(CircError::NonUnitary(gate.name()));
        }
        self.append(Gate::Conditional {
            clbit,
            value,
            gate: Box::new(gate),
        })?;
        Ok(self)
    }

    /// Global phase.
    pub fn gphase(&mut self, theta: f64) -> CircResult<&mut Self> {
        self.append(Gate::GlobalPhase(theta))?;
        Ok(self)
    }

    // ---- whole-circuit operations --------------------------------------

    /// Appends every instruction of `other`, relocating its qubit `i` to
    /// `qubit_map[i]` and clbit `j` to `clbit_map[j]`.
    pub fn compose(
        &mut self,
        other: &QuantumCircuit,
        qubit_map: &[usize],
        clbit_map: &[usize],
    ) -> CircResult<()> {
        if qubit_map.len() != other.num_qubits {
            return Err(CircError::MapSizeMismatch {
                expected: other.num_qubits,
                got: qubit_map.len(),
            });
        }
        if clbit_map.len() != other.num_clbits {
            return Err(CircError::MapSizeMismatch {
                expected: other.num_clbits,
                got: clbit_map.len(),
            });
        }
        for g in &other.ops {
            let mapped = remap_gate(g, qubit_map, clbit_map);
            self.append(mapped)?;
        }
        Ok(())
    }

    /// The inverse circuit (reversed instruction order, each gate
    /// inverted). Fails if any instruction is non-unitary.
    pub fn inverse(&self) -> CircResult<QuantumCircuit> {
        let mut inv = QuantumCircuit {
            num_qubits: self.num_qubits,
            num_clbits: self.num_clbits,
            ops: Vec::with_capacity(self.ops.len()),
            qregs: self.qregs.clone(),
            cregs: self.cregs.clone(),
            name: format!("{}_dg", self.name),
        };
        for g in self.ops.iter().rev() {
            let ig = g.inverse().ok_or(CircError::NonUnitary(g.name()))?;
            inv.ops.push(ig);
        }
        Ok(inv)
    }

    /// A controlled version of this circuit: every gate gains `control`
    /// (which must be a qubit index in the *enclosing* space, disjoint from
    /// this circuit's own). Fails on non-unitary or non-controllable gates;
    /// decompose to the basis first for the general case.
    pub fn controlled(&self, control: usize) -> CircResult<QuantumCircuit> {
        let mut out = self.clone();
        out.name = format!("c_{}", self.name);
        out.num_qubits = out.num_qubits.max(control + 1);
        out.ops.clear();
        for g in &self.ops {
            match g {
                Gate::Barrier(_) => out.ops.push(g.clone()),
                _ => {
                    let cg = g
                        .controlled(control)
                        .ok_or(CircError::NotControllable(g.name()))?;
                    out.ops.push(cg);
                }
            }
        }
        Ok(out)
    }

    /// A copy with the same registers/widths and `ops` as its
    /// instructions, which are not validated again: each must be derived
    /// from instructions this circuit already validated, on their qubits
    /// and clbits (the optimizer's rewrites).
    pub(crate) fn with_derived_ops(&self, ops: Vec<Gate>) -> QuantumCircuit {
        debug_assert!(ops.iter().all(|g| self.check_gate(g).is_ok()));
        QuantumCircuit {
            ops,
            ..self.clone_structure()
        }
    }

    /// A copy with the same registers/widths but no instructions.
    pub fn clone_structure(&self) -> QuantumCircuit {
        QuantumCircuit {
            num_qubits: self.num_qubits,
            num_clbits: self.num_clbits,
            ops: Vec::new(),
            qregs: self.qregs.clone(),
            cregs: self.cregs.clone(),
            name: self.name.clone(),
        }
    }

    /// Appends `other` onto the same qubits/clbits (identity mapping).
    pub fn extend(&mut self, other: &QuantumCircuit) -> CircResult<()> {
        let qmap: Vec<usize> = (0..other.num_qubits).collect();
        let cmap: Vec<usize> = (0..other.num_clbits).collect();
        if other.num_qubits > self.num_qubits || other.num_clbits > self.num_clbits {
            return Err(CircError::MapSizeMismatch {
                expected: self.num_qubits,
                got: other.num_qubits,
            });
        }
        self.compose(other, &qmap, &cmap)
    }
}

/// Applies index maps to a gate, producing the relocated gate.
pub fn remap_gate(g: &Gate, qmap: &[usize], cmap: &[usize]) -> Gate {
    use Gate::*;
    let q = |i: usize| qmap[i];
    match g {
        H(a) => H(q(*a)),
        X(a) => X(q(*a)),
        Y(a) => Y(q(*a)),
        Z(a) => Z(q(*a)),
        S(a) => S(q(*a)),
        Sdg(a) => Sdg(q(*a)),
        T(a) => T(q(*a)),
        Tdg(a) => Tdg(q(*a)),
        SX(a) => SX(q(*a)),
        SXdg(a) => SXdg(q(*a)),
        Phase { target, lambda } => Phase {
            target: q(*target),
            lambda: *lambda,
        },
        RX { target, theta } => RX {
            target: q(*target),
            theta: *theta,
        },
        RY { target, theta } => RY {
            target: q(*target),
            theta: *theta,
        },
        RZ { target, theta } => RZ {
            target: q(*target),
            theta: *theta,
        },
        U {
            target,
            theta,
            phi,
            lambda,
        } => U {
            target: q(*target),
            theta: *theta,
            phi: *phi,
            lambda: *lambda,
        },
        CX { control, target } => CX {
            control: q(*control),
            target: q(*target),
        },
        CY { control, target } => CY {
            control: q(*control),
            target: q(*target),
        },
        CZ { control, target } => CZ {
            control: q(*control),
            target: q(*target),
        },
        CPhase {
            control,
            target,
            lambda,
        } => CPhase {
            control: q(*control),
            target: q(*target),
            lambda: *lambda,
        },
        CCX { c0, c1, target } => CCX {
            c0: q(*c0),
            c1: q(*c1),
            target: q(*target),
        },
        MCX { controls, target } => MCX {
            controls: controls.iter().map(|&c| q(c)).collect(),
            target: q(*target),
        },
        MCPhase {
            controls,
            target,
            lambda,
        } => MCPhase {
            controls: controls.iter().map(|&c| q(c)).collect(),
            target: q(*target),
            lambda: *lambda,
        },
        Swap { a, b } => Swap { a: q(*a), b: q(*b) },
        CSwap { control, a, b } => CSwap {
            control: q(*control),
            a: q(*a),
            b: q(*b),
        },
        Measure { qubit, clbit } => Measure {
            qubit: q(*qubit),
            clbit: cmap[*clbit],
        },
        Reset(a) => Reset(q(*a)),
        Barrier(qs) => Barrier(qs.iter().map(|&a| q(a)).collect()),
        Conditional { clbit, value, gate } => Conditional {
            clbit: cmap[*clbit],
            value: *value,
            gate: Box::new(remap_gate(gate, qmap, cmap)),
        },
        GlobalPhase(t) => GlobalPhase(*t),
        Unitary { target, matrix } => Unitary {
            target: q(*target),
            matrix: *matrix,
        },
        Unitary2 { q0, q1, matrix } => Unitary2 {
            q0: q(*q0),
            q1: q(*q1),
            matrix: matrix.clone(),
        },
        Unitary3 { q0, q1, q2, matrix } => Unitary3 {
            q0: q(*q0),
            q1: q(*q1),
            q2: q(*q2),
            matrix: matrix.clone(),
        },
    }
}

impl fmt::Display for QuantumCircuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} ({} qubits, {} clbits, {} ops)",
            self.name,
            self.num_qubits,
            self.num_clbits,
            self.ops.len()
        )?;
        for g in &self.ops {
            writeln!(f, "  {g}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_allocate_disjoint_windows() {
        let mut c = QuantumCircuit::new();
        let a = c.add_qreg("a", 2);
        let b = c.add_qreg("b", 3);
        assert_eq!(a.qubits(), vec![0, 1]);
        assert_eq!(b.qubits(), vec![2, 3, 4]);
        assert_eq!(c.num_qubits(), 5);
        let ca = c.add_creg("m", 2);
        assert_eq!(ca.bits(), vec![0, 1]);
    }

    #[test]
    fn duplicate_register_names_are_suffixed() {
        let mut c = QuantumCircuit::new();
        let a = c.add_qreg("x", 1);
        let b = c.add_qreg("x", 1);
        assert_eq!(a.name(), "x");
        assert_eq!(b.name(), "x_1");
    }

    #[test]
    fn append_validates_bounds() {
        let mut c = QuantumCircuit::with_qubits(2);
        assert!(c.h(0).is_ok());
        assert!(c.h(2).is_err());
        assert!(c.cx(0, 0).is_err()); // duplicate qubit
        assert!(c.measure(0, 0).is_err()); // no clbits
    }

    #[test]
    fn fluent_chaining() {
        let mut c = QuantumCircuit::with_qubits_and_clbits(2, 2);
        c.h(0)
            .unwrap()
            .cx(0, 1)
            .unwrap()
            .measure(0, 0)
            .unwrap()
            .measure(1, 1)
            .unwrap();
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn mcx_degenerates_by_arity() {
        let mut c = QuantumCircuit::with_qubits(5);
        c.mcx(&[], 0).unwrap();
        c.mcx(&[1], 0).unwrap();
        c.mcx(&[1, 2], 0).unwrap();
        c.mcx(&[1, 2, 3], 0).unwrap();
        assert!(matches!(c.ops()[0], Gate::X(0)));
        assert!(matches!(c.ops()[1], Gate::CX { .. }));
        assert!(matches!(c.ops()[2], Gate::CCX { .. }));
        assert!(matches!(c.ops()[3], Gate::MCX { .. }));
    }

    #[test]
    fn measure_register_pairs_bits() {
        let mut c = QuantumCircuit::new();
        let q = c.add_qreg("q", 3);
        let m = c.add_creg("m", 3);
        c.measure_register(&q, &m).unwrap();
        assert_eq!(c.len(), 3);
        let bad = c.add_creg("bad", 2);
        assert!(c.measure_register(&q, &bad).is_err());
    }

    #[test]
    fn compose_remaps_indices() {
        let mut inner = QuantumCircuit::with_qubits_and_clbits(2, 1);
        inner.h(0).unwrap().cx(0, 1).unwrap().measure(1, 0).unwrap();
        let mut outer = QuantumCircuit::with_qubits_and_clbits(4, 2);
        outer.compose(&inner, &[2, 3], &[1]).unwrap();
        assert_eq!(outer.ops()[0], Gate::H(2));
        assert_eq!(
            outer.ops()[1],
            Gate::CX {
                control: 2,
                target: 3
            }
        );
        assert_eq!(outer.ops()[2], Gate::Measure { qubit: 3, clbit: 1 });
    }

    #[test]
    fn compose_checks_map_sizes() {
        let inner = QuantumCircuit::with_qubits(2);
        let mut outer = QuantumCircuit::with_qubits(2);
        assert!(outer.compose(&inner, &[0], &[]).is_err());
    }

    #[test]
    fn inverse_reverses_and_inverts() {
        let mut c = QuantumCircuit::with_qubits(2);
        c.h(0).unwrap().s(1).unwrap().cx(0, 1).unwrap();
        let inv = c.inverse().unwrap();
        assert_eq!(
            inv.ops()[0],
            Gate::CX {
                control: 0,
                target: 1
            }
        );
        assert_eq!(inv.ops()[1], Gate::Sdg(1));
        assert_eq!(inv.ops()[2], Gate::H(0));
    }

    #[test]
    fn inverse_rejects_measurement() {
        let mut c = QuantumCircuit::with_qubits_and_clbits(1, 1);
        c.measure(0, 0).unwrap();
        assert!(c.inverse().is_err());
    }

    #[test]
    fn controlled_circuit_controls_every_gate() {
        let mut c = QuantumCircuit::with_qubits(2);
        c.x(0).unwrap().cx(0, 1).unwrap();
        let cc = c.controlled(2).unwrap();
        assert_eq!(
            cc.ops()[0],
            Gate::CX {
                control: 2,
                target: 0
            }
        );
        assert_eq!(
            cc.ops()[1],
            Gate::CCX {
                c0: 2,
                c1: 0,
                target: 1
            }
        );
    }

    #[test]
    fn c_if_rejects_non_unitary() {
        let mut c = QuantumCircuit::with_qubits_and_clbits(1, 1);
        assert!(c.c_if(0, true, Gate::X(0)).is_ok());
        assert!(c.c_if(0, true, Gate::Reset(0)).is_err());
    }

    #[test]
    fn display_shows_ops() {
        let mut c = QuantumCircuit::with_qubits(1);
        c.h(0).unwrap();
        let s = c.to_string();
        assert!(s.contains("1 qubits"));
        assert!(s.contains("h q[0]"));
    }
}
