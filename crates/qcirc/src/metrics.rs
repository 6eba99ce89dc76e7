//! Circuit metrics: depth, gate counts, and width — the quantities the
//! paper's cyclic-shift experiment (E3) and conciseness table (E6) report.
//!
//! ```
//! use qutes_qcirc::QuantumCircuit;
//!
//! let mut c = QuantumCircuit::with_qubits(2);
//! c.h(0).unwrap().h(1).unwrap().cx(0, 1).unwrap();
//! let stats = c.stats();
//! assert_eq!(stats.size, 3);
//! assert_eq!(stats.depth, 2); // the two H's share a time step
//! assert_eq!(c.count_ops()["h"], 2);
//! ```

use crate::circuit::QuantumCircuit;
use crate::gate::Gate;
use std::collections::BTreeMap;

/// Summary statistics of a circuit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CircuitStats {
    /// Number of qubits.
    pub width: usize,
    /// Number of non-barrier instructions.
    pub size: usize,
    /// Critical-path length (barriers synchronise but don't count).
    pub depth: usize,
    /// Instructions touching >= 2 qubits.
    pub multi_qubit_ops: usize,
    /// Count per gate mnemonic.
    pub counts: BTreeMap<&'static str, usize>,
}

impl QuantumCircuit {
    /// Critical-path depth. Each instruction lands at
    /// `1 + max(level of every wire it touches)`; barriers synchronise
    /// their wires without contributing a layer. Measurements count (they
    /// occupy a time slot on both wires), matching Qiskit's convention.
    ///
    /// A fused [`Gate::Unitary`] (produced by level-2 optimization from a
    /// run of single-qubit gates) counts as **one** layer, like any other
    /// single instruction: depth measures the circuit as written, so
    /// fusing `k` gates into one matrix legitimately shrinks the reported
    /// depth by `k - 1`. Compare depths at the same optimization level.
    pub fn depth(&self) -> usize {
        let mut qlevel = vec![0usize; self.num_qubits()];
        let mut clevel = vec![0usize; self.num_clbits()];
        let mut max_depth = 0usize;
        for g in self.ops() {
            match g {
                Gate::Barrier(qs) if qs.is_empty() => {
                    let m = qlevel.iter().copied().max().unwrap_or(0);
                    qlevel.fill(m);
                }
                Gate::Barrier(qs) => {
                    let m = qs.iter().map(|&q| qlevel[q]).max().unwrap_or(0);
                    for &q in qs {
                        qlevel[q] = m;
                    }
                }
                Gate::GlobalPhase(_) => {}
                _ => {
                    let mut level = g.clbit().map_or(0, |c| clevel[c]);
                    g.for_each_qubit(|q| level = level.max(qlevel[q]));
                    level += 1;
                    g.for_each_qubit(|q| qlevel[q] = level);
                    if let Some(c) = g.clbit() {
                        clevel[c] = level;
                    }
                    max_depth = max_depth.max(level);
                }
            }
        }
        max_depth
    }

    /// Number of instructions excluding barriers and global phases.
    pub fn size(&self) -> usize {
        self.ops()
            .iter()
            .filter(|g| !matches!(g, Gate::Barrier(_) | Gate::GlobalPhase(_)))
            .count()
    }

    /// Count of each gate mnemonic.
    pub fn count_ops(&self) -> BTreeMap<&'static str, usize> {
        let mut m = BTreeMap::new();
        for g in self.ops() {
            *m.entry(g.name()).or_insert(0) += 1;
        }
        m
    }

    /// All metrics in one pass.
    pub fn stats(&self) -> CircuitStats {
        CircuitStats {
            width: self.num_qubits(),
            size: self.size(),
            depth: self.depth(),
            multi_qubit_ops: self
                .ops()
                .iter()
                .filter(|g| !matches!(g, Gate::Barrier(_)) && g.num_qubits() >= 2)
                .count(),
            counts: self.count_ops(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_of_parallel_gates_is_one() {
        let mut c = QuantumCircuit::with_qubits(4);
        for q in 0..4 {
            c.h(q).unwrap();
        }
        assert_eq!(c.depth(), 1);
        assert_eq!(c.size(), 4);
    }

    #[test]
    fn depth_of_serial_chain() {
        let mut c = QuantumCircuit::with_qubits(3);
        c.cx(0, 1).unwrap().cx(1, 2).unwrap().cx(0, 1).unwrap();
        assert_eq!(c.depth(), 3);
    }

    #[test]
    fn independent_cx_pairs_run_in_parallel() {
        let mut c = QuantumCircuit::with_qubits(4);
        c.cx(0, 1).unwrap().cx(2, 3).unwrap();
        assert_eq!(c.depth(), 1);
    }

    #[test]
    fn barrier_synchronises_without_counting() {
        let mut c = QuantumCircuit::with_qubits(2);
        c.h(0).unwrap();
        c.barrier(&[]).unwrap();
        c.h(1).unwrap();
        // Without the barrier the two H's would both be at level 1.
        assert_eq!(c.depth(), 2);
        assert_eq!(c.size(), 2);
    }

    #[test]
    fn measurement_depth_includes_clbit_wire() {
        let mut c = QuantumCircuit::with_qubits_and_clbits(2, 1);
        c.measure(0, 0).unwrap();
        c.measure(1, 0).unwrap(); // same clbit: must serialise
        assert_eq!(c.depth(), 2);
    }

    #[test]
    fn count_ops_tallies_names() {
        let mut c = QuantumCircuit::with_qubits(3);
        c.h(0)
            .unwrap()
            .h(1)
            .unwrap()
            .cx(0, 1)
            .unwrap()
            .ccx(0, 1, 2)
            .unwrap();
        let m = c.count_ops();
        assert_eq!(m["h"], 2);
        assert_eq!(m["cx"], 1);
        assert_eq!(m["ccx"], 1);
    }

    #[test]
    fn stats_aggregates() {
        let mut c = QuantumCircuit::with_qubits(3);
        c.h(0).unwrap().cx(0, 1).unwrap().ccx(0, 1, 2).unwrap();
        let s = c.stats();
        assert_eq!(s.width, 3);
        assert_eq!(s.size, 3);
        assert_eq!(s.multi_qubit_ops, 2);
        assert_eq!(s.depth, 3);
    }

    #[test]
    fn fused_unitary_counts_as_one_layer() {
        // A run of single-qubit gates fused by the level-2 optimizer
        // must report depth 1, not the depth of the original run.
        let mut c = QuantumCircuit::with_qubits(2);
        c.h(0).unwrap().s(0).unwrap().t(0).unwrap().h(0).unwrap();
        assert_eq!(c.depth(), 4);
        let (fused, _) = crate::optimize::optimize(&c, 2).unwrap();
        assert!(
            fused
                .ops()
                .iter()
                .any(|g| matches!(g, Gate::Unitary { .. })),
            "level 2 should have fused the run: {fused:?}"
        );
        assert_eq!(fused.depth(), 1);
        assert_eq!(fused.size(), 1);
        // And it occupies one slot relative to other wires too.
        let mut c2 = QuantumCircuit::with_qubits(2);
        c2.h(0).unwrap().s(0).unwrap();
        c2.cx(0, 1).unwrap();
        let (fused2, _) = crate::optimize::optimize(&c2, 2).unwrap();
        assert_eq!(fused2.depth(), 2, "{fused2:?}");
    }

    #[test]
    fn global_phase_does_not_affect_depth() {
        let mut c = QuantumCircuit::with_qubits(1);
        c.gphase(0.5).unwrap();
        c.h(0).unwrap();
        assert_eq!(c.depth(), 1);
        assert_eq!(c.size(), 1);
    }
}
