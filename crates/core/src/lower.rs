//! The one lowering of Qutes' quantum operations into circuit gates.
//!
//! In the paper (§3) the `QuantumCircuitHandler` logs every quantum
//! operation as circuit instructions and the `TypeCastingHandler` encodes
//! classical values into registers. Here both are written once, over the
//! [`Emit`] trait, and run by two callers:
//!
//! * the runtime's [`QuantumCircuitHandler`], which also plays every gate
//!   onto its live engine, and
//! * the static resource estimator (`qutes-analysis`), which only records
//!   a shadow circuit.
//!
//! The functions here never know which caller they serve: a caller hands
//! them concrete operands (for a value the estimator cannot know, the
//! walker hands them a stand-in that emits at least what any run emits)
//! and the emitter decides what allocating and applying mean.

use crate::error::{QutesError, QutesResult};
use crate::handler::QuantumCircuitHandler;
use crate::value::{QKind, Value};
use crate::TypeCastingHandler;
use qutes_algos::{arithmetic, rotation, state_prep};
use qutes_frontend::ast::GateKind;
use qutes_frontend::Span;
use qutes_qcirc::{Gate, QuantumCircuit};

/// Where lowered gates go: a growing set of qubits, a pool of clean work
/// qubits, and an instruction stream.
pub trait Emit {
    /// A register name derived from `base`, unique within the run.
    fn fresh_name(&mut self, base: &str) -> String;
    /// Errors when `extra` more qubits would not fit.
    fn check_capacity(&self, extra: usize, name: &str) -> QutesResult<()>;
    /// Allocates a fresh register of `width` qubits; returns its global
    /// qubit indices.
    fn allocate(&mut self, name: &str, width: usize) -> QutesResult<Vec<usize>>;
    /// Acquires `n` clean (`|0>`) work qubits, reusing released ones
    /// before allocating.
    fn acquire(&mut self, n: usize, name: &str) -> QutesResult<Vec<usize>>;
    /// Returns work qubits, uncomputed back to `|0>`, to the pool.
    fn release(&mut self, qubits: &[usize]);
    /// Appends one instruction.
    fn apply(&mut self, gate: Gate) -> QutesResult<()>;
    /// Qubits allocated so far.
    fn num_qubits(&self) -> usize;

    /// Appends every instruction of `fragment`, which addresses this
    /// emitter's global qubit indices.
    fn apply_fragment(&mut self, fragment: &QuantumCircuit) -> QutesResult<()> {
        for g in fragment.ops() {
            self.apply(g.clone())?;
        }
        Ok(())
    }
}

impl Emit for QuantumCircuitHandler {
    fn fresh_name(&mut self, base: &str) -> String {
        self.names += 1;
        format!("{base}_{}", self.names)
    }

    fn check_capacity(&self, extra: usize, name: &str) -> QutesResult<()> {
        QuantumCircuitHandler::check_capacity(self, extra, name)
    }

    fn allocate(&mut self, name: &str, width: usize) -> QutesResult<Vec<usize>> {
        QuantumCircuitHandler::allocate(self, name, width)
    }

    fn acquire(&mut self, n: usize, name: &str) -> QutesResult<Vec<usize>> {
        self.acquire_ancillas(n, name)
    }

    fn release(&mut self, qubits: &[usize]) {
        self.release_ancillas(qubits)
    }

    fn apply(&mut self, gate: Gate) -> QutesResult<()> {
        QuantumCircuitHandler::apply(self, gate)
    }

    fn num_qubits(&self) -> usize {
        QuantumCircuitHandler::num_qubits(self)
    }
}

/// An empty fragment as wide as the emitter.
fn fragment<E: Emit>(e: &E) -> QuantumCircuit {
    QuantumCircuit::with_qubits(e.num_qubits())
}

// ---- gate statements ------------------------------------------------------

/// `hadamard`/`not`/`pauliy`/`pauliz`/`phase` on every qubit of
/// `qubits`; `lambda` is the phase angle (unused by the other gates).
pub fn gate_each<E: Emit>(
    e: &mut E,
    gate: GateKind,
    qubits: &[usize],
    lambda: f64,
    span: Span,
) -> QutesResult<()> {
    for &target in qubits {
        e.apply(match gate {
            GateKind::Hadamard => Gate::H(target),
            GateKind::NotGate => Gate::X(target),
            GateKind::PauliY => Gate::Y(target),
            GateKind::PauliZ => Gate::Z(target),
            GateKind::Phase => Gate::Phase { target, lambda },
            GateKind::CNot => {
                return Err(QutesError::runtime(
                    "cnot needs a control and a target",
                    span,
                ))
            }
        })?;
    }
    Ok(())
}

/// `cnot control, target`: pairwise over equal widths, or fanned out from
/// a single control qubit.
pub fn cnot<E: Emit>(
    e: &mut E,
    control: &[usize],
    target: &[usize],
    span: Span,
) -> QutesResult<()> {
    if control.len() == target.len() {
        for (&c, &t) in control.iter().zip(target) {
            e.apply(Gate::CX {
                control: c,
                target: t,
            })?;
        }
    } else if let [c] = control {
        for &t in target {
            e.apply(Gate::CX {
                control: *c,
                target: t,
            })?;
        }
    } else {
        return Err(QutesError::runtime(
            format!(
                "cnot operands must have equal width (or a single-qubit control); \
                 found {} and {}",
                control.len(),
                target.len()
            ),
            span,
        ));
    }
    Ok(())
}

// ---- quantum arithmetic and shifts -------------------------------------

/// The right-hand operand of a quint operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Operand<'a> {
    /// A classical non-negative constant.
    Const(u64),
    /// A quint register.
    Quint(&'a [usize]),
}

impl<'a> Operand<'a> {
    /// The operand a quint operator takes on its right: a non-negative
    /// integer, a bool (as 0 or 1) or a quint; `None` for any other value.
    pub fn of(v: &'a Value) -> Option<Operand<'a>> {
        match v {
            Value::Int(k) if *k >= 0 => Some(Operand::Const(*k as u64)),
            Value::Bool(b) => Some(Operand::Const(u64::from(*b))),
            Value::Quantum(q) if q.kind == QKind::Quint => Some(Operand::Quint(&q.qubits)),
            _ => None,
        }
    }

    /// Qubits the operand needs as a register.
    fn width(&self) -> usize {
        match self {
            Operand::Const(k) => crate::casting::bits_for(*k),
            Operand::Quint(q) => q.len(),
        }
    }
}

/// Copies `src` into `width` acquired work qubits (CX fan-out; exact for
/// basis states, entangling for superpositions — the copy is later
/// uncomputed by [`cx_pairs`] again).
pub fn cx_copy<E: Emit>(
    e: &mut E,
    src: &[usize],
    width: usize,
    name: &str,
) -> QutesResult<Vec<usize>> {
    let dst = e.acquire(width, name)?;
    cx_pairs(e, src, &dst)?;
    Ok(dst)
}

/// A CX from each `src` qubit onto the matching `dst` qubit: copies `src`
/// into clean qubits, and undoes that copy (the pattern is self-inverse).
pub fn cx_pairs<E: Emit>(e: &mut E, src: &[usize], dst: &[usize]) -> QutesResult<()> {
    for (&s, &d) in src.iter().zip(dst) {
        e.apply(Gate::CX {
            control: s,
            target: d,
        })?;
    }
    Ok(())
}

/// In-place `target += rhs` (or `-=`) modulo `2^width`.
pub fn add_sub_in_place<E: Emit>(
    e: &mut E,
    target: &[usize],
    rhs: Operand<'_>,
    subtract: bool,
) -> QutesResult<()> {
    match rhs {
        Operand::Const(k) => {
            // b - k = b + (2^n - k) mod 2^n. The Draper adder emits the
            // same gates for every constant; only the angles differ.
            let k = if subtract {
                let mask = 1u64
                    .checked_shl(target.len() as u32)
                    .map_or(u64::MAX, |m| m - 1);
                k.wrapping_neg() & mask
            } else {
                k
            };
            let mut frag = fragment(e);
            arithmetic::add_const(&mut frag, target, k)?;
            e.apply_fragment(&frag)
        }
        Operand::Quint(q) => {
            // Widen/narrow the addend into a temporary copy of the
            // target's width, add, then uncompute the copy.
            let name = e.fresh_name("addend");
            let tmp = cx_copy(e, q, target.len(), &name)?;
            let carry_name = e.fresh_name("carry");
            let carry = e.acquire(1, &carry_name)?;
            let mut frag = fragment(e);
            if subtract {
                arithmetic::sub_in_place(&mut frag, &tmp, target, carry[0])?;
            } else {
                arithmetic::add_in_place(&mut frag, &tmp, target, carry[0])?;
            }
            e.apply_fragment(&frag)?;
            cx_pairs(e, q, &tmp)?;
            // The addend copy and the carry are clean again: pool them.
            e.release(&tmp);
            e.release(&carry);
            Ok(())
        }
    }
}

/// `a + rhs` / `a - rhs` into a fresh quint, wide enough for the sum
/// (one bit over the wider operand when adding).
pub fn add_sub_expr<E: Emit>(
    e: &mut E,
    a: &[usize],
    rhs: Operand<'_>,
    subtract: bool,
) -> QutesResult<Vec<usize>> {
    let width = a.len().max(rhs.width()) + usize::from(!subtract);
    let name = e.fresh_name("sum");
    let result = cx_copy(e, a, width, &name)?;
    add_sub_in_place(e, &result, rhs, subtract)?;
    Ok(result)
}

/// `a * rhs` into a fresh product register (shift-and-add multiplier,
/// paper §6 extension). Operands are preserved.
pub fn mul_expr<E: Emit>(e: &mut E, a: &[usize], rhs: Operand<'_>) -> QutesResult<Vec<usize>> {
    // A constant factor is encoded into a fresh register (left in the
    // basis state |k>, disentangled — uncomputed and recycled after the
    // product is formed).
    let (b, constant) = match rhs {
        Operand::Quint(q) => (q.to_vec(), None),
        Operand::Const(k) => {
            let name = e.fresh_name("factor");
            let r = TypeCastingHandler::new_quint(e, &name, k, None)?;
            (r.qubits, Some(k))
        }
    };
    let width = a.len() + b.len();
    let prod_name = e.fresh_name("product");
    e.check_capacity(width + 1, &prod_name)?;
    let product = e.allocate(&prod_name, width)?;
    let carry_name = e.fresh_name("carry");
    let carry = e.acquire(1, &carry_name)?;
    let mut frag = fragment(e);
    arithmetic::mul_into(&mut frag, a, &b, &product, carry[0])?;
    e.apply_fragment(&frag)?;
    e.release(&carry);
    if let Some(k) = constant {
        // The factor register still holds |k>: uncompute it with
        // classically known X gates and recycle the qubits.
        for (i, &q) in b.iter().enumerate() {
            if k >> i & 1 == 1 {
                e.apply(Gate::X(q))?;
            }
        }
        e.release(&b);
    }
    Ok(product)
}

/// Cyclic shift of `qubits` by `k` in constant depth (paper §5).
pub fn rotate<E: Emit>(e: &mut E, qubits: &[usize], k: usize, left: bool) -> QutesResult<()> {
    let mut frag = fragment(e);
    if left {
        rotation::rotate_left_constant_depth(&mut frag, qubits, k)?;
    } else {
        rotation::rotate_right_constant_depth(&mut frag, qubits, k)?;
    }
    e.apply_fragment(&frag)
}

/// `q << k` / `q >> k`: a rotated copy of `qubits` in fresh work qubits.
pub fn shifted_copy<E: Emit>(
    e: &mut E,
    qubits: &[usize],
    k: usize,
    left: bool,
) -> QutesResult<Vec<usize>> {
    let name = e.fresh_name("shifted");
    let copy = cx_copy(e, qubits, qubits.len(), &name)?;
    rotate(e, &copy, k, left)?;
    Ok(copy)
}

// ---- the `in` operator: Grover substring search ---------------------------

/// The circuit pieces of `pattern in haystack` over a qustring:
/// amplitude amplification over a **position register**, on the
/// Boyer–Brassard–Høyer–Tapp schedule because the number of occurrences
/// (the marked-set size) is unknown.
pub struct SubstringSearch {
    /// The position register (acquired work qubits).
    pub pos: Vec<usize>,
    /// Valid start positions, `0..positions`.
    pub positions: usize,
    prep: QuantumCircuit,
    oracle: QuantumCircuit,
    diffusion: QuantumCircuit,
}

impl SubstringSearch {
    /// Acquires the position register and builds the state preparation,
    /// the oracle and the diffusion for a pattern of `1..=hay.len()` bits.
    pub fn prepare<E: Emit>(
        e: &mut E,
        pattern: &[bool],
        hay: &[usize],
        span: Span,
    ) -> QutesResult<Self> {
        let m = pattern.len();
        if m == 0 || m > hay.len() {
            return Err(QutesError::runtime(
                "substring search needs a pattern of 1 to haystack-width bits",
                span,
            ));
        }
        let positions = hay.len() - m + 1;
        let pw = usize::max(1, (usize::BITS - (positions - 1).leading_zeros()) as usize);
        let pos_name = e.fresh_name("grover_pos");
        let pos = e.acquire(pw, &pos_name)?;

        // A = uniform superposition over the valid positions.
        let values: Vec<u64> = (0..positions as u64).collect();
        let mut prep = fragment(e);
        state_prep::prepare_uniform_over(&mut prep, &pos, &values)?;

        // Oracle: phase-flip |pos = i> ⊗ |text matching at i>.
        let mut oracle = fragment(e);
        for i in 0..positions {
            let window = &hay[i..i + m];
            let mut conjugated: Vec<usize> = Vec::new();
            for (bit, &pq) in pos.iter().enumerate() {
                if i >> bit & 1 == 0 {
                    oracle.x(pq)?;
                    conjugated.push(pq);
                }
            }
            for (&pbit, &hq) in pattern.iter().zip(window) {
                if !pbit {
                    oracle.x(hq)?;
                    conjugated.push(hq);
                }
            }
            let mut involved = pos.clone();
            involved.extend_from_slice(window);
            let (rest, last) = split_last(&involved, span)?;
            oracle.mcz(rest, last)?;
            for &q in conjugated.iter().rev() {
                oracle.x(q)?;
            }
        }

        // Generalised diffusion about A|0>: A (2|0><0| - I) A^dagger.
        let mut diffusion = fragment(e);
        diffusion.extend(&prep.inverse()?)?;
        for &pq in &pos {
            diffusion.x(pq)?;
        }
        let (rest, last) = split_last(&pos, span)?;
        diffusion.mcz(rest, last)?;
        for &pq in &pos {
            diffusion.x(pq)?;
        }
        diffusion.extend(&prep)?;

        Ok(SubstringSearch {
            pos,
            positions,
            prep,
            oracle,
            diffusion,
        })
    }

    /// The BBHT schedule: one entry per round, the largest iteration
    /// count that round may draw (a round draws from `0..=max`).
    pub fn schedule(&self) -> impl Iterator<Item = usize> {
        let sqrt_n = (self.positions as f64).sqrt();
        let rounds = 12 + 3 * sqrt_n.ceil() as usize;
        std::iter::successors(Some(1.0f64), move |b| Some((b * 1.3).min(sqrt_n.max(1.0))))
            .take(rounds)
            .map(|b| b.ceil() as usize)
    }

    /// One round's amplification: prepare, then `k` oracle + diffusion
    /// iterations.
    pub fn amplify<E: Emit>(&self, e: &mut E, k: usize) -> QutesResult<()> {
        e.apply_fragment(&self.prep)?;
        for _ in 0..k {
            e.apply_fragment(&self.oracle)?;
            e.apply_fragment(&self.diffusion)?;
        }
        Ok(())
    }
}

/// `qubits` as (controls, target) for a multi-controlled Z.
fn split_last(qubits: &[usize], span: Span) -> QutesResult<(&[usize], usize)> {
    match qubits.split_last() {
        Some((&last, rest)) => Ok((rest, last)),
        None => Err(QutesError::runtime(
            "substring search needs a non-empty position register",
            span,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An emitter that only records, as the resource estimator does.
    #[derive(Default)]
    struct Recorder {
        circ: QuantumCircuit,
        free: Vec<usize>,
    }

    impl Emit for Recorder {
        fn fresh_name(&mut self, base: &str) -> String {
            base.to_string()
        }
        fn check_capacity(&self, _extra: usize, _name: &str) -> QutesResult<()> {
            Ok(())
        }
        fn allocate(&mut self, name: &str, width: usize) -> QutesResult<Vec<usize>> {
            Ok(self.circ.add_qreg(name, width).qubits())
        }
        fn acquire(&mut self, n: usize, name: &str) -> QutesResult<Vec<usize>> {
            let keep = self.free.len().saturating_sub(n);
            let mut out = self.free.split_off(keep);
            out.reverse();
            let missing = n - out.len();
            if missing > 0 {
                out.extend(self.allocate(name, missing)?);
            }
            Ok(out)
        }
        fn release(&mut self, qubits: &[usize]) {
            self.free.extend_from_slice(qubits);
        }
        fn apply(&mut self, gate: Gate) -> QutesResult<()> {
            Ok(self.circ.append(gate)?)
        }
        fn num_qubits(&self) -> usize {
            self.circ.num_qubits()
        }
    }

    /// The same lowering calls on a handler and on a recorder.
    fn lower_program<E: Emit>(e: &mut E) -> QutesResult<()> {
        let a = TypeCastingHandler::new_quint(e, "a", 5, None)?.qubits;
        let b = TypeCastingHandler::new_quint(e, "b", 2, None)?.qubits;
        add_sub_in_place(e, &a, Operand::Quint(&b), false)?;
        add_sub_in_place(e, &a, Operand::Const(3), true)?;
        let sum = add_sub_expr(e, &a, Operand::Const(6), false)?;
        let product = mul_expr(e, &b, Operand::Const(3))?;
        rotate(e, &sum, 2, true)?;
        shifted_copy(e, &product, 1, false)?;
        gate_each(e, GateKind::Phase, &a, 0.25, Span::default())?;
        cnot(e, &a[..1], &b, Span::default())?;
        let text = TypeCastingHandler::new_qustring(e, "t", "0110", Span::default())?.qubits;
        let search = SubstringSearch::prepare(e, &[true, false], &text, Span::default())?;
        for k in search.schedule().take(2) {
            search.amplify(e, k)?;
        }
        Ok(())
    }

    #[test]
    fn handler_and_recorder_get_the_same_gates() {
        let mut h = QuantumCircuitHandler::new(1);
        lower_program(&mut h).unwrap();
        let mut r = Recorder::default();
        lower_program(&mut r).unwrap();
        assert_eq!(h.num_qubits(), r.num_qubits());
        assert_eq!(h.circuit().ops(), r.circ.ops());
    }

    #[test]
    fn subtracting_a_constant_adds_its_complement() {
        for n in 1..=6usize {
            for k in 0..20u64 {
                let mut sub = Recorder::default();
                let t = sub.allocate("t", n).unwrap();
                add_sub_in_place(&mut sub, &t, Operand::Const(k), true).unwrap();
                let modulus = 1u64 << n;
                let mut add = Recorder::default();
                add.allocate("t", n).unwrap();
                let complement = (modulus - k % modulus) % modulus;
                add_sub_in_place(&mut add, &t, Operand::Const(complement), false).unwrap();
                assert_eq!(sub.circ.ops(), add.circ.ops(), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn wide_subtraction_does_not_overflow() {
        for n in [63usize, 64, 70] {
            let mut r = Recorder::default();
            let t = r.allocate("t", n).unwrap();
            add_sub_in_place(&mut r, &t, Operand::Const(7), true).unwrap();
        }
    }

    #[test]
    fn search_rejects_patterns_it_cannot_place() {
        let mut r = Recorder::default();
        let hay = r.allocate("t", 3).unwrap();
        for pattern in [&[][..], &[true; 4][..]] {
            assert!(SubstringSearch::prepare(&mut r, pattern, &hay, Span::default()).is_err());
        }
    }
}
