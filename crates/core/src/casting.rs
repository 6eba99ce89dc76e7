//! `TypeCastingHandler` — the paper's bridge between the classical and
//! quantum worlds (§3): "when a classical variable is assigned to a
//! quantum variable, the TypeCastingHandler encodes the classical value
//! directly into the quantum circuit"; conversely quantum-to-classical
//! conversion happens "through a measurement process, which collapses the
//! quantum state into a definite classical value".

use crate::error::{QutesError, QutesResult};
use crate::handler::QuantumCircuitHandler;
use crate::lower::Emit;
use crate::value::{QKind, QuantumRef, Value};
use qutes_algos::state_prep;
use qutes_frontend::{KetState, Span};
use qutes_qcirc::{Gate, QuantumCircuit};

/// Bits needed to represent `v` (at least 1).
pub fn bits_for(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).max(1)
}

/// Stateless casting routines. The constructors encode onto any [`Emit`]
/// (the runtime's [`QuantumCircuitHandler`] or the resource estimator's
/// shadow circuit); measuring back needs the live handler.
pub struct TypeCastingHandler;

impl TypeCastingHandler {
    /// Allocates a qubit initialised to a basis state.
    pub fn new_qubit_basis<E: Emit>(h: &mut E, name: &str, one: bool) -> QutesResult<QuantumRef> {
        h.check_capacity(1, name)?;
        let qubits = h.allocate(name, 1)?;
        if one {
            h.apply(Gate::X(qubits[0]))?;
        }
        Ok(QuantumRef {
            qubits,
            kind: QKind::Qubit,
        })
    }

    /// Allocates a qubit initialised to a ket literal.
    pub fn new_qubit_ket<E: Emit>(h: &mut E, name: &str, ket: KetState) -> QutesResult<QuantumRef> {
        h.check_capacity(1, name)?;
        let qubits = h.allocate(name, 1)?;
        match ket {
            KetState::Zero => {}
            KetState::One => h.apply(Gate::X(qubits[0]))?,
            KetState::Plus => h.apply(Gate::H(qubits[0]))?,
            KetState::Minus => {
                h.apply(Gate::X(qubits[0]))?;
                h.apply(Gate::H(qubits[0]))?;
            }
        }
        Ok(QuantumRef {
            qubits,
            kind: QKind::Qubit,
        })
    }

    /// Allocates a qubit with explicit real amplitudes `[a, b]`
    /// (normalised if within 1e-6 of unit norm, rejected otherwise).
    pub fn new_qubit_amplitudes<E: Emit>(
        h: &mut E,
        name: &str,
        a: f64,
        b: f64,
        span: Span,
    ) -> QutesResult<QuantumRef> {
        let norm = (a * a + b * b).sqrt();
        if !(norm.is_finite()) || norm < 1e-9 {
            return Err(QutesError::runtime(
                "qubit amplitude literal must have nonzero finite norm",
                span,
            ));
        }
        if (norm - 1.0).abs() > 1e-6 {
            return Err(QutesError::runtime(
                format!(
                    "qubit amplitudes [{a}, {b}] have norm {norm:.6}; amplitudes must be \
                     normalised (|a|^2 + |b|^2 = 1)"
                ),
                span,
            ));
        }
        h.check_capacity(1, name)?;
        let qubits = h.allocate(name, 1)?;
        let mut frag = QuantumCircuit::with_qubits(h.num_qubits());
        state_prep::prepare_real_amplitudes(&mut frag, &qubits, &[a / norm, b / norm])?;
        h.apply_fragment(&frag)?;
        Ok(QuantumRef {
            qubits,
            kind: QKind::Qubit,
        })
    }

    /// Allocates a quint holding the basis value `v` with `width` qubits
    /// (defaults to the minimum width when `None`).
    pub fn new_quint<E: Emit>(
        h: &mut E,
        name: &str,
        v: u64,
        width: Option<usize>,
    ) -> QutesResult<QuantumRef> {
        let width = width.unwrap_or_else(|| bits_for(v));
        h.check_capacity(width, name)?;
        let qubits = h.allocate(name, width)?;
        for (i, &q) in qubits.iter().enumerate() {
            if v >> i & 1 == 1 {
                h.apply(Gate::X(q))?;
            }
        }
        Ok(QuantumRef {
            qubits,
            kind: QKind::Quint,
        })
    }

    /// Allocates a quint in equal superposition of `values`
    /// (paper §5: "vectors containing quantum states, including
    /// superpositions of values").
    pub fn new_quint_superposed<E: Emit>(
        h: &mut E,
        name: &str,
        values: &[u64],
        span: Span,
    ) -> QutesResult<QuantumRef> {
        let Some(width) = values.iter().map(|&v| bits_for(v)).max() else {
            return Err(QutesError::runtime(
                "superposition literal needs at least one value",
                span,
            ));
        };
        h.check_capacity(width, name)?;
        let qubits = h.allocate(name, width)?;
        let mut frag = QuantumCircuit::with_qubits(h.num_qubits());
        state_prep::prepare_uniform_over(&mut frag, &qubits, values)?;
        h.apply_fragment(&frag)?;
        Ok(QuantumRef {
            qubits,
            kind: QKind::Quint,
        })
    }

    /// Allocates a qustring encoding a classical bitstring (character `i`
    /// of the source string on qubit `i`).
    pub fn new_qustring<E: Emit>(
        h: &mut E,
        name: &str,
        bits: &str,
        span: Span,
    ) -> QutesResult<QuantumRef> {
        if bits.is_empty() {
            return Err(QutesError::runtime("qustring cannot be empty", span));
        }
        if !bits.chars().all(|c| c == '0' || c == '1') {
            return Err(QutesError::runtime(
                "qustring literals are restricted to bitstrings (paper §4)",
                span,
            ));
        }
        h.check_capacity(bits.len(), name)?;
        let qubits = h.allocate(name, bits.len())?;
        for (i, c) in bits.chars().enumerate() {
            if c == '1' {
                h.apply(Gate::X(qubits[i]))?;
            }
        }
        Ok(QuantumRef {
            qubits,
            kind: QKind::Qustring,
        })
    }

    /// Type promotion: encodes a classical value into a fresh quantum
    /// register of `kind` (paper §4: "Classical variables can be promoted
    /// to quantum equivalents through type promotion").
    pub fn promote<E: Emit>(
        h: &mut E,
        name: &str,
        value: &Value,
        kind: QKind,
        span: Span,
    ) -> QutesResult<QuantumRef> {
        match (kind, value) {
            (QKind::Qubit, Value::Bool(b)) => Self::new_qubit_basis(h, name, *b),
            (QKind::Qubit, Value::Int(i)) if *i == 0 || *i == 1 => {
                Self::new_qubit_basis(h, name, *i == 1)
            }
            (QKind::Quint, Value::Int(i)) if *i >= 0 => Self::new_quint(h, name, *i as u64, None),
            (QKind::Quint, Value::Bool(b)) => Self::new_quint(h, name, *b as u64, None),
            (QKind::Qustring, Value::Str(s)) => Self::new_qustring(h, name, s, span),
            (k, v) => Err(QutesError::runtime(
                format!(
                    "cannot promote {} value '{v}' to {}",
                    v.type_name(),
                    k.as_type()
                ),
                span,
            )),
        }
    }

    /// Measurement-based conversion to a classical value: qubit → bool,
    /// quint → int, qustring → string. Collapses the live state.
    pub fn measure_to_classical(
        h: &mut QuantumCircuitHandler,
        q: &QuantumRef,
    ) -> QutesResult<Value> {
        // Qustrings go through the bit-vector path: on the tableau
        // backend they can be wider than 64 qubits.
        if q.kind == QKind::Qustring {
            let bits = h.measure_bits(&q.qubits)?;
            return Ok(Value::Str(
                bits.iter().map(|&b| if b { '1' } else { '0' }).collect(),
            ));
        }
        let raw = h.measure(&q.qubits)?;
        Ok(if q.kind == QKind::Qubit {
            Value::Bool(raw != 0)
        } else {
            Value::Int(raw as i64)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn handler() -> QuantumCircuitHandler {
        QuantumCircuitHandler::new(99)
    }

    #[test]
    fn bits_for_widths() {
        assert_eq!(bits_for(0), 1);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 2);
        assert_eq!(bits_for(5), 3);
        assert_eq!(bits_for(255), 8);
        assert_eq!(bits_for(256), 9);
    }

    #[test]
    fn qubit_basis_and_kets() {
        let mut h = handler();
        let q1 = TypeCastingHandler::new_qubit_basis(&mut h, "a", true).unwrap();
        assert!((h.probability_one(q1.qubits[0]).unwrap() - 1.0).abs() < 1e-12);
        let q2 = TypeCastingHandler::new_qubit_ket(&mut h, "b", KetState::Plus).unwrap();
        assert!((h.probability_one(q2.qubits[0]).unwrap() - 0.5).abs() < 1e-9);
        let q3 = TypeCastingHandler::new_qubit_ket(&mut h, "c", KetState::Minus).unwrap();
        // |-> also has p(1) = 1/2; distinguish from |+> via H -> |1>.
        h.apply(Gate::H(q3.qubits[0])).unwrap();
        assert!((h.probability_one(q3.qubits[0]).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn qubit_amplitudes_normalised_only() {
        let mut h = handler();
        let q = TypeCastingHandler::new_qubit_amplitudes(&mut h, "a", 0.6, 0.8, Span::default())
            .unwrap();
        assert!((h.probability_one(q.qubits[0]).unwrap() - 0.64).abs() < 1e-9);
        assert!(
            TypeCastingHandler::new_qubit_amplitudes(&mut h, "b", 0.5, 0.5, Span::default())
                .is_err()
        );
        assert!(
            TypeCastingHandler::new_qubit_amplitudes(&mut h, "c", 0.0, 0.0, Span::default())
                .is_err()
        );
    }

    #[test]
    fn quint_encoding_and_width() {
        let mut h = handler();
        let q = TypeCastingHandler::new_quint(&mut h, "n", 5, None).unwrap();
        assert_eq!(q.width(), 3);
        let v = TypeCastingHandler::measure_to_classical(&mut h, &q).unwrap();
        assert!(matches!(v, Value::Int(5)));
        let w = TypeCastingHandler::new_quint(&mut h, "m", 1, Some(4)).unwrap();
        assert_eq!(w.width(), 4);
    }

    #[test]
    fn quint_superposition_measures_to_listed_values() {
        let mut h = handler();
        let q = TypeCastingHandler::new_quint_superposed(&mut h, "m", &[1, 2, 3], Span::default())
            .unwrap();
        assert_eq!(q.width(), 2);
        let marg = h
            .dense_state()
            .unwrap()
            .marginal_probabilities(&q.qubits)
            .unwrap();
        for v in [1usize, 2, 3] {
            assert!((marg[v] - 1.0 / 3.0).abs() < 1e-9, "v={v}");
        }
        assert!(marg[0].abs() < 1e-9);
    }

    #[test]
    fn qustring_roundtrip() {
        let mut h = handler();
        let q = TypeCastingHandler::new_qustring(&mut h, "s", "0110", Span::default()).unwrap();
        assert_eq!(q.width(), 4);
        let v = TypeCastingHandler::measure_to_classical(&mut h, &q).unwrap();
        match v {
            Value::Str(s) => assert_eq!(s, "0110"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn qustring_rejects_bad_input() {
        let mut h = handler();
        assert!(TypeCastingHandler::new_qustring(&mut h, "s", "", Span::default()).is_err());
        assert!(TypeCastingHandler::new_qustring(&mut h, "s", "01a", Span::default()).is_err());
    }

    #[test]
    fn promotion_rules() {
        let mut h = handler();
        let q = TypeCastingHandler::promote(
            &mut h,
            "a",
            &Value::Bool(true),
            QKind::Qubit,
            Span::default(),
        )
        .unwrap();
        assert_eq!(q.kind, QKind::Qubit);
        let q =
            TypeCastingHandler::promote(&mut h, "b", &Value::Int(6), QKind::Quint, Span::default())
                .unwrap();
        assert_eq!(q.width(), 3);
        assert!(TypeCastingHandler::promote(
            &mut h,
            "c",
            &Value::Int(-1),
            QKind::Quint,
            Span::default()
        )
        .is_err());
        assert!(TypeCastingHandler::promote(
            &mut h,
            "d",
            &Value::Str("hi".into()),
            QKind::Quint,
            Span::default()
        )
        .is_err());
    }

    #[test]
    fn measurement_collapses_superposition_to_stable_value() {
        let mut h = handler();
        let q = TypeCastingHandler::new_quint_superposed(&mut h, "m", &[3, 5], Span::default())
            .unwrap();
        let v1 = TypeCastingHandler::measure_to_classical(&mut h, &q).unwrap();
        let v2 = TypeCastingHandler::measure_to_classical(&mut h, &q).unwrap();
        let (Value::Int(a), Value::Int(b)) = (v1, v2) else {
            panic!()
        };
        assert_eq!(a, b);
        assert!(a == 3 || a == 5);
    }
}
