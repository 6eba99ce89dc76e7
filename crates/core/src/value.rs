//! Runtime values. Variables are stored behind `Rc<RefCell<..>>` cells so
//! that Qutes' pass-by-reference semantics (paper §4: "Variables in Qutes
//! are always passed by reference") fall out naturally: binding a
//! parameter to an argument shares the cell.

use qutes_frontend::Type;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// Which quantum type a [`QuantumRef`] carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QKind {
    /// Single qubit.
    Qubit,
    /// Quantum integer register.
    Quint,
    /// Quantum bitstring.
    Qustring,
}

impl QKind {
    /// The language-level type this kind corresponds to.
    pub fn as_type(&self) -> Type {
        match self {
            QKind::Qubit => Type::Qubit,
            QKind::Quint => Type::Quint,
            QKind::Qustring => Type::Qustring,
        }
    }

    /// The kind of a quantum type; `None` for a classical one.
    pub fn of(ty: &Type) -> Option<QKind> {
        match ty {
            Type::Qubit => Some(QKind::Qubit),
            Type::Quint => Some(QKind::Quint),
            Type::Qustring => Some(QKind::Qustring),
            _ => None,
        }
    }
}

/// A handle to a window of qubits owned by the runtime's circuit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuantumRef {
    /// Global qubit indices (bit 0 = LSB / first character).
    pub qubits: Vec<usize>,
    /// Which quantum type the window encodes.
    pub kind: QKind,
}

impl QuantumRef {
    /// Register width in qubits.
    pub fn width(&self) -> usize {
        self.qubits.len()
    }
}

/// A shared, mutable variable cell.
pub type Cell = Rc<RefCell<Value>>;

/// Wraps a value into a fresh cell.
pub fn cell(v: Value) -> Cell {
    Rc::new(RefCell::new(v))
}

/// A runtime value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Classical boolean.
    Bool(bool),
    /// Classical integer.
    Int(i64),
    /// Classical float.
    Float(f64),
    /// Classical string.
    Str(String),
    /// Quantum register handle.
    Quantum(QuantumRef),
    /// Array (elements are themselves cells — arrays are reference types
    /// and so are their slots).
    Array(Rc<RefCell<Vec<Cell>>>),
    /// Absence of a value (void returns).
    Void,
}

impl Value {
    /// A human-readable description of the value's runtime type.
    pub fn type_name(&self) -> String {
        match self {
            Value::Bool(_) => "bool".into(),
            Value::Int(_) => "int".into(),
            Value::Float(_) => "float".into(),
            Value::Str(_) => "string".into(),
            Value::Quantum(q) => q.kind.as_type().to_string(),
            Value::Array(_) => "array".into(),
            Value::Void => "void".into(),
        }
    }

    /// True for quantum registers (and nothing else; arrays report their
    /// own type, elements are inspected individually).
    pub fn is_quantum(&self) -> bool {
        matches!(self, Value::Quantum(_))
    }

    /// Truthiness of classical values; `None` for quantum/void (those
    /// must be measured first).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            Value::Int(i) => Some(*i != 0),
            Value::Float(f) => Some(*f != 0.0),
            Value::Str(s) => Some(!s.is_empty()),
            _ => None,
        }
    }

    /// Numeric view as f64 for classical numbers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(b) => Some(*b as i64 as f64),
            _ => None,
        }
    }

    /// Integer view for classical numbers (floats must be integral).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Bool(b) => Some(*b as i64),
            Value::Float(f) if f.fract() == 0.0 => Some(*f as i64),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
            Value::Quantum(q) => {
                write!(f, "<{} on {} qubit", q.kind.as_type(), q.width())?;
                if q.width() != 1 {
                    write!(f, "s")?;
                }
                write!(f, ">")
            }
            Value::Array(items) => {
                write!(f, "[")?;
                for (i, item) in items.borrow().iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", item.borrow())?;
                }
                write!(f, "]")
            }
            Value::Void => write!(f, "void"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_names() {
        assert_eq!(Value::Int(1).type_name(), "int");
        assert_eq!(
            Value::Quantum(QuantumRef {
                qubits: vec![0, 1],
                kind: QKind::Quint
            })
            .type_name(),
            "quint"
        );
    }

    #[test]
    fn truthiness() {
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Int(0).as_bool(), Some(false));
        assert_eq!(Value::Str("x".into()).as_bool(), Some(true));
        assert_eq!(
            Value::Quantum(QuantumRef {
                qubits: vec![0],
                kind: QKind::Qubit
            })
            .as_bool(),
            None
        );
    }

    #[test]
    fn numeric_views() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_i64(), None);
        assert_eq!(Value::Float(2.0).as_i64(), Some(2));
        assert_eq!(Value::Bool(true).as_i64(), Some(1));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::Str("hi".into()).to_string(), "hi");
        let arr = Value::Array(Rc::new(RefCell::new(vec![
            cell(Value::Int(1)),
            cell(Value::Int(2)),
        ])));
        assert_eq!(arr.to_string(), "[1, 2]");
        let q = Value::Quantum(QuantumRef {
            qubits: vec![0, 1, 2],
            kind: QKind::Quint,
        });
        assert_eq!(q.to_string(), "<quint on 3 qubits>");
    }

    #[test]
    fn cells_share_mutation() {
        let c = cell(Value::Int(1));
        let alias = Rc::clone(&c);
        *alias.borrow_mut() = Value::Int(9);
        assert!(matches!(*c.borrow(), Value::Int(9)));
    }
}
