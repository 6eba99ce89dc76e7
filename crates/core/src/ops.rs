//! The classical value operations, written once: binary and unary
//! operators, the `int`/`float`/`bool`/`str` casts, `len`, `width`,
//! `range`, indexing, and the classical arms of a conversion to a
//! declared type.
//!
//! The walker ([`crate::interp`]) calls them after it has measured any
//! quantum operand, in a run and in the static resource estimator
//! (`qutes-analysis`) alike, so a value the estimator folds is exactly
//! the value a run computes. An `Err` is the runtime error the program
//! stops with; the estimator stops there too.

use crate::error::{QutesError, QutesResult};
use crate::resolution::Builtin;
use crate::value::{QKind, QuantumRef, Value};
use qutes_frontend::ast::{BinOp, Type, UnOp};
use qutes_frontend::Span;

/// `lv op rv` for two classical values. `&&` and `||` short-circuit in
/// the caller; here they are type errors like any undefined pairing.
pub fn binary(op: BinOp, lv: &Value, rv: &Value, span: Span) -> QutesResult<Value> {
    use BinOp::*;
    if let (Value::Int(a), Value::Int(b)) = (lv, rv) {
        if let Some(v) = int_binary(op, *a, *b) {
            return Ok(v);
        }
    }
    let type_err = || {
        Err(QutesError::runtime(
            format!(
                "operator '{op}' is not defined for {} and {}",
                lv.type_name(),
                rv.type_name()
            ),
            span,
        ))
    };
    match op {
        Add => match (lv, rv) {
            (Value::Str(a), Value::Str(b)) => Ok(Value::Str(format!("{a}{b}"))),
            _ => match (lv.as_f64(), rv.as_f64()) {
                (Some(a), Some(b)) => Ok(Value::Float(a + b)),
                _ => type_err(),
            },
        },
        Sub => match (lv.as_f64(), rv.as_f64()) {
            (Some(a), Some(b)) => Ok(Value::Float(a - b)),
            _ => type_err(),
        },
        Mul => match (lv.as_f64(), rv.as_f64()) {
            (Some(a), Some(b)) => Ok(Value::Float(a * b)),
            _ => type_err(),
        },
        Div => match (lv, rv) {
            (Value::Int(a), Value::Int(b)) => {
                if *b == 0 {
                    Err(QutesError::runtime("division by zero", span))
                } else if a.wrapping_rem(*b) == 0 {
                    Ok(Value::Int(a.wrapping_div(*b)))
                } else {
                    Ok(Value::Float(*a as f64 / *b as f64))
                }
            }
            _ => match (lv.as_f64(), rv.as_f64()) {
                (Some(_), Some(0.0)) => Err(QutesError::runtime("division by zero", span)),
                (Some(a), Some(b)) => Ok(Value::Float(a / b)),
                _ => type_err(),
            },
        },
        Mod => match (lv, rv) {
            (Value::Int(a), Value::Int(b)) => {
                if *b == 0 {
                    Err(QutesError::runtime("modulo by zero", span))
                } else {
                    Ok(Value::Int(a.wrapping_rem_euclid(*b)))
                }
            }
            _ => type_err(),
        },
        Shl | Shr => match (lv, rv.as_i64()) {
            (Value::Int(a), Some(k)) if k >= 0 => Ok(Value::Int(if op == Shl {
                a.wrapping_shl(k as u32)
            } else {
                a.wrapping_shr(k as u32)
            })),
            _ => type_err(),
        },
        Eq | Ne => {
            let eq = match (lv, rv) {
                (Value::Str(a), Value::Str(b)) => a == b,
                (Value::Bool(a), Value::Bool(b)) => a == b,
                _ => match (lv.as_f64(), rv.as_f64()) {
                    (Some(a), Some(b)) => a == b,
                    _ => return type_err(),
                },
            };
            Ok(Value::Bool(if op == Eq { eq } else { !eq }))
        }
        Lt | Le | Gt | Ge => {
            let ord = match (lv, rv) {
                (Value::Str(a), Value::Str(b)) => a.partial_cmp(b),
                _ => match (lv.as_f64(), rv.as_f64()) {
                    (Some(a), Some(b)) => a.partial_cmp(&b),
                    _ => return type_err(),
                },
            };
            let Some(ord) = ord else {
                return type_err();
            };
            Ok(Value::Bool(match op {
                Lt => ord.is_lt(),
                Le => ord.is_le(),
                Gt => ord.is_gt(),
                _ => ord.is_ge(),
            }))
        }
        In => match (lv, rv) {
            (Value::Str(p), Value::Str(h)) => Ok(Value::Bool(h.contains(p.as_str()))),
            _ => type_err(),
        },
        And | Or => type_err(),
    }
}

/// `a op b` on two ints, for the operators whose result needs no check;
/// `None` for the others. Comparisons go through `f64`, as [`binary`]
/// compares every pair of numbers.
#[inline]
pub(crate) fn int_binary(op: BinOp, a: i64, b: i64) -> Option<Value> {
    Some(match op {
        BinOp::Add => Value::Int(a.wrapping_add(b)),
        BinOp::Sub => Value::Int(a.wrapping_sub(b)),
        BinOp::Mul => Value::Int(a.wrapping_mul(b)),
        _ => Value::Bool(int_compare(op, a, b)?),
    })
}

/// `a op b` for a comparison operator on two ints; `None` for other
/// operators.
#[inline]
pub(crate) fn int_compare(op: BinOp, a: i64, b: i64) -> Option<bool> {
    let (x, y) = (a as f64, b as f64);
    Some(match op {
        BinOp::Eq => x == y,
        BinOp::Ne => x != y,
        BinOp::Lt => x < y,
        BinOp::Le => x <= y,
        BinOp::Gt => x > y,
        BinOp::Ge => x >= y,
        _ => return None,
    })
}

/// `-v` or `!v` for a classical value. Int negation wraps, as the other
/// int operators do.
pub fn unary(op: UnOp, v: &Value, span: Span) -> QutesResult<Value> {
    match op {
        UnOp::Neg => match v {
            Value::Int(i) => Ok(Value::Int(i.wrapping_neg())),
            Value::Float(f) => Ok(Value::Float(-f)),
            other => Err(QutesError::runtime(
                format!("cannot negate {}", other.type_name()),
                span,
            )),
        },
        UnOp::Not => v
            .as_bool()
            .map(|b| Value::Bool(!b))
            .ok_or_else(|| QutesError::runtime("'!' needs a boolean", span)),
    }
}

/// The builtin cast `to` (`int`, `float`, `bool` or `str`) of a classical
/// value.
pub fn cast(to: Builtin, v: &Value, span: Span) -> QutesResult<Value> {
    let undefined = |name: &str| {
        Err(QutesError::runtime(
            format!("{name}() is not defined for {}", v.type_name()),
            span,
        ))
    };
    match to {
        Builtin::Int => match v {
            Value::Int(i) => Ok(Value::Int(*i)),
            Value::Float(f) => Ok(Value::Int(f.trunc() as i64)),
            Value::Bool(b) => Ok(Value::Int(*b as i64)),
            Value::Str(s) => s
                .trim()
                .parse::<i64>()
                .map(Value::Int)
                .map_err(|_| QutesError::runtime(format!("cannot parse '{s}' as int"), span)),
            _ => undefined("int"),
        },
        Builtin::Float => match (v.as_f64(), v) {
            (Some(f), _) => Ok(Value::Float(f)),
            (None, Value::Str(s)) => s
                .trim()
                .parse::<f64>()
                .map(Value::Float)
                .map_err(|_| QutesError::runtime(format!("cannot parse '{s}' as float"), span)),
            (None, _) => undefined("float"),
        },
        Builtin::Bool => match v.as_bool() {
            Some(b) => Ok(Value::Bool(b)),
            None => undefined("bool"),
        },
        Builtin::Str => Ok(Value::Str(v.to_string())),
        other => Err(QutesError::runtime(
            format!("{other:?} is not a cast"),
            span,
        )),
    }
}

/// `len(v)`: the elements of an array, the characters of a string, or
/// the qubits of a register.
pub fn len(v: &Value, span: Span) -> QutesResult<Value> {
    match v {
        Value::Array(items) => Ok(Value::Int(items.borrow().len() as i64)),
        Value::Str(s) => Ok(Value::Int(s.chars().count() as i64)),
        Value::Quantum(q) => Ok(Value::Int(q.width() as i64)),
        other => Err(QutesError::runtime(
            format!("len() is not defined for {}", other.type_name()),
            span,
        )),
    }
}

/// `width(v)`: the qubits of a register.
pub fn width(v: &Value, span: Span) -> QutesResult<Value> {
    match v {
        Value::Quantum(q) => Ok(Value::Int(q.width() as i64)),
        other => Err(QutesError::runtime(
            format!("width() needs a quantum value, found {}", other.type_name()),
            span,
        )),
    }
}

/// The length of `range(v)`.
pub fn range_len(v: &Value, span: Span) -> QutesResult<i64> {
    v.as_i64()
        .filter(|&n| n >= 0)
        .ok_or_else(|| QutesError::runtime("range() needs a non-negative integer", span))
}

/// A classical value used as an index, a shift or a rotation amount
/// (`what` names it in the error): a non-negative integer.
pub fn non_negative(v: &Value, what: &str, span: Span) -> QutesResult<usize> {
    v.as_i64()
        .filter(|&i| i >= 0)
        .map(|i| i as usize)
        .ok_or_else(|| QutesError::runtime(format!("{what} must be a non-negative integer"), span))
}

/// `base[i]`: an array element, one qubit of a register, or one
/// character of a string.
pub fn index_value(base: &Value, i: usize, span: Span) -> QutesResult<Value> {
    match base {
        Value::Array(items) => {
            let items = items.borrow();
            items.get(i).map(|c| c.borrow().clone()).ok_or_else(|| {
                QutesError::runtime(
                    format!(
                        "index {i} out of bounds for array of length {}",
                        items.len()
                    ),
                    span,
                )
            })
        }
        Value::Quantum(q) => match q.qubits.get(i) {
            Some(&qb) => Ok(Value::Quantum(QuantumRef {
                qubits: vec![qb],
                kind: QKind::Qubit,
            })),
            None => Err(QutesError::runtime(
                format!("index {i} out of bounds for {}-qubit register", q.width()),
                span,
            )),
        },
        Value::Str(s) => s
            .chars()
            .nth(i)
            .map(|c| Value::Str(c.to_string()))
            .ok_or_else(|| {
                QutesError::runtime(
                    format!("index {i} out of bounds for string of length {}", s.len()),
                    span,
                )
            }),
        other => Err(QutesError::runtime(
            format!("cannot index into {}", other.type_name()),
            span,
        )),
    }
}

/// The static type of a classical value or a register.
pub fn runtime_type(v: &Value) -> Type {
    match v {
        Value::Bool(_) => Type::Bool,
        Value::Int(_) => Type::Int,
        Value::Float(_) => Type::Float,
        Value::Str(_) => Type::String,
        Value::Quantum(q) => q.kind.as_type(),
        Value::Array(_) => Type::Array(Box::new(Type::Int)),
        Value::Void => Type::Void,
    }
}
