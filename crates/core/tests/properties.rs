//! Property tests for the interpreter: classical evaluation must agree
//! with a direct Rust model, and quantum arithmetic must satisfy its
//! algebraic laws on random inputs.

// Helpers outside `#[test]` fns panic with the failing program.
#![allow(clippy::panic)]

use proptest::prelude::*;
use qutes_core::{run_source, RunConfig};

fn run(src: &str, seed: u64) -> Vec<String> {
    run_source(
        src,
        &RunConfig {
            seed,
            ..RunConfig::default()
        },
    )
    .unwrap_or_else(|e| panic!("program failed:\n{}", e.render(src)))
    .output
}

// ---- classical expressions vs a Rust model ---------------------------------

/// A random arithmetic expression over +, -, * with its model value.
#[derive(Clone, Debug)]
struct ArithExpr {
    text: String,
    value: i64,
}

fn arith_strategy() -> impl Strategy<Value = ArithExpr> {
    let leaf = (-50i64..50).prop_map(|v| ArithExpr {
        text: if v < 0 {
            format!("(0 - {})", -v)
        } else {
            v.to_string()
        },
        value: v,
    });
    leaf.prop_recursive(4, 32, 2, |inner| {
        (
            inner.clone(),
            prop_oneof![Just('+'), Just('-'), Just('*')],
            inner,
        )
            .prop_map(|(l, op, r)| {
                let value = match op {
                    '+' => l.value.wrapping_add(r.value),
                    '-' => l.value.wrapping_sub(r.value),
                    _ => l.value.wrapping_mul(r.value),
                };
                ArithExpr {
                    text: format!("({} {op} {})", l.text, r.text),
                    value,
                }
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random integer expressions evaluate exactly like Rust.
    #[test]
    fn classical_arithmetic_matches_model(e in arith_strategy()) {
        let out = run(&format!("print {};", e.text), 0);
        prop_assert_eq!(&out[0], &e.value.to_string());
    }

    /// Comparison operators agree with the model.
    #[test]
    fn comparisons_match_model(a in -100i64..100, b in -100i64..100) {
        let src = format!(
            "print {a} < {b}; print {a} <= {b}; print {a} == {b}; print {a} >= {b};"
        );
        let out = run(&src, 0);
        prop_assert_eq!(&out[0], &(a < b).to_string());
        prop_assert_eq!(&out[1], &(a <= b).to_string());
        prop_assert_eq!(&out[2], &(a == b).to_string());
        prop_assert_eq!(&out[3], &(a >= b).to_string());
    }

    /// while-loop accumulation matches a fold.
    #[test]
    fn loop_accumulation_matches(n in 0i64..30) {
        let src = format!(
            "int i = 0; int acc = 0; while (i < {n}) {{ acc += i * i; i += 1; }} print acc;"
        );
        let expect: i64 = (0..n).map(|i| i * i).sum();
        prop_assert_eq!(&run(&src, 0)[0], &expect.to_string());
    }

    // ---- quantum algebraic laws --------------------------------------------

    /// Basis-encoded quints measure back to their value.
    #[test]
    fn quint_roundtrip(v in 0u64..1024) {
        let out = run(&format!("quint n = {v}q; print n;"), 1);
        prop_assert_eq!(&out[0], &v.to_string());
    }

    /// add-then-subtract of the same constant is the identity
    /// (both wrap at the same register modulus).
    #[test]
    fn quint_add_sub_roundtrip(v in 0u64..128, k in 0i64..128) {
        let src = format!("quint n = {v}q; n += {k}; n -= {k}; print n;");
        prop_assert_eq!(&run(&src, 2)[0], &v.to_string());
    }

    /// Quantum addition is commutative on basis states. (Operands stay
    /// small so each program's named registers fit the simulator cap;
    /// work ancillas are pooled by the runtime.)
    #[test]
    fn quint_addition_commutes(a in 0u64..8, b in 0u64..8) {
        // Two separate programs (one sum each) keep the register count —
        // and thus the simulated state — small.
        let ab = run(&format!("quint x = {a}q; quint y = {b}q; print x + y;"), 3);
        let ba = run(&format!("quint x = {a}q; quint y = {b}q; print y + x;"), 3);
        prop_assert_eq!(&ab[0], &ba[0]);
        prop_assert_eq!(&ab[0], &(a + b).to_string());
    }

    /// Quantum multiplication matches classical multiplication.
    #[test]
    fn quint_multiplication_matches(a in 0u64..8, b in 0u64..8) {
        let src = format!("quint x = {a}q; print x * {b};");
        prop_assert_eq!(&run(&src, 4)[0], &(a * b).to_string());
    }

    /// rotl then rotr is the identity for any width/amount.
    #[test]
    fn rotation_roundtrip(v in 0u64..256, k in 0u64..16) {
        let src = format!("quint n = {v}q; rotl(n, {k}); rotr(n, {k}); print n;");
        prop_assert_eq!(&run(&src, 5)[0], &v.to_string());
    }

    /// Double bit-flip is the identity on any register.
    #[test]
    fn double_not_identity(v in 0u64..256) {
        let src = format!("quint n = {v}q; not n; not n; print n;");
        prop_assert_eq!(&run(&src, 6)[0], &v.to_string());
    }

    /// A superposition literal always measures to one of its values, and
    /// repeated reads agree (collapse).
    #[test]
    fn superposition_measures_into_set(mut vals in prop::collection::vec(0u64..32, 1..5),
                                       seed in 0u64..32) {
        vals.sort_unstable();
        vals.dedup();
        let list = vals
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        let src = format!("quint n = [{list}]q; int a = n; int b = n; print a; print b;");
        let out = run(&src, seed);
        let a: u64 = out[0].parse().unwrap();
        prop_assert!(vals.contains(&a), "{a} not in {vals:?}");
        prop_assert_eq!(&out[0], &out[1]);
    }

    /// Promotion followed by measurement is the identity on ints.
    #[test]
    fn promote_measure_roundtrip(v in 0i64..1024) {
        let src = format!("quint n = {v}; int back = n; print back;");
        prop_assert_eq!(&run(&src, 7)[0], &v.to_string());
    }

    /// The type checker never panics on random token soup.
    #[test]
    fn typechecker_is_total(src in "[ -~\\n]{0,200}") {
        if let Ok(p) = qutes_frontend::parse(&src) {
            let _ = qutes_core::check_program(&p);
        }
    }
}
