//! Robustness corpus: malformed, truncated, and adversarially nested
//! sources must always come back as `Diagnostic`s — never a panic, never
//! a stack overflow. Each corpus entry is fed to `parse` inside
//! `catch_unwind` so one bad input fails its case instead of aborting the
//! whole suite.

#![allow(clippy::panic)]

use qutes_frontend::parse;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Parses `src`, asserting the parser neither panics nor loops forever.
/// Returns whether the source was accepted.
fn parse_survives(label: &str, src: &str) -> bool {
    let owned = src.to_string();
    let result = catch_unwind(AssertUnwindSafe(|| parse(&owned).is_ok()));
    match result {
        Ok(accepted) => accepted,
        Err(_) => panic!("parser panicked on corpus entry '{label}'"),
    }
}

/// Like `parse_survives` but additionally requires at least one
/// diagnostic (the input is definitely invalid).
fn expect_rejected(label: &str, src: &str) {
    let owned = src.to_string();
    let result = catch_unwind(AssertUnwindSafe(|| parse(&owned)));
    match result {
        Ok(Ok(_)) => panic!("parser accepted invalid corpus entry '{label}'"),
        Ok(Err(diags)) => assert!(
            !diags.is_empty(),
            "corpus entry '{label}' rejected without diagnostics"
        ),
        Err(_) => panic!("parser panicked on corpus entry '{label}'"),
    }
}

#[test]
fn malformed_corpus_yields_diagnostics_not_panics() {
    let corpus: &[(&str, &str)] = &[
        ("unterminated paren", "print (1 + 2;"),
        ("unterminated block", "if (true) { print 1;"),
        ("stray close brace", "} } }"),
        ("stray close paren", ") ) )"),
        ("stray close bracket", "] ] ]"),
        ("lonely operator", "+"),
        ("operator soup", "* / % + - << >> == != <= >="),
        ("dangling binary", "int x = 1 +;"),
        ("double assign", "int x = = 3;"),
        ("missing semicolon cascade", "int a = 1 int b = 2 int c = 3"),
        ("keyword as name", "int if = 3;"),
        ("gate without args", "h;"),
        ("gate wrong arity", "cx q0;"),
        ("measure nothing", "measure;"),
        ("empty if cond", "if () { print 1; }"),
        ("else without if", "else { print 1; }"),
        ("foreach missing in", "foreach x 1 { print x; }"),
        ("return at top with junk", "return @@@@;"),
        ("truncated function", "int f(int a,"),
        ("truncated mid-token", "int x = 12"),
        ("bare type keyword", "qubit"),
        ("array never closed", "int[] xs = [1, 2, 3"),
        ("call never closed", "f(1, 2, 3"),
        ("index never closed", "xs[0"),
        ("garbage bytes", "\u{0}\u{1}\u{2} int x = 1; \u{7f}"),
        ("only comments", "// nothing here\n// still nothing"),
        ("unicode identifier soup", "int \u{3b1}\u{3b2} = \u{221e};"),
        (
            "huge integer literal",
            "int x = 99999999999999999999999999999999999;",
        ),
        ("semicolon storm", ";;;;;;;;;;;;;;;;;;;;;;;;"),
        ("nested mismatched", "{ ( [ } ) ]"),
    ];
    for (label, src) in corpus {
        // Surviving is the requirement; some entries (comments only,
        // unicode identifiers) may legitimately parse.
        parse_survives(label, src);
    }
}

#[test]
fn definitely_invalid_inputs_are_rejected_with_diagnostics() {
    let invalid: &[(&str, &str)] = &[
        ("unterminated paren", "print (1 + 2;"),
        ("dangling binary", "int x = 1 +;"),
        ("empty if cond", "if () { print 1; }"),
        ("truncated function", "int f(int a,"),
        ("operator soup", "* / % + - << >> == != <= >="),
    ];
    for (label, src) in invalid {
        expect_rejected(label, src);
    }
}

#[test]
fn deep_paren_nesting_is_rejected_not_overflowed() {
    let src = format!("print {}1{};", "(".repeat(100_000), ")".repeat(100_000));
    expect_rejected("100k parens", &src);
}

#[test]
fn unbalanced_deep_parens_do_not_overflow() {
    let src = format!("print {}x;", "(".repeat(100_000));
    expect_rejected("100k open parens", &src);
}

#[test]
fn deep_unary_chains_do_not_overflow() {
    expect_rejected("100k minus", &format!("print {}1;", "-".repeat(100_000)));
    expect_rejected("100k bang", &format!("print {}1;", "!".repeat(100_000)));
}

#[test]
fn deep_block_nesting_is_rejected_not_overflowed() {
    let src = format!("{}print 1;{}", "{".repeat(100_000), "}".repeat(100_000));
    expect_rejected("100k blocks", &src);
}

#[test]
fn deep_else_if_chain_does_not_overflow() {
    let mut src = String::from("if (true) { print 1; }");
    for _ in 0..20_000 {
        src.push_str(" else if (true) { print 1; }");
    }
    expect_rejected("20k else-if", &src);
}

#[test]
fn deep_index_chains_are_rejected_not_overflowed() {
    // Postfix indexing is iterative in the parser but still nests the
    // AST one level per index; unbounded chains would overflow the stack
    // when the tree is dropped or walked.
    let src = format!("print xs{};", "[0]".repeat(50_000));
    expect_rejected("50k index chain", &src);
}

#[test]
fn deep_binary_chains_are_rejected_not_overflowed() {
    // Same story for left-associative operator chains.
    expect_rejected(
        "50k additions",
        &format!("print 1{};", " + 1".repeat(50_000)),
    );
    expect_rejected(
        "50k ors",
        &format!("print true{};", " || true".repeat(50_000)),
    );
}

#[test]
fn shallow_nesting_stays_accepted() {
    // The depth guard must not reject reasonable programs.
    let src = format!("print {}1{};", "(".repeat(64), ")".repeat(64));
    assert!(parse(&src).is_ok(), "64 nested parens must still parse");
    let src = format!("{}print 1;{}", "{".repeat(40), "}".repeat(40));
    assert!(parse(&src).is_ok(), "40 nested blocks must still parse");
}

#[test]
fn truncations_of_a_real_program_never_panic() {
    let program = "\
int f(int a, int b) {
    return a + b * 2;
}
qubit q = 0q;
h q;
if (measure q) {
    print f(1, 2);
} else {
    print 0;
}
";
    for end in 0..program.len() {
        if !program.is_char_boundary(end) {
            continue;
        }
        parse_survives("truncation", &program[..end]);
    }
}
