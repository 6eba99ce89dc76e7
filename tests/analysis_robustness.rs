//! The analyzer must never panic: malformed sources come back as
//! diagnostics, weird-but-valid sources come back as reports, and the
//! shipped examples stay clean even under `--deny-warnings`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use qutes::analysis::analyze_source;
use qutes::analysis::LintOptions;

fn analyzer_survives(label: &str, src: &str) {
    let owned = src.to_owned();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _ = analyze_source(&owned, &LintOptions::default());
    }));
    assert!(result.is_ok(), "analyzer panicked on {label:?}");
}

#[test]
fn malformed_sources_never_panic_the_analyzer() {
    let corpus: &[(&str, &str)] = &[
        ("empty", ""),
        ("whitespace", "   \n\t  \n"),
        ("comment only", "// nothing here\n"),
        ("lone keyword", "qubit"),
        ("unterminated string", "print \"abc"),
        ("unterminated ket", "qubit q = |0"),
        ("stray operator", "+ + +"),
        ("unbalanced braces", "if (true) { print 1;"),
        ("unbalanced parens", "print (((1);"),
        ("bad escape", "print \"\\q\";"),
        ("null byte", "print 1;\0print 2;"),
        ("non-ascii", "print \"héllo ∆\"; qübit q;"),
        ("semicolon soup", ";;;;;"),
        ("keyword as name", "int if = 1;"),
        ("huge int literal", "print 99999999999999999999999999;"),
        ("nested ternary-ish", "print 1 ? 2 : 3;"),
        ("array of nothing", "int[] xs = [];"),
        ("measure nothing", "measure;"),
        ("assign to literal", "3 = 4;"),
        ("recursive fn", "int f(int n) { return f(n); } print f(1);"),
        ("div by zero", "print 1 / 0;"),
        ("deep index", "int[] a = [1]; print a[0][0][0][0];"),
    ];
    for (label, src) in corpus {
        analyzer_survives(label, src);
    }
}

#[test]
fn deep_nesting_never_panics_the_analyzer() {
    let deep_parens = format!("print {}1{};", "(".repeat(300), ")".repeat(300));
    analyzer_survives("deep parens", &deep_parens);
    let deep_blocks = format!("{}print 1;{}", "{".repeat(300), "}".repeat(300));
    analyzer_survives("deep blocks", &deep_blocks);
    let deep_unary = format!("print {}1;", "-".repeat(300));
    analyzer_survives("deep unary", &deep_unary);
    let deep_binary = format!("print 1{};", " + 1".repeat(500));
    analyzer_survives("deep binary", &deep_binary);
}

fn example_sources() -> Vec<(String, String)> {
    let dir = format!("{}/examples/programs", env!("CARGO_MANIFEST_DIR"));
    let mut out = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("examples dir exists") {
        let path = entry.expect("readable entry").path();
        if path.extension().is_some_and(|e| e == "qut") {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let src = std::fs::read_to_string(&path).expect("example reads");
            out.push((name, src));
        }
    }
    assert!(out.len() >= 10, "expected the full example set");
    out
}

#[test]
fn every_example_analyzes_without_panicking() {
    for (name, src) in example_sources() {
        analyzer_survives(&name, &src);
    }
}

/// The shipped examples are held to the strictest bar: no deny-level
/// findings even when every warning is promoted (this is what the CI
/// `lint-examples` job enforces via `qutes lint --deny-warnings`).
#[test]
fn examples_stay_clean_under_deny_warnings() {
    let opts = LintOptions {
        deny_warnings: true,
        ..LintOptions::default()
    };
    for (name, src) in example_sources() {
        let report = analyze_source(&src, &opts)
            .unwrap_or_else(|d| panic!("{name}: failed to compile: {d:?}"));
        let denied = report.denied();
        assert!(
            denied.is_empty(),
            "{name}: deny-level findings: {:?}",
            denied
                .iter()
                .map(|f| format!("{} {}", f.lint.id, f.message))
                .collect::<Vec<_>>()
        );
    }
}

/// Truncating a real program at every byte boundary exercises the
/// analyzer on a dense set of almost-valid inputs.
#[test]
fn truncations_of_a_real_program_never_panic() {
    let src = std::fs::read_to_string(format!(
        "{}/examples/programs/teleport.qut",
        env!("CARGO_MANIFEST_DIR")
    ))
    .expect("example reads");
    for end in 0..=src.len() {
        if src.is_char_boundary(end) {
            analyzer_survives(&format!("teleport[..{end}]"), &src[..end]);
        }
    }
}
