//! Golden-file tests for the static analyzer: each `tests/lint_corpus/
//! <name>.qut` program has a checked-in `<name>.expected` file holding the
//! exact rendered report (findings with ids, line:col spans, and source
//! context, plus the resource summary line). The shipped examples under
//! `examples/programs/` are pinned the same way, with their goldens in
//! `tests/lint_examples/`.
//!
//! Regenerate after an intentional output change with:
//!
//! ```text
//! QUTES_UPDATE_GOLDEN=1 cargo test --test lint_golden
//! ```

use std::path::{Path, PathBuf};

use qutes::analysis::analyze_source;
use qutes::analysis::LintOptions;
use qutes::frontend::LineMap;

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/lint_corpus")
}

fn render_report(source: &str) -> String {
    let report = analyze_source(source, &LintOptions::default()).expect("corpus programs compile");
    report.render(source)
}

/// Checks every `.qut` program in `sources` against the `<name>.expected`
/// golden in `goldens`, or rewrites the goldens when `QUTES_UPDATE_GOLDEN`
/// is set. Returns the number of programs checked.
fn check_goldens(sources: &Path, goldens: &Path) -> usize {
    let update = std::env::var_os("QUTES_UPDATE_GOLDEN").is_some();
    let mut checked = 0usize;
    let mut entries: Vec<_> = std::fs::read_dir(sources)
        .expect("source dir exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "qut"))
        .collect();
    entries.sort();
    for path in entries {
        let source = std::fs::read_to_string(&path).expect("program file reads");
        let actual = render_report(&source);
        let name = path.file_stem().expect("file has a name");
        let expected_path = goldens.join(name).with_extension("expected");
        if update {
            std::fs::write(&expected_path, &actual).expect("golden file writes");
        } else {
            let expected = std::fs::read_to_string(&expected_path).unwrap_or_else(|e| {
                panic!(
                    "missing golden file {} ({e}); run with QUTES_UPDATE_GOLDEN=1",
                    expected_path.display()
                )
            });
            assert_eq!(
                actual,
                expected,
                "golden mismatch for {} — rerun with QUTES_UPDATE_GOLDEN=1 if intended",
                path.display()
            );
        }
        checked += 1;
    }
    checked
}

#[test]
fn corpus_matches_golden_files() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let corpus = check_goldens(&corpus_dir(), &corpus_dir());
    assert!(corpus >= 9, "corpus unexpectedly small: {corpus} programs");
    let examples = check_goldens(
        &root.join("examples/programs"),
        &root.join("tests/lint_examples"),
    );
    assert!(
        examples >= 12,
        "examples unexpectedly few: {examples} programs"
    );
}

/// Collects `(lint id, line, col)` triples for a corpus program.
fn findings_at(name: &str) -> Vec<(String, usize, usize)> {
    let path = corpus_dir().join(name);
    let source = std::fs::read_to_string(&path).expect("corpus file reads");
    let report = analyze_source(&source, &LintOptions::default()).expect("compiles");
    let map = LineMap::new(&source);
    report
        .findings
        .iter()
        .map(|f| {
            let (line, col) = map.position(f.span.start);
            (f.lint.id.to_string(), line, col)
        })
        .collect()
}

#[test]
fn use_after_measurement_points_at_the_gated_qubit() {
    let f = findings_at("use_after_measurement.qut");
    assert!(
        f.iter().any(|(id, line, _)| id == "QL001" && *line == 4),
        "expected QL001 on line 4 (hadamard after measure), got {f:?}"
    );
}

#[test]
fn aliasing_points_at_the_second_binding() {
    let f = findings_at("aliasing.qut");
    assert!(
        f.iter().any(|(id, line, _)| id == "QL002" && *line == 4),
        "expected QL002 on line 4 (qubit b = a), got {f:?}"
    );
}

#[test]
fn unused_variable_points_at_the_declaration() {
    let f = findings_at("unused_variable.qut");
    assert!(
        f.iter().any(|(id, line, _)| id == "QL101" && *line == 2),
        "expected QL101 on line 2, got {f:?}"
    );
    assert!(
        !f.iter().any(|(id, line, _)| id == "QL101" && *line == 3),
        "the read variable must not fire, got {f:?}"
    );
}

#[test]
fn unreachable_code_points_at_the_dead_statement() {
    let f = findings_at("unreachable.qut");
    assert!(
        f.iter().any(|(id, line, _)| id == "QL102" && *line == 4),
        "expected QL102 on line 4 (print after return), got {f:?}"
    );
}

#[test]
fn lossy_cast_points_at_the_collapsing_initializer() {
    let f = findings_at("lossy_cast.qut");
    assert!(
        f.iter().any(|(id, line, _)| id == "QL201" && *line == 4),
        "expected QL201 on line 4 (int collapsed = n), got {f:?}"
    );
}

#[test]
fn clean_program_has_no_findings() {
    assert!(findings_at("clean.qut").is_empty());
}

#[test]
fn allows_silence_and_deny_warnings_promotes() {
    let source = std::fs::read_to_string(corpus_dir().join("unused_variable.qut")).expect("reads");

    let mut opts = LintOptions::default();
    opts.allows.push("QL101".into());
    let silenced = analyze_source(&source, &opts).expect("compiles");
    assert!(silenced.findings.iter().all(|f| f.lint.id != "QL101"));

    let opts = LintOptions {
        deny_warnings: true,
        ..LintOptions::default()
    };
    let denied = analyze_source(&source, &opts).expect("compiles");
    assert!(
        denied.denied().iter().any(|f| f.lint.id == "QL101"),
        "deny-warnings must promote the warning to deny"
    );
}
