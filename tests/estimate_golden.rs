//! Golden file of the static analyzer's answers: for every shipped
//! example, every lint-corpus program, every interpreter microbenchmark
//! under `tests/interp_programs/` and the 200 generated programs of
//! `crates/core/tests/common/generator.rs`, it pins every field of
//! `estimate()` and the `qutes lint --lint-json` report (or the
//! diagnostics of a program the checker rejects; the estimate is taken
//! either way).
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! QUTES_UPDATE_GOLDEN=1 cargo test --test estimate_golden
//! ```

#![allow(clippy::expect_used, clippy::panic)]

#[path = "../crates/core/tests/common/generator.rs"]
mod generator;

use qutes::analysis::{analyze_source, estimate, LintOptions};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Number of generated programs pinned (seeds `0..GENERATED`).
const GENERATED: u64 = 200;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The `.qut` files of `dir`, sorted.
fn programs(dir: &str) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(root().join(dir))
        .expect("program dir exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "qut"))
        .collect();
    paths.sort();
    paths
}

/// One program's entry: the estimate's fields, then the lint report.
fn entry(out: &mut String, name: &str, source: &str) {
    let _ = writeln!(out, "== {name}");
    match qutes::parse(source) {
        Ok(program) => {
            let e = estimate(&program);
            let _ = writeln!(
                out,
                "estimate: qubits={} gates={} depth={} measurements={} exact={} \
                 clifford_only={} notes={:?}",
                e.qubits, e.gates, e.depth, e.measurements, e.exact, e.clifford_only, e.notes
            );
        }
        Err(_) => out.push_str("estimate: does not parse\n"),
    }
    match analyze_source(source, &LintOptions::default()) {
        Ok(report) => {
            out.push_str("lint-json:\n");
            for line in report.to_json(source).lines() {
                let _ = writeln!(out, "  {line}");
            }
        }
        Err(diags) => {
            out.push_str("lint: rejected\n");
            for d in diags {
                let _ = writeln!(out, "  {}", d.message);
            }
        }
    }
}

fn render() -> String {
    let mut out = String::new();
    for dir in [
        "examples/programs",
        "tests/lint_corpus",
        "tests/interp_programs",
    ] {
        for path in programs(dir) {
            let source = std::fs::read_to_string(&path).expect("program reads");
            let name = path.strip_prefix(root()).expect("under the root");
            entry(&mut out, &name.display().to_string(), &source);
        }
    }
    for seed in 0..GENERATED {
        entry(
            &mut out,
            &format!("generated seed {seed}"),
            &generator::generate(seed),
        );
    }
    out
}

#[test]
fn estimates_and_lint_reports_match_golden() {
    let path = root().join("tests/golden/estimates.txt");
    let actual = render();
    if std::env::var_os("QUTES_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).expect("golden file writes");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with QUTES_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    if actual != expected {
        let first = actual
            .split("== ")
            .zip(expected.split("== "))
            .find(|(a, e)| a != e);
        match first {
            Some((a, e)) => panic!(
                "golden mismatch in {}\nactual:\n== {a}\nexpected:\n== {e}\n\
                 rerun with QUTES_UPDATE_GOLDEN=1 if intended",
                path.display()
            ),
            None => panic!("golden mismatch in {} (entry count)", path.display()),
        }
    }
}
