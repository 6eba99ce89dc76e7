//! # qutes-analysis
//!
//! Quantum-aware static analysis for the Qutes language: a lint pass and
//! a static resource estimator that run over the type checker's
//! resolution (`qutes_core::resolution`) **without simulating**
//! anything. The checker is the only code that looks a name up.
//!
//! The analyzer produces span-carrying [`Finding`]s from a fixed
//! [registry](lints::REGISTRY) of lints — quantum dataflow checks
//! (use-after-measurement, aliasing, dirty qubits, unused measurements),
//! classical hygiene checks (unused variables, unreachable code,
//! constant conditions), and notes on every implicit quantum→classical
//! measurement — plus a [`ResourceEstimate`] bounding the qubit count,
//! gate count, circuit depth, and measurement count of the circuit the
//! program would build.
//!
//! ```
//! use qutes_analysis::{analyze_source, LintOptions};
//!
//! let report = analyze_source(
//!     "qubit q = |+>;\nint unused = 3;\nprint q;\n",
//!     &LintOptions::default(),
//! )
//! .expect("program parses and type-checks");
//! assert_eq!(report.findings.len(), 1);
//! assert_eq!(report.findings[0].lint.id, "QL101");
//! assert_eq!(report.resources.qubits, 1);
//! assert!(report.resources.exact);
//! ```

#![deny(missing_docs)]

pub mod domains;
pub mod lints;
pub mod report;
pub mod resources;
pub mod verify;

mod cfg;
mod control;
mod dataflow;

pub use lints::{effective_level, lint_by_id, Lint, LintLevel, LintOptions, REGISTRY};
pub use report::{AnalysisReport, Finding};
pub use resources::{estimate, ResourceEstimate};
pub use verify::{
    install_optimizer_guard, verify_optimization, verify_rewrite, BoundaryReport,
    OptimizationVerification, SegmentVerdict, Verdict, VerifyReport,
};

use qutes_frontend::{Diagnostic, Span};

/// A lint hit before level resolution.
#[derive(Clone, Debug)]
pub(crate) struct RawFinding {
    pub(crate) lint: &'static Lint,
    pub(crate) message: String,
    pub(crate) span: Span,
    /// Secondary notes pointing at related spans (e.g. QL001's
    /// collapsing measurement). Rendered beneath the primary diagnostic,
    /// each carrying the primary lint's code.
    pub(crate) notes: Vec<(String, Span)>,
}

/// Parses, type-checks, and analyzes `source`.
///
/// Returns the parser's or type checker's diagnostics when the program
/// is not well-formed — the analyzer itself only runs on valid programs.
/// The one checker walk also gives the resolution the lints and the
/// estimator run on.
///
/// Findings are filtered through `opts` (allowed lints are dropped,
/// levels resolved per [`effective_level`]) and sorted by source
/// position. The resource estimate is always computed — it does not
/// depend on lint configuration.
pub fn analyze_source(source: &str, opts: &LintOptions) -> Result<AnalysisReport, Vec<Diagnostic>> {
    let program = qutes_frontend::parse(source)?;
    let (resolution, type_errors) = {
        let _span = qutes_obs::span("stage.typecheck");
        qutes_core::resolve(&program)
    };
    if !type_errors.is_empty() {
        return Err(type_errors);
    }
    let _span = qutes_obs::span("stage.analyze");
    let mut raw = dataflow::run(&resolution);
    raw.extend(control::run(&resolution));
    let mut findings: Vec<Finding> = raw
        .into_iter()
        .filter_map(|f| {
            let level = effective_level(f.lint, opts);
            (level > LintLevel::Allow).then_some(Finding {
                lint: f.lint,
                level,
                message: f.message,
                span: f.span,
                notes: f.notes,
            })
        })
        .collect();
    findings.sort_by_key(|f| (f.span.start, f.lint.id));
    Ok(AnalysisReport {
        findings,
        resources: resources::estimate_resolved(&resolution),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> LintOptions {
        LintOptions::default()
    }

    #[test]
    fn findings_are_sorted_by_position() {
        let report = analyze_source("int a = 1;\nint b = 2;\nprint \"neither used\";\n", &opts())
            .expect("parses");
        let spans: Vec<usize> = report.findings.iter().map(|f| f.span.start).collect();
        let mut sorted = spans.clone();
        sorted.sort_unstable();
        assert_eq!(spans, sorted);
        assert_eq!(report.findings.len(), 2);
    }

    #[test]
    fn allows_drop_findings() {
        let mut o = opts();
        o.allows.push("QL101".into());
        let report = analyze_source("int a = 1;\nprint \"x\";\n", &o).expect("parses");
        assert!(report.findings.is_empty());
    }

    #[test]
    fn deny_warnings_promotes_and_denies() {
        let mut o = opts();
        o.deny_warnings = true;
        let report = analyze_source("int a = 1;\nprint \"x\";\n", &o).expect("parses");
        assert_eq!(report.denied().len(), 1);
    }

    #[test]
    fn parse_errors_are_returned_as_diagnostics() {
        assert!(analyze_source("int = ;", &opts()).is_err());
    }

    #[test]
    fn type_errors_are_returned_as_diagnostics() {
        assert!(analyze_source("int x = \"not an int\" * true;\nprint x;\n", &opts()).is_err());
    }
}
