//! Analysis results: findings, the aggregate report, rendering, and the
//! `--lint-json` machine-readable serialization.

use crate::lints::{Lint, LintLevel};
use crate::resources::ResourceEstimate;
use qutes_frontend::{Diagnostic, LineMap, Span};

/// A single lint finding.
#[derive(Clone, Debug)]
pub struct Finding {
    /// The lint that fired.
    pub lint: &'static Lint,
    /// Effective level after applying the run's [`LintOptions`](crate::LintOptions).
    pub level: LintLevel,
    /// Human-readable message.
    pub message: String,
    /// Source span the finding points at.
    pub span: Span,
    /// Secondary notes pointing at related spans (e.g. QL001's
    /// "the collapsing measurement is here"). Each renders as a
    /// `note[<lint id>]` diagnostic beneath the primary, keeping the
    /// machine-readable code at every severity — including when
    /// `--deny-warnings` promotes the primary to an error.
    pub notes: Vec<(String, Span)>,
}

impl Finding {
    /// Converts into a shared [`Diagnostic`] (same renderer as parser
    /// and type errors), carrying the lint id as the code. Notes are
    /// not included — use [`Finding::render`] for the full output.
    pub fn to_diagnostic(&self) -> Diagnostic {
        let d = match self.level {
            LintLevel::Deny => Diagnostic::error(self.message.clone(), self.span),
            LintLevel::Warn => Diagnostic::warning(self.message.clone(), self.span),
            _ => Diagnostic::note(self.message.clone(), self.span),
        };
        d.with_code(self.lint.id)
    }

    /// Renders with source context via the shared diagnostic renderer,
    /// followed by the attached notes (each tagged with the lint code).
    pub fn render(&self, source: &str) -> String {
        let mut out = self.to_diagnostic().render(source);
        for (message, span) in &self.notes {
            out.push_str(
                &Diagnostic::note(message.clone(), *span)
                    .with_code(self.lint.id)
                    .render(source),
            );
        }
        out
    }
}

/// Everything one [`crate::analyze_source`] call produced.
#[derive(Clone, Debug, Default)]
pub struct AnalysisReport {
    /// Findings at level Note or above, in source order.
    pub findings: Vec<Finding>,
    /// Static bounds on the circuit the program would build.
    pub resources: ResourceEstimate,
}

impl AnalysisReport {
    /// Findings at [`LintLevel::Deny`]; non-empty means execution entry
    /// points refuse to run the program.
    pub fn denied(&self) -> Vec<&Finding> {
        self.findings
            .iter()
            .filter(|f| f.level == LintLevel::Deny)
            .collect()
    }

    /// True when no finding is at warn level or above.
    pub fn is_clean(&self) -> bool {
        self.findings.iter().all(|f| f.level < LintLevel::Warn)
    }

    /// Renders every finding plus a one-line resource summary.
    pub fn render(&self, source: &str) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.render(source));
        }
        out.push_str(&self.resources.summary());
        out.push('\n');
        out
    }

    /// Serializes the report as JSON (the `--lint-json` output).
    ///
    /// Schema (documented in `docs/analysis.md`):
    ///
    /// ```text
    /// {
    ///   "findings": [
    ///     { "id": "QL101", "name": "unused-variable", "level": "warn",
    ///       "message": "...", "span": { "start": 6, "end": 7,
    ///       "line": 1, "col": 7 },
    ///       "notes": [ { "message": "...", "span": { ... } }, ... ] }, ...
    ///   ],
    ///   "resources": { "qubits": 2, "gates": 3, "depth": 3,
    ///                  "measurements": 2, "exact": true,
    ///                  "clifford_only": true, "notes": ["..."] }
    /// }
    /// ```
    pub fn to_json(&self, source: &str) -> String {
        let map = LineMap::new(source);
        let mut out = String::from("{\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            let (line, col) = map.position(f.span.start);
            if i > 0 {
                out.push(',');
            }
            let notes = f
                .notes
                .iter()
                .map(|(message, span)| {
                    let (nline, ncol) = map.position(span.start);
                    format!(
                        "{{ \"message\": {}, \"span\": {{ \"start\": {}, \"end\": {}, \
                         \"line\": {nline}, \"col\": {ncol} }} }}",
                        json_str(message),
                        span.start,
                        span.end,
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "\n    {{ \"id\": {}, \"name\": {}, \"level\": {}, \"message\": {}, \
                 \"span\": {{ \"start\": {}, \"end\": {}, \"line\": {line}, \"col\": {col} }}, \
                 \"notes\": [{notes}] }}",
                json_str(f.lint.id),
                json_str(f.lint.name),
                json_str(level_str(f.level)),
                json_str(&f.message),
                f.span.start,
                f.span.end,
            ));
        }
        if self.findings.is_empty() {
            out.push_str("],\n");
        } else {
            out.push_str("\n  ],\n");
        }
        let r = &self.resources;
        out.push_str(&format!(
            "  \"resources\": {{ \"qubits\": {}, \"gates\": {}, \"depth\": {}, \
             \"measurements\": {}, \"exact\": {}, \"clifford_only\": {}, \
             \"notes\": [{}] }}\n}}\n",
            r.qubits,
            r.gates,
            r.depth,
            r.measurements,
            r.exact,
            r.clifford_only,
            r.notes
                .iter()
                .map(|n| json_str(n))
                .collect::<Vec<_>>()
                .join(", "),
        ));
        out
    }
}

fn level_str(level: LintLevel) -> &'static str {
    match level {
        LintLevel::Allow => "allow",
        LintLevel::Note => "note",
        LintLevel::Warn => "warn",
        LintLevel::Deny => "deny",
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lints::UNUSED_VARIABLE;

    fn finding() -> Finding {
        Finding {
            lint: &UNUSED_VARIABLE,
            level: LintLevel::Warn,
            message: "unused variable 'x'".into(),
            span: Span::new(4, 5),
            notes: Vec::new(),
        }
    }

    #[test]
    fn render_uses_the_shared_diagnostic_renderer() {
        let src = "int x = 1;\n";
        let rendered = finding().render(src);
        assert!(rendered.starts_with("warning[QL101]: unused variable 'x' at 1:5"));
        assert!(rendered.contains("int x = 1;"));
    }

    #[test]
    fn notes_render_with_the_primary_lint_code_at_every_severity() {
        let src = "int x = 1;\n";
        let mut f = finding();
        f.notes.push(("declared here".into(), Span::new(0, 3)));
        let rendered = f.render(src);
        assert!(rendered.contains("note[QL101]: declared here at 1:1"));
        // Deny-promotion must not strip the code from the note.
        f.level = LintLevel::Deny;
        let rendered = f.render(src);
        assert!(rendered.starts_with("error[QL101]:"));
        assert!(rendered.contains("note[QL101]: declared here at 1:1"));
    }

    #[test]
    fn json_serializes_notes() {
        let src = "int x = 1;\n";
        let mut f = finding();
        f.notes.push(("declared here".into(), Span::new(0, 3)));
        let report = AnalysisReport {
            findings: vec![f],
            resources: ResourceEstimate::default(),
        };
        let json = report.to_json(src);
        assert!(json.contains("\"notes\": [{ \"message\": \"declared here\""));
        assert!(json.contains("\"line\": 1, \"col\": 1"));
    }

    #[test]
    fn json_contains_span_coordinates() {
        let src = "int x = 1;\n";
        let report = AnalysisReport {
            findings: vec![finding()],
            resources: ResourceEstimate::default(),
        };
        let json = report.to_json(src);
        assert!(json.contains("\"id\": \"QL101\""));
        assert!(json.contains("\"line\": 1, \"col\": 5"));
        assert!(json.contains("\"resources\""));
    }

    #[test]
    fn json_escapes_strings() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn denied_filters_by_level() {
        let mut report = AnalysisReport {
            findings: vec![finding()],
            resources: ResourceEstimate::default(),
        };
        assert!(report.denied().is_empty());
        assert!(!report.is_clean());
        report.findings[0].level = LintLevel::Deny;
        assert_eq!(report.denied().len(), 1);
        report.findings[0].level = LintLevel::Note;
        assert!(report.is_clean());
    }
}
