//! Compile- and run-time errors for the Qutes language.

use qutes_frontend::{Diagnostic, Span};
use qutes_supervisor::StopReason;
use std::fmt;

/// Any failure while compiling or running a Qutes program.
#[derive(Debug)]
pub enum QutesError {
    /// Lexical/syntactic/semantic diagnostics (possibly several).
    Compile(Vec<Diagnostic>),
    /// A runtime fault with a source location.
    Runtime {
        /// What went wrong.
        message: String,
        /// Where in the source.
        span: Span,
    },
    /// A fault in the circuit layer.
    Circuit(qutes_qcirc::CircError),
    /// A fault in the simulator layer.
    Sim(qutes_sim::SimError),
    /// The run was cut short by a deadline or cancellation, anywhere in
    /// the pipeline (parse, optimize, simulate, shot loop).
    Interrupted(StopReason),
    /// A panic contained at the facade boundary (see
    /// `qutes_supervisor::contain`); no panic crosses the library API.
    Internal {
        /// Pipeline stage active when the panic fired.
        stage: &'static str,
        /// The panic payload, if it was a string.
        message: String,
    },
}

impl QutesError {
    /// Builds a runtime error at `span`.
    pub fn runtime(message: impl Into<String>, span: Span) -> Self {
        QutesError::Runtime {
            message: message.into(),
            span,
        }
    }

    /// True for failures the supervisor may retry once at reduced
    /// settings: resource refusals that a smaller footprint could clear.
    /// Deadline trips, cancellations and logic errors are never
    /// transient.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            QutesError::Sim(
                qutes_sim::SimError::AllocationFailed { .. }
                    | qutes_sim::SimError::TooManyQubits(_)
            ) | QutesError::Circuit(
                qutes_qcirc::CircError::Sim(
                    qutes_sim::SimError::AllocationFailed { .. }
                        | qutes_sim::SimError::TooManyQubits(_)
                ) | qutes_qcirc::CircError::ResourceLimit { .. }
                    | qutes_qcirc::CircError::BudgetExhausted { .. }
            )
        )
    }

    /// Renders with source context where available.
    pub fn render(&self, source: &str) -> String {
        match self {
            QutesError::Compile(ds) => ds
                .iter()
                .map(|d| d.render(source))
                .collect::<Vec<_>>()
                .join("\n"),
            QutesError::Runtime { message, span } => {
                Diagnostic::error(format!("runtime: {message}"), *span).render(source)
            }
            other => format!("{other}"),
        }
    }
}

impl fmt::Display for QutesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QutesError::Compile(ds) => {
                for (i, d) in ds.iter().enumerate() {
                    if i > 0 {
                        writeln!(f)?;
                    }
                    write!(f, "{d}")?;
                }
                Ok(())
            }
            QutesError::Runtime { message, span } => {
                write!(f, "runtime error: {message} ({span})")
            }
            QutesError::Circuit(e) => write!(f, "circuit error: {e}"),
            QutesError::Sim(e) => write!(f, "simulator error: {e}"),
            QutesError::Interrupted(reason) => write!(f, "{reason}"),
            QutesError::Internal { stage, message } => {
                write!(f, "internal error in stage `{stage}`: {message}")
            }
        }
    }
}

impl std::error::Error for QutesError {}

impl From<Vec<Diagnostic>> for QutesError {
    fn from(ds: Vec<Diagnostic>) -> Self {
        QutesError::Compile(ds)
    }
}

impl From<qutes_qcirc::CircError> for QutesError {
    fn from(e: qutes_qcirc::CircError) -> Self {
        match e {
            qutes_qcirc::CircError::Interrupted(reason) => QutesError::Interrupted(reason),
            other => QutesError::Circuit(other),
        }
    }
}

impl From<qutes_sim::SimError> for QutesError {
    fn from(e: qutes_sim::SimError) -> Self {
        match e {
            qutes_sim::SimError::Interrupted(reason) => QutesError::Interrupted(reason),
            other => QutesError::Sim(other),
        }
    }
}

impl From<qutes_supervisor::ContainedPanic> for QutesError {
    fn from(p: qutes_supervisor::ContainedPanic) -> Self {
        QutesError::Internal {
            stage: p.stage,
            message: p.message,
        }
    }
}

impl From<StopReason> for QutesError {
    fn from(reason: StopReason) -> Self {
        QutesError::Interrupted(reason)
    }
}

/// Convenience alias.
pub type QutesResult<T> = Result<T, QutesError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = QutesError::runtime("division by zero", Span::new(4, 5));
        assert!(e.to_string().contains("division by zero"));
        let e: QutesError = vec![Diagnostic::error("bad", Span::new(0, 1))].into();
        assert!(e.to_string().contains("bad"));
    }

    #[test]
    fn render_includes_source() {
        let src = "int x = 1 / 0;";
        let e = QutesError::runtime("division by zero", Span::new(8, 13));
        let r = e.render(src);
        assert!(r.contains("runtime: division by zero"));
        assert!(r.contains(src));
    }
}
