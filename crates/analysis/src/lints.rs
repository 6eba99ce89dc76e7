//! The lint registry: every lint the analyzer can emit, with its id,
//! default level, and description — plus the per-run [`LintOptions`]
//! that resolve each lint's effective level.

/// Per-run lint configuration (the CLI's `-W`, `-A` and
/// `--deny-warnings`).
///
/// Level resolution for a lint with id `id` (e.g. `"QL001"`):
///
/// 1. start from the lint's registry default,
/// 2. [`allows`](Self::allows) containing `id` forces *allow*,
/// 3. otherwise [`warns`](Self::warns) containing `id` forces *warn*,
/// 4. otherwise, when [`deny_warnings`](Self::deny_warnings) is set,
///    *warn* is promoted to *deny*.
///
/// ```
/// use qutes_analysis::LintOptions;
///
/// let opts = LintOptions {
///     deny_warnings: true,
///     ..LintOptions::default()
/// };
/// assert!(opts.deny_warnings);
/// assert!(opts.allows.is_empty());
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LintOptions {
    /// Lint ids promoted to warn (CLI `-W <id>`).
    pub warns: Vec<String>,
    /// Lint ids silenced entirely (CLI `-A <id>`).
    pub allows: Vec<String>,
    /// Promote every warn-level finding to deny (CLI `--deny-warnings`),
    /// refusing execution.
    pub deny_warnings: bool,
}

/// How a lint finding is treated.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintLevel {
    /// Suppressed entirely; the finding is dropped.
    Allow,
    /// Reported as an informational note; never fails a build.
    Note,
    /// Reported as a warning.
    Warn,
    /// Reported as an error; execution entry points refuse to run.
    Deny,
}

/// A registered lint.
#[derive(Clone, Copy, Debug)]
pub struct Lint {
    /// Stable machine-readable id, e.g. `"QL001"`.
    pub id: &'static str,
    /// Short kebab-case name, e.g. `"use-after-measurement"`.
    pub name: &'static str,
    /// Level applied when the user configures nothing.
    pub default_level: LintLevel,
    /// One-line description used in docs and `lint --help`.
    pub description: &'static str,
}

/// Use of a measured (collapsed) quantum variable in a quantum operation.
pub const USE_AFTER_MEASUREMENT: Lint = Lint {
    id: "QL001",
    name: "use-after-measurement",
    default_level: LintLevel::Warn,
    description:
        "quantum variable used in a quantum operation after an explicit measure collapsed it",
};

/// Aliasing a quantum value into a second live binding (no-cloning).
pub const QUANTUM_ALIAS: Lint = Lint {
    id: "QL002",
    name: "quantum-alias",
    default_level: LintLevel::Warn,
    description:
        "quantum value aliased into a second binding; both names share the same qubits (no-cloning)",
};

/// Quantum variable prepared but never measured or uncomputed.
pub const DIRTY_QUBITS: Lint = Lint {
    id: "QL003",
    name: "dirty-qubits",
    default_level: LintLevel::Note,
    description: "quantum variable is operated on but never measured; its qubits stay allocated and unobserved",
};

/// Measurement whose classical result is never used.
pub const UNUSED_MEASUREMENT: Lint = Lint {
    id: "QL004",
    name: "unused-measurement",
    default_level: LintLevel::Warn,
    description:
        "measurement result is never used; the collapse has no observable effect on the program",
};

/// Classical or quantum variable never read.
pub const UNUSED_VARIABLE: Lint = Lint {
    id: "QL101",
    name: "unused-variable",
    default_level: LintLevel::Warn,
    description: "variable is never used (prefix the name with '_' to silence)",
};

/// Statements after a `return` in the same block.
pub const UNREACHABLE_CODE: Lint = Lint {
    id: "QL102",
    name: "unreachable-code",
    default_level: LintLevel::Warn,
    description: "statement is unreachable because an earlier statement always returns",
};

/// `if`/`while` condition that is a constant literal.
pub const CONSTANT_CONDITION: Lint = Lint {
    id: "QL103",
    name: "constant-condition",
    default_level: LintLevel::Warn,
    description: "condition is a constant, so one branch can never run",
};

/// Implicit quantum→classical conversion (auto-measurement).
pub const IMPLICIT_MEASUREMENT: Lint = Lint {
    id: "QL201",
    name: "implicit-measurement",
    default_level: LintLevel::Note,
    description: "lossy quantum-to-classical cast: the value is implicitly measured and collapses",
};

/// Every lint the analyzer knows about, in id order.
pub const REGISTRY: &[Lint] = &[
    USE_AFTER_MEASUREMENT,
    QUANTUM_ALIAS,
    DIRTY_QUBITS,
    UNUSED_MEASUREMENT,
    UNUSED_VARIABLE,
    UNREACHABLE_CODE,
    CONSTANT_CONDITION,
    IMPLICIT_MEASUREMENT,
];

/// Looks a lint up by its `QLxxx` id.
pub fn lint_by_id(id: &str) -> Option<&'static Lint> {
    REGISTRY.iter().find(|l| l.id == id)
}

/// Computes the effective level of `lint` under `opts`.
///
/// See [`LintOptions`] for the resolution order.
///
/// ```
/// use qutes_analysis::lints::{effective_level, LintLevel, LintOptions, UNUSED_VARIABLE};
///
/// let mut opts = LintOptions::default();
/// assert_eq!(effective_level(&UNUSED_VARIABLE, &opts), LintLevel::Warn);
/// opts.deny_warnings = true;
/// assert_eq!(effective_level(&UNUSED_VARIABLE, &opts), LintLevel::Deny);
/// opts.allows.push("QL101".into());
/// assert_eq!(effective_level(&UNUSED_VARIABLE, &opts), LintLevel::Allow);
/// ```
pub fn effective_level(lint: &Lint, opts: &LintOptions) -> LintLevel {
    if opts.allows.iter().any(|id| id == lint.id) {
        return LintLevel::Allow;
    }
    let mut level = if opts.warns.iter().any(|id| id == lint.id) {
        LintLevel::Warn
    } else {
        lint.default_level
    };
    if level == LintLevel::Warn && opts.deny_warnings {
        level = LintLevel::Deny;
    }
    level
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_off() {
        let opts = LintOptions::default();
        assert!(!opts.deny_warnings);
        assert!(opts.warns.is_empty() && opts.allows.is_empty());
    }

    #[test]
    fn registry_ids_are_unique_and_sorted() {
        let ids: Vec<&str> = REGISTRY.iter().map(|l| l.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(ids, sorted, "registry must be unique and in id order");
    }

    #[test]
    fn lookup_by_id() {
        assert_eq!(
            lint_by_id("QL001").map(|l| l.name),
            Some("use-after-measurement")
        );
        assert!(lint_by_id("QL999").is_none());
    }

    #[test]
    fn warn_flag_promotes_a_note() {
        let mut opts = LintOptions::default();
        assert_eq!(effective_level(&DIRTY_QUBITS, &opts), LintLevel::Note);
        opts.warns.push("QL003".into());
        assert_eq!(effective_level(&DIRTY_QUBITS, &opts), LintLevel::Warn);
        opts.deny_warnings = true;
        assert_eq!(effective_level(&DIRTY_QUBITS, &opts), LintLevel::Deny);
    }

    #[test]
    fn allow_beats_everything() {
        let opts = LintOptions {
            warns: vec!["QL001".into()],
            allows: vec!["QL001".into()],
            deny_warnings: true,
        };
        assert_eq!(
            effective_level(&USE_AFTER_MEASUREMENT, &opts),
            LintLevel::Allow
        );
    }

    #[test]
    fn notes_never_deny_by_default() {
        let opts = LintOptions {
            deny_warnings: true,
            ..LintOptions::default()
        };
        assert_eq!(
            effective_level(&IMPLICIT_MEASUREMENT, &opts),
            LintLevel::Note
        );
        assert_eq!(effective_level(&DIRTY_QUBITS, &opts), LintLevel::Note);
    }
}
