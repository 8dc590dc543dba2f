//! Diagnostics and the lint report.

use std::fmt;

/// One lint violation, anchored to a `file:line:col` span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule identifier (e.g. `no_hot_panic`).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based byte column.
    pub col: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}: [{}] {}", self.file, self.line, self.col, self.rule, self.message)
    }
}

/// The outcome of one lint run over a workspace.
#[derive(Debug)]
pub struct Report {
    /// Files scanned.
    pub files_scanned: usize,
    /// Violations, sorted by `(file, line, col, rule)`.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// True when no rule fired.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_clickable() {
        let d = Diagnostic {
            rule: "no_hot_panic",
            file: "crates/serve/src/engine.rs".to_string(),
            line: 10,
            col: 5,
            message: "`.unwrap()` in hot-path code".to_string(),
        };
        assert_eq!(
            d.to_string(),
            "crates/serve/src/engine.rs:10:5: [no_hot_panic] `.unwrap()` in hot-path code"
        );
    }
}
