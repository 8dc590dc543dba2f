//! Diagnostics and the machine-readable lint report.

use std::fmt;

use wmp_obs::JsonValue;

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
    /// Rules that ran, in registry order.
    pub rules: Vec<&'static str>,
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

    /// Renders the machine-readable JSON report (schema version 1):
    /// `{"schema_version":1,"rules":[…],"files_scanned":N,
    ///   "violations":[{"rule","file","line","col","message"}…]}`.
    pub fn to_json(&self) -> String {
        let text = |s: &str| JsonValue::String(s.to_string());
        let num = |n: usize| JsonValue::Number(n as f64);
        let violations = self.diagnostics.iter().map(|d| {
            JsonValue::Object(vec![
                ("rule".to_string(), text(d.rule)),
                ("file".to_string(), text(&d.file)),
                ("line".to_string(), num(d.line)),
                ("col".to_string(), num(d.col)),
                ("message".to_string(), text(&d.message)),
            ])
        });
        JsonValue::Object(vec![
            ("schema_version".to_string(), num(1)),
            ("rules".to_string(), JsonValue::Array(self.rules.iter().map(|r| text(r)).collect())),
            ("files_scanned".to_string(), num(self.files_scanned)),
            ("violations".to_string(), JsonValue::Array(violations.collect())),
        ])
        .render()
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

    #[test]
    fn json_escapes_messages() {
        let report = Report {
            rules: vec!["no_hot_panic"],
            files_scanned: 1,
            diagnostics: vec![Diagnostic {
                rule: "no_hot_panic",
                file: "a.rs".to_string(),
                line: 1,
                col: 1,
                message: "say \"hi\"\n".to_string(),
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\\\"hi\\\"\\n"));
        assert_eq!(
            json,
            concat!(
                r#"{"schema_version":1,"rules":["no_hot_panic"],"files_scanned":1,"#,
                r#""violations":[{"rule":"no_hot_panic","file":"a.rs","line":1,"col":1,"#,
                r#""message":"say \"hi\"\n"}]}"#,
            )
        );
    }
}
