//! `wmp_analysis` — workspace-aware static analysis for the LearnedWMP
//! source tree.
//!
//! The stack hand-rolls its own lock-free concurrency (`PredictorHandle`
//! snapshot swaps, the serving engine's stats fences, the `wmp_obs`
//! registry) and carries a growing contract surface (metric catalog, codec
//! tag spaces, bench JSON schema) that the compiler cannot check. This
//! crate checks it: a lightweight lexer ([`source`]) walks every workspace
//! `.rs` file and a set of project lints ([`rules`]) verifies the seams
//! where production incidents actually start — a panic on the serving
//! path, an unjustified atomic ordering, a dashboard metric that silently
//! drifted out of the docs.
//!
//! The tier-1 test `tests/lint.rs::workspace_is_clean` runs every rule
//! over the real tree, so `cargo test` fails on any violation:
//!
//! ```text
//! cargo test -p wmp_analysis --test lint
//! ```
//!
//! Its failure message lists one `file:line:col: [rule] message` line per
//! diagnostic. Individual sites are suppressed inline with
//! `// lint: allow(<rule>, <reason>)` — the reason is mandatory and the
//! directive may sit on the flagged line or alone on the line above.
//!
//! See [`rules`] for the rule registry and [`run_on`] for the entry point.

pub mod diag;
pub mod rules;
pub mod source;
pub mod workspace;

pub use diag::{Diagnostic, Report};
pub use rules::{all_rules, Rule};
pub use workspace::Workspace;

/// Runs `rules` over `ws` and returns the report: suppressions applied,
/// malformed directives reported, and diagnostics sorted by
/// `(file, line, col, rule)`.
pub fn run_on(ws: &Workspace, rules: &[Box<dyn Rule>]) -> Report {
    let mut diagnostics = Vec::new();
    for rule in rules {
        let mut found = Vec::new();
        rule.check(ws, &mut found);
        found.retain(|d| {
            !ws.files
                .iter()
                .any(|f| f.source.rel == d.file && f.source.is_suppressed(d.rule, d.line))
        });
        diagnostics.append(&mut found);
    }
    // Malformed `lint:` directives are engine-level diagnostics: a typo'd
    // suppression must fail loudly, not silently stop suppressing.
    for file in &ws.files {
        for (line, col, message) in &file.source.malformed_directives {
            diagnostics.push(Diagnostic {
                rule: "lint_directive",
                file: file.source.rel.clone(),
                line: *line,
                col: *col,
                message: message.clone(),
            });
        }
    }
    diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    Report { files_scanned: ws.files.len(), diagnostics }
}
