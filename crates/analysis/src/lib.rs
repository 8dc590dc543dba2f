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
//! Run it via the `wmp-lint` binary:
//!
//! ```text
//! cargo run --release -p wmp_analysis --bin wmp-lint
//! ```
//!
//! Diagnostics are `file:line:col: [rule] message` lines plus an optional
//! machine-readable JSON report (`--json <path>`); the process exits
//! nonzero when any rule fires. Individual sites are suppressed inline
//! with `// lint: allow(<rule>, <reason>)` — the reason is mandatory and
//! the directive may sit on the flagged line or alone on the line above.
//!
//! See [`rules`] for the rule registry and [`run`] for the embedding API
//! (the integration tests run the whole linter in-process).

pub mod diag;
pub mod rules;
pub mod source;
pub mod workspace;

pub use diag::{Diagnostic, Report};
pub use rules::{all_rules, Rule};
pub use workspace::Workspace;

/// Runs `rules` over the workspace rooted at `root` and returns the
/// report: suppressions applied, malformed directives reported, and
/// diagnostics sorted by `(file, line, col, rule)`.
///
/// # Errors
/// Returns an error when `root` is not a workspace root or a source file
/// cannot be read.
pub fn run(root: &std::path::Path, rules: &[Box<dyn Rule>]) -> std::io::Result<Report> {
    let ws = Workspace::discover(root)?;
    Ok(run_on(&ws, rules))
}

/// [`run`] over an already-discovered workspace.
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
    Report {
        rules: rules.iter().map(|r| r.id()).collect(),
        files_scanned: ws.files.len(),
        diagnostics,
    }
}
