//! `no_hot_panic` — no panicking constructs in hot-path library code.

use crate::diag::Diagnostic;
use crate::rules::Rule;
use crate::workspace::Workspace;

/// Flags `.unwrap()`, `.expect(…)`, `panic!`, `todo!`, and
/// `unimplemented!` in library code of the hot-path crates
/// ([`crate::workspace::HOT_PATH_CRATES`]).
///
/// A panic on the serving or scheduling path does not fail one request —
/// it unwinds a worker, poisons shared state, and (under the closed-loop
/// scheduler) turns into a wrong admission decision. Hot-path code must
/// return the existing typed errors (`MlError`, `ParseError`, …) instead.
/// Invariant violations that genuinely cannot be handled may stay as
/// panics behind a `// lint: allow(no_hot_panic, <why>)` justification.
/// Test code (`#[cfg(test)]` items, `tests/`, `examples/`) is exempt.
pub struct NoHotPanic;

const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented"];
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

impl Rule for NoHotPanic {
    fn id(&self) -> &'static str {
        "no_hot_panic"
    }

    fn summary(&self) -> &'static str {
        "no unwrap/expect/panic!/todo!/unimplemented! in hot-path library code"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        for file in ws.hot_path_libs() {
            let src = &file.source;
            for (offset, ident) in src.idents() {
                let (line, col) = src.line_col(offset);
                if src.is_test_line(line) {
                    continue;
                }
                let after = src.next_code_byte(offset + ident.len()).map(|(_, b)| b);
                if PANIC_MACROS.contains(&ident) && after == Some(b'!') {
                    out.push(Diagnostic {
                        rule: self.id(),
                        file: src.rel.clone(),
                        line,
                        col,
                        message: format!(
                            "`{ident}!` in hot-path code — return a typed error instead, or \
                             justify with `lint: allow(no_hot_panic, <reason>)`"
                        ),
                    });
                } else if PANIC_METHODS.contains(&ident)
                    && after == Some(b'(')
                    && src.prev_code_byte(offset).map(|(_, b)| b) == Some(b'.')
                    && expect_shape_ok(src, offset, ident)
                {
                    out.push(Diagnostic {
                        rule: self.id(),
                        file: src.rel.clone(),
                        line,
                        col,
                        message: format!(
                            "`.{ident}()` in hot-path code — propagate the error (`?`) or \
                             handle it; justify unavoidable sites with \
                             `lint: allow(no_hot_panic, <reason>)`"
                        ),
                    });
                }
            }
        }
    }
}

/// Distinguishes `Option::expect`/`Result::expect` from project methods
/// that happen to be named `expect` (the `wmp_obs` JSON parser has one):
/// the panic idiom always carries a string-literal message, so `.expect(`
/// only counts when its first argument is a string literal. `.unwrap()`
/// takes no argument and always counts.
fn expect_shape_ok(src: &crate::source::SourceFile, offset: usize, ident: &str) -> bool {
    if ident != "expect" {
        return true;
    }
    let Some((paren, _)) = src.next_code_byte(offset + ident.len()) else {
        return false;
    };
    src.string_after(paren + 1).is_some()
}
