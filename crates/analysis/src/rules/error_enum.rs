//! `error_enum` — public error enums evolve without breaking callers.

use crate::diag::Diagnostic;
use crate::rules::Rule;
use crate::source::SourceFile;
use crate::workspace::Workspace;

/// Checks every `pub enum *Error` in library code:
///
/// 1. It is `#[non_exhaustive]` — new failure modes (a new codec
///    corruption case, a new SQL construct) must be addable without a
///    semver break, and downstream `match`es must already carry the
///    wildcard arm that makes that safe.
/// 2. It implements `Display` in the same file, and the `Display` body
///    contains no `_ =>` wildcard arm — *inside the crate* the match must
///    stay exhaustive, so adding a variant forces updating its rendering
///    rather than silently printing a fallback.
pub struct ErrorEnum;

impl Rule for ErrorEnum {
    fn id(&self) -> &'static str {
        "error_enum"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        for file in ws.libs() {
            let src = &file.source;
            let idents: Vec<(usize, &str)> = src.idents().collect();
            for (i, &(_, ident)) in idents.iter().enumerate() {
                if ident != "enum" || i == 0 || i + 1 >= idents.len() {
                    continue;
                }
                let (prev_off, prev) = idents[i - 1];
                let (name_off, name) = idents[i + 1];
                if prev != "pub" || !name.ends_with("Error") || name == "Error" {
                    continue;
                }
                let (line, col) = src.line_col(name_off);
                if src.is_test_line(line) {
                    continue;
                }
                if !has_attr_above(src, prev_off, "non_exhaustive") {
                    out.push(Diagnostic {
                        rule: self.id(),
                        file: src.rel.clone(),
                        line,
                        col,
                        message: format!(
                            "public error enum `{name}` must be `#[non_exhaustive]` so new \
                             failure modes are not a breaking change"
                        ),
                    });
                }
                match display_impl_wildcard(src, name) {
                    DisplayImpl::Missing => out.push(Diagnostic {
                        rule: self.id(),
                        file: src.rel.clone(),
                        line,
                        col,
                        message: format!(
                            "public error enum `{name}` has no `Display` impl in this file"
                        ),
                    }),
                    DisplayImpl::Wildcard { line, col } => out.push(Diagnostic {
                        rule: self.id(),
                        file: src.rel.clone(),
                        line,
                        col,
                        message: format!(
                            "`Display` for `{name}` uses a `_ =>` wildcard — match every \
                             variant so new ones cannot render a silent fallback"
                        ),
                    }),
                    DisplayImpl::Exhaustive => {}
                }
            }
        }
    }
}

enum DisplayImpl {
    Missing,
    Exhaustive,
    Wildcard { line: usize, col: usize },
}

/// Scans the contiguous attribute/comment block above `item_off` for
/// `#[<attr>]`.
fn has_attr_above(src: &SourceFile, item_off: usize, attr: &str) -> bool {
    let (item_line, _) = src.line_col(item_off);
    let mut cursor = item_line;
    while cursor > 1 {
        let above = src.masked_line(cursor - 1);
        let trimmed = above.trim();
        let is_attr_or_comment = trimmed.starts_with('#')
            || trimmed.is_empty() && src.comments_on_line(cursor - 1).next().is_some()
            || trimmed.ends_with(']');
        if !is_attr_or_comment {
            return false;
        }
        if trimmed.contains(attr) {
            return true;
        }
        cursor -= 1;
    }
    false
}

/// Finds `impl … Display for <name>` and reports whether its body contains
/// a `_ =>` wildcard arm.
fn display_impl_wildcard(src: &SourceFile, name: &str) -> DisplayImpl {
    let bytes = src.masked.as_bytes();
    let mut search = 0;
    while let Some(found) = src.masked[search..].find("Display for ") {
        let at = search + found;
        search = at + 1;
        let after = &src.masked[at + "Display for ".len()..];
        if !after.trim_start().starts_with(name) {
            continue;
        }
        // Confirm the type name ends there (not a prefix of a longer name).
        let rest = after.trim_start();
        let tail = rest[name.len()..].chars().next();
        if tail.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_') {
            continue;
        }
        // Find the impl block and scan it for `_ =>` / `_ if … =>`.
        let Some(open_rel) = src.masked[at..].find('{') else { return DisplayImpl::Missing };
        let open = at + open_rel;
        let mut depth = 0usize;
        let mut j = open;
        while j < bytes.len() {
            match bytes[j] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                b'_' => {
                    let prev_ok = !bytes[j.saturating_sub(1)].is_ascii_alphanumeric()
                        && bytes[j.saturating_sub(1)] != b'_';
                    let next = src.next_code_byte(j + 1);
                    if prev_ok {
                        if let Some((k, b)) = next {
                            let arrow = b == b'=' && bytes.get(k + 1) == Some(&b'>');
                            // `_ if cond =>` guards count as wildcards too.
                            let guard = src.masked[k..].trim_start().starts_with("if ");
                            if arrow || guard {
                                let (line, col) = src.line_col(j);
                                return DisplayImpl::Wildcard { line, col };
                            }
                        }
                    }
                }
                _ => {}
            }
            j += 1;
        }
        return DisplayImpl::Exhaustive;
    }
    DisplayImpl::Missing
}
