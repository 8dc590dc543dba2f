//! `codec_tags` — persisted tag spaces stay unique and append-only.

use crate::diag::Diagnostic;
use crate::rules::Rule;
use crate::source::SourceFile;
use crate::workspace::Workspace;

/// Mechanically enforces the codec's versioning policy (documented in
/// `learnedwmp_core::codec`): tag values are never reused and never
/// reassigned. The rule scans library files named `codec.rs` for
///
/// - **tag tables** — `const <NAME>_TAGS: &[(u8, &str)] = &[(1, "…"), …]`:
///   entries must have unique values, unique names, and strictly
///   increasing values in declaration order (append-only ⇒ monotonic);
/// - **wrapper/tag constants** — `const WRAPPER_X: u8 = n;` (any const
///   whose name contains `WRAPPER` or `TAG`): values must be unique within
///   the file;
/// - **version constants** — `FORMAT_VERSION`/`MIN_FORMAT_VERSION` pairs:
///   `MIN_FORMAT_VERSION <= FORMAT_VERSION` must hold.
pub struct CodecTags;

impl Rule for CodecTags {
    fn id(&self) -> &'static str {
        "codec_tags"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        for file in ws.libs() {
            if !file.source.rel.ends_with("codec.rs") {
                continue;
            }
            check_file(self.id(), &file.source, out);
        }
    }
}

fn check_file(rule: &'static str, src: &SourceFile, out: &mut Vec<Diagnostic>) {
    let idents: Vec<(usize, &str)> = src.idents().collect();
    let mut scalar_consts: Vec<(String, u64, usize)> = Vec::new(); // name, value, offset
    for (i, &(_, ident)) in idents.iter().enumerate() {
        if ident != "const" || i + 1 >= idents.len() {
            continue;
        }
        let (name_off, name) = idents[i + 1];
        let (line, _) = src.line_col(name_off);
        if src.is_test_line(line) {
            continue;
        }
        if name.ends_with("_TAGS") {
            check_tag_table(rule, src, name, name_off, out);
        } else if name.contains("TAG") || name.contains("WRAPPER") || name.ends_with("_VERSION") {
            if let Some(value) = scalar_const_value(src, name_off + name.len()) {
                scalar_consts.push((name.to_string(), value, name_off));
            }
        }
    }

    // Wrapper/tag scalar constants: unique values within the file.
    let scalars: Vec<&(String, u64, usize)> =
        scalar_consts.iter().filter(|(n, _, _)| !n.ends_with("_VERSION")).collect();
    for (i, (name, value, offset)) in scalars.iter().enumerate() {
        if let Some((other, _, _)) = scalars[..i].iter().find(|(_, v, _)| v == value) {
            let (line, col) = src.line_col(*offset);
            out.push(Diagnostic {
                rule,
                file: src.rel.clone(),
                line,
                col,
                message: format!(
                    "tag constant `{name}` reuses value {value} already assigned to `{other}` \
                     — tag spaces are append-only"
                ),
            });
        }
    }

    // FORMAT_VERSION / MIN_FORMAT_VERSION coherence.
    let find =
        |wanted: &str| scalar_consts.iter().find(|(n, _, _)| n == wanted).map(|(_, v, o)| (*v, *o));
    if let (Some((max, _)), Some((min, min_off))) =
        (find("FORMAT_VERSION"), find("MIN_FORMAT_VERSION"))
    {
        if min > max {
            let (line, col) = src.line_col(min_off);
            out.push(Diagnostic {
                rule,
                file: src.rel.clone(),
                line,
                col,
                message: format!(
                    "MIN_FORMAT_VERSION ({min}) exceeds FORMAT_VERSION ({max}) — the loader \
                     would reject every artifact this build writes"
                ),
            });
        }
    }
}

/// Parses `: <type> = <int>` after a const name; `None` when the
/// initializer is not an integer literal.
fn scalar_const_value(src: &SourceFile, after_name: usize) -> Option<u64> {
    let eq = src.masked[after_name..].find('=')? + after_name;
    let semi = src.masked[eq..].find(';')? + eq;
    let init = src.masked[eq + 1..semi].trim().replace('_', "");
    init.parse().ok()
}

/// Validates one `const <NAME>_TAGS: &[(u8, &str)] = &[ … ];` table.
fn check_tag_table(
    rule: &'static str,
    src: &SourceFile,
    table: &str,
    name_off: usize,
    out: &mut Vec<Diagnostic>,
) {
    let Some(open_rel) = src.masked[name_off..].find("&[") else { return };
    // Skip the type's `&[(u8, &str)]` — the initializer is the *second*
    // `&[` when a slice type annotation is present, located after `=`.
    let Some(eq_rel) = src.masked[name_off..].find('=') else { return };
    let eq = name_off + eq_rel;
    let open = if name_off + open_rel > eq {
        name_off + open_rel
    } else {
        match src.masked[eq..].find("&[") {
            Some(rel) => eq + rel,
            None => return,
        }
    };
    let Some(close_rel) = src.masked[open..].find(']') else { return };
    let body_start = open + 2;
    let body_end = open + close_rel;

    // Entries are `(<int>, "<name>")`; values come from the masked text,
    // names from the string-literal list inside the body range.
    let mut entries: Vec<(u64, String, usize)> = Vec::new();
    let bytes = src.masked.as_bytes();
    let mut i = body_start;
    while i < body_end {
        if bytes[i] == b'(' {
            let num_start = match src.next_code_byte(i + 1) {
                Some((p, b)) if b.is_ascii_digit() => p,
                _ => {
                    i += 1;
                    continue;
                }
            };
            let mut j = num_start;
            while j < body_end && (bytes[j].is_ascii_digit() || bytes[j] == b'_') {
                j += 1;
            }
            let value: u64 = match src.masked[num_start..j].replace('_', "").parse() {
                Ok(v) => v,
                Err(_) => {
                    i = j;
                    continue;
                }
            };
            let name = src
                .strings
                .iter()
                .find(|s| s.offset > j && s.offset < body_end)
                .map(|s| s.value.clone())
                .unwrap_or_default();
            entries.push((value, name, num_start));
            // Advance past this entry's string so the next `find` does not
            // re-match it.
            i = src
                .strings
                .iter()
                .find(|s| s.offset > j && s.offset < body_end)
                .map_or(j, |s| s.offset + s.value.len() + 2);
        } else {
            i += 1;
        }
    }

    for (i, (value, name, offset)) in entries.iter().enumerate() {
        let (line, col) = src.line_col(*offset);
        if let Some((_, other, _)) = entries[..i].iter().find(|(v, _, _)| v == value) {
            out.push(Diagnostic {
                rule,
                file: src.rel.clone(),
                line,
                col,
                message: format!(
                    "`{table}` assigns tag {value} twice (`{other}` and `{name}`) — tags are \
                     append-only and never reused"
                ),
            });
        }
        if !name.is_empty() && entries[..i].iter().any(|(_, n, _)| n == name) {
            out.push(Diagnostic {
                rule,
                file: src.rel.clone(),
                line,
                col,
                message: format!("`{table}` registers `{name}` under two different tags"),
            });
        }
        if let Some((prev_value, _, _)) = entries[..i].last() {
            if value < prev_value {
                out.push(Diagnostic {
                    rule,
                    file: src.rel.clone(),
                    line,
                    col,
                    message: format!(
                        "`{table}` tag {value} is not monotonically assigned (follows \
                         {prev_value}) — append new tags at the end with the next free value"
                    ),
                });
            }
        }
    }
}
