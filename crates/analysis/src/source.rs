//! Lightweight lexical analysis of one Rust source file.
//!
//! The linter does not parse Rust; it works on a *masked* view of each file
//! in which comment bodies and string/char-literal bodies are blanked out
//! (replaced by spaces, newlines preserved), so byte offsets in the masked
//! text line up exactly with the original. On top of the mask it derives:
//!
//! - the comment list (for `// ordering:` justifications and
//!   `// lint: allow(...)` suppressions),
//! - the string-literal list (for metric-name extraction),
//! - a per-line *test mask* covering `#[cfg(test)]` / `#[test]` items, so
//!   hot-path rules never fire inside test code.
//!
//! Masking handles nested block comments, escape sequences, raw strings
//! (`r"…"`, `r#"…"#`), byte strings, char literals, and lifetimes (which
//! start with `'` but are not literals).

use std::path::{Path, PathBuf};

/// One comment (line or block) with its location.
#[derive(Debug, Clone)]
pub struct Comment {
    /// Comment text including the `//` / `/*` markers.
    pub text: String,
    /// Byte offset of the comment start in the file.
    pub offset: usize,
}

/// One string literal with its location.
#[derive(Debug, Clone)]
pub struct StrLit {
    /// Raw literal body (escape sequences left as written).
    pub value: String,
    /// Byte offset of the literal's first byte (prefix or opening quote).
    pub offset: usize,
}

/// A parsed `// lint: allow(<rule>, <reason>)` suppression directive.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Rule identifier being suppressed.
    pub rule: String,
    /// The 1-based line whose diagnostics are suppressed.
    pub line: usize,
}

/// A lexically analyzed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Absolute path on disk.
    pub path: PathBuf,
    /// Workspace-relative path with `/` separators (used in diagnostics).
    pub rel: String,
    /// Original file contents.
    pub text: String,
    /// Contents with comment and literal bodies blanked (same length).
    pub masked: String,
    /// Byte range `[start, end)` of each line (newline excluded).
    line_spans: Vec<(usize, usize)>,
    /// All comments in order of appearance.
    pub comments: Vec<Comment>,
    /// All string literals in order of appearance.
    pub strings: Vec<StrLit>,
    /// `true` for each 1-based line inside a `#[cfg(test)]`/`#[test]` item.
    test_lines: Vec<bool>,
    /// Parsed suppression directives.
    pub suppressions: Vec<Suppression>,
    /// `(line, col, message)` for malformed `lint:` directives.
    pub malformed_directives: Vec<(usize, usize, String)>,
}

impl SourceFile {
    /// Reads and analyzes `path`; `rel` is the workspace-relative name used
    /// in diagnostics.
    pub fn load(path: &Path, rel: String) -> std::io::Result<SourceFile> {
        let text = std::fs::read_to_string(path)?;
        Ok(SourceFile::parse(path.to_path_buf(), rel, text))
    }

    /// Analyzes in-memory contents (used by fixture tests).
    pub fn parse(path: PathBuf, rel: String, text: String) -> SourceFile {
        let (masked, comments, strings) = mask(&text);
        let line_spans = line_spans(&text);
        let test_lines = test_line_mask(&masked, &line_spans);
        let mut file = SourceFile {
            path,
            rel,
            text,
            masked,
            line_spans,
            comments,
            strings,
            test_lines,
            suppressions: Vec::new(),
            malformed_directives: Vec::new(),
        };
        file.collect_directives();
        file
    }

    /// Number of lines.
    pub fn line_count(&self) -> usize {
        self.line_spans.len()
    }

    /// Converts a byte offset to a 1-based `(line, col)` pair.
    pub fn line_col(&self, offset: usize) -> (usize, usize) {
        match self.line_spans.binary_search_by(|&(start, _)| start.cmp(&offset)) {
            Ok(i) => (i + 1, 1),
            Err(0) => (1, 1),
            Err(i) => {
                let (start, _) = self.line_spans[i - 1];
                (i, offset - start + 1)
            }
        }
    }

    /// The masked text of a 1-based line (empty for out-of-range lines).
    pub fn masked_line(&self, line: usize) -> &str {
        match self.line_spans.get(line.wrapping_sub(1)) {
            Some(&(start, end)) => &self.masked[start..end],
            None => "",
        }
    }

    /// True when the 1-based line lies inside a test item.
    pub fn is_test_line(&self, line: usize) -> bool {
        self.test_lines.get(line.wrapping_sub(1)).copied().unwrap_or(false)
    }

    /// True when a diagnostic of `rule` at `line` is suppressed by an
    /// inline `// lint: allow(rule, reason)` directive.
    pub fn is_suppressed(&self, rule: &str, line: usize) -> bool {
        self.suppressions.iter().any(|s| s.rule == rule && s.line == line)
    }

    /// All comments whose start offset falls on the 1-based line.
    pub fn comments_on_line(&self, line: usize) -> impl Iterator<Item = &Comment> {
        self.comments.iter().filter(move |c| self.line_col(c.offset).0 == line)
    }

    /// True when the line consists only of whitespace and comments.
    fn is_pure_comment_line(&self, line: usize) -> bool {
        let has_comment = self.comments_on_line(line).next().is_some();
        has_comment && self.masked_line(line).trim().is_empty()
    }

    /// True when `Ordering::…` at `line` carries an `// ordering:`
    /// justification: on the same line, or in the contiguous run of
    /// pure-comment lines immediately above the statement.
    pub fn has_ordering_justification(&self, line: usize) -> bool {
        let marker = |c: &Comment| c.text.contains("ordering:");
        if self.comments_on_line(line).any(marker) {
            return true;
        }
        let mut cursor = line;
        while cursor > 1 && self.is_pure_comment_line(cursor - 1) {
            cursor -= 1;
            if self.comments_on_line(cursor).any(marker) {
                return true;
            }
        }
        false
    }

    /// Parses `lint: allow(rule, reason)` directives out of the comment
    /// list. A directive on a pure-comment line applies to the next
    /// non-comment line; otherwise it applies to its own line.
    fn collect_directives(&mut self) {
        let comments = self.comments.clone();
        for comment in &comments {
            // Only plain `//` comments whose body *starts* with `lint:` are
            // directives; doc comments merely *talking about* the syntax
            // (`/// … lint: allow(...)`) must not parse.
            let Some(body) = comment.text.strip_prefix("//") else { continue };
            if body.starts_with('/') || body.starts_with('!') {
                continue;
            }
            let body = body.trim_start();
            let Some(rest) = body.strip_prefix("lint:") else { continue };
            let (line, col) = self.line_col(comment.offset);
            let rest = rest.trim_start();
            let Some(args) = rest.strip_prefix("allow(").and_then(|r| r.find(')').map(|e| &r[..e]))
            else {
                self.malformed_directives.push((
                    line,
                    col,
                    "malformed lint directive: expected `lint: allow(<rule>, <reason>)`"
                        .to_string(),
                ));
                continue;
            };
            let (rule, reason) = match args.split_once(',') {
                Some((rule, reason)) => (rule.trim(), reason.trim()),
                None => (args.trim(), ""),
            };
            if rule.is_empty() || reason.is_empty() {
                self.malformed_directives.push((
                    line,
                    col,
                    format!(
                        "suppression of `{}` needs a reason: `lint: allow(<rule>, <reason>)`",
                        if rule.is_empty() { "<rule>" } else { rule }
                    ),
                ));
                continue;
            }
            let target = if self.is_pure_comment_line(line) {
                let mut cursor = line + 1;
                while cursor <= self.line_count() && self.is_pure_comment_line(cursor) {
                    cursor += 1;
                }
                cursor
            } else {
                line
            };
            self.suppressions.push(Suppression { rule: rule.to_string(), line: target });
        }
    }

    /// Iterates identifiers in the masked text as `(offset, ident)`.
    pub fn idents(&self) -> IdentIter<'_> {
        IdentIter { bytes: self.masked.as_bytes(), pos: 0 }
    }

    /// The next non-whitespace masked byte at or after `offset`.
    pub fn next_code_byte(&self, offset: usize) -> Option<(usize, u8)> {
        self.masked.as_bytes()[offset..]
            .iter()
            .enumerate()
            .find(|(_, b)| !b.is_ascii_whitespace())
            .map(|(i, &b)| (offset + i, b))
    }

    /// The previous non-whitespace masked byte strictly before `offset`.
    pub fn prev_code_byte(&self, offset: usize) -> Option<(usize, u8)> {
        self.masked.as_bytes()[..offset]
            .iter()
            .enumerate()
            .rev()
            .find(|(_, b)| !b.is_ascii_whitespace())
            .map(|(i, &b)| (i, b))
    }

    /// The first string literal at or after `offset` with nothing but
    /// whitespace before it in the masked text (string bodies are blanked
    /// in the mask, so `next_code_byte` cannot land on them).
    pub fn string_after(&self, offset: usize) -> Option<&StrLit> {
        let lit = self.strings.iter().find(|s| s.offset >= offset)?;
        self.masked[offset..lit.offset].bytes().all(|b| b.is_ascii_whitespace()).then_some(lit)
    }
}

/// Iterator over `[A-Za-z_][A-Za-z0-9_]*` runs in masked text.
pub struct IdentIter<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Iterator for IdentIter<'a> {
    type Item = (usize, &'a str);

    fn next(&mut self) -> Option<(usize, &'a str)> {
        let is_start = |b: u8| b.is_ascii_alphabetic() || b == b'_';
        let is_cont = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
        while self.pos < self.bytes.len() {
            let b = self.bytes[self.pos];
            if is_start(b) {
                let start = self.pos;
                while self.pos < self.bytes.len() && is_cont(self.bytes[self.pos]) {
                    self.pos += 1;
                }
                let ident = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
                return Some((start, ident));
            }
            if b.is_ascii_digit() {
                // Skip number literals (including suffixed ones like 1u8)
                // so `1e9` never yields a phantom `e9` identifier.
                while self.pos < self.bytes.len() && is_cont(self.bytes[self.pos]) {
                    self.pos += 1;
                }
                continue;
            }
            self.pos += 1;
        }
        None
    }
}

fn line_spans(text: &str) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut start = 0;
    for (i, b) in text.bytes().enumerate() {
        if b == b'\n' {
            spans.push((start, i));
            start = i + 1;
        }
    }
    if start < text.len() {
        spans.push((start, text.len()));
    }
    if spans.is_empty() {
        spans.push((0, 0));
    }
    spans
}

/// Blanks comment and literal bodies, collecting comments and strings.
fn mask(text: &str) -> (String, Vec<Comment>, Vec<StrLit>) {
    let bytes = text.as_bytes();
    let mut masked = Vec::with_capacity(bytes.len());
    let mut comments = Vec::new();
    let mut strings = Vec::new();
    let mut i = 0;

    let blank = |masked: &mut Vec<u8>, bytes: &[u8], from: usize, to: usize| {
        for &b in &bytes[from..to] {
            masked.push(if b == b'\n' { b'\n' } else { b' ' });
        }
    };

    while i < bytes.len() {
        let b = bytes[i];
        if b == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
            let start = i;
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            comments.push(Comment { text: text[start..i].to_string(), offset: start });
            blank(&mut masked, bytes, start, i);
        } else if b == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
            let start = i;
            let mut depth = 1usize;
            i += 2;
            while i < bytes.len() && depth > 0 {
                if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                    depth += 1;
                    i += 2;
                } else if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            comments.push(Comment { text: text[start..i].to_string(), offset: start });
            blank(&mut masked, bytes, start, i);
        } else if let Some((prefix_len, hashes)) = raw_string_start(bytes, i) {
            // r"…" / r#"…"# / br#"…"# — ends at `"` followed by `hashes` #s.
            let start = i;
            let body_start = i + prefix_len;
            i = body_start;
            loop {
                if i >= bytes.len() {
                    break;
                }
                if bytes[i] == b'"'
                    && bytes[i + 1..].iter().take(hashes).filter(|&&h| h == b'#').count() == hashes
                {
                    i += 1 + hashes;
                    break;
                }
                i += 1;
            }
            let body_end = i.saturating_sub(1 + hashes).max(body_start);
            strings.push(StrLit { value: text[body_start..body_end].to_string(), offset: start });
            blank(&mut masked, bytes, start, i);
        } else if b == b'"' || (b == b'b' && i + 1 < bytes.len() && bytes[i + 1] == b'"') {
            let start = i;
            let body_start = if b == b'"' { i + 1 } else { i + 2 };
            i = body_start;
            while i < bytes.len() {
                if bytes[i] == b'\\' {
                    i += 2;
                } else if bytes[i] == b'"' {
                    i += 1;
                    break;
                } else {
                    i += 1;
                }
            }
            let body_end = i.saturating_sub(1).max(body_start);
            let body_end = body_end.min(bytes.len());
            strings.push(StrLit { value: text[body_start..body_end].to_string(), offset: start });
            blank(&mut masked, bytes, start, i);
        } else if b == b'\'' {
            if is_lifetime(bytes, i) {
                // Lifetime: copy the quote and the ident through unchanged.
                masked.push(b'\'');
                i += 1;
            } else {
                let start = i;
                i += 1;
                if i < bytes.len() && bytes[i] == b'\\' {
                    i += 2;
                } else {
                    // Skip one (possibly multi-byte) character.
                    i += text[i..].chars().next().map_or(1, char::len_utf8);
                }
                if i < bytes.len() && bytes[i] == b'\'' {
                    i += 1;
                }
                blank(&mut masked, bytes, start, i);
            }
        } else {
            masked.push(b);
            i += 1;
        }
    }
    let masked = String::from_utf8(masked).unwrap_or_default();
    (masked, comments, strings)
}

/// Detects `r"`, `r#…#"`, `br"`, `br#…#"` at `i`; returns
/// `(prefix_len_through_quote, n_hashes)`.
fn raw_string_start(bytes: &[u8], i: usize) -> Option<(usize, usize)> {
    // Reject when the `r`/`b` is the tail of a longer identifier.
    if i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_') {
        return None;
    }
    let mut j = i;
    if bytes.get(j) == Some(&b'b') {
        j += 1;
    }
    if bytes.get(j) != Some(&b'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    if bytes.get(j) == Some(&b'"') {
        Some((j + 1 - i, hashes))
    } else {
        None
    }
}

/// True when the `'` at `i` starts a lifetime (`'a`, `'static`) rather than
/// a char literal.
fn is_lifetime(bytes: &[u8], i: usize) -> bool {
    let next = match bytes.get(i + 1) {
        Some(&b) => b,
        None => return false,
    };
    if !(next.is_ascii_alphabetic() || next == b'_') {
        return false;
    }
    // `'a'` is a char literal; `'a,` / `'a>` / `'a ` is a lifetime.
    let mut j = i + 2;
    while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
        j += 1;
    }
    bytes.get(j) != Some(&b'\'')
}

/// Marks every line belonging to a `#[cfg(test)]` or `#[test]` item.
fn test_line_mask(masked: &str, line_spans: &[(usize, usize)]) -> Vec<bool> {
    let bytes = masked.as_bytes();
    let mut mask = vec![false; line_spans.len()];
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'#' {
            i += 1;
            continue;
        }
        let Some(open) = next_non_ws(bytes, i + 1) else { break };
        if bytes[open] != b'[' {
            i += 1;
            continue;
        }
        let Some(close) = matching(bytes, open, b'[', b']') else { break };
        let attr: String = masked[open + 1..close].chars().filter(|c| !c.is_whitespace()).collect();
        let is_test_attr = attr == "test" || attr.starts_with("cfg(test");
        if !is_test_attr {
            i = close + 1;
            continue;
        }
        // The attribute covers the item that follows: everything through
        // the item's closing brace (or terminating semicolon).
        let mut j = close + 1;
        let mut end = bytes.len();
        while j < bytes.len() {
            match bytes[j] {
                b'{' => {
                    end = matching(bytes, j, b'{', b'}').map_or(bytes.len(), |e| e + 1);
                    break;
                }
                b';' => {
                    end = j + 1;
                    break;
                }
                _ => j += 1,
            }
        }
        mark_lines(&mut mask, line_spans, i, end);
        i = end;
    }
    mask
}

fn next_non_ws(bytes: &[u8], from: usize) -> Option<usize> {
    (from..bytes.len()).find(|&j| !bytes[j].is_ascii_whitespace())
}

/// Offset of the delimiter matching `open_at` (which holds `open`).
fn matching(bytes: &[u8], open_at: usize, open: u8, close: u8) -> Option<usize> {
    let mut depth = 0usize;
    for (j, &b) in bytes.iter().enumerate().skip(open_at) {
        if b == open {
            depth += 1;
        } else if b == close {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

fn mark_lines(mask: &mut [bool], line_spans: &[(usize, usize)], start: usize, end: usize) {
    for (idx, &(s, e)) in line_spans.iter().enumerate() {
        if e >= start && s < end {
            mask[idx] = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> SourceFile {
        SourceFile::parse(PathBuf::from("mem.rs"), "mem.rs".to_string(), text.to_string())
    }

    #[test]
    fn masking_blanks_comments_and_strings() {
        let f = parse("let x = \"unwrap()\"; // unwrap()\nlet y = 1; /* panic! */\n");
        assert!(!f.masked.contains("unwrap"));
        assert!(!f.masked.contains("panic"));
        assert_eq!(f.masked.len(), f.text.len());
        assert_eq!(f.comments.len(), 2);
        assert_eq!(f.strings.len(), 1);
        assert_eq!(f.strings[0].value, "unwrap()");
    }

    #[test]
    fn raw_strings_and_chars_are_masked_lifetimes_are_not() {
        let f =
            parse("let s = r#\"a \"quoted\" panic!\"#; let c = '\\''; fn f<'a>(x: &'a str) {}\n");
        assert!(!f.masked.contains("panic"));
        assert!(f.masked.contains("'a>"));
        assert_eq!(f.strings[0].value, "a \"quoted\" panic!");
    }

    #[test]
    fn test_items_are_masked_by_line() {
        let text = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn live2() {}\n";
        let f = parse(text);
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(2));
        assert!(f.is_test_line(3));
        assert!(f.is_test_line(4));
        assert!(f.is_test_line(5));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn suppressions_bind_to_their_target_line() {
        let text = "// lint: allow(no_hot_panic, startup only)\nlet x = a.unwrap();\nlet y = b.unwrap(); // lint: allow(no_hot_panic, infallible here)\n";
        let f = parse(text);
        assert!(f.is_suppressed("no_hot_panic", 2));
        assert!(f.is_suppressed("no_hot_panic", 3));
        assert!(!f.is_suppressed("no_hot_panic", 1));
    }

    #[test]
    fn missing_reason_is_malformed() {
        let f = parse("let x = a.unwrap(); // lint: allow(no_hot_panic)\n");
        assert!(!f.is_suppressed("no_hot_panic", 1));
        assert_eq!(f.malformed_directives.len(), 1);
    }

    #[test]
    fn ordering_justifications_attach_same_line_or_above() {
        let text = "// ordering: relaxed — counter only\nx.fetch_add(1, Ordering::Relaxed);\ny.load(Ordering::Acquire); // ordering: pairs with the Release store\nz.load(Ordering::Relaxed);\n";
        let f = parse(text);
        assert!(f.has_ordering_justification(2));
        assert!(f.has_ordering_justification(3));
        assert!(!f.has_ordering_justification(4));
    }

    #[test]
    fn line_col_is_one_based() {
        let f = parse("abc\ndef\n");
        assert_eq!(f.line_col(0), (1, 1));
        assert_eq!(f.line_col(5), (2, 2));
    }
}
