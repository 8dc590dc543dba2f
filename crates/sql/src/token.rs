//! Span-carrying SQL tokenizer, parameterized by [`Dialect`] for quoting
//! and parameter-marker rules.
//!
//! Unlike `wmp_text::token` (which shreds query text into a bag of words
//! for the text-based template learners), this tokenizer is *exact*: every
//! token knows its byte span, literals keep their source spelling, and
//! malformed input produces a typed [`ParseError`] instead of being
//! silently dropped.

use std::borrow::Cow;

use crate::dialect::Dialect;
use crate::error::{ParseError, Span, SqlResult};

/// One lexical token. Every variant borrows the statement text, so lexing
/// allocates nothing but the token vector (and an unescaped copy of a quoted
/// identifier with a doubled quote inside).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind<'a> {
    /// An identifier or keyword. `text` is the source spelling for unquoted
    /// words (the parser applies the dialect's folding where a word becomes
    /// a name) and verbatim for quoted ones (quotes stripped, escapes
    /// resolved); keywords are only ever recognized in unquoted words.
    Word {
        /// Identifier text: borrowed, except for a quoted identifier whose
        /// doubled quotes had to be unescaped.
        text: Cow<'a, str>,
        /// Whether the word was quoted (quoted words never match keywords
        /// and never case-fold).
        quoted: bool,
    },
    /// A numeric literal, spelled as in the source (`42`, `3.14`).
    Number(&'a str),
    /// A string literal, spelled as in the source including its quotes.
    StringLit(&'a str),
    /// A parameter marker (`?`, `$1`).
    Param(&'a str),
    /// Single-character punctuation: `( ) , . * ;`.
    Symbol(char),
    /// A comparison operator: `=`, `<`, `<=`, `>`, `>=`, `<>`, `!=`.
    Op(&'static str),
    /// The Postgres `::` cast operator.
    DoubleColon,
}

/// A token plus its byte range in the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token<'a> {
    /// What was lexed.
    pub kind: TokenKind<'a>,
    /// Where it sits in the source.
    pub span: Span,
}

impl Token<'_> {
    /// True when the token is the unquoted keyword `kw` (case-insensitive).
    /// `kw` must be passed in upper case by convention.
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(&self.kind, TokenKind::Word { text, quoted: false } if text.eq_ignore_ascii_case(kw))
    }

    /// Short description of the token for error messages; an unquoted word
    /// is shown as `dialect` folds it.
    pub fn describe(&self, dialect: &dyn Dialect) -> String {
        match &self.kind {
            TokenKind::Word { text, quoted: false } => dialect.fold_ident(text).into_owned(),
            TokenKind::Word { text, quoted: true } => text.to_string(),
            TokenKind::Number(text) | TokenKind::StringLit(text) | TokenKind::Param(text) => {
                (*text).to_string()
            }
            TokenKind::Symbol(c) => c.to_string(),
            TokenKind::Op(o) => (*o).to_string(),
            TokenKind::DoubleColon => "::".to_string(),
        }
    }
}

/// Tokenizes `sql` under `dialect`'s lexical rules.
///
/// # Errors
/// Returns a span-carrying [`ParseError`] on unterminated strings or quoted
/// identifiers, empty quoted identifiers, parameter markers the dialect
/// does not support, and characters outside the grammar.
pub fn tokenize<'a>(sql: &'a str, dialect: &dyn Dialect) -> SqlResult<Vec<Token<'a>>> {
    let quote = dialect.ident_quote();
    let double_quote_is_string = dialect.double_quote_is_string();
    let question_params = dialect.question_params();
    let dollar_params = dialect.dollar_params();
    let double_colon_cast = dialect.double_colon_cast();

    let bytes = sql.as_bytes();
    // Rendered statements average over four bytes per token.
    let mut tokens = Vec::with_capacity(sql.len() / 3 + 1);
    let mut push = |kind, start, end| tokens.push(Token { kind, span: Span::new(start, end) });
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        let b = bytes[i];
        if !b.is_ascii() {
            // Outside ASCII only whitespace and a non-ASCII identifier quote
            // are lexical; anything else is rejected whole.
            let c = sql[i..].chars().next().expect("in-bounds char");
            if c.is_whitespace() {
                i += c.len_utf8();
            } else if c == quote {
                let (text, end) = quoted_ident(sql, i, quote)?;
                push(TokenKind::Word { text, quoted: true }, i, end);
                i = end;
            } else {
                return Err(ParseError::UnexpectedChar {
                    ch: c,
                    span: Span::new(start, start + c.len_utf8()),
                });
            }
            continue;
        }
        let next = bytes.get(i + 1).copied();
        match b {
            // `char::is_whitespace` over ASCII (vertical tab included).
            b' ' | b'\t' | b'\n' | b'\x0B' | b'\x0C' | b'\r' => i += 1,
            // -- line comment
            b'-' if next == Some(b'-') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            // /* block comment */ (unterminated runs to end of input; logs
            // get truncated mid-comment and that is not worth an error)
            b'/' if next == Some(b'*') => {
                i += 2;
                while i < bytes.len() && !(bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/')) {
                    i += 1;
                }
                i = (i + 2).min(bytes.len());
            }
            b'\'' => {
                let end = quoted_end(sql, i, '\'')
                    .ok_or(ParseError::UnterminatedString { span: Span::new(i, sql.len()) })?;
                push(TokenKind::StringLit(&sql[i..end]), i, end);
                i = end;
            }
            b'"' if double_quote_is_string => {
                let end = quoted_end(sql, i, '"')
                    .ok_or(ParseError::UnterminatedString { span: Span::new(i, sql.len()) })?;
                push(TokenKind::StringLit(&sql[i..end]), i, end);
                i = end;
            }
            _ if u32::from(b) == u32::from(quote) => {
                let (text, end) = quoted_ident(sql, i, quote)?;
                push(TokenKind::Word { text, quoted: true }, i, end);
                i = end;
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let mut end = i + 1;
                while end < bytes.len()
                    && (bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_')
                {
                    end += 1;
                }
                push(TokenKind::Word { text: Cow::Borrowed(&sql[i..end]), quoted: false }, i, end);
                i = end;
            }
            b'0'..=b'9' => {
                let mut end = i;
                let mut seen_dot = false;
                while end < bytes.len()
                    && (bytes[end].is_ascii_digit() || (bytes[end] == b'.' && !seen_dot))
                {
                    // `42.x` must lex as `42` `.` `x`, not a malformed
                    // number: a dot is part of the number only when a digit
                    // follows it.
                    if bytes[end] == b'.' {
                        if end + 1 < bytes.len() && bytes[end + 1].is_ascii_digit() {
                            seen_dot = true;
                        } else {
                            break;
                        }
                    }
                    end += 1;
                }
                push(TokenKind::Number(&sql[i..end]), i, end);
                i = end;
            }
            b'?' if question_params => {
                push(TokenKind::Param("?"), i, i + 1);
                i += 1;
            }
            b'$' if dollar_params => {
                let mut end = i + 1;
                while end < bytes.len() && bytes[end].is_ascii_digit() {
                    end += 1;
                }
                if end == i + 1 {
                    return Err(ParseError::UnexpectedChar { ch: '$', span: Span::new(i, i + 1) });
                }
                push(TokenKind::Param(&sql[i..end]), i, end);
                i = end;
            }
            b'(' | b')' | b',' | b'.' | b'*' | b';' => {
                push(TokenKind::Symbol(char::from(b)), i, i + 1);
                i += 1;
            }
            b'=' => {
                push(TokenKind::Op("="), i, i + 1);
                i += 1;
            }
            b'<' => {
                let (op, len) = match next {
                    Some(b'=') => ("<=", 2),
                    Some(b'>') => ("<>", 2),
                    _ => ("<", 1),
                };
                push(TokenKind::Op(op), i, i + len);
                i += len;
            }
            b'>' => {
                let (op, len) = if next == Some(b'=') { (">=", 2) } else { (">", 1) };
                push(TokenKind::Op(op), i, i + len);
                i += len;
            }
            b'!' if next == Some(b'=') => {
                push(TokenKind::Op("!="), i, i + 2);
                i += 2;
            }
            b':' if double_colon_cast && next == Some(b':') => {
                push(TokenKind::DoubleColon, i, i + 2);
                i += 2;
            }
            _ => {
                return Err(ParseError::UnexpectedChar {
                    ch: char::from(b),
                    span: Span::new(start, start + 1),
                });
            }
        }
    }
    Ok(tokens)
}

/// The byte offset one past the closing quote of the `quote`-delimited
/// region opening at `start`, or `None` when unterminated. Doubled quotes
/// escape.
fn quoted_end(sql: &str, start: usize, quote: char) -> Option<usize> {
    let len = quote.len_utf8();
    let mut from = start + len;
    loop {
        let at = from + sql[from..].find(quote)?;
        if sql[at + len..].starts_with(quote) {
            from = at + 2 * len;
        } else {
            return Some(at + len);
        }
    }
}

/// Lexes the quoted identifier opening at `start`: its unescaped text
/// (borrowed unless a doubled quote had to be undone) and the byte offset
/// one past the closing quote.
fn quoted_ident(sql: &str, start: usize, quote: char) -> SqlResult<(Cow<'_, str>, usize)> {
    let end = quoted_end(sql, start, quote)
        .ok_or(ParseError::UnterminatedIdent { span: Span::new(start, sql.len()) })?;
    let len = quote.len_utf8();
    let inner = &sql[start + len..end - len];
    if inner.is_empty() {
        return Err(ParseError::EmptyIdent { span: Span::new(start, end) });
    }
    if !inner.contains(quote) {
        return Ok((Cow::Borrowed(inner), end));
    }
    // Inside a terminated region every quote is one half of a doubled pair.
    let mut text = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        text.push(c);
        if c == quote {
            chars.next();
        }
    }
    Ok((Cow::Owned(text), end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dialect::{Ansi, MySql, Postgres};

    fn kinds<'a>(sql: &'a str, d: &dyn Dialect) -> Vec<TokenKind<'a>> {
        tokenize(sql, d).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn words_fold_per_dialect() {
        // Tokens keep the source spelling; the parser folds a word where it
        // becomes a name, and error messages show it folded.
        assert_eq!(
            kinds("SELECT C_Nation", &Ansi),
            vec![
                TokenKind::Word { text: "SELECT".into(), quoted: false },
                TokenKind::Word { text: "C_Nation".into(), quoted: false },
            ]
        );
        let word = &tokenize("C_Nation", &Ansi).unwrap()[0];
        assert_eq!(word.describe(&Ansi), "c_nation");
        assert_eq!(word.describe(&Postgres), "c_nation");
        assert_eq!(word.describe(&MySql), "C_Nation");
    }

    #[test]
    fn tokens_borrow_the_statement() {
        let sql = "SELECT \"Order\", \"a\"\"b\" FROM t WHERE t.a = 'x' AND t.b = 4";
        let toks = tokenize(sql, &Ansi).unwrap();
        let owned: Vec<&str> = toks
            .iter()
            .filter_map(|t| match &t.kind {
                TokenKind::Word { text: Cow::Owned(text), .. } => Some(text.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(owned, ["a\"b"], "only the unescaped identifier owns its text");
    }

    #[test]
    fn non_ascii_whitespace_separates_and_other_non_ascii_is_rejected() {
        assert_eq!(kinds("1\u{a0}2\u{2003}3", &Ansi).len(), 3);
        let e = tokenize("a \u{e9}", &Ansi).unwrap_err();
        assert_eq!(e, ParseError::UnexpectedChar { ch: '\u{e9}', span: Span::new(2, 4) });
        // Vertical tab is whitespace too.
        assert_eq!(kinds("1\x0B2", &Ansi).len(), 2);
    }

    #[test]
    fn quoted_identifiers_never_fold() {
        assert_eq!(
            kinds("\"Order\"", &Ansi),
            vec![TokenKind::Word { text: "Order".into(), quoted: true }]
        );
        assert_eq!(
            kinds("`Order`", &MySql),
            vec![TokenKind::Word { text: "Order".into(), quoted: true }]
        );
        // Doubled quotes escape inside quoted identifiers.
        assert_eq!(
            kinds("\"a\"\"b\"", &Postgres),
            vec![TokenKind::Word { text: "a\"b".into(), quoted: true }]
        );
    }

    #[test]
    fn mysql_double_quote_is_a_string() {
        assert_eq!(kinds("\"CA\"", &MySql), vec![TokenKind::StringLit("\"CA\"")]);
        // ...but a string under ANSI rules it is not.
        assert_eq!(
            kinds("\"ca\"", &Ansi),
            vec![TokenKind::Word { text: "ca".into(), quoted: true }]
        );
    }

    #[test]
    fn string_literals_keep_source_spelling() {
        assert_eq!(kinds("'CA'", &Ansi), vec![TokenKind::StringLit("'CA'")]);
        assert_eq!(kinds("'o''brien'", &Ansi), vec![TokenKind::StringLit("'o''brien'")]);
    }

    #[test]
    fn numbers_and_qualified_columns() {
        assert_eq!(
            kinds("t.a = 3.14", &Ansi),
            vec![
                TokenKind::Word { text: "t".into(), quoted: false },
                TokenKind::Symbol('.'),
                TokenKind::Word { text: "a".into(), quoted: false },
                TokenKind::Op("="),
                TokenKind::Number("3.14"),
            ]
        );
        // A trailing dot stays punctuation, not part of the number.
        assert_eq!(
            kinds("42.x", &Ansi),
            vec![
                TokenKind::Number("42"),
                TokenKind::Symbol('.'),
                TokenKind::Word { text: "x".into(), quoted: false },
            ]
        );
    }

    #[test]
    fn operators_and_params() {
        assert_eq!(
            kinds("<= >= <> != < > =", &Ansi),
            vec![
                TokenKind::Op("<="),
                TokenKind::Op(">="),
                TokenKind::Op("<>"),
                TokenKind::Op("!="),
                TokenKind::Op("<"),
                TokenKind::Op(">"),
                TokenKind::Op("="),
            ]
        );
        assert_eq!(kinds("?", &MySql), vec![TokenKind::Param("?")]);
        assert_eq!(
            kinds("$1 $23", &Postgres),
            vec![TokenKind::Param("$1"), TokenKind::Param("$23")]
        );
    }

    #[test]
    fn postgres_double_colon_cast_token() {
        assert_eq!(
            kinds("x::date", &Postgres),
            vec![
                TokenKind::Word { text: "x".into(), quoted: false },
                TokenKind::DoubleColon,
                TokenKind::Word { text: "date".into(), quoted: false },
            ]
        );
        // ANSI has no ::, so ':' is an unexpected character.
        assert!(matches!(
            tokenize("x::date", &Ansi),
            Err(ParseError::UnexpectedChar { ch: ':', .. })
        ));
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("SELECT -- trailing\n 1 /* block */ , 2", &Ansi),
            vec![
                TokenKind::Word { text: "SELECT".into(), quoted: false },
                TokenKind::Number("1"),
                TokenKind::Symbol(','),
                TokenKind::Number("2"),
            ]
        );
        assert!(kinds("/* unterminated", &Ansi).is_empty());
    }

    #[test]
    fn error_spans_point_at_the_problem() {
        let e = tokenize("SELECT 'oops", &Ansi).unwrap_err();
        assert_eq!(e, ParseError::UnterminatedString { span: Span::new(7, 12) });
        let e = tokenize("SELECT \"", &Ansi).unwrap_err();
        assert_eq!(e.kind(), "unterminated_ident");
        let e = tokenize("SELECT \"\" FROM t", &Ansi).unwrap_err();
        assert_eq!(e, ParseError::EmptyIdent { span: Span::new(7, 9) });
        let e = tokenize("a # b", &Ansi).unwrap_err();
        assert_eq!(e, ParseError::UnexpectedChar { ch: '#', span: Span::new(2, 3) });
        let e = tokenize("$ 1", &Postgres).unwrap_err();
        assert_eq!(e.kind(), "unexpected_char");
    }

    #[test]
    fn dollar_is_rejected_outside_postgres() {
        assert!(matches!(tokenize("$1", &Ansi), Err(ParseError::UnexpectedChar { ch: '$', .. })));
    }

    #[test]
    fn keyword_check_is_case_insensitive_and_unquoted_only() {
        let toks = tokenize("select \"select\"", &MySql).unwrap();
        // MySQL preserves case, so the keyword check must not rely on folding.
        assert!(toks[0].is_kw("SELECT"));
        let toks = tokenize("SELECT `select`", &MySql).unwrap();
        assert!(toks[0].is_kw("SELECT"));
        assert!(!toks[1].is_kw("SELECT"), "quoted words are identifiers, never keywords");
    }
}
