//! SQL dialect handling: quoting, parameter markers, cast syntax, and
//! identifier case folding.
//!
//! Production query logs are never written in textbook ANSI. The three
//! dialects here cover the quirks that actually break naive parsers:
//!
//! | quirk | ANSI | Postgres | MySQL |
//! |---|---|---|---|
//! | identifier quote | `"x"` | `"x"` | `` `x` `` |
//! | `"..."` means | identifier | identifier | **string literal** |
//! | parameter marker | `?` | `$1`, `$2`, … | `?` |
//! | shorthand cast | — | `expr::type` | — |
//! | unquoted identifiers fold to | lower case | lower case | preserved |
//! | `LIMIT` spelling | `FETCH FIRST n ROWS ONLY` | `LIMIT n` | `LIMIT n` |
//!
//! All dialects additionally accept `CAST(expr AS type)`, standard string
//! quoting with `''` escapes, and both limit spellings on input (a Postgres
//! log may contain ANSI `FETCH FIRST`; rejecting it would be pedantry).

use std::borrow::Cow;

/// Dialect-specific lexical and rendering rules. Implementations are
/// stateless unit structs; pass `&Ansi` / `&Postgres` / `&MySql`.
pub trait Dialect: Send + Sync {
    /// Dialect name for diagnostics and metric labels.
    fn name(&self) -> &'static str;

    /// The character that opens/closes a quoted identifier.
    fn ident_quote(&self) -> char {
        '"'
    }

    /// Whether `"..."` is a *string literal* rather than an identifier
    /// (MySQL without `ANSI_QUOTES`).
    fn double_quote_is_string(&self) -> bool {
        false
    }

    /// Whether `$1`-style positional parameter markers are recognized.
    fn dollar_params(&self) -> bool {
        false
    }

    /// Whether `?` parameter markers are recognized.
    fn question_params(&self) -> bool {
        true
    }

    /// Whether the `expr::type` cast shorthand is recognized.
    fn double_colon_cast(&self) -> bool {
        false
    }

    /// Folds an *unquoted* identifier to its catalog form, borrowing
    /// `ident` when folding changes nothing. Quoted identifiers always
    /// bypass folding. Folding may only lower-case ASCII upper-case letters
    /// (keyword matching is ASCII case-insensitive either way).
    fn fold_ident<'s>(&self, ident: &'s str) -> Cow<'s, str> {
        if ident.bytes().any(|b| b.is_ascii_uppercase()) {
            Cow::Owned(ident.to_ascii_lowercase())
        } else {
            Cow::Borrowed(ident)
        }
    }

    /// Renders the LIMIT clause (with its leading space).
    fn render_limit(&self, n: u64) -> String {
        format!(" LIMIT {n}")
    }
}

/// ANSI SQL: `"` identifiers, `?` parameters, lower-case folding,
/// `FETCH FIRST n ROWS ONLY`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ansi;

impl Dialect for Ansi {
    fn name(&self) -> &'static str {
        "ansi"
    }

    fn render_limit(&self, n: u64) -> String {
        format!(" FETCH FIRST {n} ROWS ONLY")
    }
}

/// PostgreSQL: `"` identifiers, `$1` parameters, `expr::type` casts,
/// lower-case folding, `LIMIT n`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Postgres;

impl Dialect for Postgres {
    fn name(&self) -> &'static str {
        "postgres"
    }

    fn dollar_params(&self) -> bool {
        true
    }

    fn double_colon_cast(&self) -> bool {
        true
    }
}

/// MySQL: `` ` `` identifiers, `"` strings, `?` parameters, identifier case
/// preserved (Unix `lower_case_table_names = 0`), `LIMIT n`.
#[derive(Debug, Clone, Copy, Default)]
pub struct MySql;

impl Dialect for MySql {
    fn name(&self) -> &'static str {
        "mysql"
    }

    fn ident_quote(&self) -> char {
        '`'
    }

    fn double_quote_is_string(&self) -> bool {
        true
    }

    fn fold_ident<'s>(&self, ident: &'s str) -> Cow<'s, str> {
        Cow::Borrowed(ident)
    }
}

/// The three built-in dialects, for "test under every dialect" loops.
pub fn all_dialects() -> [&'static dyn Dialect; 3] {
    [&Ansi, &Postgres, &MySql]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dialect_matrix() {
        assert_eq!(Ansi.name(), "ansi");
        assert_eq!(Ansi.ident_quote(), '"');
        assert!(!Ansi.dollar_params());
        assert!(Ansi.question_params());
        assert_eq!(Ansi.render_limit(5), " FETCH FIRST 5 ROWS ONLY");

        assert!(Postgres.dollar_params());
        assert!(Postgres.double_colon_cast());
        assert_eq!(Postgres.render_limit(5), " LIMIT 5");

        assert_eq!(MySql.ident_quote(), '`');
        assert!(MySql.double_quote_is_string());
        assert!(!MySql.double_colon_cast());
    }

    #[test]
    fn case_folding() {
        assert_eq!(Ansi.fold_ident("Customer"), "customer");
        assert_eq!(Postgres.fold_ident("C_NATION"), "c_nation");
        assert_eq!(MySql.fold_ident("Customer"), "Customer", "MySQL preserves case");
        assert!(matches!(Ansi.fold_ident("customer"), Cow::Borrowed(_)), "no-op folds borrow");
        assert!(matches!(MySql.fold_ident("Customer"), Cow::Borrowed(_)));
    }

    #[test]
    fn all_dialects_are_distinct() {
        let names: Vec<_> = all_dialects().iter().map(|d| d.name()).collect();
        assert_eq!(names, vec!["ansi", "postgres", "mysql"]);
    }
}
