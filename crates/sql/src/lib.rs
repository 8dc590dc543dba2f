//! SQL ingestion front-end for LearnedWMP: a dependency-free tokenizer,
//! recursive-descent parser, and catalog-aware lowering pass for the
//! `SELECT` subset the plan model covers.
//!
//! The paper's pipeline starts from *query plans*; production systems start
//! from *query text*. This crate bridges the two: SQL text from a DBMS log
//! is parsed under a concrete [`Dialect`] (ANSI, Postgres, MySQL — quoting,
//! parameter markers, cast syntax, and case folding differ) and lowered
//! against a [`wmp_plan::catalog::Catalog`] into a
//! [`wmp_plan::query::QuerySpec`], after which the existing planner →
//! featurizer → predictor path applies unchanged.
//!
//! Supported grammar: single-block `SELECT` with `DISTINCT`, aggregates
//! (`COUNT`/`SUM`/`AVG`/`MIN`/`MAX`), comma- and `JOIN … ON`-style
//! equi-joins, an `AND` conjunction of comparison / `BETWEEN` / `IN` /
//! `LIKE` predicates, `GROUP BY`, `ORDER BY`, and both limit spellings.
//! Everything else fails with a typed, span-carrying [`ParseError`] —
//! a memory predictor must reject what it cannot model, never guess.
//!
//! Tokens and the AST borrow the statement text. A token is a byte span
//! plus a slice of the source; only a quoted identifier with doubled quotes
//! gets an unescaped copy. An unquoted word is folded under the dialect
//! only where it becomes a name, and lowering allocates only the names and
//! vectors the returned [`QuerySpec`] keeps. On perfbench's traced
//! `sql_ingest` run (TPC-H, seed 7, 2-core VM), [`parse_to_spec`] takes
//! 6.5 µs and 29.6 allocations per statement (`sql.parse_ns`,
//! `sql.allocs`), against 13.2 µs and 125.6 when every token and name owned
//! a `String`.
//!
//! ```
//! use wmp_sql::{parse_to_spec, Postgres};
//! use wmp_plan::catalog::Catalog;
//! use wmp_plan::schema::{Column, ColumnType, Table};
//!
//! let mut catalog = Catalog::new();
//! catalog.add_table(Table::new(
//!     "orders",
//!     1000,
//!     vec![Column::new("o_id", ColumnType::Int, 1000),
//!          Column::new("o_total", ColumnType::Decimal, 500)],
//! ));
//! let spec = parse_to_spec(
//!     "SELECT COUNT(*) FROM orders o WHERE o.o_total > $1",
//!     &Postgres,
//!     &catalog,
//! ).unwrap();
//! assert_eq!(spec.tables.len(), 1);
//! assert_eq!(spec.predicates.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod dialect;
pub mod error;
pub mod lower;
pub mod parser;
pub mod render;
pub mod token;

pub use ast::SelectStmt;
pub use dialect::{all_dialects, Ansi, Dialect, MySql, Postgres};
pub use error::{ParseError, Span, SqlResult};
pub use lower::lower;
pub use parser::parse;
pub use render::{ident_needs_quoting, quote_ident, render_sql_dialect};

use wmp_plan::catalog::Catalog;
use wmp_plan::query::QuerySpec;

/// Parses SQL text under `dialect` and lowers it against `catalog` in one
/// step — the entry point log-ingestion paths use.
///
/// # Errors
/// Any tokenizer, parser, or lowering [`ParseError`]; never panics.
pub fn parse_to_spec(sql: &str, dialect: &dyn Dialect, catalog: &Catalog) -> SqlResult<QuerySpec> {
    lower(&parse(sql, dialect)?, catalog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmp_plan::schema::{Column, ColumnType, Table};

    #[test]
    fn parse_to_spec_end_to_end_under_each_dialect() {
        let mut catalog = Catalog::new();
        catalog.add_table(Table::new(
            "orders",
            1000,
            vec![
                Column::new("o_id", ColumnType::Int, 1000),
                Column::new("o_total", ColumnType::Decimal, 500),
            ],
        ));
        for d in all_dialects() {
            let spec = parse_to_spec(
                "SELECT COUNT(*) FROM orders o WHERE o.o_total > 5 LIMIT 10",
                d,
                &catalog,
            )
            .unwrap_or_else(|e| panic!("{}: {e}", d.name()));
            assert_eq!(spec.tables.len(), 1, "{}", d.name());
            assert_eq!(spec.limit, Some(10));
        }
    }

    #[test]
    fn errors_propagate_from_every_stage() {
        let catalog = Catalog::new();
        // tokenizer
        assert_eq!(parse_to_spec("SELECT #", &Ansi, &catalog).unwrap_err().kind(), {
            "unexpected_char"
        });
        // parser
        assert_eq!(
            parse_to_spec("SELECT , FROM t", &Ansi, &catalog).unwrap_err().kind(),
            "unexpected_token"
        );
        // lowering (empty catalog: no tables exist)
        assert_eq!(
            parse_to_spec("SELECT t.* FROM t", &Ansi, &catalog).unwrap_err().kind(),
            "unknown_table"
        );
    }
}
