//! The parsed form of a `SELECT` statement — the narrow waist between the
//! dialect-aware parser and the catalog-aware lowering pass.
//!
//! The AST mirrors the grammar subset the plan model covers (see
//! [`crate`]-level docs): a single `SELECT` block with comma- or
//! `JOIN … ON`-style joins, an `AND`-conjunction of comparisons in `WHERE`,
//! `GROUP BY` / `ORDER BY` column lists, aggregates, `DISTINCT`, and a
//! limit. Literals keep their source spelling so a render → parse round
//! trip is lossless.
//!
//! Every node borrows the statement text: literals are slices of it, and a
//! name is a slice too unless dialect folding or quote unescaping changed
//! it. Lowering allocates only the names the [`QuerySpec`] keeps.
//!
//! [`QuerySpec`]: wmp_plan::query::QuerySpec

use std::borrow::Cow;

use crate::error::Span;
use wmp_plan::query::AggFunc;

/// A possibly-qualified column reference (`alias.col` or `col`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnRef<'a> {
    /// The qualifier before the dot, if any.
    pub qualifier: Option<Cow<'a, str>>,
    /// The column name.
    pub column: Cow<'a, str>,
    /// Source span of the whole reference.
    pub span: Span,
}

/// A literal operand, spelled as in the source (`42`, `'CA'`, `$1`, `?`).
/// Casts are unwrapped during parsing: `CAST('2020-01-01' AS DATE)` and
/// `'2020-01-01'::date` both yield the inner literal's spelling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Literal<'a> {
    /// Source text of the literal (quotes included for strings).
    pub text: &'a str,
    /// Source span (of the full cast expression when one was unwrapped).
    pub span: Span,
}

/// One item of the SELECT list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectItem<'a> {
    /// `*`
    Star(Span),
    /// `alias.*`
    QualifiedStar {
        /// The qualifying alias.
        qualifier: Cow<'a, str>,
        /// Source span.
        span: Span,
    },
    /// A plain column (projection only; `QuerySpec` carries no projection
    /// list, so lowering validates and drops these).
    Column(ColumnRef<'a>),
    /// An aggregate call: `COUNT(*)`, `SUM(alias.col)`, …
    Aggregate {
        /// The function.
        func: AggFunc,
        /// The argument column; `None` for `COUNT(*)`.
        arg: Option<ColumnRef<'a>>,
        /// Source span of the whole call.
        span: Span,
    },
}

/// A FROM-clause table binding: `table [AS] [alias]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FromItem<'a> {
    /// Catalog table name (dialect-folded unless quoted).
    pub table: Cow<'a, str>,
    /// Binding alias; defaults to the table name when absent.
    pub alias: Cow<'a, str>,
    /// Source span of the binding.
    pub span: Span,
}

/// One conjunct of the WHERE clause (or a `JOIN … ON` condition, which the
/// parser folds into the same conjunction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Condition<'a> {
    /// `a.x = b.y` — an equi-join edge between two column references.
    Join {
        /// Left column.
        left: ColumnRef<'a>,
        /// Right column.
        right: ColumnRef<'a>,
        /// Source span.
        span: Span,
    },
    /// `col <op> literal` (or `literal <op> col`, normalized with the
    /// operator mirrored).
    Cmp {
        /// Filtered column.
        col: ColumnRef<'a>,
        /// Comparison operator: `=`, `<`, `<=`, `>`, `>=` (and `<>` / `!=`,
        /// which lowering rejects as unsupported by the plan model).
        op: &'static str,
        /// Comparand.
        literal: Literal<'a>,
        /// Source span.
        span: Span,
    },
    /// `col BETWEEN lo AND hi`.
    Between {
        /// Filtered column.
        col: ColumnRef<'a>,
        /// Lower bound.
        lo: Literal<'a>,
        /// Upper bound.
        hi: Literal<'a>,
        /// Source span.
        span: Span,
    },
    /// `col IN (a, b, …)`.
    InList {
        /// Filtered column.
        col: ColumnRef<'a>,
        /// List items.
        items: Vec<Literal<'a>>,
        /// Source span.
        span: Span,
    },
    /// `col LIKE pattern`.
    Like {
        /// Filtered column.
        col: ColumnRef<'a>,
        /// Pattern literal.
        pattern: Literal<'a>,
        /// Source span.
        span: Span,
    },
}

impl Condition<'_> {
    /// The span of the whole condition.
    pub fn span(&self) -> Span {
        match self {
            Condition::Join { span, .. }
            | Condition::Cmp { span, .. }
            | Condition::Between { span, .. }
            | Condition::InList { span, .. }
            | Condition::Like { span, .. } => *span,
        }
    }
}

/// A parsed `SELECT` statement.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SelectStmt<'a> {
    /// `SELECT DISTINCT`.
    pub distinct: bool,
    /// The SELECT list.
    pub items: Vec<SelectItem<'a>>,
    /// FROM bindings in source order.
    pub from: Vec<FromItem<'a>>,
    /// The WHERE conjunction (including folded `JOIN … ON` conditions), in
    /// source order.
    pub conditions: Vec<Condition<'a>>,
    /// GROUP BY columns.
    pub group_by: Vec<ColumnRef<'a>>,
    /// ORDER BY columns (directions are not modeled).
    pub order_by: Vec<ColumnRef<'a>>,
    /// `LIMIT n` / `FETCH FIRST n ROWS ONLY`.
    pub limit: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn condition_span_covers_every_variant() {
        let col = ColumnRef { qualifier: None, column: "c".into(), span: Span::new(1, 2) };
        let lit = Literal { text: "1", span: Span::new(3, 4) };
        let conds = [
            Condition::Join { left: col.clone(), right: col.clone(), span: Span::new(0, 5) },
            Condition::Cmp {
                col: col.clone(),
                op: "=",
                literal: lit.clone(),
                span: Span::new(0, 6),
            },
            Condition::Between {
                col: col.clone(),
                lo: lit.clone(),
                hi: lit.clone(),
                span: Span::new(0, 7),
            },
            Condition::InList { col: col.clone(), items: vec![lit.clone()], span: Span::new(0, 8) },
            Condition::Like { col, pattern: lit, span: Span::new(0, 9) },
        ];
        for (i, c) in conds.iter().enumerate() {
            assert_eq!(c.span(), Span::new(0, 5 + i));
        }
    }
}
