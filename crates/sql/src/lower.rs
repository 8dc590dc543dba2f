//! Lowering: resolve a parsed [`SelectStmt`] against a [`Catalog`] into the
//! plan model's [`QuerySpec`].
//!
//! Resolution follows SQL scoping rules for the supported subset: FROM
//! bindings introduce aliases (rejecting duplicates), qualified references
//! must name a bound alias, and unqualified references must resolve to
//! exactly one table in scope.
//!
//! Selectivities cannot be recovered from text — `sel_true` is a property
//! of the hidden data model and `sel_est` of the generator's estimator run.
//! Lowering therefore assigns the textbook statistics-based defaults the
//! optimizer literature uses (System R heuristics over catalog `ndv`):
//!
//! | predicate | `sel_est` |
//! |---|---|
//! | `col = lit` | `1 / ndv` |
//! | `col IN (k items)` | `min(k / ndv, 1)` |
//! | `col < / <= / > / >= lit` | `1/3` |
//! | `col BETWEEN a AND b` | `1/9` |
//! | `col LIKE pat` | `0.05` |
//!
//! `sel_true` is set equal to `sel_est`: for text-ingested queries there is
//! no hidden truth to disagree with, and downstream consumers (simulator,
//! featurizers) treat the pair as "estimate + actual" without caring where
//! they came from.

use wmp_plan::catalog::Catalog;
use wmp_plan::query::{
    Aggregate, CmpOp, JoinEdge, Name, Predicate, QueryShape, QuerySpec, TableRef,
};

use crate::ast::{ColumnRef, Condition, Literal, SelectItem, SelectStmt};
use crate::error::{ParseError, Span, SqlResult};

/// Selectivity assigned to a single-sided range predicate.
pub const RANGE_SELECTIVITY: f64 = 1.0 / 3.0;
/// Selectivity assigned to `BETWEEN` (two range bounds).
pub const BETWEEN_SELECTIVITY: f64 = 1.0 / 9.0;
/// Selectivity assigned to `LIKE`.
pub const LIKE_SELECTIVITY: f64 = 0.05;

/// Lowers a parsed statement to a [`QuerySpec`], resolving every table and
/// column against `catalog`.
///
/// The produced spec has `id = 0` (callers assign corpus ids) and
/// statistics-based default selectivities (see module docs).
///
/// # Errors
/// [`ParseError::UnknownTable`], [`ParseError::UnknownColumn`],
/// [`ParseError::UnknownAlias`], [`ParseError::AmbiguousColumn`],
/// [`ParseError::DuplicateAlias`], or [`ParseError::Unsupported`] for
/// parseable constructs the plan model cannot express; all span-carrying.
pub fn lower(stmt: &SelectStmt<'_>, catalog: &Catalog) -> SqlResult<QuerySpec> {
    let n_aggregates =
        stmt.items.iter().filter(|i| matches!(i, SelectItem::Aggregate { .. })).count();
    let n_joins = stmt.conditions.iter().filter(|c| matches!(c, Condition::Join { .. })).count();
    let mut spec = QueryShape {
        tables: bind(stmt, catalog)?,
        aggregates: Vec::with_capacity(n_aggregates),
        joins: Vec::with_capacity(n_joins),
        predicates: Vec::with_capacity(stmt.conditions.len() - n_joins),
        group_by: Vec::with_capacity(stmt.group_by.len()),
        order_by: Vec::with_capacity(stmt.order_by.len()),
        distinct: stmt.distinct,
        limit: stmt.limit,
    };

    for item in &stmt.items {
        match item {
            SelectItem::Star(_) => {}
            SelectItem::QualifiedStar { qualifier, span } => {
                table(&spec, qualifier, *span)?;
            }
            SelectItem::Column(col) => {
                lookup(&spec, col, catalog)?;
            }
            SelectItem::Aggregate { func, arg, .. } => {
                let (table_alias, column) = match arg {
                    Some(col) => {
                        let (alias, _, column) = resolve(&spec, col, catalog)?;
                        (alias, column)
                    }
                    None => (Name::default(), Name::default()),
                };
                spec.aggregates.push(Aggregate { func: *func, table_alias, column });
            }
        }
    }

    for cond in &stmt.conditions {
        match cond {
            Condition::Join { left, right, .. } => {
                let (left_alias, _, left_col) = resolve(&spec, left, catalog)?;
                let (right_alias, _, right_col) = resolve(&spec, right, catalog)?;
                spec.joins.push(JoinEdge { left_alias, left_col, right_alias, right_col });
            }
            Condition::Cmp { col, op, literal, span } => {
                let (table_alias, ndv, column) = resolve(&spec, col, catalog)?;
                let (op, sel) = match *op {
                    "=" => (CmpOp::Eq, eq_selectivity(ndv)),
                    "<" => (CmpOp::Lt, RANGE_SELECTIVITY),
                    "<=" => (CmpOp::Le, RANGE_SELECTIVITY),
                    ">" => (CmpOp::Gt, RANGE_SELECTIVITY),
                    ">=" => (CmpOp::Ge, RANGE_SELECTIVITY),
                    _ => {
                        return Err(ParseError::Unsupported {
                            what: "not-equal predicate",
                            span: *span,
                        })
                    }
                };
                let literal = literal.text.into();
                spec.predicates.push(predicate(table_alias, column, op, literal, sel));
            }
            Condition::Between { col, lo, hi, .. } => {
                let (table_alias, _, column) = resolve(&spec, col, catalog)?;
                let literal = format!("{} AND {}", lo.text, hi.text).into();
                spec.predicates.push(predicate(
                    table_alias,
                    column,
                    CmpOp::Between,
                    literal,
                    BETWEEN_SELECTIVITY,
                ));
            }
            Condition::InList { col, items, span } => {
                let (table_alias, ndv, column) = resolve(&spec, col, catalog)?;
                if items.len() > u8::MAX as usize {
                    return Err(ParseError::Unsupported {
                        what: "IN list longer than 255 items",
                        span: *span,
                    });
                }
                let sel = (items.len() as f64 * eq_selectivity(ndv)).min(1.0);
                spec.predicates.push(predicate(
                    table_alias,
                    column,
                    CmpOp::InList(items.len() as u8),
                    render_in_list(items).into(),
                    sel,
                ));
            }
            Condition::Like { col, pattern, .. } => {
                let (table_alias, _, column) = resolve(&spec, col, catalog)?;
                spec.predicates.push(predicate(
                    table_alias,
                    column,
                    CmpOp::Like,
                    pattern.text.into(),
                    LIKE_SELECTIVITY,
                ));
            }
        }
    }

    for col in &stmt.group_by {
        let (alias, _, column) = resolve(&spec, col, catalog)?;
        spec.group_by.push((alias, column));
    }
    for col in &stmt.order_by {
        let (alias, _) = lookup(&spec, col, catalog)?;
        // ORDER BY mostly repeats the GROUP BY columns: share their names.
        let entry = match spec.group_by.iter().find(|(a, c)| a == alias && **c == *col.column) {
            Some(grouped) => grouped.clone(),
            None => (alias.clone(), Name::from(&*col.column)),
        };
        spec.order_by.push(entry);
    }
    Ok(QuerySpec::new(0, spec))
}

fn predicate(table_alias: Name, column: Name, op: CmpOp, literal: Name, sel: f64) -> Predicate {
    Predicate { table_alias, column, op, literal, sel_est: sel, sel_true: sel }
}

fn eq_selectivity(ndv: u64) -> f64 {
    1.0 / ndv.max(1) as f64
}

fn render_in_list(items: &[Literal<'_>]) -> String {
    let texts: Vec<&str> = items.iter().map(|l| l.text).collect();
    texts.join(", ")
}

/// The FROM bindings in statement order, each with one [`Name`] for its
/// table and one for its alias; aliases are unique.
fn bind(stmt: &SelectStmt<'_>, catalog: &Catalog) -> SqlResult<Vec<TableRef>> {
    let mut tables: Vec<TableRef> = Vec::with_capacity(stmt.from.len());
    for item in &stmt.from {
        if catalog.table(&item.table).is_none() {
            return Err(ParseError::UnknownTable { name: item.table.to_string(), span: item.span });
        }
        if tables.iter().any(|t| *t.alias == *item.alias) {
            return Err(ParseError::DuplicateAlias {
                alias: item.alias.to_string(),
                span: item.span,
            });
        }
        tables.push(TableRef::new(&item.table, &item.alias));
    }
    Ok(tables)
}

/// The FROM binding of `alias` in `spec`.
fn table<'s>(spec: &'s QueryShape, alias: &str, span: Span) -> SqlResult<&'s TableRef> {
    spec.tables
        .iter()
        .find(|t| *t.alias == *alias)
        .ok_or_else(|| ParseError::UnknownAlias { alias: alias.to_string(), span })
}

/// Resolves a column reference against `spec`'s FROM bindings to the
/// binding's alias and the column's `ndv`.
fn lookup<'s>(
    spec: &'s QueryShape,
    col: &ColumnRef<'_>,
    catalog: &Catalog,
) -> SqlResult<(&'s Name, u64)> {
    match &col.qualifier {
        Some(alias) => {
            let t = table(spec, alias, col.span)?;
            match catalog.column(&t.table, &col.column) {
                Some((_, c)) => Ok((&t.alias, c.ndv)),
                None => Err(ParseError::UnknownColumn {
                    table: t.table.to_string(),
                    column: col.column.to_string(),
                    span: col.span,
                }),
            }
        }
        None => {
            let mut hit: Option<(&Name, u64)> = None;
            for t in &spec.tables {
                if let Some((_, c)) = catalog.column(&t.table, &col.column) {
                    if hit.is_some() {
                        return Err(ParseError::AmbiguousColumn {
                            column: col.column.to_string(),
                            span: col.span,
                        });
                    }
                    hit = Some((&t.alias, c.ndv));
                }
            }
            hit.ok_or_else(|| ParseError::UnknownColumn {
                table: "<any table in scope>".to_string(),
                column: col.column.to_string(),
                span: col.span,
            })
        }
    }
}

/// Resolves a column reference to `(alias, ndv, column)`; the alias shares
/// its binding's [`Name`].
fn resolve(
    spec: &QueryShape,
    col: &ColumnRef<'_>,
    catalog: &Catalog,
) -> SqlResult<(Name, u64, Name)> {
    let (alias, ndv) = lookup(spec, col, catalog)?;
    Ok((alias.clone(), ndv, Name::from(&*col.column)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dialect::Ansi;
    use crate::parser::parse;
    use wmp_plan::schema::{Column, ColumnType, Table};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_table(Table::new(
            "orders",
            10_000,
            vec![
                Column::new("o_id", ColumnType::Int, 10_000),
                Column::new("o_cust", ColumnType::Int, 1_000),
                Column::new("o_total", ColumnType::Decimal, 5_000),
            ],
        ));
        cat.add_table(Table::new(
            "customer",
            1_000,
            vec![
                Column::new("c_id", ColumnType::Int, 1_000),
                Column::new("c_nation", ColumnType::Char(2), 25),
            ],
        ));
        cat
    }

    fn lowered(sql: &str) -> QuerySpec {
        let stmt = parse(sql, &Ansi).unwrap_or_else(|e| panic!("{sql:?}: {e}"));
        lower(&stmt, &catalog()).unwrap_or_else(|e| panic!("{sql:?}: {e}"))
    }

    #[test]
    fn full_query_lowers() {
        let spec = lowered(
            "SELECT c.c_nation, SUM(o.o_total) FROM orders AS o, customer AS c \
             WHERE o.o_cust = c.c_id AND c.c_nation = 'CA' AND o.o_total BETWEEN 5 AND 10 \
             GROUP BY c.c_nation ORDER BY c.c_nation FETCH FIRST 10 ROWS ONLY",
        );
        assert_eq!(spec.tables.len(), 2);
        assert_eq!(spec.joins.len(), 1);
        assert_eq!(&*spec.joins[0].left_alias, "o");
        assert_eq!(spec.predicates.len(), 2);
        assert_eq!(spec.predicates[0].op, CmpOp::Eq);
        assert!((spec.predicates[0].sel_est - 1.0 / 25.0).abs() < 1e-12, "eq uses 1/ndv");
        assert_eq!(spec.predicates[1].op, CmpOp::Between);
        assert_eq!(&*spec.predicates[1].literal, "5 AND 10");
        assert!((spec.predicates[1].sel_est - BETWEEN_SELECTIVITY).abs() < 1e-12);
        assert_eq!(spec.group_by, vec![("c".into(), "c_nation".into())]);
        assert_eq!(spec.order_by.len(), 1);
        assert_eq!(spec.limit, Some(10));
        assert_eq!(spec.aggregates.len(), 1);
        assert_eq!(&*spec.aggregates[0].table_alias, "o");
    }

    #[test]
    fn selectivity_defaults() {
        let spec = lowered(
            "SELECT o.* FROM orders o WHERE o.o_total > 5 AND o.o_cust IN (1, 2, 3) \
             AND o.o_id LIKE '%9%'",
        );
        assert!((spec.predicates[0].sel_est - RANGE_SELECTIVITY).abs() < 1e-12);
        assert_eq!(spec.predicates[1].op, CmpOp::InList(3));
        assert!((spec.predicates[1].sel_est - 3.0 / 1_000.0).abs() < 1e-12, "IN uses k/ndv");
        assert_eq!(&*spec.predicates[1].literal, "1, 2, 3");
        assert!((spec.predicates[2].sel_est - LIKE_SELECTIVITY).abs() < 1e-12);
        for p in &spec.predicates {
            assert_eq!(p.sel_est, p.sel_true, "text ingestion has no hidden truth");
        }
    }

    #[test]
    fn count_star_has_empty_alias_and_column() {
        let spec = lowered("SELECT COUNT(*) FROM orders");
        assert_eq!(spec.aggregates.len(), 1);
        assert_eq!(&*spec.aggregates[0].table_alias, "");
        assert_eq!(&*spec.aggregates[0].column, "");
    }

    #[test]
    fn unqualified_columns_resolve_when_unambiguous() {
        let spec = lowered("SELECT c_nation FROM orders, customer WHERE o_cust = c_id");
        assert_eq!(spec.joins.len(), 1);
        // Unqualified resolution binds to the table-name aliases.
        let edge = &spec.joins[0];
        assert_eq!(&*edge.left_alias, "orders");
        assert_eq!(&*edge.right_alias, "customer");
    }

    #[test]
    fn resolution_errors_are_typed() {
        let cat = catalog();
        let fail = |sql: &str| {
            let stmt = parse(sql, &Ansi).unwrap();
            lower(&stmt, &cat).unwrap_err()
        };
        assert_eq!(fail("SELECT x.* FROM nope x").kind(), "unknown_table");
        assert_eq!(fail("SELECT o.nope FROM orders o").kind(), "unknown_column");
        assert_eq!(fail("SELECT z.o_id FROM orders o").kind(), "unknown_alias");
        assert_eq!(
            fail("SELECT o.o_id FROM orders o, orders o WHERE o.o_id = 1").kind(),
            "duplicate_alias"
        );
        let e = fail("SELECT o_id FROM orders, orders o2");
        assert_eq!(e.kind(), "ambiguous_column");
        assert!(e.span().end > e.span().start, "resolution errors carry real spans");
        assert_eq!(fail("SELECT nope FROM orders").kind(), "unknown_column");
    }

    #[test]
    fn long_in_lists_are_rejected() {
        let items: Vec<String> = (0..300).map(|i| i.to_string()).collect();
        let sql = format!("SELECT o.* FROM orders o WHERE o.o_cust IN ({})", items.join(", "));
        let stmt = parse(&sql, &Ansi).unwrap();
        let e = lower(&stmt, &catalog()).unwrap_err();
        assert_eq!(e.kind(), "unsupported");
    }

    #[test]
    fn in_list_selectivity_caps_at_one() {
        // 30 items against ndv=25 would exceed 1.0 without the cap.
        let items: Vec<String> = (0..30).map(|i| format!("'{i}'")).collect();
        let sql = format!("SELECT c.* FROM customer c WHERE c.c_nation IN ({})", items.join(", "));
        let stmt = parse(&sql, &Ansi).unwrap();
        let spec = lower(&stmt, &catalog()).unwrap();
        assert_eq!(spec.predicates[0].sel_est, 1.0);
    }
}
