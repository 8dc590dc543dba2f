//! The workspace's one SQL renderer: [`render_sql_dialect`] turns a
//! [`QuerySpec`] into text a specific DBMS would accept. Under [`Ansi`] it
//! is the canonical text the text-based template learners (paper §IV-C)
//! read, the examples print, and the TPC-H generator parses back; under
//! every dialect it feeds the render → parse → lower round trip.
//!
//! [`Ansi`]: crate::dialect::Ansi

use wmp_plan::query::{AggFunc, CmpOp, QuerySpec};

use crate::dialect::Dialect;

/// Words the parser gives clause or operator meaning; identifiers spelled
/// like one are always quoted so the round trip stays unambiguous.
const RESERVED: [&str; 45] = [
    "ALL",
    "AND",
    "AS",
    "ASC",
    "AVG",
    "BETWEEN",
    "BY",
    "CAST",
    "COUNT",
    "CROSS",
    "DATE",
    "DESC",
    "DISTINCT",
    "EXISTS",
    "FETCH",
    "FIRST",
    "FROM",
    "FULL",
    "GROUP",
    "HAVING",
    "IN",
    "INNER",
    "INTERVAL",
    "IS",
    "JOIN",
    "LEFT",
    "LIKE",
    "LIMIT",
    "MAX",
    "MIN",
    "NOT",
    "NULL",
    "OFFSET",
    "ON",
    "ONLY",
    "OR",
    "ORDER",
    "OUTER",
    "RIGHT",
    "ROW",
    "ROWS",
    "SELECT",
    "SUM",
    "TIME",
    "TIMESTAMP",
];

/// True when `ident` can be emitted bare under `dialect`: it must survive
/// the dialect's case folding, look like a plain word, and not collide with
/// a keyword.
pub fn ident_needs_quoting(ident: &str, dialect: &dyn Dialect) -> bool {
    if ident.is_empty() || dialect.fold_ident(ident) != ident {
        return true;
    }
    let mut chars = ident.chars();
    let head_ok = chars.next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_');
    if !head_ok || !ident.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return true;
    }
    RESERVED.iter().any(|kw| ident.eq_ignore_ascii_case(kw))
}

/// Renders `ident`, quoting (with the dialect's quote character, doubled
/// when embedded) only when a bare spelling would not round-trip.
pub fn quote_ident(ident: &str, dialect: &dyn Dialect) -> String {
    let mut out = String::with_capacity(ident.len() + 2);
    push_ident(&mut out, ident, dialect);
    out
}

/// Appends `ident` to `out` as [`quote_ident`] spells it.
fn push_ident(out: &mut String, ident: &str, dialect: &dyn Dialect) {
    if !ident_needs_quoting(ident, dialect) {
        out.push_str(ident);
        return;
    }
    let q = dialect.ident_quote();
    out.push(q);
    for c in ident.chars() {
        if c == q {
            out.push(q);
        }
        out.push(c);
    }
    out.push(q);
}

/// Appends `alias.column`, each part quoted as needed.
fn push_qualified(out: &mut String, alias: &str, column: &str, dialect: &dyn Dialect) {
    push_ident(out, alias, dialect);
    out.push('.');
    push_ident(out, column, dialect);
}

/// Appends `head` before the first item of a list (clearing `first`) and
/// `sep` before every later one.
fn push_sep(out: &mut String, first: &mut bool, head: &str, sep: &str) {
    out.push_str(if std::mem::take(first) { head } else { sep });
}

/// Renders a query spec as a `SELECT` statement in `dialect`'s syntax.
///
/// Identifiers are quoted exactly when needed (see [`ident_needs_quoting`]),
/// `COUNT` keeps its column argument, and the limit clause uses the
/// dialect's spelling — the three properties the round-trip property test
/// ([`crate::parse_to_spec`] ∘ `render_sql_dialect` ≡ identity modulo
/// selectivities) relies on. Every part is written straight into the one
/// output string, allocated once at an upper bound on its length computed
/// from the spec.
pub fn render_sql_dialect(q: &QuerySpec, dialect: &dyn Dialect) -> String {
    let limit = q.limit.map(|n| dialect.render_limit(n));
    let bound = rendered_len_bound(q, dialect, limit.as_deref().unwrap_or(""));
    let mut s = String::with_capacity(bound);
    s.push_str("SELECT ");
    if q.distinct {
        s.push_str("DISTINCT ");
    }
    let mut first = true;
    for (alias, col) in &q.group_by {
        push_sep(&mut s, &mut first, "", ", ");
        push_qualified(&mut s, alias, col, dialect);
    }
    for agg in &q.aggregates {
        push_sep(&mut s, &mut first, "", ", ");
        if agg.func == AggFunc::Count && agg.column.is_empty() {
            s.push_str("COUNT(*)");
        } else {
            s.push_str(agg.func.sql());
            s.push('(');
            push_qualified(&mut s, &agg.table_alias, &agg.column, dialect);
            s.push(')');
        }
    }
    if first {
        match q.tables.first() {
            Some(t) => {
                push_ident(&mut s, &t.alias, dialect);
                s.push_str(".*");
            }
            None => s.push('*'),
        }
    }

    s.push_str(" FROM ");
    let mut first = true;
    for t in &q.tables {
        push_sep(&mut s, &mut first, "", ", ");
        push_ident(&mut s, &t.table, dialect);
        if t.table != t.alias {
            s.push_str(" AS ");
            push_ident(&mut s, &t.alias, dialect);
        }
    }

    let mut first = true;
    for j in &q.joins {
        push_sep(&mut s, &mut first, " WHERE ", " AND ");
        push_qualified(&mut s, &j.left_alias, &j.left_col, dialect);
        s.push_str(" = ");
        push_qualified(&mut s, &j.right_alias, &j.right_col, dialect);
    }
    for p in &q.predicates {
        push_sep(&mut s, &mut first, " WHERE ", " AND ");
        push_qualified(&mut s, &p.table_alias, &p.column, dialect);
        match &p.op {
            CmpOp::InList(_) => {
                s.push_str(" IN (");
                s.push_str(&p.literal);
                s.push(')');
            }
            CmpOp::Between => {
                s.push_str(" BETWEEN ");
                s.push_str(&p.literal);
            }
            op => {
                s.push(' ');
                s.push_str(op.sql());
                s.push(' ');
                s.push_str(&p.literal);
            }
        }
    }

    for (clause, cols) in [(" GROUP BY ", &q.group_by), (" ORDER BY ", &q.order_by)] {
        let mut first = true;
        for (alias, col) in cols {
            push_sep(&mut s, &mut first, clause, ", ");
            push_qualified(&mut s, alias, col, dialect);
        }
    }
    if let Some(limit) = &limit {
        s.push_str(limit);
    }
    debug_assert!(s.len() <= bound, "rendered {} bytes past the bound {bound}", s.len());
    s
}

/// An upper bound on the bytes [`render_sql_dialect`] writes for `q`: its
/// keywords, separators, literals and `limit` clause at their exact length,
/// and every identifier as if quoted, with each embedded quote doubled.
fn rendered_len_bound(q: &QuerySpec, dialect: &dyn Dialect, limit: &str) -> usize {
    let quote = dialect.ident_quote();
    let ident = |i: &str| i.len() + (2 + i.matches(quote).count()) * quote.len_utf8();
    let qualified = |alias: &str, column: &str| ident(alias) + 1 + ident(column);
    // "SELECT DISTINCT ", " FROM ", and "alias.*" when nothing is selected.
    let mut n = 16 + 6 + q.tables.first().map_or(1, |t| ident(&t.alias) + 2);
    // ", " before each list item, " WHERE " or " AND " before each conjunct.
    n += 2 * (q.group_by.len() + q.aggregates.len() + q.tables.len());
    n += 7 * (q.joins.len() + q.predicates.len());
    n += q.group_by.iter().map(|(a, c)| qualified(a, c)).sum::<usize>();
    n += q
        .aggregates
        .iter()
        .map(|agg| agg.func.sql().len() + 2 + qualified(&agg.table_alias, &agg.column))
        .sum::<usize>();
    n += q.tables.iter().map(|t| ident(&t.table) + 4 + ident(&t.alias)).sum::<usize>();
    n += q
        .joins
        .iter()
        .map(|j| {
            qualified(&j.left_alias, &j.left_col) + 3 + qualified(&j.right_alias, &j.right_col)
        })
        .sum::<usize>();
    // " BETWEEN " is the longest operator spelling: 9 bytes.
    n += q
        .predicates
        .iter()
        .map(|p| qualified(&p.table_alias, &p.column) + 9 + p.literal.len())
        .sum::<usize>();
    for (clause, cols) in [(" GROUP BY ", &q.group_by), (" ORDER BY ", &q.order_by)] {
        n += clause.len() + cols.iter().map(|(a, c)| 2 + qualified(a, c)).sum::<usize>();
    }
    n + limit.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dialect::{Ansi, MySql, Postgres};
    use wmp_plan::query::{Aggregate, JoinEdge, Predicate, QueryShape, TableRef};

    #[test]
    fn quoting_rules() {
        assert!(!ident_needs_quoting("c_nation", &Ansi));
        assert!(ident_needs_quoting("Order", &Ansi), "folding changes it");
        assert!(ident_needs_quoting("order", &Ansi), "reserved");
        assert!(ident_needs_quoting("2fast", &Ansi), "leading digit");
        assert!(ident_needs_quoting("odd name", &Ansi), "space");
        assert!(ident_needs_quoting("", &Ansi));
        assert!(!ident_needs_quoting("CamelCase", &MySql), "MySQL preserves case");
        assert!(ident_needs_quoting("group", &MySql), "still reserved");
        assert_eq!(quote_ident("order", &Ansi), "\"order\"");
        assert_eq!(quote_ident("order", &MySql), "`order`");
        assert_eq!(quote_ident("a\"b", &Ansi), "\"a\"\"b\"", "embedded quotes double");
        assert_eq!(quote_ident("plain", &Postgres), "plain");
    }

    #[test]
    fn count_keeps_its_column() {
        let q = QuerySpec::new(
            0,
            QueryShape {
                tables: vec![TableRef::plain("t")],
                aggregates: vec![
                    Aggregate {
                        func: AggFunc::Count,
                        table_alias: Default::default(),
                        column: Default::default(),
                    },
                    Aggregate { func: AggFunc::Count, table_alias: "t".into(), column: "a".into() },
                ],
                ..QueryShape::default()
            },
        );
        let sql = render_sql_dialect(&q, &Ansi);
        assert!(sql.contains("COUNT(*)"));
        assert!(sql.contains("COUNT(t.a)"));
    }

    #[test]
    fn dialect_limit_spellings() {
        let q = QuerySpec::new(
            0,
            QueryShape {
                tables: vec![TableRef::plain("t")],
                limit: Some(7),
                ..QueryShape::default()
            },
        );
        assert!(render_sql_dialect(&q, &Ansi).ends_with("FETCH FIRST 7 ROWS ONLY"));
        assert!(render_sql_dialect(&q, &Postgres).ends_with("LIMIT 7"));
        assert!(render_sql_dialect(&q, &MySql).ends_with("LIMIT 7"));
    }

    #[test]
    fn reserved_table_names_are_quoted() {
        let sql = render_sql_dialect(&order_query(), &Ansi);
        assert_eq!(sql, "SELECT \"order\".* FROM \"order\" WHERE \"order\".total > 5");
        let sql = render_sql_dialect(&order_query(), &MySql);
        assert_eq!(sql, "SELECT `order`.* FROM `order` WHERE `order`.total > 5");
    }

    /// `SELECT * FROM order WHERE order.total > 5`, a reserved table name.
    fn order_query() -> QuerySpec {
        QuerySpec::new(
            0,
            QueryShape {
                tables: vec![TableRef::plain("order")],
                predicates: vec![Predicate {
                    table_alias: "order".into(),
                    column: "total".into(),
                    op: CmpOp::Gt,
                    literal: "5".into(),
                    sel_est: 0.3,
                    sel_true: 0.3,
                }],
                ..QueryShape::default()
            },
        )
    }

    fn join_query() -> QuerySpec {
        QuerySpec::new(
            7,
            QueryShape {
                tables: vec![TableRef::new("orders", "o"), TableRef::new("customer", "c")],
                joins: vec![JoinEdge {
                    left_alias: "o".into(),
                    left_col: "o_cust".into(),
                    right_alias: "c".into(),
                    right_col: "c_id".into(),
                }],
                predicates: vec![Predicate {
                    table_alias: "c".into(),
                    column: "c_nation".into(),
                    op: CmpOp::Eq,
                    literal: "'CA'".into(),
                    sel_est: 0.04,
                    sel_true: 0.05,
                }],
                group_by: vec![("c".into(), "c_nation".into())],
                aggregates: vec![Aggregate {
                    func: AggFunc::Sum,
                    table_alias: "o".into(),
                    column: "o_total".into(),
                }],
                order_by: vec![("c".into(), "c_nation".into())],
                distinct: false,
                limit: Some(100),
            },
        )
    }

    #[test]
    fn renders_full_query_shape() {
        let sql = render_sql_dialect(&join_query(), &Ansi);
        assert!(
            sql.starts_with("SELECT c.c_nation, SUM(o.o_total) FROM orders AS o, customer AS c")
        );
        assert!(sql.contains("WHERE o.o_cust = c.c_id AND c.c_nation = 'CA'"));
        assert!(sql.contains("GROUP BY c.c_nation"));
        assert!(sql.contains("ORDER BY c.c_nation"));
        assert!(sql.ends_with("FETCH FIRST 100 ROWS ONLY"));
    }

    #[test]
    fn renders_count_star_and_distinct() {
        let q = QuerySpec::new(
            0,
            QueryShape {
                tables: vec![TableRef::plain("item")],
                aggregates: vec![Aggregate {
                    func: AggFunc::Count,
                    table_alias: "item".into(),
                    column: Default::default(),
                }],
                distinct: true,
                ..QueryShape::default()
            },
        );
        let sql = render_sql_dialect(&q, &Ansi);
        assert_eq!(sql, "SELECT DISTINCT COUNT(*) FROM item");
    }

    #[test]
    fn count_with_a_column_keeps_it() {
        let q = QuerySpec::new(
            0,
            QueryShape {
                tables: vec![TableRef::plain("item")],
                aggregates: vec![Aggregate {
                    func: AggFunc::Count,
                    table_alias: "item".into(),
                    column: "i_id".into(),
                }],
                ..QueryShape::default()
            },
        );
        assert_eq!(render_sql_dialect(&q, &Ansi), "SELECT COUNT(item.i_id) FROM item");
    }

    #[test]
    fn renders_in_and_between() {
        let q = QuerySpec::new(
            0,
            QueryShape {
                tables: vec![TableRef::plain("t")],
                predicates: vec![
                    Predicate {
                        table_alias: "t".into(),
                        column: "a".into(),
                        op: CmpOp::InList(2),
                        literal: "1, 2".into(),
                        sel_est: 0.1,
                        sel_true: 0.1,
                    },
                    Predicate {
                        table_alias: "t".into(),
                        column: "b".into(),
                        op: CmpOp::Between,
                        literal: "5 AND 10".into(),
                        sel_est: 0.1,
                        sel_true: 0.1,
                    },
                ],
                ..QueryShape::default()
            },
        );
        let sql = render_sql_dialect(&q, &Ansi);
        assert!(sql.contains("t.a IN (1, 2)"));
        assert!(sql.contains("t.b BETWEEN 5 AND 10"));
    }

    #[test]
    fn select_star_fallback_without_aggregates() {
        let q = QuerySpec::new(
            0,
            QueryShape { tables: vec![TableRef::plain("t")], ..QueryShape::default() },
        );
        assert_eq!(render_sql_dialect(&q, &Ansi), "SELECT t.* FROM t");
        assert_eq!(render_sql_dialect(&QuerySpec::default(), &Ansi), "SELECT * FROM ");
    }

    #[test]
    fn editing_a_clone_leaves_the_original_sql() {
        let original = join_query();
        let sql = render_sql_dialect(&original, &Ansi);
        let mut edited = original.clone();
        edited.shape_mut().predicates.clear();
        edited.shape_mut().limit = Some(3);
        assert_eq!(render_sql_dialect(&original, &Ansi), sql);
        assert_ne!(render_sql_dialect(&edited, &Ansi), sql);
        assert!(!render_sql_dialect(&edited, &Ansi).contains("c_nation = 'CA'"));
    }

    #[test]
    fn reserved_and_cased_identifiers_are_quoted() {
        assert_eq!(quote_ident("c_nation", &Ansi), "c_nation");
        assert_eq!(quote_ident("order", &Ansi), "\"order\"", "reserved word");
        assert_eq!(quote_ident("Lineitem", &Ansi), "\"Lineitem\"", "would fold to lower case");
        assert_eq!(quote_ident("odd name", &Ansi), "\"odd name\"");
        assert_eq!(quote_ident("a\"b", &Ansi), "\"a\"\"b\"", "embedded quote doubles");
        assert_eq!(
            render_sql_dialect(&order_query(), &Ansi),
            "SELECT \"order\".* FROM \"order\" WHERE \"order\".total > 5"
        );
    }
}
