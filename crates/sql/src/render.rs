//! The workspace's one SQL renderer: [`render_sql_dialect`] turns a
//! [`QuerySpec`] into text a specific DBMS would accept. Under [`Ansi`] it
//! is the canonical text the text-based template learners (paper §IV-C)
//! read, the examples print, and the TPC-H generator parses back; under
//! every dialect it feeds the render → parse → lower round trip.
//!
//! [`Ansi`]: crate::dialect::Ansi

use std::fmt::Write as _;

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
    if ident.is_empty() {
        return true;
    }
    // `fold_ident` allocates, so skip it for identifiers it cannot change:
    // a dialect's folding only ever lower-cases ASCII upper-case letters.
    if ident.bytes().any(|b| b.is_ascii_uppercase()) && dialect.fold_ident(ident) != ident {
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
    if !ident_needs_quoting(ident, dialect) {
        return ident.to_string();
    }
    let q = dialect.ident_quote();
    let mut out = String::with_capacity(ident.len() + 2);
    out.push(q);
    for c in ident.chars() {
        if c == q {
            out.push(q);
        }
        out.push(c);
    }
    out.push(q);
    out
}

fn qualified(alias: &str, column: &str, dialect: &dyn Dialect) -> String {
    format!("{}.{}", quote_ident(alias, dialect), quote_ident(column, dialect))
}

/// Renders a query spec as a `SELECT` statement in `dialect`'s syntax.
///
/// Identifiers are quoted exactly when needed (see [`ident_needs_quoting`]),
/// `COUNT` keeps its column argument, and the limit clause uses the
/// dialect's spelling — the three properties the round-trip property test
/// ([`crate::parse_to_spec`] ∘ `render_sql_dialect` ≡ identity modulo
/// selectivities) relies on.
pub fn render_sql_dialect(q: &QuerySpec, dialect: &dyn Dialect) -> String {
    let mut s = String::with_capacity(256);
    s.push_str("SELECT ");
    if q.distinct {
        s.push_str("DISTINCT ");
    }
    let mut select_items: Vec<String> = Vec::new();
    for (alias, col) in &q.group_by {
        select_items.push(qualified(alias, col, dialect));
    }
    for agg in &q.aggregates {
        if agg.func == AggFunc::Count && agg.column.is_empty() {
            select_items.push("COUNT(*)".to_string());
        } else {
            select_items.push(format!(
                "{}({})",
                agg.func.sql(),
                qualified(&agg.table_alias, &agg.column, dialect)
            ));
        }
    }
    if select_items.is_empty() {
        select_items.push(match q.tables.first() {
            Some(t) => format!("{}.*", quote_ident(&t.alias, dialect)),
            None => "*".to_string(),
        });
    }
    s.push_str(&select_items.join(", "));

    s.push_str(" FROM ");
    let froms: Vec<String> = q
        .tables
        .iter()
        .map(|t| {
            if t.table == t.alias {
                quote_ident(&t.table, dialect)
            } else {
                format!("{} AS {}", quote_ident(&t.table, dialect), quote_ident(&t.alias, dialect))
            }
        })
        .collect();
    s.push_str(&froms.join(", "));

    let mut conds: Vec<String> = Vec::new();
    for j in &q.joins {
        conds.push(format!(
            "{} = {}",
            qualified(&j.left_alias, &j.left_col, dialect),
            qualified(&j.right_alias, &j.right_col, dialect)
        ));
    }
    for p in &q.predicates {
        let col = qualified(&p.table_alias, &p.column, dialect);
        match &p.op {
            CmpOp::InList(_) => conds.push(format!("{col} IN ({})", p.literal)),
            CmpOp::Between => conds.push(format!("{col} BETWEEN {}", p.literal)),
            op => conds.push(format!("{col} {} {}", op.sql(), p.literal)),
        }
    }
    if !conds.is_empty() {
        s.push_str(" WHERE ");
        s.push_str(&conds.join(" AND "));
    }

    if !q.group_by.is_empty() {
        s.push_str(" GROUP BY ");
        let cols: Vec<String> = q.group_by.iter().map(|(a, c)| qualified(a, c, dialect)).collect();
        s.push_str(&cols.join(", "));
    }
    if !q.order_by.is_empty() {
        s.push_str(" ORDER BY ");
        let cols: Vec<String> = q.order_by.iter().map(|(a, c)| qualified(a, c, dialect)).collect();
        s.push_str(&cols.join(", "));
    }
    if let Some(n) = q.limit {
        let _ = write!(s, "{}", dialect.render_limit(n));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dialect::{Ansi, MySql, Postgres};
    use wmp_plan::query::{Aggregate, JoinEdge, Predicate, TableRef};

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
        let q = QuerySpec {
            tables: vec![TableRef::plain("t")],
            aggregates: vec![
                Aggregate {
                    func: AggFunc::Count,
                    table_alias: Default::default(),
                    column: Default::default(),
                },
                Aggregate { func: AggFunc::Count, table_alias: "t".into(), column: "a".into() },
            ],
            ..QuerySpec::default()
        };
        let sql = render_sql_dialect(&q, &Ansi);
        assert!(sql.contains("COUNT(*)"));
        assert!(sql.contains("COUNT(t.a)"));
    }

    #[test]
    fn dialect_limit_spellings() {
        let q = QuerySpec {
            tables: vec![TableRef::plain("t")],
            limit: Some(7),
            ..QuerySpec::default()
        };
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
        QuerySpec {
            tables: vec![TableRef::plain("order")],
            predicates: vec![Predicate {
                table_alias: "order".into(),
                column: "total".into(),
                op: CmpOp::Gt,
                literal: "5".into(),
                sel_est: 0.3,
                sel_true: 0.3,
            }],
            ..QuerySpec::default()
        }
    }

    fn join_query() -> QuerySpec {
        QuerySpec {
            id: 7,
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
        }
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
        let q = QuerySpec {
            tables: vec![TableRef::plain("item")],
            aggregates: vec![Aggregate {
                func: AggFunc::Count,
                table_alias: "item".into(),
                column: Default::default(),
            }],
            distinct: true,
            ..QuerySpec::default()
        };
        let sql = render_sql_dialect(&q, &Ansi);
        assert_eq!(sql, "SELECT DISTINCT COUNT(*) FROM item");
    }

    #[test]
    fn count_with_a_column_keeps_it() {
        let q = QuerySpec {
            tables: vec![TableRef::plain("item")],
            aggregates: vec![Aggregate {
                func: AggFunc::Count,
                table_alias: "item".into(),
                column: "i_id".into(),
            }],
            ..QuerySpec::default()
        };
        assert_eq!(render_sql_dialect(&q, &Ansi), "SELECT COUNT(item.i_id) FROM item");
    }

    #[test]
    fn renders_in_and_between() {
        let q = QuerySpec {
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
            ..QuerySpec::default()
        };
        let sql = render_sql_dialect(&q, &Ansi);
        assert!(sql.contains("t.a IN (1, 2)"));
        assert!(sql.contains("t.b BETWEEN 5 AND 10"));
    }

    #[test]
    fn select_star_fallback_without_aggregates() {
        let q = QuerySpec { tables: vec![TableRef::plain("t")], ..QuerySpec::default() };
        assert_eq!(render_sql_dialect(&q, &Ansi), "SELECT t.* FROM t");
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
