//! Logical query specification — the `e` (expression) of the paper's query
//! triple `q = (e, p, m)`. A [`QuerySpec`] carries both the *visible*
//! statistics-based selectivity of each predicate and the *hidden* true
//! selectivity drawn by the workload generator from the data model.
//!
//! Every identifier and literal is a [`Name`]: a shared, immutable string.
//! Cloning a spec (or a record that holds one) copies its `Vec`s and bumps
//! reference counts; it never copies string bytes.

use std::sync::Arc;

/// A shared, immutable identifier or literal: a table, alias, column or
/// rendered literal. Clones share one allocation, so copying a
/// [`QuerySpec`] allocates nothing per name. `Debug`, `Display`, `Eq`,
/// `Ord` and `Hash` are those of `str`, as they were for `String`;
/// compare with a `&str` through `&*name`.
pub type Name = Arc<str>;

/// A table reference with an alias (JOB-style queries reference the same
/// table multiple times under different aliases).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRef {
    /// Catalog table name.
    pub table: Name,
    /// Alias used in joins/predicates.
    pub alias: Name,
}

impl TableRef {
    /// Creates a reference with an explicit alias. A table aliased by its
    /// own name shares one [`Name`] between both fields.
    pub fn new(table: &str, alias: &str) -> Self {
        let table = Name::from(table);
        let alias = if *table == *alias { table.clone() } else { alias.into() };
        TableRef { table, alias }
    }

    /// Creates a reference aliased by the table's own name.
    pub fn plain(table: &str) -> Self {
        TableRef::new(table, table)
    }
}

/// Comparison operator of a local predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CmpOp {
    /// `col = literal`
    Eq,
    /// `col < literal`
    Lt,
    /// `col <= literal`
    Le,
    /// `col > literal`
    Gt,
    /// `col >= literal`
    Ge,
    /// `col BETWEEN a AND b` (the literal holds `"a AND b"`)
    Between,
    /// `col IN (...)` with the given list length
    InList(u8),
    /// `col LIKE literal`
    Like,
}

impl CmpOp {
    /// SQL rendering of the operator (the literal is appended separately).
    pub fn sql(&self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Between => "BETWEEN",
            CmpOp::InList(_) => "IN",
            CmpOp::Like => "LIKE",
        }
    }
}

/// A local (single-table) filter predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// Alias of the table the predicate filters.
    pub table_alias: Name,
    /// Filtered column.
    pub column: Name,
    /// Comparison operator.
    pub op: CmpOp,
    /// Rendered literal (for SQL text and the text-based template learners).
    pub literal: Name,
    /// Selectivity the optimizer derives from catalog statistics under the
    /// uniformity assumption (e.g. `1 / ndv` for equality).
    pub sel_est: f64,
    /// The actual selectivity against the (synthetic) data — drawn by the
    /// workload generator; never visible to the estimator.
    pub sel_true: f64,
}

/// An equi-join edge between two aliases.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinEdge {
    /// Left alias.
    pub left_alias: Name,
    /// Left join column.
    pub left_col: Name,
    /// Right alias.
    pub right_alias: Name,
    /// Right join column.
    pub right_col: Name,
}

/// Aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)`
    Count,
    /// `SUM(col)`
    Sum,
    /// `AVG(col)`
    Avg,
    /// `MIN(col)`
    Min,
    /// `MAX(col)`
    Max,
}

impl AggFunc {
    /// SQL keyword.
    pub fn sql(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }
}

/// One aggregate expression in the SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    /// Function.
    pub func: AggFunc,
    /// Alias of the aggregated column's table (ignored for `COUNT(*)`).
    pub table_alias: Name,
    /// Aggregated column (ignored for `COUNT(*)`).
    pub column: Name,
}

/// A full logical query.
///
/// Cloning a spec shares its [`Name`]s: a clone allocates one buffer per
/// non-empty `Vec` and nothing per identifier or literal.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QuerySpec {
    /// Stable query id within its workload corpus.
    pub id: u64,
    /// Referenced tables.
    pub tables: Vec<TableRef>,
    /// Equi-join edges.
    pub joins: Vec<JoinEdge>,
    /// Local predicates.
    pub predicates: Vec<Predicate>,
    /// GROUP BY columns as `(alias, column)` pairs.
    pub group_by: Vec<(Name, Name)>,
    /// Aggregates in the SELECT list.
    pub aggregates: Vec<Aggregate>,
    /// ORDER BY columns as `(alias, column)` pairs.
    pub order_by: Vec<(Name, Name)>,
    /// SELECT DISTINCT.
    pub distinct: bool,
    /// LIMIT / FETCH FIRST n ROWS.
    pub limit: Option<u64>,
}

impl QuerySpec {
    /// Predicates filtering a specific alias.
    pub fn predicates_for(&self, alias: &str) -> Vec<&Predicate> {
        self.predicates.iter().filter(|p| *p.table_alias == *alias).collect()
    }

    /// Resolves an alias to its catalog table name.
    pub fn table_of_alias(&self, alias: &str) -> Option<&str> {
        self.tables.iter().find(|t| *t.alias == *alias).map(|t| &*t.table)
    }

    /// True when the query has any blocking aggregation/sorting construct.
    pub fn has_memory_operators(&self) -> bool {
        !self.group_by.is_empty()
            || !self.order_by.is_empty()
            || self.distinct
            || self.tables.len() > 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> QuerySpec {
        QuerySpec {
            id: 1,
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
                sel_true: 0.08,
            }],
            group_by: vec![("c".into(), "c_nation".into())],
            aggregates: vec![Aggregate {
                func: AggFunc::Sum,
                table_alias: "o".into(),
                column: "o_total".into(),
            }],
            order_by: vec![],
            distinct: false,
            limit: None,
        }
    }

    #[test]
    fn predicates_for_filters_by_alias() {
        let s = spec();
        assert_eq!(s.predicates_for("c").len(), 1);
        assert!(s.predicates_for("o").is_empty());
    }

    #[test]
    fn alias_resolution() {
        let s = spec();
        assert_eq!(s.table_of_alias("o"), Some("orders"));
        assert_eq!(s.table_of_alias("x"), None);
    }

    #[test]
    fn memory_operator_detection() {
        let s = spec();
        assert!(s.has_memory_operators());
        let trivial = QuerySpec { tables: vec![TableRef::plain("t")], ..QuerySpec::default() };
        assert!(!trivial.has_memory_operators());
    }

    #[test]
    fn names_print_compare_and_hash_as_strings() {
        use std::collections::hash_map::DefaultHasher;
        use std::collections::HashMap;
        use std::hash::{Hash, Hasher};

        fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        }

        let texts =
            ["", "o", "c_nation", "'CA'", "a \"quoted\" \\ name", "tab\tnew\nline", "Zürich 🦀"];
        for a in texts {
            let name = Name::from(a);
            let owned = a.to_string();
            assert_eq!(format!("{name:?}"), format!("{owned:?}"));
            assert_eq!(format!("{name}"), owned);
            assert_eq!(format!("{name:>12}|{name:<12}"), format!("{owned:>12}|{owned:<12}"));
            assert_eq!(hash_of(&name), hash_of(&owned));
            assert_eq!(hash_of(&name), hash_of(a));
            assert_eq!(&*name, a);
            assert_eq!(name, Name::from(owned.clone()));
            for b in texts {
                let other = Name::from(b);
                assert_eq!(name.cmp(&other), owned.as_str().cmp(b), "{a:?} vs {b:?}");
                assert_eq!(name == other, a == b);
            }
        }
        let map: HashMap<Name, usize> =
            texts.iter().enumerate().map(|(i, t)| ((*t).into(), i)).collect();
        assert_eq!(map.get("c_nation"), Some(&2));

        // A spec's `Debug` rendering is the one its `String` fields gave.
        let s = spec();
        let text = format!("{:?}", s.tables[0]);
        assert_eq!(text, r#"TableRef { table: "orders", alias: "o" }"#);
        let plain = TableRef::plain("orders");
        assert_eq!(format!("{plain:?}"), r#"TableRef { table: "orders", alias: "orders" }"#);
        assert_eq!(
            format!("{:?}", s.group_by),
            format!("{:?}", vec![("c".to_string(), "c_nation".to_string())])
        );
    }

    #[test]
    fn operator_sql_strings() {
        assert_eq!(CmpOp::Eq.sql(), "=");
        assert_eq!(CmpOp::Between.sql(), "BETWEEN");
        assert_eq!(CmpOp::InList(3).sql(), "IN");
        assert_eq!(CmpOp::Like.sql(), "LIKE");
        assert_eq!(AggFunc::Count.sql(), "COUNT");
        assert_eq!(AggFunc::Max.sql(), "MAX");
    }
}
