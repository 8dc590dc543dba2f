//! Logical query specification — the `e` (expression) of the paper's query
//! triple `q = (e, p, m)`. A [`QuerySpec`] carries both the *visible*
//! statistics-based selectivity of each predicate and the *hidden* true
//! selectivity drawn by the workload generator from the data model.
//!
//! Every identifier and literal is a [`Name`]: a shared, immutable string.
//! A spec's structure is a [`QueryShape`] held behind one `Arc`, so cloning
//! a spec (or a record that holds one) bumps one reference count and copies
//! nothing else.

use std::fmt;
use std::ops::Deref;
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

/// The structure of a logical query: what [`QuerySpec`] shares between
/// its clones. Producers build a shape and wrap it once with
/// [`QuerySpec::new`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryShape {
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

impl QueryShape {
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

/// A full logical query: an id and a shared [`QueryShape`], read through
/// `Deref` (`spec.tables`, `spec.predicates_for(..)`).
///
/// Cloning or dropping a spec costs one reference count: clones share the
/// shape. An edit goes through [`QuerySpec::shape_mut`], which copies the
/// shape first when another clone shares it.
#[derive(Clone, PartialEq, Default)]
pub struct QuerySpec {
    /// Stable query id within its workload corpus.
    pub id: u64,
    shape: Arc<QueryShape>,
}

impl QuerySpec {
    /// Wraps `shape` as the query numbered `id`.
    pub fn new(id: u64, shape: QueryShape) -> Self {
        QuerySpec { id, shape: Arc::new(shape) }
    }

    /// The shape for editing, copied first when another clone shares it
    /// (copy on write), so no other spec sees the edit.
    pub fn shape_mut(&mut self) -> &mut QueryShape {
        Arc::make_mut(&mut self.shape)
    }
}

impl Deref for QuerySpec {
    type Target = QueryShape;

    fn deref(&self) -> &QueryShape {
        &self.shape
    }
}

/// Prints the spec flat, as if the shape's fields were its own:
/// `QuerySpec { id: .., tables: .., .. }`. The SQL golden digests hash
/// this form, so it must not show the `Arc`.
impl fmt::Debug for QuerySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = &*self.shape;
        f.debug_struct("QuerySpec")
            .field("id", &self.id)
            .field("tables", &s.tables)
            .field("joins", &s.joins)
            .field("predicates", &s.predicates)
            .field("group_by", &s.group_by)
            .field("aggregates", &s.aggregates)
            .field("order_by", &s.order_by)
            .field("distinct", &s.distinct)
            .field("limit", &s.limit)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> QuerySpec {
        QuerySpec::new(
            1,
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
            },
        )
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
        let trivial = QuerySpec::new(
            0,
            QueryShape { tables: vec![TableRef::plain("t")], ..QueryShape::default() },
        );
        assert!(!trivial.has_memory_operators());
    }

    #[test]
    fn clones_share_one_shape() {
        let s = spec();
        let copy = s.clone();
        assert!(Arc::ptr_eq(&s.shape, &copy.shape));
        assert_eq!(copy, s);
        let mut renumbered = s.clone();
        renumbered.id = 9;
        assert!(Arc::ptr_eq(&s.shape, &renumbered.shape), "an id edit copies nothing");
    }

    #[test]
    fn shape_mut_copies_a_shared_shape_on_write() {
        let original = spec();
        let before = format!("{original:?}");
        let mut edited = original.clone();
        edited.shape_mut().predicates.clear();
        edited.shape_mut().limit = Some(5);
        assert!(!Arc::ptr_eq(&original.shape, &edited.shape));
        assert_eq!(format!("{original:?}"), before);
        assert_eq!(original, spec());
        assert!(edited.predicates.is_empty() && edited.limit == Some(5));

        // A sole owner edits in place.
        let mut sole = spec();
        let at = Arc::as_ptr(&sole.shape);
        sole.shape_mut().distinct = true;
        assert_eq!(Arc::as_ptr(&sole.shape), at);
    }

    #[test]
    fn debug_prints_the_flat_derived_form() {
        /// The spec as one flat struct with a derived `Debug`: the
        /// reference form.
        mod flat {
            use super::super::{Aggregate, JoinEdge, Name, Predicate, TableRef};

            #[derive(Debug)]
            #[allow(dead_code)] // the fields are read only by the derived `Debug`
            pub struct QuerySpec {
                pub id: u64,
                pub tables: Vec<TableRef>,
                pub joins: Vec<JoinEdge>,
                pub predicates: Vec<Predicate>,
                pub group_by: Vec<(Name, Name)>,
                pub aggregates: Vec<Aggregate>,
                pub order_by: Vec<(Name, Name)>,
                pub distinct: bool,
                pub limit: Option<u64>,
            }
        }

        let mut s = spec();
        s.id = 42;
        s.shape_mut().order_by = vec![("o".into(), "o_total".into())];
        s.shape_mut().distinct = true;
        s.shape_mut().limit = Some(10);
        let flat = flat::QuerySpec {
            id: s.id,
            tables: s.tables.clone(),
            joins: s.joins.clone(),
            predicates: s.predicates.clone(),
            group_by: s.group_by.clone(),
            aggregates: s.aggregates.clone(),
            order_by: s.order_by.clone(),
            distinct: s.distinct,
            limit: s.limit,
        };
        assert_eq!(format!("{s:?}"), format!("{flat:?}"));
        assert_eq!(format!("{s:#?}"), format!("{flat:#?}"));
        assert!(format!("{s:?}").starts_with("QuerySpec { id: 42, tables: ["));
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
