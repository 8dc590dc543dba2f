//! Property-based round-trip tests for the SQL front-end: an arbitrary
//! supported [`QuerySpec`] rendered to SQL, parsed back, and lowered against
//! the catalog must reproduce the original spec — structure, literal
//! spellings, and clause order — under every dialect. Selectivity estimates
//! are the one lossy channel (SQL text carries no statistics; lowering
//! re-derives them from the catalog), so specs are compared with the `sel_*`
//! fields and the id normalized out.

use proptest::prelude::*;

use learnedwmp::plan::query::{
    AggFunc, Aggregate, CmpOp, JoinEdge, Name, Predicate, QueryShape, QuerySpec, TableRef,
};
use learnedwmp::sql::{all_dialects, lower, parse, render_sql_dialect};

/// Per-table alias pools. Disjoint (so joins never alias-collide) and
/// deliberately spiky: reserved words, upper-case spellings, and the table's
/// own name (which exercises `AS` elision) all appear.
const LINEITEM_ALIASES: [&str; 4] = ["l", "Line", "from", "lineitem"];
const ORDERS_ALIASES: [&str; 3] = ["o", "order", "Orders2"];
const PART_ALIASES: [&str; 3] = ["p", "select", "Part"];

/// Numeric-friendly predicate columns per table index (0 = lineitem,
/// 1 = orders, 2 = part) — all exist in `wmp_workloads::tpch::catalog()`.
const PRED_COLS: [[&str; 4]; 3] = [
    ["l_quantity", "l_discount", "l_suppkey", "l_shipmode"],
    ["o_totalprice", "o_custkey", "o_orderdate", "o_orderpriority"],
    ["p_size", "p_retailprice", "p_partkey", "p_brand"],
];

#[derive(Debug, Clone)]
struct PredPick {
    table: usize,
    col: usize,
    op: usize,
    a: u32,
    b: u32,
}

fn arb_pred() -> impl Strategy<Value = PredPick> {
    (0usize..3, 0usize..4, 0usize..8, 1u32..50, 1u32..5)
        .prop_map(|(table, col, op, a, b)| PredPick { table, col, op, a, b })
}

fn build_predicate(pick: &PredPick, aliases: &[&str; 3], present: &[usize]) -> Predicate {
    // Map the pick onto a table that is actually in the FROM list.
    let table = present[pick.table % present.len()];
    let column = PRED_COLS[table][pick.col].to_string();
    let (op, literal) = match pick.op {
        0 => (CmpOp::Eq, format!("{}", pick.a)),
        1 => (CmpOp::Lt, format!("{}", pick.a)),
        2 => (CmpOp::Le, format!("{}", pick.a)),
        3 => (CmpOp::Gt, format!("{}", pick.a)),
        4 => (CmpOp::Ge, format!("'v{}'", pick.a)),
        5 => (CmpOp::Between, format!("{} AND {}", pick.a, pick.a + pick.b)),
        6 => {
            let items: Vec<String> = (0..pick.b).map(|i| format!("{}", pick.a + i)).collect();
            (CmpOp::InList(pick.b as u8), items.join(", "))
        }
        _ => (CmpOp::Like, format!("'%v{}%'", pick.a)),
    };
    Predicate {
        table_alias: aliases[table].into(),
        column: column.into(),
        op,
        literal: literal.into(),
        sel_est: 0.1,
        sel_true: 0.2,
    }
}

/// Strategy: a supported SELECT over the TPC-H catalog — lineitem, optionally
/// joined to orders and/or part, with arbitrary predicates, aggregation,
/// grouping, ordering, DISTINCT, and LIMIT.
fn arb_spec() -> impl Strategy<Value = QuerySpec> {
    (
        (any::<bool>(), any::<bool>(), 0usize..4, 0usize..3, 0usize..3),
        prop::collection::vec(arb_pred(), 0..5),
        (any::<bool>(), any::<bool>(), any::<bool>()),
        0usize..5,
        0u64..40,
        0u64..1000,
    )
        .prop_map(|(shape, preds, flags, agg_idx, limit_n, id)| {
            let (use_orders, use_part, l_alias, o_alias, p_alias) = shape;
            let (group, order, distinct) = flags;
            let aliases: [&str; 3] =
                [LINEITEM_ALIASES[l_alias], ORDERS_ALIASES[o_alias], PART_ALIASES[p_alias]];

            let mut tables = vec![TableRef::new("lineitem", aliases[0])];
            let mut joins = Vec::new();
            let mut present = vec![0usize];
            if use_orders {
                present.push(1);
                tables.push(TableRef::new("orders", aliases[1]));
                joins.push(JoinEdge {
                    left_alias: aliases[0].into(),
                    left_col: "l_orderkey".into(),
                    right_alias: aliases[1].into(),
                    right_col: "o_orderkey".into(),
                });
            }
            if use_part {
                present.push(2);
                tables.push(TableRef::new("part", aliases[2]));
                joins.push(JoinEdge {
                    left_alias: aliases[0].into(),
                    left_col: "l_partkey".into(),
                    right_alias: aliases[2].into(),
                    right_col: "p_partkey".into(),
                });
            }

            let predicates: Vec<Predicate> =
                preds.iter().map(|p| build_predicate(p, &aliases, &present)).collect();

            let group_by =
                if group { vec![(aliases[0].into(), "l_returnflag".into())] } else { vec![] };
            let aggregates = match agg_idx {
                0 => vec![],
                1 => vec![Aggregate {
                    func: AggFunc::Count,
                    table_alias: Name::default(),
                    column: Name::default(),
                }],
                2 => vec![Aggregate {
                    func: AggFunc::Sum,
                    table_alias: aliases[0].into(),
                    column: "l_quantity".into(),
                }],
                3 => vec![Aggregate {
                    func: AggFunc::Avg,
                    table_alias: aliases[0].into(),
                    column: "l_discount".into(),
                }],
                _ => vec![
                    Aggregate {
                        func: AggFunc::Min,
                        table_alias: aliases[0].into(),
                        column: "l_extendedprice".into(),
                    },
                    Aggregate {
                        func: AggFunc::Count,
                        table_alias: Name::default(),
                        column: Name::default(),
                    },
                ],
            };
            let order_by = if order && group { group_by.clone() } else { vec![] };
            let limit = if limit_n > 0 { Some(limit_n) } else { None };
            QuerySpec::new(
                id,
                QueryShape {
                    tables,
                    joins,
                    predicates,
                    group_by,
                    aggregates,
                    order_by,
                    distinct,
                    limit,
                },
            )
        })
}

/// Zeroes the fields SQL text cannot carry, so round-tripped specs compare
/// structurally.
fn normalized(mut q: QuerySpec) -> QuerySpec {
    q.id = 0;
    for p in &mut q.shape_mut().predicates {
        p.sel_est = 0.0;
        p.sel_true = 0.0;
    }
    q
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn render_parse_lower_is_lossless_under_every_dialect(spec in arb_spec()) {
        let cat = learnedwmp::workloads::tpch::catalog();
        let expected = normalized(spec.clone());
        for dialect in all_dialects() {
            let sql = render_sql_dialect(&spec, dialect);
            let stmt = parse(&sql, dialect).unwrap_or_else(|e| {
                panic!("[{}] {sql:?} failed to parse: {e}", dialect.name())
            });
            let lowered = lower(&stmt, &cat).unwrap_or_else(|e| {
                panic!("[{}] {sql:?} failed to lower: {e}", dialect.name())
            });
            let got = normalized(lowered);
            prop_assert!(
                got == expected,
                "round trip diverged under {} for {sql:?}: got {got:?}, want {expected:?}",
                dialect.name()
            );
        }
    }

    #[test]
    fn round_tripped_specs_still_plan(spec in arb_spec()) {
        // The lowered spec is not just structurally faithful — it is a valid
        // input to the rest of the pipeline.
        let cat = learnedwmp::workloads::tpch::catalog();
        let dialect = all_dialects()[0];
        let sql = render_sql_dialect(&spec, dialect);
        let lowered = learnedwmp::sql::parse_to_spec(&sql, dialect, &cat).expect("round trip");
        let planner = learnedwmp::plan::Planner::new(&cat);
        let plan = planner.plan(&lowered).expect("lowered specs plan");
        let sim = learnedwmp::sim::ExecutorSimulator::new();
        prop_assert!(sim.peak_memory_mb(&plan, lowered.id) > 0.0);
    }
}
