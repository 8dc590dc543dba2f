//! TPC-H-style analytic workload generator, routed through SQL *text*.
//!
//! Unlike the other generators (which hand their [`QuerySpec`]s straight to
//! the planner), TPC-H exercises the full ingestion path a production
//! deployment would use: each instantiated template is rendered to SQL,
//! parsed back by `wmp_sql`, and lowered against the catalog — so the
//! text front-end is on the hot path of an entire benchmark, not just in
//! tests. The generator's hidden-truth selectivities are grafted back onto
//! the lowered spec (predicate order survives the round trip), keeping the
//! memory labels honest while the *structure* of every query provably
//! survives render → parse → lower.
//!
//! The 22 templates follow the TPC-H query suite, restricted to the SELECT
//! subset the plan model covers: correlated/EXISTS/scalar subqueries are
//! replaced by their driving join + filter shape (the memory-relevant part),
//! and CASE projections are dropped. Q7's two `nation` bindings keep the
//! multi-alias path honest.

use rand::rngs::StdRng;
use rand::SeedableRng;

use wmp_plan::error::PlanResult;
use wmp_plan::query::{
    AggFunc, Aggregate, CmpOp, JoinEdge, Name, Predicate, QueryShape, QuerySpec, TableRef,
};
use wmp_plan::schema::{Column, ColumnType, Distribution, Table};
use wmp_plan::Catalog;
use wmp_sql::{parse_to_spec, render_sql_dialect, Ansi};

use crate::log::{build_log, QueryLog};
use crate::params::{draw_eq, draw_in, draw_like, draw_range, literal_for};

/// Number of query templates (the full TPC-H suite).
pub const N_TEMPLATES: usize = 22;

/// Default corpus size: 100 query streams of the 22-template suite.
pub const DEFAULT_QUERY_COUNT: usize = 2_200;

/// Template names in template-id order (`q1` … `q22`).
pub const TEMPLATE_NAMES: [&str; N_TEMPLATES] = [
    "q1_pricing_summary",
    "q2_minimum_cost_supplier",
    "q3_shipping_priority",
    "q4_order_priority",
    "q5_local_supplier_volume",
    "q6_forecasting_revenue",
    "q7_volume_shipping",
    "q8_national_market_share",
    "q9_product_type_profit",
    "q10_returned_items",
    "q11_important_stock",
    "q12_shipping_modes",
    "q13_customer_distribution",
    "q14_promotion_effect",
    "q15_top_supplier",
    "q16_parts_supplier_relation",
    "q17_small_quantity_revenue",
    "q18_large_volume_customer",
    "q19_discounted_revenue",
    "q20_potential_promotion",
    "q21_suppliers_kept_waiting",
    "q22_global_sales_opportunity",
];

/// Builds the 8-table TPC-H catalog at a reduced scale (lineitem ≈ 1.2M
/// rows), with the spec's key structure and a few skewed columns.
pub fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    cat.add_table(Table::new(
        "region",
        5,
        vec![
            Column::new("r_regionkey", ColumnType::Int, 5),
            Column::new("r_name", ColumnType::Varchar(25), 5),
        ],
    ));
    cat.add_table(Table::new(
        "nation",
        25,
        vec![
            Column::new("n_nationkey", ColumnType::Int, 25),
            Column::new("n_name", ColumnType::Varchar(25), 25),
            Column::new("n_regionkey", ColumnType::Int, 5),
        ],
    ));
    cat.add_table(Table::new(
        "supplier",
        2_000,
        vec![
            Column::new("s_suppkey", ColumnType::Int, 2_000),
            Column::new("s_name", ColumnType::Varchar(25), 2_000),
            Column::new("s_nationkey", ColumnType::Int, 25),
            Column::new("s_acctbal", ColumnType::Decimal, 2_000),
        ],
    ));
    cat.add_table(Table::new(
        "customer",
        30_000,
        vec![
            Column::new("c_custkey", ColumnType::Int, 30_000),
            Column::new("c_name", ColumnType::Varchar(25), 30_000),
            Column::new("c_nationkey", ColumnType::Int, 25),
            Column::new("c_acctbal", ColumnType::Decimal, 25_000),
            Column::new("c_mktsegment", ColumnType::Char(10), 5),
        ],
    ));
    cat.add_table(Table::new(
        "part",
        40_000,
        vec![
            Column::new("p_partkey", ColumnType::Int, 40_000),
            Column::new("p_name", ColumnType::Varchar(55), 39_000),
            Column::new("p_brand", ColumnType::Char(10), 25),
            Column::new("p_type", ColumnType::Varchar(25), 150)
                .with_distribution(Distribution::Zipf(1.1)),
            Column::new("p_size", ColumnType::Int, 50),
            Column::new("p_container", ColumnType::Char(10), 40),
            Column::new("p_retailprice", ColumnType::Decimal, 20_000),
        ],
    ));
    cat.add_table(Table::new(
        "partsupp",
        160_000,
        vec![
            Column::new("ps_partkey", ColumnType::Int, 40_000),
            Column::new("ps_suppkey", ColumnType::Int, 2_000),
            Column::new("ps_availqty", ColumnType::Int, 10_000),
            Column::new("ps_supplycost", ColumnType::Decimal, 100_000),
        ],
    ));
    cat.add_table(Table::new(
        "orders",
        300_000,
        vec![
            Column::new("o_orderkey", ColumnType::Int, 300_000),
            Column::new("o_custkey", ColumnType::Int, 30_000),
            Column::new("o_orderdate", ColumnType::Date, 2_400),
            Column::new("o_orderpriority", ColumnType::Char(15), 5),
            Column::new("o_totalprice", ColumnType::Decimal, 250_000),
        ],
    ));
    cat.add_table(Table::new(
        "lineitem",
        1_200_000,
        vec![
            Column::new("l_orderkey", ColumnType::Int, 300_000),
            Column::new("l_partkey", ColumnType::Int, 40_000),
            Column::new("l_suppkey", ColumnType::Int, 2_000),
            Column::new("l_quantity", ColumnType::Int, 50),
            Column::new("l_extendedprice", ColumnType::Decimal, 500_000),
            Column::new("l_discount", ColumnType::Decimal, 11),
            Column::new("l_returnflag", ColumnType::Char(1), 3),
            Column::new("l_linestatus", ColumnType::Char(1), 2),
            Column::new("l_shipdate", ColumnType::Date, 2_400),
            Column::new("l_receiptdate", ColumnType::Date, 2_400),
            Column::new("l_shipmode", ColumnType::Char(10), 7)
                .with_distribution(Distribution::Zipf(0.8)),
        ],
    ));

    for (t, c, unique) in [
        ("region", "r_regionkey", true),
        ("nation", "n_nationkey", true),
        ("supplier", "s_suppkey", true),
        ("customer", "c_custkey", true),
        ("part", "p_partkey", true),
        ("partsupp", "ps_partkey", false),
        ("partsupp", "ps_suppkey", false),
        ("orders", "o_orderkey", true),
        ("orders", "o_custkey", false),
        ("lineitem", "l_orderkey", false),
        ("lineitem", "l_partkey", false),
        ("lineitem", "l_suppkey", false),
    ] {
        cat.add_index(t, c, unique);
    }
    // Ship dates correlate with receipt dates, and order dates with ship
    // dates across the join — the classic TPC-H estimator traps.
    cat.correlations.set_predicate_correlation("lineitem", "l_shipdate", "l_receiptdate", 0.8);
    cat.correlations.set_predicate_correlation("lineitem", "l_shipdate", "l_shipmode", 0.3);
    cat
}

/// A single-sided range predicate (`<`, `<=`, `>`, `>=`) spanning roughly
/// `frac` of the domain.
fn one_sided(alias: &str, col: &Column, op: CmpOp, frac: f64, rng: &mut StdRng) -> Predicate {
    let mut p = draw_range(alias, col, frac, rng);
    p.op = op;
    p.literal = literal_for(col, rng).into();
    p
}

fn join(l: &str, lc: &str, r: &str, rc: &str) -> JoinEdge {
    JoinEdge {
        left_alias: l.into(),
        left_col: lc.into(),
        right_alias: r.into(),
        right_col: rc.into(),
    }
}

fn agg(func: AggFunc, alias: &str, column: &str) -> Aggregate {
    Aggregate { func, table_alias: alias.into(), column: column.into() }
}

fn count_star() -> Aggregate {
    Aggregate { func: AggFunc::Count, table_alias: Name::default(), column: Name::default() }
}

fn by(alias: &str, col: &str) -> (Name, Name) {
    (alias.into(), col.into())
}

/// Instantiates one query from template `template` (0-based, `q{t+1}`).
pub fn instantiate(cat: &Catalog, template: usize, id: u64, rng: &mut StdRng) -> QuerySpec {
    let col = |t: &str, c: &str| cat.column(t, c).expect("catalog column").1;
    let t = |name: &str, alias: &str| TableRef::new(name, alias);
    let mut q = QueryShape::default();
    match template {
        0 => {
            // Q1: pricing summary report over almost all of lineitem.
            q.tables = vec![t("lineitem", "l")];
            q.predicates =
                vec![one_sided("l", col("lineitem", "l_shipdate"), CmpOp::Le, 0.95, rng)];
            q.group_by = vec![by("l", "l_returnflag"), by("l", "l_linestatus")];
            q.aggregates = vec![
                agg(AggFunc::Sum, "l", "l_extendedprice"),
                agg(AggFunc::Sum, "l", "l_discount"),
                agg(AggFunc::Avg, "l", "l_quantity"),
                count_star(),
            ];
            q.order_by = vec![by("l", "l_returnflag"), by("l", "l_linestatus")];
        }
        1 => {
            // Q2: minimum-cost supplier (subquery flattened to its join core).
            q.tables = vec![
                t("part", "p"),
                t("partsupp", "ps"),
                t("supplier", "s"),
                t("nation", "n"),
                t("region", "r"),
            ];
            q.joins = vec![
                join("p", "p_partkey", "ps", "ps_partkey"),
                join("ps", "ps_suppkey", "s", "s_suppkey"),
                join("s", "s_nationkey", "n", "n_nationkey"),
                join("n", "n_regionkey", "r", "r_regionkey"),
            ];
            q.predicates = vec![
                draw_eq("p", col("part", "p_size"), rng),
                draw_like("p", col("part", "p_type"), rng),
                draw_eq("r", col("region", "r_name"), rng),
            ];
            q.group_by = vec![by("p", "p_partkey")];
            q.aggregates = vec![agg(AggFunc::Min, "ps", "ps_supplycost")];
            q.order_by = vec![by("p", "p_partkey")];
            q.limit = Some(100);
        }
        2 => {
            // Q3: shipping priority.
            q.tables = vec![t("customer", "c"), t("orders", "o"), t("lineitem", "l")];
            q.joins = vec![
                join("c", "c_custkey", "o", "o_custkey"),
                join("o", "o_orderkey", "l", "l_orderkey"),
            ];
            q.predicates = vec![
                draw_eq("c", col("customer", "c_mktsegment"), rng),
                one_sided("o", col("orders", "o_orderdate"), CmpOp::Lt, 0.5, rng),
                one_sided("l", col("lineitem", "l_shipdate"), CmpOp::Gt, 0.5, rng),
            ];
            q.group_by = vec![by("o", "o_orderkey")];
            q.aggregates = vec![agg(AggFunc::Sum, "l", "l_extendedprice")];
            q.order_by = vec![by("o", "o_orderkey")];
            q.limit = Some(10);
        }
        3 => {
            // Q4: order priority checking (EXISTS replaced by the join).
            q.tables = vec![t("orders", "o"), t("lineitem", "l")];
            q.joins = vec![join("o", "o_orderkey", "l", "l_orderkey")];
            q.predicates = vec![
                draw_range("o", col("orders", "o_orderdate"), 0.07, rng),
                draw_range("l", col("lineitem", "l_receiptdate"), 0.25, rng),
            ];
            q.group_by = vec![by("o", "o_orderpriority")];
            q.aggregates = vec![count_star()];
            q.order_by = vec![by("o", "o_orderpriority")];
        }
        4 => {
            // Q5: local supplier volume (6-way join).
            q.tables = vec![
                t("customer", "c"),
                t("orders", "o"),
                t("lineitem", "l"),
                t("supplier", "s"),
                t("nation", "n"),
                t("region", "r"),
            ];
            q.joins = vec![
                join("c", "c_custkey", "o", "o_custkey"),
                join("o", "o_orderkey", "l", "l_orderkey"),
                join("l", "l_suppkey", "s", "s_suppkey"),
                join("s", "s_nationkey", "n", "n_nationkey"),
                join("n", "n_regionkey", "r", "r_regionkey"),
            ];
            q.predicates = vec![
                draw_eq("r", col("region", "r_name"), rng),
                draw_range("o", col("orders", "o_orderdate"), 0.16, rng),
            ];
            q.group_by = vec![by("n", "n_name")];
            q.aggregates = vec![agg(AggFunc::Sum, "l", "l_extendedprice")];
            q.order_by = vec![by("n", "n_name")];
        }
        5 => {
            // Q6: forecasting revenue change — scan + aggregate, no join.
            q.tables = vec![t("lineitem", "l")];
            q.predicates = vec![
                draw_range("l", col("lineitem", "l_shipdate"), 0.16, rng),
                draw_range("l", col("lineitem", "l_discount"), 0.27, rng),
                one_sided("l", col("lineitem", "l_quantity"), CmpOp::Lt, 0.5, rng),
            ];
            q.aggregates = vec![agg(AggFunc::Sum, "l", "l_extendedprice")];
        }
        6 => {
            // Q7: volume shipping between two nations (nation bound twice).
            q.tables = vec![
                t("supplier", "s"),
                t("lineitem", "l"),
                t("orders", "o"),
                t("customer", "c"),
                t("nation", "n1"),
                t("nation", "n2"),
            ];
            q.joins = vec![
                join("s", "s_suppkey", "l", "l_suppkey"),
                join("o", "o_orderkey", "l", "l_orderkey"),
                join("c", "c_custkey", "o", "o_custkey"),
                join("s", "s_nationkey", "n1", "n_nationkey"),
                join("c", "c_nationkey", "n2", "n_nationkey"),
            ];
            q.predicates = vec![
                draw_eq("n1", col("nation", "n_name"), rng),
                draw_eq("n2", col("nation", "n_name"), rng),
                draw_range("l", col("lineitem", "l_shipdate"), 0.3, rng),
            ];
            q.group_by = vec![by("n1", "n_name")];
            q.aggregates = vec![agg(AggFunc::Sum, "l", "l_extendedprice")];
            q.order_by = vec![by("n1", "n_name")];
        }
        7 => {
            // Q8: national market share.
            q.tables = vec![
                t("part", "p"),
                t("lineitem", "l"),
                t("supplier", "s"),
                t("orders", "o"),
                t("customer", "c"),
                t("nation", "n"),
                t("region", "r"),
            ];
            q.joins = vec![
                join("p", "p_partkey", "l", "l_partkey"),
                join("s", "s_suppkey", "l", "l_suppkey"),
                join("l", "l_orderkey", "o", "o_orderkey"),
                join("o", "o_custkey", "c", "c_custkey"),
                join("c", "c_nationkey", "n", "n_nationkey"),
                join("n", "n_regionkey", "r", "r_regionkey"),
            ];
            q.predicates = vec![
                draw_eq("r", col("region", "r_name"), rng),
                draw_range("o", col("orders", "o_orderdate"), 0.33, rng),
                draw_eq("p", col("part", "p_type"), rng),
            ];
            q.group_by = vec![by("o", "o_orderdate")];
            q.aggregates = vec![agg(AggFunc::Sum, "l", "l_extendedprice")];
            q.order_by = vec![by("o", "o_orderdate")];
        }
        8 => {
            // Q9: product type profit measure.
            q.tables = vec![
                t("part", "p"),
                t("supplier", "s"),
                t("lineitem", "l"),
                t("partsupp", "ps"),
                t("orders", "o"),
                t("nation", "n"),
            ];
            q.joins = vec![
                join("s", "s_suppkey", "l", "l_suppkey"),
                join("ps", "ps_suppkey", "l", "l_suppkey"),
                join("ps", "ps_partkey", "l", "l_partkey"),
                join("p", "p_partkey", "l", "l_partkey"),
                join("o", "o_orderkey", "l", "l_orderkey"),
                join("s", "s_nationkey", "n", "n_nationkey"),
            ];
            q.predicates = vec![draw_like("p", col("part", "p_name"), rng)];
            q.group_by = vec![by("n", "n_name")];
            q.aggregates = vec![agg(AggFunc::Sum, "l", "l_extendedprice")];
            q.order_by = vec![by("n", "n_name")];
        }
        9 => {
            // Q10: returned-item reporting.
            q.tables =
                vec![t("customer", "c"), t("orders", "o"), t("lineitem", "l"), t("nation", "n")];
            q.joins = vec![
                join("c", "c_custkey", "o", "o_custkey"),
                join("o", "o_orderkey", "l", "l_orderkey"),
                join("c", "c_nationkey", "n", "n_nationkey"),
            ];
            q.predicates = vec![
                draw_eq("l", col("lineitem", "l_returnflag"), rng),
                draw_range("o", col("orders", "o_orderdate"), 0.08, rng),
            ];
            q.group_by = vec![by("c", "c_custkey")];
            q.aggregates = vec![agg(AggFunc::Sum, "l", "l_extendedprice")];
            q.order_by = vec![by("c", "c_custkey")];
            q.limit = Some(20);
        }
        10 => {
            // Q11: important stock identification.
            q.tables = vec![t("partsupp", "ps"), t("supplier", "s"), t("nation", "n")];
            q.joins = vec![
                join("ps", "ps_suppkey", "s", "s_suppkey"),
                join("s", "s_nationkey", "n", "n_nationkey"),
            ];
            q.predicates = vec![draw_eq("n", col("nation", "n_name"), rng)];
            q.group_by = vec![by("ps", "ps_partkey")];
            q.aggregates = vec![agg(AggFunc::Sum, "ps", "ps_supplycost")];
            q.order_by = vec![by("ps", "ps_partkey")];
            q.limit = Some(100);
        }
        11 => {
            // Q12: shipping-mode and order-priority.
            q.tables = vec![t("orders", "o"), t("lineitem", "l")];
            q.joins = vec![join("o", "o_orderkey", "l", "l_orderkey")];
            q.predicates = vec![
                draw_in("l", col("lineitem", "l_shipmode"), 2, rng),
                draw_range("l", col("lineitem", "l_receiptdate"), 0.16, rng),
            ];
            q.group_by = vec![by("l", "l_shipmode")];
            q.aggregates = vec![count_star()];
            q.order_by = vec![by("l", "l_shipmode")];
        }
        12 => {
            // Q13: customer order distribution (outer join approximated).
            q.tables = vec![t("customer", "c"), t("orders", "o")];
            q.joins = vec![join("c", "c_custkey", "o", "o_custkey")];
            q.group_by = vec![by("c", "c_custkey")];
            q.aggregates = vec![agg(AggFunc::Count, "o", "o_orderkey")];
            q.order_by = vec![by("c", "c_custkey")];
            q.limit = Some(100);
        }
        13 => {
            // Q14: promotion effect.
            q.tables = vec![t("lineitem", "l"), t("part", "p")];
            q.joins = vec![join("l", "l_partkey", "p", "p_partkey")];
            q.predicates = vec![draw_range("l", col("lineitem", "l_shipdate"), 0.014, rng)];
            q.aggregates = vec![agg(AggFunc::Sum, "l", "l_extendedprice")];
        }
        14 => {
            // Q15: top supplier (view body inlined).
            q.tables = vec![t("lineitem", "l"), t("supplier", "s")];
            q.joins = vec![join("l", "l_suppkey", "s", "s_suppkey")];
            q.predicates = vec![draw_range("l", col("lineitem", "l_shipdate"), 0.04, rng)];
            q.group_by = vec![by("s", "s_suppkey")];
            q.aggregates = vec![agg(AggFunc::Sum, "l", "l_extendedprice")];
            q.order_by = vec![by("s", "s_suppkey")];
        }
        15 => {
            // Q16: parts/supplier relationship.
            q.tables = vec![t("partsupp", "ps"), t("part", "p")];
            q.joins = vec![join("p", "p_partkey", "ps", "ps_partkey")];
            q.predicates = vec![
                draw_eq("p", col("part", "p_brand"), rng),
                draw_in("p", col("part", "p_size"), 8, rng),
            ];
            q.distinct = true;
            q.group_by = vec![by("p", "p_brand")];
            q.aggregates = vec![agg(AggFunc::Count, "ps", "ps_suppkey")];
            q.order_by = vec![by("p", "p_brand")];
        }
        16 => {
            // Q17: small-quantity-order revenue.
            q.tables = vec![t("lineitem", "l"), t("part", "p")];
            q.joins = vec![join("p", "p_partkey", "l", "l_partkey")];
            q.predicates = vec![
                draw_eq("p", col("part", "p_brand"), rng),
                draw_eq("p", col("part", "p_container"), rng),
                one_sided("l", col("lineitem", "l_quantity"), CmpOp::Lt, 0.2, rng),
            ];
            q.aggregates = vec![agg(AggFunc::Avg, "l", "l_extendedprice")];
        }
        17 => {
            // Q18: large-volume customer.
            q.tables = vec![t("customer", "c"), t("orders", "o"), t("lineitem", "l")];
            q.joins = vec![
                join("c", "c_custkey", "o", "o_custkey"),
                join("o", "o_orderkey", "l", "l_orderkey"),
            ];
            q.predicates =
                vec![one_sided("o", col("orders", "o_totalprice"), CmpOp::Gt, 0.02, rng)];
            q.group_by = vec![by("o", "o_orderkey")];
            q.aggregates = vec![agg(AggFunc::Sum, "l", "l_quantity")];
            q.order_by = vec![by("o", "o_orderkey")];
            q.limit = Some(100);
        }
        18 => {
            // Q19: discounted revenue (OR arms folded into one conjunct set).
            q.tables = vec![t("lineitem", "l"), t("part", "p")];
            q.joins = vec![join("p", "p_partkey", "l", "l_partkey")];
            q.predicates = vec![
                draw_eq("p", col("part", "p_brand"), rng),
                draw_in("p", col("part", "p_container"), 4, rng),
                draw_range("l", col("lineitem", "l_quantity"), 0.2, rng),
            ];
            q.aggregates = vec![agg(AggFunc::Sum, "l", "l_extendedprice")];
        }
        19 => {
            // Q20: potential part promotion (nested INs flattened).
            q.tables =
                vec![t("supplier", "s"), t("nation", "n"), t("partsupp", "ps"), t("part", "p")];
            q.joins = vec![
                join("s", "s_nationkey", "n", "n_nationkey"),
                join("ps", "ps_suppkey", "s", "s_suppkey"),
                join("ps", "ps_partkey", "p", "p_partkey"),
            ];
            q.predicates = vec![
                draw_eq("n", col("nation", "n_name"), rng),
                draw_like("p", col("part", "p_name"), rng),
            ];
            q.distinct = true;
            q.order_by = vec![by("s", "s_name")];
        }
        20 => {
            // Q21: suppliers who kept orders waiting.
            q.tables =
                vec![t("supplier", "s"), t("lineitem", "l"), t("orders", "o"), t("nation", "n")];
            q.joins = vec![
                join("s", "s_suppkey", "l", "l_suppkey"),
                join("o", "o_orderkey", "l", "l_orderkey"),
                join("s", "s_nationkey", "n", "n_nationkey"),
            ];
            q.predicates = vec![
                draw_eq("n", col("nation", "n_name"), rng),
                draw_eq("o", col("orders", "o_orderpriority"), rng),
            ];
            q.group_by = vec![by("s", "s_name")];
            q.aggregates = vec![count_star()];
            q.order_by = vec![by("s", "s_name")];
            q.limit = Some(100);
        }
        _ => {
            // Q22: global sales opportunity (substring subquery dropped).
            q.tables = vec![t("customer", "c")];
            q.predicates = vec![
                one_sided("c", col("customer", "c_acctbal"), CmpOp::Gt, 0.1, rng),
                draw_in("c", col("customer", "c_nationkey"), 7, rng),
            ];
            q.group_by = vec![by("c", "c_nationkey")];
            q.aggregates = vec![count_star(), agg(AggFunc::Sum, "c", "c_acctbal")];
            q.order_by = vec![by("c", "c_nationkey")];
        }
    }
    QuerySpec::new(id, q)
}

/// Renders `spec` to SQL, parses it back, lowers it against `cat`, and
/// grafts the generator's hidden-truth selectivities onto the lowered spec.
///
/// # Panics
/// When the round trip fails or changes the number of predicates — both are
/// template/renderer bugs, not data errors.
pub fn roundtrip_through_sql(cat: &Catalog, spec: &QuerySpec) -> QuerySpec {
    let sql = render_sql_dialect(spec, &Ansi);
    let mut lowered = parse_to_spec(&sql, &Ansi, cat)
        .unwrap_or_else(|e| panic!("TPC-H SQL round trip failed for {sql:?}: {e}"));
    assert_eq!(
        lowered.predicates.len(),
        spec.predicates.len(),
        "round trip changed the predicate count for {sql:?}"
    );
    for (l, o) in lowered.shape_mut().predicates.iter_mut().zip(&spec.predicates) {
        l.sel_est = o.sel_est;
        l.sel_true = o.sel_true;
    }
    lowered.id = spec.id;
    lowered
}

/// Generates a TPC-H-style query log of `n` statements: round-robin query
/// streams over the 22 templates (as the official throughput test runs
/// them), each routed through SQL text via [`roundtrip_through_sql`].
///
/// # Errors
/// Propagates planning errors (which would indicate a template/catalog bug).
pub fn generate(n: usize, seed: u64) -> PlanResult<QueryLog> {
    let cat = catalog();
    let mut specs = Vec::with_capacity(n);
    for i in 0..n {
        let mut rng = StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let template = i % N_TEMPLATES;
        let spec = instantiate(&cat, template, i as u64, &mut rng);
        specs.push((roundtrip_through_sql(&cat, &spec), template));
    }
    build_log("tpch", cat, specs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmp_sql::{all_dialects, render_sql_dialect};

    #[test]
    fn catalog_has_eight_tables() {
        let cat = catalog();
        assert_eq!(cat.tables().len(), 8);
        assert!(cat.has_index("lineitem", "l_orderkey"));
        assert_eq!(cat.table("lineitem").unwrap().row_count, 1_200_000);
    }

    #[test]
    fn every_template_survives_the_sql_round_trip_exactly() {
        let cat = catalog();
        for (t, name) in TEMPLATE_NAMES.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(t as u64);
            let spec = instantiate(&cat, t, t as u64, &mut rng);
            let lowered = roundtrip_through_sql(&cat, &spec);
            assert_eq!(lowered, spec, "template {name} is not lossless through SQL");
        }
    }

    #[test]
    fn every_template_parses_under_every_dialect() {
        let cat = catalog();
        for (t, name) in TEMPLATE_NAMES.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(100 + t as u64);
            let spec = instantiate(&cat, t, t as u64, &mut rng);
            for d in all_dialects() {
                let sql = render_sql_dialect(&spec, d);
                parse_to_spec(&sql, d, &cat)
                    .unwrap_or_else(|e| panic!("{name} under {}: {e}\n{sql}", d.name()));
            }
        }
    }

    #[test]
    fn every_template_plans_successfully() {
        let cat = catalog();
        let planner = wmp_plan::Planner::new(&cat);
        for (t, name) in TEMPLATE_NAMES.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(200 + t as u64);
            let spec = roundtrip_through_sql(&cat, &instantiate(&cat, t, t as u64, &mut rng));
            planner.plan(&spec).unwrap_or_else(|e| panic!("template {name} failed: {e}"));
        }
    }

    #[test]
    fn generation_is_deterministic_and_covers_all_templates() {
        let a = generate(44, 7).unwrap();
        let b = generate(44, 7).unwrap();
        assert_eq!(a.len(), 44);
        assert_eq!(
            a.records.iter().map(|r| r.true_memory_mb()).sum::<f64>(),
            b.records.iter().map(|r| r.true_memory_mb()).sum::<f64>()
        );
        let hints: std::collections::HashSet<usize> =
            a.records.iter().map(|r| r.template_hint).collect();
        assert_eq!(hints.len(), N_TEMPLATES, "round-robin streams cover the suite");
    }

    #[test]
    fn analytic_memory_dwarfs_oltp() {
        // TPC-C's point lookups sit near 0.1 MB; TPC-H's joins and sorts
        // should land orders of magnitude higher on average, with heavy
        // queries far above that.
        let log = generate(44, 3).unwrap();
        assert!(
            log.mean_true_memory_mb() > 2.0,
            "TPC-H joins and sorts should be memory-hungry, mean = {} MB",
            log.mean_true_memory_mb()
        );
        let max = log.records.iter().map(|r| r.true_memory_mb()).fold(f64::NEG_INFINITY, f64::max);
        assert!(max > 20.0, "heavy queries should spike, max = {max} MB");
    }

    #[test]
    fn tpch_cpu_and_io_labels_scale_with_the_joins() {
        let analytic = generate(44, 3).unwrap().mean_resources();
        let oltp = crate::tpcc::generate(44, 3).unwrap().mean_resources();
        assert!(analytic.cpu_ms > 5.0 * oltp.cpu_ms, "analytic {analytic} vs oltp {oltp}");
        assert!(analytic.io_pages > 5.0 * oltp.io_pages, "analytic {analytic} vs oltp {oltp}");
        assert!(analytic.memory_mb > 5.0 * oltp.memory_mb, "analytic {analytic} vs oltp {oltp}");
    }

    #[test]
    fn grafted_selectivities_keep_the_hidden_truth() {
        let cat = catalog();
        let mut rng = StdRng::seed_from_u64(11);
        let spec = instantiate(&cat, 8, 0, &mut rng); // Q9 has a LIKE
        let lowered = roundtrip_through_sql(&cat, &spec);
        for (l, o) in lowered.predicates.iter().zip(&spec.predicates) {
            assert_eq!(l.sel_est, o.sel_est);
            assert_eq!(l.sel_true, o.sel_true);
            // LIKE truths are drawn, not the parser default — grafting must
            // preserve the est/true gap the paper's error model needs.
        }
        assert!(spec.predicates.iter().any(|p| p.sel_est != p.sel_true));
    }
}
