//! TPC-C-style transactional workload generator.
//!
//! The paper's third benchmark is OLTP: 3,958 short queries drawn from the
//! five TPC-C transactions. We model the 9-table schema and decompose each
//! transaction into its constituent SELECT statements (12 statement
//! templates), sampled with the official transaction mix. Point lookups and
//! tiny sorts keep per-query memory small and tightly clustered — the
//! opposite regime from the analytic benchmarks, which is what makes the
//! paper's TPC-C sensitivity results (few templates suffice) come out.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wmp_plan::error::PlanResult;
use wmp_plan::query::{AggFunc, Aggregate, JoinEdge, QueryShape, QuerySpec, TableRef};
use wmp_plan::schema::{Column, ColumnType, Distribution, Table};
use wmp_plan::Catalog;

use crate::log::{build_log, QueryLog};
use crate::params::{draw_eq, draw_range};

/// Number of statement templates (5 transactions decomposed).
pub const N_TEMPLATES: usize = 12;

/// The paper's TPC-C corpus size.
pub const DEFAULT_QUERY_COUNT: usize = 3_958;

/// Builds the TPC-C-style catalog (9 tables, W = 100 warehouses).
pub fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    cat.add_table(Table::new(
        "warehouse",
        100,
        vec![
            Column::new("w_id", ColumnType::Int, 100),
            Column::new("w_name", ColumnType::Varchar(10), 100),
            Column::new("w_state", ColumnType::Char(2), 50),
        ],
    ));
    cat.add_table(Table::new(
        "district",
        1_000,
        vec![
            Column::new("d_id", ColumnType::Int, 1_000),
            Column::new("d_w_id", ColumnType::Int, 100),
            Column::new("d_next_o_id", ColumnType::Int, 3_000),
        ],
    ));
    cat.add_table(Table::new(
        "customer",
        300_000,
        vec![
            Column::new("c_id", ColumnType::Int, 300_000),
            Column::new("c_w_id", ColumnType::Int, 100),
            Column::new("c_d_id", ColumnType::Int, 10),
            Column::new("c_last", ColumnType::Varchar(16), 1_000)
                .with_distribution(Distribution::Zipf(1.2)),
            Column::new("c_first", ColumnType::Varchar(16), 150_000),
            Column::new("c_credit", ColumnType::Char(2), 2),
            Column::new("c_balance", ColumnType::Decimal, 100_000),
        ],
    ));
    cat.add_table(Table::new(
        "history",
        300_000,
        vec![
            Column::new("h_c_id", ColumnType::Int, 200_000),
            Column::new("h_amount", ColumnType::Decimal, 10_000),
        ],
    ));
    cat.add_table(Table::new(
        "new_order",
        90_000,
        vec![
            Column::new("no_o_id", ColumnType::Int, 90_000),
            Column::new("no_w_id", ColumnType::Int, 100),
        ],
    ));
    cat.add_table(Table::new(
        "orders",
        300_000,
        vec![
            Column::new("o_id", ColumnType::Int, 300_000),
            Column::new("o_c_id", ColumnType::Int, 100_000),
            Column::new("o_w_id", ColumnType::Int, 100),
            Column::new("o_entry_d", ColumnType::Date, 3_000),
            Column::new("o_carrier_id", ColumnType::Int, 10),
        ],
    ));
    cat.add_table(Table::new(
        "order_line",
        3_000_000,
        vec![
            Column::new("ol_o_id", ColumnType::Int, 300_000),
            Column::new("ol_w_id", ColumnType::Int, 100),
            Column::new("ol_i_id", ColumnType::Int, 100_000),
            Column::new("ol_quantity", ColumnType::Int, 10),
            Column::new("ol_amount", ColumnType::Decimal, 50_000),
            Column::new("ol_delivery_d", ColumnType::Date, 3_000),
        ],
    ));
    cat.add_table(Table::new(
        "item",
        100_000,
        vec![
            Column::new("i_id", ColumnType::Int, 100_000),
            Column::new("i_name", ColumnType::Varchar(24), 98_000),
            Column::new("i_price", ColumnType::Decimal, 9_000),
        ],
    ));
    cat.add_table(Table::new(
        "stock",
        1_000_000,
        vec![
            Column::new("s_i_id", ColumnType::Int, 100_000),
            Column::new("s_w_id", ColumnType::Int, 100),
            Column::new("s_quantity", ColumnType::Int, 100),
        ],
    ));

    for (t, c, unique) in [
        ("warehouse", "w_id", true),
        ("district", "d_id", true),
        ("customer", "c_id", true),
        ("customer", "c_last", false),
        ("new_order", "no_o_id", true),
        ("orders", "o_id", true),
        ("orders", "o_c_id", false),
        ("order_line", "ol_o_id", false),
        ("item", "i_id", true),
        ("stock", "s_i_id", false),
    ] {
        cat.add_index(t, c, unique);
    }
    // OLTP data mostly satisfies the estimator's assumptions; only customer
    // last names are skewed (per the TPC-C spec's non-uniform generator).
    cat.correlations.set_predicate_correlation("customer", "c_w_id", "c_d_id", 0.2);
    cat
}

/// Statement-template names in template-id order (diagnostics / reporting).
pub const TEMPLATE_NAMES: [&str; N_TEMPLATES] = [
    "neworder_item",
    "neworder_stock",
    "neworder_customer",
    "payment_warehouse",
    "payment_district",
    "payment_customer_by_lastname",
    "orderstatus_customer",
    "orderstatus_last_order",
    "orderstatus_order_lines",
    "delivery_oldest_new_order",
    "delivery_sum_order_lines",
    "stocklevel_recent_items",
];

/// Samples a template id following the TPC-C transaction mix (New-Order 45%,
/// Payment 43%, Order-Status 4%, Delivery 4%, Stock-Level 4%).
pub fn sample_template(rng: &mut StdRng) -> usize {
    let r: f64 = rng.gen();
    if r < 0.45 {
        rng.gen_range(0..3)
    } else if r < 0.88 {
        3 + rng.gen_range(0..3)
    } else if r < 0.92 {
        6 + rng.gen_range(0..3)
    } else if r < 0.96 {
        9 + rng.gen_range(0..2)
    } else {
        11
    }
}

/// Instantiates one statement from a template.
pub fn instantiate(cat: &Catalog, template: usize, id: u64, rng: &mut StdRng) -> QuerySpec {
    let col = |t: &str, c: &str| cat.column(t, c).expect("catalog column").1;
    let point = |t: &str, c: &str, rng: &mut StdRng| QueryShape {
        tables: vec![TableRef::plain(t)],
        predicates: vec![draw_eq(t, col(t, c), rng)],
        ..QueryShape::default()
    };
    let shape = match template {
        0 => point("item", "i_id", rng),
        1 => {
            let mut q = point("stock", "s_i_id", rng);
            q.predicates.push(draw_eq("stock", col("stock", "s_w_id"), rng));
            q
        }
        2 => point("customer", "c_id", rng),
        3 => point("warehouse", "w_id", rng),
        4 => point("district", "d_id", rng),
        5 => {
            // Customer by last name, ordered by first name (tiny sort).
            let mut q = point("customer", "c_last", rng);
            q.predicates.push(draw_eq("customer", col("customer", "c_w_id"), rng));
            q.order_by = vec![("customer".into(), "c_first".into())];
            q
        }
        6 => {
            let mut q = point("customer", "c_last", rng);
            q.order_by = vec![("customer".into(), "c_first".into())];
            q
        }
        7 => {
            // Most recent order of a customer.
            let mut q = point("orders", "o_c_id", rng);
            q.order_by = vec![("orders".into(), "o_id".into())];
            q.limit = Some(1);
            q
        }
        8 => point("order_line", "ol_o_id", rng),
        9 => QueryShape {
            tables: vec![TableRef::plain("new_order")],
            predicates: vec![draw_eq("new_order", col("new_order", "no_w_id"), rng)],
            aggregates: vec![Aggregate {
                func: AggFunc::Min,
                table_alias: "new_order".into(),
                column: "no_o_id".into(),
            }],
            ..QueryShape::default()
        },
        10 => {
            let mut q = point("order_line", "ol_o_id", rng);
            q.aggregates = vec![Aggregate {
                func: AggFunc::Sum,
                table_alias: "order_line".into(),
                column: "ol_amount".into(),
            }];
            q
        }
        _ => {
            // Stock-Level: recent order lines joined to low-stock items,
            // COUNT(DISTINCT s_i_id) — the only multi-table OLTP statement.
            QueryShape {
                tables: vec![TableRef::new("order_line", "ol"), TableRef::new("stock", "s")],
                joins: vec![JoinEdge {
                    left_alias: "ol".into(),
                    left_col: "ol_i_id".into(),
                    right_alias: "s".into(),
                    right_col: "s_i_id".into(),
                }],
                predicates: vec![
                    draw_range("ol", col("order_line", "ol_o_id"), 20.0 / 300_000.0, rng),
                    draw_range("s", col("stock", "s_quantity"), 0.1, rng),
                ],
                distinct: true,
                ..QueryShape::default()
            }
        }
    };
    QuerySpec::new(id, shape)
}

/// Generates a TPC-C-style query log of `n` statements.
///
/// # Errors
/// Propagates planning errors (which would indicate a template/catalog bug).
pub fn generate(n: usize, seed: u64) -> PlanResult<QueryLog> {
    let cat = catalog();
    let mut specs = Vec::with_capacity(n);
    for i in 0..n {
        let mut rng = StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
        let template = sample_template(&mut rng);
        specs.push((instantiate(&cat, template, i as u64, &mut rng), template));
    }
    build_log("tpcc", cat, specs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_nine_tables() {
        let cat = catalog();
        assert_eq!(cat.tables().len(), 9);
        assert!(cat.has_index("customer", "c_last"));
    }

    #[test]
    fn all_templates_plan_successfully() {
        let cat = catalog();
        let planner = wmp_plan::Planner::new(&cat);
        for (t, name) in TEMPLATE_NAMES.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(t as u64);
            let spec = instantiate(&cat, t, t as u64, &mut rng);
            planner.plan(&spec).unwrap_or_else(|e| panic!("template {name} failed: {e}"));
        }
    }

    #[test]
    fn transaction_mix_roughly_matches_spec() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; N_TEMPLATES];
        let n = 20_000;
        for _ in 0..n {
            counts[sample_template(&mut rng)] += 1;
        }
        let neworder: usize = counts[0..3].iter().sum();
        let payment: usize = counts[3..6].iter().sum();
        let stocklevel = counts[11];
        assert!((neworder as f64 / n as f64 - 0.45).abs() < 0.02);
        assert!((payment as f64 / n as f64 - 0.43).abs() < 0.02);
        assert!((stocklevel as f64 / n as f64 - 0.04).abs() < 0.01);
    }

    #[test]
    fn oltp_memory_is_small_and_tight() {
        let log = generate(400, 2).unwrap();
        assert_eq!(log.len(), 400);
        let mean = log.mean_true_memory_mb();
        assert!(mean < 20.0, "OLTP queries should be light, mean = {mean} MB");
        // Compared to the analytic benchmarks the ceiling is low too.
        let max = log.records.iter().map(|r| r.true_memory_mb()).fold(f64::NEG_INFINITY, f64::max);
        assert!(max < 300.0, "max = {max} MB");
    }

    #[test]
    fn resource_labels_are_complete_and_correlated() {
        let log = generate(400, 2).unwrap();
        for r in &log.records {
            assert!(r.resources.is_finite(), "query {}", r.id);
            assert!(r.resources.cpu_ms > 0.0, "every query burns CPU");
            assert!(r.dbms_estimate.cpu_ms > 0.0);
        }
        // CPU cost tracks memory across the log: the heaviest-memory half
        // must also be the CPU-heavier half on average (shared cardinality
        // driver).
        let mut by_mem: Vec<&crate::QueryRecord> = log.records.iter().collect();
        by_mem.sort_by(|a, b| b.true_memory_mb().partial_cmp(&a.true_memory_mb()).unwrap());
        let (heavy, light) = by_mem.split_at(by_mem.len() / 2);
        let mean_cpu = |rs: &[&crate::QueryRecord]| {
            rs.iter().map(|r| r.resources.cpu_ms).sum::<f64>() / rs.len() as f64
        };
        assert!(mean_cpu(heavy) > mean_cpu(light), "CPU correlates with memory");
    }

    #[test]
    fn point_lookups_use_index_scans() {
        let cat = catalog();
        let planner = wmp_plan::Planner::new(&cat);
        let mut rng = StdRng::seed_from_u64(5);
        let spec = instantiate(&cat, 0, 0, &mut rng); // item point lookup
        let plan = planner.plan(&spec).unwrap();
        assert_eq!(plan.op.kind(), wmp_plan::OpKind::IndexScan);
    }

    #[test]
    fn generation_is_deterministic_and_covers_templates() {
        let a = generate(500, 9).unwrap();
        let b = generate(500, 9).unwrap();
        assert_eq!(
            a.records.iter().map(|r| r.true_memory_mb()).sum::<f64>(),
            b.records.iter().map(|r| r.true_memory_mb()).sum::<f64>()
        );
        let hints: std::collections::HashSet<usize> =
            a.records.iter().map(|r| r.template_hint).collect();
        assert!(hints.len() >= 10, "most templates appear in 500 statements");
    }
}
