//! TPC-DS-style analytic workload generator.
//!
//! The paper generates 93,000 queries from the 99 TPC-DS templates. We cannot
//! ship the TPC kit, so this module builds the same *shape*: a 17-table retail
//! star schema (3 sales channels + returns + inventory + dimensions), a
//! deterministic derivation of **99 distinct query templates** (fact ×
//! dimension-subset × query shape), and parameterized instantiation with
//! realistic predicate mixes (date ranges, skewed category equalities,
//! IN-lists). This module doc is the record of that substitution.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wmp_plan::error::PlanResult;
use wmp_plan::query::{
    AggFunc, Aggregate, JoinEdge, Name, Predicate, QueryShape, QuerySpec, TableRef,
};
use wmp_plan::schema::{Column, ColumnType, Distribution, Table};
use wmp_plan::Catalog;

use crate::log::QueryLog;
use crate::params::{draw_eq, draw_in, draw_range};

/// Number of distinct query templates (matches TPC-DS's 99).
pub const N_TEMPLATES: usize = 99;

/// The paper's TPC-DS corpus size.
pub const DEFAULT_QUERY_COUNT: usize = 93_000;

/// Builds the TPC-DS-style catalog (17 tables, star schema, correlated
/// dimension attributes, skewed join edges on the date dimension).
pub fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    // Fact tables.
    cat.add_table(Table::new(
        "store_sales",
        28_800_000,
        vec![
            Column::new("ss_sold_date_sk", ColumnType::Int, 73_049),
            Column::new("ss_item_sk", ColumnType::Int, 102_000),
            Column::new("ss_customer_sk", ColumnType::Int, 500_000),
            Column::new("ss_store_sk", ColumnType::Int, 12),
            Column::new("ss_promo_sk", ColumnType::Int, 300),
            Column::new("ss_hdemo_sk", ColumnType::Int, 7_200),
            Column::new("ss_quantity", ColumnType::Int, 100),
            Column::new("ss_sales_price", ColumnType::Decimal, 200_000),
            Column::new("ss_net_profit", ColumnType::Decimal, 500_000),
        ],
    ));
    cat.add_table(Table::new(
        "catalog_sales",
        14_400_000,
        vec![
            Column::new("cs_sold_date_sk", ColumnType::Int, 73_049),
            Column::new("cs_item_sk", ColumnType::Int, 102_000),
            Column::new("cs_bill_customer_sk", ColumnType::Int, 500_000),
            Column::new("cs_warehouse_sk", ColumnType::Int, 5),
            Column::new("cs_promo_sk", ColumnType::Int, 300),
            Column::new("cs_quantity", ColumnType::Int, 100),
            Column::new("cs_sales_price", ColumnType::Decimal, 150_000),
            Column::new("cs_net_profit", ColumnType::Decimal, 400_000),
        ],
    ));
    cat.add_table(Table::new(
        "web_sales",
        7_200_000,
        vec![
            Column::new("ws_sold_date_sk", ColumnType::Int, 73_049),
            Column::new("ws_item_sk", ColumnType::Int, 102_000),
            Column::new("ws_bill_customer_sk", ColumnType::Int, 500_000),
            Column::new("ws_web_site_sk", ColumnType::Int, 30),
            Column::new("ws_promo_sk", ColumnType::Int, 300),
            Column::new("ws_quantity", ColumnType::Int, 100),
            Column::new("ws_sales_price", ColumnType::Decimal, 100_000),
            Column::new("ws_net_profit", ColumnType::Decimal, 300_000),
        ],
    ));
    cat.add_table(Table::new(
        "store_returns",
        2_880_000,
        vec![
            Column::new("sr_returned_date_sk", ColumnType::Int, 73_049),
            Column::new("sr_item_sk", ColumnType::Int, 102_000),
            Column::new("sr_customer_sk", ColumnType::Int, 500_000),
            Column::new("sr_return_amt", ColumnType::Decimal, 100_000),
        ],
    ));
    cat.add_table(Table::new(
        "inventory",
        12_000_000,
        vec![
            Column::new("inv_date_sk", ColumnType::Int, 73_049),
            Column::new("inv_item_sk", ColumnType::Int, 102_000),
            Column::new("inv_warehouse_sk", ColumnType::Int, 5),
            Column::new("inv_quantity_on_hand", ColumnType::Int, 1_000),
        ],
    ));
    // Dimensions.
    cat.add_table(Table::new(
        "date_dim",
        73_049,
        vec![
            Column::new("d_date_sk", ColumnType::Int, 73_049),
            Column::new("d_date", ColumnType::Date, 73_049),
            Column::new("d_year", ColumnType::Int, 200),
            Column::new("d_moy", ColumnType::Int, 12),
            Column::new("d_qoy", ColumnType::Int, 4),
            Column::new("d_day_name", ColumnType::Char(9), 7),
        ],
    ));
    cat.add_table(Table::new(
        "item",
        102_000,
        vec![
            Column::new("i_item_sk", ColumnType::Int, 102_000),
            Column::new("i_category", ColumnType::Char(10), 10)
                .with_distribution(Distribution::Zipf(1.2)),
            Column::new("i_brand", ColumnType::Char(20), 700)
                .with_distribution(Distribution::Zipf(1.0)),
            Column::new("i_class", ColumnType::Char(10), 100),
            Column::new("i_current_price", ColumnType::Decimal, 9_000),
            Column::new("i_manufact_id", ColumnType::Int, 2_000),
        ],
    ));
    cat.add_table(Table::new(
        "customer",
        500_000,
        vec![
            Column::new("c_customer_sk", ColumnType::Int, 500_000),
            Column::new("c_current_addr_sk", ColumnType::Int, 250_000),
            Column::new("c_birth_year", ColumnType::Int, 70),
            Column::new("c_birth_country", ColumnType::Char(20), 200)
                .with_distribution(Distribution::Zipf(1.3)),
            Column::new("c_preferred_cust_flag", ColumnType::Char(1), 2),
        ],
    ));
    cat.add_table(Table::new(
        "customer_address",
        250_000,
        vec![
            Column::new("ca_address_sk", ColumnType::Int, 250_000),
            Column::new("ca_state", ColumnType::Char(2), 51)
                .with_distribution(Distribution::Zipf(1.1)),
            Column::new("ca_city", ColumnType::Char(20), 1_000),
            Column::new("ca_country", ColumnType::Char(20), 20),
        ],
    ));
    cat.add_table(Table::new(
        "customer_demographics",
        1_000_000,
        vec![
            Column::new("cd_demo_sk", ColumnType::Int, 1_000_000),
            Column::new("cd_gender", ColumnType::Char(1), 2),
            Column::new("cd_marital_status", ColumnType::Char(1), 5),
            Column::new("cd_education_status", ColumnType::Char(15), 7),
        ],
    ));
    cat.add_table(Table::new(
        "household_demographics",
        7_200,
        vec![
            Column::new("hd_demo_sk", ColumnType::Int, 7_200),
            Column::new("hd_income_band_sk", ColumnType::Int, 20),
            Column::new("hd_buy_potential", ColumnType::Char(15), 6),
        ],
    ));
    cat.add_table(Table::new(
        "store",
        12,
        vec![
            Column::new("s_store_sk", ColumnType::Int, 12),
            Column::new("s_state", ColumnType::Char(2), 10),
            Column::new("s_city", ColumnType::Char(20), 12),
        ],
    ));
    cat.add_table(Table::new(
        "warehouse",
        5,
        vec![
            Column::new("w_warehouse_sk", ColumnType::Int, 5),
            Column::new("w_state", ColumnType::Char(2), 5),
        ],
    ));
    cat.add_table(Table::new(
        "promotion",
        300,
        vec![
            Column::new("p_promo_sk", ColumnType::Int, 300),
            Column::new("p_channel_email", ColumnType::Char(1), 2),
        ],
    ));
    cat.add_table(Table::new(
        "web_site",
        30,
        vec![
            Column::new("web_site_sk", ColumnType::Int, 30),
            Column::new("web_class", ColumnType::Char(10), 5),
        ],
    ));
    cat.add_table(Table::new(
        "time_dim",
        86_400,
        vec![
            Column::new("t_time_sk", ColumnType::Int, 86_400),
            Column::new("t_hour", ColumnType::Int, 24),
            Column::new("t_shift", ColumnType::Char(10), 3),
        ],
    ));
    cat.add_table(Table::new(
        "income_band",
        20,
        vec![
            Column::new("ib_income_band_sk", ColumnType::Int, 20),
            Column::new("ib_lower_bound", ColumnType::Int, 20),
        ],
    ));

    // Primary-key indexes on the dimensions (fact FKs are unindexed, as in
    // typical analytic deployments).
    for (t, c) in [
        ("date_dim", "d_date_sk"),
        ("item", "i_item_sk"),
        ("customer", "c_customer_sk"),
        ("customer_address", "ca_address_sk"),
        ("customer_demographics", "cd_demo_sk"),
        ("household_demographics", "hd_demo_sk"),
        ("store", "s_store_sk"),
        ("warehouse", "w_warehouse_sk"),
        ("promotion", "p_promo_sk"),
        ("web_site", "web_site_sk"),
        ("time_dim", "t_time_sk"),
        ("income_band", "ib_income_band_sk"),
    ] {
        cat.add_index(t, c, true);
    }

    // Hidden data model: correlated dimension attributes and date-skewed
    // fact-dimension joins (sales concentrate in recent periods).
    cat.correlations.set_predicate_correlation("item", "i_category", "i_brand", 0.9);
    cat.correlations.set_predicate_correlation("item", "i_category", "i_class", 0.8);
    cat.correlations.set_predicate_correlation("customer_address", "ca_state", "ca_city", 0.95);
    cat.correlations.set_predicate_correlation("customer", "c_birth_country", "c_birth_year", 0.3);
    cat.correlations.set_predicate_correlation("date_dim", "d_year", "d_moy", 0.1);
    cat.correlations.set_join_skew("store_sales", "ss_sold_date_sk", "date_dim", "d_date_sk", 1.6);
    cat.correlations.set_join_skew(
        "catalog_sales",
        "cs_sold_date_sk",
        "date_dim",
        "d_date_sk",
        1.5,
    );
    cat.correlations.set_join_skew("web_sales", "ws_sold_date_sk", "date_dim", "d_date_sk", 1.5);
    cat.correlations.set_join_skew("inventory", "inv_date_sk", "date_dim", "d_date_sk", 1.2);
    cat.correlations.set_join_skew("store_sales", "ss_item_sk", "item", "i_item_sk", 1.3);
    cat.correlations.set_join_skew(
        "store_sales",
        "ss_customer_sk",
        "customer",
        "c_customer_sk",
        1.2,
    );
    cat
}

/// The fact table of a template with its join/value columns.
#[derive(Debug, Clone, Copy)]
struct FactDef {
    table: &'static str,
    alias: &'static str,
    date_col: &'static str,
    item_col: &'static str,
    cust_col: &'static str,
    /// (channel dimension table, fact FK, dimension PK).
    channel: (&'static str, &'static str, &'static str),
    /// Numeric columns usable in aggregates.
    value_cols: [&'static str; 2],
    /// "extra" small dimension join: (dim table, fact FK, dim PK).
    extra: (&'static str, &'static str, &'static str),
}

const FACTS: [FactDef; 3] = [
    FactDef {
        table: "store_sales",
        alias: "ss",
        date_col: "ss_sold_date_sk",
        item_col: "ss_item_sk",
        cust_col: "ss_customer_sk",
        channel: ("store", "ss_store_sk", "s_store_sk"),
        value_cols: ["ss_quantity", "ss_net_profit"],
        extra: ("household_demographics", "ss_hdemo_sk", "hd_demo_sk"),
    },
    FactDef {
        table: "catalog_sales",
        alias: "cs",
        date_col: "cs_sold_date_sk",
        item_col: "cs_item_sk",
        cust_col: "cs_bill_customer_sk",
        channel: ("warehouse", "cs_warehouse_sk", "w_warehouse_sk"),
        value_cols: ["cs_quantity", "cs_net_profit"],
        extra: ("promotion", "cs_promo_sk", "p_promo_sk"),
    },
    FactDef {
        table: "web_sales",
        alias: "ws",
        date_col: "ws_sold_date_sk",
        item_col: "ws_item_sk",
        cust_col: "ws_bill_customer_sk",
        channel: ("web_site", "ws_web_site_sk", "web_site_sk"),
        value_cols: ["ws_quantity", "ws_net_profit"],
        extra: ("promotion", "ws_promo_sk", "p_promo_sk"),
    },
];

/// A derived query template: a fact, a set of dimension joins, and a shape.
#[derive(Debug, Clone)]
pub struct TpcdsTemplate {
    /// Template id in `0..N_TEMPLATES`.
    pub id: usize,
    fact: FactDef,
    /// Which dimensions to join (subset index 0..7).
    dimset: usize,
    /// Query shape (0..5): grouping/ordering/distinct/scalar variants.
    pub shape: usize,
}

/// Derives the 99 templates: 3 facts × 7 dimension subsets × 5 shapes = 105
/// combinations, truncated to 99 (as TPC-DS has 99 templates).
pub fn templates() -> Vec<TpcdsTemplate> {
    let mut out = Vec::with_capacity(N_TEMPLATES);
    'outer: for fact in FACTS {
        for dimset in 0..7 {
            for shape in 0..5 {
                out.push(TpcdsTemplate { id: out.len(), fact, dimset, shape });
                if out.len() == N_TEMPLATES {
                    break 'outer;
                }
            }
        }
    }
    out
}

/// Joined dimensions of a template as `(table, alias, fact_fk, dim_pk)`.
fn dims_of(t: &TpcdsTemplate) -> Vec<(&'static str, &'static str, &'static str, &'static str)> {
    let f = &t.fact;
    let date = ("date_dim", "d", f.date_col, "d_date_sk");
    let item = ("item", "i", f.item_col, "i_item_sk");
    let cust = ("customer", "c", f.cust_col, "c_customer_sk");
    let chan = (f.channel.0, "ch", f.channel.1, f.channel.2);
    let extra = (f.extra.0, "x", f.extra.1, f.extra.2);
    match t.dimset {
        0 => vec![date],
        1 => vec![date, item],
        2 => vec![date, item, cust],
        3 => vec![date, chan],
        4 => vec![date, item, chan],
        5 => vec![item, cust],
        _ => vec![date, cust, extra],
    }
}

/// Adds a realistic predicate on a joined dimension.
///
/// The *shape* (which column, which operator, how wide a range) comes from
/// `struct_rng`, which is seeded by the template id — a TPC-DS template fixes
/// its predicate structure and varies only bind values. The *bind values*
/// (literals and their true selectivities) come from the per-query `rng`.
fn add_dim_predicate(
    cat: &Catalog,
    preds: &mut Vec<Predicate>,
    table: &str,
    alias: &str,
    struct_rng: &mut StdRng,
    rng: &mut StdRng,
) {
    let col = |name: &str| cat.column(table, name).expect("catalog column").1;
    let p = match table {
        "date_dim" => {
            if struct_rng.gen_bool(0.6) {
                let frac = [0.02, 0.05, 0.1, 0.2][struct_rng.gen_range(0..4)];
                draw_range(alias, col("d_date"), frac, rng)
            } else if struct_rng.gen_bool(0.5) {
                draw_eq(alias, col("d_year"), rng)
            } else {
                draw_eq(alias, col("d_moy"), rng)
            }
        }
        "item" => {
            if struct_rng.gen_bool(0.5) {
                draw_eq(alias, col("i_category"), rng)
            } else if struct_rng.gen_bool(0.5) {
                draw_eq(alias, col("i_brand"), rng)
            } else {
                draw_in(alias, col("i_class"), struct_rng.gen_range(2..6), rng)
            }
        }
        "customer" => {
            if struct_rng.gen_bool(0.7) {
                draw_eq(alias, col("c_birth_country"), rng)
            } else {
                draw_eq(alias, col("c_birth_year"), rng)
            }
        }
        "store" => draw_eq(alias, col("s_state"), rng),
        "warehouse" => draw_eq(alias, col("w_state"), rng),
        "web_site" => draw_eq(alias, col("web_class"), rng),
        "promotion" => draw_eq(alias, col("p_channel_email"), rng),
        "household_demographics" => draw_eq(alias, col("hd_buy_potential"), rng),
        _ => return,
    };
    preds.push(p);
}

/// Group-by candidates available on a template's joined dimensions.
fn group_candidates(
    dims: &[(&'static str, &'static str, &'static str, &'static str)],
) -> Vec<(Name, Name)> {
    let mut out = Vec::new();
    for (table, alias, _, _) in dims {
        // Real TPC-DS groups both at coarse grain (year, category, state) and
        // at entity grain (item, customer) — the latter drive the big
        // aggregation hash tables.
        let cols: &[&str] = match *table {
            "date_dim" => &["d_year", "d_moy"],
            "item" => &["i_category", "i_brand", "i_item_sk", "i_manufact_id"],
            "customer" => &["c_birth_country", "c_customer_sk"],
            "store" => &["s_state"],
            "warehouse" => &["w_state"],
            "web_site" => &["web_class"],
            "promotion" => &["p_channel_email"],
            "household_demographics" => &["hd_buy_potential"],
            _ => &[],
        };
        for c in cols {
            out.push(((*alias).into(), (*c).into()));
        }
    }
    out
}

/// Instantiates one query from a template with sampled parameters.
///
/// Structure (which dimensions are filtered, which columns are grouped, range
/// widths) is derived deterministically from the template id — as in the real
/// TPC-DS kit, a template fixes the query skeleton and only bind values vary
/// from query to query.
pub fn instantiate(cat: &Catalog, t: &TpcdsTemplate, id: u64, rng: &mut StdRng) -> QuerySpec {
    let mut struct_rng =
        StdRng::seed_from_u64(0x7E4B_5EED ^ (t.id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let f = &t.fact;
    let dims = dims_of(t);
    let mut tables = vec![TableRef::new(f.table, f.alias)];
    let mut joins = Vec::new();
    for (table, alias, fk, pk) in &dims {
        tables.push(TableRef::new(table, alias));
        joins.push(JoinEdge {
            left_alias: f.alias.into(),
            left_col: (*fk).into(),
            right_alias: (*alias).into(),
            right_col: (*pk).into(),
        });
    }
    let mut predicates = Vec::new();
    for (table, alias, _, _) in &dims {
        // Most dims are filtered; occasionally one is left open (fixed per
        // template).
        if struct_rng.gen_bool(0.85) {
            add_dim_predicate(cat, &mut predicates, table, alias, &mut struct_rng, rng);
        }
    }
    // Some templates filter the fact itself on quantity.
    if struct_rng.gen_bool(0.3) {
        let qty = cat.column(f.table, f.value_cols[0]).expect("fact value column").1;
        predicates.push(draw_range(f.alias, qty, struct_rng.gen_range(0.1..0.6), rng));
    }

    let candidates = group_candidates(&dims);
    let mut group_by = Vec::new();
    let mut aggregates = Vec::new();
    let mut order_by = Vec::new();
    let mut distinct = false;
    let mut limit = None;
    let agg = |func, col: &str| Aggregate { func, table_alias: f.alias.into(), column: col.into() };
    match t.shape {
        0 => {
            group_by.push(candidates[struct_rng.gen_range(0..candidates.len())].clone());
            aggregates.push(agg(AggFunc::Sum, f.value_cols[1]));
            aggregates.push(agg(AggFunc::Count, f.value_cols[0]));
            order_by = group_by.clone();
            limit = Some(100);
        }
        1 => {
            let first = struct_rng.gen_range(0..candidates.len());
            group_by.push(candidates[first].clone());
            if candidates.len() > 1 {
                let mut second = struct_rng.gen_range(0..candidates.len());
                if second == first {
                    second = (second + 1) % candidates.len();
                }
                group_by.push(candidates[second].clone());
            }
            aggregates.push(agg(AggFunc::Sum, f.value_cols[1]));
            aggregates.push(agg(AggFunc::Avg, f.value_cols[0]));
            order_by = group_by.clone();
        }
        2 => {
            group_by.push(candidates[struct_rng.gen_range(0..candidates.len())].clone());
            aggregates.push(agg(AggFunc::Sum, f.value_cols[1]));
        }
        3 => {
            aggregates.push(agg(AggFunc::Sum, f.value_cols[1]));
            aggregates.push(agg(AggFunc::Count, f.value_cols[0]));
        }
        _ => {
            distinct = true;
            order_by.push(candidates[struct_rng.gen_range(0..candidates.len())].clone());
            limit = Some(1000);
        }
    }

    QuerySpec::new(
        id,
        QueryShape { tables, joins, predicates, group_by, aggregates, order_by, distinct, limit },
    )
}

/// Generates a TPC-DS-style query log of `n` queries.
///
/// # Errors
/// Propagates planning errors (which would indicate a template/catalog bug).
pub fn generate(n: usize, seed: u64) -> PlanResult<QueryLog> {
    generate_with_planner(n, seed, wmp_plan::PlannerConfig::default())
}

/// [`generate`] under explicit planner tunables (the `ablation_planner`
/// experiment re-plans the same logical queries without greedy join
/// ordering).
///
/// # Errors
/// Propagates planning errors.
pub fn generate_with_planner(
    n: usize,
    seed: u64,
    planner_config: wmp_plan::PlannerConfig,
) -> PlanResult<QueryLog> {
    let cat = catalog();
    let templates = templates();
    let mut specs = Vec::with_capacity(n);
    for i in 0..n {
        let t = &templates[i % templates.len()];
        let mut rng = StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        specs.push((instantiate(&cat, t, i as u64, &mut rng), t.id));
    }
    crate::log::build_log_with("tpcds", cat, specs, planner_config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_seventeen_tables() {
        let cat = catalog();
        assert_eq!(cat.tables().len(), 17);
        assert!(cat.table("store_sales").is_some());
        assert!(cat.has_index("date_dim", "d_date_sk"));
    }

    #[test]
    fn exactly_ninety_nine_distinct_templates() {
        let ts = templates();
        assert_eq!(ts.len(), N_TEMPLATES);
        for (i, t) in ts.iter().enumerate() {
            assert_eq!(t.id, i);
        }
        // Distinctness: (fact, dimset, shape) triples never repeat.
        let mut seen = std::collections::HashSet::new();
        for t in &ts {
            assert!(seen.insert((t.fact.table, t.dimset, t.shape)));
        }
    }

    #[test]
    fn instantiation_produces_plannable_queries() {
        let cat = catalog();
        let ts = templates();
        let planner = wmp_plan::Planner::new(&cat);
        for (i, t) in ts.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(i as u64);
            let spec = instantiate(&cat, t, i as u64, &mut rng);
            assert!(!spec.tables.is_empty());
            assert_eq!(spec.joins.len(), spec.tables.len() - 1, "star joins");
            planner.plan(&spec).unwrap_or_else(|e| panic!("template {i} failed to plan: {e}"));
        }
    }

    #[test]
    fn generate_produces_requested_count_with_template_rotation() {
        let log = generate(200, 7).unwrap();
        assert_eq!(log.len(), 200);
        assert_eq!(log.benchmark, "tpcds");
        // All 99 templates appear at least once in 200 queries.
        let hints: std::collections::HashSet<usize> =
            log.records.iter().map(|r| r.template_hint).collect();
        assert_eq!(hints.len(), N_TEMPLATES);
        // Analytic queries should demand nontrivial memory on average, and
        // the analytic scans/joins must dominate OLTP on every resource.
        assert!(log.mean_true_memory_mb() > 1.0, "mean = {}", log.mean_true_memory_mb());
        let mean = log.mean_resources();
        assert!(mean.cpu_ms > 1.0, "analytic CPU cost is nontrivial: {mean}");
        assert!(mean.io_pages > 10.0, "analytic I/O volume is nontrivial: {mean}");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(30, 11).unwrap();
        let b = generate(30, 11).unwrap();
        for (ra, rb) in a.records.iter().zip(&b.records) {
            assert_eq!(ra.features, rb.features);
            assert_eq!(ra.resources, rb.resources, "full label vector is deterministic");
        }
        let c = generate(30, 12).unwrap();
        let same =
            a.records.iter().zip(&c.records).all(|(x, y)| x.true_memory_mb() == y.true_memory_mb());
        assert!(!same, "different seeds must differ");
    }

    #[test]
    fn same_template_queries_have_similar_plans() {
        let log = generate(198, 3).unwrap(); // each template twice
        let group: Vec<&crate::log::QueryRecord> =
            log.records.iter().filter(|r| r.template_hint == 0).collect();
        assert_eq!(group.len(), 2);
        // Join methods and access paths may flip with sampled selectivities,
        // but the structural totals (scans = #tables, joins = #tables - 1)
        // are template invariants.
        let totals = |r: &crate::log::QueryRecord| -> (f64, f64) {
            use wmp_plan::OpKind::*;
            let count = |k: wmp_plan::OpKind| r.features[2 * k.index()];
            (
                count(TableScan) + count(IndexScan),
                count(HashJoin) + count(NestedLoopJoin) + count(MergeJoin),
            )
        };
        assert_eq!(totals(group[0]), totals(group[1]));
        let (scans, joins) = totals(group[0]);
        assert_eq!(scans, joins + 1.0);
    }
}
