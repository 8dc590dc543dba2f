//! Property-based integration tests: random logical queries against the
//! TPC-DS catalog must always plan, simulate to positive memory, and
//! featurize to the fixed layout; core numeric invariants hold for arbitrary
//! inputs; the JSON reader reads back exactly what the JSON writer wrote.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use learnedwmp::core::{build_histogram, HistogramMode};
use learnedwmp::mlkit::metrics::{mape, quantile, rmse, ResidualSummary};
use learnedwmp::obs::json::{self, Kind, Value};
use learnedwmp::obs::JsonValue;
use learnedwmp::plan::features::{featurize_plan, N_PLAN_FEATURES};
use learnedwmp::plan::query::{
    AggFunc, Aggregate, JoinEdge, Predicate, QueryShape, QuerySpec, TableRef,
};
use learnedwmp::plan::{OpKind, Planner};
use learnedwmp::sim::{DbmsHeuristicEstimator, ExecutorSimulator};

/// Strategy: a random star query over the TPC-DS catalog — `store_sales`
/// joined to a subset of dimensions, with random predicates/aggregation.
fn arb_star_query() -> impl Strategy<Value = QuerySpec> {
    let dims = prop::collection::vec(0usize..3, 0..3);
    (dims, 0.0001f64..0.9, any::<bool>(), any::<bool>(), 0u64..1000).prop_map(
        |(dim_ids, sel, group, order, id)| {
            let dim_defs = [
                ("date_dim", "d", "ss_sold_date_sk", "d_date_sk", "d_year"),
                ("item", "i", "ss_item_sk", "i_item_sk", "i_category"),
                ("customer", "c", "ss_customer_sk", "c_customer_sk", "c_birth_country"),
            ];
            let mut tables = vec![TableRef::new("store_sales", "ss")];
            let mut joins = Vec::new();
            let mut predicates = Vec::new();
            let mut group_by = Vec::new();
            let mut uniq: Vec<usize> = dim_ids;
            uniq.sort_unstable();
            uniq.dedup();
            for &d in &uniq {
                let (table, alias, fk, pk, attr) = dim_defs[d];
                tables.push(TableRef::new(table, alias));
                joins.push(JoinEdge {
                    left_alias: "ss".into(),
                    left_col: fk.into(),
                    right_alias: alias.into(),
                    right_col: pk.into(),
                });
                predicates.push(Predicate {
                    table_alias: alias.into(),
                    column: attr.into(),
                    op: learnedwmp::plan::query::CmpOp::Eq,
                    literal: "'x'".into(),
                    sel_est: sel,
                    sel_true: (sel * 1.5).min(1.0),
                });
                if group {
                    group_by.push(((*alias).into(), (*attr).into()));
                }
            }
            let aggregates = vec![Aggregate {
                func: AggFunc::Sum,
                table_alias: "ss".into(),
                column: "ss_net_profit".into(),
            }];
            let order_by = if order && !group_by.is_empty() { group_by.clone() } else { vec![] };
            QuerySpec::new(
                id,
                QueryShape {
                    tables,
                    joins,
                    predicates,
                    group_by,
                    aggregates,
                    order_by,
                    ..Default::default()
                },
            )
        },
    )
}

/// A random [`JsonValue`] tree at most `depth` containers deep. Strings mix
/// control characters, `"`, `\\`, and non-BMP characters; numbers are
/// arbitrary finite `f64`s (negative zero and subnormals included); object
/// keys are unique.
fn arb_json(rng: &mut StdRng, depth: u32) -> JsonValue {
    match rng.gen_range(0..if depth == 0 { 4 } else { 8 }) {
        0 => JsonValue::Null,
        1 => JsonValue::Bool(rng.gen()),
        2 => JsonValue::Number(arb_f64(rng)),
        3 => JsonValue::String(arb_string(rng)),
        4 | 5 => {
            JsonValue::Array((0..rng.gen_range(0..6)).map(|_| arb_json(rng, depth - 1)).collect())
        }
        // The distinct one-digit suffix keeps the keys unique.
        _ => JsonValue::Object(
            (0..rng.gen_range(0..6))
                .map(|i| (format!("{}{i}", arb_string(rng)), arb_json(rng, depth - 1)))
                .collect(),
        ),
    }
}

fn arb_f64(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..4) {
        0 => rng.gen_range(-1_000i64..1_000) as f64,
        1 => [0.0, -0.0, f64::MIN_POSITIVE, 5e-324, f64::MAX, -f64::MAX][rng.gen_range(0..6)],
        2 => rng.gen_range(-1e6..1e6),
        _ => loop {
            let x = f64::from_bits(rng.next_u64());
            if x.is_finite() {
                break x;
            }
        },
    }
}

fn arb_string(rng: &mut StdRng) -> String {
    const SPECIAL: [char; 10] = ['"', '\\', '/', '\n', '\r', '\t', '\u{7f}', 'é', '\u{2028}', '😀'];
    (0..rng.gen_range(0..8))
        .map(|_| match rng.gen_range(0..4) {
            0 => char::from(rng.gen_range(0u8..0x20)),
            1 => SPECIAL[rng.gen_range(0..SPECIAL.len())],
            2 => char::from_u32(rng.gen_range(0x10000u32..0x110000)).unwrap_or('\u{10ffff}'),
            _ => char::from(rng.gen_range(b' '..=b'~')),
        })
        .collect()
}

/// `parsed` has the structure of `built`, with bit-equal numbers.
fn same(parsed: &Value, built: &JsonValue) -> bool {
    match (&parsed.kind, built) {
        (Kind::Null, JsonValue::Null) => true,
        (Kind::Bool(a), JsonValue::Bool(b)) => a == b,
        (Kind::Number(a), JsonValue::Number(b)) => a.to_bits() == b.to_bits(),
        (Kind::String(a), JsonValue::String(b)) => a == b,
        (Kind::Array(a), JsonValue::Array(b)) => {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same(x, y))
        }
        (Kind::Object(a), JsonValue::Object(b)) => {
            a.len() == b.len() && b.iter().all(|(k, v)| a.get(k).is_some_and(|x| same(x, v)))
        }
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn json_reader_reads_back_what_the_writer_wrote(seed in any::<u64>()) {
        let doc = arb_json(&mut StdRng::seed_from_u64(seed), 4);
        let text = doc.render();
        let parsed = json::parse(&text).map_err(|e| {
            TestCaseError::fail(format!("{}:{}: {} in {text:?}", e.line, e.col, e.message))
        })?;
        prop_assert!(same(&parsed, &doc), "{:?} read back as {:?}", doc, parsed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_star_queries_plan_simulate_and_featurize(spec in arb_star_query()) {
        let cat = learnedwmp::workloads::tpcds::catalog();
        let planner = Planner::new(&cat);
        let plan = planner.plan(&spec).expect("star queries must plan");
        // Features have the fixed layout and scan counts match the tables.
        let features = featurize_plan(&plan);
        prop_assert_eq!(features.len(), N_PLAN_FEATURES);
        let scans = plan.count_kind(OpKind::TableScan) + plan.count_kind(OpKind::IndexScan);
        prop_assert_eq!(scans, spec.tables.len());
        // Simulated memory is positive, finite, and the heuristic is too.
        let sim = ExecutorSimulator::new();
        let mem = sim.peak_memory_mb(&plan, spec.id);
        prop_assert!(mem.is_finite() && mem > 0.0);
        let est = DbmsHeuristicEstimator::new().estimate_mb(&plan);
        prop_assert!(est.is_finite() && est > 0.0);
        // Cardinalities never go negative anywhere in the plan.
        for node in plan.iter() {
            prop_assert!(node.est_rows >= 0.0);
            prop_assert!(node.true_rows >= 0.0);
        }
    }

    #[test]
    fn memory_grows_with_true_cardinality(scale in 1.0f64..50.0) {
        // Scaling every true cardinality up cannot reduce simulated memory.
        let cat = learnedwmp::workloads::tpcds::catalog();
        let templates = learnedwmp::workloads::tpcds::templates();
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let spec = learnedwmp::workloads::tpcds::instantiate(&cat, &templates[5], 1, &mut rng);
        let planner = Planner::new(&cat);
        let base = planner.plan(&spec).expect("plan");
        let mut scaled = base.clone();
        fn scale_truths(n: &mut learnedwmp::plan::PlanNode, s: f64) {
            n.true_rows *= s;
            for c in &mut n.children {
                scale_truths(c, s);
            }
        }
        scale_truths(&mut scaled, scale);
        let sim = ExecutorSimulator::new();
        prop_assert!(sim.profile(&scaled).peak >= sim.profile(&base).peak);
    }

    #[test]
    fn histogram_counts_partition_assignments(
        assigns in prop::collection::vec(0usize..12, 1..40)
    ) {
        let h = build_histogram(&assigns, 12, HistogramMode::Counts).unwrap();
        prop_assert_eq!(h.iter().sum::<f64>() as usize, assigns.len());
        let hf = build_histogram(&assigns, 12, HistogramMode::Frequencies).unwrap();
        prop_assert!((hf.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rmse_and_mape_are_nonnegative_and_zero_iff_exact(
        y in prop::collection::vec(1.0f64..1e6, 1..50)
    ) {
        prop_assert!(rmse(&y, &y).expect("rmse") < 1e-12);
        prop_assert!(mape(&y, &y).expect("mape") < 1e-12);
        let shifted: Vec<f64> = y.iter().map(|v| v + 1.0).collect();
        prop_assert!(rmse(&y, &shifted).expect("rmse") > 0.0);
    }

    #[test]
    fn residual_summary_orders_quantiles(
        res in prop::collection::vec(-1e6f64..1e6, 2..200)
    ) {
        let s = ResidualSummary::from_residuals(&res).expect("summary");
        prop_assert!(s.min <= s.q1);
        prop_assert!(s.q1 <= s.median);
        prop_assert!(s.median <= s.q3);
        prop_assert!(s.q3 <= s.max);
        prop_assert!(s.iqr() >= 0.0);
    }

    #[test]
    fn quantiles_are_monotone_in_q(
        v in prop::collection::vec(-1e5f64..1e5, 1..100),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0
    ) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(quantile(&v, lo).expect("lo") <= quantile(&v, hi).expect("hi"));
    }
}
