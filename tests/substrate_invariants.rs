//! Substrate invariants across all three benchmark generators: every
//! generated query's plan, features, simulated memory, and heuristic estimate
//! obey the structural contracts the pipelines rely on.

use learnedwmp::plan::features::N_PLAN_FEATURES;
use learnedwmp::plan::{OpKind, Planner};
use learnedwmp::sim;
use learnedwmp::workloads::QueryLog;

fn logs() -> Vec<QueryLog> {
    vec![
        learnedwmp::workloads::tpcds::generate(400, 5).expect("tpcds"),
        learnedwmp::workloads::job::generate(400, 5).expect("job"),
        learnedwmp::workloads::tpcc::generate(400, 5).expect("tpcc"),
    ]
}

#[test]
fn every_generated_query_obeys_structural_contracts() {
    for log in logs() {
        let planner = Planner::new(&log.catalog);
        for r in &log.records {
            // Feature layout.
            assert_eq!(r.features.len(), N_PLAN_FEATURES, "{}", log.benchmark);
            // Labels and estimates are positive and finite.
            assert!(r.true_memory_mb().is_finite() && r.true_memory_mb() > 0.0);
            assert!(r.dbms_estimate_mb().is_finite() && r.dbms_estimate_mb() > 0.0);
            // Re-planning the stored spec reproduces the stored features.
            let plan = planner.plan(&r.spec).expect("replans");
            let features = learnedwmp::plan::features::featurize_plan(&plan);
            assert_eq!(features, r.features, "{} q{}", log.benchmark, r.id);
            // Scan count equals table count; join count equals tables - 1.
            let scans = plan.count_kind(OpKind::TableScan) + plan.count_kind(OpKind::IndexScan);
            assert_eq!(scans, r.spec.tables.len());
            let joins = plan.count_kind(OpKind::HashJoin)
                + plan.count_kind(OpKind::NestedLoopJoin)
                + plan.count_kind(OpKind::MergeJoin);
            assert_eq!(joins, r.spec.tables.len() - 1);
            // SQL renders and mentions every referenced table.
            let sql = r.sql();
            for t in &r.spec.tables {
                assert!(sql.contains(&*t.table), "{sql}");
            }
        }
    }
}

#[test]
fn simulator_and_heuristic_agree_on_plan_reexecution() {
    // Determinism across separate simulator instances (same constants).
    for log in logs() {
        let planner = Planner::new(&log.catalog);
        let sim_a = sim::ExecutorSimulator::new();
        let sim_b = sim::ExecutorSimulator::new();
        let heur = sim::DbmsHeuristicEstimator::new();
        for r in log.records.iter().take(50) {
            let plan = planner.plan(&r.spec).expect("plan");
            assert_eq!(sim_a.peak_memory_mb(&plan, r.id), sim_b.peak_memory_mb(&plan, r.id));
            assert_eq!(sim_a.peak_memory_mb(&plan, r.id), r.true_memory_mb());
            assert_eq!(heur.estimate_mb(&plan), r.dbms_estimate_mb());
        }
    }
}

#[test]
fn benchmarks_occupy_distinct_memory_regimes() {
    let [tpcds, job, tpcc]: [QueryLog; 3] =
        logs().try_into().unwrap_or_else(|_| panic!("three logs"));
    let mean = |l: &QueryLog| l.mean_true_memory_mb();
    // Analytic benchmarks are orders of magnitude heavier than OLTP.
    assert!(mean(&tpcds) > 20.0 * mean(&tpcc), "tpcds {} vs tpcc {}", mean(&tpcds), mean(&tpcc));
    assert!(mean(&job) > 20.0 * mean(&tpcc), "job {} vs tpcc {}", mean(&job), mean(&tpcc));
}

#[test]
fn template_hints_are_within_declared_ranges() {
    let [tpcds, job, tpcc]: [QueryLog; 3] =
        logs().try_into().unwrap_or_else(|_| panic!("three logs"));
    assert!(tpcds
        .records
        .iter()
        .all(|r| r.template_hint < learnedwmp::workloads::tpcds::N_TEMPLATES));
    assert!(job.records.iter().all(|r| r.template_hint < learnedwmp::workloads::job::N_VARIANTS));
    assert!(tpcc
        .records
        .iter()
        .all(|r| r.template_hint < learnedwmp::workloads::tpcc::N_TEMPLATES));
}
