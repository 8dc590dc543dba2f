//! End-to-end integration: generate → plan → simulate → template → histogram
//! → train → predict across all three benchmarks.

use learnedwmp::core::{EvalConfig, EvalContext, ExperimentConfig, ModelKind};
use learnedwmp::workloads::QueryLog;

fn quick_eval_config(k: usize) -> EvalConfig {
    EvalConfig { k_templates: k, ..EvalConfig::default() }
}

fn generate_quick() -> (QueryLog, QueryLog, QueryLog) {
    let cfg = ExperimentConfig::quick();
    (
        learnedwmp::workloads::tpcds::generate(cfg.tpcds.n_queries, 1).expect("tpcds"),
        learnedwmp::workloads::job::generate(cfg.job.n_queries, 2).expect("job"),
        learnedwmp::workloads::tpcc::generate(cfg.tpcc.n_queries, 3).expect("tpcc"),
    )
}

#[test]
fn full_sweep_runs_on_every_benchmark() {
    let (tpcds, job, tpcc) = generate_quick();
    for (log, k) in [(&tpcds, 20), (&job, 20), (&tpcc, 10)] {
        let ctx = EvalContext::new(log, quick_eval_config(k));
        let (reports, _) = ctx.evaluate_all(&[ModelKind::Ridge, ModelKind::Xgb]).expect("sweep");
        let tags: Vec<String> = reports.iter().map(|r| r.tag()).collect();
        assert_eq!(
            tags,
            [
                "SingleWMP-DBMS",
                "SingleWMP-Ridge",
                "SingleWMP-XGB",
                "LearnedWMP-Ridge",
                "LearnedWMP-XGB"
            ],
            "DBMS + 2 single + 2 learned"
        );
        for r in &reports {
            assert!(r.rmse.is_finite() && r.rmse >= 0.0, "{}: rmse {}", r.tag(), r.rmse);
            assert!(r.mape().is_finite() && r.mape() >= 0.0);
            assert_eq!(r.residuals.len(), ctx.test_workloads.len());
        }
    }
}

#[test]
fn ml_models_beat_the_dbms_heuristic_on_tpcc() {
    // TPC-C is the most deterministic benchmark: the ML advantage must be
    // large and stable even at the quick scale.
    let log = learnedwmp::workloads::tpcc::generate(1_500, 3).expect("tpcc");
    let ctx = EvalContext::new(&log, quick_eval_config(12));
    let dbms = ctx.evaluate_dbms().expect("dbms");
    for kind in [ModelKind::Ridge, ModelKind::Dt, ModelKind::Xgb] {
        let (_, learned) = ctx.evaluate_learned(kind).expect("learned");
        let single = ctx.evaluate_single(kind).expect("single");
        assert!(
            learned.rmse < dbms.rmse / 2.0,
            "LearnedWMP-{kind} rmse {} vs DBMS {}",
            learned.rmse,
            dbms.rmse
        );
        assert!(
            single.rmse < dbms.rmse / 2.0,
            "SingleWMP-{kind} rmse {} vs DBMS {}",
            single.rmse,
            dbms.rmse
        );
    }
}

#[test]
fn learned_training_is_faster_than_single_for_tree_models() {
    // The s× training-row reduction must show up in wall-clock for the
    // nontrivial learners (the paper's Fig. 6; Ridge is the documented
    // exception and excluded here).
    let log = learnedwmp::workloads::tpcc::generate(3_000, 7).expect("tpcc");
    let ctx = EvalContext::new(&log, quick_eval_config(12));
    for kind in [ModelKind::Xgb, ModelKind::Rf] {
        let (_, learned) = ctx.evaluate_learned(kind).expect("learned");
        let single = ctx.evaluate_single(kind).expect("single");
        assert!(
            learned.train_ms < single.train_ms,
            "{kind}: learned {} ms vs single {} ms",
            learned.train_ms,
            single.train_ms
        );
    }
}
