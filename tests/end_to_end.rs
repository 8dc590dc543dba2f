//! End-to-end integration: generate → plan → simulate → template → histogram
//! → train → predict across all three benchmarks and every learner family.

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
        let reports = ctx.evaluate_all(&[ModelKind::Ridge, ModelKind::Xgb]).expect("sweep");
        assert_eq!(reports.len(), 5, "DBMS + 2 single + 2 learned");
        for r in &reports {
            assert!(r.rmse.is_finite() && r.rmse >= 0.0, "{}: rmse {}", r.tag(), r.rmse);
            assert!(r.mape.is_finite() && r.mape >= 0.0);
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
        let learned = ctx.evaluate_learned(kind).expect("learned");
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
fn every_model_kind_works_end_to_end() {
    let log = learnedwmp::workloads::tpcc::generate(800, 5).expect("tpcc");
    let ctx = EvalContext::new(&log, quick_eval_config(10));
    for kind in ModelKind::ALL {
        let learned = ctx.evaluate_learned(kind).expect("learned");
        assert!(learned.rmse.is_finite(), "LearnedWMP-{kind}");
        assert!(learned.model_kb > 0.0);
        assert!(learned.train_ms > 0.0);
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
        let learned = ctx.evaluate_learned(kind).expect("learned");
        let single = ctx.evaluate_single(kind).expect("single");
        assert!(
            learned.train_ms < single.train_ms,
            "{kind}: learned {} ms vs single {} ms",
            learned.train_ms,
            single.train_ms
        );
    }
}

#[test]
fn histogram_dimension_matches_template_count() {
    use learnedwmp::core::{build_histogram, HistogramMode, PlanKMeansTemplates, TemplateLearner};
    let log = learnedwmp::workloads::job::generate(400, 2).expect("job");
    let refs: Vec<_> = log.records.iter().collect();
    let mut learner = PlanKMeansTemplates::new(15, 42);
    learner.fit(&refs, &log.catalog).expect("fit");
    let assigns: Vec<usize> =
        refs[..10].iter().map(|r| learner.assign(r).expect("assign")).collect();
    let h =
        build_histogram(&assigns, learner.n_templates(), HistogramMode::Counts).expect("histogram");
    assert_eq!(h.len(), 15);
    assert_eq!(h.iter().sum::<f64>(), 10.0, "paper eq. 8: sum of counts = s");
}

#[test]
fn workload_prediction_is_consistent_with_members() {
    // SingleWMP workload prediction must equal the sum of member predictions
    // (paper eq. 11), checked through the public facade.
    use learnedwmp::core::{ResourceVector, SingleWmp, WorkloadPredictor};
    let log = learnedwmp::workloads::tpcc::generate(600, 9).expect("tpcc");
    let refs: Vec<_> = log.records.iter().collect();
    let model = SingleWmp::train(ModelKind::Dt, &refs).expect("train");
    let total = model.predict_resources(&refs[..7]).expect("workload");
    let by_parts: ResourceVector = refs[..7]
        .iter()
        .map(|r| model.predict_resources(std::slice::from_ref(r)).expect("query"))
        .sum();
    assert!(total.abs_diff(by_parts).as_array().iter().all(|d| *d < 1e-9));
}
