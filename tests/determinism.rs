//! Reproducibility: the whole stack — generation, planning, simulation,
//! template learning, training, prediction — is deterministic in its seeds.

use learnedwmp::core::{EvalConfig, EvalContext, LearnedWmp, ModelKind, TemplateSpec};
use learnedwmp::workloads::QueryRecord;

#[test]
fn generation_is_bit_identical_across_runs() {
    for (name, a, b) in [
        (
            "tpcds",
            learnedwmp::workloads::tpcds::generate(300, 7).expect("a"),
            learnedwmp::workloads::tpcds::generate(300, 7).expect("b"),
        ),
        (
            "job",
            learnedwmp::workloads::job::generate(300, 7).expect("a"),
            learnedwmp::workloads::job::generate(300, 7).expect("b"),
        ),
        (
            "tpcc",
            learnedwmp::workloads::tpcc::generate(300, 7).expect("a"),
            learnedwmp::workloads::tpcc::generate(300, 7).expect("b"),
        ),
    ] {
        for (ra, rb) in a.records.iter().zip(&b.records) {
            assert_eq!(ra.features, rb.features, "{name} features");
            assert_eq!(ra.true_memory_mb(), rb.true_memory_mb(), "{name} labels");
            assert_eq!(ra.dbms_estimate_mb(), rb.dbms_estimate_mb(), "{name} estimates");
            assert_eq!(ra.sql(), rb.sql(), "{name} sql");
        }
    }
}

#[test]
fn different_seeds_change_the_corpus() {
    let a = learnedwmp::workloads::tpcds::generate(200, 1).expect("a");
    let b = learnedwmp::workloads::tpcds::generate(200, 2).expect("b");
    let identical =
        a.records.iter().zip(&b.records).all(|(x, y)| x.true_memory_mb() == y.true_memory_mb());
    assert!(!identical);
}

#[test]
fn trained_models_predict_identically_for_fixed_seeds() {
    let log = learnedwmp::workloads::tpcc::generate(800, 3).expect("log");
    let refs: Vec<&QueryRecord> = log.records.iter().collect();
    let train = |seed: u64| {
        LearnedWmp::builder()
            .model(ModelKind::Xgb)
            .seed(seed)
            .templates(TemplateSpec::PlanKMeans { k: 10, seed })
            .fit(&log)
            .expect("training")
    };
    let m1 = train(42);
    let m2 = train(42);
    for chunk in refs.chunks(10).take(5) {
        assert_eq!(
            m1.predict_resources(chunk).expect("p1"),
            m2.predict_resources(chunk).expect("p2")
        );
    }
}

#[test]
fn evaluation_reports_are_reproducible() {
    let log = learnedwmp::workloads::job::generate(500, 2).expect("log");
    let cfg = EvalConfig { k_templates: 15, ..Default::default() };
    let r1 = EvalContext::new(&log, cfg.clone()).evaluate_learned(ModelKind::Dt).expect("r1");
    let r2 = EvalContext::new(&log, cfg).evaluate_learned(ModelKind::Dt).expect("r2");
    assert_eq!(r1.rmse, r2.rmse);
    assert_eq!(r1.mape(), r2.mape());
    assert_eq!(r1.residuals, r2.residuals);
}

#[test]
fn split_seed_controls_the_partition() {
    let log = learnedwmp::workloads::tpcc::generate(500, 3).expect("log");
    let (a_train, _) = log.train_test_split(0.8, 1);
    let (b_train, _) = log.train_test_split(0.8, 1);
    let (c_train, _) = log.train_test_split(0.8, 2);
    assert_eq!(a_train, b_train);
    assert_ne!(a_train, c_train);
}
