//! The redesigned public API, exercised through the facade: builder
//! training with validation, the uniform `WorkloadPredictor` serving
//! surface, the batched fast path, and warm-starting the online loop from a
//! persisted artifact.

use learnedwmp::core::{
    batch_workloads, LabelMode, LearnedWmp, LearnedWmpConfig, ModelKind, OnlinePolicy, OnlineWmp,
    RetrainOutcome, SingleWmp, SingleWmpDbms, TemplateSpec, WorkloadPredictor,
};
use learnedwmp::workloads::QueryRecord;

#[test]
fn a_serving_daemon_shape_holds_every_family_behind_one_trait() {
    let log = learnedwmp::workloads::tpcc::generate(500, 7).expect("log");
    let refs: Vec<&QueryRecord> = log.records.iter().collect();
    let learned = LearnedWmp::builder()
        .model(ModelKind::Xgb)
        .templates(TemplateSpec::PlanKMeans { k: 10, seed: 42 })
        .fit(&log)
        .expect("learned");
    let single = SingleWmp::train(ModelKind::Xgb, &refs).expect("single");

    let fleet: Vec<Box<dyn WorkloadPredictor>> =
        vec![Box::new(learned), Box::new(single), Box::new(SingleWmpDbms)];
    let workloads = batch_workloads(&refs, 10, 1, LabelMode::Sum);
    for p in &fleet {
        let preds = p.predict_resources_many(&refs, &workloads).expect("batched");
        assert_eq!(preds.len(), workloads.len(), "{}", p.name());
        assert!(preds.iter().all(|v| v.is_finite() && v.memory_mb > 0.0), "{}", p.name());
    }
    let names: Vec<String> = fleet.iter().map(|p| p.name()).collect();
    assert_eq!(names, ["LearnedWMP-XGB", "SingleWMP-XGB", "SingleWMP-DBMS"]);
}

#[test]
fn builder_validates_before_any_training_work() {
    let log = learnedwmp::workloads::tpcc::generate(60, 1).expect("log");
    assert!(LearnedWmp::builder().batch_size(0).fit(&log).is_err());
    assert!(LearnedWmp::builder()
        .templates(TemplateSpec::PlanKMeans { k: 0, seed: 1 })
        .fit(&log)
        .is_err());
    assert!(LearnedWmp::builder()
        .templates(TemplateSpec::Dbscan { eps: -1.0, min_pts: 3 })
        .fit(&log)
        .is_err());
}

#[test]
fn batched_fast_path_agrees_with_per_workload_calls() {
    let log = learnedwmp::workloads::job::generate(500, 3).expect("log");
    let refs: Vec<&QueryRecord> = log.records.iter().collect();
    let model = LearnedWmp::builder()
        .model(ModelKind::Rf)
        .templates(TemplateSpec::PlanKMeans { k: 12, seed: 9 })
        .fit(&log)
        .expect("training");
    // Overlapping batches: the memoized assignments must not leak between
    // differently-composed workloads.
    let mut workloads = batch_workloads(&refs, 10, 1, LabelMode::Sum);
    workloads.extend(batch_workloads(&refs, 10, 2, LabelMode::Sum));
    let batched = model.predict_resources_many(&refs, &workloads).expect("batched");
    for (w, b) in workloads.iter().zip(&batched) {
        let queries: Vec<&QueryRecord> = w.query_indices.iter().map(|&i| refs[i]).collect();
        assert_eq!(
            model.predict_resources(&queries).expect("single").as_array().map(f64::to_bits),
            b.as_array().map(f64::to_bits),
            "fast path must be bit-identical to the per-workload path"
        );
    }
}

#[test]
fn online_loop_warm_starts_from_a_shipped_artifact() {
    let history = learnedwmp::workloads::tpcc::generate(600, 21).expect("history");
    let offline = LearnedWmp::builder()
        .model(ModelKind::Xgb)
        .templates(TemplateSpec::PlanKMeans { k: 10, seed: 2 })
        .fit(&history)
        .expect("offline training");
    let mut artifact = Vec::new();
    offline.save_to_writer(&mut artifact).expect("save");

    // A fresh process: load the artifact and seed the online loop — it can
    // predict immediately, before observing a single query.
    let shipped = LearnedWmp::load_from_reader(&mut artifact.as_slice()).expect("load");
    let mut online = OnlineWmp::new(
        LearnedWmpConfig::default(),
        OnlinePolicy { retrain_every: 200, window: 2_000, k_templates: 10 },
    );
    online.warm_start(shipped);
    let probe: Vec<&QueryRecord> = history.records[..10].iter().collect();
    assert_eq!(
        online.predict_resources(&probe).expect("warm prediction").as_array().map(f64::to_bits),
        offline.predict_resources(&probe).expect("offline prediction").as_array().map(f64::to_bits),
        "a warm-started loop serves the shipped model verbatim"
    );

    // The loop keeps learning: enough new observations trigger a retrain
    // with a typed outcome.
    let fresh = learnedwmp::workloads::tpcc::generate(200, 33).expect("fresh");
    let mut outcomes = Vec::new();
    for r in &fresh.records {
        outcomes.push(online.observe(r.clone(), &fresh.catalog).expect("observe"));
    }
    assert_eq!(outcomes.iter().filter(|o| o.retrained()).count(), 1);
    assert!(matches!(outcomes.last(), Some(RetrainOutcome::Retrained { pass: 1, .. })));
    assert_eq!(online.retrain_count(), 1);
    assert!(online.predict_resources(&probe).expect("post-retrain").memory_mb > 0.0);
}

#[test]
fn online_predictor_also_serves_through_the_trait() {
    let log = learnedwmp::workloads::tpcc::generate(300, 8).expect("log");
    let model = LearnedWmp::builder()
        .model(ModelKind::Ridge)
        .templates(TemplateSpec::PlanKMeans { k: 8, seed: 4 })
        .fit(&log)
        .expect("training");
    let mut online = OnlineWmp::new(LearnedWmpConfig::default(), OnlinePolicy::default());
    let cold: &dyn WorkloadPredictor = &online;
    assert_eq!(cold.name(), "OnlineWMP-untrained");
    assert_eq!(cold.footprint_bytes(), 0);
    online.warm_start(model);
    let warm: &dyn WorkloadPredictor = &online;
    assert_eq!(warm.name(), "OnlineLearnedWMP-Ridge");
    assert!(warm.footprint_bytes() > 0);
    let probe: Vec<&QueryRecord> = log.records[..10].iter().collect();
    assert!(warm.predict_resources(&probe).expect("prediction").memory_mb > 0.0);
}
