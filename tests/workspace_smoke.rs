//! Workspace-wiring smoke test: every learner family trains end-to-end
//! through the facade on a tiny TPC-C log and predicts finite, positive
//! memory for a small workload. This guards the crate graph itself — facade
//! re-exports, core → mlkit/plan/workloads dependencies, and the five
//! `ModelKind` code paths — rather than model quality.

use learnedwmp::core::{LearnedWmp, ModelKind, TemplateSpec};
use learnedwmp::workloads::QueryRecord;

#[test]
fn every_model_kind_trains_and_predicts_positive_memory() {
    let log = learnedwmp::workloads::tpcc::generate(240, 11).expect("tpcc log");
    let train: Vec<&QueryRecord> = log.records.iter().collect();
    for kind in ModelKind::ALL {
        let model = LearnedWmp::builder()
            .model(kind)
            .templates(TemplateSpec::PlanKMeans { k: 6, seed: 42 })
            .fit(&log)
            .unwrap_or_else(|e| panic!("{kind:?} failed to train: {e}"));
        for workload in train.chunks(8).take(4) {
            let mb = model
                .predict_resources(workload)
                .unwrap_or_else(|e| panic!("{kind:?} failed to predict: {e}"))
                .memory_mb;
            assert!(mb.is_finite() && mb > 0.0, "{kind:?} predicted {mb} for a nonempty workload");
        }
    }
}
