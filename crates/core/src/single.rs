//! The SingleWMP baselines (paper §IV): per-query memory prediction summed
//! over the workload — both the ML variants (eq. 11) and the DBMS heuristic.

use std::time::Instant;

use wmp_mlkit::{Matrix, MlError, MlResult, Regressor};
use wmp_plan::{ResourceVector, N_RESOURCES};
use wmp_workloads::QueryRecord;

use crate::model::{Approach, ModelKind};
use crate::predictor::WorkloadPredictor;

/// A trained single-query model: plan features → per-query peak memory.
pub struct SingleWmp {
    model: ModelKind,
    regressor: Box<dyn Regressor>,
    /// Regressor fit time in milliseconds.
    pub fit_ms: f64,
    /// Number of training queries.
    pub n_train_queries: usize,
}

impl SingleWmp {
    /// Trains on individual queries (plan features, per-query labels).
    ///
    /// # Errors
    /// Propagates regression errors; fails on an empty training set.
    pub fn train(model: ModelKind, records: &[&QueryRecord]) -> MlResult<Self> {
        if records.is_empty() {
            return Err(MlError::EmptyInput("SingleWmp::train"));
        }
        let rows: Vec<Vec<f64>> = records.iter().map(|r| r.features.clone()).collect();
        let x = Matrix::from_rows(&rows)?;
        // One target column per resource axis, memory first.
        let targets: Vec<Vec<f64>> = (0..N_RESOURCES)
            .map(|t| records.iter().map(|r| r.resources.as_array()[t]).collect())
            .collect();
        let mut regressor = model.build_multi(Approach::Single, records.len(), N_RESOURCES);
        let t0 = Instant::now();
        regressor.fit_multi(&x, &targets)?;
        let fit_ms = t0.elapsed().as_secs_f64() * 1e3;
        Ok(SingleWmp { model, regressor, fit_ms, n_train_queries: records.len() })
    }

    /// The learner family.
    pub fn model(&self) -> ModelKind {
        self.model
    }
}

impl WorkloadPredictor for SingleWmp {
    fn name(&self) -> String {
        format!("SingleWMP-{}", self.model.label())
    }

    /// Workload prediction = componentwise Σ per-query predictions (paper
    /// eq. 11); the memory axis is the scalar per-query head summed.
    fn predict_resources(&self, queries: &[&QueryRecord]) -> MlResult<ResourceVector> {
        let mut total = ResourceVector::ZERO;
        for q in queries {
            total += ResourceVector::from_partial(&self.regressor.predict_row_multi(&q.features)?);
        }
        Ok(total)
    }

    // `predict_resources_many` uses the validating trait default: summing
    // per query has no batched fast path to exploit.

    fn footprint_bytes(&self) -> usize {
        wmp_mlkit::codec::encoded_len(|w| self.regressor.save_params(w)).unwrap_or(0)
    }
}

/// The state-of-practice baseline: the DBMS optimizer's heuristic estimate,
/// summed over the workload. No ML, no training.
#[derive(Debug, Clone, Copy, Default)]
pub struct SingleWmpDbms;

impl WorkloadPredictor for SingleWmpDbms {
    fn name(&self) -> String {
        "SingleWMP-DBMS".to_string()
    }

    /// Workload estimate = componentwise Σ per-query optimizer estimates
    /// (the cost-model side of the heuristic).
    fn predict_resources(&self, queries: &[&QueryRecord]) -> MlResult<ResourceVector> {
        Ok(queries.iter().map(|q| q.dbms_estimate).sum())
    }

    fn footprint_bytes(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{batch_workloads, LabelMode};

    fn log() -> wmp_workloads::QueryLog {
        wmp_workloads::tpcc::generate(500, 3).unwrap()
    }

    /// One query scored as a one-query workload.
    fn per_query(m: &SingleWmp, r: &&QueryRecord) -> ResourceVector {
        m.predict_resources(std::slice::from_ref(r)).unwrap()
    }

    #[test]
    fn trains_and_sums_per_query_predictions() {
        let log = log();
        let refs: Vec<&QueryRecord> = log.records.iter().collect();
        let m = SingleWmp::train(ModelKind::Xgb, &refs).unwrap();
        assert_eq!(m.n_train_queries, 500);
        assert!(m.fit_ms > 0.0);
        let w = m.predict_resources(&refs[..10]).unwrap().memory_mb;
        let parts: f64 = refs[..10].iter().map(|r| per_query(&m, r).memory_mb).sum();
        assert!((w - parts).abs() < 1e-9, "workload prediction is the sum of queries");
    }

    #[test]
    fn single_query_accuracy_is_reasonable() {
        let log = log();
        let refs: Vec<&QueryRecord> = log.records.iter().collect();
        let m = SingleWmp::train(ModelKind::Rf, &refs).unwrap();
        let preds: Vec<f64> = refs.iter().map(|r| per_query(&m, r).memory_mb).collect();
        let y: Vec<f64> = refs.iter().map(|r| r.true_memory_mb()).collect();
        let r2 = wmp_mlkit::metrics::r2(&y, &preds).unwrap();
        assert!(r2 > 0.7, "in-sample r2 = {r2}");
    }

    #[test]
    fn resource_predictions_cover_all_axes_and_sum_over_the_workload() {
        let log = log();
        let refs: Vec<&QueryRecord> = log.records.iter().collect();
        let m = SingleWmp::train(ModelKind::Rf, &refs).unwrap();
        let one = per_query(&m, &refs[0]);
        assert!(one.is_finite(), "{one}");
        // Memory head is the scalar regressor prediction.
        let head0 = m.regressor.predict_row(&refs[0].features).unwrap();
        assert_eq!(one.memory_mb.to_bits(), head0.to_bits());
        let w = m.predict_resources(&refs[..10]).unwrap();
        let parts: ResourceVector = refs[..10].iter().map(|r| per_query(&m, r)).sum();
        assert!(w.abs_diff(parts).as_array().iter().all(|d| *d < 1e-9));
        assert!(w.cpu_ms > 0.0 && w.io_pages > 0.0, "{w}");
        // In-sample CPU accuracy is meaningful, not noise.
        let y: Vec<f64> = refs.iter().map(|r| r.resources.cpu_ms).collect();
        let p: Vec<f64> = refs.iter().map(|r| per_query(&m, r).cpu_ms).collect();
        let r2 = wmp_mlkit::metrics::r2(&y, &p).unwrap();
        assert!(r2 > 0.7, "in-sample cpu r2 = {r2}");
    }

    #[test]
    fn dbms_baseline_sums_resource_estimates() {
        let log = log();
        let refs: Vec<&QueryRecord> = log.records.iter().collect();
        let expected: ResourceVector = refs[..10].iter().map(|r| r.dbms_estimate).sum();
        let got = SingleWmpDbms.predict_resources(&refs[..10]).unwrap();
        assert!(got.abs_diff(expected).as_array().iter().all(|d| *d < 1e-9));
        // The batched path sums each workload's members the same way.
        let ws = batch_workloads(&refs, 10, 0, LabelMode::Sum);
        let preds = SingleWmpDbms.predict_resources_many(&refs, &ws).unwrap();
        assert_eq!(preds.len(), ws.len());
        for (w, p) in ws.iter().zip(&preds) {
            let expected: ResourceVector =
                w.query_indices.iter().map(|&i| refs[i].dbms_estimate).sum();
            assert!(p.memory_mb > 0.0, "{p}");
            assert!(p.abs_diff(expected).as_array().iter().all(|d| *d < 1e-9), "{p} vs {expected}");
        }
    }

    #[test]
    fn empty_training_set_errors() {
        let empty: Vec<&QueryRecord> = Vec::new();
        assert!(SingleWmp::train(ModelKind::Ridge, &empty).is_err());
    }
}
