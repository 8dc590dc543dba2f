//! The unified serving surface: every predictor family — [`crate::LearnedWmp`],
//! the [`crate::SingleWmp`] ML baselines, the [`crate::SingleWmpDbms`]
//! heuristic, and the self-retraining [`crate::OnlineWmp`] — answers
//! workload-demand questions through one [`WorkloadPredictor`] trait, with
//! one predict method per input shape:
//! [`WorkloadPredictor::predict_resources`] for one workload and
//! [`WorkloadPredictor::predict_resources_many`] for a batched test set.
//!
//! This is the interface a serving daemon, the evaluation harness, and the
//! figure binaries program against: hold a `Box<dyn WorkloadPredictor>` (or a
//! `&dyn WorkloadPredictor`), call [`WorkloadPredictor::predict_resources`]
//! per arriving batch (memory-only callers read `.memory_mb`), and report
//! [`WorkloadPredictor::name`] / [`WorkloadPredictor::footprint_bytes`] in
//! dashboards — without special-casing the model family at any call site.
//! Each family implements the trait next to its own type.

use wmp_mlkit::MlResult;
use wmp_plan::ResourceVector;
use wmp_workloads::QueryRecord;

use crate::workload::Workload;

/// Resolves a workload's `query_indices` against the record slice, rejecting
/// out-of-range indices with a typed error instead of panicking — a serving
/// daemon must survive a malformed workload description.
///
/// # Errors
/// Returns [`wmp_mlkit::MlError::DimensionMismatch`] naming the bad index.
pub(crate) fn gather_queries<'r>(
    records: &[&'r QueryRecord],
    workload: &Workload,
) -> MlResult<Vec<&'r QueryRecord>> {
    workload
        .query_indices
        .iter()
        .map(|&i| {
            records.get(i).copied().ok_or_else(|| {
                wmp_mlkit::error::dim_mismatch(
                    format!("query index < {}", records.len()),
                    format!("index {i}"),
                )
            })
        })
        .collect()
}

/// A trained (or heuristic) model that predicts the collective resource
/// demand of a workload — the common contract over the paper's three
/// predictor families (§IV: LearnedWMP, SingleWMP, SingleWMP-DBMS).
///
/// The bound is `Send + Sync`: a trained predictor is immutable at serving
/// time, so one instance can be shared across concurrent request threads —
/// typically behind a [`crate::handle::PredictorHandle`], which adds atomic
/// hot-swap of the underlying model on top of the shared reads.
pub trait WorkloadPredictor: Send + Sync {
    /// Stable display name, e.g. `"LearnedWMP-XGB"` or `"SingleWMP-DBMS"`.
    fn name(&self) -> String;

    /// Predicts the full resource demand of one workload — memory (MB), CPU
    /// time (ms), and IO (pages). Memory-only call sites read `.memory_mb`:
    /// it is the paper's memory predictor, bit for bit.
    ///
    /// Families without a model for an axis (and models trained before
    /// multi-resource labels) report zero on that axis.
    ///
    /// # Errors
    /// Propagates assignment/prediction errors; models that must be trained
    /// first return [`wmp_mlkit::MlError::NotFitted`].
    fn predict_resources(&self, queries: &[&QueryRecord]) -> MlResult<ResourceVector>;

    /// Predicts every workload of a batched test set (indices into
    /// `records`). The default resolves and validates indices per workload
    /// and calls [`WorkloadPredictor::predict_resources`]; implementations
    /// with a batched fast path may override it.
    ///
    /// # Errors
    /// Propagates per-workload errors, and rejects workloads whose
    /// `query_indices` fall outside `records` with a
    /// [`wmp_mlkit::MlError::DimensionMismatch`] instead of panicking.
    fn predict_resources_many(
        &self,
        records: &[&QueryRecord],
        workloads: &[Workload],
    ) -> MlResult<Vec<ResourceVector>> {
        workloads.iter().map(|w| self.predict_resources(&gather_queries(records, w)?)).collect()
    }

    /// Model size in bytes — the quantity behind the paper's Fig. 8: the
    /// number of bytes the codec writes for this model (counted with
    /// [`wmp_mlkit::codec::encoded_len`]), so it equals the persisted size.
    /// A model with no persisted form reports 0: the DBMS heuristic, an
    /// untrained [`crate::OnlineWmp`], and a LearnedWMP whose custom
    /// template learner has no codec tag.
    fn footprint_bytes(&self) -> usize;

    /// Maps one query to the model's template id, when the model has a
    /// notion of templates (`None` otherwise — the default, used by the
    /// SingleWMP families). Observability hooks use this to track the live
    /// template distribution for drift detection without downcasting.
    ///
    /// # Errors
    /// Propagates assignment errors from template-based models.
    fn assign_template(&self, _query: &QueryRecord) -> MlResult<Option<usize>> {
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use wmp_mlkit::MlError;

    use super::*;
    use crate::builder::TemplateSpec;
    use crate::handle::PredictorHandle;
    use crate::learned::LearnedWmp;
    use crate::model::ModelKind;
    use crate::online::{OnlinePolicy, OnlineWmp};
    use crate::single::{SingleWmp, SingleWmpDbms};
    use crate::workload::{batch_workloads, LabelMode};

    /// One trained member of every family besides the stateless
    /// [`SingleWmpDbms`]: LearnedWMP, SingleWMP, an OnlineWMP after one
    /// retrain, and a handle over a LearnedWMP.
    fn families(
        log: &wmp_workloads::QueryLog,
    ) -> (LearnedWmp, SingleWmp, OnlineWmp, PredictorHandle) {
        let refs: Vec<&QueryRecord> = log.records.iter().collect();
        let learned = LearnedWmp::builder()
            .model(ModelKind::Xgb)
            .templates(TemplateSpec::PlanKMeans { k: 8, seed: 1 })
            .fit(log)
            .unwrap();
        let single = SingleWmp::train(ModelKind::Ridge, &refs).unwrap();
        let policy = OnlinePolicy { retrain_every: usize::MAX, window: refs.len(), k_templates: 6 };
        let mut online = OnlineWmp::new(learned.config().clone(), policy);
        for r in &log.records {
            let _ = online.observe(r.clone(), &log.catalog).unwrap();
        }
        online.retrain(&log.catalog).unwrap();
        let handle = PredictorHandle::new(learned.codec_clone().unwrap());
        (learned, single, online, handle)
    }

    #[test]
    fn all_families_serve_through_one_trait_object() {
        let log = wmp_workloads::tpcc::generate(400, 5).unwrap();
        let refs: Vec<&QueryRecord> = log.records.iter().collect();
        let (learned, single, online, handle) = families(&log);
        let predictors: Vec<Box<dyn WorkloadPredictor>> = vec![
            Box::new(learned),
            Box::new(single),
            Box::new(SingleWmpDbms),
            Box::new(online),
            Box::new(handle),
        ];
        let ws = batch_workloads(&refs, 10, 3, LabelMode::Sum);
        for p in &predictors {
            let one = p.predict_resources(&refs[..10]).unwrap();
            assert!(one.is_finite() && one.memory_mb > 0.0, "{}: {one}", p.name());
            assert!(one.cpu_ms > 0.0, "{}: cpu axis must be modeled", p.name());
            let many = p.predict_resources_many(&refs, &ws).unwrap();
            assert_eq!(many.len(), ws.len(), "{}", p.name());
            assert!(many.iter().all(|v| v.is_finite()), "{}", p.name());
            assert_eq!(p.footprint_bytes() == 0, p.name() == "SingleWMP-DBMS", "{}", p.name());
        }
        let names: Vec<String> = predictors.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            [
                "LearnedWMP-XGB",
                "SingleWMP-Ridge",
                "SingleWMP-DBMS",
                "OnlineLearnedWMP-XGB",
                "LearnedWMP-XGB"
            ]
        );
    }

    #[test]
    fn batched_trait_path_matches_per_workload_path() {
        let log = wmp_workloads::tpcc::generate(400, 5).unwrap();
        let refs: Vec<&QueryRecord> = log.records.iter().collect();
        let (learned, single, online, handle) = families(&log);
        let predictors: [&dyn WorkloadPredictor; 5] =
            [&learned, &single, &SingleWmpDbms, &online, &handle];
        let ws = batch_workloads(&refs, 10, 9, LabelMode::Sum);
        for p in predictors {
            let many = p.predict_resources_many(&refs, &ws).unwrap();
            assert_eq!(many.len(), ws.len(), "{}", p.name());
            for (w, batched) in ws.iter().zip(&many) {
                let one = p.predict_resources(&gather_queries(&refs, w).unwrap()).unwrap();
                assert_eq!(
                    one.as_array().map(f64::to_bits),
                    batched.as_array().map(f64::to_bits),
                    "{}",
                    p.name()
                );
            }
        }
    }

    #[test]
    fn out_of_range_query_indices_are_typed_errors_for_every_family() {
        let log = wmp_workloads::tpcc::generate(200, 3).unwrap();
        let refs: Vec<&QueryRecord> = log.records.iter().collect();
        let (learned, single, online, handle) = families(&log);
        let bad = [Workload { query_indices: vec![0, refs.len()], y: ResourceVector::ZERO }];
        let concrete = [
            learned.predict_resources_many(&refs, &bad),
            single.predict_resources_many(&refs, &bad),
            SingleWmpDbms.predict_resources_many(&refs, &bad),
            online.predict_resources_many(&refs, &bad),
            handle.predict_resources_many(&refs, &bad),
        ];
        let predictors: [&dyn WorkloadPredictor; 5] =
            [&learned, &single, &SingleWmpDbms, &online, &handle];
        let through_dyn = predictors.map(|p| p.predict_resources_many(&refs, &bad));
        for result in concrete.into_iter().chain(through_dyn) {
            assert!(matches!(result, Err(MlError::DimensionMismatch { .. })), "{result:?}");
        }
    }
}
