//! The LearnedWMP model (paper §III): training pipeline TR3–TR6 and the
//! inference pipeline IN1–IN5.

use std::time::Instant;

use wmp_mlkit::{Matrix, MlError, MlResult, Regressor};
use wmp_plan::{Catalog, ResourceVector, N_RESOURCES};
use wmp_workloads::QueryRecord;

use crate::histogram::{build_histogram, HistogramMode};
use crate::model::{Approach, ModelKind};
use crate::predictor::WorkloadPredictor;
use crate::template::TemplateLearner;
use crate::workload::{batch_workloads, LabelMode, Workload};

/// LearnedWMP hyper-parameters.
#[derive(Debug, Clone)]
pub struct LearnedWmpConfig {
    /// Learner family for the distribution regressor (TR6).
    pub model: ModelKind,
    /// Workload batch size `s` (TR4; the paper settles on 10).
    pub batch_size: usize,
    /// Label aggregation (sum per the paper's prose; max as ablation).
    pub label_mode: LabelMode,
    /// Histogram normalization (counts per the paper; frequencies ablation).
    pub histogram_mode: HistogramMode,
    /// Seed for workload batching.
    pub seed: u64,
}

impl Default for LearnedWmpConfig {
    fn default() -> Self {
        LearnedWmpConfig {
            model: ModelKind::Xgb,
            batch_size: 10,
            label_mode: LabelMode::Sum,
            histogram_mode: HistogramMode::Counts,
            seed: 42,
        }
    }
}

/// Wall-clock breakdown of a training run.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrainTimings {
    /// TR3: template learning (k-means over plan features).
    pub template_ms: f64,
    /// TR4–TR5: batching + histogram construction.
    pub histogram_ms: f64,
    /// TR6: regressor fitting — the number comparable to the paper's Fig. 6.
    pub fit_ms: f64,
}

impl TrainTimings {
    /// End-to-end training time.
    pub fn total_ms(&self) -> f64 {
        self.template_ms + self.histogram_ms + self.fit_ms
    }
}

/// A trained LearnedWMP model: templates + distribution regressor.
pub struct LearnedWmp {
    config: LearnedWmpConfig,
    templates: Box<dyn TemplateLearner>,
    regressor: Box<dyn Regressor>,
    /// Training wall-clock breakdown.
    pub timings: TrainTimings,
    /// Number of training workloads the regressor saw.
    pub n_train_workloads: usize,
}

impl std::fmt::Debug for LearnedWmp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LearnedWmp")
            .field("config", &self.config)
            .field("templates", &self.templates.name())
            .field("regressor", &self.regressor.name())
            .field("n_train_workloads", &self.n_train_workloads)
            .field("timings", &self.timings)
            .finish()
    }
}

impl LearnedWmp {
    /// Starts a validated, fluent construction of a LearnedWMP model — the
    /// recommended way to train:
    ///
    /// ```
    /// use learnedwmp_core::{LearnedWmp, ModelKind, TemplateSpec};
    /// let log = wmp_workloads::tpcc::generate(200, 1).unwrap();
    /// let model = LearnedWmp::builder()
    ///     .model(ModelKind::Ridge)
    ///     .templates(TemplateSpec::PlanKMeans { k: 8, seed: 42 })
    ///     .fit(&log)
    ///     .unwrap();
    /// # let _ = model;
    /// ```
    pub fn builder() -> crate::builder::LearnedWmpBuilder {
        crate::builder::LearnedWmpBuilder::new()
    }

    /// The shared training pipeline behind the builder (TR3–TR6). When
    /// `workloads` is `None`, fixed-size batches are drawn from the config;
    /// `Some` supports the variable-length-workload extension (§I: "the
    /// design can easily be extended to work with variable-length
    /// workloads") via [`crate::workload::batch_workloads_variable`].
    pub(crate) fn fit_impl(
        config: LearnedWmpConfig,
        mut templates: Box<dyn TemplateLearner>,
        records: &[&QueryRecord],
        catalog: &Catalog,
        workloads: Option<Vec<crate::workload::Workload>>,
    ) -> MlResult<Self> {
        if records.is_empty() {
            return Err(MlError::EmptyInput("LearnedWmp::train"));
        }
        // Training features must agree on one width: plan-feature templates
        // learn centroids of that width, and a mixed-width log means the
        // featurizer changed mid-collection — a corrupt training set.
        let width = records[0].features.len();
        if let Some(bad) = records.iter().find(|r| r.features.len() != width) {
            return Err(wmp_mlkit::error::dim_mismatch(
                format!("every record featurized to {width} values (record 0's width)"),
                format!("record id {} has {} values", bad.id, bad.features.len()),
            ));
        }
        let workloads = workloads.unwrap_or_else(|| {
            batch_workloads(records, config.batch_size, config.seed, config.label_mode)
        });
        // TR3: learn templates.
        let t0 = Instant::now();
        templates.fit(records, catalog)?;
        let template_ms = t0.elapsed().as_secs_f64() * 1e3;

        // TR4–TR5: histograms over the provided workloads.
        let t1 = Instant::now();
        if workloads.is_empty() {
            return Err(MlError::InvalidHyperparameter(format!(
                "batch_size {} exceeds training-set size {}",
                config.batch_size,
                records.len()
            )));
        }
        let assignments: Vec<usize> =
            records.iter().map(|r| templates.assign(r)).collect::<MlResult<_>>()?;
        let k = templates.n_templates();
        let rows: Vec<Vec<f64>> = workloads
            .iter()
            .map(|w| {
                let member: Vec<usize> = w
                    .query_indices
                    .iter()
                    .map(|&i| {
                        assignments.get(i).copied().ok_or_else(|| {
                            wmp_mlkit::error::dim_mismatch(
                                format!("query index < {}", records.len()),
                                format!("index {i}"),
                            )
                        })
                    })
                    .collect::<MlResult<_>>()?;
                build_histogram(&member, k, config.histogram_mode)
            })
            .collect::<MlResult<_>>()?;
        let x = Matrix::from_rows(&rows)?;
        // One target column per resource axis, memory first so the scalar
        // prediction path (head 0) remains the paper's memory predictor.
        let targets: Vec<Vec<f64>> = (0..N_RESOURCES)
            .map(|t| workloads.iter().map(|w| w.y.as_array()[t]).collect())
            .collect();
        let histogram_ms = t1.elapsed().as_secs_f64() * 1e3;

        // TR6: train the multi-output distribution regressor.
        let mut regressor =
            config.model.build_multi(Approach::Learned, workloads.len(), N_RESOURCES);
        let t2 = Instant::now();
        regressor.fit_multi(&x, &targets)?;
        let fit_ms = t2.elapsed().as_secs_f64() * 1e3;

        Ok(LearnedWmp {
            config,
            templates,
            regressor,
            timings: TrainTimings { template_ms, histogram_ms, fit_ms },
            n_train_workloads: workloads.len(),
        })
    }

    /// Inference (IN1–IN5): predicts the full resource demand of one
    /// workload — memory (MB), CPU time (ms), and IO (pages).
    ///
    /// Models trained before multi-resource labels predict only the memory
    /// axis; the CPU and IO components come back as zero
    /// ([`ResourceVector::from_partial`]), so v1 artifacts keep serving.
    ///
    /// # Errors
    /// Propagates assignment/prediction errors.
    pub fn predict_resources(&self, queries: &[&QueryRecord]) -> MlResult<ResourceVector> {
        // Sized up front: collecting through `MlResult` gives no size hint,
        // and regrowth would cost an allocation per doubling.
        let mut assignments = Vec::with_capacity(queries.len());
        for r in queries {
            assignments.push(self.templates.assign(r)?);
        }
        let h = build_histogram(
            &assignments,
            self.templates.n_templates(),
            self.config.histogram_mode,
        )?;
        Ok(ResourceVector::from_partial(&self.regressor.predict_row_multi(&h)?))
    }

    /// The normalized template distribution of a record set — each entry is
    /// the fraction of `records` assigned to that template. Computed over
    /// the training log, this is the reference distribution a
    /// `wmp_obs::DriftMonitor` compares live traffic against.
    ///
    /// # Errors
    /// Propagates assignment errors; fails on an empty record set.
    pub fn template_distribution(&self, records: &[&QueryRecord]) -> MlResult<Vec<f64>> {
        if records.is_empty() {
            return Err(wmp_mlkit::error::dim_mismatch("at least one record", "0 records"));
        }
        let mut counts = vec![0.0; self.templates.n_templates()];
        for r in records {
            let a = self.templates.assign(r)?;
            if a < counts.len() {
                counts[a] += 1.0;
            }
        }
        let total = records.len() as f64;
        for c in &mut counts {
            *c /= total;
        }
        Ok(counts)
    }

    /// The trained distribution regressor.
    pub fn regressor(&self) -> &dyn Regressor {
        self.regressor.as_ref()
    }

    /// The fitted template learner.
    pub fn templates(&self) -> &dyn TemplateLearner {
        self.templates.as_ref()
    }

    /// The configuration used at training time.
    pub fn config(&self) -> &LearnedWmpConfig {
        &self.config
    }

    /// Reassembles a model from persisted parts (the codec's loader).
    pub(crate) fn from_parts(
        config: LearnedWmpConfig,
        templates: Box<dyn TemplateLearner>,
        regressor: Box<dyn Regressor>,
        timings: TrainTimings,
        n_train_workloads: usize,
    ) -> Self {
        LearnedWmp { config, templates, regressor, timings, n_train_workloads }
    }
}

impl WorkloadPredictor for LearnedWmp {
    fn name(&self) -> String {
        format!("LearnedWMP-{}", self.config.model.label())
    }

    fn predict_resources(&self, queries: &[&QueryRecord]) -> MlResult<ResourceVector> {
        LearnedWmp::predict_resources(self, queries)
    }

    /// Batched inference: each distinct record is assigned to its template
    /// at most once (memoized by index), so overlapping workloads — and the
    /// common case where every record appears in some workload — never
    /// re-run IN3 per membership.
    fn predict_resources_many(
        &self,
        records: &[&QueryRecord],
        workloads: &[Workload],
    ) -> MlResult<Vec<ResourceVector>> {
        let mut assignments: Vec<Option<usize>> = vec![None; records.len()];
        let k = self.templates.n_templates();
        let mut member = Vec::new();
        workloads
            .iter()
            .map(|w| {
                member.clear();
                for &i in &w.query_indices {
                    let record = *records.get(i).ok_or_else(|| {
                        wmp_mlkit::error::dim_mismatch(
                            format!("query index < {}", records.len()),
                            format!("index {i}"),
                        )
                    })?;
                    let a = match assignments[i] {
                        Some(a) => a,
                        None => *assignments[i].insert(self.templates.assign(record)?),
                    };
                    member.push(a);
                }
                let h = build_histogram(&member, k, self.config.histogram_mode)?;
                Ok(ResourceVector::from_partial(&self.regressor.predict_row_multi(&h)?))
            })
            .collect()
    }

    /// The whole artifact: config, template learner and regressor.
    fn footprint_bytes(&self) -> usize {
        wmp_mlkit::codec::encoded_len(|w| self.save_to_writer(w)).unwrap_or(0)
    }

    fn assign_template(&self, query: &QueryRecord) -> MlResult<Option<usize>> {
        self.templates.assign(query).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trained(model: ModelKind) -> (wmp_workloads::QueryLog, LearnedWmp) {
        let log = wmp_workloads::tpcc::generate(600, 9).unwrap();
        let wmp = LearnedWmp::builder()
            .model(model)
            .templates(crate::builder::TemplateSpec::PlanKMeans { k: 10, seed: 1 })
            .fit(&log)
            .unwrap();
        (log, wmp)
    }

    #[test]
    fn trains_and_predicts_positive_memory() {
        let (log, wmp) = trained(ModelKind::Xgb);
        let refs: Vec<&QueryRecord> = log.records.iter().collect();
        let pred = wmp.predict_resources(&refs[..10]).unwrap().memory_mb;
        assert!(pred.is_finite());
        assert!(pred > 0.0, "memory predictions must be positive, got {pred}");
        assert_eq!(wmp.n_train_workloads, 60);
    }

    #[test]
    fn predictions_track_workload_composition() {
        // A workload of 10 heavy queries must predict more than 10 light ones.
        let (log, wmp) = trained(ModelKind::Xgb);
        let mut sorted: Vec<&QueryRecord> = log.records.iter().collect();
        sorted.sort_by(|a, b| a.true_memory_mb().partial_cmp(&b.true_memory_mb()).unwrap());
        let light = &sorted[..10];
        let heavy = &sorted[sorted.len() - 10..];
        let p_light = wmp.predict_resources(light).unwrap().memory_mb;
        let p_heavy = wmp.predict_resources(heavy).unwrap().memory_mb;
        assert!(p_heavy > p_light, "heavy {p_heavy} vs light {p_light}");
    }

    #[test]
    fn reasonable_in_sample_accuracy() {
        let (log, wmp) = trained(ModelKind::Xgb);
        let refs: Vec<&QueryRecord> = log.records.iter().collect();
        let ws = batch_workloads(&refs, 10, 7, LabelMode::Sum);
        let preds: Vec<f64> =
            wmp.predict_resources_many(&refs, &ws).unwrap().iter().map(|r| r.memory_mb).collect();
        let y: Vec<f64> = ws.iter().map(Workload::y_mb).collect();
        let mape = wmp_mlkit::metrics::mape(&y, &preds).unwrap();
        assert!(mape < 60.0, "in-sample MAPE = {mape}%");
    }

    #[test]
    fn predicts_all_three_resources() {
        let (log, wmp) = trained(ModelKind::Xgb);
        let refs: Vec<&QueryRecord> = log.records.iter().collect();
        let r = wmp.predict_resources(&refs[..10]).unwrap();
        assert!(r.is_finite(), "{r}");
        assert!(r.memory_mb > 0.0 && r.cpu_ms > 0.0 && r.io_pages > 0.0, "{r}");
        // The memory axis is exactly the scalar regressor path (head 0).
        let assignments: Vec<usize> =
            refs[..10].iter().map(|q| wmp.templates().assign(q)).collect::<MlResult<_>>().unwrap();
        let h = build_histogram(&assignments, wmp.templates().n_templates(), HistogramMode::Counts)
            .unwrap();
        assert_eq!(r.memory_mb.to_bits(), wmp.regressor().predict_row(&h).unwrap().to_bits());
        // Batched full-resource inference matches the per-workload path.
        let ws = batch_workloads(&refs, 10, 7, LabelMode::Sum);
        let many = wmp.predict_resources_many(&refs, &ws).unwrap();
        assert_eq!(many.len(), ws.len());
        for (w, vec_pred) in ws.iter().zip(&many) {
            let qs: Vec<&QueryRecord> = w.query_indices.iter().map(|&i| refs[i]).collect();
            assert_eq!(wmp.predict_resources(&qs).unwrap(), *vec_pred);
        }
    }

    #[test]
    fn cpu_and_io_predictions_are_usefully_accurate_in_sample() {
        let (log, wmp) = trained(ModelKind::Xgb);
        let refs: Vec<&QueryRecord> = log.records.iter().collect();
        let ws = batch_workloads(&refs, 10, 7, LabelMode::Sum);
        let preds = wmp.predict_resources_many(&refs, &ws).unwrap();
        // TPC-C per-query CPU is heavily skewed (a few analytic-ish queries
        // dominate), which makes MAPE explode on near-zero-label workloads;
        // r2 is the meaningful "explains the variance" check here.
        for (axis, label) in [(1, "cpu_ms"), (2, "io_pages")] {
            let y: Vec<f64> = ws.iter().map(|w| w.y.as_array()[axis]).collect();
            let p: Vec<f64> = preds.iter().map(|r| r.as_array()[axis]).collect();
            let r2 = wmp_mlkit::metrics::r2(&y, &p).unwrap();
            assert!(r2 > 0.5, "in-sample {label} r2 = {r2}");
        }
    }

    #[test]
    fn mixed_feature_widths_are_rejected_at_train_time() {
        let log = wmp_workloads::tpcc::generate(60, 2).unwrap();
        let mut records = log.records.clone();
        records[7].features.truncate(4);
        let refs: Vec<&QueryRecord> = records.iter().collect();
        let err = LearnedWmp::builder()
            .model(ModelKind::Ridge)
            .templates(crate::builder::TemplateSpec::PlanKMeans { k: 4, seed: 0 })
            .fit_refs(&refs, &log.catalog)
            .unwrap_err();
        assert!(err.to_string().contains("width"), "{err}");
    }

    #[test]
    fn timings_are_recorded() {
        let (_, wmp) = trained(ModelKind::Ridge);
        assert!(wmp.timings.template_ms > 0.0);
        assert!(wmp.timings.fit_ms > 0.0);
        assert!(wmp.timings.total_ms() >= wmp.timings.fit_ms);
        assert!(wmp.footprint_bytes() > 0);
    }

    #[test]
    fn errors_on_empty_or_oversized_batch() {
        let log = wmp_workloads::tpcc::generate(20, 9).unwrap();
        let refs: Vec<&QueryRecord> = log.records.iter().collect();
        let empty: Vec<&QueryRecord> = Vec::new();
        let spec = crate::builder::TemplateSpec::PlanKMeans { k: 4, seed: 0 };
        assert!(LearnedWmp::builder()
            .templates(spec.clone())
            .fit_refs(&empty, &log.catalog)
            .is_err());
        assert!(LearnedWmp::builder()
            .templates(spec)
            .batch_size(100)
            .fit_refs(&refs, &log.catalog)
            .is_err());
    }
}
