//! The evaluation harness behind every figure: trains LearnedWMP and
//! SingleWMP variants on a benchmark log, evaluates them on held-out test
//! workloads, and reports accuracy (RMSE/MAPE/residuals), timing, and model
//! size — the full set of measurements Figs. 4–8 are drawn from.

use std::time::Instant;

use wmp_mlkit::metrics::{mae, mape, residuals, rmse, ResidualSummary};
use wmp_mlkit::MlResult;
use wmp_plan::{ResourceKind, ResourceVector, N_RESOURCES};
use wmp_workloads::{QueryLog, QueryRecord};

use crate::builder::TemplateSpec;
use crate::histogram::HistogramMode;
use crate::learned::LearnedWmp;
use crate::model::ModelKind;
use crate::predictor::WorkloadPredictor;
use crate::single::{SingleWmp, SingleWmpDbms};
use crate::workload::{batch_workloads, LabelMode, Workload};

/// Fraction of a log that trains; the rest is held out for testing (the
/// paper's 80/20 split).
pub const TRAIN_FRAC: f64 = 0.8;

/// Evaluation protocol parameters.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Workload batch size `s`.
    pub batch_size: usize,
    /// Number of templates `k` for LearnedWMP.
    pub k_templates: usize,
    /// Split / batching seed.
    pub seed: u64,
    /// Label aggregation.
    pub label_mode: LabelMode,
    /// Histogram normalization.
    pub histogram_mode: HistogramMode,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            batch_size: 10,
            k_templates: 30,
            seed: 42,
            label_mode: LabelMode::Sum,
            histogram_mode: HistogramMode::Counts,
        }
    }
}

/// One evaluated model — one bar in Figs. 4–8.
#[derive(Debug, Clone)]
#[must_use = "an evaluation report is the experiment's result — render or assert on it"]
pub struct ModelReport {
    /// "LearnedWMP", "SingleWMP", or "SingleWMP-DBMS".
    pub approach: &'static str,
    /// Learner label ("DNN", ..., or "heuristic").
    pub model: String,
    /// RMSE over test workloads (Fig. 4).
    pub rmse: f64,
    /// Violin summary of residuals (Fig. 5).
    pub residual_summary: ResidualSummary,
    /// Raw signed residuals `y − ŷ`.
    pub residuals: Vec<f64>,
    /// Regressor fit time in ms (Fig. 6).
    pub train_ms: f64,
    /// End-to-end training including template learning (LearnedWMP only).
    pub total_train_ms: f64,
    /// Mean inference latency per workload in µs (Fig. 7).
    pub infer_us_per_workload: f64,
    /// Model size in kB (Fig. 8).
    pub model_kb: f64,
    /// Mean absolute error per resource axis (memory MB / CPU ms /
    /// IO pages), in [`ResourceKind::ALL`] order.
    pub resource_mae: [f64; N_RESOURCES],
    /// Mean absolute percentage error per resource axis, in percent, in
    /// [`ResourceKind::ALL`] order.
    pub resource_mape: [f64; N_RESOURCES],
}

impl ModelReport {
    /// Tag used in figure outputs, e.g. "LearnedWMP-XGB".
    pub fn tag(&self) -> String {
        if self.approach == "SingleWMP-DBMS" {
            self.approach.to_string()
        } else {
            format!("{}-{}", self.approach, self.model)
        }
    }

    /// MAPE over test workloads on the memory axis, in percent (the metric
    /// of Figs. 10–11).
    pub fn mape(&self) -> f64 {
        self.resource_mape[ResourceKind::Memory.index()]
    }

    /// One-line per-resource accuracy summary, e.g.
    /// `memory MAE 41.20 MB, MAPE 15.2% | cpu MAE 12.40 ms, MAPE 8.1% | ...`.
    pub fn resource_summary(&self) -> String {
        ResourceKind::ALL
            .iter()
            .map(|kind| {
                let i = kind.index();
                format!(
                    "{} MAE {:.2} {}, MAPE {:.1}%",
                    kind.label(),
                    self.resource_mae[i],
                    kind.unit(),
                    self.resource_mape[i]
                )
            })
            .collect::<Vec<_>>()
            .join(" | ")
    }
}

/// A prepared train/test environment for one benchmark log.
pub struct EvalContext<'a> {
    /// The benchmark log.
    pub log: &'a QueryLog,
    /// Protocol parameters.
    pub config: EvalConfig,
    /// Training-partition records.
    pub train: Vec<&'a QueryRecord>,
    /// Test-partition records.
    pub test: Vec<&'a QueryRecord>,
    /// Batched test workloads with labels.
    pub test_workloads: Vec<Workload>,
    /// Per-workload resource labels (memory / CPU / IO).
    pub y_test_resources: Vec<ResourceVector>,
}

impl<'a> EvalContext<'a> {
    /// Splits the log and batches the test partition into workloads.
    pub fn new(log: &'a QueryLog, config: EvalConfig) -> Self {
        let (train_idx, test_idx) = log.train_test_split(TRAIN_FRAC, config.seed);
        let train: Vec<&QueryRecord> = train_idx.iter().map(|&i| &log.records[i]).collect();
        let test: Vec<&QueryRecord> = test_idx.iter().map(|&i| &log.records[i]).collect();
        let test_workloads = batch_workloads(
            &test,
            config.batch_size,
            config.seed.wrapping_add(1),
            config.label_mode,
        );
        let y_test_resources: Vec<ResourceVector> = test_workloads.iter().map(|w| w.y).collect();
        EvalContext { log, config, train, test, test_workloads, y_test_resources }
    }

    /// Evaluates any predictor — accuracy, timed batched inference, and
    /// model size all flow through the [`WorkloadPredictor`] trait, so every
    /// family (and future ones) is measured by identical code.
    ///
    /// `approach`/`model` label the report row; `train_ms`/`total_train_ms`
    /// are training facts the trait deliberately does not expose.
    ///
    /// # Errors
    /// Propagates prediction and metric errors.
    pub fn evaluate_predictor(
        &self,
        predictor: &dyn WorkloadPredictor,
        approach: &'static str,
        model: String,
        train_ms: f64,
        total_train_ms: f64,
    ) -> MlResult<ModelReport> {
        let t0 = Instant::now();
        let vec_preds = predictor.predict_resources_many(&self.test, &self.test_workloads)?;
        let infer_us = t0.elapsed().as_secs_f64() * 1e6 / self.test_workloads.len().max(1) as f64;
        let column =
            |vs: &[ResourceVector], kind| vs.iter().map(|v| v.get(kind)).collect::<Vec<_>>();
        let mut resource_mae = [0.0; N_RESOURCES];
        let mut resource_mape = [0.0; N_RESOURCES];
        for kind in ResourceKind::ALL {
            let (actual, predicted) =
                (column(&self.y_test_resources, kind), column(&vec_preds, kind));
            resource_mae[kind.index()] = mae(&actual, &predicted)?;
            resource_mape[kind.index()] = mape(&actual, &predicted)?;
        }
        // Head 0 of every predictor is bit-identical to its scalar memory
        // path, so the projection preserves the memory-only RMSE/residuals.
        let actual = column(&self.y_test_resources, ResourceKind::Memory);
        let preds = column(&vec_preds, ResourceKind::Memory);
        let res = residuals(&actual, &preds)?;
        Ok(ModelReport {
            approach,
            model,
            rmse: rmse(&actual, &preds)?,
            residual_summary: ResidualSummary::from_residuals(&res)?,
            residuals: res,
            train_ms,
            total_train_ms,
            infer_us_per_workload: infer_us,
            model_kb: predictor.footprint_bytes() as f64 / 1024.0,
            resource_mae,
            resource_mape,
        })
    }

    /// Evaluates the SingleWMP-DBMS heuristic baseline.
    ///
    /// # Errors
    /// Propagates metric errors (e.g. empty test set).
    pub fn evaluate_dbms(&self) -> MlResult<ModelReport> {
        self.evaluate_predictor(&SingleWmpDbms, "SingleWMP-DBMS", "heuristic".to_string(), 0.0, 0.0)
    }

    /// Trains and evaluates a LearnedWMP variant with plan-k-means templates,
    /// returning the fitted model with its report so a caller can reuse the
    /// fit.
    ///
    /// # Errors
    /// Propagates training/prediction errors.
    pub fn evaluate_learned(&self, model: ModelKind) -> MlResult<(LearnedWmp, ModelReport)> {
        let wmp = LearnedWmp::builder()
            .model(model)
            .templates(TemplateSpec::PlanKMeans {
                k: self.config.k_templates,
                seed: self.config.seed,
            })
            .batch_size(self.config.batch_size)
            .label_mode(self.config.label_mode)
            .histogram_mode(self.config.histogram_mode)
            .seed(self.config.seed)
            .fit_refs(&self.train, &self.log.catalog)?;
        let report = self.evaluate_predictor(
            &wmp,
            "LearnedWMP",
            model.label().to_string(),
            wmp.timings.fit_ms,
            wmp.timings.total_ms(),
        )?;
        Ok((wmp, report))
    }

    /// Trains and evaluates a SingleWMP ML variant.
    ///
    /// # Errors
    /// Propagates training/prediction errors.
    pub fn evaluate_single(&self, model: ModelKind) -> MlResult<ModelReport> {
        let m = SingleWmp::train(model, &self.train)?;
        self.evaluate_predictor(&m, "SingleWMP", m.model().label().to_string(), m.fit_ms, m.fit_ms)
    }

    /// Full benchmark sweep: DBMS baseline + every learner under both
    /// approaches (the content of one subfigure of Figs. 4–8). Returns the
    /// reports and the fitted LearnedWMP models, in `models` order.
    ///
    /// # Errors
    /// Propagates any model's failure.
    pub fn evaluate_all(
        &self,
        models: &[ModelKind],
    ) -> MlResult<(Vec<ModelReport>, Vec<LearnedWmp>)> {
        let mut reports = Vec::with_capacity(1 + 2 * models.len());
        reports.push(self.evaluate_dbms()?);
        for &m in models {
            reports.push(self.evaluate_single(m)?);
        }
        let mut learned = Vec::with_capacity(models.len());
        for &m in models {
            let (wmp, report) = self.evaluate_learned(m)?;
            reports.push(report);
            learned.push(wmp);
        }
        Ok((reports, learned))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_log() -> QueryLog {
        wmp_workloads::tpcc::generate(800, 5).unwrap()
    }

    #[test]
    fn context_splits_and_batches() {
        let log = ctx_log();
        let ctx = EvalContext::new(&log, EvalConfig::default());
        assert_eq!(ctx.train.len(), 640);
        assert_eq!(ctx.test.len(), 160);
        assert_eq!(ctx.test_workloads.len(), 16);
        assert_eq!(ctx.y_test_resources.len(), 16);
        assert!(ctx.y_test_resources.iter().all(|y| y.memory_mb > 0.0));
    }

    #[test]
    fn dbms_baseline_reports_metrics() {
        let log = ctx_log();
        let ctx = EvalContext::new(&log, EvalConfig::default());
        let r = ctx.evaluate_dbms().unwrap();
        assert_eq!(r.tag(), "SingleWMP-DBMS");
        assert!(r.rmse > 0.0);
        assert!(r.mape() > 0.0);
        assert_eq!(r.train_ms, 0.0);
        assert_eq!(r.model_kb, 0.0);
        assert_eq!(r.residuals.len(), 16);
    }

    #[test]
    fn single_ml_also_reports() {
        let log = ctx_log();
        let ctx = EvalContext::new(&log, EvalConfig::default());
        let single = ctx.evaluate_single(ModelKind::Dt).unwrap();
        assert_eq!(single.tag(), "SingleWMP-DT");
        assert!(single.rmse.is_finite());
        assert!(single.infer_us_per_workload > 0.0);
    }

    #[test]
    fn reports_carry_per_resource_accuracy() {
        let log = ctx_log();
        let ctx = EvalContext::new(&log, EvalConfig { k_templates: 12, ..Default::default() });
        let model = LearnedWmp::builder()
            .model(ModelKind::Ridge)
            .templates(TemplateSpec::PlanKMeans { k: 12, seed: 42 })
            .fit_refs(&ctx.train, &log.catalog)
            .unwrap();
        let r =
            ctx.evaluate_predictor(&model, "LearnedWMP", "Ridge".to_string(), 0.0, 0.0).unwrap();
        let predicted = model.predict_resources_many(&ctx.test, &ctx.test_workloads).unwrap();
        for kind in ResourceKind::ALL {
            let i = kind.index();
            let actual: Vec<f64> = ctx.y_test_resources.iter().map(|v| v.get(kind)).collect();
            let pred: Vec<f64> = predicted.iter().map(|v| v.get(kind)).collect();
            assert!(r.resource_mae[i].is_finite() && r.resource_mae[i] > 0.0, "{kind:?}");
            assert_eq!(r.resource_mae[i].to_bits(), mae(&actual, &pred).unwrap().to_bits());
            assert_eq!(r.resource_mape[i].to_bits(), mape(&actual, &pred).unwrap().to_bits());
        }
        assert_eq!(r.mape().to_bits(), r.resource_mape[0].to_bits(), "mape() is the memory axis");
        let summary = r.resource_summary();
        assert!(summary.contains("memory MAE") && summary.contains("cpu MAE"), "{summary}");
        assert!(summary.contains("MAPE"), "{summary}");
    }

    /// A predictor whose every prediction is NaN.
    struct NanPredictor;

    impl WorkloadPredictor for NanPredictor {
        fn name(&self) -> String {
            "nan".to_string()
        }

        fn predict_resources(&self, _queries: &[&QueryRecord]) -> MlResult<ResourceVector> {
            Ok(ResourceVector::new(f64::NAN, f64::NAN, f64::NAN))
        }

        fn footprint_bytes(&self) -> usize {
            0
        }
    }

    #[test]
    fn a_nan_prediction_fails_the_evaluation_instead_of_panicking() {
        let log = ctx_log();
        let ctx = EvalContext::new(&log, EvalConfig::default());
        let err = ctx.evaluate_predictor(&NanPredictor, "Stub", "nan".to_string(), 0.0, 0.0);
        assert!(matches!(err, Err(wmp_mlkit::MlError::NumericalFailure(_))), "{err:?}");
    }
}
