//! The serving engine's telemetry: its `wmp_*` instruments, rolling
//! prediction-quality tracking, and template-distribution drift.
//!
//! Every [`crate::Engine`] owns one private [`wmp_obs::Registry`] holding
//! these instruments; each serving fact (a submission, a scored window, an
//! observation, a model swap) is counted once there, and [`crate::Engine::stats`] reads its
//! [`crate::StatsSnapshot`] back from the same instruments (see the README's
//! metrics catalog for the names). Besides the counters, the registry
//! carries the two derived signals a dashboard actually alarms on:
//!
//! - **Prediction quality** — [`Engine::observe`](crate::Engine::observe)d
//!   queries are grouped into evaluation batches of 10 (the paper's
//!   `s = 10`, so the predictor is evaluated in-regime); each batch is
//!   re-predicted through the current model and compared against the summed
//!   measured resources. One rolling window keeps the last 256 batches'
//!   `(predicted, actual)` pairs per resource axis, scored by
//!   [`wmp_mlkit::metrics::mae`] and [`wmp_mlkit::metrics::mape`] and
//!   published as `wmp_prediction_mae_mb` / `wmp_prediction_mae_cpu_ms` /
//!   `wmp_prediction_mae_io_pages` plus
//!   `wmp_prediction_mape_pct{resource="memory|cpu|io"}`.
//! - **Template drift** — once [`ObsConfig::drift_reference`] supplies the
//!   training-time template distribution (see
//!   [`learnedwmp_core::LearnedWmp::template_distribution`]), each observed
//!   query is assigned to its template and fed to a rolling
//!   [`wmp_obs::DriftMonitor`]; the total-variation score is published as
//!   `wmp_template_drift_score`.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, OnceLock};

use learnedwmp_core::WorkloadPredictor;
use wmp_mlkit::metrics::{mae, mape};
use wmp_obs::{Counter, DriftMonitor, Gauge, Histogram, Registry};
use wmp_plan::{ResourceKind, ResourceVector, N_RESOURCES};
use wmp_workloads::QueryRecord;

/// Observed queries per quality evaluation batch.
const QUALITY_BATCH: usize = 10;
/// Rolling window (in evaluation batches) for MAE / MAPE.
const QUALITY_CAPACITY: usize = 256;
/// Rolling window (in queries) for the live template distribution.
const DRIFT_CAPACITY: usize = 512;

/// Configuration for [`crate::Engine::with_observability`].
#[derive(Debug, Clone, Default)]
pub struct ObsConfig {
    /// Training-time template distribution for drift scoring; `None`
    /// leaves the drift monitor off (the gauge stays at 0).
    pub drift_reference: Option<Vec<f64>>,
}

impl ObsConfig {
    /// Sets the drift reference distribution (normalized template
    /// frequencies from training; see
    /// [`learnedwmp_core::LearnedWmp::template_distribution`]).
    pub fn with_drift_reference(mut self, reference: Vec<f64>) -> Self {
        self.drift_reference = Some(reference);
        self
    }
}

/// The last [`QUALITY_CAPACITY`] evaluation batches as `(predicted,
/// actual)` columns, one pair per resource axis in [`ResourceKind::ALL`]
/// order.
#[derive(Default)]
struct QualityWindow {
    predicted: [VecDeque<f64>; N_RESOURCES],
    actual: [VecDeque<f64>; N_RESOURCES],
}

impl QualityWindow {
    /// Appends one batch, evicting the oldest once the window is full.
    fn record(&mut self, predicted: ResourceVector, actual: ResourceVector) {
        let (predicted, actual) = (predicted.as_array(), actual.as_array());
        for i in 0..N_RESOURCES {
            if self.actual[i].len() == QUALITY_CAPACITY {
                self.predicted[i].pop_front();
                self.actual[i].pop_front();
            }
            self.predicted[i].push_back(predicted[i]);
            self.actual[i].push_back(actual[i]);
        }
    }

    /// The `(actual, predicted)` columns of one axis, as slices.
    fn columns(&mut self, kind: ResourceKind) -> (&[f64], &[f64]) {
        let i = kind.index();
        (self.actual[i].make_contiguous(), self.predicted[i].make_contiguous())
    }
}

/// The engine's registered instruments plus the quality window and the
/// drift monitor. One instance is shared (via `Arc`) by the submit path,
/// the scoring path, and the background retrainer thread.
pub(crate) struct EngineObs {
    pub(crate) registry: Registry,
    pub(crate) submitted: Arc<Counter>,
    pub(crate) served: Arc<Counter>,
    pub(crate) failed: Arc<Counter>,
    pub(crate) windows: Arc<Counter>,
    pub(crate) swaps: Arc<Counter>,
    pub(crate) observed: Arc<Counter>,
    pub(crate) observations_dropped: Arc<Counter>,
    pub(crate) retrains: Arc<Counter>,
    pub(crate) retrain_failures: Arc<Counter>,
    pub(crate) sql_parse_ok: Arc<Counter>,
    pub(crate) sql_parse_errors: Arc<Counter>,
    quality_windows: Arc<Counter>,
    pub(crate) score_latency: Arc<Histogram>,
    pub(crate) pending: Arc<Gauge>,
    pub(crate) model_version: Arc<Gauge>,
    pub(crate) model_age_seconds: Arc<Gauge>,
    /// `wmp_prediction_mae_*`, in [`ResourceKind::ALL`] order.
    mae: [Arc<Gauge>; N_RESOURCES],
    /// `wmp_prediction_mape_pct{resource}`, in [`ResourceKind::ALL`] order.
    mape_pct: [Arc<Gauge>; N_RESOURCES],
    drift_score: Arc<Gauge>,
    quality: Mutex<QualityWindow>,
    eval_buffer: Mutex<Vec<QueryRecord>>,
    drift: OnceLock<DriftMonitor>,
}

impl EngineObs {
    pub(crate) fn new() -> Self {
        let r = Registry::new();
        EngineObs {
            submitted: r.counter(
                "wmp_queries_submitted_total",
                "Queries submitted to the serving engine",
                &[],
            ),
            served: r.counter(
                "wmp_queries_served_total",
                "Tickets resolved with a successful prediction",
                &[],
            ),
            failed: r.counter("wmp_queries_failed_total", "Tickets resolved with an error", &[]),
            windows: r.counter("wmp_windows_scored_total", "Workload windows scored", &[]),
            swaps: r.counter(
                "wmp_model_swaps_total",
                "Models installed into the serving handle (reloads + published retrains)",
                &[],
            ),
            observed: r.counter(
                "wmp_queries_observed_total",
                "Executed queries fed back via Engine::observe",
                &[],
            ),
            observations_dropped: r.counter(
                "wmp_observations_dropped_total",
                "Observed queries the retrainer never received (its queue was full or it had stopped)",
                &[],
            ),
            retrains: r.counter(
                "wmp_retrains_total",
                "Background retraining passes that published a new model",
                &[],
            ),
            retrain_failures: r.counter(
                "wmp_retrain_failures_total",
                "Background retraining passes that failed (previous model kept serving)",
                &[],
            ),
            sql_parse_ok: r.counter(
                "wmp_sql_parse_ok_total",
                "SQL statements accepted by Engine::submit_sql",
                &[],
            ),
            sql_parse_errors: r.counter(
                "wmp_sql_parse_errors_total",
                "SQL statements rejected by Engine::submit_sql with a parse error",
                &[],
            ),
            quality_windows: r.counter(
                "wmp_quality_windows_total",
                "Evaluation batches scored for prediction quality",
                &[],
            ),
            score_latency: r.histogram(
                "wmp_window_score_latency_us",
                "Window-scoring latency in microseconds",
                &[],
            ),
            pending: r.gauge(
                "wmp_pending_queries",
                "Queries waiting for their window to close",
                &[],
            ),
            model_version: r.gauge(
                "wmp_model_version",
                "Version of the model that scored the most recent window",
                &[],
            ),
            model_age_seconds: r.gauge(
                "wmp_model_age_seconds",
                "Seconds since the currently serving model was installed",
                &[],
            ),
            mae: [
                r.gauge(
                    "wmp_prediction_mae_mb",
                    "Rolling mean absolute prediction error (MB) over recent evaluation batches",
                    &[],
                ),
                r.gauge(
                    "wmp_prediction_mae_cpu_ms",
                    "Rolling mean absolute CPU prediction error (ms) over recent evaluation batches",
                    &[],
                ),
                r.gauge(
                    "wmp_prediction_mae_io_pages",
                    "Rolling mean absolute IO prediction error (pages) over recent evaluation batches",
                    &[],
                ),
            ],
            mape_pct: ResourceKind::ALL.map(|kind| {
                r.gauge(
                    "wmp_prediction_mape_pct",
                    "Rolling mean absolute percentage prediction error (%) over recent evaluation batches",
                    &[("resource", kind.label())],
                )
            }),
            drift_score: r.gauge(
                "wmp_template_drift_score",
                "Total-variation distance between live and training template distributions",
                &[],
            ),
            quality: Mutex::new(QualityWindow::default()),
            eval_buffer: Mutex::new(Vec::new()),
            drift: OnceLock::new(),
            registry: r,
        }
    }

    /// Starts drift scoring against `reference`. The first reference an
    /// engine receives is kept; later ones are ignored.
    pub(crate) fn set_drift_reference(&self, reference: Vec<f64>) {
        let _ = self.drift.set(DriftMonitor::new(reference, DRIFT_CAPACITY));
    }

    /// Accounts one observed (executed) query: feeds the drift monitor with
    /// its template assignment and, once a full evaluation batch has
    /// accumulated, re-predicts the batch through `model` and scores it
    /// against the measured resources. The record moves into the batch.
    /// Runs on the observer's thread — cheap except once per evaluation
    /// batch, when it costs one prediction.
    pub(crate) fn account_observation(&self, model: &dyn WorkloadPredictor, record: QueryRecord) {
        if let Some(drift) = self.drift.get() {
            if let Ok(Some(template)) = model.assign_template(&record) {
                drift.observe(template);
                if let Some(score) = drift.score() {
                    self.drift_score.set(score);
                }
            }
        }
        let batch = {
            let mut buffer =
                self.eval_buffer.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            buffer.push(record);
            if buffer.len() >= QUALITY_BATCH {
                Some(std::mem::take(&mut *buffer))
            } else {
                None
            }
        };
        if let Some(batch) = batch {
            let refs: Vec<&QueryRecord> = batch.iter().collect();
            if let Ok(predicted) = model.predict_resources(&refs) {
                let actual: ResourceVector = batch.iter().map(|r| r.resources).sum();
                let mut quality =
                    self.quality.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                quality.record(predicted, actual);
                self.quality_windows.inc();
                for kind in ResourceKind::ALL {
                    let (actual, predicted) = quality.columns(kind);
                    if let Ok(mae) = mae(actual, predicted) {
                        self.mae[kind.index()].set(mae);
                    }
                    // An axis whose every actual is zero has no MAPE.
                    if let Ok(mape) = mape(actual, predicted) {
                        self.mape_pct[kind.index()].set(mape);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_window_evicts_oldest() {
        let mut window = QualityWindow::default();
        window.record(ResourceVector::new(0.0, 0.0, 0.0), ResourceVector::new(100.0, 1.0, 1.0));
        for _ in 0..QUALITY_CAPACITY {
            window.record(ResourceVector::new(10.0, 1.0, 1.0), ResourceVector::new(10.0, 1.0, 1.0));
        }
        for kind in ResourceKind::ALL {
            let (actual, predicted) = window.columns(kind);
            assert_eq!((actual.len(), predicted.len()), (QUALITY_CAPACITY, QUALITY_CAPACITY));
            assert_eq!(mae(actual, predicted).unwrap(), 0.0, "{kind:?}: the bad batch aged out");
        }
    }
}
