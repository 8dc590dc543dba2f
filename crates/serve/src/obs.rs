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
//!   measured resources, feeding one rolling [`wmp_obs::QualityMonitor`]
//!   per resource axis, published as `wmp_prediction_mae_mb` /
//!   `wmp_prediction_mae_cpu_ms` / `wmp_prediction_mae_io_pages` plus
//!   `wmp_prediction_within_one_bucket_ratio` (memory axis).
//! - **Template drift** — once [`ObsConfig::drift_reference`] supplies the
//!   training-time template distribution (see
//!   [`learnedwmp_core::LearnedWmp::template_distribution`]), each observed
//!   query is assigned to its template and fed to a rolling
//!   [`wmp_obs::DriftMonitor`]; the total-variation score is published as
//!   `wmp_template_drift_score`.

use std::sync::{Arc, Mutex, OnceLock};

use learnedwmp_core::WorkloadPredictor;
use wmp_obs::{Counter, DriftMonitor, Gauge, Histogram, QualityMonitor, Registry};
use wmp_workloads::QueryRecord;

/// Observed queries per quality evaluation batch.
const QUALITY_BATCH: usize = 10;
/// Rolling window (in evaluation batches) for MAE / accuracy.
const QUALITY_CAPACITY: usize = 256;
/// Bin widths for the per-axis within-one-bucket accuracy.
const QUALITY_BUCKET_MB: f64 = 100.0;
const QUALITY_BUCKET_CPU_MS: f64 = 100.0;
const QUALITY_BUCKET_IO_PAGES: f64 = 10_000.0;
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

/// The engine's registered instruments plus the two rolling monitors. One
/// instance is shared (via `Arc`) by the submit path, the scoring path, and
/// the background retrainer thread.
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
    mae_mb: Arc<Gauge>,
    mae_cpu_ms: Arc<Gauge>,
    mae_io_pages: Arc<Gauge>,
    within_one_bucket: Arc<Gauge>,
    drift_score: Arc<Gauge>,
    quality: QualityMonitor,
    quality_cpu: QualityMonitor,
    quality_io: QualityMonitor,
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
                "Evaluation batches scored by the prediction-quality monitor",
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
            mae_mb: r.gauge(
                "wmp_prediction_mae_mb",
                "Rolling mean absolute prediction error (MB) over recent evaluation batches",
                &[],
            ),
            mae_cpu_ms: r.gauge(
                "wmp_prediction_mae_cpu_ms",
                "Rolling mean absolute CPU prediction error (ms) over recent evaluation batches",
                &[],
            ),
            mae_io_pages: r.gauge(
                "wmp_prediction_mae_io_pages",
                "Rolling mean absolute IO prediction error (pages) over recent evaluation batches",
                &[],
            ),
            within_one_bucket: r.gauge(
                "wmp_prediction_within_one_bucket_ratio",
                "Rolling fraction of evaluation batches predicted within one memory bucket",
                &[],
            ),
            drift_score: r.gauge(
                "wmp_template_drift_score",
                "Total-variation distance between live and training template distributions",
                &[],
            ),
            quality: QualityMonitor::new(QUALITY_CAPACITY, QUALITY_BUCKET_MB),
            quality_cpu: QualityMonitor::new(QUALITY_CAPACITY, QUALITY_BUCKET_CPU_MS),
            quality_io: QualityMonitor::new(QUALITY_CAPACITY, QUALITY_BUCKET_IO_PAGES),
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
    /// against the measured memory. Runs on the observer's thread — cheap
    /// except once per evaluation batch, when it costs one prediction.
    pub(crate) fn account_observation(&self, model: &dyn WorkloadPredictor, record: &QueryRecord) {
        if let Some(drift) = self.drift.get() {
            if let Ok(Some(template)) = model.assign_template(record) {
                drift.observe(template);
                if let Some(score) = drift.score() {
                    self.drift_score.set(score);
                }
            }
        }
        let batch = {
            let mut buffer =
                self.eval_buffer.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            buffer.push(record.clone());
            if buffer.len() >= QUALITY_BATCH {
                Some(std::mem::take(&mut *buffer))
            } else {
                None
            }
        };
        if let Some(batch) = batch {
            let refs: Vec<&QueryRecord> = batch.iter().collect();
            if let Ok(predicted) = model.predict_resources(&refs) {
                let actual: wmp_plan::ResourceVector = batch.iter().map(|r| r.resources).sum();
                self.quality.record(predicted.memory_mb, actual.memory_mb);
                self.quality_cpu.record(predicted.cpu_ms, actual.cpu_ms);
                self.quality_io.record(predicted.io_pages, actual.io_pages);
                self.quality_windows.inc();
                if let Some(mae) = self.quality.mae() {
                    self.mae_mb.set(mae);
                }
                if let Some(mae) = self.quality_cpu.mae() {
                    self.mae_cpu_ms.set(mae);
                }
                if let Some(mae) = self.quality_io.mae() {
                    self.mae_io_pages.set(mae);
                }
                if let Some(ratio) = self.quality.within_one_bucket() {
                    self.within_one_bucket.set(ratio);
                }
            }
        }
    }
}
