//! # learnedwmp-core — the paper's contribution
//!
//! LearnedWMP predicts the working-memory demand of a *workload* (a batch of
//! SQL queries) from the distribution of its queries over learned query
//! templates, instead of summing per-query estimates. This crate implements
//! the full paper pipeline:
//!
//! - [`template`] — TR3: template learning (plan-feature k-means, plus the
//!   rule-based / bag-of-words / text-mining / embedding / DBSCAN
//!   alternatives of Figs. 9 and §V);
//! - [`workload`] — TR4: fixed-size workload batching and labels;
//! - [`histogram`] — TR5: workload histograms (Algorithm 2);
//! - [`model`] — the five learner families (DNN/Ridge/DT/RF/XGB);
//! - [`learned`] — TR6 + IN1–IN5: the LearnedWMP model;
//! - [`builder`] — validated, fluent construction ([`LearnedWmp::builder`]);
//! - [`single`] — the SingleWMP baselines (ML per-query sums and the DBMS
//!   heuristic);
//! - [`predictor`] — the [`WorkloadPredictor`] trait every family serves
//!   through;
//! - [`handle`] — [`PredictorHandle`]: shared, hot-swappable model handles
//!   for concurrent serving;
//! - [`codec`] — versioned binary persistence (`save_to` / `load_from`);
//! - [`online`] — the deployment loop: warm-start from a shipped artifact,
//!   observe, retrain;
//! - [`eval`] — the measurement harness behind Figs. 4–8;
//! - [`config`] — paper-scale experiment configuration.

#![warn(missing_docs)]

pub mod builder;
pub mod codec;
pub mod config;
pub mod eval;
pub mod handle;
pub mod histogram;
pub mod learned;
pub mod model;
pub mod online;
pub mod predictor;
pub mod single;
pub mod template;
pub mod workload;

pub use builder::{LearnedWmpBuilder, TemplateSpec};
pub use config::{DatasetConfig, ExperimentConfig};
pub use eval::{EvalConfig, EvalContext, ModelReport, TRAIN_FRAC};
pub use handle::{ModelSnapshot, PredictorHandle, SwapOutcome};
pub use histogram::{build_histogram, HistogramMode};
pub use learned::{LearnedWmp, LearnedWmpConfig, TrainTimings};
pub use model::{Approach, ModelKind};
pub use online::{OnlinePolicy, OnlineWmp, RetrainOutcome};
pub use predictor::WorkloadPredictor;
pub use single::{SingleWmp, SingleWmpDbms};
pub use template::{
    DbscanTemplates, PlanKMeansTemplates, RuleBasedTemplates, TemplateLearner, TextMode,
    TextTemplates,
};
pub use workload::{batch_workloads, batch_workloads_variable, LabelMode, Workload};
// Resource-target vocabulary from the planning substrate, re-exported so
// multi-output callers need only this crate.
pub use wmp_plan::{ResourceKind, ResourceVector, N_RESOURCES};
