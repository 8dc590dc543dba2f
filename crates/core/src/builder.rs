//! Typed construction of [`LearnedWmp`] models: a declarative
//! [`TemplateSpec`] replaces caller-side `Box<dyn TemplateLearner>` plumbing,
//! and [`LearnedWmpBuilder`] validates every hyper-parameter *before* any
//! training work starts.
//!
//! ```
//! use learnedwmp_core::{LearnedWmp, ModelKind, TemplateSpec};
//!
//! let log = wmp_workloads::tpcc::generate(300, 7).unwrap();
//! let model = LearnedWmp::builder()
//!     .model(ModelKind::Xgb)
//!     .templates(TemplateSpec::PlanKMeans { k: 10, seed: 42 })
//!     .batch_size(10)
//!     .fit(&log)
//!     .unwrap();
//! let queries: Vec<_> = log.records[..10].iter().collect();
//! assert!(model.predict_resources(&queries).unwrap().memory_mb > 0.0);
//! ```

use wmp_mlkit::{MlError, MlResult};
use wmp_plan::Catalog;
use wmp_workloads::{QueryLog, QueryRecord};

use crate::histogram::HistogramMode;
use crate::learned::{LearnedWmp, LearnedWmpConfig};
use crate::model::ModelKind;
use crate::template::{
    DbscanTemplates, PlanKMeansTemplates, RuleBasedTemplates, TemplateLearner, TextMode,
    TextTemplates,
};
use crate::workload::{LabelMode, Workload};

/// Declarative choice of template learner (TR3). The builder turns a spec
/// into the concrete [`TemplateLearner`] at fit time, so call sites never
/// handle trait objects.
#[derive(Debug, Clone, PartialEq)]
pub enum TemplateSpec {
    /// The paper's method: k-means over standardized plan features
    /// (Algorithm 1).
    PlanKMeans {
        /// Number of templates (histogram length).
        k: usize,
        /// Clustering seed.
        seed: u64,
    },
    /// Expert-style structural rules (Fig. 9 "rule based").
    RuleBased,
    /// SQL-text featurization (bag-of-words / text-mining / embeddings) then
    /// k-means (Fig. 9).
    Text {
        /// Which text featurization to use.
        mode: TextMode,
        /// Number of templates.
        k: usize,
        /// Clustering seed.
        seed: u64,
    },
    /// Density clustering (§V comparison).
    Dbscan {
        /// Neighborhood radius in standardized feature space.
        eps: f64,
        /// Minimum neighbors for a core point.
        min_pts: usize,
    },
}

impl Default for TemplateSpec {
    fn default() -> Self {
        TemplateSpec::PlanKMeans { k: 30, seed: 42 }
    }
}

impl TemplateSpec {
    /// Validates the spec without doing any work.
    ///
    /// # Errors
    /// Returns [`MlError::InvalidHyperparameter`] for out-of-range values.
    pub fn validate(&self) -> MlResult<()> {
        match *self {
            TemplateSpec::PlanKMeans { k, .. } | TemplateSpec::Text { k, .. } if k == 0 => {
                Err(MlError::InvalidHyperparameter("template count k must be >= 1".into()))
            }
            TemplateSpec::Dbscan { eps, .. } if !(eps > 0.0 && eps.is_finite()) => {
                Err(MlError::InvalidHyperparameter(format!(
                    "dbscan eps = {eps} must be finite and > 0"
                )))
            }
            TemplateSpec::Dbscan { min_pts: 0, .. } => {
                Err(MlError::InvalidHyperparameter("dbscan min_pts must be >= 1".into()))
            }
            _ => Ok(()),
        }
    }

    /// Builds the unfitted concrete learner this spec describes.
    pub fn build(&self) -> Box<dyn TemplateLearner> {
        match *self {
            TemplateSpec::PlanKMeans { k, seed } => Box::new(PlanKMeansTemplates::new(k, seed)),
            TemplateSpec::RuleBased => Box::new(RuleBasedTemplates::new()),
            TemplateSpec::Text { mode, k, seed } => Box::new(TextTemplates::new(mode, k, seed)),
            TemplateSpec::Dbscan { eps, min_pts } => Box::new(DbscanTemplates::new(eps, min_pts)),
        }
    }
}

/// Where the builder's template learner comes from: a declarative spec or a
/// caller-supplied custom implementation.
enum TemplateSource {
    Spec(TemplateSpec),
    Custom(Box<dyn TemplateLearner>),
}

/// Fluent, validated construction of [`LearnedWmp`] — see the module docs
/// for the canonical example. Obtained from [`LearnedWmp::builder`].
pub struct LearnedWmpBuilder {
    config: LearnedWmpConfig,
    templates: TemplateSource,
}

impl Default for LearnedWmpBuilder {
    fn default() -> Self {
        LearnedWmpBuilder {
            config: LearnedWmpConfig::default(),
            templates: TemplateSource::Spec(TemplateSpec::default()),
        }
    }
}

impl LearnedWmpBuilder {
    /// Starts from the paper's defaults (XGB, k = 30 plan-k-means templates,
    /// s = 10, sum labels, count histograms, seed 42).
    pub fn new() -> Self {
        Self::default()
    }

    /// Learner family for the distribution regressor (TR6).
    #[must_use]
    pub fn model(mut self, model: ModelKind) -> Self {
        self.config.model = model;
        self
    }

    /// Template learner specification (TR3).
    #[must_use]
    pub fn templates(mut self, spec: TemplateSpec) -> Self {
        self.templates = TemplateSource::Spec(spec);
        self
    }

    /// Escape hatch: a custom [`TemplateLearner`] implementation. Such
    /// models train and predict normally but cannot be persisted unless the
    /// learner implements [`TemplateLearner::save_params`].
    #[must_use]
    pub fn template_learner(mut self, learner: Box<dyn TemplateLearner>) -> Self {
        self.templates = TemplateSource::Custom(learner);
        self
    }

    /// Workload batch size `s` (TR4; the paper settles on 10).
    #[must_use]
    pub fn batch_size(mut self, s: usize) -> Self {
        self.config.batch_size = s;
        self
    }

    /// Label aggregation (sum per the paper's prose; max as ablation).
    #[must_use]
    pub fn label_mode(mut self, mode: LabelMode) -> Self {
        self.config.label_mode = mode;
        self
    }

    /// Histogram normalization (counts per the paper; frequencies ablation).
    #[must_use]
    pub fn histogram_mode(mut self, mode: HistogramMode) -> Self {
        self.config.histogram_mode = mode;
        self
    }

    /// Seed for workload batching.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Validates every hyper-parameter without training.
    ///
    /// # Errors
    /// Returns [`MlError::InvalidHyperparameter`] for out-of-range values.
    pub fn validate(&self) -> MlResult<()> {
        if self.config.batch_size == 0 {
            return Err(MlError::InvalidHyperparameter("batch_size must be >= 1".into()));
        }
        if let TemplateSource::Spec(spec) = &self.templates {
            spec.validate()?;
        }
        Ok(())
    }

    /// Trains on a full query log (TR3–TR6).
    ///
    /// # Errors
    /// Returns [`MlError::InvalidHyperparameter`] before any work for bad
    /// settings, then propagates template-learning and regression errors.
    pub fn fit(self, log: &QueryLog) -> MlResult<LearnedWmp> {
        let refs: Vec<&QueryRecord> = log.records.iter().collect();
        self.fit_refs(&refs, &log.catalog)
    }

    /// Trains on a slice of owned records (no double-reference gymnastics).
    ///
    /// # Errors
    /// Same conditions as [`LearnedWmpBuilder::fit`].
    pub fn fit_records(self, records: &[QueryRecord], catalog: &Catalog) -> MlResult<LearnedWmp> {
        let refs: Vec<&QueryRecord> = records.iter().collect();
        self.fit_refs(&refs, catalog)
    }

    /// Trains on a slice of record references (the shape produced by
    /// train/test splits).
    ///
    /// # Errors
    /// Same conditions as [`LearnedWmpBuilder::fit`].
    pub fn fit_refs(self, records: &[&QueryRecord], catalog: &Catalog) -> MlResult<LearnedWmp> {
        self.validate()?;
        let (config, learner) = self.into_parts();
        LearnedWmp::fit_impl(config, learner, records, catalog, None)
    }

    /// Trains on pre-built workloads — the variable-length-workload extension
    /// (§I): pass batches from [`crate::workload::batch_workloads_variable`].
    ///
    /// # Errors
    /// Same conditions as [`LearnedWmpBuilder::fit`].
    pub fn fit_workloads(
        self,
        records: &[&QueryRecord],
        catalog: &Catalog,
        workloads: Vec<Workload>,
    ) -> MlResult<LearnedWmp> {
        self.validate()?;
        let (config, learner) = self.into_parts();
        LearnedWmp::fit_impl(config, learner, records, catalog, Some(workloads))
    }

    fn into_parts(self) -> (LearnedWmpConfig, Box<dyn TemplateLearner>) {
        let learner = match self.templates {
            TemplateSource::Spec(spec) => spec.build(),
            TemplateSource::Custom(learner) => learner,
        };
        (self.config, learner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_rejects_bad_hyperparameters_before_training() {
        let log = wmp_workloads::tpcc::generate(50, 1).unwrap();
        let bad = [
            LearnedWmp::builder().batch_size(0),
            LearnedWmp::builder().templates(TemplateSpec::PlanKMeans { k: 0, seed: 1 }),
            LearnedWmp::builder().templates(TemplateSpec::Text {
                mode: TextMode::BagOfWords,
                k: 0,
                seed: 1,
            }),
            LearnedWmp::builder().templates(TemplateSpec::Dbscan { eps: 0.0, min_pts: 3 }),
            LearnedWmp::builder().templates(TemplateSpec::Dbscan { eps: f64::NAN, min_pts: 3 }),
            LearnedWmp::builder().templates(TemplateSpec::Dbscan { eps: 1.0, min_pts: 0 }),
        ];
        for b in bad {
            assert!(matches!(b.fit(&log), Err(MlError::InvalidHyperparameter(_))));
        }
    }

    #[test]
    fn every_template_spec_trains() {
        let log = wmp_workloads::tpcc::generate(250, 3).unwrap();
        let specs = [
            TemplateSpec::PlanKMeans { k: 6, seed: 1 },
            TemplateSpec::RuleBased,
            TemplateSpec::Text { mode: TextMode::BagOfWords, k: 5, seed: 1 },
            TemplateSpec::Dbscan { eps: 1.0, min_pts: 4 },
        ];
        let probe: Vec<&QueryRecord> = log.records[..10].iter().collect();
        for spec in specs {
            let model = LearnedWmp::builder()
                .model(ModelKind::Ridge)
                .templates(spec.clone())
                .fit(&log)
                .unwrap_or_else(|e| panic!("{spec:?}: {e}"));
            assert!(model.predict_resources(&probe).unwrap().is_finite(), "{spec:?}");
        }
    }

    #[test]
    fn fit_and_fit_refs_produce_identical_models() {
        let log = wmp_workloads::tpcc::generate(300, 9).unwrap();
        let refs: Vec<&QueryRecord> = log.records.iter().collect();
        let make = || {
            LearnedWmp::builder()
                .model(ModelKind::Xgb)
                .templates(TemplateSpec::PlanKMeans { k: 8, seed: 4 })
                .batch_size(10)
                .seed(42)
        };
        let from_log = make().fit(&log).unwrap();
        let from_refs = make().fit_refs(&refs, &log.catalog).unwrap();
        for chunk in refs.chunks(10).take(4) {
            let a = from_log.predict_resources(chunk).unwrap();
            let b = from_refs.predict_resources(chunk).unwrap();
            assert_eq!(a.as_array().map(f64::to_bits), b.as_array().map(f64::to_bits));
        }
    }

    #[test]
    fn custom_template_learner_is_accepted() {
        let log = wmp_workloads::tpcc::generate(200, 2).unwrap();
        let model = LearnedWmp::builder()
            .model(ModelKind::Dt)
            .template_learner(Box::new(RuleBasedTemplates::new()))
            .fit(&log)
            .unwrap();
        assert_eq!(model.templates().name(), "rule_based");
    }

    #[test]
    fn fit_records_accepts_owned_slices() {
        let log = wmp_workloads::tpcc::generate(200, 6).unwrap();
        let model = LearnedWmp::builder()
            .model(ModelKind::Ridge)
            .templates(TemplateSpec::PlanKMeans { k: 5, seed: 2 })
            .fit_records(&log.records, &log.catalog)
            .unwrap();
        let probe: Vec<&QueryRecord> = log.records[..10].iter().collect();
        assert!(model.predict_resources(&probe).unwrap().memory_mb > 0.0);
    }
}
