//! Online deployment loop — the paper's §I "DBMS Integration" story: ship a
//! pre-trained model, keep collecting executed queries from the operational
//! environment, and periodically retrain so accuracy improves (and tracks
//! workload drift) over time.

use std::collections::VecDeque;

use wmp_mlkit::{MlError, MlResult};
use wmp_obs::Level;
use wmp_plan::{Catalog, ResourceVector};
use wmp_workloads::QueryRecord;

use crate::learned::{LearnedWmp, LearnedWmpConfig};
use crate::predictor::WorkloadPredictor;
use crate::template::{PlanKMeansTemplates, TemplateLearner};
use crate::workload::Workload;

/// What one [`OnlineWmp::observe`] call did with the observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "signals whether a retrain happened — callers must at least check for Retrained"]
pub enum RetrainOutcome {
    /// The query was buffered; `seen` observations have accumulated since
    /// the last (re)training.
    Buffered {
        /// Observations since the last (re)training.
        seen: usize,
    },
    /// The observation triggered retraining pass number `pass` over a
    /// window of `window_len` queries.
    Retrained {
        /// 1-based retraining pass count.
        pass: usize,
        /// Queries in the window the model was retrained on.
        window_len: usize,
    },
}

impl RetrainOutcome {
    /// True when the observation triggered a retraining pass.
    pub fn retrained(&self) -> bool {
        matches!(self, RetrainOutcome::Retrained { .. })
    }
}

/// Retraining policy for [`OnlineWmp`].
#[derive(Debug, Clone)]
pub struct OnlinePolicy {
    /// Retrain once this many new queries have been observed since the last
    /// (re)training.
    pub retrain_every: usize,
    /// Keep at most this many recent queries (sliding window; older history
    /// ages out so the model tracks drift). The window is a ring buffer:
    /// evicting the oldest query is O(1) whatever the window size, and each
    /// retrain sees the window's queries in arrival order.
    pub window: usize,
    /// Number of templates for each retraining.
    pub k_templates: usize,
}

impl Default for OnlinePolicy {
    fn default() -> Self {
        OnlinePolicy { retrain_every: 1_000, window: 20_000, k_templates: 30 }
    }
}

/// A LearnedWMP model that retrains itself from an operational query log.
pub struct OnlineWmp {
    config: LearnedWmpConfig,
    policy: OnlinePolicy,
    buffer: VecDeque<QueryRecord>,
    since_train: usize,
    model: Option<LearnedWmp>,
    retrain_count: usize,
}

impl OnlineWmp {
    /// Creates an untrained online model; it starts predicting after the
    /// first `retrain_every` observations (or an explicit [`OnlineWmp::retrain`]).
    pub fn new(config: LearnedWmpConfig, policy: OnlinePolicy) -> Self {
        OnlineWmp {
            config,
            policy,
            buffer: VecDeque::new(),
            since_train: 0,
            model: None,
            retrain_count: 0,
        }
    }

    /// Seeds the loop with an already-trained model — typically one
    /// reloaded from a shipped artifact via [`LearnedWmp::load_from`] — so
    /// predictions are available immediately instead of only after the
    /// first `retrain_every` observations. The model's own training
    /// configuration is adopted so subsequent retrains stay consistent with
    /// the artifact.
    pub fn warm_start(&mut self, model: LearnedWmp) {
        self.config = model.config().clone();
        self.model = Some(model);
        self.since_train = 0;
    }

    /// Ingests one executed query (the DBMS query-log hook) and reports
    /// whether it triggered a retraining pass.
    ///
    /// # Errors
    /// Propagates retraining errors.
    pub fn observe(&mut self, record: QueryRecord, catalog: &Catalog) -> MlResult<RetrainOutcome> {
        self.buffer.push_back(record);
        if self.buffer.len() > self.policy.window {
            self.buffer.pop_front();
        }
        self.since_train += 1;
        if self.since_train >= self.policy.retrain_every
            && self.buffer.len() >= self.config.batch_size
        {
            self.retrain(catalog)?;
            return Ok(RetrainOutcome::Retrained {
                pass: self.retrain_count,
                window_len: self.buffer.len(),
            });
        }
        Ok(RetrainOutcome::Buffered { seen: self.since_train })
    }

    /// Forces a retraining pass over the current window.
    ///
    /// # Errors
    /// Propagates training errors (e.g. not enough history for one batch).
    pub fn retrain(&mut self, catalog: &Catalog) -> MlResult<()> {
        let span = wmp_obs::span!(
            Level::Info,
            target: "wmp_core::online",
            "retrain",
            window_len = self.buffer.len(),
            pass = self.retrain_count + 1,
        );
        let refs: Vec<&QueryRecord> = self.buffer.iter().collect();
        let templates: Box<dyn TemplateLearner> = Box::new(PlanKMeansTemplates::new(
            self.policy.k_templates,
            self.config.seed ^ self.retrain_count as u64,
        ));
        let fitted = LearnedWmp::fit_impl(self.config.clone(), templates, &refs, catalog, None);
        match fitted {
            Ok(model) => {
                self.model = Some(model);
                self.since_train = 0;
                self.retrain_count += 1;
                drop(span);
                Ok(())
            }
            Err(err) => {
                wmp_obs::event!(
                    Level::Warn,
                    target: "wmp_core::online",
                    "retrain_failed",
                    window_len = self.buffer.len(),
                    error = err.to_string(),
                );
                Err(err)
            }
        }
    }

    /// Predicts an unseen workload's full resource demand (memory MB /
    /// CPU ms / IO pages).
    ///
    /// # Errors
    /// Returns [`MlError::NotFitted`] before the first (re)training.
    pub fn predict_resources(&self, queries: &[&QueryRecord]) -> MlResult<ResourceVector> {
        self.model
            .as_ref()
            .ok_or(MlError::NotFitted("OnlineWmp (no retraining has happened yet)"))?
            .predict_resources(queries)
    }

    /// Number of retraining passes so far.
    pub fn retrain_count(&self) -> usize {
        self.retrain_count
    }

    /// Queries currently in the sliding window.
    pub fn window_len(&self) -> usize {
        self.buffer.len()
    }

    /// The current underlying model, if trained.
    pub fn model(&self) -> Option<&LearnedWmp> {
        self.model.as_ref()
    }
}

impl WorkloadPredictor for OnlineWmp {
    fn name(&self) -> String {
        match &self.model {
            Some(m) => format!("Online{}", m.name()),
            None => "OnlineWMP-untrained".to_string(),
        }
    }

    fn predict_resources(&self, queries: &[&QueryRecord]) -> MlResult<ResourceVector> {
        OnlineWmp::predict_resources(self, queries)
    }

    fn predict_resources_many(
        &self,
        records: &[&QueryRecord],
        workloads: &[Workload],
    ) -> MlResult<Vec<ResourceVector>> {
        self.model
            .as_ref()
            .ok_or(MlError::NotFitted("OnlineWmp (no retraining has happened yet)"))?
            .predict_resources_many(records, workloads)
    }

    fn footprint_bytes(&self) -> usize {
        self.model.as_ref().map_or(0, WorkloadPredictor::footprint_bytes)
    }

    fn assign_template(&self, query: &QueryRecord) -> MlResult<Option<usize>> {
        match &self.model {
            Some(m) => m.assign_template(query),
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelKind;
    use wmp_mlkit::metrics::mape;

    fn policy(retrain_every: usize, window: usize) -> OnlinePolicy {
        OnlinePolicy { retrain_every, window, k_templates: 10 }
    }

    fn config() -> LearnedWmpConfig {
        LearnedWmpConfig { model: ModelKind::Xgb, ..Default::default() }
    }

    #[test]
    fn predicts_only_after_first_retrain() {
        let log = wmp_workloads::tpcc::generate(300, 1).unwrap();
        let mut online = OnlineWmp::new(config(), policy(100, 1000));
        let probe: Vec<&QueryRecord> = log.records[..10].iter().collect();
        assert!(matches!(online.predict_resources(&probe), Err(MlError::NotFitted(_))));
        let mut retrains = 0;
        for r in &log.records {
            if online.observe(r.clone(), &log.catalog).unwrap().retrained() {
                retrains += 1;
            }
        }
        assert_eq!(retrains, 3, "300 observations at retrain_every=100");
        assert_eq!(online.retrain_count(), 3);
        assert!(online.predict_resources(&probe).unwrap().memory_mb > 0.0);
    }

    #[test]
    fn sliding_window_caps_history() {
        let log = wmp_workloads::tpcc::generate(500, 2).unwrap();
        let mut online = OnlineWmp::new(config(), policy(200, 150));
        for r in &log.records {
            let _ = online.observe(r.clone(), &log.catalog).unwrap();
        }
        assert_eq!(online.window_len(), 150);
    }

    #[test]
    fn retrain_fits_the_last_window_in_arrival_order() {
        let log = wmp_workloads::tpcc::generate(450, 6).unwrap();
        let mut online = OnlineWmp::new(config(), policy(10_000, 150));
        for r in &log.records {
            let _ = online.observe(r.clone(), &log.catalog).unwrap();
        }
        assert_eq!(online.window_len(), 150);
        online.retrain(&log.catalog).unwrap();

        let last: Vec<&QueryRecord> = log.records[300..].iter().collect();
        let fresh = LearnedWmp::builder()
            .model(ModelKind::Xgb)
            .templates(crate::builder::TemplateSpec::PlanKMeans { k: 10, seed: 42 })
            .fit_refs(&last, &log.catalog)
            .unwrap();
        for probe in log.records.chunks(10).step_by(5) {
            let probe: Vec<&QueryRecord> = probe.iter().collect();
            let (a, b) = (
                online.predict_resources(&probe).unwrap(),
                fresh.predict_resources(&probe).unwrap(),
            );
            for (x, y) in a.as_array().iter().zip(b.as_array()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn retraining_tracks_workload_drift() {
        // Phase 1: the model trains on OLTP-style statements only (templates
        // 0..6). Phase 2: the mix shifts to the heavier statements (6..12);
        // after enough observations the retrained model must beat the stale
        // phase-1 model on the new regime.
        let cat = wmp_workloads::tpcc::catalog();
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let make = |templates: std::ops::Range<usize>, base: u64, n: usize| {
            let mut specs = Vec::new();
            for i in 0..n {
                let mut rng = StdRng::seed_from_u64(base ^ i as u64);
                let t = templates.start + i % (templates.end - templates.start);
                specs.push((
                    wmp_workloads::tpcc::instantiate(&cat, t, base + i as u64, &mut rng),
                    t,
                ));
            }
            wmp_workloads::build_log("tpcc-drift", cat.clone(), specs).unwrap()
        };
        let phase1 = make(0..6, 1000, 400);
        let phase2 = make(6..12, 9000, 400);

        let mut online = OnlineWmp::new(config(), policy(400, 600));
        for r in &phase1.records {
            let _ = online.observe(r.clone(), &phase1.catalog).unwrap();
        }
        assert_eq!(online.retrain_count(), 1);
        // Evaluate the stale model on phase-2 workloads.
        let eval = |m: &OnlineWmp, log: &wmp_workloads::QueryLog| {
            let refs: Vec<&QueryRecord> = log.records.iter().collect();
            let ws =
                crate::workload::batch_workloads(&refs, 10, 7, crate::workload::LabelMode::Sum);
            let y: Vec<f64> = ws.iter().map(crate::workload::Workload::y_mb).collect();
            let preds: Vec<f64> =
                m.predict_resources_many(&refs, &ws).unwrap().iter().map(|r| r.memory_mb).collect();
            mape(&y, &preds).unwrap()
        };
        let stale = eval(&online, &phase2);
        for r in &phase2.records {
            let _ = online.observe(r.clone(), &phase2.catalog).unwrap();
        }
        assert!(online.retrain_count() >= 2);
        let fresh = eval(&online, &phase2);
        assert!(
            fresh < stale,
            "retrained MAPE ({fresh:.1}%) must beat the stale model ({stale:.1}%)"
        );
    }

    #[test]
    fn observe_reports_typed_outcomes() {
        let log = wmp_workloads::tpcc::generate(120, 4).unwrap();
        let mut online = OnlineWmp::new(config(), policy(100, 1000));
        for (i, r) in log.records.iter().enumerate() {
            let outcome = online.observe(r.clone(), &log.catalog).unwrap();
            match outcome {
                RetrainOutcome::Buffered { seen } => {
                    assert_eq!(seen, (i % 100) + 1);
                    assert!(!outcome.retrained());
                }
                RetrainOutcome::Retrained { pass, window_len } => {
                    assert_eq!(i, 99, "retrain fires exactly at retrain_every");
                    assert_eq!(pass, 1);
                    assert_eq!(window_len, 100);
                }
            }
        }
    }

    #[test]
    fn warm_start_predicts_immediately_and_adopts_the_model_config() {
        let log = wmp_workloads::tpcc::generate(300, 8).unwrap();
        let pre_trained = LearnedWmp::builder()
            .model(ModelKind::Ridge)
            .templates(crate::builder::TemplateSpec::PlanKMeans { k: 8, seed: 3 })
            .fit(&log)
            .unwrap();
        let probe: Vec<&QueryRecord> = log.records[..10].iter().collect();
        let expected = pre_trained.predict_resources(&probe).unwrap();

        let mut online = OnlineWmp::new(config(), policy(1_000, 2_000));
        assert!(online.predict_resources(&probe).is_err(), "cold model cannot predict");
        online.warm_start(pre_trained);
        assert_eq!(
            online.predict_resources(&probe).unwrap().memory_mb.to_bits(),
            expected.memory_mb.to_bits(),
            "warm-started predictions come from the seeded model"
        );
        // The seeded model's config takes over for future retrains.
        assert_eq!(online.retrain_count(), 0);
    }

    #[test]
    fn warm_start_from_a_persisted_artifact() {
        let log = wmp_workloads::tpcc::generate(300, 12).unwrap();
        let trained = LearnedWmp::builder()
            .model(ModelKind::Xgb)
            .templates(crate::builder::TemplateSpec::PlanKMeans { k: 8, seed: 5 })
            .fit(&log)
            .unwrap();
        let mut artifact = Vec::new();
        trained.save_to_writer(&mut artifact).unwrap();

        let mut online = OnlineWmp::new(config(), policy(10_000, 20_000));
        online.warm_start(LearnedWmp::load_from_reader(&mut artifact.as_slice()).unwrap());
        let probe: Vec<&QueryRecord> = log.records[..10].iter().collect();
        assert_eq!(
            online.predict_resources(&probe).unwrap().memory_mb.to_bits(),
            trained.predict_resources(&probe).unwrap().memory_mb.to_bits()
        );
    }

    #[test]
    fn forced_retrain_requires_enough_history() {
        let log = wmp_workloads::tpcc::generate(5, 3).unwrap();
        let mut online = OnlineWmp::new(config(), policy(1000, 1000));
        for r in &log.records {
            let _ = online.observe(r.clone(), &log.catalog).unwrap();
        }
        // 5 records < batch_size 10: retraining cannot form a workload.
        assert!(online.retrain(&log.catalog).is_err());
    }
}
