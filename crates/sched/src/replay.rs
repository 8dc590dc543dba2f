//! The replay driver: streams a [`QueryLog`] through window → predict →
//! place → complete in virtual time, closing the loop from the paper's
//! predictor to scheduling outcomes.
//!
//! Each [`QueryLog::replay`] chunk becomes one [`WorkloadRequest`]: its
//! *actual* demand is the summed measured resources of the chunk's queries;
//! its *decision* demand is whatever the configured [`DemandSource`]
//! believes — a nominal constant (the no-prediction baseline), a live
//! predictor (a serving engine's `PredictorHandle` tracks its hot swaps),
//! or the truth itself (the oracle upper bound). Arrival ticks come from a
//! seeded [`ArrivalProcess`], so a replay is a pure function of
//! `(log, source, scheduler config, replay config)` — the determinism the
//! replay tests rely on.

use learnedwmp_core::WorkloadPredictor;
use wmp_mlkit::MlResult;
use wmp_plan::ResourceVector;
use wmp_workloads::{ArrivalProcess, QueryLog, QueryRecord};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::ScheduleReport;
use crate::scheduler::{Scheduler, WorkloadRequest};

/// Where the placement decision's demand estimate comes from.
pub enum DemandSource<'a> {
    /// A fixed per-window reservation — the no-prediction state of
    /// practice (provision every window identically).
    Nominal(ResourceVector),
    /// A predictor consulted per window via
    /// [`WorkloadPredictor::predict_resources`]. A serving engine's
    /// [`PredictorHandle`](learnedwmp_core::PredictorHandle)
    /// (`engine.handle()`) serves its current model, so predictions track
    /// mid-replay model swaps.
    Predictor(&'a dyn WorkloadPredictor),
    /// The true summed demand (perfect-information upper bound).
    Oracle,
}

impl DemandSource<'_> {
    /// Stable label recorded in [`ScheduleReport::demand_source`].
    pub fn label(&self) -> &'static str {
        match self {
            DemandSource::Nominal(_) => "nominal",
            DemandSource::Predictor(_) => "predicted",
            DemandSource::Oracle => "oracle",
        }
    }

    /// The decision-view demand for one window with true demand `actual`.
    fn decide(&self, queries: &[&QueryRecord], actual: ResourceVector) -> MlResult<ResourceVector> {
        match self {
            DemandSource::Nominal(v) => Ok(*v),
            DemandSource::Predictor(p) => p.predict_resources(queries),
            DemandSource::Oracle => Ok(actual),
        }
    }
}

/// Replay knobs: windowing, arrival spacing, and the arrival seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayConfig {
    /// Queries per workload window (the paper's `s`; clamped to ≥ 1).
    pub window: usize,
    /// Inter-arrival process for window arrival ticks.
    pub arrivals: ArrivalProcess,
    /// Seed for the arrival process's RNG.
    pub seed: u64,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            window: 10,
            arrivals: ArrivalProcess::Poisson { mean_gap_ticks: 200.0 },
            seed: 0,
        }
    }
}

/// Streams `log` through `scheduler` (already configured with its cluster,
/// policy, SLA classes, and cost model), deciding each window's reservation
/// via `source`, and returns the completed run's report.
///
/// A window's service duration is its true summed CPU time in ticks
/// (1 tick = 1 ms of CPU), modeling serial execution of the window on its
/// executor; tenants rotate per window (`tenant = window index`), which the
/// scheduler folds onto its SLA classes.
///
/// # Errors
/// Propagates the demand source's prediction error; scheduling itself
/// cannot fail.
pub fn replay(
    log: &QueryLog,
    source: DemandSource<'_>,
    mut scheduler: Scheduler,
    config: &ReplayConfig,
) -> MlResult<ScheduleReport> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut arrival: u64 = 0;
    for (i, chunk) in log.replay(config.window.max(1)).enumerate() {
        arrival += config.arrivals.next_gap(&mut rng);
        let refs: Vec<&QueryRecord> = chunk.iter().collect();
        let actual: ResourceVector = chunk.iter().map(|r| r.resources).sum();
        let decision = source.decide(&refs, actual)?;
        scheduler.submit(WorkloadRequest {
            id: i as u64,
            tenant: i,
            arrival,
            duration: (actual.cpu_ms.ceil() as u64).max(1),
            decision,
            actual,
            queries: chunk.len(),
        });
    }
    let mut report = scheduler.run_to_completion();
    report.demand_source = source.label().to_string();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{BestFit, FirstFit, PredictionAware};
    use crate::report::CostModel;
    use crate::sla::SlaClass;
    use wmp_sim::Cluster;

    fn small_log() -> QueryLog {
        wmp_workloads::tpch::generate(400, 7).expect("tpch generation")
    }

    fn scheduler(policy: Box<dyn crate::PlacementPolicy>) -> Scheduler {
        Scheduler::new(
            Cluster::uniform(3, ResourceVector::new(192.0, f64::INFINITY, f64::INFINITY)),
            policy,
        )
        .with_sla_classes(vec![SlaClass::new(500, 10.0), SlaClass::new(2_000, 2.0)])
        .with_cost_model(CostModel { stranded_per_mb_tick: 1e-5 })
    }

    #[test]
    fn oracle_replay_accounts_every_window() {
        let log = small_log();
        let config = ReplayConfig::default();
        let report =
            replay(&log, DemandSource::Oracle, scheduler(Box::new(BestFit)), &config).unwrap();
        assert_eq!(report.queries, log.len());
        assert_eq!(report.workloads, log.len().div_ceil(config.window));
        assert_eq!(report.placed() + report.rejected, report.workloads, "conservation");
        assert_eq!(report.demand_source, "oracle");
        assert!(report.makespan_ticks > 0);
    }

    #[test]
    fn nominal_and_predicted_sources_are_labeled() {
        let log = small_log();
        let config = ReplayConfig { seed: 9, ..Default::default() };
        let nominal = replay(
            &log,
            DemandSource::Nominal(ResourceVector::memory_only(120.0)),
            scheduler(Box::new(FirstFit)),
            &config,
        )
        .unwrap();
        assert_eq!(nominal.demand_source, "nominal");
        let oracle_aware = replay(
            &log,
            DemandSource::Oracle,
            scheduler(Box::new(PredictionAware::new(1.2))),
            &config,
        )
        .unwrap();
        assert_eq!(oracle_aware.policy, "prediction-aware");
    }

    #[test]
    fn same_seed_same_report_different_seed_different_arrivals() {
        let log = small_log();
        let config = ReplayConfig { seed: 11, ..Default::default() };
        let run =
            || replay(&log, DemandSource::Oracle, scheduler(Box::new(BestFit)), &config).unwrap();
        assert_eq!(run(), run(), "bit-identical reports for identical inputs");
        let other = replay(
            &log,
            DemandSource::Oracle,
            scheduler(Box::new(BestFit)),
            &ReplayConfig { seed: 12, ..config },
        )
        .unwrap();
        assert_ne!(run().makespan_ticks, 0);
        assert!(other == other.clone());
    }
}
