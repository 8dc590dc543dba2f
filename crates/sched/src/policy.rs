//! Placement policies: given one workload's believed demand and the current
//! cluster occupancy, pick an executor — or decline, sending the workload to
//! the scheduler's deferral queue.
//!
//! Policies never mutate the cluster; the [`crate::Scheduler`] performs the
//! actual admission through [`wmp_sim::Executor::try_admit`], which refuses
//! over-capacity reservations. A policy therefore *cannot* push an executor
//! past its [`wmp_plan::ResourceVector`] capacity even if it returns a bad
//! index — the scheduler treats a refused admission as a deferral.
//!
//! What distinguishes the shipped policies:
//!
//! - [`FirstFit`] — lowest-index executor with headroom; fast, fragmenting.
//! - [`BestFit`] — the fitting executor left with the least normalized
//!   slack, i.e. the choice that strands the least capacity.
//! - [`PredictionAware`] — [`BestFit`] placement over an inflated
//!   reservation: believed demand × a configurable headroom factor, so a
//!   calibrated-but-noisy predictor under-provisions less often. Workloads
//!   it cannot place wait in the scheduler's deferral queue rather than
//!   being force-placed.
//!
//! What the policy *sees* (nominal constant, model prediction, or true
//! cost) is the replay driver's [`crate::DemandSource`]; keeping the two
//! axes orthogonal lets the bench compare policy × demand-source cells.

use wmp_plan::{ResourceKind, ResourceVector};
use wmp_sim::Cluster;

/// A placement decision rule. See the module docs for the contract.
pub trait PlacementPolicy: Send + Sync {
    /// Stable display name (used in reports and bench trajectories).
    fn name(&self) -> &'static str;

    /// The reservation to request for a workload whose believed demand is
    /// `demand` — the hook where headroom factors inflate predictions. The
    /// default reserves exactly the believed demand.
    fn reserve_demand(&self, demand: ResourceVector) -> ResourceVector {
        demand
    }

    /// The executor to place a `reserve`-sized reservation on, or `None`
    /// to defer. The contract has two directions:
    ///
    /// - `Some(i)` only if executor `i` [`fits`](wmp_sim::Executor::fits)
    ///   the reservation;
    /// - `None` only when no executor fits it.
    ///
    /// The scheduler's deferral retry relies on both: a workload the policy
    /// did not place fits nowhere, so after a release it can only fit the
    /// executor that released, and the retry asks about nothing else. A
    /// policy that breaks the contract still cannot overrun an executor
    /// (the scheduler re-checks via [`wmp_sim::Executor::try_admit`]), but
    /// a workload it turned away may wait until an executor it fits
    /// releases, or until the final drain.
    fn place(&self, reserve: ResourceVector, cluster: &Cluster) -> Option<usize>;
}

/// Lowest-index executor with room — the classic baseline bin-packing rule.
#[derive(Debug, Clone, Copy, Default)]
pub struct FirstFit;

impl PlacementPolicy for FirstFit {
    fn name(&self) -> &'static str {
        "first-fit"
    }

    fn place(&self, reserve: ResourceVector, cluster: &Cluster) -> Option<usize> {
        cluster.executors().iter().position(|e| e.fits(reserve))
    }
}

/// Normalized slack left on `executor` after reserving `reserve`: the mean
/// over gated axes of `(capacity - reserved - reserve) / capacity`. Lower
/// means a tighter (less stranding) fit.
fn slack_after(executor: &wmp_sim::Executor, reserve: ResourceVector) -> f64 {
    let capacity = executor.capacity();
    let occupied = executor.reserved();
    let mut total = 0.0;
    let mut axes = 0;
    for kind in ResourceKind::ALL {
        let cap = capacity.get(kind);
        if cap.is_finite() && cap > 0.0 {
            total += (cap - occupied.get(kind) - reserve.get(kind)) / cap;
            axes += 1;
        }
    }
    if axes == 0 {
        0.0
    } else {
        total / axes as f64
    }
}

/// The fitting executor left with the least normalized slack — the
/// stranded-capacity-minimizing greedy rule.
#[derive(Debug, Clone, Copy, Default)]
pub struct BestFit;

impl PlacementPolicy for BestFit {
    fn name(&self) -> &'static str {
        "best-fit"
    }

    fn place(&self, reserve: ResourceVector, cluster: &Cluster) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, executor) in cluster.executors().iter().enumerate() {
            if !executor.fits(reserve) {
                continue;
            }
            let slack = slack_after(executor, reserve);
            // Strict < keeps ties on the lowest index — deterministic.
            if best.is_none_or(|(_, s)| slack < s) {
                best = Some((i, slack));
            }
        }
        best.map(|(i, _)| i)
    }
}

/// Best-fit placement over a headroom-inflated reservation: believed demand
/// × `headroom`. With `headroom > 1` a calibrated predictor's residual
/// under-predictions are absorbed by the slack instead of overflowing the
/// executor; workloads that do not fit anywhere wait in the scheduler's
/// deferral queue.
#[derive(Debug, Clone, Copy)]
pub struct PredictionAware {
    headroom: f64,
}

impl PredictionAware {
    /// A prediction-aware policy reserving `headroom` × the believed
    /// demand (values < 1 are clamped to 1 — reserving less than the
    /// prediction is indistinguishable from mis-calibrating the model).
    pub fn new(headroom: f64) -> Self {
        PredictionAware { headroom: headroom.max(1.0) }
    }

    /// The configured headroom factor.
    pub fn headroom(&self) -> f64 {
        self.headroom
    }
}

impl Default for PredictionAware {
    fn default() -> Self {
        PredictionAware::new(1.1)
    }
}

impl PlacementPolicy for PredictionAware {
    fn name(&self) -> &'static str {
        "prediction-aware"
    }

    fn reserve_demand(&self, demand: ResourceVector) -> ResourceVector {
        demand.scale(self.headroom)
    }

    fn place(&self, reserve: ResourceVector, cluster: &Cluster) -> Option<usize> {
        BestFit.place(reserve, cluster)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> Cluster {
        // exec 0: roomy, exec 1: tight.
        let mut cluster = Cluster::from_capacities(vec![
            ResourceVector::new(100.0, f64::INFINITY, f64::INFINITY),
            ResourceVector::new(100.0, f64::INFINITY, f64::INFINITY),
        ]);
        cluster
            .executor_mut(1)
            .try_admit(0, ResourceVector::memory_only(70.0), ResourceVector::memory_only(70.0))
            .unwrap();
        cluster
    }

    #[test]
    fn first_fit_takes_the_lowest_index() {
        let cluster = cluster();
        assert_eq!(FirstFit.place(ResourceVector::memory_only(20.0), &cluster), Some(0));
        assert_eq!(FirstFit.name(), "first-fit");
    }

    #[test]
    fn best_fit_takes_the_tightest_executor() {
        let cluster = cluster();
        // 20 MB leaves 80 MB slack on exec 0 but only 10 MB on exec 1.
        assert_eq!(BestFit.place(ResourceVector::memory_only(20.0), &cluster), Some(1));
        // 40 MB no longer fits exec 1 (70 + 40 > 100): falls to exec 0.
        assert_eq!(BestFit.place(ResourceVector::memory_only(40.0), &cluster), Some(0));
        // Nothing fits 200 MB.
        assert_eq!(BestFit.place(ResourceVector::memory_only(200.0), &cluster), None);
    }

    #[test]
    fn best_fit_breaks_ties_on_the_lowest_index() {
        let cluster = Cluster::uniform(3, ResourceVector::memory_only(100.0));
        assert_eq!(BestFit.place(ResourceVector::memory_only(10.0), &cluster), Some(0));
    }

    #[test]
    fn prediction_aware_inflates_the_reservation() {
        let policy = PredictionAware::new(1.5);
        let reserve = policy.reserve_demand(ResourceVector::new(10.0, 100.0, 1000.0));
        assert_eq!(reserve, ResourceVector::new(15.0, 150.0, 1500.0));
        // Headroom below 1 is clamped.
        assert_eq!(PredictionAware::new(0.5).headroom(), 1.0);
        assert_eq!(PredictionAware::default().headroom(), 1.1);
        assert_eq!(policy.name(), "prediction-aware");
    }

    #[test]
    fn policies_never_pick_a_full_executor() {
        let mut cluster = Cluster::uniform(2, ResourceVector::memory_only(50.0));
        for i in 0..2 {
            cluster
                .executor_mut(i)
                .try_admit(i as u64, ResourceVector::memory_only(45.0), ResourceVector::ZERO)
                .unwrap();
        }
        let demand = ResourceVector::memory_only(10.0);
        assert_eq!(FirstFit.place(demand, &cluster), None);
        assert_eq!(BestFit.place(demand, &cluster), None);
        assert_eq!(PredictionAware::default().place(demand, &cluster), None);
    }
}
