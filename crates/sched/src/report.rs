//! Cost accounting and the final [`ScheduleReport`]: the measuring stick
//! that turns prediction quality into scheduling outcomes (SLA penalty vs.
//! stranded capacity vs. utilization).

use std::fmt;

use wmp_plan::{ResourceKind, ResourceVector};

/// Prices for the two capacity sins. SLA penalties are priced by each
/// workload's [`crate::SlaClass`]; this model prices the *stranded* side:
/// capacity a decision reserved but reality never used.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cost per MB·tick of reserved-but-unused working memory. Stranding is
    /// integrated over virtual time: an over-reservation held twice as long
    /// costs twice as much.
    pub stranded_per_mb_tick: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // 1 unit per GB·kilotick: keeps penalty and stranding costs on
        // comparable scales for the shipped workloads.
        CostModel { stranded_per_mb_tick: 1e-6 }
    }
}

/// Everything a finished (or in-progress) scheduling run is judged on.
/// `PartialEq` compares every field including the `f64` accumulators, so
/// two runs with identical inputs must produce *identical* reports — the
/// determinism contract the replay tests pin down.
#[derive(Debug, Clone, PartialEq, Default)]
#[must_use = "a schedule report is the outcome of the run — inspect or persist it"]
pub struct ScheduleReport {
    /// Placement policy name.
    pub policy: String,
    /// Demand-signal label ("nominal", "predicted", "oracle", "direct").
    pub demand_source: String,
    /// Executors in the cluster.
    pub executors: usize,
    /// Workloads submitted.
    pub workloads: usize,
    /// Queries aggregated into those workloads.
    pub queries: usize,
    /// Workloads placed at arrival (no queueing).
    pub placed_direct: usize,
    /// Workloads placed after waiting in the deferral queue.
    pub placed_deferred: usize,
    /// Workloads rejected because their reservation can never fit any
    /// executor.
    pub rejected: usize,
    /// Workloads that started after their SLA deadline.
    pub sla_violations: usize,
    /// Summed violation penalties.
    pub sla_penalty: f64,
    /// Integral of reserved-but-unused memory over virtual time (MB·ticks).
    pub stranded_mb_ticks: f64,
    /// `stranded_mb_ticks` priced by [`CostModel::stranded_per_mb_tick`].
    pub stranded_cost: f64,
    /// Placements after which some executor's *actual* occupancy exceeded
    /// its capacity (under-provisioning episodes).
    pub overflow_events: usize,
    /// Summed queueing delay over deferred workloads (ticks).
    pub total_deferral_ticks: u64,
    /// Worst single queueing delay (ticks).
    pub max_deferral_ticks: u64,
    /// Virtual time at which the last workload completed.
    pub makespan_ticks: u64,
    /// Time-averaged actual occupancy as a fraction of cluster capacity,
    /// per resource (0 on ungated axes).
    pub mean_utilization: ResourceVector,
}

impl ScheduleReport {
    /// Workloads that eventually ran (directly or after deferral).
    pub fn placed(&self) -> usize {
        self.placed_direct + self.placed_deferred
    }

    /// The scalar objective: SLA penalty + stranded-capacity cost. Lower is
    /// better; this is the number the policy comparison ranks on.
    pub fn total_cost(&self) -> f64 {
        self.sla_penalty + self.stranded_cost
    }

    /// Mean queueing delay across deferred workloads (0 when none).
    pub fn mean_deferral_ticks(&self) -> f64 {
        if self.placed_deferred == 0 {
            0.0
        } else {
            self.total_deferral_ticks as f64 / self.placed_deferred as f64
        }
    }
}

impl fmt::Display for ScheduleReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} / {} demand: {} workloads ({} queries) on {} executors",
            self.policy, self.demand_source, self.workloads, self.queries, self.executors
        )?;
        writeln!(
            f,
            "  placed {} ({} deferred, mean wait {:.0} ticks, max {}), rejected {}",
            self.placed(),
            self.placed_deferred,
            self.mean_deferral_ticks(),
            self.max_deferral_ticks,
            self.rejected
        )?;
        writeln!(
            f,
            "  SLA: {} violations, penalty {:.2}; stranded {:.0} MB·ticks ({:.2}); overflows {}",
            self.sla_violations,
            self.sla_penalty,
            self.stranded_mb_ticks,
            self.stranded_cost,
            self.overflow_events
        )?;
        write!(
            f,
            "  total cost {:.2}; makespan {} ticks; utilization mem {:.0}% cpu {:.0}%",
            self.total_cost(),
            self.makespan_ticks,
            self.mean_utilization.memory_mb * 100.0,
            self.mean_utilization.cpu_ms * 100.0
        )
    }
}

/// Time-integrated occupancy accounting. Advanced to every event tick by
/// the scheduler; all integrals are exact sums of per-interval products, so
/// identical event sequences produce bit-identical integrals.
#[derive(Debug, Clone, Default)]
pub(crate) struct Integrals {
    last_tick: u64,
    /// Σ actual occupancy × Δticks, per resource.
    pub(crate) actual: ResourceVector,
    /// Σ max(0, reserved − actual) memory × Δticks.
    pub(crate) stranded_mb_ticks: f64,
}

impl Integrals {
    /// Accumulates occupancy over `[last_tick, tick)` and moves the cursor.
    pub(crate) fn advance(&mut self, cluster: &wmp_sim::Cluster, tick: u64) {
        if tick <= self.last_tick {
            return;
        }
        let dt = (tick - self.last_tick) as f64;
        self.last_tick = tick;
        let actual = cluster.total_actual();
        self.actual += actual.scale(dt);
        let stranded = (cluster.total_reserved().memory_mb - actual.memory_mb).max(0.0);
        self.stranded_mb_ticks += stranded * dt;
    }

    /// Mean utilization over `[0, makespan]` against `capacity` (0 on
    /// infinite/zero axes and for an empty timeline).
    pub(crate) fn mean_utilization(
        &self,
        capacity: ResourceVector,
        makespan: u64,
    ) -> ResourceVector {
        if makespan == 0 {
            return ResourceVector::ZERO;
        }
        let mut out = [0.0; wmp_plan::N_RESOURCES];
        for kind in ResourceKind::ALL {
            let cap = capacity.get(kind);
            if cap.is_finite() && cap > 0.0 {
                out[kind.index()] = self.actual.get(kind) / (cap * makespan as f64);
            }
        }
        ResourceVector::from_array(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmp_sim::Cluster;

    #[test]
    fn integrals_accumulate_occupancy_over_time() {
        let mut cluster = Cluster::uniform(1, ResourceVector::new(100.0, 100.0, f64::INFINITY));
        let mut integrals = Integrals::default();
        cluster
            .executor_mut(0)
            .try_admit(0, ResourceVector::memory_only(60.0), ResourceVector::memory_only(40.0))
            .unwrap();
        integrals.advance(&cluster, 10); // 10 ticks at 40 MB actual, 20 MB stranded
        cluster.executor_mut(0).release(0);
        integrals.advance(&cluster, 20); // 10 idle ticks
        assert!((integrals.actual.memory_mb - 400.0).abs() < 1e-9);
        assert!((integrals.stranded_mb_ticks - 200.0).abs() < 1e-9);
        let util = integrals.mean_utilization(cluster.total_capacity(), 20);
        assert!((util.memory_mb - 0.2).abs() < 1e-9, "400 MB·ticks / (100 MB × 20 ticks)");
        assert_eq!(util.io_pages, 0.0, "ungated axes report zero");
        // Re-advancing to the past is a no-op.
        integrals.advance(&cluster, 5);
        assert!((integrals.actual.memory_mb - 400.0).abs() < 1e-9);
    }

    #[test]
    fn report_cost_and_means() {
        let report = ScheduleReport {
            policy: "best-fit".into(),
            demand_source: "oracle".into(),
            executors: 2,
            workloads: 10,
            queries: 100,
            placed_direct: 6,
            placed_deferred: 3,
            rejected: 1,
            sla_violations: 2,
            sla_penalty: 50.0,
            stranded_mb_ticks: 2_000_000.0,
            stranded_cost: 2.0,
            overflow_events: 1,
            total_deferral_ticks: 300,
            max_deferral_ticks: 200,
            makespan_ticks: 5_000,
            mean_utilization: ResourceVector::new(0.7, 0.5, 0.0),
        };
        assert_eq!(report.placed(), 9);
        assert!((report.total_cost() - 52.0).abs() < 1e-12);
        assert!((report.mean_deferral_ticks() - 100.0).abs() < 1e-12);
        let text = report.to_string();
        assert!(text.contains("total cost 52.00"), "{text}");
        assert!(text.contains("best-fit / oracle"), "{text}");
    }
}
