//! The executor/cluster capacity model: [`Executor`]s with a
//! [`ResourceVector`] capacity and a running set of admitted workloads,
//! grouped into a [`Cluster`].
//!
//! This is the accounting substrate the scheduler (`wmp_sched`) stands on;
//! admission control is its one-executor case. An executor tracks two
//! occupancy views of the same running set:
//!
//! - the **reserved** view — what the decision maker *believed* each
//!   workload needs (a prediction, a heuristic guess, or the truth for an
//!   oracle). Admission is gated on this view: [`Executor::try_admit`]
//!   refuses any workload whose reservation would push a gated resource past
//!   capacity, so the reserved view **never** exceeds capacity — the
//!   invariant every placement policy inherits for free.
//! - the **actual** view — what the hardware experiences. It is *not*
//!   gated (reality cannot be refused); under-predictions surface as
//!   [`Executor::actual_overruns`], the overflow signal (spills, thrashing)
//!   that admission control and scheduling exist to prevent.
//!
//! Capacity components set to `f64::INFINITY` are not gated, so a
//! memory-only budget (the paper's scenario) and a joint memory+CPU budget
//! (the WiSeDB-style scheduling regime) are the same code path — the one
//! decision path `wmp_sched` delegates to.

use wmp_plan::{ResourceKind, ResourceVector, N_RESOURCES};

/// One admitted workload as the executor sees it: the reservation the
/// decision was made on next to the demand reality imposes.
#[derive(Debug, Clone, Copy)]
pub struct PlacedWorkload {
    /// Caller-assigned workload id (unique within its executor).
    pub id: u64,
    /// The demand the decision maker reserved capacity for.
    pub reserved: ResourceVector,
    /// The demand the hardware experiences while the workload runs.
    pub actual: ResourceVector,
}

/// Why [`Executor::try_admit`] refused a workload: the first gated resource
/// (in [`ResourceKind::ALL`] order) whose reservation would exceed capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityExceeded(pub ResourceKind);

/// One memory/CPU/IO-bounded executor with a running set of admitted
/// workloads. See the module docs for the reserved-vs-actual contract.
#[derive(Debug, Clone)]
pub struct Executor {
    capacity: ResourceVector,
    running: Vec<PlacedWorkload>,
}

impl Executor {
    /// An empty executor with the given per-resource capacity (infinite
    /// components are not gated).
    pub fn new(capacity: ResourceVector) -> Self {
        Executor { capacity, running: Vec::new() }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> ResourceVector {
        self.capacity
    }

    /// Number of workloads currently running.
    pub fn running(&self) -> usize {
        self.running.len()
    }

    /// The running set (decision order).
    pub fn workloads(&self) -> &[PlacedWorkload] {
        &self.running
    }

    /// Sum of running reservations — the decision maker's occupancy view.
    pub fn reserved(&self) -> ResourceVector {
        self.running.iter().map(|w| w.reserved).sum()
    }

    /// Sum of running actual demands — the hardware's occupancy view.
    pub fn actual(&self) -> ResourceVector {
        self.running.iter().map(|w| w.actual).sum()
    }

    /// First gated resource on which `reserved() + demand` would exceed
    /// capacity, in [`ResourceKind::ALL`] order (`None` when the demand
    /// fits). One headroom comparison shared by every gated resource —
    /// single-resource and joint budgets take the same path.
    pub fn first_overrun(&self, demand: ResourceVector) -> Option<ResourceKind> {
        let occupancy = self.reserved();
        ResourceKind::ALL.into_iter().find(|&kind| {
            self.capacity.get(kind).is_finite()
                && occupancy.get(kind) + demand.get(kind) > self.capacity.get(kind)
        })
    }

    /// Whether a reservation of `demand` fits next to the current
    /// reservations on every gated resource.
    pub fn fits(&self, demand: ResourceVector) -> bool {
        self.first_overrun(demand).is_none()
    }

    /// Whether `demand` could ever be reserved on this executor, i.e. fits
    /// an *empty* executor's capacity. Workloads failing this can never be
    /// placed and must be rejected rather than deferred.
    pub fn could_ever_fit(&self, demand: ResourceVector) -> bool {
        ResourceKind::ALL.into_iter().all(|kind| {
            !self.capacity.get(kind).is_finite() || demand.get(kind) <= self.capacity.get(kind)
        })
    }

    /// Admits a workload iff its reservation fits ([`Executor::fits`]);
    /// refusal names the first over-budget resource. The reserved view can
    /// therefore never exceed capacity; the *actual* view can — check
    /// [`Executor::actual_overruns`] after admission.
    ///
    /// # Errors
    /// [`CapacityExceeded`] with the first gated resource that would overrun.
    pub fn try_admit(
        &mut self,
        id: u64,
        reserved: ResourceVector,
        actual: ResourceVector,
    ) -> Result<(), CapacityExceeded> {
        if let Some(kind) = self.first_overrun(reserved) {
            return Err(CapacityExceeded(kind));
        }
        self.running.push(PlacedWorkload { id, reserved, actual });
        Ok(())
    }

    /// Releases workload `id`, returning it. Unknown ids return `None`
    /// (idempotent completion).
    pub fn release(&mut self, id: u64) -> Option<PlacedWorkload> {
        let at = self.running.iter().position(|w| w.id == id)?;
        Some(self.running.remove(at))
    }

    /// Every gated resource whose *actual* occupancy currently exceeds
    /// capacity — the overflow signal. Each over-budget resource is reported
    /// once per call (one overflow episode, possibly multiple resources),
    /// never once per workload.
    pub fn actual_overruns(&self) -> ActualOverruns {
        let occupancy = self.actual();
        let mut over = [false; N_RESOURCES];
        for kind in ResourceKind::ALL {
            over[kind.index()] = self.capacity.get(kind).is_finite()
                && occupancy.get(kind) > self.capacity.get(kind);
        }
        ActualOverruns { over }
    }
}

/// Which resources an executor's actual occupancy currently overruns (see
/// [`Executor::actual_overruns`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ActualOverruns {
    over: [bool; N_RESOURCES],
}

impl ActualOverruns {
    /// True when at least one gated resource is over capacity.
    pub fn any(&self) -> bool {
        self.over.iter().any(|&b| b)
    }

    /// True when `kind`'s actual occupancy exceeds capacity.
    pub fn on(&self, kind: ResourceKind) -> bool {
        self.over[kind.index()]
    }

    /// The first overrun resource in [`ResourceKind::ALL`] order.
    pub fn first(&self) -> Option<ResourceKind> {
        ResourceKind::ALL.into_iter().find(|&k| self.on(k))
    }
}

/// N executors under one roof: the multi-tenant capacity model a placement
/// policy chooses from. Executors are addressed by index.
#[derive(Debug, Clone)]
pub struct Cluster {
    executors: Vec<Executor>,
}

impl Cluster {
    /// `n` executors, each with the same capacity.
    pub fn uniform(n: usize, capacity: ResourceVector) -> Self {
        Cluster { executors: (0..n).map(|_| Executor::new(capacity)).collect() }
    }

    /// Heterogeneous executors from explicit capacities.
    pub fn from_capacities(capacities: Vec<ResourceVector>) -> Self {
        Cluster { executors: capacities.into_iter().map(Executor::new).collect() }
    }

    /// Number of executors.
    pub fn len(&self) -> usize {
        self.executors.len()
    }

    /// True when the cluster has no executors.
    pub fn is_empty(&self) -> bool {
        self.executors.is_empty()
    }

    /// The executors, in index order.
    pub fn executors(&self) -> &[Executor] {
        &self.executors
    }

    /// One executor by index.
    pub fn executor(&self, index: usize) -> &Executor {
        &self.executors[index]
    }

    /// Mutable access to one executor by index.
    pub fn executor_mut(&mut self, index: usize) -> &mut Executor {
        &mut self.executors[index]
    }

    /// Whether `demand` could ever be reserved on at least one executor
    /// (the rejection test: a workload failing this can never be placed).
    pub fn could_ever_fit(&self, demand: ResourceVector) -> bool {
        self.executors.iter().any(|e| e.could_ever_fit(demand))
    }

    /// Sum of all executors' capacities.
    pub fn total_capacity(&self) -> ResourceVector {
        self.executors.iter().map(Executor::capacity).sum()
    }

    /// Sum of all executors' reserved occupancy.
    pub fn total_reserved(&self) -> ResourceVector {
        self.executors.iter().map(Executor::reserved).sum()
    }

    /// Sum of all executors' actual occupancy.
    pub fn total_actual(&self) -> ResourceVector {
        self.executors.iter().map(Executor::actual).sum()
    }

    /// Total workloads currently running across all executors.
    pub fn total_running(&self) -> usize {
        self.executors.iter().map(Executor::running).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cap(mem: f64, cpu: f64) -> ResourceVector {
        ResourceVector::new(mem, cpu, f64::INFINITY)
    }

    #[test]
    fn try_admit_gates_the_reserved_view() {
        let mut exec = Executor::new(cap(100.0, 1_000.0));
        assert!(exec
            .try_admit(0, ResourceVector::new(60.0, 400.0, 0.0), ResourceVector::ZERO)
            .is_ok());
        // Memory fits but CPU would overrun.
        assert_eq!(
            exec.try_admit(1, ResourceVector::new(10.0, 700.0, 0.0), ResourceVector::ZERO),
            Err(CapacityExceeded(ResourceKind::Cpu)),
        );
        // Both memory and CPU would overrun: one refusal, first axis named.
        assert_eq!(
            exec.try_admit(2, ResourceVector::new(70.0, 700.0, 0.0), ResourceVector::ZERO),
            Err(CapacityExceeded(ResourceKind::Memory)),
        );
        assert_eq!(exec.running(), 1);
        assert!(exec.reserved().memory_mb <= exec.capacity().memory_mb);
    }

    #[test]
    fn actual_view_is_not_gated_and_reports_every_overrun_once() {
        let mut exec = Executor::new(cap(100.0, 100.0));
        // Reservation fits; reality overruns memory AND cpu.
        exec.try_admit(
            0,
            ResourceVector::new(50.0, 50.0, 0.0),
            ResourceVector::new(90.0, 90.0, 0.0),
        )
        .unwrap();
        exec.try_admit(
            1,
            ResourceVector::new(40.0, 40.0, 0.0),
            ResourceVector::new(80.0, 70.0, 0.0),
        )
        .unwrap();
        let overruns = exec.actual_overruns();
        assert!(overruns.any());
        assert!(overruns.on(ResourceKind::Memory) && overruns.on(ResourceKind::Cpu));
        assert!(!overruns.on(ResourceKind::Io), "IO is not gated");
        assert_eq!(overruns.first(), Some(ResourceKind::Memory));
    }

    #[test]
    fn release_is_idempotent_and_restores_headroom() {
        let mut exec = Executor::new(cap(100.0, f64::INFINITY));
        exec.try_admit(7, ResourceVector::memory_only(90.0), ResourceVector::memory_only(85.0))
            .unwrap();
        assert!(!exec.fits(ResourceVector::memory_only(20.0)));
        let released = exec.release(7).unwrap();
        assert_eq!(released.id, 7);
        assert!(exec.release(7).is_none(), "double completion is a no-op");
        assert!(exec.fits(ResourceVector::memory_only(20.0)));
    }

    #[test]
    fn could_ever_fit_is_the_rejection_test() {
        let cluster = Cluster::from_capacities(vec![cap(50.0, 100.0), cap(100.0, 100.0)]);
        assert!(cluster.could_ever_fit(ResourceVector::new(80.0, 50.0, 1e12)));
        assert!(!cluster.could_ever_fit(ResourceVector::new(101.0, 0.0, 0.0)));
        assert!(!cluster.could_ever_fit(ResourceVector::new(10.0, 101.0, 0.0)));
    }

    #[test]
    fn cluster_totals_aggregate_executors() {
        let mut cluster = Cluster::uniform(2, cap(100.0, 100.0));
        assert_eq!(cluster.len(), 2);
        assert!(!cluster.is_empty());
        cluster
            .executor_mut(0)
            .try_admit(0, ResourceVector::memory_only(40.0), ResourceVector::memory_only(30.0))
            .unwrap();
        cluster
            .executor_mut(1)
            .try_admit(1, ResourceVector::memory_only(50.0), ResourceVector::memory_only(60.0))
            .unwrap();
        assert_eq!(cluster.total_running(), 2);
        assert!((cluster.total_capacity().memory_mb - 200.0).abs() < 1e-12);
        assert!((cluster.total_reserved().memory_mb - 90.0).abs() < 1e-12);
        assert!((cluster.total_actual().memory_mb - 90.0).abs() < 1e-12);
    }
}
