//! The discrete-event scheduler core: virtual-time submission, completion,
//! deferral retry, and cost accounting over a [`wmp_sim::Cluster`].
//!
//! Everything runs in **virtual ticks** — no wall clock anywhere — so a run
//! is a pure function of (cluster, policy, SLA classes, cost model, request
//! sequence): the determinism contract the replay tests pin to bit-identical
//! [`ScheduleReport`]s.
//!
//! Event semantics, in order, for `submit(request)`:
//!
//! 1. the clock advances to `request.arrival`, processing every completion
//!    due on the way (occupancy integrals are accumulated *before* each
//!    release, so integrals see the workload up to its finish tick);
//! 2. each completion retries the deferral queue in FIFO order (one pass).
//!    Between releases no waiting reservation fits any executor (each
//!    failed everywhere at its last try, and headroom only shrinks until
//!    the next release), so the pass asks the policy only about workloads
//!    that fit the executor that just released, and stops as soon as that
//!    executor cannot fit a lower bound on every waiting reservation. The
//!    calls it skips are exactly those that would have declined, so the
//!    outcome is a full pass's, bit for bit;
//! 3. the request itself is placed if the policy finds a fitting executor,
//!    **deferred** if not, and **rejected** only when its reservation could
//!    never fit even an empty executor — so every submitted workload ends in
//!    exactly one of placed / deferred-then-placed / rejected (the
//!    conservation invariant the property tests check).
//!
//! Placement is re-checked through [`wmp_sim::Executor::try_admit`], which
//! refuses over-capacity reservations: a buggy policy cannot violate the
//! capacity invariant, it only causes deferrals.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use wmp_plan::ResourceVector;
use wmp_sim::Cluster;

use crate::policy::PlacementPolicy;
use crate::report::{CostModel, Integrals, ScheduleReport};
use crate::sla::SlaClass;

/// One unit of schedulable work: a predicted workload window with its
/// decision-view demand (what the scheduler believes) and actual demand
/// (what the hardware will experience).
#[derive(Debug, Clone, Copy)]
pub struct WorkloadRequest {
    /// Caller-assigned id, unique per run.
    pub id: u64,
    /// Tenant index; maps to an SLA class via `tenant % n_classes`.
    pub tenant: usize,
    /// Arrival tick. Submissions must be in non-decreasing arrival order;
    /// an arrival before the current clock is clamped to "now".
    pub arrival: u64,
    /// Service duration in ticks once started (clamped to ≥ 1).
    pub duration: u64,
    /// The demand the placement decision is made on (prediction, nominal
    /// constant, or the truth for an oracle).
    pub decision: ResourceVector,
    /// The demand the workload actually imposes while running.
    pub actual: ResourceVector,
    /// Queries aggregated into this workload (report bookkeeping only).
    pub queries: usize,
}

/// The outcome `submit` reports for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Submitted {
    /// Placed immediately on the given executor.
    Placed(usize),
    /// Queued; will be placed when capacity frees up.
    Deferred,
    /// Reservation can never fit any executor — dropped permanently.
    Rejected,
}

/// A componentwise bound above every reservation: the lower bound on an
/// empty deferral queue.
const UNBOUNDED: ResourceVector =
    ResourceVector { memory_mb: f64::INFINITY, cpu_ms: f64::INFINITY, io_pages: f64::INFINITY };

/// `floor` lowered to cover `reserve` as well. A NaN component bounds
/// nothing, so it drops that axis to −∞, where no headroom test can fail.
fn lower_floor(floor: ResourceVector, reserve: ResourceVector) -> ResourceVector {
    let (floor, reserve) = (floor.as_array(), reserve.as_array());
    ResourceVector::from_array(std::array::from_fn(|k| {
        if reserve[k] < floor[k] {
            reserve[k]
        } else if reserve[k].is_nan() {
            f64::NEG_INFINITY
        } else {
            floor[k]
        }
    }))
}

/// A deferred request plus the bookkeeping to price its wait when placed.
#[derive(Debug, Clone, Copy)]
struct Waiting {
    request: WorkloadRequest,
    reserve: ResourceVector,
}

/// The discrete-event multi-tenant scheduler. See the module docs for the
/// event semantics and [`crate::PlacementPolicy`] for the decision rules.
pub struct Scheduler {
    cluster: Cluster,
    policy: Box<dyn PlacementPolicy>,
    sla: Vec<SlaClass>,
    cost: CostModel,
    clock: u64,
    /// Min-heap of (finish_tick, workload id, executor index). The id in
    /// the key makes pop order total, hence deterministic.
    completions: BinaryHeap<Reverse<(u64, u64, usize)>>,
    waiting: VecDeque<Waiting>,
    /// Componentwise lower bound on every waiting reservation: lowered on
    /// each deferral, recomputed by a retry pass that visits the whole
    /// queue. A stale value is still a lower bound, since workloads only
    /// leave the queue in between.
    floor: ResourceVector,
    /// Per executor: whether its actual view overruns capacity. Updated
    /// only for the executor that admits or releases.
    overrunning: Vec<bool>,
    /// How many entries of `overrunning` are set.
    overrun_executors: usize,
    integrals: Integrals,
    /// Every outcome, counted once in the report's own fields;
    /// [`Scheduler::report`] adds what `integrals` yields.
    tally: ScheduleReport,
}

impl Scheduler {
    /// A scheduler over `cluster` deciding placements with `policy`. No SLA
    /// classes (no penalties) and the default [`CostModel`] until configured
    /// via [`Scheduler::with_sla_classes`] / [`Scheduler::with_cost_model`].
    pub fn new(cluster: Cluster, policy: Box<dyn PlacementPolicy>) -> Self {
        let overrunning: Vec<bool> =
            cluster.executors().iter().map(|e| e.actual_overruns().any()).collect();
        let tally = ScheduleReport {
            policy: policy.name().to_string(),
            demand_source: "direct".to_string(),
            executors: cluster.len(),
            ..ScheduleReport::default()
        };
        Scheduler {
            cluster,
            policy,
            sla: Vec::new(),
            cost: CostModel::default(),
            clock: 0,
            completions: BinaryHeap::new(),
            waiting: VecDeque::new(),
            floor: UNBOUNDED,
            overrun_executors: overrunning.iter().filter(|&&o| o).count(),
            overrunning,
            integrals: Integrals::default(),
            tally,
        }
    }

    /// Sets the SLA classes; a request's class is `tenant % classes.len()`.
    pub fn with_sla_classes(mut self, classes: Vec<SlaClass>) -> Self {
        self.sla = classes;
        self
    }

    /// Sets the stranded-capacity pricing.
    pub fn with_cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// The cluster (current occupancy included) — the surface the property
    /// tests assert the capacity invariant on.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Current virtual time.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Workloads currently waiting in the deferral queue.
    pub fn queue_depth(&self) -> usize {
        self.waiting.len()
    }

    /// The SLA class governing `tenant` (`None` when no classes are set).
    fn sla_for(&self, tenant: usize) -> Option<SlaClass> {
        if self.sla.is_empty() {
            None
        } else {
            Some(self.sla[tenant % self.sla.len()])
        }
    }

    /// Submits one request, advancing virtual time to its arrival (events
    /// due on the way are processed first). Requests must arrive in
    /// non-decreasing `arrival` order; earlier arrivals are clamped to the
    /// current clock.
    pub fn submit(&mut self, request: WorkloadRequest) -> Submitted {
        let arrival = request.arrival.max(self.clock);
        self.advance_to(arrival);
        self.tally.workloads += 1;
        self.tally.queries += request.queries;
        let reserve = self.policy.reserve_demand(request.decision);
        if !self.cluster.could_ever_fit(reserve) {
            self.tally.rejected += 1;
            wmp_obs::event!(
                wmp_obs::Level::Warn,
                target: "wmp_sched",
                "workload_rejected",
                id = request.id,
                reserve_mb = reserve.memory_mb,
                reserve_cpu_ms = reserve.cpu_ms,
            );
            return Submitted::Rejected;
        }
        let waiting = Waiting { request: WorkloadRequest { arrival, ..request }, reserve };
        if let Some(executor) = self.try_place(waiting) {
            self.tally.placed_direct += 1;
            Submitted::Placed(executor)
        } else {
            self.waiting.push_back(waiting);
            self.floor = lower_floor(self.floor, reserve);
            Submitted::Deferred
        }
    }

    /// Runs the event loop dry: processes every pending completion and
    /// drains the deferral queue, then returns the final report. Guaranteed
    /// to terminate: every deferred reservation fits an empty executor (the
    /// rejection test), and once the in-flight set drains the cluster *is*
    /// empty, at which point the queue head is force-placed on the lowest
    /// executor that admits it even if the policy keeps declining.
    pub fn run_to_completion(&mut self) -> ScheduleReport {
        loop {
            if let Some(&Reverse((finish, _, _))) = self.completions.peek() {
                self.advance_to(finish);
                continue;
            }
            // No in-flight work: the cluster is empty. Place the queue head
            // directly so arbitrary policies cannot stall the drain.
            let Some(waiting) = self.waiting.pop_front() else { break };
            let placed = self.try_place(waiting).is_some()
                || (0..self.cluster.len()).any(|executor| self.admit(waiting, executor));
            debug_assert!(placed, "queue head must fit an empty cluster");
            if placed {
                self.placed_deferred_accounting(waiting);
            } else {
                self.tally.rejected += 1;
            }
        }
        self.report()
    }

    /// The report as of the current virtual time (typically called via
    /// [`Scheduler::run_to_completion`]).
    pub fn report(&self) -> ScheduleReport {
        let stranded_mb_ticks = self.integrals.stranded_mb_ticks;
        ScheduleReport {
            stranded_mb_ticks,
            stranded_cost: stranded_mb_ticks * self.cost.stranded_per_mb_tick,
            mean_utilization: self
                .integrals
                .mean_utilization(self.cluster.total_capacity(), self.tally.makespan_ticks),
            ..self.tally.clone()
        }
    }

    /// Advances the clock to `tick`, processing every completion due on the
    /// way and retrying the deferral queue after each release.
    fn advance_to(&mut self, tick: u64) {
        while let Some(&Reverse((finish, id, executor))) = self.completions.peek() {
            if finish > tick {
                break;
            }
            self.completions.pop();
            // Integrate occupancy up to the finish tick *including* the
            // completing workload, then release it.
            self.integrals.advance(&self.cluster, finish);
            self.clock = finish;
            self.cluster.executor_mut(executor).release(id);
            self.note_overruns(executor);
            self.tally.makespan_ticks = finish;
            self.retry_waiting(executor);
        }
        self.integrals.advance(&self.cluster, tick);
        self.clock = tick;
    }

    /// One FIFO pass over the deferral queue after executor `released`
    /// freed capacity: placeable workloads start now, the rest keep their
    /// order.
    ///
    /// Only `released` gained headroom since every waiting workload last
    /// failed everywhere, so a workload that does not fit `released` is
    /// skipped without asking the policy, and the pass stops as soon as
    /// `released` cannot fit `floor`. Neither shortcut skips a call that
    /// could have placed anything (see the module docs). The pass works in
    /// place, so a completion that places nothing costs no queue copy.
    fn retry_waiting(&mut self, released: usize) {
        let full = |s: &Self| s.cluster.executor(released).first_overrun(s.floor).is_some();
        let mut floor = UNBOUNDED;
        let mut i = 0;
        let mut stop = full(self);
        while !stop && i < self.waiting.len() {
            let waiting = self.waiting[i];
            if self.cluster.executor(released).fits(waiting.reserve)
                && self.try_place(waiting).is_some()
            {
                self.waiting.remove(i);
                self.placed_deferred_accounting(waiting);
                stop = full(self);
            } else {
                floor = lower_floor(floor, waiting.reserve);
                i += 1;
            }
        }
        if i == self.waiting.len() {
            // The pass saw every workload still waiting.
            self.floor = floor;
        }
    }

    /// Asks the policy for an executor and admits the workload there. A
    /// policy pointing at a full executor yields `None` (deferral), never an
    /// overrun reservation.
    fn try_place(&mut self, waiting: Waiting) -> Option<usize> {
        let executor = self.policy.place(waiting.reserve, &self.cluster)?;
        self.admit(waiting, executor).then_some(executor)
    }

    /// Starts the workload now on `executor` if the capacity model admits
    /// it there: charges its start and schedules its completion. The one
    /// admission step of both the policy path and the forced drain.
    fn admit(&mut self, waiting: Waiting, executor: usize) -> bool {
        let Waiting { request, reserve } = waiting;
        let admitted =
            self.cluster.executor_mut(executor).try_admit(request.id, reserve, request.actual);
        if admitted.is_err() {
            return false;
        }
        self.account_start(&request, executor);
        let finish = self.clock + request.duration.max(1);
        self.completions.push(Reverse((finish, request.id, executor)));
        self.tally.makespan_ticks = self.tally.makespan_ticks.max(finish);
        true
    }

    /// Charges SLA penalties and counts overflow episodes for a workload
    /// that starts now on `executor`.
    fn account_start(&mut self, request: &WorkloadRequest, executor: usize) {
        let wait = self.clock - request.arrival;
        if let Some(class) = self.sla_for(request.tenant) {
            if class.violated_by(wait) {
                self.tally.sla_violations += 1;
                self.tally.sla_penalty += class.violation_penalty;
            }
        }
        // One overflow episode per placement after which some executor's
        // actual occupancy exceeds its capacity, however many axes overrun;
        // the label is the first overrun axis of the lowest such executor.
        self.note_overruns(executor);
        let overrun = if self.overrun_executors == 0 {
            None
        } else {
            let first = self.overrunning.iter().position(|&o| o);
            first.and_then(|e| self.cluster.executor(e).actual_overruns().first())
        };
        if let Some(overrun) = overrun {
            self.tally.overflow_events += 1;
            wmp_obs::event!(
                wmp_obs::Level::Warn,
                target: "wmp_sched",
                "capacity_overflow",
                id = request.id,
                resource = overrun.label(),
                tick = self.clock,
            );
        }
    }

    /// Re-reads whether `executor`'s actual view overruns capacity, after
    /// it admitted or released a workload.
    fn note_overruns(&mut self, executor: usize) {
        let over = self.cluster.executor(executor).actual_overruns().any();
        if over != self.overrunning[executor] {
            self.overrunning[executor] = over;
            if over {
                self.overrun_executors += 1;
            } else {
                self.overrun_executors -= 1;
            }
        }
    }

    /// Wait-time accounting for a workload placed from the deferral queue.
    fn placed_deferred_accounting(&mut self, waiting: Waiting) {
        self.tally.placed_deferred += 1;
        let wait = self.clock - waiting.request.arrival;
        self.tally.total_deferral_ticks += wait;
        self.tally.max_deferral_ticks = self.tally.max_deferral_ticks.max(wait);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{BestFit, FirstFit};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use wmp_plan::ResourceKind;

    fn request(id: u64, arrival: u64, duration: u64, mb: f64) -> WorkloadRequest {
        WorkloadRequest {
            id,
            tenant: id as usize,
            arrival,
            duration,
            decision: ResourceVector::memory_only(mb),
            actual: ResourceVector::memory_only(mb),
            queries: 1,
        }
    }

    fn scheduler(executors: usize, capacity_mb: f64) -> Scheduler {
        Scheduler::new(
            Cluster::uniform(executors, ResourceVector::memory_only(capacity_mb)),
            Box::new(FirstFit),
        )
    }

    #[test]
    fn places_defers_and_drains_in_fifo_order() {
        let mut sched = scheduler(1, 100.0);
        assert_eq!(sched.submit(request(0, 0, 50, 80.0)), Submitted::Placed(0));
        // No headroom left: both defer.
        assert_eq!(sched.submit(request(1, 10, 20, 60.0)), Submitted::Deferred);
        assert_eq!(sched.submit(request(2, 10, 20, 60.0)), Submitted::Deferred);
        assert_eq!(sched.queue_depth(), 2);
        let report = sched.run_to_completion();
        assert_eq!(report.placed_direct, 1);
        assert_eq!(report.placed_deferred, 2);
        assert_eq!(report.rejected, 0);
        // id 1 starts at 50 (wait 40), id 2 at 70 (wait 60).
        assert_eq!(report.total_deferral_ticks, 100);
        assert_eq!(report.max_deferral_ticks, 60);
        assert_eq!(report.makespan_ticks, 90);
    }

    #[test]
    fn impossible_reservations_are_rejected_not_queued() {
        let mut sched = scheduler(2, 100.0);
        assert_eq!(sched.submit(request(0, 0, 10, 150.0)), Submitted::Rejected);
        assert_eq!(sched.submit(request(1, 0, 10, 90.0)), Submitted::Placed(0));
        let report = sched.run_to_completion();
        assert_eq!(report.rejected, 1);
        assert_eq!(report.placed(), 1);
        assert_eq!(report.workloads, 2);
    }

    #[test]
    fn sla_penalties_charge_only_late_starts() {
        let mut sched = scheduler(1, 100.0).with_sla_classes(vec![SlaClass::new(5, 10.0)]);
        sched.submit(request(0, 0, 100, 100.0));
        sched.submit(request(1, 10, 10, 100.0)); // starts at 100, wait 90 > 5
        let report = sched.run_to_completion();
        assert_eq!(report.sla_violations, 1);
        assert!((report.sla_penalty - 10.0).abs() < 1e-12);
        assert!((report.total_cost() - report.sla_penalty - report.stranded_cost).abs() < 1e-12);
    }

    #[test]
    fn under_predictions_surface_as_overflow_episodes() {
        let mut sched = scheduler(1, 100.0);
        let mut bad = request(0, 0, 10, 60.0);
        bad.actual = ResourceVector::memory_only(120.0); // reality overruns
        sched.submit(bad);
        let report = sched.run_to_completion();
        assert_eq!(report.overflow_events, 1);
    }

    #[test]
    fn over_reservation_strands_capacity() {
        let mut sched = scheduler(1, 100.0);
        let mut padded = request(0, 0, 10, 80.0);
        padded.actual = ResourceVector::memory_only(30.0); // 50 MB stranded × 10 ticks
        sched.submit(padded);
        let report = sched.run_to_completion();
        assert!((report.stranded_mb_ticks - 500.0).abs() < 1e-9);
        assert!(report.stranded_cost > 0.0);
    }

    #[test]
    fn capacity_invariant_holds_mid_run() {
        let mut sched = Scheduler::new(
            Cluster::uniform(2, ResourceVector::new(100.0, 1_000.0, f64::INFINITY)),
            Box::new(BestFit),
        );
        for id in 0..20 {
            sched.submit(WorkloadRequest {
                id,
                tenant: 0,
                arrival: id * 3,
                duration: 17,
                decision: ResourceVector::new(40.0, 300.0, 0.0),
                actual: ResourceVector::new(35.0, 280.0, 0.0),
                queries: 1,
            });
            for executor in sched.cluster().executors() {
                let reserved = executor.reserved();
                assert!(reserved.memory_mb <= executor.capacity().memory_mb + 1e-9);
                assert!(reserved.cpu_ms <= executor.capacity().cpu_ms + 1e-9);
            }
        }
        let report = sched.run_to_completion();
        assert_eq!(report.placed() + report.rejected, 20);
    }

    #[test]
    fn duplicate_ids_release_from_their_own_executor() {
        // The second 80 MB copy cannot share executor 0, so it lands on 1;
        // its completion must release it there, not from executor 0.
        let mut sched = scheduler(2, 100.0);
        assert_eq!(sched.submit(request(0, 0, 10, 80.0)), Submitted::Placed(0));
        assert_eq!(sched.submit(request(0, 0, 10, 80.0)), Submitted::Placed(1));
        let report = sched.run_to_completion();
        assert_eq!(report.placed_direct, 2);
        assert_eq!(sched.cluster().total_running(), 0);
    }

    #[test]
    fn cpu_budget_defers_what_memory_alone_would_place() {
        // 1000 MB of memory headroom but only 200 ms of concurrent CPU.
        let hog = WorkloadRequest {
            decision: ResourceVector::new(50.0, 150.0, 0.0),
            actual: ResourceVector::new(50.0, 150.0, 0.0),
            ..request(0, 0, 10, 0.0)
        };
        let one_executor = |cpu_ms| {
            let capacity = ResourceVector::new(1_000.0, cpu_ms, f64::INFINITY);
            Scheduler::new(Cluster::uniform(1, capacity), Box::new(FirstFit))
        };
        let mut joint = one_executor(200.0);
        assert_eq!(joint.submit(hog), Submitted::Placed(0));
        // Memory view: 100 of 1000 MB. CPU view: 300 of 200 ms.
        assert_eq!(joint.submit(WorkloadRequest { id: 1, ..hog }), Submitted::Deferred);
        assert_eq!(
            joint.cluster().executor(0).first_overrun(hog.decision),
            Some(ResourceKind::Cpu)
        );
        // A memory-only cluster with the same memory capacity places both.
        let mut memory_only = one_executor(f64::INFINITY);
        assert_eq!(memory_only.submit(hog), Submitted::Placed(0));
        assert_eq!(memory_only.submit(WorkloadRequest { id: 1, ..hog }), Submitted::Placed(0));
    }

    #[test]
    fn a_nan_reservation_does_not_stop_the_retry_pass_early() {
        // Executor 0 gates memory only, executor 1 memory and CPU. A NaN
        // CPU reservation passes every CPU test, so it must not let the
        // other waiting workload's 600 ms bound the queue on that axis.
        let mut sched = Scheduler::new(
            Cluster::from_capacities(vec![
                ResourceVector::new(100.0, f64::INFINITY, f64::INFINITY),
                ResourceVector::new(100.0, 1_000.0, f64::INFINITY),
            ]),
            Box::new(FirstFit),
        );
        let job = |id, duration, mb, cpu_ms| WorkloadRequest {
            decision: ResourceVector::new(mb, cpu_ms, 0.0),
            actual: ResourceVector::new(mb, cpu_ms, 0.0),
            ..request(id, 0, duration, 0.0)
        };
        assert_eq!(sched.submit(job(0, 10, 100.0, 0.0)), Submitted::Placed(0));
        assert_eq!(sched.submit(job(1, 5, 80.0, 900.0)), Submitted::Placed(1));
        assert_eq!(sched.submit(job(2, 5, 50.0, 600.0)), Submitted::Deferred);
        assert_eq!(sched.submit(job(3, 5, 30.0, f64::NAN)), Submitted::Deferred);
        // At tick 5 executor 1 frees up and takes both: 600 ms of CPU
        // leaves no room for another 600, but the NaN workload still fits.
        let report = sched.run_to_completion();
        assert_eq!(report.total_deferral_ticks, 10);
        assert_eq!(report.max_deferral_ticks, 5);
    }

    /// Delegates to `inner`, counting `place` calls.
    struct Counting<P> {
        inner: P,
        calls: Arc<AtomicUsize>,
    }

    impl<P: PlacementPolicy> PlacementPolicy for Counting<P> {
        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn reserve_demand(&self, demand: ResourceVector) -> ResourceVector {
            self.inner.reserve_demand(demand)
        }

        fn place(&self, reserve: ResourceVector, cluster: &Cluster) -> Option<usize> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.inner.place(reserve, cluster)
        }
    }

    #[test]
    fn a_deep_burst_costs_a_linear_number_of_policy_calls() {
        // Equal windows in one burst onto 4 executors with room for two
        // each: all but 8 defer. Retrying the whole queue on every
        // completion would ask the policy about 10^6 times.
        const WORKLOADS: usize = 2_000;
        let calls = Arc::new(AtomicUsize::new(0));
        let policy = Counting { inner: FirstFit, calls: Arc::clone(&calls) };
        let mut sched = Scheduler::new(
            Cluster::uniform(4, ResourceVector::memory_only(100.0)),
            Box::new(policy),
        );
        for id in 0..WORKLOADS as u64 {
            sched.submit(request(id, 0, 10, 40.0));
        }
        let report = sched.run_to_completion();
        assert_eq!(report.placed_direct, 8);
        assert_eq!(report.placed_deferred, WORKLOADS - 8);
        let calls = calls.load(Ordering::Relaxed);
        assert!(calls <= 3 * WORKLOADS, "{calls} place calls for {WORKLOADS} workloads");
    }

    /// Declines every placement, so only the final drain places anything.
    struct Declining;

    impl PlacementPolicy for Declining {
        fn name(&self) -> &'static str {
            "declining"
        }

        fn place(&self, _: ResourceVector, _: &Cluster) -> Option<usize> {
            None
        }
    }

    #[test]
    fn the_drain_forces_declined_workloads_onto_the_lowest_admitting_executor() {
        // Executor 0 admits the 40 MB reservations but not the 80 MB one.
        let mut sched = Scheduler::new(
            Cluster::from_capacities(vec![
                ResourceVector::memory_only(50.0),
                ResourceVector::memory_only(100.0),
            ]),
            Box::new(Declining),
        )
        .with_sla_classes(vec![SlaClass::new(15, 3.0)]);
        // The 40 MB windows really use 60 MB: an overflow on executor 0
        // only, so the overflow count says where they ran.
        let under = |id| WorkloadRequest {
            actual: ResourceVector::memory_only(60.0),
            ..request(id, 0, 10, 40.0)
        };
        assert_eq!(sched.submit(under(0)), Submitted::Deferred);
        assert_eq!(sched.submit(request(1, 0, 10, 80.0)), Submitted::Deferred);
        assert_eq!(sched.submit(under(2)), Submitted::Deferred);
        let report = sched.run_to_completion();
        // One at a time, in FIFO order: starts at ticks 0, 10 and 20.
        assert_eq!((report.placed_direct, report.placed_deferred), (0, 3));
        assert_eq!(report.placed() + report.rejected, report.workloads);
        assert_eq!(report.total_deferral_ticks, 30);
        assert_eq!(report.max_deferral_ticks, 20);
        assert_eq!(report.makespan_ticks, 30);
        assert_eq!(report.overflow_events, 2);
        // Only the start at tick 20 misses the 15-tick deadline.
        assert_eq!(report.sla_violations, 1);
        assert!((report.sla_penalty - 3.0).abs() < 1e-12);
    }

    #[test]
    fn identical_runs_produce_identical_reports() {
        let run = || {
            let mut sched = scheduler(2, 100.0).with_sla_classes(vec![SlaClass::new(10, 5.0)]);
            for id in 0..50 {
                let mut r = request(id, id * 2, 9, 30.0 + (id % 5) as f64 * 10.0);
                r.actual = ResourceVector::memory_only(25.0 + (id % 7) as f64 * 9.0);
                sched.submit(r);
            }
            sched.run_to_completion()
        };
        assert_eq!(run(), run());
    }
}
