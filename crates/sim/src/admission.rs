//! Closed-loop admission control (the paper's §I motivation): a DBMS holds a
//! fixed working-memory budget and must decide, per arriving workload,
//! whether the batch's *predicted* collective memory still fits next to the
//! batches already executing. The loop is closed because every decision
//! feeds back into the next one: an admitted batch occupies its **actual**
//! memory until it completes, so optimistic predictions push the system into
//! overflow (spills, thrashing) while pessimistic ones strand headroom.
//!
//! With multi-resource predictions the gate generalizes to **joint
//! budgets**: [`AdmissionController::with_cpu_budget`] adds a concurrent
//! CPU-work ceiling, and [`AdmissionController::offer_resources`] admits
//! only when *every* gated resource fits — a workload that passes on memory
//! can still be deferred because the box is CPU-saturated (the WiSeDB-style
//! scheduling regime).
//!
//! The controller is a single-[`Executor`] front over the cluster capacity
//! model in [`crate::cluster`] — the same accounting `wmp_sched` scales to N
//! executors. Delegating to [`Executor::try_admit`] gives the gate **one**
//! headroom comparison shared by all gated resources: a workload over budget
//! on memory *and* CPU in the same window produces exactly one rejection
//! (attributed to the first overrun axis), and an overflow episode spanning
//! several resources counts one event with per-resource attribution —
//! the previous per-resource decision paths double-counted neither view but
//! could not express joint attribution at all.
//!
//! The controller is predictor-agnostic — it consumes plain
//! `(predicted, actual)` pairs — so the serving engine (`wmp_serve`), the
//! examples, and tests can drive the same scenario with LearnedWMP, the
//! DBMS heuristic, or an oracle, and compare [`AdmissionStats`].

use wmp_plan::{ResourceKind, ResourceVector, N_RESOURCES};

use crate::cluster::{CapacityExceeded, Executor};

/// The controller's verdict for one offered workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Admitted: the batch now executes and occupies its resources until
    /// [`AdmissionController::complete`] is called with this id.
    Admitted(u64),
    /// Rejected: predicted demand exceeded the available headroom on at
    /// least one gated resource (see
    /// [`AdmissionController::last_rejected_on`]).
    Rejected,
}

impl Admission {
    /// True for [`Admission::Admitted`].
    pub fn admitted(&self) -> bool {
        matches!(self, Admission::Admitted(_))
    }
}

/// Outcome tallies of a finished (or running) admission scenario.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AdmissionStats {
    /// Batches admitted.
    pub admitted: usize,
    /// Batches rejected.
    pub rejected: usize,
    /// Rejections per resource dimension (in [`ResourceKind::ALL`] order):
    /// how often each gated resource was the *first* to run out. A memory
    /// rejection and a CPU rejection call for different remedies (more RAM
    /// vs. more cores / deferral), so the split is tracked. Each rejection
    /// is attributed to exactly one axis, so these sum to `rejected`.
    pub rejected_on: [usize; N_RESOURCES],
    /// Rejections that were wasteful: the batch's *actual* demand would have
    /// fit in the actual headroom at decision time (stranded capacity).
    pub rejected_would_fit: usize,
    /// Decisions after which the actual in-flight demand exceeded the
    /// budget on some gated resource — the failure mode admission control
    /// exists to prevent. A decision that overruns several resources at
    /// once still counts **one** event here (see
    /// [`AdmissionStats::overflow_on`] for the per-resource split).
    pub overflow_events: usize,
    /// Per-resource overflow attribution (in [`ResourceKind::ALL`] order):
    /// how often each gated resource was over budget after a decision. A
    /// joint memory+CPU overflow increments both axes but only one
    /// [`AdmissionStats::overflow_events`].
    pub overflow_on: [usize; N_RESOURCES],
    /// Worst actual in-flight memory observed (MB).
    pub peak_actual_mb: f64,
    /// Worst actual in-flight demand observed, per resource.
    pub peak_actual: ResourceVector,
    /// Sum of admitted batches' actual memory (MB) — throughput proxy.
    pub admitted_actual_mb: f64,
}

impl AdmissionStats {
    /// Wrong decisions: admissions that overflowed plus wasteful rejections.
    pub fn wrong_decisions(&self) -> usize {
        self.overflow_events + self.rejected_would_fit
    }
}

/// A budgeted admission gate over a stream of predicted workloads.
///
/// Decisions are made against *predicted* occupancy (the controller only
/// ever sees predictions at decision time, like a real DBMS); overflow is
/// detected against *actual* occupancy (what the hardware experiences).
/// Budget components set to `f64::INFINITY` are not gated — the default
/// constructor gates memory only, preserving the paper's scenario.
///
/// Internally this is one [`Executor`] of the [`crate::cluster`] capacity
/// model; multi-executor placement with SLAs and deferral lives in
/// `wmp_sched`.
#[derive(Debug, Clone)]
pub struct AdmissionController {
    executor: Executor,
    next_id: u64,
    stats: AdmissionStats,
    last_rejected_on: Option<ResourceKind>,
}

impl AdmissionController {
    /// Creates a memory-only gate with a working-memory budget in MB
    /// (CPU and I/O are not gated).
    pub fn new(budget_mb: f64) -> Self {
        Self::with_budget(ResourceVector::new(budget_mb, f64::INFINITY, f64::INFINITY))
    }

    /// Creates a gate over an arbitrary per-resource budget; components set
    /// to `f64::INFINITY` are not gated.
    pub fn with_budget(budget: ResourceVector) -> Self {
        AdmissionController {
            executor: Executor::new(budget),
            next_id: 0,
            stats: AdmissionStats::default(),
            last_rejected_on: None,
        }
    }

    /// Adds a concurrent-CPU-work ceiling (in milliseconds of in-flight CPU
    /// demand) next to the existing budget components.
    pub fn with_cpu_budget(mut self, cpu_ms: f64) -> Self {
        let mut budget = self.executor.capacity();
        budget.cpu_ms = cpu_ms;
        self.executor.set_capacity(budget);
        self
    }

    /// The configured memory budget (MB).
    pub fn budget_mb(&self) -> f64 {
        self.executor.capacity().memory_mb
    }

    /// The full per-resource budget (ungated components are infinite).
    pub fn budget(&self) -> ResourceVector {
        self.executor.capacity()
    }

    /// The underlying single-executor capacity model (running set,
    /// reserved/actual occupancy views).
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// Predicted memory currently admitted (MB) — the gate's world view.
    pub fn predicted_in_flight_mb(&self) -> f64 {
        self.predicted_in_flight().memory_mb
    }

    /// Actual memory currently admitted (MB) — the hardware's view.
    pub fn actual_in_flight_mb(&self) -> f64 {
        self.actual_in_flight().memory_mb
    }

    /// Predicted per-resource demand currently admitted.
    pub fn predicted_in_flight(&self) -> ResourceVector {
        self.executor.reserved()
    }

    /// Actual per-resource demand currently admitted.
    pub fn actual_in_flight(&self) -> ResourceVector {
        self.executor.actual()
    }

    /// The resource that caused the most recent rejection, if the last
    /// offer was rejected.
    pub fn last_rejected_on(&self) -> Option<ResourceKind> {
        self.last_rejected_on
    }

    /// Offers one memory-only workload (CPU/IO demand zero) — the paper's
    /// original scenario; see [`AdmissionController::offer_resources`].
    pub fn offer(&mut self, predicted_mb: f64, actual_mb: f64) -> Admission {
        self.offer_resources(
            ResourceVector::memory_only(predicted_mb),
            ResourceVector::memory_only(actual_mb),
        )
    }

    /// Offers one workload: admit iff its predicted demand fits the
    /// predicted headroom on **every** gated resource. `actual` is the
    /// ground truth used for overflow/waste accounting — a real gate never
    /// sees it at decision time, and neither does the admit/reject choice
    /// here. The admit/reject choice is one [`Executor::try_admit`] call,
    /// so joint budgets cannot diverge from the single-resource path.
    pub fn offer_resources(
        &mut self,
        predicted: ResourceVector,
        actual: ResourceVector,
    ) -> Admission {
        let predicted_occupancy = self.executor.reserved();
        let id = self.next_id;
        match self.executor.try_admit(id, predicted, actual) {
            Err(CapacityExceeded(kind)) => {
                self.stats.rejected += 1;
                self.stats.rejected_on[kind.index()] += 1;
                self.last_rejected_on = Some(kind);
                let would_fit = self.executor.actual_fits(actual);
                if would_fit {
                    self.stats.rejected_would_fit += 1;
                }
                wmp_obs::event!(
                    wmp_obs::Level::Debug,
                    target: "wmp_sim::admission",
                    "admission_decision",
                    admitted = false,
                    rejected_on = kind.label(),
                    predicted_mb = predicted.memory_mb,
                    predicted_cpu_ms = predicted.cpu_ms,
                    predicted_occupancy_mb = predicted_occupancy.memory_mb,
                    budget_mb = self.executor.capacity().memory_mb,
                    would_fit = would_fit,
                );
                Admission::Rejected
            }
            Ok(()) => {
                self.last_rejected_on = None;
                self.next_id += 1;
                self.stats.admitted += 1;
                self.stats.admitted_actual_mb += actual.memory_mb;
                let occupied = self.executor.actual();
                self.stats.peak_actual = self.stats.peak_actual.component_max(occupied);
                self.stats.peak_actual_mb = self.stats.peak_actual.memory_mb;
                wmp_obs::event!(
                    wmp_obs::Level::Debug,
                    target: "wmp_sim::admission",
                    "admission_decision",
                    admitted = true,
                    predicted_mb = predicted.memory_mb,
                    predicted_cpu_ms = predicted.cpu_ms,
                    predicted_occupancy_mb = predicted_occupancy.memory_mb,
                    budget_mb = self.executor.capacity().memory_mb,
                );
                let overruns = self.executor.actual_overruns();
                if let Some(first_overrun) = overruns.first() {
                    // One episode per decision, attributed to every
                    // over-budget axis — the deduplicated counting the old
                    // per-resource loop could not express.
                    self.stats.overflow_events += 1;
                    for kind in overruns.iter() {
                        self.stats.overflow_on[kind.index()] += 1;
                    }
                    wmp_obs::event!(
                        wmp_obs::Level::Warn,
                        target: "wmp_sim::admission",
                        "budget_overflow",
                        resource = first_overrun.label(),
                        actual_occupancy_mb = occupied.memory_mb,
                        budget_mb = self.executor.capacity().memory_mb,
                        in_flight = self.executor.running(),
                    );
                }
                Admission::Admitted(id)
            }
        }
    }

    /// Completes an admitted batch, releasing its resources. Unknown ids
    /// are ignored (idempotent completion).
    pub fn complete(&mut self, id: u64) {
        self.executor.release(id);
    }

    /// Completes the oldest admitted batch, if any, and returns its id —
    /// convenience for fixed-concurrency replay loops.
    pub fn complete_oldest(&mut self) -> Option<u64> {
        self.executor.release_oldest().map(|w| w.id)
    }

    /// Batches currently executing.
    pub fn in_flight(&self) -> usize {
        self.executor.running()
    }

    /// Tallies so far.
    pub fn stats(&self) -> AdmissionStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_until_predicted_budget_is_full() {
        let mut gate = AdmissionController::new(100.0);
        assert!(gate.offer(40.0, 40.0).admitted());
        assert!(gate.offer(40.0, 40.0).admitted());
        assert_eq!(gate.offer(40.0, 10.0), Admission::Rejected);
        assert_eq!(gate.in_flight(), 2);
        let stats = gate.stats();
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.rejected_on[ResourceKind::Memory.index()], 1);
        assert_eq!(gate.last_rejected_on(), Some(ResourceKind::Memory));
        // The rejected batch actually needed only 10 MB next to 80 MB real
        // occupancy — a wasteful rejection caused by over-prediction.
        assert_eq!(stats.rejected_would_fit, 1);
        assert_eq!(stats.overflow_events, 0);
    }

    #[test]
    fn under_prediction_overflows_the_budget() {
        let mut gate = AdmissionController::new(100.0);
        // The gate believes 30 MB each; reality is 70 MB each.
        assert!(gate.offer(30.0, 70.0).admitted());
        assert!(gate.offer(30.0, 70.0).admitted());
        let stats = gate.stats();
        assert_eq!(stats.overflow_events, 1, "140 MB actual > 100 MB budget");
        assert_eq!(stats.overflow_on[ResourceKind::Memory.index()], 1);
        assert!((stats.peak_actual_mb - 140.0).abs() < 1e-9);
        assert_eq!(stats.wrong_decisions(), 1);
    }

    #[test]
    fn completion_closes_the_loop() {
        let mut gate = AdmissionController::new(100.0);
        let Admission::Admitted(id) = gate.offer(90.0, 85.0) else { panic!("admit") };
        assert_eq!(gate.offer(20.0, 5.0), Admission::Rejected);
        gate.complete(id);
        assert_eq!(gate.in_flight(), 0);
        assert!(gate.offer(20.0, 5.0).admitted(), "headroom returns after completion");
        // Unknown/duplicate completion is a no-op.
        gate.complete(id);
        gate.complete(999);
        assert_eq!(gate.in_flight(), 1);
    }

    #[test]
    fn fixed_concurrency_replay_with_complete_oldest() {
        let mut gate = AdmissionController::new(50.0);
        for _ in 0..10 {
            if gate.in_flight() >= 2 {
                gate.complete_oldest();
            }
            gate.offer(20.0, 18.0);
        }
        assert!(gate.stats().admitted >= 8);
        assert_eq!(gate.stats().overflow_events, 0);
        assert!(gate.stats().peak_actual_mb <= 50.0);
        assert!(gate.complete_oldest().is_some());
    }

    #[test]
    fn cpu_budget_defers_what_memory_alone_would_admit() {
        // 1000 MB of memory headroom but only 200 ms of concurrent CPU.
        let mut gate = AdmissionController::new(1000.0).with_cpu_budget(200.0);
        let hog = ResourceVector::new(50.0, 150.0, 0.0);
        assert!(gate.offer_resources(hog, hog).admitted());
        // Memory view: 100 of 1000 MB — plenty. CPU view: 300 of 200 ms.
        assert_eq!(gate.offer_resources(hog, hog), Admission::Rejected);
        assert_eq!(gate.last_rejected_on(), Some(ResourceKind::Cpu));
        assert_eq!(gate.stats().rejected_on[ResourceKind::Cpu.index()], 1);
        assert_eq!(gate.stats().rejected_on[ResourceKind::Memory.index()], 0);
        // A memory-only gate with the same memory budget admits it.
        let mut memory_gate = AdmissionController::new(1000.0);
        assert!(memory_gate.offer_resources(hog, hog).admitted());
        assert!(memory_gate.offer_resources(hog, hog).admitted());
    }

    #[test]
    fn joint_overflow_is_detected_per_resource() {
        let mut gate = AdmissionController::new(1000.0).with_cpu_budget(100.0);
        // Predicted CPU fits; actual CPU blows the ceiling.
        let predicted = ResourceVector::new(10.0, 40.0, 0.0);
        let actual = ResourceVector::new(10.0, 90.0, 0.0);
        assert!(gate.offer_resources(predicted, actual).admitted());
        assert!(gate.offer_resources(predicted, actual).admitted());
        let stats = gate.stats();
        assert_eq!(stats.overflow_events, 1, "180 ms actual CPU > 100 ms budget");
        assert_eq!(stats.overflow_on[ResourceKind::Cpu.index()], 1);
        assert_eq!(stats.overflow_on[ResourceKind::Memory.index()], 0);
        assert!((stats.peak_actual.cpu_ms - 180.0).abs() < 1e-9);
        assert!(stats.peak_actual_mb <= 1000.0);
    }

    #[test]
    fn joint_over_budget_rejection_is_counted_exactly_once() {
        // Regression: a workload over budget on memory AND CPU in the same
        // window must produce one rejection attributed to one axis — the
        // decision path is a single Executor::try_admit, not one check per
        // resource.
        let mut gate = AdmissionController::new(100.0).with_cpu_budget(100.0);
        let both_over = ResourceVector::new(150.0, 150.0, 0.0);
        assert_eq!(gate.offer_resources(both_over, both_over), Admission::Rejected);
        let stats = gate.stats();
        assert_eq!(stats.rejected, 1);
        assert_eq!(
            stats.rejected_on.iter().sum::<usize>(),
            1,
            "one rejection, one attributed axis: {:?}",
            stats.rejected_on
        );
        assert_eq!(gate.last_rejected_on(), Some(ResourceKind::Memory));
        assert_eq!(gate.in_flight(), 0);
    }

    #[test]
    fn joint_overflow_episode_counts_one_event_with_both_axes_attributed() {
        // Regression companion: an admission whose reality overruns memory
        // AND CPU at once is one overflow episode (one event) attributed to
        // both axes — not two events.
        let mut gate = AdmissionController::new(100.0).with_cpu_budget(100.0);
        let predicted = ResourceVector::new(40.0, 40.0, 0.0);
        let actual = ResourceVector::new(120.0, 130.0, 0.0);
        assert!(gate.offer_resources(predicted, actual).admitted());
        let stats = gate.stats();
        assert_eq!(stats.overflow_events, 1, "one episode");
        assert_eq!(stats.overflow_on[ResourceKind::Memory.index()], 1);
        assert_eq!(stats.overflow_on[ResourceKind::Cpu.index()], 1);
        assert_eq!(stats.overflow_on[ResourceKind::Io.index()], 0);
    }

    #[test]
    fn decisions_emit_structured_events() {
        // The subscriber is process-global, so sibling tests' events land in
        // this recorder too: a budget no other test uses tags ours.
        const BUDGET_MB: f64 = 97.0;
        let recorder = std::sync::Arc::new(wmp_obs::RingBufferRecorder::with_capacity(1024));
        wmp_obs::set_subscriber(recorder.clone());
        let mut gate = AdmissionController::new(BUDGET_MB);
        let Admission::Admitted(first) = gate.offer(60.0, 90.0) else { panic!("admit") };
        assert!(gate.offer(30.0, 40.0).admitted()); // actual 130 > 97: overflow
        gate.complete(first); // actual occupancy back to 40
                              // Over-prediction: 30 + 80 predicted > 97 rejects, but 40 + 10
                              // actual would have fit — a wasteful rejection.
        assert_eq!(gate.offer(80.0, 10.0), Admission::Rejected);
        wmp_obs::clear_subscriber();

        let events: Vec<_> = recorder
            .take()
            .into_iter()
            .filter(|e| e.field("budget_mb").and_then(|f| f.as_f64()) == Some(BUDGET_MB))
            .collect();
        let decisions: Vec<_> = events.iter().filter(|e| e.name == "admission_decision").collect();
        assert_eq!(decisions.len(), 3);
        assert_eq!(decisions[0].field("admitted").and_then(|f| f.as_bool()), Some(true));
        assert_eq!(decisions[2].field("admitted").and_then(|f| f.as_bool()), Some(false));
        assert_eq!(
            decisions[2].field("would_fit").and_then(|f| f.as_bool()),
            Some(true),
            "a wasteful rejection is visible in the event"
        );
        let overflow: Vec<_> = events.iter().filter(|e| e.name == "budget_overflow").collect();
        assert_eq!(overflow.len(), 1);
        assert_eq!(overflow[0].level, wmp_obs::Level::Warn);
        assert_eq!(overflow[0].field("actual_occupancy_mb").and_then(|f| f.as_f64()), Some(130.0));
    }

    #[test]
    fn perfect_predictions_make_no_wrong_decisions() {
        let mut gate = AdmissionController::new(64.0);
        for i in 0..20 {
            let mb = 10.0 + (i % 5) as f64 * 8.0;
            if gate.in_flight() >= 3 {
                gate.complete_oldest();
            }
            gate.offer(mb, mb);
        }
        assert_eq!(gate.stats().wrong_decisions(), 0, "oracle gate is never wrong");
    }
}
