//! Scheduler safety properties over randomized workload logs:
//!
//! 1. **Capacity invariant** — no placement policy ever pushes an
//!    executor's *reserved* occupancy past its `ResourceVector` capacity on
//!    any gated axis, at any point during a run.
//! 2. **Conservation** — every submitted workload ends in exactly one
//!    outcome: placed at arrival, deferred-then-placed, or rejected; the
//!    deferral queue fully drains.
//!
//! Both hold for *every* policy by construction (the scheduler re-checks
//! placements through `Executor::try_admit`), and the property tests
//! enforce that the construction actually delivers across first-fit,
//! best-fit, and prediction-aware placement on randomized arrival
//! sequences, demands, and cluster shapes — including deep deferral queues
//! on unequal executors, where the retry pass skips and stops early.
//!
//! 3. **Policy contract** — a policy returns `Some(i)` only if executor `i`
//!    fits the reservation, and `None` only when no executor does. The
//!    scheduler's retry pass is exact only for policies that keep it.

use learnedwmp::plan::ResourceVector;
use learnedwmp::sched::{
    BestFit, FirstFit, PlacementPolicy, PredictionAware, Scheduler, SlaClass, Submitted,
    WorkloadRequest,
};
use learnedwmp::sim::Cluster;
use proptest::prelude::*;

/// One randomized workload: (arrival gap, duration, decision MB, decision
/// CPU ms, actual MB, actual CPU ms). Decision and actual are drawn
/// independently so both over- and under-prediction occur.
type RawWorkload = (u64, u64, f64, f64, f64, f64);

fn arb_workloads() -> impl Strategy<Value = Vec<RawWorkload>> {
    prop::collection::vec(
        (0u64..40, 1u64..60, 1.0f64..160.0, 0.0f64..900.0, 1.0f64..160.0, 0.0f64..900.0),
        1..80,
    )
}

fn policies() -> Vec<Box<dyn PlacementPolicy>> {
    vec![Box::new(FirstFit), Box::new(BestFit), Box::new(PredictionAware::new(1.25))]
}

/// Deep-queue runs on unequal executors with joint memory+CPU gating: most
/// workloads arrive in the same tick as the one before, and about half
/// decide on one shared reservation (the nominal-demand shape), so the
/// queue grows long and retry passes stop early on a stale lower bound.
fn arb_deep_queue() -> impl Strategy<Value = (Vec<RawWorkload>, Cluster)> {
    let capacities = prop::collection::vec((60.0f64..300.0, 400.0f64..2_000.0), 1..5);
    let shared = (10.0f64..120.0, 0.0f64..600.0);
    let workloads = prop::collection::vec(
        (0u64..10, 0u64..200, 1u64..60, any::<bool>(), 1.0f64..160.0, 0.0f64..900.0),
        10..200,
    );
    (capacities, shared, workloads).prop_map(|(capacities, (shared_mb, shared_cpu), raw)| {
        let raw = raw
            .into_iter()
            .map(|(burst, gap, duration, shared, act_mb, act_cpu)| {
                let gap = if burst < 8 { 0 } else { gap };
                let (dec_mb, dec_cpu) =
                    if shared { (shared_mb, shared_cpu) } else { (act_mb, act_cpu) };
                (gap, duration, dec_mb, dec_cpu, act_mb, act_cpu)
            })
            .collect();
        let capacities = capacities
            .into_iter()
            .map(|(mb, cpu)| ResourceVector::new(mb, cpu, f64::INFINITY))
            .collect();
        (raw, Cluster::from_capacities(capacities))
    })
}

/// A heterogeneous cluster, CPU-gated on some executors, each partly
/// filled by admitting reservations in order while they fit.
fn arb_partly_filled_cluster() -> impl Strategy<Value = Cluster> {
    let executor = (
        50.0f64..400.0,
        500.0f64..5_000.0,
        any::<bool>(),
        prop::collection::vec((1.0f64..200.0, 0.0f64..3_000.0), 0..6),
    );
    prop::collection::vec(executor, 1..6).prop_map(|executors| {
        let mut cluster = Cluster::from_capacities(
            executors
                .iter()
                .map(|&(mb, cpu, cpu_gated, _)| {
                    let cpu = if cpu_gated { cpu } else { f64::INFINITY };
                    ResourceVector::new(mb, cpu, f64::INFINITY)
                })
                .collect(),
        );
        for (i, (_, _, _, fills)) in executors.iter().enumerate() {
            for (id, &(mb, cpu)) in fills.iter().enumerate() {
                let fill = ResourceVector::new(mb, cpu, 0.0);
                // A fill that no longer fits is simply left out.
                let _ = cluster.executor_mut(i).try_admit(id as u64, fill, fill);
            }
        }
        cluster
    })
}

/// Runs `raw` through a fresh scheduler over a copy of `cluster` per
/// policy, asserting the capacity invariant after every submission and
/// conservation at the end.
fn check_policies(raw: &[RawWorkload], cluster: &Cluster) {
    for policy in policies() {
        let name = policy.name();
        let mut sched = Scheduler::new(cluster.clone(), policy)
            .with_sla_classes(vec![SlaClass::new(50, 5.0), SlaClass::new(500, 1.0)]);
        let mut arrival = 0u64;
        let mut outcomes = [0usize; 3]; // placed, deferred, rejected
        for (i, &(gap, duration, dec_mb, dec_cpu, act_mb, act_cpu)) in raw.iter().enumerate() {
            arrival += gap;
            let outcome = sched.submit(WorkloadRequest {
                id: i as u64,
                tenant: i,
                arrival,
                duration,
                decision: ResourceVector::new(dec_mb, dec_cpu, 0.0),
                actual: ResourceVector::new(act_mb, act_cpu, 0.0),
                queries: 1,
            });
            match outcome {
                Submitted::Placed(_) => outcomes[0] += 1,
                Submitted::Deferred => outcomes[1] += 1,
                Submitted::Rejected => outcomes[2] += 1,
            }
            assert_reserved_within_capacity(sched.cluster(), name);
        }
        let report = sched.run_to_completion();
        assert_reserved_within_capacity(sched.cluster(), name);
        // Conservation: exactly one terminal outcome per workload.
        assert_eq!(report.workloads, raw.len(), "{name}: every submission counted");
        assert_eq!(
            report.placed() + report.rejected,
            report.workloads,
            "{name}: placed + rejected covers all workloads"
        );
        assert_eq!(sched.queue_depth(), 0, "{name}: deferral queue fully drained");
        assert_eq!(report.placed_direct, outcomes[0], "{name}: direct placements");
        assert_eq!(report.rejected, outcomes[2], "{name}: rejections decided at submit");
        // Deferred submissions were all eventually placed (never re-rejected).
        assert_eq!(report.placed_deferred, outcomes[1], "{name}: deferred all placed");
        assert_eq!(
            sched.cluster().total_running(),
            0,
            "{name}: run_to_completion leaves no residue"
        );
    }
}

fn assert_reserved_within_capacity(cluster: &Cluster, policy: &str) {
    for (i, executor) in cluster.executors().iter().enumerate() {
        let reserved = executor.reserved();
        let capacity = executor.capacity();
        for kind in learnedwmp::plan::ResourceKind::ALL {
            if capacity.get(kind).is_finite() {
                assert!(
                    reserved.get(kind) <= capacity.get(kind) + 1e-9,
                    "{policy}: executor {i} reserved {} > capacity {} on {}",
                    reserved.get(kind),
                    capacity.get(kind),
                    kind.label(),
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn no_policy_exceeds_capacity_and_every_workload_is_accounted(
        raw in arb_workloads(),
        executors in 1usize..5,
    ) {
        // Joint memory+CPU gating: demands near the top of the draw range
        // can never fit (⇒ rejections exercised), most fit only serially
        // (⇒ deferrals exercised).
        let capacity = ResourceVector::new(200.0, 1_000.0, f64::INFINITY);
        check_policies(&raw, &Cluster::uniform(executors, capacity));
    }

    #[test]
    fn memory_only_budgets_hold_the_same_invariants(
        raw in arb_workloads(),
    ) {
        let capacity = ResourceVector::new(150.0, f64::INFINITY, f64::INFINITY);
        check_policies(&raw, &Cluster::uniform(2, capacity));
    }

    #[test]
    fn deep_queues_on_unequal_executors_hold_the_same_invariants(
        (raw, cluster) in arb_deep_queue(),
    ) {
        check_policies(&raw, &cluster);
    }

    #[test]
    fn policies_place_exactly_when_some_executor_fits(
        cluster in arb_partly_filled_cluster(),
        demands in prop::collection::vec((1.0f64..250.0, 0.0f64..4_000.0), 1..20),
    ) {
        for policy in policies() {
            let name = policy.name();
            for &(mb, cpu) in &demands {
                let reserve = policy.reserve_demand(ResourceVector::new(mb, cpu, 0.0));
                match policy.place(reserve, &cluster) {
                    Some(i) => prop_assert!(
                        cluster.executor(i).fits(reserve),
                        "{name}: placed {reserve} on executor {i}, which does not fit it"
                    ),
                    None => prop_assert!(
                        !cluster.executors().iter().any(|e| e.fits(reserve)),
                        "{name}: declined {reserve} although an executor fits it"
                    ),
                }
            }
        }
    }
}
