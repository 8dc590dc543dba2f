//! Replay determinism: the scheduler runs in pure virtual time from seeded
//! inputs, so the same (log seed, arrival seed, policy, demand source) must
//! produce a **bit-identical** `ScheduleReport` — every counter and every
//! `f64` accumulator, compared with `==`, no tolerance.

use learnedwmp::core::{LearnedWmp, ModelKind, PredictorHandle, TemplateSpec};
use learnedwmp::plan::ResourceVector;
use learnedwmp::sched::{
    replay, BestFit, CostModel, DemandSource, FirstFit, PlacementPolicy, PredictionAware,
    ReplayConfig, ScheduleReport, Scheduler, SlaClass,
};
use learnedwmp::serve::{Engine, WindowPolicy};
use learnedwmp::sim::Cluster;
use learnedwmp::workloads::{ArrivalProcess, QueryLog};

type PolicyFactory = fn() -> Box<dyn PlacementPolicy>;

fn scheduler(policy: Box<dyn PlacementPolicy>) -> Scheduler {
    Scheduler::new(Cluster::uniform(4, ResourceVector::new(256.0, 8_000.0, f64::INFINITY)), policy)
        .with_sla_classes(vec![SlaClass::new(1_000, 10.0), SlaClass::new(4_000, 2.0)])
        .with_cost_model(CostModel { stranded_per_mb_tick: 1e-5 })
}

fn config(seed: u64) -> ReplayConfig {
    ReplayConfig {
        window: 10,
        arrivals: ArrivalProcess::Bursty {
            burst_gap_ticks: 40.0,
            idle_gap_ticks: 2_000.0,
            mean_burst_len: 12.0,
        },
        seed,
    }
}

#[test]
fn same_seed_and_policy_reproduce_bit_identical_reports() {
    let log = learnedwmp::workloads::tpch::generate(1_200, 21).unwrap();
    let sources: Vec<(&str, PolicyFactory)> = vec![
        ("first-fit", || Box::new(FirstFit)),
        ("best-fit", || Box::new(BestFit)),
        ("prediction-aware", || Box::new(PredictionAware::new(1.15))),
    ];
    for (name, make_policy) in sources {
        let run = |seed: u64| -> ScheduleReport {
            replay(&log, DemandSource::Oracle, scheduler(make_policy()), &config(seed)).unwrap()
        };
        let a = run(5);
        let b = run(5);
        assert_eq!(a, b, "{name}: same seed must be bit-identical");
        assert_eq!(a.policy, name);
        let c = run(6);
        assert_ne!(
            (a.makespan_ticks, a.total_deferral_ticks),
            (c.makespan_ticks, c.total_deferral_ticks),
            "{name}: a different arrival seed must actually change the run"
        );
    }
}

#[test]
fn predictor_demand_source_is_deterministic_too() {
    // A trained model is itself deterministic in its seed, so predicted
    // replays inherit the bit-identical guarantee end to end — also when a
    // serving engine's handle serves the model.
    let log = learnedwmp::workloads::tpch::generate(1_000, 33).unwrap();
    let model = LearnedWmp::builder()
        .model(ModelKind::Ridge)
        .templates(TemplateSpec::PlanKMeans { k: 8, seed: 3 })
        .batch_size(10)
        .fit(&log)
        .unwrap();
    let engine =
        Engine::new(PredictorHandle::new(model.codec_clone().unwrap()), WindowPolicy::Count(10));
    let run = |source| {
        replay(&log, source, scheduler(Box::new(PredictionAware::new(1.1))), &config(17)).unwrap()
    };
    let a = run(DemandSource::Predictor(&model));
    assert_eq!(a, run(DemandSource::Predictor(&model)));
    assert_eq!(a, run(DemandSource::Predictor(engine.handle())));
    assert_eq!(a.demand_source, "predicted");
    assert_eq!(a.placed() + a.rejected, a.workloads);
}

/// Every counter and every `f64` of `report` on one line, the floats as raw
/// IEEE-754 bits, so a golden comparison is exact to the last bit.
fn fingerprint(report: &ScheduleReport) -> String {
    let bits = |x: f64| format!("{:016x}", x.to_bits());
    let u = report.mean_utilization;
    format!(
        "{}/{} exec={} workloads={} queries={} direct={} deferred={} rejected={} sla={} \
         penalty={} stranded={} stranded_cost={} overflows={} wait={} max_wait={} \
         makespan={} util={},{},{}",
        report.policy,
        report.demand_source,
        report.executors,
        report.workloads,
        report.queries,
        report.placed_direct,
        report.placed_deferred,
        report.rejected,
        report.sla_violations,
        bits(report.sla_penalty),
        bits(report.stranded_mb_ticks),
        bits(report.stranded_cost),
        report.overflow_events,
        report.total_deferral_ticks,
        report.max_deferral_ticks,
        report.makespan_ticks,
        bits(u.memory_mb),
        bits(u.cpu_ms),
        bits(u.io_pages),
    )
}

/// The `sched_replay` benchmark's shape: 10-query windows arriving in long
/// bursts, deep enough that hundreds of windows wait at once.
fn bursty_replay(
    log: &QueryLog,
    source: DemandSource<'_>,
    cluster: Cluster,
    policy: Box<dyn PlacementPolicy>,
) -> ScheduleReport {
    let scheduler = Scheduler::new(cluster, policy)
        .with_sla_classes(vec![SlaClass::new(1_000, 10.0), SlaClass::new(4_000, 2.0)])
        .with_cost_model(CostModel { stranded_per_mb_tick: 1e-6 });
    let config = ReplayConfig {
        window: 10,
        arrivals: ArrivalProcess::Bursty {
            burst_gap_ticks: 120.0,
            idle_gap_ticks: 3_000.0,
            mean_burst_len: 40.0,
        },
        seed: 11,
    };
    replay(log, source, scheduler, &config).unwrap()
}

fn joint_cluster() -> Cluster {
    Cluster::uniform(4, ResourceVector::new(256.0, 8_000.0, f64::INFINITY))
}

/// Reports pinned bit for bit on deep-queue replays. The goldens were
/// captured from the full-queue retry pass (every completion retried every
/// waiting window on every executor); the releasing-executor pass must
/// reproduce them exactly.
#[test]
fn deep_queue_replays_match_their_golden_reports() {
    let log = learnedwmp::workloads::tpch::generate(6_000, 41).unwrap();
    let nominal = log.mean_resources().scale(30.0);
    let heterogeneous = Cluster::from_capacities(vec![
        ResourceVector::new(256.0, 8_000.0, f64::INFINITY),
        ResourceVector::new(192.0, 4_000.0, f64::INFINITY),
        ResourceVector::new(384.0, 12_000.0, f64::INFINITY),
        ResourceVector::new(128.0, 6_000.0, f64::INFINITY),
    ]);
    let cases: [(&str, ScheduleReport, &str); 4] = [
        (
            "first-fit / nominal",
            bursty_replay(
                &log,
                DemandSource::Nominal(nominal),
                joint_cluster(),
                Box::new(FirstFit),
            ),
            GOLDEN_FIRST_FIT_NOMINAL,
        ),
        (
            "prediction-aware / oracle",
            bursty_replay(
                &log,
                DemandSource::Oracle,
                joint_cluster(),
                Box::new(PredictionAware::new(1.1)),
            ),
            GOLDEN_PREDICTION_AWARE_ORACLE,
        ),
        (
            "best-fit / oracle, heterogeneous",
            bursty_replay(&log, DemandSource::Oracle, heterogeneous.clone(), Box::new(BestFit)),
            GOLDEN_BEST_FIT_HETEROGENEOUS,
        ),
        (
            // One mean window: about half the windows overrun their
            // reservation, so overflow episodes are counted too.
            "first-fit / under-reserved nominal, heterogeneous",
            bursty_replay(
                &log,
                DemandSource::Nominal(log.mean_resources().scale(10.0)),
                heterogeneous,
                Box::new(FirstFit),
            ),
            GOLDEN_FIRST_FIT_UNDER_RESERVED,
        ),
    ];
    for (name, report, golden) in cases {
        assert!(report.placed_deferred > 100, "{name}: the queue must run deep");
        assert_eq!(fingerprint(&report), golden, "{name}");
    }
}

const GOLDEN_FIRST_FIT_NOMINAL: &str = "first-fit/nominal exec=4 workloads=600 queries=6000 direct=4 deferred=596 rejected=0 sla=590 penalty=40abc80000000000 stranded=4195bc9699e5c903 stranded_cost=4056cae4cb403689 overflows=0 wait=49863527 max_wait=169722 makespan=253136 util=3fc9c8dc34dfeaa4,3fcce061bdb09328,0000000000000000";
const GOLDEN_PREDICTION_AWARE_ORACLE: &str = "prediction-aware/oracle exec=4 workloads=600 queries=6000 direct=263 deferred=337 rejected=0 sla=100 penalty=408d400000000000 stranded=4153eb3a9c98a0b5 stranded_cost=4014e2edd95619cf overflows=0 wait=449368 max_wait=8542 makespan=83839 util=3fe376831bf36904,3fe5cbf97ee7af52,0000000000000000";
const GOLDEN_BEST_FIT_HETEROGENEOUS: &str = "best-fit/oracle exec=4 workloads=600 queries=6000 direct=270 deferred=330 rejected=0 sla=70 penalty=4084a00000000000 stranded=0000000000000000 stranded_cost=0000000000000000 overflows=0 wait=335209 max_wait=7716 makespan=83839 util=3fe4c2adfbae4de4,3fe73ff90fe61059,0000000000000000";
const GOLDEN_FIRST_FIT_UNDER_RESERVED: &str = "first-fit/nominal exec=4 workloads=600 queries=6000 direct=261 deferred=339 rejected=0 sla=90 penalty=408c200000000000 stranded=4130fdfbfe395a64 stranded_cost=3ff1d14a08329221 overflows=462 wait=556138 max_wait=3960 makespan=83839 util=3fe4c2adfbae4de2,3fe73ff90fe61055,0000000000000000";
