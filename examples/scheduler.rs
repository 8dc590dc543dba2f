//! Closed-loop multi-tenant scheduling: what workload prediction is *for*.
//!
//! A TPC-H-style arrival stream (100k+ queries in 10-query windows) is
//! replayed through a 4-executor cluster under three regimes:
//!
//! - **baseline** — no prediction: every window reserves the same nominal
//!   envelope (3× the mean window demand, the defensive constant an
//!   operator without a model must pick), placed first-fit;
//! - **prediction-aware** — reservations come from a serving engine's live
//!   LearnedWMP model (via its `PredictorHandle`) with 1.1× headroom,
//!   placed best-fit;
//! - **oracle** — reservations equal true demand (perfect information),
//!   the upper bound on what any predictor can achieve.
//!
//! Each run is costed identically: SLA penalties for windows that start
//! past their tenant's deadline plus stranded-capacity cost for reserved
//! memory reality never used. The example asserts the headline claim —
//! prediction-aware scheduling beats the no-prediction baseline on total
//! cost — and prints the full comparison.
//!
//! ```sh
//! cargo run --release --example scheduler
//! ```

use learnedwmp::core::{LearnedWmp, ModelKind, PredictorHandle, TemplateSpec};
use learnedwmp::plan::ResourceVector;
use learnedwmp::sched::{
    replay, BestFit, CostModel, DemandSource, FirstFit, PlacementPolicy, PredictionAware,
    ReplayConfig, ScheduleReport, Scheduler, SlaClass,
};
use learnedwmp::serve::{Engine, WindowPolicy};
use learnedwmp::sim::Cluster;
use learnedwmp::workloads::{ArrivalProcess, QueryRecord};

const WINDOW: usize = 10;
const N_QUERIES: usize = 110_000;
const TRAIN: usize = 20_000;

fn scheduler(policy: Box<dyn PlacementPolicy>) -> Scheduler {
    // 4 executors, each gated on memory and CPU; two SLA tiers (tenants
    // alternate): gold allows 1,000 ticks of queueing at penalty 10, bronze
    // 4,000 ticks at penalty 2.
    Scheduler::new(Cluster::uniform(4, ResourceVector::new(256.0, 8_000.0, f64::INFINITY)), policy)
        .with_sla_classes(vec![SlaClass::new(1_000, 10.0), SlaClass::new(4_000, 2.0)])
        .with_cost_model(CostModel { stranded_per_mb_tick: 1e-6 })
}

fn main() {
    println!("Generating a TPC-H-style history ({N_QUERIES} queries)...");
    let log = learnedwmp::workloads::tpch::generate(N_QUERIES, 7).expect("generation");
    let mean_window: ResourceVector = log
        .records
        .iter()
        .map(|r| r.resources)
        .sum::<ResourceVector>()
        .scale(WINDOW as f64 / log.len() as f64);
    println!("  mean window demand: {mean_window}");

    println!("Training LearnedWMP (Ridge over template histograms, {TRAIN} queries)...");
    let train: Vec<&QueryRecord> = log.records.iter().take(TRAIN).collect();
    let model = LearnedWmp::builder()
        .model(ModelKind::Ridge)
        .templates(TemplateSpec::PlanKMeans { k: 22, seed: 42 })
        .batch_size(WINDOW)
        .fit_refs(&train, &log.catalog)
        .expect("training");

    // The prediction-aware run reads its demand estimates from a resident
    // serving engine's hot-swappable handle — the one a production gate
    // would consult — outside the engine's windows and counters.
    let engine = Engine::new(PredictorHandle::new(model), WindowPolicy::Count(WINDOW));

    let config = ReplayConfig {
        window: WINDOW,
        arrivals: ArrivalProcess::Bursty {
            burst_gap_ticks: 120.0,
            idle_gap_ticks: 3_000.0,
            mean_burst_len: 40.0,
        },
        seed: 11,
    };

    // Without a model, an operator must provision every window for a high
    // percentile of demand; 3× the mean is the defensive constant.
    let nominal = mean_window.scale(3.0);

    println!("Replaying {} windows through each regime...\n", log.len().div_ceil(WINDOW));
    let runs: Vec<(&str, ScheduleReport)> = vec![
        (
            "baseline (no prediction)",
            replay(&log, DemandSource::Nominal(nominal), scheduler(Box::new(FirstFit)), &config)
                .expect("baseline replay"),
        ),
        (
            "prediction-aware (LearnedWMP)",
            replay(
                &log,
                DemandSource::Predictor(engine.handle()),
                scheduler(Box::new(PredictionAware::new(1.1))),
                &config,
            )
            .expect("prediction-aware replay"),
        ),
        (
            "oracle (true demand)",
            replay(&log, DemandSource::Oracle, scheduler(Box::new(BestFit)), &config)
                .expect("oracle replay"),
        ),
    ];

    for (name, report) in &runs {
        println!("== {name} ==");
        println!("{report}\n");
    }

    println!(
        "{:<32} {:>12} {:>12} {:>12} {:>10} {:>8}",
        "regime", "SLA penalty", "stranded", "total cost", "util mem", "deferred"
    );
    for (name, r) in &runs {
        println!(
            "{:<32} {:>12.1} {:>12.1} {:>12.1} {:>9.0}% {:>8}",
            name,
            r.sla_penalty,
            r.stranded_cost,
            r.total_cost(),
            r.mean_utilization.memory_mb * 100.0,
            r.placed_deferred,
        );
    }

    let baseline = &runs[0].1;
    let aware = &runs[1].1;
    let oracle = &runs[2].1;
    assert!(
        aware.total_cost() < baseline.total_cost(),
        "prediction-aware scheduling must beat the no-prediction baseline \
         ({} vs {})",
        aware.total_cost(),
        baseline.total_cost(),
    );
    println!(
        "\nPrediction-aware total cost is {:.1}% of the no-prediction baseline \
         (oracle bound: {:.1}%).",
        100.0 * aware.total_cost() / baseline.total_cost(),
        100.0 * oracle.total_cost() / baseline.total_cost(),
    );
}
