//! Admission control (the paper's §I motivation): before a batch of queries
//! is admitted for concurrent execution, the DBMS must decide whether its
//! collective working memory fits the budget. Under-estimation admits batches
//! that overflow (spills, thrashing, failures); over-estimation leaves
//! capacity idle.
//!
//! Unseen JOB-style traffic is replayed through two serving engines — one
//! holding LearnedWMP, one holding the DBMS heuristic — and each window's
//! ticketed prediction is submitted to a one-executor `wmp_sched::Scheduler`
//! whose capacity is the memory budget; each run tallies both error types
//! against the ground truth.
//!
//! ```sh
//! cargo run --release --example admission_control
//! ```

use learnedwmp::core::{LearnedWmp, ModelKind, PredictorHandle, SingleWmpDbms, TemplateSpec};
use learnedwmp::plan::ResourceVector;
use learnedwmp::sched::{FirstFit, ScheduleReport, Scheduler, WorkloadRequest};
use learnedwmp::serve::{Engine, WindowPolicy};
use learnedwmp::sim::Cluster;
use learnedwmp::workloads::QueryRecord;

const WINDOW: usize = 10;

fn main() {
    println!("Generating a JOB-style history (2,300 queries)...");
    let log = learnedwmp::workloads::job::generate(2_300, 2).expect("generation");
    let (train_idx, test_idx) = log.train_test_split(0.8, 42);
    let train: Vec<&QueryRecord> = train_idx.iter().map(|&i| &log.records[i]).collect();

    let model = LearnedWmp::builder()
        .model(ModelKind::Rf)
        .templates(TemplateSpec::PlanKMeans { k: 40, seed: 42 })
        .fit_refs(&train, &log.catalog)
        .expect("training");

    // Two resident engines gate the same stream: same windowing, different
    // predictor behind the handle.
    let engines = [
        (
            "LearnedWMP-RF admission gate",
            Engine::new(PredictorHandle::new(model), WindowPolicy::Count(WINDOW)),
        ),
        (
            "DBMS-heuristic admission gate",
            Engine::new(PredictorHandle::new(SingleWmpDbms), WindowPolicy::Count(WINDOW)),
        ),
    ];

    // Replay the unseen traffic through both engines, collecting each
    // window's ticketed decision next to its actual collective memory.
    let incoming = learnedwmp::workloads::QueryLog {
        benchmark: log.benchmark.clone(),
        catalog: log.catalog.clone(),
        records: test_idx.iter().map(|&i| log.records[i].clone()).collect(),
    };
    let mut windows: Vec<(f64, [f64; 2])> = Vec::new(); // (actual, predicted per gate)
    for chunk in incoming.replay(WINDOW) {
        if chunk.len() < WINDOW {
            break; // fixed-size windows, as in the paper's evaluation
        }
        let mut predicted = [0.0f64; 2];
        for (slot, (_, engine)) in engines.iter().enumerate() {
            let tickets: Vec<_> = chunk.iter().map(|r| engine.submit(r.clone())).collect();
            predicted[slot] = tickets[0].wait().expect("decision").predicted_mb();
        }
        let actual: f64 = chunk.iter().map(|r| r.true_memory_mb()).sum();
        windows.push((actual, predicted));
    }

    // Budget: 1.5x the median actual window demand — a deliberately tight
    // system where wrong predictions change decisions.
    let mut actuals: Vec<f64> = windows.iter().map(|(a, _)| *a).collect();
    actuals.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let budget = actuals[actuals.len() / 2] * 1.5;
    println!("Working-memory budget per batch: {budget:.0} MB ({} windows)\n", windows.len());

    // Drive one one-executor scheduler per gate on identical traffic. Window
    // `i` arrives at tick `i` and runs for one tick, so each window is priced
    // alone and the tallies isolate pure prediction quality; a window whose
    // prediction cannot fit the empty executor is rejected.
    let capacity = ResourceVector::new(budget, f64::INFINITY, f64::INFINITY);
    let mut tallies: Vec<(ScheduleReport, usize)> = Vec::new();
    for slot in 0..engines.len() {
        let mut gate = Scheduler::new(Cluster::uniform(1, capacity), Box::new(FirstFit));
        for (i, (actual, predicted)) in windows.iter().enumerate() {
            gate.submit(WorkloadRequest {
                id: i as u64,
                tenant: 0,
                arrival: i as u64,
                duration: 1,
                decision: ResourceVector::memory_only(predicted[slot]),
                actual: ResourceVector::memory_only(*actual),
                queries: WINDOW,
            });
        }
        let report = gate.run_to_completion();
        assert_eq!(report.placed_deferred, 0, "each window runs alone, so none waits");
        let rejected_would_fit =
            windows.iter().filter(|(actual, p)| p[slot] > budget && *actual <= budget).count();
        tallies.push((report, rejected_would_fit));
    }

    let wrong_decisions = |(r, would_fit): &(ScheduleReport, usize)| r.overflow_events + would_fit;
    for ((name, engine), tally) in engines.iter().zip(&tallies) {
        let (r, would_fit) = tally;
        println!("{name}:");
        println!("  admitted & fit            : {:>3}", r.placed() - r.overflow_events);
        println!(
            "  admitted but OVERFLOWED   : {:>3}   <- memory pressure / failures",
            r.overflow_events
        );
        println!("  rejected although it fit  : {:>3}   <- wasted capacity", would_fit);
        println!("  rejected & would overflow : {:>3}", r.rejected - would_fit);
        println!("  wrong decisions           : {:>3}/{}\n", wrong_decisions(tally), r.workloads);
        let stats = engine.stats();
        assert_eq!(stats.served, stats.submitted, "every submitted query was ticketed");
    }

    println!(
        "-> LearnedWMP makes {} wrong admission decisions vs the heuristic's {}.",
        wrong_decisions(&tallies[0]),
        wrong_decisions(&tallies[1])
    );
}
