//! The serving lifecycle end to end (paper §I "DBMS Integration"):
//! **submit → window → predict → observe → swap**.
//!
//! A resident `Engine` serves memory predictions for an unbounded query
//! stream from concurrent client threads, while executed queries stream
//! back into a background retrainer whose passes hot-swap the model without
//! pausing the service; a persisted artifact is also installed live via
//! `Engine::reload`. Every window's prediction is then submitted to a
//! one-executor `wmp_sched::Scheduler` whose capacity is the memory budget,
//! so prediction quality shows up as deferrals, overflows and stranded
//! capacity.
//!
//! ```sh
//! cargo run --release --example serving
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;

use learnedwmp::core::{
    LearnedWmp, LearnedWmpConfig, ModelKind, OnlinePolicy, OnlineWmp, PredictorHandle, TemplateSpec,
};
use learnedwmp::plan::ResourceVector;
use learnedwmp::sched::{FirstFit, Scheduler, WorkloadRequest};
use learnedwmp::serve::{Engine, WindowPolicy};
use learnedwmp::sim::Cluster;

const WINDOW: usize = 10;
const CLIENTS: usize = 4;

fn main() {
    // --- Train & ship: the model a DBMS would load at startup. -----------
    println!("Training the initial model on a TPC-C-style history...");
    let history = learnedwmp::workloads::tpcc::generate(2_000, 3).expect("history");
    let model = LearnedWmp::builder()
        .model(ModelKind::Xgb)
        .templates(TemplateSpec::PlanKMeans { k: 20, seed: 3 })
        .fit(&history)
        .expect("training");
    let artifact = std::env::temp_dir().join("learnedwmp-serving-example.lwmp");
    model.save_to(&artifact).expect("save");

    // --- Boot the engine: shared handle + background retraining. ---------
    let config = LearnedWmpConfig { model: ModelKind::Xgb, ..Default::default() };
    let policy = OnlinePolicy { retrain_every: 1_000, window: 4_000, k_templates: 20 };
    let engine = Arc::new(
        Engine::new(PredictorHandle::new(model), WindowPolicy::Count(WINDOW))
            .with_retraining(OnlineWmp::new(config, policy), history.catalog.clone()),
    );
    println!(
        "Engine up: window policy Count({WINDOW}), model v{}, {CLIENTS} client threads.\n",
        engine.handle().version()
    );

    // --- Serve: concurrent clients replay live traffic into the engine. --
    let traffic = learnedwmp::workloads::tpcc::generate(4_000, 77).expect("traffic");
    let chunks: Vec<_> = traffic.replay(traffic.len().div_ceil(CLIENTS)).collect();
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let clients: Vec<_> = chunks
            .iter()
            .map(|chunk| {
                let engine = Arc::clone(&engine);
                scope.spawn(move || {
                    let mut pending = Vec::new();
                    for record in *chunk {
                        // Submit for admission pricing; the ticket resolves
                        // when the window fills with this thread's and its
                        // peers' queries.
                        let ticket = engine.submit(record.clone());
                        // The query "executes"; its measured memory streams
                        // into the background retrainer.
                        engine.observe(record.clone());
                        pending.push((ticket, record.true_memory_mb()));
                    }
                    pending
                })
            })
            .collect();
        let pending: Vec<_> = clients.into_iter().flat_map(|c| c.join().expect("client")).collect();
        // Flush the final partial window so every ticket resolves.
        engine.drain();
        pending
            .into_iter()
            .map(|(ticket, actual_mb)| (ticket.wait().expect("decision"), actual_mb))
            .collect()
    });

    // --- Swap: a fresh artifact installs without stopping the service. ---
    let version = engine.reload(&artifact).expect("reload");
    println!("Hot-reloaded the persisted artifact as model v{version}.");

    // Let the background retrainer drain its queue: 4,000 observations at
    // retrain_every = 1,000 is four passes.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    while engine.stats().retrains + engine.stats().retrain_failures < 4
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    // The retrain queue holds this example's whole burst, so every
    // observation reached the retrainer.
    let dropped = engine
        .obs_registry()
        .snapshot()
        .get("wmp_observations_dropped_total", &[])
        .and_then(|m| m.as_counter());
    assert_eq!(dropped, Some(0), "the retrain queue dropped observations");

    // --- Close the loop: window predictions drive admission. -------------
    // Reassemble windows: every member ticket carries the same decision, so
    // group actual per-query memory by window id.
    let mut by_window: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
    for (decision, actual_mb) in &outcomes {
        let entry = by_window.entry(decision.window_id).or_insert((decision.predicted_mb(), 0.0));
        entry.1 += actual_mb;
    }
    // Budget ≈ 2.5 mean windows; a window arrives every tick and runs for
    // two, so two usually share the budget: a deliberately tight system
    // where prediction error changes decisions. A window that does not fit
    // waits in the deferral queue.
    let budget = 2.5 * by_window.values().map(|(p, _)| p).sum::<f64>() / by_window.len() as f64;
    let capacity = ResourceVector::new(budget, f64::INFINITY, f64::INFINITY);
    let mut gate = Scheduler::new(Cluster::uniform(1, capacity), Box::new(FirstFit));
    for (i, (predicted, actual)) in by_window.values().enumerate() {
        gate.submit(WorkloadRequest {
            id: i as u64,
            tenant: 0,
            arrival: i as u64,
            duration: 2,
            decision: ResourceVector::memory_only(*predicted),
            actual: ResourceVector::memory_only(*actual),
            queries: WINDOW,
        });
    }
    let admission = gate.run_to_completion();

    // --- Report. ----------------------------------------------------------
    let stats = engine.stats();
    println!("\nEngine stats after the session:");
    println!("  submitted            : {:>8}", stats.submitted);
    println!("  served               : {:>8}", stats.served);
    println!("  windows scored       : {:>8}", stats.windows);
    println!("  observed (retraining): {:>8}", stats.observed);
    println!("  retrain passes       : {:>8}", stats.retrains);
    println!("  model swaps          : {:>8}", stats.swaps);
    println!(
        "  scoring latency      : p50 {:>5.0} µs, p99 {:>5.0} µs",
        stats.p50_latency_us, stats.p99_latency_us
    );
    println!("  current model version: {:>8}", engine.handle().version());
    println!("\nClosed-loop admission (budget {budget:.0} MB, 2 windows in flight):");
    println!("{admission}");

    std::fs::remove_file(&artifact).ok();
}
