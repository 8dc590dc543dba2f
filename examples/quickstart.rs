//! Quickstart: train a LearnedWMP model with the builder, persist it to a
//! versioned artifact, reload it (as a serving daemon would at startup), and
//! predict the working-memory demand of unseen workloads through the
//! `WorkloadPredictor` trait.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use learnedwmp::core::{
    batch_workloads, LabelMode, LearnedWmp, ModelKind, SingleWmpDbms, TemplateSpec,
    WorkloadPredictor,
};
use learnedwmp::workloads::QueryRecord;

fn main() {
    // 1. An executed-query log. In a deployment this comes from the DBMS
    //    query log (statement + final plan + measured peak working memory);
    //    here the TPC-DS-style generator plays that role.
    println!("Generating a TPC-DS-style query log (9,900 queries)...");
    let log = learnedwmp::workloads::tpcds::generate(9_900, 1).expect("generation");
    let (train_idx, test_idx) = log.train_test_split(0.8, 42);
    let train: Vec<&QueryRecord> = train_idx.iter().map(|&i| &log.records[i]).collect();
    let test: Vec<&QueryRecord> = test_idx.iter().map(|&i| &log.records[i]).collect();
    println!("  {} training queries, {} test queries", train.len(), test.len());
    println!("  mean per-query peak memory: {:.1} MB", log.mean_true_memory_mb());

    // 2. Train through the builder: k-means templates over plan features
    //    (TR3), histogram construction (TR4-TR5), XGBoost-style distribution
    //    regressor (TR6). Hyper-parameters are validated before any work.
    println!("\nTraining LearnedWMP-XGB with k = 100 templates, batch size s = 10...");
    let model = LearnedWmp::builder()
        .model(ModelKind::Xgb)
        .templates(TemplateSpec::PlanKMeans { k: 100, seed: 42 })
        .batch_size(10)
        .fit_refs(&train, &log.catalog)
        .expect("training");
    println!(
        "  templates learned in {:.0} ms, histograms in {:.0} ms, regressor fit in {:.0} ms",
        model.timings.template_ms, model.timings.histogram_ms, model.timings.fit_ms
    );

    // 3. Persist the trained model and reload it — the paper's §I deployment
    //    story: train offline, ship the artifact into the DBMS, load at
    //    startup. The reloaded model predicts bit-identically.
    let path = std::env::temp_dir().join("learnedwmp-quickstart.lwmp");
    model.save_to(&path).expect("save");
    let artifact_kb = std::fs::metadata(&path).expect("metadata").len() as f64 / 1024.0;
    let served = LearnedWmp::load_from(&path).expect("load");
    println!("\nPersisted model: {} ({artifact_kb:.1} kB on disk)", path.display());

    // 4. Serve predictions through the uniform `WorkloadPredictor` trait —
    //    the reloaded model and the DBMS heuristic answer the same calls.
    let predictors: Vec<Box<dyn WorkloadPredictor>> =
        vec![Box::new(served), Box::new(SingleWmpDbms)];
    let workloads = batch_workloads(&test, 10, 7, LabelMode::Sum);
    println!("\nFirst five unseen workloads (10 queries each):");
    println!("  {:>10} {:>12} {:>12} {:>12}", "workload", "actual MB", "LearnedWMP", "DBMS est.");
    for (i, w) in workloads.iter().take(5).enumerate() {
        let queries: Vec<&QueryRecord> = w.query_indices.iter().map(|&j| test[j]).collect();
        let preds: Vec<f64> = predictors
            .iter()
            .map(|p| p.predict_resources(&queries).expect("prediction").memory_mb)
            .collect();
        println!("  {:>10} {:>12.1} {:>12.1} {:>12.1}", i, w.y_mb(), preds[0], preds[1]);
    }

    // 5. Aggregate accuracy over all unseen workloads, via the batched
    //    fast path (each query is template-assigned exactly once).
    let y: Vec<f64> = workloads.iter().map(|w| w.y_mb()).collect();
    println!("\nRMSE over {} unseen workloads:", workloads.len());
    let mut rmses = Vec::new();
    for p in &predictors {
        let preds: Vec<f64> = p
            .predict_resources_many(&test, &workloads)
            .expect("prediction")
            .iter()
            .map(|r| r.memory_mb)
            .collect();
        let rmse = learnedwmp::mlkit::metrics::rmse(&y, &preds).expect("rmse");
        println!("  {:<16}: {rmse:>8.1} MB  (model size {:.1} kB)", p.name(), {
            p.footprint_bytes() as f64 / 1024.0
        });
        rmses.push(rmse);
    }
    println!(
        "  -> LearnedWMP reduces workload memory estimation error by {:.1}%",
        (1.0 - rmses[0] / rmses[1]) * 100.0
    );

    // 6. Go resident: the serving engine shares the model across request
    //    threads through a hot-swappable handle — submit a stream, get
    //    per-query tickets, and reload a new artifact with zero downtime.
    use learnedwmp::core::PredictorHandle;
    use learnedwmp::serve::{Engine, WindowPolicy};
    let engine = Engine::new(
        PredictorHandle::new(LearnedWmp::load_from(&path).expect("load")),
        WindowPolicy::Count(10),
    );
    let tickets: Vec<_> = test[..10].iter().map(|r| engine.submit((*r).clone())).collect();
    let decision = tickets[0].wait().expect("decision");
    println!(
        "\nServing engine: window of {} priced at {:.1} MB by model v{} \
         (p50 scoring latency {:.0} µs)",
        decision.window_len,
        decision.predicted_mb(),
        decision.model_version,
        engine.stats().p50_latency_us
    );
    let v = engine.reload(&path).expect("hot reload");
    println!("Hot-reloaded the artifact as model v{v} without pausing readers.");
    std::fs::remove_file(&path).ok();
}
