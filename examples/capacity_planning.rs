//! Capacity planning (the paper's §I motivation): given the analytic
//! workloads a warehouse serves, how much working memory should the system
//! provision so that batches of concurrent queries fit?
//!
//! The example provisions for the 95th-percentile workload demand under three
//! estimators — the DBMS heuristic, LearnedWMP, and an oracle — and shows how
//! over-/under-provisioned each leaves the system.
//!
//! ```sh
//! cargo run --release --example capacity_planning
//! ```

use learnedwmp::core::{
    batch_workloads, LabelMode, LearnedWmp, ModelKind, SingleWmpDbms, TemplateSpec,
    WorkloadPredictor,
};
use learnedwmp::mlkit::metrics::quantile;
use learnedwmp::plan::{ResourceKind, ResourceVector};
use learnedwmp::sched::{FirstFit, Scheduler, Submitted, WorkloadRequest};
use learnedwmp::sim::Cluster;
use learnedwmp::workloads::QueryRecord;

fn main() {
    println!("Generating a TPC-DS-style history (18,000 queries) for capacity planning...");
    let log = learnedwmp::workloads::tpcds::generate(18_000, 11).expect("generation");
    let (train_idx, test_idx) = log.train_test_split(0.8, 42);
    let train: Vec<&QueryRecord> = train_idx.iter().map(|&i| &log.records[i]).collect();
    let future: Vec<&QueryRecord> = test_idx.iter().map(|&i| &log.records[i]).collect();

    let model = LearnedWmp::builder()
        .model(ModelKind::Rf)
        .templates(TemplateSpec::PlanKMeans { k: 100, seed: 42 })
        .fit_refs(&train, &log.catalog)
        .expect("training");

    // "Future" concurrent batches the capacity plan must accommodate; both
    // estimators answer through the `WorkloadPredictor` trait's batched path.
    let batches = batch_workloads(&future, 10, 3, LabelMode::Sum);
    let actual: Vec<f64> = batches.iter().map(|w| w.y_mb()).collect();
    let predict = |p: &dyn WorkloadPredictor| -> Vec<f64> {
        let preds = p.predict_resources_many(&future, &batches).expect("prediction");
        preds.iter().map(|r| r.memory_mb).collect()
    };
    let learned = predict(&model);
    let heuristic = predict(&SingleWmpDbms);

    // Provision at the predicted 95th percentile + 10% headroom.
    let plan = |preds: &[f64]| quantile(preds, 0.95).expect("quantile") * 1.1;
    let oracle_cap = plan(&actual);
    let learned_cap = plan(&learned);
    let heuristic_cap = plan(&heuristic);

    let assess = |name: &str, cap: f64| {
        let overflows = actual.iter().filter(|&&y| y > cap).count();
        let headroom: f64 =
            actual.iter().map(|y| (cap - y).max(0.0)).sum::<f64>() / actual.len() as f64;
        println!(
            "  {name:<16} provision {cap:>9.0} MB | workloads over budget: {overflows:>3}/{} | mean idle headroom {headroom:>8.0} MB",
            actual.len()
        );
    };

    println!("\nCapacity plan at predicted P95 + 10% headroom ({} future batches):", batches.len());
    assess("oracle", oracle_cap);
    assess("LearnedWMP-RF", learned_cap);
    assess("DBMS heuristic", heuristic_cap);
    println!(
        "\n  -> LearnedWMP's plan deviates {:+.1}% from the oracle capacity; the heuristic's deviates {:+.1}%.",
        (learned_cap / oracle_cap - 1.0) * 100.0,
        (heuristic_cap / oracle_cap - 1.0) * 100.0
    );

    // ------------------------------------------------------------------
    // Joint admission: memory capacity alone is not a safe gate. The model
    // predicts a full resource vector per batch, so a one-executor scheduler
    // can also budget CPU — and defer a batch that memory alone would admit.
    // ------------------------------------------------------------------
    println!("\nJoint memory + CPU admission (predictions from the same model):");
    let resources = model.predict_resources_many(&future, &batches).expect("resource prediction");
    let actual_resources: Vec<ResourceVector> = batches.iter().map(|w| w.y).collect();
    // Pick the two most CPU-hungry batches: both fit the memory budget
    // together, but the CPU budget only accommodates the first.
    let mut by_cpu: Vec<usize> = (0..resources.len()).collect();
    by_cpu.sort_by(|&a, &b| resources[b].cpu_ms.total_cmp(&resources[a].cpu_ms));
    let (first, second) = (by_cpu[0], by_cpu[1]);
    let mem_budget = (resources[first].memory_mb + resources[second].memory_mb) * 2.0;
    let cpu_budget = resources[first].cpu_ms + resources[second].cpu_ms * 0.5;

    let gate = |cpu_ms| {
        let capacity = ResourceVector::new(mem_budget, cpu_ms, f64::INFINITY);
        Scheduler::new(Cluster::uniform(1, capacity), Box::new(FirstFit))
    };
    let mut joint = gate(cpu_budget);
    let mut memory_only = gate(f64::INFINITY);
    let mut deferred_on = None;
    for (id, &i) in [first, second].iter().enumerate() {
        // Both batches arrive together, so the second competes with the first.
        let request = WorkloadRequest {
            id: id as u64,
            tenant: 0,
            arrival: 0,
            duration: 1,
            decision: resources[i],
            actual: actual_resources[i],
            queries: batches[i].query_indices.len(),
        };
        let joint_verdict = joint.submit(request);
        let memory_verdict = memory_only.submit(request);
        deferred_on = (joint_verdict == Submitted::Deferred)
            .then(|| joint.cluster().executor(0).first_overrun(resources[i]))
            .flatten();
        println!(
            "  batch {i:>3}: predicted {} | memory-only gate: {:?} | joint gate: {:?}{}",
            resources[i],
            memory_verdict,
            joint_verdict,
            deferred_on.map(|k| format!(" (deferred on {})", k.label())).unwrap_or_default()
        );
    }
    assert!(
        deferred_on == Some(ResourceKind::Cpu),
        "the second batch must be deferred on CPU, not memory"
    );
    println!(
        "  -> the second batch fits the {mem_budget:.0} MB memory budget but would blow the \
         {cpu_budget:.1} ms CPU budget; only the joint gate defers it."
    );
}
