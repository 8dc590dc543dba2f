//! The observability layer end to end: metrics exposition, structured
//! tracing, and drift monitoring around a live serving engine.
//!
//! The example trains on an OLTP-heavy TPC-C phase (templates 0..6), boots
//! an [`Engine`] with observability and background retraining, serves the
//! in-distribution phase, then shifts the traffic to the heavy statement
//! mix (templates 6..12). Afterwards it renders the engine's metrics
//! registry as Prometheus text and JSON — non-zero serving counters,
//! scoring-latency quantiles, the rolling prediction MAE, and a
//! template-distribution drift gauge that moved with the shift — plus the
//! structured span/event log captured by a ring-buffer subscriber.
//!
//! ```sh
//! cargo run --release --example observability
//! ```

use std::sync::Arc;

use learnedwmp::core::{
    LearnedWmp, LearnedWmpConfig, ModelKind, OnlinePolicy, OnlineWmp, PredictorHandle, TemplateSpec,
};
use learnedwmp::obs::{Level, RingBufferRecorder};
use learnedwmp::serve::{Engine, ObsConfig, WindowPolicy};
use learnedwmp::workloads::QueryLog;

const WINDOW: usize = 10;
const PHASE_LEN: usize = 600;

/// A TPC-C-style log drawn from one template range — the two calls below
/// give the "before" and "after" of a workload shift.
fn phase(templates: std::ops::Range<usize>, base: u64) -> QueryLog {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let cat = learnedwmp::workloads::tpcc::catalog();
    let mut specs = Vec::new();
    for i in 0..PHASE_LEN {
        let mut rng = StdRng::seed_from_u64(base ^ i as u64);
        let t = templates.start + i % (templates.end - templates.start);
        specs.push((
            learnedwmp::workloads::tpcc::instantiate(&cat, t, base + i as u64, &mut rng),
            t,
        ));
    }
    learnedwmp::workloads::build_log("tpcc-shift", cat, specs).expect("log")
}

fn main() {
    // --- Capture structured tracing into a ring buffer. -------------------
    let recorder = Arc::new(RingBufferRecorder::with_capacity(512).min_level(Level::Info));
    learnedwmp::obs::set_subscriber(recorder.clone());

    // --- Train on phase 1 and fix the drift reference. --------------------
    println!("Training on the OLTP-heavy phase (templates 0..6)...");
    let phase1 = phase(0..6, 1_000);
    let model = LearnedWmp::builder()
        .model(ModelKind::Xgb)
        .templates(TemplateSpec::PlanKMeans { k: 12, seed: 7 })
        .fit(&phase1)
        .expect("training");
    let refs: Vec<_> = phase1.records.iter().collect();
    let reference = model.template_distribution(&refs).expect("reference distribution");

    // --- Boot the engine with observability + background retraining. ------
    let config = LearnedWmpConfig { model: ModelKind::Xgb, ..Default::default() };
    let policy = OnlinePolicy { retrain_every: 400, window: 1_200, k_templates: 12 };
    let engine = Engine::new(PredictorHandle::new(model), WindowPolicy::Count(WINDOW))
        .with_observability(ObsConfig::default().with_drift_reference(reference))
        .with_retraining(OnlineWmp::new(config, policy), phase1.catalog.clone());

    // --- Serve phase 1 (in-distribution), then the shifted phase 2. -------
    let phase2 = phase(6..12, 9_000);
    for (name, log) in
        [("phase 1 (templates 0..6)", &phase1), ("phase 2 (templates 6..12)", &phase2)]
    {
        let tickets: Vec<_> = log.records.iter().map(|r| engine.submit(r.clone())).collect();
        for record in &log.records {
            engine.observe(record.clone());
        }
        engine.drain();
        for ticket in &tickets {
            ticket.wait().expect("decision");
        }
        let drift = engine
            .obs_registry()
            .snapshot()
            .get("wmp_template_drift_score", &[])
            .and_then(|m| m.as_gauge())
            .unwrap_or(f64::NAN);
        println!("served {name}: {} queries, drift score {drift:.3}", log.len());
    }

    // Let the background retrainer drain: 1,200 observations at
    // retrain_every = 400 is up to three passes.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    while engine.stats().retrains + engine.stats().retrain_failures < 3
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    // --- Exposition: the same registry, both renderers. -------------------
    let snapshot = engine.obs_registry().snapshot();
    println!("\n=== Prometheus exposition ===\n{}", snapshot.to_prometheus());
    println!("=== JSON snapshot ===\n{}", snapshot.to_json());

    // --- The structured event log the subscriber captured. ----------------
    learnedwmp::obs::clear_subscriber();
    println!("\n=== Structured events (model lifecycle) ===");
    for event in recorder.events() {
        if matches!(event.name, "model_swap" | "retrain" | "retrain_published" | "model_install") {
            println!("{}", event.to_json_line());
        }
    }
}
