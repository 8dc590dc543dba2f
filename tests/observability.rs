//! End-to-end observability: one serving lifecycle — submit → observe →
//! retrain → swap — watched from the outside through both telemetry
//! pillars at once. A [`RingBufferRecorder`] captures the structured
//! spans/events the engine, retrainer, and handle emit, and the engine's
//! metrics registry is asserted against the exact traffic that was served.
//!
//! The whole lifecycle lives in a single `#[test]` because the tracing
//! subscriber is process-global; a second test in this binary would race
//! on `set_subscriber`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use learnedwmp::core::{
    LearnedWmp, LearnedWmpConfig, ModelKind, OnlinePolicy, OnlineWmp, PredictorHandle, TemplateSpec,
};
use learnedwmp::obs::{Level, RingBufferRecorder};
use learnedwmp::serve::{Engine, ObsConfig, WindowPolicy};

const WINDOW: usize = 10;
const N_QUERIES: usize = 200;

#[test]
fn serving_lifecycle_emits_spans_events_and_metrics() {
    let recorder = Arc::new(RingBufferRecorder::with_capacity(4096));
    learnedwmp::obs::set_subscriber(recorder.clone());

    let log = learnedwmp::workloads::tpcc::generate(N_QUERIES, 17).expect("log");
    let model = LearnedWmp::builder()
        .model(ModelKind::Xgb)
        .templates(TemplateSpec::PlanKMeans { k: 8, seed: 17 })
        .fit(&log)
        .expect("training");
    let refs: Vec<_> = log.records.iter().collect();
    let reference = model.template_distribution(&refs).expect("reference");

    // Retrain after N_QUERIES observations so feeding the log back through
    // `observe` triggers exactly one background pass and one swap.
    let config = LearnedWmpConfig { model: ModelKind::Xgb, ..Default::default() };
    let policy = OnlinePolicy { retrain_every: N_QUERIES, window: N_QUERIES, k_templates: 8 };
    let engine = Engine::new(PredictorHandle::new(model), WindowPolicy::Count(WINDOW))
        .with_observability(ObsConfig::default().with_drift_reference(reference))
        .with_retraining(OnlineWmp::new(config, policy), log.catalog.clone());

    // Submit → observe the whole log; every ticket must resolve.
    let tickets: Vec<_> = log.records.iter().map(|r| engine.submit(r.clone())).collect();
    for record in &log.records {
        engine.observe(record.clone());
    }
    engine.drain();
    for ticket in &tickets {
        ticket.wait().expect("decision");
    }

    // Wait for the single retrain pass to publish its swap.
    let deadline = Instant::now() + Duration::from_secs(120);
    while engine.stats().retrains + engine.stats().retrain_failures < 1 && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = engine.stats();
    assert_eq!(stats.retrains, 1, "one retrain pass must publish");
    assert_eq!(stats.retrain_failures, 0);
    assert_eq!(stats.swaps, 1);
    learnedwmp::obs::clear_subscriber();

    // --- Metrics: the registry reflects the exact traffic served. --------
    let snapshot = engine.obs_registry().snapshot();
    let counter = |name: &str| {
        snapshot.get(name, &[]).and_then(|m| m.as_counter()).unwrap_or_else(|| panic!("{name}"))
    };
    let gauge = |name: &str| {
        snapshot.get(name, &[]).and_then(|m| m.as_gauge()).unwrap_or_else(|| panic!("{name}"))
    };
    assert_eq!(counter("wmp_queries_submitted_total"), N_QUERIES as u64);
    assert_eq!(counter("wmp_queries_served_total"), N_QUERIES as u64);
    assert_eq!(counter("wmp_queries_failed_total"), 0);
    assert_eq!(counter("wmp_windows_scored_total"), (N_QUERIES / WINDOW) as u64);
    assert_eq!(counter("wmp_queries_observed_total"), N_QUERIES as u64);
    assert_eq!(counter("wmp_observations_dropped_total"), 0);
    assert_eq!(counter("wmp_retrains_total"), 1);
    assert_eq!(counter("wmp_model_swaps_total"), 1);
    let latency = snapshot
        .get("wmp_window_score_latency_us", &[])
        .and_then(|m| m.as_histogram())
        .expect("latency histogram");
    assert_eq!(latency.count, (N_QUERIES / WINDOW) as u64);
    assert!(gauge("wmp_prediction_mae_mb").is_finite());
    assert!(gauge("wmp_prediction_mae_cpu_ms").is_finite());
    assert!(gauge("wmp_prediction_mae_io_pages").is_finite());
    for resource in ["memory", "cpu", "io"] {
        let mape = snapshot
            .get("wmp_prediction_mape_pct", &[("resource", resource)])
            .and_then(|m| m.as_gauge())
            .unwrap_or_else(|| panic!("{resource} MAPE"));
        assert!(mape.is_finite(), "{resource} MAPE {mape}");
    }
    let drift = gauge("wmp_template_drift_score");
    assert!((0.0..=1.0).contains(&drift), "drift {drift} out of range");
    assert_eq!(gauge("wmp_pending_queries"), 0.0);

    // --- Tracing: the lifecycle left a coherent structured record. -------
    let events = recorder.events();
    let named = |name: &str| events.iter().filter(|e| e.name == name).collect::<Vec<_>>();

    // Every scored window closed a Debug-level `score_window` span with a
    // measured duration and the window's population.
    let scored = named("score_window");
    assert_eq!(scored.len(), N_QUERIES / WINDOW);
    assert!(scored.iter().all(|e| e.level == Level::Debug && e.duration_us.is_some()));
    assert!(scored
        .iter()
        .all(|e| e.field("window_len").and_then(|v| v.as_u64()) == Some(WINDOW as u64)));

    // The retrain pass: an Info span from the online learner...
    let retrains = named("retrain");
    assert_eq!(retrains.len(), 1);
    assert!(retrains[0].duration_us.is_some(), "retrain is a span, not a bare event");
    assert_eq!(retrains[0].field("window_len").and_then(|v| v.as_u64()), Some(N_QUERIES as u64));

    // ...then the handle's swap, versioned and aged...
    let swaps = named("model_swap");
    assert_eq!(swaps.len(), 1);
    assert_eq!(swaps[0].field("version").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(swaps[0].field("previous_version").and_then(|v| v.as_u64()), Some(0));

    // ...and the engine's publication event, in causal order.
    let published = named("retrain_published");
    assert_eq!(published.len(), 1);
    assert_eq!(published[0].field("version").and_then(|v| v.as_u64()), Some(1));
    let pos = |name: &str| events.iter().position(|e| e.name == name).unwrap();
    assert!(pos("retrain") < pos("model_swap"));
    assert!(pos("model_swap") < pos("retrain_published"));
}
