//! # wmp-serve — the thread-safe serving engine
//!
//! The paper deploys LearnedWMP as a *resident* predictor inside the DBMS
//! (§I "DBMS Integration"): every arriving workload gets a memory estimate
//! from the current model, executed queries flow back as training data, and
//! the model is periodically retrained without taking the service down.
//! This crate is that serving surface, built on three pieces:
//!
//! - [`Engine`] — the facade: [`Engine::submit`] turns an unbounded query
//!   stream into workload windows and resolves per-query [`QueryTicket`]s
//!   with each window's predicted memory; [`Engine::observe`] streams
//!   executed queries to a background retrainer; [`Engine::reload`]
//!   installs a persisted artifact.
//! - [`PredictorHandle`] (from `learnedwmp_core`) — the shared,
//!   hot-swappable model handle: N request threads read coherent snapshots
//!   while a writer installs a replacement without blocking them.
//! - Always-on telemetry — every engine counts its traffic in a private
//!   [`wmp_obs`] registry of `wmp_*` metrics ([`Engine::obs_registry`],
//!   Prometheus/JSON), with rolling per-axis prediction error (MAE and
//!   MAPE) fed by [`Engine::observe`].
//!   [`Engine::stats`] reads a [`StatsSnapshot`] (counters plus p50/p99
//!   window-scoring latency) from the same instruments, and
//!   [`ObsConfig`] / [`Engine::with_observability`] add a
//!   template-distribution drift score.
//! - [`SqlFrontend`] / [`Engine::submit_sql`] — SQL text ingestion: parse
//!   under a [`wmp_sql::Dialect`], lower against the catalog, price, and
//!   enqueue — with typed, span-carrying rejections and
//!   `wmp_sql_parse_ok_total` / `wmp_sql_parse_errors_total` counters.
//!
//! ## Windowing policies and the paper's workload definition
//!
//! The paper (§II) defines a *workload* as a **set of `s` queries executed
//! as a batch**, and its model consumes the workload's template histogram
//! (Algorithm 2) — predictions are inherently per-window, not per-query.
//! A serving engine therefore has to decide where one workload ends and the
//! next begins on a stream that never ends:
//!
//! - [`WindowPolicy::Count`]`(s)` reproduces the paper's fixed-size
//!   workloads at serving time: every `s` submissions close a window, which
//!   is exactly the regime the model was trained in (TR4 batches the
//!   training log into workloads of the same `s`; the evaluation fixes
//!   `s = 10`). Matching the training batch size at serving time keeps the
//!   histogram scale (`Σ H = s`, eq. 8) consistent between training and
//!   inference.
//! - [`WindowPolicy::Drain`] leaves the boundary to the caller
//!   ([`Engine::drain`]), supporting the variable-length-workload extension
//!   the paper sketches in §I — e.g. an admission controller that flushes
//!   whatever arrived in a scheduling tick. Use it with a model trained on
//!   [`HistogramMode::Frequencies`](learnedwmp_core::HistogramMode) or
//!   variable-length batches so window size is not baked into the features.
//!
//! Every query of a window receives the *same* [`WorkloadDecision`] — the
//! window's collective prediction — because the paper's model prices the
//! batch, not its members.
//!
//! ## Example
//!
//! ```
//! use learnedwmp_core::{LearnedWmp, ModelKind, PredictorHandle, TemplateSpec};
//! use wmp_serve::{Engine, WindowPolicy};
//!
//! let log = wmp_workloads::tpcc::generate(300, 7).unwrap();
//! let model = LearnedWmp::builder()
//!     .model(ModelKind::Ridge)
//!     .templates(TemplateSpec::PlanKMeans { k: 6, seed: 7 })
//!     .fit(&log)
//!     .unwrap();
//!
//! let engine = Engine::new(PredictorHandle::new(model), WindowPolicy::Count(10));
//! let tickets: Vec<_> =
//!     log.records.iter().take(10).map(|r| engine.submit(r.clone())).collect();
//! // The 10th submission closed the window: every ticket carries the
//! // window's collective prediction.
//! let decision = tickets[0].wait().unwrap();
//! assert_eq!(decision.window_len, 10);
//! assert!(decision.predicted_mb() > 0.0);
//! assert!(tickets.iter().all(|t| t.is_resolved()));
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod obs;
pub mod sqlfront;
pub mod ticket;

pub use engine::{Engine, StatsSnapshot, WindowPolicy};
pub use learnedwmp_core::handle::{ModelSnapshot, PredictorHandle};
pub use obs::ObsConfig;
pub use sqlfront::SqlFrontend;
pub use ticket::{QueryTicket, WorkloadDecision};

/// [`StatsSnapshot`] as [`Engine::stats`] reads it: the empty engine, the
/// latency quantiles and the reconciliation of its counters. The
/// mixed-traffic and concurrent checks are in `tests`.
#[cfg(test)]
mod stats {
    mod tests {
        use crate::{Engine, PredictorHandle, StatsSnapshot, WindowPolicy};
        use learnedwmp_core::{LearnedWmp, ModelKind, TemplateSpec};
        use std::time::Duration;
        use wmp_workloads::QueryLog;

        fn engine_for(log: &QueryLog, policy: WindowPolicy) -> Engine {
            let model = LearnedWmp::builder()
                .model(ModelKind::Ridge)
                .templates(TemplateSpec::PlanKMeans { k: 6, seed: 3 })
                .fit(log)
                .unwrap();
            Engine::new(PredictorHandle::new(model), policy)
        }

        #[test]
        fn latency_quantiles_keep_the_conservative_upper_bound_contract() {
            // p50/p99 are interpolated within the bucket that holds the true
            // quantile and never pass that bucket's upper edge; the exported
            // buckets still carry the inclusive upper bound itself.
            let log = wmp_workloads::tpcc::generate(120, 3).unwrap();
            let engine = engine_for(&log, WindowPolicy::Count(10));
            let latency = &engine.obs.score_latency;
            for _ in 0..99 {
                latency.record_duration(Duration::from_micros(100));
            }
            latency.record_duration(Duration::from_millis(50));

            let snap = engine.stats();
            // 100 µs lands in the bucket [64, 128), inclusive bound 127.
            assert_eq!(latency.snapshot().buckets, vec![(127, 99), (65_535, 100)]);
            for q in [snap.p50_latency_us, snap.p99_latency_us] {
                assert!(q > 64.0 && q <= 128.0, "quantile {q} left the [64, 128) bucket");
            }
            assert_eq!(snap.p99_latency_us, 128.0);
            assert!(latency.quantile(1.0) >= 50_000.0);
        }

        #[test]
        fn empty_histogram_reports_zero() {
            let log = wmp_workloads::tpcc::generate(120, 3).unwrap();
            let engine = engine_for(&log, WindowPolicy::Count(10));
            let snap = engine.stats();
            assert_eq!(snap.p50_latency_us, 0.0);
            assert_eq!(snap.p99_latency_us, 0.0);
            assert_eq!(snap, StatsSnapshot::default());
        }

        #[test]
        fn snapshot_reconciles() {
            let log = wmp_workloads::tpcc::generate(120, 3).unwrap();
            let engine = engine_for(&log, WindowPolicy::Count(5));
            for r in &log.records[..8] {
                let _ = engine.submit(r.clone());
            }
            // A failed window: the features are one column wider than the
            // model's.
            for r in &log.records[..2] {
                let mut wide = r.clone();
                wide.features.push(1.0);
                let _ = engine.submit(wide);
            }
            // The first window is served; the second (3 good + 2 wide)
            // fails as a whole.
            let snap = engine.stats();
            assert_eq!((snap.submitted, snap.served, snap.failed), (10, 5, 5));
            assert_eq!(snap.resolved(), snap.submitted);
            assert_eq!(snap.pending, 0);
        }

        #[test]
        fn snapshot_with_pending_reports_the_live_level() {
            let log = wmp_workloads::tpcc::generate(120, 3).unwrap();
            let engine = engine_for(&log, WindowPolicy::Count(10));
            for r in &log.records[..16] {
                let _ = engine.submit(r.clone());
            }
            let snap = engine.stats();
            assert_eq!(snap.pending, 6);
            assert_eq!(snap.resolved(), 10);
            assert!(snap.submitted >= snap.resolved() + snap.pending);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use learnedwmp_core::{
        LearnedWmp, LearnedWmpConfig, ModelKind, OnlinePolicy, OnlineWmp, TemplateSpec,
    };
    use wmp_workloads::{QueryLog, QueryRecord};

    fn trained_on(log: &QueryLog, kind: ModelKind, seed: u64) -> LearnedWmp {
        LearnedWmp::builder()
            .model(kind)
            .templates(TemplateSpec::PlanKMeans { k: 6, seed })
            .fit(log)
            .unwrap()
    }

    #[test]
    fn count_windows_resolve_with_the_windows_prediction() {
        let log = wmp_workloads::tpcc::generate(200, 1).unwrap();
        let model = trained_on(&log, ModelKind::Ridge, 1);
        let probe: Vec<&QueryRecord> = log.records[..10].iter().collect();
        let expected = model.predict_resources(&probe).unwrap().memory_mb;

        let engine = Engine::new(PredictorHandle::new(model), WindowPolicy::Count(10));
        let tickets: Vec<QueryTicket> =
            log.records[..25].iter().map(|r| engine.submit(r.clone())).collect();

        // 25 submissions at s=10: two full windows scored, 5 queries pending.
        let d0 = tickets[0].wait().unwrap();
        assert_eq!(d0.window_id, 0);
        assert_eq!(d0.window_len, 10);
        assert_eq!(d0.predicted_mb().to_bits(), expected.to_bits());
        for t in &tickets[..10] {
            assert_eq!(t.wait().unwrap(), d0, "one decision per window");
        }
        assert_eq!(tickets[10].wait().unwrap().window_id, 1);
        assert!(!tickets[20].is_resolved());
        assert_eq!(engine.pending_len(), 5);

        // Drain flushes the partial window.
        assert_eq!(engine.drain(), 5);
        assert_eq!(tickets[20].wait().unwrap().window_len, 5);
        assert_eq!(engine.drain(), 0, "nothing left to flush");

        let stats = engine.stats();
        assert_eq!(stats.submitted, 25);
        assert_eq!(stats.served, 25);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.windows, 3);
        assert_eq!(stats.resolved(), stats.submitted);
    }

    #[test]
    fn drain_policy_accumulates_until_flushed() {
        let log = wmp_workloads::tpcc::generate(120, 2).unwrap();
        let model = trained_on(&log, ModelKind::Ridge, 2);
        let engine = Engine::new(PredictorHandle::new(model), WindowPolicy::Drain);
        let tickets: Vec<QueryTicket> =
            log.records[..37].iter().map(|r| engine.submit(r.clone())).collect();
        assert!(tickets.iter().all(|t| !t.is_resolved()), "Drain never auto-closes");
        assert_eq!(engine.pending_len(), 37);
        assert_eq!(engine.drain(), 37);
        let d = tickets[36].wait().unwrap();
        assert_eq!(d.window_len, 37);
        assert_eq!(engine.stats().windows, 1);
    }

    #[test]
    fn replayed_stream_feeds_the_engine() {
        let log = wmp_workloads::tpcc::generate(200, 3).unwrap();
        let model = trained_on(&log, ModelKind::Ridge, 3);
        let engine = Engine::new(PredictorHandle::new(model), WindowPolicy::Count(10));
        let mut tickets = Vec::new();
        for chunk in log.replay(64) {
            for record in chunk {
                tickets.push(engine.submit(record.clone()));
            }
        }
        engine.drain();
        assert_eq!(tickets.len(), 200);
        assert!(tickets.iter().all(|t| t.wait().is_ok()));
        assert_eq!(engine.stats().windows, 20);
    }

    #[test]
    fn install_and_reload_swap_the_serving_model() {
        let log = wmp_workloads::tpcc::generate(250, 4).unwrap();
        let a = trained_on(&log, ModelKind::Ridge, 4);
        let b = trained_on(&log, ModelKind::Xgb, 5);
        let probe: Vec<&QueryRecord> = log.records[..10].iter().collect();
        let pa = a.predict_resources(&probe).unwrap().memory_mb;
        let pb = b.predict_resources(&probe).unwrap().memory_mb;
        assert_ne!(pa.to_bits(), pb.to_bits());

        let dir = std::env::temp_dir().join("wmp-serve-reload-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model-b.lwmp");
        b.save_to(&path).unwrap();

        let engine = Engine::new(PredictorHandle::new(a), WindowPolicy::Count(10));
        let first: Vec<QueryTicket> =
            log.records[..10].iter().map(|r| engine.submit(r.clone())).collect();
        assert_eq!(first[0].wait().unwrap().predicted_mb().to_bits(), pa.to_bits());
        assert_eq!(first[0].wait().unwrap().model_version, 0);

        let version = engine.reload(&path).unwrap();
        assert_eq!(version, 1);
        let second: Vec<QueryTicket> =
            log.records[..10].iter().map(|r| engine.submit(r.clone())).collect();
        let d = second[0].wait().unwrap();
        assert_eq!(d.predicted_mb().to_bits(), pb.to_bits(), "reload serves the artifact");
        assert_eq!(d.model_version, 1);
        assert_eq!(engine.stats().swaps, 1);

        assert!(engine.reload(dir.join("missing.lwmp")).is_err());
        assert_eq!(engine.handle().version(), 1, "failed reload keeps the current model serving");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn observe_retrains_in_the_background_and_hot_swaps() {
        let log = wmp_workloads::tpcc::generate(400, 6).unwrap();
        // Seed from a *different* log so the retrained model (trained on
        // `log`'s observations) cannot coincide with the seed bit-for-bit.
        let seed_log = wmp_workloads::tpcc::generate(300, 77).unwrap();
        let seed_model = trained_on(&seed_log, ModelKind::Ridge, 6);
        let probe: Vec<&QueryRecord> = log.records[..10].iter().collect();
        let seeded = seed_model.predict_resources(&probe).unwrap().memory_mb;

        let config = LearnedWmpConfig { model: ModelKind::Ridge, ..Default::default() };
        let policy = OnlinePolicy { retrain_every: 200, window: 1_000, k_templates: 6 };
        let online = OnlineWmp::new(config, policy);
        let engine = Engine::new(PredictorHandle::new(seed_model), WindowPolicy::Count(10))
            .with_retraining(online, log.catalog.clone());

        for r in &log.records {
            assert!(engine.observe(r.clone()));
        }
        // The retrainer runs on its own thread; wait for both passes
        // (400 observations / retrain_every 200) to publish.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while engine.stats().retrains < 2 {
            assert!(std::time::Instant::now() < deadline, "retraining never published");
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let stats = engine.stats();
        assert_eq!(stats.observed, 400);
        assert_eq!(stats.retrain_failures, 0);
        assert!(engine.handle().version() >= 2);

        // Predictions now come from a retrained model, not the seed.
        let tickets: Vec<QueryTicket> =
            log.records[..10].iter().map(|r| engine.submit(r.clone())).collect();
        let d = tickets[9].wait().unwrap();
        assert!(d.model_version >= 2);
        assert_ne!(d.predicted_mb().to_bits(), seeded.to_bits());
    }

    #[test]
    fn observe_without_a_retrainer_reports_false() {
        let log = wmp_workloads::tpcc::generate(60, 8).unwrap();
        let model = trained_on(&log, ModelKind::Ridge, 8);
        let engine = Engine::new(PredictorHandle::new(model), WindowPolicy::Count(10));
        assert!(!engine.observe(log.records[0].clone()));
        assert_eq!(engine.stats().observed, 1, "counted though no retrainer took it");
    }

    #[test]
    fn dropping_the_engine_resolves_stranded_tickets_with_an_error() {
        let log = wmp_workloads::tpcc::generate(60, 9).unwrap();
        let model = trained_on(&log, ModelKind::Ridge, 9);
        let engine = Engine::new(PredictorHandle::new(model), WindowPolicy::Count(10));
        let tickets: Vec<QueryTicket> =
            log.records[..7].iter().map(|r| engine.submit(r.clone())).collect();
        drop(engine);
        for t in &tickets {
            assert!(
                matches!(t.wait(), Err(wmp_mlkit::MlError::EmptyInput(_))),
                "no waiter blocks forever on shutdown: {t:?}"
            );
        }
    }

    #[test]
    fn a_windows_tickets_share_one_decision_and_the_next_window_waits() {
        let log = wmp_workloads::tpcc::generate(120, 12).unwrap();
        let model = trained_on(&log, ModelKind::Ridge, 12);
        let engine = Engine::new(PredictorHandle::new(model), WindowPolicy::Count(10));
        let first: Vec<QueryTicket> =
            log.records[..10].iter().map(|r| engine.submit(r.clone())).collect();
        let decision = first[0].try_get().expect("the 10th submission closed the window");
        for t in &first {
            assert_eq!(t.try_get(), Some(decision.clone()), "ticket {} disagrees", t.seq());
        }

        // The next window's tickets stay open until its last member arrives.
        let mut second: Vec<QueryTicket> =
            log.records[10..19].iter().map(|r| engine.submit(r.clone())).collect();
        assert!(second.iter().all(|t| !t.is_resolved()));
        second.push(engine.submit(log.records[19].clone()));
        let next = second[0].wait().unwrap();
        assert_eq!(next.window_id, decision.unwrap().window_id + 1);
        assert!(second.iter().all(|t| t.try_get() == Some(Ok(next))));
    }

    #[test]
    fn draining_an_empty_engine_resolves_nothing() {
        let log = wmp_workloads::tpcc::generate(60, 13).unwrap();
        let model = trained_on(&log, ModelKind::Ridge, 13);
        let engine = Engine::new(PredictorHandle::new(model), WindowPolicy::Count(5));
        assert_eq!(engine.drain(), 0);
        let tickets: Vec<QueryTicket> =
            log.records[..5].iter().map(|r| engine.submit(r.clone())).collect();
        assert_eq!(engine.drain(), 0, "the full window already closed");
        let open = engine.submit(log.records[5].clone());
        assert!(!open.is_resolved(), "a drain of nothing leaves the next window open");
        assert!(tickets.iter().all(QueryTicket::is_resolved));
        let stats = engine.stats();
        assert_eq!((stats.windows, stats.resolved(), stats.pending), (1, 5, 1));
    }

    #[test]
    fn a_window_too_large_to_fill_serves_through_drain() {
        let log = wmp_workloads::tpcc::generate(60, 14).unwrap();
        let model = trained_on(&log, ModelKind::Ridge, 14);
        let engine = Engine::new(PredictorHandle::new(model), WindowPolicy::Count(usize::MAX));
        let tickets: Vec<QueryTicket> =
            log.records[..3].iter().map(|r| engine.submit(r.clone())).collect();
        assert!(tickets.iter().all(|t| !t.is_resolved()));
        assert_eq!(engine.drain(), 3);
        let decision = tickets[0].wait().unwrap();
        assert!(tickets.iter().all(|t| t.try_get() == Some(Ok(decision))));
        assert_eq!(engine.stats().windows, 1);
    }

    #[test]
    fn observability_publishes_serving_metrics_and_quality() {
        let log = wmp_workloads::tpcc::generate(300, 11).unwrap();
        let model = trained_on(&log, ModelKind::Ridge, 11);
        let refs: Vec<&QueryRecord> = log.records.iter().collect();
        let reference = model.template_distribution(&refs).unwrap();
        // The quality window's content, computed independently: each batch
        // of 10 observations re-predicted and summed, in ResourceKind order.
        let mut predicted = vec![Vec::new(); wmp_plan::N_RESOURCES];
        let mut actual = predicted.clone();
        for batch in log.records[..40].chunks(10) {
            let batch_refs: Vec<&QueryRecord> = batch.iter().collect();
            let p = model.predict_resources(&batch_refs).unwrap().as_array();
            let a = batch.iter().map(|r| r.resources).sum::<wmp_plan::ResourceVector>().as_array();
            for i in 0..wmp_plan::N_RESOURCES {
                predicted[i].push(p[i]);
                actual[i].push(a[i]);
            }
        }

        let engine = Engine::new(PredictorHandle::new(model), WindowPolicy::Count(10))
            .with_observability(ObsConfig::default().with_drift_reference(reference));

        for r in &log.records[..40] {
            let _ = engine.submit(r.clone());
        }
        // No retrainer attached: observe still feeds quality + drift.
        for r in &log.records[..40] {
            assert!(!engine.observe(r.clone()));
        }

        let snap = engine.obs_registry().snapshot();
        let get = |name: &str| snap.get(name, &[]).cloned().unwrap_or_else(|| panic!("{name}"));
        assert!(matches!(get("wmp_queries_submitted_total"), wmp_obs::MetricValue::Counter(40)));
        assert!(matches!(get("wmp_queries_served_total"), wmp_obs::MetricValue::Counter(40)));
        assert!(matches!(get("wmp_windows_scored_total"), wmp_obs::MetricValue::Counter(4)));
        assert!(matches!(get("wmp_queries_observed_total"), wmp_obs::MetricValue::Counter(40)));
        assert!(
            matches!(get("wmp_quality_windows_total"), wmp_obs::MetricValue::Counter(4)),
            "40 observations in evaluation batches of 10"
        );
        match get("wmp_window_score_latency_us") {
            wmp_obs::MetricValue::Histogram(h) => assert_eq!(h.count, 4),
            other => panic!("latency should be a histogram, got {other:?}"),
        }
        let gauge = |name: &str, labels: &[(&str, &str)]| {
            snap.get(name, labels).and_then(|m| m.as_gauge()).unwrap_or_else(|| panic!("{name}"))
        };
        let mae_names =
            ["wmp_prediction_mae_mb", "wmp_prediction_mae_cpu_ms", "wmp_prediction_mae_io_pages"];
        for kind in wmp_plan::ResourceKind::ALL {
            let i = kind.index();
            let mae = wmp_mlkit::metrics::mae(&actual[i], &predicted[i]).unwrap();
            let mape = wmp_mlkit::metrics::mape(&actual[i], &predicted[i]).unwrap();
            assert!(mae.is_finite() && mape.is_finite(), "{kind:?}");
            assert_eq!(gauge(mae_names[i], &[]).to_bits(), mae.to_bits(), "{kind:?} MAE");
            let mape_gauge = gauge("wmp_prediction_mape_pct", &[("resource", kind.label())]);
            assert_eq!(mape_gauge.to_bits(), mape.to_bits(), "{kind:?} MAPE");
        }
        match get("wmp_template_drift_score") {
            // 40 live assignments from the training log itself: low drift.
            wmp_obs::MetricValue::Gauge(score) => {
                assert!((0.0..=1.0).contains(&score), "drift in [0,1], got {score}")
            }
            other => panic!("drift should be a gauge, got {other:?}"),
        }
        let text = snap.to_prometheus();
        assert!(text.contains("wmp_queries_submitted_total 40"));
        assert!(text.contains("wmp_window_score_latency_us_count 4"));
        assert!(text.contains("wmp_prediction_mape_pct{resource=\"cpu\"}"), "{text}");
    }

    #[test]
    fn stats_stay_coherent_under_concurrent_load() {
        let log = wmp_workloads::tpcc::generate(400, 13).unwrap();
        let model = trained_on(&log, ModelKind::Ridge, 13);
        let engine = Engine::new(PredictorHandle::new(model), WindowPolicy::Count(7));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let engine = &engine;
                let records = &log.records;
                scope.spawn(move || {
                    for r in records[t * 100..(t + 1) * 100].iter() {
                        let _ = engine.submit(r.clone());
                    }
                });
            }
            // Reader thread: the invariant must hold mid-flight, on every
            // single snapshot, while submissions and scoring race.
            let engine = &engine;
            scope.spawn(move || {
                for _ in 0..2_000 {
                    let snap = engine.stats();
                    assert!(
                        snap.submitted >= snap.resolved() + snap.pending,
                        "coherence violated mid-flight: {snap:?}"
                    );
                }
            });
        });
        engine.drain();
        let snap = engine.stats();
        assert_eq!(snap.submitted, 400);
        assert_eq!(snap.resolved(), 400);
        assert_eq!(snap.pending, 0);
    }

    #[test]
    fn stats_read_the_counters_the_registry_exports() {
        // No `with_observability`: every engine counts into its registry.
        let log = wmp_workloads::tpch::generate(220, 21).unwrap();
        let model = trained_on(&log, ModelKind::Ridge, 21);
        let engine =
            Engine::new(PredictorHandle::new(model), WindowPolicy::Count(10)).with_sql_frontend(
                SqlFrontend::new(wmp_workloads::tpch::catalog(), Box::new(wmp_sql::Ansi)),
            );

        // Two count windows, then a drained partial window of 5.
        for r in &log.records[..25] {
            let _ = engine.submit(r.clone());
        }
        assert_eq!(engine.drain(), 5);
        // A failed window: the features are one column wider than the model's.
        for r in &log.records[..10] {
            let mut wide = r.clone();
            wide.features.push(1.0);
            let _ = engine.submit(wide);
        }
        assert!(engine.submit_sql("DELETE FROM lineitem").is_err());
        let _ = engine.submit_sql(&log.records[0].sql()).expect("generated SQL re-parses");
        engine.install(trained_on(&log, ModelKind::Ridge, 22));
        assert!(!engine.observe(log.records[1].clone()));

        let stats = engine.stats();
        let snap = engine.obs_registry().snapshot();
        let counter = |name: &str| {
            snap.get(name, &[]).and_then(wmp_obs::MetricValue::as_counter).expect(name)
        };
        let latency = snap
            .get("wmp_window_score_latency_us", &[])
            .and_then(wmp_obs::MetricValue::as_histogram)
            .expect("latency histogram");
        let pending = snap
            .get("wmp_pending_queries", &[])
            .and_then(wmp_obs::MetricValue::as_gauge)
            .expect("pending gauge");
        let exported = StatsSnapshot {
            submitted: counter("wmp_queries_submitted_total"),
            served: counter("wmp_queries_served_total"),
            failed: counter("wmp_queries_failed_total"),
            pending: pending as u64,
            windows: counter("wmp_windows_scored_total"),
            swaps: counter("wmp_model_swaps_total"),
            observed: counter("wmp_queries_observed_total"),
            retrains: counter("wmp_retrains_total"),
            retrain_failures: counter("wmp_retrain_failures_total"),
            sql_parse_ok: counter("wmp_sql_parse_ok_total"),
            sql_parse_errors: counter("wmp_sql_parse_errors_total"),
            p50_latency_us: latency.p50,
            p99_latency_us: latency.p99,
        };
        assert_eq!(stats, exported);
        assert_eq!(
            (stats.submitted, stats.served, stats.failed, stats.pending, stats.windows),
            (36, 25, 10, 1, 4)
        );
        assert_eq!(
            (stats.swaps, stats.observed, stats.sql_parse_ok, stats.sql_parse_errors),
            (1, 1, 1, 1)
        );
        assert_eq!(latency.count, stats.windows);
    }

    #[test]
    fn window_policy_count_zero_degrades_to_one() {
        let log = wmp_workloads::tpcc::generate(60, 10).unwrap();
        let model = trained_on(&log, ModelKind::Ridge, 10);
        let engine = Engine::new(PredictorHandle::new(model), WindowPolicy::Count(0));
        let t = engine.submit(log.records[0].clone());
        assert_eq!(t.wait().unwrap().window_len, 1);
    }

    #[test]
    fn submit_sql_serves_a_text_log_end_to_end() {
        let log = wmp_workloads::tpch::generate(220, 5).unwrap();
        let model = trained_on(&log, ModelKind::Ridge, 5);
        let catalog = wmp_workloads::tpch::catalog();
        let engine = Engine::new(PredictorHandle::new(model), WindowPolicy::Count(5))
            .with_observability(ObsConfig::default())
            .with_sql_frontend(SqlFrontend::new(catalog, Box::new(wmp_sql::Ansi)));

        // Replay the first window's queries as rendered SQL text.
        let mut tickets = Vec::new();
        for record in log.records.iter().take(5) {
            tickets.push(engine.submit_sql(&record.sql()).expect("generated SQL re-parses"));
        }
        let decision = tickets[0].wait().unwrap();
        assert_eq!(decision.window_len, 5);
        assert!(decision.predicted_mb() > 0.0);
        assert!(tickets.iter().all(|t| t.is_resolved()));

        // A malformed statement is rejected with a typed error, not a panic,
        // and does not enter the pending window.
        let err = engine.submit_sql("DELETE FROM lineitem").unwrap_err();
        assert_eq!(err.kind(), "unexpected_token");
        assert_eq!(engine.pending_len(), 0);

        let stats = engine.stats();
        assert_eq!(stats.sql_parse_ok, 5);
        assert_eq!(stats.sql_parse_errors, 1);
        assert_eq!(stats.submitted, 5, "a rejected statement is never submitted");
        let text = engine.obs_registry().snapshot().to_prometheus();
        assert!(text.contains("wmp_sql_parse_ok_total 5"));
        assert!(text.contains("wmp_sql_parse_errors_total 1"));
    }

    #[test]
    fn submit_sql_without_a_frontend_is_a_typed_error() {
        let log = wmp_workloads::tpcc::generate(60, 11).unwrap();
        let model = trained_on(&log, ModelKind::Ridge, 11);
        let engine = Engine::new(PredictorHandle::new(model), WindowPolicy::Count(5));
        let err = engine.submit_sql("SELECT l.* FROM lineitem l").unwrap_err();
        assert_eq!(err.kind(), "unsupported");
        assert_eq!(engine.stats().submitted, 0, "nothing was enqueued");
    }
}
