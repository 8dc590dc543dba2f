//! Concurrency suite for the serving layer: ≥4 reader threads predicting
//! through one [`PredictorHandle`] while a writer hot-swaps models, plus
//! engine stats reconciliation under multi-threaded submission.
//!
//! The coherence argument: model A and model B predict *different* values
//! for the same probe workload, and each swap installs a codec round-trip
//! clone (bit-exact). If a reader ever observed a torn model — pieces of A's
//! templates with B's regressor, or a half-installed swap — its prediction
//! would (with overwhelming probability) match neither reference value
//! bit-for-bit, and the snapshot's version would disagree with the value.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use learnedwmp::core::{LearnedWmp, ModelKind, PredictorHandle, TemplateSpec};
use learnedwmp::serve::{Engine, WindowPolicy};
use learnedwmp::workloads::{QueryLog, QueryRecord};

const READERS: usize = 4;
const SWAPS: usize = 40;

fn train(log: &QueryLog, kind: ModelKind, seed: u64) -> LearnedWmp {
    LearnedWmp::builder()
        .model(kind)
        .templates(TemplateSpec::PlanKMeans { k: 8, seed })
        .fit(log)
        .expect("training")
}

#[test]
fn concurrent_readers_never_observe_a_torn_model_during_hot_swap() {
    let log = learnedwmp::workloads::tpcc::generate(500, 11).expect("log");
    let probe: Vec<&QueryRecord> = log.records[..10].iter().collect();

    let a = train(&log, ModelKind::Ridge, 1);
    let b = train(&log, ModelKind::Xgb, 2);
    let pa = a.predict_resources(&probe).expect("a").memory_mb;
    let pb = b.predict_resources(&probe).expect("b").memory_mb;
    assert_ne!(pa.to_bits(), pb.to_bits(), "the two models must be distinguishable");

    // Version parity encodes which model is installed: even = A, odd = B
    // (version 0 is the initial A; swap i installs B, A, B, ... in turn).
    let handle = PredictorHandle::new(a.codec_clone().expect("clone"));
    let writer_done = AtomicBool::new(false);
    let predictions = AtomicU64::new(0);

    std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for _ in 0..READERS {
            readers.push(scope.spawn(|| {
                let mut seen_versions = 0u64;
                while !writer_done.load(Ordering::Acquire) {
                    let snapshot = handle.snapshot();
                    let version = snapshot.version();
                    let got = snapshot.predict_resources(&probe).expect("prediction").memory_mb;
                    let expected = if version.is_multiple_of(2) { pa } else { pb };
                    assert_eq!(
                        got.to_bits(),
                        expected.to_bits(),
                        "snapshot v{version} answered with the wrong model: \
                         got {got}, expected {expected} (pa={pa}, pb={pb})"
                    );
                    seen_versions = seen_versions.max(version);
                    predictions.fetch_add(1, Ordering::Relaxed);
                }
                seen_versions
            }));
        }

        for i in 0..SWAPS {
            // Swap i (1-based version i+1): odd versions carry B, even A.
            let next = if i % 2 == 0 {
                b.codec_clone().expect("clone")
            } else {
                a.codec_clone().expect("clone")
            };
            let outcome = handle.swap(next);
            assert_eq!(outcome.previous.version(), i as u64, "swaps publish in order");
            assert_eq!(outcome.version, i as u64 + 1);
        }
        writer_done.store(true, Ordering::Release);

        let max_seen = readers.into_iter().map(|r| r.join().expect("reader")).max().unwrap();
        assert!(max_seen <= SWAPS as u64, "no reader saw a version that was never published");
    });

    assert_eq!(handle.version(), SWAPS as u64);
    assert!(
        predictions.load(Ordering::Relaxed) >= READERS as u64,
        "every reader predicted at least once"
    );
}

#[test]
fn pinned_snapshots_survive_many_swaps_unchanged() {
    let log = learnedwmp::workloads::tpcc::generate(300, 12).expect("log");
    let probe: Vec<&QueryRecord> = log.records[..10].iter().collect();
    let a = train(&log, ModelKind::Ridge, 3);
    let pa = a.predict_resources(&probe).expect("a").memory_mb;
    let handle = PredictorHandle::new(a);
    let pinned = handle.snapshot();
    let b = train(&log, ModelKind::Dt, 4);
    for _ in 0..10 {
        handle.swap(b.codec_clone().expect("clone"));
    }
    // The pinned snapshot still serves the original model bit-exactly.
    assert_eq!(pinned.version(), 0);
    assert_eq!(pinned.predict_resources(&probe).expect("pinned").memory_mb.to_bits(), pa.to_bits());
    assert_eq!(handle.version(), 10);
}

#[test]
fn engine_stats_reconcile_under_concurrent_submission_and_swapping() {
    const THREADS: usize = 4;
    const PER_THREAD: usize = 200;
    const WINDOW: usize = 10;

    let log = learnedwmp::workloads::tpcc::generate(PER_THREAD, 13).expect("log");
    let model = train(&log, ModelKind::Ridge, 5);
    let alt = train(&log, ModelKind::Xgb, 6);
    let engine = Arc::new(Engine::new(PredictorHandle::new(model), WindowPolicy::Count(WINDOW)));

    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let engine = Arc::clone(&engine);
            let records = &log.records;
            scope.spawn(move || {
                let tickets: Vec<_> = records.iter().map(|r| engine.submit(r.clone())).collect();
                for t in tickets {
                    let d = t.wait().expect("prediction");
                    assert!(d.predicted_mb().is_finite());
                    assert!(d.window_len >= 1 && d.window_len <= WINDOW);
                }
            });
        }
        // A writer hot-swaps while the submitters hammer the engine.
        let engine = Arc::clone(&engine);
        scope.spawn(move || {
            for _ in 0..5 {
                engine.install(alt.codec_clone().expect("clone"));
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        });
    });
    engine.drain();

    let stats = engine.stats();
    let total = (THREADS * PER_THREAD) as u64;
    assert_eq!(stats.submitted, total);
    assert_eq!(stats.served, total, "every ticket resolved successfully");
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.resolved(), stats.submitted, "counters reconcile");
    assert_eq!(stats.windows, total / WINDOW as u64, "800 submissions in windows of 10");
    assert_eq!(stats.swaps, 5);
    assert_eq!(engine.handle().version(), 5);
}

#[test]
fn engine_serves_through_the_facade_reexport() {
    // The serving API is reachable as `learnedwmp::serve` and composes with
    // the scheduler's admission path over an unbounded executor.
    use learnedwmp::plan::ResourceVector;
    use learnedwmp::sched::{FirstFit, Scheduler, Submitted, WorkloadRequest};
    use learnedwmp::sim::Cluster;

    let log = learnedwmp::workloads::tpcc::generate(200, 14).expect("log");
    let model = train(&log, ModelKind::Ridge, 7);
    let engine = Engine::new(PredictorHandle::new(model), WindowPolicy::Count(10));

    let unbounded = ResourceVector::new(f64::INFINITY, f64::INFINITY, f64::INFINITY);
    let mut gate = Scheduler::new(Cluster::uniform(1, unbounded), Box::new(FirstFit));
    for (i, chunk) in log.replay(10).enumerate() {
        let tickets: Vec<_> = chunk.iter().map(|r| engine.submit(r.clone())).collect();
        let decision = tickets[0].wait().expect("decision");
        let actual: f64 = chunk.iter().map(|r| r.true_memory_mb()).sum();
        let request = WorkloadRequest {
            id: i as u64,
            tenant: 0,
            arrival: i as u64,
            duration: 1,
            decision: ResourceVector::memory_only(decision.predicted_mb()),
            actual: ResourceVector::memory_only(actual),
            queries: chunk.len(),
        };
        assert_eq!(gate.submit(request), Submitted::Placed(0));
    }
    assert_eq!(gate.run_to_completion().placed_direct, 20);
    assert_eq!(engine.stats().windows, 20);
}
