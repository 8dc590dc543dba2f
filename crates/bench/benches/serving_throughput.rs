//! Multi-threaded serving throughput: N reader threads predicting workload
//! windows through one shared [`PredictorHandle`] — with and without a
//! writer hot-swapping the model underneath them — plus the full
//! [`Engine`] submit → window → resolve path. Besides the per-iteration
//! criterion timings, the bench prints **aggregate queries/sec** for each
//! concurrency level, the number a capacity planner actually wants, and
//! persists the run as `BENCH_serving_throughput.json` at the repository
//! root (schema: [`wmp_bench::report`]) so throughput is tracked across
//! commits.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use learnedwmp_core::{LearnedWmp, ModelKind, PredictorHandle, TemplateSpec};
use wmp_bench::report::BenchReport;
use wmp_obs::Histogram;
use wmp_serve::{Engine, WindowPolicy};
use wmp_workloads::QueryRecord;

const WINDOW: usize = 10;

fn trained(log: &wmp_workloads::QueryLog, kind: ModelKind, seed: u64) -> LearnedWmp {
    LearnedWmp::builder()
        .model(kind)
        .templates(TemplateSpec::PlanKMeans { k: 20, seed })
        .fit(log)
        .expect("training")
}

/// Runs `readers` threads, each predicting every window once through the
/// handle (snapshot per window, as the engine does), recording per-window
/// latencies into `latency`, and returns aggregate queries scored per
/// second.
fn aggregate_qps(
    handle: &PredictorHandle,
    windows: &[Vec<&QueryRecord>],
    readers: usize,
    latency: &Histogram,
) -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..readers {
            scope.spawn(|| {
                for w in windows {
                    let w0 = Instant::now();
                    black_box(handle.snapshot().predict_resources(w).expect("prediction"));
                    latency.record_duration(w0.elapsed());
                }
            });
        }
    });
    (readers * windows.len() * WINDOW) as f64 / t0.elapsed().as_secs_f64()
}

fn bench_serving_throughput(c: &mut Criterion) {
    let test_mode = std::env::args().any(|a| a == "--test");
    let n_queries = if test_mode { 200 } else { 2_000 };
    let log = wmp_workloads::tpcc::generate(n_queries, 42).expect("generation");
    let model = trained(&log, ModelKind::Xgb, 42);
    let alt = trained(&log, ModelKind::Ridge, 43);
    let handle = PredictorHandle::new(model);
    let refs: Vec<&QueryRecord> = log.records.iter().collect();
    let windows: Vec<Vec<&QueryRecord>> =
        refs.chunks(WINDOW).map(<[&QueryRecord]>::to_vec).collect();

    let mut group = c.benchmark_group("serving_throughput");
    group.bench_function("handle_1_reader_all_windows", |b| {
        b.iter(|| {
            for w in &windows {
                black_box(handle.snapshot().predict_resources(w).expect("prediction"));
            }
        })
    });
    group.bench_function("handle_4_readers_all_windows", |b| {
        b.iter(|| {
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    scope.spawn(|| {
                        for w in &windows {
                            black_box(handle.snapshot().predict_resources(w).expect("prediction"));
                        }
                    });
                }
            });
        })
    });
    group.bench_function("handle_4_readers_under_hot_swap", |b| {
        b.iter(|| {
            // The writer keeps installing codec clones until the last
            // reader finishes — a much higher swap rate than any real
            // retraining loop produces.
            let running = AtomicUsize::new(4);
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    while running.load(Ordering::Acquire) > 0 {
                        handle.swap(alt.codec_clone().expect("codec clone"));
                    }
                });
                for _ in 0..4 {
                    scope.spawn(|| {
                        for w in &windows {
                            black_box(handle.snapshot().predict_resources(w).expect("prediction"));
                        }
                        running.fetch_sub(1, Ordering::Release);
                    });
                }
            });
        })
    });
    group.bench_function("engine_submit_window_resolve", |b| {
        let engine = Engine::new(handle.clone(), WindowPolicy::Count(WINDOW));
        b.iter(|| {
            let tickets: Vec<_> = log.records.iter().map(|r| engine.submit(r.clone())).collect();
            engine.drain();
            for t in &tickets {
                black_box(t.wait().expect("decision"));
            }
        })
    });
    group.finish();

    // Aggregate throughput: the headline queries/sec numbers, persisted as
    // the BENCH_serving_throughput.json trajectory point. Test mode runs
    // the same path on the reduced corpus so CI exercises (and validates)
    // the report format.
    let reader_counts: &[usize] = if test_mode { &[1, 2] } else { &[1, 2, 4, 8] };
    let mut report = BenchReport::new("serving_throughput", test_mode);
    report
        .config_num("n_queries", n_queries as f64)
        .config_num("window", WINDOW as f64)
        .config_str("dataset", "tpcc")
        .config_str("model", "LearnedWMP-XGB");
    for &readers in reader_counts {
        let latency = Histogram::default();
        let qps = aggregate_qps(&handle, &windows, readers, &latency);
        println!(
            "serving_throughput/aggregate {readers} reader(s): {qps:>10.0} queries/sec \
             ({:.0} windows/sec)",
            qps / WINDOW as f64
        );
        report.result(&format!("handle_{readers}_readers"), qps, Some(&latency));
    }
    // The full engine path (submit → window → resolve), single-threaded.
    {
        let engine = Engine::new(handle.clone(), WindowPolicy::Count(WINDOW));
        let latency = Histogram::default();
        let t0 = Instant::now();
        let iterations = if test_mode { 2 } else { 20 };
        for _ in 0..iterations {
            let i0 = Instant::now();
            let tickets: Vec<_> = log.records.iter().map(|r| engine.submit(r.clone())).collect();
            engine.drain();
            for t in &tickets {
                black_box(t.wait().expect("decision"));
            }
            latency.record_duration(i0.elapsed());
        }
        let qps = (iterations * log.records.len()) as f64 / t0.elapsed().as_secs_f64();
        report.result("engine_submit_window_resolve", qps, None);
        println!("serving_throughput/engine: {qps:>10.0} queries/sec");
    }
    report.write();
}

criterion_group!(benches, bench_serving_throughput);
criterion_main!(benches);
