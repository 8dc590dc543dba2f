//! Criterion bench for the batched-inference hot path behind
//! `WorkloadPredictor::predict_resources_many`: the memoized path assigns each
//! distinct record to its template once and reuses assignments across
//! workloads, versus the naive path re-running template assignment for
//! every workload membership. The gap is the serving-side win for a daemon
//! scoring many overlapping batches per tick. The run is persisted as
//! `BENCH_batched_inference.json` at the repository root (schema:
//! [`wmp_bench::report`]).

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use learnedwmp_core::{
    batch_workloads, EvalConfig, EvalContext, LabelMode, LearnedWmp, ModelKind, TemplateSpec,
    WorkloadPredictor,
};
use wmp_bench::report::BenchReport;
use wmp_obs::Histogram;
use wmp_workloads::QueryRecord;

fn bench_batched_inference(c: &mut Criterion) {
    let test_mode = std::env::args().any(|a| a == "--test");
    let n_queries = if test_mode { 400 } else { 2_300 };
    let log = wmp_workloads::job::generate(n_queries, 2).expect("job generation");
    let ctx = EvalContext::new(&log, EvalConfig { k_templates: 40, ..Default::default() });
    let model = LearnedWmp::builder()
        .model(ModelKind::Xgb)
        .templates(TemplateSpec::PlanKMeans { k: 40, seed: 42 })
        .fit_refs(&ctx.train, &log.catalog)
        .expect("training");
    let predictor: &dyn WorkloadPredictor = &model;

    // Many overlapping batches over the same test partition — the serving
    // shape: each record participates in several concurrent workloads.
    let mut workloads = Vec::new();
    for seed in 0..4 {
        workloads.extend(batch_workloads(&ctx.test, 10, seed, LabelMode::Sum));
    }
    let total_queries: usize = workloads.iter().map(|w| w.query_indices.len()).sum();

    let mut group = c.benchmark_group("batched_inference");
    group.bench_function("memoized_trait_path", |b| {
        b.iter(|| predictor.predict_resources_many(&ctx.test, &workloads).expect("prediction"))
    });
    group.bench_function("naive_per_workload", |b| {
        b.iter(|| {
            workloads
                .iter()
                .map(|w| {
                    let queries: Vec<&QueryRecord> =
                        w.query_indices.iter().map(|&i| ctx.test[i]).collect();
                    predictor.predict_resources(&queries).expect("prediction")
                })
                .collect::<Vec<_>>()
        })
    });
    group.finish();

    // Aggregate queries/sec for the trajectory file. Each pass scores every
    // workload membership once; per-pass latencies feed the quantiles.
    let passes = if test_mode { 3 } else { 20 };
    let mut report = BenchReport::new("batched_inference", test_mode);
    report
        .config_num("n_queries", n_queries as f64)
        .config_num("n_workloads", workloads.len() as f64)
        .config_num("queries_per_pass", total_queries as f64)
        .config_str("dataset", "job")
        .config_str("model", "LearnedWMP-XGB");

    let memo_latency = Histogram::default();
    let t0 = Instant::now();
    for _ in 0..passes {
        let p0 = Instant::now();
        black_box(predictor.predict_resources_many(&ctx.test, &workloads).expect("prediction"));
        memo_latency.record_duration(p0.elapsed());
    }
    let memo_qps = (passes * total_queries) as f64 / t0.elapsed().as_secs_f64();
    report.result("memoized_trait_path", memo_qps, Some(&memo_latency));

    let naive_latency = Histogram::default();
    let t0 = Instant::now();
    for _ in 0..passes {
        let p0 = Instant::now();
        for w in &workloads {
            let queries: Vec<&QueryRecord> = w.query_indices.iter().map(|&i| ctx.test[i]).collect();
            black_box(predictor.predict_resources(&queries).expect("prediction"));
        }
        naive_latency.record_duration(p0.elapsed());
    }
    let naive_qps = (passes * total_queries) as f64 / t0.elapsed().as_secs_f64();
    report.result("naive_per_workload", naive_qps, Some(&naive_latency));

    println!(
        "batched_inference: memoized {memo_qps:.0} q/s vs naive {naive_qps:.0} q/s \
         ({:.1}x speedup)",
        memo_qps / naive_qps
    );
    report.write();
}

criterion_group!(benches, bench_batched_inference);
criterion_main!(benches);
