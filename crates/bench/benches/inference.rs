//! Criterion bench backing Fig. 7: per-workload inference latency.
//! LearnedWMP performs one histogram prediction; SingleWMP performs `s`
//! per-query predictions.

use criterion::{criterion_group, criterion_main, Criterion};
use learnedwmp_core::{
    EvalConfig, EvalContext, LearnedWmp, ModelKind, SingleWmp, TemplateSpec, WorkloadPredictor,
};
use wmp_workloads::QueryRecord;

fn bench_inference(c: &mut Criterion) {
    let log = wmp_workloads::job::generate(2_300, 2).expect("job generation");
    let ctx = EvalContext::new(&log, EvalConfig { k_templates: 40, ..Default::default() });
    let workload: Vec<&QueryRecord> = ctx.test[..10].to_vec();
    let mut group = c.benchmark_group("fig7_inference");
    for kind in [ModelKind::Ridge, ModelKind::Xgb] {
        let learned = LearnedWmp::builder()
            .model(kind)
            .templates(TemplateSpec::PlanKMeans { k: 40, seed: 42 })
            .fit_refs(&ctx.train, &log.catalog)
            .expect("training");
        let single = SingleWmp::train(kind, &ctx.train).expect("training");
        let predictors: [(&str, &dyn WorkloadPredictor); 2] =
            [("learnedwmp", &learned), ("singlewmp", &single)];
        for (label, p) in predictors {
            group.bench_function(format!("{label}_{}", kind.label()), |b| {
                b.iter(|| p.predict_resources(&workload).expect("prediction"))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_inference);
criterion_main!(benches);
