//! Paper-level invariants: properties §II–§IV assert about the method, tested
//! against the real pipeline rather than units in isolation.

use learnedwmp::core::{
    batch_workloads, EvalConfig, EvalContext, LabelMode, LearnedWmp, ModelKind,
    PlanKMeansTemplates, TemplateLearner, TemplateSpec,
};
use learnedwmp::workloads::QueryRecord;

/// Paper §IV-C: batch size decides the winner. At s = 1 SingleWMP beats
/// LearnedWMP (templates quantize away per-query signal); batching then
/// improves LearnedWMP's relative accuracy (Fig. 11): MAPE at s = 10 must
/// clearly beat MAPE at s = 1.
#[test]
fn batch_size_decides_the_winner() {
    let log = learnedwmp::workloads::tpcds::generate(6_000, 1).expect("log");
    let ctx_at = |s: usize| {
        EvalContext::new(&log, EvalConfig { batch_size: s, k_templates: 60, ..Default::default() })
    };
    let ctx1 = ctx_at(1);
    let m1 = ctx1.evaluate_learned(ModelKind::Xgb).expect("learned").1.mape();
    let single = ctx1.evaluate_single(ModelKind::Xgb).expect("single").mape();
    assert!(single < m1, "single {single:.1}% must beat learned {m1:.1}% at s=1");
    let m10 = ctx_at(10).evaluate_learned(ModelKind::Xgb).expect("learned").1.mape();
    assert!(m10 < m1 * 0.8, "MAPE s=10 ({m10:.1}) must beat s=1 ({m1:.1})");
}

/// Paper §II: the workload histogram is a distribution — it sums to the
/// batch size regardless of template count or workload composition.
#[test]
fn histograms_always_sum_to_batch_size() {
    use learnedwmp::core::{build_histogram, HistogramMode};
    let log = learnedwmp::workloads::job::generate(600, 2).expect("log");
    let refs: Vec<&QueryRecord> = log.records.iter().collect();
    for k in [5, 20, 50] {
        let mut learner = PlanKMeansTemplates::new(k, 42);
        learner.fit(&refs, &log.catalog).expect("fit");
        for chunk in refs.chunks(10).take(8) {
            let assigns: Vec<usize> =
                chunk.iter().map(|r| learner.assign(r).expect("assign")).collect();
            let h = build_histogram(&assigns, learner.n_templates(), HistogramMode::Counts)
                .expect("histogram");
            assert_eq!(h.len(), learner.n_templates());
            assert_eq!(h.iter().sum::<f64>() as usize, chunk.len());
        }
    }
}

/// Paper §III-B1 intuition: queries grouped into the same template have more
/// similar memory than the corpus at large (within-template variance is
/// smaller than the global variance).
#[test]
fn templates_group_queries_of_similar_memory() {
    let log = learnedwmp::workloads::tpcds::generate(3_000, 1).expect("log");
    let refs: Vec<&QueryRecord> = log.records.iter().collect();
    let mut learner = PlanKMeansTemplates::new(60, 42);
    learner.fit(&refs, &log.catalog).expect("fit");
    let global_mean: f64 = refs.iter().map(|r| r.true_memory_mb()).sum::<f64>() / refs.len() as f64;
    let global_var: f64 =
        refs.iter().map(|r| (r.true_memory_mb() - global_mean).powi(2)).sum::<f64>()
            / refs.len() as f64;
    let mut groups: Vec<Vec<f64>> = vec![Vec::new(); learner.n_templates()];
    for r in &refs {
        groups[learner.assign(r).expect("assign")].push(r.true_memory_mb());
    }
    let mut within = 0.0;
    for g in groups.iter().filter(|g| !g.is_empty()) {
        let m = g.iter().sum::<f64>() / g.len() as f64;
        within += g.iter().map(|v| (v - m) * (v - m)).sum::<f64>();
    }
    within /= refs.len() as f64;
    assert!(
        within < global_var * 0.5,
        "within-template variance {within:.0} vs global {global_var:.0}"
    );
}

/// The label mode matters: sum labels are at least max labels, strictly
/// larger for any workload with two nonzero-memory queries.
#[test]
fn sum_labels_dominate_max_labels() {
    let log = learnedwmp::workloads::tpcc::generate(400, 3).expect("log");
    let refs: Vec<&QueryRecord> = log.records.iter().collect();
    let sums = batch_workloads(&refs, 10, 1, LabelMode::Sum);
    let maxes = batch_workloads(&refs, 10, 1, LabelMode::Max);
    for (s, m) in sums.iter().zip(&maxes) {
        assert_eq!(s.query_indices, m.query_indices, "same partition, different labels");
        assert!(s.y_mb() > m.y_mb(), "sum {} must exceed max {}", s.y_mb(), m.y_mb());
    }
}

/// Fig. 8's Ridge exception: the persisted LearnedWMP-Ridge model (k
/// coefficients per head plus its k template centroids over the plan
/// features) is larger than the SingleWMP-Ridge model (plan-feature
/// coefficients per head).
#[test]
fn ridge_size_exception_holds() {
    let log = learnedwmp::workloads::tpcc::generate(1_200, 3).expect("log");
    let ctx = EvalContext::new(
        &log,
        EvalConfig { k_templates: 40, ..Default::default() }, // 40 × 20 centroid coordinates
    );
    let (_, learned) = ctx.evaluate_learned(ModelKind::Ridge).expect("learned");
    let single = ctx.evaluate_single(ModelKind::Ridge).expect("single");
    assert!(
        learned.model_kb > single.model_kb,
        "LearnedWMP-Ridge ({}) must exceed SingleWMP-Ridge ({})",
        learned.model_kb,
        single.model_kb
    );
}

/// LearnedWMP inference issues one model call per workload instead of `s`:
/// the architectural mechanism behind the paper's Fig. 7 acceleration.
#[test]
fn learned_inference_makes_one_call_per_workload() {
    // Verified behaviorally: predictions depend only on the histogram, so
    // permuting queries inside a workload cannot change the prediction.
    let log = learnedwmp::workloads::tpcc::generate(600, 9).expect("log");
    let refs: Vec<&QueryRecord> = log.records.iter().collect();
    let model = LearnedWmp::builder()
        .model(ModelKind::Dt)
        .templates(TemplateSpec::PlanKMeans { k: 8, seed: 42 })
        .fit(&log)
        .expect("training");
    let workload: Vec<&QueryRecord> = refs[..10].to_vec();
    let mut reversed = workload.clone();
    reversed.reverse();
    assert_eq!(
        model.predict_resources(&workload).expect("fwd"),
        model.predict_resources(&reversed).expect("rev"),
        "prediction is permutation-invariant (pure distribution regression)"
    );
}
