//! Extension experiment (paper §I future work): variable-length workloads.
//!
//! Trains LearnedWMP-XGB on workloads whose sizes vary uniformly in
//! [5, 15] and evaluates on variable-size batches, comparing against the
//! fixed-s=10 pipeline and against auto-selected k (elbow method).

use learnedwmp_core::{
    batch_workloads_variable, EvalContext, LabelMode, LearnedWmp, ModelKind, PlanKMeansTemplates,
    TemplateSpec, WorkloadPredictor,
};
use wmp_bench::{print_table, Benchmarks, Options};
use wmp_mlkit::metrics::{mape, rmse};

fn main() {
    let opts = Options::from_args();
    let benches = Benchmarks::generate(opts.experiment_config());
    let (name, log, cfg) =
        benches.datasets().into_iter().find(|(n, _, _)| *n == "TPC-DS").expect("TPC-DS dataset");
    let ctx = EvalContext::new(log, cfg.clone());

    // Variable-size test batches shared by both models.
    let test_ws = batch_workloads_variable(&ctx.test, 5, 15, 99, LabelMode::Sum);
    let y: Vec<f64> = test_ws.iter().map(|w| w.y_mb()).collect();

    let builder = |k: usize| {
        LearnedWmp::builder()
            .model(ModelKind::Xgb)
            .templates(TemplateSpec::PlanKMeans { k, seed: cfg.seed })
            .batch_size(cfg.batch_size)
            .seed(cfg.seed)
    };

    // Fixed-length training (the paper's design).
    let fixed = builder(cfg.k_templates).fit_refs(&ctx.train, &log.catalog).expect("fixed");

    // Variable-length training (the extension).
    let train_ws = batch_workloads_variable(&ctx.train, 5, 15, cfg.seed, LabelMode::Sum);
    let variable = builder(cfg.k_templates)
        .fit_workloads(&ctx.train, &log.catalog, train_ws)
        .expect("variable training");

    // Elbow-selected k as a third point.
    let auto_k = PlanKMeansTemplates::auto_k(&ctx.train, &[10, 20, 40, 60, 80, 100], cfg.seed)
        .expect("auto k");
    let auto = builder(auto_k)
        .fit_workloads(
            &ctx.train,
            &log.catalog,
            batch_workloads_variable(&ctx.train, 5, 15, cfg.seed, LabelMode::Sum),
        )
        .expect("auto-k training");

    let eval = |m: &dyn WorkloadPredictor| -> (f64, f64) {
        let preds: Vec<f64> = m
            .predict_resources_many(&ctx.test, &test_ws)
            .expect("prediction")
            .iter()
            .map(|r| r.memory_mb)
            .collect();
        (rmse(&y, &preds).expect("rmse"), mape(&y, &preds).expect("mape"))
    };
    let (fr, fm) = eval(&fixed);
    let (vr, vm) = eval(&variable);
    let (ar, am) = eval(&auto);
    println!("\nExtension ({name}): variable-length workloads (test batches of 5..=15 queries)");
    print_table(
        &["training regime", "rmse", "mape%"],
        &[
            vec!["fixed s=10 (paper)".into(), format!("{fr:.1}"), format!("{fm:.1}")],
            vec!["variable s in [5,15]".into(), format!("{vr:.1}"), format!("{vm:.1}")],
            vec![format!("variable + elbow k={auto_k}"), format!("{ar:.1}"), format!("{am:.1}")],
        ],
    );
    println!("  -> training on variable batches should track variable test batches better");
}
