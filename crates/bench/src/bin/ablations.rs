//! Ablations of five LearnedWMP design choices, each against the paper's
//! default configuration (fitted once, printed as the first row):
//!
//! 1. label mode — sum vs. max workload labels (paper eq. 1 vs. prose);
//! 2. histogram normalization — counts vs. frequencies;
//! 3. clustering algorithm — k-means vs. DBSCAN templates (§V);
//! 4. feature set — (count, cardinality) pairs vs. counts-only vs.
//!    cardinalities-only;
//! 5. planner realism — greedy join ordering vs. FROM-order joins.
//!
//! All ablations run LearnedWMP-XGB on TPC-DS.

use learnedwmp_core::{
    EvalConfig, EvalContext, HistogramMode, LabelMode, LearnedWmp, ModelKind, TemplateSpec,
};
use wmp_bench::{print_table, Benchmarks, Options};
use wmp_workloads::QueryLog;

/// `(rmse, mape%)` of LearnedWMP-XGB with plan-k-means templates on `log`.
fn eval_xgb(log: &QueryLog, cfg: EvalConfig) -> (f64, f64) {
    let r = EvalContext::new(log, cfg).evaluate_learned(ModelKind::Xgb).expect("evaluation");
    (r.rmse, r.mape())
}

/// Clones a log with half of each feature vector zeroed: `keep_counts` keeps
/// the even (count) slots, otherwise the odd (cardinality) slots survive.
fn mask_features(log: &QueryLog, keep_counts: bool) -> QueryLog {
    let mut masked = log.clone();
    for r in &mut masked.records {
        for (i, v) in r.features.iter_mut().enumerate() {
            let is_count_slot = i % 2 == 0;
            if is_count_slot != keep_counts {
                *v = 0.0;
            }
        }
    }
    masked
}

fn sum_mem(log: &QueryLog) -> f64 {
    log.records.iter().map(|r| r.true_memory_mb()).sum()
}

fn main() {
    let opts = Options::from_args();
    let benches = Benchmarks::generate(opts.experiment_config());
    let (_, log, cfg) =
        benches.datasets().into_iter().find(|(n, _, _)| *n == "TPC-DS").expect("TPC-DS");
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut push = |name: &str, (rmse, mape): (f64, f64)| {
        rows.push(vec![name.to_string(), format!("{rmse:.1}"), format!("{mape:.1}")]);
    };

    let ctx = EvalContext::new(log, cfg.clone());
    let r = ctx.evaluate_learned(ModelKind::Xgb).expect("evaluation");
    push("paper default", (r.rmse, r.mape()));
    // 1. Label mode.
    push(
        "label=max (paper eq. 1)",
        eval_xgb(log, EvalConfig { label_mode: LabelMode::Max, ..cfg.clone() }),
    );
    // 2. Histogram normalization.
    push(
        "hist=frequencies",
        eval_xgb(log, EvalConfig { histogram_mode: HistogramMode::Frequencies, ..cfg.clone() }),
    );
    // 3. Clustering algorithm: DBSCAN is not a plan-k-means spec, so it
    // takes a builder of its own.
    let dbscan = LearnedWmp::builder()
        .model(ModelKind::Xgb)
        .templates(TemplateSpec::Dbscan { eps: 1.0, min_pts: 5 })
        .batch_size(cfg.batch_size)
        .seed(cfg.seed)
        .fit_refs(&ctx.train, &log.catalog)
        .expect("training");
    let r = ctx
        .evaluate_predictor(&dbscan, "LearnedWMP", "XGB".to_string(), 0.0, 0.0)
        .expect("evaluation");
    push("cluster=dbscan (SV comparison)", (r.rmse, r.mape()));
    // 4. Feature set.
    push("features=counts only", eval_xgb(&mask_features(log, true), cfg.clone()));
    push("features=cards only", eval_xgb(&mask_features(log, false), cfg.clone()));
    // 5. Planner realism: regenerate the same logical corpus without greedy
    // join ordering (FROM-order, left-deep).
    let fixed_order = wmp_workloads::tpcds::generate_with_planner(
        log.len(),
        benches.cfg.tpcds.gen_seed,
        wmp_plan::PlannerConfig { greedy_join_ordering: false, ..Default::default() },
    )
    .expect("fixed-order generation");
    push("planner=from-order", eval_xgb(&fixed_order, cfg));

    println!("\nAblations (LearnedWMP-XGB on TPC-DS)");
    print_table(&["configuration", "rmse", "mape%"], &rows);
    println!(
        "  paper default: label=sum, hist=counts, cluster=kmeans, features=count+card, planner=greedy"
    );

    // Context: how much memory the two planner modes actually consume.
    println!(
        "  note: total true memory greedy = {:.0} MB vs from-order = {:.0} MB",
        sum_mem(log),
        sum_mem(&fixed_order)
    );
}
