//! Ablations of the design choices DESIGN.md §5 calls out:
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
    WorkloadPredictor,
};
use wmp_bench::{print_table, Benchmarks, Options};
use wmp_mlkit::metrics::{mape, rmse};
use wmp_workloads::{QueryLog, QueryRecord};

fn eval_learned_with(
    log: &QueryLog,
    cfg: &EvalConfig,
    label_mode: LabelMode,
    histogram_mode: HistogramMode,
    templates: TemplateSpec,
) -> (f64, f64) {
    let cfg = EvalConfig { label_mode, histogram_mode, ..cfg.clone() };
    let ctx = EvalContext::new(log, cfg.clone());
    let wmp = LearnedWmp::builder()
        .model(ModelKind::Xgb)
        .templates(templates)
        .batch_size(cfg.batch_size)
        .label_mode(label_mode)
        .histogram_mode(histogram_mode)
        .seed(cfg.seed)
        .fit_refs(&ctx.train, &log.catalog)
        .expect("training");
    let preds: Vec<f64> = wmp
        .predict_resources_many(&ctx.test, &ctx.test_workloads)
        .expect("prediction")
        .iter()
        .map(|r| r.memory_mb)
        .collect();
    (rmse(&ctx.y_test, &preds).expect("rmse"), mape(&ctx.y_test, &preds).expect("mape"))
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

fn sum_mem(records: &[&QueryRecord]) -> f64 {
    records.iter().map(|r| r.true_memory_mb()).sum()
}

fn main() {
    let opts = Options::from_args();
    let benches = Benchmarks::generate(opts.experiment_config());
    let (_, log, cfg) =
        benches.datasets().into_iter().find(|(n, _, _)| *n == "TPC-DS").expect("TPC-DS");
    let k = cfg.k_templates;
    let seed = cfg.seed;
    let km = || TemplateSpec::PlanKMeans { k, seed };
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut push = |name: &str, (rmse, mape): (f64, f64)| {
        rows.push(vec![name.to_string(), format!("{rmse:.1}"), format!("{mape:.1}")]);
    };

    // 1. Label mode.
    push(
        "label=sum (paper prose)",
        eval_learned_with(log, &cfg, LabelMode::Sum, HistogramMode::Counts, km()),
    );
    push(
        "label=max (paper eq. 1)",
        eval_learned_with(log, &cfg, LabelMode::Max, HistogramMode::Counts, km()),
    );
    // 2. Histogram normalization.
    push(
        "hist=counts (paper)",
        eval_learned_with(log, &cfg, LabelMode::Sum, HistogramMode::Counts, km()),
    );
    push(
        "hist=frequencies",
        eval_learned_with(log, &cfg, LabelMode::Sum, HistogramMode::Frequencies, km()),
    );
    // 3. Clustering algorithm.
    push(
        "cluster=kmeans (paper)",
        eval_learned_with(log, &cfg, LabelMode::Sum, HistogramMode::Counts, km()),
    );
    push(
        "cluster=dbscan (SV comparison)",
        eval_learned_with(
            log,
            &cfg,
            LabelMode::Sum,
            HistogramMode::Counts,
            TemplateSpec::Dbscan { eps: 1.0, min_pts: 5 },
        ),
    );
    // 4. Feature set.
    let counts_only = mask_features(log, true);
    let cards_only = mask_features(log, false);
    push(
        "features=count+card (paper)",
        eval_learned_with(log, &cfg, LabelMode::Sum, HistogramMode::Counts, km()),
    );
    push(
        "features=counts only",
        eval_learned_with(&counts_only, &cfg, LabelMode::Sum, HistogramMode::Counts, km()),
    );
    push(
        "features=cards only",
        eval_learned_with(&cards_only, &cfg, LabelMode::Sum, HistogramMode::Counts, km()),
    );
    // 5. Planner realism: regenerate the same logical corpus without greedy
    // join ordering (FROM-order, left-deep).
    let fixed_order = wmp_workloads::tpcds::generate_with_planner(
        log.len(),
        benches.cfg.tpcds.gen_seed,
        wmp_plan::PlannerConfig { greedy_join_ordering: false, ..Default::default() },
    )
    .expect("fixed-order generation");
    push(
        "planner=greedy (default)",
        eval_learned_with(log, &cfg, LabelMode::Sum, HistogramMode::Counts, km()),
    );
    push(
        "planner=from-order",
        eval_learned_with(&fixed_order, &cfg, LabelMode::Sum, HistogramMode::Counts, km()),
    );

    println!("\nAblations (LearnedWMP-XGB on TPC-DS)");
    print_table(&["configuration", "rmse", "mape%"], &rows);

    // Context: how much memory the two planner modes actually consume.
    let refs_a: Vec<&QueryRecord> = log.records.iter().collect();
    let refs_b: Vec<&QueryRecord> = fixed_order.records.iter().collect();
    println!(
        "  note: total true memory greedy = {:.0} MB vs from-order = {:.0} MB",
        sum_mem(&refs_a),
        sum_mem(&refs_b)
    );
}
