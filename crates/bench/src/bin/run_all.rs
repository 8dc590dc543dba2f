//! The paper's evaluation (§IV) from one run. It generates each dataset
//! once, runs the DBMS baseline and every learner under SingleWMP and
//! LearnedWMP on it, then prints from those reports:
//!
//! - Fig. 4: RMSE and MAPE, and the best LearnedWMP model's error reduction
//!   vs. the DBMS baseline;
//! - Fig. 5: residual distributions (violin-plot summaries of `y − ŷ`);
//! - Fig. 6: training time. The DBMS baseline has no training cost and is
//!   excluded, as in the paper;
//! - Fig. 7: inference time per workload. LearnedWMP makes one
//!   histogram-level prediction where SingleWMP makes `s` per-query ones;
//! - Fig. 8: model size. Ridge is the paper's documented exception (k
//!   histogram features > plan features);
//! - each LearnedWMP model's per-resource accuracy;
//! - the paper's headline claims: error reduction vs. DBMS,
//!   training/inference speedups and model-size ratios.
//!
//! Then, all with LearnedWMP-XGB:
//!
//! - Fig. 9 (JOB): template-learning methods — the paper's query-plan
//!   k-means, rule-based, three text-based ones, and §V's DBSCAN;
//! - Fig. 10 (every dataset): MAPE vs. the number of templates k. The paper
//!   sees TPC-DS improve toward k = 100, JOB and TPC-C peak at k = 20–40;
//! - Fig. 11 (TPC-DS): MAPE vs. the batch size s. It falls steeply, then
//!   flattens; at s = 1 SingleWMP-XGB wins (the paper's closing remark);
//! - ablations (TPC-DS): label mode, clustering, feature set and planner,
//!   one at a time against the paper default;
//! - an extension (TPC-DS, paper §I future work): variable-length workloads.
//!
//! A configuration equal to a dataset's own protocol is not fitted again:
//! its row is that dataset's Fig. 4 LearnedWMP-XGB report.

use learnedwmp_core::{
    batch_workloads_variable, EvalConfig, EvalContext, HistogramMode, LabelMode, LearnedWmp,
    LearnedWmpBuilder, ModelKind, ModelReport, PlanKMeansTemplates, TemplateSpec, TextMode,
    WorkloadPredictor,
};
use wmp_bench::{print_table, Benchmarks, Options};
use wmp_mlkit::metrics::{mape, rmse};
use wmp_workloads::QueryLog;

fn dbms(reports: &[ModelReport]) -> &ModelReport {
    reports.iter().find(|r| r.approach == "SingleWMP-DBMS").expect("baseline")
}

fn best_learned(reports: &[ModelReport]) -> &ModelReport {
    reports
        .iter()
        .filter(|r| r.approach == "LearnedWMP")
        .min_by(|a, b| a.rmse.partial_cmp(&b.rmse).expect("finite"))
        .expect("learned rows")
}

fn train_speedup(single: &ModelReport, learned: &ModelReport) -> f64 {
    single.train_ms / learned.train_ms.max(1e-9)
}

fn infer_speedup(single: &ModelReport, learned: &ModelReport) -> f64 {
    single.infer_us_per_workload / learned.infer_us_per_workload.max(1e-9)
}

fn size_ratio(single: &ModelReport, learned: &ModelReport) -> f64 {
    learned.model_kb / single.model_kb.max(1e-9)
}

/// The `(label, SingleWMP, LearnedWMP)` report pair of every learner.
fn pairs(reports: &[ModelReport]) -> impl Iterator<Item = (&str, &ModelReport, &ModelReport)> {
    ModelKind::ALL.into_iter().map(move |kind| {
        let pick = move |approach: &str| {
            reports
                .iter()
                .find(|r| r.approach == approach && r.model == kind.label())
                .expect("report")
        };
        (kind.label(), pick("SingleWMP"), pick("LearnedWMP"))
    })
}

/// One row per learner: its label, then `cells(single, learned)`.
fn per_kind_rows(
    reports: &[ModelReport],
    cells: impl Fn(&ModelReport, &ModelReport) -> Vec<String>,
) -> Vec<Vec<String>> {
    pairs(reports)
        .map(|(label, single, learned)| {
            let mut row = vec![label.to_string()];
            row.extend(cells(single, learned));
            row
        })
        .collect()
}

fn print_figures(name: &str, reports: &[ModelReport]) {
    println!("\nFig. 4 ({name}): Root Mean Squared Error (MB, smaller is better)");
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| vec![r.tag(), format!("{:.1}", r.rmse), format!("{:.1}", r.mape())])
        .collect();
    print_table(&["model", "rmse", "mape%"], &rows);
    let (dbms, best) = (dbms(reports), best_learned(reports));
    println!(
        "  -> best LearnedWMP ({}) reduces DBMS estimation error by {:.1}%",
        best.tag(),
        (1.0 - best.rmse / dbms.rmse) * 100.0
    );

    println!("\nFig. 5 ({name}): residual distributions (MB; residual = actual - predicted)");
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            let s = &r.residual_summary;
            vec![
                r.tag(),
                format!("{:.1}", s.min),
                format!("{:.1}", s.q1),
                format!("{:.1}", s.median),
                format!("{:.1}", s.q3),
                format!("{:.1}", s.max),
                format!("{:.1}", s.iqr()),
                format!("{:.1}", s.mean),
                format!("{:.2}", s.skewness),
            ]
        })
        .collect();
    print_table(&["model", "min", "q1", "median", "q3", "max", "iqr", "mean", "skew"], &rows);

    println!("\nFig. 6 ({name}): training time (ms)");
    let rows = per_kind_rows(reports, |single, learned| {
        vec![
            format!("{:.1}", single.train_ms),
            format!("{:.1}", learned.train_ms),
            format!("{:.1}", learned.total_train_ms),
            format!("{:.2}x", train_speedup(single, learned)),
        ]
    });
    print_table(&["model", "SingleWMP", "LearnedWMP", "LearnedWMP(+templates)", "speedup"], &rows);

    println!("\nFig. 7 ({name}): inference time per workload (us)");
    let rows = per_kind_rows(reports, |single, learned| {
        vec![
            format!("{:.1}", single.infer_us_per_workload),
            format!("{:.1}", learned.infer_us_per_workload),
            format!("{:.2}x", infer_speedup(single, learned)),
        ]
    });
    print_table(&["model", "SingleWMP", "LearnedWMP", "speedup"], &rows);
    println!("  SingleWMP-DBMS: {:.1} us per workload", dbms.infer_us_per_workload);

    println!("\nFig. 8 ({name}): model size (kB)");
    let rows = per_kind_rows(reports, |single, learned| {
        vec![
            format!("{:.1}", single.model_kb),
            format!("{:.1}", learned.model_kb),
            format!("{:+.0}%", (size_ratio(single, learned) - 1.0) * 100.0),
        ]
    });
    print_table(&["model", "SingleWMP", "LearnedWMP", "learned vs single"], &rows);

    println!("\n  per-resource accuracy:");
    for r in reports.iter().filter(|r| r.approach == "LearnedWMP") {
        println!("  {:<16} {}", r.tag(), r.resource_summary());
    }
}

/// One dataset's evaluation context, its Fig. 4–8 reports and Fig. 4's
/// fitted LearnedWMP-XGB model.
struct Dataset<'a> {
    name: &'static str,
    ctx: EvalContext<'a>,
    reports: Vec<ModelReport>,
    xgb_model: LearnedWmp,
}

/// Every field of `c`; destructured, so a new protocol field must be added
/// here before [`Dataset::xgb`] can compare it.
fn protocol(c: &EvalConfig) -> (usize, usize, u64, LabelMode, HistogramMode) {
    let EvalConfig { batch_size, k_templates, seed, label_mode, histogram_mode } = *c;
    (batch_size, k_templates, seed, label_mode, histogram_mode)
}

impl Dataset<'_> {
    /// LearnedWMP-XGB under `config` on this dataset's log: the Fig. 4
    /// report when `config` is the dataset's own protocol, else a fresh
    /// evaluation.
    fn xgb(&self, config: EvalConfig) -> ModelReport {
        if protocol(&config) == protocol(&self.ctx.config) {
            let learned = self.reports.iter().find(|r| r.tag() == "LearnedWMP-XGB");
            return learned.expect("Fig. 4 evaluates LearnedWMP-XGB").clone();
        }
        xgb_on(self.ctx.log, config)
    }
}

/// LearnedWMP-XGB with plan-k-means templates, evaluated on `log`.
fn xgb_on(log: &QueryLog, config: EvalConfig) -> ModelReport {
    EvalContext::new(log, config).evaluate_learned(ModelKind::Xgb).expect("evaluation").1
}

/// Names the metrics a verdict holds on, given whether it holds on rmse
/// and on mape%.
fn better_on(rmse: bool, mape: bool) -> &'static str {
    match (rmse, mape) {
        (true, true) => "both",
        (true, false) => "rmse only",
        (false, true) => "mape% only",
        (false, false) => "neither",
    }
}

/// A LearnedWMP-XGB builder with `spec` templates and `config`'s batch
/// size and seed.
fn xgb_builder(config: &EvalConfig, spec: TemplateSpec) -> LearnedWmpBuilder {
    LearnedWmp::builder()
        .model(ModelKind::Xgb)
        .templates(spec)
        .batch_size(config.batch_size)
        .seed(config.seed)
}

/// LearnedWMP-XGB fitted with `spec` templates on `ctx`'s training split,
/// and its report on `ctx`'s test workloads.
fn fit_xgb(ctx: &EvalContext, spec: TemplateSpec) -> (LearnedWmp, ModelReport) {
    let wmp =
        xgb_builder(&ctx.config, spec).fit_refs(&ctx.train, &ctx.log.catalog).expect("training");
    let r = ctx
        .evaluate_predictor(&wmp, "LearnedWMP", "XGB".to_string(), 0.0, 0.0)
        .expect("evaluation");
    (wmp, r)
}

fn print_fig9(d: &Dataset) {
    let (ctx, k, seed) = (&d.ctx, d.ctx.config.k_templates, d.ctx.config.seed);
    println!("\nFig. 9 ({}): LearnedWMP-XGB accuracy by template-learning method", d.name);
    let row = |method: &str, templates: usize, r: &ModelReport| {
        vec![
            method.to_string(),
            format!("{templates}"),
            format!("{:.1}", r.rmse),
            format!("{:.1}", r.mape()),
        ]
    };
    // The paper's method is Fig. 4's model; k-means caps k at the number of
    // training plans.
    let plan = TemplateSpec::PlanKMeans { k, seed };
    let mut results =
        vec![(plan.build().name().to_string(), k.min(ctx.train.len()), d.xgb(ctx.config.clone()))];
    for spec in [
        TemplateSpec::RuleBased,
        TemplateSpec::Text { mode: TextMode::BagOfWords, k, seed },
        TemplateSpec::Text { mode: TextMode::TextMining, k, seed },
        TemplateSpec::Text { mode: TextMode::Embedding, k, seed },
        TemplateSpec::Dbscan { eps: 1.0, min_pts: 5 },
    ] {
        let (wmp, r) = fit_xgb(ctx, spec);
        results.push((wmp.templates().name().to_string(), wmp.templates().n_templates(), r));
    }
    let rows: Vec<Vec<String>> = results.iter().map(|(m, t, r)| row(m, *t, r)).collect();
    print_table(&["method", "templates", "rmse", "mape%"], &rows);
    let lowest = |metric: fn(&ModelReport) -> f64| {
        let (method, _, r) = results
            .iter()
            .min_by(|a, b| metric(&a.2).total_cmp(&metric(&b.2)))
            .expect("six methods");
        format!("{method} ({:.1})", metric(r))
    };
    let (plan_name, _, plan_report) = &results[0];
    let rivals = results[1..].iter().map(|(_, _, r)| r);
    let beats_all =
        |metric: fn(&ModelReport) -> f64| rivals.clone().all(|r| metric(plan_report) < metric(r));
    println!(
        "  -> lowest rmse: {}; lowest mape%: {}; the paper's method ({plan_name}) leads on {}",
        lowest(|r| r.rmse),
        lowest(ModelReport::mape),
        better_on(beats_all(|r| r.rmse), beats_all(ModelReport::mape)),
    );
}

fn print_fig10(d: &Dataset) {
    println!("\nFig. 10 ({}): MAPE (%) of LearnedWMP-XGB vs number of templates", d.name);
    let rows: Vec<Vec<String>> = (10..=100)
        .step_by(10)
        .map(|k| {
            let r = d.xgb(EvalConfig { k_templates: k, ..d.ctx.config.clone() });
            vec![format!("{k}"), format!("{:.1}", r.mape())]
        })
        .collect();
    print_table(&["k", "mape%"], &rows);
}

fn print_fig11(d: &Dataset) {
    println!("\nFig. 11 ({}): MAPE (%) of LearnedWMP-XGB vs batch size s", d.name);
    let at = |s: usize| EvalConfig { batch_size: s, ..d.ctx.config.clone() };
    let mapes: Vec<(usize, f64)> =
        [1, 2, 3, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50].map(|s| (s, d.xgb(at(s)).mape())).into();
    let rows: Vec<Vec<String>> =
        mapes.iter().map(|(s, mape)| vec![format!("{s}"), format!("{mape:.1}")]).collect();
    print_table(&["s", "mape%"], &rows);
    // The paper's s = 1 reference (the sweep's first row): SingleWMP beats
    // LearnedWMP on single queries because templates quantize away
    // per-query signal.
    let single = EvalContext::new(d.ctx.log, at(1)).evaluate_single(ModelKind::Xgb);
    println!(
        "  -> at s=1: LearnedWMP-XGB MAPE {:.1}% vs SingleWMP-XGB MAPE {:.1}% (single-query models win at s=1)",
        mapes[0].1,
        single.expect("single").mape()
    );
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

fn print_ablations(d: &Dataset, gen_seed: u64) {
    let (log, cfg) = (d.ctx.log, &d.ctx.config);
    let row = |name: &str, r: ModelReport| {
        vec![name.to_string(), format!("{:.1}", r.rmse), format!("{:.1}", r.mape())]
    };
    // Planner realism: regenerate the same logical corpus without greedy
    // join ordering (FROM-order, left-deep).
    let fixed_order = wmp_workloads::tpcds::generate_with_planner(
        log.len(),
        gen_seed,
        wmp_plan::PlannerConfig { greedy_join_ordering: false, ..Default::default() },
    )
    .expect("fixed-order generation");
    let rows = vec![
        row("paper default", d.xgb(cfg.clone())),
        row(
            "label=max (paper eq. 1)",
            d.xgb(EvalConfig { label_mode: LabelMode::Max, ..cfg.clone() }),
        ),
        // DBSCAN is not a plan-k-means spec, so it takes a builder of its own.
        row(
            "cluster=dbscan (SV comparison)",
            fit_xgb(&d.ctx, TemplateSpec::Dbscan { eps: 1.0, min_pts: 5 }).1,
        ),
        row("features=counts only", xgb_on(&mask_features(log, true), cfg.clone())),
        row("features=cards only", xgb_on(&mask_features(log, false), cfg.clone())),
        row("planner=from-order", xgb_on(&fixed_order, cfg.clone())),
    ];

    println!("\nAblations (LearnedWMP-XGB on {})", d.name);
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

fn print_extension(d: &Dataset) {
    let (ctx, cfg) = (&d.ctx, &d.ctx.config);
    // Variable-size test batches shared by every model.
    let test_ws = batch_workloads_variable(&ctx.test, 5, 15, 99, LabelMode::Sum);
    let y: Vec<f64> = test_ws.iter().map(|w| w.y_mb()).collect();
    let train_ws = batch_workloads_variable(&ctx.train, 5, 15, cfg.seed, LabelMode::Sum);
    let builder = |k: usize| xgb_builder(cfg, TemplateSpec::PlanKMeans { k, seed: cfg.seed });
    let (train, catalog) = (&ctx.train, &ctx.log.catalog);
    let score = |m: &dyn WorkloadPredictor| {
        let preds = m.predict_resources_many(&ctx.test, &test_ws).expect("prediction");
        let preds: Vec<f64> = preds.iter().map(|r| r.memory_mb).collect();
        (rmse(&y, &preds).expect("rmse"), mape(&y, &preds).expect("mape"))
    };

    // Fixed-length training (the paper's design, Fig. 4's model), then
    // variable-length training (the extension) with count and frequency
    // histograms: with a fixed s every frequency histogram is a scaled
    // count histogram, so only variable sizes can tell the two apart.
    let variable =
        builder(cfg.k_templates).fit_workloads(train, catalog, train_ws.clone()).expect("variable");
    let frequencies = builder(cfg.k_templates)
        .histogram_mode(HistogramMode::Frequencies)
        .fit_workloads(train, catalog, train_ws.clone())
        .expect("variable frequencies");
    // Elbow-selected k as a last point.
    let auto_k =
        PlanKMeansTemplates::auto_k(train, &[10, 20, 40, 60, 80, 100], cfg.seed).expect("auto k");
    let auto = builder(auto_k).fit_workloads(train, catalog, train_ws).expect("auto-k training");
    let (fixed, variable) = (score(&d.xgb_model), score(&variable));

    println!(
        "\nExtension ({}): variable-length workloads (test batches of 5..=15 queries)",
        d.name
    );
    let rows: Vec<Vec<String>> = [
        ("fixed s=10 (paper)".to_string(), fixed),
        ("variable s in [5,15]".to_string(), variable),
        ("variable s in [5,15], hist=frequencies".to_string(), score(&frequencies)),
        (format!("variable + elbow k={auto_k}"), score(&auto)),
    ]
    .into_iter()
    .map(|(regime, (rmse, mape))| vec![regime, format!("{rmse:.1}"), format!("{mape:.1}")])
    .collect();
    print_table(&["training regime", "rmse", "mape%"], &rows);
    println!(
        "  -> \"variable s in [5,15]\" beats \"fixed s=10 (paper)\" on {} (rmse {:.1} vs {:.1}, mape% {:.1} vs {:.1})",
        better_on(variable.0 < fixed.0, variable.1 < fixed.1),
        variable.0,
        fixed.0,
        variable.1,
        fixed.1
    );
}

fn main() {
    let opts = Options::from_args();
    let cfg = opts.experiment_config();
    println!(
        "Generating benchmarks (scale {:.2}): TPC-DS {} / JOB {} / TPC-C {} queries",
        opts.scale, cfg.tpcds.n_queries, cfg.job.n_queries, cfg.tpcc.n_queries
    );
    let benches = Benchmarks::generate(cfg);
    let mut datasets = Vec::new();
    for (name, log, cfg) in benches.datasets() {
        let ctx = EvalContext::new(log, cfg);
        println!(
            "\n##### {name}: {} queries, {} train / {} test, {} test workloads, mean workload y = {:.1} MB",
            log.len(),
            ctx.train.len(),
            ctx.test.len(),
            ctx.test_workloads.len(),
            ctx.y_test_resources.iter().map(|y| y.memory_mb).sum::<f64>()
                / ctx.y_test_resources.len().max(1) as f64
        );
        let (reports, learned) = ctx.evaluate_all(&ModelKind::ALL).expect("evaluation");
        print_figures(name, &reports);
        let xgb_model = learned
            .into_iter()
            .find(|m| m.config().model == ModelKind::Xgb)
            .expect("Fig. 4 fits LearnedWMP-XGB");
        datasets.push(Dataset { name, ctx, reports, xgb_model });
    }

    println!("\n##### Headline claims");
    for Dataset { name, reports, .. } in &datasets {
        let (dbms, best) = (dbms(reports), best_learned(reports));
        let range = |ratio: fn(&ModelReport, &ModelReport) -> f64| {
            let v: Vec<f64> = pairs(reports).map(|(_, s, l)| ratio(s, l)).collect();
            let min = v.iter().fold(f64::INFINITY, |a, &b| a.min(b));
            (min, v.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b)))
        };
        let (train, infer, size) = (range(train_speedup), range(infer_speedup), range(size_ratio));
        println!(
            "{name}: error reduction vs DBMS {:.1}% ({}) | train speedup {:.1}x..{:.1}x | infer speedup {:.1}x..{:.1}x | learned/single size {:.2}..{:.2}",
            (1.0 - best.rmse / dbms.rmse) * 100.0,
            best.tag(),
            train.0,
            train.1,
            infer.0,
            infer.1,
            size.0,
            size.1,
        );
    }

    let [tpcds, job, _] = &datasets[..] else { unreachable!("three datasets") };
    print_fig9(job);
    datasets.iter().for_each(print_fig10);
    print_fig11(tpcds);
    print_ablations(tpcds, benches.cfg.tpcds.gen_seed);
    print_extension(tpcds);
}
