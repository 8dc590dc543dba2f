//! Fig. 9 — accuracy of LearnedWMP-XGB on JOB under five template-learning
//! methods: query-plan k-means (the paper's method), rule-based,
//! bag-of-words, text-mining, and word embeddings — plus the §V DBSCAN
//! comparison as a bonus row.

use learnedwmp_core::{EvalContext, LearnedWmp, ModelKind, TemplateSpec, TextMode};
use wmp_bench::{print_table, Benchmarks, Options};

fn main() {
    let opts = Options::from_args();
    let benches = Benchmarks::generate(opts.experiment_config());
    let (name, log, cfg) =
        benches.datasets().into_iter().find(|(n, _, _)| *n == "JOB").expect("JOB dataset");
    let k = cfg.k_templates;
    let seed = cfg.seed;
    let ctx = EvalContext::new(log, cfg.clone());
    let specs = [
        TemplateSpec::PlanKMeans { k, seed },
        TemplateSpec::RuleBased,
        TemplateSpec::Text { mode: TextMode::BagOfWords, k, seed },
        TemplateSpec::Text { mode: TextMode::TextMining, k, seed },
        TemplateSpec::Text { mode: TextMode::Embedding, k, seed },
        TemplateSpec::Dbscan { eps: 1.0, min_pts: 5 },
    ];
    println!("\nFig. 9 ({name}): LearnedWMP-XGB accuracy by template-learning method");
    let mut rows = Vec::new();
    for spec in specs {
        let wmp = LearnedWmp::builder()
            .model(ModelKind::Xgb)
            .templates(spec)
            .batch_size(cfg.batch_size)
            .seed(seed)
            .fit_refs(&ctx.train, &log.catalog)
            .expect("training");
        let r = ctx
            .evaluate_predictor(&wmp, "LearnedWMP", "XGB".to_string(), 0.0, 0.0)
            .expect("evaluation");
        rows.push(vec![
            wmp.templates().name().to_string(),
            format!("{}", wmp.templates().n_templates()),
            format!("{:.1}", r.rmse),
            format!("{:.1}", r.mape()),
        ]);
    }
    print_table(&["method", "templates", "rmse", "mape%"], &rows);
    println!("  -> the paper's query-plan method should lead; rule/text methods trail");
}
