//! Runs the complete Fig. 4–8 measurement sweep once per dataset and prints
//! every table, each LearnedWMP model's per-resource accuracy, and the
//! paper's headline claims (error reduction vs. DBMS, training/inference
//! speedups, model-size ratios). Sensitivity sweeps
//! (Figs. 9–11) and ablations have their own binaries.

use learnedwmp_core::{EvalContext, ModelKind, ModelReport};
use wmp_bench::{print_table, Benchmarks, Options};

fn main() {
    let opts = Options::from_args();
    let cfg = opts.experiment_config();
    println!(
        "Generating benchmarks (scale {:.2}): TPC-DS {} / JOB {} / TPC-C {} queries",
        opts.scale, cfg.tpcds.n_queries, cfg.job.n_queries, cfg.tpcc.n_queries
    );
    let benches = Benchmarks::generate(cfg);
    let mut all: Vec<(&'static str, Vec<ModelReport>)> = Vec::new();
    for (name, log, cfg) in benches.datasets() {
        let ctx = EvalContext::new(log, cfg);
        println!(
            "\n##### {name}: {} queries, {} train / {} test, {} test workloads, mean workload y = {:.1} MB",
            log.len(),
            ctx.train.len(),
            ctx.test.len(),
            ctx.test_workloads.len(),
            ctx.y_test.iter().sum::<f64>() / ctx.y_test.len().max(1) as f64
        );
        let reports = ctx.evaluate_all(&ModelKind::ALL).expect("evaluation");
        let rows: Vec<Vec<String>> = reports
            .iter()
            .map(|r| {
                let s = &r.residual_summary;
                vec![
                    r.tag(),
                    format!("{:.1}", r.rmse),
                    format!("{:.1}", r.mape()),
                    format!("{:.1}", s.median),
                    format!("{:.1}", s.iqr()),
                    format!("{:.1}", r.train_ms),
                    format!("{:.1}", r.infer_us_per_workload),
                    format!("{:.1}", r.model_kb),
                ]
            })
            .collect();
        print_table(
            &["model", "rmse", "mape%", "res_med", "res_iqr", "train_ms", "infer_us", "size_kb"],
            &rows,
        );
        println!("  per-resource accuracy:");
        for r in reports.iter().filter(|r| r.approach == "LearnedWMP") {
            println!("  {:<16} {}", r.tag(), r.resource_summary());
        }
        all.push((name, reports));
    }

    println!("\n##### Headline claims");
    for (name, reports) in &all {
        let dbms = reports.iter().find(|r| r.approach == "SingleWMP-DBMS").expect("dbms");
        let best_learned = reports
            .iter()
            .filter(|r| r.approach == "LearnedWMP")
            .min_by(|a, b| a.rmse.partial_cmp(&b.rmse).expect("finite"))
            .expect("learned");
        let pick = |approach: &str, kind: ModelKind| {
            reports
                .iter()
                .find(|r| r.approach == approach && r.model == kind.label())
                .expect("report")
        };
        let mut train_speedups = Vec::new();
        let mut infer_speedups = Vec::new();
        let mut size_ratios = Vec::new();
        for kind in ModelKind::ALL {
            let s = pick("SingleWMP", kind);
            let l = pick("LearnedWMP", kind);
            train_speedups.push(s.train_ms / l.train_ms.max(1e-9));
            infer_speedups.push(s.infer_us_per_workload / l.infer_us_per_workload.max(1e-9));
            size_ratios.push(l.model_kb / s.model_kb.max(1e-9));
        }
        let fmax = |v: &[f64]| v.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
        let fmin = |v: &[f64]| v.iter().fold(f64::INFINITY, |a, &b| a.min(b));
        println!(
            "{name}: error reduction vs DBMS {:.1}% ({}) | train speedup {:.1}x..{:.1}x | infer speedup {:.1}x..{:.1}x | learned/single size {:.2}..{:.2}",
            (1.0 - best_learned.rmse / dbms.rmse) * 100.0,
            best_learned.tag(),
            fmin(&train_speedups),
            fmax(&train_speedups),
            fmin(&infer_speedups),
            fmax(&infer_speedups),
            fmin(&size_ratios),
            fmax(&size_ratios),
        );
    }
}
