//! The paper's Figs. 4–8 from one measurement sweep. Per dataset it runs
//! the DBMS baseline and every learner under SingleWMP and LearnedWMP once,
//! then prints from those reports:
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
//! - each LearnedWMP model's per-resource accuracy.
//!
//! It closes with the paper's headline claims: error reduction vs. DBMS,
//! training/inference speedups and model-size ratios. Sensitivity sweeps
//! (Figs. 9–11) and ablations have their own binaries.

use learnedwmp_core::{EvalContext, ModelKind, ModelReport};
use wmp_bench::{print_table, Benchmarks, Options};

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
        print_figures(name, &reports);
        all.push((name, reports));
    }

    println!("\n##### Headline claims");
    for (name, reports) in &all {
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
}
