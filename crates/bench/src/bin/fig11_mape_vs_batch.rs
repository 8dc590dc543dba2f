//! Fig. 11 — MAPE of LearnedWMP-XGB on TPC-DS as the workload batch size s
//! sweeps the paper's values [1, 2, 3, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50];
//! accuracy improves steeply with batching, then flattens. At s = 1 the
//! SingleWMP-XGB model wins (the paper's closing observation).

use learnedwmp_core::{EvalConfig, EvalContext, ModelKind};
use wmp_bench::{print_table, Benchmarks, Options};

fn main() {
    let opts = Options::from_args();
    let benches = Benchmarks::generate(opts.experiment_config());
    let (name, log, cfg) =
        benches.datasets().into_iter().find(|(n, _, _)| *n == "TPC-DS").expect("TPC-DS dataset");
    println!("\nFig. 11 ({name}): MAPE (%) of LearnedWMP-XGB vs batch size s");
    let mut rows = Vec::new();
    for s in [1usize, 2, 3, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50] {
        let ctx = EvalContext::new(log, EvalConfig { batch_size: s, ..cfg.clone() });
        let r = ctx.evaluate_learned(ModelKind::Xgb).expect("evaluation");
        rows.push(vec![format!("{s}"), format!("{:.1}", r.mape())]);
    }
    print_table(&["s", "mape%"], &rows);
    // The paper's s = 1 reference: SingleWMP beats LearnedWMP on single
    // queries because templates quantize away per-query signal.
    let ctx = EvalContext::new(log, EvalConfig { batch_size: 1, ..cfg });
    let learned = ctx.evaluate_learned(ModelKind::Xgb).expect("learned");
    let single = ctx.evaluate_single(ModelKind::Xgb).expect("single");
    println!(
        "  -> at s=1: LearnedWMP-XGB MAPE {:.1}% vs SingleWMP-XGB MAPE {:.1}% (single-query models win at s=1)",
        learned.mape(),
        single.mape()
    );
}
