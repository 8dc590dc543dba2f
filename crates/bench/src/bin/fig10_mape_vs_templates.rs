//! Fig. 10 — MAPE of LearnedWMP-XGB as the number of templates k sweeps
//! 10..=100, per dataset. The paper observes TPC-DS improving toward k = 100
//! while JOB and TPC-C peak at moderate k (20–40).

use learnedwmp_core::{EvalConfig, EvalContext, ModelKind};
use wmp_bench::{print_table, Benchmarks, Options};

fn main() {
    let opts = Options::from_args();
    let benches = Benchmarks::generate(opts.experiment_config());
    for (name, log, cfg) in benches.datasets() {
        println!("\nFig. 10 ({name}): MAPE (%) of LearnedWMP-XGB vs number of templates");
        let mut rows = Vec::new();
        for k in (10..=100).step_by(10) {
            let ctx = EvalContext::new(log, EvalConfig { k_templates: k, ..cfg.clone() });
            let r = ctx.evaluate_learned(ModelKind::Xgb).expect("evaluation");
            rows.push(vec![format!("{k}"), format!("{:.1}", r.mape())]);
        }
        print_table(&["k", "mape%"], &rows);
    }
}
