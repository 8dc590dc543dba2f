//! Template explorer: a look inside the substrate — plan trees with
//! estimated/true cardinalities (the paper's Fig. 2), plan featurization, the
//! elbow method for choosing `k` (§III-B1), and what the learned templates
//! actually group together.
//!
//! ```sh
//! cargo run --release --example template_explorer
//! ```

use learnedwmp::core::{PlanKMeansTemplates, TemplateLearner};
use learnedwmp::mlkit::kmeans::{elbow_curve, pick_elbow};
use learnedwmp::mlkit::scaler::StandardScaler;
use learnedwmp::mlkit::Matrix;
use learnedwmp::plan::features::{feature_names, featurize_plan};
use learnedwmp::plan::Planner;
use learnedwmp::sql::{render_sql_dialect, Ansi};
use learnedwmp::workloads::QueryRecord;

fn main() {
    // 1. One concrete query: SQL, plan tree, features (paper Fig. 2).
    let cat = learnedwmp::workloads::tpcds::catalog();
    let templates = learnedwmp::workloads::tpcds::templates();
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let spec = learnedwmp::workloads::tpcds::instantiate(&cat, &templates[1], 0, &mut rng);
    println!("SQL:\n  {}\n", render_sql_dialect(&spec, &Ansi));
    let planner = Planner::new(&cat);
    let plan = planner.plan(&spec).expect("plan");
    println!("Plan (estimated vs true cardinalities):\n{}", plan.explain());
    println!("Plan features (count, sum of estimated cardinality per operator type):");
    for (name, v) in feature_names().iter().zip(featurize_plan(&plan)) {
        if v != 0.0 {
            println!("  {name:<22} {v:>14.1}");
        }
    }

    // 2. The elbow method over a TPC-C-style log (cheap to cluster).
    println!("\nElbow method over a TPC-C-style log (1,500 statements):");
    let log = learnedwmp::workloads::tpcc::generate(1_500, 3).expect("generation");
    let rows: Vec<Vec<f64>> = log.records.iter().map(|r| r.features.clone()).collect();
    let x = Matrix::from_rows(&rows).expect("matrix");
    let xs = StandardScaler::new().fit_transform(&x).expect("scaling");
    let ks: Vec<usize> = (2..=24).step_by(2).collect();
    let curve = elbow_curve(&xs, &ks, 42).expect("elbow curve");
    for (k, inertia) in &curve {
        let bar = "#".repeat((inertia / curve[0].1 * 50.0) as usize);
        println!("  k={k:>2} inertia {inertia:>12.0} {bar}");
    }
    let k_star = pick_elbow(&curve).expect("elbow");
    println!("  -> elbow at k = {k_star} (the generator uses 12 statement templates)");

    // 3. What the learned templates group: cluster sizes and a sample SQL.
    let refs: Vec<&QueryRecord> = log.records.iter().collect();
    let mut learner = PlanKMeansTemplates::new(k_star, 42);
    learner.fit(&refs, &log.catalog).expect("template learning");
    let mut members: Vec<Vec<&QueryRecord>> = vec![Vec::new(); learner.n_templates()];
    for r in &refs {
        members[learner.assign(r).expect("assign")].push(r);
    }
    println!("\nLearned templates (size, mean memory, example statement):");
    for (t, group) in members.iter().enumerate() {
        if group.is_empty() {
            continue;
        }
        let mean_mem: f64 =
            group.iter().map(|r| r.true_memory_mb()).sum::<f64>() / group.len() as f64;
        let example = group[0].sql();
        let example = if example.len() > 72 { format!("{}…", &example[..72]) } else { example };
        println!("  t{t:<2} n={:<4} mem≈{mean_mem:>7.2} MB  {example}", group.len());
    }
}
