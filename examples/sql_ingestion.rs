//! SQL text ingestion end to end: a TPC-H query log arrives as *SQL text*,
//! is parsed under a dialect and lowered against the catalog by the engine's
//! `SqlFrontend`, and every window of successfully parsed queries gets a
//! memory prediction — while malformed or unsupported statements are
//! rejected with typed, span-carrying errors and counted, never crashing
//! the service.
//!
//! ```sh
//! cargo run --release --example sql_ingestion
//! ```

use std::collections::BTreeMap;

use learnedwmp::core::{LearnedWmp, ModelKind, PredictorHandle, TemplateSpec};
use learnedwmp::serve::{Engine, SqlFrontend, WindowPolicy};
use learnedwmp::sql::Ansi;

const WINDOW: usize = 10;
const BUCKET_MB: f64 = 25.0;

fn main() {
    // --- Train on a TPC-H-style history. ----------------------------------
    println!("Training on a TPC-H-style history (22 templates)...");
    let history = learnedwmp::workloads::tpch::generate(2_200, 3).expect("history");
    let model = LearnedWmp::builder()
        .model(ModelKind::Xgb)
        .templates(TemplateSpec::PlanKMeans { k: 22, seed: 3 })
        .fit(&history)
        .expect("training");

    // --- The serving-time traffic is a plain text log. --------------------
    // Render a fresh TPC-H log to SQL text and splice in the kind of lines a
    // real log scrape drags along: comments, blanks, DDL/DML, unsupported
    // shapes, and typos.
    let traffic = learnedwmp::workloads::tpch::generate(500, 77).expect("traffic");
    let mut lines: Vec<String> = vec!["-- tpch serving log, ANSI dialect".into()];
    for (i, record) in traffic.records.iter().enumerate() {
        lines.push(record.sql());
        if i % 100 == 50 {
            lines.push("DELETE FROM lineitem".into());
            lines.push("SELECT l.* FROM lineitem l WHERE l.l_quantity = 1 OR 1 = 1".into());
            lines.push("SELECT x.l_quantity FROM lineitme x".into());
        }
    }
    println!("Replaying {} log lines through Engine::submit_sql...\n", lines.len());

    // --- Boot an engine with a SQL front-end. ------------------------------
    let engine = Engine::new(PredictorHandle::new(model), WindowPolicy::Count(WINDOW))
        .with_sql_frontend(SqlFrontend::new(history.catalog.clone(), Box::new(Ansi)));

    let mut tickets = Vec::new();
    let mut rejections: BTreeMap<&'static str, usize> = BTreeMap::new();
    for line in lines.iter().filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with("--")) {
        match engine.submit_sql(line) {
            Ok(ticket) => tickets.push(ticket),
            Err(e) => {
                *rejections.entry(e.kind()).or_default() += 1;
                // The span points at the offending bytes of the source line.
                let shown = e.span().slice(line);
                if rejections.values().sum::<usize>() <= 3 {
                    println!("  rejected ({}): {e}", e.kind());
                    println!("    near: ...{shown}...");
                }
            }
        }
    }
    engine.drain();

    // --- Predicted memory buckets (the paper's discretized target). -------
    let mut buckets: BTreeMap<u64, usize> = BTreeMap::new();
    for ticket in &tickets {
        let decision = ticket.wait().expect("scored");
        *buckets.entry((decision.predicted_mb() / BUCKET_MB) as u64).or_default() += 1;
    }
    println!("\nPredicted window memory, {BUCKET_MB:.0} MB buckets (queries per bucket):");
    for (bucket, n) in &buckets {
        let lo = *bucket as f64 * BUCKET_MB;
        println!("  [{:>6.0}, {:>6.0}) MB : {:>4}  {}", lo, lo + BUCKET_MB, n, "#".repeat(n / 10));
    }

    // --- Parse counters: engine stats and exported metrics. ---------------
    let stats = engine.stats();
    assert_eq!(stats.sql_parse_ok, tickets.len() as u64, "every accepted statement was ticketed");
    assert_eq!(stats.sql_parse_errors, rejections.values().sum::<usize>() as u64);
    println!("\nParse counters:");
    println!("  accepted : {:>5}", stats.sql_parse_ok);
    println!("  rejected : {:>5}", stats.sql_parse_errors);
    for (kind, n) in &rejections {
        println!("    {kind:<20}: {n:>3}");
    }
    let exposition = engine.obs_registry().snapshot().to_prometheus();
    println!("\nExported metrics (grep wmp_sql):");
    for line in exposition.lines().filter(|l| l.starts_with("wmp_sql")) {
        println!("  {line}");
    }

    println!(
        "\nEngine stats: submitted {} / served {} / windows {}",
        stats.submitted, stats.served, stats.windows
    );
}
