//! The repository benchmark: four workloads run against the public API of
//! the LearnedWMP crates, one client thread each, in a closed loop.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload record_serve --seed 7 --seconds 20 --trace 0
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced
//! run (`--trace 1`) times the calls into each layer and prints the
//! per-layer metrics. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. A full result, with the
//! host and run identity, is written to `perfbench/out/` (or `--out-dir`).
//! The process exits nonzero when any output fails its check.

mod alloc;
mod common;
mod host;
mod sched_replay;
mod serve_retrain;
mod serving;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use wmp_obs::JsonValue;

use crate::common::{Metric, Outcome, RunConfig};
use crate::host::Host;
use crate::trace::{Layer, Regime, Span, Tracer};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

const WORKLOADS: [&str; 4] = ["sql_ingest", "record_serve", "sched_replay", "serve_retrain"];

const USAGE: &str =
    "usage: perfbench --workload <sql_ingest|record_serve|sched_replay|serve_retrain> \
--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]";

struct Args {
    workload: String,
    cfg: RunConfig,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out_dir = PathBuf::from("perfbench").join("out");
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad("unknown workload")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        cfg: RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        },
        out_dir,
    })
}

/// The end-to-end metrics of an untraced run, in `BENCHMARK.json` order.
fn end_to_end(o: &Outcome, peak_rss_mb: f64) -> Vec<Metric> {
    vec![
        Metric::new("setup_s", o.setup_s, "s"),
        Metric::new("qps", o.rates.qps, "queries/s"),
        Metric::new("decision_p50_us", o.rates.p50_us, "us"),
        Metric::new("decision_p99_us", o.rates.p99_us, "us"),
        Metric::new("mem_mape_pct", o.accuracy.mem_mape_pct, "%"),
        Metric::new("cpu_mape_pct", o.accuracy.cpu_mape_pct, "%"),
        Metric::new("io_mape_pct", o.accuracy.io_mape_pct, "%"),
        Metric::new("mem_qerr_p99", o.accuracy.mem_qerr_p99, "ratio"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
    ]
}

/// Every per-layer metric, from the traced phase's spans plus the figures
/// the workload computed itself; a call the workload never makes reads 0.
fn per_layer(o: &Outcome, tracer: &Tracer, traced: &stats::Rates) -> Vec<Metric> {
    let own = |name: &str| {
        o.layer.iter().chain(&o.extra).find(|m| m.name == name).map_or(0.0, |m| m.value)
    };
    let ns = |s: Span| tracer.agg(s).mean_ns();
    let ms = |s: Span| tracer.agg(s).mean_ns() / 1e6;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let submits = [Span::ServeSubmit, Span::ServeClose].map(|s| tracer.agg(s));
    let mut m = vec![
        Metric::new("sql.parse_ns", ns(Span::SqlParse), "ns"),
        Metric::new("sql.allocs", tracer.agg(Span::SqlParse).mean_allocs(), "count"),
        Metric::new("sql.rejected", own("sql.rejected"), "count"),
        Metric::new("plan.plan_ns", ns(Span::PlanPlan), "ns"),
        Metric::new("plan.featurize_ns", ns(Span::PlanFeaturize), "ns"),
        Metric::new("sim.resources_ns", ns(Span::SimResources), "ns"),
        Metric::new("core.snapshot_ns", ns(Span::CoreSnapshot), "ns"),
        Metric::new("core.assign_ns", ns(Span::CoreAssign), "ns"),
        Metric::new("core.histogram_ns", ns(Span::CoreHistogram), "ns"),
        Metric::new("core.head0_ns", ns(Span::CoreHead0), "ns"),
        Metric::new("core.heads_ns", ns(Span::CoreHeads), "ns"),
        Metric::new(
            "core.heads_over_head0",
            ratio(ns(Span::CoreHeads), ns(Span::CoreHead0)),
            "ratio",
        ),
        Metric::new("core.predict_allocs", tracer.agg(Span::CorePredict).mean_allocs(), "count"),
        Metric::new("core.fit_ms", own("core.fit_ms"), "ms"),
        Metric::new("core.codec_clone_ms", ms(Span::CoreCodecClone), "ms"),
        Metric::new("serve.submit_ns", ns(Span::ServeSubmit), "ns"),
        Metric::new("serve.close_ns", ns(Span::ServeClose), "ns"),
        Metric::new("serve.self_ns", own("serve.self_ns"), "ns"),
        Metric::new("serve.window_over_predict", own("serve.window_over_predict"), "ratio"),
        Metric::new("serve.clone_ns", ns(Span::ServeClone), "ns"),
        Metric::new(
            "serve.allocs",
            ratio(
                (submits[0].allocs + submits[1].allocs) as f64,
                (submits[0].count + submits[1].count) as f64,
            ),
            "count",
        ),
        Metric::new("serve.failed", own("serve.failed"), "count"),
        Metric::new("serve.install_ns", ns(Span::ServeInstall), "ns"),
    ];
    for r in Regime::ALL {
        m.push(Metric::new(
            format!("sched.submit_ns.{}", r.name()),
            ns(Span::SchedSubmit(r)),
            "ns",
        ));
        m.push(Metric::new(format!("sched.drain_ns.{}", r.name()), ns(Span::SchedDrain(r)), "ns"));
        let deferred = format!("sched.deferred.{}", r.name());
        m.push(Metric::new(deferred.clone(), own(&deferred), "count"));
    }
    m.extend([
        Metric::new("sched.decide_ns", ns(Span::SchedDecide), "ns"),
        Metric::new("sched_cost", own("sched_cost"), "cost"),
        Metric::new("gap_recovered_pct", own("gap_recovered_pct"), "%"),
        Metric::new("mlkit.retrain_ms", ms(Span::MlkitRetrain), "ms"),
        Metric::new("mlkit.retrains", own("mlkit.retrains"), "count"),
        Metric::new("mlkit.observe_ns", ns(Span::MlkitObserve), "ns"),
        Metric::new("obs.observe_ns", ns(Span::ObsObserve), "ns"),
    ]);
    // Re-timing repeats work the workload already did: its spans are not in
    // the layer busy times and its time is not in the phase's.
    let wall_ns = traced.wall_s * 1e9 - tracer.retimed_ns() as f64;
    let mut covered = 0.0;
    for layer in Layer::ALL {
        let busy = tracer.layer_busy_ns(layer) as f64;
        covered += busy;
        m.push(Metric::new(
            format!("share.{}_pct", layer.name()),
            100.0 * ratio(busy, wall_ns),
            "%",
        ));
    }
    m.push(Metric::new("trace.overhead_pct", 100.0 * (1.0 - ratio(traced.qps, o.rates.qps)), "%"));
    m.push(Metric::new("trace.coverage_pct", 100.0 * ratio(covered, wall_ns), "%"));
    m
}

fn metrics_json(metrics: &[Metric]) -> JsonValue {
    JsonValue::Object(
        metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                (
                    m.name.clone(),
                    JsonValue::Object(vec![
                        ("value".into(), JsonValue::Number(value)),
                        ("unit".into(), JsonValue::String(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

/// The traced stage table under the ROADMAP stage names.
fn print_stages(tracer: &Tracer) {
    let ns = |s: Span| tracer.agg(s).mean_ns();
    if tracer.agg(Span::CoreHeads).count == 0 {
        return;
    }
    println!(
        "stages of one window (ns, mean per call; timer overhead {} ns subtracted):",
        tracer.overhead_ns()
    );
    println!("  {:<40} {:>10.1}", "assignment IN3 (per query)", ns(Span::CoreAssign));
    println!("  {:<40} {:>10.1}", "assignment IN3 (x10 queries)", 10.0 * ns(Span::CoreAssign));
    println!("  {:<40} {:>10.1}", "histogram IN4", ns(Span::CoreHistogram));
    println!("  {:<40} {:>10.1}", "head 0 (memory) IN5", ns(Span::CoreHead0));
    println!("  {:<40} {:>10.1}", "all heads IN5", ns(Span::CoreHeads));
    println!("  {:<40} {:>10.1}", "predict_resources (whole)", ns(Span::CorePredict));
    if tracer.agg(Span::CoreSnapshot).count > 0 {
        println!("  {:<40} {:>10.1}", "snapshot pin", ns(Span::CoreSnapshot));
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cfg = args.cfg;
    let host = Host::detect(&std::env::current_dir().unwrap_or_else(|_| PathBuf::from(".")));
    let identity = host.identity(&args.workload, cfg.seed);
    println!(
        "perfbench {} seed={} seconds={} trace={} identity={identity}",
        args.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    println!(
        "host: cores={} cpu=\"{}\" rustc=\"{}\" profile={} commit={} dirty={}",
        host.logical_cores,
        host.cpu_model,
        host.rustc,
        host.profile,
        host.commit,
        host.dirty.map_or("unknown".to_string(), |d| d.to_string())
    );

    let outcome = match args.workload.as_str() {
        "sql_ingest" => serving::run_sql_ingest(&cfg),
        "record_serve" => serving::run_record_serve(&cfg),
        "sched_replay" => sched_replay::run(&cfg),
        _ => serve_retrain::run(&cfg),
    };
    let e2e = end_to_end(&outcome, host::peak_rss_mb());
    let tally = outcome.tally;
    let error_rate =
        if tally.attempted == 0 { 1.0 } else { tally.failed as f64 / tally.attempted as f64 };
    let correct = tally.failed == 0 && tally.attempted > 0;

    let mut shown = e2e.clone();
    shown.extend(outcome.extra.iter().cloned());
    shown.push(Metric::new("error_rate", error_rate, "fraction"));
    let r = &outcome.rates;
    shown.extend([
        Metric::new("setup_raw_s", outcome.setup_raw_s, "s"),
        Metric::new("qps_raw", r.raw_qps, "queries/s"),
        Metric::new("decision_p50_raw_us", r.raw_p50_us, "us"),
        Metric::new("decision_p99_raw_us", r.raw_p99_us, "us"),
        Metric::new("host_probe_us", r.probe_us, "us"),
    ]);
    shown.push(Metric::new("decision_samples", outcome.rates.samples as f64, "count"));
    shown.push(Metric::new("slices", outcome.rates.slices as f64, "count"));
    print_table("end-to-end (untraced phase):", &shown);
    let layer = outcome.traced.as_ref().map(|(tracer, rates)| {
        let layer = per_layer(&outcome, tracer, rates);
        print_table("per-layer (traced phase):", &layer);
        print_stages(tracer);
        (layer, tracer)
    });

    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.out_dir.display());
    }
    if let Some((_, tracer)) = &layer {
        let path = args.out_dir.join(format!("{identity}.spans.tsv"));
        if let Err(e) = tracer.write_log(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    let result = JsonValue::Object(vec![
        ("identity".into(), JsonValue::String(identity.clone())),
        ("workload".into(), JsonValue::String(args.workload.clone())),
        ("seed".into(), JsonValue::Number(cfg.seed as f64)),
        ("seconds".into(), JsonValue::Number(cfg.seconds)),
        ("trace".into(), JsonValue::Bool(cfg.trace)),
        (
            "host".into(),
            JsonValue::Object(vec![
                ("logical_cores".into(), JsonValue::Number(host.logical_cores as f64)),
                ("cpu_model".into(), JsonValue::String(host.cpu_model.clone())),
                ("rustc".into(), JsonValue::String(host.rustc.into())),
                ("profile".into(), JsonValue::String(host.profile.into())),
                ("commit".into(), JsonValue::String(host.commit.clone())),
                ("dirty".into(), host.dirty.map_or(JsonValue::Null, JsonValue::Bool)),
            ]),
        ),
        ("correct".into(), JsonValue::Bool(correct)),
        ("attempted".into(), JsonValue::Number(tally.attempted as f64)),
        ("failed".into(), JsonValue::Number(tally.failed as f64)),
        ("end_to_end".into(), metrics_json(&shown)),
        ("per_layer".into(), layer.as_ref().map_or(JsonValue::Null, |(l, _)| metrics_json(l))),
    ]);
    let kind = if cfg.trace { "traced" } else { "untraced" };
    let path = args.out_dir.join(format!("{identity}.{kind}.json"));
    if let Err(e) = std::fs::write(&path, result.render() + "\n") {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }

    let metrics = match &layer {
        Some((l, _)) => metrics_json(l),
        None => metrics_json(&e2e),
    };
    let last = JsonValue::Object(vec![
        ("correct".into(), JsonValue::Bool(correct)),
        ("attempted".into(), JsonValue::Number(tally.attempted as f64)),
        ("failed".into(), JsonValue::Number(tally.failed as f64)),
        ("metrics".into(), metrics),
    ]);
    println!("{}", last.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} operations failed their check",
            tally.failed, tally.attempted
        );
        ExitCode::FAILURE
    }
}
