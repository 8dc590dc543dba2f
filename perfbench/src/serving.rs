//! The two serving workloads over one trained XGB model and one held-out
//! TPC-H stream:
//!
//! - `record_serve`: owned records go through `Engine::submit`;
//! - `sql_ingest`: the same records, rendered to ANSI SQL text, go through
//!   `Engine::submit_sql` (and, in the traced phase, through the front-end's
//!   public pieces one by one, so each layer is timed on its own).
//!
//! One client thread submits in a closed loop; the call that closes a
//! window scores it on that thread.

use std::sync::Arc;
use std::time::Instant;

use learnedwmp_core::{LearnedWmp, ModelKind, PredictorHandle};
use wmp_plan::features::featurize_plan;
use wmp_plan::planner::Planner;
use wmp_plan::{Catalog, ResourceVector};
use wmp_serve::{Engine, ObsConfig, SqlFrontend, WindowPolicy};
use wmp_sim::{DbmsHeuristicEstimator, ExecutorSimulator};
use wmp_sql::Ansi;
use wmp_workloads::{QueryLog, QueryRecord, NO_TEMPLATE_HINT};

use crate::common::{
    check_window, fit, retime_stages, truth, Metric, Outcome, Pooled, Probe, RunConfig, Tally,
    WINDOW,
};
use crate::stats::{Meter, Rates, SetupTimes};
use crate::trace::{Span, Tracer};

/// Queries the model is trained on, and the held-out suffix the timed
/// loop serves, pass after pass.
const N_TRAIN: usize = 8_000;
const N_HELDOUT: usize = 4_000;

/// Decisions per measurement slice, about 50 ms of work each.
const RECORD_SLICE_WINDOWS: usize = 2_000;
const SQL_SLICE_WINDOWS: usize = 250;

/// The trained model, the held-out stream, and the expected decision of
/// every held-out window.
struct Setup {
    catalog: Catalog,
    model: Arc<LearnedWmp>,
    heldout: Vec<QueryRecord>,
    /// `sql_ingest` only: one ANSI statement per held-out record.
    sql: Vec<String>,
    reference: Vec<ResourceVector>,
    truths: Vec<ResourceVector>,
    fit_ms: f64,
    /// Statements `QueryLog::from_sql_lines` rejected while building the
    /// reference (expected 0).
    rejected: usize,
}

fn setup(cfg: &RunConfig, with_sql: bool) -> Setup {
    let log = wmp_workloads::tpch::generate(N_TRAIN + N_HELDOUT, cfg.seed)
        .expect("TPC-H generation never fails");
    let (train, heldout) = log.records.split_at(N_TRAIN);
    let (model, fit_ms) = fit(ModelKind::Xgb, train, &log.catalog);
    let mut heldout = heldout.to_vec();
    let mut sql = Vec::new();
    let mut rejected = 0;
    if with_sql {
        // The SQL path re-plans every statement from its text, so its
        // reference is built from the text too.
        sql = heldout.iter().map(QueryRecord::sql).collect();
        let (parsed, errors) =
            QueryLog::from_sql_lines("tpch", log.catalog.clone(), &sql.join("\n"), &Ansi)
                .expect("the TPC-H catalog plans every statement");
        rejected = errors.len();
        heldout = parsed.records;
    }
    let windows: Vec<&[QueryRecord]> = heldout.chunks_exact(WINDOW).collect();
    let reference = windows
        .iter()
        .map(|w| {
            let refs: Vec<&QueryRecord> = w.iter().collect();
            model.predict_resources(&refs).expect("the fitted model predicts every window")
        })
        .collect();
    let truths = windows.iter().map(|w| truth(w)).collect();
    Setup {
        catalog: log.catalog,
        model: Arc::new(model),
        heldout,
        sql,
        reference,
        truths,
        fit_ms,
        rejected,
    }
}

fn engine(s: &Setup) -> Engine {
    Engine::new(PredictorHandle::from_shared(s.model.clone()), WindowPolicy::Count(WINDOW))
        .with_observability(ObsConfig::default())
}

/// Per-window engine self time: all submit calls of the window minus the
/// snapshot and `predict_resources` re-timed on the same window.
#[derive(Debug, Default)]
struct SelfTime {
    windows: u64,
    submit_ns: u64,
    model_ns: u64,
    /// Tickets that resolved with an error.
    errors: usize,
}

impl SelfTime {
    fn add(&mut self, submit_ns: u64, snapshot_ns: u64, predict_ns: u64) {
        self.windows += 1;
        self.submit_ns += submit_ns;
        self.model_ns += snapshot_ns + predict_ns;
    }

    fn metrics(&self) -> [Metric; 2] {
        let (self_ns, ratio) = if self.windows == 0 || self.model_ns == 0 {
            (0.0, 0.0)
        } else {
            (
                (self.submit_ns as f64 - self.model_ns as f64) / self.windows as f64,
                self.submit_ns as f64 / self.model_ns as f64,
            )
        };
        [
            Metric::new("serve.self_ns", self_ns, "ns"),
            Metric::new("serve.window_over_predict", ratio, "ratio"),
        ]
    }
}

/// Checks a closed window's tickets and, when tracing, re-times its stages:
/// the shared tail of both serving loops.
#[allow(clippy::too_many_arguments)]
fn close_window(
    s: &Setup,
    probe: &mut Probe<'_>,
    engine: &Engine,
    tickets: &mut Vec<wmp_serve::QueryTicket>,
    w: usize,
    wid: u64,
    submit_ns: u64,
    tally: &mut Tally,
    self_time: &mut SelfTime,
) {
    let (failed, errors) = check_window(tickets, s.reference[w], 0);
    tickets.clear();
    let mut failed = failed;
    if probe.on() {
        let refs: Vec<&QueryRecord> = s.heldout[w * WINDOW..(w + 1) * WINDOW].iter().collect();
        let (snapshot_ns, predict_ns, consistent) =
            retime_stages(probe, &s.model, Some(engine.handle()), &refs, wid);
        self_time.add(submit_ns, snapshot_ns, predict_ns);
        if !consistent {
            failed += 1;
        }
    }
    self_time.errors += errors;
    tally.record(WINDOW, failed);
}

fn record_phase(
    s: &Setup,
    seconds: f64,
    mut probe: Probe<'_>,
    tally: &mut Tally,
    st: &mut SelfTime,
) -> Rates {
    let engine = engine(s);
    let mut meter = Meter::new(seconds, RECORD_SLICE_WINDOWS);
    let mut tickets = Vec::with_capacity(WINDOW);
    let mut wid = 0u64;
    loop {
        for (w, window) in s.heldout.chunks_exact(WINDOW).enumerate() {
            let t0 = Instant::now();
            let mut submit_ns = 0;
            for (i, record) in window.iter().enumerate() {
                let (owned, _) = probe.time(Span::ServeClone, wid, || record.clone());
                let span = if i + 1 == WINDOW { Span::ServeClose } else { Span::ServeSubmit };
                let (ticket, ns) = probe.time(span, wid, || engine.submit(owned));
                submit_ns += ns;
                tickets.push(ticket);
            }
            meter.decision(t0.elapsed());
            meter.queries(WINDOW);
            close_window(s, &mut probe, &engine, &mut tickets, w, wid, submit_ns, tally, st);
            wid += 1;
            meter.maybe_close_slice();
        }
        if meter.expired() {
            return meter.finish();
        }
    }
}

/// Builds one statement's record through the front-end's public pieces,
/// timing each: parse and lower, plan, featurize, simulate and estimate.
fn staged_record(
    probe: &mut Probe<'_>,
    planner: &Planner<'_>,
    simulator: &ExecutorSimulator,
    heuristic: &DbmsHeuristicEstimator,
    catalog: &Catalog,
    sql: &str,
    id: u64,
) -> Option<QueryRecord> {
    let (spec, _) = probe.time(Span::SqlParse, id, || wmp_sql::parse_to_spec(sql, &Ansi, catalog));
    let mut spec = spec.ok()?;
    spec.id = id;
    let (plan, _) = probe.time(Span::PlanPlan, id, || planner.plan(&spec));
    let plan = plan.ok()?;
    let (features, _) = probe.time(Span::PlanFeaturize, id, || featurize_plan(&plan));
    let ((resources, dbms_estimate), _) = probe.time(Span::SimResources, id, || {
        (simulator.true_resources(&plan, id), heuristic.estimate_resources(&plan))
    });
    Some(QueryRecord {
        id,
        spec,
        features,
        resources,
        dbms_estimate,
        template_hint: NO_TEMPLATE_HINT,
    })
}

fn sql_phase(
    s: &Setup,
    seconds: f64,
    mut probe: Probe<'_>,
    tally: &mut Tally,
    st: &mut SelfTime,
    rejected: &mut usize,
) -> Rates {
    let planner = Planner::new(&s.catalog);
    let simulator = ExecutorSimulator::new();
    let heuristic = DbmsHeuristicEstimator::new();
    let mut meter = Meter::new(seconds, SQL_SLICE_WINDOWS);
    let mut tickets = Vec::with_capacity(WINDOW);
    let mut wid = 0u64;
    loop {
        // A fresh engine per pass: its front-end numbers statements from 0,
        // as `QueryLog::from_sql_lines` did for the reference.
        let engine =
            engine(s).with_sql_frontend(SqlFrontend::new(s.catalog.clone(), Box::new(Ansi)));
        for (w, window) in s.sql.chunks_exact(WINDOW).enumerate() {
            let t0 = Instant::now();
            let mut submit_ns = 0;
            for (i, sql) in window.iter().enumerate() {
                let id = (w * WINDOW + i) as u64;
                let ticket = if probe.on() {
                    let record = staged_record(
                        &mut probe, &planner, &simulator, &heuristic, &s.catalog, sql, id,
                    );
                    record.map(|record| {
                        let span =
                            if i + 1 == WINDOW { Span::ServeClose } else { Span::ServeSubmit };
                        let (ticket, ns) = probe.time(span, wid, || engine.submit(record));
                        submit_ns += ns;
                        ticket
                    })
                } else {
                    engine.submit_sql(sql).ok()
                };
                match ticket {
                    Some(ticket) => tickets.push(ticket),
                    None => *rejected += 1,
                }
            }
            meter.decision(t0.elapsed());
            meter.queries(WINDOW);
            if tickets.len() < WINDOW {
                // A rejected statement leaves the window open: the whole
                // window fails, and the engine is drained for the next.
                tally.record(WINDOW, WINDOW);
                tickets.clear();
                engine.drain();
            } else {
                close_window(s, &mut probe, &engine, &mut tickets, w, wid, submit_ns, tally, st);
            }
            wid += 1;
            meter.maybe_close_slice();
        }
        if meter.expired() {
            return meter.finish();
        }
    }
}

fn run(cfg: &RunConfig, with_sql: bool) -> Outcome {
    let mut setup_times = SetupTimes::default();
    let s = setup_times.time(|| setup(cfg, with_sql));
    let mut tally = Tally::default();
    // A reference that could not be built is a failed output.
    tally.record(s.rejected, s.rejected);
    let mut st = SelfTime::default();
    let mut rejected = s.rejected;
    let phase = |seconds: f64,
                 probe: Probe<'_>,
                 tally: &mut Tally,
                 st: &mut SelfTime,
                 rejected: &mut usize| {
        if with_sql {
            sql_phase(&s, seconds, probe, tally, st, rejected)
        } else {
            record_phase(&s, seconds, probe, tally, st)
        }
    };
    let rates = phase(cfg.untraced_seconds(), Probe::new(None), &mut tally, &mut st, &mut rejected);
    let traced = cfg.trace.then(|| {
        let mut tracer = Tracer::new();
        let rates = phase(
            cfg.traced_seconds(),
            Probe::new(Some(&mut tracer)),
            &mut tally,
            &mut st,
            &mut rejected,
        );
        (tracer, rates)
    });
    let mut layer = vec![
        Metric::new("core.fit_ms", s.fit_ms, "ms"),
        Metric::new("serve.failed", st.errors as f64, "count"),
    ];
    layer.extend(st.metrics());
    if with_sql {
        layer.push(Metric::new("sql.rejected", rejected as f64, "count"));
    }
    // The served decisions equal the reference bit for bit, so the
    // reference stands for them in the accuracy pool.
    let mut pooled = Pooled::default();
    pooled.add(&s.reference, &s.truths);
    pooled.add_draws(cfg, |draw| {
        let d = setup_times.time(|| setup(draw, with_sql));
        tally.record(d.rejected, d.rejected);
        (d.reference, d.truths)
    });
    let (setup_s, setup_raw_s) = setup_times.medians();
    Outcome {
        tally,
        setup_s,
        setup_raw_s,
        rates,
        accuracy: pooled.accuracy(),
        extra: Vec::new(),
        layer,
        traced,
    }
}

pub fn run_record_serve(cfg: &RunConfig) -> Outcome {
    run(cfg, false)
}

pub fn run_sql_ingest(cfg: &RunConfig) -> Outcome {
    run(cfg, true)
}
