//! `serve_retrain`: record serving with writes beside reads. The TPC-H
//! template mix shifts halfway through the stream. After each window
//! resolves, its queries go to `Engine::observe` (quality and drift
//! monitors attached) and to an `OnlineWmp`, which retrains over a sliding
//! window every few thousand observations; each retrained model is
//! published through `LearnedWmp::codec_clone` and `Engine::install`.
//!
//! Retraining is driven from the client thread, not the engine's
//! background thread, so which model scores which window is fixed and the
//! accuracy repeats exactly.

use std::sync::Arc;
use std::time::Instant;

use learnedwmp_core::{
    LearnedWmp, LearnedWmpConfig, ModelKind, OnlinePolicy, OnlineWmp, PredictorHandle,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use wmp_plan::{Catalog, ResourceVector};
use wmp_serve::{Engine, ObsConfig, WindowPolicy};
use wmp_workloads::tpch::{instantiate, roundtrip_through_sql};
use wmp_workloads::QueryRecord;

use crate::common::{
    check_window, fit, same_bits, truth, Metric, Outcome, Pooled, Probe, RunConfig, Tally,
    K_TEMPLATES, WINDOW,
};
use crate::stats::{Meter, Rates, SetupTimes};
use crate::trace::{Span, Tracer};

/// Templates of the mix before and after the shift (out of TPC-H's 22).
const BEFORE: std::ops::Range<usize> = 0..14;
const AFTER: std::ops::Range<usize> = 8..22;

/// Queries the initial model is trained on, and the stream served after.
const N_TRAIN: usize = 4_000;
const N_STREAM: usize = 10_000;

/// Decisions per measurement slice.
const SLICE_WINDOWS: usize = 100;

struct Setup {
    catalog: Catalog,
    initial: Arc<LearnedWmp>,
    drift_reference: Vec<f64>,
    stream: Vec<QueryRecord>,
    truths: Vec<ResourceVector>,
    policy: OnlinePolicy,
    fit_ms: f64,
}

fn setup(cfg: &RunConfig) -> Setup {
    let cat = wmp_workloads::tpch::catalog();
    let shift_at = N_TRAIN + N_STREAM / 2;
    let specs = (0..N_TRAIN + N_STREAM)
        .map(|i| {
            let mix = if i < shift_at { BEFORE } else { AFTER };
            let template = mix.start + i % mix.len();
            let mut rng =
                StdRng::seed_from_u64(cfg.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let spec = instantiate(&cat, template, i as u64, &mut rng);
            (roundtrip_through_sql(&cat, &spec), template)
        })
        .collect();
    let log = wmp_workloads::build_log("tpch-shift", cat, specs)
        .expect("the TPC-H catalog plans every query");
    let (train, stream) = log.records.split_at(N_TRAIN);
    let (initial, fit_ms) = fit(ModelKind::Xgb, train, &log.catalog);
    let train_refs: Vec<&QueryRecord> = train.iter().collect();
    let drift_reference =
        initial.template_distribution(&train_refs).expect("the fitted model assigns every query");
    Setup {
        truths: stream.chunks_exact(WINDOW).map(truth).collect(),
        stream: stream.to_vec(),
        catalog: log.catalog,
        initial: Arc::new(initial),
        drift_reference,
        policy: OnlinePolicy { retrain_every: 2_000, window: 4_000, k_templates: K_TEMPLATES },
        fit_ms,
    }
}

/// What the phases learn beyond rates.
#[derive(Default)]
struct Findings {
    /// Decisions of the first pass; later passes must repeat them.
    first_pass: Vec<ResourceVector>,
    retrains_per_pass: usize,
    /// Tickets that resolved with an error.
    errors: usize,
}

/// One pass over the stream with a fresh engine and a fresh `OnlineWmp`
/// warm-started from the initial model.
fn pass(
    s: &Setup,
    probe: &mut Probe<'_>,
    meter: &mut Meter,
    tally: &mut Tally,
    found: &mut Findings,
    wid: &mut u64,
) {
    let engine =
        Engine::new(PredictorHandle::from_shared(s.initial.clone()), WindowPolicy::Count(WINDOW))
            .with_observability(
                ObsConfig::default().with_drift_reference(s.drift_reference.clone()),
            );
    let config = LearnedWmpConfig { model: ModelKind::Xgb, ..Default::default() };
    let mut online = OnlineWmp::new(config, s.policy.clone());
    let (warm, _) = probe.time(Span::CoreCodecClone, *wid, || s.initial.codec_clone());
    let Ok(warm) = warm else {
        tally.record(s.stream.len(), s.stream.len());
        return;
    };
    online.warm_start(warm);
    let mut tickets = Vec::with_capacity(WINDOW);
    let mut version = 0u64;
    let mut retrains = 0;
    let first_pass = found.first_pass.is_empty();
    for (w, window) in s.stream.chunks_exact(WINDOW).enumerate() {
        let t0 = Instant::now();
        for (i, record) in window.iter().enumerate() {
            let (owned, _) = probe.time(Span::ServeClone, *wid, || record.clone());
            let span = if i + 1 == WINDOW { Span::ServeClose } else { Span::ServeSubmit };
            let (ticket, _) = probe.time(span, *wid, || engine.submit(owned));
            tickets.push(ticket);
        }
        meter.decision(t0.elapsed());
        // The model that scored the window is the one `online` holds.
        let refs: Vec<&QueryRecord> = window.iter().collect();
        let (mut failed, errors) = match online.predict_resources(&refs) {
            Ok(expected) => {
                let repeated = first_pass || same_bits(expected, found.first_pass[w]);
                if first_pass {
                    found.first_pass.push(expected);
                }
                let (failed, errors) = check_window(&tickets, expected, version);
                (failed + usize::from(!repeated), errors)
            }
            Err(_) => (WINDOW, 0),
        };
        tickets.clear();
        found.errors += errors;
        for record in window {
            let _ = probe.time(Span::ObsObserve, *wid, || engine.observe(record.clone()));
            let (outcome, _) = probe.time_as(
                *wid,
                || online.observe(record.clone(), &s.catalog),
                |o| match o {
                    Ok(o) if o.retrained() => Span::MlkitRetrain,
                    _ => Span::MlkitObserve,
                },
            );
            match outcome {
                Ok(o) if o.retrained() => {
                    retrains += 1;
                    let (published, _) = probe.time(Span::CoreCodecClone, *wid, || {
                        online.model().map(LearnedWmp::codec_clone)
                    });
                    match published {
                        Some(Ok(model)) => {
                            version =
                                probe.time(Span::ServeInstall, *wid, || engine.install(model)).0;
                        }
                        _ => failed += 1,
                    }
                }
                Ok(_) => {}
                Err(_) => failed += 1,
            }
        }
        tally.record(WINDOW, failed.min(WINDOW));
        meter.queries(WINDOW);
        meter.maybe_close_slice();
        *wid += 1;
    }
    found.retrains_per_pass = retrains;
}

fn phase(
    s: &Setup,
    seconds: f64,
    mut probe: Probe<'_>,
    tally: &mut Tally,
    found: &mut Findings,
) -> Rates {
    let mut meter = Meter::new(seconds, SLICE_WINDOWS);
    let mut wid = 0u64;
    loop {
        pass(s, &mut probe, &mut meter, tally, found, &mut wid);
        if meter.expired() {
            return meter.finish();
        }
    }
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut setup_times = SetupTimes::default();
    let s = setup_times.time(|| setup(cfg));
    let mut tally = Tally::default();
    let mut found = Findings::default();
    let rates = phase(&s, cfg.untraced_seconds(), Probe::new(None), &mut tally, &mut found);
    let traced = cfg.trace.then(|| {
        let mut tracer = Tracer::new();
        let rates =
            phase(&s, cfg.traced_seconds(), Probe::new(Some(&mut tracer)), &mut tally, &mut found);
        (tracer, rates)
    });
    let mut pooled = Pooled::default();
    pooled.add(&found.first_pass, &s.truths);
    pooled.add_draws(cfg, |draw| {
        let d = setup_times.time(|| setup(draw));
        let mut draw_found = Findings::default();
        pass(
            &d,
            &mut Probe::new(None),
            &mut Meter::new(0.0, d.stream.len()),
            &mut tally,
            &mut draw_found,
            &mut 0,
        );
        (draw_found.first_pass, d.truths)
    });
    let (setup_s, setup_raw_s) = setup_times.medians();
    Outcome {
        tally,
        setup_s,
        setup_raw_s,
        rates,
        accuracy: pooled.accuracy(),
        extra: Vec::new(),
        layer: vec![
            Metric::new("core.fit_ms", s.fit_ms, "ms"),
            Metric::new("mlkit.retrains", found.retrains_per_pass as f64, "count"),
            Metric::new("serve.failed", found.errors as f64, "count"),
        ],
        traced,
    }
}
