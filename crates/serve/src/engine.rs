//! The [`Engine`] facade: an always-on serving loop that turns an unbounded
//! query stream into fixed-size workload windows, scores each window through
//! a hot-swappable [`PredictorHandle`], and retrains in the background.
//!
//! # Stats coherence
//!
//! Each serving fact is counted once, in the engine's registry (see
//! [`crate::obs`]), and [`Engine::stats`] reads its [`StatsSnapshot`] from
//! those counters. Submitters, the scoring path and the background
//! retrainer update them concurrently, so a snapshot is not one atomic cut
//! of all fields, but every snapshot satisfies
//!
//! ```text
//! submitted >= served + failed + pending
//! ```
//!
//! because of the order of updates and reads:
//!
//! 1. A submission counts `submitted` **before** its query enters the
//!    pending window, and the scoring path takes a window out of pending
//!    **before** counting `served`/`failed`.
//! 2. The scoring path issues a `Release` fence before adding to
//!    `served`/`failed`; [`Engine::stats`] loads them **first** and then
//!    issues an `Acquire` fence, so every submission behind a counted
//!    resolution is visible before `submitted` is read.
//! 3. [`Engine::stats`] reads `pending` under the lock the scoring path
//!    holds to take a window, then loads `submitted` **last**, so no query
//!    counts as both resolved and pending, and every pending query's
//!    submission is visible.
//!
//! [`Engine::stats`] asserts the invariant in debug builds, and a
//! concurrent stress test checks it from racing threads.

use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use learnedwmp_core::handle::PredictorHandle;
use learnedwmp_core::{LearnedWmp, OnlineWmp, WorkloadPredictor};
use wmp_mlkit::{MlError, MlResult};
use wmp_obs::Level;
use wmp_plan::Catalog;
use wmp_workloads::QueryRecord;

use crate::obs::{EngineObs, ObsConfig};
use crate::sqlfront::SqlFrontend;
use crate::ticket::{QueryTicket, TicketState, WorkloadDecision};

/// Point-in-time engine telemetry, read from the engine's registry (all
/// counters cumulative since startup, except `pending`, which is a live
/// level). See the [module docs](self) for what holds between the fields.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Queries submitted via `Engine::submit` (and accepted `submit_sql`).
    pub submitted: u64,
    /// Tickets resolved with a successful prediction.
    pub served: u64,
    /// Tickets resolved with an error.
    pub failed: u64,
    /// Queries waiting for their window to close at snapshot time (level,
    /// not cumulative).
    pub pending: u64,
    /// Workload windows scored (each resolves `window_len` tickets).
    pub windows: u64,
    /// Models the engine installed into its handle (reloads + published
    /// retrains).
    pub swaps: u64,
    /// Executed queries passed to `Engine::observe`.
    pub observed: u64,
    /// Background retraining passes that published a new model.
    pub retrains: u64,
    /// Background retraining passes that failed (model kept serving).
    pub retrain_failures: u64,
    /// SQL statements accepted by `Engine::submit_sql`.
    pub sql_parse_ok: u64,
    /// SQL statements rejected by `Engine::submit_sql`.
    pub sql_parse_errors: u64,
    /// Median window-scoring latency (µs, interpolated within its
    /// log bucket; 0 before the first window).
    pub p50_latency_us: f64,
    /// 99th-percentile window-scoring latency (µs, interpolated).
    pub p99_latency_us: f64,
}

impl StatsSnapshot {
    /// Tickets resolved either way; equals `submitted` once every window is
    /// flushed — the reconciliation invariant the stress test asserts.
    pub fn resolved(&self) -> u64 {
        self.served + self.failed
    }
}

/// How the engine slices the submission stream into workloads (the paper's
/// §II workload definition, applied at serving time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowPolicy {
    /// Score a window as soon as `s` queries have accumulated — the serving
    /// mirror of the paper's fixed-size workloads (TR4/IN1, `s = 10` in the
    /// evaluation). A value of 0 is treated as 1.
    Count(usize),
    /// Accumulate indefinitely; windows are scored only by explicit
    /// [`Engine::drain`] calls — the variable-length-workload extension
    /// (§I), where the caller decides the window boundary (e.g. an
    /// admission tick).
    Drain,
}

/// Observed records the retrain queue holds before [`Engine::observe`]
/// drops new ones. A retraining pass blocks the consumer, and a caller that
/// observes faster than the retrainer consumes would otherwise grow the
/// queue without bound. The bound is twice the largest burst the
/// repository's examples and tests observe (4,000 records in
/// `examples/serving.rs`), so none of them drops; a full queue of TPC-H
/// records holds about 8 MB.
const RETRAIN_QUEUE_CAPACITY: usize = 8_192;

/// The open window: its records, and the one ticket state every member
/// ticket shares. Scoring resolves that state once.
struct Pending {
    records: Vec<QueryRecord>,
    state: Arc<TicketState>,
}

impl Pending {
    fn new(capacity: usize) -> Self {
        Pending { records: Vec::with_capacity(capacity), state: TicketState::new() }
    }

    /// Takes the window, leaving an empty one sized like it: under steady
    /// traffic the next window fills without regrowing, and a buffer is
    /// never larger than the traffic that filled the last one.
    fn take(&mut self) -> Pending {
        let next = Pending::new(self.records.len());
        std::mem::replace(self, next)
    }
}

struct Retrainer {
    tx: Option<mpsc::SyncSender<QueryRecord>>,
    join: Option<JoinHandle<()>>,
    /// Set by the first observation that finds the thread stopped, so
    /// `retrainer_stopped` is emitted once.
    stopped: AtomicBool,
}

impl Retrainer {
    fn new(tx: mpsc::SyncSender<QueryRecord>, join: Option<JoinHandle<()>>) -> Self {
        Retrainer { tx: Some(tx), join, stopped: AtomicBool::new(false) }
    }
}

impl Drop for Retrainer {
    fn drop(&mut self) {
        // Closing the channel ends the background loop; join so no
        // retraining outlives the engine.
        self.tx.take();
        if let Some(Err(payload)) = self.join.take().map(JoinHandle::join) {
            let message = payload
                .downcast_ref::<&str>()
                .map(|m| m.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            wmp_obs::event!(
                Level::Error,
                target: "wmp_serve::engine",
                "retrainer_panicked",
                error = message,
            );
        }
    }
}

/// A thread-safe serving engine.
///
/// Lifecycle: **submit → window → predict → observe → swap**.
///
/// - [`Engine::submit`] enqueues an arriving query and returns a
///   [`QueryTicket`] immediately.
/// - Once the [`WindowPolicy`] closes a window, the engine pins the current
///   model ([`PredictorHandle::snapshot`]), predicts the window's collective
///   memory, and resolves every member ticket with the same
///   [`WorkloadDecision`].
/// - [`Engine::observe`] feeds executed queries (with their measured true
///   memory) to a background [`OnlineWmp`] retrainer; when a retraining
///   pass completes, the new model is published through the handle without
///   blocking in-flight predictions.
/// - [`Engine::reload`] installs a persisted artifact the same way.
///
/// All methods take `&self`: one `Engine` (or one `Arc<Engine>`) is shared
/// across every request thread.
pub struct Engine {
    handle: PredictorHandle,
    policy: WindowPolicy,
    pending: Mutex<Pending>,
    window_seq: AtomicU64,
    query_seq: AtomicU64,
    pub(crate) obs: Arc<EngineObs>,
    sql: Option<SqlFrontend>,
    retrainer: Option<Retrainer>,
}

impl Engine {
    /// Creates an engine serving through `handle` (no background
    /// retraining; attach it with [`Engine::with_retraining`]).
    pub fn new(handle: PredictorHandle, policy: WindowPolicy) -> Self {
        Engine {
            handle,
            policy,
            pending: Mutex::new(Pending::new(0)),
            window_seq: AtomicU64::new(0),
            query_seq: AtomicU64::new(0),
            obs: Arc::new(EngineObs::new()),
            sql: None,
            retrainer: None,
        }
    }

    /// Attaches a SQL ingestion front-end so queries can arrive as text via
    /// [`Engine::submit_sql`] instead of pre-built [`QueryRecord`]s.
    pub fn with_sql_frontend(mut self, frontend: SqlFrontend) -> Self {
        self.sql = Some(frontend);
        self
    }

    /// Applies `config` to the engine's always-on telemetry: a drift
    /// reference starts publishing `wmp_template_drift_score` from
    /// [`Engine::observe`]d queries (the first reference an engine receives
    /// is kept). Order relative to the other builders does not matter.
    pub fn with_observability(self, config: ObsConfig) -> Self {
        if let Some(reference) = config.drift_reference {
            self.obs.set_drift_reference(reference);
        }
        self
    }

    /// Attaches a background retraining loop: records passed to
    /// [`Engine::observe`] stream into `online` on a dedicated thread, and
    /// every completed retraining pass publishes the new model through this
    /// engine's handle (a codec round-trip snapshot, so the published model
    /// predicts bit-identically to the retrainer's). Warm-start `online`
    /// first if predictions should flow before the first pass.
    pub fn with_retraining(mut self, online: OnlineWmp, catalog: Catalog) -> Self {
        let (tx, rx) = mpsc::sync_channel::<QueryRecord>(RETRAIN_QUEUE_CAPACITY);
        let handle = self.handle.clone();
        let obs = Arc::clone(&self.obs);
        let join = std::thread::spawn(move || {
            let mut online = online;
            while let Ok(record) = rx.recv() {
                match online.observe(record, &catalog) {
                    Ok(outcome) if outcome.retrained() => {
                        // The codec round trip is bit-exact, so the
                        // published copy predicts identically to the
                        // retrainer's private model while sharing no
                        // mutable state with readers.
                        let published = online
                            .model()
                            .ok_or(MlError::NotFitted("OnlineWmp after retrain"))
                            .and_then(LearnedWmp::codec_clone);
                        match published {
                            Ok(model) => {
                                let outcome = handle.swap(model);
                                obs.swaps.inc();
                                obs.retrains.inc();
                                wmp_obs::event!(
                                    Level::Info,
                                    target: "wmp_serve::engine",
                                    "retrain_published",
                                    version = outcome.version,
                                    passes = online.retrain_count(),
                                );
                            }
                            Err(e) => {
                                obs.retrain_failures.inc();
                                wmp_obs::event!(
                                    Level::Warn,
                                    target: "wmp_serve::engine",
                                    "retrain_publish_failed",
                                    error = e.to_string(),
                                );
                            }
                        }
                    }
                    Ok(_) => {}
                    Err(e) => {
                        obs.retrain_failures.inc();
                        wmp_obs::event!(
                            Level::Warn,
                            target: "wmp_serve::engine",
                            "retrain_failed",
                            error = e.to_string(),
                        );
                    }
                }
            }
        });
        self.retrainer = Some(Retrainer::new(tx, Some(join)));
        self
    }

    /// Submits one arriving query. Returns immediately with a ticket that
    /// resolves when the query's window is scored. If this submission closes
    /// a [`WindowPolicy::Count`] window, the window is scored on the calling
    /// thread before returning (so the returned ticket is already resolved).
    pub fn submit(&self, record: QueryRecord) -> QueryTicket {
        // ordering: Relaxed — ticket sequence numbers only need uniqueness,
        // not ordering against any other memory.
        let seq = self.query_seq.fetch_add(1, Ordering::Relaxed);
        // Counted before the query enters the pending window (rule 1 of the
        // module docs); the pending lock orders it for window scorers.
        self.obs.submitted.inc();

        let (state, closed) = {
            let mut pending =
                self.pending.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            pending.records.push(record);
            let state = Arc::clone(&pending.state);
            let closed = match self.policy {
                WindowPolicy::Count(s) if pending.records.len() >= s.max(1) => Some(pending.take()),
                _ => None,
            };
            // Set under the lock, so the last write is the latest length.
            self.obs.pending.set(pending.records.len() as f64);
            (state, closed)
        };
        if let Some(window) = closed {
            self.score_window(window);
        }
        QueryTicket { seq, state }
    }

    /// Submits one query as SQL text: parses it under the attached
    /// front-end's dialect, lowers it against the catalog, prices it, and
    /// enqueues the result exactly like [`Engine::submit`].
    ///
    /// # Errors
    /// A span-carrying [`wmp_sql::ParseError`] when the statement is
    /// rejected (malformed, unsupported construct, unknown identifier), or
    /// a zero-span `Unsupported` error when no front-end is attached (see
    /// [`Engine::with_sql_frontend`]). Rejected statements never panic and
    /// never enter a window; parse outcomes are counted as
    /// `wmp_sql_parse_ok_total` / `wmp_sql_parse_errors_total`.
    pub fn submit_sql(&self, sql: &str) -> Result<QueryTicket, wmp_sql::ParseError> {
        let Some(frontend) = &self.sql else {
            return Err(wmp_sql::ParseError::Unsupported {
                what: "submit_sql without a SQL front-end (attach with with_sql_frontend)",
                span: wmp_sql::Span::at(0),
            });
        };
        let span = wmp_obs::span!(
            Level::Debug,
            target: "wmp_serve::sql",
            "sql_parse",
            dialect = frontend.dialect().name(),
            bytes = sql.len(),
        );
        let record = frontend.record(sql);
        drop(span);
        match record {
            Ok(record) => {
                self.obs.sql_parse_ok.inc();
                Ok(self.submit(record))
            }
            Err(e) => {
                self.obs.sql_parse_errors.inc();
                wmp_obs::event!(
                    Level::Warn,
                    target: "wmp_serve::sql",
                    "sql_parse_rejected",
                    kind = e.kind(),
                    error = e.to_string(),
                );
                Err(e)
            }
        }
    }

    /// Flushes the current partial window (any policy), scoring whatever has
    /// accumulated. Returns the number of tickets resolved (0 when nothing
    /// was pending).
    pub fn drain(&self) -> usize {
        let window = {
            let mut pending =
                self.pending.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            self.obs.pending.set(0.0);
            (!pending.records.is_empty()).then(|| pending.take())
        };
        let Some(window) = window else { return 0 };
        let n = window.records.len();
        self.score_window(window);
        n
    }

    /// Queries waiting for their window to close.
    pub fn pending_len(&self) -> usize {
        self.pending.lock().unwrap_or_else(std::sync::PoisonError::into_inner).records.len()
    }

    fn score_window(&self, window: Pending) {
        // ordering: Relaxed — window ids need uniqueness only.
        let window_id = self.window_seq.fetch_add(1, Ordering::Relaxed);
        let span = wmp_obs::span!(
            Level::Debug,
            target: "wmp_serve::engine",
            "score_window",
            window_id = window_id,
            window_len = window.records.len(),
        );
        let t0 = Instant::now();
        let snapshot = self.handle.snapshot();
        let refs: Vec<&QueryRecord> = window.records.iter().collect();
        let result = snapshot.predict_resources(&refs);
        self.obs.score_latency.record_duration(t0.elapsed());
        self.obs.windows.inc();
        self.obs.model_version.set(snapshot.version() as f64);
        self.obs.model_age_seconds.set(snapshot.age().as_secs_f64());
        let n = window.records.len() as u64;
        // ordering: Release — pairs with the Acquire fence in `stats` (rule
        // 2 of the module docs): the window left `pending` (the caller took
        // it under the lock) before the Relaxed adds below become visible.
        fence(Ordering::Release);
        let resolution = match result {
            Ok(predicted) => {
                self.obs.served.add(n);
                Ok(WorkloadDecision {
                    window_id,
                    predicted,
                    window_len: window.records.len(),
                    model_version: snapshot.version(),
                })
            }
            Err(e) => {
                self.obs.failed.add(n);
                wmp_obs::event!(
                    Level::Warn,
                    target: "wmp_serve::engine",
                    "window_score_failed",
                    window_id = window_id,
                    error = e.to_string(),
                );
                Err(e)
            }
        };
        window.state.resolve(resolution);
        drop(span);
    }

    /// Feeds one executed query (with its measured resources) to the
    /// telemetry monitors (prediction quality, template drift) and streams
    /// it to the background retrainer. Returns `true` when the retrainer
    /// received the record. Returns `false` when no retrainer is attached,
    /// and also when the record does not reach it:
    /// - the retrainer's bounded queue is full (backpressure): the record
    ///   counts toward `wmp_observations_dropped_total`;
    /// - the retrainer's thread has stopped (it panicked): the record counts
    ///   toward `wmp_observations_undelivered_total`, and the first such
    ///   record emits one `retrainer_stopped` warn event.
    ///
    /// Either way the query is counted and monitored, so monitoring works on
    /// engines that retrain by explicit [`Engine::reload`]/[`Engine::install`]
    /// instead.
    ///
    /// With a retrainer attached, `wmp_queries_observed_total` equals the
    /// `true` returns plus `wmp_observations_dropped_total` plus
    /// `wmp_observations_undelivered_total`.
    pub fn observe(&self, record: QueryRecord) -> bool {
        // Account before forwarding. The quality buffer keeps the record, so
        // it is cloned only when a retrainer channel takes the original; the
        // clone shares the spec and copies only the features.
        self.obs.observed.inc();
        let Some((retrainer, tx)) =
            self.retrainer.as_ref().and_then(|r| r.tx.as_ref().map(|tx| (r, tx)))
        else {
            self.obs.account_observation(self.handle.snapshot().model(), record);
            return false;
        };
        self.obs.account_observation(self.handle.snapshot().model(), record.clone());
        match tx.try_send(record) {
            Ok(()) => true,
            Err(mpsc::TrySendError::Full(_)) => {
                self.obs.observations_dropped.inc();
                false
            }
            Err(mpsc::TrySendError::Disconnected(_)) => {
                self.obs.observations_undelivered.inc();
                // ordering: Relaxed — the flag only dedupes the event.
                if !retrainer.stopped.swap(true, Ordering::Relaxed) {
                    wmp_obs::event!(
                        Level::Warn,
                        target: "wmp_serve::engine",
                        "retrainer_stopped",
                        observed = self.obs.observed.get(),
                    );
                }
                false
            }
        }
    }

    /// Loads a persisted model artifact (see [`LearnedWmp::load_from`]) and
    /// installs it as the serving model; readers switch on their next
    /// snapshot without ever blocking. Returns the new model version.
    ///
    /// # Errors
    /// Propagates artifact open/validation errors; on error the previous
    /// model keeps serving.
    pub fn reload(&self, path: impl AsRef<std::path::Path>) -> MlResult<u64> {
        let model = LearnedWmp::load_from(path)?;
        Ok(self.install(model))
    }

    /// Installs an in-process model as the serving model (the non-file
    /// counterpart of [`Engine::reload`]). Returns the version this
    /// installation published (race-free even if a background retrain
    /// swaps concurrently).
    pub fn install(&self, model: impl WorkloadPredictor + 'static) -> u64 {
        let outcome = self.handle.swap(model);
        self.obs.swaps.inc();
        wmp_obs::event!(
            Level::Info,
            target: "wmp_serve::engine",
            "model_install",
            version = outcome.version,
        );
        outcome.version
    }

    /// The shared predictor handle (clone it to serve the same model
    /// elsewhere, or to swap models from outside the engine).
    pub fn handle(&self) -> &PredictorHandle {
        &self.handle
    }

    /// Point-in-time serving telemetry, read from the same instruments
    /// [`Engine::obs_registry`] exports. The snapshot satisfies
    /// `submitted >= served + failed + pending` even while submissions and
    /// scoring race with this call — see the [module docs](self).
    pub fn stats(&self) -> StatsSnapshot {
        let obs = &self.obs;
        // Rules 2 and 3 of the module docs fix the order of these reads.
        let served = obs.served.get();
        let failed = obs.failed.get();
        // ordering: Acquire — pairs with the Release fence in
        // `score_window`: every submission behind the resolutions read
        // above is visible before `pending` and `submitted` are read.
        fence(Ordering::Acquire);
        let pending = self.pending_len() as u64;
        let latency = obs.score_latency.snapshot();
        let submitted = obs.submitted.get();
        let snap = StatsSnapshot {
            submitted,
            served,
            failed,
            pending,
            windows: obs.windows.get(),
            swaps: obs.swaps.get(),
            observed: obs.observed.get(),
            retrains: obs.retrains.get(),
            retrain_failures: obs.retrain_failures.get(),
            sql_parse_ok: obs.sql_parse_ok.get(),
            sql_parse_errors: obs.sql_parse_errors.get(),
            p50_latency_us: latency.p50,
            p99_latency_us: latency.p99,
        };
        debug_assert!(
            snap.submitted >= snap.resolved() + snap.pending,
            "stats coherence violated: submitted {} < resolved {} + pending {}",
            snap.submitted,
            snap.resolved(),
            snap.pending,
        );
        snap
    }

    /// The engine's private metrics registry — the handle to render
    /// [`wmp_obs::Snapshot::to_prometheus`] /
    /// [`wmp_obs::Snapshot::to_json`] expositions from.
    pub fn obs_registry(&self) -> &wmp_obs::Registry {
        &self.obs.registry
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Never strand a waiter: resolve any un-scored tickets with a typed
        // error instead of leaving them blocked forever.
        let pending = self.pending.get_mut().unwrap_or_else(std::sync::PoisonError::into_inner);
        pending.state.resolve(Err(MlError::EmptyInput(
            "Engine dropped with a partial window (call drain() before shutdown)",
        )));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use learnedwmp_core::{ModelKind, TemplateSpec};

    #[test]
    fn a_full_retrain_queue_drops_and_counts_observations() {
        let log = wmp_workloads::tpcc::generate(60, 15).unwrap();
        let model = LearnedWmp::builder()
            .model(ModelKind::Ridge)
            .templates(TemplateSpec::PlanKMeans { k: 4, seed: 15 })
            .fit(&log)
            .unwrap();
        let mut engine = Engine::new(PredictorHandle::new(model), WindowPolicy::Count(10));
        // A retrainer that never consumes: the queue fills and stays full.
        let (tx, rx) = mpsc::sync_channel(RETRAIN_QUEUE_CAPACITY);
        engine.retrainer = Some(Retrainer::new(tx, None));

        let extra = 5;
        let mut forwarded = 0;
        for r in log.records.iter().cycle().take(RETRAIN_QUEUE_CAPACITY + extra) {
            forwarded += u64::from(engine.observe(r.clone()));
        }
        let dropped = engine.obs.observations_dropped.get();
        assert_eq!(forwarded, RETRAIN_QUEUE_CAPACITY as u64);
        assert_eq!(dropped, extra as u64);
        assert_eq!(engine.stats().observed, forwarded + dropped);

        // A stopped retrainer is not backpressure: its record is
        // undelivered, not dropped.
        drop(rx);
        assert!(!engine.observe(log.records[0].clone()));
        assert_eq!(engine.obs.observations_dropped.get(), dropped);
        assert_eq!(engine.obs.observations_undelivered.get(), 1);
        assert_eq!(engine.stats().observed, forwarded + dropped + 1);
    }

    #[test]
    fn a_panicked_retrainer_is_counted_apart_and_reported() {
        const PANIC: &str = "retrainer panics on its first record";
        // Warn and above only, so sibling tests' spans cannot evict the
        // events this test reads.
        let recorder =
            Arc::new(wmp_obs::RingBufferRecorder::with_capacity(1024).min_level(Level::Warn));
        wmp_obs::set_subscriber(recorder.clone());
        let log = wmp_workloads::tpcc::generate(20, 16).unwrap();
        let model = LearnedWmp::builder()
            .model(ModelKind::Ridge)
            .templates(TemplateSpec::PlanKMeans { k: 2, seed: 16 })
            .fit(&log)
            .unwrap();
        let mut engine = Engine::new(PredictorHandle::new(model), WindowPolicy::Count(10));
        let (tx, rx) = mpsc::sync_channel::<QueryRecord>(RETRAIN_QUEUE_CAPACITY);
        // Closed once the thread has dropped its receiver.
        let (closed_tx, closed_rx) = mpsc::channel::<()>();
        let join = std::thread::spawn(move || {
            let first = rx.recv();
            drop(rx);
            drop(closed_tx);
            if first.is_ok() {
                panic!("{PANIC}");
            }
        });
        engine.retrainer = Some(Retrainer::new(tx, Some(join)));

        assert!(engine.observe(log.records[0].clone()), "the live thread receives");
        assert_eq!(
            closed_rx.recv_timeout(std::time::Duration::from_secs(10)),
            Err(mpsc::RecvTimeoutError::Disconnected),
            "the retrainer thread never stopped"
        );
        for r in &log.records[1..3] {
            assert!(!engine.observe(r.clone()));
        }
        assert_eq!(engine.obs.observations_dropped.get(), 0, "a dead thread is not backpressure");
        assert_eq!(engine.obs.observations_undelivered.get(), 2);
        assert_eq!(engine.stats().observed, 3);
        drop(engine);
        wmp_obs::clear_subscriber();

        let events = recorder.events();
        let named = |name: &str| events.iter().filter(|e| e.name == name).count();
        // Other tests in this binary may stop a retrainer concurrently, so
        // at least one stop, and exactly one panic carrying this message.
        assert!(named("retrainer_stopped") >= 1);
        let panics = events
            .iter()
            .filter(|e| e.name == "retrainer_panicked")
            .filter(|e| e.field("error").and_then(|v| v.as_str()) == Some(PANIC))
            .count();
        assert_eq!(panics, 1, "drop reports the thread's panic payload");
    }
}
