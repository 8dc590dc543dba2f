//! Shared, hot-swappable predictor handles — the concurrency primitive under
//! the serving engine (`wmp_serve`).
//!
//! The paper's §I deployment story is a *resident* predictor: the model
//! answers memory questions for every arriving workload while a background
//! process periodically retrains it. That demands two properties the plain
//! [`WorkloadPredictor`] trait object does not give:
//!
//! 1. **Shared reads** — N request threads predict through one trained model
//!    concurrently (the trait is `Send + Sync`, so `&self` prediction is
//!    safe from any thread).
//! 2. **Atomic snapshot swap** — a writer installs a retrained or freshly
//!    loaded replacement without blocking readers mid-prediction, and
//!    without any reader ever observing a half-updated model.
//!
//! [`PredictorHandle`] provides both: it is a cheaply-clonable `Arc`-based
//! handle whose [`PredictorHandle::snapshot`] hands out an owned
//! [`ModelSnapshot`] (an `Arc` to the *current* model plus its version).
//! Readers predict through the snapshot entirely outside any lock, so an
//! in-flight prediction always completes against the exact model it started
//! with — swaps only affect which model the *next* snapshot sees.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use wmp_mlkit::MlResult;
use wmp_obs::Level;
use wmp_workloads::QueryRecord;

use crate::predictor::WorkloadPredictor;
use crate::workload::Workload;

/// An owned, coherent view of the model a [`PredictorHandle`] held at
/// snapshot time. Predictions through a snapshot never block and never
/// observe a concurrent swap: the underlying model stays alive (and
/// unchanged) for as long as any snapshot references it.
#[derive(Clone)]
pub struct ModelSnapshot {
    model: Arc<dyn WorkloadPredictor>,
    version: u64,
    installed_at: Instant,
}

impl ModelSnapshot {
    /// Monotonic version of the model this snapshot pinned: `0` for the
    /// handle's initial model, incremented by every swap.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The pinned model.
    pub fn model(&self) -> &dyn WorkloadPredictor {
        self.model.as_ref()
    }

    /// Time since this model version was installed into its handle — the
    /// "model age" signal an operator watches to confirm retraining is
    /// actually publishing (a forever-growing age means the background
    /// loop died or stopped triggering).
    pub fn age(&self) -> Duration {
        self.installed_at.elapsed()
    }
}

impl std::ops::Deref for ModelSnapshot {
    type Target = dyn WorkloadPredictor;

    fn deref(&self) -> &Self::Target {
        self.model.as_ref()
    }
}

impl std::fmt::Debug for ModelSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelSnapshot")
            .field("model", &self.model.name())
            .field("version", &self.version)
            .finish()
    }
}

/// What one [`PredictorHandle::swap`] did: the snapshot it displaced and the
/// version it installed. Reading the version from the outcome (rather than
/// from [`PredictorHandle::version`] afterwards) is race-free when several
/// writers swap concurrently.
#[derive(Debug)]
pub struct SwapOutcome {
    /// The snapshot that was serving before this swap (still usable; it
    /// keeps its model alive).
    pub previous: ModelSnapshot,
    /// The version this swap installed.
    pub version: u64,
}

struct HandleState {
    current: RwLock<ModelSnapshot>,
    /// Version the *next* swap will publish (reads of the current version go
    /// through the snapshot so version and model can never tear).
    next_version: AtomicU64,
}

/// A cheaply-clonable, thread-safe handle to the "current" model.
///
/// Clones share state: a swap through any clone is immediately visible to
/// snapshots taken through every other clone. The lock is held only for the
/// duration of an `Arc` clone (readers) or an `Arc` pointer swap (writers) —
/// never across a prediction — so readers are effectively wait-free with
/// respect to model installation.
#[derive(Clone)]
pub struct PredictorHandle {
    state: Arc<HandleState>,
}

impl PredictorHandle {
    /// Wraps a predictor in a shareable handle (version 0).
    pub fn new(model: impl WorkloadPredictor + 'static) -> Self {
        Self::from_shared(Arc::new(model))
    }

    /// Wraps an already-shared predictor (version 0).
    pub fn from_shared(model: Arc<dyn WorkloadPredictor>) -> Self {
        PredictorHandle {
            state: Arc::new(HandleState {
                current: RwLock::new(ModelSnapshot {
                    model,
                    version: 0,
                    installed_at: Instant::now(),
                }),
                next_version: AtomicU64::new(1),
            }),
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, ModelSnapshot> {
        // A panic while the lock is held can only happen inside `Arc` clone
        // or pointer assignment, which do not unwind; recover from poisoning
        // rather than propagating a crash into every serving thread.
        self.state.current.read().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, ModelSnapshot> {
        self.state.current.write().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Pins the current model into an owned [`ModelSnapshot`]. The returned
    /// snapshot stays coherent regardless of concurrent swaps; take a fresh
    /// snapshot per request (it costs one `Arc` clone) to follow swaps.
    pub fn snapshot(&self) -> ModelSnapshot {
        self.read().clone()
    }

    /// Atomically installs `model` as the new current model. In-flight
    /// predictions keep using the model they snapshotted; only future
    /// snapshots see the replacement.
    pub fn swap(&self, model: impl WorkloadPredictor + 'static) -> SwapOutcome {
        self.swap_shared(Arc::new(model))
    }

    /// [`PredictorHandle::swap`] for an already-shared predictor.
    pub fn swap_shared(&self, model: Arc<dyn WorkloadPredictor>) -> SwapOutcome {
        let mut slot = self.write();
        // Allocate the version while holding the write lock so published
        // versions are monotonic in installation order even under
        // concurrent writers.
        // ordering: Relaxed — the write lock already serializes allocators;
        // the counter only needs atomicity, not publication.
        let version = self.state.next_version.fetch_add(1, Ordering::Relaxed);
        let previous = std::mem::replace(
            &mut *slot,
            ModelSnapshot { model, version, installed_at: Instant::now() },
        );
        drop(slot);
        wmp_obs::event!(
            Level::Info,
            target: "wmp_core::handle",
            "model_swap",
            version = version,
            previous_version = previous.version,
            previous_age_us = previous.installed_at.elapsed().as_micros() as u64,
        );
        SwapOutcome { previous, version }
    }

    /// Version of the model a snapshot taken *now* would pin: 0 until the
    /// first swap, then the number of swaps installed through this handle
    /// (all clones included), since each swap publishes the next version.
    pub fn version(&self) -> u64 {
        self.read().version
    }
}

impl std::fmt::Debug for PredictorHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("PredictorHandle")
            .field("model", &snap.model.name())
            .field("version", &snap.version)
            .finish()
    }
}

/// A handle serves anywhere a predictor is expected: each call pins the
/// current model for exactly one prediction, so a `&PredictorHandle` (or a
/// clone) can be dropped into any existing `WorkloadPredictor` call site and
/// silently gain hot-swap.
impl WorkloadPredictor for PredictorHandle {
    fn name(&self) -> String {
        self.snapshot().name()
    }

    fn predict_resources(&self, queries: &[&QueryRecord]) -> MlResult<wmp_plan::ResourceVector> {
        self.snapshot().predict_resources(queries)
    }

    fn predict_resources_many(
        &self,
        records: &[&QueryRecord],
        workloads: &[Workload],
    ) -> MlResult<Vec<wmp_plan::ResourceVector>> {
        // One snapshot for the whole batch: every workload of the batch is
        // scored by the same model even if a swap lands mid-batch.
        self.snapshot().predict_resources_many(records, workloads)
    }

    fn footprint_bytes(&self) -> usize {
        self.snapshot().footprint_bytes()
    }

    fn assign_template(&self, query: &QueryRecord) -> MlResult<Option<usize>> {
        self.snapshot().assign_template(query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TemplateSpec;
    use crate::model::ModelKind;
    use crate::single::SingleWmpDbms;

    fn trained(seed: u64) -> crate::learned::LearnedWmp {
        let log = wmp_workloads::tpcc::generate(300, seed).unwrap();
        crate::learned::LearnedWmp::builder()
            .model(ModelKind::Ridge)
            .templates(TemplateSpec::PlanKMeans { k: 6, seed })
            .fit(&log)
            .unwrap()
    }

    #[test]
    fn snapshots_pin_the_model_across_swaps() {
        let log = wmp_workloads::tpcc::generate(300, 1).unwrap();
        let probe: Vec<&wmp_workloads::QueryRecord> = log.records[..10].iter().collect();
        let a = trained(1);
        let expect_a = a.predict_resources(&probe).unwrap();
        let handle = PredictorHandle::new(a);
        let pinned = handle.snapshot();
        assert_eq!(pinned.version(), 0);

        let outcome = handle.swap(trained(2));
        assert_eq!(outcome.previous.version(), 0);
        assert_eq!(outcome.version, 1);
        assert_eq!(handle.version(), 1);
        // The old snapshot still answers from the old model, bit-exactly.
        assert_eq!(pinned.predict_resources(&probe).unwrap(), expect_a);
        // A fresh snapshot sees the replacement.
        assert_eq!(handle.snapshot().version(), 1);
    }

    #[test]
    fn clones_share_swaps() {
        let handle = PredictorHandle::new(SingleWmpDbms);
        let clone = handle.clone();
        handle.swap(SingleWmpDbms);
        assert_eq!(clone.version(), 1);
        assert_eq!(clone.name(), "SingleWMP-DBMS");
    }

    #[test]
    fn handle_serves_as_a_workload_predictor() {
        let log = wmp_workloads::tpcc::generate(200, 3).unwrap();
        let probe: Vec<&wmp_workloads::QueryRecord> = log.records[..10].iter().collect();
        let handle = PredictorHandle::new(SingleWmpDbms);
        let p: &dyn WorkloadPredictor = &handle;
        let expected: f64 = probe.iter().map(|q| q.dbms_estimate_mb()).sum();
        assert!((p.predict_resources(&probe).unwrap().memory_mb - expected).abs() < 1e-9);
        assert_eq!(p.footprint_bytes(), 0);
    }
}
