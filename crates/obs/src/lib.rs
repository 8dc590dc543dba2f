//! # wmp-obs — the observability substrate
//!
//! A dependency-free telemetry layer for the LearnedWMP serving stack (the
//! build environment has no registry access, so — like the vendored
//! `rand`/`proptest` shims — everything here is hand-rolled
//! rather than pulled from the `tracing`/`metrics` ecosystems). Three
//! pillars:
//!
//! 1. **Metrics** ([`metrics`]) — a [`Registry`] of named, labeled,
//!    lock-free [`Counter`]s, [`Gauge`]s, and log-bucketed [`Histogram`]s.
//!    Instrument handles are `Arc`s; updates are single relaxed atomic
//!    operations, so the hot serving path never serializes on telemetry.
//!    [`Registry::snapshot`] materializes a sorted, point-in-time
//!    [`Snapshot`] with Prometheus-text ([`Snapshot::to_prometheus`]) and
//!    JSON ([`Snapshot::to_json`]) renderers.
//! 2. **Tracing** ([`trace`]) — cheap [`event!`]/[`span!`] macros that
//!    dispatch structured [`Event`]s to a process-global, pluggable
//!    [`Subscriber`]: the no-op default costs one relaxed atomic load per
//!    call site, [`RingBufferRecorder`] keeps the last N events for tests
//!    and post-mortems, and [`StderrJsonWriter`] emits JSON lines.
//! 3. **Monitors** ([`monitor`]) — template-distribution drift scoring
//!    ([`DriftMonitor`]: total-variation distance between the live
//!    assignment window and the training distribution — the retraining
//!    trigger signal the Sibyl direction needs). Prediction error is not
//!    computed here: the serving engine scores it with `wmp_mlkit::metrics`
//!    and publishes it through this crate's gauges.
//!
//! The workspace's one JSON module, [`json`], pairs a writer tree
//! ([`JsonValue`]) with a positioned RFC 8259 reader ([`json::parse`]). The
//! writer backs the JSON renderer, the stderr subscriber, and the result
//! files `perfbench` writes; the reader backs the `wmp_analysis`
//! `bench_schema` lint, which checks the committed ones.
//!
//! ## Example
//!
//! ```
//! use wmp_obs::{Level, Registry};
//!
//! let registry = Registry::new();
//! let served = registry.counter("wmp_queries_served_total", "Queries served", &[]);
//! let latency = registry.histogram("wmp_latency_us", "Scoring latency (µs)", &[]);
//! served.add(10);
//! latency.record(250);
//! wmp_obs::event!(Level::Info, target: "example", "window_scored", window_len = 10u64);
//!
//! let snapshot = registry.snapshot();
//! assert!(snapshot.to_prometheus().contains("wmp_queries_served_total 10"));
//! assert!(snapshot.to_json().contains("\"wmp_latency_us\""));
//! ```

#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod monitor;
pub mod trace;

pub use json::JsonValue;
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricSnapshot, MetricValue, Registry, Snapshot,
};
pub use monitor::{total_variation, DriftMonitor};
pub use trace::{
    clear_subscriber, set_subscriber, tracing_enabled, Event, FieldValue, Level, NoopSubscriber,
    RingBufferRecorder, SpanGuard, StderrJsonWriter, Subscriber,
};
