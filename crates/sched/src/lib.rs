//! # wmp-sched — closed-loop multi-tenant capacity scheduling
//!
//! The paper's pitch is that workload memory prediction enables better
//! scheduling and admission decisions; this crate is where that claim is
//! cashed out. A discrete-event simulator replays a query log as workload
//! windows arriving at N capacity-bounded executors and measures — in one
//! [`ScheduleReport`] — what a placement policy's demand estimates cost:
//!
//! - **SLA penalties** when queueing pushes a window past its tenant's
//!   start deadline ([`SlaClass`]);
//! - **stranded capacity** when reservations exceed what workloads really
//!   use (over-prediction priced by [`CostModel`]);
//! - **overflow episodes** when reality exceeds what was reserved
//!   (under-prediction, the spills/thrashing signal);
//! - **utilization / deferral latency** as the operational health view.
//!
//! The pieces compose orthogonally: a [`wmp_sim::Cluster`] capacity model,
//! a [`PlacementPolicy`] (first-fit / best-fit / prediction-aware with
//! headroom), a [`DemandSource`] (nominal constant, live predictor — a
//! serving engine's hot-swappable [`learnedwmp_core::PredictorHandle`]
//! included — or oracle), and the [`replay()`] driver that streams
//! [`wmp_workloads::QueryLog`] chunks through window → predict → place →
//! complete in virtual time. Everything is deterministic in its seeds: same
//! inputs, bit-identical report.

#![warn(missing_docs)]

pub mod policy;
pub mod replay;
pub mod report;
pub mod scheduler;
pub mod sla;

pub use policy::{BestFit, FirstFit, PlacementPolicy, PredictionAware};
pub use replay::{replay, DemandSource, ReplayConfig};
pub use report::{CostModel, ScheduleReport};
pub use scheduler::{Scheduler, Submitted, WorkloadRequest};
pub use sla::SlaClass;
