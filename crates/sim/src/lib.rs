//! # wmp-sim — working-memory ground truth and the state-of-practice baseline
//!
//! The paper measures each query's actual peak working memory on a commercial
//! DBMS and compares learned predictors against the optimizer's own heuristic
//! memory estimate. This crate substitutes both:
//!
//! - [`executor::ExecutorSimulator`] — a per-operator working-memory model
//!   with pipeline-phase analysis, driven by **true** cardinalities, producing
//!   the label `m` for every query (plus deterministic log-normal run noise);
//! - [`heuristic::DbmsHeuristicEstimator`] — an expert-rule estimator driven
//!   by **estimated** cardinalities (the paper's SingleWMP-DBMS baseline);
//! - [`cluster::Executor`] / [`cluster::Cluster`] — the capacity-accounting
//!   substrate under the multi-tenant scheduler (`wmp_sched`): per-executor
//!   reserved-vs-actual occupancy over a [`wmp_plan::ResourceVector`]
//!   capacity. Admission control is the scheduler's one-executor case: a
//!   budgeted executor admits workloads on *predicted* demand while they
//!   occupy their *actual* demand, so prediction error surfaces as overflow
//!   episodes or stranded capacity.

#![warn(missing_docs)]

pub mod cluster;
pub mod executor;
pub mod heuristic;
pub mod noise;

pub use cluster::{ActualOverruns, CapacityExceeded, Cluster, Executor, PlacedWorkload};
pub use executor::{ExecutorSimulator, MemProfile, MemoryConfig, MB};
pub use heuristic::{DbmsHeuristicEstimator, HeuristicConfig};
