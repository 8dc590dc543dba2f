//! # wmp-workloads — benchmark workload generators
//!
//! The paper evaluates on TPC-DS (93,000 queries from 99 templates), the Join
//! Order Benchmark (2,300 queries from 113 variants over IMDB), and TPC-C
//! (3,958 transactional statements). The TPC kits and IMDB snapshot cannot be
//! shipped, so each module rebuilds the benchmark's *shape* — schema,
//! statistics, correlation structure, query templates, and parameter
//! distributions — and produces a [`log::QueryLog`] of executed queries with
//! plan features, simulator-measured memory labels, and heuristic estimates.
//! Each module's own doc documents its substitution.

#![warn(missing_docs)]

pub mod arrival;
pub mod job;
pub mod log;
pub mod params;
pub mod tpcc;
pub mod tpcds;
pub mod tpch;

pub use arrival::ArrivalProcess;
pub use log::{build_log, build_record, QueryLog, QueryRecord, SqlLineError, NO_TEMPLATE_HINT};
