//! # wmp-plan — mini query-planning substrate for the LearnedWMP reproduction
//!
//! The paper runs against a commercial DBMS whose optimizer produces query
//! execution plans annotated with estimated cardinalities. This crate rebuilds
//! that substrate from scratch:
//!
//! - [`schema`] / [`catalog`] — tables, columns, statistics, indexes;
//! - [`datamodel`] — the *hidden* truth (predicate correlations, join skew)
//!   that breaks the estimator's independence assumptions;
//! - [`query`] — logical query specifications (rendered to SQL text by
//!   `wmp_sql::render_sql_dialect`);
//! - [`card`] — textbook cardinality estimation (estimates vs. truths);
//! - [`planner`] — access paths, greedy join ordering, join/aggregation
//!   method selection, sort elision;
//! - [`plan`] — physical plan trees, [`features`] — the paper's
//!   `(count, Σ cardinality)`-per-operator featurization (Fig. 2) plus
//!   operator-tree structure features;
//! - [`resource`] — the multi-resource [`ResourceVector`] target,
//!   [`cost`] — the CPU/IO cost model that labels its non-memory
//!   components.

#![warn(missing_docs)]

pub mod card;
pub mod catalog;
pub mod cost;
pub mod datamodel;
pub mod error;
pub mod features;
pub mod plan;
pub mod planner;
pub mod query;
pub mod resource;
pub mod schema;

pub use catalog::Catalog;
pub use cost::{CardSource, CostModel, PlanCost};
pub use error::{PlanError, PlanResult};
pub use plan::{OpKind, Operator, PlanNode, ALL_OP_KINDS};
pub use planner::{Planner, PlannerConfig};
pub use query::{Name, QueryShape, QuerySpec};
pub use resource::{ResourceKind, ResourceVector, N_RESOURCES};
