//! # learnedwmp — workload memory prediction using distributions of query templates
//!
//! A from-scratch Rust reproduction of *"LearnedWMP: Workload Memory
//! Prediction Using Distribution of Query Templates"* (EDBT 2026,
//! arXiv:2401.12103): predict the working-memory demand of a **batch of SQL
//! queries** from the histogram of its queries over learned query templates,
//! rather than summing per-query estimates.
//!
//! This facade re-exports the workspace crates:
//!
//! | crate | contents |
//! |---|---|
//! | [`core`] ([`learnedwmp_core`]) | LearnedWMP + SingleWMP pipelines, templates, histograms, evaluation |
//! | [`mlkit`] ([`wmp_mlkit`]) | from-scratch ML: k-means, DBSCAN, Ridge, CART, Random Forest, GBDT, MLP |
//! | [`plan`] ([`wmp_plan`]) | schema/catalog, cardinality estimation, physical planner, plan features |
//! | [`serve`] ([`wmp_serve`]) | thread-safe serving engine: streaming windows, shared handles, hot model swap |
//! | [`sched`] ([`wmp_sched`]) | discrete-event multi-tenant capacity scheduler: placement policies, SLA costs, log replay |
//! | [`sim`] ([`wmp_sim`]) | executor memory simulator (ground truth) + DBMS heuristic baseline + executor/cluster capacity model |
//! | [`sql`] ([`wmp_sql`]) | SQL front-end: tokenizer, dialect-aware parser, lowering to [`plan`] query specs |
//! | [`workloads`] ([`wmp_workloads`]) | TPC-DS / JOB / TPC-C / TPC-H style generators and query logs |
//! | [`text`] ([`wmp_text`]) | SQL tokenization, bag-of-words, text-mining, word embeddings |
//! | [`obs`] ([`wmp_obs`]) | observability: metrics registry, tracing facade, drift monitor |
//!
//! ## Quickstart
//!
//! ```
//! use learnedwmp::core::{LearnedWmp, ModelKind, TemplateSpec, WorkloadPredictor};
//!
//! // 1. Generate an executed-query log (here: a small TPC-C-style corpus).
//! let log = learnedwmp::workloads::tpcc::generate(400, 7).unwrap();
//!
//! // 2. Train LearnedWMP through the validated builder: k-means templates
//! //    over plan features, then a distribution regressor over workload
//! //    histograms.
//! let model = LearnedWmp::builder()
//!     .model(ModelKind::Xgb)
//!     .templates(TemplateSpec::PlanKMeans { k: 8, seed: 42 })
//!     .batch_size(10)
//!     .fit(&log)
//!     .unwrap();
//!
//! // 3. Persist the trained model and reload it — the reloaded artifact
//! //    predicts bit-identically (train once, load many).
//! let mut artifact = Vec::new();
//! model.save_to_writer(&mut artifact).unwrap();
//! let served = LearnedWmp::load_from_reader(&mut artifact.as_slice()).unwrap();
//!
//! // 4. Predict the collective memory demand of a 10-query workload through
//! //    the uniform `WorkloadPredictor` trait (every family implements it).
//! let workload: Vec<_> = log.records.iter().take(10).collect();
//! let predictor: &dyn WorkloadPredictor = &served;
//! let predicted_mb = predictor.predict_resources(&workload).unwrap().memory_mb;
//! assert!(predicted_mb > 0.0);
//! assert_eq!(predicted_mb, model.predict_resources(&workload).unwrap().memory_mb);
//! ```
//!
//! ## SQL ingestion
//!
//! Queries can also arrive as SQL text: [`sql`] tokenizes and parses the
//! supported `SELECT` subset under a [`sql::Dialect`] (ANSI, Postgres,
//! MySQL) and lowers the statement against a [`plan::Catalog`] into the
//! same [`plan::query::QuerySpec`] the planner consumes, with typed,
//! span-carrying errors instead of panics. At serving time, attach a
//! [`serve::SqlFrontend`] and feed text straight into
//! [`serve::Engine::submit_sql`]; offline, build a whole
//! [`workloads::QueryLog`] from a text log with
//! [`workloads::QueryLog::from_sql_lines`].
//!
//! ```
//! use learnedwmp::sql::{parse_to_spec, Ansi};
//!
//! let catalog = learnedwmp::workloads::tpch::catalog();
//! let spec = parse_to_spec(
//!     "SELECT COUNT(*) FROM lineitem l WHERE l.l_quantity > 30",
//!     &Ansi,
//!     &catalog,
//! )
//! .unwrap();
//! assert_eq!(&*spec.tables[0].table, "lineitem");
//! assert_eq!(spec.predicates.len(), 1);
//! ```
//!
//! ## Scheduling
//!
//! [`sched`] closes the loop from prediction to decision: it replays a
//! query log as workload windows arriving at a capacity-bounded
//! [`sim::Cluster`] and measures what a placement policy's demand
//! estimates cost — SLA penalties for late starts, stranded capacity for
//! over-reservation, overflow episodes for under-prediction.
//!
//! ```
//! use learnedwmp::plan::ResourceVector;
//! use learnedwmp::sched::{replay, BestFit, DemandSource, ReplayConfig, Scheduler, SlaClass};
//! use learnedwmp::sim::Cluster;
//!
//! let log = learnedwmp::workloads::tpch::generate(300, 7).unwrap();
//! let cluster = Cluster::uniform(3, ResourceVector::new(192.0, f64::INFINITY, f64::INFINITY));
//! let scheduler = Scheduler::new(cluster, Box::new(BestFit))
//!     .with_sla_classes(vec![SlaClass::new(500, 10.0)]);
//! let report =
//!     replay(&log, DemandSource::Oracle, scheduler, &ReplayConfig::default()).unwrap();
//! // Every window ends in exactly one outcome, and the run is costed.
//! assert_eq!(report.placed() + report.rejected, report.workloads);
//! assert!(report.total_cost() >= 0.0);
//! ```

pub use learnedwmp_core as core;
pub use wmp_mlkit as mlkit;
pub use wmp_obs as obs;
pub use wmp_plan as plan;
pub use wmp_sched as sched;
pub use wmp_serve as serve;
pub use wmp_sim as sim;
pub use wmp_sql as sql;
pub use wmp_text as text;
pub use wmp_workloads as workloads;
