//! SQL text ingestion for the serving engine: parse under a dialect, lower
//! against the catalog, plan/featurize, and hand the result to
//! [`Engine::submit`](crate::Engine::submit).
//!
//! A production predictor sits in front of a DBMS that speaks SQL, not
//! [`wmp_plan::query::QuerySpec`]s. [`SqlFrontend`] owns everything needed to turn one
//! statement of log text into a [`QueryRecord`] — the catalog, the dialect,
//! and the pricing pipeline. The engine counts accepted and rejected
//! statements (`wmp_sql_parse_ok_total` / `wmp_sql_parse_errors_total`).

use std::sync::atomic::{AtomicU64, Ordering};

use wmp_plan::error::PlanError;
use wmp_plan::planner::Planner;
use wmp_plan::Catalog;
use wmp_sim::{DbmsHeuristicEstimator, ExecutorSimulator};
use wmp_sql::{Dialect, ParseError, Span, SqlResult};
use wmp_workloads::{build_record, QueryRecord, NO_TEMPLATE_HINT};

/// Builds [`QueryRecord`]s from SQL text. Attach to an engine with
/// [`Engine::with_sql_frontend`](crate::Engine::with_sql_frontend); all
/// methods take `&self` and are thread-safe.
pub struct SqlFrontend {
    catalog: Catalog,
    dialect: Box<dyn Dialect>,
    simulator: ExecutorSimulator,
    heuristic: DbmsHeuristicEstimator,
    next_id: AtomicU64,
}

impl SqlFrontend {
    /// Creates a front-end resolving statements against `catalog` under
    /// `dialect`'s lexical rules.
    pub fn new(catalog: Catalog, dialect: Box<dyn Dialect>) -> Self {
        SqlFrontend {
            catalog,
            dialect,
            simulator: ExecutorSimulator::new(),
            heuristic: DbmsHeuristicEstimator::new(),
            next_id: AtomicU64::new(0),
        }
    }

    /// The dialect statements are parsed under.
    pub fn dialect(&self) -> &dyn Dialect {
        self.dialect.as_ref()
    }

    /// Parses one SQL statement into a fully-priced [`QueryRecord`] with a
    /// sequential id and [`NO_TEMPLATE_HINT`].
    ///
    /// # Errors
    /// A span-carrying [`ParseError`] from any stage (tokenize / parse /
    /// lower).
    pub fn record(&self, sql: &str) -> SqlResult<QueryRecord> {
        let mut spec = wmp_sql::parse_to_spec(sql, self.dialect.as_ref(), &self.catalog)?;
        // ordering: Relaxed — ids need uniqueness only.
        spec.id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let planner = Planner::new(&self.catalog);
        build_record(&planner, &self.simulator, &self.heuristic, spec, NO_TEMPLATE_HINT)
            .map_err(plan_to_parse_error)
    }
}

/// Lowering already resolved every identifier, so a planner error here is a
/// catalog inconsistency — still surfaced as a typed (zero-span) parse error
/// rather than a panic, because a resident engine must never die on input.
fn plan_to_parse_error(e: PlanError) -> ParseError {
    let span = Span::at(0);
    match e {
        PlanError::UnknownTable(name) => ParseError::UnknownTable { name, span },
        PlanError::UnknownColumn { table, column } => {
            ParseError::UnknownColumn { table, column, span }
        }
        PlanError::UnknownAlias(alias) => ParseError::UnknownAlias { alias, span },
        PlanError::NoTables => ParseError::Unsupported { what: "query without tables", span },
        // PlanError is #[non_exhaustive]; render future variants through
        // their Display rather than failing to compile against wmp_plan.
        other => ParseError::Planner { message: other.to_string(), span },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmp_sql::{Ansi, Postgres};

    #[test]
    fn builds_priced_records_from_text() {
        let front = SqlFrontend::new(wmp_workloads::tpch::catalog(), Box::new(Ansi));
        let r = front
            .record("SELECT COUNT(*) FROM lineitem l WHERE l.l_quantity > 30")
            .expect("valid SQL");
        assert_eq!(r.id, 0);
        assert_eq!(r.template_hint, NO_TEMPLATE_HINT);
        assert!(r.true_memory_mb() > 0.0);
        assert!(r.dbms_estimate_mb() > 0.0);
        assert!(!r.features.is_empty());
        let r2 = front.record("SELECT l.* FROM lineitem l WHERE l.l_quantity > 10").unwrap();
        assert_eq!(r2.id, 1, "ids are sequential");
    }

    #[test]
    fn rejections_count_and_carry_spans() {
        let front = SqlFrontend::new(wmp_workloads::tpch::catalog(), Box::new(Postgres));
        let e = front.record("SELECT l.* FROM lineitem l WHERE l.l_quantity > $1 OR 1 = 1");
        let e = e.unwrap_err();
        assert_eq!(e.kind(), "unsupported");
        assert!(e.span().end > e.span().start);
        // Valid Postgres still goes through on the same front-end.
        assert!(front.record("SELECT l.* FROM lineitem l WHERE l.l_quantity > $1 LIMIT 5").is_ok());
    }

    #[test]
    fn dialect_is_exposed() {
        let front = SqlFrontend::new(Catalog::new(), Box::new(Postgres));
        assert_eq!(front.dialect().name(), "postgres");
    }
}
