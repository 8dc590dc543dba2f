//! The executed-query log (`Q_train` of the paper): every generated query is
//! planned, featurized, run through the executor simulator (the multi-resource
//! truth label — memory, CPU, I/O), and priced by the DBMS heuristic (the
//! SingleWMP-DBMS baseline estimate).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use wmp_plan::error::PlanResult;
use wmp_plan::features::featurize_plan;
use wmp_plan::planner::Planner;
use wmp_plan::query::QuerySpec;
use wmp_plan::{Catalog, ResourceVector};
use wmp_sim::{DbmsHeuristicEstimator, ExecutorSimulator};
use wmp_sql::{render_sql_dialect, Ansi};

/// Template hint assigned to text-ingested queries, which have no
/// generator template. Diagnostics only; models never read hints.
pub const NO_TEMPLATE_HINT: usize = usize::MAX;

/// A line of a SQL log that failed to parse or lower (see
/// [`QueryLog::from_sql_lines`]).
#[derive(Debug, Clone)]
pub struct SqlLineError {
    /// 1-based line number in the input text.
    pub line: usize,
    /// The typed, span-carrying rejection.
    pub error: wmp_sql::ParseError,
}

/// One executed query: the paper's `q = (e, p, m)` generalized to a
/// multi-resource label, plus the baseline estimate.
///
/// Cloning a record shares its spec (see [`QuerySpec`]): a clone bumps one
/// reference count and allocates only the `features` buffer, and a drop
/// frees that buffer. That is what lets a caller hand `Engine::submit` an
/// owned copy cheaply.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// Stable query id within the log.
    pub id: u64,
    /// Logical spec (renders to `e` via [`render_sql_dialect`] in [`Ansi`]).
    pub spec: QuerySpec,
    /// Plan features: `(count, Σ est. cardinality)` per operator kind plus
    /// the structural tail (see `wmp_plan::features`).
    pub features: Vec<f64>,
    /// Measured resource consumption — the label. Its memory component is
    /// the paper's `m`; CPU and I/O come from the cost model under true
    /// cardinalities.
    pub resources: ResourceVector,
    /// The optimizer heuristic's resource estimate (SingleWMP-DBMS), driven
    /// by estimated cardinalities.
    pub dbms_estimate: ResourceVector,
    /// The generator's template id (diagnostics only; models never see it).
    pub template_hint: usize,
}

impl QueryRecord {
    /// SQL text of the query.
    pub fn sql(&self) -> String {
        render_sql_dialect(&self.spec, &Ansi)
    }

    /// Actual peak working memory in MB — the memory projection of
    /// [`QueryRecord::resources`] (the paper's scalar label `m`).
    pub fn true_memory_mb(&self) -> f64 {
        self.resources.memory_mb
    }

    /// The optimizer heuristic's memory estimate in MB — the memory
    /// projection of [`QueryRecord::dbms_estimate`].
    pub fn dbms_estimate_mb(&self) -> f64 {
        self.dbms_estimate.memory_mb
    }
}

/// A benchmark's generated query log plus its catalog.
#[derive(Debug, Clone)]
pub struct QueryLog {
    /// Benchmark name ("tpcds", "job", "tpcc").
    pub benchmark: String,
    /// The catalog queries run against.
    pub catalog: Catalog,
    /// Executed queries.
    pub records: Vec<QueryRecord>,
}

impl QueryLog {
    /// Number of queries.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Shuffled train/test split by fraction (the paper uses 80/20).
    pub fn train_test_split(&self, train_frac: f64, seed: u64) -> (Vec<usize>, Vec<usize>) {
        let mut idx: Vec<usize> = (0..self.records.len()).collect();
        idx.shuffle(&mut StdRng::seed_from_u64(seed));
        let n_train = ((self.records.len() as f64) * train_frac).round() as usize;
        let n_train = n_train.min(self.records.len());
        let test = idx.split_off(n_train);
        (idx, test)
    }

    /// Replays the log as a stream of arrival chunks of at most `chunk_size`
    /// queries — the shape a serving engine ingests: an unbounded arrival
    /// stream consumed a few queries at a time, rather than a materialized
    /// batch. The final chunk may be shorter; a `chunk_size` of 0 yields an
    /// empty stream (a resident server must not panic on a bad knob).
    pub fn replay(&self, chunk_size: usize) -> Replay<'_> {
        Replay { records: &self.records, chunk_size }
    }

    /// Builds a log from raw SQL text, one statement per line, parsed under
    /// `dialect` — the ingestion path for a real DBMS query log. Blank lines
    /// and `--` comment lines are skipped. Lines that fail to parse or lower
    /// are *collected*, not fatal: a multi-million-query production log
    /// always contains statements outside the supported subset, and the
    /// caller decides whether the rejection rate is acceptable.
    ///
    /// Records get sequential ids, template hint [`NO_TEMPLATE_HINT`] (text
    /// ingestion has no generator template), and selectivities from the
    /// lowering defaults (`wmp_sql::lower`).
    ///
    /// # Errors
    /// Propagates *planning* errors only — lowering already resolved every
    /// identifier, so these indicate a catalog inconsistency, not bad input.
    pub fn from_sql_lines(
        benchmark: &str,
        catalog: Catalog,
        sql_lines: &str,
        dialect: &dyn wmp_sql::Dialect,
    ) -> PlanResult<(QueryLog, Vec<SqlLineError>)> {
        let mut specs = Vec::new();
        let mut errors = Vec::new();
        let mut next_id = 0u64;
        for (i, line) in sql_lines.lines().enumerate() {
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with("--") {
                continue;
            }
            match wmp_sql::parse_to_spec(trimmed, dialect, &catalog) {
                Ok(mut spec) => {
                    spec.id = next_id;
                    next_id += 1;
                    specs.push((spec, NO_TEMPLATE_HINT));
                }
                Err(error) => errors.push(SqlLineError { line: i + 1, error }),
            }
        }
        let log = build_log(benchmark, catalog, specs)?;
        Ok((log, errors))
    }

    /// Mean true memory (MB) across the log — useful to sanity-check scale.
    pub fn mean_true_memory_mb(&self) -> f64 {
        self.mean_resources().memory_mb
    }

    /// Mean per-resource consumption across the log.
    pub fn mean_resources(&self) -> ResourceVector {
        if self.records.is_empty() {
            return ResourceVector::ZERO;
        }
        self.records
            .iter()
            .map(|r| r.resources)
            .sum::<ResourceVector>()
            .scale(1.0 / self.records.len() as f64)
    }
}

/// Streaming iterator over a [`QueryLog`], created by [`QueryLog::replay`]:
/// yields consecutive record chunks in log order until the log is exhausted.
#[derive(Debug, Clone)]
pub struct Replay<'a> {
    records: &'a [QueryRecord],
    chunk_size: usize,
}

impl<'a> Replay<'a> {
    /// Queries not yet yielded.
    pub fn remaining(&self) -> usize {
        self.records.len()
    }
}

impl<'a> Iterator for Replay<'a> {
    type Item = &'a [QueryRecord];

    fn next(&mut self) -> Option<Self::Item> {
        if self.chunk_size == 0 || self.records.is_empty() {
            return None;
        }
        let take = self.chunk_size.min(self.records.len());
        let (chunk, rest) = self.records.split_at(take);
        self.records = rest;
        Some(chunk)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.chunk_size == 0 {
            return (0, Some(0));
        }
        let n = self.records.len().div_ceil(self.chunk_size);
        (n, Some(n))
    }
}

impl ExactSizeIterator for Replay<'_> {}

/// Plans, simulates, and featurizes one query spec into a [`QueryRecord`].
///
/// # Errors
/// Propagates planning errors (unknown tables/columns/aliases).
pub fn build_record(
    catalog: &Catalog,
    planner: &Planner<'_>,
    simulator: &ExecutorSimulator,
    heuristic: &DbmsHeuristicEstimator,
    spec: QuerySpec,
    template_hint: usize,
) -> PlanResult<QueryRecord> {
    let plan = planner.plan(&spec)?;
    let features = featurize_plan(&plan);
    let resources = simulator.true_resources(&plan, spec.id);
    let dbms_estimate = heuristic.estimate_resources(&plan);
    let _ = catalog; // catalog is implicit in the planner; kept for signature clarity
    Ok(QueryRecord { id: spec.id, spec, features, resources, dbms_estimate, template_hint })
}

/// Builds a full log from specs (convenience wrapper over [`build_record`]).
///
/// # Errors
/// Propagates planning errors.
pub fn build_log(
    benchmark: &str,
    catalog: Catalog,
    specs: Vec<(QuerySpec, usize)>,
) -> PlanResult<QueryLog> {
    build_log_with(benchmark, catalog, specs, wmp_plan::PlannerConfig::default())
}

/// [`build_log`] with explicit planner tunables (used by the
/// `ablation_planner` experiment to compare greedy vs. FROM-order joins).
///
/// # Errors
/// Propagates planning errors.
pub fn build_log_with(
    benchmark: &str,
    catalog: Catalog,
    specs: Vec<(QuerySpec, usize)>,
    planner_config: wmp_plan::PlannerConfig,
) -> PlanResult<QueryLog> {
    let planner = Planner::with_config(&catalog, planner_config);
    let simulator = ExecutorSimulator::new();
    let heuristic = DbmsHeuristicEstimator::new();
    let mut records = Vec::with_capacity(specs.len());
    for (spec, hint) in specs {
        records.push(build_record(&catalog, &planner, &simulator, &heuristic, spec, hint)?);
    }
    Ok(QueryLog { benchmark: benchmark.to_string(), catalog, records })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmp_plan::query::{QueryShape, TableRef};
    use wmp_plan::schema::{Column, ColumnType, Table};

    fn tiny_log(n: usize) -> QueryLog {
        let mut catalog = Catalog::new();
        catalog.add_table(Table::new(
            "t",
            10_000,
            vec![Column::new("a", ColumnType::Int, 100), Column::new("b", ColumnType::Int, 10)],
        ));
        let specs: Vec<(QuerySpec, usize)> = (0..n)
            .map(|i| {
                (
                    QuerySpec::new(
                        i as u64,
                        QueryShape {
                            tables: vec![TableRef::plain("t")],
                            order_by: vec![("t".into(), "a".into())],
                            ..QueryShape::default()
                        },
                    ),
                    i % 3,
                )
            })
            .collect();
        build_log("toy", catalog, specs).unwrap()
    }

    #[test]
    fn build_log_produces_complete_records() {
        let log = tiny_log(5);
        assert_eq!(log.len(), 5);
        assert!(!log.is_empty());
        for r in &log.records {
            assert_eq!(r.features.len(), wmp_plan::features::N_PLAN_FEATURES);
            assert!(r.true_memory_mb() > 0.0);
            assert!(r.dbms_estimate_mb() > 0.0);
            assert!(r.sql().starts_with("SELECT"));
        }
        assert!(log.mean_true_memory_mb() > 0.0);
    }

    #[test]
    fn split_covers_everything_once() {
        let log = tiny_log(10);
        let (train, test) = log.train_test_split(0.8, 42);
        assert_eq!(train.len(), 8);
        assert_eq!(test.len(), 2);
        let mut all: Vec<usize> = train.iter().chain(&test).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn split_is_deterministic_and_seed_sensitive() {
        let log = tiny_log(20);
        assert_eq!(log.train_test_split(0.8, 1), log.train_test_split(0.8, 1));
        assert_ne!(log.train_test_split(0.8, 1).0, log.train_test_split(0.8, 2).0);
    }

    #[test]
    fn extreme_fractions_are_safe() {
        let log = tiny_log(4);
        let (train, test) = log.train_test_split(1.0, 0);
        assert_eq!(train.len(), 4);
        assert!(test.is_empty());
        let (train, test) = log.train_test_split(0.0, 0);
        assert!(train.is_empty());
        assert_eq!(test.len(), 4);
    }

    #[test]
    fn replay_streams_every_record_in_order() {
        let log = tiny_log(10);
        let chunks: Vec<&[QueryRecord]> = log.replay(3).collect();
        assert_eq!(chunks.len(), 4, "10 records in chunks of 3 = 3+3+3+1");
        assert_eq!(chunks[3].len(), 1, "final partial chunk is kept");
        let ids: Vec<u64> = chunks.iter().flat_map(|c| c.iter()).map(|r| r.id).collect();
        assert_eq!(ids, (0..10).collect::<Vec<u64>>(), "log order, no loss");
    }

    #[test]
    fn replay_tracks_progress_and_sizes() {
        let log = tiny_log(7);
        let mut replay = log.replay(2);
        assert_eq!(replay.len(), 4);
        assert_eq!(replay.remaining(), 7);
        replay.next().unwrap();
        assert_eq!(replay.remaining(), 5);
        assert_eq!(replay.len(), 3);
        // Exact division: no trailing empty chunk.
        assert_eq!(log.replay(7).count(), 1);
        // Oversized chunks degrade to one full-log chunk.
        assert_eq!(log.replay(100).next().unwrap().len(), 7);
    }

    #[test]
    fn replay_edge_knobs_do_not_panic() {
        let log = tiny_log(4);
        assert_eq!(log.replay(0).count(), 0, "chunk_size 0 is an empty stream");
        assert_eq!(tiny_log(0).replay(5).count(), 0, "empty log is an empty stream");
    }

    #[test]
    fn from_sql_lines_builds_records_and_collects_rejects() {
        let mut catalog = Catalog::new();
        catalog.add_table(Table::new(
            "t",
            10_000,
            vec![Column::new("a", ColumnType::Int, 100), Column::new("b", ColumnType::Int, 10)],
        ));
        let text = "\
-- replayed production log
SELECT t.a FROM t WHERE t.a = 5

SELECT COUNT(*) FROM t WHERE t.b > 3
DELETE FROM t
SELECT t.a FROM t WHERE t.a = 1 OR t.b = 2
SELECT t.a FROM nope
";
        let (log, errors) =
            QueryLog::from_sql_lines("replay", catalog, text, &wmp_sql::Ansi).unwrap();
        assert_eq!(log.len(), 2, "two parseable statements");
        assert_eq!(log.benchmark, "replay");
        assert_eq!(log.records[0].id, 0);
        assert_eq!(log.records[1].id, 1);
        for r in &log.records {
            assert_eq!(r.template_hint, NO_TEMPLATE_HINT);
            assert!(r.true_memory_mb() > 0.0);
        }
        assert_eq!(errors.len(), 3);
        assert_eq!(errors[0].line, 5, "line numbers point into the original text");
        assert_eq!(errors[0].error.kind(), "unexpected_token"); // DELETE
        assert_eq!(errors[1].error.kind(), "unsupported"); // OR
        assert_eq!(errors[2].error.kind(), "unknown_table"); // nope
    }

    #[test]
    fn from_sql_lines_on_empty_text_is_empty_not_an_error() {
        let (log, errors) =
            QueryLog::from_sql_lines("replay", Catalog::new(), "\n-- nothing\n", &wmp_sql::Ansi)
                .unwrap();
        assert!(log.is_empty());
        assert!(errors.is_empty());
    }

    #[test]
    fn empty_log_mean_is_zero() {
        let log = tiny_log(0);
        assert_eq!(log.mean_true_memory_mb(), 0.0);
        assert!(log.is_empty());
    }
}
