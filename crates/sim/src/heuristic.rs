//! The DBMS optimizer's heuristic memory estimator — the paper's
//! **SingleWMP-DBMS** baseline ("the current state of practice in commercial
//! database management systems", §IV).
//!
//! It mirrors how real engines reserve working memory: a rule per operator,
//! written by experts, driven by **estimated** cardinalities and conservative
//! fudge factors, with *no* pipeline analysis (each operator's reservation is
//! simply summed). Its errors therefore combine
//!
//! 1. cardinality-estimation error (independence/uniformity assumptions),
//! 2. rule bias (reserve-the-whole-sort-heap style conservatism, understated
//!    per-entry hash overheads),
//! 3. structural error (summing reservations over-counts operators that never
//!    hold memory at the same time).
//!
//! These are exactly the skewed, wide error distributions the paper's violin
//! plots show for the DBMS baseline.

use wmp_plan::plan::{Operator, PlanNode};
use wmp_plan::{CostModel, ResourceVector};

use crate::executor::MB;

// Rules of the estimator (bytes unless noted).
/// Sort-heap cap the rules reserve against.
const SORT_HEAP_CAP: f64 = 192.0 * MB;
/// Reserve the full cap once the estimated sort input exceeds this fraction
/// of it.
const FULL_RESERVATION_FRACTION: f64 = 0.25;
/// Safety multiplier for in-memory sorts.
const SORT_SAFETY_FACTOR: f64 = 1.5;
/// Assumed per-entry hash-join overhead (the rules understate the real cost
/// — pointer chains, alignment, bucket directories).
const HASH_ENTRY_OVERHEAD: f64 = 16.0;
/// Assumed per-group aggregation overhead (also understated).
const AGG_ENTRY_OVERHEAD: f64 = 24.0;
/// Fixed reservation for scans/streaming operators.
const BASE_RESERVATION: f64 = 0.25 * MB;

/// Rule-based memory estimator.
#[derive(Debug, Clone, Copy, Default)]
pub struct DbmsHeuristicEstimator;

impl DbmsHeuristicEstimator {
    /// Estimator with the fixed rules.
    pub fn new() -> Self {
        DbmsHeuristicEstimator
    }

    /// Estimated working memory of the whole query in megabytes: the sum of
    /// per-operator reservations (no pipeline analysis).
    pub fn estimate_mb(&self, plan: &PlanNode) -> f64 {
        plan.iter().map(|n| self.operator_reservation(n)).sum::<f64>() / MB
    }

    /// Full DBMS-style resource estimate: the memory reservation plus the
    /// cost model's CPU/IO projection — all driven by **estimated**
    /// cardinalities, like a real optimizer's costing.
    pub fn estimate_resources(&self, plan: &PlanNode) -> ResourceVector {
        let cost = CostModel::default().estimated_cost(plan);
        CostModel::with_memory(cost, self.estimate_mb(plan))
    }

    /// The reservation one operator's rule produces, in bytes.
    pub fn operator_reservation(&self, node: &PlanNode) -> f64 {
        match &node.op {
            Operator::TableScan { .. } | Operator::IndexScan { .. } => BASE_RESERVATION,
            Operator::NestedLoopJoin | Operator::MergeJoin | Operator::StreamAggregate { .. } => {
                BASE_RESERVATION
            }
            Operator::Limit { .. } => 0.0,
            Operator::HashJoin => {
                let build = &node.children[1];
                build.est_rows * (build.row_width as f64 + HASH_ENTRY_OVERHEAD) + BASE_RESERVATION
            }
            Operator::Sort { .. } => {
                let input = &node.children[0];
                let data = input.est_rows * input.row_width as f64;
                if data > SORT_HEAP_CAP * FULL_RESERVATION_FRACTION {
                    // "Big sort: grab the whole heap" — expert conservatism.
                    SORT_HEAP_CAP
                } else {
                    data * SORT_SAFETY_FACTOR
                }
            }
            Operator::HashAggregate { .. } | Operator::HashDistinct => {
                node.est_rows * (node.row_width as f64 + AGG_ENTRY_OVERHEAD) + BASE_RESERVATION
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::ExecutorSimulator;
    use wmp_plan::plan::{Operator, PlanNode};

    fn scan(est: f64, truth: f64, width: u32) -> PlanNode {
        PlanNode::leaf(
            Operator::TableScan { table: "t".into(), alias: "t".into() },
            est,
            truth,
            width,
        )
    }

    #[test]
    fn small_sort_reserves_with_safety_factor() {
        let h = DbmsHeuristicEstimator::new();
        let sort = PlanNode::unary(
            Operator::Sort { keys: vec!["t.a".into()] },
            scan(1000.0, 1000.0, 100),
            1000.0,
            1000.0,
            100,
        );
        let est = h.estimate_mb(&sort) * MB;
        let expected = 1000.0 * 100.0 * 1.5 + 0.25 * MB; // sort rule + scan base
        assert!((est - expected).abs() < 1.0);
    }

    #[test]
    fn big_sort_reserves_the_entire_heap() {
        let h = DbmsHeuristicEstimator::new();
        let sort = PlanNode::unary(
            Operator::Sort { keys: vec!["t.a".into()] },
            scan(1e7, 1e7, 100), // 1 GB estimated input
            1e7,
            1e7,
            100,
        );
        let est = h.estimate_mb(&sort) * MB;
        assert!((est - (192.0 * MB + 0.25 * MB)).abs() < 1.0);
    }

    #[test]
    fn reservations_are_summed_without_pipeline_awareness() {
        let h = DbmsHeuristicEstimator::new();
        let join = PlanNode {
            op: Operator::HashJoin,
            children: vec![scan(1e6, 1e6, 100), scan(10_000.0, 10_000.0, 80)],
            est_rows: 1e6,
            true_rows: 1e6,
            row_width: 180,
        };
        let single = h.estimate_mb(&join);
        let stacked =
            PlanNode::unary(Operator::Sort { keys: vec!["x".into()] }, join, 1e6, 1e6, 180);
        let both = h.estimate_mb(&stacked);
        assert!(both > single, "the sort reservation simply adds on top");
    }

    #[test]
    fn underestimates_when_cardinality_estimates_are_low() {
        // True build side is 20x the estimate (correlated predicates): the
        // heuristic, driven by estimates, lands far below the simulator.
        let h = DbmsHeuristicEstimator::new();
        let sim = ExecutorSimulator::new();
        let join = PlanNode {
            op: Operator::HashJoin,
            children: vec![scan(1e6, 1e6, 100), scan(10_000.0, 200_000.0, 80)],
            est_rows: 1e6,
            true_rows: 2e7,
            row_width: 180,
        };
        let est = h.estimate_mb(&join);
        let truth = sim.profile(&join).peak / MB;
        assert!(est < truth * 0.2, "est {est} MB vs truth {truth} MB");
    }

    #[test]
    fn overestimates_moderate_sorts() {
        // A 10 MB accurate sort: rule reserves 1.5x, plus understating nothing
        // else — the heuristic overshoots the simulator's tight number.
        let h = DbmsHeuristicEstimator::new();
        let sim = ExecutorSimulator::new();
        let sort = PlanNode::unary(
            Operator::Sort { keys: vec!["t.a".into()] },
            scan(100_000.0, 100_000.0, 100),
            100_000.0,
            100_000.0,
            100,
        );
        let est = h.estimate_mb(&sort);
        let truth = sim.profile(&sort).peak / MB;
        assert!(est > truth * 1.3, "est {est} MB vs truth {truth} MB");
    }

    #[test]
    fn hash_overheads_are_understated_relative_to_executor() {
        // Exact estimates: the rules' table plus their base reservation still
        // stays below the executor's table, entry overheads and buckets.
        let (h, sim) = (DbmsHeuristicEstimator::new(), ExecutorSimulator::new());
        let join = PlanNode {
            op: Operator::HashJoin,
            children: vec![scan(1e6, 1e6, 100), scan(10_000.0, 10_000.0, 80)],
            est_rows: 1e6,
            true_rows: 1e6,
            row_width: 180,
        };
        let agg = PlanNode::unary(
            Operator::HashAggregate { n_group_cols: 1, n_aggs: 2 },
            scan(1e6, 1e6, 100),
            10_000.0,
            10_000.0,
            64,
        );
        for plan in [join, agg] {
            let (rule, table) = (h.operator_reservation(&plan), sim.profile(&plan).resident);
            assert!(rule < table, "{:?}: rule {rule} vs executor {table}", plan.op);
        }
    }

    #[test]
    fn limit_reserves_nothing() {
        let h = DbmsHeuristicEstimator::new();
        let plan = PlanNode::unary(Operator::Limit { n: 5 }, scan(10.0, 10.0, 50), 5.0, 5.0, 50);
        let base_only = h.estimate_mb(&plan) * MB;
        assert!((base_only - 0.25 * MB).abs() < 1.0);
    }
}
