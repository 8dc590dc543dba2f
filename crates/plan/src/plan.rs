//! Physical query plans: operator trees annotated with estimated and true
//! cardinalities — the `p` of the paper's query triple `q = (e, p, m)` and
//! the direct input to both plan featurization (paper Fig. 2) and the
//! working-memory simulator.

use std::fmt;

use crate::query::Name;

/// Flat operator taxonomy used for featurization. The paper's Fig. 2 example
/// features exactly this kind of per-operator-type `(count, cardinality)`
/// pair; our taxonomy covers the operators the mini-planner emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Full table scan (the paper's `TBSCAN`).
    TableScan,
    /// Index range/point scan (the paper's `IXSCAN`).
    IndexScan,
    /// Hash join (the paper's `HSJOIN`); memory-hungry build side.
    HashJoin,
    /// Index nested-loop join.
    NestedLoopJoin,
    /// Merge join over sorted inputs.
    MergeJoin,
    /// Explicit sort (the paper's `SORT`); bounded by the sort heap.
    Sort,
    /// Hash aggregation (the paper's `GROUP BY` in hashed form).
    HashAggregate,
    /// Streaming aggregation over sorted/scalar input.
    StreamAggregate,
    /// Hash-based duplicate elimination.
    HashDistinct,
    /// Row-limit operator.
    Limit,
}

/// Every operator kind in the stable order used by featurization.
pub const ALL_OP_KINDS: [OpKind; 10] = [
    OpKind::TableScan,
    OpKind::IndexScan,
    OpKind::HashJoin,
    OpKind::NestedLoopJoin,
    OpKind::MergeJoin,
    OpKind::Sort,
    OpKind::HashAggregate,
    OpKind::StreamAggregate,
    OpKind::HashDistinct,
    OpKind::Limit,
];

impl OpKind {
    /// Position in [`ALL_OP_KINDS`] (stable across runs; feature layout).
    pub fn index(self) -> usize {
        ALL_OP_KINDS.iter().position(|&k| k == self).expect("kind present in ALL_OP_KINDS")
    }

    /// Short display name (matches common EXPLAIN vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            OpKind::TableScan => "TBSCAN",
            OpKind::IndexScan => "IXSCAN",
            OpKind::HashJoin => "HSJOIN",
            OpKind::NestedLoopJoin => "NLJOIN",
            OpKind::MergeJoin => "MSJOIN",
            OpKind::Sort => "SORT",
            OpKind::HashAggregate => "GRPBY(HASH)",
            OpKind::StreamAggregate => "GRPBY(STREAM)",
            OpKind::HashDistinct => "DISTINCT",
            OpKind::Limit => "LIMIT",
        }
    }
}

/// A physical operator with its parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum Operator {
    /// Sequential scan of a base table.
    TableScan {
        /// Scanned table.
        table: Name,
        /// Alias in the query.
        alias: Name,
    },
    /// Index scan driven by a predicate on `column`.
    IndexScan {
        /// Scanned table.
        table: Name,
        /// Alias in the query.
        alias: Name,
        /// Indexed column that drives the scan.
        column: Name,
    },
    /// Hash join; `children[1]` is always the build side.
    HashJoin,
    /// Index nested-loop join; `children[0]` is the outer.
    NestedLoopJoin,
    /// Merge join over inputs sorted on the join keys.
    MergeJoin,
    /// Sort on the given `alias.column` keys.
    Sort {
        /// Sort keys.
        keys: Vec<String>,
    },
    /// Hash aggregation.
    HashAggregate {
        /// Number of grouping columns.
        n_group_cols: usize,
        /// Number of aggregate expressions.
        n_aggs: usize,
    },
    /// Streaming aggregation (sorted input or scalar aggregate).
    StreamAggregate {
        /// Number of aggregate expressions.
        n_aggs: usize,
    },
    /// Hash-based DISTINCT.
    HashDistinct,
    /// LIMIT n.
    Limit {
        /// Row limit.
        n: u64,
    },
}

impl Operator {
    /// The flat kind of this operator.
    pub fn kind(&self) -> OpKind {
        match self {
            Operator::TableScan { .. } => OpKind::TableScan,
            Operator::IndexScan { .. } => OpKind::IndexScan,
            Operator::HashJoin => OpKind::HashJoin,
            Operator::NestedLoopJoin => OpKind::NestedLoopJoin,
            Operator::MergeJoin => OpKind::MergeJoin,
            Operator::Sort { .. } => OpKind::Sort,
            Operator::HashAggregate { .. } => OpKind::HashAggregate,
            Operator::StreamAggregate { .. } => OpKind::StreamAggregate,
            Operator::HashDistinct => OpKind::HashDistinct,
            Operator::Limit { .. } => OpKind::Limit,
        }
    }
}

/// A node of the physical plan tree.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanNode {
    /// The operator.
    pub op: Operator,
    /// Input plans (execution order: children run before/within the parent).
    pub children: Vec<PlanNode>,
    /// Optimizer-estimated output cardinality (visible to models).
    pub est_rows: f64,
    /// Actual output cardinality against the synthetic data (hidden truth;
    /// drives the memory simulator's ground-truth labels).
    pub true_rows: f64,
    /// Output row width in bytes.
    pub row_width: u32,
}

impl PlanNode {
    /// Leaf constructor.
    pub fn leaf(op: Operator, est_rows: f64, true_rows: f64, row_width: u32) -> Self {
        PlanNode { op, children: Vec::new(), est_rows, true_rows, row_width }
    }

    /// Internal-node constructor.
    pub fn unary(
        op: Operator,
        child: PlanNode,
        est_rows: f64,
        true_rows: f64,
        row_width: u32,
    ) -> Self {
        PlanNode { op, children: vec![child], est_rows, true_rows, row_width }
    }

    /// Pre-order iterator over all nodes.
    pub fn iter(&self) -> PlanIter<'_> {
        PlanIter { stack: vec![self] }
    }

    /// Number of nodes in the plan.
    pub fn n_nodes(&self) -> usize {
        self.iter().count()
    }

    /// Number of nodes of a given kind.
    pub fn count_kind(&self, kind: OpKind) -> usize {
        self.iter().filter(|n| n.op.kind() == kind).count()
    }

    /// EXPLAIN-style indented rendering (est/true rows per operator).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        use std::fmt::Write as _;
        for _ in 0..depth {
            out.push_str("  ");
        }
        let detail = match &self.op {
            Operator::TableScan { table, alias } | Operator::IndexScan { table, alias, .. } => {
                if table == alias {
                    format!(" {table}")
                } else {
                    format!(" {table} as {alias}")
                }
            }
            Operator::Sort { keys } => format!(" by {}", keys.join(", ")),
            Operator::Limit { n } => format!(" {n}"),
            _ => String::new(),
        };
        let _ = writeln!(
            out,
            "{}{} (est_rows={:.0}, true_rows={:.0}, width={}B)",
            self.op.kind().name(),
            detail,
            self.est_rows,
            self.true_rows,
            self.row_width
        );
        for c in &self.children {
            c.explain_into(out, depth + 1);
        }
    }
}

impl fmt::Display for PlanNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.explain())
    }
}

/// Pre-order plan iterator.
pub struct PlanIter<'a> {
    stack: Vec<&'a PlanNode>,
}

impl<'a> Iterator for PlanIter<'a> {
    type Item = &'a PlanNode;

    fn next(&mut self) -> Option<Self::Item> {
        let node = self.stack.pop()?;
        for c in node.children.iter().rev() {
            self.stack.push(c);
        }
        Some(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> PlanNode {
        let scan_a = PlanNode::leaf(
            Operator::TableScan { table: "a".into(), alias: "a".into() },
            1000.0,
            1200.0,
            100,
        );
        let scan_b = PlanNode::leaf(
            Operator::IndexScan { table: "b".into(), alias: "b".into(), column: "id".into() },
            10.0,
            12.0,
            50,
        );
        let join = PlanNode {
            op: Operator::HashJoin,
            children: vec![scan_a, scan_b],
            est_rows: 500.0,
            true_rows: 900.0,
            row_width: 150,
        };
        PlanNode::unary(Operator::Sort { keys: vec!["a.x".into()] }, join, 500.0, 900.0, 150)
    }

    #[test]
    fn op_kind_indices_are_stable_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for (i, k) in ALL_OP_KINDS.iter().enumerate() {
            assert_eq!(k.index(), i);
            assert!(seen.insert(*k));
        }
        assert_eq!(ALL_OP_KINDS.len(), 10);
    }

    #[test]
    fn preorder_iteration_visits_all_nodes() {
        let plan = sample_plan();
        let kinds: Vec<OpKind> = plan.iter().map(|n| n.op.kind()).collect();
        assert_eq!(
            kinds,
            vec![OpKind::Sort, OpKind::HashJoin, OpKind::TableScan, OpKind::IndexScan]
        );
        assert_eq!(plan.n_nodes(), 4);
    }

    #[test]
    fn count_kind_counts_correctly() {
        let plan = sample_plan();
        assert_eq!(plan.count_kind(OpKind::TableScan), 1);
        assert_eq!(plan.count_kind(OpKind::HashJoin), 1);
        assert_eq!(plan.count_kind(OpKind::MergeJoin), 0);
    }

    #[test]
    fn explain_renders_tree_shape() {
        let text = sample_plan().explain();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("SORT"));
        assert!(lines[1].starts_with("  HSJOIN"));
        assert!(lines[2].starts_with("    TBSCAN a"));
        assert!(lines[3].starts_with("    IXSCAN b"));
        assert!(lines[0].contains("est_rows=500"));
        assert!(lines[0].contains("true_rows=900"));
        assert_eq!(format!("{}", sample_plan()), text);
    }

    #[test]
    fn explain_text_is_pinned() {
        let aliased = PlanNode::leaf(
            Operator::TableScan { table: "orders".into(), alias: "o".into() },
            3.0,
            4.0,
            8,
        );
        let plan = PlanNode::unary(Operator::Limit { n: 7 }, aliased, 3.0, 4.0, 8);
        assert_eq!(
            plan.explain(),
            "LIMIT 7 (est_rows=3, true_rows=4, width=8B)\n  \
             TBSCAN orders as o (est_rows=3, true_rows=4, width=8B)\n"
        );
        assert_eq!(
            sample_plan().explain(),
            "SORT by a.x (est_rows=500, true_rows=900, width=150B)\n  \
             HSJOIN (est_rows=500, true_rows=900, width=150B)\n    \
             TBSCAN a (est_rows=1000, true_rows=1200, width=100B)\n    \
             IXSCAN b (est_rows=10, true_rows=12, width=50B)\n"
        );
    }

    #[test]
    fn operator_kind_mapping_is_total() {
        // Every operator constructor maps to the advertised kind.
        assert_eq!(Operator::HashJoin.kind(), OpKind::HashJoin);
        assert_eq!(Operator::NestedLoopJoin.kind(), OpKind::NestedLoopJoin);
        assert_eq!(Operator::MergeJoin.kind(), OpKind::MergeJoin);
        assert_eq!(Operator::HashDistinct.kind(), OpKind::HashDistinct);
        assert_eq!(Operator::Limit { n: 5 }.kind(), OpKind::Limit);
        assert_eq!(
            Operator::HashAggregate { n_group_cols: 1, n_aggs: 2 }.kind(),
            OpKind::HashAggregate
        );
        assert_eq!(Operator::StreamAggregate { n_aggs: 1 }.kind(), OpKind::StreamAggregate);
    }
}
