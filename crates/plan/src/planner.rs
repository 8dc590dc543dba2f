//! Cost-based physical planner: access-path selection, greedy join ordering,
//! join-method selection, aggregation-method selection, sort elision, and
//! limit placement. It produces the operator trees with estimated/true
//! cardinalities that everything downstream (featurization, the memory
//! simulator, the heuristic estimator) consumes.

use crate::card::{join_cards, scan_cards, Cards};
use crate::catalog::Catalog;
use crate::datamodel::estimate_groups;
use crate::error::{PlanError, PlanResult};
use crate::plan::{OpKind, Operator, PlanNode};
use crate::query::{CmpOp, Name, QuerySpec, TableRef};

/// Planner tunables.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Use an index scan when an indexed predicate's selectivity is below
    /// this threshold.
    pub index_scan_max_sel: f64,
    /// Use index nested-loop join when the outer's estimated cardinality is
    /// below this threshold and the inner has an index on the join column.
    pub nl_outer_max_rows: f64,
    /// When `false`, joins are combined in FROM-clause order (left-deep,
    /// no reordering) — the `ablation_planner` baseline.
    pub greedy_join_ordering: bool,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            index_scan_max_sel: 0.05,
            nl_outer_max_rows: 2_000.0,
            greedy_join_ordering: true,
        }
    }
}

/// The planner. Stateless apart from catalog + config; `plan` may be called
/// concurrently from multiple threads.
#[derive(Debug, Clone)]
pub struct Planner<'a> {
    catalog: &'a Catalog,
    config: PlannerConfig,
}

/// A partially joined fragment during join enumeration.
struct Fragment {
    node: PlanNode,
    aliases: Vec<Name>,
    cards: Cards,
    /// `(alias, column)` the output is ordered on, if any.
    sorted_on: Option<(Name, Name)>,
}

impl<'a> Planner<'a> {
    /// Creates a planner with default tunables.
    pub fn new(catalog: &'a Catalog) -> Self {
        Planner { catalog, config: PlannerConfig::default() }
    }

    /// Creates a planner with explicit tunables.
    pub fn with_config(catalog: &'a Catalog, config: PlannerConfig) -> Self {
        Planner { catalog, config }
    }

    /// Plans a query.
    ///
    /// # Errors
    /// Returns [`PlanError`] when the spec references unknown tables, columns,
    /// or aliases, or has no tables.
    pub fn plan(&self, spec: &QuerySpec) -> PlanResult<PlanNode> {
        if spec.tables.is_empty() {
            return Err(PlanError::NoTables);
        }
        let mut fragments: Vec<Fragment> =
            spec.tables.iter().map(|t| self.build_scan(spec, t)).collect::<PlanResult<_>>()?;

        // Join enumeration.
        while fragments.len() > 1 {
            let (i, j, edge) = self.pick_next_join(spec, &fragments)?;
            // Take both inputs out by value, the higher index first so the
            // lower stays valid, and build the join from the owned nodes.
            let (left, right) = if i > j {
                let left = fragments.remove(i);
                (left, fragments.remove(j))
            } else {
                let right = fragments.remove(j);
                (fragments.remove(i), right)
            };
            let joined = match edge {
                Some((ei, cards)) => self.build_join(spec, left, right, ei, cards)?,
                None => cross_join(left, right),
            };
            fragments.push(joined);
        }
        let mut current = fragments.pop().expect("one fragment remains");

        // Aggregation.
        if !spec.group_by.is_empty() {
            current = self.add_group_by(spec, current)?;
        } else if !spec.aggregates.is_empty() {
            // Scalar aggregate: streaming, one output row.
            let width = 16 + 16 * spec.aggregates.len() as u32;
            let node = PlanNode::unary(
                Operator::StreamAggregate { n_aggs: spec.aggregates.len() },
                current.node,
                1.0,
                1.0,
                width,
            );
            current = Fragment {
                node,
                aliases: current.aliases,
                cards: Cards { est: 1.0, truth: 1.0 },
                sorted_on: None,
            };
        }

        // DISTINCT (hash-based duplicate elimination over the current output).
        if spec.distinct {
            let out = Cards {
                est: (current.cards.est * 0.5).max(1.0),
                truth: (current.cards.truth * 0.5).max(1.0),
            };
            let width = current.node.row_width;
            let node =
                PlanNode::unary(Operator::HashDistinct, current.node, out.est, out.truth, width);
            current = Fragment { node, aliases: current.aliases, cards: out, sorted_on: None };
        }

        // ORDER BY with sort elision.
        if let Some(first_key) = spec.order_by.first() {
            if current.sorted_on.as_ref() != Some(first_key) {
                let keys: Vec<String> =
                    spec.order_by.iter().map(|(a, c)| format!("{a}.{c}")).collect();
                let width = current.node.row_width;
                let cards = current.cards;
                let node = PlanNode::unary(
                    Operator::Sort { keys },
                    current.node,
                    cards.est,
                    cards.truth,
                    width,
                );
                current = Fragment {
                    node,
                    aliases: current.aliases,
                    cards,
                    sorted_on: Some(first_key.clone()),
                };
            }
        }

        // LIMIT.
        if let Some(n) = spec.limit {
            let out = Cards {
                est: current.cards.est.min(n as f64),
                truth: current.cards.truth.min(n as f64),
            };
            let width = current.node.row_width;
            current.node =
                PlanNode::unary(Operator::Limit { n }, current.node, out.est, out.truth, width);
            current.cards = out;
        }

        Ok(current.node)
    }

    /// Access-path selection for one table reference.
    fn build_scan(&self, spec: &QuerySpec, tref: &TableRef) -> PlanResult<Fragment> {
        let table = self
            .catalog
            .table(&tref.table)
            .ok_or_else(|| PlanError::UnknownTable(tref.table.to_string()))?;
        // Validate predicate columns early so errors surface deterministically.
        for p in spec.predicates_for(&tref.alias) {
            if table.column(&p.column).is_none() {
                return Err(PlanError::UnknownColumn {
                    table: tref.table.to_string(),
                    column: p.column.to_string(),
                });
            }
        }
        let cards = scan_cards(self.catalog, spec, &tref.alias)?;
        let preds = spec.predicates_for(&tref.alias);
        // Pick the most selective sargable indexed predicate.
        let index_pred = preds
            .iter()
            .filter(|p| {
                matches!(
                    p.op,
                    CmpOp::Eq
                        | CmpOp::InList(_)
                        | CmpOp::Between
                        | CmpOp::Le
                        | CmpOp::Lt
                        | CmpOp::Ge
                        | CmpOp::Gt
                ) && self.catalog.has_index(&tref.table, &p.column)
            })
            .min_by(|a, b| a.sel_est.partial_cmp(&b.sel_est).expect("finite selectivity"));
        let width = table.row_width();
        match index_pred {
            Some(p) if p.sel_est <= self.config.index_scan_max_sel => {
                let node = PlanNode::leaf(
                    Operator::IndexScan {
                        table: tref.table.clone(),
                        alias: tref.alias.clone(),
                        column: p.column.clone(),
                    },
                    cards.est,
                    cards.truth,
                    width,
                );
                Ok(Fragment {
                    node,
                    aliases: vec![tref.alias.clone()],
                    cards,
                    sorted_on: Some((tref.alias.clone(), p.column.clone())),
                })
            }
            _ => {
                let node = PlanNode::leaf(
                    Operator::TableScan { table: tref.table.clone(), alias: tref.alias.clone() },
                    cards.est,
                    cards.truth,
                    width,
                );
                Ok(Fragment { node, aliases: vec![tref.alias.clone()], cards, sorted_on: None })
            }
        }
    }

    /// Chooses the next pair of fragments to join: their indices and, when an
    /// edge connects them, that edge and the joined cardinalities. With no
    /// connecting edge it picks the two smallest fragments to cross join.
    fn pick_next_join(&self, spec: &QuerySpec, fragments: &[Fragment]) -> PlanResult<NextJoin> {
        // All candidate (i, j, edge) combinations where an edge connects i and j.
        let mut best: Option<(Cards, usize, usize, usize)> = None; // (joined, i, j, edge_idx)
        for (ei, edge) in spec.joins.iter().enumerate() {
            let li = fragments.iter().position(|f| f.aliases.contains(&edge.left_alias));
            let ri = fragments.iter().position(|f| f.aliases.contains(&edge.right_alias));
            let (Some(li), Some(ri)) = (li, ri) else {
                return Err(PlanError::UnknownAlias(format!(
                    "{} or {}",
                    edge.left_alias, edge.right_alias
                )));
            };
            if li == ri {
                continue; // edge already internal to one fragment
            }
            let joined = join_cards(
                self.catalog,
                spec,
                &edge.left_alias,
                &edge.left_col,
                &edge.right_alias,
                &edge.right_col,
                fragments[li].cards,
                fragments[ri].cards,
            )?;
            let better = match (&best, self.config.greedy_join_ordering) {
                (None, _) => true,
                (Some((b, ..)), true) => joined.est < b.est,
                // Non-greedy: keep the first (FROM-order) connected edge.
                (Some(_), false) => false,
            };
            if better {
                best = Some((joined, li, ri, ei));
            }
        }

        if let Some((joined, li, ri, ei)) = best {
            return Ok((li, ri, Some((ei, joined))));
        }
        let mut order: Vec<usize> = (0..fragments.len()).collect();
        order.sort_by(|&a, &b| {
            fragments[a]
                .cards
                .est
                .partial_cmp(&fragments[b].cards.est)
                .expect("finite cardinalities")
        });
        Ok((order[0], order[1], None))
    }

    /// Join-method selection for a chosen pair.
    fn build_join(
        &self,
        spec: &QuerySpec,
        left: Fragment,
        right: Fragment,
        edge_idx: usize,
        cards: Cards,
    ) -> PlanResult<Fragment> {
        let edge = &spec.joins[edge_idx];
        // Orient: `outer` holds the edge's left alias.
        let (mut outer, mut inner, inner_alias, inner_col, outer_key, inner_key) =
            if left.aliases.contains(&edge.left_alias) {
                (
                    left,
                    right,
                    &edge.right_alias,
                    &edge.right_col,
                    (edge.left_alias.clone(), edge.left_col.clone()),
                    (edge.right_alias.clone(), edge.right_col.clone()),
                )
            } else {
                (
                    right,
                    left,
                    &edge.left_alias,
                    &edge.left_col,
                    (edge.right_alias.clone(), edge.right_col.clone()),
                    (edge.left_alias.clone(), edge.left_col.clone()),
                )
            };
        let inner_table = spec
            .table_of_alias(inner_alias)
            .ok_or_else(|| PlanError::UnknownAlias(inner_alias.to_string()))?;
        let mut aliases = std::mem::take(&mut outer.aliases);
        let inner_is_base = inner.aliases.len() == 1
            && matches!(inner.node.op.kind(), OpKind::TableScan | OpKind::IndexScan);
        aliases.append(&mut inner.aliases);

        // Index nested-loop: small outer, indexed single-table inner.
        if inner_is_base
            && self.catalog.has_index(inner_table, inner_col)
            && outer.cards.est <= self.config.nl_outer_max_rows
        {
            let node = join_node(Operator::NestedLoopJoin, outer.node, inner.node, cards);
            return Ok(Fragment { node, aliases, cards, sorted_on: outer.sorted_on });
        }

        // Merge join: both inputs already ordered on the join keys.
        if outer.sorted_on.as_ref() == Some(&outer_key)
            && inner.sorted_on.as_ref() == Some(&inner_key)
        {
            let node = join_node(Operator::MergeJoin, outer.node, inner.node, cards);
            return Ok(Fragment { node, aliases, cards, sorted_on: Some(outer_key) });
        }

        // Hash join: build on the smaller estimated input (children[1] = build).
        let (probe, build) =
            if outer.cards.est >= inner.cards.est { (outer, inner) } else { (inner, outer) };
        let node = join_node(Operator::HashJoin, probe.node, build.node, cards);
        Ok(Fragment { node, aliases, cards, sorted_on: probe.sorted_on })
    }

    /// GROUP BY: hash vs. stream aggregation.
    fn add_group_by(&self, spec: &QuerySpec, input: Fragment) -> PlanResult<Fragment> {
        let mut ndv_product_est = 1.0f64;
        let mut ndv_product_true = 1.0f64;
        let mut width: u32 = 16;
        for (alias, col) in &spec.group_by {
            let table_name = spec
                .table_of_alias(alias)
                .ok_or_else(|| PlanError::UnknownAlias(alias.to_string()))?;
            let (_, column) = self.catalog.column(table_name, col).ok_or_else(|| {
                PlanError::UnknownColumn { table: table_name.to_string(), column: col.to_string() }
            })?;
            ndv_product_est = (ndv_product_est * column.ndv as f64).min(1e18);
            ndv_product_true = (ndv_product_true * column.ndv as f64).min(1e18);
            width += column.ty.width_bytes();
        }
        width += 16 * spec.aggregates.len().max(1) as u32;
        let groups = Cards {
            est: estimate_groups(input.cards.est, ndv_product_est.min(input.cards.est)).max(1.0),
            truth: estimate_groups(input.cards.truth, ndv_product_true.min(input.cards.truth))
                .max(1.0),
        };
        let streaming = input.sorted_on.as_ref() == spec.group_by.first();
        let op = if streaming {
            Operator::StreamAggregate { n_aggs: spec.aggregates.len() }
        } else {
            Operator::HashAggregate {
                n_group_cols: spec.group_by.len(),
                n_aggs: spec.aggregates.len(),
            }
        };
        let node = PlanNode::unary(op, input.node, groups.est, groups.truth, width);
        Ok(Fragment { node, aliases: input.aliases, cards: groups, sorted_on: None })
    }
}

/// [`Planner::pick_next_join`]'s choice: two fragment indices and, when an
/// edge connects them, the edge's index and the joined cardinalities.
type NextJoin = (usize, usize, Option<(usize, Cards)>);

/// Cross joins two fragments that no edge connects, `a` as the outer input.
fn cross_join(mut a: Fragment, mut b: Fragment) -> Fragment {
    let cards = Cards {
        est: (a.cards.est * b.cards.est).max(1.0),
        truth: (a.cards.truth * b.cards.truth).max(1.0),
    };
    a.aliases.append(&mut b.aliases);
    let node = join_node(Operator::NestedLoopJoin, a.node, b.node, cards);
    Fragment { node, aliases: a.aliases, cards, sorted_on: None }
}

/// A join node over two owned inputs, as wide as both.
fn join_node(op: Operator, first: PlanNode, second: PlanNode, cards: Cards) -> PlanNode {
    let row_width = first.row_width + second.row_width;
    PlanNode {
        op,
        children: vec![first, second],
        est_rows: cards.est,
        true_rows: cards.truth,
        row_width,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{AggFunc, Aggregate, JoinEdge, Predicate};
    use crate::schema::{Column, ColumnType, Table};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_table(Table::new(
            "fact",
            1_000_000,
            vec![
                Column::new("f_id", ColumnType::BigInt, 1_000_000),
                Column::new("f_dim", ColumnType::Int, 10_000),
                Column::new("f_val", ColumnType::Decimal, 500_000),
                Column::new("f_cat", ColumnType::Int, 50),
            ],
        ));
        cat.add_table(Table::new(
            "dim",
            10_000,
            vec![
                Column::new("d_id", ColumnType::Int, 10_000),
                Column::new("d_attr", ColumnType::Char(10), 100),
            ],
        ));
        cat.add_index("dim", "d_id", true);
        cat.add_index("fact", "f_id", true);
        cat
    }

    fn eq_pred(alias: &str, col: &str, sel: f64) -> Predicate {
        Predicate {
            table_alias: alias.into(),
            column: col.into(),
            op: CmpOp::Eq,
            literal: "1".into(),
            sel_est: sel,
            sel_true: sel,
        }
    }

    fn star_query() -> QuerySpec {
        QuerySpec {
            id: 1,
            tables: vec![TableRef::new("fact", "f"), TableRef::new("dim", "d")],
            joins: vec![JoinEdge {
                left_alias: "f".into(),
                left_col: "f_dim".into(),
                right_alias: "d".into(),
                right_col: "d_id".into(),
            }],
            predicates: vec![eq_pred("d", "d_attr", 0.01)],
            group_by: vec![("f".into(), "f_cat".into())],
            aggregates: vec![Aggregate {
                func: AggFunc::Sum,
                table_alias: "f".into(),
                column: "f_val".into(),
            }],
            order_by: vec![("f".into(), "f_cat".into())],
            distinct: false,
            limit: Some(100),
        }
    }

    #[test]
    fn plans_star_join_with_expected_operators() {
        let cat = catalog();
        let planner = Planner::new(&cat);
        let plan = planner.plan(&star_query()).unwrap();
        assert_eq!(plan.op.kind(), OpKind::Limit);
        assert_eq!(plan.count_kind(OpKind::Sort), 1);
        assert_eq!(plan.count_kind(OpKind::HashAggregate), 1);
        // f is large and unsorted; d gets filtered: hash join expected.
        assert_eq!(plan.count_kind(OpKind::HashJoin), 1);
        assert_eq!(plan.count_kind(OpKind::TableScan), 2, "no usable index predicate");
    }

    #[test]
    fn hash_join_builds_on_smaller_side() {
        let cat = catalog();
        let planner = Planner::new(&cat);
        let plan = planner.plan(&star_query()).unwrap();
        let hj = plan.iter().find(|n| n.op.kind() == OpKind::HashJoin).unwrap();
        assert!(hj.children[1].est_rows < hj.children[0].est_rows, "children[1] is build");
    }

    #[test]
    fn index_scan_chosen_for_selective_indexed_predicate() {
        let cat = catalog();
        let planner = Planner::new(&cat);
        let spec = QuerySpec {
            tables: vec![TableRef::new("dim", "d")],
            predicates: vec![eq_pred("d", "d_id", 1.0 / 10_000.0)],
            ..QuerySpec::default()
        };
        let plan = planner.plan(&spec).unwrap();
        assert_eq!(plan.op.kind(), OpKind::IndexScan);
        assert!((plan.est_rows - 1.0).abs() < 1.0);
    }

    #[test]
    fn table_scan_for_unselective_predicate() {
        let cat = catalog();
        let planner = Planner::new(&cat);
        let spec = QuerySpec {
            tables: vec![TableRef::new("dim", "d")],
            predicates: vec![eq_pred("d", "d_attr", 0.5)],
            ..QuerySpec::default()
        };
        let plan = planner.plan(&spec).unwrap();
        assert_eq!(plan.op.kind(), OpKind::TableScan);
    }

    #[test]
    fn nested_loop_join_for_tiny_outer_with_indexed_inner() {
        let cat = catalog();
        let planner = Planner::new(&cat);
        let spec = QuerySpec {
            tables: vec![TableRef::new("dim", "d"), TableRef::new("fact", "f")],
            joins: vec![JoinEdge {
                left_alias: "d".into(),
                left_col: "d_id".into(),
                right_alias: "f".into(),
                right_col: "f_id".into(),
            }],
            // Tiny outer: a single dim row.
            predicates: vec![eq_pred("d", "d_id", 1.0 / 10_000.0)],
            ..QuerySpec::default()
        };
        let plan = planner.plan(&spec).unwrap();
        assert_eq!(plan.op.kind(), OpKind::NestedLoopJoin);
    }

    #[test]
    fn scalar_aggregate_becomes_stream_aggregate() {
        let cat = catalog();
        let planner = Planner::new(&cat);
        let spec = QuerySpec {
            tables: vec![TableRef::new("fact", "f")],
            aggregates: vec![Aggregate {
                func: AggFunc::Min,
                table_alias: "f".into(),
                column: "f_val".into(),
            }],
            ..QuerySpec::default()
        };
        let plan = planner.plan(&spec).unwrap();
        assert_eq!(plan.op.kind(), OpKind::StreamAggregate);
        assert_eq!(plan.est_rows, 1.0);
    }

    #[test]
    fn sort_elided_when_input_already_ordered() {
        let cat = catalog();
        let planner = Planner::new(&cat);
        let spec = QuerySpec {
            tables: vec![TableRef::new("dim", "d")],
            predicates: vec![eq_pred("d", "d_id", 0.0001)],
            order_by: vec![("d".into(), "d_id".into())],
            ..QuerySpec::default()
        };
        let plan = planner.plan(&spec).unwrap();
        assert_eq!(plan.count_kind(OpKind::Sort), 0, "index scan already orders by d_id");
    }

    #[test]
    fn sort_added_when_order_differs() {
        let cat = catalog();
        let planner = Planner::new(&cat);
        let spec = QuerySpec {
            tables: vec![TableRef::new("dim", "d")],
            predicates: vec![eq_pred("d", "d_id", 0.0001)],
            order_by: vec![("d".into(), "d_attr".into())],
            ..QuerySpec::default()
        };
        let plan = planner.plan(&spec).unwrap();
        assert_eq!(plan.count_kind(OpKind::Sort), 1);
    }

    #[test]
    fn distinct_adds_hash_distinct() {
        let cat = catalog();
        let planner = Planner::new(&cat);
        let spec = QuerySpec {
            tables: vec![TableRef::new("dim", "d")],
            distinct: true,
            ..QuerySpec::default()
        };
        let plan = planner.plan(&spec).unwrap();
        assert_eq!(plan.op.kind(), OpKind::HashDistinct);
        assert!(plan.est_rows <= 10_000.0 * 0.5 + 1.0);
    }

    #[test]
    fn limit_caps_cardinalities() {
        let cat = catalog();
        let planner = Planner::new(&cat);
        let spec = QuerySpec {
            tables: vec![TableRef::new("fact", "f")],
            limit: Some(10),
            ..QuerySpec::default()
        };
        let plan = planner.plan(&spec).unwrap();
        assert_eq!(plan.op.kind(), OpKind::Limit);
        assert_eq!(plan.est_rows, 10.0);
        assert_eq!(plan.true_rows, 10.0);
    }

    #[test]
    fn cross_join_fallback_without_edges() {
        let cat = catalog();
        let planner = Planner::new(&cat);
        let spec = QuerySpec {
            tables: vec![TableRef::new("dim", "d"), TableRef::new("fact", "f")],
            ..QuerySpec::default()
        };
        let plan = planner.plan(&spec).unwrap();
        assert_eq!(plan.op.kind(), OpKind::NestedLoopJoin);
        assert!((plan.est_rows - 10_000.0 * 1_000_000.0).abs() < 1.0);
    }

    #[test]
    fn errors_surface_for_bad_specs() {
        let cat = catalog();
        let planner = Planner::new(&cat);
        assert_eq!(planner.plan(&QuerySpec::default()), Err(PlanError::NoTables));
        let spec = QuerySpec { tables: vec![TableRef::new("nope", "n")], ..QuerySpec::default() };
        assert!(matches!(planner.plan(&spec), Err(PlanError::UnknownTable(_))));
        let spec = QuerySpec {
            tables: vec![TableRef::new("dim", "d")],
            predicates: vec![eq_pred("d", "nope", 0.5)],
            ..QuerySpec::default()
        };
        assert!(matches!(planner.plan(&spec), Err(PlanError::UnknownColumn { .. })));
        let spec = QuerySpec {
            tables: vec![TableRef::new("dim", "d")],
            group_by: vec![("zz".into(), "d_attr".into())],
            ..QuerySpec::default()
        };
        assert!(matches!(planner.plan(&spec), Err(PlanError::UnknownAlias(_))));
    }

    #[test]
    fn greedy_ordering_can_differ_from_from_order() {
        // Three-table chain where greedy starts from the filtered dim table.
        let cat = catalog();
        let spec = QuerySpec {
            tables: vec![
                TableRef::new("fact", "f1"),
                TableRef::new("fact", "f2"),
                TableRef::new("dim", "d"),
            ],
            joins: vec![
                JoinEdge {
                    left_alias: "f1".into(),
                    left_col: "f_id".into(),
                    right_alias: "f2".into(),
                    right_col: "f_id".into(),
                },
                JoinEdge {
                    left_alias: "f2".into(),
                    left_col: "f_dim".into(),
                    right_alias: "d".into(),
                    right_col: "d_id".into(),
                },
            ],
            predicates: vec![eq_pred("d", "d_attr", 0.01)],
            ..QuerySpec::default()
        };
        let greedy = Planner::new(&cat).plan(&spec).unwrap();
        let fixed = Planner::with_config(
            &cat,
            PlannerConfig { greedy_join_ordering: false, ..PlannerConfig::default() },
        )
        .plan(&spec)
        .unwrap();
        // Both are valid plans over the same tables.
        assert_eq!(greedy.count_kind(OpKind::TableScan) + greedy.count_kind(OpKind::IndexScan), 3);
        assert_eq!(fixed.count_kind(OpKind::TableScan) + fixed.count_kind(OpKind::IndexScan), 3);
        // Greedy must join d (after filtering) before the f1⋈f2 giant.
        let greedy_first_join = greedy
            .iter()
            .filter(|n| {
                matches!(n.op.kind(), OpKind::HashJoin | OpKind::NestedLoopJoin | OpKind::MergeJoin)
            })
            .last()
            .unwrap();
        assert!(greedy_first_join.est_rows <= 1_000_000.0);
    }
}
