//! Cardinality estimation. Two parallel computations run through planning:
//!
//! - **Estimates** follow the textbook playbook (uniformity + independence)
//!   from visible catalog statistics — what a real optimizer would produce.
//! - **Truths** consult the hidden [`crate::datamodel::CorrelationModel`] and the per-predicate
//!   `sel_true` drawn by the workload generator — what actually flows through
//!   the executor and determines real working memory.
//!
//! The gap between the two is precisely the estimation error the paper blames
//! for the state-of-practice baseline's poor memory predictions.

use crate::catalog::Catalog;
use crate::datamodel::fold_selectivities;
use crate::error::{PlanError, PlanResult};
use crate::query::QuerySpec;

/// Estimated and true cardinalities of one plan fragment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cards {
    /// Optimizer estimate.
    pub est: f64,
    /// Ground truth.
    pub truth: f64,
}

impl Cards {
    /// Ratio `truth / est` (the q-error direction), guarded against zero.
    pub fn underestimation_factor(&self) -> f64 {
        self.truth / self.est.max(1e-9)
    }
}

/// Cardinalities of scanning `alias` with its local predicates applied.
///
/// The estimate multiplies per-predicate selectivities independently; the
/// truth folds the generator-drawn true selectivities with the catalog's
/// hidden pairwise correlations (adjacent predicates in spec order).
///
/// # Errors
/// Returns [`PlanError`] for unknown aliases/tables.
pub fn scan_cards(catalog: &Catalog, spec: &QuerySpec, alias: &str) -> PlanResult<Cards> {
    let table_name =
        spec.table_of_alias(alias).ok_or_else(|| PlanError::UnknownAlias(alias.to_string()))?;
    let table =
        catalog.table(table_name).ok_or_else(|| PlanError::UnknownTable(table_name.to_string()))?;
    let preds = spec.predicates_for(alias);
    let rows = table.row_count as f64;
    if preds.is_empty() {
        return Ok(Cards { est: rows, truth: rows });
    }
    let est_sel: f64 = preds.iter().map(|p| p.sel_est.clamp(0.0, 1.0)).product();
    // Truth: fold true selectivities, boosting adjacent pairs by their
    // declared correlation.
    let mut pairs: Vec<(f64, f64)> = Vec::with_capacity(preds.len());
    for (i, p) in preds.iter().enumerate() {
        let rho = if i == 0 {
            0.0
        } else {
            catalog.correlations.predicate_correlation(table_name, &preds[i - 1].column, &p.column)
        };
        pairs.push((p.sel_true.clamp(0.0, 1.0), rho));
    }
    let true_sel = fold_selectivities(&pairs);
    Ok(Cards { est: (rows * est_sel).max(1.0), truth: (rows * true_sel).max(1.0) })
}

/// Join selectivities for an equi-join between two fragments whose current
/// cardinalities are `left`/`right`.
///
/// Estimate: `1 / max(adjusted ndv)` where each side's distinct count is
/// capped by its current cardinality. Truth: the same containment formula
/// evaluated on true cardinalities, multiplied by the hidden join skew.
///
/// # Errors
/// Returns [`PlanError`] for unknown aliases/tables/columns.
#[allow(clippy::too_many_arguments)]
pub fn join_cards(
    catalog: &Catalog,
    spec: &QuerySpec,
    left_alias: &str,
    left_col: &str,
    right_alias: &str,
    right_col: &str,
    left: Cards,
    right: Cards,
) -> PlanResult<Cards> {
    let lt = spec
        .table_of_alias(left_alias)
        .ok_or_else(|| PlanError::UnknownAlias(left_alias.to_string()))?;
    let rt = spec
        .table_of_alias(right_alias)
        .ok_or_else(|| PlanError::UnknownAlias(right_alias.to_string()))?;
    let (_, lc) = catalog.column(lt, left_col).ok_or_else(|| PlanError::UnknownColumn {
        table: lt.to_string(),
        column: left_col.to_string(),
    })?;
    let (_, rc) = catalog.column(rt, right_col).ok_or_else(|| PlanError::UnknownColumn {
        table: rt.to_string(),
        column: right_col.to_string(),
    })?;
    let est_sel = 1.0 / (lc.ndv as f64).min(left.est).max((rc.ndv as f64).min(right.est)).max(1.0);
    let true_sel_base =
        1.0 / (lc.ndv as f64).min(left.truth).max((rc.ndv as f64).min(right.truth)).max(1.0);
    let skew = catalog.correlations.join_skew(lt, left_col, rt, right_col);
    Ok(Cards {
        est: (left.est * right.est * est_sel).max(1.0),
        truth: (left.truth * right.truth * true_sel_base * skew).max(1.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{CmpOp, Predicate, QueryShape, TableRef};
    use crate::schema::{Column, ColumnType, Table};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_table(Table::new(
            "orders",
            10_000,
            vec![
                Column::new("o_id", ColumnType::Int, 10_000),
                Column::new("o_cust", ColumnType::Int, 1_000),
                Column::new("o_status", ColumnType::Char(1), 5),
                Column::new("o_prio", ColumnType::Char(1), 5),
            ],
        ));
        cat.add_table(Table::new(
            "customer",
            1_000,
            vec![Column::new("c_id", ColumnType::Int, 1_000)],
        ));
        cat
    }

    fn pred(alias: &str, col: &str, se: f64, st: f64) -> Predicate {
        Predicate {
            table_alias: alias.into(),
            column: col.into(),
            op: CmpOp::Eq,
            literal: "'x'".into(),
            sel_est: se,
            sel_true: st,
        }
    }

    fn spec_with(preds: Vec<Predicate>) -> QuerySpec {
        QuerySpec::new(
            0,
            QueryShape {
                tables: vec![TableRef::new("orders", "o"), TableRef::new("customer", "c")],
                predicates: preds,
                ..QueryShape::default()
            },
        )
    }

    #[test]
    fn scan_without_predicates_returns_table_cardinality() {
        let cat = catalog();
        let spec = spec_with(vec![]);
        let c = scan_cards(&cat, &spec, "o").unwrap();
        assert_eq!(c.est, 10_000.0);
        assert_eq!(c.truth, 10_000.0);
    }

    #[test]
    fn independent_predicates_multiply() {
        let cat = catalog();
        let spec = spec_with(vec![pred("o", "o_status", 0.2, 0.2), pred("o", "o_prio", 0.2, 0.2)]);
        let c = scan_cards(&cat, &spec, "o").unwrap();
        assert!((c.est - 10_000.0 * 0.04).abs() < 1e-6);
        assert!((c.truth - 10_000.0 * 0.04).abs() < 1e-6);
    }

    #[test]
    fn correlation_inflates_truth_but_not_estimate() {
        let mut cat = catalog();
        cat.correlations.set_predicate_correlation("orders", "o_status", "o_prio", 1.0);
        let spec = spec_with(vec![pred("o", "o_status", 0.2, 0.2), pred("o", "o_prio", 0.2, 0.2)]);
        let c = scan_cards(&cat, &spec, "o").unwrap();
        assert!((c.est - 400.0).abs() < 1e-6, "estimate keeps the independence product");
        assert!((c.truth - 2000.0).abs() < 1e-6, "truth follows min(s1, s2) under rho=1");
        assert!(c.underestimation_factor() > 4.9);
    }

    #[test]
    fn true_selectivity_differs_from_estimate() {
        let cat = catalog();
        let spec = spec_with(vec![pred("o", "o_status", 0.2, 0.5)]);
        let c = scan_cards(&cat, &spec, "o").unwrap();
        assert_eq!(c.est, 2000.0);
        assert_eq!(c.truth, 5000.0);
    }

    #[test]
    fn pk_fk_join_estimates_left_cardinality() {
        let cat = catalog();
        let spec = spec_with(vec![]);
        let l = Cards { est: 10_000.0, truth: 10_000.0 };
        let r = Cards { est: 1_000.0, truth: 1_000.0 };
        let j = join_cards(&cat, &spec, "o", "o_cust", "c", "c_id", l, r).unwrap();
        // |O ⋈ C| = |O|·|C| / max(ndv) = 10000·1000/1000 = 10000.
        assert!((j.est - 10_000.0).abs() < 1e-6);
        assert!((j.truth - 10_000.0).abs() < 1e-6);
    }

    #[test]
    fn join_skew_inflates_truth_only() {
        let mut cat = catalog();
        cat.correlations.set_join_skew("orders", "o_cust", "customer", "c_id", 4.0);
        let spec = spec_with(vec![]);
        let l = Cards { est: 10_000.0, truth: 10_000.0 };
        let r = Cards { est: 1_000.0, truth: 1_000.0 };
        let j = join_cards(&cat, &spec, "o", "o_cust", "c", "c_id", l, r).unwrap();
        assert!((j.est - 10_000.0).abs() < 1e-6);
        assert!((j.truth - 40_000.0).abs() < 1e-6);
    }

    #[test]
    fn ndv_is_capped_by_fragment_cardinality() {
        let cat = catalog();
        let spec = spec_with(vec![]);
        // Only 10 customer rows survive filters: join selectivity adapts.
        let l = Cards { est: 10_000.0, truth: 10_000.0 };
        let r = Cards { est: 10.0, truth: 10.0 };
        let j = join_cards(&cat, &spec, "o", "o_cust", "c", "c_id", l, r).unwrap();
        // max(min(1000, 10000), min(1000, 10)) = 1000 → 10000*10/1000 = 100.
        assert!((j.est - 100.0).abs() < 1e-6);
    }

    #[test]
    fn errors_on_unknown_objects() {
        let cat = catalog();
        let spec = spec_with(vec![]);
        assert!(matches!(scan_cards(&cat, &spec, "zz"), Err(PlanError::UnknownAlias(_))));
        let l = Cards { est: 1.0, truth: 1.0 };
        assert!(join_cards(&cat, &spec, "o", "nope", "c", "c_id", l, l).is_err());
        assert!(join_cards(&cat, &spec, "zz", "o_cust", "c", "c_id", l, l).is_err());
    }
}
