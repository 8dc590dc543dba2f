//! The synthetic "data" behind the catalog: pairwise predicate correlations
//! and join skew. This is what makes the textbook estimator's uniformity and
//! independence assumptions *wrong* in controlled, benchmark-specific ways —
//! the root cause of the paper's weak state-of-practice baseline.

/// Correlation and skew model for a database instance.
///
/// - **Predicate correlation** `rho ∈ [0, 1]` between two columns of the same
///   table: the true joint selectivity of predicates on both columns is
///   boosted from the independence product toward `min(s1, s2)`.
/// - **Join skew** `> 0`: multiplier on the true join output relative to the
///   estimator's `1 / max(ndv)` guess (JOB-style correlated joins have
///   skew ≫ 1, i.e. the estimator under-estimates).
///
/// A catalog declares a handful of each, and the planner looks them up for
/// every candidate join edge and predicate pair, so entries live in small
/// vectors scanned with borrowed names: a lookup allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct CorrelationModel {
    predicate_rho: Vec<([String; 3], f64)>,
    join_skew: Vec<([String; 4], f64)>,
}

/// `(table, col_a, col_b)` in canonical order, so lookups are symmetric.
fn pair_key<'a>(table: &'a str, col_a: &'a str, col_b: &'a str) -> [&'a str; 3] {
    if col_a <= col_b {
        [table, col_a, col_b]
    } else {
        [table, col_b, col_a]
    }
}

/// `(table_a, col_a, table_b, col_b)` in canonical order.
fn join_key<'a>(
    table_a: &'a str,
    col_a: &'a str,
    table_b: &'a str,
    col_b: &'a str,
) -> [&'a str; 4] {
    if (table_a, col_a) <= (table_b, col_b) {
        [table_a, col_a, table_b, col_b]
    } else {
        [table_b, col_b, table_a, col_a]
    }
}

/// Index of the entry stored under `key`, if any.
fn position<const N: usize>(entries: &[([String; N], f64)], key: [&str; N]) -> Option<usize> {
    entries.iter().position(|(k, _)| k.iter().zip(key).all(|(a, b)| a == b))
}

/// The value stored under `key`, if any.
fn lookup<const N: usize>(entries: &[([String; N], f64)], key: [&str; N]) -> Option<f64> {
    position(entries, key).map(|i| entries[i].1)
}

/// Stores `value` under `key`, replacing an earlier declaration.
fn declare<const N: usize>(entries: &mut Vec<([String; N], f64)>, key: [&str; N], value: f64) {
    match position(entries, key) {
        Some(i) => entries[i].1 = value,
        None => entries.push((key.map(str::to_string), value)),
    }
}

impl CorrelationModel {
    /// Empty model: all assumptions hold (everything independent/uniform).
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares correlation `rho` between two columns of `table`.
    pub fn set_predicate_correlation(&mut self, table: &str, col_a: &str, col_b: &str, rho: f64) {
        declare(&mut self.predicate_rho, pair_key(table, col_a, col_b), rho.clamp(0.0, 1.0));
    }

    /// Correlation between two columns (0 when undeclared).
    pub fn predicate_correlation(&self, table: &str, col_a: &str, col_b: &str) -> f64 {
        lookup(&self.predicate_rho, pair_key(table, col_a, col_b)).unwrap_or(0.0)
    }

    /// Declares a join-skew multiplier for an equi-join edge.
    pub fn set_join_skew(
        &mut self,
        table_a: &str,
        col_a: &str,
        table_b: &str,
        col_b: &str,
        skew: f64,
    ) {
        declare(&mut self.join_skew, join_key(table_a, col_a, table_b, col_b), skew.max(1e-6));
    }

    /// Join-skew multiplier (1 when undeclared: estimator assumption holds).
    pub fn join_skew(&self, table_a: &str, col_a: &str, table_b: &str, col_b: &str) -> f64 {
        lookup(&self.join_skew, join_key(table_a, col_a, table_b, col_b)).unwrap_or(1.0)
    }
}

/// Joint selectivity of two predicates with correlation `rho`:
/// `rho = 0` gives the independence product, `rho = 1` gives `min(s1, s2)`
/// (fully correlated), with linear interpolation in between.
pub fn joint_selectivity(s1: f64, s2: f64, rho: f64) -> f64 {
    let independent = s1 * s2;
    let correlated = s1.min(s2);
    (independent + rho.clamp(0.0, 1.0) * (correlated - independent)).clamp(0.0, 1.0)
}

/// Folds a list of `(selectivity, rho_with_previous)` pairs into one joint
/// selectivity, applying [`joint_selectivity`] sequentially. The first
/// predicate's `rho` is ignored.
pub fn fold_selectivities(sels: &[(f64, f64)]) -> f64 {
    let mut acc = 1.0;
    for (i, &(s, rho)) in sels.iter().enumerate() {
        if i == 0 {
            acc = s;
        } else {
            acc = joint_selectivity(acc, s, rho);
        }
    }
    if sels.is_empty() {
        1.0
    } else {
        acc
    }
}

/// Textbook distinct-group estimate for a GROUP BY: the product of per-column
/// distinct counts capped by the input cardinality (Cardenas-style saturation:
/// with `n` rows thrown into `d` buckets, roughly `d·(1 − (1 − 1/d)ⁿ)`
/// buckets are hit).
pub fn estimate_groups(input_rows: f64, ndv_product: f64) -> f64 {
    if input_rows <= 0.0 || ndv_product <= 0.0 {
        return 0.0;
    }
    let d = ndv_product;
    let n = input_rows;
    if n / d > 50.0 {
        // Saturated: essentially every group is hit.
        return d.min(n);
    }
    (d * (1.0 - (1.0 - 1.0 / d).powf(n))).min(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correlation_lookup_is_symmetric() {
        let mut m = CorrelationModel::new();
        m.set_predicate_correlation("t", "a", "b", 0.8);
        assert_eq!(m.predicate_correlation("t", "a", "b"), 0.8);
        assert_eq!(m.predicate_correlation("t", "b", "a"), 0.8);
        assert_eq!(m.predicate_correlation("t", "a", "c"), 0.0);
        assert_eq!(m.predicate_correlation("u", "a", "b"), 0.0);
        // A later declaration of the same pair, in either order, replaces it.
        m.set_predicate_correlation("t", "b", "a", 0.3);
        assert_eq!(m.predicate_correlation("t", "a", "b"), 0.3);
    }

    #[test]
    fn join_skew_lookup_is_symmetric() {
        let mut m = CorrelationModel::new();
        m.set_join_skew("t", "id", "u", "t_id", 3.5);
        assert_eq!(m.join_skew("t", "id", "u", "t_id"), 3.5);
        assert_eq!(m.join_skew("u", "t_id", "t", "id"), 3.5);
        assert_eq!(m.join_skew("t", "id", "v", "t_id"), 1.0);
        m.set_join_skew("u", "t_id", "t", "id", 2.0);
        assert_eq!(m.join_skew("t", "id", "u", "t_id"), 2.0);
    }

    #[test]
    fn correlation_is_clamped() {
        let mut m = CorrelationModel::new();
        m.set_predicate_correlation("t", "a", "b", 2.0);
        assert_eq!(m.predicate_correlation("t", "a", "b"), 1.0);
    }

    #[test]
    fn joint_selectivity_interpolates() {
        assert!((joint_selectivity(0.1, 0.2, 0.0) - 0.02).abs() < 1e-12);
        assert!((joint_selectivity(0.1, 0.2, 1.0) - 0.1).abs() < 1e-12);
        let half = joint_selectivity(0.1, 0.2, 0.5);
        assert!(half > 0.02 && half < 0.1);
    }

    #[test]
    fn fold_selectivities_handles_edge_cases() {
        assert_eq!(fold_selectivities(&[]), 1.0);
        assert_eq!(fold_selectivities(&[(0.3, 0.9)]), 0.3);
        let two_indep = fold_selectivities(&[(0.5, 0.0), (0.5, 0.0)]);
        assert!((two_indep - 0.25).abs() < 1e-12);
        let two_corr = fold_selectivities(&[(0.5, 0.0), (0.5, 1.0)]);
        assert!((two_corr - 0.5).abs() < 1e-12);
    }

    #[test]
    fn group_estimate_is_capped_and_saturates() {
        // Few rows, many potential groups: roughly one group per row.
        let g = estimate_groups(10.0, 1e9);
        assert!((g - 10.0).abs() < 0.1);
        // Many rows, few groups: all groups hit.
        let g = estimate_groups(1e6, 100.0);
        assert!((g - 100.0).abs() < 1e-6);
        // Degenerate inputs.
        assert_eq!(estimate_groups(0.0, 10.0), 0.0);
        assert_eq!(estimate_groups(10.0, 0.0), 0.0);
        // Intermediate regime is between the two extremes.
        let g = estimate_groups(100.0, 100.0);
        assert!(g > 50.0 && g < 100.0);
    }
}
