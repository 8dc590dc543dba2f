//! Predicate-parameter sampling: given a column's statistics, draw the
//! literal, the optimizer's *estimated* selectivity, and the *true*
//! selectivity against the synthetic data.
//!
//! The estimate always follows the optimizer playbook (`1/ndv` for equality,
//! magic constants for LIKE); the truth deviates according to the column's
//! declared value distribution — uniform columns behave, Zipf columns have
//! heavy-tailed equality selectivities, and LIKE truths are close to
//! arbitrary. These controlled deviations are the cardinality-error engine
//! behind every benchmark.

use rand::rngs::StdRng;
use rand::Rng;

use wmp_plan::query::{CmpOp, Predicate};
use wmp_plan::schema::{Column, ColumnType, Distribution};

/// The optimizer's default selectivity guess for LIKE predicates (real
/// systems hard-code a constant of this magnitude).
pub const LIKE_DEFAULT_SELECTIVITY: f64 = 0.05;

/// Draws a standard normal via Box-Muller.
fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(1e-12..1.0f64);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Multiplicative log-normal deviation `exp(N(0, sigma))`.
fn lognormal(rng: &mut StdRng, sigma: f64) -> f64 {
    (sigma * standard_normal(rng)).exp()
}

/// How much equality-selectivity truth deviates from `1/ndv` for a column:
/// uniform columns deviate mildly, skewed columns heavily.
fn eq_truth_sigma(col: &Column) -> f64 {
    match col.distribution {
        Distribution::Uniform => 0.18,
        Distribution::Zipf(theta) => 0.45 + 0.25 * theta.min(2.0),
    }
}

/// Renders a literal for a column (deterministic in the RNG stream).
pub fn literal_for(col: &Column, rng: &mut StdRng) -> String {
    match col.ty {
        ColumnType::Int | ColumnType::BigInt => {
            format!("{}", rng.gen_range(0..col.ndv.max(1)))
        }
        ColumnType::Decimal => format!("{:.2}", rng.gen::<f64>() * 1000.0),
        ColumnType::Char(_) | ColumnType::Varchar(_) => {
            format!("'{}_{}'", col.name.to_uppercase(), rng.gen_range(0..col.ndv.max(1)))
        }
        ColumnType::Date => {
            let year = 1998 + rng.gen_range(0..6);
            let month = rng.gen_range(1..=12);
            let day = rng.gen_range(1..=28);
            format!("'{year:04}-{month:02}-{day:02}'")
        }
    }
}

/// Per-bind estimate jitter: a real optimizer's selectivity estimate depends
/// on which histogram bucket the literal lands in, so two binds of the same
/// template get slightly different estimates. This keeps per-query plan
/// features continuous (as on a real system) instead of constant per
/// template.
fn bind_jitter(rng: &mut StdRng) -> f64 {
    lognormal(rng, 0.05)
}

/// Equality predicate `alias.col = literal`.
pub fn draw_eq(alias: &str, col: &Column, rng: &mut StdRng) -> Predicate {
    let sel_est = (1.0 / col.ndv.max(1) as f64 * bind_jitter(rng)).clamp(1e-9, 1.0);
    let sel_true = (sel_est * lognormal(rng, eq_truth_sigma(col))).clamp(1e-9, 1.0);
    Predicate {
        table_alias: alias.into(),
        column: col.name.as_str().into(),
        op: CmpOp::Eq,
        literal: literal_for(col, rng).into(),
        sel_est,
        sel_true,
    }
}

/// IN-list predicate with `k` items.
pub fn draw_in(alias: &str, col: &Column, k: u8, rng: &mut StdRng) -> Predicate {
    let k_eff = (k as u64).min(col.ndv.max(1)) as u8;
    let sel_est = (k_eff as f64 / col.ndv.max(1) as f64 * bind_jitter(rng)).min(1.0);
    let sel_true = (sel_est * lognormal(rng, eq_truth_sigma(col) * 0.8)).clamp(1e-9, 1.0);
    let items: Vec<String> = (0..k_eff).map(|_| literal_for(col, rng)).collect();
    Predicate {
        table_alias: alias.into(),
        column: col.name.as_str().into(),
        op: CmpOp::InList(k_eff),
        literal: items.join(", ").into(),
        sel_est,
        sel_true,
    }
}

/// Range predicate (`BETWEEN`) spanning roughly `frac` of the domain.
pub fn draw_range(alias: &str, col: &Column, frac: f64, rng: &mut StdRng) -> Predicate {
    let sel_est = (frac * bind_jitter(rng)).clamp(1e-6, 1.0);
    let sel_true = (sel_est * lognormal(rng, 0.2)).clamp(1e-9, 1.0);
    let lo = literal_for(col, rng);
    let hi = literal_for(col, rng);
    Predicate {
        table_alias: alias.into(),
        column: col.name.as_str().into(),
        op: CmpOp::Between,
        literal: format!("{lo} AND {hi}").into(),
        sel_est,
        sel_true,
    }
}

/// LIKE predicate: the estimate is the optimizer's hard-coded default; the
/// truth is drawn log-uniformly over several orders of magnitude — matching
/// how wildly pattern-match selectivities actually vary (a major error source
/// in JOB-style workloads).
pub fn draw_like(alias: &str, col: &Column, rng: &mut StdRng) -> Predicate {
    let sel_true = 10f64.powf(rng.gen_range(-2.5..-0.8));
    Predicate {
        table_alias: alias.into(),
        column: col.name.as_str().into(),
        op: CmpOp::Like,
        literal: format!("'%{}%'", literal_for(col, rng).trim_matches('\'')).into(),
        sel_est: LIKE_DEFAULT_SELECTIVITY,
        sel_true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn uniform_col() -> Column {
        Column::new("c_key", ColumnType::Int, 1000)
    }

    fn zipf_col() -> Column {
        Column::new("c_cat", ColumnType::Char(8), 100).with_distribution(Distribution::Zipf(1.5))
    }

    #[test]
    fn eq_estimate_is_one_over_ndv() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = draw_eq("t", &uniform_col(), &mut rng);
        // Bind-dependent estimate: close to 1/ndv but not exactly it.
        assert!((p.sel_est / 0.001).ln().abs() < 0.3);
        assert!(p.sel_true > 0.0 && p.sel_true <= 1.0);
        assert_eq!(p.op, CmpOp::Eq);
        assert_eq!(&*p.table_alias, "t");
    }

    #[test]
    fn zipf_truth_varies_more_than_uniform() {
        let spread = |col: &Column| {
            let mut rng = StdRng::seed_from_u64(3);
            let ratios: Vec<f64> = (0..400)
                .map(|_| draw_eq("t", col, &mut rng).sel_true / (1.0 / col.ndv as f64))
                .collect();
            let logs: Vec<f64> = ratios.iter().map(|r| r.ln()).collect();
            let mean = logs.iter().sum::<f64>() / logs.len() as f64;
            (logs.iter().map(|l| (l - mean) * (l - mean)).sum::<f64>() / logs.len() as f64).sqrt()
        };
        assert!(spread(&zipf_col()) > spread(&uniform_col()) * 2.0);
    }

    #[test]
    fn in_list_scales_estimate_with_k() {
        let mut rng = StdRng::seed_from_u64(2);
        let col = uniform_col();
        let p = draw_in("t", &col, 5, &mut rng);
        assert!((p.sel_est / 0.005).ln().abs() < 0.3);
        assert_eq!(p.op, CmpOp::InList(5));
        assert_eq!(p.literal.split(", ").count(), 5);
    }

    #[test]
    fn in_list_caps_k_at_ndv() {
        let mut rng = StdRng::seed_from_u64(2);
        let col = Column::new("c", ColumnType::Int, 3);
        let p = draw_in("t", &col, 10, &mut rng);
        assert_eq!(p.op, CmpOp::InList(3));
        assert!(p.sel_est > 0.8 && p.sel_est <= 1.0);
    }

    #[test]
    fn range_estimate_matches_requested_fraction() {
        let mut rng = StdRng::seed_from_u64(4);
        let col = Column::new("d_date", ColumnType::Date, 2000);
        let p = draw_range("t", &col, 0.08, &mut rng);
        assert!((p.sel_est / 0.08).ln().abs() < 0.3);
        assert!(p.literal.contains(" AND "));
        assert_eq!(p.op, CmpOp::Between);
    }

    #[test]
    fn like_uses_default_estimate_with_wild_truth() {
        let mut rng = StdRng::seed_from_u64(5);
        let col = Column::new("title", ColumnType::Varchar(100), 100_000);
        let mut min_t = f64::INFINITY;
        let mut max_t = f64::NEG_INFINITY;
        for _ in 0..200 {
            let p = draw_like("t", &col, &mut rng);
            assert_eq!(p.sel_est, LIKE_DEFAULT_SELECTIVITY);
            min_t = min_t.min(p.sel_true);
            max_t = max_t.max(p.sel_true);
        }
        assert!(max_t / min_t > 20.0, "LIKE truths span orders of magnitude");
    }

    #[test]
    fn literals_match_column_types() {
        let mut rng = StdRng::seed_from_u64(6);
        let int_lit = literal_for(&Column::new("a", ColumnType::Int, 50), &mut rng);
        assert!(int_lit.parse::<u64>().is_ok());
        let char_lit = literal_for(&Column::new("b", ColumnType::Char(5), 10), &mut rng);
        assert!(char_lit.starts_with('\'') && char_lit.ends_with('\''));
        let date_lit = literal_for(&Column::new("c", ColumnType::Date, 100), &mut rng);
        assert_eq!(date_lit.len(), 12); // 'YYYY-MM-DD'
        let dec_lit = literal_for(&Column::new("d", ColumnType::Decimal, 10), &mut rng);
        assert!(dec_lit.parse::<f64>().is_ok());
    }

    #[test]
    fn draws_are_deterministic_in_the_seed() {
        let col = uniform_col();
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        assert_eq!(draw_eq("t", &col, &mut a), draw_eq("t", &col, &mut b));
    }
}
