//! Accuracy metrics used throughout the evaluation: RMSE (paper eq. 12),
//! MAPE (paper eq. 14), and residual-distribution summaries that stand in for
//! the paper's violin plots (quartiles, IQR — paper eq. 13 — and moments).

use crate::error::{dim_mismatch, MlError, MlResult};

fn check_pair(y_true: &[f64], y_pred: &[f64]) -> MlResult<()> {
    if y_true.is_empty() {
        return Err(MlError::EmptyInput("metrics require at least one observation"));
    }
    if y_true.len() != y_pred.len() {
        return Err(dim_mismatch(
            format!("y_pred.len() == {}", y_true.len()),
            format!("y_pred.len() == {}", y_pred.len()),
        ));
    }
    Ok(())
}

/// Root mean squared error (paper eq. 12).
///
/// # Errors
/// Returns an error for empty or mismatched inputs.
pub fn rmse(y_true: &[f64], y_pred: &[f64]) -> MlResult<f64> {
    check_pair(y_true, y_pred)?;
    let mse = y_true.iter().zip(y_pred).map(|(t, p)| (t - p) * (t - p)).sum::<f64>()
        / y_true.len() as f64;
    Ok(mse.sqrt())
}

/// Mean absolute error.
///
/// # Errors
/// Returns an error for empty or mismatched inputs.
pub fn mae(y_true: &[f64], y_pred: &[f64]) -> MlResult<f64> {
    check_pair(y_true, y_pred)?;
    Ok(y_true.iter().zip(y_pred).map(|(t, p)| (t - p).abs()).sum::<f64>() / y_true.len() as f64)
}

/// Mean absolute percentage error in percent (paper eq. 14).
///
/// Observations with `y_true == 0` are skipped, mirroring the standard
/// definition; if all targets are zero an error is returned.
///
/// # Errors
/// Returns an error for empty/mismatched inputs or all-zero targets.
pub fn mape(y_true: &[f64], y_pred: &[f64]) -> MlResult<f64> {
    check_pair(y_true, y_pred)?;
    let mut sum = 0.0;
    let mut n = 0usize;
    for (t, p) in y_true.iter().zip(y_pred) {
        if *t != 0.0 {
            sum += ((t - p) / t).abs();
            n += 1;
        }
    }
    if n == 0 {
        return Err(MlError::NumericalFailure("MAPE undefined: all targets are zero".into()));
    }
    Ok(sum / n as f64 * 100.0)
}

/// Coefficient of determination R².
///
/// # Errors
/// Returns an error for empty or mismatched inputs.
pub fn r2(y_true: &[f64], y_pred: &[f64]) -> MlResult<f64> {
    check_pair(y_true, y_pred)?;
    let mean = y_true.iter().sum::<f64>() / y_true.len() as f64;
    let ss_tot: f64 = y_true.iter().map(|t| (t - mean) * (t - mean)).sum();
    let ss_res: f64 = y_true.iter().zip(y_pred).map(|(t, p)| (t - p) * (t - p)).sum();
    if ss_tot == 0.0 {
        // Constant target: perfect iff residuals are zero.
        return Ok(if ss_res == 0.0 { 1.0 } else { f64::NEG_INFINITY });
    }
    Ok(1.0 - ss_res / ss_tot)
}

/// Signed residuals `y_true - y_pred` (the quantity the paper's violin plots
/// are drawn from).
///
/// # Errors
/// Returns an error for empty or mismatched inputs.
pub fn residuals(y_true: &[f64], y_pred: &[f64]) -> MlResult<Vec<f64>> {
    check_pair(y_true, y_pred)?;
    Ok(y_true.iter().zip(y_pred).map(|(t, p)| t - p).collect())
}

/// Linear-interpolation quantile (the `qn(·)` of paper eq. 13) over a sorted
/// copy of the data. `q` must be in `[0, 1]`.
///
/// # Errors
/// Returns an error for empty input, a non-finite value (a NaN or infinite
/// prediction has no rank), or `q` outside `[0, 1]`.
pub fn quantile(values: &[f64], q: f64) -> MlResult<f64> {
    if values.is_empty() {
        return Err(MlError::EmptyInput("quantile of empty slice"));
    }
    if !(0.0..=1.0).contains(&q) {
        return Err(MlError::InvalidHyperparameter(format!("quantile q = {q} not in [0, 1]")));
    }
    if let Some(bad) = values.iter().find(|v| !v.is_finite()) {
        return Err(MlError::NumericalFailure(format!("quantile input holds {bad}")));
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Ok(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Five-number + moment summary of a residual distribution — the textual
/// equivalent of one violin in the paper's Fig. 5.
#[derive(Debug, Clone, PartialEq)]
pub struct ResidualSummary {
    /// Smallest residual.
    pub min: f64,
    /// 25th percentile (lower quartile of eq. 13).
    pub q1: f64,
    /// Median (the white dot of a violin plot).
    pub median: f64,
    /// 75th percentile (upper quartile of eq. 13).
    pub q3: f64,
    /// Largest residual.
    pub max: f64,
    /// Mean residual; far from zero means the model is biased (skewed violin).
    pub mean: f64,
    /// Standard deviation (violin width).
    pub std: f64,
    /// Fisher skewness; sign tells whether the tail points to over- or
    /// under-estimation.
    pub skewness: f64,
}

impl ResidualSummary {
    /// Computes the summary from raw residuals.
    ///
    /// # Errors
    /// Returns an error when `residuals` is empty.
    pub fn from_residuals(residuals: &[f64]) -> MlResult<Self> {
        if residuals.is_empty() {
            return Err(MlError::EmptyInput("ResidualSummary"));
        }
        let n = residuals.len() as f64;
        let mean = residuals.iter().sum::<f64>() / n;
        let var = residuals.iter().map(|r| (r - mean) * (r - mean)).sum::<f64>() / n;
        let std = var.sqrt();
        let skewness = if std > 0.0 {
            residuals.iter().map(|r| ((r - mean) / std).powi(3)).sum::<f64>() / n
        } else {
            0.0
        };
        Ok(ResidualSummary {
            min: quantile(residuals, 0.0)?,
            q1: quantile(residuals, 0.25)?,
            median: quantile(residuals, 0.5)?,
            q3: quantile(residuals, 0.75)?,
            max: quantile(residuals, 1.0)?,
            mean,
            std,
            skewness,
        })
    }

    /// Interquartile range `q3 - q1` (paper eq. 13) — the thick bar of a
    /// violin plot; smaller and closer to zero means a better model.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// |median|: distance of the violin's center from zero.
    pub fn center_offset(&self) -> f64 {
        self.median.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmse_known_value() {
        let e = rmse(&[1.0, 2.0, 3.0], &[1.0, 2.0, 5.0]).unwrap();
        assert!((e - (4.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(rmse(&[1.0, 1.0], &[1.0, 1.0]).unwrap(), 0.0);
    }

    #[test]
    fn mae_known_value() {
        assert!((mae(&[0.0, 0.0], &[1.0, -3.0]).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mape_skips_zero_targets() {
        // Only the nonzero target contributes: |100-110|/100 = 10%.
        let m = mape(&[100.0, 0.0], &[110.0, 5.0]).unwrap();
        assert!((m - 10.0).abs() < 1e-12);
        assert!(mape(&[0.0], &[1.0]).is_err());
    }

    #[test]
    fn r2_perfect_and_mean_predictor() {
        assert!((r2(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]).unwrap() - 1.0).abs() < 1e-12);
        // Predicting the mean gives R² = 0.
        assert!(r2(&[1.0, 2.0, 3.0], &[2.0, 2.0, 2.0]).unwrap().abs() < 1e-12);
        assert_eq!(r2(&[5.0, 5.0], &[5.0, 5.0]).unwrap(), 1.0);
    }

    #[test]
    fn metrics_validate_inputs() {
        assert!(rmse(&[], &[]).is_err());
        assert!(rmse(&[1.0], &[1.0, 2.0]).is_err());
        assert!(mape(&[1.0], &[]).is_err());
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0).unwrap(), 1.0);
        assert_eq!(quantile(&v, 1.0).unwrap(), 4.0);
        assert!((quantile(&v, 0.5).unwrap() - 2.5).abs() < 1e-12);
        assert!(quantile(&v, 1.5).is_err());
        assert!(quantile(&[], 0.5).is_err());
    }

    #[test]
    fn non_finite_quantile_input_is_a_numerical_failure() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = quantile(&[1.0, bad, 3.0], 0.5).unwrap_err();
            assert!(matches!(err, MlError::NumericalFailure(_)), "{bad}: {err:?}");
            assert!(ResidualSummary::from_residuals(&[bad]).is_err());
        }
    }

    #[test]
    fn residual_summary_of_symmetric_data_is_centered() {
        let res: Vec<f64> = (-50..=50).map(|i| i as f64).collect();
        let s = ResidualSummary::from_residuals(&res).unwrap();
        assert!(s.median.abs() < 1e-12);
        assert!(s.mean.abs() < 1e-12);
        assert!(s.skewness.abs() < 1e-9);
        assert!((s.iqr() - 50.0).abs() < 1e-9);
        assert_eq!(s.min, -50.0);
        assert_eq!(s.max, 50.0);
    }

    #[test]
    fn residual_summary_detects_bias() {
        // A systematically under-estimating model: residuals all positive.
        let res = vec![10.0, 12.0, 9.0, 14.0, 11.0];
        let s = ResidualSummary::from_residuals(&res).unwrap();
        assert!(s.center_offset() > 8.0);
        assert!(s.mean > 10.0);
    }

    #[test]
    fn residuals_are_signed() {
        let r = residuals(&[3.0, 1.0], &[1.0, 3.0]).unwrap();
        assert_eq!(r, vec![2.0, -2.0]);
    }
}
