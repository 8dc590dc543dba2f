//! The core estimator trait, [`Regressor`]: the fit/predict/persist contract
//! every learner family shares.

use crate::error::{dim_mismatch, MlResult};
use crate::linalg::Matrix;
use crate::multi::MultiHead;

/// A supervised regressor mapping feature rows to a scalar target.
///
/// All models in this crate implement this trait so the LearnedWMP and
/// SingleWMP pipelines can swap learners (DNN / Ridge / DT / RF / XGB) behind
/// one interface, as the paper does in §III-B4.
///
/// The trait is `Send + Sync`: a fitted regressor is immutable state, so a
/// serving engine may share one trained model across concurrent request
/// threads (`&self` prediction from many threads at once). Implementations
/// must not introduce un-synchronized interior mutability — prediction-time
/// caches belong behind a lock or atomics.
pub trait Regressor: Send + Sync {
    /// Fits the model on `x` (one row per example) and targets `y`.
    ///
    /// # Errors
    /// Implementations return dimension/emptiness/numerical errors from
    /// [`crate::error::MlError`].
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> MlResult<()>;

    /// Predicts the target for one feature row.
    ///
    /// # Errors
    /// Returns [`crate::error::MlError::NotFitted`] before `fit`, or a
    /// dimension error if the row width disagrees with the training data.
    fn predict_row(&self, row: &[f64]) -> MlResult<f64>;

    /// Predicts targets for every row of `x`.
    ///
    /// # Errors
    /// Same conditions as [`Regressor::predict_row`].
    fn predict(&self, x: &Matrix) -> MlResult<Vec<f64>> {
        x.row_iter().map(|r| self.predict_row(r)).collect()
    }

    /// Number of target outputs this regressor predicts per row.
    ///
    /// Scalar models report `1` (the default). Multi-output models — native
    /// ([`crate::ridge::Ridge`] after [`Regressor::fit_multi`]) or composite
    /// ([`crate::multi::MultiHead`]) — report the number of fitted heads.
    fn n_outputs(&self) -> usize {
        1
    }

    /// Fits the model on `x` against several target columns at once.
    ///
    /// `targets[t]` is the full column for output `t`; every column must have
    /// one entry per row of `x`. The default implementation only accepts a
    /// single column (delegating to [`Regressor::fit`]); models with genuine
    /// multi-output support override it.
    ///
    /// # Errors
    /// Returns a dimension error when the implementation cannot represent
    /// `targets.len()` outputs, plus any error `fit` itself can produce.
    fn fit_multi(&mut self, x: &Matrix, targets: &[Vec<f64>]) -> MlResult<()> {
        match targets {
            [y] => self.fit(x, y),
            _ => Err(dim_mismatch(
                format!(
                    "1 target column (regressor '{}' is scalar; wrap it in MultiHead for \
                     multi-output training)",
                    self.name()
                ),
                format!("{} target columns", targets.len()),
            )),
        }
    }

    /// Predicts all [`Regressor::n_outputs`] targets for one feature row.
    ///
    /// The first element always corresponds to the target passed to scalar
    /// [`Regressor::fit`], so `predict_row_multi(r)?[0] == predict_row(r)?`
    /// for every model in this crate.
    ///
    /// # Errors
    /// Same conditions as [`Regressor::predict_row`].
    fn predict_row_multi(&self, row: &[f64]) -> MlResult<Vec<f64>> {
        Ok(vec![self.predict_row(row)?])
    }

    /// Downcast hook: returns the composite per-target wrapper if this
    /// regressor is a [`MultiHead`], letting persistence layers tag composite
    /// payloads without `Any`-based downcasting.
    fn as_multi_head(&self) -> Option<&MultiHead> {
        None
    }

    /// Short stable name used in reports ("ridge", "xgb", ...).
    fn name(&self) -> &'static str;

    /// Serializes the fitted parameters with the [`crate::codec`] primitives
    /// so a trained model can be persisted behind the trait object.
    ///
    /// The payload is *parameters only* — no magic or versioning; container
    /// concerns belong to the caller's format. Loading is intentionally not
    /// on the trait: deserialization needs the concrete type, so each model
    /// exposes an inherent `read_params` constructor instead.
    ///
    /// # Errors
    /// Returns [`crate::error::MlError::Codec`] on I/O failure or for models
    /// that do not support persistence (the default).
    fn save_params(&self, _w: &mut dyn std::io::Write) -> MlResult<()> {
        Err(crate::error::MlError::Codec(format!(
            "regressor '{}' does not support persistence",
            self.name()
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed(f64);

    impl Regressor for Fixed {
        fn fit(&mut self, _x: &Matrix, _y: &[f64]) -> MlResult<()> {
            Ok(())
        }
        fn predict_row(&self, _row: &[f64]) -> MlResult<f64> {
            Ok(self.0)
        }
        fn name(&self) -> &'static str {
            "fixed"
        }
    }

    #[test]
    fn default_predict_maps_rows() {
        let m = Fixed(7.0);
        let x = Matrix::zeros(3, 2);
        assert_eq!(m.predict(&x).unwrap(), vec![7.0, 7.0, 7.0]);
    }
}
