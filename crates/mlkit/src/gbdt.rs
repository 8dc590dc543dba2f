//! Gradient-boosted decision trees with XGBoost-style second-order objective —
//! the paper's "XGB" learner (§III-B4), used for every sensitivity experiment
//! (Figs. 9–11).
//!
//! For squared loss the per-example gradient is `pred − y` and the Hessian is
//! 1, so each boosting round fits a regularized tree to the residuals with the
//! XGBoost gain `½[G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)] − γ` and leaf
//! weights `G/(H+λ)` scaled by the learning rate.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::binned::BinnedMatrix;
use crate::error::{dim_mismatch, MlError, MlResult};
use crate::grow::{Forest, GrowParams};
use crate::linalg::Matrix;
use crate::traits::Regressor;

/// Hyper-parameters for [`GradientBoosting`].
#[derive(Debug, Clone)]
pub struct GradientBoostingConfig {
    /// Number of boosting rounds.
    pub n_estimators: usize,
    /// Shrinkage applied to each tree's contribution.
    pub learning_rate: f64,
    /// Maximum depth per tree.
    pub max_depth: usize,
    /// Minimum samples to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// L2 regularization on leaf weights (XGBoost `lambda`).
    pub lambda: f64,
    /// Minimum split gain (XGBoost `gamma`).
    pub gamma: f64,
    /// Row subsampling fraction per round (stochastic gradient boosting).
    pub subsample: f64,
    /// Number of quantile bins for split finding.
    pub max_bins: usize,
    /// RNG seed for row subsampling.
    pub seed: u64,
    /// Early-stop when the training RMSE improvement over a round falls below
    /// this threshold (`0` disables early stopping).
    pub tol: f64,
}

impl Default for GradientBoostingConfig {
    fn default() -> Self {
        GradientBoostingConfig {
            n_estimators: 100,
            learning_rate: 0.1,
            max_depth: 6,
            min_samples_split: 4,
            min_samples_leaf: 2,
            lambda: 1.0,
            gamma: 0.0,
            subsample: 1.0,
            max_bins: 64,
            seed: 42,
            tol: 0.0,
        }
    }
}

/// Boosted tree ensemble: `pred = base + lr · Σ tree_i`.
#[derive(Debug, Clone)]
pub struct GradientBoosting {
    config: GradientBoostingConfig,
    base_score: f64,
    trees: Forest,
    n_features: usize,
}

impl GradientBoosting {
    /// Creates an unfitted booster.
    pub fn new(config: GradientBoostingConfig) -> Self {
        GradientBoosting { config, base_score: 0.0, trees: Forest::default(), n_features: 0 }
    }

    /// Unfitted booster with default hyper-parameters.
    pub fn default_config() -> Self {
        GradientBoosting::new(GradientBoostingConfig::default())
    }

    /// Number of boosting rounds actually performed.
    pub fn n_trees(&self) -> usize {
        self.trees.n_trees()
    }

    /// Deserializes a model written by [`Regressor::save_params`].
    ///
    /// # Errors
    /// Returns [`MlError::Codec`] on I/O failure, truncation, or a malformed
    /// tree arena.
    pub fn read_params(r: &mut dyn std::io::Read) -> MlResult<GradientBoosting> {
        use crate::codec as c;
        let config = GradientBoostingConfig {
            n_estimators: c::read_usize(r)?,
            learning_rate: c::read_f64(r)?,
            max_depth: c::read_usize(r)?,
            min_samples_split: c::read_usize(r)?,
            min_samples_leaf: c::read_usize(r)?,
            lambda: c::read_f64(r)?,
            gamma: c::read_f64(r)?,
            subsample: c::read_f64(r)?,
            max_bins: c::read_usize(r)?,
            seed: c::read_u64(r)?,
            tol: c::read_f64(r)?,
        };
        let base_score = c::read_f64(r)?;
        let n_features = c::read_usize(r)?;
        let n = c::read_len(r, "boosting trees")?;
        let mut trees = Forest::default();
        for _ in 0..n {
            trees.read_tree(r)?;
        }
        trees.check_features(n_features)?;
        trees.shrink_to_fit();
        Ok(GradientBoosting { config, base_score, trees, n_features })
    }
}

impl Regressor for GradientBoosting {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> MlResult<()> {
        let n = x.rows();
        if n == 0 || x.cols() == 0 {
            return Err(MlError::EmptyInput("GradientBoosting::fit"));
        }
        if y.len() != n {
            return Err(dim_mismatch(format!("y.len() == {n}"), format!("y.len() == {}", y.len())));
        }
        let c = &self.config;
        if c.n_estimators == 0 {
            return Err(MlError::InvalidHyperparameter("n_estimators must be >= 1".into()));
        }
        if !(c.learning_rate > 0.0 && c.learning_rate <= 1.0) {
            return Err(MlError::InvalidHyperparameter(format!(
                "learning_rate = {} must be in (0, 1]",
                c.learning_rate
            )));
        }
        if !(c.subsample > 0.0 && c.subsample <= 1.0) {
            return Err(MlError::InvalidHyperparameter(format!(
                "subsample = {} must be in (0, 1]",
                c.subsample
            )));
        }
        let binned = BinnedMatrix::from_matrix(x, c.max_bins)?;
        let params = GrowParams {
            max_depth: c.max_depth,
            min_samples_split: c.min_samples_split,
            min_samples_leaf: c.min_samples_leaf,
            lambda: c.lambda,
            gamma: c.gamma,
            feature_subsample: None,
        };
        self.base_score = y.iter().sum::<f64>() / n as f64;
        self.n_features = x.cols();
        self.trees = Forest::default();

        let mut rng = StdRng::seed_from_u64(c.seed);
        let mut pred = vec![self.base_score; n];
        let mut residual = vec![0.0f64; n];
        let sub_n = ((n as f64) * c.subsample).round().max(1.0) as usize;
        let mut all_rows: Vec<u32> = (0..n as u32).collect();
        let mut prev_rmse = f64::INFINITY;
        for round in 0..c.n_estimators {
            for i in 0..n {
                residual[i] = y[i] - pred[i];
            }
            let rows: &mut [u32] = if sub_n < n {
                all_rows.shuffle(&mut rng);
                &mut all_rows[..sub_n]
            } else {
                &mut all_rows
            };
            self.trees.grow(&binned, &residual, rows, &params, c.seed ^ round as u64);
            // Accumulate shrunken predictions over *all* rows.
            for (i, p) in pred.iter_mut().enumerate() {
                *p += c.learning_rate * self.trees.predict_tree(round, x.row(i));
            }
            if c.tol > 0.0 {
                let mse =
                    y.iter().zip(&pred).map(|(t, p)| (t - p) * (t - p)).sum::<f64>() / n as f64;
                let cur = mse.sqrt();
                if prev_rmse - cur < c.tol {
                    break;
                }
                prev_rmse = cur;
            }
        }
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> MlResult<f64> {
        if self.trees.n_trees() == 0 {
            return Err(MlError::NotFitted("GradientBoosting"));
        }
        if row.len() != self.n_features {
            return Err(dim_mismatch(
                format!("row.len() == {}", self.n_features),
                format!("row.len() == {}", row.len()),
            ));
        }
        let lr = self.config.learning_rate;
        Ok(self.trees.leaf_values(row).fold(self.base_score, |p, v| p + lr * v))
    }

    fn name(&self) -> &'static str {
        "xgb"
    }

    fn save_params(&self, w: &mut dyn std::io::Write) -> MlResult<()> {
        use crate::codec as c;
        c::write_usize(w, self.config.n_estimators)?;
        c::write_f64(w, self.config.learning_rate)?;
        c::write_usize(w, self.config.max_depth)?;
        c::write_usize(w, self.config.min_samples_split)?;
        c::write_usize(w, self.config.min_samples_leaf)?;
        c::write_f64(w, self.config.lambda)?;
        c::write_f64(w, self.config.gamma)?;
        c::write_f64(w, self.config.subsample)?;
        c::write_usize(w, self.config.max_bins)?;
        c::write_u64(w, self.config.seed)?;
        c::write_f64(w, self.config.tol)?;
        c::write_f64(w, self.base_score)?;
        c::write_usize(w, self.n_features)?;
        c::write_usize(w, self.trees.n_trees())?;
        for t in 0..self.trees.n_trees() {
            self.trees.write_tree(t, w)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{r2, rmse};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn nonlinear(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> =
            (0..n).map(|_| (0..3).map(|_| rng.gen::<f64>() * 2.0).collect()).collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| (r[0] * r[1]).sin() * 5.0 + r[2] * r[2] + rng.gen::<f64>() * 0.05)
            .collect();
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn boosting_beats_a_single_tree() {
        let (x, y) = nonlinear(600, 7);
        let (x_te, y_te) = nonlinear(200, 8);
        let mut single = GradientBoosting::new(GradientBoostingConfig {
            n_estimators: 1,
            learning_rate: 1.0,
            ..Default::default()
        });
        let mut boosted = GradientBoosting::new(GradientBoostingConfig {
            n_estimators: 80,
            ..Default::default()
        });
        single.fit(&x, &y).unwrap();
        boosted.fit(&x, &y).unwrap();
        let e1 = rmse(&y_te, &single.predict(&x_te).unwrap()).unwrap();
        let e2 = rmse(&y_te, &boosted.predict(&x_te).unwrap()).unwrap();
        assert!(e2 < e1, "boosting ({e2}) must beat one tree ({e1})");
        assert!(r2(&y_te, &boosted.predict(&x_te).unwrap()).unwrap() > 0.9);
    }

    #[test]
    fn base_score_is_mean_for_zero_capacity() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]).unwrap();
        let y = vec![3.0, 6.0, 9.0];
        let mut gb = GradientBoosting::new(GradientBoostingConfig {
            n_estimators: 1,
            max_depth: 0,
            ..Default::default()
        });
        gb.fit(&x, &y).unwrap();
        // depth-0 tree adds lr * mean(residual) == 0, so prediction == mean.
        assert!((gb.predict_row(&[0.0]).unwrap() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn early_stopping_reduces_rounds() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let y = vec![0.0, 1.0, 2.0, 3.0];
        let mut gb = GradientBoosting::new(GradientBoostingConfig {
            n_estimators: 500,
            tol: 1e-9,
            learning_rate: 0.5,
            ..Default::default()
        });
        gb.fit(&x, &y).unwrap();
        assert!(gb.n_trees() < 500, "tol should stop boosting early");
    }

    #[test]
    fn subsampling_still_learns() {
        let (x, y) = nonlinear(500, 9);
        let mut gb = GradientBoosting::new(GradientBoostingConfig {
            subsample: 0.5,
            n_estimators: 60,
            ..Default::default()
        });
        gb.fit(&x, &y).unwrap();
        assert!(r2(&y, &gb.predict(&x).unwrap()).unwrap() > 0.85);
    }

    #[test]
    fn lambda_regularizes_predictions() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0]]).unwrap();
        let y = vec![0.0, 100.0];
        let mut strong = GradientBoosting::new(GradientBoostingConfig {
            n_estimators: 1,
            learning_rate: 1.0,
            lambda: 100.0,
            min_samples_split: 2,
            min_samples_leaf: 1,
            ..Default::default()
        });
        strong.fit(&x, &y).unwrap();
        // With huge lambda the leaf weights shrink toward zero: predictions
        // stay near the 50.0 base score.
        let p = strong.predict_row(&[1.0]).unwrap();
        assert!((p - 50.0).abs() < 10.0, "lambda should shrink the update, got {p}");
    }

    #[test]
    fn validates_hyperparameters_and_inputs() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0]]).unwrap();
        let y = vec![0.0, 1.0];
        let bad = |cfg: GradientBoostingConfig| GradientBoosting::new(cfg).fit(&x, &y).is_err();
        assert!(bad(GradientBoostingConfig { n_estimators: 0, ..Default::default() }));
        assert!(bad(GradientBoostingConfig { learning_rate: 0.0, ..Default::default() }));
        assert!(bad(GradientBoostingConfig { subsample: 1.5, ..Default::default() }));
        let mut gb = GradientBoosting::default_config();
        assert!(gb.fit(&x, &[1.0]).is_err());
        assert!(gb.fit(&Matrix::zeros(0, 1), &[]).is_err());
        assert!(matches!(
            GradientBoosting::default_config().predict_row(&[0.0]),
            Err(MlError::NotFitted(_))
        ));
        gb.fit(&x, &y).unwrap();
        assert!(gb.predict_row(&[0.0, 1.0]).is_err());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (x, y) = nonlinear(200, 3);
        let mut a = GradientBoosting::default_config();
        let mut b = GradientBoosting::default_config();
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(a.predict(&x).unwrap(), b.predict(&x).unwrap());
    }

    /// 37 rounds fill two walk blocks and pad a third; the reference adds
    /// each shrunken tree to the base score in round order.
    #[test]
    fn flat_walk_matches_the_recursive_reference() {
        use crate::grow::reference::{awkward_rows, training_data, RefTree};
        let (x, y) = training_data(300, 3);
        for max_depth in 0..=10 {
            let mut gb = GradientBoosting::new(GradientBoostingConfig {
                n_estimators: 37,
                max_depth,
                subsample: 0.8,
                min_samples_split: 2,
                min_samples_leaf: 1,
                ..Default::default()
            });
            gb.fit(&x, &y).unwrap();
            assert!(gb.trees.max_depth() <= max_depth);
            let lr = gb.config.learning_rate;
            let reference = RefTree::all(&gb.trees);
            for row in awkward_rows(&reference, x.cols(), 300, max_depth as u64) {
                let expect = reference.iter().fold(gb.base_score, |p, t| p + lr * t.predict(&row));
                assert_eq!(
                    gb.predict_row(&row).unwrap().to_bits(),
                    expect.to_bits(),
                    "max_depth {max_depth}, row {row:?}"
                );
            }
        }
    }
}
