//! Ridge regression (L2-regularized least squares) solved in closed form via
//! the normal equations and a Cholesky factorization — the paper's linear
//! baseline (§III-B4).
//!
//! Ridge is the one model family in this crate with *native* multi-output
//! support: the normal equations share the centered design matrix across
//! targets, so fitting k resource targets costs one Gram matrix plus k
//! small triangular solves instead of k independent fits.

use crate::error::{dim_mismatch, MlError, MlResult};
use crate::linalg::{dot, Matrix};
use crate::traits::Regressor;

/// Ridge regressor: minimizes `||Xw - y||² + alpha ||w||²` (intercept not
/// penalized, as in scikit-learn).
///
/// After [`Regressor::fit_multi`] the model holds one `(weights, intercept)`
/// head per target; [`Regressor::predict_row`] answers from head 0 and
/// [`Regressor::predict_row_multi`] from all heads.
#[derive(Debug, Clone)]
pub struct Ridge {
    /// L2 penalty strength; `0` recovers ordinary least squares.
    pub alpha: f64,
    weights: Vec<f64>,
    intercept: f64,
    /// Heads for targets 1.. after a multi-output fit (target 0 lives in
    /// `weights`/`intercept` so the legacy scalar payload layout is a prefix
    /// of the multi-output one).
    extra_heads: Vec<(Vec<f64>, f64)>,
    fitted: bool,
}

impl Ridge {
    /// Creates an unfitted ridge model with penalty `alpha`.
    pub fn new(alpha: f64) -> Self {
        Ridge { alpha, weights: Vec::new(), intercept: 0.0, extra_heads: Vec::new(), fitted: false }
    }

    /// Learned coefficients of the primary (first) target (empty before fit).
    pub fn coefficients(&self) -> &[f64] {
        &self.weights
    }

    /// Learned intercept of the primary (first) target.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// Deserializes a model written by [`Regressor::save_params`].
    ///
    /// Accepts both layouts: the legacy scalar payload (alpha, weights,
    /// intercept, fitted) and the current one, which appends a count of extra
    /// multi-output heads plus their `(weights, intercept)` pairs. A payload
    /// that ends right after the `fitted` byte decodes as a scalar model —
    /// integrity of the stream is the container checksum's job.
    ///
    /// # Errors
    /// Returns [`MlError::Codec`] on I/O failure or truncation.
    pub fn read_params(r: &mut dyn std::io::Read) -> MlResult<Ridge> {
        use crate::codec as c;
        let alpha = c::read_f64(r)?;
        let weights = c::read_f64_seq(r)?;
        let intercept = c::read_f64(r)?;
        let fitted = c::read_bool(r)?;
        let extra_heads = match c::read_len(r, "ridge extra heads") {
            Ok(n) => {
                let mut heads = Vec::with_capacity(n);
                for _ in 0..n {
                    let w = c::read_f64_seq(r)?;
                    let b = c::read_f64(r)?;
                    heads.push((w, b));
                }
                heads
            }
            // Legacy scalar payload: nothing after the fitted byte.
            Err(_) => Vec::new(),
        };
        Ok(Ridge { alpha, weights, intercept, extra_heads, fitted })
    }

    /// Solves the normal equations once and back-solves every target column
    /// against the shared factorization.
    fn fit_targets(&mut self, x: &Matrix, targets: &[&[f64]]) -> MlResult<()> {
        let n = x.rows();
        let d = x.cols();
        if n == 0 || d == 0 || targets.is_empty() {
            return Err(MlError::EmptyInput("Ridge::fit"));
        }
        for y in targets {
            if y.len() != n {
                return Err(dim_mismatch(
                    format!("y.len() == {n}"),
                    format!("y.len() == {}", y.len()),
                ));
            }
        }
        if self.alpha < 0.0 {
            return Err(MlError::InvalidHyperparameter(format!(
                "alpha = {} must be >= 0",
                self.alpha
            )));
        }
        // Center features and targets so the intercepts absorb the means and
        // stay unpenalized.
        let mut x_mean = vec![0.0; d];
        for row in x.row_iter() {
            for (m, v) in x_mean.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut x_mean {
            *m /= n as f64;
        }
        let mut xc = x.clone();
        for r in 0..n {
            for (v, m) in xc.row_mut(r).iter_mut().zip(&x_mean) {
                *v -= m;
            }
        }

        // Normal equations: (XᵀX + αI) w = Xᵀy, one right-hand side per
        // target against the same regularized Gram matrix.
        let mut gram = xc.gram();
        // A tiny jitter keeps the system solvable when alpha == 0 and X is
        // rank-deficient (e.g. constant plan-feature columns).
        let jitter = 1e-10;
        for i in 0..d {
            let v = gram.get(i, i) + self.alpha + jitter;
            gram.set(i, i, v);
        }
        let mut heads = Vec::with_capacity(targets.len());
        for y in targets {
            let y_mean = y.iter().sum::<f64>() / n as f64;
            let yc: Vec<f64> = y.iter().map(|v| v - y_mean).collect();
            let xty = xc.t_matvec(&yc)?;
            let w = gram.cholesky_solve(&xty)?;
            let b = y_mean - dot(&w, &x_mean);
            heads.push((w, b));
        }
        let (w0, b0) = heads.remove(0);
        self.weights = w0;
        self.intercept = b0;
        self.extra_heads = heads;
        self.fitted = true;
        Ok(())
    }
}

impl Regressor for Ridge {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> MlResult<()> {
        self.fit_targets(x, &[y])
    }

    fn fit_multi(&mut self, x: &Matrix, targets: &[Vec<f64>]) -> MlResult<()> {
        let views: Vec<&[f64]> = targets.iter().map(Vec::as_slice).collect();
        self.fit_targets(x, &views)
    }

    fn n_outputs(&self) -> usize {
        1 + self.extra_heads.len()
    }

    fn predict_row(&self, row: &[f64]) -> MlResult<f64> {
        if !self.fitted {
            return Err(MlError::NotFitted("Ridge"));
        }
        if row.len() != self.weights.len() {
            return Err(dim_mismatch(
                format!("row.len() == {}", self.weights.len()),
                format!("row.len() == {}", row.len()),
            ));
        }
        Ok(dot(&self.weights, row) + self.intercept)
    }

    fn predict_row_multi(&self, row: &[f64]) -> MlResult<Vec<f64>> {
        let mut out = Vec::with_capacity(1 + self.extra_heads.len());
        out.push(self.predict_row(row)?);
        for (w, b) in &self.extra_heads {
            out.push(dot(w, row) + b);
        }
        Ok(out)
    }

    fn name(&self) -> &'static str {
        "ridge"
    }

    fn save_params(&self, w: &mut dyn std::io::Write) -> MlResult<()> {
        use crate::codec as c;
        c::write_f64(w, self.alpha)?;
        c::write_f64_seq(w, &self.weights)?;
        c::write_f64(w, self.intercept)?;
        c::write_bool(w, self.fitted)?;
        // Multi-output extension: extra heads appended after the legacy
        // scalar layout so old readers of the prefix stay valid.
        c::write_usize(w, self.extra_heads.len())?;
        for (head_w, head_b) in &self.extra_heads {
            c::write_f64_seq(w, head_w)?;
            c::write_f64(w, *head_b)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn recovers_exact_linear_relationship() {
        // y = 2 x0 - 3 x1 + 5 with no noise; tiny alpha ~ OLS.
        let mut rng = StdRng::seed_from_u64(1);
        let rows: Vec<Vec<f64>> =
            (0..50).map(|_| vec![rng.gen::<f64>() * 10.0, rng.gen::<f64>() * 10.0]).collect();
        let y: Vec<f64> = rows.iter().map(|r| 2.0 * r[0] - 3.0 * r[1] + 5.0).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut m = Ridge::new(1e-8);
        m.fit(&x, &y).unwrap();
        assert!((m.coefficients()[0] - 2.0).abs() < 1e-4);
        assert!((m.coefficients()[1] + 3.0).abs() < 1e-4);
        assert!((m.intercept() - 5.0).abs() < 1e-3);
        let pred = m.predict(&x).unwrap();
        for (p, t) in pred.iter().zip(&y) {
            assert!((p - t).abs() < 1e-3);
        }
    }

    #[test]
    fn large_alpha_shrinks_coefficients_toward_zero() {
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = rows.iter().map(|r| 3.0 * r[0]).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut small = Ridge::new(1e-6);
        let mut large = Ridge::new(1e6);
        small.fit(&x, &y).unwrap();
        large.fit(&x, &y).unwrap();
        assert!(large.coefficients()[0].abs() < small.coefficients()[0].abs());
        assert!(large.coefficients()[0].abs() < 0.1);
        // With huge shrinkage the prediction collapses to the target mean.
        let y_mean = y.iter().sum::<f64>() / y.len() as f64;
        assert!((large.predict_row(&[10.0]).unwrap() - y_mean).abs() < 1.0);
    }

    #[test]
    fn handles_rank_deficient_features() {
        // Second column duplicates the first: singular XᵀX, ridge still solves.
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, i as f64]).collect();
        let y: Vec<f64> = (0..10).map(|i| 4.0 * i as f64).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut m = Ridge::new(1e-3);
        m.fit(&x, &y).unwrap();
        let p = m.predict_row(&[5.0, 5.0]).unwrap();
        assert!((p - 20.0).abs() < 0.1);
    }

    #[test]
    fn validates_inputs() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0]]).unwrap();
        let mut m = Ridge::new(1.0);
        assert!(m.fit(&x, &[1.0]).is_err());
        assert!(m.fit(&Matrix::zeros(0, 1), &[]).is_err());
        let mut neg = Ridge::new(-1.0);
        assert!(neg.fit(&x, &[1.0, 2.0]).is_err());
        assert!(matches!(Ridge::new(1.0).predict_row(&[1.0]), Err(MlError::NotFitted(_))));
        m.fit(&x, &[1.0, 2.0]).unwrap();
        assert!(m.predict_row(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(Ridge::new(1.0).name(), "ridge");
    }

    #[test]
    fn native_multi_output_solves_every_target() {
        // Targets with different linear laws over the same design matrix.
        let mut rng = StdRng::seed_from_u64(7);
        let rows: Vec<Vec<f64>> =
            (0..60).map(|_| vec![rng.gen::<f64>() * 10.0, rng.gen::<f64>() * 10.0]).collect();
        let t0: Vec<f64> = rows.iter().map(|r| 2.0 * r[0] - 3.0 * r[1] + 5.0).collect();
        let t1: Vec<f64> = rows.iter().map(|r| -r[0] + 0.5 * r[1] + 100.0).collect();
        let t2: Vec<f64> = rows.iter().map(|r| 7.0 * r[0]).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut m = Ridge::new(1e-8);
        m.fit_multi(&x, &[t0.clone(), t1, t2]).unwrap();
        assert_eq!(m.n_outputs(), 3);
        let out = m.predict_row_multi(&[4.0, 2.0]).unwrap();
        assert!((out[0] - 7.0).abs() < 1e-3, "target 0: {}", out[0]);
        assert!((out[1] - 97.0).abs() < 1e-3, "target 1: {}", out[1]);
        assert!((out[2] - 28.0).abs() < 1e-2, "target 2: {}", out[2]);
        // Head 0 is the scalar prediction.
        assert_eq!(m.predict_row(&[4.0, 2.0]).unwrap().to_bits(), out[0].to_bits());
    }

    #[test]
    fn multi_output_payload_round_trips_and_legacy_payload_still_loads() {
        let rows: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64, (i % 4) as f64]).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let t0: Vec<f64> = (0..30).map(|i| i as f64 * 1.5).collect();
        let t1: Vec<f64> = (0..30).map(|i| 90.0 - i as f64).collect();
        let mut m = Ridge::new(1e-6);
        m.fit_multi(&x, &[t0.clone(), t1]).unwrap();
        let mut buf = Vec::new();
        m.save_params(&mut buf).unwrap();
        let mut r: &[u8] = &buf;
        let reloaded = Ridge::read_params(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(reloaded.n_outputs(), 2);
        let probe = [11.0, 3.0];
        let before = m.predict_row_multi(&probe).unwrap();
        let after = reloaded.predict_row_multi(&probe).unwrap();
        for (b, a) in before.iter().zip(&after) {
            assert_eq!(b.to_bits(), a.to_bits());
        }

        // A legacy scalar payload ends right after the fitted byte; synthesize
        // one by truncating the extras section and check it decodes as scalar.
        let mut scalar = Ridge::new(1e-6);
        scalar.fit(&x, &t0).unwrap();
        let mut full = Vec::new();
        scalar.save_params(&mut full).unwrap();
        let legacy = &full[..full.len() - 8]; // drop the extras count (0u64)
        let mut r: &[u8] = legacy;
        let old = Ridge::read_params(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(old.n_outputs(), 1);
        assert_eq!(
            old.predict_row(&probe).unwrap().to_bits(),
            scalar.predict_row(&probe).unwrap().to_bits()
        );
    }
}
