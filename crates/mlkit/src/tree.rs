//! CART-style regression decision tree — the paper's "DT" learner (§III-B4).

use crate::binned::BinnedMatrix;
use crate::error::{dim_mismatch, MlError, MlResult};
use crate::grow::{Forest, GrowParams};
use crate::linalg::Matrix;
use crate::traits::Regressor;

/// Hyper-parameters for [`DecisionTree`].
#[derive(Debug, Clone)]
pub struct DecisionTreeConfig {
    /// Maximum depth.
    pub max_depth: usize,
    /// Minimum samples to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Number of quantile bins used for split finding.
    pub max_bins: usize,
}

impl Default for DecisionTreeConfig {
    fn default() -> Self {
        DecisionTreeConfig { max_depth: 8, min_samples_split: 4, min_samples_leaf: 2, max_bins: 64 }
    }
}

/// A single regression tree trained with variance-reduction splits.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    config: DecisionTreeConfig,
    /// The fitted tree, a forest of one.
    tree: Option<Forest>,
    n_features: usize,
}

impl DecisionTree {
    /// Creates an unfitted tree.
    pub fn new(config: DecisionTreeConfig) -> Self {
        DecisionTree { config, tree: None, n_features: 0 }
    }

    /// Unfitted tree with default hyper-parameters.
    pub fn default_config() -> Self {
        DecisionTree::new(DecisionTreeConfig::default())
    }

    /// Node count of the fitted tree (0 before fit).
    pub fn n_nodes(&self) -> usize {
        self.tree.as_ref().map_or(0, Forest::n_nodes)
    }

    /// Leaf count of the fitted tree (0 before fit).
    pub fn n_leaves(&self) -> usize {
        self.tree.as_ref().map_or(0, Forest::n_leaves)
    }

    /// Deserializes a model written by [`Regressor::save_params`].
    ///
    /// # Errors
    /// Returns [`MlError::Codec`] on I/O failure, truncation, or a malformed
    /// tree arena.
    pub fn read_params(r: &mut dyn std::io::Read) -> MlResult<DecisionTree> {
        use crate::codec as c;
        let config = DecisionTreeConfig {
            max_depth: c::read_usize(r)?,
            min_samples_split: c::read_usize(r)?,
            min_samples_leaf: c::read_usize(r)?,
            max_bins: c::read_usize(r)?,
        };
        let n_features = c::read_usize(r)?;
        let tree = if c::read_bool(r)? {
            let mut tree = Forest::default();
            tree.read_tree(r)?;
            tree.check_features(n_features)?;
            tree.shrink_to_fit();
            Some(tree)
        } else {
            None
        };
        Ok(DecisionTree { config, tree, n_features })
    }
}

impl Regressor for DecisionTree {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> MlResult<()> {
        if x.rows() == 0 || x.cols() == 0 {
            return Err(MlError::EmptyInput("DecisionTree::fit"));
        }
        if y.len() != x.rows() {
            return Err(dim_mismatch(
                format!("y.len() == {}", x.rows()),
                format!("y.len() == {}", y.len()),
            ));
        }
        if self.config.max_depth == 0 && x.rows() > 1 {
            // Allowed: the tree degenerates to the target mean.
        }
        let binned = BinnedMatrix::from_matrix(x, self.config.max_bins)?;
        let params = GrowParams {
            max_depth: self.config.max_depth,
            min_samples_split: self.config.min_samples_split,
            min_samples_leaf: self.config.min_samples_leaf,
            lambda: 0.0,
            gamma: 1e-12,
            feature_subsample: None,
        };
        let mut rows: Vec<u32> = (0..x.rows() as u32).collect();
        let mut tree = Forest::default();
        tree.grow(&binned, y, &mut rows, &params, 0);
        self.tree = Some(tree);
        self.n_features = x.cols();
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> MlResult<f64> {
        let tree = self.tree.as_ref().ok_or(MlError::NotFitted("DecisionTree"))?;
        if row.len() != self.n_features {
            return Err(dim_mismatch(
                format!("row.len() == {}", self.n_features),
                format!("row.len() == {}", row.len()),
            ));
        }
        Ok(tree.predict_tree(0, row))
    }

    fn name(&self) -> &'static str {
        "dt"
    }

    fn save_params(&self, w: &mut dyn std::io::Write) -> MlResult<()> {
        use crate::codec as c;
        c::write_usize(w, self.config.max_depth)?;
        c::write_usize(w, self.config.min_samples_split)?;
        c::write_usize(w, self.config.min_samples_leaf)?;
        c::write_usize(w, self.config.max_bins)?;
        c::write_usize(w, self.n_features)?;
        c::write_bool(w, self.tree.is_some())?;
        if let Some(tree) = &self.tree {
            tree.write_tree(0, w)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::rmse;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn fits_piecewise_constant_target_exactly() {
        let rows: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..30)
            .map(|i| {
                if i < 10 {
                    1.0
                } else if i < 20 {
                    5.0
                } else {
                    -2.0
                }
            })
            .collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut dt = DecisionTree::default_config();
        dt.fit(&x, &y).unwrap();
        let pred = dt.predict(&x).unwrap();
        assert!(rmse(&y, &pred).unwrap() < 1e-9);
    }

    #[test]
    fn approximates_smooth_function() {
        let mut rng = StdRng::seed_from_u64(3);
        let rows: Vec<Vec<f64>> = (0..400).map(|_| vec![rng.gen::<f64>() * 6.0]).collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0].sin() * 10.0).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut dt = DecisionTree::new(DecisionTreeConfig { max_depth: 10, ..Default::default() });
        dt.fit(&x, &y).unwrap();
        let pred = dt.predict(&x).unwrap();
        assert!(rmse(&y, &pred).unwrap() < 1.0, "deep tree should fit sin well in-sample");
    }

    #[test]
    fn depth_zero_predicts_the_mean() {
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut dt = DecisionTree::new(DecisionTreeConfig { max_depth: 0, ..Default::default() });
        dt.fit(&x, &y).unwrap();
        assert!((dt.predict_row(&[100.0]).unwrap() - 4.5).abs() < 1e-9);
        assert_eq!(dt.n_nodes(), 1);
    }

    #[test]
    fn multi_feature_split_selection() {
        // Feature 0 is noise; feature 1 determines y.
        let mut rng = StdRng::seed_from_u64(11);
        let rows: Vec<Vec<f64>> =
            (0..100).map(|i| vec![rng.gen::<f64>(), (i % 2) as f64]).collect();
        let y: Vec<f64> = rows.iter().map(|r| r[1] * 100.0).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut dt = DecisionTree::default_config();
        dt.fit(&x, &y).unwrap();
        assert!((dt.predict_row(&[0.5, 0.0]).unwrap() - 0.0).abs() < 1e-9);
        assert!((dt.predict_row(&[0.5, 1.0]).unwrap() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn validates_inputs() {
        let mut dt = DecisionTree::default_config();
        assert!(dt.fit(&Matrix::zeros(0, 1), &[]).is_err());
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0]]).unwrap();
        assert!(dt.fit(&x, &[1.0]).is_err());
        assert!(matches!(
            DecisionTree::default_config().predict_row(&[1.0]),
            Err(MlError::NotFitted(_))
        ));
        dt.fit(&x, &[1.0, 2.0]).unwrap();
        assert!(dt.predict_row(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn footprint_grows_with_tree_size() {
        let rows: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut shallow =
            DecisionTree::new(DecisionTreeConfig { max_depth: 2, ..Default::default() });
        let mut deep = DecisionTree::new(DecisionTreeConfig { max_depth: 8, ..Default::default() });
        shallow.fit(&x, &y).unwrap();
        deep.fit(&x, &y).unwrap();
        let size = |t: &DecisionTree| crate::codec::encoded_len(|w| t.save_params(w)).unwrap();
        assert!(size(&deep) > size(&shallow));
        assert!(shallow.n_leaves() <= 4);
    }

    #[test]
    fn flat_walk_matches_the_recursive_reference() {
        use crate::grow::reference::{awkward_rows, training_data, RefTree};
        let (x, y) = training_data(300, 1);
        for max_depth in 0..=10 {
            let mut dt = DecisionTree::new(DecisionTreeConfig {
                max_depth,
                min_samples_split: 2,
                min_samples_leaf: 1,
                ..Default::default()
            });
            dt.fit(&x, &y).unwrap();
            let forest = dt.tree.as_ref().unwrap();
            assert!(forest.max_depth() <= max_depth);
            let reference = RefTree::all(forest);
            for row in awkward_rows(&reference, x.cols(), 300, max_depth as u64) {
                assert_eq!(
                    dt.predict_row(&row).unwrap().to_bits(),
                    reference[0].predict(&row).to_bits(),
                    "max_depth {max_depth}, row {row:?}"
                );
            }
        }
    }
}
