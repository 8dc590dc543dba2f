//! Random Forest regressor — bootstrap-aggregated trees with per-node feature
//! subsampling (the paper's "RF" learner, §III-B4). Trees are grown on up to
//! `n_threads` cores through [`crate::parallel::map_indexed`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::binned::BinnedMatrix;
use crate::error::{dim_mismatch, MlError, MlResult};
use crate::grow::{Forest, GrowParams};
use crate::linalg::Matrix;
use crate::parallel;
use crate::traits::Regressor;

/// Hyper-parameters for [`RandomForest`].
#[derive(Debug, Clone)]
pub struct RandomForestConfig {
    /// Number of trees in the ensemble.
    pub n_trees: usize,
    /// Maximum depth per tree.
    pub max_depth: usize,
    /// Minimum samples to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Features sampled per node; `None` considers every feature (the
    /// scikit-learn regression default — bagging alone provides the
    /// de-correlation). Sparse histogram inputs degrade badly under
    /// aggressive feature subsampling, so only set this deliberately.
    pub max_features: Option<usize>,
    /// Number of quantile bins for split finding.
    pub max_bins: usize,
    /// RNG seed (bootstrap + feature sampling).
    pub seed: u64,
    /// Most worker threads to grow trees on, counting the caller
    /// (1 = sequential); also bounded by `available_parallelism()`.
    pub n_threads: usize,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        RandomForestConfig {
            n_trees: 50,
            max_depth: 10,
            min_samples_split: 4,
            min_samples_leaf: 2,
            max_features: None,
            max_bins: 64,
            seed: 42,
            n_threads: 4,
        }
    }
}

/// Bagged ensemble of regression trees.
#[derive(Debug, Clone)]
pub struct RandomForest {
    config: RandomForestConfig,
    trees: Forest,
    n_features: usize,
}

impl RandomForest {
    /// Creates an unfitted forest.
    pub fn new(config: RandomForestConfig) -> Self {
        RandomForest { config, trees: Forest::default(), n_features: 0 }
    }

    /// Unfitted forest with default hyper-parameters.
    pub fn default_config() -> Self {
        RandomForest::new(RandomForestConfig::default())
    }

    /// Number of fitted trees.
    pub fn n_trees(&self) -> usize {
        self.trees.n_trees()
    }

    /// Deserializes a model written by [`Regressor::save_params`].
    ///
    /// # Errors
    /// Returns [`MlError::Codec`] on I/O failure, truncation, or a malformed
    /// tree arena.
    pub fn read_params(r: &mut dyn std::io::Read) -> MlResult<RandomForest> {
        use crate::codec as c;
        let config = RandomForestConfig {
            n_trees: c::read_usize(r)?,
            max_depth: c::read_usize(r)?,
            min_samples_split: c::read_usize(r)?,
            min_samples_leaf: c::read_usize(r)?,
            max_features: if c::read_bool(r)? { Some(c::read_usize(r)?) } else { None },
            max_bins: c::read_usize(r)?,
            seed: c::read_u64(r)?,
            n_threads: c::read_usize(r)?,
        };
        let n_features = c::read_usize(r)?;
        let n = c::read_len(r, "forest trees")?;
        let mut trees = Forest::default();
        for _ in 0..n {
            trees.read_tree(r)?;
        }
        trees.check_features(n_features)?;
        trees.shrink_to_fit();
        Ok(RandomForest { config, trees, n_features })
    }
}

impl Regressor for RandomForest {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> MlResult<()> {
        let n = x.rows();
        if n == 0 || x.cols() == 0 {
            return Err(MlError::EmptyInput("RandomForest::fit"));
        }
        if y.len() != n {
            return Err(dim_mismatch(format!("y.len() == {n}"), format!("y.len() == {}", y.len())));
        }
        if self.config.n_trees == 0 {
            return Err(MlError::InvalidHyperparameter("n_trees must be >= 1".into()));
        }
        let binned = BinnedMatrix::from_matrix(x, self.config.max_bins)?;
        let feature_subsample = self.config.max_features.map(|m| m.clamp(1, x.cols()));
        let params = GrowParams {
            max_depth: self.config.max_depth,
            min_samples_split: self.config.min_samples_split,
            min_samples_leaf: self.config.min_samples_leaf,
            lambda: 0.0,
            gamma: 1e-12,
            feature_subsample,
        };

        // Each tree has an independent seed, so the forest does not depend
        // on the worker count. Each worker reuses one bootstrap buffer.
        let n_trees = self.config.n_trees;
        let seed = self.config.seed;
        let mut bootstrap: Vec<Vec<u32>> = (0..parallel::workers(n_trees, self.config.n_threads))
            .map(|_| Vec::with_capacity(n))
            .collect();
        let grown = parallel::map_indexed(n_trees, &mut bootstrap, |tree_idx, rows| {
            let tree_seed = seed.wrapping_add(tree_idx as u64).wrapping_mul(0x9E37_79B9);
            let mut rng = StdRng::seed_from_u64(tree_seed);
            // Bootstrap sample (with replacement).
            rows.clear();
            rows.extend((0..n).map(|_| rng.gen_range(0..n) as u32));
            let mut tree = Forest::default();
            tree.grow(&binned, y, rows, &params, tree_seed ^ 0xABCD);
            tree
        });
        self.trees = Forest::default();
        for tree in &grown {
            self.trees.append(tree);
        }
        self.n_features = x.cols();
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> MlResult<f64> {
        if self.trees.n_trees() == 0 {
            return Err(MlError::NotFitted("RandomForest"));
        }
        if row.len() != self.n_features {
            return Err(dim_mismatch(
                format!("row.len() == {}", self.n_features),
                format!("row.len() == {}", row.len()),
            ));
        }
        let sum: f64 = self.trees.leaf_values(row).sum();
        Ok(sum / self.trees.n_trees() as f64)
    }

    fn name(&self) -> &'static str {
        "rf"
    }

    fn save_params(&self, w: &mut dyn std::io::Write) -> MlResult<()> {
        use crate::codec as c;
        c::write_usize(w, self.config.n_trees)?;
        c::write_usize(w, self.config.max_depth)?;
        c::write_usize(w, self.config.min_samples_split)?;
        c::write_usize(w, self.config.min_samples_leaf)?;
        c::write_bool(w, self.config.max_features.is_some())?;
        if let Some(m) = self.config.max_features {
            c::write_usize(w, m)?;
        }
        c::write_usize(w, self.config.max_bins)?;
        c::write_u64(w, self.config.seed)?;
        c::write_usize(w, self.config.n_threads)?;
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

    fn friedman_like(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> =
            (0..n).map(|_| (0..4).map(|_| rng.gen::<f64>()).collect::<Vec<f64>>()).collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| 10.0 * r[0] * r[1] + 5.0 * r[2] - 3.0 * r[3] + rng.gen::<f64>() * 0.1)
            .collect();
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn fits_nonlinear_target_with_good_r2() {
        let (x, y) = friedman_like(500, 5);
        let mut rf = RandomForest::new(RandomForestConfig { n_trees: 30, ..Default::default() });
        rf.fit(&x, &y).unwrap();
        let pred = rf.predict(&x).unwrap();
        assert!(r2(&y, &pred).unwrap() > 0.9);
    }

    #[test]
    fn generalizes_to_held_out_data() {
        let (x_tr, y_tr) = friedman_like(800, 5);
        let (x_te, y_te) = friedman_like(200, 99);
        let mut rf = RandomForest::default_config();
        rf.fit(&x_tr, &y_tr).unwrap();
        let pred = rf.predict(&x_te).unwrap();
        assert!(r2(&y_te, &pred).unwrap() > 0.8);
    }

    #[test]
    fn deterministic_for_fixed_seed_regardless_of_threads() {
        let (x, y) = friedman_like(200, 1);
        let mut a = RandomForest::new(RandomForestConfig {
            n_trees: 8,
            n_threads: 1,
            ..Default::default()
        });
        let mut b = RandomForest::new(RandomForestConfig {
            n_trees: 8,
            n_threads: 4,
            ..Default::default()
        });
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        let pa = a.predict(&x).unwrap();
        let pb = b.predict(&x).unwrap();
        assert_eq!(pa, pb);
    }

    #[test]
    fn more_trees_do_not_hurt_much() {
        let (x, y) = friedman_like(300, 2);
        let (x_te, y_te) = friedman_like(150, 3);
        let mut small = RandomForest::new(RandomForestConfig { n_trees: 2, ..Default::default() });
        let mut big = RandomForest::new(RandomForestConfig { n_trees: 40, ..Default::default() });
        small.fit(&x, &y).unwrap();
        big.fit(&x, &y).unwrap();
        let e_small = rmse(&y_te, &small.predict(&x_te).unwrap()).unwrap();
        let e_big = rmse(&y_te, &big.predict(&x_te).unwrap()).unwrap();
        assert!(e_big <= e_small * 1.1, "bagging should not degrade error");
    }

    #[test]
    fn validates_inputs() {
        let (x, y) = friedman_like(10, 0);
        let mut rf = RandomForest::new(RandomForestConfig { n_trees: 0, ..Default::default() });
        assert!(rf.fit(&x, &y).is_err());
        let mut rf = RandomForest::default_config();
        assert!(rf.fit(&Matrix::zeros(0, 2), &[]).is_err());
        assert!(rf.fit(&x, &y[..5]).is_err());
        assert!(matches!(
            RandomForest::default_config().predict_row(&[0.0]),
            Err(MlError::NotFitted(_))
        ));
        rf.fit(&x, &y).unwrap();
        assert!(rf.predict_row(&[0.0]).is_err());
    }

    #[test]
    fn footprint_scales_with_ensemble() {
        let (x, y) = friedman_like(100, 4);
        let size = |n_trees| {
            let mut rf = RandomForest::new(RandomForestConfig { n_trees, ..Default::default() });
            rf.fit(&x, &y).unwrap();
            assert_eq!(rf.n_trees(), n_trees);
            crate::codec::encoded_len(|w| rf.save_params(w)).unwrap()
        };
        assert!(size(4) > size(1));
    }

    /// 21 trees fill one walk block and pad the next; the reference sums
    /// the trees in order before dividing, as the forest always has.
    #[test]
    fn flat_walk_matches_the_recursive_reference() {
        use crate::grow::reference::{awkward_rows, training_data, RefTree};
        let (x, y) = training_data(300, 2);
        for max_depth in 0..=10 {
            let mut rf = RandomForest::new(RandomForestConfig {
                n_trees: 21,
                max_depth,
                max_features: Some(2),
                min_samples_split: 2,
                min_samples_leaf: 1,
                ..Default::default()
            });
            rf.fit(&x, &y).unwrap();
            assert!(rf.trees.max_depth() <= max_depth);
            let reference = RefTree::all(&rf.trees);
            for row in awkward_rows(&reference, x.cols(), 300, max_depth as u64) {
                let sum: f64 = reference.iter().map(|t| t.predict(&row)).sum();
                assert_eq!(
                    rf.predict_row(&row).unwrap().to_bits(),
                    (sum / reference.len() as f64).to_bits(),
                    "max_depth {max_depth}, row {row:?}"
                );
            }
        }
    }
}
