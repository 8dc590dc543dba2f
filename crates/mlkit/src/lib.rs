//! # wmp-mlkit — from-scratch ML substrate for the LearnedWMP reproduction
//!
//! The LearnedWMP paper trains its workload-memory predictors with
//! scikit-learn and XGBoost. This crate provides the same algorithm families
//! implemented from first principles in Rust, behind one [`Regressor`] trait:
//!
//! - [`ridge::Ridge`] — closed-form L2-regularized linear regression,
//! - [`tree::DecisionTree`] — CART with histogram split finding,
//! - [`forest::RandomForest`] — bagged trees with feature subsampling,
//! - [`gbdt::GradientBoosting`] — XGBoost-style second-order boosting,
//! - [`mlp::Mlp`] — multilayer perceptron with SGD / Adam / L-BFGS.
//!
//! Unsupervised pieces used by template learning: [`kmeans::KMeans`]
//! (k-means++ + elbow method) and [`dbscan::dbscan`]. Evaluation lives in
//! [`metrics`] (RMSE, MAPE, residual summaries). A model's size is the number
//! of bytes its `save_params` writes, counted by [`codec::encoded_len`].
//!
//! Fits that split into independent units (k-means restarts, `MultiHead`
//! heads, forest trees) run them on up to `available_parallelism()` cores
//! through [`parallel::map_indexed`], bit-identically to a serial fit.

#![warn(missing_docs)]

pub mod binned;
pub mod codec;
pub mod dbscan;
pub mod error;
pub mod forest;
pub mod gbdt;
pub mod grow;
pub mod kmeans;
pub mod linalg;
pub mod metrics;
pub mod mlp;
pub mod multi;
pub mod parallel;
pub mod ridge;
pub mod scaler;
pub mod traits;
pub mod tree;

pub use error::{MlError, MlResult};
pub use linalg::Matrix;
pub use multi::MultiHead;
pub use traits::Regressor;
