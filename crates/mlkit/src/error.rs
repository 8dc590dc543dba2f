//! Error type shared by every estimator in the ML substrate.

use std::fmt;

/// Errors produced by estimators in this crate.
///
/// Marked `#[non_exhaustive]`: new failure modes appear as the substrate
/// grows, and downstream crates must match with a wildcard arm so that is
/// never a breaking change.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MlError {
    /// Input matrices/vectors disagree on a dimension.
    DimensionMismatch {
        /// What the estimator expected (e.g. "x.rows == y.len()").
        expected: String,
        /// What it actually received.
        got: String,
    },
    /// The training set was empty or degenerate (zero rows or columns).
    EmptyInput(&'static str),
    /// `predict` was called before `fit`.
    NotFitted(&'static str),
    /// A bounded wait ran out before its result arrived; names the wait.
    Timeout(&'static str),
    /// A linear system could not be solved (matrix not positive definite /
    /// singular to working precision).
    SingularMatrix,
    /// A hyper-parameter is outside its valid range.
    InvalidHyperparameter(String),
    /// The optimizer failed to make progress (e.g. non-finite loss).
    NumericalFailure(String),
    /// A model artifact could not be encoded or decoded (I/O failure,
    /// truncation, corruption, or an unsupported format version).
    Codec(String),
}

impl fmt::Display for MlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            MlError::EmptyInput(what) => write!(f, "empty input: {what}"),
            MlError::NotFitted(what) => write!(f, "estimator not fitted: {what}"),
            MlError::Timeout(what) => write!(f, "timed out waiting for {what}"),
            MlError::SingularMatrix => write!(f, "matrix is singular or not positive definite"),
            MlError::InvalidHyperparameter(msg) => write!(f, "invalid hyperparameter: {msg}"),
            MlError::NumericalFailure(msg) => write!(f, "numerical failure: {msg}"),
            MlError::Codec(msg) => write!(f, "codec error: {msg}"),
        }
    }
}

impl std::error::Error for MlError {}

/// Convenience alias used across the crate.
pub type MlResult<T> = Result<T, MlError>;

/// Builds a [`MlError::DimensionMismatch`] with formatted operands.
pub fn dim_mismatch(expected: impl Into<String>, got: impl Into<String>) -> MlError {
    MlError::DimensionMismatch { expected: expected.into(), got: got.into() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = dim_mismatch("x.rows == 3", "x.rows == 4");
        assert!(e.to_string().contains("expected x.rows == 3"));
        assert!(MlError::SingularMatrix.to_string().contains("singular"));
        assert!(MlError::NotFitted("ridge").to_string().contains("ridge"));
        assert!(MlError::Timeout("ticket").to_string().contains("timed out waiting for ticket"));
        assert!(MlError::EmptyInput("x").to_string().contains("x"));
        assert!(MlError::InvalidHyperparameter("k = 0".into()).to_string().contains("k = 0"));
        assert!(MlError::NumericalFailure("nan loss".into()).to_string().contains("nan"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(MlError::SingularMatrix, MlError::SingularMatrix);
        assert_ne!(MlError::SingularMatrix, MlError::EmptyInput("x"));
    }
}
