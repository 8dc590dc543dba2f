//! [`MultiHead`]: per-target composite turning any scalar [`Regressor`] into
//! a multi-output one.
//!
//! Tree ensembles, boosted models, and the MLP in this crate are inherently
//! scalar — each fit produces one response surface. To predict a vector of
//! resource targets (memory / CPU / IO) with those families, `MultiHead`
//! holds one independent head per target and fans [`Regressor::fit_multi`] /
//! [`Regressor::predict_row_multi`] out across them; `fit_multi` fits the
//! heads on up to `available_parallelism()` cores ([`crate::parallel`]).
//! Models with a natural multi-output formulation (ridge regression solves
//! every target against the same factorized design matrix) implement the
//! trait methods directly and do not need this wrapper.
//!
//! Head 0 is always the primary target: scalar [`Regressor::predict_row`] on
//! a `MultiHead` answers from head 0, which keeps single-target call sites
//! working unchanged when a pipeline is upgraded to vector labels.

use std::io::{Read, Write};
use std::sync::Mutex;

use crate::codec as c;
use crate::error::{dim_mismatch, MlError, MlResult};
use crate::linalg::Matrix;
use crate::parallel;
use crate::traits::Regressor;

/// Decoder for one persisted head payload: the caller knows the concrete
/// model family and supplies the matching `read_params` constructor.
pub type HeadDecoder = dyn Fn(&mut dyn Read) -> MlResult<Box<dyn Regressor>>;

/// A composite regressor with one independent scalar head per target.
///
/// Construct it with `k` *unfitted* heads of the same family, then train all
/// heads at once with [`Regressor::fit_multi`]:
///
/// ```
/// use wmp_mlkit::multi::MultiHead;
/// use wmp_mlkit::ridge::Ridge;
/// use wmp_mlkit::{Matrix, Regressor};
///
/// let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]).unwrap();
/// let targets = vec![vec![0.0, 1.0, 2.0, 3.0], vec![0.0, 10.0, 20.0, 30.0]];
/// let mut m = MultiHead::new(vec![Box::new(Ridge::new(1e-6)), Box::new(Ridge::new(1e-6))])
///     .unwrap();
/// m.fit_multi(&x, &targets).unwrap();
/// let out = m.predict_row_multi(&[2.0]).unwrap();
/// assert_eq!(out.len(), 2);
/// assert!((out[1] - 10.0 * out[0]).abs() < 1e-6);
/// ```
pub struct MultiHead {
    heads: Vec<Box<dyn Regressor>>,
}

impl MultiHead {
    /// Wraps `heads` (one per target, in target order) into a composite.
    ///
    /// # Errors
    /// Returns [`MlError::EmptyInput`] when `heads` is empty.
    pub fn new(heads: Vec<Box<dyn Regressor>>) -> MlResult<Self> {
        if heads.is_empty() {
            return Err(MlError::EmptyInput("MultiHead heads"));
        }
        Ok(Self { heads })
    }

    /// The per-target heads, in target order.
    pub fn heads(&self) -> &[Box<dyn Regressor>] {
        &self.heads
    }

    /// Deserializes a composite written by [`Regressor::save_params`].
    ///
    /// The caller supplies `decode_head` because head payloads are typed: the
    /// container format knows which concrete model family it persisted (the
    /// core codec stores a model-kind byte) and passes the matching
    /// `read_params` constructor here.
    ///
    /// # Errors
    /// Returns [`MlError::Codec`] on I/O failure, truncation, a head payload
    /// with trailing bytes, or an empty head list.
    pub fn read_params(r: &mut dyn Read, decode_head: &HeadDecoder) -> MlResult<Self> {
        let n = c::read_len(r, "multi-head count")?;
        let mut heads = Vec::with_capacity(n);
        for i in 0..n {
            let len = c::read_len(r, "multi-head payload")?;
            let mut payload = vec![0u8; len];
            r.read_exact(&mut payload)
                .map_err(|e| c::codec_err(format!("read multi-head payload {i}: {e}")))?;
            let mut slice: &[u8] = &payload;
            let head = decode_head(&mut slice)?;
            if !slice.is_empty() {
                return Err(c::codec_err(format!(
                    "multi-head payload {i}: {} undecoded trailing bytes",
                    slice.len()
                )));
            }
            heads.push(head);
        }
        Self::new(heads)
    }
}

impl Regressor for MultiHead {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> MlResult<()> {
        if self.heads.len() != 1 {
            return Err(dim_mismatch(
                format!("{} target columns (one per head)", self.heads.len()),
                "1 scalar target (use fit_multi)",
            ));
        }
        self.heads[0].fit(x, y)
    }

    fn fit_multi(&mut self, x: &Matrix, targets: &[Vec<f64>]) -> MlResult<()> {
        if targets.len() != self.heads.len() {
            return Err(dim_mismatch(
                format!("{} target columns (one per head)", self.heads.len()),
                format!("{} target columns", targets.len()),
            ));
        }
        // Heads are independent fits: run them on up to
        // `available_parallelism()` cores. The error returned is the first
        // failing head's, in head order.
        let heads: Vec<Mutex<&mut Box<dyn Regressor>>> =
            self.heads.iter_mut().map(Mutex::new).collect();
        let mut workers = vec![(); parallel::workers(heads.len(), usize::MAX)];
        parallel::map_indexed(heads.len(), &mut workers, |i, ()| {
            heads[i].lock().expect("each head is locked once, by its own unit").fit(x, &targets[i])
        })
        .into_iter()
        .collect()
    }

    fn predict_row(&self, row: &[f64]) -> MlResult<f64> {
        self.heads[0].predict_row(row)
    }

    fn predict_row_multi(&self, row: &[f64]) -> MlResult<Vec<f64>> {
        self.heads.iter().map(|h| h.predict_row(row)).collect()
    }

    fn n_outputs(&self) -> usize {
        self.heads.len()
    }

    fn as_multi_head(&self) -> Option<&MultiHead> {
        Some(self)
    }

    fn name(&self) -> &'static str {
        self.heads[0].name()
    }

    fn save_params(&self, w: &mut dyn Write) -> MlResult<()> {
        c::write_usize(w, self.heads.len())?;
        for head in &self.heads {
            let mut payload = Vec::new();
            head.save_params(&mut payload)?;
            c::write_usize(w, payload.len())?;
            w.write_all(&payload)
                .map_err(|e| c::codec_err(format!("write multi-head payload: {e}")))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::{RandomForest, RandomForestConfig};
    use crate::gbdt::{GradientBoosting, GradientBoostingConfig};
    use crate::ridge::Ridge;
    use crate::tree::DecisionTree;

    fn training_data() -> (Matrix, Vec<Vec<f64>>) {
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64, (i % 5) as f64]).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let targets = vec![
            (0..40).map(|i| i as f64 * 2.0 + 1.0).collect(),
            (0..40).map(|i| 100.0 - i as f64).collect(),
            (0..40).map(|i| (i % 5) as f64 * 7.0).collect(),
        ];
        (x, targets)
    }

    #[test]
    fn fits_one_independent_head_per_target() {
        let (x, targets) = training_data();
        let mut m = MultiHead::new(
            (0..3).map(|_| Box::new(Ridge::new(1e-8)) as Box<dyn Regressor>).collect(),
        )
        .unwrap();
        m.fit_multi(&x, &targets).unwrap();
        assert_eq!(m.n_outputs(), 3);
        let out = m.predict_row_multi(&[10.0, 0.0]).unwrap();
        assert!((out[0] - 21.0).abs() < 1e-6, "head 0: {}", out[0]);
        assert!((out[1] - 90.0).abs() < 1e-6, "head 1: {}", out[1]);
        assert!((out[2] - 0.0).abs() < 1e-5, "head 2: {}", out[2]);
        // Scalar predict_row answers from head 0.
        assert_eq!(m.predict_row(&[10.0, 0.0]).unwrap().to_bits(), out[0].to_bits());
    }

    /// Builds one unfitted head, identically on every call.
    type BuildHead = fn() -> Box<dyn Regressor>;

    /// One head builder per family under test.
    fn families() -> [(&'static str, BuildHead); 3] {
        [
            ("xgb", || {
                Box::new(GradientBoosting::new(GradientBoostingConfig {
                    n_estimators: 20,
                    ..GradientBoostingConfig::default()
                }))
            }),
            ("dt", || Box::new(DecisionTree::default_config())),
            ("rf", || {
                Box::new(RandomForest::new(RandomForestConfig { n_trees: 6, ..Default::default() }))
            }),
        ]
    }

    #[test]
    fn parallel_heads_match_serial_solo_fits_bit_for_bit() {
        let (x, targets) = training_data();
        for (family, build) in families() {
            let mut m = MultiHead::new((0..3).map(|_| build()).collect()).unwrap();
            m.fit_multi(&x, &targets).unwrap();
            for (t, y) in targets.iter().enumerate() {
                let mut solo = build();
                solo.fit(&x, y).unwrap();
                for row in x.row_iter() {
                    let together = m.predict_row_multi(row).unwrap()[t];
                    let alone = solo.predict_row(row).unwrap();
                    assert_eq!(together.to_bits(), alone.to_bits(), "{family} head {t}");
                }
            }
        }
    }

    #[test]
    fn the_first_failing_head_reports_its_error() {
        let (x, mut targets) = training_data();
        targets[1].truncate(39);
        targets[2].truncate(38);
        for (family, build) in families() {
            let mut m = MultiHead::new((0..3).map(|_| build()).collect()).unwrap();
            let err = m.fit_multi(&x, &targets).unwrap_err();
            let head_1 = build().fit(&x, &targets[1]).unwrap_err();
            assert_eq!(err.to_string(), head_1.to_string(), "{family}");
            assert_ne!(err.to_string(), build().fit(&x, &targets[2]).unwrap_err().to_string());
        }
    }

    #[test]
    fn target_count_must_match_head_count() {
        let (x, targets) = training_data();
        let mut m = MultiHead::new(
            (0..2).map(|_| Box::new(Ridge::new(1.0)) as Box<dyn Regressor>).collect(),
        )
        .unwrap();
        assert!(matches!(m.fit_multi(&x, &targets), Err(MlError::DimensionMismatch { .. })));
        assert!(matches!(m.fit(&x, &targets[0]), Err(MlError::DimensionMismatch { .. })));
    }

    #[test]
    fn empty_head_list_is_rejected() {
        assert!(matches!(MultiHead::new(Vec::new()), Err(MlError::EmptyInput(_))));
    }

    #[test]
    fn save_and_read_round_trip_bit_exact() {
        let (x, targets) = training_data();
        let mut m = MultiHead::new(
            (0..3)
                .map(|_| Box::new(DecisionTree::default_config()) as Box<dyn Regressor>)
                .collect(),
        )
        .unwrap();
        m.fit_multi(&x, &targets).unwrap();
        let mut buf = Vec::new();
        m.save_params(&mut buf).unwrap();
        let mut r: &[u8] = &buf;
        let decode: &HeadDecoder =
            &|r| Ok(Box::new(DecisionTree::read_params(r)?) as Box<dyn Regressor>);
        let reloaded = MultiHead::read_params(&mut r, decode).unwrap();
        assert!(r.is_empty());
        assert_eq!(reloaded.n_outputs(), 3);
        let probe = [17.0, 2.0];
        let before = m.predict_row_multi(&probe).unwrap();
        let after = reloaded.predict_row_multi(&probe).unwrap();
        for (b, a) in before.iter().zip(&after) {
            assert_eq!(b.to_bits(), a.to_bits());
        }
    }

    #[test]
    fn truncated_head_payload_is_a_codec_error() {
        let (x, targets) = training_data();
        let mut m = MultiHead::new(
            (0..3).map(|_| Box::new(Ridge::new(1.0)) as Box<dyn Regressor>).collect(),
        )
        .unwrap();
        m.fit_multi(&x, &targets).unwrap();
        let mut buf = Vec::new();
        m.save_params(&mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        let mut r: &[u8] = &buf;
        let decode: &HeadDecoder = &|r| Ok(Box::new(Ridge::read_params(r)?) as Box<dyn Regressor>);
        assert!(matches!(MultiHead::read_params(&mut r, decode), Err(MlError::Codec(_))));
    }
}
