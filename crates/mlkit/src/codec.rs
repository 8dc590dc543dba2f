//! Dependency-free binary codec primitives shared by every persistable
//! estimator in the workspace.
//!
//! All integers are little-endian; `f64` values are stored as their IEEE-754
//! bit patterns (`to_bits`/`from_bits`), so a round trip through the codec is
//! **bit-exact** — a reloaded model produces bit-identical predictions.
//! Sequences are length-prefixed with a `u64`; decoded lengths are capped at
//! [`MAX_SEQ_LEN`] so a corrupted prefix cannot trigger a pathological
//! allocation.
//!
//! The format of each *model* (which fields, in which order) lives next to
//! the model itself (`Ridge::write_params`, `Forest::write_tree`, ...); this
//! module only fixes how scalars, strings, vectors, and matrices are laid
//! out. The container format (magic, versioning, checksums) is defined by
//! `learnedwmp_core::codec`.

use std::io::{Read, Write};

use crate::error::{MlError, MlResult};
use crate::linalg::Matrix;

/// Upper bound on any decoded sequence length (elements, not bytes). Corrupt
/// length prefixes beyond this are rejected instead of allocated.
pub const MAX_SEQ_LEN: usize = 1 << 28;

/// A `Write` sink that keeps only a running byte count.
struct ByteCount(usize);

impl Write for ByteCount {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += buf.len();
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The number of bytes `save` writes — the one definition of model size
/// (the paper's Fig. 8), counted without buffering the bytes.
///
/// # Errors
/// Propagates `save`'s error, e.g. for a model with no persisted form.
pub fn encoded_len(save: impl FnOnce(&mut dyn Write) -> MlResult<()>) -> MlResult<usize> {
    let mut sink = ByteCount(0);
    save(&mut sink)?;
    Ok(sink.0)
}

fn io_err(ctx: &str, e: std::io::Error) -> MlError {
    MlError::Codec(format!("{ctx}: {e}"))
}

/// Builds a [`MlError::Codec`] with a formatted message.
pub fn codec_err(msg: impl Into<String>) -> MlError {
    MlError::Codec(msg.into())
}

/// Writes a single byte.
///
/// # Errors
/// Returns [`MlError::Codec`] on I/O failure.
pub fn write_u8(w: &mut dyn Write, v: u8) -> MlResult<()> {
    w.write_all(&[v]).map_err(|e| io_err("write u8", e))
}

/// Reads a single byte.
///
/// # Errors
/// Returns [`MlError::Codec`] on I/O failure or truncation.
pub fn read_u8(r: &mut dyn Read) -> MlResult<u8> {
    let mut buf = [0u8; 1];
    r.read_exact(&mut buf).map_err(|e| io_err("read u8", e))?;
    Ok(buf[0])
}

/// Writes a little-endian `u16`.
///
/// # Errors
/// Returns [`MlError::Codec`] on I/O failure.
pub fn write_u16(w: &mut dyn Write, v: u16) -> MlResult<()> {
    w.write_all(&v.to_le_bytes()).map_err(|e| io_err("write u16", e))
}

/// Reads a little-endian `u16`.
///
/// # Errors
/// Returns [`MlError::Codec`] on I/O failure or truncation.
pub fn read_u16(r: &mut dyn Read) -> MlResult<u16> {
    let mut buf = [0u8; 2];
    r.read_exact(&mut buf).map_err(|e| io_err("read u16", e))?;
    Ok(u16::from_le_bytes(buf))
}

/// Writes a little-endian `u32`.
///
/// # Errors
/// Returns [`MlError::Codec`] on I/O failure.
pub fn write_u32(w: &mut dyn Write, v: u32) -> MlResult<()> {
    w.write_all(&v.to_le_bytes()).map_err(|e| io_err("write u32", e))
}

/// Reads a little-endian `u32`.
///
/// # Errors
/// Returns [`MlError::Codec`] on I/O failure or truncation.
pub fn read_u32(r: &mut dyn Read) -> MlResult<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf).map_err(|e| io_err("read u32", e))?;
    Ok(u32::from_le_bytes(buf))
}

/// Writes a little-endian `u64`.
///
/// # Errors
/// Returns [`MlError::Codec`] on I/O failure.
pub fn write_u64(w: &mut dyn Write, v: u64) -> MlResult<()> {
    w.write_all(&v.to_le_bytes()).map_err(|e| io_err("write u64", e))
}

/// Reads a little-endian `u64`.
///
/// # Errors
/// Returns [`MlError::Codec`] on I/O failure or truncation.
pub fn read_u64(r: &mut dyn Read) -> MlResult<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf).map_err(|e| io_err("read u64", e))?;
    Ok(u64::from_le_bytes(buf))
}

/// Writes a `usize` as a `u64`.
///
/// # Errors
/// Returns [`MlError::Codec`] on I/O failure.
pub fn write_usize(w: &mut dyn Write, v: usize) -> MlResult<()> {
    write_u64(w, v as u64)
}

/// Reads a `usize` stored as a `u64`, rejecting values that overflow the
/// platform `usize`.
///
/// # Errors
/// Returns [`MlError::Codec`] on I/O failure, truncation, or overflow.
pub fn read_usize(r: &mut dyn Read) -> MlResult<usize> {
    let v = read_u64(r)?;
    usize::try_from(v).map_err(|_| codec_err(format!("length {v} overflows usize")))
}

/// Reads a sequence length and validates it against [`MAX_SEQ_LEN`].
///
/// # Errors
/// Returns [`MlError::Codec`] on I/O failure, truncation, or an implausible
/// length (likely corruption).
pub fn read_len(r: &mut dyn Read, what: &str) -> MlResult<usize> {
    let n = read_usize(r)?;
    if n > MAX_SEQ_LEN {
        return Err(codec_err(format!("implausible {what} length {n} (corrupt input?)")));
    }
    Ok(n)
}

/// Writes a bool as one byte.
///
/// # Errors
/// Returns [`MlError::Codec`] on I/O failure.
pub fn write_bool(w: &mut dyn Write, v: bool) -> MlResult<()> {
    write_u8(w, u8::from(v))
}

/// Reads a bool, rejecting anything other than 0 or 1.
///
/// # Errors
/// Returns [`MlError::Codec`] on I/O failure, truncation, or an invalid byte.
pub fn read_bool(r: &mut dyn Read) -> MlResult<bool> {
    match read_u8(r)? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(codec_err(format!("invalid bool byte {other}"))),
    }
}

/// Writes an `f64` as its IEEE-754 bit pattern (bit-exact round trip).
///
/// # Errors
/// Returns [`MlError::Codec`] on I/O failure.
pub fn write_f64(w: &mut dyn Write, v: f64) -> MlResult<()> {
    write_u64(w, v.to_bits())
}

/// Reads an `f64` from its IEEE-754 bit pattern.
///
/// # Errors
/// Returns [`MlError::Codec`] on I/O failure or truncation.
pub fn read_f64(r: &mut dyn Read) -> MlResult<f64> {
    Ok(f64::from_bits(read_u64(r)?))
}

/// Writes a length-prefixed `f64` slice.
///
/// # Errors
/// Returns [`MlError::Codec`] on I/O failure.
pub fn write_f64_seq(w: &mut dyn Write, vs: &[f64]) -> MlResult<()> {
    write_usize(w, vs.len())?;
    for &v in vs {
        write_f64(w, v)?;
    }
    Ok(())
}

/// Reads a length-prefixed `f64` vector.
///
/// # Errors
/// Returns [`MlError::Codec`] on I/O failure, truncation, or an implausible
/// length.
pub fn read_f64_seq(r: &mut dyn Read) -> MlResult<Vec<f64>> {
    let n = read_len(r, "f64 sequence")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(read_f64(r)?);
    }
    Ok(out)
}

/// Writes a length-prefixed `usize` slice (each element as `u64`).
///
/// # Errors
/// Returns [`MlError::Codec`] on I/O failure.
pub fn write_usize_seq(w: &mut dyn Write, vs: &[usize]) -> MlResult<()> {
    write_usize(w, vs.len())?;
    for &v in vs {
        write_usize(w, v)?;
    }
    Ok(())
}

/// Reads a length-prefixed `usize` vector.
///
/// # Errors
/// Returns [`MlError::Codec`] on I/O failure, truncation, or an implausible
/// length.
pub fn read_usize_seq(r: &mut dyn Read) -> MlResult<Vec<usize>> {
    let n = read_len(r, "usize sequence")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(read_usize(r)?);
    }
    Ok(out)
}

/// Writes a length-prefixed UTF-8 string.
///
/// # Errors
/// Returns [`MlError::Codec`] on I/O failure.
pub fn write_string(w: &mut dyn Write, s: &str) -> MlResult<()> {
    write_usize(w, s.len())?;
    w.write_all(s.as_bytes()).map_err(|e| io_err("write string", e))
}

/// Reads a length-prefixed UTF-8 string.
///
/// # Errors
/// Returns [`MlError::Codec`] on I/O failure, truncation, an implausible
/// length, or invalid UTF-8.
pub fn read_string(r: &mut dyn Read) -> MlResult<String> {
    let n = read_len(r, "string")?;
    let mut buf = vec![0u8; n];
    r.read_exact(&mut buf).map_err(|e| io_err("read string", e))?;
    String::from_utf8(buf).map_err(|e| codec_err(format!("invalid utf-8 in string: {e}")))
}

/// Writes a matrix as `(rows, cols, row-major data)`.
///
/// # Errors
/// Returns [`MlError::Codec`] on I/O failure.
pub fn write_matrix(w: &mut dyn Write, m: &Matrix) -> MlResult<()> {
    write_usize(w, m.rows())?;
    write_usize(w, m.cols())?;
    for &v in m.as_slice() {
        write_f64(w, v)?;
    }
    Ok(())
}

/// Reads a matrix written by [`write_matrix`].
///
/// # Errors
/// Returns [`MlError::Codec`] on I/O failure, truncation, or implausible
/// dimensions.
pub fn read_matrix(r: &mut dyn Read) -> MlResult<Matrix> {
    let rows = read_len(r, "matrix rows")?;
    let cols = read_len(r, "matrix cols")?;
    let n = rows
        .checked_mul(cols)
        .filter(|&n| n <= MAX_SEQ_LEN)
        .ok_or_else(|| codec_err(format!("implausible matrix shape {rows}x{cols}")))?;
    let mut data = Vec::with_capacity(n);
    for _ in 0..n {
        data.push(read_f64(r)?);
    }
    Matrix::from_vec(rows, cols, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips_are_bit_exact() {
        let mut buf = Vec::new();
        write_u8(&mut buf, 7).unwrap();
        write_u16(&mut buf, 65_535).unwrap();
        write_u32(&mut buf, 123_456).unwrap();
        write_u64(&mut buf, u64::MAX).unwrap();
        write_bool(&mut buf, true).unwrap();
        write_f64(&mut buf, -0.0).unwrap();
        write_f64(&mut buf, f64::NAN).unwrap();
        let mut r = buf.as_slice();
        let r = &mut r as &mut dyn Read;
        assert_eq!(read_u8(r).unwrap(), 7);
        assert_eq!(read_u16(r).unwrap(), 65_535);
        assert_eq!(read_u32(r).unwrap(), 123_456);
        assert_eq!(read_u64(r).unwrap(), u64::MAX);
        assert!(read_bool(r).unwrap());
        assert_eq!(read_f64(r).unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(read_f64(r).unwrap().is_nan());
    }

    #[test]
    fn sequences_strings_and_matrices_round_trip() {
        let m = Matrix::from_rows(&[vec![1.5, -2.5], vec![0.0, 1e300]]).unwrap();
        let mut buf = Vec::new();
        write_f64_seq(&mut buf, &[1.0, 2.0, 3.0]).unwrap();
        write_usize_seq(&mut buf, &[9, 0, 42]).unwrap();
        write_string(&mut buf, "query_plan").unwrap();
        write_matrix(&mut buf, &m).unwrap();
        let mut r = buf.as_slice();
        let r = &mut r as &mut dyn Read;
        assert_eq!(read_f64_seq(r).unwrap(), vec![1.0, 2.0, 3.0]);
        assert_eq!(read_usize_seq(r).unwrap(), vec![9, 0, 42]);
        assert_eq!(read_string(r).unwrap(), "query_plan");
        let m2 = read_matrix(r).unwrap();
        assert_eq!(m2.rows(), 2);
        assert_eq!(m2.as_slice(), m.as_slice());
    }

    #[test]
    fn every_regressor_round_trips_bit_exact() {
        use crate::traits::Regressor;
        let rows: Vec<Vec<f64>> =
            (0..60).map(|i| vec![i as f64, (i % 7) as f64, (i * i % 13) as f64]).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let y: Vec<f64> = (0..60).map(|i| (i * 3 % 17) as f64 + i as f64 * 0.5).collect();
        let probe = vec![4.5, 3.0, 8.0];

        let mut models: Vec<Box<dyn Regressor>> = vec![
            Box::new(crate::ridge::Ridge::new(0.5)),
            Box::new(crate::tree::DecisionTree::default_config()),
            Box::new(crate::forest::RandomForest::new(crate::forest::RandomForestConfig {
                n_trees: 8,
                ..Default::default()
            })),
            Box::new(crate::gbdt::GradientBoosting::new(crate::gbdt::GradientBoostingConfig {
                n_estimators: 12,
                ..Default::default()
            })),
            Box::new(crate::mlp::Mlp::new(crate::mlp::MlpConfig {
                hidden_layers: vec![8, 4],
                max_iter: 20,
                ..Default::default()
            })),
        ];
        for model in &mut models {
            model.fit(&x, &y).unwrap();
            let mut buf = Vec::new();
            model.save_params(&mut buf).unwrap();
            let mut r: &[u8] = &buf;
            let reloaded: Box<dyn Regressor> = match model.name() {
                "ridge" => Box::new(crate::ridge::Ridge::read_params(&mut r).unwrap()),
                "dt" => Box::new(crate::tree::DecisionTree::read_params(&mut r).unwrap()),
                "rf" => Box::new(crate::forest::RandomForest::read_params(&mut r).unwrap()),
                "xgb" => Box::new(crate::gbdt::GradientBoosting::read_params(&mut r).unwrap()),
                "dnn" => Box::new(crate::mlp::Mlp::read_params(&mut r).unwrap()),
                other => panic!("unknown model {other}"),
            };
            assert!(r.is_empty(), "{}: trailing bytes after read_params", model.name());
            assert_eq!(
                model.predict_row(&probe).unwrap().to_bits(),
                reloaded.predict_row(&probe).unwrap().to_bits(),
                "{}: reloaded prediction must be bit-identical",
                model.name()
            );
            let len = encoded_len(|w| model.save_params(w)).unwrap();
            assert_eq!(len, buf.len(), "{}: size is the bytes save_params writes", model.name());
        }
    }

    #[test]
    fn truncation_and_corruption_are_codec_errors() {
        // Truncated scalar.
        let mut r: &[u8] = &[1, 2];
        assert!(matches!(read_u64(&mut r), Err(MlError::Codec(_))));
        // Implausible sequence length.
        let mut buf = Vec::new();
        write_u64(&mut buf, (MAX_SEQ_LEN as u64) + 1).unwrap();
        let mut r = buf.as_slice();
        assert!(matches!(read_f64_seq(&mut (&mut r as &mut dyn Read)), Err(MlError::Codec(_))));
        // Invalid bool.
        let mut r: &[u8] = &[3];
        assert!(matches!(read_bool(&mut r), Err(MlError::Codec(_))));
    }
}
