//! Versioned, self-describing, dependency-free binary persistence for
//! trained [`LearnedWmp`] models — the artifact format behind the paper's
//! §I deployment story (train offline, ship the model into the DBMS, load at
//! startup, predict per arriving workload).
//!
//! # Format (version 2)
//!
//! All integers are little-endian; `f64` values are IEEE-754 bit patterns,
//! so save → load → predict is **bit-exact**. The container is:
//!
//! ```text
//! offset  size  field
//! 0       4     magic   b"LWMP"
//! 4       2     format version (u16, currently 2)
//! 6       2     reserved flags (u16, must be 0)
//! 8       ..    body (see below)
//! end-8   8     FNV-1a-64 checksum of every preceding byte
//! ```
//!
//! The body is written with the [`wmp_mlkit::codec`] primitives:
//!
//! ```text
//! config        model kind (u8), batch_size (u64), label mode (u8),
//!               histogram mode (u8), batching seed (u64)
//! provenance    n_train_workloads (u64), training timings (3 × f64:
//!               template/histogram/fit milliseconds)
//! templates     learner tag (u8), payload length (u64), payload
//! regressor     payload length (u64), payload:
//!                 wrapper tag (u8): 0 = plain, 1 = multi-head
//!                 0 → one regressor payload (decoder = config model kind)
//!                 1 → a [`wmp_mlkit::MultiHead`] payload whose per-head
//!                     payloads decode via the config model kind
//! ```
//!
//! Template learner tags: 1 = plan-k-means, 2 = rule-based,
//! 3 = bag-of-words, 4 = text-mining, 5 = word-embeddings, 6 = DBSCAN.
//! Section payloads are length-prefixed so future readers can skip sections
//! they do not understand, and the loader rejects payloads that decode to
//! fewer/more bytes than declared.
//!
//! Version 1 artifacts (written before multi-resource targets existed) are
//! identical except the regressor payload has **no wrapper tag** — it is
//! always one plain scalar regressor. The loader still reads them; the
//! resulting model predicts memory natively and reports CPU/IO as zero via
//! [`wmp_plan::ResourceVector::from_partial`] semantics.
//!
//! # Versioning policy
//!
//! - The format version is bumped only for **incompatible** layout changes;
//!   a reader supports exactly the versions it lists (currently: 1 and 2)
//!   and rejects others with a [`MlError::Codec`] naming both versions.
//! - Tag spaces (model kinds, template learners, tree-node/optimizer tags)
//!   are **append-only**: values are never reassigned. New learners get new
//!   tags, and old readers fail cleanly on unknown tags.
//! - The trailing checksum makes truncation and bit corruption a loud
//!   [`MlError::Codec`] instead of a silently wrong model.

use std::io::{Read, Write};
use std::path::Path;

use wmp_mlkit::codec as c;
use wmp_mlkit::{MlError, MlResult, MultiHead, Regressor};
use wmp_obs::Level;

use crate::histogram::HistogramMode;
use crate::learned::{LearnedWmp, LearnedWmpConfig, TrainTimings};
use crate::model::ModelKind;
use crate::template::{
    DbscanTemplates, PlanKMeansTemplates, RuleBasedTemplates, TemplateLearner, TextTemplates,
};
use crate::workload::LabelMode;

/// File magic: the first four bytes of every persisted model.
pub const MAGIC: [u8; 4] = *b"LWMP";

/// The container format version this build writes. The loader also reads
/// version-1 artifacts (scalar-memory models from before multi-resource
/// targets).
pub const FORMAT_VERSION: u16 = 2;

/// The oldest container format version the loader still reads.
pub const MIN_FORMAT_VERSION: u16 = 1;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// The template-learner tag space: `(tag, learner name)` pairs, declared in
/// assignment order. The tag space is **append-only** — tags are written
/// into artifacts, so an entry may never be removed, renumbered, or reused;
/// new learners take the next free tag at the end. The `codec_tags` lint
/// checks uniqueness and monotonic assignment of this table.
const TEMPLATE_TAGS: &[(u8, &str)] = &[
    (1, "query_plan"),
    (2, "rule_based"),
    (3, "bag_of_words"),
    (4, "text_mining"),
    (5, "word_embeddings"),
    (6, "dbscan"),
];

fn template_tag(name: &str) -> MlResult<u8> {
    TEMPLATE_TAGS.iter().find(|&&(_, n)| n == name).map(|&(tag, _)| tag).ok_or_else(|| {
        c::codec_err(format!(
            "cannot persist custom template learner '{name}' (no registered codec tag)"
        ))
    })
}

fn read_template(tag: u8, r: &mut dyn Read) -> MlResult<Box<dyn TemplateLearner>> {
    let learner: Box<dyn TemplateLearner> = match tag {
        1 => Box::new(PlanKMeansTemplates::read_params(r)?),
        2 => Box::new(RuleBasedTemplates::read_params(r)?),
        3..=5 => Box::new(TextTemplates::read_params(r)?),
        6 => Box::new(DbscanTemplates::read_params(r)?),
        other => return Err(c::codec_err(format!("unknown template learner tag {other}"))),
    };
    // The text payload re-encodes its mode; reject artifacts where the
    // container tag and the payload disagree about what was decoded.
    let decoded_tag = template_tag(learner.name())?;
    if decoded_tag != tag {
        return Err(c::codec_err(format!(
            "template tag {tag} decoded as '{}' (tag {decoded_tag}) — tag/payload mismatch",
            learner.name()
        )));
    }
    Ok(learner)
}

fn read_regressor(kind: ModelKind, r: &mut dyn Read) -> MlResult<Box<dyn Regressor>> {
    Ok(match kind {
        ModelKind::Dnn => Box::new(wmp_mlkit::mlp::Mlp::read_params(r)?),
        ModelKind::Ridge => Box::new(wmp_mlkit::ridge::Ridge::read_params(r)?),
        ModelKind::Dt => Box::new(wmp_mlkit::tree::DecisionTree::read_params(r)?),
        ModelKind::Rf => Box::new(wmp_mlkit::forest::RandomForest::read_params(r)?),
        ModelKind::Xgb => Box::new(wmp_mlkit::gbdt::GradientBoosting::read_params(r)?),
    })
}

/// Wrapper tag inside the version-2 regressor section: a plain regressor
/// decoded by the config's model kind.
const WRAPPER_PLAIN: u8 = 0;
/// Wrapper tag inside the version-2 regressor section: a [`MultiHead`] whose
/// per-head payloads decode via the config's model kind.
const WRAPPER_MULTI_HEAD: u8 = 1;

/// Decodes the regressor-section payload for the given container version.
fn read_wrapped_regressor(
    version: u16,
    kind: ModelKind,
    r: &mut dyn Read,
) -> MlResult<Box<dyn Regressor>> {
    if version < 2 {
        // Version 1 carried a bare scalar regressor with no wrapper tag.
        return read_regressor(kind, r);
    }
    match c::read_u8(r)? {
        WRAPPER_PLAIN => read_regressor(kind, r),
        WRAPPER_MULTI_HEAD => {
            Ok(Box::new(MultiHead::read_params(r, &move |hr| read_regressor(kind, hr))?))
        }
        other => Err(c::codec_err(format!("unknown regressor wrapper tag {other}"))),
    }
}

fn label_mode_code(mode: LabelMode) -> u8 {
    match mode {
        LabelMode::Sum => 0,
        LabelMode::Max => 1,
    }
}

fn histogram_mode_code(mode: HistogramMode) -> u8 {
    match mode {
        HistogramMode::Counts => 0,
        HistogramMode::Frequencies => 1,
    }
}

/// Writes a length-prefixed section produced by `fill`, enforcing the same
/// [`c::MAX_SEQ_LEN`] byte cap the loader applies — a model that saves must
/// also load.
fn write_section(
    out: &mut Vec<u8>,
    fill: impl FnOnce(&mut Vec<u8>) -> MlResult<()>,
) -> MlResult<()> {
    let mut payload = Vec::new();
    fill(&mut payload)?;
    if payload.len() > c::MAX_SEQ_LEN {
        return Err(c::codec_err(format!(
            "section payload of {} bytes exceeds the loadable maximum of {} — refusing to \
             write an artifact the loader would reject",
            payload.len(),
            c::MAX_SEQ_LEN
        )));
    }
    c::write_usize(out, payload.len())?;
    out.extend_from_slice(&payload);
    Ok(())
}

/// Reads a length-prefixed section and decodes it with `parse`, rejecting
/// payloads the decoder does not consume exactly.
fn read_section<T>(
    r: &mut &[u8],
    what: &str,
    parse: impl FnOnce(&mut dyn Read) -> MlResult<T>,
) -> MlResult<T> {
    let len = c::read_len(r, &format!("{what} section"))?;
    if r.len() < len {
        return Err(c::codec_err(format!(
            "{what} section claims {len} bytes but only {} remain (truncated file?)",
            r.len()
        )));
    }
    let (payload, rest) = r.split_at(len);
    *r = rest;
    let mut payload_reader: &[u8] = payload;
    let value = parse(&mut payload_reader)?;
    if !payload_reader.is_empty() {
        return Err(c::codec_err(format!(
            "{what} section has {} undecoded trailing bytes",
            payload_reader.len()
        )));
    }
    Ok(value)
}

impl LearnedWmp {
    /// Serializes the trained model (config, template learner, regressor)
    /// into the versioned container described in the [module docs](self).
    ///
    /// # Errors
    /// Returns [`MlError::Codec`] on I/O failure or for custom template
    /// learners without a registered codec tag.
    pub fn save_to_writer(&self, w: &mut dyn Write) -> MlResult<()> {
        let mut out = Vec::with_capacity(4096);
        out.extend_from_slice(&MAGIC);
        c::write_u16(&mut out, FORMAT_VERSION)?;
        c::write_u16(&mut out, 0)?; // reserved flags
        let config = self.config();
        c::write_u8(&mut out, config.model.code())?;
        c::write_usize(&mut out, config.batch_size)?;
        c::write_u8(&mut out, label_mode_code(config.label_mode))?;
        c::write_u8(&mut out, histogram_mode_code(config.histogram_mode))?;
        c::write_u64(&mut out, config.seed)?;
        c::write_usize(&mut out, self.n_train_workloads)?;
        c::write_f64(&mut out, self.timings.template_ms)?;
        c::write_f64(&mut out, self.timings.histogram_ms)?;
        c::write_f64(&mut out, self.timings.fit_ms)?;
        c::write_u8(&mut out, template_tag(self.templates().name())?)?;
        write_section(&mut out, |buf| self.templates().save_params(buf))?;
        let wrapper = if self.regressor().as_multi_head().is_some() {
            WRAPPER_MULTI_HEAD
        } else {
            WRAPPER_PLAIN
        };
        write_section(&mut out, |buf| {
            c::write_u8(buf, wrapper)?;
            self.regressor().save_params(buf)
        })?;
        let checksum = fnv1a64(&out);
        c::write_u64(&mut out, checksum)?;
        w.write_all(&out).map_err(|e| MlError::Codec(format!("write model: {e}")))
    }

    /// Clones the model through the codec (save → load in memory). The
    /// round trip is bit-exact, so the clone predicts identically to the
    /// source — this is how the serving layer snapshots a retrained model
    /// into a shareable copy without `LearnedWmp` implementing `Clone`
    /// (trait objects hold the learned state).
    ///
    /// # Errors
    /// Same conditions as [`LearnedWmp::save_to_writer`].
    pub fn codec_clone(&self) -> MlResult<Self> {
        let mut bytes = Vec::with_capacity(4096);
        self.save_to_writer(&mut bytes)?;
        Self::load_from_reader(&mut bytes.as_slice())
    }

    /// Saves the model to a file (see [`LearnedWmp::save_to_writer`]).
    ///
    /// The artifact is fully serialized in memory, written to a temporary
    /// sibling file, and atomically renamed into place — so neither a
    /// serialization failure (e.g. a custom template learner with no codec
    /// tag) nor a mid-write I/O failure (full disk, killed process) ever
    /// truncates a previously good artifact at `path`.
    ///
    /// # Errors
    /// Returns [`MlError::Codec`] on serialization or I/O failure.
    pub fn save_to(&self, path: impl AsRef<Path>) -> MlResult<()> {
        let path = path.as_ref();
        let span = wmp_obs::span!(
            Level::Info,
            target: "wmp_core::codec",
            "model_save",
            path = path.display().to_string(),
        );
        let mut bytes = Vec::with_capacity(4096);
        self.save_to_writer(&mut bytes)?;
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(".tmp.{}", std::process::id()));
        let tmp = std::path::PathBuf::from(tmp);
        if let Err(e) = std::fs::write(&tmp, &bytes) {
            std::fs::remove_file(&tmp).ok();
            return Err(MlError::Codec(format!("write {}: {e}", tmp.display())));
        }
        std::fs::rename(&tmp, path).map_err(|e| {
            std::fs::remove_file(&tmp).ok();
            MlError::Codec(format!("rename {} -> {}: {e}", tmp.display(), path.display()))
        })?;
        wmp_obs::event!(
            Level::Info,
            target: "wmp_core::codec",
            "model_saved",
            bytes = bytes.len(),
        );
        drop(span);
        Ok(())
    }

    /// Loads a model written by [`LearnedWmp::save_to_writer`], verifying
    /// magic, format version, and checksum before decoding, and producing
    /// bit-identical predictions to the model that was saved.
    ///
    /// # Errors
    /// Returns [`MlError::Codec`] for unrecognized or corrupted artifacts
    /// (wrong magic, unsupported version, checksum/truncation failures,
    /// unknown tags, malformed payloads).
    pub fn load_from_reader(r: &mut dyn Read) -> MlResult<Self> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes).map_err(|e| MlError::Codec(format!("read model: {e}")))?;
        // Header (8) + checksum (8) is the absolute minimum.
        if bytes.len() < 16 {
            return Err(c::codec_err(format!(
                "model file is {} bytes — too short to be a LearnedWMP artifact",
                bytes.len()
            )));
        }
        if bytes[..4] != MAGIC {
            return Err(c::codec_err("bad magic: not a LearnedWMP model file"));
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if !(MIN_FORMAT_VERSION..=FORMAT_VERSION).contains(&version) {
            return Err(c::codec_err(format!(
                "unsupported format version {version} (this build reads versions \
                 {MIN_FORMAT_VERSION}..={FORMAT_VERSION})"
            )));
        }
        let flags = u16::from_le_bytes([bytes[6], bytes[7]]);
        if flags != 0 {
            return Err(c::codec_err(format!(
                "unsupported reserved flags {flags:#06x} (this build reads flags 0)"
            )));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let stored = tail
            .try_into()
            .map(u64::from_le_bytes)
            .map_err(|_| c::codec_err("truncated checksum trailer"))?;
        let computed = fnv1a64(body);
        if stored != computed {
            return Err(c::codec_err(format!(
                "checksum mismatch (stored {stored:#018x}, computed {computed:#018x}) — \
                 the file is corrupted or truncated"
            )));
        }
        let mut cursor: &[u8] = &body[8..];
        let r = &mut cursor;
        let model_code = c::read_u8(r)?;
        let model = ModelKind::from_code(model_code)
            .ok_or_else(|| c::codec_err(format!("unknown model kind code {model_code}")))?;
        let batch_size = c::read_usize(r)?;
        let label_mode = match c::read_u8(r)? {
            0 => LabelMode::Sum,
            1 => LabelMode::Max,
            other => return Err(c::codec_err(format!("unknown label mode code {other}"))),
        };
        let histogram_mode = match c::read_u8(r)? {
            0 => HistogramMode::Counts,
            1 => HistogramMode::Frequencies,
            other => return Err(c::codec_err(format!("unknown histogram mode code {other}"))),
        };
        let seed = c::read_u64(r)?;
        let config = LearnedWmpConfig { model, batch_size, label_mode, histogram_mode, seed };
        let n_train_workloads = c::read_usize(r)?;
        let timings = TrainTimings {
            template_ms: c::read_f64(r)?,
            histogram_ms: c::read_f64(r)?,
            fit_ms: c::read_f64(r)?,
        };
        let template_tag = c::read_u8(r)?;
        let templates = read_section(r, "template", |pr| read_template(template_tag, pr))?;
        let regressor =
            read_section(r, "regressor", |pr| read_wrapped_regressor(version, model, pr))?;
        if !r.is_empty() {
            return Err(c::codec_err(format!("{} undecoded bytes before the checksum", r.len())));
        }
        Ok(LearnedWmp::from_parts(config, templates, regressor, timings, n_train_workloads))
    }

    /// Loads a model from a file (see [`LearnedWmp::load_from_reader`]).
    ///
    /// # Errors
    /// Same conditions as [`LearnedWmp::load_from_reader`], plus file-open
    /// failures.
    pub fn load_from(path: impl AsRef<Path>) -> MlResult<Self> {
        let span = wmp_obs::span!(
            Level::Info,
            target: "wmp_core::codec",
            "model_load",
            path = path.as_ref().display().to_string(),
        );
        let mut file = std::fs::File::open(path.as_ref())
            .map_err(|e| MlError::Codec(format!("open {}: {e}", path.as_ref().display())))?;
        let model = Self::load_from_reader(&mut file)?;
        drop(span);
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TemplateSpec;
    use crate::predictor::WorkloadPredictor;

    fn small_model(spec: TemplateSpec) -> (wmp_workloads::QueryLog, LearnedWmp) {
        let log = wmp_workloads::tpcc::generate(250, 3).unwrap();
        let model =
            LearnedWmp::builder().model(ModelKind::Ridge).templates(spec).fit(&log).unwrap();
        (log, model)
    }

    fn round_trip(model: &LearnedWmp) -> LearnedWmp {
        let mut buf = Vec::new();
        model.save_to_writer(&mut buf).unwrap();
        LearnedWmp::load_from_reader(&mut buf.as_slice()).unwrap()
    }

    #[test]
    fn every_template_spec_round_trips() {
        use crate::template::TextMode;
        let specs = [
            TemplateSpec::PlanKMeans { k: 6, seed: 1 },
            TemplateSpec::RuleBased,
            TemplateSpec::Text { mode: TextMode::BagOfWords, k: 5, seed: 1 },
            TemplateSpec::Text { mode: TextMode::TextMining, k: 5, seed: 1 },
            TemplateSpec::Text { mode: TextMode::Embedding, k: 5, seed: 1 },
            TemplateSpec::Dbscan { eps: 1.0, min_pts: 4 },
        ];
        for spec in specs {
            let (log, model) = small_model(spec.clone());
            let reloaded = round_trip(&model);
            assert_eq!(reloaded.templates().name(), model.templates().name(), "{spec:?}");
            let refs: Vec<&wmp_workloads::QueryRecord> = log.records.iter().collect();
            for chunk in refs.chunks(10).take(3) {
                assert_eq!(
                    model.predict_resources(chunk).unwrap().as_array().map(f64::to_bits),
                    reloaded.predict_resources(chunk).unwrap().as_array().map(f64::to_bits),
                    "{spec:?}"
                );
            }
        }
    }

    #[test]
    fn rejects_bad_magic_version_corruption_and_truncation() {
        let (_, model) = small_model(TemplateSpec::PlanKMeans { k: 4, seed: 1 });
        let mut bytes = Vec::new();
        model.save_to_writer(&mut bytes).unwrap();

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        let err = LearnedWmp::load_from_reader(&mut bad.as_slice()).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");

        // Unsupported version.
        let mut bad = bytes.clone();
        bad[4] = 99;
        let err = LearnedWmp::load_from_reader(&mut bad.as_slice()).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");

        // Nonzero reserved flags.
        let mut bad = bytes.clone();
        bad[6] = 0x01;
        let err = LearnedWmp::load_from_reader(&mut bad.as_slice()).unwrap_err();
        assert!(err.to_string().contains("flags"), "{err}");

        // Flipped payload byte → checksum mismatch.
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xFF;
        let err = LearnedWmp::load_from_reader(&mut bad.as_slice()).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");

        // Truncation at any point is an error, never a partial model.
        for cut in [10, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                LearnedWmp::load_from_reader(&mut &bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }

        // Empty, all-zero and plain-text inputs.
        for garbage in [&[][..], &[0u8; 64], b"not a model file at all"] {
            assert!(LearnedWmp::load_from_reader(&mut &garbage[..]).is_err(), "{garbage:?}");
        }
    }

    #[test]
    fn template_tag_payload_mismatch_is_rejected() {
        use crate::template::TextMode;
        let (_, model) =
            small_model(TemplateSpec::Text { mode: TextMode::BagOfWords, k: 4, seed: 1 });
        let mut bytes = Vec::new();
        model.save_to_writer(&mut bytes).unwrap();
        // The template tag is the first byte after the fixed-size header +
        // config + provenance prefix (see the module docs): 8 + 19 + 32.
        let tag_offset = 59;
        assert_eq!(bytes[tag_offset], 3, "bag-of-words artifacts carry tag 3");
        bytes[tag_offset] = 5; // claim word-embeddings, keep the BoW payload
        let body_len = bytes.len() - 8;
        let checksum = fnv1a64(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&checksum.to_le_bytes());
        let err = LearnedWmp::load_from_reader(&mut bytes.as_slice()).unwrap_err();
        assert!(err.to_string().contains("mismatch"), "{err}");
    }

    #[test]
    fn failed_save_never_truncates_an_existing_artifact() {
        use wmp_plan::Catalog;
        use wmp_workloads::QueryRecord;

        /// A custom learner with no codec tag: training works, persisting
        /// fails (via the default `save_params`).
        struct Unpersistable(usize);
        impl TemplateLearner for Unpersistable {
            fn fit(&mut self, records: &[&QueryRecord], _catalog: &Catalog) -> MlResult<()> {
                self.0 = 4.min(records.len());
                Ok(())
            }
            fn assign(&self, record: &QueryRecord) -> MlResult<usize> {
                Ok(record.sql().len() % self.0)
            }
            fn n_templates(&self) -> usize {
                self.0
            }
            fn name(&self) -> &'static str {
                "unpersistable"
            }
        }

        let (log, good) = small_model(TemplateSpec::PlanKMeans { k: 4, seed: 1 });
        let path = std::env::temp_dir().join(format!("lwmp-atomic-{}.lwmp", std::process::id()));
        good.save_to(&path).unwrap();
        let good_bytes = std::fs::read(&path).unwrap();

        let custom = LearnedWmp::builder()
            .model(ModelKind::Ridge)
            .template_learner(Box::new(Unpersistable(0)))
            .fit(&log)
            .unwrap();
        assert!(custom.save_to(&path).is_err(), "custom learner must not persist");
        assert_eq!(custom.footprint_bytes(), 0, "no persisted form, no size");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            good_bytes,
            "a failed save must leave the previous artifact intact"
        );
        std::fs::remove_file(&path).ok();
    }
}
