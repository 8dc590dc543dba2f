//! Query-template learning (paper §III-B1 and the Fig. 9 comparison): map
//! each query to one of `k` templates.
//!
//! A [`TemplateSpec`] names a method and its hyper-parameters;
//! [`TemplateSpec::fit`] learns it from the training log (TR3) and returns
//! [`Templates`], the fitted learner that histogram construction (TR5) and
//! inference (IN3) assign queries with. The methods form a closed set, one
//! variant each, and the codec persists each under its own tag:
//!
//! - [`PlanKMeansTemplates`] — the paper's method: k-means over standardized
//!   plan features (Algorithm 1).
//! - [`RuleBasedTemplates`] — expert-style structural rules.
//! - [`TextTemplates`] — bag-of-words / text-mining / word-embedding
//!   featurization of the SQL text, then k-means.
//! - [`DbscanTemplates`] — density clustering (the §V comparison where
//!   k-means won).

use std::collections::HashMap;
use std::io::{Read, Write};

use wmp_mlkit::codec as c;
use wmp_mlkit::dbscan::{dbscan, DbscanConfig, NOISE};
use wmp_mlkit::kmeans::{KMeans, KMeansConfig};
use wmp_mlkit::linalg::sq_dist;
use wmp_mlkit::scaler::StandardScaler;
use wmp_mlkit::{Matrix, MlError, MlResult};
use wmp_plan::features::N_PLAN_FEATURES;
use wmp_plan::{Catalog, Name};
use wmp_text::bow::Vectorizer;
use wmp_text::embed::{EmbedConfig, WordEmbedder};
use wmp_workloads::QueryRecord;

/// Declarative choice of template learner (TR3): [`TemplateSpec::fit`]
/// turns it into fitted [`Templates`].
#[derive(Debug, Clone, PartialEq)]
pub enum TemplateSpec {
    /// The paper's method: k-means over standardized plan features
    /// (Algorithm 1).
    PlanKMeans {
        /// Number of templates (histogram length).
        k: usize,
        /// Clustering seed.
        seed: u64,
    },
    /// Expert-style structural rules (Fig. 9 "rule based").
    RuleBased,
    /// SQL-text featurization (bag-of-words / text-mining / embeddings) then
    /// k-means (Fig. 9).
    Text {
        /// Which text featurization to use.
        mode: TextMode,
        /// Number of templates.
        k: usize,
        /// Clustering seed.
        seed: u64,
    },
    /// Density clustering (§V comparison).
    Dbscan {
        /// Neighborhood radius in standardized feature space.
        eps: f64,
        /// Minimum neighbors for a core point.
        min_pts: usize,
    },
}

impl Default for TemplateSpec {
    fn default() -> Self {
        TemplateSpec::PlanKMeans { k: 30, seed: 42 }
    }
}

impl TemplateSpec {
    /// Validates the spec without doing any work.
    ///
    /// # Errors
    /// Returns [`MlError::InvalidHyperparameter`] for out-of-range values.
    pub fn validate(&self) -> MlResult<()> {
        match *self {
            TemplateSpec::PlanKMeans { k, .. } | TemplateSpec::Text { k, .. } if k == 0 => {
                Err(MlError::InvalidHyperparameter("template count k must be >= 1".into()))
            }
            TemplateSpec::Dbscan { eps, .. } if !(eps > 0.0 && eps.is_finite()) => {
                Err(MlError::InvalidHyperparameter(format!(
                    "dbscan eps = {eps} must be finite and > 0"
                )))
            }
            TemplateSpec::Dbscan { min_pts: 0, .. } => {
                Err(MlError::InvalidHyperparameter("dbscan min_pts must be >= 1".into()))
            }
            _ => Ok(()),
        }
    }

    /// Validates the spec, then learns its templates from training records
    /// (TR3). `catalog` supplies the text-mining vocabulary.
    ///
    /// # Errors
    /// [`MlError::InvalidHyperparameter`] for an invalid spec,
    /// [`MlError::EmptyInput`] for no records, else clustering errors.
    pub fn fit(&self, records: &[&QueryRecord], catalog: &Catalog) -> MlResult<Templates> {
        self.validate()?;
        if records.is_empty() {
            return Err(MlError::EmptyInput("TemplateSpec::fit"));
        }
        Ok(match *self {
            TemplateSpec::PlanKMeans { k, seed } => {
                Templates::PlanKMeans(PlanKMeansTemplates::fit(k, seed, records)?)
            }
            TemplateSpec::RuleBased => Templates::RuleBased(RuleBasedTemplates::fit(records)),
            TemplateSpec::Text { mode, k, seed } => {
                Templates::Text(TextTemplates::fit(mode, k, seed, records, catalog)?)
            }
            TemplateSpec::Dbscan { eps, min_pts } => {
                Templates::Dbscan(DbscanTemplates::fit(DbscanConfig { eps, min_pts }, records)?)
            }
        })
    }
}

/// Fitted query templates, one variant per template-learning method of
/// Fig. 9 and §V. Only [`TemplateSpec::fit`] and the codec build them, so
/// every value is fitted; once built, `assign` is called concurrently from
/// every serving thread.
pub enum Templates {
    /// k-means over standardized plan features (the paper's method).
    PlanKMeans(PlanKMeansTemplates),
    /// Expert-style structural rules.
    RuleBased(RuleBasedTemplates),
    /// SQL-text featurization, then k-means.
    Text(TextTemplates),
    /// Density clusters plus one catch-all noise template.
    Dbscan(DbscanTemplates),
}

impl Templates {
    /// Assigns one query to a template id in `0..n_templates()`.
    ///
    /// # Errors
    /// A dimension error when the query's features do not have the width
    /// the templates were fitted on.
    pub fn assign(&self, record: &QueryRecord) -> MlResult<usize> {
        match self {
            Templates::PlanKMeans(t) => {
                with_scaled_row(&t.scaler, &record.features, |row| t.kmeans.predict_row(row))
            }
            Templates::RuleBased(t) => {
                Ok(t.map.get(&RuleBasedTemplates::key_of(record)).copied().unwrap_or(0))
            }
            Templates::Text(t) => t.kmeans.predict_row(&t.featurizer.featurize(&record.sql())),
            Templates::Dbscan(t) => t.assign(record),
        }
    }

    /// Number of templates (histogram length `k`).
    pub fn n_templates(&self) -> usize {
        match self {
            Templates::PlanKMeans(PlanKMeansTemplates { kmeans, .. })
            | Templates::Text(TextTemplates { kmeans, .. }) => kmeans.k(),
            Templates::RuleBased(t) => t.map.len().max(1),
            Templates::Dbscan(t) => t.n_templates.max(1),
        }
    }
}

/// Subsample cap for clustering-based learners: template learning needs a
/// representative sample, not every query (keeps TR3 fast on 93k-query logs).
const MAX_FIT_SAMPLES: usize = 20_000;

/// Subsample cap for DBSCAN, which is O(n²) in its sample.
const MAX_DBSCAN_SAMPLES: usize = 3_000;

/// The plan features of at most `cap` of `records` as one matrix,
/// standardized by the scaler fitted on them, which is returned alongside.
/// The rows are copied once and scaled in place: no per-row or unscaled
/// copy is made.
///
/// # Errors
/// [`MlError::EmptyInput`] for no records, a dimension error for ragged
/// feature rows.
fn scaled_sample(records: &[&QueryRecord], cap: usize) -> MlResult<(StandardScaler, Matrix)> {
    // Deterministic stride-based thinning preserves template diversity
    // because generators rotate templates round-robin.
    let stride = records.len().div_ceil(cap).max(1);
    let n = records.len().div_ceil(stride);
    let cols = records.first().ok_or(MlError::EmptyInput("template sample"))?.features.len();
    let mut data = Vec::with_capacity(n * cols);
    for (i, row) in records.iter().step_by(stride).map(|r| &r.features).enumerate() {
        if row.len() != cols {
            return Err(wmp_mlkit::error::dim_mismatch(
                format!("row {i}.len() == {cols}"),
                format!("row {i}.len() == {}", row.len()),
            ));
        }
        data.extend_from_slice(row);
    }
    let mut x = Matrix::from_vec(n, cols, data)?;
    let mut scaler = StandardScaler::new();
    scaler.fit(&x)?;
    for r in 0..x.rows() {
        scaler.transform_row(x.row_mut(r))?;
    }
    Ok((scaler, x))
}

/// Standardizes `features` with `scaler` and hands the scaled row to `f`.
/// Rows up to [`N_PLAN_FEATURES`] wide (every plan-feature row) are scaled
/// in a stack buffer, so assignment allocates nothing; the arithmetic is
/// [`StandardScaler::transform_row`]'s either way.
fn with_scaled_row<T>(
    scaler: &StandardScaler,
    features: &[f64],
    f: impl FnOnce(&[f64]) -> MlResult<T>,
) -> MlResult<T> {
    let mut stack = [0.0; N_PLAN_FEATURES];
    let mut heap;
    let row = match stack.get_mut(..features.len()) {
        Some(row) => {
            row.copy_from_slice(features);
            row
        }
        None => {
            heap = features.to_vec();
            heap.as_mut_slice()
        }
    };
    scaler.transform_row(row)?;
    f(row)
}

/// The error for a payload whose fitted flag or marker says "unfitted": no
/// saved model can carry one, so the artifact is corrupt.
fn unfitted(what: &str) -> MlError {
    c::codec_err(format!("{what} payload is marked unfitted; saved templates are always fitted"))
}

/// Reads the fitted flag every template payload carries.
///
/// # Errors
/// [`MlError::Codec`] on I/O failure or a flag marking `what` unfitted.
fn read_fitted_flag(r: &mut dyn Read, what: &str) -> MlResult<()> {
    if c::read_bool(r)? {
        Ok(())
    } else {
        Err(unfitted(what))
    }
}

/// The paper's template learner: k-means over standardized plan features.
#[derive(Debug, Clone)]
pub struct PlanKMeansTemplates {
    k: usize,
    seed: u64,
    scaler: StandardScaler,
    kmeans: KMeans,
}

impl PlanKMeansTemplates {
    fn fit(k: usize, seed: u64, records: &[&QueryRecord]) -> MlResult<Self> {
        let (scaler, xs) = scaled_sample(records, MAX_FIT_SAMPLES)?;
        let mut kmeans = KMeans::new(KMeansConfig {
            k: k.min(xs.rows()),
            seed,
            n_init: 4,
            max_iter: 100,
            ..KMeansConfig::default()
        });
        kmeans.fit(&xs)?;
        Ok(PlanKMeansTemplates { k, seed, scaler, kmeans })
    }

    /// The learned k-means model (for inspection).
    pub fn kmeans(&self) -> &KMeans {
        &self.kmeans
    }

    /// Picks `k` with the paper's elbow method (§III-B1): runs k-means for
    /// each candidate, computes the inertia curve, and returns the knee.
    ///
    /// # Errors
    /// [`MlError::EmptyInput`] for no records; propagates clustering errors
    /// (e.g. candidates larger than the sample).
    pub fn auto_k(records: &[&QueryRecord], candidates: &[usize], seed: u64) -> MlResult<usize> {
        let (_, xs) = scaled_sample(records, MAX_FIT_SAMPLES)?;
        let curve = wmp_mlkit::kmeans::elbow_curve(&xs, candidates, seed)?;
        wmp_mlkit::kmeans::pick_elbow(&curve)
    }

    pub(crate) fn read_params(r: &mut dyn Read) -> MlResult<Self> {
        let k = c::read_usize(r)?;
        let seed = c::read_u64(r)?;
        let scaler = StandardScaler::read_params(r)?;
        read_fitted_flag(r, "plan k-means templates")?;
        let kmeans = KMeans::read_params(r)?;
        Ok(PlanKMeansTemplates { k, seed, scaler, kmeans })
    }

    pub(crate) fn write_params(&self, w: &mut dyn Write) -> MlResult<()> {
        c::write_usize(w, self.k)?;
        c::write_u64(w, self.seed)?;
        self.scaler.write_params(w)?;
        c::write_bool(w, true)?;
        self.kmeans.write_params(w)
    }
}

/// Expert-rule templates: a query's template is determined by structural
/// attributes a DBA would write rules over (table count, aggregation shape,
/// sort/distinct flags, driving table). Unseen combinations at inference time
/// fall back to template 0, mirroring a rule set's catch-all bucket.
#[derive(Debug, Clone)]
pub struct RuleBasedTemplates {
    map: HashMap<(usize, bool, bool, bool, Name), usize>,
}

impl RuleBasedTemplates {
    fn fit(records: &[&QueryRecord]) -> Self {
        // Sort keys for a deterministic template numbering.
        let mut keys: Vec<_> = records.iter().map(|r| Self::key_of(r)).collect();
        keys.sort();
        keys.dedup();
        RuleBasedTemplates { map: keys.into_iter().enumerate().map(|(i, k)| (k, i)).collect() }
    }

    fn key_of(record: &QueryRecord) -> (usize, bool, bool, bool, Name) {
        let s = &record.spec;
        (
            s.tables.len().min(6),
            !s.group_by.is_empty(),
            !s.order_by.is_empty() || s.distinct,
            !s.aggregates.is_empty(),
            s.tables.first().map(|t| t.table.clone()).unwrap_or_default(),
        )
    }

    pub(crate) fn read_params(r: &mut dyn Read) -> MlResult<Self> {
        read_fitted_flag(r, "rule-based templates")?;
        let n = c::read_len(r, "rule-based templates")?;
        let mut map = HashMap::with_capacity(n);
        for _ in 0..n {
            let key = (
                c::read_usize(r)?,
                c::read_bool(r)?,
                c::read_bool(r)?,
                c::read_bool(r)?,
                Name::from(c::read_string(r)?),
            );
            let template = c::read_usize(r)?;
            // assign() must stay within 0..n_templates() or the histogram
            // builder panics — reject out-of-range ids at load time.
            if template >= n.max(1) {
                return Err(c::codec_err(format!(
                    "rule-based template id {template} out of range for {n} rules"
                )));
            }
            map.insert(key, template);
        }
        Ok(RuleBasedTemplates { map })
    }

    pub(crate) fn write_params(&self, w: &mut dyn Write) -> MlResult<()> {
        c::write_bool(w, true)?;
        // Sort entries for a deterministic byte stream.
        let mut entries: Vec<_> = self.map.iter().collect();
        entries.sort();
        c::write_usize(w, entries.len())?;
        for ((tables, grouped, ordered, aggregated, driving), template) in entries {
            c::write_usize(w, *tables)?;
            c::write_bool(w, *grouped)?;
            c::write_bool(w, *ordered)?;
            c::write_bool(w, *aggregated)?;
            c::write_string(w, driving)?;
            c::write_usize(w, *template)?;
        }
        Ok(())
    }
}

/// Which text featurization a [`TextTemplates`] learner uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TextMode {
    /// All frequent tokens.
    BagOfWords,
    /// Schema identifiers + SQL keywords only.
    TextMining,
    /// Mean-pooled word embeddings.
    Embedding,
}

impl TextMode {
    fn code(self) -> u8 {
        match self {
            TextMode::BagOfWords => 0,
            TextMode::TextMining => 1,
            TextMode::Embedding => 2,
        }
    }

    fn from_code(code: u8) -> MlResult<Self> {
        match code {
            0 => Ok(TextMode::BagOfWords),
            1 => Ok(TextMode::TextMining),
            2 => Ok(TextMode::Embedding),
            other => Err(c::codec_err(format!("invalid text-mode tag {other}"))),
        }
    }
}

enum TextFeaturizer {
    Counts(Vectorizer),
    Embedding(WordEmbedder),
}

impl TextFeaturizer {
    fn featurize(&self, sql: &str) -> Vec<f64> {
        match self {
            TextFeaturizer::Counts(v) => v.vectorize(sql),
            TextFeaturizer::Embedding(e) => e.embed(sql),
        }
    }
}

/// Text-based templates: featurize SQL text, then k-means.
pub struct TextTemplates {
    k: usize,
    seed: u64,
    mode: TextMode,
    featurizer: TextFeaturizer,
    kmeans: KMeans,
}

impl TextTemplates {
    fn fit(
        mode: TextMode,
        k: usize,
        seed: u64,
        records: &[&QueryRecord],
        catalog: &Catalog,
    ) -> MlResult<Self> {
        let stride = records.len().div_ceil(MAX_FIT_SAMPLES).max(1);
        let corpus: Vec<String> = records.iter().step_by(stride).map(|r| r.sql()).collect();
        let featurizer = match mode {
            TextMode::BagOfWords => TextFeaturizer::Counts(Vectorizer::bag_of_words(&corpus, 300)),
            TextMode::TextMining => {
                TextFeaturizer::Counts(Vectorizer::text_mining(&catalog.identifier_vocabulary()))
            }
            TextMode::Embedding => TextFeaturizer::Embedding(WordEmbedder::train(
                &corpus,
                &EmbedConfig { seed, ..EmbedConfig::default() },
            )),
        };
        let rows: Vec<Vec<f64>> = corpus.iter().map(|s| featurizer.featurize(s)).collect();
        let x = Matrix::from_rows(&rows)?;
        let mut kmeans = KMeans::new(KMeansConfig {
            k: k.min(x.rows()),
            seed,
            n_init: 2,
            max_iter: 50,
            ..KMeansConfig::default()
        });
        kmeans.fit(&x)?;
        Ok(TextTemplates { k, seed, mode, featurizer, kmeans })
    }

    /// The text featurization this learner uses.
    pub(crate) fn mode(&self) -> TextMode {
        self.mode
    }

    pub(crate) fn read_params(r: &mut dyn Read) -> MlResult<Self> {
        let mode = TextMode::from_code(c::read_u8(r)?)?;
        let k = c::read_usize(r)?;
        let seed = c::read_u64(r)?;
        let featurizer = match c::read_u8(r)? {
            0 => return Err(unfitted("text templates")),
            1 => {
                let n = c::read_len(r, "vectorizer vocabulary")?;
                let mut names = Vec::with_capacity(n);
                for _ in 0..n {
                    names.push(c::read_string(r)?);
                }
                TextFeaturizer::Counts(Vectorizer::from_vocabulary(names))
            }
            2 => {
                let n = c::read_len(r, "embedder vocabulary")?;
                let mut names = Vec::with_capacity(n);
                for _ in 0..n {
                    names.push(c::read_string(r)?);
                }
                let vectors = c::read_matrix(r)?;
                if vectors.rows() != names.len() {
                    return Err(c::codec_err(format!(
                        "embedder has {} tokens but {} vector rows",
                        names.len(),
                        vectors.rows()
                    )));
                }
                TextFeaturizer::Embedding(WordEmbedder::from_parts(names, vectors))
            }
            other => return Err(c::codec_err(format!("invalid text featurizer tag {other}"))),
        };
        read_fitted_flag(r, "text templates")?;
        let kmeans = KMeans::read_params(r)?;
        Ok(TextTemplates { k, seed, mode, featurizer, kmeans })
    }

    pub(crate) fn write_params(&self, w: &mut dyn Write) -> MlResult<()> {
        c::write_u8(w, self.mode.code())?;
        c::write_usize(w, self.k)?;
        c::write_u64(w, self.seed)?;
        match &self.featurizer {
            TextFeaturizer::Counts(v) => {
                c::write_u8(w, 1)?;
                c::write_usize(w, v.vocabulary().len())?;
                for name in v.vocabulary() {
                    c::write_string(w, name)?;
                }
            }
            TextFeaturizer::Embedding(e) => {
                c::write_u8(w, 2)?;
                let names = e.vocabulary();
                c::write_usize(w, names.len())?;
                for name in &names {
                    c::write_string(w, name)?;
                }
                c::write_matrix(w, e.vectors())?;
            }
        }
        c::write_bool(w, true)?;
        self.kmeans.write_params(w)
    }
}

/// DBSCAN-based templates (related-work comparison, §V). Density clusters
/// become templates; new queries adopt the label of their nearest fitted
/// point, and noise points form one extra catch-all template.
pub struct DbscanTemplates {
    config: DbscanConfig,
    scaler: StandardScaler,
    points: Matrix,
    labels: Vec<usize>,
    n_templates: usize,
}

impl DbscanTemplates {
    fn fit(config: DbscanConfig, records: &[&QueryRecord]) -> MlResult<Self> {
        let (scaler, points) = scaled_sample(records, MAX_DBSCAN_SAMPLES)?;
        let raw = dbscan(&points, &config)?;
        let n_clusters = wmp_mlkit::dbscan::n_clusters(&raw);
        // Noise points map to the extra template `n_clusters`.
        let labels =
            raw.iter().map(|&l| if l == NOISE { n_clusters } else { l as usize }).collect();
        Ok(DbscanTemplates { config, scaler, points, labels, n_templates: n_clusters + 1 })
    }

    /// The label of the fitted point nearest to `record`.
    fn assign(&self, record: &QueryRecord) -> MlResult<usize> {
        with_scaled_row(&self.scaler, &record.features, |row| {
            let mut best = (0usize, f64::INFINITY);
            for (i, p) in self.points.row_iter().enumerate() {
                let d = sq_dist(p, row);
                if d < best.1 {
                    best = (i, d);
                }
            }
            Ok(self.labels[best.0])
        })
    }

    pub(crate) fn read_params(r: &mut dyn Read) -> MlResult<Self> {
        let config = DbscanConfig { eps: c::read_f64(r)?, min_pts: c::read_usize(r)? };
        let scaler = StandardScaler::read_params(r)?;
        let points = c::read_matrix(r)?;
        let labels = c::read_usize_seq(r)?;
        let n_templates = c::read_usize(r)?;
        read_fitted_flag(r, "dbscan templates")?;
        if points.rows() == 0 {
            return Err(c::codec_err("dbscan templates have no fitted points"));
        }
        if labels.len() != points.rows() {
            return Err(c::codec_err(format!(
                "dbscan has {} points but {} labels",
                points.rows(),
                labels.len()
            )));
        }
        if let Some(&bad) = labels.iter().find(|&&l| l >= n_templates.max(1)) {
            return Err(c::codec_err(format!("dbscan label {bad} out of range 0..{n_templates}")));
        }
        Ok(DbscanTemplates { config, scaler, points, labels, n_templates })
    }

    pub(crate) fn write_params(&self, w: &mut dyn Write) -> MlResult<()> {
        c::write_f64(w, self.config.eps)?;
        c::write_usize(w, self.config.min_pts)?;
        self.scaler.write_params(w)?;
        c::write_matrix(w, &self.points)?;
        c::write_usize_seq(w, &self.labels)?;
        c::write_usize(w, self.n_templates)?;
        c::write_bool(w, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> wmp_workloads::QueryLog {
        wmp_workloads::tpcc::generate(300, 4).unwrap()
    }

    #[test]
    fn plan_kmeans_learns_and_assigns_in_range() {
        let log = sample_log();
        let refs: Vec<&QueryRecord> = log.records.iter().collect();
        let t = TemplateSpec::PlanKMeans { k: 8, seed: 1 }.fit(&refs, &log.catalog).unwrap();
        assert_eq!(t.n_templates(), 8);
        for r in &refs {
            assert!(t.assign(r).unwrap() < 8);
        }
    }

    #[test]
    fn plan_kmeans_groups_same_generator_template_together() {
        let log = sample_log();
        let refs: Vec<&QueryRecord> = log.records.iter().collect();
        let t = TemplateSpec::PlanKMeans { k: 12, seed: 1 }.fit(&refs, &log.catalog).unwrap();
        // Queries from the same generator template should mostly share a
        // learned template (their plans are near-identical).
        let mut by_hint: HashMap<usize, Vec<usize>> = HashMap::new();
        for r in &refs {
            by_hint.entry(r.template_hint).or_default().push(t.assign(r).unwrap());
        }
        let mut majority_share = 0.0;
        let mut groups = 0.0;
        for (_, assigns) in by_hint {
            let mut counts: HashMap<usize, usize> = HashMap::new();
            for a in &assigns {
                *counts.entry(*a).or_insert(0) += 1;
            }
            let max = counts.values().max().copied().unwrap_or(0);
            majority_share += max as f64 / assigns.len() as f64;
            groups += 1.0;
        }
        assert!(majority_share / groups > 0.7, "share = {}", majority_share / groups);
    }

    #[test]
    fn rule_based_is_consistent_and_covers_unseen() {
        let log = sample_log();
        let refs: Vec<&QueryRecord> = log.records.iter().collect();
        let t = TemplateSpec::RuleBased.fit(&refs[..200], &log.catalog).unwrap();
        assert!(t.n_templates() >= 2);
        for r in &refs {
            assert!(t.assign(r).unwrap() < t.n_templates());
        }
        // Same structural key → same template.
        let a = t.assign(refs[0]).unwrap();
        let b = t.assign(refs[0]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn text_templates_all_modes_fit_and_assign() {
        let log = sample_log();
        let refs: Vec<&QueryRecord> = log.records.iter().collect();
        for mode in [TextMode::BagOfWords, TextMode::TextMining, TextMode::Embedding] {
            let t =
                TemplateSpec::Text { mode, k: 6, seed: 3 }.fit(&refs[..150], &log.catalog).unwrap();
            assert_eq!(t.n_templates(), 6);
            for r in refs.iter().take(30) {
                assert!(t.assign(r).unwrap() < 6, "mode {mode:?}");
            }
        }
    }

    #[test]
    fn dbscan_templates_fit_and_assign() {
        let log = sample_log();
        let refs: Vec<&QueryRecord> = log.records.iter().collect();
        let t = TemplateSpec::Dbscan { eps: 1.0, min_pts: 4 }.fit(&refs, &log.catalog).unwrap();
        assert!(t.n_templates() >= 2, "found {} templates", t.n_templates());
        for r in refs.iter().take(50) {
            assert!(t.assign(r).unwrap() < t.n_templates());
        }
    }

    #[test]
    fn every_spec_errors_on_empty_input() {
        let log = sample_log();
        let empty: Vec<&QueryRecord> = Vec::new();
        for spec in [
            TemplateSpec::PlanKMeans { k: 4, seed: 0 },
            TemplateSpec::RuleBased,
            TemplateSpec::Text { mode: TextMode::BagOfWords, k: 4, seed: 0 },
            TemplateSpec::Text { mode: TextMode::TextMining, k: 4, seed: 0 },
            TemplateSpec::Text { mode: TextMode::Embedding, k: 4, seed: 0 },
            TemplateSpec::Dbscan { eps: 0.5, min_pts: 3 },
        ] {
            assert!(
                matches!(spec.fit(&empty, &log.catalog), Err(MlError::EmptyInput(_))),
                "{spec:?}"
            );
        }
    }

    #[test]
    fn dbscan_payload_without_points_is_rejected() {
        // Fitted flag set, but no point for `assign` to take a label from.
        let mut buf = Vec::new();
        c::write_f64(&mut buf, 1.0).unwrap();
        c::write_usize(&mut buf, 4).unwrap();
        StandardScaler::new().write_params(&mut buf).unwrap();
        c::write_matrix(&mut buf, &Matrix::zeros(0, 0)).unwrap();
        c::write_usize_seq(&mut buf, &[]).unwrap();
        c::write_usize(&mut buf, 0).unwrap();
        c::write_bool(&mut buf, true).unwrap();
        let err = DbscanTemplates::read_params(&mut buf.as_slice()).err().expect("rejected");
        assert!(err.to_string().contains("no fitted points"), "{err}");
    }

    #[test]
    fn learner_names_are_distinct() {
        let log = sample_log();
        let refs: Vec<&QueryRecord> = log.records.iter().take(60).collect();
        let names: Vec<&str> = [
            TemplateSpec::PlanKMeans { k: 2, seed: 0 },
            TemplateSpec::RuleBased,
            TemplateSpec::Text { mode: TextMode::BagOfWords, k: 2, seed: 0 },
            TemplateSpec::Text { mode: TextMode::TextMining, k: 2, seed: 0 },
            TemplateSpec::Text { mode: TextMode::Embedding, k: 2, seed: 0 },
            TemplateSpec::Dbscan { eps: 0.5, min_pts: 3 },
        ]
        .iter()
        .map(|spec| spec.fit(&refs, &log.catalog).unwrap().name())
        .collect();
        let set: std::collections::HashSet<&str> = names.iter().copied().collect();
        assert_eq!(set.len(), 6, "{names:?}");
        assert!(!set.contains("unregistered"), "{names:?}");
    }
}
