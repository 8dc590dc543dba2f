//! Query-template learning (paper §III-B1 and the Fig. 9 comparison): map
//! each query to one of `k` templates.
//!
//! - [`PlanKMeansTemplates`] — the paper's method: k-means over standardized
//!   plan features (Algorithm 1).
//! - [`RuleBasedTemplates`] — expert-style structural rules.
//! - [`TextTemplates`] — bag-of-words / text-mining / word-embedding
//!   featurization of the SQL text, then k-means.
//! - [`DbscanTemplates`] — density clustering (the §V comparison where
//!   k-means won).

use std::collections::HashMap;

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

/// Assigns queries to templates. Implementations are fitted on the training
/// log (TR3) and then used during both histogram construction (TR5) and
/// inference (IN3).
///
/// `Send + Sync`: once fitted, `assign` is called concurrently from every
/// serving thread, so implementations must keep assignment-time state
/// immutable (or behind a lock).
pub trait TemplateLearner: Send + Sync {
    /// Learns templates from training records.
    ///
    /// # Errors
    /// Returns [`MlError`] for empty inputs or clustering failures.
    fn fit(&mut self, records: &[&QueryRecord], catalog: &Catalog) -> MlResult<()>;

    /// Assigns one query to a template id in `0..n_templates()`.
    ///
    /// # Errors
    /// Returns [`MlError::NotFitted`] before `fit`.
    fn assign(&self, record: &QueryRecord) -> MlResult<usize>;

    /// Number of templates (histogram length `k`).
    fn n_templates(&self) -> usize;

    /// Stable name used in reports.
    fn name(&self) -> &'static str;

    /// Serializes the fitted state with the [`wmp_mlkit::codec`] primitives
    /// so a trained learner can be persisted behind the trait object.
    /// Loading needs the concrete type, so each learner exposes an inherent
    /// `read_params` constructor; [`crate::codec`] dispatches on a tag.
    ///
    /// # Errors
    /// Returns [`MlError::Codec`] on I/O failure, or by default for custom
    /// learners that do not support persistence.
    fn save_params(&self, _w: &mut dyn std::io::Write) -> MlResult<()> {
        Err(MlError::Codec(format!(
            "template learner '{}' does not support persistence",
            self.name()
        )))
    }
}

/// Subsample cap for clustering-based learners: template learning needs a
/// representative sample, not every query (keeps TR3 fast on 93k-query logs).
const MAX_FIT_SAMPLES: usize = 20_000;

/// The plan features of at most [`MAX_FIT_SAMPLES`] of `records`,
/// standardized by a freshly fitted `scaler`, as one matrix. The rows are
/// copied once and scaled in place: no per-row or unscaled copy is made.
///
/// # Errors
/// [`MlError::EmptyInput`] for no records, a dimension error for ragged
/// feature rows.
fn scaled_sample(records: &[&QueryRecord], scaler: &mut StandardScaler) -> MlResult<Matrix> {
    // Deterministic stride-based thinning preserves template diversity
    // because generators rotate templates round-robin.
    let stride = records.len().div_ceil(MAX_FIT_SAMPLES).max(1);
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
    scaler.fit(&x)?;
    for r in 0..x.rows() {
        scaler.transform_row(x.row_mut(r))?;
    }
    Ok(x)
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

/// The paper's template learner: k-means over standardized plan features.
#[derive(Debug, Clone)]
pub struct PlanKMeansTemplates {
    k: usize,
    seed: u64,
    scaler: StandardScaler,
    kmeans: Option<KMeans>,
}

impl PlanKMeansTemplates {
    /// Creates an unfitted learner with `k` templates.
    pub fn new(k: usize, seed: u64) -> Self {
        PlanKMeansTemplates { k, seed, scaler: StandardScaler::new(), kmeans: None }
    }

    /// The learned k-means model (for inspection/size accounting).
    pub fn kmeans(&self) -> Option<&KMeans> {
        self.kmeans.as_ref()
    }

    /// Picks `k` with the paper's elbow method (§III-B1): runs k-means for
    /// each candidate, computes the inertia curve, and returns the knee.
    ///
    /// # Errors
    /// Propagates clustering errors (e.g. candidates larger than the sample).
    pub fn auto_k(records: &[&QueryRecord], candidates: &[usize], seed: u64) -> MlResult<usize> {
        if records.is_empty() {
            return Err(MlError::EmptyInput("PlanKMeansTemplates::auto_k"));
        }
        let xs = scaled_sample(records, &mut StandardScaler::new())?;
        let curve = wmp_mlkit::kmeans::elbow_curve(&xs, candidates, seed)?;
        wmp_mlkit::kmeans::pick_elbow(&curve)
    }

    /// Deserializes a learner written by [`TemplateLearner::save_params`].
    ///
    /// # Errors
    /// Returns [`MlError::Codec`] on I/O failure or truncation.
    pub fn read_params(r: &mut dyn std::io::Read) -> MlResult<Self> {
        use wmp_mlkit::codec as c;
        let k = c::read_usize(r)?;
        let seed = c::read_u64(r)?;
        let scaler = StandardScaler::read_params(r)?;
        let kmeans = if c::read_bool(r)? { Some(KMeans::read_params(r)?) } else { None };
        Ok(PlanKMeansTemplates { k, seed, scaler, kmeans })
    }
}

impl TemplateLearner for PlanKMeansTemplates {
    fn fit(&mut self, records: &[&QueryRecord], _catalog: &Catalog) -> MlResult<()> {
        if records.is_empty() {
            return Err(MlError::EmptyInput("PlanKMeansTemplates::fit"));
        }
        let xs = scaled_sample(records, &mut self.scaler)?;
        let k = self.k.min(xs.rows());
        let mut km = KMeans::new(KMeansConfig {
            k,
            seed: self.seed,
            n_init: 4,
            max_iter: 100,
            ..KMeansConfig::default()
        });
        km.fit(&xs)?;
        self.kmeans = Some(km);
        Ok(())
    }

    fn assign(&self, record: &QueryRecord) -> MlResult<usize> {
        let km = self.kmeans.as_ref().ok_or(MlError::NotFitted("PlanKMeansTemplates"))?;
        with_scaled_row(&self.scaler, &record.features, |row| km.predict_row(row))
    }

    fn n_templates(&self) -> usize {
        self.kmeans.as_ref().map_or(self.k, KMeans::k)
    }

    fn name(&self) -> &'static str {
        "query_plan"
    }

    fn save_params(&self, w: &mut dyn std::io::Write) -> MlResult<()> {
        use wmp_mlkit::codec as c;
        c::write_usize(w, self.k)?;
        c::write_u64(w, self.seed)?;
        self.scaler.write_params(w)?;
        c::write_bool(w, self.kmeans.is_some())?;
        if let Some(km) = &self.kmeans {
            km.write_params(w)?;
        }
        Ok(())
    }
}

/// Expert-rule templates: a query's template is determined by structural
/// attributes a DBA would write rules over (table count, aggregation shape,
/// sort/distinct flags, driving table). Unseen combinations at inference time
/// fall back to template 0, mirroring a rule set's catch-all bucket.
#[derive(Debug, Clone, Default)]
pub struct RuleBasedTemplates {
    map: HashMap<(usize, bool, bool, bool, Name), usize>,
    fitted: bool,
}

impl RuleBasedTemplates {
    /// Creates an unfitted rule set.
    pub fn new() -> Self {
        Self::default()
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

    /// Deserializes a learner written by [`TemplateLearner::save_params`].
    ///
    /// # Errors
    /// Returns [`MlError::Codec`] on I/O failure or truncation.
    pub fn read_params(r: &mut dyn std::io::Read) -> MlResult<Self> {
        use wmp_mlkit::codec as c;
        let fitted = c::read_bool(r)?;
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
        Ok(RuleBasedTemplates { map, fitted })
    }
}

impl TemplateLearner for RuleBasedTemplates {
    fn fit(&mut self, records: &[&QueryRecord], _catalog: &Catalog) -> MlResult<()> {
        if records.is_empty() {
            return Err(MlError::EmptyInput("RuleBasedTemplates::fit"));
        }
        self.map.clear();
        // Sort keys for a deterministic template numbering.
        let mut keys: Vec<_> = records.iter().map(|r| Self::key_of(r)).collect();
        keys.sort();
        keys.dedup();
        for (i, k) in keys.into_iter().enumerate() {
            self.map.insert(k, i);
        }
        self.fitted = true;
        Ok(())
    }

    fn assign(&self, record: &QueryRecord) -> MlResult<usize> {
        if !self.fitted {
            return Err(MlError::NotFitted("RuleBasedTemplates"));
        }
        Ok(self.map.get(&Self::key_of(record)).copied().unwrap_or(0))
    }

    fn n_templates(&self) -> usize {
        self.map.len().max(1)
    }

    fn name(&self) -> &'static str {
        "rule_based"
    }

    fn save_params(&self, w: &mut dyn std::io::Write) -> MlResult<()> {
        use wmp_mlkit::codec as c;
        c::write_bool(w, self.fitted)?;
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
    fn learner_name(self) -> &'static str {
        match self {
            TextMode::BagOfWords => "bag_of_words",
            TextMode::TextMining => "text_mining",
            TextMode::Embedding => "word_embeddings",
        }
    }

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
            other => Err(wmp_mlkit::codec::codec_err(format!("invalid text-mode tag {other}"))),
        }
    }
}

enum TextFeaturizer {
    Counts(Vectorizer),
    Embedding(WordEmbedder),
}

/// Text-based templates: featurize SQL text, then k-means.
pub struct TextTemplates {
    k: usize,
    seed: u64,
    mode: TextMode,
    featurizer: Option<TextFeaturizer>,
    kmeans: Option<KMeans>,
}

impl TextTemplates {
    /// Creates an unfitted learner.
    pub fn new(mode: TextMode, k: usize, seed: u64) -> Self {
        TextTemplates { k, seed, mode, featurizer: None, kmeans: None }
    }

    fn featurize(&self, sql: &str) -> MlResult<Vec<f64>> {
        match self.featurizer.as_ref().ok_or(MlError::NotFitted("TextTemplates"))? {
            TextFeaturizer::Counts(v) => Ok(v.vectorize(sql)),
            TextFeaturizer::Embedding(e) => Ok(e.embed(sql)),
        }
    }

    /// Deserializes a learner written by [`TemplateLearner::save_params`].
    ///
    /// # Errors
    /// Returns [`MlError::Codec`] on I/O failure or truncation.
    pub fn read_params(r: &mut dyn std::io::Read) -> MlResult<Self> {
        use wmp_mlkit::codec as c;
        let mode = TextMode::from_code(c::read_u8(r)?)?;
        let k = c::read_usize(r)?;
        let seed = c::read_u64(r)?;
        let featurizer = match c::read_u8(r)? {
            0 => None,
            1 => {
                let n = c::read_len(r, "vectorizer vocabulary")?;
                let mut names = Vec::with_capacity(n);
                for _ in 0..n {
                    names.push(c::read_string(r)?);
                }
                Some(TextFeaturizer::Counts(Vectorizer::from_vocabulary(names)))
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
                Some(TextFeaturizer::Embedding(WordEmbedder::from_parts(names, vectors)))
            }
            other => return Err(c::codec_err(format!("invalid text featurizer tag {other}"))),
        };
        let kmeans = if c::read_bool(r)? { Some(KMeans::read_params(r)?) } else { None };
        Ok(TextTemplates { k, seed, mode, featurizer, kmeans })
    }
}

impl TemplateLearner for TextTemplates {
    fn fit(&mut self, records: &[&QueryRecord], catalog: &Catalog) -> MlResult<()> {
        if records.is_empty() {
            return Err(MlError::EmptyInput("TextTemplates::fit"));
        }
        let sample: Vec<&QueryRecord> = if records.len() > MAX_FIT_SAMPLES {
            let stride = records.len().div_ceil(MAX_FIT_SAMPLES);
            records.iter().step_by(stride).copied().collect()
        } else {
            records.to_vec()
        };
        let corpus: Vec<String> = sample.iter().map(|r| r.sql()).collect();
        let featurizer = match self.mode {
            TextMode::BagOfWords => TextFeaturizer::Counts(Vectorizer::bag_of_words(&corpus, 300)),
            TextMode::TextMining => {
                TextFeaturizer::Counts(Vectorizer::text_mining(&catalog.identifier_vocabulary()))
            }
            TextMode::Embedding => TextFeaturizer::Embedding(WordEmbedder::train(
                &corpus,
                &EmbedConfig { seed: self.seed, ..EmbedConfig::default() },
            )),
        };
        self.featurizer = Some(featurizer);
        let rows: Vec<Vec<f64>> =
            corpus.iter().map(|s| self.featurize(s)).collect::<MlResult<_>>()?;
        let x = Matrix::from_rows(&rows)?;
        let k = self.k.min(x.rows());
        let mut km = KMeans::new(KMeansConfig {
            k,
            seed: self.seed,
            n_init: 2,
            max_iter: 50,
            ..KMeansConfig::default()
        });
        km.fit(&x)?;
        self.kmeans = Some(km);
        Ok(())
    }

    fn assign(&self, record: &QueryRecord) -> MlResult<usize> {
        let km = self.kmeans.as_ref().ok_or(MlError::NotFitted("TextTemplates"))?;
        km.predict_row(&self.featurize(&record.sql())?)
    }

    fn n_templates(&self) -> usize {
        self.kmeans.as_ref().map_or(self.k, KMeans::k)
    }

    fn name(&self) -> &'static str {
        self.mode.learner_name()
    }

    fn save_params(&self, w: &mut dyn std::io::Write) -> MlResult<()> {
        use wmp_mlkit::codec as c;
        c::write_u8(w, self.mode.code())?;
        c::write_usize(w, self.k)?;
        c::write_u64(w, self.seed)?;
        match &self.featurizer {
            None => c::write_u8(w, 0)?,
            Some(TextFeaturizer::Counts(v)) => {
                c::write_u8(w, 1)?;
                c::write_usize(w, v.vocabulary().len())?;
                for name in v.vocabulary() {
                    c::write_string(w, name)?;
                }
            }
            Some(TextFeaturizer::Embedding(e)) => {
                c::write_u8(w, 2)?;
                let names = e.vocabulary();
                c::write_usize(w, names.len())?;
                for name in &names {
                    c::write_string(w, name)?;
                }
                c::write_matrix(w, e.vectors())?;
            }
        }
        c::write_bool(w, self.kmeans.is_some())?;
        if let Some(km) = &self.kmeans {
            km.write_params(w)?;
        }
        Ok(())
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
    fitted: bool,
}

impl DbscanTemplates {
    /// Creates an unfitted learner.
    pub fn new(eps: f64, min_pts: usize) -> Self {
        DbscanTemplates {
            config: DbscanConfig { eps, min_pts },
            scaler: StandardScaler::new(),
            points: Matrix::zeros(0, 0),
            labels: Vec::new(),
            n_templates: 0,
            fitted: false,
        }
    }

    /// Deserializes a learner written by [`TemplateLearner::save_params`].
    ///
    /// # Errors
    /// Returns [`MlError::Codec`] on I/O failure, truncation, or mismatched
    /// point/label counts.
    pub fn read_params(r: &mut dyn std::io::Read) -> MlResult<Self> {
        use wmp_mlkit::codec as c;
        let config = DbscanConfig { eps: c::read_f64(r)?, min_pts: c::read_usize(r)? };
        let scaler = StandardScaler::read_params(r)?;
        let points = c::read_matrix(r)?;
        let labels = c::read_usize_seq(r)?;
        let n_templates = c::read_usize(r)?;
        let fitted = c::read_bool(r)?;
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
        Ok(DbscanTemplates { config, scaler, points, labels, n_templates, fitted })
    }
}

impl TemplateLearner for DbscanTemplates {
    fn fit(&mut self, records: &[&QueryRecord], _catalog: &Catalog) -> MlResult<()> {
        if records.is_empty() {
            return Err(MlError::EmptyInput("DbscanTemplates::fit"));
        }
        // DBSCAN is O(n²); cap the fitted sample harder than k-means.
        let rows = {
            let mut rows: Vec<Vec<f64>> = records.iter().map(|r| r.features.clone()).collect();
            if rows.len() > 3_000 {
                let stride = rows.len().div_ceil(3_000);
                rows = rows.into_iter().step_by(stride).collect();
            }
            rows
        };
        let x = Matrix::from_rows(&rows)?;
        let xs = self.scaler.fit_transform(&x)?;
        let raw = dbscan(&xs, &self.config)?;
        let n_clusters = wmp_mlkit::dbscan::n_clusters(&raw);
        // Noise points map to the extra template `n_clusters`.
        self.labels =
            raw.iter().map(|&l| if l == NOISE { n_clusters } else { l as usize }).collect();
        self.n_templates = n_clusters + 1;
        self.points = xs;
        self.fitted = true;
        Ok(())
    }

    fn assign(&self, record: &QueryRecord) -> MlResult<usize> {
        if !self.fitted {
            return Err(MlError::NotFitted("DbscanTemplates"));
        }
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

    fn n_templates(&self) -> usize {
        self.n_templates.max(1)
    }

    fn name(&self) -> &'static str {
        "dbscan"
    }

    fn save_params(&self, w: &mut dyn std::io::Write) -> MlResult<()> {
        use wmp_mlkit::codec as c;
        c::write_f64(w, self.config.eps)?;
        c::write_usize(w, self.config.min_pts)?;
        self.scaler.write_params(w)?;
        c::write_matrix(w, &self.points)?;
        c::write_usize_seq(w, &self.labels)?;
        c::write_usize(w, self.n_templates)?;
        c::write_bool(w, self.fitted)
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
        let mut t = PlanKMeansTemplates::new(8, 1);
        t.fit(&refs, &log.catalog).unwrap();
        assert_eq!(t.n_templates(), 8);
        for r in &refs {
            assert!(t.assign(r).unwrap() < 8);
        }
    }

    #[test]
    fn plan_kmeans_groups_same_generator_template_together() {
        let log = sample_log();
        let refs: Vec<&QueryRecord> = log.records.iter().collect();
        let mut t = PlanKMeansTemplates::new(12, 1);
        t.fit(&refs, &log.catalog).unwrap();
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
        let mut t = RuleBasedTemplates::new();
        t.fit(&refs[..200], &log.catalog).unwrap();
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
            let mut t = TextTemplates::new(mode, 6, 3);
            t.fit(&refs[..150], &log.catalog).unwrap();
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
        let mut t = DbscanTemplates::new(1.0, 4);
        t.fit(&refs, &log.catalog).unwrap();
        assert!(t.n_templates() >= 2, "found {} templates", t.n_templates());
        for r in refs.iter().take(50) {
            assert!(t.assign(r).unwrap() < t.n_templates());
        }
    }

    #[test]
    fn learners_error_before_fit_and_on_empty() {
        let log = sample_log();
        let r = &log.records[0];
        assert!(PlanKMeansTemplates::new(4, 0).assign(r).is_err());
        assert!(RuleBasedTemplates::new().assign(r).is_err());
        assert!(TextTemplates::new(TextMode::BagOfWords, 4, 0).assign(r).is_err());
        assert!(DbscanTemplates::new(0.5, 3).assign(r).is_err());
        let empty: Vec<&QueryRecord> = Vec::new();
        assert!(PlanKMeansTemplates::new(4, 0).fit(&empty, &log.catalog).is_err());
        assert!(RuleBasedTemplates::new().fit(&empty, &log.catalog).is_err());
    }

    #[test]
    fn learner_names_are_distinct() {
        let names = [
            PlanKMeansTemplates::new(2, 0).name(),
            RuleBasedTemplates::new().name(),
            TextTemplates::new(TextMode::BagOfWords, 2, 0).name(),
            TextTemplates::new(TextMode::TextMining, 2, 0).name(),
            TextTemplates::new(TextMode::Embedding, 2, 0).name(),
            DbscanTemplates::new(0.5, 3).name(),
        ];
        let set: std::collections::HashSet<&str> = names.into_iter().collect();
        assert_eq!(set.len(), 6);
    }
}
