//! Word embeddings for query text — the fifth template-learning alternative
//! in the paper's Fig. 9 comparison.
//!
//! Classic count-based pipeline: windowed co-occurrence counts over the query
//! corpus → positive pointwise mutual information (PPMI) → truncated
//! eigendecomposition by subspace (orthogonal) iteration. A query's vector is
//! the mean of its tokens' embeddings, which addresses the two bag-of-words
//! limitations the paper names: vocabulary size (dimension is `dim`, not
//! `|vocab|`) and keyword proximity (co-occurrence captures it).

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wmp_mlkit::linalg::{dot, Matrix};

use crate::token::tokenize;

/// Hyper-parameters for [`WordEmbedder`].
#[derive(Debug, Clone)]
pub struct EmbedConfig {
    /// Embedding dimension.
    pub dim: usize,
    /// Co-occurrence window radius (tokens at distance ≤ window co-occur).
    pub window: usize,
    /// Keep the `max_vocab` most frequent tokens.
    pub max_vocab: usize,
    /// Subspace-iteration rounds.
    pub iterations: usize,
    /// RNG seed for the iteration's starting basis.
    pub seed: u64,
}

impl Default for EmbedConfig {
    fn default() -> Self {
        EmbedConfig { dim: 16, window: 2, max_vocab: 400, iterations: 30, seed: 42 }
    }
}

/// Trained word embeddings over a SQL corpus.
#[derive(Debug, Clone)]
pub struct WordEmbedder {
    vocab: HashMap<String, usize>,
    /// One row per vocabulary token.
    vectors: Matrix,
    dim: usize,
}

impl WordEmbedder {
    /// Trains embeddings on a corpus of SQL strings.
    pub fn train(corpus: &[String], config: &EmbedConfig) -> Self {
        // 1. Frequency-capped vocabulary (deterministic order).
        let mut freq: HashMap<String, usize> = HashMap::new();
        let token_streams: Vec<Vec<String>> = corpus.iter().map(|s| tokenize(s)).collect();
        for stream in &token_streams {
            for t in stream {
                *freq.entry(t.clone()).or_insert(0) += 1;
            }
        }
        let mut by_freq: Vec<(String, usize)> = freq.into_iter().collect();
        by_freq.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        by_freq.truncate(config.max_vocab);
        let vocab: HashMap<String, usize> =
            by_freq.iter().enumerate().map(|(i, (t, _))| (t.clone(), i)).collect();
        let n = vocab.len();
        if n == 0 {
            return WordEmbedder { vocab, vectors: Matrix::zeros(0, config.dim), dim: config.dim };
        }

        // 2. Symmetric windowed co-occurrence counts.
        let mut cooc = Matrix::zeros(n, n);
        for stream in &token_streams {
            let ids: Vec<Option<usize>> = stream.iter().map(|t| vocab.get(t).copied()).collect();
            for (i, a) in ids.iter().enumerate() {
                let Some(a) = a else { continue };
                let end = (i + config.window + 1).min(ids.len());
                for b in ids[i + 1..end].iter().flatten() {
                    cooc.set(*a, *b, cooc.get(*a, *b) + 1.0);
                    cooc.set(*b, *a, cooc.get(*b, *a) + 1.0);
                }
            }
        }

        // 3. PPMI transform.
        let total: f64 = cooc.as_slice().iter().sum::<f64>().max(1.0);
        let row_sums: Vec<f64> = (0..n).map(|r| cooc.row(r).iter().sum::<f64>()).collect();
        let mut ppmi = Matrix::zeros(n, n);
        for r in 0..n {
            for c in 0..n {
                let joint = cooc.get(r, c);
                if joint > 0.0 && row_sums[r] > 0.0 && row_sums[c] > 0.0 {
                    let pmi = (joint * total / (row_sums[r] * row_sums[c])).ln();
                    if pmi > 0.0 {
                        ppmi.set(r, c, pmi);
                    }
                }
            }
        }

        // 4. Top-`dim` eigenvectors of the symmetric PPMI matrix by subspace
        // iteration with Gram-Schmidt re-orthonormalization.
        let dim = config.dim.min(n);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut basis = Matrix::zeros(n, dim);
        for v in basis.as_mut_slice() {
            *v = rng.gen::<f64>() - 0.5;
        }
        orthonormalize(&mut basis);
        // Each round applies the (symmetric) PPMI operator twice before
        // re-orthonormalizing: iterating on A² squares the eigenvalue ratios,
        // doubling the convergence rate per round while keeping the same
        // eigenvectors. Stop early once the subspace stabilizes.
        for _ in 0..config.iterations {
            let prev = basis.clone();
            basis = ppmi.matmul(&basis).expect("square product");
            basis = ppmi.matmul(&basis).expect("square product");
            orthonormalize(&mut basis);
            let min_alignment = (0..dim)
                .map(|c| {
                    let mut d = 0.0;
                    for r in 0..n {
                        d += basis.get(r, c) * prev.get(r, c);
                    }
                    d.abs()
                })
                .fold(f64::INFINITY, f64::min);
            if min_alignment > 1.0 - 1e-12 {
                break;
            }
        }
        // Scale columns by sqrt(|eigenvalue|) (Rayleigh quotients) so more
        // informative directions carry more weight.
        let projected = ppmi.matmul(&basis).expect("square product");
        let mut scales = vec![0.0f64; dim];
        for (d, scale) in scales.iter_mut().enumerate() {
            let mut lambda = 0.0;
            for r in 0..n {
                lambda += basis.get(r, d) * projected.get(r, d);
            }
            *scale = lambda.abs().sqrt();
        }
        let mut vectors = basis;
        for r in 0..n {
            for (d, s) in scales.iter().enumerate() {
                vectors.set(r, d, vectors.get(r, d) * s);
            }
        }
        let mut padded = Matrix::zeros(n, config.dim);
        for r in 0..n {
            for d in 0..dim {
                padded.set(r, d, vectors.get(r, d));
            }
        }
        WordEmbedder { vocab, vectors: padded, dim: config.dim }
    }

    /// Rebuilds an embedder from a token list and its embedding matrix (one
    /// row per token, in the same order) — the inverse of
    /// [`WordEmbedder::vocabulary`] + [`WordEmbedder::vectors`], used to
    /// reload persisted models.
    ///
    /// # Panics
    /// Panics when `names.len() != vectors.rows()` (callers validate first).
    pub fn from_parts(names: Vec<String>, vectors: Matrix) -> Self {
        assert_eq!(names.len(), vectors.rows(), "one embedding row per vocabulary token");
        let dim = vectors.cols();
        let vocab = names.into_iter().enumerate().map(|(i, t)| (t, i)).collect();
        WordEmbedder { vocab, vectors, dim }
    }

    /// Vocabulary tokens ordered by embedding row index.
    pub fn vocabulary(&self) -> Vec<String> {
        let mut names = vec![String::new(); self.vocab.len()];
        for (token, &i) in &self.vocab {
            names[i] = token.clone();
        }
        names
    }

    /// The embedding matrix (one row per vocabulary token).
    pub fn vectors(&self) -> &Matrix {
        &self.vectors
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.vocab.len()
    }

    /// The embedding of a single token, if in vocabulary.
    pub fn token_vector(&self, token: &str) -> Option<&[f64]> {
        self.vocab.get(token).map(|&i| self.vectors.row(i))
    }

    /// Mean-of-token-vectors embedding of a SQL string (zeros when no token
    /// is in vocabulary).
    pub fn embed(&self, sql: &str) -> Vec<f64> {
        let mut acc = vec![0.0; self.dim];
        let mut count = 0usize;
        for tok in tokenize(sql) {
            if let Some(v) = self.token_vector(&tok) {
                for (a, b) in acc.iter_mut().zip(v) {
                    *a += b;
                }
                count += 1;
            }
        }
        if count > 0 {
            for a in &mut acc {
                *a /= count as f64;
            }
        }
        acc
    }
}

/// Cosine similarity between two vectors (0 for zero vectors).
pub fn cosine(a: &[f64], b: &[f64]) -> f64 {
    let na = dot(a, a).sqrt();
    let nb = dot(b, b).sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot(a, b) / (na * nb)
    }
}

/// Modified Gram-Schmidt orthonormalization of a matrix's columns, in place.
fn orthonormalize(m: &mut Matrix) {
    let (n, d) = (m.rows(), m.cols());
    for c in 0..d {
        for prev in 0..c {
            let mut proj = 0.0;
            for r in 0..n {
                proj += m.get(r, c) * m.get(r, prev);
            }
            for r in 0..n {
                let v = m.get(r, c) - proj * m.get(r, prev);
                m.set(r, c, v);
            }
        }
        let mut norm = 0.0;
        for r in 0..n {
            norm += m.get(r, c) * m.get(r, c);
        }
        let norm = norm.sqrt();
        if norm > 1e-12 {
            for r in 0..n {
                m.set(r, c, m.get(r, c) / norm);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<String> {
        // Two "topics": alpha/x queries and beta/z queries.
        let mut c = Vec::new();
        for i in 0..20 {
            c.push(format!("SELECT a.x FROM alpha AS a WHERE a.x = {i}"));
            c.push(format!("SELECT b.z FROM beta AS b WHERE b.z = {i} GROUP BY b.z"));
        }
        c
    }

    #[test]
    fn training_produces_vectors_for_frequent_tokens() {
        let e = WordEmbedder::train(&corpus(), &EmbedConfig::default());
        assert!(e.vocab_size() > 5);
        assert!(e.token_vector("alpha").is_some());
        assert!(e.token_vector("nonexistent_token").is_none());
        assert_eq!(e.dim(), 16);
    }

    #[test]
    fn cooccurring_tokens_are_closer_than_unrelated_ones() {
        let e = WordEmbedder::train(&corpus(), &EmbedConfig::default());
        let alpha = e.token_vector("alpha").unwrap().to_vec();
        let x = e.token_vector("x").unwrap().to_vec();
        let z = e.token_vector("z").unwrap().to_vec();
        // `x` always co-occurs with `alpha`, `z` never does.
        assert!(cosine(&alpha, &x) > cosine(&alpha, &z) + 0.1);
    }

    #[test]
    fn query_embeddings_cluster_by_topic() {
        let e = WordEmbedder::train(&corpus(), &EmbedConfig::default());
        let qa1 = e.embed("SELECT a.x FROM alpha AS a WHERE a.x = 99");
        let qa2 = e.embed("SELECT a.x FROM alpha AS a WHERE a.x = 123");
        let qb = e.embed("SELECT b.z FROM beta AS b GROUP BY b.z");
        assert!(cosine(&qa1, &qa2) > cosine(&qa1, &qb));
    }

    #[test]
    fn embedding_has_fixed_dimension_regardless_of_text_length() {
        let e = WordEmbedder::train(&corpus(), &EmbedConfig::default());
        assert_eq!(e.embed("SELECT").len(), 16);
        assert_eq!(e.embed(&corpus().join(" ")).len(), 16);
    }

    #[test]
    fn unknown_text_embeds_to_zeros() {
        let e = WordEmbedder::train(&corpus(), &EmbedConfig::default());
        let v = e.embed("zzz yyy qqq");
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn empty_corpus_is_safe() {
        let e = WordEmbedder::train(&[], &EmbedConfig::default());
        assert_eq!(e.vocab_size(), 0);
        assert_eq!(e.embed("select x").len(), 16);
    }

    #[test]
    fn training_is_deterministic() {
        let a = WordEmbedder::train(&corpus(), &EmbedConfig::default());
        let b = WordEmbedder::train(&corpus(), &EmbedConfig::default());
        assert_eq!(a.token_vector("alpha"), b.token_vector("alpha"));
    }

    #[test]
    fn dim_larger_than_vocab_is_padded() {
        let tiny = vec!["select a".to_string()];
        let e = WordEmbedder::train(&tiny, &EmbedConfig { dim: 8, ..Default::default() });
        assert_eq!(e.embed("select a").len(), 8);
    }

    #[test]
    fn cosine_edge_cases() {
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!((cosine(&[1.0, 0.0], &[0.0, 1.0])).abs() < 1e-12);
    }
}
