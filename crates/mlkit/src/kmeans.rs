//! Lloyd's k-means with k-means++ initialization, multiple restarts and the
//! elbow heuristic for choosing `k` — the paper's template learner (§III-B1,
//! Algorithm 1) and its `k` tuning method (§III-B1, "elbow method").

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::{dim_mismatch, MlError, MlResult};
use crate::linalg::{sq_dist, Matrix};
use crate::parallel;

/// Hyper-parameters for [`KMeans`].
#[derive(Debug, Clone)]
pub struct KMeansConfig {
    /// Number of clusters (query templates).
    pub k: usize,
    /// Maximum Lloyd iterations per restart.
    pub max_iter: usize,
    /// Convergence threshold on centroid movement (squared L2).
    pub tol: f64,
    /// Number of k-means++ restarts; the run with the lowest inertia wins.
    pub n_init: usize,
    /// RNG seed for reproducible clustering.
    pub seed: u64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig { k: 8, max_iter: 100, tol: 1e-6, n_init: 4, seed: 42 }
    }
}

/// Trained k-means model: centroids plus the inertia of the winning restart.
#[derive(Debug, Clone)]
pub struct KMeans {
    config: KMeansConfig,
    centroids: Option<Matrix>,
    inertia: f64,
    iterations_run: usize,
}

impl KMeans {
    /// Creates an unfitted model with the given configuration.
    pub fn new(config: KMeansConfig) -> Self {
        KMeans { config, centroids: None, inertia: f64::INFINITY, iterations_run: 0 }
    }

    /// Convenience constructor with default settings for `k` clusters.
    pub fn with_k(k: usize) -> Self {
        KMeans::new(KMeansConfig { k, ..KMeansConfig::default() })
    }

    /// Fits the model and returns the cluster assignment of each input row.
    ///
    /// The `n_init` restarts run on up to `available_parallelism()` cores
    /// (see [`crate::parallel`]); each seeds its own RNG, and the winner is
    /// the first restart, in restart order, with the lowest inertia, so the
    /// fit is bit-identical on any core count.
    ///
    /// Lloyd's loop keeps every row-to-centroid squared distance in a
    /// transient `n × k` `f64` cache and, after each update step, recomputes
    /// only the columns of centroids whose bits changed. Each worker has its
    /// own cache, freed when `fit` returns; at the template learner's
    /// 20,000-row sample cap with `k = 30` it is 4.8 MB per worker.
    ///
    /// # Errors
    /// - [`MlError::InvalidHyperparameter`] when `k == 0` or `k > x.rows()`.
    /// - [`MlError::EmptyInput`] when `x` has no rows/columns.
    pub fn fit(&mut self, x: &Matrix) -> MlResult<Vec<usize>> {
        let n = x.rows();
        let d = x.cols();
        if n == 0 || d == 0 {
            return Err(MlError::EmptyInput("KMeans::fit"));
        }
        let k = self.config.k;
        if k == 0 || k > n {
            return Err(MlError::InvalidHyperparameter(format!(
                "k = {k} must be in 1..={n} (number of samples)"
            )));
        }
        let restarts = self.config.n_init.max(1);
        let mut cache = vec![0.0; parallel::workers(restarts, usize::MAX) * n * k];
        let mut caches: Vec<&mut [f64]> = cache.chunks_exact_mut(n * k).collect();
        let this = &*self;
        let runs = parallel::map_indexed(restarts, &mut caches, |restart, dist| {
            let mut rng = StdRng::seed_from_u64(this.config.seed.wrapping_add(restart as u64));
            this.run_once(x, &mut rng, dist)
        });
        let mut best: Option<(f64, Matrix, Vec<usize>, usize)> = None;
        for run in runs {
            if best.as_ref().is_none_or(|(bi, ..)| run.0 < *bi) {
                best = Some(run);
            }
        }
        let (inertia, centroids, labels, iters) = best.expect("n_init >= 1 restart ran");
        self.inertia = inertia;
        self.centroids = Some(centroids);
        self.iterations_run = iters;
        Ok(labels)
    }

    /// One k-means++ seeding and Lloyd's loop. `dist` is the `n × k`
    /// row-major cache: `dist[i * k + c]` is always `sq_dist(x.row(i),
    /// centroid c)` for the current centroids. `sq_dist` is symmetric to
    /// the bit (x − y and y − x square to the same value), so taking the
    /// argmin from the cache gives exactly [`nearest`]'s labels and
    /// distances.
    fn run_once(
        &self,
        x: &Matrix,
        rng: &mut StdRng,
        dist: &mut [f64],
    ) -> (f64, Matrix, Vec<usize>, usize) {
        let n = x.rows();
        let d = x.cols();
        let k = self.config.k;
        let mut centroids = kmeans_pp_init(x, k, rng, dist);
        let mut labels = vec![0usize; n];
        let mut sums = Matrix::zeros(k, d);
        let mut counts = vec![0usize; k];
        let mut moved = Vec::with_capacity(k);
        let mut iters = 0;
        for iter in 0..self.config.max_iter {
            iters = iter + 1;
            // Assignment step.
            for (label, row_dist) in labels.iter_mut().zip(dist.chunks_exact(k)) {
                *label = argmin(row_dist).0;
            }
            // Update step.
            sums.as_mut_slice().fill(0.0);
            counts.fill(0);
            for (row, &l) in x.row_iter().zip(&labels) {
                counts[l] += 1;
                for (s, v) in sums.row_mut(l).iter_mut().zip(row) {
                    *s += v;
                }
            }
            let mut movement = 0.0;
            moved.clear();
            #[allow(clippy::needless_range_loop)] // c indexes both `counts` and matrix rows
            for c in 0..k {
                let new_c: &[f64] = if counts[c] == 0 {
                    // Empty cluster: reseed on the point farthest from its
                    // centroid, measured against the centroids as updated so
                    // far (so not from the cache).
                    let far = x
                        .row_iter()
                        .map(|row| nearest(&centroids, row).1)
                        .enumerate()
                        .max_by(|(_, da), (_, db)| da.partial_cmp(db).expect("finite distances"))
                        .map(|(i, _)| i)
                        .unwrap_or_else(|| rng.gen_range(0..n));
                    x.row(far)
                } else {
                    let inv = 1.0 / counts[c] as f64;
                    let mean = sums.row_mut(c);
                    for v in mean.iter_mut() {
                        *v *= inv;
                    }
                    mean
                };
                movement += sq_dist(centroids.row(c), new_c);
                if centroids.row(c).iter().zip(new_c).any(|(a, b)| a.to_bits() != b.to_bits()) {
                    moved.push(c);
                    centroids.row_mut(c).copy_from_slice(new_c);
                }
            }
            if !moved.is_empty() {
                for (row, row_dist) in x.row_iter().zip(dist.chunks_exact_mut(k)) {
                    for &c in &moved {
                        row_dist[c] = sq_dist(row, centroids.row(c));
                    }
                }
            }
            if movement < self.config.tol {
                break;
            }
        }
        // Final assignment + inertia against the final centroids.
        let mut inertia = 0.0;
        for (label, row_dist) in labels.iter_mut().zip(dist.chunks_exact(k)) {
            let (l, dl) = argmin(row_dist);
            *label = l;
            inertia += dl;
        }
        (inertia, centroids, labels, iters)
    }

    /// Assigns each row of `x` to its nearest learned centroid.
    ///
    /// # Errors
    /// Returns [`MlError::NotFitted`] before `fit` or a dimension error.
    pub fn predict(&self, x: &Matrix) -> MlResult<Vec<usize>> {
        x.row_iter().map(|r| self.predict_row(r)).collect()
    }

    /// Assigns a single point to its nearest centroid.
    ///
    /// # Errors
    /// Returns [`MlError::NotFitted`] before `fit` or a dimension error.
    pub fn predict_row(&self, row: &[f64]) -> MlResult<usize> {
        let c = self.centroids.as_ref().ok_or(MlError::NotFitted("KMeans"))?;
        if row.len() != c.cols() {
            return Err(dim_mismatch(
                format!("row.len() == {}", c.cols()),
                format!("row.len() == {}", row.len()),
            ));
        }
        Ok(nearest(c, row).0)
    }

    /// Learned centroids (`None` before fit).
    pub fn centroids(&self) -> Option<&Matrix> {
        self.centroids.as_ref()
    }

    /// Sum of squared distances of samples to their nearest centroid for the
    /// winning restart.
    pub fn inertia(&self) -> f64 {
        self.inertia
    }

    /// Number of Lloyd iterations the winning restart used.
    pub fn iterations_run(&self) -> usize {
        self.iterations_run
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.config.k
    }

    /// Serializes the configuration and (if fitted) the centroids.
    ///
    /// # Errors
    /// Returns [`MlError::Codec`] on I/O failure.
    pub fn write_params(&self, w: &mut dyn std::io::Write) -> MlResult<()> {
        use crate::codec as c;
        c::write_usize(w, self.config.k)?;
        c::write_usize(w, self.config.max_iter)?;
        c::write_f64(w, self.config.tol)?;
        c::write_usize(w, self.config.n_init)?;
        c::write_u64(w, self.config.seed)?;
        c::write_f64(w, self.inertia)?;
        c::write_usize(w, self.iterations_run)?;
        c::write_bool(w, self.centroids.is_some())?;
        if let Some(cm) = &self.centroids {
            c::write_matrix(w, cm)?;
        }
        Ok(())
    }

    /// Deserializes a model written by [`KMeans::write_params`].
    ///
    /// # Errors
    /// Returns [`MlError::Codec`] on I/O failure or truncation.
    pub fn read_params(r: &mut dyn std::io::Read) -> MlResult<KMeans> {
        use crate::codec as c;
        let config = KMeansConfig {
            k: c::read_usize(r)?,
            max_iter: c::read_usize(r)?,
            tol: c::read_f64(r)?,
            n_init: c::read_usize(r)?,
            seed: c::read_u64(r)?,
        };
        let inertia = c::read_f64(r)?;
        let iterations_run = c::read_usize(r)?;
        let centroids = if c::read_bool(r)? { Some(c::read_matrix(r)?) } else { None };
        Ok(KMeans { config, centroids, inertia, iterations_run })
    }
}

fn nearest(centroids: &Matrix, row: &[f64]) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for (c, cr) in centroids.row_iter().enumerate() {
        let d = sq_dist(cr, row);
        if d < best.1 {
            best = (c, d);
        }
    }
    best
}

/// The first index of the smallest distance in `dists`: [`nearest`]'s rule
/// (strict `<` from infinity, so the lowest index wins a tie) applied to a
/// row of cached distances.
fn argmin(dists: &[f64]) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for (c, &d) in dists.iter().enumerate() {
        if d < best.1 {
            best = (c, d);
        }
    }
    best
}

/// k-means++ seeding: first centroid uniform, subsequent centroids sampled
/// proportionally to squared distance from the nearest chosen centroid.
/// Every row-to-centroid distance it computes lands in the row-major
/// `n × k` cache `dist`, which it fills completely.
fn kmeans_pp_init(x: &Matrix, k: usize, rng: &mut StdRng, dist: &mut [f64]) -> Matrix {
    let n = x.rows();
    let d = x.cols();
    let mut centroids = Matrix::zeros(k, d);
    let first = rng.gen_range(0..n);
    centroids.row_mut(0).copy_from_slice(x.row(first));
    let mut closest: Vec<f64> = x
        .row_iter()
        .zip(dist.chunks_exact_mut(k))
        .map(|(r, row_dist)| {
            row_dist[0] = sq_dist(r, centroids.row(0));
            row_dist[0]
        })
        .collect();
    for c in 1..k {
        let total: f64 = closest.iter().sum();
        let chosen = if total <= 0.0 {
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut idx = n - 1;
            for (i, &w) in closest.iter().enumerate() {
                if target < w {
                    idx = i;
                    break;
                }
                target -= w;
            }
            idx
        };
        centroids.row_mut(c).copy_from_slice(x.row(chosen));
        for ((di, row), row_dist) in
            closest.iter_mut().zip(x.row_iter()).zip(dist.chunks_exact_mut(k))
        {
            let nd = sq_dist(row, centroids.row(c));
            row_dist[c] = nd;
            if nd < *di {
                *di = nd;
            }
        }
    }
    centroids
}

/// Runs k-means for each `k` in `ks` and returns `(k, inertia)` pairs — the
/// elbow curve of §III-B1.
///
/// # Errors
/// Propagates fit errors (e.g. a `k` larger than the sample count).
pub fn elbow_curve(x: &Matrix, ks: &[usize], seed: u64) -> MlResult<Vec<(usize, f64)>> {
    let mut out = Vec::with_capacity(ks.len());
    for &k in ks {
        let mut km = KMeans::new(KMeansConfig { k, seed, n_init: 2, ..KMeansConfig::default() });
        km.fit(x)?;
        out.push((k, km.inertia()));
    }
    Ok(out)
}

/// Picks the elbow of an inertia curve by the maximum-distance-to-chord
/// ("kneedle"-style) rule: the point farthest from the straight line joining
/// the first and last curve points.
///
/// # Errors
/// Returns [`MlError::EmptyInput`] when the curve is empty.
pub fn pick_elbow(curve: &[(usize, f64)]) -> MlResult<usize> {
    if curve.is_empty() {
        return Err(MlError::EmptyInput("pick_elbow"));
    }
    if curve.len() < 3 {
        return Ok(curve[0].0);
    }
    let (x0, y0) = (curve[0].0 as f64, curve[0].1);
    let (x1, y1) = (curve[curve.len() - 1].0 as f64, curve[curve.len() - 1].1);
    let dx = x1 - x0;
    let dy = y1 - y0;
    let norm = (dx * dx + dy * dy).sqrt();
    if norm == 0.0 {
        return Ok(curve[0].0);
    }
    let mut best = (curve[0].0, f64::NEG_INFINITY);
    for &(k, inertia) in curve {
        let d = ((k as f64 - x0) * dy - (inertia - y0) * dx).abs() / norm;
        if d > best.1 {
            best = (k, d);
        }
    }
    Ok(best.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three well-separated 2-d blobs.
    fn blobs() -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut truth = Vec::new();
        let centers = [(0.0, 0.0), (10.0, 10.0), (-10.0, 10.0)];
        let mut rng = StdRng::seed_from_u64(7);
        for (ci, &(cx, cy)) in centers.iter().enumerate() {
            for _ in 0..30 {
                rows.push(vec![cx + rng.gen::<f64>(), cy + rng.gen::<f64>()]);
                truth.push(ci);
            }
        }
        (Matrix::from_rows(&rows).unwrap(), truth)
    }

    fn to_bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// The winning restart of [`reference_fit`], with coverage counts
    /// summed over every restart.
    struct Reference {
        labels: Vec<usize>,
        centroids: Matrix,
        inertia: f64,
        iterations: usize,
        /// Empty-cluster reseeds onto a point no centroid sat on, so the
        /// reseeded centroid's distances all change.
        fresh_reseeds: usize,
        /// Assignment steps that saw two bit-identical centroids.
        coincident_steps: usize,
    }

    /// The full-recompute Lloyd's loop `KMeans::fit` ran before the distance
    /// cache: every row-to-centroid distance recomputed on every pass. The
    /// cached loop must reproduce it bit for bit.
    fn reference_fit(config: &KMeansConfig, x: &Matrix) -> Reference {
        let mut best: Option<Reference> = None;
        let (mut fresh_reseeds, mut coincident_steps) = (0, 0);
        for restart in 0..config.n_init.max(1) {
            let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(restart as u64));
            let run = reference_run_once(config, x, &mut rng);
            fresh_reseeds += run.fresh_reseeds;
            coincident_steps += run.coincident_steps;
            if best.as_ref().is_none_or(|b| run.inertia < b.inertia) {
                best = Some(run);
            }
        }
        Reference { fresh_reseeds, coincident_steps, ..best.expect("n_init >= 1 restart ran") }
    }

    fn reference_run_once(config: &KMeansConfig, x: &Matrix, rng: &mut StdRng) -> Reference {
        let n = x.rows();
        let d = x.cols();
        let k = config.k;
        let mut centroids = reference_pp_init(x, k, rng);
        let mut labels = vec![0usize; n];
        let mut iters = 0;
        let (mut fresh_reseeds, mut coincident_steps) = (0, 0);
        for iter in 0..config.max_iter {
            iters = iter + 1;
            let same =
                |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
            if (0..k).any(|a| (a + 1..k).any(|b| same(centroids.row(a), centroids.row(b)))) {
                coincident_steps += 1;
            }
            // Assignment step.
            for (i, row) in x.row_iter().enumerate() {
                labels[i] = nearest(&centroids, row).0;
            }
            // Update step.
            let mut sums = Matrix::zeros(k, d);
            let mut counts = vec![0usize; k];
            for (row, &l) in x.row_iter().zip(&labels) {
                counts[l] += 1;
                for (s, v) in sums.row_mut(l).iter_mut().zip(row) {
                    *s += v;
                }
            }
            let mut movement = 0.0;
            #[allow(clippy::needless_range_loop)]
            for c in 0..k {
                if counts[c] == 0 {
                    let far = x
                        .row_iter()
                        .enumerate()
                        .max_by(|(_, a), (_, b)| {
                            let da = nearest(&centroids, a).1;
                            let db = nearest(&centroids, b).1;
                            da.partial_cmp(&db).expect("finite distances")
                        })
                        .map(|(i, _)| i)
                        .unwrap_or_else(|| rng.gen_range(0..n));
                    let point = x.row(far).to_vec();
                    if nearest(&centroids, &point).1 > 0.0 {
                        fresh_reseeds += 1;
                    }
                    movement += sq_dist(centroids.row(c), &point);
                    centroids.row_mut(c).copy_from_slice(&point);
                } else {
                    let inv = 1.0 / counts[c] as f64;
                    let mut new_c = sums.row(c).to_vec();
                    for v in &mut new_c {
                        *v *= inv;
                    }
                    movement += sq_dist(centroids.row(c), &new_c);
                    centroids.row_mut(c).copy_from_slice(&new_c);
                }
            }
            if movement < config.tol {
                break;
            }
        }
        let mut inertia = 0.0;
        for (i, row) in x.row_iter().enumerate() {
            let (l, dist) = nearest(&centroids, row);
            labels[i] = l;
            inertia += dist;
        }
        Reference { labels, centroids, inertia, iterations: iters, fresh_reseeds, coincident_steps }
    }

    fn reference_pp_init(x: &Matrix, k: usize, rng: &mut StdRng) -> Matrix {
        let n = x.rows();
        let mut centroids = Matrix::zeros(k, x.cols());
        let first = rng.gen_range(0..n);
        centroids.row_mut(0).copy_from_slice(x.row(first));
        let mut dist: Vec<f64> = x.row_iter().map(|r| sq_dist(r, centroids.row(0))).collect();
        for c in 1..k {
            let total: f64 = dist.iter().sum();
            let chosen = if total <= 0.0 {
                rng.gen_range(0..n)
            } else {
                let mut target = rng.gen::<f64>() * total;
                let mut idx = n - 1;
                for (i, &w) in dist.iter().enumerate() {
                    if target < w {
                        idx = i;
                        break;
                    }
                    target -= w;
                }
                idx
            };
            centroids.row_mut(c).copy_from_slice(x.row(chosen));
            for (di, row) in dist.iter_mut().zip(x.row_iter()) {
                let nd = sq_dist(row, centroids.row(c));
                if nd < *di {
                    *di = nd;
                }
            }
        }
        centroids
    }

    /// `n` rows drawn from at most `distinct` base points on a coarse grid,
    /// so many rows repeat exactly; with `jitter`, each row is nudged off
    /// its base point instead, so runs last longer and only some centroids
    /// move on each pass. The grid step, 0.7, is not a power of two, so the
    /// mean of repeated rows can round a bit off their base point; an empty
    /// cluster then reseeds onto a point no centroid sits on.
    fn duplicate_heavy(
        rng: &mut StdRng,
        n: usize,
        d: usize,
        distinct: usize,
        jitter: bool,
    ) -> Matrix {
        let bases: Vec<Vec<f64>> = (0..distinct)
            .map(|_| (0..d).map(|_| f64::from(rng.gen_range(0..4u32)) * 0.7).collect())
            .collect();
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                let base = &bases[rng.gen_range(0..distinct)];
                base.iter().map(|&v| if jitter { v + rng.gen::<f64>() * 3.0 } else { v }).collect()
            })
            .collect();
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn cached_lloyd_matches_the_full_recompute_reference_bit_for_bit() {
        let (mut k_one, mut k_n, mut fresh_reseeds, mut coincident_steps) = (0, 0, 0, 0);
        for case in 0..300u64 {
            let mut rng = StdRng::seed_from_u64(case);
            let n = rng.gen_range(1..=24);
            let d = rng.gen_range(1..=3);
            let distinct = rng.gen_range(1..=n.min(6));
            let x = duplicate_heavy(&mut rng, n, d, distinct, case % 3 == 0);
            let k = match case % 4 {
                0 => 1,
                1 => n,
                // More clusters than distinct points: k-means++ must pick
                // coincident centroids, which tie and then empty.
                2 => rng.gen_range(distinct.min(n)..=n),
                _ => rng.gen_range(1..=n),
            };
            let config = KMeansConfig {
                k,
                max_iter: if case % 5 == 0 { rng.gen_range(0..=3) } else { 20 },
                tol: if case % 7 == 0 { 0.0 } else { 1e-6 },
                n_init: rng.gen_range(1..=6),
                seed: rng.gen(),
            };
            let reference = reference_fit(&config, &x);
            let mut km = KMeans::new(config.clone());
            let labels = km.fit(&x).unwrap();
            assert_eq!(labels, reference.labels, "case {case}: labels");
            assert_eq!(
                to_bits(km.centroids().unwrap().as_slice()),
                to_bits(reference.centroids.as_slice()),
                "case {case}: centroids"
            );
            assert_eq!(km.inertia().to_bits(), reference.inertia.to_bits(), "case {case}: inertia");
            assert_eq!(km.iterations_run(), reference.iterations, "case {case}: iterations");
            k_one += usize::from(k == 1);
            k_n += usize::from(k == n && n > 1);
            fresh_reseeds += reference.fresh_reseeds;
            coincident_steps += reference.coincident_steps;
        }
        assert!(k_one > 0 && k_n > 0, "k = 1 and k = n must both be covered");
        assert!(
            fresh_reseeds > 0,
            "some case must reseed an empty cluster onto a point off every centroid"
        );
        assert!(coincident_steps > 0, "some case must assign against coincident centroids");
    }

    #[test]
    fn recovers_well_separated_blobs() {
        let (x, truth) = blobs();
        let mut km = KMeans::with_k(3);
        let labels = km.fit(&x).unwrap();
        // Every ground-truth blob must map to exactly one k-means label.
        for blob in 0..3 {
            let blob_labels: Vec<usize> =
                labels.iter().zip(&truth).filter(|(_, t)| **t == blob).map(|(l, _)| *l).collect();
            assert!(blob_labels.windows(2).all(|w| w[0] == w[1]), "blob {blob} split");
        }
        assert!(km.inertia() < 100.0);
    }

    #[test]
    fn fit_is_deterministic_for_fixed_seed() {
        let (x, _) = blobs();
        let mut a = KMeans::with_k(3);
        let mut b = KMeans::with_k(3);
        assert_eq!(a.fit(&x).unwrap(), b.fit(&x).unwrap());
        assert_eq!(a.inertia(), b.inertia());
    }

    #[test]
    fn predict_matches_fit_labels() {
        let (x, _) = blobs();
        let mut km = KMeans::with_k(3);
        let labels = km.fit(&x).unwrap();
        assert_eq!(km.predict(&x).unwrap(), labels);
    }

    #[test]
    fn handles_k_equals_n() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]).unwrap();
        let mut km = KMeans::with_k(3);
        let labels = km.fit(&x).unwrap();
        let mut sorted = labels.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "each point gets its own cluster");
        assert!(km.inertia() < 1e-12);
    }

    #[test]
    fn rejects_bad_hyperparameters() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0]]).unwrap();
        assert!(KMeans::with_k(0).fit(&x).is_err());
        assert!(KMeans::with_k(5).fit(&x).is_err());
        assert!(KMeans::with_k(1).fit(&Matrix::zeros(0, 2)).is_err());
    }

    #[test]
    fn predict_before_fit_errors() {
        let km = KMeans::with_k(2);
        assert!(matches!(km.predict_row(&[0.0]), Err(MlError::NotFitted(_))));
    }

    #[test]
    fn predict_rejects_wrong_width() {
        let (x, _) = blobs();
        let mut km = KMeans::with_k(3);
        km.fit(&x).unwrap();
        assert!(km.predict_row(&[0.0]).is_err());
    }

    #[test]
    fn inertia_decreases_with_k() {
        let (x, _) = blobs();
        let curve = elbow_curve(&x, &[1, 2, 3, 5], 42).unwrap();
        for w in curve.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-9, "inertia must be non-increasing in k");
        }
    }

    #[test]
    fn elbow_picks_true_cluster_count() {
        let (x, _) = blobs();
        let curve = elbow_curve(&x, &[1, 2, 3, 4, 5, 6], 42).unwrap();
        let k = pick_elbow(&curve).unwrap();
        assert_eq!(k, 3);
    }

    #[test]
    fn pick_elbow_edge_cases() {
        assert!(pick_elbow(&[]).is_err());
        assert_eq!(pick_elbow(&[(4, 1.0)]).unwrap(), 4);
        assert_eq!(pick_elbow(&[(1, 5.0), (2, 4.0)]).unwrap(), 1);
    }
}
