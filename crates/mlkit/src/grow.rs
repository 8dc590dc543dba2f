//! Shared histogram-based regression-tree grower and the one tree layout
//! every tree learner predicts from.
//!
//! One grower serves all three tree learners: CART uses `lambda == 0` (leaf =
//! mean, gain = SSE reduction up to a constant factor), the GBDT passes the
//! XGBoost-style regularized gain (`lambda`, `gamma`), and the Random Forest
//! adds per-node feature subsampling. With squared loss the Hessian of every
//! example is 1, so node statistics reduce to `(count, target sum)`.
//!
//! Grown trees live in a [`Forest`]: one flat, children-adjacent node arena
//! (a single tree is a forest of one). A split's right child sits right after
//! its left child, and a leaf points back at itself, so one branch-free step,
//! `next = left + !(row[feature] <= threshold)`, walks every node, and
//! `depth` steps from a root land on the row's leaf.
//! [`Forest::leaf_values`] walks the trees in interleaved blocks.

use std::ops::Range;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use crate::binned::BinnedMatrix;
use crate::codec as c;
use crate::error::MlResult;

/// Regression trees in one struct-of-arrays node arena.
///
/// A split `i` goes left (to `left[i]`) iff `row[feature[i]] <= threshold[i]`
/// and right (to `left[i] + 1`) otherwise, so a NaN value goes right. A leaf
/// `i` stores threshold NaN and `left[i] = i − 1` (wrapping), so the same
/// step keeps it at `i`; its prediction is `value[i]`. Tree `t` occupies the
/// nodes from `roots[t]` up to the next tree's root.
#[derive(Debug, Clone, Default)]
pub struct Forest {
    feature: Vec<u32>,
    threshold: Vec<f64>,
    left: Vec<u32>,
    value: Vec<f64>,
    roots: Vec<u32>,
    /// Longest root-to-leaf path of each tree, in splits.
    depths: Vec<u32>,
}

/// A node as the codec stores it: (feature, threshold, children), with a
/// leaf's value in place of the threshold.
type Stored = (u32, f64, Option<(u32, u32)>);

/// Trees [`Forest::leaf_values`] walks in lock-step.
const LANES: usize = 16;

/// Equal-length views of the node arrays, so one bounds check covers a step.
struct Walk<'a> {
    feature: &'a [u32],
    threshold: &'a [f64],
    left: &'a [u32],
}

impl<'a> Walk<'a> {
    fn new(forest: &'a Forest) -> Self {
        let n = forest.left.len();
        Walk {
            feature: &forest.feature[..n],
            threshold: &forest.threshold[..n],
            left: &forest.left,
        }
    }

    /// One walk step from node `i`: a split's child, or a leaf itself.
    #[inline(always)]
    fn step(&self, i: u32, row: &[f64]) -> u32 {
        let i = i as usize;
        let goes_left = row[self.feature[i] as usize] <= self.threshold[i];
        self.left[i].wrapping_add(u32::from(!goes_left))
    }
}

impl Forest {
    /// Releases the arrays' spare capacity, so a model loaded tree by tree
    /// holds no more than its nodes.
    pub fn shrink_to_fit(&mut self) {
        self.feature.shrink_to_fit();
        self.threshold.shrink_to_fit();
        self.left.shrink_to_fit();
        self.value.shrink_to_fit();
        self.roots.shrink_to_fit();
        self.depths.shrink_to_fit();
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.roots.len()
    }

    /// Total node count (splits + leaves) over every tree.
    pub fn n_nodes(&self) -> usize {
        self.left.len()
    }

    /// Number of leaves over every tree.
    pub fn n_leaves(&self) -> usize {
        (0..self.n_nodes()).filter(|&i| self.is_leaf(i)).count()
    }

    /// Depth of the deepest tree (a lone root leaf has depth 0).
    pub fn max_depth(&self) -> usize {
        self.depths.iter().max().map_or(0, |&d| d as usize)
    }

    /// The node range of tree `t`.
    fn nodes(&self, t: usize) -> Range<usize> {
        let end = self.roots.get(t + 1).map_or(self.n_nodes(), |&r| r as usize);
        self.roots[t] as usize..end
    }

    fn is_leaf(&self, i: usize) -> bool {
        self.left[i] == (i as u32).wrapping_sub(1)
    }

    fn push_leaf(&mut self, value: f64) {
        let i = self.left.len() as u32;
        self.feature.push(0);
        self.threshold.push(f64::NAN);
        self.left.push(i.wrapping_sub(1));
        self.value.push(value);
    }

    fn set_leaf(&mut self, i: u32, value: f64) {
        self.value[i as usize] = value;
    }

    /// Turns leaf `i` into a split and appends its two children as leaves;
    /// returns the left child's index.
    fn split(&mut self, i: u32, feature: u32, threshold: f64) -> u32 {
        let left = self.left.len() as u32;
        self.push_leaf(0.0);
        self.push_leaf(0.0);
        let i = i as usize;
        self.feature[i] = feature;
        self.threshold[i] = threshold;
        self.left[i] = left;
        self.value[i] = 0.0;
        left
    }

    /// Starts a new tree of one leaf; returns its root.
    fn push_root(&mut self) -> u32 {
        let root = self.left.len() as u32;
        self.roots.push(root);
        self.depths.push(0);
        self.push_leaf(0.0);
        root
    }

    /// Index of the leaf of tree `t` that `row` falls into.
    fn leaf_of(&self, t: usize, row: &[f64]) -> u32 {
        let walk = Walk::new(self);
        (0..self.depths[t]).fold(self.roots[t], |i, _| walk.step(i, row))
    }

    /// Tree `t`'s prediction for one raw (un-binned) feature row.
    pub fn predict_tree(&self, t: usize, row: &[f64]) -> f64 {
        self.value[self.leaf_of(t, row) as usize]
    }

    /// Each tree's leaf value for `row`, in tree order.
    ///
    /// Trees are walked in blocks of sixteen: every walk of a block advances
    /// one level per step for the block's largest depth (a leaf holds
    /// still), so the loads of different trees overlap instead of each walk
    /// waiting on its own. A short last block pads its lanes with its first
    /// tree and drops their results.
    pub fn leaf_values<'a>(&'a self, row: &'a [f64]) -> impl Iterator<Item = f64> + 'a {
        self.roots.chunks(LANES).zip(self.depths.chunks(LANES)).flat_map(move |(roots, depths)| {
            let walk = Walk::new(self);
            let mut idx = [roots[0]; LANES];
            for (i, &root) in idx.iter_mut().zip(roots) {
                *i = root;
            }
            for _ in 0..depths.iter().copied().max().unwrap_or(0) {
                for i in &mut idx {
                    *i = walk.step(*i, row);
                }
            }
            idx.into_iter().take(roots.len()).map(|i| self.value[i as usize])
        })
    }

    /// Appends every tree of `other`.
    pub fn append(&mut self, other: &Forest) {
        let offset = self.n_nodes() as u32;
        self.feature.extend_from_slice(&other.feature);
        self.threshold.extend_from_slice(&other.threshold);
        // Wrapping keeps a leaf's `i − 1` self-loop intact, even at node 0.
        self.left.extend(other.left.iter().map(|&l| l.wrapping_add(offset)));
        self.value.extend_from_slice(&other.value);
        self.roots.extend(other.roots.iter().map(|&r| r + offset));
        self.depths.extend_from_slice(&other.depths);
    }

    /// Checks that every split tests a feature of an `n_features`-wide row,
    /// so a corrupted model fails to load instead of panicking on predict.
    ///
    /// # Errors
    /// Returns [`crate::error::MlError::Codec`] naming the first bad node.
    pub fn check_features(&self, n_features: usize) -> MlResult<()> {
        // Leaves read feature 0 too, so a tree needs a non-empty row.
        match self.feature.iter().position(|&f| f as usize >= n_features) {
            Some(i) => Err(c::codec_err(format!(
                "tree node {i} tests feature {} of {n_features}",
                self.feature[i]
            ))),
            None => Ok(()),
        }
    }

    /// Serializes tree `t` as a node arena in pre-order (tag byte per node:
    /// 0 = leaf with its value, 1 = split with feature, threshold and the
    /// arena indices of its children), so children always point forward.
    ///
    /// # Errors
    /// Returns [`crate::error::MlError::Codec`] on I/O failure.
    pub fn write_tree(&self, t: usize, w: &mut dyn std::io::Write) -> MlResult<()> {
        let nodes = self.nodes(t);
        let root = nodes.start;
        // Subtree sizes; children always sit after their parent.
        let mut size = vec![1u32; nodes.len()];
        for i in nodes.clone().rev() {
            if !self.is_leaf(i) {
                let l = self.left[i] as usize - root;
                size[i - root] = 1 + size[l] + size[l + 1];
            }
        }
        c::write_usize(w, nodes.len())?;
        let mut stack = vec![root];
        let mut pre = 0u32;
        while let Some(i) = stack.pop() {
            if self.is_leaf(i) {
                c::write_u8(w, 0)?;
                c::write_f64(w, self.value[i])?;
            } else {
                let l = self.left[i] as usize;
                c::write_u8(w, 1)?;
                c::write_u32(w, self.feature[i])?;
                c::write_f64(w, self.threshold[i])?;
                c::write_u32(w, pre + 1)?;
                c::write_u32(w, pre + 1 + size[l - root])?;
                stack.push(l + 1);
                stack.push(l);
            }
            pre += 1;
        }
        Ok(())
    }

    /// Deserializes one tree written by [`Forest::write_tree`] and appends
    /// it. Any node order whose children point strictly forward loads, but
    /// the arena must be a tree: every node but the root has exactly one
    /// parent, so a corrupted file can neither loop a walk nor share a
    /// subtree between paths. Conversion to the children-adjacent layout is
    /// iterative. On error the forest is unchanged.
    ///
    /// # Errors
    /// Returns [`crate::error::MlError::Codec`] on I/O failure, truncation,
    /// or a malformed arena.
    pub fn read_tree(&mut self, r: &mut dyn std::io::Read) -> MlResult<()> {
        let n = c::read_len(r, "tree nodes")?;
        if n == 0 {
            return Err(c::codec_err("tree must have at least one node"));
        }
        if self.n_nodes() + n > u32::MAX as usize {
            return Err(c::codec_err(format!("{n} more tree nodes overflow the node index")));
        }
        let mut stored: Vec<Stored> = Vec::with_capacity(n);
        let mut parents = vec![0u8; n];
        for i in 0..n {
            match c::read_u8(r)? {
                0 => stored.push((0, c::read_f64(r)?, None)),
                1 => {
                    let feature = c::read_u32(r)?;
                    let threshold = c::read_f64(r)?;
                    let left = c::read_u32(r)?;
                    let right = c::read_u32(r)?;
                    let (lo, hi) = (i as u32, n as u32);
                    if left <= lo || left >= hi || right <= lo || right >= hi {
                        return Err(c::codec_err(format!(
                            "tree node {i}: children ({left}, {right}) must lie in ({lo}, {hi})"
                        )));
                    }
                    for child in [left, right] {
                        let p = &mut parents[child as usize];
                        *p = p.saturating_add(1);
                    }
                    stored.push((feature, threshold, Some((left, right))));
                }
                other => return Err(c::codec_err(format!("invalid tree node tag {other}"))),
            }
        }
        if let Some(i) = (1..n).find(|&i| parents[i] != 1) {
            return Err(c::codec_err(format!(
                "tree node {i} has {} parents; every node but the root needs exactly one",
                parents[i]
            )));
        }

        // Forward children with one parent each reach every node from the
        // root exactly once.
        let t = self.n_trees();
        let root = self.push_root();
        let mut stack = vec![(0u32, root, 0u32)]; // (stored index, node, depth)
        while let Some((s, node, depth)) = stack.pop() {
            match stored[s as usize] {
                (_, value, None) => {
                    self.set_leaf(node, value);
                    self.depths[t] = self.depths[t].max(depth);
                }
                (feature, threshold, Some((left, right))) => {
                    let l = self.split(node, feature, threshold);
                    stack.push((right, l + 1, depth + 1));
                    stack.push((left, l, depth + 1));
                }
            }
        }
        Ok(())
    }

    /// Grows one tree over `rows` (indices into `binned`/`targets`) and
    /// appends it.
    ///
    /// `seed` controls feature subsampling only; growth is otherwise
    /// deterministic.
    pub fn grow(
        &mut self,
        binned: &BinnedMatrix,
        targets: &[f64],
        rows: &mut [u32],
        params: &GrowParams,
        seed: u64,
    ) {
        use rand::SeedableRng;
        let t = self.n_trees();
        let root = self.push_root();
        let mut grower = Grower {
            data: Data { binned, targets, params },
            forest: self,
            depth: 0,
            features: (0..binned.cols()).collect(),
            shuffled: Vec::new(),
            hist: Histogram::default(),
            rng: StdRng::seed_from_u64(seed),
        };
        if !rows.is_empty() {
            grower.grow(rows, 0, root);
        }
        let depth = grower.depth;
        self.depths[t] = depth;
    }
}

/// Growth hyper-parameters shared by the tree learners.
#[derive(Debug, Clone)]
pub struct GrowParams {
    /// Maximum tree depth (root at depth 0).
    pub max_depth: usize,
    /// Minimum examples required to consider splitting a node.
    pub min_samples_split: usize,
    /// Minimum examples each child must keep.
    pub min_samples_leaf: usize,
    /// L2 regularization on leaf values (XGBoost `lambda`; 0 for CART).
    pub lambda: f64,
    /// Minimum gain required to accept a split (XGBoost `gamma`).
    pub gamma: f64,
    /// If set, the number of features sampled per node (Random Forest `mtry`).
    pub feature_subsample: Option<usize>,
}

impl Default for GrowParams {
    fn default() -> Self {
        GrowParams {
            max_depth: 6,
            min_samples_split: 2,
            min_samples_leaf: 1,
            lambda: 0.0,
            gamma: 1e-12,
            feature_subsample: None,
        }
    }
}

/// What one tree is grown from.
#[derive(Clone, Copy)]
struct Data<'a> {
    binned: &'a BinnedMatrix,
    targets: &'a [f64],
    params: &'a GrowParams,
}

/// Per-bin `(count, target sum)` histograms of the features one node
/// inspects; one buffer serves every node of a tree.
#[derive(Default)]
struct Histogram {
    offsets: Vec<usize>,
    cnt: Vec<u32>,
    sum: Vec<f64>,
}

struct Grower<'a> {
    data: Data<'a>,
    forest: &'a mut Forest,
    /// Depth of the tree grown so far.
    depth: u32,
    features: Vec<usize>,
    /// Shuffled copy of `features` for per-node subsampling.
    shuffled: Vec<usize>,
    hist: Histogram,
    rng: StdRng,
}

/// Score of a node under the regularized objective: `s² / (n + λ)`.
#[inline]
fn node_score(sum: f64, count: f64, lambda: f64) -> f64 {
    sum * sum / (count + lambda)
}

impl Grower<'_> {
    fn leaf(&mut self, slot: u32, count: f64, sum: f64) {
        let lambda = self.data.params.lambda;
        let value = if count + lambda > 0.0 { sum / (count + lambda) } else { 0.0 };
        self.forest.set_leaf(slot, value);
    }

    /// Grows the subtree over `rows` into node `slot`.
    fn grow(&mut self, rows: &mut [u32], depth: usize, slot: u32) {
        let Data { binned, targets, params } = self.data;
        let n = rows.len();
        let sum: f64 = rows.iter().map(|&r| targets[r as usize]).sum();
        if depth >= params.max_depth || n < params.min_samples_split || n < 2 {
            return self.leaf(slot, n as f64, sum);
        }

        // Feature subset for this node (Random Forest style) or all features.
        // Like scikit-learn, the search does not stop at `mtry` features if
        // none of them admits a valid partition: the remaining features are
        // inspected one by one until a split is found or all are exhausted.
        let best = match params.feature_subsample {
            Some(m) if m < self.features.len() => {
                self.shuffled.clear();
                self.shuffled.extend_from_slice(&self.features);
                self.shuffled.shuffle(&mut self.rng);
                let fs = &self.shuffled;
                let mut best = self.hist.best_split(self.data, rows, &fs[..m], sum);
                let mut next = m;
                while best.is_none() && next < fs.len() {
                    best = self.hist.best_split(self.data, rows, &fs[next..next + 1], sum);
                    next += 1;
                }
                best
            }
            _ => self.hist.best_split(self.data, rows, &self.features, sum),
        };

        let Some((_, feature, bin)) = best else {
            return self.leaf(slot, n as f64, sum);
        };

        // Partition rows in place: codes <= bin go left.
        let mut lo = 0usize;
        let mut hi = n;
        while lo < hi {
            if binned.row_codes(rows[lo] as usize)[feature] as usize <= bin {
                lo += 1;
            } else {
                hi -= 1;
                rows.swap(lo, hi);
            }
        }
        debug_assert!(lo > 0 && lo < n, "split must separate rows");

        let left = self.forest.split(slot, feature as u32, binned.threshold(feature, bin));
        self.depth = self.depth.max(depth as u32 + 1);
        let (left_rows, right_rows) = rows.split_at_mut(lo);
        self.grow(left_rows, depth + 1, left);
        self.grow(right_rows, depth + 1, left + 1);
    }
}

impl Histogram {
    /// Best `(gain, feature, bin)` split over `feats`, or `None` when no
    /// split satisfies the leaf-size and `gamma` constraints.
    fn best_split(
        &mut self,
        data: Data<'_>,
        rows: &[u32],
        feats: &[usize],
        sum: f64,
    ) -> Option<(f64, usize, usize)> {
        let Data { binned, targets, params } = data;
        let n = rows.len();
        // Histogram accumulation: (count, target sum) per bin per feature.
        self.offsets.clear();
        let mut total_bins = 0usize;
        for &f in feats {
            self.offsets.push(total_bins);
            total_bins += binned.n_bins(f);
        }
        self.cnt.clear();
        self.cnt.resize(total_bins, 0);
        self.sum.clear();
        self.sum.resize(total_bins, 0.0);
        for &r in rows.iter() {
            let codes = binned.row_codes(r as usize);
            let t = targets[r as usize];
            for (fi, &f) in feats.iter().enumerate() {
                let slot = self.offsets[fi] + codes[f] as usize;
                self.cnt[slot] += 1;
                self.sum[slot] += t;
            }
        }

        // Best split search: prefix scan per feature over bin boundaries.
        let lambda = params.lambda;
        let parent_score = node_score(sum, n as f64, lambda);
        let min_leaf = params.min_samples_leaf as u32;
        let mut best: Option<(f64, usize, usize)> = None; // (gain, feature, bin)
        for (fi, &f) in feats.iter().enumerate() {
            let nbins = binned.n_bins(f);
            if nbins < 2 {
                continue;
            }
            let base = self.offsets[fi];
            let mut left_cnt = 0u32;
            let mut left_sum = 0.0f64;
            for b in 0..nbins - 1 {
                left_cnt += self.cnt[base + b];
                left_sum += self.sum[base + b];
                let right_cnt = n as u32 - left_cnt;
                if left_cnt < min_leaf || right_cnt < min_leaf {
                    continue;
                }
                let right_sum = sum - left_sum;
                let gain = 0.5
                    * (node_score(left_sum, left_cnt as f64, lambda)
                        + node_score(right_sum, right_cnt as f64, lambda)
                        - parent_score);
                if gain > params.gamma && best.is_none_or(|(bg, _, _)| gain > bg) {
                    best = Some((gain, f, b));
                }
            }
        }
        best
    }
}

/// Test-only reference: the recursive walk trees had before the flat
/// layout, over each tree's node arena exactly as the codec stores it.
#[cfg(test)]
pub(crate) mod reference {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::Forest;
    use crate::linalg::Matrix;

    /// One stored node: a leaf's value, or a split.
    enum Node {
        Leaf(f64),
        Split { feature: usize, threshold: f64, left: usize, right: usize },
    }

    /// One tree, decoded from the bytes [`Forest::write_tree`] writes.
    pub(crate) struct RefTree(Vec<Node>);

    impl RefTree {
        /// Every tree of `forest`, in order.
        pub(crate) fn all(forest: &Forest) -> Vec<RefTree> {
            (0..forest.n_trees()).map(|t| RefTree::decode(forest, t)).collect()
        }

        fn decode(forest: &Forest, t: usize) -> RefTree {
            use crate::codec as c;
            let mut bytes = Vec::new();
            forest.write_tree(t, &mut bytes).unwrap();
            let r = &mut bytes.as_slice();
            let n = c::read_usize(r).unwrap();
            let nodes = (0..n)
                .map(|_| match c::read_u8(r).unwrap() {
                    0 => Node::Leaf(c::read_f64(r).unwrap()),
                    _ => Node::Split {
                        feature: c::read_u32(r).unwrap() as usize,
                        threshold: c::read_f64(r).unwrap(),
                        left: c::read_u32(r).unwrap() as usize,
                        right: c::read_u32(r).unwrap() as usize,
                    },
                })
                .collect();
            assert!(r.is_empty());
            RefTree(nodes)
        }

        /// The tree's prediction: left iff `value <= threshold`.
        pub(crate) fn predict(&self, row: &[f64]) -> f64 {
            fn walk(nodes: &[Node], i: usize, row: &[f64]) -> f64 {
                match nodes[i] {
                    Node::Leaf(value) => value,
                    Node::Split { feature, threshold, left, right } => {
                        walk(nodes, if row[feature] <= threshold { left } else { right }, row)
                    }
                }
            }
            walk(&self.0, 0, row)
        }
    }

    /// `n` training rows of three features: a continuous one, a small
    /// integer one full of ties, and one symmetric about zero, so split
    /// thresholds include exact midpoints and 0.0; the target mixes all
    /// three non-linearly.
    pub(crate) fn training_data(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                let s = if rng.gen::<bool>() { 1.0 } else { -1.0 };
                vec![
                    rng.gen::<f64>() * 3.0 - 1.0,
                    f64::from(rng.gen_range(-2i32..3)),
                    s * f64::from(rng.gen_range(0i32..4)) * 0.5,
                ]
            })
            .collect();
        let y = rows.iter().map(|r| (r[0] * 2.0).sin() * 10.0 + r[1] * r[2] + r[1].abs()).collect();
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    /// `n` rows of `n_features` values that stress the comparison: NaN,
    /// ±inf, ±0.0, every split threshold exactly, and draws from
    /// `[-1, 2)`.
    pub(crate) fn awkward_rows(
        trees: &[RefTree],
        n_features: usize,
        n: usize,
        seed: u64,
    ) -> Vec<Vec<f64>> {
        let mut thresholds = vec![Vec::new(); n_features];
        for node in trees.iter().flat_map(|t| &t.0) {
            if let Node::Split { feature, threshold, .. } = *node {
                thresholds[feature].push(threshold);
            }
        }
        let special = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0];
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                (0..n_features)
                    .map(|f| match rng.gen_range(0..4) {
                        0 => special[rng.gen_range(0..special.len())],
                        1 | 2 if !thresholds[f].is_empty() => {
                            thresholds[f][rng.gen_range(0..thresholds[f].len())]
                        }
                        _ => rng.gen::<f64>() * 3.0 - 1.0,
                    })
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::Matrix;

    fn grow_tree(
        binned: &BinnedMatrix,
        targets: &[f64],
        rows: &mut [u32],
        params: &GrowParams,
        seed: u64,
    ) -> Forest {
        let mut forest = Forest::default();
        forest.grow(binned, targets, rows, params, seed);
        forest
    }

    fn step_data() -> (Matrix, Vec<f64>) {
        // y = 10 for x < 5, else 20 — one split suffices.
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| if i < 5 { 10.0 } else { 20.0 }).collect();
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn learns_a_step_function_with_one_split() {
        let (x, y) = step_data();
        let binned = BinnedMatrix::from_matrix(&x, 32).unwrap();
        let mut rows: Vec<u32> = (0..20).collect();
        let tree = grow_tree(&binned, &y, &mut rows, &GrowParams::default(), 0);
        assert!((tree.predict_tree(0, &[2.0]) - 10.0).abs() < 1e-9);
        assert!((tree.predict_tree(0, &[10.0]) - 20.0).abs() < 1e-9);
        assert_eq!(tree.n_leaves(), 2, "pure children should not split further");
    }

    #[test]
    fn constant_target_yields_single_leaf() {
        let (x, _) = step_data();
        let y = vec![5.0; 20];
        let binned = BinnedMatrix::from_matrix(&x, 32).unwrap();
        let mut rows: Vec<u32> = (0..20).collect();
        let tree = grow_tree(&binned, &y, &mut rows, &GrowParams::default(), 0);
        assert_eq!(tree.n_nodes(), 1);
        assert!((tree.predict_tree(0, &[0.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn respects_max_depth() {
        let rows_data: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let x = Matrix::from_rows(&rows_data).unwrap();
        let binned = BinnedMatrix::from_matrix(&x, 64).unwrap();
        let mut rows: Vec<u32> = (0..64).collect();
        let params = GrowParams { max_depth: 2, ..GrowParams::default() };
        let tree = grow_tree(&binned, &y, &mut rows, &params, 0);
        assert!(tree.max_depth() <= 2);
        assert!(tree.n_leaves() <= 4);
    }

    #[test]
    fn respects_min_samples_leaf() {
        let (x, y) = step_data();
        let binned = BinnedMatrix::from_matrix(&x, 32).unwrap();
        let mut rows: Vec<u32> = (0..20).collect();
        // min leaf of 8 forbids the natural 5/15 split.
        let params = GrowParams { min_samples_leaf: 8, ..GrowParams::default() };
        let tree = grow_tree(&binned, &y, &mut rows, &params, 0);
        fn check(tree: &Forest, x: &Matrix, rows: &[u32]) {
            // Every leaf region must contain >= 8 training rows.
            let mut counts = std::collections::HashMap::new();
            for &r in rows {
                *counts.entry(tree.leaf_of(0, x.row(r as usize))).or_insert(0usize) += 1;
            }
            for (_, c) in counts {
                assert!(c >= 8);
            }
        }
        let all: Vec<u32> = (0..20).collect();
        check(&tree, &x, &all);
    }

    #[test]
    fn lambda_shrinks_leaf_values() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0]]).unwrap();
        let y = vec![10.0, 10.0];
        let binned = BinnedMatrix::from_matrix(&x, 8).unwrap();
        let mut rows: Vec<u32> = vec![0, 1];
        let params = GrowParams { lambda: 2.0, max_depth: 0, ..GrowParams::default() };
        let tree = grow_tree(&binned, &y, &mut rows, &params, 0);
        // leaf = sum / (n + lambda) = 20 / 4 = 5.
        assert!((tree.predict_tree(0, &[0.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn gamma_blocks_weak_splits() {
        let (x, y) = step_data();
        let binned = BinnedMatrix::from_matrix(&x, 32).unwrap();
        let mut rows: Vec<u32> = (0..20).collect();
        let params = GrowParams { gamma: 1e9, ..GrowParams::default() };
        let tree = grow_tree(&binned, &y, &mut rows, &params, 0);
        assert_eq!(tree.n_nodes(), 1, "huge gamma must forbid all splits");
    }

    #[test]
    fn empty_rows_give_zero_leaf() {
        let x = Matrix::from_rows(&[vec![0.0]]).unwrap();
        let binned = BinnedMatrix::from_matrix(&x, 8).unwrap();
        let mut rows: Vec<u32> = vec![];
        let tree = grow_tree(&binned, &[0.0], &mut rows, &GrowParams::default(), 0);
        assert_eq!(tree.predict_tree(0, &[1.0]), 0.0);
    }

    #[test]
    fn feature_subsampling_still_learns() {
        // Two features; only feature 1 is informative. With mtry = 1 some nodes
        // see only feature 0, but depth lets the tree recover.
        let rows_data: Vec<Vec<f64>> = (0..40).map(|i| vec![(i % 3) as f64, i as f64]).collect();
        let y: Vec<f64> = (0..40).map(|i| if i < 20 { 0.0 } else { 100.0 }).collect();
        let x = Matrix::from_rows(&rows_data).unwrap();
        let binned = BinnedMatrix::from_matrix(&x, 32).unwrap();
        let mut rows: Vec<u32> = (0..40).collect();
        let params =
            GrowParams { feature_subsample: Some(1), max_depth: 8, ..GrowParams::default() };
        let tree = grow_tree(&binned, &y, &mut rows, &params, 7);
        let pred_low = tree.predict_tree(0, &[0.0, 5.0]);
        let pred_high = tree.predict_tree(0, &[0.0, 35.0]);
        assert!(pred_low < 50.0 && pred_high > 50.0);
    }

    /// Appends a stored leaf to an arena being encoded.
    fn put_leaf(w: &mut Vec<u8>, value: f64) {
        c::write_u8(w, 0).unwrap();
        c::write_f64(w, value).unwrap();
    }

    /// Appends a stored split to an arena being encoded.
    fn put_split(w: &mut Vec<u8>, feature: u32, threshold: f64, left: u32, right: u32) {
        c::write_u8(w, 1).unwrap();
        c::write_u32(w, feature).unwrap();
        c::write_f64(w, threshold).unwrap();
        c::write_u32(w, left).unwrap();
        c::write_u32(w, right).unwrap();
    }

    fn arena(n: usize, put: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut w = Vec::new();
        c::write_usize(&mut w, n).unwrap();
        put(&mut w);
        w
    }

    fn load(bytes: &[u8]) -> MlResult<Forest> {
        let mut forest = Forest::default();
        forest.read_tree(&mut &bytes[..])?;
        Ok(forest)
    }

    fn load_err(bytes: &[u8]) -> String {
        load(bytes).map(|_| ()).unwrap_err().to_string()
    }

    #[test]
    fn codec_round_trip_keeps_the_layout_and_the_bytes() {
        let rows_data: Vec<Vec<f64>> =
            (0..200).map(|i| vec![(i % 7) as f64, (i * 13 % 50) as f64]).collect();
        let y: Vec<f64> = rows_data.iter().map(|r| (r[0] * r[1]).sin()).collect();
        let x = Matrix::from_rows(&rows_data).unwrap();
        let binned = BinnedMatrix::from_matrix(&x, 32).unwrap();
        let mut forest = Forest::default();
        for seed in 0..3 {
            let mut rows: Vec<u32> = (0..200).collect();
            let params = GrowParams { max_depth: 4 + seed as usize, ..GrowParams::default() };
            forest.grow(&binned, &y, &mut rows, &params, seed);
        }
        let mut bytes = Vec::new();
        for t in 0..forest.n_trees() {
            forest.write_tree(t, &mut bytes).unwrap();
        }
        let mut loaded = Forest::default();
        let r = &mut bytes.as_slice();
        for _ in 0..forest.n_trees() {
            loaded.read_tree(r).unwrap();
        }
        assert!(r.is_empty());
        assert_eq!(format!("{loaded:?}"), format!("{forest:?}"));

        // Appending keeps each tree's walk and its stored bytes.
        let mut joined = Forest::default();
        joined.append(&forest);
        joined.append(&forest);
        for t in 0..forest.n_trees() {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            forest.write_tree(t, &mut a).unwrap();
            joined.write_tree(t + forest.n_trees(), &mut b).unwrap();
            assert_eq!(a, b);
            for row in &rows_data {
                let expect = forest.predict_tree(t, row).to_bits();
                assert_eq!(joined.predict_tree(t + forest.n_trees(), row).to_bits(), expect);
            }
        }
    }

    #[test]
    fn rejects_a_child_with_two_parents() {
        // Nodes 1 and 2 share both children: a DAG, not a tree.
        let bytes = arena(5, |w| {
            put_split(w, 0, 0.5, 1, 2);
            put_split(w, 0, 0.2, 3, 4);
            put_split(w, 0, 0.8, 3, 4);
            put_leaf(w, 1.0);
            put_leaf(w, 2.0);
        });
        assert!(load_err(&bytes).contains("node 3 has 2 parents"), "{}", load_err(&bytes));
        // A split naming one child twice shares it too.
        let bytes = arena(3, |w| {
            put_split(w, 0, 0.5, 1, 1);
            put_leaf(w, 1.0);
            put_leaf(w, 2.0);
        });
        assert!(load_err(&bytes).contains("node 1 has 2 parents"), "{}", load_err(&bytes));
    }

    #[test]
    fn rejects_an_unreachable_node() {
        let bytes = arena(4, |w| {
            put_split(w, 0, 0.5, 1, 2);
            put_leaf(w, 1.0);
            put_leaf(w, 2.0);
            put_leaf(w, 3.0);
        });
        assert!(load_err(&bytes).contains("node 3 has 0 parents"), "{}", load_err(&bytes));
    }

    #[test]
    fn rejects_backward_children_and_bad_tags() {
        let bytes = arena(3, |w| {
            put_split(w, 0, 0.5, 2, 1);
            put_split(w, 0, 0.5, 0, 2);
            put_leaf(w, 1.0);
        });
        assert!(load_err(&bytes).contains("must lie in (1, 3)"), "{}", load_err(&bytes));
        let bytes = arena(1, |w| c::write_u8(w, 7).unwrap());
        assert!(load_err(&bytes).contains("invalid tree node tag 7"));
        assert!(load_err(&arena(0, |_| ())).contains("at least one node"));
    }

    #[test]
    fn feature_check_rejects_out_of_range_splits() {
        let bytes = arena(3, |w| {
            put_split(w, 4, 0.5, 1, 2);
            put_leaf(w, 1.0);
            put_leaf(w, 2.0);
        });
        let forest = load(&bytes).unwrap();
        assert!(forest.check_features(5).is_ok());
        assert!(forest.check_features(4).is_err());
        // Leaves read feature 0, so even a lone leaf needs one feature.
        let leaf = load(&arena(1, |w| put_leaf(w, 1.0))).unwrap();
        assert!(leaf.check_features(0).is_err());
    }

    /// A 100,001-node chain whose splits all keep a leaf on the left loads,
    /// walks and saves on a 256 KiB stack: nothing recurses per level.
    #[test]
    fn a_deep_one_sided_chain_loads_without_recursion() {
        const SPLITS: u32 = 50_000;
        let bytes = arena(2 * SPLITS as usize + 1, |w| {
            for j in 0..SPLITS {
                put_split(w, 0, f64::from(j), 2 * j + 1, 2 * j + 2);
                put_leaf(w, f64::from(j));
            }
            put_leaf(w, -1.0);
        });
        let handle = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || {
                let forest = load(&bytes).unwrap();
                assert_eq!(forest.n_nodes(), 2 * SPLITS as usize + 1);
                assert_eq!(forest.max_depth(), SPLITS as usize);
                assert_eq!(forest.predict_tree(0, &[2.5]), 3.0);
                assert_eq!(forest.predict_tree(0, &[1e9]), -1.0);
                assert_eq!(forest.predict_tree(0, &[f64::NAN]), -1.0);
                let mut saved = Vec::new();
                forest.write_tree(0, &mut saved).unwrap();
                assert!(saved == bytes, "pre-order save must reproduce the arena");
            })
            .unwrap();
        handle.join().unwrap();
    }
}
