//! Multilayer perceptron regressor — the paper's "DNN" learner (§III-B3).
//!
//! Matches the paper's design choices: ReLU or linear (identity) hidden
//! activations, mean-squared-error loss with an L2 penalty (eq. 9), and a
//! choice of SGD (eq. 10), Adam, or L-BFGS optimizers (the paper found L-BFGS
//! better on small datasets and Adam better on large ones, consistent with
//! scikit-learn's `MLPRegressor`).
//!
//! Inputs and targets are standardized internally so the same learning rates
//! work across datasets whose memory labels span different magnitudes.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::error::{dim_mismatch, MlError, MlResult};
use crate::linalg::Matrix;
use crate::scaler::StandardScaler;
use crate::traits::Regressor;

/// Hidden-layer activation function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit (the paper's choice for complex datasets).
    Relu,
    /// Identity / linear activation (the paper's choice for simple datasets).
    Identity,
}

impl Activation {
    #[inline]
    fn apply(self, v: f64) -> f64 {
        match self {
            Activation::Relu => v.max(0.0),
            Activation::Identity => v,
        }
    }

    /// Derivative expressed in terms of the *post*-activation value.
    #[inline]
    fn derivative_from_output(self, a: f64) -> f64 {
        match self {
            Activation::Relu => {
                if a > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Identity => 1.0,
        }
    }
}

/// Optimizer selection (§III-B3 "Optimizer").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptimizerKind {
    /// Mini-batch stochastic gradient descent with momentum (paper eq. 10).
    Sgd {
        /// Learning rate ε.
        lr: f64,
        /// Classical momentum coefficient.
        momentum: f64,
    },
    /// Adam (Kingma & Ba), the paper's pick for large datasets.
    Adam {
        /// Step size.
        lr: f64,
    },
    /// Limited-memory BFGS with Armijo backtracking, the paper's pick for
    /// small datasets. Runs full-batch.
    Lbfgs {
        /// Number of curvature pairs kept.
        history: usize,
    },
}

/// Hyper-parameters for [`Mlp`].
#[derive(Debug, Clone)]
pub struct MlpConfig {
    /// Hidden layer widths; the paper's tuned architecture is
    /// `[48, 39, 27, 16, 7, 5]` (six hidden layers).
    pub hidden_layers: Vec<usize>,
    /// Hidden activation.
    pub activation: Activation,
    /// Optimizer.
    pub optimizer: OptimizerKind,
    /// L2 penalty α of eq. 9.
    pub alpha: f64,
    /// Epochs (SGD/Adam) or iterations (L-BFGS).
    pub max_iter: usize,
    /// Mini-batch size for SGD/Adam.
    pub batch_size: usize,
    /// Stop when the epoch loss improves by less than this.
    pub tol: f64,
    /// RNG seed (weight init + shuffling).
    pub seed: u64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        MlpConfig {
            hidden_layers: vec![48, 39, 27, 16, 7, 5],
            activation: Activation::Relu,
            optimizer: OptimizerKind::Adam { lr: 1e-3 },
            alpha: 1e-4,
            max_iter: 200,
            batch_size: 64,
            tol: 1e-7,
            seed: 42,
        }
    }
}

/// One dense layer: `out = act(in · w + b)`, weights stored input-major
/// (`w[in][out]`) so the forward pass streams rows.
#[derive(Debug, Clone)]
struct Layer {
    w: Matrix, // (fan_in × fan_out)
    b: Vec<f64>,
}

/// Feed-forward MLP regressor with a single linear output unit.
#[derive(Debug, Clone)]
pub struct Mlp {
    config: MlpConfig,
    layers: Vec<Layer>,
    x_scaler: StandardScaler,
    y_mean: f64,
    y_std: f64,
    n_features: usize,
    final_loss: f64,
    epochs_run: usize,
}

impl Mlp {
    /// Creates an unfitted network.
    pub fn new(config: MlpConfig) -> Self {
        Mlp {
            config,
            layers: Vec::new(),
            x_scaler: StandardScaler::new(),
            y_mean: 0.0,
            y_std: 1.0,
            n_features: 0,
            final_loss: f64::INFINITY,
            epochs_run: 0,
        }
    }

    /// Unfitted network with the paper's tuned architecture.
    pub fn default_config() -> Self {
        Mlp::new(MlpConfig::default())
    }

    /// Final training loss (eq. 9) after fit.
    pub fn final_loss(&self) -> f64 {
        self.final_loss
    }

    /// Number of epochs/iterations actually run.
    pub fn epochs_run(&self) -> usize {
        self.epochs_run
    }

    /// Deserializes a network written by [`Regressor::save_params`].
    ///
    /// # Errors
    /// Returns [`MlError::Codec`] on I/O failure, truncation, or invalid
    /// activation/optimizer tags.
    pub fn read_params(r: &mut dyn std::io::Read) -> MlResult<Mlp> {
        use crate::codec as c;
        let hidden_layers = c::read_usize_seq(r)?;
        let activation = match c::read_u8(r)? {
            0 => Activation::Relu,
            1 => Activation::Identity,
            other => return Err(c::codec_err(format!("invalid activation tag {other}"))),
        };
        let optimizer = match c::read_u8(r)? {
            0 => OptimizerKind::Sgd { lr: c::read_f64(r)?, momentum: c::read_f64(r)? },
            1 => OptimizerKind::Adam { lr: c::read_f64(r)? },
            2 => OptimizerKind::Lbfgs { history: c::read_usize(r)? },
            other => return Err(c::codec_err(format!("invalid optimizer tag {other}"))),
        };
        let config = MlpConfig {
            hidden_layers,
            activation,
            optimizer,
            alpha: c::read_f64(r)?,
            max_iter: c::read_usize(r)?,
            batch_size: c::read_usize(r)?,
            tol: c::read_f64(r)?,
            seed: c::read_u64(r)?,
        };
        let n_features = c::read_usize(r)?;
        let y_mean = c::read_f64(r)?;
        let y_std = c::read_f64(r)?;
        let final_loss = c::read_f64(r)?;
        let epochs_run = c::read_usize(r)?;
        let x_scaler = StandardScaler::read_params(r)?;
        let n_layers = c::read_len(r, "mlp layers")?;
        let mut layers = Vec::with_capacity(n_layers);
        for _ in 0..n_layers {
            let w = c::read_matrix(r)?;
            let b = c::read_f64_seq(r)?;
            if b.len() != w.cols() {
                return Err(c::codec_err(format!(
                    "mlp layer bias length {} does not match weight cols {}",
                    b.len(),
                    w.cols()
                )));
            }
            layers.push(Layer { w, b });
        }
        Ok(Mlp { config, layers, x_scaler, y_mean, y_std, n_features, final_loss, epochs_run })
    }

    /// Layer widths including input and output, e.g. `[k, 48, ..., 1]`.
    pub fn layer_widths(&self) -> Vec<usize> {
        let mut widths = vec![self.n_features];
        for l in &self.layers {
            widths.push(l.w.cols());
        }
        widths
    }

    fn init_layers(&mut self, n_features: usize, rng: &mut StdRng) {
        let mut widths = vec![n_features];
        widths.extend_from_slice(&self.config.hidden_layers);
        widths.push(1);
        self.layers = widths
            .windows(2)
            .map(|w| {
                let (fan_in, fan_out) = (w[0], w[1]);
                // Glorot-uniform initialization.
                let limit = (6.0 / (fan_in + fan_out) as f64).sqrt();
                let mut m = Matrix::zeros(fan_in, fan_out);
                for v in m.as_mut_slice() {
                    *v = rng.gen_range(-limit..limit);
                }
                Layer { w: m, b: vec![0.0; fan_out] }
            })
            .collect();
    }

    /// Forward pass over a batch; returns per-layer post-activations
    /// (`acts[0]` is the input batch, `acts.last()` the raw output).
    fn forward(&self, x: &Matrix) -> Vec<Matrix> {
        let n_layers = self.layers.len();
        let mut acts = Vec::with_capacity(n_layers + 1);
        acts.push(x.clone());
        for (li, layer) in self.layers.iter().enumerate() {
            let mut z = acts[li].matmul(&layer.w).expect("layer widths consistent");
            let cols = z.cols();
            let is_output = li == n_layers - 1;
            for r in 0..z.rows() {
                let row = z.row_mut(r);
                for (c, v) in row.iter_mut().enumerate().take(cols) {
                    *v += layer.b[c];
                    if !is_output {
                        *v = self.config.activation.apply(*v);
                    }
                }
            }
            acts.push(z);
        }
        acts
    }

    /// Loss (eq. 9) and parameter gradients for a batch, in layer order.
    fn loss_and_grads(&self, x: &Matrix, y: &[f64]) -> (f64, Vec<(Matrix, Vec<f64>)>) {
        let n = x.rows() as f64;
        let acts = self.forward(x);
        let output = acts.last().expect("forward produced activations");
        // delta at the output: (ŷ − y) / n.
        let mut delta = Matrix::zeros(x.rows(), 1);
        let mut data_loss = 0.0;
        #[allow(clippy::needless_range_loop)] // r indexes the output matrix and y together
        for r in 0..x.rows() {
            let err = output.get(r, 0) - y[r];
            data_loss += err * err;
            delta.set(r, 0, err / n);
        }
        let mut reg_loss = 0.0;
        for l in &self.layers {
            let fn2 = l.w.frobenius_norm();
            reg_loss += fn2 * fn2;
        }
        let alpha = self.config.alpha;
        let loss = data_loss / (2.0 * n) + alpha * reg_loss / (2.0 * n);

        let mut grads: Vec<(Matrix, Vec<f64>)> = Vec::with_capacity(self.layers.len());
        for li in (0..self.layers.len()).rev() {
            let a_prev = &acts[li];
            // grad_w = a_prevᵀ · delta + (α/n) w.
            let mut gw = a_prev.transpose().matmul(&delta).expect("shapes agree");
            for (g, w) in gw.as_mut_slice().iter_mut().zip(self.layers[li].w.as_slice()) {
                *g += alpha / n * w;
            }
            let mut gb = vec![0.0; delta.cols()];
            for r in 0..delta.rows() {
                for (g, v) in gb.iter_mut().zip(delta.row(r)) {
                    *g += v;
                }
            }
            if li > 0 {
                // delta_prev = (delta · wᵀ) ⊙ act'(a_prev).
                let mut d_prev =
                    delta.matmul(&self.layers[li].w.transpose()).expect("shapes agree");
                for r in 0..d_prev.rows() {
                    let a_row = acts[li].row(r);
                    for (dv, &av) in d_prev.row_mut(r).iter_mut().zip(a_row) {
                        *dv *= self.config.activation.derivative_from_output(av);
                    }
                }
                delta = d_prev;
            }
            grads.push((gw, gb));
        }
        grads.reverse();
        (loss, grads)
    }

    fn fit_minibatch(&mut self, x: &Matrix, y: &[f64], rng: &mut StdRng) -> MlResult<()> {
        let n = x.rows();
        let bs = self.config.batch_size.clamp(1, n);
        let mut order: Vec<usize> = (0..n).collect();
        // Optimizer state per layer: (velocity/moment1, moment2) for w and b.
        let mut state: Vec<OptState> =
            self.layers.iter().map(|l| OptState::new(l.w.rows(), l.w.cols())).collect();
        let mut t = 0usize; // Adam time step
        let mut prev_loss = f64::INFINITY;
        for epoch in 0..self.config.max_iter {
            self.epochs_run = epoch + 1;
            order.shuffle(rng);
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            for chunk in order.chunks(bs) {
                let xb = Matrix::from_rows(
                    &chunk.iter().map(|&i| x.row(i).to_vec()).collect::<Vec<_>>(),
                )?;
                let yb: Vec<f64> = chunk.iter().map(|&i| y[i]).collect();
                let (loss, grads) = self.loss_and_grads(&xb, &yb);
                if !loss.is_finite() {
                    return Err(MlError::NumericalFailure(format!(
                        "non-finite loss at epoch {epoch}"
                    )));
                }
                epoch_loss += loss;
                batches += 1;
                t += 1;
                for ((layer, st), (gw, gb)) in self.layers.iter_mut().zip(&mut state).zip(&grads) {
                    apply_update(&self.config.optimizer, layer, st, gw, gb, t);
                }
            }
            let mean_loss = epoch_loss / batches.max(1) as f64;
            self.final_loss = mean_loss;
            if (prev_loss - mean_loss).abs() < self.config.tol {
                break;
            }
            prev_loss = mean_loss;
        }
        Ok(())
    }

    fn fit_lbfgs(&mut self, x: &Matrix, y: &[f64], history: usize) -> MlResult<()> {
        let mut theta = self.flatten();
        let dim = theta.len();
        let mut s_hist: Vec<Vec<f64>> = Vec::new();
        let mut y_hist: Vec<Vec<f64>> = Vec::new();
        let mut rho_hist: Vec<f64> = Vec::new();

        let eval = |model: &mut Mlp, params: &[f64]| -> (f64, Vec<f64>) {
            model.unflatten(params);
            let (loss, grads) = model.loss_and_grads(x, y);
            let mut flat = Vec::with_capacity(dim);
            for (gw, gb) in &grads {
                flat.extend_from_slice(gw.as_slice());
                flat.extend_from_slice(gb);
            }
            (loss, flat)
        };

        let (mut loss, mut grad) = eval(self, &theta);
        for iter in 0..self.config.max_iter {
            self.epochs_run = iter + 1;
            // Two-loop recursion to get the search direction.
            let mut q = grad.clone();
            let mut alphas = Vec::with_capacity(s_hist.len());
            for i in (0..s_hist.len()).rev() {
                let a = rho_hist[i] * crate::linalg::dot(&s_hist[i], &q);
                for (qv, yv) in q.iter_mut().zip(&y_hist[i]) {
                    *qv -= a * yv;
                }
                alphas.push(a);
            }
            alphas.reverse();
            // Initial Hessian scaling γ = sᵀy / yᵀy.
            if let (Some(s_last), Some(y_last)) = (s_hist.last(), y_hist.last()) {
                let sy = crate::linalg::dot(s_last, y_last);
                let yy = crate::linalg::dot(y_last, y_last);
                if yy > 0.0 && sy > 0.0 {
                    let gamma = sy / yy;
                    for qv in &mut q {
                        *qv *= gamma;
                    }
                }
            }
            for i in 0..s_hist.len() {
                let beta = rho_hist[i] * crate::linalg::dot(&y_hist[i], &q);
                let corr = alphas[i] - beta;
                for (qv, sv) in q.iter_mut().zip(&s_hist[i]) {
                    *qv += corr * sv;
                }
            }
            let direction: Vec<f64> = q.iter().map(|v| -v).collect();
            let dir_dot_grad = crate::linalg::dot(&direction, &grad);
            if dir_dot_grad >= 0.0 {
                break; // not a descent direction; converged or numerical trouble
            }
            // Armijo backtracking line search.
            let mut step = 1.0;
            let c1 = 1e-4;
            let mut accepted = false;
            for _ in 0..30 {
                let candidate: Vec<f64> =
                    theta.iter().zip(&direction).map(|(t, d)| t + step * d).collect();
                let (new_loss, new_grad) = eval(self, &candidate);
                if new_loss <= loss + c1 * step * dir_dot_grad {
                    // Curvature update.
                    let s_vec: Vec<f64> =
                        candidate.iter().zip(&theta).map(|(a, b)| a - b).collect();
                    let y_vec: Vec<f64> = new_grad.iter().zip(&grad).map(|(a, b)| a - b).collect();
                    let sy = crate::linalg::dot(&s_vec, &y_vec);
                    if sy > 1e-12 {
                        if s_hist.len() == history {
                            s_hist.remove(0);
                            y_hist.remove(0);
                            rho_hist.remove(0);
                        }
                        rho_hist.push(1.0 / sy);
                        s_hist.push(s_vec);
                        y_hist.push(y_vec);
                    }
                    let improvement = loss - new_loss;
                    theta = candidate;
                    loss = new_loss;
                    grad = new_grad;
                    accepted = true;
                    if improvement < self.config.tol {
                        self.unflatten(&theta);
                        self.final_loss = loss;
                        return Ok(());
                    }
                    break;
                }
                step *= 0.5;
            }
            if !accepted {
                break;
            }
        }
        self.unflatten(&theta);
        self.final_loss = loss;
        Ok(())
    }

    fn flatten(&self) -> Vec<f64> {
        let mut out = Vec::new();
        for l in &self.layers {
            out.extend_from_slice(l.w.as_slice());
            out.extend_from_slice(&l.b);
        }
        out
    }

    fn unflatten(&mut self, theta: &[f64]) {
        let mut pos = 0;
        for l in &mut self.layers {
            let wn = l.w.rows() * l.w.cols();
            l.w.as_mut_slice().copy_from_slice(&theta[pos..pos + wn]);
            pos += wn;
            let bn = l.b.len();
            l.b.copy_from_slice(&theta[pos..pos + bn]);
            pos += bn;
        }
        debug_assert_eq!(pos, theta.len());
    }
}

/// Per-layer optimizer state (first/second moments for w and b).
struct OptState {
    m_w: Vec<f64>,
    v_w: Vec<f64>,
    m_b: Vec<f64>,
    v_b: Vec<f64>,
}

impl OptState {
    fn new(fan_in: usize, fan_out: usize) -> Self {
        OptState {
            m_w: vec![0.0; fan_in * fan_out],
            v_w: vec![0.0; fan_in * fan_out],
            m_b: vec![0.0; fan_out],
            v_b: vec![0.0; fan_out],
        }
    }
}

fn apply_update(
    opt: &OptimizerKind,
    layer: &mut Layer,
    st: &mut OptState,
    gw: &Matrix,
    gb: &[f64],
    t: usize,
) {
    match *opt {
        OptimizerKind::Sgd { lr, momentum } => {
            for ((w, m), g) in layer.w.as_mut_slice().iter_mut().zip(&mut st.m_w).zip(gw.as_slice())
            {
                *m = momentum * *m - lr * g;
                *w += *m;
            }
            for ((b, m), g) in layer.b.iter_mut().zip(&mut st.m_b).zip(gb) {
                *m = momentum * *m - lr * g;
                *b += *m;
            }
        }
        OptimizerKind::Adam { lr } => {
            const B1: f64 = 0.9;
            const B2: f64 = 0.999;
            const EPS: f64 = 1e-8;
            let bc1 = 1.0 - B1.powi(t as i32);
            let bc2 = 1.0 - B2.powi(t as i32);
            for (((w, m), v), g) in layer
                .w
                .as_mut_slice()
                .iter_mut()
                .zip(&mut st.m_w)
                .zip(&mut st.v_w)
                .zip(gw.as_slice())
            {
                *m = B1 * *m + (1.0 - B1) * g;
                *v = B2 * *v + (1.0 - B2) * g * g;
                *w -= lr * (*m / bc1) / ((*v / bc2).sqrt() + EPS);
            }
            for (((b, m), v), g) in layer.b.iter_mut().zip(&mut st.m_b).zip(&mut st.v_b).zip(gb) {
                *m = B1 * *m + (1.0 - B1) * g;
                *v = B2 * *v + (1.0 - B2) * g * g;
                *b -= lr * (*m / bc1) / ((*v / bc2).sqrt() + EPS);
            }
        }
        OptimizerKind::Lbfgs { .. } => unreachable!("L-BFGS does not use per-batch updates"),
    }
}

impl Regressor for Mlp {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> MlResult<()> {
        let n = x.rows();
        if n == 0 || x.cols() == 0 {
            return Err(MlError::EmptyInput("Mlp::fit"));
        }
        if y.len() != n {
            return Err(dim_mismatch(format!("y.len() == {n}"), format!("y.len() == {}", y.len())));
        }
        if self.config.max_iter == 0 {
            return Err(MlError::InvalidHyperparameter("max_iter must be >= 1".into()));
        }
        if self.config.alpha < 0.0 {
            return Err(MlError::InvalidHyperparameter("alpha must be >= 0".into()));
        }
        // Standardize inputs and target.
        let xs = self.x_scaler.fit_transform(x)?;
        self.y_mean = y.iter().sum::<f64>() / n as f64;
        let var = y.iter().map(|v| (v - self.y_mean) * (v - self.y_mean)).sum::<f64>() / n as f64;
        self.y_std = if var > 0.0 { var.sqrt() } else { 1.0 };
        let ys: Vec<f64> = y.iter().map(|v| (v - self.y_mean) / self.y_std).collect();

        let mut rng = StdRng::seed_from_u64(self.config.seed);
        self.n_features = x.cols();
        self.init_layers(x.cols(), &mut rng);
        match self.config.optimizer {
            OptimizerKind::Lbfgs { history } => self.fit_lbfgs(&xs, &ys, history.max(1)),
            _ => self.fit_minibatch(&xs, &ys, &mut rng),
        }
    }

    fn predict_row(&self, row: &[f64]) -> MlResult<f64> {
        if self.layers.is_empty() {
            return Err(MlError::NotFitted("Mlp"));
        }
        if row.len() != self.n_features {
            return Err(dim_mismatch(
                format!("row.len() == {}", self.n_features),
                format!("row.len() == {}", row.len()),
            ));
        }
        let mut a = row.to_vec();
        self.x_scaler.transform_row(&mut a)?;
        let n_layers = self.layers.len();
        for (li, layer) in self.layers.iter().enumerate() {
            let mut next = layer.b.clone();
            for (i, &av) in a.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let wrow = layer.w.row(i);
                for (nv, &wv) in next.iter_mut().zip(wrow) {
                    *nv += av * wv;
                }
            }
            if li != n_layers - 1 {
                for v in &mut next {
                    *v = self.config.activation.apply(*v);
                }
            }
            a = next;
        }
        Ok(a[0] * self.y_std + self.y_mean)
    }

    fn name(&self) -> &'static str {
        "dnn"
    }

    fn save_params(&self, w: &mut dyn std::io::Write) -> MlResult<()> {
        use crate::codec as c;
        c::write_usize_seq(w, &self.config.hidden_layers)?;
        c::write_u8(
            w,
            match self.config.activation {
                Activation::Relu => 0,
                Activation::Identity => 1,
            },
        )?;
        match self.config.optimizer {
            OptimizerKind::Sgd { lr, momentum } => {
                c::write_u8(w, 0)?;
                c::write_f64(w, lr)?;
                c::write_f64(w, momentum)?;
            }
            OptimizerKind::Adam { lr } => {
                c::write_u8(w, 1)?;
                c::write_f64(w, lr)?;
            }
            OptimizerKind::Lbfgs { history } => {
                c::write_u8(w, 2)?;
                c::write_usize(w, history)?;
            }
        }
        c::write_f64(w, self.config.alpha)?;
        c::write_usize(w, self.config.max_iter)?;
        c::write_usize(w, self.config.batch_size)?;
        c::write_f64(w, self.config.tol)?;
        c::write_u64(w, self.config.seed)?;
        c::write_usize(w, self.n_features)?;
        c::write_f64(w, self.y_mean)?;
        c::write_f64(w, self.y_std)?;
        c::write_f64(w, self.final_loss)?;
        c::write_usize(w, self.epochs_run)?;
        self.x_scaler.write_params(w)?;
        c::write_usize(w, self.layers.len())?;
        for layer in &self.layers {
            c::write_matrix(w, &layer.w)?;
            c::write_f64_seq(w, &layer.b)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{r2, rmse};

    fn linear_data(n: usize) -> (Matrix, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(17);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![rng.gen::<f64>() * 2.0 - 1.0, rng.gen::<f64>() * 2.0 - 1.0])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| 3.0 * r[0] - 2.0 * r[1] + 1.0).collect();
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    fn quadratic_data(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..n).map(|_| vec![rng.gen::<f64>() * 2.0 - 1.0]).collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0] * r[0] * 10.0).collect();
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn adam_learns_linear_function() {
        let (x, y) = linear_data(300);
        let mut mlp = Mlp::new(MlpConfig {
            hidden_layers: vec![16],
            optimizer: OptimizerKind::Adam { lr: 5e-3 },
            max_iter: 300,
            ..Default::default()
        });
        mlp.fit(&x, &y).unwrap();
        let pred = mlp.predict(&x).unwrap();
        assert!(r2(&y, &pred).unwrap() > 0.98, "r2 = {}", r2(&y, &pred).unwrap());
    }

    #[test]
    fn sgd_learns_linear_function() {
        let (x, y) = linear_data(300);
        let mut mlp = Mlp::new(MlpConfig {
            hidden_layers: vec![8],
            optimizer: OptimizerKind::Sgd { lr: 0.01, momentum: 0.9 },
            max_iter: 400,
            ..Default::default()
        });
        mlp.fit(&x, &y).unwrap();
        assert!(r2(&y, &mlp.predict(&x).unwrap()).unwrap() > 0.95);
    }

    #[test]
    fn lbfgs_learns_quadratic_on_small_data() {
        let (x, y) = quadratic_data(120, 5);
        let mut mlp = Mlp::new(MlpConfig {
            hidden_layers: vec![16, 8],
            optimizer: OptimizerKind::Lbfgs { history: 10 },
            max_iter: 200,
            alpha: 1e-6,
            ..Default::default()
        });
        mlp.fit(&x, &y).unwrap();
        let pred = mlp.predict(&x).unwrap();
        assert!(r2(&y, &pred).unwrap() > 0.95, "r2 = {}", r2(&y, &pred).unwrap());
    }

    #[test]
    fn relu_beats_identity_on_nonlinear_target() {
        let (x, y) = quadratic_data(200, 6);
        let fit = |act: Activation| {
            let mut mlp = Mlp::new(MlpConfig {
                hidden_layers: vec![16, 8],
                activation: act,
                optimizer: OptimizerKind::Adam { lr: 5e-3 },
                max_iter: 300,
                ..Default::default()
            });
            mlp.fit(&x, &y).unwrap();
            rmse(&y, &mlp.predict(&x).unwrap()).unwrap()
        };
        let relu_err = fit(Activation::Relu);
        let lin_err = fit(Activation::Identity);
        // A purely linear net cannot represent x²; ReLU can approximate it.
        assert!(relu_err < lin_err * 0.7, "relu {relu_err} vs identity {lin_err}");
    }

    #[test]
    fn identity_activation_suffices_for_linear_target() {
        let (x, y) = linear_data(200);
        let mut mlp = Mlp::new(MlpConfig {
            hidden_layers: vec![4],
            activation: Activation::Identity,
            optimizer: OptimizerKind::Adam { lr: 1e-2 },
            max_iter: 300,
            ..Default::default()
        });
        mlp.fit(&x, &y).unwrap();
        assert!(r2(&y, &mlp.predict(&x).unwrap()).unwrap() > 0.99);
    }

    #[test]
    fn no_hidden_layers_degenerates_to_linear_model() {
        let (x, y) = linear_data(200);
        let mut mlp = Mlp::new(MlpConfig {
            hidden_layers: vec![],
            optimizer: OptimizerKind::Lbfgs { history: 10 },
            max_iter: 100,
            alpha: 0.0,
            ..Default::default()
        });
        mlp.fit(&x, &y).unwrap();
        assert!(r2(&y, &mlp.predict(&x).unwrap()).unwrap() > 0.999);
        assert_eq!(mlp.layer_widths(), vec![2, 1]);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (x, y) = linear_data(100);
        let cfg = MlpConfig { hidden_layers: vec![8], max_iter: 20, ..Default::default() };
        let mut a = Mlp::new(cfg.clone());
        let mut b = Mlp::new(cfg);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(a.predict(&x).unwrap(), b.predict(&x).unwrap());
    }

    #[test]
    fn validates_inputs() {
        let (x, y) = linear_data(10);
        let mut mlp = Mlp::default_config();
        assert!(mlp.fit(&x, &y[..5]).is_err());
        assert!(mlp.fit(&Matrix::zeros(0, 2), &[]).is_err());
        let mut bad = Mlp::new(MlpConfig { max_iter: 0, ..Default::default() });
        assert!(bad.fit(&x, &y).is_err());
        let mut bad = Mlp::new(MlpConfig { alpha: -1.0, ..Default::default() });
        assert!(bad.fit(&x, &y).is_err());
        assert!(matches!(Mlp::default_config().predict_row(&[0.0]), Err(MlError::NotFitted(_))));
        mlp.fit(&x, &y).unwrap();
        assert!(mlp.predict_row(&[0.0]).is_err());
    }

    #[test]
    fn early_stopping_on_tol() {
        let (x, y) = linear_data(100);
        let mut mlp = Mlp::new(MlpConfig {
            hidden_layers: vec![4],
            optimizer: OptimizerKind::Adam { lr: 1e-2 },
            max_iter: 5000,
            tol: 1e-3,
            ..Default::default()
        });
        mlp.fit(&x, &y).unwrap();
        assert!(mlp.epochs_run() < 5000);
    }
}
