//! Dense feed-forward neural networks with backpropagation.
//!
//! The paper's dispatcher "utilize\[s\] the Deep Neural Network (DNN) (as in
//! \[Pensieve\]) to obtain the optimal policy". This module provides the DNN:
//! an [`Mlp`] of fully connected layers with ReLU hidden activations and a
//! linear output, trained by explicit backpropagation (no autograd crate).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// One fully connected layer with its accumulated gradients.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Linear {
    in_dim: usize,
    out_dim: usize,
    /// Row-major `out_dim × in_dim` weights.
    w: Vec<f64>,
    b: Vec<f64>,
    #[serde(skip)]
    gw: Vec<f64>,
    #[serde(skip)]
    gb: Vec<f64>,
}

impl Linear {
    /// He-initialized layer.
    fn new(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        let scale = (2.0 / in_dim as f64).sqrt();
        let w = (0..in_dim * out_dim)
            .map(|_| (rng.random::<f64>() * 2.0 - 1.0) * scale)
            .collect();
        Self {
            in_dim,
            out_dim,
            w,
            b: vec![0.0; out_dim],
            gw: vec![0.0; in_dim * out_dim],
            gb: vec![0.0; out_dim],
        }
    }

    /// `forward` for a whole batch at once, followed by [`relu`] when
    /// `RELU`: `x` holds `rows` inputs feature-major (feature `i` of row
    /// `r` at `i * rows + r`) and `y` receives the outputs in the same
    /// layout. Every output is computed in `forward`'s order — its products
    /// summed in input order from `Iterator::sum`'s `-0.0` start, then
    /// added to the bias — so each row's result is bit-identical to
    /// `forward` (and its ReLU) on that row; batching only lets
    /// [`ROW_BLOCK`] rows share each weight load and run as independent,
    /// vectorized accumulators.
    #[inline(always)]
    fn forward_batch<const RELU: bool>(&self, x: &[f64], rows: usize, y: &mut Vec<f64>) {
        debug_assert_eq!(x.len(), self.in_dim * rows);
        y.clear();
        y.resize(self.out_dim * rows, 0.0);
        let full = rows - rows % ROW_BLOCK;
        for (o, out) in y.chunks_exact_mut(rows).enumerate() {
            let w = &self.w[o * self.in_dim..(o + 1) * self.in_dim];
            for r in (0..full).step_by(ROW_BLOCK) {
                dot_block::<ROW_BLOCK, RELU>(w, self.b[o], x, rows, r, out);
            }
            for r in full..rows {
                dot_block::<1, RELU>(w, self.b[o], x, rows, r, out);
            }
        }
    }

    #[allow(clippy::needless_range_loop)] // index couples several arrays
    fn forward(&self, x: &[f64]) -> Vec<f64> {
        debug_assert_eq!(x.len(), self.in_dim);
        let mut y = self.b.clone();
        for o in 0..self.out_dim {
            let row = &self.w[o * self.in_dim..(o + 1) * self.in_dim];
            y[o] += row.iter().zip(x).map(|(w, x)| w * x).sum::<f64>();
        }
        y
    }

    /// Accumulates gradients for `dy` at input `x`; returns `dx`.
    #[allow(clippy::needless_range_loop)] // index couples several arrays
    fn backward(&mut self, x: &[f64], dy: &[f64]) -> Vec<f64> {
        debug_assert_eq!(dy.len(), self.out_dim);
        let mut dx = vec![0.0; self.in_dim];
        for o in 0..self.out_dim {
            self.gb[o] += dy[o];
            let row = &self.w[o * self.in_dim..(o + 1) * self.in_dim];
            let grow = &mut self.gw[o * self.in_dim..(o + 1) * self.in_dim];
            for i in 0..self.in_dim {
                grow[i] += dy[o] * x[i];
                dx[i] += row[i] * dy[o];
            }
        }
        dx
    }

    fn zero_grad(&mut self) {
        self.gw.iter_mut().for_each(|g| *g = 0.0);
        self.gb.iter_mut().for_each(|g| *g = 0.0);
    }
}

/// Cached activations of one forward pass, consumed by
/// [`Mlp::backward`].
#[derive(Debug, Clone)]
pub struct ForwardCache {
    /// `acts[0]` is the input; `acts[i]` the post-activation output of layer
    /// `i−1`.
    acts: Vec<Vec<f64>>,
}

impl ForwardCache {
    /// The network output of this pass.
    pub fn output(&self) -> &[f64] {
        self.acts.last().expect("cache always holds the input")
    }
}

/// Reusable activation buffers for [`Mlp::predict_batch`]: once they have
/// grown to the widest layer of the largest batch, a pass allocates
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    /// The current layer's input, feature-major.
    input: Vec<f64>,
    /// The current layer's output, feature-major; also holds the
    /// row-major result of a multi-output network.
    output: Vec<f64>,
}

/// A multi-layer perceptron: ReLU hidden layers, linear output.
///
/// # Examples
///
/// ```
/// use mobirescue_rl::nn::Mlp;
///
/// let mlp = Mlp::new(&[4, 16, 2], 7);
/// let out = mlp.predict(&[0.1, -0.3, 0.5, 0.9]);
/// assert_eq!(out.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Builds an MLP with the given layer sizes `[input, hidden…, output]`,
    /// deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given or any size is zero.
    pub fn new(dims: &[usize], seed: u64) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dimensions");
        assert!(dims.iter().all(|&d| d > 0), "layer sizes must be positive");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6e6e_0000);
        let layers = dims
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], &mut rng))
            .collect();
        Self { layers }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.layers[0].in_dim
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.layers.last().expect("at least one layer").out_dim
    }

    /// Total number of trainable parameters.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(|l| l.w.len() + l.b.len()).sum()
    }

    /// The layer sizes `[input, hidden…, output]` the network was built
    /// with.
    pub fn layer_dims(&self) -> Vec<usize> {
        let mut dims = vec![self.layers[0].in_dim];
        dims.extend(self.layers.iter().map(|l| l.out_dim));
        dims
    }

    /// Forward pass without caching: the one-row case of
    /// [`Mlp::predict_batch`].
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong dimension.
    pub fn predict(&self, x: &[f64]) -> Vec<f64> {
        self.predict_batch(&[x], &mut BatchScratch::default())
            .to_vec()
    }

    /// Forward pass over a batch of rows, layer by layer through
    /// `scratch`. Returns the outputs row-major (`output_dim` values per
    /// row, in row order), each bit-identical to [`Mlp::predict`] and to
    /// [`Mlp::forward`] on that row alone — batching changes the memory
    /// layout, never the arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if any row has the wrong dimension.
    pub fn predict_batch<'s, R: AsRef<[f64]>>(
        &self,
        rows: &[R],
        scratch: &'s mut BatchScratch,
    ) -> &'s [f64] {
        self.predict_batch_by(rows, scratch, batch_pass_dispatched)
    }

    /// [`Mlp::predict_batch`] with the layers run by `pass` (one of
    /// [`batch_pass`]'s instantiations), from and into row order.
    fn predict_batch_by<'s, R: AsRef<[f64]>>(
        &self,
        rows: &[R],
        scratch: &'s mut BatchScratch,
        pass: fn(&[Linear], usize, &mut Vec<f64>, &mut Vec<f64>),
    ) -> &'s [f64] {
        let n = rows.len();
        if n == 0 {
            return &[];
        }
        let dim = self.input_dim();
        let BatchScratch { input, output } = scratch;
        input.clear();
        input.resize(dim * n, 0.0);
        for (r, row) in rows.iter().enumerate() {
            let row = row.as_ref();
            assert_eq!(row.len(), dim, "input has wrong dimension");
            for (i, &x) in row.iter().enumerate() {
                input[i * n + r] = x;
            }
        }
        pass(&self.layers, n, input, output);
        let out_dim = self.output_dim();
        if out_dim == 1 {
            return input;
        }
        output.clear();
        output.extend((0..n * out_dim).map(|j| input[(j % out_dim) * n + j / out_dim]));
        output
    }

    /// Forward pass caching every activation for [`Mlp::backward`].
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong dimension.
    pub fn forward(&self, x: &[f64]) -> ForwardCache {
        assert_eq!(x.len(), self.input_dim(), "input has wrong dimension");
        let n = self.layers.len();
        let mut acts = Vec::with_capacity(n + 1);
        acts.push(x.to_vec());
        for (i, layer) in self.layers.iter().enumerate() {
            let mut a = layer.forward(acts.last().expect("non-empty"));
            if i + 1 < n {
                a.iter_mut().for_each(|v| *v = relu(*v));
            }
            acts.push(a);
        }
        ForwardCache { acts }
    }

    /// Backpropagates `dloss_dout` through the cached pass, *accumulating*
    /// parameter gradients (call [`Mlp::zero_grad`] between batches).
    ///
    /// # Panics
    ///
    /// Panics if the gradient has the wrong dimension.
    pub fn backward(&mut self, cache: &ForwardCache, dloss_dout: &[f64]) {
        assert_eq!(
            dloss_dout.len(),
            self.output_dim(),
            "gradient has wrong dimension"
        );
        let n = self.layers.len();
        let mut dy = dloss_dout.to_vec();
        for i in (0..n).rev() {
            if i + 1 < n {
                // Gradient through the ReLU applied after layer i.
                for (d, &a) in dy.iter_mut().zip(&cache.acts[i + 1]) {
                    if a <= 0.0 {
                        *d = 0.0;
                    }
                }
            }
            dy = self.layers[i].backward(&cache.acts[i], &dy);
        }
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.layers.iter_mut().for_each(Linear::zero_grad);
    }

    /// Copies another network's parameters into this one (target-network
    /// sync).
    ///
    /// # Panics
    ///
    /// Panics if the architectures differ.
    pub fn copy_params_from(&mut self, other: &Mlp) {
        assert_eq!(
            self.layers.len(),
            other.layers.len(),
            "architecture mismatch"
        );
        for (a, b) in self.layers.iter_mut().zip(&other.layers) {
            assert_eq!(a.w.len(), b.w.len(), "architecture mismatch");
            a.w.copy_from_slice(&b.w);
            a.b.copy_from_slice(&b.b);
        }
    }

    /// Visits every `(parameter, accumulated gradient)` pair mutably, in a
    /// stable order (used by optimizers).
    pub fn visit_params_mut(&mut self, mut f: impl FnMut(usize, &mut f64, f64)) {
        let mut idx = 0;
        for layer in &mut self.layers {
            for (w, &g) in layer.w.iter_mut().zip(&layer.gw) {
                f(idx, w, g);
                idx += 1;
            }
            for (b, &g) in layer.b.iter_mut().zip(&layer.gb) {
                f(idx, b, g);
                idx += 1;
            }
        }
    }
}

/// Rows per block of [`Linear::forward_batch`]: sixteen accumulators fill
/// eight SSE2 or four AVX2 registers (on x86-64 with SSE2, 16 ran faster
/// than 4, 8 or 12).
const ROW_BLOCK: usize = 16;

/// Writes `out[r..r + L]`: rows `r..r + L` of one output unit with weights
/// `w` and bias `b`, over the feature-major batch `x` of `rows` rows,
/// through [`relu`] when `RELU`.
#[inline(always)]
fn dot_block<const L: usize, const RELU: bool>(
    w: &[f64],
    b: f64,
    x: &[f64],
    rows: usize,
    r: usize,
    out: &mut [f64],
) {
    let mut acc = [-0.0; L];
    for (&w, xs) in w.iter().zip(x.chunks_exact(rows)) {
        for (a, &x) in acc.iter_mut().zip(&xs[r..r + L]) {
            *a += w * x;
        }
    }
    for (y, a) in out[r..r + L].iter_mut().zip(acc) {
        let v = b + a;
        *y = if RELU { relu(v) } else { v };
    }
}

/// The layers of a batch pass: every layer's [`Linear::forward_batch`] in
/// turn, ReLU fused into every layer but the last, leaving the output in
/// `input`. Compiled twice, here for the build's baseline target and in
/// [`batch_pass_avx2`]: Rust never contracts `w * x + a` into a fused
/// multiply-add and AVX2 brings none, so both instantiations compute every
/// output bit for bit alike.
#[inline(always)]
fn batch_pass(layers: &[Linear], rows: usize, input: &mut Vec<f64>, output: &mut Vec<f64>) {
    let (hidden, last) = layers.split_at(layers.len() - 1);
    for layer in hidden {
        layer.forward_batch::<true>(input, rows, output);
        std::mem::swap(input, output);
    }
    last[0].forward_batch::<false>(input, rows, output);
    std::mem::swap(input, output);
}

/// [`batch_pass`] compiled with AVX2 enabled: the sixteen accumulators of
/// a row block run four to a register.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn batch_pass_avx2(layers: &[Linear], rows: usize, input: &mut Vec<f64>, output: &mut Vec<f64>) {
    batch_pass(layers, rows, input, output);
}

/// [`batch_pass`] on AVX2 when the CPU has it (the standard library caches
/// the check), on the baseline target otherwise.
#[allow(unsafe_code)]
fn batch_pass_dispatched(
    layers: &[Linear],
    rows: usize,
    input: &mut Vec<f64>,
    output: &mut Vec<f64>,
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `batch_pass_avx2` requires only the `avx2` target
        // feature, and the CPU running this code has just been found to
        // support it.
        return unsafe { batch_pass_avx2(layers, rows, input, output) };
    }
    batch_pass(layers, rows, input, output);
}

/// The hidden layers' activation, passing `-0.0` and NaN through.
#[inline(always)]
fn relu(v: f64) -> f64 {
    if v < 0.0 {
        0.0
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_param_count() {
        let mlp = Mlp::new(&[3, 5, 2], 0);
        assert_eq!(mlp.input_dim(), 3);
        assert_eq!(mlp.output_dim(), 2);
        assert_eq!(mlp.num_params(), 3 * 5 + 5 + 5 * 2 + 2);
        assert_eq!(mlp.predict(&[0.0; 3]).len(), 2);
    }

    #[test]
    fn forward_cache_matches_predict() {
        let mlp = Mlp::new(&[4, 8, 3], 5);
        let x = [0.3, -0.7, 1.2, 0.0];
        assert_eq!(mlp.forward(&x).output(), mlp.predict(&x).as_slice());
    }

    #[test]
    fn deterministic_in_seed() {
        let a = Mlp::new(&[2, 4, 1], 9);
        let b = Mlp::new(&[2, 4, 1], 9);
        let c = Mlp::new(&[2, 4, 1], 10);
        assert_eq!(a.predict(&[1.0, -1.0]), b.predict(&[1.0, -1.0]));
        assert_ne!(a.predict(&[1.0, -1.0]), c.predict(&[1.0, -1.0]));
    }

    #[test]
    fn gradient_check_against_finite_differences() {
        let mut mlp = Mlp::new(&[3, 6, 2], 42);
        let x = [0.5, -0.2, 0.8];
        let target = [1.0, -1.0];
        // Loss = 0.5 Σ (y − t)²; dL/dy = y − t.
        let loss_of = |m: &Mlp| -> f64 {
            let y = m.predict(&x);
            y.iter()
                .zip(&target)
                .map(|(y, t)| 0.5 * (y - t) * (y - t))
                .sum()
        };
        let cache = mlp.forward(&x);
        let dout: Vec<f64> = cache
            .output()
            .iter()
            .zip(&target)
            .map(|(y, t)| y - t)
            .collect();
        mlp.zero_grad();
        mlp.backward(&cache, &dout);

        // Collect analytical gradients.
        let mut analytical = Vec::new();
        mlp.visit_params_mut(|_, _, g| analytical.push(g));

        // Finite differences.
        let eps = 1e-6;
        let n = analytical.len();
        for k in (0..n).step_by(7) {
            let mut plus = mlp.clone();
            plus.visit_params_mut(|i, w, _| {
                if i == k {
                    *w += eps;
                }
            });
            let mut minus = mlp.clone();
            minus.visit_params_mut(|i, w, _| {
                if i == k {
                    *w -= eps;
                }
            });
            let numeric = (loss_of(&plus) - loss_of(&minus)) / (2.0 * eps);
            assert!(
                (numeric - analytical[k]).abs() < 1e-4,
                "param {k}: numeric {numeric} vs analytical {}",
                analytical[k]
            );
        }
    }

    /// The separate pass over the activations that the batch pass ran
    /// before its ReLU moved into the store.
    fn relu_inplace(a: &mut [f64]) {
        for x in a {
            if *x < 0.0 {
                *x = 0.0;
            }
        }
    }

    #[test]
    fn dispatched_batch_pass_matches_the_portable_body_bitwise() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = StdRng::seed_from_u64(33);
        let (mut signed_zeros, mut nans, mut negatives) = (0, 0, 0);
        let (mut dispatched, mut portable) = (BatchScratch::default(), BatchScratch::default());
        for case in 0..64u64 {
            let hidden = (case % 4) as usize;
            let mut dims = vec![rng.random_range(1..9)];
            dims.extend((0..hidden).map(|_| rng.random_range(1..41)));
            dims.push(rng.random_range(1..4));
            let mut net = Mlp::new(&dims, case);
            // Shifted weights give negative pre-activations; biases of
            // -0.0 let a unit whose products are all -0.0 output -0.0;
            // every fourth network carries one NaN weight.
            let shift = rng.random::<f64>() - 0.5;
            let nan_at = (case % 4 == 3).then(|| rng.random_range(0..net.num_params()));
            net.visit_params_mut(|i, w, _| {
                *w = match (Some(i) == nan_at, *w == 0.0) {
                    (true, _) => f64::NAN,
                    (false, true) => -0.0,
                    (false, false) => *w + shift,
                }
            });
            let rows: Vec<Vec<f64>> = (0..rng.random_range(1..160))
                .map(|_| {
                    (0..dims[0])
                        .map(|_| match rng.random_range(0..4) {
                            0 => 0.0,
                            1 => -0.0,
                            _ => rng.random::<f64>() * 4.0 - 2.0,
                        })
                        .collect()
                })
                .collect();
            let got = net.predict_batch(&rows, &mut dispatched);
            let body = net.predict_batch_by(&rows, &mut portable, batch_pass);
            assert_eq!(bits(got), bits(body), "case {case}: dims {dims:?}");
            let out_dim = net.output_dim();
            for (row, got) in rows.iter().zip(got.chunks_exact(out_dim)) {
                let mut a = row.clone();
                for (i, layer) in net.layers.iter().enumerate() {
                    a = layer.forward(&a);
                    if i < hidden {
                        negatives += a.iter().filter(|&&v| v < 0.0).count();
                        relu_inplace(&mut a);
                        signed_zeros += a
                            .iter()
                            .filter(|v| v.to_bits() == (-0.0f64).to_bits())
                            .count();
                        nans += a.iter().filter(|v| v.is_nan()).count();
                    }
                }
                assert_eq!(bits(got), bits(&a), "case {case}: row {row:?}");
            }
        }
        // The fused ReLU met every kind of activation it must get right.
        assert!(signed_zeros > 0 && nans > 0 && negatives > 0);
    }

    #[test]
    fn copy_params_makes_networks_identical() {
        let mut a = Mlp::new(&[2, 4, 2], 1);
        let b = Mlp::new(&[2, 4, 2], 2);
        assert_ne!(a.predict(&[0.5, 0.5]), b.predict(&[0.5, 0.5]));
        a.copy_params_from(&b);
        assert_eq!(a.predict(&[0.5, 0.5]), b.predict(&[0.5, 0.5]));
    }

    #[test]
    #[should_panic(expected = "wrong dimension")]
    fn wrong_input_dim_panics() {
        let mlp = Mlp::new(&[3, 2], 0);
        let _ = mlp.predict(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn single_dim_rejected() {
        let _ = Mlp::new(&[3], 0);
    }
}
