//! The Adam optimizer.

use crate::nn::Mlp;
use serde::{Deserialize, Serialize};

/// Adam optimizer state, tied to a specific network's parameter count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    m: Vec<f64>,
    v: Vec<f64>,
}

impl Adam {
    /// Creates Adam with the usual defaults (β₁ = 0.9, β₂ = 0.999) for
    /// `net`.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive.
    pub fn new(net: &Mlp, lr: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        let n = net.num_params();
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: vec![0.0; n],
            v: vec![0.0; n],
        }
    }

    /// Applies one Adam step using the gradients accumulated in `net`
    /// (scaled by `1 / batch_size`), then leaves the gradients untouched —
    /// callers zero them when starting the next batch.
    ///
    /// # Panics
    ///
    /// Panics if `net` has a different parameter count than the optimizer
    /// was built for, or `batch_size == 0`.
    pub fn step(&mut self, net: &mut Mlp, batch_size: usize) {
        assert_eq!(net.num_params(), self.m.len(), "optimizer/network mismatch");
        assert!(batch_size > 0, "batch size must be positive");
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let scale = 1.0 / batch_size as f64;
        let (b1, b2, eps, lr) = (self.beta1, self.beta2, self.eps, self.lr);
        let (m, v) = (&mut self.m, &mut self.v);
        net.visit_params_mut(|i, w, g| {
            let g = g * scale;
            m[i] = b1 * m[i] + (1.0 - b1) * g;
            v[i] = b2 * v[i] + (1.0 - b2) * g * g;
            let mhat = m[i] / bc1;
            let vhat = v[i] / bc2;
            *w -= lr * mhat / (vhat.sqrt() + eps);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Train y = 2x − 1 with a tiny MLP; loss must shrink drastically.
    fn train_regression<F: FnMut(&mut Mlp, usize)>(mut step: F) -> f64 {
        let mut net = Mlp::new(&[1, 8, 1], 3);
        let data: Vec<(f64, f64)> = (0..16)
            .map(|i| (i as f64 / 8.0 - 1.0, 2.0 * (i as f64 / 8.0 - 1.0) - 1.0))
            .collect();
        for _ in 0..400 {
            net.zero_grad();
            for &(x, t) in &data {
                let cache = net.forward(&[x]);
                let d = cache.output()[0] - t;
                net.backward(&cache, &[d]);
            }
            step(&mut net, data.len());
        }
        data.iter()
            .map(|&(x, t)| {
                let y = net.predict(&[x])[0];
                (y - t) * (y - t)
            })
            .sum::<f64>()
            / data.len() as f64
    }

    #[test]
    fn adam_fits_a_line() {
        let mut adam: Option<Adam> = None;
        let mse = train_regression(|net, bs| {
            let adam = adam.get_or_insert_with(|| Adam::new(net, 0.01));
            adam.step(net, bs);
        });
        assert!(mse < 1e-3, "Adam final MSE {mse}");
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn non_positive_lr_rejected() {
        let net = Mlp::new(&[1, 1], 0);
        let _ = Adam::new(&net, 0.0);
    }

    #[test]
    #[should_panic(expected = "optimizer/network mismatch")]
    fn mismatched_network_rejected() {
        let a = Mlp::new(&[1, 1], 0);
        let mut b = Mlp::new(&[2, 2], 0);
        let mut adam = Adam::new(&a, 0.01);
        adam.step(&mut b, 1);
    }
}
