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

    /// Parameters the optimizer holds moments for: the network size it
    /// can step.
    pub fn num_params(&self) -> usize {
        self.m.len()
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

    /// Serializes the optimizer as one line of text:
    /// `adam <lr> <beta1> <beta2> <eps> <t> <n> m... v...`, floats in
    /// `{:?}` form so the round-trip is bit-exact (a restored optimizer
    /// continues training identically to one that was never serialized).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "adam {:?} {:?} {:?} {:?} {} {}",
            self.lr,
            self.beta1,
            self.beta2,
            self.eps,
            self.t,
            self.m.len()
        );
        for x in self.m.iter().chain(self.v.iter()) {
            let _ = write!(out, " {x:?}");
        }
        out.push('\n');
        out
    }

    /// Parses [`Adam::to_text`] output.
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformed field.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let line = text.trim_end_matches('\n');
        let mut it = line.split_whitespace();
        if it.next() != Some("adam") {
            return Err("bad adam header".to_owned());
        }
        let mut float = |name: &str| -> Result<f64, String> {
            it.next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("bad adam {name}"))
        };
        let lr = float("lr")?;
        let beta1 = float("beta1")?;
        let beta2 = float("beta2")?;
        let eps = float("eps")?;
        let t: u64 = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or("bad adam step count")?;
        let n: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or("bad adam moment count")?;
        // Sized by the fields present, never by the count: the text has
        // to back every moment it claims.
        let mut moments = it
            .map(|s| s.parse().map_err(|_| "bad adam moment"))
            .collect::<Result<Vec<f64>, _>>()?;
        match n.checked_mul(2) {
            Some(len) if len == moments.len() => {}
            Some(len) if len < moments.len() => {
                return Err("trailing fields in adam text".to_owned())
            }
            _ => return Err("missing adam moment".to_owned()),
        }
        if !lr.is_finite() || lr <= 0.0 {
            return Err("adam learning rate must be positive".to_owned());
        }
        let v = moments.split_off(n);
        Ok(Self {
            lr,
            beta1,
            beta2,
            eps,
            t,
            m: moments,
            v,
        })
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
    fn adam_text_round_trips_and_resumes_identically() {
        // Train a few steps, serialize, keep training both the original and
        // the restored copy: they must stay bit-identical.
        let mut net = Mlp::new(&[2, 4, 1], 7);
        let mut adam = Adam::new(&net, 0.01);
        let batch = [([0.1, -0.4], 0.3), ([0.9, 0.2], -1.1)];
        let pass = |net: &mut Mlp, adam: &mut Adam| {
            net.zero_grad();
            for &(x, t) in &batch {
                let cache = net.forward(&x);
                let d = cache.output()[0] - t;
                net.backward(&cache, &[d]);
            }
            adam.step(net, batch.len());
        };
        for _ in 0..5 {
            pass(&mut net, &mut adam);
        }
        let text = adam.to_text();
        let mut restored = Adam::from_text(&text).expect("parses");
        assert_eq!(restored, adam);
        assert_eq!(restored.to_text(), text, "serialization is stable");
        let mut net2 = net.clone();
        for _ in 0..5 {
            pass(&mut net, &mut adam);
            pass(&mut net2, &mut restored);
        }
        assert_eq!(restored, adam, "restored optimizer diverged");
        let (mut a, mut b) = (Vec::new(), Vec::new());
        net.visit_params_mut(|_, w, _| a.push(*w));
        net2.visit_params_mut(|_, w, _| b.push(*w));
        assert_eq!(a, b, "networks diverged after restore");
    }

    #[test]
    fn adam_text_rejects_malformed() {
        assert!(Adam::from_text("").is_err());
        assert!(Adam::from_text("sgd 0.1").is_err());
        assert!(Adam::from_text("adam 0.1 0.9 0.999 1e-8 3 2 0.0 0.0 0.0").is_err());
        assert!(Adam::from_text("adam nope 0.9 0.999 1e-8 0 0").is_err());
        assert!(Adam::from_text("adam -0.1 0.9 0.999 1e-8 0 0").is_err());
        let net = Mlp::new(&[1, 1], 0);
        let adam = Adam::new(&net, 0.01);
        let trailing = format!("{} 9.9", adam.to_text().trim_end());
        assert!(Adam::from_text(&trailing).is_err());
    }

    #[test]
    fn adam_text_refuses_counts_the_text_does_not_back() {
        for n in ["100000000000", "18446744073709551615"] {
            let text = format!("adam 0.001 0.9 0.999 1e-8 1 {n} 0.0 0.0");
            assert!(Adam::from_text(&text).is_err(), "moment count {n}");
        }
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
