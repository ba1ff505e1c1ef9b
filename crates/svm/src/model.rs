//! The trained SVM model (Equation 1's `f`).

use crate::kernel::Kernel;
use serde::{Deserialize, Serialize};

/// A trained soft-margin SVM classifier.
///
/// Stores only the support vectors with their `αᵢ yᵢ` coefficients and the
/// bias; the decision function is
/// `f(x) = Σ αᵢ yᵢ K(xᵢ, x) + b`, predicting the positive class ("should be
/// rescued") when `f(x) > 0`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SvmModel {
    kernel: Kernel,
    support_vectors: Vec<Vec<f64>>,
    /// `αᵢ yᵢ` for each support vector.
    coefficients: Vec<f64>,
    bias: f64,
}

impl SvmModel {
    /// Assembles a model from trained parameters (used by the SMO trainer).
    ///
    /// # Panics
    ///
    /// Panics if the vector and coefficient counts differ.
    pub fn from_parts(
        kernel: Kernel,
        support_vectors: Vec<Vec<f64>>,
        coefficients: Vec<f64>,
        bias: f64,
    ) -> Self {
        assert_eq!(
            support_vectors.len(),
            coefficients.len(),
            "one coefficient per support vector"
        );
        Self {
            kernel,
            support_vectors,
            coefficients,
            bias,
        }
    }

    /// Number of support vectors retained.
    pub fn num_support_vectors(&self) -> usize {
        self.support_vectors.len()
    }

    /// The raw decision value `f(x)`; its sign is the class.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong dimension.
    pub fn decision_function(&self, x: &[f64]) -> f64 {
        self.support_vectors
            .iter()
            .zip(&self.coefficients)
            .map(|(sv, c)| c * self.kernel.eval(sv, x))
            .sum::<f64>()
            + self.bias
    }

    /// Predicts the class: `true` = positive ("should be rescued").
    pub fn predict(&self, x: &[f64]) -> bool {
        self.decision_function(x) > 0.0
    }

    /// Decision values for a flat, row-major batch of `dim`-wide rows,
    /// written into a caller-owned buffer (cleared first). One call per
    /// epoch replaces per-row calls in inference hot loops; each row's
    /// arithmetic is identical to [`SvmModel::decision_function`], so the
    /// results are bit-equal to the scalar path.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero or `rows.len()` is not a multiple of `dim`.
    pub fn decision_batch(&self, rows: &[f64], dim: usize, out: &mut Vec<f64>) {
        assert!(dim > 0, "batch rows must have positive dimension");
        assert_eq!(
            rows.len() % dim,
            0,
            "flat batch length must be a multiple of dim"
        );
        out.clear();
        out.reserve(rows.len() / dim);
        out.extend(rows.chunks_exact(dim).map(|x| self.decision_function(x)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hand_built_model_classifies() {
        // A single support vector at the origin with positive coefficient:
        // RBF decision decays with distance but stays positive; bias shifts
        // the boundary.
        let model = SvmModel::from_parts(
            Kernel::Rbf { gamma: 1.0 },
            vec![vec![0.0, 0.0]],
            vec![2.0],
            -1.0,
        );
        assert!(model.predict(&[0.0, 0.0]));
        assert!(!model.predict(&[3.0, 0.0]));
        assert_eq!(model.num_support_vectors(), 1);
    }

    #[test]
    fn decision_function_is_linear_in_coefficients() {
        let sv = vec![vec![1.0], vec![-1.0]];
        let m1 = SvmModel::from_parts(Kernel::Linear, sv.clone(), vec![1.0, -1.0], 0.0);
        // f(x) = 1*(1*x) + (-1)*(-1*x) = 2x
        assert!((m1.decision_function(&[3.0]) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn batched_decisions_equal_scalar_decisions() {
        let model = SvmModel::from_parts(
            Kernel::Rbf { gamma: 0.7 },
            vec![vec![0.0, 1.0], vec![2.0, -1.0]],
            vec![1.5, -0.5],
            0.25,
        );
        let rows = [[0.0, 0.0], [1.0, 1.0], [2.0, -1.0], [-3.0, 4.0]];
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        let mut out = vec![99.0; 1]; // stale contents must be discarded
        model.decision_batch(&flat, 2, &mut out);
        assert_eq!(out.len(), rows.len());
        for (row, &d) in rows.iter().zip(&out) {
            assert_eq!(d, model.decision_function(row));
        }
    }

    #[test]
    #[should_panic(expected = "multiple of dim")]
    fn ragged_batch_panics() {
        let model = SvmModel::from_parts(Kernel::Linear, vec![vec![1.0]], vec![1.0], 0.0);
        let mut out = Vec::new();
        model.decision_batch(&[1.0, 2.0, 3.0], 2, &mut out);
    }

    #[test]
    #[should_panic(expected = "one coefficient per support vector")]
    fn mismatched_parts_panic() {
        let _ = SvmModel::from_parts(Kernel::Linear, vec![vec![1.0]], vec![], 0.0);
    }
}
