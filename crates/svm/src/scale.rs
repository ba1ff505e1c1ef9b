//! Feature standardization.
//!
//! The disaster factors live on wildly different scales (mm/h, mph, meters);
//! SMO convergence and RBF width both want z-scored features.

use serde::{Deserialize, Serialize};

/// Per-feature z-score scaler: `x' = (x − μ) / σ`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StandardScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl StandardScaler {
    /// Fits the scaler to rows of equal dimension. Constant features get
    /// `σ = 1` so they pass through centered.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or rows differ in dimension.
    pub fn fit(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "cannot fit a scaler to zero rows");
        let dim = rows[0].len();
        assert!(
            rows.iter().all(|r| r.len() == dim),
            "rows differ in dimension"
        );
        let n = rows.len() as f64;
        let mut means = vec![0.0; dim];
        for r in rows {
            for (m, x) in means.iter_mut().zip(r) {
                *m += x / n;
            }
        }
        let mut stds = vec![0.0; dim];
        for r in rows {
            for ((s, m), x) in stds.iter_mut().zip(&means).zip(r) {
                *s += (x - m) * (x - m) / n;
            }
        }
        for s in &mut stds {
            *s = s.sqrt();
            if *s < 1e-12 {
                *s = 1.0;
            }
        }
        Self { means, stds }
    }

    /// Dimension the scaler was fitted on.
    pub fn dim(&self) -> usize {
        self.means.len()
    }

    /// Scales one row.
    ///
    /// # Panics
    ///
    /// Panics if `row` has the wrong dimension.
    pub fn transform(&self, row: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.dim());
        self.transform_into(row, &mut out);
        out
    }

    /// Scales one row into a caller-owned buffer (cleared first), so hot
    /// loops can standardize millions of rows without allocating per call.
    ///
    /// # Panics
    ///
    /// Panics if `row` has the wrong dimension.
    pub fn transform_into(&self, row: &[f64], out: &mut Vec<f64>) {
        assert_eq!(row.len(), self.dim(), "row has wrong dimension");
        out.clear();
        out.extend(
            row.iter()
                .zip(self.means.iter().zip(&self.stds))
                .map(|(x, (m, s))| (x - m) / s),
        );
    }

    /// Appends the scaled row to a flat, row-major buffer (stride =
    /// [`StandardScaler::dim`]) — the batch layout
    /// [`crate::SvmModel::decision_batch`] consumes.
    ///
    /// # Panics
    ///
    /// Panics if `row` has the wrong dimension.
    pub fn transform_append(&self, row: &[f64], out: &mut Vec<f64>) {
        assert_eq!(row.len(), self.dim(), "row has wrong dimension");
        out.extend(
            row.iter()
                .zip(self.means.iter().zip(&self.stds))
                .map(|(x, (m, s))| (x - m) / s),
        );
    }

    /// Scales many rows.
    pub fn transform_all(&self, rows: &[Vec<f64>]) -> Vec<Vec<f64>> {
        rows.iter().map(|r| self.transform(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_features_have_zero_mean_unit_std() {
        let rows = vec![
            vec![10.0, 100.0],
            vec![20.0, 300.0],
            vec![30.0, 200.0],
            vec![40.0, 400.0],
        ];
        let scaler = StandardScaler::fit(&rows);
        let scaled = scaler.transform_all(&rows);
        for d in 0..2 {
            let mean: f64 = scaled.iter().map(|r| r[d]).sum::<f64>() / 4.0;
            let var: f64 = scaled.iter().map(|r| r[d] * r[d]).sum::<f64>() / 4.0;
            assert!(mean.abs() < 1e-12);
            assert!((var - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn constant_feature_passes_through_centered() {
        let rows = vec![vec![5.0], vec![5.0], vec![5.0]];
        let scaler = StandardScaler::fit(&rows);
        assert_eq!(scaler.transform(&[5.0]), vec![0.0]);
        assert_eq!(scaler.transform(&[7.0]), vec![2.0]);
    }

    #[test]
    fn buffered_transforms_match_the_allocating_path() {
        let rows = vec![vec![10.0, 100.0], vec![20.0, 300.0], vec![30.0, 200.0]];
        let scaler = StandardScaler::fit(&rows);
        let mut buf = Vec::new();
        let mut flat = Vec::new();
        for r in &rows {
            scaler.transform_into(r, &mut buf);
            assert_eq!(buf, scaler.transform(r));
            scaler.transform_append(r, &mut flat);
        }
        assert_eq!(flat.len(), rows.len() * scaler.dim());
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(&flat[i * 2..i * 2 + 2], scaler.transform(r).as_slice());
        }
    }

    #[test]
    #[should_panic(expected = "zero rows")]
    fn empty_fit_panics() {
        let _ = StandardScaler::fit(&[]);
    }

    #[test]
    #[should_panic(expected = "wrong dimension")]
    fn wrong_dim_transform_panics() {
        let scaler = StandardScaler::fit(&[vec![1.0, 2.0]]);
        let _ = scaler.transform(&[1.0]);
    }
}
