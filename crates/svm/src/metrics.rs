//! Binary-classification metrics.
//!
//! The paper evaluates prediction with accuracy `(TP+TN)/(TP+TN+FP+FN)` and
//! precision `TP/(TP+FP)` per road segment (Figures 15–16); the
//! [`ConfusionMatrix`] carries all four counters.

use serde::{Deserialize, Serialize};

/// Counts of true/false positives/negatives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ConfusionMatrix {
    /// People correctly predicted as sending rescue requests.
    pub tp: usize,
    /// People incorrectly predicted as sending rescue requests.
    pub fp: usize,
    /// People correctly predicted as not sending requests.
    pub tn: usize,
    /// People incorrectly predicted as not sending requests.
    pub fn_: usize,
}

impl ConfusionMatrix {
    /// Builds the matrix from `(predicted, actual)` pairs.
    pub fn from_predictions<I: IntoIterator<Item = (bool, bool)>>(pairs: I) -> Self {
        let mut m = Self::default();
        for (pred, actual) in pairs {
            m.record(pred, actual);
        }
        m
    }

    /// Records one prediction.
    pub fn record(&mut self, predicted: bool, actual: bool) {
        match (predicted, actual) {
            (true, true) => self.tp += 1,
            (true, false) => self.fp += 1,
            (false, false) => self.tn += 1,
            (false, true) => self.fn_ += 1,
        }
    }

    /// Total predictions recorded.
    pub fn total(&self) -> usize {
        self.tp + self.fp + self.tn + self.fn_
    }

    /// `(TP+TN) / total`, or `None` when empty.
    pub fn accuracy(&self) -> Option<f64> {
        (self.total() > 0).then(|| (self.tp + self.tn) as f64 / self.total() as f64)
    }

    /// `TP / (TP+FP)`, or `None` when nothing was predicted positive.
    pub fn precision(&self) -> Option<f64> {
        (self.tp + self.fp > 0).then(|| self.tp as f64 / (self.tp + self.fp) as f64)
    }

    /// `TP / (TP+FN)`, or `None` when there are no actual positives.
    pub fn recall(&self) -> Option<f64> {
        (self.tp + self.fn_ > 0).then(|| self.tp as f64 / (self.tp + self.fn_) as f64)
    }

    /// Harmonic mean of precision and recall, or `None` when undefined.
    pub fn f1(&self) -> Option<f64> {
        let p = self.precision()?;
        let r = self.recall()?;
        (p + r > 0.0).then(|| 2.0 * p * r / (p + r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_metrics() {
        let m = ConfusionMatrix::from_predictions([
            (true, true),
            (true, true),
            (true, false),
            (false, false),
            (false, false),
            (false, true),
        ]);
        assert_eq!((m.tp, m.fp, m.tn, m.fn_), (2, 1, 2, 1));
        assert_eq!(m.total(), 6);
        assert!((m.accuracy().unwrap() - 4.0 / 6.0).abs() < 1e-12);
        assert!((m.precision().unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.recall().unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.f1().unwrap() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn undefined_metrics_are_none() {
        let empty = ConfusionMatrix::default();
        assert!(empty.accuracy().is_none());
        assert!(empty.precision().is_none());
        assert!(empty.recall().is_none());
        let all_neg = ConfusionMatrix::from_predictions([(false, false)]);
        assert!(all_neg.precision().is_none());
        assert!(all_neg.recall().is_none());
        assert_eq!(all_neg.accuracy(), Some(1.0));
    }
}
