//! Exact latency accounting: raw integer samples and nearest-rank
//! percentiles.
//!
//! Nothing here buckets. Every timed operation keeps its raw microsecond
//! reading, so a percentile is one of the measured values, never a
//! bucket bound.

/// Percentiles considered for a sample set's reported tail, highest
/// first.
const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// A tail percentile is reported only when at least this many samples
/// lie beyond it; fewer would make it the reading of a handful of
/// outliers.
pub const MIN_BEYOND: usize = 10;

/// Raw samples of one timed quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<u64>,
    sorted: bool,
}

impl Samples {
    /// An empty sample set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn push(&mut self, v: u64) {
        self.values.push(v);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_unstable();
            self.sorted = true;
        }
    }

    /// The nearest-rank `p`-th percentile (`0 < p <= 100`): the smallest
    /// sample such that at least `p`% of samples are at or below it. 0
    /// when empty.
    pub fn percentile(&mut self, p: f64) -> u64 {
        if self.values.is_empty() {
            return 0;
        }
        self.sort();
        self.values[nearest_rank(p, self.values.len()) - 1]
    }

    /// The median (nearest rank).
    pub fn median(&mut self) -> u64 {
        self.percentile(50.0)
    }

    /// The highest of p99.9, p99, p95, p90 and p75 with at least
    /// [`MIN_BEYOND`] samples beyond it, as `(p, value)`; `None` when
    /// there are too few samples for any of them.
    pub fn tail(&mut self) -> Option<(f64, u64)> {
        let n = self.values.len();
        let p = TAIL_CANDIDATES
            .into_iter()
            .find(|&p| n - nearest_rank(p, n).min(n) >= MIN_BEYOND)?;
        Some((p, self.percentile(p)))
    }

    /// One human-readable line: median, the reported tail with its
    /// percentile, and the sample count, in `scale`-divided units.
    pub fn describe(&mut self, scale: f64, unit: &str) -> String {
        let n = self.len();
        let p50 = self.median() as f64 / scale;
        match self.tail() {
            Some((p, v)) => format!(
                "p50 {p50:.3} {unit}, p{p} {:.3} {unit} (n={n})",
                v as f64 / scale
            ),
            None => format!("p50 {p50:.3} {unit} (n={n}, too few samples for a tail)"),
        }
    }
}

impl FromIterator<u64> for Samples {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        Self {
            values: iter.into_iter().collect(),
            sorted: false,
        }
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples:
/// `ceil(p/100 · n)`, clamped to `1..=n`.
fn nearest_rank(p: f64, n: usize) -> usize {
    // The epsilon keeps float error in `p/100 · n` (99.9% of 20,000 is
    // 19,980.000000000004) from bumping an exact rank up by one.
    let rank = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    rank.clamp(1, n.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: u64) -> Samples {
        // Out of order: percentiles must not depend on it.
        (1..=n).rev().collect()
    }

    #[test]
    fn nearest_rank_percentiles_are_measured_values() {
        let mut s = one_to(100);
        assert_eq!(s.median(), 50);
        assert_eq!(s.percentile(90.0), 90);
        assert_eq!(s.percentile(99.0), 99);
        assert_eq!(s.percentile(99.9), 100);
        assert_eq!(s.percentile(100.0), 100);
        assert_eq!(s.percentile(0.1), 1);
        let mut odd = one_to(5);
        assert_eq!(odd.median(), 3);
        let mut one = one_to(1);
        assert_eq!((one.median(), one.percentile(99.9)), (1, 1));
        assert_eq!(Samples::new().median(), 0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(one_to(100).tail(), Some((90.0, 90)));
        assert_eq!(one_to(1_000).tail(), Some((99.0, 990)));
        assert_eq!(one_to(20_000).tail(), Some((99.9, 19_980)));
        assert_eq!(one_to(40).tail(), Some((75.0, 30)));
        assert_eq!(one_to(19).tail(), None);
    }
}
