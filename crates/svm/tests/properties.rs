//! Property-based tests for the SVM stack.

use mobirescue_svm::{train, ConfusionMatrix, Kernel, SmoConfig, StandardScaler};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Kernels are symmetric and RBF is bounded in (0, 1].
    #[test]
    fn kernel_properties(
        x in prop::collection::vec(-10.0f64..10.0, 3),
        y in prop::collection::vec(-10.0f64..10.0, 3),
        gamma in 0.01f64..5.0,
    ) {
        for k in [Kernel::Linear, Kernel::Rbf { gamma }] {
            prop_assert!((k.eval(&x, &y) - k.eval(&y, &x)).abs() < 1e-9);
        }
        let rbf = Kernel::Rbf { gamma };
        // exp underflows to exactly 0.0 at extreme distances, so the lower
        // bound is inclusive.
        let v = rbf.eval(&x, &y);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&v));
        prop_assert!((rbf.eval(&x, &x) - 1.0).abs() < 1e-12);
    }

    /// The scaler's output is exactly invertible information: transform is
    /// affine, so ordering along each axis is preserved.
    #[test]
    fn scaler_preserves_order(
        rows in prop::collection::vec(prop::collection::vec(-100.0f64..100.0, 2), 3..20),
        probe_a in -100.0f64..100.0,
        probe_b in -100.0f64..100.0,
    ) {
        let scaler = StandardScaler::fit(&rows);
        let a = scaler.transform(&[probe_a, 0.0]);
        let b = scaler.transform(&[probe_b, 0.0]);
        prop_assert_eq!(probe_a < probe_b, a[0] < b[0]);
    }

    /// Training on well-separated clusters always classifies the cluster
    /// centers correctly, regardless of sample layout.
    #[test]
    fn separable_clusters_are_learned(
        seed in 0u64..50,
        offsets in prop::collection::vec(-0.5f64..0.5, 16),
    ) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (i, off) in offsets.iter().enumerate() {
            let label = if i % 2 == 0 { 1.0 } else { -1.0 };
            xs.push(vec![3.0 * label + off, 3.0 * label - off]);
            ys.push(label);
        }
        let cfg = SmoConfig { seed, ..SmoConfig::default() };
        let model = train(&xs, &ys, Kernel::Rbf { gamma: 0.5 }, &cfg);
        prop_assert!(model.predict(&[3.0, 3.0]));
        prop_assert!(!model.predict(&[-3.0, -3.0]));
    }

    /// Confusion-matrix metrics stay in [0, 1] and accuracy decomposes.
    #[test]
    fn confusion_metrics_bounded(
        pairs in prop::collection::vec((any::<bool>(), any::<bool>()), 1..60),
    ) {
        let m = ConfusionMatrix::from_predictions(pairs.clone());
        prop_assert_eq!(m.total(), pairs.len());
        for metric in [m.accuracy(), m.precision(), m.recall(), m.f1()].into_iter().flatten() {
            prop_assert!((0.0..=1.0).contains(&metric));
        }
        if let Some(acc) = m.accuracy() {
            let expect = pairs.iter().filter(|(p, a)| p == a).count() as f64 / pairs.len() as f64;
            prop_assert!((acc - expect).abs() < 1e-12);
        }
    }
}
