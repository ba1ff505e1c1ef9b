//! Property-based tests for the RL substrate.

use mobirescue_rl::nn::{BatchScratch, Mlp};
use mobirescue_rl::qscore::{QScore, QScoreConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Gradient check on arbitrary small architectures and inputs.
    #[test]
    fn backprop_matches_finite_differences(
        seed in 0u64..500,
        hidden in 2usize..6,
        x in prop::collection::vec(-2.0f64..2.0, 3),
    ) {
        let mut mlp = Mlp::new(&[3, hidden, 1], seed);
        let target = 0.7;
        let cache = mlp.forward(&x);
        let err = cache.output()[0] - target;
        mlp.zero_grad();
        mlp.backward(&cache, &[err]);
        let mut grads = Vec::new();
        mlp.visit_params_mut(|_, _, g| grads.push(g));
        let loss = |m: &Mlp| {
            let y = m.predict(&x)[0];
            0.5 * (y - target) * (y - target)
        };
        let eps = 1e-6;
        for k in (0..grads.len()).step_by(5) {
            let mut plus = mlp.clone();
            plus.visit_params_mut(|i, w, _| if i == k { *w += eps });
            let mut minus = mlp.clone();
            minus.visit_params_mut(|i, w, _| if i == k { *w -= eps });
            let numeric = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            prop_assert!((numeric - grads[k]).abs() < 1e-4,
                "param {k}: numeric {numeric} vs analytic {}", grads[k]);
        }
    }

    /// QScore's greedy choice is consistent with its own Q values and
    /// breaks ties as the per-candidate `max_by` it replaced did: the last
    /// maximum wins.
    #[test]
    fn qscore_best_is_argmax(
        seed in 0u64..100,
        candidates in prop::collection::vec(prop::collection::vec(-1.0f64..1.0, 3), 1..10),
        dups in prop::collection::vec((0usize..64, 0usize..64), 0..4),
        top_at in 0usize..64,
    ) {
        let mut cfg = QScoreConfig::new(3);
        cfg.seed = seed;
        let q = QScore::new(cfg);
        // The pre-batching rule, kept as the reference.
        let reference = |rows: &[Vec<f64>]| {
            rows.iter()
                .enumerate()
                .max_by(|a, b| q.q(a.1).partial_cmp(&q.q(b.1)).expect("finite"))
                .map(|(i, _)| i)
                .expect("non-empty")
        };
        // Duplicated rows score identically, so ties are certain; one
        // copy of a top row makes the tie land on the maximum.
        let mut candidates = candidates;
        for (from, at) in dups {
            let row = candidates[from % candidates.len()].clone();
            candidates.insert(at % (candidates.len() + 1), row);
        }
        let top = candidates[reference(&candidates)].clone();
        candidates.insert(top_at % (candidates.len() + 1), top);

        let best = q.best(&candidates);
        prop_assert_eq!(best, reference(&candidates));
        let best_q = q.q(&candidates[best]);
        for c in &candidates {
            prop_assert!(q.q(c) <= best_q + 1e-12);
        }
    }

    /// The batched forward pass is bit-identical, row by row, to
    /// `predict` and to the training path's `forward` on each row alone,
    /// signed zeros included.
    #[test]
    fn batched_scores_match_predict_bitwise(
        seed in 0u64..200,
        input in 1usize..9,
        hidden in prop::collection::vec(1usize..41, 0..4),
        out_dim in 1usize..4,
        scale in -3.0f64..3.0,
        shift in (any::<bool>(), -1.0f64..1.0),
        rows in prop::collection::vec(prop::collection::vec((0u8..4, -2.0f64..2.0), 8), 1..201),
    ) {
        let mut dims = vec![input];
        dims.extend_from_slice(&hidden);
        dims.push(out_dim);
        let mut net = Mlp::new(&dims, seed);
        // Biases start at zero, where a signed-zero slip shows; the shift
        // moves them off zero in half the cases, where the order of the
        // bias addition shows.
        let shift = if shift.0 { shift.1 } else { 0.0 };
        net.visit_params_mut(|i, w, _| *w = (*w + shift) * scale * (i as f64 + 0.5));
        let rows: Vec<Vec<f64>> = rows
            .iter()
            .map(|row| {
                row[..input]
                    .iter()
                    .map(|&(kind, x)| match kind {
                        0 => 0.0,
                        1 => -0.0,
                        _ => x,
                    })
                    .collect()
            })
            .collect();
        let mut scratch = BatchScratch::default();
        let batch = net.predict_batch(&rows, &mut scratch).to_vec();
        prop_assert_eq!(batch.len(), rows.len() * out_dim);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (row, got) in rows.iter().zip(batch.chunks_exact(out_dim)) {
            prop_assert_eq!(bits(got), bits(&net.predict(row)));
            prop_assert_eq!(bits(got), bits(net.forward(row).output()));
        }
        // Reusing the scratch for a smaller batch leaves no stale rows.
        let again = net.predict_batch(&rows[..1], &mut scratch);
        prop_assert_eq!(bits(again), bits(&batch[..out_dim]));
    }
}
