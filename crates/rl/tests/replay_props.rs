//! Property tests for the replay ring the DQN learns from: FIFO-exact
//! bounded eviction and in-bounds reproducible sampling.

use mobirescue_rl::{PairReplay, PairTransition};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A transition tagged with its push index, so eviction order is
/// observable through the reward field.
fn tagged(i: usize, salt: u64) -> PairTransition {
    let x = (i as f64) + (salt as f64) * 1e-6;
    PairTransition {
        features: vec![x, -x, x * 0.5],
        reward: i as f64,
        next_candidates: if i.is_multiple_of(3) {
            Vec::new()
        } else {
            vec![vec![x, 1.0], vec![0.25, x]]
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The ring holds exactly the last `capacity` pushes, no matter how
    /// many arrive: everything older is evicted, everything newer kept.
    #[test]
    fn eviction_is_fifo_exact(capacity in 1usize..32, pushes in 0usize..96, salt in 0u64..1000) {
        let mut ring = PairReplay::new(capacity);
        for i in 0..pushes {
            ring.push(tagged(i, salt));
        }
        prop_assert_eq!(ring.len(), pushes.min(capacity));
        let mut kept: Vec<usize> = ring.items().iter().map(|t| t.reward as usize).collect();
        kept.sort_unstable();
        let expected: Vec<usize> = (pushes.saturating_sub(capacity)..pushes).collect();
        prop_assert_eq!(kept, expected, "the survivors must be exactly the newest pushes");
    }

    /// Sampling only ever returns stored transitions, and the same seed
    /// reproduces the same draw sequence through the vendored rand shim.
    #[test]
    fn sampling_is_in_bounds_and_seed_reproducible(
        capacity in 1usize..32,
        pushes in 1usize..96,
        k in 1usize..64,
        seed in 0u64..1_000_000,
    ) {
        let mut ring = PairReplay::new(capacity);
        for i in 0..pushes {
            ring.push(tagged(i, seed));
        }
        let stored_lo = pushes.saturating_sub(capacity) as f64;
        let stored_hi = (pushes - 1) as f64;
        let mut a = StdRng::seed_from_u64(seed);
        let sample: Vec<f64> = ring.sample(&mut a, k).iter().map(|t| t.reward).collect();
        prop_assert_eq!(sample.len(), k);
        for r in &sample {
            prop_assert!(
                (stored_lo..=stored_hi).contains(r),
                "sampled a transition ({r}) that is not in the ring"
            );
        }
        let mut b = StdRng::seed_from_u64(seed);
        let again: Vec<f64> = ring.sample(&mut b, k).iter().map(|t| t.reward).collect();
        prop_assert_eq!(sample, again, "same seed must reproduce the sample");
    }
}
