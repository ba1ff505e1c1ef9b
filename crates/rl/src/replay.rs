//! Experience replay ring.
//!
//! Section IV-C4: the RL model is *kept training online* while running.
//! [`crate::QScore`] stores the dispatcher's transitions in this bounded
//! ring and samples its mini-batches from it.

use crate::qscore::PairTransition;
use rand::rngs::StdRng;
use rand::RngExt;

/// A bounded FIFO replay ring over [`PairTransition`]s — the pairwise
/// (candidate-feature) transition form the online dispatcher emits — with
/// uniform sampling. Append until full, then overwrite the oldest slot.
#[derive(Debug, Clone, PartialEq)]
pub struct PairReplay {
    capacity: usize,
    items: Vec<PairTransition>,
    next: usize,
}

impl PairReplay {
    /// Creates a ring holding at most `capacity` transitions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            capacity,
            items: Vec::new(),
            next: 0,
        }
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Maximum number of transitions retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts a transition, evicting the oldest once full.
    pub fn push(&mut self, t: PairTransition) {
        if self.items.len() < self.capacity {
            self.items.push(t);
        } else {
            self.items[self.next] = t;
            self.next = (self.next + 1) % self.capacity;
        }
    }

    /// Uniformly samples `k` transitions (with replacement).
    ///
    /// # Panics
    ///
    /// Panics if the ring is empty or `k == 0`.
    pub fn sample<'a>(&'a self, rng: &mut StdRng, k: usize) -> Vec<&'a PairTransition> {
        assert!(!self.items.is_empty(), "cannot sample an empty buffer");
        assert!(k > 0, "sample size must be positive");
        (0..k)
            .map(|_| &self.items[rng.random_range(0..self.items.len())])
            .collect()
    }

    /// The stored transitions, in slot order.
    pub fn items(&self) -> &[PairTransition] {
        &self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn p(r: f64) -> PairTransition {
        PairTransition {
            features: vec![r, r + 0.5],
            reward: r,
            next_candidates: vec![vec![r, 0.0], vec![1.0 / 3.0, r]],
        }
    }

    #[test]
    fn pair_ring_evicts_fifo() {
        let mut ring = PairReplay::new(3);
        for i in 0..5 {
            ring.push(p(i as f64));
        }
        assert_eq!(ring.len(), 3);
        let rewards: Vec<f64> = ring.items().iter().map(|t| t.reward).collect();
        assert!(rewards.contains(&2.0) && rewards.contains(&3.0) && rewards.contains(&4.0));
        assert!(!rewards.contains(&0.0) && !rewards.contains(&1.0));
    }

    #[test]
    fn pair_sampling_stays_in_bounds_and_reproduces() {
        let mut ring = PairReplay::new(8);
        for i in 0..8 {
            ring.push(p(i as f64));
        }
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        let sa: Vec<f64> = ring.sample(&mut a, 64).iter().map(|t| t.reward).collect();
        let sb: Vec<f64> = ring.sample(&mut b, 64).iter().map(|t| t.reward).collect();
        assert_eq!(sa, sb, "same seed must sample identically");
        assert!(sa.iter().all(|r| (0.0..8.0).contains(r)));
    }
}
