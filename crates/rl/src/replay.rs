//! Experience replay ring.
//!
//! Section IV-C4: the RL model is *kept training online* while running.
//! The online trainer feeds the dispatcher's tapped transitions through
//! this bounded ring and samples its mini-batches from it.

use crate::qscore::PairTransition;
use rand::rngs::StdRng;
use rand::RngExt;
use std::fmt::Write as _;

/// A bounded FIFO replay ring over [`PairTransition`]s — the pairwise
/// (candidate-feature) transition form the online dispatcher emits — with
/// uniform sampling and an exact text round-trip for snapshot persistence.
/// Append until full, then overwrite the oldest slot.
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

    /// The ring cursor (next slot to overwrite once full).
    pub fn cursor(&self) -> usize {
        self.next
    }

    /// Rebuilds a ring from parts, e.g. after a snapshot restore.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`, `items.len() > capacity`, or the cursor
    /// is out of range.
    pub fn from_parts(capacity: usize, items: Vec<PairTransition>, cursor: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(items.len() <= capacity, "more items than capacity");
        assert!(cursor < capacity, "cursor out of range");
        Self {
            capacity,
            items,
            next: cursor,
        }
    }

    /// Serializes the ring as line-oriented text: a header line
    /// `pairreplay <capacity> <len> <cursor>` followed by one
    /// [`pair_to_line`] line per stored transition. Floats use `{:?}` so
    /// the round-trip is bit-exact.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "pairreplay {} {} {}\n",
            self.capacity,
            self.items.len(),
            self.next
        );
        for t in &self.items {
            out.push_str(&pair_to_line(t));
            out.push('\n');
        }
        out
    }

    /// Parses [`PairReplay::to_text`] output.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line on malformed input.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty pairreplay text")?;
        let mut it = header.split_whitespace();
        if it.next() != Some("pairreplay") {
            return Err(format!("bad pairreplay header: {header:?}"));
        }
        let capacity: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad pairreplay capacity: {header:?}"))?;
        let len: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad pairreplay length: {header:?}"))?;
        let cursor: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad pairreplay cursor: {header:?}"))?;
        if it.next().is_some() {
            return Err(format!("trailing fields in pairreplay header: {header:?}"));
        }
        if capacity == 0 || len > capacity || cursor >= capacity {
            return Err(format!("inconsistent pairreplay header: {header:?}"));
        }
        let mut items = Vec::new();
        for _ in 0..len {
            let line = lines.next().ok_or("pairreplay text ends early")?;
            items.push(
                pair_from_line(line).ok_or_else(|| format!("bad pairreplay line: {line:?}"))?,
            );
        }
        if lines.next().is_some() {
            return Err("trailing lines after pairreplay items".to_owned());
        }
        Ok(Self {
            capacity,
            items,
            next: cursor,
        })
    }
}

/// One-line text form of a [`PairTransition`]:
/// `<reward> <dim> f... <ncand> (<dim> c...)*`, floats in `{:?}` form so
/// parsing them back is bit-exact.
pub fn pair_to_line(t: &PairTransition) -> String {
    let mut out = format!("{:?} {}", t.reward, t.features.len());
    for f in &t.features {
        let _ = write!(out, " {f:?}");
    }
    let _ = write!(out, " {}", t.next_candidates.len());
    for c in &t.next_candidates {
        let _ = write!(out, " {}", c.len());
        for f in c {
            let _ = write!(out, " {f:?}");
        }
    }
    out
}

/// Parses [`pair_to_line`] output; `None` on any malformed field. No
/// buffer is sized from a count: a count the line's fields do not back
/// fails at the first missing field.
pub fn pair_from_line(line: &str) -> Option<PairTransition> {
    let mut it = line.split_whitespace();
    let reward: f64 = it.next()?.parse().ok()?;
    let dim: usize = it.next()?.parse().ok()?;
    let mut features = Vec::new();
    for _ in 0..dim {
        features.push(it.next()?.parse().ok()?);
    }
    let ncand: usize = it.next()?.parse().ok()?;
    let mut next_candidates = Vec::new();
    for _ in 0..ncand {
        let clen: usize = it.next()?.parse().ok()?;
        let mut cand = Vec::new();
        for _ in 0..clen {
            cand.push(it.next()?.parse().ok()?);
        }
        next_candidates.push(cand);
    }
    it.next().is_none().then_some(PairTransition {
        features,
        reward,
        next_candidates,
    })
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
    fn pair_text_round_trips_bit_exact() {
        let mut ring = PairReplay::new(4);
        for i in 0..6 {
            ring.push(p(i as f64 + 0.1));
        }
        ring.push(PairTransition {
            features: vec![f64::MIN_POSITIVE, -0.0],
            reward: 1e-300,
            next_candidates: Vec::new(),
        });
        let text = ring.to_text();
        let back = PairReplay::from_text(&text).expect("parses");
        assert_eq!(back, ring);
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn pair_text_rejects_malformed() {
        assert!(PairReplay::from_text("").is_err());
        assert!(PairReplay::from_text("replay 4 0 0").is_err());
        assert!(PairReplay::from_text("pairreplay 4 2 0\n1.0 1 2.0 0").is_err());
        assert!(PairReplay::from_text("pairreplay 4 1 0\n1.0 1 2.0 nope").is_err());
        assert!(PairReplay::from_text("pairreplay 0 0 0").is_err());
        assert!(PairReplay::from_text("pairreplay 2 3 0").is_err());
    }

    #[test]
    fn counts_the_text_does_not_back_are_refused() {
        for n in ["100000000000", "18446744073709551615"] {
            for line in [
                format!("1.0 {n} 2.0 0"),
                format!("1.0 1 2.0 {n} 1 3.0"),
                format!("1.0 1 2.0 1 {n} 3.0"),
            ] {
                assert!(pair_from_line(&line).is_none(), "{line}");
            }
            let header = format!("pairreplay {n} {n} 0\n1.0 1 2.0 0");
            assert!(PairReplay::from_text(&header).is_err(), "{header}");
        }
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
