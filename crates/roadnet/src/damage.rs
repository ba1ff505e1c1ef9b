//! Flood damage applied to the road network.
//!
//! The paper obtains the *remaining available road network*
//! G̃ = (Ẽ, Ṽ) from satellite imaging: segments inside flood zones are
//! impassable, and segments in wet-but-passable areas are slowed. A
//! [`NetworkCondition`] captures this per-segment state and implements
//! [`TravelCost`] so routing automatically respects G̃.

use crate::graph::{RoadNetwork, RoadSegment, SegmentId};
use crate::routing::TravelCost;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Generation reserved for the static free-flow cost model (never assigned
/// to a [`NetworkCondition`]).
pub(crate) const FREE_FLOW_GENERATION: u64 = 0;

/// Process-wide generation counter. Every [`NetworkCondition`] value with
/// distinct contents carries a distinct generation: a fresh one is drawn at
/// construction and after every mutation, so cached cost snapshots keyed by
/// generation (see [`crate::planner::RoutePlanner`]) can never be stale.
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(FREE_FLOW_GENERATION + 1);

fn fresh_generation() -> u64 {
    NEXT_GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// Condition of a single road segment under the current disaster state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SegmentCondition {
    /// Whether the segment is passable at all (member of Ẽ).
    pub operable: bool,
    /// Multiplier on the free-flow speed in `(0, 1]`; `1.0` means dry.
    pub speed_factor: f64,
}

impl Default for SegmentCondition {
    fn default() -> Self {
        Self {
            operable: true,
            speed_factor: 1.0,
        }
    }
}

/// Per-segment condition of the whole network: the concrete representation of
/// G̃ plus flood-related slowdowns.
///
/// # Examples
///
/// ```
/// use mobirescue_roadnet::geo::GeoPoint;
/// use mobirescue_roadnet::graph::{RoadClass, RoadNetwork};
/// use mobirescue_roadnet::damage::NetworkCondition;
/// use mobirescue_roadnet::routing::{Router, TravelCost};
///
/// let mut net = RoadNetwork::new();
/// let a = net.add_landmark(GeoPoint::new(35.00, -80.00));
/// let b = net.add_landmark(GeoPoint::new(35.01, -80.00));
/// let (ab, _) = net.add_two_way(a, b, RoadClass::Residential);
///
/// let mut cond = NetworkCondition::pristine(&net);
/// cond.block(ab);
/// assert!(Router::new(&net).shortest_path(&cond, a, b).is_none());
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NetworkCondition {
    conditions: Vec<SegmentCondition>,
    /// Cache-invalidation tag: process-unique for these contents. A clone
    /// shares its source's generation (same contents, same cached costs);
    /// every mutation draws a fresh one.
    generation: u64,
}

impl PartialEq for NetworkCondition {
    fn eq(&self, other: &Self) -> bool {
        // The generation is a cache tag, not part of the condition's value:
        // two independently built but identical conditions are equal.
        self.conditions == other.conditions
    }
}

impl NetworkCondition {
    /// Every segment passable at full speed (the pre-disaster network).
    pub fn pristine(net: &RoadNetwork) -> Self {
        Self {
            conditions: vec![SegmentCondition::default(); net.num_segments()],
            generation: fresh_generation(),
        }
    }

    /// `num_segments` segments, pristine except for `changes`, which set
    /// whole segment conditions in the order given. Draws one generation
    /// however many segments change.
    ///
    /// # Panics
    ///
    /// Panics if a segment is out of range or a speed factor is not in
    /// `(0, 1]`.
    pub fn from_changes(
        num_segments: usize,
        changes: impl IntoIterator<Item = (SegmentId, SegmentCondition)>,
    ) -> Self {
        let mut conditions = vec![SegmentCondition::default(); num_segments];
        for (seg, c) in changes {
            assert!(
                c.speed_factor > 0.0 && c.speed_factor <= 1.0,
                "speed factor must be in (0, 1], got {}",
                c.speed_factor
            );
            conditions[seg.index()] = c;
        }
        Self {
            conditions,
            generation: fresh_generation(),
        }
    }

    /// The condition's cost generation: a process-unique tag shared only by
    /// clones with identical contents. [`crate::planner::RoutePlanner`]
    /// keys its per-epoch cost snapshots and shortest-path cache on this,
    /// so any damage event (block/unblock/slowdown) automatically
    /// invalidates every cached route derived from the old state.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of segments tracked.
    pub fn len(&self) -> usize {
        self.conditions.len()
    }

    /// Whether the condition tracks zero segments.
    pub fn is_empty(&self) -> bool {
        self.conditions.is_empty()
    }

    /// Condition of a segment.
    ///
    /// # Panics
    ///
    /// Panics if `seg` is out of range.
    pub fn condition(&self, seg: SegmentId) -> SegmentCondition {
        self.conditions[seg.index()]
    }

    /// Marks `seg` impassable (removes it from Ẽ).
    ///
    /// # Panics
    ///
    /// Panics if `seg` is out of range.
    pub fn block(&mut self, seg: SegmentId) {
        self.conditions[seg.index()].operable = false;
        self.generation = fresh_generation();
    }

    /// Restores `seg` to passable (keeping its speed factor).
    ///
    /// # Panics
    ///
    /// Panics if `seg` is out of range.
    pub fn unblock(&mut self, seg: SegmentId) {
        self.conditions[seg.index()].operable = true;
        self.generation = fresh_generation();
    }

    /// Sets the speed multiplier of `seg`.
    ///
    /// # Panics
    ///
    /// Panics if `seg` is out of range or `factor` is not in `(0, 1]`.
    pub fn set_speed_factor(&mut self, seg: SegmentId, factor: f64) {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "speed factor must be in (0, 1], got {factor}"
        );
        self.conditions[seg.index()].speed_factor = factor;
        self.generation = fresh_generation();
    }

    /// Whether `seg` is passable.
    ///
    /// # Panics
    ///
    /// Panics if `seg` is out of range.
    pub fn is_operable(&self, seg: SegmentId) -> bool {
        self.conditions[seg.index()].operable
    }

    /// Number of passable segments `|Ẽ|`.
    pub fn operable_count(&self) -> usize {
        self.conditions.iter().filter(|c| c.operable).count()
    }

    /// Ids of all passable segments.
    pub fn operable_segments(&self) -> impl Iterator<Item = SegmentId> + '_ {
        self.conditions
            .iter()
            .enumerate()
            .filter(|(_, c)| c.operable)
            .map(|(i, _)| SegmentId(i as u32))
    }
}

impl TravelCost for NetworkCondition {
    fn travel_time_s(&self, seg: &RoadSegment) -> Option<f64> {
        let c = self.conditions[seg.id.index()];
        c.operable.then(|| seg.free_flow_time_s() / c.speed_factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::GeoPoint;
    use crate::graph::RoadClass;
    use crate::routing::{FreeFlow, Router};

    fn line() -> (RoadNetwork, Vec<SegmentId>) {
        let mut net = RoadNetwork::new();
        let mut prev = net.add_landmark(GeoPoint::new(35.0, -80.0));
        let mut fwd = Vec::new();
        for i in 1..4 {
            let next = net.add_landmark(GeoPoint::new(35.0 + 0.01 * i as f64, -80.0));
            let (f, _) = net.add_two_way(prev, next, RoadClass::Residential);
            fwd.push(f);
            prev = next;
        }
        (net, fwd)
    }

    #[test]
    fn pristine_matches_free_flow() {
        let (net, _) = line();
        let cond = NetworkCondition::pristine(&net);
        for seg in net.segments() {
            assert_eq!(cond.travel_time_s(seg), FreeFlow.travel_time_s(seg));
        }
        assert_eq!(cond.operable_count(), net.num_segments());
    }

    #[test]
    fn blocked_segment_is_impassable() {
        let (net, fwd) = line();
        let mut cond = NetworkCondition::pristine(&net);
        cond.block(fwd[1]);
        assert!(!cond.is_operable(fwd[1]));
        assert_eq!(cond.operable_count(), net.num_segments() - 1);
        assert!(cond.travel_time_s(net.segment(fwd[1])).is_none());
        // The line has no detour, so routing across the cut fails.
        let router = Router::new(&net);
        let a = net.segment(fwd[0]).from;
        let d = net.segment(fwd[2]).to;
        assert!(router.shortest_path(&cond, a, d).is_none());
        cond.unblock(fwd[1]);
        assert!(router.shortest_path(&cond, a, d).is_some());
    }

    #[test]
    fn speed_factor_slows_travel() {
        let (net, fwd) = line();
        let mut cond = NetworkCondition::pristine(&net);
        let seg = net.segment(fwd[0]);
        let base = cond.travel_time_s(seg).unwrap();
        cond.set_speed_factor(fwd[0], 0.5);
        assert!((cond.travel_time_s(seg).unwrap() - 2.0 * base).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "speed factor")]
    fn zero_speed_factor_rejected() {
        let (net, fwd) = line();
        let mut cond = NetworkCondition::pristine(&net);
        cond.set_speed_factor(fwd[0], 0.0);
    }

    #[test]
    fn generation_tracks_every_mutation() {
        let (net, fwd) = line();
        let mut a = NetworkCondition::pristine(&net);
        let b = NetworkCondition::pristine(&net);
        // Distinct values never share a generation, even when equal.
        assert_eq!(a, b);
        assert_ne!(a.generation(), b.generation());
        // A clone shares contents and generation until either mutates.
        let c = a.clone();
        assert_eq!(c.generation(), a.generation());
        let before = a.generation();
        a.block(fwd[0]);
        assert_ne!(a.generation(), before);
        assert_eq!(c.generation(), before);
        let blocked = a.generation();
        a.unblock(fwd[0]);
        assert_ne!(a.generation(), blocked);
        let unblocked = a.generation();
        a.set_speed_factor(fwd[0], 0.5);
        assert_ne!(a.generation(), unblocked);
        // Equality ignores the tag: a is back to operable but slowed.
        assert_ne!(a, c);
    }

    #[test]
    fn from_changes_equals_the_mutated_pristine() {
        let (net, fwd) = line();
        let mut mutated = NetworkCondition::pristine(&net);
        mutated.block(fwd[0]);
        mutated.set_speed_factor(fwd[2], 0.5);
        let slowed = SegmentCondition {
            operable: true,
            speed_factor: 0.5,
        };
        let blocked = SegmentCondition {
            operable: false,
            speed_factor: 1.0,
        };
        let built = NetworkCondition::from_changes(
            net.num_segments(),
            [(fwd[0], blocked), (fwd[2], slowed)],
        );
        assert_eq!(built, mutated);
        assert_ne!(built.generation(), mutated.generation());
        assert_eq!(
            NetworkCondition::from_changes(net.num_segments(), []),
            NetworkCondition::pristine(&net)
        );
    }

    #[test]
    #[should_panic(expected = "speed factor")]
    fn from_changes_rejects_a_zero_speed_factor() {
        let (net, fwd) = line();
        let stopped = SegmentCondition {
            operable: true,
            speed_factor: 0.0,
        };
        let _ = NetworkCondition::from_changes(net.num_segments(), [(fwd[0], stopped)]);
    }

    #[test]
    fn operable_segments_iterates_unblocked() {
        let (net, fwd) = line();
        let mut cond = NetworkCondition::pristine(&net);
        cond.block(fwd[0]);
        let ids: Vec<_> = cond.operable_segments().collect();
        assert_eq!(ids.len(), net.num_segments() - 1);
        assert!(!ids.contains(&fwd[0]));
    }
}
