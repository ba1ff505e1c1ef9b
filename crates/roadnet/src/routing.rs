//! Shortest-path routing on the road network.
//!
//! The paper routes rescue teams with "an existing routing algorithm (e.g.,
//! the Dijkstra algorithm)" over the *remaining available* road network G̃.
//! Routing here is therefore parameterized by a [`TravelCost`]: the pristine
//! network uses [`FreeFlow`], while a flood-damaged network supplies a
//! [`crate::damage::NetworkCondition`] that blocks inundated segments and
//! slows wet ones.

use crate::graph::{LandmarkId, RoadNetwork, RoadSegment, SegmentId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Per-segment travel cost model.
///
/// Returning `None` marks the segment as impassable (removed from G̃).
pub trait TravelCost {
    /// Travel time over `seg` in seconds, or `None` if the segment is
    /// impassable.
    fn travel_time_s(&self, seg: &RoadSegment) -> Option<f64>;
}

/// Free-flow travel cost: every segment is passable at its speed limit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FreeFlow;

impl TravelCost for FreeFlow {
    fn travel_time_s(&self, seg: &RoadSegment) -> Option<f64> {
        Some(seg.free_flow_time_s())
    }
}

impl<T: TravelCost + ?Sized> TravelCost for &T {
    fn travel_time_s(&self, seg: &RoadSegment) -> Option<f64> {
        (**self).travel_time_s(seg)
    }
}

/// A shortest driving route between two landmarks.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    /// Road segments in driving order (`Φ_kj` in the paper). Empty when the
    /// origin equals the destination.
    pub segments: Vec<SegmentId>,
    /// Landmarks visited, starting at the origin and ending at the
    /// destination (always at least one element).
    pub landmarks: Vec<LandmarkId>,
    /// Total driving delay in seconds (`t_kj = Σ l_e / v_e`).
    pub travel_time_s: f64,
    /// Total length in meters.
    pub length_m: f64,
}

/// Min-heap entry shared by the naive Dijkstra here and the CSR variant in
/// [`crate::csr`] — identical ordering (cost, then node id) is part of the
/// exact-equivalence contract between the two implementations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct HeapEntry {
    pub(crate) cost: f64,
    pub(crate) node: u32,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on cost; costs are finite and never NaN.
        other
            .cost
            .partial_cmp(&self.cost)
            .expect("travel costs are never NaN")
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Result of a single-source shortest-path run.
#[derive(Debug, Clone)]
pub struct ShortestPaths {
    // Written in place by the CSR search's workspace ([`crate::csr`]).
    pub(crate) source: LandmarkId,
    pub(crate) dist: Vec<f64>,
    pub(crate) prev_seg: Vec<Option<SegmentId>>,
}

impl ShortestPaths {
    /// The source landmark of this run.
    pub fn source(&self) -> LandmarkId {
        self.source
    }

    /// Travel time in seconds from the source to `to`, or `None` when
    /// unreachable.
    pub fn travel_time_s(&self, to: LandmarkId) -> Option<f64> {
        let d = self.dist[to.index()];
        d.is_finite().then_some(d)
    }

    /// All travel times, `f64::INFINITY` marking unreachable landmarks.
    pub fn travel_times(&self) -> &[f64] {
        &self.dist
    }

    /// Reconstructs the route from the source to `to`, or `None` when
    /// unreachable.
    ///
    /// Every call walks the predecessor chain once — O(route length) — to
    /// assemble the segment list, the landmark list, and `length_m` in a
    /// single pass; there is no cheaper way to produce the segments, and
    /// `length_m` rides along for free. Callers that only need the travel
    /// time must use [`ShortestPaths::travel_time_s`] (O(1)) instead of
    /// reconstructing a route.
    pub fn route_to(&self, net: &RoadNetwork, to: LandmarkId) -> Option<Route> {
        if !self.dist[to.index()].is_finite() {
            return None;
        }
        let mut segments = Vec::new();
        let mut landmarks = vec![to];
        let mut length_m = 0.0;
        let mut cur = to;
        while let Some(sid) = self.prev_seg[cur.index()] {
            debug_assert!(segments.len() < self.dist.len(), "predecessor cycle");
            let seg = net.segment(sid);
            segments.push(sid);
            length_m += seg.length_m;
            cur = seg.from;
            landmarks.push(cur);
        }
        segments.reverse();
        landmarks.reverse();
        debug_assert_eq!(landmarks[0], self.source);
        Some(Route {
            segments,
            landmarks,
            travel_time_s: self.dist[to.index()],
            length_m,
        })
    }
}

/// Dijkstra router over a [`RoadNetwork`].
///
/// # Examples
///
/// ```
/// use mobirescue_roadnet::geo::GeoPoint;
/// use mobirescue_roadnet::graph::{RoadClass, RoadNetwork};
/// use mobirescue_roadnet::routing::{FreeFlow, Router};
///
/// let mut net = RoadNetwork::new();
/// let a = net.add_landmark(GeoPoint::new(35.00, -80.00));
/// let b = net.add_landmark(GeoPoint::new(35.01, -80.00));
/// let c = net.add_landmark(GeoPoint::new(35.02, -80.00));
/// net.add_two_way(a, b, RoadClass::Residential);
/// net.add_two_way(b, c, RoadClass::Residential);
///
/// let route = Router::new(&net).shortest_path(&FreeFlow, a, c).unwrap();
/// assert_eq!(route.landmarks, vec![a, b, c]);
/// assert!(route.travel_time_s > 0.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Router<'a> {
    net: &'a RoadNetwork,
}

impl<'a> Router<'a> {
    /// Creates a router over `net`.
    pub fn new(net: &'a RoadNetwork) -> Self {
        Self { net }
    }

    /// The underlying network.
    pub fn network(&self) -> &'a RoadNetwork {
        self.net
    }

    /// Single-source Dijkstra under `cost`, optionally stopping early once
    /// `goal` is settled.
    fn dijkstra<C: TravelCost>(
        &self,
        cost: &C,
        from: LandmarkId,
        goal: Option<LandmarkId>,
    ) -> ShortestPaths {
        let n = self.net.num_landmarks();
        assert!(from.index() < n, "unknown landmark {from}");
        let mut dist = vec![f64::INFINITY; n];
        let mut prev_seg: Vec<Option<SegmentId>> = vec![None; n];
        let mut settled = vec![false; n];
        let mut heap = BinaryHeap::new();
        dist[from.index()] = 0.0;
        heap.push(HeapEntry {
            cost: 0.0,
            node: from.0,
        });
        while let Some(HeapEntry { cost: d, node }) = heap.pop() {
            let u = LandmarkId(node);
            if settled[u.index()] {
                continue;
            }
            settled[u.index()] = true;
            if goal == Some(u) {
                break;
            }
            for &sid in self.net.out_segments(u) {
                let seg = self.net.segment(sid);
                let Some(w) = cost.travel_time_s(seg) else {
                    continue;
                };
                debug_assert!(w >= 0.0, "negative travel time on {sid}");
                let nd = d + w;
                if nd < dist[seg.to.index()] {
                    dist[seg.to.index()] = nd;
                    prev_seg[seg.to.index()] = Some(sid);
                    heap.push(HeapEntry {
                        cost: nd,
                        node: seg.to.0,
                    });
                }
            }
        }
        ShortestPaths {
            source: from,
            dist,
            prev_seg,
        }
    }

    /// Shortest-path tree from `from` to every landmark.
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of range.
    pub fn shortest_paths_from<C: TravelCost>(&self, cost: &C, from: LandmarkId) -> ShortestPaths {
        self.dijkstra(cost, from, None)
    }

    /// Shortest route from `from` to `to`, or `None` when unreachable under
    /// `cost`.
    ///
    /// # Panics
    ///
    /// Panics if either landmark is out of range.
    pub fn shortest_path<C: TravelCost>(
        &self,
        cost: &C,
        from: LandmarkId,
        to: LandmarkId,
    ) -> Option<Route> {
        assert!(
            to.index() < self.net.num_landmarks(),
            "unknown landmark {to}"
        );
        self.dijkstra(cost, from, Some(to)).route_to(self.net, to)
    }

    /// Among `targets`, the one with the least travel time from `from`.
    /// Returns `(index into targets, travel time)`, or `None` when no target
    /// is reachable (or `targets` is empty).
    pub fn nearest_target<C: TravelCost>(
        &self,
        cost: &C,
        from: LandmarkId,
        targets: &[LandmarkId],
    ) -> Option<(usize, f64)> {
        let sp = self.shortest_paths_from(cost, from);
        targets
            .iter()
            .enumerate()
            .filter_map(|(i, &t)| sp.travel_time_s(t).map(|d| (i, d)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("travel times are never NaN"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::GeoPoint;
    use crate::graph::RoadClass;

    /// 3x3 grid of residential streets, 1 km spacing.
    fn grid3() -> (RoadNetwork, Vec<LandmarkId>) {
        let mut net = RoadNetwork::new();
        let origin = GeoPoint::new(35.0, -80.0);
        let mut ids = Vec::new();
        for r in 0..3 {
            for c in 0..3 {
                ids.push(net.add_landmark(origin.offset_m(c as f64 * 1000.0, r as f64 * 1000.0)));
            }
        }
        for r in 0..3 {
            for c in 0..3 {
                let i = r * 3 + c;
                if c + 1 < 3 {
                    net.add_two_way(ids[i], ids[i + 1], RoadClass::Residential);
                }
                if r + 1 < 3 {
                    net.add_two_way(ids[i], ids[i + 3], RoadClass::Residential);
                }
            }
        }
        (net, ids)
    }

    #[test]
    fn manhattan_route_on_grid() {
        let (net, ids) = grid3();
        let route = Router::new(&net)
            .shortest_path(&FreeFlow, ids[0], ids[8])
            .unwrap();
        assert_eq!(route.segments.len(), 4, "two east + two north hops");
        assert!(
            (route.length_m - 4000.0).abs() < 5.0,
            "got {}",
            route.length_m
        );
        let expect_t = route.length_m / RoadClass::Residential.speed_limit_mps();
        assert!((route.travel_time_s - expect_t).abs() < 1e-6);
    }

    #[test]
    fn route_to_self_is_empty() {
        let (net, ids) = grid3();
        let route = Router::new(&net)
            .shortest_path(&FreeFlow, ids[4], ids[4])
            .unwrap();
        assert!(route.segments.is_empty());
        assert_eq!(route.landmarks, vec![ids[4]]);
        assert_eq!(route.travel_time_s, 0.0);
    }

    #[test]
    fn route_segments_are_contiguous() {
        let (net, ids) = grid3();
        let route = Router::new(&net)
            .shortest_path(&FreeFlow, ids[2], ids[6])
            .unwrap();
        let mut cur = ids[2];
        for &sid in &route.segments {
            let seg = net.segment(sid);
            assert_eq!(seg.from, cur);
            cur = seg.to;
        }
        assert_eq!(cur, ids[6]);
    }

    #[test]
    fn blocked_segments_force_detour() {
        struct BlockMiddleRow;
        impl TravelCost for BlockMiddleRow {
            fn travel_time_s(&self, seg: &RoadSegment) -> Option<f64> {
                // Block every segment touching the center landmark (index 4).
                if seg.from.0 == 4 || seg.to.0 == 4 {
                    None
                } else {
                    Some(seg.free_flow_time_s())
                }
            }
        }
        let (net, ids) = grid3();
        let router = Router::new(&net);
        let direct = router.shortest_path(&FreeFlow, ids[3], ids[5]).unwrap();
        let detour = router
            .shortest_path(&BlockMiddleRow, ids[3], ids[5])
            .unwrap();
        assert!(detour.travel_time_s > direct.travel_time_s);
        assert!(detour.landmarks.iter().all(|&lm| lm != ids[4]));
    }

    #[test]
    fn unreachable_returns_none() {
        let mut net = RoadNetwork::new();
        let a = net.add_landmark(GeoPoint::new(35.0, -80.0));
        let b = net.add_landmark(GeoPoint::new(35.1, -80.0));
        // One-way from a to b only.
        net.add_segment(a, b, RoadClass::Residential);
        let router = Router::new(&net);
        assert!(router.shortest_path(&FreeFlow, a, b).is_some());
        assert!(router.shortest_path(&FreeFlow, b, a).is_none());
    }

    #[test]
    fn nearest_target_picks_closest_reachable() {
        let (net, ids) = grid3();
        let router = Router::new(&net);
        let targets = [ids[8], ids[1]];
        let (idx, t) = router.nearest_target(&FreeFlow, ids[0], &targets).unwrap();
        assert_eq!(idx, 1);
        assert!((t - 1000.0 / RoadClass::Residential.speed_limit_mps()).abs() < 1e-6);
        assert!(router.nearest_target(&FreeFlow, ids[0], &[]).is_none());
    }

    #[test]
    fn shortest_paths_satisfy_triangle_inequality() {
        let (net, ids) = grid3();
        let router = Router::new(&net);
        let from_0 = router.shortest_paths_from(&FreeFlow, ids[0]);
        for &mid in &ids {
            let from_mid = router.shortest_paths_from(&FreeFlow, mid);
            for &to in &ids {
                let direct = from_0.travel_time_s(to).unwrap();
                let via = from_0.travel_time_s(mid).unwrap() + from_mid.travel_time_s(to).unwrap();
                assert!(direct <= via + 1e-9, "d({to}) {direct} > via {mid} {via}");
            }
        }
    }

    #[test]
    fn point_query_early_exit_stops_at_goal() {
        use std::cell::Cell;
        // Counts edge-cost evaluations: one per relaxation attempt, so a
        // run that settles fewer nodes evaluates strictly fewer edges.
        struct Counting<'a>(&'a Cell<usize>);
        impl TravelCost for Counting<'_> {
            fn travel_time_s(&self, seg: &RoadSegment) -> Option<f64> {
                self.0.set(self.0.get() + 1);
                Some(seg.free_flow_time_s())
            }
        }
        let (net, ids) = grid3();
        let router = Router::new(&net);
        let calls = Cell::new(0);
        router.shortest_paths_from(&Counting(&calls), ids[0]);
        let full = calls.get();
        assert_eq!(full, net.num_segments(), "full tree relaxes every edge");
        calls.set(0);
        // Goal adjacent to the source: the query must stop after settling
        // the goal, far short of exhausting the graph.
        router.shortest_path(&Counting(&calls), ids[0], ids[1]);
        let early = calls.get();
        assert!(
            early < full / 2,
            "early exit evaluated {early} of {full} edges"
        );
    }

    #[test]
    fn early_exit_matches_full_run() {
        let (net, ids) = grid3();
        let router = Router::new(&net);
        let full = router.shortest_paths_from(&FreeFlow, ids[0]);
        for &to in &ids {
            let r = router.shortest_path(&FreeFlow, ids[0], to).unwrap();
            assert!((r.travel_time_s - full.travel_time_s(to).unwrap()).abs() < 1e-9);
        }
    }
}
