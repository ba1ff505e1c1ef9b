//! The directed road-network graph `G = (V, E)`.
//!
//! Following the paper (Section III-A), vertices are *landmarks*
//! (intersections or turning points) and edges are *road segments*. The graph
//! is directed; two-way streets are represented by a pair of opposite
//! segments.

use crate::geo::{BoundingBox, GeoPoint};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a landmark (graph vertex).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct LandmarkId(pub u32);

/// Identifier of a road segment (directed graph edge).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct SegmentId(pub u32);

impl LandmarkId {
    /// The landmark's index into [`RoadNetwork`] storage.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl SegmentId {
    /// The segment's index into [`RoadNetwork`] storage.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LandmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

impl fmt::Display for SegmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "E{}", self.0)
    }
}

/// Functional class of a road, determining its free-flow speed limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RoadClass {
    /// Limited-access highway (~65 mph).
    Motorway,
    /// Major urban artery (~40 mph).
    Arterial,
    /// Local/residential street (~25 mph).
    Residential,
}

impl RoadClass {
    /// Free-flow speed limit in meters per second.
    pub fn speed_limit_mps(self) -> f64 {
        match self {
            RoadClass::Motorway => 29.0,
            RoadClass::Arterial => 18.0,
            RoadClass::Residential => 11.0,
        }
    }
}

/// A landmark: an intersection or turning point in the road network.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Landmark {
    /// The landmark's identifier (equals its index in the network).
    pub id: LandmarkId,
    /// Geographic position.
    pub position: GeoPoint,
}

/// A directed road segment between two landmarks.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoadSegment {
    /// The segment's identifier (equals its index in the network).
    pub id: SegmentId,
    /// Tail landmark.
    pub from: LandmarkId,
    /// Head landmark.
    pub to: LandmarkId,
    /// Length in meters.
    pub length_m: f64,
    /// Functional class (determines the speed limit).
    pub class: RoadClass,
}

impl RoadSegment {
    /// Free-flow travel time in seconds (`l_e / v_e` in the paper's
    /// driving-delay formula).
    pub fn free_flow_time_s(&self) -> f64 {
        self.length_m / self.class.speed_limit_mps()
    }
}

/// The directed road network `G = (V, E)`.
///
/// # Examples
///
/// ```
/// use mobirescue_roadnet::geo::GeoPoint;
/// use mobirescue_roadnet::graph::{RoadClass, RoadNetwork};
///
/// let mut net = RoadNetwork::new();
/// let a = net.add_landmark(GeoPoint::new(35.0, -80.0));
/// let b = net.add_landmark(GeoPoint::new(35.01, -80.0));
/// let (ab, ba) = net.add_two_way(a, b, RoadClass::Residential);
/// assert_eq!(net.segment(ab).from, a);
/// assert_eq!(net.segment(ba).from, b);
/// assert_eq!(net.out_segments(a), &[ab]);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RoadNetwork {
    landmarks: Vec<Landmark>,
    segments: Vec<RoadSegment>,
    out: Vec<Vec<SegmentId>>,
    inc: Vec<Vec<SegmentId>>,
}

impl RoadNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of landmarks `|V|`.
    pub fn num_landmarks(&self) -> usize {
        self.landmarks.len()
    }

    /// Number of directed segments `|E|`.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Adds a landmark at `position` and returns its id.
    pub fn add_landmark(&mut self, position: GeoPoint) -> LandmarkId {
        let id = LandmarkId(self.landmarks.len() as u32);
        self.landmarks.push(Landmark { id, position });
        self.out.push(Vec::new());
        self.inc.push(Vec::new());
        id
    }

    /// Adds a directed segment from `from` to `to` with the haversine length
    /// between the endpoints, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if either landmark id is out of range or if `from == to`
    /// (self-loops carry no routing meaning).
    pub fn add_segment(&mut self, from: LandmarkId, to: LandmarkId, class: RoadClass) -> SegmentId {
        assert!(
            from.index() < self.landmarks.len(),
            "unknown landmark {from}"
        );
        assert!(to.index() < self.landmarks.len(), "unknown landmark {to}");
        assert_ne!(from, to, "self-loop segments are not allowed");
        let length_m = self.landmarks[from.index()]
            .position
            .distance_m(self.landmarks[to.index()].position);
        let id = SegmentId(self.segments.len() as u32);
        self.segments.push(RoadSegment {
            id,
            from,
            to,
            length_m,
            class,
        });
        self.out[from.index()].push(id);
        self.inc[to.index()].push(id);
        id
    }

    /// Adds a pair of opposite segments (a two-way street) and returns both
    /// ids as `(forward, backward)`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`RoadNetwork::add_segment`].
    pub fn add_two_way(
        &mut self,
        a: LandmarkId,
        b: LandmarkId,
        class: RoadClass,
    ) -> (SegmentId, SegmentId) {
        (self.add_segment(a, b, class), self.add_segment(b, a, class))
    }

    /// The landmark with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn landmark(&self, id: LandmarkId) -> &Landmark {
        &self.landmarks[id.index()]
    }

    /// The segment with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn segment(&self, id: SegmentId) -> &RoadSegment {
        &self.segments[id.index()]
    }

    /// Segments leaving `lm`.
    pub fn out_segments(&self, lm: LandmarkId) -> &[SegmentId] {
        &self.out[lm.index()]
    }

    /// Segments arriving at `lm`.
    pub fn in_segments(&self, lm: LandmarkId) -> &[SegmentId] {
        &self.inc[lm.index()]
    }

    /// Iterator over all landmarks.
    pub fn landmarks(&self) -> impl Iterator<Item = &Landmark> + '_ {
        self.landmarks.iter()
    }

    /// Iterator over all segments.
    pub fn segments(&self) -> impl Iterator<Item = &RoadSegment> + '_ {
        self.segments.iter()
    }

    /// Iterator over all landmark ids.
    pub fn landmark_ids(&self) -> impl Iterator<Item = LandmarkId> {
        (0..self.landmarks.len() as u32).map(LandmarkId)
    }

    /// Iterator over all segment ids.
    pub fn segment_ids(&self) -> impl Iterator<Item = SegmentId> {
        (0..self.segments.len() as u32).map(SegmentId)
    }

    /// Geographic midpoint of a segment, used to attach weather/flood state
    /// and to map-match GPS points.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn segment_midpoint(&self, id: SegmentId) -> GeoPoint {
        let seg = self.segment(id);
        self.landmark(seg.from)
            .position
            .midpoint(self.landmark(seg.to).position)
    }

    /// The landmark nearest to `p` (linear scan), or `None` for an empty
    /// network.
    pub fn nearest_landmark(&self, p: GeoPoint) -> Option<LandmarkId> {
        self.landmarks
            .iter()
            .min_by(|a, b| {
                a.position
                    .distance_m(p)
                    .partial_cmp(&b.position.distance_m(p))
                    .expect("distances are never NaN")
            })
            .map(|lm| lm.id)
    }

    /// The segment whose midpoint is nearest to `p`, or `None` for a network
    /// without segments.
    pub fn nearest_segment(&self, p: GeoPoint) -> Option<SegmentId> {
        self.segments
            .iter()
            .min_by(|a, b| {
                let da = self
                    .landmark(a.from)
                    .position
                    .midpoint(self.landmark(a.to).position);
                let db = self
                    .landmark(b.from)
                    .position
                    .midpoint(self.landmark(b.to).position);
                da.distance_m(p)
                    .partial_cmp(&db.distance_m(p))
                    .expect("distances are never NaN")
            })
            .map(|s| s.id)
    }

    /// Bounding box of all landmarks, or `None` for an empty network.
    pub fn bounding_box(&self) -> Option<BoundingBox> {
        BoundingBox::enclosing(self.landmarks.iter().map(|lm| lm.position))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> (RoadNetwork, [LandmarkId; 3]) {
        let mut net = RoadNetwork::new();
        let a = net.add_landmark(GeoPoint::new(35.00, -80.00));
        let b = net.add_landmark(GeoPoint::new(35.01, -80.00));
        let c = net.add_landmark(GeoPoint::new(35.00, -80.01));
        net.add_two_way(a, b, RoadClass::Residential);
        net.add_two_way(b, c, RoadClass::Arterial);
        net.add_two_way(c, a, RoadClass::Motorway);
        (net, [a, b, c])
    }

    #[test]
    fn counts_match_construction() {
        let (net, _) = triangle();
        assert_eq!(net.num_landmarks(), 3);
        assert_eq!(net.num_segments(), 6);
    }

    #[test]
    fn adjacency_is_consistent() {
        let (net, [a, b, c]) = triangle();
        for lm in [a, b, c] {
            assert_eq!(net.out_segments(lm).len(), 2);
            assert_eq!(net.in_segments(lm).len(), 2);
            for &sid in net.out_segments(lm) {
                assert_eq!(net.segment(sid).from, lm);
            }
            for &sid in net.in_segments(lm) {
                assert_eq!(net.segment(sid).to, lm);
            }
        }
    }

    #[test]
    fn segment_length_matches_haversine() {
        let (net, [a, b, _]) = triangle();
        let seg = net.segment(net.out_segments(a)[0]);
        let expect = net
            .landmark(a)
            .position
            .distance_m(net.landmark(b).position);
        assert!((seg.length_m - expect).abs() < 1e-9);
    }

    #[test]
    fn free_flow_time_uses_class_speed() {
        let (net, _) = triangle();
        for seg in net.segments() {
            let t = seg.free_flow_time_s();
            assert!((t - seg.length_m / seg.class.speed_limit_mps()).abs() < 1e-12);
            assert!(t > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let mut net = RoadNetwork::new();
        let a = net.add_landmark(GeoPoint::new(35.0, -80.0));
        net.add_segment(a, a, RoadClass::Residential);
    }

    #[test]
    #[should_panic(expected = "unknown landmark")]
    fn out_of_range_landmark_rejected() {
        let mut net = RoadNetwork::new();
        let a = net.add_landmark(GeoPoint::new(35.0, -80.0));
        net.add_segment(a, LandmarkId(99), RoadClass::Residential);
    }

    #[test]
    fn nearest_landmark_and_segment() {
        let (net, [a, _, c]) = triangle();
        let near_a = net.landmark(a).position.offset_m(10.0, 10.0);
        assert_eq!(net.nearest_landmark(near_a), Some(a));
        let mid_ca = net
            .landmark(c)
            .position
            .midpoint(net.landmark(a).position)
            .offset_m(1.0, 1.0);
        let seg = net.segment(net.nearest_segment(mid_ca).unwrap());
        assert!(
            (seg.from == c && seg.to == a) || (seg.from == a && seg.to == c),
            "matched {seg:?}"
        );
    }

    #[test]
    fn empty_network_queries() {
        let net = RoadNetwork::new();
        assert!(net.nearest_landmark(GeoPoint::new(0.0, 0.0)).is_none());
        assert!(net.nearest_segment(GeoPoint::new(0.0, 0.0)).is_none());
        assert!(net.bounding_box().is_none());
    }

    #[test]
    fn speed_limits_are_ordered() {
        assert!(
            RoadClass::Motorway.speed_limit_mps() > RoadClass::Arterial.speed_limit_mps()
                && RoadClass::Arterial.speed_limit_mps() > RoadClass::Residential.speed_limit_mps()
        );
    }
}
