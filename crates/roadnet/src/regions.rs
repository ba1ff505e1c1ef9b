//! Region partition of the city.
//!
//! The paper partitions Charlotte into the 7 City Council districts
//! (Figure 1) and reports per-region weather factors and flow rates. Here a
//! [`RegionPartition`] assigns every landmark to a region; a segment belongs
//! to the region of its tail landmark.

use crate::graph::{LandmarkId, RoadNetwork, SegmentId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a region (0-based; the paper's "Region 3" is `RegionId(2)`).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct RegionId(pub u8);

impl RegionId {
    /// The region's index into partition storage.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Human-facing 1-based label matching the paper's figures ("Region 3").
    pub fn label(self) -> u8 {
        self.0 + 1
    }
}

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Region {}", self.label())
    }
}

/// Assignment of every landmark (and hence every segment) to a region.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegionPartition {
    num_regions: usize,
    of_landmark: Vec<RegionId>,
    of_segment: Vec<RegionId>,
}

impl RegionPartition {
    /// Builds a partition from a per-landmark assignment.
    ///
    /// # Panics
    ///
    /// Panics if `of_landmark` does not cover every landmark of `net`, if
    /// `num_regions == 0`, or if an assignment is out of range.
    pub fn new(net: &RoadNetwork, num_regions: usize, of_landmark: Vec<RegionId>) -> Self {
        assert!(num_regions > 0, "need at least one region");
        assert_eq!(
            of_landmark.len(),
            net.num_landmarks(),
            "assignment must cover every landmark"
        );
        assert!(
            of_landmark.iter().all(|r| r.index() < num_regions),
            "region id out of range"
        );
        let of_segment = net
            .segments()
            .map(|seg| of_landmark[seg.from.index()])
            .collect();
        Self {
            num_regions,
            of_landmark,
            of_segment,
        }
    }

    /// Number of regions in the partition.
    pub fn num_regions(&self) -> usize {
        self.num_regions
    }

    /// Iterator over all region ids.
    pub fn region_ids(&self) -> impl Iterator<Item = RegionId> {
        (0..self.num_regions as u8).map(RegionId)
    }

    /// Region of a landmark.
    ///
    /// # Panics
    ///
    /// Panics if `lm` is out of range.
    pub fn of_landmark(&self, lm: LandmarkId) -> RegionId {
        self.of_landmark[lm.index()]
    }

    /// Region of a segment (the region of its tail landmark).
    ///
    /// # Panics
    ///
    /// Panics if `seg` is out of range.
    pub fn of_segment(&self, seg: SegmentId) -> RegionId {
        self.of_segment[seg.index()]
    }

    /// All segments belonging to `region`.
    pub fn segments_in(&self, region: RegionId) -> Vec<SegmentId> {
        self.of_segment
            .iter()
            .enumerate()
            .filter(|(_, r)| **r == region)
            .map(|(i, _)| SegmentId(i as u32))
            .collect()
    }

    /// All landmarks belonging to `region`.
    pub fn landmarks_in(&self, region: RegionId) -> Vec<LandmarkId> {
        self.of_landmark
            .iter()
            .enumerate()
            .filter(|(_, r)| **r == region)
            .map(|(i, _)| LandmarkId(i as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::GeoPoint;
    use crate::graph::RoadClass;

    fn two_region_net() -> (RoadNetwork, RegionPartition) {
        let mut net = RoadNetwork::new();
        let a = net.add_landmark(GeoPoint::new(35.0, -80.0));
        let b = net.add_landmark(GeoPoint::new(35.01, -80.0));
        let c = net.add_landmark(GeoPoint::new(35.02, -80.0));
        net.add_two_way(a, b, RoadClass::Residential);
        net.add_two_way(b, c, RoadClass::Residential);
        let part = RegionPartition::new(&net, 2, vec![RegionId(0), RegionId(0), RegionId(1)]);
        (net, part)
    }

    #[test]
    fn segments_inherit_tail_region() {
        let (net, part) = two_region_net();
        for seg in net.segments() {
            assert_eq!(part.of_segment(seg.id), part.of_landmark(seg.from));
        }
    }

    #[test]
    fn membership_queries_are_consistent() {
        let (net, part) = two_region_net();
        let total: usize = part.region_ids().map(|r| part.segments_in(r).len()).sum();
        assert_eq!(total, net.num_segments());
        for r in part.region_ids() {
            for seg in part.segments_in(r) {
                assert_eq!(part.of_segment(seg), r);
            }
            for lm in part.landmarks_in(r) {
                assert_eq!(part.of_landmark(lm), r);
            }
        }
    }

    #[test]
    fn region_label_is_one_based() {
        assert_eq!(RegionId(2).label(), 3);
        assert_eq!(RegionId(2).to_string(), "Region 3");
    }

    #[test]
    #[should_panic(expected = "cover every landmark")]
    fn wrong_length_assignment_rejected() {
        let (net, _) = two_region_net();
        let _ = RegionPartition::new(&net, 2, vec![RegionId(0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_region_rejected() {
        let (net, _) = two_region_net();
        let _ = RegionPartition::new(&net, 2, vec![RegionId(0), RegionId(5), RegionId(1)]);
    }
}
