//! Trip inference from sparse GPS trajectories.
//!
//! Vehicle flow rate (Definition 2) is measured from trips: whenever two
//! consecutive pings of a person are far enough apart, the person drove from
//! the first position to the second. Each inferred [`Trip`] is later routed
//! over the (possibly flood-damaged) network to attribute flow to road
//! segments.

use crate::map_match::MapMatcher;
use crate::person::PersonId;
use crate::trace::{GpsPing, MobilityDataset};
use mobirescue_roadnet::graph::{LandmarkId, RoadNetwork};
use serde::{Deserialize, Serialize};

/// Minimum displacement between consecutive pings to count as a vehicle
/// trip, meters.
pub const DEFAULT_TRIP_THRESHOLD_M: f64 = 350.0;

/// One inferred vehicle trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trip {
    /// Who travelled.
    pub person: PersonId,
    /// Departure time (the earlier ping's minute).
    pub depart_minute: u32,
    /// Origin landmark (map-matched).
    pub from: LandmarkId,
    /// Destination landmark (map-matched).
    pub to: LandmarkId,
}

impl Trip {
    /// Hour of departure.
    pub fn depart_hour(&self) -> u32 {
        self.depart_minute / 60
    }
}

/// Extracts trips from a cleaned dataset: every consecutive ping pair of the
/// same person displaced by more than `threshold_m` becomes a [`Trip`]
/// between the map-matched landmarks (self-trips after matching are
/// dropped).
pub fn extract_trips(
    dataset: &MobilityDataset,
    net: &RoadNetwork,
    matcher: &MapMatcher,
    threshold_m: f64,
) -> Vec<Trip> {
    let mut trips = Vec::new();
    let mut prev: Option<&GpsPing> = None;
    for ping in &dataset.pings {
        if let Some(p) = prev {
            if p.person == ping.person && p.position.distance_m(ping.position) > threshold_m {
                let from = matcher.nearest_landmark(net, p.position);
                let to = matcher.nearest_landmark(net, ping.position);
                if from != to {
                    trips.push(Trip {
                        person: ping.person,
                        depart_minute: p.minute,
                        from,
                        to,
                    });
                }
            }
        }
        prev = Some(ping);
    }
    trips
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::person::{MobilityProfile, Person};
    use mobirescue_roadnet::generator::CityConfig;
    use mobirescue_roadnet::geo::GeoPoint;

    fn ping(person: u32, minute: u32, pos: GeoPoint) -> GpsPing {
        GpsPing {
            person: PersonId(person),
            minute,
            position: pos,
        }
    }

    #[test]
    fn detects_long_displacements_only() {
        let city = CityConfig::small().build(1);
        let matcher = MapMatcher::new(&city.network);
        let a = city.center;
        let near = a.offset_m(50.0, 0.0);
        let far = a.offset_m(3_000.0, 0.0);
        let person = Person {
            id: PersonId(0),
            home: a,
            work: a,
            profile: MobilityProfile::Homebody,
        };
        let ds = MobilityDataset {
            people: vec![person],
            pings: vec![ping(0, 0, a), ping(0, 60, near), ping(0, 120, far)],
        };
        let trips = extract_trips(&ds, &city.network, &matcher, DEFAULT_TRIP_THRESHOLD_M);
        assert_eq!(trips.len(), 1);
        assert_eq!(trips[0].depart_minute, 60);
        assert_eq!(trips[0].depart_hour(), 1);
        assert_ne!(trips[0].from, trips[0].to);
    }

    #[test]
    fn no_trips_across_people() {
        let city = CityConfig::small().build(1);
        let matcher = MapMatcher::new(&city.network);
        let a = city.center;
        let far = a.offset_m(3_000.0, 0.0);
        let mk = |id: u32| Person {
            id: PersonId(id),
            home: a,
            work: a,
            profile: MobilityProfile::Homebody,
        };
        let ds = MobilityDataset {
            people: vec![mk(0), mk(1)],
            pings: vec![ping(0, 0, a), ping(1, 30, far)],
        };
        let trips = extract_trips(&ds, &city.network, &matcher, DEFAULT_TRIP_THRESHOLD_M);
        assert!(trips.is_empty());
    }
}
