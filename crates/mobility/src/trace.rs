//! GPS pings, trajectories and the mobility dataset container.
//!
//! The paper's dataset rows (Section III-A) are per-user GPS samples at
//! 0.5–2 hour intervals carrying timestamp, latitude, longitude, altitude
//! and speed, with an anonymous user id. The pipeline reads only who was
//! where when, so [`GpsPing`] keeps `(person, minute, position)`: the SVM's
//! altitude factor comes from the terrain model
//! (`DisasterScenario::factors_at`), not from the pings. Time is minutes
//! since the scenario start.

use crate::person::{Person, PersonId};
use mobirescue_roadnet::geo::GeoPoint;
use serde::{Deserialize, Serialize};

/// Minutes per simulated day.
pub const MINUTES_PER_DAY: u32 = 24 * 60;

/// One GPS sample of one person: the part of the paper's dataset row that
/// the pipeline reads.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpsPing {
    /// The sampled person.
    pub person: PersonId,
    /// Minutes since scenario start.
    pub minute: u32,
    /// Sampled position.
    pub position: GeoPoint,
}

impl GpsPing {
    /// Hour (since scenario start) containing this ping.
    pub fn hour(&self) -> u32 {
        self.minute / 60
    }

    /// Day (since scenario start) containing this ping.
    pub fn day(&self) -> u32 {
        self.minute / MINUTES_PER_DAY
    }
}

/// The time-ordered pings of a single person (the paper's Definition 1,
/// before snapping to landmarks): a view into the dataset's sorted ping
/// array, not a copy.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Trajectory<'a> {
    /// The person this trajectory belongs to.
    pub person: PersonId,
    /// Pings in increasing `minute` order.
    pub pings: &'a [GpsPing],
}

impl Trajectory<'_> {
    /// The paper's Definition 1 proper: the trajectory as a sequence of
    /// time-ordered *landmarks* (consecutive duplicates collapsed — a
    /// person pinging from home all night is one landmark visit).
    pub fn to_landmarks(
        &self,
        net: &mobirescue_roadnet::graph::RoadNetwork,
        matcher: &crate::map_match::MapMatcher,
    ) -> Vec<(u32, mobirescue_roadnet::graph::LandmarkId)> {
        let mut out: Vec<(u32, mobirescue_roadnet::graph::LandmarkId)> = Vec::new();
        for ping in self.pings {
            let lm = matcher.nearest_landmark(net, ping.position);
            if out.last().map(|&(_, prev)| prev) != Some(lm) {
                out.push((ping.minute, lm));
            }
        }
        out
    }

    /// Total straight-line displacement along the trajectory, meters.
    pub fn total_displacement_m(&self) -> f64 {
        self.pings
            .windows(2)
            .map(|w| w[0].position.distance_m(w[1].position))
            .sum()
    }
}

/// A complete mobility dataset: the population plus every ping.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MobilityDataset {
    /// All tracked people.
    pub people: Vec<Person>,
    /// All pings, sorted by `(person, minute)`.
    pub pings: Vec<GpsPing>,
}

impl MobilityDataset {
    /// Number of tracked people.
    pub fn num_people(&self) -> usize {
        self.people.len()
    }

    /// Splits the pings into one [`Trajectory`] per person, in `people`
    /// order, without copying them: each trajectory borrows its person's run
    /// of the `(person, minute)`-sorted ping array. People without pings get
    /// an empty trajectory.
    ///
    /// # Panics
    ///
    /// Panics if a person's pings do not form one contiguous run (the pings
    /// are not sorted by person), or if a ping names a person outside
    /// `people`.
    pub fn trajectories(&self) -> Vec<Trajectory<'_>> {
        let mut out: Vec<Trajectory<'_>> = self
            .people
            .iter()
            .map(|p| Trajectory {
                person: p.id,
                pings: &[],
            })
            .collect();
        for run in self.pings.chunk_by(|a, b| a.person == b.person) {
            let person = run[0].person;
            let slot = &mut out[person.index()];
            assert!(
                slot.pings.is_empty(),
                "pings of {person} form more than one run: the dataset must be sorted by (person, minute)"
            );
            debug_assert!(run.windows(2).all(|w| w[0].minute <= w[1].minute));
            slot.pings = run;
        }
        out
    }

    /// Pings recorded during day `day`.
    pub fn pings_on_day(&self, day: u32) -> impl Iterator<Item = &GpsPing> + '_ {
        self.pings.iter().filter(move |p| p.day() == day)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::person::MobilityProfile;

    fn tiny_dataset() -> MobilityDataset {
        let home = GeoPoint::new(35.2, -80.8);
        let people = vec![
            Person {
                id: PersonId(0),
                home,
                work: home,
                profile: MobilityProfile::Homebody,
            },
            Person {
                id: PersonId(1),
                home,
                work: home,
                profile: MobilityProfile::Commuter,
            },
        ];
        let ping = |person, minute| GpsPing {
            person: PersonId(person),
            minute,
            position: home,
        };
        MobilityDataset {
            people,
            pings: vec![ping(0, 10), ping(0, 1500), ping(1, 70), ping(1, 200)],
        }
    }

    #[test]
    fn ping_time_arithmetic() {
        let p = GpsPing {
            person: PersonId(0),
            minute: MINUTES_PER_DAY + 125,
            position: GeoPoint::new(0.0, 0.0),
        };
        assert_eq!(p.day(), 1);
        assert_eq!(p.hour(), 26);
    }

    #[test]
    fn trajectories_split_by_person_in_order() {
        let mut ds = tiny_dataset();
        ds.people.push(Person {
            id: PersonId(2),
            ..ds.people[0]
        });
        let trajs = ds.trajectories();
        assert_eq!(trajs.len(), 3);
        assert_eq!(trajs[0].pings.len(), 2);
        assert_eq!(trajs[1].pings.len(), 2);
        assert!(trajs[1].pings[0].minute < trajs[1].pings[1].minute);
        // Views into the sorted array, not copies.
        assert!(std::ptr::eq(trajs[1].pings, &ds.pings[2..]));
        assert_eq!(trajs[2].person, PersonId(2));
        assert!(trajs[2].pings.is_empty(), "a person without pings");
    }

    #[test]
    #[should_panic(expected = "must be sorted by (person, minute)")]
    fn trajectories_reject_pings_not_sorted_by_person() {
        let mut ds = tiny_dataset();
        // Person 0's pings now form two runs: 0, 1, 0, 1.
        ds.pings.swap(1, 2);
        ds.trajectories();
    }

    #[test]
    fn pings_on_day_filters() {
        let ds = tiny_dataset();
        assert_eq!(ds.pings_on_day(0).count(), 3);
        assert_eq!(ds.pings_on_day(1).count(), 1);
        assert_eq!(ds.pings_on_day(2).count(), 0);
    }

    #[test]
    fn landmark_trajectory_collapses_duplicates() {
        let city = mobirescue_roadnet::generator::CityConfig::small().build(9);
        let matcher = crate::map_match::MapMatcher::new(&city.network);
        let home = city.center;
        let far = home.offset_m(3_000.0, 0.0);
        let ping = |minute, pos| GpsPing {
            person: PersonId(0),
            minute,
            position: pos,
        };
        let pings = [
            ping(0, home),
            ping(60, home.offset_m(5.0, 5.0)), // same landmark
            ping(120, far),
            ping(180, home),
        ];
        let traj = Trajectory {
            person: PersonId(0),
            pings: &pings,
        };
        let lms = traj.to_landmarks(&city.network, &matcher);
        assert_eq!(lms.len(), 3, "duplicate home visit collapsed: {lms:?}");
        assert_eq!(lms[0].1, lms[2].1, "returns to the same home landmark");
        assert!(lms.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(traj.total_displacement_m() > 5_900.0);
    }
}
