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
}
