//! Hospital-delivery detection and rescued-person ground truth.
//!
//! Section III-B2: a person is *delivered to a hospital* when, starting from
//! their first appearance at one, they stay longer than a threshold (2 hours
//! in the paper); the person counts as *rescued* when their previous staying
//! position before the delivery lies in a flood zone. These labels are the
//! ground truth for the SVM (Section IV-B) and for Figures 4 and 6.

use crate::person::PersonId;
use crate::trace::{MobilityDataset, Trajectory};
use mobirescue_disaster::factors::FactorVector;
use mobirescue_disaster::scenario::DisasterScenario;
use mobirescue_roadnet::geo::{GeoPoint, EARTH_RADIUS_M};
use serde::{Deserialize, Serialize};

/// Default hospital catchment radius for detection, meters.
pub const DEFAULT_HOSPITAL_RADIUS_M: f64 = 300.0;

/// Default minimum stay to count as delivered, minutes (the paper's 2 h).
pub const DEFAULT_MIN_STAY_MINUTES: u32 = 120;

/// One detected hospital delivery.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HospitalDelivery {
    /// Who was delivered.
    pub person: PersonId,
    /// Minute of the first ping inside the hospital catchment.
    pub arrival_minute: u32,
    /// Index of the hospital in the list passed to the detector.
    pub hospital_index: usize,
    /// The person's last position before arriving, if any ping preceded the
    /// arrival.
    pub previous_position: Option<GeoPoint>,
    /// Minute of that previous ping.
    pub previous_minute: Option<u32>,
}

/// A delivery confirmed to be a flood rescue: the previous staying position
/// was inside a flood zone.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RescueRecord {
    /// Who was rescued.
    pub person: PersonId,
    /// Proxy for the rescue-request time: the last ping before delivery.
    pub request_minute: u32,
    /// Where the person was trapped.
    pub request_position: GeoPoint,
    /// Minute of hospital arrival.
    pub arrival_minute: u32,
    /// Index of the hospital in the detector's hospital list.
    pub hospital_index: usize,
}

impl RescueRecord {
    /// Day of the request.
    pub fn request_day(&self) -> u32 {
        self.request_minute / crate::trace::MINUTES_PER_DAY
    }
}

/// Detects hospital deliveries in every trajectory.
///
/// A delivery starts at the first ping within `radius_m` of any hospital and
/// holds if the person remains inside the catchment for at least
/// `min_stay_minutes` (judged by the first subsequent ping outside it, or
/// the last ping if none leaves). At most one delivery per person is
/// reported, matching the paper's "starting from a person's first
/// appearance in a hospital". A ping inside several catchments belongs to
/// the first-listed hospital.
///
/// Before the exact haversine test, a hospital whose latitude differs from
/// the ping's by more than the catchment's latitude band is skipped. A
/// great-circle distance is never less than `EARTH_RADIUS_M · |Δφ|`, so a
/// skipped hospital would also fail the exact test; the band is widened by
/// 0.1% so that rounding cannot make it skip one that passes. The result is
/// the same as testing every hospital exactly, for latitudes within ±90°
/// and any radius above a millimetre.
pub fn detect_deliveries(
    trajectories: &[Trajectory<'_>],
    hospitals: &[GeoPoint],
    radius_m: f64,
    min_stay_minutes: u32,
) -> Vec<HospitalDelivery> {
    let band_deg = (radius_m * 1.001 / EARTH_RADIUS_M).to_degrees();
    let near = |p: GeoPoint| -> Option<usize> {
        hospitals
            .iter()
            .position(|h| (h.lat - p.lat).abs() <= band_deg && h.distance_m(p) <= radius_m)
    };
    let mut out = Vec::new();
    for traj in trajectories {
        let pings = traj.pings;
        for (i, ping) in pings.iter().enumerate() {
            let Some(hospital_index) = near(ping.position) else {
                continue;
            };
            // Find when the person leaves the catchment.
            let leave_minute = pings[i + 1..]
                .iter()
                .find(|p| near(p.position).is_none())
                .map(|p| p.minute)
                .or_else(|| pings.last().map(|p| p.minute))
                .unwrap_or(ping.minute);
            if leave_minute.saturating_sub(ping.minute) >= min_stay_minutes {
                out.push(HospitalDelivery {
                    person: traj.person,
                    arrival_minute: ping.minute,
                    hospital_index,
                    previous_position: (i > 0).then(|| pings[i - 1].position),
                    previous_minute: (i > 0).then(|| pings[i - 1].minute),
                });
            }
            break; // only the first hospital appearance per person
        }
    }
    out
}

/// Filters deliveries down to flood rescues: keep those whose previous
/// staying position was inside a flood zone at that time.
pub fn label_rescues(
    deliveries: &[HospitalDelivery],
    scenario: &DisasterScenario,
) -> Vec<RescueRecord> {
    deliveries
        .iter()
        .filter_map(|d| {
            let pos = d.previous_position?;
            let minute = d.previous_minute?;
            let hour = (minute / 60).min(scenario.total_hours() - 1);
            scenario.is_flooded(pos, hour).then_some(RescueRecord {
                person: d.person,
                request_minute: minute,
                request_position: pos,
                arrival_minute: d.arrival_minute,
                hospital_index: d.hospital_index,
            })
        })
        .collect()
}

/// A labelled training example for the rescue-decision classifier
/// (Equation 1's ground truth).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LabeledExample {
    /// The person the example describes.
    pub person: PersonId,
    /// Sample time, minutes.
    pub minute: u32,
    /// Sample position.
    pub position: GeoPoint,
    /// Disaster-related factors at the position and time.
    pub factors: FactorVector,
    /// Whether the person needed rescue (the SVM's target).
    pub needs_rescue: bool,
}

/// Builds the SVM training set from a dataset and its rescue ground truth:
/// one positive example per rescue (at the trapped position/time) and one
/// negative example per never-rescued person.
///
/// Negatives are taken at each person's ping *closest to the disaster
/// peak*, matching the positives' time distribution — otherwise the
/// classifier can separate the classes on the storm's temporal intensity
/// alone and never learns the spatial factors (altitude) that
/// differentiate people during the peak.
pub fn training_examples(
    dataset: &MobilityDataset,
    scenario: &DisasterScenario,
    rescues: &[RescueRecord],
) -> Vec<LabeledExample> {
    let mut rescued = vec![false; dataset.num_people()];
    let mut out = Vec::new();
    for r in rescues {
        rescued[r.person.index()] = true;
        let hour = (r.request_minute / 60).min(scenario.total_hours() - 1);
        out.push(LabeledExample {
            person: r.person,
            minute: r.request_minute,
            position: r.request_position,
            factors: scenario.factors_at(r.request_position, hour),
            needs_rescue: true,
        });
    }
    // Negatives: for each non-rescued person, their ping nearest the
    // disaster peak (within an extended disaster window — flooding peaks
    // after the rain does).
    let tl = scenario.hurricane().timeline;
    let window =
        (tl.disaster_start_day * 24 * 60)..((tl.disaster_end_day + 2).min(tl.total_days) * 24 * 60);
    let peak_minute = tl.peak_hour() * 60 + 12 * 60;
    // Keep negatives within half a day of the peak: beyond that the storm's
    // own intensity separates the classes and the classifier never learns
    // the *spatial* factor (altitude) that distinguishes people at the
    // same moment.
    let max_offset = 12 * 60;
    let mut best: Vec<Option<(u32, GeoPoint)>> = vec![None; dataset.num_people()];
    for ping in &dataset.pings {
        if rescued[ping.person.index()]
            || !window.contains(&ping.minute)
            || ping.minute.abs_diff(peak_minute) > max_offset
        {
            continue;
        }
        let slot = &mut best[ping.person.index()];
        let closer =
            slot.is_none_or(|(m, _)| ping.minute.abs_diff(peak_minute) < m.abs_diff(peak_minute));
        if closer {
            *slot = Some((ping.minute, ping.position));
        }
    }
    for (i, slot) in best.iter().enumerate() {
        if let Some((minute, position)) = slot {
            let hour = (minute / 60).min(scenario.total_hours() - 1);
            out.push(LabeledExample {
                person: crate::person::PersonId(i as u32),
                minute: *minute,
                position: *position,
                factors: scenario.factors_at(*position, hour),
                needs_rescue: false,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, PopulationConfig};
    use crate::trace::GpsPing;
    use mobirescue_disaster::hurricane::Hurricane;
    use mobirescue_roadnet::generator::CityConfig;

    fn ping(minute: u32, pos: GeoPoint) -> GpsPing {
        GpsPing {
            person: PersonId(0),
            minute,
            position: pos,
        }
    }

    #[test]
    fn detects_a_long_stay() {
        let hospital = GeoPoint::new(35.2, -80.8);
        let away = hospital.offset_m(5_000.0, 0.0);
        let traj = Trajectory {
            person: PersonId(0),
            pings: &[
                ping(0, away),
                ping(100, hospital),
                ping(180, hospital.offset_m(20.0, 0.0)),
                ping(300, away),
            ],
        };
        let ds = detect_deliveries(&[traj], &[hospital], 300.0, 120);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].arrival_minute, 100);
        assert_eq!(ds[0].previous_minute, Some(0));
        assert_eq!(ds[0].previous_position.unwrap(), away);
    }

    #[test]
    fn short_visit_is_not_a_delivery() {
        let hospital = GeoPoint::new(35.2, -80.8);
        let away = hospital.offset_m(5_000.0, 0.0);
        let traj = Trajectory {
            person: PersonId(0),
            pings: &[ping(0, away), ping(100, hospital), ping(160, away)],
        };
        let ds = detect_deliveries(&[traj], &[hospital], 300.0, 120);
        assert!(ds.is_empty());
    }

    #[test]
    fn only_first_appearance_counts() {
        let hospital = GeoPoint::new(35.2, -80.8);
        let away = hospital.offset_m(5_000.0, 0.0);
        let traj = Trajectory {
            person: PersonId(0),
            pings: &[
                ping(0, hospital),
                ping(200, hospital),
                ping(300, away),
                ping(400, hospital),
                ping(600, hospital),
            ],
        };
        let ds = detect_deliveries(&[traj], &[hospital], 300.0, 120);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].arrival_minute, 0);
        assert!(ds[0].previous_position.is_none());
    }

    #[test]
    fn end_to_end_detection_recovers_generated_rescues() {
        let city = CityConfig::small().build(55);
        let scenario = DisasterScenario::new(&city, Hurricane::florence(), 55);
        let out = generate(&city, &scenario, &PopulationConfig::small(), 55);
        let hospitals: Vec<GeoPoint> = city
            .hospitals
            .iter()
            .map(|&h| city.network.landmark(h).position)
            .collect();
        let trajs = out.dataset.trajectories();
        let deliveries = detect_deliveries(
            &trajs,
            &hospitals,
            DEFAULT_HOSPITAL_RADIUS_M,
            DEFAULT_MIN_STAY_MINUTES,
        );
        let rescues = label_rescues(&deliveries, &scenario);
        let truth = out.true_rescues.len();
        assert!(truth > 0);
        // The sparse-sampling pipeline cannot be perfect, but it must
        // recover a solid majority of true rescues.
        let detected_people: std::collections::HashSet<_> =
            rescues.iter().map(|r| r.person).collect();
        let hits = out
            .true_rescues
            .iter()
            .filter(|t| detected_people.contains(&t.person))
            .count();
        assert!(hits * 2 >= truth, "detected {hits}/{truth} true rescues");
    }

    #[test]
    fn training_examples_have_both_labels() {
        let city = CityConfig::small().build(56);
        let scenario = DisasterScenario::new(&city, Hurricane::florence(), 56);
        let out = generate(&city, &scenario, &PopulationConfig::small(), 56);
        let hospitals: Vec<GeoPoint> = city
            .hospitals
            .iter()
            .map(|&h| city.network.landmark(h).position)
            .collect();
        let trajs = out.dataset.trajectories();
        let deliveries = detect_deliveries(
            &trajs,
            &hospitals,
            DEFAULT_HOSPITAL_RADIUS_M,
            DEFAULT_MIN_STAY_MINUTES,
        );
        let rescues = label_rescues(&deliveries, &scenario);
        let examples = training_examples(&out.dataset, &scenario, &rescues);
        let pos = examples.iter().filter(|e| e.needs_rescue).count();
        let neg = examples.len() - pos;
        assert!(pos > 0, "no positive examples");
        assert!(neg > 0, "no negative examples");
        assert_eq!(pos, rescues.len());
        // At most one negative per person.
        let mut seen = std::collections::HashSet::new();
        for e in examples.iter().filter(|e| !e.needs_rescue) {
            assert!(seen.insert(e.person), "duplicate negative for {}", e.person);
        }
    }
}
