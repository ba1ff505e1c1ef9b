//! The hospital-delivery detector as it was before trajectories became
//! borrowed views: copy each person's pings into a vector of their own, then
//! test every hospital with the exact haversine, in list order. Kept as the
//! reference that `detect_deliveries` must match delivery for delivery.
//!
//! Shared by the mobility property tests and the root package's
//! `tests/mining_equivalence.rs`.

use mobirescue_mobility::person::PersonId;
use mobirescue_mobility::rescue::HospitalDelivery;
use mobirescue_mobility::trace::{GpsPing, MobilityDataset};
use mobirescue_roadnet::geo::GeoPoint;

/// Every person's first hospital stay of at least `min_stay_minutes`, by
/// copy and exhaustive scan.
pub fn reference_deliveries(
    dataset: &MobilityDataset,
    hospitals: &[GeoPoint],
    radius_m: f64,
    min_stay_minutes: u32,
) -> Vec<HospitalDelivery> {
    let mut trajectories: Vec<(PersonId, Vec<GpsPing>)> =
        dataset.people.iter().map(|p| (p.id, Vec::new())).collect();
    for ping in &dataset.pings {
        trajectories[ping.person.index()].1.push(*ping);
    }
    let near = |p: GeoPoint| -> Option<usize> {
        hospitals
            .iter()
            .enumerate()
            .find(|(_, h)| h.distance_m(p) <= radius_m)
            .map(|(i, _)| i)
    };
    let mut out = Vec::new();
    for (person, pings) in &trajectories {
        for (i, ping) in pings.iter().enumerate() {
            let Some(hospital_index) = near(ping.position) else {
                continue;
            };
            let leave_minute = pings[i + 1..]
                .iter()
                .find(|p| near(p.position).is_none())
                .map(|p| p.minute)
                .or_else(|| pings.last().map(|p| p.minute))
                .unwrap_or(ping.minute);
            if leave_minute.saturating_sub(ping.minute) >= min_stay_minutes {
                out.push(HospitalDelivery {
                    person: *person,
                    arrival_minute: ping.minute,
                    hospital_index,
                    previous_position: (i > 0).then(|| pings[i - 1].position),
                    previous_minute: (i > 0).then(|| pings[i - 1].minute),
                });
            }
            break;
        }
    }
    out
}
