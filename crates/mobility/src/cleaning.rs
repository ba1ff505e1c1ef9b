//! Data cleaning — the first stage of the MobiRescue framework (Figure 7).
//!
//! The paper filters out positions outside the city of interest and
//! redundant positions before deriving trajectories. [`clean`] applies both
//! filters to a raw ping stream.

use crate::trace::GpsPing;
use mobirescue_roadnet::geo::BoundingBox;

/// Two consecutive pings of the same person closer than this (in meters and
/// minutes) are considered redundant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CleaningConfig {
    /// Positions outside this box are dropped.
    pub bounds: BoundingBox,
    /// A ping within this distance of the previous kept ping of the same
    /// person *and* within `redundant_minutes` of it is dropped.
    pub redundant_distance_m: f64,
    /// See `redundant_distance_m`.
    pub redundant_minutes: u32,
}

impl CleaningConfig {
    /// Standard cleaning: the given city bounds, 15 m / 10 min redundancy.
    pub fn for_bounds(bounds: BoundingBox) -> Self {
        Self {
            bounds,
            redundant_distance_m: 15.0,
            redundant_minutes: 10,
        }
    }
}

/// Statistics of one cleaning run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CleaningReport {
    /// Pings kept.
    pub kept: usize,
    /// Pings dropped for being out of bounds.
    pub out_of_bounds: usize,
    /// Pings dropped as redundant.
    pub redundant: usize,
}

/// Cleans a ping stream sorted by `(person, minute)`, returning the kept
/// pings (same order) and a report.
///
/// # Panics
///
/// Panics (debug builds) if the input is not sorted by `(person, minute)`.
pub fn clean(pings: &[GpsPing], config: &CleaningConfig) -> (Vec<GpsPing>, CleaningReport) {
    debug_assert!(
        pings
            .windows(2)
            .all(|w| (w[0].person, w[0].minute) <= (w[1].person, w[1].minute)),
        "pings must be sorted by (person, minute)"
    );
    let mut kept: Vec<GpsPing> = Vec::with_capacity(pings.len());
    let mut report = CleaningReport::default();
    for ping in pings {
        if !config.bounds.contains(ping.position) {
            report.out_of_bounds += 1;
            continue;
        }
        if let Some(prev) = kept.last() {
            if prev.person == ping.person
                && ping.minute.saturating_sub(prev.minute) <= config.redundant_minutes
                && prev.position.distance_m(ping.position) <= config.redundant_distance_m
            {
                report.redundant += 1;
                continue;
            }
        }
        kept.push(*ping);
        report.kept += 1;
    }
    (kept, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::person::PersonId;
    use mobirescue_roadnet::geo::GeoPoint;

    fn ping(person: u32, minute: u32, pos: GeoPoint) -> GpsPing {
        GpsPing {
            person: PersonId(person),
            minute,
            position: pos,
        }
    }

    fn config() -> CleaningConfig {
        CleaningConfig::for_bounds(BoundingBox::new(
            GeoPoint::new(35.0, -81.0),
            GeoPoint::new(36.0, -80.0),
        ))
    }

    #[test]
    fn out_of_bounds_pings_dropped() {
        let inside = GeoPoint::new(35.5, -80.5);
        let outside = GeoPoint::new(40.0, -80.5);
        let pings = vec![
            ping(0, 0, inside),
            ping(0, 100, outside),
            ping(0, 200, inside),
        ];
        let (kept, report) = clean(&pings, &config());
        assert_eq!(kept.len(), 2);
        assert_eq!(report.out_of_bounds, 1);
        assert_eq!(report.kept, 2);
    }

    #[test]
    fn redundant_pings_collapsed() {
        let p = GeoPoint::new(35.5, -80.5);
        let near = p.offset_m(5.0, 5.0);
        let pings = vec![ping(0, 0, p), ping(0, 5, near), ping(0, 300, near)];
        let (kept, report) = clean(&pings, &config());
        assert_eq!(kept.len(), 2, "only the 5-minute duplicate is dropped");
        assert_eq!(report.redundant, 1);
    }

    #[test]
    fn redundancy_does_not_cross_people() {
        let p = GeoPoint::new(35.5, -80.5);
        let pings = vec![ping(0, 0, p), ping(1, 2, p)];
        let (kept, report) = clean(&pings, &config());
        assert_eq!(kept.len(), 2);
        assert_eq!(report.redundant, 0);
    }

    #[test]
    fn distant_same_time_pings_kept() {
        let p = GeoPoint::new(35.5, -80.5);
        let far = p.offset_m(500.0, 0.0);
        let pings = vec![ping(0, 0, p), ping(0, 2, far)];
        let (kept, _) = clean(&pings, &config());
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn empty_input_is_fine() {
        let (kept, report) = clean(&[], &config());
        assert!(kept.is_empty());
        assert_eq!(report, CleaningReport::default());
    }
}
