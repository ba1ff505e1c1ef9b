//! Vehicle flow rate measurement (the paper's Definition 2).
//!
//! Flow rate of a segment is the number of vehicles driving through it per
//! hour; a region's flow rate averages over its segments. Inferred
//! [`Trip`]s are routed over the network *as it existed at departure time*
//! (flooded segments are impassable) and every traversed segment's counter
//! for the departure hour is incremented. Trips that cannot be routed on the
//! damaged network are cancelled — exactly the mechanism that makes flow
//! collapse in flooded regions (Observation 2).

use crate::trips::Trip;
use mobirescue_disaster::scenario::DisasterScenario;
use mobirescue_roadnet::damage::{NetworkCondition, SegmentCondition};
use mobirescue_roadnet::graph::{RoadNetwork, SegmentId};
use mobirescue_roadnet::planner::RoutePlanner;
use mobirescue_roadnet::pool;
use mobirescue_roadnet::regions::{RegionId, RegionPartition};
use serde::{Deserialize, Serialize};

/// Per-hour network conditions (G̃ at every hour), precomputed once and
/// held once per run of equal consecutive hours.
///
/// A run stores only the segments that are not pristine, each with its
/// [`SegmentCondition`]; every other segment is operable at full speed.
/// [`HourlyConditions::at`] builds an hour's dense [`NetworkCondition`]
/// from its run, and a [`ConditionCursor`] holds one while the run lasts.
/// On the `charlotte` preset (seed 7) the 720 hours of the full horizon
/// form 190 runs of 242,220 entries in all, about 4.8 MB where one dense
/// condition per hour took 58.1 MB.
///
/// Conditions may also cover only a *window* of the scenario (see
/// [`HourlyConditions::compute_window`]). Held densely, the full 720-hour
/// horizon of the 101,280-segment `metro` preset took 1.17 GB. Its 60-hour
/// storm window holds 43 runs and 1,070,926 entries (about 21 MB); the
/// full horizon would hold 189 runs and 4.05M entries (81 MB) and take
/// four to six times as long to build.
#[derive(Debug, Clone)]
pub struct HourlyConditions {
    /// Segments in the network the conditions describe.
    num_segments: usize,
    /// First absolute scenario hour covered (0 for full-horizon builds).
    first_hour: u32,
    /// One past the last absolute hour covered.
    end_hour: u32,
    /// The runs of equal hours, in hour order.
    runs: Vec<Run>,
}

/// Equal consecutive hours of a [`HourlyConditions`]: the segments that
/// are not pristine in them, in segment order, with their conditions.
#[derive(Debug, Clone)]
struct Run {
    /// First absolute hour of the run; it lasts until the next run's.
    first_hour: u32,
    segments: Box<[SegmentId]>,
    damage: Box<[SegmentCondition]>,
}

impl HourlyConditions {
    /// Precomputes the condition of `net` for every hour of `scenario`.
    pub fn compute(net: &RoadNetwork, scenario: &DisasterScenario) -> Self {
        Self::compute_window(net, scenario, 0..scenario.total_hours())
    }

    /// Precomputes conditions for the absolute-hour window
    /// `window.start..window.end` only. `at` remains indexed by *absolute*
    /// scenario hour; hours outside the window panic.
    ///
    /// The runs are built one hour at a time from the flood raster: no
    /// more than the hour being compared is held besides them.
    ///
    /// # Panics
    ///
    /// Panics when the window is empty or extends past the scenario.
    pub fn compute_window(
        net: &RoadNetwork,
        scenario: &DisasterScenario,
        window: std::ops::Range<u32>,
    ) -> Self {
        assert!(!window.is_empty(), "condition window must be non-empty");
        assert!(
            window.end <= scenario.total_hours(),
            "window {window:?} extends past the {}-hour scenario",
            scenario.total_hours()
        );
        let damage = scenario.flood().segment_damage(net);
        Self::from_hours(
            net.num_segments(),
            window.start,
            window.map(|hour| damage.at(hour)),
        )
    }

    /// Builds from explicit per-hour conditions (synthetic damage schedules
    /// for tests and failure-injection studies), covering hours
    /// `0..conditions.len()`.
    ///
    /// # Panics
    ///
    /// Panics if `conditions` is empty or its conditions differ in length.
    pub fn from_conditions(conditions: Vec<NetworkCondition>) -> Self {
        assert!(
            !conditions.is_empty(),
            "need at least one hour of conditions"
        );
        let num_segments = conditions[0].len();
        let hours = conditions.iter().map(|cond| {
            assert_eq!(
                cond.len(),
                num_segments,
                "every hour must cover the same segments"
            );
            (0..num_segments as u32)
                .map(SegmentId)
                .map(|seg| (seg, cond.condition(seg)))
        });
        Self::from_hours(num_segments, 0, hours)
    }

    /// Builds from hours given in order from `first_hour`, each as its
    /// segments in segment order. Pristine segments are dropped, and an
    /// hour equal to the one before joins that hour's run.
    fn from_hours<H>(num_segments: usize, first_hour: u32, hours: impl Iterator<Item = H>) -> Self
    where
        H: Iterator<Item = (SegmentId, SegmentCondition)>,
    {
        let mut runs: Vec<Run> = Vec::new();
        let (mut segments, mut damage) = (Vec::new(), Vec::new());
        let mut end_hour = first_hour;
        for hour in hours {
            segments.clear();
            damage.clear();
            for (seg, c) in hour.filter(|(_, c)| *c != SegmentCondition::default()) {
                segments.push(seg);
                damage.push(c);
            }
            let repeats = runs
                .last()
                .is_some_and(|run| *run.segments == segments[..] && *run.damage == damage[..]);
            if !repeats {
                runs.push(Run {
                    first_hour: end_hour,
                    segments: segments.as_slice().into(),
                    damage: damage.as_slice().into(),
                });
            }
            end_hour += 1;
        }
        runs.shrink_to_fit();
        Self {
            num_segments,
            first_hour,
            end_hour,
            runs,
        }
    }

    /// The hours run `run` covers.
    fn run_hours(&self, run: usize) -> std::ops::Range<u32> {
        let end = self
            .runs
            .get(run + 1)
            .map_or(self.end_hour, |r| r.first_hour);
        self.runs[run].first_hour..end
    }

    /// The run covering absolute `hour`.
    ///
    /// # Panics
    ///
    /// Panics if `hour` is outside the covered window.
    fn run_of(&self, hour: u32) -> usize {
        assert!(
            hour >= self.first_hour,
            "hour {hour} precedes the covered window starting at {}",
            self.first_hour
        );
        assert!(
            hour < self.end_hour,
            "hour {hour} is past the covered window ending at {}",
            self.end_hour
        );
        self.runs.partition_point(|r| r.first_hour <= hour) - 1
    }

    /// The dense condition of run `run`, under a fresh generation.
    fn run_condition(&self, run: usize) -> NetworkCondition {
        let run = &self.runs[run];
        NetworkCondition::from_changes(
            self.num_segments,
            run.segments.iter().copied().zip(run.damage.iter().copied()),
        )
    }

    /// First absolute hour covered (0 for full-horizon builds).
    pub fn first_hour(&self) -> u32 {
        self.first_hour
    }

    /// One past the last absolute hour covered. Full-horizon builds cover
    /// `0..hours()`, windowed builds `first_hour()..hours()`.
    pub fn hours(&self) -> u32 {
        self.end_hour
    }

    /// The condition at absolute scenario `hour`, built from its run under
    /// a fresh generation. To read many hours in order, a
    /// [`HourlyConditions::cursor`] builds each run's condition once.
    ///
    /// # Panics
    ///
    /// Panics if `hour` is outside the covered window.
    pub fn at(&self, hour: u32) -> NetworkCondition {
        self.run_condition(self.run_of(hour))
    }

    /// A reader that holds the condition of one run at a time. It builds
    /// nothing until its first lookup.
    pub fn cursor(&self) -> ConditionCursor<'_> {
        ConditionCursor {
            conditions: self,
            held: None,
        }
    }
}

/// Holds the dense condition of one run of a [`HourlyConditions`] and
/// rebuilds it only when a lookup leaves the run, so the hours of a run
/// share one condition and one generation (and the route planner's cost
/// snapshot and trees with them).
#[derive(Debug, Clone)]
pub struct ConditionCursor<'a> {
    conditions: &'a HourlyConditions,
    /// The hours of the held run, and its condition.
    held: Option<(std::ops::Range<u32>, NetworkCondition)>,
}

impl ConditionCursor<'_> {
    /// The condition at absolute scenario `hour`, equal to
    /// [`HourlyConditions::at`]`(hour)`.
    ///
    /// # Panics
    ///
    /// Panics if `hour` is outside the covered window.
    pub fn at(&mut self, hour: u32) -> &NetworkCondition {
        if !self
            .held
            .as_ref()
            .is_some_and(|(hours, _)| hours.contains(&hour))
        {
            let run = self.conditions.run_of(hour);
            self.held = Some((
                self.conditions.run_hours(run),
                self.conditions.run_condition(run),
            ));
        }
        &self.held.as_ref().expect("built above").1
    }
}

/// Flow counts per segment per hour.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowField {
    num_segments: usize,
    hours: u32,
    counts: Vec<u32>,
}

impl FlowField {
    /// An all-zero flow field.
    pub fn zeros(num_segments: usize, hours: u32) -> Self {
        Self {
            num_segments,
            hours,
            counts: vec![0; num_segments * hours as usize],
        }
    }

    /// Routes every trip and accumulates per-segment hourly flow.
    /// Unroutable trips (origin or destination cut off by flooding) are
    /// dropped.
    ///
    /// Trips are grouped by departure hour. A run of equal hours gets its
    /// condition when the first of its hours with trips is reached, and
    /// that condition is materialized into a flat cost snapshot exactly
    /// once (see [`RoutePlanner`]); within an hour the point queries fan
    /// out over the available cores. Results are deterministic: routes
    /// come back in input order and counts are merged by addition.
    pub fn from_trips(net: &RoadNetwork, trips: &[Trip], conditions: &HourlyConditions) -> Self {
        let hours = conditions.hours();
        let planner = RoutePlanner::new(net);
        let threads = pool::available_threads().clamp(1, 16);
        let mut by_hour: Vec<Vec<&Trip>> = vec![Vec::new(); hours as usize];
        for trip in trips {
            by_hour[trip.depart_hour().min(hours - 1) as usize].push(trip);
        }
        let mut field = Self::zeros(net.num_segments(), hours);
        let mut cursor = conditions.cursor();
        for (hour, hour_trips) in by_hour.iter().enumerate() {
            if hour_trips.is_empty() {
                continue;
            }
            let cond = cursor.at(hour as u32);
            let routes = pool::parallel_map(threads, hour_trips, |_, trip| {
                planner.route(cond, trip.from, trip.to)
            });
            for route in routes.into_iter().flatten() {
                for sid in route.segments {
                    field.counts[sid.index() * hours as usize + hour] += 1;
                }
            }
        }
        field
    }

    /// Hours covered.
    pub fn hours(&self) -> u32 {
        self.hours
    }

    /// Vehicles through `seg` during `hour`.
    ///
    /// # Panics
    ///
    /// Panics if `seg` or `hour` is out of range.
    pub fn flow(&self, seg: SegmentId, hour: u32) -> u32 {
        assert!(hour < self.hours, "hour {hour} out of range");
        self.counts[seg.index() * self.hours as usize + hour as usize]
    }

    /// Average hourly flow of `seg` over the day range `days` (inclusive
    /// start, exclusive end).
    pub fn segment_daily_avg(&self, seg: SegmentId, days: std::ops::Range<u32>) -> f64 {
        let mut total = 0u64;
        let mut hours = 0u64;
        for day in days {
            for h in 0..24 {
                let hour = day * 24 + h;
                if hour < self.hours {
                    total += self.flow(seg, hour) as u64;
                    hours += 1;
                }
            }
        }
        if hours == 0 {
            0.0
        } else {
            total as f64 / hours as f64
        }
    }

    /// Region flow rate during one hour: average over the region's segments
    /// (Definition 2).
    pub fn region_flow(&self, partition: &RegionPartition, region: RegionId, hour: u32) -> f64 {
        let segs = partition.segments_in(region);
        if segs.is_empty() {
            return 0.0;
        }
        segs.iter().map(|&s| self.flow(s, hour) as f64).sum::<f64>() / segs.len() as f64
    }

    /// Region flow rate averaged over all 24 hours of `day`.
    pub fn region_daily_avg(&self, partition: &RegionPartition, region: RegionId, day: u32) -> f64 {
        (0..24)
            .map(|h| self.region_flow(partition, region, (day * 24 + h).min(self.hours - 1)))
            .sum::<f64>()
            / 24.0
    }

    /// Per-segment difference of average hourly flow between two day ranges
    /// (`|before − after|`), the statistic behind Figure 3.
    pub fn segment_flow_differences(
        &self,
        net: &RoadNetwork,
        before: std::ops::Range<u32>,
        after: std::ops::Range<u32>,
    ) -> Vec<f64> {
        net.segment_ids()
            .map(|s| {
                (self.segment_daily_avg(s, before.clone())
                    - self.segment_daily_avg(s, after.clone()))
                .abs()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::person::PersonId;
    use mobirescue_disaster::hurricane::Hurricane;
    use mobirescue_roadnet::generator::CityConfig;
    use mobirescue_roadnet::routing::Router;

    fn setup() -> (
        mobirescue_roadnet::generator::City,
        DisasterScenario,
        HourlyConditions,
    ) {
        let city = CityConfig::small().build(31);
        let scenario = DisasterScenario::new(&city, Hurricane::florence(), 31);
        let conds = HourlyConditions::compute(&city.network, &scenario);
        (city, scenario, conds)
    }

    #[test]
    fn hourly_conditions_cover_scenario() {
        let (city, scenario, conds) = setup();
        assert_eq!(conds.hours(), scenario.total_hours());
        assert_eq!(conds.at(0).operable_count(), city.network.num_segments());
    }

    #[test]
    fn trips_increment_route_segments() {
        let (city, _, conds) = setup();
        let from = mobirescue_roadnet::graph::LandmarkId(0);
        let to = city.depot;
        let trip = Trip {
            person: PersonId(0),
            depart_minute: 60,
            from,
            to,
        };
        let field = FlowField::from_trips(&city.network, &[trip], &conds);
        let router = Router::new(&city.network);
        let route = router.shortest_path(&conds.at(1), from, to).unwrap();
        for sid in &route.segments {
            assert_eq!(field.flow(*sid, 1), 1);
        }
        // Total flow equals route length in segments.
        let total: u32 = city.network.segment_ids().map(|s| field.flow(s, 1)).sum();
        assert_eq!(total as usize, route.segments.len());
    }

    #[test]
    fn flow_during_flood_avoids_blocked_segments() {
        let (city, scenario, conds) = setup();
        let peak = scenario.hurricane().timeline.peak_hour() + 24;
        let cond = conds.at(peak);
        let from = mobirescue_roadnet::graph::LandmarkId(0);
        let to = mobirescue_roadnet::graph::LandmarkId((city.network.num_landmarks() - 1) as u32);
        let trip = Trip {
            person: PersonId(0),
            depart_minute: peak * 60,
            from,
            to,
        };
        let field = FlowField::from_trips(&city.network, &[trip], &conds);
        for sid in city.network.segment_ids() {
            if field.flow(sid, peak) > 0 {
                assert!(cond.is_operable(sid), "flow on blocked segment {sid}");
            }
        }
    }

    #[test]
    fn region_flow_averages_segments() {
        let (city, _, conds) = setup();
        let from = mobirescue_roadnet::graph::LandmarkId(0);
        let trip = Trip {
            person: PersonId(0),
            depart_minute: 0,
            from,
            to: city.depot,
        };
        let field = FlowField::from_trips(&city.network, &[trip], &conds);
        let mut manual_sum = 0.0;
        let mut by_region = 0.0;
        for r in city.regions.region_ids() {
            let segs = city.regions.segments_in(r);
            by_region += field.region_flow(&city.regions, r, 0) * segs.len() as f64;
        }
        for s in city.network.segment_ids() {
            manual_sum += field.flow(s, 0) as f64;
        }
        assert!((by_region - manual_sum).abs() < 1e-9);
    }

    #[test]
    fn daily_average_over_empty_range_is_zero() {
        let field = FlowField::zeros(10, 48);
        assert_eq!(field.segment_daily_avg(SegmentId(3), 1..1), 0.0);
    }
}
