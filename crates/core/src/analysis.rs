//! The Section-III dataset measurement pipeline.
//!
//! Runs the paper's analysis end-to-end on a scenario's GPS dataset: data
//! cleaning, trip inference, vehicle-flow measurement, hospital-delivery
//! detection and rescued labelling — producing the data behind Table I and
//! Figures 2–6. Everything is computed from the pings alone, so the
//! paper's observations emerge (or fail) from the pipeline rather than
//! being hard-coded.

use crate::predictor::mine_rescues;
use crate::scenario::Scenario;
use mobirescue_disaster::hurricane::HOURS_PER_DAY;
use mobirescue_mobility::cleaning::{clean, CleaningConfig, CleaningReport};
use mobirescue_mobility::flow::FlowField;
use mobirescue_mobility::map_match::MapMatcher;
use mobirescue_mobility::rescue::{
    detect_deliveries, RescueRecord, DEFAULT_HOSPITAL_RADIUS_M, DEFAULT_MIN_STAY_MINUTES,
};
use mobirescue_mobility::stats::{pearson, Cdf};
use mobirescue_mobility::trace::MobilityDataset;
use mobirescue_mobility::trips::{extract_trips, DEFAULT_TRIP_THRESHOLD_M};
use mobirescue_roadnet::geo::GeoPoint;
use mobirescue_roadnet::regions::RegionId;

/// Per-region disaster factors, as annotated in the paper's Figure 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionFactors {
    /// The region.
    pub region: RegionId,
    /// Average precipitation at the disaster peak, mm/h.
    pub precipitation_mm_h: f64,
    /// Average wind speed at the disaster peak, mph.
    pub wind_mph: f64,
    /// Average altitude, m.
    pub altitude_m: f64,
}

/// Table I: Pearson correlations between vehicle flow rate and each
/// disaster-related factor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1 {
    /// Correlation with precipitation (paper: −0.897).
    pub precipitation: f64,
    /// Correlation with wind speed (paper: −0.781).
    pub wind: f64,
    /// Correlation with altitude (paper: +0.739).
    pub altitude: f64,
}

/// The full Section-III analysis output.
#[derive(Debug)]
pub struct DatasetAnalysis {
    /// Data-cleaning statistics (Figure 7, stage 1).
    pub cleaning: CleaningReport,
    /// Inferred vehicle trips.
    pub num_trips: usize,
    /// Per-segment hourly vehicle flow.
    pub flow: FlowField,
    /// All detected hospital deliveries per day (Figure 6).
    pub deliveries_per_day: Vec<usize>,
    /// Flood rescues mined from the data.
    pub rescues: Vec<RescueRecord>,
    /// Rescued people per region (Figure 4).
    pub rescued_per_region: Vec<usize>,
    /// Per-region factor annotations (Figure 1).
    pub region_factors: Vec<RegionFactors>,
}

impl DatasetAnalysis {
    /// Runs the whole pipeline on `scenario`.
    pub fn run(scenario: &Scenario) -> Self {
        let city = &scenario.city;
        let bounds = city
            .network
            .bounding_box()
            .expect("city network is non-empty")
            .expanded_m(2_000.0);
        let (kept, cleaning) = clean(
            &scenario.generated.dataset.pings,
            &CleaningConfig::for_bounds(bounds),
        );
        let cleaned = MobilityDataset {
            people: scenario.generated.dataset.people.clone(),
            pings: kept,
        };
        let matcher = MapMatcher::new(&city.network);
        let trips = extract_trips(&cleaned, &city.network, &matcher, DEFAULT_TRIP_THRESHOLD_M);
        let flow = FlowField::from_trips(&city.network, &trips, &scenario.conditions);

        // Hospital deliveries per day + rescued labelling.
        let hospitals: Vec<GeoPoint> = city
            .hospitals
            .iter()
            .map(|&h| city.network.landmark(h).position)
            .collect();
        let trajectories = cleaned.trajectories();
        let deliveries = detect_deliveries(
            &trajectories,
            &hospitals,
            DEFAULT_HOSPITAL_RADIUS_M,
            DEFAULT_MIN_STAY_MINUTES,
        );
        let total_days = (scenario.disaster.total_hours() / HOURS_PER_DAY) as usize;
        let mut deliveries_per_day = vec![0usize; total_days];
        for d in &deliveries {
            // A delivery needs an arrival *from somewhere*: people whose
            // first-ever ping already sits inside a hospital catchment
            // simply live nearby.
            if d.previous_position.is_none() {
                continue;
            }
            let day = (d.arrival_minute / (24 * 60)) as usize;
            if day < total_days {
                deliveries_per_day[day] += 1;
            }
        }
        let rescues = mine_rescues(scenario);
        let mut rescued_per_region = vec![0usize; city.regions.num_regions()];
        for r in &rescues {
            let seg = matcher.nearest_segment(&city.network, r.request_position);
            rescued_per_region[city.regions.of_segment(seg).index()] += 1;
        }

        // Figure-1 style region annotations at the disaster peak.
        let peak = scenario.hurricane().timeline.peak_hour();
        let region_factors = city
            .regions
            .region_ids()
            .map(|region| {
                let members = city.regions.landmarks_in(region);
                let n = members.len().max(1) as f64;
                let mut f = RegionFactors {
                    region,
                    precipitation_mm_h: 0.0,
                    wind_mph: 0.0,
                    altitude_m: 0.0,
                };
                for lm in members {
                    let pos = city.network.landmark(lm).position;
                    let v = scenario.disaster.factors_at(pos, peak);
                    f.precipitation_mm_h += v.precipitation_mm_h / n;
                    f.wind_mph += v.wind_mph / n;
                    f.altitude_m += v.altitude_m / n;
                }
                f
            })
            .collect();

        Self {
            cleaning,
            num_trips: trips.len(),
            flow,
            deliveries_per_day,
            rescues,
            rescued_per_region,
            region_factors,
        }
    }

    /// Figure 2: a region's hourly average flow rate over one day.
    pub fn hourly_region_flow(&self, scenario: &Scenario, region: RegionId, day: u32) -> Vec<f64> {
        (0..24)
            .map(|h| {
                self.flow.region_flow(
                    &scenario.city.regions,
                    region,
                    (day * 24 + h).min(self.flow.hours() - 1),
                )
            })
            .collect()
    }

    /// Figure 3: CDF of per-segment |before − after| average flow
    /// differences.
    pub fn flow_difference_cdf(
        &self,
        scenario: &Scenario,
        before: std::ops::Range<u32>,
        after: std::ops::Range<u32>,
    ) -> Cdf {
        Cdf::new(
            self.flow
                .segment_flow_differences(&scenario.city.network, before, after),
        )
    }

    /// Table I: Pearson correlation between region-day flow rates and each
    /// disaster factor, over the disaster-and-recovery window.
    ///
    /// Flow is normalized by each region's own pre-disaster baseline so
    /// the statistic measures *impact severity* rather than each region's
    /// commuting volume — our synthetic downtown carries a much larger
    /// baseline share than its real counterpart, which would otherwise
    /// swamp the damage signal (documented in EXPERIMENTS.md).
    ///
    /// Returns `None` if any correlation is undefined (degenerate data).
    pub fn table1(&self, scenario: &Scenario) -> Option<Table1> {
        let tl = scenario.hurricane().timeline;
        let day_lo = tl.disaster_start_day;
        let day_hi = (tl.disaster_end_day + 5).min(tl.total_days);
        let base_lo = tl.disaster_start_day.saturating_sub(6);
        let base_hi = tl.disaster_start_day.saturating_sub(1).max(base_lo + 1);
        let mut flow_pts = Vec::new();
        let mut precip_pts = Vec::new();
        let mut wind_pts = Vec::new();
        let mut alt_pts = Vec::new();
        for region in scenario.city.regions.region_ids() {
            // Region centroid factors, daily means.
            let members = scenario.city.regions.landmarks_in(region);
            if members.is_empty() {
                continue;
            }
            let baseline = (base_lo..base_hi)
                .map(|d| {
                    self.flow
                        .region_daily_avg(&scenario.city.regions, region, d)
                })
                .sum::<f64>()
                / (base_hi - base_lo) as f64;
            if baseline <= 1e-9 {
                continue;
            }
            for day in day_lo..day_hi {
                let flow = self
                    .flow
                    .region_daily_avg(&scenario.city.regions, region, day)
                    / baseline;
                let mut precip = 0.0;
                let mut wind = 0.0;
                let mut alt = 0.0;
                let n = members.len() as f64;
                for &lm in &members {
                    let pos = scenario.city.network.landmark(lm).position;
                    // Midday factor as the day's representative value.
                    let hour = (day * 24 + 12).min(scenario.disaster.total_hours() - 1);
                    let v = scenario.disaster.factors_at(pos, hour);
                    precip += v.precipitation_mm_h / n;
                    wind += v.wind_mph / n;
                    alt += v.altitude_m / n;
                }
                flow_pts.push(flow);
                precip_pts.push(precip);
                wind_pts.push(wind);
                alt_pts.push(alt);
            }
        }
        Some(Table1 {
            precipitation: pearson(&precip_pts, &flow_pts)?,
            wind: pearson(&wind_pts, &flow_pts)?,
            altitude: pearson(&alt_pts, &flow_pts)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioConfig;

    fn analysis() -> (Scenario, DatasetAnalysis) {
        let scenario = ScenarioConfig::small().florence().build(81);
        let a = DatasetAnalysis::run(&scenario);
        (scenario, a)
    }

    #[test]
    fn pipeline_produces_trips_and_rescues() {
        let (_, a) = analysis();
        assert!(a.num_trips > 100, "only {} trips inferred", a.num_trips);
        assert!(!a.rescues.is_empty());
        assert!(a.cleaning.kept > 0);
        assert_eq!(a.deliveries_per_day.len(), 30);
    }

    #[test]
    fn observation2_flow_collapses_during_disaster() {
        let (scenario, a) = analysis();
        let tl = scenario.hurricane().timeline;
        let regions = &scenario.city.regions;
        let before: f64 = regions
            .region_ids()
            .map(|r| {
                (6..10)
                    .map(|d| a.flow.region_daily_avg(regions, r, d))
                    .sum::<f64>()
                    / 4.0
            })
            .sum();
        let peak_day = tl.peak_hour() / 24;
        let during: f64 = regions
            .region_ids()
            .map(|r| a.flow.region_daily_avg(regions, r, peak_day))
            .sum();
        assert!(
            during < before * 0.4,
            "flow should collapse during the disaster: before {before:.2}, during {during:.2}"
        );
    }

    #[test]
    fn observation2_deliveries_spike_during_disaster() {
        let (scenario, a) = analysis();
        let tl = scenario.hurricane().timeline;
        let before: usize = (4..10).map(|d| a.deliveries_per_day[d as usize]).sum();
        let during: usize = (tl.disaster_start_day..tl.disaster_end_day + 2)
            .map(|d| a.deliveries_per_day[d as usize])
            .sum();
        assert!(
            during > before,
            "hospital deliveries should spike: before {before}, during {during}"
        );
    }

    #[test]
    fn table1_signs_match_the_paper() {
        let (scenario, a) = analysis();
        let t = a.table1(&scenario).expect("correlations defined");
        assert!(
            t.precipitation < -0.3,
            "precipitation corr {}",
            t.precipitation
        );
        assert!(t.wind < -0.3, "wind corr {}", t.wind);
        assert!(t.altitude > 0.0, "altitude corr {}", t.altitude);
    }

    #[test]
    fn downtown_has_highest_rescue_density() {
        // Figure 4: the warmest region is the downtown basin. Regions have
        // very different sizes, so compare rescues per landmark.
        let (scenario, a) = analysis();
        let downtown = scenario.city.downtown_region();
        let density = |i: usize| {
            let members = scenario
                .city
                .regions
                .landmarks_in(mobirescue_roadnet::regions::RegionId(i as u8))
                .len()
                .max(1);
            a.rescued_per_region[i] as f64 / members as f64
        };
        let downtown_density = density(downtown.index());
        for i in 0..a.rescued_per_region.len() {
            if i != downtown.index() {
                assert!(
                    downtown_density >= density(i),
                    "region {i} density {} beats downtown {downtown_density} ({:?})",
                    density(i),
                    a.rescued_per_region
                );
            }
        }
    }

    #[test]
    fn figure_series_have_expected_shapes() {
        let (scenario, a) = analysis();
        let r1 = RegionId(0);
        let hourly = a.hourly_region_flow(&scenario, r1, 7);
        assert_eq!(hourly.len(), 24);
        let cdf = a.flow_difference_cdf(&scenario, 6..10, 17..21);
        assert!(!cdf.is_empty());
    }
}
