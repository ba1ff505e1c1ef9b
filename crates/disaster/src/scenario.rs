//! The complete disaster state bundle: terrain + weather + flood.
//!
//! A [`DisasterScenario`] packages everything downstream code needs from the
//! "external support" of the paper's Figure 7: the factor vector **h** at any
//! position/time (for the SVM), flood-zone membership (for ground-truth
//! labelling and people's trapped state), and the remaining available road
//! network G̃ at any hour (for routing and dispatching).

use crate::factors::FactorVector;
use crate::flood::FloodField;
use crate::hurricane::{DisasterPhase, Hurricane};
use crate::terrain::TerrainModel;
use crate::weather::WeatherField;
use mobirescue_roadnet::damage::NetworkCondition;
use mobirescue_roadnet::generator::City;
use mobirescue_roadnet::geo::GeoPoint;
use mobirescue_roadnet::graph::RoadNetwork;
use serde::{Deserialize, Serialize};

/// Default raster resolution of the flood model.
pub const DEFAULT_FLOOD_RESOLUTION: usize = 48;

/// All disaster state for one hurricane over one city.
///
/// # Examples
///
/// ```
/// use mobirescue_disaster::hurricane::Hurricane;
/// use mobirescue_disaster::scenario::DisasterScenario;
/// use mobirescue_roadnet::generator::CityConfig;
///
/// let city = CityConfig::small().build(42);
/// let scenario = DisasterScenario::new(&city, Hurricane::florence(), 42);
/// let peak = scenario.hurricane().timeline.peak_hour();
/// let factors = scenario.factors_at(city.center, peak);
/// assert!(factors.precipitation_mm_h > 0.0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DisasterScenario {
    center: GeoPoint,
    terrain: TerrainModel,
    weather: WeatherField,
    flood: FloodField,
}

impl DisasterScenario {
    /// Builds the full disaster state for `hurricane` over `city`,
    /// deterministic in `seed`, on a flood raster of
    /// [`DEFAULT_FLOOD_RESOLUTION`] cells a side.
    ///
    /// # Panics
    ///
    /// Panics if the city network is empty.
    pub fn new(city: &City, hurricane: Hurricane, seed: u64) -> Self {
        let bbox = city
            .network
            .bounding_box()
            .expect("city network must be non-empty")
            .expanded_m(1_000.0);
        // Scale the downtown basin to the city so that small test cities
        // keep the same low-downtown / high-outskirts structure as the
        // full-size one.
        let (width_m, height_m) = bbox.north_east.local_xy_m(bbox.south_west);
        let basin_sigma_m = (0.35 * 0.5 * width_m.min(height_m)).max(800.0);
        let terrain = TerrainModel::with_params(city.center, seed, 232.0, 45.0, basin_sigma_m);
        let weather = WeatherField::new(city.center, hurricane, seed);
        let flood = FloodField::compute(bbox, &terrain, &weather, DEFAULT_FLOOD_RESOLUTION);
        Self {
            center: city.center,
            terrain,
            weather,
            flood,
        }
    }

    /// The city center the scenario is anchored to.
    pub fn center(&self) -> GeoPoint {
        self.center
    }

    /// The hurricane driving the scenario.
    pub fn hurricane(&self) -> &Hurricane {
        self.weather.hurricane()
    }

    /// The terrain model.
    pub fn terrain(&self) -> &TerrainModel {
        &self.terrain
    }

    /// The weather field.
    pub fn weather(&self) -> &WeatherField {
        &self.weather
    }

    /// The flood field.
    pub fn flood(&self) -> &FloodField {
        &self.flood
    }

    /// Scenario length in hours.
    pub fn total_hours(&self) -> u32 {
        self.hurricane().timeline.total_hours()
    }

    /// Phase (before/during/after) of day `day`.
    pub fn phase_of_day(&self, day: u32) -> DisasterPhase {
        self.hurricane().timeline.phase_of_day(day)
    }

    /// The factor vector **h** at position `p` during `hour`.
    ///
    /// # Panics
    ///
    /// Panics if `hour` is past the end of the scenario.
    pub fn factors_at(&self, p: GeoPoint, hour: u32) -> FactorVector {
        assert!(hour < self.total_hours(), "hour {hour} outside scenario");
        FactorVector {
            precipitation_mm_h: self.weather.precipitation_mm_h(p, hour),
            wind_mph: self.weather.wind_mph(p, hour),
            altitude_m: self.terrain.altitude_m(p),
        }
    }

    /// Whether `p` is inside a flood zone during `hour`.
    ///
    /// # Panics
    ///
    /// Panics if `hour` is past the end of the scenario.
    pub fn is_flooded(&self, p: GeoPoint, hour: u32) -> bool {
        self.flood.is_flooded(p, hour)
    }

    /// The remaining available road network G̃ at `hour`.
    ///
    /// # Panics
    ///
    /// Panics if `hour` is past the end of the scenario.
    pub fn network_condition(&self, net: &RoadNetwork, hour: u32) -> NetworkCondition {
        self.flood.network_condition(net, hour)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobirescue_roadnet::generator::CityConfig;

    fn scenario() -> (mobirescue_roadnet::generator::City, DisasterScenario) {
        let city = CityConfig::small().build(21);
        let s = DisasterScenario::new(&city, Hurricane::florence(), 21);
        (city, s)
    }

    #[test]
    fn factors_reflect_the_storm() {
        let (city, s) = scenario();
        let calm = s.factors_at(city.center, 0);
        let peak = s.factors_at(city.center, s.hurricane().timeline.peak_hour());
        assert_eq!(calm.precipitation_mm_h, 0.0);
        assert!(peak.precipitation_mm_h > calm.precipitation_mm_h);
        assert!(peak.wind_mph > calm.wind_mph);
        assert_eq!(calm.altitude_m, peak.altitude_m, "altitude is static");
    }

    #[test]
    fn network_condition_tracks_flooding() {
        let (city, s) = scenario();
        let before = s.network_condition(&city.network, 0);
        assert_eq!(before.operable_count(), city.network.num_segments());
        let peak = s.hurricane().timeline.peak_hour();
        let during = s.network_condition(&city.network, peak + 24);
        assert!(during.operable_count() < city.network.num_segments());
    }

    #[test]
    fn phase_queries_delegate_to_timeline() {
        let (_, s) = scenario();
        assert_eq!(s.phase_of_day(0), DisasterPhase::Before);
        assert_eq!(s.phase_of_day(13), DisasterPhase::During);
        assert_eq!(s.phase_of_day(20), DisasterPhase::After);
        assert_eq!(s.total_hours(), 720);
    }

    #[test]
    fn michael_differs_from_florence() {
        let city = CityConfig::small().build(3);
        let f = DisasterScenario::new(&city, Hurricane::florence(), 3);
        let m = DisasterScenario::new(&city, Hurricane::michael(), 3);
        let hf = f.hurricane().timeline.peak_hour();
        let hm = m.hurricane().timeline.peak_hour();
        assert_ne!(hf, hm);
        assert!(
            f.factors_at(city.center, hf).precipitation_mm_h
                > m.factors_at(city.center, hm).precipitation_mm_h,
            "Florence hit Charlotte harder than Michael"
        );
    }

    #[test]
    #[should_panic(expected = "outside scenario")]
    fn factors_out_of_range_panics() {
        let (city, s) = scenario();
        let _ = s.factors_at(city.center, 100_000);
    }
}
