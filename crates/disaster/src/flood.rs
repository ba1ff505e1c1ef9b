//! Flood dynamics and the operable-network computation.
//!
//! The paper obtains flood zones from National Weather Service satellite
//! imaging and removes inundated road segments to form the remaining
//! available network G̃. Here a [`FloodField`] simulates the same product: a
//! raster water-balance model (rain fills cells, low-altitude cells drain
//! slowly) precomputed for every hour of the scenario. From it we derive
//! flood-zone membership for arbitrary positions and the
//! [`NetworkCondition`] (G̃) for any hour.

use crate::terrain::TerrainModel;
use crate::weather::WeatherField;
use mobirescue_roadnet::damage::NetworkCondition;
use mobirescue_roadnet::geo::{BoundingBox, GeoPoint};
use mobirescue_roadnet::graph::RoadNetwork;
use serde::{Deserialize, Serialize};

/// Water depth (meters) above which a cell counts as a flood zone.
pub const FLOOD_DEPTH_M: f64 = 0.30;

/// Water depth above which a still-passable road is slowed.
pub const WET_DEPTH_M: f64 = 0.08;

/// Raster flood state over the whole scenario: `depth(cell, hour)`.
///
/// # Examples
///
/// ```
/// use mobirescue_disaster::flood::FloodField;
/// use mobirescue_disaster::hurricane::Hurricane;
/// use mobirescue_disaster::terrain::TerrainModel;
/// use mobirescue_disaster::weather::WeatherField;
/// use mobirescue_roadnet::geo::{BoundingBox, GeoPoint};
///
/// let center = GeoPoint::new(35.2271, -80.8431);
/// let bbox = BoundingBox::new(center.offset_m(-11_000.0, -11_000.0),
///                             center.offset_m(11_000.0, 11_000.0));
/// let terrain = TerrainModel::new(center, 1);
/// let weather = WeatherField::new(center, Hurricane::florence(), 1);
/// let flood = FloodField::compute(bbox, &terrain, &weather, 40);
/// assert!(!flood.is_flooded(center, 0), "dry before the storm");
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FloodField {
    bbox: BoundingBox,
    cols: usize,
    rows: usize,
    hours: u32,
    /// Water depth in meters, indexed `[hour * rows * cols + row * cols + col]`.
    depth: Vec<f32>,
}

impl FloodField {
    /// Runs the water-balance model on a `resolution × resolution` raster
    /// over `bbox` for the weather field's whole scenario.
    ///
    /// # Panics
    ///
    /// Panics if `resolution < 2`.
    pub fn compute(
        bbox: BoundingBox,
        terrain: &TerrainModel,
        weather: &WeatherField,
        resolution: usize,
    ) -> Self {
        assert!(resolution >= 2, "raster resolution must be at least 2");
        let hours = weather.hurricane().timeline.total_hours();
        let (cols, rows) = (resolution, resolution);
        let (width_m, height_m) = {
            let (e, n) = bbox.north_east.local_xy_m(bbox.south_west);
            (e, n)
        };

        // Precompute per-cell center position and altitude.
        let mut centers = Vec::with_capacity(rows * cols);
        let mut altitude = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                let east = (c as f64 + 0.5) / cols as f64 * width_m;
                let north = (r as f64 + 0.5) / rows as f64 * height_m;
                let p = bbox.south_west.offset_m(east, north);
                centers.push(p);
                altitude.push(terrain.altitude_m(p));
            }
        }
        let (alt_min, alt_max) = altitude
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &a| {
                (lo.min(a), hi.max(a))
            });
        let alt_span = (alt_max - alt_min).max(1.0);

        // Water balance: each hour, water += rain * runoff(alt);
        // water *= retention(alt). Low ground both collects more runoff and
        // drains more slowly, so it floods first and recovers last.
        let mut depth = vec![0f32; hours as usize * rows * cols];
        let mut water = vec![0f64; rows * cols];
        for h in 0..hours {
            for (i, (&p, &alt)) in centers.iter().zip(altitude.iter()).enumerate() {
                let lowness = 1.0 - (alt - alt_min) / alt_span; // 0 = highest, 1 = lowest
                let rain_m = weather.precipitation_mm_h(p, h) / 1000.0;
                let runoff = 0.4 + 6.0 * lowness * lowness;
                let retention = 0.90 + 0.07 * lowness; // hourly decay factor
                water[i] = (water[i] + rain_m * runoff) * retention;
                depth[h as usize * rows * cols + i] = water[i] as f32;
            }
        }
        Self {
            bbox,
            cols,
            rows,
            hours,
            depth,
        }
    }

    /// Scenario length in hours.
    pub fn hours(&self) -> u32 {
        self.hours
    }

    /// Raster bounding box.
    pub fn bbox(&self) -> BoundingBox {
        self.bbox
    }

    fn cell_index(&self, p: GeoPoint) -> usize {
        let (e, n) = p.local_xy_m(self.bbox.south_west);
        let (width_m, height_m) = {
            let (we, wn) = self.bbox.north_east.local_xy_m(self.bbox.south_west);
            (we, wn)
        };
        let c = ((e / width_m * self.cols as f64) as isize).clamp(0, self.cols as isize - 1);
        let r = ((n / height_m * self.rows as f64) as isize).clamp(0, self.rows as isize - 1);
        r as usize * self.cols + c as usize
    }

    /// Water depth at `p` during `hour`, meters. Positions outside the raster
    /// clamp to the nearest edge cell.
    ///
    /// # Panics
    ///
    /// Panics if `hour` is past the end of the scenario.
    pub fn depth_m(&self, p: GeoPoint, hour: u32) -> f64 {
        assert!(
            hour < self.hours,
            "hour {hour} outside scenario of {} hours",
            self.hours
        );
        self.depth[hour as usize * self.rows * self.cols + self.cell_index(p)] as f64
    }

    /// Whether `p` lies in a flood zone during `hour` (depth above
    /// [`FLOOD_DEPTH_M`]).
    ///
    /// # Panics
    ///
    /// Panics if `hour` is past the end of the scenario.
    pub fn is_flooded(&self, p: GeoPoint, hour: u32) -> bool {
        self.depth_m(p, hour) >= FLOOD_DEPTH_M
    }

    /// Fraction of raster cells flooded during `hour`.
    ///
    /// # Panics
    ///
    /// Panics if `hour` is past the end of the scenario.
    pub fn flooded_fraction(&self, hour: u32) -> f64 {
        assert!(hour < self.hours, "hour {hour} outside scenario");
        let base = hour as usize * self.rows * self.cols;
        let n = self.rows * self.cols;
        let flooded = (0..n)
            .filter(|i| self.depth[base + i] as f64 >= FLOOD_DEPTH_M)
            .count();
        flooded as f64 / n as f64
    }

    /// The remaining available network G̃ at `hour`: flooded segments are
    /// blocked, wet segments slowed proportionally to water depth.
    ///
    /// # Panics
    ///
    /// Panics if `hour` is past the end of the scenario.
    pub fn network_condition(&self, net: &RoadNetwork, hour: u32) -> NetworkCondition {
        let mut cond = NetworkCondition::pristine(net);
        for sid in net.segment_ids() {
            let depth = self.depth_m(net.segment_midpoint(sid), hour);
            if depth >= FLOOD_DEPTH_M {
                cond.block(sid);
            } else if depth >= WET_DEPTH_M {
                // Linear slowdown from 1.0 at WET_DEPTH to 0.35 at FLOOD_DEPTH.
                let x = (depth - WET_DEPTH_M) / (FLOOD_DEPTH_M - WET_DEPTH_M);
                cond.set_speed_factor(sid, 1.0 - 0.65 * x);
            }
        }
        cond
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hurricane::Hurricane;

    fn setup() -> (GeoPoint, FloodField) {
        let center = GeoPoint::new(35.2271, -80.8431);
        let bbox = BoundingBox::new(
            center.offset_m(-11_000.0, -11_000.0),
            center.offset_m(11_000.0, 11_000.0),
        );
        let terrain = TerrainModel::new(center, 1);
        let weather = WeatherField::new(center, Hurricane::florence(), 1);
        (center, FloodField::compute(bbox, &terrain, &weather, 40))
    }

    #[test]
    fn dry_before_disaster() {
        let (_, flood) = setup();
        for h in (0..10 * 24).step_by(7) {
            assert_eq!(flood.flooded_fraction(h), 0.0, "flooding at hour {h}");
        }
    }

    #[test]
    fn downtown_floods_during_disaster() {
        let (center, flood) = setup();
        let peak = Hurricane::florence().timeline.peak_hour();
        // By a day after the peak the downtown basin has accumulated water.
        assert!(
            flood.is_flooded(center, peak + 24),
            "downtown depth {} m",
            flood.depth_m(center, peak + 24)
        );
        let frac = flood.flooded_fraction(peak + 24);
        assert!(frac > 0.05 && frac < 0.9, "flooded fraction {frac}");
    }

    #[test]
    fn flooding_recedes_after_disaster() {
        let (_, flood) = setup();
        let tl = Hurricane::florence().timeline;
        let during = flood.flooded_fraction(tl.peak_hour() + 24);
        let after = flood.flooded_fraction((tl.disaster_end_day + 6) * 24);
        let much_later = flood.flooded_fraction(29 * 24);
        assert!(
            after < during,
            "no recovery: during {during}, after {after}"
        );
        assert!(much_later <= after);
    }

    #[test]
    fn flooding_persists_shortly_after_disaster() {
        // Figure 5: flow rates are still depressed on Sep 17–19, so some
        // flooding must persist past the disaster window.
        let (_, flood) = setup();
        let tl = Hurricane::florence().timeline;
        let day_after = flood.flooded_fraction((tl.disaster_end_day + 1) * 24);
        assert!(
            day_after > 0.01,
            "flooding vanished immediately: {day_after}"
        );
    }

    #[test]
    fn network_condition_blocks_flooded_segments() {
        let (center, flood) = setup();
        let city = mobirescue_roadnet::generator::CityConfig::small().build(5);
        let peak = Hurricane::florence().timeline.peak_hour();
        let cond = flood.network_condition(&city.network, peak + 24);
        assert!(
            cond.operable_count() < city.network.num_segments(),
            "nothing blocked"
        );
        for sid in city.network.segment_ids() {
            let depth = flood.depth_m(city.network.segment_midpoint(sid), peak + 24);
            assert_eq!(cond.is_operable(sid), depth < FLOOD_DEPTH_M);
        }
        let _ = center;
    }

    #[test]
    fn low_ground_floods_deeper_than_high_ground() {
        let (center, flood) = setup();
        let terrain = TerrainModel::new(center, 1);
        let peak = Hurricane::florence().timeline.peak_hour();
        // Downtown basin vs a far corner (higher ground on average).
        let high = center.offset_m(9_500.0, 9_500.0);
        if terrain.altitude_m(high) > terrain.altitude_m(center) + 20.0 {
            assert!(flood.depth_m(center, peak + 12) > flood.depth_m(high, peak + 12));
        }
    }

    #[test]
    #[should_panic(expected = "outside scenario")]
    fn hour_out_of_range_panics() {
        let (center, flood) = setup();
        let _ = flood.depth_m(center, 10_000);
    }
}
