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
use mobirescue_roadnet::damage::{NetworkCondition, SegmentCondition};
use mobirescue_roadnet::geo::{BoundingBox, GeoPoint, LocalProjection};
use mobirescue_roadnet::graph::{RoadNetwork, SegmentId};
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
    /// Projection around the raster's south-west corner.
    projection: LocalProjection,
    /// Raster extent east and north of the south-west corner, meters.
    extent_m: (f64, f64),
    cols: usize,
    rows: usize,
    hours: u32,
    /// Water depth in meters, indexed `[hour * rows * cols + row * cols + col]`.
    depth: Vec<f32>,
    /// Whether any cell reaches [`FLOOD_DEPTH_M`], per hour.
    flooded_hours: Vec<bool>,
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
        let projection = LocalProjection::new(bbox.south_west);
        let (width_m, height_m) = projection.xy_m(bbox.north_east);

        // Precompute each cell's rain profile and altitude at its center.
        let mut profiles = Vec::with_capacity(rows * cols);
        let mut altitude = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                let east = (c as f64 + 0.5) / cols as f64 * width_m;
                let north = (r as f64 + 0.5) / rows as f64 * height_m;
                let p = projection.offset_m(east, north);
                profiles.push(weather.precipitation_profile(p));
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
        // drains more slowly, so it floods first and recovers last. Rain is
        // the hour's storm-wide scale times the cell's profile, the product
        // `WeatherField::precipitation_mm_h` takes.
        let mut depth = vec![0f32; hours as usize * rows * cols];
        let mut water = vec![0f64; rows * cols];
        let mut flooded_hours = Vec::with_capacity(hours as usize);
        for h in 0..hours {
            let scale = weather.precipitation_scale_mm_h(h);
            let hour_depth = &mut depth[h as usize * rows * cols..][..rows * cols];
            for (i, (&profile, &alt)) in profiles.iter().zip(altitude.iter()).enumerate() {
                let lowness = 1.0 - (alt - alt_min) / alt_span; // 0 = highest, 1 = lowest
                let rain_m = scale * profile / 1000.0;
                let runoff = 0.4 + 6.0 * lowness * lowness;
                let retention = 0.90 + 0.07 * lowness; // hourly decay factor
                water[i] = (water[i] + rain_m * runoff) * retention;
                hour_depth[i] = water[i] as f32;
            }
            flooded_hours.push(hour_depth.iter().any(|&d| d as f64 >= FLOOD_DEPTH_M));
        }
        Self {
            bbox,
            projection,
            extent_m: (width_m, height_m),
            cols,
            rows,
            hours,
            depth,
            flooded_hours,
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
        let (e, n) = self.projection.xy_m(p);
        let (width_m, height_m) = self.extent_m;
        let c = ((e / width_m * self.cols as f64) as isize).clamp(0, self.cols as isize - 1);
        let r = ((n / height_m * self.rows as f64) as isize).clamp(0, self.rows as isize - 1);
        r as usize * self.cols + c as usize
    }

    /// The raster's depths during `hour`, one per cell.
    ///
    /// # Panics
    ///
    /// Panics if `hour` is past the end of the scenario.
    fn hour_depths(&self, hour: u32) -> &[f32] {
        assert!(
            hour < self.hours,
            "hour {hour} outside scenario of {} hours",
            self.hours
        );
        let cells = self.rows * self.cols;
        &self.depth[hour as usize * cells..][..cells]
    }

    /// Water depth at `p` during `hour`, meters. Positions outside the raster
    /// clamp to the nearest edge cell.
    ///
    /// # Panics
    ///
    /// Panics if `hour` is past the end of the scenario.
    pub fn depth_m(&self, p: GeoPoint, hour: u32) -> f64 {
        self.hour_depths(hour)[self.cell_index(p)] as f64
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
        let depths = self.hour_depths(hour);
        let flooded = depths
            .iter()
            .filter(|&&d| d as f64 >= FLOOD_DEPTH_M)
            .count();
        flooded as f64 / depths.len() as f64
    }

    /// Whether any raster cell is in a flood zone during `hour`. When it is
    /// not, [`FloodField::is_flooded`] is false everywhere in that hour.
    ///
    /// # Panics
    ///
    /// Panics if `hour` is past the end of the scenario.
    pub fn any_cell_flooded(&self, hour: u32) -> bool {
        assert!(hour < self.hours, "hour {hour} outside scenario");
        self.flooded_hours[hour as usize]
    }

    /// The remaining available network G̃ at `hour`: flooded segments are
    /// blocked, wet segments slowed proportionally to water depth (see
    /// [`SegmentDamage::at`]).
    ///
    /// # Panics
    ///
    /// Panics if `hour` is past the end of the scenario.
    pub fn network_condition(&self, net: &RoadNetwork, hour: u32) -> NetworkCondition {
        NetworkCondition::from_changes(net.num_segments(), self.segment_damage(net).at(hour))
    }

    /// The flood's damage to the segments of `net`, hour by hour. Each
    /// segment's midpoint is mapped to its raster cell here, once.
    pub fn segment_damage(&self, net: &RoadNetwork) -> SegmentDamage<'_> {
        SegmentDamage {
            flood: self,
            cells: net
                .segment_ids()
                .map(|sid| self.cell_index(net.segment_midpoint(sid)))
                .collect(),
        }
    }
}

/// A [`FloodField`]'s damage to the segments of one network: the raster
/// cell of every segment's midpoint, read hour by hour.
#[derive(Debug, Clone)]
pub struct SegmentDamage<'a> {
    flood: &'a FloodField,
    /// Raster cell of each segment's midpoint, in segment order.
    cells: Vec<usize>,
}

impl SegmentDamage<'_> {
    /// The segments the water reaches during `hour`, in segment order,
    /// with their condition: a segment in a flood zone (depth at least
    /// [`FLOOD_DEPTH_M`]) is blocked, and a wet one (at least
    /// [`WET_DEPTH_M`]) slowed linearly from 1.0 at `WET_DEPTH_M` to 0.35
    /// at `FLOOD_DEPTH_M`. Every other segment is pristine.
    ///
    /// # Panics
    ///
    /// Panics if `hour` is past the end of the scenario.
    pub fn at(&self, hour: u32) -> impl Iterator<Item = (SegmentId, SegmentCondition)> + '_ {
        let depths = self.flood.hour_depths(hour);
        self.cells.iter().enumerate().filter_map(move |(i, &cell)| {
            let depth = depths[cell] as f64;
            let condition = if depth >= FLOOD_DEPTH_M {
                SegmentCondition {
                    operable: false,
                    speed_factor: 1.0,
                }
            } else if depth >= WET_DEPTH_M {
                let x = (depth - WET_DEPTH_M) / (FLOOD_DEPTH_M - WET_DEPTH_M);
                SegmentCondition {
                    operable: true,
                    speed_factor: 1.0 - 0.65 * x,
                }
            } else {
                return None;
            };
            Some((SegmentId(i as u32), condition))
        })
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
    fn flooded_hour_flags_match_the_flooded_fraction() {
        let center = GeoPoint::new(35.2271, -80.8431);
        let bbox = BoundingBox::new(
            center.offset_m(-11_000.0, -11_000.0),
            center.offset_m(11_000.0, 11_000.0),
        );
        let terrain = TerrainModel::new(center, 1);
        for hurricane in [Hurricane::florence(), Hurricane::michael()] {
            let weather = WeatherField::new(center, hurricane, 1);
            let flood = FloodField::compute(bbox, &terrain, &weather, 40);
            let mut flooded_hours = 0;
            for h in 0..flood.hours() {
                assert_eq!(flood.any_cell_flooded(h), flood.flooded_fraction(h) > 0.0);
                flooded_hours += usize::from(flood.any_cell_flooded(h));
            }
            assert!(flooded_hours > 0 && flooded_hours < flood.hours() as usize);
        }
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
