//! Procedural city generation.
//!
//! The paper builds its road network from OpenStreetMap data for Charlotte,
//! NC, partitioned into the 7 City Council districts, with rescue teams
//! stationed at the city's hospitals. That data is not redistributable, so
//! [`CityConfig`] procedurally generates a Charlotte-like city instead: a
//! jittered grid of residential streets with arterial corridors and central
//! motorways, a radial 7-region partition whose central region is the dense
//! downtown (the paper's heavily-impacted "Region 3"), hospitals spread over
//! the regions, and a central dispatch depot.

use crate::geo::GeoPoint;
use crate::graph::{LandmarkId, RoadClass, RoadNetwork};
use crate::regions::{RegionId, RegionPartition};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Charlotte city center, used as the default generation origin.
pub const CHARLOTTE_CENTER: GeoPoint = GeoPoint {
    lat: 35.2271,
    lon: -80.8431,
};

/// Configuration for the procedural city generator.
///
/// # Examples
///
/// ```
/// use mobirescue_roadnet::generator::CityConfig;
///
/// let city = CityConfig::small().build(7);
/// assert_eq!(city.regions.num_regions(), 7);
/// assert!(!city.hospitals.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CityConfig {
    /// Geographic center of the generated city.
    pub center: GeoPoint,
    /// Landmarks along the east-west axis.
    pub grid_width: usize,
    /// Landmarks along the north-south axis.
    pub grid_height: usize,
    /// Nominal spacing between adjacent landmarks, meters.
    pub spacing_m: f64,
    /// Uniform jitter applied to each landmark position, meters.
    pub position_jitter_m: f64,
    /// Number of regions in the partition (the paper uses 7).
    pub num_regions: usize,
    /// Radius of the central downtown region, meters.
    pub downtown_radius_m: f64,
    /// Every `arterial_every`-th row/column is an arterial corridor.
    pub arterial_every: usize,
    /// Hospitals generated per region.
    pub hospitals_per_region: usize,
    /// Fraction of residential street pairs generated as one-way streets.
    /// Strong connectivity is repaired afterwards, so any value in
    /// `[0, 1]` yields a drivable city. Defaults to `0.0` (all two-way).
    pub one_way_fraction: f64,
    /// Districts along the east-west axis. With `districts_x * districts_y
    /// == 1` (the default) the generator emits the classic single-district
    /// grid; more districts tile `districts_x × districts_y` copies of the
    /// grid, each with its own arterial/motorway pattern, joined by
    /// motorway/arterial connectors across the district gaps — the
    /// metro-scale "grid-plus-arterials" layout.
    pub districts_x: usize,
    /// Districts along the north-south axis.
    pub districts_y: usize,
    /// Gap between adjacent districts, meters (spanned by the connectors).
    pub district_gap_m: f64,
}

impl CityConfig {
    /// A Charlotte-scale configuration: ~1300 landmarks, ~5000 directed
    /// segments, 7 regions.
    pub fn charlotte_like() -> Self {
        Self {
            center: CHARLOTTE_CENTER,
            grid_width: 36,
            grid_height: 36,
            spacing_m: 600.0,
            position_jitter_m: 90.0,
            num_regions: 7,
            downtown_radius_m: 3_000.0,
            arterial_every: 4,
            hospitals_per_region: 2,
            one_way_fraction: 0.0,
            districts_x: 1,
            districts_y: 1,
            district_gap_m: 0.0,
        }
    }

    /// A small configuration for tests and quickstarts: 12×12 landmarks.
    pub fn small() -> Self {
        Self {
            grid_width: 12,
            grid_height: 12,
            spacing_m: 600.0,
            downtown_radius_m: 1_500.0,
            hospitals_per_region: 1,
            ..Self::charlotte_like()
        }
    }

    /// A metro-scale configuration: 2×2 districts of 80×80 landmarks at
    /// 300 m spacing — 25,600 landmarks and ≈101k directed segments, the
    /// "city of millions" substrate.
    pub fn metro() -> Self {
        Self {
            grid_width: 80,
            grid_height: 80,
            spacing_m: 300.0,
            position_jitter_m: 60.0,
            num_regions: 13,
            downtown_radius_m: 4_000.0,
            hospitals_per_region: 3,
            districts_x: 2,
            districts_y: 2,
            district_gap_m: 1_200.0,
            ..Self::charlotte_like()
        }
    }

    /// Total districts in the layout.
    pub fn num_districts(&self) -> usize {
        self.districts_x * self.districts_y
    }

    /// Generates the city deterministically from `seed`:
    /// `districts_x × districts_y` jittered grids (each with the per-district
    /// arterial pattern and central motorway cross), joined across the
    /// district gaps by two-way connectors on every arterial row/column
    /// (motorway on the central row/column). Connectors on every district
    /// boundary keep the metro strongly connected whenever each district is.
    ///
    /// # Panics
    ///
    /// Panics if the grid is smaller than 3×3, `num_regions < 2`, or
    /// `arterial_every == 0`.
    // Index loops are the natural shape here: the connector passes pair
    // each district with its eastern/southern neighbor (`grids[dy][dx]`
    // vs `grids[dy][dx + 1]`), which iterators cannot express cleanly.
    #[allow(clippy::needless_range_loop)]
    pub fn build(&self, seed: u64) -> City {
        assert!(
            self.grid_width >= 3 && self.grid_height >= 3,
            "grid must be at least 3x3"
        );
        assert!(self.num_regions >= 2, "need at least two regions");
        assert!(self.arterial_every > 0, "arterial_every must be positive");
        assert!(
            self.districts_x >= 1 && self.districts_y >= 1,
            "district counts must be positive"
        );
        // Every layout runs the district generator below (a 1×1 layout is
        // the classic grid); only the RNG stream key still depends on the
        // district count, because single- and multi-district cities were
        // each blessed on their own stream.
        let stream = if self.num_districts() > 1 {
            0x6d65_7472_6f63_6974
        } else {
            0x6d6f_6269_7265_7363
        };
        let mut rng = StdRng::seed_from_u64(seed ^ stream);
        let mut network = RoadNetwork::new();
        let span_x = (self.grid_width - 1) as f64 * self.spacing_m;
        let span_y = (self.grid_height - 1) as f64 * self.spacing_m;
        let pitch_x = span_x + self.district_gap_m;
        let pitch_y = span_y + self.district_gap_m;
        // Center the whole city on `self.center`.
        let origin_e = -(span_x + (self.districts_x - 1) as f64 * pitch_x) / 2.0;
        let origin_n = -(span_y + (self.districts_y - 1) as f64 * pitch_y) / 2.0;

        let mid_r = self.grid_height / 2;
        let mid_c = self.grid_width / 2;
        let class_of = |r: usize, c: usize, horizontal: bool| -> RoadClass {
            if (horizontal && r == mid_r) || (!horizontal && c == mid_c) {
                RoadClass::Motorway
            } else if (horizontal && r.is_multiple_of(self.arterial_every))
                || (!horizontal && c.is_multiple_of(self.arterial_every))
            {
                RoadClass::Arterial
            } else {
                RoadClass::Residential
            }
        };
        // Row `r` hosts an inter-district connector (arterial grid line or
        // the central motorway).
        let connector_row =
            |r: usize| -> bool { r.is_multiple_of(self.arterial_every) || r == mid_r };
        let connector_class = |r: usize| -> RoadClass {
            if r == mid_r {
                RoadClass::Motorway
            } else {
                RoadClass::Arterial
            }
        };

        let mut skipped_reverses: Vec<(LandmarkId, LandmarkId, RoadClass)> = Vec::new();
        // grids[dy][dx][r][c]
        let mut grids: Vec<Vec<Vec<Vec<LandmarkId>>>> =
            vec![vec![Vec::new(); self.districts_x]; self.districts_y];
        for dy in 0..self.districts_y {
            for dx in 0..self.districts_x {
                let base_e = origin_e + dx as f64 * pitch_x;
                let base_n = origin_n + dy as f64 * pitch_y;
                let mut grid = vec![vec![LandmarkId(0); self.grid_width]; self.grid_height];
                for (r, row) in grid.iter_mut().enumerate() {
                    for (c, cell) in row.iter_mut().enumerate() {
                        let east = base_e
                            + c as f64 * self.spacing_m
                            + rng.random_range(-self.position_jitter_m..=self.position_jitter_m);
                        let north = base_n
                            + r as f64 * self.spacing_m
                            + rng.random_range(-self.position_jitter_m..=self.position_jitter_m);
                        *cell = network.add_landmark(self.center.offset_m(east, north));
                    }
                }
                for r in 0..self.grid_height {
                    for c in 0..self.grid_width {
                        if c + 1 < self.grid_width {
                            self.add_street(
                                &mut network,
                                &mut rng,
                                &mut skipped_reverses,
                                grid[r][c],
                                grid[r][c + 1],
                                class_of(r, c, true),
                            );
                        }
                        if r + 1 < self.grid_height {
                            self.add_street(
                                &mut network,
                                &mut rng,
                                &mut skipped_reverses,
                                grid[r][c],
                                grid[r + 1][c],
                                class_of(r, c, false),
                            );
                        }
                    }
                }
                grids[dy][dx] = grid;
            }
        }
        // East-west connectors between horizontally adjacent districts.
        for dy in 0..self.districts_y {
            for dx in 0..self.districts_x.saturating_sub(1) {
                for r in 0..self.grid_height {
                    if connector_row(r) {
                        let a = grids[dy][dx][r][self.grid_width - 1];
                        let b = grids[dy][dx + 1][r][0];
                        network.add_two_way(a, b, connector_class(r));
                    }
                }
            }
        }
        // North-south connectors between vertically adjacent districts.
        for dy in 0..self.districts_y.saturating_sub(1) {
            for dx in 0..self.districts_x {
                for c in 0..self.grid_width {
                    if connector_row(c) {
                        let a = grids[dy][dx][self.grid_height - 1][c];
                        let b = grids[dy + 1][dx][0][c];
                        network.add_two_way(a, b, connector_class(c));
                    }
                }
            }
        }
        self.repair_connectivity(&mut network, skipped_reverses);

        let regions = self.partition(&network);
        let hospitals = self.place_hospitals(&network, &regions, &mut rng);
        let depot = network
            .nearest_landmark(self.center)
            .expect("generated network is non-empty");

        City {
            network,
            regions,
            hospitals,
            depot,
            center: self.center,
        }
    }

    /// Adds one street between `a` and `b`, possibly one-way (residential
    /// only), recording skipped reverse directions as connectivity-repair
    /// candidates.
    fn add_street(
        &self,
        network: &mut RoadNetwork,
        rng: &mut StdRng,
        skipped_reverses: &mut Vec<(LandmarkId, LandmarkId, RoadClass)>,
        a: LandmarkId,
        b: LandmarkId,
        class: RoadClass,
    ) {
        let one_way = class == RoadClass::Residential
            && self.one_way_fraction > 0.0
            && rng.random_bool(self.one_way_fraction.clamp(0.0, 1.0));
        if one_way {
            let (from, to) = if rng.random_bool(0.5) { (a, b) } else { (b, a) };
            network.add_segment(from, to, class);
            skipped_reverses.push((to, from, class));
        } else {
            network.add_two_way(a, b, class);
        }
    }

    /// Restores strong connectivity after one-way conversion: while the
    /// network has more than one strongly connected component, add back the
    /// reverse of every one-way street whose endpoints lie in different
    /// components. Terminates because each pass strictly merges components
    /// (the all-two-way grid is strongly connected).
    fn repair_connectivity(
        &self,
        network: &mut RoadNetwork,
        mut candidates: Vec<(LandmarkId, LandmarkId, RoadClass)>,
    ) {
        use crate::connectivity::strongly_connected_components;
        use crate::routing::FreeFlow;
        loop {
            let (components, count) = strongly_connected_components(network, &FreeFlow);
            if count <= 1 || candidates.is_empty() {
                break;
            }
            let mut progressed = false;
            candidates.retain(|&(from, to, class)| {
                if components[from.index()] != components[to.index()] {
                    network.add_segment(from, to, class);
                    progressed = true;
                    false
                } else {
                    true
                }
            });
            if !progressed {
                // Remaining candidates all lie within components; restore
                // everything left to guarantee connectivity.
                for (from, to, class) in candidates.drain(..) {
                    network.add_segment(from, to, class);
                }
            }
        }
    }

    /// Radial partition: a central downtown disk plus equal angular sectors.
    fn partition(&self, network: &RoadNetwork) -> RegionPartition {
        let downtown = downtown_region_index(self.num_regions);
        let sectors = self.num_regions - 1;
        let assignment = network
            .landmarks()
            .map(|lm| {
                let (east, north) = lm.position.local_xy_m(self.center);
                if (east * east + north * north).sqrt() <= self.downtown_radius_m {
                    return RegionId(downtown as u8);
                }
                let angle = north.atan2(east).rem_euclid(std::f64::consts::TAU);
                let mut sector =
                    ((angle / std::f64::consts::TAU) * sectors as f64).floor() as usize;
                if sector >= sectors {
                    sector = sectors - 1;
                }
                // Skip over the downtown index so sector regions keep their
                // own ids.
                let id = if sector >= downtown {
                    sector + 1
                } else {
                    sector
                };
                RegionId(id as u8)
            })
            .collect();
        RegionPartition::new(network, self.num_regions, assignment)
    }

    /// One hospital near each region centroid, plus extras at random
    /// landmarks of the region.
    fn place_hospitals(
        &self,
        network: &RoadNetwork,
        regions: &RegionPartition,
        rng: &mut StdRng,
    ) -> Vec<LandmarkId> {
        let mut hospitals = Vec::new();
        for region in regions.region_ids() {
            let members = regions.landmarks_in(region);
            if members.is_empty() {
                continue;
            }
            let centroid_lat = members
                .iter()
                .map(|&lm| network.landmark(lm).position.lat)
                .sum::<f64>()
                / members.len() as f64;
            let centroid_lon = members
                .iter()
                .map(|&lm| network.landmark(lm).position.lon)
                .sum::<f64>()
                / members.len() as f64;
            let centroid = GeoPoint::new(centroid_lat, centroid_lon);
            let near_centroid = *members
                .iter()
                .min_by(|a, b| {
                    let da = network.landmark(**a).position.distance_m(centroid);
                    let db = network.landmark(**b).position.distance_m(centroid);
                    da.partial_cmp(&db).expect("distances are never NaN")
                })
                .expect("region is non-empty");
            hospitals.push(near_centroid);
            for _ in 1..self.hospitals_per_region {
                let pick = members[rng.random_range(0..members.len())];
                if !hospitals.contains(&pick) {
                    hospitals.push(pick);
                }
            }
        }
        hospitals
    }
}

/// Index of the downtown region: 2 (the paper's "Region 3") when there are at
/// least three regions, otherwise 0.
pub fn downtown_region_index(num_regions: usize) -> usize {
    if num_regions > 2 {
        2
    } else {
        0
    }
}

/// A generated city: network, region partition, hospitals and dispatch depot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct City {
    /// The road network `G = (V, E)`.
    pub network: RoadNetwork,
    /// Region partition (downtown = [`City::downtown_region`]).
    pub regions: RegionPartition,
    /// Landmarks hosting hospitals (rescue destinations and team bases).
    pub hospitals: Vec<LandmarkId>,
    /// The rescue-team dispatching center.
    pub depot: LandmarkId,
    /// Geographic center used during generation.
    pub center: GeoPoint,
}

impl City {
    /// The dense central region — the paper's most-impacted "Region 3".
    pub fn downtown_region(&self) -> RegionId {
        RegionId(downtown_region_index(self.regions.num_regions()) as u8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{FreeFlow, Router};

    #[test]
    fn build_is_deterministic() {
        let a = CityConfig::small().build(1);
        let b = CityConfig::small().build(1);
        assert_eq!(a.network.num_landmarks(), b.network.num_landmarks());
        assert_eq!(
            a.network.landmark(LandmarkId(5)).position,
            b.network.landmark(LandmarkId(5)).position
        );
        assert_eq!(a.hospitals, b.hospitals);
    }

    #[test]
    fn different_seeds_differ() {
        let a = CityConfig::small().build(1);
        let b = CityConfig::small().build(2);
        assert_ne!(
            a.network.landmark(LandmarkId(5)).position,
            b.network.landmark(LandmarkId(5)).position
        );
    }

    #[test]
    fn grid_is_strongly_connected() {
        let city = CityConfig::small().build(3);
        let router = Router::new(&city.network);
        let sp = router.shortest_paths_from(&FreeFlow, city.depot);
        for lm in city.network.landmark_ids() {
            assert!(
                sp.travel_time_s(lm).is_some(),
                "{lm} unreachable from depot"
            );
        }
        // And back: reachability of depot from an arbitrary far corner.
        let corner = LandmarkId(0);
        let back = router.shortest_path(&FreeFlow, corner, city.depot);
        assert!(back.is_some());
    }

    #[test]
    fn every_region_is_populated() {
        let city = CityConfig::charlotte_like().build(4);
        for r in city.regions.region_ids() {
            assert!(
                !city.regions.landmarks_in(r).is_empty(),
                "{r} has no landmarks"
            );
        }
    }

    #[test]
    fn downtown_region_is_central() {
        let city = CityConfig::charlotte_like().build(5);
        let downtown = city.downtown_region();
        for lm in city.regions.landmarks_in(downtown) {
            let (e, n) = city.network.landmark(lm).position.local_xy_m(city.center);
            let dist = (e * e + n * n).sqrt();
            assert!(
                dist <= CityConfig::charlotte_like().downtown_radius_m + 300.0,
                "downtown landmark {dist} m from center"
            );
        }
    }

    #[test]
    fn hospitals_cover_regions() {
        let city = CityConfig::charlotte_like().build(6);
        let mut covered = vec![false; city.regions.num_regions()];
        for &h in &city.hospitals {
            covered[city.regions.of_landmark(h).index()] = true;
        }
        assert!(
            covered.iter().all(|&c| c),
            "regions without hospital: {covered:?}"
        );
    }

    #[test]
    fn motorways_exist_and_are_central() {
        let city = CityConfig::small().build(7);
        let motorways: Vec<_> = city
            .network
            .segments()
            .filter(|s| s.class == RoadClass::Motorway)
            .collect();
        assert!(!motorways.is_empty());
    }

    #[test]
    fn depot_is_near_center() {
        let city = CityConfig::charlotte_like().build(8);
        let d = city
            .network
            .landmark(city.depot)
            .position
            .distance_m(city.center);
        assert!(d < 1_000.0, "depot {d} m from center");
    }

    #[test]
    #[should_panic(expected = "at least 3x3")]
    fn tiny_grid_rejected() {
        let mut cfg = CityConfig::small();
        cfg.grid_width = 2;
        let _ = cfg.build(0);
    }
}

#[cfg(test)]
mod one_way_tests {
    use super::*;
    use crate::connectivity::strongly_connected_components;
    use crate::routing::FreeFlow;
    use std::collections::HashSet;

    #[test]
    fn one_way_streets_keep_the_city_strongly_connected() {
        for seed in [1u64, 2, 3] {
            let mut cfg = CityConfig::small();
            cfg.one_way_fraction = 0.3;
            let city = cfg.build(seed);
            let (_, count) = strongly_connected_components(&city.network, &FreeFlow);
            assert_eq!(count, 1, "seed {seed}: city fragmented");
            // And some streets really are one-way.
            let pairs: HashSet<(u32, u32)> = city
                .network
                .segments()
                .map(|s| (s.from.0, s.to.0))
                .collect();
            let one_ways = city
                .network
                .segments()
                .filter(|s| !pairs.contains(&(s.to.0, s.from.0)))
                .count();
            assert!(
                one_ways > 5,
                "seed {seed}: only {one_ways} one-way streets survived"
            );
        }
    }

    #[test]
    fn zero_fraction_builds_all_two_way() {
        let city = CityConfig::small().build(4);
        let pairs: HashSet<(u32, u32)> = city
            .network
            .segments()
            .map(|s| (s.from.0, s.to.0))
            .collect();
        for s in city.network.segments() {
            assert!(
                pairs.contains(&(s.to.0, s.from.0)),
                "{} has no reverse",
                s.id
            );
        }
    }

    #[test]
    fn full_fraction_still_drivable() {
        let mut cfg = CityConfig::small();
        cfg.one_way_fraction = 1.0;
        let city = cfg.build(5);
        let (_, count) = strongly_connected_components(&city.network, &FreeFlow);
        assert_eq!(count, 1);
    }
}
