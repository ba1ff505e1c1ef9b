//! Property-based tests for the multi-district metro generator.
//!
//! Single-district cities are pinned byte-for-byte by the golden
//! fixtures and the root package's `tests/city_equivalence.rs`; these
//! properties cover multi-district layouts (`districts_x * districts_y >
//! 1`), which draw from their own RNG stream. Randomized cases use
//! small district grids to keep each build cheap; the pinned test at the
//! bottom asserts the full `metro` preset hits its scale targets.

use mobirescue_roadnet::connectivity::strongly_connected_components;
use mobirescue_roadnet::generator::CityConfig;
use mobirescue_roadnet::graph::LandmarkId;
use mobirescue_roadnet::routing::FreeFlow;
use mobirescue_roadnet::CsrGraph;
use proptest::prelude::*;

/// A small multi-district config driven by proptest inputs.
fn district_config(
    grid: usize,
    districts_x: usize,
    districts_y: usize,
    gap_m: f64,
    one_way_fraction: f64,
) -> CityConfig {
    let mut cfg = CityConfig::small();
    cfg.grid_width = grid;
    cfg.grid_height = grid;
    cfg.districts_x = districts_x;
    cfg.districts_y = districts_y;
    cfg.district_gap_m = gap_m;
    cfg.one_way_fraction = one_way_fraction;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The same seed always produces the same metro: landmark positions,
    /// segment topology, hospitals, and depot are all identical.
    #[test]
    fn metro_build_is_deterministic(
        seed in 0u64..1_000,
        grid in 6usize..12,
        dx in 1usize..4,
        dy in 2usize..4,
        gap_m in 600.0f64..4_000.0,
    ) {
        let cfg = district_config(grid, dx, dy, gap_m, 0.2);
        let a = cfg.build(seed);
        let b = cfg.build(seed);
        prop_assert_eq!(a.network.num_landmarks(), b.network.num_landmarks());
        prop_assert_eq!(a.network.num_segments(), b.network.num_segments());
        for lm in a.network.landmark_ids() {
            prop_assert_eq!(
                a.network.landmark(lm).position,
                b.network.landmark(lm).position
            );
        }
        let segs_a: Vec<_> = a.network.segments().map(|s| (s.from, s.to, s.class)).collect();
        let segs_b: Vec<_> = b.network.segments().map(|s| (s.from, s.to, s.class)).collect();
        prop_assert_eq!(segs_a, segs_b);
        prop_assert_eq!(&a.hospitals, &b.hospitals);
        prop_assert_eq!(a.depot, b.depot);
    }

    /// Structural soundness of every generated metro: the expected
    /// landmark count, no dangling segment endpoints, no self-loops,
    /// positive segment lengths, and strong connectivity across district
    /// boundaries even with one-way residential streets.
    #[test]
    fn metro_structure_is_sound(
        seed in 0u64..1_000,
        grid in 6usize..12,
        dx in 1usize..4,
        dy in 2usize..4,
        one_way_fraction in 0.0f64..0.5,
    ) {
        let cfg = district_config(grid, dx, dy, 1_000.0, one_way_fraction);
        let city = cfg.build(seed);
        let n = city.network.num_landmarks();
        prop_assert_eq!(n, grid * grid * dx * dy);
        for s in city.network.segments() {
            prop_assert!(s.from.index() < n, "dangling from endpoint {}", s.from);
            prop_assert!(s.to.index() < n, "dangling to endpoint {}", s.to);
            prop_assert!(s.from != s.to, "self-loop at {}", s.from);
            prop_assert!(s.length_m > 0.0, "non-positive length on {}", s.id);
        }
        let (_, count) = strongly_connected_components(&city.network, &FreeFlow);
        prop_assert_eq!(count, 1, "metro fragmented into {} components", count);
        for r in city.regions.region_ids() {
            prop_assert!(
                !city.regions.landmarks_in(r).is_empty(),
                "{} has no landmarks", r
            );
        }
        let mut covered = vec![false; city.regions.num_regions()];
        for &h in &city.hospitals {
            covered[city.regions.of_landmark(h).index()] = true;
        }
        prop_assert!(covered.iter().all(|&c| c), "regions without hospital: {:?}", covered);
    }

    /// The CSR acceleration layer round-trips the multi-district topology:
    /// full-tree distances from the depot equal the naive router's, so the
    /// district connectors survive the CSR rebuild bit-for-bit.
    #[test]
    fn metro_csr_round_trips(seed in 0u64..200, grid in 6usize..10) {
        let cfg = district_config(grid, 2, 2, 1_200.0, 0.2);
        let city = cfg.build(seed);
        let net = &city.network;
        let naive = mobirescue_roadnet::routing::Router::new(net)
            .shortest_paths_from(&FreeFlow, city.depot);
        let csr = CsrGraph::build(net);
        let pristine = mobirescue_roadnet::NetworkCondition::pristine(net);
        let fast = csr.shortest_paths(&csr.snapshot_condition(net, &pristine), city.depot);
        prop_assert_eq!(naive.travel_times(), fast.travel_times());
    }

    /// Districts are spatially disjoint: the gap between adjacent
    /// districts keeps every cross-district landmark pair farther apart
    /// than the in-district spacing, so the layout really is a metro of
    /// separated grids rather than one smeared blob.
    #[test]
    fn district_gaps_separate_the_grids(seed in 0u64..200, grid in 6usize..10) {
        let gap_m = 3_000.0;
        let cfg = district_config(grid, 2, 1, gap_m, 0.0);
        let city = cfg.build(seed);
        let per_district = grid * grid;
        // Landmarks are added district-by-district, so the first
        // `per_district` ids are district (0,0), the next are (1,0).
        let west = city.network.landmark(LandmarkId(0)).position;
        let min_cross = (0..per_district)
            .flat_map(|a| {
                (per_district..2 * per_district).map(move |b| (a as u32, b as u32))
            })
            .map(|(a, b)| {
                city.network
                    .landmark(LandmarkId(a))
                    .position
                    .distance_m(city.network.landmark(LandmarkId(b)).position)
            })
            .fold(f64::INFINITY, f64::min);
        // Jitter can eat into the gap from both sides, never more than
        // 2 * position_jitter_m.
        let jitter = cfg.position_jitter_m;
        prop_assert!(
            min_cross >= gap_m - 2.0 * jitter,
            "districts overlap: min cross-district distance {min_cross} m (gap {gap_m} m)"
        );
        // Sanity: the reference landmark is a real position, not NaN.
        prop_assert!(west.lat.is_finite() && west.lon.is_finite());
    }
}

/// The `metro` preset delivers the promised scale: ≥100k directed
/// segments over 25,600 landmarks, strongly connected, with every region
/// populated — and two builds from the same seed are identical.
#[test]
fn metro_preset_hits_scale_targets() {
    let cfg = CityConfig::metro();
    let city = cfg.build(7);
    assert_eq!(city.network.num_landmarks(), 80 * 80 * 4);
    assert!(
        city.network.num_segments() >= 100_000,
        "metro preset only has {} segments",
        city.network.num_segments()
    );
    let (_, count) = strongly_connected_components(&city.network, &FreeFlow);
    assert_eq!(count, 1, "metro fragmented");
    for r in city.regions.region_ids() {
        assert!(!city.regions.landmarks_in(r).is_empty(), "{r} is empty");
    }
    let again = cfg.build(7);
    assert_eq!(city.network.num_segments(), again.network.num_segments());
    let probe = LandmarkId((city.network.num_landmarks() / 2) as u32);
    assert_eq!(
        city.network.landmark(probe).position,
        again.network.landmark(probe).position
    );
    assert_eq!(city.hospitals, again.hospitals);
}
