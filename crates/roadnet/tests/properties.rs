//! Property-based tests for the road-network substrate.

use mobirescue_roadnet::damage::NetworkCondition;
use mobirescue_roadnet::generator::CityConfig;
use mobirescue_roadnet::geo::GeoPoint;
use mobirescue_roadnet::graph::{LandmarkId, RoadNetwork, SegmentId};
use mobirescue_roadnet::routing::{FreeFlow, Router};
use mobirescue_roadnet::{CsrGraph, RoutePlanner};
use proptest::prelude::*;

/// Applies a reproducible random damage pattern: `blocked` segments are cut
/// and `slowed` segments run at a reduced speed factor.
fn damaged_condition(
    net: &RoadNetwork,
    blocked: &[u32],
    slowed: &[(u32, f64)],
) -> NetworkCondition {
    let num_segs = net.num_segments() as u32;
    let mut cond = NetworkCondition::pristine(net);
    for &s in blocked {
        cond.block(SegmentId(s % num_segs));
    }
    for &(s, f) in slowed {
        cond.set_speed_factor(SegmentId(s % num_segs), f);
    }
    cond
}

/// One point query and one nearest query of `planner` against the naive
/// router: the nearest index and time equal [`Router::nearest_target`], and
/// its route equals [`Router::shortest_path`] to that target.
fn assert_planner_matches_router(
    planner: &RoutePlanner<'_>,
    router: &Router<'_>,
    cond: &NetworkCondition,
    from: LandmarkId,
    to: LandmarkId,
    targets: &[LandmarkId],
) {
    assert_eq!(
        planner.route(cond, from, to),
        router.shortest_path(cond, from, to)
    );
    let nearest = planner.nearest_route(cond, from, targets);
    assert_eq!(
        nearest.as_ref().map(|(i, route)| (*i, route.travel_time_s)),
        router.nearest_target(cond, from, targets)
    );
    if let Some((i, route)) = nearest {
        assert_eq!(Some(route), router.shortest_path(cond, from, targets[i]));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Haversine distance is a metric: symmetric, zero iff equal (for
    /// distinct city-scale points), and satisfies the triangle inequality.
    #[test]
    fn haversine_is_a_metric(
        lat1 in 34.0f64..37.0, lon1 in -82.0f64..-78.0,
        lat2 in 34.0f64..37.0, lon2 in -82.0f64..-78.0,
        lat3 in 34.0f64..37.0, lon3 in -82.0f64..-78.0,
    ) {
        let a = GeoPoint::new(lat1, lon1);
        let b = GeoPoint::new(lat2, lon2);
        let c = GeoPoint::new(lat3, lon3);
        prop_assert!((a.distance_m(b) - b.distance_m(a)).abs() < 1e-6);
        prop_assert!(a.distance_m(b) >= 0.0);
        prop_assert!(a.distance_m(c) <= a.distance_m(b) + b.distance_m(c) + 1e-6);
    }

    /// offset_m followed by local_xy_m round-trips within a meter.
    #[test]
    fn offset_round_trip(
        east in -20_000.0f64..20_000.0,
        north in -20_000.0f64..20_000.0,
    ) {
        let origin = GeoPoint::new(35.2271, -80.8431);
        let moved = origin.offset_m(east, north);
        let (e, n) = moved.local_xy_m(origin);
        prop_assert!((e - east).abs() < 1.0, "east {e} vs {east}");
        prop_assert!((n - north).abs() < 1.0, "north {n} vs {north}");
    }

    /// Every shortest route is contiguous, starts/ends correctly, and its
    /// reported travel time matches the sum over its segments.
    #[test]
    fn routes_are_valid(seed in 0u64..1_000, from in 0u32..144, to in 0u32..144) {
        let city = CityConfig::small().build(seed);
        let n = city.network.num_landmarks() as u32;
        let from = LandmarkId(from % n);
        let to = LandmarkId(to % n);
        let router = Router::new(&city.network);
        let route = router.shortest_path(&FreeFlow, from, to).expect("grid is connected");
        prop_assert_eq!(*route.landmarks.first().unwrap(), from);
        prop_assert_eq!(*route.landmarks.last().unwrap(), to);
        let mut t = 0.0;
        let mut cur = from;
        for &sid in &route.segments {
            let seg = city.network.segment(sid);
            prop_assert_eq!(seg.from, cur);
            cur = seg.to;
            t += seg.free_flow_time_s();
        }
        prop_assert_eq!(cur, to);
        prop_assert!((t - route.travel_time_s).abs() < 1e-6);
    }

    /// Shortest-path travel times satisfy the triangle inequality through
    /// any intermediate landmark.
    #[test]
    fn dijkstra_triangle_inequality(seed in 0u64..100, mid in 0u32..144) {
        let city = CityConfig::small().build(seed);
        let n = city.network.num_landmarks() as u32;
        let mid = LandmarkId(mid % n);
        let router = Router::new(&city.network);
        let from_depot = router.shortest_paths_from(&FreeFlow, city.depot);
        let from_mid = router.shortest_paths_from(&FreeFlow, mid);
        for lm in city.network.landmark_ids() {
            let direct = from_depot.travel_time_s(lm).unwrap();
            let via = from_depot.travel_time_s(mid).unwrap() + from_mid.travel_time_s(lm).unwrap();
            prop_assert!(direct <= via + 1e-6);
        }
    }

    /// Blocking segments never shortens any shortest path (monotonicity of
    /// damage), and blocked segments never appear in a route.
    #[test]
    fn damage_is_monotone(seed in 0u64..100, blocked in prop::collection::vec(0u32..500, 0..40)) {
        let city = CityConfig::small().build(seed);
        let num_segs = city.network.num_segments() as u32;
        let mut cond = NetworkCondition::pristine(&city.network);
        let blocked: Vec<SegmentId> =
            blocked.into_iter().map(|s| SegmentId(s % num_segs)).collect();
        for &s in &blocked {
            cond.block(s);
        }
        let router = Router::new(&city.network);
        let pristine = router.shortest_paths_from(&FreeFlow, city.depot);
        let damaged = router.shortest_paths_from(&cond, city.depot);
        for lm in city.network.landmark_ids() {
            let before = pristine.travel_time_s(lm).unwrap();
            if let Some(after) = damaged.travel_time_s(lm) {
                prop_assert!(after + 1e-9 >= before);
            } // unreachable after damage is fine
            if let Some(route) = damaged.route_to(&city.network, lm) {
                for sid in route.segments {
                    prop_assert!(cond.is_operable(sid), "route uses blocked {sid}");
                }
            }
        }
    }

    /// The CSR full-tree Dijkstra is *bit-identical* to the naive adjacency
    /// Dijkstra on arbitrary networks under arbitrary damage — the exact
    /// equivalence contract of the acceleration layer. Distances are
    /// compared with `==`, not a tolerance.
    #[test]
    fn csr_tree_bit_identical_to_naive(
        seed in 0u64..100,
        source in 0u32..10_000,
        blocked in prop::collection::vec(0u32..10_000, 0..40),
        slowed in prop::collection::vec((0u32..10_000, 0.05f64..1.0), 0..20),
    ) {
        let city = CityConfig::small().build(seed);
        let net = &city.network;
        let cond = damaged_condition(net, &blocked, &slowed);
        let from = LandmarkId(source % net.num_landmarks() as u32);
        let naive = Router::new(net).shortest_paths_from(&cond, from);
        let csr = CsrGraph::build(net);
        let fast = csr.shortest_paths(&csr.snapshot_condition(net, &cond), from);
        prop_assert_eq!(naive.travel_times(), fast.travel_times());
        for lm in net.landmark_ids() {
            prop_assert_eq!(naive.route_to(net, lm), fast.route_to(net, lm));
        }
    }

    /// Planner point queries (early-exit Dijkstra or cached tree) and
    /// nearest-target queries (nearest-rule early exit) return exactly what
    /// the naive router returns. One planner answers every query, cold ones
    /// from several sources in one reused workspace with generation bumps
    /// in between, then warm ones from a cached tree.
    #[test]
    fn planner_queries_match_naive_router(
        seed in 0u64..100,
        sources in prop::collection::vec(0u32..10_000, 1..6),
        to in 0u32..10_000,
        targets in prop::collection::vec(0u32..10_000, 0..12),
        blocked in prop::collection::vec(0u32..10_000, 0..40),
        cut_off in 0u32..10_000,
        bumps in prop::collection::vec(0u32..10_000, 1..6),
    ) {
        let city = CityConfig::small().build(seed);
        let net = &city.network;
        let n = net.num_landmarks() as u32;
        let num_segs = net.num_segments() as u32;
        let mut cond = damaged_condition(net, &blocked, &[]);
        // A target whose in-segments are all blocked, and a duplicate.
        let cut_off = LandmarkId(cut_off % n);
        for &sid in net.in_segments(cut_off) {
            cond.block(sid);
        }
        let mut targets: Vec<LandmarkId> =
            targets.into_iter().map(|t| LandmarkId(t % n)).collect();
        targets.push(cut_off);
        targets.push(targets[0]);
        let to = LandmarkId(to % n);
        let router = Router::new(net);
        let planner = RoutePlanner::new(net);
        let sources: Vec<LandmarkId> =
            sources.into_iter().map(|s| LandmarkId(s % n)).collect();
        for (k, &from) in sources.iter().enumerate() {
            if k % 2 == 1 {
                cond.block(SegmentId(bumps[k % bumps.len()] % num_segs));
            }
            // `from` itself as a target, then the list without it.
            let mut with_from = targets.clone();
            with_from.insert(k % with_from.len(), from);
            assert_planner_matches_router(&planner, &router, &cond, from, to, &with_from);
            assert_planner_matches_router(&planner, &router, &cond, from, to, &targets);
        }
        // Warm pass: the same queries served from the cached full tree.
        let from = sources[0];
        planner.prewarm(&cond, &[from], 2);
        assert_planner_matches_router(&planner, &router, &cond, from, to, &targets);
    }

    /// Mutating the condition (a generation bump) invalidates the cache and
    /// every post-bump answer matches a fresh naive run on the mutated
    /// network — stale trees can never leak across damage events.
    #[test]
    fn generation_bump_keeps_cache_coherent(
        seed in 0u64..100,
        source in 0u32..10_000,
        first in prop::collection::vec(0u32..10_000, 0..25),
        second in prop::collection::vec(0u32..10_000, 1..25),
    ) {
        let city = CityConfig::small().build(seed);
        let net = &city.network;
        let num_segs = net.num_segments() as u32;
        let from = LandmarkId(source % net.num_landmarks() as u32);
        let router = Router::new(net);
        let planner = RoutePlanner::new(net);
        let mut cond = damaged_condition(net, &first, &[]);
        let before = planner.paths_from(&cond, from);
        prop_assert_eq!(
            router.shortest_paths_from(&cond, from).travel_times(),
            before.travel_times()
        );
        for &s in &second {
            cond.block(SegmentId(s % num_segs));
        }
        let after = planner.paths_from(&cond, from);
        prop_assert_eq!(
            router.shortest_paths_from(&cond, from).travel_times(),
            after.travel_times()
        );
    }

    /// Parallel prewarm over any thread count yields the same cached trees
    /// as sequential routing — the fan-out changes wall-clock only, never
    /// results.
    #[test]
    fn parallel_prewarm_matches_sequential(
        seed in 0u64..100,
        sources in prop::collection::vec(0u32..10_000, 1..16),
        threads in 1usize..8,
        blocked in prop::collection::vec(0u32..10_000, 0..30),
    ) {
        let city = CityConfig::small().build(seed);
        let net = &city.network;
        let n = net.num_landmarks() as u32;
        let cond = damaged_condition(net, &blocked, &[]);
        let sources: Vec<LandmarkId> =
            sources.into_iter().map(|s| LandmarkId(s % n)).collect();
        let planner = RoutePlanner::new(net);
        planner.prewarm(&cond, &sources, threads);
        let router = Router::new(net);
        for &from in &sources {
            prop_assert_eq!(
                router.shortest_paths_from(&cond, from).travel_times(),
                planner.paths_from(&cond, from).travel_times()
            );
        }
    }
}
