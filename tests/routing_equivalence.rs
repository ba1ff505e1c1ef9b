//! Routing exact-equivalence pin: the CSR kernel and the cached
//! [`RoutePlanner`] must answer the same queries as the naive
//! adjacency-list Dijkstra of [`Router`], bit for bit.
//!
//! The workload replays the routing work of the paper's 5-minute dispatch
//! epochs on a 24×24 charlotte-like city at seed 7: Florence's peak hour
//! and the two hours after it, 4 epochs per hour. In each epoch 24 teams
//! score 40 candidate targets from a full shortest-path tree, route one
//! order and find their nearest hospital. Every path folds its answers
//! into one `f64` sum in the same order, so equal bits mean every travel
//! time agreed. The planner runs cold, prewarmed with 1 thread and with 4
//! (`parallel_map` spawns the 4 workers even on one core).
//!
//! The naive fold must also print as the committed `6707756.9620`: a
//! change there means routing *results* changed, not just their speed.

use mobirescue_disaster::hurricane::Hurricane;
use mobirescue_disaster::scenario::DisasterScenario;
use mobirescue_roadnet::damage::NetworkCondition;
use mobirescue_roadnet::generator::{City, CityConfig};
use mobirescue_roadnet::graph::{LandmarkId, RoadNetwork};
use mobirescue_roadnet::routing::Router;
use mobirescue_roadnet::{CsrGraph, RoutePlanner};

/// Teams routed per epoch (the medium scenario's fleet scale).
const TEAMS: usize = 24;
/// Candidate target landmarks scored by the cost matrix.
const TARGETS: usize = 40;
/// Dispatch epochs per damage generation (5-minute epochs, hourly flood
/// updates).
const EPOCHS_PER_HOUR: usize = 4;
/// Distinct flood hours replayed.
const HOURS: usize = 3;

struct Workload {
    teams: Vec<LandmarkId>,
    targets: Vec<LandmarkId>,
    hospitals: Vec<LandmarkId>,
    conditions: Vec<NetworkCondition>,
}

fn workload(city: &City) -> Workload {
    let net = &city.network;
    let scenario = DisasterScenario::new(city, Hurricane::florence(), 7);
    let peak = scenario.hurricane().timeline.peak_hour();
    let n = net.num_landmarks() as u32;
    Workload {
        teams: (0..TEAMS)
            .map(|i| LandmarkId((i as u32 * 37) % n))
            .collect(),
        targets: (0..TARGETS)
            .map(|i| LandmarkId((i as u32 * 61 + 5) % n))
            .collect(),
        hospitals: city.hospitals.clone(),
        conditions: (0..HOURS as u32)
            .map(|h| scenario.network_condition(net, peak + h))
            .collect(),
    }
}

/// One epoch through the per-call Dijkstra path.
fn epoch_naive(router: &Router<'_>, w: &Workload, cond: &NetworkCondition) -> f64 {
    let mut sum = 0.0;
    for (i, &loc) in w.teams.iter().enumerate() {
        let sp = router.shortest_paths_from(cond, loc);
        for &t in &w.targets {
            sum += sp.travel_time_s(t).unwrap_or(0.0);
        }
        if let Some(route) = router.shortest_path(cond, loc, w.targets[i % TARGETS]) {
            sum += route.travel_time_s;
        }
        if let Some((_, t)) = router.nearest_target(cond, loc, &w.hospitals) {
            sum += t;
        }
    }
    sum
}

/// One epoch through the CSR kernel without any tree reuse: each consumer
/// stage recomputes its trees over the epoch's cost snapshot.
fn epoch_csr(net: &RoadNetwork, csr: &CsrGraph, w: &Workload, cond: &NetworkCondition) -> f64 {
    let snap = csr.snapshot_condition(net, cond);
    let mut sum = 0.0;
    for (i, &loc) in w.teams.iter().enumerate() {
        let sp = csr.shortest_paths(&snap, loc);
        for &t in &w.targets {
            sum += sp.travel_time_s(t).unwrap_or(0.0);
        }
        let order = csr.shortest_paths(&snap, loc);
        if let Some(route) = order.route_to(net, w.targets[i % TARGETS]) {
            sum += route.travel_time_s;
        }
        let scan = csr.shortest_paths(&snap, loc);
        let best = w
            .hospitals
            .iter()
            .filter_map(|&h| scan.travel_time_s(h))
            .min_by(|a, b| a.partial_cmp(b).expect("travel times are never NaN"));
        if let Some(t) = best {
            sum += t;
        }
    }
    sum
}

/// One epoch through the shared planner: prewarm the fleet once, answer
/// every consumer from the cache.
fn epoch_cached(
    planner: &RoutePlanner<'_>,
    w: &Workload,
    cond: &NetworkCondition,
    threads: usize,
) -> f64 {
    planner.prewarm(cond, &w.teams, threads);
    let mut sum = 0.0;
    for (i, &loc) in w.teams.iter().enumerate() {
        let sp = planner.paths_from(cond, loc);
        for &t in &w.targets {
            sum += sp.travel_time_s(t).unwrap_or(0.0);
        }
        if let Some(route) = planner.route(cond, loc, w.targets[i % TARGETS]) {
            sum += route.travel_time_s;
        }
        if let Some((_, route)) = planner.nearest_route(cond, loc, &w.hospitals) {
            sum += route.travel_time_s;
        }
    }
    sum
}

/// Folds `epoch` over every epoch of every flood hour, in order.
fn fold(w: &Workload, mut epoch: impl FnMut(&NetworkCondition) -> f64) -> f64 {
    let mut sum = 0.0;
    for cond in &w.conditions {
        for _ in 0..EPOCHS_PER_HOUR {
            sum += epoch(cond);
        }
    }
    sum
}

#[test]
fn csr_and_planner_folds_match_naive_dijkstra_bit_for_bit() {
    let mut cfg = CityConfig::charlotte_like();
    cfg.grid_width = 24;
    cfg.grid_height = 24;
    let city = cfg.build(7);
    let net = &city.network;
    let w = workload(&city);

    let router = Router::new(net);
    let naive = fold(&w, |cond| epoch_naive(&router, &w, cond));
    assert_eq!(
        format!("{naive:.4}"),
        "6707756.9620",
        "naive routing results changed"
    );

    let csr = CsrGraph::build(net);
    let cached = |threads| {
        let planner = RoutePlanner::new(net);
        fold(&w, |cond| epoch_cached(&planner, &w, cond, threads))
    };
    for (name, sum) in [
        ("csr", fold(&w, |cond| epoch_csr(net, &csr, &w, cond))),
        ("planner, 1 thread", cached(1)),
        ("planner, 4 threads", cached(4)),
    ] {
        assert_eq!(
            sum.to_bits(),
            naive.to_bits(),
            "{name} diverged from naive: {sum} vs {naive}"
        );
    }
}
