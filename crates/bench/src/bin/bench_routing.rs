//! Machine-readable per-epoch routing benchmark (`BENCH_routing.json`).
//!
//! Replays the routing work one dispatch epoch performs on the medium
//! charlotte-like scenario — the cost-matrix shortest-path trees, the
//! point routes of the issued orders, and the nearest-hospital scans —
//! through three implementations:
//!
//! * `naive`: the pre-acceleration code path — a fresh adjacency-list
//!   Dijkstra per query, as the seed's dispatchers and engine did;
//! * `csr`: the flat CSR kernel with an epoch-scoped cost snapshot but no
//!   tree reuse across consumers;
//! * `cached_single_thread` / `cached_parallel`: the [`RoutePlanner`] —
//!   CSR + SSSP cache, prewarmed with one thread or the machine's cores.
//!
//! Every variant folds its answers into a checksum and the run aborts if
//! any disagree, so the timings below are over provably identical results.

use mobirescue_disaster::hurricane::Hurricane;
use mobirescue_disaster::scenario::DisasterScenario;
use mobirescue_roadnet::damage::NetworkCondition;
use mobirescue_roadnet::generator::CityConfig;
use mobirescue_roadnet::graph::{LandmarkId, RoadNetwork};
use mobirescue_roadnet::routing::Router;
use mobirescue_roadnet::{pool, CsrGraph, RoutePlanner};
use std::time::Instant;

/// Teams routed per epoch (the medium scenario's fleet scale).
const TEAMS: usize = 24;
/// Candidate target landmarks scored by the cost matrix.
const TARGETS: usize = 40;
/// Dispatch epochs per damage generation (5-minute epochs, hourly flood
/// updates).
const EPOCHS_PER_HOUR: usize = 4;
/// Distinct flood hours replayed.
const HOURS: usize = 3;
/// Timed repetitions; the median is reported.
const REPS: usize = 5;

struct Workload {
    teams: Vec<LandmarkId>,
    targets: Vec<LandmarkId>,
    hospitals: Vec<LandmarkId>,
    conditions: Vec<NetworkCondition>,
}

fn workload(net: &RoadNetwork, city: &mobirescue_roadnet::generator::City) -> Workload {
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

/// One epoch through the seed's per-call Dijkstra path.
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

/// Times `rep` over [`REPS`] runs and returns (median seconds, checksum).
fn measure(mut rep: impl FnMut() -> f64) -> (f64, f64) {
    let mut times = Vec::with_capacity(REPS);
    let mut sum = 0.0;
    for _ in 0..REPS {
        let t0 = Instant::now();
        sum = rep();
        times.push(t0.elapsed().as_secs_f64());
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("durations are never NaN"));
    (times[REPS / 2], sum)
}

fn main() {
    let mut cfg = CityConfig::charlotte_like();
    cfg.grid_width = 24;
    cfg.grid_height = 24;
    let city = cfg.build(7);
    let net = &city.network;
    let w = workload(net, &city);
    let cores = pool::available_threads();

    let router = Router::new(net);
    let (naive_s, naive_sum) = measure(|| {
        let mut sum = 0.0;
        for cond in &w.conditions {
            for _ in 0..EPOCHS_PER_HOUR {
                sum += epoch_naive(&router, &w, cond);
            }
        }
        sum
    });

    let csr = CsrGraph::build(net);
    let (csr_s, csr_sum) = measure(|| {
        let mut sum = 0.0;
        for cond in &w.conditions {
            for _ in 0..EPOCHS_PER_HOUR {
                sum += epoch_csr(net, &csr, &w, cond);
            }
        }
        sum
    });

    // Fresh planner per rep: every rep starts cold and pays the misses of
    // each hour's generation itself.
    let (cached1_s, cached1_sum) = measure(|| {
        let planner = RoutePlanner::new(net);
        let mut sum = 0.0;
        for cond in &w.conditions {
            for _ in 0..EPOCHS_PER_HOUR {
                sum += epoch_cached(&planner, &w, cond, 1);
            }
        }
        sum
    });
    let (cachedn_s, cachedn_sum) = measure(|| {
        let planner = RoutePlanner::new(net);
        let mut sum = 0.0;
        for cond in &w.conditions {
            for _ in 0..EPOCHS_PER_HOUR {
                sum += epoch_cached(&planner, &w, cond, cores);
            }
        }
        sum
    });

    // The equivalence contract, enforced at benchmark time: nearest-scan
    // folding differs only in iteration shape, so sums must agree exactly
    // enough to rule out a divergent route or distance.
    for (name, sum) in [
        ("csr", csr_sum),
        ("cached_single_thread", cached1_sum),
        ("cached_parallel", cachedn_sum),
    ] {
        assert!(
            (sum - naive_sum).abs() <= naive_sum.abs() * 1e-12,
            "{name} diverged from naive: {sum} vs {naive_sum}"
        );
    }

    let epochs = (HOURS * EPOCHS_PER_HOUR) as f64;
    println!("{{");
    println!("  \"scenario\": \"charlotte_like_medium_24x24_florence_peak\",");
    println!(
        "  \"landmarks\": {}, \"segments\": {}, \"cores\": {},",
        net.num_landmarks(),
        net.num_segments(),
        cores
    );
    println!(
        "  \"teams\": {TEAMS}, \"targets\": {TARGETS}, \"hours\": {HOURS}, \"epochs_per_hour\": {EPOCHS_PER_HOUR}, \"reps\": {REPS},"
    );
    println!("  \"per_epoch_ms\": {{");
    println!("    \"naive\": {:.4},", naive_s * 1e3 / epochs);
    println!("    \"csr\": {:.4},", csr_s * 1e3 / epochs);
    println!(
        "    \"cached_single_thread\": {:.4},",
        cached1_s * 1e3 / epochs
    );
    println!("    \"cached_parallel\": {:.4}", cachedn_s * 1e3 / epochs);
    println!("  }},");
    println!("  \"speedup_vs_naive\": {{");
    println!("    \"csr\": {:.2},", naive_s / csr_s);
    println!("    \"cached_single_thread\": {:.2},", naive_s / cached1_s);
    println!("    \"cached_parallel\": {:.2}", naive_s / cachedn_s);
    println!("  }},");
    // The checksum is the naive variant's folded travel-time sum: pure
    // arithmetic over the seeded scenario in a fixed order, so it is
    // machine-independent. `scripts/check_bench.sh` compares it against
    // the committed baseline — a mismatch means routing *results*
    // changed, not just timings.
    println!("  \"checksum\": {naive_sum:.4},");
    println!("  \"results_identical\": true");
    println!("}}");
}
