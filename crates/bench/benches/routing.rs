//! Routing acceleration layer micro-benchmarks: the naive adjacency-list
//! Dijkstra versus the CSR kernel, the epoch-scoped SSSP cache (cold and
//! warm), and the scoped-thread fan-out. All variants return bit-identical
//! results (see `crates/roadnet/tests/properties.rs`); these benches
//! measure only the time.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mobirescue_disaster::hurricane::Hurricane;
use mobirescue_disaster::scenario::DisasterScenario;
use mobirescue_roadnet::generator::CityConfig;
use mobirescue_roadnet::graph::LandmarkId;
use mobirescue_roadnet::routing::Router;
use mobirescue_roadnet::{pool, CsrGraph, RoutePlanner};
use std::hint::black_box;

const FAN_OUT: usize = 16;

fn bench_fan_out(c: &mut Criterion) {
    let city = CityConfig::charlotte_like().build(3);
    let net = &city.network;
    let scenario = DisasterScenario::new(&city, Hurricane::florence(), 3);
    let peak = scenario.hurricane().timeline.peak_hour();
    let mut cond = scenario.network_condition(net, peak);
    let n = net.num_landmarks() as u32;
    let sources: Vec<LandmarkId> = (0..FAN_OUT)
        .map(|i| LandmarkId((i as u32 * 37) % n))
        .collect();
    // An operable segment whose speed factor the cold variants perturb to
    // force a fresh cost generation every iteration.
    let tweak = net
        .segment_ids()
        .find(|&s| cond.is_operable(s))
        .expect("peak flood never severs the whole city");

    let mut group = c.benchmark_group("routing_fan_out");
    group.sample_size(10);
    group.throughput(Throughput::Elements(FAN_OUT as u64));

    let router = Router::new(net);
    group.bench_function("naive", |b| {
        b.iter(|| {
            for &src in &sources {
                black_box(router.shortest_paths_from(&cond, src));
            }
        })
    });

    let csr = CsrGraph::build(net);
    let snap = csr.snapshot_condition(net, &cond);
    group.bench_function("csr", |b| {
        b.iter(|| {
            for &src in &sources {
                black_box(csr.shortest_paths(&snap, src));
            }
        })
    });

    let planner = RoutePlanner::new(net);
    let mut flip = false;
    group.bench_function("cached_cold_single_thread", |b| {
        b.iter(|| {
            flip = !flip;
            cond.set_speed_factor(tweak, if flip { 0.9 } else { 0.8 });
            planner.prewarm(&cond, &sources, 1);
            black_box(planner.cached_trees())
        })
    });
    group.bench_function("cached_cold_parallel", |b| {
        b.iter(|| {
            flip = !flip;
            cond.set_speed_factor(tweak, if flip { 0.9 } else { 0.8 });
            planner.prewarm(&cond, &sources, pool::available_threads());
            black_box(planner.cached_trees())
        })
    });
    planner.prewarm(&cond, &sources, pool::available_threads());
    group.bench_function("cached_warm", |b| {
        b.iter(|| {
            for &src in &sources {
                black_box(planner.paths_from(&cond, src));
            }
        })
    });
    group.finish();
}

fn bench_point_queries(c: &mut Criterion) {
    let city = CityConfig::charlotte_like().build(3);
    let net = &city.network;
    let scenario = DisasterScenario::new(&city, Hurricane::florence(), 3);
    let cond = scenario.network_condition(net, scenario.hurricane().timeline.peak_hour());
    let n = net.num_landmarks() as u32;
    let pairs: Vec<(LandmarkId, LandmarkId)> = (0..32u32)
        .map(|i| (LandmarkId((i * 37) % n), LandmarkId((i * 61 + 9) % n)))
        .collect();

    let mut group = c.benchmark_group("routing_point_queries");
    group.sample_size(10);
    group.throughput(Throughput::Elements(pairs.len() as u64));

    let router = Router::new(net);
    group.bench_function("naive_early_exit", |b| {
        b.iter(|| {
            for &(from, to) in &pairs {
                black_box(router.shortest_path(&cond, from, to));
            }
        })
    });

    // Uncached early-exit queries over the CSR snapshot.
    let planner = RoutePlanner::new(net);
    group.bench_function("csr_early_exit", |b| {
        b.iter(|| {
            for &(from, to) in &pairs {
                black_box(planner.route(&cond, from, to));
            }
        })
    });

    // The same queries answered from prewarmed trees.
    let warm = RoutePlanner::new(net);
    let sources: Vec<LandmarkId> = pairs.iter().map(|&(from, _)| from).collect();
    warm.prewarm(&cond, &sources, pool::available_threads());
    group.bench_function("cached_tree_walk", |b| {
        b.iter(|| {
            for &(from, to) in &pairs {
                black_box(warm.route(&cond, from, to));
            }
        })
    });

    let hospitals: Vec<LandmarkId> = city.hospitals.clone();
    group.bench_function("naive_nearest_hospital", |b| {
        b.iter(|| {
            for &(from, _) in &pairs {
                black_box(router.nearest_target(&cond, from, &hospitals));
            }
        })
    });
    group.bench_function("nearest_early_exit", |b| {
        b.iter(|| {
            for &(from, _) in &pairs {
                black_box(planner.nearest_route(&cond, from, &hospitals));
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fan_out, bench_point_queries);
criterion_main!(benches);
