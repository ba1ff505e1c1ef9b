//! Machine-readable metro-scale benchmark (`BENCH_scale.json`).
//!
//! Drives the SoA dispatch engine over the preset family's storm window at
//! increasing world sizes and reports, per preset, the dispatch-epoch
//! latency and sustained request throughput, plus the FNV-1a checksum of
//! the final world snapshot. The checksum is pure deterministic arithmetic
//! over the seeded world (no timing feeds it), so it is machine-independent:
//! `scripts/check_bench.sh` compares it against the committed baseline, and
//! a mismatch means the engine's *behavior* changed at scale, not just its
//! speed.
//!
//! Usage: `bench_scale [preset ...]` with presets from
//! {`medium`, `metro`, `multi_city`}; no arguments runs `medium metro`.
//! Presets always run with the same seeds/epochs, so a subset run emits
//! rows comparable to a full bless.

use mobirescue_core::scenario::ScenarioConfig;
use mobirescue_disaster::hurricane::Hurricane;
use mobirescue_disaster::scenario::DisasterScenario;
use mobirescue_mobility::flow::HourlyConditions;
use mobirescue_roadnet::damage::NetworkCondition;
use mobirescue_roadnet::graph::SegmentId;
use mobirescue_sim::dispatcher::NearestRequestDispatcher;
use mobirescue_sim::engine::{fnv1a_64, World};
use mobirescue_sim::types::{RequestSpec, SimConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

/// World seed shared by every row (same as the SoA-equivalence pin).
const SEED: u64 = 7;
/// First hour of Florence's landfall ramp (disaster day 12 minus half a
/// day, as in `tests/scale_equivalence.rs`).
const STORM_HOUR: u32 = 276;
/// Requests per road segment, scaled so bigger worlds carry
/// proportionally bigger request streams (floored at 48).
const REQUESTS_PER_KSEG: u32 = 180;

struct Preset {
    name: &'static str,
    config: ScenarioConfig,
    teams: usize,
    duration_hours: u32,
}

fn presets() -> Vec<Preset> {
    vec![
        Preset {
            name: "medium",
            config: ScenarioConfig::medium(),
            teams: 24,
            duration_hours: 4,
        },
        Preset {
            name: "metro",
            config: ScenarioConfig::metro(),
            teams: 100,
            duration_hours: 2,
        },
        Preset {
            name: "multi_city",
            config: ScenarioConfig::multi_city(),
            teams: 100,
            duration_hours: 2,
        },
    ]
}

struct WorldRow {
    name: &'static str,
    landmarks: usize,
    segments: usize,
    teams: usize,
    requests: usize,
    epochs: u32,
    build_ms: f64,
    cond_ms_per_hour: f64,
    epoch_ms: f64,
    requests_per_s: f64,
    checksum: u64,
}

struct BuiltWorld {
    city: mobirescue_roadnet::generator::City,
    conditions: HourlyConditions,
    sim: SimConfig,
    specs: Vec<RequestSpec>,
    build_ms: f64,
    cond_ms_per_hour: f64,
}

/// Builds the city, storm-window conditions, and deterministic request
/// stream of one preset.
fn build_world(p: &Preset) -> BuiltWorld {
    let t0 = Instant::now();
    let city = p.config.city.build(SEED);
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;

    let disaster = DisasterScenario::new(&city, Hurricane::florence(), SEED);
    let t0 = Instant::now();
    let conditions: Vec<NetworkCondition> = (0..p.duration_hours)
        .map(|h| disaster.network_condition(&city.network, STORM_HOUR + h))
        .collect();
    let cond_ms_per_hour = t0.elapsed().as_secs_f64() * 1e3 / f64::from(p.duration_hours);
    let conditions = HourlyConditions::from_conditions(conditions);

    let mut sim = SimConfig::paper(0);
    sim.num_teams = p.teams;
    sim.duration_hours = p.duration_hours;
    sim.sample_positions_every_s = Some(900);

    let n = city.network.num_segments() as u32;
    let num_requests = (n * REQUESTS_PER_KSEG / 1_000).max(48);
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x5ca1e);
    let horizon = sim.duration_s();
    let specs: Vec<RequestSpec> = (0..num_requests)
        .map(|_| RequestSpec {
            appear_s: rng.random_range(0..horizon * 3 / 4),
            segment: SegmentId(rng.random_range(0..n)),
        })
        .collect();

    BuiltWorld {
        city,
        conditions,
        sim,
        specs,
        build_ms,
        cond_ms_per_hour,
    }
}

/// Steps a fresh world through the whole horizon under the
/// [`NearestRequestDispatcher`] baseline, returning (wall seconds,
/// dispatch epochs covered, final-snapshot checksum). `World::step` is a
/// one-second tick; the epoch count is the number of dispatch periods the
/// horizon spans, which is what the per-epoch latency is normalized by.
fn run_world(b: &BuiltWorld) -> (f64, u32, u64) {
    let mut dispatcher = NearestRequestDispatcher::default();
    let mut world = World::new(&b.city, &b.conditions, &b.sim).expect("window covers horizon");
    world.schedule_requests(&b.specs).expect("valid requests");
    let horizon = b.sim.duration_s();
    let epochs = horizon / b.sim.dispatch_period_s;
    let t0 = Instant::now();
    while world.now_s() < horizon {
        world.step(&mut dispatcher, 0.0);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    (wall_s, epochs, fnv1a_64(&world.snapshot_text()))
}

fn bench_preset(p: &Preset) -> WorldRow {
    let b = build_world(p);
    let (wall_s, epochs, checksum) = run_world(&b);
    WorldRow {
        name: p.name,
        landmarks: b.city.network.num_landmarks(),
        segments: b.city.network.num_segments(),
        teams: p.teams,
        requests: b.specs.len(),
        epochs,
        build_ms: b.build_ms,
        cond_ms_per_hour: b.cond_ms_per_hour,
        epoch_ms: wall_s * 1e3 / f64::from(epochs),
        requests_per_s: b.specs.len() as f64 / wall_s,
        checksum,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let wanted: Vec<&str> = if args.is_empty() {
        vec!["medium", "metro"]
    } else {
        args.iter().map(String::as_str).collect()
    };
    let all = presets();
    for w in &wanted {
        assert!(
            all.iter().any(|p| p.name == *w),
            "unknown preset {w}; choose from medium, metro, multi_city"
        );
    }

    let rows: Vec<WorldRow> = all
        .iter()
        .filter(|p| wanted.contains(&p.name))
        .map(bench_preset)
        .collect();

    // Fold the per-preset snapshot checksums (in run order) into one
    // results checksum for quick whole-file comparison.
    let combined = rows.iter().fold(String::new(), |mut acc, r| {
        acc.push_str(&format!("{}:{:016x};", r.name, r.checksum));
        acc
    });

    println!("{{");
    println!(
        "  \"seed\": {SEED}, \"storm_hour\": {STORM_HOUR}, \"requests_per_kseg\": {REQUESTS_PER_KSEG},"
    );
    println!("  \"worlds\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        println!("    {{");
        println!("      \"preset\": \"{}\",", r.name);
        println!(
            "      \"landmarks\": {}, \"segments\": {}, \"teams\": {}, \"requests\": {}, \"epochs\": {},",
            r.landmarks, r.segments, r.teams, r.requests, r.epochs
        );
        println!(
            "      \"build_ms\": {:.2}, \"cond_ms_per_hour\": {:.2},",
            r.build_ms, r.cond_ms_per_hour
        );
        println!(
            "      \"epoch_ms\": {:.3}, \"requests_per_s\": {:.1},",
            r.epoch_ms, r.requests_per_s
        );
        println!("      \"checksum\": \"{:016x}\"", r.checksum);
        println!("    }}{comma}");
    }
    println!("  ],");
    println!("  \"results_checksum\": \"{:016x}\"", fnv1a_64(&combined));
    println!("}}");
}
