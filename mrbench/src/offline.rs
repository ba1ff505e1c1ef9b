//! The offline dispatch path (`paper_day`, `metro_storm`): flood hour →
//! SVM → DQN dispatch → simulation → routing, driven through
//! `World::run_epoch` under a frozen-greedy MobiRescue dispatcher built
//! with the trained SVM and DQN.

use crate::report::Ledger;
use crate::setup::{build_scenario, frozen_dispatcher, ms_since, paper_rl, repeat_setup};
use crate::setup::{train_models, Models, SetupTimes, WORLD_SEED};
use crate::stats::Samples;
use crate::trace::{EpochLayers, MicrosTime, TimedDispatch, Trace};
use mobirescue_core::predictor::{mine_rescues, people_positions_at};
use mobirescue_core::rl_dispatch::RlDispatchConfig;
use mobirescue_core::scenario::{Scenario, ScenarioConfig};
use mobirescue_core::training::{busiest_request_day, requests_on_day};
use mobirescue_mobility::map_match::MapMatcher;
use mobirescue_obs::{PhaseTimer, TimeSource};
use mobirescue_roadnet::graph::SegmentId;
use mobirescue_roadnet::planner::PlannerStats;
use mobirescue_sim::{fnv1a_64, RequestSpec, SimConfig, World};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Between runs, each call's arrival moves by up to this many seconds
/// either way, drawn from the run's seed: the same storm's calls, arriving
/// at slightly different times.
const JITTER_S: u32 = 900;

/// Which simulated window a workload replays. Its calls are fixed by the
/// world; the run's seed only jitters their arrival by up to [`JITTER_S`].
#[derive(Debug, Clone)]
pub enum Window {
    /// The scenario's busiest mined request day, midnight to midnight —
    /// the paper's evaluation day.
    BusiestDay,
    /// `hours` from absolute hour `start`, carrying `per_kseg` uniformly
    /// placed requests per 1,000 road segments that appear over the first
    /// three quarters of the window (the `bench_scale` stream).
    Storm {
        /// First absolute scenario hour.
        start: u32,
        /// Window length.
        hours: u32,
        /// Requests per 1,000 segments.
        per_kseg: u32,
    },
}

/// One offline workload.
#[derive(Debug, Clone)]
pub struct OfflinePlan {
    /// Workload name (trace file name, printed lines).
    pub workload: &'static str,
    /// The evaluation scenario (Florence).
    pub scenario: ScenarioConfig,
    /// The replayed window.
    pub window: Window,
    /// Rescue teams.
    pub teams: usize,
}

impl OfflinePlan {
    /// `paper_day`: the charlotte preset on its busiest Florence day.
    pub fn paper_day() -> Self {
        Self {
            workload: "paper_day",
            scenario: ScenarioConfig::charlotte_like().florence(),
            window: Window::BusiestDay,
            teams: 100,
        }
    }

    /// `metro_storm`: the metro preset over two landfall hours — short
    /// passes, so a run replays the window often enough for
    /// [`best_of_passes`] to find each epoch's uninterrupted time.
    pub fn metro_storm() -> Self {
        Self {
            workload: "metro_storm",
            scenario: ScenarioConfig::metro(),
            window: Window::Storm {
                start: 276,
                hours: 2,
                per_kseg: 180,
            },
            teams: 100,
        }
    }
}

/// Everything one set-up produces.
struct Setup {
    scenario: Scenario,
    models: Models,
    requests: Vec<RequestSpec>,
    sim: SimConfig,
}

fn setup(plan: &OfflinePlan, seed: u64, t: &mut SetupTimes) -> Setup {
    let scenario = build_scenario(&plan.scenario, WORLD_SEED, t);
    let models = train_models(t);
    let t0 = Instant::now();
    let (mut requests, mut sim) = match plan.window {
        Window::BusiestDay => {
            let matcher = MapMatcher::new(&scenario.city.network);
            let rescues = mine_rescues(&scenario);
            let day = busiest_request_day(&rescues).expect("the scenario mines rescues");
            let mut sim = SimConfig::paper(day * 24);
            sim.duration_hours = sim
                .duration_hours
                .min(scenario.disaster.total_hours() - sim.start_hour);
            (requests_on_day(&scenario, &matcher, &rescues, day), sim)
        }
        Window::Storm {
            start,
            hours,
            per_kseg,
        } => {
            let mut sim = SimConfig::paper(start);
            sim.duration_hours = hours;
            let n = scenario.city.network.num_segments() as u32;
            let horizon = sim.duration_s();
            let mut rng = StdRng::seed_from_u64(WORLD_SEED ^ 0x5ca1e);
            let requests = (0..(n * per_kseg / 1_000).max(48))
                .map(|_| RequestSpec {
                    appear_s: rng.random_range(0..horizon * 3 / 4),
                    segment: SegmentId(rng.random_range(0..n)),
                })
                .collect();
            (requests, sim)
        }
    };
    let last_s = sim.duration_s() - 1;
    let mut rng = StdRng::seed_from_u64(seed);
    for r in &mut requests {
        let t = r.appear_s.min(last_s);
        r.appear_s = rng.random_range(t.saturating_sub(JITTER_S)..=(t + JITTER_S).min(last_s));
    }
    t.mine_ms += ms_since(t0);
    sim.num_teams = plan.teams;
    Setup {
        scenario,
        models,
        requests,
        sim,
    }
}

/// What one pass over the window produced.
struct Pass {
    traced: bool,
    epoch_us: Vec<u64>,
    checksum: u64,
    delivered: usize,
    pickup_s: Samples,
    layers: Vec<EpochLayers>,
    routing: PlannerStats,
}

/// Whether epoch `k` opens a new condition hour: a new flood state, an
/// SVM re-prediction and a route-planner generation bump.
fn opens_hour(k: usize, sim: &SimConfig) -> bool {
    (k as u64 * u64::from(sim.dispatch_period_s)).is_multiple_of(3_600)
}

/// Replays the window once on a fresh world. With `clock`, installs the
/// microsecond source on the world and the dispatcher, wraps the
/// dispatcher, and records each epoch's spans into `trace`.
fn run_pass(
    s: &Setup,
    rl: &RlDispatchConfig,
    index: usize,
    clock: Option<&Arc<dyn TimeSource>>,
    trace: &mut Trace,
    ledger: &mut Ledger,
) -> Pass {
    let mut world = World::new(&s.scenario.city, &s.scenario.conditions, &s.sim)
        .expect("the window lies inside the scenario's conditions");
    world
        .schedule_requests(&s.requests)
        .expect("requests lie on the city's segments");
    let mut dispatcher = frozen_dispatcher(&s.scenario, &s.models, rl);
    let mut epoch_us = Vec::new();
    let mut layers = Vec::new();
    match clock {
        None => {
            while world.now_s() < world.end_s() {
                let t0 = Instant::now();
                world.run_epoch(&mut dispatcher, 0.0);
                epoch_us.push(t0.elapsed().as_micros() as u64);
            }
        }
        Some(clock) => {
            world.set_time_source(PhaseTimer::new(Arc::clone(clock)));
            dispatcher.set_time_source(PhaseTimer::new(Arc::clone(clock)));
            let mut timed = TimedDispatch::new(&mut dispatcher, Arc::clone(clock));
            while world.now_s() < world.end_s() {
                let start = clock.now_ms();
                let report = world.run_epoch(&mut timed, 0.0);
                let end = clock.now_ms();
                let calls = timed.take_calls();
                let split = EpochLayers::new(world.take_phases(), &calls);
                trace.push_epoch(index, report.epoch, (start, end), &split, calls.first());
                epoch_us.push(end - start);
                layers.push(split);
            }
        }
    }

    let outcomes = world.outcomes();
    ledger.check(outcomes.len() == s.requests.len(), || {
        format!(
            "pass {index}: {} outcomes for {} scheduled requests",
            outcomes.len(),
            s.requests.len()
        )
    });
    let misplaced = outcomes
        .iter()
        .enumerate()
        .filter(|(i, o)| o.id.index() != *i || s.requests.get(*i) != Some(&o.spec))
        .count();
    ledger.check(misplaced == 0, || {
        format!(
            "pass {index}: {misplaced} scheduled requests missing from or repeated in outcomes()"
        )
    });
    let mut pickup_s = Samples::new();
    for t in outcomes.iter().filter_map(|o| o.timeliness_s()) {
        pickup_s.push(u64::from(t));
    }
    Pass {
        traced: clock.is_some(),
        epoch_us,
        checksum: fnv1a_64(&world.snapshot_text()),
        delivered: outcomes.iter().filter(|o| o.delivered_s.is_some()).count(),
        pickup_s,
        layers,
        routing: world.routing_stats(),
    }
}

/// Share of the population the SVM flags over the window's hours, %.
fn positive_pct(s: &Setup) -> f64 {
    let matcher = MapMatcher::new(&s.scenario.city.network);
    let (mut flagged, mut people) = (0.0, 0usize);
    for hour in s.sim.start_hour..s.sim.start_hour + s.sim.duration_hours {
        people += people_positions_at(&s.scenario, hour).len();
        flagged += s
            .models
            .predictor
            .predict_distribution(&s.scenario, &matcher, hour)
            .iter()
            .sum::<f64>();
    }
    100.0 * flagged / people.max(1) as f64
}

/// Runs `plan` for about `seconds` of timed passes (at least two, whole
/// passes only). Untraced, every pass is plain; traced, passes alternate
/// plain and traced so the tracing overhead is measured in the same run.
pub fn run(
    plan: &OfflinePlan,
    seed: u64,
    seconds: f64,
    traced: bool,
    ledger: &mut Ledger,
) -> Trace {
    let (s, setup_s, times) = repeat_setup(|t| setup(plan, seed, t));
    crate::record_setup(ledger, setup_s, &times);
    println!(
        "mrbench: {} seed {seed}: {} segments, {} people, {} requests, {} teams, {} epochs from hour {}",
        plan.workload,
        s.scenario.city.network.num_segments(),
        s.scenario.generated.dataset.num_people(),
        s.requests.len(),
        s.sim.num_teams,
        s.sim.duration_s() / s.sim.dispatch_period_s,
        s.sim.start_hour,
    );

    let rl = paper_rl();
    let clock: Arc<dyn TimeSource> = Arc::new(MicrosTime::new());
    let mut trace = Trace::default();
    let mut passes: Vec<Pass> = Vec::new();
    let started = Instant::now();
    let mut last_s = 0.0;
    while passes.len() < 2 || started.elapsed().as_secs_f64() + last_s <= seconds {
        let t0 = Instant::now();
        let index = passes.len();
        let with_clock = (traced && index % 2 == 1).then_some(&clock);
        passes.push(run_pass(&s, &rl, index, with_clock, &mut trace, ledger));
        last_s = t0.elapsed().as_secs_f64();
    }

    let first = &passes[0];
    for p in &passes[1..] {
        ledger.check(
            (p.checksum, p.delivered) == (first.checksum, first.delivered),
            || {
                format!(
                    "pass snapshots differ: {:016x} ({} delivered) vs {:016x} ({} delivered)",
                    p.checksum, p.delivered, first.checksum, first.delivered
                )
            },
        );
    }
    println!(
        "mrbench: {} passes, snapshot checksum fnv1a_64 {:016x}",
        passes.len(),
        first.checksum
    );
    let pass_p50: Vec<String> = passes
        .iter()
        .map(|p| {
            let mut epochs: Samples = p.epoch_us.iter().copied().collect();
            format!("{:.3}", epochs.median() as f64 / 1e3)
        })
        .collect();
    println!("mrbench: pass epoch p50s {} ms", pass_p50.join(", "));

    let mut all = Samples::new();
    let mut flood = Samples::new();
    let mut traced_all = Samples::new();
    for p in &passes {
        ledger.attempted += p.epoch_us.len() as u64;
        for (k, &us) in p.epoch_us.iter().enumerate() {
            if p.traced {
                traced_all.push(us);
            } else {
                all.push(us);
                if opens_hour(k, &s.sim) {
                    flood.push(us);
                }
            }
        }
    }
    let plain: Vec<&[u64]> = passes
        .iter()
        .filter(|p| !p.traced)
        .map(|p| p.epoch_us.as_slice())
        .collect();
    let mut best = best_of_passes(&plain);
    let n = s.requests.len().max(1) as f64;
    let mut pickup = first.pickup_s.clone();
    println!("mrbench: epoch {}", all.describe(1e3, "ms"));
    println!(
        "mrbench: epoch, fastest of the passes {}",
        best.describe(1e3, "ms")
    );
    println!(
        "mrbench: condition-hour epoch {}",
        flood.describe(1e3, "ms")
    );
    println!(
        "mrbench: delivered {}/{} ({:.2}%), pickup {}",
        first.delivered,
        s.requests.len(),
        100.0 * first.delivered as f64 / n,
        pickup.describe(60.0, "sim-min")
    );
    ledger.set("latency_ms", best.median() as f64 / 1e3);
    ledger.set("sim.epoch_p90_ms", all.percentile(90.0) as f64 / 1e3);
    ledger.set("sim.flood_epoch_p50_ms", flood.median() as f64 / 1e3);
    ledger.set("sim.delivered_pct", 100.0 * first.delivered as f64 / n);
    ledger.set("sim.pickup_p50_min", pickup.median() as f64 / 60.0);

    if traced {
        record_layers(plan, &s, &passes, traced_all.median(), all.median(), ledger);
    }
    trace
}

/// Each epoch's fastest wall time over the passes' per-epoch times
/// (`latency_ms` is their median). Every pass replays the same window to
/// the same snapshot, so epoch `k` does the same work in each; a slower
/// reading is the host's interference, not the program's cost.
fn best_of_passes(passes: &[&[u64]]) -> Samples {
    let epochs = passes.iter().map(|p| p.len()).min().unwrap_or(0);
    (0..epochs)
        .map(|k| passes.iter().map(|p| p[k]).min().unwrap_or(0))
        .collect()
}

/// Per-layer metrics of the traced passes.
fn record_layers(
    plan: &OfflinePlan,
    s: &Setup,
    passes: &[Pass],
    traced_p50_us: u64,
    plain_p50_us: u64,
    ledger: &mut Ledger,
) {
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let epochs: usize = traced.iter().map(|p| p.layers.len()).sum();
    let total_us: u64 = traced.iter().flat_map(|p| &p.epoch_us).sum();
    let sum = |f: fn(&EpochLayers) -> u64| -> f64 {
        traced.iter().flat_map(|p| &p.layers).map(f).sum::<u64>() as f64
    };
    let per_epoch = |v: f64| v / epochs.max(1) as f64;
    let attributed = sum(EpochLayers::attributed_us);
    let predicted_hours = traced
        .iter()
        .map(|p| {
            (0..p.layers.len())
                .filter(|&k| opens_hour(k, &s.sim))
                .count()
        })
        .sum::<usize>();
    let residual = 100.0 * (1.0 - attributed / total_us.max(1) as f64);
    ledger.set("sim.ingest_us", per_epoch(sum(|l| l.ingest_us)));
    ledger.set("sim.tick_us", per_epoch(sum(|l| l.tick_us)));
    ledger.set("sim.advance_us", per_epoch(sum(|l| l.advance_us)));
    ledger.set("sim.residual_pct", residual);
    ledger.set("core.dispatch_us", per_epoch(sum(|l| l.dispatch_us)));
    ledger.set("core.decide_us", per_epoch(sum(EpochLayers::decide_us)));
    ledger.set(
        "svm.predict_us",
        sum(|l| l.predict_us) / predicted_hours.max(1) as f64,
    );
    ledger.set("svm.positive_pct", positive_pct(s));
    let routing = traced[0].routing;
    let lookups = routing.hits + routing.misses;
    ledger.set(
        "roadnet.lookups",
        lookups as f64 / traced[0].layers.len().max(1) as f64,
    );
    ledger.set(
        "roadnet.hit_pct",
        100.0 * routing.hits as f64 / lookups.max(1) as f64,
    );
    ledger.set(
        "trace_overhead_pct",
        100.0 * (traced_p50_us as f64 / plain_p50_us.max(1) as f64 - 1.0),
    );
    println!(
        "mrbench: {}: layers account for {:.2}% of {epochs} traced epochs ({} planner lookups, {} hits)",
        plan.workload,
        100.0 - residual,
        lookups,
        routing.hits
    );
    ledger.check(residual < 10.0, || {
        format!("sim.residual_pct {residual:.2} is not below 10%: the layers do not add up to the epoch")
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(window: Window) -> OfflinePlan {
        OfflinePlan {
            workload: "offline_smoke",
            scenario: ScenarioConfig::small().florence(),
            window,
            teams: 8,
        }
    }

    #[test]
    fn best_of_passes_takes_each_epochs_fastest_reading() {
        // Pass 1 is slowed early, pass 2 late.
        let passes: [&[u64]; 2] = [&[90, 80, 10, 40], &[30, 20, 60, 70]];
        let mut best = best_of_passes(&passes);
        assert_eq!(best.len(), 4);
        assert_eq!(
            (best.percentile(25.0), best.median(), best.percentile(100.0)),
            (10, 20, 40)
        );
        assert_eq!(best_of_passes(&[]).len(), 0);
    }

    #[test]
    fn busiest_day_smoke_passes_its_checks() {
        let mut ledger = Ledger::default();
        let trace = run(&small(Window::BusiestDay), 7, 0.0, true, &mut ledger);
        assert!(ledger.correct());
        assert!(ledger.get("sim.delivered_pct").unwrap() > 0.0);
        assert!(ledger.get("sim.residual_pct").unwrap() < 10.0);
        assert!(ledger.get("core.dispatch_us").unwrap() > 0.0);
        assert_eq!(trace.self_times()[0].0, "epoch");
        // Two passes of a 24 h day, plus the checks.
        assert!(ledger.attempted >= 2 * 288);
    }

    #[test]
    fn storm_window_smoke_passes_its_checks() {
        let plan = small(Window::Storm {
            start: 276,
            hours: 1,
            per_kseg: 180,
        });
        let mut ledger = Ledger::default();
        run(&plan, 42, 0.0, false, &mut ledger);
        assert!(ledger.correct());
        assert!(ledger.get("latency_ms").unwrap() > 0.0);
        assert!(ledger.get("sim.flood_epoch_p50_ms").unwrap() > 0.0);
    }
}
