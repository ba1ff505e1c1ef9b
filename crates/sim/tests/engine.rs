//! End-to-end tests of the simulation engine.

use mobirescue_disaster::hurricane::Hurricane;
use mobirescue_disaster::scenario::DisasterScenario;
use mobirescue_mobility::flow::HourlyConditions;
use mobirescue_roadnet::damage::NetworkCondition;
use mobirescue_roadnet::generator::{City, CityConfig};
use mobirescue_roadnet::graph::SegmentId;
use mobirescue_sim::dispatcher::{DispatchState, Dispatcher, NearestRequestDispatcher};
use mobirescue_sim::types::{DispatchPlan, RequestSpec, SimConfig};
use mobirescue_sim::{run, SimOutcome, World};

fn setup() -> (City, HourlyConditions) {
    let city = CityConfig::small().build(13);
    let scenario = DisasterScenario::new(&city, Hurricane::florence(), 13);
    let conds = HourlyConditions::compute(&city.network, &scenario);
    (city, conds)
}

fn spread_requests(city: &City, n: u32, window_s: u32) -> Vec<RequestSpec> {
    let num_segs = city.network.num_segments() as u32;
    (0..n)
        .map(|i| RequestSpec {
            appear_s: i * window_s / n,
            segment: SegmentId((i * 37) % num_segs),
        })
        .collect()
}

#[test]
fn serves_requests_before_the_disaster() {
    let (city, conds) = setup();
    let config = SimConfig::small(24); // day 1: pristine network
    let requests = spread_requests(&city, 20, 2 * 3_600);
    let outcome = run(
        &city,
        &conds,
        &requests,
        &mut NearestRequestDispatcher::default(),
        &config,
    );
    assert!(
        outcome.total_served() >= 18,
        "only {}/20 served on a pristine network",
        outcome.total_served()
    );
    assert_eq!(outcome.unroutable_orders, 0);
    assert!(outcome.dispatch_rounds >= 40, "4 h at 5-min period");
}

#[test]
fn outcome_invariants_hold() {
    let (city, conds) = setup();
    let config = SimConfig::small(24);
    let requests = spread_requests(&city, 25, 3 * 3_600);
    let outcome = run(
        &city,
        &conds,
        &requests,
        &mut NearestRequestDispatcher::default(),
        &config,
    );
    for r in &outcome.requests {
        if let Some(p) = r.picked_up_s {
            assert!(p >= r.spec.appear_s, "{} picked up before appearing", r.id);
            assert!(r.team.is_some());
            assert!(r.driving_delay_s.is_some());
            assert!(r.driving_delay_s.unwrap() >= 0.0);
            if let Some(d) = r.delivered_s {
                // Equality happens when a pickup occurs on the hospital's
                // own doorstep segment.
                assert!(d >= p, "{} delivered before pickup", r.id);
            }
        } else {
            assert!(r.team.is_none());
            assert!(r.delivered_s.is_none());
        }
    }
    // Per-team served counters agree with request outcomes.
    let by_counter: u32 = outcome.team_served.iter().flatten().sum();
    assert_eq!(by_counter as usize, outcome.total_served());
    // Every picked-up request is eventually delivered (the run is long
    // enough) or still on board at the end — never duplicated.
    let served_ids: Vec<_> = outcome
        .requests
        .iter()
        .filter(|r| r.picked_up_s.is_some())
        .map(|r| r.id)
        .collect();
    let unique: std::collections::HashSet<_> = served_ids.iter().collect();
    assert_eq!(unique.len(), served_ids.len());
}

#[test]
fn deterministic_across_runs() {
    let (city, conds) = setup();
    let config = SimConfig::small(24);
    let requests = spread_requests(&city, 15, 2 * 3_600);
    let a = run(
        &city,
        &conds,
        &requests,
        &mut NearestRequestDispatcher::default(),
        &config,
    );
    let b = run(
        &city,
        &conds,
        &requests,
        &mut NearestRequestDispatcher::default(),
        &config,
    );
    assert_eq!(a.requests, b.requests);
    assert_eq!(a.serving_per_tick, b.serving_per_tick);
}

/// A dispatcher that wraps another and adds a large fixed latency —
/// verifying that computation delay degrades timeliness (the Figure 13
/// mechanism).
struct Slow<D>(D, f64);

impl<D: Dispatcher> Dispatcher for Slow<D> {
    fn name(&self) -> &str {
        "Slow"
    }
    fn compute_latency_s(&self, _state: &DispatchState<'_>) -> f64 {
        self.1
    }
    fn dispatch(&mut self, state: &DispatchState<'_>) -> DispatchPlan {
        self.0.dispatch(state)
    }
}

#[test]
fn dispatch_latency_hurts_timeliness() {
    let (city, conds) = setup();
    let config = SimConfig::small(24);
    let requests = spread_requests(&city, 20, 2 * 3_600);
    let fast = run(
        &city,
        &conds,
        &requests,
        &mut NearestRequestDispatcher::default(),
        &config,
    );
    let slow = run(
        &city,
        &conds,
        &requests,
        &mut Slow(NearestRequestDispatcher::default(), 300.0),
        &config,
    );
    let fast_med = fast.timeliness_cdf().quantile(0.5);
    let slow_med = slow.timeliness_cdf().quantile(0.5);
    assert!(
        slow_med > fast_med,
        "300 s latency should slow the median rescue: fast {fast_med}, slow {slow_med}"
    );
}

#[test]
fn flood_reduces_service() {
    let (city, conds) = setup();
    // Same request shapes, one run before the disaster and one at the
    // flood peak.
    let requests = spread_requests(&city, 30, 3 * 3_600);
    let before = run(
        &city,
        &conds,
        &requests,
        &mut NearestRequestDispatcher::default(),
        &SimConfig::small(24),
    );
    let peak_hour = Hurricane::florence().timeline.peak_hour() + 24;
    let during = run(
        &city,
        &conds,
        &requests,
        &mut NearestRequestDispatcher::default(),
        &SimConfig::small(peak_hour),
    );
    assert!(
        during.total_served() <= before.total_served(),
        "flooding cannot increase service: before {}, during {}",
        before.total_served(),
        during.total_served()
    );
}

#[test]
fn teams_respect_capacity() {
    let (city, conds) = setup();
    let mut config = SimConfig::small(24);
    config.num_teams = 1;
    config.capacity = 2;
    // Many requests on one segment: a single team of capacity 2 must make
    // several hospital round-trips.
    let seg = SegmentId(40);
    let requests: Vec<RequestSpec> = (0..6)
        .map(|_| RequestSpec {
            appear_s: 10,
            segment: seg,
        })
        .collect();
    let outcome = run(
        &city,
        &conds,
        &requests,
        &mut NearestRequestDispatcher::default(),
        &config,
    );
    let mut pickups: Vec<u32> = outcome
        .requests
        .iter()
        .filter_map(|r| r.picked_up_s)
        .collect();
    pickups.sort_unstable();
    assert!(pickups.len() >= 4, "only {} pickups", pickups.len());
    // At most 2 pickups can share (approximately) the same pass; the third
    // must wait for a hospital round-trip.
    assert!(
        pickups[2] > pickups[1] + 120,
        "third pickup {} too close to second {} for capacity 2",
        pickups[2],
        pickups[1]
    );
}

#[test]
fn serving_team_counts_are_bounded() {
    let (city, conds) = setup();
    let config = SimConfig::small(24);
    let requests = spread_requests(&city, 40, 3 * 3_600);
    let outcome: SimOutcome = run(
        &city,
        &conds,
        &requests,
        &mut NearestRequestDispatcher::default(),
        &config,
    );
    for &(_, n) in outcome.serving_teams_per_slot() {
        assert!(n <= config.num_teams);
    }
}

#[test]
fn position_sampling_records_training_data() {
    let (city, conds) = setup();
    let mut config = SimConfig::small(24);
    config.duration_hours = 2;
    config.sample_positions_every_s = Some(60);
    let requests = spread_requests(&city, 10, 3_600);
    let outcome = run(
        &city,
        &conds,
        &requests,
        &mut NearestRequestDispatcher::default(),
        &config,
    );
    // One sample per minute for two hours.
    assert_eq!(outcome.position_samples.len(), 120);
    for (t, row) in &outcome.position_samples {
        assert_eq!(*t % 60, 0);
        assert_eq!(row.len(), config.num_teams);
    }
    // Teams actually move between some samples.
    let first = &outcome.position_samples[0].1;
    let moved = outcome.position_samples.iter().any(|(_, row)| row != first);
    assert!(moved, "no team ever moved");
}

#[test]
fn zero_requests_is_a_quiet_day() {
    let (city, conds) = setup();
    let config = SimConfig::small(24);
    let outcome = run(
        &city,
        &conds,
        &[],
        &mut NearestRequestDispatcher::default(),
        &config,
    );
    assert_eq!(outcome.total_served(), 0);
    assert!(outcome.requests.is_empty());
    assert!(outcome.dispatch_rounds > 0, "dispatcher still ticks");
    // Nobody has anything to do.
    for &(_, n) in outcome.serving_teams_per_slot() {
        assert_eq!(n, 0);
    }
}

#[test]
fn equal_hours_keep_the_planners_trees() {
    let city = CityConfig::small().build(13);
    let pristine = NetworkCondition::pristine(&city.network);
    // Equal to `pristine`, but built on its own under its own generation.
    let rebuilt = NetworkCondition::pristine(&city.network);
    let mut one_blocked = NetworkCondition::pristine(&city.network);
    one_blocked.block(SegmentId(0));
    let conditions =
        HourlyConditions::from_conditions(vec![pristine.clone(), pristine, rebuilt, one_blocked]);
    let mut config = SimConfig::small(0);
    config.duration_hours = 4;
    let mut world = World::new(&city, &conditions, &config).unwrap();
    // No requests: the teams stand still, and every dispatch tick prewarms
    // the trees from where they stand.
    let mut dispatcher = NearestRequestDispatcher::default();
    let mut misses_by_hour = [0; 4];
    while world.now_s() < config.duration_s() {
        let report = world.run_epoch(&mut dispatcher, 0.0);
        misses_by_hour[(report.start_s / 3_600) as usize] = world.routing_stats().misses;
    }
    assert!(misses_by_hour[0] > 0, "the first tick builds the trees");
    assert_eq!(
        misses_by_hour[1], misses_by_hour[0],
        "hour 1 is a clone of hour 0"
    );
    assert_eq!(
        misses_by_hour[2], misses_by_hour[0],
        "hour 2 equals hour 0: the same run, condition and trees"
    );
    assert!(
        misses_by_hour[3] > misses_by_hour[2],
        "a blocked segment is a new run: the trees are rebuilt"
    );
}
