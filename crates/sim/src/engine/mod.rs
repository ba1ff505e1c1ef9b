//! The discrete-time rescue simulation engine.
//!
//! Replaces the paper's SUMO/Flow stack at the granularity its metrics are
//! defined on: teams drive shortest routes over the hour-by-hour damaged
//! network, pick up requests on the segments they traverse (the paper's
//! reward counts requests "encountered by driving to their destination"),
//! deliver to the nearest hospital when full or done, and receive new
//! orders every dispatch period — delayed by the dispatcher's computation
//! latency, exactly what Figure 13's timeliness metric penalizes.
//!
//! The engine is a stateful [`World`] that advances one second at a time
//! and accepts requests injected *while running* — the shape a long-lived
//! dispatch service needs (see the `mobirescue-serve` crate). The
//! original batch entry point [`run`] is a thin wrapper: schedule every
//! request up front, step to the end, collect the [`SimOutcome`].

use crate::dispatcher::{DispatchState, Dispatcher};
use crate::types::{
    DispatchPlan, Order, RequestId, RequestOutcome, RequestSpec, RequestView, SimConfig, TeamId,
    TeamView,
};
use mobirescue_mobility::flow::HourlyConditions;
use mobirescue_obs::PhaseTimer;
use mobirescue_roadnet::damage::NetworkCondition;
use mobirescue_roadnet::generator::City;
use mobirescue_roadnet::graph::{LandmarkId, SegmentId};
use mobirescue_roadnet::planner::RoutePlanner;
use mobirescue_roadnet::routing::TravelCost;
use std::collections::{HashMap, VecDeque};

mod arena;
mod snapshot;

use arena::{RequestArena, TeamArena, WaitingQueues, NO_U32};

pub use crate::record::{fnv1a_64, fnv1a_64_bytes, open_snapshot, seal_snapshot};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mission {
    Standby,
    ToSegment(SegmentId),
    ToHospital,
    ToBase,
}

/// Why a [`World`] could not be built or an event could not be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorldError {
    /// `num_teams`, `capacity` or `dispatch_period_s` is zero.
    DegenerateConfig(&'static str),
    /// The city has no hospitals.
    NoHospitals,
    /// A request references a segment outside the network.
    UnknownSegment(SegmentId),
    /// The simulated window extends past the scenario's hourly conditions.
    WindowExceedsConditions,
    /// A snapshot failed to parse.
    BadSnapshot(String),
}

impl std::fmt::Display for WorldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorldError::DegenerateConfig(what) => write!(f, "degenerate config: {what}"),
            WorldError::NoHospitals => write!(f, "city must have hospitals"),
            WorldError::UnknownSegment(s) => write!(f, "unknown segment {}", s.0),
            WorldError::WindowExceedsConditions => {
                write!(f, "simulation window exceeds scenario conditions")
            }
            WorldError::BadSnapshot(why) => write!(f, "bad snapshot: {why}"),
        }
    }
}

impl std::error::Error for WorldError {}

impl From<crate::record::RecordError> for WorldError {
    fn from(e: crate::record::RecordError) -> Self {
        WorldError::BadSnapshot(e.0)
    }
}

/// Result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Name of the dispatcher that produced this run.
    pub dispatcher: String,
    /// The configuration used.
    pub config: SimConfig,
    /// Final state of every injected request.
    pub requests: Vec<RequestOutcome>,
    /// `(second, serving team count)` sampled at every dispatch tick
    /// (Figure 14's series).
    pub serving_per_tick: Vec<(u32, usize)>,
    /// Requests picked up per team per simulated hour (Figures 9–10).
    pub team_served: Vec<Vec<u32>>,
    /// Number of dispatcher invocations.
    pub dispatch_rounds: u32,
    /// Orders that could not be routed on the damaged network.
    pub unroutable_orders: u32,
    /// Sampled `(second, per-team landmark)` rows when
    /// [`SimConfig::sample_positions_every_s`] is set — the paper's RL
    /// training-data stream of team positions.
    pub position_samples: Vec<(u32, Vec<LandmarkId>)>,
}

/// Summary of one dispatch epoch advanced by [`World::run_epoch`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochReport {
    /// Index of the completed epoch (0-based).
    pub epoch: u32,
    /// Simulation second at the start of the epoch.
    pub start_s: u32,
    /// Requests waiting when the epoch's dispatch tick ran.
    pub waiting_at_tick: usize,
    /// Teams serving when the epoch's dispatch tick ran.
    pub serving_at_tick: usize,
    /// Requests picked up during the epoch.
    pub picked_up: u32,
    /// Requests delivered to a hospital during the epoch.
    pub delivered: u32,
}

/// Milliseconds the world spent in each phase of its steps since the
/// phase accumulator was last drained with [`World::take_phases`].
///
/// Measured on the [`PhaseTimer`] installed by [`World::set_time_source`];
/// all zero when no time source is installed (the default) or when the
/// source is simulated time that does not advance during computation —
/// which is exactly what keeps instrumented deterministic runs
/// bit-identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorldPhases {
    /// Injecting appearing requests into the waiting queues.
    pub ingest_ms: u64,
    /// Dispatch ticks: building views and running the dispatcher.
    pub dispatch_ms: u64,
    /// Applying plans and moving teams: route planning, replans, pickups.
    pub routing_ms: u64,
}

/// A running simulation: the damaged city, the teams, the open requests.
///
/// Advance it with [`World::step`] (one second) or [`World::run_epoch`]
/// (one dispatch period); feed it requests up front
/// ([`World::schedule_requests`]) or while running
/// ([`World::inject_request`]).
pub struct World<'a> {
    city: &'a City,
    conditions: &'a HourlyConditions,
    config: SimConfig,
    planner: RoutePlanner<'a>,
    /// Reverse-segment lookup, indexed by segment (`NO_U32` when one-way
    /// with no twin): requests on a two-way pair are reachable from either
    /// direction.
    reverse: Vec<u32>,
    /// Scheduled, not-yet-appeared requests, sorted by `appear_s`.
    specs: Vec<(RequestId, RequestSpec)>,
    next_spec: usize,
    requests: RequestArena,
    waiting: WaitingQueues,
    teams: TeamArena,
    serving_per_tick: Vec<(u32, usize)>,
    position_samples: Vec<(u32, Vec<LandmarkId>)>,
    team_served: Vec<Vec<u32>>,
    pending_plans: VecDeque<(u32, DispatchPlan)>,
    dispatch_rounds: u32,
    unroutable_orders: u32,
    now: u32,
    waiting_at_last_tick: usize,
    phase_timer: PhaseTimer,
    phases: WorldPhases,
}

impl<'a> World<'a> {
    /// Builds an empty world (no requests yet) over `city`.
    ///
    /// # Errors
    ///
    /// Returns a [`WorldError`] when the configuration is degenerate, the
    /// city has no hospitals, or the simulated window extends past the
    /// scenario's hourly conditions.
    pub fn new(
        city: &'a City,
        conditions: &'a HourlyConditions,
        config: &SimConfig,
    ) -> Result<Self, WorldError> {
        if config.num_teams == 0 {
            return Err(WorldError::DegenerateConfig("need at least one team"));
        }
        if config.capacity == 0 {
            return Err(WorldError::DegenerateConfig("capacity must be positive"));
        }
        if config.dispatch_period_s == 0 {
            return Err(WorldError::DegenerateConfig(
                "dispatch period must be positive",
            ));
        }
        if city.hospitals.is_empty() {
            return Err(WorldError::NoHospitals);
        }
        if config.start_hour < conditions.first_hour()
            || config.start_hour + config.duration_hours > conditions.hours()
        {
            return Err(WorldError::WindowExceedsConditions);
        }
        let net = &city.network;
        let mut reverse = vec![NO_U32; net.num_segments()];
        {
            let mut by_ends: HashMap<(LandmarkId, LandmarkId), SegmentId> = HashMap::new();
            for seg in net.segments() {
                by_ends.insert((seg.from, seg.to), seg.id);
            }
            for seg in net.segments() {
                if let Some(&r) = by_ends.get(&(seg.to, seg.from)) {
                    reverse[seg.id.index()] = r.0;
                }
            }
        }

        // Teams start distributed round-robin over the hospitals.
        let mut teams = TeamArena::new(config.capacity);
        for i in 0..config.num_teams {
            teams.push(
                city.hospitals[i % city.hospitals.len()],
                VecDeque::new(),
                0.0,
                0.0,
                &[],
                Mission::Standby,
                0,
            );
        }
        let team_served = vec![vec![0u32; config.duration_hours as usize]; config.num_teams];
        Ok(Self {
            city,
            conditions,
            config: config.clone(),
            planner: RoutePlanner::new(net),
            reverse,
            specs: Vec::new(),
            next_spec: 0,
            requests: RequestArena::new(),
            waiting: WaitingQueues::new(net.num_segments()),
            teams,
            serving_per_tick: Vec::new(),
            position_samples: Vec::new(),
            team_served,
            pending_plans: VecDeque::new(),
            dispatch_rounds: 0,
            unroutable_orders: 0,
            now: 0,
            waiting_at_last_tick: 0,
            phase_timer: PhaseTimer::disabled(),
            phases: WorldPhases::default(),
        })
    }

    /// Installs the clock phase breakdowns are measured on. Pass a wall
    /// clock for profiling, a simulated clock for deterministic tests, or
    /// leave uninstalled (the default) for zero measurement overhead.
    pub fn set_time_source(&mut self, timer: PhaseTimer) {
        self.phase_timer = timer;
    }

    /// Drains the per-phase millisecond accumulators (resets them to
    /// zero). Call once per epoch to get an epoch-scoped breakdown.
    pub fn take_phases(&mut self) -> WorldPhases {
        std::mem::take(&mut self.phases)
    }

    /// Publishes the shared route planner's cache counters into an
    /// observability registry under `prefix` (see
    /// [`mobirescue_roadnet::planner::RoutePlanner::publish`]).
    pub fn publish_routing(&self, registry: &mobirescue_obs::Registry, prefix: &str) {
        self.planner.publish(registry, prefix);
    }

    /// Schedules a batch of requests before the world starts (ids are
    /// assigned in slice order, matching the batch [`run`] semantics).
    ///
    /// # Errors
    ///
    /// Returns [`WorldError::UnknownSegment`] when a request references a
    /// segment outside the network; no request is scheduled in that case.
    pub fn schedule_requests(&mut self, requests: &[RequestSpec]) -> Result<(), WorldError> {
        for r in requests {
            if r.segment.index() >= self.city.network.num_segments() {
                return Err(WorldError::UnknownSegment(r.segment));
            }
        }
        for &spec in requests {
            let id = self.requests.push_spec(spec);
            self.specs.push((id, spec));
        }
        // Stable sort keeps id order within one appearance second.
        self.specs[self.next_spec..].sort_by_key(|(_, s)| s.appear_s);
        Ok(())
    }

    /// Injects one request into the running world (the service ingestion
    /// path). A spec whose `appear_s` is already in the past appears at
    /// the next step.
    ///
    /// # Errors
    ///
    /// Returns [`WorldError::UnknownSegment`] for an out-of-range segment
    /// — the event is dropped, the world unharmed.
    pub fn inject_request(&mut self, spec: RequestSpec) -> Result<RequestId, WorldError> {
        if spec.segment.index() >= self.city.network.num_segments() {
            return Err(WorldError::UnknownSegment(spec.segment));
        }
        let id = self.requests.push_spec(spec);
        // Insert in appearance order among the not-yet-appeared.
        let tail = &mut self.specs[self.next_spec..];
        let offset = tail.partition_point(|(_, s)| s.appear_s <= spec.appear_s);
        self.specs.insert(self.next_spec + offset, (id, spec));
        Ok(id)
    }

    /// The current simulation second.
    pub fn now_s(&self) -> u32 {
        self.now
    }

    /// The configured end of the simulated window, seconds.
    pub fn end_s(&self) -> u32 {
        self.config.duration_s()
    }

    /// Index of the epoch the next step belongs to.
    pub fn epoch_index(&self) -> u32 {
        self.now / self.config.dispatch_period_s
    }

    /// Requests currently waiting for pickup. O(1) — the waiting table
    /// keeps a running total.
    pub fn num_waiting(&self) -> usize {
        self.waiting.total()
    }

    /// Requests picked up so far. O(1) — counted incrementally.
    pub fn num_picked_up(&self) -> usize {
        self.requests.picked_count()
    }

    /// Requests delivered to a hospital so far. O(1) — counted
    /// incrementally.
    pub fn num_delivered(&self) -> usize {
        self.requests.delivered_count()
    }

    /// Materializes all request outcomes so far (final only after the
    /// world ends). Allocates — request state lives in a struct-of-arrays
    /// arena; use [`World::num_picked_up`]/[`World::num_delivered`] for
    /// counters.
    pub fn outcomes(&self) -> Vec<RequestOutcome> {
        self.requests.to_outcomes()
    }

    /// Cumulative hit/miss counters of the world's shared route planner
    /// (see [`mobirescue_roadnet::planner::RoutePlanner`]) — surfaced so
    /// the serve runtime can report routing-cache effectiveness.
    pub fn routing_stats(&self) -> mobirescue_roadnet::planner::PlannerStats {
        self.planner.stats()
    }

    /// Carries the route planner's cache counters on from `stats`, the
    /// totals recorded next to this world's snapshot (see
    /// [`mobirescue_roadnet::planner::RoutePlanner::resume_stats`]).
    pub fn resume_routing_stats(&self, stats: mobirescue_roadnet::planner::PlannerStats) {
        self.planner.resume_stats(stats);
    }

    /// Advances one second. `extra_latency_s` is added to the
    /// dispatcher's *modeled* latency if this step runs a dispatch tick —
    /// the serve runtime feeds the measured wall-clock computation time
    /// of the dispatcher back in here, so real compute latency delays
    /// order application exactly as the paper's Figure 13 penalizes.
    pub fn step(&mut self, dispatcher: &mut dyn Dispatcher, extra_latency_s: f64) {
        let now = self.now;
        let hour = (self.config.start_hour + now / 3_600).min(self.conditions.hours() - 1);
        let cond = self.conditions.at(hour);
        let net = &self.city.network;

        // 1. Inject appearing requests.
        let t_ingest = self.phase_timer.now_ms();
        while self.next_spec < self.specs.len() && self.specs[self.next_spec].1.appear_s <= now {
            let (id, spec) = self.specs[self.next_spec];
            self.waiting.push(spec.segment, id);
            self.next_spec += 1;
        }
        self.phases.ingest_ms += self.phase_timer.elapsed_since(t_ingest);

        // 1b. Sample team positions (Section IV-C4 training data).
        if let Some(every) = self.config.sample_positions_every_s {
            if every > 0 && now.is_multiple_of(every) {
                self.position_samples
                    .push((now, self.teams.location.clone()));
            }
        }

        // 2. Dispatch tick.
        let t_dispatch = self.phase_timer.now_ms();
        if now.is_multiple_of(self.config.dispatch_period_s) {
            self.serving_per_tick.push((now, self.teams.num_serving()));
            let views: Vec<TeamView> = (0..self.teams.len())
                .map(|i| TeamView {
                    id: TeamId(i as u32),
                    location: self.teams.location[i],
                    onboard: self.teams.onboard_count(i),
                    delivering: self.teams.mission[i] == Mission::ToHospital,
                    standby: self.teams.standby(i),
                })
                .collect();
            self.waiting.compact();
            let mut waiting: Vec<RequestView> = Vec::with_capacity(self.waiting.total());
            for segment in self.waiting.present_sorted() {
                for &id in self.waiting.ids(segment) {
                    waiting.push(RequestView {
                        id,
                        segment,
                        appear_s: self.requests.appear_s(id),
                    });
                }
            }
            waiting.sort_by_key(|r| r.id);
            self.waiting_at_last_tick = waiting.len();
            let state = DispatchState {
                now_s: now,
                hour,
                teams: &views,
                waiting: &waiting,
                net,
                condition: cond,
                planner: &self.planner,
                hospitals: &self.city.hospitals,
                depot: self.city.depot,
            };
            let latency = dispatcher.compute_latency_s(&state).max(0.0) + extra_latency_s.max(0.0);
            let plan = dispatcher.dispatch(&state);
            self.pending_plans
                .push_back((now + latency.ceil() as u32, plan));
            self.dispatch_rounds += 1;
        }
        self.phases.dispatch_ms += self.phase_timer.elapsed_since(t_dispatch);

        // 3. Apply plans whose computation has finished.
        let t_routing = self.phase_timer.now_ms();
        while self.pending_plans.front().is_some_and(|(t, _)| *t <= now) {
            let (_, plan) = self.pending_plans.pop_front().expect("checked non-empty");
            for (i, order) in plan.orders.iter().enumerate().take(self.teams.len()) {
                let Some(order) = order else { continue };
                if self.teams.mission[i] == Mission::ToHospital
                    || self.teams.onboard_count(i) >= self.config.capacity
                {
                    continue; // committed to unloading
                }
                match order {
                    Order::GoToSegment(seg) => {
                        if !set_route_to_segment(&mut self.teams, i, &self.planner, cond, *seg) {
                            self.unroutable_orders += 1;
                        } else {
                            self.teams.mission[i] = Mission::ToSegment(*seg);
                            self.teams.order_start_s[i] = now;
                        }
                    }
                    Order::ReturnToBase => {
                        if self.teams.onboard_count(i) == 0
                            && set_route_to_landmark(
                                &mut self.teams,
                                i,
                                &self.planner,
                                cond,
                                self.city.depot,
                            )
                        {
                            self.teams.mission[i] = Mission::ToBase;
                            self.teams.order_start_s[i] = now;
                        }
                    }
                }
            }
        }

        // 4. Move teams.
        let hour_idx = (now / 3_600) as usize;
        for served_row in &mut self.team_served {
            if served_row.len() <= hour_idx {
                // A service running past the configured window keeps
                // counting; the batch path never grows here.
                served_row.resize(hour_idx + 1, 0);
            }
        }
        for ti in 0..self.teams.len() {
            if self.teams.stall_s[ti] > 0.0 {
                self.teams.stall_s[ti] -= 1.0;
                continue;
            }
            // A team ordered to a hospital it is already at unloads on the
            // spot.
            if self.teams.routes[ti].is_empty() && self.teams.mission[ti] == Mission::ToHospital {
                for &id in self.teams.onboard(ti) {
                    self.requests.record_delivery(id, now);
                }
                self.teams.clear_onboard(ti);
                self.teams.mission[ti] = Mission::Standby;
            }
            let Some(&current) = self.teams.routes[ti].front() else {
                continue;
            };
            if self.teams.seg_remaining_s[ti] <= 0.0 {
                // Entering the segment now.
                match cond.travel_time_s(net.segment(current)) {
                    Some(t) => self.teams.seg_remaining_s[ti] = t,
                    None => {
                        // Flooded since routing: replan toward the mission.
                        if !replan(&mut self.teams, ti, &self.planner, cond, self.city) {
                            abort_mission(&mut self.teams, ti, &self.planner, cond, self.city);
                        }
                        continue;
                    }
                }
            }
            self.teams.seg_remaining_s[ti] -= 1.0;
            if self.teams.seg_remaining_s[ti] > 0.0 {
                continue;
            }
            // Arrived at the end of `current`.
            self.teams.routes[ti].pop_front();
            self.teams.location[ti] = net.segment(current).to;
            pickup_on(
                current,
                &self.reverse,
                &mut self.teams,
                ti,
                now,
                &self.config,
                &mut self.waiting,
                &mut self.requests,
                &mut self.team_served[ti][hour_idx..hour_idx + 1],
            );
            if self.teams.onboard_count(ti) >= self.config.capacity {
                self.teams.routes[ti].clear();
            }
            if self.teams.routes[ti].is_empty() {
                // Mission endpoint reached (or truncated by a full load).
                match self.teams.mission[ti] {
                    Mission::ToSegment(target) => {
                        // Serve the assigned segment even if it could not
                        // be traversed (e.g. the segment itself is flooded)
                        // — but only from one of its endpoints; a route
                        // truncated at the water's edge does not reach the
                        // trapped person.
                        let tgt = net.segment(target);
                        if self.teams.location[ti] == tgt.from || self.teams.location[ti] == tgt.to
                        {
                            pickup_on(
                                target,
                                &self.reverse,
                                &mut self.teams,
                                ti,
                                now,
                                &self.config,
                                &mut self.waiting,
                                &mut self.requests,
                                &mut self.team_served[ti][hour_idx..hour_idx + 1],
                            );
                        }
                        if self.teams.onboard_count(ti) == 0 {
                            self.teams.mission[ti] = Mission::Standby;
                        } else {
                            head_to_hospital(
                                &mut self.teams,
                                ti,
                                &self.planner,
                                cond,
                                self.city,
                                now,
                            );
                        }
                    }
                    Mission::ToHospital => {
                        for &id in self.teams.onboard(ti) {
                            self.requests.record_delivery(id, now);
                        }
                        self.teams.clear_onboard(ti);
                        self.teams.mission[ti] = Mission::Standby;
                    }
                    Mission::ToBase | Mission::Standby => {
                        self.teams.mission[ti] = Mission::Standby;
                    }
                }
            }
        }
        self.phases.routing_ms += self.phase_timer.elapsed_since(t_routing);
        self.now = now + 1;
    }

    /// Advances one full dispatch epoch (`dispatch_period_s` seconds) and
    /// reports what happened. See [`World::step`] for `extra_latency_s`.
    pub fn run_epoch(
        &mut self,
        dispatcher: &mut dyn Dispatcher,
        extra_latency_s: f64,
    ) -> EpochReport {
        let epoch = self.epoch_index();
        let start_s = self.now;
        let picked_before = self.num_picked_up();
        let delivered_before = self.num_delivered();
        let end = (epoch + 1) * self.config.dispatch_period_s;
        let mut first = true;
        while self.now < end {
            self.step(dispatcher, if first { extra_latency_s } else { 0.0 });
            first = false;
        }
        let &(tick_s, serving_at_tick) = self.serving_per_tick.last().unwrap_or(&(start_s, 0));
        debug_assert_eq!(tick_s, start_s);
        EpochReport {
            epoch,
            start_s,
            waiting_at_tick: self.waiting_at_last_tick,
            serving_at_tick,
            picked_up: (self.num_picked_up() - picked_before) as u32,
            delivered: (self.num_delivered() - delivered_before) as u32,
        }
    }

    /// Like [`World::run_epoch`], but deadline-aware: after `primary`
    /// computes the epoch's plan, `over_deadline` is consulted; if it
    /// reports the dispatch deadline blown, the primary's plan is
    /// discarded and `fallback` plans the epoch instead. Returns the
    /// epoch report plus whether the fallback was used.
    ///
    /// The serve runtime drives `over_deadline` from its service clock
    /// (wall time in deployment, simulated time in tests), which is how a
    /// stalled or overly slow policy degrades to a cheap heuristic instead
    /// of delaying the whole epoch barrier. When `over_deadline` never
    /// fires, the epoch is bit-identical to a plain [`World::run_epoch`]
    /// call.
    pub fn run_epoch_with_deadline(
        &mut self,
        primary: &mut dyn Dispatcher,
        fallback: &mut dyn Dispatcher,
        extra_latency_s: f64,
        over_deadline: &mut dyn FnMut() -> bool,
    ) -> (EpochReport, bool) {
        struct DeadlineGate<'d> {
            primary: &'d mut dyn Dispatcher,
            fallback: &'d mut dyn Dispatcher,
            over_deadline: &'d mut dyn FnMut() -> bool,
            degraded: bool,
        }
        impl Dispatcher for DeadlineGate<'_> {
            fn name(&self) -> &str {
                self.primary.name()
            }
            fn compute_latency_s(&self, state: &DispatchState<'_>) -> f64 {
                self.primary.compute_latency_s(state)
            }
            fn dispatch(&mut self, state: &DispatchState<'_>) -> DispatchPlan {
                let plan = self.primary.dispatch(state);
                if (self.over_deadline)() {
                    self.degraded = true;
                    self.fallback.dispatch(state)
                } else {
                    plan
                }
            }
        }
        let mut gate = DeadlineGate {
            primary,
            fallback,
            over_deadline,
            degraded: false,
        };
        let report = self.run_epoch(&mut gate, extra_latency_s);
        (report, gate.degraded)
    }

    /// Consumes the world into the batch outcome shape.
    pub fn into_outcome(self, dispatcher_name: &str) -> SimOutcome {
        SimOutcome {
            dispatcher: dispatcher_name.to_owned(),
            config: self.config,
            requests: self.requests.to_outcomes(),
            serving_per_tick: self.serving_per_tick,
            team_served: self.team_served,
            dispatch_rounds: self.dispatch_rounds,
            unroutable_orders: self.unroutable_orders,
            position_samples: self.position_samples,
        }
    }
}

/// Runs one simulation of `dispatcher` on `city` with the given request
/// schedule.
///
/// # Panics
///
/// Panics if the configuration is degenerate (no teams, zero capacity), the
/// city has no hospitals, a request references an unknown segment, or the
/// simulated window extends past the scenario's hourly conditions.
pub fn run(
    city: &City,
    conditions: &HourlyConditions,
    requests: &[RequestSpec],
    dispatcher: &mut dyn Dispatcher,
    config: &SimConfig,
) -> SimOutcome {
    let mut world = World::new(city, conditions, config).unwrap_or_else(|e| panic!("{e}"));
    world
        .schedule_requests(requests)
        .unwrap_or_else(|e| panic!("{e}"));
    let end = config.duration_s();
    while world.now_s() < end {
        world.step(dispatcher, 0.0);
    }
    world.into_outcome(dispatcher.name())
}

/// Picks up waiting requests on `seg` (and its reverse twin) into team
/// `ti`, recording outcomes. `served_slot` is the team's counter for the
/// current hour.
#[allow(clippy::too_many_arguments)]
fn pickup_on(
    seg: SegmentId,
    reverse: &[u32],
    teams: &mut TeamArena,
    ti: usize,
    now: u32,
    config: &SimConfig,
    waiting: &mut WaitingQueues,
    requests: &mut RequestArena,
    served_slot: &mut [u32],
) {
    let twin = reverse[seg.index()];
    let segs = [Some(seg), (twin != NO_U32).then_some(SegmentId(twin))];
    for s in segs.into_iter().flatten() {
        if !waiting.present(s) {
            continue;
        }
        while teams.onboard_count(ti) < config.capacity {
            let Some(id) = waiting.pop_front(s) else {
                break;
            };
            // Driving delay counts from whichever came later: the team's
            // order or the request's appearance — a pre-positioned team
            // was not yet "driving to" a request that did not exist.
            let start = teams.order_start_s[ti].max(requests.appear_s(id));
            requests.record_pickup(id, now, TeamId(ti as u32), now.saturating_sub(start) as f64);
            teams.push_onboard(ti, id);
            teams.stall_s[ti] += config.pickup_service_s as f64;
            served_slot[0] += 1;
        }
        if waiting.ids(s).is_empty() {
            waiting.remove_entry(s);
        }
    }
}

/// Where rerouting starts and which in-progress segment must be kept: a
/// team midway along a segment finishes it first and replans from its end;
/// an idle team replans from its location.
fn reroute_start(
    teams: &TeamArena,
    ti: usize,
    planner: &RoutePlanner<'_>,
) -> (LandmarkId, VecDeque<SegmentId>) {
    if teams.seg_remaining_s[ti] > 0.0 {
        if let Some(&cur) = teams.routes[ti].front() {
            let mut prefix = VecDeque::new();
            prefix.push_back(cur);
            return (planner.network().segment(cur).to, prefix);
        }
    }
    (teams.location[ti], VecDeque::new())
}

/// Routes `team` to traverse `seg` (or only to `seg.from` when the segment
/// itself is flooded — the assigned pickup still happens on arrival).
///
/// When the target is unreachable on the damaged network, the team instead
/// drives the *pre-disaster* shortest route as far as the first blockage —
/// modelling a damage-unaware dispatcher's vehicles discovering the flood
/// en route. Returns `false` only when the team cannot move toward the
/// target at all.
fn set_route_to_segment(
    teams: &mut TeamArena,
    ti: usize,
    planner: &RoutePlanner<'_>,
    cond: &NetworkCondition,
    seg: SegmentId,
) -> bool {
    let net = planner.network();
    let target_from = net.segment(seg).from;
    let (start, mut route) = reroute_start(teams, ti, planner);
    if let Some(path) = planner.route(cond, start, target_from) {
        route.extend(path.segments);
        if cond.is_operable(seg) {
            route.push_back(seg);
        }
        teams.routes[ti] = route;
        return true;
    }
    // Unreachable on G̃: drive the intact-network route up to the water's
    // edge.
    let Some(path) = planner.free_flow_route(start, target_from) else {
        return false;
    };
    let mut drove_anywhere = false;
    for sid in path.segments {
        if !cond.is_operable(sid) {
            break;
        }
        route.push_back(sid);
        drove_anywhere = true;
    }
    if !drove_anywhere {
        return false;
    }
    teams.routes[ti] = route;
    true
}

/// Routes team `ti` to a landmark. Returns `false` when unreachable.
fn set_route_to_landmark(
    teams: &mut TeamArena,
    ti: usize,
    planner: &RoutePlanner<'_>,
    cond: &NetworkCondition,
    to: LandmarkId,
) -> bool {
    let (start, mut route) = reroute_start(teams, ti, planner);
    let Some(path) = planner.route(cond, start, to) else {
        return false;
    };
    route.extend(path.segments);
    teams.routes[ti] = route;
    true
}

/// Routes team `ti` to the nearest reachable hospital, with the route from
/// the same search that picks the hospital. Callers zero `seg_remaining_s`
/// first, so the search starts at the team's landmark. Returns `false`
/// when no hospital is reachable.
fn set_route_to_hospital(
    teams: &mut TeamArena,
    ti: usize,
    planner: &RoutePlanner<'_>,
    cond: &NetworkCondition,
    city: &City,
) -> bool {
    let (start, mut route) = reroute_start(teams, ti, planner);
    let Some((_, path)) = planner.nearest_route(cond, start, &city.hospitals) else {
        return false;
    };
    route.extend(path.segments);
    teams.routes[ti] = route;
    true
}

/// Replans the current mission from the team's location. Returns `false`
/// when the mission target is unreachable.
fn replan(
    teams: &mut TeamArena,
    ti: usize,
    planner: &RoutePlanner<'_>,
    cond: &NetworkCondition,
    city: &City,
) -> bool {
    teams.seg_remaining_s[ti] = 0.0;
    teams.routes[ti].clear();
    match teams.mission[ti] {
        Mission::ToSegment(seg) => set_route_to_segment(teams, ti, planner, cond, seg),
        Mission::ToHospital => set_route_to_hospital(teams, ti, planner, cond, city),
        Mission::ToBase => set_route_to_landmark(teams, ti, planner, cond, city.depot),
        Mission::Standby => true,
    }
}

/// Abandons the mission: loaded teams try any hospital, empty teams stand
/// by.
fn abort_mission(
    teams: &mut TeamArena,
    ti: usize,
    planner: &RoutePlanner<'_>,
    cond: &NetworkCondition,
    city: &City,
) {
    teams.routes[ti].clear();
    teams.seg_remaining_s[ti] = 0.0;
    if teams.onboard_count(ti) > 0 && set_route_to_hospital(teams, ti, planner, cond, city) {
        teams.mission[ti] = Mission::ToHospital;
        return;
    }
    teams.mission[ti] = Mission::Standby;
}

/// Sends a loaded team to the nearest reachable hospital.
fn head_to_hospital(
    teams: &mut TeamArena,
    ti: usize,
    planner: &RoutePlanner<'_>,
    cond: &NetworkCondition,
    city: &City,
    now: u32,
) {
    teams.seg_remaining_s[ti] = 0.0;
    if set_route_to_hospital(teams, ti, planner, cond, city) {
        teams.mission[ti] = Mission::ToHospital;
        teams.order_start_s[ti] = now;
        return;
    }
    teams.mission[ti] = Mission::Standby;
}
