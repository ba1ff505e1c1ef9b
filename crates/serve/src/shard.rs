//! The shard worker: one OS thread owning one [`World`] and its
//! dispatcher.
//!
//! Shards are independent cities (the paper dispatches one metropolitan
//! area; a deployment hosts several). Each worker receives commands over a
//! channel, which doubles as the epoch barrier: the service sends
//! `RunEpoch` to every shard and then waits for every status reply, so
//! shards advance epochs in lockstep while ingestion keeps running on
//! producer threads.
//!
//! The worker measures its dispatcher's per-epoch compute time through the
//! service [`Clock`] and feeds the *previous* epoch's measurement into the
//! next [`World::run_epoch`] as extra order latency — real compute time
//! delays order application exactly as `sim::engine` models dispatch
//! latency (the paper's Figure 13 penalty). On a [`crate::SimClock`] the
//! measurement is exactly zero, which is what makes service runs
//! reproducible in tests.
//!
//! # Graceful degradation
//!
//! A shard never skips an epoch silently. The worker builds its DQN
//! dispatcher once, from the service's [`ModelBundle`], when it spawns.
//! When that dispatcher overruns the per-epoch compute budget
//! (`RunEpoch::budget_ms`), the plan computed late is discarded and the
//! paper's nearest-request heuristic replans; the epoch counts as
//! *degraded*. One wrapper, [`DeadlineDispatcher`], times the primary,
//! adds any injected stall and makes that decision inside a plain
//! [`World::run_epoch`].
//!
//! The budget is checked against the *shard's own* measured dispatch time,
//! not an absolute clock instant: shards share one service clock, so an
//! injected stall on one shard must not leak into its neighbours'
//! deadline decisions.

use crate::bundle::ModelBundle;
use crate::clock::Clock;
use crate::fault::{FaultInjector, ShardFault};
use crate::metrics::{routing_prefix, shard_series};
use mobirescue_core::rl_dispatch::RlDispatchConfig;
use mobirescue_core::scenario::Scenario;
use mobirescue_obs::{PhaseTimer, Registry, TimeSource};
use mobirescue_roadnet::planner::PlannerStats;
use mobirescue_sim::dispatcher::{DispatchState, Dispatcher};
use mobirescue_sim::record::Reader;
use mobirescue_sim::{
    DispatchPlan, EpochReport, NearestRequestDispatcher, RequestSpec, SimConfig, World,
};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Commands the service sends to a shard worker.
#[derive(Clone)]
pub(crate) enum ShardCmd {
    /// Inject the drained requests, run one dispatch epoch, reply with
    /// [`ShardReply::Epoch`].
    RunEpoch {
        /// Requests drained from the shard's ingest queue.
        requests: Vec<RequestSpec>,
        /// Per-epoch dispatch compute budget, ms. When the primary
        /// dispatcher's measured compute exceeds it, its plan is discarded
        /// and the heuristic fallback replans (a degraded epoch).
        budget_ms: Option<u64>,
    },
    /// Reply with the shard's serialized state.
    Snapshot,
    /// Replace the shard's state with a parsed snapshot.
    Restore(String),
    /// Exit the worker thread.
    Shutdown,
}

/// What one epoch produced, reported back to the service. The shard's
/// running counts are not here: the worker publishes them into its
/// `serve.shard{i}.*` series before it replies.
#[derive(Debug, Clone)]
pub(crate) struct ShardStatus {
    /// Whether the epoch was degraded.
    pub degraded_now: bool,
    /// The epoch's report.
    pub report: EpochReport,
}

/// Worker replies.
pub(crate) enum ShardReply {
    Epoch(ShardStatus),
    Snapshot(Result<String, String>),
    Restored(Result<(), String>),
}

/// Everything a worker needs to run.
pub(crate) struct ShardSpec {
    pub scenario: Arc<Scenario>,
    /// The models the worker builds its dispatcher from, checked by the
    /// service before any worker spawned.
    pub bundle: Arc<ModelBundle>,
    pub clock: Arc<dyn Clock>,
    pub sim: SimConfig,
    pub rl: RlDispatchConfig,
    /// Fault schedule shared with the service (chaos testing only).
    pub faults: Option<Arc<FaultInjector>>,
    /// Service observability registry: workers record the per-epoch phase
    /// histograms and publish their `serve.shard{i}.*` and
    /// `routing.shard{i}.*` series into it.
    pub obs: Arc<Registry>,
}

/// Enforces the epoch deadline around the primary dispatcher: it
/// measures the primary's compute time through the service clock, and
/// when that time exceeds the budget it discards the late plan and
/// returns the fallback's instead, marking the epoch degraded. The
/// modelled compute latency stays the primary's either way.
struct DeadlineDispatcher<'d> {
    primary: &'d mut dyn Dispatcher,
    fallback: &'d mut NearestRequestDispatcher,
    clock: &'d dyn Clock,
    budget_ms: Option<u64>,
    /// Injected stall applied once, at the first dispatch call.
    stall_ms: u64,
    /// The primary's measured compute time this epoch, stall included.
    spent_ms: u64,
    degraded: bool,
}

impl Dispatcher for DeadlineDispatcher<'_> {
    fn name(&self) -> &str {
        self.primary.name()
    }

    fn compute_latency_s(&self, state: &DispatchState<'_>) -> f64 {
        self.primary.compute_latency_s(state)
    }

    fn dispatch(&mut self, state: &DispatchState<'_>) -> DispatchPlan {
        let t0 = self.clock.now_ms();
        let plan = self.primary.dispatch(state);
        let elapsed = self.clock.now_ms().saturating_sub(t0);
        // An injected stall is accounted directly rather than slept on the
        // clock: shards share the service clock, so sleeping would leak
        // one shard's stall into its neighbours' concurrently measured
        // epochs (and make SimClock runs nondeterministic).
        self.spent_ms += elapsed + std::mem::take(&mut self.stall_ms);
        if self.budget_ms.is_some_and(|budget| self.spent_ms > budget) {
            self.degraded = true;
            self.fallback.dispatch(state)
        } else {
            plan
        }
    }
}

/// Publishes shard `index`'s running counts into the service registry:
/// `serve.shard{i}.*` and the planner's `routing.shard{i}.*`. The worker
/// owns these values (its world's counts and its own tallies) and is the
/// series' only writer: it publishes after every epoch and every restore,
/// before it replies, so the series are current whenever the service
/// holds the reply.
fn publish(
    obs: &Registry,
    index: usize,
    world: &World<'_>,
    [injected, rejected, degraded]: [u64; 3],
) {
    let counter = |series: &str, value: u64| obs.counter(&shard_series(index, series)).set(value);
    let gauge = |series: &str, value: i64| obs.gauge(&shard_series(index, series)).set(value);
    counter("epochs", u64::from(world.epoch_index()));
    counter("injected", injected);
    counter("rejected", rejected);
    gauge("waiting", world.num_waiting() as i64);
    counter("picked_up", world.num_picked_up() as u64);
    counter("delivered", world.num_delivered() as u64);
    counter("degraded_epochs", degraded);
    world.publish_routing(obs, &routing_prefix(index));
}

/// Spawns the worker thread for one shard.
pub(crate) fn spawn_shard(
    index: usize,
    spec: ShardSpec,
    rx: Receiver<ShardCmd>,
    tx: Sender<ShardReply>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("mobirescue-shard-{index}"))
        .spawn(move || run_shard(index, spec, &rx, &tx))
        .expect("spawning a shard thread never fails on this platform")
}

fn run_shard(index: usize, spec: ShardSpec, rx: &Receiver<ShardCmd>, tx: &Sender<ShardReply>) {
    let scenario = &spec.scenario;
    // Phase spans measure on the *service* clock, like everything else the
    // worker times: under a SimClock every span is exactly zero, so
    // instrumented runs stay bit-identical to uninstrumented ones.
    let time_source: Arc<dyn TimeSource> = Arc::clone(&spec.clock) as _;
    let phase_timer = PhaseTimer::new(Arc::clone(&time_source));
    let obs = Arc::clone(&spec.obs);
    let h_ingest = obs.histogram("epoch.ingest_ms");
    let h_predict = obs.histogram("epoch.predict_ms");
    let h_dispatch = obs.histogram("epoch.dispatch_ms");
    let h_routing = obs.histogram("epoch.routing_ms");
    // The service validated this exact construction before spawning.
    let mut world = World::new(&scenario.city, &scenario.conditions, &spec.sim)
        .expect("service validated the world configuration");
    world.set_time_source(phase_timer.clone());
    let mut dispatcher = spec.bundle.dispatcher(scenario, &spec.rl);
    dispatcher.set_time_source(phase_timer.clone());
    let mut fallback = NearestRequestDispatcher::default();
    let mut injected: u64 = 0;
    let mut rejected: u64 = 0;
    let mut carry_ms: u64 = 0;
    let mut degraded: u64 = 0;

    while let Ok(cmd) = rx.recv() {
        match cmd {
            ShardCmd::RunEpoch {
                requests,
                budget_ms,
            } => {
                let epoch = world.epoch_index();
                // An injected crash kills the worker mid-epoch without a
                // reply — the service sees exactly what a real thread
                // death looks like: a dead channel. The fault was consumed
                // above, so the post-restore replay of this epoch runs it
                // unfaulted (replay masking).
                let stall_ms = match spec
                    .faults
                    .as_deref()
                    .and_then(|f| f.take_shard_fault(epoch, index))
                {
                    Some(ShardFault::Crash) => return,
                    Some(ShardFault::Stall(ms)) => ms,
                    None => 0,
                };
                {
                    let ingest_span = h_ingest.time(time_source.as_ref());
                    for r in requests {
                        match world.inject_request(r) {
                            Ok(_) => injected += 1,
                            Err(_) => rejected += 1,
                        }
                    }
                    drop(ingest_span);
                }
                let mut gate = DeadlineDispatcher {
                    primary: &mut dispatcher,
                    fallback: &mut fallback,
                    clock: &*spec.clock,
                    budget_ms,
                    stall_ms,
                    spent_ms: 0,
                    degraded: false,
                };
                let report = world.run_epoch(&mut gate, carry_ms as f64 / 1_000.0);
                let (spent_ms, degraded_now) = (gate.spent_ms, gate.degraded);
                h_predict.record(dispatcher.take_predict_ms());
                h_dispatch.record(spent_ms);
                h_routing.record(world.take_phases().routing_ms);
                degraded += u64::from(degraded_now);
                publish(&obs, index, &world, [injected, rejected, degraded]);
                let st = ShardStatus {
                    degraded_now,
                    report,
                };
                if tx.send(ShardReply::Epoch(st)).is_err() {
                    return;
                }
                carry_ms = spent_ms;
            }
            ShardCmd::Snapshot => {
                let routing = world.routing_stats();
                // The fourth field is the model version older services
                // swapped; a service serves one bundle, written as 1.
                let mut text = format!(
                    "shardstate {injected} {rejected} {carry_ms} 1 {} {} {degraded}\n",
                    routing.hits, routing.misses
                );
                text.push_str(&world.snapshot_text());
                if tx.send(ShardReply::Snapshot(Ok(text))).is_err() {
                    return;
                }
            }
            ShardCmd::Restore(text) => {
                let reply = match parse_shard_snapshot(scenario, &text) {
                    Ok(parsed) => {
                        world = parsed.world;
                        world.set_time_source(phase_timer.clone());
                        injected = parsed.injected;
                        rejected = parsed.rejected;
                        carry_ms = parsed.carry_ms;
                        degraded = parsed.degraded;
                        // The restored world's planner is fresh: carry the
                        // snapshot's cache totals on in it.
                        world.resume_routing_stats(parsed.routing);
                        publish(&obs, index, &world, [injected, rejected, degraded]);
                        Ok(())
                    }
                    Err(e) => Err(e),
                };
                if tx.send(ShardReply::Restored(reply)).is_err() {
                    return;
                }
            }
            ShardCmd::Shutdown => return,
        }
    }
}

struct ParsedShard<'a> {
    world: World<'a>,
    injected: u64,
    rejected: u64,
    carry_ms: u64,
    routing: PlannerStats,
    degraded: u64,
}

fn parse_shard_snapshot<'a>(scenario: &'a Scenario, text: &str) -> Result<ParsedShard<'a>, String> {
    let (first, rest) = text
        .split_once('\n')
        .ok_or_else(|| "empty shard snapshot".to_owned())?;
    let mut r = Reader::new(first).expect("shardstate")?;
    let injected = r.field("injected")?;
    let rejected = r.field("rejected")?;
    let carry_ms = r.field("carry latency")?;
    r.field::<u64>("model version")?;
    let parsed = ParsedShard {
        injected,
        rejected,
        carry_ms,
        routing: PlannerStats {
            hits: r.field("routing hits")?,
            misses: r.field("routing misses")?,
        },
        degraded: r.field("degraded epochs")?,
        world: World::restore_text(&scenario.city, &scenario.conditions, rest)
            .map_err(|e| e.to_string())?,
    };
    r.finish()?;
    Ok(parsed)
}
