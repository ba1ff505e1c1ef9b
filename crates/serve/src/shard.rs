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
//! A shard never skips an epoch silently. When the DQN dispatcher is
//! unavailable or too slow it falls back to the paper's nearest-request
//! heuristic for that epoch and counts it as *degraded*:
//!
//! * the per-epoch compute budget (`RunEpoch::budget_ms`) is exceeded —
//!   the plan computed late is discarded and the heuristic replans, via
//!   [`World::run_epoch_with_deadline`];
//! * a registry hot-swap fails and no previously-built dispatcher exists
//!   (or a [`crate::FaultInjector`] injected a swap failure);
//!
//! The budget is checked against the *shard's own* measured dispatch time,
//! not an absolute clock instant: shards share one service clock, so an
//! injected stall on one shard must not leak into its neighbours'
//! deadline decisions.

use crate::clock::Clock;
use crate::fault::{FaultInjector, ShardFault};
use crate::metrics::{routing_prefix, shard_series};
use crate::registry::{ModelBundle, ModelRegistry};
use mobirescue_core::predictor::RequestPredictor;
use mobirescue_core::rl_dispatch::{MobiRescueDispatcher, RlDispatchConfig, FEATURE_DIM};
use mobirescue_core::scenario::Scenario;
use mobirescue_obs::{PhaseTimer, Registry, TimeSource};
use mobirescue_rl::qscore::{PairTransition, QScore, QScoreConfig};
use mobirescue_roadnet::planner::PlannerStats;
use mobirescue_sim::dispatcher::{DispatchState, Dispatcher};
use mobirescue_sim::record::Reader;
use mobirescue_sim::{
    DispatchPlan, EpochReport, NearestRequestDispatcher, RequestSpec, SimConfig, World,
};
use std::cell::Cell;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Why a shard's model hot-swap did not take effect this epoch. Typed so
/// the service can attribute degradation causes precisely (chaos counters
/// compare injected faults against observed swap failures by kind).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwapError {
    /// A fault injector simulated the registry being unreachable.
    Injected,
    /// The current bundle failed to build a dispatcher (parse or shape
    /// failure in a directly-installed checkpoint).
    Build(String),
    /// A rollout canary directive's candidate failed to build on this
    /// shard — the service counts it as a canary gate failure.
    Rollout(String),
}

impl std::fmt::Display for SwapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwapError::Injected => write!(f, "injected registry swap failure"),
            SwapError::Build(m) => write!(f, "{m}"),
            SwapError::Rollout(m) => write!(f, "rollout candidate rejected: {m}"),
        }
    }
}

/// Per-epoch rollout instruction from the service's promotion pipeline.
#[derive(Clone)]
pub(crate) enum RolloutDirective {
    /// Score the candidate side-by-side on a twin of this epoch; the
    /// incumbent keeps serving the primary dispatch.
    Shadow(Arc<ModelBundle>),
    /// Serve this epoch with the candidate (canary shards only).
    Canary(Arc<ModelBundle>),
}

/// Outcome of one shadow evaluation epoch.
#[derive(Debug, Clone)]
pub(crate) struct ShadowReport {
    /// The paper reward the candidate earned on the twin epoch.
    pub candidate_reward: f64,
    /// Why the candidate could not be evaluated (build/restore failure) —
    /// an immediate rollout gate failure.
    pub error: Option<String>,
}

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
        /// In-flight rollout instruction for this epoch, if any.
        rollout: Option<RolloutDirective>,
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
    /// A model hot-swap that failed this epoch (the shard keeps serving —
    /// with its previous dispatcher, or degraded on the fallback).
    pub swap_error: Option<SwapError>,
    /// Paper reward of the epoch.
    pub reward: f64,
    /// Shadow evaluation result, when a shadow directive was attached.
    pub shadow: Option<ShadowReport>,
    /// Transitions tapped from the primary dispatcher this epoch (empty
    /// unless the spec enables the tap; dropped on degraded epochs, where
    /// the heuristic's plan — not the tapped decisions — drove the world).
    pub transitions: Vec<PairTransition>,
}

/// Worker replies.
pub(crate) enum ShardReply {
    Epoch(Result<Box<ShardStatus>, String>),
    Snapshot(Result<String, String>),
    Restored(Result<(), String>),
}

/// Everything a worker needs to run.
pub(crate) struct ShardSpec {
    pub scenario: Arc<Scenario>,
    pub registry: Arc<ModelRegistry>,
    pub clock: Arc<dyn Clock>,
    pub sim: SimConfig,
    pub rl: RlDispatchConfig,
    /// Fault schedule shared with the service (chaos testing only).
    pub faults: Option<Arc<FaultInjector>>,
    /// Service observability registry: workers record the per-epoch phase
    /// histograms and publish their `serve.shard{i}.*` and
    /// `routing.shard{i}.*` series into it.
    pub obs: Arc<Registry>,
    /// Tap the primary dispatcher's transitions for the online trainer.
    /// The tap never changes action selection, so enabling it leaves
    /// dispatch bit-identical.
    pub tap_transitions: bool,
}

/// Wraps the real dispatcher to measure its compute time through the
/// service clock. The measurement accumulates into a shared [`Cell`] so
/// the epoch-budget check can read it while the wrapper is mutably
/// borrowed by the running epoch.
struct TimedDispatcher<'d> {
    inner: &'d mut dyn Dispatcher,
    clock: &'d dyn Clock,
    spent_ms: &'d Cell<u64>,
    /// Injected stall applied once, at the first dispatch call.
    stall_ms: u64,
}

impl Dispatcher for TimedDispatcher<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn compute_latency_s(&self, state: &DispatchState<'_>) -> f64 {
        self.inner.compute_latency_s(state)
    }

    fn dispatch(&mut self, state: &DispatchState<'_>) -> DispatchPlan {
        let t0 = self.clock.now_ms();
        let plan = self.inner.dispatch(state);
        let elapsed = self.clock.now_ms().saturating_sub(t0);
        // An injected stall is accounted directly rather than slept on the
        // clock: shards share the service clock, so sleeping would leak
        // one shard's stall into its neighbours' concurrently measured
        // epochs (and make SimClock runs nondeterministic).
        self.spent_ms
            .set(self.spent_ms.get() + elapsed + self.stall_ms);
        self.stall_ms = 0;
        plan
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
    model_version: u64,
) {
    let counter = |series: &str, value: u64| obs.counter(&shard_series(index, series)).set(value);
    let gauge = |series: &str, value: i64| obs.gauge(&shard_series(index, series)).set(value);
    counter("epochs", u64::from(world.epoch_index()));
    counter("injected", injected);
    counter("rejected", rejected);
    gauge("waiting", world.num_waiting() as i64);
    counter("picked_up", world.num_picked_up() as u64);
    counter("delivered", world.num_delivered() as u64);
    gauge("model_version", model_version as i64);
    counter("degraded_epochs", degraded);
    world.publish_routing(obs, &routing_prefix(index));
}

/// Builds a frozen-greedy dispatcher from a model bundle.
fn build_dispatcher<'a>(
    scenario: &'a Scenario,
    rl: &RlDispatchConfig,
    bundle: &ModelBundle,
) -> Result<MobiRescueDispatcher<'a>, String> {
    let mut qcfg = QScoreConfig::new(FEATURE_DIM);
    qcfg.hidden = rl.hidden.clone();
    qcfg.lr = rl.lr;
    qcfg.gamma = rl.discount;
    qcfg.seed = rl.seed;
    let policy = match &bundle.policy {
        Some(net) => {
            if net.input_dim() != FEATURE_DIM || net.output_dim() != 1 {
                return Err(format!(
                    "policy network is {}→{}, dispatcher needs {FEATURE_DIM}→1",
                    net.input_dim(),
                    net.output_dim()
                ));
            }
            QScore::from_mlp(qcfg, net.clone())
        }
        None => QScore::new(qcfg),
    };
    let predictor: Option<RequestPredictor> = bundle.predictor.clone();
    let mut d = MobiRescueDispatcher::try_with_policy(scenario, predictor, rl.clone(), policy)?;
    // Serving is frozen greedy evaluation; training happens offline and
    // arrives through the registry.
    d.set_training(false);
    Ok(d)
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
    let mut bundle = spec.registry.current();
    let mut dispatcher = build_dispatcher(scenario, &spec.rl, &bundle).ok();
    if let Some(d) = dispatcher.as_mut() {
        d.set_time_source(phase_timer.clone());
        d.set_transition_tap(spec.tap_transitions);
    }
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
                rollout,
            } => {
                let epoch = world.epoch_index();
                let faults = spec.faults.as_deref();
                // An injected crash kills the worker mid-epoch without a
                // reply — the service sees exactly what a real thread
                // death looks like: a dead channel. The fault was consumed
                // above, so the post-restore replay of this epoch runs it
                // unfaulted (replay masking).
                let stall_ms = match faults.and_then(|f| f.take_shard_fault(epoch, index)) {
                    Some(ShardFault::Crash) => return,
                    Some(ShardFault::Stall(ms)) => ms,
                    None => 0,
                };
                // Hot-swap check at the epoch boundary only: mid-epoch the
                // dispatcher stays whatever the epoch started with. An
                // injected swap failure simulates the registry being
                // unreachable: no swap happens and this epoch is served
                // degraded on the fallback. A canary directive overrides
                // the registry — the shard serves the candidate bundle —
                // while a shadow directive leaves the incumbent path
                // untouched and only pins the twin inputs below.
                let mut swap_error: Option<SwapError> = None;
                let mut force_fallback = false;
                let mut shadow_cand: Option<Arc<ModelBundle>> = None;
                match &rollout {
                    Some(RolloutDirective::Canary(cand)) => {
                        if faults.is_some_and(|f| f.take_swap_failure(epoch, index)) {
                            swap_error = Some(SwapError::Injected);
                            force_fallback = true;
                        } else if !Arc::ptr_eq(&bundle, cand) || dispatcher.is_none() {
                            match build_dispatcher(scenario, &spec.rl, cand) {
                                Ok(mut d) => {
                                    d.set_time_source(phase_timer.clone());
                                    d.set_transition_tap(spec.tap_transitions);
                                    dispatcher = Some(d);
                                    bundle = Arc::clone(cand);
                                }
                                Err(e) => swap_error = Some(SwapError::Rollout(e)),
                            }
                        }
                    }
                    directive => {
                        if let Some(RolloutDirective::Shadow(cand)) = directive {
                            shadow_cand = Some(Arc::clone(cand));
                        }
                        if faults.is_some_and(|f| f.take_swap_failure(epoch, index)) {
                            swap_error = Some(SwapError::Injected);
                            force_fallback = true;
                        } else {
                            let current = spec.registry.current();
                            // Compare by Arc identity, not version: a
                            // rolled-back canary leaves the shard holding
                            // a stale bundle whose *tentative* version can
                            // collide with the next genuine install.
                            if !Arc::ptr_eq(&current, &bundle) || dispatcher.is_none() {
                                match build_dispatcher(scenario, &spec.rl, &current) {
                                    Ok(mut d) => {
                                        d.set_time_source(phase_timer.clone());
                                        d.set_transition_tap(spec.tap_transitions);
                                        dispatcher = Some(d);
                                        bundle = current;
                                    }
                                    Err(e) => swap_error = Some(SwapError::Build(e)),
                                }
                            }
                        }
                    }
                }
                // Pin the shadow twin's inputs before they are consumed:
                // the candidate must replay exactly this epoch — same
                // world, same requests, same carry latency.
                let shadow_ctx = shadow_cand
                    .as_ref()
                    .map(|_| (world.snapshot_text(), requests.clone()));
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
                let spent_ms = Cell::new(0u64);
                let carry_s = carry_ms as f64 / 1_000.0;
                let (report, degraded_now) = match dispatcher.as_mut() {
                    Some(d) if !force_fallback => {
                        let (report, late) = {
                            let mut timed = TimedDispatcher {
                                inner: d,
                                clock: &*spec.clock,
                                spent_ms: &spent_ms,
                                stall_ms,
                            };
                            let mut over =
                                || budget_ms.is_some_and(|budget| spent_ms.get() > budget);
                            world.run_epoch_with_deadline(
                                &mut timed,
                                &mut fallback,
                                carry_s,
                                &mut over,
                            )
                        };
                        h_predict.record(d.take_predict_ms());
                        (report, late)
                    }
                    _ => {
                        // The DQN policy is unavailable (failed swap with
                        // no usable predecessor, or an injected registry
                        // failure): serve the epoch on the heuristic
                        // rather than skip it.
                        let report = {
                            let mut timed = TimedDispatcher {
                                inner: &mut fallback,
                                clock: &*spec.clock,
                                spent_ms: &spent_ms,
                                stall_ms,
                            };
                            world.run_epoch(&mut timed, carry_s)
                        };
                        h_predict.record(0);
                        if swap_error.is_none() {
                            swap_error =
                                Some(SwapError::Build("no dispatcher could be built".to_owned()));
                        }
                        (report, true)
                    }
                };
                h_dispatch.record(spent_ms.get());
                h_routing.record(world.take_phases().routing_ms);
                degraded += u64::from(degraded_now);
                publish(
                    &obs,
                    index,
                    &world,
                    [injected, rejected, degraded],
                    bundle.version,
                );
                let reward = crate::rollout::epoch_reward(&spec.rl, &spec.sim, &report);
                // Drain the tap every epoch (even when the transitions are
                // then discarded) so stale decisions never leak into a
                // later epoch's batch. On a degraded epoch the heuristic's
                // plan drove the world, so the tapped decisions' rewards
                // would be misattributed — drop them.
                let transitions = match dispatcher.as_mut() {
                    Some(d) => {
                        let tapped = d.take_tapped_transitions();
                        if degraded_now {
                            Vec::new()
                        } else {
                            tapped
                        }
                    }
                    None => Vec::new(),
                };
                let shadow = shadow_ctx.as_ref().zip(shadow_cand.as_ref()).map(
                    |((pre_text, reqs), cand)| {
                        evaluate_shadow(
                            scenario, &spec.rl, &spec.sim, cand, pre_text, reqs, carry_s,
                        )
                    },
                );
                let st = ShardStatus {
                    degraded_now,
                    report,
                    swap_error,
                    reward,
                    shadow,
                    transitions,
                };
                if tx.send(ShardReply::Epoch(Ok(Box::new(st)))).is_err() {
                    return;
                }
                carry_ms = spent_ms.get();
            }
            ShardCmd::Snapshot => {
                let routing = world.routing_stats();
                let mut text = format!(
                    "shardstate {injected} {rejected} {carry_ms} {} {} {} {degraded}\n",
                    bundle.version, routing.hits, routing.misses
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
                        // The dispatcher rebuilds from the registry at the
                        // next epoch; until then report the version the
                        // snapshot ran with.
                        let tallies = [injected, rejected, degraded];
                        publish(&obs, index, &world, tallies, parsed.version);
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

/// Runs the candidate on a twin of the epoch the shard just served: the
/// twin world is restored from the pre-ingest snapshot, receives the same
/// requests, and runs one plain epoch under the candidate's dispatcher.
/// Nothing the twin does touches the primary world, the routing planner,
/// the obs registry, or the clock — shadow evaluation is invisible to
/// dispatch and to snapshots, so SimClock runs stay bit-identical whether
/// or not a shadow rollout is in flight at the time.
fn evaluate_shadow(
    scenario: &Scenario,
    rl: &RlDispatchConfig,
    sim: &SimConfig,
    candidate: &ModelBundle,
    pre_epoch_text: &str,
    requests: &[RequestSpec],
    carry_s: f64,
) -> ShadowReport {
    let mut d = match build_dispatcher(scenario, rl, candidate) {
        Ok(d) => d,
        Err(e) => {
            return ShadowReport {
                candidate_reward: 0.0,
                error: Some(e),
            }
        }
    };
    let mut twin = match World::restore_text(&scenario.city, &scenario.conditions, pre_epoch_text) {
        Ok(w) => w,
        Err(e) => {
            return ShadowReport {
                candidate_reward: 0.0,
                error: Some(e.to_string()),
            }
        }
    };
    for r in requests {
        // The primary already decided admission for these; a twin-side
        // rejection would only repeat the same queue-capacity outcome.
        let _ = twin.inject_request(*r);
    }
    let report = twin.run_epoch(&mut d, carry_s);
    ShadowReport {
        candidate_reward: crate::rollout::epoch_reward(rl, sim, &report),
        error: None,
    }
}

struct ParsedShard<'a> {
    world: World<'a>,
    injected: u64,
    rejected: u64,
    carry_ms: u64,
    version: u64,
    routing: PlannerStats,
    degraded: u64,
}

fn parse_shard_snapshot<'a>(scenario: &'a Scenario, text: &str) -> Result<ParsedShard<'a>, String> {
    let (first, rest) = text
        .split_once('\n')
        .ok_or_else(|| "empty shard snapshot".to_owned())?;
    let mut r = Reader::new(first).expect("shardstate")?;
    let parsed = ParsedShard {
        injected: r.field("injected")?,
        rejected: r.field("rejected")?,
        carry_ms: r.field("carry latency")?,
        version: r.field("model version")?,
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
