//! The dispatch service: sharded runner, ingestion front, epoch barrier,
//! snapshot/restore, and the recovery machinery exercised by the chaos
//! harness (bounded ingestion retry, delayed-event release, shard
//! crash-restart from the last boundary checkpoint).

use crate::clock::Clock;
use crate::error::ServeError;
use crate::event::Event;
use crate::fault::{reward_tank_policy_text, IngestFault, TrainerFault, WalFault};
use crate::metrics::{shard_series, MetricsSnapshot};
use crate::queue::{BoundedQueue, ShedPolicy};
use crate::registry::ModelRegistry;
use crate::rollout::{
    Events, Rollout, RolloutConfig, RolloutCounters, RolloutError, RolloutRecords, RolloutStatus,
};
use crate::shard::{spawn_shard, ShardCmd, ShardReply, ShardSpec, ShardStatus, SwapError};
use crate::trainer::{Trainer, TrainerConfig, TrainerStatus};
use crate::wal::{FsyncPolicy, Wal, WalConfig, WalEntry, WalError};
use crate::FaultInjector;
use mobirescue_core::rl_dispatch::RlDispatchConfig;
use mobirescue_core::scenario::Scenario;
use mobirescue_obs::{Counter, Histogram, Level, ObsSnapshot, Registry};
use mobirescue_rl::PairTransition;
use mobirescue_roadnet::graph::SegmentId;
use mobirescue_sim::record::{write_block, Reader, Record, RecordError};
use mobirescue_sim::{open_snapshot, seal_snapshot};
use mobirescue_sim::{EpochReport, RequestSpec, SimConfig, World};
use std::fmt::Write as _;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Configuration of a [`DispatchService`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Independent city shards hosted on the thread pool.
    pub num_shards: usize,
    /// Capacity of each shard's request ingest queue. A full queue
    /// rejects the newcomer: an accepted rescue is never silently
    /// forgotten.
    pub request_queue_capacity: usize,
    /// Per-shard simulation settings (the dispatch period is the paper's
    /// 5-minute tick).
    pub sim: SimConfig,
    /// Dispatcher settings shared by all shards.
    pub rl: RlDispatchConfig,
    /// Deterministic fault schedule for chaos testing (`None` in
    /// production: every hook is a no-op).
    pub faults: Option<Arc<FaultInjector>>,
    /// Per-epoch dispatch compute budget, ms. A shard whose primary
    /// dispatcher exceeds it discards the late plan and replans with the
    /// heuristic fallback (a degraded epoch). `None` disables the
    /// deadline.
    pub epoch_deadline_ms: Option<u64>,
    /// Restart a dead shard worker from its last boundary checkpoint and
    /// replay the epoch's drained events, instead of failing the epoch.
    /// Costs one shard snapshot per epoch.
    pub auto_recover: bool,
    /// Observability registry the service publishes into. `None` (the
    /// default) gives the service a private registry, reachable through
    /// [`DispatchService::obs`]. Supplying a registry is for embedding the
    /// service in a host that scrapes one place — never share it with a
    /// *live* second service: counters are get-or-create by name, and
    /// [`DispatchService::restore`] overwrites them from the snapshot.
    pub obs: Option<Arc<Registry>>,
    /// Gate parameters for [`DispatchService::submit_rollout`]'s guarded
    /// promotion pipeline (admission → shadow → canary → watch).
    pub rollout: RolloutConfig,
    /// Online training loop. `Some` makes every shard tap its dispatch
    /// transitions into a background trainer whose candidate checkpoints
    /// feed [`DispatchService::submit_rollout`]; `None` (the default)
    /// disables training entirely.
    pub trainer: Option<TrainerConfig>,
    /// Durable write-ahead ingest journal. `Some` journals every request
    /// push attempt *before* it reaches a queue — so an `Ok(true)` from
    /// [`DispatchService::ingest`] (and therefore a net-layer `Ack`)
    /// means the request survives a process kill; `None` (the default)
    /// keeps ingestion memory-only.
    pub wal: Option<WalConfig>,
}

impl ServeConfig {
    /// A service over `sim` with one shard and moderate queue bounds.
    pub fn new(sim: SimConfig) -> Self {
        Self {
            num_shards: 1,
            request_queue_capacity: 1_024,
            sim,
            rl: RlDispatchConfig::default(),
            faults: None,
            epoch_deadline_ms: None,
            auto_recover: false,
            obs: None,
            rollout: RolloutConfig::default(),
            trainer: None,
            wal: None,
        }
    }
}

/// Capacity of the shared weather/road-damage advisory queue. A full
/// queue evicts its oldest advisory: a fresh observation supersedes a
/// stale one.
const ADVISORY_QUEUE_CAPACITY: usize = 256;

/// Bounded retry for [`DispatchService::ingest_with_retry`]: when the
/// queue sheds the event, back off on the service clock and re-offer.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Re-offers after the first attempt.
    pub max_retries: u32,
    /// First backoff, ms (scaled by `backoff_multiplier` per retry).
    pub base_backoff_ms: u64,
    /// Multiplier applied to the backoff after every retry.
    pub backoff_multiplier: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            base_backoff_ms: 10,
            backoff_multiplier: 2,
        }
    }
}

/// A request deferred in flight by an injected [`IngestFault::Delay`],
/// waiting for its release epoch.
#[derive(Debug, Clone)]
struct DelayedRequest {
    release_epoch: u32,
    shard: usize,
    spec: RequestSpec,
}

/// Mutable service-level state, behind one lock: what the epoch logic
/// reads back. No count lives here — every count the service reports is
/// an obs [`Registry`] series with one writer — except `epochs_completed`,
/// the barrier's own epoch number, which a scrape samples into
/// `serve.epochs_completed`.
struct ServiceState {
    epochs_completed: u32,
    last_swap_error: Option<(usize, SwapError)>,
    rollout: Rollout,
}

struct ShardHandle {
    tx: Sender<ShardCmd>,
    rx: Receiver<ShardReply>,
    join: Option<JoinHandle<()>>,
}

/// The online trainer plus its last epoch-boundary checkpoint. The
/// checkpoint is refreshed after every trainer tick, so an injected
/// trainer crash at a boundary respawns into exactly the state an
/// unfaulted trainer would hold.
struct TrainerSlot {
    trainer: Trainer,
    checkpoint: String,
}

/// A running sharded dispatch service.
///
/// Producers call [`DispatchService::ingest`] from any thread at any time;
/// an epoch driver (usually [`crate::EpochScheduler`]) calls
/// [`DispatchService::run_epoch`] every dispatch period. Snapshots taken
/// at epoch boundaries restore into a service that continues
/// step-for-step identically.
pub struct DispatchService {
    config: ServeConfig,
    scenario: Arc<Scenario>,
    registry: Arc<ModelRegistry>,
    clock: Arc<dyn Clock>,
    request_queues: Vec<Arc<BoundedQueue<RequestSpec>>>,
    advisories: Arc<BoundedQueue<Event>>,
    // Each handle sits in its own Mutex so a dead worker can be replaced
    // through `&self` during crash recovery (and because the non-`Sync`
    // receiver must not be shared bare across the `Arc`).
    shards: Vec<Mutex<ShardHandle>>,
    delayed: Mutex<Vec<DelayedRequest>>,
    // Last boundary checkpoint per shard (auto-recover only).
    checkpoints: Mutex<Vec<Option<String>>>,
    obs: Arc<Registry>,
    // Registry-backed counters, handles fetched once at start.
    retries: Counter,
    restarts: Counter,
    advisories_applied: Counter,
    advisories_invalid: Counter,
    degraded_epochs: Counter,
    swap_fail_injected: Counter,
    swap_fail_build: Counter,
    swap_fail_rollout: Counter,
    rollouts_admitted: Counter,
    rollouts_rejected: Counter,
    rollouts_rolled_back: Counter,
    candidates_submitted: Counter,
    candidates_admitted: Counter,
    candidates_rejected: Counter,
    snapshot_hist: Histogram,
    // The online trainer (populated iff `config.trainer` is set), stepped
    // synchronously at each epoch boundary.
    trainer: Mutex<Option<TrainerSlot>>,
    // The durable ingest journal (populated iff `config.wal` is set),
    // appended to under its own lock so producers group-commit naturally.
    wal: Mutex<Option<Wal>>,
    state: Mutex<ServiceState>,
}

impl DispatchService {
    /// Starts the service: validates the configuration, spawns one worker
    /// thread per shard, and (when `config.wal` is set) opens the durable
    /// ingest journal and replays every journaled request into the fresh
    /// queues — a fresh boot has no snapshot, so the entire journal is the
    /// un-checkpointed suffix.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] for zero shards,
    /// [`ServeError::World`] when the simulation configuration cannot host
    /// a world over `scenario`, and [`ServeError::Wal`] when the journal
    /// directory holds a corrupt segment.
    pub fn start(
        scenario: Arc<Scenario>,
        config: ServeConfig,
        clock: Arc<dyn Clock>,
        registry: Arc<ModelRegistry>,
    ) -> Result<Self, ServeError> {
        let svc = Self::start_core(scenario, config, clock, registry)?;
        svc.attach_wal(Some(0))?;
        Ok(svc)
    }

    /// Spawns the service without touching the journal; `start` and
    /// `restore` attach it afterwards with the right replay cutoff.
    fn start_core(
        scenario: Arc<Scenario>,
        config: ServeConfig,
        clock: Arc<dyn Clock>,
        registry: Arc<ModelRegistry>,
    ) -> Result<Self, ServeError> {
        if config.num_shards == 0 {
            return Err(ServeError::BadConfig("need at least one shard"));
        }
        // Validate once on the caller's thread so workers cannot fail
        // construction.
        World::new(&scenario.city, &scenario.conditions, &config.sim)?;
        let obs = config.obs.clone().unwrap_or_default();
        // A full request queue sheds the newcomer: evicting the oldest
        // would drop a request that is already journaled and acked.
        let request_queues: Vec<_> = (0..config.num_shards)
            .map(|i| {
                Arc::new(BoundedQueue::new(
                    config.request_queue_capacity,
                    ShedPolicy::DropNewest,
                    obs.counter(&shard_series(i, "requests_accepted")),
                    obs.counter(&shard_series(i, "requests_shed")),
                ))
            })
            .collect();
        let advisories = Arc::new(BoundedQueue::new(
            ADVISORY_QUEUE_CAPACITY,
            ShedPolicy::DropOldest,
            obs.counter("serve.advisories_accepted"),
            obs.counter("serve.advisories_shed"),
        ));
        let state = ServiceState {
            epochs_completed: 0,
            last_swap_error: None,
            rollout: Rollout::new(config.rollout.clone(), Arc::clone(&registry)),
        };
        let trainer = config.trainer.clone().map(|cfg| {
            let trainer = Trainer::new(cfg, &obs, Arc::clone(&clock) as _);
            let checkpoint = trainer.snapshot_text();
            TrainerSlot {
                trainer,
                checkpoint,
            }
        });
        let num_shards = config.num_shards;
        let mut svc = Self {
            config,
            scenario,
            registry,
            clock,
            request_queues,
            advisories,
            shards: Vec::new(),
            delayed: Mutex::new(Vec::new()),
            checkpoints: Mutex::new(vec![None; num_shards]),
            retries: obs.counter("serve.ingest_retries"),
            restarts: obs.counter("serve.shard_restarts"),
            advisories_applied: obs.counter("serve.advisories_applied"),
            advisories_invalid: obs.counter("serve.advisories_invalid"),
            degraded_epochs: obs.counter("serve.degraded_epochs"),
            swap_fail_injected: obs.counter("serve.swap_failures_injected"),
            swap_fail_build: obs.counter("serve.swap_failures_build"),
            swap_fail_rollout: obs.counter("serve.swap_failures_rollout"),
            rollouts_admitted: obs.counter("serve.rollouts_admitted"),
            rollouts_rejected: obs.counter("serve.rollouts_rejected"),
            rollouts_rolled_back: obs.counter("serve.rollouts_rolled_back"),
            candidates_submitted: obs.counter("train.candidates_submitted"),
            candidates_admitted: obs.counter("train.candidates_admitted"),
            candidates_rejected: obs.counter("train.candidates_rejected"),
            snapshot_hist: obs.histogram("epoch.snapshot_ms"),
            obs,
            trainer: Mutex::new(trainer),
            wal: Mutex::new(None),
            state: Mutex::new(state),
        };
        svc.shards = (0..num_shards)
            .map(|i| Mutex::new(svc.spawn_worker(i)))
            .collect();
        Ok(svc)
    }

    /// Opens the journal from `config.wal` (no-op when unset) and replays
    /// the suffix past `hwm` into the request queues: `Some(h)` replays
    /// records with `seq > h`, `None` (a pre-wal snapshot with no
    /// high-water mark) replays nothing.
    fn attach_wal(&self, hwm: Option<u64>) -> Result<(), ServeError> {
        let Some(cfg) = self.config.wal.clone() else {
            return Ok(());
        };
        let (mut wal, recovery) = Wal::open(cfg, &self.obs, Arc::clone(&self.clock) as _)?;
        if let Some(WalError::TornTail { segment, offset }) = &recovery.torn {
            self.obs.events().log(
                Level::Warn,
                0,
                None,
                format!("wal: truncated torn tail in {segment} at byte {offset}"),
            );
        }
        let cutoff = hwm.unwrap_or(u64::MAX);
        let mut replayed = 0u64;
        for rec in &recovery.records {
            if rec.seq <= cutoff {
                continue;
            }
            if rec.shard >= self.request_queues.len() {
                return Err(ServeError::Wal(WalError::Corrupt {
                    segment: rec.segment.clone(),
                    offset: rec.offset,
                    why: format!(
                        "shard {} out of range (service hosts {})",
                        rec.shard,
                        self.request_queues.len()
                    ),
                }));
            }
            // Replay bypasses journaling and fault injection: the record
            // is already durable and the fault schedule already fired for
            // it in the run that journaled it. Every journaled record was
            // admitted (and acked) by the crashed process, so an overflow
            // here means the queue capacity shrank across the restart —
            // refuse rather than silently shed a durable request.
            if !self.request_queues[rec.shard].push(rec.spec) {
                return Err(ServeError::ReplayOverflow {
                    shard: rec.shard,
                    capacity: self.request_queues[rec.shard].capacity(),
                });
            }
            replayed += 1;
        }
        wal.note_replayed(replayed);
        if replayed > 0 {
            self.obs.events().log(
                Level::Info,
                0,
                None,
                format!("wal: replayed {replayed} journaled requests past hwm {cutoff}"),
            );
        }
        if let Some(h) = hwm {
            wal.mark_snapshot(h);
        }
        *lock(&self.wal) = Some(wal);
        Ok(())
    }

    /// Journals then pushes `copies` back-to-back offers of one request
    /// (two for an injected duplicate), atomically with respect to
    /// [`snapshot`]: the queue only sees specs the journal already holds,
    /// so `Ok(true)` (the first copy was admitted) means the request
    /// survives a process kill. Only the copies the bounded queue will
    /// admit are journaled — a journaled record means "admitted and about
    /// to be acked" — so a shed offer leaves no durable trace: recovery
    /// never replays a request whose client got a NACK, and a
    /// shed-then-retried offer is journaled exactly once, on the attempt
    /// that is admitted.
    ///
    /// The journal lock is held across the pushes. It serializes every
    /// journaled push, which makes the room check race-free (concurrent
    /// epoch drains only ever make room), and [`snapshot`] captures the
    /// high-water mark and the queue contents in one journal critical
    /// section, so a record at `seq <= hwm` is always visible to the
    /// queue capture and a record past it never is.
    ///
    /// One injected WAL fault is drawn per call that journals anything,
    /// so the admitted copies journal as one group commit under one draw.
    ///
    /// [`snapshot`]: DispatchService::snapshot
    fn journal_push(
        &self,
        shard: usize,
        spec: RequestSpec,
        copies: usize,
    ) -> Result<bool, ServeError> {
        let mut guard = lock(&self.wal);
        let q = &self.request_queues[shard];
        let room = q.admittable(copies);
        if let (Some(wal), true) = (guard.as_mut(), room > 0) {
            let entry = WalEntry {
                clock_ms: self.clock.now_ms(),
                shard,
                spec,
            };
            let entries = vec![entry; room];
            match self.config.faults.as_ref().and_then(|f| f.next_wal_fault()) {
                Some(WalFault::TornAppend) => {
                    // The append dies mid-write: the tail is torn (and
                    // healed in place, as recovery would), nothing was
                    // made durable, so the caller must refuse the request
                    // instead of acking.
                    let err = wal.inject_torn_append(&entry);
                    self.obs.events().log(
                        Level::Warn,
                        0,
                        Some(shard),
                        format!("wal: injected {err}"),
                    );
                    return Err(ServeError::Wal(err));
                }
                Some(WalFault::SegmentBitFlip) => {
                    wal.append(&entries)?;
                    if let Some((segment, offset)) = wal.inject_bit_flip() {
                        self.obs.events().log(
                            Level::Warn,
                            0,
                            Some(shard),
                            format!("wal: injected bit flip in {segment} at byte {offset}"),
                        );
                    }
                }
                Some(WalFault::FsyncStall(ms)) => {
                    self.clock.sleep_ms(ms);
                    wal.append(&entries)?;
                }
                None => {
                    wal.append(&entries)?;
                }
            }
        }
        let first = q.push(spec);
        for _ in 1..copies {
            let _ = q.push(spec);
        }
        Ok(first)
    }

    /// Flushes the journal when the fsync policy is `Epoch`; called at
    /// every epoch boundary.
    fn wal_epoch_sync(&self) -> Result<(), ServeError> {
        let mut guard = lock(&self.wal);
        if let Some(wal) = guard.as_mut() {
            if wal.fsync_policy() == FsyncPolicy::Epoch {
                wal.sync()?;
            }
        }
        Ok(())
    }

    /// Forces the journal to stable storage regardless of fsync policy.
    /// Drain paths call this before reporting a clean shutdown.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Wal`] when the flush fails.
    pub fn wal_sync(&self) -> Result<(), ServeError> {
        let mut guard = lock(&self.wal);
        if let Some(wal) = guard.as_mut() {
            wal.sync()?;
        }
        Ok(())
    }

    /// Deletes journal segments wholly covered by the last snapshot's
    /// high-water mark, returning how many were removed. Call only after
    /// the snapshot that recorded that mark is durably persisted —
    /// compaction deletes the only other copy of those records.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Wal`] when a segment cannot be removed.
    pub fn wal_compact(&self) -> Result<usize, ServeError> {
        let mut guard = lock(&self.wal);
        match guard.as_mut() {
            Some(wal) => Ok(wal.compact()?),
            None => Ok(0),
        }
    }

    /// The journal's last assigned sequence number (0 when no journal is
    /// configured or nothing was ever journaled).
    pub fn wal_last_seq(&self) -> u64 {
        lock(&self.wal).as_ref().map_or(0, |w| w.last_seq())
    }

    fn state(&self) -> MutexGuard<'_, ServiceState> {
        lock(&self.state)
    }

    fn shard(&self, i: usize) -> MutexGuard<'_, ShardHandle> {
        lock(&self.shards[i])
    }

    /// Spawns a worker thread for shard `i` with a fresh world.
    fn spawn_worker(&self, i: usize) -> ShardHandle {
        let spec = ShardSpec {
            scenario: Arc::clone(&self.scenario),
            registry: Arc::clone(&self.registry),
            clock: Arc::clone(&self.clock),
            sim: self.config.sim.clone(),
            rl: self.config.rl.clone(),
            faults: self.config.faults.clone(),
            obs: Arc::clone(&self.obs),
            tap_transitions: self.config.trainer.is_some(),
        };
        let (cmd_tx, cmd_rx) = channel();
        let (reply_tx, reply_rx) = channel();
        ShardHandle {
            tx: cmd_tx,
            rx: reply_rx,
            join: Some(spawn_shard(i, spec, cmd_rx, reply_tx)),
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The observability registry the service (and its shard workers)
    /// publish into: `serve.*` counters, per-epoch phase histograms
    /// (`epoch.ingest_ms`, `epoch.predict_ms`, `epoch.dispatch_ms`,
    /// `epoch.routing_ms`, `epoch.snapshot_ms`), per-shard `routing.*`
    /// cache gauges, and the structured event ring.
    pub fn obs(&self) -> &Arc<Registry> {
        &self.obs
    }

    /// How many dead shard workers were restarted from a checkpoint. An
    /// operational counter, deliberately *not* part of
    /// [`MetricsSnapshot`] nor the snapshot text: a recovered run must
    /// converge to the exact state of an unfaulted one.
    pub fn shard_restarts(&self) -> u64 {
        self.restarts.value()
    }

    /// Submits a candidate checkpoint bundle to the guarded rollout
    /// pipeline instead of installing it directly into the registry.
    ///
    /// The candidate is structurally validated at once ([`crate::rollout::admit`]:
    /// parse, finite weights, `FEATURE_DIM`-compatible shapes, sane probe
    /// outputs); an admitted candidate then advances one pipeline stage per
    /// [`DispatchService::run_epoch`] — shadow scoring, canary shards,
    /// fleet-wide promotion, post-promotion watch — and any gate failure
    /// rolls it back without ever (further) touching dispatch. Returns the
    /// in-flight status, or `None` when the configured gates are all empty
    /// and the candidate was promoted immediately.
    ///
    /// With a [`FaultInjector`] configured, a scheduled checkpoint poison
    /// replaces the submitted policy text (a corrupted artifact store);
    /// admission must then reject it, or — for an adversarially plausible
    /// poison — the shadow/watch gates must catch it.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Rollout`] with a typed [`RolloutError`]: a
    /// rollout already in flight, an empty candidate, or an admission
    /// failure naming the offending artifact.
    pub fn submit_rollout(
        &self,
        predictor_text: Option<&str>,
        policy_text: Option<&str>,
    ) -> Result<Option<RolloutStatus>, ServeError> {
        let mut state = self.state();
        let epoch = state.epochs_completed;
        if state.rollout.status().is_some() {
            self.rollouts_rejected.inc();
            return Err(ServeError::Rollout(RolloutError::InFlight));
        }
        // The poison hook models a corrupted artifact store: what admission
        // sees is what the store delivered, not what the trainer submitted.
        let policy_text = match &self.config.faults {
            Some(injector) => injector.poison_checkpoint(policy_text.map(str::to_owned)),
            None => policy_text.map(str::to_owned),
        };
        let mut events = Events::new();
        let submitted = state
            .rollout
            .submit(predictor_text, policy_text.as_deref(), &mut events);
        let status = submitted.map_err(|e| {
            self.rollouts_rejected.inc();
            let message = format!("rollout candidate rejected at admission: {e}");
            self.obs.events().log(Level::Warn, epoch, None, message);
            ServeError::Rollout(e)
        })?;
        self.rollouts_admitted.inc();
        drop(state);
        self.log_events(epoch, events);
        Ok(status)
    }

    /// The in-flight rollout's stage, epochs completed within it, and the
    /// candidate's (tentative) version; `None` when nothing is in flight.
    pub fn rollout_status(&self) -> Option<RolloutStatus> {
        self.state().rollout.status()
    }

    /// Lifetime rollout counters: admitted, rejected, rolled back.
    /// Operational counters (like [`DispatchService::shard_restarts`]),
    /// deliberately not part of the snapshot text.
    pub fn rollout_counters(&self) -> RolloutCounters {
        RolloutCounters {
            admitted: self.rollouts_admitted.value(),
            rejected: self.rollouts_rejected.value(),
            rolled_back: self.rollouts_rolled_back.value(),
        }
    }

    /// The online trainer's progress counters, or `None` when the service
    /// was configured without a trainer.
    pub fn trainer_status(&self) -> Option<TrainerStatus> {
        lock(&self.trainer).as_ref().map(|s| s.trainer.status())
    }

    /// The trainer's current online-network checkpoint text (exactly what
    /// its next candidate emission would submit), or `None` without a
    /// trainer. Byte-stable across snapshot/restore and, on a
    /// [`crate::SimClock`], across same-seeded runs.
    pub fn trainer_policy_text(&self) -> Option<String> {
        lock(&self.trainer)
            .as_ref()
            .map(|s| s.trainer.policy_text())
    }

    fn validate_request(&self, spec: &RequestSpec) -> Result<(), ServeError> {
        if spec.segment.index() >= self.scenario.city.network.num_segments() {
            return Err(ServeError::World(
                mobirescue_sim::WorldError::UnknownSegment(spec.segment),
            ));
        }
        Ok(())
    }

    /// Offers one event to the ingestion front. Returns `Ok(true)` if it
    /// was admitted, `Ok(false)` if the bounded queue shed it.
    ///
    /// When a [`FaultInjector`] is configured, each *request* offer passes
    /// through it: the event may be dropped (`Ok(false)`), deferred to a
    /// later epoch (`Ok(true)` — it is in flight, not lost), enqueued
    /// twice, or corrupted in flight (rejected by validation with a typed
    /// error, like any malformed event). Advisories bypass injection.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownShard`] for an out-of-range shard and
    /// [`ServeError::World`] for a request on a segment the city does not
    /// have — malformed events are rejected at the door, not queued.
    pub fn ingest(&self, event: Event) -> Result<bool, ServeError> {
        let shard = event.shard();
        if shard >= self.config.num_shards {
            return Err(ServeError::UnknownShard {
                shard,
                num_shards: self.config.num_shards,
            });
        }
        match event {
            Event::Request { spec, .. } => {
                self.validate_request(&spec)?;
                let Some(injector) = &self.config.faults else {
                    return self.journal_push(shard, spec, 1);
                };
                match injector.next_ingest_fault() {
                    None => self.journal_push(shard, spec, 1),
                    Some(IngestFault::Drop) => Ok(false),
                    Some(IngestFault::Delay(epochs)) => {
                        // Not journaled yet: the spec is journaled when it
                        // is released into a queue, so replay never
                        // resurrects a request ahead of its release epoch.
                        let release_epoch = self.state().epochs_completed + epochs.max(1);
                        lock(&self.delayed).push(DelayedRequest {
                            release_epoch,
                            shard,
                            spec,
                        });
                        Ok(true)
                    }
                    Some(IngestFault::Duplicate) => self.journal_push(shard, spec, 2),
                    Some(IngestFault::Corrupt) => {
                        // The payload is damaged in flight; validation
                        // rejects it exactly like any malformed event.
                        Err(ServeError::World(
                            mobirescue_sim::WorldError::UnknownSegment(SegmentId(u32::MAX)),
                        ))
                    }
                }
            }
            other => Ok(self.advisories.push(other)),
        }
    }

    /// [`DispatchService::ingest`] with bounded retry: when the queue
    /// sheds the offer, back off on the service clock and re-offer, up to
    /// `retry.max_retries` times. Each re-offer is a fresh ingestion (it
    /// passes through fault injection again). Errors are permanent —
    /// malformed events are not retried.
    ///
    /// # Errors
    ///
    /// Whatever [`DispatchService::ingest`] returns.
    pub fn ingest_with_retry(&self, event: Event, retry: &RetryPolicy) -> Result<bool, ServeError> {
        let mut backoff_ms = retry.base_backoff_ms;
        let mut attempts = 0;
        loop {
            if self.ingest(event)? {
                return Ok(true);
            }
            if attempts >= retry.max_retries {
                return Ok(false);
            }
            attempts += 1;
            self.retries.inc();
            self.clock.sleep_ms(backoff_ms);
            backoff_ms = backoff_ms.saturating_mul(retry.backoff_multiplier.max(1));
        }
    }

    /// Moves injection-delayed requests whose release epoch has arrived
    /// into their shard queues (in arrival order).
    fn release_due_delayed(&self) {
        let epoch = self.state().epochs_completed;
        let mut delayed = lock(&self.delayed);
        if delayed.is_empty() {
            return;
        }
        let mut pending = Vec::with_capacity(delayed.len());
        for d in delayed.drain(..) {
            if d.release_epoch <= epoch {
                // Journal at release time, atomically with the push (like
                // every journaled push); if journaling fails the request
                // stays pending for the next boundary instead of being
                // silently lost, and a shed release is never journaled.
                if let Err(err) = self.journal_push(d.shard, d.spec, 1) {
                    self.obs.events().log(
                        Level::Warn,
                        epoch,
                        Some(d.shard),
                        format!("wal: delayed release held back: {err}"),
                    );
                    pending.push(d);
                    continue;
                }
                if let Some(injector) = &self.config.faults {
                    injector.note_delay_released();
                }
            } else {
                pending.push(d);
            }
        }
        *delayed = pending;
    }

    /// Validates drained advisories against the scenario. Weather and
    /// road-damage reports do not mutate the world — hourly conditions are
    /// the scenario's precomputed ground truth (the paper's G̃ per hour) —
    /// but every advisory is checked and counted, and invalid ones
    /// (unknown segment, out-of-window hour) are dropped loudly in the
    /// metrics rather than silently.
    fn apply_advisories(&self, drained: Vec<Event>) -> (u64, u64) {
        let hours = self.scenario.conditions.hours();
        let num_segments = self.scenario.city.network.num_segments();
        let mut applied = 0;
        let mut invalid = 0;
        for event in drained {
            let ok = match event {
                Event::Weather { hour, rain_mm, .. } => {
                    hour < hours && rain_mm.is_finite() && rain_mm >= 0.0
                }
                Event::RoadDamage { segment, hour, .. } => {
                    hour < hours && segment.index() < num_segments
                }
                Event::Request { .. } => false, // never queued here
            };
            if ok {
                applied += 1;
            } else {
                invalid += 1;
            }
        }
        (applied, invalid)
    }

    fn log_events(&self, epoch: u32, events: Events) {
        for (level, shard, message) in events {
            self.obs.events().log(level, epoch, shard, message);
        }
    }

    fn shard_error(&self, shard: usize, message: impl Into<String>) -> ServeError {
        ServeError::Shard {
            shard,
            message: message.into(),
        }
    }

    fn send(&self, shard: usize, cmd: ShardCmd) -> Result<(), ServeError> {
        self.shard(shard)
            .tx
            .send(cmd)
            .map_err(|_| self.shard_error(shard, "worker thread gone"))
    }

    fn recv_reply(&self, shard: usize) -> Result<ShardReply, ServeError> {
        self.shard(shard)
            .rx
            .recv()
            .map_err(|_| self.shard_error(shard, "worker thread died"))
    }

    /// Shard `shard`'s serialized state.
    fn shard_snapshot(&self, shard: usize) -> Result<String, ServeError> {
        self.send(shard, ShardCmd::Snapshot)?;
        match self.recv_reply(shard)? {
            ShardReply::Snapshot(reply) => reply.map_err(|m| self.shard_error(shard, m)),
            _ => Err(self.shard_error(shard, "out-of-protocol reply")),
        }
    }

    /// Replaces shard `shard`'s state with a parsed snapshot `text`; the
    /// worker has republished its series when this returns.
    fn shard_restore(&self, shard: usize, text: String) -> Result<(), ServeError> {
        self.send(shard, ShardCmd::Restore(text))?;
        match self.recv_reply(shard)? {
            ShardReply::Restored(reply) => reply.map_err(|m| self.shard_error(shard, m)),
            _ => Err(self.shard_error(shard, "out-of-protocol reply")),
        }
    }

    /// Shard `shard`'s reply to the `RunEpoch` already sent to it.
    fn epoch_reply(&self, shard: usize) -> Result<Box<ShardStatus>, ServeError> {
        match self.recv_reply(shard)? {
            ShardReply::Epoch(reply) => reply.map_err(|m| self.shard_error(shard, m)),
            _ => Err(self.shard_error(shard, "out-of-protocol reply")),
        }
    }

    /// Restarts shard `i`'s worker, restores it from the last boundary
    /// checkpoint (a missing checkpoint means the shard had completed no
    /// epoch — a fresh world *is* its last good state), and replays the
    /// epoch's `RunEpoch` command, with the already-drained requests. The
    /// crashed epoch's faults were consumed when they fired, so the replay
    /// runs unfaulted.
    fn recover_shard(&self, i: usize, run_epoch: ShardCmd) -> Result<Box<ShardStatus>, ServeError> {
        self.restarts.inc();
        self.obs.events().log(
            Level::Error,
            self.state().epochs_completed,
            Some(i),
            "shard worker died; restarting from last boundary checkpoint",
        );
        {
            let mut h = self.shard(i);
            if let Some(join) = h.join.take() {
                let _ = join.join();
            }
            *h = self.spawn_worker(i);
        }
        let checkpoint = lock(&self.checkpoints)[i].clone();
        if let Some(text) = checkpoint {
            self.shard_restore(i, text)?;
        }
        self.send(i, run_epoch)?;
        self.epoch_reply(i)
    }

    /// Takes a post-epoch checkpoint of every shard for crash recovery.
    fn checkpoint_shards(&self) -> Result<(), ServeError> {
        let _span = self.snapshot_hist.time(self.clock.as_ref());
        for i in 0..self.shards.len() {
            let text = self.shard_snapshot(i)?;
            lock(&self.checkpoints)[i] = Some(text);
        }
        Ok(())
    }

    /// Runs one dispatch epoch on every shard (the barrier): releases due
    /// delayed events, drains each shard's request queue into its world,
    /// advances all shards one dispatch period in parallel, and collects
    /// their reports. With `auto_recover`, a shard whose worker died is
    /// restarted from its last boundary checkpoint and the epoch is
    /// replayed with the same drained batch — no epoch is skipped.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Shard`] when a worker has died (and
    /// `auto_recover` is off or recovery itself failed).
    pub fn run_epoch(&self) -> Result<Vec<EpochReport>, ServeError> {
        self.release_due_delayed();
        let (applied, invalid) = self.apply_advisories(self.advisories.drain());
        let (directives, mut tally) = self.state().rollout.plan(self.shards.len());
        let cmds: Vec<ShardCmd> = (self.request_queues.iter().zip(directives))
            .map(|(q, rollout)| ShardCmd::RunEpoch {
                requests: q.drain(),
                budget_ms: self.config.epoch_deadline_ms,
                rollout,
            })
            .collect();
        let mut send_failed = vec![false; self.shards.len()];
        for (i, cmd) in cmds.iter().enumerate() {
            if let Err(e) = self.send(i, cmd.clone()) {
                if !self.config.auto_recover {
                    return Err(e);
                }
                send_failed[i] = true;
            }
        }
        let mut statuses = Vec::with_capacity(self.shards.len());
        let mut first_error = None;
        for (i, cmd) in cmds.into_iter().enumerate() {
            let mut outcome = if send_failed[i] {
                Err(self.shard_error(i, "worker thread gone"))
            } else {
                self.epoch_reply(i)
            };
            if outcome.is_err() && self.config.auto_recover {
                outcome = self.recover_shard(i, cmd);
            }
            match outcome {
                Ok(st) => statuses.push((i, st)),
                Err(e) => {
                    first_error.get_or_insert(e);
                }
            }
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        let mut reports = Vec::with_capacity(statuses.len());
        let mut events = Events::new();
        // Tapped transitions, collected in shard-index order so the
        // trainer's input stream is deterministic.
        let mut trainer_feed: Vec<PairTransition> = Vec::new();
        let epoch;
        {
            let mut state = self.state();
            let mut any_degraded = false;
            for (i, st) in statuses {
                any_degraded |= st.degraded_now;
                tally.add(i, &st);
                if st.degraded_now {
                    events.push((
                        Level::Warn,
                        Some(i),
                        "epoch served degraded on the heuristic fallback".to_owned(),
                    ));
                }
                if let Some(err) = st.swap_error {
                    match &err {
                        SwapError::Injected => self.swap_fail_injected.inc(),
                        SwapError::Build(_) => self.swap_fail_build.inc(),
                        SwapError::Rollout(_) => self.swap_fail_rollout.inc(),
                    }
                    events.push((Level::Warn, Some(i), format!("model swap failed: {err}")));
                    state.last_swap_error = Some((i, err));
                }
                reports.push(st.report);
                trainer_feed.extend(st.transitions);
            }
            if state.rollout.advance(&tally, &mut events) {
                self.rollouts_rolled_back.inc();
            }
            epoch = state.epochs_completed;
            state.epochs_completed += 1;
            self.advisories_applied.add(applied);
            self.advisories_invalid.add(invalid);
            if any_degraded {
                self.degraded_epochs.inc();
            }
        }
        self.log_events(epoch, events);
        self.run_trainer_phase(epoch, trainer_feed);
        self.wal_epoch_sync()?;
        self.obs
            .events()
            .log(Level::Info, epoch, None, format!("epoch {epoch} complete"));
        if self.config.auto_recover {
            self.checkpoint_shards()?;
        }
        Ok(reports)
    }

    /// The trainer's slice of the epoch boundary: apply any scheduled
    /// trainer fault, offer the epoch's tapped transitions into the
    /// bounded queue, run the learning steps, refresh the crash-recovery
    /// checkpoint, and route an emitted candidate into the rollout
    /// pipeline. A no-op when no trainer is configured.
    fn run_trainer_phase(&self, epoch: u32, mut transitions: Vec<PairTransition>) {
        if self.config.trainer.is_none() {
            return;
        }
        let fault = self
            .config
            .faults
            .as_ref()
            .and_then(|f| f.take_trainer_fault(epoch));
        let mut flood = 0u32;
        match fault {
            None => {}
            Some(TrainerFault::TransitionDrop) => {
                // Lost in transit, upstream of the trainer queue: these
                // never count as offered, so conservation still holds.
                let n = transitions.len();
                transitions.clear();
                self.obs.events().log(
                    Level::Warn,
                    epoch,
                    None,
                    format!("trainer fault: {n} tapped transitions lost in transit"),
                );
            }
            Some(TrainerFault::StaleCandidateFlood(n)) => flood = n,
            Some(TrainerFault::Crash) => {
                let mut slot = lock(&self.trainer);
                if let Some(s) = slot.as_mut() {
                    let message = match s.trainer.restore(&s.checkpoint) {
                        Ok(trainer) => {
                            s.trainer = trainer;
                            "trainer crashed; respawned from last boundary checkpoint".to_owned()
                        }
                        // Unreachable with self-written checkpoints; keep
                        // the live trainer rather than panicking.
                        Err(e) => format!("trainer crash recovery failed, kept live state: {e}"),
                    };
                    self.obs.events().log(Level::Error, epoch, None, message);
                }
            }
        }
        let candidate = {
            let mut slot = lock(&self.trainer);
            let Some(s) = slot.as_mut() else { return };
            s.trainer.offer(transitions);
            let candidate = s.trainer.epoch_tick();
            s.checkpoint = s.trainer.snapshot_text();
            candidate
        };
        // Submission happens outside the trainer lock: `submit_rollout`
        // takes the state lock, and it never touches the trainer.
        if let Some(text) = candidate {
            self.candidates_submitted.inc();
            match self.submit_rollout(None, Some(&text)) {
                Ok(_) => {
                    self.candidates_admitted.inc();
                    self.obs.events().log(
                        Level::Info,
                        epoch,
                        None,
                        "trainer candidate submitted to the rollout pipeline",
                    );
                }
                Err(e) => {
                    // A rollout already in flight (or a rejected artifact)
                    // discards the candidate deterministically; the next
                    // cadence tick emits a fresher one anyway.
                    self.candidates_rejected.inc();
                    self.obs.events().log(
                        Level::Warn,
                        epoch,
                        None,
                        format!("trainer candidate discarded: {e}"),
                    );
                }
            }
        }
        for _ in 0..flood {
            // A wedged trainer replaying stale state: structurally valid,
            // reward-tanking candidates. Every one must die at a gate.
            self.candidates_submitted.inc();
            let stale = reward_tank_policy_text();
            match self.submit_rollout(None, Some(&stale)) {
                Ok(_) => self.candidates_admitted.inc(),
                Err(_) => self.candidates_rejected.inc(),
            }
        }
        if flood > 0 {
            self.obs.events().log(
                Level::Warn,
                epoch,
                None,
                format!("trainer fault: flood of {flood} stale candidates submitted"),
            );
        }
    }

    /// The most recent failed model hot-swap, if any: the shard index and
    /// the typed reason (injected fault, bundle build failure, or a
    /// rollout candidate rejected on a canary shard). A failed swap is not
    /// fatal — the shard keeps serving with its previous dispatcher, or
    /// degraded on the heuristic fallback when none exists — but operators
    /// should see it.
    pub fn last_swap_error(&self) -> Option<(usize, SwapError)> {
        self.state().last_swap_error.clone()
    }

    /// Assembles a point-in-time metrics snapshot without stopping any
    /// shard: a read-only view over one [`DispatchService::obs_snapshot`]
    /// capture.
    pub fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot::read(&self.obs_snapshot(), self.shards.len())
    }

    /// Captures the registry: the phase histograms, every count the
    /// service reports (each written live by its owner — a queue, a shard
    /// worker, the epoch barrier — or set by a restore), and the event
    /// ring. The few values owned outside the registry are sampled into
    /// it first: the barrier's epoch count, the model registry's version
    /// and swap count, and each request queue's depth.
    pub fn obs_snapshot(&self) -> ObsSnapshot {
        self.sample_into_registry(&self.state())
    }

    fn sample_into_registry(&self, state: &ServiceState) -> ObsSnapshot {
        let o = &self.obs;
        o.counter("serve.epochs_completed")
            .set(u64::from(state.epochs_completed));
        o.gauge("serve.model_version")
            .set(self.registry.current().version as i64);
        o.counter("serve.model_swaps").set(self.registry.swaps());
        for (i, q) in self.request_queues.iter().enumerate() {
            o.gauge(&shard_series(i, "queue_depth"))
                .set(q.depth() as i64);
        }
        o.snapshot()
    }

    /// Serializes the whole service — every shard's world, the pending
    /// queue contents, and the service counters — to a versioned text
    /// blob sealed with an FNV-1a checksum trailer. Take it at an epoch
    /// boundary (between [`run_epoch`] calls); a service restored from it
    /// continues identically.
    ///
    /// With a [`FaultInjector`] configured, a scheduled snapshot
    /// corruption damages the returned text (a torn or bit-rotted write);
    /// [`DispatchService::restore`] must then reject it.
    ///
    /// [`run_epoch`]: DispatchService::run_epoch
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Shard`] when a worker cannot serialize.
    pub fn snapshot(&self) -> Result<String, ServeError> {
        let _span = self.snapshot_hist.time(self.clock.as_ref());
        // Capture the journal high-water mark AND the queue contents in
        // ONE journal critical section, before taking the state lock (wal
        // and state locks are never held together). Every journaled push
        // holds the wal lock across its queue push, so a record at
        // `seq <= hwm` is already visible to this capture and a record
        // past the mark never is — exactly the invariant a restore's
        // replay-strictly-past-hwm depends on. Capturing them in separate
        // critical sections would let a concurrent listener thread slip a
        // push between them, losing (or duplicating) an acked request
        // across a crash-restore.
        let (wal_hwm, rqueue_text) = {
            let mut guard = lock(&self.wal);
            let hwm = match guard.as_mut() {
                Some(wal) => {
                    let hwm = wal.last_seq();
                    wal.mark_snapshot(hwm);
                    hwm
                }
                None => 0,
            };
            let mut rq = String::new();
            for (i, q) in self.request_queues.iter().enumerate() {
                let _ = writeln!(rq, "rqueue {i} {} {}", q.accepted(), q.shed());
                for spec in q.peek_all() {
                    let _ = writeln!(rq, "queued {i} {} {}", spec.appear_s, spec.segment.0);
                }
            }
            (hwm, rq)
        };
        let mut out = String::from("mrserve 1\n");
        {
            let state = self.state();
            let _ = writeln!(out, "epochs {} {}", state.epochs_completed, wal_hwm);
            let _ = writeln!(
                out,
                "advisories {} {} {} {}",
                self.advisories_applied.value(),
                self.advisories_invalid.value(),
                self.advisories.accepted(),
                self.advisories.shed()
            );
            let _ = writeln!(
                out,
                "resil {} {} {} {} {}",
                self.degraded_epochs.value(),
                self.retries.value(),
                self.swap_fail_injected.value(),
                self.swap_fail_build.value(),
                self.swap_fail_rollout.value()
            );
            state.rollout.write_records(&mut out);
        }
        // Trainer state rides along as one counted text block; snapshots
        // taken before the trainer existed simply lack the record, and
        // restore treats its absence as training-from-scratch (or
        // disabled, when the config carries no trainer).
        if let Some(slot) = lock(&self.trainer).as_ref() {
            write_block(&mut out, "tstate", &slot.trainer.snapshot_text());
        }
        out.push_str(&rqueue_text);
        for event in self.advisories.peek_all() {
            match event {
                Event::Weather {
                    shard,
                    hour,
                    rain_mm,
                } => {
                    let _ = writeln!(out, "adv w {shard} {hour} {rain_mm:?}");
                }
                Event::RoadDamage {
                    shard,
                    segment,
                    hour,
                    flooded,
                } => {
                    let _ = writeln!(
                        out,
                        "adv d {shard} {} {hour} {}",
                        segment.0,
                        u8::from(flooded)
                    );
                }
                Event::Request { .. } => {}
            }
        }
        for d in lock(&self.delayed).iter() {
            let _ = writeln!(
                out,
                "dlay {} {} {} {}",
                d.release_epoch, d.shard, d.spec.appear_s, d.spec.segment.0
            );
        }
        for i in 0..self.shards.len() {
            write_block(&mut out, &format!("shard {i}"), &self.shard_snapshot(i)?);
        }
        out.push_str("end\n");
        let sealed = seal_snapshot(out);
        Ok(match &self.config.faults {
            Some(injector) => injector.corrupt_snapshot(sealed),
            None => sealed,
        })
    }

    /// Rebuilds a service from a snapshot over the *same* scenario. The
    /// restored service's [`DispatchService::metrics`] equals the
    /// snapshotted one's, and subsequent epochs evolve identically.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadSnapshot`] on malformed input — including
    /// a failed checksum (truncated or bit-flipped text) and a shard count
    /// that does not match `config` — plus anything
    /// [`DispatchService::start`] can return.
    pub fn restore(
        scenario: Arc<Scenario>,
        config: ServeConfig,
        clock: Arc<dyn Clock>,
        registry: Arc<ModelRegistry>,
        text: &str,
    ) -> Result<Self, ServeError> {
        let bad = |why: &str| ServeError::BadSnapshot(why.to_owned());
        let body = open_snapshot(text).map_err(ServeError::BadSnapshot)?;
        let mut reader = Reader::open(body, "mrserve 1")?;
        // start_core, not start: the journal must replay against the
        // *restored* queues with the snapshot's high-water mark as the
        // cutoff, so it attaches at the very end of restore.
        let svc = Self::start_core(scenario, config, clock, registry)?;
        let num_shards = svc.config.num_shards;
        let num_segments = svc.scenario.city.network.num_segments();
        // Singleton records; an absent one restores its default.
        let mut epochs: Option<(u32, Option<u64>)> = None;
        let mut adv_counts: Option<[u64; 4]> = None;
        let mut resil: Option<([u64; 2], Option<[u64; 3]>)> = None;
        let mut rollout_records = RolloutRecords::default();
        let mut trainer_text: Option<String> = None;
        let mut rqueue_counters = vec![(0u64, 0u64); num_shards];
        let mut restored_shards = vec![false; num_shards];
        let read_spec = |r: &mut Record| -> Result<RequestSpec, RecordError> {
            Ok(RequestSpec {
                appear_s: r.field("appear_s")?,
                segment: SegmentId(r.below(num_segments, "segment")?),
            })
        };
        while let Some(mut r) = reader.next_record()? {
            match r.tag {
                "epochs" => {
                    // Pre-wal snapshots lack the journal high-water mark
                    // tail. Absent means "replay nothing" — everything
                    // this snapshot holds predates the journal.
                    r.once(&mut epochs, |r| {
                        let count = r.field("count")?;
                        Ok((count, r.tail("journal high-water mark")?.map(|[hwm]| hwm)))
                    })?;
                }
                "advisories" => {
                    r.once(&mut adv_counts, |r| {
                        Ok([
                            r.field("applied")?,
                            r.field("invalid")?,
                            r.field("accepted")?,
                            r.field("shed")?,
                        ])
                    })?;
                }
                // Snapshots written while epoch latency was service state
                // carry it in a `hist` record; it is telemetry now, and a
                // restore starts every `epoch.*` histogram empty.
                "hist" => continue,
                "resil" => {
                    // Pre-rollout snapshots lack the swap-cause tail.
                    r.once(&mut resil, |r| {
                        let counters = [r.field("degraded")?, r.field("retries")?];
                        Ok((counters, r.tail("swap-cause counters")?))
                    })?;
                }
                "rrew" | "rollout" | "rtext" => {
                    rollout_records.read(r, &mut reader)?;
                    continue;
                }
                "tstate" => r.once(&mut trainer_text, |r| reader.block(r))?,
                "rqueue" => {
                    let i: usize = r.below(num_shards, "shard")?;
                    rqueue_counters[i] = (r.field("accepted")?, r.field("shed")?);
                }
                "queued" => {
                    let i: usize = r.below(num_shards, "shard")?;
                    // A `queued` record was admitted (and acked) by the
                    // snapshotted process; overflow means the capacity
                    // shrank across the restart — refuse rather than
                    // silently shed it.
                    if !svc.request_queues[i].push(read_spec(&mut r)?) {
                        return Err(ServeError::ReplayOverflow {
                            shard: i,
                            capacity: svc.request_queues[i].capacity(),
                        });
                    }
                }
                "adv" => {
                    let event = match r.token("kind")? {
                        "w" => Event::Weather {
                            shard: r.below(num_shards, "shard")?,
                            hour: r.field("hour")?,
                            rain_mm: r.field("rain")?,
                        },
                        "d" => Event::RoadDamage {
                            shard: r.below(num_shards, "shard")?,
                            // Not range-checked: advisories are validated
                            // (and counted invalid) when drained.
                            segment: SegmentId(r.field("segment")?),
                            hour: r.field("hour")?,
                            flooded: r.below::<u8>(2, "flooded flag")? == 1,
                        },
                        _ => return Err(bad("unknown advisory kind")),
                    };
                    svc.advisories.push(event);
                }
                "dlay" => {
                    let release_epoch = r.field("release epoch")?;
                    let shard = r.below(num_shards, "shard")?;
                    let spec = read_spec(&mut r)?;
                    lock(&svc.delayed).push(DelayedRequest {
                        release_epoch,
                        shard,
                        spec,
                    });
                }
                "shard" => {
                    let i: usize = r.below(num_shards, "index")?;
                    svc.shard_restore(i, reader.block(&mut r)?)?;
                    restored_shards[i] = true;
                }
                other => return Err(bad(&format!("unknown record `{other}`"))),
            }
            r.finish()?;
        }
        if !restored_shards.iter().all(|&r| r) {
            return Err(bad("snapshot does not cover every configured shard"));
        }
        let rollout =
            rollout_records.restore(svc.config.rollout.clone(), Arc::clone(&svc.registry))?;
        // A trainer record only matters when the restored service trains:
        // the snapshot carries state, the config carries topology. With
        // training disabled the record is skipped, and a snapshot without
        // one (taken before the trainer existed, or with training off)
        // restores into a trainer-configured service training from scratch.
        if let (Some(text), Some(slot)) = (&trainer_text, lock(&svc.trainer).as_mut()) {
            slot.trainer = slot
                .trainer
                .restore(text)
                .map_err(|e| ServeError::BadSnapshot(format!("trainer state in snapshot: {e}")))?;
            slot.checkpoint = slot.trainer.snapshot_text();
        }
        // Counters are *set*, not added, and only after every `queued` and
        // `adv` record was pushed through its queue: a restored service
        // continues from the snapshot's totals exactly once, even when the
        // caller handed `start` a pre-populated registry.
        let [applied, invalid, adv_accepted, adv_shed] = adv_counts.unwrap_or_default();
        let ([degraded, retries], swap_causes) = resil.unwrap_or_default();
        let [swap_injected, swap_build, swap_rollout] = swap_causes.unwrap_or_default();
        for (q, (accepted, shed)) in svc.request_queues.iter().zip(rqueue_counters) {
            let (a, s) = q.counters();
            a.set(accepted);
            s.set(shed);
        }
        let (a, s) = svc.advisories.counters();
        a.set(adv_accepted);
        s.set(adv_shed);
        svc.retries.set(retries);
        svc.advisories_applied.set(applied);
        svc.advisories_invalid.set(invalid);
        svc.degraded_epochs.set(degraded);
        svc.swap_fail_injected.set(swap_injected);
        svc.swap_fail_build.set(swap_build);
        svc.swap_fail_rollout.set(swap_rollout);
        let (epochs, wal_hwm) = epochs.unwrap_or_default();
        {
            let mut state = svc.state();
            state.epochs_completed = epochs;
            state.rollout = rollout;
        }
        // The snapshot restored everything journaled at or below its
        // high-water mark; replaying the journal suffix past it recovers
        // the requests acked after the snapshot was taken.
        svc.attach_wal(wal_hwm)?;
        // Seed recovery checkpoints with the restored state, so a crash
        // before the first post-restore boundary does not roll back to a
        // fresh world.
        if svc.config.auto_recover {
            svc.checkpoint_shards()?;
        }
        Ok(svc)
    }

    fn stop_workers(&mut self) {
        // Best-effort flush so clean exits under `Epoch`/`Off` fsync
        // policies leave the journal on stable storage.
        if let Some(wal) = self
            .wal
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .as_mut()
        {
            let _ = wal.sync();
        }
        for shard in &mut self.shards {
            let h = shard
                .get_mut()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let _ = h.tx.send(ShardCmd::Shutdown);
        }
        for shard in &mut self.shards {
            let h = shard
                .get_mut()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(join) = h.join.take() {
                let _ = join.join();
            }
        }
    }

    /// Stops every worker and waits for them to exit.
    pub fn shutdown(mut self) {
        self.stop_workers();
    }
}

impl Drop for DispatchService {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
