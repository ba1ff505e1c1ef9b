//! Deterministic fault injection for the dispatch service.
//!
//! A disaster-time dispatcher must keep producing plans while its own
//! infrastructure degrades: ingestion links drop and reorder events,
//! worker processes die mid-epoch, model pushes fail, checkpoints get
//! truncated on a failing disk. This module makes those conditions a
//! *first-class, reproducible test input*: a [`FaultPlan`] is a seeded,
//! inspectable schedule of faults, and a [`FaultInjector`] applies it —
//! each fault exactly once — at the hook points threaded through
//! [`crate::DispatchService`] and its shard workers.
//!
//! Determinism is the whole point. The plan is fully decided up front from
//! a seed (via the vendored `rand` shim), each fault family drawing from
//! its own stream seeded by `hash(seed, family)` so that arming one family
//! never shifts another's schedule; every fault is consumed
//! one-shot, and the service runs on a [`crate::SimClock`] in tests — so a
//! chaos run is a pure function of `(scenario seed, fault seed)` and every
//! failure reproduces exactly. Consuming faults one-shot is also what
//! makes crash recovery testable: when a crashed shard's epoch is replayed
//! after restore, the crash (already consumed) does not re-fire, so the
//! replay is the *masked* — unfaulted — execution of the same epoch.

use mobirescue_core::rl_dispatch::FEATURE_DIM;
use mobirescue_rl::nn::Mlp;
use mobirescue_rl::persist::mlp_to_text;
use mobirescue_sim::fnv1a_64_bytes;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A fault applied to one rescue request offered to
/// [`crate::DispatchService::ingest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestFault {
    /// The event is lost: not queued, reported as not admitted.
    Drop,
    /// The event is deferred by this many epochs before reaching its
    /// shard's queue (network delay / out-of-order delivery).
    Delay(u32),
    /// The event is enqueued twice (at-least-once delivery upstream).
    Duplicate,
    /// The event's payload is damaged in flight; the service's validation
    /// must reject it with a typed error.
    Corrupt,
}

/// A fault applied to one shard worker at one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardFault {
    /// The dispatcher stalls for this many clock milliseconds mid-epoch
    /// (GC pause, page fault storm) — with a configured epoch deadline
    /// this trips the fallback to the heuristic dispatcher.
    Stall(u64),
    /// The worker thread dies mid-epoch without replying; the service must
    /// restart it from the last boundary checkpoint and replay.
    Crash,
}

/// A fault applied by a misbehaving client to one frame offered over the
/// TCP front door (`mobirescue-net`). The serve crate owns the schedule —
/// like every other fault kind — and the network chaos harness applies it
/// at the socket, so a front-door chaos run stays a pure function of its
/// fault seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnFault {
    /// The client writes part of a frame and disconnects. The listener
    /// must treat the torso as a rejected frame, never as a request.
    MidFrameDisconnect,
    /// The frame arrives split across two writes with a pause in between
    /// (a torn write). The listener must reassemble it and respond
    /// normally — torn delivery is not data loss.
    TornWrite,
    /// The client trickles a partial frame header and then stalls
    /// (slow-loris). The listener's frame deadline must close the
    /// connection instead of pinning a handler thread forever.
    SlowLoris,
}

/// A fault applied to the online trainer (`crate::trainer`) at one epoch
/// boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainerFault {
    /// The trainer dies at the boundary; the service must respawn it from
    /// its last boundary checkpoint, and the recovered run must stay
    /// bit-identical to an unfaulted twin (checkpoints are taken every
    /// boundary, so a boundary crash loses nothing).
    Crash,
    /// A wedged trainer replays an old queue: a burst of this many stale,
    /// reward-tanking candidates floods the rollout pipeline. The gates
    /// must keep every one of them away from primary dispatch.
    StaleCandidateFlood(u32),
    /// This epoch's tapped transitions are lost in transit before reaching
    /// the trainer queue — they never count as offered, so transition
    /// conservation (`offered == accepted + shed`) must still hold.
    TransitionDrop,
}

/// A fault applied to the durable ingest journal (`crate::wal`) at one
/// journaled push attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalFault {
    /// The process "dies" mid-append: a torn prefix of the record hits
    /// disk and the entry is never journaled. The service must surface
    /// the typed `WalError::TornTail` — the request is not admitted and
    /// must never be acked.
    TornAppend,
    /// Silent storage rot: one bit of an already-journaled record flips
    /// on disk. The live run is unaffected; the *next* recovery must
    /// refuse with a typed error naming the segment and offset.
    SegmentBitFlip,
    /// The device stalls under fsync (a failing disk's write cache
    /// draining) for this many clock milliseconds. The append blocks for
    /// the stall and then completes normally.
    FsyncStall(u64),
}

/// How a submitted checkpoint is poisoned before it reaches the rollout
/// pipeline's admission gate (a corrupted training job, a bad export, or
/// an adversarially regressed policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointPoison {
    /// The policy parses but carries a NaN weight — admission must reject.
    NanWeights,
    /// The policy's input layer disagrees with `FEATURE_DIM` — admission
    /// must reject.
    WrongDims,
    /// A structurally valid policy that pins every team on stand-by,
    /// tanking the paper reward — only the shadow gate can catch it.
    RewardTank,
}

/// How a snapshot text is damaged on write (failing disk / torn write).
/// The embedded position is reduced modulo the snapshot length when
/// applied, so plans stay valid for any snapshot size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotCorruption {
    /// The text is cut short at a plan-chosen byte offset.
    Truncate(u64),
    /// One byte at a plan-chosen offset has a bit flipped.
    BitFlip(u64),
}

/// Probabilities and horizons from which a seeded [`FaultPlan`] is drawn.
///
/// The default arms nothing: it is [`FaultPlanConfig::quiet`] over zero
/// epochs and shards.
#[derive(Debug, Clone, Default)]
pub struct FaultPlanConfig {
    /// Epochs the schedule covers (shard faults are drawn per epoch).
    pub epochs: u32,
    /// Shards the schedule covers.
    pub num_shards: usize,
    /// Request offers covered by ingestion-fault decisions; offers beyond
    /// the horizon pass through clean.
    pub ingest_horizon: usize,
    /// Per-offer probability of [`IngestFault::Drop`].
    pub p_drop: f64,
    /// Per-offer probability of [`IngestFault::Delay`].
    pub p_delay: f64,
    /// Per-offer probability of [`IngestFault::Duplicate`].
    pub p_duplicate: f64,
    /// Per-offer probability of [`IngestFault::Corrupt`].
    pub p_corrupt: f64,
    /// Largest delay, epochs (delays are drawn uniformly in `1..=max`).
    pub max_delay_epochs: u32,
    /// Per-(epoch, shard) probability of [`ShardFault::Stall`].
    pub p_stall: f64,
    /// Per-(epoch, shard) probability of [`ShardFault::Crash`].
    pub p_crash: f64,
    /// Per-(epoch, shard) probability of an injected registry-swap
    /// failure.
    pub p_swap_fail: f64,
    /// Stall magnitude, clock milliseconds (choose it above the service's
    /// epoch deadline to guarantee the fallback trips).
    pub stall_ms: u64,
    /// Frame offers over the TCP front door covered by connection-fault
    /// decisions; offers beyond the horizon are sent clean.
    pub conn_horizon: usize,
    /// Per-frame probability of [`ConnFault::MidFrameDisconnect`].
    pub p_conn_disconnect: f64,
    /// Per-frame probability of [`ConnFault::TornWrite`].
    pub p_conn_torn: f64,
    /// Per-frame probability of [`ConnFault::SlowLoris`].
    pub p_conn_slowloris: f64,
    /// Epochs covered by trainer-fault decisions (one draw per epoch;
    /// epochs beyond the horizon pass through clean).
    pub trainer_horizon: u32,
    /// Per-epoch probability of [`TrainerFault::Crash`].
    pub p_trainer_crash: f64,
    /// Per-epoch probability of [`TrainerFault::StaleCandidateFlood`].
    pub p_trainer_flood: f64,
    /// Per-epoch probability of [`TrainerFault::TransitionDrop`].
    pub p_trainer_drop: f64,
    /// Candidates per [`TrainerFault::StaleCandidateFlood`] burst.
    pub trainer_flood_len: u32,
    /// Journaled push attempts covered by WAL-fault decisions; attempts
    /// beyond the horizon append clean.
    pub wal_horizon: usize,
    /// Per-attempt probability of [`WalFault::TornAppend`].
    pub p_wal_torn: f64,
    /// Per-attempt probability of [`WalFault::FsyncStall`].
    pub p_wal_stall: f64,
    /// Fsync-stall magnitude, clock milliseconds.
    pub wal_stall_ms: u64,
}

impl FaultPlanConfig {
    /// The standard chaos mix: every ingestion and shard fault kind armed
    /// with moderate probability.
    pub fn chaos(epochs: u32, num_shards: usize) -> Self {
        Self {
            ingest_horizon: 256,
            p_drop: 0.08,
            p_delay: 0.08,
            p_duplicate: 0.06,
            p_corrupt: 0.05,
            max_delay_epochs: 2,
            p_stall: 0.10,
            p_crash: 0.08,
            p_swap_fail: 0.06,
            stall_ms: 50,
            trainer_flood_len: 3,
            ..Self::quiet(epochs, num_shards)
        }
    }

    /// The front-door chaos mix: connection faults armed on top of the
    /// standard [`FaultPlanConfig::chaos`] schedule. The network chaos
    /// harness uses this; in-process chaos keeps `conn_horizon == 0`.
    pub fn net_chaos(epochs: u32, num_shards: usize) -> Self {
        Self {
            conn_horizon: 192,
            p_conn_disconnect: 0.08,
            p_conn_torn: 0.10,
            p_conn_slowloris: 0.05,
            ..Self::chaos(epochs, num_shards)
        }
    }

    /// The journal chaos mix: *only* WAL faults armed (torn appends and
    /// fsync stalls; bit flips are scheduled explicitly with
    /// [`FaultPlan::with_wal_fault`] by harnesses that want them, since a
    /// flipped segment poisons every later recovery). Everything else
    /// stays off so journal invariants are verified against an
    /// otherwise-healthy fleet.
    pub fn wal_chaos(epochs: u32, num_shards: usize) -> Self {
        Self {
            wal_horizon: 64,
            p_wal_torn: 0.10,
            p_wal_stall: 0.12,
            wal_stall_ms: 15,
            ..Self::quiet(epochs, num_shards)
        }
    }

    /// No faults at all — the control arm of a chaos comparison.
    pub fn quiet(epochs: u32, num_shards: usize) -> Self {
        Self {
            epochs,
            num_shards,
            max_delay_epochs: 1,
            ..Self::default()
        }
    }
}

/// What a plan has scheduled, by kind — inspectable before the run so
/// tests can assert "faults fired" against "faults were planned".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScheduledFaults {
    /// Ingestion offers with a fault decision.
    pub ingest: usize,
    /// Scheduled stalls.
    pub stalls: usize,
    /// Scheduled crashes.
    pub crashes: usize,
    /// Scheduled registry-swap failures.
    pub swap_fails: usize,
    /// Scheduled snapshot corruptions.
    pub snapshot_corruptions: usize,
    /// Scheduled checkpoint poisonings.
    pub poisoned_checkpoints: usize,
    /// Front-door frame offers with a connection-fault decision.
    pub conn: usize,
    /// Scheduled trainer faults.
    pub trainer: usize,
    /// Journaled push attempts with a WAL-fault decision.
    pub wal: usize,
}

impl ScheduledFaults {
    /// Whether anything is scheduled at all.
    pub fn any(&self) -> bool {
        self.ingest
            + self.stalls
            + self.crashes
            + self.swap_fails
            + self.snapshot_corruptions
            + self.poisoned_checkpoints
            + self.conn
            + self.trainer
            + self.wal
            > 0
    }
}

/// The random stream of one fault family, seeded from
/// `hash(seed, family)`. Each family of a [`FaultPlan`] draws from its own
/// stream, so arming, disarming or resizing one family never shifts
/// another family's draws for the same seed.
pub(crate) fn family_stream(seed: u64, family: &str) -> StdRng {
    let mut key = seed.to_le_bytes().to_vec();
    key.extend_from_slice(family.as_bytes());
    StdRng::seed_from_u64(fnv1a_64_bytes(&key))
}

/// One uniform roll against consecutive probability bands: the first
/// fault whose cumulative band holds the roll, or `None` past them all.
fn roll<F: Copy>(rng: &mut StdRng, bands: &[(f64, F)]) -> Option<F> {
    let roll: f64 = rng.random();
    let mut acc = 0.0;
    bands.iter().find_map(|&(p, fault)| {
        acc += p;
        (roll < acc).then_some(fault)
    })
}

/// A deterministic, inspectable schedule of faults.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    ingest: Vec<Option<IngestFault>>,
    shard: BTreeMap<(u32, usize), ShardFault>,
    swap_fail: BTreeSet<(u32, usize)>,
    snapshot: VecDeque<SnapshotCorruption>,
    poison: VecDeque<CheckpointPoison>,
    conn: Vec<Option<ConnFault>>,
    trainer: BTreeMap<u32, TrainerFault>,
    wal: Vec<Option<WalFault>>,
}

impl FaultPlan {
    /// A plan with nothing scheduled (compose with the builder methods).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Draws a full schedule from `seed` under `cfg`. The same
    /// `(seed, cfg)` always yields the same plan, and each fault family
    /// draws from its own stream seeded by `(seed, family)`.
    pub fn generate(seed: u64, cfg: &FaultPlanConfig) -> Self {
        let grid = || (0..cfg.epochs).flat_map(|e| (0..cfg.num_shards).map(move |s| (e, s)));
        let mut rng = family_stream(seed, "ingest");
        let ingest_bands = [
            (cfg.p_drop, IngestFault::Drop),
            (cfg.p_delay, IngestFault::Delay(0)),
            (cfg.p_duplicate, IngestFault::Duplicate),
            (cfg.p_corrupt, IngestFault::Corrupt),
        ];
        let ingest = (0..cfg.ingest_horizon)
            .map(|_| match roll(&mut rng, &ingest_bands) {
                Some(IngestFault::Delay(_)) => Some(IngestFault::Delay(
                    rng.random_range(1..=cfg.max_delay_epochs.max(1)),
                )),
                fault => fault,
            })
            .collect();
        let mut rng = family_stream(seed, "shard");
        let shard_bands = [
            (cfg.p_crash, ShardFault::Crash),
            (cfg.p_stall, ShardFault::Stall(cfg.stall_ms)),
        ];
        let shard = grid()
            .filter_map(|key| roll(&mut rng, &shard_bands).map(|f| (key, f)))
            .collect();
        let mut rng = family_stream(seed, "swap");
        let swap_fail = grid()
            .filter(|_| rng.random_bool(cfg.p_swap_fail))
            .collect();
        let mut rng = family_stream(seed, "conn");
        let conn_bands = [
            (cfg.p_conn_disconnect, ConnFault::MidFrameDisconnect),
            (cfg.p_conn_torn, ConnFault::TornWrite),
            (cfg.p_conn_slowloris, ConnFault::SlowLoris),
        ];
        let conn = (0..cfg.conn_horizon)
            .map(|_| roll(&mut rng, &conn_bands))
            .collect();
        let mut rng = family_stream(seed, "trainer");
        let trainer_bands = [
            (cfg.p_trainer_crash, TrainerFault::Crash),
            (
                cfg.p_trainer_flood,
                TrainerFault::StaleCandidateFlood(cfg.trainer_flood_len.max(1)),
            ),
            (cfg.p_trainer_drop, TrainerFault::TransitionDrop),
        ];
        let trainer = (0..cfg.trainer_horizon)
            .filter_map(|epoch| roll(&mut rng, &trainer_bands).map(|f| (epoch, f)))
            .collect();
        let mut rng = family_stream(seed, "wal");
        let wal_bands = [
            (cfg.p_wal_torn, WalFault::TornAppend),
            (cfg.p_wal_stall, WalFault::FsyncStall(cfg.wal_stall_ms)),
        ];
        let wal = (0..cfg.wal_horizon)
            .map(|_| roll(&mut rng, &wal_bands))
            .collect();
        Self {
            ingest,
            shard,
            swap_fail,
            conn,
            trainer,
            wal,
            // Snapshot corruptions and checkpoint poisons are scheduled
            // only through the builders below.
            ..Self::default()
        }
    }

    /// Schedules `fault` for the `offer_index`-th request offer.
    pub fn with_ingest_fault(mut self, offer_index: usize, fault: IngestFault) -> Self {
        set_offer(&mut self.ingest, offer_index, fault);
        self
    }

    /// Schedules a crash of `shard` at `epoch`.
    pub fn with_crash(mut self, epoch: u32, shard: usize) -> Self {
        self.shard.insert((epoch, shard), ShardFault::Crash);
        self
    }

    /// Schedules an `ms`-millisecond stall of `shard` at `epoch`.
    pub fn with_stall(mut self, epoch: u32, shard: usize, ms: u64) -> Self {
        self.shard.insert((epoch, shard), ShardFault::Stall(ms));
        self
    }

    /// Schedules a registry-swap failure for `shard` at `epoch`.
    pub fn with_swap_failure(mut self, epoch: u32, shard: usize) -> Self {
        self.swap_fail.insert((epoch, shard));
        self
    }

    /// Schedules a corruption of the next not-yet-corrupted snapshot
    /// write.
    pub fn with_snapshot_corruption(mut self, corruption: SnapshotCorruption) -> Self {
        self.snapshot.push_back(corruption);
        self
    }

    /// Schedules the next rollout submission's policy checkpoint to be
    /// replaced with a poisoned one of the given kind.
    pub fn with_poisoned_checkpoint(mut self, kind: CheckpointPoison) -> Self {
        self.poison.push_back(kind);
        self
    }

    /// Schedules `fault` for the `offer_index`-th frame sent over the
    /// front door.
    pub fn with_conn_fault(mut self, offer_index: usize, fault: ConnFault) -> Self {
        set_offer(&mut self.conn, offer_index, fault);
        self
    }

    /// Schedules `fault` for the trainer at `epoch`.
    pub fn with_trainer_fault(mut self, epoch: u32, fault: TrainerFault) -> Self {
        self.trainer.insert(epoch, fault);
        self
    }

    /// Schedules `fault` for the `offer_index`-th journaled push attempt.
    pub fn with_wal_fault(mut self, offer_index: usize, fault: WalFault) -> Self {
        set_offer(&mut self.wal, offer_index, fault);
        self
    }

    /// The shard epochs below `epochs` on shards below `num_shards` that
    /// a scheduled stall or registry-swap failure degrades. One shard
    /// epoch with both counts once.
    pub(crate) fn degraded_cells(&self, epochs: u32, num_shards: usize) -> usize {
        let stalls = self
            .shard
            .iter()
            .filter(|(_, f)| matches!(f, ShardFault::Stall(_)))
            .map(|(&cell, _)| cell);
        stalls
            .chain(self.swap_fail.iter().copied())
            .filter(|&(e, s)| e < epochs && s < num_shards)
            .collect::<BTreeSet<_>>()
            .len()
    }

    /// What the plan has scheduled, by kind.
    pub fn scheduled(&self) -> ScheduledFaults {
        let stalls = self
            .shard
            .values()
            .filter(|f| matches!(f, ShardFault::Stall(_)))
            .count();
        ScheduledFaults {
            ingest: self.ingest.iter().flatten().count(),
            stalls,
            crashes: self.shard.len() - stalls,
            swap_fails: self.swap_fail.len(),
            snapshot_corruptions: self.snapshot.len(),
            poisoned_checkpoints: self.poison.len(),
            conn: self.conn.iter().flatten().count(),
            trainer: self.trainer.len(),
            wal: self.wal.iter().flatten().count(),
        }
    }
}

/// Schedules `fault` at `index` of an offer-indexed family.
fn set_offer<F: Copy>(offers: &mut Vec<Option<F>>, index: usize, fault: F) {
    if offers.len() <= index {
        offers.resize(index + 1, None);
    }
    offers[index] = Some(fault);
}

/// Cumulative counts of faults that actually *fired* during a run.
///
/// `delays_released` is incremented by the service when a deferred event
/// finally reaches its queue; `delays - delays_released` is therefore the
/// number of delayed events still in flight — the "retried/delayed
/// in-flight" term of the chaos harness's conservation invariant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Request offers inspected by the injector (including retries).
    pub offers: u64,
    /// Offers dropped.
    pub drops: u64,
    /// Offers deferred.
    pub delays: u64,
    /// Deferred events released into their queue so far.
    pub delays_released: u64,
    /// Offers duplicated.
    pub duplicates: u64,
    /// Offers corrupted.
    pub corrupts: u64,
    /// Shard stalls fired.
    pub stalls: u64,
    /// Shard crashes fired.
    pub crashes: u64,
    /// Registry-swap failures fired.
    pub swap_fails: u64,
    /// Snapshot writes corrupted.
    pub snapshot_corruptions: u64,
    /// Rollout submissions whose checkpoint was poisoned.
    pub poisoned_checkpoints: u64,
    /// Mid-frame disconnects fired at the front door.
    pub conn_disconnects: u64,
    /// Torn writes fired at the front door.
    pub conn_torn_writes: u64,
    /// Slow-loris stalls fired at the front door.
    pub conn_slow_loris: u64,
    /// Trainer crashes fired.
    pub trainer_crashes: u64,
    /// Stale-candidate floods fired.
    pub trainer_floods: u64,
    /// Transition drops fired.
    pub trainer_drops: u64,
    /// Torn journal appends fired.
    pub wal_torn: u64,
    /// Journal segment bit-flips fired.
    pub wal_bitflips: u64,
    /// Journal fsync stalls fired.
    pub wal_stalls: u64,
}

impl FaultCounters {
    /// Faults that degrade an epoch when they fire (stall past the
    /// deadline, or a failed swap).
    pub fn degrading(&self) -> u64 {
        self.stalls + self.swap_fails
    }

    /// Whether any fault fired at all.
    pub fn any(&self) -> bool {
        self.drops
            + self.delays
            + self.duplicates
            + self.corrupts
            + self.stalls
            + self.crashes
            + self.swap_fails
            + self.snapshot_corruptions
            + self.poisoned_checkpoints
            + self.conn_disconnects
            + self.conn_torn_writes
            + self.conn_slow_loris
            + self.trainer_crashes
            + self.trainer_floods
            + self.trainer_drops
            + self.wal_torn
            + self.wal_bitflips
            + self.wal_stalls
            > 0
    }
}

/// Applies a [`FaultPlan`] at the service's hook points, each fault
/// exactly once, with cumulative fired-fault counters.
#[derive(Debug)]
pub struct FaultInjector {
    scheduled: ScheduledFaults,
    state: Mutex<Pending>,
}

/// What an injector has yet to fire, and what it has fired so far.
#[derive(Debug, Default)]
struct Pending {
    /// The plan minus every keyed or queued fault that already fired.
    plan: FaultPlan,
    /// The next offer of each offer-indexed family. Each advances on its
    /// own, so front-door frames and journal appends never shift the
    /// ingest schedule, and vice versa.
    ingest_at: usize,
    conn_at: usize,
    wal_at: usize,
    fired: FaultCounters,
}

/// The fault (if any) for the next offer of an offer-indexed family.
fn next_offer<F: Copy>(offers: &[Option<F>], at: &mut usize) -> Option<F> {
    let fault = offers.get(*at).copied().flatten();
    *at += 1;
    fault
}

impl FaultInjector {
    /// An injector executing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            scheduled: plan.scheduled(),
            state: Mutex::new(Pending {
                plan,
                ..Pending::default()
            }),
        }
    }

    /// An injector executing the schedule drawn from `(seed, cfg)`.
    pub fn from_seed(seed: u64, cfg: &FaultPlanConfig) -> Self {
        Self::new(FaultPlan::generate(seed, cfg))
    }

    /// What the underlying plan scheduled (fixed at construction).
    pub fn scheduled(&self) -> ScheduledFaults {
        self.scheduled
    }

    fn pending(&self) -> MutexGuard<'_, Pending> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The fault (if any) for the next request offer. Counts the offer and
    /// the fired fault.
    pub fn next_ingest_fault(&self) -> Option<IngestFault> {
        let p = &mut *self.pending();
        p.fired.offers += 1;
        let fault = next_offer(&p.plan.ingest, &mut p.ingest_at);
        match fault {
            Some(IngestFault::Drop) => p.fired.drops += 1,
            Some(IngestFault::Delay(_)) => p.fired.delays += 1,
            Some(IngestFault::Duplicate) => p.fired.duplicates += 1,
            Some(IngestFault::Corrupt) => p.fired.corrupts += 1,
            None => {}
        }
        fault
    }

    /// The fault (if any) for the next frame offered over the front door.
    /// Consumes the offer index and counts the fired fault.
    pub fn next_conn_fault(&self) -> Option<ConnFault> {
        let p = &mut *self.pending();
        let fault = next_offer(&p.plan.conn, &mut p.conn_at);
        match fault {
            Some(ConnFault::MidFrameDisconnect) => p.fired.conn_disconnects += 1,
            Some(ConnFault::TornWrite) => p.fired.conn_torn_writes += 1,
            Some(ConnFault::SlowLoris) => p.fired.conn_slow_loris += 1,
            None => {}
        }
        fault
    }

    /// The fault (if any) for the next journaled push attempt.
    pub fn next_wal_fault(&self) -> Option<WalFault> {
        let p = &mut *self.pending();
        let fault = next_offer(&p.plan.wal, &mut p.wal_at);
        match fault {
            Some(WalFault::TornAppend) => p.fired.wal_torn += 1,
            Some(WalFault::SegmentBitFlip) => p.fired.wal_bitflips += 1,
            Some(WalFault::FsyncStall(_)) => p.fired.wal_stalls += 1,
            None => {}
        }
        fault
    }

    /// Notes that a deferred event reached its queue.
    pub(crate) fn note_delay_released(&self) {
        self.pending().fired.delays_released += 1;
    }

    /// Takes (consumes) the shard fault scheduled for `(epoch, shard)`, if
    /// any. One-shot: a crashed epoch's replay sees no fault.
    pub fn take_shard_fault(&self, epoch: u32, shard: usize) -> Option<ShardFault> {
        let p = &mut *self.pending();
        let fault = p.plan.shard.remove(&(epoch, shard));
        match fault {
            Some(ShardFault::Stall(_)) => p.fired.stalls += 1,
            Some(ShardFault::Crash) => p.fired.crashes += 1,
            None => {}
        }
        fault
    }

    /// Takes (consumes) the trainer fault scheduled for `epoch`, if any.
    /// One-shot, like every other fault kind.
    pub fn take_trainer_fault(&self, epoch: u32) -> Option<TrainerFault> {
        let p = &mut *self.pending();
        let fault = p.plan.trainer.remove(&epoch);
        match fault {
            Some(TrainerFault::Crash) => p.fired.trainer_crashes += 1,
            Some(TrainerFault::StaleCandidateFlood(_)) => p.fired.trainer_floods += 1,
            Some(TrainerFault::TransitionDrop) => p.fired.trainer_drops += 1,
            None => {}
        }
        fault
    }

    /// Takes (consumes) the registry-swap failure scheduled for
    /// `(epoch, shard)`, if any.
    pub fn take_swap_failure(&self, epoch: u32, shard: usize) -> bool {
        let p = &mut *self.pending();
        let fired = p.plan.swap_fail.remove(&(epoch, shard));
        p.fired.swap_fails += u64::from(fired);
        fired
    }

    /// Damages `text` according to the next scheduled snapshot corruption,
    /// or returns it untouched when none is scheduled.
    pub fn corrupt_snapshot(&self, text: String) -> String {
        let corruption = {
            let p = &mut *self.pending();
            let c = p.plan.snapshot.pop_front();
            p.fired.snapshot_corruptions += u64::from(c.is_some());
            c
        };
        match corruption {
            Some(c) => apply_corruption(text, c),
            None => text,
        }
    }

    /// Replaces a rollout submission's policy checkpoint text with the
    /// next scheduled poison (consumed one-shot), or passes the text
    /// through untouched when none is scheduled.
    pub fn poison_checkpoint(&self, policy_text: Option<String>) -> Option<String> {
        let kind = {
            let p = &mut *self.pending();
            let kind = p.plan.poison.pop_front();
            p.fired.poisoned_checkpoints += u64::from(kind.is_some());
            kind
        };
        match kind {
            Some(kind) => Some(poisoned_policy_text(kind)),
            None => policy_text,
        }
    }

    /// The faults fired so far.
    pub fn counters(&self) -> FaultCounters {
        self.pending().fired
    }
}

/// The checkpoint text a poisoning of `kind` substitutes for the submitted
/// policy. Deterministic per kind.
pub fn poisoned_policy_text(kind: CheckpointPoison) -> String {
    match kind {
        CheckpointPoison::NanWeights => {
            let mut net = Mlp::new(&[FEATURE_DIM, 4, 1], 0x6e616e);
            net.visit_params_mut(|i, w, _| {
                if i == 5 {
                    *w = f64::NAN;
                }
            });
            mlp_to_text(&net)
        }
        CheckpointPoison::WrongDims => mlp_to_text(&Mlp::new(&[FEATURE_DIM + 1, 4, 1], 0x646d73)),
        CheckpointPoison::RewardTank => reward_tank_policy_text(),
    }
}

/// A structurally valid policy that passes every admission check yet tanks
/// the paper reward: a single linear layer whose only non-zero weight
/// (1000, well under the probe bound) sits on the stand-by feature flag, so
/// standing by always out-scores every rescue candidate and no team is
/// ever dispatched.
pub fn reward_tank_policy_text() -> String {
    let mut net = Mlp::new(&[FEATURE_DIM, 1], 0);
    net.visit_params_mut(|i, w, _| {
        *w = if i == FEATURE_DIM - 1 { 1_000.0 } else { 0.0 };
    });
    mlp_to_text(&net)
}

/// Applies one corruption to a snapshot text. Snapshot formats are pure
/// ASCII, so byte surgery stays valid UTF-8; `from_utf8_lossy` guards the
/// general case anyway.
fn apply_corruption(text: String, c: SnapshotCorruption) -> String {
    let mut bytes = text.into_bytes();
    if bytes.is_empty() {
        return String::new();
    }
    match c {
        SnapshotCorruption::Truncate(at) => {
            // Keep at least one byte, lose at least one.
            let keep = 1 + (at as usize) % bytes.len().max(2).saturating_sub(1);
            bytes.truncate(keep.min(bytes.len() - 1));
        }
        SnapshotCorruption::BitFlip(at) => {
            let i = (at as usize) % bytes.len();
            bytes[i] ^= 0x10;
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_and_inspectable() {
        let cfg = FaultPlanConfig::chaos(8, 2);
        let a = FaultPlan::generate(42, &cfg);
        let b = FaultPlan::generate(42, &cfg);
        assert_eq!(a.scheduled(), b.scheduled());
        assert_eq!(a.ingest, b.ingest);
        assert_eq!(a.shard, b.shard);
        let c = FaultPlan::generate(43, &cfg);
        assert_ne!(
            (a.ingest.clone(), a.shard.clone(), a.swap_fail.clone()),
            (c.ingest.clone(), c.shard.clone(), c.swap_fail.clone()),
            "different seeds draw different schedules"
        );
        let quiet = FaultPlan::generate(42, &FaultPlanConfig::quiet(8, 2));
        assert!(!quiet.scheduled().any());
    }

    #[test]
    fn injector_consumes_faults_one_shot() {
        let plan = FaultPlan::empty()
            .with_crash(3, 0)
            .with_stall(4, 1, 500)
            .with_swap_failure(2, 0)
            .with_ingest_fault(1, IngestFault::Drop);
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.next_ingest_fault(), None);
        assert_eq!(inj.next_ingest_fault(), Some(IngestFault::Drop));
        assert_eq!(inj.next_ingest_fault(), None, "beyond the horizon");
        assert_eq!(inj.take_shard_fault(3, 0), Some(ShardFault::Crash));
        assert_eq!(inj.take_shard_fault(3, 0), None, "crash fires once");
        assert_eq!(inj.take_shard_fault(4, 1), Some(ShardFault::Stall(500)));
        assert!(inj.take_swap_failure(2, 0));
        assert!(!inj.take_swap_failure(2, 0), "swap failure fires once");
        let c = inj.counters();
        assert_eq!(c.offers, 3);
        assert_eq!(c.drops, 1);
        assert_eq!(c.crashes, 1);
        assert_eq!(c.stalls, 1);
        assert_eq!(c.swap_fails, 1);
        assert!(c.any());
    }

    #[test]
    fn poisoned_checkpoints_consume_one_shot_and_build_what_they_claim() {
        use mobirescue_rl::persist::mlp_from_text;
        let plan = FaultPlan::empty()
            .with_poisoned_checkpoint(CheckpointPoison::NanWeights)
            .with_poisoned_checkpoint(CheckpointPoison::WrongDims)
            .with_poisoned_checkpoint(CheckpointPoison::RewardTank);
        assert_eq!(plan.scheduled().poisoned_checkpoints, 3);
        let inj = FaultInjector::new(plan);

        let nan = inj.poison_checkpoint(Some("good".into())).expect("text");
        let net = mlp_from_text(&nan).expect("NaN poison still parses");
        assert!(net.first_non_finite_param().is_some());

        let wrong = inj.poison_checkpoint(None).expect("poison ignores None");
        let net = mlp_from_text(&wrong).expect("parses");
        assert_eq!(net.input_dim(), FEATURE_DIM + 1);

        let tank = inj.poison_checkpoint(Some("good".into())).expect("text");
        let net = mlp_from_text(&tank).expect("parses");
        assert_eq!((net.input_dim(), net.output_dim()), (FEATURE_DIM, 1));
        assert!(net.first_non_finite_param().is_none());
        // Stand-by (flag set) out-scores any zone candidate (flag clear).
        let mut standby = [0.0; FEATURE_DIM];
        standby[FEATURE_DIM - 1] = 1.0;
        let mut zone = [0.9; FEATURE_DIM];
        zone[FEATURE_DIM - 1] = 0.0;
        assert!(net.predict(&standby)[0] > net.predict(&zone)[0] + 100.0);

        // Exhausted: submissions pass through untouched.
        assert_eq!(
            inj.poison_checkpoint(Some("good".into())).as_deref(),
            Some("good")
        );
        assert_eq!(inj.counters().poisoned_checkpoints, 3);
    }

    #[test]
    fn each_family_draws_from_its_own_stream() {
        let all = FaultPlanConfig {
            p_crash: 0.3,
            p_stall: 0.3,
            p_swap_fail: 0.5,
            trainer_horizon: 16,
            p_trainer_crash: 0.2,
            p_trainer_flood: 0.2,
            p_trainer_drop: 0.2,
            wal_horizon: 64,
            p_wal_torn: 0.2,
            p_wal_stall: 0.2,
            wal_stall_ms: 10,
            ..FaultPlanConfig::net_chaos(6, 2)
        };
        let families = |cfg: &FaultPlanConfig| {
            let p = FaultPlan::generate(7, cfg);
            [
                format!("{:?}", p.ingest),
                format!("{:?}", p.shard),
                format!("{:?}", p.swap_fail),
                format!("{:?}", p.conn),
                format!("{:?}", p.trainer),
                format!("{:?}", p.wal),
            ]
        };
        let armed = families(&all);
        let disarms: [fn(&mut FaultPlanConfig); 6] = [
            |c| c.ingest_horizon = 0,
            |c| (c.p_crash, c.p_stall) = (0.0, 0.0),
            |c| c.p_swap_fail = 0.0,
            |c| c.conn_horizon = 0,
            |c| c.trainer_horizon = 0,
            |c| c.wal_horizon = 0,
        ];
        // Disarming one family empties exactly that family and leaves
        // every other family's draws untouched.
        for (i, disarm) in disarms.iter().enumerate() {
            let mut cfg = all.clone();
            disarm(&mut cfg);
            for (j, (a, b)) in armed.iter().zip(families(&cfg)).enumerate() {
                assert_eq!(*a == b, i != j, "disarming family {i} vs family {j}");
            }
        }
        // The dedicated journal mix arms only its own family.
        let wal = FaultPlan::generate(7, &FaultPlanConfig::wal_chaos(8, 2)).scheduled();
        assert!(wal.wal > 0);
        assert_eq!(
            wal,
            ScheduledFaults {
                wal: wal.wal,
                ..ScheduledFaults::default()
            }
        );
    }

    #[test]
    fn conn_faults_consume_one_shot_with_their_own_index() {
        let plan = FaultPlan::empty()
            .with_conn_fault(1, ConnFault::TornWrite)
            .with_conn_fault(2, ConnFault::MidFrameDisconnect)
            .with_conn_fault(3, ConnFault::SlowLoris)
            .with_ingest_fault(0, IngestFault::Drop);
        assert_eq!(plan.scheduled().conn, 3);
        assert!(plan.scheduled().any());
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.next_conn_fault(), None);
        assert_eq!(inj.next_conn_fault(), Some(ConnFault::TornWrite));
        assert_eq!(inj.next_conn_fault(), Some(ConnFault::MidFrameDisconnect));
        assert_eq!(inj.next_conn_fault(), Some(ConnFault::SlowLoris));
        assert_eq!(inj.next_conn_fault(), None, "beyond the horizon");
        // The conn index did not consume the ingest schedule.
        assert_eq!(inj.next_ingest_fault(), Some(IngestFault::Drop));
        let c = inj.counters();
        assert_eq!(c.conn_disconnects, 1);
        assert_eq!(c.conn_torn_writes, 1);
        assert_eq!(c.conn_slow_loris, 1);
        assert!(c.any());
    }

    #[test]
    fn trainer_faults_consume_one_shot() {
        let plan = FaultPlan::empty()
            .with_trainer_fault(1, TrainerFault::Crash)
            .with_trainer_fault(2, TrainerFault::StaleCandidateFlood(4))
            .with_trainer_fault(3, TrainerFault::TransitionDrop);
        assert_eq!(plan.scheduled().trainer, 3);
        assert!(plan.scheduled().any());
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.take_trainer_fault(0), None);
        assert_eq!(inj.take_trainer_fault(1), Some(TrainerFault::Crash));
        assert_eq!(inj.take_trainer_fault(1), None, "crash fires once");
        assert_eq!(
            inj.take_trainer_fault(2),
            Some(TrainerFault::StaleCandidateFlood(4))
        );
        assert_eq!(
            inj.take_trainer_fault(3),
            Some(TrainerFault::TransitionDrop)
        );
        let c = inj.counters();
        assert_eq!(c.trainer_crashes, 1);
        assert_eq!(c.trainer_floods, 1);
        assert_eq!(c.trainer_drops, 1);
        assert!(c.any());
    }

    #[test]
    fn wal_faults_consume_one_shot_with_their_own_index() {
        let plan = FaultPlan::empty()
            .with_wal_fault(1, WalFault::TornAppend)
            .with_wal_fault(2, WalFault::SegmentBitFlip)
            .with_wal_fault(3, WalFault::FsyncStall(7))
            .with_ingest_fault(0, IngestFault::Drop)
            .with_conn_fault(0, ConnFault::TornWrite);
        assert_eq!(plan.scheduled().wal, 3);
        assert!(plan.scheduled().any());
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.next_wal_fault(), None);
        assert_eq!(inj.next_wal_fault(), Some(WalFault::TornAppend));
        assert_eq!(inj.next_wal_fault(), Some(WalFault::SegmentBitFlip));
        assert_eq!(inj.next_wal_fault(), Some(WalFault::FsyncStall(7)));
        assert_eq!(inj.next_wal_fault(), None, "beyond the horizon");
        // The WAL index consumed neither the ingest nor the conn schedule.
        assert_eq!(inj.next_ingest_fault(), Some(IngestFault::Drop));
        assert_eq!(inj.next_conn_fault(), Some(ConnFault::TornWrite));
        let c = inj.counters();
        assert_eq!(c.wal_torn, 1);
        assert_eq!(c.wal_bitflips, 1);
        assert_eq!(c.wal_stalls, 1);
        assert!(c.any());
    }

    #[test]
    fn snapshot_corruption_damages_text() {
        let plan = FaultPlan::empty()
            .with_snapshot_corruption(SnapshotCorruption::BitFlip(7))
            .with_snapshot_corruption(SnapshotCorruption::Truncate(5));
        let inj = FaultInjector::new(plan);
        let original = "mrserve 1\nepochs 3\nend\nsum 0123456789abcdef\n".to_owned();
        let flipped = inj.corrupt_snapshot(original.clone());
        assert_ne!(flipped, original);
        assert_eq!(flipped.len(), original.len());
        let truncated = inj.corrupt_snapshot(original.clone());
        assert!(truncated.len() < original.len());
        // Plan exhausted: further writes pass through untouched.
        assert_eq!(inj.corrupt_snapshot(original.clone()), original);
        assert_eq!(inj.counters().snapshot_corruptions, 2);
    }
}
