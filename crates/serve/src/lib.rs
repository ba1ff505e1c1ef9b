//! `mobirescue-serve`: an online dispatch service runtime over the
//! MobiRescue reproduction.
//!
//! The paper's dispatcher is evaluated in batch simulation; this crate
//! hosts the same dispatcher as a long-running service the way a real
//! emergency-operations deployment would run it:
//!
//! * **Streaming ingestion** ([`Event`], [`BoundedQueue`]) — rescue
//!   requests, weather updates and road-damage advisories arrive from
//!   producer threads into bounded queues with an explicit shed policy
//!   ([`ShedPolicy`]) and accepted/shed counters, so overload is a
//!   measured decision instead of unbounded memory growth.
//! * **Epoch scheduler** ([`EpochScheduler`]) — runs the dispatch tick on
//!   the paper's 5-minute period against a pluggable [`Clock`]
//!   ([`WallClock`] for deployment, [`SimClock`] for accelerated and
//!   deterministic runs), measuring per-epoch dispatcher latency and
//!   feeding it back into the simulation as order delay exactly as
//!   `mobirescue_sim::engine` models dispatch latency.
//! * **Model hot-swap** ([`ModelRegistry`]) — SVM + DQN bundles swap in
//!   atomically via `Arc` between epochs, without pausing ingestion;
//!   checkpoint texts enter through the guarded rollout below.
//! * **Snapshot recovery** ([`DispatchService::snapshot`],
//!   [`DispatchService::restore`]) — the full service state (each shard's
//!   world, pending queues, counters) serializes at epoch boundaries so a
//!   killed service resumes mid-disaster.
//! * **Sharded runner** ([`DispatchService`]) — hosts independent city
//!   shards on worker threads; every count it reports lives once, as a
//!   series in its obs registry, and [`MetricsSnapshot`] is a read-only
//!   view over a registry capture (queue depths, served/shed totals);
//!   epoch latency is the registry's `epoch.dispatch_ms` histogram.
//! * **Fault injection & graceful degradation** ([`FaultPlan`],
//!   [`FaultInjector`], [`chaos`]) — a seeded, deterministic fault
//!   schedule (drop/delay/duplicate/corrupt ingestion, stall/crash a
//!   shard, fail a hot-swap, poison a checkpoint, corrupt a snapshot
//!   write) threaded through the service, paired with the recovery it
//!   demands: bounded ingestion retry, per-epoch dispatch deadline with
//!   fallback to the heuristic dispatcher (`degraded_epochs`),
//!   crash-restart from the last boundary checkpoint, and
//!   checksum-validated snapshots.
//! * **Guarded model rollout** ([`rollout`],
//!   [`DispatchService::submit_rollout`]) — hot-swapped checkpoints pass
//!   an admission probe (finite weights, matching shapes, sane outputs on
//!   a deterministic probe batch), then shadow-score K epochs against the
//!   incumbent, then serve a canary shard subset, before fleet-wide
//!   promotion; any gate failure or post-promotion regression atomically
//!   rolls back to the pinned previous version.
//! * **Online training loop** ([`trainer`], [`TrainerConfig`]) — shards
//!   tap the transitions their frozen dispatchers would have learned
//!   from into a bounded, shed-counting stream; a background DQN trainer
//!   replays them through seeded mini-batch updates and periodically
//!   emits candidate checkpoints into the rollout pipeline, so the
//!   service improves itself without ever serving an unguarded model.
//!   Deterministic on a [`SimClock`], snapshot/restore-exact, and pinned
//!   by its own chaos suite ([`TrainerFault`]).
//! * **Durable ingest journal** ([`wal`], [`Wal`], [`FsyncPolicy`]) —
//!   every accepted offer is appended to a checksummed, segment-rotated
//!   write-ahead log *before* it can be acked; recovery replays the
//!   journal suffix past the snapshot's high-water mark, bit-identical
//!   to an uncrashed twin at any crash byte. Torn tails truncate with a
//!   typed report, interior damage is a typed refusal, and the
//!   crash-at-any-byte contract is pinned by its own chaos suite
//!   ([`WalFault`]).
//!
//! Built entirely on `std` (`std::thread`, `std::sync::mpsc`).

#![warn(missing_docs)]

pub mod chaos;
pub mod clock;
pub mod error;
pub mod event;
pub mod fault;
pub mod metrics;
pub mod queue;
pub mod registry;
pub mod rollout;
pub mod scheduler;
pub mod service;
mod shard;
pub mod trainer;
pub mod wal;

pub use chaos::{
    rollout_chaos_divergence, run_chaos, trainer_chaos_divergence, wal_chaos_divergence,
    ChaosOptions, ChaosOutcome, RolloutChaosOptions, TrainerChaosOptions, WalChaosOptions,
    CHAOS_SEEDS,
};
pub use clock::{Clock, SimClock, WallClock};
pub use error::ServeError;
pub use event::Event;
pub use fault::{
    poisoned_policy_text, reward_tank_policy_text, CheckpointPoison, ConnFault, FaultCounters,
    FaultInjector, FaultPlan, FaultPlanConfig, IngestFault, ScheduledFaults, ShardFault,
    SnapshotCorruption, TrainerFault, WalFault,
};
pub use metrics::{MetricsSnapshot, ShardMetrics};
pub use mobirescue_obs as obs;
pub use queue::{BoundedQueue, ShedPolicy};
pub use registry::{ModelBundle, ModelRegistry};
pub use rollout::{
    Artifact, RolloutConfig, RolloutCounters, RolloutError, RolloutStage, RolloutStatus,
};
pub use scheduler::EpochScheduler;
pub use service::{DispatchService, RetryPolicy, ServeConfig};
pub use shard::SwapError;
pub use trainer::{TrainerConfig, TrainerStatus};
pub use wal::{FsyncPolicy, Wal, WalConfig, WalEntry, WalError, WalRecord, WalRecovery};
