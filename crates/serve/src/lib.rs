//! `mobirescue-serve`: an online dispatch service runtime over the
//! MobiRescue reproduction.
//!
//! The paper's dispatcher is evaluated in batch simulation; this crate
//! hosts the same dispatcher as a long-running service the way a real
//! emergency-operations deployment would run it:
//!
//! * **Streaming ingestion** ([`DispatchService::ingest`],
//!   [`BoundedQueue`]) — rescue requests arrive from producer threads
//!   into one bounded queue per shard that sheds the newcomer when full
//!   and counts what it accepts and sheds, so overload is a measured
//!   decision instead of unbounded memory growth.
//! * **Epoch loop** ([`DispatchService::run_epoch`]) — one dispatch tick
//!   per call, which its caller paces on the paper's 5-minute period
//!   against a pluggable [`Clock`] ([`WallClock`] for deployment,
//!   [`SimClock`] for accelerated and deterministic runs), measuring
//!   per-epoch dispatcher latency and feeding it back into the simulation
//!   as order delay exactly as `mobirescue_sim::engine` models dispatch
//!   latency.
//! * **One model bundle** ([`ModelBundle`]) — the SVM predictor and DQN
//!   policy the service boots with, checked once at start (a policy that
//!   cannot score the dispatcher's candidates is refused with
//!   [`ServeError::PolicyShape`]) and shared with every shard in an
//!   `Arc`; each shard builds its frozen-greedy dispatcher from it once.
//!   The paper's "keeps training while running" (Section IV-C4) is the
//!   batch dispatcher's training mode, not a second learner here.
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
//!   schedule. The service draws the faults only it can suffer (stall or
//!   crash a shard, tear or stall a journal append); the [`chaos`]
//!   harness applies the rest where they cross the service boundary
//!   (drop/delay/duplicate/corrupt a request before it is offered,
//!   corrupt a journal file after it is written).
//!   Each is paired with the recovery it demands: bounded ingestion
//!   retry, per-epoch dispatch deadline with fallback to the heuristic
//!   dispatcher (`degraded_epochs`), crash-restart from the last boundary
//!   checkpoint, and checksum-validated snapshots and journals.
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
#![forbid(unsafe_code)]

pub mod bundle;
pub mod chaos;
pub mod clock;
pub mod error;
pub mod fault;
pub mod metrics;
pub mod queue;
pub mod service;
mod shard;
pub mod wal;

pub use bundle::ModelBundle;
pub use chaos::{
    run_chaos, wal_chaos_divergence, ChaosOptions, ChaosOutcome, CHAOS_EPOCHS, CHAOS_SEEDS,
    CHAOS_SHARDS,
};
pub use clock::{Clock, SimClock, WallClock};
pub use error::ServeError;
pub use fault::{
    ConnFault, FaultCounters, FaultInjector, FaultPlan, FaultPlanConfig, IngestFault,
    ScheduledFaults, ShardFault, SnapshotCorruption, WalFault,
};
pub use metrics::{MetricsSnapshot, ShardMetrics};
pub use mobirescue_obs as obs;
pub use queue::BoundedQueue;
pub use service::{DispatchService, ServeConfig};
pub use wal::{FsyncPolicy, Wal, WalConfig, WalEntry, WalError, WalRecord, WalRecovery};
