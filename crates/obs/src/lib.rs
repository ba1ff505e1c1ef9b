//! `mobirescue-obs`: the observability spine of the MobiRescue runtime.
//!
//! After the serve runtime grew shards, degraded epochs, routing caches
//! and retry storms, its telemetry was scattered across ad-hoc struct
//! fields. This crate unifies it:
//!
//! * **[`Registry`]** — named [`Counter`]s, [`Gauge`]s and log2-bucketed
//!   latency [`Histogram`]s (p50/p95/p99/max) with cheap atomic updates
//!   from any thread. Handles are `Arc`-backed: fetch once, update
//!   lock-free forever.
//! * **Snapshots** — [`Registry::snapshot`] captures every metric into an
//!   [`ObsSnapshot`] that renders both a stable, versioned
//!   machine-readable text format (`mrobs 1`, round-trippable via
//!   [`ObsSnapshot::parse`]) and Prometheus-style exposition text
//!   ([`ObsSnapshot::to_prometheus`]).
//! * **Spans** — [`Histogram::time`] returns a guard that records its
//!   elapsed milliseconds on drop, measured on a pluggable
//!   [`TimeSource`] ([`WallTime`] in deployment, [`ManualTime`] or a
//!   simulated service clock in tests, so instrumented runs stay
//!   bit-for-bit deterministic). [`PhaseTimer`] is the optional,
//!   zero-overhead-when-disabled embedding of a time source used by the
//!   simulation engine and dispatcher.
//! * **Events** — every registry carries an [`EventRing`], a bounded ring
//!   buffer of recent structured events (sequence, epoch, shard, level,
//!   message) dumpable on error or on demand.
//! * **Records** — [`record`] is the one codec every `mr*` text reader
//!   goes through (`mrobs 1` here; `mrworld 1`, `mrserve 1` and `mrwal 1`
//!   above this crate), plus the FNV-1a integrity seal. It lives here
//!   because this is the one crate every reader already depends on.
//!
//! Built entirely on `std`, no external dependencies — consistent with
//! the workspace's vendored-shim policy.

#![warn(missing_docs)]

pub mod events;
pub mod histogram;
pub mod record;
pub mod registry;
pub mod snapshot;
pub mod time;

pub use events::{EventRing, Level, ObsEvent};
pub use histogram::{bucket_index, bucket_upper_bound, Histogram, HistogramSnapshot, NUM_BUCKETS};
pub use registry::{Counter, Gauge, Registry};
pub use snapshot::ObsSnapshot;
pub use time::{ManualTime, PhaseTimer, SpanTimer, TimeSource, WallTime};
