//! Discrete-time rescue-team simulation for the MobiRescue reproduction.
//!
//! The paper evaluates dispatchers inside SUMO driven by the Flow RL
//! framework. This crate replaces that stack with a purpose-built simulator
//! at the granularity the paper's metrics are defined on: rescue teams
//! drive shortest routes over the hour-by-hour flood-damaged network, pick
//! up requests on traversed segments (capacity `c`), deliver to the nearest
//! hospital, and receive fresh orders every dispatch period — applied only
//! after the dispatcher's computation latency elapses, which is what
//! separates RL dispatch (<0.5 s) from integer programming (~300 s) in the
//! paper's timeliness results.
//!
//! * [`types`] — configuration, requests, orders, views, outcomes;
//! * [`dispatcher`] — the [`dispatcher::Dispatcher`] trait all evaluated
//!   methods implement, plus a naive nearest-request baseline;
//! * [`engine`] — the second-resolution simulation loop, as a steppable
//!   [`engine::World`] with epoch-boundary snapshot/restore (the batch
//!   [`run`] wraps it);
//! * [`metrics`] — one extraction helper per evaluation figure;
//! * [`record`] — the record codec and integrity seal shared by the
//!   `mr*` readers, re-exported from `mobirescue_obs::record`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dispatcher;
pub mod engine;
pub mod metrics;
pub mod types;

pub use mobirescue_obs::record;

pub use dispatcher::{DispatchState, Dispatcher, NearestRequestDispatcher};
pub use engine::{
    fnv1a_64, fnv1a_64_bytes, open_snapshot, run, seal_snapshot, EpochReport, SimOutcome, World,
    WorldError, WorldPhases,
};
pub use types::{
    DispatchPlan, Order, RequestId, RequestOutcome, RequestSpec, RequestView, SimConfig, TeamId,
    TeamView,
};
