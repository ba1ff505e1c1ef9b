//! `mobirescue-net`: the TCP front door for the dispatch service.
//!
//! The serve runtime ingests through in-process bounded queues; this
//! crate puts a real network listener in front of them, because a
//! production dispatch system is driven by request streams arriving
//! over sockets — with all the failure modes that implies (partial
//! frames, torn writes, stalled clients, overload past queue capacity).
//!
//! * **Wire protocol** ([`wire`]) — the versioned `mrnet 1` framing:
//!   length-prefixed binary frames sealed with the same FNV-1a-64 the
//!   snapshot formats use, decoded with typed errors that name the
//!   offending field.
//! * **Listener** ([`listener`]) — a std-only thread-per-connection
//!   server feeding decoded requests into
//!   [`DispatchService::ingest_with_retry`]; queue sheds surface as
//!   explicit NACK frames, with a connection cap, idle/frame deadlines,
//!   and graceful drain-on-shutdown. Instrumented end to end through
//!   `mobirescue-obs` (`net.*` counters, ingest-to-dispatch latency
//!   histogram, ring events).
//! * **Client** ([`client`]) — the blocking counterpart used by the
//!   load generator and the chaos harness, with raw-byte access for
//!   deliberately broken traffic.
//! * **Chaos harness** ([`chaos`]) — a seeded misbehaving client
//!   (mid-frame disconnects, torn writes, slow-loris stalls, scheduled
//!   by `serve::fault`) plus the conservation invariants proving no
//!   request is silently dropped, duplicated, or lost.
//!
//! [`DispatchService::ingest_with_retry`]:
//! mobirescue_serve::DispatchService::ingest_with_retry

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod client;
pub mod error;
pub mod listener;
pub mod metrics;
pub mod wire;

pub use chaos::{run_net_chaos, NetChaosOptions, NetChaosReport};
pub use client::NetClient;
pub use error::NetError;
pub use listener::{NetConfig, NetServer};
pub use metrics::NetMetrics;
pub use wire::{
    DecodeError, Frame, MetricsReport, NackReason, HELLO, HELLO_BUSY, HELLO_OK, MAX_PAYLOAD,
};
