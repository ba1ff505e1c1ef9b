//! The service-boundary error type.
//!
//! Inside the simulator, violated invariants still panic — a corrupted
//! engine state is a bug, not an operating condition. At the *service*
//! boundary everything a caller or a peer process can get wrong (bad
//! events, a misshapen model bundle, truncated snapshots, a dead shard)
//! surfaces as a [`ServeError`] instead, so a long-running dispatcher
//! keeps serving through malformed input.

use crate::wal::WalError;
use mobirescue_core::rl_dispatch::FEATURE_DIM;
use mobirescue_sim::record::RecordError;
use mobirescue_sim::WorldError;

/// Why a service operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// An event or snapshot referenced a shard the service does not host.
    UnknownShard {
        /// The referenced shard index.
        shard: usize,
        /// How many shards the service hosts.
        num_shards: usize,
    },
    /// The simulation engine rejected an event or snapshot.
    World(WorldError),
    /// A shard worker died or replied out of protocol.
    Shard {
        /// Index of the failing shard.
        shard: usize,
        /// What went wrong.
        message: String,
    },
    /// A service snapshot failed to parse.
    BadSnapshot(String),
    /// The model bundle's policy network cannot score the dispatcher's
    /// candidates: it must map `FEATURE_DIM` inputs to one output.
    PolicyShape {
        /// The policy's input width.
        inputs: usize,
        /// The policy's output width.
        outputs: usize,
    },
    /// Reading or writing a checkpoint/snapshot file failed.
    Io(String),
    /// The configuration cannot host a service (e.g. zero shards).
    BadConfig(&'static str),
    /// The durable ingest journal failed (torn append, corrupt segment,
    /// filesystem failure) — the request was *not* made durable and
    /// must not be acked.
    Wal(WalError),
    /// Recovery (journal replay or snapshot restore) overflowed a bounded
    /// request queue: admitting the remainder would silently shed
    /// durably-acked requests, so the service refuses to start. Restart
    /// with a queue capacity at least as large as the crashed process
    /// used.
    ReplayOverflow {
        /// The shard whose restored queue is full.
        shard: usize,
        /// The configured capacity that was exceeded.
        capacity: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownShard { shard, num_shards } => {
                write!(f, "unknown shard {shard} (service hosts {num_shards})")
            }
            ServeError::World(e) => write!(f, "engine rejected the operation: {e}"),
            ServeError::Shard { shard, message } => {
                write!(f, "shard {shard} failed: {message}")
            }
            ServeError::BadSnapshot(why) => write!(f, "bad service snapshot: {why}"),
            ServeError::PolicyShape { inputs, outputs } => write!(
                f,
                "bundle policy network is {inputs}→{outputs}, dispatcher needs {FEATURE_DIM}→1"
            ),
            ServeError::Io(why) => write!(f, "i/o error: {why}"),
            ServeError::BadConfig(what) => write!(f, "bad service config: {what}"),
            ServeError::Wal(e) => write!(f, "ingest journal failed: {e}"),
            ServeError::ReplayOverflow { shard, capacity } => write!(
                f,
                "recovery would shed acked requests: shard {shard}'s restored queue \
                 exceeds its capacity of {capacity}; restart with at least the \
                 crashed process's queue capacity"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<WorldError> for ServeError {
    fn from(e: WorldError) -> Self {
        ServeError::World(e)
    }
}

impl From<RecordError> for ServeError {
    fn from(e: RecordError) -> Self {
        ServeError::BadSnapshot(e.0)
    }
}

impl From<WalError> for ServeError {
    fn from(e: WalError) -> Self {
        ServeError::Wal(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = ServeError::UnknownShard {
            shard: 7,
            num_shards: 2,
        };
        assert!(e.to_string().contains("shard 7"));
        let e: ServeError = WorldError::NoHospitals.into();
        assert!(e.to_string().contains("hospitals"));
        assert!(ServeError::BadSnapshot("x".into())
            .to_string()
            .contains("snapshot"));
        assert!(ServeError::BadConfig("zero shards")
            .to_string()
            .contains("zero shards"));
        let e = ServeError::PolicyShape {
            inputs: FEATURE_DIM + 1,
            outputs: 1,
        };
        assert!(e.to_string().contains(&format!("{}→1", FEATURE_DIM + 1)));
        let e: ServeError = WalError::TornTail {
            segment: "wal-1.log".into(),
            offset: 42,
        }
        .into();
        assert!(e.to_string().contains("torn tail"));
        assert!(e.to_string().contains("42"));
    }
}
