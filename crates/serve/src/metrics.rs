//! Service observability: the aggregated [`MetricsSnapshot`], a
//! read-only view over the service's obs registry.

use mobirescue_obs::ObsSnapshot;
use std::fmt::Write as _;

/// The registry name of shard `shard`'s `series` (`serve.shard{i}.*`).
pub(crate) fn shard_series(shard: usize, series: &str) -> String {
    format!("serve.shard{shard}.{series}")
}

/// The prefix of shard `shard`'s route-planner series
/// (`routing.shard{i}.cache_hits`, …).
pub(crate) fn routing_prefix(shard: usize) -> String {
    format!("routing.shard{shard}")
}

/// Per-shard counters inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardMetrics {
    /// Epochs this shard has completed.
    pub epochs: u32,
    /// Requests sitting in the shard's ingest queue right now.
    pub queue_depth: usize,
    /// Requests injected into the shard's world so far.
    pub injected: u64,
    /// Injected events the engine rejected (e.g. unknown segment).
    pub rejected: u64,
    /// Requests currently waiting for pickup.
    pub waiting: usize,
    /// Requests picked up so far.
    pub picked_up: usize,
    /// Requests delivered to a hospital so far.
    pub delivered: usize,
    /// Shortest-path-tree cache hits in the shard's route planner.
    pub routing_hits: u64,
    /// Shortest-path-tree cache misses (trees actually computed).
    pub routing_misses: u64,
    /// Epochs this shard served on the heuristic fallback instead of the
    /// DQN policy (deadline blown).
    pub degraded: u64,
}

/// A point-in-time aggregate of the whole service, assembled without
/// stopping any shard.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Epochs the service has driven (all shards advance together).
    pub epochs_completed: u32,
    /// Request events admitted across all shard queues.
    pub requests_accepted: u64,
    /// Request events shed across all shard queues.
    pub requests_shed: u64,
    /// Weather/road-damage advisories admitted.
    pub advisories_accepted: u64,
    /// Weather/road-damage advisories shed.
    pub advisories_shed: u64,
    /// Advisories drained and validated against the scenario.
    pub advisories_applied: u64,
    /// Advisories dropped at validation (unknown segment / hour).
    pub advisories_invalid: u64,
    /// Epochs in which at least one shard fell back to the heuristic
    /// dispatcher (deadline blown).
    pub degraded_epochs: u64,
    /// Ingestion re-offers performed by
    /// [`crate::DispatchService::ingest_with_retry`] after a shed.
    pub ingest_retries: u64,
    /// One entry per hosted shard.
    pub shards: Vec<ShardMetrics>,
}

impl MetricsSnapshot {
    /// Reads the view out of one registry capture of a service hosting
    /// `num_shards` shards. Every count is the series its owner writes
    /// (absent series read 0).
    pub(crate) fn read(obs: &ObsSnapshot, num_shards: usize) -> Self {
        let counter = |name: &str| obs.counters.get(name).copied().unwrap_or(0);
        let gauge = |name: &str| obs.gauges.get(name).copied().unwrap_or(0);
        let shards = (0..num_shards)
            .map(|i| {
                let c = |series: &str| counter(&shard_series(i, series));
                let g = |series: &str| gauge(&shard_series(i, series));
                ShardMetrics {
                    epochs: c("epochs") as u32,
                    queue_depth: g("queue_depth") as usize,
                    injected: c("injected"),
                    rejected: c("rejected"),
                    waiting: g("waiting") as usize,
                    picked_up: c("picked_up") as usize,
                    delivered: c("delivered") as usize,
                    routing_hits: counter(&format!("{}.cache_hits", routing_prefix(i))),
                    routing_misses: counter(&format!("{}.cache_misses", routing_prefix(i))),
                    degraded: c("degraded_epochs"),
                }
            })
            .collect();
        let requests = |series: &str| -> u64 {
            (0..num_shards)
                .map(|i| counter(&shard_series(i, series)))
                .sum()
        };
        Self {
            epochs_completed: counter("serve.epochs_completed") as u32,
            requests_accepted: requests("requests_accepted"),
            requests_shed: requests("requests_shed"),
            advisories_accepted: counter("serve.advisories_accepted"),
            advisories_shed: counter("serve.advisories_shed"),
            advisories_applied: counter("serve.advisories_applied"),
            advisories_invalid: counter("serve.advisories_invalid"),
            degraded_epochs: counter("serve.degraded_epochs"),
            ingest_retries: counter("serve.ingest_retries"),
            shards,
        }
    }

    /// Human-readable multi-line report (the serve binary's output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "epoch {:>4} | ingest ok {} shed {} | advisories ok {} shed {} applied {} invalid {}",
            self.epochs_completed,
            self.requests_accepted,
            self.requests_shed,
            self.advisories_accepted,
            self.advisories_shed,
            self.advisories_applied,
            self.advisories_invalid,
        );
        let _ = writeln!(
            out,
            "  degraded epochs {} | ingest retries {}",
            self.degraded_epochs, self.ingest_retries,
        );
        for (i, s) in self.shards.iter().enumerate() {
            let _ = writeln!(
                out,
                "  shard {i}: epoch {} queue {} injected {} (rejected {}) waiting {} picked-up {} delivered {} route-cache {}h/{}m degraded {}",
                s.epochs,
                s.queue_depth,
                s.injected,
                s.rejected,
                s.waiting,
                s.picked_up,
                s.delivered,
                s.routing_hits,
                s.routing_misses,
                s.degraded,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_renders() {
        let m = MetricsSnapshot {
            epochs_completed: 3,
            requests_accepted: 10,
            requests_shed: 2,
            advisories_accepted: 4,
            advisories_shed: 0,
            advisories_applied: 3,
            advisories_invalid: 1,
            degraded_epochs: 1,
            ingest_retries: 2,
            shards: vec![
                ShardMetrics {
                    picked_up: 3,
                    delivered: 2,
                    waiting: 1,
                    ..Default::default()
                },
                ShardMetrics {
                    picked_up: 4,
                    delivered: 4,
                    waiting: 0,
                    ..Default::default()
                },
            ],
        };
        let text = m.render();
        assert!(text.contains("epoch    3"));
        assert!(text.contains("shard 1"));
        assert!(text.contains("degraded epochs 1"));
        assert!(text.contains("ingest retries 2"));
    }
}
