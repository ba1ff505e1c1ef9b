//! The front-door chaos harness: a real TCP listener driven by a
//! deliberately misbehaving client executing a seeded [`ConnFault`]
//! schedule, with end-to-end conservation accounting.
//!
//! The central claim the harness checks is **overload honesty**: every
//! frame the client offers is either answered on the wire (Ack or typed
//! Nack) or was *deliberately destroyed by a scheduled fault* — and the
//! server's own counters agree with the client's independent tally.
//! The listener retries no shed offer and the queues hold 4 requests
//! each, so a burst between epochs overloads them. Concretely:
//!
//! 1. `completed == acked + nacked_shed + nacked_invalid` — every
//!    surviving offer gets exactly one reply;
//! 2. `offered == completed + lost` — frames destroyed by
//!    mid-frame-disconnect / slow-loris faults, and nothing else, go
//!    unanswered;
//! 3. `queue_shed == nacked_shed` — every failed queue push surfaced as
//!    exactly one NACK;
//! 4. `queue_accepted == acked` — no request is duplicated or lost
//!    between the socket and the shard queues;
//! 5. `server.frames_decoded == completed + metrics_pulls` and every
//!    destroyed frame is counted in `net.frames_rejected`.
//!
//! The service runs on a [`SimClock`] (all recorded latencies are
//! exactly zero) and the fault schedule is a pure function of the seed,
//! so a run's accounting reproduces exactly; only socket timing varies,
//! and no invariant depends on it.

use crate::client::NetClient;
use crate::listener::{NetConfig, NetServer};
use crate::wire::{Frame, MetricsReport, NackReason};
use mobirescue_serve::chaos::chaos_scenario;
use mobirescue_serve::{
    Clock, ConnFault, DispatchService, FaultCounters, FaultInjector, FaultPlanConfig, ModelBundle,
    ServeConfig, SimClock,
};
use mobirescue_sim::SimConfig;
use std::collections::BTreeSet;
use std::sync::Arc;

/// What a front-door chaos run should look like.
#[derive(Debug, Clone)]
pub struct NetChaosOptions {
    /// Request frames the misbehaving client offers.
    pub offers: usize,
    /// Dispatch epochs interleaved into the offer stream (one per this
    /// many offers).
    pub epoch_every: usize,
}

impl Default for NetChaosOptions {
    fn default() -> Self {
        Self {
            offers: 60,
            epoch_every: 8,
        }
    }
}

/// Everything a front-door chaos run produced.
#[derive(Debug)]
pub struct NetChaosReport {
    /// Frames the client attempted to offer.
    pub offered: u64,
    /// Offers that produced a reply on the wire.
    pub completed: u64,
    /// Replies that were Acks.
    pub acked: u64,
    /// Replies that were `Shed` NACKs.
    pub nacked_shed: u64,
    /// Replies that were invalid-request NACKs (unknown shard/segment).
    pub nacked_invalid: u64,
    /// Offers destroyed by a scheduled connection fault (mid-frame
    /// disconnect or slow-loris close), hence legitimately unanswered.
    pub lost: u64,
    /// Metrics pulls issued (each is one extra decoded frame).
    pub metrics_pulls: u64,
    /// `true` iff no Ack id was ever seen twice.
    pub acked_ids_unique: bool,
    /// Total accepted by the shard queues.
    pub queue_accepted: u64,
    /// Total shed by the shard queues.
    pub queue_shed: u64,
    /// The server's own counters, pulled over the wire at the end.
    pub server: MetricsReport,
    /// Connection faults that actually fired.
    pub faults: FaultCounters,
    /// Broken invariants (empty on a clean run).
    pub violations: Vec<String>,
}

impl NetChaosReport {
    /// Whether every invariant held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// A one-line report for sweep output.
    pub fn summary(&self) -> String {
        format!(
            "offered {} completed {} (ack {} shed {} invalid {}) lost {} | faults: disc {} torn {} loris {} | queue acc {} shed {} -> {}",
            self.offered,
            self.completed,
            self.acked,
            self.nacked_shed,
            self.nacked_invalid,
            self.lost,
            self.faults.conn_disconnects,
            self.faults.conn_torn_writes,
            self.faults.conn_slow_loris,
            self.queue_accepted,
            self.queue_shed,
            if self.ok() { "OK" } else { "FAIL" },
        )
    }
}

/// Runs a listener under a seeded misbehaving client and checks the
/// conservation invariants.
///
/// # Panics
///
/// Panics when the service or listener cannot start at all (no route to
/// localhost) — environmental, not an invariant under test.
pub fn run_net_chaos(seed: u64, opts: &NetChaosOptions) -> NetChaosReport {
    let scenario = Arc::new(chaos_scenario());
    let epochs = (opts.offers / opts.epoch_every.max(1) + 2) as u32;
    let injector = FaultInjector::from_seed(seed, &FaultPlanConfig::net_chaos(epochs, 2));
    let mut config = ServeConfig::new(SimConfig::small(6));
    config.num_shards = 2;
    config.request_queue_capacity = 4;
    // The injector stays client-side: it only schedules *connection*
    // faults, applied at the socket. The service itself runs unfaulted
    // so wire-level accounting is exact.
    config.faults = None;
    let clock: Arc<SimClock> = Arc::new(SimClock::new());
    let bundle = Arc::new(ModelBundle::default());
    let service = Arc::new(
        DispatchService::start(
            scenario.clone(),
            config,
            Arc::clone(&clock) as Arc<dyn Clock>,
            bundle,
        )
        .expect("chaos service starts"),
    );
    let mut net_cfg = NetConfig::new("127.0.0.1:0");
    net_cfg.frame_timeout_ms = 150;
    net_cfg.poll_interval_ms = 5;
    net_cfg.max_retries = 0;
    let mut server = NetServer::start(
        Arc::clone(&service),
        Arc::clone(&clock) as Arc<dyn Clock>,
        net_cfg,
    )
    .expect("listener binds on localhost");
    let addr = server.local_addr();
    let segments = scenario.city.network.num_segments() as u32;

    let mut violations: Vec<String> = Vec::new();
    let mut client = NetClient::connect(addr).expect("chaos client connects");
    let (mut completed, mut acked, mut nacked_shed, mut nacked_invalid, mut lost) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut acked_ids: BTreeSet<u64> = BTreeSet::new();
    let mut acked_ids_unique = true;

    for i in 0..opts.offers {
        // A sprinkling of invalid requests keeps the typed-NACK paths
        // hot: every 13th offer names a segment the city does not have,
        // every 17th a shard the service does not host.
        let (shard, segment) = if i % 17 == 9 {
            (7, (i as u32) % segments)
        } else if i % 13 == 5 {
            (i as u32 % 2, u32::MAX)
        } else {
            (i as u32 % 2, (i as u32 * 31) % segments)
        };
        let frame = Frame::Request {
            id: i as u64,
            shard,
            appear_s: (i as u32 * 37) % 3_600,
            segment,
        };
        let bytes = frame.encode();
        match injector.next_conn_fault() {
            None => {
                client.send_raw(&bytes).expect("send");
                track_reply(
                    client.recv(),
                    i as u64,
                    &mut completed,
                    &mut acked,
                    &mut nacked_shed,
                    &mut nacked_invalid,
                    &mut acked_ids,
                    &mut acked_ids_unique,
                    &mut violations,
                );
            }
            Some(ConnFault::TornWrite) => {
                // The frame arrives in two flushes with a pause between:
                // the listener must reassemble and reply normally.
                let mid = bytes.len() / 2;
                client
                    .send_raw(&bytes[..mid])
                    .expect("send torn first half");
                std::thread::sleep(std::time::Duration::from_millis(10));
                client
                    .send_raw(&bytes[mid..])
                    .expect("send torn second half");
                track_reply(
                    client.recv(),
                    i as u64,
                    &mut completed,
                    &mut acked,
                    &mut nacked_shed,
                    &mut nacked_invalid,
                    &mut acked_ids,
                    &mut acked_ids_unique,
                    &mut violations,
                );
            }
            Some(ConnFault::MidFrameDisconnect) => {
                // Half a frame, then hang up. The torso must be counted
                // rejected, never admitted.
                let _ = client.send_raw(&bytes[..bytes.len() / 2]);
                drop(client);
                lost += 1;
                client = NetClient::connect(addr).expect("reconnect after disconnect");
            }
            Some(ConnFault::SlowLoris) => {
                // Trickle three header bytes and stall: the server's
                // frame deadline must close the connection.
                let _ = client.send_raw(&bytes[..3]);
                if client.recv().is_ok() {
                    violations.push(format!(
                        "offer {i}: server replied to a stalled partial header"
                    ));
                }
                lost += 1;
                client = NetClient::connect(addr).expect("reconnect after slow-loris");
            }
        }
        if (i + 1) % opts.epoch_every.max(1) == 0 {
            server.epoch_started();
            service.run_epoch().expect("epoch under chaos");
            server.epoch_finished();
        }
    }

    // Final drain epoch, then pull the server's view over the wire.
    server.epoch_started();
    service.run_epoch().expect("final epoch");
    server.epoch_finished();
    let server_report = client.pull_metrics().expect("metrics pull");
    let metrics_pulls = 1u64;
    drop(client);
    server.shutdown();

    let service_metrics = service.metrics();
    let report = NetChaosReport {
        offered: opts.offers as u64,
        completed,
        acked,
        nacked_shed,
        nacked_invalid,
        lost,
        metrics_pulls,
        acked_ids_unique,
        queue_accepted: service_metrics.requests_accepted,
        queue_shed: service_metrics.requests_shed,
        server: server_report,
        faults: injector.counters(),
        violations,
    };
    check_invariants(report)
}

#[allow(clippy::too_many_arguments)]
fn track_reply(
    reply: Result<Frame, crate::error::NetError>,
    id: u64,
    completed: &mut u64,
    acked: &mut u64,
    nacked_shed: &mut u64,
    nacked_invalid: &mut u64,
    acked_ids: &mut BTreeSet<u64>,
    acked_ids_unique: &mut bool,
    violations: &mut Vec<String>,
) {
    match reply {
        Ok(Frame::Ack { id: got }) => {
            *completed += 1;
            *acked += 1;
            if got != id {
                violations.push(format!("ack id {got} for request {id}"));
            }
            if !acked_ids.insert(got) {
                *acked_ids_unique = false;
            }
        }
        Ok(Frame::Nack { id: got, reason }) => {
            *completed += 1;
            if got != id {
                violations.push(format!("nack id {got} for request {id}"));
            }
            match reason {
                NackReason::Shed => *nacked_shed += 1,
                NackReason::UnknownShard | NackReason::UnknownSegment => *nacked_invalid += 1,
                other => violations.push(format!("request {id}: unexpected nack {other:?}")),
            }
        }
        Ok(other) => violations.push(format!("request {id}: unexpected reply {other:?}")),
        Err(e) => violations.push(format!("request {id}: no reply: {e}")),
    }
}

fn check_invariants(mut report: NetChaosReport) -> NetChaosReport {
    let r = &report;
    let mut found: Vec<String> = Vec::new();
    if r.completed != r.acked + r.nacked_shed + r.nacked_invalid {
        found.push(format!(
            "reply conservation: completed {} != acked {} + shed {} + invalid {}",
            r.completed, r.acked, r.nacked_shed, r.nacked_invalid
        ));
    }
    if r.offered != r.completed + r.lost {
        found.push(format!(
            "offer conservation: offered {} != completed {} + lost {}",
            r.offered, r.completed, r.lost
        ));
    }
    let destroyed = r.faults.conn_disconnects + r.faults.conn_slow_loris;
    if r.lost != destroyed {
        found.push(format!(
            "loss attribution: lost {} != disconnects {} + slow-loris {}",
            r.lost, r.faults.conn_disconnects, r.faults.conn_slow_loris
        ));
    }
    if r.queue_shed != r.nacked_shed {
        found.push(format!(
            "shed honesty: queue shed {} != shed NACKs {}",
            r.queue_shed, r.nacked_shed
        ));
    }
    if r.queue_accepted != r.acked {
        found.push(format!(
            "no request duplicated or lost: queue accepted {} != acked {}",
            r.queue_accepted, r.acked
        ));
    }
    if r.server.frames_decoded != r.completed + r.metrics_pulls {
        found.push(format!(
            "decode accounting: server decoded {} != completed {} + pulls {}",
            r.server.frames_decoded, r.completed, r.metrics_pulls
        ));
    }
    if r.server.requests_acked != r.acked
        || r.server.sheds_nacked != r.nacked_shed
        || r.server.requests_rejected != r.nacked_invalid
    {
        found.push(format!(
            "server/client tally mismatch: server ack {} shed {} rejected {} vs client {} {} {}",
            r.server.requests_acked,
            r.server.sheds_nacked,
            r.server.requests_rejected,
            r.acked,
            r.nacked_shed,
            r.nacked_invalid
        ));
    }
    if !r.acked_ids_unique {
        found.push("duplicate ack id".to_owned());
    }
    report.violations.extend(found);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_run_has_no_faults_and_full_conservation() {
        // Seed 0 with conn probabilities still applies net_chaos odds —
        // use a tiny offer count instead and accept whatever fires; the
        // invariants are the test.
        let opts = NetChaosOptions {
            offers: 12,
            epoch_every: 4,
        };
        let report = run_net_chaos(3, &opts);
        assert!(report.ok(), "{}", report.summary());
        assert_eq!(report.offered, 12);
    }
}
