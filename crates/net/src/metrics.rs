//! The front door's observability surface: `net.*` counters and the
//! ingest-to-dispatch latency histogram, registered in the same
//! [`Registry`] the dispatch service publishes into — one scrape covers
//! the whole process, in both `mrobs 1` text and Prometheus exposition.

use mobirescue_obs::{Counter, Histogram, Registry};

/// Handles to every `net.*` metric, fetched once at listener start.
#[derive(Clone)]
pub struct NetMetrics {
    /// Connections accepted (handshake completed).
    pub connections_accepted: Counter,
    /// Connections closed (any reason, after acceptance).
    pub connections_closed: Counter,
    /// Connections refused at the cap with `mrnet 1 busy`.
    pub connections_refused: Counter,
    /// Frames decoded successfully.
    pub frames_decoded: Counter,
    /// Frames rejected: decode errors, handshake failures, kinds a
    /// client must not send, or a peer hanging up mid-frame.
    pub frames_rejected: Counter,
    /// Requests admitted and ACKed.
    pub requests_acked: Counter,
    /// Requests NACKed with [`crate::NackReason::Shed`] — the client-visible
    /// face of the bounded queues' shed counters.
    pub requests_nacked_shed: Counter,
    /// Requests NACKed as invalid or while draining.
    pub requests_nacked_invalid: Counter,
    /// Ingest-to-dispatch latency: admission into a shard queue until
    /// the end of the epoch that drained it, milliseconds.
    pub ingest_to_dispatch_ms: Histogram,
}

impl NetMetrics {
    /// Fetches (get-or-create) every `net.*` metric from `registry`.
    pub fn register(registry: &Registry) -> Self {
        Self {
            connections_accepted: registry.counter("net.connections_accepted"),
            connections_closed: registry.counter("net.connections_closed"),
            connections_refused: registry.counter("net.connections_refused"),
            frames_decoded: registry.counter("net.frames_decoded"),
            frames_rejected: registry.counter("net.frames_rejected"),
            requests_acked: registry.counter("net.requests_acked"),
            requests_nacked_shed: registry.counter("net.requests_nacked_shed"),
            requests_nacked_invalid: registry.counter("net.requests_nacked_invalid"),
            ingest_to_dispatch_ms: registry.histogram("net.ingest_to_dispatch_ms"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_land_in_both_wire_formats() {
        let reg = Registry::new();
        let m = NetMetrics::register(&reg);
        m.connections_accepted.inc();
        m.connections_refused.inc();
        m.frames_decoded.add(3);
        m.requests_acked.add(2);
        m.requests_nacked_shed.inc();
        m.ingest_to_dispatch_ms.record(12);
        let snap = reg.snapshot();
        let text = snap.to_text();
        assert!(text.contains("c net.connections_accepted 1"));
        assert!(text.contains("c net.connections_refused 1"));
        assert!(text.contains("c net.frames_decoded 3"));
        assert!(text.contains("h net.ingest_to_dispatch_ms 1 12 12"));
        let prom = snap.to_prometheus();
        assert!(prom.contains("# TYPE mobirescue_net_requests_acked counter"));
        assert!(prom.contains("mobirescue_net_requests_nacked_shed 1"));
        assert!(prom.contains("# TYPE mobirescue_net_ingest_to_dispatch_ms histogram"));
    }
}
