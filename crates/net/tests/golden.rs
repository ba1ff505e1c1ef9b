//! Golden-file tests pinning the `net.*` observability surface in both
//! wire formats: the `mrobs 1` snapshot text and the Prometheus
//! exposition. A renamed counter, a dropped metric, or a bucket-encoding
//! change shows up as an explicit diff instead of silently breaking
//! dashboards scraping a serving front door.
//!
//! To bless an *intentional* change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p mobirescue-net --test golden
//! ```
//!
//! and commit the updated fixtures together with the rationale.

use mobirescue_net::NetMetrics;
use mobirescue_obs::Registry;

const TEXT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/net_metrics.txt");
const PROM_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/net_metrics.prom");

/// A deterministic registry with every `net.*` metric set to a distinct
/// value, so a swapped pair of counters cannot cancel out in the diff.
fn golden_registry() -> mobirescue_obs::ObsSnapshot {
    let reg = Registry::new();
    let m = NetMetrics::register(&reg);
    m.connections_accepted.add(11);
    m.connections_closed.add(9);
    m.connections_refused.add(2);
    m.frames_decoded.add(406);
    m.frames_rejected.add(5);
    m.requests_acked.add(380);
    m.requests_nacked_shed.add(17);
    m.requests_nacked_invalid.add(3);
    // Latencies covering several log2 buckets plus an outlier.
    for v in [0, 1, 3, 40, 40, 127, 128, 900] {
        m.ingest_to_dispatch_ms.record(v);
    }
    reg.snapshot()
}

fn check(path: &str, generated: &str, what: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, generated).expect("fixture written");
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden fixture exists; run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        generated, golden,
        "{what} drifted from the golden fixture {path}.\n\
         If the change is intentional, bless it with:\n  \
         UPDATE_GOLDEN=1 cargo test -p mobirescue-net --test golden\n\
         and explain the format change in the commit."
    );
}

#[test]
fn net_metrics_text_matches_golden() {
    check(TEXT_PATH, &golden_registry().to_text(), "mrobs 1 text");
}

#[test]
fn net_metrics_prometheus_matches_golden() {
    check(
        PROM_PATH,
        &golden_registry().to_prometheus(),
        "Prometheus exposition",
    );
}

/// Every metric the listener increments at runtime must be present in
/// the fixture — a registration dropped from [`NetMetrics`] fails here
/// even if the renderings still agree on what remains.
#[test]
fn every_net_metric_is_pinned() {
    let text = golden_registry().to_text();
    for name in [
        "net.connections_accepted",
        "net.connections_closed",
        "net.connections_refused",
        "net.frames_decoded",
        "net.frames_rejected",
        "net.requests_acked",
        "net.requests_nacked_shed",
        "net.requests_nacked_invalid",
        "net.ingest_to_dispatch_ms",
    ] {
        assert!(text.contains(name), "{name} missing from the snapshot");
    }
}
