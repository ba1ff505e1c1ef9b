//! Observability integration: the service publishes its phase histograms,
//! registry-backed counters and routing gauges, and snapshot→restore→
//! continue never double-counts.

use mobirescue_core::scenario::Scenario;
use mobirescue_roadnet::graph::SegmentId;
use mobirescue_serve::chaos::chaos_scenario;
use mobirescue_serve::obs::ObsSnapshot;
use mobirescue_serve::{Clock, DispatchService, ModelBundle, ServeConfig, SimClock};
use mobirescue_sim::{RequestSpec, SimConfig};
use std::sync::Arc;

const NUM_SHARDS: usize = 2;
const PHASES: [&str; 5] = [
    "epoch.ingest_ms",
    "epoch.predict_ms",
    "epoch.dispatch_ms",
    "epoch.routing_ms",
    "epoch.snapshot_ms",
];

fn start_service(config: ServeConfig) -> (Arc<Scenario>, DispatchService) {
    let scenario = Arc::new(chaos_scenario());
    let service = DispatchService::start(
        Arc::clone(&scenario),
        config,
        Arc::new(SimClock::new()) as Arc<dyn Clock>,
        Arc::new(ModelBundle::default()),
    )
    .expect("service starts");
    (scenario, service)
}

fn small_config() -> ServeConfig {
    let mut config = ServeConfig::new(SimConfig::small(6));
    config.num_shards = NUM_SHARDS;
    config
}

fn ingest_epoch(service: &DispatchService, scenario: &Scenario, epoch: u32) {
    let segments = scenario.city.network.num_segments() as u32;
    for shard in 0..NUM_SHARDS {
        for i in 0..3u32 {
            let spec = RequestSpec {
                appear_s: epoch * 300 + i * 40,
                segment: SegmentId((epoch * 53 + i * 17 + shard as u32 * 29) % segments),
            };
            service.ingest(shard, spec).expect("valid request");
        }
    }
}

#[test]
fn phase_histograms_cover_every_epoch_and_dump_round_trips() {
    let epochs = 5u32;
    let (scenario, service) = start_service(small_config());
    for e in 0..epochs {
        ingest_epoch(&service, &scenario, e);
        service.run_epoch().expect("epoch runs");
    }
    let _ = service.snapshot().expect("snapshot serializes");

    let snap = service.obs_snapshot();
    // One sample per shard per epoch for each phase; the snapshot span is
    // recorded once per snapshot() call.
    for name in PHASES {
        let hist = snap
            .histograms
            .get(name)
            .unwrap_or_else(|| panic!("{name} histogram missing from the dump"));
        let expected = if name == "epoch.snapshot_ms" {
            1
        } else {
            u64::from(epochs) * NUM_SHARDS as u64
        };
        assert_eq!(hist.count(), expected, "{name} sample count");
    }
    // Every MetricsSnapshot counter appears in the dump.
    let m = service.metrics();
    assert_eq!(snap.counters["serve.epochs_completed"], u64::from(epochs));
    let shard_accepted: u64 = (0..NUM_SHARDS)
        .map(|i| snap.counters[&format!("serve.shard{i}.requests_accepted")])
        .sum();
    assert_eq!(shard_accepted, m.requests_accepted);
    assert_eq!(snap.counters["serve.ingest_retries"], m.ingest_retries);
    assert_eq!(snap.counters["serve.degraded_epochs"], m.degraded_epochs);
    for i in 0..NUM_SHARDS {
        assert_eq!(
            snap.counters[&format!("serve.shard{i}.injected")],
            m.shards[i].injected
        );
        assert!(snap
            .counters
            .contains_key(&format!("routing.shard{i}.cache_misses")));
        assert!(snap
            .gauges
            .contains_key(&format!("routing.shard{i}.cached_trees")));
    }
    // The machine-readable dump parses back to the same snapshot.
    let parsed = ObsSnapshot::parse(&snap.to_text()).expect("mrobs 1 text parses");
    assert_eq!(parsed, snap);
    // One epoch-complete event per epoch reached the ring.
    assert!(service.obs().events().total_logged() >= u64::from(epochs));
    service.shutdown();
}

/// The registry-backed counter bugfix pinned: restoring a snapshot *sets*
/// the counters rather than adding to them, so a restored service's
/// shard-summed and service-level counters match the live one exactly and
/// keep evolving identically.
#[test]
fn restore_into_prepopulated_registry_does_not_double_count() {
    let (scenario, service) = start_service(small_config());
    for e in 0..4u32 {
        ingest_epoch(&service, &scenario, e);
        service.run_epoch().expect("epoch runs");
    }
    let snapshot = service.snapshot().expect("snapshot serializes");
    let metrics_at_snap = service.metrics();
    assert!(metrics_at_snap.requests_accepted > 0, "counters are live");
    assert!(
        !snapshot.lines().any(|l| l.starts_with("hist ")),
        "epoch latency is telemetry: the snapshot carries no `hist` record"
    );

    let restored = DispatchService::restore(
        Arc::clone(&scenario),
        small_config(),
        Arc::new(SimClock::new()) as Arc<dyn Clock>,
        Arc::new(ModelBundle::default()),
        &snapshot,
    )
    .expect("clean snapshot restores");
    assert_eq!(
        restored.metrics(),
        metrics_at_snap,
        "restored counters must equal the snapshot's"
    );

    // Continue both services with the same stream: totals must stay equal
    // (the restored one must not re-count what the snapshot carried).
    for e in 4..6u32 {
        ingest_epoch(&service, &scenario, e);
        ingest_epoch(&restored, &scenario, e);
        service.run_epoch().expect("epoch runs");
        restored.run_epoch().expect("epoch runs");
    }
    assert_eq!(restored.metrics(), service.metrics());
    // The restore carried no latency, so the restored service's
    // `epoch.dispatch_ms` holds only its own two epochs' samples.
    assert_eq!(
        restored.obs_snapshot().histograms["epoch.dispatch_ms"].count(),
        2 * NUM_SHARDS as u64
    );
    service.shutdown();
    restored.shutdown();
}
