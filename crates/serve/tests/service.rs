//! End-to-end service test: streaming ingestion with shedding, three
//! scheduled epochs on the simulated clock, snapshot, restore, and
//! metrics/evolution equality between the original and restored service —
//! plus a model hot-swap picked up at the next epoch boundary.

use mobirescue_core::rl_dispatch::FEATURE_DIM;
use mobirescue_core::scenario::{Scenario, ScenarioConfig};
use mobirescue_rl::nn::Mlp;
use mobirescue_roadnet::graph::SegmentId;
use mobirescue_serve::obs::TimeSource as _;
use mobirescue_serve::{
    Clock, DispatchService, EpochScheduler, Event, ModelRegistry, RetryPolicy, ServeConfig,
    ServeError, SimClock, SwapError,
};
use mobirescue_sim::{seal_snapshot, RequestSpec, SimConfig};
use std::sync::Arc;

fn test_scenario() -> Arc<Scenario> {
    Arc::new(ScenarioConfig::small().florence().build(11))
}

fn test_config() -> ServeConfig {
    let mut config = ServeConfig::new(SimConfig::small(6));
    config.num_shards = 2;
    config.request_queue_capacity = 4;
    config
}

fn start_service(
    scenario: &Arc<Scenario>,
    clock: &Arc<SimClock>,
    registry: &Arc<ModelRegistry>,
) -> DispatchService {
    DispatchService::start(
        Arc::clone(scenario),
        test_config(),
        Arc::clone(clock) as Arc<dyn Clock>,
        Arc::clone(registry),
    )
    .expect("service starts")
}

/// Deterministic per-epoch request batch; identical streams are fed to the
/// original and the restored service.
fn requests_for(scenario: &Scenario, shard: usize, epoch: u32, n: u32) -> Vec<RequestSpec> {
    let num_segments = scenario.city.network.num_segments() as u32;
    (0..n)
        .map(|i| RequestSpec {
            appear_s: epoch * 300 + i * 40,
            segment: SegmentId((epoch * 53 + i * 17 + shard as u32 * 29) % num_segments),
        })
        .collect()
}

fn ingest_all(service: &DispatchService, scenario: &Scenario, epoch: u32, n: u32) -> (u32, u32) {
    let mut accepted = 0;
    let mut shed = 0;
    for shard in 0..2 {
        for spec in requests_for(scenario, shard, epoch, n) {
            if service
                .ingest(Event::Request { shard, spec })
                .expect("valid event")
            {
                accepted += 1;
            } else {
                shed += 1;
            }
        }
    }
    (accepted, shed)
}

#[test]
fn ingestion_rejects_malformed_events_and_sheds_overflow() {
    let scenario = test_scenario();
    let clock = Arc::new(SimClock::new());
    let registry = Arc::new(ModelRegistry::new(None, None));
    let service = start_service(&scenario, &clock, &registry);

    // Unknown shard and unknown segment are errors, not queued junk.
    let spec = RequestSpec {
        appear_s: 0,
        segment: SegmentId(0),
    };
    assert!(matches!(
        service.ingest(Event::Request { shard: 9, spec }),
        Err(ServeError::UnknownShard {
            shard: 9,
            num_shards: 2
        })
    ));
    let bad = RequestSpec {
        appear_s: 0,
        segment: SegmentId(u32::MAX),
    };
    assert!(matches!(
        service.ingest(Event::Request {
            shard: 0,
            spec: bad
        }),
        Err(ServeError::World(_))
    ));

    // Capacity is 4 per shard; the fifth and sixth pushes are shed
    // (DropNewest) and counted.
    let (accepted, shed) = ingest_all(&service, &scenario, 0, 6);
    assert_eq!(accepted, 8);
    assert_eq!(shed, 4);
    let m = service.metrics();
    assert_eq!(m.requests_accepted, 8);
    assert_eq!(m.requests_shed, 4);
    assert_eq!(m.shards[0].queue_depth, 4);

    // Advisories: valid ones are applied at the next epoch, invalid ones
    // (out-of-window hour) counted as invalid.
    assert!(service
        .ingest(Event::Weather {
            shard: 0,
            hour: 0,
            rain_mm: 12.0
        })
        .expect("valid advisory"));
    assert!(service
        .ingest(Event::RoadDamage {
            shard: 1,
            segment: SegmentId(3),
            hour: 9_999,
            flooded: true
        })
        .expect("shard in range"));
    service.run_epoch().expect("epoch runs");
    let m = service.metrics();
    assert_eq!(m.advisories_applied, 1);
    assert_eq!(m.advisories_invalid, 1);
    assert_eq!(m.epochs_completed, 1);
}

#[test]
fn retry_exhaustion_accounts_every_offer() {
    let scenario = test_scenario();
    let clock = Arc::new(SimClock::new());
    let registry = Arc::new(ModelRegistry::new(None, None));
    let service = start_service(&scenario, &clock, &registry);

    // Fill shard 0 to capacity (4), then offer one more with retry. No
    // consumer drains between attempts, so every attempt sheds and the
    // offer is eventually given up.
    for spec in requests_for(&scenario, 0, 0, 4) {
        assert!(service.ingest(Event::Request { shard: 0, spec }).unwrap());
    }
    let extra = requests_for(&scenario, 0, 1, 1).remove(0);
    let retry = RetryPolicy::default();
    let t0 = clock.now_ms();
    let admitted = service
        .ingest_with_retry(
            Event::Request {
                shard: 0,
                spec: extra,
            },
            &retry,
        )
        .expect("valid event");
    assert!(!admitted, "a full queue with no drain must exhaust retries");

    let m = service.metrics();
    assert_eq!(m.ingest_retries, u64::from(retry.max_retries));
    // The initial offer plus each retry is a fresh shed: 1 + max_retries.
    assert_eq!(m.requests_shed, 1 + u64::from(retry.max_retries));
    assert_eq!(m.requests_accepted, 4);
    assert_eq!(m.shards[0].queue_depth, 4, "queue untouched by retries");
    // Backoff really waited on the clock: 10 + 20 + 40 ms for 3 retries.
    assert_eq!(clock.now_ms() - t0, 70);

    // Permanent errors are not retried and not counted as retries.
    let bad = RequestSpec {
        appear_s: 0,
        segment: SegmentId(u32::MAX),
    };
    assert!(service
        .ingest_with_retry(
            Event::Request {
                shard: 0,
                spec: bad
            },
            &retry
        )
        .is_err());
    assert_eq!(
        service.metrics().ingest_retries,
        u64::from(retry.max_retries)
    );
}

#[test]
fn route_planner_counters_survive_restore_exactly() {
    let scenario = test_scenario();
    let clock = Arc::new(SimClock::new());
    let registry = Arc::new(ModelRegistry::new(None, None));
    let service = start_service(&scenario, &clock, &registry);

    // Enough dispatch work that every shard's planner both misses (first
    // route to a segment in an epoch) and hits (repeat routes).
    for epoch in 0..3 {
        ingest_all(&service, &scenario, epoch, 3);
        service.run_epoch().expect("epoch runs");
    }
    let before = service.metrics();
    for (i, shard) in before.shards.iter().enumerate() {
        assert!(
            shard.routing_hits + shard.routing_misses > 0,
            "shard {i} planner never consulted; the test would be vacuous"
        );
    }

    let snapshot = service.snapshot().expect("snapshot serializes");
    let restored = DispatchService::restore(
        Arc::clone(&scenario),
        test_config(),
        Arc::clone(&clock) as Arc<dyn Clock>,
        Arc::clone(&registry),
        &snapshot,
    )
    .expect("snapshot restores");
    let after = restored.metrics();
    for (b, a) in before.shards.iter().zip(&after.shards) {
        assert_eq!(b.routing_hits, a.routing_hits, "hit counter drifted");
        assert_eq!(b.routing_misses, a.routing_misses, "miss counter drifted");
    }

    // One epoch later the planner's published cache counters and the
    // metrics view hold the same cumulative totals.
    ingest_all(&restored, &scenario, 3, 3);
    restored.run_epoch().expect("epoch runs after the restore");
    let metrics = restored.metrics();
    let dump = restored.obs_snapshot();
    for (i, shard) in metrics.shards.iter().enumerate() {
        for (kind, total) in [
            ("hits", shard.routing_hits),
            ("misses", shard.routing_misses),
        ] {
            let counter = |name: String| dump.counters[&name];
            assert_eq!(
                counter(format!("routing.shard{i}.cache_{kind}")),
                total,
                "shard {i}: planner cache_{kind} disagrees with the metrics"
            );
        }
    }

    service.shutdown();
    restored.shutdown();
}

#[test]
fn snapshot_restore_preserves_metrics_and_future_evolution() {
    let scenario = test_scenario();
    let clock = Arc::new(SimClock::new());
    let registry = Arc::new(ModelRegistry::new(None, None));
    let service = start_service(&scenario, &clock, &registry);

    // Three scheduled epochs on the simulated clock, with fresh requests
    // ingested between epochs and some left pending in the queues.
    ingest_all(&service, &scenario, 0, 3);
    let mut scheduler = EpochScheduler::for_service(&service).expect("valid period");
    assert_eq!(scheduler.period_ms(), 300_000);
    let mut seen = Vec::new();
    scheduler
        .run(&service, clock.as_ref(), 3, |epoch, reports| {
            seen.push((epoch, reports.to_vec()));
            ingest_all(&service, &scenario, epoch + 1, 3);
        })
        .expect("epochs run");
    assert_eq!(seen.len(), 3);
    assert_eq!(scheduler.overruns(), 0, "sim-clock epochs never overrun");
    // An advisory naming an unknown segment is admitted and only counted
    // invalid when drained, so a snapshot may carry it and must restore.
    service
        .ingest(Event::RoadDamage {
            shard: 0,
            segment: SegmentId(u32::MAX),
            hour: 0,
            flooded: true,
        })
        .expect("advisory segments are validated at drain");

    let snapshot = service.snapshot().expect("snapshot serializes");
    let before = service.metrics();
    assert_eq!(before.epochs_completed, 3);
    assert!(
        before.shards.iter().any(|s| s.queue_depth > 0),
        "queues have pending work"
    );

    let restored = DispatchService::restore(
        Arc::clone(&scenario),
        test_config(),
        Arc::clone(&clock) as Arc<dyn Clock>,
        Arc::clone(&registry),
        &snapshot,
    )
    .expect("snapshot restores");
    assert_eq!(
        restored.metrics(),
        before,
        "restored metrics equal the snapshot point"
    );

    // Both services now receive the identical epoch-4 stream and must
    // evolve identically.
    ingest_all(&service, &scenario, 4, 3);
    ingest_all(&restored, &scenario, 4, 3);
    let r_original = service.run_epoch().expect("original epoch 4");
    let r_restored = restored.run_epoch().expect("restored epoch 4");
    assert_eq!(
        r_original, r_restored,
        "epoch reports diverge after restore"
    );
    assert_eq!(
        service.metrics(),
        restored.metrics(),
        "metrics diverge after restore"
    );

    // A second snapshot of the restored service round-trips byte-stable.
    let again = restored.snapshot().expect("second snapshot");
    let twice = DispatchService::restore(
        Arc::clone(&scenario),
        test_config(),
        Arc::clone(&clock) as Arc<dyn Clock>,
        Arc::clone(&registry),
        &again,
    )
    .expect("second restore");
    assert_eq!(twice.snapshot().expect("third snapshot"), again);

    service.shutdown();
    restored.shutdown();
}

#[test]
fn hot_swap_applies_at_the_next_epoch_without_stopping_ingestion() {
    let scenario = test_scenario();
    let clock = Arc::new(SimClock::new());
    let registry = Arc::new(ModelRegistry::new(None, None));
    let service = start_service(&scenario, &clock, &registry);

    ingest_all(&service, &scenario, 0, 2);
    service.run_epoch().expect("epoch 0");
    assert_eq!(service.metrics().model_version, 1);

    // Install a policy mid-run.
    let mut dims = vec![FEATURE_DIM, 8, 1];
    let version = registry.install(None, Some(Mlp::new(&dims, 99)));
    assert_eq!(version, 2);

    // Ingestion keeps working between the swap and the next epoch.
    ingest_all(&service, &scenario, 1, 2);
    service.run_epoch().expect("epoch 1");
    let m = service.metrics();
    assert_eq!(m.model_version, 2);
    assert_eq!(m.model_swaps, 1);
    assert!(
        m.shards.iter().all(|s| s.model_version == 2),
        "all shards rebuilt"
    );
    assert!(service.last_swap_error().is_none());

    // A wrong-shaped policy is rejected by the shards but never kills the
    // service: it keeps dispatching with the previous bundle.
    dims[0] = FEATURE_DIM + 1;
    registry.install(None, Some(Mlp::new(&dims, 7)));
    ingest_all(&service, &scenario, 2, 2);
    service.run_epoch().expect("epoch 2 still runs");
    let m = service.metrics();
    assert!(
        m.shards.iter().all(|s| s.model_version == 2),
        "shards keep the old bundle"
    );
    let (_, why) = service.last_swap_error().expect("swap failure surfaced");
    match &why {
        SwapError::Build(msg) => {
            assert!(msg.contains("dispatcher needs"), "unexpected reason: {msg}")
        }
        other => panic!("expected a build failure, got {other}"),
    }
}

#[test]
fn garbage_snapshots_are_rejected() {
    let scenario = test_scenario();
    let clock = Arc::new(SimClock::new());
    let registry = Arc::new(ModelRegistry::new(None, None));
    // Every body is correctly sealed, so the checksum passes and the
    // record parser itself must refuse — with the named reason.
    for (body, reason) in [
        ("", "checksum"), // a sealed empty body has no line to carry a trailer
        ("not a snapshot\n", "header"),
        ("mrserve 1\n", "missing `end`"),
        ("mrserve 1\nepochs zero\nend\n", "bad count"),
        ("mrserve 1\nshard 5 0\nend\n", "out of range"),
        ("mrserve 1\nend\n", "every configured shard"),
        ("mrserve 1\nwhatever 1 2\nend\n", "unknown record"),
        (
            "mrserve 1\nepochs 1 0\nepochs 2 0\nend\n",
            "duplicate `epochs`",
        ),
        (
            "mrserve 1\nresil 0 0 1\nend\n",
            "partial swap-cause counters",
        ),
        ("mrserve 1\nrqueue 2 0 0\nend\n", "out of range"),
        ("mrserve 1\nadv x 0 1 1.5\nend\n", "unknown advisory kind"),
    ] {
        let text = seal_snapshot(body.to_owned());
        let err = DispatchService::restore(
            Arc::clone(&scenario),
            test_config(),
            Arc::clone(&clock) as Arc<dyn Clock>,
            Arc::clone(&registry),
            &text,
        );
        assert!(
            matches!(&err, Err(ServeError::BadSnapshot(why)) if why.contains(reason)),
            "snapshot {body:?} should be rejected for {reason:?}, got {:?}",
            err.map(|_| ())
        );
    }
}
