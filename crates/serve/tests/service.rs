//! End-to-end service test: streaming ingestion with shedding and
//! retry, three paced epochs on the simulated clock, snapshot, restore,
//! and metrics/evolution equality between the original and restored
//! service — plus the refusal of a model bundle no dispatcher can serve
//! and the fallback plan a stalled epoch is served with.

use mobirescue_core::rl_dispatch::FEATURE_DIM;
use mobirescue_core::scenario::{Scenario, ScenarioConfig};
use mobirescue_rl::nn::Mlp;
use mobirescue_roadnet::graph::SegmentId;
use mobirescue_serve::chaos::chaos_scenario;
use mobirescue_serve::obs::TimeSource;
use mobirescue_serve::{
    Clock, DispatchService, Event, FaultInjector, FaultPlan, ModelBundle, RetryPolicy, ServeConfig,
    ServeError, SimClock, WalConfig,
};
use mobirescue_sim::{seal_snapshot, NearestRequestDispatcher, RequestSpec, SimConfig, World};
use std::sync::{Arc, OnceLock, Weak};

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
    bundle: &Arc<ModelBundle>,
) -> DispatchService {
    DispatchService::start(
        Arc::clone(scenario),
        test_config(),
        Arc::clone(clock) as Arc<dyn Clock>,
        Arc::clone(bundle),
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
    let bundle = Arc::new(ModelBundle::default());
    let service = start_service(&scenario, &clock, &bundle);

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
    let bundle = Arc::new(ModelBundle::default());
    let service = start_service(&scenario, &clock, &bundle);

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

/// A simulated clock whose every sleep also runs one epoch of the service
/// it is attached to, so a retry's backoff reaches an epoch boundary and
/// the drained queue has room for the re-offer.
#[derive(Default)]
struct EpochOnSleep {
    time: SimClock,
    service: OnceLock<Weak<DispatchService>>,
}

impl TimeSource for EpochOnSleep {
    fn now_ms(&self) -> u64 {
        self.time.now_ms()
    }
}

impl Clock for EpochOnSleep {
    fn sleep_ms(&self, ms: u64) {
        self.time.sleep_ms(ms);
        if let Some(service) = self.service.get().and_then(Weak::upgrade) {
            service.run_epoch().expect("epoch runs during the backoff");
        }
    }
}

#[test]
fn a_shed_offer_is_admitted_on_its_first_retry() {
    let scenario = test_scenario();
    let dir = std::env::temp_dir().join(format!("mobirescue-retry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = test_config();
    config.wal = Some(WalConfig::new(&dir));
    let clock = Arc::new(EpochOnSleep::default());
    let service = Arc::new(
        DispatchService::start(
            Arc::clone(&scenario),
            config,
            Arc::clone(&clock) as Arc<dyn Clock>,
            Arc::new(ModelBundle::default()),
        )
        .expect("service starts"),
    );
    clock
        .service
        .set(Arc::downgrade(&service))
        .expect("clock attached once");

    // Fill shard 0 to capacity (4); the next offer is shed, the backoff
    // runs an epoch that drains the queue, and the first retry is
    // admitted.
    for spec in requests_for(&scenario, 0, 0, 4) {
        assert!(service.ingest(Event::Request { shard: 0, spec }).unwrap());
    }
    let extra = requests_for(&scenario, 0, 1, 1).remove(0);
    let admitted = service
        .ingest_with_retry(
            Event::Request {
                shard: 0,
                spec: extra,
            },
            &RetryPolicy::default(),
        )
        .expect("valid event");
    assert!(admitted, "the retry after a drain must be admitted");

    let m = service.metrics();
    assert_eq!(m.ingest_retries, 1);
    assert_eq!(m.requests_shed, 1);
    assert_eq!(m.requests_accepted, 5);
    assert_eq!(m.epochs_completed, 1);
    assert_eq!(m.shards[0].queue_depth, 1, "only the retried offer waits");
    // The shed attempt left no journal record; the admitted one did.
    assert_eq!(service.wal_last_seq(), m.requests_accepted);

    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn route_planner_counters_survive_restore_exactly() {
    let scenario = test_scenario();
    let clock = Arc::new(SimClock::new());
    let bundle = Arc::new(ModelBundle::default());
    let service = start_service(&scenario, &clock, &bundle);

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
        Arc::clone(&bundle),
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
    let bundle = Arc::new(ModelBundle::default());
    let service = start_service(&scenario, &clock, &bundle);

    // Three epochs paced on the simulated clock, with fresh requests
    // ingested between epochs and some left pending in the queues.
    ingest_all(&service, &scenario, 0, 3);
    let period_ms = u64::from(service.config().sim.dispatch_period_s) * 1_000;
    assert_eq!(period_ms, 300_000);
    let start = clock.now_ms();
    for epoch in 0..3 {
        service.run_epoch().expect("epoch runs");
        ingest_all(&service, &scenario, epoch + 1, 3);
        let deadline = start + u64::from(epoch + 1) * period_ms;
        assert!(clock.now_ms() <= deadline, "sim-clock epochs never overrun");
        clock.sleep_ms(deadline - clock.now_ms());
    }
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
        Arc::clone(&bundle),
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
        Arc::clone(&bundle),
        &again,
    )
    .expect("second restore");
    assert_eq!(twice.snapshot().expect("third snapshot"), again);

    service.shutdown();
    restored.shutdown();
}

#[test]
fn a_misshapen_policy_is_refused_at_start_and_restore() {
    let scenario = test_scenario();
    let clock = Arc::new(SimClock::new());
    let service = start_service(&scenario, &clock, &Arc::new(ModelBundle::default()));
    ingest_all(&service, &scenario, 0, 2);
    service.run_epoch().expect("epoch 0");
    let snapshot = service.snapshot().expect("snapshot serializes");
    service.shutdown();

    // A policy scoring one feature too many cannot rank the dispatcher's
    // candidates: the service refuses it before any shard spawns.
    let bundle = Arc::new(ModelBundle {
        predictor: None,
        policy: Some(Mlp::new(&[FEATURE_DIM + 1, 8, 1], 7)),
    });
    let refused = |result: Result<DispatchService, ServeError>| match result {
        Err(e @ ServeError::PolicyShape { .. }) => {
            assert_eq!(
                e,
                ServeError::PolicyShape {
                    inputs: FEATURE_DIM + 1,
                    outputs: 1
                }
            );
            let why = e.to_string();
            assert!(
                why.contains(&format!("{}→1", FEATURE_DIM + 1))
                    && why.contains(&format!("needs {FEATURE_DIM}→1")),
                "the error names both shapes: {why}"
            );
        }
        Err(e) => panic!("refused for the wrong reason: {e}"),
        Ok(service) => {
            service.shutdown();
            panic!("a {}→1 policy was served", FEATURE_DIM + 1);
        }
    };
    refused(DispatchService::start(
        Arc::clone(&scenario),
        test_config(),
        Arc::clone(&clock) as Arc<dyn Clock>,
        Arc::clone(&bundle),
    ));
    refused(DispatchService::restore(
        Arc::clone(&scenario),
        test_config(),
        Arc::clone(&clock) as Arc<dyn Clock>,
        bundle,
        &snapshot,
    ));
}

/// Runs epoch 0 of a one-shard service with a 10 ms dispatch deadline on
/// `requests`, stalling the shard's dispatcher for `stall_ms`, and returns
/// the world in shard 0's snapshot block (its `shardstate` line dropped)
/// with the epoch's degraded count.
fn first_epoch_world(
    scenario: &Arc<Scenario>,
    requests: &[RequestSpec],
    stall_ms: Option<u64>,
) -> (String, u64) {
    let mut config = ServeConfig::new(SimConfig::small(6));
    config.epoch_deadline_ms = Some(10);
    config.faults =
        stall_ms.map(|ms| Arc::new(FaultInjector::new(FaultPlan::empty().with_stall(0, 0, ms))));
    let service = DispatchService::start(
        Arc::clone(scenario),
        config,
        Arc::new(SimClock::new()),
        Arc::new(ModelBundle::default()),
    )
    .expect("service starts");
    for &spec in requests {
        let event = Event::Request { shard: 0, spec };
        assert!(
            service.ingest(event).expect("valid event"),
            "queue has room"
        );
    }
    service.run_epoch().expect("epoch 0");
    let degraded = service.metrics().degraded_epochs;
    let snapshot = service.snapshot().expect("snapshot serializes");
    service.shutdown();
    let mut lines = snapshot.lines().skip_while(|l| !l.starts_with("shard 0 "));
    let count: usize = lines.next().expect("a shard 0 block")["shard 0 ".len()..]
        .parse()
        .expect("the block header counts its lines");
    let block: Vec<&str> = lines.take(count).collect();
    assert!(block[0].starts_with("shardstate "), "{}", block[0]);
    let world = block[1..].iter().map(|l| format!("{l}\n")).collect();
    (world, degraded)
}

#[test]
fn a_stalled_epoch_serves_the_fallback_plan() {
    let scenario = Arc::new(chaos_scenario());
    let requests = requests_for(&scenario, 0, 0, 6);
    // The reference: the same requests and one epoch of the fallback
    // heuristic alone at zero extra latency. Its 0.1 s modelled latency
    // and the primary's 0.4 s both round up to one 1 s step, so only the
    // plan can tell the worlds apart.
    let mut world = World::new(&scenario.city, &scenario.conditions, &SimConfig::small(6))
        .expect("world builds");
    for &spec in &requests {
        world.inject_request(spec).expect("segment exists");
    }
    world.run_epoch(&mut NearestRequestDispatcher::default(), 0.0);
    let fallback = world.snapshot_text();

    // A 50 ms stall overshoots the 10 ms deadline: the late primary plan
    // is discarded and the fallback's plan is served.
    let (stalled, degraded) = first_epoch_world(&scenario, &requests, Some(50));
    assert_eq!(degraded, 1, "the stalled epoch counts as degraded");
    assert_eq!(
        stalled, fallback,
        "the stalled epoch runs the fallback's plan"
    );

    // Without the stall the primary's own plan is served, and it differs.
    let (on_time, degraded) = first_epoch_world(&scenario, &requests, None);
    assert_eq!(degraded, 0);
    assert_ne!(
        on_time, fallback,
        "the primary's plan differs from the fallback's"
    );
}

#[test]
fn garbage_snapshots_are_rejected() {
    let scenario = test_scenario();
    let clock = Arc::new(SimClock::new());
    let bundle = Arc::new(ModelBundle::default());
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
            Arc::clone(&bundle),
            &text,
        );
        assert!(
            matches!(&err, Err(ServeError::BadSnapshot(why)) if why.contains(reason)),
            "snapshot {body:?} should be rejected for {reason:?}, got {:?}",
            err.map(|_| ())
        );
    }
}
