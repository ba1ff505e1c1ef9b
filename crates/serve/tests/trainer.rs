//! Integration tests for the online training loop: pinned-seed
//! determinism of the candidate checkpoints, trainer state surviving the
//! `mrserve 1` snapshot round-trip, and a self-trained candidate passing
//! the full admission → shadow → canary → watch pipeline.

use mobirescue_core::scenario::ScenarioConfig;
use mobirescue_roadnet::graph::SegmentId;
use mobirescue_serve::obs::TimeSource as _;
use mobirescue_serve::{
    Clock, DispatchService, Event, ModelRegistry, RolloutConfig, ServeConfig, SimClock,
    TrainerConfig,
};
use mobirescue_sim::{RequestSpec, SimConfig};
use std::sync::Arc;

const SEED: u64 = 47;

fn trainer_config(seed: u64, candidate_every: u32) -> TrainerConfig {
    TrainerConfig {
        min_replay: 8,
        batch_size: 4,
        steps_per_epoch: 2,
        candidate_every,
        hidden: vec![8],
        seed,
        ..TrainerConfig::default()
    }
}

fn config(seed: u64, candidate_every: u32) -> ServeConfig {
    let mut config = ServeConfig::new(SimConfig::small(6));
    config.num_shards = 2;
    config.request_queue_capacity = 8;
    // Wide-open slacks: these tests exercise the loop's plumbing and
    // determinism; gate strictness is pinned by the chaos suites.
    config.rollout = RolloutConfig {
        shadow_epochs: 2,
        shadow_slack: 1e9,
        canary_epochs: 2,
        canary_shards: 1,
        canary_slack: 1e9,
        watch_epochs: 2,
        watch_slack: 1e9,
        ..RolloutConfig::default()
    };
    config.trainer = Some(trainer_config(seed, candidate_every));
    config
}

/// Runs `epochs` epochs of `service`, calling `at_boundary(e)` after epoch
/// `e` and then sleeping `clock` to that epoch's fixed deadline,
/// `start + (e+1)·period`.
fn drive(
    service: &DispatchService,
    clock: &SimClock,
    epochs: u32,
    mut at_boundary: impl FnMut(u32),
) {
    let period_ms = u64::from(service.config().sim.dispatch_period_s) * 1_000;
    let start = clock.now_ms();
    for e in 0..epochs {
        service.run_epoch().expect("epoch runs");
        at_boundary(e);
        let deadline = start + u64::from(e + 1) * period_ms;
        clock.sleep_ms(deadline.saturating_sub(clock.now_ms()));
    }
}

/// Drives `epochs` epochs with a deterministic request stream and returns
/// the service for inspection.
fn run_service(seed: u64, candidate_every: u32, epochs: u32) -> DispatchService {
    let scenario = Arc::new(ScenarioConfig::small().florence().build(11));
    let num_segments = scenario.city.network.num_segments() as u32;
    let clock: Arc<SimClock> = Arc::new(SimClock::new());
    let registry = Arc::new(ModelRegistry::new(None, None));
    let service = DispatchService::start(
        Arc::clone(&scenario),
        config(seed, candidate_every),
        Arc::clone(&clock) as Arc<dyn Clock>,
        registry,
    )
    .expect("service starts");
    let ingest = |epoch: u32| {
        for shard in 0..2usize {
            for i in 0..4u32 {
                let spec = RequestSpec {
                    appear_s: epoch * 300 + (i * 37) % 300,
                    segment: SegmentId((epoch * 53 + i * 17 + shard as u32 * 29) % num_segments),
                };
                let _ = service.ingest(Event::Request { shard, spec });
            }
        }
    };
    ingest(0);
    drive(&service, &clock, epochs, |e| {
        if e + 1 < epochs {
            ingest(e + 1);
        }
    });
    service
}

#[test]
fn same_seed_and_stream_yield_byte_identical_candidates() {
    let a = run_service(SEED, 0, 10);
    let b = run_service(SEED, 0, 10);
    let ca = a.trainer_policy_text().expect("trainer configured");
    let cb = b.trainer_policy_text().expect("trainer configured");
    assert_eq!(
        ca, cb,
        "two SimClock runs with the same seed and transition stream must \
         produce byte-identical trainer checkpoints"
    );
    let sa = a.trainer_status().expect("trainer configured");
    let sb = b.trainer_status().expect("trainer configured");
    assert_eq!(sa, sb, "trainer counters must match too");
    assert!(sa.steps > 0, "the trainer must actually have learned");

    let c = run_service(SEED ^ 0xdead, 0, 10);
    let cc = c.trainer_policy_text().expect("trainer configured");
    assert_ne!(
        ca, cc,
        "a different trainer seed must produce a different checkpoint"
    );
    a.shutdown();
    b.shutdown();
    c.shutdown();
}

#[test]
fn trainer_candidate_passes_the_full_rollout_pipeline() {
    // candidate_every 4 over 14 epochs: the first candidate submits at
    // epoch 4 and has 6 epochs of shadow+canary+watch to promote before
    // the next submissions retry.
    let service = run_service(SEED, 4, 14);
    let obs = service.obs();
    let submitted = obs.counter("train.candidates_submitted").value();
    let admitted = obs.counter("train.candidates_admitted").value();
    assert!(
        submitted >= 2,
        "the cadence must have emitted candidates (got {submitted})"
    );
    assert!(
        admitted >= 1,
        "at least one self-trained candidate must pass the admission probe"
    );
    let m = service.metrics();
    assert!(
        m.model_version >= 2 && m.model_swaps >= 1,
        "a trained candidate must have cleared shadow, canary and watch \
         to promote fleet-wide (version {}, swaps {})",
        m.model_version,
        m.model_swaps
    );
    service.shutdown();
}

#[test]
fn trainer_state_survives_snapshot_restore_and_resumes_bit_identically() {
    // A service runs 6 epochs and snapshots; the restored service must
    // come back with the trainer's exact pre-snapshot state (replay
    // buffer, optimizer moments, counters, cadence), and two restores
    // from the same snapshot driven over the same stream must finish
    // byte-identical. (The *dispatchers'* in-flight prev-round pairs are
    // rebuilt on restore — the same semantic as a hot-swap — so a
    // restored run is compared against its restored twin, not against a
    // never-snapshotted one.) Candidate emission stays off so the
    // comparison is purely about trainer state.
    let scenario = Arc::new(ScenarioConfig::small().florence().build(11));
    let num_segments = scenario.city.network.num_segments() as u32;
    let ingest = |service: &DispatchService, epoch: u32| {
        for shard in 0..2usize {
            for i in 0..4u32 {
                let spec = RequestSpec {
                    appear_s: epoch * 300 + (i * 37) % 300,
                    segment: SegmentId((epoch * 53 + i * 17 + shard as u32 * 29) % num_segments),
                };
                let _ = service.ingest(Event::Request { shard, spec });
            }
        }
    };
    let drive_from = |service: &DispatchService, clock: &SimClock, from: u32, to: u32| {
        drive(service, clock, to - from, |i| {
            if from + i + 1 < to {
                ingest(service, from + i + 1);
            }
        });
    };

    let clock: Arc<SimClock> = Arc::new(SimClock::new());
    let origin = DispatchService::start(
        Arc::clone(&scenario),
        config(SEED, 0),
        Arc::clone(&clock) as Arc<dyn Clock>,
        Arc::new(ModelRegistry::new(None, None)),
    )
    .expect("service starts");
    ingest(&origin, 0);
    drive_from(&origin, &clock, 0, 6);
    ingest(&origin, 6);
    let status_before = origin.trainer_status().expect("trainer configured");
    let policy_before = origin.trainer_policy_text().expect("trainer configured");
    assert!(
        status_before.steps > 0,
        "the trainer learned before the snapshot"
    );
    let snapshot = origin.snapshot().expect("snapshot serializes");
    origin.shutdown();

    let restore = || {
        let clock: Arc<SimClock> = Arc::new(SimClock::new());
        let service = DispatchService::restore(
            Arc::clone(&scenario),
            config(SEED, 0),
            Arc::clone(&clock) as Arc<dyn Clock>,
            Arc::new(ModelRegistry::new(None, None)),
            &snapshot,
        )
        .expect("snapshot restores");
        (service, clock)
    };

    let (b1, clock_b1) = restore();
    assert_eq!(
        b1.trainer_status().expect("trainer configured"),
        status_before,
        "trainer counters must survive the snapshot/restore cycle"
    );
    assert_eq!(
        b1.trainer_policy_text().expect("trainer configured"),
        policy_before,
        "the trainer's online network must survive byte-exactly"
    );
    // The `train.*` counters resume from the snapshot too, so the metrics
    // dump agrees with `trainer_status()`.
    let counter = |name: &str| b1.obs().counter(name).value();
    assert_eq!(
        [
            counter("train.steps"),
            counter("train.transitions_offered"),
            counter("train.transitions_accepted"),
            counter("train.transitions_shed"),
        ],
        [
            status_before.steps,
            status_before.offered,
            status_before.accepted,
            status_before.shed,
        ],
        "train.* counters must resume from the restored trainer state"
    );

    let (b2, clock_b2) = restore();
    drive_from(&b1, &clock_b1, 6, 12);
    drive_from(&b2, &clock_b2, 6, 12);
    assert_eq!(
        b1.trainer_status().expect("trainer configured"),
        b2.trainer_status().expect("trainer configured"),
        "restored twins must resume in lockstep"
    );
    assert_eq!(
        b1.trainer_policy_text().expect("trainer configured"),
        b2.trainer_policy_text().expect("trainer configured"),
        "restored twins must resume bit-identically"
    );
    assert_eq!(
        b1.snapshot().expect("snapshot"),
        b2.snapshot().expect("snapshot")
    );
    b1.shutdown();
    b2.shutdown();
}
