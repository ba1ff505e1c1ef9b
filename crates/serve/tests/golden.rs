//! Golden-file tests pinning the `mrserve 1` snapshot text format.
//!
//! The checked-in fixtures are byte-exact snapshots of small
//! deterministic service runs: `mrserve_v1.txt` with no rollout in
//! flight, and `mrserve_v1_rollout_{shadow,canary,watch}.txt` with a
//! guarded rollout stopped in each stage (the `rrew`, `rollout` and
//! `rtext` records). Any change to the wire format — a new record, a
//! reordered field, a float formatting change — shows up as an explicit
//! diff against a fixture instead of a silent break for operators holding
//! older snapshots on disk.
//!
//! To bless an *intentional* format change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p mobirescue-serve --test golden
//! ```
//!
//! and commit the updated fixture together with the format change and a
//! version-number bump rationale.

use mobirescue_core::rl_dispatch::FEATURE_DIM;
use mobirescue_core::scenario::{Scenario, ScenarioConfig};
use mobirescue_rl::nn::Mlp;
use mobirescue_rl::persist::mlp_to_text;
use mobirescue_roadnet::graph::SegmentId;
use mobirescue_serve::chaos::chaos_scenario;
use mobirescue_serve::{
    Clock, DispatchService, Event, ModelRegistry, RolloutConfig, RolloutStage, ServeConfig,
    ServeError, SimClock, TrainerConfig,
};
use mobirescue_sim::{open_snapshot, seal_snapshot, RequestSpec, SimConfig};
use std::ops::Range;
use std::sync::Arc;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/mrserve_v1.txt");

/// The trainer the fixture run enables, so the snapshot pins the
/// `tstate` record: small and deterministic, with candidate emission off
/// (a rollout in flight is pinned by the rollout fixtures below).
fn golden_trainer() -> TrainerConfig {
    TrainerConfig {
        min_replay: 4,
        batch_size: 2,
        steps_per_epoch: 1,
        candidate_every: 0,
        hidden: vec![4],
        seed: 11,
        ..TrainerConfig::default()
    }
}

/// The fixed run the fixture pins: 2 shards, queue capacity 4, two epochs
/// with three requests per shard per epoch, one weather advisory, one
/// road-damage advisory, one request left delayed in the queue, and the
/// online trainer ticking (its replay buffer, optimizer state and
/// counters land in the `tstate` record).
fn golden_snapshot() -> String {
    let scenario = Arc::new(ScenarioConfig::small().florence().build(11));
    let mut config = ServeConfig::new(SimConfig::small(6));
    config.num_shards = 2;
    config.request_queue_capacity = 4;
    config.trainer = Some(golden_trainer());
    let clock = Arc::new(SimClock::new());
    let registry = Arc::new(ModelRegistry::new(None, None));
    let service = DispatchService::start(
        Arc::clone(&scenario),
        config,
        clock as Arc<dyn Clock>,
        registry,
    )
    .expect("service starts");

    let num_segments = scenario.city.network.num_segments() as u32;
    for epoch in 0..2u32 {
        for shard in 0..2usize {
            for i in 0..3u32 {
                let spec = RequestSpec {
                    appear_s: epoch * 300 + i * 40,
                    segment: SegmentId((epoch * 53 + i * 17 + shard as u32 * 29) % num_segments),
                };
                service
                    .ingest(Event::Request { shard, spec })
                    .expect("valid request");
            }
        }
        service
            .ingest(Event::Weather {
                shard: 0,
                hour: epoch,
                rain_mm: 8.0,
            })
            .expect("valid advisory");
        service
            .ingest(Event::RoadDamage {
                shard: 1,
                segment: SegmentId(3),
                hour: epoch + 1,
                flooded: true,
            })
            .expect("valid advisory");
        service.run_epoch().expect("epoch runs");
    }
    // Leave work pending in the queues so the fixture covers queued-event
    // records too.
    let spec = RequestSpec {
        appear_s: 700,
        segment: SegmentId(5),
    };
    service
        .ingest(Event::Request { shard: 1, spec })
        .expect("valid request");

    let snapshot = service.snapshot().expect("snapshot serializes");
    service.shutdown();
    snapshot
}

#[test]
fn mrserve_v1_format_matches_golden_fixture() {
    assert_matches_fixture(&golden_snapshot(), GOLDEN_PATH);
}

/// Compares a generated snapshot against the fixture at `path` byte for
/// byte (or, under `UPDATE_GOLDEN`, writes it there) and returns the
/// fixture text.
fn assert_matches_fixture(generated: &str, path: &str) -> String {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, generated).expect("fixture written");
        return generated.to_owned();
    }
    let golden = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{path}: {e}; run with UPDATE_GOLDEN=1 to create it"));
    if generated != golden {
        let mismatch = generated
            .lines()
            .zip(golden.lines())
            .enumerate()
            .find(|(_, (g, f))| g != f);
        let context = match mismatch {
            Some((i, (g, f))) => {
                format!(
                    "first difference at line {}:\n  generated: {g}\n  fixture:   {f}",
                    i + 1
                )
            }
            None => format!(
                "one snapshot is a prefix of the other ({} vs {} bytes)",
                generated.len(),
                golden.len()
            ),
        };
        panic!(
            "`mrserve 1` snapshot format drifted from the golden fixture {path}.\n{context}\n\
             If the change is intentional, bless it with:\n  \
             UPDATE_GOLDEN=1 cargo test -p mobirescue-serve --test golden\n\
             and explain the format change in the commit."
        );
    }
    golden
}

/// A hand-weighted single-layer policy that chases live requests and
/// remaining demand, penalises distance, and never stands a team down
/// (the competent policy of `tests/rollout.rs`).
fn competent_net(seed: u64) -> Mlp {
    let mut net = Mlp::new(&[FEATURE_DIM, 1], seed);
    let base = [-2.0, 1.0, 3.0, 0.0, 0.0, -1_000.0, 0.0];
    net.visit_params_mut(|i, w, _| {
        *w = base[i] + 0.05 * *w;
    });
    net
}

/// The rollout run's configuration: 2 shards, 3 shadow epochs, 2 canary
/// epochs on shard 0, a 2-epoch watch window. The canary slack covers the
/// two shards' different request streams (canary 19.7 vs control 34.8),
/// so the candidate reaches the watch stage.
fn rollout_config() -> ServeConfig {
    let mut config = ServeConfig::new(SimConfig::small(6));
    config.num_shards = 2;
    config.request_queue_capacity = 8;
    config.rollout = RolloutConfig {
        shadow_epochs: 3,
        canary_epochs: 2,
        canary_shards: 1,
        canary_slack: 20.0,
        watch_epochs: 2,
        ..RolloutConfig::default()
    };
    config
}

/// Ingests three deterministic requests per shard and runs each epoch in
/// `epochs`.
fn drive_rollout(service: &DispatchService, scenario: &Scenario, epochs: Range<u32>) {
    let segments = scenario.city.network.num_segments() as u32;
    for epoch in epochs {
        for shard in 0..2usize {
            for i in 0..3u32 {
                let spec = RequestSpec {
                    appear_s: epoch * 300 + (i * 37) % 300,
                    segment: SegmentId((epoch * 53 + i * 17 + shard as u32 * 29) % segments),
                };
                service
                    .ingest(Event::Request { shard, spec })
                    .expect("valid request");
            }
        }
        service.run_epoch().expect("epoch runs");
    }
}

/// Epochs the rollout run drives; the candidate is submitted after epoch
/// 0 and the pipeline resolves before the last one.
const ROLLOUT_EPOCHS: u32 = 9;

/// Where the rollout run is snapshotted: after the named epoch, one epoch
/// into each stage, so every stage's accumulators are non-zero.
const ROLLOUT_SNAPSHOTS: [(RolloutStage, u32); 3] = [
    (RolloutStage::Shadow, 1),
    (RolloutStage::Canary, 4),
    (RolloutStage::Watch, 6),
];

fn rollout_fixture(stage: RolloutStage) -> String {
    format!(
        "{}/tests/golden/mrserve_v1_rollout_{stage}.txt",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// The `in_flight_rollout_survives_snapshot_and_restore` run (chaos
/// scenario, `SimClock`, competent incumbent v1 and candidate v2),
/// snapshotted once in each of the shadow, canary and watch stages. Each
/// snapshot must equal its fixture byte for byte; each fixture must
/// restore to the same rollout status and then finish at the same final
/// snapshot as the uninterrupted run.
#[test]
fn in_flight_rollout_records_match_golden_fixtures() {
    let scenario = Arc::new(chaos_scenario());
    let incumbent = || Arc::new(ModelRegistry::new(None, Some(competent_net(6))));
    let candidate = mlp_to_text(&competent_net(7));
    let service = DispatchService::start(
        Arc::clone(&scenario),
        rollout_config(),
        Arc::new(SimClock::new()) as Arc<dyn Clock>,
        incumbent(),
    )
    .expect("service starts");
    drive_rollout(&service, &scenario, 0..1);
    service
        .submit_rollout(None, Some(&candidate))
        .expect("admitted");
    let mut stops = Vec::new();
    let mut next = 1;
    for (stage, epoch) in ROLLOUT_SNAPSHOTS {
        drive_rollout(&service, &scenario, next..epoch + 1);
        next = epoch + 1;
        let status = service.rollout_status().expect("rollout in flight");
        assert_eq!((status.stage, status.epochs_done), (stage, 1));
        let snapshot = service.snapshot().expect("snapshot serializes");
        stops.push((status, epoch, snapshot));
    }
    drive_rollout(&service, &scenario, next..ROLLOUT_EPOCHS);
    assert!(service.rollout_status().is_none(), "pipeline completed");
    assert_eq!(service.metrics().model_version, 2, "candidate promoted");
    let finished = service.snapshot().expect("final snapshot");
    service.shutdown();

    for (status, epoch, snapshot) in stops {
        let golden = assert_matches_fixture(&snapshot, &rollout_fixture(status.stage));
        // A restore takes the registry the caller holds: after promotion
        // (the watch stage) that is the one the candidate was installed in.
        let registry = incumbent();
        if status.stage == RolloutStage::Watch {
            registry.install(None, Some(competent_net(7)));
        }
        let restored = DispatchService::restore(
            Arc::clone(&scenario),
            rollout_config(),
            Arc::new(SimClock::new()) as Arc<dyn Clock>,
            registry,
            &golden,
        )
        .expect("fixture restores");
        assert_eq!(restored.rollout_status(), Some(status));
        drive_rollout(&restored, &scenario, epoch + 1..ROLLOUT_EPOCHS);
        assert!(
            restored.snapshot().expect("final snapshot") == finished,
            "{} fixture: the restored run diverged from the uninterrupted one",
            status.stage
        );
        restored.shutdown();
    }
}

/// Snapshots written before the guarded-rollout work carry a two-field
/// `resil` record and no `rrew`/`rollout`/`rtext` lines. Operators holding
/// one of those on disk must still restore cleanly, with rollout state
/// defaulting to "nothing in flight".
#[test]
fn pre_rollout_snapshot_still_restores() {
    let frozen = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/mrserve_v1_pre_rollout.txt"
    ))
    .expect("frozen pre-rollout fixture is checked in");
    assert!(
        frozen.contains("resil 0 0\n") && !frozen.contains("rollout"),
        "fixture must stay in the pre-rollout format; never re-bless it"
    );
    let scenario = Arc::new(ScenarioConfig::small().florence().build(11));
    let mut config = ServeConfig::new(SimConfig::small(6));
    config.num_shards = 2;
    config.request_queue_capacity = 4;
    let restored = DispatchService::restore(
        scenario,
        config,
        Arc::new(SimClock::new()) as Arc<dyn Clock>,
        Arc::new(ModelRegistry::new(None, None)),
        &frozen,
    )
    .expect("legacy snapshots restore");
    let m = restored.metrics();
    assert_eq!(m.epochs_completed, 2);
    assert_eq!(m.requests_accepted, 13);
    assert!(restored.rollout_status().is_none(), "no rollout in flight");
    restored.shutdown();
}

/// Snapshots written before the durable ingest journal carry a one-field
/// `epochs` record — no journal high-water mark. Operators holding one
/// of those on disk must still restore cleanly, with the absent mark
/// meaning "replay nothing": everything the snapshot holds predates the
/// journal, so the journal contributes nothing.
#[test]
fn pre_wal_snapshot_still_restores() {
    let frozen = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/mrserve_v1_pre_wal.txt"
    ))
    .expect("frozen pre-wal fixture is checked in");
    assert!(
        frozen.contains("\nepochs 2\n"),
        "fixture must stay in the pre-wal one-field epochs format; never re-bless it"
    );
    let scenario = Arc::new(ScenarioConfig::small().florence().build(11));
    let mut config = ServeConfig::new(SimConfig::small(6));
    config.num_shards = 2;
    config.request_queue_capacity = 4;
    config.trainer = Some(golden_trainer());
    let restored = DispatchService::restore(
        scenario,
        config,
        Arc::new(SimClock::new()) as Arc<dyn Clock>,
        Arc::new(ModelRegistry::new(None, None)),
        &frozen,
    )
    .expect("legacy snapshots restore");
    let m = restored.metrics();
    assert_eq!(m.epochs_completed, 2);
    assert_eq!(m.requests_accepted, 13);
    assert_eq!(restored.wal_last_seq(), 0, "no journal was ever attached");
    restored.shutdown();
}

#[test]
fn golden_fixture_still_restores() {
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("tests/golden/mrserve_v1.txt exists; run with UPDATE_GOLDEN=1 to create it");
    let scenario = Arc::new(ScenarioConfig::small().florence().build(11));
    let mut config = ServeConfig::new(SimConfig::small(6));
    config.num_shards = 2;
    config.request_queue_capacity = 4;
    config.trainer = Some(golden_trainer());
    let restored = DispatchService::restore(
        scenario,
        config,
        Arc::new(SimClock::new()) as Arc<dyn Clock>,
        Arc::new(ModelRegistry::new(None, None)),
        &golden,
    )
    .expect("the pinned format restores");
    let m = restored.metrics();
    assert_eq!(m.epochs_completed, 2);
    assert_eq!(m.requests_accepted, 13);
    let status = restored
        .trainer_status()
        .expect("the tstate record restores the trainer");
    assert_eq!(status.epochs, 2, "trainer cadence survives the round-trip");
    restored.shutdown();
}

/// Rewrites one line, given its whitespace-separated fields.
type LineEdit = fn(Vec<&str>) -> String;

/// The fixture with the line `offset` lines below its `tstate` header
/// rewritten by `edit` (the block keeps its line count), resealed: the
/// FNV-1a seal catches damage, not an edited body, so only the trainer
/// state's own checks stand between this text and the trainer.
fn with_tstate_edit(golden: &str, offset: usize, edit: LineEdit) -> String {
    let body = open_snapshot(golden).expect("the fixture is sealed");
    let mut lines: Vec<String> = body.lines().map(str::to_owned).collect();
    let header = lines.iter().position(|l| l.starts_with("tstate "));
    let at = header.expect("the fixture carries a tstate block") + offset;
    let edited = edit(lines[at].split_whitespace().collect());
    lines[at] = edited;
    seal_snapshot(lines.join("\n") + "\n")
}

/// A sealed snapshot whose trainer state the online network cannot step
/// is refused at restore with a `BadSnapshot` naming the trainer state.
/// Before the checks, the first two edits panicked inside `restore`
/// (an unchecked `2 * n`; a `Vec` sized from the count) and the others
/// restored cleanly and panicked at a later step, target sync or sample.
#[test]
fn unsteppable_trainer_state_is_refused_at_restore() {
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("the fixture is checked in");
    const HUGE: &str = "18446744073709551615";
    // Offsets below the `tstate` header: 2 is the optimizer, 5 the target
    // net's header, 8 the first replay transition.
    let cases: [(&str, usize, LineEdit); 5] = [
        ("adam moment count overflows", 2, |mut f| {
            f[6] = HUGE;
            f.join(" ")
        }),
        ("replay feature count overflows", 8, |mut f| {
            f[1] = HUGE;
            f.join(" ")
        }),
        ("adam cut to 32 of the net's 33 moments", 2, |f| {
            let (m, v) = f[7..].split_at(33);
            let mut cut = f[..6].to_vec();
            cut.push("32");
            cut.extend_from_slice(&m[..32]);
            cut.extend_from_slice(&v[..32]);
            cut.join(" ")
        }),
        ("target net reshaped to 32→1", 5, |_| {
            "mlp 32 1".to_owned()
        }),
        ("replay transition 5 features wide", 8, |mut f| {
            f[1] = "5";
            f.remove(7);
            f.join(" ")
        }),
    ];
    for (case, offset, edit) in cases {
        let hostile = with_tstate_edit(&golden, offset, edit);
        let mut config = ServeConfig::new(SimConfig::small(6));
        config.num_shards = 2;
        config.request_queue_capacity = 4;
        config.trainer = Some(golden_trainer());
        let restored = DispatchService::restore(
            Arc::new(ScenarioConfig::small().florence().build(11)),
            config,
            Arc::new(SimClock::new()) as Arc<dyn Clock>,
            Arc::new(ModelRegistry::new(None, None)),
            &hostile,
        );
        match restored {
            Err(ServeError::BadSnapshot(why)) => {
                assert!(why.contains("trainer state"), "{case}: {why}");
            }
            Err(e) => panic!("{case}: refused for the wrong reason: {e}"),
            Ok(service) => {
                service.shutdown();
                panic!("{case}: restored a trainer state the online net cannot step");
            }
        }
    }
}

/// Snapshots written before the online training loop carry no `tstate`
/// record. Operators holding one of those on disk must still restore
/// cleanly — with training disabled the snapshot is simply complete, and
/// with training enabled the trainer starts fresh from the configured
/// seed rather than failing the restore.
#[test]
fn pre_trainer_snapshot_still_restores() {
    let frozen = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/mrserve_v1_pre_trainer.txt"
    ))
    .expect("frozen pre-trainer fixture is checked in");
    assert!(
        !frozen.contains("\ntstate "),
        "fixture must stay in the pre-trainer format; never re-bless it"
    );
    let scenario = Arc::new(ScenarioConfig::small().florence().build(11));
    let mut config = ServeConfig::new(SimConfig::small(6));
    config.num_shards = 2;
    config.request_queue_capacity = 4;

    // Training disabled: the legacy snapshot restores as-is.
    let restored = DispatchService::restore(
        Arc::clone(&scenario),
        config.clone(),
        Arc::new(SimClock::new()) as Arc<dyn Clock>,
        Arc::new(ModelRegistry::new(None, None)),
        &frozen,
    )
    .expect("legacy snapshots restore with training disabled");
    let m = restored.metrics();
    assert_eq!(m.epochs_completed, 2);
    assert_eq!(m.requests_accepted, 13);
    assert!(restored.trainer_status().is_none(), "no trainer configured");
    restored.shutdown();

    // Training enabled: no `tstate` record means a fresh trainer, not a
    // failed restore.
    config.trainer = Some(golden_trainer());
    let restored = DispatchService::restore(
        scenario,
        config,
        Arc::new(SimClock::new()) as Arc<dyn Clock>,
        Arc::new(ModelRegistry::new(None, None)),
        &frozen,
    )
    .expect("legacy snapshots restore with training enabled");
    let status = restored
        .trainer_status()
        .expect("a configured trainer exists even without a tstate record");
    assert_eq!(status.steps, 0, "the trainer starts fresh");
    assert_eq!(status.epochs, 0, "no training history is invented");
    restored.shutdown();
}
