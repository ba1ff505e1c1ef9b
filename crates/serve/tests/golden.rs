//! Golden-file tests pinning the `mrserve 1` snapshot text format.
//!
//! `mrserve_v1.txt` is a byte-exact snapshot of a small deterministic
//! service run. Any change to the wire format — a new record, a reordered
//! field, a float formatting change — shows up as an explicit diff
//! against it instead of a silent break for operators holding older
//! snapshots on disk. The frozen `mrserve_v1_pre_*.txt` fixtures were
//! written by earlier versions of the service and are never re-blessed:
//! each must still restore.
//!
//! To bless an *intentional* format change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p mobirescue-serve --test golden
//! ```
//!
//! and commit the updated fixture together with the format change and a
//! version-number bump rationale.

use mobirescue_core::scenario::ScenarioConfig;
use mobirescue_roadnet::graph::SegmentId;
use mobirescue_serve::{Clock, DispatchService, Event, ModelBundle, ServeConfig, SimClock};
use mobirescue_sim::{RequestSpec, SimConfig};
use std::sync::Arc;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/mrserve_v1.txt");

/// The fixed run the fixture pins: 2 shards, queue capacity 4, two epochs
/// with three requests per shard per epoch, one weather advisory, one
/// road-damage advisory, and one request left delayed in the queue.
fn golden_snapshot() -> String {
    let scenario = Arc::new(ScenarioConfig::small().florence().build(11));
    let clock = Arc::new(SimClock::new());
    let service = DispatchService::start(
        Arc::clone(&scenario),
        config(4),
        clock as Arc<dyn Clock>,
        Arc::new(ModelBundle::default()),
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

/// The service configuration the fixtures were written with: 2 shards,
/// `queue_capacity` requests per shard queue.
fn config(queue_capacity: usize) -> ServeConfig {
    let mut config = ServeConfig::new(SimConfig::small(6));
    config.num_shards = 2;
    config.request_queue_capacity = queue_capacity;
    config
}

/// Restores the fixture at `tests/golden/{name}` into a fresh service
/// with the default bundle.
fn restore_fixture(name: &str, queue_capacity: usize) -> DispatchService {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    DispatchService::restore(
        Arc::new(ScenarioConfig::small().florence().build(11)),
        config(queue_capacity),
        Arc::new(SimClock::new()) as Arc<dyn Clock>,
        Arc::new(ModelBundle::default()),
        &text,
    )
    .unwrap_or_else(|e| panic!("{name} restores: {e}"))
}

/// Reads a frozen fixture, which must still carry `marker`: it stays in
/// the format it was written in and is never re-blessed.
fn frozen(name: &str, marker: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert!(
        text.contains(marker),
        "{name} must stay in its frozen format; never re-bless it"
    );
    text
}

#[test]
fn mrserve_v1_format_matches_golden_fixture() {
    assert_matches_fixture(&golden_snapshot(), GOLDEN_PATH);
}

/// Compares a generated snapshot against the fixture at `path` byte for
/// byte (or, under `UPDATE_GOLDEN`, writes it there).
fn assert_matches_fixture(generated: &str, path: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, generated).expect("fixture written");
        return;
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
}

/// Snapshots written before the guarded-rollout work carry a two-field
/// `resil` record, no `rrew`/`rollout`/`rtext` lines, and the `hist`
/// record of the epoch-latency histogram. Operators holding one of those
/// on disk must still restore cleanly.
#[test]
fn pre_rollout_snapshot_still_restores() {
    let text = frozen("mrserve_v1_pre_rollout.txt", "\nhist ");
    assert!(text.contains("resil 0 0\n") && !text.contains("rollout"));
    let restored = restore_fixture("mrserve_v1_pre_rollout.txt", 4);
    let m = restored.metrics();
    assert_eq!(m.epochs_completed, 2);
    assert_eq!(m.requests_accepted, 13);
    restored.shutdown();
}

/// Snapshots written before the durable ingest journal carry a one-field
/// `epochs` record — no journal high-water mark. Operators holding one
/// of those on disk must still restore cleanly, with the absent mark
/// meaning "replay nothing": everything the snapshot holds predates the
/// journal, so the journal contributes nothing.
#[test]
fn pre_wal_snapshot_still_restores() {
    frozen("mrserve_v1_pre_wal.txt", "\nepochs 2\n");
    let restored = restore_fixture("mrserve_v1_pre_wal.txt", 4);
    let m = restored.metrics();
    assert_eq!(m.epochs_completed, 2);
    assert_eq!(m.requests_accepted, 13);
    assert_eq!(restored.wal_last_seq(), 0, "no journal was ever attached");
    restored.shutdown();
}

#[test]
fn golden_fixture_still_restores() {
    let restored = restore_fixture("mrserve_v1.txt", 4);
    let m = restored.metrics();
    assert_eq!(m.epochs_completed, 2);
    assert_eq!(m.requests_accepted, 13);
    restored.shutdown();
}

/// Snapshots written before the online training loop carry no `tstate`
/// record (and those written while it ran carry one, which the
/// `pre_wal` fixture pins). Operators holding one on disk must still
/// restore cleanly.
#[test]
fn pre_trainer_snapshot_still_restores() {
    let text = frozen("mrserve_v1_pre_trainer.txt", "\nrrew ");
    assert!(!text.contains("\ntstate "));
    let restored = restore_fixture("mrserve_v1_pre_trainer.txt", 4);
    let m = restored.metrics();
    assert_eq!(m.epochs_completed, 2);
    assert_eq!(m.requests_accepted, 13);
    restored.shutdown();
}

/// Snapshots written while a running service could swap its models carry
/// the rollout pipeline's `rrew`, `rollout` and `rtext` records, a
/// five-field `resil` record and each shard's served model version. This
/// one stopped a rollout in its canary stage, with shard 0 serving the
/// candidate at version 2. It must restore as the bundle the service is
/// given, keep every count, and snapshot again without those records.
#[test]
fn pre_lifecycle_snapshot_still_restores() {
    let text = frozen("mrserve_v1_pre_lifecycle.txt", "\nrollout canary ");
    assert!(text.contains("\nrtext cpol ") && text.contains("\nresil 0 0 0 0 0\n"));
    let restored = restore_fixture("mrserve_v1_pre_lifecycle.txt", 8);
    let m = restored.metrics();
    assert_eq!(m.epochs_completed, 5);
    assert_eq!(m.requests_accepted, 30);
    restored.run_epoch().expect("the restored service runs");
    let again = restored.snapshot().expect("snapshot serializes");
    for record in ["\nrrew ", "\nrollout ", "\nrtext "] {
        assert!(!again.contains(record), "{record:?} outlived the restore");
    }
    assert!(again.contains("\nresil 0 0\n"));
    let versions: Vec<&str> = (again.lines())
        .filter(|l| l.starts_with("shardstate "))
        .filter_map(|l| l.split(' ').nth(4))
        .collect();
    assert_eq!(versions, ["1", "1"], "every shard serves the one bundle");
    restored.shutdown();
}
