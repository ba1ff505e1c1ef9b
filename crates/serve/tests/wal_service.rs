//! Service-level journal invariants the chaos sweeps cannot pin
//! directly: shed offers leave no durable trace, recovery refuses to
//! shed acked requests when the queue capacity shrank, and the
//! snapshot's high-water mark stays consistent with its queue capture
//! under concurrent ingestion.

use mobirescue_core::scenario::{Scenario, ScenarioConfig};
use mobirescue_roadnet::graph::SegmentId;
use mobirescue_serve::{
    Clock, DispatchService, FsyncPolicy, ModelBundle, ServeConfig, ServeError, SimClock, WalConfig,
};
use mobirescue_sim::{RequestSpec, SimConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

fn test_scenario() -> Arc<Scenario> {
    Arc::new(ScenarioConfig::small().florence().build(11))
}

/// A unique scratch journal dir per call, cleaned before use.
fn tdir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "mobirescue-walsvc-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn wal_config(dir: &PathBuf, num_shards: usize, queue_capacity: usize) -> ServeConfig {
    let mut config = ServeConfig::new(SimConfig::small(6));
    config.num_shards = num_shards;
    config.request_queue_capacity = queue_capacity;
    let mut wal = WalConfig::new(dir);
    wal.fsync = FsyncPolicy::Off;
    config.wal = Some(wal);
    config
}

fn start(scenario: &Arc<Scenario>, config: ServeConfig) -> Result<DispatchService, ServeError> {
    DispatchService::start(
        Arc::clone(scenario),
        config,
        Arc::new(SimClock::new()) as Arc<dyn Clock>,
        Arc::new(ModelBundle::default()),
    )
}

fn request(scenario: &Scenario, tag: u32) -> RequestSpec {
    let num_segments = scenario.city.network.num_segments() as u32;
    RequestSpec {
        appear_s: tag,
        segment: SegmentId(tag % num_segments),
    }
}

/// A shed offer got a NACK, so it must leave no durable trace: the
/// journal sequence does not advance, and a restart replays only the
/// admitted (acked) requests — no resurrection, no duplicates.
#[test]
fn shed_offers_are_never_journaled() {
    let scenario = test_scenario();
    let dir = tdir("shed");
    let service = start(&scenario, wal_config(&dir, 1, 2)).expect("service starts");

    for tag in 0..2 {
        let spec = request(&scenario, tag);
        assert!(
            service.ingest(0, spec).expect("valid event"),
            "offer {tag} fits under capacity"
        );
    }
    let overflow = request(&scenario, 99);
    assert!(
        !service.ingest(0, overflow).expect("valid event"),
        "the third offer overflows the capacity-2 queue"
    );
    assert_eq!(
        service.wal_last_seq(),
        2,
        "the shed offer must not reach the journal"
    );
    drop(service);

    let restarted = start(&scenario, wal_config(&dir, 1, 2)).expect("restart recovers");
    assert_eq!(restarted.wal_last_seq(), 2);
    assert_eq!(
        restarted.metrics().shards[0].queue_depth,
        2,
        "replay admits exactly the acked requests, nothing shed"
    );
    drop(restarted);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Restarting with a smaller queue capacity than the crashed process
/// used cannot silently shed durably-acked requests: recovery refuses
/// with a typed error instead.
#[test]
fn replay_overflow_is_a_typed_refusal() {
    let scenario = test_scenario();
    let dir = tdir("overflow");
    let service = start(&scenario, wal_config(&dir, 1, 4)).expect("service starts");
    for tag in 0..4 {
        let spec = request(&scenario, tag);
        assert!(service.ingest(0, spec).expect("valid event"));
    }
    assert_eq!(service.wal_last_seq(), 4);
    drop(service);

    match start(&scenario, wal_config(&dir, 1, 2)) {
        Err(ServeError::ReplayOverflow { shard: 0, capacity }) => {
            assert_eq!(capacity, 2, "the refusal names the shrunken capacity");
        }
        Err(other) => panic!("wrong refusal for a shrunken queue: {other}"),
        Ok(_) => panic!("a capacity-2 restart must refuse to replay 4 acked requests"),
    }
    // The full original capacity recovers everything.
    let restarted = start(&scenario, wal_config(&dir, 1, 4)).expect("full capacity recovers");
    assert_eq!(restarted.metrics().shards[0].queue_depth, 4);
    drop(restarted);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `queued` lines of a restored service's own snapshot, as tags.
fn queued_tags(snapshot: &str) -> Vec<u32> {
    snapshot
        .lines()
        .filter_map(|line| {
            let mut p = line.split_whitespace();
            if p.next() != Some("queued") {
                return None;
            }
            let _shard = p.next()?;
            p.next()?.parse().ok()
        })
        .collect()
}

/// Snapshots taken while listener threads are mid-ingest must keep the
/// high-water mark consistent with the captured queue contents: for
/// every such snapshot, restore + suffix replay yields each acked
/// request **exactly once** — a record journaled at or below the mark
/// is never lost, a record past it is never duplicated.
#[test]
fn concurrent_snapshot_never_loses_or_duplicates_acked_requests() {
    const PRODUCERS: u32 = 4;
    const PER_PRODUCER: u32 = 120;
    let scenario = test_scenario();
    let dir = tdir("race");
    let config = wal_config(&dir, 2, 4_096);
    let service = Arc::new(start(&scenario, config.clone()).expect("service starts"));

    let barrier = Arc::new(Barrier::new(PRODUCERS as usize + 1));
    let done = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..PRODUCERS)
        .map(|t| {
            let service = Arc::clone(&service);
            let scenario = Arc::clone(&scenario);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..PER_PRODUCER {
                    let tag = t * 10_000 + i;
                    let spec = request(&scenario, tag);
                    let shard = (tag % 2) as usize;
                    assert!(
                        service.ingest(shard, spec).expect("valid event"),
                        "capacity is ample: every offer is acked"
                    );
                }
            })
        })
        .collect();

    // Snapshot as fast as possible while the producers hammer ingest.
    let mut snapshots = Vec::new();
    barrier.wait();
    while !done.load(Ordering::Relaxed) && snapshots.len() < 64 {
        snapshots.push(service.snapshot().expect("snapshot under load"));
        if handles.iter().all(std::thread::JoinHandle::is_finished) {
            done.store(true, Ordering::Relaxed);
        }
    }
    for h in handles {
        h.join().expect("producer thread panicked");
    }
    service.wal_sync().expect("journal flushes");
    let total = u64::from(PRODUCERS * PER_PRODUCER);
    assert_eq!(service.wal_last_seq(), total, "every acked offer journaled");

    for (i, text) in snapshots.iter().enumerate() {
        let restored = DispatchService::restore(
            Arc::clone(&scenario),
            config.clone(),
            Arc::new(SimClock::new()) as Arc<dyn Clock>,
            Arc::new(ModelBundle::default()),
            text,
        )
        .unwrap_or_else(|e| panic!("snapshot {i} restores: {e}"));
        let mut tags = queued_tags(&restored.snapshot().expect("restored snapshot"));
        assert_eq!(
            tags.len() as u64,
            total,
            "snapshot {i}: restore + replay must recover every acked request \
             exactly once (loss under the mark or duplication past it)"
        );
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(
            tags.len() as u64,
            total,
            "snapshot {i}: a journaled request was replayed twice"
        );
        drop(restored);
    }
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}
