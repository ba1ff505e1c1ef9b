//! The chaos suite: the full dispatch service under seeded fault
//! schedules must degrade gracefully, never silently.
//!
//! Each test drives `mobirescue_serve::chaos` — the same harness the
//! `chaos` bench binary sweeps — so any seed that fails a sweep drops
//! straight into a reproducible test here. Everything runs on a
//! `SimClock`: a run is a pure function of its fault plan, and these
//! tests are deterministic.

use mobirescue_serve::chaos::{crash_replay_divergence, run_chaos, Arm, ChaosOptions};
use mobirescue_serve::{FaultCounters, FaultPlan, ServeError, SimClock};
use std::sync::Arc;

/// The fixed seed set the suite (and `scripts/verify.sh`) pins. Chosen
/// arbitrarily; together they exercise every fault kind at least once,
/// which `chaos_invariants_hold_for_fixed_seeds` asserts.
const SEEDS: [u64; 5] = mobirescue_serve::CHAOS_SEEDS;

#[test]
fn chaos_invariants_hold_for_fixed_seeds() {
    let mut kinds_seen = (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    for seed in SEEDS {
        let outcome = run_chaos(&ChaosOptions::seeded(seed)).expect("chaos run completes");
        assert!(
            outcome.ok(),
            "seed {seed} broke invariants:\n{}",
            outcome.summary()
        );
        // The service finished every epoch despite the schedule.
        assert_eq!(outcome.metrics.epochs_completed, 6);
        // Degradation happens only when a degrading fault fired (the
        // harness checks the iff both ways; spot-check the direction that
        // matters most here).
        if outcome.metrics.degraded_epochs > 0 {
            assert!(outcome.counters.stalls > 0, "seed {seed}");
        }
        let c = outcome.counters;
        kinds_seen.0 += c.drops;
        kinds_seen.1 += c.delays;
        kinds_seen.2 += c.duplicates;
        kinds_seen.3 += c.corrupts;
        kinds_seen.4 += c.stalls;
        kinds_seen.5 += c.crashes;
    }
    // The seed set is only a meaningful gate if, across it, every fault
    // kind actually fired.
    assert!(kinds_seen.0 > 0, "no drop fired across the seed set");
    assert!(kinds_seen.1 > 0, "no delay fired across the seed set");
    assert!(kinds_seen.2 > 0, "no duplicate fired across the seed set");
    assert!(kinds_seen.3 > 0, "no corrupt fired across the seed set");
    assert!(kinds_seen.4 > 0, "no stall fired across the seed set");
    assert!(kinds_seen.5 > 0, "no crash fired across the seed set");
}

#[test]
fn chaos_runs_are_deterministic() {
    let opts = ChaosOptions::seeded(23);
    let a = run_chaos(&opts).expect("first run");
    let b = run_chaos(&opts).expect("second run");
    assert_eq!(a.counters, b.counters);
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.restarts, b.restarts);
    assert!(a.ok() && b.ok());
}

#[test]
fn quiet_plan_degrades_nothing() {
    let mut opts = ChaosOptions::seeded(99);
    opts.plan = FaultPlan::empty();
    let outcome = run_chaos(&opts).expect("quiet run completes");
    assert!(outcome.ok(), "{}", outcome.summary());
    assert_eq!(outcome.metrics.degraded_epochs, 0);
    assert_eq!(outcome.restarts, 0);
    assert_eq!(
        outcome.counters,
        FaultCounters::default(),
        "no fault may fire without a plan"
    );
}

#[test]
fn crash_recovery_is_replay_masked_bit_identical() {
    // Crash shard 0 twice and shard 1 once, including an epoch-0 crash
    // (recovery from "no checkpoint yet" restarts a fresh world, which is
    // exactly the pre-epoch-0 state). The recovered run must end with a
    // snapshot text *byte-identical* to an unfaulted twin's, because each
    // crash is consumed when it fires and the replayed epoch runs clean.
    let divergences = crash_replay_divergence().expect("both runs complete");
    assert!(
        divergences.is_empty(),
        "crashed+recovered run diverged from the unfaulted reference:\n{}",
        divergences.join("\n")
    );
}

/// How a snapshot text is damaged on write (failing disk / torn write),
/// applied with [`SnapshotCorruption::apply`] to the text the service
/// returned. The embedded position is reduced modulo the snapshot length
/// when applied, so a corruption stays valid for any snapshot size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SnapshotCorruption {
    /// The text is cut short at the given byte offset.
    Truncate(u64),
    /// One byte at the given offset has a bit flipped.
    BitFlip(u64),
}

impl SnapshotCorruption {
    /// The snapshot `text` damaged by this corruption. Snapshot formats
    /// are pure ASCII, so byte surgery stays valid UTF-8;
    /// `from_utf8_lossy` guards the general case anyway.
    fn apply(self, text: &str) -> String {
        let mut bytes = text.as_bytes().to_vec();
        if bytes.is_empty() {
            return String::new();
        }
        match self {
            SnapshotCorruption::Truncate(at) => {
                // Keep at least one byte, lose at least one.
                let keep = 1 + (at as usize) % bytes.len().max(2).saturating_sub(1);
                bytes.truncate(keep.min(bytes.len() - 1));
            }
            SnapshotCorruption::BitFlip(at) => {
                let i = (at as usize) % bytes.len();
                bytes[i] ^= 0x10;
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

#[test]
fn corrupted_snapshot_writes_are_rejected_on_restore() {
    let arm = Arm::default();
    for corruption in [
        SnapshotCorruption::Truncate(12_345),
        SnapshotCorruption::BitFlip(6_789),
    ] {
        let service = arm
            .service(&Arc::new(SimClock::new()), None)
            .expect("service starts");
        service.run_epoch().expect("epoch runs");
        // The write is damaged on its way to disk, after the service
        // sealed it: a flip keeps the length, a cut loses bytes.
        let sealed = service.snapshot().expect("snapshot writes");
        let corrupted = corruption.apply(&sealed);
        assert_ne!(corrupted, sealed);
        match corruption {
            SnapshotCorruption::Truncate(_) => assert!(corrupted.len() < sealed.len()),
            SnapshotCorruption::BitFlip(_) => assert_eq!(corrupted.len(), sealed.len()),
        }
        let err = arm
            .service(&Arc::new(SimClock::new()), Some(&corrupted))
            .err()
            .expect("corrupted snapshot must not restore");
        assert!(
            matches!(err, ServeError::BadSnapshot(_)),
            "expected a typed BadSnapshot error, got: {err}"
        );
        service.shutdown();
    }
}
