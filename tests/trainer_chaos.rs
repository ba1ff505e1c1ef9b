//! Trainer chaos suite: faults injected into the online training loop.
//!
//! Each run drives `mobirescue_serve::chaos::trainer_chaos_divergence`,
//! which arms `TrainerFault` schedules against a service running the
//! background DQN trainer and asserts, inside the harness, that
//!
//! 1. **transition conservation** holds under injected transition drops
//!    (`train.transitions_offered == accepted + shed`, and the obs
//!    counters agree with the trainer's own status),
//! 2. a flood of stale, reward-tanking candidates is fully absorbed by
//!    the rollout gates — no shard ever serves anything but the
//!    incumbent, and the registry records zero swaps, and
//! 3. a trainer that crashes at epoch boundaries respawns from its
//!    per-boundary checkpoint and finishes **bit-identical** — service
//!    snapshot, metrics, trainer status and policy checkpoint — to an
//!    unfaulted twin.
//!
//! Everything runs on a `SimClock`, so a run is a pure function of its
//! seed; the suite pins the same seed set as `tests/chaos.rs` and
//! `scripts/verify.sh`.

use mobirescue_serve::chaos::trainer_chaos_divergence;

/// Same pinned set as the ingestion/crash and rollout chaos suites.
const SEEDS: [u64; 5] = mobirescue_serve::CHAOS_SEEDS;

#[test]
fn trainer_faults_never_break_conservation_or_serve_unguarded_models() {
    for seed in SEEDS {
        let divergences = trainer_chaos_divergence(seed).expect("runs complete");
        assert!(
            divergences.is_empty(),
            "seed {seed} violated trainer invariants:\n{}",
            divergences.join("\n")
        );
    }
}

#[test]
fn trainer_chaos_is_deterministic() {
    let a = trainer_chaos_divergence(41).expect("first run");
    let b = trainer_chaos_divergence(41).expect("second run");
    assert_eq!(a, b, "trainer chaos must be a pure function of its seed");
}
