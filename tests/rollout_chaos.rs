//! Rollout chaos suite: poisoned checkpoints against the guarded
//! promotion pipeline.
//!
//! Each run drives `mobirescue_serve::chaos::rollout_chaos_divergence`,
//! which feeds NaN-weight, wrong-dimension, and reward-tanking
//! checkpoints into `DispatchService::submit_rollout` and asserts, inside
//! the harness, that
//!
//! 1. no epoch is ever served by an inadmissible or shadow-stage model
//!    (every shard stays on the incumbent version until a candidate
//!    clears its gates),
//! 2. every injected regression rolls back to the exact prior registry
//!    version, and
//! 3. the faulted run's end state is **byte-identical** to a twin run
//!    that never saw a poisoned checkpoint.
//!
//! Everything runs on a `SimClock`, so a run is a pure function of its
//! seed; the suite pins the same seed set as `tests/chaos.rs` and
//! `scripts/verify.sh`.

use mobirescue_serve::chaos::rollout_chaos_divergence;

/// Same pinned set as the ingestion/crash chaos suite.
const SEEDS: [u64; 5] = mobirescue_serve::CHAOS_SEEDS;

#[test]
fn poisoned_rollouts_never_serve_and_twins_stay_bit_identical() {
    for seed in SEEDS {
        let divergences = rollout_chaos_divergence(seed).expect("runs complete");
        assert!(
            divergences.is_empty(),
            "seed {seed} violated rollout invariants:\n{}",
            divergences.join("\n")
        );
    }
}

#[test]
fn rollout_chaos_is_deterministic() {
    let a = rollout_chaos_divergence(37).expect("first run");
    let b = rollout_chaos_divergence(37).expect("second run");
    assert_eq!(a, b, "rollout chaos must be a pure function of its seed");
}
