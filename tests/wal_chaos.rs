//! WAL chaos suite: kill -9 at any byte of the durable ingest journal.
//!
//! Each run drives `mobirescue_serve::chaos::wal_chaos_divergence`, which
//! arms `WalFault` schedules against a journal-backed service and
//! asserts, inside the harness, that
//!
//! 1. every injected **torn append** surfaces as a typed
//!    `ServeError::Wal(WalError::TornTail)` refusal — the request was
//!    never made durable, so it is never acked — with the conservation
//!    law `acked == dispatched + still_journaled` intact and the journal
//!    still restorable afterwards,
//! 2. **fsync stalls** cost latency but never leak into state: the
//!    stalled run's snapshot is bit-identical to an unstalled twin's,
//! 3. a process **killed at any byte offset** of the journal — at the
//!    boundary snapshot, after every post-snapshot offer, and seeded
//!    mid-record interior bytes — restores and finishes bit-identical
//!    (snapshot text, metrics, journal sequence) to a twin that never
//!    crashed, and
//! 4. an interior **bit flip** is refused at recovery with a typed
//!    `WalError::Corrupt` naming the segment and offset — never a panic,
//!    never a silent wrong replay.
//!
//! Everything runs on a `SimClock`, so a run is a pure function of its
//! seed; the suite iterates `mobirescue_serve::CHAOS_SEEDS`, the same
//! constant the chaos sweep binary and the sibling suites pin.

use mobirescue_serve::chaos::wal_chaos_divergence;
use mobirescue_serve::CHAOS_SEEDS;

#[test]
fn crash_at_any_journal_byte_recovers_bit_identically() {
    for seed in CHAOS_SEEDS {
        let divergences = wal_chaos_divergence(seed).expect("runs complete");
        assert!(
            divergences.is_empty(),
            "seed {seed} violated journal invariants:\n{}",
            divergences.join("\n")
        );
    }
}

#[test]
fn wal_chaos_is_deterministic() {
    let a = wal_chaos_divergence(37).expect("first run");
    let b = wal_chaos_divergence(37).expect("second run");
    assert_eq!(a, b, "wal chaos must be a pure function of its seed");
}
