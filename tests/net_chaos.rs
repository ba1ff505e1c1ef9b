//! The network chaos suite: the TCP front door under seeded
//! connection-fault schedules (mid-frame disconnects, torn writes,
//! slow-loris stalls) must stay *conservative* — every request offered
//! over the wire is accounted for exactly once as acked, NACKed, or lost
//! to a connection fault, and the wire-visible NACKs reconcile with the
//! bounded queues' own shed counters. Overload is honest or it is a bug.
//!
//! The schedules come from `serve::fault` (conn faults draw from their
//! own seeded stream, so these seeds never perturb the in-process chaos
//! suite), the sockets are real, and the invariants are checked by
//! [`run_net_chaos`] itself — a seed that fails here reproduces as
//! `run_net_chaos(seed, &opts)`.

use mobirescue_net::{run_net_chaos, NetChaosOptions};

/// The pinned seed set `scripts/verify.sh` runs. Chosen so that, across
/// the set, every connection-fault kind fires at least once — asserted
/// below, so a schedule change cannot silently turn this suite into a
/// fair-weather test.
const SEEDS: [u64; 4] = [3, 11, 29, 47];

#[test]
fn conservation_holds_for_fixed_seeds() {
    let opts = NetChaosOptions::default();
    let mut kinds_seen = (0u64, 0u64, 0u64);
    for seed in SEEDS {
        let report = run_net_chaos(seed, &opts);
        assert!(
            report.ok(),
            "seed {seed} broke conservation:\n{}",
            report.summary()
        );
        assert_eq!(report.offered, opts.offers as u64, "seed {seed}");
        assert!(report.acked_ids_unique, "seed {seed}: duplicate ACK ids");
        kinds_seen.0 += report.faults.conn_disconnects;
        kinds_seen.1 += report.faults.conn_torn_writes;
        kinds_seen.2 += report.faults.conn_slow_loris;
    }
    assert!(kinds_seen.0 > 0, "no disconnect fired across the seed set");
    assert!(kinds_seen.1 > 0, "no torn write fired across the seed set");
    assert!(kinds_seen.2 > 0, "no slow-loris fired across the seed set");
}

/// Overload honesty: every queue shed must surface as exactly one
/// wire-visible NACK(Shed) — the run's invariants include
/// `queue_shed == nacked_shed` — and a tiny queue under a request burst
/// must actually shed, so the equality is tested under real overload,
/// not vacuously.
#[test]
fn every_shed_is_a_nack_under_overload() {
    let opts = NetChaosOptions {
        offers: 90,
        epoch_every: 30, // long bursts between drains overflow capacity 4
    };
    let mut sheds = 0u64;
    for seed in SEEDS {
        let report = run_net_chaos(seed, &opts);
        assert!(
            report.ok(),
            "seed {seed} broke overload honesty:\n{}",
            report.summary()
        );
        assert_eq!(
            report.queue_shed, report.nacked_shed,
            "seed {seed}: a shed escaped the wire"
        );
        sheds += report.nacked_shed;
    }
    assert!(
        sheds > 0,
        "no seed overloaded the queue; the gate is vacuous"
    );
}

/// A chaos run is a pure function of its seed: same seed, same wire
/// accounting, even though real sockets and threads are involved (the
/// fault schedule, the request stream, and the epoch cadence are all
/// deterministic; only timings vary).
#[test]
fn same_seed_reproduces_the_same_accounting() {
    let opts = NetChaosOptions::default();
    let a = run_net_chaos(SEEDS[0], &opts);
    let b = run_net_chaos(SEEDS[0], &opts);
    assert!(a.ok(), "{}", a.summary());
    assert_eq!(a.offered, b.offered);
    assert_eq!(a.faults.conn_disconnects, b.faults.conn_disconnects);
    assert_eq!(a.faults.conn_torn_writes, b.faults.conn_torn_writes);
    assert_eq!(a.faults.conn_slow_loris, b.faults.conn_slow_loris);
    assert_eq!(a.lost, b.lost);
    assert_eq!(a.acked + a.nacked_shed + a.nacked_invalid, a.completed);
    assert_eq!(b.acked + b.nacked_shed + b.nacked_invalid, b.completed);
}
