//! Deterministic fault injection for the dispatch service.
//!
//! A disaster-time dispatcher must keep producing plans while its own
//! infrastructure degrades: ingestion links drop and reorder events,
//! worker processes die mid-epoch, journal appends tear, snapshots get
//! truncated on a failing disk. This module makes those conditions a
//! *first-class, reproducible test input*: a [`FaultPlan`] is a seeded,
//! inspectable schedule of faults — one of the named mixes the chaos
//! harnesses run ([`FaultPlan::chaos`], [`FaultPlan::journal`],
//! [`FaultPlan::fsync_stalls`], [`FaultPlan::connections`]) or one built
//! fault by fault — and a [`FaultInjector`] hands the service its own
//! faults, each exactly once.
//!
//! Where a fault is applied follows where it happens. Faults only the
//! process itself can suffer — [`ShardFault`]s and the two [`WalFault`]s
//! — are all a [`FaultInjector`] carries: they fire at hook points inside
//! [`crate::DispatchService`] and its shard workers. Faults on something
//! that crosses the service boundary are read from the plan and applied,
//! and counted, by the harness at the point where they cross:
//! [`IngestFault`]s to requests before [`crate::DispatchService::ingest`]
//! (`crate::chaos::run_chaos`), [`ConnFault`]s to frames on the socket
//! (`mobirescue-net`'s chaos harness), and bit flips to journal files on
//! disk.
//!
//! Determinism is the whole point. The plan is fully decided up front from
//! a seed (via the vendored `rand` shim), each fault family drawing from
//! its own stream seeded by `hash(seed, family)` so that arming one family
//! never shifts another's schedule; every fault is consumed
//! one-shot, and the service runs on a [`crate::SimClock`] in tests — so a
//! chaos run is a pure function of `(scenario seed, fault seed)` and every
//! failure reproduces exactly. Consuming faults one-shot is also what
//! makes crash recovery testable: when a crashed shard's epoch is replayed
//! after restore, the crash (already consumed) does not re-fire, so the
//! replay is the *masked* — unfaulted — execution of the same epoch.

use crate::chaos::{CHAOS_EPOCHS, CHAOS_SHARDS};
use mobirescue_sim::fnv1a_64_bytes;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A fault the network applies to one rescue request on its way to
/// [`crate::DispatchService::ingest`]. The harness reads it from the plan
/// ([`FaultPlan::chaos`]) and applies it before the offer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestFault {
    /// The request is lost: it is never offered.
    Drop,
    /// The request is held back this many epochs before it is offered
    /// (network delay / out-of-order delivery).
    Delay(u32),
    /// The request is offered twice (at-least-once delivery upstream).
    Duplicate,
    /// The request's payload is damaged in flight; the service's
    /// validation must reject it with a typed error.
    Corrupt,
}

/// A fault applied to one shard worker at one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardFault {
    /// The dispatcher stalls for this many clock milliseconds mid-epoch
    /// (GC pause, page fault storm) — with a configured epoch deadline
    /// this trips the fallback to the heuristic dispatcher.
    Stall(u64),
    /// The worker thread dies mid-epoch without replying; the service must
    /// restart it from the last boundary checkpoint and replay.
    Crash,
}

/// A fault applied by a misbehaving client to one frame offered over the
/// TCP front door (`mobirescue-net`). The serve crate draws the schedule
/// ([`FaultPlan::connections`]) — like every other fault kind — and the
/// network chaos harness applies it at the socket, so a front-door chaos
/// run stays a pure function of its fault seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnFault {
    /// The client writes part of a frame and disconnects. The listener
    /// must treat the torso as a rejected frame, never as a request.
    MidFrameDisconnect,
    /// The frame arrives split across two writes with a pause in between
    /// (a torn write). The listener must reassemble it and respond
    /// normally — torn delivery is not data loss.
    TornWrite,
    /// The client trickles a partial frame header and then stalls
    /// (slow-loris). The listener's frame deadline must close the
    /// connection instead of pinning a handler thread forever.
    SlowLoris,
}

/// A fault applied to the durable ingest journal (`crate::wal`) at one
/// journaled push attempt. Damage to a journal file at rest is not one
/// of these: a harness edits the file itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalFault {
    /// The process "dies" mid-append: a torn prefix of the record hits
    /// disk and the entry is never journaled. The service must surface
    /// the typed `WalError::TornTail` — the request is not admitted and
    /// must never be acked.
    TornAppend,
    /// The device stalls under fsync (a failing disk's write cache
    /// draining) for this many clock milliseconds. The append blocks for
    /// the stall and then completes normally.
    FsyncStall(u64),
}

/// The random stream of one fault family, seeded from
/// `hash(seed, family)`. Each family of a [`FaultPlan`] draws from its own
/// stream, so arming, disarming or resizing one family never shifts
/// another family's draws for the same seed.
pub(crate) fn family_stream(seed: u64, family: &str) -> StdRng {
    let mut key = seed.to_le_bytes().to_vec();
    key.extend_from_slice(family.as_bytes());
    StdRng::seed_from_u64(fnv1a_64_bytes(&key))
}

/// One uniform roll against consecutive probability bands: the first
/// fault whose cumulative band holds the roll, or `None` past them all.
fn roll<F: Copy>(rng: &mut StdRng, bands: &[(f64, F)]) -> Option<F> {
    let roll: f64 = rng.random();
    let mut acc = 0.0;
    bands.iter().find_map(|&(p, fault)| {
        acc += p;
        (roll < acc).then_some(fault)
    })
}

/// The schedule of one offer-indexed family: `horizon` decisions drawn
/// in order by `draw` from the family's own stream.
fn offers<F>(
    seed: u64,
    family: &str,
    horizon: usize,
    mut draw: impl FnMut(&mut StdRng) -> Option<F>,
) -> Vec<Option<F>> {
    let mut rng = family_stream(seed, family);
    (0..horizon).map(|_| draw(&mut rng)).collect()
}

/// A deterministic, inspectable schedule of faults for one run: the
/// service's own (shard and journal faults, which a [`FaultInjector`]
/// hands out) and the boundary's (request and connection faults, which
/// the harness that applies them reads).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    ingest: Vec<Option<IngestFault>>,
    shard: BTreeMap<(u32, usize), ShardFault>,
    conn: Vec<Option<ConnFault>>,
    wal: Vec<Option<WalFault>>,
}

impl FaultPlan {
    /// A plan with nothing scheduled (compose with the builder methods).
    pub fn empty() -> Self {
        Self::default()
    }

    /// The in-process chaos mix [`crate::chaos::run_chaos`] sweeps. Each of
    /// the first 256 request offers is dropped (8%), delayed one or two
    /// epochs (8%), duplicated (6%) or corrupted (5%); each of the
    /// [`CHAOS_EPOCHS`] × [`CHAOS_SHARDS`] shard epochs crashes (8%) or
    /// stalls 50 ms (10%).
    pub fn chaos(seed: u64) -> Self {
        let ingest_bands = [
            (0.08, IngestFault::Drop),
            (0.08, IngestFault::Delay(0)),
            (0.06, IngestFault::Duplicate),
            (0.05, IngestFault::Corrupt),
        ];
        let ingest = offers(seed, "ingest", 256, |rng| match roll(rng, &ingest_bands) {
            Some(IngestFault::Delay(_)) => Some(IngestFault::Delay(rng.random_range(1..=2))),
            fault => fault,
        });
        let shard_bands = [(0.08, ShardFault::Crash), (0.10, ShardFault::Stall(50))];
        let mut rng = family_stream(seed, "shard");
        let shard = (0..CHAOS_EPOCHS)
            .flat_map(|e| (0..CHAOS_SHARDS).map(move |s| (e, s)))
            .filter_map(|key| roll(&mut rng, &shard_bands).map(|f| (key, f)))
            .collect();
        Self {
            ingest,
            shard,
            ..Self::default()
        }
    }

    /// The journal mix of the WAL chaos arm: each of the first 64
    /// journaled push attempts tears (10%) or stalls 15 ms under fsync
    /// (12%).
    pub fn journal(seed: u64) -> Self {
        let bands = [
            (0.10, WalFault::TornAppend),
            (0.12, WalFault::FsyncStall(15)),
        ];
        Self {
            wal: offers(seed, "wal", 64, |rng| roll(rng, &bands)),
            ..Self::default()
        }
    }

    /// The fsync-stall mix of the WAL chaos arm's stall twin: each of the
    /// first 64 journaled push attempts stalls 15 ms under fsync (50%).
    pub fn fsync_stalls(seed: u64) -> Self {
        let bands = [(0.5, WalFault::FsyncStall(15))];
        Self {
            wal: offers(seed, "wal", 64, |rng| roll(rng, &bands)),
            ..Self::default()
        }
    }

    /// The front door's connection mix: each of the first 192 frames a
    /// client offers is cut mid-frame (8%), torn across two writes (10%)
    /// or trickled slow-loris (5%).
    pub fn connections(seed: u64) -> Self {
        let bands = [
            (0.08, ConnFault::MidFrameDisconnect),
            (0.10, ConnFault::TornWrite),
            (0.05, ConnFault::SlowLoris),
        ];
        Self {
            conn: offers(seed, "conn", 192, |rng| roll(rng, &bands)),
            ..Self::default()
        }
    }

    /// Schedules a crash of `shard` at `epoch`.
    pub fn with_crash(mut self, epoch: u32, shard: usize) -> Self {
        self.shard.insert((epoch, shard), ShardFault::Crash);
        self
    }

    /// Schedules an `ms`-millisecond stall of `shard` at `epoch`.
    pub fn with_stall(mut self, epoch: u32, shard: usize, ms: u64) -> Self {
        self.shard.insert((epoch, shard), ShardFault::Stall(ms));
        self
    }

    /// Schedules `fault` for the `offer_index`-th journaled push attempt.
    pub fn with_wal_fault(mut self, offer_index: usize, fault: WalFault) -> Self {
        if self.wal.len() <= offer_index {
            self.wal.resize(offer_index + 1, None);
        }
        self.wal[offer_index] = Some(fault);
        self
    }

    /// The request faults by offer: the `i`-th request a harness offers
    /// suffers entry `i`, and offers past the end pass clean.
    pub(crate) fn ingest_faults(&self) -> &[Option<IngestFault>] {
        &self.ingest
    }

    /// The connection faults by frame: the `i`-th frame a client offers
    /// suffers entry `i`, and frames past the end are sent clean.
    pub fn conn_faults(&self) -> &[Option<ConnFault>] {
        &self.conn
    }
}

/// Cumulative counts of faults that actually *fired* during a run. A
/// [`FaultInjector`] counts the service's own faults; a harness adds the
/// request or connection faults it applied.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Offers dropped.
    pub drops: u64,
    /// Offers deferred.
    pub delays: u64,
    /// Offers duplicated.
    pub duplicates: u64,
    /// Offers corrupted.
    pub corrupts: u64,
    /// Shard stalls fired.
    pub stalls: u64,
    /// Shard crashes fired.
    pub crashes: u64,
    /// Mid-frame disconnects fired at the front door.
    pub conn_disconnects: u64,
    /// Torn writes fired at the front door.
    pub conn_torn_writes: u64,
    /// Slow-loris stalls fired at the front door.
    pub conn_slow_loris: u64,
    /// Torn journal appends fired.
    pub wal_torn: u64,
    /// Journal fsync stalls fired.
    pub wal_stalls: u64,
}

/// Hands out the faults a [`FaultPlan`] schedules for the service itself —
/// shard stalls and crashes, torn appends and fsync stalls — each exactly
/// once, at the service's hook points, with cumulative fired-fault
/// counters. The plan's request and connection faults stay with the
/// harness that applies them.
#[derive(Debug)]
pub struct FaultInjector {
    state: Mutex<Pending>,
}

/// What an injector has yet to fire, and what it has fired so far.
#[derive(Debug, Default)]
struct Pending {
    /// The shard faults that have not fired yet.
    shard: BTreeMap<(u32, usize), ShardFault>,
    /// The journal faults by push attempt, and the next attempt's index.
    wal: Vec<Option<WalFault>>,
    wal_at: usize,
    fired: FaultCounters,
}

impl FaultInjector {
    /// An injector executing `plan`'s shard and journal faults.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            state: Mutex::new(Pending {
                shard: plan.shard,
                wal: plan.wal,
                ..Pending::default()
            }),
        }
    }

    fn pending(&self) -> MutexGuard<'_, Pending> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The fault (if any) for the next journaled push attempt.
    pub fn next_wal_fault(&self) -> Option<WalFault> {
        let p = &mut *self.pending();
        let fault = p.wal.get(p.wal_at).copied().flatten();
        p.wal_at += 1;
        match fault {
            Some(WalFault::TornAppend) => p.fired.wal_torn += 1,
            Some(WalFault::FsyncStall(_)) => p.fired.wal_stalls += 1,
            None => {}
        }
        fault
    }

    /// Takes (consumes) the shard fault scheduled for `(epoch, shard)`, if
    /// any. One-shot: a crashed epoch's replay sees no fault.
    pub fn take_shard_fault(&self, epoch: u32, shard: usize) -> Option<ShardFault> {
        let p = &mut *self.pending();
        let fault = p.shard.remove(&(epoch, shard));
        match fault {
            Some(ShardFault::Stall(_)) => p.fired.stalls += 1,
            Some(ShardFault::Crash) => p.fired.crashes += 1,
            None => {}
        }
        fault
    }

    /// The faults fired so far.
    pub fn counters(&self) -> FaultCounters {
        self.pending().fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::CHAOS_SEEDS;
    use std::fmt::Debug;

    /// One digest over a family's schedules at each seed, in seed order.
    fn digest<T: Debug>(schedules: impl Iterator<Item = T>) -> u64 {
        let text: String = schedules.map(|s| format!("{s:?}\n")).collect();
        fnv1a_64_bytes(text.as_bytes())
    }

    /// Every family each named mix draws, pinned at the seeds the chaos
    /// suites run: the in-process, journal and fsync-stall mixes at
    /// [`CHAOS_SEEDS`], the connection mix at `tests/net_chaos.rs`'s seeds.
    /// `robustness_serve.txt` and every chaos outcome rest on these
    /// schedules, so a changed band, horizon or stream fails here first.
    #[test]
    fn named_mixes_draw_the_pinned_schedules() {
        let at = |mix: fn(u64) -> FaultPlan, seeds: &[u64]| -> Vec<FaultPlan> {
            seeds.iter().map(|&s| mix(s)).collect()
        };
        let chaos = at(FaultPlan::chaos, &CHAOS_SEEDS);
        assert_eq!(
            digest(chaos.iter().map(|p| &p.ingest)),
            0x5e8c_a11a_0f8e_2fd2
        );
        assert_eq!(
            digest(chaos.iter().map(|p| &p.shard)),
            0xabef_15c7_3182_2462
        );
        let journal = at(FaultPlan::journal, &CHAOS_SEEDS);
        assert_eq!(
            digest(journal.iter().map(|p| &p.wal)),
            0x037f_87c9_9831_8106
        );
        let stalls = at(FaultPlan::fsync_stalls, &CHAOS_SEEDS);
        assert_eq!(digest(stalls.iter().map(|p| &p.wal)), 0xeb21_8142_4f1e_a479);
        let conn = at(FaultPlan::connections, &[3, 11, 29, 47]);
        assert_eq!(digest(conn.iter().map(|p| &p.conn)), 0xb741_cae5_7919_7e28);
        assert_ne!(
            format!("{:?}", FaultPlan::chaos(42)),
            format!("{:?}", FaultPlan::chaos(43)),
            "different seeds draw different schedules"
        );
    }

    #[test]
    fn injector_consumes_faults_one_shot() {
        let plan = FaultPlan::empty().with_crash(3, 0).with_stall(4, 1, 500);
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.take_shard_fault(3, 0), Some(ShardFault::Crash));
        assert_eq!(inj.take_shard_fault(3, 0), None, "crash fires once");
        assert_eq!(inj.take_shard_fault(4, 1), Some(ShardFault::Stall(500)));
        let c = inj.counters();
        assert_eq!(c.crashes, 1);
        assert_eq!(c.stalls, 1);
    }

    #[test]
    fn each_family_draws_from_its_own_stream() {
        let names = ["ingest", "shard", "conn", "wal"];
        for seed in CHAOS_SEEDS {
            // No two families share a stream.
            let firsts: Vec<u64> = names
                .iter()
                .map(|family| family_stream(seed, family).random())
                .collect();
            for (i, a) in firsts.iter().enumerate() {
                assert!(!firsts[i + 1..].contains(a), "seed {seed}: {}", names[i]);
            }
            // Each mix arms exactly its own families.
            let armed = |p: &FaultPlan| {
                [
                    !p.ingest.is_empty(),
                    !p.shard.is_empty(),
                    !p.conn.is_empty(),
                    !p.wal.is_empty(),
                ]
            };
            assert_eq!(armed(&FaultPlan::chaos(seed)), [true, true, false, false]);
            assert_eq!(
                armed(&FaultPlan::connections(seed)),
                [false, false, true, false]
            );
            assert_eq!(
                armed(&FaultPlan::journal(seed)),
                [false, false, false, true]
            );
            assert_eq!(
                armed(&FaultPlan::fsync_stalls(seed)),
                [false, false, false, true]
            );
            // A family's draws depend on the seed and the family alone,
            // not on the mix: both journal mixes roll the one "wal"
            // stream, so every attempt the journal mix faults (a roll under
            // 0.22) stalls in the fsync-stall mix (a roll under 0.5).
            let stalled = FaultPlan::fsync_stalls(seed).wal;
            for (i, fault) in FaultPlan::journal(seed).wal.iter().enumerate() {
                if fault.is_some() {
                    assert_eq!(stalled[i], Some(WalFault::FsyncStall(15)), "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn wal_faults_consume_one_shot_with_their_own_index() {
        let plan = FaultPlan::empty()
            .with_wal_fault(1, WalFault::TornAppend)
            .with_wal_fault(3, WalFault::FsyncStall(7))
            .with_crash(0, 0);
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.next_wal_fault(), None);
        assert_eq!(inj.next_wal_fault(), Some(WalFault::TornAppend));
        assert_eq!(inj.next_wal_fault(), None);
        assert_eq!(inj.next_wal_fault(), Some(WalFault::FsyncStall(7)));
        assert_eq!(inj.next_wal_fault(), None, "beyond the horizon");
        // The WAL index consumed no shard fault.
        assert_eq!(inj.take_shard_fault(0, 0), Some(ShardFault::Crash));
        let c = inj.counters();
        assert_eq!(c.wal_torn, 1);
        assert_eq!(c.wal_stalls, 1);
    }
}
