//! Deterministic fault injection for the dispatch service.
//!
//! A disaster-time dispatcher must keep producing plans while its own
//! infrastructure degrades: ingestion links drop and reorder events,
//! worker processes die mid-epoch, journal appends tear, snapshots get
//! truncated on a failing disk. This module makes those conditions a
//! *first-class, reproducible test input*: a [`FaultPlan`] is a seeded,
//! inspectable schedule of faults, and a [`FaultInjector`] hands each
//! fault out exactly once.
//!
//! Where a fault is applied follows where it happens. Faults only the
//! process itself can suffer — [`ShardFault`]s and the two [`WalFault`]s
//! — fire at hook points inside [`crate::DispatchService`] and its shard
//! workers. Faults on something that crosses the service boundary are
//! applied by the caller at the point where it crosses: [`IngestFault`]s
//! to requests before [`crate::DispatchService::ingest`], [`ConnFault`]s
//! to frames on the socket, and bit flips to journal files on disk. A [`SnapshotCorruption`] is not scheduled: it is a pure
//! function a test applies to a snapshot text.
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

use mobirescue_sim::fnv1a_64_bytes;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A fault the network applies to one rescue request on its way to
/// [`crate::DispatchService::ingest`]. The caller draws it with
/// [`FaultInjector::next_ingest_fault`] and applies it before the offer.
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
/// TCP front door (`mobirescue-net`). The serve crate owns the schedule —
/// like every other fault kind — and the network chaos harness applies it
/// at the socket, so a front-door chaos run stays a pure function of its
/// fault seed.
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

/// How a snapshot text is damaged on write (failing disk / torn write),
/// applied with [`SnapshotCorruption::apply`] to the text the service
/// returned. The embedded position is reduced modulo the snapshot length
/// when applied, so a corruption stays valid for any snapshot size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotCorruption {
    /// The text is cut short at the given byte offset.
    Truncate(u64),
    /// One byte at the given offset has a bit flipped.
    BitFlip(u64),
}

impl SnapshotCorruption {
    /// The snapshot `text` damaged by this corruption. Snapshot formats
    /// are pure ASCII, so byte surgery stays valid UTF-8;
    /// `from_utf8_lossy` guards the general case anyway.
    pub fn apply(self, text: &str) -> String {
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

/// Probabilities and horizons from which a seeded [`FaultPlan`] is drawn.
///
/// The default arms nothing: it is [`FaultPlanConfig::quiet`] over zero
/// epochs and shards.
#[derive(Debug, Clone, Default)]
pub struct FaultPlanConfig {
    /// Epochs the schedule covers (shard faults are drawn per epoch).
    pub epochs: u32,
    /// Shards the schedule covers.
    pub num_shards: usize,
    /// Request offers covered by ingestion-fault decisions; offers beyond
    /// the horizon pass through clean.
    pub ingest_horizon: usize,
    /// Per-offer probability of [`IngestFault::Drop`].
    pub p_drop: f64,
    /// Per-offer probability of [`IngestFault::Delay`].
    pub p_delay: f64,
    /// Per-offer probability of [`IngestFault::Duplicate`].
    pub p_duplicate: f64,
    /// Per-offer probability of [`IngestFault::Corrupt`].
    pub p_corrupt: f64,
    /// Largest delay, epochs (delays are drawn uniformly in `1..=max`).
    pub max_delay_epochs: u32,
    /// Per-(epoch, shard) probability of [`ShardFault::Stall`].
    pub p_stall: f64,
    /// Per-(epoch, shard) probability of [`ShardFault::Crash`].
    pub p_crash: f64,
    /// Stall magnitude, clock milliseconds (choose it above the service's
    /// epoch deadline to guarantee the fallback trips).
    pub stall_ms: u64,
    /// Frame offers over the TCP front door covered by connection-fault
    /// decisions; offers beyond the horizon are sent clean.
    pub conn_horizon: usize,
    /// Per-frame probability of [`ConnFault::MidFrameDisconnect`].
    pub p_conn_disconnect: f64,
    /// Per-frame probability of [`ConnFault::TornWrite`].
    pub p_conn_torn: f64,
    /// Per-frame probability of [`ConnFault::SlowLoris`].
    pub p_conn_slowloris: f64,
    /// Journaled push attempts covered by WAL-fault decisions; attempts
    /// beyond the horizon append clean.
    pub wal_horizon: usize,
    /// Per-attempt probability of [`WalFault::TornAppend`].
    pub p_wal_torn: f64,
    /// Per-attempt probability of [`WalFault::FsyncStall`].
    pub p_wal_stall: f64,
    /// Fsync-stall magnitude, clock milliseconds.
    pub wal_stall_ms: u64,
}

impl FaultPlanConfig {
    /// The standard chaos mix: every ingestion and shard fault kind armed
    /// with moderate probability.
    pub fn chaos(epochs: u32, num_shards: usize) -> Self {
        Self {
            ingest_horizon: 256,
            p_drop: 0.08,
            p_delay: 0.08,
            p_duplicate: 0.06,
            p_corrupt: 0.05,
            max_delay_epochs: 2,
            p_stall: 0.10,
            p_crash: 0.08,
            stall_ms: 50,
            ..Self::quiet(epochs, num_shards)
        }
    }

    /// The front-door chaos mix: connection faults armed on top of the
    /// standard [`FaultPlanConfig::chaos`] schedule. The network chaos
    /// harness uses this; in-process chaos keeps `conn_horizon == 0`.
    pub fn net_chaos(epochs: u32, num_shards: usize) -> Self {
        Self {
            conn_horizon: 192,
            p_conn_disconnect: 0.08,
            p_conn_torn: 0.10,
            p_conn_slowloris: 0.05,
            ..Self::chaos(epochs, num_shards)
        }
    }

    /// The journal chaos mix: *only* WAL faults armed (torn appends and
    /// fsync stalls). Everything else stays off so journal invariants are
    /// verified against an otherwise-healthy fleet.
    pub fn wal_chaos(epochs: u32, num_shards: usize) -> Self {
        Self {
            wal_horizon: 64,
            p_wal_torn: 0.10,
            p_wal_stall: 0.12,
            wal_stall_ms: 15,
            ..Self::quiet(epochs, num_shards)
        }
    }

    /// No faults at all — the control arm of a chaos comparison.
    pub fn quiet(epochs: u32, num_shards: usize) -> Self {
        Self {
            epochs,
            num_shards,
            max_delay_epochs: 1,
            ..Self::default()
        }
    }
}

/// What a plan has scheduled, by kind — inspectable before the run so
/// tests can assert "faults fired" against "faults were planned".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScheduledFaults {
    /// Ingestion offers with a fault decision.
    pub ingest: usize,
    /// Scheduled stalls.
    pub stalls: usize,
    /// Scheduled crashes.
    pub crashes: usize,
    /// Front-door frame offers with a connection-fault decision.
    pub conn: usize,
    /// Journaled push attempts with a WAL-fault decision.
    pub wal: usize,
}

impl ScheduledFaults {
    /// Whether anything is scheduled at all.
    pub fn any(&self) -> bool {
        self.ingest + self.stalls + self.crashes + self.conn + self.wal > 0
    }
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

/// A deterministic, inspectable schedule of faults.
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

    /// Draws a full schedule from `seed` under `cfg`. The same
    /// `(seed, cfg)` always yields the same plan, and each fault family
    /// draws from its own stream seeded by `(seed, family)`.
    pub fn generate(seed: u64, cfg: &FaultPlanConfig) -> Self {
        let grid = || (0..cfg.epochs).flat_map(|e| (0..cfg.num_shards).map(move |s| (e, s)));
        let mut rng = family_stream(seed, "ingest");
        let ingest_bands = [
            (cfg.p_drop, IngestFault::Drop),
            (cfg.p_delay, IngestFault::Delay(0)),
            (cfg.p_duplicate, IngestFault::Duplicate),
            (cfg.p_corrupt, IngestFault::Corrupt),
        ];
        let ingest = (0..cfg.ingest_horizon)
            .map(|_| match roll(&mut rng, &ingest_bands) {
                Some(IngestFault::Delay(_)) => Some(IngestFault::Delay(
                    rng.random_range(1..=cfg.max_delay_epochs.max(1)),
                )),
                fault => fault,
            })
            .collect();
        let mut rng = family_stream(seed, "shard");
        let shard_bands = [
            (cfg.p_crash, ShardFault::Crash),
            (cfg.p_stall, ShardFault::Stall(cfg.stall_ms)),
        ];
        let shard = grid()
            .filter_map(|key| roll(&mut rng, &shard_bands).map(|f| (key, f)))
            .collect();
        let mut rng = family_stream(seed, "conn");
        let conn_bands = [
            (cfg.p_conn_disconnect, ConnFault::MidFrameDisconnect),
            (cfg.p_conn_torn, ConnFault::TornWrite),
            (cfg.p_conn_slowloris, ConnFault::SlowLoris),
        ];
        let conn = (0..cfg.conn_horizon)
            .map(|_| roll(&mut rng, &conn_bands))
            .collect();
        let mut rng = family_stream(seed, "wal");
        let wal_bands = [
            (cfg.p_wal_torn, WalFault::TornAppend),
            (cfg.p_wal_stall, WalFault::FsyncStall(cfg.wal_stall_ms)),
        ];
        let wal = (0..cfg.wal_horizon)
            .map(|_| roll(&mut rng, &wal_bands))
            .collect();
        Self {
            ingest,
            shard,
            conn,
            wal,
        }
    }

    /// Schedules `fault` for the `offer_index`-th request offer.
    pub fn with_ingest_fault(mut self, offer_index: usize, fault: IngestFault) -> Self {
        set_offer(&mut self.ingest, offer_index, fault);
        self
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

    /// Schedules `fault` for the `offer_index`-th frame sent over the
    /// front door.
    pub fn with_conn_fault(mut self, offer_index: usize, fault: ConnFault) -> Self {
        set_offer(&mut self.conn, offer_index, fault);
        self
    }

    /// Schedules `fault` for the `offer_index`-th journaled push attempt.
    pub fn with_wal_fault(mut self, offer_index: usize, fault: WalFault) -> Self {
        set_offer(&mut self.wal, offer_index, fault);
        self
    }

    /// What the plan has scheduled, by kind.
    pub fn scheduled(&self) -> ScheduledFaults {
        let stalls = self
            .shard
            .values()
            .filter(|f| matches!(f, ShardFault::Stall(_)))
            .count();
        ScheduledFaults {
            ingest: self.ingest.iter().flatten().count(),
            stalls,
            crashes: self.shard.len() - stalls,
            conn: self.conn.iter().flatten().count(),
            wal: self.wal.iter().flatten().count(),
        }
    }
}

/// Schedules `fault` at `index` of an offer-indexed family.
fn set_offer<F: Copy>(offers: &mut Vec<Option<F>>, index: usize, fault: F) {
    if offers.len() <= index {
        offers.resize(index + 1, None);
    }
    offers[index] = Some(fault);
}

/// Cumulative counts of faults that actually *fired* during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Requests the injector drew an ingest fault decision for.
    pub offers: u64,
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

impl FaultCounters {
    /// Faults that degrade an epoch when they fire: stalls past the
    /// deadline.
    pub fn degrading(&self) -> u64 {
        self.stalls
    }

    /// Whether any fault fired at all.
    pub fn any(&self) -> bool {
        self.drops
            + self.delays
            + self.duplicates
            + self.corrupts
            + self.stalls
            + self.crashes
            + self.conn_disconnects
            + self.conn_torn_writes
            + self.conn_slow_loris
            + self.wal_torn
            + self.wal_stalls
            > 0
    }
}

/// Hands out a [`FaultPlan`]'s faults, each exactly once — to the
/// service's hook points and to the callers that apply boundary faults —
/// with cumulative fired-fault counters.
#[derive(Debug)]
pub struct FaultInjector {
    scheduled: ScheduledFaults,
    state: Mutex<Pending>,
}

/// What an injector has yet to fire, and what it has fired so far.
#[derive(Debug, Default)]
struct Pending {
    /// The plan minus every keyed or queued fault that already fired.
    plan: FaultPlan,
    /// The next offer of each offer-indexed family. Each advances on its
    /// own, so front-door frames and journal appends never shift the
    /// ingest schedule, and vice versa.
    ingest_at: usize,
    conn_at: usize,
    wal_at: usize,
    fired: FaultCounters,
}

/// The fault (if any) for the next offer of an offer-indexed family.
fn next_offer<F: Copy>(offers: &[Option<F>], at: &mut usize) -> Option<F> {
    let fault = offers.get(*at).copied().flatten();
    *at += 1;
    fault
}

impl FaultInjector {
    /// An injector executing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            scheduled: plan.scheduled(),
            state: Mutex::new(Pending {
                plan,
                ..Pending::default()
            }),
        }
    }

    /// An injector executing the schedule drawn from `(seed, cfg)`.
    pub fn from_seed(seed: u64, cfg: &FaultPlanConfig) -> Self {
        Self::new(FaultPlan::generate(seed, cfg))
    }

    /// What the underlying plan scheduled (fixed at construction).
    pub fn scheduled(&self) -> ScheduledFaults {
        self.scheduled
    }

    fn pending(&self) -> MutexGuard<'_, Pending> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The fault (if any) for the next request on its way to the service.
    /// Counts the request and the fired fault.
    pub fn next_ingest_fault(&self) -> Option<IngestFault> {
        let p = &mut *self.pending();
        p.fired.offers += 1;
        let fault = next_offer(&p.plan.ingest, &mut p.ingest_at);
        match fault {
            Some(IngestFault::Drop) => p.fired.drops += 1,
            Some(IngestFault::Delay(_)) => p.fired.delays += 1,
            Some(IngestFault::Duplicate) => p.fired.duplicates += 1,
            Some(IngestFault::Corrupt) => p.fired.corrupts += 1,
            None => {}
        }
        fault
    }

    /// The fault (if any) for the next frame offered over the front door.
    /// Consumes the offer index and counts the fired fault.
    pub fn next_conn_fault(&self) -> Option<ConnFault> {
        let p = &mut *self.pending();
        let fault = next_offer(&p.plan.conn, &mut p.conn_at);
        match fault {
            Some(ConnFault::MidFrameDisconnect) => p.fired.conn_disconnects += 1,
            Some(ConnFault::TornWrite) => p.fired.conn_torn_writes += 1,
            Some(ConnFault::SlowLoris) => p.fired.conn_slow_loris += 1,
            None => {}
        }
        fault
    }

    /// The fault (if any) for the next journaled push attempt.
    pub fn next_wal_fault(&self) -> Option<WalFault> {
        let p = &mut *self.pending();
        let fault = next_offer(&p.plan.wal, &mut p.wal_at);
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
        let fault = p.plan.shard.remove(&(epoch, shard));
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

    #[test]
    fn plans_are_deterministic_and_inspectable() {
        let cfg = FaultPlanConfig::chaos(8, 2);
        let a = FaultPlan::generate(42, &cfg);
        let b = FaultPlan::generate(42, &cfg);
        assert_eq!(a.scheduled(), b.scheduled());
        assert_eq!(a.ingest, b.ingest);
        assert_eq!(a.shard, b.shard);
        let c = FaultPlan::generate(43, &cfg);
        assert_ne!(
            (a.ingest.clone(), a.shard.clone()),
            (c.ingest.clone(), c.shard.clone()),
            "different seeds draw different schedules"
        );
        let quiet = FaultPlan::generate(42, &FaultPlanConfig::quiet(8, 2));
        assert!(!quiet.scheduled().any());
    }

    #[test]
    fn injector_consumes_faults_one_shot() {
        let plan = FaultPlan::empty()
            .with_crash(3, 0)
            .with_stall(4, 1, 500)
            .with_ingest_fault(1, IngestFault::Drop);
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.next_ingest_fault(), None);
        assert_eq!(inj.next_ingest_fault(), Some(IngestFault::Drop));
        assert_eq!(inj.next_ingest_fault(), None, "beyond the horizon");
        assert_eq!(inj.take_shard_fault(3, 0), Some(ShardFault::Crash));
        assert_eq!(inj.take_shard_fault(3, 0), None, "crash fires once");
        assert_eq!(inj.take_shard_fault(4, 1), Some(ShardFault::Stall(500)));
        let c = inj.counters();
        assert_eq!(c.offers, 3);
        assert_eq!(c.drops, 1);
        assert_eq!(c.crashes, 1);
        assert_eq!(c.stalls, 1);
        assert!(c.any());
    }

    #[test]
    fn each_family_draws_from_its_own_stream() {
        let all = FaultPlanConfig {
            p_crash: 0.3,
            p_stall: 0.3,
            wal_horizon: 64,
            p_wal_torn: 0.2,
            p_wal_stall: 0.2,
            wal_stall_ms: 10,
            ..FaultPlanConfig::net_chaos(6, 2)
        };
        let families = |cfg: &FaultPlanConfig| {
            let p = FaultPlan::generate(7, cfg);
            [
                format!("{:?}", p.ingest),
                format!("{:?}", p.shard),
                format!("{:?}", p.conn),
                format!("{:?}", p.wal),
            ]
        };
        let armed = families(&all);
        let disarms: [fn(&mut FaultPlanConfig); 4] = [
            |c| c.ingest_horizon = 0,
            |c| (c.p_crash, c.p_stall) = (0.0, 0.0),
            |c| c.conn_horizon = 0,
            |c| c.wal_horizon = 0,
        ];
        // Disarming one family empties exactly that family and leaves
        // every other family's draws untouched.
        for (i, disarm) in disarms.iter().enumerate() {
            let mut cfg = all.clone();
            disarm(&mut cfg);
            for (j, (a, b)) in armed.iter().zip(families(&cfg)).enumerate() {
                assert_eq!(*a == b, i != j, "disarming family {i} vs family {j}");
            }
        }
        // The dedicated journal mix arms only its own family.
        let wal = FaultPlan::generate(7, &FaultPlanConfig::wal_chaos(8, 2)).scheduled();
        assert!(wal.wal > 0);
        assert_eq!(
            wal,
            ScheduledFaults {
                wal: wal.wal,
                ..ScheduledFaults::default()
            }
        );
    }

    #[test]
    fn conn_faults_consume_one_shot_with_their_own_index() {
        let plan = FaultPlan::empty()
            .with_conn_fault(1, ConnFault::TornWrite)
            .with_conn_fault(2, ConnFault::MidFrameDisconnect)
            .with_conn_fault(3, ConnFault::SlowLoris)
            .with_ingest_fault(0, IngestFault::Drop);
        assert_eq!(plan.scheduled().conn, 3);
        assert!(plan.scheduled().any());
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.next_conn_fault(), None);
        assert_eq!(inj.next_conn_fault(), Some(ConnFault::TornWrite));
        assert_eq!(inj.next_conn_fault(), Some(ConnFault::MidFrameDisconnect));
        assert_eq!(inj.next_conn_fault(), Some(ConnFault::SlowLoris));
        assert_eq!(inj.next_conn_fault(), None, "beyond the horizon");
        // The conn index did not consume the ingest schedule.
        assert_eq!(inj.next_ingest_fault(), Some(IngestFault::Drop));
        let c = inj.counters();
        assert_eq!(c.conn_disconnects, 1);
        assert_eq!(c.conn_torn_writes, 1);
        assert_eq!(c.conn_slow_loris, 1);
        assert!(c.any());
    }

    #[test]
    fn wal_faults_consume_one_shot_with_their_own_index() {
        let plan = FaultPlan::empty()
            .with_wal_fault(1, WalFault::TornAppend)
            .with_wal_fault(3, WalFault::FsyncStall(7))
            .with_ingest_fault(0, IngestFault::Drop)
            .with_conn_fault(0, ConnFault::TornWrite);
        assert_eq!(plan.scheduled().wal, 2);
        assert!(plan.scheduled().any());
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.next_wal_fault(), None);
        assert_eq!(inj.next_wal_fault(), Some(WalFault::TornAppend));
        assert_eq!(inj.next_wal_fault(), None);
        assert_eq!(inj.next_wal_fault(), Some(WalFault::FsyncStall(7)));
        assert_eq!(inj.next_wal_fault(), None, "beyond the horizon");
        // The WAL index consumed neither the ingest nor the conn schedule.
        assert_eq!(inj.next_ingest_fault(), Some(IngestFault::Drop));
        assert_eq!(inj.next_conn_fault(), Some(ConnFault::TornWrite));
        let c = inj.counters();
        assert_eq!(c.wal_torn, 1);
        assert_eq!(c.wal_stalls, 1);
        assert!(c.any());
    }

    #[test]
    fn snapshot_corruption_damages_text() {
        let original = "mrserve 1\nepochs 3\nend\nsum 0123456789abcdef\n";
        let flipped = SnapshotCorruption::BitFlip(7).apply(original);
        assert_ne!(flipped, original);
        assert_eq!(flipped.len(), original.len());
        let truncated = SnapshotCorruption::Truncate(5).apply(original);
        assert!(truncated.len() < original.len());
    }
}
