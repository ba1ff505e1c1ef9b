//! The chaos harness: runs a full [`DispatchService`] under a seeded
//! fault schedule and checks the graceful-degradation invariants.
//!
//! Shared by the `tests/chaos.rs` suite in the workspace facade and the
//! `chaos` binary in `mobirescue-bench`, so a failing seed from a sweep
//! reproduces byte-for-byte as a test. Everything runs on a
//! [`SimClock`], so a run is a pure function of its fault plan. Each arm
//! runs one fixed configuration on [`CHAOS_SHARDS`] shards; only the
//! seed and the plan vary.
//!
//! Invariants checked after every run (violations are returned as
//! strings, one per broken invariant, rather than panicking — the caller
//! decides whether to assert or report):
//!
//! 1. **No epoch skipped silently** — the service completes exactly
//!    [`CHAOS_EPOCHS`] epochs and every epoch yields one report per
//!    shard, faults or not.
//! 2. **Metrics conservation** — admitted + shed equals the offers that
//!    reached the service, less the corrupt ones its validation refused,
//!    plus its retries; and everything admitted is either injected into
//!    a world, rejected by it, or still queued.
//! 3. **Degradation is honest** — `degraded_epochs` is positive iff a
//!    degrading fault (a stall past the deadline) actually fired, never
//!    exceeds the number fired, and every fired stall degrades exactly
//!    its own shard epoch.
//! 4. **Crashes never outlive recovery** — every fired crash maps to
//!    exactly one shard restart.
//! 5. **Snapshot integrity** — the final snapshot restores to an equal
//!    service.
//!
//! [`run_chaos`] exercises only retry *exhaustion*: its queues drain only
//! in [`DispatchService::run_epoch`], which a retry's backoff sleep never
//! reaches, so a shed offer is shed again on every retry. The retry that
//! succeeds is pinned by `crates/serve/tests/service.rs`.
//!
//! The service draws only the faults it alone can suffer. Every other
//! fault is applied here, to what crosses the service boundary, where it
//! crosses: the network's drop, delay, duplicate and corrupt faults to
//! each request before it is offered, and bit rot to the journal file on
//! disk.
//!
//! [`wal_chaos_divergence`] covers the durable ingest journal
//! ([`crate::wal`]): torn appends surface as typed refusals with the
//! conservation law `acked == dispatched + still_journaled` intact, fsync
//! stalls never perturb state, a process killed at *any byte offset* of
//! the journal recovers bit-identical to a twin that never crashed, and
//! an interior bit flip is a typed [`crate::WalError::Corrupt`] refusal
//! naming the segment and offset.
//!
//! Every bit-identity check runs through one twin harness. An *arm* is a
//! service configuration and the standard request stream; its twins run
//! it under the arm's fault plan and as the plain service (no injector,
//! no `auto_recover`), with the same checks on both, and must end with
//! equal metrics and journal sequence, and byte-identical snapshot text.

use crate::bundle::ModelBundle;
use crate::clock::{Clock, SimClock};
use crate::error::ServeError;
use crate::fault::{
    family_stream, FaultCounters, FaultInjector, FaultPlan, FaultPlanConfig, IngestFault, WalFault,
};
use crate::metrics::MetricsSnapshot;
use crate::service::{DispatchService, ServeConfig};
use crate::wal::{FsyncPolicy, WalConfig, WalError};
use mobirescue_core::scenario::{Scenario, ScenarioConfig};
use mobirescue_obs::{ObsSnapshot, TimeSource as _};
use mobirescue_roadnet::graph::SegmentId;
use mobirescue_sim::{EpochReport, RequestSpec, SimConfig};
use rand::RngExt;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The pinned seed set every chaos sweep and pinned test shares — the
/// chaos binary and the `tests/*_chaos.rs` suites iterate this one
/// constant, so a failing seed from a sweep reproduces as a test without
/// translation.
pub const CHAOS_SEEDS: [u64; 5] = [11, 23, 37, 41, 53];

/// Dispatch epochs a [`run_chaos`] run drives.
pub const CHAOS_EPOCHS: u32 = 6;

/// City shards every chaos arm hosts.
pub const CHAOS_SHARDS: usize = 2;

/// One [`run_chaos`] run: the fault plan and the seed it is labeled with.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// The seed the run's summary is labeled with.
    pub seed: u64,
    /// The fault schedule to execute.
    pub plan: FaultPlan,
}

impl ChaosOptions {
    /// The standard sweep run: the full fault mix drawn from `seed`.
    pub fn seeded(seed: u64) -> Self {
        let cfg = FaultPlanConfig::chaos(CHAOS_EPOCHS, CHAOS_SHARDS);
        Self {
            seed,
            plan: FaultPlan::generate(seed, &cfg),
        }
    }
}

/// Everything a chaos run produced, for reporting and assertions.
#[derive(Debug)]
pub struct ChaosOutcome {
    /// The seed the run was labeled with.
    pub seed: u64,
    /// What actually fired.
    pub counters: FaultCounters,
    /// Delayed requests the harness offered once their delay ran out
    /// (the rest of `counters.delays` were still held at the end).
    pub delays_released: u64,
    /// Final service metrics.
    pub metrics: MetricsSnapshot,
    /// Shard workers restarted from a checkpoint.
    pub restarts: u64,
    /// The service's observability registry at the end of the run
    /// (per-phase epoch histograms, `serve.*` counters, routing gauges).
    /// Diagnostic output only — never part of any invariant: each run
    /// owns a private registry, so twins stay comparable.
    pub obs: ObsSnapshot,
    /// Broken invariants (empty on a clean run).
    pub violations: Vec<String>,
}

impl ChaosOutcome {
    /// Whether every invariant held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// A one-line report for sweep output.
    pub fn summary(&self) -> String {
        let mut line = format!(
            "seed {:>4}: epochs {} degraded {} | fired: drop {} delay {}({} released) dup {} \
             corrupt {} stall {} crash {} | restarts {} retries {} shed {} -> {}",
            self.seed,
            self.metrics.epochs_completed,
            self.metrics.degraded_epochs,
            self.counters.drops,
            self.counters.delays,
            self.delays_released,
            self.counters.duplicates,
            self.counters.corrupts,
            self.counters.stalls,
            self.counters.crashes,
            self.restarts,
            self.metrics.ingest_retries,
            self.metrics.requests_shed,
            if self.ok() { "OK" } else { "FAIL" },
        );
        for v in &self.violations {
            let _ = write!(line, "\n  violation: {v}");
        }
        line
    }
}

/// The standard small two-shard scenario every serve test runs on.
pub fn chaos_scenario() -> Scenario {
    ScenarioConfig::small().florence().build(11)
}

/// Epoch `epoch`'s standard request stream: `per_shard` requests for
/// each shard, as `(shard, request)` pairs.
fn request_events(epoch: u32, per_shard: usize, segments: u32) -> Vec<(usize, RequestSpec)> {
    let mut events = Vec::with_capacity(CHAOS_SHARDS * per_shard);
    for shard in 0..CHAOS_SHARDS {
        for i in 0..per_shard {
            let mix = epoch as usize * 53 + i * 17 + shard * 29;
            events.push((
                shard,
                RequestSpec {
                    appear_s: epoch * 300 + (i as u32 * 37) % 300,
                    segment: SegmentId((mix as u32) % segments),
                },
            ));
        }
    }
    events
}

/// One chaos arm: a service configuration and the standard request
/// stream on the chaos scenario, served by the default model bundle. The
/// twins of an arm share all of it and differ only in their fault plan,
/// so any difference between their ends is the plan's doing.
#[derive(Clone)]
struct Arm {
    scenario: Arc<Scenario>,
    config: ServeConfig,
    epochs: u32,
    per_shard: usize,
}

/// A started run of an arm: the live service and what the checks read.
struct Live {
    service: DispatchService,
    clock: Arc<SimClock>,
    injector: Arc<FaultInjector>,
    violations: Vec<String>,
}

/// A finished run's end state, as a twin comparison reads it.
struct RunEnd {
    snapshot: String,
    metrics: MetricsSnapshot,
    wal_seq: u64,
    violations: Vec<String>,
}

impl Arm {
    /// An arm of `epochs` epochs with `per_shard` request offers per shard
    /// per epoch, on [`CHAOS_SHARDS`] shards with request queues of 8.
    fn new(epochs: u32, per_shard: usize) -> Self {
        let mut config = ServeConfig::new(SimConfig::small(6));
        config.num_shards = CHAOS_SHARDS;
        config.request_queue_capacity = 8;
        Self {
            scenario: Arc::new(chaos_scenario()),
            config,
            epochs,
            per_shard,
        }
    }

    /// The number of road segments requests are placed on.
    fn segments(&self) -> u32 {
        self.scenario.city.network.num_segments() as u32
    }

    /// This arm with its journal in `dir`. One segment keeps the crash
    /// arm's byte-offset arithmetic over a single file (rotation and
    /// compaction have their own unit coverage).
    fn journaled(&self, dir: &Path) -> Self {
        let mut wal = WalConfig::new(dir);
        wal.segment_max_bytes = 1 << 20;
        wal.fsync = FsyncPolicy::Always;
        let mut arm = self.clone();
        arm.config.wal = Some(wal);
        arm
    }

    /// Starts the arm's service on a fresh simulated clock. With a plan,
    /// an injector executing it is attached; with `None` the run is the
    /// plain service — no injector, and `auto_recover` off as
    /// [`ServeConfig`] defaults it — though the run still holds an empty
    /// injector so checks read the same counters. `restore` restores a
    /// snapshot over whatever journal the arm's directory holds; without
    /// it the service starts fresh over an emptied journal directory.
    fn start(&self, plan: Option<FaultPlan>, restore: Option<&str>) -> Result<Live, ServeError> {
        let attach = plan.is_some();
        let injector = Arc::new(FaultInjector::new(plan.unwrap_or_else(FaultPlan::empty)));
        let mut config = self.config.clone();
        config.faults = attach.then(|| Arc::clone(&injector));
        config.auto_recover &= attach;
        let clock = Arc::new(SimClock::new());
        let scenario = Arc::clone(&self.scenario);
        let service_clock = Arc::clone(&clock) as Arc<dyn Clock>;
        let bundle = Arc::new(ModelBundle::default());
        let service = match restore {
            Some(text) => DispatchService::restore(scenario, config, service_clock, bundle, text)?,
            None => {
                if let Some(wal) = &config.wal {
                    fresh_dir(&wal.dir);
                }
                DispatchService::start(scenario, config, service_clock, bundle)?
            }
        };
        Ok(Live {
            service,
            clock,
            injector,
            violations: Vec::new(),
        })
    }

    /// Offers epoch `e` of the standard request stream to `run`; an
    /// ingest error is a violation.
    fn offer(&self, run: &Live, e: u32, violations: &mut Vec<String>) {
        for (shard, spec) in request_events(e, self.per_shard, self.segments()) {
            if let Err(err) = run.service.ingest(shard, spec) {
                violations.push(format!("epoch {e}: unexpected ingest error: {err}"));
            }
        }
    }

    /// The twin experiment: drives the standard request stream through
    /// every epoch under `plan`, and again on the plain service, with the
    /// same boundary and end checks on both. Returns every violation of
    /// either run followed by every difference between their ends.
    fn twins(
        &self,
        name: &str,
        plan: FaultPlan,
        at_boundary: impl Fn(&Live, u32, &mut Vec<String>),
        check: impl Fn(&mut Live),
    ) -> Result<Vec<String>, ServeError> {
        let one = |plan| -> Result<RunEnd, ServeError> {
            let mut run = self.start(plan, None)?;
            run.drive(
                self.epochs,
                |run, e, violations| self.offer(run, e, violations),
                |run, e, _, violations| at_boundary(run, e, violations),
            )?;
            check(&mut run);
            run.end()
        };
        let faulted = one(Some(plan))?;
        let clean = one(None)?;
        let diverged = divergences("twins", (name, &faulted), ("clean", &clean));
        let mut out = faulted.violations;
        out.extend(clean.violations.iter().map(|v| format!("clean twin: {v}")));
        out.extend(diverged);
        Ok(out)
    }
}

impl Live {
    /// Drives `epochs` epochs. `offer(run, e, violations)` feeds epoch
    /// `e`'s requests: epoch 0 up front, every later epoch at the previous
    /// boundary, right after `at_boundary(run, e, reports, violations)`.
    /// What either reports joins the run's violations. After each epoch
    /// the clock sleeps to that epoch's fixed deadline,
    /// `start + (e+1)·period`, as a deployment paces its dispatch period.
    fn drive(
        &mut self,
        epochs: u32,
        mut offer: impl FnMut(&Live, u32, &mut Vec<String>),
        mut at_boundary: impl FnMut(&Live, u32, &[EpochReport], &mut Vec<String>),
    ) -> Result<(), ServeError> {
        let mut violations = Vec::new();
        let run = &*self;
        let period_ms = u64::from(run.service.config().sim.dispatch_period_s) * 1_000;
        offer(run, 0, &mut violations);
        let start = run.clock.now_ms();
        for e in 0..epochs {
            let reports = run.service.run_epoch()?;
            at_boundary(run, e, &reports, &mut violations);
            if e + 1 < epochs {
                offer(run, e + 1, &mut violations);
            }
            let deadline = start + u64::from(e + 1) * period_ms;
            let now = run.clock.now_ms();
            run.clock.sleep_ms(deadline.saturating_sub(now));
        }
        self.violations.append(&mut violations);
        Ok(())
    }

    /// Snapshots the run, shuts it down, and returns its end state.
    fn end(mut self) -> Result<RunEnd, ServeError> {
        let end = RunEnd {
            snapshot: self.service.snapshot()?,
            metrics: self.service.metrics(),
            wal_seq: self.service.wal_last_seq(),
            violations: std::mem::take(&mut self.violations),
        };
        self.shutdown();
        Ok(end)
    }

    /// Shuts the run down and empties its journal directory.
    fn shutdown(self) {
        let journal = self.service.config().wal.as_ref().map(|w| w.dir.clone());
        self.service.shutdown();
        if let Some(dir) = journal {
            fresh_dir(&dir);
        }
    }
}

/// How two runs' ends differ — metrics, journal sequence, and the first
/// byte where their snapshot texts differ — as violation messages under
/// `label`; empty when the ends are identical.
fn divergences(
    label: &str,
    (a_name, a): (&str, &RunEnd),
    (b_name, b): (&str, &RunEnd),
) -> Vec<String> {
    let mut out = Vec::new();
    if a.metrics != b.metrics {
        out.push(format!(
            "{label}: metrics diverged between the {a_name} and {b_name} runs"
        ));
    }
    if a.wal_seq != b.wal_seq {
        out.push(format!(
            "{label}: journal at seq {} in the {a_name} run, {} in the {b_name} run",
            a.wal_seq, b.wal_seq
        ));
    }
    if a.snapshot != b.snapshot {
        let at = a
            .snapshot
            .bytes()
            .zip(b.snapshot.bytes())
            .position(|(x, y)| x != y)
            .unwrap_or_else(|| a.snapshot.len().min(b.snapshot.len()));
        out.push(format!(
            "{label}: snapshot texts diverge at byte {at} ({a_name} {} bytes, {b_name} {} bytes)",
            a.snapshot.len(),
            b.snapshot.len()
        ));
    }
    out
}

/// The admitted requests the shards account for: injected into a world,
/// rejected by it, or still queued.
fn accounted(metrics: &MetricsSnapshot) -> u64 {
    metrics
        .shards
        .iter()
        .map(|s| s.injected + s.rejected + s.queue_depth as u64)
        .sum()
}

/// Runs the full service under `opts` and checks every invariant: six
/// request offers per shard per epoch into queues of 4, each retried up
/// to 3 times when shed, and a 10 ms dispatch deadline that every plan
/// stall overshoots. The plan's ingest faults are the network's: each
/// request draws one before it is offered, and a held request is offered
/// at the boundary before the epoch its delay runs out in.
///
/// # Errors
///
/// Returns the first *unexpected* service error — corrupt requests
/// rejected at ingestion are part of the contract and checked, not
/// propagated.
pub fn run_chaos(opts: &ChaosOptions) -> Result<ChaosOutcome, ServeError> {
    let mut arm = Arm::new(CHAOS_EPOCHS, 6);
    arm.config.request_queue_capacity = 4;
    arm.config.epoch_deadline_ms = Some(10);
    arm.config.auto_recover = true;
    let mut run = arm.start(Some(opts.plan.clone()), None)?;
    let segments = arm.segments();

    // The harness counts what reached the service itself, so the
    // service's queue counters are checked against an independent tally.
    let mut reached = 0u64;
    let mut rejected_corrupt = 0u64;
    let mut released = 0u64;
    let mut held: Vec<(u32, (usize, RequestSpec))> = Vec::new();
    run.drive(
        CHAOS_EPOCHS,
        |run, epoch, violations| {
            let service = &run.service;
            let mut offer = |(shard, spec): (usize, RequestSpec)| {
                reached += 1;
                match service.ingest_with_retry(shard, spec, 3) {
                    Ok(_) => {}
                    Err(ServeError::World(_)) => rejected_corrupt += 1,
                    Err(e) => violations.push(format!("unexpected ingest error: {e}")),
                }
            };
            for event in request_events(epoch, arm.per_shard, segments) {
                match run.injector.next_ingest_fault() {
                    None => offer(event),
                    Some(IngestFault::Drop) => {}
                    Some(IngestFault::Delay(k)) => held.push((epoch + k.max(1), event)),
                    Some(IngestFault::Duplicate) => {
                        offer(event);
                        offer(event);
                    }
                    Some(IngestFault::Corrupt) => {
                        // Damaged in flight: a segment no city has.
                        let (shard, spec) = event;
                        let segment = SegmentId(u32::MAX);
                        offer((shard, RequestSpec { segment, ..spec }));
                    }
                }
            }
            let (due, later) = held.drain(..).partition(|&(at, _)| at <= epoch);
            held = later;
            for (_, event) in due {
                released += 1;
                offer(event);
            }
        },
        |_, e, reports, violations| {
            if reports.len() != CHAOS_SHARDS {
                violations.push(format!(
                    "epoch {e} produced {} reports for {CHAOS_SHARDS} shards",
                    reports.len()
                ));
            }
        },
    )?;
    let mut violations = std::mem::take(&mut run.violations);
    let (service, injector) = (&run.service, &run.injector);

    let metrics = service.metrics();
    let counters = injector.counters();
    let restarts = service.shard_restarts();

    // Invariant 1: no epoch skipped silently.
    if metrics.epochs_completed != CHAOS_EPOCHS {
        violations.push(format!(
            "completed {} epochs, expected {CHAOS_EPOCHS}",
            metrics.epochs_completed
        ));
    }
    for (i, s) in metrics.shards.iter().enumerate() {
        if s.epochs != CHAOS_EPOCHS {
            violations.push(format!(
                "shard {i} at epoch {}, expected {CHAOS_EPOCHS}",
                s.epochs
            ));
        }
    }

    // Invariant 2: conservation. Validation refuses exactly the corrupt
    // requests; every other offer that reached the service, and every
    // retry, pushed into a queue once (admitted or shed).
    if rejected_corrupt != counters.corrupts {
        violations.push(format!(
            "{} typed corrupt rejections for {} corrupt faults",
            rejected_corrupt, counters.corrupts
        ));
    }
    let pushes_expected = reached - rejected_corrupt + metrics.ingest_retries;
    let pushes = metrics.requests_accepted + metrics.requests_shed;
    if pushes != pushes_expected {
        violations.push(format!(
            "accepted {} + shed {} = {pushes}, conservation expects {pushes_expected}",
            metrics.requests_accepted, metrics.requests_shed
        ));
    }
    let consumed = accounted(&metrics);
    if metrics.requests_accepted != consumed {
        violations.push(format!(
            "accepted {} but shards account for {consumed} (injected + rejected + queued)",
            metrics.requests_accepted
        ));
    }

    // Invariant 3: degradation is honest.
    let degrading = counters.degrading();
    if (metrics.degraded_epochs > 0) != (degrading > 0) {
        violations.push(format!(
            "degraded_epochs {} with {degrading} degrading faults fired",
            metrics.degraded_epochs
        ));
    }
    if metrics.degraded_epochs > degrading {
        violations.push(format!(
            "degraded_epochs {} exceeds degrading faults fired {degrading}",
            metrics.degraded_epochs
        ));
    }
    // Every stall overshoots the deadline, and a shard epoch holds one
    // shard fault at most, so each fired stall degrades its own shard
    // epoch once.
    let shard_degraded: u64 = metrics.shards.iter().map(|s| s.degraded).sum();
    if shard_degraded != counters.stalls {
        violations.push(format!(
            "shards report {shard_degraded} degraded epochs for {} stalls fired",
            counters.stalls
        ));
    }

    // Invariant 4: every crash was recovered, nothing else restarted.
    if restarts != counters.crashes {
        violations.push(format!(
            "{restarts} restarts for {} crashes",
            counters.crashes
        ));
    }

    // Invariant 5: snapshot integrity. The final snapshot restores to an
    // equal service.
    let snapshot = service.snapshot()?;
    match arm.start(Some(FaultPlan::empty()), Some(&snapshot)) {
        Ok(restored) => {
            if restored.service.metrics() != metrics {
                violations.push("restored metrics differ from the live service".to_owned());
            }
            restored.shutdown();
        }
        Err(e) => violations.push(format!("snapshot restore failed unexpectedly: {e}")),
    }

    let obs = service.obs_snapshot();
    run.shutdown();
    Ok(ChaosOutcome {
        seed: opts.seed,
        counters,
        delays_released: released,
        metrics,
        restarts,
        obs,
        violations,
    })
}

/// The replay-masking check: a service whose shards crash (and recover
/// from checkpoints) must end **bit-identical** — snapshot text equality —
/// to an unfaulted twin fed the same event stream, because each crash's
/// faults are consumed when they fire and the replayed epoch runs clean.
///
/// Over six epochs, shard 0 crashes at epochs 0 and 4 and shard 1 at
/// epoch 2. The epoch-0 crash recovers from "no checkpoint yet", which
/// restarts a fresh world: exactly the pre-epoch-0 state.
///
/// Returns the list of divergences (empty when the runs converged).
///
/// # Errors
///
/// Returns the first service error from either run.
pub fn crash_replay_divergence() -> Result<Vec<String>, ServeError> {
    let mut arm = Arm::new(6, 4);
    arm.config.epoch_deadline_ms = Some(10);
    arm.config.auto_recover = true;
    let plan = FaultPlan::empty()
        .with_crash(0, 0)
        .with_crash(2, 1)
        .with_crash(4, 0);
    let divergences = arm.twins(
        "crashed",
        plan,
        |_, _, _| {},
        |run| {
            let fired = run.injector.counters().crashes;
            let scheduled = run.injector.scheduled().crashes;
            if fired != scheduled as u64 {
                run.violations
                    .push(format!("{fired} crashes fired, {scheduled} scheduled"));
            }
            let restarts = run.service.shard_restarts();
            if restarts != fired {
                run.violations
                    .push(format!("{restarts} restarts for {fired} crashes"));
            }
        },
    )?;
    Ok(divergences)
}

fn wal_chaos_dir(seed: u64, arm: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "mobirescue-walchaos-{}-{seed}-{arm}",
        std::process::id()
    ))
}

fn fresh_dir(dir: &Path) {
    let _ = fs::remove_dir_all(dir);
}

/// The one journal segment a [`Arm::journaled`] run produced.
fn only_segment(dir: &Path) -> Result<PathBuf, String> {
    let mut segs: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("journal dir unreadable: {e}"))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    segs.sort();
    match segs.len() {
        1 => Ok(segs.remove(0)),
        n => Err(format!("expected one journal segment, found {n}")),
    }
}

/// Flips one bit of the first record in the journal segment at `path`, in
/// place: terminated interior damage, which no crash can leave. Returns
/// the segment's file name and the record's byte offset.
fn flip_first_record(path: &Path) -> Result<(String, u64), String> {
    let mut bytes = fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let record = bytes
        .iter()
        .position(|&b| b == b'\n')
        .map_or(bytes.len(), |i| i + 1);
    // Byte 4 of `rec <seq> ...` is the sequence number's first digit.
    let byte = bytes
        .get_mut(record + 4)
        .ok_or("the journal holds no record to flip")?;
    *byte ^= 0x10;
    fs::write(path, &bytes).map_err(|e| format!("write {}: {e}", path.display()))?;
    let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
    Ok((name.unwrap_or_default(), record as u64))
}

/// The durable-ingest-journal invariants, checked as four arms over
/// eight epochs of four request offers per shard:
///
/// **Arm A (seeded torn appends + fsync stalls):**
/// * every injected torn append surfaces as a typed
///   [`ServeError::Wal`]([`WalError::TornTail`]) refusal at ingestion —
///   the request was never made durable, so it is never acked;
/// * **conservation** — every acked (admitted) request is dispatched
///   (injected into a world), rejected by it, or still journaled in a
///   queue: `acked == dispatched + still_journaled`;
/// * the journal stays parseable through every injected tear (the tail
///   self-heals exactly as recovery would truncate it), so the final
///   snapshot restores over the same journal directory to an equal
///   service.
///
/// **Arm A2 (stall-only twin):** a run whose appends stall on fsync ends
/// **bit-identical** — snapshot text, metrics and journal sequence — to a
/// twin that never stalled: durability latency must never leak into
/// state.
///
/// **Arm B (kill -9 at any byte):** a reference run snapshots at the
/// halfway boundary, journals one more epoch's offers, then finishes
/// cleanly. For each crash offset — right after the boundary snapshot,
/// after every post-snapshot offer, and three seeded interior bytes (torn
/// mid-record included) — a twin restores from the boundary snapshot plus
/// the journal *truncated at that byte*, re-offers exactly the suffix the
/// truncated journal lost (the client-retry model: an un-journaled offer
/// was never acked), runs the remaining epochs, and must end
/// **bit-identical** to the reference: snapshot text, metrics, and
/// journal sequence numbers.
///
/// **Arm C (interior bit flip):** after a run, one byte of the first
/// record flips in the segment file itself, in place (silent storage
/// rot). Recovery must *refuse* with a typed [`WalError::Corrupt`] naming
/// that segment and the record's byte offset — never a panic, never a
/// silent wrong replay.
///
/// Returns the list of violations/divergences (empty on a clean run).
///
/// # Errors
///
/// Returns the first *unexpected* service error from any run (typed torn
/// refusals and the arm-C corrupt rejection are the contract, not
/// errors).
pub fn wal_chaos_divergence(seed: u64) -> Result<Vec<String>, ServeError> {
    let epochs = 8;
    let base = Arm::new(epochs, 4);
    let segments = base.segments();
    let mut violations = Vec::new();

    // ---- Arm A: seeded torn appends + fsync stalls, one of each forced.
    {
        let cfg = FaultPlanConfig::wal_chaos(epochs, CHAOS_SHARDS);
        let plan = FaultPlan::generate(seed, &cfg)
            .with_wal_fault(1, WalFault::TornAppend)
            .with_wal_fault(4, WalFault::FsyncStall(7));
        let arm = base.journaled(&wal_chaos_dir(seed, "a"));
        let mut run = arm.start(Some(plan), None)?;
        let mut torn_refused = 0u64;
        run.drive(
            epochs,
            |run, epoch, violations| {
                for (shard, spec) in request_events(epoch, base.per_shard, segments) {
                    match run.service.ingest(shard, spec) {
                        Ok(_) => {}
                        Err(ServeError::Wal(WalError::TornTail { .. })) => torn_refused += 1,
                        Err(e) => violations.push(format!("unexpected ingest error: {e}")),
                    }
                }
            },
            |_, _, _, _| {},
        )?;
        violations.append(&mut run.violations);
        let counters = run.injector.counters();
        if counters.wal_torn == 0 {
            violations.push("arm A fired no torn appends".to_owned());
        }
        if counters.wal_stalls == 0 {
            violations.push("arm A fired no fsync stalls".to_owned());
        }
        if torn_refused != counters.wal_torn {
            violations.push(format!(
                "{torn_refused} typed torn refusals for {} torn appends fired",
                counters.wal_torn
            ));
        }
        // Conservation: acked == dispatched + still_journaled.
        let metrics = run.service.metrics();
        let consumed = accounted(&metrics);
        if metrics.requests_accepted != consumed {
            violations.push(format!(
                "acked {} but shards account for {consumed} (dispatched + still journaled)",
                metrics.requests_accepted
            ));
        }
        // Every injected tear self-healed: the journal directory restores
        // to an equal service.
        let snapshot = run.service.snapshot()?;
        match arm.start(Some(FaultPlan::empty()), Some(&snapshot)) {
            Ok(restored) => {
                let restored = restored.service;
                if restored.metrics() != metrics {
                    violations
                        .push("arm A restore over the torn journal diverged from live".to_owned());
                }
                if restored.wal_last_seq() != run.service.wal_last_seq() {
                    violations.push(format!(
                        "arm A restore recovered journal seq {}, live is at {}",
                        restored.wal_last_seq(),
                        run.service.wal_last_seq()
                    ));
                }
                restored.shutdown();
            }
            Err(e) => violations.push(format!("arm A journal unrecoverable after tears: {e}")),
        }
        run.shutdown();
    }

    // ---- Arm A2: fsync stalls must never leak into state.
    {
        let stall_cfg = FaultPlanConfig {
            wal_horizon: 64,
            p_wal_stall: 0.5,
            wal_stall_ms: 15,
            ..FaultPlanConfig::quiet(epochs, CHAOS_SHARDS)
        };
        let plan = FaultPlan::generate(seed, &stall_cfg).with_wal_fault(0, WalFault::FsyncStall(5));
        let arm = base.journaled(&wal_chaos_dir(seed, "a2"));
        let twins = arm.twins("stalled", plan, |_, _, _| {}, |_| {})?;
        violations.extend(twins);
    }

    // ---- Arm B: kill -9 at any byte of the journal.
    {
        let mid = epochs / 2;
        let dir = wal_chaos_dir(seed, "ref");
        let mut reference = base.journaled(&dir).start(None, None)?;
        reference.drive(
            mid,
            |run, e, violations| base.offer(run, e, violations),
            |_, _, _, _| {},
        )?;
        // The boundary snapshot pins the journal high-water mark; every
        // offer after it lives only in the journal until dispatched.
        let boundary_snapshot = reference.service.snapshot()?;
        let hwm = reference.service.wal_last_seq();
        let segment = match only_segment(&dir) {
            Ok(p) => p,
            Err(why) => {
                violations.push(format!("arm B: {why}"));
                reference.shutdown();
                return Ok(violations);
            }
        };
        let read_segment = || {
            fs::read(&segment)
                .map_err(|e| ServeError::Io(format!("read {}: {e}", segment.display())))
        };
        let prefix_len = read_segment()?.len();
        let post = request_events(mid, base.per_shard, segments);
        for &(shard, spec) in &post {
            reference.service.ingest(shard, spec)?;
        }
        let journal = read_segment()?;
        let tail = epochs - mid;
        reference.drive(tail, |_, _, _| {}, |_, _, _, _| {})?;
        let mut reference = reference.end()?;
        violations.append(&mut reference.violations);

        if journal.len() <= prefix_len {
            violations.push("arm B journal never grew past the boundary snapshot".to_owned());
        } else {
            // Crash offsets: both endpoints plus three seeded interior bytes —
            // interior cuts usually land mid-record, exercising the torn
            // tail truncation on the recovery path.
            let span = journal.len() - prefix_len;
            let mut rng = family_stream(seed, "wal-crash-points");
            let mut cuts = vec![prefix_len, journal.len()];
            cuts.extend((0..3).map(|_| prefix_len + rng.random_range(0..span)));
            cuts.sort_unstable();
            cuts.dedup();
            let segment_file = segment.file_name().expect("segment has a name").to_owned();
            for (i, &cut) in cuts.iter().enumerate() {
                let crash_dir = wal_chaos_dir(seed, &format!("b{i}"));
                fresh_dir(&crash_dir);
                fs::create_dir_all(&crash_dir)
                    .map_err(|e| ServeError::Io(format!("create {}: {e}", crash_dir.display())))?;
                fs::write(crash_dir.join(&segment_file), &journal[..cut])
                    .map_err(|e| ServeError::Io(format!("write truncated journal: {e}")))?;
                let mut crashed = base
                    .journaled(&crash_dir)
                    .start(None, Some(&boundary_snapshot))?;
                let recovered = crashed.service.wal_last_seq();
                if recovered < hwm {
                    violations.push(format!(
                        "crash at byte {cut}: recovery lost journal seq {recovered} below \
                         snapshot hwm {hwm}"
                    ));
                }
                // The client-retry model: an offer the truncated journal
                // lost was never acked, so the client re-offers exactly
                // that suffix, in order.
                let missing = (hwm + post.len() as u64 - recovered) as usize;
                for &(shard, spec) in &post[post.len() - missing..] {
                    crashed.service.ingest(shard, spec)?;
                }
                crashed.drive(tail, |_, _, _| {}, |_, _, _, _| {})?;
                let crashed = crashed.end()?;
                violations.extend(divergences(
                    &format!("crash at byte {cut}"),
                    ("crashed", &crashed),
                    ("reference", &reference),
                ));
            }
        }
    }

    // ---- Arm C: an interior bit flip is a typed refusal, never a panic.
    {
        let dir = wal_chaos_dir(seed, "c");
        let arm = base.journaled(&dir);
        let run = arm.start(None, None)?;
        for (shard, spec) in request_events(0, base.per_shard, segments) {
            run.service.ingest(shard, spec)?;
        }
        let snapshot = run.service.snapshot()?;
        let flipped = only_segment(&dir).and_then(|path| flip_first_record(&path));
        let restored = arm.start(Some(FaultPlan::empty()), Some(&snapshot));
        match (flipped, restored) {
            (
                Ok((name, at)),
                Err(ServeError::Wal(WalError::Corrupt {
                    segment, offset, ..
                })),
            ) if segment == name && offset == at => {}
            (Err(why), _) => violations.push(format!("arm C: {why}")),
            (_, Ok(restored)) => {
                violations.push("bit-flipped journal recovered without error".to_owned());
                restored.shutdown();
            }
            (Ok((name, at)), Err(e)) => violations.push(format!(
                "arm C: expected a Corrupt refusal naming {name} at byte {at}, got: {e}"
            )),
        }
        run.shutdown();
    }

    Ok(violations)
}
