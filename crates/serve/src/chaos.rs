//! The chaos harness: runs a full [`DispatchService`] under a seeded
//! fault schedule and checks the graceful-degradation invariants.
//!
//! Shared by the `tests/chaos.rs` suite in the workspace facade and the
//! `chaos` binary in `mobirescue-bench`, so a failing seed from a sweep
//! reproduces byte-for-byte as a test. Everything runs on a
//! [`SimClock`], so a run is a pure function of `(fault plan, options)`.
//!
//! Invariants checked after every run (violations are returned as
//! strings, one per broken invariant, rather than panicking — the caller
//! decides whether to assert or report):
//!
//! 1. **No epoch skipped silently** — the service completes exactly the
//!    requested number of epochs and every epoch yields one report per
//!    shard, faults or not.
//! 2. **Metrics conservation** — admitted + shed equals offered, minus
//!    events the injector dropped/corrupted/still holds in flight, plus
//!    duplicates; and everything admitted is either injected into a
//!    world, rejected by it, or still queued.
//! 3. **Degradation is honest** — `degraded_epochs` is positive iff a
//!    degrading fault (stall past the deadline, failed swap) actually
//!    fired, and never exceeds the number fired.
//! 4. **Crashes never outlive recovery** — every fired crash maps to
//!    exactly one shard restart.
//! 5. **Snapshot integrity** — the final snapshot restores to an equal
//!    service when written cleanly, and is *rejected with a typed error*
//!    when the injector corrupted the write.
//! 6. **Swap-failure attribution** — every injected registry failure is
//!    counted under its typed cause ([`crate::SwapError::Injected`]), and
//!    no build or rollout failure claims one.
//!
//! [`rollout_chaos_divergence`] adds the poisoned-checkpoint invariants:
//! an inadmissible or shadow-stage candidate never serves a primary
//! dispatch, every injected regression is caught with the registry still
//! pinned to the prior version, and a poisoned run ends bit-identical to
//! a twin that never saw the poison.
//!
//! [`trainer_chaos_divergence`] covers the online training loop
//! ([`crate::trainer`]): transition conservation under injected drops and
//! floods, stale-candidate floods never reaching a primary dispatch, and
//! a trainer that crashes at epoch boundaries recovering bit-identically
//! to an unfaulted twin.
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
//! service configuration, an incumbent policy and the standard request
//! stream; its twins run it under the arm's fault plan and as the plain
//! service (no injector, no `auto_recover`), with the same checks on
//! both, and must end with equal metrics, journal sequence, trainer
//! status and policy, and byte-identical snapshot text.

use crate::clock::{Clock, SimClock};
use crate::error::ServeError;
use crate::event::Event;
use crate::fault::{
    family_stream, CheckpointPoison, FaultCounters, FaultInjector, FaultPlan, FaultPlanConfig,
    ScheduledFaults, TrainerFault, WalFault,
};
use crate::metrics::MetricsSnapshot;
use crate::registry::ModelRegistry;
use crate::rollout::{RolloutConfig, RolloutError};
use crate::scheduler::EpochScheduler;
use crate::service::{DispatchService, RetryPolicy, ServeConfig};
use crate::trainer::{TrainerConfig, TrainerStatus};
use crate::wal::{FsyncPolicy, WalConfig, WalError};
use mobirescue_core::rl_dispatch::FEATURE_DIM;
use mobirescue_core::scenario::{Scenario, ScenarioConfig};
use mobirescue_obs::ObsSnapshot;
use mobirescue_rl::nn::Mlp;
use mobirescue_rl::persist::mlp_to_text;
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

/// What a chaos run should look like, beyond the fault plan itself.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Dispatch epochs to drive.
    pub epochs: u32,
    /// City shards to host.
    pub num_shards: usize,
    /// Request offers per shard per epoch.
    pub requests_per_epoch: usize,
    /// Request queue capacity (small enough to exercise shedding).
    pub queue_capacity: usize,
    /// Per-epoch dispatch compute budget, ms (keep it below the plan's
    /// stall so every stall trips the fallback).
    pub deadline_ms: u64,
    /// The fault schedule to execute.
    pub plan: FaultPlan,
}

impl ChaosOptions {
    /// The standard sweep configuration: the full fault mix drawn from
    /// `seed`, small queues, a deadline every stall overshoots.
    pub fn seeded(seed: u64, epochs: u32, num_shards: usize) -> Self {
        let cfg = FaultPlanConfig::chaos(epochs, num_shards);
        Self {
            epochs,
            num_shards,
            requests_per_epoch: 6,
            queue_capacity: 4,
            deadline_ms: 10,
            plan: FaultPlan::generate(seed, &cfg),
        }
    }
}

/// Everything a chaos run produced, for reporting and assertions.
#[derive(Debug)]
pub struct ChaosOutcome {
    /// The seed the run was labeled with.
    pub seed: u64,
    /// What the plan had scheduled.
    pub scheduled: ScheduledFaults,
    /// What actually fired.
    pub counters: FaultCounters,
    /// Final service metrics.
    pub metrics: MetricsSnapshot,
    /// Shard workers restarted from a checkpoint.
    pub restarts: u64,
    /// Scheduler epochs that finished past their deadline.
    pub overruns: u64,
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
             corrupt {} stall {} crash {} swapfail {} snapcorrupt {} poison {} | restarts {} \
             retries {} shed {} -> {}",
            self.seed,
            self.metrics.epochs_completed,
            self.metrics.degraded_epochs,
            self.counters.drops,
            self.counters.delays,
            self.counters.delays_released,
            self.counters.duplicates,
            self.counters.corrupts,
            self.counters.stalls,
            self.counters.crashes,
            self.counters.swap_fails,
            self.counters.snapshot_corruptions,
            self.counters.poisoned_checkpoints,
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

fn request_events(epoch: u32, num_shards: usize, per_shard: usize, segments: u32) -> Vec<Event> {
    let mut events = Vec::with_capacity(num_shards * per_shard);
    for shard in 0..num_shards {
        for i in 0..per_shard {
            let mix = epoch as usize * 53 + i * 17 + shard * 29;
            events.push(Event::Request {
                shard,
                spec: RequestSpec {
                    appear_s: epoch * 300 + (i as u32 * 37) % 300,
                    segment: SegmentId((mix as u32) % segments),
                },
            });
        }
    }
    events
}

/// One chaos arm: a service configuration, the incumbent policy and the
/// standard request stream on the chaos scenario. The twins of an arm
/// share all of it and differ only in their fault plan, so any difference
/// between their ends is the plan's doing.
#[derive(Clone)]
struct Arm {
    scenario: Arc<Scenario>,
    config: ServeConfig,
    incumbent: Option<Mlp>,
    epochs: u32,
    per_shard: usize,
}

/// A started run of an arm: the live service and what the checks read.
struct Live {
    service: DispatchService,
    clock: Arc<SimClock>,
    registry: Arc<ModelRegistry>,
    injector: Arc<FaultInjector>,
    violations: Vec<String>,
}

/// A finished run's end state, as a twin comparison reads it.
struct RunEnd {
    snapshot: String,
    metrics: MetricsSnapshot,
    wal_seq: u64,
    trainer: Option<TrainerStatus>,
    policy: Option<String>,
    violations: Vec<String>,
}

impl Arm {
    /// An arm of `epochs` epochs with `per_shard` request offers per shard
    /// per epoch, on `num_shards` shards with request queues of 8.
    fn new(num_shards: usize, epochs: u32, per_shard: usize) -> Self {
        let mut config = ServeConfig::new(SimConfig::small(6));
        config.num_shards = num_shards;
        config.request_queue_capacity = 8;
        Self {
            scenario: Arc::new(chaos_scenario()),
            config,
            incumbent: None,
            epochs,
            per_shard,
        }
    }

    /// The number of road segments requests are placed on.
    fn segments(&self) -> u32 {
        self.scenario.city.network.num_segments() as u32
    }

    /// A fresh registry holding the arm's incumbent.
    fn registry(&self) -> Arc<ModelRegistry> {
        Arc::new(ModelRegistry::new(None, self.incumbent.clone()))
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
    /// snapshot into the given registry over whatever journal the arm's
    /// directory holds; without it the service starts fresh over an
    /// emptied journal directory.
    fn start(
        &self,
        plan: Option<FaultPlan>,
        restore: Option<(&str, Arc<ModelRegistry>)>,
    ) -> Result<Live, ServeError> {
        let attach = plan.is_some();
        let injector = Arc::new(FaultInjector::new(plan.unwrap_or_else(FaultPlan::empty)));
        let mut config = self.config.clone();
        config.faults = attach.then(|| Arc::clone(&injector));
        config.auto_recover &= attach;
        let clock = Arc::new(SimClock::new());
        let scenario = Arc::clone(&self.scenario);
        let service_clock = Arc::clone(&clock) as Arc<dyn Clock>;
        let (service, registry) = match restore {
            Some((text, registry)) => (
                DispatchService::restore(
                    scenario,
                    config,
                    service_clock,
                    Arc::clone(&registry),
                    text,
                )?,
                registry,
            ),
            None => {
                if let Some(wal) = &config.wal {
                    fresh_dir(&wal.dir);
                }
                let registry = self.registry();
                let service =
                    DispatchService::start(scenario, config, service_clock, Arc::clone(&registry))?;
                (service, registry)
            }
        };
        Ok(Live {
            service,
            clock,
            registry,
            injector,
            violations: Vec::new(),
        })
    }

    /// Offers epoch `e` of the standard request stream to `run`; an
    /// ingest error is a violation.
    fn offer(&self, run: &Live, e: u32, violations: &mut Vec<String>) {
        let (shards, segments) = (self.config.num_shards, self.segments());
        for event in request_events(e, shards, self.per_shard, segments) {
            if let Err(err) = run.service.ingest(event) {
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
    /// What either reports joins the run's violations. Returns the
    /// scheduler, for its overrun count.
    fn drive(
        &mut self,
        epochs: u32,
        mut offer: impl FnMut(&Live, u32, &mut Vec<String>),
        mut at_boundary: impl FnMut(&Live, u32, &[EpochReport], &mut Vec<String>),
    ) -> Result<EpochScheduler, ServeError> {
        let mut violations = Vec::new();
        let run = &*self;
        let mut scheduler = EpochScheduler::for_service(&run.service)?;
        offer(run, 0, &mut violations);
        scheduler.run(&run.service, &*run.clock, epochs, |e, reports| {
            at_boundary(run, e, reports, &mut violations);
            if e + 1 < epochs {
                offer(run, e + 1, &mut violations);
            }
        })?;
        self.violations.append(&mut violations);
        Ok(scheduler)
    }

    /// Snapshots the run, shuts it down, and returns its end state.
    fn end(mut self) -> Result<RunEnd, ServeError> {
        let end = RunEnd {
            snapshot: self.service.snapshot()?,
            metrics: self.service.metrics(),
            wal_seq: self.service.wal_last_seq(),
            trainer: self.service.trainer_status(),
            policy: self.service.trainer_policy_text(),
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

/// How two runs' ends differ — metrics, journal sequence, trainer status
/// and policy, and the first byte where their snapshot texts differ — as
/// violation messages under `label`; empty when the ends are identical.
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
    if a.trainer != b.trainer {
        out.push(format!(
            "{label}: trainer status diverged: {:?} vs {:?}",
            a.trainer, b.trainer
        ));
    }
    if a.policy != b.policy {
        out.push(format!("{label}: trainer policy checkpoints diverged"));
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

/// Runs the full service under `opts` and checks every invariant.
///
/// # Errors
///
/// Returns the first *unexpected* service error — errors the plan itself
/// provokes (corrupt events rejected at ingestion, corrupted snapshots
/// rejected at restore) are part of the contract and checked, not
/// propagated.
pub fn run_chaos(seed: u64, opts: &ChaosOptions) -> Result<ChaosOutcome, ServeError> {
    let mut arm = Arm::new(opts.num_shards, opts.epochs, opts.requests_per_epoch);
    arm.config.request_queue_capacity = opts.queue_capacity;
    arm.config.epoch_deadline_ms = Some(opts.deadline_ms);
    arm.config.auto_recover = true;
    let mut run = arm.start(Some(opts.plan.clone()), None)?;
    let scheduled = run.injector.scheduled();
    let segments = arm.segments();
    let retry = RetryPolicy::default();

    // Offers are counted locally too, so the injector's bookkeeping is
    // cross-checked against an independent tally.
    let mut offered = 0u64;
    let mut rejected_corrupt = 0u64;
    let scheduler = run.drive(
        opts.epochs,
        |run, epoch, violations| {
            let service = &run.service;
            for event in request_events(epoch, opts.num_shards, opts.requests_per_epoch, segments) {
                offered += 1;
                match service.ingest_with_retry(event, &retry) {
                    Ok(_) => {}
                    Err(ServeError::World(_)) => rejected_corrupt += 1,
                    Err(e) => violations.push(format!("unexpected ingest error: {e}")),
                }
            }
            // A couple of advisories per epoch keep the advisory path hot
            // (one valid, one invalid — both bypass fault injection).
            let _ = service.ingest(Event::Weather {
                shard: epoch as usize % opts.num_shards,
                hour: epoch % 4,
                rain_mm: 1.5 + f64::from(epoch),
            });
            let _ = service.ingest(Event::RoadDamage {
                shard: 0,
                segment: SegmentId(u32::MAX),
                hour: 0,
                flooded: true,
            });
        },
        |run, e, reports, violations| {
            if reports.len() != opts.num_shards {
                violations.push(format!(
                    "epoch {e} produced {} reports for {} shards",
                    reports.len(),
                    opts.num_shards
                ));
            }
            if e == opts.epochs / 2 {
                // Exercise the hot-swap path mid-run with a valid policy —
                // through the guarded rollout pipeline, like a deployment
                // would. With the pipeline's default gates the candidate is
                // usually still in flight at the end of the run, which drags
                // the rollout state through the snapshot-integrity check.
                let policy = mlp_to_text(&Mlp::new(&[FEATURE_DIM, 8, 1], 5));
                match run.service.submit_rollout(None, Some(&policy)) {
                    Ok(_) => {}
                    // A scheduled checkpoint poison replaced the candidate in
                    // flight; the typed admission rejection *is* the contract.
                    Err(ServeError::Rollout(_)) if scheduled.poisoned_checkpoints > 0 => {}
                    Err(e) => violations.push(format!("guarded rollout submission failed: {e}")),
                }
            }
        },
    )?;
    let mut violations = std::mem::take(&mut run.violations);
    let (service, injector) = (&run.service, &run.injector);

    let metrics = service.metrics();
    let counters = injector.counters();
    let restarts = service.shard_restarts();

    // Invariant 1: no epoch skipped silently.
    if metrics.epochs_completed != opts.epochs {
        violations.push(format!(
            "completed {} epochs, expected {}",
            metrics.epochs_completed, opts.epochs
        ));
    }
    for (i, s) in metrics.shards.iter().enumerate() {
        if s.epochs != opts.epochs {
            violations.push(format!(
                "shard {i} at epoch {}, expected {}",
                s.epochs, opts.epochs
            ));
        }
    }

    // Invariant 2: conservation. Every offer the injector saw either
    // produced queue pushes (admitted or shed) or is accounted for as
    // dropped, corrupted, or delayed-in-flight; duplicates and released
    // delays add pushes.
    // Every retry re-offers through the injector, so the injector's offer
    // count is the harness's events plus the service's retry count.
    if counters.offers != offered + metrics.ingest_retries {
        violations.push(format!(
            "injector saw {} offers, harness made {} (+{} retries)",
            counters.offers, offered, metrics.ingest_retries
        ));
    }
    if rejected_corrupt != counters.corrupts {
        violations.push(format!(
            "{} typed corrupt rejections for {} corrupt faults",
            rejected_corrupt, counters.corrupts
        ));
    }
    let pushes_expected = counters.offers - counters.drops - counters.corrupts - counters.delays
        + counters.duplicates
        + counters.delays_released;
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
    // A stall and a swap failure on the same shard epoch degrade it once:
    // the failed swap forces the fallback before the stalled dispatcher
    // runs. So the shards count degraded shard epochs, not faults.
    let shard_degraded: u64 = metrics.shards.iter().map(|s| s.degraded).sum();
    let cells = opts.plan.degraded_cells(opts.epochs, opts.num_shards) as u64;
    if shard_degraded != cells {
        violations.push(format!(
            "shards report {shard_degraded} degraded epochs, the plan degrades {cells} shard epochs"
        ));
    }

    // Invariant 4: every crash was recovered, nothing else restarted.
    if restarts != counters.crashes {
        violations.push(format!(
            "{restarts} restarts for {} crashes",
            counters.crashes
        ));
    }

    // Invariant 6: swap-failure attribution. Every injected registry
    // failure is counted under its typed cause, and neither a bundle
    // build nor a rollout candidate failed in a run that schedules only
    // healthy checkpoints.
    if metrics.swap_failures_injected != counters.swap_fails
        || metrics.swap_failures_build != 0
        || metrics.swap_failures_rollout != 0
    {
        violations.push(format!(
            "swap failures attributed {}i/{}b/{}r, injector fired {}",
            metrics.swap_failures_injected,
            metrics.swap_failures_build,
            metrics.swap_failures_rollout,
            counters.swap_fails
        ));
    }

    // Invariant 5: snapshot integrity. A clean write restores to an equal
    // service; a corrupted write is rejected with a typed error.
    let snapshot = service.snapshot()?;
    let wrote_corrupted = injector.counters().snapshot_corruptions > counters.snapshot_corruptions;
    let restored = arm.start(
        Some(FaultPlan::empty()),
        Some((&snapshot, Arc::clone(&run.registry))),
    );
    match restored {
        Ok(restored) => {
            if wrote_corrupted {
                violations.push("corrupted snapshot restored without error".to_owned());
            } else if restored.service.metrics() != metrics {
                violations.push("restored metrics differ from the live service".to_owned());
            }
            restored.shutdown();
        }
        Err(ServeError::BadSnapshot(_)) if wrote_corrupted => {}
        Err(e) => violations.push(format!("snapshot restore failed unexpectedly: {e}")),
    }

    let counters = injector.counters();
    let overruns = scheduler.overruns();
    let obs = service.obs_snapshot();
    run.shutdown();
    Ok(ChaosOutcome {
        seed,
        scheduled,
        counters,
        metrics,
        restarts,
        overruns,
        obs,
        violations,
    })
}

/// The replay-masking check: a service whose shards crash (and recover
/// from checkpoints) must end **bit-identical** — snapshot text equality —
/// to an unfaulted twin fed the same event stream, because each crash's
/// faults are consumed when they fire and the replayed epoch runs clean.
///
/// Returns the list of divergences (empty when the runs converged).
///
/// # Errors
///
/// Returns the first service error from either run.
pub fn crash_replay_divergence(
    crashes: &[(u32, usize)],
    epochs: u32,
    num_shards: usize,
) -> Result<Vec<String>, ServeError> {
    let mut arm = Arm::new(num_shards, epochs, 4);
    arm.config.epoch_deadline_ms = Some(10);
    arm.config.auto_recover = true;
    let plan = crashes
        .iter()
        .fold(FaultPlan::empty(), |plan, &(epoch, shard)| {
            plan.with_crash(epoch, shard)
        });
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

/// A *competent* incumbent policy for the gate harnesses: the shadow gate
/// can only separate a reward tank from the incumbent if the incumbent
/// reliably out-picks a policy that recalls every team. Hand-set weights
/// score candidate zones by live requests and remaining demand, penalise
/// distance, and pin the standby feature strongly negative; the seed
/// contributes a small perturbation on top so a sweep still covers
/// distinct policies.
fn competent_incumbent(seed: u64) -> Mlp {
    let mut net = Mlp::new(&[FEATURE_DIM, 1], seed ^ 0x600d);
    let base = [-2.0, 1.0, 3.0, 0.0, 0.0, -1_000.0, 0.0];
    net.visit_params_mut(|i, w, _| {
        *w = base[i] + 0.05 * *w;
    });
    net
}

/// The gate configuration of the rollout and trainer harnesses. Canary
/// and watch slacks are wide open: there those stages only need to
/// *pass* for a good candidate (a tank must die in shadow, and the
/// dedicated watch tests cover post-promotion regression); the strict
/// shadow gate is the one under test.
fn gate_rollout_config() -> RolloutConfig {
    RolloutConfig {
        shadow_epochs: 4,
        shadow_slack: 0.0,
        canary_epochs: 2,
        canary_shards: 1,
        canary_slack: 1e9,
        watch_epochs: 2,
        watch_slack: 1e9,
        probe_bound: 1e6,
    }
}

/// What a poisoned-checkpoint chaos run should look like.
#[derive(Debug, Clone)]
pub struct RolloutChaosOptions {
    /// Dispatch epochs to drive (leave room after `good_at` for the good
    /// candidate's full shadow → canary → watch pipeline).
    pub epochs: u32,
    /// City shards to host.
    pub num_shards: usize,
    /// Request offers per shard per epoch.
    pub requests_per_epoch: usize,
    /// Poisoned checkpoints delivered (one per submission) before the good
    /// candidate. Structural poisons must be rejected at admission; a
    /// reward-tanking poison must be admitted and then killed by the
    /// shadow gate.
    pub poisons: Vec<CheckpointPoison>,
    /// Epoch after which the genuine candidate is submitted (every poison
    /// must have been consumed and resolved by then).
    pub good_at: u32,
}

impl RolloutChaosOptions {
    /// The standard sweep configuration: one poison of each kind, then a
    /// good candidate with enough epochs left to fully promote.
    pub fn standard(num_shards: usize) -> Self {
        Self {
            epochs: 18,
            num_shards,
            // Light enough that free teams exist at every dispatch tick:
            // the shadow gate can only separate a reward tank from the
            // incumbent when there is work a free team *could* take.
            requests_per_epoch: 3,
            poisons: vec![
                CheckpointPoison::NanWeights,
                CheckpointPoison::WrongDims,
                CheckpointPoison::RewardTank,
            ],
            good_at: 8,
        }
    }
}

/// The poisoned-checkpoint invariants, checked as a twin experiment:
///
/// * an **inadmissible** candidate (NaN weights, wrong dims) is rejected
///   with a typed error and never reaches the registry;
/// * an admitted but **reward-tanking** candidate never serves a primary
///   dispatch (it dies in shadow), and its rejection leaves the registry
///   pinned to the *exact* prior bundle;
/// * a run that saw every poison ends **bit-identical** — snapshot text
///   and metrics — to a twin run that never saw any poison, because every
///   guard fired before dispatch could be affected.
///
/// The incumbent starts from the same weights the good candidate carries,
/// so the good candidate's shadow replay ties the incumbent exactly and
/// passes the gate deterministically, while the reward tank — which
/// refuses every dispatch — falls strictly short.
///
/// Returns the list of divergences/violations (empty on a clean run).
///
/// # Errors
///
/// Returns the first *unexpected* service error from either run (typed
/// admission rejections are the contract, not errors).
pub fn rollout_chaos_divergence(
    seed: u64,
    opts: &RolloutChaosOptions,
) -> Result<Vec<String>, ServeError> {
    // The incumbent (and the good candidate, which carries the same
    // weights) must be a competent dispatcher, not a random init.
    let good_net = competent_incumbent(seed);
    let good_text = mlp_to_text(&good_net);
    let mut arm = Arm::new(opts.num_shards, opts.epochs, opts.requests_per_epoch);
    arm.config.rollout = gate_rollout_config();
    arm.incumbent = Some(good_net);
    let plan = opts.poisons.iter().fold(FaultPlan::empty(), |plan, &kind| {
        plan.with_poisoned_checkpoint(kind)
    });
    // A run's poisons are those its plan scheduled: the whole list for the
    // poisoned twin, none for the clean one.
    let poisons_of = |run: &Live| run.injector.scheduled().poisoned_checkpoints;
    let at_boundary = |run: &Live, e: u32, violations: &mut Vec<String>| {
        let service = &run.service;
        // One submission at a time: poisoned deliveries first, the
        // genuine candidate at `good_at`. Every submission sends the
        // *good* text — the injector swaps the poison in transit.
        let delivered = run.injector.counters().poisoned_checkpoints as usize;
        if e < opts.good_at && service.rollout_status().is_none() {
            if let Some(&kind) = opts.poisons[..poisons_of(run)].get(delivered) {
                let outcome = service.submit_rollout(None, Some(&good_text));
                match (kind, outcome) {
                    (CheckpointPoison::RewardTank, Ok(_)) => {}
                    (
                        CheckpointPoison::NanWeights | CheckpointPoison::WrongDims,
                        Err(ServeError::Rollout(RolloutError::Probe { .. })),
                    ) => {}
                    (kind, outcome) => violations.push(format!(
                        "epoch {e}: poisoned submission ({kind:?}) resolved as {outcome:?}"
                    )),
                }
            }
        } else if e == opts.good_at {
            if let Err(err) = service.submit_rollout(None, Some(&good_text)) {
                violations.push(format!("epoch {e}: good candidate rejected: {err}"));
            }
        }
        // While poisons are being delivered and screened, nothing may
        // serve but the exact original bundle: the registry has seen no
        // install and no restore (the only two writes to its slot), and
        // every shard dispatches at version 1.
        if e < opts.good_at {
            if run.registry.swaps() + run.registry.rollbacks() != 0 {
                violations.push(format!("epoch {e}: registry moved off the v1 bundle"));
            }
            for (i, s) in service.metrics().shards.iter().enumerate() {
                if s.model_version != 1 {
                    violations.push(format!(
                        "epoch {e}: shard {i} served model v{} during poison screening",
                        s.model_version
                    ));
                }
            }
        }
    };
    let check = |run: &mut Live| {
        let poisons = &opts.poisons[..poisons_of(run)];
        let tanks = poisons
            .iter()
            .filter(|p| matches!(p, CheckpointPoison::RewardTank))
            .count() as u64;
        let structural = poisons.len() as u64 - tanks;
        let counters = run.service.rollout_counters();
        let fired = run.injector.counters().poisoned_checkpoints;
        let (swaps, rollbacks) = (run.registry.swaps(), run.registry.rollbacks());
        let version = run.registry.current().version;
        let v = &mut run.violations;
        if fired != poisons.len() as u64 {
            v.push(format!(
                "{fired} poisons submitted, {} scheduled (good_at too early?)",
                poisons.len()
            ));
        }
        if counters.rejected != structural {
            v.push(format!(
                "{} admission rejections for {structural} structural poisons",
                counters.rejected
            ));
        }
        if counters.admitted != tanks + 1 {
            v.push(format!(
                "{} admissions for {tanks} reward tanks plus the good candidate",
                counters.admitted
            ));
        }
        if counters.rolled_back != tanks {
            v.push(format!(
                "{} rollbacks for {tanks} reward tanks",
                counters.rolled_back
            ));
        }
        if run.service.rollout_status().is_some() {
            v.push("rollout still in flight at end of run".to_owned());
        }
        // The good candidate promoted exactly once; no poison ever made it
        // far enough to need a registry-level rollback.
        if swaps != 1 || rollbacks != 0 || version != 2 {
            v.push(format!(
                "run ended at v{version} with {swaps} swaps, {rollbacks} rollbacks \
                 (expected v2, 1, 0)"
            ));
        }
    };
    let divergences = arm.twins("poisoned", plan, at_boundary, check)?;
    Ok(divergences)
}

/// What a trainer chaos run should look like.
#[derive(Debug, Clone)]
pub struct TrainerChaosOptions {
    /// Dispatch epochs to drive.
    pub epochs: u32,
    /// City shards to host.
    pub num_shards: usize,
    /// Request offers per shard per epoch. Keep it light enough that free
    /// teams exist at every tick — the shadow gate can only separate a
    /// stale reward tank from the incumbent when there is work a free
    /// team *could* take.
    pub requests_per_epoch: usize,
}

impl TrainerChaosOptions {
    /// The standard sweep configuration.
    pub fn standard(num_shards: usize) -> Self {
        Self {
            epochs: 14,
            num_shards,
            requests_per_epoch: 3,
        }
    }
}

/// The online-training-loop invariants, checked as two arms:
///
/// **Arm A (floods + transition drops, no crashes):**
/// * **Transition conservation** — `train.transitions_offered` equals
///   accepted + shed even while injected drops destroy tapped transitions
///   upstream (a dropped transition is never *offered*), and the trainer's
///   own counters agree with the registry's.
/// * **No unguarded serve** — candidate emission is disabled, so every
///   rollout submission in the run is an injected stale, reward-tanking
///   candidate; the gates must keep the registry at v1, zero swaps, and
///   every shard serving v1 at every epoch.
/// * The trainer keeps learning through the faults.
///
/// **Arm B (boundary crashes):** a run whose trainer crashes at epoch
/// boundaries (respawning from its per-boundary checkpoint) must end
/// **bit-identical** — service snapshot text, metrics, trainer status and
/// policy checkpoint — to an unfaulted twin fed the same event stream.
///
/// Returns the list of violations/divergences (empty on a clean run).
///
/// # Errors
///
/// Returns the first service error from any run.
pub fn trainer_chaos_divergence(
    seed: u64,
    opts: &TrainerChaosOptions,
) -> Result<Vec<String>, ServeError> {
    let mut base = Arm::new(opts.num_shards, opts.epochs, opts.requests_per_epoch);
    base.config.rollout = gate_rollout_config();
    // The shadow gate can only kill a reward-tanking flood candidate when
    // the incumbent reliably out-picks it.
    base.incumbent = Some(competent_incumbent(seed));
    let arm = |candidate_every: u32| {
        let mut arm = base.clone();
        arm.config.trainer = Some(TrainerConfig {
            min_replay: 8,
            batch_size: 4,
            steps_per_epoch: 2,
            candidate_every,
            hidden: vec![8],
            seed,
            ..TrainerConfig::default()
        });
        arm
    };

    // Arm A: seeded floods and transition drops, with one of each forced
    // so every seed exercises both kinds.
    let flood_drop_cfg = FaultPlanConfig {
        trainer_horizon: opts.epochs,
        p_trainer_flood: 0.20,
        p_trainer_drop: 0.25,
        trainer_flood_len: 2,
        ..FaultPlanConfig::quiet(opts.epochs, opts.num_shards)
    };
    let plan_a = FaultPlan::generate(seed, &flood_drop_cfg)
        .with_trainer_fault(2, TrainerFault::StaleCandidateFlood(2))
        .with_trainer_fault(3, TrainerFault::TransitionDrop);
    // With emission disabled, every submission this run ever makes is an
    // injected stale candidate — primary dispatch must stay pinned to v1
    // on every shard at every epoch.
    let arm_a = arm(0);
    let mut a = arm_a.start(Some(plan_a), None)?;
    a.drive(
        opts.epochs,
        |run, e, violations| arm_a.offer(run, e, violations),
        |run, e, _, violations| {
            for (i, s) in run.service.metrics().shards.iter().enumerate() {
                if s.model_version != 1 {
                    violations.push(format!(
                        "epoch {e}: shard {i} served model v{} under a stale-candidate flood",
                        s.model_version
                    ));
                }
            }
        },
    )?;
    let fired = a.injector.counters();
    let status = a.service.trainer_status().expect("trainer configured");
    let obs = a.service.obs();
    let count = |name: &str| obs.counter(name).value();
    let offered = count("train.transitions_offered");
    let accepted = count("train.transitions_accepted");
    let shed = count("train.transitions_shed");
    let submitted = count("train.candidates_submitted");
    let admitted = count("train.candidates_admitted");
    let rejected = count("train.candidates_rejected");
    let (swaps, final_version) = (a.registry.swaps(), a.registry.current().version);
    let mut divergences = std::mem::take(&mut a.violations);
    if fired.trainer_floods == 0 || fired.trainer_drops == 0 {
        divergences.push(format!(
            "arm A fired {} floods / {} drops, expected at least one of each",
            fired.trainer_floods, fired.trainer_drops
        ));
    }
    if offered != accepted + shed {
        divergences.push(format!(
            "transition conservation broken: offered {offered} != accepted {accepted} + shed {shed}"
        ));
    }
    if offered == 0 {
        divergences.push("no transitions ever offered — the tap is dead".to_owned());
    }
    if status.steps == 0 {
        divergences.push("trainer never learned under flood/drop faults".to_owned());
    }
    if submitted == 0 || submitted != admitted + rejected {
        divergences.push(format!(
            "candidate accounting broken: submitted {submitted} admitted {admitted} rejected {rejected}"
        ));
    }
    if swaps != 0 || final_version != 1 {
        divergences.push(format!(
            "stale-candidate flood reached the registry: v{final_version} after {swaps} swaps"
        ));
    }
    a.shutdown();

    // Arm B: seeded boundary crashes (one forced) against an unfaulted
    // twin — recovery must be bit-identical, trainer state included.
    let crash_cfg = FaultPlanConfig {
        trainer_horizon: opts.epochs,
        p_trainer_crash: 0.20,
        ..FaultPlanConfig::quiet(opts.epochs, opts.num_shards)
    };
    let plan_b = FaultPlan::generate(seed, &crash_cfg).with_trainer_fault(1, TrainerFault::Crash);
    let twins = arm(5).twins(
        "crashed",
        plan_b,
        |_, _, _| {},
        |run| {
            // Every crash in the horizon fires: the clean twin fires none.
            let fired = run.injector.counters().trainer_crashes;
            let scheduled = run.injector.scheduled().trainer;
            if fired != scheduled as u64 {
                run.violations.push(format!(
                    "arm B fired {fired} of {scheduled} trainer crashes"
                ));
            }
        },
    )?;
    divergences.extend(twins);
    Ok(divergences)
}

/// What a WAL chaos run should look like.
#[derive(Debug, Clone)]
pub struct WalChaosOptions {
    /// Dispatch epochs to drive (the crash arm snapshots at the halfway
    /// boundary, so keep this even and at least 2).
    pub epochs: u32,
    /// City shards to host.
    pub num_shards: usize,
    /// Request offers per shard per epoch.
    pub requests_per_epoch: usize,
    /// Seeded interior byte offsets the crash arm kills at, on top of the
    /// two endpoints (right after the boundary snapshot, and after every
    /// post-snapshot offer was journaled).
    pub interior_crash_points: usize,
}

impl WalChaosOptions {
    /// The standard sweep configuration.
    pub fn standard(num_shards: usize) -> Self {
        Self {
            epochs: 8,
            num_shards,
            requests_per_epoch: 4,
            interior_crash_points: 3,
        }
    }
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

/// The durable-ingest-journal invariants, checked as four arms:
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
/// after every post-snapshot offer, and seeded interior bytes (torn
/// mid-record included) — a twin restores from the boundary snapshot plus
/// the journal *truncated at that byte*, re-offers exactly the suffix the
/// truncated journal lost (the client-retry model: an un-journaled offer
/// was never acked), runs the remaining epochs, and must end
/// **bit-identical** to the reference: snapshot text, metrics, and
/// journal sequence numbers.
///
/// **Arm C (interior bit flip):** a run whose journal was bit-flipped
/// in place must be *refused* at recovery with a typed
/// [`WalError::Corrupt`] naming the segment and byte offset — never a
/// panic, never a silent wrong replay.
///
/// Returns the list of violations/divergences (empty on a clean run).
///
/// # Errors
///
/// Returns the first *unexpected* service error from any run (typed torn
/// refusals and the arm-C corrupt rejection are the contract, not
/// errors).
pub fn wal_chaos_divergence(seed: u64, opts: &WalChaosOptions) -> Result<Vec<String>, ServeError> {
    let base = Arm::new(opts.num_shards, opts.epochs, opts.requests_per_epoch);
    let segments = base.segments();
    let mut violations = Vec::new();

    // ---- Arm A: seeded torn appends + fsync stalls, one of each forced.
    {
        let cfg = FaultPlanConfig::wal_chaos(opts.epochs, opts.num_shards);
        let plan = FaultPlan::generate(seed, &cfg)
            .with_wal_fault(1, WalFault::TornAppend)
            .with_wal_fault(4, WalFault::FsyncStall(7));
        let arm = base.journaled(&wal_chaos_dir(seed, "a"));
        let mut run = arm.start(Some(plan), None)?;
        let mut torn_refused = 0u64;
        run.drive(
            opts.epochs,
            |run, epoch, violations| {
                for event in
                    request_events(epoch, opts.num_shards, opts.requests_per_epoch, segments)
                {
                    match run.service.ingest(event) {
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
        match arm.start(
            Some(FaultPlan::empty()),
            Some((&snapshot, Arc::clone(&run.registry))),
        ) {
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
            ..FaultPlanConfig::quiet(opts.epochs, opts.num_shards)
        };
        let plan = FaultPlan::generate(seed, &stall_cfg).with_wal_fault(0, WalFault::FsyncStall(5));
        let arm = base.journaled(&wal_chaos_dir(seed, "a2"));
        let twins = arm.twins("stalled", plan, |_, _, _| {}, |_| {})?;
        violations.extend(twins);
    }

    // ---- Arm B: kill -9 at any byte of the journal.
    {
        let mid = (opts.epochs / 2).max(1);
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
        let post = request_events(mid, opts.num_shards, opts.requests_per_epoch, segments);
        for event in post.iter().cloned() {
            reference.service.ingest(event)?;
        }
        let journal = read_segment()?;
        let tail = opts.epochs - mid;
        reference.drive(tail, |_, _, _| {}, |_, _, _, _| {})?;
        let mut reference = reference.end()?;
        violations.append(&mut reference.violations);

        if journal.len() <= prefix_len {
            violations.push("arm B journal never grew past the boundary snapshot".to_owned());
        } else {
            // Crash offsets: both endpoints plus seeded interior bytes —
            // interior cuts usually land mid-record, exercising the torn
            // tail truncation on the recovery path.
            let span = journal.len() - prefix_len;
            let mut rng = family_stream(seed, "wal-crash-points");
            let mut cuts = vec![prefix_len, journal.len()];
            cuts.extend(
                (0..opts.interior_crash_points).map(|_| prefix_len + rng.random_range(0..span)),
            );
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
                    .start(None, Some((&boundary_snapshot, base.registry())))?;
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
                for event in post[post.len() - missing..].iter().cloned() {
                    crashed.service.ingest(event)?;
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
        let plan = FaultPlan::empty().with_wal_fault(2, WalFault::SegmentBitFlip);
        let arm = base.journaled(&wal_chaos_dir(seed, "c"));
        let run = arm.start(Some(plan), None)?;
        for event in request_events(0, opts.num_shards, opts.requests_per_epoch, segments) {
            let _ = run.service.ingest(event);
        }
        if run.injector.counters().wal_bitflips == 0 {
            violations.push("arm C fired no bit flips".to_owned());
        }
        let snapshot = run.service.snapshot()?;
        match arm.start(Some(FaultPlan::empty()), Some((&snapshot, arm.registry()))) {
            Err(ServeError::Wal(WalError::Corrupt { segment, .. })) => {
                if segment.is_empty() {
                    violations.push("arm C corrupt refusal names no segment".to_owned());
                }
            }
            Ok(restored) => {
                violations.push("bit-flipped journal recovered without error".to_owned());
                restored.service.shutdown();
            }
            Err(e) => violations.push(format!("arm C refused with the wrong error: {e}")),
        }
        run.shutdown();
    }

    Ok(violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stall_masked_by_a_failed_swap_degrades_its_shard_epoch_once() {
        let mut opts = ChaosOptions::seeded(8, 3, 2);
        opts.plan = FaultPlan::empty()
            .with_stall(1, 0, 50)
            .with_swap_failure(1, 0);
        let outcome = run_chaos(8, &opts).expect("chaos run completes");
        assert!(outcome.ok(), "{}", outcome.summary());
        assert_eq!(outcome.counters.degrading(), 2);
        assert_eq!(outcome.metrics.shards[0].degraded, 1);
    }
}
