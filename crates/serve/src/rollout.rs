//! Guarded model rollout: admission → shadow → canary → watch/rollback.
//!
//! A checkpoint hot-swap that *succeeds* structurally can still be a
//! disaster operationally — a NaN-riddled net, a policy trained against the
//! wrong feature layout, or an adversarially bad Q-function would drive
//! real dispatch on every shard at once. This module gates candidate
//! bundles behind a promotion pipeline in front of
//! [`ModelRegistry`](crate::ModelRegistry):
//!
//! 1. **admission** — structural validation at submit time ([`admit`]):
//!    both artifacts must parse, every weight must be finite, the policy's
//!    layer shapes must match `FEATURE_DIM → 1`, and outputs on a
//!    deterministic probe batch must be sane. Failures are typed
//!    [`RolloutError`]s; nothing reaches the registry.
//! 2. **shadow** — the candidate runs side-by-side for K epochs on the same
//!    epoch inputs without affecting dispatch, accumulating the paper
//!    reward `r = α·N^q − β·T^d − γ·N^m` against the incumbent.
//! 3. **canary** — tentative promotion to a configurable subset of shards,
//!    with a windowed reward comparison against the control shards.
//! 4. **watch / auto-rollback** — after full promotion the fleet reward is
//!    watched for a window; any gate failure or regression atomically
//!    restores the pinned previous version and bumps
//!    `rollouts_rolled_back`.
//!
//! This module owns the whole pipeline: the typed pieces, the pure
//! admission and reward functions, and [`Rollout`] — the stage machine,
//! its gates and its `rrew`/`rollout`/`rtext` snapshot records.
//! [`DispatchService`](crate::DispatchService) holds one `Rollout` under
//! its state lock and exposes it through `submit_rollout`,
//! `rollout_status` and `rollout_counters`.

use crate::error::ServeError;
use crate::registry::{ModelBundle, ModelRegistry};
use crate::shard::{RolloutDirective, ShardStatus, SwapError};
use mobirescue_core::predictor::RequestPredictor;
use mobirescue_core::rl_dispatch::{RlDispatchConfig, FEATURE_DIM};
use mobirescue_obs::Level;
use mobirescue_rl::nn::Mlp;
use mobirescue_rl::persist::{mlp_from_text, mlp_to_text, probe_mlp};
use mobirescue_sim::record::{write_block, Reader, Record};
use mobirescue_sim::{EpochReport, SimConfig};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::Arc;

/// Which artifact of a candidate bundle an error refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Artifact {
    /// The SVM request predictor.
    Svm,
    /// The DQN dispatch policy.
    Dqn,
}

impl std::fmt::Display for Artifact {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Artifact::Svm => write!(f, "svm"),
            Artifact::Dqn => write!(f, "dqn"),
        }
    }
}

/// Typed rejection from the rollout pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RolloutError {
    /// Another rollout is already in flight; finish or roll it back first.
    InFlight,
    /// The candidate carries neither a predictor nor a policy.
    EmptyCandidate,
    /// An artifact's checkpoint text failed to parse.
    Parse {
        /// Which artifact failed.
        artifact: Artifact,
        /// The parser's message.
        message: String,
    },
    /// An artifact parsed but failed the structural admission probe
    /// (non-finite weights, wrong shapes, insane probe outputs).
    Probe {
        /// Which artifact failed.
        artifact: Artifact,
        /// The probe's message.
        message: String,
    },
}

impl std::fmt::Display for RolloutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RolloutError::InFlight => write!(f, "a rollout is already in flight"),
            RolloutError::EmptyCandidate => {
                write!(f, "candidate bundle is empty (no predictor, no policy)")
            }
            RolloutError::Parse { artifact, message } => {
                write!(f, "{artifact} checkpoint failed to parse: {message}")
            }
            RolloutError::Probe { artifact, message } => {
                write!(f, "{artifact} checkpoint failed admission probe: {message}")
            }
        }
    }
}

impl std::error::Error for RolloutError {}

/// Gate parameters for the promotion pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct RolloutConfig {
    /// Shadow epochs before the candidate may touch any shard (0 skips the
    /// stage).
    pub shadow_epochs: u32,
    /// Slack added to the candidate's shadow reward before comparing
    /// against the incumbent (`cand + slack >= inc` passes).
    pub shadow_slack: f64,
    /// Canary epochs before fleet-wide promotion (0 skips the stage).
    pub canary_epochs: u32,
    /// Number of shards (`0..canary_shards`) serving the candidate during
    /// the canary stage; the rest are controls.
    pub canary_shards: usize,
    /// Slack added to the canary shards' mean per-shard-epoch reward before
    /// comparing against the control shards.
    pub canary_slack: f64,
    /// Post-promotion watch epochs; a fleet-reward regression beyond
    /// `watch_slack` against the pre-rollout baseline triggers rollback
    /// (0 skips the stage).
    pub watch_epochs: u32,
    /// Tolerated fleet-reward drop per epoch during the watch window.
    pub watch_slack: f64,
    /// `|output|` sanity bound for the admission probe batch.
    pub probe_bound: f64,
}

impl Default for RolloutConfig {
    fn default() -> Self {
        Self {
            shadow_epochs: 2,
            shadow_slack: 0.0,
            canary_epochs: 2,
            canary_shards: 1,
            canary_slack: 0.0,
            watch_epochs: 2,
            watch_slack: 0.0,
            probe_bound: 1e6,
        }
    }
}

/// Stage of an in-flight rollout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RolloutStage {
    /// Candidate scores epochs side-by-side; incumbent serves everywhere.
    Shadow,
    /// Candidate serves the canary shards; incumbent serves the controls.
    Canary,
    /// Candidate is fully promoted; fleet reward is watched for regression.
    Watch,
}

impl std::fmt::Display for RolloutStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RolloutStage::Shadow => write!(f, "shadow"),
            RolloutStage::Canary => write!(f, "canary"),
            RolloutStage::Watch => write!(f, "watch"),
        }
    }
}

/// Public view of an in-flight rollout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RolloutStatus {
    /// Current stage.
    pub stage: RolloutStage,
    /// Epochs completed within the current stage.
    pub epochs_done: u32,
    /// The version the candidate holds (tentative before promotion, actual
    /// during the watch stage).
    pub version: u64,
}

/// Lifetime counters for the rollout pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RolloutCounters {
    /// Candidates that passed admission.
    pub admitted: u64,
    /// Candidates rejected at admission.
    pub rejected: u64,
    /// Candidates rolled back by a shadow, canary, or watch gate.
    pub rolled_back: u64,
}

/// An admitted candidate plus the checkpoint texts it was built from (kept
/// for snapshot persistence: rollout state must survive `mrserve` restore).
struct CandidateBundle {
    /// The parsed bundle, carrying its tentative post-promotion version.
    bundle: Arc<ModelBundle>,
    /// Normalized predictor checkpoint text, if the candidate has one.
    predictor_text: Option<String>,
    /// Normalized policy checkpoint text, if the candidate has one.
    policy_text: Option<String>,
}

impl CandidateBundle {
    /// Runs the texts through [`admit`]; an admitted candidate takes the
    /// version `version` returns.
    fn admit(
        predictor_text: Option<&str>,
        policy_text: Option<&str>,
        probe_bound: f64,
        version: impl FnOnce() -> u64,
    ) -> Result<Self, RolloutError> {
        let (predictor, policy) = admit(predictor_text, policy_text, probe_bound)?;
        // One `\n` per line, so the snapshot's block line counts are exact
        // whatever the submitter's trailing newline.
        let normalize = |text: &str| text.lines().flat_map(|l| [l, "\n"]).collect();
        Ok(Self {
            bundle: Arc::new(ModelBundle {
                version: version(),
                predictor,
                policy,
            }),
            predictor_text: predictor_text.map(normalize),
            policy_text: policy_text.map(normalize),
        })
    }
}

/// Events a pipeline step emits, `(level, shard, message)`, for the
/// service to log once its state lock is released.
pub(crate) type Events = Vec<(Level, Option<usize>, String)>;

/// The in-flight stage and its accumulators.
enum Stage {
    /// The candidate scores each epoch side-by-side with the incumbent.
    Shadow {
        /// Candidate's accumulated shadow reward.
        cand_total: f64,
        /// Incumbent's accumulated primary reward over the same epochs.
        inc_total: f64,
        candidate: CandidateBundle,
    },
    /// The candidate serves the canary shards.
    Canary {
        /// Accumulated reward over canary shard-epochs.
        canary_total: f64,
        /// Accumulated reward over control shard-epochs.
        control_total: f64,
        /// Candidate build failures observed on canary shards.
        failures: u64,
        candidate: CandidateBundle,
    },
    /// Fully promoted; the fleet reward is watched for regression.
    Watch {
        /// Accumulated fleet reward during the watch window.
        total: f64,
        /// Mean pre-rollout fleet reward (None when no history existed).
        baseline: Option<f64>,
        /// The pinned previous bundle, restored verbatim on rollback.
        prior: Arc<ModelBundle>,
    },
}

struct InFlight {
    /// Epochs completed within the current stage.
    done: u32,
    stage: Stage,
}

impl InFlight {
    fn status(&self) -> RolloutStatus {
        let (stage, version) = match &self.stage {
            Stage::Shadow { candidate, .. } => (RolloutStage::Shadow, candidate.bundle.version),
            Stage::Canary { candidate, .. } => (RolloutStage::Canary, candidate.bundle.version),
            Stage::Watch { prior, .. } => (RolloutStage::Watch, prior.version + 1),
        };
        RolloutStatus {
            stage,
            epochs_done: self.done,
            version,
        }
    }

    /// Folds one completed epoch into the stage's accumulators. Returns
    /// `None` while the stage's window is open, else its gate's verdict:
    /// `true` passes the candidate on (or confirms a watched promotion),
    /// `false` drops it — after a watch-window regression, by restoring
    /// the pinned prior bundle into `registry`.
    fn step(
        &mut self,
        cfg: &RolloutConfig,
        registry: &ModelRegistry,
        tally: &EpochTally,
        events: &mut Events,
    ) -> Option<bool> {
        let version = self.status().version;
        match &mut self.stage {
            Stage::Shadow {
                cand_total,
                inc_total,
                ..
            } => {
                if let Some((shard, e)) = &tally.shadow_error {
                    let message = format!(
                        "rollout v{version}: shadow evaluation failed, candidate dropped: {e}"
                    );
                    events.push((Level::Warn, Some(*shard), message));
                    return Some(false);
                }
                self.done += 1;
                *cand_total += tally.shadow;
                *inc_total += tally.fleet;
                if self.done < cfg.shadow_epochs {
                    return None;
                }
                let pass = *cand_total + cfg.shadow_slack >= *inc_total;
                let detail = format!("candidate {cand_total:.3} vs incumbent {inc_total:.3}");
                Some(gate(version, RolloutStage::Shadow, pass, detail, events))
            }
            Stage::Canary {
                canary_total,
                control_total,
                failures,
                ..
            } => {
                self.done += 1;
                *canary_total += tally.canary;
                *control_total += tally.control;
                *failures += tally.canary_failures;
                if self.done < cfg.canary_epochs {
                    return None;
                }
                let canary_mean = *canary_total / f64::from(tally.canary_n.max(1) * self.done);
                let control_mean = if tally.control_n == 0 {
                    0.0
                } else {
                    *control_total / f64::from(tally.control_n * self.done)
                };
                let pass = *failures == 0
                    && (tally.control_n == 0 || canary_mean + cfg.canary_slack >= control_mean);
                let mut detail = format!("canary {canary_mean:.3} vs control {control_mean:.3}");
                if !pass {
                    detail = format!("{failures} build failures, {detail}");
                }
                Some(gate(version, RolloutStage::Canary, pass, detail, events))
            }
            Stage::Watch {
                total,
                baseline,
                prior,
            } => {
                self.done += 1;
                *total += tally.fleet;
                if self.done < cfg.watch_epochs {
                    return None;
                }
                let mean = *total / f64::from(self.done);
                match *baseline {
                    Some(b) if mean + cfg.watch_slack < b => {
                        registry.restore_bundle(Arc::clone(prior));
                        let message = format!(
                            "rollout v{version}: post-promotion regression (fleet reward \
                             {mean:.3} vs baseline {b:.3}), rolled back to v{}",
                            prior.version
                        );
                        events.push((Level::Warn, None, message));
                        Some(false)
                    }
                    _ => {
                        let message =
                            format!("rollout v{version}: watch window clean, promotion confirmed");
                        events.push((Level::Info, None, message));
                        Some(true)
                    }
                }
            }
        }
    }
}

/// Logs a shadow or canary gate's verdict on candidate `version`: passed,
/// or failed with the candidate dropped.
fn gate(
    version: u64,
    stage: RolloutStage,
    pass: bool,
    detail: String,
    events: &mut Events,
) -> bool {
    let (level, outcome) = if pass {
        (Level::Info, format!("passed ({detail})"))
    } else {
        (Level::Warn, format!("failed ({detail}), candidate dropped"))
    };
    events.push((
        level,
        None,
        format!("rollout v{version}: {stage} gate {outcome}"),
    ));
    pass
}

/// The promotion pipeline: the in-flight stage, if any, and the recent
/// fleet-reward window a post-promotion watch compares against.
///
/// [`DispatchService`](crate::DispatchService) keeps one under its state
/// lock and calls it at four points: [`Rollout::submit`] (stage entry),
/// [`Rollout::plan`] (each shard's directive for the next epoch),
/// [`Rollout::advance`] (one step over the epoch's [`EpochTally`]), and
/// [`Rollout::write_records`] / [`RolloutRecords`] (its snapshot records).
pub(crate) struct Rollout {
    config: RolloutConfig,
    registry: Arc<ModelRegistry>,
    in_flight: Option<InFlight>,
    /// Recent per-epoch fleet rewards (capped at `watch_epochs`, at least
    /// one); their mean is the watch baseline.
    recent_rewards: VecDeque<f64>,
}

impl Rollout {
    /// An idle pipeline promoting into `registry`.
    pub(crate) fn new(config: RolloutConfig, registry: Arc<ModelRegistry>) -> Self {
        Self {
            config,
            registry,
            in_flight: None,
            recent_rewards: VecDeque::new(),
        }
    }

    /// The in-flight stage, epochs completed within it, and the
    /// candidate's (tentative) version.
    pub(crate) fn status(&self) -> Option<RolloutStatus> {
        self.in_flight.as_ref().map(InFlight::status)
    }

    /// [`admit`]s checkpoint texts as the next registry version and
    /// enters the first configured stage. Returns the in-flight status,
    /// or `None` when the candidate was promoted with no watch window.
    ///
    /// # Errors
    ///
    /// The admission [`RolloutError`]; the pipeline is left unchanged.
    pub(crate) fn submit(
        &mut self,
        predictor_text: Option<&str>,
        policy_text: Option<&str>,
        events: &mut Events,
    ) -> Result<Option<RolloutStatus>, RolloutError> {
        let next_version = || self.registry.current().version + 1;
        let probe_bound = self.config.probe_bound;
        let candidate =
            CandidateBundle::admit(predictor_text, policy_text, probe_bound, next_version)?;
        self.enter(RolloutStage::Shadow, candidate, events);
        Ok(self.status())
    }

    /// Stage entry: the first configured stage at or after `from` —
    /// shadow, else canary, else promotion fleet-wide, which pins the
    /// previous bundle for a watch window when one is configured. Entry
    /// from `Shadow` is a submission, and is announced as an admission.
    fn enter(&mut self, from: RolloutStage, candidate: CandidateBundle, events: &mut Events) {
        let cfg = &self.config;
        let version = candidate.bundle.version;
        let mut admitted = |stage: &str| {
            if from == RolloutStage::Shadow {
                let message = format!("rollout v{version}: admitted, entering {stage}");
                events.push((Level::Info, None, message));
            }
        };
        let stage = if from == RolloutStage::Shadow && cfg.shadow_epochs > 0 {
            admitted("shadow evaluation");
            Stage::Shadow {
                cand_total: 0.0,
                inc_total: 0.0,
                candidate,
            }
        } else if from != RolloutStage::Watch && cfg.canary_epochs > 0 && cfg.canary_shards > 0 {
            admitted("canary stage");
            Stage::Canary {
                canary_total: 0.0,
                control_total: 0.0,
                failures: 0,
                candidate,
            }
        } else {
            let prior = self.registry.current();
            let bundle = &candidate.bundle;
            let version = self
                .registry
                .install(bundle.predictor.clone(), bundle.policy.clone());
            let message = format!("rollout v{version}: promoted fleet-wide");
            events.push((Level::Info, None, message));
            let rewards = &self.recent_rewards;
            let baseline =
                (!rewards.is_empty()).then(|| rewards.iter().sum::<f64>() / rewards.len() as f64);
            self.in_flight = (cfg.watch_epochs > 0).then_some(InFlight {
                done: 0,
                stage: Stage::Watch {
                    total: 0.0,
                    baseline,
                    prior,
                },
            });
            return;
        };
        self.in_flight = Some(InFlight { done: 0, stage });
    }

    /// The next epoch's directive for each of `num_shards` shards — a
    /// shadow candidate is scored on every shard, a canary candidate
    /// serves shards `0..canary_shards` (the rest are controls) — and the
    /// empty tally their results fold into.
    pub(crate) fn plan(&self, num_shards: usize) -> (Vec<Option<RolloutDirective>>, EpochTally) {
        let stage = self.in_flight.as_ref().map(|f| &f.stage);
        let canary_shards = self.config.canary_shards;
        let directive = |i: usize| match stage {
            Some(Stage::Shadow { candidate, .. }) => {
                Some(RolloutDirective::Shadow(Arc::clone(&candidate.bundle)))
            }
            Some(Stage::Canary { candidate, .. }) if i < canary_shards => {
                Some(RolloutDirective::Canary(Arc::clone(&candidate.bundle)))
            }
            _ => None,
        };
        let tally = EpochTally {
            canary_shards: matches!(stage, Some(Stage::Canary { .. })).then_some(canary_shards),
            ..EpochTally::default()
        };
        ((0..num_shards).map(directive).collect(), tally)
    }

    /// Advances the in-flight stage by one completed epoch, then records
    /// the epoch's fleet reward in the baseline window. Returns whether a
    /// gate rolled the candidate back.
    pub(crate) fn advance(&mut self, tally: &EpochTally, events: &mut Events) -> bool {
        let verdict = match &mut self.in_flight {
            Some(flight) => flight.step(&self.config, &self.registry, tally, events),
            None => None,
        };
        if let Some(pass) = verdict {
            match self.in_flight.take().map(|f| f.stage) {
                Some(Stage::Shadow { candidate, .. }) if pass => {
                    self.enter(RolloutStage::Canary, candidate, events);
                }
                Some(Stage::Canary { candidate, .. }) if pass => {
                    self.enter(RolloutStage::Watch, candidate, events);
                }
                _ => {}
            }
        }
        self.recent_rewards.push_back(tally.fleet);
        let cap = self.config.watch_epochs.max(1) as usize;
        while self.recent_rewards.len() > cap {
            self.recent_rewards.pop_front();
        }
        verdict == Some(false)
    }

    /// Writes the pipeline's records: `rrew` (the baseline window, when
    /// non-empty), then the in-flight stage's `rollout` record and the
    /// `rtext` checkpoint blocks that rebuild it bit-identically — the
    /// candidate's texts, or during a watch window the pinned prior's.
    pub(crate) fn write_records(&self, out: &mut String) {
        if !self.recent_rewards.is_empty() {
            out.push_str("rrew");
            for r in &self.recent_rewards {
                let _ = write!(out, " {r:?}");
            }
            out.push('\n');
        }
        let Some(InFlight { done, stage }) = &self.in_flight else {
            return;
        };
        let candidate = match stage {
            Stage::Shadow {
                cand_total,
                inc_total,
                candidate,
            } => {
                let _ = write!(out, "rollout shadow {done} {cand_total:?} {inc_total:?}");
                candidate
            }
            Stage::Canary {
                canary_total,
                control_total,
                failures,
                candidate,
            } => {
                let _ = write!(
                    out,
                    "rollout canary {done} {canary_total:?} {control_total:?} {failures}"
                );
                candidate
            }
            Stage::Watch {
                total,
                baseline,
                prior,
            } => {
                let baseline = baseline.map_or_else(|| "-".to_owned(), |b| format!("{b:?}"));
                let version = prior.version;
                let _ = writeln!(out, "rollout watch {done} {total:?} {baseline} {version}");
                if let Some(p) = &prior.predictor {
                    write_block(out, "rtext ppred", &p.to_text());
                }
                if let Some(net) = &prior.policy {
                    write_block(out, "rtext ppol", &mlp_to_text(net));
                }
                return;
            }
        };
        let _ = writeln!(out, " {}", candidate.bundle.version);
        if let Some(t) = &candidate.predictor_text {
            write_block(out, "rtext cpred", t);
        }
        if let Some(t) = &candidate.policy_text {
            write_block(out, "rtext cpol", t);
        }
    }
}

/// One epoch's shard results as the gates read them. Shards fold in in
/// index order and every sum starts at `0.0`, so each accumulation is
/// bit-reproducible.
#[derive(Default)]
pub(crate) struct EpochTally {
    /// In a canary epoch, the canary shard count: shards below it served
    /// the candidate, the rest are controls.
    canary_shards: Option<usize>,
    /// Every shard's primary reward.
    fleet: f64,
    /// Every shard's shadow-candidate reward.
    shadow: f64,
    /// The first shard whose shadow evaluation failed, and why.
    shadow_error: Option<(usize, String)>,
    canary: f64,
    canary_n: u32,
    control: f64,
    control_n: u32,
    /// Canary candidates that failed to build on a shard.
    canary_failures: u64,
}

impl EpochTally {
    /// Folds in shard `shard`'s status; call in shard-index order.
    pub(crate) fn add(&mut self, shard: usize, st: &ShardStatus) {
        self.fleet += st.reward;
        if let Some(sh) = &st.shadow {
            self.shadow += sh.candidate_reward;
            if let (None, Some(e)) = (&self.shadow_error, &sh.error) {
                self.shadow_error = Some((shard, e.clone()));
            }
        }
        match self.canary_shards {
            Some(n) if shard < n => {
                self.canary += st.reward;
                self.canary_n += 1;
            }
            Some(_) => {
                self.control += st.reward;
                self.control_n += 1;
            }
            None => {}
        }
        if let Some(SwapError::Rollout(_)) = st.swap_error {
            self.canary_failures += 1;
        }
    }
}

/// The pipeline's records, collected while an `mrserve` snapshot is read
/// and reassembled by [`RolloutRecords::restore`] once every `rtext`
/// block is in.
#[derive(Default)]
pub(crate) struct RolloutRecords<'a> {
    recent_rewards: Option<Vec<f64>>,
    rollout: Option<Record<'a>>,
    cpred: Option<String>,
    cpol: Option<String>,
    ppred: Option<String>,
    ppol: Option<String>,
}

impl<'a> RolloutRecords<'a> {
    /// Reads one `rrew`, `rollout` or `rtext` record (the only tags the
    /// caller passes), taking an `rtext` block's body from `reader`.
    pub(crate) fn read(
        &mut self,
        mut r: Record<'a>,
        reader: &mut Reader<'a>,
    ) -> Result<(), ServeError> {
        match r.tag {
            "rrew" => r.once(&mut self.recent_rewards, |r| r.all(|r| r.field("reward")))?,
            // Its fields are read by `restore`, after the `rtext` blocks.
            "rollout" => return Ok(r.once(&mut self.rollout, |r| Ok(*r))?),
            _ => {
                let slot = match r.token("kind")? {
                    "cpred" => &mut self.cpred,
                    "cpol" => &mut self.cpol,
                    "ppred" => &mut self.ppred,
                    "ppol" => &mut self.ppol,
                    _ => return Err(ServeError::BadSnapshot("unknown rtext kind".to_owned())),
                };
                r.once(slot, |r| reader.block(r))?;
            }
        }
        Ok(r.finish()?)
    }

    /// Reassembles the pipeline. Candidates re-enter through the admission
    /// gate — a snapshot is no excuse for serving a checkpoint that would
    /// not be admitted today — while a watch stage's pinned prior rebuilds
    /// verbatim from its persisted texts (`{:?}` float formatting
    /// round-trips weights bit-exactly).
    pub(crate) fn restore(
        self,
        config: RolloutConfig,
        registry: Arc<ModelRegistry>,
    ) -> Result<Rollout, ServeError> {
        let bad = ServeError::BadSnapshot;
        let mut rollout = Rollout::new(config, registry);
        rollout.recent_rewards = self.recent_rewards.unwrap_or_default().into();
        let Some(mut r) = self.rollout else {
            return Ok(rollout);
        };
        let probe_bound = rollout.config.probe_bound;
        let (cpred, cpol) = (self.cpred.as_deref(), self.cpol.as_deref());
        let candidate = |version| {
            CandidateBundle::admit(cpred, cpol, probe_bound, || version).map_err(|e| {
                bad(format!(
                    "rollout candidate in snapshot failed admission: {e}"
                ))
            })
        };
        let prior = |version| -> Result<_, ServeError> {
            let fail =
                |what: &str, e: String| bad(format!("rollout prior {what} in snapshot: {e}"));
            let predictor = (self
                .ppred
                .as_deref()
                .map(RequestPredictor::from_text)
                .transpose())
            .map_err(|e| fail("predictor", e))?;
            let policy = (self.ppol.as_deref().map(mlp_from_text).transpose())
                .map_err(|e| fail("policy", e.to_string()))?;
            Ok(Arc::new(ModelBundle {
                version,
                predictor,
                policy,
            }))
        };
        let (done, stage) = match r.token("stage")? {
            "shadow" => (
                r.field("done")?,
                Stage::Shadow {
                    cand_total: r.field("candidate total")?,
                    inc_total: r.field("incumbent total")?,
                    candidate: candidate(r.field("version")?)?,
                },
            ),
            "canary" => (
                r.field("done")?,
                Stage::Canary {
                    canary_total: r.field("canary total")?,
                    control_total: r.field("control total")?,
                    failures: r.field("failures")?,
                    candidate: candidate(r.field("version")?)?,
                },
            ),
            "watch" => (
                r.field("done")?,
                Stage::Watch {
                    total: r.field("total")?,
                    baseline: r.opt(|r| r.field("baseline"))?,
                    prior: prior(r.field("prior version")?)?,
                },
            ),
            other => return Err(bad(format!("unknown rollout stage `{other}`"))),
        };
        r.finish()?;
        rollout.in_flight = Some(InFlight { done, stage });
        Ok(rollout)
    }
}

/// Admission gate: parse and structurally validate a candidate's checkpoint
/// texts. `probe_bound` caps `|output|` on the policy's probe batch.
///
/// # Errors
///
/// Returns a typed [`RolloutError`]; an empty candidate, a parse failure,
/// or a probe failure — each naming the offending artifact.
pub fn admit(
    predictor_text: Option<&str>,
    policy_text: Option<&str>,
    probe_bound: f64,
) -> Result<(Option<RequestPredictor>, Option<Mlp>), RolloutError> {
    if predictor_text.is_none() && policy_text.is_none() {
        return Err(RolloutError::EmptyCandidate);
    }
    let predictor = match predictor_text {
        Some(text) => {
            let p = RequestPredictor::from_text(text).map_err(|message| RolloutError::Parse {
                artifact: Artifact::Svm,
                message,
            })?;
            p.probe().map_err(|message| RolloutError::Probe {
                artifact: Artifact::Svm,
                message,
            })?;
            Some(p)
        }
        None => None,
    };
    let policy = match policy_text {
        Some(text) => {
            let net = mlp_from_text(text).map_err(|e| RolloutError::Parse {
                artifact: Artifact::Dqn,
                message: e.to_string(),
            })?;
            if net.input_dim() != FEATURE_DIM || net.output_dim() != 1 {
                return Err(RolloutError::Probe {
                    artifact: Artifact::Dqn,
                    message: format!(
                        "policy network is {}→{}, dispatcher needs {FEATURE_DIM}→1",
                        net.input_dim(),
                        net.output_dim()
                    ),
                });
            }
            probe_mlp(&net, probe_bound).map_err(|e| RolloutError::Probe {
                artifact: Artifact::Dqn,
                message: e.to_string(),
            })?;
            Some(net)
        }
        None => None,
    };
    Ok((predictor, policy))
}

/// The paper's Equation 5 reward for one served epoch,
/// `r = α·N^q − β·T^d − γ·N^m`: rescues picked up this epoch, minus the
/// waiting-time cost of the queue (each waiting request waits one dispatch
/// period, in hours), minus the in-motion cost of teams still serving.
pub fn epoch_reward(rl: &RlDispatchConfig, sim: &SimConfig, report: &EpochReport) -> f64 {
    let period_h = f64::from(sim.dispatch_period_s) / 3600.0;
    rl.alpha * f64::from(report.picked_up)
        - rl.beta * (report.waiting_at_tick as f64) * period_h
        - rl.gamma_weight * (report.serving_at_tick as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobirescue_rl::persist::mlp_to_text;

    #[test]
    fn admission_accepts_a_healthy_policy() {
        let net = Mlp::new(&[FEATURE_DIM, 8, 1], 5);
        let (pred, policy) = admit(None, Some(&mlp_to_text(&net)), 1e6).expect("admits");
        assert!(pred.is_none());
        assert_eq!(
            policy.expect("policy parsed").num_params(),
            net.num_params()
        );
    }

    #[test]
    fn admission_rejects_empty_parse_shape_and_poison() {
        match admit(None, None, 1e6) {
            Err(RolloutError::EmptyCandidate) => {}
            other => panic!("expected EmptyCandidate, got {:?}", other.map(|_| ())),
        }

        match admit(None, Some("garbage"), 1e6) {
            Err(RolloutError::Parse { artifact, message }) => {
                assert_eq!(artifact, Artifact::Dqn);
                assert!(message.contains("header"), "{message}");
            }
            other => panic!("expected Dqn parse error, got {other:?}"),
        }

        let wrong = Mlp::new(&[FEATURE_DIM + 1, 4, 1], 0);
        match admit(None, Some(&mlp_to_text(&wrong)), 1e6) {
            Err(RolloutError::Probe { artifact, message }) => {
                assert_eq!(artifact, Artifact::Dqn);
                assert!(message.contains("dispatcher needs"), "{message}");
            }
            other => panic!("expected Dqn shape error, got {other:?}"),
        }

        let mut nan = Mlp::new(&[FEATURE_DIM, 4, 1], 0);
        nan.visit_params_mut(|i, w, _| {
            if i == 3 {
                *w = f64::NAN;
            }
        });
        match admit(None, Some(&mlp_to_text(&nan)), 1e6) {
            Err(RolloutError::Probe { artifact, message }) => {
                assert_eq!(artifact, Artifact::Dqn);
                assert!(message.contains("not finite"), "{message}");
            }
            other => panic!("expected Dqn probe error, got {other:?}"),
        }

        match admit(Some("not a predictor"), None, 1e6) {
            Err(RolloutError::Parse { artifact, message }) => {
                assert_eq!(artifact, Artifact::Svm);
                assert!(message.contains("predictor header"), "{message}");
            }
            other => panic!("expected Svm parse error, got {other:?}"),
        }
    }

    #[test]
    fn errors_display_the_artifact() {
        let e = RolloutError::Probe {
            artifact: Artifact::Dqn,
            message: "parameter 3 is not finite".into(),
        };
        let msg = e.to_string();
        assert!(
            msg.contains("dqn") && msg.contains("admission probe"),
            "{msg}"
        );
        assert!(RolloutError::InFlight.to_string().contains("in flight"));
    }

    #[test]
    fn reward_follows_equation_five() {
        let rl = RlDispatchConfig::default();
        let sim = SimConfig::paper(6);
        let report = EpochReport {
            epoch: 0,
            start_s: 0,
            waiting_at_tick: 4,
            serving_at_tick: 3,
            picked_up: 2,
            delivered: 1,
        };
        let period_h = f64::from(sim.dispatch_period_s) / 3600.0;
        let expect = rl.alpha * 2.0 - rl.beta * 4.0 * period_h - rl.gamma_weight * 3.0;
        assert_eq!(epoch_reward(&rl, &sim, &report), expect);
    }
}
