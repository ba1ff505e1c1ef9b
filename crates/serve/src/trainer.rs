//! The online trainer: closes the learning loop behind the rollout gate.
//!
//! Serve shards run *frozen* dispatchers, but each one taps the
//! `(features, reward, next_candidates)` transitions its dispatcher would
//! have learned from (see
//! `MobiRescueDispatcher::set_transition_tap`). The service offers those
//! transitions into this trainer's bounded, shed-counting queue — the same
//! backpressure discipline as request ingestion: a slow trainer sheds
//! training data, never dispatch throughput. Once per epoch the trainer
//! drains the queue into a capacity-bounded replay ring and runs a fixed
//! number of seeded mini-batch DQN updates through `rl`'s `TdLearner`,
//! the same update the offline `QScore` learner runs (batched candidate
//! scoring, target network, Adam). Every `candidate_every` epochs it
//! emits its online network as a candidate checkpoint — which the service routes through
//! [`crate::DispatchService::submit_rollout`], so a self-trained model is
//! admission-probed, shadow-evaluated, canaried and auto-rolled-back
//! exactly like one delivered from outside.
//!
//! # Determinism contract
//!
//! The trainer holds **no** long-lived RNG: each learning step re-seeds a
//! fresh [`StdRng`] from `seed` mixed with the step counter, so sampling
//! is a pure function of `(seed, steps, replay contents)`. Combined with
//! zero-span [`crate::SimClock`] timing this makes a trainer run a pure
//! function of its transition stream: same seed + same stream ⇒
//! byte-identical candidate checkpoints — and snapshot/restore at an epoch
//! boundary resumes bit-identically, which the chaos suite exploits to
//! verify crash recovery against an unfaulted twin.

use crate::queue::{BoundedQueue, ShedPolicy};
use mobirescue_core::rl_dispatch::FEATURE_DIM;
use mobirescue_obs::{Counter, Histogram, Registry, TimeSource};
use mobirescue_rl::nn::BatchScratch;
use mobirescue_rl::persist::{mlp_from_text, mlp_to_text};
use mobirescue_rl::qscore::{PairTransition, QScoreConfig, TdLearner};
use mobirescue_rl::replay::{pair_from_line, pair_to_line, PairReplay};
use mobirescue_rl::Adam;
use mobirescue_sim::record::{write_block, Reader};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Hyperparameters of the background trainer.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainerConfig {
    /// Transition queue capacity (overflow is shed and counted, exactly
    /// like the ingest queues).
    pub queue_capacity: usize,
    /// Replay ring capacity.
    pub replay_capacity: usize,
    /// Transitions required in replay before learning starts.
    pub min_replay: usize,
    /// Mini-batch size per learning step.
    pub batch_size: usize,
    /// Learning steps attempted per service epoch.
    pub steps_per_epoch: u32,
    /// Emit a candidate checkpoint every this many epochs (0 disables
    /// emission; the trainer still learns).
    pub candidate_every: u32,
    /// TD discount γ.
    pub gamma: f64,
    /// Adam learning rate.
    pub lr: f64,
    /// Hidden layers of the trained policy network.
    pub hidden: Vec<usize>,
    /// Copy online → target every this many learning steps.
    pub target_sync_every: u64,
    /// Network-initialization and batch-sampling seed.
    pub seed: u64,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 4_096,
            replay_capacity: 4_096,
            min_replay: 64,
            batch_size: 16,
            steps_per_epoch: 4,
            candidate_every: 8,
            gamma: 0.9,
            lr: 1e-3,
            hidden: vec![32, 32],
            target_sync_every: 32,
            seed: 0,
        }
    }
}

/// Public view of the trainer's progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrainerStatus {
    /// Service epochs the trainer has ticked through.
    pub epochs: u32,
    /// Mini-batch learning steps performed.
    pub steps: u64,
    /// Transitions offered to the trainer queue.
    pub offered: u64,
    /// Transitions accepted into the queue (`train.transitions_accepted`).
    pub accepted: u64,
    /// Transitions shed at the queue, backpressure
    /// (`train.transitions_shed`).
    pub shed: u64,
    /// Transitions currently held in the replay ring.
    pub replay_len: usize,
    /// Candidate checkpoints the trainer has emitted.
    pub candidates: u64,
}

/// Observability handles the trainer records into (fetched once from the
/// service registry; all zero-cost on a [`crate::SimClock`]). The queue
/// counts its own admissions and sheds into `train.transitions_accepted`
/// and `train.transitions_shed`.
#[derive(Clone)]
struct TrainerObs {
    steps: Counter,
    offered: Counter,
    loss: Histogram,
    step_ms: Histogram,
    time: Arc<dyn TimeSource>,
}

impl TrainerObs {
    fn new(obs: &Registry, time: Arc<dyn TimeSource>) -> Self {
        Self {
            steps: obs.counter("train.steps"),
            offered: obs.counter("train.transitions_offered"),
            loss: obs.histogram("train.loss"),
            step_ms: obs.histogram("train.step_ms"),
            time,
        }
    }
}

/// The online DQN trainer. Owned by the service and stepped synchronously
/// at each epoch boundary — on a [`crate::SimClock`] that makes the whole
/// learning loop bit-for-bit deterministic, and it means trainer state can
/// only ever be snapshotted between steps.
pub(crate) struct Trainer {
    config: TrainerConfig,
    /// Networks, optimizer and TD update; its step count is also the
    /// per-step RNG stream position.
    learner: TdLearner,
    replay: PairReplay,
    queue: BoundedQueue<PairTransition>,
    /// Service epochs ticked.
    epochs: u32,
    /// Candidates emitted.
    candidates: u64,
    obs: TrainerObs,
    /// Activation buffers of the target-network scoring passes.
    scratch: BatchScratch,
}

impl Trainer {
    /// A fresh trainer (seeded nets, empty replay, empty queue) recording
    /// into `obs`'s `train.*` series, timing steps on `time`.
    pub fn new(config: TrainerConfig, obs: &Registry, time: Arc<dyn TimeSource>) -> Self {
        let learner = TdLearner::new(&learner_config(&config));
        let replay = PairReplay::new(config.replay_capacity.max(1));
        let queue = BoundedQueue::new(
            config.queue_capacity.max(1),
            ShedPolicy::DropNewest,
            obs.counter("train.transitions_accepted"),
            obs.counter("train.transitions_shed"),
        );
        Self {
            config,
            learner,
            replay,
            queue,
            epochs: 0,
            candidates: 0,
            obs: TrainerObs::new(obs, time),
            scratch: BatchScratch::default(),
        }
    }

    /// Offers one epoch's tapped transitions into the bounded queue,
    /// which counts each admission or shed; the offer count is the
    /// trainer's own.
    pub fn offer(&self, transitions: Vec<PairTransition>) {
        for t in transitions {
            self.obs.offered.inc();
            let _ = self.queue.push(t);
        }
    }

    /// One epoch boundary: drain the queue into replay, run the configured
    /// learning steps (if warmed up), and return a candidate checkpoint
    /// text when the emission cadence is due.
    pub fn epoch_tick(&mut self) -> Option<String> {
        // Handles, not the trainer: a step span is open across `learn_step`.
        let obs = self.obs.clone();
        for t in self.queue.drain() {
            self.replay.push(t);
        }
        let warm = self.replay.len() >= self.config.min_replay.max(self.config.batch_size);
        if warm {
            for _ in 0..self.config.steps_per_epoch {
                let span = obs.step_ms.time(obs.time.as_ref());
                let loss = self.learn_step();
                drop(span);
                obs.steps.inc();
                // The log2-bucket histogram stores integers; milli-loss
                // keeps sub-1.0 TD errors distinguishable from zero.
                obs.loss.record((loss * 1_000.0).round() as u64);
            }
        }
        self.epochs += 1;
        let due = self.config.candidate_every > 0
            && self.epochs.is_multiple_of(self.config.candidate_every)
            && self.learner.steps() > 0;
        due.then(|| {
            self.candidates += 1;
            self.policy_text()
        })
    }

    /// One seeded mini-batch TD update; returns the mean squared TD
    /// error. The batch RNG is derived from `(seed, steps)` alone, so a
    /// restored trainer samples identically to one that never stopped.
    fn learn_step(&mut self) -> f64 {
        let mut rng = StdRng::seed_from_u64(
            self.config.seed
                ^ 0x7472_6169_6e00_0000u64
                ^ self.learner.steps().wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let batch = self.replay.sample(&mut rng, self.config.batch_size.max(1));
        self.learner.step(&batch, &mut self.scratch)
    }

    /// The current online network's checkpoint text (what the next
    /// candidate emission would contain).
    pub fn policy_text(&self) -> String {
        mlp_to_text(self.learner.online())
    }

    /// Progress counters (queue totals come from the shed-counting queue).
    pub fn status(&self) -> TrainerStatus {
        TrainerStatus {
            epochs: self.epochs,
            steps: self.learner.steps(),
            offered: self.queue.accepted() + self.queue.shed(),
            accepted: self.queue.accepted(),
            shed: self.queue.shed(),
            replay_len: self.replay.len(),
            candidates: self.candidates,
        }
    }

    /// Serializes the full trainer state as line-oriented text:
    /// a `trainer` header (counters), the optimizer, both networks, the
    /// replay ring, and any still-queued transitions. Floats use `{:?}`,
    /// so restore is bit-exact.
    pub fn snapshot_text(&self) -> String {
        let mut out = format!(
            "trainer {} {} {} {} {}\n",
            self.epochs,
            self.learner.steps(),
            self.candidates,
            self.queue.accepted(),
            self.queue.shed()
        );
        out.push_str(&self.learner.adam().to_text());
        out.push_str(&mlp_to_text(self.learner.online()));
        out.push_str(&mlp_to_text(self.learner.target()));
        out.push_str(&self.replay.to_text());
        let queued: Vec<String> = self.queue.peek_all().iter().map(pair_to_line).collect();
        write_block(&mut out, "tqueue", &queued.join("\n"));
        out
    }

    /// Rebuilds a trainer from [`Trainer::snapshot_text`] output under
    /// this trainer's config (like every other serve component, only
    /// *state* comes from the snapshot), recording into the same `train.*`
    /// series with the step and transition counters *set* to the restored
    /// totals, as a service restore sets its `serve.*` counters. Nothing
    /// is written to those series unless the whole text is accepted.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed record, or the part of the
    /// state the online network could not step: an optimizer or target
    /// network of another shape, or a transition of another width.
    pub fn restore(&self, text: &str) -> Result<Self, String> {
        let config = self.config.clone();
        let mut reader = Reader::new(text);
        let mut r = reader.expect("trainer")?;
        let epochs = r.field("epochs")?;
        let steps = r.field("steps")?;
        let candidates = r.field("candidates")?;
        let accepted = r.field("accepted")?;
        let shed = r.field("shed")?;
        r.finish()?;
        let adam = Adam::from_text(reader.line("optimizer")?)?;
        // Each network is a two-line `rl::persist` text.
        let mut take_net = |what: &str| {
            mlp_from_text(&reader.lines_block(2, what)?).map_err(|e| format!("{what}: {e}"))
        };
        let online = take_net("online net")?;
        let target = take_net("target net")?;
        let replay_header = reader.line("replay")?;
        let mut h = Reader::new(replay_header).expect("pairreplay")?;
        h.field::<usize>("capacity")?;
        let replay_len = h.field("length")?;
        let replay_body = reader.lines_block(replay_len, "replay")?;
        let replay = PairReplay::from_text(&format!("{replay_header}\n{replay_body}"))?;
        let mut tqueue = reader.expect("tqueue")?;
        let queued = (reader.block(&mut tqueue)?.lines())
            .map(|line| pair_from_line(line).ok_or_else(|| format!("bad queued line: {line:?}")))
            .collect::<Result<Vec<_>, _>>()?;
        if let Ok(line) = reader.line("end") {
            return Err(format!("trailing line in trainer snapshot: {line:?}"));
        }
        if online.input_dim() != FEATURE_DIM || online.output_dim() != 1 {
            return Err("trainer online network has the wrong shape".to_owned());
        }
        let learner = TdLearner::from_parts(&learner_config(&config), online, target, adam, steps)?;
        let unfit = |what: &str, items: &[PairTransition]| {
            let i = items.iter().position(|t| !learner.can_step(t))?;
            Some(format!(
                "{what} transition {i} does not fit the online network"
            ))
        };
        if let Some(why) = unfit("replay", replay.items()).or_else(|| unfit("queued", &queued)) {
            return Err(why);
        }
        let (accepted_c, shed_c) = self.queue.counters();
        let queue = BoundedQueue::new(
            config.queue_capacity.max(1),
            ShedPolicy::DropNewest,
            accepted_c.clone(),
            shed_c.clone(),
        );
        for t in queued {
            let _ = queue.push(t);
        }
        accepted_c.set(accepted);
        shed_c.set(shed);
        let obs = self.obs.clone();
        obs.steps.set(steps);
        obs.offered.set(accepted + shed);
        Ok(Self {
            config,
            learner,
            replay,
            queue,
            epochs,
            candidates,
            obs,
            scratch: BatchScratch::default(),
        })
    }
}

/// The [`TdLearner`] settings a trainer config implies: a
/// `FEATURE_DIM`-input network, and a target sync at least every step.
fn learner_config(config: &TrainerConfig) -> QScoreConfig {
    QScoreConfig {
        hidden: config.hidden.clone(),
        gamma: config.gamma,
        lr: config.lr,
        target_sync_every: config.target_sync_every.max(1),
        seed: config.seed,
        ..QScoreConfig::new(FEATURE_DIM)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;

    fn trainer(config: TrainerConfig) -> Trainer {
        Trainer::new(config, &Registry::new(), Arc::new(SimClock::new()))
    }

    fn stream(seed: u64, n: usize) -> Vec<PairTransition> {
        use rand::RngExt;
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| PairTransition {
                features: (0..FEATURE_DIM).map(|_| rng.random::<f64>()).collect(),
                reward: rng.random::<f64>() * 10.0 - 2.0,
                next_candidates: (0..3)
                    .map(|_| (0..FEATURE_DIM).map(|_| rng.random::<f64>()).collect())
                    .collect(),
            })
            .collect()
    }

    fn small_config() -> TrainerConfig {
        TrainerConfig {
            min_replay: 8,
            batch_size: 4,
            steps_per_epoch: 2,
            candidate_every: 2,
            hidden: vec![8],
            seed: 5,
            ..TrainerConfig::default()
        }
    }

    #[test]
    fn learns_and_emits_candidates_on_cadence() {
        let mut t = trainer(small_config());
        let initial = t.policy_text();
        let mut emitted = 0;
        for epoch in 0..6u64 {
            t.offer(stream(epoch, 4));
            if t.epoch_tick().is_some() {
                emitted += 1;
            }
        }
        assert!(t.status().steps > 0, "never learned");
        assert_eq!(emitted, 3, "cadence is every 2 epochs");
        assert_eq!(t.status().candidates, 3);
        assert_ne!(t.policy_text(), initial, "training never moved the net");
        assert_eq!(t.obs.steps.value(), t.status().steps);
        assert_eq!(
            t.obs.offered.value(),
            t.queue.accepted() + t.queue.shed(),
            "transition conservation"
        );
    }

    #[test]
    fn queue_sheds_when_full_and_conserves() {
        let t = trainer(TrainerConfig {
            queue_capacity: 3,
            ..small_config()
        });
        t.offer(stream(0, 10));
        let s = t.status();
        assert_eq!(s.offered, 10);
        assert_eq!(s.accepted, 3);
        assert_eq!(s.shed, 7);
        assert_eq!(s.offered, s.accepted + s.shed);
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let mut a = trainer(small_config());
        for epoch in 0..3u64 {
            a.offer(stream(epoch, 6));
            let _ = a.epoch_tick();
        }
        // Snapshot mid-stream — with transitions still queued.
        a.offer(stream(90, 3));
        let text = a.snapshot_text();
        let mut b = trainer(small_config()).restore(&text).expect("restores");
        assert_eq!(b.snapshot_text(), text, "restore is lossless");
        for epoch in 3..6u64 {
            a.offer(stream(epoch, 6));
            b.offer(stream(epoch, 6));
            let ca = a.epoch_tick();
            let cb = b.epoch_tick();
            assert_eq!(ca, cb, "restored trainer diverged at epoch {epoch}");
        }
        assert_eq!(a.policy_text(), b.policy_text());
        assert_eq!(a.snapshot_text(), b.snapshot_text());
    }

    #[test]
    fn restore_rejects_malformed_records() {
        let t = trainer(small_config());
        let text = t.snapshot_text();
        assert!(t.restore("").is_err());
        assert!(t.restore("notatrainer 0 0 0 0 0").is_err());
        let truncated: String = text.lines().take(2).collect::<Vec<_>>().join("\n");
        assert!(t.restore(&truncated).is_err());
        let trailing = format!("{text}junk\n");
        assert!(t.restore(&trailing).is_err());
    }

    #[test]
    fn same_seed_same_stream_is_byte_identical_and_seed_changes_it() {
        let run = |seed: u64| {
            let mut t = trainer(TrainerConfig {
                seed,
                ..small_config()
            });
            for epoch in 0..4u64 {
                t.offer(stream(epoch, 6));
                let _ = t.epoch_tick();
            }
            t.policy_text()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}
