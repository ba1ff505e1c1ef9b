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
//! number of seeded mini-batch DQN updates (the exact TD rule the offline
//! `QScore` learner uses: batched candidate scoring, target network,
//! Adam). Every `candidate_every` epochs it emits its online network as a
//! candidate checkpoint — which the service routes through
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
use mobirescue_rl::nn::{BatchScratch, Mlp};
use mobirescue_rl::persist::{mlp_from_text, mlp_to_text};
use mobirescue_rl::qscore::{max_q, PairTransition};
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
    /// Transitions accepted into the queue.
    pub accepted: u64,
    /// Transitions shed at the queue (backpressure).
    pub shed: u64,
    /// Transitions currently held in the replay ring.
    pub replay_len: usize,
    /// Candidate checkpoints the trainer has emitted.
    pub candidates: u64,
}

/// Observability handles the trainer records into (fetched once from the
/// service registry; all zero-cost on a [`crate::SimClock`]).
#[derive(Clone)]
struct TrainerObs {
    steps: Counter,
    offered: Counter,
    accepted: Counter,
    shed: Counter,
    loss: Histogram,
    step_ms: Histogram,
    time: Arc<dyn TimeSource>,
}

impl TrainerObs {
    fn new(obs: &Registry, time: Arc<dyn TimeSource>) -> Self {
        Self {
            steps: obs.counter("train.steps"),
            offered: obs.counter("train.transitions_offered"),
            accepted: obs.counter("train.transitions_accepted"),
            shed: obs.counter("train.transitions_shed"),
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
    online: Mlp,
    target: Mlp,
    adam: Adam,
    replay: PairReplay,
    queue: BoundedQueue<PairTransition>,
    /// Service epochs ticked.
    epochs: u32,
    /// Learning steps performed (also the per-step RNG stream position).
    steps: u64,
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
        let mut dims = vec![FEATURE_DIM];
        dims.extend_from_slice(&config.hidden);
        dims.push(1);
        let online = Mlp::new(&dims, config.seed);
        let mut target = Mlp::new(&dims, config.seed.wrapping_add(1));
        target.copy_params_from(&online);
        let adam = Adam::new(&online, config.lr);
        let replay = PairReplay::new(config.replay_capacity.max(1));
        let queue = BoundedQueue::new(config.queue_capacity.max(1), ShedPolicy::DropNewest);
        Self {
            config,
            online,
            target,
            adam,
            replay,
            queue,
            epochs: 0,
            steps: 0,
            candidates: 0,
            obs: TrainerObs::new(obs, time),
            scratch: BatchScratch::default(),
        }
    }

    /// Offers one epoch's tapped transitions into the bounded queue,
    /// recording offer/accept/shed counts.
    pub fn offer(&self, transitions: Vec<PairTransition>) {
        let obs = &self.obs;
        for t in transitions {
            obs.offered.inc();
            if self.queue.push(t) {
                obs.accepted.inc();
            } else {
                obs.shed.inc();
            }
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
            && self.steps > 0;
        due.then(|| {
            self.candidates += 1;
            mlp_to_text(&self.online)
        })
    }

    /// One seeded mini-batch TD update (the `QScore` rule: candidate max
    /// over the target net, [`max_q`]); returns the mean squared TD
    /// error. The batch RNG is derived from `(seed, steps)` alone, so a
    /// restored trainer samples identically to one that never stopped.
    fn learn_step(&mut self) -> f64 {
        let mut rng = StdRng::seed_from_u64(
            self.config.seed
                ^ 0x7472_6169_6e00_0000u64
                ^ self.steps.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let batch_size = self.config.batch_size.max(1);
        let batch = self.replay.sample(&mut rng, batch_size);
        self.online.zero_grad();
        let mut loss = 0.0;
        for t in batch {
            let target_q = if t.next_candidates.is_empty() {
                t.reward
            } else {
                let best = max_q(&self.target, &t.next_candidates, &mut self.scratch);
                t.reward + self.config.gamma * best
            };
            let cache = self.online.forward(&t.features);
            let err = cache.output()[0] - target_q;
            loss += err * err;
            self.online.backward(&cache, &[err]);
        }
        self.adam.step(&mut self.online, batch_size);
        self.steps += 1;
        if self
            .steps
            .is_multiple_of(self.config.target_sync_every.max(1))
        {
            self.target.copy_params_from(&self.online);
        }
        loss / batch_size as f64
    }

    /// The current online network's checkpoint text (what the next
    /// candidate emission would contain).
    pub fn policy_text(&self) -> String {
        mlp_to_text(&self.online)
    }

    /// Progress counters (queue totals come from the shed-counting queue).
    pub fn status(&self) -> TrainerStatus {
        TrainerStatus {
            epochs: self.epochs,
            steps: self.steps,
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
            self.steps,
            self.candidates,
            self.queue.accepted(),
            self.queue.shed()
        );
        out.push_str(&self.adam.to_text());
        out.push_str(&mlp_to_text(&self.online));
        out.push_str(&mlp_to_text(&self.target));
        out.push_str(&self.replay.to_text());
        let queued: Vec<String> = self.queue.peek_all().iter().map(pair_to_line).collect();
        write_block(&mut out, "tqueue", &queued.join("\n"));
        out
    }

    /// Rebuilds a trainer from [`Trainer::snapshot_text`] output under
    /// this trainer's config (like every other serve component, only
    /// *state* comes from the snapshot), recording into the same `train.*`
    /// series with the step and transition counters *set* to the restored
    /// totals, as a service restore sets its `serve.*` counters.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed record.
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
        let mut take_net = |what: &str| -> Result<Mlp, String> {
            mlp_from_text(&reader.lines_block(2, what)?).map_err(|e| e.to_string())
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
        let queued = reader.block(&mut tqueue)?;
        let queue = BoundedQueue::new(config.queue_capacity.max(1), ShedPolicy::DropNewest);
        for line in queued.lines() {
            let t = pair_from_line(line).ok_or_else(|| format!("bad queued line: {line:?}"))?;
            let _ = queue.push(t);
        }
        queue.set_counters(accepted, shed);
        if let Ok(line) = reader.line("end") {
            return Err(format!("trailing line in trainer snapshot: {line:?}"));
        }
        if online.input_dim() != FEATURE_DIM || online.output_dim() != 1 {
            return Err("trainer online network has the wrong shape".to_owned());
        }
        let obs = self.obs.clone();
        obs.steps.set(steps);
        obs.offered.set(accepted + shed);
        obs.accepted.set(accepted);
        obs.shed.set(shed);
        Ok(Self {
            config,
            online,
            target,
            adam,
            replay,
            queue,
            epochs,
            steps,
            candidates,
            obs,
            scratch: BatchScratch::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{Clock, ClockTimeSource, SimClock};

    fn trainer(config: TrainerConfig) -> Trainer {
        let clock: Arc<dyn Clock> = Arc::new(SimClock::new());
        Trainer::new(config, &Registry::new(), Arc::new(ClockTimeSource(clock)))
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
            t.obs.accepted.value() + t.obs.shed.value(),
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
