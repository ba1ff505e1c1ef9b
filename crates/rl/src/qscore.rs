//! Q-learning over *action features* (a scoring network).
//!
//! Instead of one output head per discrete action, the network scores a
//! feature vector describing a `(state, action)` pair; the policy picks the
//! best-scored candidate. With shared weights across actions the learner
//! generalizes across zones/teams from very little data — the property the
//! dispatch policy needs, since one day of disaster provides only a few
//! hundred rounds.

use crate::adam::Adam;
use crate::nn::{BatchScratch, Mlp};
use crate::replay::PairReplay;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::cell::RefCell;
use std::cmp::Ordering;

/// Hyperparameters of the scoring learner.
#[derive(Debug, Clone, PartialEq)]
pub struct QScoreConfig {
    /// Dimension of one `(state, action)` feature vector.
    pub feature_dim: usize,
    /// Hidden layers of the scoring network.
    pub hidden: Vec<usize>,
    /// TD discount γ.
    pub gamma: f64,
    /// Adam learning rate.
    pub lr: f64,
    /// Minibatch size per learning step.
    pub batch_size: usize,
    /// Replay capacity.
    pub replay_capacity: usize,
    /// Transitions required before learning starts.
    pub min_replay: usize,
    /// Sync the target network every this many learning steps.
    pub target_sync_every: u64,
    /// Initial exploration rate.
    pub eps_start: f64,
    /// Final exploration rate.
    pub eps_end: f64,
    /// Acting steps over which ε anneals linearly.
    pub eps_decay_steps: u64,
    /// RNG / init seed.
    pub seed: u64,
}

impl QScoreConfig {
    /// Defaults for a small dispatch problem.
    pub fn new(feature_dim: usize) -> Self {
        Self {
            feature_dim,
            hidden: vec![32, 32],
            gamma: 0.9,
            lr: 1e-3,
            batch_size: 32,
            replay_capacity: 50_000,
            min_replay: 200,
            target_sync_every: 200,
            eps_start: 0.5,
            eps_end: 0.02,
            eps_decay_steps: 5_000,
            seed: 0,
        }
    }
}

/// One stored transition: the chosen pair's features, the observed reward,
/// and the feature vectors of every candidate in the next state.
#[derive(Debug, Clone, PartialEq)]
pub struct PairTransition {
    /// Features of the chosen `(state, action)` pair.
    pub features: Vec<f64>,
    /// Reward observed after acting.
    pub reward: f64,
    /// Candidate features available in the next state (empty = terminal).
    pub next_candidates: Vec<Vec<f64>>,
}

/// A Q-network over action features with replay and a target network.
#[derive(Debug)]
pub struct QScore {
    config: QScoreConfig,
    /// The scoring network being trained.
    online: Mlp,
    /// The TD bootstrap's copy of `online`, synced every
    /// `target_sync_every` learning steps.
    target: Mlp,
    adam: Adam,
    replay: PairReplay,
    rng: StdRng,
    act_steps: u64,
    learn_steps: u64,
    /// Activation buffers every scoring pass reuses.
    scratch: RefCell<BatchScratch>,
}

/// The TD bootstrap `max_c Q(c)` over a one-output network: one batched
/// pass over the candidates, reduced from −∞ with `f64::max` as the
/// per-candidate loop was (so a NaN score is skipped).
fn max_q(net: &Mlp, candidates: &[Vec<f64>], scratch: &mut BatchScratch) -> f64 {
    debug_assert_eq!(net.output_dim(), 1, "Q-network outputs one score");
    net.predict_batch(candidates, scratch)
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max)
}

/// Index of the highest score by `Iterator::max_by`'s rules: the last
/// maximum wins, and a NaN met in a comparison panics.
fn argmax(scores: &[f64]) -> usize {
    let mut best = 0;
    for (i, s) in scores.iter().enumerate().skip(1) {
        match scores[best].partial_cmp(s).expect("Q values are never NaN") {
            Ordering::Greater => {}
            Ordering::Less | Ordering::Equal => best = i,
        }
    }
    best
}

impl QScore {
    /// Creates the learner.
    ///
    /// # Panics
    ///
    /// Panics if `feature_dim`, `batch_size` or `replay_capacity` is
    /// zero.
    pub fn new(config: QScoreConfig) -> Self {
        assert!(config.feature_dim > 0, "feature dimension must be positive");
        assert!(config.batch_size > 0, "batch size must be positive");
        let mut dims = vec![config.feature_dim];
        dims.extend_from_slice(&config.hidden);
        dims.push(1);
        let online = Mlp::new(&dims, config.seed);
        Self::around(config, online)
    }

    /// A learner around `online`: the target network starts as a copy of
    /// it, Adam fresh at `config.lr`, and the replay buffer empty.
    fn around(config: QScoreConfig, online: Mlp) -> Self {
        Self {
            target: online.clone(),
            adam: Adam::new(&online, config.lr),
            online,
            replay: PairReplay::new(config.replay_capacity),
            rng: StdRng::seed_from_u64(config.seed ^ 0x7173_636f_7265),
            config,
            act_steps: 0,
            learn_steps: 0,
            scratch: RefCell::default(),
        }
    }

    /// Rebuilds a learner around a scoring network trained earlier in this
    /// process — how a serving runtime takes over the policy it boots
    /// with. Models are retrained, never loaded from outside the process.
    /// The target network starts synced to `online`, the replay buffer
    /// empty, and `config.hidden` is overwritten with the network's actual
    /// hidden sizes.
    ///
    /// # Panics
    ///
    /// Panics if the network's input dimension differs from
    /// `config.feature_dim`, its output is not a single score, or
    /// `replay_capacity` is zero.
    pub fn from_mlp(mut config: QScoreConfig, online: Mlp) -> Self {
        assert_eq!(
            online.input_dim(),
            config.feature_dim,
            "network input dimension must match the feature dimension"
        );
        assert_eq!(
            online.output_dim(),
            1,
            "scoring network must output one value"
        );
        let dims = online.layer_dims();
        config.hidden = dims[1..dims.len() - 1].to_vec();
        Self::around(config, online)
    }

    /// The online scoring network (what a trained policy hands on to
    /// [`QScore::from_mlp`]).
    pub fn online(&self) -> &Mlp {
        &self.online
    }

    /// The configuration.
    pub fn config(&self) -> &QScoreConfig {
        &self.config
    }

    /// Current exploration rate.
    pub fn epsilon(&self) -> f64 {
        let f = (self.act_steps as f64 / self.config.eps_decay_steps as f64).min(1.0);
        self.config.eps_start + (self.config.eps_end - self.config.eps_start) * f
    }

    /// Q-value of one pair.
    pub fn q(&self, features: &[f64]) -> f64 {
        self.online().predict(features)[0]
    }

    /// Index of the best-scored candidate — the last one when several tie
    /// — scoring every candidate once in one batched pass.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty, or if a candidate scores NaN.
    pub fn best<R: AsRef<[f64]>>(&self, candidates: &[R]) -> usize {
        assert!(!candidates.is_empty(), "no candidates to score");
        argmax(
            self.online()
                .predict_batch(candidates, &mut self.scratch.borrow_mut()),
        )
    }

    /// ε-greedy selection among candidates.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub fn act<R: AsRef<[f64]>>(&mut self, candidates: &[R]) -> usize {
        assert!(!candidates.is_empty(), "no candidates to score");
        self.act_steps += 1;
        if self.rng.random::<f64>() < self.epsilon() {
            self.rng.random_range(0..candidates.len())
        } else {
            self.best(candidates)
        }
    }

    /// Stores a transition (ring buffer).
    pub fn store(&mut self, t: PairTransition) {
        self.replay.push(t);
    }

    /// Stores and, once warmed up, learns. Returns the TD loss if a step
    /// happened.
    pub fn observe(&mut self, t: PairTransition) -> Option<f64> {
        self.store(t);
        (self.replay.len() >= self.config.min_replay.max(self.config.batch_size))
            .then(|| self.learn_step())
    }

    /// One minibatch TD step over a sampled batch: the target is the
    /// reward plus γ times the target network's best next score (just the
    /// reward when there is no next state); then forward, backward and one
    /// Adam step, and a target sync every `target_sync_every` steps.
    /// Returns the mean squared TD error.
    ///
    /// # Panics
    ///
    /// Panics if nothing has been stored yet, or a stored transition's
    /// features or next candidates are not the network's input width.
    pub fn learn_step(&mut self) -> f64 {
        assert!(!self.replay.is_empty(), "nothing to learn from");
        let batch = self.replay.sample(&mut self.rng, self.config.batch_size);
        let scratch = self.scratch.get_mut();
        self.online.zero_grad();
        let mut loss = 0.0;
        for t in &batch {
            let target_q = if t.next_candidates.is_empty() {
                t.reward
            } else {
                let best_next = max_q(&self.target, &t.next_candidates, scratch);
                t.reward + self.config.gamma * best_next
            };
            let cache = self.online.forward(&t.features);
            let err = cache.output()[0] - target_q;
            loss += err * err;
            self.online.backward(&cache, &[err]);
        }
        self.adam.step(&mut self.online, batch.len());
        self.learn_steps += 1;
        if self
            .learn_steps
            .is_multiple_of(self.config.target_sync_every)
        {
            self.target.copy_params_from(&self.online);
        }
        loss / batch.len() as f64
    }

    /// Learning steps performed so far.
    pub fn learn_steps(&self) -> u64 {
        self.learn_steps
    }

    /// Acting steps performed so far.
    pub fn act_steps(&self) -> u64 {
        self.act_steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Candidates are `(value, noise)` pairs; reward equals the value. The
    /// learner must score by the first feature.
    #[test]
    fn learns_to_rank_by_value_feature() {
        let mut cfg = QScoreConfig::new(2);
        cfg.eps_decay_steps = 800;
        cfg.min_replay = 32;
        cfg.seed = 5;
        let mut q = QScore::new(cfg);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..1_500 {
            let candidates: Vec<Vec<f64>> = (0..4)
                .map(|_| vec![rng.random::<f64>(), rng.random::<f64>()])
                .collect();
            let a = q.act(&candidates);
            let reward = candidates[a][0];
            q.observe(PairTransition {
                features: candidates[a].clone(),
                reward,
                next_candidates: Vec::new(),
            });
        }
        // Greedy choice must pick the max-value candidate.
        let test: Vec<Vec<f64>> = vec![vec![0.1, 0.9], vec![0.9, 0.1], vec![0.5, 0.5]];
        assert_eq!(q.best(&test), 1);
        assert!(q.learn_steps() > 0);
    }

    #[test]
    fn epsilon_anneals_with_acting() {
        let mut cfg = QScoreConfig::new(1);
        cfg.eps_decay_steps = 10;
        let mut q = QScore::new(cfg);
        assert_eq!(q.epsilon(), 0.5);
        for _ in 0..20 {
            let _ = q.act(&[vec![0.0]]);
        }
        assert!((q.epsilon() - 0.02).abs() < 1e-9);
    }

    #[test]
    fn bootstrapped_targets_propagate_value() {
        // Two-step chain: choosing "go" (feature 1) leads to a next state
        // whose candidates include a high-reward option; "stop" ends with
        // zero. Q(go) must exceed Q(stop).
        let mut cfg = QScoreConfig::new(1);
        cfg.min_replay = 16;
        cfg.gamma = 0.9;
        cfg.seed = 2;
        let mut q = QScore::new(cfg);
        for _ in 0..800 {
            q.observe(PairTransition {
                features: vec![1.0],
                reward: 0.0,
                next_candidates: vec![vec![2.0]],
            });
            q.observe(PairTransition {
                features: vec![2.0],
                reward: 1.0,
                next_candidates: Vec::new(),
            });
            q.observe(PairTransition {
                features: vec![0.0],
                reward: 0.0,
                next_candidates: Vec::new(),
            });
        }
        assert!(
            q.q(&[1.0]) > q.q(&[0.0]) + 0.3,
            "go {} stop {}",
            q.q(&[1.0]),
            q.q(&[0.0])
        );
    }

    #[test]
    #[should_panic(expected = "no candidates")]
    fn empty_candidates_rejected() {
        let mut q = QScore::new(QScoreConfig::new(1));
        let _ = q.act::<Vec<f64>>(&[]);
    }

    #[test]
    #[should_panic(expected = "Q values are never NaN")]
    fn nan_scores_panic_like_max_by() {
        let mut net = Mlp::new(&[1, 4, 1], 3);
        net.visit_params_mut(|_, w, _| *w = f64::NAN);
        let q = QScore::from_mlp(QScoreConfig::new(1), net);
        let _ = q.best(&[[0.0], [1.0]]);
    }

    #[test]
    fn ties_go_to_the_last_maximum() {
        assert_eq!(argmax(&[1.0, 3.0, 2.0, 3.0, -1.0]), 3);
        assert_eq!(argmax(&[0.0, -0.0]), 1);
        assert_eq!(argmax(&[f64::NAN]), 0);
    }
}
