//! Workload set-up: scenario builds, model training and request mining,
//! each timed as its own layer.
//!
//! [`build_scenario`] calls the public constructors that
//! `ScenarioConfig::build` calls, in the same order, so the scenario is
//! the one the preset would build and each constructor's cost lands on
//! the layer that owns it.

use crate::stats::Samples;
use mobirescue_core::experiment::ExperimentConfig;
use mobirescue_core::predictor::{PredictorConfig, RequestPredictor};
use mobirescue_core::rl_dispatch::{MobiRescueDispatcher, RlDispatchConfig, FEATURE_DIM};
use mobirescue_core::scenario::{Scenario, ScenarioConfig};
use mobirescue_core::training::train_offline;
use mobirescue_disaster::scenario::DisasterScenario;
use mobirescue_mobility::flow::HourlyConditions;
use mobirescue_mobility::generator::generate;
use mobirescue_mobility::stream::generate_streamed;
use mobirescue_rl::nn::Mlp;
use mobirescue_rl::qscore::{QScore, QScoreConfig};
use mobirescue_sim::SimConfig;
use std::time::Instant;

/// The deployment every workload serves is built from this seed: one
/// city, one storm, one population and one pair of trained models, as the
/// paper evaluates one fixed Charlotte dataset. A run's `--seed` draws only
/// its request stream, so runs with different seeds measure the same
/// system on different, equally sized inputs.
pub const WORLD_SEED: u64 = 7;

/// How many times each run sets its workload up; `setup_s` is the median,
/// so one slow build (a page-cache miss, a neighbour's burst) does not
/// move it.
pub const SETUP_REPEATS: usize = 3;

/// Offline DQN training budget: episodes of [`SimConfig::small`] (six
/// teams, four simulated hours) on the small Michael scenario. Small
/// enough to repeat the whole set-up [`SETUP_REPEATS`] times per run.
const RL_EPISODES: usize = 2;

/// Milliseconds each set-up layer took.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetupTimes {
    /// City and road-network generation.
    pub roadnet_ms: f64,
    /// Disaster model plus hourly network conditions.
    pub conditions_ms: f64,
    /// Synthetic population (materialized or streamed).
    pub population_ms: f64,
    /// SVM request-predictor training (including its ground-truth mining).
    pub svm_ms: f64,
    /// Offline DQN training.
    pub rl_ms: f64,
    /// Mining the evaluation request stream.
    pub mine_ms: f64,
}

impl SetupTimes {
    /// Field-wise median over repeated set-ups.
    pub fn median(all: &[SetupTimes]) -> SetupTimes {
        let field = |get: fn(&SetupTimes) -> f64| {
            let mut s: Samples = all.iter().map(|t| (get(t) * 1e3) as u64).collect();
            s.median() as f64 / 1e3
        };
        SetupTimes {
            roadnet_ms: field(|t| t.roadnet_ms),
            conditions_ms: field(|t| t.conditions_ms),
            population_ms: field(|t| t.population_ms),
            svm_ms: field(|t| t.svm_ms),
            rl_ms: field(|t| t.rl_ms),
            mine_ms: field(|t| t.mine_ms),
        }
    }
}

/// Milliseconds since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Builds `cfg`'s scenario exactly as `ScenarioConfig::build` does,
/// charging each constructor to its layer in `t`.
pub fn build_scenario(cfg: &ScenarioConfig, seed: u64, t: &mut SetupTimes) -> Scenario {
    let t0 = Instant::now();
    let city = cfg.city.build(seed);
    t.roadnet_ms += ms_since(t0);

    let t0 = Instant::now();
    let disaster = DisasterScenario::new(&city, cfg.hurricane.clone(), seed);
    t.conditions_ms += ms_since(t0);

    let t0 = Instant::now();
    let generated = match cfg.materialize_cap {
        Some(cap) if cfg.population.num_people > cap => {
            generate_streamed(&city, &disaster, &cfg.population, seed, cap)
        }
        _ => generate(&city, &disaster, &cfg.population, seed),
    };
    t.population_ms += ms_since(t0);

    let t0 = Instant::now();
    let window = cfg
        .condition_window
        .clone()
        .unwrap_or(0..disaster.total_hours());
    let conditions = HourlyConditions::compute_window(&city.network, &disaster, window);
    t.conditions_ms += ms_since(t0);

    Scenario {
        config: cfg.clone(),
        seed,
        city,
        disaster,
        generated,
        conditions,
    }
}

/// The trained models every workload serves with: the SVM trained on the
/// small Michael scenario (the paper trains on the previous storm) and
/// the DQN scoring network trained offline on the same scenario.
pub struct Models {
    /// The SVM request predictor.
    pub predictor: RequestPredictor,
    /// The DQN scoring network's weights.
    pub policy: Mlp,
}

/// Dispatcher settings of the paper-scale experiment (`zone_k` 12).
pub fn paper_rl() -> RlDispatchConfig {
    ExperimentConfig::paper(WORLD_SEED).rl
}

/// Trains [`Models`] on the [`WORLD_SEED`] Michael scenario, charging its
/// build to its layers and the two trainings to `svm_ms` and `rl_ms`.
pub fn train_models(t: &mut SetupTimes) -> Models {
    let michael = build_scenario(&ScenarioConfig::small().michael(), WORLD_SEED, t);

    let t0 = Instant::now();
    let predictor = RequestPredictor::train_on(&michael, &PredictorConfig::default());
    t.svm_ms += ms_since(t0);

    let sim = SimConfig::small(0);
    let mut rl = paper_rl();
    // Anneal exploration over the budget, as RlDispatchConfig documents:
    // about half of episodes × rounds × teams.
    let rounds = sim.duration_s() / sim.dispatch_period_s;
    rl.eps_decay_steps = (RL_EPISODES as u64 * u64::from(rounds) * sim.num_teams as u64) / 2;
    let t0 = Instant::now();
    let (policy, _) = train_offline(&michael, Some(predictor.clone()), rl, &sim, RL_EPISODES);
    t.rl_ms += ms_since(t0);

    Models {
        predictor,
        policy: policy.online().clone(),
    }
}

/// A frozen-greedy MobiRescue dispatcher over `scenario` serving `models`
/// — the same construction the serve runtime's shards use.
pub fn frozen_dispatcher<'a>(
    scenario: &'a Scenario,
    models: &Models,
    rl: &RlDispatchConfig,
) -> MobiRescueDispatcher<'a> {
    let mut qcfg = QScoreConfig::new(FEATURE_DIM);
    qcfg.hidden = rl.hidden.clone();
    qcfg.lr = rl.lr;
    qcfg.gamma = rl.discount;
    qcfg.seed = rl.seed;
    let policy = QScore::from_mlp(qcfg, models.policy.clone());
    let mut d = MobiRescueDispatcher::with_policy(
        scenario,
        Some(models.predictor.clone()),
        rl.clone(),
        policy,
    );
    d.set_training(false);
    d
}

/// Runs `setup` [`SETUP_REPEATS`] times, dropping each result before
/// building the next so peak memory holds one set-up, and returns the
/// last one with the median wall time in seconds and the field-wise
/// median layer times.
pub fn repeat_setup<T>(mut setup: impl FnMut(&mut SetupTimes) -> T) -> (T, f64, SetupTimes) {
    let mut walls = Samples::new();
    let mut layers = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        drop(kept.take());
        let mut t = SetupTimes::default();
        let t0 = Instant::now();
        kept = Some(setup(&mut t));
        walls.push(t0.elapsed().as_micros() as u64);
        layers.push(t);
    }
    let kept = kept.expect("SETUP_REPEATS is positive");
    (
        kept,
        walls.median() as f64 / 1e6,
        SetupTimes::median(&layers),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobirescue_roadnet::graph::SegmentId;
    use mobirescue_sim::fnv1a_64;

    #[test]
    fn layered_build_matches_the_preset_build() {
        let cfg = ScenarioConfig::small().florence();
        let mut t = SetupTimes::default();
        let ours = build_scenario(&cfg, 5, &mut t);
        let theirs = cfg.build(5);
        assert_eq!(
            ours.city.network.num_segments(),
            theirs.city.network.num_segments()
        );
        assert_eq!(ours.city.hospitals, theirs.city.hospitals);
        assert_eq!(
            ours.generated.dataset.num_people(),
            theirs.generated.dataset.num_people()
        );
        assert_eq!(
            ours.generated.dataset.pings.len(),
            theirs.generated.dataset.pings.len()
        );
        assert_eq!(
            (ours.conditions.first_hour(), ours.conditions.hours()),
            (theirs.conditions.first_hour(), theirs.conditions.hours())
        );
        // Generation counters differ between any two builds; the
        // per-segment conditions of every hour must not.
        let conditions = |s: &Scenario| {
            let mut text = String::new();
            for hour in s.conditions.first_hour()..s.conditions.hours() {
                let c = s.conditions.at(hour);
                for seg in 0..c.len() as u32 {
                    text.push_str(&format!("{:?}", c.condition(SegmentId(seg))));
                }
            }
            fnv1a_64(&text)
        };
        assert_eq!(conditions(&ours), conditions(&theirs));
        assert!(t.roadnet_ms > 0.0 && t.population_ms > 0.0 && t.conditions_ms > 0.0);
    }

    #[test]
    fn setup_median_is_field_wise() {
        let mk = |v: f64| SetupTimes {
            roadnet_ms: v,
            conditions_ms: 10.0 * v,
            population_ms: v,
            svm_ms: v,
            rl_ms: v,
            mine_ms: v,
        };
        let m = SetupTimes::median(&[mk(3.0), mk(1.0), mk(2.0)]);
        assert_eq!(m, mk(2.0));
    }
}
