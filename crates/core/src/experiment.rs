//! The Section-V experiment harness: train on Michael, evaluate on
//! Florence, compare MobiRescue against *Schedule* and *Rescue*.
//!
//! One call to [`run_comparison`] reproduces the data behind Figures 9–16:
//! it builds both scenarios over the same city, mines the rescue ground
//! truth, trains the SVM predictor and the RL agent on Michael, fits the
//! time-series baseline on Florence's request history, runs the three
//! dispatchers through the identical 24-hour request schedule, and
//! evaluates both predictors per road segment.

use crate::baselines::{RescueDispatcher, ScheduleDispatcher};
use crate::predictor::{
    evaluate_per_segment, mine_rescues, PredictorConfig, RequestPredictor, SegmentEval,
};
use crate::rl_dispatch::{MobiRescueDispatcher, RlDispatchConfig};
use crate::scenario::{Scenario, ScenarioConfig};
use crate::timeseries::TimeSeriesPredictor;
use crate::training::{busiest_request_day, requests_on_day, train_offline, TrainingReport};
use mobirescue_mobility::map_match::MapMatcher;
use mobirescue_sim::engine::SimOutcome;
use mobirescue_sim::types::SimConfig;

/// Configuration of a full comparison experiment.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Scenario scale (city + population); the harness derives the Florence
    /// evaluation scenario and the Michael training scenario from it.
    pub scenario: ScenarioConfig,
    /// Build seed (shared by both scenarios — same city).
    pub seed: u64,
    /// Simulation settings for the evaluation day (start hour is
    /// overwritten with the experiment day).
    pub sim: SimConfig,
    /// RL dispatcher settings.
    pub rl: RlDispatchConfig,
    /// SVM predictor settings.
    pub predictor: PredictorConfig,
    /// Offline training episodes on Michael.
    pub train_episodes: usize,
    /// History days for the *Rescue* baseline's time-series predictor.
    pub lookback_days: u32,
}

impl ExperimentConfig {
    /// Small test-scale experiment: full 24-hour evaluation day, 8 teams.
    pub fn small(seed: u64) -> Self {
        let mut sim = SimConfig::paper(0);
        sim.num_teams = 8;
        Self {
            scenario: ScenarioConfig::small(),
            seed,
            sim,
            rl: RlDispatchConfig {
                eps_decay_steps: 4_000,
                ..Default::default()
            },
            predictor: PredictorConfig::default(),
            train_episodes: 6,
            lookback_days: 3,
        }
    }

    /// Mid-scale experiment for benchmarks (minutes, not hours).
    pub fn medium(seed: u64) -> Self {
        let mut sim = SimConfig::paper(0);
        sim.num_teams = 60;
        Self {
            scenario: ScenarioConfig::medium(),
            seed,
            sim,
            rl: RlDispatchConfig {
                zone_k: 8,
                eps_decay_steps: 40_000,
                ..Default::default()
            },
            predictor: PredictorConfig::default(),
            train_episodes: 6,
            lookback_days: 3,
        }
    }

    /// Paper-scale experiment (8,590 people, 100 teams, 24 h).
    pub fn paper(seed: u64) -> Self {
        Self {
            scenario: ScenarioConfig::charlotte_like(),
            seed,
            sim: SimConfig::paper(0),
            rl: RlDispatchConfig {
                zone_k: 12,
                eps_decay_steps: 100_000,
                ..Default::default()
            },
            predictor: PredictorConfig::default(),
            train_episodes: 8,
            lookback_days: 3,
        }
    }
}

/// One method's simulation result.
#[derive(Debug, Clone)]
pub struct MethodResult {
    /// Method name ("MobiRescue", "Rescue", "Schedule").
    pub name: String,
    /// The full simulation outcome (feeds Figures 9–14).
    pub outcome: SimOutcome,
}

/// Everything the evaluation figures need.
#[derive(Debug)]
pub struct Comparison {
    /// The evaluated day (the paper's Sep 16).
    pub experiment_day: u32,
    /// Requests injected on that day.
    pub num_requests: usize,
    /// Per-method outcomes, in order MobiRescue, Rescue, Schedule.
    pub results: Vec<MethodResult>,
    /// Per-segment SVM prediction evaluation (Figures 15–16, MobiRescue).
    pub prediction_mr: SegmentEval,
    /// Per-segment time-series evaluation (Figures 15–16, Rescue).
    pub prediction_rescue: SegmentEval,
    /// Offline training report (Michael episodes).
    pub training: TrainingReport,
    /// The evaluation scenario, for further analysis.
    pub florence: Scenario,
}

impl Comparison {
    /// The result of a named method.
    ///
    /// # Panics
    ///
    /// Panics if the method is unknown.
    pub fn method(&self, name: &str) -> &MethodResult {
        self.results
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("no method named {name}"))
    }
}

/// Runs the full train-on-Michael / evaluate-on-Florence comparison.
///
/// # Panics
///
/// Panics if either scenario produces no rescue ground truth (degenerate
/// configurations only).
pub fn run_comparison(config: &ExperimentConfig) -> Comparison {
    let michael = config.scenario.clone().michael().build(config.seed);
    let florence = config.scenario.clone().florence().build(config.seed);
    let matcher = MapMatcher::new(&florence.city.network);

    // Ground truth on the evaluation disaster.
    let florence_rescues = mine_rescues(&florence);
    let experiment_day =
        busiest_request_day(&florence_rescues).expect("Florence produced no rescues");
    let requests = requests_on_day(&florence, &matcher, &florence_rescues, experiment_day);

    // Train on Michael (Section V-B).
    let predictor = RequestPredictor::train_on(&michael, &config.predictor);
    let (policy, training) = train_offline(
        &michael,
        Some(predictor.clone()),
        config.rl.clone(),
        &config.sim,
        config.train_episodes,
    );

    let mut sim = config.sim.clone();
    sim.start_hour = experiment_day * 24;
    sim.duration_hours = sim
        .duration_hours
        .min(florence.disaster.total_hours() - sim.start_hour);

    // MobiRescue: trained agent + online continual training (IV-C4).
    let mut mr = MobiRescueDispatcher::with_policy(
        &florence,
        Some(predictor.clone()),
        config.rl.clone(),
        policy,
    );
    mr.reset_episode();
    let mr_outcome = mobirescue_sim::run(
        &florence.city,
        &florence.conditions,
        &requests,
        &mut mr,
        &sim,
    );

    // Rescue baseline: time-series over the experiment day's history.
    let lookback = config.lookback_days.min(experiment_day);
    let ts = TimeSeriesPredictor::fit(
        &florence.city.network,
        &matcher,
        &florence_rescues,
        experiment_day,
        lookback.max(1),
    );
    let mut rescue = RescueDispatcher::new(ts.clone());
    let rescue_outcome = mobirescue_sim::run(
        &florence.city,
        &florence.conditions,
        &requests,
        &mut rescue,
        &sim,
    );

    // Schedule baseline.
    let mut schedule = ScheduleDispatcher::default();
    let schedule_outcome = mobirescue_sim::run(
        &florence.city,
        &florence.conditions,
        &requests,
        &mut schedule,
        &sim,
    );

    // Figures 15–16: per-segment prediction quality on the experiment day.
    let prediction_mr = evaluate_per_segment(
        &florence,
        &matcher,
        &florence_rescues,
        experiment_day,
        |pos, hour| predictor.predict(&florence.disaster.factors_at(pos, hour)),
    );
    let prediction_rescue = evaluate_per_segment(
        &florence,
        &matcher,
        &florence_rescues,
        experiment_day,
        |pos, hour| {
            let seg = matcher.nearest_segment(&florence.city.network, pos);
            ts.predict_person(seg, hour % 24, 0.2)
        },
    );

    Comparison {
        experiment_day,
        num_requests: requests.len(),
        results: vec![
            MethodResult {
                name: "MobiRescue".into(),
                outcome: mr_outcome,
            },
            MethodResult {
                name: "Rescue".into(),
                outcome: rescue_outcome,
            },
            MethodResult {
                name: "Schedule".into(),
                outcome: schedule_outcome,
            },
        ],
        prediction_mr,
        prediction_rescue,
        training,
        florence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_comparison_runs_end_to_end() {
        let mut config = ExperimentConfig::small(71);
        config.train_episodes = 2;
        config.sim.duration_hours = 6;
        let cmp = run_comparison(&config);
        assert_eq!(cmp.results.len(), 3);
        assert!(cmp.num_requests > 0);
        for m in &cmp.results {
            assert_eq!(m.outcome.requests.len(), cmp.num_requests);
        }
        assert!(cmp.prediction_mr.overall.total() > 0);
        assert!(cmp.prediction_rescue.overall.total() > 0);
        assert_eq!(cmp.method("Schedule").name, "Schedule");
        assert_eq!(cmp.training.episodes.len(), 2);
    }
}
