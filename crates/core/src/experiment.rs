//! The Section-V experiment harness: train on Michael, evaluate on
//! Florence, compare MobiRescue against *Schedule* and *Rescue*.
//!
//! [`Evaluation`] builds the evaluated day once, and every method — a
//! baseline, MobiRescue or one of `ablation`'s variants — runs through it.
//! One call to [`run_comparison`] reproduces the data behind Figures 9–16:
//! on that set-up it runs MobiRescue and the two baselines through the
//! identical 24-hour request schedule, fitting the time-series baseline on
//! Florence's request history, and evaluates both predictors per road
//! segment.

use crate::baselines::{RescueDispatcher, ScheduleDispatcher};
use crate::predictor::{
    evaluate_per_segment, mine_rescues, PredictorConfig, RequestPredictor, SegmentEval,
};
use crate::rl_dispatch::{MobiRescueDispatcher, RlDispatchConfig};
use crate::scenario::{Scenario, ScenarioConfig};
use crate::timeseries::TimeSeriesPredictor;
use crate::training::{busiest_request_day, requests_on_day, train_offline, TrainingReport};
use mobirescue_mobility::map_match::MapMatcher;
use mobirescue_mobility::rescue::RescueRecord;
use mobirescue_sim::engine::SimOutcome;
use mobirescue_sim::types::{RequestSpec, SimConfig};
use mobirescue_sim::Dispatcher;

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

/// The Michael→Florence evaluation day, built once: both storms over one
/// city, Florence's busiest request day and its requests, the SVM trained
/// on Michael and the evaluation day's simulation settings. Every method
/// under comparison — the paper's baselines, MobiRescue and its ablated
/// variants — runs against this one value.
#[derive(Debug)]
pub struct Evaluation {
    /// The training scenario (Hurricane Michael).
    michael: Scenario,
    /// The evaluation scenario (Hurricane Florence, same city).
    florence: Scenario,
    /// Map matcher over the city's road network.
    matcher: MapMatcher,
    /// Florence's mined rescue ground truth.
    rescues: Vec<RescueRecord>,
    /// Florence's busiest request day (the paper's Sep 16).
    pub day: u32,
    /// The requests injected on that day.
    pub requests: Vec<RequestSpec>,
    /// The SVM request predictor trained on Michael.
    predictor: RequestPredictor,
    /// The evaluated day's simulation settings, clamped to the timeline.
    pub sim: SimConfig,
    /// The configuration it was prepared from; offline training runs on
    /// its simulation settings.
    config: ExperimentConfig,
}

impl Evaluation {
    /// Builds both scenarios from `config`, mines Florence's ground truth,
    /// picks its busiest day and trains the SVM on Michael.
    ///
    /// # Panics
    ///
    /// Panics if Florence produces no rescue ground truth (degenerate
    /// configurations only).
    pub fn prepare(config: &ExperimentConfig) -> Self {
        let michael = config.scenario.clone().michael().build(config.seed);
        let florence = config.scenario.clone().florence().build(config.seed);
        let matcher = MapMatcher::new(&florence.city.network);
        let rescues = mine_rescues(&florence);
        let day = busiest_request_day(&rescues).expect("Florence produced no rescues");
        let requests = requests_on_day(&florence, &matcher, &rescues, day);
        let predictor = RequestPredictor::train_on(&michael, &config.predictor);
        let mut sim = config.sim.clone();
        sim.start_hour = day * 24;
        sim.duration_hours = sim
            .duration_hours
            .min(florence.disaster.total_hours() - sim.start_hour);
        Self {
            michael,
            florence,
            matcher,
            rescues,
            day,
            requests,
            predictor,
            sim,
            config: config.clone(),
        }
    }

    /// Runs `dispatcher` through the evaluated day.
    pub fn run(&self, dispatcher: &mut dyn Dispatcher) -> SimOutcome {
        mobirescue_sim::run(
            &self.florence.city,
            &self.florence.conditions,
            &self.requests,
            dispatcher,
            &self.sim,
        )
    }

    /// Trains MobiRescue offline on Michael under `rl` — with the SVM
    /// predictor when `use_predictor`, on live requests only otherwise —
    /// then runs the trained agent through the evaluated day, learning
    /// online (Section IV-C4) when `online`, frozen otherwise.
    pub fn run_mobirescue(
        &self,
        rl: RlDispatchConfig,
        use_predictor: bool,
        online: bool,
    ) -> (SimOutcome, TrainingReport) {
        let predictor = use_predictor.then(|| self.predictor.clone());
        let (policy, training) = train_offline(
            &self.michael,
            predictor.clone(),
            rl.clone(),
            &self.config.sim,
            self.config.train_episodes,
        );
        let mut dispatcher =
            MobiRescueDispatcher::with_policy(&self.florence, predictor, rl, policy);
        dispatcher.set_training(online);
        (self.run(&mut dispatcher), training)
    }
}

/// Runs the full train-on-Michael / evaluate-on-Florence comparison.
///
/// # Panics
///
/// Panics if either scenario produces no rescue ground truth (degenerate
/// configurations only).
pub fn run_comparison(config: &ExperimentConfig) -> Comparison {
    let eval = Evaluation::prepare(config);
    let Evaluation {
        florence,
        matcher,
        rescues,
        day,
        predictor,
        ..
    } = &eval;

    // MobiRescue: trained agent + online continual training (IV-C4).
    let (mr_outcome, training) = eval.run_mobirescue(config.rl.clone(), true, true);

    // Rescue baseline: time-series over the experiment day's history.
    let lookback = config.lookback_days.min(*day);
    let ts = TimeSeriesPredictor::fit(
        &florence.city.network,
        matcher,
        rescues,
        *day,
        lookback.max(1),
    );
    let rescue_outcome = eval.run(&mut RescueDispatcher::new(ts.clone()));
    let schedule_outcome = eval.run(&mut ScheduleDispatcher::default());

    // Figures 15–16: per-segment prediction quality on the experiment day.
    let prediction_mr = evaluate_per_segment(florence, matcher, rescues, *day, |pos, hour| {
        predictor.predict(&florence.disaster.factors_at(pos, hour))
    });
    let prediction_rescue = evaluate_per_segment(florence, matcher, rescues, *day, |pos, hour| {
        let seg = matcher.nearest_segment(&florence.city.network, pos);
        ts.predict_person(seg, hour % 24, 0.2)
    });

    Comparison {
        experiment_day: eval.day,
        num_requests: eval.requests.len(),
        results: [
            ("MobiRescue", mr_outcome),
            ("Rescue", rescue_outcome),
            ("Schedule", schedule_outcome),
        ]
        .map(|(name, outcome)| MethodResult {
            name: name.into(),
            outcome,
        })
        .into(),
        prediction_mr,
        prediction_rescue,
        training,
        florence: eval.florence,
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
